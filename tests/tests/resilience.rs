//! Integration tests for resilient pipeline execution: budget-driven
//! cooperative cancellation in the hot loops (annealing placement, grid
//! routing, flow solve), graceful degradation, and deterministic fault
//! injection end-to-end through the suite harness.

use parchmint::CompiledDevice;
use parchmint_harness::{run_suite, standard_stages, CellStatus, SuiteRunConfig};
use parchmint_obs::Collector;
use parchmint_pnr::place::annealing::AnnealingPlacer;
use parchmint_pnr::place::Placer;
use parchmint_pnr::route::grid::AStarRouter;
use parchmint_pnr::route::Router;
use parchmint_pnr::{PlacerChoice, RouterChoice};
use parchmint_resilience::{Budget, FaultKind, FaultPlan, FaultSpec, StopReason};
use parchmint_sim::{FlowNetwork, Fluid, SimError};
use std::sync::Arc;
use std::time::Duration;

/// Runs `body` under a fresh collector, returning its result and the value
/// of counter `key` (0 when never emitted).
fn counted<T>(key: &'static str, body: impl FnOnce() -> T) -> (T, u64) {
    let collector = Arc::new(Collector::new());
    let recorder: Arc<dyn parchmint_obs::Recorder> = Arc::clone(&collector) as _;
    let result = parchmint_obs::with_recorder(recorder, body);
    let count = collector.summary().counters.get(key).copied().unwrap_or(0);
    (result, count)
}

fn compiled(name: &str) -> CompiledDevice {
    CompiledDevice::compile(
        parchmint_suite::by_name(name)
            .expect("registered benchmark")
            .device(),
    )
}

#[test]
fn cancelled_annealing_stops_before_its_first_sweep_but_stays_legal() {
    let device = compiled("rotary_pump_mixer");
    let budget = Budget::unlimited();
    budget.cancel();
    let (placement, sweeps) = counted("pnr.place.sweeps", || {
        budget.enter(|| AnnealingPlacer::new().place(&device))
    });
    assert_eq!(budget.interruption(), Some(StopReason::Cancelled));
    assert_eq!(
        sweeps, 0,
        "a pre-cancelled budget stops the very first sweep"
    );
    // The partial result is the legal initial placement, not garbage.
    assert_eq!(placement.len(), device.device().components.len());
    assert!(placement.is_legal(&device));
}

#[test]
fn fuel_exhaustion_interrupts_annealing_mid_run_deterministically() {
    let device = compiled("rotary_pump_mixer");
    let full = AnnealingPlacer::new().place(&device);

    // One check interval of fuel: the meter's first probe happens at tick
    // one, the next at tick interval+1, which exceeds the budget and trips.
    let budget = Budget::unlimited().with_fuel(u64::from(
        parchmint_pnr::place::annealing::PLACE_CHECK_INTERVAL,
    ));
    let collector = Arc::new(Collector::new());
    let recorder: Arc<dyn parchmint_obs::Recorder> = Arc::clone(&collector) as _;
    let partial = parchmint_obs::with_recorder(recorder, || {
        budget.enter(|| AnnealingPlacer::new().place(&device))
    });
    let counters = collector.summary().counters;
    assert_eq!(budget.interruption(), Some(StopReason::FuelExhausted));
    assert_eq!(
        counters.get("resilience.interrupted.fuel").copied(),
        Some(1),
        "the trip is recorded exactly once"
    );
    let sweeps = counters.get("pnr.place.sweeps").copied().unwrap_or(0);
    assert!(
        sweeps < 120,
        "interrupted anneal reported {sweeps} sweeps, expected fewer than the full run"
    );
    assert_eq!(partial.len(), full.len(), "partial placement is complete");
    assert!(partial.is_legal(&device));

    // Determinism: the same budget stops at the same point.
    let budget2 = Budget::unlimited().with_fuel(u64::from(
        parchmint_pnr::place::annealing::PLACE_CHECK_INTERVAL,
    ));
    let partial2 = budget2.enter(|| AnnealingPlacer::new().place(&device));
    assert_eq!(partial, partial2, "fuel interruption is deterministic");
}

#[test]
fn cancelled_grid_router_returns_a_wellformed_empty_result() {
    let mut device = parchmint_suite::by_name("rotary_pump_mixer")
        .expect("registered benchmark")
        .device();
    // Place first, un-budgeted, so routing has a legal starting point.
    let view = CompiledDevice::from_ref(&device);
    let placement = AnnealingPlacer::new().place(&view);
    placement.apply_to(&mut device);
    let placed = CompiledDevice::from_ref(&device);

    let budget = Budget::unlimited();
    budget.cancel();
    let (result, failed_count) = counted("pnr.route.failed", || {
        budget.enter(|| AStarRouter::new().route(&placed))
    });
    assert_eq!(budget.interruption(), Some(StopReason::Cancelled));
    assert!(
        result.routed.is_empty(),
        "no net can route under cancellation"
    );
    assert!(
        !result.failed.is_empty(),
        "failed nets are reported, not lost"
    );
    assert_eq!(failed_count, result.failed.len() as u64);
}

#[test]
fn flow_solver_stops_within_one_check_interval_of_fuel_exhaustion() {
    let device = compiled("rotary_pump_mixer");
    let network = FlowNetwork::new(&device, Fluid::WATER);
    let ports: Vec<parchmint::ComponentId> = device
        .device()
        .components
        .iter()
        .filter(|c| c.entity.is_port() && network.contains(&c.id))
        .map(|c| c.id.clone())
        .collect();
    let boundary: Vec<(parchmint::ComponentId, f64)> = ports
        .iter()
        .enumerate()
        .map(|(i, id)| (id.clone(), if i == 0 { 1000.0 } else { 0.0 }))
        .collect();

    // Sanity: the same solve succeeds without a budget.
    assert!(network.solve(&boundary).is_ok());

    let budget = Budget::unlimited().with_fuel(1);
    let (outcome, interrupted_count) = counted("resilience.interrupted.fuel", || {
        budget.enter(|| network.solve(&boundary))
    });
    match outcome {
        Err(SimError::Interrupted(reason)) => {
            assert_eq!(reason, StopReason::FuelExhausted);
        }
        other => panic!("expected an interrupted solve, got {other:?}"),
    }
    assert_eq!(interrupted_count, 1);
    assert_eq!(budget.interruption(), Some(StopReason::FuelExhausted));
}

#[test]
fn degraded_pnr_keeps_the_partial_anneal_and_falls_back_to_straight() {
    let mut device = parchmint_suite::by_name("rotary_pump_mixer")
        .expect("registered benchmark")
        .device();
    // A single unit of fuel lets the pipeline start cleanly and trips the
    // budget inside the annealing loop, so the interruption is attributed
    // to the place phase (a budget exhausted *before* the pipeline starts
    // is not a place-phase degradation and is reported by the caller).
    let budget = Budget::unlimited().with_fuel(1);
    let outcome = budget.enter(|| {
        parchmint_pnr::place_and_route_resilient(
            &mut device,
            PlacerChoice::Annealing,
            RouterChoice::AStar,
            0,
        )
    });
    let resilient = outcome.expect("degradation is a result, not an error");
    let phases: Vec<&str> = resilient.degradations.iter().map(|d| d.phase).collect();
    assert_eq!(phases, ["place", "route"], "{:?}", resilient.degradations);
    assert!(resilient.degradations[0].action.contains("fuel exhausted"));
    assert!(resilient.degradations[1]
        .action
        .contains("fell back to straight-line"));
    // The straight-line fallback is meter-free, so the degraded run still
    // produces a routed device.
    assert!(device.is_placed());
    assert!(resilient.report.routed > 0, "straight fallback routed nets");
}

#[test]
fn an_annealing_panic_reports_the_greedy_placer_that_placed() {
    let mut device = parchmint_suite::by_name("logic_gate_or")
        .expect("registered benchmark")
        .device();
    let plan = Arc::new(FaultPlan::single("pnr.place", FaultKind::Panic));
    let run = parchmint_resilience::with_faults(plan, || {
        parchmint_pnr::place_and_route_resilient(
            &mut device,
            PlacerChoice::Annealing,
            RouterChoice::AStar,
            0,
        )
    })
    .expect("the greedy fallback places");
    assert_eq!(run.report.placer, "greedy");
    assert_eq!(run.report.router, "astar");
    let [degradation] = run.degradations.as_slice() else {
        panic!("{:?}", run.degradations);
    };
    assert_eq!(degradation.phase, "place");
    assert!(
        degradation.action.contains("fell back to greedy"),
        "{}",
        degradation.action
    );
}

#[test]
fn fault_plan_drives_every_injected_cell_to_a_recorded_terminal_state() {
    let mut plan = FaultPlan::new();
    plan.push(FaultSpec {
        benchmark: Some("logic_gate_or".into()),
        site: "pnr.place".into(),
        fault: FaultKind::Panic,
    });
    plan.push(FaultSpec {
        benchmark: Some("rotary_pump_mixer".into()),
        site: "sim.solve".into(),
        fault: FaultKind::Nan,
    });
    plan.push(FaultSpec {
        benchmark: Some("molecular_gradient_generator".into()),
        site: "pnr.route".into(),
        fault: FaultKind::Stall,
    });
    let config = SuiteRunConfig::builder()
        .threads(2)
        .benchmarks([
            "logic_gate_or",
            "rotary_pump_mixer",
            "molecular_gradient_generator",
        ])
        .faults(plan)
        .build();
    let report = run_suite(&config);
    assert_eq!(
        report.cells.len(),
        3 * standard_stages().len(),
        "full matrix"
    );

    for cell in &report.cells {
        let detail = cell.detail.clone().unwrap_or_default();
        match (cell.benchmark.as_str(), cell.stage.as_str()) {
            // Injected annealing panic → greedy fallback, recorded.
            ("logic_gate_or", s) if s.starts_with("pnr:annealing") => {
                assert_eq!(
                    cell.status,
                    CellStatus::Degraded,
                    "{}: {detail}",
                    cell.key()
                );
                assert!(detail.contains("fell back to greedy"), "{detail}");
            }
            // Injected solver NaN → structured fatal error, not a panic.
            ("rotary_pump_mixer", "flow") => {
                assert_eq!(cell.status, CellStatus::Error, "{}: {detail}", cell.key());
                assert!(detail.contains("non-finite"), "{detail}");
            }
            // Injected routing stall → straight-line fallback, recorded.
            ("molecular_gradient_generator", s) if s.ends_with("+astar") => {
                assert_eq!(
                    cell.status,
                    CellStatus::Degraded,
                    "{}: {detail}",
                    cell.key()
                );
                assert!(detail.contains("fell back to straight-line"), "{detail}");
            }
            // The negotiated router absorbs the same stall differently: it
            // keeps the legal subset of its last completed iteration
            // instead of swapping algorithms, and records that.
            ("molecular_gradient_generator", s) if s.ends_with("+negotiate") => {
                assert_eq!(
                    cell.status,
                    CellStatus::Degraded,
                    "{}: {detail}",
                    cell.key()
                );
                assert!(
                    detail.contains("kept last fully-legal iteration"),
                    "{detail}"
                );
            }
            // Every untargeted cell is untouched by the plan.
            _ => {
                assert!(
                    cell.status == CellStatus::Ok || cell.status == CellStatus::Skipped,
                    "{} unexpectedly {}: {detail}",
                    cell.key(),
                    cell.status.as_str()
                );
            }
        }
    }
}

#[test]
fn zero_deadline_degrades_only_the_metered_stages() {
    let config = SuiteRunConfig::builder()
        .threads(2)
        .benchmarks(["rotary_pump_mixer"])
        .deadline(Duration::ZERO)
        .build();
    let report = run_suite(&config);
    assert!(
        report.is_clean(),
        "deadline degradation is clean, not failing"
    );
    for cell in &report.cells {
        let detail = cell.detail.clone().unwrap_or_default();
        match cell.stage.as_str() {
            // Metered loops observe the expired deadline at their first
            // check and surface a recorded partial result.
            "flow" => {
                assert_eq!(
                    cell.status,
                    CellStatus::Degraded,
                    "{}: {detail}",
                    cell.key()
                );
                assert!(detail.contains("deadline exceeded"), "{detail}");
            }
            s if s.starts_with("pnr:annealing")
                || s.ends_with("+astar")
                || s.ends_with("+negotiate") =>
            {
                assert_eq!(
                    cell.status,
                    CellStatus::Degraded,
                    "{}: {detail}",
                    cell.key()
                );
                assert!(detail.contains("deadline exceeded"), "{detail}");
            }
            // Meter-free stages finish before anything can trip the budget.
            _ => assert_eq!(cell.status, CellStatus::Ok, "{}: {detail}", cell.key()),
        }
    }
}
