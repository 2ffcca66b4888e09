//! Cross-crate invariants for the negotiated-congestion router: it matches
//! A* where congestion never arises, beats sequential A* where rip-up is
//! required, degrades to its last fully-legal iteration under a tripped
//! budget, and feeds a Pareto sweep that is byte-stable across thread
//! counts.

use parchmint_harness::{pareto_json, pareto_rows, run_suite, SuiteRunConfig};
use parchmint_pnr::{place_and_route, place_and_route_resilient, PlacerChoice, RouterChoice};
use parchmint_resilience::Budget;

/// Benchmarks where greedy placement leaves enough room that sequential A*
/// already routes everything — negotiation has nothing to negotiate.
const UNCONGESTED: &[&str] = &["logic_gate_or", "rotary_pump_mixer"];

/// Benchmarks where greedy placement forces nets through shared corridors:
/// sequential A* strands at least one net behind earlier commitments, and
/// only iterated rip-up finds a complete routing.
const CONGESTED: &[&str] = &["logic_gate_and", "planar_synthetic_1"];

#[test]
fn negotiate_matches_astar_on_uncongested_benchmarks() {
    for name in UNCONGESTED {
        let mut a = parchmint_suite::by_name(name).unwrap().device();
        let mut b = a.clone();
        let astar = place_and_route(&mut a, PlacerChoice::Greedy, RouterChoice::AStar);
        let negotiated = place_and_route(&mut b, PlacerChoice::Greedy, RouterChoice::Negotiate);
        assert_eq!(
            astar.routed, astar.nets,
            "{name}: fixture is not uncongested for astar"
        );
        assert_eq!(
            negotiated.routed, negotiated.nets,
            "{name}: negotiate lost nets astar routes"
        );
        assert_eq!(astar.hpwl, negotiated.hpwl, "{name}: same placement");
    }
}

#[test]
fn negotiate_completes_congested_fixtures_that_defeat_sequential_astar() {
    for name in CONGESTED {
        let mut a = parchmint_suite::by_name(name).unwrap().device();
        let mut b = a.clone();
        let astar = place_and_route(&mut a, PlacerChoice::Greedy, RouterChoice::AStar);
        let negotiated = place_and_route(&mut b, PlacerChoice::Greedy, RouterChoice::Negotiate);
        assert!(
            astar.routed < astar.nets,
            "{name}: fixture no longer congested — sequential astar routed all {} nets",
            astar.nets
        );
        assert_eq!(
            negotiated.routed,
            negotiated.nets,
            "{name}: negotiation left {} of {} nets unrouted",
            negotiated.nets - negotiated.routed,
            negotiated.nets
        );
    }
}

#[test]
fn tripped_budget_keeps_the_last_fully_legal_iteration() {
    // One unit of fuel: the first meter probe inside the negotiation loop
    // trips, so no rip-up iteration ever completes and the router must fall
    // back to the legal subset of what it had — here, nothing — rather
    // than emit a conflicted partial routing or swap algorithms.
    let mut device = parchmint_suite::by_name("logic_gate_and").unwrap().device();
    let budget = Budget::unlimited().with_fuel(1);
    let resilient = budget
        .enter(|| {
            place_and_route_resilient(
                &mut device,
                PlacerChoice::Greedy,
                RouterChoice::Negotiate,
                0,
            )
        })
        .expect("interruption degrades, it does not error");
    let route_degradations: Vec<&str> = resilient
        .degradations
        .iter()
        .filter(|d| d.phase == "route")
        .map(|d| d.action.as_str())
        .collect();
    assert_eq!(route_degradations.len(), 1, "{:?}", resilient.degradations);
    assert!(
        route_degradations[0].contains("kept last fully-legal iteration"),
        "{}",
        route_degradations[0]
    );
    // The kept result is accounted for net by net, never silently truncated.
    assert_eq!(
        resilient.report.routed + (resilient.report.nets - resilient.report.routed),
        resilient.report.nets
    );
    // A full-budget run of the same configuration routes everything, so the
    // interrupted run is observably a prefix, not a different algorithm.
    let mut full = parchmint_suite::by_name("logic_gate_and").unwrap().device();
    let report = place_and_route(&mut full, PlacerChoice::Greedy, RouterChoice::Negotiate);
    assert_eq!(report.routed, report.nets);
    assert!(resilient.report.routed <= report.routed);
}

#[test]
fn pareto_sweep_is_identical_across_thread_counts() {
    let sweep = |threads: usize| {
        let config = SuiteRunConfig::builder()
            .benchmarks(["logic_gate_or", "logic_gate_and", "planar_synthetic_1"])
            .threads(threads)
            .build();
        run_suite(&config)
    };
    let single = sweep(1);
    let parallel = sweep(4);
    let text = |report| serde_json::to_string_pretty(&pareto_json(report, false)).unwrap();
    assert_eq!(
        text(&single),
        text(&parallel),
        "stripped pareto JSON must not depend on thread count"
    );

    // The sweep carries the full 2x3 combination matrix per benchmark, and
    // congested fixtures put negotiate on the frontier (zero failed nets).
    let rows = pareto_rows(&single);
    assert_eq!(rows.len(), 3);
    for row in &rows {
        assert_eq!(row.points.len(), 6, "{}: incomplete matrix", row.benchmark);
        assert!(
            row.points.iter().any(|p| p.frontier),
            "{}: empty frontier",
            row.benchmark
        );
    }
    let congested = rows
        .iter()
        .find(|r| r.benchmark == "logic_gate_and")
        .unwrap();
    let negotiate = congested
        .points
        .iter()
        .find(|p| p.placer == "greedy" && p.router == "negotiate")
        .unwrap();
    assert_eq!(negotiate.failed_nets, Some(0));
    let astar = congested
        .points
        .iter()
        .find(|p| p.placer == "greedy" && p.router == "astar")
        .unwrap();
    assert!(astar.failed_nets > Some(0), "fixture no longer congested");
    // The cheapest zero-failure combination anchors the frontier.
    assert!(
        congested
            .points
            .iter()
            .any(|p| p.frontier && p.failed_nets == Some(0)),
        "no zero-failure point on the frontier"
    );
}
