//! The stage matrix: the analyses every benchmark is swept through.

use parchmint::CompiledDevice;
use parchmint_pnr::{place_and_route_resilient, PlacerChoice, RouterChoice};
use parchmint_resilience::{interruption, PipelineError};
use serde_json::Value;
use std::collections::BTreeMap;

/// Structured result of one stage on one benchmark.
#[derive(Debug, Clone)]
pub enum StageOutcome {
    /// The stage ran; here are its metrics.
    Metrics(BTreeMap<String, Value>),
    /// The stage produced a usable result, but only by degrading — a
    /// fallback algorithm, a partial result, or a relaxed solve. The
    /// substitution is recorded in `reason`, never silent.
    Degraded {
        /// What degraded and which fallback was taken.
        reason: String,
        /// Metrics of the result that was actually produced.
        metrics: BTreeMap<String, Value>,
    },
    /// The stage does not apply to this device; the reason is recorded so
    /// the cell is explained rather than silently absent.
    Skipped(String),
}

impl StageOutcome {
    /// Convenience constructor from key/value pairs.
    pub fn metrics<I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (&'static str, Value)>,
    {
        StageOutcome::Metrics(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

/// Per-run context the runner hands each stage invocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageCtx {
    /// Which retry attempt this is; `0` is the first run. Stages seed
    /// deterministic retries from it (e.g. annealing bumps its RNG seed).
    pub attempt: u32,
}

/// One named analysis applied to every benchmark in the sweep.
///
/// Stages receive the benchmark's shared [`CompiledDevice`] view — the
/// runner compiles each benchmark exactly once per sweep and every stage
/// reads the same interned index — plus a [`StageCtx`] carrying the retry
/// attempt. The closure returns `Err` for a structured [`PipelineError`];
/// the runner maps its severity onto the cell status (`Fatal` → error,
/// `Degraded` → degraded, `Retryable` → deterministic seed-bumped retry,
/// then error when retries exhaust). Panics are caught by the runner and
/// recorded as `failed`.
pub struct Stage {
    /// Stable cell identifier, e.g. `pnr:annealing+astar`.
    pub name: String,
    /// The analysis body.
    #[allow(clippy::type_complexity)] // the harness's one central callback type
    pub run: Box<
        dyn Fn(&CompiledDevice, &StageCtx) -> Result<StageOutcome, PipelineError> + Send + Sync,
    >,
}

impl Stage {
    /// Builds a stage from a name and a closure.
    pub fn new(
        name: impl Into<String>,
        run: impl Fn(&CompiledDevice, &StageCtx) -> Result<StageOutcome, PipelineError>
            + Send
            + Sync
            + 'static,
    ) -> Self {
        Stage {
            name: name.into(),
            run: Box::new(run),
        }
    }
}

/// Port components participating in the device's flow network, in
/// declaration order — the harness's generic boundary for simulation and
/// planning stages.
fn flow_ports(
    compiled: &CompiledDevice,
    network: &parchmint_sim::FlowNetwork,
) -> Vec<parchmint::ComponentId> {
    compiled
        .device()
        .components
        .iter()
        .filter(|c| c.entity.is_port() && network.contains(&c.id))
        .map(|c| c.id.clone())
        .collect()
}

fn validate_stage(compiled: &CompiledDevice) -> Result<StageOutcome, PipelineError> {
    let report = parchmint_verify::validate(compiled);
    Ok(StageOutcome::metrics([
        ("conformant", Value::from(report.is_conformant())),
        ("diagnostics", Value::from(report.len())),
        ("errors", Value::from(report.error_count())),
        ("warnings", Value::from(report.warning_count())),
    ]))
}

fn characterize_stage(compiled: &CompiledDevice) -> Result<StageOutcome, PipelineError> {
    let stats = parchmint_stats::DeviceStats::of(compiled);
    Ok(StageOutcome::metrics([
        ("components", Value::from(stats.components)),
        ("connections", Value::from(stats.connections)),
        ("ports", Value::from(stats.ports)),
        ("valves", Value::from(stats.valves)),
        ("distinct_entities", Value::from(stats.distinct_entities)),
        ("graph_edges", Value::from(stats.graph.edges)),
        ("graph_components", Value::from(stats.graph.components)),
        ("graph_diameter", Value::from(stats.graph.diameter)),
        ("bridges", Value::from(stats.bridges)),
        ("json_bytes", Value::from(stats.json_bytes)),
    ]))
}

fn pnr_stage(
    compiled: &CompiledDevice,
    placer: PlacerChoice,
    router: RouterChoice,
    ctx: &StageCtx,
) -> Result<StageOutcome, PipelineError> {
    // PnR annotates the device with features; work on a private copy.
    let mut device = compiled.device().clone();
    let resilient = place_and_route_resilient(&mut device, placer, router, ctx.attempt)?;
    let report = &resilient.report;
    // Retry policy: a placement on which no net routed, with no budget to
    // blame, earns a seed-bumped retry before its degradations count.
    let nets = report.nets;
    if nets > 0 && report.routed == 0 && interruption().is_none() {
        return Err(
            PipelineError::retryable(format!("no nets routed ({nets} attempted)"))
                .with_hint("a seed-bumped retry may find a routable placement"),
        );
    }
    let metrics: BTreeMap<String, Value> = [
        ("components", Value::from(report.components)),
        ("nets", Value::from(report.nets)),
        ("routed", Value::from(report.routed)),
        ("completion", Value::from(report.completion())),
        ("failed_nets", Value::from(report.nets - report.routed)),
        ("hpwl", Value::from(report.hpwl)),
        ("wirelength", Value::from(report.wirelength)),
        ("bends", Value::from(report.bends)),
        ("max_congestion", Value::from(report.max_congestion)),
        ("die_x", Value::from(report.die.x)),
        ("die_y", Value::from(report.die.y)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    if resilient.degradations.is_empty() {
        Ok(StageOutcome::Metrics(metrics))
    } else {
        let reason = resilient
            .degradations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ");
        Ok(StageOutcome::Degraded { reason, metrics })
    }
}

fn flow_stage(compiled: &CompiledDevice) -> Result<StageOutcome, PipelineError> {
    let network = parchmint_sim::FlowNetwork::new(compiled, parchmint_sim::Fluid::WATER);
    let ports = flow_ports(compiled, &network);
    if ports.len() < 2 {
        return Ok(StageOutcome::Skipped(format!(
            "flow simulation needs >= 2 ports in the flow network, found {}",
            ports.len()
        )));
    }
    // Generic boundary: drive the first port at 1 kPa, ground the rest.
    let boundary: Vec<(parchmint::ComponentId, f64)> = ports
        .iter()
        .enumerate()
        .map(|(i, id)| (id.clone(), if i == 0 { 1000.0 } else { 0.0 }))
        .collect();
    let (solution, note) = network.solve_resilient(&boundary)?;
    let driven_flow = solution.net_inflow(&ports[0]).abs();
    let metrics: BTreeMap<String, Value> = [
        ("nodes", Value::from(network.node_count())),
        ("edges", Value::from(network.edge_count())),
        ("boundary_ports", Value::from(ports.len())),
        ("driven_flow_nl_s", Value::from(driven_flow * 1e12)),
        (
            "max_conservation_error",
            Value::from(solution.max_conservation_error(&ports)),
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    match note {
        Some(reason) => Ok(StageOutcome::Degraded { reason, metrics }),
        None => Ok(StageOutcome::Metrics(metrics)),
    }
}

fn control_stage(compiled: &CompiledDevice) -> Result<StageOutcome, PipelineError> {
    // Planning routes over the flow layer, so candidate endpoints are the
    // same flow-network ports the simulation stage drives.
    let network = parchmint_sim::FlowNetwork::new(compiled, parchmint_sim::Fluid::WATER);
    let ports = flow_ports(compiled, &network);
    let [from, .., to] = ports.as_slice() else {
        return Ok(StageOutcome::Skipped(format!(
            "control planning needs >= 2 flow-layer ports, found {}",
            ports.len()
        )));
    };
    let plan = parchmint_control::plan_flow(compiled, from, to)?;
    Ok(StageOutcome::metrics([
        ("hops", Value::from(plan.hops())),
        ("constrained_valves", Value::from(plan.valve_states.len())),
        ("actuations", Value::from(plan.actuations(compiled).len())),
    ]))
}

/// The default stage matrix: validate, characterize, one PnR stage per
/// placer×router combination, flow simulation, and control-plan synthesis.
pub fn standard_stages() -> Vec<Stage> {
    let mut stages = vec![
        Stage::new("validate", |compiled, _| validate_stage(compiled)),
        Stage::new("characterize", |compiled, _| characterize_stage(compiled)),
    ];
    for &placer in PlacerChoice::ALL {
        for &router in RouterChoice::ALL {
            stages.push(Stage::new(
                format!("pnr:{}+{}", placer.placer().name(), router.router().name()),
                move |compiled, ctx| pnr_stage(compiled, placer, router, ctx),
            ));
        }
    }
    stages.push(Stage::new("flow", |compiled, _| flow_stage(compiled)));
    stages.push(Stage::new("control", |compiled, _| control_stage(compiled)));
    stages
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_matrix_shape() {
        let stages = standard_stages();
        let names: Vec<&str> = stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names[0], "validate");
        assert_eq!(names[1], "characterize");
        assert_eq!(names.last(), Some(&"control"));
        assert_eq!(names.iter().filter(|n| n.starts_with("pnr:")).count(), 6);
        assert!(names.contains(&"pnr:greedy+negotiate"));
        assert!(names.contains(&"pnr:annealing+negotiate"));
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn a_placement_with_no_routed_net_is_retried_then_an_error() {
        use crate::engine::{execute_stage, ExecPolicy, MAX_ATTEMPTS};
        use crate::report::CellStatus;
        use parchmint::geometry::Span;
        use parchmint::{Component, Connection, DeviceBuilder, Entity, Layer, LayerType, Target};

        // A connection without a sink fails on every router, on every
        // placement a retry could find.
        let port = |id| Component::new(id, id, Entity::Port, ["f0"], Span::square(200));
        let device = DeviceBuilder::new("dangling")
            .layer(Layer::new("f0", "flow", LayerType::Flow))
            .component(port("in"))
            .component(port("out"))
            .connection(Connection::new(
                "c1",
                "c1",
                "f0",
                Target::component_only("in"),
                [],
            ))
            .build()
            .expect("a referentially sound device");
        let stage = standard_stages()
            .into_iter()
            .find(|stage| stage.name == "pnr:greedy+astar")
            .expect("standard pnr stage");
        let exec = execute_stage(
            &stage,
            &CompiledDevice::compile(device),
            &ExecPolicy::new(),
            None,
            false,
        );
        let detail = exec.detail.unwrap_or_default();
        assert_eq!(exec.status, CellStatus::Error, "{detail}");
        assert!(detail.contains("no nets routed (1 attempted)"), "{detail}");
        assert!(detail.contains("(after 3 attempts)"), "{detail}");
        assert_eq!(exec.attempts, MAX_ATTEMPTS);
    }

    #[test]
    fn stages_run_on_a_real_benchmark() {
        let compiled = CompiledDevice::compile(
            parchmint_suite::by_name("rotary_pump_mixer")
                .expect("registered benchmark")
                .device(),
        );
        let ctx = StageCtx::default();
        for stage in standard_stages() {
            let outcome = (stage.run)(&compiled, &ctx)
                .unwrap_or_else(|e| panic!("stage {} errored: {e}", stage.name));
            match outcome {
                StageOutcome::Metrics(m) => assert!(!m.is_empty(), "{} empty", stage.name),
                StageOutcome::Degraded { reason, .. } => {
                    panic!("{} degraded without a fault: {reason}", stage.name)
                }
                StageOutcome::Skipped(reason) => {
                    panic!("{} skipped on a full benchmark: {reason}", stage.name)
                }
            }
        }
    }
}
