//! The parallel sweep: benchmarks × stages across a scoped worker pool.
//!
//! The runner owns only the *batch* concerns — compiling each benchmark
//! once, handing single cells to the [`shard_map`] pool largest design
//! first, and rendering a deterministic report.
//! How a single stage executes (budgets, retries, panic isolation,
//! severity mapping) lives in [`crate::engine`], which the `parchmint
//! serve` daemon shares; this module is one client of that engine.

use crate::batch::shard_map;
use crate::engine::{self, CompileExec, ExecPolicy};
use crate::matrix;
use crate::report::{Cell, SuiteReport};
use crate::stage::Stage;
use parchmint_resilience::FaultPlan;
use parchmint_suite::Benchmark;
use std::cmp::Reverse;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::engine::MAX_ATTEMPTS;

/// Configuration for [`run_suite`].
///
/// Built with [`SuiteRunConfig::builder`]; `SuiteRunConfig::default()` is
/// the CI sweep (whole registry, full stage matrix, one worker per core,
/// no tracing, no budget, no faults).
///
/// # Examples
///
/// ```
/// use parchmint_harness::SuiteRunConfig;
///
/// let config = SuiteRunConfig::builder()
///     .threads(2)
///     .benchmarks(["logic_gate_or"])
///     .tracing(true)
///     .build();
/// assert_eq!(config.threads(), 2);
/// assert!(config.tracing());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SuiteRunConfig {
    threads: usize,
    benchmarks: Option<Vec<String>>,
    stages: Option<Vec<String>>,
    tracing: bool,
    deadline: Option<Duration>,
    fuel: Option<u64>,
    faults: Option<FaultPlan>,
}

impl SuiteRunConfig {
    /// Starts a builder holding the default configuration.
    pub fn builder() -> SuiteRunConfigBuilder {
        SuiteRunConfigBuilder {
            config: SuiteRunConfig::default(),
        }
    }

    /// Worker threads; `0` means one per available core.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Benchmark-name subset; `None` runs the whole registry.
    pub fn benchmarks(&self) -> Option<&[String]> {
        self.benchmarks.as_deref()
    }

    /// Stage-name subset; `None` runs the full matrix.
    pub fn stages(&self) -> Option<&[String]> {
        self.stages.as_deref()
    }

    /// Whether every compile and stage records observability events, so
    /// the report carries trace summaries; when off, no recorder is
    /// installed and instrumentation does no trace-only work.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Per-stage wall-clock deadline; `None` means unbounded.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Per-stage deterministic fuel budget in meter ticks; `None` means
    /// unbounded.
    pub fn fuel(&self) -> Option<u64> {
        self.fuel
    }

    /// The fault-injection plan; `None` injects nothing.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The stage-execution policy this configuration implies — the
    /// deadline/fuel limits and the standard retry ceiling, in the form
    /// the shared [`crate::engine`] consumes.
    pub fn exec_policy(&self) -> ExecPolicy {
        ExecPolicy::new()
            .with_deadline(self.deadline)
            .with_fuel(self.fuel)
    }
}

/// Builder for [`SuiteRunConfig`].
#[derive(Debug, Clone, Default)]
pub struct SuiteRunConfigBuilder {
    config: SuiteRunConfig,
}

impl SuiteRunConfigBuilder {
    /// Sets the worker-thread count (`0` = one per core).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Restricts the sweep to the named benchmarks. An empty selection
    /// means "no restriction" — the whole registry runs.
    pub fn benchmarks<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        self.config.benchmarks = if names.is_empty() { None } else { Some(names) };
        self
    }

    /// Restricts the sweep to the named stages (exact names, or `pnr`
    /// for every placer×router combination). An empty selection means
    /// the full matrix.
    pub fn stages<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        self.config.stages = if names.is_empty() { None } else { Some(names) };
        self
    }

    /// Turns observability recording on or off for every compile and
    /// stage (off by default). The report then carries the trace
    /// summaries; writing them anywhere is the caller's business.
    pub fn tracing(mut self, on: bool) -> Self {
        self.config.tracing = on;
        self
    }

    /// Gives every stage attempt its own wall-clock deadline. Stages with
    /// metered loops stop cooperatively within one check interval of
    /// expiry and surface a partial result as a `degraded` cell.
    pub fn deadline(mut self, per_stage: Duration) -> Self {
        self.config.deadline = Some(per_stage);
        self
    }

    /// Gives every stage attempt a deterministic fuel budget (meter
    /// ticks). Unlike a deadline this is machine-independent, so tests
    /// can assert exactly where a stage stops.
    pub fn fuel(mut self, ticks: u64) -> Self {
        self.config.fuel = Some(ticks);
        self
    }

    /// Installs a fault-injection plan; each cell sees the slice of the
    /// plan that applies to its benchmark.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.config.faults = Some(plan);
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> SuiteRunConfig {
        self.config
    }
}

/// Runs the configured slice of the registry through the standard stage
/// matrix.
///
/// Unknown benchmark or stage names are reported as `failed` cells rather
/// than silently dropped, so a typo in CI configuration cannot shrink the
/// sweep unnoticed.
pub fn run_suite(config: &SuiteRunConfig) -> SuiteReport {
    let matrix = matrix::resolve_matrix(config.benchmarks(), config.stages());
    let mut report = run_matrix(&matrix.benchmarks, &matrix.stages, config);
    report.cells.extend(matrix.bad_cells);
    report.sort_cells();
    report
}

/// Sweeps `benchmarks` through `stages` under `config` — the single
/// entry point both [`run_suite`] and direct matrix callers share.
///
/// Both phases run on the [`shard_map`] pool. Phase 1 generates and
/// compiles every row once, under that row's slice of the fault plan.
/// Phase 2 runs every cell — one row × one stage — through
/// [`engine::execute_stage`] on the row's shared compiled device, handing
/// out the largest design's cells first (components plus connections,
/// stages in matrix order). The longest routing chain thus starts at
/// once, and a one-design sweep still uses every worker. A row whose
/// compile panicked fails each of its cells, explained. Cell order in the
/// result is sorted (benchmark name, then stage order), so the report is
/// independent of scheduling. When `config` requests tracing, every
/// compile and every stage runs under its own event collector and the
/// report carries the aggregated summaries.
pub fn run_matrix(
    benchmarks: &[Benchmark],
    stages: &[Stage],
    config: &SuiteRunConfig,
) -> SuiteReport {
    let started = Instant::now();
    let tracing = config.tracing();
    let policy = config.exec_policy();
    let workers = if config.threads() == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        config.threads()
    }
    .clamp(1, (benchmarks.len() * stages.len()).max(1));

    let rows = shard_map(benchmarks, workers, |_, benchmark| {
        let name = benchmark.name().to_string();
        let faults = config.faults().and_then(|plan| {
            let slice = plan.for_benchmark(&name);
            (!slice.is_empty()).then(|| Arc::new(slice))
        });
        let compile = engine::compile_device(|| benchmark.device(), faults.as_ref(), tracing);
        Row {
            name,
            faults,
            compile,
        }
    });

    let mut order: Vec<&Row> = rows.iter().collect();
    order.sort_by_key(|row| Reverse(row.size()));
    let tasks: Vec<(&Row, &Stage)> = order
        .into_iter()
        .flat_map(|row| stages.iter().map(move |stage| (row, stage)))
        .collect();
    let cells = shard_map(&tasks, workers, |_, (row, stage)| {
        row.run(stage, &policy, tracing)
    });

    let mut compile_walls = Vec::new();
    let mut compile_traces = Vec::new();
    for row in rows {
        if row.compile.compiled.is_ok() {
            compile_walls.push((row.name.clone(), row.compile.wall));
        }
        if let Some(trace) = row.compile.trace {
            compile_traces.push((row.name, trace));
        }
    }
    compile_walls.sort_by(|a, b| a.0.cmp(&b.0));
    compile_traces.sort_by(|a, b| a.0.cmp(&b.0));
    let mut report = SuiteReport {
        cells,
        stages: stages.iter().map(|s| s.name.clone()).collect(),
        threads: workers,
        total_wall: started.elapsed(),
        compile_walls,
        compile_traces,
    };
    report.sort_cells();
    report
}

/// One benchmark row after phase 1: its slice of the fault plan and its
/// compiled device, kept until the sweep ends.
struct Row {
    name: String,
    faults: Option<Arc<FaultPlan>>,
    compile: CompileExec,
}

impl Row {
    /// The dispatch weight: components plus connections, 0 when the
    /// compile panicked. Routing cost grows faster than design size, so
    /// the largest design's cells are the longest jobs.
    fn size(&self) -> usize {
        self.compile.compiled.as_ref().map_or(0, |compiled| {
            compiled.component_count() + compiled.connection_count()
        })
    }

    /// Runs one stage on the row's device. Budgets, retries, panic
    /// isolation and the status mapping all live in the engine.
    fn run(&self, stage: &Stage, policy: &ExecPolicy, tracing: bool) -> Cell {
        let (exec, wall) = match &self.compile.compiled {
            Ok(compiled) => {
                let started = Instant::now();
                let exec =
                    engine::execute_stage(stage, compiled, policy, self.faults.as_ref(), tracing);
                (exec, started.elapsed())
            }
            // Generator panicked: every cell of this row fails, explained.
            Err(message) => (engine::generation_panicked(message), self.compile.wall),
        };
        Cell::new(&self.name, &stage.name, exec, wall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::CellStatus;
    use crate::stage::{standard_stages, Stage, StageOutcome};
    use parchmint_resilience::{FaultKind, FaultSpec, PipelineError};
    use serde_json::Value;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Mutex;

    fn tiny_suite() -> Vec<Benchmark> {
        parchmint_suite::suite()
            .into_iter()
            .filter(|b| b.name() == "logic_gate_or" || b.name() == "rotary_pump_mixer")
            .collect()
    }

    fn untraced(threads: usize) -> SuiteRunConfig {
        SuiteRunConfig::builder().threads(threads).build()
    }

    #[test]
    fn matrix_covers_every_cell() {
        let benchmarks = tiny_suite();
        let stages = standard_stages();
        let report = run_matrix(&benchmarks, &stages, &untraced(2));
        assert_eq!(report.cells.len(), benchmarks.len() * stages.len());
        assert!(report
            .cells
            .iter()
            .all(|c| c.status == CellStatus::Ok || c.status == CellStatus::Skipped));
        assert!(!report.has_traces(), "no tracing unless configured");
    }

    #[test]
    fn cells_run_largest_design_first() {
        static RAN: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let names = ["first", "second"];
        let stages: Vec<Stage> = names
            .iter()
            .map(|&name| {
                Stage::new(name, move |compiled, _| {
                    let key = format!("{}/{name}", compiled.device().name);
                    RAN.lock().unwrap().push(key);
                    Ok(StageOutcome::metrics([("ran", Value::from(true))]))
                })
            })
            .collect();
        let benchmarks = tiny_suite();
        run_matrix(&benchmarks, &stages, &untraced(1));

        let size = |benchmark: &Benchmark| {
            let compiled = parchmint::CompiledDevice::compile(benchmark.device());
            compiled.component_count() + compiled.connection_count()
        };
        let mut by_size = benchmarks.clone();
        by_size.sort_by_key(|benchmark| Reverse(size(benchmark)));
        assert_ne!(
            by_size[0].name(),
            benchmarks[0].name(),
            "the fixture must list the larger design second"
        );
        let expected: Vec<String> = by_size
            .iter()
            .flat_map(|benchmark| names.map(|stage| format!("{}/{stage}", benchmark.name())))
            .collect();
        assert_eq!(*RAN.lock().unwrap(), expected);
    }

    #[test]
    fn tracing_attaches_summaries_to_cells() {
        let benchmarks = tiny_suite();
        let stages = standard_stages();
        let config = SuiteRunConfig::builder().threads(2).tracing(true).build();
        let report = run_matrix(&benchmarks, &stages, &config);
        assert!(report.has_traces());
        // Compile is instrumented, so every benchmark has a compile trace.
        assert_eq!(report.compile_traces.len(), benchmarks.len());
        let validate = report
            .cell("logic_gate_or", "validate")
            .expect("validate cell");
        let trace = validate.trace.as_ref().expect("validate is instrumented");
        assert!(trace.spans.contains_key("verify.referential"));
    }

    #[test]
    fn panicking_stage_is_isolated() {
        let benchmarks = tiny_suite();
        let stages = vec![
            Stage::new("boom", |_, _| panic!("injected failure")),
            Stage::new("fine", |_, _| {
                Ok(StageOutcome::metrics([("one", Value::from(1))]))
            }),
        ];
        let report = run_matrix(&benchmarks, &stages, &untraced(2));
        for benchmark in &benchmarks {
            let boom = report
                .cell(benchmark.name(), "boom")
                .expect("boom cell present");
            assert_eq!(boom.status, CellStatus::Failed);
            assert_eq!(boom.detail.as_deref(), Some("injected failure"));
            let fine = report
                .cell(benchmark.name(), "fine")
                .expect("fine cell present");
            assert_eq!(fine.status, CellStatus::Ok);
        }
    }

    #[test]
    fn unknown_names_become_failed_cells() {
        let config = SuiteRunConfig::builder()
            .threads(1)
            .benchmarks(["logic_gate_or", "no_such_chip"])
            .stages(["validate", "no_such_stage"])
            .build();
        let report = run_suite(&config);
        assert!(report
            .cells
            .iter()
            .any(|c| c.benchmark == "no_such_chip" && c.status == CellStatus::Failed));
        assert!(report
            .cells
            .iter()
            .any(|c| c.stage == "no_such_stage" && c.status == CellStatus::Failed));
        assert!(report.cells.iter().any(|c| c.benchmark == "logic_gate_or"
            && c.stage == "validate"
            && c.status == CellStatus::Ok));
    }

    #[test]
    fn builder_round_trips_every_field() {
        let config = SuiteRunConfig::builder()
            .threads(3)
            .benchmarks(["a", "b"])
            .stages(["validate"])
            .tracing(true)
            .deadline(Duration::from_millis(50))
            .fuel(1_000)
            .faults(FaultPlan::single("pnr.place", FaultKind::Panic))
            .build();
        assert_eq!(config.threads(), 3);
        assert_eq!(config.benchmarks(), Some(&["a".into(), "b".into()][..]));
        assert_eq!(config.stages(), Some(&["validate".into()][..]));
        assert!(config.tracing());
        assert_eq!(config.deadline(), Some(Duration::from_millis(50)));
        assert_eq!(config.fuel(), Some(1_000));
        assert!(config.faults().is_some());
        // Empty selections mean "no restriction".
        let open = SuiteRunConfig::builder()
            .benchmarks(Vec::<String>::new())
            .build();
        assert!(open.benchmarks().is_none());
        assert!(!open.tracing());
        assert!(
            !open.exec_policy().is_bounded(),
            "no budget unless configured"
        );
    }

    #[test]
    fn error_severities_map_to_cell_status() {
        let benchmarks: Vec<Benchmark> = tiny_suite().into_iter().take(1).collect();
        let stages = vec![
            Stage::new("fatal", |_, _| {
                Err(PipelineError::fatal("broken").with_hint("fix it"))
            }),
            Stage::new("soft", |_, _| Err(PipelineError::degraded("partial"))),
            Stage::new("flaky", |_, _| Err(PipelineError::retryable("try again"))),
        ];
        let report = run_matrix(&benchmarks, &stages, &untraced(1));
        let name = benchmarks[0].name();
        let fatal = report.cell(name, "fatal").unwrap();
        assert_eq!(fatal.status, CellStatus::Error);
        assert!(fatal.detail.as_deref().unwrap().contains("hint: fix it"));
        assert_eq!(
            report.cell(name, "soft").unwrap().status,
            CellStatus::Degraded
        );
        let flaky = report.cell(name, "flaky").unwrap();
        assert_eq!(flaky.status, CellStatus::Error);
        assert!(
            flaky
                .detail
                .as_deref()
                .unwrap()
                .contains("after 3 attempts"),
            "detail: {:?}",
            flaky.detail
        );
    }

    #[test]
    fn retryable_stage_succeeds_on_a_later_attempt() {
        static CALLS: AtomicU32 = AtomicU32::new(0);
        let benchmarks: Vec<Benchmark> = tiny_suite().into_iter().take(1).collect();
        let stages = vec![Stage::new("eventually", |_, ctx| {
            CALLS.fetch_add(1, Ordering::Relaxed);
            if ctx.attempt < 2 {
                Err(PipelineError::retryable("not yet"))
            } else {
                Ok(StageOutcome::metrics([(
                    "attempt",
                    Value::from(ctx.attempt),
                )]))
            }
        })];
        let report = run_matrix(&benchmarks, &stages, &untraced(1));
        let cell = report.cell(benchmarks[0].name(), "eventually").unwrap();
        assert_eq!(cell.status, CellStatus::Ok);
        assert_eq!(cell.metrics["attempt"], Value::from(2));
        assert_eq!(CALLS.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn injected_panic_hits_only_the_targeted_benchmark() {
        let mut plan = FaultPlan::new();
        plan.push(FaultSpec {
            benchmark: Some("logic_gate_or".into()),
            site: "pnr.place".into(),
            fault: FaultKind::Panic,
        });
        let config = SuiteRunConfig::builder().threads(2).faults(plan).build();
        let benchmarks = tiny_suite();
        let stages = standard_stages();
        let report = run_matrix(&benchmarks, &stages, &config);
        // The `pnr.place` site lives in the annealing placer, so the fault
        // panics annealing, which falls back to greedy — a recorded
        // degraded cell, never a poisoned or missing one. Greedy cells and
        // the untargeted benchmark must not see the fault at all.
        for cell in report.cells.iter().filter(|c| c.stage.starts_with("pnr:")) {
            if cell.benchmark == "logic_gate_or" && cell.stage.starts_with("pnr:annealing") {
                assert_eq!(
                    cell.status,
                    CellStatus::Degraded,
                    "{} escaped the fault",
                    cell.key()
                );
                let detail = cell.detail.as_deref().expect("degradation is explained");
                assert!(detail.contains("fell back to greedy"), "{detail}");
                assert!(!cell.metrics.is_empty(), "fallback still yields metrics");
            } else {
                assert_eq!(
                    cell.status,
                    CellStatus::Ok,
                    "{} caught a stray fault",
                    cell.key()
                );
            }
        }
    }

    #[test]
    fn stage_finishing_under_a_tripped_budget_is_degraded() {
        let benchmarks: Vec<Benchmark> = tiny_suite().into_iter().take(1).collect();
        let stages = vec![Stage::new("oblivious", |_, _| {
            // Consume the whole fuel budget without ever stopping, then
            // finish "successfully": the runner must still flag the cell.
            let mut meter = parchmint_resilience::Meter::new(1);
            for _ in 0..64 {
                let _ = meter.check();
            }
            Ok(StageOutcome::metrics([("done", Value::from(true))]))
        })];
        let config = SuiteRunConfig::builder().threads(1).fuel(8).build();
        let report = run_matrix(&benchmarks, &stages, &config);
        let cell = report.cell(benchmarks[0].name(), "oblivious").unwrap();
        assert_eq!(cell.status, CellStatus::Degraded);
        assert!(cell
            .detail
            .as_deref()
            .unwrap()
            .contains("completed under interruption (fuel exhausted)"));
    }
}
