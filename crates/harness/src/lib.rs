//! # parchmint-harness
//!
//! Parallel suite-evaluation harness: runs every benchmark in the registry
//! through a configurable stage matrix — validation, characterization,
//! place-and-route for each placer×router combination, flow simulation, and
//! control-plan synthesis — collecting structured per-stage metrics and
//! wall-clock timings into a deterministic, diffable JSON report.
//!
//! This is the engine behind `parchmint suite-run` and the CI regression
//! gate: a report captured from a known-good revision is committed as a
//! baseline, and [`baseline::compare`] flags any quality-metric drift beyond
//! configured tolerances.
//!
//! Design points:
//!
//! - **Worker pool without dependencies.** The sweep hands single cells,
//!   largest design first, to [`shard_map`]'s `std::thread::scope`
//!   workers; no external thread-pool crate is needed, and results are
//!   sorted after the join so reports are identical for any thread count.
//! - **Panic isolation.** Every stage runs under `catch_unwind`; a panicking
//!   stage (or device generator) marks that cell `failed` with the panic
//!   message and the sweep carries on.
//! - **Segregated timings.** Metrics live in `cells`, wall-clock data lives
//!   in a separate `timing` section, so stripping one key yields a
//!   byte-stable artifact suitable for committed baselines and diffs.
//! - **Resilient execution.** Each stage attempt can run under a
//!   [`parchmint_resilience::Budget`] (per-stage deadline and/or
//!   deterministic fuel) and a [`parchmint_resilience::FaultPlan`];
//!   structured [`parchmint_resilience::PipelineError`]s map onto cell
//!   states (`Fatal` → error, `Degraded` → degraded, `Retryable` →
//!   bounded seed-bumped retries), and a stage that finishes after its
//!   budget tripped is reported `degraded`, never a silent partial `ok`.
//!
//! ```
//! use parchmint_harness::{run_suite, SuiteRunConfig};
//!
//! let config = SuiteRunConfig::builder()
//!     .benchmarks(["logic_gate_or"])
//!     .threads(2)
//!     .build();
//! let report = run_suite(&config);
//! assert!(report.cells.iter().all(|c| c.benchmark == "logic_gate_or"));
//! ```

#![warn(missing_docs)]
// `catch_unwind` is the whole point of the harness; everything else is safe.
#![forbid(unsafe_code)]

pub mod baseline;
pub mod batch;
pub mod engine;
pub mod matrix;
pub mod pareto;
pub mod quality;
pub mod report;
pub mod runner;
pub mod stage;

pub use baseline::{compare, Regression, Tolerances};
pub use batch::shard_map;
pub use engine::{compile_device, execute_stage, CompileExec, ExecPolicy, StageExec};
pub use matrix::{resolve_matrix, select_benchmarks, select_stages, stage_matches, ResolvedMatrix};
pub use pareto::{pareto_json, pareto_json_string, pareto_rows, ParetoPoint, ParetoRow};
pub use quality::{
    compare_quality, quality_baseline_json, quality_baseline_string, QualityRegression,
    QUALITY_SCHEMA,
};
pub use report::{Cell, CellStatus, StatusCounts, SuiteReport};
pub use runner::{run_matrix, run_suite, SuiteRunConfig, SuiteRunConfigBuilder, MAX_ATTEMPTS};
pub use stage::{standard_stages, Stage, StageCtx, StageOutcome};
