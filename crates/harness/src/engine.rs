//! The shared stage-execution engine.
//!
//! Everything that defines *how one stage runs on one compiled device* —
//! panic isolation, per-attempt budget installation, fault-plan scoping,
//! severity→status mapping, and the deterministic attempt/seed retry
//! policy — lives here, in one place. The batch sweep
//! ([`crate::runner::run_matrix`]) and the `parchmint serve` daemon
//! workers are both thin clients of these functions, so a design
//! submitted over the wire and a benchmark swept in CI take the exact
//! same execution path and land in the exact same terminal states.
//!
//! The two entry points:
//!
//! - [`compile_device`] — generate + compile a device into its shared
//!   [`CompiledDevice`] view exactly once, under panic isolation and the
//!   caller's fault plan, with an optional per-compile trace.
//! - [`execute_stage`] — run one [`Stage`] on a compiled device under an
//!   [`ExecPolicy`], driving the whole retry loop internally. Callers
//!   never re-derive attempt counters or seed bumps; the policy is the
//!   single owner of that schedule.

use crate::report::CellStatus;
use crate::stage::{Stage, StageCtx, StageOutcome};
use parchmint::{CompiledDevice, Device};
use parchmint_obs::{Collector, Recorder, TraceSummary};
use parchmint_resilience::{Budget, FaultPlan, Severity};
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maximum stage executions per cell: the first run plus two deterministic
/// seed-bumped retries for [`Severity::Retryable`] errors.
pub const MAX_ATTEMPTS: u32 = 3;

/// How stage attempts are budgeted and retried.
///
/// The policy owns the attempt schedule (up to [`MAX_ATTEMPTS`]): every
/// execution path that wants harness-identical retry semantics builds
/// one of these and calls [`execute_stage`], rather than looping over
/// attempts itself.
#[derive(Debug, Clone, Default)]
pub struct ExecPolicy {
    deadline: Option<Duration>,
    fuel: Option<u64>,
}

impl ExecPolicy {
    /// The default policy: no deadline, no fuel limit.
    pub fn new() -> ExecPolicy {
        ExecPolicy::default()
    }

    /// Caps each attempt with a wall-clock deadline.
    pub fn with_deadline(mut self, per_attempt: Option<Duration>) -> ExecPolicy {
        self.deadline = per_attempt;
        self
    }

    /// Caps each attempt with a deterministic fuel budget (meter ticks).
    pub fn with_fuel(mut self, ticks: Option<u64>) -> ExecPolicy {
        self.fuel = ticks;
        self
    }

    /// Per-attempt wall-clock deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Per-attempt fuel budget, if any.
    pub fn fuel(&self) -> Option<u64> {
        self.fuel
    }

    /// Whether any attempt limit is configured.
    pub fn is_bounded(&self) -> bool {
        self.deadline.is_some() || self.fuel.is_some()
    }

    /// The context handed to the stage for `attempt` — the one place the
    /// deterministic seed bump is derived. Stages seed RNGs from
    /// [`StageCtx::attempt`], so two paths that share this function share
    /// retry *results*, not just retry *counts*.
    fn ctx(&self, attempt: u32) -> StageCtx {
        StageCtx { attempt }
    }

    /// Builds the budget for one attempt, or `None` when the stage should
    /// run unbudgeted. A fault plan with a `stall` fault needs a budget
    /// installed even when no limit was configured — the stall trips the
    /// budget's fuel — so `faults_armed` forces at least an unlimited one.
    fn attempt_budget(&self, faults_armed: bool) -> Option<Budget> {
        if self.deadline.is_none() && self.fuel.is_none() && !faults_armed {
            return None;
        }
        let mut budget = Budget::unlimited();
        if let Some(deadline) = self.deadline {
            budget = budget.with_deadline(deadline);
        }
        if let Some(fuel) = self.fuel {
            budget = budget.with_fuel(fuel);
        }
        Some(budget)
    }
}

/// The terminal state of one stage execution (after all retries).
#[derive(Debug, Clone)]
pub struct StageExec {
    /// How the stage ended, severity-mapped exactly as harness cells are.
    pub status: CellStatus,
    /// Skip reason, degradation note, error message, or panic message.
    pub detail: Option<String>,
    /// Stage metrics of the produced result.
    pub metrics: BTreeMap<String, Value>,
    /// Events recorded during the final attempt; `None` unless tracing.
    pub trace: Option<TraceSummary>,
    /// How many attempts actually ran (1 unless retryable errors occurred).
    pub attempts: u32,
}

/// The outcome of generating + compiling one device.
pub struct CompileExec {
    /// The shared compiled view, or the panic message when generation or
    /// compilation panicked.
    pub compiled: Result<Arc<CompiledDevice>, String>,
    /// Generate+compile wall time.
    pub wall: Duration,
    /// Events recorded during compile; `None` unless tracing.
    pub trace: Option<TraceSummary>,
}

/// Runs `body` under a fresh event collector when `tracing`, returning
/// its result plus the non-empty aggregated trace.
pub(crate) fn collect<T>(tracing: bool, body: impl FnOnce() -> T) -> (T, Option<TraceSummary>) {
    if !tracing {
        return (body(), None);
    }
    let collector = Arc::new(Collector::new());
    let recorder: Arc<dyn Recorder> = Arc::clone(&collector) as Arc<dyn Recorder>;
    let result = parchmint_obs::with_recorder(recorder, body);
    let summary = collector.summary();
    (result, (!summary.is_empty()).then_some(summary))
}

/// Runs `body` with `plan` installed as this thread's fault plan, or
/// directly when no faults are armed.
pub(crate) fn with_faults<T>(plan: Option<&Arc<FaultPlan>>, body: impl FnOnce() -> T) -> T {
    match plan {
        Some(plan) => parchmint_resilience::with_faults(Arc::clone(plan), body),
        None => body(),
    }
}

/// Generates + compiles a device into its shared view under panic
/// isolation, the caller's fault plan, and (when `tracing`) a private
/// event collector.
///
/// Takes a closure rather than a [`Device`] so that *generation* panics
/// (a benchmark generator, a parser's post-processing) are isolated and
/// reported exactly like compile panics.
pub fn compile_device(
    generate: impl FnOnce() -> Device,
    faults: Option<&Arc<FaultPlan>>,
    tracing: bool,
) -> CompileExec {
    let started = Instant::now();
    let (outcome, trace) = collect(tracing, || {
        with_faults(faults, || {
            parchmint_resilience::attempt(|| CompiledDevice::compile(generate()).into_shared())
        })
    });
    CompileExec {
        compiled: outcome,
        wall: started.elapsed(),
        trace,
    }
}

/// Executes one stage on one compiled device under `policy`, driving the
/// retry loop to a terminal state.
///
/// Per attempt:
///
/// - a fresh budget is built from the policy (deadline/fuel) and installed
///   thread-locally, alongside the caller's fault plan;
/// - panics are caught and end the execution as `failed`;
/// - [`parchmint_resilience::PipelineError`] severities map to status:
///   `Fatal` → `error`, `Degraded` → `degraded`, `Retryable` → another
///   attempt with a bumped [`StageCtx::attempt`] (the deterministic seed
///   bump) until [`MAX_ATTEMPTS`], then `error`;
/// - an attempt that completes while its budget tripped ends `degraded` —
///   a partial result is never reported as a clean `ok`.
pub fn execute_stage(
    stage: &Stage,
    compiled: &CompiledDevice,
    policy: &ExecPolicy,
    faults: Option<&Arc<FaultPlan>>,
    tracing: bool,
) -> StageExec {
    let mut attempt = 0u32;
    loop {
        let ctx = policy.ctx(attempt);
        let budget = policy.attempt_budget(faults.is_some());
        let (outcome, trace) = collect(tracing, || {
            with_faults(faults, || {
                let body = || parchmint_resilience::attempt(|| (stage.run)(compiled, &ctx));
                match &budget {
                    Some(budget) => budget.enter(body),
                    None => body(),
                }
            })
        });
        let interruption = budget.as_ref().and_then(Budget::interruption);
        let (status, detail, metrics) = match outcome {
            Ok(Ok(StageOutcome::Metrics(metrics))) => match interruption {
                // The stage finished, but its budget tripped along the way:
                // whatever it returned is a partial result, never a clean ok.
                Some(reason) => (
                    CellStatus::Degraded,
                    Some(format!("completed under interruption ({reason})")),
                    metrics,
                ),
                None => (CellStatus::Ok, None, metrics),
            },
            Ok(Ok(StageOutcome::Degraded { reason, metrics })) => {
                (CellStatus::Degraded, Some(reason), metrics)
            }
            Ok(Ok(StageOutcome::Skipped(reason))) => {
                (CellStatus::Skipped, Some(reason), Default::default())
            }
            Ok(Err(error)) => {
                let error = error.in_stage(&stage.name);
                match error.severity {
                    Severity::Retryable if attempt + 1 < MAX_ATTEMPTS => {
                        attempt += 1;
                        continue;
                    }
                    Severity::Retryable => (
                        CellStatus::Error,
                        Some(format!("{error} (after {MAX_ATTEMPTS} attempts)")),
                        Default::default(),
                    ),
                    Severity::Degraded => (
                        CellStatus::Degraded,
                        Some(error.to_string()),
                        Default::default(),
                    ),
                    Severity::Fatal => (
                        CellStatus::Error,
                        Some(error.to_string()),
                        Default::default(),
                    ),
                }
            }
            Err(panic) => (CellStatus::Failed, Some(panic), Default::default()),
        };
        return StageExec {
            status,
            detail,
            metrics,
            trace,
            attempts: attempt + 1,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parchmint_resilience::PipelineError;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn compiled_fixture() -> Arc<CompiledDevice> {
        CompiledDevice::compile(
            parchmint_suite::by_name("logic_gate_or")
                .expect("registered benchmark")
                .device(),
        )
        .into_shared()
    }

    #[test]
    fn policy_defaults_and_bounds() {
        let policy = ExecPolicy::default();
        assert!(!policy.is_bounded());
        assert!(policy.attempt_budget(false).is_none());
        assert!(
            policy.attempt_budget(true).is_some(),
            "armed faults force a budget for stall modeling"
        );
        let bounded = ExecPolicy::new()
            .with_fuel(Some(10))
            .with_deadline(Some(Duration::from_millis(5)));
        assert!(bounded.is_bounded());
        assert_eq!(bounded.fuel(), Some(10));
        assert_eq!(bounded.deadline(), Some(Duration::from_millis(5)));
    }

    #[test]
    fn retry_schedule_lives_in_the_policy() {
        static CALLS: AtomicU32 = AtomicU32::new(0);
        let stage = Stage::new("eventually", |_, ctx| {
            CALLS.fetch_add(1, Ordering::Relaxed);
            if ctx.attempt < 2 {
                Err(PipelineError::retryable("not yet"))
            } else {
                Ok(StageOutcome::metrics([(
                    "attempt",
                    Value::from(ctx.attempt),
                )]))
            }
        });
        let compiled = compiled_fixture();
        let exec = execute_stage(&stage, &compiled, &ExecPolicy::default(), None, false);
        assert_eq!(exec.status, CellStatus::Ok);
        assert_eq!(exec.attempts, 3);
        assert_eq!(exec.metrics["attempt"], Value::from(2));
        assert_eq!(CALLS.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn compile_isolates_panics() {
        let exec = compile_device(
            || parchmint_suite::by_name("logic_gate_or").unwrap().device(),
            None,
            false,
        );
        assert!(exec.compiled.is_ok());
        assert!(exec.trace.is_none());

        let exec = compile_device(|| panic!("generator exploded"), None, false);
        assert_eq!(exec.compiled.unwrap_err(), "generator exploded");
    }
}
