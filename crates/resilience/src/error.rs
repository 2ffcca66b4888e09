//! The unified pipeline error taxonomy.
//!
//! Every per-crate error (`SimError`, `ControlError`, `ParseError`,
//! `ConvertError`, …) converts into a [`PipelineError`] carrying a
//! [`Severity`], optional stage provenance, and an optional recovery hint.
//! The harness maps severities onto terminal cell states: `Fatal` → error,
//! `Degraded` → degraded (stage produced a usable partial/fallback result),
//! `Retryable` → retried deterministically, then error if retries exhaust.

use crate::budget::Interrupted;
use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::sync::Once;

/// How bad a pipeline error is, and what the harness should do about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// The stage cannot produce a result; the cell ends in `error`.
    Fatal,
    /// The stage produced a partial or fallback result; the cell ends in
    /// `degraded` and the substitution is recorded, never silent.
    Degraded,
    /// A deterministic seed-bumped retry may succeed; bounded by the
    /// harness retry budget.
    Retryable,
}

impl Severity {
    /// Stable lower-case wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Fatal => "fatal",
            Severity::Degraded => "degraded",
            Severity::Retryable => "retryable",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A pipeline-wide error: severity, stage provenance, message, recovery hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineError {
    /// How the harness should treat this error.
    pub severity: Severity,
    /// The stage the error originated in (filled by the harness when the
    /// producing crate does not know its stage name).
    pub stage: Option<String>,
    /// Human-readable description of what went wrong.
    pub message: String,
    /// What an operator could do about it, when known.
    pub hint: Option<String>,
}

impl PipelineError {
    fn new(severity: Severity, message: impl Into<String>) -> PipelineError {
        PipelineError {
            severity,
            stage: None,
            message: message.into(),
            hint: None,
        }
    }

    /// A [`Severity::Fatal`] error.
    pub fn fatal(message: impl Into<String>) -> PipelineError {
        PipelineError::new(Severity::Fatal, message)
    }

    /// A [`Severity::Degraded`] error.
    pub fn degraded(message: impl Into<String>) -> PipelineError {
        PipelineError::new(Severity::Degraded, message)
    }

    /// A [`Severity::Retryable`] error.
    pub fn retryable(message: impl Into<String>) -> PipelineError {
        PipelineError::new(Severity::Retryable, message)
    }

    /// Attaches a recovery hint.
    pub fn with_hint(mut self, hint: impl Into<String>) -> PipelineError {
        self.hint = Some(hint.into());
        self
    }

    /// Records the originating stage, keeping an already-set provenance.
    pub fn in_stage(mut self, stage: impl Into<String>) -> PipelineError {
        if self.stage.is_none() {
            self.stage = Some(stage.into());
        }
        self
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.severity, self.message)?;
        if let Some(stage) = &self.stage {
            write!(f, " (stage {stage})")?;
        }
        if let Some(hint) = &self.hint {
            write!(f, "; hint: {hint}")?;
        }
        Ok(())
    }
}

impl std::error::Error for PipelineError {}

impl From<Interrupted> for PipelineError {
    fn from(interrupted: Interrupted) -> PipelineError {
        PipelineError::degraded(interrupted.to_string())
            .with_hint("raise the stage budget (deadline/fuel) or accept the partial result")
    }
}

/// Extracts the human-readable message from a panic payload.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

thread_local! {
    /// Set while this thread runs inside [`attempt`], which catches and
    /// reports whatever panics there.
    static CATCHING: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f`, converting a panic into `Err(message)` instead of unwinding.
///
/// The closure only needs [`std::panic::UnwindSafe`] in spirit: stages pass
/// owned data and rebuild state on retry, so the blanket `AssertUnwindSafe`
/// is sound here the same way it is in the harness cell isolation.
///
/// A caught panic is kept off stderr: its message is the `Err`. The panic
/// hook is process-global, so it is replaced once, for good, by one that
/// defers to the prior hook except on a thread inside `attempt`. Panics
/// nothing catches, on any thread, still reach the prior hook. Swapping
/// the hook per call would silence every thread meanwhile, and two
/// overlapping calls could leave the silent hook installed.
pub fn attempt<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prior = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !CATCHING.get() {
                prior(info);
            }
        }));
    });
    let outer = CATCHING.replace(true);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    CATCHING.set(outer);
    result.map_err(|payload| panic_message(payload.as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::StopReason;

    #[test]
    fn display_includes_severity_stage_and_hint() {
        let err = PipelineError::fatal("boundary node missing")
            .in_stage("flow")
            .with_hint("check port ids");
        assert_eq!(
            err.to_string(),
            "fatal: boundary node missing (stage flow); hint: check port ids"
        );
    }

    #[test]
    fn in_stage_keeps_existing_provenance() {
        let err = PipelineError::retryable("flaky")
            .in_stage("a")
            .in_stage("b");
        assert_eq!(err.stage.as_deref(), Some("a"));
    }

    #[test]
    fn interruption_converts_to_degraded() {
        let err = PipelineError::from(Interrupted {
            reason: StopReason::FuelExhausted,
        });
        assert_eq!(err.severity, Severity::Degraded);
        assert!(err.message.contains("fuel exhausted"));
    }

    #[test]
    fn attempt_catches_panics() {
        assert_eq!(attempt(|| 7), Ok(7));
        let err = attempt(|| -> i32 { panic!("kaboom") }).unwrap_err();
        assert_eq!(err, "kaboom");
    }
}
