//! The thread-local recorder scope and the emission API.
//!
//! Instrumented code never holds a recorder; it calls the free functions
//! here, which consult a thread-local slot installed by
//! [`with_recorder`]. With the slot empty (the default) every emission
//! is one `RefCell` borrow and an `Option` check.

use crate::event::{Event, EventKind};
use crate::recorder::Recorder;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    static CURRENT: RefCell<Option<Arc<dyn Recorder>>> = const { RefCell::new(None) };
}

/// Restores the previously installed recorder on drop, so nesting and
/// unwinding both leave the slot as they found it.
struct Restore(Option<Arc<dyn Recorder>>);

impl Drop for Restore {
    fn drop(&mut self) {
        let prior = self.0.take();
        CURRENT.with(|slot| *slot.borrow_mut() = prior);
    }
}

/// Installs `recorder` as this thread's sink for the duration of `f`.
///
/// Scopes nest: the prior recorder (if any) is restored when `f`
/// returns, including by panic.
pub fn with_recorder<T>(recorder: Arc<dyn Recorder>, f: impl FnOnce() -> T) -> T {
    let prior = CURRENT.with(|slot| slot.borrow_mut().replace(recorder));
    let _restore = Restore(prior);
    f()
}

/// Whether a recorder is installed on this thread.
///
/// Hot paths consult this before doing work that exists only to feed the
/// trace (running cost totals, residual computation, sample buffers).
pub fn enabled() -> bool {
    CURRENT.with(|slot| slot.borrow().is_some())
}

fn emit(name: &'static str, kind: EventKind) {
    // Clone the handle out of the borrow before recording, so a recorder
    // that itself emits (e.g. an instrumented decorator) cannot re-enter
    // the RefCell.
    let recorder = CURRENT.with(|slot| slot.borrow().clone());
    if let Some(recorder) = recorder {
        recorder.record(Event::new(name, kind));
    }
}

/// Adds `delta` to the named counter.
pub fn count(name: &'static str, delta: u64) {
    emit(name, EventKind::Count(delta));
}

/// Records one numeric sample under the name (samples keep emission
/// order, so cost-over-iteration curves survive aggregation).
pub fn sample(name: &'static str, value: f64) {
    emit(name, EventKind::Sample(value));
}

/// Records one histogram observation under the name.
pub fn observe(name: &'static str, value: u64) {
    emit(name, EventKind::Observe(value));
}

/// An RAII span: construction notes the clock, drop emits
/// [`EventKind::Span`] with the elapsed wall time.
///
/// When no recorder is installed at entry the span never reads the clock
/// and drop does nothing.
#[must_use = "a span measures the scope it is bound to; binding it to _ drops it immediately"]
pub struct Span {
    name: &'static str,
    started: Option<Instant>,
}

impl Span {
    /// Starts a span; time begins now if a recorder is installed.
    pub fn enter(name: &'static str) -> Self {
        Span {
            name,
            started: enabled().then(Instant::now),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(started) = self.started.take() {
            emit(self.name, EventKind::Span(started.elapsed()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Collector;

    #[test]
    fn no_recorder_means_disabled_and_free() {
        assert!(!enabled());
        count("scope.unrecorded", 1);
        sample("scope.unrecorded", 1.0);
        let _span = Span::enter("scope.unrecorded");
        // Nothing to assert beyond "did not panic": there is no sink.
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = Arc::new(Collector::new());
        let inner = Arc::new(Collector::new());
        with_recorder(outer.clone(), || {
            count("scope.outer", 1);
            with_recorder(inner.clone(), || count("scope.inner", 1));
            count("scope.outer", 1);
        });
        assert!(!enabled(), "outermost scope must restore the empty slot");
        assert_eq!(outer.summary().counters["scope.outer"], 2);
        assert_eq!(inner.summary().counters["scope.inner"], 1);
        assert!(!outer.summary().counters.contains_key("scope.inner"));
    }

    #[test]
    fn scope_restores_across_panic() {
        let collector = Arc::new(Collector::new());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_recorder(collector.clone(), || panic!("boom"))
        }));
        assert!(result.is_err());
        assert!(!enabled(), "panic must not leak the installed recorder");
    }

    #[test]
    fn span_times_its_scope() {
        let collector = Arc::new(Collector::new());
        with_recorder(collector.clone(), || {
            let _span = Span::enter("scope.timed");
        });
        let summary = collector.summary();
        assert_eq!(summary.spans["scope.timed"].count, 1);
    }
}
