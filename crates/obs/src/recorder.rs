//! The recorder trait and the bundled collecting implementation.

use crate::event::Event;
use crate::summary::TraceSummary;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

/// A sink for observability events.
///
/// Implementations must be cheap and thread-safe: pipeline stages run
/// inside the harness worker pool and emit from whichever thread claimed
/// the cell.
pub trait Recorder: Send + Sync {
    /// Consumes one event.
    fn record(&self, event: Event);
}

/// Number of independent shards in a [`Collector`]. Eight covers the
/// harness pool sizes we run without measurable contention.
const SHARDS: usize = 8;

/// A thread-safe collecting recorder: each event is folded, as it
/// arrives, into one of a fixed set of `Mutex<TraceSummary>` shards
/// selected by the emitting thread's id, so concurrent stages never
/// contend on a single lock and memory grows with the number of metric
/// names (and sample values), not with the number of events.
///
/// Within one thread, event order is preserved (a thread always hashes
/// to the same shard); [`Collector::summary`] merges shards in index
/// order, so single-threaded extents aggregate deterministically.
#[derive(Debug, Default)]
pub struct Collector {
    shards: [Mutex<TraceSummary>; SHARDS],
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    fn shard(&self) -> &Mutex<TraceSummary> {
        let mut hasher = DefaultHasher::new();
        std::thread::current().id().hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }

    /// Everything recorded so far, the shards merged in index order.
    pub fn summary(&self) -> TraceSummary {
        let mut summary = TraceSummary::default();
        for shard in &self.shards {
            summary.merge(&shard.lock().expect("collector shard poisoned"));
        }
        summary
    }
}

impl Recorder for Collector {
    fn record(&self, event: Event) {
        self.shard()
            .lock()
            .expect("collector shard poisoned")
            .record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use std::sync::Arc;

    #[test]
    fn collector_preserves_single_thread_order() {
        let c = Collector::new();
        c.record(Event::new("s", EventKind::Sample(3.0)));
        c.record(Event::new("c", EventKind::Count(1)));
        c.record(Event::new("s", EventKind::Sample(1.0)));
        c.record(Event::new("s", EventKind::Sample(2.0)));
        assert_eq!(c.summary().samples["s"], [3.0, 1.0, 2.0]);
        assert_eq!(c.summary().events, 4);
    }

    #[test]
    fn collector_folds_events_as_they_arrive() {
        let c = Collector::new();
        for _ in 0..100_000 {
            c.record(Event::new("folded", EventKind::Count(1)));
        }
        let entries: usize = (c.shards.iter())
            .map(|shard| shard.lock().unwrap().counters.len())
            .sum();
        assert_eq!(entries, 1, "one folded entry, not one per event");
        assert_eq!(c.summary().counters["folded"], 100_000);
    }

    #[test]
    fn collector_is_deterministic_under_threads() {
        // Aggregated totals must not depend on scheduling; each thread
        // contributes a disjoint counter so the summary is exact.
        let run = || {
            let c = Arc::new(Collector::new());
            std::thread::scope(|scope| {
                for t in 0..4usize {
                    let c = Arc::clone(&c);
                    scope.spawn(move || {
                        let name: &'static str = ["t0", "t1", "t2", "t3"][t];
                        for _ in 0..100 {
                            c.record(Event::new(name, EventKind::Count(2)));
                        }
                    });
                }
            });
            c.summary()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert_eq!(a.events, 400);
        for t in ["t0", "t1", "t2", "t3"] {
            assert_eq!(a.counters[t], 200);
        }
    }
}
