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

/// A thread-safe collecting recorder: events land in one of a fixed set
/// of `Mutex<Vec<Event>>` shards selected by the emitting thread's id, so
/// concurrent stages never contend on a single lock.
///
/// Within one thread, event order is preserved (a thread always hashes
/// to the same shard); [`Collector::summary`] folds shards in index
/// order, so single-threaded extents aggregate deterministically.
#[derive(Debug, Default)]
pub struct Collector {
    shards: [Mutex<Vec<Event>>; SHARDS],
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    fn shard(&self) -> &Mutex<Vec<Event>> {
        let mut hasher = DefaultHasher::new();
        std::thread::current().id().hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }

    /// Total number of events recorded so far.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("collector shard poisoned").len())
            .sum()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains every shard into one vector, shard order then emission
    /// order within each shard.
    pub fn drain(&self) -> Vec<Event> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.append(&mut shard.lock().expect("collector shard poisoned"));
        }
        all
    }

    /// Aggregates the recorded events into a [`TraceSummary`] without
    /// draining them.
    pub fn summary(&self) -> TraceSummary {
        let mut summary = TraceSummary::default();
        for shard in &self.shards {
            for event in shard.lock().expect("collector shard poisoned").iter() {
                summary.record(*event);
            }
        }
        summary
    }
}

impl Recorder for Collector {
    fn record(&self, event: Event) {
        self.shard()
            .lock()
            .expect("collector shard poisoned")
            .push(event);
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
        c.record(Event::new("a", EventKind::Count(1)));
        c.record(Event::new("b", EventKind::Sample(2.0)));
        c.record(Event::new("a", EventKind::Count(3)));
        let events: Vec<&'static str> = c.drain().into_iter().map(|e| e.name).collect();
        assert_eq!(events, ["a", "b", "a"]);
        assert!(c.is_empty());
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
