//! In-memory span recording, written once at the end as Chrome
//! trace-event JSON (Perfetto and `chrome://tracing` open it).

use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// One closed span.
struct SpanRecord {
    name: &'static str,
    start: Duration,
    duration: Duration,
    thread: u64,
    args: Vec<(&'static str, Value)>,
}

/// The span store for one run. Every span is kept until the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    threads: Mutex<Vec<ThreadId>>,
}

/// Aggregate of every span of one name.
#[derive(Debug, Clone, Default)]
pub struct SpanSet {
    /// Each span's duration, in recording order.
    pub durations: Vec<Duration>,
    /// Each numeric arg summed over the spans.
    pub sums: BTreeMap<&'static str, f64>,
}

impl SpanSet {
    /// Durations in milliseconds.
    pub fn millis(&self) -> Vec<f64> {
        self.durations
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect()
    }

    /// Summed duration.
    pub fn total(&self) -> Duration {
        self.durations.iter().sum()
    }

    /// Sum of the numeric arg `key` (0 when absent).
    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }
}

impl Tracer {
    /// An empty store whose timestamps count from now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Records a span of the calling thread that began at `start` and
    /// lasted `duration`.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        duration: Duration,
        args: Vec<(&'static str, Value)>,
    ) {
        let record = SpanRecord {
            name,
            start: start.saturating_duration_since(self.epoch),
            duration,
            thread: self.thread_index(),
            args,
        };
        self.spans.lock().expect("span store lock").push(record);
    }

    /// Runs `body` as a span named `name` and returns its result.
    pub fn span<T>(&self, name: &'static str, body: impl FnOnce() -> T) -> T {
        self.span_with(name, || (body(), Vec::new()))
    }

    /// Runs `body` as a span whose args `body` returns beside its result.
    pub fn span_with<T>(
        &self,
        name: &'static str,
        body: impl FnOnce() -> (T, Vec<(&'static str, Value)>),
    ) -> T {
        let start = Instant::now();
        let (value, args) = body();
        self.record(name, start, start.elapsed(), args);
        value
    }

    /// A small stable number for the calling thread: its trace track.
    fn thread_index(&self) -> u64 {
        let current = std::thread::current().id();
        let mut threads = self.threads.lock().expect("thread table lock");
        let index = match threads.iter().position(|&id| id == current) {
            Some(index) => index,
            None => {
                threads.push(current);
                threads.len() - 1
            }
        };
        index as u64 + 1
    }

    /// How many spans are stored.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store lock").len()
    }

    /// Every span name with its aggregate.
    pub fn sets(&self) -> BTreeMap<&'static str, SpanSet> {
        let spans = self.spans.lock().expect("span store lock");
        let mut sets: BTreeMap<&'static str, SpanSet> = BTreeMap::new();
        for span in spans.iter() {
            let set = sets.entry(span.name).or_default();
            set.durations.push(span.duration);
            for (key, value) in &span.args {
                if let Some(number) = value.as_f64() {
                    *set.sums.entry(key).or_insert(0.0) += number;
                }
            }
        }
        sets
    }

    /// Writes every span to `path` as Chrome trace-event JSON.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let text = serde_json::to_string(&self.chrome_json()).map_err(std::io::Error::other)?;
        std::fs::write(path, text)
    }

    /// Every span as Chrome trace-event JSON: complete `X` events with
    /// microsecond timestamps, one track per logical thread.
    fn chrome_json(&self) -> Value {
        let spans = self.spans.lock().expect("span store lock");
        let events: Vec<Value> = spans
            .iter()
            .map(|span| {
                let mut event = Map::new();
                event.insert("name".to_string(), Value::from(span.name));
                let category = span.name.split('.').next().unwrap_or(span.name);
                event.insert("cat".to_string(), Value::from(category));
                event.insert("ph".to_string(), Value::from("X"));
                event.insert(
                    "ts".to_string(),
                    Value::from(span.start.as_secs_f64() * 1e6),
                );
                event.insert(
                    "dur".to_string(),
                    Value::from(span.duration.as_secs_f64() * 1e6),
                );
                event.insert("pid".to_string(), Value::from(1u64));
                event.insert("tid".to_string(), Value::from(span.thread));
                let args: Map = span
                    .args
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect();
                event.insert("args".to_string(), Value::Object(args));
                Value::Object(event)
            })
            .collect();
        let mut root = Map::new();
        root.insert("displayTimeUnit".to_string(), Value::from("ms"));
        root.insert("traceEvents".to_string(), Value::Array(events));
        Value::Object(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_aggregate_and_serialize() {
        let tracer = Tracer::new();
        let value = tracer.span_with("core.parse", || (7, vec![("bytes", Value::from(10u64))]));
        assert_eq!(value, 7);
        std::thread::scope(|scope| {
            scope.spawn(|| tracer.span("core.parse", || ()));
        });
        tracer.span("ir.compile", || ());
        let sets = tracer.sets();
        assert_eq!(sets["core.parse"].durations.len(), 2);
        assert_eq!(sets["core.parse"].sum("bytes"), 10.0);
        assert_eq!(sets["ir.compile"].durations.len(), 1);
        assert_eq!(tracer.len(), 3);

        let json = tracer.chrome_json();
        let events = json["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0]["ph"], Value::from("X"));
        assert_eq!(events[0]["cat"], Value::from("core"));
        assert_eq!(events[0]["args"]["bytes"], Value::from(10u64));
        let tracks: Vec<u64> = events.iter().map(|e| e["tid"].as_u64().unwrap()).collect();
        assert_eq!(tracks, vec![1, 2, 1]);
    }
}
