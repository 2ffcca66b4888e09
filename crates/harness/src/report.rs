//! Structured suite-run results and their JSON / table renderings, and
//! the stage-cell codec: the one writer and the one reader of a cell's
//! outcome members, which the suite report, the daemon's wire events and
//! its spill files share, and the one constructor of a `failed` outcome.

use parchmint_obs::TraceSummary;
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::time::Duration;

/// How one stage on one benchmark ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// The stage ran and produced metrics.
    Ok,
    /// The stage produced a usable result only by degrading — a fallback
    /// algorithm, a partial result, or a relaxed solve (reason in `detail`,
    /// metrics of the produced result still present). Degraded cells count
    /// as clean for exit-code purposes but are always visible in the report.
    Degraded,
    /// The stage does not apply to this benchmark (reason in `detail`).
    Skipped,
    /// The stage returned a structured error (message in `detail`).
    Error,
    /// The stage panicked (panic message in `detail`).
    Failed,
}

impl CellStatus {
    /// Stable lowercase wire name, as used in the JSON report.
    pub fn as_str(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Degraded => "degraded",
            CellStatus::Skipped => "skipped",
            CellStatus::Error => "error",
            CellStatus::Failed => "failed",
        }
    }

    /// The inverse of [`CellStatus::as_str`], for consumers that read
    /// cells back off a report or the daemon wire protocol.
    pub fn parse(name: &str) -> Option<CellStatus> {
        match name {
            "ok" => Some(CellStatus::Ok),
            "degraded" => Some(CellStatus::Degraded),
            "skipped" => Some(CellStatus::Skipped),
            "error" => Some(CellStatus::Error),
            "failed" => Some(CellStatus::Failed),
            _ => None,
        }
    }
}

/// The terminal state of one stage execution (after all retries): the
/// outcome a cell reports, plus the run's trace and attempt count.
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

impl StageExec {
    /// A `failed` outcome explained by `detail`, with no metrics: every
    /// cell that fails without running its stage (an unknown name, a
    /// panicked compile) is built here.
    pub fn failed(detail: impl Into<String>) -> StageExec {
        StageExec {
            status: CellStatus::Failed,
            detail: Some(detail.into()),
            metrics: BTreeMap::new(),
            trace: None,
            attempts: 1,
        }
    }
}

/// Writes a cell's outcome members into a new object: `status`, plus
/// `detail` and `metrics` when present. The suite report, the daemon's
/// `cell` event and the spill file all write cells through this, so they
/// share one shape; [`read_outcome`] reads it back.
pub fn write_outcome(
    status: CellStatus,
    detail: Option<&str>,
    metrics: &BTreeMap<String, Value>,
) -> Map {
    let mut object = Map::new();
    object.insert("status".to_string(), Value::from(status.as_str()));
    if let Some(detail) = detail {
        object.insert("detail".to_string(), Value::from(detail));
    }
    if !metrics.is_empty() {
        let metrics = metrics.iter().map(|(k, v)| (k.clone(), v.clone()));
        object.insert("metrics".to_string(), Value::Object(metrics.collect()));
    }
    object
}

/// Reads the outcome members [`write_outcome`] writes, as one attempt
/// with no trace. Refuses a missing or unknown `status`, a non-string
/// `detail` and a non-object `metrics`.
pub fn read_outcome(object: &Map) -> Result<StageExec, String> {
    let status = (object.get("status").and_then(Value::as_str))
        .and_then(CellStatus::parse)
        .ok_or("`status` must name a cell status")?;
    let detail = match object.get("detail") {
        None => None,
        Some(Value::String(detail)) => Some(detail.clone()),
        Some(_) => return Err("`detail` must be a string".to_string()),
    };
    let metrics = match object.get("metrics") {
        None => BTreeMap::new(),
        Some(Value::Object(metrics)) => metrics
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect(),
        Some(_) => return Err("`metrics` must be an object".to_string()),
    };
    Ok(StageExec {
        status,
        detail,
        metrics,
        trace: None,
        attempts: 1,
    })
}

/// Per-status cell totals for one sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatusCounts {
    /// Cells that ran cleanly.
    pub ok: usize,
    /// Cells that completed via a recorded fallback or partial result.
    pub degraded: usize,
    /// Cells whose stage did not apply.
    pub skipped: usize,
    /// Cells with a structured error.
    pub error: usize,
    /// Cells whose stage panicked.
    pub failed: usize,
}

/// One benchmark×stage result.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Benchmark name from the registry.
    pub benchmark: String,
    /// Stage name, e.g. `pnr:annealing+astar`.
    pub stage: String,
    /// How the stage ended.
    pub status: CellStatus,
    /// Skip reason, error message, or panic message.
    pub detail: Option<String>,
    /// Stage metrics; empty unless `status` is [`CellStatus::Ok`].
    pub metrics: BTreeMap<String, Value>,
    /// Stage wall-clock time (reported in the strippable `timing` section).
    pub wall: Duration,
    /// Aggregated observability events from this cell's run; present only
    /// when the sweep ran with tracing enabled and the stage emitted
    /// anything. Everything except span durations is deterministic.
    pub trace: Option<TraceSummary>,
}

impl Cell {
    /// The cell of `benchmark` × `stage` that ended as `exec` after `wall`.
    pub fn new(
        benchmark: impl Into<String>,
        stage: impl Into<String>,
        exec: StageExec,
        wall: Duration,
    ) -> Cell {
        Cell {
            benchmark: benchmark.into(),
            stage: stage.into(),
            status: exec.status,
            detail: exec.detail,
            metrics: exec.metrics,
            wall,
            trace: exec.trace,
        }
    }

    /// `benchmark/stage` — the key used in the `timing` section.
    pub fn key(&self) -> String {
        format!("{}/{}", self.benchmark, self.stage)
    }
}

/// Results of a whole sweep.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// All cells, sorted by benchmark name then stage order.
    pub cells: Vec<Cell>,
    /// Stage names in matrix order; defines the intra-benchmark cell order.
    pub stages: Vec<String>,
    /// Worker count actually used.
    pub threads: usize,
    /// End-to-end sweep wall-clock time.
    pub total_wall: Duration,
    /// Per-benchmark generate+compile wall time (each benchmark's device is
    /// compiled into its shared `CompiledDevice` view exactly once per
    /// sweep), sorted by benchmark name. Reported only in the strippable
    /// `timing` section.
    pub compile_walls: Vec<(String, Duration)>,
    /// Per-benchmark compile-phase traces, sorted by benchmark name;
    /// empty unless the sweep ran with tracing enabled.
    pub compile_traces: Vec<(String, TraceSummary)>,
}

impl SuiteReport {
    /// Sorts cells by benchmark name, then by stage position in the matrix
    /// (unknown stages last, by name), making the report independent of
    /// worker scheduling.
    pub fn sort_cells(&mut self) {
        let order = |stage: &str| {
            self.stages
                .iter()
                .position(|s| s == stage)
                .unwrap_or(usize::MAX)
        };
        self.cells.sort_by(|a, b| {
            a.benchmark
                .cmp(&b.benchmark)
                .then_with(|| order(&a.stage).cmp(&order(&b.stage)))
                .then_with(|| a.stage.cmp(&b.stage))
        });
    }

    /// Looks up one cell by benchmark and stage name.
    pub fn cell(&self, benchmark: &str, stage: &str) -> Option<&Cell> {
        self.cells
            .iter()
            .find(|c| c.benchmark == benchmark && c.stage == stage)
    }

    /// Counts cells per status.
    pub fn counts(&self) -> StatusCounts {
        let mut counts = StatusCounts::default();
        for cell in &self.cells {
            match cell.status {
                CellStatus::Ok => counts.ok += 1,
                CellStatus::Degraded => counts.degraded += 1,
                CellStatus::Skipped => counts.skipped += 1,
                CellStatus::Error => counts.error += 1,
                CellStatus::Failed => counts.failed += 1,
            }
        }
        counts
    }

    /// True if no cell errored or failed. Degraded cells count as clean:
    /// the stage produced a usable result and said how.
    pub fn is_clean(&self) -> bool {
        let counts = self.counts();
        counts.error == 0 && counts.failed == 0
    }

    /// The cells that make the sweep unclean (`error` or `failed`), in
    /// report order — what the CLI prints before exiting non-zero.
    pub fn failing_cells(&self) -> Vec<&Cell> {
        self.cells
            .iter()
            .filter(|c| matches!(c.status, CellStatus::Error | CellStatus::Failed))
            .collect()
    }

    /// Renders the report as a JSON value.
    ///
    /// All non-deterministic data — wall-clock timings and the worker count
    /// — lives under the single `timing` key, included only when
    /// `include_timings` is set. With it stripped, reports from runs with
    /// different thread counts are byte-identical, which is what makes
    /// committed baselines diffable.
    pub fn to_json(&self, include_timings: bool) -> Value {
        let totals = self.counts();
        let mut root = Map::new();
        root.insert(
            "schema".to_string(),
            Value::from("parchmint-suite-report/v1"),
        );
        let mut counts = Map::new();
        counts.insert("cells".to_string(), Value::from(self.cells.len()));
        counts.insert("ok".to_string(), Value::from(totals.ok));
        counts.insert("degraded".to_string(), Value::from(totals.degraded));
        counts.insert("skipped".to_string(), Value::from(totals.skipped));
        counts.insert("error".to_string(), Value::from(totals.error));
        counts.insert("failed".to_string(), Value::from(totals.failed));
        root.insert("counts".to_string(), Value::Object(counts));

        let cells: Vec<Value> = self
            .cells
            .iter()
            .map(|cell| {
                let mut entry = write_outcome(cell.status, cell.detail.as_deref(), &cell.metrics);
                entry.insert("benchmark".to_string(), Value::from(cell.benchmark.clone()));
                entry.insert("stage".to_string(), Value::from(cell.stage.clone()));
                Value::Object(entry)
            })
            .collect();
        root.insert("cells".to_string(), Value::Array(cells));

        if include_timings {
            let mut timing = Map::new();
            timing.insert("threads".to_string(), Value::from(self.threads));
            timing.insert(
                "total_ms".to_string(),
                Value::from(self.total_wall.as_secs_f64() * 1e3),
            );
            let mut per_cell = Map::new();
            for cell in &self.cells {
                per_cell.insert(cell.key(), Value::from(cell.wall.as_secs_f64() * 1e3));
            }
            timing.insert("cells".to_string(), Value::Object(per_cell));
            let mut compile = Map::new();
            for (benchmark, wall) in &self.compile_walls {
                compile.insert(benchmark.clone(), Value::from(wall.as_secs_f64() * 1e3));
            }
            timing.insert("compile".to_string(), Value::Object(compile));
            root.insert("timing".to_string(), Value::Object(timing));
        }
        Value::Object(root)
    }

    /// Pretty-printed JSON string of [`SuiteReport::to_json`], with a
    /// trailing newline for clean committed files.
    pub fn to_json_string(&self, include_timings: bool) -> String {
        let mut text = serde_json::to_string_pretty(&self.to_json(include_timings))
            .expect("report serialization is infallible");
        text.push('\n');
        text
    }

    /// Whether any cell or compile phase carries a trace (i.e. the sweep
    /// ran with tracing enabled and something emitted).
    pub fn has_traces(&self) -> bool {
        !self.compile_traces.is_empty() || self.cells.iter().any(|c| c.trace.is_some())
    }

    /// Renders the observability trace as a JSON value.
    ///
    /// Extents are keyed `<benchmark>/compile` and `<benchmark>/<stage>`,
    /// in `BTreeMap` (byte) order. Every value in `cells` is a pure
    /// function of the emitted event sequence; wall-clock span durations
    /// live under the single root `timing` key, included only when
    /// `include_timings` is set — stripping that one key makes traces
    /// from repeat runs byte-comparable.
    pub fn trace_json(&self, include_timings: bool) -> Value {
        let mut extents: BTreeMap<String, &TraceSummary> = BTreeMap::new();
        for (benchmark, trace) in &self.compile_traces {
            extents.insert(format!("{benchmark}/compile"), trace);
        }
        for cell in &self.cells {
            if let Some(trace) = &cell.trace {
                extents.insert(cell.key(), trace);
            }
        }

        let mut root = Map::new();
        root.insert("schema".to_string(), Value::from("parchmint-trace/v1"));
        let mut cells = Map::new();
        for (key, trace) in &extents {
            cells.insert(key.clone(), trace_summary_json(trace));
        }
        root.insert("cells".to_string(), Value::Object(cells));

        if include_timings {
            let mut timing = Map::new();
            for (key, trace) in &extents {
                if trace.spans.is_empty() {
                    continue;
                }
                let mut spans = Map::new();
                for (&name, stats) in &trace.spans {
                    spans.insert(
                        name.to_string(),
                        Value::from(stats.total.as_secs_f64() * 1e3),
                    );
                }
                timing.insert(key.clone(), Value::Object(spans));
            }
            root.insert("timing".to_string(), Value::Object(timing));
        }
        Value::Object(root)
    }

    /// Human summary: one row per benchmark, one column per stage, plus a
    /// totals line.
    pub fn summary_table(&self) -> String {
        let mut benchmarks: Vec<&str> = Vec::new();
        for cell in &self.cells {
            if benchmarks.last() != Some(&cell.benchmark.as_str()) {
                benchmarks.push(&cell.benchmark);
            }
        }
        let mut columns: Vec<&str> = self.stages.iter().map(String::as_str).collect();
        for cell in &self.cells {
            if !columns.contains(&cell.stage.as_str()) {
                columns.push(&cell.stage);
            }
        }

        let glyph = |status: CellStatus| match status {
            CellStatus::Ok => "ok",
            CellStatus::Degraded => "DEG",
            CellStatus::Skipped => "--",
            CellStatus::Error => "ERR",
            CellStatus::Failed => "FAIL",
        };
        let name_width = benchmarks
            .iter()
            .map(|b| b.len())
            .max()
            .unwrap_or(0)
            .max("benchmark".len());

        let mut out = String::new();
        out.push_str(&format!("{:name_width$}", "benchmark"));
        for column in &columns {
            out.push_str(&format!("  {column}"));
        }
        out.push('\n');
        for benchmark in &benchmarks {
            out.push_str(&format!("{benchmark:name_width$}"));
            for column in &columns {
                let mark = self
                    .cell(benchmark, column)
                    .map_or("?", |cell| glyph(cell.status));
                out.push_str(&format!("  {mark:^width$}", width = column.len()));
            }
            out.push('\n');
        }
        if self.has_traces() {
            // Per-stage trace volume: how many observability events each
            // column emitted across the whole sweep.
            out.push_str(&format!("{:name_width$}", "(events)"));
            for column in &columns {
                let events: u64 = self
                    .cells
                    .iter()
                    .filter(|c| c.stage == *column)
                    .filter_map(|c| c.trace.as_ref())
                    .map(|t| t.events)
                    .sum();
                out.push_str(&format!("  {events:^width$}", width = column.len()));
            }
            out.push('\n');
        }
        let totals = self.counts();
        out.push_str(&format!(
            "{} cells: {} ok, {} degraded, {} skipped, {} error, {} failed \
             ({} threads, {:.1}s)\n",
            self.cells.len(),
            totals.ok,
            totals.degraded,
            totals.skipped,
            totals.error,
            totals.failed,
            self.threads,
            self.total_wall.as_secs_f64(),
        ));
        out
    }
}

/// The deterministic JSON shape of one extent's [`TraceSummary`]:
/// event total, counters, sample series, histograms (count, sum, and
/// non-empty log2 buckets), and span closure counts. Span *durations*
/// are deliberately absent — they are the one nondeterministic field
/// and belong under the report's root `timing` key.
fn trace_summary_json(trace: &TraceSummary) -> Value {
    let mut entry = Map::new();
    entry.insert("events".to_string(), Value::from(trace.events));
    if !trace.counters.is_empty() {
        let counters: Map = trace
            .counters
            .iter()
            .map(|(&name, &value)| (name.to_string(), Value::from(value)))
            .collect();
        entry.insert("counters".to_string(), Value::Object(counters));
    }
    if !trace.samples.is_empty() {
        let samples: Map = trace
            .samples
            .iter()
            .map(|(&name, values)| {
                let series: Vec<Value> = values.iter().map(|&v| Value::from(v)).collect();
                (name.to_string(), Value::Array(series))
            })
            .collect();
        entry.insert("samples".to_string(), Value::Object(samples));
    }
    if !trace.histograms.is_empty() {
        let histograms: Map = trace
            .histograms
            .iter()
            .map(|(&name, histogram)| {
                let mut h = Map::new();
                h.insert("count".to_string(), Value::from(histogram.count()));
                h.insert("sum".to_string(), Value::from(histogram.sum()));
                let buckets: Vec<Value> = histogram
                    .nonzero_buckets()
                    .map(|(upper, n)| Value::Array(vec![Value::from(upper), Value::from(n)]))
                    .collect();
                h.insert("buckets".to_string(), Value::Array(buckets));
                (name.to_string(), Value::Object(h))
            })
            .collect();
        entry.insert("histograms".to_string(), Value::Object(histograms));
    }
    if !trace.spans.is_empty() {
        let spans: Map = trace
            .spans
            .iter()
            .map(|(&name, stats)| (name.to_string(), Value::from(stats.count)))
            .collect();
        entry.insert("spans".to_string(), Value::Object(spans));
    }
    Value::Object(entry)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SuiteReport {
        let mut metrics = BTreeMap::new();
        metrics.insert("hpwl".to_string(), Value::from(42));
        SuiteReport {
            cells: vec![
                Cell {
                    benchmark: "b".into(),
                    stage: "validate".into(),
                    status: CellStatus::Ok,
                    detail: None,
                    metrics: metrics.clone(),
                    wall: Duration::from_millis(3),
                    trace: None,
                },
                Cell {
                    benchmark: "a".into(),
                    stage: "flow".into(),
                    status: CellStatus::Skipped,
                    detail: Some("no ports".into()),
                    metrics: BTreeMap::new(),
                    wall: Duration::from_millis(1),
                    trace: None,
                },
                Cell {
                    benchmark: "a".into(),
                    stage: "validate".into(),
                    status: CellStatus::Error,
                    detail: Some("bad".into()),
                    metrics: BTreeMap::new(),
                    wall: Duration::from_millis(2),
                    trace: None,
                },
            ],
            stages: vec!["validate".into(), "flow".into()],
            threads: 2,
            total_wall: Duration::from_millis(6),
            compile_walls: vec![("a".into(), Duration::from_millis(1))],
            compile_traces: Vec::new(),
        }
    }

    fn traced_sample() -> SuiteReport {
        use parchmint_obs::{Event, EventKind};
        let mut report = sample();
        let cell_trace = TraceSummary::from_events([
            Event::new("verify.structure.diagnostics", EventKind::Count(2)),
            Event::new("pnr.place.cost", EventKind::Sample(10.5)),
            Event::new("pnr.route.net_expansions", EventKind::Observe(9)),
            Event::new(
                "verify.structure",
                EventKind::Span(Duration::from_millis(4)),
            ),
        ]);
        report.cells[0].trace = Some(cell_trace);
        report.compile_traces = vec![(
            "b".into(),
            TraceSummary::from_events([Event::new("ir.compile.ports", EventKind::Count(7))]),
        )];
        report
    }

    #[test]
    fn sorting_follows_stage_matrix_order() {
        let mut report = sample();
        report.sort_cells();
        let keys: Vec<String> = report.cells.iter().map(Cell::key).collect();
        assert_eq!(keys, ["a/validate", "a/flow", "b/validate"]);
    }

    #[test]
    fn stripped_json_has_no_timing_and_stable_counts() {
        let mut report = sample();
        report.sort_cells();
        let json = report.to_json(false);
        assert!(json.get("timing").is_none());
        assert_eq!(json["schema"], "parchmint-suite-report/v1");
        assert_eq!(json["counts"]["cells"], 3);
        assert_eq!(json["counts"]["ok"], 1);
        assert_eq!(json["counts"]["degraded"], 0);
        assert_eq!(json["counts"]["skipped"], 1);
        assert_eq!(json["counts"]["error"], 1);
        assert_eq!(json["counts"]["failed"], 0);
        let timed = report.to_json(true);
        assert_eq!(timed["timing"]["threads"], 2);
        assert!(timed["timing"]["cells"]["a/validate"].as_f64().is_some());
        assert!(timed["timing"]["compile"]["a"].as_f64().is_some());
    }

    #[test]
    fn summary_table_mentions_every_benchmark() {
        let mut report = sample();
        report.sort_cells();
        let table = report.summary_table();
        assert!(table.contains("benchmark"));
        assert!(table.contains('a') && table.contains('b'));
        assert!(table.contains("3 cells: 1 ok, 0 degraded, 1 skipped, 1 error, 0 failed"));
        assert!(!table.contains("(events)"), "no events row without traces");
    }

    #[test]
    fn degraded_cells_are_visible_but_clean() {
        let mut report = sample();
        report.cells[1].status = CellStatus::Degraded;
        report.cells[1].detail = Some("fell back to straight-line".into());
        report.sort_cells();
        let totals = report.counts();
        assert_eq!(totals.degraded, 1);
        assert!(!report.is_clean(), "the error cell still dirties the sweep");
        let failing = report.failing_cells();
        assert_eq!(failing.len(), 1, "degraded cells are not failing cells");
        assert_eq!(failing[0].status, CellStatus::Error);
        assert!(report.summary_table().contains("DEG"));
        assert_eq!(report.to_json(false)["counts"]["degraded"], 1);
        // Once the error is resolved, a degraded-only sweep is clean.
        report.cells.retain(|c| c.status != CellStatus::Error);
        assert!(report.is_clean());
    }

    #[test]
    fn summary_table_shows_event_counts_when_traced() {
        let mut report = traced_sample();
        report.sort_cells();
        let table = report.summary_table();
        assert!(table.contains("(events)"), "traced runs get an events row");
    }

    #[test]
    fn trace_json_is_deterministic_and_strippable() {
        let mut report = traced_sample();
        report.sort_cells();
        assert!(report.has_traces());
        let stripped = report.trace_json(false);
        assert_eq!(stripped["schema"], "parchmint-trace/v1");
        assert!(stripped.get("timing").is_none());
        let cell = &stripped["cells"]["b/validate"];
        assert_eq!(cell["events"], 4);
        assert_eq!(cell["counters"]["verify.structure.diagnostics"], 2);
        assert_eq!(cell["samples"]["pnr.place.cost"][0], 10.5);
        assert_eq!(cell["histograms"]["pnr.route.net_expansions"]["count"], 1);
        assert_eq!(cell["spans"]["verify.structure"], 1);
        assert_eq!(
            stripped["cells"]["b/compile"]["counters"]["ir.compile.ports"],
            7
        );
        // Span durations appear only under the root timing key.
        let timed = report.trace_json(true);
        assert!(timed["timing"]["b/validate"]["verify.structure"]
            .as_f64()
            .is_some());
    }
}
