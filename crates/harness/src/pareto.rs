//! Pareto sweep: the quality surface of every placer×router combination.
//!
//! The suite report answers "did anything regress?"; the Pareto projection
//! answers the paper's actual question — *which algorithm should you use?*
//! For each benchmark it collects every `pnr:*` cell into a point carrying
//! the quality metrics (failed nets, wirelength, HPWL, bends, congestion)
//! and flags the points on the Pareto frontier of (failed nets ↓,
//! wirelength ↓): a point is dominated when some other combination routes
//! at least as many nets with no more wire, and strictly better on one
//! axis.
//!
//! Everything quality-related is a pure function of the (deterministic)
//! cell metrics, so the `parchmint-pareto/v1` JSON is byte-identical
//! across thread counts and repeat runs; wall-clock data lives under the
//! same strippable root `timing` key as in the suite report.

use crate::report::{CellStatus, SuiteReport};
use serde_json::{Map, Value};

/// One placer×router quality point for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// Placer half of the combination (from the stage name).
    pub placer: String,
    /// Router half of the combination (from the stage name).
    pub router: String,
    /// Cell status (`ok` / `degraded` cells carry metrics; others don't).
    pub status: CellStatus,
    /// Nets the combination failed to route; `None` when the cell has no
    /// metrics (error/failed/skipped).
    pub failed_nets: Option<i64>,
    /// Total routed wirelength, in µm.
    pub wirelength: Option<i64>,
    /// Post-placement half-perimeter wirelength, in µm.
    pub hpwl: Option<i64>,
    /// Total bends across routed nets.
    pub bends: Option<i64>,
    /// Maximum distinct nets crossing one routing-grid cell.
    pub max_congestion: Option<i64>,
    /// Routing completion rate in `[0, 1]`.
    pub completion: Option<f64>,
    /// Whether the point sits on the (failed nets ↓, wirelength ↓) Pareto
    /// frontier of its benchmark. Metric-less points are never on it.
    pub frontier: bool,
}

/// All quality points of one benchmark, in stage-matrix order.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoRow {
    /// Benchmark name.
    pub benchmark: String,
    /// One point per `pnr:*` cell.
    pub points: Vec<ParetoPoint>,
}

fn metric_i64(cell: &crate::report::Cell, name: &str) -> Option<i64> {
    cell.metrics.get(name).and_then(Value::as_i64)
}

/// Projects a suite report onto its per-benchmark Pareto rows. Only
/// `pnr:*` cells contribute; benchmarks with none are absent.
pub fn pareto_rows(report: &SuiteReport) -> Vec<ParetoRow> {
    let mut rows: Vec<ParetoRow> = Vec::new();
    for cell in &report.cells {
        let Some(combo) = cell.stage.strip_prefix("pnr:") else {
            continue;
        };
        let Some((placer, router)) = combo.split_once('+') else {
            continue;
        };
        let point = ParetoPoint {
            placer: placer.to_string(),
            router: router.to_string(),
            status: cell.status,
            failed_nets: metric_i64(cell, "failed_nets"),
            wirelength: metric_i64(cell, "wirelength"),
            hpwl: metric_i64(cell, "hpwl"),
            bends: metric_i64(cell, "bends"),
            max_congestion: metric_i64(cell, "max_congestion"),
            completion: cell.metrics.get("completion").and_then(Value::as_f64),
            frontier: false,
        };
        match rows.last_mut().filter(|r| r.benchmark == cell.benchmark) {
            Some(row) => row.points.push(point),
            None => rows.push(ParetoRow {
                benchmark: cell.benchmark.clone(),
                points: vec![point],
            }),
        }
    }
    for row in &mut rows {
        mark_frontier(&mut row.points);
    }
    rows
}

/// Flags the non-dominated points of one benchmark. Dominance is over
/// (failed_nets, wirelength), both lower-better; a point with either
/// metric missing never reaches the frontier. Ties survive: two equal
/// points are both on the frontier.
fn mark_frontier(points: &mut [ParetoPoint]) {
    let coords: Vec<Option<(i64, i64)>> = points
        .iter()
        .map(|p| Some((p.failed_nets?, p.wirelength?)))
        .collect();
    for i in 0..points.len() {
        let Some((failed, wire)) = coords[i] else {
            continue;
        };
        let dominated = coords.iter().flatten().any(|&(other_failed, other_wire)| {
            other_failed <= failed
                && other_wire <= wire
                && (other_failed < failed || other_wire < wire)
        });
        points[i].frontier = !dominated;
    }
}

/// Renders the Pareto sweep as `parchmint-pareto/v1` JSON.
///
/// The quality payload is a pure function of the report's deterministic
/// cell metrics. Per-cell wall-clock times go under the root `timing` key
/// only when `include_timings` is set, mirroring
/// [`SuiteReport::to_json`]'s strippable convention.
pub fn pareto_json(report: &SuiteReport, include_timings: bool) -> Value {
    let rows = pareto_rows(report);
    let mut root = Map::new();
    root.insert("schema".to_string(), Value::from("parchmint-pareto/v1"));

    let mut benchmarks = Map::new();
    for row in &rows {
        let points: Vec<Value> = row
            .points
            .iter()
            .map(|p| {
                let mut entry = Map::new();
                entry.insert("placer".to_string(), Value::from(p.placer.clone()));
                entry.insert("router".to_string(), Value::from(p.router.clone()));
                entry.insert("status".to_string(), Value::from(p.status.as_str()));
                let mut put = |k: &str, v: Option<i64>| {
                    if let Some(v) = v {
                        entry.insert(k.to_string(), Value::from(v));
                    }
                };
                put("failed_nets", p.failed_nets);
                put("wirelength", p.wirelength);
                put("hpwl", p.hpwl);
                put("bends", p.bends);
                put("max_congestion", p.max_congestion);
                if let Some(completion) = p.completion {
                    entry.insert("completion".to_string(), Value::from(completion));
                }
                entry.insert("frontier".to_string(), Value::from(p.frontier));
                Value::Object(entry)
            })
            .collect();
        let mut row_entry = Map::new();
        row_entry.insert("points".to_string(), Value::Array(points));
        benchmarks.insert(row.benchmark.clone(), Value::Object(row_entry));
    }
    root.insert("benchmarks".to_string(), Value::Object(benchmarks));

    if include_timings {
        let mut timing = Map::new();
        for cell in &report.cells {
            if cell.stage.starts_with("pnr:") {
                timing.insert(cell.key(), Value::from(cell.wall.as_secs_f64() * 1e3));
            }
        }
        root.insert("timing".to_string(), Value::Object(timing));
    }
    Value::Object(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Cell;
    use std::collections::BTreeMap;
    use std::time::Duration;

    fn pnr_cell(benchmark: &str, stage: &str, failed: i64, wire: i64) -> Cell {
        let mut metrics = BTreeMap::new();
        metrics.insert("failed_nets".to_string(), Value::from(failed));
        metrics.insert("wirelength".to_string(), Value::from(wire));
        metrics.insert("hpwl".to_string(), Value::from(10));
        metrics.insert("bends".to_string(), Value::from(2));
        metrics.insert("max_congestion".to_string(), Value::from(1));
        metrics.insert("completion".to_string(), Value::from(0.5));
        Cell {
            benchmark: benchmark.into(),
            stage: stage.into(),
            status: CellStatus::Ok,
            detail: None,
            metrics,
            wall: Duration::from_millis(7),
            trace: None,
        }
    }

    fn sample() -> SuiteReport {
        SuiteReport {
            cells: vec![
                pnr_cell("chip", "pnr:greedy+straight", 4, 1000),
                pnr_cell("chip", "pnr:greedy+astar", 1, 1500),
                pnr_cell("chip", "pnr:greedy+negotiate", 0, 1600),
                pnr_cell("chip", "pnr:annealing+astar", 1, 1400),
                Cell {
                    benchmark: "chip".into(),
                    stage: "validate".into(),
                    status: CellStatus::Ok,
                    detail: None,
                    metrics: BTreeMap::new(),
                    wall: Duration::ZERO,
                    trace: None,
                },
            ],
            stages: vec![
                "validate".into(),
                "pnr:greedy+straight".into(),
                "pnr:greedy+astar".into(),
                "pnr:greedy+negotiate".into(),
                "pnr:annealing+astar".into(),
            ],
            threads: 1,
            total_wall: Duration::from_millis(30),
            compile_walls: Vec::new(),
            compile_traces: Vec::new(),
        }
    }

    #[test]
    fn frontier_flags_non_dominated_points() {
        let rows = pareto_rows(&sample());
        assert_eq!(rows.len(), 1);
        let points = &rows[0].points;
        assert_eq!(points.len(), 4, "non-pnr cells don't contribute");
        let frontier: Vec<(&str, &str)> = points
            .iter()
            .filter(|p| p.frontier)
            .map(|p| (p.placer.as_str(), p.router.as_str()))
            .collect();
        // straight: cheapest wire; negotiate: zero failures; annealing+astar
        // dominates greedy+astar (same failures, less wire).
        assert_eq!(
            frontier,
            [
                ("greedy", "straight"),
                ("greedy", "negotiate"),
                ("annealing", "astar")
            ]
        );
    }

    #[test]
    fn metricless_points_are_present_but_never_frontier() {
        let mut report = sample();
        report.cells.push(Cell {
            benchmark: "chip".into(),
            stage: "pnr:annealing+negotiate".into(),
            status: CellStatus::Failed,
            detail: Some("boom".into()),
            metrics: BTreeMap::new(),
            wall: Duration::ZERO,
            trace: None,
        });
        let rows = pareto_rows(&report);
        let failed = rows[0]
            .points
            .iter()
            .find(|p| p.router == "negotiate" && p.placer == "annealing")
            .expect("failed cell still projected");
        assert_eq!(failed.status, CellStatus::Failed);
        assert!(!failed.frontier);
        assert!(failed.failed_nets.is_none());
    }

    #[test]
    fn json_shape_and_strippable_timing() {
        let report = sample();
        let stripped = pareto_json(&report, false);
        assert_eq!(stripped["schema"], "parchmint-pareto/v1");
        assert!(stripped.get("timing").is_none());
        let points = stripped["benchmarks"]["chip"]["points"]
            .as_array()
            .expect("points array");
        assert_eq!(points.len(), 4);
        assert_eq!(points[0]["placer"], "greedy");
        assert_eq!(points[0]["router"], "straight");
        assert_eq!(points[0]["frontier"], true);
        assert_eq!(points[1]["frontier"], false);
        let timed = pareto_json(&report, true);
        assert!(timed["timing"]["chip/pnr:greedy+astar"].as_f64().is_some());
    }

    #[test]
    fn equal_points_tie_onto_the_frontier() {
        let mut report = sample();
        report.cells = vec![
            pnr_cell("chip", "pnr:greedy+astar", 1, 1000),
            pnr_cell("chip", "pnr:annealing+astar", 1, 1000),
        ];
        let rows = pareto_rows(&report);
        assert!(rows[0].points.iter().all(|p| p.frontier));
    }
}
