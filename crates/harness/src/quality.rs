//! Comparing suite reports: the structural diff behind the byte gate, and
//! the per-metric tolerance gate for CI.
//!
//! The byte-compare regression gate proves *determinism*, and
//! [`report_diff`] names what changed when it fails; the rest of this
//! module proves *quality*. A committed `parchmint-quality-baseline/v1` file
//! records, for every `pnr:*` cell of a known-good sweep, the quality
//! metrics that downstream scheduling actually depends on — failed nets,
//! wirelength, HPWL, bends, congestion — together with the per-metric
//! tolerance each is allowed to drift by. [`compare_quality`] then flags
//! any current report that crosses a tolerance: a router that silently
//! routes 2% longer channels now fails CI even though its report is
//! perfectly deterministic.
//!
//! All gated metrics are lower-is-better; improvements and brand-new
//! cells never trip the gate, so the suite can grow without re-baselining
//! churn. Tolerances live *in the baseline file*, so loosening one is a
//! reviewable diff, not a CI-config change.

use serde_json::{Map, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Schema identifier of the committed quality baseline.
pub const QUALITY_SCHEMA: &str = "parchmint-quality-baseline/v1";

/// The gated metrics and their default tolerances, in gate order. Each is
/// `(metric, relative, absolute)`: a current value fails when it exceeds
/// `baseline + |baseline| * relative + absolute`. All are lower-is-better.
///
/// `failed_nets` gets zero slack — any newly failed net is a regression —
/// while the continuous metrics get small relative slack for intentional
/// tuning, and `max_congestion` one absolute step.
pub const DEFAULT_TOLERANCES: &[(&str, f64, f64)] = &[
    ("failed_nets", 0.0, 0.0),
    ("wirelength", 0.02, 0.0),
    ("hpwl", 0.02, 0.0),
    ("bends", 0.10, 0.0),
    ("max_congestion", 0.0, 1.0),
];

/// One quality-gate violation.
#[derive(Debug, Clone)]
pub struct QualityRegression {
    /// `benchmark/stage` of the affected cell.
    pub cell: String,
    /// Metric name, or `presence` when the whole cell lost its metrics.
    pub metric: String,
    /// Baseline-side value, rendered.
    pub baseline: String,
    /// Current-side value, rendered.
    pub current: String,
    /// The limit the current value had to stay within, rendered.
    pub allowed: String,
}

impl std::fmt::Display for QualityRegression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} regressed from {} to {} (allowed <= {})",
            self.cell, self.metric, self.baseline, self.current, self.allowed
        )
    }
}

/// Extracts the quality baseline from a suite report (the JSON of
/// [`crate::SuiteReport::to_json`]): every `pnr:*` cell's gated metrics,
/// plus the default tolerances, rendered as `parchmint-quality-baseline/v1`.
///
/// The output is a pure function of the report's deterministic cells, so
/// regenerating it from the same revision is byte-stable.
pub fn quality_baseline_json(report: &Value) -> Value {
    let mut root = Map::new();
    root.insert("schema".to_string(), Value::from(QUALITY_SCHEMA));

    let mut tolerances = Map::new();
    for &(metric, relative, absolute) in DEFAULT_TOLERANCES {
        let mut entry = Map::new();
        if relative != 0.0 {
            entry.insert("relative".to_string(), Value::from(relative));
        }
        if absolute != 0.0 {
            entry.insert("absolute".to_string(), Value::from(absolute));
        }
        tolerances.insert(metric.to_string(), Value::Object(entry));
    }
    root.insert("tolerances".to_string(), Value::Object(tolerances));

    let mut cells = Map::new();
    if let Some(report_cells) = report.get("cells").and_then(Value::as_array) {
        for cell in report_cells {
            let (Some(benchmark), Some(stage)) = (
                cell.get("benchmark").and_then(Value::as_str),
                cell.get("stage").and_then(Value::as_str),
            ) else {
                continue;
            };
            if !stage.starts_with("pnr:") {
                continue;
            }
            let Some(metrics) = cell.get("metrics").and_then(Value::as_object) else {
                continue;
            };
            let mut entry = Map::new();
            for &(metric, _, _) in DEFAULT_TOLERANCES {
                if let Some(value) = metrics.get(metric) {
                    entry.insert(metric.to_string(), value.clone());
                }
            }
            if !entry.is_empty() {
                cells.insert(format!("{benchmark}/{stage}"), Value::Object(entry));
            }
        }
    }
    root.insert("cells".to_string(), Value::Object(cells));
    Value::Object(root)
}

/// Reads the (relative, absolute) tolerance for `metric` from the
/// baseline's `tolerances` section, defaulting to zero slack for metrics
/// the baseline doesn't mention.
fn tolerance_for(baseline: &Value, metric: &str) -> (f64, f64) {
    let entry = baseline.get("tolerances").and_then(|t| t.get(metric));
    let field = |name: &str| {
        entry
            .and_then(|e| e.get(name))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    (field("relative"), field("absolute"))
}

/// Compares a current suite report against a committed quality baseline
/// and returns every tolerance violation.
///
/// Gated conditions, per baseline cell:
///
/// - the cell missing from the current report, or present without the
///   baselined metric (e.g. it now errors) — reported as `presence`;
/// - a gated metric exceeding `baseline + |baseline| * relative + absolute`.
///
/// Improvements, new cells, and metrics absent from the baseline never
/// trip the gate.
pub fn compare_quality(baseline: &Value, current: &Value) -> Vec<QualityRegression> {
    let mut regressions = Vec::new();
    let Some(baseline_cells) = baseline.get("cells").and_then(Value::as_object) else {
        return regressions;
    };
    let current_cells = index_cells(current);

    for (key, base_metrics) in baseline_cells {
        let cur_metrics = current_cells
            .get(key)
            .and_then(|cell| cell.get("metrics"))
            .and_then(Value::as_object);
        let Some(base_metrics) = base_metrics.as_object() else {
            continue;
        };
        for &(metric, _, _) in DEFAULT_TOLERANCES {
            let Some(base) = base_metrics.get(metric).and_then(Value::as_f64) else {
                continue;
            };
            let cur = cur_metrics
                .and_then(|m| m.get(metric))
                .and_then(Value::as_f64);
            let Some(cur) = cur else {
                regressions.push(QualityRegression {
                    cell: key.clone(),
                    metric: "presence".to_string(),
                    baseline: format!("{metric}={base}"),
                    current: "missing".to_string(),
                    allowed: "present".to_string(),
                });
                break; // one presence regression per cell is enough
            };
            let (relative, absolute) = tolerance_for(baseline, metric);
            let allowed = base + base.abs() * relative + absolute;
            if cur > allowed {
                regressions.push(QualityRegression {
                    cell: key.clone(),
                    metric: metric.to_string(),
                    baseline: format!("{base}"),
                    current: format!("{cur}"),
                    allowed: format!("{allowed}"),
                });
            }
        }
    }
    regressions
}

/// Lists every difference between two suite reports (the JSON of
/// [`crate::SuiteReport::to_json`]), one line each; empty when they agree.
///
/// This explains a failed byte compare. Every top-level member except
/// `cells` and the machine-dependent `timing` section is compared whole
/// (`schema: "a" -> "b"`). Cells are matched by `benchmark/stage`: a cell
/// on one side only is named as such, and a changed cell gets one line
/// listing each member that changed, with metrics compared one by one
/// (`chip/validate: status "ok" -> "error", errors 0 -> 1`). Equal cells
/// in another order or number get one `cells:` line. Since `timing` is
/// skipped, a timed report and its stripped form show no difference.
pub fn report_diff(baseline: &Value, current: &Value) -> Vec<String> {
    let show = |value: Option<&Value>| value.map_or_else(|| "absent".to_string(), Value::to_string);
    let mut lines: Vec<String> = member_changes(baseline.as_object(), current.as_object())
        .into_iter()
        .filter(|(name, _, _)| !matches!(*name, "cells" | "timing"))
        .map(|(name, base, cur)| format!("{name}: {} -> {}", show(base), show(cur)))
        .collect();

    let base_cells = index_cells(baseline);
    let cur_cells = index_cells(current);
    let keys: BTreeSet<&String> = base_cells.keys().chain(cur_cells.keys()).collect();
    for key in keys {
        let (base, cur) = match (base_cells.get(key), cur_cells.get(key)) {
            (Some(base), Some(cur)) => (base, cur),
            (Some(_), None) => {
                lines.push(format!("{key}: only in baseline"));
                continue;
            }
            _ => {
                lines.push(format!("{key}: only in current"));
                continue;
            }
        };
        let mut deltas = Vec::new();
        for (name, b, c) in member_changes(base.as_object(), cur.as_object()) {
            if name == "metrics" {
                let metrics =
                    member_changes(b.and_then(Value::as_object), c.and_then(Value::as_object));
                for (metric, b, c) in metrics {
                    deltas.push(format!("{metric} {} -> {}", show(b), show(c)));
                }
            } else {
                deltas.push(format!("{name} {} -> {}", show(b), show(c)));
            }
        }
        if !deltas.is_empty() {
            lines.push(format!("{key}: {}", deltas.join(", ")));
        }
    }
    // Cells that match pairwise can still differ in order or repetition.
    let keys = |report| keyed_cells(report).map(|(key, _)| key).collect::<Vec<_>>();
    if lines.is_empty() && keys(baseline) != keys(current) {
        lines.push("cells: the same cells in another order or number".to_string());
    }
    lines
}

/// A report's cells with their `benchmark/stage` keys, in array order.
fn keyed_cells(report: &Value) -> impl Iterator<Item = (String, &Value)> {
    let cells = report.get("cells").and_then(Value::as_array);
    cells.into_iter().flatten().filter_map(|cell| {
        let benchmark = cell.get("benchmark")?.as_str()?;
        let stage = cell.get("stage")?.as_str()?;
        Some((format!("{benchmark}/{stage}"), cell))
    })
}

/// Indexes a report's `cells` array by `benchmark/stage`.
fn index_cells(report: &Value) -> BTreeMap<String, &Value> {
    keyed_cells(report).collect()
}

/// The members whose values differ between two JSON objects, in name
/// order, each with its value on either side (`None` where absent).
fn member_changes<'a>(
    base: Option<&'a Map<String, Value>>,
    cur: Option<&'a Map<String, Value>>,
) -> Vec<(&'a str, Option<&'a Value>, Option<&'a Value>)> {
    let names: BTreeSet<&str> = base
        .into_iter()
        .chain(cur)
        .flat_map(Map::keys)
        .map(String::as_str)
        .collect();
    names
        .into_iter()
        .filter_map(|name| {
            let (b, c) = (
                base.and_then(|m| m.get(name)),
                cur.and_then(|m| m.get(name)),
            );
            (b != c).then_some((name, b, c))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Cell, CellStatus, SuiteReport};
    use serde_json::json;
    use std::time::Duration;

    fn report(wirelength: i64, failed_nets: i64) -> Value {
        json!({
            "schema": "parchmint-suite-report/v1",
            "cells": [
                {
                    "benchmark": "chip",
                    "stage": "pnr:greedy+negotiate",
                    "status": "ok",
                    "metrics": {
                        "failed_nets": failed_nets,
                        "wirelength": wirelength,
                        "hpwl": 500,
                        "bends": 10,
                        "max_congestion": 2,
                        "routed": 9
                    }
                },
                { "benchmark": "chip", "stage": "validate", "status": "ok",
                  "metrics": { "conformant": true } }
            ]
        })
    }

    #[test]
    fn baseline_extraction_keeps_only_pnr_quality_metrics() {
        let baseline = quality_baseline_json(&report(1000, 0));
        assert_eq!(baseline["schema"], QUALITY_SCHEMA);
        let cell = &baseline["cells"]["chip/pnr:greedy+negotiate"];
        assert_eq!(cell["wirelength"], 1000);
        assert_eq!(cell["failed_nets"], 0);
        assert!(cell.get("routed").is_none(), "non-gated metrics excluded");
        assert!(baseline["cells"].get("chip/validate").is_none());
        assert_eq!(baseline["tolerances"]["wirelength"]["relative"], 0.02);
    }

    #[test]
    fn within_tolerance_changes_pass() {
        let baseline = quality_baseline_json(&report(1000, 0));
        // +1.9% wirelength: inside the 2% budget.
        assert!(compare_quality(&baseline, &report(1019, 0)).is_empty());
        // Improvements always pass.
        assert!(compare_quality(&baseline, &report(900, 0)).is_empty());
    }

    #[test]
    fn wirelength_regression_beyond_two_percent_fails() {
        let baseline = quality_baseline_json(&report(1000, 0));
        let regressions = compare_quality(&baseline, &report(1021, 0));
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].metric, "wirelength");
        assert!(regressions[0].to_string().contains("allowed <= 1020"));
    }

    #[test]
    fn any_newly_failed_net_fails() {
        let baseline = quality_baseline_json(&report(1000, 0));
        let regressions = compare_quality(&baseline, &report(1000, 1));
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].metric, "failed_nets");
    }

    #[test]
    fn cell_losing_its_metrics_is_a_presence_regression() {
        let baseline = quality_baseline_json(&report(1000, 0));
        let broken = json!({
            "schema": "parchmint-suite-report/v1",
            "cells": [
                { "benchmark": "chip", "stage": "pnr:greedy+negotiate",
                  "status": "error", "detail": "boom" }
            ]
        });
        let regressions = compare_quality(&baseline, &broken);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].metric, "presence");
    }

    #[test]
    fn identical_reports_have_no_diff() {
        assert!(report_diff(&report(1000, 0), &report(1000, 0)).is_empty());
    }

    #[test]
    fn diff_names_each_changed_metric() {
        assert_eq!(
            report_diff(&report(1000, 0), &report(1021, 1)),
            ["chip/pnr:greedy+negotiate: failed_nets 0 -> 1, wirelength 1000 -> 1021"]
        );
    }

    /// `report(1000, 0)` with `edit` applied to its cells array.
    fn edited(edit: impl FnOnce(&mut Vec<Value>)) -> Value {
        let mut report = report(1000, 0);
        match report
            .as_object_mut()
            .and_then(|root| root.get_mut("cells"))
        {
            Some(Value::Array(cells)) => edit(cells),
            _ => unreachable!("the fixture has a cells array"),
        }
        report
    }

    #[test]
    fn diff_names_a_status_change() {
        let broken = edited(|cells| {
            let validate = cells[1].as_object_mut().expect("cell object");
            validate.insert("status".to_string(), json!("error"));
        });
        assert_eq!(
            report_diff(&report(1000, 0), &broken),
            [r#"chip/validate: status "ok" -> "error""#]
        );
    }

    #[test]
    fn diff_names_a_cell_on_one_side_only() {
        let fewer = edited(|cells| {
            cells.remove(1);
        });
        assert_eq!(
            report_diff(&report(1000, 0), &fewer),
            ["chip/validate: only in baseline"]
        );
        assert_eq!(
            report_diff(&fewer, &report(1000, 0)),
            ["chip/validate: only in current"]
        );
    }

    #[test]
    fn diff_notices_reordered_cells() {
        let swapped = edited(|cells| cells.swap(0, 1));
        assert_eq!(
            report_diff(&report(1000, 0), &swapped),
            ["cells: the same cells in another order or number"]
        );
    }

    #[test]
    fn diff_names_a_top_level_change() {
        let mut renamed = report(1000, 0);
        renamed
            .as_object_mut()
            .expect("report object")
            .insert("schema".to_string(), json!("parchmint-suite-report/v2"));
        assert_eq!(
            report_diff(&report(1000, 0), &renamed),
            [r#"schema: "parchmint-suite-report/v1" -> "parchmint-suite-report/v2""#]
        );
    }

    #[test]
    fn timed_report_has_no_diff_with_its_stripped_form() {
        let cell = Cell {
            benchmark: "chip".to_string(),
            stage: "validate".to_string(),
            status: CellStatus::Ok,
            detail: None,
            metrics: [("errors".to_string(), json!(0))].into(),
            wall: Duration::from_millis(7),
            trace: None,
        };
        let suite = SuiteReport {
            cells: vec![cell],
            stages: vec!["validate".to_string()],
            threads: 2,
            total_wall: Duration::from_millis(9),
            compile_walls: vec![("chip".to_string(), Duration::from_millis(2))],
            compile_traces: Vec::new(),
        };
        let timed = suite.to_json(true);
        assert!(timed.get("timing").is_some());
        assert!(report_diff(&suite.to_json(false), &timed).is_empty());
    }

    #[test]
    fn baseline_tolerances_override_defaults() {
        let mut baseline = quality_baseline_json(&report(1000, 0));
        baseline
            .as_object_mut()
            .and_then(|root| root.get_mut("tolerances"))
            .and_then(Value::as_object_mut)
            .expect("tolerances object")
            .insert("wirelength".to_string(), json!({ "relative": 0.10 }));
        assert!(compare_quality(&baseline, &report(1090, 0)).is_empty());
        assert_eq!(compare_quality(&baseline, &report(1110, 0)).len(), 1);
    }
}
