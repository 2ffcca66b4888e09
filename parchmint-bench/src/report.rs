//! Metric values, the declarations in `BENCHMARK.json` they must match,
//! and the one-line JSON result every run ends with.

use serde_json::{Map, Value};

/// One measured number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value, with all its digits.
    pub value: f64,
    /// Sample count, call count, totals: printed beside the value.
    pub detail: String,
}

impl Metric {
    /// A metric with its printed detail.
    pub fn new(name: &'static str, unit: &'static str, value: f64, detail: String) -> Metric {
        Metric {
            name,
            unit,
            value,
            detail,
        }
    }
}

/// One metric declaration from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Declaration {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Allowed worsening as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

impl Declaration {
    /// Whether a larger value is an improvement.
    pub fn higher_is_better(&self) -> bool {
        self.better == "higher"
    }
}

/// The metric declarations of `BENCHMARK.json`.
pub struct Declared {
    /// Declared workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<Declaration>,
    /// Per-layer metrics (traced runs).
    pub per_layer: Vec<Declaration>,
}

impl Declared {
    /// Reads the `BENCHMARK.json` at `path`.
    pub fn load(path: &str) -> Result<Declared, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let root: Value = serde_json::from_str(&text).map_err(|e| format!("bad {path}: {e}"))?;
        let list = |key: &str| -> Result<Vec<Declaration>, String> {
            root[key]
                .as_array()
                .ok_or_else(|| format!("{path}: `{key}` is not a list"))?
                .iter()
                .map(|entry| {
                    let field = |name: &str| {
                        entry[name]
                            .as_str()
                            .map(str::to_string)
                            .ok_or_else(|| format!("{path}: {key} entry lacks `{name}`"))
                    };
                    Ok(Declaration {
                        name: field("name")?,
                        unit: field("unit")?,
                        better: field("better")?,
                        bound: entry["bound"].as_f64(),
                    })
                })
                .collect()
        };
        let workloads = root["workloads"]
            .as_array()
            .ok_or_else(|| format!("{path}: `workloads` is not a list"))?
            .iter()
            .filter_map(|w| w["name"].as_str().map(str::to_string))
            .collect();
        Ok(Declared {
            workloads,
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }

    /// Looks a declaration up by name in either list.
    pub fn find(&self, name: &str) -> Option<&Declaration> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|d| d.name == name)
    }
}

/// Checks that `metrics` are exactly `declared`, name for name and unit
/// for unit, and that every value is a finite number.
pub fn check_declared(metrics: &[Metric], declared: &[Declaration]) -> Result<(), String> {
    for declaration in declared {
        let metric = metrics
            .iter()
            .find(|m| m.name == declaration.name)
            .ok_or_else(|| format!("declared metric `{}` was not measured", declaration.name))?;
        if metric.unit != declaration.unit {
            return Err(format!(
                "`{}` measured in {} but declared in {}",
                metric.name, metric.unit, declaration.unit
            ));
        }
    }
    for metric in metrics {
        if !declared.iter().any(|d| d.name == metric.name) {
            return Err(format!("metric `{}` is not declared", metric.name));
        }
        if !metric.value.is_finite() {
            return Err(format!("metric `{}` is {}", metric.name, metric.value));
        }
    }
    Ok(())
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut values = Map::new();
    for metric in metrics {
        let mut entry = Map::new();
        entry.insert("value".to_string(), Value::from(metric.value));
        entry.insert("unit".to_string(), Value::from(metric.unit));
        values.insert(metric.name.to_string(), Value::Object(entry));
    }
    let mut root = Map::new();
    root.insert("correct".to_string(), Value::from(correct));
    root.insert("attempted".to_string(), Value::from(attempted));
    root.insert("failed".to_string(), Value::from(failed));
    root.insert("metrics".to_string(), Value::Object(values));
    serde_json::to_string(&Value::Object(root)).expect("result serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declaration(name: &str, unit: &str) -> Declaration {
        Declaration {
            name: name.to_string(),
            unit: unit.to_string(),
            better: "lower".to_string(),
            bound: Some(0.1),
        }
    }

    #[test]
    fn measured_metrics_must_match_declarations() {
        let declared = vec![declaration("p50_ms", "ms"), declaration("setup_s", "s")];
        let good = vec![
            Metric::new("p50_ms", "ms", 1.5, String::new()),
            Metric::new("setup_s", "s", 0.25, String::new()),
        ];
        assert!(check_declared(&good, &declared).is_ok());
        assert!(check_declared(&good[..1], &declared).is_err());
        let wrong_unit = vec![
            Metric::new("p50_ms", "s", 1.5, String::new()),
            good[1].clone(),
        ];
        assert!(check_declared(&wrong_unit, &declared).is_err());
        let not_finite = vec![
            Metric::new("p50_ms", "ms", f64::NAN, String::new()),
            good[1].clone(),
        ];
        assert!(check_declared(&not_finite, &declared).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric::new("p50_ms", "ms", 1.25, String::new())],
        );
        let value: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&String> = value.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(value["metrics"]["p50_ms"]["value"], Value::from(1.25));
        assert_eq!(value["metrics"]["p50_ms"]["unit"], Value::from("ms"));
    }
}
