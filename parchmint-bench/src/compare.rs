//! `parchmint-bench compare PARENT… -- CHANGE…`: the pair-comparison
//! rule applied to saved runs of two commits.
//!
//! Each file is a saved run: the benchmark's whole standard output (its
//! first line names the workload) or just its final result line. Runs
//! pair up in the order given — the i-th parent run with the i-th change
//! run — so alternate which side runs first when producing them.

use crate::report::Declared;
use crate::stats;
use serde_json::Value;
use std::collections::BTreeMap;

/// Share of pairs the change must win to claim a gain.
const WIN_SHARE: f64 = 0.9;

/// One saved run.
struct Run {
    workload: String,
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Run, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let workload = text
        .lines()
        .find_map(|line| {
            line.split_whitespace()
                .find_map(|word| word.strip_prefix("workload="))
        })
        .unwrap_or("unknown")
        .to_string();
    let last = text
        .lines()
        .rev()
        .find(|line| !line.trim().is_empty())
        .ok_or_else(|| format!("{path} is empty"))?;
    let result: Value = serde_json::from_str(last)
        .map_err(|e| format!("{path}: last line is not a result: {e}"))?;
    let metrics = result["metrics"]
        .as_object()
        .ok_or_else(|| format!("{path}: result without metrics"))?
        .iter()
        .filter_map(|(name, metric)| Some((name.clone(), metric["value"].as_f64()?)))
        .collect();
    Ok(Run {
        workload,
        correct: result["correct"].as_bool() == Some(true),
        failed: result["failed"].as_u64().unwrap_or(0),
        metrics,
    })
}

/// The verdict for one (workload, metric).
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// The change wins enough pairs and its median moved by more than
    /// the parent's spread.
    Gain,
    /// The change's median is worse by more than the declared bound.
    Regression,
    /// The parent's own spread is wider than the bound.
    Unresolved,
    /// None of the above.
    NoChange,
}

/// One row of the comparison.
#[derive(Debug)]
pub struct Row {
    /// Parent median and quartiles.
    pub parent: [f64; 3],
    /// Change median and quartiles.
    pub change: [f64; 3],
    /// Pairs the change won, of pairs compared (ties count for neither).
    pub wins: (usize, usize),
    /// Whether the medians differ by more than the parent's IQR.
    pub beyond_iqr: bool,
    /// Whether the change is worse by more than the bound.
    pub beyond_bound: bool,
    /// The verdict.
    pub verdict: Verdict,
}

/// Median and quartiles as `[q1, median, q3]`; a lone run is its own
/// quartiles.
fn spread(values: &[f64]) -> [f64; 3] {
    stats::quartiles(values).unwrap_or([values[0]; 3])
}

/// Compares `parent` with `change` runs of one metric.
pub fn compare_metric(
    parent: &[f64],
    change: &[f64],
    higher_is_better: bool,
    bound: Option<f64>,
) -> Row {
    let p = spread(parent);
    let c = spread(change);
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let delta = c[1] - p[1];
    let beyond_iqr = delta.abs() > p[2] - p[0];
    let worse_share = if higher_is_better { -delta } else { delta } / p[1].abs();
    let beyond_bound = bound.is_some_and(|b| worse_share > b);
    let verdict = if beyond_bound {
        Verdict::Regression
    } else if better(c[1], p[1]) && beyond_iqr && wins as f64 >= WIN_SHARE * pairs as f64 {
        Verdict::Gain
    } else if bound.is_some_and(|b| (p[2] - p[0]) / p[1].abs() > b) {
        Verdict::Unresolved
    } else {
        Verdict::NoChange
    };
    Row {
        parent: p,
        change: c,
        wins: (wins, pairs),
        beyond_iqr,
        beyond_bound,
        verdict,
    }
}

/// Runs the subcommand on its arguments; returns the text to print.
pub fn main(args: &[String], declared: &Declared) -> Result<String, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: parchmint-bench compare PARENT... -- CHANGE...")?;
    let parents = args[..split]
        .iter()
        .map(|p| load(p))
        .collect::<Result<Vec<_>, _>>()?;
    let changes = args[split + 1..]
        .iter()
        .map(|p| load(p))
        .collect::<Result<Vec<_>, _>>()?;
    if parents.is_empty() || changes.is_empty() {
        return Err("each side needs at least one run".to_string());
    }
    let mut out = String::new();
    let mut workloads: Vec<&str> = parents.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    for workload in workloads {
        let parent: Vec<&Run> = parents.iter().filter(|r| r.workload == workload).collect();
        let change: Vec<&Run> = changes.iter().filter(|r| r.workload == workload).collect();
        if change.is_empty() {
            continue;
        }
        let failures = |runs: &[&Run]| runs.iter().map(|r| r.failed).sum::<u64>();
        let incorrect = |runs: &[&Run]| runs.iter().filter(|r| !r.correct).count();
        out.push_str(&format!(
            "workload {workload}: {} parent runs ({} failed requests, {} incorrect), {} change runs ({} failed requests, {} incorrect)\n",
            parent.len(),
            failures(&parent),
            incorrect(&parent),
            change.len(),
            failures(&change),
            incorrect(&change),
        ));
        out.push_str(
            "  metric                              parent q1/median/q3              change q1/median/q3              wins   >IQR  >bound  verdict\n",
        );
        for name in parent[0].metrics.keys() {
            let values = |runs: &[&Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(name).copied())
                    .collect()
            };
            let (p, c) = (values(&parent), values(&change));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let declaration = declared.find(name);
            let row = compare_metric(
                &p,
                &c,
                declaration.is_some_and(|d| d.higher_is_better()),
                declaration.and_then(|d| d.bound),
            );
            out.push_str(&format!(
                "  {name:<35} {:>10.4} {:>10.4} {:>10.4}   {:>10.4} {:>10.4} {:>10.4}   {:>2}/{:<2}  {:<5} {:<6}  {:?}\n",
                row.parent[0],
                row.parent[1],
                row.parent[2],
                row.change[0],
                row.change[1],
                row.change[2],
                row.wins.0,
                row.wins.1,
                row.beyond_iqr,
                row.beyond_bound,
                row.verdict,
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_consistent_win_beyond_the_spread_is_a_gain() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 100.4, 99.9, 100.3,
        ];
        let change: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        let row = compare_metric(&parent, &change, false, Some(0.1));
        assert_eq!(row.wins, (10, 10));
        assert!(row.beyond_iqr);
        assert_eq!(row.verdict, Verdict::Gain);
        // The same numbers read as a throughput are a regression.
        let row = compare_metric(&parent, &change, true, Some(0.1));
        assert_eq!(row.verdict, Verdict::Regression);
    }

    #[test]
    fn noise_is_not_a_gain_and_wide_spread_is_unresolved() {
        let parent = [100.0, 101.0, 99.0, 100.5];
        let change = [99.5, 101.5, 98.5, 100.0];
        assert_eq!(
            compare_metric(&parent, &change, false, Some(0.1)).verdict,
            Verdict::NoChange
        );
        let wide = [50.0, 150.0, 100.0, 60.0, 140.0];
        assert_eq!(
            compare_metric(&wide, &wide, false, Some(0.1)).verdict,
            Verdict::Unresolved
        );
        // Per-layer metrics carry no bound: never a regression verdict.
        let worse: Vec<f64> = parent.iter().map(|v| v * 2.0).collect();
        assert_eq!(
            compare_metric(&parent, &worse, false, None).verdict,
            Verdict::NoChange
        );
    }
}
