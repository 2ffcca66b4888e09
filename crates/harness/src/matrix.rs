//! Resolving benchmark and stage selections into a concrete sweep matrix.
//!
//! `suite-run` and the `parchmint submit` client resolve their benchmark
//! and stage names through this one resolver, so a typo behaves the same
//! in both: it becomes a visible `failed` cell, never a silently shrunk
//! sweep. The `parchmint serve` daemon selects a submission's stages from
//! its own matrix with the same [`select_stages`], so a selector names the
//! same stages there, and an unknown one also ends as a `failed` cell.

use crate::report::{Cell, StageExec};
use crate::stage::{standard_stages, Stage};
use parchmint_suite::Benchmark;
use std::borrow::Borrow;
use std::time::Duration;

/// Whether `selector` selects the stage named `stage_name`.
///
/// Selectors are exact stage names, plus the `pnr` shorthand that expands
/// to every `pnr:<placer>+<router>` combination.
pub fn stage_matches(selector: &str, stage_name: &str) -> bool {
    selector == stage_name || (selector == "pnr" && stage_name.starts_with("pnr:"))
}

/// The concrete matrix a selection resolves to.
pub struct ResolvedMatrix {
    /// The benchmarks to sweep, in registry order.
    pub benchmarks: Vec<Benchmark>,
    /// The stages to run, in standard-matrix order.
    pub stages: Vec<Stage>,
    /// One `failed` cell per unknown benchmark or stage name, so bad
    /// selections surface in the report instead of shrinking it.
    pub bad_cells: Vec<Cell>,
}

fn unknown_cell(benchmark: &str, stage: &str, detail: String) -> Cell {
    Cell::new(benchmark, stage, StageExec::failed(detail), Duration::ZERO)
}

/// Resolves `stages`, owned or borrowed, down to `selectors` (`None`
/// keeps them all), returning the kept stages in their order plus the
/// selectors that matched none of them.
pub fn select_stages<S: Borrow<Stage>>(
    stages: impl IntoIterator<Item = S>,
    selectors: Option<&[String]>,
) -> (Vec<S>, Vec<String>) {
    let Some(selectors) = selectors else {
        return (stages.into_iter().collect(), Vec::new());
    };
    let picks = |selector: &String, stage: &S| stage_matches(selector, &stage.borrow().name);
    let selected: Vec<S> = (stages.into_iter())
        .filter(|stage| selectors.iter().any(|s| picks(s, stage)))
        .collect();
    let unknown = (selectors.iter())
        .filter(|s| !selected.iter().any(|stage| picks(s, stage)))
        .cloned()
        .collect();
    (selected, unknown)
}

/// Resolves benchmark names with [`parchmint_suite::by_name`], so the FPVA
/// tier resolves as well as the registry, returning the matched benchmarks
/// plus the names that matched nothing. `None` selects the whole registry.
pub fn select_benchmarks(names: Option<&[String]>) -> (Vec<Benchmark>, Vec<String>) {
    let Some(names) = names else {
        return (parchmint_suite::suite(), Vec::new());
    };
    let mut benchmarks = Vec::new();
    let mut unknown = Vec::new();
    for name in names {
        match parchmint_suite::by_name(name) {
            Some(benchmark) => benchmarks.push(benchmark),
            None => unknown.push(name.clone()),
        }
    }
    (benchmarks, unknown)
}

/// Resolves a benchmark and stage selection into the concrete sweep
/// matrix, with unknown names recorded as `failed` cells.
pub fn resolve_matrix(benchmarks: Option<&[String]>, stages: Option<&[String]>) -> ResolvedMatrix {
    let (benchmarks, bad_benchmarks) = select_benchmarks(benchmarks);
    let (stages, bad_stages) = select_stages(standard_stages(), stages);
    let mut bad_cells = Vec::new();
    for name in bad_benchmarks {
        bad_cells.push(unknown_cell(
            &name,
            "resolve",
            format!("unknown benchmark `{name}`"),
        ));
    }
    for name in bad_stages {
        bad_cells.push(unknown_cell("*", &name, format!("unknown stage `{name}`")));
    }
    ResolvedMatrix {
        benchmarks,
        stages,
        bad_cells,
    }
}

/// Checks that `cells` hold exactly one cell per benchmark × stage of
/// `benchmarks` and `stages`, in any order, and nothing else.
pub fn check_matrix(cells: &[Cell], benchmarks: &[&str], stages: &[String]) -> Result<(), String> {
    let expected = benchmarks.len() * stages.len();
    if cells.len() != expected {
        return Err(format!(
            "matrix has {} cells, expected {expected} ({} benchmarks x {} stages)",
            cells.len(),
            benchmarks.len(),
            stages.len()
        ));
    }
    for benchmark in benchmarks {
        for stage in stages {
            if !(cells.iter()).any(|c| c.benchmark == *benchmark && c.stage == *stage) {
                return Err(format!("matrix has no cell {benchmark}/{stage}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::CellStatus;

    #[test]
    fn pnr_shorthand_expands() {
        assert!(stage_matches("pnr", "pnr:greedy+astar"));
        assert!(stage_matches("validate", "validate"));
        assert!(!stage_matches("pnr", "validate"));
        assert!(!stage_matches("validate", "pnr:greedy+astar"));
        let (stages, unknown) = select_stages(standard_stages(), Some(&["pnr".to_string()]));
        assert!(unknown.is_empty());
        assert_eq!(stages.len(), 6);
        assert!(stages.iter().all(|s| s.name.starts_with("pnr:")));
    }

    #[test]
    fn unknown_names_become_failed_cells() {
        let matrix = resolve_matrix(
            Some(&["logic_gate_or".to_string(), "ghost".to_string()]),
            Some(&["validate".to_string(), "teleport".to_string()]),
        );
        assert_eq!(matrix.benchmarks.len(), 1);
        assert_eq!(matrix.stages.len(), 1);
        assert_eq!(matrix.bad_cells.len(), 2);
        assert!(matrix.bad_cells[0]
            .detail
            .as_deref()
            .unwrap()
            .contains("ghost"));
        assert!(matrix.bad_cells[1]
            .detail
            .as_deref()
            .unwrap()
            .contains("teleport"));
    }

    #[test]
    fn fpva_tier_resolves_by_name() {
        let matrix = resolve_matrix(
            Some(&["fpva_1k".to_string(), "fpva_ghost".to_string()]),
            None,
        );
        assert_eq!(matrix.benchmarks.len(), 1);
        assert_eq!(matrix.benchmarks[0].name(), "fpva_1k");
        assert_eq!(matrix.bad_cells.len(), 1);
        let bad = &matrix.bad_cells[0];
        assert_eq!(
            (bad.benchmark.as_str(), bad.stage.as_str()),
            ("fpva_ghost", "resolve")
        );
        assert_eq!(bad.status, CellStatus::Failed);
        assert_eq!(
            bad.detail.as_deref(),
            Some("unknown benchmark `fpva_ghost`")
        );
    }

    #[test]
    fn empty_selection_is_the_whole_matrix() {
        let matrix = resolve_matrix(None, None);
        assert!(!matrix.benchmarks.is_empty());
        assert_eq!(matrix.stages.len(), 10);
        assert!(matrix.bad_cells.is_empty());
    }
}
