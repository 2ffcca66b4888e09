//! Integration tests for the parallel suite-evaluation harness: report
//! determinism across thread counts and panic isolation.

use parchmint_harness::{
    run_matrix, run_suite, standard_stages, CellStatus, Stage, StageOutcome, SuiteRunConfig,
};
use parchmint_resilience::{FaultKind, FaultPlan, FaultSpec};
use serde_json::Value;

fn subset_config(threads: usize) -> SuiteRunConfig {
    SuiteRunConfig::builder()
        .threads(threads)
        .benchmarks([
            "logic_gate_or",
            "rotary_pump_mixer",
            "molecular_gradient_generator",
        ])
        .build()
}

#[test]
fn report_is_byte_identical_across_thread_counts() {
    let serial = run_suite(&subset_config(1));
    let parallel = run_suite(&subset_config(4));
    // Timings necessarily differ; everything else must not.
    assert_eq!(
        serial.to_json_string(false),
        parallel.to_json_string(false),
        "stripped reports diverged between 1 and 4 threads"
    );
    assert_eq!(serial.threads, 1);
    assert!(parallel.threads > 1, "parallel run used a single worker");

    // One design still spreads its cells over every requested worker.
    let one = |threads| {
        run_suite(
            &SuiteRunConfig::builder()
                .threads(threads)
                .benchmarks(["logic_gate_or"])
                .build(),
        )
    };
    let (serial, parallel) = (one(1), one(2));
    assert_eq!(
        serial.to_json_string(false),
        parallel.to_json_string(false),
        "stripped one-design reports diverged between 1 and 2 threads"
    );
    assert_eq!(parallel.threads, 2, "one-design sweep was clamped");
}

#[test]
fn row_whose_compile_panics_fails_every_cell() {
    let mut plan = FaultPlan::new();
    plan.push(FaultSpec {
        benchmark: Some("logic_gate_or".into()),
        site: "ir.compile".into(),
        fault: FaultKind::Panic,
    });
    let run = |threads| {
        run_suite(
            &SuiteRunConfig::builder()
                .threads(threads)
                .benchmarks(["logic_gate_or", "rotary_pump_mixer"])
                .faults(plan.clone())
                .build(),
        )
    };
    let (serial, parallel) = (run(1), run(2));
    for report in [&serial, &parallel] {
        assert_eq!(report.cells.len(), 2 * standard_stages().len());
        for cell in &report.cells {
            if cell.benchmark == "logic_gate_or" {
                assert_eq!(cell.status, CellStatus::Failed, "{}", cell.key());
                let detail = cell.detail.as_deref().unwrap_or_default();
                assert!(detail.starts_with("device generation panicked"), "{detail}");
            } else {
                assert_eq!(cell.status, CellStatus::Ok, "{}", cell.key());
            }
        }
        let compile = &report.to_json(true)["timing"]["compile"];
        assert!(compile.get("logic_gate_or").is_none(), "{compile}");
        assert!(compile.get("rotary_pump_mixer").is_some(), "{compile}");
    }
    assert_eq!(serial.to_json_string(false), parallel.to_json_string(false));
}

#[test]
fn full_stage_matrix_is_clean_on_the_subset() {
    let report = run_suite(&subset_config(0));
    assert_eq!(report.cells.len(), 3 * standard_stages().len());
    for cell in &report.cells {
        assert_eq!(
            cell.status,
            CellStatus::Ok,
            "{} ended {:?}: {:?}",
            cell.key(),
            cell.status,
            cell.detail
        );
    }
}

#[test]
fn injected_panic_marks_cell_failed_without_killing_the_sweep() {
    let benchmarks: Vec<_> = parchmint_suite::suite()
        .into_iter()
        .filter(|b| b.name() == "logic_gate_or" || b.name() == "logic_gate_and")
        .collect();
    let stages = vec![
        Stage::new("validate", |compiled, _| {
            let report = parchmint_verify::validate(compiled);
            Ok(StageOutcome::metrics([(
                "conformant",
                Value::from(report.is_conformant()),
            )]))
        }),
        Stage::new("explode", |compiled, _| {
            if compiled.device().name == "logic_gate_and" {
                panic!("deliberate test panic");
            }
            Ok(StageOutcome::metrics([("survived", Value::from(true))]))
        }),
    ];
    let report = run_matrix(
        &benchmarks,
        &stages,
        &SuiteRunConfig::builder().threads(2).build(),
    );

    let exploded = report.cell("logic_gate_and", "explode").unwrap();
    assert_eq!(exploded.status, CellStatus::Failed);
    assert_eq!(exploded.detail.as_deref(), Some("deliberate test panic"));

    // Every other cell of the sweep still ran to completion.
    for cell in &report.cells {
        if cell.key() != "logic_gate_and/explode" {
            assert_eq!(cell.status, CellStatus::Ok, "{} not ok", cell.key());
        }
    }
}

#[test]
fn failing_cells_single_out_fatal_and_panicked_stages() {
    let benchmarks: Vec<_> = parchmint_suite::suite()
        .into_iter()
        .filter(|b| b.name() == "logic_gate_or")
        .collect();
    let stages = vec![
        Stage::new("fine", |_, _| {
            Ok(StageOutcome::metrics([("ok", Value::from(true))]))
        }),
        Stage::new("fatal", |_, _| {
            Err(parchmint_resilience::PipelineError::fatal("hard failure"))
        }),
        Stage::new("panicky", |_, _| panic!("stage blew up")),
        Stage::new("soft", |_, _| {
            Err(parchmint_resilience::PipelineError::degraded(
                "fallback used",
            ))
        }),
    ];
    let report = run_matrix(
        &benchmarks,
        &stages,
        &SuiteRunConfig::builder().threads(1).build(),
    );
    assert!(!report.is_clean());
    let failing: Vec<String> = report
        .failing_cells()
        .iter()
        .map(|c| c.stage.clone())
        .collect();
    // Exactly the fatal and panicked stages — degraded cells are visible in
    // the report but do not make the sweep fail.
    assert_eq!(failing, ["fatal", "panicky"]);
    let counts = report.counts();
    assert_eq!(
        (counts.ok, counts.degraded, counts.error, counts.failed),
        (1, 1, 1, 1)
    );
}
