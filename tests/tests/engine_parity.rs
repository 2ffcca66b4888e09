//! Pins the extracted execution engine's retry/fault semantics as
//! *shared*: the same synthetic stage matrix run through
//! `run_matrix` (the suite sweep) and through the daemon's
//! `Service::process_submit` must produce identical cells — same
//! attempt schedule, same exhaustion wording, same injected-fault
//! panic text, and the same `failed` cells for a panicked compile.

use parchmint_harness::{run_matrix, standard_stages, Stage, StageOutcome, SuiteRunConfig};
use parchmint_resilience::{FaultKind, FaultPlan, FaultSpec, PipelineError};
use parchmint_serve::protocol::{DesignSource, SubmitRequest};
use parchmint_serve::{ServeConfig, Service};
use serde_json::Value;
use std::collections::BTreeMap;

const BENCH: &str = "logic_gate_or";

/// A fresh synthetic matrix ([`Stage`] is not `Clone`): one stage that
/// succeeds only on its third attempt, one that never succeeds, and
/// one that trips an injection site.
fn make_stages() -> Vec<Stage> {
    vec![
        Stage::new("flaky", |_, ctx| {
            if ctx.attempt < 2 {
                Err(PipelineError::retryable(format!(
                    "transient wobble on attempt {}",
                    ctx.attempt
                )))
            } else {
                Ok(StageOutcome::metrics([(
                    "attempt",
                    Value::from(ctx.attempt),
                )]))
            }
        }),
        Stage::new("exhaust", |_, _| {
            Err(PipelineError::retryable("never settles"))
        }),
        Stage::new("faulted", |_, _| {
            parchmint_resilience::inject("parity.site");
            Ok(StageOutcome::metrics([("ran", Value::from(true))]))
        }),
    ]
}

fn fault_plan() -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.push(FaultSpec {
        benchmark: Some(BENCH.to_string()),
        site: "parity.site".to_string(),
        fault: FaultKind::Panic,
    });
    plan
}

/// (stage, status, detail, metrics) — everything about a cell except
/// wall-clock time.
type Shape = (String, String, Option<String>, BTreeMap<String, Value>);

/// The cells `run_matrix` ends [`BENCH`] in over `stages` under `plan`.
fn harness_cells(plan: FaultPlan, stages: Vec<Stage>) -> Vec<Shape> {
    let benchmark = parchmint_suite::by_name(BENCH).expect("registered benchmark");
    let config = SuiteRunConfig::builder().threads(1).faults(plan).build();
    let report = run_matrix(&[benchmark], &stages, &config);
    report
        .cells
        .iter()
        .map(|cell| {
            (
                cell.stage.clone(),
                cell.status.as_str().to_string(),
                cell.detail.clone(),
                cell.metrics.clone(),
            )
        })
        .collect()
}

/// The cells the daemon streams for [`BENCH`] over `stages` under `plan`.
fn daemon_cells(plan: FaultPlan, stages: Vec<Stage>) -> Vec<Shape> {
    let config = ServeConfig::builder().faults(Some(plan)).build();
    let service = Service::with_stages(config, stages);
    let request = SubmitRequest {
        id: Value::from("parity"),
        source: DesignSource::Benchmark(BENCH.to_string()),
        stages: None,
        deadline_ms: None,
        fuel: None,
    };
    let mut events = Vec::new();
    service.process_submit(&request, &mut |event| events.push(event));

    events
        .iter()
        .filter(|event| event["event"].as_str() == Some("cell"))
        .map(|event| {
            let cell = &event["cell"];
            let metrics = cell
                .get("metrics")
                .and_then(|m| m.as_object())
                .map(|m| m.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
                .unwrap_or_default();
            (
                cell["stage"].as_str().unwrap().to_string(),
                cell["status"].as_str().unwrap().to_string(),
                cell.get("detail")
                    .and_then(|d| d.as_str())
                    .map(str::to_string),
                metrics,
            )
        })
        .collect()
}

#[test]
fn daemon_and_suite_run_share_retry_and_fault_semantics() {
    let harness = harness_cells(fault_plan(), make_stages());
    let daemon = daemon_cells(fault_plan(), make_stages());
    assert_eq!(harness.len(), 3);
    assert_eq!(harness, daemon, "the two paths must emit identical cells");

    // And the shapes themselves are the engine semantics under test:
    // the flaky stage succeeded on the seed-bumped third attempt...
    let (_, status, _, metrics) = &harness[0];
    assert_eq!(status, "ok");
    assert_eq!(metrics.get("attempt"), Some(&Value::from(2u32)));

    // ...the exhausted stage reports the shared attempt budget...
    let (_, status, detail, _) = &harness[1];
    assert_eq!(status, "error");
    assert!(
        detail.as_deref().unwrap().contains("(after 3 attempts)"),
        "detail: {detail:?}"
    );

    // ...and the armed fault panics with the injector's exact wording.
    let (_, status, detail, _) = &harness[2];
    assert_eq!(status, "failed");
    assert!(
        detail
            .as_deref()
            .unwrap()
            .contains("injected fault: panic at parity.site"),
        "detail: {detail:?}"
    );
}

#[test]
fn a_compile_panic_fails_the_same_cells_on_both_paths() {
    let mut plan = FaultPlan::new();
    plan.push(FaultSpec {
        benchmark: Some(BENCH.to_string()),
        site: "ir.compile".to_string(),
        fault: FaultKind::Panic,
    });
    let harness = harness_cells(plan.clone(), standard_stages());
    let daemon = daemon_cells(plan, standard_stages());
    assert_eq!(harness.len(), standard_stages().len());
    assert_eq!(harness, daemon, "the two paths must emit identical cells");
    for (stage, status, detail, _) in &harness {
        assert_eq!(status, "failed", "{stage}");
        assert_eq!(
            detail.as_deref(),
            Some("device generation panicked: injected fault: panic at ir.compile"),
            "{stage}"
        );
    }
}

#[test]
fn without_the_fault_plan_the_injection_site_is_inert_on_both_paths() {
    let benchmark = parchmint_suite::by_name(BENCH).expect("registered benchmark");
    let config = SuiteRunConfig::builder().threads(1).build();
    let report = run_matrix(&[benchmark], &make_stages(), &config);
    let faulted = report
        .cells
        .iter()
        .find(|cell| cell.stage == "faulted")
        .expect("faulted cell present");
    assert_eq!(faulted.status.as_str(), "ok");

    let service = Service::with_stages(ServeConfig::default(), make_stages());
    let request = SubmitRequest {
        id: Value::from("inert"),
        source: DesignSource::Benchmark(BENCH.to_string()),
        stages: Some(vec!["faulted".to_string()]),
        deadline_ms: None,
        fuel: None,
    };
    let mut events = Vec::new();
    service.process_submit(&request, &mut |event| events.push(event));
    let cell = events
        .iter()
        .find(|event| event["event"].as_str() == Some("cell"))
        .expect("cell event present");
    assert_eq!(cell["cell"]["status"].as_str(), Some("ok"));
}
