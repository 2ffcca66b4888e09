//! Runs the real binary on a short `small-warm` and checks its result
//! line against the declarations in `BENCHMARK.json`.

use serde_json::Value;
use std::path::Path;
use std::process::Command;

#[test]
fn small_warm_reports_every_declared_metric() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let output = Command::new(env!("CARGO_BIN_EXE_parchmint-bench"))
        .args([
            "--workload",
            "small-warm",
            "--seed",
            "7",
            "--seconds",
            "2",
            "--trace",
            "0",
        ])
        .current_dir(&root)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(output.status.success(), "benchmark failed:\n{stdout}");
    let result: Value = serde_json::from_str(stdout.lines().last().expect("a result line"))
        .expect("result is JSON");
    assert_eq!(result["correct"], Value::from(true), "{stdout}");
    assert_eq!(result["failed"], Value::from(0u64), "{stdout}");
    assert!(result["attempted"].as_u64().expect("attempted") >= 1);

    let declared: Value = serde_json::from_str(
        &std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json"),
    )
    .expect("BENCHMARK.json is JSON");
    let metrics = result["metrics"].as_object().expect("metrics");
    let end_to_end = declared["end_to_end"].as_array().expect("end_to_end");
    assert_eq!(metrics.len(), end_to_end.len());
    for metric in end_to_end {
        let name = metric["name"].as_str().expect("name");
        let measured = &metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(measured["unit"], metric["unit"], "{name} unit");
        let value = measured["value"].as_f64().expect("numeric value");
        assert!(value.is_finite() && value > 0.0, "{name} = {value}");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_parchmint-bench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
