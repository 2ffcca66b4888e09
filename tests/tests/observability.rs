//! End-to-end observability: tracing a suite run yields a deterministic
//! trace artifact, every instrumented subsystem contributes its expected
//! keys, and enabling the recorder never perturbs the metrics report.

use parchmint_harness::{run_suite, SuiteRunConfig};

fn config(threads: usize, traced: bool) -> SuiteRunConfig {
    SuiteRunConfig::builder()
        .benchmarks(["logic_gate_or", "chromatin_immunoprecipitation"])
        .threads(threads)
        .tracing(traced)
        .build()
}

#[test]
fn stripped_trace_is_byte_identical_across_runs_and_thread_counts() {
    let trace = |threads| {
        let report = run_suite(&config(threads, true));
        serde_json::to_string_pretty(&report.trace_json(false)).unwrap()
    };
    let (one, two, four) = (trace(1), trace(2), trace(4));
    assert_eq!(one, two, "trace must not depend on the run");
    assert_eq!(two, four, "trace must not depend on the thread count");
}

#[test]
fn trace_covers_every_instrumented_subsystem() {
    let report = run_suite(&config(2, true));
    let trace = report.trace_json(true);
    let cells = &trace["cells"];
    let bench = "chromatin_immunoprecipitation";

    // IR compilation: intern counts recorded once per benchmark.
    let compile = &cells[format!("{bench}/compile").as_str()];
    assert!(
        compile["counters"]["ir.compile.components"]
            .as_u64()
            .unwrap()
            > 0
    );
    assert!(compile["counters"]["ir.compile.ports"].as_u64().unwrap() > 0);
    assert_eq!(compile["spans"]["ir.compile"].as_u64(), Some(1));

    // Verification: one span + diagnostics counter per rule group.
    let validate = &cells[format!("{bench}/validate").as_str()];
    for group in [
        "verify.referential",
        "verify.structure",
        "verify.geometry",
        "verify.design",
        "verify.connectivity",
    ] {
        assert_eq!(
            validate["spans"][group].as_u64(),
            Some(1),
            "missing {group}"
        );
        assert!(
            validate["counters"][format!("{group}.diagnostics").as_str()]
                .as_u64()
                .is_some(),
            "missing {group}.diagnostics"
        );
    }

    // Place-and-route: annealing schedule counters, cost-over-sweep samples,
    // and router node-expansion counts.
    let pnr = &cells[format!("{bench}/pnr:annealing+astar").as_str()];
    let accepted = pnr["counters"]["pnr.place.accepted"].as_u64().unwrap();
    let rejected = pnr["counters"]["pnr.place.rejected"].as_u64().unwrap();
    assert!(accepted + rejected > 0, "annealer moved nothing");
    assert!(pnr["counters"]["pnr.place.sweeps"].as_u64().unwrap() > 0);
    assert!(!pnr["samples"]["pnr.place.cost"]
        .as_array()
        .unwrap()
        .is_empty());
    assert!(!pnr["samples"]["pnr.place.temperature"]
        .as_array()
        .unwrap()
        .is_empty());
    assert!(pnr["counters"]["pnr.route.expansions"].as_u64().unwrap() > 0);
    assert!(pnr["counters"]["pnr.route.routed"].as_u64().unwrap() > 0);
    assert!(
        pnr["histograms"]["pnr.route.net_expansions"]["count"]
            .as_u64()
            .unwrap()
            > 0
    );
    assert_eq!(pnr["spans"]["pnr.place"].as_u64(), Some(1));
    assert_eq!(pnr["spans"]["pnr.route"].as_u64(), Some(1));

    // Flow simulation: solver iteration and residual telemetry.
    let flow = &cells[format!("{bench}/flow").as_str()];
    assert!(flow["counters"]["sim.linear.iterations"].as_u64().unwrap() > 0);
    assert!(flow["counters"]["sim.solve.nodes"].as_u64().unwrap() > 0);
    assert!(!flow["samples"]["sim.solve.residual"]
        .as_array()
        .unwrap()
        .is_empty());

    // Control synthesis: actuation-plan sizes.
    let control = &cells[format!("{bench}/control").as_str()];
    assert!(control["counters"]["control.plan.hops"].as_u64().unwrap() > 0);
    assert!(control["counters"]["control.plan.valves"]
        .as_u64()
        .is_some());

    // Wall-clock data lives only under the strippable `timing` key.
    assert!(
        trace["timing"][format!("{bench}/validate").as_str()]["verify.structure"]
            .as_f64()
            .is_some()
    );
    let stripped = report.trace_json(false);
    assert!(stripped.get("timing").is_none());
}

#[test]
fn tracing_does_not_perturb_the_metrics_report() {
    let plain = run_suite(&config(2, false));
    let traced = run_suite(&config(2, true));
    assert!(!plain.has_traces());
    assert!(traced.has_traces());
    assert_eq!(
        plain.to_json_string(false),
        traced.to_json_string(false),
        "recording must not change any reported metric"
    );
}
