//! A panic that `parchmint_resilience::attempt` catches — in a sweep, in
//! the daemon, in the place-and-route fallbacks — stays off stderr
//! without silencing anyone else's. The panic hook is process-global, so
//! this file is its own test binary with a single test.

use parchmint::geometry::Span;
use parchmint_harness::{run_matrix, CellStatus, Stage, StageOutcome, SuiteRunConfig};
use parchmint_pnr::{place_and_route_resilient, PlacerChoice, RouterChoice};
use parchmint_resilience::{FaultKind, FaultPlan, FaultSpec};
use parchmint_serve::{DesignSource, ServeConfig, Service, SubmitRequest};
use serde_json::Value;
use std::panic::catch_unwind;
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;

static SEEN: Mutex<Vec<String>> = Mutex::new(Vec::new());

fn seen(message: &str) -> bool {
    SEEN.lock().unwrap().iter().any(|m| m == message)
}

fn sweep(stage: Stage) -> parchmint_harness::SuiteReport {
    let benchmarks: Vec<_> = parchmint_suite::suite()
        .into_iter()
        .filter(|b| b.name() == "logic_gate_or")
        .collect();
    run_matrix(
        &benchmarks,
        &[stage],
        &SuiteRunConfig::builder().threads(1).build(),
    )
}

/// Starts a sweep on its own thread whose one stage meets `gate` twice:
/// once on entry, once before returning. The caller's first `wait` thus
/// returns once the sweep is inside the stage, and its second lets the
/// sweep finish.
fn held_sweep(gate: &Arc<Barrier>) -> JoinHandle<parchmint_harness::SuiteReport> {
    let gate = Arc::clone(gate);
    std::thread::spawn(move || {
        sweep(Stage::new("hold", move |_, _| {
            gate.wait();
            gate.wait();
            Ok(StageOutcome::metrics([("held", Value::from(true))]))
        }))
    })
}

/// The `cell` events the daemon streams for `logic_gate_or` under an
/// `ir.compile` panic, served on the calling thread.
fn serve_a_compile_panic() -> Vec<Value> {
    let mut plan = FaultPlan::new();
    plan.push(FaultSpec {
        benchmark: Some("logic_gate_or".to_string()),
        site: "ir.compile".to_string(),
        fault: FaultKind::Panic,
    });
    let service = Service::new(ServeConfig::builder().faults(Some(plan)).build());
    let request = SubmitRequest {
        id: Value::from("compile-panic"),
        source: DesignSource::Benchmark("logic_gate_or".to_string()),
        stages: Some(vec!["validate".to_string()]),
        deadline_ms: None,
        fuel: None,
    };
    let mut events = Vec::new();
    service.process_submit(&request, &mut |event| events.push(event));
    events.retain(|event| event["event"] == "cell");
    events
}

fn probe(message: &'static str) -> bool {
    assert!(catch_unwind(|| panic!("{message}")).is_err());
    seen(message)
}

#[test]
fn sweeps_silence_only_their_own_panics() {
    std::panic::set_hook(Box::new(|info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        SEEN.lock().unwrap().push(message);
    }));

    let report = sweep(Stage::new("boom", |_, _| panic!("stage panic in a sweep")));
    let cell = report.cell("logic_gate_or", "boom").expect("boom cell");
    assert_eq!(cell.status, CellStatus::Failed);
    let silenced = !seen("stage panic in a sweep");

    let served = serve_a_compile_panic();
    assert_eq!(served.len(), 1, "{served:?}");
    assert_eq!(served[0]["cell"]["status"], "failed");
    let served_silenced = !seen("injected fault: panic at ir.compile");

    // Past the routing grid's 32-bit limit the A* router panics, and the
    // pipeline falls back to straight lines.
    let mut huge = parchmint_suite::by_name("logic_gate_or")
        .expect("registered benchmark")
        .device();
    huge.set_declared_bounds(Span::square(200_000_000));
    let run = place_and_route_resilient(&mut huge, PlacerChoice::Greedy, RouterChoice::AStar, 0)
        .expect("the straight-line fallback routes");
    assert!(
        run.degradations.iter().any(|d| d.phase == "route"),
        "{:?}",
        run.degradations
    );
    let router_silenced = !SEEN.lock().unwrap().iter().any(|m| m.contains("32-bit"));

    // Two overlapping sweeps: A starts, B starts, A returns, B returns.
    let (gate_a, gate_b) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
    let a = held_sweep(&gate_a);
    gate_a.wait();
    let b = held_sweep(&gate_b);
    gate_b.wait();
    let heard_during = probe("test-thread panic while sweeps run");
    gate_a.wait();
    let report_a = a.join().expect("sweep A");
    gate_b.wait();
    let report_b = b.join().expect("sweep B");
    let heard_after = probe("test-thread panic after the sweeps");

    let _ = std::panic::take_hook();
    for report in [&report_a, &report_b] {
        assert_eq!(
            report.cell("logic_gate_or", "hold").map(|c| c.status),
            Some(CellStatus::Ok)
        );
    }
    assert!(silenced, "a stage panic inside a sweep reached the hook");
    assert!(
        served_silenced,
        "a compile panic the daemon caught reached the hook"
    );
    assert!(
        router_silenced,
        "a router panic the pipeline caught reached the hook"
    );
    assert!(heard_during, "a panic outside the sweep was silenced");
    assert!(heard_after, "the sweeps left the panic hook silenced");
}
