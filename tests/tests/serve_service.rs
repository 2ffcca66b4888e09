//! End-to-end daemon tests over a real TCP socket: report parity with
//! the in-process sweep, concurrent pipelined submissions, the wire
//! error taxonomy, and cache sharing across connections.

use parchmint_harness::{run_suite, SuiteRunConfig};
use parchmint_integration_tests::Daemon;
use parchmint_serve::{submit_suite, Client, ServeConfig};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn two_workers() -> ServeConfig {
    ServeConfig::builder().workers(2).build()
}

#[test]
fn served_report_matches_the_in_process_sweep() {
    let daemon = Daemon::start(two_workers());
    let addr = &daemon.addr;
    let benchmarks: Vec<String> = ["logic_gate_and", "logic_gate_or"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let stages: Vec<String> = ["validate", "characterize"]
        .iter()
        .map(|s| s.to_string())
        .collect();

    let mut client = Client::connect(addr).expect("connect");
    let served = submit_suite(&mut client, Some(&benchmarks), Some(&stages), 4).expect("served");

    let local = run_suite(
        &SuiteRunConfig::builder()
            .threads(1)
            .benchmarks(benchmarks)
            .stages(stages)
            .build(),
    );

    assert_eq!(
        serde_json::to_string(&served.report.to_json(false)).unwrap(),
        serde_json::to_string(&local.to_json(false)).unwrap(),
        "stripped reports must be byte-identical across transports"
    );
    assert_eq!(served.busy_retries, 0);

    client.shutdown().expect("shutdown ack");
    daemon.join();
}

#[test]
fn pipelined_submissions_all_complete() {
    let daemon = Daemon::start(two_workers());
    let addr = &daemon.addr;
    let mut stream = TcpStream::connect(addr).expect("connect");
    const REQUESTS: usize = 16;
    for i in 0..REQUESTS {
        let line = format!(
            "{{\"op\":\"submit\",\"id\":\"r{i}\",\"benchmark\":\"logic_gate_or\",\"stages\":[\"validate\"]}}\n"
        );
        stream.write_all(line.as_bytes()).expect("write");
    }
    stream.flush().expect("flush");

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut done = 0usize;
    let mut line = String::new();
    while done < REQUESTS {
        line.clear();
        assert_ne!(reader.read_line(&mut line).expect("read"), 0, "early EOF");
        let event: Value = serde_json::from_str(line.trim()).expect("event parses");
        match event["event"].as_str() {
            Some("cell") => {
                assert_eq!(event["cell"]["stage"].as_str(), Some("validate"));
                assert_eq!(event["cell"]["status"].as_str(), Some("ok"));
            }
            Some("done") => done += 1,
            other => panic!("unexpected event {other:?}: {event}"),
        }
    }

    // Each request is counted completed before its `done` is sent.
    let mut client = Client::connect(addr).expect("second connection");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats["requests"]["completed"].as_u64(),
        Some(REQUESTS as u64)
    );
    assert_eq!(stats["requests"]["in_flight"].as_u64(), Some(0));
    assert_eq!(stats["requests"]["submitted"].as_u64(), Some(16));
    assert_eq!(stats["requests"]["rejected"].as_u64(), Some(0));
    assert_eq!(
        stats["cache"]["entries"].as_u64(),
        Some(1),
        "16 identical designs collapse to one cache entry"
    );

    client.shutdown().expect("shutdown ack");
    daemon.join();
}

#[test]
fn wire_errors_follow_the_taxonomy() {
    let daemon = Daemon::start(two_workers());
    let addr = &daemon.addr;
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut roundtrip = |request: &str| -> Value {
        writer.write_all(request.as_bytes()).expect("write");
        writer.write_all(b"\n").expect("write");
        writer.flush().expect("flush");
        let mut line = String::new();
        assert_ne!(reader.read_line(&mut line).expect("read"), 0, "early EOF");
        serde_json::from_str(line.trim()).expect("event parses")
    };

    let garbage = roundtrip("this is not json");
    assert_eq!(garbage["event"].as_str(), Some("error"));
    assert_eq!(garbage["error"]["kind"].as_str(), Some("bad_request"));

    let unknown_op = roundtrip(r#"{"op":"frobnicate","id":7}"#);
    assert_eq!(unknown_op["error"]["kind"].as_str(), Some("bad_request"));
    assert_eq!(unknown_op["id"].as_u64(), Some(7), "id echoed verbatim");

    let bad_design = roundtrip(r#"{"op":"submit","id":8,"design":{"name":42}}"#);
    assert_eq!(bad_design["error"]["kind"].as_str(), Some("invalid_design"));
    assert_eq!(bad_design["id"].as_u64(), Some(8));

    let unknown_benchmark = roundtrip(r#"{"op":"submit","id":9,"benchmark":"nope"}"#);
    assert_eq!(
        unknown_benchmark["error"]["kind"].as_str(),
        Some("invalid_design")
    );

    let two_sources = roundtrip(r#"{"op":"submit","id":10,"benchmark":"a","mint":"b"}"#);
    assert_eq!(two_sources["error"]["kind"].as_str(), Some("bad_request"));

    let pong = roundtrip(r#"{"op":"ping","id":"p"}"#);
    assert_eq!(pong["event"].as_str(), Some("pong"));

    let ack = roundtrip(r#"{"op":"shutdown","id":"s"}"#);
    assert_eq!(ack["event"].as_str(), Some("shutting_down"));
    daemon.join();
}

#[test]
fn cache_is_shared_across_connections() {
    let daemon = Daemon::start(two_workers());
    let addr = &daemon.addr;
    let stages: Vec<String> = vec!["validate".to_string()];
    let benchmarks: Vec<String> = vec!["rotary_pump_mixer".to_string()];

    let mut first = Client::connect(addr).expect("connect");
    let warm = submit_suite(&mut first, Some(&benchmarks), Some(&stages), 4).expect("warm");
    assert_eq!(warm.cached_cells, 0, "cold cache");
    drop(first);

    let mut second = Client::connect(addr).expect("reconnect");
    let replay = submit_suite(&mut second, Some(&benchmarks), Some(&stages), 4).expect("replay");
    assert_eq!(replay.cached_cells, 1, "served from the first run's work");
    assert_eq!(replay.cached_compiles, 1);
    assert_eq!(
        serde_json::to_string(&warm.report.to_json(false)).unwrap(),
        serde_json::to_string(&replay.report.to_json(false)).unwrap()
    );

    second.shutdown().expect("shutdown ack");
    daemon.join();
}
