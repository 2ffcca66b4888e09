//! Network chaos: the full client/daemon stack under deterministic
//! wire faults, and the server-side defenses against hostile peers.
//!
//! The `ChaosProxy` sits between a real client and a real daemon and
//! injects the faults a seeded plan assigns to each connection —
//! truncations, abrupt closes, garbage prefixes. The assertions here
//! are the tentpole guarantees: the reassembled suite report is
//! byte-identical to an undisturbed run, every fault is visible as a
//! `serve.net.*` counter, and slow-drip / oversized / idle peers are
//! evicted without collateral damage to well-behaved connections.

use parchmint_integration_tests::Daemon;
use parchmint_serve::{submit_suite, ChaosPlan, ChaosProxy, Client, ClientConfig, ServeConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Tight backoff so faulted runs stay fast; everything else default.
fn fast_reconnects() -> ClientConfig {
    ClientConfig::default().with_backoff(Duration::from_millis(1), Duration::from_millis(20))
}

#[test]
fn a_faulted_suite_submission_is_byte_identical_and_every_fault_is_counted() {
    let daemon = Daemon::start(ServeConfig::builder().workers(2).build());
    let daemon_addr = daemon.addr.as_str();

    // Accept-order plan: connection 0 is truncated mid-stream, 1 is
    // severed abruptly, 2 gets a garbage prefix that desynchronizes the
    // first frame, and 3+ are clean — so the client needs exactly three
    // reconnects to finish.
    let plan = ChaosPlan::from_json_str(
        r#"{
            "schema": "parchmint-chaos/v1",
            "seed": 7,
            "faults": [
                {"connection": 0, "fault": "truncate", "after_bytes": 2000},
                {"connection": 1, "fault": "close", "after_bytes": 500},
                {"connection": 2, "fault": "garbage_prefix", "bytes": 32}
            ]
        }"#,
    )
    .expect("plan parses");
    let proxy = ChaosProxy::spawn(plan, "127.0.0.1:0", daemon_addr).expect("proxy binds");
    let proxy_addr = proxy.local_addr().to_string();

    let benchmarks: Vec<String> = ["logic_gate_and", "logic_gate_or"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let stages: Vec<String> = ["validate", "characterize"]
        .iter()
        .map(|s| s.to_string())
        .collect();

    let mut faulted_client =
        Client::connect_with(&proxy_addr, fast_reconnects()).expect("connect via proxy");
    let faulted = submit_suite(&mut faulted_client, Some(&benchmarks), Some(&stages), 4)
        .expect("suite survives the chaos plan");
    assert_eq!(
        faulted.reconnects, 3,
        "one reconnect per faulted connection"
    );
    assert!(faulted.resumed_designs >= 1, "a torn batch resumes designs");

    // The same submission straight to the daemon: stripped reports must
    // be byte-identical — resume is idempotent, nothing lost, nothing
    // duplicated.
    let mut direct_client = Client::connect(daemon_addr).expect("connect direct");
    let direct = submit_suite(&mut direct_client, Some(&benchmarks), Some(&stages), 4)
        .expect("direct submission");
    assert_eq!(
        serde_json::to_string(&faulted.report.to_json(false)).unwrap(),
        serde_json::to_string(&direct.report.to_json(false)).unwrap(),
        "chaos must not change the report"
    );

    // Every injected fault left a deterministic observability trail.
    let stats = direct_client.stats().expect("stats");
    let counters = &stats["counters"];
    assert!(
        counters["serve.net.frames.torn"].as_u64().unwrap_or(0) >= 1,
        "the truncated connection tears a frame: {counters}"
    );
    assert!(
        counters["serve.net.bad_requests"].as_u64().unwrap_or(0) >= 1,
        "the garbage prefix corrupts a frame into a bad request: {counters}"
    );
    assert!(
        counters["serve.net.conn.accepted"].as_u64().unwrap() >= 4,
        "three faulted connections plus the clean retries: {counters}"
    );
    assert_eq!(stats["workers_respawned"].as_u64(), Some(0));

    let chaos = proxy.counters();
    assert_eq!(chaos.truncated(), 1);
    assert_eq!(chaos.closed(), 1);
    assert_eq!(chaos.garbage_bytes(), 32);
    assert!(chaos.connections() >= 4);

    direct_client.shutdown().expect("shutdown ack");
    drop(proxy);
    daemon.join();
}

#[test]
fn a_slowloris_dripper_is_evicted_while_real_work_completes() {
    let daemon = Daemon::start(
        ServeConfig::builder()
            .workers(2)
            .read_timeout_ms(400)
            .build(),
    );
    let addr = daemon.addr.as_str();

    // The attacker: one byte of a never-finished frame every 100 ms —
    // steady progress, so a naive "no bytes recently" check would never
    // fire. Eviction must key off the age of the incomplete frame.
    let mut dripper = TcpStream::connect(addr).expect("connect dripper");
    dripper
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let drip_feed = dripper.try_clone().expect("clone");
    let feeder = std::thread::spawn(move || {
        let mut drip_feed = drip_feed;
        for byte in b"{\"op\":\"submit\",\"benchmark\"" {
            if drip_feed.write_all(&[*byte]).is_err() {
                break; // evicted — exactly what the test wants
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    });

    // Meanwhile a well-behaved client is not starved by the dripper.
    let mut client = Client::connect(addr).expect("connect client");
    let benchmarks = vec!["logic_gate_or".to_string()];
    let stages = vec!["validate".to_string()];
    let served =
        submit_suite(&mut client, Some(&benchmarks), Some(&stages), 4).expect("real work proceeds");
    assert_eq!(served.report.cells.len(), 1);

    // The dripper gets a last-gasp error event, then EOF.
    let mut response = String::new();
    BufReader::new(&mut dripper)
        .read_to_string(&mut response)
        .expect("read dripper responses");
    assert!(
        response.contains("request frame incomplete"),
        "dripper should be told why: {response:?}"
    );
    feeder.join().expect("feeder thread");

    let stats = client.stats().expect("stats");
    assert!(
        stats["counters"]["serve.net.read_timeouts"]
            .as_u64()
            .unwrap_or(0)
            >= 1,
        "eviction must be counted: {}",
        stats["counters"]
    );
    assert!(
        stats["counters"]["serve.net.frames.stalled"]
            .as_u64()
            .unwrap_or(0)
            >= 1,
        "the stall itself is observable: {}",
        stats["counters"]
    );

    client.shutdown().expect("shutdown ack");
    daemon.join();
}

#[test]
fn a_multi_megabyte_line_sent_in_one_write_is_not_a_stall() {
    // A generous read timeout, so the poll tick is its 100 ms ceiling:
    // far longer than loopback takes between two reads of one line.
    let daemon = Daemon::start(
        ServeConfig::builder()
            .workers(1)
            .read_timeout_ms(60_000)
            .build(),
    );
    let addr = daemon.addr.as_str();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let line = format!(
        "{{\"op\":\"ping\",\"id\":1,\"pad\":\"{}\"}}\n",
        "x".repeat(4 << 20)
    );
    stream.write_all(line.as_bytes()).expect("one write");
    let mut pong = String::new();
    BufReader::new(&mut stream)
        .read_line(&mut pong)
        .expect("read pong");
    assert!(pong.contains("pong"), "{pong}");

    let mut client = Client::connect(addr).expect("connect client");
    let stats = client.stats().expect("stats");
    let counters = &stats["counters"];
    assert!(
        counters["serve.net.frames"].as_u64().unwrap_or(0) >= 1,
        "{counters}"
    );
    assert_eq!(
        counters["serve.net.frames.stalled"].as_u64().unwrap_or(0),
        0,
        "a line that keeps arriving is not a stall: {counters}"
    );
    client.shutdown().expect("shutdown ack");
    daemon.join();
}

#[test]
fn oversized_frames_and_idle_connections_are_refused_politely() {
    let daemon = Daemon::start(
        ServeConfig::builder()
            .workers(1)
            .line_max_bytes(1024)
            .idle_timeout_ms(300)
            .build(),
    );
    let addr = daemon.addr.as_str();

    // A frame past the cap is refused with a diagnostic, not buffered.
    let mut oversized = TcpStream::connect(addr).expect("connect oversized");
    oversized
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let huge = format!("{{\"op\":\"submit\",\"pad\":\"{}\"}}\n", "x".repeat(4096));
    oversized.write_all(huge.as_bytes()).expect("write");
    let mut line = String::new();
    BufReader::new(&mut oversized)
        .read_line(&mut line)
        .expect("read refusal");
    assert!(
        line.contains("request frame exceeds 1024 bytes"),
        "refusal names the cap: {line:?}"
    );

    // A connection that never says anything is evicted at the idle
    // timeout: EOF, no error spam.
    let mut idle = TcpStream::connect(addr).expect("connect idle");
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut sink = String::new();
    idle.read_to_string(&mut sink).expect("idle read");
    assert_eq!(sink, "", "idle eviction is a silent close");

    let mut client = Client::connect(addr).expect("connect client");
    let stats = client.stats().expect("stats");
    let counters = &stats["counters"];
    assert!(counters["serve.net.frames.oversized"].as_u64().unwrap_or(0) >= 1);
    assert!(counters["serve.net.idle_closed"].as_u64().unwrap_or(0) >= 1);

    client.shutdown().expect("shutdown ack");
    daemon.join();
}
