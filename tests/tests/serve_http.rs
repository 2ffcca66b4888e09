//! The HTTP/1.1 front end: routes, the error-taxonomy status mapping,
//! and parity with the line protocol (both transports share one
//! service, queue, and cache).

use parchmint_serve::hash::{content_hash, hex};
use parchmint_serve::{serve, Client, ServeConfig, Service};
use serde_json::Value;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Starts a daemon with both transports; returns (tcp addr, http addr).
fn start_daemon() -> (String, String, JoinHandle<()>) {
    start_daemon_with(ServeConfig::builder().workers(2).build())
}

fn start_daemon_with(config: ServeConfig) -> (String, String, JoinHandle<()>) {
    let tcp = TcpListener::bind("127.0.0.1:0").expect("bind tcp");
    let http = TcpListener::bind("127.0.0.1:0").expect("bind http");
    let tcp_addr = tcp.local_addr().expect("tcp addr").to_string();
    let http_addr = http.local_addr().expect("http addr").to_string();
    let service = Arc::new(Service::new(config));
    let handle = std::thread::spawn(move || {
        serve(service, Some(tcp), Some(http)).expect("daemon runs");
    });
    (tcp_addr, http_addr, handle)
}

/// One plain HTTP/1.1 round trip on a fresh connection.
fn roundtrip(addr: &str, method: &str, path: &str, body: Option<&str>) -> (u16, Value) {
    let (status, _head, payload) = exchange(addr, method, path, body);
    (status, payload)
}

/// [`roundtrip`], also returning the response head.
fn exchange(addr: &str, method: &str, path: &str, body: Option<&str>) -> (u16, String, Value) {
    let mut stream = TcpStream::connect(addr).expect("connect http");
    let body = body.unwrap_or_default();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(request.as_bytes()).expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");

    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let (head, payload) = response.split_once("\r\n\r\n").expect("header/body split");
    let payload: Value = serde_json::from_str(payload.trim()).expect("JSON body");
    (status, head.to_string(), payload)
}

#[test]
fn http_routes_and_status_codes_follow_the_taxonomy() {
    let (tcp_addr, http_addr, handle) = start_daemon();

    // healthz: alive and versioned.
    let (status, body) = roundtrip(&http_addr, "GET", "/v1/healthz", None);
    assert_eq!(status, 200);
    assert_eq!(body["status"].as_str(), Some("ok"));
    assert_eq!(body["proto"].as_str(), Some("parchmint-serve/1"));

    // A good submission: 200 with the full event stream, done last.
    let (status, body) = roundtrip(
        &http_addr,
        "POST",
        "/v1/submit",
        Some(r#"{"benchmark":"logic_gate_or","stages":["validate"]}"#),
    );
    assert_eq!(status, 200, "{body}");
    let events = body["events"].as_array().expect("events array");
    assert_eq!(events.last().unwrap()["event"].as_str(), Some("done"));
    assert_eq!(events[0]["cell"]["status"].as_str(), Some("ok"));

    // Unparseable body → 400 bad_request.
    let (status, body) = roundtrip(&http_addr, "POST", "/v1/submit", Some("not json"));
    assert_eq!(status, 400);
    assert_eq!(body["error"]["kind"].as_str(), Some("bad_request"));

    // Wrong protocol major → 400 unsupported_proto.
    let (status, body) = roundtrip(
        &http_addr,
        "POST",
        "/v1/submit",
        Some(r#"{"proto":"parchmint-serve/9","benchmark":"logic_gate_or"}"#),
    );
    assert_eq!(status, 400);
    assert_eq!(body["error"]["kind"].as_str(), Some("unsupported_proto"));

    // Unknown benchmark → admitted, then refused: 422 with the
    // `invalid_design` error event in the stream.
    let (status, body) = roundtrip(
        &http_addr,
        "POST",
        "/v1/submit",
        Some(r#"{"benchmark":"not_a_benchmark"}"#),
    );
    assert_eq!(status, 422);
    let last = body["events"]
        .as_array()
        .and_then(|e| e.last())
        .expect("events");
    assert_eq!(last["error"]["kind"].as_str(), Some("invalid_design"));

    // Stats: both transports' traffic lands in one counter set.
    let (status, body) = roundtrip(&http_addr, "GET", "/v1/stats", None);
    assert_eq!(status, 200);
    assert_eq!(body["schema"].as_str(), Some("parchmint-serve-stats/v2"));
    assert!(body["requests"]["submitted"].as_u64().unwrap() >= 1);
    assert_eq!(
        body["proto"]["negotiated"].as_str(),
        Some("parchmint-serve/1")
    );

    // Unknown route → 404; unsupported method → 405.
    let (status, _) = roundtrip(&http_addr, "GET", "/v1/nope", None);
    assert_eq!(status, 404);
    let (status, _) = roundtrip(&http_addr, "DELETE", "/v1/stats", None);
    assert_eq!(status, 405);

    // The line protocol sees the HTTP submission's cache entry.
    let mut client = Client::connect(&tcp_addr).expect("connect tcp");
    let stats = client.stats().expect("stats over tcp");
    assert_eq!(stats["cache"]["entries"].as_u64(), Some(1));
    client.shutdown().expect("shutdown ack");
    handle.join().expect("daemon exits");
}

/// The final event of every slot in a batch response, in slot order.
fn batch_finals(body: &Value) -> Vec<Value> {
    body["results"]
        .as_array()
        .expect("results array")
        .iter()
        .map(|slot| {
            slot["events"]
                .as_array()
                .expect("events")
                .last()
                .expect("event")
                .clone()
        })
        .collect()
}

fn counter(stats: &Value, name: &str) -> u64 {
    stats["counters"][name].as_u64().unwrap_or(0)
}

#[test]
fn http_batches_are_admitted_element_by_element_through_the_shared_queue() {
    let (tcp_addr, http_addr, handle) = start_daemon();

    // Results come back in element order; a malformed element fails
    // only its own slot, and the batch answers with its status.
    let batch = r#"[
        {"id":0,"benchmark":"logic_gate_or","stages":["validate"]},
        {"id":1,"benchmark":7},
        {"id":2,"benchmark":"logic_gate_and","stages":["validate"]}
    ]"#;
    let (status, body) = roundtrip(&http_addr, "POST", "/v1/submit", Some(batch));
    assert_eq!(status, 400, "{body}");
    assert_eq!(body["proto"].as_str(), Some("parchmint-serve/1"));
    let finals = batch_finals(&body);
    assert_eq!(finals.len(), 3);
    for (slot, event) in finals.iter().enumerate() {
        assert_eq!(event["id"], Value::from(slot), "slot order: {body}");
    }
    assert_eq!(finals[0]["design"].as_str(), Some("logic_gate_or"));
    assert_eq!(finals[1]["error"]["kind"].as_str(), Some("bad_request"));
    assert_eq!(finals[2]["design"].as_str(), Some("logic_gate_and"));

    // Six identical elements compile once and execute the stage once;
    // the other five replay it.
    let (_, before) = roundtrip(&http_addr, "GET", "/v1/stats", None);
    let element = r#"{"benchmark":"rotary_pump_mixer","stages":["validate"]}"#;
    let batch = format!("[{}]", [element; 6].join(","));
    let (status, body) = roundtrip(&http_addr, "POST", "/v1/submit", Some(&batch));
    assert_eq!(status, 200, "{body}");
    assert!(batch_finals(&body)
        .iter()
        .all(|event| event["event"] == "done"));
    let (_, after) = roundtrip(&http_addr, "GET", "/v1/stats", None);
    let delta = |name: &str| counter(&after, name) - counter(&before, name);
    assert_eq!(delta("serve.compile.executed"), 1);
    assert_eq!(delta("serve.stage.executed"), 1);
    assert_eq!(delta("serve.stage.replayed"), 5);

    let mut client = Client::connect(&tcp_addr).expect("connect tcp");
    client.shutdown().expect("shutdown ack");
    handle.join().expect("daemon exits");

    // One worker and one queue slot: a batch of fuel-bounded elements
    // (never cache hits) overflows the queue, and the overflow comes
    // back `busy` with a retry hint, exactly as for a line submit. Each
    // job generates, compiles and validates a ~192-component design,
    // far longer than admitting the next element takes.
    let config = ServeConfig::builder().workers(1).queue_capacity(1).build();
    let (tcp_addr, http_addr, handle) = start_daemon_with(config);
    let element =
        r#"{"benchmark":"planar_synthetic_5","stages":["validate"],"fuel":1000000000000}"#;
    let batch = format!("[{}]", [element; 8].join(","));
    let (status, head, body) = exchange(&http_addr, "POST", "/v1/submit", Some(&batch));
    let finals = batch_finals(&body);
    assert_eq!(finals.len(), 8);
    let busy = finals
        .iter()
        .filter(|event| event["error"]["kind"] == "busy")
        .inspect(|event| assert!(event["error"]["retry_after_ms"].as_u64().is_some()))
        .count();
    assert!(busy >= 1, "a full queue must refuse some element: {body}");
    let done = finals
        .iter()
        .filter(|event| event["event"] == "done")
        .count();
    assert_eq!(busy + done, 8, "every other slot finishes: {body}");
    assert_eq!(status, 503, "{body}");
    assert!(head.contains("\r\nRetry-After: "), "{head}");

    let mut client = Client::connect(&tcp_addr).expect("connect tcp");
    client.shutdown().expect("shutdown ack");
    handle.join().expect("daemon exits");
}

/// Sends raw bytes on a fresh connection, half-closes, and returns the
/// status code of every response the server produced before closing.
fn raw_statuses(addr: &str, payload: &[u8]) -> Vec<u16> {
    let mut stream = TcpStream::connect(addr).expect("connect http");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("read timeout");
    // The server may refuse and close while the payload is still being
    // written — a broken pipe here is part of the scenario, not a
    // test failure.
    let _ = stream.write_all(payload);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read responses");
    // Responses are not newline-separated (a JSON body runs straight
    // into the next status line), so scan for status-line starts.
    response
        .match_indices("HTTP/1.1 ")
        .map(|(at, _)| {
            response[at..]
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .expect("status code")
        })
        .collect()
}

#[test]
fn malformed_http_is_refused_cleanly_never_hung() {
    let (tcp_addr, http_addr, handle) = start_daemon();

    // An absurd request line: refused at the size cap, not buffered.
    let huge_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(16 << 10));
    assert_eq!(raw_statuses(&http_addr, huge_line.as_bytes()), vec![400]);

    // One oversized header line.
    let huge_header = format!(
        "GET /v1/healthz HTTP/1.1\r\nX-Padding: {}\r\n\r\n",
        "b".repeat(16 << 10)
    );
    assert_eq!(raw_statuses(&http_addr, huge_header.as_bytes()), vec![400]);

    // Unbounded header *count* is as dangerous as header size.
    let mut many_headers = String::from("GET /v1/healthz HTTP/1.1\r\n");
    for i in 0..200 {
        many_headers.push_str(&format!("X-F{i}: v\r\n"));
    }
    many_headers.push_str("\r\n");
    assert_eq!(raw_statuses(&http_addr, many_headers.as_bytes()), vec![400]);

    // A Content-Length that is not a number.
    let bad_length = "POST /v1/submit HTTP/1.1\r\nContent-Length: banana\r\n\r\n";
    assert_eq!(raw_statuses(&http_addr, bad_length.as_bytes()), vec![400]);

    // Two Content-Length headers that disagree — the classic request
    // smuggling vector. Refuse, don't pick one.
    let conflicting =
        "POST /v1/submit HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 9\r\n\r\n{}";
    assert_eq!(raw_statuses(&http_addr, conflicting.as_bytes()), vec![400]);

    // A body shorter than its declared Content-Length, then EOF.
    let truncated = "POST /v1/submit HTTP/1.1\r\nContent-Length: 500\r\n\r\n{\"benchmark\":";
    assert_eq!(raw_statuses(&http_addr, truncated.as_bytes()), vec![400]);

    // Pipelined garbage after a valid request: the good request is
    // answered, the garbage gets a 400, the connection closes — no
    // hang, no smuggled interpretation.
    let pipelined = "GET /v1/healthz HTTP/1.1\r\n\r\nTOTAL GARBAGE\r\nmore garbage\r\n\r\n";
    assert_eq!(
        raw_statuses(&http_addr, pipelined.as_bytes()),
        vec![200, 400]
    );

    // After all of that abuse, the daemon still serves.
    let (status, body) = roundtrip(&http_addr, "GET", "/v1/healthz", None);
    assert_eq!(status, 200);
    assert_eq!(body["status"].as_str(), Some("ok"));

    let mut client = Client::connect(&tcp_addr).expect("connect tcp");
    client.shutdown().expect("shutdown ack");
    handle.join().expect("daemon exits");
}

#[test]
fn http_keep_alive_serves_sequential_requests_on_one_connection() {
    let (tcp_addr, http_addr, handle) = start_daemon();

    let mut stream = TcpStream::connect(&http_addr).expect("connect http");
    for _ in 0..2 {
        stream
            .write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            .expect("write request");
        let mut buffer = [0u8; 4096];
        let mut response = String::new();
        while !response.contains("\r\n\r\n") || !response.contains("\"ok\"") {
            let n = stream.read(&mut buffer).expect("read");
            assert_ne!(n, 0, "connection closed early");
            response.push_str(std::str::from_utf8(&buffer[..n]).expect("utf8"));
        }
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    }
    drop(stream);

    let mut client = Client::connect(&tcp_addr).expect("connect tcp");
    client.shutdown().expect("shutdown ack");
    handle.join().expect("daemon exits");
}

/// Pretty-prints `value` with every object's members in reverse order.
fn pretty_reversed(value: &Value, depth: usize) -> String {
    let indent = "  ".repeat(depth + 1);
    let close = "  ".repeat(depth);
    match value {
        Value::Array(items) if !items.is_empty() => {
            let items: Vec<String> = items
                .iter()
                .map(|item| format!("{indent}{}", pretty_reversed(item, depth + 1)))
                .collect();
            format!("[\n{}\n{close}]", items.join(",\n"))
        }
        Value::Object(members) if !members.is_empty() => {
            let mut members: Vec<String> = members
                .iter()
                .map(|(key, item)| {
                    format!(
                        "{indent}{}: {}",
                        Value::from(key.as_str()),
                        pretty_reversed(item, depth + 1)
                    )
                })
                .collect();
            members.reverse();
            format!("{{\n{}\n{close}}}", members.join(",\n"))
        }
        scalar => scalar.to_string(),
    }
}

#[test]
fn a_design_resubmitted_in_another_layout_is_served_from_the_cache() {
    let (tcp_addr, http_addr, handle) = start_daemon();
    let compact = parchmint_suite::by_name("rotary_pump_mixer")
        .expect("registered benchmark")
        .device()
        .to_json()
        .expect("serializes");
    let value: Value = serde_json::from_str(&compact).expect("parses");
    let shuffled = pretty_reversed(&value, 1);
    assert!(shuffled.contains('\n') && shuffled != compact);
    assert_eq!(serde_json::from_str::<Value>(&shuffled).unwrap(), value);

    let mut replies = Vec::new();
    for design in [&shuffled, &compact] {
        let body = format!("{{\n  \"stages\": [\"validate\"],\n  \"design\": {design}\n}}");
        let (status, reply) = roundtrip(&http_addr, "POST", "/v1/submit", Some(&body));
        assert_eq!(status, 200, "{reply}");
        replies.push(reply["events"].as_array().expect("events").clone());
    }
    let done: Vec<&Value> = replies.iter().map(|events| &events[1]).collect();
    assert_eq!(done[0]["key"], done[1]["key"], "one design, one key");
    assert_eq!(done[0]["key"], Value::from(hex(content_hash(&value))));
    assert_eq!(done[0]["cached"], Value::from(false));
    assert_eq!(done[1]["cached"], Value::from(true));
    assert_eq!(replies[1][0]["cached"], Value::from(true));

    let mut client = Client::connect(&tcp_addr).expect("connect tcp");
    client.shutdown().expect("shutdown ack");
    handle.join().expect("daemon exits");
}
