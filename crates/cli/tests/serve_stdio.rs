//! The default transport of `parchmint serve`: without `--tcp`, the
//! line protocol runs on stdin and stdout.

use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// How long any one read may wait before the test fails instead of
/// hanging.
const WAIT: Duration = Duration::from_secs(60);

#[test]
fn serve_speaks_the_line_protocol_on_stdin_and_stdout() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_parchmint"))
        .args(["serve", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn parchmint serve");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    // Lines arrive over a channel, so that every read can time out.
    let (sender, lines) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            let _ = sender.send(line);
        }
    });
    let mut send = |request: &str| writeln!(stdin, "{request}").expect("write request");
    let next = || -> Value {
        let line = lines.recv_timeout(WAIT).expect("the daemon answers");
        serde_json::from_str(&line).expect("every stdout line is JSON")
    };

    send(r#"{"op":"ping","id":"p"}"#);
    let pong = next();
    assert_eq!(pong["event"], "pong", "{pong}");
    assert_eq!(pong["id"], "p");

    send(r#"{"op":"submit","id":"v","benchmark":"logic_gate_or","stages":["validate"]}"#);
    let cell = next();
    assert_eq!(cell["event"], "cell", "{cell}");
    let done = next();
    assert_eq!(done["event"], "done", "{done}");
    let key = done["key"].as_str().expect("done carries a key");
    assert!(
        key.len() == 16 && key.bytes().all(|b| b.is_ascii_hexdigit()),
        "{key}"
    );

    send("not json");
    let refusal = next();
    assert_eq!(refusal["error"]["kind"], "bad_request", "{refusal}");
    assert_eq!(refusal["id"], Value::Null);

    // The worker counts its request completed before it writes `done`.
    send(r#"{"op":"stats","id":"s"}"#);
    let stats = next()["stats"].clone();
    assert_eq!(stats["requests"]["completed"], 1, "{stats}");
    assert_eq!(stats["requests"]["in_flight"], 0, "{stats}");
    assert_eq!(stats["counters"]["serve.net.bad_requests"], 1, "{stats}");

    // Closing stdin ends the daemon: its stdout closes, and it exits 0.
    drop(stdin);
    let end = lines.recv_timeout(WAIT);
    assert_eq!(end, Err(RecvTimeoutError::Disconnected), "{end:?}");
    assert!(child.wait().expect("wait for the daemon").success());
}
