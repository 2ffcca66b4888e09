//! The processes and sockets the benchmark drives: child processes of
//! its own binary (the daemon, the sweep), the persistent closed-loop
//! TCP and HTTP connections, and the checks every served reply must
//! pass.

use serde_json::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a child may take to exit once asked to.
const EXIT_GRACE: Duration = Duration::from_secs(60);

/// How long any reply may take before the request counts as failed, so a
/// wedged daemon ends the run instead of hanging it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A child process of this binary, killed and reaped if dropped while
/// still running, so no run leaves a process behind.
pub struct Spawned {
    child: Child,
    stdout: BufReader<ChildStdout>,
    stdin: Option<ChildStdin>,
}

impl Spawned {
    /// Starts `parchmint-bench <args>` with piped stdin and stdout.
    pub fn spawn(args: &[&str]) -> Result<Spawned, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start `{}` child: {e}", args[0]))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let stdin = child.stdin.take();
        Ok(Spawned {
            child,
            stdout,
            stdin,
        })
    }

    /// The child's next stdout line, trimmed; an error at end of output.
    pub fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("child exited unexpectedly".to_string()),
            Ok(_) => Ok(line.trim().to_string()),
            Err(e) => Err(format!("cannot read from child: {e}")),
        }
    }

    /// Writes one line to the child's stdin.
    pub fn send_line(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("child stdin is closed")?;
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("cannot write to child: {e}"))
    }

    /// Closes stdin, reads the `peak_rss_bytes` line the child prints
    /// last, and waits for a clean exit.
    pub fn finish(mut self) -> Result<u64, String> {
        self.stdin = None;
        let mut rss = None;
        while let Ok(line) = self.read_line() {
            if let Some(bytes) = line.strip_prefix("peak_rss_bytes ") {
                rss = bytes.parse::<u64>().ok();
            }
        }
        let started = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("child exited with {status}")),
                Ok(None) if started.elapsed() < EXIT_GRACE => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Ok(None) => return Err("child did not exit in time".to_string()),
                Err(e) => return Err(format!("cannot wait for child: {e}")),
            }
        }
        rss.ok_or_else(|| "child reported no peak RSS".to_string())
    }
}

impl Drop for Spawned {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A running daemon child: `parchmint serve --workers 2 --cache-dir DIR
/// --tcp 127.0.0.1:0 --http 127.0.0.1:0`, run through
/// `parchmint_serve::run` with the same configuration.
pub struct Daemon {
    child: Spawned,
    /// The bound line-protocol address.
    pub tcp: String,
    /// The bound HTTP address.
    pub http: String,
}

impl Daemon {
    /// Starts a daemon over `cache_dir` and waits for both addresses.
    pub fn spawn(cache_dir: &Path) -> Result<Daemon, String> {
        let dir = cache_dir.to_str().ok_or("cache dir is not UTF-8")?;
        let mut child = Spawned::spawn(&["daemon", "--cache-dir", dir])?;
        let (mut tcp, mut http) = (None, None);
        while tcp.is_none() || http.is_none() {
            let line = child.read_line()?;
            if let Some(addr) = line.strip_prefix("http listening on ") {
                http = Some(addr.to_string());
            } else if let Some(addr) = line.strip_prefix("listening on ") {
                tcp = Some(addr.to_string());
            }
        }
        Ok(Daemon {
            child,
            tcp: tcp.expect("read above"),
            http: http.expect("read above"),
        })
    }

    /// The daemon's `stats` snapshot, over a connection of its own.
    pub fn stats(&self) -> Result<Value, String> {
        let event = self.control("{\"op\":\"stats\",\"id\":\"stats\"}")?;
        event
            .get("stats")
            .cloned()
            .ok_or_else(|| format!("unexpected stats reply {event:?}"))
    }

    /// Shuts the daemon down and returns its peak resident set size in
    /// bytes (its `VmHWM`).
    pub fn shutdown(self) -> Result<u64, String> {
        self.control("{\"op\":\"shutdown\",\"id\":\"bye\"}")?;
        self.child.finish()
    }

    fn control(&self, line: &str) -> Result<Value, String> {
        let mut stream = TcpStream::connect(&self.tcp).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("read timeout: {e}"))?;
        writeln!(stream, "{line}").map_err(|e| format!("control write: {e}"))?;
        let mut reply = String::new();
        BufReader::new(stream)
            .read_line(&mut reply)
            .map_err(|e| format!("control read: {e}"))?;
        serde_json::from_str(&reply).map_err(|e| format!("bad control reply: {e}"))
    }
}

/// Which front end a connection talks to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// The line-delimited JSON protocol.
    Tcp,
    /// HTTP/1.1 `POST /v1/submit` with keep-alive.
    Http,
}

impl Transport {
    /// Lowercase label.
    pub fn name(self) -> &'static str {
        match self {
            Transport::Tcp => "tcp",
            Transport::Http => "http",
        }
    }
}

/// One persistent client connection. Closed loop: `submit` sends one
/// request and returns only once its final event (or HTTP response)
/// has arrived.
pub struct Conn {
    transport: Transport,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects to `daemon` over `transport`.
    pub fn open(daemon: &Daemon, transport: Transport) -> Result<Conn, String> {
        let addr = match transport {
            Transport::Tcp => &daemon.tcp,
            Transport::Http => &daemon.http,
        };
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // Each request leaves in one write; never let the client's own
        // Nagle timer sit on its tail.
        writer
            .set_nodelay(true)
            .and_then(|()| writer.set_read_timeout(Some(REPLY_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn {
            transport,
            writer,
            reader,
        })
    }

    /// The connection's transport.
    pub fn transport(&self) -> Transport {
        self.transport
    }

    /// The bytes of a submit of `doc` under `id` on this transport.
    pub fn request(&self, doc: &crate::inputs::Doc, id: u64) -> Vec<u8> {
        match self.transport {
            Transport::Tcp => doc.tcp_line(id).into_bytes(),
            Transport::Http => {
                let body = doc.http_body(id);
                let mut bytes = format!(
                    "POST /v1/submit HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                )
                .into_bytes();
                bytes.extend_from_slice(body.as_bytes());
                bytes
            }
        }
    }

    /// Sends a prepared request and collects every event that answers
    /// it, in order.
    pub fn submit(&mut self, request: &[u8], id: u64) -> Result<Vec<Value>, String> {
        self.writer
            .write_all(request)
            .map_err(|e| format!("send: {e}"))?;
        match self.transport {
            Transport::Tcp => self.read_events(id),
            Transport::Http => self.read_response(),
        }
    }

    fn read_events(&mut self, id: u64) -> Result<Vec<Value>, String> {
        let mut events = Vec::new();
        let mut line = String::new();
        loop {
            line.clear();
            match self.reader.read_line(&mut line) {
                Ok(0) => return Err("connection closed mid-reply".to_string()),
                Ok(_) => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
            let event: Value =
                serde_json::from_str(&line).map_err(|e| format!("bad event line: {e}"))?;
            let ours = event["id"].as_u64() == Some(id);
            let kind = event["event"].as_str().unwrap_or_default().to_string();
            if ours || kind == "error" {
                events.push(event);
            }
            if (ours && kind == "done") || kind == "error" {
                return Ok(events);
            }
        }
    }

    fn read_response(&mut self) -> Result<Vec<Value>, String> {
        let mut line = String::new();
        let mut length = None;
        let mut first = true;
        loop {
            line.clear();
            match self.reader.read_line(&mut line) {
                Ok(0) => return Err("connection closed mid-response".to_string()),
                Ok(_) => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
            let header = line.trim_end();
            if first {
                if !header.starts_with("HTTP/1.1 ") {
                    return Err(format!("bad status line `{header}`"));
                }
                first = false;
            } else if header.is_empty() {
                break;
            } else if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or("response without Content-Length")?;
        let mut body = vec![0u8; length];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| format!("receive body: {e}"))?;
        let body: Value =
            serde_json::from_slice(&body).map_err(|e| format!("bad response body: {e}"))?;
        match body.get("events").and_then(Value::as_array) {
            Some(events) => Ok(events.clone()),
            // Refusals come back as a bare error event.
            None => Ok(vec![body]),
        }
    }
}

/// Why a request did not count as a clean completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The request failed: an `error` event (including `busy`), an
    /// `error`/`failed` cell, or an I/O error.
    Failed(String),
    /// The reply was wrong: a short cell count or a broken invariant.
    Incorrect(String),
}

/// A served request that ended in `done` with every cell present.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The design name from `done`.
    pub design: String,
    /// The cache key from `done`.
    pub key: String,
    /// The `cell` objects in order (timings live outside them).
    pub cells: Vec<Value>,
    /// Per-stage execution wall time in milliseconds, in order.
    pub walls: Vec<f64>,
    /// Whether the compile and every cell came from the cache.
    pub cached: bool,
}

/// Largest flow-conservation residual a served flow cell may report.
pub const MAX_CONSERVATION_ERROR: f64 = 1e-9;

/// Checks one request's events: it must end in `done` with exactly
/// `expected_cells` cells, no cell may be `error` or `failed`, and every
/// flow cell must conserve flow to within [`MAX_CONSERVATION_ERROR`].
pub fn check_reply(events: &[Value], expected_cells: usize) -> Result<Reply, Failure> {
    let last = events
        .last()
        .ok_or_else(|| Failure::Failed("empty reply".to_string()))?;
    match last["event"].as_str() {
        Some("done") => {}
        Some("error") => {
            return Err(Failure::Failed(format!(
                "{}: {}",
                last["error"]["kind"].as_str().unwrap_or("?"),
                last["error"]["message"].as_str().unwrap_or("?")
            )))
        }
        other => return Err(Failure::Failed(format!("reply ended in {other:?}"))),
    }
    let cell_events: Vec<&Value> = events
        .iter()
        .filter(|e| e["event"].as_str() == Some("cell"))
        .collect();
    if cell_events.len() != expected_cells || last["cells"].as_u64() != Some(expected_cells as u64)
    {
        return Err(Failure::Incorrect(format!(
            "expected {expected_cells} cells, got {} (done says {})",
            cell_events.len(),
            last["cells"]
        )));
    }
    check_cells(cell_events.iter().map(|e| &e["cell"]))?;
    Ok(Reply {
        design: last["design"].as_str().unwrap_or_default().to_string(),
        key: last["key"].as_str().unwrap_or_default().to_string(),
        cells: cell_events.iter().map(|e| e["cell"].clone()).collect(),
        walls: cell_events
            .iter()
            .map(|e| e["wall_ms"].as_f64().unwrap_or(0.0))
            .collect(),
        cached: last["cached"].as_bool() == Some(true)
            && cell_events
                .iter()
                .all(|e| e["cached"].as_bool() == Some(true)),
    })
}

/// The per-cell rules shared by served replies and sweep reports.
pub fn check_cells<'a>(cells: impl Iterator<Item = &'a Value>) -> Result<(), Failure> {
    for cell in cells {
        let stage = cell["stage"].as_str().unwrap_or("?");
        match cell["status"].as_str() {
            Some("error") | Some("failed") => {
                return Err(Failure::Failed(format!(
                    "{} {stage}: {}",
                    cell["benchmark"].as_str().unwrap_or("?"),
                    cell["detail"].as_str().unwrap_or("no detail")
                )))
            }
            Some(_) => {}
            None => return Err(Failure::Incorrect(format!("{stage} cell has no status"))),
        }
        if stage == "flow" {
            if let Some(error) = cell["metrics"]["max_conservation_error"].as_f64() {
                if error.is_nan() || error > MAX_CONSERVATION_ERROR {
                    return Err(Failure::Incorrect(format!(
                        "{} flow conservation error {error:e} > {MAX_CONSERVATION_ERROR:e}",
                        cell["benchmark"].as_str().unwrap_or("?")
                    )));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(stage: &str, status: &str, extra: &str) -> String {
        format!(
            r#"{{"event":"cell","id":1,"wall_ms":2.5,"cached":false,"cell":{{"benchmark":"d","stage":"{stage}","status":"{status}"{extra}}}}}"#
        )
    }

    fn events(lines: &[String]) -> Vec<Value> {
        lines
            .iter()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect()
    }

    const DONE: &str =
        r#"{"event":"done","id":1,"design":"d","key":"ab","cached":false,"cells":2}"#;

    #[test]
    fn complete_replies_pass() {
        let reply = check_reply(
            &events(&[
                cell("validate", "ok", ""),
                cell(
                    "flow",
                    "ok",
                    r#","metrics":{"max_conservation_error":1e-12}"#,
                ),
                DONE.to_string(),
            ]),
            2,
        )
        .unwrap();
        assert_eq!(reply.key, "ab");
        assert_eq!(reply.walls, vec![2.5, 2.5]);
        assert!(!reply.cached);
    }

    #[test]
    fn broken_replies_are_classified() {
        let short = check_reply(&events(&[cell("validate", "ok", ""), DONE.to_string()]), 2);
        assert!(matches!(short, Err(Failure::Incorrect(_))));
        let leaky = check_reply(
            &events(&[
                cell("validate", "ok", ""),
                cell(
                    "flow",
                    "ok",
                    r#","metrics":{"max_conservation_error":1e-6}"#,
                ),
                DONE.to_string(),
            ]),
            2,
        );
        assert!(matches!(leaky, Err(Failure::Incorrect(_))));
        let failed = check_reply(
            &events(&[
                cell("validate", "ok", ""),
                cell("flow", "error", ""),
                DONE.to_string(),
            ]),
            2,
        );
        assert!(matches!(failed, Err(Failure::Failed(_))));
        let busy = check_reply(
            &events(&[
                r#"{"event":"error","id":1,"error":{"kind":"busy","message":"full"}}"#.to_string(),
            ]),
            2,
        );
        assert_eq!(busy.unwrap_err(), Failure::Failed("busy: full".to_string()));
    }
}
