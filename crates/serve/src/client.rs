//! A pipelining, fault-tolerant TCP client: submit designs, reassemble
//! a [`SuiteReport`] from the streamed events, survive a hostile wire.
//!
//! The client keeps a bounded *window* of submissions in flight on one
//! connection — enough to exercise the daemon's worker pool and
//! admission queue concurrently — and demultiplexes the interleaved
//! `cell`/`done`/`error` events by their echoed ids. A `busy` refusal
//! re-queues that submission for the next window slot after waiting
//! out the daemon's deterministic `retry_after_ms` hint, so the client
//! cooperates with backpressure instead of stampeding.
//!
//! Faults are typed, not stringly: every operation returns
//! [`ClientError`], so retry logic branches on kind (`Closed` vs a
//! fatal `Taxonomy` refusal) instead of substring matching. Connects
//! and reads run under configurable deadlines ([`ClientConfig`]), and
//! reconnect pauses come from a seeded decorrelated-jitter
//! [`Backoff`], deterministic for a fixed seed.
//!
//! When the wire fails mid-batch — torn connection, timeout, garbage
//! that desynchronized the stream — [`Client::submit_designs`]
//! reconnects and resumes **idempotently**: a design's cells are only
//! committed when its `done` arrives, so partial results from a dead
//! connection are discarded and only unacknowledged designs are
//! resubmitted. The replay is safe and cheap because the daemon's
//! content-hash cache and single-flight tables coalesce it onto at
//! most one compile; the reassembled report is byte-identical to an
//! undisturbed run.
//!
//! [`submit_suite`] reproduces the harness's matrix semantics on top
//! of that: registry benchmarks are serialized and submitted as inline
//! ParchMint JSON, unknown benchmark/stage selectors become the same
//! `failed` marker cells `suite-run` emits, the daemon's cells must be
//! exactly one per requested benchmark × stage, and the merged report is
//! sorted with [`SuiteReport::sort_cells`] — so a full-suite
//! submission, stripped of timings, is byte-identical to a local
//! `suite-run` report.

use crate::{chaos, protocol};
use parchmint_harness::{check_matrix, read_outcome, resolve_matrix, Cell, SuiteReport};
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Default submission window (requests in flight at once).
pub const DEFAULT_WINDOW: usize = 16;

/// Why a client operation failed.
#[derive(Debug)]
pub enum ClientError {
    /// A socket-level failure (connect, read, write, or timeout).
    Io(io::Error),
    /// The daemon closed the connection.
    Closed,
    /// The wire desynchronized: an unparseable event, or an event for
    /// an id this client never submitted.
    Protocol(String),
    /// A refusal from the closed error taxonomy — deterministic, so
    /// retrying the same request cannot help.
    Taxonomy {
        /// The taxonomy kind (`bad_request`, `invalid_design`, …).
        kind: String,
        /// The daemon's human-readable detail.
        message: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(error) => write!(f, "io: {error}"),
            ClientError::Closed => write!(f, "daemon closed the connection"),
            ClientError::Protocol(detail) => write!(f, "protocol: {detail}"),
            ClientError::Taxonomy { kind, message } => write!(f, "refused ({kind}): {message}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(error) => Some(error),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(error: io::Error) -> ClientError {
        ClientError::Io(error)
    }
}

/// Deadlines and retry policy for one [`Client`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    connect_timeout: Duration,
    read_timeout: Duration,
    write_timeout: Duration,
    backoff_base: Duration,
    backoff_cap: Duration,
    backoff_seed: u64,
    max_reconnects: u32,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            // Generous: the longest legitimate silence is one cold
            // heavyweight stage, not a network round trip.
            read_timeout: Duration::from_secs(120),
            write_timeout: Duration::from_secs(30),
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(1),
            backoff_seed: 0x5eed,
            max_reconnects: 8,
        }
    }
}

impl ClientConfig {
    /// Sets the connect deadline.
    pub fn with_connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = timeout;
        self
    }

    /// Sets the per-read deadline (zero disables it).
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Sets the backoff's base (minimum) and cap (maximum) pause.
    pub fn with_backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// Seeds the backoff jitter (same seed, same pause sequence).
    pub fn with_backoff_seed(mut self, seed: u64) -> Self {
        self.backoff_seed = seed;
        self
    }

    /// Caps consecutive reconnect attempts without forward progress.
    pub fn with_max_reconnects(mut self, max: u32) -> Self {
        self.max_reconnects = max;
        self
    }
}

/// Seeded exponential backoff with decorrelated jitter: each pause is
/// drawn uniformly from `[base, prev * 3]`, capped. Decorrelation
/// spreads a fleet of retrying clients apart; seeding keeps any one
/// client's pause sequence reproducible.
#[derive(Debug)]
pub struct Backoff {
    base_ms: u64,
    cap_ms: u64,
    prev_ms: u64,
    state: u64,
}

impl Backoff {
    /// A backoff pausing between `base` and `cap`, jittered by `seed`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        let base_ms = (base.as_millis() as u64).max(1);
        Backoff {
            base_ms,
            cap_ms: (cap.as_millis() as u64).max(base_ms),
            prev_ms: base_ms,
            state: chaos::scramble(seed),
        }
    }

    /// The next pause in the sequence.
    pub fn next_delay(&mut self) -> Duration {
        let ceiling = self
            .prev_ms
            .saturating_mul(3)
            .clamp(self.base_ms + 1, self.cap_ms.max(self.base_ms + 1));
        let span = ceiling - self.base_ms;
        let ms = self.base_ms + chaos::xorshift(&mut self.state) % span.max(1);
        self.prev_ms = ms;
        Duration::from_millis(ms)
    }

    /// Resets the sequence to the base pause (after forward progress).
    pub fn reset(&mut self) {
        self.prev_ms = self.base_ms;
    }
}

/// One live connection: buffered reader plus write half.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A client for one daemon address, reconnecting under the hood.
pub struct Client {
    addr: String,
    config: ClientConfig,
    conn: Option<Conn>,
}

/// The merged outcome of a batch submission.
pub struct Submission {
    /// All cells, in arrival order (callers sort via a report).
    pub cells: Vec<Cell>,
    /// Per-design compile wall times reported by the daemon, for
    /// designs whose compile actually ran on this submission.
    pub compile_walls: Vec<(String, Duration)>,
    /// Cells served from the daemon's artifact cache.
    pub cached_cells: usize,
    /// Designs whose compile was shared from the cache.
    pub cached_compiles: usize,
    /// `busy` refusals that were retried.
    pub busy_retries: usize,
    /// Wire faults survived by reconnecting.
    pub reconnects: usize,
    /// Designs resubmitted after a reconnect discarded their partial
    /// event streams.
    pub resumed_designs: usize,
    /// End-to-end wall time of the batch.
    pub wall: Duration,
}

/// A suite submission: the reassembled report plus cache/backpressure
/// observations.
pub struct SuiteSubmission {
    /// The merged report, sorted exactly like a local `suite-run`.
    pub report: SuiteReport,
    /// Cells served from the daemon's artifact cache.
    pub cached_cells: usize,
    /// Designs whose compile was shared from the cache.
    pub cached_compiles: usize,
    /// `busy` refusals that were retried.
    pub busy_retries: usize,
    /// Wire faults survived by reconnecting.
    pub reconnects: usize,
    /// Designs resubmitted after a reconnect.
    pub resumed_designs: usize,
}

/// Mid-batch bookkeeping for [`Client::submit_designs`]: which designs
/// are pending/in flight, their uncommitted cells, and the fault
/// budget.
struct BatchState {
    /// Design indices not yet submitted (a stack; pop order preserves
    /// the original submission order).
    pending: Vec<usize>,
    /// Design indices awaiting their `done` on the current connection.
    in_flight: Vec<usize>,
    /// Uncommitted per-design results, keyed by design index.
    buffered: BTreeMap<usize, PendingDesign>,
    /// Consecutive faults without a committed `done`.
    fault_streak: u32,
    backoff: Backoff,
    submission: Submission,
}

#[derive(Default)]
struct PendingDesign {
    cells: Vec<Cell>,
    cached_cells: usize,
}

impl Client {
    /// Connects to a daemon at `addr` (`host:port`) with defaults.
    pub fn connect(addr: &str) -> io::Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit deadlines and retry policy.
    pub fn connect_with(addr: &str, config: ClientConfig) -> io::Result<Client> {
        let conn = Client::dial(addr, &config)?;
        Ok(Client {
            addr: addr.to_string(),
            config,
            conn: Some(conn),
        })
    }

    /// Opens one connection under the configured deadlines.
    fn dial(addr: &str, config: &ClientConfig) -> io::Result<Conn> {
        let mut last = None;
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, config.connect_timeout) {
                Ok(stream) => {
                    let read_timeout =
                        (!config.read_timeout.is_zero()).then_some(config.read_timeout);
                    let write_timeout =
                        (!config.write_timeout.is_zero()).then_some(config.write_timeout);
                    stream.set_read_timeout(read_timeout)?;
                    stream.set_write_timeout(write_timeout)?;
                    let writer = stream.try_clone()?;
                    return Ok(Conn {
                        reader: BufReader::new(stream),
                        writer,
                    });
                }
                Err(error) => last = Some(error),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::AddrNotAvailable, "address did not resolve")
        }))
    }

    /// The live connection, dialing if the previous one was dropped.
    fn conn(&mut self) -> Result<&mut Conn, ClientError> {
        if self.conn.is_none() {
            self.conn = Some(Client::dial(&self.addr, &self.config)?);
        }
        Ok(self.conn.as_mut().expect("connection was just dialed"))
    }

    fn send(&mut self, request: &Value) -> Result<(), ClientError> {
        let conn = self.conn()?;
        let line = protocol::to_line(request);
        let result = conn
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| conn.writer.flush());
        if let Err(error) = result {
            self.conn = None;
            return Err(ClientError::Io(error));
        }
        Ok(())
    }

    fn read_event(&mut self) -> Result<Value, ClientError> {
        let conn = self.conn()?;
        let mut line = String::new();
        loop {
            line.clear();
            let n = match conn.reader.read_line(&mut line) {
                Ok(n) => n,
                Err(error) => {
                    self.conn = None;
                    return Err(ClientError::Io(error));
                }
            };
            if n == 0 {
                self.conn = None;
                return Err(ClientError::Closed);
            }
            if line.trim().is_empty() {
                continue;
            }
            return serde_json::from_str(line.trim())
                .map_err(|error| ClientError::Protocol(format!("unparseable event: {error}")));
        }
    }

    /// Round-trips a `ping`.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send(&request("ping", Value::from("ping")))?;
        let event = self.read_event()?;
        match event["event"].as_str() {
            Some("pong") => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "expected pong, got {other:?}"
            ))),
        }
    }

    /// Fetches the daemon's counter snapshot.
    pub fn stats(&mut self) -> Result<Value, ClientError> {
        self.send(&request("stats", Value::from("stats")))?;
        let event = self.read_event()?;
        match event["event"].as_str() {
            Some("stats") => Ok(event["stats"].clone()),
            Some("error") => Err(taxonomy_error(&event)),
            other => Err(ClientError::Protocol(format!(
                "expected stats, got {other:?}"
            ))),
        }
    }

    /// Asks the daemon to drain and exit; returns once acknowledged.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.send(&request("shutdown", Value::Null))?;
        let event = self.read_event()?;
        match event["event"].as_str() {
            Some("shutting_down") => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "expected shutting_down, got {other:?}"
            ))),
        }
    }

    /// Drops the connection, re-queues every unacknowledged design
    /// (discarding its partial cells), and waits out a backoff pause.
    /// Errors out when the consecutive-fault budget is spent.
    fn fail_over(&mut self, state: &mut BatchState, error: ClientError) -> Result<(), ClientError> {
        self.conn = None;
        state.fault_streak += 1;
        if state.fault_streak > self.config.max_reconnects {
            return Err(error);
        }
        for index in std::mem::take(&mut state.in_flight) {
            state.buffered.remove(&index);
            state.submission.resumed_designs += 1;
            state.pending.push(index);
        }
        // Restore original submission order for the re-queued tail:
        // pending is a stack, so higher indices must sit deeper.
        state.pending.sort_unstable_by(|a, b| b.cmp(a));
        state.submission.reconnects += 1;
        std::thread::sleep(state.backoff.next_delay());
        Ok(())
    }

    /// Submits `designs` (inline ParchMint JSON documents), keeping up
    /// to `window` requests in flight, and merges the streamed events.
    ///
    /// Wire faults — torn connections, timeouts, desynchronized
    /// streams — are survived by reconnecting and resubmitting only
    /// the unacknowledged designs (see module docs). A non-`busy`
    /// error event for a known design fails the whole batch: those
    /// refusals are deterministic, and partial suite reports are worse
    /// than loud failures.
    pub fn submit_designs(
        &mut self,
        designs: &[Value],
        stage_names: Option<&[String]>,
        window: usize,
    ) -> Result<Submission, ClientError> {
        let started = Instant::now();
        let window = window.max(1);
        let mut pending: Vec<usize> = (0..designs.len()).collect();
        pending.reverse(); // pop() takes from the front of the original order
        let mut state = BatchState {
            pending,
            in_flight: Vec::new(),
            buffered: BTreeMap::new(),
            fault_streak: 0,
            backoff: Backoff::new(
                self.config.backoff_base,
                self.config.backoff_cap,
                self.config.backoff_seed,
            ),
            submission: Submission {
                cells: Vec::new(),
                compile_walls: Vec::new(),
                cached_cells: 0,
                cached_compiles: 0,
                busy_retries: 0,
                reconnects: 0,
                resumed_designs: 0,
                wall: Duration::ZERO,
            },
        };
        let mut done = 0usize;

        while done < designs.len() {
            // Fill the window.
            let mut send_fault = None;
            while state.in_flight.len() < window {
                let Some(&index) = state.pending.last() else {
                    break;
                };
                match self.send(&submit_request(index, &designs[index], stage_names)) {
                    Ok(()) => {
                        state.pending.pop();
                        state.in_flight.push(index);
                        state.buffered.insert(index, PendingDesign::default());
                    }
                    Err(error) => {
                        send_fault = Some(error);
                        break;
                    }
                }
            }
            if let Some(error) = send_fault {
                self.fail_over(&mut state, error)?;
                continue;
            }
            let event = match self.read_event() {
                Ok(event) => event,
                Err(error) => {
                    self.fail_over(&mut state, error)?;
                    continue;
                }
            };
            let index = event["id"].as_str().and_then(parse_id);
            let Some(index) = index.filter(|index| state.buffered.contains_key(index)) else {
                // A null or unknown id: the stream desynchronized (a
                // garbage-corrupted frame is answered with an id-less
                // error). Resync by reconnecting and resuming.
                let anomaly = ClientError::Protocol(format!("event with unknown id: {event}"));
                self.fail_over(&mut state, anomaly)?;
                continue;
            };
            match event["event"].as_str() {
                Some("cell") => {
                    let parsed = parse_cell(&event)?;
                    let design = state.buffered.get_mut(&index).expect("design is buffered");
                    if event["cached"].as_bool() == Some(true) {
                        design.cached_cells += 1;
                    }
                    design.cells.push(parsed);
                }
                Some("done") => {
                    // The commit point: only now do this design's
                    // results enter the submission.
                    let design = state.buffered.remove(&index).expect("design is buffered");
                    state.in_flight.retain(|&i| i != index);
                    state.submission.cells.extend(design.cells);
                    state.submission.cached_cells += design.cached_cells;
                    done += 1;
                    state.fault_streak = 0;
                    state.backoff.reset();
                    if event["cached"].as_bool() == Some(true) {
                        state.submission.cached_compiles += 1;
                    } else if let Some(ms) = event["compile_ms"].as_f64() {
                        let design = event["design"].as_str().unwrap_or_default().to_string();
                        state
                            .submission
                            .compile_walls
                            .push((design, Duration::from_secs_f64(ms / 1e3)));
                    }
                }
                Some("error") => {
                    state.buffered.remove(&index);
                    state.in_flight.retain(|&i| i != index);
                    if event["error"]["kind"].as_str() == Some("busy") {
                        // Cooperate with shedding: honor the daemon's
                        // deterministic hint, then resubmit in a later
                        // window slot.
                        state.submission.busy_retries += 1;
                        let pause = event["error"]["retry_after_ms"]
                            .as_u64()
                            .map(Duration::from_millis)
                            .unwrap_or(Duration::from_millis(5));
                        std::thread::sleep(pause);
                        state.pending.push(index);
                    } else {
                        return Err(taxonomy_error(&event));
                    }
                }
                other => {
                    let anomaly = ClientError::Protocol(format!("unexpected event {other:?}"));
                    self.fail_over(&mut state, anomaly)?;
                }
            }
        }
        state.submission.wall = started.elapsed();
        Ok(state.submission)
    }
}

/// Maps an `error` event to its [`ClientError::Taxonomy`] refusal.
fn taxonomy_error(event: &Value) -> ClientError {
    let kind = event["error"]["kind"].as_str().unwrap_or_default();
    ClientError::Taxonomy {
        kind: kind.to_string(),
        message: event["error"]["message"]
            .as_str()
            .unwrap_or_default()
            .to_string(),
    }
}

/// Submits benchmarks through a daemon and reassembles the same report
/// `run_suite` would produce locally (see module docs). Fails with
/// [`ClientError::Protocol`] unless the daemon's cells are exactly one per
/// resolved benchmark × stage.
pub fn submit_suite(
    client: &mut Client,
    benchmarks: Option<&[String]>,
    stage_selectors: Option<&[String]>,
    window: usize,
) -> Result<SuiteSubmission, ClientError> {
    let matrix = resolve_matrix(benchmarks, stage_selectors);
    let stage_names: Vec<String> = matrix.stages.iter().map(|s| s.name.clone()).collect();

    let mut designs = Vec::with_capacity(matrix.benchmarks.len());
    for benchmark in &matrix.benchmarks {
        let json = benchmark
            .device()
            .to_json()
            .map_err(|e| ClientError::Protocol(format!("serializing {}: {e}", benchmark.name())))?;
        let doc: Value = serde_json::from_str(&json)
            .map_err(|e| ClientError::Protocol(format!("reparsing {}: {e}", benchmark.name())))?;
        designs.push(doc);
    }

    // Only resolved stage names go on the wire; unknown selectors become
    // the same `failed` marker cells the local harness emits (they ride
    // along in `matrix.bad_cells`).
    let wire_stages = stage_selectors.map(|_| stage_names.as_slice());
    let submission = client.submit_designs(&designs, wire_stages, window)?;
    let names: Vec<&str> = matrix.benchmarks.iter().map(|b| b.name()).collect();
    check_matrix(&submission.cells, &names, &stage_names)
        .map_err(|why| ClientError::Protocol(format!("the daemon's cells: {why}")))?;

    let mut cells = submission.cells;
    cells.extend(matrix.bad_cells);

    let mut compile_walls = submission.compile_walls;
    compile_walls.sort_by(|a, b| a.0.cmp(&b.0));
    let mut report = SuiteReport {
        cells,
        stages: stage_names,
        threads: 0,
        total_wall: submission.wall,
        compile_walls,
        compile_traces: Vec::new(),
    };
    report.sort_cells();
    Ok(SuiteSubmission {
        report,
        cached_cells: submission.cached_cells,
        cached_compiles: submission.cached_compiles,
        busy_retries: submission.busy_retries,
        reconnects: submission.reconnects,
        resumed_designs: submission.resumed_designs,
    })
}

fn request(op: &str, id: Value) -> Value {
    let mut object = Map::new();
    object.insert("op".to_string(), Value::from(op));
    object.insert("proto".to_string(), Value::from(protocol::PROTO));
    if id != Value::Null {
        object.insert("id".to_string(), id);
    }
    Value::Object(object)
}

fn submit_request(index: usize, design: &Value, stage_names: Option<&[String]>) -> Value {
    let mut object = Map::new();
    object.insert("op".to_string(), Value::from("submit"));
    object.insert("proto".to_string(), Value::from(protocol::PROTO));
    object.insert("id".to_string(), Value::from(format!("d{index}")));
    object.insert("design".to_string(), design.clone());
    if let Some(names) = stage_names {
        let names: Vec<Value> = names.iter().map(|n| Value::from(n.as_str())).collect();
        object.insert("stages".to_string(), Value::Array(names));
    }
    Value::Object(object)
}

fn parse_id(id: &str) -> Option<usize> {
    id.strip_prefix('d')?.parse().ok()
}

/// Reads a `cell` event's cell; its outcome members are held to the
/// rules [`read_outcome`] applies to a spill file.
fn parse_cell(event: &Value) -> Result<Cell, ClientError> {
    let bad = |why: String| ClientError::Protocol(format!("bad cell event ({why}): {event}"));
    let cell = &event["cell"];
    let outcome = cell.as_object().ok_or_else(|| bad("no cell".into()))?;
    let exec = read_outcome(outcome).map_err(bad)?;
    let name = |member: &str| {
        (cell[member].as_str()).ok_or_else(|| bad(format!("`{member}` is not a string")))
    };
    let wall_ms = event["wall_ms"].as_f64().unwrap_or(0.0);
    Ok(Cell::new(
        name("benchmark")?,
        name("stage")?,
        exec,
        Duration::from_secs_f64(wall_ms.max(0.0) / 1e3),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_seeded_bounded_and_decorrelated() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(200);
        let mut a = Backoff::new(base, cap, 42);
        let mut b = Backoff::new(base, cap, 42);
        let mut c = Backoff::new(base, cap, 43);
        let seq_a: Vec<Duration> = (0..16).map(|_| a.next_delay()).collect();
        let seq_b: Vec<Duration> = (0..16).map(|_| b.next_delay()).collect();
        let seq_c: Vec<Duration> = (0..16).map(|_| c.next_delay()).collect();
        assert_eq!(seq_a, seq_b, "same seed, same pause sequence");
        let pinned = [26, 60, 160, 173, 150, 140, 179, 174].map(Duration::from_millis);
        assert_eq!(seq_a[..8], pinned, "the seeded sequence is stable");
        assert_ne!(seq_a, seq_c, "different seed decorrelates");
        for pause in &seq_a {
            assert!(*pause >= base && *pause <= cap, "{pause:?} out of bounds");
        }
        a.reset();
        assert!(
            a.next_delay() <= Duration::from_millis(30),
            "reset returns to base"
        );
    }

    #[test]
    fn malformed_cell_members_desynchronize_the_stream() {
        // The same outcome rules a spill file is held to: a member of
        // the wrong type is a protocol fault, never silently dropped.
        let event = |cell: &str| -> Value {
            let line = format!(r#"{{"event":"cell","id":"d0","cell":{cell},"wall_ms":1.5}}"#);
            serde_json::from_str(&line).unwrap()
        };
        let good = parse_cell(&event(
            r#"{"benchmark":"b","stage":"s","status":"ok","detail":"d","metrics":{"m":1}}"#,
        ))
        .expect("a well-formed cell parses");
        assert_eq!((good.benchmark.as_str(), good.stage.as_str()), ("b", "s"));
        assert_eq!(good.detail.as_deref(), Some("d"));
        assert_eq!(good.metrics["m"], Value::from(1));
        for cell in [
            r#"{"benchmark":"b","stage":"s","status":"ok","detail":7}"#,
            r#"{"benchmark":"b","stage":"s","status":"ok","metrics":[1]}"#,
            r#"{"benchmark":"b","stage":"s","status":"fine"}"#,
            r#"{"benchmark":"b","stage":"s"}"#,
            r#"{"stage":"s","status":"ok"}"#,
            r#"{"benchmark":"b","stage":7,"status":"ok"}"#,
            r#""ok""#,
        ] {
            let error = parse_cell(&event(cell)).err();
            assert!(
                matches!(error, Some(ClientError::Protocol(_))),
                "{cell}: {error:?}"
            );
        }
    }

    /// Submits `logic_gate_or --stages validate` to a stand-in daemon
    /// that answers the submission with `cells` and a `done`.
    fn submit_to_stand_in(cells: &[&str]) -> Result<SuiteSubmission, ClientError> {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        let cells: Vec<String> = cells.iter().map(|cell| cell.to_string()).collect();
        let stand_in = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone");
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line).expect("read");
            let id = serde_json::from_str::<Value>(&line).expect("a request")["id"].clone();
            for cell in &cells {
                writeln!(writer, r#"{{"event":"cell","id":{id},"cell":{cell}}}"#).unwrap();
            }
            writeln!(writer, r#"{{"event":"done","id":{id}}}"#).unwrap();
        });
        let mut client = Client::connect(&addr).expect("connect");
        let names = ["logic_gate_or".to_string()];
        let stages = ["validate".to_string()];
        let submission = submit_suite(&mut client, Some(&names), Some(&stages), 1);
        stand_in.join().expect("the stand-in daemon");
        submission
    }

    #[test]
    fn submit_refuses_cells_it_did_not_ask_for() {
        let cell = |benchmark: &str, stage: &str| {
            format!(r#"{{"benchmark":"{benchmark}","stage":"{stage}","status":"ok"}}"#)
        };
        let asked = cell("logic_gate_or", "validate");
        let report = submit_to_stand_in(&[&asked])
            .expect("the asked-for cell")
            .report;
        assert_eq!(report.cells.len(), 1);
        for cells in [
            vec![r#"{"status":"ok"}"#.to_string()],
            vec![],
            vec![cell("logic_gate_or", "flow")],
            vec![cell("logic_gate_and", "validate")],
            vec![asked.clone(), asked.clone()],
        ] {
            let cells: Vec<&str> = cells.iter().map(String::as_str).collect();
            let error = submit_to_stand_in(&cells).err();
            assert!(
                matches!(error, Some(ClientError::Protocol(_))),
                "{cells:?}: {error:?}"
            );
        }
    }

    #[test]
    fn client_errors_render_their_kind() {
        let cases: Vec<(ClientError, &str)> = vec![
            (ClientError::Closed, "closed the connection"),
            (
                ClientError::Taxonomy {
                    kind: "invalid_design".into(),
                    message: "no layers".into(),
                },
                "refused (invalid_design)",
            ),
            (
                ClientError::Protocol("bad frame".into()),
                "protocol: bad frame",
            ),
        ];
        for (error, needle) in cases {
            let rendered = error.to_string();
            assert!(rendered.contains(needle), "{rendered:?} lacks {needle:?}");
        }
    }
}
