//! Daemon transports: stdio, TCP, and HTTP front-ends over one request
//! core.
//!
//! Every transport parses with the one event-driven request parser in
//! [`protocol`] and hands each submission to `Server::admit`, which pushes a job onto the
//! bounded admission queue. A job carries its event sink: the submitting
//! line connection's shared writer, or the channel an HTTP handler is
//! waiting on. Worker threads — each with the service's collector
//! installed as its observability recorder — pop jobs, run
//! [`Service::process_submit`], and send every event to the job's sink.
//! Control ops (`ping`, `stats`, `shutdown`) are answered inline by the
//! line reader.
//!
//! Backpressure is the queue itself: when it is full, admission fails
//! *immediately* with a `busy` error rather than buffering without
//! bound — and the refusal carries a deterministic `retry_after_ms`
//! hint scaled with queue occupancy, so polite clients spread their
//! retries instead of stampeding. This holds for every submission,
//! each element of an HTTP batch included.
//!
//! TCP connections are defended, not trusted: frames are read through
//! [`crate::net::LineReader`] under the configured read timeout (a
//! partial frame older than the timeout is a slow-drip peer and is
//! evicted), idle connections with nothing in flight are closed after
//! the idle timeout, frames are size-capped, and every wire event —
//! accepted/closed connections, torn/stalled/oversized/bad frames,
//! timeouts — lands in a `serve.net.*` counter visible in `stats`.
//!
//! Workers are supervised: a panicking worker (a poisoned writer lock,
//! a bug in a stage) is counted in `stats` as `workers_respawned` and
//! replaced on the spot, so one bad job cannot shrink the pool.
//!
//! Shutdown closes the queue, which drains pending jobs, then wakes
//! every worker; responses for already-admitted work are still
//! delivered before the daemon exits.

use crate::net::{self, LineReader, Poll};
use crate::protocol::{self, ErrorKind, Request, SubmitRequest, WireError};
use crate::queue::{Bounded, PushError};
use crate::service::{ServeConfig, Service};
use parchmint_obs::Recorder;
use serde_json::{json, Value};
use std::io::{self, BufRead, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A line-oriented output shared between the reader (inline control
/// responses) and the workers (streamed submission events).
pub type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// Where one submission's events go.
pub(crate) enum Sink {
    /// A line transport's writer: each event becomes one line.
    Line(SharedWriter),
    /// An HTTP handler's channel. The handler reads until every sender
    /// is gone, so dropping the job — when it finishes, or when its
    /// worker unwinds mid-job — ends the handler's wait.
    Channel(mpsc::Sender<Value>),
}

impl Sink {
    /// Delivers one event. A vanished receiver is ignored, like a
    /// vanished line client.
    pub(crate) fn send(&self, event: Value) {
        match self {
            Sink::Line(out) => write_event(out, &event),
            Sink::Channel(events) => {
                let _ = events.send(event);
            }
        }
    }
}

/// One admitted submission waiting for a worker.
struct Job {
    request: Box<SubmitRequest>,
    sink: Sink,
    /// The submitting connection's in-flight count; decremented when
    /// the job finishes (or its worker dies), so the connection loop
    /// can tell a quietly-waiting client from an abandoned one.
    tracker: Option<Arc<AtomicUsize>>,
}

/// Decrements a connection's in-flight count when the job ends — in a
/// `Drop` so a panicking worker cannot leak the count and turn a live
/// connection into an unevictable one.
struct InFlightGuard(Option<Arc<AtomicUsize>>);

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        if let Some(tracker) = &self.0 {
            tracker.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// What the reader loop should do after a handled line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineOutcome {
    /// Keep reading.
    Continue,
    /// A `shutdown` was acknowledged — stop reading and drain.
    Shutdown,
}

/// Serializes `event` onto `out` as one line. Write errors are
/// swallowed: a vanished client must not take a worker down.
fn write_event(out: &SharedWriter, event: &Value) {
    let line = protocol::to_line(event);
    let mut out = out.lock().expect("writer lock");
    if out.write_all(line.as_bytes()).is_err() || out.flush().is_err() {
        parchmint_obs::count("serve.net.write_errors", 1);
    }
}

/// The daemon: service semantics plus queue, workers, and shutdown
/// state. Line transports drive it through [`Server::handle_line`],
/// the HTTP front end through `Server::admit`.
pub struct Server {
    service: Arc<Service>,
    queue: Arc<Bounded<Job>>,
    shutdown: AtomicBool,
    /// Workers respawned after a panic; joined at serve() teardown.
    respawned: Mutex<Vec<JoinHandle<()>>>,
}

/// Spawns one supervised worker thread. The [`RespawnGuard`] watches
/// for a panic unwinding out of the job loop and replaces the thread.
fn spawn_worker(server: &Arc<Server>, index: usize) -> JoinHandle<()> {
    let server = Arc::clone(server);
    std::thread::Builder::new()
        .name(format!("serve-worker-{index}"))
        .spawn(move || {
            let mut guard = RespawnGuard {
                server: Arc::clone(&server),
                index,
                armed: true,
            };
            let recorder: Arc<dyn Recorder> = server.service.collector();
            parchmint_obs::with_recorder(recorder, || loop {
                let Some(job) = server.queue.pop() else {
                    break;
                };
                let _in_flight = InFlightGuard(job.tracker.clone());
                server
                    .service
                    .process_submit(&job.request, &mut |event| job.sink.send(event));
            });
            guard.armed = false;
        })
        .expect("spawn worker")
}

/// Worker supervision: if the thread unwinds while the guard is armed,
/// the panic is counted and a replacement worker is spawned. The job
/// that killed the worker was already popped, so a poisoned job cannot
/// respawn-loop; its in-flight count is released by [`InFlightGuard`].
struct RespawnGuard {
    server: Arc<Server>,
    index: usize,
    armed: bool,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if !self.armed || !std::thread::panicking() {
            return;
        }
        self.server.service.count_worker_respawn();
        let handle = spawn_worker(&self.server, self.index);
        self.server
            .respawned
            .lock()
            .expect("respawn list")
            .push(handle);
    }
}

impl Server {
    /// A server over `service`, with the admission queue sized from the
    /// service's config.
    pub fn new(service: Arc<Service>) -> Server {
        let capacity = service.config().effective_queue_capacity();
        Server {
            service,
            queue: Arc::new(Bounded::new(capacity)),
            shutdown: AtomicBool::new(false),
            respawned: Mutex::new(Vec::new()),
        }
    }

    /// Spawns the worker pool. Each worker installs the service's
    /// collector as its thread recorder, so stage-level observability
    /// from every request aggregates into the daemon's `stats`; each
    /// is supervised, so a panicked worker is counted and replaced.
    pub fn start_workers(self: &Arc<Server>) -> Vec<JoinHandle<()>> {
        let count = self.service.config().effective_workers();
        (0..count).map(|index| spawn_worker(self, index)).collect()
    }

    /// The service this server fronts (the HTTP transport reads its
    /// config and collector).
    pub(crate) fn service(&self) -> &Service {
        &self.service
    }

    /// Whether shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Begins shutdown: stops admission and closes the queue so pending
    /// jobs drain and idle workers wake.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.queue.close();
    }

    /// The full `stats` snapshot: service counters plus this server's
    /// queue and worker facts.
    pub fn stats_json(&self) -> Value {
        let mut stats = self.service.stats_json();
        let facts = json!({
            "queue": { "capacity": self.queue.capacity(), "depth": self.queue.depth() },
            "workers": self.service.config().effective_workers(),
            "workers_respawned": self.service.worker_respawns(),
        });
        if let (Some(object), Value::Object(facts)) = (stats.as_object_mut(), facts) {
            object.extend(facts);
        }
        stats
    }

    /// Handles one request line from a connection writing to `out`.
    /// `tracker` is the connection's in-flight count, bumped for every
    /// admitted submission so the connection loop can tell waiting
    /// clients from idle ones.
    pub fn handle_line(
        &self,
        line: &str,
        out: &SharedWriter,
        tracker: Option<&Arc<AtomicUsize>>,
    ) -> LineOutcome {
        let request = match protocol::parse_request(line) {
            Ok(request) => request,
            Err((id, error)) => {
                parchmint_obs::count("serve.net.bad_requests", 1);
                write_event(out, &protocol::error_event(&id, &error));
                return LineOutcome::Continue;
            }
        };
        match request {
            Request::Ping { id } => write_event(out, &protocol::pong_event(&id)),
            Request::Stats { id } => {
                write_event(out, &protocol::stats_event(&id, self.stats_json()));
            }
            Request::Shutdown { id } => {
                write_event(out, &protocol::shutting_down_event(&id));
                self.begin_shutdown();
                return LineOutcome::Shutdown;
            }
            Request::Submit(request) => self.admit(request, Sink::Line(Arc::clone(out)), tracker),
        }
        LineOutcome::Continue
    }

    /// Admission control, the one entry for every submission: queue the
    /// job or refuse with `busy` / `shutting_down`, never blocking the
    /// caller. A refusal is sent through `sink` and the sink dropped, so
    /// callers only ever wait on the event stream; a `busy` refusal
    /// carries the queue's deterministic `retry_after_ms` hint.
    pub(crate) fn admit(
        &self,
        request: Box<SubmitRequest>,
        sink: Sink,
        tracker: Option<&Arc<AtomicUsize>>,
    ) {
        let draining = WireError::new(ErrorKind::ShuttingDown, "daemon is draining");
        if self.is_shutting_down() {
            sink.send(protocol::error_event(&request.id, &draining));
            return;
        }
        if let Some(tracker) = tracker {
            tracker.fetch_add(1, Ordering::AcqRel);
        }
        let job = Job {
            request,
            sink,
            tracker: tracker.map(Arc::clone),
        };
        let (job, refusal) = match self.queue.try_push(job) {
            Ok(()) => return,
            Err((job, PushError::Full)) => {
                self.service.count_rejected();
                parchmint_obs::count("serve.net.shed", 1);
                let busy = WireError::new(
                    ErrorKind::Busy,
                    format!("admission queue full (capacity {})", self.queue.capacity()),
                )
                .with_retry_after_ms(self.queue.retry_after_hint_ms());
                (job, busy)
            }
            Err((job, PushError::Closed)) => (job, draining),
        };
        drop(InFlightGuard(job.tracker));
        job.sink
            .send(protocol::error_event(&job.request.id, &refusal));
    }
}

/// The stdio main loop: request lines on stdin, events on stdout,
/// until EOF or a `shutdown` request. Stdio is a trusted local pipe —
/// the socket defenses don't apply.
fn stdio_loop(server: &Arc<Server>) -> io::Result<()> {
    let out: SharedWriter = Arc::new(Mutex::new(Box::new(io::stdout())));
    for line in io::stdin().lock().lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        if server.handle_line(&line, &out, None) == LineOutcome::Shutdown {
            break;
        }
    }
    Ok(())
}

/// One TCP line-protocol connection, driven through the hardened
/// [`LineReader`]: slow-drip partial frames are evicted at the read
/// timeout, idle connections (nothing buffered, nothing in flight) at
/// the idle timeout, oversized and non-UTF-8 frames are refused, and
/// every outcome is counted under `serve.net.*`.
fn line_connection(server: &Arc<Server>, stream: TcpStream, local: std::net::SocketAddr) {
    parchmint_obs::count("serve.net.conn.accepted", 1);
    let config = server.service.config();
    let read_timeout = config.effective_read_timeout();
    let idle_timeout = config.effective_idle_timeout();
    if let Some(timeout) = config.effective_write_timeout() {
        let _ = stream.set_write_timeout(Some(timeout));
    }
    // Events are written as they finish; none should wait for the
    // client's delayed ACK of the one before.
    let _ = stream.set_nodelay(true);
    let out: SharedWriter = match stream.try_clone() {
        Ok(write_half) => Arc::new(Mutex::new(Box::new(write_half))),
        Err(_) => return,
    };
    let tracker = Arc::new(AtomicUsize::new(0));
    let poll = net::poll_interval(read_timeout, idle_timeout);
    let mut reader = match LineReader::new(stream, poll, config.effective_line_max_bytes()) {
        Ok(reader) => reader,
        Err(_) => return,
    };
    let mut idle_since = Instant::now();
    let mut frame_stalled = false;
    let mut refused = false;
    loop {
        match reader.poll_line() {
            Ok(Poll::Frame(bytes)) => {
                idle_since = Instant::now();
                frame_stalled = false;
                let Ok(line) = String::from_utf8(bytes) else {
                    parchmint_obs::count("serve.net.frames.bad", 1);
                    let error = WireError::new(ErrorKind::BadRequest, "request line is not UTF-8");
                    write_event(&out, &protocol::error_event(&Value::Null, &error));
                    refused = true;
                    break;
                };
                if line.trim().is_empty() {
                    continue;
                }
                parchmint_obs::count("serve.net.frames", 1);
                if server.handle_line(&line, &out, Some(&tracker)) == LineOutcome::Shutdown {
                    // Unblock the accept loop so it can observe shutdown.
                    let _ = TcpStream::connect(local);
                    break;
                }
            }
            Ok(Poll::Pending {
                frame_age: Some(age),
            }) => {
                if !frame_stalled {
                    // First tick with an incomplete frame on the floor:
                    // the peer paused mid-frame (or is dripping).
                    frame_stalled = true;
                    parchmint_obs::count("serve.net.frames.stalled", 1);
                }
                if read_timeout.is_some_and(|timeout| age >= timeout) {
                    parchmint_obs::count("serve.net.read_timeouts", 1);
                    let error = WireError::new(
                        ErrorKind::BadRequest,
                        format!(
                            "request frame incomplete after {} ms — closing",
                            age.as_millis()
                        ),
                    );
                    write_event(&out, &protocol::error_event(&Value::Null, &error));
                    refused = true;
                    break;
                }
            }
            Ok(Poll::Pending { frame_age: None }) => {
                if tracker.load(Ordering::Acquire) > 0 {
                    // Quiet but waiting on responses — never evicted.
                    idle_since = Instant::now();
                } else if idle_timeout.is_some_and(|timeout| idle_since.elapsed() >= timeout) {
                    parchmint_obs::count("serve.net.idle_closed", 1);
                    break;
                }
            }
            Ok(Poll::Oversized { limit }) => {
                parchmint_obs::count("serve.net.frames.oversized", 1);
                let error = WireError::new(
                    ErrorKind::BadRequest,
                    format!("request frame exceeds {limit} bytes"),
                );
                write_event(&out, &protocol::error_event(&Value::Null, &error));
                refused = true;
                break;
            }
            Ok(Poll::Eof { torn }) => {
                if torn {
                    parchmint_obs::count("serve.net.frames.torn", 1);
                }
                break;
            }
            Err(_) => {
                parchmint_obs::count("serve.net.io_errors", 1);
                break;
            }
        }
    }
    if refused {
        // Lingering close: let the refusal reach a peer that is still
        // sending instead of being destroyed by a reset.
        reader.drain_for(Duration::from_millis(500));
    }
    parchmint_obs::count("serve.net.conn.closed", 1);
}

/// The TCP main loop: one reader thread per connection, until some
/// connection sends `shutdown`. Responses to a submission always go to
/// the connection that made it.
fn tcp_loop(server: &Arc<Server>, listener: TcpListener) -> io::Result<()> {
    let local = listener.local_addr()?;
    for stream in listener.incoming() {
        if server.is_shutting_down() {
            break;
        }
        let Ok(stream) = stream else {
            continue;
        };
        let server = Arc::clone(server);
        std::thread::spawn(move || {
            // The connection thread gets the collector too, so the
            // serve.net.* counters it emits aggregate into stats.
            let recorder: Arc<dyn Recorder> = server.service.collector();
            parchmint_obs::with_recorder(recorder, || line_connection(&server, stream, local));
        });
    }
    Ok(())
}

/// Runs the daemon over the given transports until shutdown, then
/// drains admitted work and joins everything.
///
/// The line protocol runs on `tcp` when given, stdin/stdout otherwise;
/// `http` additionally serves the HTTP/1.1 front end beside it. All
/// transports share one [`Server`] — one queue, one worker pool, one
/// cache.
pub fn serve(
    service: Arc<Service>,
    tcp: Option<TcpListener>,
    http: Option<TcpListener>,
) -> io::Result<()> {
    let server = Arc::new(Server::new(service));
    let workers = server.start_workers();
    let http_acceptor = http.map(|listener| {
        let local = listener.local_addr();
        let server = Arc::clone(&server);
        let handle = std::thread::Builder::new()
            .name("serve-http".to_string())
            .spawn(move || crate::http::run_http(&server, listener))
            .expect("spawn http acceptor");
        (handle, local)
    });
    let result = match tcp {
        Some(listener) => tcp_loop(&server, listener),
        None => stdio_loop(&server),
    };
    server.begin_shutdown();
    if let Some((handle, local)) = http_acceptor {
        // Unblock the HTTP accept loop so it can observe shutdown.
        if let Ok(local) = local {
            let _ = TcpStream::connect(local);
        }
        let _ = handle.join();
    }
    for worker in workers {
        let _ = worker.join();
    }
    // Workers respawned after panics appear here; a respawn can race
    // teardown, so drain until the list stays empty.
    loop {
        let drained: Vec<JoinHandle<()>> = {
            let mut respawned = server.respawned.lock().expect("respawn list");
            respawned.drain(..).collect()
        };
        if drained.is_empty() {
            break;
        }
        for handle in drained {
            let _ = handle.join();
        }
    }
    result
}

/// Runs the daemon over `listener` until some connection sends
/// `shutdown`, then drains admitted work and joins the workers.
pub fn serve_tcp(service: Arc<Service>, listener: TcpListener) -> io::Result<()> {
    serve(service, Some(listener), None)
}

/// Binds the transports named by `config`, announces them, and runs
/// the daemon to completion. This is the `parchmint serve` entry
/// point: the TCP line protocol prints `listening on ADDR`, the HTTP
/// front end prints `http listening on ADDR` (both on stdout, which
/// stays free of protocol traffic unless stdio is the line transport —
/// in that case the HTTP announcement goes to stderr instead).
pub fn run(config: ServeConfig) -> io::Result<()> {
    if let Some(dir) = config.cache_dir() {
        std::fs::create_dir_all(dir)?;
    }
    let tcp = config.tcp().map(TcpListener::bind).transpose()?;
    let http = config.http().map(TcpListener::bind).transpose()?;
    if let Some(listener) = &tcp {
        // Announce the bound address (stdout is line-buffered, so this
        // is visible immediately even when piped) — with `--tcp :0`
        // style ephemeral ports, clients read it from here.
        println!("listening on {}", listener.local_addr()?);
    }
    if let Some(listener) = &http {
        let addr = listener.local_addr()?;
        if tcp.is_some() {
            println!("http listening on {addr}");
        } else {
            eprintln!("http listening on {addr}");
        }
    }
    let service = Arc::new(Service::new(config));
    serve(service, tcp, http)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;
    use std::time::Duration;

    fn capture() -> (SharedWriter, Arc<Mutex<Vec<u8>>>) {
        #[derive(Clone)]
        struct Sink(Arc<Mutex<Vec<u8>>>);
        impl Write for Sink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let buffer = Arc::new(Mutex::new(Vec::new()));
        let sink = Sink(Arc::clone(&buffer));
        (Arc::new(Mutex::new(Box::new(sink))), buffer)
    }

    fn lines(buffer: &Arc<Mutex<Vec<u8>>>) -> Vec<Value> {
        String::from_utf8(buffer.lock().unwrap().clone())
            .unwrap()
            .lines()
            .map(|line| serde_json::from_str(line).unwrap())
            .collect()
    }

    #[test]
    fn control_ops_answer_inline() {
        let server = Arc::new(Server::new(Arc::new(Service::new(ServeConfig::default()))));
        let (out, buffer) = capture();
        assert_eq!(
            server.handle_line(r#"{"op":"ping","id":"p"}"#, &out, None),
            LineOutcome::Continue
        );
        assert_eq!(
            server.handle_line(r#"{"op":"stats","id":"s"}"#, &out, None),
            LineOutcome::Continue
        );
        assert_eq!(
            server.handle_line(r#"{"op":"shutdown"}"#, &out, None),
            LineOutcome::Shutdown
        );
        let events = lines(&buffer);
        assert_eq!(events[0]["event"], Value::from("pong"));
        assert_eq!(events[1]["event"], Value::from("stats"));
        assert_eq!(events[1]["stats"]["queue"]["capacity"], Value::from(64));
        assert_eq!(events[1]["stats"]["workers_respawned"], Value::from(0u64));
        assert_eq!(events[2]["event"], Value::from("shutting_down"));
        assert!(server.is_shutting_down());
    }

    #[test]
    fn full_queue_refuses_busy_and_counts_it() {
        let config = ServeConfig::builder().queue_capacity(1).build();
        // No workers started: admitted jobs stay queued, so the second
        // submission must bounce off the full queue.
        let server = Arc::new(Server::new(Arc::new(Service::new(config))));
        let (out, buffer) = capture();
        let submit = r#"{"op":"submit","id":"a","benchmark":"logic_gate_or"}"#;
        server.handle_line(submit, &out, None);
        server.handle_line(submit, &out, None);
        let events = lines(&buffer);
        assert_eq!(events.len(), 1, "only the refusal responds inline");
        assert_eq!(events[0]["error"]["kind"], Value::from("busy"));
        assert_eq!(
            events[0]["error"]["retry_after_ms"],
            Value::from(125u64),
            "a full queue hints the deterministic ceiling"
        );
        assert_eq!(
            server.stats_json()["requests"]["rejected"],
            Value::from(1u64)
        );
    }

    #[test]
    fn submissions_after_shutdown_are_refused() {
        let server = Arc::new(Server::new(Arc::new(Service::new(ServeConfig::default()))));
        server.begin_shutdown();
        let (out, buffer) = capture();
        server.handle_line(
            r#"{"op":"submit","id":"late","benchmark":"logic_gate_or"}"#,
            &out,
            None,
        );
        let events = lines(&buffer);
        assert_eq!(events[0]["error"]["kind"], Value::from("shutting_down"));
    }

    #[test]
    fn a_panicked_worker_is_respawned_and_counted() {
        let config = ServeConfig::builder().workers(1).queue_capacity(8).build();
        let server = Arc::new(Server::new(Arc::new(Service::new(config))));
        let _workers = server.start_workers();

        // Poison a connection's writer lock: the worker panics inside
        // write_event's `.expect("writer lock")` while emitting events.
        let (poisoned, _buffer) = capture();
        {
            let out = Arc::clone(&poisoned);
            let _ = std::thread::spawn(move || {
                let _guard = out.lock().unwrap();
                panic!("poison the writer lock");
            })
            .join();
        }
        assert!(poisoned.lock().is_err(), "lock must be poisoned");
        server.handle_line(
            r#"{"op":"submit","id":"boom","benchmark":"logic_gate_or"}"#,
            &poisoned,
            None,
        );
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.service.worker_respawns() == 0 {
            assert!(Instant::now() < deadline, "worker was never respawned");
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(server.stats_json()["workers_respawned"], Value::from(1u64));

        // The replacement worker must still serve jobs end to end.
        let (out, buffer) = capture();
        server.handle_line(
            r#"{"op":"submit","id":"after","benchmark":"logic_gate_or"}"#,
            &out,
            None,
        );
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let done = lines(&buffer).iter().any(|event| event["event"] == "done");
            if done {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "respawned worker never completed a job"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        server.begin_shutdown();
    }
}
