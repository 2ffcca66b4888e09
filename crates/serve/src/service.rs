//! The transport-agnostic service core: resolve → hash → compile →
//! stages, emitting wire events.
//!
//! [`Service::process_submit`] is the single code path every daemon
//! worker runs, and it executes stages through exactly the same
//! [`parchmint_harness::engine`] the `suite-run` sweep uses — compile
//! once behind an `Arc`, panic isolation, severity→status mapping, and
//! the seed-bumped retry schedule all live there, so a design served
//! by the daemon and the same design swept by the harness end in
//! byte-identical cells.
//!
//! A request's design is canonical text by the time it gets here (the
//! protocol parser writes it straight from the request bytes; MINT and
//! registry designs are canonicalized from their device's own JSON), so
//! the cache key is one hash of that text, and a hit replays its entry
//! without building a `Device` at all. Only a miss parses the document.
//!
//! Cache discipline, per artifact:
//!
//! 1. probe the [`TieredCache`] (memory, then spill) — an entry is used
//!    only if its stored text is the request's;
//! 2. on a miss, join the [`SingleFlight`] table for the artifact's
//!    key — the leader computes and publishes, every concurrent
//!    duplicate parks (counted under `cache.coalesced`) and replays the
//!    published result; an abandoned flight (panicked leader) wakes the
//!    waiters to retry, one of which promotes itself to leader.
//!
//! Every count the daemon reports — requests, cache tiers, stages, wire
//! events — is an obs count recorded into one store, the service's
//! aggregate collector; `stats` reads them all from one summary of it.
//!
//! Caching rule: a submission is *cacheable* only when it runs
//! unconditioned — no deadline, no fuel, no armed fault plan. Bounded
//! or fault-injected runs execute fresh every time and their results
//! are never stored, so a degraded partial result can never be
//! replayed to a clean request. A submission whose key holds another
//! design's entry runs the same way.

use crate::cache::{CacheEntry, Lookup, TieredCache};
use crate::flight::{Flight, SingleFlight};
use crate::hash;
use crate::protocol::{
    cell_event, done_event, error_event, DesignSource, ErrorKind, SubmitRequest, WireError, PROTO,
    PROTO_MAJOR,
};
use parchmint::{CompiledDevice, Device};
use parchmint_harness::{engine, stage_matches, standard_stages, ExecPolicy, Stage, StageExec};
use parchmint_obs::{Collector, Event, EventKind, Recorder};
use parchmint_resilience::FaultPlan;
use serde_json::{json, Map, Value};
use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queue capacity when none is configured.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// HTTP request-body cap when none is configured. A full ParchMint
/// design is well under this; FPVA-scale documents (a 100k-component
/// grid serializes to ~100 MiB) need `--http-max-body` raised.
pub const DEFAULT_HTTP_MAX_BODY: usize = 8 << 20;

/// Per-connection read timeout when none is configured: how long a
/// *partial* frame (line or HTTP head) may sit unfinished before the
/// connection is evicted as a slow-drip peer. Measured from the first
/// byte of the frame, not from last progress — a slowloris dripping
/// one byte per second makes progress forever but never finishes.
pub const DEFAULT_READ_TIMEOUT_MS: u64 = 10_000;

/// Per-connection socket write timeout when none is configured.
pub const DEFAULT_WRITE_TIMEOUT_MS: u64 = 10_000;

/// Keep-alive idle timeout when none is configured: a connection with
/// an empty read buffer and no requests in flight is closed after this
/// long. Connections awaiting responses are never idle-evicted.
pub const DEFAULT_IDLE_TIMEOUT_MS: u64 = 60_000;

/// Line-protocol frame cap when none is configured. An FPVA-scale
/// inline design serializes to ~100 MiB, so the default is generous;
/// it exists to bound memory, not to police well-formed clients.
pub const DEFAULT_LINE_MAX_BYTES: usize = 256 << 20;

/// Resolves a timeout knob: `None` = the default, `Some(0)` =
/// disabled, anything else verbatim.
fn effective_timeout(configured: Option<u64>, default_ms: u64) -> Option<Duration> {
    match configured {
        None => Some(Duration::from_millis(default_ms)),
        Some(0) => None,
        Some(ms) => Some(Duration::from_millis(ms)),
    }
}

/// Resolves a size knob: `0` = the default, anything else verbatim.
fn effective_size(configured: usize, default: usize) -> usize {
    if configured > 0 {
        configured
    } else {
        default
    }
}

/// Daemon configuration: execution defaults, cache limits, and
/// transport endpoints, with every default already resolved. Opaque —
/// build one with [`ServeConfig::builder`]; [`ServeConfig::default`]
/// is `builder().build()`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    workers: usize,
    queue_capacity: usize,
    deadline: Option<Duration>,
    fuel: Option<u64>,
    faults: Option<FaultPlan>,
    cache_bytes: Option<u64>,
    cache_dir: Option<PathBuf>,
    tcp: Option<String>,
    http: Option<String>,
    http_max_body: usize,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    idle_timeout: Option<Duration>,
    line_max_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig::builder().build()
    }
}

impl ServeConfig {
    /// Starts a builder holding the default configuration.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder::default()
    }

    /// Default per-attempt deadline applied when a submission names none.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Default per-attempt fuel applied when a submission names none.
    pub fn fuel(&self) -> Option<u64> {
        self.fuel
    }

    /// Fault plan armed for matching designs (testing the daemon's own
    /// resilience); requests touched by it bypass the cache.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Memory-tier byte budget; `None` means unbounded.
    pub fn cache_bytes(&self) -> Option<u64> {
        self.cache_bytes
    }

    /// Disk-spill directory; `None` disables the persistent tier.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.cache_dir.as_deref()
    }

    /// TCP listen address (`HOST:PORT`); `None` serves stdio.
    pub fn tcp(&self) -> Option<&str> {
        self.tcp.as_deref()
    }

    /// HTTP listen address (`HOST:PORT`); `None` disables the HTTP
    /// front end.
    pub fn http(&self) -> Option<&str> {
        self.http.as_deref()
    }

    /// The HTTP request-body cap in bytes.
    pub fn effective_http_max_body(&self) -> usize {
        self.http_max_body
    }

    /// The partial-frame read timeout (`None` = disabled).
    pub fn effective_read_timeout(&self) -> Option<Duration> {
        self.read_timeout
    }

    /// The socket write timeout (`None` = disabled).
    pub fn effective_write_timeout(&self) -> Option<Duration> {
        self.write_timeout
    }

    /// The keep-alive idle timeout (`None` = disabled).
    pub fn effective_idle_timeout(&self) -> Option<Duration> {
        self.idle_timeout
    }

    /// The line-frame byte cap.
    pub fn effective_line_max_bytes(&self) -> usize {
        self.line_max_bytes
    }

    /// The worker-thread count.
    pub fn effective_workers(&self) -> usize {
        self.workers
    }

    /// The admission-queue capacity.
    pub fn effective_queue_capacity(&self) -> usize {
        self.queue_capacity
    }
}

/// Builder for [`ServeConfig`]. Holds the settings as given — `0` or
/// unset meaning "the default" — until [`ServeConfigBuilder::build`]
/// resolves them.
#[derive(Debug, Clone, Default)]
pub struct ServeConfigBuilder {
    workers: usize,
    queue_capacity: usize,
    deadline: Option<Duration>,
    fuel: Option<u64>,
    faults: Option<FaultPlan>,
    cache_bytes: Option<u64>,
    cache_dir: Option<PathBuf>,
    tcp: Option<String>,
    http: Option<String>,
    http_max_body: usize,
    read_timeout_ms: Option<u64>,
    write_timeout_ms: Option<u64>,
    idle_timeout_ms: Option<u64>,
    line_max_bytes: usize,
}

impl ServeConfigBuilder {
    /// Sets the worker-thread count (`0` = one per core).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the admission-queue capacity (`0` =
    /// [`DEFAULT_QUEUE_CAPACITY`]).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the default per-attempt deadline.
    pub fn deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Sets the default per-attempt fuel budget.
    pub fn fuel(mut self, fuel: Option<u64>) -> Self {
        self.fuel = fuel;
        self
    }

    /// Arms a fault plan for matching designs.
    pub fn faults(mut self, faults: Option<FaultPlan>) -> Self {
        self.faults = faults;
        self
    }

    /// Budgets the memory cache tier in approximate bytes.
    pub fn cache_bytes(mut self, bytes: u64) -> Self {
        self.cache_bytes = Some(bytes);
        self
    }

    /// Enables the disk-spill tier rooted at `dir`.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Serves the line-JSON protocol on a TCP address instead of stdio.
    pub fn tcp(mut self, addr: impl Into<String>) -> Self {
        self.tcp = Some(addr.into());
        self
    }

    /// Serves the HTTP/1.1 front end on a TCP address.
    pub fn http(mut self, addr: impl Into<String>) -> Self {
        self.http = Some(addr.into());
        self
    }

    /// Caps HTTP request bodies at `bytes` (`0` =
    /// [`DEFAULT_HTTP_MAX_BODY`]).
    pub fn http_max_body(mut self, bytes: usize) -> Self {
        self.http_max_body = bytes;
        self
    }

    /// Sets the partial-frame read timeout in milliseconds (`0` =
    /// disabled; unset = [`DEFAULT_READ_TIMEOUT_MS`]).
    pub fn read_timeout_ms(mut self, ms: u64) -> Self {
        self.read_timeout_ms = Some(ms);
        self
    }

    /// Sets the socket write timeout in milliseconds (`0` = disabled;
    /// unset = [`DEFAULT_WRITE_TIMEOUT_MS`]).
    pub fn write_timeout_ms(mut self, ms: u64) -> Self {
        self.write_timeout_ms = Some(ms);
        self
    }

    /// Sets the keep-alive idle timeout in milliseconds (`0` =
    /// disabled; unset = [`DEFAULT_IDLE_TIMEOUT_MS`]).
    pub fn idle_timeout_ms(mut self, ms: u64) -> Self {
        self.idle_timeout_ms = Some(ms);
        self
    }

    /// Caps line-protocol frames at `bytes` (`0` =
    /// [`DEFAULT_LINE_MAX_BYTES`]).
    pub fn line_max_bytes(mut self, bytes: usize) -> Self {
        self.line_max_bytes = bytes;
        self
    }

    /// Finishes the configuration, resolving every default.
    pub fn build(self) -> ServeConfig {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        ServeConfig {
            workers: effective_size(self.workers, cores),
            queue_capacity: effective_size(self.queue_capacity, DEFAULT_QUEUE_CAPACITY),
            deadline: self.deadline,
            fuel: self.fuel,
            faults: self.faults,
            cache_bytes: self.cache_bytes,
            cache_dir: self.cache_dir,
            tcp: self.tcp,
            http: self.http,
            http_max_body: effective_size(self.http_max_body, DEFAULT_HTTP_MAX_BODY),
            read_timeout: effective_timeout(self.read_timeout_ms, DEFAULT_READ_TIMEOUT_MS),
            write_timeout: effective_timeout(self.write_timeout_ms, DEFAULT_WRITE_TIMEOUT_MS),
            idle_timeout: effective_timeout(self.idle_timeout_ms, DEFAULT_IDLE_TIMEOUT_MS),
            line_max_bytes: effective_size(self.line_max_bytes, DEFAULT_LINE_MAX_BYTES),
        }
    }
}

/// How the compile artifact for one submission was obtained.
enum CompileOutcome {
    /// Served from the cache (memory or spill) or from a coalesced
    /// in-flight compile.
    Hit(Arc<CacheEntry>),
    /// This request compiled it and published it to the cache.
    Published(Arc<CacheEntry>, Duration),
    /// This request compiled it for itself alone.
    Uncached(Arc<CacheEntry>, Duration),
    /// The document is not a valid design.
    Invalid(WireError),
    /// Generation or compilation of the named design panicked.
    Panicked(String, String),
}

/// The daemon's one store of counts: a collector that keeps no sample
/// series. A sample series is one run's curve (an annealing schedule, a
/// solver's residuals), which `stats` never reports, so the aggregate
/// grows with metric names, not with requests.
struct Aggregate(Collector);

impl Recorder for Aggregate {
    fn record(&self, event: Event) {
        if !matches!(event.kind, EventKind::Sample(_)) {
            self.0.record(event);
        }
    }
}

/// Releases one in-flight count — the service's, or a connection's —
/// when a submission ends, in a `Drop` so that a panic taking the
/// worker down cannot leak it.
pub(crate) struct InFlight<'a>(pub(crate) &'a AtomicUsize);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The shared service state: stage matrix, tiered cache, single-flight
/// tables, the aggregate every count lands in, and the in-flight gauges.
/// Transports ([`crate::server`], [`crate::http`]) own sockets and
/// threads; the service owns semantics.
pub struct Service {
    stages: Vec<Stage>,
    config: ServeConfig,
    cache: TieredCache,
    compile_flights: SingleFlight<u64>,
    stage_flights: SingleFlight<(u64, String)>,
    aggregate: Arc<Aggregate>,
    in_flight: AtomicUsize,
    peak_in_flight: AtomicUsize,
}

impl Service {
    /// A service running the standard stage matrix.
    pub fn new(config: ServeConfig) -> Service {
        Service::with_stages(config, standard_stages())
    }

    /// A service running a caller-supplied stage matrix (tests use this
    /// to pin engine parity with synthetic stages).
    pub fn with_stages(config: ServeConfig, stages: Vec<Stage>) -> Service {
        let cache = TieredCache::with_limits(config.cache_bytes(), config.cache_dir.clone());
        Service {
            stages,
            config,
            cache,
            compile_flights: SingleFlight::new(),
            stage_flights: SingleFlight::new(),
            aggregate: Arc::new(Aggregate(Collector::new())),
            in_flight: AtomicUsize::new(0),
            peak_in_flight: AtomicUsize::new(0),
        }
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The tiered cache (exposed for stats and tests).
    pub fn cache(&self) -> &TieredCache {
        &self.cache
    }

    /// Runs `f` with the daemon's aggregate installed as this thread's
    /// obs recorder, so every count `f` makes lands in `stats`, on
    /// whichever thread it runs.
    pub(crate) fn recorded<T>(&self, f: impl FnOnce() -> T) -> T {
        let aggregate: Arc<dyn Recorder> = self.aggregate.clone();
        parchmint_obs::with_recorder(aggregate, f)
    }

    /// Resolves a design source to the canonical document its cache key
    /// is derived from, plus the device when resolving had to build one.
    fn resolve<'s>(
        &self,
        source: &'s DesignSource,
    ) -> Result<(Cow<'s, str>, Option<Device>), WireError> {
        let invalid = |message: String| WireError::new(ErrorKind::InvalidDesign, message);
        let device = match source {
            DesignSource::Json(doc) => return Ok((Cow::Borrowed(doc), None)),
            DesignSource::Mint(text) => {
                let file = parchmint_mint::parse(text)
                    .map_err(|e| invalid(format!("invalid MINT: {e}")))?;
                parchmint_mint::mint_to_device(&file)
                    .map_err(|e| invalid(format!("MINT conversion failed: {e}")))?
            }
            DesignSource::Benchmark(name) => parchmint_suite::by_name(name)
                .ok_or_else(|| invalid(format!("unknown benchmark `{name}`")))?
                .device(),
        };
        // Keyed by the device's own serialization, so MINT and registry
        // submissions share cache entries with the equivalent inline-JSON
        // submission.
        let unserializable =
            |e: &dyn std::fmt::Display| invalid(format!("unserializable design: {e}"));
        let json = device.to_json().map_err(|e| unserializable(&e))?;
        let doc = hash::canonical_text(&json).map_err(|e| unserializable(&e))?;
        Ok((Cow::Owned(doc), Some(device)))
    }

    /// The execution policy for one submission: request-level bounds win,
    /// daemon defaults fill the gaps.
    fn policy_for(&self, request: &SubmitRequest) -> ExecPolicy {
        let deadline = request
            .deadline_ms
            .map(Duration::from_millis)
            .or(self.config.deadline);
        let fuel = request.fuel.or(self.config.fuel);
        ExecPolicy::new().with_deadline(deadline).with_fuel(fuel)
    }

    /// The slice of the daemon's fault plan that applies to `design`.
    fn faults_for(&self, design: &str) -> Option<Arc<FaultPlan>> {
        let plan = self.config.faults.as_ref()?.for_benchmark(design);
        (!plan.is_empty()).then(|| Arc::new(plan))
    }

    /// Selects the stages a submission asked for, in matrix order, plus
    /// any selectors that matched nothing.
    fn select_stages(&self, selectors: Option<&[String]>) -> (Vec<&Stage>, Vec<String>) {
        let Some(selectors) = selectors else {
            return (self.stages.iter().collect(), Vec::new());
        };
        let selected: Vec<&Stage> = self
            .stages
            .iter()
            .filter(|stage| selectors.iter().any(|s| stage_matches(s, &stage.name)))
            .collect();
        let unknown = selectors
            .iter()
            .filter(|s| {
                !self
                    .stages
                    .iter()
                    .any(|stage| stage_matches(s, &stage.name))
            })
            .cloned()
            .collect();
        (selected, unknown)
    }

    /// Runs one submission to completion, streaming `cell` events and a
    /// final `done` (or a single `error`) through `emit`.
    ///
    /// This is the daemon's entire request path; transports only parse
    /// lines and queue jobs. Everything it counts lands in the daemon's
    /// aggregate, whoever calls it.
    pub fn process_submit(&self, request: &SubmitRequest, emit: &mut dyn FnMut(Value)) {
        self.recorded(|| {
            parchmint_obs::count("serve.requests.submitted", 1);
            let in_flight = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
            self.peak_in_flight.fetch_max(in_flight, Ordering::Relaxed);
            let slot = InFlight(&self.in_flight);
            let last = self.run_submission(request, emit);
            // The request ends before its last event goes out, so a
            // `stats` asked after `done` counts it completed.
            parchmint_obs::count("serve.requests.completed", 1);
            drop(slot);
            emit(last);
        });
    }

    /// Streams a submission's `cell` events through `emit` and returns
    /// its final event, `done` or `error`, for the caller to send last.
    fn run_submission(&self, request: &SubmitRequest, emit: &mut dyn FnMut(Value)) -> Value {
        let (doc, mut device) = match self.resolve(&request.source) {
            Ok(resolved) => resolved,
            Err(error) => return error_event(&request.id, &error),
        };
        let key = hash::canonical_hash(&doc);
        let policy = self.policy_for(request);
        // The fault plan is matched by design name, so an armed plan
        // needs the device before the cache is consulted.
        if device.is_none() && self.config.faults.is_some() {
            match parse_design(&doc) {
                Ok(parsed) => device = Some(parsed),
                Err(error) => return error_event(&request.id, &error),
            }
        }
        let faults = device.as_ref().and_then(|d| self.faults_for(&d.name));
        let cacheable = !policy.is_bounded() && faults.is_none();
        let (selected, unknown) = self.select_stages(request.stages.as_deref());

        // Compile: shared from the cache / an in-flight duplicate when
        // possible, fresh otherwise.
        let (design, compiled) =
            match self.obtain_compile(key, &doc, device, faults.as_ref(), cacheable) {
                CompileOutcome::Hit(entry) => (entry.design().to_string(), Ok((entry, None, true))),
                CompileOutcome::Published(entry, wall) => {
                    (entry.design().to_string(), Ok((entry, Some(wall), true)))
                }
                CompileOutcome::Uncached(entry, wall) => {
                    (entry.design().to_string(), Ok((entry, Some(wall), false)))
                }
                CompileOutcome::Invalid(error) => return error_event(&request.id, &error),
                CompileOutcome::Panicked(design, panic) => (design, Err(panic)),
            };

        let mut cells = 0usize;
        for selector in &unknown {
            cells += 1;
            emit(cell_event(
                &request.id,
                &design,
                selector,
                "failed",
                Some(&format!("unknown stage `{selector}`")),
                &Default::default(),
                0.0,
                false,
            ));
        }

        let (entry, compile_wall, cacheable) = match compiled {
            Ok(compiled) => compiled,
            Err(panic) => {
                // Generation/compilation panicked: every selected stage
                // is a failed cell, exactly as the harness reports it.
                for stage in &selected {
                    cells += 1;
                    emit(cell_event(
                        &request.id,
                        &design,
                        &stage.name,
                        "failed",
                        Some(&format!("compile panicked: {panic}")),
                        &Default::default(),
                        0.0,
                        false,
                    ));
                }
                return done_event(&request.id, &design, &hash::hex(key), false, None, cells);
            }
        };

        for stage in &selected {
            let started = Instant::now();
            let (exec, cached) =
                self.obtain_stage(key, &entry, stage, &policy, faults.as_ref(), cacheable);
            parchmint_obs::count(
                if cached {
                    "serve.stage.replayed"
                } else {
                    "serve.stage.executed"
                },
                1,
            );
            if cacheable && !cached {
                parchmint_obs::count("cache.stage_misses", 1);
            }
            cells += 1;
            emit(cell_event(
                &request.id,
                &design,
                &stage.name,
                exec.status.as_str(),
                exec.detail.as_deref(),
                &exec.metrics,
                started.elapsed().as_secs_f64() * 1e3,
                cached,
            ));
        }

        done_event(
            &request.id,
            &design,
            &hash::hex(key),
            compile_wall.is_none(),
            compile_wall.map(|wall| wall.as_secs_f64() * 1e3),
            cells,
        )
    }

    /// Gets the compile artifact for the canonical document `doc`: from
    /// the tiered cache, by winning the single-flight and compiling, or
    /// by parking behind an identical in-flight compile. A request that
    /// may not use the cache, or whose key holds another design's
    /// entry, compiles for itself alone. The device is parsed only when
    /// this request compiles.
    fn obtain_compile(
        &self,
        key: u64,
        doc: &str,
        device: Option<Device>,
        faults: Option<&Arc<FaultPlan>>,
        cacheable: bool,
    ) -> CompileOutcome {
        if !cacheable {
            return self.compile(doc, device, faults);
        }
        let hit = |entry| {
            parchmint_obs::count("serve.compile.replayed", 1);
            CompileOutcome::Hit(entry)
        };
        loop {
            match self.cache.lookup(key, doc) {
                Lookup::Hit(entry, _) => return hit(entry),
                Lookup::Collision => return self.compile(doc, device, None),
                Lookup::Miss => {}
            }
            match self.compile_flights.join(key) {
                Flight::Leader(token) => {
                    // A leader that finished between our counted miss and
                    // this promotion already published; don't recompile.
                    match self.cache.peek(key, doc) {
                        Lookup::Hit(entry, _) => {
                            token.complete();
                            return hit(entry);
                        }
                        Lookup::Collision => {
                            token.complete();
                            return self.compile(doc, device, None);
                        }
                        Lookup::Miss => {}
                    }
                    return match self.compile(doc, device, None) {
                        CompileOutcome::Uncached(entry, wall) => {
                            let entry = self.cache.insert(key, entry);
                            token.complete();
                            CompileOutcome::Published(entry, wall)
                        }
                        // The token drops unfinished → the flight is
                        // abandoned and every waiter retries for itself.
                        failed => failed,
                    };
                }
                Flight::Waiter(wait) => {
                    // Counted as the waiter parks, before the leader
                    // finishes, so a duplicate pair is visible mid-flight.
                    parchmint_obs::count("cache.coalesced", 1);
                    // True → the leader published; retry the lookup.
                    // False → the leader abandoned; retry the join and
                    // possibly lead ourselves.
                    let _ = wait.wait();
                }
            }
        }
    }

    /// Compiles `doc` outside the cache, parsing it unless the device
    /// was already built.
    fn compile(
        &self,
        doc: &str,
        device: Option<Device>,
        faults: Option<&Arc<FaultPlan>>,
    ) -> CompileOutcome {
        let device = match device.map_or_else(|| parse_design(doc), Ok) {
            Ok(device) => device,
            Err(error) => return CompileOutcome::Invalid(error),
        };
        let design = device.name.clone();
        let compile = engine::compile_device(move || device, faults, false);
        parchmint_obs::count("serve.compile.executed", 1);
        match compile.compiled {
            Ok(compiled) => {
                let entry = CacheEntry::new(doc.to_owned(), compiled, compile.wall);
                CompileOutcome::Uncached(Arc::new(entry), compile.wall)
            }
            Err(panic) => CompileOutcome::Panicked(design, panic),
        }
    }

    /// Gets one stage result: replayed from the entry, by winning the
    /// stage single-flight and executing, or by parking behind an
    /// identical in-flight execution.
    fn obtain_stage(
        &self,
        key: u64,
        entry: &Arc<CacheEntry>,
        stage: &Stage,
        policy: &ExecPolicy,
        faults: Option<&Arc<FaultPlan>>,
        cacheable: bool,
    ) -> (StageExec, bool) {
        let execute = |compiled: &CompiledDevice| {
            engine::execute_stage(stage, compiled, policy, faults, false)
        };
        if !cacheable {
            let compiled = entry.compiled().expect("fresh compiles always materialize");
            return (execute(&compiled), false);
        }
        loop {
            if let Some(replayed) = entry.stage(&stage.name) {
                return (replayed, true);
            }
            match self.stage_flights.join((key, stage.name.clone())) {
                Flight::Leader(token) => {
                    if let Some(replayed) = entry.stage(&stage.name) {
                        token.complete();
                        return (replayed, true);
                    }
                    let compiled = match self.materialize(entry) {
                        Ok(compiled) => compiled,
                        // The dropped token wakes waiters to retry (and
                        // fail the same way, each reporting for itself).
                        Err(panic) => {
                            return (
                                StageExec {
                                    status: parchmint_harness::CellStatus::Failed,
                                    detail: Some(format!("compile panicked: {panic}")),
                                    metrics: Default::default(),
                                    trace: None,
                                    attempts: 1,
                                },
                                false,
                            )
                        }
                    };
                    let exec = execute(&compiled);
                    self.cache.store_stage(key, entry, &stage.name, &exec);
                    token.complete();
                    return (exec, false);
                }
                Flight::Waiter(wait) => {
                    parchmint_obs::count("cache.coalesced", 1);
                    let _ = wait.wait();
                }
            }
        }
    }

    /// The compiled view for `entry`, re-materializing it from the
    /// canonical document when the entry was rehydrated from spill.
    fn materialize(&self, entry: &Arc<CacheEntry>) -> Result<Arc<CompiledDevice>, String> {
        if let Some(compiled) = entry.compiled() {
            return Ok(compiled);
        }
        let device = Device::from_json(entry.doc())
            .map_err(|e| format!("spilled design no longer parses: {e}"))?;
        let compile = engine::compile_device(move || device, None, false);
        parchmint_obs::count("serve.compile.executed", 1);
        compile.compiled.map(|compiled| entry.materialize(compiled))
    }

    /// The daemon's snapshot: protocol version, request, cache and
    /// worker counts read from one summary of the aggregate, the gauges
    /// read from state, and every obs counter under `counters`.
    pub fn stats_json(&self) -> Value {
        // Read before the summary: a submission counts `completed` before
        // it releases its slot, so a snapshot with nothing in flight has
        // counted every submission that ended.
        let in_flight = self.in_flight.load(Ordering::Acquire);
        let summary = self.aggregate.0.summary();
        let count = |name: &str| summary.counters.get(name).copied().unwrap_or(0);
        let counters: Map = (summary.counters.iter())
            .map(|(name, total)| (name.to_string(), Value::from(*total)))
            .collect();
        let cache = &self.cache;
        json!({
            "schema": "parchmint-serve-stats/v2",
            "proto": { "negotiated": PROTO, "supported_majors": [PROTO_MAJOR] },
            "requests": {
                "submitted": count("serve.requests.submitted"),
                "completed": count("serve.requests.completed"),
                "rejected": count("serve.net.shed"),
                "in_flight": in_flight,
                "peak_in_flight": self.peak_in_flight.load(Ordering::Relaxed),
            },
            "cache": {
                "entries": cache.len(),
                "bytes": cache.bytes(),
                "budget_bytes": cache.budget(),
                "spill_dir": cache.spill_dir().map(|dir| dir.display().to_string()),
                "memory_hits": count("cache.memory_hits"),
                "spill_hits": count("cache.spill_hits"),
                "misses": count("cache.misses"),
                "collisions": count("cache.collisions"),
                "stage_hits": count("serve.stage.replayed"),
                "stage_misses": count("cache.stage_misses"),
                "coalesced": count("cache.coalesced"),
                "evicted_entries": count("cache.evicted.entries"),
                "evicted_bytes": count("cache.evicted.bytes"),
                "spill_corrupt": count("cache.spill_corrupt"),
            },
            "flights": {
                "compiles": self.compile_flights.in_flight(),
                "stages": self.stage_flights.in_flight(),
            },
            "workers_respawned": count("serve.workers.respawned"),
            "counters": counters,
        })
    }
}

/// Parses a canonical document into its device.
fn parse_design(doc: &str) -> Result<Device, WireError> {
    Device::from_json(doc).map_err(|e| {
        WireError::new(
            ErrorKind::InvalidDesign,
            format!("invalid ParchMint design: {e}"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit(benchmark: &str) -> SubmitRequest {
        SubmitRequest {
            id: Value::from(1),
            source: DesignSource::Benchmark(benchmark.to_string()),
            stages: Some(vec!["validate".to_string()]),
            deadline_ms: None,
            fuel: None,
        }
    }

    fn events_of(service: &Service, request: &SubmitRequest) -> Vec<Value> {
        let mut events = Vec::new();
        service.process_submit(request, &mut |event| events.push(event));
        events
    }

    /// Runs `elements` as one `POST /v1/submit` batch on an in-process
    /// server with `workers` workers, and returns every slot's final
    /// event plus the stats once the pool has drained.
    fn batch_of(workers: usize, elements: Vec<Value>) -> (Vec<Value>, Value) {
        let config = ServeConfig::builder().workers(workers).build();
        let server = Arc::new(crate::server::Server::new(Arc::new(Service::new(config))));
        let pool = server.start_workers();
        let body = Value::Array(elements).to_string();
        let (status, reply) = crate::http::handle_submit(&server, &body);
        server.begin_shutdown();
        pool.into_iter()
            .for_each(|worker| worker.join().expect("join"));
        assert_eq!(status, 200, "{reply}");
        let slots = reply["results"].as_array().expect("results");
        let last = |slot: &Value| slot["events"].as_array().and_then(|e| e.last()).cloned();
        let finals = slots.iter().map(|slot| last(slot).expect("event"));
        (finals.collect(), server.stats_json())
    }

    #[test]
    fn config_builder_round_trips() {
        let config = ServeConfig::builder()
            .workers(3)
            .queue_capacity(9)
            .deadline(Some(Duration::from_millis(5)))
            .fuel(Some(100))
            .cache_bytes(1 << 20)
            .cache_dir("/tmp/somewhere")
            .tcp("127.0.0.1:0")
            .http("127.0.0.1:0")
            .http_max_body(1 << 10)
            .read_timeout_ms(1500)
            .write_timeout_ms(0)
            .idle_timeout_ms(7000)
            .line_max_bytes(4 << 10)
            .build();
        assert_eq!(config.effective_workers(), 3);
        assert_eq!(config.effective_http_max_body(), 1 << 10);
        assert_eq!(config.effective_queue_capacity(), 9);
        assert_eq!(config.deadline(), Some(Duration::from_millis(5)));
        assert_eq!(config.fuel(), Some(100));
        assert_eq!(config.cache_bytes(), Some(1 << 20));
        assert_eq!(
            config.cache_dir(),
            Some(std::path::Path::new("/tmp/somewhere"))
        );
        assert_eq!(config.tcp(), Some("127.0.0.1:0"));
        assert_eq!(config.http(), Some("127.0.0.1:0"));
        assert_eq!(
            config.effective_read_timeout(),
            Some(Duration::from_millis(1500))
        );
        assert_eq!(config.effective_write_timeout(), None, "0 disables");
        assert_eq!(
            config.effective_idle_timeout(),
            Some(Duration::from_millis(7000))
        );
        assert_eq!(config.effective_line_max_bytes(), 4 << 10);
        let defaults = ServeConfig::default();
        assert_eq!(defaults, ServeConfig::builder().build());
        assert!(defaults.effective_workers() >= 1, "0 means one per core");
        assert_eq!(defaults.effective_queue_capacity(), DEFAULT_QUEUE_CAPACITY);
        assert_eq!(defaults.effective_http_max_body(), DEFAULT_HTTP_MAX_BODY);
        assert!(defaults.cache_bytes().is_none());
        assert!(defaults.cache_dir().is_none());
        assert_eq!(
            defaults.effective_read_timeout(),
            Some(Duration::from_millis(DEFAULT_READ_TIMEOUT_MS))
        );
        assert_eq!(
            defaults.effective_idle_timeout(),
            Some(Duration::from_millis(DEFAULT_IDLE_TIMEOUT_MS))
        );
        assert_eq!(defaults.effective_line_max_bytes(), DEFAULT_LINE_MAX_BYTES);
    }

    #[test]
    fn batch_results_preserve_request_order() {
        let names = ["logic_gate_or", "logic_gate_and", "rotary_pump_mixer"];
        let elements = names.map(|name| json!({ "benchmark": name, "stages": ["validate"] }));
        let (finals, _) = batch_of(0, elements.to_vec());
        assert_eq!(finals.len(), names.len());
        for (done, name) in finals.iter().zip(names) {
            assert_eq!(done["event"], Value::from("done"));
            assert_eq!(done["design"], Value::from(name));
        }
    }

    #[test]
    fn batch_submissions_coalesce_duplicate_designs() {
        // Six identical batch elements spread over four workers must
        // compile and validate exactly once — the rest replay from the
        // cache or park behind the in-flight leader. This is the
        // single-flight guarantee every queued submission inherits.
        let element =
            |id| json!({ "id": id, "benchmark": "logic_gate_or", "stages": ["validate"] });
        let (finals, stats) = batch_of(4, (0..6u64).map(element).collect());
        assert_eq!(finals.len(), 6);
        for (i, done) in finals.iter().enumerate() {
            assert_eq!(done["event"], Value::from("done"));
            assert_eq!(done["id"], Value::from(i as u64));
        }
        assert_eq!(stats["requests"]["submitted"], Value::from(6u64));
        assert_eq!(
            stats["counters"]["serve.compile.executed"],
            Value::from(1u64)
        );
        assert_eq!(stats["counters"]["serve.stage.executed"], Value::from(1u64));
        assert_eq!(stats["counters"]["serve.stage.replayed"], Value::from(5u64));
    }

    #[test]
    fn a_benchmark_submission_streams_cells_then_done() {
        let service = Service::new(ServeConfig::default());
        let events = events_of(&service, &submit("logic_gate_or"));
        assert_eq!(events.len(), 2);
        assert_eq!(events[0]["event"], Value::from("cell"));
        assert_eq!(events[0]["cell"]["stage"], Value::from("validate"));
        assert_eq!(events[0]["cell"]["status"], Value::from("ok"));
        assert_eq!(events[0]["cached"], Value::from(false));
        assert_eq!(events[1]["event"], Value::from("done"));
        assert_eq!(events[1]["design"], Value::from("logic_gate_or"));
    }

    #[test]
    fn resubmission_replays_from_the_cache() {
        let service = Service::new(ServeConfig::default());
        let first = events_of(&service, &submit("logic_gate_or"));
        let second = events_of(&service, &submit("logic_gate_or"));
        assert_eq!(second[0]["cached"], Value::from(true));
        assert_eq!(second[1]["cached"], Value::from(true));
        assert_eq!(
            first[0]["cell"], second[0]["cell"],
            "replayed cell is identical"
        );
        let cache = &service.stats_json()["cache"];
        assert_eq!(
            (&cache["memory_hits"], &cache["stage_hits"]),
            (&1.into(), &1.into())
        );
        assert_eq!(cache["misses"], Value::from(1u64));
    }

    #[test]
    fn bounded_requests_bypass_the_cache() {
        let service = Service::new(ServeConfig::default());
        let mut bounded = submit("logic_gate_or");
        bounded.fuel = Some(u64::MAX);
        let first = events_of(&service, &bounded);
        let second = events_of(&service, &bounded);
        assert_eq!(first[0]["cached"], Value::from(false));
        assert_eq!(second[0]["cached"], Value::from(false));
        assert_eq!(service.cache().len(), 0);
        let cache = &service.stats_json()["cache"];
        assert_eq!(
            (&cache["memory_hits"], &cache["misses"]),
            (&0.into(), &0.into()),
            "bounded runs never touch the cache"
        );
    }

    #[test]
    fn unknown_designs_error_and_unknown_stages_fail_cells() {
        let service = Service::new(ServeConfig::default());
        let mut missing = submit("no_such_benchmark");
        missing.stages = None;
        let events = events_of(&service, &missing);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0]["event"], Value::from("error"));
        assert_eq!(events[0]["error"]["kind"], Value::from("invalid_design"));

        let mut odd = submit("logic_gate_or");
        odd.stages = Some(vec!["validate".to_string(), "no_such_stage".to_string()]);
        let events = events_of(&service, &odd);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0]["cell"]["status"], Value::from("failed"));
        assert_eq!(events[0]["cell"]["stage"], Value::from("no_such_stage"));
    }

    #[test]
    fn a_hit_replays_without_building_the_device() {
        // `from_json` rejects this document, so only a path that never
        // builds the device can answer it from the cache.
        let doc = r#"{"components":7,"name":"planted"}"#;
        assert!(Device::from_json(doc).is_err());
        let service = Service::new(ServeConfig::default());
        let stages = std::collections::BTreeMap::from([(
            "validate".to_string(),
            StageExec {
                status: parchmint_harness::CellStatus::Ok,
                detail: None,
                metrics: Default::default(),
                trace: None,
                attempts: 1,
            },
        )]);
        let entry = CacheEntry::warm(doc.to_string(), "planted".into(), Duration::ZERO, stages);
        service
            .cache()
            .insert(hash::canonical_hash(doc), Arc::new(entry));
        let request = SubmitRequest {
            source: DesignSource::Json(doc.to_string()),
            ..submit("logic_gate_or")
        };
        let events = events_of(&service, &request);
        assert_eq!(events.len(), 2, "{events:?}");
        assert_eq!(events[0]["cached"], Value::from(true));
        assert_eq!(events[1]["cached"], Value::from(true));
        assert_eq!(events[1]["design"], Value::from("planted"));
    }

    #[test]
    fn stats_snapshot_counts_requests_and_cache_layers() {
        let service = Service::new(ServeConfig::default());
        events_of(&service, &submit("logic_gate_or"));
        events_of(&service, &submit("logic_gate_or"));
        let stats = service.stats_json();
        assert_eq!(stats["schema"], Value::from("parchmint-serve-stats/v2"));
        assert_eq!(stats["proto"]["negotiated"], Value::from(PROTO));
        assert_eq!(stats["requests"]["submitted"], Value::from(2u64));
        assert_eq!(stats["requests"]["completed"], Value::from(2u64));
        assert_eq!(stats["cache"]["entries"], Value::from(1));
        assert_eq!(stats["cache"]["memory_hits"], Value::from(1u64));
        assert_eq!(stats["cache"]["stage_hits"], Value::from(1u64));
        assert_eq!(stats["flights"]["compiles"], Value::from(0));
    }

    #[test]
    fn stats_read_when_done_arrives_count_the_request_ended() {
        let service = Service::new(ServeConfig::default());
        let mut at_done = None;
        service.process_submit(&submit("logic_gate_or"), &mut |event| {
            if event["event"] == "done" {
                at_done = Some(service.stats_json());
            }
        });
        let stats = at_done.expect("the submission ends in `done`");
        assert_eq!(stats["requests"]["completed"], Value::from(1u64), "{stats}");
        assert_eq!(stats["requests"]["in_flight"], Value::from(0), "{stats}");
    }

    #[test]
    fn the_aggregate_keeps_no_sample_series() {
        // A cold full-matrix run anneals a placement and solves a flow
        // network, both of which emit sample series while a recorder is
        // installed; the daemon's aggregate keeps none of them.
        let service = Service::new(ServeConfig::default());
        let mut full = submit("logic_gate_or");
        full.stages = None;
        let events = events_of(&service, &full);
        assert_eq!(events.last().unwrap()["event"], Value::from("done"));
        let summary = service.aggregate.0.summary();
        assert!(summary.counters["pnr.place.sweeps"] > 0, "annealing ran");
        assert!(summary.counters["sim.linear.iterations"] > 0, "flow ran");
        assert!(summary.samples.is_empty(), "{:?}", summary.samples.keys());
        assert_eq!(summary.counters["serve.requests.completed"], 1);
    }
}
