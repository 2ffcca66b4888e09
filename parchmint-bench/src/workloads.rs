//! The four workloads: their set-up, their timed phase, their
//! end-to-end metrics and the correctness checks on what they got back.
//!
//! Load comes from this one process: at most [`CONNECTIONS`] client
//! threads, each owning one persistent connection and running a closed
//! loop (the next request leaves only after the previous one's `done`
//! event, or HTTP response, arrived).

use crate::inputs::{self, Doc, Encoding, SplitMix64};
use crate::layers::{Chains, ReplayPlan};
use crate::report::Metric;
use crate::stats;
use crate::trace::Tracer;
use crate::wire::{check_cells, check_reply, Conn, Daemon, Failure, Reply, Spawned, Transport};
use parchmint::Device;
use parchmint_harness::engine;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Client connections (and client threads) the load comes from: one
/// per core of the 2-core machine the workloads were sized on.
pub const CONNECTIONS: usize = 2;

/// Worker threads of the daemon, of the sweep, and of the traced
/// replay.
pub const WORKERS: usize = 2;

/// Set-ups per daemon run; `setup_s` is their median.
const SERVE_SETUPS: usize = 3;

/// Set-ups per sweep run; `setup_s` is their median.
const SWEEP_SETUPS: usize = 7;

/// Untimed cold requests sent to each fresh daemon before timing
/// starts: a fresh daemon's first FPVA requests run far slower than its
/// steady state.
const COLD_WARMUP: usize = 2;

/// `fpva-cold` sends a fixed number of never-seen designs per run, this
/// many per second of `--seconds` (its steady rate on the 2-core machine
/// the workload was sized on). Every run then does the same work, and
/// the daemon's memory, which grows with every request it records,
/// grows by the same amount.
const COLD_DESIGNS_PER_SECOND: f64 = 1.2;

/// The stages `fpva-warm` requests: a memory hit costs the same whatever
/// the stage set, while each further stage adds seconds to every
/// prefill (place-and-route takes minutes at this size).
const FPVA_WARM_STAGES: &[&str] = &["validate"];

/// The stages `small-warm` and the sweep's serve replay request:
/// everything but place-and-route, so prefill stays short.
const SMALL_STAGES: &[&str] = &["validate", "characterize", "flow", "control"];

/// The stages the sweep child runs on every registry design before it
/// reports ready: all but the searching routers, about 0.4 s in all on
/// the 2-core machine the workloads were sized on. Set-up is then
/// mostly this work rather than the child's start, whose few
/// milliseconds vary with the host's load.
const SWEEP_WARMUP_STAGES: &[&str] = &[
    "validate",
    "characterize",
    "pnr:greedy+straight",
    "pnr:annealing+straight",
    "flow",
    "control",
];

/// Where the sweep workload compares its report.
const BASELINE: &str = "ci/baseline-report.json";

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full registry × stage matrix through `run_suite`.
    SuiteSweep,
    /// Never-seen 11×11 FPVA grids through the daemon, full matrix.
    FpvaCold,
    /// Four 58×58 FPVA documents resubmitted as memory hits.
    FpvaWarm,
    /// Thirty small JSON and MINT documents resubmitted as memory hits.
    SmallWarm,
}

impl Workload {
    /// Every workload, in declaration order.
    pub const ALL: [Workload; 4] = [
        Workload::SuiteSweep,
        Workload::FpvaCold,
        Workload::FpvaWarm,
        Workload::SmallWarm,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteSweep => "suite-sweep",
            Workload::FpvaCold => "fpva-cold",
            Workload::FpvaWarm => "fpva-warm",
            Workload::SmallWarm => "small-warm",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything a timed run produced.
pub struct Outcome {
    /// Requests (or sweep cells) attempted in the timed phase.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Correctness-check violations; any one makes the run incorrect.
    pub problems: Vec<String>,
    /// The end-to-end metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The inputs and measurements the traced replay works from.
    pub replay: ReplayPlan,
}

/// Runs `workload`'s set-up and timed phase.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
    scratch: &Path,
) -> Result<Outcome, String> {
    match workload {
        Workload::SuiteSweep => suite_sweep(seconds, scratch),
        Workload::FpvaCold => {
            let timed = ((seconds * COLD_DESIGNS_PER_SECOND).ceil() as usize).max(CONNECTIONS);
            let devices: Vec<Device> = (0..(COLD_WARMUP + timed) as u64)
                .map(|i| inputs::cold_design(seed, i))
                .collect();
            serve_workload(
                ServeSpec {
                    docs: devices
                        .iter()
                        .map(|d| Doc::new(d, Encoding::Json, None))
                        .collect(),
                    devices,
                    transports: [Transport::Tcp, Transport::Tcp],
                    stages: None,
                    warm: None,
                    pnr_probe: None,
                },
                seconds,
                tracer,
                scratch,
            )
        }
        Workload::FpvaWarm => {
            let devices = inputs::warm_designs(seed);
            let docs: Vec<Doc> = devices
                .iter()
                .map(|d| Doc::new(d, Encoding::Json, Some(FPVA_WARM_STAGES)))
                .collect();
            serve_workload(
                ServeSpec {
                    warm: Some(orders(seed, docs.len())),
                    docs,
                    devices,
                    transports: [Transport::Tcp, Transport::Http],
                    stages: Some(FPVA_WARM_STAGES),
                    pnr_probe: Some(inputs::probe_design(seed)),
                },
                seconds,
                tracer,
                scratch,
            )
        }
        Workload::SmallWarm => {
            let devices = inputs::small_designs();
            let docs: Vec<Doc> = devices
                .iter()
                .flat_map(|d| {
                    [
                        Doc::new(d, Encoding::Json, Some(SMALL_STAGES)),
                        Doc::new(d, Encoding::Mint, Some(SMALL_STAGES)),
                    ]
                })
                .collect();
            serve_workload(
                ServeSpec {
                    warm: Some(orders(seed, docs.len())),
                    docs,
                    devices,
                    transports: [Transport::Tcp, Transport::Http],
                    stages: Some(SMALL_STAGES),
                    pnr_probe: None,
                },
                seconds,
                tracer,
                scratch,
            )
        }
    }
}

/// One seeded order over `len` documents per connection.
fn orders(seed: u64, len: usize) -> [Vec<usize>; CONNECTIONS] {
    std::array::from_fn(|c| {
        let mut order: Vec<usize> = (0..len).collect();
        SplitMix64::new(inputs::derive(seed, 1 << 48 | c as u64)).shuffle(&mut order);
        order
    })
}

fn full_matrix() -> usize {
    parchmint_harness::standard_stages().len()
}

fn median_of(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(f64::NAN)
}

fn setup_metric(setups: &[f64]) -> Metric {
    Metric::new(
        "setup_s",
        "s",
        median_of(setups),
        format!("median of {} set-ups {:.3?}", setups.len(), setups),
    )
}

fn rss_metric(bytes: u64, whose: &str) -> Metric {
    Metric::new(
        "peak_rss_mb",
        "MB",
        bytes as f64 / 1e6,
        format!("VmHWM of the {whose}"),
    )
}

fn latency_detail(latencies: &[f64]) -> String {
    match stats::supported_tail(latencies) {
        Some((p, value)) if p > 50.0 => format!("n={}, p{p} {value:.3} ms", latencies.len()),
        _ => format!("n={}", latencies.len()),
    }
}

/// A daemon workload.
struct ServeSpec {
    /// Every document the workload may send.
    docs: Vec<Doc>,
    /// The designs behind the documents (one per design, in order).
    devices: Vec<Device>,
    /// One transport per connection.
    transports: [Transport; CONNECTIONS],
    /// Stage selection of every request; `None` is the full matrix.
    stages: Option<&'static [&'static str]>,
    /// Warm workloads: each connection's resubmission order. Cold
    /// workloads (`None`) send each document once, in index order.
    warm: Option<[Vec<usize>; CONNECTIONS]>,
    /// The design the traced replay routes when the workload itself
    /// routes nothing.
    pnr_probe: Option<Device>,
}

/// One timed request.
struct Sample {
    doc: usize,
    transport: Transport,
    latency: Duration,
    result: Result<Reply, Failure>,
}

/// Sends each connection its documents once, concurrently, and returns
/// every document's checked reply.
fn prefill(
    conns: &mut [Conn],
    docs: &[Doc],
    assignment: &[Vec<usize>; CONNECTIONS],
    expected: usize,
    ids: &AtomicU64,
) -> Result<BTreeMap<usize, Reply>, String> {
    let results: Vec<Vec<(usize, Result<Reply, String>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(assignment)
            .map(|(conn, indices)| {
                scope.spawn(move || {
                    indices
                        .iter()
                        .map(|&doc| {
                            let id = ids.fetch_add(1, Ordering::Relaxed);
                            let request = conn.request(&docs[doc], id);
                            let reply = conn
                                .submit(&request, id)
                                .and_then(|events| {
                                    check_reply(&events, expected).map_err(|f| format!("{f:?}"))
                                })
                                .map_err(|e| {
                                    format!("set-up request for {}: {e}", docs[doc].design)
                                });
                            (doc, reply)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("set-up client thread"))
            .collect()
    });
    results
        .into_iter()
        .flatten()
        .map(|(doc, reply)| reply.map(|reply| (doc, reply)))
        .collect()
}

fn serve_workload(
    spec: ServeSpec,
    seconds: f64,
    tracer: Option<&Tracer>,
    scratch: &Path,
) -> Result<Outcome, String> {
    let expected = spec.stages.map_or_else(full_matrix, <[_]>::len);
    // Every encoding of a design goes to the same connection, so the
    // connections never wait on each other's compiles.
    let mut names: Vec<&str> = Vec::new();
    let mut prefill_set: [Vec<usize>; CONNECTIONS] = Default::default();
    let count = if spec.warm.is_some() {
        spec.docs.len()
    } else {
        COLD_WARMUP
    };
    for (index, doc) in spec.docs.iter().enumerate().take(count) {
        let ordinal = names
            .iter()
            .position(|d| *d == doc.design)
            .unwrap_or_else(|| {
                names.push(&doc.design);
                names.len() - 1
            });
        prefill_set[ordinal % CONNECTIONS].push(index);
    }
    let ids = AtomicU64::new(1);

    let mut setups = Vec::new();
    let mut session = None;
    for k in 0..SERVE_SETUPS {
        let started = Instant::now();
        let daemon = Daemon::spawn(&scratch.join(format!("cache-{k}")))?;
        let mut conns = spec
            .transports
            .iter()
            .map(|&t| Conn::open(&daemon, t))
            .collect::<Result<Vec<_>, _>>()?;
        let replies = prefill(&mut conns, &spec.docs, &prefill_set, expected, &ids)?;
        setups.push(started.elapsed().as_secs_f64());
        if k + 1 < SERVE_SETUPS {
            drop(conns);
            daemon.shutdown()?;
        } else {
            session = Some((daemon, conns, replies));
        }
    }
    let (daemon, mut conns, prefilled) = session.expect("at least one set-up");

    let before = daemon.stats()?;
    let next_cold = AtomicUsize::new(COLD_WARMUP);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let runs: Vec<(Vec<Sample>, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let (spec, ids, next_cold) = (&spec, &ids, &next_cold);
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut last_done = start;
                    while spec.warm.is_none() || Instant::now() < deadline {
                        let doc = match &spec.warm {
                            Some(orders) => orders[c][samples.len() % orders[c].len()],
                            None => match next_cold.fetch_add(1, Ordering::Relaxed) {
                                i if i < spec.docs.len() => i,
                                _ => break,
                            },
                        };
                        let id = ids.fetch_add(1, Ordering::Relaxed);
                        let request = conn.request(&spec.docs[doc], id);
                        let sent = Instant::now();
                        let events = conn.submit(&request, id);
                        let latency = sent.elapsed();
                        last_done = Instant::now();
                        let broken = events.is_err();
                        let result = events
                            .map_err(Failure::Failed)
                            .and_then(|events| check_reply(&events, expected));
                        if let Some(tracer) = tracer {
                            let key = result
                                .as_ref()
                                .map_or(Value::Null, |r| Value::from(r.key.as_str()));
                            tracer.record(
                                "client.request",
                                sent,
                                latency,
                                vec![
                                    ("request_id", Value::from(id)),
                                    ("key", key),
                                    ("design", Value::from(spec.docs[doc].design.as_str())),
                                    ("transport", Value::from(conn.transport().name())),
                                ],
                            );
                        }
                        samples.push(Sample {
                            doc,
                            transport: conn.transport(),
                            latency,
                            result,
                        });
                        if broken {
                            break;
                        }
                    }
                    (samples, last_done - start)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let timed = start.elapsed();
    let after = daemon.stats()?;
    drop(conns);
    let rss = daemon.shutdown()?;

    let mut problems = Vec::new();
    let mut failed = 0u64;
    let mut stale = 0usize;
    let mut latencies = Vec::new();
    let mut per_transport: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut designs_per_s = 0.0;
    for (samples, busy) in &runs {
        let mut completed = 0usize;
        for sample in samples {
            match &sample.result {
                Ok(reply) => {
                    if spec.warm.is_some() {
                        let cold = &prefilled[&sample.doc];
                        if !reply.cached || reply.cells != cold.cells || reply.key != cold.key {
                            stale += 1;
                        }
                    }
                    completed += 1;
                    let ms = sample.latency.as_secs_f64() * 1e3;
                    latencies.push(ms);
                    per_transport
                        .entry(sample.transport.name())
                        .or_default()
                        .push(ms);
                }
                Err(Failure::Failed(message)) => {
                    failed += 1;
                    if failed <= 3 {
                        problems.push(format!("request failed: {message}"));
                    }
                }
                Err(Failure::Incorrect(message)) => problems.push(message.clone()),
            }
        }
        if completed > 0 {
            designs_per_s += completed as f64 / busy.as_secs_f64();
        }
    }
    let attempted: u64 = runs.iter().map(|(s, _)| s.len() as u64).sum();
    if stale > 0 {
        problems.push(format!(
            "{stale} warm replies were not cached or differ from their cold replies"
        ));
    }
    if latencies.is_empty() {
        problems.push("no request completed in the timed phase".to_string());
    }
    if spec.warm.is_some() {
        // Every timed request must have been a memory hit that
        // compiled and executed nothing.
        let delta = |section: &str, key: &str| {
            let read = |stats: &Value| stats[section][key].as_u64().unwrap_or(0);
            read(&after).saturating_sub(read(&before))
        };
        let work = [
            delta("cache", "misses"),
            delta("cache", "spill_hits"),
            delta("counters", "serve.compile.executed"),
            delta("counters", "serve.stage.executed"),
        ];
        if work != [0; 4] {
            problems.push(format!(
                "warm timed phase did work (misses, spill hits, compiles, stages) = {work:?}"
            ));
        }
    }

    let mut notes = vec![format!(
        "timed phase: {attempted} requests over {CONNECTIONS} connections in {:.2} s",
        timed.as_secs_f64()
    )];
    for (transport, values) in &per_transport {
        notes.push(format!(
            "{transport} p50 {:.3} ms ({})",
            median_of(values),
            latency_detail(values)
        ));
    }
    let metrics = vec![
        setup_metric(&setups),
        Metric::new(
            "p50_ms",
            "ms",
            median_of(&latencies),
            latency_detail(&latencies),
        ),
        Metric::new(
            "designs_per_s",
            "1/s",
            designs_per_s,
            "completed requests per busy second, summed over connections".to_string(),
        ),
        rss_metric(rss, "daemon"),
    ];

    // The traced replay works from the first documents the daemon
    // served in the timed phase (cold), or from the whole warm set.
    let mut timed_replies: BTreeMap<usize, Reply> = BTreeMap::new();
    for sample in runs.iter().flat_map(|(s, _)| s) {
        if let Ok(reply) = &sample.result {
            timed_replies
                .entry(sample.doc)
                .or_insert_with(|| reply.clone());
        }
    }
    let (served, designs): (Vec<Reply>, Vec<Device>) = match spec.warm {
        Some(_) => {
            let served = prefilled
                .iter()
                .filter(|(doc, _)| spec.docs[**doc].encoding == Encoding::Json)
                .map(|(_, reply)| reply.clone())
                .collect();
            (served, spec.devices.clone())
        }
        None => timed_replies
            .iter()
            .take(4)
            .map(|(doc, reply)| (reply.clone(), spec.devices[*doc].clone()))
            .unzip(),
    };
    let serve_docs: Vec<Doc> = match spec.warm {
        Some(_) => spec.docs,
        None => designs
            .iter()
            .map(|d| Doc::new(d, Encoding::Json, None))
            .collect(),
    };
    let pnr = match spec.pnr_probe {
        Some(probe) => vec![probe],
        None => designs.clone(),
    };
    Ok(Outcome {
        attempted,
        failed,
        problems,
        metrics,
        notes,
        replay: ReplayPlan {
            harness_pnr_ms: pnr_walls(&served),
            designs,
            pnr,
            serve_docs,
            stages: spec.stages,
            served,
            stats_window: Some((before, after)),
            chains: None,
        },
    })
}

/// Per design, the summed wall time of its place-and-route cells as
/// the daemon measured them.
fn pnr_walls(replies: &[Reply]) -> BTreeMap<String, f64> {
    replies
        .iter()
        .map(|reply| {
            let total = reply
                .cells
                .iter()
                .zip(&reply.walls)
                .filter(|(cell, _)| {
                    cell["stage"]
                        .as_str()
                        .is_some_and(|s| s.starts_with("pnr:"))
                })
                .map(|(_, wall)| wall)
                .sum();
            (reply.design.clone(), total)
        })
        .filter(|(_, total)| *total > 0.0)
        .collect()
}

/// The suite sweep: `run_suite` over the whole registry and the full
/// stage matrix, in a fresh child process, repeated until `seconds`
/// have passed (at least once).
fn suite_sweep(seconds: f64, scratch: &Path) -> Result<Outcome, String> {
    let baseline =
        std::fs::read_to_string(BASELINE).map_err(|e| format!("cannot read {BASELINE}: {e}"))?;
    let out = scratch.join("sweep");
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let out_arg = out.to_str().ok_or("scratch path is not UTF-8")?;
    let seconds_arg = seconds.to_string();

    let mut setups = Vec::new();
    let mut sweeper = None;
    for k in 0..SWEEP_SETUPS {
        let started = Instant::now();
        let mut child = Spawned::spawn(&["sweep", "--out", out_arg, "--seconds", &seconds_arg])?;
        let ready = child.read_line()?;
        if ready != "ready" {
            return Err(format!("sweep child said `{ready}` instead of ready"));
        }
        setups.push(started.elapsed().as_secs_f64());
        if k + 1 < SWEEP_SETUPS {
            child.finish()?;
        } else {
            sweeper = Some(child);
        }
    }
    let mut child = sweeper.expect("at least one set-up");
    let started = Instant::now();
    child.send_line("go")?;
    let done = child.read_line()?;
    let wall = started.elapsed();
    let sweeps: usize = done
        .strip_prefix("done ")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("sweep child said `{done}` instead of done"))?;
    let rss = child.finish()?;

    let mut problems = Vec::new();
    let mut chain_ms = Vec::new();
    let mut harness_pnr_ms: BTreeMap<String, f64> = BTreeMap::new();
    let mut sweep_walls = Vec::new();
    let (mut attempted, mut failed, mut designs) = (0u64, 0u64, 0usize);
    for k in 0..sweeps {
        let stripped = read(&out.join(format!("report-{k}.json")))?;
        if stripped != baseline {
            problems.push(format!(
                "sweep {k}: stripped report differs from {BASELINE}"
            ));
        }
        let report: Value = serde_json::from_str(&read(&out.join(format!("timing-{k}.json")))?)
            .map_err(|e| format!("bad sweep timing: {e}"))?;
        let cells = report["cells"].as_array().ok_or("report without cells")?;
        attempted += cells.len() as u64;
        failed += cells
            .iter()
            .filter(|c| matches!(c["status"].as_str(), Some("error") | Some("failed")))
            .count() as u64;
        if let Err(failure) = check_cells(cells.iter()) {
            problems.push(format!("sweep {k}: {failure:?}"));
        }
        let timing = &report["timing"];
        let compile = timing["compile"]
            .as_object()
            .ok_or("report without timing")?;
        let cell_walls = timing["cells"].as_object().ok_or("report without timing")?;
        for (design, compile_ms) in compile {
            let prefix = format!("{design}/");
            let stages = cell_walls
                .iter()
                .filter(|(key, _)| key.starts_with(&prefix));
            let mut chain = compile_ms.as_f64().unwrap_or(0.0);
            for (key, wall) in stages {
                let wall = wall.as_f64().unwrap_or(0.0);
                chain += wall;
                if key[prefix.len()..].starts_with("pnr:") && k == 0 {
                    *harness_pnr_ms.entry(design.clone()).or_insert(0.0) += wall;
                }
            }
            chain_ms.push(chain);
        }
        designs += compile.len();
        sweep_walls.push(timing["total_ms"].as_f64().unwrap_or(0.0));
    }
    let sweep_ms: f64 = sweep_walls.iter().sum();
    let threads = WORKERS;
    let metrics = vec![
        setup_metric(&setups),
        Metric::new(
            "p50_ms",
            "ms",
            median_of(&sweep_walls),
            format!("whole-sweep wall time, n={}", sweep_walls.len()),
        ),
        Metric::new(
            "designs_per_s",
            "1/s",
            designs as f64 / wall.as_secs_f64(),
            format!(
                "{designs} designs in {sweeps} sweep(s), {:.2} s",
                wall.as_secs_f64()
            ),
        ),
        rss_metric(rss, "sweep process"),
    ];
    let devices: Vec<Device> = parchmint_suite::suite()
        .iter()
        .map(|b| b.device())
        .collect();
    Ok(Outcome {
        attempted,
        failed,
        problems,
        metrics,
        notes: vec![format!(
            "{sweeps} sweep(s) of {} cells on {threads} threads; harness total {:.0} ms",
            attempted, sweep_ms
        )],
        replay: ReplayPlan {
            serve_docs: devices
                .iter()
                .map(|d| Doc::new(d, Encoding::Json, Some(SMALL_STAGES)))
                .collect(),
            stages: Some(SMALL_STAGES),
            pnr: devices.clone(),
            designs: devices,
            served: Vec::new(),
            harness_pnr_ms,
            stats_window: None,
            chains: Some(Chains {
                chain_ms,
                started,
                wall,
                threads,
            }),
        },
    })
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// The sweep child: warms up (see [`warm_up`]), reports `ready`, and on
/// `go` sweeps the registry with `run_suite` until `seconds` have passed
/// (at least once), writing each stripped report and each timed report
/// under `out`.
pub fn sweep_child(out: &Path, seconds: f64) -> Result<(), String> {
    std::thread::spawn(warm_up)
        .join()
        .map_err(|_| "sweep warm-up panicked".to_string())??;
    println!("ready");
    let mut line = String::new();
    std::io::stdin()
        .read_line(&mut line)
        .map_err(|e| format!("cannot read stdin: {e}"))?;
    if line.trim() == "go" {
        let config = parchmint_harness::SuiteRunConfig::builder()
            .threads(WORKERS)
            .build();
        let started = Instant::now();
        let mut sweeps = 0;
        while sweeps == 0 || started.elapsed().as_secs_f64() < seconds {
            let report = parchmint_harness::run_suite(&config);
            let write = |name: String, text: String| {
                std::fs::write(out.join(&name), text)
                    .map_err(|e| format!("cannot write {name}: {e}"))
            };
            write(
                format!("report-{sweeps}.json"),
                report.to_json_string(false),
            )?;
            write(
                format!("timing-{sweeps}.json"),
                serde_json::to_string(&report.to_json(true)).expect("report serializes"),
            )?;
            sweeps += 1;
        }
        println!("done {sweeps}");
    }
    println!(
        "peak_rss_bytes {}",
        parchmint_benches::peak_rss_bytes().unwrap_or(0)
    );
    Ok(())
}

/// The sweep child's warm-up: generates and compiles every registry
/// design and runs its [`SWEEP_WARMUP_STAGES`] once, on one spawned
/// thread, so the timed sweep starts in a process whose allocator and
/// pages are warm.
fn warm_up() -> Result<(), String> {
    let stages: Vec<_> = parchmint_harness::standard_stages()
        .into_iter()
        .filter(|stage| SWEEP_WARMUP_STAGES.contains(&stage.name.as_str()))
        .collect();
    let policy = engine::ExecPolicy::new();
    for benchmark in parchmint_suite::suite() {
        let compiled = engine::compile_device(|| benchmark.device(), None, false)
            .compiled
            .map_err(|panic| format!("{}: compile panicked: {panic}", benchmark.name()))?;
        for stage in &stages {
            std::hint::black_box(engine::execute_stage(
                stage, &compiled, &policy, None, false,
            ));
        }
    }
    Ok(())
}
