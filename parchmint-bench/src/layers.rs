//! The traced replay: the workload's inputs sent again through each
//! layer's public entry point, one timed span per call, on spawned
//! worker threads as the harness and the daemon run them (calls from
//! the main thread allocate differently and run measurably slower).
//!
//! Five passes, each span a leaf, so a span's duration is its self time:
//!
//! 1. layers — parse, compile, validate, characterize, flow, control,
//!    MINT parse and convert, per design;
//! 2. place-and-route — every placer × router pair per routed design,
//!    place and route timed apart, counts read from an installed
//!    `parchmint_obs::Collector`;
//! 3. engine — `harness::engine::execute_stage` on the designs the
//!    daemon served, whose cells must match;
//! 4. serve — protocol parse, canonical hash, an in-process
//!    `Service::process_submit` cold and then warm, and `Spill::store`;
//! 5. wire — a fresh daemon over the serve pass's spill directory,
//!    warm resubmissions over TCP and HTTP.

use crate::inputs::{Doc, Encoding};
use crate::report::Metric;
use crate::stats;
use crate::trace::{SpanSet, Tracer};
use crate::wire::{check_reply, Conn, Daemon, Reply, Transport};
use crate::workloads::WORKERS;
use parchmint::{CompiledDevice, ComponentId, Device};
use parchmint_harness::{engine, shard_map, stage_matches, standard_stages, CellStatus, StageExec};
use parchmint_obs::{Collector, Recorder};
use parchmint_pnr::{PlacerChoice, RouterChoice};
use parchmint_serve::{Request, ServeConfig, Service, Spill};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The replay's summed place-and-route time may differ from the
/// harness's own cell walls for the same designs by at most this share.
/// The sum is over designs, not per design: a single mid-size design's
/// cells swing by up to 2× between two measurements on a 2-core machine
/// (the first large allocations of fresh worker threads fault their
/// pages in concurrently), which would fail a per-design rule at random.
const PNR_AGREEMENT: f64 = 0.25;

/// Designs whose place-and-route cells took less than this (harness
/// walls) are left out of the agreement check: their fixed per-call
/// costs and timer noise are a large share of a few milliseconds.
const PNR_AGREEMENT_FLOOR_MS: f64 = 250.0;

/// Timed warm resubmissions per document and transport in the wire
/// pass.
const WIRE_REPEATS: usize = 2;

/// Per-design chains of work run on a pool of threads: a sweep's, or
/// the replay's place-and-route pass.
#[derive(Clone)]
pub struct Chains {
    /// Each design's chain of calls, in milliseconds.
    pub chain_ms: Vec<f64>,
    /// When the pool started.
    pub started: Instant,
    /// How long the pool ran.
    pub wall: Duration,
    /// Threads in the pool.
    pub threads: usize,
}

/// What the traced replay of one workload works from.
pub struct ReplayPlan {
    /// Designs for the layer pass.
    pub designs: Vec<Device>,
    /// Designs for the place-and-route pass.
    pub pnr: Vec<Device>,
    /// Documents for the serve and wire passes.
    pub serve_docs: Vec<Doc>,
    /// Stage selection of those documents (`None`: full matrix).
    pub stages: Option<&'static [&'static str]>,
    /// Daemon replies for designs in `designs`, to compare with the
    /// harness engine.
    pub served: Vec<Reply>,
    /// Per design, the summed place-and-route cell walls the harness or
    /// the daemon measured.
    pub harness_pnr_ms: BTreeMap<String, f64>,
    /// Daemon `stats` before and after the timed phase.
    pub stats_window: Option<(Value, Value)>,
    /// The sweep's own chains, when the workload is a sweep.
    pub chains: Option<Chains>,
}

/// Runs `body` with a fresh collector installed and returns its result
/// with the counters it recorded.
fn counted<T>(body: impl FnOnce() -> T) -> (T, BTreeMap<&'static str, u64>) {
    let collector = Arc::new(Collector::new());
    let recorder: Arc<dyn Recorder> = Arc::clone(&collector) as Arc<dyn Recorder>;
    let value = parchmint_obs::with_recorder(recorder, body);
    (value, collector.summary().counters)
}

/// Ports in the flow network, the boundary the harness drives.
fn flow_ports(compiled: &CompiledDevice, network: &parchmint_sim::FlowNetwork) -> Vec<ComponentId> {
    compiled
        .device()
        .components
        .iter()
        .filter(|c| c.entity.is_port() && network.contains(&c.id))
        .map(|c| c.id.clone())
        .collect()
}

/// Runs the replay, adding its spans to `tracer` and any broken check to
/// `problems`, and returns the per-layer metrics.
pub fn replay(
    plan: &ReplayPlan,
    tracer: &Tracer,
    scratch: &Path,
    problems: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    layer_pass(plan, tracer, problems);
    let chains = pnr_pass(plan, tracer, problems);
    engine_pass(plan, problems);
    let warm_ms = serve_pass(plan, tracer, scratch, problems);
    let wire_window = wire_pass(plan, tracer, scratch, problems)?;

    let sets = tracer.sets();
    let set = |name: &str| -> Result<&SpanSet, String> {
        sets.get(name)
            .ok_or_else(|| format!("the trace has no `{name}` span"))
    };
    let median_ms = |name: &str| -> Result<(f64, String), String> {
        let set = set(name)?;
        let millis = set.millis();
        Ok((
            stats::median(&millis).unwrap_or(f64::NAN),
            format!(
                "median self time of {} calls, total {:.3} ms",
                millis.len(),
                set.total().as_secs_f64() * 1e3
            ),
        ))
    };
    let mut metrics = Vec::new();
    let mut timed = |metric: &'static str, span: &str| -> Result<(), String> {
        let (value, detail) = median_ms(span)?;
        metrics.push(Metric::new(metric, "ms", value, detail));
        Ok(())
    };
    timed("core.parse_ms", "core.parse")?;
    timed("ir.compile_ms", "ir.compile")?;
    timed("mint.parse_ms", "mint.parse")?;
    timed("mint.convert_ms", "mint.convert")?;
    timed("verify.validate_ms", "verify.validate")?;
    timed("stats.characterize_ms", "stats.characterize")?;
    timed("sim.flow_ms", "sim.flow")?;
    timed("control.plan_ms", "control.plan")?;
    timed("pnr.place.greedy_ms", "pnr.place.greedy")?;
    timed("pnr.place.annealing_ms", "pnr.place.annealing")?;
    timed("pnr.route.straight_ms", "pnr.route.straight")?;
    timed("pnr.route.astar_ms", "pnr.route.astar")?;
    timed("pnr.route.negotiate_ms", "pnr.route.negotiate")?;
    timed("serve.protocol_parse_ms", "serve.protocol_parse")?;
    timed("serve.hash_ms", "serve.hash")?;
    timed("serve.request_cold_ms", "serve.request_cold")?;
    timed("serve.request_warm_ms", "serve.request_warm")?;
    timed("serve.spill_store_ms", "serve.spill_store")?;

    let parse = set("core.parse")?;
    metrics.push(Metric::new(
        "core.parse_mb_per_s",
        "MB/s",
        parchmint_benches::mb_per_sec(parse.sum("bytes") as usize, parse.total()),
        format!(
            "{:.0} bytes over {} calls",
            parse.sum("bytes"),
            parse.durations.len()
        ),
    ));
    let count = |metric: &'static str, span: &str, arg: &str| -> Result<Metric, String> {
        let set = set(span)?;
        Ok(Metric::new(
            metric,
            "count",
            set.sum(arg),
            format!("summed over {} `{span}` calls", set.durations.len()),
        ))
    };
    metrics.push(count(
        "sim.linear_iterations",
        "sim.flow",
        "linear_iterations",
    )?);
    metrics.push(count(
        "pnr.place.annealing_moves",
        "pnr.place.annealing",
        "moves",
    )?);
    metrics.push(count(
        "pnr.route.astar_expansions",
        "pnr.route.astar",
        "expansions",
    )?);
    metrics.push(count(
        "pnr.route.negotiate_expansions",
        "pnr.route.negotiate",
        "expansions",
    )?);
    metrics.push(count(
        "pnr.route.negotiate_iterations",
        "pnr.route.negotiate",
        "iterations",
    )?);
    for (metric, span) in [
        ("pnr.route.astar_routed_frac", "pnr.route.astar"),
        ("pnr.route.negotiate_routed_frac", "pnr.route.negotiate"),
    ] {
        let set = set(span)?;
        metrics.push(Metric::new(
            metric,
            "ratio",
            set.sum("routed") / set.sum("nets"),
            format!("{:.0} of {:.0} nets", set.sum("routed"), set.sum("nets")),
        ));
    }

    let warm_p50 = stats::median(&warm_ms).unwrap_or(f64::NAN);
    for (metric, span) in [
        ("serve.wire_overhead_tcp_ms", "serve.wire.tcp"),
        ("serve.wire_overhead_http_ms", "serve.wire.http"),
    ] {
        let (wire_p50, _) = median_ms(span)?;
        metrics.push(Metric::new(
            metric,
            "ms",
            wire_p50 - warm_p50,
            format!("wire p50 {wire_p50:.3} ms minus in-process warm p50 {warm_p50:.3} ms"),
        ));
    }

    let (before, after) = plan.stats_window.as_ref().unwrap_or(&wire_window);
    let delta = |path: &[&str]| {
        let read = |stats: &Value| {
            path.iter()
                .fold(stats, |value, key| &value[*key])
                .as_f64()
                .unwrap_or(0.0)
        };
        read(after) - read(before)
    };
    let hits = delta(&["cache", "memory_hits"]);
    let lookups = hits + delta(&["cache", "spill_hits"]) + delta(&["cache", "misses"]);
    let window = [
        ("serve.cache.memory_hit_ratio", "ratio", hits / lookups),
        (
            "serve.compile.executed",
            "count",
            delta(&["counters", "serve.compile.executed"]),
        ),
        (
            "serve.stage.executed",
            "count",
            delta(&["counters", "serve.stage.executed"]),
        ),
        (
            "serve.busy_refusals",
            "count",
            delta(&["requests", "rejected"]),
        ),
    ];
    let source = if plan.stats_window.is_some() {
        "timed phase"
    } else {
        "wire pass"
    };
    tracer.record(
        "serve.stats",
        Instant::now(),
        Duration::ZERO,
        window
            .iter()
            .map(|(name, _, value)| (*name, Value::from(*value)))
            .chain([("window", Value::from(source))])
            .collect(),
    );
    for (name, unit, value) in window {
        metrics.push(Metric::new(
            name,
            unit,
            value,
            format!("daemon stats delta over the {source}"),
        ));
    }

    let (chains, source) = match &plan.chains {
        Some(sweep) => (sweep.clone(), "sweep"),
        None => (chains, "place-and-route pass"),
    };
    let wall_ms = chains.wall.as_secs_f64() * 1e3;
    let threads = chains.threads;
    let straggler = chains.chain_ms.iter().copied().fold(0.0, f64::max) / 1e3;
    let efficiency = chains.chain_ms.iter().sum::<f64>() / (threads as f64 * wall_ms);
    tracer.record(
        "harness.chains",
        chains.started,
        chains.wall,
        vec![
            ("straggler_s", Value::from(straggler)),
            ("parallel_efficiency", Value::from(efficiency)),
            ("source", Value::from(source)),
        ],
    );
    metrics.push(Metric::new(
        "harness.straggler_s",
        "s",
        straggler,
        format!("longest of {} chains ({source})", chains.chain_ms.len()),
    ));
    metrics.push(Metric::new(
        "harness.parallel_efficiency",
        "ratio",
        efficiency,
        format!("summed chains / ({threads} threads × {wall_ms:.0} ms wall) ({source})"),
    ));
    Ok(metrics)
}

/// Pass 1: every non-routing layer on every design.
fn layer_pass(plan: &ReplayPlan, tracer: &Tracer, problems: &mut Vec<String>) {
    let failures = shard_map(&plan.designs, WORKERS, |_, design| {
        let json = design.to_json().map_err(|e| e.to_string())?;
        let mint = parchmint_mint::print(&parchmint_mint::device_to_mint(design));
        let device = tracer.span_with("core.parse", || {
            (
                Device::from_json_fast(&json),
                vec![("bytes", Value::from(json.len()))],
            )
        });
        let device = device.map_err(|e| format!("{}: parse: {e}", design.name))?;
        let compiled = tracer.span("ir.compile", || CompiledDevice::compile(device));
        tracer.span("verify.validate", || parchmint_verify::validate(&compiled));
        tracer.span("stats.characterize", || {
            parchmint_stats::DeviceStats::of(&compiled)
        });
        let (ports, residual) = tracer.span_with("sim.flow", || {
            let (solved, counters) = counted(|| {
                let network =
                    parchmint_sim::FlowNetwork::new(&compiled, parchmint_sim::Fluid::WATER);
                let ports = flow_ports(&compiled, &network);
                let boundary: Vec<(ComponentId, f64)> = ports
                    .iter()
                    .enumerate()
                    .map(|(i, id)| (id.clone(), if i == 0 { 1000.0 } else { 0.0 }))
                    .collect();
                let residual = network
                    .solve_resilient(&boundary)
                    .map(|(solution, _)| solution.max_conservation_error(&ports));
                (ports, residual)
            });
            let iterations = counters.get("sim.linear.iterations").copied().unwrap_or(0);
            (solved, vec![("linear_iterations", Value::from(iterations))])
        });
        match residual {
            Ok(error) if error <= crate::wire::MAX_CONSERVATION_ERROR => {}
            Ok(error) => {
                return Err(format!(
                    "{}: flow conservation error {error:e}",
                    design.name
                ))
            }
            Err(e) => return Err(format!("{}: flow: {e}", design.name)),
        }
        if let [from, .., to] = ports.as_slice() {
            tracer
                .span("control.plan", || {
                    parchmint_control::plan_flow(&compiled, from, to)
                })
                .map_err(|e| format!("{}: control: {e}", design.name))?;
        }
        let file = tracer
            .span("mint.parse", || parchmint_mint::parse(&mint))
            .map_err(|e| format!("{}: MINT parse: {e}", design.name))?;
        tracer
            .span("mint.convert", || parchmint_mint::mint_to_device(&file))
            .map_err(|e| format!("{}: MINT convert: {e}", design.name))?;
        Ok(())
    });
    problems.extend(failures.into_iter().filter_map(Result::err));
}

fn place_span(placer: PlacerChoice) -> &'static str {
    match placer {
        PlacerChoice::Greedy => "pnr.place.greedy",
        PlacerChoice::Annealing => "pnr.place.annealing",
    }
}

fn route_span(router: RouterChoice) -> &'static str {
    match router {
        RouterChoice::Straight => "pnr.route.straight",
        RouterChoice::AStar => "pnr.route.astar",
        RouterChoice::Negotiate => "pnr.route.negotiate",
    }
}

/// Pass 2: each design through every placer × router pair, exactly as
/// the harness's place-and-route stages run them. Returns each design's
/// summed place-and-route time as a chain, and checks the sum against the
/// harness's own cell walls.
fn pnr_pass(plan: &ReplayPlan, tracer: &Tracer, problems: &mut Vec<String>) -> Chains {
    let started = Instant::now();
    let chains = shard_map(&plan.pnr, WORKERS, |_, design| {
        let mut total = Duration::ZERO;
        for &placer in PlacerChoice::ALL {
            for &router in RouterChoice::ALL {
                let mut device = design.clone();
                let unplaced = CompiledDevice::from_ref(&device);
                let started = Instant::now();
                let (placement, counters) = counted(|| placer.placer().place(&unplaced));
                let took = started.elapsed();
                let moves = counters.get("pnr.place.accepted").copied().unwrap_or(0)
                    + counters.get("pnr.place.rejected").copied().unwrap_or(0);
                tracer.record(
                    place_span(placer),
                    started,
                    took,
                    vec![
                        ("design", Value::from(design.name.as_str())),
                        ("moves", Value::from(moves)),
                    ],
                );
                total += took;
                placement.apply_to(&mut device);
                let placed = CompiledDevice::from_ref(&device);
                let started = Instant::now();
                let (routing, counters) = counted(|| router.router().route(&placed));
                let took = started.elapsed();
                let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
                tracer.record(
                    route_span(router),
                    started,
                    took,
                    vec![
                        ("design", Value::from(design.name.as_str())),
                        ("placer", Value::from(placer.placer().name())),
                        ("routed", Value::from(routing.routed.len())),
                        (
                            "nets",
                            Value::from(routing.routed.len() + routing.failed.len()),
                        ),
                        ("expansions", Value::from(counter("pnr.route.expansions"))),
                        (
                            "iterations",
                            Value::from(counter("pnr.route.negotiate.iterations")),
                        ),
                    ],
                );
                total += took;
            }
        }
        total.as_secs_f64() * 1e3
    });
    let checked: Vec<(&str, f64, f64)> = plan
        .pnr
        .iter()
        .zip(&chains)
        .filter_map(|(design, &replayed)| {
            let harness = *plan.harness_pnr_ms.get(&design.name)?;
            (harness >= PNR_AGREEMENT_FLOOR_MS).then_some((design.name.as_str(), replayed, harness))
        })
        .collect();
    let replayed: f64 = checked.iter().map(|c| c.1).sum();
    let harness: f64 = checked.iter().map(|c| c.2).sum();
    if !checked.is_empty() && (replayed / harness - 1.0).abs() > PNR_AGREEMENT {
        let per_design: Vec<String> = checked
            .iter()
            .map(|(name, r, h)| format!("{name} {r:.0}/{h:.0}"))
            .collect();
        problems.push(format!(
            "replayed place-and-route took {replayed:.0} ms against the harness's {harness:.0} ms, more than {:.0}% apart (replayed/harness ms: {})",
            PNR_AGREEMENT * 100.0,
            per_design.join(", ")
        ));
    }
    Chains {
        chain_ms: chains,
        started,
        wall: started.elapsed(),
        threads: WORKERS,
    }
}

/// The `cell` object the daemon would serve for `exec`.
fn cell_of(design: &str, stage: &str, exec: &StageExec) -> Value {
    parchmint_serve::protocol::cell_event(
        &Value::Null,
        design,
        stage,
        exec.status.as_str(),
        exec.detail.as_deref(),
        &exec.metrics,
        0.0,
        false,
    )["cell"]
        .clone()
}

/// The stages a submission with `selectors` runs, in matrix order.
fn selected_stages(selectors: Option<&[&str]>) -> Vec<parchmint_harness::Stage> {
    standard_stages()
        .into_iter()
        .filter(|stage| selectors.is_none_or(|s| s.iter().any(|s| stage_matches(s, &stage.name))))
        .collect()
}

/// Pass 3: the daemon's cells must equal the harness engine's, run
/// directly on the same designs.
fn engine_pass(plan: &ReplayPlan, problems: &mut Vec<String>) {
    let stages = selected_stages(plan.stages);
    let mismatches = shard_map(&plan.served, WORKERS, |_, reply| {
        let Some(design) = plan.designs.iter().find(|d| d.name == reply.design) else {
            return Some(format!(
                "{}: served design not in the replay set",
                reply.design
            ));
        };
        let design = design.clone();
        let compiled = match engine::compile_device(move || design, None, false).compiled {
            Ok(compiled) => compiled,
            Err(panic) => return Some(format!("{}: compile panicked: {panic}", reply.design)),
        };
        let policy = engine::ExecPolicy::new();
        let cells: Vec<Value> = stages
            .iter()
            .map(|stage| {
                let exec = engine::execute_stage(stage, &compiled, &policy, None, false);
                cell_of(&reply.design, &stage.name, &exec)
            })
            .collect();
        (cells != reply.cells).then(|| {
            format!(
                "{}: daemon cells differ from harness::engine::execute_stage",
                reply.design
            )
        })
    });
    problems.extend(mismatches.into_iter().flatten());
}

/// The stage map `Spill::store` persists, rebuilt from served cells.
fn stage_map(cells: &[Value]) -> BTreeMap<String, StageExec> {
    cells
        .iter()
        .map(|cell| {
            let metrics = cell["metrics"]
                .as_object()
                .map(|m| m.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
                .unwrap_or_default();
            let exec = StageExec {
                status: cell["status"]
                    .as_str()
                    .and_then(CellStatus::parse)
                    .unwrap_or(CellStatus::Failed),
                detail: cell["detail"].as_str().map(str::to_string),
                metrics,
                trace: None,
                attempts: 1,
            };
            (cell["stage"].as_str().unwrap_or_default().to_string(), exec)
        })
        .collect()
}

/// Pass 4: the request path in-process. Returns the warm
/// `process_submit` times in milliseconds.
fn serve_pass(
    plan: &ReplayPlan,
    tracer: &Tracer,
    scratch: &Path,
    problems: &mut Vec<String>,
) -> Vec<f64> {
    let service = Service::new(
        ServeConfig::builder()
            .workers(WORKERS)
            .cache_dir(scratch.join("replay-spill"))
            .build(),
    );
    let spill = Spill::open(scratch.join("replay-spill-direct"));
    let expected = plan
        .stages
        .map_or_else(|| standard_stages().len(), <[_]>::len);
    let outcomes = shard_map(&plan.serve_docs, WORKERS, |index, doc| {
        let line = doc.tcp_line(index as u64);
        let request = tracer.span("serve.protocol_parse", || {
            parchmint_serve::parse_request(line.trim_end())
        });
        let Ok(Request::Submit(request)) = request else {
            return Err(format!("{}: request did not parse", doc.design));
        };
        let document = match doc.encoding {
            Encoding::Json => {
                let value: Value =
                    serde_json::from_str(&doc.text).map_err(|e| format!("{}: {e}", doc.design))?;
                tracer.span("serve.hash", || parchmint_serve::hash::content_hash(&value));
                Some(value)
            }
            Encoding::Mint => None,
        };
        let submit = |name: &'static str| {
            tracer.span(name, || {
                let mut events = Vec::new();
                service.process_submit(&request, &mut |event| events.push(event));
                events
            })
        };
        let cold = check_reply(&submit("serve.request_cold"), expected)
            .map_err(|f| format!("{}: in-process cold request: {f:?}", doc.design))?;
        let started = Instant::now();
        let warm = check_reply(&submit("serve.request_warm"), expected)
            .map_err(|f| format!("{}: in-process warm request: {f:?}", doc.design))?;
        let warm_ms = started.elapsed().as_secs_f64() * 1e3;
        if !warm.cached || warm.cells != cold.cells {
            return Err(format!("{}: in-process warm reply differs", doc.design));
        }
        // The daemon rewrites a design's spill file after its compile
        // and after every stage; replay those writes.
        if let Some(document) = &document {
            for stored in 0..=cold.cells.len() {
                let stages = stage_map(&cold.cells[..stored]);
                tracer.span("serve.spill_store", || {
                    spill.store(&cold.key, document, Duration::ZERO, &stages)
                });
            }
        }
        Ok(warm_ms)
    });
    let mut warm = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(ms) => warm.push(ms),
            Err(problem) => problems.push(problem),
        }
    }
    warm
}

/// Pass 5: a daemon restarted over the serve pass's spill directory.
/// Each document goes once, untimed, over TCP (a spill hit); then one TCP
/// and one HTTP connection resubmit every document concurrently, the
/// warm workloads' timed pattern, one span per request. Returns the
/// daemon's stats around the timed requests.
fn wire_pass(
    plan: &ReplayPlan,
    tracer: &Tracer,
    scratch: &Path,
    problems: &mut Vec<String>,
) -> Result<(Value, Value), String> {
    let daemon = Daemon::spawn(&scratch.join("replay-spill"))?;
    let window = wire_requests(plan, tracer, &daemon, problems);
    let rss = daemon.shutdown();
    let window = window?;
    rss?;
    Ok(window)
}

fn wire_requests(
    plan: &ReplayPlan,
    tracer: &Tracer,
    daemon: &Daemon,
    problems: &mut Vec<String>,
) -> Result<(Value, Value), String> {
    let expected = plan
        .stages
        .map_or_else(|| standard_stages().len(), <[_]>::len);
    let mut conns = [
        Conn::open(daemon, Transport::Tcp)?,
        Conn::open(daemon, Transport::Http)?,
    ];
    let ids = AtomicU64::new(1);
    let send = |conn: &mut Conn, doc: &Doc, span: Option<&'static str>| {
        let id = ids.fetch_add(1, Ordering::Relaxed);
        let request = conn.request(doc, id);
        let started = Instant::now();
        let events = conn.submit(&request, id);
        if let Some(span) = span {
            tracer.record(
                span,
                started,
                started.elapsed(),
                vec![
                    ("request_id", Value::from(id)),
                    ("design", Value::from(doc.design.as_str())),
                ],
            );
        }
        events
            .map_err(|e| format!("{}: {e}", doc.design))
            .and_then(|events| {
                check_reply(&events, expected).map_err(|f| format!("{}: {f:?}", doc.design))
            })
    };
    let first: Vec<Reply> = std::thread::scope(|scope| {
        let tcp = &mut conns[0];
        scope
            .spawn(|| {
                plan.serve_docs
                    .iter()
                    .map(|doc| send(tcp, doc, None))
                    .collect::<Result<Vec<_>, _>>()
            })
            .join()
            .expect("wire client thread")
    })?;
    let before = daemon.stats()?;
    let mismatches: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let (send, first) = (&send, &first);
                scope.spawn(move || {
                    let span = match conn.transport() {
                        Transport::Tcp => "serve.wire.tcp",
                        Transport::Http => "serve.wire.http",
                    };
                    let mut bad = Vec::new();
                    for _ in 0..WIRE_REPEATS {
                        for (doc, reference) in plan.serve_docs.iter().zip(first) {
                            match send(conn, doc, Some(span)) {
                                Ok(reply) if reply.cached && reply.cells == reference.cells => {}
                                Ok(_) => bad.push(format!(
                                    "{}: warm wire reply differs or was not cached",
                                    doc.design
                                )),
                                Err(error) => bad.push(error),
                            }
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("wire client thread"))
            .collect()
    });
    problems.extend(mismatches);
    let after = daemon.stats()?;
    Ok((before, after))
}
