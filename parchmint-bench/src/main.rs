//! `parchmint-bench`: one command that runs one named workload from a
//! seed, prints every end-to-end metric (or, traced, every per-layer
//! metric) by name with its unit, checks the outputs, and ends with a
//! one-line JSON result.
//!
//! ```text
//! parchmint-bench --workload W --seed N --seconds S --trace 0|1
//! parchmint-bench compare PARENT... -- CHANGE...
//! ```
//!
//! Run it from the repository root: it reads `BENCHMARK.json` (the
//! metric declarations) and `ci/baseline-report.json` (the sweep's
//! expected report), and writes its scratch files and traces under
//! `.parchmint-bench/`.

mod compare;
mod inputs;
mod layers;
mod report;
mod stats;
mod trace;
mod wire;
mod workloads;

use report::{check_declared, result_line, Declared};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;
use workloads::Workload;

/// Where runs keep scratch files and traces, relative to the working
/// directory.
const OUT_DIR: &str = ".parchmint-bench";

const USAGE: &str = "usage: parchmint-bench --workload W --seed N --seconds S --trace 0|1\n       parchmint-bench compare PARENT... -- CHANGE...";

/// A benchmark run's arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    let at = args
        .iter()
        .position(|a| a == name)
        .ok_or_else(|| format!("missing {name}\n{USAGE}"))?;
    args.get(at + 1)
        .map(String::as_str)
        .ok_or_else(|| format!("{name} needs a value"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let known = ["--workload", "--seed", "--seconds", "--trace"];
    for pair in args.chunks(2) {
        if !known.contains(&pair[0].as_str()) {
            return Err(format!("unknown argument `{}`\n{USAGE}", pair[0]));
        }
    }
    let name = flag(args, "--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (one of {})", names.join(", "))
    })?;
    let seed = flag(args, "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = flag(args, "--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".to_string());
    }
    let trace = match flag(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Removes the run's scratch directory when the run ends, however it
/// ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload; `Ok(true)` when every check passed.
fn bench(args: &Args) -> Result<bool, String> {
    let declared = Declared::load("BENCHMARK.json")?;
    if !declared.workloads.iter().any(|w| w == args.workload.name()) {
        return Err(format!(
            "workload `{}` is not declared in BENCHMARK.json",
            args.workload.name()
        ));
    }
    let scratch = Scratch(Path::new(OUT_DIR).join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("cannot create {}: {e}", scratch.0.display()))?;
    println!(
        "parchmint-bench workload={} seed={} seconds={} trace={} threads_available={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let tracer = args.trace.then(Tracer::new);
    let started = std::time::Instant::now();
    let mut outcome = workloads::run(
        args.workload,
        args.seed,
        args.seconds,
        tracer.as_ref(),
        &scratch.0,
    )?;
    for note in &outcome.notes {
        println!("  {note}");
    }
    for metric in &outcome.metrics {
        println!(
            "  end-to-end {} = {:.6} {} ({})",
            metric.name, metric.value, metric.unit, metric.detail
        );
    }
    let metrics = match &tracer {
        None => {
            check_declared(&outcome.metrics, &declared.end_to_end)?;
            outcome.metrics
        }
        Some(tracer) => {
            let timed_spans = tracer.len();
            let layers =
                layers::replay(&outcome.replay, tracer, &scratch.0, &mut outcome.problems)?;
            for metric in &layers {
                println!(
                    "  layer {} = {:.6} {} ({})",
                    metric.name, metric.value, metric.unit, metric.detail
                );
            }
            println!(
                "  tracing overhead: {timed_spans} spans recorded during the timed phase at {:.0} ns each; the end-to-end lines above are the traced run's, compare them with an untraced run of the same seed",
                span_cost_ns()
            );
            let path = Path::new(OUT_DIR).join(format!(
                "trace-{}-seed{}.json",
                args.workload.name(),
                args.seed
            ));
            tracer
                .write_chrome(&path)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("  trace: {} ({} spans)", path.display(), tracer.len());
            check_declared(&layers, &declared.per_layer)?;
            layers
        }
    };
    let correct = outcome.problems.is_empty();
    for problem in &outcome.problems {
        println!("  CHECK FAILED: {problem}");
    }
    println!("  run took {:.1} s", started.elapsed().as_secs_f64());
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &metrics)
    );
    Ok(correct)
}

/// What recording one span costs, measured on a throwaway store.
fn span_cost_ns() -> f64 {
    const SPANS: u32 = 10_000;
    let tracer = Tracer::new();
    let started = std::time::Instant::now();
    for i in 0..SPANS {
        tracer.record(
            "overhead.probe",
            started,
            started.elapsed(),
            vec![("request_id", serde_json::Value::from(i))],
        );
    }
    started.elapsed().as_secs_f64() * 1e9 / f64::from(SPANS)
}

/// The daemon child: `parchmint serve --workers 2 --cache-dir DIR --tcp
/// 127.0.0.1:0 --http 127.0.0.1:0`, then its peak RSS once it has shut
/// down.
fn daemon(args: &[String]) -> Result<(), String> {
    let dir = flag(args, "--cache-dir")?;
    let config = parchmint_serve::ServeConfig::builder()
        .workers(workloads::WORKERS)
        .cache_dir(dir)
        .tcp("127.0.0.1:0")
        .http("127.0.0.1:0")
        .build();
    parchmint_serve::run(config).map_err(|e| format!("daemon: {e}"))?;
    println!(
        "peak_rss_bytes {}",
        parchmint_benches::peak_rss_bytes().unwrap_or(0)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("daemon") => daemon(&args[1..]).map(|()| true),
        Some("sweep") => flag(&args, "--out").and_then(|out| {
            let seconds = flag(&args, "--seconds")?
                .parse()
                .map_err(|e| format!("--seconds: {e}"))?;
            workloads::sweep_child(Path::new(out), seconds).map(|()| true)
        }),
        Some("compare") => Declared::load("BENCHMARK.json")
            .and_then(|declared| compare::main(&args[1..], &declared))
            .map(|text| {
                print!("{text}");
                true
            }),
        _ => parse_args(&args).and_then(|args| bench(&args)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(error) => {
            eprintln!("parchmint-bench: {error}");
            ExitCode::from(2)
        }
    }
}
