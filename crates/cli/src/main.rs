//! `parchmint` — command-line tools for the ParchMint benchmark suite.
//!
//! ```text
//! parchmint list                              list the benchmark suite
//! parchmint generate <name> [-o FILE] [--mint]  emit a benchmark (JSON or MINT)
//! parchmint validate <FILE|name>              validate a device, print diagnostics
//! parchmint stats [--csv|--markdown]          suite characterization table (E1)
//! parchmint render <FILE|name> -o FILE.svg [--pnr]   render a layout (E3)
//! parchmint convert <FILE.json|FILE.mint> [-o FILE]  convert between formats (E5)
//! parchmint pnr <name> [--placer P] [--router R] [-o FILE]   place & route (E4)
//! parchmint plan <FILE|name> <from> <to>      valve-state control synthesis
//! parchmint suite-run [BENCH...] [-o FILE] [--trace FILE] [--pareto FILE]   parallel suite evaluation
//! parchmint quality-baseline <REPORT> [-o FILE]   extract a quality baseline from a suite report
//! parchmint quality-check <BASELINE> <REPORT>     gate a report against a quality baseline
//! parchmint report-diff <BASELINE> <CURRENT>      structural diff of two suite reports
//! parchmint serve [--tcp ADDR] [--workers N]      compilation-as-a-service daemon
//! parchmint submit --addr HOST:PORT [BENCH...]    submit designs to a running daemon
//! parchmint chaos-proxy PLAN.json --upstream ADDR deterministic wire-fault proxy
//! ```

use parchmint::{CompiledDevice, Device};
use parchmint_pnr::{place_and_route_resilient, PlacerChoice, PnrReport, RouterChoice};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("list") => cmd_list(),
        Some("generate") => cmd_generate(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("render") => cmd_render(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("pnr") => cmd_pnr(&args[1..]),
        Some("plan") => cmd_plan(&args[1..]),
        Some("schema") => {
            println!(
                "{}",
                serde_json::to_string_pretty(&parchmint::schema::json_schema())
                    .expect("schema serializes")
            );
            Ok(())
        }
        Some("flow") => cmd_flow(&args[1..]),
        Some("suite-run") => cmd_suite_run(&args[1..]),
        Some("quality-baseline") => cmd_quality_baseline(&args[1..]),
        Some("quality-check") => cmd_quality_check(&args[1..]),
        Some("report-diff") => cmd_report_diff(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("chaos-proxy") => cmd_chaos_proxy(&args[1..]),
        Some("help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try `parchmint help`)")),
    }
}

const USAGE: &str = "\
parchmint - ParchMint microfluidics benchmark suite tools

USAGE:
  parchmint list
  parchmint generate <benchmark> [-o FILE] [--mint]
  parchmint validate <FILE|benchmark>
  parchmint stats [--csv|--markdown|--json]
  parchmint render <FILE|benchmark> -o FILE.svg [--pnr]
  parchmint convert <FILE.json|FILE.mint> [-o FILE]
  parchmint pnr <benchmark> [--placer greedy|annealing] [--router straight|astar|negotiate] [-o FILE]
  parchmint plan <FILE|benchmark> <from> <to>
  parchmint flow <FILE|benchmark> <node=Pa>... (e.g. in_a=1000 out=0)
  parchmint suite-run [BENCH...] [--threads N] [-o FILE] [--strip-timings]
                      [--trace FILE] [--pareto FILE] [--faults PLAN.json]
                      [--deadline-ms N] [--fuel N]
  parchmint quality-baseline <REPORT.json> [-o FILE]
  parchmint quality-check <BASELINE.json> <REPORT.json>
  parchmint report-diff <BASELINE.json> <CURRENT.json>
  parchmint serve [--tcp HOST:PORT] [--http HOST:PORT] [--workers N] [--queue N]
                  [--cache-bytes N] [--cache-dir PATH] [--http-max-body BYTES]
                  [--deadline-ms N] [--fuel N] [--faults PLAN.json]
                  [--read-timeout-ms N] [--write-timeout-ms N] [--idle-timeout-ms N]
                  [--line-max-bytes N]   (0 disables a timeout)
  parchmint submit --addr HOST:PORT [BENCH...] [--stages S1,S2] [--window N]
                   [-o FILE] [--strip-timings] [--stats-out FILE] [--shutdown]
                   [--connect-timeout-ms N] [--read-timeout-ms N]
                   [--retry-max N] [--backoff-seed N]
  parchmint chaos-proxy <PLAN.json> --upstream HOST:PORT [--listen HOST:PORT]
  parchmint schema
";

/// Extracts the value following `flag` from an argument list.
fn option_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The arguments that are neither flags (`-…`) nor the value of one of
/// `value_flags`, in order. Every subcommand that takes free arguments
/// goes through this one filter, so flag/positional separation behaves
/// identically everywhere.
fn positionals_of<'a>(args: &'a [String], value_flags: &[&str]) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut skip_next = false;
    for arg in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if value_flags.contains(&arg.as_str()) {
            skip_next = true;
            continue;
        }
        if arg.starts_with('-') {
            continue;
        }
        out.push(arg.as_str());
    }
    out
}

/// Like [`positionals_of`], but rejects flags outside the declared
/// vocabulary instead of silently ignoring them.
fn checked_positionals<'a>(
    command: &str,
    args: &'a [String],
    value_flags: &[&str],
    bool_flags: &[&str],
) -> Result<Vec<&'a str>, String> {
    let mut skip_next = false;
    for arg in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if value_flags.contains(&arg.as_str()) {
            skip_next = true;
            continue;
        }
        if arg.starts_with('-') && !bool_flags.contains(&arg.as_str()) {
            return Err(format!("{command}: unknown flag `{arg}`"));
        }
    }
    Ok(positionals_of(args, value_flags))
}

/// The first argument that is neither a flag nor a flag's value.
fn positional(args: &[String]) -> Option<&str> {
    positionals_of(args, &["-o", "--placer", "--router"])
        .into_iter()
        .next()
}

/// Loads a device from a benchmark name, a `.json` path, or a `.mint` path.
fn load_device(source: &str) -> Result<Device, String> {
    if let Some(benchmark) = parchmint_suite::by_name(source) {
        return Ok(benchmark.device());
    }
    let path = Path::new(source);
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{source}`: {e}"))?;
    if path.extension().and_then(|e| e.to_str()) == Some("mint") {
        let file = parchmint_mint::parse(&text).map_err(|e| format!("{source}: {e}"))?;
        parchmint_mint::mint_to_device(&file).map_err(|e| format!("{source}: {e}"))
    } else {
        Device::from_json(&text).map_err(|e| format!("{source}: {e}"))
    }
}

fn write_output(output: Option<&str>, content: &str) -> Result<(), String> {
    match output {
        Some(path) => {
            std::fs::write(path, content).map_err(|e| format!("cannot write `{path}`: {e}"))
        }
        None => {
            print!("{content}");
            Ok(())
        }
    }
}

fn cmd_list() -> Result<(), String> {
    println!("{:<30} {:<10} description", "name", "class");
    for benchmark in parchmint_suite::suite() {
        println!(
            "{:<30} {:<10} {}",
            benchmark.name(),
            benchmark.class().name(),
            benchmark.description()
        );
    }
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let name = positional(args).ok_or("generate: missing benchmark name")?;
    let device = parchmint_suite::by_name(name)
        .ok_or_else(|| format!("unknown benchmark `{name}` (see `parchmint list`)"))?
        .device();
    let content = if has_flag(args, "--mint") {
        parchmint_mint::print(&parchmint_mint::device_to_mint(&device))
    } else {
        device.to_json_pretty().map_err(|e| e.to_string())? + "\n"
    };
    write_output(option_value(args, "-o"), &content)
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let source = positional(args).ok_or("validate: missing input")?;
    let device = load_device(source)?;
    let report = parchmint_verify::validate(&CompiledDevice::from_ref(&device));
    print!("{report}");
    if report.is_conformant() {
        Ok(())
    } else {
        Err(format!("`{}` is not conformant", device.name))
    }
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let table = parchmint_stats::characterize_suite();
    let rendered = if has_flag(args, "--csv") {
        table.render_csv()
    } else if has_flag(args, "--markdown") {
        table.render_markdown()
    } else if has_flag(args, "--json") {
        table.render_json()
    } else {
        table.render_text()
    };
    print!("{rendered}");
    Ok(())
}

fn cmd_render(args: &[String]) -> Result<(), String> {
    let source = positional(args).ok_or("render: missing input")?;
    let output = option_value(args, "-o").ok_or("render: missing `-o FILE.svg`")?;
    let mut device = load_device(source)?;
    if has_flag(args, "--pnr") {
        let report =
            place_and_route_logged(&mut device, PlacerChoice::Annealing, RouterChoice::AStar)?;
        eprintln!("{}", PnrReport::header());
        eprintln!("{}", report.row());
    }
    let svg = parchmint_render::render_svg_default(&device);
    std::fs::write(output, svg).map_err(|e| format!("cannot write `{output}`: {e}"))?;
    eprintln!("wrote {output}");
    Ok(())
}

fn cmd_convert(args: &[String]) -> Result<(), String> {
    let source = positional(args).ok_or("convert: missing input")?;
    let device = load_device(source)?;
    let to_mint = !source.ends_with(".mint");
    let content = if to_mint {
        parchmint_mint::print(&parchmint_mint::device_to_mint(&device))
    } else {
        device.to_json_pretty().map_err(|e| e.to_string())? + "\n"
    };
    write_output(option_value(args, "-o"), &content)
}

fn cmd_pnr(args: &[String]) -> Result<(), String> {
    let name = positional(args).ok_or("pnr: missing benchmark name")?;
    let mut device = load_device(name)?;
    let placer = match option_value(args, "--placer").unwrap_or("annealing") {
        "greedy" => PlacerChoice::Greedy,
        "annealing" => PlacerChoice::Annealing,
        other => return Err(format!("unknown placer `{other}`")),
    };
    let router = match option_value(args, "--router").unwrap_or("astar") {
        "straight" => RouterChoice::Straight,
        "astar" => RouterChoice::AStar,
        "negotiate" => RouterChoice::Negotiate,
        other => return Err(format!("unknown router `{other}`")),
    };
    let report = place_and_route_logged(&mut device, placer, router)?;
    println!("{}", PnrReport::header());
    println!("{}", report.row());
    if let Some(output) = option_value(args, "-o") {
        let json = device.to_json_pretty().map_err(|e| e.to_string())?;
        std::fs::write(output, json + "\n").map_err(|e| format!("cannot write `{output}`: {e}"))?;
        eprintln!("wrote {output}");
    }
    Ok(())
}

/// Places and routes `device` through the guarded pipeline the sweep
/// runs, printing each fallback it took to stderr.
fn place_and_route_logged(
    device: &mut Device,
    placer: PlacerChoice,
    router: RouterChoice,
) -> Result<PnrReport, String> {
    let run = place_and_route_resilient(device, placer, router, 0).map_err(|e| e.to_string())?;
    for degradation in &run.degradations {
        eprintln!("degraded: {degradation}");
    }
    Ok(run.report)
}

fn cmd_flow(args: &[String]) -> Result<(), String> {
    let positionals = positionals_of(args, &[]);
    let [source, conditions @ ..] = positionals.as_slice() else {
        return Err("flow: expected <FILE|benchmark> <node=Pa>...".into());
    };
    if conditions.is_empty() {
        return Err("flow: at least one boundary condition (node=Pa) required".into());
    }
    let device = load_device(source)?;
    let mut boundary = Vec::new();
    for condition in conditions {
        let (node, pressure) = condition
            .split_once('=')
            .ok_or_else(|| format!("flow: bad boundary `{condition}` (want node=Pa)"))?;
        let pressure: f64 = pressure
            .parse()
            .map_err(|_| format!("flow: bad pressure in `{condition}`"))?;
        boundary.push((parchmint::ComponentId::new(node), pressure));
    }
    let network = parchmint_sim::FlowNetwork::new(
        &CompiledDevice::from_ref(&device),
        parchmint_sim::Fluid::WATER,
    );
    let solution = network.solve(&boundary).map_err(|e| e.to_string())?;
    println!(
        "{:<20} {:>14} {:>14}",
        "boundary node", "pressure_pa", "flow_nl_s"
    );
    for (node, pressure) in &boundary {
        println!(
            "{:<20} {:>14.1} {:>14.3}",
            node,
            pressure,
            solution.net_inflow(node) * 1e12
        );
    }
    Ok(())
}

fn cmd_suite_run(args: &[String]) -> Result<(), String> {
    let benchmarks: Vec<String> = checked_positionals(
        "suite-run",
        args,
        &[
            "--threads",
            "-o",
            "--trace",
            "--pareto",
            "--faults",
            "--deadline-ms",
            "--fuel",
        ],
        &["--strip-timings"],
    )?
    .into_iter()
    .map(str::to_string)
    .collect();

    let trace_path = option_value(args, "--trace");
    let mut builder = parchmint_harness::SuiteRunConfig::builder()
        .benchmarks(benchmarks)
        .tracing(trace_path.is_some());
    if let Some(text) = option_value(args, "--threads") {
        builder = builder.threads(
            text.parse()
                .map_err(|_| format!("suite-run: bad thread count `{text}`"))?,
        );
    }
    if let Some(text) = option_value(args, "--deadline-ms") {
        let ms: u64 = text
            .parse()
            .map_err(|_| format!("suite-run: bad deadline `{text}` (want milliseconds)"))?;
        builder = builder.deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(text) = option_value(args, "--fuel") {
        builder = builder.fuel(
            text.parse()
                .map_err(|_| format!("suite-run: bad fuel budget `{text}`"))?,
        );
    }
    if let Some(path) = option_value(args, "--faults") {
        builder = builder.faults(parse_fault_plan("suite-run", path)?);
    }
    let config = builder.build();
    let report = parchmint_harness::run_suite(&config);
    print!("{}", report.summary_table());

    let include_timings = !has_flag(args, "--strip-timings");
    if let Some(path) = option_value(args, "-o") {
        std::fs::write(path, report.to_json_string(include_timings))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("report written to {path}");
    }

    if let Some(path) = trace_path {
        std::fs::write(path, report.trace_json_string(include_timings))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("trace written to {path}");
    }

    if let Some(path) = option_value(args, "--pareto") {
        std::fs::write(
            path,
            parchmint_harness::pareto_json_string(&report, include_timings),
        )
        .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("pareto sweep written to {path}");
    }

    if let Some(plan) = config.faults() {
        return verify_faulted_sweep(&report, plan);
    }

    check_clean("suite-run", &report)
}

/// Lists `report`'s error and failed cells on stderr and fails `command`
/// when there are any.
fn check_clean(command: &str, report: &parchmint_harness::SuiteReport) -> Result<(), String> {
    if report.is_clean() {
        return Ok(());
    }
    for cell in report.failing_cells() {
        eprintln!(
            "failing cell {}: {} — {}",
            cell.key(),
            cell.status.as_str(),
            cell.detail.as_deref().unwrap_or("no detail recorded"),
        );
    }
    let counts = report.counts();
    Err(format!(
        "{command}: {} error and {} failed cell(s) — see list above",
        counts.error, counts.failed
    ))
}

/// Success criteria for `suite-run --faults`: the full benchmark×stage
/// matrix is present (no cell lost to a poisoned worker), every faulted
/// benchmark shows the fault as a recorded non-ok terminal state, and
/// benchmarks the plan does not touch stay completely clean.
fn verify_faulted_sweep(
    report: &parchmint_harness::SuiteReport,
    plan: &parchmint_resilience::FaultPlan,
) -> Result<(), String> {
    use parchmint_harness::CellStatus;

    let mut benchmarks: Vec<&str> = Vec::new();
    for cell in &report.cells {
        if !benchmarks.contains(&cell.benchmark.as_str()) {
            benchmarks.push(&cell.benchmark);
        }
    }
    let mut problems = Vec::new();

    let expected = benchmarks.len() * report.stages.len();
    if report.cells.len() != expected {
        problems.push(format!(
            "matrix has {} cells, expected {expected} ({} benchmarks x {} stages)",
            report.cells.len(),
            benchmarks.len(),
            report.stages.len()
        ));
    }

    for name in &benchmarks {
        let cells = report.cells.iter().filter(|c| c.benchmark == *name);
        if plan.for_benchmark(name).is_empty() {
            for cell in cells.filter(|c| {
                matches!(
                    c.status,
                    CellStatus::Degraded | CellStatus::Error | CellStatus::Failed
                )
            }) {
                problems.push(format!(
                    "unfaulted benchmark cell {} is {}: {}",
                    cell.key(),
                    cell.status.as_str(),
                    cell.detail.as_deref().unwrap_or("no detail"),
                ));
            }
        } else if !cells.clone().any(|c| {
            matches!(
                c.status,
                CellStatus::Degraded | CellStatus::Error | CellStatus::Failed
            )
        }) {
            problems.push(format!(
                "faulted benchmark `{name}` shows no degraded/error/failed cell — \
                 the injected fault was silently absorbed"
            ));
        }
    }

    if !problems.is_empty() {
        for problem in &problems {
            eprintln!("fault verification: {problem}");
        }
        return Err(format!(
            "suite-run: fault injection verification found {} problem(s)",
            problems.len()
        ));
    }
    println!(
        "fault injection verified: {} cells, every fault surfaced as a recorded terminal state",
        report.cells.len()
    );
    Ok(())
}

fn read_json(path: &str) -> Result<serde_json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_quality_baseline(args: &[String]) -> Result<(), String> {
    let source = positional(args).ok_or("quality-baseline: missing suite report")?;
    let report = read_json(source)?;
    write_output(
        option_value(args, "-o"),
        &parchmint_harness::quality_baseline_string(&report),
    )
}

fn cmd_quality_check(args: &[String]) -> Result<(), String> {
    let positionals = positionals_of(args, &[]);
    let [baseline_path, report_path] = positionals.as_slice() else {
        return Err("quality-check: expected <BASELINE.json> <REPORT.json>".into());
    };
    let baseline = read_json(baseline_path)?;
    if baseline.get("schema").and_then(serde_json::Value::as_str)
        != Some(parchmint_harness::QUALITY_SCHEMA)
    {
        return Err(format!(
            "quality-check: `{baseline_path}` is not a {} file",
            parchmint_harness::QUALITY_SCHEMA
        ));
    }
    let report = read_json(report_path)?;
    let regressions = parchmint_harness::compare_quality(&baseline, &report);
    if regressions.is_empty() {
        let gated = baseline
            .get("cells")
            .and_then(serde_json::Value::as_object)
            .map_or(0, |c| c.len());
        println!("quality gate passed: {gated} cell(s) within tolerance of {baseline_path}");
        return Ok(());
    }
    for regression in &regressions {
        eprintln!("quality regression: {regression}");
    }
    Err(format!(
        "quality-check: {} quality regression(s) against {baseline_path}",
        regressions.len()
    ))
}

/// Structurally diffs two suite reports, printing one line per
/// difference ([`parchmint_harness::report_diff`]) — the explanation step
/// behind the byte-compare regression gate.
fn cmd_report_diff(args: &[String]) -> Result<(), String> {
    let positionals = positionals_of(args, &[]);
    let [baseline_path, current_path] = positionals.as_slice() else {
        return Err("report-diff: expected <BASELINE.json> <CURRENT.json>".into());
    };
    let baseline = read_json(baseline_path)?;
    let current = read_json(current_path)?;
    let lines = parchmint_harness::report_diff(&baseline, &current);
    if lines.is_empty() {
        let cells = baseline
            .get("cells")
            .and_then(serde_json::Value::as_array)
            .map_or(0, Vec::len);
        println!("reports structurally identical: {cells} cell(s) compared");
        return Ok(());
    }
    for line in &lines {
        println!("{line}");
    }
    Err(format!(
        "report-diff: {} difference(s) between {baseline_path} and {current_path}",
        lines.len()
    ))
}

/// Reads the fault plan named by `--faults` (`serve` and `suite-run`).
fn parse_fault_plan(command: &str, path: &str) -> Result<parchmint_resilience::FaultPlan, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{command}: cannot read fault plan `{path}`: {e}"))?;
    parchmint_resilience::FaultPlan::from_json_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use parchmint_serve::ServeConfig;

    checked_positionals(
        "serve",
        args,
        &[
            "--tcp",
            "--http",
            "--workers",
            "--queue",
            "--cache-bytes",
            "--cache-dir",
            "--http-max-body",
            "--deadline-ms",
            "--fuel",
            "--faults",
            "--read-timeout-ms",
            "--write-timeout-ms",
            "--idle-timeout-ms",
            "--line-max-bytes",
        ],
        &[],
    )?;
    let socket_ms = |flag: &str| -> Result<Option<u64>, String> {
        match option_value(args, flag) {
            None => Ok(None),
            Some(text) => text.parse().map(Some).map_err(|_| {
                format!("serve: bad `{flag}` value `{text}` (want milliseconds, 0 disables)")
            }),
        }
    };
    let mut builder = ServeConfig::builder();
    if let Some(ms) = socket_ms("--read-timeout-ms")? {
        builder = builder.read_timeout_ms(ms);
    }
    if let Some(ms) = socket_ms("--write-timeout-ms")? {
        builder = builder.write_timeout_ms(ms);
    }
    if let Some(ms) = socket_ms("--idle-timeout-ms")? {
        builder = builder.idle_timeout_ms(ms);
    }
    if let Some(text) = option_value(args, "--line-max-bytes") {
        builder = builder.line_max_bytes(
            text.parse()
                .map_err(|_| format!("serve: bad frame cap `{text}` (want bytes)"))?,
        );
    }
    if let Some(text) = option_value(args, "--workers") {
        builder = builder.workers(
            text.parse()
                .map_err(|_| format!("serve: bad worker count `{text}`"))?,
        );
    }
    if let Some(text) = option_value(args, "--queue") {
        builder = builder.queue_capacity(
            text.parse()
                .map_err(|_| format!("serve: bad queue capacity `{text}`"))?,
        );
    }
    if let Some(text) = option_value(args, "--cache-bytes") {
        builder = builder.cache_bytes(
            text.parse()
                .map_err(|_| format!("serve: bad cache byte budget `{text}`"))?,
        );
    }
    if let Some(path) = option_value(args, "--cache-dir") {
        builder = builder.cache_dir(path);
    }
    if let Some(text) = option_value(args, "--http-max-body") {
        builder = builder.http_max_body(
            text.parse()
                .map_err(|_| format!("serve: bad body cap `{text}` (want bytes)"))?,
        );
    }
    if let Some(text) = option_value(args, "--deadline-ms") {
        let ms: u64 = text
            .parse()
            .map_err(|_| format!("serve: bad deadline `{text}` (want milliseconds)"))?;
        builder = builder.deadline(Some(std::time::Duration::from_millis(ms)));
    }
    if let Some(text) = option_value(args, "--fuel") {
        builder = builder.fuel(Some(
            text.parse()
                .map_err(|_| format!("serve: bad fuel budget `{text}`"))?,
        ));
    }
    if let Some(path) = option_value(args, "--faults") {
        builder = builder.faults(Some(parse_fault_plan("serve", path)?));
    }
    if let Some(addr) = option_value(args, "--tcp") {
        builder = builder.tcp(addr);
    }
    if let Some(addr) = option_value(args, "--http") {
        builder = builder.http(addr);
    }
    parchmint_serve::run(builder.build()).map_err(|e| format!("serve: {e}"))
}

fn cmd_submit(args: &[String]) -> Result<(), String> {
    use parchmint_serve::{submit_suite, Client, ClientConfig, DEFAULT_WINDOW};

    let addr = option_value(args, "--addr").ok_or("submit: missing `--addr HOST:PORT`")?;
    let benchmarks: Vec<String> = checked_positionals(
        "submit",
        args,
        &[
            "--addr",
            "--stages",
            "--window",
            "-o",
            "--stats-out",
            "--connect-timeout-ms",
            "--read-timeout-ms",
            "--retry-max",
            "--backoff-seed",
        ],
        &["--strip-timings", "--shutdown"],
    )?
    .into_iter()
    .map(str::to_string)
    .collect();
    let mut config = ClientConfig::default();
    if let Some(text) = option_value(args, "--connect-timeout-ms") {
        let ms: u64 = text
            .parse()
            .map_err(|_| format!("submit: bad connect timeout `{text}` (want milliseconds)"))?;
        config = config.with_connect_timeout(std::time::Duration::from_millis(ms));
    }
    if let Some(text) = option_value(args, "--read-timeout-ms") {
        let ms: u64 = text
            .parse()
            .map_err(|_| format!("submit: bad read timeout `{text}` (want milliseconds)"))?;
        config = config.with_read_timeout(std::time::Duration::from_millis(ms));
    }
    if let Some(text) = option_value(args, "--retry-max") {
        config = config.with_max_reconnects(
            text.parse()
                .map_err(|_| format!("submit: bad retry budget `{text}`"))?,
        );
    }
    if let Some(text) = option_value(args, "--backoff-seed") {
        config = config.with_backoff_seed(
            text.parse()
                .map_err(|_| format!("submit: bad backoff seed `{text}`"))?,
        );
    }
    let names = (!benchmarks.is_empty()).then_some(benchmarks);
    let stages: Option<Vec<String>> =
        option_value(args, "--stages").map(|text| text.split(',').map(str::to_string).collect());
    let window = match option_value(args, "--window") {
        Some(text) => text
            .parse()
            .map_err(|_| format!("submit: bad window `{text}`"))?,
        None => DEFAULT_WINDOW,
    };

    let mut client = Client::connect_with(addr, config)
        .map_err(|e| format!("submit: cannot connect to `{addr}`: {e}"))?;
    let submission = submit_suite(&mut client, names.as_deref(), stages.as_deref(), window)
        .map_err(|e| format!("submit: {e}"))?;
    let report = &submission.report;
    print!("{}", report.summary_table());
    println!(
        "served: {} cells ({} from cache), {} compiles shared, {} busy retries",
        report.cells.len(),
        submission.cached_cells,
        submission.cached_compiles,
        submission.busy_retries,
    );
    println!(
        "wire: {} reconnects, {} designs resumed",
        submission.reconnects, submission.resumed_designs,
    );

    let include_timings = !has_flag(args, "--strip-timings");
    if let Some(path) = option_value(args, "-o") {
        std::fs::write(path, report.to_json_string(include_timings))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("report written to {path}");
    }
    if let Some(path) = option_value(args, "--stats-out") {
        let stats = client.stats().map_err(|e| format!("submit: {e}"))?;
        let mut text =
            serde_json::to_string_pretty(&stats).expect("stats serialization is infallible");
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("daemon stats written to {path}");
    }
    if has_flag(args, "--shutdown") {
        client.shutdown().map_err(|e| format!("submit: {e}"))?;
        println!("daemon shutdown acknowledged");
    }

    check_clean("submit", report)
}

/// Runs the deterministic wire-fault proxy in the foreground until the
/// process is killed: accepts on `--listen`, forwards to `--upstream`,
/// and injects the faults a `parchmint-chaos/v1` plan assigns to each
/// connection (counted in accept order).
fn cmd_chaos_proxy(args: &[String]) -> Result<(), String> {
    use parchmint_serve::{ChaosPlan, ChaosProxy};

    let positionals = checked_positionals("chaos-proxy", args, &["--listen", "--upstream"], &[])?;
    let [plan_path] = positionals.as_slice() else {
        return Err("chaos-proxy: expected exactly one positional argument, <PLAN.json>".into());
    };
    let upstream =
        option_value(args, "--upstream").ok_or("chaos-proxy: missing `--upstream HOST:PORT`")?;
    let listen = option_value(args, "--listen").unwrap_or("127.0.0.1:0");

    let text = std::fs::read_to_string(plan_path)
        .map_err(|e| format!("chaos-proxy: cannot read chaos plan `{plan_path}`: {e}"))?;
    let plan = ChaosPlan::from_json_str(&text).map_err(|e| format!("{plan_path}: {e}"))?;
    let proxy = ChaosProxy::spawn(plan, listen, upstream)
        .map_err(|e| format!("chaos-proxy: cannot listen on `{listen}`: {e}"))?;
    println!(
        "chaos proxy listening on {} -> {upstream}",
        proxy.local_addr()
    );
    proxy.join();
    Ok(())
}

fn cmd_plan(args: &[String]) -> Result<(), String> {
    let positionals = positionals_of(args, &[]);
    let [source, from, to] = positionals.as_slice() else {
        return Err("plan: expected <FILE|benchmark> <from> <to>".into());
    };
    let compiled = CompiledDevice::compile(load_device(source)?);
    let plan = parchmint_control::plan_flow(&compiled, &(*from).into(), &(*to).into())
        .map_err(|e| e.to_string())?;
    println!("{plan}");
    for actuation in plan.actuations(&compiled) {
        println!("  {actuation}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn option_parsing() {
        let args = strings(&["logic_gate_or", "-o", "out.svg", "--pnr"]);
        assert_eq!(option_value(&args, "-o"), Some("out.svg"));
        assert!(has_flag(&args, "--pnr"));
        assert!(!has_flag(&args, "--mint"));
        assert_eq!(positional(&args), Some("logic_gate_or"));
    }

    #[test]
    fn positional_skips_option_values() {
        let args = strings(&["-o", "file", "--placer", "greedy", "bench_name"]);
        assert_eq!(positional(&args), Some("bench_name"));
        assert_eq!(positional(&strings(&["-o", "x"])), None);
    }

    #[test]
    fn load_device_resolves_benchmarks() {
        let d = load_device("logic_gate_or").unwrap();
        assert_eq!(d.name, "logic_gate_or");
        assert!(load_device("no_such_benchmark.json").is_err());
    }

    #[test]
    fn mint_conversion_errors_name_the_file() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/corpus/malformed/unknown-reference.mint"
        );
        let error = run(&strings(&["validate", path])).unwrap_err();
        assert!(error.starts_with(&format!("{path}: ")), "{error}");
        assert!(error.contains("ghost"), "{error}");
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&strings(&["frobnicate"])).is_err());
        assert!(run(&strings(&["help"])).is_ok());
        assert!(run(&[]).is_ok());
    }

    #[test]
    fn flow_and_schema_commands_run() {
        run(&strings(&["schema"])).unwrap();
        run(&strings(&[
            "flow",
            "molecular_gradient_generator",
            "in_a=1000",
            "in_b=1000",
            "out_3=0",
        ]))
        .unwrap();
        assert!(run(&strings(&["flow", "logic_gate_or"])).is_err());
        assert!(run(&strings(&["flow", "logic_gate_or", "bogus"])).is_err());
    }

    #[test]
    fn plan_command_runs() {
        run(&strings(&["plan", "rotary_pump_mixer", "in_a", "out"])).unwrap();
        assert!(run(&strings(&["plan", "rotary_pump_mixer", "in_a"])).is_err());
        assert!(run(&strings(&["plan", "rotary_pump_mixer", "ghost", "out"])).is_err());
    }

    #[test]
    fn pnr_of_an_outline_past_the_grid_limit_falls_back_to_straight_lines() {
        // 200,000,000 µm a side is past the routing kernel's 32-bit state
        // limit: the A* router panics, and the command routes with the
        // straight-line fallback instead of crashing.
        let dir = std::env::temp_dir().join("parchmint_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut device = load_device("logic_gate_or").unwrap();
        device.set_declared_bounds(parchmint::geometry::Span::square(200_000_000));
        let input = dir.join("huge_outline.json");
        std::fs::write(&input, device.to_json().unwrap()).unwrap();
        let output = dir.join("huge_outline_routed.json");
        let (input, output) = (input.to_str().unwrap(), output.to_str().unwrap());
        run(&strings(&[
            "pnr", input, "--placer", "greedy", "--router", "astar", "-o", output,
        ]))
        .unwrap();
        let routed = load_device(output).unwrap();
        assert!(routed.is_placed());
        assert!(
            routed
                .connections
                .iter()
                .any(|c| routed.route_of(&c.id).is_some()),
            "the straight-line fallback routes"
        );
    }

    #[test]
    fn generate_and_validate_in_memory() {
        let dir = std::env::temp_dir().join("parchmint_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let json_path = dir.join("gate.json");
        run(&strings(&[
            "generate",
            "logic_gate_or",
            "-o",
            json_path.to_str().unwrap(),
        ]))
        .unwrap();
        run(&strings(&["validate", json_path.to_str().unwrap()])).unwrap();
        // MINT emission works too.
        let mint_path = dir.join("gate.mint");
        run(&strings(&[
            "generate",
            "logic_gate_or",
            "--mint",
            "-o",
            mint_path.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&mint_path).unwrap();
        assert!(text.starts_with("DEVICE logic_gate_or"));
    }
}
