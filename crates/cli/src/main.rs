//! `parchmint` — command-line tools for the ParchMint benchmark suite.
//! `parchmint help` prints the usage of every subcommand.

use parchmint::{CompiledDevice, Device};
use parchmint_pnr::{place_and_route_resilient, PlacerChoice, PnrReport, RouterChoice};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

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
        Some("list") => cmd_list(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("render") => cmd_render(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("pnr") => cmd_pnr(&args[1..]),
        Some("plan") => cmd_plan(&args[1..]),
        Some("schema") => cmd_schema(&args[1..]),
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

/// One subcommand's command line, read once against what it declares.
struct Args<'a> {
    command: &'a str,
    /// The flags given, each with its value (`None` for a switch).
    flags: Vec<(&'a str, Option<&'a str>)>,
    /// The arguments that are neither a flag nor a flag's value, in order.
    positionals: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Reads `args` for `command` in one pass. Each of `values` takes the
    /// argument after it, and each of `switches` stands alone. Refused:
    /// any other argument starting with `-`, a value flag with nothing or
    /// a declared flag after it, a flag given twice, and a positional
    /// count that `positionals` does not allow. `positionals` is the
    /// command's usage text for them: each `<NAME>` is one required
    /// argument, and a `...` lets the last one repeat.
    fn read(
        command: &'a str,
        args: &'a [String],
        values: &[&str],
        switches: &[&str],
        positionals: &str,
    ) -> Result<Args<'a>, String> {
        let declared = |arg: &str| values.contains(&arg) || switches.contains(&arg);
        let mut read = Args {
            command,
            flags: Vec::new(),
            positionals: Vec::new(),
        };
        let mut rest = args.iter().map(String::as_str);
        while let Some(arg) = rest.next() {
            if !arg.starts_with('-') {
                read.positionals.push(arg);
                continue;
            }
            if !declared(arg) {
                return Err(format!("{command}: unknown flag `{arg}`"));
            }
            if read.has(arg) {
                return Err(format!("{command}: `{arg}` given twice"));
            }
            let value = if values.contains(&arg) {
                match rest.next() {
                    Some(value) if !declared(value) => Some(value),
                    _ => return Err(format!("{command}: `{arg}` needs a value")),
                }
            } else {
                None
            };
            read.flags.push((arg, value));
        }
        let words = positionals.split_whitespace();
        let required = words.filter(|word| word.starts_with('<')).count();
        let count = read.positionals.len();
        if count < required {
            return Err(format!("{command}: expected {positionals}"));
        }
        if count > required && !positionals.contains("...") {
            let extra = read.positionals[required];
            return Err(format!("{command}: unexpected argument `{extra}`"));
        }
        Ok(read)
    }

    /// The value given to `flag`.
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.flags.iter().find(|(f, _)| *f == flag)?.1
    }

    /// Whether `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The value given to `flag`, parsed as a `T`.
    fn parse<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        let Some(text) = self.value(flag) else {
            return Ok(None);
        };
        let command = self.command;
        (text.parse().map(Some)).map_err(|_| format!("{command}: bad `{flag}` value `{text}`"))
    }
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

/// Writes `content` to the file at `path`.
fn write_file(path: &str, content: &str) -> Result<(), String> {
    std::fs::write(path, content).map_err(|e| format!("cannot write `{path}`: {e}"))
}

/// `value` as every JSON file and listing of the CLI is written:
/// pretty-printed, with a trailing newline.
fn json_text(value: &serde_json::Value) -> String {
    let mut text = serde_json::to_string_pretty(value).expect("a JSON value serializes");
    text.push('\n');
    text
}

/// Writes `content` to `output`, or to stdout when there is none.
fn write_output(output: Option<&str>, content: &str) -> Result<(), String> {
    match output {
        Some(path) => write_file(path, content),
        None => {
            print!("{content}");
            Ok(())
        }
    }
}

fn cmd_list(argv: &[String]) -> Result<(), String> {
    Args::read("list", argv, &[], &[], "")?;
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

fn cmd_schema(argv: &[String]) -> Result<(), String> {
    Args::read("schema", argv, &[], &[], "")?;
    print!("{}", json_text(&parchmint::schema::json_schema()));
    Ok(())
}

fn cmd_generate(argv: &[String]) -> Result<(), String> {
    let args = Args::read("generate", argv, &["-o"], &["--mint"], "<benchmark>")?;
    let name = args.positionals[0];
    let device = parchmint_suite::by_name(name)
        .ok_or_else(|| format!("unknown benchmark `{name}` (see `parchmint list`)"))?
        .device();
    let content = if args.has("--mint") {
        parchmint_mint::print(&parchmint_mint::device_to_mint(&device))
    } else {
        device.to_json_pretty().map_err(|e| e.to_string())? + "\n"
    };
    write_output(args.value("-o"), &content)
}

fn cmd_validate(argv: &[String]) -> Result<(), String> {
    let args = Args::read("validate", argv, &[], &[], "<FILE|benchmark>")?;
    let device = load_device(args.positionals[0])?;
    let report = parchmint_verify::validate(&CompiledDevice::from_ref(&device));
    print!("{report}");
    if report.is_conformant() {
        Ok(())
    } else {
        Err(format!("`{}` is not conformant", device.name))
    }
}

fn cmd_stats(argv: &[String]) -> Result<(), String> {
    let formats = ["--csv", "--markdown", "--json"];
    let args = Args::read("stats", argv, &[], &formats, "")?;
    let given: Vec<&str> = formats.into_iter().filter(|f| args.has(f)).collect();
    if let [first, second, ..] = given[..] {
        return Err(format!(
            "stats: `{first}` and `{second}` both name a format; give one"
        ));
    }
    let table = parchmint_stats::characterize_suite();
    let rendered = match given.first().copied() {
        Some("--csv") => table.render_csv(),
        Some("--markdown") => table.render_markdown(),
        Some(_) => table.render_json(),
        None => table.render_text(),
    };
    print!("{rendered}");
    Ok(())
}

fn cmd_render(argv: &[String]) -> Result<(), String> {
    let args = Args::read("render", argv, &["-o"], &["--pnr"], "<FILE|benchmark>")?;
    let output = args.value("-o").ok_or("render: missing `-o FILE.svg`")?;
    let mut device = load_device(args.positionals[0])?;
    if args.has("--pnr") {
        let report =
            place_and_route_logged(&mut device, PlacerChoice::Annealing, RouterChoice::AStar)?;
        eprintln!("{}", PnrReport::header());
        eprintln!("{}", report.row());
    }
    write_file(output, &parchmint_render::render_svg_default(&device))?;
    eprintln!("wrote {output}");
    Ok(())
}

fn cmd_convert(argv: &[String]) -> Result<(), String> {
    let args = Args::read("convert", argv, &["-o"], &[], "<FILE.json|FILE.mint>")?;
    let source = args.positionals[0];
    let device = load_device(source)?;
    let to_mint = !source.ends_with(".mint");
    let content = if to_mint {
        parchmint_mint::print(&parchmint_mint::device_to_mint(&device))
    } else {
        device.to_json_pretty().map_err(|e| e.to_string())? + "\n"
    };
    write_output(args.value("-o"), &content)
}

fn cmd_pnr(argv: &[String]) -> Result<(), String> {
    let args = Args::read(
        "pnr",
        argv,
        &["--placer", "--router", "-o"],
        &[],
        "<benchmark>",
    )?;
    let mut device = load_device(args.positionals[0])?;
    let placer = match args.value("--placer").unwrap_or("annealing") {
        "greedy" => PlacerChoice::Greedy,
        "annealing" => PlacerChoice::Annealing,
        other => return Err(format!("pnr: unknown placer `{other}`")),
    };
    let router = match args.value("--router").unwrap_or("astar") {
        "straight" => RouterChoice::Straight,
        "astar" => RouterChoice::AStar,
        "negotiate" => RouterChoice::Negotiate,
        other => return Err(format!("pnr: unknown router `{other}`")),
    };
    let report = place_and_route_logged(&mut device, placer, router)?;
    println!("{}", PnrReport::header());
    println!("{}", report.row());
    if let Some(output) = args.value("-o") {
        let json = device.to_json_pretty().map_err(|e| e.to_string())?;
        write_file(output, &(json + "\n"))?;
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

fn cmd_flow(argv: &[String]) -> Result<(), String> {
    let args = Args::read("flow", argv, &[], &[], "<FILE|benchmark> <node=Pa>...")?;
    let (source, conditions) = (args.positionals[0], &args.positionals[1..]);
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
    let solution = network.solve(&boundary).map_err(|e| format!("flow: {e}"))?;
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

fn cmd_suite_run(argv: &[String]) -> Result<(), String> {
    let args = Args::read(
        "suite-run",
        argv,
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
        "[BENCH...]",
    )?;
    let trace_path = args.value("--trace");
    let mut builder = parchmint_harness::SuiteRunConfig::builder()
        .benchmarks(args.positionals.iter().copied())
        .tracing(trace_path.is_some());
    if let Some(threads) = args.parse("--threads")? {
        builder = builder.threads(threads);
    }
    if let Some(ms) = args.parse("--deadline-ms")? {
        builder = builder.deadline(Duration::from_millis(ms));
    }
    if let Some(fuel) = args.parse("--fuel")? {
        builder = builder.fuel(fuel);
    }
    if let Some(path) = args.value("--faults") {
        builder = builder.faults(parse_fault_plan("suite-run", path)?);
    }
    let config = builder.build();
    let report = parchmint_harness::run_suite(&config);
    print!("{}", report.summary_table());

    let include_timings = !args.has("--strip-timings");
    if let Some(path) = args.value("-o") {
        write_file(path, &json_text(&report.to_json(include_timings)))?;
        println!("report written to {path}");
    }

    if let Some(path) = trace_path {
        write_file(path, &json_text(&report.trace_json(include_timings)))?;
        println!("trace written to {path}");
    }

    if let Some(path) = args.value("--pareto") {
        let pareto = parchmint_harness::pareto_json(&report, include_timings);
        write_file(path, &json_text(&pareto))?;
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
    use parchmint_harness::{check_matrix, CellStatus};

    let mut benchmarks: Vec<&str> = Vec::new();
    for cell in &report.cells {
        if !benchmarks.contains(&cell.benchmark.as_str()) {
            benchmarks.push(&cell.benchmark);
        }
    }
    let mut problems = Vec::new();
    problems.extend(check_matrix(&report.cells, &benchmarks, &report.stages).err());

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

fn cmd_quality_baseline(argv: &[String]) -> Result<(), String> {
    let args = Args::read("quality-baseline", argv, &["-o"], &[], "<REPORT.json>")?;
    let report = read_json(args.positionals[0])?;
    let baseline = parchmint_harness::quality_baseline_json(&report);
    write_output(args.value("-o"), &json_text(&baseline))
}

fn cmd_quality_check(argv: &[String]) -> Result<(), String> {
    let args = Args::read(
        "quality-check",
        argv,
        &[],
        &[],
        "<BASELINE.json> <REPORT.json>",
    )?;
    let (baseline_path, report_path) = (args.positionals[0], args.positionals[1]);
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
fn cmd_report_diff(argv: &[String]) -> Result<(), String> {
    let args = Args::read(
        "report-diff",
        argv,
        &[],
        &[],
        "<BASELINE.json> <CURRENT.json>",
    )?;
    let (baseline_path, current_path) = (args.positionals[0], args.positionals[1]);
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

fn cmd_serve(argv: &[String]) -> Result<(), String> {
    use parchmint_serve::ServeConfig;

    let args = Args::read(
        "serve",
        argv,
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
        "",
    )?;
    let mut builder = ServeConfig::builder();
    if let Some(ms) = args.parse("--read-timeout-ms")? {
        builder = builder.read_timeout_ms(ms);
    }
    if let Some(ms) = args.parse("--write-timeout-ms")? {
        builder = builder.write_timeout_ms(ms);
    }
    if let Some(ms) = args.parse("--idle-timeout-ms")? {
        builder = builder.idle_timeout_ms(ms);
    }
    if let Some(bytes) = args.parse("--line-max-bytes")? {
        builder = builder.line_max_bytes(bytes);
    }
    if let Some(workers) = args.parse("--workers")? {
        builder = builder.workers(workers);
    }
    if let Some(capacity) = args.parse("--queue")? {
        builder = builder.queue_capacity(capacity);
    }
    if let Some(bytes) = args.parse("--cache-bytes")? {
        builder = builder.cache_bytes(bytes);
    }
    if let Some(path) = args.value("--cache-dir") {
        builder = builder.cache_dir(path);
    }
    if let Some(bytes) = args.parse("--http-max-body")? {
        builder = builder.http_max_body(bytes);
    }
    builder = builder.deadline(args.parse("--deadline-ms")?.map(Duration::from_millis));
    builder = builder.fuel(args.parse("--fuel")?);
    if let Some(path) = args.value("--faults") {
        builder = builder.faults(Some(parse_fault_plan("serve", path)?));
    }
    if let Some(addr) = args.value("--tcp") {
        builder = builder.tcp(addr);
    }
    if let Some(addr) = args.value("--http") {
        builder = builder.http(addr);
    }
    parchmint_serve::run(builder.build()).map_err(|e| format!("serve: {e}"))
}

fn cmd_submit(argv: &[String]) -> Result<(), String> {
    use parchmint_serve::{submit_suite, Client, ClientConfig, DEFAULT_WINDOW};

    let args = Args::read(
        "submit",
        argv,
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
        "[BENCH...]",
    )?;
    let addr = args
        .value("--addr")
        .ok_or("submit: missing `--addr HOST:PORT`")?;
    let mut config = ClientConfig::default();
    if let Some(ms) = args.parse("--connect-timeout-ms")? {
        config = config.with_connect_timeout(Duration::from_millis(ms));
    }
    if let Some(ms) = args.parse("--read-timeout-ms")? {
        config = config.with_read_timeout(Duration::from_millis(ms));
    }
    if let Some(max) = args.parse("--retry-max")? {
        config = config.with_max_reconnects(max);
    }
    if let Some(seed) = args.parse("--backoff-seed")? {
        config = config.with_backoff_seed(seed);
    }
    let names: Option<Vec<String>> = (!args.positionals.is_empty()).then(|| {
        args.positionals
            .iter()
            .map(|name| name.to_string())
            .collect()
    });
    let stages: Option<Vec<String>> =
        (args.value("--stages")).map(|text| text.split(',').map(str::to_string).collect());
    let window = args.parse("--window")?.unwrap_or(DEFAULT_WINDOW);

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

    let include_timings = !args.has("--strip-timings");
    if let Some(path) = args.value("-o") {
        write_file(path, &json_text(&report.to_json(include_timings)))?;
        println!("report written to {path}");
    }
    if let Some(path) = args.value("--stats-out") {
        let stats = client.stats().map_err(|e| format!("submit: {e}"))?;
        write_file(path, &json_text(&stats))?;
        println!("daemon stats written to {path}");
    }
    if args.has("--shutdown") {
        client.shutdown().map_err(|e| format!("submit: {e}"))?;
        println!("daemon shutdown acknowledged");
    }

    check_clean("submit", report)
}

/// Runs the deterministic wire-fault proxy in the foreground until the
/// process is killed: accepts on `--listen`, forwards to `--upstream`,
/// and injects the faults a `parchmint-chaos/v1` plan assigns to each
/// connection (counted in accept order).
fn cmd_chaos_proxy(argv: &[String]) -> Result<(), String> {
    use parchmint_serve::{ChaosPlan, ChaosProxy};

    let args = Args::read(
        "chaos-proxy",
        argv,
        &["--listen", "--upstream"],
        &[],
        "<PLAN.json>",
    )?;
    let plan_path = args.positionals[0];
    let upstream = args
        .value("--upstream")
        .ok_or("chaos-proxy: missing `--upstream HOST:PORT`")?;
    let listen = args.value("--listen").unwrap_or("127.0.0.1:0");

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

fn cmd_plan(argv: &[String]) -> Result<(), String> {
    let args = Args::read("plan", argv, &[], &[], "<FILE|benchmark> <from> <to>")?;
    let (source, from, to) = (
        args.positionals[0],
        args.positionals[1],
        args.positionals[2],
    );
    let compiled = CompiledDevice::compile(load_device(source)?);
    let plan = parchmint_control::plan_flow(&compiled, &from.into(), &to.into())
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
        let argv = strings(&["logic_gate_or", "-o", "out.svg", "--pnr"]);
        let args = Args::read("render", &argv, &["-o"], &["--pnr", "--mint"], "<FILE>").unwrap();
        assert_eq!(args.value("-o"), Some("out.svg"));
        assert!(args.has("--pnr"));
        assert!(!args.has("--mint"));
        assert_eq!(args.positionals, ["logic_gate_or"]);
    }

    #[test]
    fn positional_skips_option_values() {
        let read = |argv: &[&str]| {
            let values = ["-o", "--placer", "--router"];
            Args::read("pnr", &strings(argv), &values, &[], "<benchmark>")
                .map(|args| args.positionals.concat())
        };
        let args = read(&["-o", "file", "--placer", "greedy", "bench_name"]);
        assert_eq!(args.as_deref(), Ok("bench_name"));
        assert_eq!(read(&["-o", "x"]).unwrap_err(), "pnr: expected <benchmark>");
    }

    #[test]
    fn the_reader_refuses_what_a_command_does_not_declare() {
        fn read<'a>(argv: &'a [String], positionals: &str) -> Result<Args<'a>, String> {
            Args::read("cmd", argv, &["-o", "--n"], &["--all"], positionals)
        }
        for (argv, positionals, error) in [
            (&["a", "--bogus"][..], "<A>", "cmd: unknown flag `--bogus`"),
            (&["a", "-o"], "<A>", "cmd: `-o` needs a value"),
            (&["a", "-o", "--all"], "<A>", "cmd: `-o` needs a value"),
            (&["a", "-o", "--n", "1"], "<A>", "cmd: `-o` needs a value"),
            (&["a", "-o", "x", "-o", "y"], "<A>", "cmd: `-o` given twice"),
            (&["--all", "a", "--all"], "<A>", "cmd: `--all` given twice"),
            (&[], "<A>", "cmd: expected <A>"),
            (&["a"], "<A> <B>...", "cmd: expected <A> <B>..."),
            (&["a", "b"], "<A>", "cmd: unexpected argument `b`"),
            (&["a"], "", "cmd: unexpected argument `a`"),
        ] {
            let refused = read(&strings(argv), positionals).err();
            assert_eq!(refused.as_deref(), Some(error), "{argv:?}");
        }
        // A value that is no declared flag is taken as it stands, and a
        // `...` takes any number of positionals, flags among them.
        let argv = strings(&["a", "-o", "-x", "b", "--all", "c"]);
        let args = read(&argv, "[A...]").unwrap();
        assert_eq!(args.value("-o"), Some("-x"));
        assert_eq!(args.positionals, ["a", "b", "c"]);
        assert!(args.has("--all") && !args.has("--n"));
        assert_eq!(args.parse::<u64>("--n"), Ok(None));
        let argv = strings(&["--n", "seven"]);
        let bad = read(&argv, "").unwrap().parse::<u64>("--n").unwrap_err();
        assert_eq!(bad, "cmd: bad `--n` value `seven`");
    }

    #[test]
    fn every_subcommand_refuses_an_undeclared_flag_and_a_trailing_value_flag() {
        const REPORT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/baseline-report.json");
        const QUALITY: &str = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../ci/baseline-quality.json"
        );
        const CHAOS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/chaos-plan.json");
        // Each subcommand with arguments it takes, and a value flag it
        // declares (`-o` stands in where it declares none). `serve` with a
        // trailing value flag would serve stdin wherever the flag is
        // ignored, so `tests/misread_command_lines.rs` runs that case.
        let cases: [(&str, &[&str], &[&str]); 17] = [
            ("list", &[], &["-o"]),
            ("generate", &["logic_gate_or"], &["-o"]),
            ("validate", &["logic_gate_or"], &["-o"]),
            ("stats", &[], &["-o"]),
            ("render", &["logic_gate_or"], &["-o"]),
            ("convert", &["logic_gate_or"], &["-o"]),
            ("pnr", &["logic_gate_or"], &["--router"]),
            ("plan", &["rotary_pump_mixer", "in_a", "out"], &["-o"]),
            ("schema", &[], &["-o"]),
            (
                "flow",
                &["molecular_gradient_generator", "in_a=1000", "out_3=0"],
                &["-o"],
            ),
            ("suite-run", &["logic_gate_or"], &["--threads"]),
            ("quality-baseline", &[REPORT], &["-o"]),
            ("quality-check", &[QUALITY, REPORT], &["-o"]),
            ("report-diff", &[REPORT, REPORT], &["-o"]),
            ("serve", &[], &[]),
            ("submit", &["--addr", "127.0.0.1:1"], &["--window"]),
            ("chaos-proxy", &[CHAOS], &["--upstream"]),
        ];
        let mut accepted = Vec::new();
        for (command, base, value_flags) in cases {
            for flag in ["--no-such-flag"].iter().chain(value_flags) {
                let line = strings(&[&[command][..], base, &[flag]].concat());
                match run(&line) {
                    Err(e)
                        if e.starts_with(&format!("{command}: "))
                            && e.contains(&format!("`{flag}`")) => {}
                    outcome => accepted.push(format!("{line:?}: {outcome:?}")),
                }
            }
        }
        assert!(accepted.is_empty(), "{accepted:#?}");
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
