//! Command lines the argument reader refuses, run as the installed binary
//! would be: with stdin closed, so that a command line misread as
//! `serve` on stdio ends at once instead of waiting for input.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// How long one run may take before the test fails instead of hanging.
const WAIT: Duration = Duration::from_secs(60);

/// An empty directory of this test's own under the system temp dir.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parchmint_misread_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the test directory");
    dir
}

/// Runs `parchmint args` in `dir` with stdin closed, killing it if it
/// runs past [`WAIT`].
fn parchmint(dir: &Path, args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_parchmint"))
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn parchmint");
    let started = Instant::now();
    while child.try_wait().expect("poll parchmint").is_none() {
        if started.elapsed() > WAIT {
            let _ = child.kill();
            panic!("`parchmint {}` ran past {WAIT:?}", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    // A few lines of output, which fit in the pipes while it runs.
    child.wait_with_output().expect("collect the output")
}

#[test]
fn misread_command_lines_exit_1_and_write_nothing() {
    // Each refusal is one stderr line, `error: ` and then the beginning
    // given here: the command, and for a refusal made after reading,
    // what it refused.
    let cases: [(&str, &[&str]); 9] = [
        ("pnr: ", &["pnr", "logic_gate_or", "--routr", "negotiate"]),
        (
            "pnr: unknown placer `x`",
            &["pnr", "logic_gate_or", "--placer", "x"],
        ),
        (
            "pnr: unknown router `x`",
            &["pnr", "logic_gate_or", "--router", "x"],
        ),
        (
            "flow: boundary names unknown flow node `out`",
            &["flow", "logic_gate_or", "in_a=1000", "out=0"],
        ),
        // Once printed the first of the formats given, as CSV here.
        (
            "stats: `--csv` and `--json` both name a format; give one",
            &["stats", "--json", "--csv"],
        ),
        ("serve: ", &["serve", "127.0.0.1:9000"]),
        ("serve: ", &["serve", "--tcp"]),
        (
            "validate: ",
            &["validate", "logic_gate_or", "no_such_design"],
        ),
        // `-o` once took `--strip-timings` as its file name, and the
        // switch was read as given as well.
        (
            "suite-run: ",
            &["suite-run", "-o", "--strip-timings", "logic_gate_or"],
        ),
    ];
    for (index, (refusal, args)) in cases.into_iter().enumerate() {
        let dir = fresh_dir(&format!("case{index}"));
        let output = parchmint(&dir, args);
        let (line, stderr) = (args.join(" "), String::from_utf8_lossy(&output.stderr));
        assert_eq!(output.status.code(), Some(1), "`{line}`: {stderr}");
        let refusal = format!("error: {refusal}");
        assert!(
            stderr.starts_with(&refusal) && stderr.lines().count() == 1,
            "`{line}` wrote {stderr:?}"
        );
        assert!(output.stdout.is_empty(), "`{line}` printed a result");
        let files = std::fs::read_dir(&dir).expect("list the directory");
        assert_eq!(files.count(), 0, "`{line}` wrote a file");
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn pnr_reports_a_caught_router_panic_as_one_degraded_line() {
    // 200,000,000 µm a side is past the routing grid's 32-bit state
    // limit: the A* router panics inside the guarded pipeline, which
    // falls back to straight lines. The panic is caught, so only the
    // fallback reaches stderr.
    let dir = fresh_dir("huge_outline");
    let mut device = parchmint_suite::by_name("logic_gate_or")
        .expect("registered benchmark")
        .device();
    device.set_declared_bounds(parchmint::geometry::Span::square(200_000_000));
    let json = device.to_json().expect("the device serializes");
    std::fs::write(dir.join("huge.json"), json).expect("write the design");
    let args = [
        "pnr",
        "huge.json",
        "--placer",
        "greedy",
        "--router",
        "astar",
    ];
    let output = parchmint(&dir, &args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{stderr}");
    assert!(
        stderr.starts_with("degraded: route: ") && stderr.lines().count() == 1,
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(dir);
}
