//! Wire-format stability: the serialized form of the benchmarks is pinned
//! by golden files. An interchange format must not drift silently — any
//! intentional format change must update these files (and the format's
//! version story) explicitly.

use parchmint::Device;
use parchmint_harness::{read_outcome, write_outcome};
use serde_json::Value;

const GOLDEN_JSON: &str = include_str!("../data/logic_gate_or.golden.json");
const GOLDEN_MINT: &str = include_str!("../data/rotary_pump_mixer.golden.mint");
const BASELINE_REPORT: &str = include_str!("../../ci/baseline-report.json");

#[test]
fn json_wire_format_matches_golden_file() {
    let device = parchmint_suite::by_name("logic_gate_or").unwrap().device();
    let serialized = device.to_json_pretty().unwrap() + "\n";
    assert_eq!(
        serialized, GOLDEN_JSON,
        "the ParchMint JSON wire format changed; if intentional, regenerate \
         tests/data/logic_gate_or.golden.json and document the change"
    );
}

#[test]
fn golden_json_parses_to_the_generated_device() {
    let from_golden = Device::from_json(GOLDEN_JSON).unwrap();
    let generated = parchmint_suite::by_name("logic_gate_or").unwrap().device();
    assert_eq!(from_golden, generated);
}

#[test]
fn mint_wire_format_matches_golden_file() {
    let device = parchmint_suite::by_name("rotary_pump_mixer")
        .unwrap()
        .device();
    let printed = parchmint_mint::print(&parchmint_mint::device_to_mint(&device));
    assert_eq!(
        printed, GOLDEN_MINT,
        "the MINT text format changed; if intentional, regenerate \
         tests/data/rotary_pump_mixer.golden.mint and document the change"
    );
}

#[test]
fn golden_mint_parses_and_rebuilds() {
    let file = parchmint_mint::parse(GOLDEN_MINT).unwrap();
    let device = parchmint_mint::mint_to_device(&file).unwrap();
    assert_eq!(device.name, "rotary_pump_mixer");
    assert_eq!(device.valves.len(), 5);
    assert!(
        parchmint_verify::validate(&parchmint::CompiledDevice::from_ref(&device)).is_conformant()
    );
}

#[test]
fn golden_json_passes_the_schema_structural_check() {
    let document: serde_json::Value = serde_json::from_str(GOLDEN_JSON).unwrap();
    assert_eq!(
        parchmint::schema::check_document(&document),
        Vec::<String>::new()
    );
}

#[test]
fn the_cell_codec_reads_and_rewrites_every_baseline_cell() {
    // The one reader and the one writer of a cell's outcome members
    // must carry every committed cell through unchanged.
    let report: Value = serde_json::from_str(BASELINE_REPORT).unwrap();
    let cells = report["cells"].as_array().unwrap();
    assert_eq!(cells.len(), 180);
    for cell in cells {
        let exec = read_outcome(cell.as_object().unwrap()).unwrap();
        let mut rewritten = write_outcome(exec.status, exec.detail.as_deref(), &exec.metrics);
        rewritten.insert("benchmark".to_string(), cell["benchmark"].clone());
        rewritten.insert("stage".to_string(), cell["stage"].clone());
        assert_eq!(&Value::Object(rewritten), cell);
    }
}
