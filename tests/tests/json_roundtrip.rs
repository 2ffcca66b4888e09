//! Cross-crate invariant (experiment E2): the JSON interchange format is
//! lossless over the entire suite, strict about versioning, and stable.

use parchmint::Device;
use parchmint_suite::suite;

#[test]
fn whole_suite_round_trips_compact() {
    for benchmark in suite() {
        let device = benchmark.device();
        let json = device.to_json().expect("serialize");
        let back = Device::from_json(&json).expect("parse");
        assert_eq!(back, device, "{} lost data in round-trip", benchmark.name());
    }
}

#[test]
fn whole_suite_round_trips_pretty() {
    for benchmark in suite() {
        let device = benchmark.device();
        let json = device.to_json_pretty().expect("serialize");
        let back = Device::from_json(&json).expect("parse");
        assert_eq!(
            back,
            device,
            "{} lost data in pretty round-trip",
            benchmark.name()
        );
    }
}

#[test]
fn both_readers_agree_on_the_suite_and_fpva_tiers() {
    // `Device::from_json` (the streaming reader) against the `Value` tree
    // oracle, at suite scale and at FPVA scale. `fpva_10k` would add
    // seconds to a debug run, so the tier stops at 4k.
    let fpva = ["fpva_1k", "fpva_4k"]
        .map(|name| parchmint_suite::by_name(name).expect("registered FPVA tier"));
    for benchmark in suite().into_iter().chain(fpva) {
        let device = benchmark.device();
        for json in [device.to_json(), device.to_json_pretty()] {
            let json = json.expect("serialize");
            let parsed = Device::from_json(&json).expect("from_json");
            let oracle: Device = serde_json::from_str(&json).expect("oracle");
            assert_eq!(parsed, device, "{}: from_json lost data", benchmark.name());
            assert_eq!(oracle, device, "{}: oracle lost data", benchmark.name());
        }
    }
}

#[test]
fn serialization_is_byte_stable() {
    for benchmark in suite() {
        let a = benchmark.device().to_json().unwrap();
        let b = benchmark.device().to_json().unwrap();
        assert_eq!(a, b, "{} serialization unstable", benchmark.name());
    }
}

#[test]
fn valve_maps_present_exactly_when_device_has_valves() {
    for benchmark in suite() {
        let device = benchmark.device();
        let json = device.to_json().unwrap();
        assert_eq!(
            json.contains("valveMap"),
            !device.valves.is_empty(),
            "{}",
            benchmark.name()
        );
        assert_eq!(
            json.contains("valveTypeMap"),
            !device.valves.is_empty(),
            "{}",
            benchmark.name()
        );
    }
}

#[test]
fn spans_serialize_in_kebab_case() {
    let device = parchmint_suite::by_name("logic_gate_or").unwrap().device();
    let json = device.to_json().unwrap();
    assert!(json.contains(r#""x-span""#));
    assert!(json.contains(r#""y-span""#));
    assert!(
        !json.contains("x_span"),
        "snake_case leaked into the wire format"
    );
}

#[test]
fn placed_and_routed_devices_round_trip_too() {
    let mut device = parchmint_suite::by_name("logic_gate_or").unwrap().device();
    parchmint_pnr::place_and_route(
        &mut device,
        parchmint_pnr::PlacerChoice::Greedy,
        parchmint_pnr::RouterChoice::AStar,
    );
    assert!(device.is_placed());
    let json = device.to_json_pretty().unwrap();
    let back = Device::from_json(&json).unwrap();
    assert_eq!(back, device);
    assert!(back.is_placed());
    // logic_gate_or has no valves, so physical design implies exactly 1.1.
    assert_eq!(back.version, parchmint::Version::V1_1);
}

#[test]
fn sizes_grow_with_the_synthetic_ladder() {
    let sizes: Vec<usize> = (1..=7)
        .map(|k| {
            parchmint_suite::planar_synthetic(k)
                .to_json()
                .unwrap()
                .len()
        })
        .collect();
    assert!(sizes.windows(2).all(|w| w[0] < w[1]), "{sizes:?}");
}
