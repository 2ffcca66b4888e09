//! Pins what the two searching routers produce and how hard they search.
//!
//! Every case places one design, routes it under a fresh obs collector,
//! and compares three things with recorded constants: an FNV-1a digest of
//! every routed net's waypoints followed by the failed list, the
//! `pnr.route.expansions` counter (heap pops over the whole route call),
//! and `pnr.route.negotiate.iterations`. A change to the grid search that
//! moves one route, one failure or one heap pop fails here by name. A
//! change meant to alter routes updates these constants together with
//! `ci/baseline-report.json`.

use parchmint::{CompiledDevice, Device};
use parchmint_obs::Collector;
use parchmint_pnr::route::RoutingResult;
use parchmint_pnr::{PlacerChoice, RouterChoice};
use parchmint_resilience::{Budget, StopReason};
use parchmint_suite::{generate_fpva, FpvaConfig};
use std::sync::Arc;

use PlacerChoice::{Annealing, Greedy};
use RouterChoice::{AStar, Negotiate};

/// The seeded FPVA case: an 11×11 valve grid, the size `fpva-cold`
/// benchmarks, where greedy placement leaves negotiation 20 iterations
/// of real congestion.
const FPVA: &str = "fpva_11x11";

struct Pinned {
    design: &'static str,
    placer: PlacerChoice,
    router: RouterChoice,
    digest: u64,
    routed: usize,
    failed: usize,
    expansions: u64,
    iterations: u64,
}

const fn pin(
    design: &'static str,
    placer: PlacerChoice,
    router: RouterChoice,
    digest: u64,
    (routed, failed): (usize, usize),
    expansions: u64,
    iterations: u64,
) -> Pinned {
    Pinned {
        design,
        placer,
        router,
        digest,
        routed,
        failed,
        expansions,
        iterations,
    }
}

#[rustfmt::skip]
const PINNED: &[Pinned] = &[
    pin("logic_gate_and", Greedy, AStar, 0xf391_1967_fcd3_2487, (12, 1), 25_018, 0),
    pin("logic_gate_and", Greedy, Negotiate, 0xd299_1925_1948_fe07, (13, 0), 17_067, 4),
    pin("logic_gate_and", Annealing, AStar, 0x9e00_53ad_ff5c_9ec1, (13, 0), 5_295, 0),
    pin("logic_gate_and", Annealing, Negotiate, 0xe708_e836_d844_23f5, (13, 0), 6_971, 2),
    pin("planar_synthetic_1", Greedy, AStar, 0xe491_c7c3_bb0b_1bed, (12, 3), 16_984, 0),
    pin("planar_synthetic_1", Greedy, Negotiate, 0x1694_e11c_a14b_0ddf, (15, 0), 47_346, 9),
    pin("planar_synthetic_1", Annealing, AStar, 0xc8f7_3711_ca5d_802b, (13, 2), 17_740, 0),
    pin("planar_synthetic_1", Annealing, Negotiate, 0x9c06_5c7b_a7eb_2d70, (15, 0), 46_662, 10),
    pin("aquaflex_5a", Greedy, AStar, 0x9291_5685_9865_fad6, (35, 23), 458_573, 0),
    pin("aquaflex_5a", Greedy, Negotiate, 0x5993_2a68_60a3_79ed, (41, 17), 2_018_931, 20),
    pin("aquaflex_5a", Annealing, AStar, 0x6c4c_577c_0fdc_84e1, (49, 9), 166_486, 0),
    pin("aquaflex_5a", Annealing, Negotiate, 0x3d74_9048_2a21_77e6, (57, 1), 487_240, 20),
    pin(FPVA, Greedy, AStar, 0x03c9_819b_83ba_9c22, (81, 141), 1_033_746, 0),
    pin(FPVA, Greedy, Negotiate, 0xbe2e_a8a9_cc38_c9b5, (104, 118), 12_779_134, 20),
    pin(FPVA, Annealing, AStar, 0x7433_0c05_0712_27f5, (199, 23), 1_033_327, 0),
    pin(FPVA, Annealing, Negotiate, 0xbd5b_2096_a242_efe7, (222, 0), 118_682, 6),
];

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Digest of every routed net (id, layer, each branch's waypoints, in
/// result order) followed by the failed ids.
fn digest(result: &RoutingResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for net in &result.routed {
        fnv1a(&mut h, net.connection.as_str().as_bytes());
        fnv1a(&mut h, &[0]);
        fnv1a(&mut h, net.layer.as_str().as_bytes());
        fnv1a(&mut h, &[0]);
        for branch in &net.branches {
            fnv1a(&mut h, &(branch.len() as u64).to_le_bytes());
            for p in branch {
                fnv1a(&mut h, &p.x.to_le_bytes());
                fnv1a(&mut h, &p.y.to_le_bytes());
            }
        }
    }
    fnv1a(&mut h, &[0xff]);
    for id in &result.failed {
        fnv1a(&mut h, id.as_str().as_bytes());
        fnv1a(&mut h, &[0]);
    }
    h
}

fn device(design: &str) -> Device {
    if design == FPVA {
        let config = FpvaConfig {
            rows: 11,
            cols: 11,
            seed: 7,
        };
        return generate_fpva(FPVA, &config);
    }
    parchmint_suite::by_name(design)
        .expect("registered benchmark")
        .device()
}

struct Outcome {
    result: RoutingResult,
    expansions: u64,
    iterations: u64,
}

/// Places `design` without a budget, then routes it under a fresh
/// collector and, when given, `budget`.
fn route(
    design: &str,
    placer: PlacerChoice,
    router: RouterChoice,
    budget: Option<&Budget>,
) -> Outcome {
    let mut device = device(design);
    let placement = placer.placer().place(&CompiledDevice::from_ref(&device));
    placement.apply_to(&mut device);
    let placed = CompiledDevice::from_ref(&device);
    let collector = Arc::new(Collector::new());
    let recorder: Arc<dyn parchmint_obs::Recorder> = Arc::clone(&collector) as _;
    let result = parchmint_obs::with_recorder(recorder, || match budget {
        Some(budget) => budget.enter(|| router.router().route(&placed)),
        None => router.router().route(&placed),
    });
    let counters = collector.summary().counters;
    let counter = |key: &str| counters.get(key).copied().unwrap_or(0);
    Outcome {
        expansions: counter("pnr.route.expansions"),
        iterations: counter("pnr.route.negotiate.iterations"),
        result,
    }
}

fn assert_pinned(design: &str) {
    let cases: Vec<&Pinned> = PINNED.iter().filter(|p| p.design == design).collect();
    assert_eq!(cases.len(), 4, "{design}: two placers × two routers");
    for case in cases {
        let label = format!("{design} {:?}+{:?}", case.placer, case.router);
        let outcome = route(design, case.placer, case.router, None);
        assert_eq!(
            (outcome.result.routed.len(), outcome.result.failed.len()),
            (case.routed, case.failed),
            "{label}: routed/failed counts"
        );
        assert_eq!(
            digest(&outcome.result),
            case.digest,
            "{label}: routed waypoints or failed list changed"
        );
        assert_eq!(outcome.expansions, case.expansions, "{label}: expansions");
        assert_eq!(outcome.iterations, case.iterations, "{label}: iterations");
    }
}

#[test]
fn logic_gate_and_routes_and_effort_are_pinned() {
    assert_pinned("logic_gate_and");
}

#[test]
fn planar_synthetic_1_routes_and_effort_are_pinned() {
    assert_pinned("planar_synthetic_1");
}

#[test]
fn aquaflex_5a_routes_and_effort_are_pinned() {
    assert_pinned("aquaflex_5a");
}

#[test]
fn seeded_fpva_routes_and_effort_are_pinned() {
    assert_pinned(FPVA);
}

#[test]
fn fuel_interrupted_negotiation_is_pinned() {
    // Unbudgeted, greedy+negotiate on planar_synthetic_1 converges in 9
    // iterations and 47,346 pops. 20,000 ticks of fuel trip inside the
    // fourth iteration; the partial result keeps the conflict-free nets
    // routed before the trip, and the trip lands on the same pop every run.
    let budget = Budget::unlimited().with_fuel(20_000);
    let outcome = route("planar_synthetic_1", Greedy, Negotiate, Some(&budget));
    assert_eq!(budget.interruption(), Some(StopReason::FuelExhausted));
    assert_eq!(
        (outcome.result.routed.len(), outcome.result.failed.len()),
        (10, 5)
    );
    assert_eq!(digest(&outcome.result), 0x9df4_a544_2039_2ca7);
    assert_eq!(outcome.expansions, 20_476);
    assert_eq!(outcome.iterations, 4);
}
