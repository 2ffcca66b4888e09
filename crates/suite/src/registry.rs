//! The benchmark registry: every device in the suite, with metadata.

use crate::{assay, synthetic};
use parchmint::Device;
use std::fmt;

/// Which class of the suite a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BenchmarkClass {
    /// Reconstructed from a published assay device (the paper's manually
    /// converted class).
    Assay,
    /// Generated planar netlist (the paper's Fluigi-generated class).
    Synthetic,
}

impl BenchmarkClass {
    /// Lowercase label.
    pub fn name(self) -> &'static str {
        match self {
            BenchmarkClass::Assay => "assay",
            BenchmarkClass::Synthetic => "synthetic",
        }
    }
}

impl fmt::Display for BenchmarkClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One benchmark of the suite: metadata plus its generator.
#[derive(Clone)]
pub struct Benchmark {
    name: &'static str,
    class: BenchmarkClass,
    description: &'static str,
    generator: fn() -> Device,
}

impl Benchmark {
    /// The benchmark's canonical name (also the generated device's name).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Assay or synthetic.
    pub fn class(&self) -> BenchmarkClass {
        self.class
    }

    /// One-line description.
    pub fn description(&self) -> &'static str {
        self.description
    }

    /// Generates the device. Generation is deterministic: repeated calls
    /// return identical devices.
    pub fn device(&self) -> Device {
        (self.generator)()
    }
}

impl fmt::Debug for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Benchmark")
            .field("name", &self.name)
            .field("class", &self.class)
            .finish_non_exhaustive()
    }
}

macro_rules! bench {
    ($name:literal, $class:ident, $gen:expr, $desc:literal) => {
        Benchmark {
            name: $name,
            class: BenchmarkClass::$class,
            description: $desc,
            generator: $gen,
        }
    };
}

/// The full benchmark suite, assay class first, then the synthetic ladder.
pub fn suite() -> Vec<Benchmark> {
    vec![
        bench!(
            "logic_gate_and",
            Assay,
            assay::logic_gates::generate_and,
            "droplet AND gate with phase synchronizer"
        ),
        bench!(
            "logic_gate_or",
            Assay,
            assay::logic_gates::generate_or,
            "droplet OR gate"
        ),
        bench!(
            "rotary_pump_mixer",
            Assay,
            assay::rotary_pump_mixer::generate,
            "Quake rotary mixer unit cell with peristaltic pump"
        ),
        bench!(
            "droplet_generator_array",
            Assay,
            assay::droplet_generator_array::generate,
            "8-nozzle flow-focusing emulsion array"
        ),
        bench!(
            "aquaflex_3b",
            Assay,
            assay::aquaflex::generate_3b,
            "3-lane protocol chip, one reagent"
        ),
        bench!(
            "aquaflex_5a",
            Assay,
            assay::aquaflex::generate_5a,
            "5-lane protocol chip, two reagents"
        ),
        bench!(
            "hemagglutination_inhibition",
            Assay,
            assay::hemagglutination_inhibition::generate,
            "8-stage serial-dilution HIN assay"
        ),
        bench!(
            "molecular_gradient_generator",
            Assay,
            assay::molecular_gradient_generator::generate,
            "5-level Christmas-tree gradient generator"
        ),
        bench!(
            "general_purpose_mfd",
            Assay,
            assay::general_purpose_mfd::generate,
            "mux-addressed 8-column assay bank"
        ),
        bench!(
            "cell_trap_array",
            Assay,
            assay::cell_trap_array::generate,
            "4x8 hydrodynamic single-cell trap grid"
        ),
        bench!(
            "chromatin_immunoprecipitation",
            Assay,
            assay::chromatin_immunoprecipitation::generate,
            "two-layer ChIP automation chip, 20 valve bindings"
        ),
        bench!(
            "planar_synthetic_1",
            Synthetic,
            || synthetic::planar_synthetic(1),
            "seeded planar netlist, ~12 components"
        ),
        bench!(
            "planar_synthetic_2",
            Synthetic,
            || synthetic::planar_synthetic(2),
            "seeded planar netlist, ~24 components"
        ),
        bench!(
            "planar_synthetic_3",
            Synthetic,
            || synthetic::planar_synthetic(3),
            "seeded planar netlist, ~48 components"
        ),
        bench!(
            "planar_synthetic_4",
            Synthetic,
            || synthetic::planar_synthetic(4),
            "seeded planar netlist, ~96 components"
        ),
        bench!(
            "planar_synthetic_5",
            Synthetic,
            || synthetic::planar_synthetic(5),
            "seeded planar netlist, ~192 components"
        ),
        bench!(
            "planar_synthetic_6",
            Synthetic,
            || synthetic::planar_synthetic(6),
            "seeded planar netlist, ~384 components"
        ),
        bench!(
            "planar_synthetic_7",
            Synthetic,
            || synthetic::planar_synthetic(7),
            "seeded planar netlist, ~768 components"
        ),
    ]
}

/// The FPVA-scale size tier: seeded m×n valve-grid devices from ~1k to
/// ~100k components.
///
/// Deliberately *not* part of [`suite`] — tier-1 tests, full-suite
/// sweeps, and the committed baselines all iterate [`suite`], and the
/// large rungs would dominate their runtime. The rungs are reachable by
/// name (see [`by_name`]) for explicit suite-run/serve requests.
pub fn fpva_suite() -> Vec<Benchmark> {
    vec![
        bench!(
            "fpva_1k",
            Synthetic,
            || synthetic::fpva_rung(1),
            "19x19 fully programmable valve array, 1047 components"
        ),
        bench!(
            "fpva_4k",
            Synthetic,
            || synthetic::fpva_rung(2),
            "37x37 fully programmable valve array, 4035 components"
        ),
        bench!(
            "fpva_10k",
            Synthetic,
            || synthetic::fpva_rung(3),
            "58x58 fully programmable valve array, 9978 components"
        ),
        bench!(
            "fpva_100k",
            Synthetic,
            || synthetic::fpva_rung(4),
            "183x183 fully programmable valve array, 100103 components"
        ),
    ]
}

/// Looks a benchmark up by name, across [`suite`] and the
/// [`fpva_suite`] size tier.
pub fn by_name(name: &str) -> Option<Benchmark> {
    suite()
        .into_iter()
        .chain(fpva_suite())
        .find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_eighteen_benchmarks() {
        let s = suite();
        assert_eq!(s.len(), 18);
        assert_eq!(
            s.iter()
                .filter(|b| b.class() == BenchmarkClass::Assay)
                .count(),
            11
        );
        assert_eq!(
            s.iter()
                .filter(|b| b.class() == BenchmarkClass::Synthetic)
                .count(),
            7
        );
    }

    #[test]
    fn names_unique_and_match_devices() {
        let s = suite();
        let mut names: Vec<&str> = s.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate benchmark names");
        for b in &s {
            assert_eq!(
                b.device().name,
                b.name(),
                "device name mismatch for {}",
                b.name()
            );
        }
    }

    #[test]
    fn by_name_round_trips() {
        for b in suite() {
            let found = by_name(b.name()).expect("lookup");
            assert_eq!(found.name(), b.name());
            assert_eq!(found.class(), b.class());
        }
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn fpva_tier_reachable_by_name_but_not_in_suite() {
        let tier = fpva_suite();
        assert_eq!(tier.len(), 4);
        let suite_names: Vec<&str> = suite().iter().map(|b| b.name()).collect();
        for b in &tier {
            assert!(
                !suite_names.contains(&b.name()),
                "{} must stay behind the size tier",
                b.name()
            );
            assert!(by_name(b.name()).is_some(), "{} unreachable", b.name());
        }
        // Only the smallest rung is generated in tests; the large rungs
        // exist for the ingest benchmark.
        let device = by_name("fpva_1k").unwrap().device();
        assert_eq!(device.name, "fpva_1k");
        assert_eq!(device.components.len(), 1047);
    }

    #[test]
    fn descriptions_nonempty_and_debug_works() {
        for b in suite() {
            assert!(!b.description().is_empty());
            assert!(format!("{b:?}").contains(b.name()));
        }
        assert_eq!(BenchmarkClass::Assay.to_string(), "assay");
    }
}
