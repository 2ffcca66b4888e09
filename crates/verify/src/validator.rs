//! The validator: design-rule configuration and rule orchestration.

use crate::diagnostics::Report;
use crate::rules;
use parchmint::CompiledDevice;

/// Fabrication limits the `DRC*` and `GEO*` rules enforce.
///
/// Defaults approximate soft-lithography PDMS processes: 5 µm minimum
/// feature width/depth and 10 µm spacing between independent features.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignRules {
    /// Minimum routed channel width, in µm.
    pub min_channel_width: i64,
    /// Minimum feature depth, in µm.
    pub min_channel_depth: i64,
    /// Minimum clearance between disjoint placements, in µm.
    pub min_spacing: i64,
    /// Manhattan slack allowed between a route endpoint and its terminal
    /// port, in µm.
    pub endpoint_tolerance: i64,
}

impl Default for DesignRules {
    fn default() -> Self {
        DesignRules {
            min_channel_width: 5,
            min_channel_depth: 5,
            min_spacing: 10,
            endpoint_tolerance: 0,
        }
    }
}

/// Validates [`Device`](parchmint::Device)s against the interchange
/// contract and a set of design rules.
///
/// # Examples
///
/// ```
/// use parchmint::{CompiledDevice, Device};
/// use parchmint_verify::Validator;
///
/// let compiled = CompiledDevice::compile(Device::new("empty"));
/// let report = Validator::new().validate(&compiled);
/// assert!(report.is_conformant());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Validator {
    rules: DesignRules,
}

/// Runs one rule group under an observability span and counts the
/// diagnostics it contributed.
fn rule_group(
    span: &'static str,
    diagnostics: &'static str,
    report: &mut Report,
    check: impl FnOnce(&mut Report),
) {
    let _span = parchmint_obs::Span::enter(span);
    let before = report.len();
    check(report);
    parchmint_obs::count(diagnostics, (report.len() - before) as u64);
}

impl Validator {
    /// Creates a validator with default design rules.
    pub fn new() -> Self {
        Validator::default()
    }

    /// Creates a validator with explicit design rules.
    pub fn with_rules(rules: DesignRules) -> Self {
        Validator { rules }
    }

    /// The active design rules.
    pub fn rules(&self) -> &DesignRules {
        &self.rules
    }

    /// Runs every rule group over a compiled device.
    ///
    /// Rules query the compiled index for id resolution and terminal
    /// positions; raw-vector traversals (duplicate detection, per-entity
    /// sweeps) go through [`CompiledDevice::device`]. Each rule group
    /// runs under its own observability span and reports how many
    /// diagnostics it contributed.
    pub fn validate(&self, compiled: &CompiledDevice) -> Report {
        let mut report = Report::new();
        rule_group(
            "verify.referential",
            "verify.referential.diagnostics",
            &mut report,
            |r| rules::referential::check(compiled, r),
        );
        rule_group(
            "verify.structure",
            "verify.structure.diagnostics",
            &mut report,
            |r| rules::structure::check(compiled, r),
        );
        rule_group(
            "verify.geometry",
            "verify.geometry.diagnostics",
            &mut report,
            |r| rules::geometry::check(compiled, &self.rules, r),
        );
        rule_group(
            "verify.design",
            "verify.design.diagnostics",
            &mut report,
            |r| rules::design::check(compiled, &self.rules, r),
        );
        rule_group(
            "verify.connectivity",
            "verify.connectivity.diagnostics",
            &mut report,
            |r| rules::connectivity::check(compiled, r),
        );
        report
    }
}

/// Validates a compiled device with default rules; shorthand for
/// `Validator::new().validate(..)`.
pub fn validate(compiled: &CompiledDevice) -> Report {
    Validator::new().validate(compiled)
}
