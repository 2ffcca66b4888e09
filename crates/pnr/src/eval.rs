//! Quality metrics for a place-and-route run.

use crate::place::{cost::hpwl, Placement};
use crate::route::RoutingResult;
use parchmint::geometry::Span;
use parchmint::CompiledDevice;
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

/// Cell size used when rasterizing routes for the congestion metric, in
/// µm: the routing lattice's cell, so the metric counts the same
/// corridors the routers negotiate over.
pub const CONGESTION_CELL: i64 = crate::route::CELL;

/// Maximum number of distinct nets crossing any one `cell`-sized grid
/// square — the congestion hot-spot depth. `1` means perfectly disjoint
/// channels; higher values measure how hard the routing leans on shared
/// corridors (nets legitimately meet near shared ports, so small overlaps
/// appear even in legal routings). `0` when nothing is routed.
pub fn max_congestion(routing: &RoutingResult, cell: i64) -> u32 {
    let mut counts: HashMap<(i64, i64), u32> = HashMap::new();
    for net in &routing.routed {
        let mut own: Vec<(i64, i64)> = Vec::new();
        for branch in &net.branches {
            for w in branch.windows(2) {
                let (a, b) = (
                    (w[0].x / cell, w[0].y / cell),
                    (w[1].x / cell, w[1].y / cell),
                );
                let (dx, dy) = ((b.0 - a.0).signum(), (b.1 - a.1).signum());
                let (mut cx, mut cy) = a;
                loop {
                    own.push((cx, cy));
                    if (cx, cy) == b || (dx, dy) == (0, 0) {
                        break;
                    }
                    cx += dx;
                    cy += dy;
                }
            }
        }
        own.sort_unstable();
        own.dedup();
        for c in own {
            *counts.entry(c).or_insert(0) += 1;
        }
    }
    counts.values().copied().max().unwrap_or(0)
}

/// Everything the benchmark harness reports per (benchmark, placer, router)
/// cell — the rows of the algorithmic-quality experiment (E4).
#[derive(Debug, Clone, PartialEq)]
pub struct PnrReport {
    /// Benchmark name.
    pub benchmark: String,
    /// Placer used.
    pub placer: String,
    /// Router used.
    pub router: String,
    /// Components placed.
    pub components: usize,
    /// Nets attempted.
    pub nets: usize,
    /// Nets routed.
    pub routed: usize,
    /// Half-perimeter wirelength after placement, in µm.
    pub hpwl: i64,
    /// Total routed wirelength, in µm.
    pub wirelength: i64,
    /// Total bends across routed nets.
    pub bends: usize,
    /// Maximum distinct nets crossing any one routing-grid cell (see
    /// [`max_congestion`]).
    pub max_congestion: u32,
    /// Final die outline, in µm.
    pub die: Span,
    /// Placement wall-clock time.
    pub place_time: Duration,
    /// Routing wall-clock time.
    pub route_time: Duration,
}

impl PnrReport {
    /// Routing completion rate in `[0, 1]`.
    pub fn completion(&self) -> f64 {
        if self.nets == 0 {
            1.0
        } else {
            self.routed as f64 / self.nets as f64
        }
    }

    /// Assembles a report from run artifacts.
    #[allow(clippy::too_many_arguments)] // one argument per report column
    pub fn from_run(
        benchmark: &str,
        placer: &str,
        router: &str,
        compiled: &CompiledDevice,
        placement: &Placement,
        routing: &RoutingResult,
        place_time: Duration,
        route_time: Duration,
    ) -> Self {
        PnrReport {
            benchmark: benchmark.to_owned(),
            placer: placer.to_owned(),
            router: router.to_owned(),
            components: compiled.component_count(),
            nets: routing.routed.len() + routing.failed.len(),
            routed: routing.routed.len(),
            hpwl: hpwl(compiled, placement),
            wirelength: routing.wirelength(),
            bends: routing.bends(),
            max_congestion: max_congestion(routing, CONGESTION_CELL),
            die: compiled.device().declared_bounds().unwrap_or_default(),
            place_time,
            route_time,
        }
    }

    /// The harness table header matching [`PnrReport::row`].
    pub fn header() -> String {
        format!(
            "{:<30} {:<10} {:<9} {:>6} {:>6} {:>7} {:>12} {:>12} {:>6} {:>5} {:>9} {:>9}",
            "benchmark",
            "placer",
            "router",
            "comps",
            "nets",
            "routed",
            "hpwl_um",
            "wire_um",
            "bends",
            "cong",
            "t_place",
            "t_route"
        )
    }

    /// One fixed-width table row.
    pub fn row(&self) -> String {
        format!(
            "{:<30} {:<10} {:<9} {:>6} {:>6} {:>6.1}% {:>12} {:>12} {:>6} {:>5} {:>8.1?} {:>8.1?}",
            self.benchmark,
            self.placer,
            self.router,
            self.components,
            self.nets,
            self.completion() * 100.0,
            self.hpwl,
            self.wirelength,
            self.bends,
            self.max_congestion,
            self.place_time,
            self.route_time
        )
    }
}

impl fmt::Display for PnrReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.row())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank() -> PnrReport {
        PnrReport {
            benchmark: "b".into(),
            placer: "p".into(),
            router: "r".into(),
            components: 3,
            nets: 4,
            routed: 3,
            hpwl: 100,
            wirelength: 140,
            bends: 2,
            max_congestion: 1,
            die: Span::square(1000),
            place_time: Duration::from_millis(5),
            route_time: Duration::from_millis(7),
        }
    }

    #[test]
    fn completion_rate() {
        let r = blank();
        assert!((r.completion() - 0.75).abs() < 1e-12);
        let empty = PnrReport {
            nets: 0,
            routed: 0,
            ..blank()
        };
        assert_eq!(empty.completion(), 1.0);
    }

    #[test]
    fn max_congestion_counts_distinct_nets_per_cell() {
        use crate::route::RoutedNet;
        use parchmint::geometry::Point;
        let net = |id: &str, pts: &[(i64, i64)]| RoutedNet {
            connection: id.into(),
            layer: "f".into(),
            branches: vec![pts.iter().map(|&(x, y)| Point::new(x, y)).collect()],
        };
        // Two nets sharing one corridor cell, a third far away.
        let routing = RoutingResult {
            routed: vec![
                net("a", &[(100, 100), (900, 100)]),
                net("b", &[(500, 50), (500, 700)]),
                net("c", &[(5000, 5000), (5000, 5600)]),
            ],
            failed: vec![],
        };
        assert_eq!(max_congestion(&routing, 200), 2);
        // A net crossing its own cell twice counts once.
        let selfcross = RoutingResult {
            routed: vec![net("a", &[(100, 100), (900, 100), (900, 300), (100, 300)])],
            failed: vec![],
        };
        assert_eq!(max_congestion(&selfcross, 200), 1);
        assert_eq!(max_congestion(&RoutingResult::default(), 200), 0);
    }

    #[test]
    fn row_and_header_align() {
        let r = blank();
        assert!(PnrReport::header().contains("benchmark"));
        assert!(r.row().contains("75.0%"));
        assert_eq!(r.to_string(), r.row());
    }
}
