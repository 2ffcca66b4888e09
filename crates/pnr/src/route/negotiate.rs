//! Negotiated-congestion routing: PathFinder-style iterated rip-up.
//!
//! Where the sequential A* router commits each net's cells as hard
//! obstacles for every later net, this router lets nets *share* cells
//! while negotiation is in progress. Every iteration rips up and re-routes
//! all nets; a cell occupied by other nets costs extra (the
//! present-sharing penalty, growing each iteration) and a cell that keeps
//! being fought over accumulates a permanent history cost. Nets that lose
//! the auction for a congested cell are priced out toward free silicon,
//! which resolves the ordering conflicts a one-shot sequential router
//! cannot: no single routing order has to be right, because the prices
//! carry information between passes.
//!
//! Every search runs the grid kernel the A* router also uses
//! (`grid::Search`), whose stamped scratch serves every net of one route
//! call. Its cost closure reads a per-cell cost table holding
//! `history + occupancy * pres_fac`, refreshed for every cell when
//! `pres_fac` or `history` changes and for a net's own cells when it is
//! ripped up or committed, so pricing a neighbour is one table read. Each
//! net's expansion is bounded to its terminal bounding box inflated by a
//! margin, widening to the whole grid only when the bounded pass fails.
//!
//! Hardening searches run the kernel's goal-side flood, which ends a
//! search with no path as soon as it proves the goal walled off; the
//! negotiated searches do not. Hardening blocks the cells other nets
//! hold, which walls sinks in. Negotiation prices those cells instead, so
//! a net's passable cells are the component-free cells plus its own
//! escape zones in every iteration, and a negotiated search fails only
//! where components alone wall a sink off. On the designs
//! `tests/tests/route_kernel.rs` pins, flooding the negotiated searches
//! too saves no pop, so there it would only add work.
//!
//! The returned routing is always *legal* (cell-disjoint outside endpoint
//! escape zones): after negotiation a hardening pass keeps every net whose
//! route is conflict-free and re-routes the rest with hard blocking,
//! failing the ones that no longer fit. Budget interruption
//! (deadline/fuel/cancel) is metered inside the search loop; a tripped
//! budget stops negotiation, makes every hardening re-search fail
//! instantly, and so falls back to exactly the conflict-free subset of the
//! last completed iteration — the caller always receives the best fully
//! legal routing reached so far.

use super::grid::{to_waypoints, FreeCells, RoutingGrid, Search, Window, ROUTE_CHECK_INTERVAL};
use super::{RoutedNet, Router, RoutingResult};
use parchmint::geometry::Point;
use parchmint::{CompiledDevice, ConnectionId};
use parchmint_resilience::Meter;

/// Tuning knobs for [`NegotiatedRouter`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NegotiatedRouterConfig {
    /// Routing-grid cell size, in µm.
    pub cell: i64,
    /// Clearance kept around component footprints, in µm.
    pub clearance: i64,
    /// Cost of one cell step (scaled integers).
    pub step_cost: u32,
    /// Extra cost per 90° bend.
    pub bend_penalty: u32,
    /// Maximum rip-up-and-reroute iterations before hardening.
    pub max_iterations: u32,
    /// First-iteration cost per foreign occupant of a shared cell; doubles
    /// every iteration (capped) so sharing is cheap early and prohibitive
    /// late — the classic PathFinder schedule.
    pub present_cost: u32,
    /// Permanent cost added to every overused cell after each iteration.
    pub history_cost: u32,
    /// Bounding-box margin around each net's terminals, in cells; the
    /// search widens to the whole grid only if the bounded pass fails.
    pub bbox_margin: i64,
}

impl Default for NegotiatedRouterConfig {
    fn default() -> Self {
        NegotiatedRouterConfig {
            cell: 200,
            clearance: 100,
            step_cost: 10,
            bend_penalty: 30,
            max_iterations: 20,
            present_cost: 20,
            history_cost: 15,
            bbox_margin: 8,
        }
    }
}

/// PathFinder-style negotiated-congestion router.
#[derive(Debug, Clone, Default)]
pub struct NegotiatedRouter {
    config: NegotiatedRouterConfig,
}

impl NegotiatedRouter {
    /// Creates a router with default tuning.
    pub fn new() -> Self {
        NegotiatedRouter::default()
    }
}

/// Per-net negotiation state.
struct NetState {
    /// Index into `device.connections` (declaration order).
    conn: usize,
    src: Point,
    sinks: Vec<Point>,
    src_cell: (i64, i64),
    sink_cells: Vec<(i64, i64)>,
    /// Escape-zone cells around the net's own terminals: passable despite
    /// component blockage and never charged to this net's occupancy, so
    /// nets sharing a port do not fight over the cells in front of it.
    escape: Vec<usize>,
    /// Path cells currently claimed in the occupancy map, deduped, escape
    /// cells excluded.
    cells: Vec<usize>,
    /// Committed waypoint branches, one per sink.
    branches: Vec<Vec<Point>>,
    routed: bool,
}

struct Negotiation<'a> {
    grid: &'a RoutingGrid,
    config: &'a NegotiatedRouterConfig,
    /// Number of nets currently claiming each cell.
    occupancy: Vec<u32>,
    /// Accumulated per-cell history cost across iterations.
    history: Vec<u32>,
    /// The present-sharing penalty of the current iteration.
    pres_fac: u32,
    /// Per cell, `history + occupancy * pres_fac` (saturating), or `None`
    /// where a component blocks the cell. Kept current for every cell a
    /// negotiated search can read.
    cost: Vec<Option<u32>>,
    /// The escape zones and own cells of the net being routed; cleared
    /// when the next net starts.
    free: FreeCells,
    kernel: Search,
}

impl Negotiation<'_> {
    fn refresh(&mut self, cell: usize) {
        self.cost[cell] = (self.grid.blocked[cell] == 0).then(|| {
            self.history[cell].saturating_add(self.occupancy[cell].saturating_mul(self.pres_fac))
        });
    }

    /// Routes every sink of one net, bounded-then-unbounded, returning the
    /// waypoint branches and the deduped non-escape path cells. The net
    /// must already be ripped up (its cells out of the occupancy map).
    /// `HARD` selects hardening over negotiation, and with it the kernel's
    /// goal-side flood; as a constant it gives each mode its own copy of
    /// the search loop.
    fn route_net<const HARD: bool>(
        &mut self,
        net: &NetState,
        meter: &mut Meter,
    ) -> Option<(Vec<Vec<Point>>, Vec<usize>)> {
        // Escape cells start out free, so the commit loop below never
        // charges them to this net's occupancy.
        self.free.clear();
        for &c in &net.escape {
            self.free.insert(c);
        }

        let (grid, step, bend) = (self.grid, self.config.step_cost, self.config.bend_penalty);
        let mut branches = Vec::with_capacity(net.sinks.len());
        let mut cells: Vec<usize> = Vec::new();
        for (sink, &sink_cell) in net.sinks.iter().zip(&net.sink_cells) {
            let bounds = self.window_for(net.src_cell, sink_cell);
            // The net's free cells cost nothing. Elsewhere negotiation
            // prices a cell from the table; hardening makes occupied cells
            // impassable and charges nothing else.
            let (free, occupancy, cost) = (&self.free, &self.occupancy, &self.cost);
            let price = |c: usize| match (free.contains(c), HARD) {
                (true, _) => Some(0),
                (false, true) => (grid.blocked[c] == 0 && occupancy[c] == 0).then_some(0),
                (false, false) => cost[c],
            };
            let mut search = |window| {
                let (start, goal) = (net.src_cell, sink_cell);
                self.kernel
                    .run::<HARD>(grid, step, bend, start, goal, window, meter, price)
            };
            // The bounded pass can fail inside a congested window even
            // though free silicon exists outside it; widen to the whole
            // grid before giving up on the sink.
            let found = search(Some(bounds)).or_else(|| search(None))?;
            branches.push(to_waypoints(self.grid, net.src, *sink, &found));
            for (cx, cy) in found {
                let idx = self.grid.index(cx, cy);
                // Own cells become free for later branches (trunk sharing).
                if self.free.insert(idx) {
                    cells.push(idx);
                }
            }
        }
        Some((branches, cells))
    }

    fn window_for(&self, a: (i64, i64), b: (i64, i64)) -> Window {
        let margin = self.config.bbox_margin;
        (
            a.0.min(b.0) - margin,
            a.1.min(b.1) - margin,
            a.0.max(b.0) + margin,
            a.1.max(b.1) + margin,
        )
    }

    fn rip_up(&mut self, net: &mut NetState) {
        for &c in &net.cells {
            self.occupancy[c] = self.occupancy[c].saturating_sub(1);
            self.refresh(c);
        }
        net.cells.clear();
        net.branches.clear();
        net.routed = false;
    }

    fn commit(&mut self, net: &mut NetState, branches: Vec<Vec<Point>>, cells: Vec<usize>) {
        for &c in &cells {
            self.occupancy[c] += 1;
            self.refresh(c);
        }
        net.branches = branches;
        net.cells = cells;
        net.routed = true;
    }

    /// Cells currently claimed by more than one net.
    fn overused(&self) -> Vec<usize> {
        self.occupancy
            .iter()
            .enumerate()
            .filter(|&(_, &o)| o > 1)
            .map(|(i, _)| i)
            .collect()
    }
}

impl Router for NegotiatedRouter {
    fn name(&self) -> &'static str {
        "negotiate"
    }

    fn route(&self, compiled: &CompiledDevice) -> RoutingResult {
        parchmint_resilience::fault::inject("pnr.route");
        let device = compiled.device();
        let grid = RoutingGrid::from_device(device, self.config.cell, self.config.clearance);
        let n_cells = grid.blocked.len();

        // Per-net state; nets with unplaced terminals fail up front.
        let mut failed: Vec<(usize, ConnectionId)> = Vec::new();
        let mut nets: Vec<NetState> = Vec::new();
        for (i, connection) in device.connections.iter().enumerate() {
            let Some(src) = compiled.target_position(&connection.source) else {
                failed.push((i, connection.id.clone()));
                continue;
            };
            let sinks: Vec<Point> = connection
                .sinks
                .iter()
                .filter_map(|s| compiled.target_position(s))
                .collect();
            if sinks.len() != connection.sinks.len() || sinks.is_empty() {
                failed.push((i, connection.id.clone()));
                continue;
            }
            let src_cell = grid.cell_of(src);
            let sink_cells: Vec<(i64, i64)> = sinks.iter().map(|&p| grid.cell_of(p)).collect();
            let mut escape = grid.disc(src_cell, 2);
            for &sc in &sink_cells {
                escape.extend(grid.disc(sc, 2));
            }
            escape.sort_unstable();
            escape.dedup();
            nets.push(NetState {
                conn: i,
                src,
                sinks,
                src_cell,
                sink_cells,
                escape,
                cells: Vec::new(),
                branches: Vec::new(),
                routed: false,
            });
        }

        // Stable negotiation order: shortest estimated nets first, ties in
        // declaration order (the sort is stable).
        nets.sort_by_key(|net| {
            net.sinks
                .iter()
                .map(|p| net.src.manhattan_distance(*p))
                .sum::<i64>()
        });

        let mut negotiation = Negotiation {
            grid: &grid,
            config: &self.config,
            occupancy: vec![0; n_cells],
            history: vec![0; n_cells],
            pres_fac: 0,
            cost: vec![None; n_cells],
            free: FreeCells::new(&grid),
            kernel: Search::new(&grid),
        };
        let mut meter = Meter::new(ROUTE_CHECK_INTERVAL);
        let tracing = parchmint_obs::enabled();

        let mut iterations = 0u64;
        for iteration in 0..self.config.max_iterations {
            if meter.check().is_err() {
                break;
            }
            iterations = u64::from(iteration) + 1;
            // The present-sharing penalty doubles each iteration, capped so
            // the saturating cost arithmetic stays far from overflow.
            negotiation.pres_fac = self
                .config
                .present_cost
                .saturating_mul(1u32 << iteration.min(16))
                .min(1 << 20);
            // Reprice every cell for the new penalty and last iteration's
            // history.
            for cell in 0..n_cells {
                negotiation.refresh(cell);
            }
            for net in nets.iter_mut() {
                negotiation.rip_up(net);
                if let Some((branches, cells)) = negotiation.route_net::<false>(net, &mut meter) {
                    negotiation.commit(net, branches, cells);
                }
            }
            let overused = negotiation.overused();
            if tracing {
                parchmint_obs::observe("pnr.route.negotiate.overused_cells", overused.len() as u64);
            }
            // No shared cells → the state is legal, and another pass cannot
            // change passability, so this is the fixed point (whether or
            // not every net routed). A tripped budget also stops here.
            if overused.is_empty() || parchmint_resilience::interruption().is_some() {
                break;
            }
            for &c in &overused {
                negotiation.history[c] =
                    negotiation.history[c].saturating_add(self.config.history_cost);
            }
        }

        // Hardening: keep every conflict-free net as-is, re-route the rest
        // with hard blocking (occupied cells impassable), fail what no
        // longer fits. After convergence this is a no-op sweep; after an
        // interruption the tripped meter makes every re-search fail
        // instantly, so exactly the conflict-free subset of the last
        // completed iteration survives.
        let keep: Vec<bool> = nets
            .iter()
            .map(|net| net.routed && net.cells.iter().all(|&c| negotiation.occupancy[c] == 1))
            .collect();
        negotiation.occupancy.fill(0);
        for (net, &kept) in nets.iter().zip(&keep) {
            if kept {
                for &c in &net.cells {
                    negotiation.occupancy[c] += 1;
                }
            }
        }
        let mut routed: Vec<(usize, RoutedNet)> = Vec::with_capacity(nets.len());
        let mut hard_rerouted = 0u64;
        for (i, net) in nets.iter().enumerate() {
            let connection = &device.connections[net.conn];
            if keep[i] {
                routed.push((
                    net.conn,
                    RoutedNet {
                        connection: connection.id.clone(),
                        layer: connection.layer.clone(),
                        branches: net.branches.clone(),
                    },
                ));
                continue;
            }
            match negotiation.route_net::<true>(net, &mut meter) {
                Some((branches, cells)) => {
                    hard_rerouted += 1;
                    for &c in &cells {
                        negotiation.occupancy[c] += 1;
                    }
                    routed.push((
                        net.conn,
                        RoutedNet {
                            connection: connection.id.clone(),
                            layer: connection.layer.clone(),
                            branches,
                        },
                    ));
                }
                None => failed.push((net.conn, connection.id.clone())),
            }
        }

        if tracing {
            parchmint_obs::count("pnr.route.negotiate.iterations", iterations);
            parchmint_obs::count(
                "pnr.route.negotiate.expansions",
                negotiation.kernel.expanded,
            );
            parchmint_obs::count("pnr.route.negotiate.hard_rerouted", hard_rerouted);
            parchmint_obs::count("pnr.route.ripup_rounds", iterations.saturating_sub(1));
            parchmint_obs::count("pnr.route.routed", routed.len() as u64);
            parchmint_obs::count("pnr.route.failed", failed.len() as u64);
            parchmint_obs::count("pnr.route.expansions", negotiation.kernel.expanded);
        }

        // Report in connection declaration order, like the other routers.
        routed.sort_by_key(|&(i, _)| i);
        failed.sort_by_key(|&(i, _)| i);
        RoutingResult {
            routed: routed.into_iter().map(|(_, net)| net).collect(),
            failed: failed.into_iter().map(|(_, id)| id).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::{greedy::GreedyPlacer, Placer};
    use crate::route::grid::AStarRouter;
    use parchmint::Device;

    fn placed(name: &str) -> Device {
        let mut d = parchmint_suite::by_name(name).unwrap().device();
        let placement = GreedyPlacer::new().place(&CompiledDevice::from_ref(&d));
        placement.apply_to(&mut d);
        d
    }

    #[test]
    fn router_name() {
        assert_eq!(NegotiatedRouter::new().name(), "negotiate");
    }

    #[test]
    fn routes_a_small_benchmark_completely() {
        let d = placed("logic_gate_or");
        let result = NegotiatedRouter::new().route(&CompiledDevice::from_ref(&d));
        assert!(result.failed.is_empty(), "failed: {:?}", result.failed);
        for net in &result.routed {
            for branch in &net.branches {
                assert!(branch.len() >= 2);
                for w in branch.windows(2) {
                    assert!(w[0].x == w[1].x || w[0].y == w[1].y, "diagonal segment");
                }
            }
        }
    }

    #[test]
    fn never_worse_than_astar_on_completion() {
        for name in ["logic_gate_or", "logic_gate_and", "rotary_pump_mixer"] {
            let d = placed(name);
            let compiled = CompiledDevice::from_ref(&d);
            let astar = AStarRouter::new().route(&compiled);
            let negotiated = NegotiatedRouter::new().route(&compiled);
            assert!(
                negotiated.completion() >= astar.completion(),
                "{name}: negotiate {:.2} < astar {:.2}",
                negotiated.completion(),
                astar.completion()
            );
        }
    }

    #[test]
    fn result_is_cell_disjoint_outside_escape_zones() {
        let d = placed("logic_gate_and");
        let compiled = CompiledDevice::from_ref(&d);
        let config = NegotiatedRouterConfig::default();
        let result = NegotiatedRouter::new().route(&compiled);
        let grid = RoutingGrid::from_device(&d, config.cell, config.clearance);

        // Rebuild each net's claimed cells the way the router charges them:
        // rasterize branch segments, drop cells inside the net's own
        // endpoint escape discs.
        let mut claims: std::collections::HashMap<usize, u32> = std::collections::HashMap::new();
        for net in &result.routed {
            let connection = d
                .connections
                .iter()
                .find(|c| c.id == net.connection)
                .unwrap();
            let src = compiled.target_position(&connection.source).unwrap();
            let mut escape: Vec<usize> = grid.disc(grid.cell_of(src), 2);
            for sink in &connection.sinks {
                let p = compiled.target_position(sink).unwrap();
                escape.extend(grid.disc(grid.cell_of(p), 2));
            }
            let mut cells: Vec<usize> = Vec::new();
            for branch in &net.branches {
                for w in branch.windows(2) {
                    let (a, b) = (grid.cell_of(w[0]), grid.cell_of(w[1]));
                    let (dx, dy) = ((b.0 - a.0).signum(), (b.1 - a.1).signum());
                    let (mut cx, mut cy) = a;
                    loop {
                        cells.push(grid.index(cx, cy));
                        if (cx, cy) == b {
                            break;
                        }
                        cx += dx;
                        cy += dy;
                    }
                }
            }
            cells.sort_unstable();
            cells.dedup();
            for c in cells {
                if !escape.contains(&c) {
                    *claims.entry(c).or_insert(0) += 1;
                }
            }
        }
        let shared: Vec<_> = claims.iter().filter(|&(_, &n)| n > 1).collect();
        assert!(shared.is_empty(), "shared corridor cells: {shared:?}");
    }
}
