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
use super::{count, nets, Net, RoutedNet, Router, RoutingResult, BEND_PENALTY, STEP_COST};
use parchmint::geometry::Point;
use parchmint::{CompiledDevice, ConnectionId};
use parchmint_resilience::Meter;

/// Maximum rip-up-and-reroute iterations before hardening.
const MAX_ITERATIONS: u32 = 20;
/// First-iteration cost per foreign occupant of a shared cell; doubles
/// every iteration (capped) so sharing is cheap early and prohibitive
/// late — the classic PathFinder schedule.
const PRESENT_COST: u32 = 20;
/// Permanent cost added to every overused cell after each iteration.
const HISTORY_COST: u32 = 15;
/// Bounding-box margin around each net's terminals, in cells; the
/// search widens to the whole grid only if the bounded pass fails.
const BBOX_MARGIN: i64 = 8;

/// PathFinder-style negotiated-congestion router.
#[derive(Debug, Clone, Default)]
pub struct NegotiatedRouter;

impl NegotiatedRouter {
    /// Creates the router.
    pub fn new() -> Self {
        NegotiatedRouter
    }
}

/// Per-net negotiation state.
struct NetState<'a> {
    /// Index into `device.connections` (declaration order).
    conn: usize,
    net: Net<'a>,
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

impl<'a> NetState<'a> {
    fn new(conn: usize, net: Net<'a>, grid: &RoutingGrid) -> Self {
        let src_cell = grid.cell_of(net.source);
        let sink_cells: Vec<(i64, i64)> = net.sinks.iter().map(|&p| grid.cell_of(p)).collect();
        let mut escape = grid.disc(src_cell, 2);
        for &sc in &sink_cells {
            escape.extend(grid.disc(sc, 2));
        }
        escape.sort_unstable();
        escape.dedup();
        NetState {
            conn,
            net,
            src_cell,
            sink_cells,
            escape,
            cells: Vec::new(),
            branches: Vec::new(),
            routed: false,
        }
    }
}

struct Negotiation<'a> {
    grid: &'a RoutingGrid,
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
        state: &NetState,
        meter: &mut Meter,
    ) -> Option<(Vec<Vec<Point>>, Vec<usize>)> {
        // Escape cells start out free, so the commit loop below never
        // charges them to this net's occupancy.
        self.free.clear();
        for &c in &state.escape {
            self.free.insert(c);
        }

        let (grid, step, bend) = (self.grid, STEP_COST, BEND_PENALTY);
        let mut branches = Vec::with_capacity(state.net.sinks.len());
        let mut cells: Vec<usize> = Vec::new();
        for (sink, &sink_cell) in state.net.sinks.iter().zip(&state.sink_cells) {
            let bounds = self.window_for(state.src_cell, sink_cell);
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
                let (start, goal) = (state.src_cell, sink_cell);
                self.kernel
                    .run::<HARD>(grid, step, bend, start, goal, window, meter, price)
            };
            // The bounded pass can fail inside a congested window even
            // though free silicon exists outside it; widen to the whole
            // grid before giving up on the sink.
            let found = search(Some(bounds)).or_else(|| search(None))?;
            branches.push(to_waypoints(grid, state.net.source, *sink, &found));
            for (cx, cy) in found {
                let idx = grid.index(cx, cy);
                // Own cells become free for later branches (trunk sharing).
                if self.free.insert(idx) {
                    cells.push(idx);
                }
            }
        }
        Some((branches, cells))
    }

    fn window_for(&self, a: (i64, i64), b: (i64, i64)) -> Window {
        (
            a.0.min(b.0) - BBOX_MARGIN,
            a.1.min(b.1) - BBOX_MARGIN,
            a.0.max(b.0) + BBOX_MARGIN,
            a.1.max(b.1) + BBOX_MARGIN,
        )
    }

    fn rip_up(&mut self, state: &mut NetState) {
        for &c in &state.cells {
            self.occupancy[c] = self.occupancy[c].saturating_sub(1);
            self.refresh(c);
        }
        state.cells.clear();
        state.branches.clear();
        state.routed = false;
    }

    fn commit(&mut self, state: &mut NetState, branches: Vec<Vec<Point>>, cells: Vec<usize>) {
        for &c in &cells {
            self.occupancy[c] += 1;
            self.refresh(c);
        }
        state.branches = branches;
        state.cells = cells;
        state.routed = true;
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
        let grid = RoutingGrid::from_device(compiled.device());
        let n_cells = grid.blocked.len();

        // Per-net state; nets that cannot be searched fail up front.
        let mut failed: Vec<(usize, ConnectionId)> = Vec::new();
        let mut states: Vec<NetState> = Vec::new();
        for (i, net) in nets(compiled).into_iter().enumerate() {
            match net {
                Ok(net) => states.push(NetState::new(i, net, &grid)),
                Err(id) => failed.push((i, id)),
            }
        }

        // Stable negotiation order: shortest estimated nets first, ties in
        // declaration order (the sort is stable).
        states.sort_by_key(|state| state.net.estimate());

        let mut negotiation = Negotiation {
            grid: &grid,
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
        for iteration in 0..MAX_ITERATIONS {
            if meter.check().is_err() {
                break;
            }
            iterations = u64::from(iteration) + 1;
            // The present-sharing penalty doubles each iteration, capped so
            // the saturating cost arithmetic stays far from overflow.
            negotiation.pres_fac = PRESENT_COST
                .saturating_mul(1u32 << iteration.min(16))
                .min(1 << 20);
            // Reprice every cell for the new penalty and last iteration's
            // history.
            for cell in 0..n_cells {
                negotiation.refresh(cell);
            }
            for state in states.iter_mut() {
                negotiation.rip_up(state);
                if let Some((branches, cells)) = negotiation.route_net::<false>(state, &mut meter) {
                    negotiation.commit(state, branches, cells);
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
                negotiation.history[c] = negotiation.history[c].saturating_add(HISTORY_COST);
            }
        }

        // Hardening: keep every conflict-free net as-is, re-route the rest
        // with hard blocking (occupied cells impassable), fail what no
        // longer fits. After convergence this is a no-op sweep; after an
        // interruption the tripped meter makes every re-search fail
        // instantly, so exactly the conflict-free subset of the last
        // completed iteration survives.
        let keep: Vec<bool> = states
            .iter()
            .map(|state| state.routed && state.cells.iter().all(|&c| negotiation.occupancy[c] == 1))
            .collect();
        negotiation.occupancy.fill(0);
        for (state, &kept) in states.iter().zip(&keep) {
            if kept {
                for &c in &state.cells {
                    negotiation.occupancy[c] += 1;
                }
            }
        }
        let mut routed: Vec<(usize, RoutedNet)> = Vec::with_capacity(states.len());
        let mut hard_rerouted = 0u64;
        for (state, kept) in states.into_iter().zip(keep) {
            if kept {
                routed.push((state.conn, state.net.routed(state.branches)));
                continue;
            }
            match negotiation.route_net::<true>(&state, &mut meter) {
                Some((branches, cells)) => {
                    hard_rerouted += 1;
                    for &c in &cells {
                        negotiation.occupancy[c] += 1;
                    }
                    routed.push((state.conn, state.net.routed(branches)));
                }
                None => failed.push((state.conn, state.net.connection.id.clone())),
            }
        }

        if tracing {
            parchmint_obs::count("pnr.route.negotiate.iterations", iterations);
            parchmint_obs::count(
                "pnr.route.negotiate.expansions",
                negotiation.kernel.expanded,
            );
            parchmint_obs::count("pnr.route.negotiate.hard_rerouted", hard_rerouted);
            parchmint_obs::count("pnr.route.expansions", negotiation.kernel.expanded);
        }

        // Report in connection declaration order.
        routed.sort_by_key(|&(i, _)| i);
        failed.sort_by_key(|&(i, _)| i);
        let result = RoutingResult {
            routed: routed.into_iter().map(|(_, net)| net).collect(),
            failed: failed.into_iter().map(|(_, id)| id).collect(),
        };
        count(&result, iterations.saturating_sub(1));
        result
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
        let result = NegotiatedRouter::new().route(&compiled);
        let grid = RoutingGrid::from_device(&d);

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
