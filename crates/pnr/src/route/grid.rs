//! Maze routing: A* over a uniform routing grid with obstacle avoidance.
//!
//! The classic Lee/A* formulation used by microfluidic routers: the die is
//! discretized into square cells; placed component footprints (inflated by
//! a clearance) block cells; each net is routed source→sink with a
//! bend-penalized A*; routed channels block their cells for later nets.
//! Nets are routed shortest-first, the standard ordering heuristic.
//!
//! Routed channels wall sinks in, so many searches have no path. A pure
//! A* proves that only by popping every state reachable from its source.
//! The kernel, `Search`, can instead run a flood out from the goal in
//! lockstep with the A*, one flood step per heap pop over the same window
//! and the same passable cells. A flood that runs out of cells without
//! touching the start proves the goal unreachable, and the search ends at
//! once with the `None` the A* would have reached by draining its heap.
//!
//! Most of the remaining pops belong to (cell, heading) states that cost
//! more than another heading of the same cell plus one bend: such a state
//! can never improve a neighbour, so the kernel does not push it. Both
//! shortcuts only remove pops; every route stays the same.

use super::{count, nets, Net, Router, RoutingResult, BEND_PENALTY, CELL, CLEARANCE, STEP_COST};
use parchmint::geometry::{Point, Rect};
use parchmint::{CompiledDevice, ConnectionId, Device};
use parchmint_resilience::Meter;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Meter interval for the A* search: the installed budget is probed once
/// per this many heap pops, so cancellation stops the search within one
/// interval. An interrupted search reports the net as failed; once the
/// budget has tripped, every remaining net fails on its first pop, so the
/// router drains quickly into a well-formed partial [`RoutingResult`].
pub const ROUTE_CHECK_INTERVAL: u32 = 2048;

/// Tuning knobs for [`AStarRouter`], the two values its E7 ablation
/// varies. The lattice (cell size, clearance, step cost) is the same for
/// every router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridRouterConfig {
    /// Extra cost per 90° bend.
    pub bend_penalty: u32,
    /// Rip-up-and-reroute attempts after a failing pass (0 disables).
    pub reroute_attempts: usize,
}

impl Default for GridRouterConfig {
    fn default() -> Self {
        GridRouterConfig {
            bend_penalty: BEND_PENALTY,
            reroute_attempts: 2,
        }
    }
}

/// A*-based maze router.
#[derive(Debug, Clone, Default)]
pub struct AStarRouter {
    config: GridRouterConfig,
}

impl AStarRouter {
    /// Creates a router with default tuning.
    pub fn new() -> Self {
        AStarRouter::default()
    }

    /// Creates a router with explicit tuning.
    pub fn with_config(config: GridRouterConfig) -> Self {
        AStarRouter { config }
    }
}

pub(crate) const BLOCK_COMPONENT: u8 = 1;
const BLOCK_NET: u8 = 2;

/// The shared routing lattice: die discretized into [`CELL`]-sized
/// squares with per-cell blockage flags. Built by the A* router and reused
/// by the negotiated-congestion router (which layers its own occupancy and
/// history arrays on top of the same geometry).
pub(crate) struct RoutingGrid {
    pub(crate) cols: i64,
    pub(crate) rows: i64,
    pub(crate) blocked: Vec<u8>,
}

impl RoutingGrid {
    /// The lattice over `device`'s outline, with placed footprints
    /// inflated by [`CLEARANCE`] blocked.
    pub(crate) fn from_device(device: &Device) -> Self {
        let bounds = device
            .declared_bounds()
            .map(|s| Rect::new(Point::ORIGIN, s))
            .or_else(|| device.feature_bounds())
            .unwrap_or(Rect::new(
                Point::ORIGIN,
                parchmint::geometry::Span::square(1000),
            ));
        let max = bounds.max();
        let cols = (max.x / CELL + 2).max(2);
        let rows = (max.y / CELL + 2).max(2);
        // The outline comes from the document, so check the search's state
        // limit (see `Search::new`) before allocating anything grid-sized.
        let cells = cols
            .checked_mul(rows)
            .filter(|&n| n.checked_mul(5).is_some_and(|s| u32::try_from(s).is_ok()));
        let Some(cells) = cells else {
            panic!("routing grid of {cols} x {rows} cells exceeds 32-bit search states");
        };
        let mut grid = RoutingGrid {
            cols,
            rows,
            blocked: vec![0; cells as usize],
        };
        for feature in device.features.iter().filter_map(|f| f.as_component()) {
            grid.block_rect(feature.footprint().inflated(CLEARANCE), BLOCK_COMPONENT);
        }
        grid
    }

    pub(crate) fn index(&self, cx: i64, cy: i64) -> usize {
        (cy * self.cols + cx) as usize
    }

    pub(crate) fn cell_of(&self, p: Point) -> (i64, i64) {
        (
            (p.x / CELL).clamp(0, self.cols - 1),
            (p.y / CELL).clamp(0, self.rows - 1),
        )
    }

    pub(crate) fn center(&self, cx: i64, cy: i64) -> Point {
        Point::new(cx * CELL + CELL / 2, cy * CELL + CELL / 2)
    }

    /// Blocks every cell whose *centre* lies inside `rect` (centre-based
    /// occupancy, the standard coarse-grid convention: a cell belongs to an
    /// obstacle only when the obstacle covers its representative point, so
    /// corridors narrower than two cells still route).
    fn block_rect(&mut self, rect: Rect, flag: u8) {
        let (x0, y0) = self.cell_of(rect.min);
        let max = rect.max();
        let (x1, y1) = (
            (max.x / CELL).clamp(0, self.cols - 1),
            (max.y / CELL).clamp(0, self.rows - 1),
        );
        for cy in y0..=y1 {
            for cx in x0..=x1 {
                if rect.contains(self.center(cx, cy)) {
                    let i = self.index(cx, cy);
                    self.blocked[i] |= flag;
                }
            }
        }
    }

    /// Cells within Chebyshev radius `r` of `cell`.
    pub(crate) fn disc(&self, cell: (i64, i64), r: i64) -> Vec<usize> {
        let mut cells = Vec::new();
        for dy in -r..=r {
            for dx in -r..=r {
                let (cx, cy) = (cell.0 + dx, cell.1 + dy);
                if cx >= 0 && cy >= 0 && cx < self.cols && cy < self.rows {
                    cells.push(self.index(cx, cy));
                }
            }
        }
        cells
    }
}

/// Cell steps in heading order: +x, −x, +y, −y. A search state is a
/// (cell, heading) pair, `cell * 5 + heading`; heading [`START`] marks the
/// start state, which has no predecessor.
const DIRS: [(i64, i64); 4] = [(1, 0), (-1, 0), (0, 1), (0, -1)];
const START: usize = 4;

/// Expansion window in cell coordinates: `(x0, y0, x1, y1)` inclusive.
pub(crate) type Window = (i64, i64, i64, i64);

/// The grid A* both searching routers run, with scratch kept across every
/// search of one route call.
///
/// Entries of `best` carry the search generation in their high 32 bits and
/// the path cost in the low 32, so a state stamped by an earlier search
/// reads as unreached and no search fills grid-sized arrays. `prev` holds
/// the predecessor's heading: the predecessor cell is one step back along
/// the state's own heading. Heap keys pack `f << 32 | state`, which orders
/// exactly as the `(f, state)` pair. A state is pushed again only with a
/// strictly lower cost and the same heuristic, so keys are unique (two
/// keys of one state can only match once `f` saturates, as equal values),
/// and any exact min-queue pops the same sequence. A relaxation that a
/// cheaper heading of the same cell dominates is dropped before it writes
/// `best` (see [`Search::run`]), which removes pops and nothing else.
///
/// The goal-side flood of [`Search::run`] keeps its own scratch: `flooded`
/// holds, per cell, the generation of the last search whose flood reached
/// it, and `frontier` the cells that flood has still to visit.
pub(crate) struct Search {
    best: Vec<u64>,
    prev: Vec<u8>,
    heap: BinaryHeap<Reverse<u64>>,
    flooded: Vec<u32>,
    frontier: Vec<u32>,
    generation: u32,
    /// Heap pops over every search so far (search effort, for trace
    /// counters).
    pub(crate) expanded: u64,
}

impl Search {
    pub(crate) fn new(grid: &RoutingGrid) -> Self {
        let states = grid.blocked.len() * 5;
        assert!(
            u32::try_from(states).is_ok(),
            "grid exceeds 32-bit search states"
        );
        Search {
            best: vec![0; states],
            prev: vec![0; states],
            heap: BinaryHeap::new(),
            flooded: vec![0; grid.blocked.len()],
            frontier: Vec::new(),
            generation: 0,
            expanded: 0,
        }
    }

    /// A* from `start` to `goal` inside `window` (the whole grid when
    /// `None`), returning the cell path. `cost(cell)` is `None` for a
    /// blocked cell and otherwise the extra cost of entering it on top of
    /// the step and bend costs. Both endpoints must lie inside the window.
    /// The meter is checked once per heap pop; a tripped meter ends the
    /// search with `None`.
    ///
    /// With `FLOOD`, a flood out from the goal runs in lockstep: each pop,
    /// after the goal check, takes one cell off the frontier (last in,
    /// first out) and stamps and pushes its unstamped in-window neighbours
    /// whose `cost` is `Some`, in [`DIRS`] order. Touching the start cell
    /// ends the flood, since a path may exist; a pop that finds the
    /// frontier empty ends the search with `None`. A state moves only to
    /// an in-window neighbour whose `cost` is `Some`, so the flood walks
    /// that relation backwards, and a flood that never touched the start
    /// proves the `None` the A* would reach by draining its heap. The
    /// flood reads `cost` and writes only its own scratch, so the pops are
    /// the same as without it, cut short only where no path exists. Its
    /// steps are not metered: there is at most one per pop, so the
    /// metered pops bound them.
    ///
    /// A relaxation that lowers state `t` of cell `c` to `ng` is dropped,
    /// with no `best` or `prev` write and no push, when another state `t'`
    /// of `c`, stamped in this search, costs `b` with `b + bend_penalty <
    /// ng`. The two share `c`'s heuristic, so `t'` pops strictly first, and
    /// from `c` it offers every neighbour at most `b + step + bend +
    /// extra`, less than the least `t` could offer, `ng + step + extra`.
    /// Popped, `t` would push nothing, like an outdated entry. A later
    /// offer into `t` that is not itself dominated is at most `b + bend <
    /// ng`, so `t`'s cost would never have rejected it. The search thus
    /// makes the same successful relaxations with the same `prev`, pops
    /// every other state in the same order and ends on the same goal pop.
    /// The argument needs only `extra >= 0`, so it holds at `bend_penalty`
    /// 0, where any heading strictly costlier than another of its cell is
    /// dropped. The rule is skipped when `f = ng + h` saturates: keys of
    /// `u32::MAX` tie and fall back to state index, so `t` could pop first.
    /// The flood is untouched; with fewer pops the heap can at most drain
    /// before it, with the same `None`. The meter and `expanded` still
    /// count pops, so the expansion counters read lower, and a fuel or
    /// deadline budget lasts longer: a budgeted search may get further
    /// before it trips, still deterministically.
    #[allow(clippy::too_many_arguments)] // one kernel, every caller's knobs
    pub(crate) fn run<const FLOOD: bool>(
        &mut self,
        grid: &RoutingGrid,
        step_cost: u32,
        bend_penalty: u32,
        start: (i64, i64),
        goal: (i64, i64),
        window: Option<Window>,
        meter: &mut Meter,
        cost: impl Fn(usize) -> Option<u32>,
    ) -> Option<Vec<(i64, i64)>> {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Stamps from before the wrap would read as current.
            self.best.fill(0);
            self.flooded.fill(0);
            self.generation = 1;
        }
        let generation = self.generation;
        let stamp = u64::from(generation) << 32;
        self.heap.clear();

        let (x0, y0, x1, y1) = window.unwrap_or((0, 0, grid.cols - 1, grid.rows - 1));
        let (x0, y0) = (x0.max(0), y0.max(0));
        let (x1, y1) = (x1.min(grid.cols - 1), y1.min(grid.rows - 1));
        debug_assert!((x0..=x1).contains(&start.0) && (y0..=y1).contains(&start.1));
        debug_assert!((x0..=x1).contains(&goal.0) && (y0..=y1).contains(&goal.1));
        let cols = grid.cols as usize;
        let steps = [1, -1, cols as isize, -(cols as isize)];
        let h = |cx: i64, cy: i64| -> u32 {
            (((cx - goal.0).abs() + (cy - goal.1).abs()) as u32).saturating_mul(step_cost)
        };
        let key = |f: u32, state: usize| Reverse(u64::from(f) << 32 | state as u64);

        let start_cell = grid.index(start.0, start.1);
        let start_state = start_cell * 5 + START;
        self.best[start_state] = stamp;
        self.heap.push(key(h(start.0, start.1), start_state));

        let mut flooding = FLOOD;
        if FLOOD {
            let goal_cell = grid.index(goal.0, goal.1);
            self.frontier.clear();
            self.flooded[goal_cell] = generation;
            self.frontier.push(goal_cell as u32);
        }

        let mut last_f = 0;
        while let Some(Reverse(popped)) = self.heap.pop() {
            if meter.check().is_err() {
                return None;
            }
            self.expanded += 1;
            let f = (popped >> 32) as u32;
            // The heuristic is consistent (one step lowers it by at most
            // `step_cost`), so popped keys never decrease.
            debug_assert!(f >= last_f, "popped f {f} after {last_f}");
            last_f = f;
            let s = popped as u32 as usize;
            let (cell, dir) = (s / 5, s % 5);
            let (cx, cy) = ((cell % cols) as i64, (cell / cols) as i64);
            if (cx, cy) == goal {
                return Some(self.path(s, goal, cols));
            }
            if flooding {
                let Some(at) = self.frontier.pop() else {
                    return None; // the goal's side is closed off
                };
                let at = at as usize;
                let (ax, ay) = ((at % cols) as i64, (at / cols) as i64);
                let open = [ax < x1, ax > x0, ay < y1, ay > y0];
                for (&inside, &step) in open.iter().zip(&steps) {
                    if !inside {
                        continue;
                    }
                    let n = at.wrapping_add_signed(step);
                    if n == start_cell {
                        flooding = false;
                        break;
                    }
                    if self.flooded[n] != generation && cost(n).is_some() {
                        self.flooded[n] = generation;
                        self.frontier.push(n as u32);
                    }
                }
            }
            // An outdated entry re-expands with the state's current cost;
            // it pushes nothing but still counts as a pop.
            let g = self.best[s] as u32;
            let open = [cx < x1, cx > x0, cy < y1, cy > y0];
            for (d, &(dx, dy)) in DIRS.iter().enumerate() {
                if !open[d] {
                    continue;
                }
                let ncell = cell.wrapping_add_signed(steps[d]);
                let Some(extra) = cost(ncell) else {
                    continue;
                };
                let bend = if dir != START && dir != d {
                    bend_penalty
                } else {
                    0
                };
                let ng = g
                    .saturating_add(step_cost)
                    .saturating_add(bend)
                    .saturating_add(extra);
                let ns = ncell * 5 + d;
                let known = self.best[ns];
                let known = if known >= stamp {
                    known as u32
                } else {
                    u32::MAX
                };
                if ng < known {
                    let nf = ng.saturating_add(h(cx + dx, cy + dy));
                    // Drop a state that another heading of its cell beats by
                    // more than a bend: a cost below `ng - bend_penalty`. An
                    // entry of this search minus `stamp` is its cost; an
                    // older stamp wraps past 2^32 and never qualifies, and
                    // the state's own entry holds `known > ng`. A fold, not
                    // `any`, so the five tests do not branch.
                    if nf != u32::MAX {
                        let below = u64::from(ng.saturating_sub(bend_penalty));
                        let dominated = self.best[ncell * 5..ncell * 5 + 5]
                            .iter()
                            .fold(false, |hit, &b| hit | (b.wrapping_sub(stamp) < below));
                        if dominated {
                            continue;
                        }
                    }
                    self.best[ns] = stamp | u64::from(ng);
                    self.prev[ns] = dir as u8;
                    self.heap.push(key(nf, ns));
                }
            }
        }
        None
    }

    /// Walks the heading back-pointers from the goal state `s` to the
    /// start, returning the cells start-first.
    fn path(&self, mut s: usize, goal: (i64, i64), cols: usize) -> Vec<(i64, i64)> {
        let (mut x, mut y) = goal;
        let mut path = vec![goal];
        while s % 5 != START {
            let (dx, dy) = DIRS[s % 5];
            (x, y) = (x - dx, y - dy);
            s = (y as usize * cols + x as usize) * 5 + usize::from(self.prev[s]);
            path.push((x, y));
        }
        path.reverse();
        path
    }
}

/// The cells one net may enter despite blockage: its endpoint escape zones
/// and its own routed cells. One buffer serves every net of a route call;
/// [`FreeCells::clear`] resets only the cells that were set.
pub(crate) struct FreeCells {
    mask: Vec<bool>,
    set: Vec<usize>,
}

impl FreeCells {
    pub(crate) fn new(grid: &RoutingGrid) -> Self {
        FreeCells {
            mask: vec![false; grid.blocked.len()],
            set: Vec::new(),
        }
    }

    /// Marks `cell` free; true when it was not free before.
    pub(crate) fn insert(&mut self, cell: usize) -> bool {
        let fresh = !self.mask[cell];
        if fresh {
            self.mask[cell] = true;
            self.set.push(cell);
        }
        fresh
    }

    #[inline]
    pub(crate) fn contains(&self, cell: usize) -> bool {
        self.mask[cell]
    }

    pub(crate) fn clear(&mut self) {
        for &cell in &self.set {
            self.mask[cell] = false;
        }
        self.set.clear();
    }
}

/// Builds a rectilinear waypoint list: exact port endpoints joined to the
/// cell-centre path with elbows. [`Net::routed`] cleans it.
pub(crate) fn to_waypoints(
    grid: &RoutingGrid,
    src: Point,
    dst: Point,
    cells: &[(i64, i64)],
) -> Vec<Point> {
    let mut points = Vec::with_capacity(cells.len() + 4);
    points.push(src);
    if let Some(&(cx, cy)) = cells.first() {
        let c = grid.center(cx, cy);
        if src.x != c.x && src.y != c.y {
            points.push(Point::new(c.x, src.y));
        }
    }
    for &(cx, cy) in cells {
        points.push(grid.center(cx, cy));
    }
    if let Some(&(cx, cy)) = cells.last() {
        let c = grid.center(cx, cy);
        if dst.x != c.x && dst.y != c.y {
            points.push(Point::new(c.x, dst.y));
        }
    }
    points.push(dst);
    points
}

impl Router for AStarRouter {
    fn name(&self) -> &'static str {
        "astar"
    }

    fn route(&self, compiled: &CompiledDevice) -> RoutingResult {
        parchmint_resilience::fault::inject("pnr.route");
        // Route order: shortest estimated nets first. A net that cannot be
        // searched fails in every pass.
        let mut order: Vec<Net> = Vec::new();
        let mut unroutable: Vec<ConnectionId> = Vec::new();
        for net in nets(compiled) {
            match net {
                Ok(net) => order.push(net),
                Err(id) => unroutable.push(id),
            }
        }
        order.sort_by_key(Net::estimate);

        let mut grid = RoutingGrid::from_device(compiled.device());
        let mut search = Search::new(&grid);
        let mut free = FreeCells::new(&grid);
        let mut pass = |order: &[Net]| {
            let failed = unroutable.clone();
            self.route_in_order(order, failed, &mut grid, &mut search, &mut free)
        };

        // Rip-up and re-route: when nets fail because earlier routes walled
        // them in, retry from scratch with the failed nets promoted to the
        // front of the order.
        let mut ripup_rounds = 0u64;
        let mut best = pass(&order);
        for _ in 0..self.config.reroute_attempts {
            // A tripped budget makes every further pass fail immediately;
            // keep the partial result from the pass that did real work.
            if best.failed.is_empty() || parchmint_resilience::interruption().is_some() {
                break;
            }
            let failed_ids: HashSet<&ConnectionId> = best.failed.iter().collect();
            let (failed, rest): (Vec<Net>, Vec<Net>) = order
                .into_iter()
                .partition(|net| failed_ids.contains(&net.connection.id));
            order = failed.into_iter().chain(rest).collect();
            ripup_rounds += 1;
            let retry = pass(&order);
            if retry.failed.len() < best.failed.len() {
                best = retry;
            } else {
                break;
            }
        }
        count(&best, ripup_rounds);
        best
    }
}

impl AStarRouter {
    /// One sequential pass in `order`, appending the nets that fail to
    /// `failed`. Starts by clearing the previous pass's net blockage from
    /// `grid`.
    fn route_in_order(
        &self,
        order: &[Net],
        failed: Vec<ConnectionId>,
        grid: &mut RoutingGrid,
        search: &mut Search,
        free: &mut FreeCells,
    ) -> RoutingResult {
        for flags in &mut grid.blocked {
            *flags &= !BLOCK_NET;
        }
        let mut result = RoutingResult {
            routed: Vec::new(),
            failed,
        };
        let tracing = parchmint_obs::enabled();
        let pass_start = search.expanded;
        let mut meter = Meter::new(ROUTE_CHECK_INTERVAL);
        for net in order {
            let src_cell = grid.cell_of(net.source);
            for c in grid.disc(src_cell, 2) {
                free.insert(c);
            }

            let mut branches: Vec<Vec<Point>> = Vec::with_capacity(net.sinks.len());
            let mut net_cells: Vec<usize> = Vec::new();
            let net_start = search.expanded;
            for &sink in &net.sinks {
                let sink_cell = grid.cell_of(sink);
                for c in grid.disc(sink_cell, 2) {
                    free.insert(c);
                }
                // A cell is passable when nothing blocks it or it is one of
                // this net's free cells: an endpoint escape zone, or a cell
                // of an earlier branch (branches merge).
                let passable = |c: usize| (free.contains(c) || grid.blocked[c] == 0).then_some(0);
                let Some(cells) = search.run::<true>(
                    grid,
                    STEP_COST,
                    self.config.bend_penalty,
                    src_cell,
                    sink_cell,
                    None,
                    &mut meter,
                    passable,
                ) else {
                    break;
                };
                branches.push(to_waypoints(grid, net.source, sink, &cells));
                for (cx, cy) in cells {
                    let idx = grid.index(cx, cy);
                    net_cells.push(idx);
                    free.insert(idx);
                }
            }
            free.clear();

            if tracing {
                parchmint_obs::observe("pnr.route.net_expansions", search.expanded - net_start);
            }
            if branches.len() == net.sinks.len() {
                for idx in net_cells {
                    grid.blocked[idx] |= BLOCK_NET;
                }
                result.routed.push(net.routed(branches));
            } else {
                result.failed.push(net.connection.id.clone());
            }
        }
        if tracing {
            parchmint_obs::count("pnr.route.expansions", search.expanded - pass_start);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::{greedy::GreedyPlacer, Placer};
    use parchmint::geometry::Span;
    use parchmint::{Component, Connection, Entity, Layer, LayerType, Port, Target};

    fn placed_pair(gap: i64) -> Device {
        let mut d = Device::builder("t")
            .layer(Layer::new("f", "f", LayerType::Flow))
            .component(
                Component::new("a", "a", Entity::Port, ["f"], Span::square(200))
                    .with_port(Port::new("p", "f", 200, 100)),
            )
            .component(
                Component::new("b", "b", Entity::Port, ["f"], Span::square(200))
                    .with_port(Port::new("p", "f", 0, 100)),
            )
            .connection(Connection::new(
                "c1",
                "c1",
                "f",
                Target::new("a", "p"),
                [Target::new("b", "p")],
            ))
            .bounds(Span::new(gap + 1400, 2000))
            .build()
            .unwrap();
        let mut placement = crate::place::Placement::new();
        placement.set("a".into(), Point::new(400, 400));
        placement.set("b".into(), Point::new(600 + gap, 400));
        placement.apply_to(&mut d);
        d
    }

    #[test]
    fn routes_a_simple_pair() {
        let d = placed_pair(2000);
        let result = AStarRouter::new().route(&CompiledDevice::from_ref(&d));
        assert_eq!(result.failed.len(), 0, "failed: {:?}", result.failed);
        assert_eq!(result.routed.len(), 1);
        let net = &result.routed[0];
        // Endpoints exact.
        let branch = &net.branches[0];
        assert_eq!(branch.first().copied(), Some(Point::new(600, 500)));
        assert_eq!(branch.last().copied(), Some(Point::new(2600, 500)));
        // Rectilinear.
        for w in branch.windows(2) {
            assert!(w[0].x == w[1].x || w[0].y == w[1].y, "diagonal segment");
        }
        assert!(net.length() >= 2000);
    }

    #[test]
    fn detours_around_an_obstacle() {
        let mut d = placed_pair(3000);
        // Drop an obstacle square in the straight-line path.
        d.components.push(Component::new(
            "obst",
            "obst",
            Entity::ReactionChamber,
            ["f"],
            Span::new(400, 1200),
        ));
        d.features.push(
            parchmint::ComponentFeature::new(
                "pf_obst",
                "obst",
                "f",
                Point::new(1800, 0),
                Span::new(400, 1200),
                50,
            )
            .into(),
        );
        let result = AStarRouter::new().route(&CompiledDevice::from_ref(&d));
        assert_eq!(result.routed.len(), 1, "failed: {:?}", result.failed);
        let net = &result.routed[0];
        assert!(net.bends() >= 2, "a detour needs bends");
        // The detour must be longer than the straight path.
        assert!(net.length() > 3000);
    }

    #[test]
    fn impossible_route_fails_cleanly() {
        let mut d = placed_pair(2000);
        // Wall off the sink entirely with a giant blocker around it.
        d.components.push(Component::new(
            "wall",
            "wall",
            Entity::ReactionChamber,
            ["f"],
            Span::new(2000, 2000),
        ));
        d.features.push(
            parchmint::ComponentFeature::new(
                "pf_wall",
                "wall",
                "f",
                Point::new(1700, 0),
                Span::new(2000, 2000),
                50,
            )
            .into(),
        );
        let result = AStarRouter::new().route(&CompiledDevice::from_ref(&d));
        assert_eq!(result.routed.len(), 0);
        assert_eq!(result.failed, vec![parchmint::ConnectionId::new("c1")]);
        assert_eq!(result.completion(), 0.0);
    }

    #[test]
    fn routes_an_entire_small_benchmark() {
        let mut d = parchmint_suite::by_name("logic_gate_or").unwrap().device();
        let placement = GreedyPlacer::new().place(&CompiledDevice::from_ref(&d));
        placement.apply_to(&mut d);
        let result = AStarRouter::new().route(&CompiledDevice::from_ref(&d));
        assert!(
            result.completion() > 0.9,
            "completion {} with failures {:?}",
            result.completion(),
            result.failed
        );
        result.apply_to(&mut d);
        assert!(d.features.iter().any(|f| f.as_connection().is_some()));
    }

    #[test]
    fn router_name() {
        assert_eq!(AStarRouter::new().name(), "astar");
    }

    /// A 12×9 grid with a wall at x = 5 open only at y = 0 and y = 8.
    fn walled_grid() -> RoutingGrid {
        let (cols, rows) = (12, 9);
        let mut blocked = vec![0; (cols * rows) as usize];
        for y in 1..rows - 1 {
            blocked[(y * cols + 5) as usize] = BLOCK_COMPONENT;
        }
        RoutingGrid {
            cols,
            rows,
            blocked,
        }
    }

    /// Uneven entry costs, so ties and detours depend on every cell.
    fn uneven(grid: &RoutingGrid) -> impl Fn(usize) -> Option<u32> + '_ {
        |c| (grid.blocked[c] == 0).then_some((c * 7 % 5) as u32)
    }

    /// One flooding search, as the A* router runs it: the path and its pops.
    fn run(
        search: &mut Search,
        grid: &RoutingGrid,
        start: (i64, i64),
        goal: (i64, i64),
        window: Option<Window>,
    ) -> (Option<Vec<(i64, i64)>>, u64) {
        run_with::<true>(search, grid, start, goal, window)
    }

    fn run_with<const FLOOD: bool>(
        search: &mut Search,
        grid: &RoutingGrid,
        start: (i64, i64),
        goal: (i64, i64),
        window: Option<Window>,
    ) -> (Option<Vec<(i64, i64)>>, u64) {
        let before = search.expanded;
        let mut meter = Meter::new(ROUTE_CHECK_INTERVAL);
        let cost = uneven(grid);
        let path = search.run::<FLOOD>(grid, 10, 30, start, goal, window, &mut meter, cost);
        (path, search.expanded - before)
    }

    #[test]
    fn a_reused_search_matches_a_fresh_one() {
        let grid = walled_grid();
        let queries = [
            ((0, 4), (11, 4), None),
            ((2, 2), (3, 7), Some((1, 1, 4, 8))),
            ((11, 0), (0, 8), Some((0, 0, 11, 8))),
            // Boxed in by the wall: the bounded search fails.
            ((1, 4), (9, 4), Some((1, 2, 9, 6))),
            ((9, 7), (6, 1), None),
        ];
        let mut reused = Search::new(&grid);
        for (start, goal, window) in queries {
            // Every query follows a search stopped by a tripped meter.
            let stopped = parchmint_resilience::Budget::unlimited()
                .with_fuel(3)
                .enter(|| {
                    let mut meter = Meter::new(1);
                    reused.run::<true>(
                        &grid,
                        10,
                        30,
                        (0, 0),
                        (11, 8),
                        None,
                        &mut meter,
                        uneven(&grid),
                    )
                });
            assert_eq!(stopped, None);
            let got = run(&mut reused, &grid, start, goal, window);
            let want = run(&mut Search::new(&grid), &grid, start, goal, window);
            assert_eq!(got, want, "{start:?} -> {goal:?} in {window:?}");
        }
        let (around, _) = run(&mut reused, &grid, (0, 4), (11, 4), None);
        let around = around.expect("the wall has gaps");
        assert_eq!((around[0], around[around.len() - 1]), ((0, 4), (11, 4)));
        assert!(around.iter().any(|&(x, y)| x == 5 && (y == 0 || y == 8)));
        let (boxed, _) = run(&mut reused, &grid, (1, 4), (9, 4), Some((1, 2, 9, 6)));
        assert_eq!(boxed, None);
    }

    #[test]
    fn a_window_hanging_off_the_grid_is_clamped() {
        let grid = walled_grid();
        let mut search = Search::new(&grid);
        let whole = run(&mut search, &grid, (0, 4), (11, 4), None);
        assert!(whole.0.is_some());
        let oversized = run(&mut search, &grid, (0, 4), (11, 4), Some((-9, -9, 40, 40)));
        assert_eq!(oversized, whole);
        let off_left = run(&mut search, &grid, (2, 1), (4, 7), Some((-3, 0, 4, 30)));
        let clamped = run(&mut search, &grid, (2, 1), (4, 7), Some((0, 0, 4, 8)));
        assert_eq!(off_left, clamped);
        assert!(off_left.0.is_some());
    }

    #[test]
    fn start_at_goal_is_a_one_cell_path() {
        let grid = walled_grid();
        let mut search = Search::new(&grid);
        assert_eq!(
            run(&mut search, &grid, (3, 3), (3, 3), None),
            (Some(vec![(3, 3)]), 1)
        );
    }

    #[test]
    fn an_unreachable_goal_stops_within_its_pocket() {
        // A 20×20 grid whose 2×2 pocket at x, y ∈ 16..=17 is walled off.
        let (cols, rows) = (20, 20);
        let mut blocked = vec![0; (cols * rows) as usize];
        for y in 15..=18 {
            for x in 15..=18 {
                if !((16..=17).contains(&x) && (16..=17).contains(&y)) {
                    blocked[(y * cols + x) as usize] = BLOCK_COMPONENT;
                }
            }
        }
        let grid = RoutingGrid {
            cols,
            rows,
            blocked,
        };
        let mut search = Search::new(&grid);
        let (path, pops) = run(&mut search, &grid, (1, 1), (16, 16), None);
        assert_eq!(path, None);
        // Four pops flood the pocket, the fifth finds the frontier empty.
        assert!(pops <= 5, "{pops} pops");
        // Without the flood, the A* first pops every state it reaches
        // that no other heading of its cell dominates.
        let (path, pops) = run_with::<false>(&mut search, &grid, (1, 1), (16, 16), None);
        assert_eq!(path, None);
        assert_eq!(pops, 949);
    }

    #[test]
    fn flooding_changes_no_answer() {
        let grid = walled_grid();
        let (mut flooded, mut plain) = (Search::new(&grid), Search::new(&grid));
        let mut shortened = 0;
        for window in [(0, 0, 11, 8), (0, 1, 11, 7), (3, 0, 8, 8)] {
            let (x0, y0, x1, y1) = window;
            let cells: Vec<(i64, i64)> = (y0..=y1)
                .flat_map(|y| (x0..=x1).map(move |x| (x, y)))
                .collect();
            for &start in &cells {
                for &goal in &cells {
                    let label = format!("{start:?} -> {goal:?} in {window:?}");
                    let got = run_with::<true>(&mut flooded, &grid, start, goal, Some(window));
                    let want = run_with::<false>(&mut plain, &grid, start, goal, Some(window));
                    assert_eq!(got.0, want.0, "{label}");
                    if want.0.is_some() {
                        assert_eq!(got.1, want.1, "{label}: pops");
                    } else {
                        assert!(got.1 <= want.1, "{label}: {} > {} pops", got.1, want.1);
                        shortened += usize::from(got.1 < want.1);
                    }
                }
            }
        }
        assert!(shortened > 0, "no search ended early");
    }

    #[test]
    fn a_huge_step_cost_saturates_the_heuristic() {
        // Four steps of 2^30 overflow u32. The start's neighbours off the
        // row are four steps from the goal: their heuristic saturates, so
        // they pop after the goal instead of first.
        let grid = walled_grid();
        let mut search = Search::new(&grid);
        let mut meter = Meter::new(ROUTE_CHECK_INTERVAL);
        let cost = uneven(&grid);
        let path = search.run::<true>(&grid, 1 << 30, 30, (0, 4), (3, 4), None, &mut meter, cost);
        assert_eq!(path, Some(vec![(0, 4), (1, 4), (2, 4), (3, 4)]));
        assert_eq!(search.expanded, 4);
    }

    /// The kernel loop without the dominance test: the oracle for
    /// `dominance_changes_no_path`. A fresh `Search` stands in for reused
    /// scratch; step cost 10, no meter.
    fn reference<const FLOOD: bool>(
        grid: &RoutingGrid,
        bend_penalty: u32,
        start: (i64, i64),
        goal: (i64, i64),
        (x0, y0, x1, y1): Window,
        cost: impl Fn(usize) -> Option<u32>,
    ) -> (Option<Vec<(i64, i64)>>, u64) {
        let mut search = Search::new(grid);
        let stamp = 1 << 32;
        let cols = grid.cols as usize;
        let steps = [1, -1, cols as isize, -(cols as isize)];
        let h = |cx: i64, cy: i64| ((cx - goal.0).abs() + (cy - goal.1).abs()) as u32 * 10;
        let key = |f: u32, state: usize| Reverse(u64::from(f) << 32 | state as u64);
        let start_cell = grid.index(start.0, start.1);
        search.best[start_cell * 5 + START] = stamp;
        search
            .heap
            .push(key(h(start.0, start.1), start_cell * 5 + START));
        let mut flooding = FLOOD;
        let goal_cell = grid.index(goal.0, goal.1);
        search.flooded[goal_cell] = 1;
        search.frontier.push(goal_cell as u32);
        let mut pops = 0;
        while let Some(Reverse(popped)) = search.heap.pop() {
            pops += 1;
            let s = popped as u32 as usize;
            let (cell, dir) = (s / 5, s % 5);
            let (cx, cy) = ((cell % cols) as i64, (cell / cols) as i64);
            if (cx, cy) == goal {
                return (Some(search.path(s, goal, cols)), pops);
            }
            if flooding {
                let Some(at) = search.frontier.pop() else {
                    return (None, pops);
                };
                let at = at as usize;
                let (ax, ay) = ((at % cols) as i64, (at / cols) as i64);
                let open = [ax < x1, ax > x0, ay < y1, ay > y0];
                for (&inside, &step) in open.iter().zip(&steps) {
                    if !inside {
                        continue;
                    }
                    let n = at.wrapping_add_signed(step);
                    if n == start_cell {
                        flooding = false;
                        break;
                    }
                    if search.flooded[n] != 1 && cost(n).is_some() {
                        search.flooded[n] = 1;
                        search.frontier.push(n as u32);
                    }
                }
            }
            let g = search.best[s] as u32;
            let open = [cx < x1, cx > x0, cy < y1, cy > y0];
            for (d, &(dx, dy)) in DIRS.iter().enumerate() {
                if !open[d] {
                    continue;
                }
                let ncell = cell.wrapping_add_signed(steps[d]);
                let Some(extra) = cost(ncell) else {
                    continue;
                };
                let bend = if dir != START && dir != d {
                    bend_penalty
                } else {
                    0
                };
                let ng = g
                    .saturating_add(10)
                    .saturating_add(bend)
                    .saturating_add(extra);
                let ns = ncell * 5 + d;
                let known = search.best[ns];
                let known = if known >= stamp {
                    known as u32
                } else {
                    u32::MAX
                };
                if ng < known {
                    search.best[ns] = stamp | u64::from(ng);
                    search.prev[ns] = dir as u8;
                    search
                        .heap
                        .push(key(ng.saturating_add(h(cx + dx, cy + dy)), ns));
                }
            }
        }
        (None, pops)
    }

    /// A bend penalty and the cell costs searched with it.
    type Table<'a> = (u32, &'a dyn Fn(usize) -> Option<u32>);

    /// Checks one search of the reused `search` against the oracle: the
    /// same path, and never more pops. True when it popped fewer.
    fn compare<const FLOOD: bool>(
        search: &mut Search,
        grid: &RoutingGrid,
        (bend, cost): Table,
        (start, goal, window): ((i64, i64), (i64, i64), Window),
    ) -> bool {
        let label = format!("{start:?} -> {goal:?} in {window:?}, bend {bend}, flood {FLOOD}");
        let before = search.expanded;
        let mut meter = Meter::new(ROUTE_CHECK_INTERVAL);
        let path = search.run::<FLOOD>(grid, 10, bend, start, goal, Some(window), &mut meter, cost);
        let pops = search.expanded - before;
        let (want, want_pops) = reference::<FLOOD>(grid, bend, start, goal, window, cost);
        assert_eq!(path, want, "{label}");
        assert!(pops <= want_pops, "{label}: {pops} > {want_pops} pops");
        pops < want_pops
    }

    #[test]
    fn dominance_changes_no_path() {
        let grid = walled_grid();
        let uneven = uneven(&grid);
        // Every seventh cell costs nearly `u32::MAX`. Entered early in a
        // search, its state's cost stays below that, but `f` saturates.
        let saturating = |c: usize| {
            (grid.blocked[c] == 0).then_some(if c % 7 == 0 { u32::MAX - 100 } else { 0 })
        };
        let tables: [Table; 3] = [(30, &uneven), (0, &uneven), (30, &saturating)];
        // One search for every query, so stamps of earlier searches linger.
        let mut search = Search::new(&grid);
        let mut saved = 0;
        for table in tables {
            for window in [(0, 0, 11, 8), (0, 1, 11, 7), (3, 0, 8, 8)] {
                let (x0, y0, x1, y1) = window;
                let cells: Vec<(i64, i64)> = (y0..=y1)
                    .flat_map(|y| (x0..=x1).map(move |x| (x, y)))
                    .collect();
                for &start in &cells {
                    for &goal in &cells {
                        let q = (start, goal, window);
                        saved += usize::from(compare::<true>(&mut search, &grid, table, q));
                        saved += usize::from(compare::<false>(&mut search, &grid, table, q));
                    }
                }
            }
        }
        assert!(saved > 0, "no search popped less");
    }
}
