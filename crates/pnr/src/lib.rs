//! # parchmint-pnr
//!
//! Placement and routing for ParchMint devices — the design-automation
//! consumer the benchmark suite exists to evaluate ("analysis of
//! algorithmic quality").
//!
//! Two placers ([greedy](place::greedy::GreedyPlacer) baseline,
//! [simulated annealing](place::annealing::AnnealingPlacer)) assign die
//! locations on a uniform site grid; three routers
//! ([straight](route::straight::StraightRouter) L-path baseline,
//! [A* maze](route::grid::AStarRouter), and the
//! [negotiated-congestion](route::negotiate::NegotiatedRouter)
//! PathFinder-style rip-up router) realize the channels. One pipeline,
//! [`place_and_route_resilient`], ties them together: it falls back to
//! the greedy placer or the straight-line router when another algorithm
//! panics or runs out of budget, records each [`Degradation`], and
//! produces the [`PnrReport`] rows that regenerate the paper's
//! algorithm-comparison experiment. [`place_and_route`] is the same
//! pipeline at attempt 0 for callers that only want the report.
//!
//! ```
//! use parchmint_pnr::{place_and_route, PlacerChoice, RouterChoice};
//!
//! let mut chip = parchmint_suite::by_name("logic_gate_or").unwrap().device();
//! let report = place_and_route(&mut chip, PlacerChoice::Annealing, RouterChoice::AStar);
//! assert!(chip.is_placed());
//! println!("{}", report.row());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod eval;
pub mod pipeline;
pub mod place;
pub mod route;

pub use eval::{max_congestion, PnrReport, CONGESTION_CELL};
pub use pipeline::{
    place_and_route, place_and_route_resilient, Degradation, PlacerChoice, ResilientPnr,
    RouterChoice,
};
pub use place::{Placement, Placer};
pub use route::{Router, RoutingResult};
