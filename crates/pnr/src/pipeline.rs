//! The end-to-end place-and-route pipeline.

use crate::eval::PnrReport;
use crate::place::annealing::AnnealingConfig;
use crate::place::{annealing::AnnealingPlacer, greedy::GreedyPlacer, Placer};
use crate::route::{
    grid::AStarRouter, negotiate::NegotiatedRouter, straight::StraightRouter, Router,
};
use parchmint::{CompiledDevice, Device};
use parchmint_resilience::{attempt as catch_panic, interruption, PipelineError};
use std::time::Instant;

/// Placer selection for [`place_and_route`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacerChoice {
    /// Greedy connectivity-ordered baseline.
    Greedy,
    /// Simulated annealing (seeded).
    Annealing,
}

impl PlacerChoice {
    /// All placers, baseline first.
    pub const ALL: &'static [PlacerChoice] = &[PlacerChoice::Greedy, PlacerChoice::Annealing];

    /// Instantiates the placer.
    pub fn placer(self) -> Box<dyn Placer> {
        self.placer_for_attempt(0)
    }

    /// Instantiates the placer for a retry attempt: annealing bumps its
    /// seed by `attempt` so a deterministic retry explores a different
    /// trajectory (no wall-clock randomness). Attempt 0 is the default.
    pub fn placer_for_attempt(self, attempt: u32) -> Box<dyn Placer> {
        match self {
            PlacerChoice::Greedy => Box::new(GreedyPlacer::new()),
            PlacerChoice::Annealing if attempt == 0 => Box::new(AnnealingPlacer::new()),
            PlacerChoice::Annealing => Box::new(AnnealingPlacer::with_seed(
                AnnealingConfig::default()
                    .seed
                    .wrapping_add(u64::from(attempt)),
            )),
        }
    }
}

/// Router selection for [`place_and_route`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouterChoice {
    /// L-path baseline.
    Straight,
    /// A* maze router (sequential, hard blocking).
    AStar,
    /// Negotiated-congestion router (PathFinder-style iterated rip-up).
    Negotiate,
}

impl RouterChoice {
    /// All routers, baseline first.
    pub const ALL: &'static [RouterChoice] = &[
        RouterChoice::Straight,
        RouterChoice::AStar,
        RouterChoice::Negotiate,
    ];

    /// Instantiates the router.
    pub fn router(self) -> Box<dyn Router> {
        match self {
            RouterChoice::Straight => Box::new(StraightRouter::new()),
            RouterChoice::AStar => Box::new(AStarRouter::new()),
            RouterChoice::Negotiate => Box::new(NegotiatedRouter::new()),
        }
    }
}

/// Places and routes `device` in place, returning the quality report.
///
/// This is [`place_and_route_resilient`] at attempt 0 without its
/// degradation list: a panicking or interrupted algorithm falls back
/// exactly as it does there, and the report names the placer and router
/// that produced the result. On return `device` carries placement
/// features for every component and route features for every
/// successfully routed net, and its declared bounds are enlarged to cover
/// the physical design.
///
/// # Panics
///
/// When the last-resort greedy placer or straight-line router itself
/// panics, the one case in which [`place_and_route_resilient`] returns an
/// error.
///
/// # Examples
///
/// ```
/// use parchmint_pnr::{place_and_route, PlacerChoice, RouterChoice};
///
/// let mut device = parchmint_suite::by_name("logic_gate_or").unwrap().device();
/// let report = place_and_route(&mut device, PlacerChoice::Greedy, RouterChoice::AStar);
/// assert!(device.is_placed());
/// assert!(report.completion() > 0.5);
/// ```
pub fn place_and_route(
    device: &mut Device,
    placer: PlacerChoice,
    router: RouterChoice,
) -> PnrReport {
    match place_and_route_resilient(device, placer, router, 0) {
        Ok(run) => run.report,
        Err(error) => panic!("place and route failed: {error}"),
    }
}

/// One recorded substitution made by [`place_and_route_resilient`]: which
/// phase degraded and what the pipeline did about it. Never silent — the
/// harness copies these into the cell's `degraded` outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// The phase that degraded: `place` or `route`.
    pub phase: &'static str,
    /// What happened and which fallback was taken.
    pub action: String,
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.phase, self.action)
    }
}

/// The outcome of a resilient place-and-route run.
#[derive(Debug, Clone)]
pub struct ResilientPnr {
    /// The quality report (of whatever placer/router combination actually
    /// produced the final result).
    pub report: PnrReport,
    /// Fallbacks and partial results taken along the way; empty means the
    /// primary algorithms ran to completion.
    pub degradations: Vec<Degradation>,
}

/// Places and routes `device` with graceful degradation.
///
/// The fallback chains are fixed: a panicking or interrupted annealing
/// placer falls back to greedy (an interrupted anneal keeps its legal
/// partial placement instead); a panicking or interrupted A* grid router
/// falls back to straight-line routing; a panicking negotiated router
/// falls back to straight-line, but an *interrupted* negotiation keeps its
/// own conflict-free partial result (the router's internal fallback is
/// already legal). Every substitution is recorded in
/// [`ResilientPnr::degradations`], and the report names the placer and
/// router that actually produced the result. `attempt` seeds
/// deterministic retries (see [`PlacerChoice::placer_for_attempt`]);
/// whether a result is worth retrying (say, one on which no net routed)
/// is the caller's policy.
///
/// Errors are [`PipelineError::fatal`] only when the baseline fallback
/// itself fails — there is nothing further to degrade to.
pub fn place_and_route_resilient(
    device: &mut Device,
    placer: PlacerChoice,
    router: RouterChoice,
    attempt: u32,
) -> Result<ResilientPnr, PipelineError> {
    let mut degradations = Vec::new();
    let p = placer.placer_for_attempt(attempt);
    let r = router.router();

    // Two compiled views: one of the logical netlist for placement, one of
    // the placed device (placement features present) for routing. The
    // routing view stays valid for the report because routing only adds
    // features, which none of the report metrics read through the index.
    let unplaced = CompiledDevice::from_ref(device);
    let interrupted_before_place = interruption().is_some();
    let t0 = Instant::now();
    let mut effective_placer = p.name();
    let placement = {
        let _span = parchmint_obs::Span::enter("pnr.place");
        match catch_panic(|| p.place(&unplaced)) {
            Ok(placement) => {
                if !interrupted_before_place {
                    if let Some(reason) = interruption() {
                        degradations.push(Degradation {
                            phase: "place",
                            action: format!(
                                "stopped early ({reason}); kept legal partial-anneal placement"
                            ),
                        });
                    }
                }
                placement
            }
            Err(message) if placer == PlacerChoice::Annealing => {
                degradations.push(Degradation {
                    phase: "place",
                    action: format!("annealing panicked ({message}); fell back to greedy"),
                });
                effective_placer = "greedy";
                catch_panic(|| GreedyPlacer::new().place(&unplaced)).map_err(|fallback| {
                    PipelineError::fatal(format!("fallback greedy placer panicked: {fallback}"))
                        .with_hint("no further placement fallback exists")
                })?
            }
            Err(message) => {
                return Err(
                    PipelineError::fatal(format!("greedy placer panicked: {message}"))
                        .with_hint("no further placement fallback exists"),
                );
            }
        }
    };
    let place_time = t0.elapsed();
    placement.apply_to(device);

    let placed = CompiledDevice::from_ref(device);
    let t1 = Instant::now();
    let mut effective_router = r.name();
    let routing = {
        let _span = parchmint_obs::Span::enter("pnr.route");
        let result = match catch_panic(|| r.route(&placed)) {
            Ok(routing) => {
                if router == RouterChoice::AStar && interruption().is_some() {
                    let reason = interruption().expect("just observed");
                    degradations.push(Degradation {
                        phase: "route",
                        action: format!(
                            "grid routing interrupted ({reason}); fell back to straight-line"
                        ),
                    });
                    None // rerun below with the baseline router
                } else if router == RouterChoice::Negotiate && interruption().is_some() {
                    // The negotiated router degrades internally: it returns
                    // the conflict-free subset of its last completed
                    // iteration, which is strictly more useful than a
                    // straight-line rerun against a tripped budget.
                    let reason = interruption().expect("just observed");
                    degradations.push(Degradation {
                        phase: "route",
                        action: format!(
                            "negotiation interrupted ({reason}); kept last fully-legal iteration"
                        ),
                    });
                    Some(routing)
                } else {
                    Some(routing)
                }
            }
            Err(message) if router != RouterChoice::Straight => {
                degradations.push(Degradation {
                    phase: "route",
                    action: format!(
                        "{} router panicked ({message}); fell back to straight-line",
                        r.name()
                    ),
                });
                None
            }
            Err(message) => {
                return Err(
                    PipelineError::fatal(format!("straight router panicked: {message}"))
                        .with_hint("no further routing fallback exists"),
                );
            }
        };
        match result {
            Some(routing) => routing,
            None => {
                effective_router = "straight";
                catch_panic(|| StraightRouter::new().route(&placed)).map_err(|fallback| {
                    PipelineError::fatal(format!("fallback straight router panicked: {fallback}"))
                        .with_hint("no further routing fallback exists")
                })?
            }
        }
    };
    let route_time = t1.elapsed();
    routing.apply_to(device);

    let report = PnrReport::from_run(
        &device.name,
        effective_placer,
        effective_router,
        &placed,
        &placement,
        &routing,
        place_time,
        route_time,
    );
    Ok(ResilientPnr {
        report,
        degradations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pipeline_on_a_small_benchmark() {
        let mut d = parchmint_suite::by_name("rotary_pump_mixer")
            .unwrap()
            .device();
        let report = place_and_route(&mut d, PlacerChoice::Greedy, RouterChoice::AStar);
        assert!(d.is_placed());
        assert_eq!(report.components, d.components.len());
        assert!(
            report.completion() > 0.8,
            "completion {}",
            report.completion()
        );
        assert!(report.wirelength > 0);
    }

    #[test]
    fn astar_completes_at_least_as_much_as_straight() {
        let mut a = parchmint_suite::planar_synthetic(2);
        let mut b = a.clone();
        let straight = place_and_route(&mut a, PlacerChoice::Greedy, RouterChoice::Straight);
        let astar = place_and_route(&mut b, PlacerChoice::Greedy, RouterChoice::AStar);
        assert!(
            astar.completion() >= straight.completion(),
            "astar {} vs straight {}",
            astar.completion(),
            straight.completion()
        );
    }

    #[test]
    fn annealing_hpwl_not_worse_than_greedy() {
        let mut a = parchmint_suite::planar_synthetic(2);
        let mut b = a.clone();
        let greedy = place_and_route(&mut a, PlacerChoice::Greedy, RouterChoice::Straight);
        let annealed = place_and_route(&mut b, PlacerChoice::Annealing, RouterChoice::Straight);
        assert!(
            annealed.hpwl <= greedy.hpwl,
            "annealing {} vs greedy {}",
            annealed.hpwl,
            greedy.hpwl
        );
    }

    #[test]
    fn an_outline_past_the_grid_limit_falls_back_to_straight_lines() {
        // 200,000,000 µm a side is 1,000,002² routing cells: past the
        // search's 32-bit state limit, and a terabyte of blockage flags.
        let mut huge = parchmint_suite::by_name("logic_gate_or").unwrap().device();
        huge.set_declared_bounds(parchmint::geometry::Span::square(200_000_000));
        for router in [RouterChoice::AStar, RouterChoice::Negotiate] {
            let mut d = huge.clone();
            let run = place_and_route_resilient(&mut d, PlacerChoice::Greedy, router, 0)
                .expect("the straight-line fallback routes");
            let [degradation] = run.degradations.as_slice() else {
                panic!("{router:?}: {:?}", run.degradations);
            };
            assert_eq!(degradation.phase, "route");
            assert!(
                degradation.action.contains("fell back to straight-line"),
                "{router:?}: {}",
                degradation.action
            );
            assert_eq!(run.report.router, "straight");
        }
    }

    #[test]
    fn choices_enumerate() {
        assert_eq!(PlacerChoice::ALL.len(), 2);
        assert_eq!(RouterChoice::ALL.len(), 3);
        assert_eq!(PlacerChoice::Greedy.placer().name(), "greedy");
        assert_eq!(RouterChoice::AStar.router().name(), "astar");
        assert_eq!(RouterChoice::Negotiate.router().name(), "negotiate");
    }
}
