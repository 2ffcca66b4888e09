//! Straight-line (L-shaped) routing — the baseline router.
//!
//! Each net is drawn as one of the two dog-leg (horizontal-then-vertical or
//! vertical-then-horizontal) paths between its terminals. A path is
//! accepted only when it crosses neither a foreign component footprint nor
//! a previously accepted channel; otherwise the net fails. This is the
//! naive strategy the maze router is measured against: fast, minimal
//! wirelength when it succeeds, but completion collapses as density grows.

use super::{count, nets, Router, RoutingResult, CLEARANCE};
use parchmint::geometry::{Point, Rect};
use parchmint::CompiledDevice;

/// The L-path baseline router.
#[derive(Debug, Clone, Default)]
pub struct StraightRouter;

impl StraightRouter {
    /// Creates the router.
    pub fn new() -> Self {
        StraightRouter
    }
}

fn path_segments(path: &[Point]) -> impl Iterator<Item = (Point, Point)> + '_ {
    path.windows(2)
        .filter(|w| w[0] != w[1])
        .map(|w| (w[0], w[1]))
}

impl Router for StraightRouter {
    fn name(&self) -> &'static str {
        "straight"
    }

    fn route(&self, compiled: &CompiledDevice) -> RoutingResult {
        let device = compiled.device();
        let mut result = RoutingResult::default();
        // Footprints of placed components, with their owning component id.
        let obstacles: Vec<(parchmint::ComponentId, Rect)> = device
            .features
            .iter()
            .filter_map(|f| f.as_component())
            .map(|f| (f.component.clone(), f.footprint().inflated(CLEARANCE)))
            .collect();
        let mut accepted_segments: Vec<(Point, Point)> = Vec::new();

        for net in nets(compiled) {
            let net = match net {
                Ok(net) => net,
                Err(id) => {
                    result.failed.push(id);
                    continue;
                }
            };
            let terminal_ids: Vec<&str> = net
                .connection
                .terminals()
                .map(|t| t.component.as_str())
                .collect();

            // A path is legal when it crosses no foreign footprint, no
            // accepted channel and no branch of this net chosen so far.
            let legal = |path: &[Point], pending: &[(Point, Point)]| -> bool {
                for (a, b) in path_segments(path) {
                    let seg = Rect::of_segment(a, b);
                    for (owner, rect) in &obstacles {
                        if terminal_ids.contains(&owner.as_str()) {
                            continue;
                        }
                        if seg.intersects(*rect) {
                            return false;
                        }
                    }
                    for &(pa, pb) in accepted_segments.iter().chain(pending) {
                        if seg.intersects(Rect::of_segment(pa, pb)) {
                            return false;
                        }
                    }
                }
                true
            };

            let src = net.source;
            let mut branches = Vec::with_capacity(net.sinks.len());
            let mut pending: Vec<(Point, Point)> = Vec::new();
            for &sink in &net.sinks {
                // Two dog-leg candidates.
                let horizontal_first = vec![src, Point::new(sink.x, src.y), sink];
                let vertical_first = vec![src, Point::new(src.x, sink.y), sink];
                let Some(path) = [horizontal_first, vertical_first]
                    .into_iter()
                    .find(|p| legal(p, &pending))
                else {
                    break;
                };
                pending.extend(path_segments(&path));
                branches.push(path);
            }
            if branches.len() == net.sinks.len() {
                accepted_segments.extend(pending);
                result.routed.push(net.routed(branches));
            } else {
                result.failed.push(net.connection.id.clone());
            }
        }
        count(&result, 0);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parchmint::geometry::Span;
    use parchmint::{
        Component, ComponentFeature, Connection, Device, Entity, Layer, LayerType, Port, Target,
    };

    fn placed_device(with_obstacle: bool) -> Device {
        let mut b = Device::builder("t")
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
            .bounds(Span::new(6000, 4000));
        if with_obstacle {
            b = b.component(Component::new(
                "obst",
                "obst",
                Entity::ReactionChamber,
                ["f"],
                Span::new(400, 4000),
            ));
        }
        let mut d = b.build().unwrap();
        d.features.push(
            ComponentFeature::new("pf_a", "a", "f", Point::new(0, 400), Span::square(200), 50)
                .into(),
        );
        d.features.push(
            ComponentFeature::new(
                "pf_b",
                "b",
                "f",
                Point::new(4000, 400),
                Span::square(200),
                50,
            )
            .into(),
        );
        if with_obstacle {
            // A full-height wall between the two ports.
            d.features.push(
                ComponentFeature::new(
                    "pf_obst",
                    "obst",
                    "f",
                    Point::new(2000, 0),
                    Span::new(400, 4000),
                    50,
                )
                .into(),
            );
        }
        d
    }

    #[test]
    fn straight_shot_succeeds_with_minimal_wirelength() {
        let d = placed_device(false);
        let r = StraightRouter::new().route(&CompiledDevice::from_ref(&d));
        assert_eq!(r.routed.len(), 1);
        let net = &r.routed[0];
        // Ports at (200, 500) and (4000, 500): a straight 3800 µm run.
        assert_eq!(net.length(), 3800);
        assert_eq!(net.bends(), 0);
    }

    #[test]
    fn gives_up_at_an_obstacle_where_astar_succeeds() {
        let d = placed_device(true);
        let c = CompiledDevice::from_ref(&d);
        let straight = StraightRouter::new().route(&c);
        assert_eq!(straight.routed.len(), 0, "straight cannot detour");
        let astar = crate::route::grid::AStarRouter::new().route(&c);
        assert_eq!(
            astar.routed.len(),
            1,
            "maze router detours: {:?}",
            astar.failed
        );
    }

    #[test]
    fn later_nets_avoid_crossing_earlier_ones() {
        // Two nets whose L-paths would cross: net 1 routes, net 2 must fail
        // in at least one orientation but succeed in the other.
        let mut d = Device::builder("x")
            .layer(Layer::new("f", "f", LayerType::Flow))
            .component(
                Component::new("a", "a", Entity::Node, ["f"], Span::square(100))
                    .with_port(Port::new("p", "f", 100, 50)),
            )
            .component(
                Component::new("b", "b", Entity::Node, ["f"], Span::square(100))
                    .with_port(Port::new("p", "f", 0, 50)),
            )
            .component(
                Component::new("c", "c", Entity::Node, ["f"], Span::square(100))
                    .with_port(Port::new("p", "f", 100, 50)),
            )
            .component(
                Component::new("e", "e", Entity::Node, ["f"], Span::square(100))
                    .with_port(Port::new("p", "f", 0, 50)),
            )
            .connection(Connection::new(
                "n1",
                "n1",
                "f",
                Target::new("a", "p"),
                [Target::new("b", "p")],
            ))
            .connection(Connection::new(
                "n2",
                "n2",
                "f",
                Target::new("c", "p"),
                [Target::new("e", "p")],
            ))
            .build()
            .unwrap();
        // a→b horizontal at y=1050; c→e crosses it vertically at x≈2000.
        for (id, comp, at) in [
            ("pf_a", "a", Point::new(0, 1000)),
            ("pf_b", "b", Point::new(4000, 1000)),
            ("pf_c", "c", Point::new(1900, 0)),
            ("pf_e", "e", Point::new(1900, 2000)),
        ] {
            d.features
                .push(ComponentFeature::new(id, comp, "f", at, Span::square(100), 50).into());
        }
        let r = StraightRouter::new().route(&CompiledDevice::from_ref(&d));
        // n1 is a clean straight shot; n2's candidates both cross it.
        assert_eq!(r.routed.len(), 1);
        assert_eq!(r.failed, vec![parchmint::ConnectionId::new("n2")]);
    }

    #[test]
    fn unplaced_terminals_fail() {
        let mut d = placed_device(false);
        d.features.clear();
        let r = StraightRouter::new().route(&CompiledDevice::from_ref(&d));
        assert_eq!(r.routed.len(), 0);
        assert_eq!(r.failed.len(), 1);
        assert_eq!(StraightRouter::new().name(), "straight");
    }
}
