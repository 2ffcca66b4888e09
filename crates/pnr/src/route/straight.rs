//! Straight-line (L-shaped) routing — the baseline router.
//!
//! Each net is drawn as one of the two dog-leg (horizontal-then-vertical or
//! vertical-then-horizontal) paths between its terminals. A path is
//! accepted only when it crosses neither a foreign component footprint nor
//! a previously accepted channel; otherwise the net fails. This is the
//! naive strategy the maze router is measured against: fast, minimal
//! wirelength when it succeeds, but completion collapses as density grows.

use super::{RoutedNet, Router, RoutingResult};
use parchmint::geometry::{Point, Rect, Span};
use parchmint::CompiledDevice;

/// Tuning knobs for [`StraightRouter`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StraightRouterConfig {
    /// Clearance kept around foreign component footprints, in µm.
    pub clearance: i64,
}

impl Default for StraightRouterConfig {
    fn default() -> Self {
        StraightRouterConfig { clearance: 100 }
    }
}

/// The L-path baseline router.
#[derive(Debug, Clone, Default)]
pub struct StraightRouter {
    config: StraightRouterConfig,
}

impl StraightRouter {
    /// Creates a router with default tuning.
    pub fn new() -> Self {
        StraightRouter::default()
    }
}

/// A thin rectangle standing in for a rectilinear segment (zero-extent axes
/// widened to 1 µm so interior-overlap tests work).
fn segment_rect(a: Point, b: Point) -> Rect {
    let mut r = Rect::from_corners(a, b);
    if r.span.x == 0 {
        r.span = Span::new(1, r.span.y.max(1));
    }
    if r.span.y == 0 {
        r.span = Span::new(r.span.x.max(1), 1);
    }
    r
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
            .map(|f| {
                (
                    f.component.clone(),
                    f.footprint().inflated(self.config.clearance),
                )
            })
            .collect();
        let mut accepted_segments: Vec<(Point, Point)> = Vec::new();

        for connection in &device.connections {
            let Some(src) = compiled.target_position(&connection.source) else {
                result.failed.push(connection.id.clone());
                continue;
            };
            let sinks: Vec<Point> = connection
                .sinks
                .iter()
                .filter_map(|s| compiled.target_position(s))
                .collect();
            if sinks.len() != connection.sinks.len() || sinks.is_empty() {
                result.failed.push(connection.id.clone());
                continue;
            }
            let terminal_ids: Vec<&str> = connection
                .terminals()
                .map(|t| t.component.as_str())
                .collect();

            let legal = |path: &[Point], accepted: &[(Point, Point)]| -> bool {
                for (a, b) in path_segments(path) {
                    let seg = segment_rect(a, b);
                    for (owner, rect) in &obstacles {
                        if terminal_ids.contains(&owner.as_str()) {
                            continue;
                        }
                        if seg.intersects(*rect) {
                            return false;
                        }
                    }
                    for &(pa, pb) in accepted {
                        if seg.intersects(segment_rect(pa, pb)) {
                            return false;
                        }
                    }
                }
                true
            };

            let mut branches = Vec::with_capacity(sinks.len());
            let mut pending: Vec<(Point, Point)> = Vec::new();
            let mut ok = true;
            for &sink in &sinks {
                // Two dog-leg candidates.
                let horizontal_first = vec![src, Point::new(sink.x, src.y), sink];
                let vertical_first = vec![src, Point::new(src.x, sink.y), sink];
                let all_accepted: Vec<(Point, Point)> = accepted_segments
                    .iter()
                    .chain(pending.iter())
                    .copied()
                    .collect();
                let chosen = [horizontal_first, vertical_first]
                    .into_iter()
                    .find(|p| legal(p, &all_accepted));
                match chosen {
                    Some(path) => {
                        pending.extend(path_segments(&path));
                        branches.push(
                            path.into_iter()
                                .filter({
                                    // Drop degenerate elbows (src and sink aligned).
                                    let mut prev: Option<Point> = None;
                                    move |p| {
                                        let keep = prev != Some(*p);
                                        prev = Some(*p);
                                        keep
                                    }
                                })
                                .collect(),
                        );
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                accepted_segments.extend(pending);
                result.routed.push(RoutedNet {
                    connection: connection.id.clone(),
                    layer: connection.layer.clone(),
                    branches,
                });
            } else {
                result.failed.push(connection.id.clone());
            }
        }
        if parchmint_obs::enabled() {
            parchmint_obs::count("pnr.route.ripup_rounds", 0);
            parchmint_obs::count("pnr.route.routed", result.routed.len() as u64);
            parchmint_obs::count("pnr.route.failed", result.failed.len() as u64);
        }
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
