//! Routing: realizing each connection as rectilinear channel geometry.
//!
//! The three routers share one frame and keep only their searches. It
//! resolves every connection's terminals once, in declaration order
//! (`nets`), orders nets shortest-first by one estimate, builds every
//! [`RoutedNet`] in one place, with its branches cleaned of repeated and
//! collinear points, and emits the `pnr.route.{ripup_rounds,routed,failed}`
//! counters through one helper. The routers and the congestion metric
//! ([`crate::CONGESTION_CELL`]) share one lattice, whose cell size,
//! footprint clearance, step cost and bend penalty are defined once here
//! (the A* router's bend penalty is a default; see
//! [`grid::GridRouterConfig`]).

pub mod grid;
pub mod negotiate;
pub mod straight;

use parchmint::geometry::Point;
use parchmint::{CompiledDevice, Connection, ConnectionFeature, ConnectionId, Device, LayerId};

/// Routing-lattice cell size, in µm.
pub(crate) const CELL: i64 = 200;
/// Clearance kept around component footprints, in µm.
pub(crate) const CLEARANCE: i64 = 100;
/// Cost of one lattice step (scaled integers).
pub(crate) const STEP_COST: u32 = 10;
/// Extra cost per 90° bend (the A* router's default; see
/// [`grid::GridRouterConfig`]).
pub(crate) const BEND_PENALTY: u32 = 30;

/// Default channel width written into route features, in µm.
pub const CHANNEL_WIDTH: i64 = 200;

/// Default channel depth written into route features, in µm.
pub const CHANNEL_DEPTH: i64 = 50;

/// One routed connection: a polyline branch per sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedNet {
    /// The connection this net realizes.
    pub connection: ConnectionId,
    /// The layer the channel is drawn on.
    pub layer: LayerId,
    /// One source→sink polyline per sink, in order.
    pub branches: Vec<Vec<Point>>,
}

impl RoutedNet {
    /// Total rectilinear length over all branches, in µm.
    pub fn length(&self) -> i64 {
        self.branches
            .iter()
            .flat_map(|b| b.windows(2))
            .map(|w| w[0].manhattan_distance(w[1]))
            .sum()
    }

    /// Total number of bends over all branches.
    pub fn bends(&self) -> usize {
        self.branches
            .iter()
            .flat_map(|b| b.windows(3))
            .filter(|w| {
                let d1 = w[1] - w[0];
                let d2 = w[2] - w[1];
                (d1.x == 0) != (d2.x == 0)
            })
            .count()
    }
}

/// The outcome of routing one device.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutingResult {
    /// Successfully routed nets.
    pub routed: Vec<RoutedNet>,
    /// Connections no legal path was found for.
    pub failed: Vec<ConnectionId>,
}

impl RoutingResult {
    /// Fraction of nets routed, in `[0, 1]`; `1.0` when there were no nets.
    pub fn completion(&self) -> f64 {
        let total = self.routed.len() + self.failed.len();
        if total == 0 {
            1.0
        } else {
            self.routed.len() as f64 / total as f64
        }
    }

    /// Total routed wirelength, in µm.
    pub fn wirelength(&self) -> i64 {
        self.routed.iter().map(RoutedNet::length).sum()
    }

    /// Total bends across all routed nets.
    pub fn bends(&self) -> usize {
        self.routed.iter().map(RoutedNet::bends).sum()
    }

    /// Writes the routed nets into `device` as connection features
    /// (`rf_<net>` / `rf_<net>_<branch>`), replacing any existing routes.
    pub fn apply_to(&self, device: &mut Device) {
        device.features.retain(|f| f.as_connection().is_none());
        for net in &self.routed {
            for (i, branch) in net.branches.iter().enumerate() {
                let id = if net.branches.len() == 1 {
                    format!("rf_{}", net.connection)
                } else {
                    format!("rf_{}_{i}", net.connection)
                };
                device.features.push(
                    ConnectionFeature::new(
                        id,
                        net.connection.clone(),
                        net.layer.clone(),
                        CHANNEL_WIDTH,
                        CHANNEL_DEPTH,
                        branch.iter().copied(),
                    )
                    .into(),
                );
            }
        }
        device.bump_version_to_content();
    }
}

/// One connection with its terminals resolved on the placed device.
pub(crate) struct Net<'a> {
    pub(crate) connection: &'a Connection,
    pub(crate) source: Point,
    /// One position per sink, in declaration order; never empty.
    pub(crate) sinks: Vec<Point>,
}

impl Net<'_> {
    /// The shortest-first key: the summed source-to-sink Manhattan
    /// distance.
    pub(crate) fn estimate(&self) -> i64 {
        let source = self.source;
        self.sinks
            .iter()
            .map(|&p| source.manhattan_distance(p))
            .sum()
    }

    /// The net realized by `branches`, one waypoint list per sink, each
    /// cleaned by [`simplify`].
    pub(crate) fn routed(&self, branches: Vec<Vec<Point>>) -> RoutedNet {
        RoutedNet {
            connection: self.connection.id.clone(),
            layer: self.connection.layer.clone(),
            branches: branches.into_iter().map(simplify).collect(),
        }
    }
}

/// Every connection of `compiled`, in declaration order: its [`Net`], or
/// `Err(id)` when a terminal is unplaced or unknown or it has no sink.
pub(crate) fn nets(compiled: &CompiledDevice) -> Vec<Result<Net<'_>, ConnectionId>> {
    let resolve = |connection: &Connection| {
        let source = compiled.target_position(&connection.source)?;
        let sinks: Vec<Point> = connection
            .sinks
            .iter()
            .map(|sink| compiled.target_position(sink))
            .collect::<Option<_>>()?;
        (!sinks.is_empty()).then_some((source, sinks))
    };
    let connections = &compiled.device().connections;
    connections
        .iter()
        .map(|connection| match resolve(connection) {
            Some((source, sinks)) => Ok(Net {
                connection,
                source,
                sinks,
            }),
            None => Err(connection.id.clone()),
        })
        .collect()
}

/// Emits the counters every router reports for its result, when tracing.
pub(crate) fn count(result: &RoutingResult, ripup_rounds: u64) {
    if parchmint_obs::enabled() {
        parchmint_obs::count("pnr.route.ripup_rounds", ripup_rounds);
        parchmint_obs::count("pnr.route.routed", result.routed.len() as u64);
        parchmint_obs::count("pnr.route.failed", result.failed.len() as u64);
    }
}

/// Drops repeated points and collapses collinear runs in a waypoint list.
pub(crate) fn simplify(points: Vec<Point>) -> Vec<Point> {
    let mut out: Vec<Point> = Vec::with_capacity(points.len());
    for p in points {
        if out.last() == Some(&p) {
            continue;
        }
        if out.len() >= 2 {
            let a = out[out.len() - 2];
            let b = out[out.len() - 1];
            if (a.x == b.x && b.x == p.x) || (a.y == b.y && b.y == p.y) {
                *out.last_mut().expect("non-empty") = p;
                continue;
            }
        }
        out.push(p);
    }
    out
}

/// A routing algorithm. Requires a placed device (component features
/// present); nets whose terminals are unplaced are reported as failed.
///
/// Routers consume the [`CompiledDevice`] view so terminal positions come
/// from pre-resolved endpoint handles, not per-terminal scans. The compiled
/// view must be built *after* placement features are applied.
pub trait Router {
    /// Short identifier used in reports (e.g. `"astar"`).
    fn name(&self) -> &'static str;

    /// Routes every connection of the placed device.
    fn route(&self, compiled: &CompiledDevice) -> RoutingResult;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RouterChoice;
    use parchmint::geometry::Span;
    use parchmint::{Component, Connection, Entity, Layer, LayerType, Port, Target};

    /// Ports `a` to `d` in a row, 1,000 µm apart, each with a west and an
    /// east port, all placed but `d` unless `place_d`. `c1` joins a→b,
    /// `c2` has no sink, `c3` joins b→c and `c4` c→d.
    fn dangling(place_d: bool) -> Device {
        let node = |id: &str| {
            Component::new(id, id, Entity::Port, ["f"], Span::square(200))
                .with_port(Port::new("w", "f", 0, 100))
                .with_port(Port::new("e", "f", 200, 100))
        };
        let link = |id: &str, from: &str, to: Option<&str>| {
            let sinks = to.map(|to| Target::new(to, "w"));
            Connection::new(id, id, "f", Target::new(from, "e"), sinks)
        };
        let mut d = Device::builder("dangling")
            .layer(Layer::new("f", "f", LayerType::Flow))
            .component(node("a"))
            .component(node("b"))
            .component(node("c"))
            .component(node("d"))
            .connection(link("c1", "a", Some("b")))
            .connection(link("c2", "a", None))
            .connection(link("c3", "b", Some("c")))
            .connection(link("c4", "c", Some("d")))
            .bounds(Span::new(4000, 1400))
            .build()
            .unwrap();
        let mut placement = crate::place::Placement::new();
        for (i, id) in ["a", "b", "c", "d"].into_iter().enumerate() {
            if id != "d" || place_d {
                placement.set(id.into(), Point::new(1000 * i as i64, 400));
            }
        }
        placement.apply_to(&mut d);
        d
    }

    #[test]
    fn nets_resolve_every_connection_in_declaration_order() {
        let d = dangling(false);
        let compiled = CompiledDevice::from_ref(&d);
        let resolved: Vec<_> = nets(&compiled)
            .into_iter()
            .map(|net| net.map(|n| (n.connection.id.as_str(), n.source, n.sinks)))
            .collect();
        let y = 500;
        assert_eq!(
            resolved,
            vec![
                Ok(("c1", Point::new(200, y), vec![Point::new(1000, y)])),
                Err(ConnectionId::new("c2")),
                Ok(("c3", Point::new(1200, y), vec![Point::new(2000, y)])),
                Err(ConnectionId::new("c4")),
            ]
        );
    }

    #[test]
    fn every_router_fails_a_sinkless_connection_and_routes_the_rest() {
        let d = dangling(true);
        let compiled = CompiledDevice::from_ref(&d);
        for &choice in RouterChoice::ALL {
            let result = choice.router().route(&compiled);
            assert_eq!(result.failed, vec![ConnectionId::new("c2")], "{choice:?}");
            let mut routed: Vec<&str> = result
                .routed
                .iter()
                .map(|n| n.connection.as_str())
                .collect();
            routed.sort_unstable();
            assert_eq!(routed, ["c1", "c3", "c4"], "{choice:?}");
        }
    }

    #[test]
    fn simplify_collapses_collinear_points() {
        let pts = vec![
            Point::new(0, 0),
            Point::new(5, 0),
            Point::new(9, 0),
            Point::new(9, 4),
            Point::new(9, 4),
            Point::new(9, 9),
        ];
        assert_eq!(
            simplify(pts),
            vec![Point::new(0, 0), Point::new(9, 0), Point::new(9, 9)]
        );
    }

    fn net(points: Vec<Vec<(i64, i64)>>) -> RoutedNet {
        RoutedNet {
            connection: "c1".into(),
            layer: "f".into(),
            branches: points
                .into_iter()
                .map(|b| b.into_iter().map(Point::from).collect())
                .collect(),
        }
    }

    #[test]
    fn length_and_bends() {
        let n = net(vec![vec![(0, 0), (10, 0), (10, 5)]]);
        assert_eq!(n.length(), 15);
        assert_eq!(n.bends(), 1);
    }

    #[test]
    fn multi_branch_totals() {
        let n = net(vec![vec![(0, 0), (10, 0)], vec![(0, 0), (0, 7), (3, 7)]]);
        assert_eq!(n.length(), 20);
        assert_eq!(n.bends(), 1);
    }

    #[test]
    fn completion_ratios() {
        let empty = RoutingResult::default();
        assert_eq!(empty.completion(), 1.0);
        let half = RoutingResult {
            routed: vec![net(vec![vec![(0, 0), (1, 0)]])],
            failed: vec!["c2".into()],
        };
        assert!((half.completion() - 0.5).abs() < 1e-12);
        assert_eq!(half.wirelength(), 1);
    }

    #[test]
    fn apply_to_writes_features() {
        let mut d = parchmint::Device::builder("t")
            .layer(parchmint::Layer::new("f", "f", parchmint::LayerType::Flow))
            .component(
                parchmint::Component::new(
                    "a",
                    "a",
                    parchmint::Entity::Port,
                    ["f"],
                    parchmint::geometry::Span::square(10),
                )
                .with_port(parchmint::Port::new("p", "f", 10, 5)),
            )
            .component(
                parchmint::Component::new(
                    "b",
                    "b",
                    parchmint::Entity::Port,
                    ["f"],
                    parchmint::geometry::Span::square(10),
                )
                .with_port(parchmint::Port::new("p", "f", 0, 5)),
            )
            .connection(parchmint::Connection::new(
                "c1",
                "c1",
                "f",
                parchmint::Target::new("a", "p"),
                [parchmint::Target::new("b", "p")],
            ))
            .build()
            .unwrap();
        let result = RoutingResult {
            routed: vec![net(vec![vec![(10, 5), (90, 5)]])],
            failed: vec![],
        };
        result.apply_to(&mut d);
        assert!(d.route_of(&"c1".into()).is_some());
        assert!(d.is_routed());
        // Re-applying replaces, not duplicates.
        result.apply_to(&mut d);
        assert_eq!(d.features.len(), 1);
    }
}
