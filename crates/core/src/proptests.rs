//! Property-based tests on the core data structures.

use crate::component::{Component, Port};
use crate::connection::{Connection, Target};
use crate::entity::Entity;
use crate::feature::{ComponentFeature, ConnectionFeature};
use crate::geometry::{Point, Rect, Span};
use crate::ir::CompiledDevice;
use crate::layer::{Layer, LayerType};
use crate::params::Params;
use crate::valve::{Valve, ValveType};
use crate::version::Version;
use crate::Device;
use proptest::prelude::*;

fn point_strategy() -> impl Strategy<Value = Point> {
    (-10_000i64..10_000, -10_000i64..10_000).prop_map(|(x, y)| Point::new(x, y))
}

fn rect_strategy() -> impl Strategy<Value = Rect> {
    (point_strategy(), 0i64..5_000, 0i64..5_000)
        .prop_map(|(min, w, h)| Rect::new(min, Span::new(w, h)))
}

/// Structurally varied devices for the ingest-equivalence property:
/// 0–4 components in a chain of connections, optional ports, optional
/// placements/routes, optional valve bindings, and parameter bags with
/// both integer and string values. Names mix in escape-needing
/// characters so the streaming reader's owned-string fallback is
/// exercised too.
fn device_strategy() -> impl Strategy<Value = Device> {
    (
        "[a-z][a-z0-9 _-]{0,12}",
        // escape-needing name · ports on components · placement/route
        // features · valve binding on the first connection
        (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
        0usize..5, // components
        proptest::collection::btree_map("[a-z]{1,6}", -1000i64..1000, 0..4),
        point_strategy(),
    )
        .prop_map(
            |(name, (escapes, ports, features, valved), n_components, params, origin)| {
                let mut d = Device::new(if escapes {
                    format!("{name} \"é\n\t\\😀")
                } else {
                    name
                });
                d.layers.push(Layer::new("f0", "flow", LayerType::Flow));
                for i in 0..n_components {
                    let mut c = Component::new(
                        format!("c{i}"),
                        format!("comp {i}"),
                        if i % 2 == 0 {
                            Entity::Mixer
                        } else {
                            Entity::Port
                        },
                        ["f0"],
                        Span::new(100 + i as i64, 200),
                    );
                    if ports {
                        c = c
                            .with_port(Port::new("in", "f0", 0, 100))
                            .with_port(Port::new("out", "f0", 100 + i as i64, 100));
                    }
                    for (key, value) in &params {
                        c.params.set(key.clone(), *value);
                    }
                    c.params.set("note", "weiß\u{7}");
                    d.components.push(c);
                }
                for i in 1..n_components {
                    let (source, sink) = if ports {
                        (
                            Target::new(format!("c{}", i - 1), "out"),
                            Target::new(format!("c{i}"), "in"),
                        )
                    } else {
                        (
                            Target::component_only(format!("c{}", i - 1)),
                            Target::component_only(format!("c{i}")),
                        )
                    };
                    d.connections.push(Connection::new(
                        format!("ch{i}"),
                        format!("link {i}"),
                        "f0",
                        source,
                        [sink],
                    ));
                }
                if features {
                    for (i, c) in d.components.iter().enumerate() {
                        d.features.push(
                            ComponentFeature::new(
                                format!("pf{i}"),
                                c.id.as_str(),
                                "f0",
                                origin + Point::new(i as i64 * 500, 0),
                                c.span,
                                50,
                            )
                            .into(),
                        );
                    }
                    for (i, ch) in d.connections.iter().enumerate() {
                        d.features.push(
                            ConnectionFeature::new(
                                format!("rf{i}"),
                                ch.id.as_str(),
                                "f0",
                                400,
                                50,
                                [origin, origin + Point::new(0, i as i64 + 1)],
                            )
                            .into(),
                        );
                    }
                }
                if valved && !d.connections.is_empty() {
                    d.layers.push(Layer::new("c0", "ctl", LayerType::Control));
                    d.components.push(Component::new(
                        "v0",
                        "valve",
                        Entity::Valve,
                        ["c0"],
                        Span::square(300),
                    ));
                    d.valves
                        .push(Valve::new("v0", "ch1", ValveType::NormallyClosed));
                }
                for (key, value) in &params {
                    d.params.set(key.clone(), *value);
                }
                d
            },
        )
}

proptest! {
    // ---- geometry ------------------------------------------------------

    #[test]
    fn manhattan_distance_is_a_metric(a in point_strategy(), b in point_strategy(), c in point_strategy()) {
        prop_assert_eq!(a.manhattan_distance(a), 0);
        prop_assert_eq!(a.manhattan_distance(b), b.manhattan_distance(a));
        prop_assert!(a.manhattan_distance(c) <= a.manhattan_distance(b) + b.manhattan_distance(c));
        prop_assert!(a.manhattan_distance(b) >= 0);
    }

    #[test]
    fn point_addition_is_commutative_and_invertible(a in point_strategy(), b in point_strategy()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a + b - b, a);
        prop_assert_eq!(a + (-a), Point::ORIGIN);
    }

    #[test]
    fn rect_union_contains_both(a in rect_strategy(), b in rect_strategy()) {
        let u = a.union(b);
        if !a.span.is_empty() {
            prop_assert!(u.contains_rect(a), "union {u} misses {a}");
        }
        if !b.span.is_empty() {
            prop_assert!(u.contains_rect(b), "union {u} misses {b}");
        }
    }

    #[test]
    fn rect_intersection_is_contained_in_both(a in rect_strategy(), b in rect_strategy()) {
        if let Some(i) = a.intersection(b) {
            prop_assert!(a.contains_rect(i));
            prop_assert!(b.contains_rect(i));
            prop_assert!(i.area() <= a.area().min(b.area()));
        } else {
            prop_assert!(!a.intersects(b));
        }
    }

    #[test]
    fn rect_intersects_is_symmetric(a in rect_strategy(), b in rect_strategy()) {
        prop_assert_eq!(a.intersects(b), b.intersects(a));
    }

    #[test]
    fn rect_inflate_then_deflate_round_trips(r in rect_strategy(), margin in 0i64..1000) {
        let back = r.inflated(margin).inflated(-margin);
        // Round-trips exactly whenever the deflation cannot clamp at zero.
        if r.span.x > 0 && r.span.y > 0 {
            prop_assert_eq!(back, r);
        }
    }

    #[test]
    fn contains_point_implies_intersects_unit_rect(r in rect_strategy(), p in point_strategy()) {
        if r.contains(p) {
            prop_assert!(r.intersects(Rect::new(p, Span::new(1, 1))));
        }
    }

    // ---- serde ----------------------------------------------------------

    #[test]
    fn span_serde_round_trip(x in 0i64..1_000_000, y in 0i64..1_000_000) {
        let span = Span::new(x, y);
        let json = serde_json::to_string(&span).unwrap();
        prop_assert_eq!(serde_json::from_str::<Span>(&json).unwrap(), span);
    }

    #[test]
    fn entity_parse_total_on_reasonable_strings(s in "[A-Za-z][A-Za-z0-9 _-]{0,20}") {
        // Any non-empty identifier-ish string parses (to standard or custom),
        // and re-parsing the canonical name is a fixed point.
        let entity: Entity = s.parse().unwrap();
        let again: Entity = entity.name().parse().unwrap();
        prop_assert_eq!(again, entity);
    }

    #[test]
    fn params_round_trip(entries in proptest::collection::btree_map("[a-z]{1,8}", -1000i64..1000, 0..8)) {
        let mut params = Params::new();
        for (key, value) in &entries {
            params.set(key.clone(), *value);
        }
        let json = serde_json::to_string(&params).unwrap();
        let back: Params = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, params);
    }

    // ---- ingest ---------------------------------------------------------

    #[test]
    fn fast_ingest_matches_value_path(device in device_strategy(), pretty in any::<bool>()) {
        // `from_json`'s streaming reader must reproduce the `Value` tree
        // oracle exactly: equal `Device`, and a byte-identical
        // `CompiledDevice` projection.
        let json = if pretty {
            device.to_json_pretty().unwrap()
        } else {
            device.to_json().unwrap()
        };
        let reference: Device = serde_json::from_str(&json).unwrap();
        let parsed = Device::from_json(&json).unwrap();
        prop_assert_eq!(&parsed, &reference);
        let reference_compiled = CompiledDevice::compile(reference)
            .into_device()
            .to_json()
            .unwrap();
        let parsed_compiled = CompiledDevice::compile(parsed)
            .into_device()
            .to_json()
            .unwrap();
        prop_assert_eq!(reference_compiled, parsed_compiled);
    }

    #[test]
    fn valve_type_and_version_round_trip(nc in any::<bool>(), v in 0usize..3) {
        let valve_type = if nc { ValveType::NormallyClosed } else { ValveType::NormallyOpen };
        prop_assert_eq!(valve_type.name().parse::<ValveType>().unwrap(), valve_type);
        let version = [Version::V1_0, Version::V1_1, Version::V1_2][v];
        prop_assert_eq!(version.as_str().parse::<Version>().unwrap(), version);
    }
}
