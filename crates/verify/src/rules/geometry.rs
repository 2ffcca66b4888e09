//! Geometric rules (`GEO*`), active for placed/routed devices.

use crate::diagnostics::{Diagnostic, Report, Rule};
use crate::validator::DesignRules;
use parchmint::geometry::{Point, Rect};
use parchmint::{CompiledDevice, ComponentFeature, ConnectionFeature, Device};

pub(crate) fn check(compiled: &CompiledDevice, rules: &DesignRules, report: &mut Report) {
    let device = compiled.device();
    check_port_boundaries(device, report);

    let placements: Vec<&ComponentFeature> = device
        .features
        .iter()
        .filter_map(|f| f.as_component())
        .collect();
    let routes: Vec<&ConnectionFeature> = device
        .features
        .iter()
        .filter_map(|f| f.as_connection())
        .collect();

    check_placement_bounds(device, &placements, report);
    check_placement_overlap(&placements, report);
    check_span_mismatch(compiled, &placements, report);
    check_routes(compiled, rules, &routes, report);
    check_route_crossings(compiled, &placements, &routes, report);
}

fn check_port_boundaries(device: &Device, report: &mut Report) {
    for component in &device.components {
        for port in &component.ports {
            if !port.on_boundary(component.span) {
                report.push(Diagnostic::new(
                    Rule::GeoPortOffBoundary,
                    format!("components[{}].ports[{}]", component.id, port.label),
                    format!(
                        "port at ({}, {}) is not on the boundary of a {} footprint",
                        port.x, port.y, component.span
                    ),
                ));
            }
        }
    }
}

fn check_placement_bounds(device: &Device, placements: &[&ComponentFeature], report: &mut Report) {
    let Some(bounds) = device.declared_bounds() else {
        return;
    };
    let die = Rect::new(Point::ORIGIN, bounds);
    for placement in placements {
        if !die.contains_rect(placement.footprint()) {
            report.push(Diagnostic::new(
                Rule::GeoPlacementOutOfBounds,
                format!("features[{}]", placement.id),
                format!(
                    "placement {} exceeds the declared die outline {}",
                    placement.footprint(),
                    bounds
                ),
            ));
        }
    }
}

fn check_placement_overlap(placements: &[&ComponentFeature], report: &mut Report) {
    for (i, a) in placements.iter().enumerate() {
        for b in &placements[i + 1..] {
            if a.layer != b.layer {
                continue;
            }
            if a.footprint().intersects(b.footprint()) {
                report.push(Diagnostic::new(
                    Rule::GeoPlacementOverlap,
                    format!("features[{}]", a.id),
                    format!(
                        "placement of `{}` overlaps placement of `{}` on layer `{}`",
                        a.component, b.component, a.layer
                    ),
                ));
            }
        }
    }
}

fn check_span_mismatch(
    compiled: &CompiledDevice,
    placements: &[&ComponentFeature],
    report: &mut Report,
) {
    for placement in placements {
        let Some(component) = compiled.component_by_id(placement.component.as_str()) else {
            continue; // referential rules already flagged this
        };
        if component.span != placement.span && placement.span != component.span.rotated() {
            report.push(Diagnostic::new(
                Rule::GeoSpanMismatch,
                format!("features[{}]", placement.id),
                format!(
                    "placed span {} disagrees with component span {} (rotation allowed)",
                    placement.span, component.span
                ),
            ));
        }
    }
}

fn check_routes(
    compiled: &CompiledDevice,
    rules: &DesignRules,
    routes: &[&ConnectionFeature],
    report: &mut Report,
) {
    for route in routes {
        let loc = format!("features[{}]", route.id);
        if !route.is_rectilinear() {
            report.push(Diagnostic::new(
                Rule::GeoRouteNotRectilinear,
                loc.clone(),
                "route contains non-axis-aligned segments",
            ));
        }
        check_route_endpoints(compiled, rules, route, &loc, report);
    }
}

fn check_route_endpoints(
    compiled: &CompiledDevice,
    rules: &DesignRules,
    route: &ConnectionFeature,
    loc: &str,
    report: &mut Report,
) {
    let Some(connection) = compiled.connection_by_id(route.connection.as_str()) else {
        return;
    };
    let (Some(&first), Some(&last)) = (route.waypoints.first(), route.waypoints.last()) else {
        return;
    };
    if let Some(src) = compiled.target_position(&connection.source) {
        if src.manhattan_distance(first) > rules.endpoint_tolerance {
            report.push(Diagnostic::new(
                Rule::GeoRouteEndpointMismatch,
                loc.to_owned(),
                format!(
                    "route starts at {first} but source terminal `{}` is at {src}",
                    connection.source
                ),
            ));
        }
    }
    let sink_positions: Vec<Point> = connection
        .sinks
        .iter()
        .filter_map(|s| compiled.target_position(s))
        .collect();
    if !sink_positions.is_empty()
        && !sink_positions
            .iter()
            .any(|p| p.manhattan_distance(last) <= rules.endpoint_tolerance)
    {
        report.push(Diagnostic::new(
            Rule::GeoRouteEndpointMismatch,
            loc.to_owned(),
            format!("route ends at {last}, which meets no sink terminal"),
        ));
    }
}

fn check_route_crossings(
    compiled: &CompiledDevice,
    placements: &[&ComponentFeature],
    routes: &[&ConnectionFeature],
    report: &mut Report,
) {
    for route in routes {
        let Some(connection) = compiled.connection_by_id(route.connection.as_str()) else {
            continue;
        };
        let terminal_components: Vec<&str> = connection
            .terminals()
            .map(|t| t.component.as_str())
            .collect();
        for placement in placements {
            if placement.layer != route.layer
                || terminal_components.contains(&placement.component.as_str())
            {
                continue;
            }
            let footprint = placement.footprint();
            for window in route.waypoints.windows(2) {
                if Rect::of_segment(window[0], window[1]).intersects(footprint) {
                    report.push(Diagnostic::new(
                        Rule::GeoRouteCrossesComponent,
                        format!("features[{}]", route.id),
                        format!(
                            "route of `{}` passes through component `{}`",
                            route.connection, placement.component
                        ),
                    ));
                    break;
                }
            }
        }
    }
}
