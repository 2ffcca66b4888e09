//! The top-level device model.

use crate::component::{Component, Port};
use crate::connection::{Connection, Target};
use crate::entity::Entity;
use crate::error::{Error, Result};
use crate::feature::{ComponentFeature, ConnectionFeature, Feature};
use crate::geometry::{Point, Rect, Span};
use crate::ids::{ComponentId, ConnectionId, FeatureId, LayerId};
use crate::layer::Layer;
use crate::params::{keys, Params};
use crate::valve::{Valve, ValveType};
use crate::version::Version;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A complete continuous-flow microfluidic device in the ParchMint model.
///
/// A `Device` is a netlist (layers, components, connections) optionally
/// enriched with a physical design (`features`, version ≥ 1.1) and valve
/// bindings (`valves`, version ≥ 1.2). It serializes to and from the
/// ParchMint JSON interchange format losslessly.
///
/// # Examples
///
/// ```
/// use parchmint::{Device, Layer, LayerType, Component, Connection, Entity, Port, Target};
/// use parchmint::geometry::Span;
///
/// let device = Device::builder("demo")
///     .layer(Layer::new("f0", "flow", LayerType::Flow))
///     .component(
///         Component::new("in1", "inlet", Entity::Port, ["f0"], Span::square(200))
///             .with_port(Port::new("p", "f0", 200, 100)),
///     )
///     .component(
///         Component::new("m1", "mixer", Entity::Mixer, ["f0"], Span::new(2000, 1000))
///             .with_port(Port::new("in", "f0", 0, 500)),
///     )
///     .connection(Connection::new(
///         "ch1", "inlet_to_mixer", "f0",
///         Target::new("in1", "p"),
///         [Target::new("m1", "in")],
///     ))
///     .build()
///     .unwrap();
///
/// let json = device.to_json_pretty().unwrap();
/// let back = Device::from_json(&json).unwrap();
/// assert_eq!(back, device);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(into = "DeviceRepr", try_from = "DeviceRepr")]
pub struct Device {
    /// Human-readable device name.
    pub name: String,
    /// Format revision the device targets.
    pub version: Version,
    /// Fabrication layers, in stack order.
    pub layers: Vec<Layer>,
    /// Component instances.
    pub components: Vec<Component>,
    /// Channel nets.
    pub connections: Vec<Connection>,
    /// Physical-design features (placements and routes); empty pre-layout.
    pub features: Vec<Feature>,
    /// Valve bindings (which valve pinches which connection), kept sorted
    /// by valve component id — the wire format stores them as a map, so
    /// only a canonical order survives round-trips.
    pub valves: Vec<Valve>,
    /// Device-level open parameters, conventionally including
    /// `x-span`/`y-span` for the die outline.
    pub params: Params,
}

impl Device {
    /// Creates an empty device at the current format version.
    pub fn new(name: impl Into<String>) -> Self {
        Device {
            name: name.into(),
            version: Version::CURRENT,
            layers: Vec::new(),
            components: Vec::new(),
            connections: Vec::new(),
            features: Vec::new(),
            valves: Vec::new(),
            params: Params::new(),
        }
    }

    /// Starts a checked builder; see [`DeviceBuilder`](crate::DeviceBuilder).
    pub fn builder(name: impl Into<String>) -> crate::builder::DeviceBuilder {
        crate::builder::DeviceBuilder::new(name)
    }

    // ---- JSON -----------------------------------------------------------

    /// Parses a device from ParchMint JSON text.
    ///
    /// Runs the streaming reader (`crate::ingest`): one pass over the
    /// input with borrowed keys and strings and no intermediate `Value`
    /// tree. The derived `Deserialize` impl, reached as
    /// `serde_json::from_str::<Device>`, is kept as the test oracle; see
    /// the `ingest` module for the one kind of document the two treat
    /// differently.
    pub fn from_json(json: &str) -> Result<Self> {
        crate::ingest::device_from_str(json)
    }

    // Kept only for `parchmint-bench`, which still calls it.
    #[doc(hidden)]
    pub fn from_json_fast(json: &str) -> Result<Self> {
        Self::from_json(json)
    }

    /// Serializes the device to compact ParchMint JSON.
    pub fn to_json(&self) -> Result<String> {
        Ok(serde_json::to_string(self)?)
    }

    /// Serializes the device to pretty-printed ParchMint JSON.
    pub fn to_json_pretty(&self) -> Result<String> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    // ---- lookups --------------------------------------------------------

    /// Looks up a layer by id.
    ///
    /// Linear scan — fine for one-off queries, but algorithm code doing
    /// repeated lookups should compile the device once into a
    /// [`CompiledDevice`](crate::CompiledDevice) and use its O(1) index.
    pub fn layer(&self, id: &str) -> Option<&Layer> {
        self.layers.iter().find(|l| l.id == *id)
    }

    /// Looks up a component by id.
    ///
    /// Linear scan — prefer [`CompiledDevice`](crate::CompiledDevice) for
    /// repeated lookups on hot paths.
    pub fn component(&self, id: &str) -> Option<&Component> {
        self.components.iter().find(|c| c.id == *id)
    }

    /// Looks up a connection by id.
    ///
    /// Linear scan — prefer [`CompiledDevice`](crate::CompiledDevice) for
    /// repeated lookups on hot paths.
    pub fn connection(&self, id: &str) -> Option<&Connection> {
        self.connections.iter().find(|c| c.id == *id)
    }

    /// Looks up a feature by id.
    ///
    /// Linear scan — prefer [`CompiledDevice`](crate::CompiledDevice) for
    /// repeated lookups on hot paths.
    pub fn feature(&self, id: &str) -> Option<&Feature> {
        self.features.iter().find(|f| f.id() == &FeatureId::new(id))
    }

    /// The placement feature for `component`, if the device is placed.
    ///
    /// Linear scan over features; [`CompiledDevice`](crate::CompiledDevice)
    /// pre-resolves placements for hot paths.
    pub fn placement_of(&self, component: &ComponentId) -> Option<&ComponentFeature> {
        self.features
            .iter()
            .filter_map(Feature::as_component)
            .find(|f| &f.component == component)
    }

    /// The route feature for `connection`, if the device is routed.
    pub fn route_of(&self, connection: &ConnectionId) -> Option<&ConnectionFeature> {
        self.features
            .iter()
            .filter_map(Feature::as_connection)
            .find(|f| &f.connection == connection)
    }

    /// The valve binding for a valve component, when one exists.
    pub fn valve_on(&self, component: &ComponentId) -> Option<&Valve> {
        self.valves.iter().find(|v| &v.component == component)
    }

    /// Valves pinching `connection`.
    pub fn valves_controlling<'a>(
        &'a self,
        connection: &'a ConnectionId,
    ) -> impl Iterator<Item = &'a Valve> {
        self.valves
            .iter()
            .filter(move |v| &v.controls == connection)
    }

    /// Resolves a connection terminal to the component and port it names.
    ///
    /// Terminals without an explicit port resolve to the component's sole
    /// port when it has exactly one, otherwise to no port.
    pub fn resolve_target(&self, target: &Target) -> Option<(&Component, Option<&Port>)> {
        let component = self.component(target.component.as_str())?;
        let port = match &target.port {
            Some(label) => component.port(label.as_str()),
            None if component.ports.len() == 1 => Some(&component.ports[0]),
            None => None,
        };
        Some((component, port))
    }

    /// Absolute position of a terminal, when the device is placed.
    ///
    /// Falls back to the placed component centre for port-less terminals.
    /// Resolves through the linear lookups above; routers and evaluators
    /// should use [`CompiledDevice::target_position`](crate::CompiledDevice)
    /// instead.
    pub fn target_position(&self, target: &Target) -> Option<Point> {
        let (component, port) = self.resolve_target(target)?;
        let placement = self.placement_of(&component.id)?;
        Some(match port {
            Some(p) => placement.location + p.offset(),
            None => placement.footprint().center(),
        })
    }

    // ---- iteration helpers ------------------------------------------------

    /// Iterates over components whose entity matches `entity`.
    pub fn components_of<'a>(&'a self, entity: &'a Entity) -> impl Iterator<Item = &'a Component> {
        self.components.iter().filter(move |c| &c.entity == entity)
    }

    /// Iterates over connections fabricated on `layer`.
    pub fn connections_on<'a>(
        &'a self,
        layer: &'a LayerId,
    ) -> impl Iterator<Item = &'a Connection> {
        self.connections.iter().filter(move |c| &c.layer == layer)
    }

    /// Iterates over the connections touching `component`.
    pub fn connections_touching<'a>(
        &'a self,
        component: &'a ComponentId,
    ) -> impl Iterator<Item = &'a Connection> {
        self.connections
            .iter()
            .filter(move |c| c.touches(component))
    }

    /// Total number of ports declared across all components.
    pub fn port_count(&self) -> usize {
        self.components.iter().map(|c| c.ports.len()).sum()
    }

    // ---- geometry ---------------------------------------------------------

    /// The declared die outline from `params` (`x-span` × `y-span`), if set.
    pub fn declared_bounds(&self) -> Option<Span> {
        let x = self.params.get_i64(keys::X_SPAN)?;
        let y = self.params.get_i64(keys::Y_SPAN)?;
        Some(Span::new(x, y))
    }

    /// Sets the declared die outline in `params`.
    pub fn set_declared_bounds(&mut self, span: Span) {
        self.params.set(keys::X_SPAN, span.x);
        self.params.set(keys::Y_SPAN, span.y);
    }

    /// Bounding box of all placed features, or `None` pre-layout.
    pub fn feature_bounds(&self) -> Option<Rect> {
        let mut acc: Option<Rect> = None;
        for feature in &self.features {
            let rect = match feature {
                Feature::Component(f) => Some(f.footprint()),
                Feature::Connection(f) => f.bounding_box(),
            };
            if let Some(r) = rect {
                acc = Some(match acc {
                    Some(a) => a.union(r),
                    None => r,
                });
            }
        }
        acc
    }

    /// True when every component has a placement feature.
    pub fn is_placed(&self) -> bool {
        !self.components.is_empty()
            && self
                .components
                .iter()
                .all(|c| self.placement_of(&c.id).is_some())
    }

    /// True when every connection has a route feature.
    pub fn is_routed(&self) -> bool {
        self.connections
            .iter()
            .all(|c| self.route_of(&c.id).is_some())
    }

    /// Removes all physical-design features, returning the netlist to its
    /// pre-layout state.
    pub fn strip_features(&mut self) {
        self.features.clear();
    }

    /// Raises `version` if the content present requires a newer revision
    /// (features need 1.1, valves need 1.2). Call after mutating a parsed
    /// device in place.
    pub fn bump_version_to_content(&mut self) {
        self.version = self.version.max(self.minimum_version());
    }

    /// The lowest format version able to represent this device's content.
    pub fn minimum_version(&self) -> Version {
        if !self.valves.is_empty() {
            Version::V1_2
        } else if !self.features.is_empty() {
            Version::V1_1
        } else {
            Version::V1_0
        }
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device `{}` (v{}): {} layers, {} components, {} connections, {} valves",
            self.name,
            self.version,
            self.layers.len(),
            self.components.len(),
            self.connections.len(),
            self.valves.len(),
        )
    }
}

// ---------------------------------------------------------------------------
// Wire representation
// ---------------------------------------------------------------------------

/// The on-the-wire JSON shape of a device.
///
/// Differs from [`Device`] in exactly one way: valve bindings are split into
/// the `valveMap` / `valveTypeMap` pair mandated by ParchMint 1.2.
#[derive(Serialize, Deserialize)]
struct DeviceRepr {
    name: String,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    version: Option<Version>,
    #[serde(default)]
    layers: Vec<Layer>,
    #[serde(default)]
    components: Vec<Component>,
    #[serde(default)]
    connections: Vec<Connection>,
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    features: Vec<Feature>,
    #[serde(
        rename = "valveMap",
        default,
        skip_serializing_if = "BTreeMap::is_empty"
    )]
    valve_map: BTreeMap<String, String>,
    #[serde(
        rename = "valveTypeMap",
        default,
        skip_serializing_if = "BTreeMap::is_empty"
    )]
    valve_type_map: BTreeMap<String, String>,
    #[serde(default, skip_serializing_if = "Params::is_empty")]
    params: Params,
}

impl From<Device> for DeviceRepr {
    fn from(device: Device) -> Self {
        let mut valve_map = BTreeMap::new();
        let mut valve_type_map = BTreeMap::new();
        for valve in &device.valves {
            valve_map.insert(valve.component.to_string(), valve.controls.to_string());
            valve_type_map.insert(
                valve.component.to_string(),
                valve.valve_type.name().to_owned(),
            );
        }
        DeviceRepr {
            name: device.name,
            version: Some(device.version),
            layers: device.layers,
            components: device.components,
            connections: device.connections,
            features: device.features,
            valve_map,
            valve_type_map,
            params: device.params,
        }
    }
}

impl TryFrom<DeviceRepr> for Device {
    type Error = Error;

    fn try_from(repr: DeviceRepr) -> Result<Self> {
        finish_device(RawDevice {
            name: repr.name,
            version: repr.version,
            layers: repr.layers,
            components: repr.components,
            connections: repr.connections,
            features: repr.features,
            valve_map: repr.valve_map,
            valve_type_map: repr.valve_type_map,
            params: repr.params,
        })
    }
}

/// Parsed-but-unvalidated device fields, shared between the `Value`
/// oracle ([`DeviceRepr`]) and the streaming reader behind
/// [`Device::from_json`] (`crate::ingest`): both funnel through
/// [`finish_device`] so valve-map resolution, version inference, and the
/// version/content checks — and their error messages — cannot drift
/// apart.
pub(crate) struct RawDevice {
    pub(crate) name: String,
    pub(crate) version: Option<Version>,
    pub(crate) layers: Vec<Layer>,
    pub(crate) components: Vec<Component>,
    pub(crate) connections: Vec<Connection>,
    pub(crate) features: Vec<Feature>,
    pub(crate) valve_map: BTreeMap<String, String>,
    pub(crate) valve_type_map: BTreeMap<String, String>,
    pub(crate) params: Params,
}

/// Resolves valve maps, infers/validates the version, and assembles the
/// final [`Device`].
pub(crate) fn finish_device(raw: RawDevice) -> Result<Device> {
    let mut valves = Vec::with_capacity(raw.valve_map.len());
    for (component, controls) in &raw.valve_map {
        let valve_type = match raw.valve_type_map.get(component) {
            Some(s) => s
                .parse::<ValveType>()
                .map_err(|e| Error::invalid_model(format!("valve `{component}`: {e}")))?,
            None => ValveType::default(),
        };
        valves.push(Valve::new(
            component.as_str(),
            controls.as_str(),
            valve_type,
        ));
    }
    for orphan in raw.valve_type_map.keys() {
        if !raw.valve_map.contains_key(orphan) {
            return Err(Error::invalid_model(format!(
                "valveTypeMap entry `{orphan}` has no valveMap partner"
            )));
        }
    }

    let inferred = if !valves.is_empty() {
        Version::V1_2
    } else if !raw.features.is_empty() {
        Version::V1_1
    } else {
        Version::V1_0
    };
    let version = raw.version.unwrap_or(inferred);
    if version < Version::V1_1 && !raw.features.is_empty() {
        return Err(Error::invalid_model(format!(
            "version {version} does not support features (requires >= 1.1)"
        )));
    }
    if version < Version::V1_2 && !valves.is_empty() {
        return Err(Error::invalid_model(format!(
            "version {version} does not support valve maps (requires >= 1.2)"
        )));
    }

    Ok(Device {
        name: raw.name,
        version,
        layers: raw.layers,
        components: raw.components,
        connections: raw.connections,
        features: raw.features,
        valves,
        params: raw.params,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerType;

    fn two_component_device() -> Device {
        let mut d = Device::new("dev");
        d.layers.push(Layer::new("f0", "flow", LayerType::Flow));
        d.components.push(
            Component::new("a", "inlet", Entity::Port, ["f0"], Span::square(200))
                .with_port(Port::new("p", "f0", 200, 100)),
        );
        d.components.push(
            Component::new("b", "mixer", Entity::Mixer, ["f0"], Span::new(1000, 500))
                .with_port(Port::new("in", "f0", 0, 250))
                .with_port(Port::new("out", "f0", 1000, 250)),
        );
        d.connections.push(Connection::new(
            "ch1",
            "a_to_b",
            "f0",
            Target::new("a", "p"),
            [Target::new("b", "in")],
        ));
        d.set_declared_bounds(Span::new(10_000, 5_000));
        d
    }

    #[test]
    fn lookups() {
        let d = two_component_device();
        assert!(d.layer("f0").is_some());
        assert!(d.layer("zz").is_none());
        assert_eq!(d.component("b").unwrap().ports.len(), 2);
        assert_eq!(d.connection("ch1").unwrap().name, "a_to_b");
        assert_eq!(d.port_count(), 3);
    }

    #[test]
    fn resolve_target_explicit_and_implicit() {
        let d = two_component_device();
        let (c, p) = d.resolve_target(&Target::new("b", "out")).unwrap();
        assert_eq!(c.id, "b");
        assert_eq!(p.unwrap().label, "out");

        // Component-only terminal on a single-port component resolves.
        let (c, p) = d.resolve_target(&Target::component_only("a")).unwrap();
        assert_eq!(c.id, "a");
        assert_eq!(p.unwrap().label, "p");

        // Component-only terminal on a multi-port component gives no port.
        let (_, p) = d.resolve_target(&Target::component_only("b")).unwrap();
        assert!(p.is_none());

        assert!(d.resolve_target(&Target::new("zz", "p")).is_none());
    }

    #[test]
    fn placement_route_and_positions() {
        let mut d = two_component_device();
        assert!(!d.is_placed());
        d.features.push(
            ComponentFeature::new("pf_a", "a", "f0", Point::new(0, 0), Span::square(200), 50)
                .into(),
        );
        d.features.push(
            ComponentFeature::new(
                "pf_b",
                "b",
                "f0",
                Point::new(1000, 0),
                Span::new(1000, 500),
                50,
            )
            .into(),
        );
        d.features.push(
            ConnectionFeature::new(
                "rf_1",
                "ch1",
                "f0",
                400,
                50,
                [Point::new(200, 100), Point::new(1000, 100)],
            )
            .into(),
        );
        assert!(d.is_placed());
        assert!(d.is_routed());
        assert_eq!(
            d.target_position(&Target::new("b", "in")).unwrap(),
            Point::new(1000, 250)
        );
        assert_eq!(
            d.target_position(&Target::component_only("b")).unwrap(),
            Point::new(1500, 250),
            "port-less terminal falls back to placed centre"
        );
        assert!(d.placement_of(&"a".into()).is_some());
        assert!(d.route_of(&"ch1".into()).is_some());
        let fb = d.feature_bounds().unwrap();
        assert_eq!(fb.min, Point::new(0, 0));
        assert_eq!(fb.max(), Point::new(2000, 500));

        d.strip_features();
        assert!(d.features.is_empty());
        assert!(!d.is_placed());
    }

    #[test]
    fn empty_device_is_not_placed_and_vacuously_routed() {
        let d = Device::new("empty");
        assert!(!d.is_placed());
        assert!(d.is_routed(), "no connections means routing is complete");
        assert!(d.feature_bounds().is_none());
    }

    #[test]
    fn declared_bounds_round_trip() {
        let mut d = Device::new("x");
        assert!(d.declared_bounds().is_none());
        d.set_declared_bounds(Span::new(123, 456));
        assert_eq!(d.declared_bounds(), Some(Span::new(123, 456)));
    }

    #[test]
    fn valve_maps_round_trip() {
        let mut d = two_component_device();
        d.components.push(Component::new(
            "v1",
            "valve",
            Entity::Valve,
            ["f0"],
            Span::square(300),
        ));
        d.valves
            .push(Valve::new("v1", "ch1", ValveType::NormallyClosed));

        let json = d.to_json().unwrap();
        assert!(json.contains(r#""valveMap":{"v1":"ch1"}"#), "json: {json}");
        assert!(json.contains(r#""valveTypeMap":{"v1":"NORMALLY_CLOSED"}"#));
        let back = Device::from_json(&json).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.valve_on(&"v1".into()).unwrap().controls, "ch1");
        assert_eq!(back.valves_controlling(&"ch1".into()).count(), 1);
    }

    #[test]
    fn missing_valve_type_defaults_to_normally_open() {
        let json = r#"{
            "name": "d", "layers": [], "components": [], "connections": [],
            "valveMap": {"v1": "ch1"}
        }"#;
        let d = Device::from_json(json).unwrap();
        assert_eq!(d.valves[0].valve_type, ValveType::NormallyOpen);
        assert_eq!(d.version, Version::V1_2, "valves imply 1.2");
    }

    #[test]
    fn orphan_valve_type_map_entry_rejected() {
        let json = r#"{
            "name": "d", "layers": [], "components": [], "connections": [],
            "valveMap": {"v1": "ch1"},
            "valveTypeMap": {"v2": "NORMALLY_OPEN"}
        }"#;
        let err = Device::from_json(json).unwrap_err();
        assert!(err.to_string().contains("v2"));
    }

    #[test]
    fn bad_valve_type_rejected() {
        let json = r#"{
            "name": "d",
            "valveMap": {"v1": "ch1"},
            "valveTypeMap": {"v1": "AJAR"}
        }"#;
        let err = Device::from_json(json).unwrap_err();
        assert!(err.to_string().contains("AJAR"));
    }

    #[test]
    fn version_inference_without_explicit_field() {
        let d = Device::from_json(r#"{"name": "d"}"#).unwrap();
        assert_eq!(d.version, Version::V1_0);
    }

    #[test]
    fn declared_version_too_low_for_features_rejected() {
        let json = r#"{
            "name": "d", "version": "1.0",
            "features": [{"type": "connection", "id": "f", "name": "n",
                          "connection": "c", "layer": "l", "width": 1, "depth": 1,
                          "waypoints": []}]
        }"#;
        let err = Device::from_json(json).unwrap_err();
        assert!(err.to_string().contains("1.0"));
    }

    #[test]
    fn declared_version_too_low_for_valves_rejected() {
        let json = r#"{"name": "d", "version": "1.1", "valveMap": {"v": "c"}}"#;
        assert!(Device::from_json(json).is_err());
    }

    #[test]
    fn minimum_version_tracks_content() {
        let mut d = two_component_device();
        assert_eq!(d.minimum_version(), Version::V1_0);
        d.features
            .push(ComponentFeature::new("f", "a", "f0", Point::ORIGIN, Span::square(1), 1).into());
        assert_eq!(d.minimum_version(), Version::V1_1);
        d.valves
            .push(Valve::new("v", "ch1", ValveType::NormallyOpen));
        assert_eq!(d.minimum_version(), Version::V1_2);
    }

    #[test]
    fn filters() {
        let d = two_component_device();
        assert_eq!(d.components_of(&Entity::Mixer).count(), 1);
        assert_eq!(d.components_of(&Entity::Valve).count(), 0);
        assert_eq!(d.connections_on(&"f0".into()).count(), 1);
        assert_eq!(d.connections_on(&"c0".into()).count(), 0);
        assert_eq!(d.connections_touching(&"a".into()).count(), 1);
        assert_eq!(d.connections_touching(&"zz".into()).count(), 0);
    }

    #[test]
    fn display_summary() {
        let d = two_component_device();
        assert_eq!(
            d.to_string(),
            "device `dev` (v1.2): 1 layers, 2 components, 1 connections, 0 valves"
        );
    }

    #[test]
    fn pretty_json_parses_back() {
        let d = two_component_device();
        let pretty = d.to_json_pretty().unwrap();
        assert!(pretty.contains('\n'));
        assert_eq!(Device::from_json(&pretty).unwrap(), d);
    }
}
