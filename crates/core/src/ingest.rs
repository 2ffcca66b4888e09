//! Streaming zero-copy device ingest — the engine behind
//! [`Device::from_json`](crate::Device::from_json).
//!
//! The derived `Deserialize` impl (reached as
//! `serde_json::from_str::<Device>`) parses the document into a
//! `serde_json::Value` tree, converts that tree into `serde::Fragment`s,
//! and only then drives the derived deserializers — every key and string
//! is allocated and copied at least twice before the model sees it. At
//! FPVA scale (10k–100k components) that intermediate materialization
//! dominates ingest, so it is kept only as the test oracle.
//!
//! This module instead drives the model constructors directly from
//! [`serde_json::EventReader`]'s borrowed pull events: one pass over the
//! input, keys matched as `&str` slices of the document, strings copied
//! exactly once into their final field. Both paths funnel into the same
//! [`finish_device`](crate::device::finish_device) finalization, so
//! valve-map resolution, version inference, and their error messages are
//! shared by construction.
//!
//! ## Agreement with the `Value` oracle
//!
//! For every document the oracle accepts with well-formed field
//! occurrences, this reader produces an identical [`Device`] (pinned by a
//! proptest over generated devices and randomized JSON formatting, and by
//! a tier-1 test over the suite and the FPVA tiers). Matching behaviors
//! worth calling out:
//!
//! - unknown object keys are skipped, as the derived deserializers do;
//! - duplicate keys keep the last occurrence (the oracle collapses them
//!   in its map before deserializing);
//! - integral finite floats coerce into integer fields (`1.0` parses
//!   into an `i64` coordinate), exactly like the vendored serde's
//!   `Fragment::F64` rule;
//! - layer `type` is an exact uppercase match, mirroring the derived
//!   `LayerType` wire enum rather than the lenient `FromStr`;
//! - a feature object's variant-specific fields are buffered untyped
//!   until the `type` tag is known, so fields the chosen variant ignores
//!   are never type-checked — again matching the derived tagged enum.
//!
//! The one difference: when a key occurs twice and only the *earlier*
//! occurrence is malformed (`{"name": 5, "name": "d"}`), the oracle
//! masks it (last occurrence wins before any typing happens) and accepts
//! the document, while this single-pass reader rejects it with the error
//! it streams past first. Among other rejected documents the two may
//! differ in *which* error is reported.

use crate::component::{Component, Port};
use crate::connection::{Connection, Target};
use crate::device::{finish_device, Device, RawDevice};
use crate::entity::Entity;
use crate::error::{Error, Result};
use crate::feature::{ComponentFeature, ConnectionFeature, Feature};
use crate::geometry::{Point, Span};
use crate::layer::{Layer, LayerType};
use crate::params::Params;
use crate::version::Version;
use serde_json::{Event, EventReader, Number, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// Parses a full device document; the engine behind
/// [`Device::from_json`](crate::Device::from_json).
pub(crate) fn device_from_str(json: &str) -> Result<Device> {
    let mut ingest = Ingest {
        reader: EventReader::new(json),
    };
    let device = ingest.read_device()?;
    // One trailing call arms the reader's trailing-content check, so
    // `{"name":"d"} junk` fails here exactly like the tree parser.
    match ingest.reader.next_event() {
        Ok(None) => Ok(device),
        Ok(Some(_)) => Err(data_error("trailing characters")),
        Err(e) => Err(e.into()),
    }
}

/// A data (non-syntax) error, reported through the same
/// [`enum@Error`] variant the `Value` oracle uses for shape mismatches.
fn data_error(message: impl fmt::Display) -> Error {
    <serde_json::Error as serde::de::Error>::custom(message).into()
}

fn missing(field: &str, object: &str) -> Error {
    data_error(format!("missing field `{field}` in `{object}`"))
}

fn required<T>(slot: Option<T>, field: &str, object: &str) -> Result<T> {
    slot.ok_or_else(|| missing(field, object))
}

/// The vendored serde's integer rule: any in-range integer repr, or a
/// finite float with no fractional part (saturating on overflow, like
/// `Fragment::F64(v) => v as i64`).
fn number_to_i64(number: &Number, what: &str) -> Result<i64> {
    if let Some(i) = number.as_i64() {
        return Ok(i);
    }
    if number.is_f64() {
        let f = number.as_f64().expect("f64 repr");
        if f.is_finite() && f.fract() == 0.0 {
            return Ok(f as i64);
        }
        return Err(data_error(format!(
            "{what}: invalid type: expected an integer, found a floating-point number"
        )));
    }
    Err(data_error(format!("{what}: integer out of range for i64")))
}

/// Converts an already-buffered [`Value`] with the same integer rule.
fn value_to_i64(value: &Value, what: &str) -> Result<i64> {
    match value {
        Value::Number(n) => number_to_i64(n, what),
        other => Err(type_mismatch(what, "an integer", other)),
    }
}

fn value_to_string(value: Value, what: &str) -> Result<String> {
    match value {
        Value::String(s) => Ok(s),
        other => Err(type_mismatch(what, "a string", &other)),
    }
}

fn value_to_point(value: &Value, what: &str) -> Result<Point> {
    let Value::Object(map) = value else {
        return Err(type_mismatch(what, "a map", value));
    };
    let x = map
        .get("x")
        .ok_or_else(|| missing("x", what))
        .and_then(|v| value_to_i64(v, what))?;
    let y = map
        .get("y")
        .ok_or_else(|| missing("y", what))
        .and_then(|v| value_to_i64(v, what))?;
    Ok(Point { x, y })
}

fn value_to_points(value: &Value, what: &str) -> Result<Vec<Point>> {
    let Value::Array(items) = value else {
        return Err(type_mismatch(what, "a sequence", value));
    };
    items.iter().map(|v| value_to_point(v, what)).collect()
}

fn type_mismatch(what: &str, expected: &str, found: &Value) -> Error {
    let kind = match found {
        Value::Null => "null",
        Value::Bool(_) => "a boolean",
        Value::Number(n) if n.is_f64() => "a floating-point number",
        Value::Number(_) => "an integer",
        Value::String(_) => "a string",
        Value::Array(_) => "a sequence",
        Value::Object(_) => "a map",
    };
    data_error(format!(
        "{what}: invalid type: expected {expected}, found {kind}"
    ))
}

/// The streaming parser. Object-body readers follow one convention:
/// they are entered with the opening `{` already consumed and they
/// consume through the matching `}`.
struct Ingest<'a> {
    reader: EventReader<'a>,
}

impl<'a> Ingest<'a> {
    /// The next event; EOF here is always premature.
    fn next(&mut self) -> Result<Event<'a>> {
        self.reader
            .next_event()?
            .ok_or_else(|| data_error("unexpected end of document"))
    }

    /// Consumes the opening `{` of `what`.
    fn enter_object(&mut self, what: &str) -> Result<()> {
        match self.next()? {
            Event::StartObject => Ok(()),
            other => Err(event_mismatch(what, "a map", &other)),
        }
    }

    /// The next key in the current object, or `None` at its `}`.
    fn next_key(&mut self) -> Result<Option<Cow<'a, str>>> {
        match self.next()? {
            Event::Key(key) => Ok(Some(key)),
            Event::EndObject => Ok(None),
            // The reader's own state machine makes anything else
            // impossible inside an object body.
            other => Err(event_mismatch("object", "a key", &other)),
        }
    }

    fn skip(&mut self) -> Result<()> {
        Ok(self.reader.skip_value()?)
    }

    fn read_string(&mut self, what: &str) -> Result<String> {
        match self.next()? {
            Event::String(s) => Ok(s.into_owned()),
            other => Err(event_mismatch(what, "a string", &other)),
        }
    }

    /// A string or `null` (for optional fields like a target's port).
    fn read_opt_string(&mut self, what: &str) -> Result<Option<String>> {
        match self.next()? {
            Event::Null => Ok(None),
            Event::String(s) => Ok(Some(s.into_owned())),
            other => Err(event_mismatch(what, "a string", &other)),
        }
    }

    fn read_i64(&mut self, what: &str) -> Result<i64> {
        match self.next()? {
            Event::Number(n) => number_to_i64(&n, what),
            other => Err(event_mismatch(what, "an integer", &other)),
        }
    }

    /// `[ "id", ... ]` into id newtypes.
    fn read_id_array<T: From<String>>(&mut self, what: &str) -> Result<Vec<T>> {
        match self.next()? {
            Event::StartArray => {}
            other => return Err(event_mismatch(what, "a sequence", &other)),
        }
        let mut out = Vec::new();
        loop {
            match self.next()? {
                Event::EndArray => return Ok(out),
                Event::String(s) => out.push(T::from(s.into_owned())),
                other => return Err(event_mismatch(what, "a string", &other)),
            }
        }
    }

    /// An array of objects, with `body` parsing each element from
    /// inside its braces.
    fn read_object_array<T>(
        &mut self,
        what: &str,
        mut body: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        match self.next()? {
            Event::StartArray => {}
            other => return Err(event_mismatch(what, "a sequence", &other)),
        }
        let mut out = Vec::new();
        loop {
            match self.next()? {
                Event::EndArray => return Ok(out),
                Event::StartObject => out.push(body(self)?),
                other => return Err(event_mismatch(what, "a map", &other)),
            }
        }
    }

    /// An open `{String: String}` map (valveMap / valveTypeMap);
    /// duplicate keys keep the last occurrence, like the oracle's
    /// key-sorted map.
    fn read_string_map(&mut self, what: &str) -> Result<BTreeMap<String, String>> {
        self.enter_object(what)?;
        let mut out = BTreeMap::new();
        while let Some(key) = self.next_key()? {
            let value = self.read_string(what)?;
            out.insert(key.into_owned(), value);
        }
        Ok(out)
    }

    /// An open parameter bag: values land as owned [`Value`]s, exactly
    /// as the oracle stores them.
    fn read_params(&mut self, what: &str) -> Result<Params> {
        self.enter_object(what)?;
        let mut params = Params::new();
        while let Some(key) = self.next_key()? {
            let value = self.reader.read_value()?;
            params.set(key.into_owned(), value);
        }
        Ok(params)
    }

    // ---- model objects ----------------------------------------------------

    fn read_device(&mut self) -> Result<Device> {
        self.enter_object("device")?;
        let mut name = None;
        let mut version: Option<Version> = None;
        let mut layers = Vec::new();
        let mut components = Vec::new();
        let mut connections = Vec::new();
        let mut features = Vec::new();
        let mut valve_map = BTreeMap::new();
        let mut valve_type_map = BTreeMap::new();
        let mut params = Params::new();
        while let Some(key) = self.next_key()? {
            match key.as_ref() {
                "name" => name = Some(self.read_string("device name")?),
                "version" => {
                    version = match self.read_opt_string("device version")? {
                        Some(s) => Some(
                            s.parse::<Version>()
                                .map_err(|e| data_error(format!("device version: {e}")))?,
                        ),
                        None => None,
                    }
                }
                "layers" => layers = self.read_object_array("layers", Self::read_layer_body)?,
                "components" => {
                    components = self.read_object_array("components", Self::read_component_body)?
                }
                "connections" => {
                    connections =
                        self.read_object_array("connections", Self::read_connection_body)?
                }
                "features" => {
                    features = self.read_object_array("features", Self::read_feature_body)?
                }
                "valveMap" => valve_map = self.read_string_map("valveMap")?,
                "valveTypeMap" => valve_type_map = self.read_string_map("valveTypeMap")?,
                "params" => params = self.read_params("device params")?,
                _ => self.skip()?,
            }
        }
        finish_device(RawDevice {
            name: required(name, "name", "device")?,
            version,
            layers,
            components,
            connections,
            features,
            valve_map,
            valve_type_map,
            params,
        })
    }

    fn read_layer_body(&mut self) -> Result<Layer> {
        let mut id = None;
        let mut name = None;
        let mut layer_type = None;
        let mut params = Params::new();
        while let Some(key) = self.next_key()? {
            match key.as_ref() {
                "id" => id = Some(self.read_string("layer id")?),
                "name" => name = Some(self.read_string("layer name")?),
                "type" => {
                    let text = self.read_string("layer type")?;
                    // Exact uppercase match: the wire enum, not the
                    // lenient `FromStr`.
                    layer_type = Some(match text.as_str() {
                        "FLOW" => LayerType::Flow,
                        "CONTROL" => LayerType::Control,
                        "INTEGRATION" => LayerType::Integration,
                        other => {
                            return Err(data_error(format!(
                                "unknown variant `{other}` for `LayerType`, \
                                 expected one of: FLOW, CONTROL, INTEGRATION"
                            )))
                        }
                    });
                }
                "params" => params = self.read_params("layer params")?,
                _ => self.skip()?,
            }
        }
        Ok(Layer {
            id: required(id, "id", "layer")?.into(),
            name: required(name, "name", "layer")?,
            layer_type: required(layer_type, "type", "layer")?,
            params,
        })
    }

    fn read_component_body(&mut self) -> Result<Component> {
        let mut id = None;
        let mut name = None;
        let mut entity = None;
        let mut layers = None;
        let mut x_span = None;
        let mut y_span = None;
        let mut ports = Vec::new();
        let mut params = Params::new();
        while let Some(key) = self.next_key()? {
            match key.as_ref() {
                "id" => id = Some(self.read_string("component id")?),
                "name" => name = Some(self.read_string("component name")?),
                "entity" => {
                    let text = self.read_string("component entity")?;
                    entity = Some(
                        text.parse::<Entity>()
                            .map_err(|e| data_error(format!("component entity: {e}")))?,
                    );
                }
                "layers" => layers = Some(self.read_id_array("component layers")?),
                "x-span" => x_span = Some(self.read_i64("component x-span")?),
                "y-span" => y_span = Some(self.read_i64("component y-span")?),
                "ports" => ports = self.read_object_array("ports", Self::read_port_body)?,
                "params" => params = self.read_params("component params")?,
                _ => self.skip()?,
            }
        }
        Ok(Component {
            id: required(id, "id", "component")?.into(),
            name: required(name, "name", "component")?,
            entity: required(entity, "entity", "component")?,
            layers: required(layers, "layers", "component")?,
            // Struct literal, not `Span::new`: wire spans are taken
            // verbatim (no clamping), matching the derived flatten path.
            span: Span {
                x: required(x_span, "x-span", "component")?,
                y: required(y_span, "y-span", "component")?,
            },
            ports,
            params,
        })
    }

    fn read_port_body(&mut self) -> Result<Port> {
        let mut label = None;
        let mut layer = None;
        let mut x = None;
        let mut y = None;
        while let Some(key) = self.next_key()? {
            match key.as_ref() {
                "label" => label = Some(self.read_string("port label")?),
                "layer" => layer = Some(self.read_string("port layer")?),
                "x" => x = Some(self.read_i64("port x")?),
                "y" => y = Some(self.read_i64("port y")?),
                _ => self.skip()?,
            }
        }
        Ok(Port {
            label: required(label, "label", "port")?.into(),
            layer: required(layer, "layer", "port")?.into(),
            x: required(x, "x", "port")?,
            y: required(y, "y", "port")?,
        })
    }

    fn read_connection_body(&mut self) -> Result<Connection> {
        let mut id = None;
        let mut name = None;
        let mut layer = None;
        let mut source = None;
        let mut sinks = None;
        let mut params = Params::new();
        while let Some(key) = self.next_key()? {
            match key.as_ref() {
                "id" => id = Some(self.read_string("connection id")?),
                "name" => name = Some(self.read_string("connection name")?),
                "layer" => layer = Some(self.read_string("connection layer")?),
                "source" => {
                    self.enter_object("connection source")?;
                    source = Some(self.read_target_body()?);
                }
                "sinks" => sinks = Some(self.read_object_array("sinks", Self::read_target_body)?),
                "params" => params = self.read_params("connection params")?,
                _ => self.skip()?,
            }
        }
        Ok(Connection {
            id: required(id, "id", "connection")?.into(),
            name: required(name, "name", "connection")?,
            layer: required(layer, "layer", "connection")?.into(),
            source: required(source, "source", "connection")?,
            sinks: required(sinks, "sinks", "connection")?,
            params,
        })
    }

    fn read_target_body(&mut self) -> Result<Target> {
        let mut component = None;
        let mut port = None;
        while let Some(key) = self.next_key()? {
            match key.as_ref() {
                "component" => component = Some(self.read_string("target component")?),
                "port" => port = self.read_opt_string("target port")?,
                _ => self.skip()?,
            }
        }
        Ok(Target {
            component: required(component, "component", "target")?.into(),
            port: port.map(Into::into),
        })
    }

    /// A feature object: the `type` tag may appear anywhere, so
    /// variant-specific fields are buffered untyped and only the chosen
    /// variant's fields are converted — fields belonging to the *other*
    /// variant stay untyped and are dropped, exactly as the derived
    /// tagged enum ignores unknown fields.
    fn read_feature_body(&mut self) -> Result<Feature> {
        let mut tag = None;
        let mut id = None;
        let mut name = None;
        let mut layer = None;
        let mut depth = None;
        let mut variant: BTreeMap<&'static str, Value> = BTreeMap::new();
        while let Some(key) = self.next_key()? {
            match key.as_ref() {
                "type" => tag = Some(self.read_string("feature type")?),
                "id" => id = Some(self.read_string("feature id")?),
                "name" => name = Some(self.read_string("feature name")?),
                "layer" => layer = Some(self.read_string("feature layer")?),
                "depth" => depth = Some(self.read_i64("feature depth")?),
                "component" => {
                    variant.insert("component", self.reader.read_value()?);
                }
                "location" => {
                    variant.insert("location", self.reader.read_value()?);
                }
                "x-span" => {
                    variant.insert("x-span", self.reader.read_value()?);
                }
                "y-span" => {
                    variant.insert("y-span", self.reader.read_value()?);
                }
                "connection" => {
                    variant.insert("connection", self.reader.read_value()?);
                }
                "width" => {
                    variant.insert("width", self.reader.read_value()?);
                }
                "waypoints" => {
                    variant.insert("waypoints", self.reader.read_value()?);
                }
                _ => self.skip()?,
            }
        }
        let tag = tag.ok_or_else(|| data_error("missing tag `type` for enum `Feature`"))?;
        let id = required(id, "id", "feature")?.into();
        let name = required(name, "name", "feature")?;
        let layer = required(layer, "layer", "feature")?.into();
        let depth = required(depth, "depth", "feature")?;
        let mut take = |field: &str| -> Result<Value> {
            variant
                .remove(field)
                .ok_or_else(|| missing(field, "feature"))
        };
        match tag.as_str() {
            "component" => Ok(Feature::Component(ComponentFeature {
                id,
                name,
                component: value_to_string(take("component")?, "feature component")?.into(),
                layer,
                location: value_to_point(&take("location")?, "feature location")?,
                span: Span {
                    x: value_to_i64(&take("x-span")?, "feature x-span")?,
                    y: value_to_i64(&take("y-span")?, "feature y-span")?,
                },
                depth,
            })),
            "connection" => Ok(Feature::Connection(ConnectionFeature {
                id,
                name,
                connection: value_to_string(take("connection")?, "feature connection")?.into(),
                layer,
                width: value_to_i64(&take("width")?, "feature width")?,
                depth,
                waypoints: value_to_points(&take("waypoints")?, "feature waypoints")?,
            })),
            other => Err(data_error(format!(
                "unknown `type` value `{other}` for `Feature`"
            ))),
        }
    }
}

fn event_mismatch(what: &str, expected: &str, found: &Event<'_>) -> Error {
    let kind = match found {
        Event::Null => "null",
        Event::Bool(_) => "a boolean",
        Event::Number(n) if n.is_f64() => "a floating-point number",
        Event::Number(_) => "an integer",
        Event::String(_) | Event::Key(_) => "a string",
        Event::StartArray | Event::EndArray => "a sequence",
        Event::StartObject | Event::EndObject => "a map",
    };
    data_error(format!(
        "{what}: invalid type: expected {expected}, found {kind}"
    ))
}

#[cfg(test)]
mod tests {
    use crate::Device;

    /// The `Value` tree path behind the derived `Deserialize` impl.
    fn oracle(json: &str) -> serde_json::Result<Device> {
        serde_json::from_str(json)
    }

    /// Both readers over the same text; `from_json` must reproduce the
    /// oracle's parse exactly.
    fn assert_equivalent(json: &str) {
        let reference = oracle(json).expect("oracle accepts");
        let parsed = Device::from_json(json).expect("from_json accepts");
        assert_eq!(parsed, reference);
        // Byte-level check through the canonical serializer.
        assert_eq!(
            parsed.to_json().unwrap(),
            reference.to_json().unwrap(),
            "canonical JSON differs"
        );
    }

    #[test]
    fn kitchen_sink_device_matches_reference() {
        assert_equivalent(
            r#"{
                "name": "sink",
                "version": "1.2",
                "layers": [
                    {"id": "f0", "name": "flow", "type": "FLOW"},
                    {"id": "c0", "name": "ctl", "type": "CONTROL",
                     "params": {"depth": 20}}
                ],
                "components": [
                    {"id": "a", "name": "inlet", "entity": "PORT",
                     "layers": ["f0"], "x-span": 200, "y-span": 200,
                     "ports": [{"label": "p", "layer": "f0", "x": 200, "y": 100}]},
                    {"id": "v1", "name": "valve", "entity": "VALVE",
                     "layers": ["c0"], "x-span": 300, "y-span": 300,
                     "params": {"bias": "closed", "nested": {"k": [1, 2]}}}
                ],
                "connections": [
                    {"id": "ch1", "name": "a_to_v", "layer": "f0",
                     "source": {"component": "a", "port": "p"},
                     "sinks": [{"component": "v1"}],
                     "params": {"channelWidth": 400}}
                ],
                "features": [
                    {"type": "component", "id": "pf", "name": "place_a",
                     "component": "a", "layer": "f0",
                     "location": {"x": 10, "y": 20},
                     "x-span": 200, "y-span": 200, "depth": 50},
                    {"type": "connection", "id": "rf", "name": "route_ch1",
                     "connection": "ch1", "layer": "f0", "width": 400,
                     "depth": 50,
                     "waypoints": [{"x": 0, "y": 0}, {"x": 5, "y": 5}]}
                ],
                "valveMap": {"v1": "ch1"},
                "valveTypeMap": {"v1": "NORMALLY_CLOSED"},
                "params": {"x-span": 10000, "y-span": 5000}
            }"#,
        );
    }

    #[test]
    fn minimal_and_defaulted_fields_match() {
        assert_equivalent(r#"{"name": "d"}"#);
        assert_equivalent(r#"{"name": "d", "layers": [], "components": []}"#);
        assert_equivalent(r#"{"name": "d", "valveMap": {"v": "c"}}"#);
    }

    #[test]
    fn unknown_keys_and_duplicates_match() {
        // Unknown keys skipped at every level; duplicate keys keep the
        // last occurrence, matching the oracle's map collapse.
        assert_equivalent(
            r#"{
                "name": "first", "name": "second",
                "futureExtension": {"deep": [1, {"x": null}]},
                "layers": [
                    {"id": "f0", "name": "flow", "type": "FLOW",
                     "vendorNote": "ignored", "name": "flow2"}
                ]
            }"#,
        );
    }

    #[test]
    fn integral_floats_coerce_into_integer_fields() {
        // The vendored serde admits 1.0 into i64 fields; `from_json`
        // must do the same.
        assert_equivalent(
            r#"{
                "name": "d",
                "components": [
                    {"id": "a", "name": "n", "entity": "PORT",
                     "layers": ["f0"], "x-span": 200.0, "y-span": 2e2,
                     "ports": [{"label": "p", "layer": "f0", "x": 1.0, "y": 0.0}]}
                ]
            }"#,
        );
    }

    #[test]
    fn escaped_strings_and_unicode_match() {
        assert_equivalent(r#"{"name": "dev é\n\"quoted\"", "params": {"note": "tab\there"}}"#);
    }

    #[test]
    fn both_paths_reject_the_same_documents() {
        for bad in [
            "",
            "[]",
            r#"{"name": 5}"#,
            r#"{}"#,
            r#"{"name": "d", "layers": [{"id": "f0", "name": "f", "type": "flow"}]}"#,
            r#"{"name": "d", "version": "2.0"}"#,
            r#"{"name": "d", "version": "1.0", "valveMap": {"v": "c"}}"#,
            r#"{"name": "d", "valveTypeMap": {"v": "NORMALLY_OPEN"}}"#,
            r#"{"name": "d", "valveMap": {"v": "c"}, "valveTypeMap": {"v": "AJAR"}}"#,
            r#"{"name": "d"} trailing"#,
            r#"{"name": "d", "components": [{"id": "a"}]}"#,
            r#"{"name": "d", "features": [{"id": "f", "name": "n", "layer": "l", "depth": 1}]}"#,
        ] {
            assert!(oracle(bad).is_err(), "oracle accepts {bad:?}");
            assert!(Device::from_json(bad).is_err(), "from_json accepts {bad:?}");
        }
    }

    #[test]
    fn a_malformed_earlier_duplicate_is_rejected_only_by_from_json() {
        // The oracle collapses duplicate keys before typing, so a bad
        // earlier occurrence never reaches a type check; the single-pass
        // reader types each occurrence as it streams past.
        for (doc, error) in [
            (
                r#"{"name": 5, "name": "d"}"#,
                "device name: invalid type: expected a string, found an integer",
            ),
            (
                r#"{"name":"d","layers":7,"layers":[]}"#,
                "layers: invalid type: expected a sequence, found an integer",
            ),
            (
                r#"{"name":"d","version":"9.9","version":"1.0"}"#,
                "device version: unknown ParchMint version `9.9`",
            ),
        ] {
            assert!(oracle(doc).is_ok(), "oracle rejects {doc:?}");
            let message = Device::from_json(doc).expect_err(doc).to_string();
            assert!(message.contains(error), "{doc:?}: {message}");
        }
    }

    #[test]
    fn fast_path_round_trips_builder_output() {
        let device = crate::Device::builder("rt")
            .layer(crate::Layer::new("f0", "flow", crate::LayerType::Flow))
            .build()
            .unwrap();
        let json = device.to_json_pretty().unwrap();
        assert_eq!(Device::from_json(&json).unwrap(), device);
    }
}
