//! Open key/value parameter bags.
//!
//! Every ParchMint object may carry a `params` object holding
//! manufacturer- or tool-specific values (channel widths, mixer turn counts,
//! chamber depths, …). The format deliberately leaves this object open;
//! [`Params`] models it as an ordered JSON map with typed accessors for the
//! conventional keys.

use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::fmt;

/// Conventional parameter keys used across the benchmark suite.
pub mod keys {
    /// Device/component extent along x, in µm.
    pub const X_SPAN: &str = "x-span";
    /// Device/component extent along y, in µm.
    pub const Y_SPAN: &str = "y-span";
    /// Channel or feature width, in µm.
    pub const WIDTH: &str = "width";
    /// Channel or feature depth (etch/mold depth), in µm.
    pub const DEPTH: &str = "depth";
    /// Absolute x position, in µm.
    pub const POSITION_X: &str = "position-x";
    /// Absolute y position, in µm.
    pub const POSITION_Y: &str = "position-y";
    /// Number of serpentine bends in a mixer.
    pub const NUM_BENDS: &str = "numBends";
    /// Rotary mixer radius, in µm.
    pub const RADIUS: &str = "radius";
    /// Number of chamber/trap repetitions.
    pub const CHAMBER_COUNT: &str = "chamberCount";
    /// Tree fan-out (leaves).
    pub const LEAVES: &str = "leaves";
    /// Mux addressable output count.
    pub const OUTPUTS: &str = "outputs";
}

/// An ordered `params` bag: string keys mapping to arbitrary JSON values.
///
/// # Examples
///
/// ```
/// use parchmint::Params;
///
/// let mut p = Params::new();
/// p.set("width", 300);
/// p.set("label", "serpentine");
/// assert_eq!(p.get_i64("width"), Some(300));
/// assert_eq!(p.get_str("label"), Some("serpentine"));
/// assert_eq!(p.get_i64("missing"), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Params(serde_json::Map<String, Value>);

impl Params {
    /// Creates an empty parameter bag.
    pub fn new() -> Self {
        Params::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the bag holds no entries.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Returns the raw JSON value stored under `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.get(key)
    }

    /// True when `key` is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    /// Inserts `value` under `key`, returning any previous value.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Value>) -> Option<Value> {
        self.0.insert(key.into(), value.into())
    }

    /// Removes `key`, returning its value when present.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.0.remove(key)
    }

    /// Integer accessor; also accepts exact floats such as `3.0`.
    pub fn get_i64(&self, key: &str) -> Option<i64> {
        match self.0.get(key)? {
            Value::Number(n) => n
                .as_i64()
                .or_else(|| n.as_f64().filter(|f| f.fract() == 0.0).map(|f| f as i64)),
            _ => None,
        }
    }

    /// Floating-point accessor.
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        self.0.get(key)?.as_f64()
    }

    /// String accessor.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.0.get(key)?.as_str()
    }

    /// Boolean accessor.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        self.0.get(key)?.as_bool()
    }

    /// Iterates over `(key, value)` pairs in insertion-independent
    /// (alphabetical) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterates over the keys.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }

    /// Builder-style insertion, for fluent construction.
    ///
    /// ```
    /// use parchmint::Params;
    /// let p = Params::new().with("width", 400).with("depth", 50);
    /// assert_eq!(p.len(), 2);
    /// ```
    #[must_use]
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.set(key, value);
        self
    }
}

impl fmt::Display for Params {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rendered = serde_json::to_string(&self.0).map_err(|_| fmt::Error)?;
        f.write_str(&rendered)
    }
}

impl FromIterator<(String, Value)> for Params {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        Params(iter.into_iter().collect())
    }
}

impl Extend<(String, Value)> for Params {
    fn extend<T: IntoIterator<Item = (String, Value)>>(&mut self, iter: T) {
        self.0.extend(iter)
    }
}

impl From<serde_json::Map<String, Value>> for Params {
    fn from(map: serde_json::Map<String, Value>) -> Self {
        Params(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn typed_accessors() {
        let mut p = Params::new();
        p.set("int", 42);
        p.set("float", 2.5);
        p.set("exact_float", 3.0);
        p.set("text", "hello");
        p.set("flag", true);

        assert_eq!(p.get_i64("int"), Some(42));
        assert_eq!(p.get_i64("exact_float"), Some(3));
        assert_eq!(p.get_i64("float"), None);
        assert_eq!(p.get_f64("float"), Some(2.5));
        assert_eq!(p.get_f64("int"), Some(42.0));
        assert_eq!(p.get_str("text"), Some("hello"));
        assert_eq!(p.get_str("int"), None);
        assert_eq!(p.get_bool("flag"), Some(true));
        assert_eq!(p.get_bool("text"), None);
    }

    #[test]
    fn set_remove_contains() {
        let mut p = Params::new();
        assert!(p.is_empty());
        assert_eq!(p.set("k", 1), None);
        assert_eq!(p.set("k", 2), Some(json!(1)));
        assert!(p.contains_key("k"));
        assert_eq!(p.remove("k"), Some(json!(2)));
        assert!(!p.contains_key("k"));
        assert_eq!(p.remove("k"), None);
    }

    #[test]
    fn fluent_builder_and_len() {
        let p = Params::new().with("a", 1).with("b", "two");
        assert_eq!(p.len(), 2);
        let keys: Vec<&str> = p.keys().collect();
        assert_eq!(keys, vec!["a", "b"]);
    }

    #[test]
    fn serde_transparent_round_trip() {
        let p = Params::new().with("x-span", 5000).with("y-span", 3000);
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(json, r#"{"x-span":5000,"y-span":3000}"#);
        let back: Params = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut p: Params = vec![("a".to_string(), json!(1))].into_iter().collect();
        p.extend(vec![("b".to_string(), json!(2))]);
        assert_eq!(p.get_i64("a"), Some(1));
        assert_eq!(p.get_i64("b"), Some(2));
    }

    #[test]
    fn display_is_json() {
        let p = Params::new().with("w", 10);
        assert_eq!(p.to_string(), r#"{"w":10}"#);
    }

    #[test]
    fn nested_values_retrievable_raw() {
        let mut p = Params::new();
        p.set("nested", json!({"inner": [1, 2, 3]}));
        let v = p.get("nested").unwrap();
        assert_eq!(v["inner"][2], json!(3));
    }
}
