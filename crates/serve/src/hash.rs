//! Content-addressed hashing of design documents.
//!
//! Cache keys must be insensitive to everything that does not change the
//! *design*: whitespace, member order, and transport framing. All three
//! are erased by canonicalization: a document is rewritten as compact
//! JSON with every object's members in sorted key order (a duplicate key
//! keeps its last value), and that canonical text is hashed with
//! FNV-1a 64. The text is streamed straight off the request bytes by
//! [`serde_json::EventReader::write_canonical`] ([`canonical_text`]); it
//! is byte-identical to printing the parsed [`Value`]
//! ([`canonical_string`]), so both paths give every document one key.
//!
//! FNV is not collision-resistant: accidental collisions are
//! astronomically unlikely, but colliding documents are easy to build on
//! purpose. So a key only *finds* a cache entry. Every entry keeps its
//! canonical text, and the cache hands an entry only to a request whose
//! text is the same; a colliding design is counted under
//! `cache.collisions` and runs uncached, never getting another design's
//! answer.

use serde_json::{Event, EventReader, Map, Value};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over a byte slice.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Rewrites the JSON document `text` in canonical form, in one streaming
/// pass with no intermediate tree. Invalid JSON fails with the same error
/// the tree parser reports.
pub fn canonical_text(text: &str) -> serde_json::Result<String> {
    let mut reader = EventReader::new(text);
    let mut canonical = String::with_capacity(text.len());
    reader.write_canonical(&mut canonical)?;
    reader.next_event()?;
    Ok(canonical)
}

/// The canonical serialization of a parsed document: compact JSON with
/// objects in sorted key order (the `Map` iteration order).
pub fn canonical_string(value: &Value) -> String {
    serde_json::to_string(value).expect("JSON value serialization is infallible")
}

/// The cache key of a document already in canonical form.
pub fn canonical_hash(canonical: &str) -> u64 {
    fnv1a(canonical.as_bytes())
}

/// Content hash of a parsed design document.
pub fn content_hash(value: &Value) -> u64 {
    canonical_hash(&canonical_string(value))
}

/// Canonicalizes `text` and hashes it — two texts that differ only in
/// whitespace or member order hash identically.
pub fn hash_json_str(text: &str) -> Result<u64, String> {
    let canonical = canonical_text(text).map_err(|e| e.to_string())?;
    Ok(canonical_hash(&canonical))
}

/// Reads the members of an object whose opening brace `reader` has just
/// yielded: the `design` member as canonical text, every other member as
/// a [`Value`]. A duplicate key keeps its last value. Requests and spill
/// files both carry their design document under `design`.
pub(crate) fn read_members(
    reader: &mut EventReader<'_>,
) -> serde_json::Result<(Map, Option<String>)> {
    let mut members = Map::new();
    let mut design = None;
    while let Some(Event::Key(key)) = reader.next_event()? {
        if key == "design" {
            // The design is most of what is left of the request, and
            // its canonical text is rarely longer than its source.
            let mut doc = String::with_capacity(reader.unread_len());
            reader.write_canonical(&mut doc)?;
            design = Some(doc);
        } else {
            let value = reader.read_value()?;
            members.insert(key.into_owned(), value);
        }
    }
    Ok((members, design))
}

/// The hash rendered as the 16-digit hex key used on the wire.
pub fn hex(hash: u64) -> String {
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whitespace_and_key_order_do_not_change_the_hash() {
        let a = r#"{"name":"chip","layers":[{"id":"f","type":"FLOW"}]}"#;
        let b =
            "{\n  \"layers\": [ { \"type\": \"FLOW\", \"id\": \"f\" } ],\n  \"name\": \"chip\"\n}";
        assert_eq!(hash_json_str(a).unwrap(), hash_json_str(b).unwrap());
    }

    #[test]
    fn different_documents_hash_differently() {
        let a = hash_json_str(r#"{"name":"chip_a"}"#).unwrap();
        let b = hash_json_str(r#"{"name":"chip_b"}"#).unwrap();
        assert_ne!(a, b);
        assert_eq!(hex(a).len(), 16);
    }

    #[test]
    fn invalid_json_is_an_error() {
        assert!(hash_json_str("{not json").is_err());
    }

    #[test]
    fn streamed_and_tree_canonical_forms_agree() {
        let text = r#"{"z": [1, 2.0, {"b": "é", "a": null}], "a": true, "z": -0}"#;
        let tree: Value = serde_json::from_str(text).unwrap();
        assert_eq!(canonical_text(text).unwrap(), canonical_string(&tree));
        assert_eq!(
            canonical_hash(&canonical_text(text).unwrap()),
            content_hash(&tree)
        );
    }
}
