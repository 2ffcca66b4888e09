//! Content-addressed hashing of design documents.
//!
//! Cache keys must be insensitive to everything that does not change the
//! *design*: whitespace, member order, and transport framing. Both are
//! erased by construction: the document is parsed into a
//! [`serde_json::Value`] (whitespace gone), whose object maps iterate in
//! sorted key order (member order gone), and the canonical compact
//! serialization of that value is hashed with FNV-1a 64.
//!
//! FNV is not collision-resistant: accidental collisions are
//! astronomically unlikely, but colliding documents are easy to build on
//! purpose. The cache matches on this key alone, so whoever submits
//! first decides what a colliding second submitter gets: the first
//! design's cached answer. A collision never costs memory safety.

use serde_json::Value;

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

/// The canonical serialization a design is hashed under: compact JSON
/// with objects in sorted key order (the `Map` iteration order).
pub fn canonical_string(value: &Value) -> String {
    serde_json::to_string(value).expect("JSON value serialization is infallible")
}

/// Content hash of a parsed design document.
pub fn content_hash(value: &Value) -> u64 {
    fnv1a(canonical_string(value).as_bytes())
}

/// Parses `text` and hashes it canonically — two texts that differ only
/// in whitespace or member order hash identically.
pub fn hash_json_str(text: &str) -> Result<u64, String> {
    let value: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    Ok(content_hash(&value))
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
}
