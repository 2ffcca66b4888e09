//! The persistent disk-spill cache tier.
//!
//! One file per cached design, named by the same 16-hex-digit FNV-1a
//! content hash that keys the in-memory tier, holding the canonical
//! device document, the design's name, the engine fingerprint, and
//! every recorded stage cell (`parchmint-spill/v2`). A daemon restarted
//! with the same `--cache-dir` therefore serves warm resubmissions without
//! recompiling anything: the entry is rehydrated from disk, its stages
//! replay byte-identically, and the compile artifact itself is only
//! re-materialized if a *new* stage needs it.
//!
//! Two durability rules:
//!
//! - **Writes are atomic and durable.** Every store writes a unique
//!   temp file in the cache directory, fsyncs it, and only then renames
//!   it over the final name (followed by a best-effort directory sync),
//!   so neither a crashed daemon nor a machine power loss can leave a
//!   half-written entry under a real key — at worst, stray `*.tmp`
//!   files.
//! - **Loads are corruption-tolerant.** A spill file that is missing,
//!   unreadable, unparseable, schema-mismatched, keyed wrong, or written
//!   by another engine (see [`engine_fingerprint`]) is a cache *miss*
//!   (counted under the `cache.spill_corrupt` obs count), never an
//!   error — the design simply recompiles and the bad file is
//!   overwritten by the next store.

use crate::hash;
use parchmint_harness::{read_outcome, standard_stages, write_outcome, StageExec};
use serde_json::{json, Event, EventReader, Map, Value};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// The spill file schema tag.
pub const SPILL_SCHEMA: &str = "parchmint-spill/v2";

/// The engine a spill file's results came from: this crate's version
/// plus the standard stage matrix. A file stamped with another engine
/// is stale and loads as a miss, so an engine change that alters
/// results must bump the version.
pub fn engine_fingerprint() -> &'static str {
    static FINGERPRINT: OnceLock<String> = OnceLock::new();
    FINGERPRINT.get_or_init(|| {
        let stages: Vec<String> = standard_stages().into_iter().map(|s| s.name).collect();
        format!("{} {}", env!("CARGO_PKG_VERSION"), stages.join(","))
    })
}

/// A stage map plus compile metadata rehydrated from one spill file.
pub struct SpillEntry {
    /// The canonical design document text (the hash preimage).
    pub doc: String,
    /// The design's name.
    pub design: String,
    /// The original compile wall time, as recorded by the daemon that
    /// first compiled the design.
    pub compile_wall: Duration,
    /// Every stage cell recorded for the design.
    pub stages: BTreeMap<String, StageExec>,
}

/// The disk tier: a directory of content-hash-named entry files.
pub struct Spill {
    dir: PathBuf,
    /// Makes each store's temp-file name unique.
    seq: AtomicU64,
}

impl Spill {
    /// A spill tier rooted at `dir`. The directory is created if
    /// missing; failure to create it degrades the tier to a no-op
    /// (every load misses, every store is dropped) rather than failing
    /// the daemon — callers that want a hard error create the directory
    /// themselves first.
    pub fn open(dir: impl Into<PathBuf>) -> Spill {
        let dir = dir.into();
        let _ = fs::create_dir_all(&dir);
        Spill {
            dir,
            seq: AtomicU64::new(0),
        }
    }

    /// The spill directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key_hex: &str) -> PathBuf {
        self.dir.join(format!("{key_hex}.json"))
    }

    /// Loads the entry spilled under `key_hex`, tolerating every form
    /// of corruption as a miss. A missing file is a plain miss; a
    /// present-but-bad file additionally counts `cache.spill_corrupt`.
    pub fn load(&self, key_hex: &str) -> Option<SpillEntry> {
        let entry = match fs::read_to_string(self.entry_path(key_hex)) {
            Ok(text) => decode_entry(&text, key_hex),
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => return None,
            Err(_) => None,
        };
        if entry.is_none() {
            parchmint_obs::count("cache.spill_corrupt", 1);
        }
        entry
    }

    /// Spills an entry for a parsed document: its canonical text, its
    /// `name` member, compile wall time, and a stage snapshot. Atomic
    /// (tmp-then-rename) and best-effort — a full disk loses
    /// persistence, never correctness.
    pub fn store(
        &self,
        key_hex: &str,
        doc: &Value,
        compile_wall: Duration,
        stages: &BTreeMap<String, StageExec>,
    ) {
        let design = doc["name"].as_str().unwrap_or_default();
        let doc = hash::canonical_string(doc);
        self.store_document(key_hex, &doc, design, compile_wall, stages);
    }

    /// [`Spill::store`] for a document already in canonical text.
    pub(crate) fn store_document(
        &self,
        key_hex: &str,
        doc: &str,
        design: &str,
        compile_wall: Duration,
        stages: &BTreeMap<String, StageExec>,
    ) {
        let body = encode_entry(key_hex, doc, design, compile_wall, stages);
        let unique = self.seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!("{key_hex}.{}.{unique}.tmp", std::process::id()));
        if write_synced(&tmp, body.as_bytes()).is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        if fs::rename(&tmp, self.entry_path(key_hex)).is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        // Best effort: persist the rename itself. A directory that
        // cannot be opened or synced (some filesystems refuse) costs
        // durability of this one entry, not correctness.
        let _ = fs::File::open(&self.dir).and_then(|dir| dir.sync_all());
    }
}

/// Writes `body` to `path` and fsyncs it before returning, so the
/// subsequent rename can never expose a partially flushed file.
fn write_synced(path: &Path, body: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut file = fs::File::create(path)?;
    file.write_all(body)?;
    file.sync_all()
}

fn encode_entry(
    key_hex: &str,
    doc: &str,
    design: &str,
    compile_wall: Duration,
    stages: &BTreeMap<String, StageExec>,
) -> String {
    let mut cells = Map::new();
    for (name, exec) in stages {
        let mut cell = write_outcome(exec.status, exec.detail.as_deref(), &exec.metrics);
        cell.insert("attempts".to_string(), Value::from(exec.attempts));
        cells.insert(name.clone(), Value::Object(cell));
    }
    let head = json!({
        "schema": SPILL_SCHEMA,
        "engine": engine_fingerprint(),
        "key": key_hex,
        "name": design,
        "compile_ms": compile_wall.as_secs_f64() * 1e3,
        "stages": cells,
    });
    // The document is canonical JSON already: splice it in as the last
    // member instead of serializing a tree of it.
    let mut body = serde_json::to_string(&head).expect("spill entry serializes");
    body.pop();
    body.push_str(",\"design\":");
    body.push_str(doc);
    body.push('}');
    body
}

fn decode_entry(text: &str, key_hex: &str) -> Option<SpillEntry> {
    let mut reader = EventReader::new(text);
    if reader.next_event().ok()? != Some(Event::StartObject) {
        return None;
    }
    let (object, doc) = hash::read_members(&mut reader).ok()?;
    reader.next_event().ok()?;
    let field = |name: &str| object.get(name).and_then(Value::as_str);
    if field("schema")? != SPILL_SCHEMA
        || field("engine")? != engine_fingerprint()
        || field("key")? != key_hex
    {
        return None;
    }
    let design = field("name")?.to_string();
    let compile_ms = object.get("compile_ms")?.as_f64()?;
    if !compile_ms.is_finite() || compile_ms < 0.0 {
        return None;
    }
    let mut stages = BTreeMap::new();
    for (name, cell) in object.get("stages")?.as_object()? {
        let cell = cell.as_object()?;
        let mut exec = read_outcome(cell).ok()?;
        exec.attempts = u32::try_from(cell.get("attempts")?.as_u64()?).ok()?;
        stages.insert(name.clone(), exec);
    }
    Some(SpillEntry {
        doc: doc?,
        design,
        compile_wall: Duration::from_secs_f64(compile_ms / 1e3),
        stages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting;
    use parchmint_harness::CellStatus;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("parchmint-spill-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_stages() -> BTreeMap<String, StageExec> {
        let mut stages = BTreeMap::new();
        stages.insert(
            "validate".to_string(),
            StageExec {
                status: CellStatus::Ok,
                detail: None,
                metrics: BTreeMap::from([("rules".to_string(), Value::from(12))]),
                trace: None,
                attempts: 1,
            },
        );
        stages.insert(
            "route:astar".to_string(),
            StageExec {
                status: CellStatus::Degraded,
                detail: Some("fell back".to_string()),
                metrics: BTreeMap::new(),
                trace: None,
                attempts: 2,
            },
        );
        stages
    }

    #[test]
    fn the_v2_encoding_is_pinned() {
        // The exact bytes a `parchmint-spill/v2` file holds, so no change
        // to the cell codec can drift the format unnoticed.
        let golden = concat!(
            r#"{"compile_ms":5.25,"engine":"{engine}","key":"00000000deadbeef","#,
            r#""name":"golden","schema":"parchmint-spill/v2","stages":{"#,
            r#""route:astar":{"attempts":2,"detail":"fell back","status":"degraded"},"#,
            r#""validate":{"attempts":1,"metrics":{"rules":12},"status":"ok"}},"#,
            r#""design":{"name":"golden"}}"#,
        );
        let text = encode_entry(
            "00000000deadbeef",
            r#"{"name":"golden"}"#,
            "golden",
            Duration::from_micros(5250),
            &sample_stages(),
        );
        assert_eq!(text, golden.replace("{engine}", engine_fingerprint()));
        let entry = decode_entry(&text, "00000000deadbeef").expect("decodes");
        let again = encode_entry(
            "00000000deadbeef",
            &entry.doc,
            &entry.design,
            entry.compile_wall,
            &entry.stages,
        );
        assert_eq!(again, text);
    }

    #[test]
    fn round_trips_an_entry() {
        let dir = temp_dir("roundtrip");
        let spill = Spill::open(&dir);
        let doc = Value::Object(Map::from_iter([(
            "name".to_string(),
            Value::from("roundtrip"),
        )]));
        spill.store(
            "00000000deadbeef",
            &doc,
            Duration::from_millis(5),
            &sample_stages(),
        );
        counting(|count| {
            let loaded = spill.load("00000000deadbeef").expect("stored entry loads");
            assert_eq!(loaded.doc, r#"{"name":"roundtrip"}"#);
            assert_eq!(loaded.design, "roundtrip");
            assert_eq!(loaded.stages.len(), 2);
            assert_eq!(loaded.stages["validate"].status, CellStatus::Ok);
            assert_eq!(loaded.stages["validate"].metrics["rules"], Value::from(12));
            let degraded = &loaded.stages["route:astar"];
            assert_eq!(degraded.status, CellStatus::Degraded);
            assert_eq!(degraded.detail.as_deref(), Some("fell back"));
            assert_eq!(degraded.attempts, 2);
            assert_eq!(count("cache.spill_corrupt"), 0);
        });
        // No temp droppings survive a store.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|ext| ext == "tmp"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_a_miss_not_an_error() {
        let dir = temp_dir("corrupt");
        let spill = Spill::open(&dir);
        counting(|count| {
            assert!(spill.load("0000000000000001").is_none());
            assert_eq!(
                count("cache.spill_corrupt"),
                0,
                "absent files are plain misses"
            );

            fs::write(dir.join("0000000000000002.json"), "{truncated").unwrap();
            assert!(spill.load("0000000000000002").is_none());

            fs::write(
                dir.join("0000000000000003.json"),
                r#"{"schema":"other/v9","key":"0000000000000003","design":{},"compile_ms":1,"stages":{}}"#,
            )
            .unwrap();
            assert!(spill.load("0000000000000003").is_none());

            // A file renamed under the wrong hash must not poison that key.
            let doc = Value::Object(Map::new());
            spill.store("000000000000000a", &doc, Duration::ZERO, &BTreeMap::new());
            fs::rename(
                dir.join("000000000000000a.json"),
                dir.join("000000000000000b.json"),
            )
            .unwrap();
            assert!(spill.load("000000000000000b").is_none());
            assert_eq!(count("cache.spill_corrupt"), 3);

            // Another engine's results are stale, however well-formed.
            let text = fs::read_to_string(dir.join("000000000000000b.json")).unwrap();
            let stale = text
                .replace("000000000000000a", "000000000000000c")
                .replace(engine_fingerprint(), "0.0.0 validate");
            fs::write(dir.join("000000000000000c.json"), &stale).unwrap();
            assert!(spill.load("000000000000000c").is_none());
            assert_eq!(count("cache.spill_corrupt"), 4);
            let current = stale.replace("0.0.0 validate", engine_fingerprint());
            fs::write(dir.join("000000000000000c.json"), current).unwrap();
            assert!(spill.load("000000000000000c").is_some());
        });
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_truncated_entry_is_a_counted_miss() {
        // Simulate the crash the fsync-then-rename dance prevents: a
        // real entry whose tail never reached disk. Loading it must be
        // a corrupt-counted miss, and a fresh store must heal the key.
        let dir = temp_dir("truncate");
        let spill = Spill::open(&dir);
        let key = "0000000000000042";
        let doc = Value::Object(Map::from_iter([(
            "name".to_string(),
            Value::from("truncated"),
        )]));
        spill.store(key, &doc, Duration::from_millis(3), &sample_stages());
        let path = dir.join(format!("{key}.json"));
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        counting(|count| {
            assert!(spill.load(key).is_none(), "half a file is not an entry");
            assert_eq!(count("cache.spill_corrupt"), 1);
        });
        spill.store(key, &doc, Duration::from_millis(3), &sample_stages());
        assert!(spill.load(key).is_some(), "a fresh store heals the key");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_overwrites_a_corrupt_file() {
        let dir = temp_dir("overwrite");
        let spill = Spill::open(&dir);
        fs::write(dir.join("00000000000000ff.json"), "garbage").unwrap();
        assert!(spill.load("00000000000000ff").is_none());
        let doc = Value::Object(Map::new());
        spill.store("00000000000000ff", &doc, Duration::ZERO, &sample_stages());
        let loaded = spill.load("00000000000000ff").expect("healed");
        assert_eq!(loaded.stages.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
