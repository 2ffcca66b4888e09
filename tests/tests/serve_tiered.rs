//! The tiered cache end to end: concurrent identical submissions
//! coalesce onto one execution, the memory tier evicts by recency
//! under its byte budget, and the spill tier survives daemon
//! "restarts" — including corrupted spill files, which degrade to
//! plain misses. A key holding another design's entry, or a spill file
//! from another engine, is never replayed, and concurrent stage stores
//! of one entry all reach its spill file.

use parchmint_harness::{CellStatus, Stage, StageExec, StageOutcome};
use parchmint_serve::hash::{canonical_hash, canonical_text, content_hash, hex};
use parchmint_serve::protocol::{DesignSource, SubmitRequest};
use parchmint_serve::{
    engine_fingerprint, CacheEntry, Lookup, ServeConfig, Service, Spill, TieredCache, SPILL_SCHEMA,
};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::Duration;

fn submit(service: &Service, request: &SubmitRequest) -> Vec<Value> {
    let mut events = Vec::new();
    service.process_submit(request, &mut |event| events.push(event));
    events
}

/// Wall-clock fields and the cache flag removed: the payload a replay
/// must reproduce.
fn strip(events: &[Value]) -> String {
    let stripped: Vec<Value> = events
        .iter()
        .map(|event| {
            let mut event = event.clone();
            if let Some(object) = event.as_object_mut() {
                object.remove("wall_ms");
                object.remove("compile_ms");
                object.remove("cached");
            }
            event
        })
        .collect();
    serde_json::to_string(&stripped).unwrap()
}

fn benchmark_request(name: &str, stages: Option<&[&str]>) -> SubmitRequest {
    SubmitRequest {
        id: Value::from("t"),
        source: DesignSource::Benchmark(name.to_string()),
        stages: stages.map(|names| names.iter().map(|s| s.to_string()).collect()),
        deadline_ms: None,
        fuel: None,
    }
}

/// A scratch directory that cleans up after itself.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "parchmint-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Two threads submit the identical design at the same time; the gate
/// stage blocks the leader until the second submission has provably
/// parked behind it, so exactly one execution serves both.
#[test]
fn concurrent_duplicate_submissions_coalesce_onto_one_execution() {
    let executions = Arc::new(AtomicUsize::new(0));
    let release = Arc::new((Mutex::new(false), Condvar::new()));
    let stage_executions = Arc::clone(&executions);
    let stage_release = Arc::clone(&release);
    let gate = Stage::new("gate", move |_, _| {
        stage_executions.fetch_add(1, Ordering::SeqCst);
        let (lock, signal) = &*stage_release;
        let mut open = lock.lock().expect("gate lock");
        while !*open {
            open = signal.wait(open).expect("gate lock");
        }
        Ok(StageOutcome::metrics([("gated", Value::from(true))]))
    });
    let service = Arc::new(Service::with_stages(ServeConfig::default(), vec![gate]));

    let spawn = |service: &Arc<Service>| {
        let service = Arc::clone(service);
        std::thread::spawn(move || submit(&service, &benchmark_request("logic_gate_or", None)))
    };
    let first = spawn(&service);
    // Wait until the leader is inside the gate stage…
    while executions.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let second = spawn(&service);
    // …and until the duplicate has parked behind it (coalesced is
    // counted at park time, so this is deterministic, not a sleep).
    while service.cache().counters().coalesced == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    {
        let (lock, signal) = &*release;
        *lock.lock().expect("gate lock") = true;
        signal.notify_all();
    }
    let first = first.join().expect("first submission");
    let second = second.join().expect("second submission");

    assert_eq!(
        executions.load(Ordering::SeqCst),
        1,
        "the parked duplicate must not re-execute the stage"
    );
    let counters = service.cache().counters();
    assert!(counters.coalesced >= 1, "{counters:?}");
    assert_eq!(counters.misses, 1, "exactly one compile: {counters:?}");
    assert_eq!(
        strip(&first),
        strip(&second),
        "both submissions see the same payload"
    );
}

/// The memory tier holds its byte budget by evicting least-recently-
/// used entries — and touching an entry rescues it from eviction.
#[test]
fn memory_tier_evicts_least_recently_used_under_its_byte_budget() {
    let doc = |name: &str| -> String {
        format!("{{\"name\":\"{name}\",\"pad\":\"{}\"}}", "x".repeat(64))
    };
    let entry = |name: &str| {
        Arc::new(CacheEntry::warm(
            doc(name),
            name.to_string(),
            Duration::ZERO,
            Default::default(),
        ))
    };
    let keys: Vec<u64> = ["a", "b", "c"]
        .iter()
        .map(|n| canonical_hash(&doc(n)))
        .collect();

    // Budget sized for two entries: inserting the third must evict one.
    let two_entries = 2 * (128 + 3 * doc("a").len() as u64);
    let cache = TieredCache::with_limits(Some(two_entries), None::<&str>);
    cache.insert(keys[0], entry("a"));
    cache.insert(keys[1], entry("b"));
    assert!(cache.bytes() <= two_entries);

    // Touch "a" so "b" is the least recently used…
    assert!(matches!(cache.lookup(keys[0], &doc("a")), Lookup::Hit(..)));
    cache.insert(keys[2], entry("c"));

    // …and exactly "b" went.
    assert_eq!(cache.lru_keys(), vec![keys[0], keys[2]]);
    assert!(cache.bytes() <= two_entries, "budget holds after eviction");
    let counters = cache.counters();
    assert_eq!(counters.evicted_entries, 1);
    assert!(counters.evicted_bytes > 0);
    assert!(
        matches!(cache.lookup(keys[1], &doc("b")), Lookup::Miss),
        "evicted entry is a miss"
    );
}

/// A "restarted daemon" (a fresh `Service` over the same `--cache-dir`)
/// serves resubmissions from spill without recompiling; a corrupted
/// spill file silently degrades that design to a cold miss.
#[test]
fn spill_tier_survives_service_restarts_and_tolerates_corruption() {
    let dir = TempDir::new("serve-tiered");
    let config = || ServeConfig::builder().cache_dir(dir.0.clone()).build();
    let and_gate = benchmark_request("logic_gate_and", Some(&["validate"]));
    let or_gate = benchmark_request("logic_gate_or", Some(&["validate"]));

    let cold = {
        let service = Service::new(config());
        let cold = submit(&service, &and_gate);
        submit(&service, &or_gate);
        cold
    };

    // Corrupt exactly the OR gate's spill file.
    let or_doc: Value = serde_json::from_str(
        &parchmint_suite::by_name("logic_gate_or")
            .expect("registered benchmark")
            .device()
            .to_json()
            .expect("serializes"),
    )
    .expect("parses");
    let or_spill = dir.0.join(format!("{}.json", hex(content_hash(&or_doc))));
    assert!(or_spill.is_file(), "submission left a spill file");
    std::fs::write(&or_spill, b"{ truncated garbage").expect("corrupt the spill");

    let service = Service::new(config());
    let replayed = submit(&service, &and_gate);
    for event in &replayed {
        assert_eq!(event["cached"], Value::from(true), "{event}");
    }
    assert_eq!(
        strip(&cold),
        strip(&replayed),
        "spill-served replay is byte-identical to the cold run"
    );
    let counters = service.cache().counters();
    assert_eq!(counters.spill_hits, 1, "{counters:?}");
    assert_eq!(counters.stage_hits, 1, "{counters:?}");

    // The corrupted design is a plain miss — recomputed, not an error.
    let recomputed = submit(&service, &or_gate);
    assert_eq!(
        recomputed.last().map(|e| e["event"].clone()),
        Some(Value::from("done"))
    );
    assert_eq!(recomputed[0]["cached"], Value::from(false));
    let counters = service.cache().counters();
    assert_eq!(counters.misses, 1, "{counters:?}");
    assert!(counters.spill_corrupt >= 1, "{counters:?}");
}

/// A registry design's canonical document and cache key.
fn canonical_design(name: &str) -> (String, u64) {
    let json = parchmint_suite::by_name(name)
        .expect("registered benchmark")
        .device()
        .to_json()
        .expect("serializes");
    let doc = canonical_text(&json).expect("canonicalizes");
    let key = canonical_hash(&doc);
    (doc, key)
}

/// One stage result no real run of the OR gate produces.
fn foreign_stages(detail: &str) -> BTreeMap<String, StageExec> {
    BTreeMap::from([(
        "validate".to_string(),
        StageExec {
            status: CellStatus::Failed,
            detail: Some(detail.to_string()),
            metrics: BTreeMap::new(),
            trace: None,
            attempts: 1,
        },
    )])
}

/// Submits the OR gate (validate only) to `service` and checks the
/// reply is its own fresh answer, computed without the cache.
fn assert_or_gate_runs_uncached(service: &Service) {
    let request = benchmark_request("logic_gate_or", Some(&["validate"]));
    let events = submit(service, &request);
    let fresh = submit(&Service::new(ServeConfig::default()), &request);
    assert_eq!(strip(&events), strip(&fresh), "the OR gate's own answer");
    assert_eq!(events[1]["design"], Value::from("logic_gate_or"));
    for event in &events {
        assert_eq!(event["cached"], Value::from(false), "{event}");
    }
    let counters = service.cache().counters();
    assert_eq!(counters.collisions, 1, "{counters:?}");
    assert_eq!(
        service.stats_json()["cache"]["collisions"],
        Value::from(1u64)
    );
}

/// Design B's entry planted in memory under design A's key (an FNV-1a
/// collision) is never handed to A, and A's uncached run stores nothing.
#[test]
fn a_colliding_memory_entry_is_never_replayed() {
    let (_, or_key) = canonical_design("logic_gate_or");
    let (and_doc, and_key) = canonical_design("logic_gate_and");
    let service = Service::new(ServeConfig::default());
    let planted = CacheEntry::warm(
        and_doc.clone(),
        "logic_gate_and".to_string(),
        Duration::ZERO,
        foreign_stages("design B's answer"),
    );
    service.cache().insert(or_key, Arc::new(planted));

    assert_or_gate_runs_uncached(&service);
    assert_eq!(service.cache().len(), 1, "nothing inserted");
    assert!(matches!(
        service.cache().peek(or_key, &and_doc),
        Lookup::Hit(..)
    ));
    assert_ne!(or_key, and_key);
}

/// The same collision planted as a spill file: loading it is a
/// collision, not a hit, and the file is left as it was.
#[test]
fn a_colliding_spill_file_is_never_replayed() {
    let dir = TempDir::new("serve-collide");
    let (_, or_key) = canonical_design("logic_gate_or");
    let and_json = parchmint_suite::by_name("logic_gate_and")
        .expect("registered benchmark")
        .device()
        .to_json()
        .expect("serializes");
    let and_value: Value = serde_json::from_str(&and_json).expect("parses");
    Spill::open(&dir.0).store(
        &hex(or_key),
        &and_value,
        Duration::ZERO,
        &foreign_stages("design B's answer"),
    );
    let path = dir.0.join(format!("{}.json", hex(or_key)));
    let planted = std::fs::read(&path).expect("spill file");

    let service = Service::new(ServeConfig::builder().cache_dir(dir.0.clone()).build());
    assert_or_gate_runs_uncached(&service);
    let counters = service.cache().counters();
    assert_eq!((counters.spill_hits, counters.spill_corrupt), (0, 0));
    assert_eq!(service.cache().len(), 0, "nothing inserted");
    assert_eq!(std::fs::read(&path).unwrap(), planted, "nothing spilled");
}

/// A hand-written OR-gate spill file with a planted cell: replayed
/// under this engine's fingerprint, recompiled (and overwritten) under
/// a stale one.
#[test]
fn a_spill_entry_from_another_engine_recompiles() {
    let dir = TempDir::new("serve-stale");
    let (doc, key) = canonical_design("logic_gate_or");
    let path = dir.0.join(format!("{}.json", hex(key)));
    let write = |engine: &str| {
        let mut stages = serde_json::Map::new();
        stages.insert(
            "validate".to_string(),
            json!({"status": "failed", "detail": "written by an older engine", "attempts": 1}),
        );
        let head = json!({
            "schema": SPILL_SCHEMA,
            "engine": engine,
            "key": hex(key),
            "name": "logic_gate_or",
            "compile_ms": 1.0,
            "stages": stages,
        })
        .to_string();
        let text = format!("{},\"design\":{doc}}}", &head[..head.len() - 1]);
        std::fs::write(&path, text).expect("write spill file");
    };
    let request = benchmark_request("logic_gate_or", Some(&["validate"]));

    // Control: this engine's fingerprint replays the planted cell.
    write(engine_fingerprint());
    let service = Service::new(ServeConfig::builder().cache_dir(dir.0.clone()).build());
    let replayed = submit(&service, &request);
    assert_eq!(replayed[0]["cached"], Value::from(true));
    assert_eq!(replayed[0]["cell"]["status"], Value::from("failed"));

    write("0.0.0 validate");
    let service = Service::new(ServeConfig::builder().cache_dir(dir.0.clone()).build());
    let recompiled = submit(&service, &request);
    assert_eq!(recompiled[0]["cached"], Value::from(false));
    assert_eq!(recompiled[0]["cell"]["status"], Value::from("ok"));
    let counters = service.cache().counters();
    assert_eq!((counters.spill_hits, counters.spill_corrupt), (0, 1));
    let rewritten: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(rewritten["engine"], Value::from(engine_fingerprint()));
    assert_eq!(rewritten["stages"]["validate"]["status"], Value::from("ok"));
}

/// Eight threads store eight distinct stages of one entry at once; the
/// spill file left behind must hold all eight, round after round.
#[test]
fn concurrent_stage_stores_all_reach_the_spill_file() {
    const THREADS: usize = 8;
    let dir = TempDir::new("serve-spill-race");
    let (doc, key) = canonical_design("logic_gate_or");
    let cache = TieredCache::with_limits(None, Some(dir.0.clone()));
    let spill = Spill::open(&dir.0);
    let exec = foreign_stages("stored").remove("validate").unwrap();
    for round in 0..16u64 {
        let key = key.wrapping_add(round);
        let entry = CacheEntry::warm(
            doc.clone(),
            "d".to_string(),
            Duration::ZERO,
            BTreeMap::new(),
        );
        let entry = cache.insert(key, Arc::new(entry));
        let start = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for stage in 0..THREADS {
                let (cache, entry, exec, start) = (&cache, &entry, &exec, &start);
                scope.spawn(move || {
                    start.wait();
                    cache.store_stage(key, entry, &format!("stage{stage}"), exec);
                });
            }
        });
        let loaded = spill.load(&hex(key)).expect("spill file loads");
        assert_eq!(loaded.stages.len(), THREADS, "round {round}");
    }
}
