//! The tiered content-hash artifact cache.
//!
//! Three tiers, probed in order:
//!
//! 1. **Memory** — content hash → [`CacheEntry`] under an LRU index
//!    with an optional byte budget (`--cache-bytes`). Entries carry an
//!    approximate byte cost (canonical document, recorded stage cells
//!    and indexed MINT texts); inserting or growing past the budget
//!    evicts least-recently-used entries until the total fits again
//!    (the single most-recently-used entry is always kept, even
//!    oversized).
//! 2. **Spill** — an optional disk directory (`--cache-dir`) holding
//!    one atomic file per design (see [`crate::spill`]). Every memory
//!    insert and stage store is mirrored down, so eviction and daemon
//!    restarts lose nothing: a memory miss that hits spill rehydrates
//!    the entry (stage cells replay; the compile artifact itself
//!    re-materializes lazily only if a new stage needs it).
//! 3. **Compute** — a true miss; the service compiles, then publishes
//!    the result back through both tiers.
//!
//! Only *unconditioned* executions are cacheable — a request that runs
//! under a deadline/fuel budget or with a fault plan armed can produce
//! degraded or injected results that must never be replayed for a
//! clean request. The service enforces that; the cache itself is
//! policy-free storage.
//!
//! Every entry keeps the canonical text of its design, and every path
//! that hands an entry to a request — memory lookup, spill load, a
//! single-flight leader's re-check — compares it with the request's.
//! A key holding another design's text is a [`Lookup::Collision`]:
//! counted as a miss and under `cache.collisions`, and the request runs
//! uncached.
//!
//! The memory tier also indexes entries by MINT text: a cacheable MINT
//! submission served from an entry leaves its exact text pointing at
//! that entry's key (`index_mint`), so the same text sent again finds
//! the entry without being parsed, converted or hashed (`lookup_mint`).
//! Only an entry that already matched the text's canonical document is
//! indexed, and only an identical text finds it. The key is still the
//! converted design's canonical hash, so MINT, registry and inline-JSON
//! submissions of one device share one entry. Each text is charged to
//! its entry's bytes and leaves the index when the entry is evicted;
//! the index has no bound of its own.
//!
//! The cache keeps no counters of its own: every hit, miss, collision
//! and eviction is an obs count (`cache.*`) emitted to the thread's
//! recorder, which in the daemon is the service's aggregate.

use crate::hash;
use crate::spill::Spill;
use parchmint::ir::CompiledDevice;
use parchmint_harness::StageExec;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// One cached design: the canonical document text, the design's name,
/// the (lazily re-materializable) compiled view, and per-stage results.
pub struct CacheEntry {
    doc: String,
    design: String,
    compile_wall: Duration,
    compiled: OnceLock<Arc<CompiledDevice>>,
    stages: Mutex<BTreeMap<String, StageExec>>,
    /// Held by each spill write of this entry, in turn.
    spill_turn: Mutex<()>,
}

impl CacheEntry {
    /// A fresh entry holding a just-compiled artifact of the canonical
    /// document `doc`.
    pub fn new(doc: String, compiled: Arc<CompiledDevice>, compile_wall: Duration) -> CacheEntry {
        let design = compiled.device().name.clone();
        let entry = CacheEntry::warm(doc, design, compile_wall, BTreeMap::new());
        let _ = entry.compiled.set(compiled);
        entry
    }

    /// An entry rehydrated from the spill tier: stage results are
    /// present, the compiled view is not (it re-materializes on
    /// demand via [`CacheEntry::materialize`]).
    pub fn warm(
        doc: String,
        design: String,
        compile_wall: Duration,
        stages: BTreeMap<String, StageExec>,
    ) -> CacheEntry {
        CacheEntry {
            doc,
            design,
            compile_wall,
            compiled: OnceLock::new(),
            stages: Mutex::new(stages),
            spill_turn: Mutex::new(()),
        }
    }

    /// The canonical design document this entry was keyed from.
    pub fn doc(&self) -> &str {
        &self.doc
    }

    /// The design's name, as replayed events report it.
    pub fn design(&self) -> &str {
        &self.design
    }

    /// How long the original generate+compile took.
    pub fn compile_wall(&self) -> Duration {
        self.compile_wall
    }

    /// The compiled view, if this entry holds one (spill-rehydrated
    /// entries start without).
    pub fn compiled(&self) -> Option<Arc<CompiledDevice>> {
        self.compiled.get().cloned()
    }

    /// Publishes a re-materialized compile. When two stage leaders race
    /// to materialize, the first wins and both share it.
    pub fn materialize(&self, compiled: Arc<CompiledDevice>) -> Arc<CompiledDevice> {
        let _ = self.compiled.set(compiled);
        self.compiled.get().cloned().expect("just set")
    }

    /// The recorded result of `stage`, if this design already ran it.
    pub fn stage(&self, stage: &str) -> Option<StageExec> {
        self.stages
            .lock()
            .expect("cache entry lock")
            .get(stage)
            .cloned()
    }

    /// Records the result of `stage` for replay. Prefer
    /// [`TieredCache::store_stage`], which also accounts bytes and
    /// mirrors to spill.
    pub fn store_stage(&self, stage: &str, exec: &StageExec) {
        self.stages
            .lock()
            .expect("cache entry lock")
            .insert(stage.to_string(), exec.clone());
    }

    /// How many stage results this entry holds.
    pub fn stage_count(&self) -> usize {
        self.stages.lock().expect("cache entry lock").len()
    }

    /// A snapshot of every recorded stage (what the spill tier persists).
    pub fn stages_snapshot(&self) -> BTreeMap<String, StageExec> {
        self.stages.lock().expect("cache entry lock").clone()
    }

    /// Approximate resident cost of the entry skeleton (map slot,
    /// `Arc`s, document). The compiled view itself is deliberately not
    /// charged: it is shared by reference and proportional to the
    /// document we do charge for.
    fn base_cost(&self) -> u64 {
        128 + 3 * self.doc.len() as u64
    }

    fn total_cost(&self) -> u64 {
        let stages = self.stages.lock().expect("cache entry lock");
        self.base_cost() + stages.values().map(stage_cost).sum::<u64>()
    }
}

/// Approximate resident cost of one recorded stage cell.
fn stage_cost(exec: &StageExec) -> u64 {
    let detail = exec.detail.as_ref().map_or(0, String::len) as u64;
    let metrics: u64 = exec
        .metrics
        .iter()
        .map(|(name, value)| {
            name.len() as u64 + serde_json::to_string(value).map_or(16, |s| s.len() as u64)
        })
        .sum();
    96 + detail + metrics
}

/// Approximate resident cost of one indexed MINT text: the text, its
/// index slot and its place on the entry's list.
fn mint_cost(text: &str) -> u64 {
    64 + text.len() as u64
}

/// Which tier a counted hit came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitTier {
    /// Found resident in memory.
    Memory,
    /// Rehydrated from the disk spill.
    Spill,
}

/// What probing the cache with one request's canonical document found.
pub enum Lookup {
    /// An entry holding exactly this document.
    Hit(Arc<CacheEntry>, HitTier),
    /// Nothing is stored under the key.
    Miss,
    /// The key holds another document's entry (an FNV-1a collision);
    /// the request must run uncached.
    Collision,
}

struct Slot {
    entry: Arc<CacheEntry>,
    bytes: u64,
    tick: u64,
    /// The MINT texts indexed to this entry, which leave with it.
    mint: Vec<Arc<str>>,
}

#[derive(Default)]
struct MemoryTier {
    entries: HashMap<u64, Slot>,
    /// Exact MINT text → the key of the resident entry its converted
    /// design is cached under.
    mint: HashMap<Arc<str>, u64>,
    /// Recency index: strictly increasing touch tick → key. The lowest
    /// tick is the least recently used entry.
    recency: BTreeMap<u64, u64>,
    next_tick: u64,
    bytes: u64,
}

impl MemoryTier {
    fn touch(&mut self, key: u64) {
        let tick = self.next_tick;
        self.next_tick += 1;
        if let Some(slot) = self.entries.get_mut(&key) {
            self.recency.remove(&slot.tick);
            slot.tick = tick;
            self.recency.insert(tick, key);
        }
    }

    /// Evicts least-recently-used entries until the budget fits,
    /// always keeping at least the most recent entry.
    fn evict_to(&mut self, budget: u64) -> (u64, u64) {
        let (mut entries, mut bytes) = (0u64, 0u64);
        while self.bytes > budget && self.entries.len() > 1 {
            let Some((&tick, &key)) = self.recency.iter().next() else {
                break;
            };
            self.recency.remove(&tick);
            if let Some(slot) = self.entries.remove(&key) {
                for text in &slot.mint {
                    self.mint.remove(text);
                }
                self.bytes = self.bytes.saturating_sub(slot.bytes);
                entries += 1;
                bytes += slot.bytes;
            }
        }
        (entries, bytes)
    }
}

/// The daemon-wide cache: memory tier and optional spill tier.
pub struct TieredCache {
    memory: Mutex<MemoryTier>,
    budget: Option<u64>,
    spill: Option<Spill>,
}

impl Default for TieredCache {
    fn default() -> Self {
        TieredCache::with_limits(None, None::<PathBuf>)
    }
}

impl TieredCache {
    /// An unbounded, memory-only cache.
    pub fn new() -> TieredCache {
        TieredCache::default()
    }

    /// A cache with an optional memory byte budget and an optional
    /// spill directory.
    pub fn with_limits(budget: Option<u64>, dir: Option<impl Into<PathBuf>>) -> TieredCache {
        TieredCache {
            memory: Mutex::new(MemoryTier::default()),
            budget,
            spill: dir.map(Spill::open),
        }
    }

    /// The configured memory byte budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// The spill directory, if the disk tier is enabled.
    pub fn spill_dir(&self) -> Option<&std::path::Path> {
        self.spill.as_ref().map(Spill::dir)
    }

    /// Looks up the canonical document `doc` under `key` through the
    /// tiers, counting exactly one of `cache.memory_hits` /
    /// `cache.spill_hits` / `cache.misses` (a collision counts as a miss).
    pub fn lookup(&self, key: u64, doc: &str) -> Lookup {
        let found = match self.peek(key, doc) {
            Lookup::Miss => self.load_spill(key, doc),
            resident => resident,
        };
        let counter = match &found {
            Lookup::Hit(_, HitTier::Memory) => "cache.memory_hits",
            Lookup::Hit(_, HitTier::Spill) => "cache.spill_hits",
            Lookup::Miss | Lookup::Collision => "cache.misses",
        };
        parchmint_obs::count(counter, 1);
        found
    }

    /// A memory-only probe that counts nothing but a collision.
    /// Single-flight leaders use this to re-check for a result
    /// published between their counted miss and their promotion,
    /// without double-counting either way.
    pub fn peek(&self, key: u64, doc: &str) -> Lookup {
        let mut memory = self.memory.lock().expect("cache lock");
        let Some(slot) = memory.entries.get(&key) else {
            return Lookup::Miss;
        };
        if slot.entry.doc != doc {
            drop(memory);
            return self.collision();
        }
        let entry = Arc::clone(&slot.entry);
        memory.touch(key);
        Lookup::Hit(entry, HitTier::Memory)
    }

    /// The key and resident entry an identical MINT `text` was indexed
    /// to. A hit counts once under `cache.memory_hits` and once under
    /// `cache.mint_hits`; a miss counts nothing, since the submission
    /// then resolves its design and probes the tiers like any other.
    pub(crate) fn lookup_mint(&self, text: &str) -> Option<(u64, Arc<CacheEntry>)> {
        let mut memory = self.memory.lock().expect("cache lock");
        let key = *memory.mint.get(text)?;
        let entry = Arc::clone(&memory.entries.get(&key)?.entry);
        memory.touch(key);
        drop(memory);
        parchmint_obs::count("cache.memory_hits", 1);
        parchmint_obs::count("cache.mint_hits", 1);
        Some((key, entry))
    }

    /// Indexes the MINT `text` to `entry`, which its converted design
    /// was just served from under `key`, and charges the text to that
    /// entry's bytes (evicting if the budget overflows). Does nothing
    /// when the text is already indexed or `entry` is no longer the one
    /// resident under `key`.
    pub(crate) fn index_mint(&self, text: &str, key: u64, entry: &Arc<CacheEntry>) {
        let mut memory = self.memory.lock().expect("cache lock");
        if memory.mint.contains_key(text) {
            return;
        }
        let Some(slot) = memory.entries.get_mut(&key) else {
            return;
        };
        if !Arc::ptr_eq(&slot.entry, entry) {
            return;
        }
        let text: Arc<str> = Arc::from(text);
        let cost = mint_cost(&text);
        slot.bytes += cost;
        slot.mint.push(Arc::clone(&text));
        memory.mint.insert(text, key);
        memory.bytes += cost;
        self.enforce_budget(&mut memory);
    }

    /// Rehydrates `key` from the spill tier into memory.
    fn load_spill(&self, key: u64, doc: &str) -> Lookup {
        let Some(loaded) = self.spill.as_ref().and_then(|s| s.load(&hash::hex(key))) else {
            return Lookup::Miss;
        };
        if loaded.doc != doc {
            return self.collision();
        }
        let entry = CacheEntry::warm(
            loaded.doc,
            loaded.design,
            loaded.compile_wall,
            loaded.stages,
        );
        // Another thread may have raced the rehydration; whoever
        // inserted first wins, exactly like a compile race.
        let (Ok(entry) | Err(entry)) = self.insert_memory_only(key, Arc::new(entry));
        Lookup::Hit(entry, HitTier::Spill)
    }

    fn collision(&self) -> Lookup {
        parchmint_obs::count("cache.collisions", 1);
        Lookup::Collision
    }

    /// Inserts `entry` under `key` into both tiers. When two workers
    /// race to publish the same design, the first insert wins and both
    /// use it — the loser's artifact is discarded, never half-merged.
    /// A key already holding another design's entry keeps it, and
    /// `entry` comes back stored in neither tier.
    pub fn insert(&self, key: u64, entry: Arc<CacheEntry>) -> Arc<CacheEntry> {
        match self.insert_memory_only(key, entry) {
            Ok(resident) => {
                self.spill_entry(key, &resident);
                resident
            }
            Err(unstored) => unstored,
        }
    }

    /// The entry resident under `key` afterwards, or `Err(entry)` when
    /// the key holds another design's entry.
    fn insert_memory_only(
        &self,
        key: u64,
        entry: Arc<CacheEntry>,
    ) -> Result<Arc<CacheEntry>, Arc<CacheEntry>> {
        let mut memory = self.memory.lock().expect("cache lock");
        if let Some(slot) = memory.entries.get(&key) {
            if slot.entry.doc != entry.doc {
                return Err(entry);
            }
            let existing = Arc::clone(&slot.entry);
            memory.touch(key);
            return Ok(existing);
        }
        let bytes = entry.total_cost();
        let tick = memory.next_tick;
        memory.next_tick += 1;
        memory.entries.insert(
            key,
            Slot {
                entry: Arc::clone(&entry),
                bytes,
                tick,
                mint: Vec::new(),
            },
        );
        memory.recency.insert(tick, key);
        memory.bytes += bytes;
        self.enforce_budget(&mut memory);
        Ok(entry)
    }

    /// Records the result of `stage` on `entry`: grows the entry's byte
    /// accounting (evicting if the budget overflows) and mirrors the
    /// updated entry down to the spill tier. Concurrent stores of one
    /// entry spill in turn, each writing every stage stored so far, so
    /// the file left last holds them all.
    pub fn store_stage(&self, key: u64, entry: &Arc<CacheEntry>, stage: &str, exec: &StageExec) {
        entry.store_stage(stage, exec);
        let delta = stage_cost(exec);
        {
            let mut memory = self.memory.lock().expect("cache lock");
            // Only charge the slot if this exact entry is still resident
            // (it may have been evicted while the stage ran).
            if let Some(slot) = memory.entries.get_mut(&key) {
                if Arc::ptr_eq(&slot.entry, entry) {
                    slot.bytes += delta;
                    memory.bytes += delta;
                    self.enforce_budget(&mut memory);
                }
            }
        }
        self.spill_entry(key, entry);
    }

    fn spill_entry(&self, key: u64, entry: &CacheEntry) {
        let Some(spill) = &self.spill else {
            return;
        };
        // The snapshot is taken on this writer's turn: a writer whose
        // stage landed earlier has already written, or waits and writes
        // after, with a snapshot that holds this stage too.
        let _turn = entry.spill_turn.lock().expect("spill turn lock");
        spill.store_document(
            &hash::hex(key),
            &entry.doc,
            &entry.design,
            entry.compile_wall,
            &entry.stages_snapshot(),
        );
    }

    fn enforce_budget(&self, memory: &mut MemoryTier) {
        let Some(budget) = self.budget else {
            return;
        };
        let (entries, bytes) = memory.evict_to(budget);
        if entries > 0 {
            parchmint_obs::count("cache.evicted.entries", entries);
            parchmint_obs::count("cache.evicted.bytes", bytes);
        }
        parchmint_obs::observe("cache.bytes", memory.bytes);
    }

    /// Number of designs resident in the memory tier.
    pub fn len(&self) -> usize {
        self.memory.lock().expect("cache lock").entries.len()
    }

    /// Whether the memory tier holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes resident in the memory tier.
    pub fn bytes(&self) -> u64 {
        self.memory.lock().expect("cache lock").bytes
    }

    /// Memory-tier keys in least-recently-used-first order (tests pin
    /// eviction order through this).
    pub fn lru_keys(&self) -> Vec<u64> {
        let memory = self.memory.lock().expect("cache lock");
        memory.recency.values().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting;
    use parchmint::Device;
    use parchmint_harness::CellStatus;

    fn doc(name: &str) -> String {
        format!("{{\"name\":\"{name}\"}}")
    }

    fn entry(name: &str) -> Arc<CacheEntry> {
        let device = Device::new(name);
        Arc::new(CacheEntry::new(
            doc(name),
            CompiledDevice::compile(device).into_shared(),
            Duration::from_millis(1),
        ))
    }

    fn is_hit(lookup: Lookup) -> bool {
        matches!(lookup, Lookup::Hit(..))
    }

    fn exec(status: CellStatus) -> StageExec {
        StageExec {
            status,
            detail: None,
            metrics: BTreeMap::new(),
            trace: None,
            attempts: 1,
        }
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let cache = TieredCache::new();
        counting(|count| {
            assert!(matches!(cache.lookup(7, &doc("a")), Lookup::Miss));
            cache.insert(7, entry("a"));
            let Lookup::Hit(_, tier) = cache.lookup(7, &doc("a")) else {
                panic!("resident");
            };
            assert_eq!(tier, HitTier::Memory);
            assert_eq!(count("cache.memory_hits"), 1);
            assert_eq!(count("cache.misses"), 1);
            assert_eq!(count("cache.spill_hits"), 0);
        });
        assert_eq!(cache.len(), 1);
        assert!(cache.bytes() > 0);
    }

    #[test]
    fn racing_inserts_converge_on_the_first() {
        let cache = TieredCache::new();
        let first = cache.insert(3, entry("a"));
        let second = cache.insert(3, entry("a"));
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn peek_is_uncounted() {
        let cache = TieredCache::new();
        counting(|count| {
            assert!(!is_hit(cache.peek(5, &doc("a"))));
            cache.insert(5, entry("a"));
            assert!(is_hit(cache.peek(5, &doc("a"))));
            assert_eq!((count("cache.memory_hits"), count("cache.misses")), (0, 0));
        });
    }

    #[test]
    fn stage_results_replay_per_entry() {
        let cache = TieredCache::new();
        let entry = cache.insert(11, entry("a"));
        assert!(entry.stage("validate").is_none());
        let before = cache.bytes();
        cache.store_stage(11, &entry, "validate", &exec(CellStatus::Ok));
        let replayed = entry.stage("validate").expect("stored");
        assert_eq!(replayed.status, CellStatus::Ok);
        assert_eq!(entry.stage_count(), 1);
        assert!(cache.bytes() > before, "stage storage is accounted");
    }

    #[test]
    fn budget_evicts_least_recently_used_first() {
        // Budget fits roughly two bare entries.
        let budget = entry("a").total_cost() * 2 + 32;
        let cache = TieredCache::with_limits(Some(budget), None::<PathBuf>);
        counting(|count| {
            cache.insert(1, entry("a"));
            cache.insert(2, entry("b"));
            assert_eq!(cache.lru_keys(), vec![1, 2]);
            // Touch 1 so 2 becomes the LRU victim.
            assert!(is_hit(cache.lookup(1, &doc("a"))));
            cache.insert(3, entry("c"));
            assert_eq!(cache.len(), 2);
            assert!(!is_hit(cache.peek(2, &doc("b"))), "LRU entry evicted");
            assert!(is_hit(cache.peek(1, &doc("a"))));
            assert!(is_hit(cache.peek(3, &doc("c"))));
            assert!(cache.bytes() <= budget);
            assert_eq!(count("cache.evicted.entries"), 1);
            assert!(count("cache.evicted.bytes") > 0);
        });
    }

    #[test]
    fn an_oversized_sole_entry_is_kept() {
        let cache = TieredCache::with_limits(Some(1), None::<PathBuf>);
        counting(|count| {
            cache.insert(1, entry("oversized"));
            assert_eq!(cache.len(), 1, "never evict down to empty");
            assert_eq!(count("cache.evicted.entries"), 0);
            // A second insert evicts the older one but keeps the newest.
            cache.insert(2, entry("also-oversized"));
            assert_eq!(cache.len(), 1);
            assert!(is_hit(cache.peek(2, &doc("also-oversized"))));
            assert_eq!(count("cache.evicted.entries"), 1);
        });
    }

    #[test]
    fn spill_round_trips_through_a_fresh_cache() {
        let dir =
            std::env::temp_dir().join(format!("parchmint-cache-spill-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = TieredCache::with_limits(None, Some(&dir));
            let entry = cache.insert(77, entry("persisted"));
            cache.store_stage(77, &entry, "validate", &exec(CellStatus::Ok));
        }
        let cache = TieredCache::with_limits(None, Some(&dir));
        counting(|count| {
            let Lookup::Hit(entry, tier) = cache.lookup(77, &doc("persisted")) else {
                panic!("rehydrated");
            };
            assert_eq!(tier, HitTier::Spill);
            assert!(entry.compiled().is_none(), "compile re-materializes lazily");
            assert_eq!(entry.stage("validate").unwrap().status, CellStatus::Ok);
            assert_eq!(entry.doc(), doc("persisted"));
            assert_eq!(entry.design(), "persisted");
            // Now resident: the next lookup is a memory hit.
            let Lookup::Hit(_, tier) = cache.lookup(77, &doc("persisted")) else {
                panic!("resident");
            };
            assert_eq!(tier, HitTier::Memory);
            assert_eq!(
                (count("cache.spill_hits"), count("cache.memory_hits")),
                (1, 1)
            );
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_mint_text_finds_its_entry_and_is_charged_to_it() {
        let cache = TieredCache::new();
        let resident = cache.insert(4, entry("a"));
        let before = cache.bytes();
        counting(|count| {
            cache.index_mint("DEVICE a", 4, &resident);
            assert_eq!(cache.bytes(), before + mint_cost("DEVICE a"));
            let (key, found) = cache.lookup_mint("DEVICE a").expect("indexed");
            assert_eq!(key, 4);
            assert!(Arc::ptr_eq(&found, &resident));
            // Only the identical text matches, and a miss counts nothing.
            assert!(cache.lookup_mint("DEVICE a ").is_none());
            assert!(cache.lookup_mint("DEVICE  a").is_none());
            assert_eq!(
                (count("cache.memory_hits"), count("cache.mint_hits")),
                (1, 1)
            );
            assert_eq!(count("cache.misses"), 0);
        });
        // Indexing the same text again charges nothing more.
        cache.index_mint("DEVICE a", 4, &resident);
        assert_eq!(cache.bytes(), before + mint_cost("DEVICE a"));
    }

    #[test]
    fn only_the_resident_entry_is_indexed() {
        let cache = TieredCache::new();
        let resident = cache.insert(4, entry("a"));
        let before = cache.bytes();
        // Another entry for the key (a collision's unstored entry, or one
        // evicted and replaced) and an empty key are not indexed.
        cache.index_mint("DEVICE a", 4, &entry("a"));
        cache.index_mint("DEVICE a", 5, &resident);
        assert!(cache.lookup_mint("DEVICE a").is_none());
        assert_eq!(cache.bytes(), before);
    }

    #[test]
    fn eviction_takes_the_index_with_its_entry() {
        let budget = entry("a").total_cost() * 2 + mint_cost("DEVICE a") + 32;
        let cache = TieredCache::with_limits(Some(budget), None::<PathBuf>);
        let resident = cache.insert(1, entry("a"));
        cache.index_mint("DEVICE a", 1, &resident);
        cache.insert(2, entry("b"));
        assert_eq!(cache.len(), 2, "the index fits the budget");
        counting(|count| {
            cache.insert(3, entry("c"));
            assert_eq!(cache.lru_keys(), vec![2, 3], "the LRU entry went");
            assert_eq!(count("cache.evicted.entries"), 1);
            let evicted = resident.total_cost() + mint_cost("DEVICE a");
            assert_eq!(count("cache.evicted.bytes"), evicted, "its text went too");
        });
        assert!(cache.lookup_mint("DEVICE a").is_none());
        // The design cached again under its key is not reached by the
        // dropped text until a MINT submission indexes it anew.
        cache.insert(1, entry("a"));
        assert!(cache.lookup_mint("DEVICE a").is_none());
        assert!(cache.bytes() <= budget);
    }

    #[test]
    fn another_documents_entry_is_a_counted_collision() {
        let cache = TieredCache::new();
        counting(|count| {
            cache.insert(9, entry("a"));
            assert!(matches!(cache.lookup(9, &doc("b")), Lookup::Collision));
            assert!(matches!(cache.peek(9, &doc("b")), Lookup::Collision));
            // The resident entry keeps its key; a colliding insert is not stored.
            let other = entry("b");
            assert!(Arc::ptr_eq(&cache.insert(9, Arc::clone(&other)), &other));
            assert!(is_hit(cache.lookup(9, &doc("a"))));
            assert_eq!((count("cache.collisions"), count("cache.misses")), (2, 1));
            assert_eq!(count("cache.memory_hits"), 1);
        });
    }
}
