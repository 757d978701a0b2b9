//! Named graph store and result cache.
//!
//! The registry is where the daemon amortizes work across queries: a graph
//! is parsed, fingerprinted and k-core-decomposed **once** at upload, then
//! every solve shares the `Arc`'d CSR arrays and exact coreness (handed to
//! [`lazymc_core::LazyMc::solve_prepared`], which skips its per-solve
//! k-core phase). Resident graphs are bounded with LRU eviction.
//!
//! The result cache keys completed solves by
//! `(graph name, content fingerprint, Config::canonical_key())`: the
//! fingerprint invalidates entries when a name is re-uploaded with
//! different content, and keeps them when identical content is re-uploaded.
//! Only exact results are cached — a truncated answer depends on budget
//! and machine load, not just the query.

use crate::health::Health;
use crate::persist::SnapshotStore;
use crate::plock;
use lazymc_graph::{CsrGraph, GraphStore, MappedSnapshot};
use lazymc_order::{kcore_sequential, KCoreView};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Default `--mmap-threshold-bytes`: snapshots at least this large load
/// zero-copy through [`lazymc_graph::MappedSnapshot`]; smaller ones decode
/// onto the heap, where pointer-free arrays beat page-cache indirection.
pub const DEFAULT_MMAP_THRESHOLD: u64 = 4 << 20;

/// Where a resident entry's k-core decomposition lives.
enum KCoreSource {
    /// Computed (upload) or decoded (heap reload) onto the heap.
    Owned(Arc<lazymc_order::KCore>),
    /// Embedded in the snapshot the graph is mapped from; views borrow
    /// from that mapping.
    Embedded(Arc<MappedSnapshot>),
}

/// A mapped graph and its decomposition, which borrows from the same
/// mapping.
fn mapped_resident(m: MappedSnapshot) -> (GraphStore, KCoreSource) {
    let m = Arc::new(m);
    (GraphStore::Mapped(m.clone()), KCoreSource::Embedded(m))
}

/// A resident graph with everything precomputed at load time.
pub struct GraphEntry {
    pub name: String,
    /// Heap CSR for uploads/small graphs, zero-copy mapping for large ones.
    pub graph: Arc<GraphStore>,
    /// Exact decomposition (with peel order) shared by every query.
    kcore: KCoreSource,
    pub fingerprint: u64,
    pub loaded_at: Instant,
    /// Milliseconds spent parsing + fingerprinting + decomposing at load
    /// (or decoding/mapping the snapshot, for lazy reloads).
    pub prep_ms: u64,
    /// Whether this entry came from a disk snapshot rather than an upload.
    pub lazy_loaded: bool,
    /// First-solve madvise latch (mapped entries only).
    madvised: AtomicBool,
    queries: AtomicU64,
    last_used: AtomicU64,
}

impl GraphEntry {
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Borrowed view of the decomposition, regardless of where it lives.
    /// Mapped entries hand out slices straight into the file mapping.
    pub fn kcore_view(&self) -> KCoreView<'_> {
        match &self.kcore {
            KCoreSource::Owned(kc) => kc.view(),
            KCoreSource::Embedded(m) => KCoreView {
                coreness: m.coreness(),
                degeneracy: m.degeneracy(),
                peel_order: m.peel_order(),
            },
        }
    }

    pub fn degeneracy(&self) -> u32 {
        self.kcore_view().degeneracy
    }

    pub fn omega_upper_bound(&self) -> usize {
        self.kcore_view().omega_upper_bound()
    }

    /// Whether this entry serves straight from a page-cache-backed mapping.
    pub fn is_mapped(&self) -> bool {
        self.graph.is_mapped()
    }

    /// On the first solve touching a mapped entry, hint the kernel:
    /// prefetch the whole file now (`WILLNEED`), then disable readahead
    /// (`RANDOM`) for the branch-and-bound neighbourhood probes. No-op
    /// for heap entries and on every later call.
    pub fn advise_first_solve(&self) {
        if let Some(m) = self.graph.as_mapped() {
            if !self.madvised.swap(true, Ordering::Relaxed) {
                m.advise_willneed();
                m.advise_random();
            }
        }
    }
}

/// Bounded, thread-safe store of named graphs, optionally backed by a
/// [`SnapshotStore`]: uploads persist durably, LRU eviction only frees
/// memory (the snapshot stays), and a post-eviction or post-restart lookup
/// reloads the graph *and its precomputed coreness* from disk instead of
/// answering 404 — no re-upload, no re-core.
pub struct Registry {
    graphs: Mutex<HashMap<String, Arc<GraphEntry>>>,
    /// Names with a mutation in flight (lazy reload, upload, or removal);
    /// paired with `loading_done`. Concurrent misses on one name decode
    /// the snapshot once (single-flight), and reload/insert/remove never
    /// interleave on the same name (see [`Registry::acquire_name_slot`]).
    loading: Mutex<HashSet<String>>,
    loading_done: Condvar,
    store: Option<Arc<SnapshotStore>>,
    /// Degraded-health sink for snapshot write failures (see [`Health`]).
    health: Option<Arc<Health>>,
    capacity: usize,
    /// Snapshot size (bytes) at or above which loads go zero-copy.
    mmap_threshold: AtomicU64,
    clock: AtomicU64,
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub evictions: AtomicU64,
    /// k-core decompositions computed in-process (uploads). Lazy reloads
    /// deserialize instead, so this staying flat across a restart is the
    /// observable proof of work-avoidance.
    pub core_computes: AtomicU64,
}

impl Registry {
    /// A memory-only registry holding at most `capacity` graphs (≥ 1).
    pub fn new(capacity: usize) -> Registry {
        Registry::with_store(capacity, None)
    }

    /// A registry persisting every upload into `store` (when given).
    pub fn with_store(capacity: usize, store: Option<Arc<SnapshotStore>>) -> Registry {
        Registry::with_store_health(capacity, store, None)
    }

    /// Like [`Registry::with_store`], but snapshot write failures also
    /// flip `health` into the degraded state (and the next successful
    /// write clears it) instead of only logging.
    pub fn with_store_health(
        capacity: usize,
        store: Option<Arc<SnapshotStore>>,
        health: Option<Arc<Health>>,
    ) -> Registry {
        Registry {
            graphs: Mutex::new(HashMap::new()),
            loading: Mutex::new(HashSet::new()),
            loading_done: Condvar::new(),
            store,
            health,
            capacity: capacity.max(1),
            mmap_threshold: AtomicU64::new(DEFAULT_MMAP_THRESHOLD),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            core_computes: AtomicU64::new(0),
        }
    }

    /// The backing snapshot store, if any.
    pub fn store(&self) -> Option<&Arc<SnapshotStore>> {
        self.store.as_ref()
    }

    /// Sets the zero-copy threshold: snapshots of at least `bytes` load
    /// via `mmap` instead of a heap decode. `0` maps everything.
    pub fn set_mmap_threshold(&self, bytes: u64) {
        self.mmap_threshold.store(bytes, Ordering::Relaxed);
    }

    pub fn mmap_threshold(&self) -> u64 {
        self.mmap_threshold.load(Ordering::Relaxed)
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Registers `graph` under `name`, computing fingerprint and k-core
    /// once and (with a store) persisting the snapshot before it becomes
    /// visible. Replaces any same-named graph; evicts the
    /// least-recently-used entry when over capacity — eviction frees
    /// memory only, never the snapshot. Returns the shared entry.
    pub fn insert(&self, name: &str, graph: CsrGraph) -> Arc<GraphEntry> {
        let t = Instant::now();
        let kcore = kcore_sequential(&graph);
        self.core_computes.fetch_add(1, Ordering::Relaxed);
        // Claim the name's mutation slot only after the expensive
        // preprocessing: from here, save + install must not interleave
        // with a lazy reload of the same name (a loader that read the old
        // snapshot could otherwise install stale data over this upload).
        self.acquire_name_slot(name);
        let mut saved = None;
        if let Some(store) = &self.store {
            match store.save(name, &graph, &kcore) {
                Ok(s) => {
                    saved = Some(s);
                    // Disk works again: the snapshot subsystem is healthy,
                    // even if earlier uploads remain memory-only.
                    if let Some(health) = &self.health {
                        health.clear("snapshot");
                    }
                }
                Err(e) => {
                    store.write_errors.fetch_add(1, Ordering::Relaxed);
                    if let Some(health) = &self.health {
                        health.degrade(
                            "snapshot",
                            format!("snapshot write for {name:?} failed: {e}"),
                        );
                    }
                    eprintln!(
                        "lazymc-service: snapshot write for {name:?} failed ({e}); \
                         graph is resident but not durable"
                    );
                }
            }
        }
        // Large snapshots become the resident representation themselves:
        // drop the heap CSR and owned decomposition, re-map the file just
        // written, and let the page cache own the bytes.
        // The snapshot writer already hashed the CSR into its header; hash
        // here only when nothing was written.
        let fingerprint = saved.map_or_else(|| graph.fingerprint(), |s| s.fingerprint);
        let mapped = saved
            .filter(|s| s.bytes >= self.mmap_threshold.load(Ordering::Relaxed))
            .and(self.store.as_ref())
            .and_then(|store| store.load_mapped(name));
        let prep_ms = t.elapsed().as_millis() as u64;
        let (graph, kcore) = match mapped {
            Some(m) => mapped_resident(m),
            None => (GraphStore::Heap(graph), KCoreSource::Owned(Arc::new(kcore))),
        };
        let entry = self.install(name, graph, kcore, fingerprint, prep_ms, false);
        self.release_name_slot(name);
        entry
    }

    /// Builds the entry and installs it under the map lock, applying LRU
    /// eviction. Shared by uploads and lazy reloads.
    fn install(
        &self,
        name: &str,
        graph: GraphStore,
        kcore: KCoreSource,
        fingerprint: u64,
        prep_ms: u64,
        lazy_loaded: bool,
    ) -> Arc<GraphEntry> {
        let entry = Arc::new(GraphEntry {
            name: name.to_string(),
            graph: Arc::new(graph),
            kcore,
            fingerprint,
            loaded_at: Instant::now(),
            prep_ms,
            lazy_loaded,
            madvised: AtomicBool::new(false),
            queries: AtomicU64::new(0),
            last_used: AtomicU64::new(self.tick()),
        });
        let mut map = plock(&self.graphs);
        map.insert(name.to_string(), entry.clone());
        // Mapped entries cost ~nothing resident (the page cache owns their
        // bytes and reclaims them under pressure), so capacity — and the
        // eviction it drives — counts heap entries only.
        loop {
            let heap_resident = map.values().filter(|e| !e.graph.is_mapped()).count();
            if heap_resident <= self.capacity {
                break;
            }
            // Evict the stalest heap entry that is not the one just
            // inserted. In-flight solves keep their `Arc<GraphEntry>`
            // alive; with a store, the victim's snapshot remains on disk
            // for lazy reload.
            let victim = map
                .iter()
                .filter(|(k, e)| k.as_str() != name && !e.graph.is_mapped())
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    map.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
        entry
    }

    /// Resident-map probe, bumping LRU stamp and query count on a hit.
    fn lookup_resident(&self, name: &str) -> Option<Arc<GraphEntry>> {
        let map = plock(&self.graphs);
        map.get(name).map(|e| {
            e.last_used.store(self.tick(), Ordering::Relaxed);
            e.queries.fetch_add(1, Ordering::Relaxed);
            e.clone()
        })
    }

    /// Looks up a graph. A memory miss falls through to the snapshot store
    /// (when configured): the first lookup after a restart or eviction
    /// decodes the snapshot — graph *and* coreness, no recomputation — and
    /// re-installs it. Concurrent misses on one name are single-flighted.
    pub fn get(&self, name: &str) -> Option<Arc<GraphEntry>> {
        if let Some(e) = self.lookup_resident(name) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(e);
        }
        let reloadable = self
            .store
            .as_ref()
            .is_some_and(|store| store.contains(name));
        if !reloadable {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        // Win or wait for the per-name slot (shared with insert/remove).
        {
            let mut loading = plock(&self.loading);
            while loading.contains(name) {
                loading = self
                    .loading_done
                    .wait(loading)
                    .unwrap_or_else(PoisonError::into_inner);
                // The prior holder finished; its entry (if any) is resident.
                drop(loading);
                if let Some(e) = self.lookup_resident(name) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(e);
                }
                loading = plock(&self.loading);
            }
            loading.insert(name.to_string());
        }
        // We hold the slot. Re-check residency first: a load may have
        // completed between our miss and winning the slot — reloading again
        // would double-insert and reset the entry's counters.
        if let Some(e) = self.lookup_resident(name) {
            self.release_name_slot(name);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(e);
        }
        let t = Instant::now();
        // Large snapshots re-enter as zero-copy mappings — O(µs), no heap
        // decode, no k-core extraction copies. Small ones decode as before.
        let use_mmap = self
            .store
            .as_ref()
            .and_then(|store| store.bytes_of(name))
            .is_some_and(|bytes| bytes >= self.mmap_threshold.load(Ordering::Relaxed));
        let loaded = if use_mmap {
            self.store
                .as_ref()
                .and_then(|store| store.load_mapped(name))
                .map(|m| {
                    let fingerprint = m.fingerprint();
                    let (graph, kcore) = mapped_resident(m);
                    (graph, kcore, fingerprint)
                })
        } else {
            self.store.as_ref().and_then(|store| store.load(name)).map(
                |(graph, kcore, fingerprint)| {
                    (
                        GraphStore::Heap(graph),
                        KCoreSource::Owned(Arc::new(kcore)),
                        fingerprint,
                    )
                },
            )
        };
        let result = match loaded {
            Some((graph, kcore, fingerprint)) => {
                let entry = self.install(
                    name,
                    graph,
                    kcore,
                    fingerprint,
                    t.elapsed().as_millis() as u64,
                    true,
                );
                entry.queries.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        };
        self.release_name_slot(name);
        result
    }

    /// Blocks until `name`'s mutation slot is free, then claims it. The
    /// slot serializes the three per-name mutators — lazy reload (in
    /// [`Registry::get`]), [`Registry::insert`], [`Registry::remove`] — so
    /// a DELETE cannot interleave with an in-flight disk reload (which
    /// would resurrect the deleted graph) and a re-upload cannot be
    /// overwritten by a loader that read the previous snapshot.
    fn acquire_name_slot(&self, name: &str) {
        let mut loading = plock(&self.loading);
        while loading.contains(name) {
            loading = self
                .loading_done
                .wait(loading)
                .unwrap_or_else(PoisonError::into_inner);
        }
        loading.insert(name.to_string());
    }

    fn release_name_slot(&self, name: &str) {
        plock(&self.loading).remove(name);
        self.loading_done.notify_all();
    }

    /// Drops a graph by name — from memory *and* from the snapshot store
    /// (DELETE means forget durably, unlike eviction). Returns `true` if
    /// the graph existed in either place. Solves already holding the entry
    /// keep their `Arc`'d arrays; only the name and the file go away.
    pub fn remove(&self, name: &str) -> bool {
        self.acquire_name_slot(name);
        let in_memory = plock(&self.graphs).remove(name).is_some();
        let on_disk = self.store.as_ref().is_some_and(|store| store.remove(name));
        self.release_name_slot(name);
        in_memory || on_disk
    }

    /// Drops the resident entry for `name` iff it is a zero-copy mapping.
    /// Used when the backing snapshot is quarantined: the mapping's pages
    /// belong to the rotted file, so it must not serve another solve. Heap
    /// entries own their (decode-validated) arrays and stay resident.
    pub fn drop_mapped(&self, name: &str) -> bool {
        let mut map = plock(&self.graphs);
        if map.get(name).is_some_and(|e| e.graph.is_mapped()) {
            map.remove(name);
            true
        } else {
            false
        }
    }

    pub fn len(&self) -> usize {
        plock(&self.graphs).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of resident entries, stalest first.
    pub fn entries(&self) -> Vec<Arc<GraphEntry>> {
        let map = plock(&self.graphs);
        let mut v: Vec<Arc<GraphEntry>> = map.values().cloned().collect();
        v.sort_by_key(|e| e.last_used.load(Ordering::Relaxed));
        v
    }
}

/// A cached exact solve.
#[derive(Debug, Clone)]
pub struct CachedSolve {
    pub omega: usize,
    pub clique: Vec<u32>,
    /// Milliseconds the original (uncached) solve took.
    pub solve_ms: u64,
}

/// LRU cache of exact solve results keyed by
/// `(graph name, content fingerprint, canonical config)`.
///
/// The fingerprint makes re-uploading identical content under the same
/// name keep its cache entries while changed content invalidates them.
/// The *name* is in the key because the fingerprint alone is a 64-bit
/// non-cryptographic hash: an adversarial upload could collide it and a
/// hit would then return another graph's clique. With the name included,
/// a collision requires replacing that very graph, which already hands
/// the uploader control of its answers.
///
/// Eviction is accounted in **bytes**, not entries: a thousand 3-vertex
/// cliques and a thousand 10k-vertex witnesses are not the same memory,
/// and long-lived daemons care about the latter. Entries additionally
/// expire after `ttl` (when set) so a years-resident deployment does not
/// pin every answer it ever produced.
pub struct ResultCache {
    inner: Mutex<CacheInner>,
    max_bytes: usize,
    ttl: Option<Duration>,
    clock: AtomicU64,
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub ttl_evictions: AtomicU64,
    pub size_evictions: AtomicU64,
}

struct CacheInner {
    #[allow(clippy::type_complexity)]
    map: HashMap<(String, u64, String), CacheSlot>,
    bytes: usize,
}

struct CacheSlot {
    used: u64,
    stored: Instant,
    bytes: usize,
    result: CachedSolve,
}

/// Approximate heap footprint of one cache entry: both key strings, the
/// clique witness, and fixed bookkeeping overhead.
fn entry_bytes(name: &str, canonical: &str, result: &CachedSolve) -> usize {
    name.len() + canonical.len() + result.clique.len() * 4 + 96
}

impl ResultCache {
    /// A cache bounded at `max_bytes` of accounted entry footprint, with
    /// entries expiring `ttl` after insertion (`None` = never).
    pub fn new(max_bytes: usize, ttl: Option<Duration>) -> ResultCache {
        ResultCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                bytes: 0,
            }),
            max_bytes: max_bytes.max(1),
            ttl,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            ttl_evictions: AtomicU64::new(0),
            size_evictions: AtomicU64::new(0),
        }
    }

    pub fn get(&self, name: &str, fingerprint: u64, canonical: &str) -> Option<CachedSolve> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut inner = plock(&self.inner);
        let key = (name.to_string(), fingerprint, canonical.to_string());
        if let Some(slot) = inner.map.get_mut(&key) {
            if let Some(ttl) = self.ttl {
                if slot.stored.elapsed() > ttl {
                    let bytes = slot.bytes;
                    inner.map.remove(&key);
                    inner.bytes -= bytes;
                    self.ttl_evictions.fetch_add(1, Ordering::Relaxed);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            }
            slot.used = stamp;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(slot.result.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    pub fn put(&self, name: &str, fingerprint: u64, canonical: String, result: CachedSolve) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let bytes = entry_bytes(name, &canonical, &result);
        // An entry larger than the whole cache would evict everything and
        // still not fit; don't admit it.
        if bytes > self.max_bytes {
            return;
        }
        let mut inner = plock(&self.inner);
        let old = inner.map.insert(
            (name.to_string(), fingerprint, canonical),
            CacheSlot {
                used: stamp,
                stored: Instant::now(),
                bytes,
                result,
            },
        );
        inner.bytes += bytes;
        if let Some(old) = old {
            inner.bytes -= old.bytes;
        }
        // Expired entries go first, then LRU, until the byte budget holds.
        if inner.bytes > self.max_bytes {
            if let Some(ttl) = self.ttl {
                let expired: Vec<_> = inner
                    .map
                    .iter()
                    .filter(|(_, s)| s.stored.elapsed() > ttl)
                    .map(|(k, _)| k.clone())
                    .collect();
                for k in expired {
                    if let Some(s) = inner.map.remove(&k) {
                        inner.bytes -= s.bytes;
                        self.ttl_evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        while inner.bytes > self.max_bytes {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, s)| s.used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    if let Some(s) = inner.map.remove(&k) {
                        inner.bytes -= s.bytes;
                        self.size_evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => break,
            }
        }
    }

    /// Accounted bytes currently cached.
    pub fn bytes(&self) -> usize {
        plock(&self.inner).bytes
    }

    pub fn len(&self) -> usize {
        plock(&self.inner).map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use lazymc_graph::{gen, GraphAccess};

    #[test]
    fn insert_precomputes_and_get_bumps_counters() {
        let reg = Registry::new(4);
        let g = gen::planted_clique(100, 0.05, 8, 3);
        let fp = g.fingerprint();
        let e = reg.insert("g1", g);
        assert_eq!(e.fingerprint, fp);
        assert!(e.degeneracy() >= 7);
        assert!(
            !e.kcore_view().peel_order.is_empty(),
            "exact peel order expected"
        );

        assert!(reg.get("nope").is_none());
        let e2 = reg.get("g1").unwrap();
        assert_eq!(e2.fingerprint, fp);
        assert_eq!(e2.queries(), 1);
        assert_eq!(reg.hits.load(Ordering::Relaxed), 1);
        assert_eq!(reg.misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn lru_eviction_keeps_recently_used() {
        let reg = Registry::new(2);
        reg.insert("a", gen::complete(5));
        reg.insert("b", gen::complete(6));
        reg.get("a"); // a is now fresher than b
        reg.insert("c", gen::complete(7));
        assert_eq!(reg.len(), 2);
        assert!(reg.get("a").is_some());
        assert!(reg.get("b").is_none(), "stalest entry should be evicted");
        assert!(reg.get("c").is_some());
        assert_eq!(reg.evictions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn replacing_same_name_does_not_evict_others() {
        let reg = Registry::new(2);
        reg.insert("a", gen::complete(5));
        reg.insert("b", gen::complete(6));
        reg.insert("a", gen::complete(9));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.get("a").unwrap().graph.num_vertices(), 9);
        assert!(reg.get("b").is_some());
    }

    fn tmp_store(tag: &str) -> (std::path::PathBuf, Arc<SnapshotStore>) {
        let dir = std::env::temp_dir().join(format!(
            "lazymc_reg_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(SnapshotStore::open(&dir).unwrap());
        (dir, store)
    }

    #[test]
    fn insert_fingerprints_once_whether_or_not_a_snapshot_is_written() {
        let g = gen::planted_clique(80, 0.1, 6, 4);
        let fp = g.fingerprint();
        let (dir, store) = tmp_store("fingerprint");
        let reg = Registry::with_store(4, Some(store.clone()));
        // Written: the fingerprint comes back from the snapshot header.
        assert_eq!(reg.insert("ok", g.clone()).fingerprint, fp);
        assert_eq!(store.fingerprint_of("ok"), Some(fp));
        // Not persistable: the save fails and the registry hashes itself.
        assert_eq!(reg.insert("a/b", g.clone()).fingerprint, fp);
        assert_eq!(store.write_errors.load(Ordering::Relaxed), 1);
        // No store at all.
        assert_eq!(Registry::new(4).insert("x", g).fingerprint, fp);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_registry_reloads_after_restart_without_recore() {
        let (dir, store) = tmp_store("restart");
        let g = gen::planted_clique(100, 0.05, 8, 3);
        let fp = g.fingerprint();
        let kcore_expected = kcore_sequential(&g);
        {
            let reg = Registry::with_store(4, Some(store.clone()));
            reg.insert("g1", g.clone());
            assert_eq!(reg.core_computes.load(Ordering::Relaxed), 1);
            assert_eq!(store.writes.load(Ordering::Relaxed), 1);
        }
        // "Restart": fresh store over the same dir, fresh registry.
        let store2 = Arc::new(SnapshotStore::open(&dir).unwrap());
        let reg2 = Registry::with_store(4, Some(store2.clone()));
        assert_eq!(reg2.len(), 0, "nothing resident before first touch");
        let e = reg2.get("g1").expect("lazy reload");
        assert!(e.lazy_loaded);
        assert_eq!(e.fingerprint, fp);
        assert_eq!(e.graph.fingerprint(), g.fingerprint());
        assert_eq!(e.graph.num_vertices(), g.num_vertices());
        assert_eq!(
            e.kcore_view(),
            kcore_expected.view(),
            "identical decomposition"
        );
        assert_eq!(reg2.core_computes.load(Ordering::Relaxed), 0, "no re-core");
        assert_eq!(store2.lazy_loads.load(Ordering::Relaxed), 1);
        assert_eq!(reg2.hits.load(Ordering::Relaxed), 1);
        // Second lookup is a plain memory hit — no further disk work.
        reg2.get("g1").unwrap();
        assert_eq!(store2.lazy_loads.load(Ordering::Relaxed), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_keeps_snapshot_and_inflight_entry_usable() {
        let (dir, store) = tmp_store("evict");
        let reg = Registry::with_store(2, Some(store.clone()));
        let g = gen::planted_clique(80, 0.06, 7, 5);
        reg.insert("a", g.clone());
        // Simulate a solve that grabbed the entry and is mid-flight.
        let held = reg.get("a").unwrap();
        // Two more inserts evict "a" from memory.
        reg.insert("b", gen::complete(5));
        reg.insert("c", gen::complete(6));
        assert_eq!(reg.evictions.load(Ordering::Relaxed), 1);
        assert_eq!(reg.len(), 2);
        // The in-flight solve still works against the evicted entry's
        // arrays, and the snapshot file was NOT unlinked by the eviction.
        let expected = lazymc_core::LazyMc::new(lazymc_core::Config::default())
            .solve(&g)
            .size();
        let deadline = lazymc_core::Deadline::starting_now(None);
        let r = lazymc_core::LazyMc::new(lazymc_core::Config::default()).solve_prepared(
            held.graph.as_ref(),
            Some(held.kcore_view()),
            &deadline,
            None,
        );
        assert!(r.is_exact());
        assert_eq!(r.size(), expected, "solve against evicted entry must agree");
        assert!(store.contains("a"), "eviction must not unlink the snapshot");
        // A later lookup lazily reloads the evicted graph from disk.
        let reloaded = reg.get("a").expect("reload after eviction");
        assert!(reloaded.lazy_loaded);
        assert_eq!(reloaded.fingerprint, held.fingerprint);
        assert_eq!(reloaded.graph.fingerprint(), held.graph.fingerprint());
        assert_eq!(
            reg.core_computes.load(Ordering::Relaxed),
            3,
            "3 inserts, 0 reloads"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mmap_reload_skips_decode_and_matches_heap() {
        let (dir, store) = tmp_store("mmapreload");
        let g = gen::planted_clique(120, 0.05, 8, 11);
        {
            let reg = Registry::with_store(4, Some(store.clone()));
            reg.insert("big", g.clone());
        }
        let store2 = Arc::new(SnapshotStore::open(&dir).unwrap());
        let reg = Registry::with_store(4, Some(store2.clone()));
        reg.set_mmap_threshold(0); // force the zero-copy path
        let e = reg.get("big").expect("mapped reload");
        assert!(e.is_mapped());
        assert_eq!(store2.mmap_loads.load(Ordering::Relaxed), 1);
        assert_eq!(
            store2.lazy_loads.load(Ordering::Relaxed),
            0,
            "mapped reload must not decode onto the heap"
        );
        assert_eq!(reg.core_computes.load(Ordering::Relaxed), 0, "no re-core");
        assert_eq!(e.graph.fingerprint(), g.fingerprint());
        assert_eq!(e.kcore_view(), kcore_sequential(&g).view());
        // Solving through the mapping agrees with the heap solve.
        let deadline = lazymc_core::Deadline::starting_now(None);
        e.advise_first_solve();
        let r = lazymc_core::LazyMc::new(lazymc_core::Config::default()).solve_prepared(
            e.graph.as_ref(),
            Some(e.kcore_view()),
            &deadline,
            None,
        );
        let expected = lazymc_core::LazyMc::new(lazymc_core::Config::default()).solve(&g);
        assert!(r.is_exact());
        assert_eq!(r.size(), expected.size());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mapped_entries_do_not_count_toward_eviction_capacity() {
        let (dir, store) = tmp_store("mmapevict");
        let reg = Registry::with_store(2, Some(store.clone()));
        reg.set_mmap_threshold(0); // every insert installs as a mapping
        reg.insert("a", gen::complete(5));
        reg.insert("b", gen::complete(6));
        reg.insert("c", gen::complete(7));
        reg.insert("d", gen::complete(8));
        assert_eq!(reg.len(), 4, "mapped entries are resident-cost-free");
        assert_eq!(reg.evictions.load(Ordering::Relaxed), 0);
        for (name, n) in [("a", 5), ("b", 6), ("c", 7), ("d", 8)] {
            let e = reg.get(name).unwrap();
            assert!(e.is_mapped());
            assert_eq!(e.graph.num_vertices(), n);
            assert_eq!(e.graph.heap_bytes(), 0);
            assert!(e.graph.mapped_bytes() > 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_misses_single_flight_one_load() {
        let (dir, store) = tmp_store("flight");
        {
            let reg = Registry::with_store(2, Some(store.clone()));
            reg.insert("hot", gen::planted_clique(150, 0.05, 8, 9));
            // Evict "hot" so every thread below starts from a memory miss.
            reg.insert("x", gen::complete(4));
            reg.insert("y", gen::complete(4));
            assert!(reg.get("hot").is_some());
        }
        let store2 = Arc::new(SnapshotStore::open(&dir).unwrap());
        let reg = Arc::new(Registry::with_store(4, Some(store2.clone())));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let reg = reg.clone();
                std::thread::spawn(move || reg.get("hot").expect("reload").fingerprint)
            })
            .collect();
        let fps: Vec<u64> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        assert!(fps.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(
            store2.lazy_loads.load(Ordering::Relaxed),
            1,
            "8 racing misses must decode the snapshot exactly once"
        );
        assert_eq!(reg.core_computes.load(Ordering::Relaxed), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_is_final_under_concurrent_lazy_reloads() {
        let (dir, store) = tmp_store("race");
        {
            let reg = Registry::with_store(2, Some(store.clone()));
            reg.insert("hot", gen::planted_clique(120, 0.05, 7, 1));
            reg.insert("x", gen::complete(4));
            reg.insert("y", gen::complete(4)); // "hot" now disk-only
        }
        let store2 = Arc::new(SnapshotStore::open(&dir).unwrap());
        let reg = Arc::new(Registry::with_store(4, Some(store2.clone())));
        // Hammer get() from many threads while remove() lands mid-storm:
        // whatever interleaving occurs, once remove() has returned the
        // graph must be gone for good — no lazy resurrection.
        let getters: Vec<_> = (0..6)
            .map(|_| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let _ = reg.get("hot");
                    }
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(2));
        reg.remove("hot");
        for t in getters {
            t.join().unwrap();
        }
        assert!(reg.get("hot").is_none(), "removed graph must stay removed");
        assert!(!store2.contains("hot"));
        assert!(!dir.join("hot.lmcs").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_unlinks_snapshot_but_eviction_does_not() {
        let (dir, store) = tmp_store("remove");
        let reg = Registry::with_store(4, Some(store.clone()));
        reg.insert("gone", gen::complete(5));
        assert!(store.contains("gone"));
        assert!(reg.remove("gone"));
        assert!(!store.contains("gone"), "DELETE must unlink the snapshot");
        assert!(
            reg.get("gone").is_none(),
            "no lazy resurrection after DELETE"
        );
        // Removing a graph that is only on disk (evicted) also works.
        let reg2 = Registry::with_store(1, Some(store.clone()));
        reg2.insert("d1", gen::complete(4));
        reg2.insert("d2", gen::complete(4)); // evicts d1 from memory
        assert!(store.contains("d1"));
        assert!(reg2.remove("d1"), "disk-only graph is still deletable");
        assert!(!store.contains("d1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_write_failure_degrades_health_and_success_clears_it() {
        let (dir, store) = tmp_store("health");
        let health = Arc::new(Health::new());
        let reg = Registry::with_store_health(4, Some(store.clone()), Some(health.clone()));
        reg.insert("ok", gen::complete(4));
        assert!(!health.is_degraded());
        // Break the store out from under the registry: replace the data
        // directory with a plain file so the atomic temp write fails.
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"not a dir").unwrap();
        reg.insert("broken", gen::complete(5));
        assert!(health.is_degraded());
        assert!(health.reasons().iter().any(|(c, _)| *c == "snapshot"));
        assert_eq!(store.write_errors.load(Ordering::Relaxed), 1);
        // Graceful degradation: the graph is resident and queryable even
        // though it never reached disk.
        assert!(reg.get("broken").is_some());
        // Fix the disk; the next successful write clears the reason.
        std::fs::remove_file(&dir).unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        reg.insert("fixed", gen::complete(4));
        assert!(!health.is_degraded());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn result_cache_hits_and_evicts_by_bytes() {
        // Budget fits exactly two of these entries (each ~113 bytes).
        let r = CachedSolve {
            omega: 4,
            clique: vec![1, 2, 3, 4],
            solve_ms: 12,
        };
        let per_entry = super::entry_bytes("g", "k1", &r);
        let cache = ResultCache::new(2 * per_entry + per_entry / 2, None);
        assert!(cache.get("g", 7, "k1").is_none());
        cache.put("g", 7, "k1".into(), r.clone());
        assert_eq!(cache.bytes(), per_entry);
        let hit = cache.get("g", 7, "k1").unwrap();
        assert_eq!(hit.omega, 4);
        assert_eq!(hit.clique, vec![1, 2, 3, 4]);
        // Same config on different content misses; so does a fingerprint
        // collision under a different name.
        assert!(cache.get("g", 8, "k1").is_none());
        assert!(cache.get("other", 7, "k1").is_none());
        cache.put("g", 8, "k1".into(), r.clone());
        cache.get("g", 7, "k1"); // freshen (g, 7, k1)
        cache.put("g", 9, "k1".into(), r.clone());
        assert_eq!(cache.len(), 2, "third entry must evict over the budget");
        assert!(
            cache.get("g", 7, "k1").is_some(),
            "freshened entry survives"
        );
        assert!(cache.get("g", 8, "k1").is_none(), "stalest entry evicted");
        assert_eq!(cache.size_evictions.load(Ordering::Relaxed), 1);
        assert!(cache.bytes() <= 2 * per_entry + per_entry / 2);

        // A big witness displaces several small entries' worth of budget.
        let big = CachedSolve {
            omega: 64,
            clique: (0..2000).collect(),
            solve_ms: 1,
        };
        cache.put("g", 10, "k1".into(), big.clone());
        assert!(
            cache.get("g", 10, "k1").is_none(),
            "an entry larger than the whole cache is not admitted"
        );
        let roomy = ResultCache::new(64 << 10, None);
        roomy.put("g", 10, "k1".into(), big);
        assert!(roomy.bytes() > 2000 * 4, "bytes track the witness size");
    }

    #[test]
    fn result_cache_ttl_expires_entries() {
        let r = CachedSolve {
            omega: 3,
            clique: vec![1, 2, 3],
            solve_ms: 5,
        };
        let cache = ResultCache::new(1 << 20, Some(Duration::from_millis(40)));
        cache.put("g", 1, "k".into(), r.clone());
        assert!(cache.get("g", 1, "k").is_some(), "fresh entry hits");
        std::thread::sleep(Duration::from_millis(60));
        assert!(cache.get("g", 1, "k").is_none(), "expired entry misses");
        assert_eq!(cache.ttl_evictions.load(Ordering::Relaxed), 1);
        assert_eq!(cache.bytes(), 0, "expiry returns the bytes");
        // Without a TTL nothing expires.
        let forever = ResultCache::new(1 << 20, None);
        forever.put("g", 1, "k".into(), r);
        std::thread::sleep(Duration::from_millis(50));
        assert!(forever.get("g", 1, "k").is_some());
    }
}
