//! Persistent cross-run evaluation cache, backed by the content-addressed
//! evaluation store.
//!
//! Optimal-inlining searches are embarrassingly re-runnable: the same
//! module is searched again after an autotuner restart, a flag tweak, or a
//! fresh process. Every one of those runs re-pays the full compile bill
//! unless results survive the process. [`PersistentCache`] keeps them on
//! disk through [`optinline_store`]: one *scope* per evaluation domain
//! (module text + target + pipeline options — the evaluator's
//! `memo_scope` fingerprint), living in a sharded directory with batched
//! appends, compaction, and size-budgeted GC. See the store crate (and
//! DESIGN.md §5) for the layout and crash-safety argument.
//!
//! What this module adds on top of the raw store:
//!
//! - **Canonical keying.** Entries are keyed by the configuration's
//!   inlined-site set restricted to the module's sites — matching the
//!   whole-module memo key of [`SizeEvaluator`](crate::SizeEvaluator), so a
//!   hit is exactly a compile avoided.
//! - **Identity derivation.** [`cache_meta`] builds the human-auditable
//!   identity tag recorded on (and verified against) every scope log.
//! - **[`PersistentEvaluator`]**, the only store-backed [`Evaluator`]: the
//!   adapter the CLI layers under `search`/`autotune` and the experiments
//!   harness under its cases when a cache directory is given — answer
//!   from the store, forward misses, record every fresh result.

use crate::config::InliningConfiguration;
use crate::evaluator::{module_hash, Evaluator};
use crate::measure::Objective;
use optinline_ir::{CallSiteId, Measurement, Module};
use optinline_store::{LocalStore, Scope, StoreStats};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

/// A stable fingerprint identifying (module, target), without the
/// pipeline options [`domain_fingerprint`](crate::domain_fingerprint)
/// adds. No store scope is addressed by it any more; it is kept because
/// the benchmark's cache opener imports it, and goes once that stops.
pub fn module_fingerprint(module: &Module, target_name: &str) -> u128 {
    module_hash(module, target_name).finish()
}

/// The identity tag recorded on a scope log and verified at every open.
pub fn cache_meta(module: &Module, target_name: &str) -> String {
    format!("{} target={} sites={}", module.name, target_name, module.inlinable_sites().len())
}

/// The on-disk size cache: one scope of the shared evaluation store.
#[derive(Debug)]
pub struct PersistentCache {
    store: Arc<LocalStore>,
    scope: Scope,
    /// The scope's counters when this cache took it: a held scope has
    /// counted earlier requests.
    base: StoreStats,
    /// What a fresh open would have loaded when this cache took it.
    loaded: u64,
}

impl PersistentCache {
    /// Opens (or creates) the cache for `fingerprint` inside the store
    /// rooted at `dir`, loading every well-formed entry already on disk.
    /// `meta` names what the scope is for (module, target, site count) and
    /// is verified against the recorded identity: a mismatch — an FNV
    /// fingerprint collision, or a stale file — restarts the scope instead
    /// of serving another module's sizes.
    pub fn open(dir: &Path, fingerprint: u128, meta: &str) -> std::io::Result<Self> {
        let store = LocalStore::shared(dir)?;
        let scope = store.scope(fingerprint, meta)?;
        let (base, loaded) = (scope.counters(), scope.logged());
        Ok(PersistentCache { store, scope, base, loaded })
    }

    /// [`PersistentCache::open`] under its former signature. The third
    /// argument named a pre-store flat cache file to import; that import
    /// is gone, so the argument is ignored. The benchmark's cache opener
    /// still calls this, so it stays until that caller moves to `open`.
    pub fn open_scoped(
        dir: &Path,
        fingerprint: u128,
        _legacy: Option<u128>,
        meta: &str,
    ) -> std::io::Result<Self> {
        Self::open(dir, fingerprint, meta)
    }

    /// Looks up the measurement recorded for a canonical inlined-site set.
    /// Size-only entries surface as `cycles: None`.
    pub fn get(&self, key: &[CallSiteId]) -> Option<Measurement> {
        self.scope.get(key)
    }

    /// Records a result in the store's write-back buffer (made durable by
    /// a threshold flush, [`PersistentCache::flush`], or drop). I/O errors
    /// are swallowed — the cache is an accelerator, never a correctness
    /// dependency; the in-memory entry is kept either way.
    pub fn put(&self, key: Vec<CallSiteId>, value: Measurement) {
        self.scope.put(key, value);
    }

    /// Flushes buffered writes for this scope.
    pub fn flush(&self) -> std::io::Result<()> {
        self.scope.flush()
    }

    /// Number of entries currently resident (a bounded subset of the log).
    pub fn len(&self) -> usize {
        self.scope.len()
    }

    /// Whether the cache holds no resident entries.
    pub fn is_empty(&self) -> bool {
        self.scope.is_empty()
    }

    /// The backing scope log's path.
    pub fn path(&self) -> &Path {
        self.scope.path()
    }

    /// The store this cache lives in (shared per directory per process).
    pub fn store(&self) -> &Arc<LocalStore> {
        &self.store
    }

    /// This cache's own lookups and puts on its scope, with `loaded` the
    /// entries a fresh open would have loaded when the cache opened —
    /// whether the store opened the scope for it or kept it open from an
    /// earlier request. The GC fields are zero.
    pub fn stats(&self) -> StoreStats {
        StoreStats { loaded: self.loaded, ..self.scope.counters().since(&self.base) }
    }

    /// Aggregate counters of the whole backing store.
    pub fn store_stats(&self) -> StoreStats {
        self.store.store_stats()
    }
}

/// An [`Evaluator`] adapter that answers queries from a
/// [`PersistentCache`] before delegating, and records every fresh result.
///
/// Keys are canonicalized to the module's own call sites, mirroring the
/// whole-module memo of [`SizeEvaluator`](crate::SizeEvaluator):
/// configurations that agree on this module's sites share one entry.
#[derive(Debug)]
pub struct PersistentEvaluator<'e, E: Evaluator + std::fmt::Debug> {
    inner: &'e E,
    cache: &'e PersistentCache,
    sites: BTreeSet<CallSiteId>,
}

impl<'e, E: Evaluator + std::fmt::Debug> PersistentEvaluator<'e, E> {
    /// Wraps `inner`, canonicalizing keys to `sites`.
    pub fn new(inner: &'e E, cache: &'e PersistentCache, sites: BTreeSet<CallSiteId>) -> Self {
        PersistentEvaluator { inner, cache, sites }
    }

    fn key_of(&self, config: &InliningConfiguration) -> Vec<CallSiteId> {
        config.inlined_sites().intersection(&self.sites).copied().collect()
    }
}

impl<E: Evaluator + std::fmt::Debug> Evaluator for PersistentEvaluator<'_, E> {
    fn size_of(&self, config: &InliningConfiguration) -> u64 {
        let key = self.key_of(config);
        if let Some(found) = self.cache.get(&key) {
            return found.size;
        }
        let size = self.inner.size_of(config);
        self.cache.put(key, Measurement::size_only(size));
        size
    }

    fn measure(&self, config: &InliningConfiguration, objective: Objective) -> Measurement {
        if !objective.wants_cycles() {
            return Measurement::size_only(self.size_of(config));
        }
        let key = self.key_of(config);
        // A size-only entry does not answer a cycles query: fall through
        // and let the richer measurement upgrade it in the store.
        if let Some(found) = self.cache.get(&key) {
            if found.cycles.is_some() {
                return found;
            }
        }
        let measured = self.inner.measure(config, objective);
        self.cache.put(key, measured);
        measured
    }

    fn compilations(&self) -> u64 {
        self.inner.compilations()
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }

    fn memo_scope(&self) -> Option<u128> {
        // The cache changes where answers come from, not what they are:
        // same evaluation domain as the wrapped evaluator.
        self.inner.memo_scope()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_store::HEADER;
    use std::fs::OpenOptions;
    use std::io::{Read, Seek, SeekFrom};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("optinline-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn k(ids: &[u32]) -> Vec<CallSiteId> {
        ids.iter().map(|&i| CallSiteId::new(i)).collect()
    }

    fn m(size: u64) -> Measurement {
        Measurement::size_only(size)
    }

    #[test]
    fn round_trips_across_reopen() {
        let dir = tmpdir("roundtrip");
        {
            let c = PersistentCache::open(&dir, 0xfeed, "mod-rt").unwrap();
            c.put(k(&[]), m(400));
            c.put(k(&[1, 5, 9]), m(321));
            c.put(k(&[2]), m(77));
            assert_eq!(c.stats().loaded, 0);
        }
        let c = PersistentCache::open(&dir, 0xfeed, "mod-rt").unwrap();
        assert_eq!(c.stats().loaded, 3);
        assert_eq!(c.get(&k(&[])), Some(m(400)));
        assert_eq!(c.get(&k(&[1, 5, 9])), Some(m(321)));
        assert_eq!(c.get(&k(&[2])), Some(m(77)));
        assert_eq!(c.get(&k(&[3])), None);
        assert_eq!(
            c.stats(),
            StoreStats { loaded: 3, hits: 3, misses: 1, ..StoreStats::default() }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn distinct_fingerprints_use_distinct_files() {
        let dir = tmpdir("fingerprints");
        let a = PersistentCache::open(&dir, 1, "mod-a").unwrap();
        let b = PersistentCache::open(&dir, 2, "mod-b").unwrap();
        a.put(k(&[4]), m(10));
        assert_ne!(a.path(), b.path());
        assert_eq!(b.get(&k(&[4])), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_final_line_is_skipped() {
        let dir = tmpdir("truncated");
        let path;
        {
            let c = PersistentCache::open(&dir, 7, "mod-t").unwrap();
            c.put(k(&[1]), m(11));
            c.put(k(&[2]), m(22));
            path = c.path().to_path_buf();
        }
        // Chop the file mid-way through the last entry, as a crash would.
        let mut f = OpenOptions::new().read(true).write(true).open(&path).unwrap();
        let mut contents = String::new();
        f.read_to_string(&mut contents).unwrap();
        let cut = contents.len() - 4;
        f.set_len(cut as u64).unwrap();
        f.seek(SeekFrom::End(0)).unwrap();
        drop(f);
        let c = PersistentCache::open(&dir, 7, "mod-t").unwrap();
        assert_eq!(c.get(&k(&[1])), Some(m(11)));
        assert_eq!(c.get(&k(&[2])), None, "the damaged line must be dropped");
        // And the cache still accepts fresh writes for the lost key.
        c.put(k(&[2]), m(22));
        drop(c);
        let c = PersistentCache::open(&dir, 7, "mod-t").unwrap();
        assert_eq!(c.get(&k(&[2])), Some(m(22)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_header_restarts_the_file() {
        let dir = tmpdir("version");
        // Seed a scope log carrying a future/unknown header.
        let probe = PersistentCache::open(&dir, 3, "mod-v").unwrap();
        let path = probe.path().to_path_buf();
        drop(probe);
        std::fs::write(&path, "optinline-cache v0\n12 s1\n").unwrap();
        let c = PersistentCache::open(&dir, 3, "mod-v").unwrap();
        assert_eq!(c.stats().loaded, 0, "old-format entries must not leak in");
        c.put(k(&[8]), m(123));
        drop(c);
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.starts_with(HEADER), "file restarted at current version");
        let c = PersistentCache::open(&dir, 3, "mod-v").unwrap();
        assert_eq!(c.stats().loaded, 1);
        assert_eq!(c.get(&k(&[8])), Some(m(123)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn meta_mismatch_restarts_the_file() {
        // Same fingerprint (an FNV fingerprint collision, or a stale
        // file), different module identity: the recorded sizes must not be
        // served.
        let dir = tmpdir("meta");
        {
            let c = PersistentCache::open(&dir, 5, "modA target=x86 sites=3").unwrap();
            c.put(k(&[1]), m(111));
        }
        let c = PersistentCache::open(&dir, 5, "modB target=x86 sites=3").unwrap();
        assert_eq!(c.stats().loaded, 0, "a colliding module's entries must not leak in");
        assert_eq!(c.get(&k(&[1])), None);
        c.put(k(&[1]), m(222));
        drop(c);
        // The restart stamped the new identity; modB's entries round-trip.
        let c = PersistentCache::open(&dir, 5, "modB target=x86 sites=3").unwrap();
        assert_eq!(c.stats().loaded, 1);
        assert_eq!(c.get(&k(&[1])), Some(m(222)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn multiline_meta_is_flattened_to_one_line() {
        let dir = tmpdir("metanl");
        {
            let c = PersistentCache::open(&dir, 6, "mod\nwith newline").unwrap();
            c.put(k(&[2]), m(20));
        }
        let c = PersistentCache::open(&dir, 6, "mod\nwith newline").unwrap();
        assert_eq!(c.stats().loaded, 1, "sanitized meta must round-trip");
        assert_eq!(c.get(&k(&[2])), Some(m(20)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn caches_in_one_process_share_one_store() {
        let dir = tmpdir("share");
        let a = PersistentCache::open(&dir, 0xaa, "mod-a").unwrap();
        let b = PersistentCache::open(&dir, 0xbb, "mod-b").unwrap();
        assert!(Arc::ptr_eq(a.store(), b.store()), "one directory, one store");
        a.put(k(&[1]), m(1));
        b.put(k(&[2]), m(2));
        let stats = a.store_stats();
        assert_eq!(stats.puts, 2, "store stats aggregate across scopes");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persistent_evaluator_avoids_repeat_queries() {
        use optinline_callgraph::Decision;
        #[derive(Debug)]
        struct Count(AtomicU64);
        impl Evaluator for Count {
            fn size_of(&self, c: &InliningConfiguration) -> u64 {
                self.0.fetch_add(1, Ordering::Relaxed);
                1000 - 3 * c.inlined_count() as u64
            }
            fn compilations(&self) -> u64 {
                self.0.load(Ordering::Relaxed)
            }
            fn queries(&self) -> u64 {
                self.0.load(Ordering::Relaxed)
            }
        }
        let dir = tmpdir("wrapper");
        let sites: BTreeSet<CallSiteId> = k(&[1, 2]).into_iter().collect();
        let inner = Count(AtomicU64::new(0));
        {
            let cache = PersistentCache::open(&dir, 0xabc, "mod-w").unwrap();
            let ev = PersistentEvaluator::new(&inner, &cache, sites.clone());
            let c1 =
                InliningConfiguration::clean_slate().with(CallSiteId::new(1), Decision::Inline);
            assert_eq!(ev.size_of(&c1), 997);
            assert_eq!(ev.size_of(&c1), 997);
            // A foreign site doesn't change the canonical key.
            let c2 = c1.clone().with(CallSiteId::new(99), Decision::Inline);
            assert_eq!(ev.size_of(&c2), 997);
            assert_eq!(inner.queries(), 1, "one real evaluation for three queries");
        }
        // Fresh process, fresh inner evaluator: disk answers everything.
        let inner2 = Count(AtomicU64::new(0));
        let cache = PersistentCache::open(&dir, 0xabc, "mod-w").unwrap();
        let ev = PersistentEvaluator::new(&inner2, &cache, sites);
        let c1 = InliningConfiguration::clean_slate().with(CallSiteId::new(1), Decision::Inline);
        assert_eq!(ev.size_of(&c1), 997);
        assert_eq!(inner2.queries(), 0, "warm start must not touch the evaluator");
        assert_eq!(cache.stats().hits, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
