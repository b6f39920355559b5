//! Sharded concurrent memo cache.
//!
//! The evaluators memoize compile results behind a map keyed by inlining
//! decisions. A single `Mutex<HashMap>` serializes every lookup, which
//! matters once the tree search and the autotuner issue queries from many
//! threads at once: most queries are cache *hits* that hold the lock for a
//! few hundred nanoseconds each, and they all collide. [`ShardedCache`]
//! splits the key space over a fixed power-of-two number of independently
//! locked shards, so concurrent queries only contend when they hash to the
//! same shard (1/16 of the time).
//!
//! Accounting is exact, not approximate: each shard's hit/miss/eviction
//! counters live *inside* the shard mutex and are updated in the same
//! critical section as the map probe, so a [`CacheStats`] snapshot always
//! satisfies `hits + misses == lookups issued` and every counted hit really
//! did observe a resident entry. (An earlier design bumped free-standing
//! atomics after releasing the map lock, which let a concurrently snapshot
//! stats view under- or over-count outcomes relative to map state.)

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Condvar, Mutex, PoisonError};

/// Number of shards (a power of two, so shard selection is a mask).
const SHARDS: usize = 16;

/// Why a shard lock can fail: a thread panicked while holding it.
const POISONED: &str = "a thread panicked while holding a memo shard lock";

/// A concurrent map split over [`SHARDS`] independently locked shards,
/// optionally bounded with FIFO (insertion-order) eviction.
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    /// One per shard: signalled when a computation pending in that shard
    /// settles.
    settled: Vec<Condvar>,
    /// Per-shard entry bound; `None` means unbounded.
    shard_capacity: Option<usize>,
}

/// One shard: the map plus its outcome counters, all behind one lock so a
/// probe and its accounting are a single atomic step.
struct Shard<K, V> {
    map: HashMap<K, V>,
    /// Insertion order of resident keys, used only when bounded.
    order: VecDeque<K>,
    /// Hashes of the keys [`ShardedCache::get_or_compute`] callers are
    /// computing now.
    pending: HashSet<u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Hash + Eq + Clone, V> Shard<K, V> {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            order: VecDeque::new(),
            pending: HashSet::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Inserts `key → value`, evicting the oldest residents beyond `cap`.
    fn insert(&mut self, key: K, value: V, cap: Option<usize>) {
        if self.map.insert(key.clone(), value).is_none() {
            if let Some(cap) = cap {
                self.order.push_back(key);
                while self.map.len() > cap {
                    let oldest = self.order.pop_front().expect("order tracks residents");
                    self.map.remove(&oldest);
                    self.evictions += 1;
                }
            }
        }
    }
}

/// Aggregate hit/miss/eviction counts and the per-shard entry distribution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by the capacity bound (0 for unbounded caches).
    pub evictions: u64,
    /// Entries currently resident in each shard.
    pub shard_loads: Vec<usize>,
}

impl CacheStats {
    /// Total entries across shards.
    pub fn entries(&self) -> usize {
        self.shard_loads.iter().sum()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedCache<K, V> {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        Self::with_shard_capacity(None)
    }

    /// Creates an empty cache holding at most `capacity` entries in total.
    ///
    /// The bound is split evenly across shards (rounded up, so a skewed key
    /// distribution can exceed `capacity` by at most `SHARDS - 1` entries).
    /// When a shard is full, the oldest inserted entry in that shard is
    /// evicted and counted in [`CacheStats::evictions`].
    pub fn bounded(capacity: usize) -> Self {
        Self::with_shard_capacity(Some(capacity.div_ceil(SHARDS).max(1)))
    }

    fn with_shard_capacity(shard_capacity: Option<usize>) -> Self {
        ShardedCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            settled: (0..SHARDS).map(|_| Condvar::new()).collect(),
            shard_capacity,
        }
    }

    fn hash(key: &K) -> u64 {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        h.finish()
    }

    fn shard(&self, key: &K) -> &Mutex<Shard<K, V>> {
        &self.shards[(Self::hash(key) as usize) & (SHARDS - 1)]
    }

    /// Looks up `key`, counting the outcome as a hit or miss in the same
    /// critical section as the probe.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut shard = self.shard(key).lock().unwrap();
        let found = shard.map.get(key).cloned();
        if found.is_some() {
            shard.hits += 1;
        } else {
            shard.misses += 1;
        }
        found
    }

    /// Returns the value resident for `key`, computing and inserting it
    /// with `compute` first on a miss. Misses are single-flight: while one
    /// caller computes a key, concurrent callers of the same key wait for
    /// its value instead of computing it again, so computations equal
    /// distinct keys. Each call counts one hit (found or waited for) or one
    /// miss (computed). If `compute` unwinds, the key is released and a
    /// waiting caller computes it instead.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce(&K) -> V) -> V {
        let hash = Self::hash(&key);
        let idx = (hash as usize) & (SHARDS - 1);
        let mut shard = self.shards[idx].lock().expect(POISONED);
        loop {
            if let Some(found) = shard.map.get(&key).cloned() {
                shard.hits += 1;
                return found;
            }
            // Pending keys are tracked by hash: a colliding key only waits
            // for the other computation to settle, then computes its own.
            if shard.pending.insert(hash) {
                break;
            }
            shard = self.settled[idx].wait(shard).expect(POISONED);
        }
        shard.misses += 1;
        drop(shard);
        /// Releases the pending hash and wakes its waiters, also on unwind.
        struct Settle<'a, K, V> {
            cache: &'a ShardedCache<K, V>,
            idx: usize,
            hash: u64,
        }
        impl<K, V> Drop for Settle<'_, K, V> {
            fn drop(&mut self) {
                let shards = &self.cache.shards;
                let mut shard = shards[self.idx].lock().unwrap_or_else(PoisonError::into_inner);
                shard.pending.remove(&self.hash);
                self.cache.settled[self.idx].notify_all();
            }
        }
        let settle = Settle { cache: self, idx, hash };
        let value = compute(&key);
        self.shards[idx].lock().expect(POISONED).insert(key, value.clone(), self.shard_capacity);
        drop(settle);
        value
    }

    /// Inserts `key → value`, evicting the shard's oldest entry first if a
    /// capacity bound is set and the shard is full; an existing entry is
    /// overwritten.
    pub fn insert(&self, key: K, value: V) {
        self.shard(&key).lock().unwrap().insert(key, value, self.shard_capacity);
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().map.len()).sum()
    }

    /// Returns `true` if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/miss/eviction counters and per-shard loads.
    ///
    /// Each shard is read atomically (counters and load come from one lock
    /// acquisition), so per-shard figures are internally consistent; the
    /// totals are exact once concurrent probes have quiesced.
    pub fn stats(&self) -> CacheStats {
        let mut stats =
            CacheStats { shard_loads: Vec::with_capacity(SHARDS), ..Default::default() };
        for s in &self.shards {
            let s = s.lock().unwrap();
            stats.hits += s.hits;
            stats.misses += s.misses;
            stats.evictions += s.evictions;
            stats.shard_loads.push(s.map.len());
        }
        stats
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Default for ShardedCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> fmt::Debug for ShardedCache<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("shard_capacity", &self.shard_capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_get_hits() {
        let c: ShardedCache<u64, u64> = ShardedCache::new();
        assert_eq!(c.get(&1), None);
        c.insert(1, 10);
        assert_eq!(c.get(&1), Some(10));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert_eq!(s.entries(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn keys_spread_over_shards() {
        let c: ShardedCache<u64, ()> = ShardedCache::new();
        for k in 0..256 {
            c.insert(k, ());
        }
        let s = c.stats();
        assert_eq!(s.entries(), 256);
        // With 256 keys over 16 shards a fully collapsed distribution would
        // mean the hash ignores the key; require at least a few nonempty.
        assert!(s.shard_loads.iter().filter(|&&n| n > 0).count() >= 4);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let c: ShardedCache<u64, u64> = ShardedCache::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let c = &c;
                scope.spawn(move || {
                    for i in 0..100 {
                        let k = t * 100 + i;
                        c.insert(k, k * 2);
                        assert_eq!(c.get(&k), Some(k * 2));
                    }
                });
            }
        });
        assert_eq!(c.len(), 400);
    }

    #[test]
    fn concurrent_accounting_totals_are_exact() {
        // Every thread issues a known mix of hits and misses over disjoint
        // key ranges; because outcomes are counted under the shard lock, the
        // aggregate totals must match exactly — not approximately.
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 500;
        let c: ShardedCache<u64, u64> = ShardedCache::new();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let c = &c;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let k = t * PER_THREAD + i;
                        assert_eq!(c.get(&k), None); // miss
                        c.insert(k, k);
                        assert_eq!(c.get(&k), Some(k)); // hit
                    }
                });
            }
        });
        let s = c.stats();
        assert_eq!(s.hits, THREADS * PER_THREAD);
        assert_eq!(s.misses, THREADS * PER_THREAD);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.hits + s.misses, 2 * THREADS * PER_THREAD);
        assert_eq!(s.entries(), (THREADS * PER_THREAD) as usize);
    }

    #[test]
    fn bounded_cache_evicts_oldest_and_counts_it() {
        // One entry per shard at most: every insert of a fresh key that
        // lands in an occupied shard must evict that shard's older entry.
        let c: ShardedCache<u64, u64> = ShardedCache::bounded(SHARDS);
        for k in 0..64 {
            c.insert(k, k);
        }
        let s = c.stats();
        assert!(s.entries() <= SHARDS);
        assert_eq!(s.evictions as usize, 64 - s.entries());
        // Re-inserting a resident key neither grows the shard nor evicts.
        let before = c.stats();
        let resident = (0..64).find(|k| c.get(k).is_some()).expect("some key survived");
        c.insert(resident, resident * 10);
        assert_eq!(c.get(&resident), Some(resident * 10));
        assert_eq!(c.stats().evictions, before.evictions);
        assert_eq!(c.stats().entries(), before.entries());
    }

    #[test]
    fn get_or_compute_releases_the_key_when_compute_unwinds() {
        let c: ShardedCache<u64, u64> = ShardedCache::new();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.get_or_compute(5, |_| panic!("compile cancelled"))
        }));
        assert!(unwound.is_err());
        assert_eq!(c.get_or_compute(5, |_| 50), 50, "the next caller computes it");
    }

    #[test]
    fn bounded_capacity_rounds_up_per_shard() {
        // capacity 1 still admits one entry per shard rather than zero.
        let c: ShardedCache<u64, u64> = ShardedCache::bounded(1);
        c.insert(7, 70);
        assert_eq!(c.get(&7), Some(70));
        c.insert(7, 71);
        assert_eq!(c.get(&7), Some(71));
        assert_eq!(c.stats().evictions, 0);
    }
}
