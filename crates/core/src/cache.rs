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
//! Accounting is exact, not approximate: each shard's hit/miss counters
//! live *inside* the shard mutex and are updated in the same critical
//! section as the map probe, so a [`CacheStats`] snapshot always satisfies
//! `hits + misses == lookups issued` and every counted hit really did
//! observe a resident entry. (An earlier design bumped free-standing
//! atomics after releasing the map lock, which let a concurrently snapshot
//! stats view under- or over-count outcomes relative to map state.)

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Condvar, Mutex, PoisonError};

/// Number of shards (a power of two, so shard selection is a mask).
const SHARDS: usize = 16;

/// Why a shard lock can fail: a thread panicked while holding it.
const POISONED: &str = "a thread panicked while holding a memo shard lock";

/// A concurrent memo split over [`SHARDS`] independently locked shards.
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    /// One per shard: signalled when a computation pending in that shard
    /// settles.
    settled: Vec<Condvar>,
}

/// One shard: the map plus its outcome counters, all behind one lock so a
/// probe and its accounting are a single atomic step.
struct Shard<K, V> {
    map: HashMap<K, V>,
    /// Hashes of the keys [`ShardedCache::get_or_compute`] callers are
    /// computing now.
    pending: HashSet<u64>,
    hits: u64,
    misses: u64,
}

/// Aggregate hit/miss counts and the per-shard entry distribution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries currently resident in each shard.
    pub shard_loads: Vec<usize>,
}

impl CacheStats {
    /// Total entries across shards.
    pub fn entries(&self) -> usize {
        self.shard_loads.iter().sum()
    }
}

impl<K: Hash + Eq, V: Clone> ShardedCache<K, V> {
    /// Creates an empty cache.
    pub fn new() -> Self {
        let shard = || Shard { map: HashMap::new(), pending: HashSet::new(), hits: 0, misses: 0 };
        ShardedCache {
            shards: (0..SHARDS).map(|_| Mutex::new(shard())).collect(),
            settled: (0..SHARDS).map(|_| Condvar::new()).collect(),
        }
    }

    /// Returns the value resident for `key`, computing and inserting it
    /// with `compute` first on a miss. Misses are single-flight: while one
    /// caller computes a key, concurrent callers of the same key wait for
    /// its value instead of computing it again, so computations equal
    /// distinct keys. Each call counts one hit (found or waited for) or one
    /// miss (computed). If `compute` unwinds, the key is released and a
    /// waiting caller computes it instead.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce(&K) -> V) -> V {
        let hash = {
            let mut h = DefaultHasher::new();
            key.hash(&mut h);
            h.finish()
        };
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
        self.shards[idx].lock().expect(POISONED).map.insert(key, value.clone());
        drop(settle);
        value
    }

    /// Snapshot of the hit/miss counters and per-shard loads.
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
            stats.shard_loads.push(s.map.len());
        }
        stats
    }
}

impl<K: Hash + Eq, V: Clone> Default for ShardedCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> fmt::Debug for ShardedCache<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedCache").field("shards", &self.shards.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_get_hits() {
        let c: ShardedCache<u64, u64> = ShardedCache::new();
        assert_eq!(c.get_or_compute(1, |_| 10), 10);
        assert_eq!(c.get_or_compute(1, |_| unreachable!("resident")), 10);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.entries(), 1);
    }

    #[test]
    fn keys_spread_over_shards() {
        let c: ShardedCache<u64, ()> = ShardedCache::new();
        for k in 0..256 {
            c.get_or_compute(k, |_| ());
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
                        assert_eq!(c.get_or_compute(k, |k| k * 2), k * 2);
                        assert_eq!(c.get_or_compute(k, |_| 0), k * 2);
                    }
                });
            }
        });
        assert_eq!(c.stats().entries(), 400);
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
                        assert_eq!(c.get_or_compute(k, |&k| k), k); // miss
                        assert_eq!(c.get_or_compute(k, |_| unreachable!("resident")), k);
                        // hit
                    }
                });
            }
        });
        let s = c.stats();
        assert_eq!(s.hits, THREADS * PER_THREAD);
        assert_eq!(s.misses, THREADS * PER_THREAD);
        assert_eq!(s.hits + s.misses, 2 * THREADS * PER_THREAD);
        assert_eq!(s.entries(), (THREADS * PER_THREAD) as usize);
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
}
