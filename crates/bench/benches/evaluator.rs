//! Criterion benches for the size evaluator: whole-module vs
//! component-scoped compiles on the
//! autotuner's flip-one-site access pattern, and memo-cache contention
//! under parallel queries (sharded vs a single global lock).

use optinline_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use optinline_codegen::X86Like;
use optinline_core::{Evaluator, InliningConfiguration, ShardedCache, SizeEvaluator};
use optinline_ir::Module;
use optinline_workloads::{generate_file, GenParams};
use std::collections::HashMap;
use std::sync::Mutex;

fn clustered_module(clusters: usize) -> Module {
    generate_file(&GenParams {
        n_internal: 3 * clusters,
        n_public: 2,
        call_density: 1.4,
        clusters,
        call_window: 1,
        ..GenParams::named(format!("eval{clusters}c"), 33)
    })
}

/// The autotuner's characteristic query sequence: the clean slate, then
/// every one-site flip away from it.
fn probe_sequence(module: &Module) -> Vec<InliningConfiguration> {
    let base = InliningConfiguration::clean_slate();
    let mut probes = vec![base.clone()];
    for site in module.inlinable_sites() {
        let mut p = base.clone();
        p.flip(site);
        probes.push(p);
    }
    probes
}

fn bench_full_vs_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("evaluator_full_vs_incremental");
    group.sample_size(10);
    for clusters in [2usize, 4, 8] {
        let module = clustered_module(clusters);
        let probes = probe_sequence(&module);
        let label = format!("{clusters}comp_{}probes", probes.len());
        for (mode, incremental) in [("full_module", false), ("incremental", true)] {
            group.bench_with_input(
                BenchmarkId::new(mode, &label),
                &(&module, &probes),
                |b, (m, probes)| {
                    b.iter(|| {
                        // Fresh evaluator each iteration: measure cold
                        // compile work, not the memo cache.
                        let ev = SizeEvaluator::new((*m).clone(), Box::new(X86Like), incremental);
                        probes.iter().map(|p| ev.size_of(p)).sum::<u64>()
                    })
                },
            );
        }
    }
    group.finish();
}

/// A minimal single-lock memo map, the design the sharded cache replaced.
struct GlobalLockCache(Mutex<HashMap<u64, u64>>);

impl GlobalLockCache {
    fn get_or_insert(&self, k: u64) -> u64 {
        let mut map = self.0.lock().unwrap();
        *map.entry(k).or_insert(k.wrapping_mul(0x9E37))
    }
}

fn bench_cache_contention(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_contention");
    group.sample_size(10);
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8);
    const OPS_PER_THREAD: u64 = 2_000;
    const KEYSPACE: u64 = 512;
    group.bench_function(BenchmarkId::new("single_lock", format!("{threads}thr")), |b| {
        b.iter(|| {
            let cache = GlobalLockCache(Mutex::new(HashMap::new()));
            std::thread::scope(|s| {
                for t in 0..threads as u64 {
                    let cache = &cache;
                    s.spawn(move || {
                        let mut acc = 0u64;
                        for i in 0..OPS_PER_THREAD {
                            acc ^= cache.get_or_insert((t.wrapping_mul(31) + i) % KEYSPACE);
                        }
                        acc
                    });
                }
            });
        })
    });
    group.bench_function(BenchmarkId::new("sharded", format!("{threads}thr")), |b| {
        b.iter(|| {
            let cache: ShardedCache<u64, u64> = ShardedCache::new();
            std::thread::scope(|s| {
                for t in 0..threads as u64 {
                    let cache = &cache;
                    s.spawn(move || {
                        let mut acc = 0u64;
                        for i in 0..OPS_PER_THREAD {
                            let k = (t.wrapping_mul(31) + i) % KEYSPACE;
                            acc ^= cache.get_or_compute(k, |k| k.wrapping_mul(0x9E37));
                        }
                        acc
                    });
                }
            });
        })
    });
    group.finish();
}

criterion_group!(benches, bench_full_vs_incremental, bench_cache_contention);
criterion_main!(benches);
