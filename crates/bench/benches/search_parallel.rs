//! Benches for the parallel tree search (`evaluate_inlining_tree_dag`, the
//! `dag` rows): worker-count scaling on one tree, and cold vs warm
//! persistent cache — the wall-clock side of the `results/perf_search.txt`
//! numbers.

use optinline_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use optinline_callgraph::{InlineGraph, PartitionStrategy};
use optinline_core::tree::{build_inlining_tree, evaluate_inlining_tree};
use optinline_core::{
    evaluate_inlining_tree_dag, module_fingerprint, InliningConfiguration, PersistentCache,
    PersistentEvaluator, SizeEvaluator, WorkerPool,
};
use optinline_workloads::{generate_file, GenParams};

fn search_module(n_internal: usize, clusters: usize) -> optinline_ir::Module {
    generate_file(&GenParams {
        n_internal,
        clusters,
        call_window: 2,
        call_density: 1.2,
        ..GenParams::named(format!("parsearch{n_internal}x{clusters}"), 7)
    })
}

/// The sequential walk vs the parallel search at 1, 2, and 8 workers, each
/// iteration on a fresh evaluator so the memo cache cannot leak work
/// across measurements.
fn bench_worker_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_parallel");
    group.sample_size(10);
    let probe =
        SizeEvaluator::new(search_module(8, 3), Box::new(optinline_codegen::X86Like), false);
    let sites = probe.sites().len();
    group.bench_function(BenchmarkId::new("sequential", sites), |b| {
        b.iter(|| {
            let ev = SizeEvaluator::new(
                search_module(8, 3),
                Box::new(optinline_codegen::X86Like),
                false,
            );
            let graph = InlineGraph::from_module(ev.module());
            let tree = build_inlining_tree(&graph, PartitionStrategy::Paper);
            evaluate_inlining_tree(&tree, &ev, InliningConfiguration::clean_slate())
        })
    });
    for workers in [1usize, 2, 8] {
        let pool = WorkerPool::new(workers);
        group.bench_function(BenchmarkId::new("dag", format!("{workers}w")), |b| {
            b.iter(|| {
                let ev = SizeEvaluator::new(
                    search_module(8, 3),
                    Box::new(optinline_codegen::X86Like),
                    false,
                );
                let graph = InlineGraph::from_module(ev.module());
                let tree = build_inlining_tree(&graph, PartitionStrategy::Paper);
                evaluate_inlining_tree_dag(
                    &tree,
                    &ev,
                    InliningConfiguration::clean_slate(),
                    &pool,
                    None,
                )
            })
        });
    }
    group.finish();
}

/// Persistent-cache payoff: the same search against an empty cache dir vs
/// one populated by a prior run (fresh inner evaluator each iteration, so
/// only the disk cache carries state).
fn bench_persistent_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_persist");
    group.sample_size(10);
    let dir = std::env::temp_dir().join(format!("optinline-bench-persist-{}", std::process::id()));
    let module = search_module(8, 3);
    let fp = module_fingerprint(&module, "x86-like");
    let meta = format!("{} target=x86-like sites={}", module.name, module.inlinable_sites().len());
    let graph = InlineGraph::from_module(&module);
    let tree = build_inlining_tree(&graph, PartitionStrategy::Paper);
    let pool = WorkerPool::new(2);
    group.bench_function("cold", |b| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&dir);
            let cache = PersistentCache::open(&dir, fp, &meta).expect("cache opens");
            let ev =
                SizeEvaluator::new(module.clone(), Box::new(optinline_codegen::X86Like), false);
            let pev = PersistentEvaluator::new(&ev, &cache, ev.sites().clone());
            evaluate_inlining_tree_dag(
                &tree,
                &pev,
                InliningConfiguration::clean_slate(),
                &pool,
                None,
            )
        })
    });
    // Populate once, then measure warm-start reruns.
    let _ = std::fs::remove_dir_all(&dir);
    {
        let cache = PersistentCache::open(&dir, fp, &meta).expect("cache opens");
        let ev = SizeEvaluator::new(module.clone(), Box::new(optinline_codegen::X86Like), false);
        let pev = PersistentEvaluator::new(&ev, &cache, ev.sites().clone());
        evaluate_inlining_tree_dag(&tree, &pev, InliningConfiguration::clean_slate(), &pool, None);
    }
    group.bench_function("warm", |b| {
        b.iter(|| {
            let cache = PersistentCache::open(&dir, fp, &meta).expect("cache opens");
            let ev =
                SizeEvaluator::new(module.clone(), Box::new(optinline_codegen::X86Like), false);
            let pev = PersistentEvaluator::new(&ev, &cache, ev.sites().clone());
            evaluate_inlining_tree_dag(
                &tree,
                &pev,
                InliningConfiguration::clean_slate(),
                &pool,
                None,
            )
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

criterion_group!(benches, bench_worker_scaling, bench_persistent_cache);
criterion_main!(benches);
