//! Criterion benches for the size evaluator: whole-module vs
//! component-scoped compiles on the autotuner's flip-one-site access
//! pattern, and the memo's hit path under parallel queries (N threads
//! querying one warmed evaluator).

use optinline_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use optinline_codegen::X86Like;
use optinline_core::{Evaluator, InliningConfiguration, SizeEvaluator};
use optinline_ir::Module;
use optinline_workloads::{generate_file, GenParams};

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

fn bench_cache_contention(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_contention");
    group.sample_size(10);
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8);
    const ROUNDS_PER_THREAD: usize = 100;
    let module = clustered_module(8);
    let probes = probe_sequence(&module);
    // Warmed once: every query below finds every component's answer
    // filled, so the group times the memo's lookups, not compiles.
    let ev = SizeEvaluator::new(module, Box::new(X86Like), true);
    let warm: u64 = probes.iter().map(|p| ev.size_of(p)).sum();
    let compiled = ev.compilations();
    let label = format!("{threads}thr_{}probes", probes.len());
    group.bench_function(BenchmarkId::new("warm_hits", label), |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                for t in 0..threads {
                    let (ev, probes) = (&ev, &probes);
                    s.spawn(move || {
                        for round in 0..ROUNDS_PER_THREAD {
                            // Threads start at different probes, so they
                            // do not query one key in lockstep.
                            let start = (t * 7 + round) % probes.len();
                            let (tail, head) = probes.split_at(start);
                            let sum: u64 = head.iter().chain(tail).map(|p| ev.size_of(p)).sum();
                            assert_eq!(sum, warm);
                        }
                    });
                }
            });
        })
    });
    assert_eq!(ev.compilations(), compiled, "every timed query hits");
    group.finish();
}

criterion_group!(benches, bench_full_vs_incremental, bench_cache_contention);
criterion_main!(benches);
