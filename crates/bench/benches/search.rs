//! Criterion benches for the paper's contribution: the recursively
//! partitioned search (Table 1 / Figure 7 machinery) versus the naïve
//! enumeration, plus the partition-strategy ablation called out in
//! DESIGN.md.

use optinline_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use optinline_callgraph::{InlineGraph, PartitionStrategy};
use optinline_core::tree::{build_inlining_tree, evaluate_inlining_tree, space_size};
use optinline_core::{exhaustive_search, InliningConfiguration, SizeEvaluator};
use optinline_workloads::{generate_file, GenParams};

fn search_module(n_internal: usize, clusters: usize) -> optinline_ir::Module {
    generate_file(&GenParams {
        n_internal,
        clusters,
        call_window: 2,
        call_density: 1.2,
        ..GenParams::named(format!("search{n_internal}x{clusters}"), 7)
    })
}

/// Naive vs tree on the same file: the Table 1 effect as wall-clock.
fn bench_naive_vs_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimal_search");
    group.sample_size(10);
    let module = search_module(6, 2);
    let ev = SizeEvaluator::new(module, Box::new(optinline_codegen::X86Like), false);
    let sites = ev.sites().clone();
    assert!(sites.len() <= 14, "bench module grew too big: {}", sites.len());
    group.bench_function(BenchmarkId::new("naive", sites.len()), |b| {
        b.iter(|| {
            // A fresh evaluator per iteration: the memo cache must not leak
            // work across measurements.
            let ev = SizeEvaluator::new(
                search_module(6, 2),
                Box::new(optinline_codegen::X86Like),
                false,
            );
            exhaustive_search(&ev, &sites)
        })
    });
    group.bench_function(BenchmarkId::new("tree", sites.len()), |b| {
        b.iter(|| {
            let ev = SizeEvaluator::new(
                search_module(6, 2),
                Box::new(optinline_codegen::X86Like),
                false,
            );
            let graph = InlineGraph::from_module(ev.module());
            let tree = build_inlining_tree(&graph, PartitionStrategy::Paper);
            evaluate_inlining_tree(&tree, &ev, InliningConfiguration::clean_slate())
        })
    });
    group.finish();
}

/// Ablation: the paper's partition heuristic vs first-edge vs random, as
/// resulting evaluation counts (reported via bench names) and build time.
fn bench_partition_strategy_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition_strategy");
    let module = search_module(12, 3);
    let graph = InlineGraph::from_module(&module);
    for (label, strategy) in [
        ("paper", PartitionStrategy::Paper),
        ("first_edge", PartitionStrategy::FirstEdge),
        ("random", PartitionStrategy::Random(9)),
    ] {
        let space = space_size(&build_inlining_tree(&graph, strategy));
        group.bench_function(BenchmarkId::new(label, format!("space={space}")), |b| {
            b.iter(|| build_inlining_tree(&graph, strategy))
        });
    }
    group.finish();
}

/// Tree construction scaling with graph size.
fn bench_tree_build_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_build");
    group.sample_size(10);
    for n in [6usize, 10, 14] {
        let module = search_module(n, 3);
        let graph = InlineGraph::from_module(&module);
        group.bench_with_input(BenchmarkId::from_parameter(n), &graph, |b, g| {
            b.iter(|| build_inlining_tree(g, PartitionStrategy::Paper))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_naive_vs_tree,
    bench_partition_strategy_ablation,
    bench_tree_build_scaling
);
criterion_main!(benches);
