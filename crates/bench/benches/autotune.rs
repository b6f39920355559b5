//! Criterion benches for the autotuner (Figures 10/12/17 machinery): round
//! cost scaling with call-site count, initialization variants, and the
//! graph-algorithm primitives the search leans on.

use optinline_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use optinline_callgraph::{bridge_groups, site_components, InlineGraph};
use optinline_codegen::X86Like;
use optinline_core::autotune::Autotuner;
use optinline_core::{InliningConfiguration, SizeEvaluator};
use optinline_heuristics::CostModelInliner;
use optinline_workloads::{generate_file, GenParams};

fn module_sized(n_internal: usize) -> optinline_ir::Module {
    generate_file(&GenParams {
        n_internal,
        call_density: 1.6,
        ..GenParams::named(format!("tune{n_internal}"), 21)
    })
}

fn bench_autotune_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("autotune_round");
    group.sample_size(10);
    for n in [6usize, 16, 40] {
        let module = module_sized(n);
        let sites_count = module.inlinable_sites().len();
        group.bench_with_input(
            BenchmarkId::new("clean_slate", format!("{n}fns_{sites_count}sites")),
            &module,
            |b, m| {
                b.iter(|| {
                    let ev = SizeEvaluator::new(m.clone(), Box::new(X86Like), false);
                    let tuner = Autotuner::new(&ev, ev.sites().clone());
                    tuner.clean_slate(1)
                })
            },
        );
    }
    group.finish();
}

fn bench_initializations(c: &mut Criterion) {
    let mut group = c.benchmark_group("autotune_init");
    group.sample_size(10);
    let module = module_sized(16);
    let heuristic = InliningConfiguration::from_decisions(
        CostModelInliner::default().decide(&module, &X86Like),
    );
    group.bench_function("clean_slate_2_rounds", |b| {
        b.iter(|| {
            let ev = SizeEvaluator::new(module.clone(), Box::new(X86Like), false);
            let tuner = Autotuner::new(&ev, ev.sites().clone());
            tuner.clean_slate(2)
        })
    });
    group.bench_function("heuristic_init_2_rounds", |b| {
        b.iter(|| {
            let ev = SizeEvaluator::new(module.clone(), Box::new(X86Like), false);
            let tuner = Autotuner::new(&ev, ev.sites().clone());
            tuner.run(heuristic.clone(), 2)
        })
    });
    group.finish();
}

fn bench_graph_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_algorithms");
    for n in [10usize, 40, 100] {
        let module = module_sized(n);
        group.bench_with_input(BenchmarkId::new("site_components", n), &module, |b, m| {
            b.iter(|| site_components(m))
        });
        let graph = InlineGraph::from_module(&module);
        group.bench_with_input(BenchmarkId::new("bridge_groups", n), &graph, |b, g| {
            b.iter(|| bridge_groups(g))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_autotune_round, bench_initializations, bench_graph_algorithms);
criterion_main!(benches);
