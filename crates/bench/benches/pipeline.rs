//! Criterion benches for the compiler substrate: the building blocks whose
//! cost dominates every experiment (one `CompileAndMeasureSize` is the unit
//! the paper counts in).

use optinline_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use optinline_check::schedcheck::optimize_os_sweep;
use optinline_codegen::{text_size, X86Like};
use optinline_core::{Evaluator, InliningConfiguration, SizeEvaluator};
use optinline_heuristics::CostModelInliner;
use optinline_opt::{
    optimize_os, optimize_os_no_inline, AlwaysInline, ForcedDecisions, InlineOracle,
    PipelineOptions,
};
use optinline_workloads::{generate_file, GenParams};

fn module_sized(n_internal: usize) -> optinline_ir::Module {
    generate_file(&GenParams {
        n_internal,
        call_density: 1.5,
        ..GenParams::named(format!("bench{n_internal}"), 42)
    })
}

fn bench_compile_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("compile_and_measure");
    for n in [4usize, 12, 32] {
        let module = module_sized(n);
        group.bench_with_input(BenchmarkId::new("no_inline", n), &module, |b, m| {
            b.iter(|| {
                let mut m = m.clone();
                optimize_os_no_inline(&mut m, PipelineOptions::default());
                text_size(&m, &X86Like)
            })
        });
        group.bench_with_input(BenchmarkId::new("always_inline", n), &module, |b, m| {
            b.iter(|| {
                let mut m = m.clone();
                optimize_os(&mut m, &AlwaysInline, PipelineOptions::default());
                text_size(&m, &X86Like)
            })
        });
    }
    group.finish();
}

fn bench_heuristic_decide(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline_heuristic");
    for n in [4usize, 12, 32] {
        let module = module_sized(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &module, |b, m| {
            b.iter(|| CostModelInliner::default().decide(m, &X86Like))
        });
    }
    group.finish();
}

/// Full-sweep vs change-driven scheduling on the workload that dominates
/// the paper's search cost: single-flip neighbour probes. The autotuner's
/// inner loop takes a base configuration and re-compiles once per site with
/// exactly one decision flipped; the change-driven worklist only revisits
/// the inliner-touched neighbourhood after round one, while the
/// whole-module sweep (the scheduling oracle's reference) reprocesses every
/// function every round.
fn bench_scheduler_single_flip(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler_single_flip");
    group.sample_size(10);
    for n in [12usize, 32] {
        let module = module_sized(n);
        let base = InliningConfiguration::from_decisions(
            CostModelInliner::default().decide(&module, &X86Like),
        );
        // One probe per site (capped): the base configuration with that
        // site's decision flipped.
        let probes: Vec<InliningConfiguration> = module
            .inlinable_sites()
            .iter()
            .take(8)
            .map(|&site| base.clone().with(site, base.decision(site).flipped()))
            .collect();
        type Compile = fn(&mut optinline_ir::Module, &dyn InlineOracle, PipelineOptions) -> usize;
        let schedulers: [(&str, Compile); 2] =
            [("full_sweep", optimize_os_sweep), ("change_driven", optimize_os)];
        for (label, compile) in schedulers {
            group.bench_with_input(BenchmarkId::new(label, n), &probes, |b, probes| {
                b.iter(|| {
                    let mut total = 0u64;
                    for cfg in probes {
                        let mut m = module.clone();
                        compile(
                            &mut m,
                            &ForcedDecisions::new(cfg.decisions().clone()),
                            PipelineOptions::default(),
                        );
                        total += text_size(&m, &X86Like);
                    }
                    total
                })
            });
        }
    }
    group.finish();
}

fn bench_evaluator_cache(c: &mut Criterion) {
    let module = module_sized(12);
    let ev = SizeEvaluator::new(module, Box::new(X86Like), false);
    let cfg = InliningConfiguration::clean_slate();
    ev.size_of(&cfg);
    c.bench_function("evaluator_cache_hit", |b| b.iter(|| ev.size_of(&cfg)));
}

criterion_group!(
    benches,
    bench_compile_pipeline,
    bench_heuristic_decide,
    bench_scheduler_single_flip,
    bench_evaluator_cache
);
criterion_main!(benches);
