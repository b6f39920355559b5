//! Criterion benches for the individual optimization passes and the
//! incremental-autotuning ablation (full vs dirty-component rounds).

use optinline_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use optinline_codegen::X86Like;
use optinline_core::autotune::{site_components, Autotuner};
use optinline_core::{InliningConfiguration, SizeEvaluator};
use optinline_opt::{run_inliner, AlwaysInline, Dce, Gvn, Pass, Sccp, SimplifyCfg, TailMerge};
use optinline_workloads::{generate_file, GenParams};

fn inlined_module(n_internal: usize) -> optinline_ir::Module {
    let mut m = generate_file(&GenParams {
        n_internal,
        call_density: 1.6,
        branchy_prob: 0.5,
        ..GenParams::named(format!("passbench{n_internal}"), 99)
    });
    // Pre-inline so the passes see the post-expansion shapes they exist for.
    run_inliner(&mut m, &AlwaysInline);
    m
}

fn bench_individual_passes(c: &mut Criterion) {
    let mut group = c.benchmark_group("passes");
    let module = inlined_module(16);
    let cases: Vec<(&str, Box<dyn Pass>)> = vec![
        ("sccp", Box::new(Sccp)),
        ("gvn", Box::new(Gvn)),
        ("simplify_cfg", Box::new(SimplifyCfg)),
        ("tail_merge", Box::new(TailMerge)),
        ("dce", Box::new(Dce::default())),
    ];
    for (name, pass) in cases {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut m = module.clone();
                pass.run(&mut m)
            })
        });
    }
    group.finish();
}

fn bench_incremental_vs_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_autotune");
    group.sample_size(10);
    for clusters in [1usize, 4] {
        let module = generate_file(&GenParams {
            n_internal: 20,
            clusters,
            call_window: 2,
            ..GenParams::named(format!("incr{clusters}"), 12)
        });
        group.bench_with_input(BenchmarkId::new("full", clusters), &module, |b, m| {
            b.iter(|| {
                let ev = SizeEvaluator::new(m.clone(), Box::new(X86Like), false);
                let tuner = Autotuner::new(&ev, ev.sites().clone());
                tuner.clean_slate(3)
            })
        });
        group.bench_with_input(BenchmarkId::new("incremental", clusters), &module, |b, m| {
            b.iter(|| {
                let ev = SizeEvaluator::new(m.clone(), Box::new(X86Like), false);
                let comps = site_components(ev.module());
                let tuner = Autotuner::new(&ev, ev.sites().clone());
                tuner.run_incremental(&comps, InliningConfiguration::clean_slate(), 3)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_individual_passes, bench_incremental_vs_full);
criterion_main!(benches);
