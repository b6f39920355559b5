//! Criterion benches for the seven cleanup passes, each applied once to a
//! fresh clone of one inlined module, simplify-cfg on one long
//! straight-line chain, and the incremental-autotuning ablation (full vs
//! dirty-component rounds).

use optinline_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use optinline_codegen::X86Like;
use optinline_core::autotune::{site_components, Autotuner};
use optinline_core::{InliningConfiguration, SizeEvaluator};
use optinline_ir::{BinOp, FuncBuilder, Linkage, Module};
use optinline_opt::{
    run_inliner, AlwaysInline, Cse, Dce, DeadArgElim, Gvn, Pass, Sccp, Simplify, SimplifyCfg,
};
use optinline_workloads::{generate_file, GenParams};

fn inlined_module(n_internal: usize) -> Module {
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

/// One function whose body is a straight-line chain of `blocks` blocks,
/// one instruction each, every block jumping to the next: the seam shape
/// inlining leaves, at length. Below 20 blocks it stays under
/// simplify-cfg's sweep cap even at one merge per sweep, so one run always
/// ends at a single block.
fn chain_module(blocks: usize) -> Module {
    let mut m = Module::new("chain");
    let f = m.declare_function("f", 1, Linkage::Public);
    let mut b = FuncBuilder::new(&mut m, f);
    let mut acc = b.param(0);
    for _ in 1..blocks {
        acc = b.bin(BinOp::Add, acc, acc);
        let (next, _) = b.new_block(0);
        b.jump(next, &[]);
    }
    acc = b.bin(BinOp::Add, acc, acc);
    b.ret(Some(acc));
    m
}

fn bench_individual_passes(c: &mut Criterion) {
    let mut group = c.benchmark_group("passes");
    let module = inlined_module(16);
    // Pipeline order (`cleanup_pipeline`).
    let cases: Vec<(&str, Box<dyn Pass>)> = vec![
        ("simplify", Box::new(Simplify)),
        ("sccp", Box::new(Sccp)),
        ("cse", Box::new(Cse::default())),
        ("gvn", Box::new(Gvn)),
        ("simplify_cfg", Box::new(SimplifyCfg)),
        ("dce", Box::new(Dce::default())),
        ("dead_arg_elim", Box::new(DeadArgElim)),
    ];
    for (name, pass) in cases {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut m = module.clone();
                pass.run(&mut m)
            })
        });
    }
    let chain = chain_module(16);
    group.bench_function("simplify_cfg_long_chain", |b| {
        b.iter(|| {
            let mut m = chain.clone();
            SimplifyCfg.run(&mut m)
        })
    });
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
