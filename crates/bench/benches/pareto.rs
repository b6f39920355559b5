//! Benches for multi-objective measurement: the cycles overhead of
//! `measure` over `size_of`, Pareto-front maintenance cost, and the
//! front-driven autotuner against the scalar one — the numbers behind
//! `results/perf_pareto.txt`.

use optinline_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use optinline_codegen::X86Like;
use optinline_core::autotune::Autotuner;
use optinline_core::{Evaluator, InliningConfiguration, Objective, ParetoFront, SizeEvaluator};
use optinline_heuristics::CostModelInliner;
use optinline_ir::Measurement;
use optinline_workloads::{generate_file, GenParams};

fn module_sized(n_internal: usize) -> optinline_ir::Module {
    generate_file(&GenParams {
        n_internal,
        call_density: 1.6,
        ..GenParams::named(format!("par{n_internal}"), 21)
    })
}

/// `measure(Size)` vs `measure(Speed)` on a cold evaluator: the speed
/// objective adds a whole-module compile plus one interpreter pass per
/// public entry, so this is the per-evaluation price of cycles.
fn bench_measure_objectives(c: &mut Criterion) {
    let mut group = c.benchmark_group("measure_objective");
    group.sample_size(10);
    for n in [6usize, 16] {
        let module = module_sized(n);
        let config = InliningConfiguration::clean_slate();
        for (name, objective) in [("size", Objective::Size), ("speed", Objective::Speed)] {
            group.bench_with_input(BenchmarkId::new(name, format!("{n}fns")), &module, |b, m| {
                b.iter(|| {
                    let ev = SizeEvaluator::new(m.clone(), Box::new(X86Like), true);
                    ev.measure(&config, objective)
                })
            });
        }
        // Warm repeat: both objectives must answer from the memo.
        let ev = SizeEvaluator::new(module.clone(), Box::new(X86Like), true);
        ev.measure(&config, Objective::Speed);
        group.bench_with_input(BenchmarkId::new("speed_warm", format!("{n}fns")), &ev, |b, ev| {
            b.iter(|| ev.measure(&config, Objective::Speed))
        });
    }
    group.finish();
}

/// Front maintenance alone: inserting a stream of synthetic measurements
/// (worst case: a staircase where nothing dominates anything, so the
/// front keeps every point).
fn bench_front_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("pareto_front");
    for n in [16u64, 128] {
        group.bench_with_input(BenchmarkId::new("staircase_insert", n), &n, |b, &n| {
            b.iter(|| {
                let mut front = ParetoFront::default();
                for i in 0..n {
                    front.insert(
                        InliningConfiguration::clean_slate(),
                        Measurement::with_cycles(100 + i, 1000 + (n - i)),
                    );
                }
                front.len()
            })
        });
    }
    group.finish();
}

/// One scalar round vs one Pareto round from the same two inits: the
/// front explores every frontier point's neighborhood, so its round cost
/// scales with front width, not just site count.
fn bench_pareto_tuning(c: &mut Criterion) {
    let mut group = c.benchmark_group("pareto_autotune");
    group.sample_size(10);
    for n in [6usize, 16] {
        let module = module_sized(n);
        let heuristic = InliningConfiguration::from_decisions(
            CostModelInliner::default().decide(&module, &X86Like),
        );
        let sites_count = module.inlinable_sites().len();
        group.bench_with_input(
            BenchmarkId::new("scalar_round", format!("{n}fns_{sites_count}sites")),
            &module,
            |b, m| {
                b.iter(|| {
                    let ev = SizeEvaluator::new(m.clone(), Box::new(X86Like), false);
                    let tuner = Autotuner::new(&ev, ev.sites().clone());
                    tuner.run(heuristic.clone(), 1)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("pareto_round", format!("{n}fns_{sites_count}sites")),
            &module,
            |b, m| {
                b.iter(|| {
                    let ev = SizeEvaluator::new(m.clone(), Box::new(X86Like), false);
                    let tuner = Autotuner::new(&ev, ev.sites().clone());
                    tuner.run_pareto([InliningConfiguration::clean_slate(), heuristic.clone()], 1)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_measure_objectives, bench_front_insert, bench_pareto_tuning);
criterion_main!(benches);
