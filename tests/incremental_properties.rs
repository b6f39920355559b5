//! Properties of the size evaluator's component mode, spanning crates:
//! over generated programs it must be byte-identical to whole-module mode
//! on *every* configuration, and on multi-component workloads it must do
//! measurably less compile work.

mod common;

use optinline::core::{domain_fingerprint, module_cycles, Objective};
use optinline::prelude::*;
use optinline::workloads::GenParams;

/// SplitMix64 step — one mixed 64-bit draw per call.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Seed-indexed generator parameters spanning sizes, call densities,
/// clustering, recursion, and opt-out probabilities.
fn params_from(case: u64) -> GenParams {
    let mut s = case.wrapping_mul(0x2545F4914F6CDD1D);
    let seed = mix(&mut s) % 10_000;
    GenParams {
        name: format!("inc{seed}"),
        seed,
        n_internal: 1 + (mix(&mut s) % 7) as usize,
        n_public: (mix(&mut s) % 3) as usize,
        avg_body_ops: 1 + (mix(&mut s) % 9) as usize,
        call_density: (mix(&mut s) % 220) as f64 / 100.0,
        const_arg_prob: (mix(&mut s) % 100) as f64 / 100.0,
        branchy_prob: 0.4,
        loop_prob: 0.2,
        wrapper_prob: (mix(&mut s) % 80) as f64 / 100.0,
        fat_prob: 0.15,
        recursion: mix(&mut s).is_multiple_of(2),
        n_globals: 2,
        noinline_prob: if seed.is_multiple_of(5) { 0.3 } else { 0.0 },
        clusters: 1 + (seed % 4) as usize,
        call_window: 1 + (seed % 4) as usize,
    }
}

fn arb_decisions(module: &Module, seed: u64) -> InliningConfiguration {
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    module
        .inlinable_sites()
        .into_iter()
        .map(|s| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let d = if x & 1 == 0 { Decision::Inline } else { Decision::NoInline };
            (s, d)
        })
        .collect()
}

/// The tentpole's gate: the incremental evaluator is *exactly* the
/// compiler evaluator, byte for byte, on arbitrary programs and
/// arbitrary configurations (random, empty, and total) — in size, and in
/// the cycles both modes measure against one uncached whole-module
/// compile.
#[test]
fn incremental_evaluator_is_byte_identical_to_full_compiles() {
    for case in 0..40u64 {
        let module = optinline::workloads::generate_file(&params_from(case));
        let full = SizeEvaluator::new(module.clone(), Box::new(X86Like), false);
        let inc = SizeEvaluator::new(module.clone(), Box::new(X86Like), true);
        let mut configs = vec![
            InliningConfiguration::clean_slate(),
            module
                .inlinable_sites()
                .into_iter()
                .map(|s| (s, Decision::Inline))
                .collect::<InliningConfiguration>(),
        ];
        for k in 0..6u64 {
            configs.push(arb_decisions(&module, case * 101 + k));
        }
        for (i, config) in configs.iter().enumerate() {
            assert_eq!(
                inc.size_of(config),
                full.size_of(config),
                "case {case} config {i}: incremental diverges from full compile"
            );
            let cycles = module_cycles(&full.compile(config), full.cost_model());
            for (mode, ev) in [("incremental", &inc), ("whole-module", &full)] {
                assert_eq!(
                    ev.measure(config, Objective::Speed).cycles,
                    cycles,
                    "case {case} config {i}: {mode} cycles diverge from the full compile"
                );
            }
        }
    }
}

/// Both halves of `SizeEvaluator` drive the tree search to the same
/// optimum with the same size.
#[test]
fn tree_search_optimum_is_evaluator_independent() {
    for case in 0..12u64 {
        let module = optinline::workloads::generate_file(&params_from(case));
        if module.inlinable_sites().len() > 12 {
            continue;
        }
        let full = SizeEvaluator::new(module.clone(), Box::new(X86Like), false);
        let inc = SizeEvaluator::new(module, Box::new(X86Like), true);
        let a = optinline::core::tree::optimal_configuration(&full, PartitionStrategy::Paper);
        let b = optinline::core::tree::optimal_configuration(&inc, PartitionStrategy::Paper);
        assert_eq!(a.size, b.size, "case {case}");
        assert_eq!(a.evaluations, b.evaluations, "case {case}");
    }
}

/// The acceptance criterion: on clustered (multi-component) workloads the
/// incremental evaluator performs at least 2x less full-module-equivalent
/// compile work than whole-module compiles under an autotuning run, while
/// reaching the exact same result.
#[test]
fn incremental_halves_compile_work_on_multi_component_workloads() {
    let mut total_full = 0.0f64;
    let mut total_inc = 0.0f64;
    let mut measured = 0u32;
    for seed in 0..8u64 {
        let module = optinline::workloads::generate_file(&GenParams {
            n_internal: 10,
            n_public: 2,
            call_density: 1.4,
            clusters: 4,
            call_window: 1,
            ..GenParams::named(format!("multi{seed}"), seed)
        });
        let full = SizeEvaluator::new(module.clone(), Box::new(X86Like), false);
        let inc = SizeEvaluator::new(module, Box::new(X86Like), true);
        if inc.component_count() < 2 {
            continue;
        }
        measured += 1;
        let (full_best, full_work) = autotune(&full);
        let (inc_best, inc_work) = autotune(&inc);
        assert_eq!(full_best, inc_best, "seed {seed}: evaluators tuned to different sizes");
        total_full += full_work;
        total_inc += inc_work;
    }
    assert!(measured >= 4, "too few multi-component modules: {measured}");
    assert!(
        total_full >= 2.0 * total_inc,
        "expected >=2x compile-work saving: full {total_full:.1} vs incremental {total_inc:.1} \
         full-module equivalents"
    );
}

/// Runs two clean-slate autotuning rounds and reports (best size,
/// full-module-equivalent compile work).
fn autotune(ev: &SizeEvaluator) -> (u64, f64) {
    let tuner = Autotuner::new(ev, ev.sites().clone());
    let outcome = tuner.clean_slate(2);
    (outcome.best().size, ev.stats().full_module_equivalents)
}

/// `SizeEvaluator` derives its domain fingerprint from one printing of
/// the module. Over the golden corpus and both targets it must equal the
/// free function, or store scopes would move.
#[test]
fn evaluator_fingerprints_match_the_free_functions() {
    for module in common::golden_corpus() {
        let targets: [Box<dyn Target>; 2] = [Box::new(X86Like), Box::new(WasmLike)];
        for target in targets {
            let domain = domain_fingerprint(&module, target.as_ref(), PipelineOptions::default());
            let ev = SizeEvaluator::new(module.clone(), target, false);
            assert_eq!(ev.memo_scope(), Some(domain), "{} {}", module.name, ev.target().name());
        }
    }
}
