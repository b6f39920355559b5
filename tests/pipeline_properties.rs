//! Property tests spanning crates: the optimization pipeline preserves
//! observable behaviour, the printer/parser round-trips, and the tree
//! search stays sound, all over *generated* programs.
//!
//! Each property runs over a deterministic spread of seeds; `params_from`
//! mixes the seed into varied generator parameters, so the corpus spans
//! sizes, call densities, recursion, and opt-out probabilities.

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

/// Deterministic analogue of the old `arb_params()` strategy: the seed
/// selects every generator parameter through an independent mixer stream.
fn params_from(case: u64) -> GenParams {
    let mut s = case.wrapping_mul(0x2545F4914F6CDD1D);
    let seed = mix(&mut s) % 10_000;
    GenParams {
        name: format!("prop{seed}"),
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
        clusters: 1 + (seed % 3) as usize,
        call_window: 1 + (seed % 4) as usize,
    }
}

fn arb_decisions(module: &Module, seed: u64) -> InliningConfiguration {
    // Deterministic pseudo-random total configuration.
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

#[test]
fn pipeline_preserves_observables_under_any_configuration() {
    for case in 0..48u64 {
        let params = params_from(case);
        let module = optinline::workloads::generate_file(&params);
        let before =
            optinline::ir::interp::run_main(&module).expect("generated programs terminate");
        let config = arb_decisions(&module, case * 31 + 7);
        let mut optimized = module.clone();
        optimize_os(
            &mut optimized,
            &ForcedDecisions::new(config.decisions().clone()),
            PipelineOptions { verify_each: true, ..Default::default() },
        );
        let after =
            optinline::ir::interp::run_main(&optimized).expect("optimized programs terminate");
        assert_eq!(before.observable(), after.observable(), "case {case}");
    }
}

#[test]
fn printer_parser_round_trip() {
    for case in 0..48u64 {
        let module = optinline::workloads::generate_file(&params_from(case));
        let text = module.to_string();
        let parsed = optinline::ir::parse_module(&text).expect("printer output parses");
        assert_eq!(parsed.to_string(), text, "case {case}");
        optinline::ir::verify_module(&parsed).expect("parsed module verifies");
    }
}

#[test]
fn tree_search_equals_naive_on_generated_files() {
    let mut covered = 0;
    for seed in 0..64u64 {
        let module = optinline::workloads::generate_file(&GenParams {
            n_internal: 2 + (seed % 4) as usize,
            n_public: 1,
            call_density: 1.2,
            recursion: seed % 7 == 0,
            ..GenParams::named(format!("tree{seed}"), seed)
        });
        let ev = SizeEvaluator::new(module, Box::new(X86Like), false);
        let sites = ev.sites().clone();
        if sites.len() > 10 {
            continue;
        }
        covered += 1;
        let naive = optinline::core::exhaustive_search(&ev, &sites);
        let optimal = optinline::core::tree::optimal_configuration(&ev, PartitionStrategy::Paper);
        assert_eq!(optimal.size, naive.size, "seed {seed}");
        assert!(optimal.evaluations <= 2 * naive.evaluations + 1, "seed {seed}");
    }
    assert!(covered >= 10, "too few small-search cases covered: {covered}");
}

#[test]
fn autotuner_rounds_never_lose_to_their_best_base() {
    for case in 0..24u64 {
        let module = optinline::workloads::generate_file(&params_from(case));
        let ev = SizeEvaluator::new(module, Box::new(X86Like), false);
        let sites = ev.sites().clone();
        if sites.is_empty() {
            continue;
        }
        let tuner = Autotuner::new(&ev, sites);
        let init_size = ev.size_of(&InliningConfiguration::clean_slate());
        let outcome = tuner.clean_slate(3);
        // The best across rounds can never exceed the starting point.
        assert!(outcome.best().size <= init_size, "case {case}");
    }
}

#[test]
fn size_models_are_consistent_across_targets() {
    for case in 0..48u64 {
        let module = optinline::workloads::generate_file(&params_from(case));
        let x86 = text_size(&module, &X86Like);
        let wasm = text_size(&module, &WasmLike);
        assert!(x86 > 0);
        assert!(wasm > 0);
        // The compact target is smaller except when local-index pressure in
        // very large functions dominates (by design, §5.2.3's wasm effect);
        // even then it stays within a small factor of the x86 encoding.
        assert!(wasm as f64 <= x86 as f64 * 1.6, "wasm {wasm} >> x86 {x86} on case {case}");
    }
    // Inlining's headline saving differs by construction: calls are far
    // cheaper to encode on the compact target.
    let call = optinline::ir::Inst::Call {
        dst: None,
        callee: optinline::ir::FuncId::new(0),
        args: vec![],
        site: optinline::ir::CallSiteId::new(0),
        inline_path: vec![],
    };
    assert!(WasmLike.inst_bytes(&call) < X86Like.inst_bytes(&call));
}
