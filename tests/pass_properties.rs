//! Per-pass property tests: each optimization pass, run in isolation,
//! preserves interpreter observables and never breaks the verifier, across
//! generated modules. The whole-pipeline property holds trivially if these
//! do; testing passes individually localizes any future regression.
//!
//! Properties are exercised over a fixed spread of generator seeds (the
//! generator is a pure function of its params, so every run covers the
//! exact same corpus — failures are reproducible by seed).
//!
//! `cleanup_pass_outputs_match_golden` pins what each cleanup pass makes
//! of that corpus, byte for byte, against `tests/golden/pass_outputs.txt`.

mod common;

use optinline::opt::{
    Cse, Dce, DeadArgElim, DeadFunctionElim, Gvn, MergeFunctions, Pass, Sccp, Simplify, SimplifyCfg,
};
use optinline::prelude::*;
use optinline::workloads::GenParams;

fn passes() -> Vec<(&'static str, Box<dyn Pass>)> {
    vec![
        ("simplify", Box::new(Simplify)),
        ("sccp", Box::new(Sccp)),
        ("cse", Box::new(Cse::default())),
        ("gvn", Box::new(Gvn)),
        ("simplify-cfg", Box::new(SimplifyCfg)),
        ("dce", Box::new(Dce::default())),
        ("dead-arg-elim", Box::new(DeadArgElim)),
        ("dead-function-elim", Box::new(DeadFunctionElim)),
        ("merge-functions", Box::new(MergeFunctions)),
    ]
}

/// The seed spread the per-pass properties run over (24 cases in 0..2000,
/// matching the old proptest configuration).
fn seeds() -> impl Iterator<Item = u64> {
    (0..24).map(|i| i * 83 + 1)
}

fn generated(seed: u64) -> Module {
    optinline::workloads::generate_file(&GenParams {
        n_internal: 2 + (seed % 6) as usize,
        n_public: (seed % 2) as usize,
        call_density: 1.5,
        branchy_prob: 0.5,
        loop_prob: 0.25,
        recursion: seed.is_multiple_of(4),
        noinline_prob: if seed.is_multiple_of(3) { 0.25 } else { 0.0 },
        clusters: 1 + (seed % 3) as usize,
        call_window: 1 + (seed % 3) as usize,
        ..GenParams::named(format!("pass{seed}"), seed)
    })
}

/// Inlining first makes the module maximally interesting for cleanups.
fn generated_inlined(seed: u64) -> Module {
    let mut m = generated(seed);
    optinline::opt::run_inliner(&mut m, &optinline::opt::AlwaysInline);
    m
}

#[test]
fn each_pass_preserves_observables() {
    for seed in seeds() {
        let module = generated_inlined(seed);
        let before = optinline::ir::interp::run_main(&module).expect("terminates");
        for (name, pass) in passes() {
            let mut m = module.clone();
            pass.run(&mut m);
            optinline::ir::verify_module(&m)
                .unwrap_or_else(|e| panic!("{name} broke the IR on seed {seed}: {e}"));
            let after = optinline::ir::interp::run_main(&m)
                .unwrap_or_else(|e| panic!("{name} broke execution on seed {seed}: {e}"));
            assert_eq!(
                before.observable(),
                after.observable(),
                "{name} changed behaviour on seed {seed}"
            );
        }
    }
}

#[test]
fn each_pass_is_idempotent_at_its_own_fixpoint() {
    // Running a pass until it reports no change, then once more, must
    // still report no change (no oscillation within a single pass).
    for seed in seeds() {
        let module = generated_inlined(seed);
        for (name, pass) in passes() {
            let mut m = module.clone();
            let mut guard = 0;
            while pass.run(&mut m) {
                guard += 1;
                assert!(guard < 50, "{name} does not converge on seed {seed}");
            }
            assert!(!pass.run(&mut m), "{name} oscillates on seed {seed}");
        }
    }
}

#[test]
fn reducing_passes_never_grow_measured_size() {
    // The strictly-reducing passes are size-non-increasing in isolation.
    // Enabler passes (simplify, sccp) may trade a 3-byte op
    // for a 5-byte constant and only pay off after cleanup, and
    // merge-functions leaves orphans until CFG cleanup; those are
    // excluded here and covered by the whole-pipeline property instead.
    let reducing = ["cse", "gvn", "simplify-cfg", "dce", "dead-arg-elim", "dead-function-elim"];
    for seed in seeds() {
        let module = generated_inlined(seed);
        let before = text_size(&module, &X86Like);
        for (name, pass) in passes() {
            if !reducing.contains(&name) {
                continue;
            }
            let mut m = module.clone();
            let mut guard = 0;
            while pass.run(&mut m) {
                guard += 1;
                if guard >= 50 {
                    break;
                }
            }
            let after = text_size(&m, &X86Like);
            assert!(after <= before, "{name} grew size {before} -> {after} on seed {seed}");
        }
    }
}

/// Tail duplication: in every function, each non-entry block without
/// parameters whose definitions are used only inside it gets a copy with
/// fresh value ids, and the first jump from another block to it is
/// redirected to the copy. The result has duplicate tails, which generated
/// modules never have on their own.
fn duplicate_tails(module: &mut Module) {
    use optinline::ir::{BlockId, Inst};
    for fid in module.func_ids().collect::<Vec<_>>() {
        let func = module.func_mut(fid);
        let counts = optinline::ir::analysis::use_counts(func);
        for b in 1..func.blocks.len() {
            let block = func.blocks[b].clone();
            let mut inner = vec![0u32; counts.len()];
            block.insts.iter().for_each(|i| i.for_each_use(|v| inner[v.index()] += 1));
            block.term.for_each_use(|v| inner[v.index()] += 1);
            let escapes = block
                .insts
                .iter()
                .filter_map(Inst::def)
                .any(|d| inner[d.index()] != counts[d.index()]);
            let Some(pred) = (0..b)
                .find(|&p| func.blocks[p].term.successors().contains(&BlockId::new(b as u32)))
            else {
                continue;
            };
            if !block.params.is_empty() || escapes {
                continue;
            }
            let mut copy = block;
            let mut renamed = std::collections::BTreeMap::new();
            for inst in &mut copy.insts {
                inst.map_uses(|v| renamed.get(&v).copied().unwrap_or(v));
                let fresh = func.new_value();
                let dst = match inst {
                    Inst::Const { dst, .. } | Inst::Bin { dst, .. } | Inst::Load { dst, .. } => dst,
                    Inst::Call { dst: Some(dst), .. } => dst,
                    Inst::Call { dst: None, .. } | Inst::Store { .. } => continue,
                };
                renamed.insert(*dst, fresh);
                *dst = fresh;
            }
            copy.term.map_uses(|v| renamed.get(&v).copied().unwrap_or(v));
            let twin = BlockId::new(func.blocks.len() as u32);
            func.blocks.push(copy);
            let mut redirected = false;
            func.blocks[pred].term.for_each_target_mut(|t| {
                if !redirected && t.block.index() == b {
                    t.block = twin;
                    redirected = true;
                }
            });
        }
    }
}

/// One application (`Pass::run`) of each of the seven cleanup passes to
/// three shapes of each seed's module, pinned as `pass input seed changed
/// digest size` rows: whether the pass reported a change, the digest of the
/// printed module (`common::module_digest`), and its x86 text size. The
/// inputs are the inlined module (`inlined`); the same after one
/// simplify-cfg run, which threads the inliner's argument-passing jumps so
/// that constant arguments meet their uses (`threaded`, the shape constant
/// folding and DCE act on); and the inlined module with duplicated tails
/// (`twinned`). Every pass must change something somewhere.
#[test]
fn cleanup_pass_outputs_match_golden() {
    let cleanup = ["simplify", "sccp", "cse", "gvn", "simplify-cfg", "dce", "dead-arg-elim"];
    let mut inputs: Vec<(&str, u64, Module)> = Vec::new();
    for seed in seeds() {
        let inlined = generated_inlined(seed);
        let mut threaded = inlined.clone();
        SimplifyCfg.run(&mut threaded);
        let mut twinned = inlined.clone();
        duplicate_tails(&mut twinned);
        optinline::ir::verify_module(&twinned).expect("tail duplication keeps the IR valid");
        inputs.extend([
            ("inlined", seed, inlined),
            ("threaded", seed, threaded),
            ("twinned", seed, twinned),
        ]);
    }
    let mut rows = String::from("# pass input seed changed digest x86-size\n");
    let mut idle: Vec<&str> = Vec::new();
    for (name, pass) in passes().into_iter().filter(|(name, _)| cleanup.contains(name)) {
        let mut changed_somewhere = false;
        for (input, seed, module) in &inputs {
            let mut m = module.clone();
            let changed = pass.run(&mut m);
            changed_somewhere |= changed;
            let digest = common::module_digest(&m);
            let size = text_size(&m, &X86Like);
            rows.push_str(&format!("{name} {input} {seed} {changed} {digest} {size}\n"));
        }
        if !changed_somewhere {
            idle.push(name);
        }
    }
    assert!(idle.is_empty(), "passes that change nothing in the corpus: {idle:?}");
    common::assert_golden("pass_outputs.txt", &rows);
}
