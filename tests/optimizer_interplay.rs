//! Cross-pass integration: the scenarios where inlining only pays because
//! several cleanup passes cooperate — the cascades §1 of the paper calls
//! "enabling other optimizations".

use optinline::opt::{Sccp, SimplifyCfg};
use optinline::prelude::*;

/// Callee with a branch on its argument; both call sites pass constants
/// that select *different* arms. After inlining, SCCP must collapse each
/// copy's guard even though the join shape hides it from plain folding.
#[test]
fn inline_then_sccp_collapses_per_copy_guards() {
    let mut m = Module::new("m");
    let sel = m.declare_function("select_arm", 1, Linkage::Internal);
    let main = m.declare_function("main", 0, Linkage::Public);
    {
        let mut b = FuncBuilder::new(&mut m, sel);
        let p = b.param(0);
        let zero = b.iconst(0);
        let c = b.bin(BinOp::Eq, p, zero);
        let (t, _) = b.new_block(0);
        let (e, _) = b.new_block(0);
        let (j, jp) = b.new_block(1);
        b.branch(c, t, &[], e, &[]);
        b.switch_to(t);
        let a = b.iconst(111);
        b.jump(j, &[a]);
        b.switch_to(e);
        let mut acc = p;
        for k in 0..10 {
            let cst = b.iconst(k + 2);
            acc = b.bin(BinOp::Mul, acc, cst);
        }
        b.jump(j, &[acc]);
        b.switch_to(j);
        b.ret(Some(jp[0]));
    }
    {
        let mut b = FuncBuilder::new(&mut m, main);
        let zero = b.iconst(0);
        let one = b.iconst(1);
        let va = b.call(sel, &[zero]).unwrap();
        let vb = b.call(sel, &[one]).unwrap();
        let sum = b.bin(BinOp::Add, va, vb);
        b.ret(Some(sum));
    }
    let before = optinline::ir::interp::run_main(&m).unwrap();
    let mut opt = m.clone();
    optinline::opt::optimize_os(
        &mut opt,
        &optinline::opt::AlwaysInline,
        PipelineOptions { verify_each: true, ..Default::default() },
    );
    let after = optinline::ir::interp::run_main(&opt).unwrap();
    assert_eq!(before.observable(), after.observable());
    // The zero-arg copy folds to 111; the one-arg copy computes its chain;
    // main ends with everything folded to a single constant return.
    let main_f = opt.func(opt.func_by_name("main").unwrap());
    assert_eq!(main_f.blocks.len(), 1, "{opt}");
    assert!(main_f.blocks[0].insts.len() <= 1, "{opt}");
    // And the callee died.
    assert!(opt.is_stub(opt.func_by_name("select_arm").unwrap()));
}

/// The standard cleanup pipeline runs exactly these seven passes, in this
/// order: SCCP is the only constant folder, and nothing merges tails.
#[test]
fn standard_pipeline_registers_seven_passes_in_order() {
    let pm = optinline::opt::cleanup_pipeline(PipelineOptions::default());
    let names: Vec<&str> = pm.passes().map(|p| p.name()).collect();
    assert_eq!(
        names,
        ["simplify", "sccp", "cse", "gvn", "simplify-cfg", "dce", "dead-arg-elim"],
        "the standard cleanup pipeline changed"
    );
}

/// The passes are individually available and composable outside the
/// standard pipeline.
#[test]
fn passes_compose_in_custom_managers() {
    let module = optinline::workloads::generate_file(&optinline::workloads::GenParams::named(
        "compose", 123,
    ));
    let before = optinline::ir::interp::run_main(&module).unwrap();
    let mut pm = optinline::opt::PassManager::new();
    pm.verify_each(true);
    pm.add(Sccp).add(SimplifyCfg).add(optinline::opt::Gvn).add(optinline::opt::Dce::default());
    let mut m = module.clone();
    pm.run_to_fixpoint(&mut m);
    let after = optinline::ir::interp::run_main(&m).unwrap();
    assert_eq!(before.observable(), after.observable());
    assert!(text_size(&m, &X86Like) <= text_size(&module, &X86Like));
}

/// Size monotonicity of the cleanup pipeline itself: running it never grows
/// the measured text size, on a spread of generated modules.
#[test]
fn cleanup_never_grows_code() {
    for seed in 0..20 {
        let module = optinline::workloads::generate_file(&optinline::workloads::GenParams {
            n_internal: 4 + (seed % 5) as usize,
            ..optinline::workloads::GenParams::named(format!("mono{seed}"), seed)
        });
        let before = text_size(&module, &X86Like);
        let mut m = module.clone();
        let pm = optinline::opt::cleanup_pipeline(PipelineOptions::default());
        pm.run_to_fixpoint(&mut m);
        let after = text_size(&m, &X86Like);
        assert!(after <= before, "seed {seed}: cleanup grew {before} -> {after}");
    }
}

/// Every pass of the standard cleanup pipeline, run alone, keeps the
/// verifier happy and the observables unchanged on every paper sample.
#[test]
fn cleanup_passes_are_safe_on_all_samples() {
    let pm = optinline::opt::cleanup_pipeline(PipelineOptions::default());
    for module in optinline::workloads::paper_samples() {
        let before = optinline::ir::interp::run_main(&module).ok().map(|o| (o.ret, o.globals));
        for pass in pm.passes() {
            let (name, pass_name) = (&module.name, pass.name());
            let mut m = module.clone();
            pass.run(&mut m);
            optinline::ir::verify_module(&m)
                .unwrap_or_else(|e| panic!("{pass_name} on {name}: {e}"));
            let after = optinline::ir::interp::run_main(&m).ok().map(|o| (o.ret, o.globals));
            assert_eq!(before, after, "{pass_name} on {name}");
        }
    }
}
