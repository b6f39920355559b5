//! The exactness boundary of the recursively partitioned search (§3.2).
//!
//! The search is exact because the standard pipeline keeps call-graph
//! components independent: a decision's size delta never depends on
//! decisions in another component. These tests (a) verify that additivity
//! holds under the standard pipeline, and (b) demonstrate how an
//! innocent-looking whole-module pass — function merging, LLVM's
//! `mergefunc` — breaks it, which is exactly why [`MergeFunctions`] is
//! opt-in rather than part of `optimize_os`.

use optinline::opt::{DeadFunctionElim, MergeFunctions, Pass};
use optinline::prelude::*;
use optinline_ir::CallSiteId;

/// Two isolated components, each a public caller invoking its own internal
/// helper; the two helpers are structurally identical.
fn twin_components() -> (Module, CallSiteId, CallSiteId) {
    let mut m = Module::new("twins");
    let helper1 = m.declare_function("helper1", 1, Linkage::Internal);
    let helper2 = m.declare_function("helper2", 1, Linkage::Internal);
    let caller1 = m.declare_function("caller1", 1, Linkage::Public);
    let caller2 = m.declare_function("caller2", 1, Linkage::Public);
    for h in [helper1, helper2] {
        let mut b = FuncBuilder::new(&mut m, h);
        let p = b.param(0);
        let mut acc = p;
        for k in 0..10 {
            let c = b.iconst(k * 3 + 1);
            acc = b.bin(BinOp::Xor, acc, c);
        }
        b.ret(Some(acc));
    }
    // Distinct trailing constants keep the *callers* from ever merging.
    let build_caller = |m: &mut Module, caller, helper, tag: i64| {
        let mut b = FuncBuilder::new(m, caller);
        let p = b.param(0);
        let (v, site) = b.call_with_site(helper, &[p]);
        let c = b.iconst(tag);
        let r = b.bin(BinOp::Add, v, c);
        b.ret(Some(r));
        site
    };
    let s1 = build_caller(&mut m, caller1, helper1, 1111);
    let s2 = build_caller(&mut m, caller2, helper2, 2222);
    optinline_ir::verify_module(&m).unwrap();
    (m, s1, s2)
}

fn size_with(m: &Module, cfg: &InliningConfiguration, merge: bool) -> u64 {
    let mut work = m.clone();
    optimize_os(
        &mut work,
        &ForcedDecisions::new(cfg.decisions().clone()),
        PipelineOptions::default(),
    );
    if merge && MergeFunctions.run(&mut work) {
        DeadFunctionElim.run(&mut work);
    }
    text_size(&work, &X86Like)
}

fn deltas(m: &Module, s1: CallSiteId, s2: CallSiteId, merge: bool) -> (i64, i64) {
    let cfg =
        |a: Decision, b: Decision| InliningConfiguration::clean_slate().with(s1, a).with(s2, b);
    use Decision::{Inline, NoInline};
    let f00 = size_with(m, &cfg(NoInline, NoInline), merge) as i64;
    let f10 = size_with(m, &cfg(Inline, NoInline), merge) as i64;
    let f01 = size_with(m, &cfg(NoInline, Inline), merge) as i64;
    let f11 = size_with(m, &cfg(Inline, Inline), merge) as i64;
    // Delta of inlining s1, measured with s2 off and with s2 on.
    (f10 - f00, f11 - f01)
}

#[test]
fn standard_pipeline_keeps_components_additive() {
    let (m, s1, s2) = twin_components();
    let (d_off, d_on) = deltas(&m, s1, s2, false);
    assert_eq!(
        d_off, d_on,
        "s1's size delta changed with s2's decision under the standard pipeline"
    );
}

#[test]
fn merge_functions_breaks_component_independence() {
    let (m, s1, s2) = twin_components();
    // With merging enabled, the twin helpers merge only while BOTH are
    // alive: inlining s1 (which deletes helper1) is cheaper when s2 is
    // also inlined (helper2 already gone, nothing to de-merge) than when
    // s2 keeps helper2 alive. Additivity must fail.
    let (d_off, d_on) = deltas(&m, s1, s2, true);
    assert_ne!(d_off, d_on, "expected mergefunc to couple the components (the §6 hazard)");
}

#[test]
fn tree_search_remains_sound_without_merging() {
    let (m, _, _) = twin_components();
    let ev = SizeEvaluator::new(m, Box::new(X86Like), false);
    let sites = ev.sites().clone();
    let naive = optinline::core::exhaustive_search(&ev, &sites);
    let tree = optinline::core::tree::optimal_configuration(&ev, PartitionStrategy::Paper);
    assert_eq!(tree.size, naive.size);
    // Two single-edge components: 2 + 2 leaves + 1 combining evaluation.
    // (With this few edges the combine overhead outweighs the split — the
    // payoff grows exponentially with component size, see Table 1.)
    assert_eq!(tree.evaluations, 5);
}
