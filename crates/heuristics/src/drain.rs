//! Cleanup between inlining steps, for both baseline inliners: estimates
//! and trial measurements must see *folded* bodies, or every absorbed
//! callee looks bloated to its own callers.
//!
//! A drain runs the cleanup pipeline (3-round cap, fresh live
//! [`AnalysisManager`]) seeded with a `pending` set and every transitive
//! caller of a pending function. The first drain's `pending` is every
//! function, and an inliner adds each function its step rewrote. After a
//! converged drain `pending` becomes the direct callers of every function
//! whose [`EffectSummary::may_write`] bit differs across the drain, and
//! after a drain the cap stopped, every function.
//!
//! The seeded drain makes the same changes, in the same rounds and the same
//! [`FuncId`] order, as a drain seeded with every function, so the module
//! after every step is byte-identical. The invariant is: every function
//! outside `pending` is at a fixpoint of every cleanup pass, under the
//! current module and the current live effect summary.
//!
//! - A pass reads another function in only two ways. CSE and DCE read each
//!   direct callee's write bit. Dead-argument elimination rewrites a
//!   callee's callers, and the worklist's mid-round rule already joins
//!   those callers as changed. Every other input of a pass is the visited
//!   function's own body and flags.
//! - No cleanup pass adds a store or a call, so during a drain a write bit
//!   can only fall (checked by a `debug_assert`).
//! - Inlining a site changes only the functions holding a call with it,
//!   and no bit, because each caller already inherited its callee's
//!   writes. The cost model inlines at `f`'s step only in `f`: it never
//!   inlines within an SCC, and `f`'s callers come later in the bottom-up
//!   walk. A trial may inline within an SCC, where the site's coupled
//!   copies can sit in other functions of `f`'s SCC, so every holder joins
//!   the trial's copy of `pending`.
//! - So take a function outside the seed. None of its transitive callees
//!   changes in round 1, so no bit it reads can fall, and every visit to it
//!   is a no-op. A no-op visit changes no state, so skipping it changes
//!   nothing else either.
//! - A drain that converged leaves a function off its fixpoint only when a
//!   direct callee's bit fell after that function's last visit; a drain
//!   the cap stopped may leave any function off its fixpoint. That is the
//!   rule for the next `pending`.
//! - A trial's measurement stubs unreachable functions on a scratch copy,
//!   then drains it from the trial's `pending`. A stub is at every pass's
//!   fixpoint, and callers of unreachable functions are unreachable, so no
//!   reachable function's input moves. An accepted trial hands its module
//!   and its `pending` to the next step.

use optinline_callgraph::Decision;
use optinline_ir::analysis::EffectSummary;
use optinline_ir::{AnalysisManager, CallSiteId, FuncId, Inst, Module};
use optinline_opt::{cleanup_pipeline, PassManager, PipelineOptions};
use std::collections::{BTreeMap, BTreeSet};

/// The cleanup pipeline both inliners drain between steps.
pub(crate) fn cleanup() -> PassManager {
    cleanup_pipeline(PipelineOptions { max_iterations: 3, ..Default::default() })
}

/// Drains `cleanup` over `pending` and its transitive callers, then leaves
/// in `pending` the functions the drain may have left off its fixpoint.
pub(crate) fn drain_pending(
    cleanup: &PassManager,
    work: &mut Module,
    pending: &mut BTreeSet<FuncId>,
) {
    let mut call_graph = AnalysisManager::new();
    let callers = call_graph.callers(work);
    let mut seed = pending.clone();
    let mut stack: Vec<FuncId> = seed.iter().copied().collect();
    while let Some(g) = stack.pop() {
        for &caller in &callers[g.index()] {
            if seed.insert(caller) {
                stack.push(caller);
            }
        }
    }
    let before = EffectSummary::compute(work);
    let mut stats = cleanup.fresh_stats();
    let fp = cleanup.run_worklist(work, &mut AnalysisManager::new(), seed, &mut stats);
    let after = EffectSummary::compute(work);
    pending.clear();
    for g in work.func_ids() {
        debug_assert!(before.may_write(g) || !after.may_write(g), "a cleanup pass made {g} write");
        if before.may_write(g) != after.may_write(g) {
            pending.extend(&callers[g.index()]);
        }
    }
    if !fp.hit_fixpoint {
        pending.extend(work.func_ids());
    }
}

/// The first call in `f` whose site has no decision yet.
pub(crate) fn first_undecided<'m>(
    module: &'m Module,
    f: FuncId,
    decisions: &BTreeMap<CallSiteId, Decision>,
) -> Option<(&'m Inst, FuncId, CallSiteId)> {
    module.func(f).blocks.iter().flat_map(|b| &b.insts).find_map(|inst| match inst {
        Inst::Call { callee, site, .. } if !decisions.contains_key(site) => {
            Some((inst, *callee, *site))
        }
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_ir::{BinOp, FuncBuilder, Linkage};
    use optinline_opt::{run_inliner, Fixpoint, ForcedDecisions};

    /// The drain seeded with every function.
    fn drain_all(cleanup: &PassManager, m: &mut Module) -> Fixpoint {
        let all: Vec<FuncId> = m.func_ids().collect();
        cleanup.run_worklist(m, &mut AnalysisManager::new(), all, &mut cleanup.fresh_stats())
    }

    /// A module whose callers read their callees' write bits, in `FuncId`
    /// order `h1 h2 f1 f2 g1 g2`, at a cleanup fixpoint except for `f1` and
    /// `f2`, whose one call each has just been inlined:
    ///
    /// - `h1(p)` stores only when `p != 0`, and `f1` inlined `h1(0)`, so
    ///   `f1` stops writing in the drain's first round;
    /// - `h2(p, q)` stores only when `p != q`, and `f2` inlined `h2(t, t)`:
    ///   its branch folds only after simplify-cfg has forwarded both
    ///   arguments, so `f2` stops writing in the second round;
    /// - `g1` holds an unused call to `f1`;
    /// - `g2` loads a global on both sides of a used call to `f2`.
    fn falling_bits() -> (Module, [FuncId; 4]) {
        let mut m = Module::new("m");
        let a = m.add_global("a", 0);
        let b = m.add_global("b", 0);
        let h1 = m.declare_function("h1", 1, Linkage::Internal);
        let h2 = m.declare_function("h2", 2, Linkage::Internal);
        let f1 = m.declare_function("f1", 0, Linkage::Internal);
        let f2 = m.declare_function("f2", 0, Linkage::Internal);
        let g1 = m.declare_function("g1", 0, Linkage::Public);
        let g2 = m.declare_function("g2", 0, Linkage::Public);
        for (h, n_params) in [(h1, 1), (h2, 2)] {
            let mut fb = FuncBuilder::new(&mut m, h);
            let p = fb.param(0);
            let q = if n_params == 1 { fb.iconst(0) } else { fb.param(1) };
            let c = fb.bin(BinOp::Ne, p, q);
            let (store, _) = fb.new_block(0);
            let (done, _) = fb.new_block(0);
            fb.branch(c, store, &[], done, &[]);
            fb.switch_to(store);
            fb.store(a, p);
            fb.jump(done, &[]);
            fb.ret(None);
        }
        let mut sites = Vec::new();
        {
            let mut fb = FuncBuilder::new(&mut m, f1);
            let zero = fb.iconst(0);
            sites.push(fb.call_void(h1, &[zero]));
            fb.ret(None);
        }
        {
            let mut fb = FuncBuilder::new(&mut m, f2);
            let x = fb.load(b);
            let one = fb.iconst(1);
            let t = fb.bin(BinOp::Add, x, one);
            sites.push(fb.call_void(h2, &[t, t]));
            fb.ret(Some(x));
        }
        {
            let mut fb = FuncBuilder::new(&mut m, g1);
            fb.call_void(f1, &[]);
            fb.ret(None);
        }
        {
            let mut fb = FuncBuilder::new(&mut m, g2);
            let before = fb.load(a);
            let r = fb.call(f2, &[]).unwrap();
            let after = fb.load(a);
            let sum = fb.bin(BinOp::Add, before, after);
            let v = fb.bin(BinOp::Add, sum, r);
            fb.ret(Some(v));
        }
        assert!(drain_all(&cleanup(), &mut m).hit_fixpoint);
        let inline = sites.into_iter().map(|s| (s, Decision::Inline)).collect();
        run_inliner(&mut m, &ForcedDecisions::new(inline));
        (m, [f1, f2, g1, g2])
    }

    #[test]
    fn a_pending_drain_equals_the_whole_module_drain() {
        // Test A: g1's unused call to f1 goes in round 1 only if g1, a
        // caller of the pending f1, is in the seed.
        let (m, [f1, f2, g1, _]) = falling_bits();
        let cleanup = cleanup();
        let mut whole = m.clone();
        drain_all(&cleanup, &mut whole);
        let mut seeded = m.clone();
        drain_pending(&cleanup, &mut seeded, &mut BTreeSet::from([f1, f2]));
        assert_ne!(whole.func(g1), m.func(g1), "the drain must change g1");
        assert_eq!(seeded, whole);
    }

    #[test]
    fn a_drain_leaves_off_its_fixpoint_only_what_it_returns_pending() {
        // Test B: f2 stops writing in round 2, after g2's only visit, so
        // the loads around g2's call to f2 merge only in a later drain.
        let (mut m, [f1, f2, _, g2]) = falling_bits();
        let cleanup = cleanup();
        let mut pending = BTreeSet::from([f1, f2]);
        drain_pending(&cleanup, &mut m, &mut pending);
        let mut again = m.clone();
        drain_all(&cleanup, &mut again);
        assert_ne!(again.func(g2), m.func(g2), "the next drain must change g2");
        for f in m.func_ids().filter(|f| !pending.contains(f)) {
            assert_eq!(again.func(f), m.func(f), "{f} changed but was not pending");
        }
    }

    #[test]
    fn a_drain_the_cap_stops_leaves_every_function_pending() {
        // Test C: c5 ignores its parameter, and each c_k only forwards its
        // own to c_{k+1}. Dead-argument elimination prunes one link per
        // round, because each caller comes earlier in `FuncId` order.
        let mut m = Module::new("m");
        let main = m.declare_function("main", 0, Linkage::Public);
        let chain: Vec<FuncId> =
            (1..=5).map(|k| m.declare_function(format!("c{k}"), 1, Linkage::Internal)).collect();
        {
            let mut fb = FuncBuilder::new(&mut m, main);
            let x = fb.iconst(7);
            let v = fb.call(chain[0], &[x]).unwrap();
            fb.ret(Some(v));
        }
        for (k, &c) in chain.iter().enumerate() {
            let mut fb = FuncBuilder::new(&mut m, c);
            let p = fb.param(0);
            let v = match chain.get(k + 1) {
                Some(&next) => fb.call(next, &[p]).unwrap(),
                None => fb.iconst(0),
            };
            fb.ret(Some(v));
        }
        let cleanup = cleanup();
        assert!(!drain_all(&cleanup, &mut m.clone()).hit_fixpoint, "the cap must stop it");
        let mut pending = BTreeSet::from([chain[4]]);
        drain_pending(&cleanup, &mut m, &mut pending);
        assert_eq!(pending, m.func_ids().collect());
    }
}
