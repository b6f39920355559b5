//! The LLVM-`-Os`-like baseline inlining strategy: a bottom-up SCC walk
//! with a per-call-site cost model — the comparator every experiment in the
//! paper measures against.
//!
//! The driver mirrors LLVM's inliner structure:
//!
//! 1. visit SCCs of the call graph bottom-up (callees before callers);
//! 2. within a function, repeatedly take the first call with an undecided
//!    site, estimate its size cost on the *current* (partially inlined)
//!    module, and decide;
//! 3. `Inline` decisions are applied immediately, so later estimates in the
//!    same caller see the grown body, and later callers clone the already-
//!    expanded callee — exactly the compounding the real pipeline has;
//! 4. intra-SCC (recursive) edges are never inlined, matching LLVM's
//!    refusal to inline within an SCC.
//!
//! Decisions are recorded per original [`CallSiteId`]; cloned copies share
//! the original's decision (coupled, §2 of the paper).
//!
//! ## Cleanup between steps
//!
//! After each function's step the module is drained through the cleanup
//! pipeline (3-round cap, fresh live [`AnalysisManager`]), so the next
//! estimate sees folded bodies. The drain is seeded with only the
//! functions that can change: a `pending` set, plus every transitive
//! caller of a pending function. `pending` starts as every function; the
//! function whose step just ran joins it; after a converged drain it
//! becomes the direct callers of every function whose
//! [`EffectSummary::may_write`] bit differs across the drain, and after a
//! drain the cap stopped it becomes every function again.
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
//! - Inlining a site into f leaves every bit as it was, because f already
//!   inherited its callee's writes. Inlining at f's step changes only f:
//!   its undecided sites exist nowhere else, because same-SCC edges are
//!   never inlined and f's callers, the only functions its body could have
//!   been copied into, come later in the bottom-up walk.
//! - So take a function outside the seed. None of its transitive callees
//!   changes in round 1, so no bit it reads can fall, and every visit to it
//!   is a no-op. A no-op visit changes no state, so skipping it changes
//!   nothing else either.
//! - A drain that converged leaves a function off its fixpoint only when a
//!   direct callee's bit fell after that function's last visit; a drain
//!   the cap stopped may leave any function off its fixpoint. That is the
//!   rule for the next `pending`.

use crate::cost::{estimate, CostParams};
use optinline_callgraph::{bottom_up_sccs, Decision};
use optinline_codegen::Target;
use optinline_ir::analysis::EffectSummary;
use optinline_ir::{AnalysisManager, CallSiteId, FuncId, Inst, Module};
use optinline_opt::{cleanup_pipeline, run_inliner, ForcedDecisions, PassManager, PipelineOptions};
use std::collections::{BTreeMap, BTreeSet};

/// The baseline strategy, parameterized by its cost model.
#[derive(Clone, Copy, Debug, Default)]
pub struct CostModelInliner {
    /// Cost-model parameters.
    pub params: CostParams,
}

impl CostModelInliner {
    /// Creates the strategy with explicit parameters.
    pub fn new(params: CostParams) -> Self {
        CostModelInliner { params }
    }

    /// Produces this strategy's inlining configuration for `module`:
    /// a decision for every inlinable call site.
    pub fn decide(&self, module: &Module, target: &dyn Target) -> BTreeMap<CallSiteId, Decision> {
        let mut work = module.clone();
        let mut decisions: BTreeMap<CallSiteId, Decision> = BTreeMap::new();
        let cleanup = heuristic_cleanup();

        let sccs = bottom_up_sccs(module);
        let scc_of: BTreeMap<FuncId, usize> =
            sccs.iter().enumerate().flat_map(|(i, scc)| scc.iter().map(move |&f| (f, i))).collect();
        // The functions that may be off a cleanup fixpoint (module docs).
        let mut pending: BTreeSet<FuncId> = work.func_ids().collect();

        for scc in &sccs {
            for &f in scc {
                // First call in `f` whose site is still undecided.
                while let Some((inst, callee, site)) = first_undecided(&work, f, &decisions) {
                    let decision = if !work.func(callee).inlinable
                        || work.is_stub(callee)
                        || scc_of.get(&callee) == scc_of.get(&f)
                    {
                        // Recursive (same-SCC) or un-inlinable: refuse.
                        Decision::NoInline
                    } else if crate::cost::body_bytes(work.func(callee), target)
                        > self.params.max_callee_bytes
                    {
                        Decision::NoInline
                    } else {
                        let live = live_calls_to(&work, callee);
                        let breakdown = estimate(&work, &self.params, target, f, &inst, live);
                        if breakdown.cost <= self.params.threshold {
                            Decision::Inline
                        } else {
                            Decision::NoInline
                        }
                    };
                    decisions.insert(site, decision);
                    if decision == Decision::Inline {
                        // Apply now so subsequent estimates in this caller
                        // (and later callers of it) see the expanded body.
                        let oracle =
                            ForcedDecisions::new([(site, Decision::Inline)].into_iter().collect());
                        run_inliner(&mut work, &oracle);
                    }
                }
                // Simplify before the next caller looks at this function.
                pending.insert(f);
                drain_pending(&cleanup, &mut work, &mut pending);
            }
        }
        // Any site never reached (e.g. in dead code) defaults to NoInline.
        for site in module.inlinable_sites() {
            decisions.entry(site).or_insert(Decision::NoInline);
        }
        // Restrict to original inlinable sites.
        let valid: BTreeSet<CallSiteId> = module.inlinable_sites();
        decisions.retain(|s, _| valid.contains(s));
        decisions
    }
}

/// Function simplification between inlining steps, as LLVM's bottom-up
/// pipeline does: cost estimates must see *folded* bodies, or every
/// absorbed callee looks bloated to its own callers.
fn heuristic_cleanup() -> PassManager {
    cleanup_pipeline(PipelineOptions { max_iterations: 3, ..Default::default() })
}

/// Drains `cleanup` over `pending` and every transitive caller of a
/// pending function, then leaves in `pending` the functions the drain may
/// have left off a cleanup fixpoint (see the module docs for why this is
/// byte-identical to draining every function).
fn drain_pending(cleanup: &PassManager, work: &mut Module, pending: &mut BTreeSet<FuncId>) {
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

fn first_undecided(
    module: &Module,
    f: FuncId,
    decisions: &BTreeMap<CallSiteId, Decision>,
) -> Option<(Inst, FuncId, CallSiteId)> {
    for block in &module.func(f).blocks {
        for inst in &block.insts {
            if let Inst::Call { callee, site, .. } = inst {
                if !decisions.contains_key(site) {
                    return Some((inst.clone(), *callee, *site));
                }
            }
        }
    }
    None
}

fn live_calls_to(module: &Module, callee: FuncId) -> usize {
    module.iter_funcs().flat_map(|(_, f)| f.call_edges()).filter(|(_, c)| *c == callee).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_codegen::{text_size, X86Like};
    use optinline_ir::{BinOp, FuncBuilder, Linkage};
    use optinline_opt::{optimize_os, optimize_os_no_inline, PipelineOptions};

    fn tiny_callee_module() -> Module {
        let mut m = Module::new("m");
        let inc = m.declare_function("inc", 1, Linkage::Internal);
        let main = m.declare_function("main", 0, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, inc);
            let p = b.param(0);
            let one = b.iconst(1);
            let r = b.bin(BinOp::Add, p, one);
            b.ret(Some(r));
        }
        {
            let mut b = FuncBuilder::new(&mut m, main);
            let x = b.iconst(5);
            let v = b.call(inc, &[x]).unwrap();
            b.ret(Some(v));
        }
        m
    }

    #[test]
    fn tiny_single_use_callee_is_inlined() {
        let m = tiny_callee_module();
        let decisions = CostModelInliner::default().decide(&m, &X86Like);
        assert_eq!(decisions.len(), 1);
        assert!(decisions.values().all(|&d| d == Decision::Inline));
    }

    #[test]
    fn huge_callee_is_refused() {
        let mut m = Module::new("m");
        let big = m.declare_function("big", 1, Linkage::Internal);
        let main = m.declare_function("main", 0, Linkage::Public);
        let main2 = m.declare_function("main2", 0, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, big);
            let p = b.param(0);
            let mut acc = p;
            for k in 1..400 {
                let c = b.iconst(k);
                acc = b.bin(BinOp::Xor, acc, c);
            }
            b.ret(Some(acc));
        }
        for f in [main, main2] {
            let mut b = FuncBuilder::new(&mut m, f);
            let x = b.iconst(1);
            let v = b.call(big, &[x]).unwrap();
            b.ret(Some(v));
        }
        let decisions = CostModelInliner::default().decide(&m, &X86Like);
        assert!(decisions.values().all(|&d| d == Decision::NoInline));
    }

    #[test]
    fn recursive_edges_are_never_inlined() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 1, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, f);
            let n = b.param(0);
            let v = b.call(f, &[n]).unwrap();
            b.ret(Some(v));
        }
        let decisions = CostModelInliner::default().decide(&m, &X86Like);
        assert_eq!(decisions.values().copied().collect::<Vec<_>>(), vec![Decision::NoInline]);
    }

    #[test]
    fn decisions_cover_every_inlinable_site() {
        let m = tiny_callee_module();
        let decisions = CostModelInliner::default().decide(&m, &X86Like);
        assert_eq!(decisions.keys().copied().collect::<BTreeSet<_>>(), m.inlinable_sites());
    }

    #[test]
    fn baseline_beats_no_inlining_on_friendly_code() {
        // A chain of small wrappers: the heuristic should inline them all
        // and the result must be smaller than the no-inline build (the
        // Figure 1 effect).
        let mut m = Module::new("m");
        let leaf = m.declare_function("leaf", 1, Linkage::Internal);
        let w1 = m.declare_function("w1", 1, Linkage::Internal);
        let w2 = m.declare_function("w2", 1, Linkage::Internal);
        let main = m.declare_function("main", 0, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, leaf);
            let p = b.param(0);
            let r = b.bin(BinOp::Add, p, p);
            b.ret(Some(r));
        }
        {
            let mut b = FuncBuilder::new(&mut m, w1);
            let p = b.param(0);
            let v = b.call(leaf, &[p]).unwrap();
            b.ret(Some(v));
        }
        {
            let mut b = FuncBuilder::new(&mut m, w2);
            let p = b.param(0);
            let v = b.call(w1, &[p]).unwrap();
            b.ret(Some(v));
        }
        {
            let mut b = FuncBuilder::new(&mut m, main);
            let x = b.iconst(4);
            let v = b.call(w2, &[x]).unwrap();
            b.ret(Some(v));
        }
        let decisions = CostModelInliner::default().decide(&m, &X86Like);
        let mut tuned = m.clone();
        optimize_os(&mut tuned, &ForcedDecisions::new(decisions), PipelineOptions::default());
        let mut baseline = m.clone();
        optimize_os_no_inline(&mut baseline, PipelineOptions::default());
        assert!(text_size(&tuned, &X86Like) < text_size(&baseline, &X86Like));
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
        assert!(heuristic_cleanup().run_to_fixpoint(&mut m).hit_fixpoint);
        let inline = sites.into_iter().map(|s| (s, Decision::Inline)).collect();
        run_inliner(&mut m, &ForcedDecisions::new(inline));
        (m, [f1, f2, g1, g2])
    }

    #[test]
    fn a_pending_drain_equals_the_whole_module_drain() {
        // Test A: g1's unused call to f1 goes in round 1 only if g1, a
        // caller of the pending f1, is in the seed.
        let (m, [f1, f2, g1, _]) = falling_bits();
        let cleanup = heuristic_cleanup();
        let mut whole = m.clone();
        cleanup.run_to_fixpoint(&mut whole);
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
        let cleanup = heuristic_cleanup();
        let mut pending = BTreeSet::from([f1, f2]);
        drain_pending(&cleanup, &mut m, &mut pending);
        let mut again = m.clone();
        cleanup.run_to_fixpoint(&mut again);
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
        let cleanup = heuristic_cleanup();
        assert!(!cleanup.run_to_fixpoint(&mut m.clone()).hit_fixpoint, "the cap must stop it");
        let mut pending = BTreeSet::from([chain[4]]);
        drain_pending(&cleanup, &mut m, &mut pending);
        assert_eq!(pending, m.func_ids().collect());
    }

    #[test]
    fn aggressive_params_inline_at_least_as_much_as_conservative() {
        let m = tiny_callee_module();
        let agg = CostModelInliner::new(CostParams::aggressive()).decide(&m, &X86Like);
        let con = CostModelInliner::new(CostParams::conservative()).decide(&m, &X86Like);
        let count = |d: &BTreeMap<CallSiteId, Decision>| {
            d.values().filter(|&&x| x == Decision::Inline).count()
        };
        assert!(count(&agg) >= count(&con));
    }
}
