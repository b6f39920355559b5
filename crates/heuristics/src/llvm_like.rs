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
//! After each function's step the module is drained ([`drain`](crate::drain)).

use crate::cost::{estimate, CostParams};
use crate::drain::{cleanup, drain_pending, first_undecided};
use optinline_callgraph::{bottom_up_sccs, Decision};
use optinline_codegen::Target;
use optinline_ir::{CallSiteId, FuncId, Module};
use optinline_opt::{run_inliner, ForcedDecisions};
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
        let cleanup = cleanup();

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
                        let breakdown = estimate(&work, &self.params, target, f, inst, live);
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
