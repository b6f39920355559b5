//! Inlining trials (Dean & Chambers, the paper's §7): instead of
//! *predicting* a call site's impact with a cost model, tentatively inline
//! it, run the cleanup pipeline, measure, and keep the inline only if the
//! module actually shrank.
//!
//! This sits between the static [`CostModelInliner`](crate::CostModelInliner)
//! and the paper's autotuner: like the autotuner it measures instead of
//! guessing, but it commits greedily in bottom-up order (each accepted
//! trial changes the baseline for the next), whereas the autotuner probes
//! all sites against one fixed base and is embarrassingly parallel.
//! The experiments use it as a second comparator.

use crate::drain::{cleanup, drain_pending, first_undecided};
use optinline_callgraph::{bottom_up_sccs, Decision};
use optinline_codegen::{text_size, Target};
use optinline_ir::{CallSiteId, FuncId, Module};
use optinline_opt::{run_inliner, DeadFunctionElim, ForcedDecisions, Pass};
use std::collections::{BTreeMap, BTreeSet};

/// The greedy trial-based strategy: a trial is kept when it strictly
/// shrinks the module.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrialInliner;

impl TrialInliner {
    /// Produces the trial strategy's configuration for `module`.
    ///
    /// Cost: one cleanup drain per inlinable call site (sequential, by
    /// construction — each decision changes the next trial's baseline),
    /// seeded with only the functions the trial can change.
    pub fn decide(&self, module: &Module, target: &dyn Target) -> BTreeMap<CallSiteId, Decision> {
        let mut decisions: BTreeMap<CallSiteId, Decision> = BTreeMap::new();
        let mut work = module.clone();
        let cleanup = cleanup();
        let mut pending: BTreeSet<FuncId> = work.func_ids().collect();
        drain_pending(&cleanup, &mut work, &mut pending);
        // Measurement must include dead-function elimination (on a scratch
        // copy — `work` keeps every body so later trials can still clone
        // them), or single-caller collapses would never look profitable.
        let measure = |m: &Module, pending: &BTreeSet<FuncId>| -> u64 {
            let mut scratch = m.clone();
            if DeadFunctionElim.run(&mut scratch) {
                drain_pending(&cleanup, &mut scratch, &mut pending.clone());
            }
            text_size(&scratch, target)
        };
        let mut current_size = measure(&work, &pending);
        for scc in bottom_up_sccs(module) {
            for f in scc {
                while let Some((_, callee, site)) = first_undecided(&work, f, &decisions) {
                    if !work.func(callee).inlinable || work.is_stub(callee) {
                        decisions.insert(site, Decision::NoInline);
                        continue;
                    }
                    // The trial: inline this one site, in every function
                    // holding a copy of it, on a scratch copy; clean up; measure.
                    let mut trial = work.clone();
                    let mut trial_pending = pending.clone();
                    let holders = work.iter_funcs().filter(|(_, func)| {
                        func.call_edges().iter().any(|&(copy, _)| copy == site)
                    });
                    trial_pending.extend(holders.map(|(g, _)| g));
                    let oracle = ForcedDecisions::new(BTreeMap::from([(site, Decision::Inline)]));
                    run_inliner(&mut trial, &oracle);
                    drain_pending(&cleanup, &mut trial, &mut trial_pending);
                    let trial_size = measure(&trial, &trial_pending);
                    if trial_size < current_size {
                        decisions.insert(site, Decision::Inline);
                        (work, pending, current_size) = (trial, trial_pending, trial_size);
                    } else {
                        decisions.insert(site, Decision::NoInline);
                    }
                }
            }
        }
        let valid: BTreeSet<CallSiteId> = module.inlinable_sites();
        for site in &valid {
            decisions.entry(*site).or_insert(Decision::NoInline);
        }
        decisions.retain(|s, _| valid.contains(s));
        decisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_codegen::X86Like;
    use optinline_core::{Evaluator, InliningConfiguration, SizeEvaluator};
    use optinline_ir::{BinOp, FuncBuilder, Linkage};

    fn wrapper_chain() -> Module {
        let mut m = Module::new("m");
        let leaf = m.declare_function("leaf", 1, Linkage::Internal);
        let wrap = m.declare_function("wrap", 1, Linkage::Internal);
        let main = m.declare_function("main", 0, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, leaf);
            let p = b.param(0);
            let r = b.bin(BinOp::Add, p, p);
            b.ret(Some(r));
        }
        {
            let mut b = FuncBuilder::new(&mut m, wrap);
            let p = b.param(0);
            let v = b.call(leaf, &[p]).unwrap();
            b.ret(Some(v));
        }
        {
            let mut b = FuncBuilder::new(&mut m, main);
            let x = b.iconst(4);
            let v = b.call(wrap, &[x]).unwrap();
            b.ret(Some(v));
        }
        m
    }

    #[test]
    fn trials_inline_profitable_wrappers() {
        let m = wrapper_chain();
        let decisions = TrialInliner.decide(&m, &X86Like);
        assert!(decisions.values().any(|&d| d == Decision::Inline));
        // Trials measure, so the result can never be worse than no-inline.
        let ev = SizeEvaluator::new(m, Box::new(X86Like), false);
        let trial_cfg =
            InliningConfiguration::from_decisions(TrialInliner.decide(ev.module(), &X86Like));
        let none = ev.size_of(&InliningConfiguration::clean_slate());
        assert!(ev.size_of(&trial_cfg) <= none);
    }

    #[test]
    fn trials_refuse_bloating_inlines() {
        // A fat callee with two callers: duplicating it grows the module;
        // trials must reject both sites.
        let mut m = Module::new("m");
        let fat = m.declare_function("fat", 1, Linkage::Internal);
        {
            let mut b = FuncBuilder::new(&mut m, fat);
            let p = b.param(0);
            let mut acc = p;
            for k in 0..40 {
                let c = b.iconst(k * 7 + 3);
                acc = b.bin(BinOp::Xor, acc, c);
            }
            b.ret(Some(acc));
        }
        for i in 0..2 {
            let f = m.declare_function(format!("caller{i}"), 1, Linkage::Public);
            let mut b = FuncBuilder::new(&mut m, f);
            let p = b.param(0);
            let v = b.call(fat, &[p]).unwrap();
            b.ret(Some(v));
        }
        let decisions = TrialInliner.decide(&m, &X86Like);
        assert!(decisions.values().all(|&d| d == Decision::NoInline));
    }

    #[test]
    fn decisions_cover_every_site() {
        let m = wrapper_chain();
        let decisions = TrialInliner.decide(&m, &X86Like);
        assert_eq!(decisions.keys().copied().collect::<BTreeSet<_>>(), m.inlinable_sites());
    }
}
