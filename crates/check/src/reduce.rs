//! Delta-debugging reducer for failing `(module, configuration)` pairs.
//!
//! Given a predicate that reports whether a pair still exhibits a failure
//! (a semantic divergence, a size-oracle mismatch — anything), the reducer
//! shrinks along two axes until neither makes progress:
//!
//! 1. **Configuration decisions**: drop each explicitly recorded decision;
//!    keep the drop if the pair still fails. Decisions default to
//!    `NoInline` when absent, so dropping is always meaningful.
//! 2. **Functions**: remove one function at a time, provided the remaining
//!    set stays *call-closed* (no kept function calls, or carries
//!    `inline_path` provenance into, a removed one — the precondition of
//!    [`extract_slice`]). Slicing renumbers [`FuncId`]s but preserves
//!    [`CallSiteId`](optinline_ir::CallSiteId)s, so the shrunken configuration stays valid after
//!    restriction to the surviving sites.
//!
//! The predicate is re-evaluated from scratch on every candidate, so it
//! self-regulates: a reduction that removes whatever the failure needs
//! (the entry point, the miscompiled callee, the marker function) simply
//! fails the predicate and is rejected. One-at-a-time removal iterated to
//! fixpoint is quadratic in function count, which is fine at fuzz-case
//! sizes (tens of functions) and yields 1-minimal results: no single
//! removable element remains.

use optinline_core::InliningConfiguration;
use optinline_ir::{extract_slice, FuncId, Inst, Module};
use std::collections::BTreeSet;

/// A shrunken failing pair, plus how much work the shrink took.
#[derive(Clone, Debug)]
pub struct Reduction {
    /// The minimized module (still failing).
    pub module: Module,
    /// The minimized configuration (still failing on `module`).
    pub config: InliningConfiguration,
    /// Predicate evaluations spent (the reducer's cost unit).
    pub predicate_runs: usize,
    /// Function count before reduction.
    pub functions_before: usize,
    /// Function count after reduction.
    pub functions_after: usize,
}

/// `true` iff no function in `kept` references (calls or carries an
/// `inline_path` entry for) a function outside `kept`.
fn call_closed(module: &Module, kept: &BTreeSet<FuncId>) -> bool {
    kept.iter().all(|&fid| {
        module.func(fid).blocks.iter().flat_map(|b| &b.insts).all(|inst| match inst {
            Inst::Call { callee, inline_path, .. } => {
                kept.contains(callee) && inline_path.iter().all(|step| kept.contains(step))
            }
            _ => true,
        })
    })
}

/// Shrinks a failing pair to a 1-minimal reproducer.
///
/// # Panics
///
/// Panics if `(module, config)` does not fail `is_failing` to begin with —
/// reducing a passing input indicates a harness bug, not a reduction.
pub fn reduce(
    module: &Module,
    config: &InliningConfiguration,
    is_failing: &mut dyn FnMut(&Module, &InliningConfiguration) -> bool,
) -> Reduction {
    let mut runs = 1;
    assert!(is_failing(module, config), "reduce() requires a failing (module, config) pair");

    let functions_before = module.func_count();
    let mut m = module.clone();
    let mut cfg = config.restricted_to(&m.inlinable_sites());

    loop {
        let mut progress = false;

        // Axis 1: slice out one function at a time. This runs *before*
        // decision dropping: while the configuration is still rich, a
        // failure that needs "some inlined site" (rather than one specific
        // site) leaves many removal orders open; dropping decisions first
        // would anchor an arbitrary surviving site and pin its caller's
        // whole reference closure in place. Restart the scan whenever a
        // removal lands, because slicing renumbers the surviving FuncIds.
        'functions: loop {
            for fid in m.func_ids() {
                let kept: BTreeSet<FuncId> = m.func_ids().filter(|&g| g != fid).collect();
                if kept.is_empty() || !call_closed(&m, &kept) {
                    continue;
                }
                let candidate_m = extract_slice(&m, &kept);
                let candidate_cfg = cfg.restricted_to(&candidate_m.inlinable_sites());
                runs += 1;
                if is_failing(&candidate_m, &candidate_cfg) {
                    m = candidate_m;
                    cfg = candidate_cfg;
                    progress = true;
                    continue 'functions;
                }
            }
            break;
        }

        // Axis 2: drop configuration decisions.
        for site in cfg.decisions().keys().copied().collect::<Vec<_>>() {
            let mut slimmer = cfg.decisions().clone();
            slimmer.remove(&site);
            let candidate = InliningConfiguration::from_decisions(slimmer);
            runs += 1;
            if is_failing(&m, &candidate) {
                cfg = candidate;
                progress = true;
            }
        }

        if !progress {
            break;
        }
    }

    Reduction {
        functions_after: m.func_count(),
        module: m,
        config: cfg,
        predicate_runs: runs,
        functions_before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_callgraph::Decision;
    use optinline_workloads::{generate_file, GenParams};

    #[test]
    fn reduces_a_marker_predicate_to_the_closure_of_the_marker() {
        // Failure model: "module still contains f3". The minimal reproducer
        // is f3 plus whatever f3 transitively references.
        let m = generate_file(&GenParams::named("red", 9));
        assert!(m.func_by_name("f3").is_some());
        let cfg = InliningConfiguration::clean_slate();
        let red = reduce(&m, &cfg, &mut |mm, _| mm.func_by_name("f3").is_some());
        assert!(red.module.func_by_name("f3").is_some());
        assert!(red.functions_after < red.functions_before);
        // 1-minimality: no single function can still be sliced out.
        for fid in red.module.func_ids() {
            let kept: BTreeSet<FuncId> = red.module.func_ids().filter(|&g| g != fid).collect();
            if !kept.is_empty() && call_closed(&red.module, &kept) {
                let slice = extract_slice(&red.module, &kept);
                assert!(slice.func_by_name("f3").is_none(), "a further removal was possible");
            }
        }
    }

    #[test]
    fn drops_irrelevant_config_decisions() {
        let m = generate_file(&GenParams::named("red-cfg", 2));
        let sites = m.inlinable_sites();
        assert!(sites.len() >= 2, "need a couple of sites");
        let all_in = InliningConfiguration::from_decisions(
            sites.iter().map(|&s| (s, Decision::Inline)).collect(),
        );
        // Failure model: "at least one site is inlined" — minimal config
        // keeps exactly one decision.
        let red = reduce(&m, &all_in, &mut |mm, cc| {
            cc.restricted_to(&mm.inlinable_sites()).inlined_count() > 0
        });
        assert_eq!(red.config.decisions().len(), 1);
    }

    #[test]
    #[should_panic(expected = "requires a failing")]
    fn refuses_a_passing_input() {
        let m = generate_file(&GenParams::named("red-pass", 1));
        reduce(&m, &InliningConfiguration::clean_slate(), &mut |_, _| false);
    }
}
