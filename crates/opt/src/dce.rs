//! Dead-code elimination (instruction level) and dead-function elimination
//! (module level).
//!
//! - [`Dce`] deletes instructions whose results are unused and whose
//!   execution is unobservable (stores stay; calls stay unless the callee's
//!   transitive effect summary says they write nothing).
//! - [`DeadFunctionElim`] stubs out internal functions unreachable from any
//!   public function — the big size payoff when a callee's last call site
//!   has been inlined, and exactly the mechanism behind the paper's
//!   Figure 11 case study.

use crate::pass::{Pass, PassResult, PreservedAnalyses};
use optinline_ir::analysis::{reachable_functions, use_counts_into, EffectSummary};
use optinline_ir::{AnalysisManager, FuncId, Inst, Module};
use std::cell::RefCell;

/// The dead-instruction elimination pass.
///
/// By default it uses a *frozen* effect summary supplied at construction;
/// the standard pipeline computes one on the pristine module so that a
/// callee's inferred purity cannot change with inlining decisions made
/// elsewhere — the exactness condition for the paper's component
/// independence (§3.2). Without a summary, one is computed on the fly
/// (fine for standalone use).
#[derive(Clone, Debug, Default)]
pub struct Dce {
    summary: Option<EffectSummary>,
}

impl Dce {
    /// DCE with a frozen, decision-independent effect summary.
    pub fn with_summary(summary: EffectSummary) -> Self {
        Dce { summary: Some(summary) }
    }
}

impl Pass for Dce {
    fn name(&self) -> &'static str {
        "dce"
    }

    fn run_on_function(
        &self,
        module: &mut Module,
        fid: FuncId,
        am: &mut AnalysisManager,
    ) -> PassResult {
        let effects = match &self.summary {
            Some(s) => s,
            None => am.effects(module),
        };
        if COUNTS.with_borrow_mut(|counts| dce_function(module, fid, effects, counts)) {
            // Unused loads and pure calls are deleted — the recomputed
            // effect summary and the call graph both change.
            PassResult::changed(fid, PreservedAnalyses::none())
        } else {
            PassResult::unchanged()
        }
    }
}

thread_local! {
    /// This thread's use counts, refilled on every sweep of every call.
    static COUNTS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn dce_function(
    module: &mut Module,
    fid: FuncId,
    effects: &EffectSummary,
    counts: &mut Vec<u32>,
) -> bool {
    let mut changed = false;
    // Deleting one instruction can orphan its operands; iterate locally.
    loop {
        use_counts_into(module.func(fid), counts);
        let func = module.func_mut(fid);
        let mut progressed = false;
        for block in &mut func.blocks {
            block.insts.retain_mut(|inst| {
                let unused = inst.def().is_none_or(|d| counts[d.index()] == 0);
                match inst {
                    Inst::Store { .. } => true,
                    Inst::Call { dst, callee, .. } => {
                        if dst.is_none_or(|d| counts[d.index()] == 0) {
                            if effects.call_removable(*callee) {
                                progressed = true;
                                return false;
                            }
                            // Keep the effectful call, but drop the unused
                            // result so it stops counting as a live def.
                            if dst.is_some() {
                                *dst = None;
                                progressed = true;
                            }
                        }
                        true
                    }
                    _ => {
                        if unused && inst.def().is_some() {
                            progressed = true;
                            false
                        } else {
                            true
                        }
                    }
                }
            });
        }
        if !progressed {
            break;
        }
        changed = true;
    }
    changed
}

/// The dead-function elimination pass (module level).
///
/// Inherently a whole-module analysis — liveness roots at every public
/// function — so the standard pipeline runs its [`run`](Pass::run) once
/// between worklist drains rather than putting it in the per-function
/// sequence. The per-function entry point stubs just the one function if
/// it has become unreachable.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeadFunctionElim;

impl Pass for DeadFunctionElim {
    fn name(&self) -> &'static str {
        "dead-function-elim"
    }

    fn run_on_function(
        &self,
        module: &mut Module,
        fid: FuncId,
        _am: &mut AnalysisManager,
    ) -> PassResult {
        if module.is_stub(fid) || reachable_functions(module)[fid.index()] {
            return PassResult::unchanged();
        }
        module.stub_out([fid]);
        // Stubbing rips out the body: every analysis about it is stale.
        PassResult::changed(fid, PreservedAnalyses::none())
    }

    fn run(&self, module: &mut Module) -> bool {
        let mut changed = false;
        for (fid, live) in module.func_ids().zip(reachable_functions(module)) {
            if !live && !module.is_stub(fid) {
                module.stub_out([fid]);
                changed = true;
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_ir::{assert_verified, BinOp, FuncBuilder, Linkage};

    #[test]
    fn unused_pure_instructions_are_removed_transitively() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let p = b.param(0);
        let a = b.bin(BinOp::Add, p, p); // dead
        let _c = b.bin(BinOp::Mul, a, a); // dead, keeps `a` alive until removed
        let r = b.bin(BinOp::Sub, p, p); // live
        b.ret(Some(r));
        assert!(Dce::default().run(&mut m));
        assert_verified(&m);
        assert_eq!(m.func(f).blocks[0].insts.len(), 1);
    }

    #[test]
    fn stores_are_never_removed() {
        let mut m = Module::new("m");
        let g = m.add_global("g", 0);
        let f = m.declare_function("main", 0, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let c = b.iconst(1);
        b.store(g, c);
        b.ret(None);
        assert!(!Dce::default().run(&mut m));
        assert_eq!(m.func(f).blocks[0].insts.len(), 2);
    }

    #[test]
    fn unused_calls_to_pure_functions_are_removed() {
        let mut m = Module::new("m");
        let pure = m.declare_function("pure", 0, Linkage::Internal);
        let f = m.declare_function("main", 0, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, pure);
            let c = b.iconst(1);
            b.ret(Some(c));
        }
        {
            let mut b = FuncBuilder::new(&mut m, f);
            let _ = b.call(pure, &[]);
            b.ret(None);
        }
        assert!(Dce::default().run(&mut m));
        assert_eq!(m.func(f).blocks[0].insts.len(), 0);
    }

    #[test]
    fn unused_calls_to_writing_functions_lose_their_dst_only() {
        let mut m = Module::new("m");
        let g = m.add_global("g", 0);
        let w = m.declare_function("w", 0, Linkage::Internal);
        let f = m.declare_function("main", 0, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, w);
            let c = b.iconst(1);
            b.store(g, c);
            b.ret(Some(c));
        }
        {
            let mut b = FuncBuilder::new(&mut m, f);
            let _ = b.call(w, &[]);
            b.ret(None);
        }
        let before = optinline_ir::interp::run_main(&m).unwrap();
        assert!(Dce::default().run(&mut m));
        let after = optinline_ir::interp::run_main(&m).unwrap();
        assert_eq!(before.observable(), after.observable());
        match &m.func(f).blocks[0].insts[0] {
            Inst::Call { dst: None, .. } => {}
            other => panic!("expected dst-less call, got {other:?}"),
        }
    }

    #[test]
    fn dead_internal_functions_are_stubbed() {
        let mut m = Module::new("m");
        let dead = m.declare_function("dead", 0, Linkage::Internal);
        let kept = m.declare_function("kept", 0, Linkage::Internal);
        let f = m.declare_function("main", 0, Linkage::Public);
        for id in [dead, kept] {
            let mut b = FuncBuilder::new(&mut m, id);
            let c = b.iconst(1);
            b.ret(Some(c));
        }
        {
            let mut b = FuncBuilder::new(&mut m, f);
            let v = b.call(kept, &[]);
            b.ret(v);
        }
        assert!(DeadFunctionElim.run(&mut m));
        assert!(m.is_stub(dead));
        assert!(!m.is_stub(kept));
        // Second run: fixpoint.
        assert!(!DeadFunctionElim.run(&mut m));
    }

    #[test]
    fn public_functions_are_never_stubbed() {
        let mut m = Module::new("m");
        let api = m.declare_function("api", 0, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, api);
            b.ret(None);
        }
        assert!(!DeadFunctionElim.run(&mut m));
        assert!(!m.is_stub(api));
    }

    #[test]
    fn chains_of_dead_functions_collapse() {
        let mut m = Module::new("m");
        let a = m.declare_function("a", 0, Linkage::Internal);
        let b_ = m.declare_function("b", 0, Linkage::Internal);
        let f = m.declare_function("main", 0, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, a);
            b.call_void(b_, &[]);
            b.ret(None);
        }
        {
            let mut b = FuncBuilder::new(&mut m, b_);
            b.ret(None);
        }
        {
            let mut b = FuncBuilder::new(&mut m, f);
            b.ret(None);
        }
        assert!(DeadFunctionElim.run(&mut m));
        assert!(m.is_stub(a));
        assert!(m.is_stub(b_));
    }
}
