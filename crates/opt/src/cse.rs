//! Local common-subexpression elimination with store-to-load forwarding.
//!
//! Per basic block: identical pure computations are merged, repeated loads
//! of a global are reused, and a load following a store to the same global
//! forwards the stored value. Calls that may write memory invalidate the
//! memory state.
//!
//! The two per-block tables (available expressions, known memory) are
//! [`FxHashMap`]s cleared at each block. They and the substitution live in
//! one per-thread scratch, cleared at the start of every call (see the
//! crate docs), and blocks are rewritten in place.

use crate::fx::FxHashMap;
use crate::pass::{Pass, PassResult, PreservedAnalyses};
use crate::subst::Subst;
use optinline_ir::analysis::EffectSummary;
use optinline_ir::{AnalysisManager, BinOp, FuncId, GlobalId, Inst, Module, ValueId};
use std::cell::RefCell;

/// The local-CSE pass.
///
/// Like [`crate::Dce`], it can run against a frozen effect summary so its
/// memory invalidation is independent of inlining decisions elsewhere;
/// without one it reads the summary through the [`AnalysisManager`].
#[derive(Clone, Debug, Default)]
pub struct Cse {
    summary: Option<EffectSummary>,
}

impl Cse {
    /// CSE with a frozen, decision-independent effect summary.
    pub fn with_summary(summary: EffectSummary) -> Self {
        Cse { summary: Some(summary) }
    }
}

impl Pass for Cse {
    fn name(&self) -> &'static str {
        "cse"
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
        if SCRATCH.with_borrow_mut(|scratch| cse_function(module, fid, effects, scratch)) {
            // Deduplicating a load changes the (recomputed) read set, so
            // the effect summary is not preserved; calls are.
            PassResult::changed(fid, PreservedAnalyses::none().plus_call_graph())
        } else {
            PassResult::unchanged()
        }
    }
}

#[derive(PartialEq, Eq, Hash)]
enum Key {
    Bin(BinOp, ValueId, ValueId),
    Const(i64),
}

/// This thread's CSE tables. Each call clears them before use, so a call
/// reads nothing an earlier one left but the capacity.
#[derive(Default)]
struct Scratch {
    subst: Subst,
    available: FxHashMap<Key, ValueId>,
    memory: FxHashMap<GlobalId, ValueId>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

fn cse_function(
    module: &mut Module,
    fid: FuncId,
    effects: &EffectSummary,
    scratch: &mut Scratch,
) -> bool {
    let Scratch { subst, available, memory } = scratch;
    let func = module.func_mut(fid);
    subst.clear();
    let mut changed = false;
    for block in &mut func.blocks {
        available.clear();
        memory.clear();
        block.insts.retain_mut(|inst| {
            inst.map_uses(|v| subst.resolve(v));
            match &*inst {
                Inst::Const { dst, value } => {
                    let key = Key::Const(*value);
                    if let Some(&prev) = available.get(&key) {
                        subst.insert(*dst, prev);
                        changed = true;
                        return false;
                    }
                    available.insert(key, *dst);
                }
                Inst::Bin { dst, op, lhs, rhs } => {
                    // Commutative ops: canonicalize operand order.
                    let (a, b) = match op {
                        BinOp::Add
                        | BinOp::Mul
                        | BinOp::And
                        | BinOp::Or
                        | BinOp::Xor
                        | BinOp::Eq
                        | BinOp::Ne => {
                            if lhs <= rhs {
                                (*lhs, *rhs)
                            } else {
                                (*rhs, *lhs)
                            }
                        }
                        _ => (*lhs, *rhs),
                    };
                    let key = Key::Bin(*op, a, b);
                    if let Some(&prev) = available.get(&key) {
                        subst.insert(*dst, prev);
                        changed = true;
                        return false;
                    }
                    available.insert(key, *dst);
                }
                Inst::Load { dst, global } => {
                    if let Some(&prev) = memory.get(global) {
                        subst.insert(*dst, prev);
                        changed = true;
                        return false;
                    }
                    memory.insert(*global, *dst);
                }
                Inst::Store { global, src } => {
                    // Forward the stored value to later loads.
                    memory.insert(*global, *src);
                }
                Inst::Call { callee, .. } => {
                    if effects.may_write(*callee) {
                        memory.clear();
                    }
                }
            }
            true
        });
    }
    if !subst.is_empty() {
        subst.apply(func);
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_ir::{assert_verified, FuncBuilder, Linkage, Terminator};

    #[test]
    fn duplicate_bins_are_merged() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 2, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let (x, y) = (b.param(0), b.param(1));
        let a = b.bin(BinOp::Add, x, y);
        let c = b.bin(BinOp::Add, y, x); // commutative duplicate
        let r = b.bin(BinOp::Mul, a, c);
        b.ret(Some(r));
        assert!(Cse::default().run(&mut m));
        assert_verified(&m);
        assert_eq!(m.func(f).blocks[0].insts.len(), 2);
        match &m.func(f).blocks[0].insts[1] {
            Inst::Bin { op: BinOp::Mul, lhs, rhs, .. } => assert_eq!(lhs, rhs),
            other => panic!("expected mul, got {other:?}"),
        }
    }

    #[test]
    fn non_commutative_order_matters() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 2, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let (x, y) = (b.param(0), b.param(1));
        let a = b.bin(BinOp::Sub, x, y);
        let c = b.bin(BinOp::Sub, y, x);
        let r = b.bin(BinOp::Add, a, c);
        b.ret(Some(r));
        assert!(!Cse::default().run(&mut m));
        assert_eq!(m.func(f).blocks[0].insts.len(), 3);
    }

    #[test]
    fn repeated_loads_are_reused_and_stores_forward() {
        let mut m = Module::new("m");
        let g = m.add_global("g", 3);
        let f = m.declare_function("main", 0, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let l1 = b.load(g);
        let l2 = b.load(g);
        let s = b.bin(BinOp::Add, l1, l2);
        b.store(g, s);
        let l3 = b.load(g); // forwards `s`
        b.ret(Some(l3));
        let before = optinline_ir::interp::run_main(&m).unwrap();
        assert!(Cse::default().run(&mut m));
        assert_verified(&m);
        let after = optinline_ir::interp::run_main(&m).unwrap();
        assert_eq!(before.observable(), after.observable());
        // l2 and l3 eliminated.
        let loads =
            m.func(f).blocks[0].insts.iter().filter(|i| matches!(i, Inst::Load { .. })).count();
        assert_eq!(loads, 1);
        assert_eq!(m.func(f).blocks[0].term, Terminator::Return(Some(s)));
    }

    #[test]
    fn writing_calls_invalidate_memory() {
        let mut m = Module::new("m");
        let g = m.add_global("g", 1);
        let w = m.declare_function("w", 0, Linkage::Internal);
        let f = m.declare_function("main", 0, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, w);
            let c = b.iconst(9);
            b.store(g, c);
            b.ret(None);
        }
        {
            let mut b = FuncBuilder::new(&mut m, f);
            let l1 = b.load(g);
            b.call_void(w, &[]);
            let l2 = b.load(g);
            let r = b.bin(BinOp::Add, l1, l2);
            b.ret(Some(r));
        }
        let before = optinline_ir::interp::run_main(&m).unwrap();
        // The second load must survive.
        Cse::default().run(&mut m);
        let loads =
            m.func(f).blocks[0].insts.iter().filter(|i| matches!(i, Inst::Load { .. })).count();
        assert_eq!(loads, 2);
        let after = optinline_ir::interp::run_main(&m).unwrap();
        assert_eq!(before.observable(), after.observable());
        assert_eq!(after.ret, Some(10));
    }

    #[test]
    fn duplicate_constants_dedup_within_block() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 0, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let a = b.iconst(7);
        let c = b.iconst(7);
        let r = b.bin(BinOp::Add, a, c);
        b.ret(Some(r));
        assert!(Cse::default().run(&mut m));
        assert_eq!(m.func(f).blocks[0].insts.len(), 2);
    }
}
