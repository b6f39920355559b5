//! Algebraic instruction simplification: identities (`x + 0`, `x * 1`,
//! `x - x`, comparisons of a value with itself, …) and cheap strength
//! reduction. Simplifications that reduce an instruction to an existing
//! value are applied through [`Subst`] and the instruction is deleted.

use crate::pass::{Pass, PassResult, PreservedAnalyses};
use crate::subst::Subst;
use optinline_ir::{AnalysisManager, BinOp, FuncId, Inst, Module, ValueId};
use std::cell::RefCell;

/// The instruction-simplification pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Simplify;

impl Pass for Simplify {
    fn name(&self) -> &'static str {
        "simplify"
    }

    fn run_on_function(
        &self,
        module: &mut Module,
        fid: FuncId,
        _am: &mut AnalysisManager,
    ) -> PassResult {
        if SCRATCH.with_borrow_mut(|scratch| simplify_function(module, fid, scratch)) {
            // Only pure `Bin` instructions are rewritten or deleted: block
            // structure, memory traffic, and calls all survive.
            PassResult::changed(fid, PreservedAnalyses::all())
        } else {
            PassResult::unchanged()
        }
    }
}

enum Outcome {
    /// Replace the instruction's result with an existing value and delete.
    Value(ValueId),
    /// Replace the instruction with a constant definition.
    Const(i64),
    /// Rewrite in place.
    Rewrite(Inst),
}

/// `consts` is indexed by value id; a value past its end is not a constant.
fn simplify_bin(
    consts: &[Option<i64>],
    dst: ValueId,
    op: BinOp,
    lhs: ValueId,
    rhs: ValueId,
) -> Option<Outcome> {
    let lc = consts.get(lhs.index()).copied().flatten();
    let rc = consts.get(rhs.index()).copied().flatten();
    use BinOp::*;
    // Identities with a constant on one side.
    match (op, lc, rc) {
        (Add, Some(0), _) | (Or, Some(0), _) | (Xor, Some(0), _) => {
            return Some(Outcome::Value(rhs))
        }
        (Add | Sub | Or | Xor | Shl | Shr, _, Some(0)) => return Some(Outcome::Value(lhs)),
        (Mul, Some(1), _) => return Some(Outcome::Value(rhs)),
        (Mul | Div, _, Some(1)) => return Some(Outcome::Value(lhs)),
        (Mul | And, Some(0), _) | (Mul | And, _, Some(0)) => return Some(Outcome::Const(0)),
        (And, _, Some(-1)) => return Some(Outcome::Value(lhs)),
        (And, Some(-1), _) => return Some(Outcome::Value(rhs)),
        (Rem, _, Some(1)) => return Some(Outcome::Const(0)),
        // Strength reduction: x * 2 → x + x (smaller encoding on X86Like).
        (Mul, _, Some(2)) => {
            return Some(Outcome::Rewrite(Inst::Bin { dst, op: Add, lhs, rhs: lhs }))
        }
        (Mul, Some(2), _) => {
            return Some(Outcome::Rewrite(Inst::Bin { dst, op: Add, lhs: rhs, rhs }))
        }
        _ => {}
    }
    // Same-operand identities.
    if lhs == rhs {
        match op {
            Sub | Xor | Rem => return Some(Outcome::Const(0)),
            And | Or => return Some(Outcome::Value(lhs)),
            Eq | Le | Ge => return Some(Outcome::Const(1)),
            Ne | Lt | Gt => return Some(Outcome::Const(0)),
            _ => {}
        }
    }
    None
}

/// This thread's constant table and substitution. Each call clears them
/// before use, so a call reads nothing an earlier one left but the
/// capacity.
#[derive(Default)]
struct Scratch {
    consts: Vec<Option<i64>>,
    subst: Subst,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

fn simplify_function(module: &mut Module, fid: FuncId, scratch: &mut Scratch) -> bool {
    let Scratch { consts, subst } = scratch;
    let func = module.func_mut(fid);
    consts.clear();
    consts.resize(func.value_bound() as usize, None);
    for block in &func.blocks {
        for inst in &block.insts {
            if let Inst::Const { dst, value } = inst {
                consts[dst.index()] = Some(*value);
            }
        }
    }
    subst.clear();
    let mut changed = false;
    for block in &mut func.blocks {
        block.insts.retain_mut(|inst| {
            let Inst::Bin { dst, op, lhs, rhs } = *inst else {
                return true;
            };
            // Uses may refer to already-substituted values within this
            // sweep; resolve so identity checks see through copies.
            let (lhs, rhs) = (subst.resolve(lhs), subst.resolve(rhs));
            match simplify_bin(consts, dst, op, lhs, rhs) {
                None => *inst = Inst::Bin { dst, op, lhs, rhs },
                Some(Outcome::Value(v)) => {
                    subst.insert(dst, v);
                    changed = true;
                    return false;
                }
                Some(Outcome::Const(value)) => {
                    *inst = Inst::Const { dst, value };
                    consts[dst.index()] = Some(value);
                    changed = true;
                }
                Some(Outcome::Rewrite(new)) => {
                    *inst = new;
                    changed = true;
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

    fn one_param_func(
        build: impl FnOnce(&mut FuncBuilder<'_>, ValueId) -> ValueId,
    ) -> (Module, FuncId) {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let p = b.param(0);
        let r = build(&mut b, p);
        b.ret(Some(r));
        (m, f)
    }

    #[test]
    fn add_zero_is_erased() {
        let (mut m, f) = one_param_func(|b, p| {
            let z = b.iconst(0);
            b.bin(BinOp::Add, p, z)
        });
        assert!(Simplify.run(&mut m));
        assert_verified(&m);
        // Only the const remains; the return uses the param directly.
        assert_eq!(m.func(f).blocks[0].insts.len(), 1);
        assert_eq!(m.func(f).blocks[0].term, Terminator::Return(Some(ValueId::new(0))));
    }

    #[test]
    fn mul_zero_becomes_const_zero() {
        let (mut m, f) = one_param_func(|b, p| {
            let z = b.iconst(0);
            b.bin(BinOp::Mul, p, z)
        });
        assert!(Simplify.run(&mut m));
        match &m.func(f).blocks[0].insts[1] {
            Inst::Const { value, .. } => assert_eq!(*value, 0),
            other => panic!("expected const 0, got {other:?}"),
        }
    }

    #[test]
    fn sub_self_becomes_zero_and_cmp_self_folds() {
        let (mut m, f) = one_param_func(|b, p| {
            let d = b.bin(BinOp::Sub, p, p);
            let e = b.bin(BinOp::Eq, p, p);
            b.bin(BinOp::Add, d, e)
        });
        assert!(Simplify.run(&mut m));
        assert_verified(&m);
        let consts: Vec<i64> = m.func(f).blocks[0]
            .insts
            .iter()
            .filter_map(|i| match i {
                Inst::Const { value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        assert_eq!(consts, vec![0, 1]);
    }

    #[test]
    fn mul_two_strength_reduces_to_add() {
        let (mut m, f) = one_param_func(|b, p| {
            let two = b.iconst(2);
            b.bin(BinOp::Mul, p, two)
        });
        assert!(Simplify.run(&mut m));
        match &m.func(f).blocks[0].insts[1] {
            Inst::Bin { op: BinOp::Add, lhs, rhs, .. } => {
                assert_eq!(lhs, rhs);
            }
            other => panic!("expected add, got {other:?}"),
        }
    }

    #[test]
    fn substitution_chains_resolve_through_copies() {
        // ((p + 0) + 0) should collapse straight to p.
        let (mut m, f) = one_param_func(|b, p| {
            let z = b.iconst(0);
            let a = b.bin(BinOp::Add, p, z);
            b.bin(BinOp::Add, a, z)
        });
        assert!(Simplify.run(&mut m));
        assert_verified(&m);
        assert_eq!(m.func(f).blocks[0].term, Terminator::Return(Some(ValueId::new(0))));
    }

    #[test]
    fn observable_behaviour_is_preserved() {
        let mut m = Module::new("m");
        let f = m.declare_function("main", 0, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let x = b.iconst(9);
        let z = b.iconst(0);
        let y = b.bin(BinOp::Add, x, z);
        let w = b.bin(BinOp::Xor, y, y);
        let r = b.bin(BinOp::Or, w, y);
        b.ret(Some(r));
        let before = optinline_ir::interp::run_main(&m).unwrap();
        Simplify.run(&mut m);
        assert_verified(&m);
        let after = optinline_ir::interp::run_main(&m).unwrap();
        assert_eq!(before.observable(), after.observable());
        assert_eq!(after.ret, Some(9));
        let _ = f;
    }
}
