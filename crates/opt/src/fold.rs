//! Constant folding: evaluates operations on constant operands and folds
//! conditional branches with constant conditions.
//!
//! Folding is what makes inlining pay off for size: once a constant argument
//! flows into an inlined body, comparisons fold, branches collapse, and DCE
//! can delete entire regions — the cascade the paper's Listing 1 shows.

use crate::pass::{Pass, PassResult, PreservedAnalyses};
use optinline_ir::{AnalysisManager, Inst, Module, Terminator, ValueId};

/// The constant-folding pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConstFold;

impl Pass for ConstFold {
    fn name(&self) -> &'static str {
        "const-fold"
    }

    fn run_on_function(
        &self,
        module: &mut Module,
        fid: optinline_ir::FuncId,
        _am: &mut AnalysisManager,
    ) -> PassResult {
        if fold_function(module, fid) {
            // Branch-to-jump rewrites change the CFG; loads, stores, and
            // calls are untouched.
            PassResult::changed(fid, PreservedAnalyses::none().plus_effects().plus_call_graph())
        } else {
            PassResult::unchanged()
        }
    }
}

fn fold_function(module: &mut Module, fid: optinline_ir::FuncId) -> bool {
    let func = module.func_mut(fid);
    let mut changed = false;
    // SSA: a value defined by `const` is that constant at every dominated
    // use, and the verifier guarantees uses are dominated. `consts` is
    // indexed by value id; a use past its end is not a constant.
    let mut consts: Vec<Option<i64>> = vec![None; func.value_bound() as usize];
    for block in &func.blocks {
        for inst in &block.insts {
            if let Inst::Const { dst, value } = inst {
                consts[dst.index()] = Some(*value);
            }
        }
    }
    let constant = |consts: &[Option<i64>], v: ValueId| consts.get(v.index()).copied().flatten();
    // Iterate locally: folding one Bin can make another foldable.
    loop {
        let mut progressed = false;
        for block in &mut func.blocks {
            for inst in &mut block.insts {
                if let Inst::Bin { dst, op, lhs, rhs } = *inst {
                    if let (Some(a), Some(b)) = (constant(&consts, lhs), constant(&consts, rhs)) {
                        let value = op.eval(a, b);
                        *inst = Inst::Const { dst, value };
                        consts[dst.index()] = Some(value);
                        progressed = true;
                    }
                }
            }
        }
        if !progressed {
            break;
        }
        changed = true;
    }
    // Fold branches on constants into jumps.
    for block in &mut func.blocks {
        if let Terminator::Branch { cond, then_to, else_to } = &block.term {
            if let Some(c) = constant(&consts, *cond) {
                let target = if c != 0 { then_to.clone() } else { else_to.clone() };
                block.term = Terminator::Jump(target);
                changed = true;
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_ir::{assert_verified, BinOp, FuncBuilder, Linkage};

    #[test]
    fn folds_constant_chains() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 0, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let two = b.iconst(2);
        let three = b.iconst(3);
        let five = b.bin(BinOp::Add, two, three);
        let ten = b.bin(BinOp::Mul, five, two);
        b.ret(Some(ten));
        assert!(ConstFold.run(&mut m));
        assert_verified(&m);
        match &m.func(f).blocks[0].insts[3] {
            Inst::Const { value, .. } => assert_eq!(*value, 10),
            other => panic!("expected folded const, got {other:?}"),
        }
        // Second run: nothing left to do.
        assert!(!ConstFold.run(&mut m));
    }

    #[test]
    fn folds_constant_branches_to_jumps() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 0, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let c = b.iconst(0);
        let (t, _) = b.new_block(0);
        let (e, _) = b.new_block(0);
        b.branch(c, t, &[], e, &[]);
        b.switch_to(t);
        let one = b.iconst(1);
        b.ret(Some(one));
        b.switch_to(e);
        let zero = b.iconst(0);
        b.ret(Some(zero));
        assert!(ConstFold.run(&mut m));
        assert_verified(&m);
        match &m.func(f).blocks[0].term {
            Terminator::Jump(t) => assert_eq!(t.block.index(), 2),
            other => panic!("expected jump to else, got {other:?}"),
        }
    }

    #[test]
    fn does_not_touch_non_constant_operations() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let p = b.param(0);
        let r = b.bin(BinOp::Add, p, p);
        b.ret(Some(r));
        assert!(!ConstFold.run(&mut m));
    }

    #[test]
    fn folding_preserves_interpreter_observables() {
        let mut m = Module::new("m");
        let f = m.declare_function("main", 0, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let x = b.iconst(7);
        let y = b.iconst(6);
        let z = b.bin(BinOp::Mul, x, y);
        b.ret(Some(z));
        let before = optinline_ir::interp::run_main(&m).unwrap();
        ConstFold.run(&mut m);
        let after = optinline_ir::interp::run_main(&m).unwrap();
        assert_eq!(before.observable(), after.observable());
        assert_eq!(after.ret, Some(42));
    }
}
