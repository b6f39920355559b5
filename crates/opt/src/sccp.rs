//! Sparse conditional constant propagation (Wegman–Zadeck), adapted to
//! block parameters: the pipeline's constant folder.
//!
//! SCCP folds every reachable operation whose operands are constant and
//! every reachable branch on a constant condition. It also propagates
//! constants *through joins* — a block parameter is constant when every
//! **executable** predecessor passes the same constant — and it discovers
//! executability and constancy together, so code guarded by a branch it
//! proves dead never poisons the lattice. This is the folding that makes
//! inlining pay off for size, the cascade of the paper's Listing 1: once a
//! constant argument flows into an inlined body, comparisons fold,
//! branches collapse, and DCE deletes whole regions, even when the
//! constant reaches its use through a join.
//!
//! Lattice per value: ⊤ (unknown yet) → constant *c* → ⊥ (varying).
//!
//! The analysis state is two dense tables. The lattice is a
//! `Vec<Lattice>` indexed by [`ValueId::index`] and sized by
//! [`Function::value_bound`](optinline_ir::Function::value_bound), with ⊤
//! as the default (a use past its end reads ⊤). Executable edges are a
//! 2-bit mask per source block: bit *i* is set once the terminator's *i*-th
//! target (then = 0, else = 1; a jump's only target is 0) is known to be
//! executable. A terminator has at most two targets, so the mask names
//! every edge, including both edges of a branch whose arms go to the same
//! block.

use crate::pass::{Pass, PassResult, PreservedAnalyses};
use crate::subst::Subst;
use optinline_ir::{
    AnalysisManager, BlockId, FuncId, Inst, JumpTarget, Module, Terminator, ValueId,
};

/// The SCCP pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sccp;

impl Pass for Sccp {
    fn name(&self) -> &'static str {
        "sccp"
    }

    fn run_on_function(
        &self,
        module: &mut Module,
        fid: FuncId,
        _am: &mut AnalysisManager,
    ) -> PassResult {
        if sccp_function(module, fid) {
            // Proven branches become jumps (CFG changes); materialized
            // constants are pure, and loads/stores/calls are never touched.
            PassResult::changed(fid, PreservedAnalyses::none().plus_effects().plus_call_graph())
        } else {
            PassResult::unchanged()
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Lattice {
    Top,
    Const(i64),
    Bottom,
}

impl Lattice {
    fn meet(self, other: Lattice) -> Lattice {
        use Lattice::*;
        match (self, other) {
            (Top, x) | (x, Top) => x,
            (Const(a), Const(b)) if a == b => Const(a),
            _ => Bottom,
        }
    }
}

fn sccp_function(module: &mut Module, fid: FuncId) -> bool {
    let func = module.func(fid);
    let n_blocks = func.blocks.len();
    if n_blocks == 0 {
        return false;
    }
    let mut value: Vec<Lattice> = vec![Lattice::Top; func.value_bound() as usize];
    // Executable CFG edges: bit `idx` of `exec_edge[from]` marks the
    // terminator's `idx`-th target.
    let mut exec_edge: Vec<u8> = vec![0; n_blocks];
    let mut exec_block = vec![false; n_blocks];

    // Function parameters vary (callers differ).
    for &p in func.params() {
        value[p.index()] = Lattice::Bottom;
    }
    exec_block[0] = true;

    let lookup = |value: &[Lattice], v: ValueId| -> Lattice {
        value.get(v.index()).copied().unwrap_or(Lattice::Top)
    };

    // Chaotic iteration: re-evaluate whole executable blocks until the
    // lattice stabilizes. Simpler than SSA worklists and plenty fast at our
    // function sizes; monotonicity bounds the iteration count.
    let mut changed_lattice = true;
    let mut guard = 0usize;
    let sweep_cap = 4 * (func.value_bound() as usize + n_blocks) + 16;
    while changed_lattice {
        changed_lattice = false;
        guard += 1;
        assert!(guard <= sweep_cap, "SCCP failed to stabilize");
        for b in 0..n_blocks {
            if !exec_block[b] {
                continue;
            }
            let block = &func.blocks[b];
            for inst in &block.insts {
                let new = match inst {
                    Inst::Const { value: v, .. } => Lattice::Const(*v),
                    Inst::Bin { op, lhs, rhs, .. } => {
                        match (lookup(&value, *lhs), lookup(&value, *rhs)) {
                            (Lattice::Const(a), Lattice::Const(b)) => Lattice::Const(op.eval(a, b)),
                            (Lattice::Bottom, _) | (_, Lattice::Bottom) => Lattice::Bottom,
                            _ => Lattice::Top,
                        }
                    }
                    Inst::Call { .. } | Inst::Load { .. } => Lattice::Bottom,
                    Inst::Store { .. } => continue,
                };
                if let Some(d) = inst.def() {
                    let old = value[d.index()];
                    let met = old.meet(new);
                    if met != old {
                        value[d.index()] = met;
                        changed_lattice = true;
                    }
                }
            }
            // Terminator: mark outgoing edges executable and flow block
            // arguments into target params.
            let mut flow = |t: &JumpTarget, idx: u8, value: &mut [Lattice], changed: &mut bool| {
                let bit = 1u8 << idx;
                if exec_edge[b] & bit == 0 {
                    exec_edge[b] |= bit;
                    *changed = true;
                }
                if !exec_block[t.block.index()] {
                    exec_block[t.block.index()] = true;
                    *changed = true;
                }
                for (&p, &a) in func.block(t.block).params.iter().zip(&t.args) {
                    let incoming = lookup(value, a);
                    let old = value[p.index()];
                    let met = old.meet(incoming);
                    if met != old {
                        value[p.index()] = met;
                        *changed = true;
                    }
                }
            };
            match &block.term {
                Terminator::Jump(t) => flow(t, 0, &mut value, &mut changed_lattice),
                Terminator::Branch { cond, then_to, else_to } => match lookup(&value, *cond) {
                    Lattice::Const(c) => {
                        let t = if c != 0 { then_to } else { else_to };
                        let idx = if c != 0 { 0 } else { 1 };
                        flow(t, idx, &mut value, &mut changed_lattice);
                    }
                    Lattice::Bottom => {
                        flow(then_to, 0, &mut value, &mut changed_lattice);
                        flow(else_to, 1, &mut value, &mut changed_lattice);
                    }
                    Lattice::Top => {}
                },
                Terminator::Return(_) | Terminator::Unreachable => {}
            }
        }
    }

    // Rewrite: materialize proven constants, collapse proven branches, and
    // replace provably-constant block params with materialized constants
    // (the param itself stays; dead-param pruning cleans it up later).
    // Only params that still have uses get a constant — that keeps the
    // pass idempotent. Executable blocks are reachable: each was entered
    // along a CFG edge from an executable block.
    let counts = optinline_ir::analysis::use_counts(func);
    let func = module.func_mut(fid);
    let mut rewrote = false;
    let mut subst = Subst::new();
    for (b, &executable) in exec_block.iter().enumerate() {
        if !executable {
            continue;
        }
        let bid = BlockId::new(b as u32);
        for i in 0..func.blocks[b].params.len() {
            let p = func.blocks[b].params[i];
            if let Lattice::Const(c) = value[p.index()] {
                if counts[p.index()] > 0 {
                    let fresh = func.new_value();
                    func.block_mut(bid).insts.insert(0, Inst::Const { dst: fresh, value: c });
                    subst.insert(p, fresh);
                    rewrote = true;
                }
            }
        }
        let block = func.block_mut(bid);
        for inst in &mut block.insts {
            let Some(d) = inst.def() else { continue };
            if matches!(inst, Inst::Const { .. } | Inst::Call { .. } | Inst::Load { .. }) {
                continue;
            }
            if let Some(&Lattice::Const(c)) = value.get(d.index()) {
                *inst = Inst::Const { dst: d, value: c };
                rewrote = true;
            }
        }
        if let Terminator::Branch { cond, then_to, else_to } = &block.term {
            if let Lattice::Const(c) = lookup(&value, *cond) {
                let t = if c != 0 { then_to.clone() } else { else_to.clone() };
                block.term = Terminator::Jump(t);
                rewrote = true;
            }
        }
    }
    if !subst.is_empty() {
        subst.apply(func);
    }
    rewrote
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_ir::{assert_verified, BinOp, FuncBuilder, Linkage};

    #[test]
    fn constants_propagate_through_joins() {
        // Both arms pass 5 to the join: the join param is provably 5 and
        // the dependent add folds, although no operand is a literal `const`.
        let mut m = Module::new("m");
        let f = m.declare_function("f", 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let p = b.param(0);
        let (t, _) = b.new_block(0);
        let (e, _) = b.new_block(0);
        let (j, jp) = b.new_block(1);
        b.branch(p, t, &[], e, &[]);
        b.switch_to(t);
        let c1 = b.iconst(5);
        b.jump(j, &[c1]);
        b.switch_to(e);
        let c2 = b.iconst(5);
        b.jump(j, &[c2]);
        b.switch_to(j);
        let one = b.iconst(1);
        let sum = b.bin(BinOp::Add, jp[0], one);
        b.ret(Some(sum));
        assert!(Sccp.run(&mut m));
        assert_verified(&m);
        let has_six =
            m.func(f).blocks[3].insts.iter().any(|i| matches!(i, Inst::Const { value: 6, .. }));
        assert!(has_six, "join add should fold to 6:\n{m}");
        let out = optinline_ir::interp::Interp::new(&m).run(f, &[1]).unwrap();
        assert_eq!(out.ret, Some(6));
    }

    #[test]
    fn dead_arms_do_not_poison_the_join() {
        // The guard is provably true, so only the then-arm's constant
        // reaches the join — classic SCCP precision.
        let mut m = Module::new("m");
        let f = m.declare_function("f", 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let p = b.param(0);
        let truth = b.iconst(1);
        let (t, _) = b.new_block(0);
        let (e, _) = b.new_block(0);
        let (j, jp) = b.new_block(1);
        b.branch(truth, t, &[], e, &[]);
        b.switch_to(t);
        let c1 = b.iconst(10);
        b.jump(j, &[c1]);
        b.switch_to(e);
        // Dead arm passes something varying.
        b.jump(j, &[p]);
        b.switch_to(j);
        let two = b.iconst(2);
        let r = b.bin(BinOp::Mul, jp[0], two);
        b.ret(Some(r));
        assert!(Sccp.run(&mut m));
        assert_verified(&m);
        // Branch collapsed and the multiply folded to 20.
        match &m.func(f).blocks[0].term {
            Terminator::Jump(t) => assert_eq!(t.block.index(), 1),
            other => panic!("guard should collapse, got {other:?}"),
        }
        let has_twenty =
            m.func(f).blocks[3].insts.iter().any(|i| matches!(i, Inst::Const { value: 20, .. }));
        assert!(has_twenty, "multiply should fold to 20:\n{m}");
        let out = optinline_ir::interp::Interp::new(&m).run(f, &[123]).unwrap();
        assert_eq!(out.ret, Some(20));
    }

    #[test]
    fn varying_joins_stay_untouched() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let p = b.param(0);
        let (t, _) = b.new_block(0);
        let (e, _) = b.new_block(0);
        let (j, jp) = b.new_block(1);
        b.branch(p, t, &[], e, &[]);
        b.switch_to(t);
        let c1 = b.iconst(1);
        b.jump(j, &[c1]);
        b.switch_to(e);
        let c2 = b.iconst(2);
        b.jump(j, &[c2]);
        b.switch_to(j);
        b.ret(Some(jp[0]));
        assert!(!Sccp.run(&mut m));
    }

    #[test]
    fn loops_reach_a_sound_fixpoint() {
        // i counts 0..10; SCCP must conclude i is Bottom (varying), not 0.
        let mut m = Module::new("m");
        let f = m.declare_function("main", 0, Linkage::Public);
        let g = m.add_global("g", 0);
        let mut b = FuncBuilder::new(&mut m, f);
        let zero = b.iconst(0);
        let ten = b.iconst(10);
        let (hdr, hp) = b.new_block(1);
        let (body, _) = b.new_block(0);
        let (exit, _) = b.new_block(0);
        b.jump(hdr, &[zero]);
        let i = hp[0];
        let c = b.bin(BinOp::Lt, i, ten);
        b.branch(c, body, &[], exit, &[]);
        b.switch_to(body);
        let acc = b.load(g);
        let acc2 = b.bin(BinOp::Add, acc, i);
        b.store(g, acc2);
        let one = b.iconst(1);
        let i2 = b.bin(BinOp::Add, i, one);
        b.jump(hdr, &[i2]);
        b.switch_to(exit);
        b.ret(None);
        let before = optinline_ir::interp::run_main(&m).unwrap();
        Sccp.run(&mut m);
        assert_verified(&m);
        let after = optinline_ir::interp::run_main(&m).unwrap();
        assert_eq!(before.observable(), after.observable());
        assert_eq!(after.globals, vec![45]);
    }

    #[test]
    fn observables_preserved_on_branchy_code() {
        let mut m = Module::new("m");
        let f = m.declare_function("main", 0, Linkage::Public);
        let g = m.add_global("g", 3);
        let mut b = FuncBuilder::new(&mut m, f);
        let x = b.load(g);
        let four = b.iconst(4);
        let c = b.bin(BinOp::Lt, x, four);
        let (t, _) = b.new_block(0);
        let (e, _) = b.new_block(0);
        let (j, jp) = b.new_block(1);
        b.branch(c, t, &[], e, &[]);
        b.switch_to(t);
        let c9 = b.iconst(9);
        b.jump(j, &[c9]);
        b.switch_to(e);
        let c9b = b.iconst(9);
        b.jump(j, &[c9b]);
        b.switch_to(j);
        let r = b.bin(BinOp::Add, jp[0], x);
        b.store(g, r);
        b.ret(Some(r));
        let before = optinline_ir::interp::run_main(&m).unwrap();
        assert!(Sccp.run(&mut m));
        assert_verified(&m);
        let after = optinline_ir::interp::run_main(&m).unwrap();
        assert_eq!(before.observable(), after.observable());
        assert_eq!(after.ret, Some(12));
    }
}
