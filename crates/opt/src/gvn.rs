//! Global value numbering: dominator-scoped redundancy elimination.
//!
//! [`Cse`](crate::Cse) only sees one block at a time; after inlining, the
//! interesting redundancies usually straddle the seam between the caller's
//! code and the inlined body. GVN walks the dominator tree with a scoped
//! hash table, so a computation is reused anywhere its first occurrence
//! dominates — the cross-block half of the paper's "inlining enables
//! further optimization" story.
//!
//! The scoped table is one [`FxHashMap`] from key to value plus one key
//! stack shared by all scopes. A key is inserted only when the lookup
//! misses and is removed when the scope that inserted it ends, so each key
//! maps to exactly one value while it is visible. Entering a block records
//! the stack's height as its mark; leaving it pops the keys above the mark
//! out of the map. Each call computes the function's dominators into a
//! [`Dominators`] and keeps the tree as first-child/next-sibling links,
//! and blocks are rewritten in place. The dominators, the links, the map,
//! the stacks and the substitution live in one per-thread scratch,
//! refilled or cleared in every call (see the crate docs).

use crate::fx::FxHashMap;
use crate::pass::{Pass, PassResult, PreservedAnalyses};
use crate::subst::Subst;
use optinline_ir::analysis::Dominators;
use optinline_ir::{AnalysisManager, BinOp, BlockId, FuncId, Inst, Module, ValueId};
use std::cell::RefCell;

/// The global value-numbering pass.
///
/// It reads nothing through the [`AnalysisManager`]: the dominator tree it
/// walks is its own function's, computed afresh on every call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Gvn;

impl Pass for Gvn {
    fn name(&self) -> &'static str {
        "gvn"
    }

    fn run_on_function(
        &self,
        module: &mut Module,
        fid: FuncId,
        _am: &mut AnalysisManager,
    ) -> PassResult {
        if SCRATCH.with_borrow_mut(|scratch| gvn_function(module, fid, scratch)) {
            // Pure redundancy elimination: no memory ops or calls are
            // added or removed.
            PassResult::changed(fid, PreservedAnalyses::all())
        } else {
            PassResult::unchanged()
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Bin(BinOp, ValueId, ValueId),
    Const(i64),
}

fn canonical_key(op: BinOp, lhs: ValueId, rhs: ValueId) -> Key {
    match op {
        BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Eq | BinOp::Ne => {
            if lhs <= rhs {
                Key::Bin(op, lhs, rhs)
            } else {
                Key::Bin(op, rhs, lhs)
            }
        }
        _ => Key::Bin(op, lhs, rhs),
    }
}

/// No block: the end of a child/sibling list.
const NONE: u32 = u32::MAX;

/// One step of the dominator-tree walk.
enum Step {
    Enter(BlockId),
    Leave(usize),
}

/// This thread's GVN tables. Each call refills or clears them before use,
/// so a call reads nothing an earlier one left but the capacity.
#[derive(Default)]
struct Scratch {
    doms: Dominators,
    first_child: Vec<u32>,
    next_sibling: Vec<u32>,
    subst: Subst,
    available: FxHashMap<Key, ValueId>,
    scope: Vec<Key>,
    stack: Vec<Step>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

fn gvn_function(module: &mut Module, fid: FuncId, scratch: &mut Scratch) -> bool {
    let Scratch { doms, first_child, next_sibling, subst, available, scope, stack } = scratch;
    let n = module.func(fid).blocks.len();
    doms.compute(module.func(fid));

    // Dominator-tree children as first-child/next-sibling links. Blocks are
    // linked in increasing id order, each at the head of its parent's list,
    // so a list runs from the highest id down. Only the entry is its own
    // dominator, and unreachable blocks have none.
    first_child.clear();
    first_child.resize(n, NONE);
    next_sibling.clear();
    next_sibling.resize(n, NONE);
    for (b, sibling) in next_sibling.iter_mut().enumerate().skip(1) {
        if let Some(d) = doms.idom(BlockId::new(b as u32)) {
            *sibling = first_child[d.index()];
            first_child[d.index()] = b as u32;
        }
    }

    // Pre-order walk with an explicit step stack: entering a block pushes
    // its new keys on the shared key stack, leaving pops them back to the
    // block's mark.
    subst.clear();
    available.clear();
    scope.clear();
    stack.clear();
    let mut changed = false;
    let func = module.func_mut(fid);
    stack.push(Step::Enter(func.entry()));
    while let Some(step) = stack.pop() {
        match step {
            Step::Leave(mark) => {
                for key in scope.drain(mark..) {
                    available.remove(&key);
                }
            }
            Step::Enter(bid) => {
                stack.push(Step::Leave(scope.len()));
                let block = func.block_mut(bid);
                block.insts.retain_mut(|inst| {
                    inst.map_uses(|v| subst.resolve(v));
                    let key = match &*inst {
                        Inst::Const { value, .. } => Key::Const(*value),
                        Inst::Bin { op, lhs, rhs, .. } => canonical_key(*op, *lhs, *rhs),
                        _ => return true,
                    };
                    let dst = inst.def().expect("const and bin define a value");
                    match available.get(&key) {
                        Some(&prev) => {
                            subst.insert(dst, prev);
                            changed = true;
                            false
                        }
                        None => {
                            available.insert(key, dst);
                            scope.push(key);
                            true
                        }
                    }
                });
                block.term.map_uses(|v| subst.resolve(v));
                // Pushing the list (highest id first) leaves the lowest id
                // on top: children are entered in increasing id order.
                let mut c = first_child[bid.index()];
                while c != NONE {
                    stack.push(Step::Enter(BlockId::new(c)));
                    c = next_sibling[c as usize];
                }
            }
        }
    }
    if !subst.is_empty() {
        subst.apply(func);
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_ir::{assert_verified, FuncBuilder, Linkage};

    #[test]
    fn removes_redundancy_across_dominated_blocks() {
        // entry computes p+p; both branch arms recompute it.
        let mut m = Module::new("m");
        let f = m.declare_function("f", 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let p = b.param(0);
        let a = b.bin(BinOp::Add, p, p);
        let (t, _) = b.new_block(0);
        let (e, _) = b.new_block(0);
        b.branch(a, t, &[], e, &[]);
        b.switch_to(t);
        let x = b.bin(BinOp::Add, p, p);
        b.ret(Some(x));
        b.switch_to(e);
        let y = b.bin(BinOp::Add, p, p);
        b.ret(Some(y));
        assert!(Gvn.run(&mut m));
        assert_verified(&m);
        let func = m.func(f);
        assert!(func.blocks[1].insts.is_empty());
        assert!(func.blocks[2].insts.is_empty());
        assert_eq!(func.blocks[1].term, optinline_ir::Terminator::Return(Some(a)));
    }

    #[test]
    fn sibling_blocks_do_not_share_values() {
        // The then-arm's computation must NOT be reused in the else-arm
        // (neither dominates the other).
        let mut m = Module::new("m");
        let f = m.declare_function("f", 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let p = b.param(0);
        let (t, _) = b.new_block(0);
        let (e, _) = b.new_block(0);
        b.branch(p, t, &[], e, &[]);
        b.switch_to(t);
        let x = b.bin(BinOp::Mul, p, p);
        b.ret(Some(x));
        b.switch_to(e);
        let y = b.bin(BinOp::Mul, p, p);
        b.ret(Some(y));
        assert!(!Gvn.run(&mut m));
        assert_verified(&m);
        assert_eq!(m.func(f).blocks[1].insts.len(), 1);
        assert_eq!(m.func(f).blocks[2].insts.len(), 1);
    }

    #[test]
    fn constants_are_numbered_globally() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 0, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let c1 = b.iconst(42);
        let (nxt, _) = b.new_block(0);
        b.jump(nxt, &[]);
        let c2 = b.iconst(42);
        let s = b.bin(BinOp::Add, c1, c2);
        b.ret(Some(s));
        assert!(Gvn.run(&mut m));
        assert_verified(&m);
        // The second const is gone; the add sees c1 twice.
        match &m.func(f).blocks[1].insts[..] {
            [Inst::Bin { lhs, rhs, .. }] => {
                assert_eq!(lhs, &c1);
                assert_eq!(rhs, &c1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn commutative_duplicates_merge_across_blocks() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 2, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let (p, q) = (b.param(0), b.param(1));
        let a = b.bin(BinOp::Mul, p, q);
        let (nxt, _) = b.new_block(0);
        b.jump(nxt, &[]);
        let c = b.bin(BinOp::Mul, q, p);
        let s = b.bin(BinOp::Add, a, c);
        b.ret(Some(s));
        assert!(Gvn.run(&mut m));
        match &m.func(f).blocks[1].insts[..] {
            [Inst::Bin { op: BinOp::Add, lhs, rhs, .. }] => assert_eq!(lhs, rhs),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn observables_preserved_with_loops() {
        let mut m = Module::new("m");
        let g = m.add_global("g", 0);
        let f = m.declare_function("main", 0, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let zero = b.iconst(0);
        let five = b.iconst(5);
        let (hdr, hp) = b.new_block(1);
        let (body, _) = b.new_block(0);
        let (exit, _) = b.new_block(0);
        b.jump(hdr, &[zero]);
        let i = hp[0];
        let c = b.bin(BinOp::Lt, i, five);
        b.branch(c, body, &[], exit, &[]);
        b.switch_to(body);
        let sq = b.bin(BinOp::Mul, i, i);
        let acc = b.load(g);
        let acc2 = b.bin(BinOp::Add, acc, sq);
        b.store(g, acc2);
        let one = b.iconst(1);
        let i2 = b.bin(BinOp::Add, i, one);
        b.jump(hdr, &[i2]);
        b.switch_to(exit);
        b.ret(None);
        let before = optinline_ir::interp::run_main(&m).unwrap();
        Gvn.run(&mut m);
        assert_verified(&m);
        let after = optinline_ir::interp::run_main(&m).unwrap();
        assert_eq!(before.observable(), after.observable());
        assert_eq!(after.globals, vec![30]);
    }
}
