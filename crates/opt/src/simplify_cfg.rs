//! CFG simplification: unreachable-block removal, single-predecessor block
//! parameter forwarding, dead block-parameter pruning, straight-line block
//! merging, jump threading through empty forwarding blocks, and collapsing
//! branches whose sides agree.
//!
//! After the inliner splices a callee's blocks into a caller, this pass is
//! what stitches the seams back into straight-line code so folding/DCE see
//! through them — without it, inlining would never shrink anything.
//!
//! One run repeats a six-step sweep until a sweep changes nothing. A sweep
//! merges whole straight-line chains, so the inliner's seams disappear in
//! one sweep however long the chain. The 20-sweep cap still bounds a run
//! whose steps keep feeding each other: threading moves an edge past one
//! empty forwarding block per sweep, and a threaded edge or a deleted
//! unreachable block can qualify a merge only in the next sweep. Merge
//! order cannot change the result: a merge only concatenates instruction
//! lists in chain order, unreachable removal keeps the surviving blocks'
//! order, and no step creates a value.
//!
//! The steps' edge counts, reachability, use counts, substitution and
//! forwarding snapshot live in one per-thread scratch, each refilled before
//! a step reads it (see the crate docs).

use crate::pass::{Pass, PassResult, PreservedAnalyses};
use crate::subst::Subst;
use optinline_ir::analysis::{reachable_blocks_into, use_counts_into};
use optinline_ir::{
    AnalysisManager, BlockId, FuncId, Function, JumpTarget, Module, Terminator, ValueId,
};
use std::cell::RefCell;

/// The CFG simplification pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimplifyCfg;

impl Pass for SimplifyCfg {
    fn name(&self) -> &'static str {
        "simplify-cfg"
    }

    fn run_on_function(
        &self,
        module: &mut Module,
        fid: FuncId,
        _am: &mut AnalysisManager,
    ) -> PassResult {
        if SCRATCH.with_borrow_mut(|scratch| simplify_cfg_function(module, fid, scratch)) {
            // Blocks are merged, threaded, and deleted — dropping an
            // unreachable block can delete loads, stores, and calls with
            // it, so nothing is preserved.
            PassResult::changed(fid, PreservedAnalyses::none())
        } else {
            PassResult::unchanged()
        }
    }
}

/// A forwarding block `B(params): jump C(args)` as it was before any edge
/// moved: its target, and where its params, then its jump arguments, sit
/// in [`Scratch::forwarded`].
#[derive(Clone, Copy)]
struct Forward {
    dest: BlockId,
    start: u32,
    params: u32,
    args: u32,
}

/// This thread's simplify-cfg tables. Each step refills the tables it reads
/// before reading them, so a call reads nothing an earlier one left but the
/// capacity.
#[derive(Default)]
struct Scratch {
    /// Incoming edges per block (a branch with both arms to `B` counts 2).
    edges: Vec<usize>,
    /// Each block's last edge source: its only one wherever `edges` is 1.
    source: Vec<usize>,
    candidates: Vec<usize>,
    reach: Vec<bool>,
    stack: Vec<BlockId>,
    uses: Vec<u32>,
    subst: Subst,
    dead: Vec<usize>,
    forwards: Vec<Option<Forward>>,
    forwarded: Vec<ValueId>,
    incoming: Vec<ValueId>,
    remap: Vec<BlockId>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

fn simplify_cfg_function(module: &mut Module, fid: FuncId, scratch: &mut Scratch) -> bool {
    let mut changed = false;
    for _ in 0..20 {
        let mut progressed = false;
        progressed |= collapse_trivial_branches(module, fid);
        progressed |= forward_single_pred_params(module, fid, scratch);
        progressed |= prune_dead_params(module, fid, scratch);
        progressed |= merge_straight_line(module, fid, scratch);
        progressed |= thread_empty_jumps(module, fid, scratch);
        progressed |= remove_unreachable(module, fid, scratch);
        if !progressed {
            break;
        }
        changed = true;
    }
    changed
}

/// `br c, B(args), B(args)` with identical targets → `jump B(args)`.
fn collapse_trivial_branches(module: &mut Module, fid: FuncId) -> bool {
    let func = module.func_mut(fid);
    let mut changed = false;
    for block in &mut func.blocks {
        if let Terminator::Branch { then_to, else_to, .. } = &mut block.term {
            if then_to == else_to {
                let target =
                    JumpTarget::with_args(then_to.block, std::mem::take(&mut then_to.args));
                block.term = Terminator::Jump(target);
                changed = true;
            }
        }
    }
    changed
}

/// Counts incoming edges per block into `counts` (branch with both arms to
/// B counts 2), and records each block's last edge source in `source`: its
/// only one wherever the count is 1.
fn incoming_edges(func: &Function, counts: &mut Vec<usize>, source: &mut Vec<usize>) {
    counts.clear();
    counts.resize(func.blocks.len(), 0);
    source.clear();
    source.resize(func.blocks.len(), 0);
    for (src, block) in func.blocks.iter().enumerate() {
        for s in block.term.successors() {
            counts[s.index()] += 1;
            source[s.index()] = src;
        }
    }
}

/// A reachable non-entry block with exactly one incoming edge takes its
/// parameters directly from that edge: substitute and drop the params.
///
/// Every forwarded block's parameter→argument pairs go into one [`Subst`],
/// applied once: it resolves chains (a forwarded argument that is itself a
/// forwarded parameter), so the result is the same as substituting after
/// each block. A chain could only close into a cycle through blocks that
/// are unreachable, and those are skipped.
fn forward_single_pred_params(module: &mut Module, fid: FuncId, scratch: &mut Scratch) -> bool {
    let Scratch { edges: counts, source, candidates, reach, stack, subst, .. } = scratch;
    let func = module.func_mut(fid);
    incoming_edges(func, counts, source);
    candidates.clear();
    candidates.extend(
        (1..func.blocks.len()).filter(|&b| counts[b] == 1 && !func.blocks[b].params.is_empty()),
    );
    if candidates.is_empty() {
        return false;
    }
    reachable_blocks_into(func, reach, stack);
    subst.clear();
    let mut changed = false;
    for &b in candidates.iter() {
        let pred = source[b];
        if !reach[b] || pred == b {
            // Unreachable, or a self-loop whose parameter genuinely varies
            // per iteration.
            continue;
        }
        // Pull the args off the unique incoming edge.
        let mut args: Option<Vec<ValueId>> = None;
        func.blocks[pred].term.for_each_target_mut(|t| {
            if t.block == BlockId::new(b as u32) {
                args = Some(std::mem::take(&mut t.args));
            }
        });
        let args = args.expect("predecessor edge must exist");
        let params = std::mem::take(&mut func.blocks[b].params);
        for (p, a) in params.iter().zip(&args) {
            if p != a {
                subst.insert(*p, *a);
            }
        }
        changed = true;
    }
    subst.apply(func);
    changed
}

/// Drops block parameters that are never used anywhere, together with the
/// matching argument on every incoming edge.
fn prune_dead_params(module: &mut Module, fid: FuncId, scratch: &mut Scratch) -> bool {
    let Scratch { uses: counts, dead, .. } = scratch;
    let func = module.func_mut(fid);
    use_counts_into(func, counts);
    let mut changed = false;
    for b in 1..func.blocks.len() {
        dead.clear();
        dead.extend(
            func.blocks[b]
                .params
                .iter()
                .enumerate()
                .filter(|(_, p)| counts[p.index()] == 0)
                .map(|(i, _)| i),
        );
        if dead.is_empty() {
            continue;
        }
        let keep = |i: usize| !dead.contains(&i);
        let mut idx = 0;
        func.blocks[b].params.retain(|_| {
            let k = keep(idx);
            idx += 1;
            k
        });
        let target = BlockId::new(b as u32);
        for src in 0..func.blocks.len() {
            func.blocks[src].term.for_each_target_mut(|t| {
                if t.block == target {
                    let mut idx = 0;
                    t.args.retain(|_| {
                        let k = keep(idx);
                        idx += 1;
                        k
                    });
                }
            });
        }
        changed = true;
    }
    changed
}

/// `A: jump B()` where B has exactly one incoming edge: splice B into A,
/// then keep splicing A's new jump target while it qualifies, so a whole
/// straight-line chain merges in one sweep.
///
/// A splice moves B's out-edges to A and leaves B with no incoming edge
/// and an `unreachable` terminator, so no other block's incoming-edge count
/// moves and `counts` stays exact for every block still reachable; the
/// sweep's `remove_unreachable` deletes the emptied blocks.
fn merge_straight_line(module: &mut Module, fid: FuncId, scratch: &mut Scratch) -> bool {
    let Scratch { edges: counts, source, reach, stack, .. } = scratch;
    let func = module.func_mut(fid);
    reachable_blocks_into(func, reach, stack);
    incoming_edges(func, counts, source);
    let mut changed = false;
    for (a, &live) in reach.iter().enumerate() {
        if !live {
            continue;
        }
        while let Terminator::Jump(t) = &func.blocks[a].term {
            let b = t.block.index();
            if b == a || b == 0 || counts[b] != 1 || !func.blocks[b].params.is_empty() {
                break;
            }
            let mut body = std::mem::take(&mut func.blocks[b].insts);
            let term = std::mem::replace(&mut func.blocks[b].term, Terminator::Unreachable);
            func.blocks[a].insts.append(&mut body);
            func.blocks[a].term = term;
            changed = true;
        }
    }
    changed
}

/// Retargets edges that point at an empty block `B(params): jump C(args)`
/// directly to `C`, substituting `B`'s params in `args` per edge.
fn thread_empty_jumps(module: &mut Module, fid: FuncId, scratch: &mut Scratch) -> bool {
    let Scratch { uses: counts, forwards, forwarded, incoming, .. } = scratch;
    let func = module.func_mut(fid);
    let n = func.blocks.len();
    use_counts_into(func, counts);
    // Collect forwarding blocks first (immutable scan), so every edge
    // threads through a forwarder as it was before any edge moved. A block
    // forwards only if its params have no uses beyond its own jump
    // arguments — otherwise bypassing it would leave dangling uses
    // downstream.
    forwards.clear();
    forwards.resize(n, None);
    forwarded.clear();
    for (b, block) in func.blocks.iter().enumerate() {
        if !block.insts.is_empty() {
            continue;
        }
        if let Terminator::Jump(t) = &block.term {
            if t.block.index() == b {
                continue;
            }
            let params_escape = block.params.iter().any(|p| {
                let in_args = t.args.iter().filter(|a| *a == p).count() as u32;
                counts[p.index()] != in_args
            });
            if !params_escape {
                forwards[b] = Some(Forward {
                    dest: t.block,
                    start: forwarded.len() as u32,
                    params: block.params.len() as u32,
                    args: t.args.len() as u32,
                });
                forwarded.extend(&block.params);
                forwarded.extend(&t.args);
            }
        }
    }
    let mut changed = false;
    for src in 0..n {
        let block = &mut func.blocks[src];
        block.term.for_each_target_mut(|t| {
            let b = t.block.index();
            if b == src {
                return;
            }
            if let Some(fwd) = forwards[b] {
                // Don't thread into the forwarding block itself, and skip
                // chains that would need the forwarder's params after it.
                if fwd.dest.index() == src || fwd.dest.index() == b {
                    return;
                }
                let (params, rest) = forwarded[fwd.start as usize..].split_at(fwd.params as usize);
                let dest_args = &rest[..fwd.args as usize];
                incoming.clear();
                incoming.append(&mut t.args);
                let map = |v: ValueId| {
                    params.iter().position(|p| *p == v).map(|i| incoming[i]).unwrap_or(v)
                };
                t.block = fwd.dest;
                t.args.extend(dest_args.iter().map(|&v| map(v)));
                changed = true;
            }
        });
    }
    changed
}

/// Deletes unreachable blocks and compacts block ids.
fn remove_unreachable(module: &mut Module, fid: FuncId, scratch: &mut Scratch) -> bool {
    let Scratch { reach, stack, remap, .. } = scratch;
    let func = module.func_mut(fid);
    reachable_blocks_into(func, reach, stack);
    if reach.iter().all(|&r| r) {
        return false;
    }
    remap.clear();
    remap.resize(func.blocks.len(), BlockId::new(0));
    let mut next = 0u32;
    for (i, &r) in reach.iter().enumerate() {
        if r {
            remap[i] = BlockId::new(next);
            next += 1;
        }
    }
    let mut i = 0;
    func.blocks.retain(|_| {
        let keep = reach[i];
        i += 1;
        keep
    });
    for block in &mut func.blocks {
        block.term.for_each_target_mut(|t| t.block = remap[t.block.index()]);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_ir::{assert_verified, BinOp, FuncBuilder, Linkage};

    #[test]
    fn collapses_branch_with_equal_arms() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let p = b.param(0);
        let (t, _) = b.new_block(0);
        b.branch(p, t, &[], t, &[]);
        b.switch_to(t);
        b.ret(Some(p));
        assert!(SimplifyCfg.run(&mut m));
        assert_verified(&m);
        // Branch collapsed to jump, then the chain merged into one block.
        assert_eq!(m.func(f).blocks.len(), 1);
        assert!(matches!(m.func(f).blocks[0].term, Terminator::Return(_)));
    }

    #[test]
    fn forwards_params_of_single_pred_blocks() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let p = b.param(0);
        let v = b.bin(BinOp::Add, p, p);
        let (nxt, nxt_params) = b.new_block(1);
        b.jump(nxt, &[v]);
        let r = b.bin(BinOp::Mul, nxt_params[0], nxt_params[0]);
        b.ret(Some(r));
        assert!(SimplifyCfg.run(&mut m));
        assert_verified(&m);
        let func = m.func(f);
        assert_eq!(func.blocks.len(), 1);
        match &func.blocks[0].insts[1] {
            optinline_ir::Inst::Bin { lhs, .. } => assert_eq!(*lhs, v),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn prunes_dead_block_params() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let p = b.param(0);
        let (t, _tp) = b.new_block(1);
        let (e, _ep) = b.new_block(1);
        let (j, jp) = b.new_block(2);
        b.branch(p, t, &[p], e, &[p]);
        b.switch_to(t);
        let one = b.iconst(1);
        b.jump(j, &[one, p]);
        b.switch_to(e);
        let two = b.iconst(2);
        b.jump(j, &[two, p]);
        b.switch_to(j);
        // Only the first join param is used.
        b.ret(Some(jp[0]));
        assert!(SimplifyCfg.run(&mut m));
        assert_verified(&m);
        let func = m.func(f);
        let join = &func.blocks[3];
        assert_eq!(join.params.len(), 1);
    }

    #[test]
    fn threads_jumps_through_empty_forwarders() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let p = b.param(0);
        let (fwd, fwd_params) = b.new_block(1);
        let (t, _) = b.new_block(0);
        let (dst, dst_params) = b.new_block(1);
        // Entry branches to fwd or t; fwd just forwards its param to dst.
        b.branch(p, fwd, &[p], t, &[]);
        b.switch_to(fwd);
        b.jump(dst, &[fwd_params[0]]);
        b.switch_to(t);
        let nine = b.iconst(9);
        b.jump(dst, &[nine]);
        b.switch_to(dst);
        b.ret(Some(dst_params[0]));
        assert!(SimplifyCfg.run(&mut m));
        assert_verified(&m);
        // fwd is gone.
        let func = m.func(f);
        assert!(func.blocks.len() <= 3);
        let out0 = optinline_ir::interp::Interp::new(&m).run(f, &[0]).unwrap();
        let out1 = optinline_ir::interp::Interp::new(&m).run(f, &[1]).unwrap();
        assert_eq!(out0.ret, Some(9));
        assert_eq!(out1.ret, Some(1));
    }

    #[test]
    fn merges_a_long_straight_line_chain_in_one_run() {
        // Forty blocks of one instruction each, every one jumping to the
        // next: a single run merges the whole chain, more blocks than the
        // run has sweeps.
        let mut m = Module::new("m");
        let f = m.declare_function("f", 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let mut acc = b.param(0);
        for _ in 0..39 {
            acc = b.bin(BinOp::Add, acc, acc);
            let (next, _) = b.new_block(0);
            b.jump(next, &[]);
        }
        acc = b.bin(BinOp::Add, acc, acc);
        b.ret(Some(acc));
        let before = optinline_ir::interp::Interp::new(&m).run(f, &[1]).unwrap();
        let res = SimplifyCfg.run_on_function(&mut m, f, &mut AnalysisManager::new());
        assert!(res.any_changed());
        assert_verified(&m);
        let func = m.func(f);
        assert_eq!(func.blocks.len(), 1);
        assert_eq!(func.blocks[0].insts.len(), 40);
        let after = optinline_ir::interp::Interp::new(&m).run(f, &[1]).unwrap();
        assert_eq!(before.ret, after.ret);
    }

    #[test]
    fn removes_unreachable_blocks_and_compacts() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 0, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let (dead, _) = b.new_block(0);
        let (live, _) = b.new_block(0);
        b.jump(live, &[]);
        b.ret(None);
        b.switch_to(dead);
        b.ret(None);
        assert!(SimplifyCfg.run(&mut m));
        assert_verified(&m);
        assert_eq!(m.func(f).blocks.len(), 1);
    }

    #[test]
    fn loop_structure_is_preserved() {
        // A genuine loop must survive simplification with observables intact.
        let mut m = Module::new("m");
        let f = m.declare_function("main", 0, Linkage::Public);
        let g = m.add_global("acc", 0);
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
        SimplifyCfg.run(&mut m);
        assert_verified(&m);
        let after = optinline_ir::interp::run_main(&m).unwrap();
        assert_eq!(before.observable(), after.observable());
        assert_eq!(after.globals, vec![45]);
    }

    #[test]
    fn self_looping_param_block_is_left_alone() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let p = b.param(0);
        let (l, lp) = b.new_block(1);
        b.jump(l, &[p]);
        let one = b.iconst(1);
        let nxt = b.bin(BinOp::Sub, lp[0], one);
        let (exit, _) = b.new_block(0);
        b.branch(nxt, l, &[nxt], exit, &[]);
        b.switch_to(exit);
        b.ret(Some(nxt));
        let before = optinline_ir::interp::Interp::new(&m).run(f, &[3]).unwrap();
        SimplifyCfg.run(&mut m);
        assert_verified(&m);
        let after = optinline_ir::interp::Interp::new(&m).run(f, &[3]).unwrap();
        assert_eq!(before.ret, after.ret);
        assert_eq!(after.ret, Some(0));
    }
}
