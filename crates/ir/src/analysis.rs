//! Intra- and inter-procedural analyses shared by the optimizer, verifier,
//! and code generator: CFG reachability, reverse postorder, dominators,
//! use counts, effect summaries, and reachable-function computation.
//!
//! The per-function walks come in two forms: one that returns a fresh
//! vector, and an `_into` form that fills caller-owned buffers, for the
//! passes that keep their tables across calls. [`Dominators`] keeps its
//! own tables, so its readers (GVN, the verifier) each own one.

use crate::function::Function;
use crate::ids::{BlockId, FuncId, ValueId};
use crate::inst::Inst;
use crate::module::Module;

/// Returns the set of blocks reachable from the entry block.
pub fn reachable_blocks(func: &Function) -> Vec<bool> {
    let mut seen = Vec::new();
    reachable_blocks_into(func, &mut seen, &mut Vec::new());
    seen
}

/// [`reachable_blocks`] into caller-owned buffers: `seen` receives the
/// answer and `stack` is working space. Both are cleared first, so one
/// pair serves any number of functions without allocating again.
pub fn reachable_blocks_into(func: &Function, seen: &mut Vec<bool>, stack: &mut Vec<BlockId>) {
    seen.clear();
    seen.resize(func.blocks.len(), false);
    stack.clear();
    stack.push(func.entry());
    seen[0] = true;
    while let Some(b) = stack.pop() {
        for s in func.block(b).term.successors() {
            if !seen[s.index()] {
                seen[s.index()] = true;
                stack.push(s);
            }
        }
    }
}

/// Writes the blocks reachable from the entry into `order` in reverse
/// postorder of a depth-first walk that takes a branch's then-arm first.
/// `seen` and `stack` are working space, and `seen` ends as the reachable
/// set. All three are cleared first.
pub fn reverse_postorder_into(
    func: &Function,
    order: &mut Vec<BlockId>,
    seen: &mut Vec<bool>,
    stack: &mut Vec<(BlockId, usize)>,
) {
    order.clear();
    seen.clear();
    seen.resize(func.blocks.len(), false);
    stack.clear();
    stack.push((func.entry(), 0));
    seen[0] = true;
    while let Some(top) = stack.last_mut() {
        let (b, next) = *top;
        match func.block(b).term.successors().nth(next) {
            Some(s) => {
                top.1 += 1;
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push((s, 0));
                }
            }
            None => {
                order.push(b);
                stack.pop();
            }
        }
    }
    order.reverse();
}

/// Immediate dominators of one function at a time, computed with the
/// Cooper–Harvey–Kennedy iterative algorithm over a reverse-postorder
/// numbering. The tables behind them (the reverse postorder, every
/// block's predecessors in one flat array, the dominators) are kept and
/// refilled by each [`compute`](Dominators::compute), so one `Dominators`
/// serves any number of functions and allocates only for a function larger
/// than every one before.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Dominators {
    /// The reachable blocks in reverse postorder.
    order: Vec<BlockId>,
    /// Working space of the reverse-postorder walk.
    seen: Vec<bool>,
    stack: Vec<(BlockId, usize)>,
    /// Each block's position in `order` (`usize::MAX` when unreachable).
    rpo_num: Vec<usize>,
    /// Predecessors as compressed sparse rows: block `b`'s are
    /// `preds[start[b]..start[b + 1]]`, in ascending source order and with
    /// multiplicity, so a branch with both arms to `b` lists its source
    /// twice.
    start: Vec<u32>,
    preds: Vec<BlockId>,
    /// `idom[b]`: the entry's is itself, an unreachable block has none.
    idom: Vec<Option<BlockId>>,
}

impl Dominators {
    /// Computes the immediate dominators of `func`, replacing those of the
    /// function before.
    pub fn compute(&mut self, func: &Function) {
        let n = func.blocks.len();
        let Dominators { order, seen, stack, rpo_num, start, preds, idom } = self;
        reverse_postorder_into(func, order, seen, stack);
        rpo_num.clear();
        rpo_num.resize(n, usize::MAX);
        for (i, b) in order.iter().enumerate() {
            rpo_num[b.index()] = i;
        }

        start.clear();
        start.resize(n + 1, 0);
        for block in &func.blocks {
            for s in block.term.successors() {
                start[s.index()] += 1;
            }
        }
        // Running sums: `start[b]` becomes the end of `b`'s row. Filling
        // each row from its end, sources in descending order, leaves
        // `start[b]` at the row's beginning and each row in ascending
        // source order.
        for b in 1..=n {
            start[b] += start[b - 1];
        }
        preds.clear();
        preds.resize(start[n] as usize, BlockId::new(0));
        for (src, block) in func.blocks.iter().enumerate().rev() {
            for s in block.term.successors() {
                start[s.index()] -= 1;
                preds[start[s.index()] as usize] = BlockId::new(src as u32);
            }
        }

        idom.clear();
        idom.resize(n, None);
        idom[0] = Some(func.entry());
        let mut changed = true;
        while changed {
            changed = false;
            for &b in order.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[start[b.index()] as usize..start[b.index() + 1] as usize] {
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(idom, rpo_num, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
    }

    /// The immediate dominator of `b`: the entry's is itself, and an
    /// unreachable block has none.
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b.index()]
    }

    /// Whether `b` is reachable from the entry: exactly the blocks that
    /// have an immediate dominator.
    pub fn reachable(&self, b: BlockId) -> bool {
        self.idom[b.index()].is_some()
    }

    /// Whether `a` dominates the reachable block `b`. An unreachable `a`
    /// dominates nothing.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.index()] {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }
}

fn intersect(
    idom: &[Option<BlockId>],
    rpo_num: &[usize],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while rpo_num[a.index()] > rpo_num[b.index()] {
            a = idom[a.index()].expect("processed block must have idom");
        }
        while rpo_num[b.index()] > rpo_num[a.index()] {
            b = idom[b.index()].expect("processed block must have idom");
        }
    }
    a
}

/// Per-function effect summary: whether calling the function can observably
/// write memory (transitively through callees).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EffectSummary {
    writes: Vec<bool>,
}

impl EffectSummary {
    /// Computes effect summaries for every function in the module by a
    /// fixpoint over direct effects and call edges. Stubs are effect-free.
    pub fn compute(module: &Module) -> Self {
        let n = module.func_count();
        let mut writes = vec![false; n];
        for (id, f) in module.iter_funcs() {
            for b in &f.blocks {
                if b.insts.iter().any(|i| matches!(i, Inst::Store { .. })) {
                    writes[id.index()] = true;
                }
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for (id, f) in module.iter_funcs() {
                for b in &f.blocks {
                    for i in &b.insts {
                        if let Inst::Call { callee, .. } = i {
                            if writes[callee.index()] && !writes[id.index()] {
                                writes[id.index()] = true;
                                changed = true;
                            }
                        }
                    }
                }
            }
        }
        EffectSummary { writes }
    }

    /// Whether the function may write a global (transitively).
    pub fn may_write(&self, f: FuncId) -> bool {
        self.writes[f.index()]
    }

    /// A call to `f` whose result is unused is removable exactly when `f`
    /// writes nothing. (Reads are safe to drop; the IR has no traps, and
    /// workloads are terminating by construction — see crate docs.)
    pub fn call_removable(&self, f: FuncId) -> bool {
        !self.writes[f.index()]
    }
}

/// Whether each function is reachable (via calls) from the module's public
/// functions, indexed by [`FuncId`]: the liveness dead-function
/// elimination uses.
pub fn reachable_functions(module: &Module) -> Vec<bool> {
    let mut live = vec![false; module.func_count()];
    let mut stack = Vec::with_capacity(module.func_count());
    for (id, f) in module.iter_funcs() {
        if matches!(f.linkage, crate::function::Linkage::Public) {
            live[id.index()] = true;
            stack.push(id);
        }
    }
    while let Some(f) = stack.pop() {
        for inst in module.func(f).blocks.iter().flat_map(|b| &b.insts) {
            if let Inst::Call { callee, .. } = *inst {
                if !std::mem::replace(&mut live[callee.index()], true) {
                    stack.push(callee);
                }
            }
        }
    }
    live
}

/// Counts uses of every value in a function (dense by value id).
pub fn use_counts(func: &Function) -> Vec<u32> {
    let mut counts = Vec::new();
    use_counts_into(func, &mut counts);
    counts
}

/// [`use_counts`] into a caller-owned buffer, cleared and resized to the
/// function's value bound first.
pub fn use_counts_into(func: &Function, counts: &mut Vec<u32>) {
    counts.clear();
    counts.resize(func.value_bound() as usize, 0);
    let mut bump = |v: ValueId| {
        if let Some(count) = counts.get_mut(v.index()) {
            *count += 1;
        }
    };
    for b in &func.blocks {
        for i in &b.insts {
            i.for_each_use(&mut bump);
        }
        b.term.for_each_use(&mut bump);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::function::Linkage;
    use crate::inst::{JumpTarget, Terminator};

    fn diamond() -> (Module, FuncId) {
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
        (m, f)
    }

    #[test]
    fn reachability_finds_all_diamond_blocks() {
        let (m, f) = diamond();
        assert_eq!(reachable_blocks(m.func(f)), vec![true; 4]);
    }

    #[test]
    fn unreachable_block_is_detected() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 0, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let (dead, _) = b.new_block(0);
        b.ret(None);
        b.switch_to(dead);
        b.ret(None);
        let seen = reachable_blocks(m.func(f));
        assert_eq!(seen, vec![true, false]);
    }

    /// A xorshift generator: the CFG tests need reproducible shapes, not
    /// statistical quality.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// A random CFG of `n` blocks. Terminators are drawn so that
    /// self-loops, branches with both arms to one block, exits and (with
    /// few edges per block) unreachable blocks all occur.
    fn random_cfg(rng: &mut Rng, n: usize) -> Function {
        let mut f = Function::new("f", 1, Linkage::Public);
        for _ in 1..n {
            f.add_block(Vec::new());
        }
        let cond = f.params()[0];
        for b in 0..n {
            let kind = rng.below(8);
            let mut pick = || JumpTarget::new(BlockId::new(rng.below(n) as u32));
            let term = match kind {
                0 => Terminator::Return(None),
                1 => Terminator::Unreachable,
                2 => Terminator::Jump(JumpTarget::new(BlockId::new(b as u32))),
                3 => {
                    let t = pick();
                    Terminator::Branch { cond, then_to: t.clone(), else_to: t }
                }
                4 | 5 => Terminator::Jump(pick()),
                _ => Terminator::Branch { cond, then_to: pick(), else_to: pick() },
            };
            f.blocks[b].term = term;
        }
        f
    }

    /// The predecessors of `b`, one entry per edge, in source order.
    fn naive_preds(f: &Function, b: usize) -> Vec<BlockId> {
        let mut preds = Vec::new();
        for (p, block) in f.blocks.iter().enumerate() {
            for s in block.term.successors() {
                if s.index() == b {
                    preds.push(BlockId::new(p as u32));
                }
            }
        }
        preds
    }

    /// Reachability by a fixpoint over edges, dominator sets from the
    /// textbook fixpoint — dom(entry) = {entry} and dom(b) = {b} ∪ ⋂ dom(p)
    /// over b's reachable predecessors p, so `dom[b][a]` says whether `a`
    /// dominates the reachable `b` — and immediate dominators from those: a
    /// block's is the strict dominator with the most dominators of its own.
    #[allow(clippy::type_complexity)]
    fn naive_dominators(f: &Function) -> (Vec<bool>, Vec<Vec<bool>>, Vec<Option<BlockId>>) {
        let n = f.blocks.len();
        let mut reach = vec![false; n];
        reach[0] = true;
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..n {
                for s in f.blocks[b].term.successors() {
                    if reach[b] && !reach[s.index()] {
                        reach[s.index()] = true;
                        changed = true;
                    }
                }
            }
        }
        let mut dom: Vec<Vec<bool>> = (0..n)
            .map(|b| if b == 0 { (0..n).map(|c| c == 0).collect() } else { vec![true; n] })
            .collect();
        changed = true;
        while changed {
            changed = false;
            for b in (1..n).filter(|&b| reach[b]) {
                let mut next = vec![true; n];
                for p in naive_preds(f, b).into_iter().filter(|p| reach[p.index()]) {
                    for (c, bit) in next.iter_mut().enumerate() {
                        *bit &= dom[p.index()][c];
                    }
                }
                next[b] = true;
                if next != dom[b] {
                    dom[b] = next;
                    changed = true;
                }
            }
        }
        let size = |d: usize| dom[d].iter().filter(|&&x| x).count();
        let idom = (0..n)
            .map(|b| match b {
                _ if !reach[b] => None,
                0 => Some(BlockId::new(0)),
                _ => (0..n)
                    .filter(|&d| d != b && dom[b][d])
                    .max_by_key(|&d| size(d))
                    .map(|d| BlockId::new(d as u32)),
            })
            .collect();
        (reach, dom, idom)
    }

    /// One `Dominators` computes for every case in turn, so each case also
    /// checks that nothing of the case before survives in its tables: they
    /// must equal those of a `Dominators` that computed only this case.
    #[test]
    fn reused_dominators_match_a_naive_fixpoint_on_random_cfgs() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let (mut self_loops, mut same_arms, mut unreachable) = (0, 0, 0);
        let mut doms = Dominators::default();
        for case in 0..400 {
            let f = random_cfg(&mut rng, 1 + case % 14);
            let (reach, dom, idom) = naive_dominators(&f);
            doms.compute(&f);
            for b in 0..f.blocks.len() {
                let row = &doms.preds[doms.start[b] as usize..doms.start[b + 1] as usize];
                assert_eq!(row, naive_preds(&f, b), "case {case}, preds of b{b}: {f:?}");
                let bid = BlockId::new(b as u32);
                assert_eq!(doms.idom(bid), idom[b], "case {case}, idom of b{b}: {f:?}");
                assert_eq!(doms.reachable(bid), reach[b], "case {case}, b{b}");
                for a in (0..f.blocks.len()).filter(|_| reach[b]) {
                    let dominates = doms.dominates(BlockId::new(a as u32), bid);
                    assert_eq!(dominates, dom[b][a], "case {case}, b{a} over b{b}: {f:?}");
                }
            }
            let mut fresh = Dominators::default();
            fresh.compute(&f);
            assert_eq!(doms, fresh, "case {case}: {f:?}");
            assert_eq!(reachable_blocks(&f), reach, "case {case}");
            for (b, block) in f.blocks.iter().enumerate() {
                let succs: Vec<BlockId> = block.term.successors().collect();
                self_loops += succs.iter().filter(|s| s.index() == b).count();
                same_arms += usize::from(succs.len() == 2 && succs[0] == succs[1]);
            }
            unreachable += reach.iter().filter(|&&r| !r).count();
        }
        assert!(self_loops > 0 && same_arms > 0 && unreachable > 0);
    }

    #[test]
    fn dominators_of_diamond() {
        let (m, f) = diamond();
        let mut doms = Dominators::default();
        doms.compute(m.func(f));
        let b0 = BlockId::new(0);
        for b in 0..4 {
            assert_eq!(doms.idom(BlockId::new(b)), Some(b0));
        }
        assert!(doms.dominates(b0, BlockId::new(3)));
        assert!(!doms.dominates(BlockId::new(1), BlockId::new(3)));
    }

    #[test]
    fn effects_propagate_through_calls() {
        let mut m = Module::new("m");
        let g = m.add_global("g", 0);
        let writer = m.declare_function("writer", 0, Linkage::Internal);
        let caller = m.declare_function("caller", 0, Linkage::Internal);
        let pure = m.declare_function("pure", 0, Linkage::Internal);
        {
            let mut b = FuncBuilder::new(&mut m, writer);
            let c = b.iconst(1);
            b.store(g, c);
            b.ret(None);
        }
        {
            let mut b = FuncBuilder::new(&mut m, caller);
            b.call_void(writer, &[]);
            b.ret(None);
        }
        {
            let mut b = FuncBuilder::new(&mut m, pure);
            let c = b.iconst(1);
            b.ret(Some(c));
        }
        let eff = EffectSummary::compute(&m);
        assert!(eff.may_write(writer));
        assert!(eff.may_write(caller));
        assert!(!eff.may_write(pure));
        assert!(eff.call_removable(pure));
        assert!(!eff.call_removable(caller));
    }

    #[test]
    fn reachable_functions_from_public_roots() {
        let mut m = Module::new("m");
        let a = m.declare_function("a", 0, Linkage::Public);
        let b_ = m.declare_function("b", 0, Linkage::Internal);
        let dead = m.declare_function("dead", 0, Linkage::Internal);
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
            let mut b = FuncBuilder::new(&mut m, dead);
            b.ret(None);
        }
        let live = reachable_functions(&m);
        assert_eq!(live.len(), m.func_count());
        assert!(live[a.index()]);
        assert!(live[b_.index()]);
        assert!(!live[dead.index()]);
    }

    #[test]
    fn use_counts_count_terminator_uses() {
        let (m, f) = diamond();
        let counts = use_counts(m.func(f));
        // Param v0 used once (branch cond); consts used once each (jump args).
        assert_eq!(counts[0], 1);
    }
}
