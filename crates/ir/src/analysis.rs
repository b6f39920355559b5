//! Intra- and inter-procedural analyses shared by the optimizer, verifier,
//! and code generator: CFG reachability, predecessors, dominators, effect
//! summaries, and reachable-function computation.

use crate::function::Function;
use crate::ids::{BlockId, FuncId, ValueId};
use crate::inst::Inst;
use crate::module::Module;
use std::collections::BTreeSet;

/// Returns the set of blocks reachable from the entry block.
pub fn reachable_blocks(func: &Function) -> Vec<bool> {
    let mut seen = vec![false; func.blocks.len()];
    let mut stack = vec![func.entry()];
    seen[0] = true;
    while let Some(b) = stack.pop() {
        for s in func.block(b).term.successors() {
            if !seen[s.index()] {
                seen[s.index()] = true;
                stack.push(s);
            }
        }
    }
    seen
}

/// Returns, for each block, the list of predecessor blocks (with
/// multiplicity: a two-way branch to the same block contributes twice).
pub fn predecessors(func: &Function) -> Vec<Vec<BlockId>> {
    let mut preds = vec![Vec::new(); func.blocks.len()];
    for (id, block) in func.iter_blocks() {
        for s in block.term.successors() {
            preds[s.index()].push(id);
        }
    }
    preds
}

/// Immediate dominators, computed with the Cooper–Harvey–Kennedy iterative
/// algorithm over a reverse-postorder numbering.
///
/// Entry dominates itself. Unreachable blocks get `None`.
pub fn immediate_dominators(func: &Function) -> Vec<Option<BlockId>> {
    let n = func.blocks.len();
    // Reverse postorder.
    let mut order = Vec::with_capacity(n);
    let mut state = vec![0u8; n]; // 0 = unvisited, 1 = on stack, 2 = done
    let mut stack: Vec<(BlockId, usize)> = vec![(func.entry(), 0)];
    state[0] = 1;
    while let Some(&mut (b, ref mut i)) = stack.last_mut() {
        let succs = func.block(b).term.successors();
        if *i < succs.len() {
            let s = succs[*i];
            *i += 1;
            if state[s.index()] == 0 {
                state[s.index()] = 1;
                stack.push((s, 0));
            }
        } else {
            state[b.index()] = 2;
            order.push(b);
            stack.pop();
        }
    }
    order.reverse();
    let mut rpo_num = vec![usize::MAX; n];
    for (i, b) in order.iter().enumerate() {
        rpo_num[b.index()] = i;
    }

    let preds = predecessors(func);
    let mut idom: Vec<Option<BlockId>> = vec![None; n];
    idom[0] = Some(func.entry());
    let mut changed = true;
    while changed {
        changed = false;
        for &b in order.iter().skip(1) {
            let mut new_idom: Option<BlockId> = None;
            for &p in &preds[b.index()] {
                if idom[p.index()].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(&idom, &rpo_num, p, cur),
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
    idom
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

/// Returns `true` if block `a` dominates block `b` (both reachable).
pub fn dominates(idom: &[Option<BlockId>], a: BlockId, b: BlockId) -> bool {
    let mut cur = b;
    loop {
        if cur == a {
            return true;
        }
        match idom[cur.index()] {
            Some(d) if d != cur => cur = d,
            _ => return cur == a,
        }
    }
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

/// Functions reachable (via calls) from the module's public functions.
///
/// This is the liveness used by dead-function elimination and by codegen's
/// size accounting.
pub fn reachable_functions(module: &Module) -> BTreeSet<FuncId> {
    let mut live = BTreeSet::new();
    let mut stack = Vec::new();
    for (id, f) in module.iter_funcs() {
        if matches!(f.linkage, crate::function::Linkage::Public) {
            live.insert(id);
            stack.push(id);
        }
    }
    while let Some(f) = stack.pop() {
        for (_, callee) in module.func(f).call_edges() {
            if live.insert(callee) {
                stack.push(callee);
            }
        }
    }
    live
}

/// Counts uses of every value in a function (dense by value id).
pub fn use_counts(func: &Function) -> Vec<u32> {
    let mut counts = vec![0u32; func.value_bound() as usize];
    let mut bump = |v: ValueId| {
        if (v.index()) < counts.len() {
            counts[v.index()] += 1;
        }
    };
    for b in &func.blocks {
        for i in &b.insts {
            i.for_each_use(&mut bump);
        }
        b.term.for_each_use(&mut bump);
    }
    counts
}

/// Returns `true` if the function contains no loops (its reachable CFG is a
/// DAG). Used by workload validation and size heuristics.
pub fn is_acyclic(func: &Function) -> bool {
    let n = func.blocks.len();
    let mut state = vec![0u8; n];
    fn dfs(func: &Function, b: BlockId, state: &mut [u8]) -> bool {
        state[b.index()] = 1;
        for s in func.block(b).term.successors() {
            let seen = state[s.index()];
            if seen == 1 || (seen == 0 && !dfs(func, s, state)) {
                return false;
            }
        }
        state[b.index()] = 2;
        true
    }
    dfs(func, func.entry(), &mut state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::function::Linkage;

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

    #[test]
    fn predecessors_of_diamond_join() {
        let (m, f) = diamond();
        let preds = predecessors(m.func(f));
        assert_eq!(preds[3].len(), 2);
        assert_eq!(preds[0].len(), 0);
    }

    #[test]
    fn dominators_of_diamond() {
        let (m, f) = diamond();
        let idom = immediate_dominators(m.func(f));
        let b0 = BlockId::new(0);
        assert_eq!(idom[0], Some(b0));
        assert_eq!(idom[1], Some(b0));
        assert_eq!(idom[2], Some(b0));
        assert_eq!(idom[3], Some(b0));
        assert!(dominates(&idom, b0, BlockId::new(3)));
        assert!(!dominates(&idom, BlockId::new(1), BlockId::new(3)));
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
        assert!(live.contains(&a));
        assert!(live.contains(&b_));
        assert!(!live.contains(&dead));
    }

    #[test]
    fn use_counts_count_terminator_uses() {
        let (m, f) = diamond();
        let counts = use_counts(m.func(f));
        // Param v0 used once (branch cond); consts used once each (jump args).
        assert_eq!(counts[0], 1);
    }

    #[test]
    fn acyclic_detects_loops() {
        let (m, f) = diamond();
        assert!(is_acyclic(m.func(f)));
        let mut m2 = Module::new("m2");
        let g = m2.declare_function("g", 0, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m2, g);
        let (hdr, _) = b.new_block(0);
        b.jump(hdr, &[]);
        // hdr jumps to itself: a loop.
        b.jump(hdr, &[]);
        assert!(!is_acyclic(m2.func(g)));
    }
}
