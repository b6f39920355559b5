//! Parametric call-graph shape builders: the canonical topologies the
//! paper's search-space analysis cares about, sized on demand.
//!
//! Where [`samples`](crate::samples) hand-crafts the paper's specific
//! figures, these builders generate *families* — a 50-edge bridge chain, a
//! 12-spoke star — for scaling studies, benches, and tests. All bodies are
//! small deterministic arithmetic; every function takes one parameter and
//! returns one value; node 0's root is public.

use optinline_ir::{assert_verified, BinOp, FuncBuilder, FuncId, Linkage, Module};

fn body(b: &mut FuncBuilder<'_>, seed: i64, ops: usize) -> optinline_ir::ValueId {
    let p = b.param(0);
    let mut acc = p;
    for k in 0..ops {
        let c = b.iconst(seed * 7 + k as i64 + 1);
        acc = b.bin([BinOp::Add, BinOp::Xor, BinOp::Sub][k % 3], acc, c);
    }
    acc
}

/// A chain `root → f1 → f2 → … → f_n`: every edge is a bridge, the shape
/// §3.2's recursive partitioning splits down the middle.
pub fn chain(n_edges: usize) -> Module {
    assert!(n_edges >= 1, "a chain needs at least one edge");
    let mut m = Module::new(format!("chain{n_edges}"));
    let mut prev: Option<FuncId> = None;
    for i in (0..=n_edges).rev() {
        let linkage = if i == 0 { Linkage::Public } else { Linkage::Internal };
        let f = m.declare_function(format!("f{i}"), 1, linkage);
        let mut b = FuncBuilder::new(&mut m, f);
        let acc = body(&mut b, i as i64, 2 + i % 3);
        match prev {
            Some(callee) => {
                let v = b.call(callee, &[acc]).unwrap();
                b.ret(Some(v));
            }
            None => b.ret(Some(acc)),
        }
        prev = Some(f);
    }
    assert_verified(&m);
    m
}

/// A star: `k` public callers share one internal callee — the coupled-DCE
/// landscape of Figure 11, parametric.
pub fn star(k_callers: usize, callee_ops: usize) -> Module {
    assert!(k_callers >= 1, "a star needs at least one caller");
    let mut m = Module::new(format!("star{k_callers}"));
    let hub = m.declare_function("hub", 1, Linkage::Internal);
    {
        let mut b = FuncBuilder::new(&mut m, hub);
        let acc = body(&mut b, 3, callee_ops);
        b.ret(Some(acc));
    }
    for i in 0..k_callers {
        let f = m.declare_function(format!("caller{i}"), 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let acc = body(&mut b, i as i64, 1 + i % 2);
        let v = b.call(hub, &[acc]).unwrap();
        b.ret(Some(v));
    }
    assert_verified(&m);
    m
}

/// A binary tree of depth `d`: the root calls two children, each child two
/// grandchildren, … — `2^d - 1` internal functions, `2^(d+1) - 2` edges,
/// every edge a bridge. The shape where recursive partitioning shines.
pub fn binary_tree(depth: usize) -> Module {
    assert!((1..=6).contains(&depth), "depth must be 1..=6 (edge count doubles per level)");
    let mut m = Module::new(format!("tree{depth}"));
    // Level-order declaration: node i has children 2i+1 and 2i+2.
    let total = (1usize << depth) - 1;
    let ids: Vec<FuncId> = (0..total)
        .map(|i| {
            let linkage = if i == 0 { Linkage::Public } else { Linkage::Internal };
            m.declare_function(format!("n{i}"), 1, linkage)
        })
        .collect();
    for i in (0..total).rev() {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut b = FuncBuilder::new(&mut m, ids[i]);
        let acc = body(&mut b, i as i64, 2);
        if l < total {
            let vl = b.call(ids[l], &[acc]).unwrap();
            let vr = b.call(ids[r], &[acc]).unwrap();
            let sum = b.bin(BinOp::Add, vl, vr);
            b.ret(Some(sum));
        } else {
            b.ret(Some(acc));
        }
    }
    assert_verified(&m);
    m
}

/// `k` disconnected single-edge components — the §3.1 decomposition in its
/// purest form: the naive space is `2^k`, the partitioned one `2k + 1`.
pub fn components(k: usize) -> Module {
    assert!(k >= 1, "need at least one component");
    let mut m = Module::new(format!("components{k}"));
    for i in 0..k {
        let leaf = m.declare_function(format!("leaf{i}"), 1, Linkage::Internal);
        {
            let mut b = FuncBuilder::new(&mut m, leaf);
            let acc = body(&mut b, i as i64, 2);
            b.ret(Some(acc));
        }
        let root = m.declare_function(format!("root{i}"), 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, root);
        let p = b.param(0);
        let v = b.call(leaf, &[p]).unwrap();
        b.ret(Some(v));
    }
    assert_verified(&m);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_callgraph::{bridge_groups, component_count, InlineGraph, PartitionStrategy};
    use optinline_core::tree::{space_size, try_build_inlining_tree};

    #[test]
    fn chain_edges_are_all_bridges() {
        for n in [1usize, 3, 8, 20] {
            let m = chain(n);
            assert_eq!(m.inlinable_sites().len(), n);
            let g = InlineGraph::from_module(&m);
            assert_eq!(bridge_groups(&g).len(), n);
        }
    }

    #[test]
    fn star_has_k_sites_one_component() {
        let m = star(6, 10);
        assert_eq!(m.inlinable_sites().len(), 6);
        let g = InlineGraph::from_module(&m);
        assert_eq!(component_count(&g), 1);
    }

    #[test]
    fn tree_space_collapses_dramatically() {
        // Depth 4: 15 nodes, 14 edges → naive 2^14 = 16384; the partitioned
        // space is orders of magnitude smaller on a perfect bridge tree.
        let m = binary_tree(4);
        let n = m.inlinable_sites().len();
        assert_eq!(n, 14);
        let g = InlineGraph::from_module(&m);
        let tree = try_build_inlining_tree(&g, PartitionStrategy::Paper, 1 << 14)
            .expect("tree shape must stay within the naive bound");
        let space = space_size(&tree);
        assert!(space < (1u128 << n) / 4, "space {space} vs naive {}", 1u128 << n);
    }

    #[test]
    fn components_space_is_linear() {
        // k single-edge components: 2 evaluations each + 1 combine.
        let m = components(10);
        let g = InlineGraph::from_module(&m);
        let tree = try_build_inlining_tree(&g, PartitionStrategy::Paper, 1 << 12).unwrap();
        assert_eq!(space_size(&tree), 2 * 10 + 1);
    }

    #[test]
    fn shapes_interpret_and_search_soundly() {
        use optinline_codegen::X86Like;
        use optinline_core::{exhaustive_search, SizeEvaluator};
        for m in [chain(4), star(3, 6), binary_tree(3), components(3)] {
            let name = m.name.clone();
            let ev = SizeEvaluator::new(m, Box::new(X86Like), false);
            let sites = ev.sites().clone();
            let naive = exhaustive_search(&ev, &sites);
            let tree = optinline_core::tree::optimal_configuration(&ev, PartitionStrategy::Paper);
            assert_eq!(tree.size, naive.size, "{name}");
        }
    }
}
