//! The recursively partitioned search space (§3.2): inlining trees.
//!
//! An inlining tree enumerates the full configuration space of a call graph
//! while exploiting two facts — connected components are independent, and a
//! non-inlined bridge behaves like a deleted edge — so the number of
//! compile-and-measure evaluations drops from `2^n` to (often) orders of
//! magnitude fewer, with **no loss of optimality**.
//!
//! - [`build_inlining_tree`] is the paper's Algorithm 2 (tree construction
//!   with a pluggable partition-edge strategy);
//! - [`evaluate_inlining_tree`] is Algorithm 1 (optimal configuration by
//!   bottom-up propagation) as a sequential walk; the task-DAG executor
//!   ([`evaluate_inlining_tree_dag`](crate::evaluate_inlining_tree_dag))
//!   runs the same algorithm in parallel;
//! - [`space_size`] is the evaluation count: leaves plus one extra
//!   evaluation per components node.

use crate::config::InliningConfiguration;
use crate::evaluator::Evaluator;
use optinline_callgraph::{connected_components, Decision, InlineGraph, PartitionStrategy};
use optinline_ir::CallSiteId;
use std::collections::BTreeSet;

/// A node of the inlining tree (§3.2's three node kinds).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InliningTree {
    /// All edges on this path are labelled: one configuration to evaluate.
    Leaf,
    /// A partition edge with its two labelings. Evaluation prefers the
    /// `not_inlined` child on ties (Algorithm 1 line 8).
    Binary {
        /// The partition site this node labels.
        site: CallSiteId,
        /// Subtree where the site is not inlined.
        not_inlined: Box<InliningTree>,
        /// Subtree where the site is inlined.
        inlined: Box<InliningTree>,
    },
    /// Independent inlining components, explored separately and combined
    /// with one extra evaluation.
    Components(Vec<InliningTree>),
}

/// Builds the inlining tree of a graph (Algorithm 2).
pub fn build_inlining_tree(graph: &InlineGraph, strategy: PartitionStrategy) -> InliningTree {
    if graph.group_count() == 0 {
        return InliningTree::Leaf;
    }
    // Independent inlining components = undirected components that still
    // contain undecided edges (edgeless leftovers need no exploration).
    let comps: Vec<BTreeSet<_>> = connected_components(graph)
        .into_iter()
        .map(|nodes| nodes.into_iter().collect::<BTreeSet<_>>())
        .filter(|nodes| {
            graph.live_edges().iter().any(|(_, a, b)| nodes.contains(a) || nodes.contains(b))
        })
        .collect();
    if comps.len() > 1 {
        let children = comps
            .into_iter()
            .map(|nodes| build_inlining_tree(&graph.induced(&nodes), strategy))
            .collect();
        return InliningTree::Components(children);
    }
    let site = strategy.select(graph);
    let mut g_no = graph.clone();
    g_no.apply(site, Decision::NoInline);
    let mut g_in = graph.clone();
    g_in.apply(site, Decision::Inline);
    InliningTree::Binary {
        site,
        not_inlined: Box::new(build_inlining_tree(&g_no, strategy)),
        inlined: Box::new(build_inlining_tree(&g_in, strategy)),
    }
}

/// Budget-bounded construction: returns `None` as soon as the tree's
/// evaluation count (leaves + components nodes) would exceed `max_space`.
///
/// Real corpora contain call graphs whose trees are astronomically large
/// (the paper's biggest file alone is `2^349` naïve); this is the only safe
/// way to ask "is this file exhaustively explorable?" without first
/// materializing an unexplorable tree.
pub fn try_build_inlining_tree(
    graph: &InlineGraph,
    strategy: PartitionStrategy,
    max_space: u128,
) -> Option<InliningTree> {
    let mut budget = max_space;
    try_build_inner(graph, strategy, &mut budget)
}

fn try_build_inner(
    graph: &InlineGraph,
    strategy: PartitionStrategy,
    budget: &mut u128,
) -> Option<InliningTree> {
    if graph.group_count() == 0 {
        *budget = budget.checked_sub(1)?;
        return Some(InliningTree::Leaf);
    }
    let comps: Vec<BTreeSet<_>> = connected_components(graph)
        .into_iter()
        .map(|nodes| nodes.into_iter().collect::<BTreeSet<_>>())
        .filter(|nodes| {
            graph.live_edges().iter().any(|(_, a, b)| nodes.contains(a) || nodes.contains(b))
        })
        .collect();
    if comps.len() > 1 {
        *budget = budget.checked_sub(1)?; // the combining evaluation
        let children = comps
            .into_iter()
            .map(|nodes| try_build_inner(&graph.induced(&nodes), strategy, budget))
            .collect::<Option<Vec<_>>>()?;
        return Some(InliningTree::Components(children));
    }
    let site = strategy.select(graph);
    let mut g_no = graph.clone();
    g_no.apply(site, Decision::NoInline);
    let not_inlined = try_build_inner(&g_no, strategy, budget)?;
    let mut g_in = graph.clone();
    g_in.apply(site, Decision::Inline);
    let inlined = try_build_inner(&g_in, strategy, budget)?;
    Some(InliningTree::Binary {
        site,
        not_inlined: Box::new(not_inlined),
        inlined: Box::new(inlined),
    })
}

/// The number of size evaluations exploring this tree costs: one per leaf
/// plus one combination evaluation per components node (§3.2).
///
/// Counts saturate at `u128::MAX` rather than wrapping: leaf counts grow
/// as 2^depth, so a tree deeper than 127 undecided bridges in one chain
/// would silently overflow otherwise — and callers compare this value
/// against budgets, where a wrapped small number would unleash an
/// intractable search instead of rejecting it.
pub fn space_size(tree: &InliningTree) -> u128 {
    match tree {
        InliningTree::Leaf => 1,
        InliningTree::Binary { not_inlined, inlined, .. } => {
            space_size(not_inlined).saturating_add(space_size(inlined))
        }
        InliningTree::Components(children) => {
            children.iter().map(space_size).fold(0u128, u128::saturating_add).saturating_add(1)
        }
    }
}

/// Structural statistics of a tree (for Table 1-style reports and tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Number of leaves.
    pub leaves: u128,
    /// Number of binary nodes.
    pub binary_nodes: u128,
    /// Number of components nodes.
    pub components_nodes: u128,
    /// Maximum depth.
    pub depth: usize,
}

/// Computes [`TreeStats`]. Counters saturate like [`space_size`] so deep
/// trees report `u128::MAX` instead of wrapping.
pub fn tree_stats(tree: &InliningTree) -> TreeStats {
    match tree {
        InliningTree::Leaf => {
            TreeStats { leaves: 1, binary_nodes: 0, components_nodes: 0, depth: 0 }
        }
        InliningTree::Binary { not_inlined, inlined, .. } => {
            let a = tree_stats(not_inlined);
            let b = tree_stats(inlined);
            TreeStats {
                leaves: a.leaves.saturating_add(b.leaves),
                binary_nodes: a.binary_nodes.saturating_add(b.binary_nodes).saturating_add(1),
                components_nodes: a.components_nodes.saturating_add(b.components_nodes),
                depth: a.depth.max(b.depth) + 1,
            }
        }
        InliningTree::Components(children) => {
            let mut s = TreeStats { leaves: 0, binary_nodes: 0, components_nodes: 1, depth: 0 };
            for c in children {
                let cs = tree_stats(c);
                s.leaves = s.leaves.saturating_add(cs.leaves);
                s.binary_nodes = s.binary_nodes.saturating_add(cs.binary_nodes);
                s.components_nodes = s.components_nodes.saturating_add(cs.components_nodes);
                s.depth = s.depth.max(cs.depth + 1);
            }
            s
        }
    }
}

/// Evaluates the tree, returning an optimal configuration and its size
/// (Algorithm 1). `base` carries the decisions accumulated on the path —
/// pass the clean slate at the root.
pub fn evaluate_inlining_tree(
    tree: &InliningTree,
    evaluator: &dyn Evaluator,
    base: InliningConfiguration,
) -> (InliningConfiguration, u64) {
    optinline_ir::cancel::checkpoint();
    match tree {
        InliningTree::Leaf => {
            let size = evaluator.size_of(&base);
            (base, size)
        }
        InliningTree::Binary { site, not_inlined, inlined } => {
            let base_no = base.clone().with(*site, Decision::NoInline);
            let base_in = base.with(*site, Decision::Inline);
            let (c1, s1) = evaluate_inlining_tree(not_inlined, evaluator, base_no);
            let (c2, s2) = evaluate_inlining_tree(inlined, evaluator, base_in);
            if s1 <= s2 {
                (c1, s1)
            } else {
                (c2, s2)
            }
        }
        InliningTree::Components(children) => {
            let mut merged = base.clone();
            for child in children {
                merged.merge(&evaluate_inlining_tree(child, evaluator, base.clone()).0);
            }
            let size = evaluator.size_of(&merged);
            (merged, size)
        }
    }
}

/// Convenience: builds and evaluates the tree for an evaluator's module.
pub fn optimal_configuration(
    evaluator: &crate::SizeEvaluator,
    strategy: PartitionStrategy,
) -> crate::naive::SearchOutcome {
    let graph = InlineGraph::from_module(evaluator.module());
    let tree = build_inlining_tree(&graph, strategy);
    let evals = space_size(&tree);
    let (config, size) =
        evaluate_inlining_tree(&tree, evaluator, InliningConfiguration::clean_slate());
    crate::naive::SearchOutcome { config, size, evaluations: evals }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 5a: F→G, G→K, K→L, L→H, H→I (sites s0..s4).
    fn fig5() -> InlineGraph {
        InlineGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    }

    /// Figure 4: two components {F→G, G→K} and {H→L}.
    fn fig4() -> InlineGraph {
        InlineGraph::from_edges(5, &[(0, 1), (1, 2), (3, 4)])
    }

    #[test]
    fn space_size_stays_exact_on_deep_chains_and_saturates_instead_of_wrapping() {
        // A 300-deep degenerate binary chain: far past where u8/u16 depth
        // counters or a doubling u64 would misbehave, yet exactly countable
        // (each level adds one leaf).
        let mut tree = InliningTree::Leaf;
        for i in 0..300u32 {
            tree = InliningTree::Binary {
                site: CallSiteId::new(i),
                not_inlined: Box::new(InliningTree::Leaf),
                inlined: Box::new(tree),
            };
        }
        assert_eq!(space_size(&tree), 301);
        let stats = tree_stats(&tree);
        assert_eq!(stats.leaves, 301);
        assert_eq!(stats.binary_nodes, 300);
        assert_eq!(stats.depth, 300);
        // Empty components node still costs its one combining evaluation.
        assert_eq!(space_size(&InliningTree::Components(Vec::new())), 1);
    }

    #[test]
    fn fig4_space_matches_paper() {
        // 2^2 + 2^1 + 1 (combination) = 7… the paper's §3.1 counts 2^2+2^1=6
        // *configurations*; our space_size counts *evaluations*, which adds
        // the combining compile of the components node.
        let tree = build_inlining_tree(&fig4(), PartitionStrategy::Paper);
        assert!(matches!(tree, InliningTree::Components(_)));
        // Components of sizes 2 and 1: subtree leaves 4 and 2, plus 1.
        assert_eq!(space_size(&tree), 7);
    }

    #[test]
    fn fig5_space_matches_paper_section_3_2() {
        // Paper: partitioning on K→L gives (2^2 + 2^2 + 1) + 2^4 = 25.
        let tree = build_inlining_tree(&fig5(), PartitionStrategy::Paper);
        assert_eq!(space_size(&tree), 25);
        // Versus naïve 2^5 = 32.
        assert!(space_size(&tree) < 32);
    }

    #[test]
    fn first_edge_strategy_degrades_on_fig5() {
        // Selecting edges left-to-right still creates some partitions on a
        // chain, but fewer than the central-bridge choice at the root.
        let paper = space_size(&build_inlining_tree(&fig5(), PartitionStrategy::Paper));
        let naive = 1u128 << 5;
        assert!(paper < naive);
    }

    #[test]
    fn star_graph_has_no_partitioning_gain_at_the_root() {
        // K callers of one callee (coupled only pairwise): every edge shares
        // the hub, so no-inline deletions do split off the spokes.
        let g = InlineGraph::from_edges(4, &[(1, 0), (2, 0), (3, 0)]);
        let tree = build_inlining_tree(&g, PartitionStrategy::Paper);
        let s = space_size(&tree);
        assert!(s <= 8, "star of 3 spokes must not exceed naive 8, got {s}");
    }

    #[test]
    fn tree_stats_are_consistent_with_space_size() {
        let tree = build_inlining_tree(&fig5(), PartitionStrategy::Paper);
        let stats = tree_stats(&tree);
        assert_eq!(stats.leaves + stats.components_nodes, space_size(&tree));
        assert!(stats.depth >= 3);
    }

    #[test]
    fn single_edge_graph_builds_binary_over_leaves() {
        let g = InlineGraph::from_edges(2, &[(0, 1)]);
        let tree = build_inlining_tree(&g, PartitionStrategy::Paper);
        match &tree {
            InliningTree::Binary { not_inlined, inlined, .. } => {
                assert_eq!(**not_inlined, InliningTree::Leaf);
                assert_eq!(**inlined, InliningTree::Leaf);
            }
            other => panic!("expected binary root, got {other:?}"),
        }
        assert_eq!(space_size(&tree), 2);
    }

    #[test]
    fn self_loop_only_graph_terminates() {
        let g = InlineGraph::from_edges(1, &[(0, 0)]);
        let tree = build_inlining_tree(&g, PartitionStrategy::Paper);
        assert_eq!(space_size(&tree), 2);
    }

    #[test]
    fn random_strategy_trees_stay_within_partitioning_overhead() {
        // A bad strategy can even exceed the naive count slightly: each
        // components node adds one combining evaluation (§3.2's +1 terms).
        // It can never exceed naive plus one combine per internal node.
        for seed in 0..5 {
            let s = space_size(&build_inlining_tree(&fig5(), PartitionStrategy::Random(seed)));
            assert!(s <= 2 * 32, "seed {seed}: {s} far beyond naive 32");
            assert!(s >= 6, "seed {seed}: impossibly small space {s}");
        }
    }
}
