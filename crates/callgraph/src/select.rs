//! Partition-edge selection strategies (Algorithm 2's
//! `SelectPartitionEdge` plus ablation alternatives).
//!
//! The choice does not affect the optimality of inlining-tree evaluation,
//! only the number of configurations explored — a bad strategy degrades to
//! the naïve `2^n` space (§3.2). The ablation benchmark
//! `partition_strategy` quantifies this.

use crate::algo::{bridge_groups, sorted_sites, Adjacency, UNSET};
use crate::graph::{InlineGraph, NodeRef};
use optinline_ir::CallSiteId;

/// How the inlining-tree builder picks the next edge to label.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// The paper's heuristic: prefer the bridge adjacent to the least
    /// eccentric vertex; otherwise balance out-/in-degrees (Algorithm 2).
    #[default]
    Paper,
    /// Always pick the lowest-numbered undecided site. The "no heuristic"
    /// baseline — on a path graph this still finds bridges by accident, but
    /// on stars it degenerates.
    FirstEdge,
    /// Pick a pseudo-random undecided site, deterministically derived from
    /// the graph state and the given seed.
    Random(u64),
}

impl PartitionStrategy {
    /// Selects the next partition site for a graph with at least one
    /// undecided site.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no undecided sites.
    pub fn select(self, graph: &InlineGraph) -> CallSiteId {
        assert!(graph.edge_count() > 0, "cannot select a partition edge in an edgeless graph");
        match self {
            PartitionStrategy::Paper => select_paper(graph),
            PartitionStrategy::FirstEdge => first_site(graph),
            PartitionStrategy::Random(seed) => {
                // SplitMix64 over (seed, graph shape) keeps the choice
                // deterministic for a given state, which tree construction
                // requires.
                let mut x = seed
                    ^ (graph.edge_count() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (graph.node_count() as u64).rotate_left(17);
                x ^= x >> 30;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^= x >> 27;
                x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^= x >> 31;
                let sites = sorted_sites(graph);
                sites[(x % sites.len() as u64) as usize]
            }
        }
    }
}

/// The lowest-numbered undecided site of a graph with at least one.
fn first_site(graph: &InlineGraph) -> CallSiteId {
    graph.edges().iter().map(|e| e.site).min().expect("nonempty")
}

fn select_paper(graph: &InlineGraph) -> CallSiteId {
    let bridges = bridge_groups(graph);
    if !bridges.is_empty() {
        // Bridge adjacent to the least eccentric vertex among bridge
        // endpoints; ties broken by the other endpoint's eccentricity so
        // central bridges win and both halves shrink. One adjacency serves
        // every BFS, and each endpoint's eccentricity is computed once.
        let mut adj = Adjacency::new(graph);
        let mut memo = vec![UNSET; graph.slot_count()];
        let mut ecc = |n: NodeRef| {
            if memo[n.index()] == UNSET {
                memo[n.index()] = adj.eccentricity(n);
            }
            memo[n.index()]
        };
        let mut best: Option<(u32, u32, CallSiteId)> = None;
        for e in graph.edges() {
            if bridges.binary_search(&e.site).is_err() {
                continue;
            }
            let (e1, e2) = (ecc(e.from), ecc(e.to));
            let key = (e1.min(e2), e1.max(e2), e.site);
            if best.is_none_or(|k| key < k) {
                best = Some(key);
            }
        }
        return best.expect("nonempty bridges").2;
    }
    // No bridges: from the node with the highest out-degree, pick the
    // out-edge whose head has the least in-degree. Reducing high out-degrees
    // unblocks partitioning; low in-degree heads are the likeliest future
    // bridges.
    let mut out_degree = vec![0usize; graph.slot_count()];
    let mut in_degree = vec![0usize; graph.slot_count()];
    for e in graph.edges() {
        out_degree[e.from.index()] += 1;
        in_degree[e.to.index()] += 1;
    }
    let u = graph
        .live_nodes()
        .max_by_key(|&n| (out_degree[n.index()], std::cmp::Reverse(n)))
        .expect("graph has nodes");
    graph
        .edges()
        .iter()
        .filter(|e| e.from == u)
        .min_by_key(|e| (in_degree[e.to.index()], e.site))
        .map_or_else(
            // The max-out-degree node can only lack out-edges if every node
            // does, which select() already ruled out — except when all edges
            // are self-loops elsewhere; fall back to the first site.
            || first_site(graph),
            |e| e.site,
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 5a: F→G, G→K, K→L, L→H, H→I; sites s0..s4 in that order.
    fn fig5() -> InlineGraph {
        InlineGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    }

    #[test]
    fn paper_picks_the_central_bridge_of_a_chain() {
        // Central nodes K(2) and L(3) have eccentricity 3; the bridge
        // adjacent to them is K→L (s2).
        let site = PartitionStrategy::Paper.select(&fig5());
        assert_eq!(site, CallSiteId::new(2));
    }

    #[test]
    fn paper_falls_back_to_degree_heuristic_on_cycles() {
        // Triangle plus a pendant edge out of node 0: 0→1,1→2,2→0 form a
        // cycle; 0→3 is a bridge, so bridges win; remove it first.
        let g = InlineGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (0, 3)]);
        assert_eq!(PartitionStrategy::Paper.select(&g), CallSiteId::new(3));
        // Pure cycle: no bridges; node 0 has out-degree 1 like the others;
        // the tie-break picks a deterministic site.
        let cyc = InlineGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let s = PartitionStrategy::Paper.select(&cyc);
        assert!(s.index() < 3);
    }

    #[test]
    fn degree_heuristic_prefers_high_out_degree_tail() {
        // Node 0 fans out to 1,2,3 and the graph is held together by a
        // cycle 1→2→3→1 (no bridges). Node 0 has max out-degree 3.
        let g = InlineGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1)]);
        let site = PartitionStrategy::Paper.select(&g);
        let edge = g.edges().iter().find(|e| e.site == site).expect("the site's edge");
        assert_eq!(edge.from, NodeRef(0));
    }

    #[test]
    fn first_edge_picks_lowest_site() {
        assert_eq!(PartitionStrategy::FirstEdge.select(&fig5()), CallSiteId::new(0));
    }

    #[test]
    fn random_is_deterministic_per_seed_and_state() {
        let g = fig5();
        let a = PartitionStrategy::Random(42).select(&g);
        let b = PartitionStrategy::Random(42).select(&g);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "edgeless")]
    fn selecting_on_empty_graph_panics() {
        let g = InlineGraph::from_edges(2, &[]);
        PartitionStrategy::Paper.select(&g);
    }
}
