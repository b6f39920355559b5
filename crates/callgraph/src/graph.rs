//! The inlining multigraph: the abstract call graph the search operates on.
//!
//! Nodes start as the module's functions; edges are the *inlinable* call
//! sites. Applying a decision transforms the graph exactly as §2 of the
//! paper describes:
//!
//! - **no-inline** — every edge of the site's group is deleted (the call
//!   still exists in the program, but optimization scopes never merge across
//!   it, so for search-space purposes it is gone);
//! - **inline** — each edge `A → B` of the group merges `B`'s optimization
//!   scope into `A`: if `B` has other callers a *clone* is merged (`A`
//!   receives copies of `B`'s out-edges, coupled by site id), otherwise `B`
//!   itself is merged into `A`.
//!
//! Edges carry [`CallSiteId`]s; all edges with the same id form a *group*
//! that shares one decision (coupled copies).

use crate::algo::UNSET;
use optinline_ir::{CallSiteId, Module};

/// A node handle in an [`InlineGraph`]. Handles are stable: nodes are
/// tombstoned on merge, never reindexed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeRef(pub(crate) u32);

impl NodeRef {
    /// Raw slot index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Inline/no-inline label for one call site (§2's two choices).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Decision {
    /// Replace the call(s) with the callee's body.
    Inline,
    /// Keep the call(s); never consider them again.
    NoInline,
}

impl Decision {
    /// The opposite label.
    pub fn flipped(self) -> Decision {
        match self {
            Decision::Inline => Decision::NoInline,
            Decision::NoInline => Decision::Inline,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Edge {
    pub(crate) site: CallSiteId,
    pub(crate) from: NodeRef,
    pub(crate) to: NodeRef,
}

/// The endpoints [`InlineGraph::apply`] gives an edge it has inlined until
/// it drops the edge's whole group: no slot has this index.
const CONSUMED: NodeRef = NodeRef(u32::MAX);

/// The abstract inlining multigraph (see module docs).
///
/// A node is only a liveness flag: merging `B` into `A` clears `B`'s, and
/// slots are never reused. The edge list holds only live edges, compact and
/// in creation order, which every algorithm reads; that order fixes the
/// union–find roots and with them the order components come out in.
#[derive(Debug, PartialEq, Eq)]
pub struct InlineGraph {
    live: Vec<bool>,
    edges: Vec<Edge>,
}

impl Clone for InlineGraph {
    fn clone(&self) -> Self {
        InlineGraph { live: self.live.clone(), edges: self.edges.clone() }
    }

    /// Copies `source` into this graph's buffers, so a tree node's second
    /// child reuses its first child's allocations.
    fn clone_from(&mut self, source: &Self) {
        self.live.clone_from(&source.live);
        self.edges.clone_from(&source.edges);
    }
}

impl InlineGraph {
    /// Builds the graph from a module: one node per function, one edge per
    /// call instruction whose callee is inlinable.
    pub fn from_module(module: &Module) -> Self {
        let live = vec![true; module.func_count()];
        let mut edges = Vec::new();
        for (caller, f) in module.iter_funcs() {
            for (site, callee) in f.call_edges() {
                if module.func(callee).inlinable {
                    edges.push(Edge {
                        site,
                        from: NodeRef(caller.as_u32()),
                        to: NodeRef(callee.as_u32()),
                    });
                }
            }
        }
        InlineGraph { live, edges }
    }

    /// Builds a graph directly from `(caller, callee)` pairs over `n` nodes,
    /// minting one single-edge group per pair. Used by tests and synthetic
    /// studies that don't need IR bodies.
    pub fn from_edges(n: usize, pairs: &[(u32, u32)]) -> Self {
        let edges = pairs
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                assert!(
                    (a as usize) < n && (b as usize) < n,
                    "edge ({a},{b}) out of range for {n} nodes"
                );
                Edge { site: CallSiteId::new(i as u32), from: NodeRef(a), to: NodeRef(b) }
            })
            .collect();
        InlineGraph { live: vec![true; n], edges }
    }

    /// Live node handles.
    pub(crate) fn live_nodes(&self) -> impl Iterator<Item = NodeRef> + '_ {
        self.live.iter().enumerate().filter(|&(_, &live)| live).map(|(i, _)| NodeRef(i as u32))
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.live.iter().filter(|&&live| live).count()
    }

    /// Number of live edges (copies counted individually).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Live `(site, from, to)` triples.
    pub fn live_edges(&self) -> Vec<(CallSiteId, NodeRef, NodeRef)> {
        self.edges.iter().map(|e| (e.site, e.from, e.to)).collect()
    }

    /// The live edges, in the order every algorithm reads them.
    pub(crate) fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Node slots, live or tombstoned: one past the largest
    /// [`NodeRef::index`].
    pub(crate) fn slot_count(&self) -> usize {
        self.live.len()
    }

    /// Applies a decision to a site's whole group (see module docs).
    ///
    /// # Panics
    ///
    /// Panics if the site has no live edges.
    pub fn apply(&mut self, site: CallSiteId, decision: Decision) {
        assert!(self.edges.iter().any(|e| e.site == site), "site {site} has no live edges");
        if decision == Decision::Inline {
            // Only the group's edges that exist now; the copies minted
            // while cloning land past them.
            for i in 0..self.edges.len() {
                if self.edges[i].site == site {
                    self.inline_one(i);
                }
            }
        }
        // Either way the group goes. After inlining that includes the
        // copies of this site minted while cloning out-edges: the abstract
        // graph expands each scope once, matching the depth-1
        // recursive-inlining bound (§3.2).
        self.edges.retain(|e| e.site != site);
    }

    fn inline_one(&mut self, index: usize) {
        let Edge { from: a, to: b, .. } = self.edges[index];
        self.edges[index].from = CONSUMED;
        self.edges[index].to = CONSUMED;
        if a == b {
            // Self-recursive call: consuming the edge models "inline once".
            return;
        }
        let b_has_other_callers = self.edges.iter().any(|e| e.to == b);
        if b_has_other_callers {
            // Clone B into A: A receives coupled copies of B's out-edges.
            for i in 0..self.edges.len() {
                let e = self.edges[i];
                if e.from == b {
                    let to = if e.to == b { a } else { e.to };
                    self.edges.push(Edge { site: e.site, from: a, to });
                }
            }
        } else {
            // Merge B into A outright.
            for e in &mut self.edges {
                if e.from == b {
                    e.from = a;
                }
                if e.to == b {
                    e.to = a;
                }
            }
            self.live[b.index()] = false;
        }
    }

    /// Splits the graph into one graph per part: slot `n` goes to part
    /// `part_of[n]`, or to none where that is [`UNSET`], and each edge to
    /// its caller's part. Every part keeps all the slots, live only where
    /// assigned, and its edges in this graph's order.
    pub(crate) fn split(&self, part_of: &[u32], parts: usize) -> Vec<InlineGraph> {
        let slots = self.slot_count();
        let mut out: Vec<InlineGraph> = (0..parts)
            .map(|_| InlineGraph { live: vec![false; slots], edges: Vec::new() })
            .collect();
        for (n, &part) in part_of.iter().enumerate() {
            if part != UNSET {
                out[part as usize].live[n] = true;
            }
        }
        for e in &self.edges {
            out[part_of[e.from.index()] as usize].edges.push(*e);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_ir::{FuncBuilder, Linkage};
    use std::collections::BTreeSet;

    /// The Figure 2 call graph: A→B, B→C, D→B.
    fn fig2() -> InlineGraph {
        // Nodes: 0=A, 1=B, 2=C, 3=D.
        InlineGraph::from_edges(4, &[(0, 1), (1, 2), (3, 1)])
    }

    #[test]
    fn from_module_skips_non_inlinable_callees() {
        let mut m = Module::new("m");
        let ext = m.declare_function("ext", 0, Linkage::Public);
        m.func_mut(ext).inlinable = false;
        let inl = m.declare_function("inl", 0, Linkage::Internal);
        let main = m.declare_function("main", 0, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, inl);
            b.ret(None);
        }
        {
            let mut b = FuncBuilder::new(&mut m, main);
            b.call_void(ext, &[]);
            b.call_void(inl, &[]);
            b.ret(None);
        }
        let g = InlineGraph::from_module(&m);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn no_inline_deletes_the_group() {
        let mut g = fig2();
        g.apply(CallSiteId::new(0), Decision::NoInline);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.node_count(), 4);
        let sites: BTreeSet<CallSiteId> = g.live_edges().iter().map(|e| e.0).collect();
        assert_eq!(sites.len(), 2);
    }

    #[test]
    fn inline_with_other_callers_clones_per_figure_2c() {
        let mut g = fig2();
        // Inline A→B. B has another caller (D), so B survives and A gets a
        // coupled copy of B→C.
        g.apply(CallSiteId::new(0), Decision::Inline);
        assert_eq!(g.node_count(), 4);
        // Edges now: B→C (s1), D→B (s2), AB→C (s1 copy).
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.edges().iter().filter(|e| e.site == CallSiteId::new(1)).count(), 2);
        // A's scope includes B: it holds the copy of B's call to C.
        assert!(g.live_edges().contains(&(CallSiteId::new(1), NodeRef(0), NodeRef(2))));
    }

    #[test]
    fn inline_sole_caller_merges_nodes() {
        // A→B only; B→C.
        let mut g = InlineGraph::from_edges(3, &[(0, 1), (1, 2)]);
        g.apply(CallSiteId::new(0), Decision::Inline);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        // The surviving edge now runs from the merged node.
        let edges = g.live_edges();
        assert_eq!(edges[0].1, NodeRef(0));
        assert_eq!(edges[0].2, NodeRef(2));
    }

    #[test]
    fn self_loop_inline_consumes_edge() {
        let mut g = InlineGraph::from_edges(1, &[(0, 0)]);
        g.apply(CallSiteId::new(0), Decision::Inline);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn coupled_group_inline_consumes_all_copies() {
        let mut g = fig2();
        g.apply(CallSiteId::new(0), Decision::Inline);
        // Group s1 now has two copies: B→C and A→C. Inline them together.
        g.apply(CallSiteId::new(1), Decision::Inline);
        assert!(g.edges().iter().all(|e| e.site != CallSiteId::new(1)));
        // D→B remains.
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn induced_subgraph_keeps_canonical_identity() {
        // Splitting out a component and deciding the other component's
        // edges to nothing first must agree on the shared slots.
        let g = InlineGraph::from_edges(5, &[(0, 1), (2, 3), (3, 4)]);
        let part_of = [0, 0, 1, 1, 1];
        let mut decided = g.clone();
        decided.apply(CallSiteId::new(1), Decision::NoInline);
        decided.apply(CallSiteId::new(2), Decision::NoInline);
        let (direct, after) = (&g.split(&part_of, 2)[0], &decided.split(&part_of, 2)[0]);
        assert_eq!(direct.live_edges(), after.live_edges());
        assert_eq!(direct.live_edges(), [(CallSiteId::new(0), NodeRef(0), NodeRef(1))]);
        assert_eq!((direct.slot_count(), after.slot_count()), (5, 5));
        assert_eq!(direct, after, "liveness must agree on the shared component");
    }

    #[test]
    fn mutual_recursion_terminates() {
        let mut g = InlineGraph::from_edges(2, &[(0, 1), (1, 0)]);
        g.apply(CallSiteId::new(0), Decision::Inline);
        g.apply(CallSiteId::new(1), Decision::Inline);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn decision_flipped_is_involutive() {
        assert_eq!(Decision::Inline.flipped(), Decision::NoInline);
        assert_eq!(Decision::NoInline.flipped().flipped(), Decision::NoInline);
    }
}
