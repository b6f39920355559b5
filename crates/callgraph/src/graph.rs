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

use optinline_ir::{CallSiteId, FuncId, Module};
use std::collections::BTreeSet;

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

#[derive(Clone, Debug, PartialEq, Eq)]
struct Node {
    /// Original functions merged into this scope (display/debug only).
    members: Vec<FuncId>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Edge {
    site: CallSiteId,
    from: NodeRef,
    to: NodeRef,
}

/// The abstract inlining multigraph (see module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InlineGraph {
    nodes: Vec<Option<Node>>,
    edges: Vec<Option<Edge>>,
}

impl InlineGraph {
    /// Builds the graph from a module: one node per function, one edge per
    /// call instruction whose callee is inlinable.
    pub fn from_module(module: &Module) -> Self {
        let nodes =
            module.iter_funcs().map(|(id, _)| Some(Node { members: vec![id] })).collect::<Vec<_>>();
        let mut edges = Vec::new();
        for (caller, f) in module.iter_funcs() {
            for (site, callee) in f.call_edges() {
                if module.func(callee).inlinable {
                    edges.push(Some(Edge {
                        site,
                        from: NodeRef(caller.as_u32()),
                        to: NodeRef(callee.as_u32()),
                    }));
                }
            }
        }
        InlineGraph { nodes, edges }
    }

    /// Builds a graph directly from `(caller, callee)` pairs over `n` nodes,
    /// minting one single-edge group per pair. Used by tests and synthetic
    /// studies that don't need IR bodies.
    pub fn from_edges(n: usize, pairs: &[(u32, u32)]) -> Self {
        let nodes = (0..n).map(|i| Some(Node { members: vec![FuncId::new(i as u32)] })).collect();
        let edges = pairs
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                assert!(
                    (a as usize) < n && (b as usize) < n,
                    "edge ({a},{b}) out of range for {n} nodes"
                );
                Some(Edge { site: CallSiteId::new(i as u32), from: NodeRef(a), to: NodeRef(b) })
            })
            .collect();
        InlineGraph { nodes, edges }
    }

    /// Live node handles.
    pub fn node_refs(&self) -> Vec<NodeRef> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|_| NodeRef(i as u32)))
            .collect()
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Number of live edges (copies counted individually).
    pub fn edge_count(&self) -> usize {
        self.edges.iter().filter(|e| e.is_some()).count()
    }

    /// The original functions merged into `node`.
    pub fn members(&self, node: NodeRef) -> &[FuncId] {
        &self.nodes[node.index()].as_ref().expect("live node").members
    }

    /// Distinct undecided call sites (edge groups), in id order.
    pub fn undecided_sites(&self) -> BTreeSet<CallSiteId> {
        self.edges.iter().flatten().map(|e| e.site).collect()
    }

    /// Number of distinct undecided sites.
    pub fn group_count(&self) -> usize {
        self.undecided_sites().len()
    }

    /// Live `(site, from, to)` triples.
    pub fn live_edges(&self) -> Vec<(CallSiteId, NodeRef, NodeRef)> {
        self.iter_edges().collect()
    }

    /// [`live_edges`](Self::live_edges) without collecting them.
    pub(crate) fn iter_edges(&self) -> impl Iterator<Item = (CallSiteId, NodeRef, NodeRef)> + '_ {
        self.edges.iter().flatten().map(|e| (e.site, e.from, e.to))
    }

    /// Node slots, live or tombstoned: one past the largest
    /// [`NodeRef::index`].
    pub(crate) fn slot_count(&self) -> usize {
        self.nodes.len()
    }

    /// Endpoints of every live edge in `site`'s group.
    pub fn group_edges(&self, site: CallSiteId) -> Vec<(NodeRef, NodeRef)> {
        self.edges.iter().flatten().filter(|e| e.site == site).map(|e| (e.from, e.to)).collect()
    }

    fn in_edges(&self, node: NodeRef) -> Vec<usize> {
        self.edges
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                Some(e) if e.to == node => Some(i),
                _ => None,
            })
            .collect()
    }

    fn out_edge_indices(&self, node: NodeRef) -> Vec<usize> {
        self.edges
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                Some(e) if e.from == node => Some(i),
                _ => None,
            })
            .collect()
    }

    /// Applies a decision to a site's whole group (see module docs).
    ///
    /// # Panics
    ///
    /// Panics if the site has no live edges.
    pub fn apply(&mut self, site: CallSiteId, decision: Decision) {
        let group: Vec<usize> = self
            .edges
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                Some(e) if e.site == site => Some(i),
                _ => None,
            })
            .collect();
        assert!(!group.is_empty(), "site {site} has no live edges");
        match decision {
            Decision::NoInline => {
                for i in group {
                    self.edges[i] = None;
                }
            }
            Decision::Inline => {
                for i in group {
                    // A copy may have been consumed by an earlier merge in
                    // this same group; re-read it.
                    let Some(edge) = self.edges[i] else { continue };
                    self.inline_one(i, edge);
                }
                // Any copies of this site minted while cloning out-edges are
                // dropped: the abstract graph expands each scope once,
                // matching the depth-1 recursive-inlining bound (§3.2).
                for e in self.edges.iter_mut() {
                    if matches!(e, Some(e) if e.site == site) {
                        *e = None;
                    }
                }
            }
        }
    }

    fn inline_one(&mut self, index: usize, edge: Edge) {
        self.edges[index] = None;
        let (a, b) = (edge.from, edge.to);
        if a == b {
            // Self-recursive call: consuming the edge models "inline once".
            return;
        }
        let b_has_other_callers = !self.in_edges(b).is_empty();
        if b_has_other_callers {
            // Clone B into A: A receives coupled copies of B's out-edges.
            let copies: Vec<Edge> = self
                .out_edge_indices(b)
                .into_iter()
                .map(|i| self.edges[i].expect("live edge"))
                .map(|e| Edge { site: e.site, from: a, to: if e.to == b { a } else { e.to } })
                .collect();
            let b_members = self.nodes[b.index()].as_ref().expect("live node").members.clone();
            self.edges.extend(copies.into_iter().map(Some));
            let a_node = self.nodes[a.index()].as_mut().expect("live node");
            for m in b_members {
                if !a_node.members.contains(&m) {
                    a_node.members.push(m);
                }
            }
        } else {
            // Merge B into A outright.
            for i in self.out_edge_indices(b) {
                let e = self.edges[i].as_mut().expect("live edge");
                e.from = a;
                if e.to == b {
                    e.to = a;
                }
            }
            for i in self.in_edges(b) {
                let e = self.edges[i].as_mut().expect("live edge");
                e.to = a;
            }
            let b_node = self.nodes[b.index()].take().expect("live node");
            let a_node = self.nodes[a.index()].as_mut().expect("live node");
            for m in b_node.members {
                if !a_node.members.contains(&m) {
                    a_node.members.push(m);
                }
            }
        }
    }

    /// The induced subgraph on `nodes`: same slot indices, with everything
    /// outside `nodes` tombstoned. Edges are kept only when both endpoints
    /// survive (edges never straddle components, so component-wise
    /// extraction loses nothing).
    pub fn induced(&self, nodes: &std::collections::BTreeSet<NodeRef>) -> InlineGraph {
        let kept_nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| if nodes.contains(&NodeRef(i as u32)) { n.clone() } else { None })
            .collect();
        let kept_edges = self
            .edges
            .iter()
            .map(|e| match e {
                Some(e) if nodes.contains(&e.from) && nodes.contains(&e.to) => Some(*e),
                _ => None,
            })
            .collect();
        InlineGraph { nodes: kept_nodes, edges: kept_edges }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_ir::{FuncBuilder, Linkage};

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
        assert_eq!(g.undecided_sites().len(), 2);
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
        assert_eq!(g.group_edges(CallSiteId::new(1)).len(), 2);
        // A's scope includes B.
        let a = NodeRef(0);
        assert_eq!(g.members(a), &[FuncId::new(0), FuncId::new(1)]);
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
        assert!(g.group_edges(CallSiteId::new(1)).is_empty());
        // D→B remains.
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn mutual_recursion_terminates() {
        let mut g = InlineGraph::from_edges(2, &[(0, 1), (1, 0)]);
        g.apply(CallSiteId::new(0), Decision::Inline);
        g.apply(CallSiteId::new(1), Decision::Inline);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn induced_subgraph_keeps_canonical_identity() {
        // Extracting a component and deciding the other component's edges
        // to nothing must agree on the shared slots.
        let g = InlineGraph::from_edges(5, &[(0, 1), (2, 3), (3, 4)]);
        let comp: BTreeSet<NodeRef> = [NodeRef(0), NodeRef(1)].into_iter().collect();
        let induced = g.induced(&comp);
        let mut decided = g.clone();
        decided.apply(CallSiteId::new(1), Decision::NoInline);
        decided.apply(CallSiteId::new(2), Decision::NoInline);
        let wider: BTreeSet<NodeRef> = comp.clone();
        // The induced half of `decided` matches the directly induced graph.
        assert_eq!(
            decided.induced(&wider).live_edges(),
            induced.live_edges(),
            "edge sets must agree on the shared component"
        );
    }

    #[test]
    fn decision_flipped_is_involutive() {
        assert_eq!(Decision::Inline.flipped(), Decision::NoInline);
        assert_eq!(Decision::NoInline.flipped().flipped(), Decision::NoInline);
    }
}
