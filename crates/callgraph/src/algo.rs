//! Graph algorithms on [`InlineGraph`]s: connected components, bridge
//! groups, eccentricity, plus module-level SCCs in bottom-up order.

use crate::graph::{InlineGraph, NodeRef};
use optinline_ir::{CallSiteId, FuncId, Module};
use std::collections::{BTreeMap, BTreeSet};

/// Union–find over dense slot indices. `union(a, b)` hangs `a`'s root
/// under `b`'s, so the roots, and with them the order components come out
/// in, depend only on the sequence of unions.
#[derive(Debug, Default)]
struct Dsu {
    parent: Vec<u32>,
}

impl Dsu {
    fn new(slots: usize) -> Self {
        Dsu { parent: (0..slots as u32).collect() }
    }

    /// Makes every one of `slots` slots its own set.
    fn reset(&mut self, slots: usize) {
        self.parent.clear();
        self.parent.extend(0..slots as u32);
    }

    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        let mut cur = x;
        while cur != root {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    /// Joins the sets of `a` and `b`; `true` if they were apart.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb as u32;
        }
        ra != rb
    }
}

/// The per-slot value of a table entry not yet filled: an unreached BFS
/// slot, an eccentricity not yet computed, a slot in no component.
pub(crate) const UNSET: u32 = u32::MAX;

/// The successful unions of a union–find pass over `graph`'s live edges,
/// `skip`'s whole group left out.
fn unions(graph: &InlineGraph, skip: Option<CallSiteId>, dsu: &mut Dsu) -> usize {
    dsu.reset(graph.slot_count());
    graph
        .edges()
        .iter()
        .filter(|e| Some(e.site) != skip && dsu.union(e.from.index(), e.to.index()))
        .count()
}

/// Partitions a module's inlinable sites by undirected call-graph
/// component, in order of the components' union–find roots; components
/// without a site are left out. This is the input
/// `Autotuner::run_incremental` needs.
pub fn site_components(module: &Module) -> Vec<BTreeSet<CallSiteId>> {
    let graph = InlineGraph::from_module(module);
    let mut dsu = Dsu::default();
    unions(&graph, None, &mut dsu);
    let mut parts: BTreeMap<usize, BTreeSet<CallSiteId>> = BTreeMap::new();
    for e in graph.edges() {
        parts.entry(dsu.find(e.from.index())).or_default().insert(e.site);
    }
    parts.into_values().collect()
}

/// Number of undirected connected components.
pub fn component_count(graph: &InlineGraph) -> usize {
    graph.node_count() - unions(graph, None, &mut Dsu::default())
}

/// Partitions *all* of a module's functions into connected components of
/// the full call graph: every call edge counts, inlinable or not, taken
/// undirected. Functions without any call edges form singleton components.
///
/// This is deliberately coarser than [`site_components`], which only sees
/// inlinable edges: whole-module analyses such as dead-function
/// reachability and effect summaries propagate along *every* call edge, so
/// only this coarse partition guarantees that the `-Os` pipeline
/// distributes componentwise. The incremental evaluator in
/// `optinline-core` relies on exactly that guarantee.
pub fn coarse_components(module: &Module) -> Vec<BTreeSet<FuncId>> {
    let mut dsu = Dsu::new(module.func_count());
    for fid in module.func_ids() {
        // Union with every function a call instruction references: the
        // callee, and any `inline_path` provenance entries (an already
        // partially-inlined input references path functions it no longer
        // calls — those must still land in the same slice).
        for block in &module.func(fid).blocks {
            for inst in &block.insts {
                if let optinline_ir::Inst::Call { callee, inline_path, .. } = inst {
                    for &target in std::iter::once(callee).chain(inline_path) {
                        dsu.union(fid.index(), target.index());
                    }
                }
            }
        }
    }
    let mut groups: BTreeMap<usize, BTreeSet<FuncId>> = BTreeMap::new();
    for fid in module.func_ids() {
        groups.entry(dsu.find(fid.index())).or_default().insert(fid);
    }
    groups.into_values().collect()
}

/// Algorithm 2's split of a graph into independent inlining components
/// (§3.2): the subgraph induced by each undirected component that still
/// holds an undecided edge, in order of the components' union–find roots,
/// or `None` when fewer than two do. Edgeless components need no
/// exploration and are left out. Each part keeps the graph's slots.
pub fn inlining_components(graph: &InlineGraph) -> Option<Vec<InlineGraph>> {
    let slots = graph.slot_count();
    let mut dsu = Dsu::default();
    let joined = unions(graph, None, &mut dsu);
    // Every node of a component that holds an edge is an endpoint of one,
    // so those components number the endpoints less the unions.
    let mut part = vec![UNSET; slots];
    let mut endpoints = 0;
    for e in graph.edges() {
        for n in [e.from.index(), e.to.index()] {
            if part[n] == UNSET {
                part[n] = 0;
                endpoints += 1;
            }
        }
    }
    if endpoints - joined < 2 {
        return None;
    }
    let mut parts = 0;
    for (n, p) in part.iter_mut().enumerate() {
        if *p != UNSET && dsu.find(n) == n {
            *p = parts;
            parts += 1;
        }
    }
    for n in 0..slots {
        if part[n] != UNSET {
            part[n] = part[dsu.find(n)];
        }
    }
    Some(graph.split(&part, parts as usize))
}

/// Distinct undecided sites of `graph`, in id order.
pub(crate) fn sorted_sites(graph: &InlineGraph) -> Vec<CallSiteId> {
    let mut sites: Vec<CallSiteId> = graph.edges().iter().map(|e| e.site).collect();
    sites.sort_unstable();
    sites.dedup();
    sites
}

/// Returns the *bridge groups*: call sites whose group removal increases the
/// number of connected components.
///
/// This is the group-level generalization of a graph bridge (footnote 4 of
/// the paper): decisions apply to whole coupled groups, so partitioning must
/// too. For single-copy sites it coincides with the classical notion (a
/// parallel pair of distinct sites is not a bridge; a coupled pair acting as
/// the only link *is*).
pub fn bridge_groups(graph: &InlineGraph) -> Vec<CallSiteId> {
    // A group is a bridge group when the pass without it joins fewer sets
    // than the pass over every edge; every pass reuses one parent table.
    let mut dsu = Dsu::default();
    let all = unions(graph, None, &mut dsu);
    let mut sites = sorted_sites(graph);
    sites.retain(|&site| unions(graph, Some(site), &mut dsu) < all);
    sites
}

/// Undirected adjacency by node slot in CSR form, self-loops dropped and
/// parallel edges kept, with the buffers its BFS runs share. Slot `n`'s
/// neighbours are `adj[start[n]..start[n + 1]]`, in edge order.
#[derive(Debug)]
pub(crate) struct Adjacency {
    start: Vec<u32>,
    adj: Vec<u32>,
    /// Distance by slot from the last BFS's start, [`UNSET`] where it
    /// cannot reach, and the slots in the order that BFS reached them.
    dist: Vec<u32>,
    queue: Vec<u32>,
}

impl Adjacency {
    pub(crate) fn new(graph: &InlineGraph) -> Self {
        let slots = graph.slot_count();
        let links = || graph.edges().iter().filter(|e| e.from != e.to);
        let mut start = vec![0u32; slots + 1];
        for e in links() {
            start[e.from.index() + 1] += 1;
            start[e.to.index() + 1] += 1;
        }
        for n in 1..=slots {
            start[n] += start[n - 1];
        }
        let mut adj = vec![0; start[slots] as usize];
        // Each row is filled through its start, which leaves that start at
        // the next row's; moving the starts up one slot restores them.
        for e in links() {
            for (n, m) in [(e.from, e.to), (e.to, e.from)] {
                adj[start[n.index()] as usize] = m.0;
                start[n.index()] += 1;
            }
        }
        start.copy_within(0..slots, 1);
        start[0] = 0;
        Adjacency { start, adj, dist: vec![UNSET; slots], queue: Vec::new() }
    }

    /// A BFS from `from`, filling `dist` and `queue`.
    fn bfs(&mut self, from: NodeRef) {
        self.dist.fill(UNSET);
        self.dist[from.index()] = 0;
        self.queue.clear();
        self.queue.push(from.0);
        let mut head = 0;
        while let Some(&n) = self.queue.get(head) {
            head += 1;
            let n = n as usize;
            for &m in &self.adj[self.start[n] as usize..self.start[n + 1] as usize] {
                if self.dist[m as usize] == UNSET {
                    self.dist[m as usize] = self.dist[n] + 1;
                    self.queue.push(m);
                }
            }
        }
    }

    /// Eccentricity of `node`: the distance of the last node the BFS
    /// reaches.
    pub(crate) fn eccentricity(&mut self, node: NodeRef) -> u32 {
        self.bfs(node);
        self.queue.last().map_or(0, |&n| self.dist[n as usize])
    }
}

/// Strongly connected components of a module's static call graph, returned
/// in *bottom-up* order (callees before callers). This is the traversal
/// order LLVM's inliner uses and our baseline heuristic mirrors.
pub fn bottom_up_sccs(module: &Module) -> Vec<Vec<FuncId>> {
    // Iterative Tarjan.
    let n = module.func_count();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<FuncId>> = Vec::new();

    let succs: Vec<Vec<usize>> = module
        .iter_funcs()
        .map(|(_, f)| {
            let mut s: Vec<usize> =
                f.call_edges().into_iter().map(|(_, callee)| callee.index()).collect();
            s.sort_unstable();
            s.dedup();
            s
        })
        .collect();

    #[derive(Debug)]
    struct Frame {
        v: usize,
        succ_pos: usize,
    }

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut call_stack = vec![Frame { v: root, succ_pos: 0 }];
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;

        while let Some(frame) = call_stack.last_mut() {
            let v = frame.v;
            if frame.succ_pos < succs[v].len() {
                let w = succs[v][frame.succ_pos];
                frame.succ_pos += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call_stack.push(Frame { v: w, succ_pos: 0 });
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        on_stack[w] = false;
                        scc.push(FuncId::new(w as u32));
                        if w == v {
                            break;
                        }
                    }
                    scc.sort();
                    sccs.push(scc);
                }
                call_stack.pop();
                if let Some(parent) = call_stack.last() {
                    let pv = parent.v;
                    low[pv] = low[pv].min(low[v]);
                }
            }
        }
    }
    // Tarjan emits SCCs in reverse topological order of the condensation —
    // i.e. callees first — which is exactly bottom-up.
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Decision;
    use optinline_ir::{FuncBuilder, Linkage};

    /// Figure 5a: F→G, G→K, K→L, L→H, H→I. K→L is a bridge.
    fn fig5() -> InlineGraph {
        // 0=F 1=G 2=K 3=L 4=H 5=I
        InlineGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    }

    /// Figure 4: F→G, G→K | H→L (two components).
    fn fig4() -> InlineGraph {
        // 0=F 1=G 2=K 3=H 4=L
        InlineGraph::from_edges(5, &[(0, 1), (1, 2), (3, 4)])
    }

    #[test]
    fn fig4_has_two_components() {
        assert_eq!(component_count(&fig4()), 2);
        let parts = inlining_components(&fig4()).expect("both components hold an edge");
        let sizes: Vec<usize> = parts.iter().map(InlineGraph::node_count).collect();
        assert_eq!(sizes, [3, 2]);
    }

    #[test]
    fn inlining_components_leave_out_edgeless_components_and_keep_slots() {
        // Figure 4 plus an isolated node 5 and a self-loop on node 6.
        let g = InlineGraph::from_edges(7, &[(0, 1), (3, 4), (1, 2), (6, 6)]);
        let parts = inlining_components(&g).expect("three components hold an edge");
        let nodes: Vec<Vec<NodeRef>> = parts.iter().map(|p| p.live_nodes().collect()).collect();
        let n = |i: u32| NodeRef(i);
        assert_eq!(nodes, [vec![n(0), n(1), n(2)], vec![n(3), n(4)], vec![n(6)]]);
        let s = CallSiteId::new;
        assert_eq!(parts[0].live_edges(), [(s(0), n(0), n(1)), (s(2), n(1), n(2))]);
        assert_eq!(parts[1].live_edges(), [(s(1), n(3), n(4))]);
        assert_eq!(parts[2].live_edges(), [(s(3), n(6), n(6))]);
        assert!(parts.iter().all(|p| p.slot_count() == 7));
        // One component with edges is no split, however many are edgeless.
        let one = InlineGraph::from_edges(4, &[(0, 1), (1, 0)]);
        assert_eq!(inlining_components(&one), None);
    }

    #[test]
    fn chain_edges_are_all_bridges() {
        let bridges = bridge_groups(&fig5());
        assert_eq!(bridges.len(), 5);
    }

    #[test]
    fn cycle_has_no_bridges() {
        let g = InlineGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert!(bridge_groups(&g).is_empty());
    }

    #[test]
    fn parallel_distinct_sites_are_not_bridges() {
        // Two distinct calls A→B: removing either one leaves the other.
        let g = InlineGraph::from_edges(2, &[(0, 1), (0, 1)]);
        assert!(bridge_groups(&g).is_empty());
    }

    #[test]
    fn coupled_copies_act_as_one_bridge() {
        // A→B (s0), B→C (s1), D→B (s2). After inlining s0, group s1 has two
        // copies (B→C and A→C); removing the whole group disconnects C.
        let mut g = InlineGraph::from_edges(4, &[(0, 1), (1, 2), (3, 1)]);
        g.apply(CallSiteId::new(0), Decision::Inline);
        let bridges = bridge_groups(&g);
        assert!(bridges.contains(&CallSiteId::new(1)));
    }

    #[test]
    fn removing_a_bridge_splits_components() {
        let mut g = fig5();
        g.apply(CallSiteId::new(2), Decision::NoInline); // K→L
        assert_eq!(component_count(&g), 2);
    }

    #[test]
    fn bfs_and_eccentricity_on_chain() {
        let mut adj = Adjacency::new(&fig5());
        // Chain F-G-K-L-H-I: end nodes have eccentricity 5, middle 3.
        assert_eq!(adj.eccentricity(NodeRef(0)), 5);
        assert_eq!(adj.eccentricity(NodeRef(2)), 3);
        adj.bfs(NodeRef(0));
        assert_eq!(adj.dist, [0, 1, 2, 3, 4, 5]);
        assert_eq!(adj.queue, [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn sccs_come_out_bottom_up() {
        let mut m = Module::new("m");
        let c = m.declare_function("c", 0, Linkage::Internal);
        let b_ = m.declare_function("b", 0, Linkage::Internal);
        let a = m.declare_function("a", 0, Linkage::Public);
        {
            let mut bb = FuncBuilder::new(&mut m, c);
            bb.ret(None);
        }
        {
            let mut bb = FuncBuilder::new(&mut m, b_);
            bb.call_void(c, &[]);
            bb.ret(None);
        }
        {
            let mut bb = FuncBuilder::new(&mut m, a);
            bb.call_void(b_, &[]);
            bb.ret(None);
        }
        let sccs = bottom_up_sccs(&m);
        assert_eq!(sccs, vec![vec![c], vec![b_], vec![a]]);
    }

    #[test]
    fn mutually_recursive_functions_share_an_scc() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 0, Linkage::Internal);
        let g = m.declare_function("g", 0, Linkage::Internal);
        {
            let mut b = FuncBuilder::new(&mut m, f);
            b.call_void(g, &[]);
            b.ret(None);
        }
        {
            let mut b = FuncBuilder::new(&mut m, g);
            b.call_void(f, &[]);
            b.ret(None);
        }
        let sccs = bottom_up_sccs(&m);
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs[0], vec![f, g]);
    }

    #[test]
    fn coarse_components_follow_every_call_edge() {
        let mut m = Module::new("m");
        let x = m.declare_function("x", 0, Linkage::Internal);
        let y = m.declare_function("y", 0, Linkage::Internal);
        let lone = m.declare_function("lone", 0, Linkage::Internal);
        let main = m.declare_function("main", 0, Linkage::Public);
        for f in [x, y, lone] {
            let mut b = FuncBuilder::new(&mut m, f);
            b.ret(None);
        }
        // Make x opt out of inlining: the x↔main edge vanishes from the
        // InlineGraph but must still couple them coarsely.
        m.func_mut(x).inlinable = false;
        {
            let mut b = FuncBuilder::new(&mut m, main);
            b.call_void(x, &[]);
            b.call_void(y, &[]);
            b.ret(None);
        }
        let comps = coarse_components(&m);
        assert_eq!(comps.len(), 2);
        let of = |f: FuncId| comps.iter().position(|c| c.contains(&f)).unwrap();
        assert_eq!(of(x), of(main));
        assert_eq!(of(y), of(main));
        assert_ne!(of(lone), of(main));
        // Every function appears exactly once.
        assert_eq!(comps.iter().map(|c| c.len()).sum::<usize>(), 4);
    }

    #[test]
    fn site_components_group_sites_by_component() {
        // main calls x and y, main2 calls z: two components, one per caller.
        let mut m = Module::new("m");
        let callees: Vec<FuncId> =
            ["x", "y", "z"].map(|n| m.declare_function(n, 0, Linkage::Internal)).to_vec();
        for &f in &callees {
            FuncBuilder::new(&mut m, f).ret(None);
        }
        for (name, called) in [("main", &callees[..2]), ("main2", &callees[2..])] {
            let f = m.declare_function(name, 0, Linkage::Public);
            let mut b = FuncBuilder::new(&mut m, f);
            for &c in called {
                b.call_void(c, &[]);
            }
            b.ret(None);
        }
        let s = CallSiteId::new;
        assert_eq!(site_components(&m), [BTreeSet::from([s(0), s(1)]), BTreeSet::from([s(2)])]);
    }
}
