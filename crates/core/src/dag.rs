//! The task-DAG search executor: Algorithm 1 as an explicit dependency
//! graph instead of a recursive walk.
//!
//! [`evaluate_inlining_tree`](crate::tree::evaluate_inlining_tree) recurses
//! down an [`InliningTree`], which serializes sibling subtrees unless the
//! recursion explicitly forks, and re-derives identical subproblems from
//! scratch on every invocation. This module flattens the tree into tasks —
//! leaf compiles, binary combines, components combines — wired by explicit
//! dependency edges, and drives the ready set over per-worker deques with
//! work stealing on the existing [`WorkerPool`]:
//!
//! - **Determinism.** A `Binary` node resolves from its *recorded* child
//!   results (prefer `not_inlined` when `size_no <= size_yes`, Algorithm 1
//!   line 8), never from completion order; a `Components` node merges child
//!   configurations in child order. The result is byte-identical to the
//!   sequential walk at any worker count — the parallel-search oracle in
//!   `optinline-check` asserts exactly that.
//! - **Work stealing.** Each driver owns a deque: own-lane pops are LIFO
//!   (depth-first, cache-warm), steals are FIFO from the victim's cold end.
//!   Completing a task decrements its parent's pending count; the driver
//!   that completes the last child pushes the parent onto its own lane.
//! - **Hash-consing.** Every subtree task carries a canonical subproblem
//!   key — the evaluator's domain scope ([`Evaluator::memo_scope`]), a
//!   stable 128-bit fingerprint of the subtree's induced shape and
//!   decided-edge labeling (including the base's explicit decisions on the
//!   subtree's own partition sites), and the canonical (inlined-site)
//!   identity of the base configuration on its path. A [`SearchSession`]
//!   memoizes finished subproblems on that key, so structurally identical
//!   subtrees across rounds, strategy ablations, and autotuner restarts
//!   collapse to constant tasks instead of re-evaluating. The scope makes
//!   a session safe to share across *different modules* — site ids are
//!   minted densely per module, so two modules' trees can collide on shape
//!   and numbering alone; evaluators that cannot name their domain
//!   (`memo_scope() == None`) simply skip session memoization. Warm hits
//!   replay the memoized subtree decisions onto the caller's own base, so
//!   even a session-warm result stays byte-identical to the sequential
//!   walk. (Within one cold tree every path carries a distinct decision
//!   set, so dedup hits measure *cross*-evaluation sharing — the
//!   equality-saturation-style reuse the session exists for.)
//!
//! The executor is a scheduling layer only: every size number still comes
//! from the [`Evaluator`], with all its memoization intact.

use crate::config::InliningConfiguration;
use crate::evaluator::Evaluator;
use crate::pool::WorkerPool;
use crate::tree::InliningTree;
use optinline_callgraph::{Decision, Fnv128};
use optinline_ir::CallSiteId;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Counters the executor reports after a run (see
/// [`EvaluatorStats`](crate::EvaluatorStats) for the merged surface).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Tasks materialized in the DAG (dedup-elided subtrees count once, as
    /// their constant task).
    pub tasks: u64,
    /// Tasks executed from another lane's deque (work stealing).
    pub steals: u64,
    /// Subproblems resolved from the session's hash-cons table instead of
    /// being evaluated.
    pub dedup_hits: u64,
}

/// The canonical identity of a subproblem: the evaluator's domain scope
/// ([`Evaluator::memo_scope`]), the subtree's structural fingerprint, and
/// the canonical (inlined-site) identity of the base configuration
/// accumulated on the path to it.
type SubKey = (u128, u128, Vec<CallSiteId>);

/// Cross-evaluation memoization shared by DAG runs: finished subproblems
/// keyed by their canonical identity, plus cumulative executor counters.
///
/// One session spans as many [`evaluate_inlining_tree_dag`] calls as the
/// caller likes — autotuner restarts, repeated rounds, strategy ablations,
/// even different modules (the experiment harness shares one session
/// across a whole suite): keys carry the evaluator's
/// [`memo_scope`](Evaluator::memo_scope), so domains never alias.
/// Identical subproblems (same domain, same residual search structure,
/// same canonical base) are evaluated once per session.
#[derive(Debug, Default)]
pub struct SearchSession {
    memo: Mutex<HashMap<SubKey, (InliningConfiguration, u64)>>,
    tasks: AtomicU64,
    steals: AtomicU64,
    dedup_hits: AtomicU64,
}

impl SearchSession {
    /// An empty session.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative counters across every run this session drove.
    pub fn stats(&self) -> ExecutorStats {
        ExecutorStats {
            tasks: self.tasks.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
        }
    }

    /// Number of memoized subproblems.
    pub fn memo_len(&self) -> usize {
        self.memo.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    fn lookup(&self, key: &SubKey) -> Option<(InliningConfiguration, u64)> {
        self.memo.lock().unwrap_or_else(std::sync::PoisonError::into_inner).get(key).cloned()
    }

    fn record(&self, key: SubKey, result: (InliningConfiguration, u64)) {
        self.memo.lock().unwrap_or_else(std::sync::PoisonError::into_inner).insert(key, result);
    }
}

/// The structural fingerprint of a subproblem: a stable 128-bit digest
/// over the subtree's exact shape and site labels, plus the base
/// configuration's *explicit* decision (if any) on each of the subtree's
/// own partition sites. Subtrees are built from residual call graphs, so
/// equal fingerprints mean equal induced subgraphs *and* equal
/// partition-edge labelings — the concrete identity hash-consing needs
/// (shape-isomorphic subtrees over different sites must not collide).
/// Folding in the base's decisions on subtree sites keeps [`replay`]
/// exact: two bases in the same key class agree explicitly on every site
/// the memoized result may have committed.
fn tree_fingerprint(tree: &InliningTree, base: &InliningConfiguration) -> u128 {
    fn absorb(tree: &InliningTree, base: &InliningConfiguration, h: &mut Fnv128) {
        match tree {
            InliningTree::Leaf => h.write_u8(0),
            InliningTree::Binary { site, not_inlined, inlined } => {
                h.write_u8(1);
                h.write_u32(site.as_u32());
                h.write_u8(match base.decisions().get(site) {
                    None => 0,
                    Some(Decision::NoInline) => 1,
                    Some(Decision::Inline) => 2,
                });
                absorb(not_inlined, base, h);
                absorb(inlined, base, h);
            }
            InliningTree::Components(children) => {
                h.write_u8(2);
                h.write_u32(children.len() as u32);
                for c in children {
                    absorb(c, base, h);
                }
            }
        }
    }
    let mut h = Fnv128::new();
    absorb(tree, base, &mut h);
    h.finish()
}

fn subproblem_key(tree: &InliningTree, base: &InliningConfiguration, scope: u128) -> SubKey {
    (scope, tree_fingerprint(tree, base), base.inlined_sites().into_iter().collect())
}

/// Rebuilds, from a memoized result, the exact configuration the
/// sequential walk would return for `base`: start from the caller's own
/// base and replay the explicit decisions the memoized run committed on
/// the subtree's partition sites. The memoized configuration may carry
/// entries from *its* recording base (ancestor `NoInline` decisions,
/// foreign sites) that the caller's base never mentions — those stay out;
/// entries the caller's base carries stay in. The subproblem key
/// guarantees both bases agree explicitly on the subtree's own sites, so
/// the replayed configuration is byte-identical to a fresh evaluation.
fn replay(
    tree: &InliningTree,
    memoized: &InliningConfiguration,
    mut base: InliningConfiguration,
) -> InliningConfiguration {
    fn walk(
        tree: &InliningTree,
        memoized: &InliningConfiguration,
        out: &mut InliningConfiguration,
    ) {
        match tree {
            InliningTree::Leaf => {}
            InliningTree::Binary { site, not_inlined, inlined } => {
                if let Some(&d) = memoized.decisions().get(site) {
                    out.set(*site, d);
                }
                walk(not_inlined, memoized, out);
                walk(inlined, memoized, out);
            }
            InliningTree::Components(children) => {
                for c in children {
                    walk(c, memoized, out);
                }
            }
        }
    }
    walk(tree, memoized, &mut base);
    base
}

/// What a task computes once its dependencies are settled.
enum TaskKind {
    /// Evaluate the base configuration as-is.
    Leaf { base: InliningConfiguration },
    /// Pick the smaller child, preferring `not_inlined` on ties
    /// (children: `[not_inlined, inlined]`).
    Binary,
    /// Merge all child configurations into `base` (child order) and
    /// evaluate the merged configuration.
    Combine { base: InliningConfiguration },
    /// Result known up front (session hash-cons hit).
    Const { result: (InliningConfiguration, u64) },
}

struct Task {
    kind: TaskKind,
    /// Dependency task ids, in deterministic child order.
    children: Vec<usize>,
    parent: Option<usize>,
    /// Unresolved dependencies; the task is ready at zero.
    pending: AtomicUsize,
    result: OnceLock<(InliningConfiguration, u64)>,
    /// Record the finished result under this key in the session.
    key: Option<SubKey>,
}

/// Flattens `tree` into `tasks`, returning the root task id. `session`
/// short-circuits known subproblems into [`TaskKind::Const`] tasks;
/// `scope` is the evaluator's memo scope (`None` disables memoization —
/// the session then only accumulates counters).
fn flatten(
    tree: &InliningTree,
    base: InliningConfiguration,
    parent: Option<usize>,
    tasks: &mut Vec<Task>,
    session: Option<&SearchSession>,
    scope: Option<u128>,
    dedup_hits: &mut u64,
) -> usize {
    let key = match (session, scope) {
        (Some(_), Some(sc)) => Some(subproblem_key(tree, &base, sc)),
        _ => None,
    };
    if let (Some(s), Some(k)) = (session, key.as_ref()) {
        if let Some((memo_cfg, size)) = s.lookup(k) {
            *dedup_hits += 1;
            let id = tasks.len();
            tasks.push(Task {
                kind: TaskKind::Const { result: (replay(tree, &memo_cfg, base), size) },
                children: Vec::new(),
                parent,
                pending: AtomicUsize::new(0),
                result: OnceLock::new(),
                key: None,
            });
            return id;
        }
    }
    let id = tasks.len();
    // Reserve the slot first so children can name their parent.
    tasks.push(Task {
        kind: TaskKind::Const { result: (InliningConfiguration::clean_slate(), 0) },
        children: Vec::new(),
        parent,
        pending: AtomicUsize::new(0),
        result: OnceLock::new(),
        key,
    });
    match tree {
        InliningTree::Leaf => {
            tasks[id].kind = TaskKind::Leaf { base };
        }
        InliningTree::Binary { site, not_inlined, inlined } => {
            let base_no = base.clone().with(*site, Decision::NoInline);
            let base_in = base.with(*site, Decision::Inline);
            let no = flatten(not_inlined, base_no, Some(id), tasks, session, scope, dedup_hits);
            let yes = flatten(inlined, base_in, Some(id), tasks, session, scope, dedup_hits);
            tasks[id].kind = TaskKind::Binary;
            tasks[id].children = vec![no, yes];
            tasks[id].pending = AtomicUsize::new(2);
        }
        InliningTree::Components(children) => {
            let ids: Vec<usize> = children
                .iter()
                .map(|c| flatten(c, base.clone(), Some(id), tasks, session, scope, dedup_hits))
                .collect();
            let n = ids.len();
            tasks[id].kind = TaskKind::Combine { base };
            tasks[id].children = ids;
            tasks[id].pending = AtomicUsize::new(n);
        }
    }
    id
}

/// Everything the lane drivers share during one run.
struct Run<'a> {
    tasks: &'a [Task],
    lanes: Vec<Mutex<VecDeque<usize>>>,
    evaluator: &'a dyn Evaluator,
    completed: AtomicUsize,
    steals: AtomicU64,
    aborted: AtomicBool,
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
    session: Option<&'a SearchSession>,
}

impl Run<'_> {
    fn execute(&self, id: usize) {
        // Checkpoint here, not in `drive`: the unwind is caught per-task
        // and converted into the abort flag, so every lane exits before
        // the panic resurfaces at the call site.
        optinline_ir::cancel::checkpoint();
        let task = &self.tasks[id];
        let child = |i: usize| {
            self.tasks[task.children[i]].result.get().expect("dependency settled before parent")
        };
        let result = match &task.kind {
            TaskKind::Const { result } => result.clone(),
            TaskKind::Leaf { base } => {
                let size = self.evaluator.size_of(base);
                (base.clone(), size)
            }
            TaskKind::Binary => {
                // Resolve from recorded results, preferring `not_inlined`
                // on ties — identical to Algorithm 1's sequential rule,
                // independent of which child finished first.
                let (c_no, s_no) = child(0);
                let (c_in, s_in) = child(1);
                if s_no <= s_in {
                    (c_no.clone(), *s_no)
                } else {
                    (c_in.clone(), *s_in)
                }
            }
            TaskKind::Combine { base } => {
                let mut merged = base.clone();
                for i in 0..task.children.len() {
                    merged.merge(&child(i).0);
                }
                let size = self.evaluator.size_of(&merged);
                (merged, size)
            }
        };
        if let (Some(session), Some(key)) = (self.session, &task.key) {
            session.record(key.clone(), result.clone());
        }
        task.result.set(result).expect("each task executes exactly once");
    }

    /// Completes `id`: publishes the result, then readies the parent if
    /// this was its last unsettled dependency. The result store above
    /// happens-before the `AcqRel` decrement, so a parent that observes
    /// zero pending sees every child's result.
    fn settle(&self, id: usize, lane: &Mutex<VecDeque<usize>>) {
        if let Some(parent) = self.tasks[id].parent {
            if self.tasks[parent].pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                lane.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push_back(parent);
            }
        }
        self.completed.fetch_add(1, Ordering::Release);
    }

    /// Claims a task: own lane LIFO first (depth-first, cache-warm), then
    /// FIFO steals from the other lanes' cold ends.
    fn claim(&self, own: usize) -> Option<usize> {
        if let Some(id) =
            self.lanes[own].lock().unwrap_or_else(std::sync::PoisonError::into_inner).pop_back()
        {
            return Some(id);
        }
        let n = self.lanes.len();
        for off in 1..n {
            let victim = (own + off) % n;
            let stolen = self.lanes[victim]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .pop_front();
            if let Some(id) = stolen {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(id);
            }
        }
        None
    }

    fn drive(&self, own: usize) {
        while self.completed.load(Ordering::Acquire) < self.tasks.len() {
            if self.aborted.load(Ordering::Acquire) {
                return;
            }
            match self.claim(own) {
                Some(id) => {
                    let ok = catch_unwind(AssertUnwindSafe(|| self.execute(id))).map_err(|p| {
                        self.panic
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .get_or_insert(p);
                        self.aborted.store(true, Ordering::Release);
                    });
                    if ok.is_err() {
                        return;
                    }
                    self.settle(id, &self.lanes[own]);
                }
                // Every unfinished DAG has a ready or in-flight task, so
                // this only waits out another lane's in-flight work.
                None => std::thread::park_timeout(Duration::from_micros(50)),
            }
        }
    }
}

/// Evaluates `tree` through the task-DAG executor on `pool`, returning an
/// optimal configuration and its size — byte-identical to
/// [`evaluate_inlining_tree`](crate::tree::evaluate_inlining_tree) on the
/// same inputs, at any worker count (including a zero-worker pool, where
/// the caller drives every lane itself).
///
/// `session`, when given, memoizes finished subproblems across calls
/// (hash-consing) and accumulates [`ExecutorStats`]. Memo keys carry
/// `evaluator.memo_scope()`, so one session is safe to share across
/// evaluators over different modules; an evaluator with no scope
/// (`None`) skips memoization and the session only counts its tasks.
pub fn evaluate_inlining_tree_dag(
    tree: &InliningTree,
    evaluator: &dyn Evaluator,
    base: InliningConfiguration,
    pool: &WorkerPool,
    session: Option<&SearchSession>,
) -> (InliningConfiguration, u64) {
    let mut tasks = Vec::new();
    let mut dedup_hits = 0u64;
    let scope = evaluator.memo_scope();
    let root = flatten(tree, base, None, &mut tasks, session, scope, &mut dedup_hits);
    if let Some(s) = session {
        s.tasks.fetch_add(tasks.len() as u64, Ordering::Relaxed);
        s.dedup_hits.fetch_add(dedup_hits, Ordering::Relaxed);
    }

    // One lane per driver: the pool's workers plus the calling thread.
    let drivers = pool.threads() + 1;
    let run = Run {
        tasks: &tasks,
        lanes: (0..drivers).map(|_| Mutex::new(VecDeque::new())).collect(),
        evaluator,
        completed: AtomicUsize::new(0),
        steals: AtomicU64::new(0),
        aborted: AtomicBool::new(false),
        panic: Mutex::new(None),
        session,
    };
    // Seed the ready tasks (leaves and constants) round-robin across lanes
    // so every driver starts with local work.
    let mut seeded = 0usize;
    for (id, task) in tasks.iter().enumerate() {
        if task.pending.load(Ordering::Relaxed) == 0 {
            run.lanes[seeded % drivers]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push_back(id);
            seeded += 1;
        }
    }

    let lane_ids: Vec<usize> = (0..drivers).collect();
    pool.map(&lane_ids, |&lane| run.drive(lane));

    if let Some(p) = run.panic.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take() {
        resume_unwind(p);
    }
    if let Some(s) = session {
        s.steals.fetch_add(run.steals.load(Ordering::Relaxed), Ordering::Relaxed);
    }
    tasks[root].result.get().cloned().expect("root task settled")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{build_inlining_tree, evaluate_inlining_tree, space_size};
    use crate::SizeEvaluator;
    use optinline_callgraph::{InlineGraph, PartitionStrategy};
    use optinline_codegen::X86Like;
    use optinline_ir::{BinOp, FuncBuilder, Linkage, Module};

    /// A module realizing a call-graph shape with varied bodies.
    fn module_from_shape(n_funcs: usize, edges: &[(usize, usize)], seed: u64) -> Module {
        let mut m = Module::new(format!("dagshape{seed}"));
        let ids: Vec<_> = (0..n_funcs)
            .map(|i| {
                let linkage = if i == 0 { Linkage::Public } else { Linkage::Internal };
                m.declare_function(format!("f{i}"), 1, linkage)
            })
            .collect();
        let mut rng = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for (i, &fid) in ids.iter().enumerate() {
            let callees: Vec<_> =
                edges.iter().filter(|&&(a, _)| a == i).map(|&(_, b)| ids[b]).collect();
            let mut b = FuncBuilder::new(&mut m, fid);
            let p = b.param(0);
            let mut acc = p;
            for _ in 0..(next() % 5) as usize {
                let c = b.iconst((next() % 17) as i64);
                let op = [BinOp::Add, BinOp::Xor, BinOp::Mul][(next() % 3) as usize];
                acc = b.bin(op, acc, c);
            }
            for callee in callees {
                let arg = if next() % 2 == 0 { b.iconst((next() % 9) as i64) } else { acc };
                acc = b.call(callee, &[arg]).unwrap();
            }
            b.ret(Some(acc));
        }
        optinline_ir::assert_verified(&m);
        m
    }

    fn seq_and_dag(
        shape: (usize, &[(usize, usize)]),
        seed: u64,
        workers: usize,
        strategy: PartitionStrategy,
    ) -> ((InliningConfiguration, u64), (InliningConfiguration, u64)) {
        let m = module_from_shape(shape.0, shape.1, seed);
        let ev = SizeEvaluator::new(m, Box::new(X86Like), false);
        let graph = InlineGraph::from_module(ev.module());
        let tree = build_inlining_tree(&graph, strategy);
        let seq = evaluate_inlining_tree(&tree, &ev, InliningConfiguration::clean_slate());
        let pool = WorkerPool::new(workers);
        let dag = evaluate_inlining_tree_dag(
            &tree,
            &ev,
            InliningConfiguration::clean_slate(),
            &pool,
            None,
        );
        (seq, dag)
    }

    #[test]
    fn dag_matches_sequential_on_chains_and_diamonds() {
        for (seed, shape) in [
            (1u64, (4usize, &[(0, 1), (1, 2), (2, 3)][..])),
            (2, (6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)][..])),
            (3, (4, &[(0, 1), (0, 2), (1, 3), (2, 3)][..])),
            (5, (5, &[(0, 1), (2, 3), (3, 4)][..])),
            (6, (4, &[(0, 1), (1, 2), (3, 1)][..])),
        ] {
            for workers in [0, 1, 3] {
                let (seq, dag) = seq_and_dag(shape, seed, workers, PartitionStrategy::Paper);
                assert_eq!(seq, dag, "seed {seed}, workers {workers}");
            }
        }
    }

    #[test]
    fn dag_preserves_the_prefer_not_inlined_tie_rule() {
        // An evaluator where everything ties: the optimum must come out as
        // the clean slate (all `not_inlined` branches), exactly as the
        // sequential walk breaks ties.
        struct Flat;
        impl Evaluator for Flat {
            fn size_of(&self, _c: &InliningConfiguration) -> u64 {
                100
            }
            fn compilations(&self) -> u64 {
                0
            }
            fn queries(&self) -> u64 {
                0
            }
        }
        let graph = InlineGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let tree = build_inlining_tree(&graph, PartitionStrategy::Paper);
        let seq = evaluate_inlining_tree(&tree, &Flat, InliningConfiguration::clean_slate());
        let pool = WorkerPool::new(3);
        let dag = evaluate_inlining_tree_dag(
            &tree,
            &Flat,
            InliningConfiguration::clean_slate(),
            &pool,
            None,
        );
        assert_eq!(seq, dag);
        assert_eq!(dag.0.inlined_count(), 0, "ties must prefer not_inlined");
    }

    #[test]
    fn session_dedups_repeated_evaluations() {
        let m = module_from_shape(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], 7);
        let ev = SizeEvaluator::new(m, Box::new(X86Like), false);
        let graph = InlineGraph::from_module(ev.module());
        let tree = build_inlining_tree(&graph, PartitionStrategy::Paper);
        let pool = WorkerPool::new(2);
        let session = SearchSession::new();
        let first = evaluate_inlining_tree_dag(
            &tree,
            &ev,
            InliningConfiguration::clean_slate(),
            &pool,
            Some(&session),
        );
        let cold = session.stats();
        assert_eq!(cold.dedup_hits, 0, "a cold tree has all-distinct subproblems");
        assert!(cold.tasks as u128 >= space_size(&tree));
        let second = evaluate_inlining_tree_dag(
            &tree,
            &ev,
            InliningConfiguration::clean_slate(),
            &pool,
            Some(&session),
        );
        assert_eq!(first, second);
        let warm = session.stats();
        assert_eq!(warm.dedup_hits, 1, "the whole repeated tree collapses to its root");
        assert_eq!(warm.tasks, cold.tasks + 1, "one constant task on the warm run");
    }

    #[test]
    fn session_shares_subproblems_across_different_bases() {
        // The same subtree under bases that differ only in no-inline
        // decisions on *foreign* sites has the same canonical identity
        // (inlined sites only) — and the warm result must still be
        // byte-identical to a fresh sequential walk under the new base.
        let graph = InlineGraph::from_edges(2, &[(0, 1)]);
        let tree = build_inlining_tree(&graph, PartitionStrategy::Paper);
        struct Count(AtomicU64);
        impl Evaluator for Count {
            fn size_of(&self, c: &InliningConfiguration) -> u64 {
                self.0.fetch_add(1, Ordering::Relaxed);
                50 + c.inlined_count() as u64
            }
            fn compilations(&self) -> u64 {
                0
            }
            fn queries(&self) -> u64 {
                self.0.load(Ordering::Relaxed)
            }
            fn memo_scope(&self) -> Option<u128> {
                Some(0xC0)
            }
        }
        let ev = Count(AtomicU64::new(0));
        let pool = WorkerPool::new(0);
        let session = SearchSession::new();
        let base_a = InliningConfiguration::clean_slate();
        // Same canonical base (no inlined sites), different explicit map.
        let base_b =
            InliningConfiguration::clean_slate().with(CallSiteId::new(9), Decision::NoInline);
        let a = evaluate_inlining_tree_dag(&tree, &ev, base_a, &pool, Some(&session));
        let queries_after_a = ev.queries();
        let b = evaluate_inlining_tree_dag(&tree, &ev, base_b.clone(), &pool, Some(&session));
        assert_eq!(a.1, b.1);
        assert_eq!(ev.queries(), queries_after_a, "warm run must not evaluate");
        assert_eq!(session.stats().dedup_hits, 1);
        // Byte-identity: the warm result equals a fresh sequential walk
        // under base_b, carrying base_b's explicit foreign entry.
        let fresh = Count(AtomicU64::new(0));
        let expected = evaluate_inlining_tree(&tree, &fresh, base_b);
        assert_eq!(b, expected, "warm result must replay onto the caller's base");
    }

    #[test]
    fn session_memo_is_scoped_per_evaluator_domain() {
        // Two modules with identical call-graph shape — and therefore
        // identical trees and densely minted site ids — but different
        // bodies. Sharing one session across both must not let either
        // module's memoized optimum answer the other's search.
        let edges = &[(0usize, 1usize), (1, 2), (2, 3)][..];
        let m1 = module_from_shape(4, edges, 21);
        let m2 = module_from_shape(4, edges, 22);
        let ev1 = SizeEvaluator::new(m1, Box::new(X86Like), false);
        let ev2 = SizeEvaluator::new(m2, Box::new(X86Like), false);
        assert_ne!(ev1.memo_scope(), ev2.memo_scope());
        let tree1 =
            build_inlining_tree(&InlineGraph::from_module(ev1.module()), PartitionStrategy::Paper);
        let tree2 =
            build_inlining_tree(&InlineGraph::from_module(ev2.module()), PartitionStrategy::Paper);
        assert_eq!(tree1, tree2, "shapes must collide for this to be a real test");
        let seq1 = evaluate_inlining_tree(&tree1, &ev1, InliningConfiguration::clean_slate());
        let seq2 = evaluate_inlining_tree(&tree2, &ev2, InliningConfiguration::clean_slate());
        let session = SearchSession::new();
        let pool = WorkerPool::new(2);
        let dag1 = evaluate_inlining_tree_dag(
            &tree1,
            &ev1,
            InliningConfiguration::clean_slate(),
            &pool,
            Some(&session),
        );
        let dag2 = evaluate_inlining_tree_dag(
            &tree2,
            &ev2,
            InliningConfiguration::clean_slate(),
            &pool,
            Some(&session),
        );
        assert_eq!(dag1, seq1);
        assert_eq!(dag2, seq2, "module 2 must not inherit module 1's memoized results");
        assert_eq!(session.stats().dedup_hits, 0, "distinct domains must never alias");
    }

    #[test]
    fn anonymous_evaluators_skip_session_memoization() {
        // An evaluator with no memo scope must not populate (or read) a
        // shared session's table — only the counters move.
        struct Flat2;
        impl Evaluator for Flat2 {
            fn size_of(&self, _c: &InliningConfiguration) -> u64 {
                7
            }
            fn compilations(&self) -> u64 {
                0
            }
            fn queries(&self) -> u64 {
                0
            }
        }
        let graph = InlineGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let tree = build_inlining_tree(&graph, PartitionStrategy::Paper);
        let pool = WorkerPool::new(0);
        let session = SearchSession::new();
        let a = evaluate_inlining_tree_dag(
            &tree,
            &Flat2,
            InliningConfiguration::clean_slate(),
            &pool,
            Some(&session),
        );
        let b = evaluate_inlining_tree_dag(
            &tree,
            &Flat2,
            InliningConfiguration::clean_slate(),
            &pool,
            Some(&session),
        );
        assert_eq!(a, b);
        assert_eq!(session.memo_len(), 0, "no scope, no memo entries");
        assert_eq!(session.stats().dedup_hits, 0);
        assert!(session.stats().tasks > 0, "counters still accumulate");
    }

    #[test]
    fn steals_are_observed_with_multiple_lanes() {
        // A components-heavy tree seeds many independent leaves; with
        // several lanes at least the counters must be consistent (steals
        // can be zero on a 1-CPU machine, but tasks must all run).
        let m = module_from_shape(6, &[(0, 1), (2, 3), (4, 5)], 11);
        let ev = SizeEvaluator::new(m, Box::new(X86Like), false);
        let graph = InlineGraph::from_module(ev.module());
        let tree = build_inlining_tree(&graph, PartitionStrategy::Paper);
        let session = SearchSession::new();
        let pool = WorkerPool::new(3);
        let seq = evaluate_inlining_tree(&tree, &ev, InliningConfiguration::clean_slate());
        let dag = evaluate_inlining_tree_dag(
            &tree,
            &ev,
            InliningConfiguration::clean_slate(),
            &pool,
            Some(&session),
        );
        assert_eq!(seq, dag);
        let s = session.stats();
        assert!(s.tasks > 0);
        assert_eq!(s.dedup_hits, 0);
    }

    #[test]
    fn evaluator_panics_propagate_without_deadlock() {
        struct Boom;
        impl Evaluator for Boom {
            fn size_of(&self, _c: &InliningConfiguration) -> u64 {
                panic!("evaluator exploded")
            }
            fn compilations(&self) -> u64 {
                0
            }
            fn queries(&self) -> u64 {
                0
            }
        }
        let graph = InlineGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let tree = build_inlining_tree(&graph, PartitionStrategy::Paper);
        let pool = WorkerPool::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            evaluate_inlining_tree_dag(
                &tree,
                &Boom,
                InliningConfiguration::clean_slate(),
                &pool,
                None,
            )
        }));
        assert!(r.is_err());
        // The pool remains serviceable.
        assert_eq!(pool.map(&[1, 2], |&x| x * 10), vec![10, 20]);
    }

    #[test]
    fn single_leaf_tree_evaluates_the_base() {
        let ev_graph = InlineGraph::from_edges(1, &[]);
        let tree = build_inlining_tree(&ev_graph, PartitionStrategy::Paper);
        assert_eq!(tree, InliningTree::Leaf);
        struct One;
        impl Evaluator for One {
            fn size_of(&self, _c: &InliningConfiguration) -> u64 {
                1
            }
            fn compilations(&self) -> u64 {
                0
            }
            fn queries(&self) -> u64 {
                0
            }
        }
        let pool = WorkerPool::new(0);
        let (cfg, size) = evaluate_inlining_tree_dag(
            &tree,
            &One,
            InliningConfiguration::clean_slate(),
            &pool,
            None,
        );
        assert_eq!((cfg, size), (InliningConfiguration::clean_slate(), 1));
    }
}
