//! The task-DAG search executor: Algorithm 1 as an explicit dependency
//! graph instead of a recursive walk.
//!
//! [`evaluate_inlining_tree`](crate::tree::evaluate_inlining_tree) recurses
//! down an [`InliningTree`], which serializes sibling subtrees unless the
//! recursion explicitly forks. This module flattens the tree into tasks —
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
//!
//! The executor is a scheduling layer only: every size number still comes
//! from the [`Evaluator`], with all its memoization intact.

use crate::config::InliningConfiguration;
use crate::evaluator::Evaluator;
use crate::pool::WorkerPool;
use crate::tree::InliningTree;
use optinline_callgraph::Decision;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Counters the executor reports after a run (see
/// [`EvaluatorStats`](crate::EvaluatorStats) for the merged surface).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Tasks materialized in the DAG.
    pub tasks: u64,
    /// Tasks executed from another lane's deque (work stealing).
    pub steals: u64,
    /// Always 0: the executor keeps no results across runs. The field
    /// stays so the benchmark's `core.search.dedup_hits` keeps reading it.
    pub dedup_hits: u64,
}

/// Cumulative executor counters across the
/// [`evaluate_inlining_tree_dag`] calls a caller passes it to.
#[derive(Debug, Default)]
pub struct SearchSession {
    tasks: AtomicU64,
    steals: AtomicU64,
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
            dedup_hits: 0,
        }
    }
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
}

struct Task {
    kind: TaskKind,
    /// Dependency task ids, in deterministic child order.
    children: Vec<usize>,
    parent: Option<usize>,
    /// Unresolved dependencies; the task is ready at zero.
    pending: AtomicUsize,
    result: OnceLock<(InliningConfiguration, u64)>,
}

/// Flattens `tree` into `tasks`, returning the root task id.
fn flatten(
    tree: &InliningTree,
    base: InliningConfiguration,
    parent: Option<usize>,
    tasks: &mut Vec<Task>,
) -> usize {
    let id = tasks.len();
    // Reserve the slot first so children can name their parent; each
    // branch below overwrites the placeholder kind.
    tasks.push(Task {
        kind: TaskKind::Binary,
        children: Vec::new(),
        parent,
        pending: AtomicUsize::new(0),
        result: OnceLock::new(),
    });
    match tree {
        InliningTree::Leaf => {
            tasks[id].kind = TaskKind::Leaf { base };
        }
        InliningTree::Binary { site, not_inlined, inlined } => {
            let base_no = base.clone().with(*site, Decision::NoInline);
            let base_in = base.with(*site, Decision::Inline);
            let no = flatten(not_inlined, base_no, Some(id), tasks);
            let yes = flatten(inlined, base_in, Some(id), tasks);
            tasks[id].kind = TaskKind::Binary;
            tasks[id].children = vec![no, yes];
            tasks[id].pending = AtomicUsize::new(2);
        }
        InliningTree::Components(children) => {
            let ids: Vec<usize> =
                children.iter().map(|c| flatten(c, base.clone(), Some(id), tasks)).collect();
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
/// `session`, when given, accumulates this run's [`ExecutorStats`].
pub fn evaluate_inlining_tree_dag(
    tree: &InliningTree,
    evaluator: &dyn Evaluator,
    base: InliningConfiguration,
    pool: &WorkerPool,
    session: Option<&SearchSession>,
) -> (InliningConfiguration, u64) {
    let mut tasks = Vec::new();
    let root = flatten(tree, base, None, &mut tasks);
    if let Some(s) = session {
        s.tasks.fetch_add(tasks.len() as u64, Ordering::Relaxed);
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
    };
    // Seed the ready tasks (the leaves) round-robin across lanes
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
    fn a_shared_session_counts_every_run_in_full() {
        // A session only accumulates counters: a repeated search through it
        // materializes and runs the whole DAG again, with the sequential
        // walk's answer each time.
        let m = module_from_shape(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], 7);
        let ev = SizeEvaluator::new(m, Box::new(X86Like), false);
        let graph = InlineGraph::from_module(ev.module());
        let tree = build_inlining_tree(&graph, PartitionStrategy::Paper);
        let seq = evaluate_inlining_tree(&tree, &ev, InliningConfiguration::clean_slate());
        let pool = WorkerPool::new(2);
        let session = SearchSession::new();
        let run = || {
            evaluate_inlining_tree_dag(
                &tree,
                &ev,
                InliningConfiguration::clean_slate(),
                &pool,
                Some(&session),
            )
        };
        assert_eq!(run(), seq);
        let first = session.stats();
        assert!(first.tasks as u128 >= space_size(&tree));
        assert_eq!(run(), seq);
        let second = session.stats();
        assert_eq!(second.tasks, 2 * first.tasks, "the second run repeats every task");
        assert_eq!(second.dedup_hits, 0);
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
