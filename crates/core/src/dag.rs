//! The parallel tree search: Algorithm 1's recursion, forked through the
//! [`WorkerPool`].
//!
//! The subtrees of a `Binary` node, and the children of a `Components`
//! node, decide disjoint sites (§3.2), so they can be searched at the same
//! time. [`evaluate_inlining_tree_dag`] is
//! [`evaluate_inlining_tree`](crate::tree::evaluate_inlining_tree)'s own
//! recursion with each node's subtrees sent through [`WorkerPool::map`]:
//! the forking thread searches them itself while idle threads take the
//! rest, and a thread that waits for a subtree runs other queued forks.
//! The tree search, the autotuner's probes and the daemon's requests are
//! all scheduled by that one pool.
//!
//! - **Determinism.** `map` returns results in child order whichever
//!   thread computed them, so a `Binary` node keeps `not_inlined` when
//!   `size_no <= size_in` (Algorithm 1 line 8) and a `Components` node
//!   merges child configurations in child order. The result is
//!   byte-identical to the sequential walk at any worker count — the
//!   parallel-search oracle in `optinline-check` asserts exactly that.
//! - **Cancellation and panics.** `map` runs a subtree under its forker's
//!   cancel token on any thread and resurfaces the first panic at the
//!   forker, so a cancelled request or a panicking evaluator unwinds the
//!   whole search, and the pool keeps serving.
//!
//! The search is a scheduling layer only: every size number still comes
//! from the [`Evaluator`], with all its memoization intact. (The `_dag`
//! in the name is historical: the CLI, the experiments and optbench call
//! the search by it.)

use crate::config::InliningConfiguration;
use crate::evaluator::Evaluator;
use crate::pool::WorkerPool;
use crate::tree::InliningTree;
use optinline_callgraph::Decision;
use optinline_ir::CallSiteId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::ThreadId;

/// Counters the parallel search reports after a run (held as
/// [`EvaluatorStats::executor`](crate::EvaluatorStats::executor)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Tree nodes visited.
    pub tasks: u64,
    /// Subtrees run by a thread other than the one that forked them.
    pub steals: u64,
    /// Always 0: the search keeps no results across runs. The field stays
    /// so the benchmark's `core.search.dedup_hits` keeps reading it.
    pub dedup_hits: u64,
}

impl ExecutorStats {
    /// Adds `other` into `self`, field by field.
    pub fn absorb(&mut self, other: &ExecutorStats) {
        self.tasks += other.tasks;
        self.steals += other.steals;
        self.dedup_hits += other.dedup_hits;
    }
}

/// Cumulative search counters across the [`evaluate_inlining_tree_dag`]
/// calls a caller passes it to.
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

/// What every node of one search shares.
struct Search<'a> {
    evaluator: &'a dyn Evaluator,
    pool: &'a WorkerPool,
    session: Option<&'a SearchSession>,
}

impl Search<'_> {
    /// Algorithm 1 at one node, as in the sequential walk, with the node's
    /// subtrees forked through the pool. `forker` is the thread that
    /// forked this subtree.
    fn walk(
        &self,
        tree: &InliningTree,
        base: InliningConfiguration,
        forker: ThreadId,
    ) -> (InliningConfiguration, u64) {
        optinline_ir::cancel::checkpoint();
        let me = std::thread::current().id();
        if let Some(s) = self.session {
            s.tasks.fetch_add(1, Ordering::Relaxed);
            if me != forker {
                s.steals.fetch_add(1, Ordering::Relaxed);
            }
        }
        match tree {
            InliningTree::Leaf => {
                let size = self.evaluator.size_of(&base);
                (base, size)
            }
            InliningTree::Binary { site, not_inlined, inlined } => {
                self.binary(*site, [not_inlined, inlined], &base, me)
            }
            InliningTree::Components(children) => self.components(children, base, me),
        }
    }

    /// A `Binary` node: both labelings of `site`, forked; the smaller wins.
    fn binary(
        &self,
        site: CallSiteId,
        [not_inlined, inlined]: [&InliningTree; 2],
        base: &InliningConfiguration,
        me: ThreadId,
    ) -> (InliningConfiguration, u64) {
        let branches = [(not_inlined, Decision::NoInline), (inlined, Decision::Inline)];
        let mut found = self.pool.map(&branches, |&(subtree, decision)| {
            self.walk(subtree, base.clone().with(site, decision), me)
        });
        // Ties keep `not_inlined` (Algorithm 1 line 8).
        found.swap_remove(usize::from(found[0].1 > found[1].1))
    }

    /// A `Components` node: the children forked, their configurations
    /// merged in child order, and the merge measured.
    fn components(
        &self,
        children: &[InliningTree],
        base: InliningConfiguration,
        me: ThreadId,
    ) -> (InliningConfiguration, u64) {
        let found = self.pool.map(children, |child| self.walk(child, base.clone(), me));
        let mut merged = base;
        for (config, _) in &found {
            merged.merge(config);
        }
        let size = self.evaluator.size_of(&merged);
        (merged, size)
    }
}

/// Evaluates `tree` on `pool`, returning an optimal configuration and its
/// size — byte-identical to
/// [`evaluate_inlining_tree`](crate::tree::evaluate_inlining_tree) on the
/// same inputs, at any worker count (including a zero-worker pool, where
/// the calling thread searches every subtree itself).
///
/// `session`, when given, accumulates this run's [`ExecutorStats`].
pub fn evaluate_inlining_tree_dag(
    tree: &InliningTree,
    evaluator: &dyn Evaluator,
    base: InliningConfiguration,
    pool: &WorkerPool,
    session: Option<&SearchSession>,
) -> (InliningConfiguration, u64) {
    Search { evaluator, pool, session }.walk(tree, base, std::thread::current().id())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{build_inlining_tree, evaluate_inlining_tree, tree_stats};
    use crate::SizeEvaluator;
    use optinline_callgraph::{InlineGraph, PartitionStrategy};
    use optinline_codegen::X86Like;
    use optinline_ir::{BinOp, CallSiteId, FuncBuilder, Linkage, Module};
    use std::panic::{catch_unwind, AssertUnwindSafe};

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
        // visits the whole tree again, with the sequential walk's answer
        // each time.
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
        let shape = tree_stats(&tree);
        let nodes = shape.leaves + shape.binary_nodes + shape.components_nodes;
        assert_eq!(first.tasks as u128, nodes, "one task per tree node");
        assert_eq!(run(), seq);
        let second = session.stats();
        assert_eq!(second.tasks, 2 * first.tasks, "the second run visits every node again");
        assert_eq!(second.dedup_hits, 0);
    }

    #[test]
    fn steals_are_observed_with_multiple_lanes() {
        // A components-heavy tree forks many independent subtrees; with
        // several workers at least the counters must be consistent (steals
        // can be zero on a 1-CPU machine, but every node must be visited).
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
        assert!(s.steals < s.tasks, "the root is never stolen");
        assert_eq!(s.dedup_hits, 0);
    }

    #[test]
    fn a_thousand_deep_chain_fits_a_pool_threads_stack() {
        // The shape of tree.rs's deep `space_size` test, far deeper than any
        // tree a search budget admits, searched on a thread with the 2 MiB
        // stack that pool workers and the daemon's lanes get.
        struct Weights;
        impl Evaluator for Weights {
            fn size_of(&self, c: &InliningConfiguration) -> u64 {
                let weight = |s: &CallSiteId| [3u64, 0, 5, 1, 4][s.index() % 5];
                2_000 + c.inlined_sites().iter().map(weight).sum::<u64>() - c.inlined_count() as u64
            }
            fn compilations(&self) -> u64 {
                0
            }
            fn queries(&self) -> u64 {
                0
            }
        }
        let mut tree = InliningTree::Leaf;
        for i in 0..1_000u32 {
            tree = InliningTree::Binary {
                site: CallSiteId::new(i),
                not_inlined: Box::new(InliningTree::Leaf),
                inlined: Box::new(tree),
            };
        }
        let seq = evaluate_inlining_tree(&tree, &Weights, InliningConfiguration::clean_slate());
        for workers in [0, 1] {
            let tree = &tree;
            let dag = std::thread::scope(|scope| {
                std::thread::Builder::new()
                    .stack_size(2 << 20)
                    .spawn_scoped(scope, || {
                        let pool = WorkerPool::new(workers);
                        let clean = InliningConfiguration::clean_slate();
                        evaluate_inlining_tree_dag(tree, &Weights, clean, &pool, None)
                    })
                    .expect("spawn the searching thread")
                    .join()
                    .expect("the search fits the stack")
            });
            assert_eq!(dag, seq, "workers {workers}");
        }
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
