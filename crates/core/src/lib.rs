//! # optinline-core
//!
//! The paper's contribution, as a library: **optimal function inlining for
//! binary size** via a recursively partitioned exhaustive search, and a
//! **local inlining autotuner** that exploits what the optimal
//! configurations look like.
//!
//! *Reproduces:* T. Theodoridis, T. Grosser, Z. Su, "Understanding and
//! Exploiting Optimal Function Inlining", ASPLOS 2022.
//!
//! ## The pieces
//!
//! - [`InliningConfiguration`] — `{inline, no-inline}` labels per call site
//!   (§2), with coupled copies handled upstream by stable site ids.
//! - [`SizeEvaluator`] — `CompileAndMeasureSize`: run the
//!   decision-driven inliner + `-Os` pipeline, measure `.text` bytes;
//!   memoized, thread-safe, and either whole-module or component-scoped
//!   (compiling only the call-graph components a configuration touches).
//! - [`naive`] — the `2^n` exhaustive search (§3.1), the ground truth.
//! - [`tree`] — the inlining tree (§3.2, Algorithms 1–2): provably the same
//!   optimum, at a fraction of the evaluations.
//! - [`autotune`] — the local autotuner (§5, Algorithm 3) with clean-slate,
//!   heuristic-initialized, round-based, and combined modes.
//! - [`analysis`] — decision agreement (Table 2), inlined-chain lengths
//!   (Figure 9), roofline statistics (Figures 7/16).
//!
//! ## Quick start
//!
//! ```
//! use optinline_ir::{Module, Linkage, FuncBuilder, BinOp};
//! use optinline_core::{SizeEvaluator, tree, autotune::Autotuner};
//! use optinline_callgraph::PartitionStrategy;
//! use optinline_codegen::X86Like;
//!
//! // A module with one inlinable call.
//! let mut m = Module::new("demo");
//! let inc = m.declare_function("inc", 1, Linkage::Internal);
//! let main = m.declare_function("main", 0, Linkage::Public);
//! {
//!     let mut b = FuncBuilder::new(&mut m, inc);
//!     let p = b.param(0);
//!     let one = b.iconst(1);
//!     let r = b.bin(BinOp::Add, p, one);
//!     b.ret(Some(r));
//! }
//! {
//!     let mut b = FuncBuilder::new(&mut m, main);
//!     let x = b.iconst(41);
//!     let v = b.call(inc, &[x]);
//!     b.ret(v);
//! }
//!
//! // `true` selects component-scoped compiles; `false` whole-module ones.
//! let ev = SizeEvaluator::new(m, Box::new(X86Like), true);
//! // Exhaustive optimum through the recursively partitioned space.
//! let optimal = tree::optimal_configuration(&ev, PartitionStrategy::Paper);
//! // One autotuning round finds the same thing here.
//! let tuned = Autotuner::new(&ev, ev.sites().clone()).clean_slate(1);
//! assert_eq!(tuned.best().size, optimal.size);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod autotune;
mod cache;
mod config;
mod dag;
mod evaluator;
pub mod farm;
mod incremental;
mod measure;
pub mod naive;
mod pareto;
mod persist;
mod pool;
pub mod tree;

pub use cache::{CacheStats, ShardedCache};
pub use config::InliningConfiguration;
pub use dag::{evaluate_inlining_tree_dag, ExecutorStats, SearchSession};
pub use evaluator::{domain_fingerprint, evaluation_identity, Evaluator, EvaluatorStats};
pub use incremental::SizeEvaluator;
pub use measure::{
    cost_model_fingerprint, module_cycles, objective_scope, Objective, SpeedEvaluator,
};
pub use naive::{exhaustive_search, SearchOutcome};
pub use pareto::{ParetoFront, ParetoPoint};
pub use persist::{cache_meta, module_fingerprint, PersistentCache, PersistentEvaluator};
pub use pool::{TaskGroup, WorkerPool};
pub use tree::{
    build_inlining_tree, evaluate_inlining_tree, space_size, try_build_inlining_tree, InliningTree,
};

#[cfg(test)]
mod cross_validation {
    //! The core soundness check: on real modules, the recursively
    //! partitioned search finds exactly the naïve optimum.

    use crate::evaluator::Evaluator;
    use crate::naive::exhaustive_search;
    use crate::tree::{build_inlining_tree, evaluate_inlining_tree, space_size};
    use crate::InliningConfiguration;
    use crate::SizeEvaluator;
    use optinline_callgraph::{InlineGraph, PartitionStrategy};
    use optinline_codegen::X86Like;
    use optinline_ir::{BinOp, FuncBuilder, Linkage, Module};

    /// Builds a module realizing an arbitrary call-graph shape with varied
    /// bodies (some fold when inlined, some are fat).
    fn module_from_shape(n_funcs: usize, edges: &[(usize, usize)], seed: u64) -> Module {
        let mut m = Module::new(format!("shape{seed}"));
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
            let body_len = (next() % 5) as usize;
            for _ in 0..body_len {
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

    fn check_shape(n: usize, edges: &[(usize, usize)], seed: u64) {
        let m = module_from_shape(n, edges, seed);
        let ev = SizeEvaluator::new(m, Box::new(X86Like), false);
        let sites = ev.sites().clone();
        let naive = exhaustive_search(&ev, &sites);
        for strategy in
            [PartitionStrategy::Paper, PartitionStrategy::FirstEdge, PartitionStrategy::Random(7)]
        {
            let graph = InlineGraph::from_module(ev.module());
            let tree = build_inlining_tree(&graph, strategy);
            let (config, size) =
                evaluate_inlining_tree(&tree, &ev, InliningConfiguration::clean_slate());
            assert_eq!(
                size, naive.size,
                "strategy {strategy:?} seed {seed}: tree size {size} != naive {}\nconfig {config}",
                naive.size
            );
        }
    }

    #[test]
    fn tree_matches_naive_on_chain() {
        check_shape(4, &[(0, 1), (1, 2), (2, 3)], 1);
    }

    #[test]
    fn tree_matches_naive_on_fig5_chain() {
        check_shape(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], 2);
    }

    #[test]
    fn tree_matches_naive_on_diamond() {
        check_shape(4, &[(0, 1), (0, 2), (1, 3), (2, 3)], 3);
    }

    #[test]
    fn tree_matches_naive_on_star() {
        check_shape(5, &[(0, 1), (0, 2), (0, 3), (0, 4)], 4);
    }

    #[test]
    fn tree_matches_naive_on_two_components() {
        check_shape(5, &[(0, 1), (2, 3), (3, 4)], 5);
    }

    #[test]
    fn tree_matches_naive_on_shared_callee() {
        // Figure 2: A→B, B→C, D→B (coupled copies arise when A→B inlines).
        check_shape(4, &[(0, 1), (1, 2), (3, 1)], 6);
    }

    #[test]
    fn tree_matches_naive_on_cycles() {
        check_shape(3, &[(0, 1), (1, 2), (2, 0)], 7);
        check_shape(2, &[(0, 1), (1, 0)], 8);
    }

    #[test]
    fn tree_matches_naive_on_self_recursion() {
        check_shape(2, &[(0, 0), (0, 1)], 9);
    }

    #[test]
    fn tree_matches_naive_on_dense_random_shapes() {
        for seed in 10u64..16 {
            let n = 3 + (seed as usize % 3);
            let mut edges = Vec::new();
            let mut x: u64 = seed.wrapping_mul(0x2545F4914F6CDD1D) + 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            for _ in 0..(3 + seed % 4) {
                edges.push(((next() % n as u64) as usize, (next() % n as u64) as usize));
            }
            check_shape(n, &edges, seed);
        }
    }

    #[test]
    fn memoization_keeps_tree_evaluations_at_or_under_space_size() {
        let m = module_from_shape(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], 42);
        let ev = SizeEvaluator::new(m, Box::new(X86Like), false);
        let graph = InlineGraph::from_module(ev.module());
        let tree = build_inlining_tree(&graph, PartitionStrategy::Paper);
        let space = space_size(&tree);
        evaluate_inlining_tree(&tree, &ev, InliningConfiguration::clean_slate());
        assert!(u128::from(ev.compilations()) <= space);
        assert!(space < 1u128 << ev.sites().len());
    }
}
