//! The **parallel-search oracle**: the task-DAG executor must be a pure
//! scheduling optimization — for every module, the optimal configuration
//! *and* size it returns must be byte-identical to the sequential
//! Algorithm 1 walk, at every worker count, cold or warm.
//!
//! Determinism here is not free: a naive parallel reduction would break
//! ties by completion order, silently returning a different (equally
//! sized) optimum from run to run and poisoning every downstream
//! comparison. The executor instead resolves each `Binary` node from its
//! recorded child results with the sequential prefer-`not_inlined` rule;
//! this oracle is the fuzz-scale proof that it worked.

use optinline_callgraph::{InlineGraph, PartitionStrategy};
use optinline_codegen::X86Like;
use optinline_core::tree::{evaluate_inlining_tree, try_build_inlining_tree};
use optinline_core::{
    evaluate_inlining_tree_dag, InliningConfiguration, SearchSession, SizeEvaluator, WorkerPool,
};
use optinline_ir::Module;
use std::fmt;

/// Evaluation budget per fuzzed module: trees costing more than this many
/// evaluations are skipped (the oracle is about scheduling, not scale).
const TREE_BUDGET: u128 = 1 << 9;

/// One executor setup that disagreed with the sequential walk.
#[derive(Clone, Debug)]
pub struct ParMismatch {
    /// Worker count (pool workers; the driving thread adds one lane).
    pub workers: usize,
    /// Whether the run reused a warm [`SearchSession`].
    pub warm: bool,
    /// What diverged.
    pub detail: String,
}

impl fmt::Display for ParMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parallel-search oracle: {} ({} workers, {} session)",
            self.detail,
            self.workers,
            if self.warm { "warm" } else { "cold" }
        )
    }
}

/// Outcome of [`check_parallel_search`] on one module.
#[derive(Clone, Debug, Default)]
pub struct ParReport {
    /// Executor runs compared against the sequential result.
    pub comparisons: usize,
    /// Disagreements found (empty = the executor is deterministic and
    /// byte-identical to Algorithm 1).
    pub mismatches: Vec<ParMismatch>,
}

/// Runs the task-DAG executor against the sequential walk on `module` at
/// several seeded worker counts, plus one warm-session rerun. Returns
/// `None` when the module's search tree exceeds the per-case budget (or
/// has no tree at all) — a skip, not a pass.
pub fn check_parallel_search(module: &Module, seed: u64) -> Option<ParReport> {
    let graph = InlineGraph::from_module(module);
    let tree = try_build_inlining_tree(&graph, PartitionStrategy::Paper, TREE_BUDGET)?;
    let ev = SizeEvaluator::new(module.clone(), Box::new(X86Like), false);
    let expected = evaluate_inlining_tree(&tree, &ev, InliningConfiguration::clean_slate());

    let mut report = ParReport::default();
    let session = SearchSession::new();
    // Two fixed counts bracket the interesting range (lone stealer, wide
    // fan-out); the middle one walks with the fuzz seed.
    for workers in [1, 1 + (seed % 4) as usize, 8] {
        let pool = WorkerPool::new(workers);
        let got = evaluate_inlining_tree_dag(
            &tree,
            &ev,
            InliningConfiguration::clean_slate(),
            &pool,
            None,
        );
        report.comparisons += 1;
        if got != expected {
            report.mismatches.push(mismatch(workers, false, &expected, &got));
        }
        // Same tree through a shared session: the first pass populates the
        // hash-cons table, later passes resolve from it — the answer must
        // not move.
        let warm = evaluate_inlining_tree_dag(
            &tree,
            &ev,
            InliningConfiguration::clean_slate(),
            &pool,
            Some(&session),
        );
        report.comparisons += 1;
        if warm != expected {
            report.mismatches.push(mismatch(workers, true, &expected, &warm));
        }
    }
    Some(report)
}

fn mismatch(
    workers: usize,
    warm: bool,
    expected: &(InliningConfiguration, u64),
    got: &(InliningConfiguration, u64),
) -> ParMismatch {
    let detail = if expected.1 != got.1 {
        format!("sizes diverge: sequential {} vs DAG {}", expected.1, got.1)
    } else {
        format!("equal sizes but different optima: sequential {} vs DAG {}", expected.0, got.0)
    };
    ParMismatch { workers, warm, detail }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_workloads::{generate_file, GenParams};

    #[test]
    fn executor_agrees_on_generated_modules() {
        let mut checked = 0;
        for seed in 0..8u64 {
            let m = generate_file(&GenParams {
                n_internal: 4,
                clusters: 2,
                ..GenParams::named("par", seed)
            });
            if let Some(report) = check_parallel_search(&m, seed) {
                checked += 1;
                assert!(report.comparisons >= 6);
                assert!(report.mismatches.is_empty(), "seed {seed}: {}", report.mismatches[0]);
            }
        }
        assert!(checked > 0, "every generated module was skipped");
    }

    #[test]
    fn oversized_trees_are_skipped_not_failed() {
        // A module whose tree blows the budget must yield None.
        let m = generate_file(&GenParams {
            n_internal: 40,
            clusters: 1,
            ..GenParams::named("parbig", 3)
        });
        let graph = InlineGraph::from_module(&m);
        if try_build_inlining_tree(&graph, PartitionStrategy::Paper, TREE_BUDGET).is_none() {
            assert!(check_parallel_search(&m, 3).is_none());
        }
    }

    #[test]
    fn mismatches_render_both_dimensions() {
        let a = (InliningConfiguration::clean_slate(), 10);
        let b = (InliningConfiguration::clean_slate(), 12);
        assert!(mismatch(2, false, &a, &b).to_string().contains("sizes diverge"));
        assert!(mismatch(2, true, &a, &a.clone()).to_string().contains("different optima"));
    }
}
