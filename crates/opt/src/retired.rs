//! Names of two cleanup passes the pipeline no longer runs, kept as no-ops.
//!
//! `const-fold` and `tail-merge` left [`cleanup_pipeline_with`] because
//! neither changed an answer: SCCP folds every constant the first folded,
//! and the inliner's per-site continuation blocks leave no duplicate tails
//! for the second to merge. The benchmark's per-pass replay still imports
//! both names, so each stays as a unit struct that keeps its old
//! [`Pass::name`] and changes nothing. They go once the replay stops
//! importing them.
//!
//! [`cleanup_pipeline_with`]: crate::cleanup_pipeline_with

use crate::pass::{Pass, PassResult};
use optinline_ir::{AnalysisManager, FuncId, Module};

/// Formerly constant folding; now a pass that changes nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConstFold;

impl Pass for ConstFold {
    fn name(&self) -> &'static str {
        "const-fold"
    }

    fn run_on_function(&self, _: &mut Module, _: FuncId, _: &mut AnalysisManager) -> PassResult {
        PassResult::unchanged()
    }
}

/// Formerly tail merging; now a pass that changes nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct TailMerge;

impl Pass for TailMerge {
    fn name(&self) -> &'static str {
        "tail-merge"
    }

    fn run_on_function(&self, _: &mut Module, _: FuncId, _: &mut AnalysisManager) -> PassResult {
        PassResult::unchanged()
    }
}
