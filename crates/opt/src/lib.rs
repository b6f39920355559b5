//! # optinline-opt
//!
//! The `-Os`-like optimization pipeline the reproduction uses as its
//! compiler substrate, plus the *decision-driven inliner* that executes
//! explicit inlining configurations.
//!
//! The paper's phenomena are pipeline interactions: inlining a call extends
//! the optimizer's scope, letting constant folding collapse branches, DCE
//! erase regions, and dead-function elimination delete the callee — or, if
//! none of that fires, merely duplicating code. The passes here reproduce
//! exactly that dynamic on `optinline-ir`:
//!
//! | pass | role |
//! |------|------|
//! | [`InlinePass`] / [`run_inliner`] | executes an [`InlineOracle`]'s per-site decisions (coupled copies, depth-1 recursion bound) |
//! | [`Sccp`] | folds constant ops and constant branches, propagating constants across joins |
//! | [`Simplify`] | algebraic identities and light strength reduction |
//! | [`Cse`] | local value numbering + store-to-load forwarding |
//! | [`SimplifyCfg`] | merges/threads blocks, prunes params, drops unreachable code |
//! | [`Gvn`] | dominator-scoped value numbering (cross-block redundancy) |
//! | [`Dce`] | deletes unobservable instructions (effect summaries) |
//! | [`DeadArgElim`] | prunes unread parameters of internal functions |
//! | [`DeadFunctionElim`] | stubs out uncalled internal functions |
//!
//! [`optimize_os`] wires them into the standard size pipeline used by every
//! experiment; [`PassManager`] lets tests and benches compose custom ones.
//! [`ConstFold`] and [`TailMerge`] are no-op passes kept only for the
//! benchmark's per-pass replay; the pipeline no longer runs them.
//!
//! ```
//! use optinline_ir::{Module, Linkage, FuncBuilder, BinOp};
//! use optinline_opt::{optimize_os, PipelineOptions, AlwaysInline};
//! use optinline_codegen::{text_size, X86Like};
//!
//! let mut m = Module::new("demo");
//! let add1 = m.declare_function("add1", 1, Linkage::Internal);
//! let main = m.declare_function("main", 0, Linkage::Public);
//! {
//!     let mut b = FuncBuilder::new(&mut m, add1);
//!     let p = b.param(0);
//!     let one = b.iconst(1);
//!     let r = b.bin(BinOp::Add, p, one);
//!     b.ret(Some(r));
//! }
//! {
//!     let mut b = FuncBuilder::new(&mut m, main);
//!     let x = b.iconst(41);
//!     let y = b.call(add1, &[x]);
//!     b.ret(y);
//! }
//! optimize_os(&mut m, &AlwaysInline, PipelineOptions::default());
//! // add1 was inlined, folded to `ret 42`, and deleted.
//! assert!(m.is_stub(m.func_by_name("add1").unwrap()));
//! assert!(text_size(&m, &X86Like) > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cse;
mod dae;
mod dce;
mod fx;
mod gvn;
mod inline;
mod mergefunc;
mod pass;
mod pipeline;
mod retired;
mod sccp;
mod simplify;
mod simplify_cfg;
mod subst;

pub use cse::Cse;
pub use dae::DeadArgElim;
pub use dce::{Dce, DeadFunctionElim};
pub use gvn::Gvn;
pub use inline::{
    run_inliner, run_inliner_tracked, AlwaysInline, ForcedDecisions, InlineOracle, InlineOutcome,
    InlinePass, NeverInline,
};
pub use mergefunc::{functions_structurally_equal, MergeFunctions};
pub use pass::{
    Fixpoint, Pass, PassManager, PassResult, PassStat, PipelineStats, PreservedAnalyses,
};
pub use pipeline::{
    cleanup_pipeline, cleanup_pipeline_with, optimize_os, optimize_os_instrumented,
    optimize_os_no_inline, optimize_os_report, optimize_os_report_with_summary, OsReport,
    PipelineOptions,
};
pub use retired::{ConstFold, TailMerge};
pub use sccp::Sccp;
pub use simplify::Simplify;
pub use simplify_cfg::SimplifyCfg;
pub use subst::Subst;
