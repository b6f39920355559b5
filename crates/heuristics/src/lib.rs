//! # optinline-heuristics
//!
//! Baseline inlining strategies the optimal-inlining study compares
//! against — chiefly [`CostModelInliner`], a bottom-up, cost-model-driven
//! strategy modeled after LLVM's inliner at `-Os` (the paper's state of the
//! art), plus trivial always/never references.
//!
//! Each strategy produces an *inlining configuration*: one
//! [`Decision`](optinline_callgraph::Decision) per original call site.
//! Configurations are executed by `optinline-opt`'s decision-driven
//! inliner, scored by `optinline-codegen`, and compared against the optimum
//! by `optinline-core`.
//!
//! ```
//! use optinline_ir::{Module, Linkage, FuncBuilder, BinOp};
//! use optinline_heuristics::{CostModelInliner, baselines};
//! use optinline_codegen::X86Like;
//!
//! let mut m = Module::new("demo");
//! let sq = m.declare_function("sq", 1, Linkage::Internal);
//! let main = m.declare_function("main", 0, Linkage::Public);
//! {
//!     let mut b = FuncBuilder::new(&mut m, sq);
//!     let p = b.param(0);
//!     let r = b.bin(BinOp::Mul, p, p);
//!     b.ret(Some(r));
//! }
//! {
//!     let mut b = FuncBuilder::new(&mut m, main);
//!     let x = b.iconst(3);
//!     let v = b.call(sq, &[x]);
//!     b.ret(v);
//! }
//! let llvm_like = CostModelInliner::default().decide(&m, &X86Like);
//! let never = baselines::never_inline(&m);
//! assert_eq!(llvm_like.len(), never.len());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cost;
mod drain;
mod llvm_like;
mod trials;

pub use cost::{body_bytes, estimate, CostBreakdown, CostParams};
pub use llvm_like::CostModelInliner;
pub use trials::TrialInliner;

/// Trivial reference strategies.
pub mod baselines {
    use optinline_callgraph::Decision;
    use optinline_ir::{CallSiteId, Module};
    use std::collections::BTreeMap;

    /// Inline every inlinable site.
    pub fn always_inline(module: &Module) -> BTreeMap<CallSiteId, Decision> {
        module.inlinable_sites().into_iter().map(|s| (s, Decision::Inline)).collect()
    }

    /// Inline nothing (the paper's Figure 1 baseline).
    pub fn never_inline(module: &Module) -> BTreeMap<CallSiteId, Decision> {
        module.inlinable_sites().into_iter().map(|s| (s, Decision::NoInline)).collect()
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use optinline_ir::{FuncBuilder, Linkage};

        #[test]
        fn baselines_cover_all_sites_with_uniform_labels() {
            let mut m = Module::new("m");
            let h = m.declare_function("h", 0, Linkage::Internal);
            let f = m.declare_function("main", 0, Linkage::Public);
            {
                let mut b = FuncBuilder::new(&mut m, h);
                b.ret(None);
            }
            {
                let mut b = FuncBuilder::new(&mut m, f);
                b.call_void(h, &[]);
                b.call_void(h, &[]);
                b.ret(None);
            }
            let a = always_inline(&m);
            let n = never_inline(&m);
            assert_eq!(a.len(), 2);
            assert!(a.values().all(|&d| d == Decision::Inline));
            assert!(n.values().all(|&d| d == Decision::NoInline));
        }
    }
}
