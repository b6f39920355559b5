//! # optinline-ir
//!
//! A compact, typed, SSA mid-level IR — the substrate on which the
//! `optinline` workspace reproduces *"Understanding and Exploiting Optimal
//! Function Inlining"* (ASPLOS 2022).
//!
//! The IR plays the role LLVM-IR plays in the paper: programs are
//! [`Module`]s of [`Function`]s whose call instructions carry stable
//! [`CallSiteId`]s. Inlining decisions are expressed per call site, and
//! cloned copies of a call keep the original id so one decision covers all
//! copies (the paper's *coupled* model, §2).
//!
//! ## Components
//!
//! - [`Module`], [`Function`], [`Block`], [`Inst`], [`Terminator`] — the IR
//!   data structures (block parameters instead of phi nodes).
//! - [`FuncBuilder`] — ergonomic construction.
//! - [`fmt::Display`](std::fmt::Display) on [`Module`] and
//!   [`parse_module`] — a round-tripping textual format.
//! - [`verify_module`] — SSA well-formedness checking.
//! - [`analysis`] — CFG reachability, dominators, effect summaries.
//! - [`analysis_manager`] — lazily cached analyses with explicit
//!   invalidation, the data side of the change-driven pass manager.
//! - [`interp`] — a reference interpreter with a cycle cost model (the
//!   performance substrate for the paper's Figure 19).
//!
//! ## Semantics notes
//!
//! All values are `i64`. Division is total (`x / 0 == 0`). There are no
//! traps. Programs produced by `optinline-workloads` always terminate; the
//! interpreter enforces a fuel budget regardless.
//!
//! ## Example
//!
//! ```
//! use optinline_ir::{Module, Linkage, FuncBuilder, BinOp, interp::Interp};
//!
//! let mut m = Module::new("demo");
//! let sq = m.declare_function("square", 1, Linkage::Internal);
//! let main = m.declare_function("main", 0, Linkage::Public);
//! {
//!     let mut b = FuncBuilder::new(&mut m, sq);
//!     let p = b.param(0);
//!     let r = b.bin(BinOp::Mul, p, p);
//!     b.ret(Some(r));
//! }
//! {
//!     let mut b = FuncBuilder::new(&mut m, main);
//!     let x = b.iconst(9);
//!     let y = b.call(sq, &[x]);
//!     b.ret(y);
//! }
//! optinline_ir::verify_module(&m)?;
//! let out = Interp::new(&m).run(main, &[])?;
//! assert_eq!(out.ret, Some(81));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod analysis_manager;
mod builder;
pub mod cancel;
mod display;
pub mod dot;
mod function;
mod ids;
mod inst;
pub mod interp;
pub mod link;
mod measure;
mod module;
pub mod parse;
pub mod slice;
pub mod verify;

pub use analysis_manager::{AnalysisCacheStats, AnalysisManager, PreservedAnalyses};
pub use builder::FuncBuilder;
pub use display::{FuncDisplay, InstDisplay};
pub use function::{Block, Function, Linkage};
pub use ids::{BlockId, CallSiteId, FuncId, GlobalId, ValueId};
pub use inst::{BinOp, Inst, JumpTarget, Terminator};
pub use link::{internalize_except, link_modules};
pub use measure::Measurement;
pub use module::{Global, Module};
pub use parse::{parse_module, ParseError};
pub use slice::extract_slice;
pub use verify::{assert_verified, verify_module, VerifyError};
