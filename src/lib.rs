//! # optinline
//!
//! A from-scratch Rust reproduction of **"Understanding and Exploiting
//! Optimal Function Inlining"** (Theodoridis, Grosser, Su — ASPLOS 2022):
//! a recursively partitioned *exhaustive* search for the optimal inlining
//! configuration of a translation unit, and a simple, embarrassingly
//! parallel *autotuner* that gets most of the way there at a fraction of
//! the cost — both driving a self-contained `-Os`-style compiler substrate.
//!
//! This crate is a facade: it re-exports the workspace's crates under one
//! roof. See each member for the deep documentation:
//!
//! - [`ir`] — the SSA IR, builder, parser/printer, verifier, interpreter;
//! - [`opt`] — the `-Os`-like pass pipeline and decision-driven inliner;
//! - [`codegen`] — `.text` size models (x86-like and wasm-like);
//! - [`callgraph`] — inlining multigraphs, bridges, partition strategies;
//! - [`heuristics`] — the LLVM-`-Os`-like baseline inliner;
//! - [`core`] — inlining trees (Algorithms 1–2), the naïve search, the
//!   autotuner (Algorithm 3), and the paper's analyses;
//! - [`workloads`] — deterministic synthetic SPEC2017/SQLite/LLVM-shaped
//!   corpora plus the paper-figure sample modules.
//!
//! ```
//! use optinline::prelude::*;
//!
//! // Find the optimal inlining for one of the paper's figures.
//! let module = optinline::workloads::samples::fig5();
//! let ev = SizeEvaluator::new(module, Box::new(X86Like), false);
//! let optimal = optinline::core::tree::optimal_configuration(&ev, PartitionStrategy::Paper);
//! assert!(optimal.evaluations <= 32); // recursively partitioned ≤ naive 2^5
//! ```

pub use optinline_callgraph as callgraph;
pub use optinline_codegen as codegen;
pub use optinline_core as core;
pub use optinline_heuristics as heuristics;
pub use optinline_ir as ir;
pub use optinline_opt as opt;
pub use optinline_workloads as workloads;

/// The most commonly used items, in one import.
pub mod prelude {
    pub use optinline_callgraph::{Decision, InlineGraph, PartitionStrategy};
    pub use optinline_codegen::{text_size, Target, WasmLike, X86Like};
    pub use optinline_core::{
        autotune::Autotuner, Evaluator, EvaluatorStats, InliningConfiguration, SizeEvaluator,
    };
    pub use optinline_heuristics::CostModelInliner;
    pub use optinline_ir::{BinOp, FuncBuilder, Linkage, Module};
    pub use optinline_opt::{optimize_os, ForcedDecisions, PipelineOptions};
    pub use optinline_workloads::{spec_suite, Scale};
}
