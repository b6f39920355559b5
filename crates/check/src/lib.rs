//! Differential correctness checking for the inlining search stack.
//!
//! The paper's search algorithms are only sound on two premises: every
//! inlining configuration is *semantics-preserving* (the `-Os` pipeline
//! never changes observable behaviour), and the fast `configuration → size`
//! path agrees with the reference path (the size evaluator's component
//! decomposition, its memo caches, and the worker-pool parallel probes all
//! return the number one whole-module compile would). This crate
//! tests both premises differentially, and shrinks anything that fails:
//!
//! - [`oracle`] — the **semantic oracle**: interpret every public entry
//!   point of a module before and after the pipeline under a configuration
//!   and assert observable equality (return value, final globals, ordered
//!   store trace, trap kind). On divergence, the instrumented pipeline
//!   re-runs per pass to attribute the bug to the stage that introduced it.
//! - [`sizecheck`] — the **size oracle**: property-test both modes of
//!   [`SizeEvaluator`](optinline_core::SizeEvaluator) — component-scoped
//!   and whole-module — against the uncached whole-module reference,
//!   sequentially (cached and uncached) and concurrently through the
//!   worker pool.
//! - [`schedcheck`] — the **scheduling oracle**: the worklist, the one
//!   production pass scheduler, must produce byte-identical modules (and
//!   sizes) to the whole-module sweep this crate keeps as its private
//!   reference — for the full `-Os` compile and for the inlining
//!   heuristics' 3-round-capped cleanup drain, on every module ×
//!   configuration.
//! - [`cyclecheck`] — the **cycles oracle**: `-Os` under any
//!   configuration preserves observable behaviour while the simulated
//!   cycle count may change (the former asserted, the latter recorded),
//!   and the `(size, cycles)` measurement is exactly reproducible across
//!   evaluator shapes and worker counts.
//! - [`parcheck`] — the **parallel-search oracle**: the task-DAG search
//!   executor must return the exact configuration and size the sequential
//!   Algorithm 1 walk returns — at every worker count, cold or with a warm
//!   hash-consing session.
//! - [`storecheck`] — the **store oracle**: a search answering through
//!   the persistent evaluation store must return the exact configuration
//!   and size a no-persist run returns, on a cold directory and on a warm
//!   reopen — which additionally must compile nothing and leave a
//!   structurally clean store behind.
//! - [`servecheck`] — the **serve oracle**: the optimization daemon's
//!   transport must be invisible — served replies byte-identical to
//!   direct handler calls for every request kind (cold and on a warm
//!   repeat), identical concurrent requests collapsed into one
//!   evaluation with byte-identical fan-out, and a clean drain.
//! - [`reduce`](mod@reduce) — the **delta-debugging reducer**: shrink a failing
//!   `(module, configuration)` pair to a minimal call-closed reproducer by
//!   dropping configuration decisions and slicing functions out.
//! - [`fuzz`] — the driver: generate random modules and configurations
//!   ([`GenParams::fuzz_sample`](optinline_workloads::GenParams::fuzz_sample)),
//!   run both oracles, reduce failures, and write reproducers to
//!   `results/repros/`.
//! - [`inject`] — a deliberately buggy evaluator wrapper used to prove,
//!   end to end, that the oracle catches a size lie and the reducer shrinks
//!   it to a readable case.
//!
//! Everything is deterministic given a seed, so any reported failure is
//! reproducible from its one-line record.

pub mod chaoscheck;
pub mod cyclecheck;
pub mod fuzz;
pub mod inject;
pub mod oracle;
pub mod parcheck;
pub mod reduce;
pub mod schedcheck;
pub mod servecheck;
pub mod sizecheck;
pub mod storecheck;

pub use chaoscheck::{check_chaos, run_chaos, ChaosMismatch, ChaosReport};
pub use cyclecheck::{check_cycles, CycleMismatch, CycleReport};
pub use fuzz::{run_fuzz, run_reducer_demo, DemoReport, FuzzOptions, FuzzReport};
pub use inject::BuggyEvaluator;
pub use oracle::{check_semantics, observe, Behaviour, Limits, OracleReport, SemanticDivergence};
pub use parcheck::{check_parallel_search, ParMismatch, ParReport};
pub use reduce::{reduce, Reduction};
pub use schedcheck::{check_scheduling, SchedMismatch, SchedReport};
pub use servecheck::{check_serve_equivalence, ServeMismatch, ServeReport};
pub use sizecheck::{check_sizes, SizeMismatch, SizeReport};
pub use storecheck::{check_store_equivalence, StoreMismatch, StoreReport};
