//! Content-addressed persistent evaluation store.
//!
//! The search layers above this crate are affordable only because size
//! evaluations are massively reusable; this crate is where that reuse is
//! made durable and *bounded*. It replaces the flat per-module append-only
//! cache files with a store rooted at one directory:
//!
//! ```text
//! <root>/ab/cdef...0123.log  scope log, sharded by fingerprint prefix
//! <root>/<fp-hex32>.sizes    legacy v2 per-module file (imported/ignored)
//! ```
//!
//! A *scope* is one evaluation domain — module text + target + pipeline
//! options, fingerprinted by the evaluator's `memo_scope` — and its log
//! maps canonical inlined-site sets to measured sizes. On top of the
//! legacy cache's guarantees (identity verification, line-scoped
//! corruption tolerance, torn-tail truncation, restart by atomic rename),
//! the store adds:
//!
//! - **recency** kept as each log's mtime, stamped when a scope handle
//!   opens and after each flush — the logs are the store's only state;
//! - **write batching**: `put` buffers lines in memory and appends them in
//!   one syscall per threshold crossing ([`StoreOptions`]);
//! - **compaction**: logs are rewritten without duplicate or damaged lines
//!   when dead bytes cross a ratio, or on demand;
//! - **size-budgeted GC**: least-recently-used scope logs are evicted
//!   until the directory fits a byte budget ([`LocalStore::gc`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod format;
mod local;
mod scope;

pub use format::{
    fingerprint_of, format_entry, log_file_stem, parse_entry, sanitize_meta, scope_rel_path,
    HEADER, LEGACY_EXT, LEGACY_HEADER, LOG_EXT, META_PREFIX,
};
pub use local::{GcReport, LocalStore, ScopeFormatMix, ScopeSpec, VerifyReport};
pub use scope::{Scope, ScopeCounters};

/// Tuning knobs of a [`LocalStore`].
#[derive(Clone, Copy, Debug)]
pub struct StoreOptions {
    /// Flush the write-back buffer once it holds this many entry lines.
    /// `1` degenerates to the legacy one-write-per-put behavior (useful as
    /// a bench baseline).
    pub flush_every_lines: usize,
    /// Flush the write-back buffer once it holds this many bytes.
    pub flush_bytes: usize,
    /// Upper bound on entries held resident per scope; beyond it the
    /// oldest resident entries are dropped (they stay on disk).
    pub max_resident_entries: usize,
    /// Compact a log on open only once its dead bytes reach this floor
    /// (avoids churn on small logs).
    pub compact_min_dead_bytes: u64,
    /// Compact a log on open once `dead_bytes >= ratio * log_bytes`.
    pub compact_dead_ratio: f64,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            flush_every_lines: 64,
            flush_bytes: 16 * 1024,
            max_resident_entries: 1 << 20,
            compact_min_dead_bytes: 4096,
            compact_dead_ratio: 0.5,
        }
    }
}

/// Aggregate counters of a store (merged into the evaluator's `--stats`
/// output upstream).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from the store this process.
    pub hits: u64,
    /// Lookups that fell through to the evaluator.
    pub misses: u64,
    /// Fresh entries recorded.
    pub puts: u64,
    /// Batched append writes performed (one syscall each).
    pub appends: u64,
    /// Entry lines those appends carried.
    pub flushed_lines: u64,
    /// Entries recovered from disk at scope opens.
    pub loaded: u64,
    /// Entries imported from legacy per-module cache files.
    pub imported: u64,
    /// Resident-map entries displaced by the memory bound.
    pub resident_evictions: u64,
    /// Log compactions performed.
    pub compactions: u64,
    /// Bytes reclaimed by compaction.
    pub compacted_bytes: u64,
    /// Scope logs evicted by size-budgeted GC.
    pub gc_evicted_scopes: u64,
    /// Bytes reclaimed by size-budgeted GC.
    pub gc_evicted_bytes: u64,
}
