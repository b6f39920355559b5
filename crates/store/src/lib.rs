//! Content-addressed persistent evaluation store.
//!
//! The search layers above this crate are affordable only because size
//! evaluations are massively reusable; this crate is where that reuse is
//! made durable and *bounded*. The store is rooted at one directory:
//!
//! ```text
//! <root>/ab/cdef...0123.log  scope log, sharded by fingerprint prefix
//! ```
//!
//! Any other file under the root is left alone: never read, never
//! deleted, but counted in [`LocalStore::disk_bytes`].
//!
//! A *scope* is one evaluation domain — module text + target + pipeline
//! options, fingerprinted by the evaluator's `memo_scope` — and its log
//! maps canonical inlined-site sets to measured sizes. Each log keeps
//! four guarantees (identity verification, line-scoped corruption
//! tolerance, torn-tail truncation, restart by atomic rename), and the
//! store adds:
//!
//! - **recency** kept as each log's mtime, stamped when a scope handle
//!   opens and after each flush — the logs are the store's only state;
//! - **write batching**: `put` buffers lines in memory and appends them in
//!   one syscall per threshold crossing ([`StoreOptions`]);
//! - **compaction**: logs are rewritten without duplicate or damaged lines
//!   when dead bytes cross a ratio, or on demand;
//! - **size-budgeted GC**: least-recently-used scope logs are evicted
//!   until the directory fits a byte budget ([`LocalStore::gc`]);
//! - **one counter type**: [`StoreStats`] counts a scope handle and the
//!   whole store alike. A dropped handle folds its counters into the
//!   store's, so [`LocalStore::store_stats`] covers every handle the
//!   process opened, plus GC's evictions.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod format;
mod local;
mod scope;

pub use format::{
    fingerprint_of, format_entry, log_file_stem, parse_entry, sanitize_meta, scope_rel_path,
    HEADER, LOG_EXT, META_PREFIX,
};
pub use local::{GcReport, LocalStore, ScopeFormatMix, VerifyReport};
pub use scope::Scope;

/// Tuning knobs of a [`LocalStore`].
#[derive(Clone, Copy, Debug)]
pub struct StoreOptions {
    /// Flush the write-back buffer once it holds this many entry lines.
    /// `1` degenerates to one write per put (useful as a bench baseline).
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

/// The store's counters, for one scope handle ([`Scope::counters`], GC
/// fields zero) or for the whole store ([`LocalStore::store_stats`]). The
/// layers above hold this snapshot as it is: the evaluator's `--stats`
/// line renders a scope's and the store's.
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

impl StoreStats {
    /// Adds `other` into `self`, field by field.
    pub fn absorb(&mut self, other: &StoreStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.puts += other.puts;
        self.appends += other.appends;
        self.flushed_lines += other.flushed_lines;
        self.loaded += other.loaded;
        self.resident_evictions += other.resident_evictions;
        self.compactions += other.compactions;
        self.compacted_bytes += other.compacted_bytes;
        self.gc_evicted_scopes += other.gc_evicted_scopes;
        self.gc_evicted_bytes += other.gc_evicted_bytes;
    }
}
