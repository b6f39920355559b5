//! One scope's handle: an in-memory read cache over an append-only log,
//! with a write-back buffer that batches appends.
//!
//! A *scope* is one evaluation domain — (module text, target, pipeline
//! options), fingerprinted upstream — and its log maps canonical
//! inlined-site sets to measured sizes. The handle keeps three guarantees:
//!
//! - **Identity verification.** The log's `meta` line must match the
//!   caller's identity; a mismatch (FNV filename collision, stale file)
//!   restarts the log instead of serving another module's sizes. Unknown
//!   headers restart too.
//! - **Line-scoped corruption tolerance.** Malformed lines, a line that
//!   is not UTF-8 among them, are skipped individually; a torn trailing
//!   line (crash mid-append) is truncated on open so later appends cannot
//!   splice into it.
//! - **Restart by rename.** Restarts and compactions write a temp file
//!   and atomically rename it over the log, so a concurrent process
//!   holding an append handle keeps writing the unlinked inode — entries
//!   can be lost to a racing rewrite, never interleaved mid-file.
//!
//! On top of them:
//!
//! - **One handle, one read.** An open reads the whole log once through
//!   the read+append handle the scope keeps, repairs a torn tail inside
//!   that buffer, and loads its lines straight into the resident map and
//!   its FIFO order. The same loader reads logs for compaction.
//! - **Write batching.** `put` appends to an in-memory buffer flushed as
//!   one `write` syscall when it reaches a line/byte threshold, on
//!   [`Scope::flush`], and on drop — amortized bulk appends instead of
//!   one syscall per probe.
//! - **Bounded resident memory.** The in-memory map is a *cache* of the
//!   log, bounded at [`StoreOptions::max_resident_entries`] (FIFO
//!   eviction), so a long autotune run no longer grows resident memory
//!   with the log. An evicted key costs at worst one duplicate log line
//!   (cleaned by compaction) and a re-forwarded query — never a wrong
//!   answer, because entry values are deterministic.
//! - **Compaction.** Duplicate and malformed bytes discovered at load are
//!   tracked as *dead*; when they exceed a ratio of the log the open
//!   compacts automatically, and [`Scope::compact`] does it on demand.
//! - **Recency stamps.** Opening a handle and every flush set the log's
//!   mtime to now, which is the order GC evicts in. Compaction rewrites
//!   the same content, so the rewritten log keeps the old mtime; a
//!   restart is a new log and takes the current time.

use crate::format::{
    format_entry, log_lines, parse_entry_bytes, sanitize_meta, HEADER, META_PREFIX,
};
use crate::{StoreOptions, StoreStats};
use optinline_ir::{CallSiteId, Measurement};
use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

/// The length of a log image without a partial trailing line (a crash
/// mid-append leaves bytes after the last newline): up to its last
/// newline, or 0 when it has none (a crash while stamping a fresh
/// header). The torn entry was never durably recorded, so dropping its
/// bytes is recovery, not data loss — and unlike terminating the line in
/// place, truncation leaves nothing behind for `verify` to count as
/// damage.
pub(crate) fn intact_len(bytes: &[u8]) -> usize {
    bytes.iter().rposition(|&b| b == b'\n').map_or(0, |at| at + 1)
}

/// A log's entries as a read recovered them.
#[derive(Default)]
struct Loaded {
    /// One value per key: the first line's, or a later line's that
    /// upgrades it with cycles.
    entries: HashMap<Vec<CallSiteId>, Measurement>,
    /// Keys in first-seen order: the resident FIFO, and the order a
    /// rewrite keeps.
    order: VecDeque<Vec<CallSiteId>>,
    /// Bytes of duplicate or malformed lines — reclaimable by compaction.
    dead_bytes: u64,
}

impl Loaded {
    fn in_order(&self) -> impl Iterator<Item = (&[CallSiteId], Measurement)> {
        self.order.iter().map(|key| (key.as_slice(), self.entries[key]))
    }
}

/// Parses a log image, skipping malformed lines one at a time and
/// charging duplicates and damage to `dead_bytes`. `None` means the log
/// must restart: an unknown header, or a meta line that is missing,
/// foreign or not UTF-8. An empty image is an empty log.
fn load_log(bytes: &[u8], meta: &str) -> Option<Loaded> {
    let mut lines = log_lines(bytes);
    match lines.next() {
        Some(h) if h == HEADER.as_bytes() => {}
        None => return Some(Loaded::default()),
        _ => return None,
    }
    // A header-only file (crash between the two writes) is empty, but its
    // identity is unrecorded: restart to stamp it.
    lines.next()?.strip_prefix(META_PREFIX.as_bytes()).filter(|m| *m == meta.as_bytes())?;
    let most = bytes.iter().filter(|&&b| b == b'\n').count();
    let mut log = Loaded {
        entries: HashMap::with_capacity(most),
        order: VecDeque::with_capacity(most),
        dead_bytes: 0,
    };
    for line in lines {
        let dead = match parse_entry_bytes(line) {
            Some((key, value)) => match log.entries.get_mut(&key) {
                // A later duplicate. Sizes are deterministic, so the values
                // agree on what they both carry — but a later line may
                // *upgrade* a size-only entry with cycles (measured after
                // the size landed). Keep the richer value; either way one
                // of the two lines is dead.
                Some(old) if old.cycles.is_none() && value.cycles.is_some() => {
                    let old = std::mem::replace(old, value);
                    format_entry(&key, old).len()
                }
                Some(_) => line.len(),
                None => {
                    log.order.push_back(key.clone());
                    log.entries.insert(key, value);
                    continue;
                }
            },
            None => line.len(),
        };
        log.dead_bytes += dead as u64 + 1;
    }
    Some(log)
}

/// Opens a log for reading and appending: the one handle a scope holds.
fn open_log(path: &Path) -> std::io::Result<File> {
    OpenOptions::new().read(true).append(true).open(path)
}

/// Sets a log's mtime to now: its recency in GC order. Errors are
/// ignored because recency is advisory — a missed stamp can only make a
/// log look colder than it is.
fn stamp(file: &File) {
    let _ = file.set_modified(SystemTime::now());
}

/// Writes a fresh log image (header, meta, entries) to a temp file and
/// atomically renames it over `path`. A rewrite of the same content
/// passes the old log's `mtime` so GC order survives it; `None` leaves
/// the new log at the current time. Returns the new byte size.
fn rewrite_log<'a>(
    path: &Path,
    meta: &str,
    entries: impl IntoIterator<Item = (&'a [CallSiteId], Measurement)>,
    mtime: Option<SystemTime>,
) -> std::io::Result<u64> {
    let mut image = format!("{HEADER}\n{META_PREFIX}{meta}\n");
    for (key, value) in entries {
        image.push_str(&format_entry(key, value));
        image.push('\n');
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    {
        let mut f = File::create(&tmp)?;
        let mut bytes = image.as_bytes();
        if optinline_fault::armed() {
            let ctx = path.to_string_lossy();
            match optinline_fault::write_cap("store.rewrite", &ctx, bytes.len()) {
                optinline_fault::WriteFault::Pass => {}
                // A torn image that still gets renamed models power loss
                // after the rename metadata reached disk but the data
                // pages did not.
                optinline_fault::WriteFault::Truncate(keep) => bytes = &bytes[..keep],
                optinline_fault::WriteFault::Error => {
                    // The temp file stays behind — exactly the stale-tmp
                    // artifact `verify` sweeps.
                    return Err(optinline_fault::write_error("store.rewrite"));
                }
            }
        }
        f.write_all(bytes)?;
        f.flush()?;
        if let Some(mtime) = mtime {
            let _ = f.set_modified(mtime);
        }
    }
    if optinline_fault::armed() {
        // Crash point between the temp write and the publishing rename.
        optinline_fault::fail_point("store.rewrite.rename", &path.to_string_lossy())?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(image.len() as u64)
}

struct ScopeState {
    /// Resident read cache (bounded subset of the log).
    entries: HashMap<Vec<CallSiteId>, Measurement>,
    /// FIFO order for the resident bound.
    order: VecDeque<Vec<CallSiteId>>,
    /// Formatted lines awaiting one batched append.
    pending: String,
    pending_lines: u64,
    /// Append handle on the log.
    file: File,
    /// Log size including unflushed pending bytes (what it will be).
    disk_bytes: u64,
    /// Reclaimable bytes (duplicates + damage) known in the log.
    dead_bytes: u64,
}

pub(crate) struct ScopeInner {
    fingerprint: u128,
    meta: String,
    path: PathBuf,
    opts: StoreOptions,
    /// Store-owned accumulator this scope's counters fold into on drop,
    /// so store-level stats survive scope handles going away.
    retired: Arc<Mutex<StoreStats>>,
    state: Mutex<ScopeState>,
    loaded: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
    appends: AtomicU64,
    flushed_lines: AtomicU64,
    resident_evictions: AtomicU64,
    compactions: AtomicU64,
    compacted_bytes: AtomicU64,
}

impl std::fmt::Debug for ScopeInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope")
            .field("fingerprint", &format_args!("{:032x}", self.fingerprint))
            .field("path", &self.path)
            .field("loaded", &self.loaded)
            .finish()
    }
}

/// A cloneable handle on one scope's log (all clones share state).
#[derive(Clone, Debug)]
pub struct Scope {
    pub(crate) inner: Arc<ScopeInner>,
}

impl Scope {
    /// Opens (or creates) the scope log at `path`, verifying `meta`
    /// against the recorded identity.
    pub(crate) fn open(
        path: PathBuf,
        fingerprint: u128,
        meta: &str,
        opts: StoreOptions,
        retired: Arc<Mutex<StoreStats>>,
    ) -> std::io::Result<Scope> {
        let meta = sanitize_meta(meta);
        let mut file = match open_log(&path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if let Some(parent) = path.parent() {
                    std::fs::create_dir_all(parent)?;
                }
                OpenOptions::new().read(true).append(true).create(true).open(&path)?
            }
            Err(e) => return Err(e),
        };

        // One read of the whole log. Crash recovery comes first: a torn
        // trailing line is cut from the file and the buffer alike, so it
        // neither loads as damage nor splices with the next append.
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let intact = intact_len(&bytes);
        if intact < bytes.len() {
            file.set_len(intact as u64)?;
            bytes.truncate(intact);
        }

        let (log, mut disk_bytes) = match load_log(&bytes, &meta) {
            Some(log) => (log, bytes.len() as u64),
            None => {
                // Unknown header or foreign meta: the bytes belong to a
                // different format or module. Restart via temp + rename so
                // a process still appending to the old file writes the
                // unlinked inode rather than splicing into the fresh one;
                // this handle is on that inode too, so reopen it.
                rewrite_log(&path, &meta, [], None)?;
                file = open_log(&path)?;
                (Loaded::default(), file.metadata().map_or(0, |m| m.len()))
            }
        };
        drop(bytes);
        if disk_bytes == 0 {
            let fresh = format!("{HEADER}\n{META_PREFIX}{meta}\n");
            file.write_all(fresh.as_bytes())?;
            disk_bytes = fresh.len() as u64;
        }

        let loaded = log.entries.len() as u64;
        let Loaded { mut entries, mut order, dead_bytes } = log;
        let mut evicted_at_load = 0u64;
        while entries.len() > opts.max_resident_entries {
            if let Some(old) = order.pop_front() {
                entries.remove(&old);
                evicted_at_load += 1;
            } else {
                break;
            }
        }

        let scope = Scope {
            inner: Arc::new(ScopeInner {
                fingerprint,
                meta,
                path,
                opts,
                retired,
                state: Mutex::new(ScopeState {
                    entries,
                    order,
                    pending: String::new(),
                    pending_lines: 0,
                    file,
                    disk_bytes,
                    dead_bytes,
                }),
                loaded,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                puts: AtomicU64::new(0),
                appends: AtomicU64::new(0),
                flushed_lines: AtomicU64::new(0),
                resident_evictions: AtomicU64::new(evicted_at_load),
                compactions: AtomicU64::new(0),
                compacted_bytes: AtomicU64::new(0),
            }),
        };
        {
            let mut state = scope.inner.lock();
            if scope.inner.should_compact(&state) {
                let _ = scope.inner.compact_locked(&mut state);
            }
            stamp(&state.file);
        }
        Ok(scope)
    }

    /// Looks up the measurement recorded for a canonical inlined-site
    /// set.
    pub fn get(&self, key: &[CallSiteId]) -> Option<Measurement> {
        let found = self.inner.lock().entries.get(key).copied();
        match found {
            Some(v) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Records a result in the write-back buffer (deduplicated against the
    /// resident map). A resident size-only entry is *upgraded* in place
    /// when the new value carries cycles — the richer line is appended and
    /// the old one becomes dead bytes — but never downgraded. I/O errors
    /// are swallowed — the store is an accelerator, never a correctness
    /// dependency; the in-memory entry is kept either way.
    pub fn put(&self, key: Vec<CallSiteId>, value: Measurement) {
        let inner = &*self.inner;
        let mut state = inner.lock();
        let upgraded = match state.entries.get(&key) {
            Some(old) if old.cycles.is_none() && value.cycles.is_some() => {
                state.dead_bytes += format_entry(&key, *old).len() as u64 + 1;
                true
            }
            Some(_) => return,
            None => false,
        };
        let line = format_entry(&key, value);
        state.entries.insert(key.clone(), value);
        if !upgraded {
            state.order.push_back(key);
        }
        if state.entries.len() > inner.opts.max_resident_entries {
            if let Some(old) = state.order.pop_front() {
                state.entries.remove(&old);
                inner.resident_evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        state.pending.push_str(&line);
        state.pending.push('\n');
        state.pending_lines += 1;
        state.disk_bytes += line.len() as u64 + 1;
        inner.puts.fetch_add(1, Ordering::Relaxed);
        if state.pending_lines >= inner.opts.flush_every_lines as u64
            || state.pending.len() >= inner.opts.flush_bytes
        {
            let _ = inner.flush_locked(&mut state);
        }
    }

    /// Flushes the write-back buffer (one append syscall).
    pub fn flush(&self) -> std::io::Result<()> {
        self.inner.flush_locked(&mut self.inner.lock())
    }

    /// Rewrites the log dropping duplicate and malformed lines. Returns
    /// `(bytes_before, bytes_after)`.
    pub fn compact(&self) -> std::io::Result<(u64, u64)> {
        self.inner.compact_locked(&mut self.inner.lock())
    }

    /// Entries resident in memory (a bounded subset of the log).
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The backing log's path.
    pub fn path(&self) -> &Path {
        &self.inner.path
    }

    /// The scope's fingerprint.
    pub fn fingerprint(&self) -> u128 {
        self.inner.fingerprint
    }

    /// The scope's verified identity tag.
    pub fn meta(&self) -> &str {
        &self.inner.meta
    }

    /// Snapshot of the handle's counters. GC is store-wide, so its fields
    /// stay zero ([`LocalStore::store_stats`](crate::LocalStore::store_stats)).
    pub fn counters(&self) -> StoreStats {
        self.inner.counters()
    }
}

impl ScopeInner {
    fn counters(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            appends: self.appends.load(Ordering::Relaxed),
            flushed_lines: self.flushed_lines.load(Ordering::Relaxed),
            loaded: self.loaded,
            resident_evictions: self.resident_evictions.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            compacted_bytes: self.compacted_bytes.load(Ordering::Relaxed),
            ..StoreStats::default()
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ScopeState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn should_compact(&self, state: &ScopeState) -> bool {
        state.dead_bytes >= self.opts.compact_min_dead_bytes
            && state.dead_bytes as f64 >= self.opts.compact_dead_ratio * state.disk_bytes as f64
    }

    /// Appends the whole pending buffer in one write and stamps the log's
    /// recency.
    fn flush_locked(&self, state: &mut ScopeState) -> std::io::Result<()> {
        if state.pending.is_empty() {
            return Ok(());
        }
        let lines = state.pending_lines;
        let buf = std::mem::take(&mut state.pending);
        state.pending_lines = 0;
        if optinline_fault::armed() {
            let ctx = self.path.to_string_lossy();
            match optinline_fault::write_cap("store.append", &ctx, buf.len()) {
                optinline_fault::WriteFault::Pass => {}
                // Torn append: a strict prefix reaches the log — the shape
                // a crash mid-write leaves, which reopen recovery truncates.
                optinline_fault::WriteFault::Truncate(keep) => {
                    let _ = state.file.write_all(&buf.as_bytes()[..keep]);
                    let _ = state.file.flush();
                    return Err(optinline_fault::write_error("store.append"));
                }
                optinline_fault::WriteFault::Error => {
                    return Err(optinline_fault::write_error("store.append"));
                }
            }
        }
        state.file.write_all(buf.as_bytes())?;
        state.file.flush()?;
        stamp(&state.file);
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.flushed_lines.fetch_add(lines, Ordering::Relaxed);
        Ok(())
    }

    /// Flushes, then rewrites the log from its committed contents with
    /// duplicates and damage dropped. Holding the state lock for the whole
    /// rewrite means no in-process appender can interleave; a concurrent
    /// *process* keeps the old inode (entries lost, never corrupted),
    /// exactly the restart contract.
    fn compact_locked(&self, state: &mut ScopeState) -> std::io::Result<(u64, u64)> {
        self.flush_locked(state)?;
        let old = state.file.metadata().ok();
        let before = old.as_ref().map_or(state.disk_bytes, |m| m.len());
        // Re-read the log: the resident map is bounded, so only the disk
        // knows every committed entry.
        let Some(log) = load_log(&std::fs::read(&self.path)?, &self.meta) else {
            // Another process restarted the file under a different
            // identity; leave it alone.
            return Ok((before, before));
        };
        let mtime = old.and_then(|m| m.modified().ok());
        let after = rewrite_log(&self.path, &self.meta, log.in_order(), mtime)?;
        state.file = open_log(&self.path)?;
        state.disk_bytes = after;
        state.dead_bytes = 0;
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.compacted_bytes.fetch_add(before.saturating_sub(after), Ordering::Relaxed);
        Ok((before, after))
    }
}

/// Compacts a log that has no live handle in this process: the identity
/// is taken from the file's own meta line. Unreadable or foreign files
/// are left untouched. Returns `(bytes_before, bytes_after)`.
pub(crate) fn compact_closed_log(path: &Path) -> std::io::Result<(u64, u64)> {
    let old = std::fs::metadata(path)?;
    let before = old.len();
    let Ok(bytes) = std::fs::read(path) else { return Ok((before, before)) };
    let meta = log_lines(&bytes).nth(1).and_then(|l| std::str::from_utf8(l).ok());
    let Some(meta) = meta.and_then(|l| l.strip_prefix(META_PREFIX)) else {
        return Ok((before, before));
    };
    let Some(log) = load_log(&bytes, meta) else { return Ok((before, before)) };
    let after = rewrite_log(path, meta, log.in_order(), old.modified().ok())?;
    Ok((before, after))
}

impl Drop for ScopeInner {
    fn drop(&mut self) {
        let _ = self.flush_locked(&mut self.lock());
        let counters = self.counters();
        self.retired.lock().unwrap_or_else(std::sync::PoisonError::into_inner).absorb(&counters);
    }
}
