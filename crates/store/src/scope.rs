//! One scope's handle: an in-memory read cache over an append-only log,
//! with a write-back buffer that batches appends.
//!
//! A *scope* is one evaluation domain — (module text, target, pipeline
//! options), fingerprinted upstream — and its log maps canonical
//! inlined-site sets to measured sizes. The handle preserves the legacy
//! cache's hard-won guarantees:
//!
//! - **Identity verification.** The log's `meta` line must match the
//!   caller's identity; a mismatch (FNV filename collision, stale file)
//!   restarts the log instead of serving another module's sizes. Unknown
//!   headers restart too.
//! - **Line-scoped corruption tolerance.** Malformed lines are skipped
//!   individually; a torn trailing line (crash mid-append) is truncated
//!   on open so later appends cannot splice into it.
//! - **Restart by rename.** Restarts and compactions write a temp file
//!   and atomically rename it over the log, so a concurrent process
//!   holding an append handle keeps writing the unlinked inode — entries
//!   can be lost to a racing rewrite, never interleaved mid-file.
//!
//! What's new over the legacy cache:
//!
//! - **Write batching.** `put` appends to an in-memory buffer flushed as
//!   one `write` syscall when it reaches a line/byte threshold, on
//!   [`Scope::flush`], and on drop — collapsing the legacy
//!   one-syscall-per-probe pattern into amortized bulk appends.
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

use crate::format::{format_entry, parse_entry, sanitize_meta, HEADER, LEGACY_HEADER, META_PREFIX};
use crate::StoreOptions;
use optinline_ir::{CallSiteId, Measurement};
use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

/// Live counters of one scope handle (summed into
/// [`StoreStats`](crate::StoreStats)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScopeCounters {
    /// Entries recovered from disk when the scope was opened.
    pub loaded: u64,
    /// Entries imported from a legacy per-module cache file.
    pub imported: u64,
    /// Lookups answered from the resident map.
    pub hits: u64,
    /// Lookups that fell through to the caller.
    pub misses: u64,
    /// Fresh entries recorded.
    pub puts: u64,
    /// Batched append writes performed (one syscall each).
    pub appends: u64,
    /// Entry lines those appends carried.
    pub flushed_lines: u64,
    /// Resident-map entries displaced by the memory bound.
    pub resident_evictions: u64,
    /// Log rewrites performed (auto + explicit).
    pub compactions: u64,
    /// Bytes reclaimed by those rewrites.
    pub compacted_bytes: u64,
}

impl ScopeCounters {
    /// Adds `other` into `self`, field by field.
    pub fn absorb(&mut self, other: &ScopeCounters) {
        self.loaded += other.loaded;
        self.imported += other.imported;
        self.hits += other.hits;
        self.misses += other.misses;
        self.puts += other.puts;
        self.appends += other.appends;
        self.flushed_lines += other.flushed_lines;
        self.resident_evictions += other.resident_evictions;
        self.compactions += other.compactions;
        self.compacted_bytes += other.compacted_bytes;
    }
}

/// Truncates a partial trailing line (a crash mid-append leaves bytes
/// after the last newline) down to the last newline-terminated prefix.
/// The torn entry was never durably recorded, so dropping its bytes is
/// recovery, not data loss — and unlike terminating the line in place,
/// truncation leaves nothing behind for `verify` to count as damage.
/// Returns the number of bytes dropped (0 when the tail is intact).
pub(crate) fn truncate_torn_tail(path: &Path) -> std::io::Result<u64> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = match OpenOptions::new().read(true).write(true).open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let len = f.metadata()?.len();
    if len == 0 {
        return Ok(0);
    }
    // Scan backwards in chunks for the last newline; the common case
    // (intact tail) touches exactly one byte.
    let mut end = len;
    let mut buf = [0u8; 4096];
    while end > 0 {
        let start = end.saturating_sub(buf.len() as u64);
        let chunk = &mut buf[..(end - start) as usize];
        f.seek(SeekFrom::Start(start))?;
        f.read_exact(chunk)?;
        if let Some(at) = chunk.iter().rposition(|&b| b == b'\n') {
            let keep = start + at as u64 + 1;
            if keep == len {
                return Ok(0);
            }
            f.set_len(keep)?;
            return Ok(len - keep);
        }
        end = start;
    }
    // No newline at all: the whole file is one torn write (a crash while
    // stamping a fresh header). Restart from empty.
    f.set_len(0)?;
    Ok(len)
}

/// What a log parse recovered.
struct LoadOutcome {
    /// Entries in first-seen order (duplicates resolved to the first).
    entries: Vec<(Vec<CallSiteId>, Measurement)>,
    /// Bytes of duplicate or malformed lines — reclaimable by compaction.
    dead_bytes: u64,
    /// The file must be restarted (unknown header or foreign meta).
    restart: bool,
}

/// Parses a log under `header`, skipping malformed lines and charging
/// duplicates/damage to `dead_bytes`.
fn load_log(file: File, header: &str, meta: &str) -> LoadOutcome {
    let mut lines = BufReader::new(file).lines();
    match lines.next() {
        Some(Ok(h)) if h == header => {}
        None => return LoadOutcome { entries: Vec::new(), dead_bytes: 0, restart: false },
        _ => return LoadOutcome { entries: Vec::new(), dead_bytes: 0, restart: true },
    }
    match lines.next() {
        Some(Ok(m)) if m.strip_prefix(META_PREFIX) == Some(meta) => {}
        // Header-only file (crash between the two writes): empty, but the
        // identity is unrecorded — restart to stamp it.
        _ => return LoadOutcome { entries: Vec::new(), dead_bytes: 0, restart: true },
    }
    let mut seen: HashMap<Vec<CallSiteId>, usize> = HashMap::new();
    let mut entries: Vec<(Vec<CallSiteId>, Measurement)> = Vec::new();
    let mut dead_bytes = 0u64;
    for line in lines.map_while(Result::ok) {
        match parse_entry(&line) {
            Some((key, value)) => {
                if let Some(&at) = seen.get(&key) {
                    // A later duplicate. Sizes are deterministic, so the
                    // values agree on what they both carry — but a later
                    // line may *upgrade* a size-only entry with cycles
                    // (measured after the size landed). Keep the richer
                    // value; either way one of the two lines is dead.
                    let old = entries[at].1;
                    if old.cycles.is_none() && value.cycles.is_some() {
                        entries[at].1 = value;
                        dead_bytes += format_entry(&key, old).len() as u64 + 1;
                    } else {
                        dead_bytes += line.len() as u64 + 1;
                    }
                } else {
                    seen.insert(key.clone(), entries.len());
                    entries.push((key, value));
                }
            }
            None => dead_bytes += line.len() as u64 + 1,
        }
    }
    LoadOutcome { entries, dead_bytes, restart: false }
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
fn rewrite_log(
    path: &Path,
    meta: &str,
    entries: &[(Vec<CallSiteId>, Measurement)],
    mtime: Option<SystemTime>,
) -> std::io::Result<u64> {
    let mut image = format!("{HEADER}\n{META_PREFIX}{meta}\n");
    for (key, value) in entries {
        image.push_str(&format_entry(key, *value));
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
    retired: Arc<Mutex<ScopeCounters>>,
    state: Mutex<ScopeState>,
    loaded: u64,
    imported: u64,
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
    /// against the recorded identity and importing `legacy_path` (an old
    /// per-module `optinline-cache v2` file) when the new log does not
    /// exist yet and the legacy identity matches — a mismatched legacy
    /// file is cleanly ignored, never misread.
    pub(crate) fn open(
        path: PathBuf,
        legacy_path: Option<&Path>,
        fingerprint: u128,
        meta: &str,
        opts: StoreOptions,
        retired: Arc<Mutex<ScopeCounters>>,
    ) -> std::io::Result<Scope> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let meta = sanitize_meta(meta);

        // Legacy migration: a matching v2 per-module file seeds the new
        // log and is removed; anything else is left untouched.
        let mut imported = 0u64;
        if !path.exists() {
            if let Some(legacy) = legacy_path.filter(|p| p.exists()) {
                if let Ok(f) = File::open(legacy) {
                    let out = load_log(f, LEGACY_HEADER, &meta);
                    if !out.restart && !out.entries.is_empty() {
                        rewrite_log(&path, &meta, &out.entries, None)?;
                        imported = out.entries.len() as u64;
                        let _ = std::fs::remove_file(legacy);
                    }
                }
            }
        }

        // Crash recovery before anything reads the log: drop a torn
        // trailing line so it neither loads as damage nor splices with
        // the next append.
        truncate_torn_tail(&path)?;

        let (mut entries, mut dead_bytes, restart) = match File::open(&path) {
            Ok(f) => {
                let out = load_log(f, HEADER, &meta);
                (out.entries, out.dead_bytes, out.restart)
            }
            Err(_) => (Vec::new(), 0, false),
        };
        if restart {
            // Unknown header or foreign meta: the bytes belong to a
            // different format or module. Restart via temp + rename so a
            // process still appending to the old file writes the unlinked
            // inode rather than splicing into the fresh one.
            entries.clear();
            dead_bytes = 0;
            rewrite_log(&path, &meta, &[], None)?;
        }

        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        if file.metadata().map(|m| m.len() == 0).unwrap_or(true) {
            write!(file, "{HEADER}\n{META_PREFIX}{meta}\n")?;
            file.flush()?;
        }
        let disk_bytes = file.metadata().map(|m| m.len()).unwrap_or(0);

        // Imported entries are re-read from the fresh log, so `entries`
        // already includes them.
        let loaded = entries.len() as u64;
        let mut map = HashMap::with_capacity(entries.len());
        let mut order = VecDeque::with_capacity(entries.len());
        for (key, value) in entries {
            map.insert(key.clone(), value);
            order.push_back(key);
        }
        let mut evicted_at_load = 0u64;
        while map.len() > opts.max_resident_entries {
            if let Some(old) = order.pop_front() {
                map.remove(&old);
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
                    entries: map,
                    order,
                    pending: String::new(),
                    pending_lines: 0,
                    file,
                    disk_bytes,
                    dead_bytes,
                }),
                loaded,
                imported,
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

    /// Snapshot of the handle's counters.
    pub fn counters(&self) -> ScopeCounters {
        let i = &*self.inner;
        ScopeCounters {
            loaded: i.loaded,
            imported: i.imported,
            hits: i.hits.load(Ordering::Relaxed),
            misses: i.misses.load(Ordering::Relaxed),
            puts: i.puts.load(Ordering::Relaxed),
            appends: i.appends.load(Ordering::Relaxed),
            flushed_lines: i.flushed_lines.load(Ordering::Relaxed),
            resident_evictions: i.resident_evictions.load(Ordering::Relaxed),
            compactions: i.compactions.load(Ordering::Relaxed),
            compacted_bytes: i.compacted_bytes.load(Ordering::Relaxed),
        }
    }
}

impl ScopeInner {
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
    /// exactly the legacy restart contract.
    fn compact_locked(&self, state: &mut ScopeState) -> std::io::Result<(u64, u64)> {
        self.flush_locked(state)?;
        let old = state.file.metadata().ok();
        let before = old.as_ref().map_or(state.disk_bytes, |m| m.len());
        // Re-read the log: the resident map is bounded, so only the disk
        // knows every committed entry.
        let out = load_log(File::open(&self.path)?, HEADER, &self.meta);
        if out.restart {
            // Another process restarted the file under a different
            // identity; leave it alone.
            return Ok((before, before));
        }
        let mtime = old.and_then(|m| m.modified().ok());
        let after = rewrite_log(&self.path, &self.meta, &out.entries, mtime)?;
        state.file = OpenOptions::new().append(true).open(&self.path)?;
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
    let Ok(text) = std::fs::read_to_string(path) else { return Ok((before, before)) };
    let mut lines = text.lines();
    if lines.next() != Some(HEADER) {
        return Ok((before, before));
    }
    let Some(meta) = lines.next().and_then(|l| l.strip_prefix(META_PREFIX)) else {
        return Ok((before, before));
    };
    let out = load_log(File::open(path)?, HEADER, meta);
    if out.restart {
        return Ok((before, before));
    }
    let after = rewrite_log(path, meta, &out.entries, old.modified().ok())?;
    Ok((before, after))
}

impl Drop for ScopeInner {
    fn drop(&mut self) {
        let _ = self.flush_locked(&mut self.lock());
        let counters = ScopeCounters {
            loaded: self.loaded,
            imported: self.imported,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            appends: self.appends.load(Ordering::Relaxed),
            flushed_lines: self.flushed_lines.load(Ordering::Relaxed),
            resident_evictions: self.resident_evictions.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            compacted_bytes: self.compacted_bytes.load(Ordering::Relaxed),
        };
        self.retired.lock().unwrap_or_else(std::sync::PoisonError::into_inner).absorb(&counters);
    }
}
