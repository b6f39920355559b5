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
//!   that buffer, and parses its lines straight into the resident table.
//!   The same loader reads logs for compaction.
//! - **Packed entries.** The resident table ([`Entries`]) keeps every
//!   key's sites in one arena, its entries in a vector of fixed-size
//!   records in first-seen order, and an open-addressing index of entry
//!   numbers: a log line costs no allocation of its own, and an entry
//!   costs its record, its sites and an index slot.
//! - **Write batching.** `put` appends to an in-memory buffer flushed as
//!   one `write` syscall when it reaches a line/byte threshold, on
//!   [`Scope::flush`], and when the last handle drops — amortized bulk
//!   appends instead of one syscall per probe.
//! - **Bounded resident memory.** The table is a *cache* of the log,
//!   bounded at [`StoreOptions::max_resident_entries`] (FIFO eviction),
//!   so a long autotune run no longer grows resident memory with the
//!   log. An evicted key costs at worst one duplicate log line (cleaned
//!   by compaction) and a re-forwarded query — never a wrong answer,
//!   because entry values are deterministic.
//! - **Compaction.** Duplicate and malformed bytes discovered at load are
//!   tracked as *dead*; when they exceed a ratio of the log the open
//!   compacts automatically, and [`Scope::compact`] does it on demand.
//! - **Recency stamps.** Opening a handle and every flush set the log's
//!   mtime to now, which is the order GC evicts in. Compaction rewrites
//!   the same content, so the rewritten log keeps the old mtime; a
//!   restart is a new log and takes the current time.
//! - **A mark for reuse.** The scope remembers the file (device, inode),
//!   length and mtime it last left its log at. The store may keep a scope
//!   open after its last handle drops, and serves it again only while the
//!   log's path still names that file in that state ([`LocalStore`]'s
//!   held scopes); any other process's append, rewrite, truncation or
//!   unlink changes one of the four, and the store opens the log afresh.
//!
//! [`LocalStore`]: crate::LocalStore

use crate::format::{
    entry_len, log_lines, parse_entry_into, push_entry, sanitize_meta, HEADER, META_PREFIX,
};
use crate::{StoreOptions, StoreStats};
use optinline_ir::{CallSiteId, Measurement};
use std::collections::hash_map::RandomState;
use std::fs::{File, Metadata, OpenOptions};
use std::hash::BuildHasher;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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

/// An empty slot of an [`Entries`] index.
const VACANT: u32 = u32::MAX;

/// One entry of a packed table: where its key's sites sit in the arena,
/// and its value.
#[derive(Clone, Copy)]
struct Entry {
    start: u32,
    len: u32,
    value: Measurement,
}

/// A scope's entries in packed form: every key's sites in one arena, one
/// fixed-size record per entry in first-seen order (the FIFO the resident
/// bound pops from, and the order a rewrite keeps), and an open-addressing
/// index from a site set to its entry number. Lines parse straight into
/// the arena, so loading a log allocates per table, never per line.
pub(crate) struct Entries {
    sites: Vec<CallSiteId>,
    /// Records in first-seen order; those before `head` were evicted.
    entries: Vec<Entry>,
    head: usize,
    /// Entry numbers (positions in `entries`) by key hash, probed
    /// linearly; a power of two long, at most three quarters full.
    index: Vec<u32>,
    hasher: RandomState,
}

impl Entries {
    /// A table with room for the entries of a log image without growing:
    /// one per line, and one site per `s` byte.
    pub(crate) fn sized_for(bytes: &[u8]) -> Entries {
        let (lines, sites) = bytes.iter().fold((0, 0), |(lines, sites), &b| {
            (lines + usize::from(b == b'\n'), sites + usize::from(b == b's'))
        });
        let mut table = Entries {
            sites: Vec::with_capacity(sites),
            entries: Vec::with_capacity(lines),
            head: 0,
            index: Vec::new(),
            hasher: RandomState::new(),
        };
        table.reindex(lines);
        table
    }

    /// Resident entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len() - self.head
    }

    /// Heap bytes the table holds (capacities, not lengths).
    fn heap_bytes(&self) -> u64 {
        (self.sites.capacity() * size_of::<CallSiteId>()
            + self.entries.capacity() * size_of::<Entry>()
            + self.index.capacity() * size_of::<u32>()) as u64
    }

    fn key(&self, n: usize) -> &[CallSiteId] {
        let e = &self.entries[n];
        &self.sites[e.start as usize..][..e.len as usize]
    }

    fn home(&self, key: &[CallSiteId]) -> usize {
        self.hasher.hash_one(key) as usize & (self.index.len() - 1)
    }

    /// The entry number of `key`, or the index slot it would take.
    fn probe(&self, key: &[CallSiteId]) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut slot = self.home(key);
        loop {
            match self.index[slot] {
                VACANT => return Err(slot),
                n if self.key(n as usize) == key => return Ok(n as usize),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    fn get(&self, key: &[CallSiteId]) -> Option<Measurement> {
        self.probe(key).ok().map(|n| self.entries[n].value)
    }

    /// Files the key staged at the arena's end, from `start`, under
    /// `value` — unless the table has it already: then the staged sites
    /// are dropped and the existing entry's number returned.
    fn commit(&mut self, start: usize, value: Measurement) -> Option<usize> {
        match self.probe(&self.sites[start..]) {
            Ok(n) => {
                self.sites.truncate(start);
                Some(n)
            }
            Err(slot) => {
                let fits = "a resident table holds fewer than 2^32 - 1 sites and entries";
                let n = u32::try_from(self.entries.len()).ok().filter(|&n| n != VACANT);
                self.index[slot] = n.expect(fits);
                let start = u32::try_from(start).expect(fits);
                let len = u32::try_from(self.sites.len()).expect(fits) - start;
                self.entries.push(Entry { start, len, value });
                if self.len() * 4 > self.index.len() * 3 {
                    self.reindex(self.len() * 2);
                }
                None
            }
        }
    }

    /// Parses an entry line into the table: `None` for a damaged line,
    /// else its value and, when the table already held its key, that
    /// entry's number (the line's sites are then dropped).
    pub(crate) fn add_line(&mut self, line: &[u8]) -> Option<(Measurement, Option<usize>)> {
        let start = self.sites.len();
        let value = parse_entry_into(line, &mut self.sites)?;
        Some((value, self.commit(start, value)))
    }

    /// Rebuilds the index with room for `room` entries.
    fn reindex(&mut self, room: usize) {
        let slots = (room.max(self.len()) * 4 / 3 + 1).next_power_of_two().max(8);
        self.index.clear();
        self.index.resize(slots, VACANT);
        for n in self.head..self.entries.len() {
            let Err(slot) = self.probe(self.key(n)) else { unreachable!("keys are distinct") };
            self.index[slot] = n as u32;
        }
    }

    /// Evicts the oldest resident entry, if any.
    fn pop_front(&mut self) {
        if self.len() == 0 {
            return;
        }
        let n = self.head;
        let mask = self.index.len() - 1;
        let mut hole = self.home(self.key(n));
        while self.index[hole] as usize != n {
            hole = (hole + 1) & mask;
        }
        // Backward-shift deletion: pull each later entry of the probe run
        // into the hole unless its home lies after the hole.
        let mut next = (hole + 1) & mask;
        while self.index[next] != VACANT {
            let moved = self.index[next];
            let home = self.home(self.key(moved as usize));
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.index[hole] = moved;
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.index[hole] = VACANT;
        self.head += 1;
        // Reclaim the evicted prefix once it is as long as what is left.
        if self.head * 2 >= self.entries.len() {
            let cut = self.entries.get(self.head).map_or(self.sites.len(), |e| e.start as usize);
            self.entries.drain(..self.head);
            self.sites.drain(..cut);
            for e in &mut self.entries {
                e.start -= cut as u32;
            }
            for slot in self.index.iter_mut().filter(|slot| **slot != VACANT) {
                *slot -= self.head as u32;
            }
            self.head = 0;
        }
    }

    /// Resident entries in first-seen order.
    fn iter(&self) -> impl Iterator<Item = (&[CallSiteId], Measurement)> {
        (self.head..self.entries.len()).map(|n| (self.key(n), self.entries[n].value))
    }
}

/// A log's entries as a read recovered them.
struct Loaded {
    /// One value per key: the first line's, or a later line's that
    /// upgrades it with cycles; in first-seen order.
    entries: Entries,
    /// Bytes of duplicate or malformed lines — reclaimable by compaction.
    dead_bytes: u64,
}

/// Parses a log image, skipping malformed lines one at a time and
/// charging duplicates and damage to `dead_bytes`. `None` means the log
/// must restart: an unknown header, or a meta line that is missing,
/// foreign or not UTF-8. An empty image is an empty log.
fn load_log(bytes: &[u8], meta: &str) -> Option<Loaded> {
    let mut lines = log_lines(bytes);
    match lines.next() {
        Some(h) if h == HEADER.as_bytes() => {}
        None => return Some(Loaded { entries: Entries::sized_for(&[]), dead_bytes: 0 }),
        _ => return None,
    }
    // A header-only file (crash between the two writes) is empty, but its
    // identity is unrecorded: restart to stamp it.
    lines.next()?.strip_prefix(META_PREFIX.as_bytes()).filter(|m| *m == meta.as_bytes())?;
    let mut log = Loaded { entries: Entries::sized_for(bytes), dead_bytes: 0 };
    let table = &mut log.entries;
    for line in lines {
        let dead = match table.add_line(line) {
            None => line.len(),
            Some((_, None)) => continue,
            // A later duplicate. Sizes are deterministic, so the values
            // agree on what they both carry — but a later line may
            // *upgrade* a size-only entry with cycles (measured after the
            // size landed). Keep the richer value; either way one of the
            // two lines is dead.
            Some((value, Some(n))) => {
                let old = table.entries[n].value;
                if old.cycles.is_none() && value.cycles.is_some() {
                    table.entries[n].value = value;
                    entry_len(table.key(n), old)
                } else {
                    line.len()
                }
            }
        };
        log.dead_bytes += dead as u64 + 1;
    }
    Some(log)
}

/// A log file's identity: device and inode, where the platform has them.
/// Elsewhere there is none, and no scope is ever reused.
#[cfg(unix)]
fn file_id(meta: &Metadata) -> Option<(u64, u64)> {
    use std::os::unix::fs::MetadataExt;
    Some((meta.dev(), meta.ino()))
}

#[cfg(not(unix))]
fn file_id(_: &Metadata) -> Option<(u64, u64)> {
    None
}

/// Where a scope last left its log: which file, how long, stamped when.
#[derive(Clone, Copy, PartialEq, Eq)]
struct LogMark {
    id: (u64, u64),
    len: u64,
    mtime: SystemTime,
}

impl LogMark {
    /// The mark of `file` as this scope just left it, `len` bytes long.
    fn of(file: &File, len: u64) -> Option<LogMark> {
        let meta = file.metadata().ok()?;
        Some(LogMark { id: file_id(&meta)?, len, mtime: meta.modified().ok()? })
    }

    /// Whether `meta` (a `stat` of the log's path) shows the log as marked.
    fn matches(&self, meta: &Metadata) -> bool {
        file_id(meta) == Some(self.id)
            && meta.len() == self.len
            && meta.modified().ok() == Some(self.mtime)
    }
}

/// Opens a log for reading and appending: the one handle a scope holds.
fn open_log(path: &Path) -> std::io::Result<File> {
    OpenOptions::new().read(true).append(true).open(path)
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
        push_entry(&mut image, key, value);
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
    entries: Entries,
    /// Distinct keys in the log as this scope knows it: those loaded plus
    /// those put since. While nothing was evicted it equals the resident
    /// count, and it is what a fresh open would load once pending lines
    /// are flushed.
    logged: u64,
    /// Formatted lines awaiting one batched append.
    pending: String,
    pending_lines: u64,
    /// Append handle on the log.
    file: File,
    /// Log size including unflushed pending bytes (what it will be).
    disk_bytes: u64,
    /// Reclaimable bytes (duplicates + damage) known in the log.
    dead_bytes: u64,
    /// Where this scope last left its log; `None` once a write or stamp
    /// failed or another process's change was seen, and never set again.
    mark: Option<LogMark>,
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
    /// Live [`Scope`] handles. A handle's uses come before its drop's
    /// decrement (release), which the store's acquire load in `idle` sees
    /// before it closes the scope under its registry lock; handles are
    /// only made under that lock or from a live one.
    users: AtomicUsize,
    /// The resident table's heap bytes, kept for the store's hold.
    table_bytes: AtomicU64,
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

/// A cloneable handle on one scope's log (all clones share state). When
/// the last handle drops, its write-back buffer is flushed.
#[derive(Debug)]
pub struct Scope {
    pub(crate) inner: Arc<ScopeInner>,
}

impl Scope {
    /// A new handle on `inner`.
    pub(crate) fn handle(inner: Arc<ScopeInner>) -> Scope {
        inner.users.fetch_add(1, Ordering::AcqRel);
        Scope { inner }
    }

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
                let log = Loaded { entries: Entries::sized_for(&[]), dead_bytes: 0 };
                (log, file.metadata().map_or(0, |m| m.len()))
            }
        };
        drop(bytes);
        if disk_bytes == 0 {
            let fresh = format!("{HEADER}\n{META_PREFIX}{meta}\n");
            file.write_all(fresh.as_bytes())?;
            disk_bytes = fresh.len() as u64;
        }

        let loaded = log.entries.len() as u64;
        let Loaded { mut entries, dead_bytes } = log;
        let mut evicted_at_load = 0u64;
        while entries.len() > opts.max_resident_entries {
            entries.pop_front();
            evicted_at_load += 1;
        }

        let scope = Scope::handle(Arc::new(ScopeInner {
            fingerprint,
            meta,
            path,
            opts,
            retired,
            state: Mutex::new(ScopeState {
                entries,
                logged: loaded,
                pending: String::new(),
                pending_lines: 0,
                mark: LogMark::of(&file, disk_bytes),
                file,
                disk_bytes,
                dead_bytes,
            }),
            users: AtomicUsize::new(0),
            table_bytes: AtomicU64::new(0),
            loaded,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            flushed_lines: AtomicU64::new(0),
            resident_evictions: AtomicU64::new(evicted_at_load),
            compactions: AtomicU64::new(0),
            compacted_bytes: AtomicU64::new(0),
        }));
        scope.inner.settle(&mut scope.inner.lock());
        Ok(scope)
    }

    /// Looks up the measurement recorded for a canonical inlined-site
    /// set.
    pub fn get(&self, key: &[CallSiteId]) -> Option<Measurement> {
        let found = self.inner.lock().entries.get(key);
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
    /// resident table). A resident size-only entry is *upgraded* in place
    /// when the new value carries cycles — the richer line is appended and
    /// the old one becomes dead bytes — but never downgraded. I/O errors
    /// are swallowed — the store is an accelerator, never a correctness
    /// dependency; the in-memory entry is kept either way.
    pub fn put(&self, key: Vec<CallSiteId>, value: Measurement) {
        let inner = &*self.inner;
        let mut guard = inner.lock();
        let state = &mut *guard;
        let table = &mut state.entries;
        match table.probe(&key) {
            Ok(n) => {
                let old = table.entries[n].value;
                if old.cycles.is_some() || value.cycles.is_none() {
                    return;
                }
                table.entries[n].value = value;
                state.dead_bytes += entry_len(&key, old) as u64 + 1;
            }
            Err(_) => {
                let start = table.sites.len();
                table.sites.extend_from_slice(&key);
                table.commit(start, value);
                state.logged += 1;
                if table.len() > inner.opts.max_resident_entries {
                    table.pop_front();
                    inner.resident_evictions.fetch_add(1, Ordering::Relaxed);
                }
                inner.table_bytes.store(table.heap_bytes(), Ordering::Relaxed);
            }
        }
        let before = state.pending.len();
        push_entry(&mut state.pending, &key, value);
        state.pending.push('\n');
        state.pending_lines += 1;
        state.disk_bytes += (state.pending.len() - before) as u64;
        inner.puts.fetch_add(1, Ordering::Relaxed);
        if state.pending_lines >= inner.opts.flush_every_lines as u64
            || state.pending.len() >= inner.opts.flush_bytes
        {
            let _ = inner.flush_locked(state);
        }
    }

    /// Flushes the write-back buffer (one append syscall).
    pub fn flush(&self) -> std::io::Result<()> {
        self.inner.flush()
    }

    /// Rewrites the log dropping duplicate and malformed lines. Returns
    /// `(bytes_before, bytes_after)`.
    pub fn compact(&self) -> std::io::Result<(u64, u64)> {
        self.inner.compact()
    }

    /// Entries resident in memory (a bounded subset of the log).
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distinct entries in the log as this scope knows it: those its open
    /// loaded plus those put since (pending ones included). While no
    /// resident entry was evicted, it is what a fresh open of the log
    /// would load once pending lines are flushed.
    pub fn logged(&self) -> u64 {
        self.inner.lock().logged
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

    /// Snapshot of the scope's counters, over every handle on it since it
    /// opened. GC is store-wide, so its fields stay zero
    /// ([`LocalStore::store_stats`](crate::LocalStore::store_stats)).
    pub fn counters(&self) -> StoreStats {
        self.inner.counters()
    }
}

impl Clone for Scope {
    fn clone(&self) -> Scope {
        Scope::handle(Arc::clone(&self.inner))
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        // The last handle commits the write-back buffer, so a scope the
        // store keeps open never holds entries its log lacks.
        if self.inner.users.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _ = self.inner.flush();
        }
    }
}

impl ScopeInner {
    pub(crate) fn counters(&self) -> StoreStats {
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

    pub(crate) fn fingerprint(&self) -> u128 {
        self.fingerprint
    }

    /// Whether its open found entries in the log: the store keeps only
    /// such a scope open past its last handle.
    pub(crate) fn warm_at_open(&self) -> bool {
        self.loaded > 0
    }

    /// Whether no handle is live.
    pub(crate) fn idle(&self) -> bool {
        self.users.load(Ordering::Acquire) == 0
    }

    /// The resident table's heap bytes.
    pub(crate) fn table_bytes(&self) -> u64 {
        self.table_bytes.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ScopeState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub(crate) fn flush(&self) -> std::io::Result<()> {
        self.flush_locked(&mut self.lock())
    }

    pub(crate) fn compact(&self) -> std::io::Result<(u64, u64)> {
        self.compact_locked(&mut self.lock())
    }

    /// Serves another handle if the log is still as this scope left it and
    /// every entry of it is resident — one `stat` of the path — and then
    /// does what an open does after its read: compacts a log whose dead
    /// bytes crossed the ratio, and stamps the log's recency. `false`
    /// means the caller must open the log afresh.
    pub(crate) fn reuse(&self) -> bool {
        let mut state = self.lock();
        if state.entries.len() as u64 != state.logged || !self.log_is_as_left(&state) {
            state.mark = None;
            return false;
        }
        self.settle(&mut state);
        true
    }

    /// Whether the log's path names the file this scope last left, at the
    /// length and mtime it left it.
    fn log_is_as_left(&self, state: &ScopeState) -> bool {
        let Some(mark) = state.mark else { return false };
        std::fs::metadata(&self.path).is_ok_and(|meta| mark.matches(&meta))
    }

    /// An open's last step: compact if due, then stamp the log.
    fn settle(&self, state: &mut ScopeState) {
        self.table_bytes.store(state.entries.heap_bytes(), Ordering::Relaxed);
        if self.should_compact(state) {
            let _ = self.compact_locked(state);
        }
        stamp(state);
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
        // Whatever happens below, the log is as this scope left it only if
        // the whole buffer lands.
        let mark = state.mark.take();
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
        state.mark = mark.map(|m| LogMark { len: m.len + buf.len() as u64, ..m });
        stamp(state);
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
        // The rewrite keeps this scope's mark only if the log it reads is
        // the one this scope left: another process's entries would be on
        // disk but not resident.
        let as_left = self.log_is_as_left(state);
        state.mark = None;
        let old = state.file.metadata().ok();
        let before = old.as_ref().map_or(state.disk_bytes, |m| m.len());
        // Re-read the log: the resident table is bounded, so only the disk
        // knows every committed entry.
        let Some(log) = load_log(&std::fs::read(&self.path)?, &self.meta) else {
            // Another process restarted the file under a different
            // identity; leave it alone.
            return Ok((before, before));
        };
        let mtime = old.and_then(|m| m.modified().ok());
        let after = rewrite_log(&self.path, &self.meta, log.entries.iter(), mtime)?;
        state.file = open_log(&self.path)?;
        state.disk_bytes = after;
        state.dead_bytes = 0;
        if as_left {
            state.mark = LogMark::of(&state.file, after);
        }
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.compacted_bytes.fetch_add(before.saturating_sub(after), Ordering::Relaxed);
        Ok((before, after))
    }
}

/// Sets a log's mtime to now — its recency in GC order — and records the
/// stamp in the scope's mark. A failed stamp is otherwise ignored, because
/// recency is advisory (a missed stamp can only make a log look colder
/// than it is), but the log's mtime is then unknown, so the mark goes.
fn stamp(state: &mut ScopeState) {
    let now = SystemTime::now();
    let stamped = state.file.set_modified(now).is_ok();
    state.mark = state.mark.filter(|_| stamped).map(|m| LogMark { mtime: now, ..m });
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
    let after = rewrite_log(path, meta, log.entries.iter(), old.modified().ok())?;
    Ok((before, after))
}

impl Drop for ScopeInner {
    fn drop(&mut self) {
        let _ = self.flush_locked(&mut self.lock());
        let counters = self.counters();
        self.retired.lock().unwrap_or_else(std::sync::PoisonError::into_inner).absorb(&counters);
    }
}
