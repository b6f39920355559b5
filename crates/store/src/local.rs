//! The local filesystem store: sharded scope logs under one root, plus
//! size-budgeted GC, verification, and compaction. The logs are the only
//! state: GC recency is each log's mtime, and store-wide counts come from
//! reading the logs.

use crate::format::{
    fingerprint_of, log_file_stem, log_lines, parse_entry_bytes, sanitize_meta, scope_rel_path,
    HEADER, META_PREFIX,
};
use crate::scope::{intact_len, Scope};
use crate::{StoreOptions, StoreStats};
use optinline_ir::CallSiteId;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, Weak};
use std::time::SystemTime;

/// Result of a size-budgeted GC pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// The byte budget enforced.
    pub budget_bytes: u64,
    /// Store directory bytes before the pass.
    pub before_bytes: u64,
    /// Store directory bytes after the pass (≤ budget unless everything
    /// evictable is gone and open scopes still exceed it).
    pub after_bytes: u64,
    /// Scope logs deleted, LRU first.
    pub evicted_scopes: u64,
}

/// Per-scope entry-format tally: how many lines still speak the old
/// size-only grammar versus the cycles-carrying measurement grammar —
/// the migration-progress signal `optinline cache verify` surfaces.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScopeFormatMix {
    /// The scope's fingerprint.
    pub fingerprint: u128,
    /// Entry lines in the bare-size form (`<size> <sites>`).
    pub size_only_lines: u64,
    /// Entry lines carrying cycles (`<size>+<cycles> <sites>`).
    pub measurement_lines: u64,
}

/// Result of a full structural scan ([`LocalStore::verify`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Scope logs scanned.
    pub scopes: u64,
    /// Distinct live entries across them.
    pub entries: u64,
    /// Bytes across scope logs.
    pub bytes: u64,
    /// Duplicate entry lines (reclaimable by compaction, not damage).
    pub duplicate_lines: u64,
    /// Malformed entry lines skipped (line-scoped damage).
    pub malformed_lines: u64,
    /// Log-named files whose header or meta line is unreadable.
    pub unreadable_logs: u64,
    /// Unrecognized files inside shard directories (editor droppings,
    /// stray temp files) — skipped, never touched, never fatal.
    pub foreign_files: u64,
    /// Orphaned `*.tmp.<pid>` files swept: their writer is dead, so the
    /// interrupted rewrite they belonged to will never be published.
    pub stale_tmp_files: u64,
    /// Logs whose torn trailing line (crash mid-append) was truncated
    /// away during the scan. Repair, not damage: the torn entry was
    /// never durably recorded.
    pub repaired_logs: u64,
    /// Entry lines across all scopes still in the size-only grammar.
    pub size_only_lines: u64,
    /// Entry lines across all scopes carrying cycles.
    pub measurement_lines: u64,
    /// Per-scope format mix, in scan order.
    pub mix: Vec<ScopeFormatMix>,
}

impl VerifyReport {
    /// Whether the scan found no damage (duplicates are normal
    /// operation, not damage).
    pub fn clean(&self) -> bool {
        self.malformed_lines == 0 && self.unreadable_logs == 0
    }
}

/// One log discovered by a directory scan.
struct Scanned {
    fingerprint: u128,
    path: PathBuf,
    bytes: u64,
    /// Last open or flush; `None` (unreadable) sorts coldest.
    mtime: Option<SystemTime>,
}

/// Everything a sharded-directory walk found.
struct ScanOutcome {
    /// Well-formed scope logs.
    logs: Vec<Scanned>,
    /// Files inside shard directories that are not scope logs.
    foreign_files: u64,
}

/// Global registry so every cache in a process (CLI run, experiments
/// harness, tests) opening the same directory shares one store — one
/// scope registry, one set of append handles.
fn registry() -> &'static Mutex<HashMap<PathBuf, Weak<LocalStore>>> {
    static REGISTRY: std::sync::OnceLock<Mutex<HashMap<PathBuf, Weak<LocalStore>>>> =
        std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The sharded local store. See the crate docs for the on-disk layout.
pub struct LocalStore {
    root: PathBuf,
    opts: StoreOptions,
    scopes: Mutex<HashMap<u128, (String, Weak<crate::scope::ScopeInner>)>>,
    /// Counters folded in from dropped scope handles, plus GC's.
    retired: Arc<Mutex<StoreStats>>,
}

impl std::fmt::Debug for LocalStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalStore").field("root", &self.root).finish()
    }
}

impl LocalStore {
    /// Opens the store rooted at `dir` with explicit options, creating the
    /// directory if needed. Prefer [`LocalStore::shared`] outside tests
    /// and benches so handles within a process coalesce.
    pub fn open(dir: &Path, opts: StoreOptions) -> std::io::Result<Arc<LocalStore>> {
        std::fs::create_dir_all(dir)?;
        Ok(Arc::new(LocalStore {
            root: dir.to_path_buf(),
            opts,
            scopes: Mutex::new(HashMap::new()),
            retired: Arc::new(Mutex::new(StoreStats::default())),
        }))
    }

    /// Opens (or joins) the process-wide shared store for `dir` with
    /// default options.
    pub fn shared(dir: &Path) -> std::io::Result<Arc<LocalStore>> {
        std::fs::create_dir_all(dir)?;
        let key = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
        let mut reg = registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(store) = reg.get(&key).and_then(Weak::upgrade) {
            return Ok(store);
        }
        let store = LocalStore::open(dir, StoreOptions::default())?;
        reg.insert(key, Arc::downgrade(&store));
        Ok(store)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Opens (or joins) the scope for `fingerprint`, the content address
    /// (module text, target and pipeline options), verifying `meta`, the
    /// identity tag recorded on the log. A live handle for the same
    /// fingerprint **and** meta is shared; a live handle under a different
    /// meta is dropped from the registry and the log restarted — the
    /// fingerprint-collision contract of [`Scope`], applied in-process.
    pub fn scope(&self, fingerprint: u128, meta: &str) -> std::io::Result<Scope> {
        let meta = sanitize_meta(meta);
        let mut reg = self.scopes.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some((known_meta, weak)) = reg.get(&fingerprint) {
            if let Some(inner) = weak.upgrade() {
                if *known_meta == meta {
                    return Ok(Scope { inner });
                }
            }
        }
        let (shard, file) = scope_rel_path(fingerprint);
        let path = self.root.join(shard).join(file);
        let scope = Scope::open(path, fingerprint, &meta, self.opts, Arc::clone(&self.retired))?;
        reg.insert(fingerprint, (meta, Arc::downgrade(&scope.inner)));
        Ok(scope)
    }

    /// Flushes every live scope's write-back buffer.
    pub fn flush_all(&self) -> std::io::Result<()> {
        for scope in self.live_scopes() {
            scope.flush()?;
        }
        Ok(())
    }

    /// Walks the sharded directories, collecting every scope log and
    /// counting (but never touching) anything else it finds in a shard.
    /// Entries that vanish mid-walk (a concurrent GC pass) are skipped,
    /// never an error.
    fn scan(&self) -> std::io::Result<ScanOutcome> {
        let mut out = ScanOutcome { logs: Vec::new(), foreign_files: 0 };
        for shard_entry in std::fs::read_dir(&self.root)? {
            let shard_entry = shard_entry?;
            let is_dir = shard_entry.file_type().map(|t| t.is_dir()).unwrap_or(false);
            if !is_dir {
                continue;
            }
            let shard_name = shard_entry.file_name().to_string_lossy().into_owned();
            let Ok(shard_dir) = std::fs::read_dir(shard_entry.path()) else { continue };
            for entry in shard_dir {
                let Ok(entry) = entry else { continue };
                let name = entry.file_name().to_string_lossy().into_owned();
                let Some(fingerprint) =
                    log_file_stem(&name).and_then(|stem| fingerprint_of(&shard_name, stem))
                else {
                    out.foreign_files += 1;
                    continue;
                };
                let Ok(meta) = entry.metadata() else { continue };
                out.logs.push(Scanned {
                    fingerprint,
                    path: entry.path(),
                    bytes: meta.len(),
                    mtime: meta.modified().ok(),
                });
            }
        }
        Ok(out)
    }

    /// Total bytes of every file under the root (logs, stray temp files,
    /// anything else left there) — the quantity the GC budget bounds.
    pub fn disk_bytes(&self) -> std::io::Result<u64> {
        fn walk(dir: &Path) -> std::io::Result<u64> {
            let mut total = 0;
            for entry in std::fs::read_dir(dir)? {
                let entry = entry?;
                // Tolerate entries vanishing mid-walk (concurrent GC).
                let Ok(meta) = entry.metadata() else { continue };
                if meta.is_dir() {
                    total += walk(&entry.path()).unwrap_or(0);
                } else {
                    total += meta.len();
                }
            }
            Ok(total)
        }
        walk(&self.root)
    }

    /// Evicts least-recently-used scope logs — coldest mtime first —
    /// until the whole directory fits `budget_bytes`. Scopes with a live
    /// handle in this process are never evicted, and files that are not
    /// scope logs are never touched.
    pub fn gc(&self, budget_bytes: u64) -> std::io::Result<GcReport> {
        self.flush_all()?;
        let before_bytes = self.disk_bytes()?;
        let mut report = GcReport {
            budget_bytes,
            before_bytes,
            after_bytes: before_bytes,
            ..GcReport::default()
        };
        let mut remaining = before_bytes;

        if remaining > budget_bytes {
            // Walk victims coldest-first by the mtimes the scan read, so
            // concurrent stamps cannot reorder the walk mid-run.
            let mut victims = self.scan()?.logs;
            victims.sort_by_key(|s| (s.mtime, s.fingerprint));
            for victim in victims {
                if remaining <= budget_bytes {
                    break;
                }
                // Liveness is re-checked per victim *under the scope
                // registry lock*, and the unlink happens while it is held:
                // `scope()` holds the same lock for its whole open, so a
                // handle opened concurrently cannot lose its freshly
                // (re)created log.
                let reg = self.scopes.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                if reg.get(&victim.fingerprint).is_some_and(|(_, w)| w.upgrade().is_some()) {
                    continue;
                }
                match std::fs::remove_file(&victim.path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                    Err(e) => return Err(e),
                }
                drop(reg);
                // Prune the shard directory if this was its last log.
                if let Some(parent) = victim.path.parent() {
                    let _ = std::fs::remove_dir(parent);
                }
                remaining = remaining.saturating_sub(victim.bytes);
                report.evicted_scopes += 1;
                let mut retired = self.retired();
                retired.gc_evicted_scopes += 1;
                retired.gc_evicted_bytes += victim.bytes;
            }
        }

        report.after_bytes = self.disk_bytes()?;
        Ok(report)
    }

    /// Sweeps orphaned temp files that interrupted log rewrites left in
    /// the shard directories. A `<name>.tmp.<pid>` whose writer is still
    /// alive is in use and left alone (as is this process's own); one
    /// whose writer is gone will never be renamed into place and is
    /// deleted. Where process liveness cannot be checked, only files
    /// older than a minute go.
    fn sweep_stale_tmp(&self) -> u64 {
        fn writer_is_dead(path: &Path, pid: u64) -> bool {
            if pid == std::process::id() as u64 {
                return false;
            }
            if Path::new("/proc").is_dir() {
                return !Path::new(&format!("/proc/{pid}")).exists();
            }
            path.metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| t.elapsed().ok())
                .is_some_and(|age| age.as_secs() > 60)
        }
        fn sweep_dir(dir: &Path) -> u64 {
            let mut removed = 0;
            let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
            for entry in entries.flatten() {
                let path = entry.path();
                if !path.is_file() {
                    continue;
                }
                let name = entry.file_name().to_string_lossy().into_owned();
                let Some(pid) =
                    name.rsplit_once(".tmp.").and_then(|(_, pid)| pid.parse::<u64>().ok())
                else {
                    continue;
                };
                if writer_is_dead(&path, pid) && std::fs::remove_file(&path).is_ok() {
                    removed += 1;
                }
            }
            removed
        }
        let Ok(entries) = std::fs::read_dir(&self.root) else { return 0 };
        entries
            .flatten()
            .filter(|e| e.file_type().is_ok_and(|t| t.is_dir()))
            .map(|e| sweep_dir(&e.path()))
            .sum()
    }

    /// Structurally scans every scope log, counting damage. Doubles as
    /// the store's crash-recovery primitive: torn log tails are truncated
    /// and orphaned temp files from interrupted rewrites are swept.
    pub fn verify(&self) -> std::io::Result<VerifyReport> {
        // Flush first so the scan sees this process's own writes.
        self.flush_all()?;
        self.survey(true)
    }

    /// [`LocalStore::verify`]'s counts without its repairs: a read-only
    /// pass over the logs, for reporting. A torn tail counts as a
    /// malformed line here instead of being truncated, and no temp file
    /// is swept.
    pub fn census(&self) -> std::io::Result<VerifyReport> {
        self.survey(false)
    }

    /// The per-log tally behind [`LocalStore::verify`] and
    /// [`LocalStore::census`]; `repair` adds verify's repairs.
    fn survey(&self, repair: bool) -> std::io::Result<VerifyReport> {
        let mut report = VerifyReport::default();
        if repair {
            report.stale_tmp_files = self.sweep_stale_tmp();
        }
        let scan = self.scan()?;
        report.foreign_files = scan.foreign_files;
        for mut log in scan.logs {
            report.scopes += 1;
            let Ok(mut bytes) = std::fs::read(&log.path) else {
                report.bytes += log.bytes;
                report.unreadable_logs += 1;
                continue;
            };
            let intact = intact_len(&bytes);
            let cut = || -> std::io::Result<()> {
                std::fs::OpenOptions::new().write(true).open(&log.path)?.set_len(intact as u64)
            };
            if repair && intact < bytes.len() && cut().is_ok() {
                report.repaired_logs += 1;
                log.bytes = log.bytes.saturating_sub((bytes.len() - intact) as u64);
                bytes.truncate(intact);
            }
            report.bytes += log.bytes;
            let mut lines = log_lines(&bytes);
            if lines.next() != Some(HEADER.as_bytes()) {
                report.unreadable_logs += 1;
                continue;
            }
            let meta = lines.next().and_then(|l| std::str::from_utf8(l).ok());
            if !meta.is_some_and(|l| l.starts_with(META_PREFIX)) {
                report.unreadable_logs += 1;
                continue;
            }
            let mut seen: std::collections::HashSet<Vec<CallSiteId>> =
                std::collections::HashSet::new();
            let mut mix = ScopeFormatMix { fingerprint: log.fingerprint, ..Default::default() };
            for line in lines {
                match parse_entry_bytes(line) {
                    Some((key, value)) => {
                        if value.cycles.is_some() {
                            mix.measurement_lines += 1;
                        } else {
                            mix.size_only_lines += 1;
                        }
                        if !seen.insert(key) {
                            report.duplicate_lines += 1;
                        }
                    }
                    None => report.malformed_lines += 1,
                }
            }
            report.entries += seen.len() as u64;
            report.size_only_lines += mix.size_only_lines;
            report.measurement_lines += mix.measurement_lines;
            report.mix.push(mix);
        }
        Ok(report)
    }

    /// Compacts every scope log on disk (live handles through their own
    /// locked path, closed logs by direct rewrite). Returns total bytes
    /// reclaimed.
    pub fn compact_all(&self) -> std::io::Result<u64> {
        let live: HashMap<u128, Scope> =
            self.live_scopes().into_iter().map(|s| (s.fingerprint(), s)).collect();
        let mut reclaimed = 0u64;
        for log in self.scan()?.logs {
            let (before, after) = match live.get(&log.fingerprint) {
                Some(scope) => scope.compact()?,
                None => crate::scope::compact_closed_log(&log.path)?,
            };
            reclaimed += before.saturating_sub(after);
        }
        Ok(reclaimed)
    }

    /// Aggregate counters: per-scope activity (live and retired handles)
    /// plus GC work.
    pub fn store_stats(&self) -> StoreStats {
        let mut stats = *self.retired();
        for scope in self.live_scopes() {
            stats.absorb(&scope.counters());
        }
        stats
    }

    fn retired(&self) -> std::sync::MutexGuard<'_, StoreStats> {
        self.retired.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn live_scopes(&self) -> Vec<Scope> {
        let reg = self.scopes.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        reg.values().filter_map(|(_, w)| w.upgrade()).map(|inner| Scope { inner }).collect()
    }
}

impl Drop for LocalStore {
    fn drop(&mut self) {
        for scope in self.live_scopes() {
            let _ = scope.flush();
        }
    }
}
