//! `optinline serve` — the daemon side — and the `--connect` client side.
//!
//! The daemon is the CLI's own subcommands behind a socket: requests are
//! executed by [`CliHandler`], which hands each one to the decoder the
//! in-process commands use ([`Evaluation`]), so a served answer is
//! byte-identical to a local one by construction. The daemon owns the
//! cache policy: every request shares one persistent store handle
//! (`--cache-dir`), making the daemon a multi-tenant cache tier — clients
//! do not send cache flags over the wire. It also keeps each module's
//! heuristic decisions warm across requests ([`HeuristicMap`]).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use optinline_codegen::Target;
use optinline_core::{cache_meta, InliningConfiguration};
use optinline_ir::Module;
use optinline_serve::{
    install_drain_handler, Client, ClientConfig, ClientError, Endpoint, Handler, Outcome, Reply,
    RequestKind, ServeOptions, Server, ServerHandle, ServerStats,
};
use optinline_store::LocalStore;

use crate::{CliError, Evaluation, LocalSettings, StrategyChoice};

/// Everything `optinline serve` needs to boot a daemon.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Where to listen.
    pub endpoint: Endpoint,
    /// The daemon-owned persistent cache directory; `None` serves
    /// cache-less.
    pub cache_dir: Option<PathBuf>,
    /// Post-request size-budgeted GC, applied by the daemon's own cache
    /// policy (same meaning as `--cache-budget-bytes` in-process).
    pub cache_budget_bytes: Option<u64>,
    /// Admission queue depth (`--queue`); 0 keeps the default.
    pub queue_capacity: usize,
    /// The most evaluations running at once (`--max-concurrent`); 0 means
    /// one per core.
    pub max_concurrent: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            endpoint: Endpoint::Unix(default_socket_path()),
            cache_dir: None,
            cache_budget_bytes: None,
            queue_capacity: 0,
            max_concurrent: 0,
        }
    }
}

/// The default daemon socket: `$TMPDIR/optinline.sock`.
pub fn default_socket_path() -> PathBuf {
    std::env::temp_dir().join("optinline.sock")
}

/// Parses a `--connect` / `--socket` endpoint: `tcp:ADDR` is TCP,
/// anything else a Unix socket path.
pub fn parse_endpoint(s: &str) -> Endpoint {
    match s.strip_prefix("tcp:") {
        Some(addr) => Endpoint::Tcp(addr.to_string()),
        None => Endpoint::Unix(PathBuf::from(s)),
    }
}

/// Bytes of heuristic decisions one daemon keeps warm. A module with 50
/// call sites is charged about 1 KiB, so the cap holds thousands.
const HEURISTIC_MAP_BYTES: usize = 4 << 20;

/// What an entry is charged besides its meta line and decisions: the key,
/// the recency tick and byte count, the shared cell, the table slot.
const ENTRY_BYTES: usize = 128;

/// What each of a module's inlinable sites is charged for its decision: a
/// `CallSiteId` and a `Decision` in a B-tree node, with the node's share
/// of slack.
const DECISION_BYTES: usize = 16;

/// The daemon's warm heuristic decisions: a bounded map from a module's
/// evaluation-domain fingerprint to the baseline heuristic's
/// configuration for it. The key is
/// [`domain_fingerprint`](optinline_core::domain_fingerprint) under the
/// default pipeline options, which is `SizeEvaluator::memo_scope`, the
/// value store scopes are named by.
///
/// The heuristic's `decide` is a pure function of the module and the
/// target, so a hit serves exactly what a miss computes. As with a store
/// scope, a hit is verified against the module's `cache_meta`; an entry
/// whose meta differs (a fingerprint collision) is replaced, not served.
/// Each entry fills single-flight through a `OnceLock`: requests for one
/// module wait for one `decide`, and a `decide` that unwinds (a cancelled
/// request) leaves the cell empty for the next request to fill. An entry
/// is charged for its decisions when it is created, and entries are
/// evicted least recently used once their charges pass a constant cap.
pub struct HeuristicMap {
    cap_bytes: usize,
    state: Mutex<MapState>,
}

#[derive(Default)]
struct MapState {
    entries: HashMap<u128, Entry>,
    /// Sum of the entries' charges.
    bytes: usize,
    /// Recency clock: bumped on every lookup.
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

struct Entry {
    meta: String,
    cell: Arc<OnceLock<InliningConfiguration>>,
    last_used: u64,
    bytes: usize,
}

/// A [`HeuristicMap`]'s counters, printed in `optinline serve`'s exit
/// report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeuristicStats {
    /// Modules held now.
    pub entries: u64,
    /// Lookups served without running the heuristic, including those that
    /// waited for another request's fill.
    pub hits: u64,
    /// Lookups that ran the heuristic, including runs a cancellation cut
    /// short.
    pub misses: u64,
    /// Entries dropped to stay under the byte cap.
    pub evictions: u64,
}

impl std::fmt::Debug for HeuristicMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeuristicMap")
            .field("cap_bytes", &self.cap_bytes)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl HeuristicMap {
    fn with_cap(cap_bytes: usize) -> HeuristicMap {
        HeuristicMap { cap_bytes, state: Mutex::default() }
    }

    fn lock(&self) -> MutexGuard<'_, MapState> {
        // `decide` runs outside the lock, and nothing under it panics.
        self.state.lock().expect("heuristic map lock poisoned")
    }

    /// The map's counters.
    pub fn stats(&self) -> HeuristicStats {
        let state = self.lock();
        HeuristicStats {
            entries: state.entries.len() as u64,
            hits: state.hits,
            misses: state.misses,
            evictions: state.evictions,
        }
    }

    /// The heuristic's configuration for `module` on `target`, whose
    /// evaluation domain is `fingerprint`: served from the map when it
    /// holds a filled entry with the module's meta, computed and kept
    /// otherwise.
    pub(crate) fn configuration(
        &self,
        fingerprint: u128,
        module: &Module,
        target: &dyn Target,
    ) -> InliningConfiguration {
        let cell = self.cell(fingerprint, module, target);
        let mut filled = false;
        let config = cell
            .get_or_init(|| {
                self.lock().misses += 1;
                filled = true;
                StrategyChoice::Heuristic.configuration(module, target)
            })
            .clone();
        if !filled {
            self.lock().hits += 1;
        }
        config
    }

    /// The cell `fingerprint` names, marked most recently used. A missing
    /// entry, or one whose meta differs from the module's, starts afresh.
    fn cell(
        &self,
        fingerprint: u128,
        module: &Module,
        target: &dyn Target,
    ) -> Arc<OnceLock<InliningConfiguration>> {
        let meta = cache_meta(module, target.name());
        let mut state = self.lock();
        state.tick += 1;
        let tick = state.tick;
        if let Some(entry) = state.entries.get_mut(&fingerprint) {
            if entry.meta == meta {
                entry.last_used = tick;
                return Arc::clone(&entry.cell);
            }
        }
        let cell = Arc::new(OnceLock::new());
        let bytes = ENTRY_BYTES + meta.len() + module.inlinable_sites().len() * DECISION_BYTES;
        let entry = Entry { meta, cell: Arc::clone(&cell), last_used: tick, bytes };
        if let Some(replaced) = state.entries.insert(fingerprint, entry) {
            state.bytes -= replaced.bytes;
        }
        state.bytes += bytes;
        state.evict(self.cap_bytes);
        cell
    }
}

impl MapState {
    /// Drops least recently used entries until the charges fit `cap`.
    fn evict(&mut self, cap: usize) {
        while self.bytes > cap {
            let Some(lru) = self.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(&k, _)| k)
            else {
                break;
            };
            if let Some(entry) = self.entries.remove(&lru) {
                self.bytes -= entry.bytes;
                self.evictions += 1;
            }
        }
    }
}

/// Executes daemon requests by running the CLI's own subcommand bodies,
/// with the daemon's cache policy applied to every request.
pub struct CliHandler {
    /// The daemon's cache directory and budget, applied to every request.
    local: LocalSettings,
    /// Held for the daemon's lifetime so the shared store persists across
    /// requests instead of closing after each one.
    store: Option<Arc<LocalStore>>,
    /// The heuristic's decisions per module, kept across requests.
    heuristics: Arc<HeuristicMap>,
}

impl std::fmt::Debug for CliHandler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CliHandler").field("local", &self.local).finish_non_exhaustive()
    }
}

impl CliHandler {
    /// Opens the daemon's store (if a cache directory is configured) and
    /// wraps it in a handler.
    pub fn new(
        cache_dir: Option<PathBuf>,
        cache_budget_bytes: Option<u64>,
    ) -> Result<CliHandler, CliError> {
        let store = match &cache_dir {
            Some(dir) => Some(LocalStore::shared(dir)?),
            None => None,
        };
        let heuristics = Arc::new(HeuristicMap::with_cap(HEURISTIC_MAP_BYTES));
        let local = LocalSettings { cache_dir, cache_budget_bytes, ..LocalSettings::default() };
        Ok(CliHandler { local, store, heuristics })
    }

    /// The handler's warm heuristic map, shared so that its counters can
    /// be read while the handler serves and after the daemon exits.
    pub fn heuristics(&self) -> Arc<HeuristicMap> {
        Arc::clone(&self.heuristics)
    }
}

impl Handler for CliHandler {
    fn handle(&self, kind: &RequestKind, progress: &dyn Fn(&str)) -> Result<Reply, String> {
        progress(&format!("evaluating {}", kind.name()));
        Evaluation::decode(kind, &self.local)
            .and_then(|request| request.run(Some(&self.heuristics)))
            .map_err(|e| e.to_string())
    }

    /// Drain-time flush: commit every scope's write-back buffer before the
    /// daemon exits, so batched puts survive the daemon going away (the
    /// store half of the lost-write bugfix).
    fn drained(&self) {
        if let Some(store) = &self.store {
            if let Err(e) = store.flush_all() {
                eprintln!("[serve] store flush on drain failed: {e}");
            }
        }
    }
}

/// Binds a daemon with the CLI's handler to `config`'s endpoint, and
/// returns it with the handler's heuristic map.
fn bind(config: ServeConfig) -> Result<(Server, Arc<HeuristicMap>), CliError> {
    let handler = CliHandler::new(config.cache_dir, config.cache_budget_bytes)?;
    let heuristics = handler.heuristics();
    let mut opts =
        ServeOptions { max_concurrent: config.max_concurrent, ..ServeOptions::default() };
    if config.queue_capacity > 0 {
        opts.queue_capacity = config.queue_capacity;
    }
    Ok((Server::bind(config.endpoint, Box::new(handler), opts)?, heuristics))
}

/// Boots a daemon on a background thread and returns its handle —
/// the building block tests and the equivalence oracle drive directly.
pub fn start_daemon(config: ServeConfig) -> Result<ServerHandle, CliError> {
    Ok(bind(config)?.0.start())
}

/// `optinline serve` — runs the daemon on the calling thread until a
/// `shutdown` request or SIGTERM/SIGINT drains it; returns the final
/// stats report: the server's counters, then the heuristic map's.
pub fn cmd_serve(config: ServeConfig) -> Result<String, CliError> {
    let endpoint = config.endpoint.clone();
    let (server, heuristics) = bind(config)?;
    let server = server.drain_on(install_drain_handler());
    eprintln!("[serve] listening on {endpoint}");
    let stats = server.run()?;
    let mut out = render_server_stats(&stats);
    let warm = heuristics.stats();
    let _ = writeln!(out, "heuristic entries:   {}", warm.entries);
    let _ = writeln!(out, "heuristic hits:      {}", warm.hits);
    let _ = writeln!(out, "heuristic misses:    {}", warm.misses);
    let _ = writeln!(out, "heuristic evictions: {}", warm.evictions);
    Ok(out)
}

/// Renders final daemon counters, one per line.
pub fn render_server_stats(stats: &ServerStats) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "accepted:      {}", stats.accepted);
    let _ = writeln!(out, "rejected:      {}", stats.rejected);
    let _ = writeln!(out, "evaluations:   {}", stats.evaluations);
    let _ = writeln!(out, "dedup joined:  {}", stats.dedup_joined);
    let _ = writeln!(out, "completed:     {}", stats.completed);
    let _ = writeln!(out, "errors:        {}", stats.errors);
    let _ = writeln!(out, "shed deadline: {}", stats.shed_deadline);
    let _ = writeln!(out, "cancelled:     {}", stats.cancelled);
    let _ = writeln!(out, "peak conns:    {}", stats.peak_connections);
    let _ = writeln!(out, "slow readers:  {}", stats.slow_reader_disconnects);
    let _ = writeln!(out, "poll wakeups:  {}", stats.poll_wakeups);
    out
}

/// Tries to serve `kind` through the daemon at `endpoint`.
///
/// `Ok(None)` means no daemon answered or the daemon is going away
/// (connect failure after the configured retries, or a typed
/// `rejected{draining}` refusal) — the caller should run in-process,
/// the terminal degradation. Daemon-side failures after a successful
/// admit are real errors, not fallbacks, so a half-broken daemon cannot
/// silently double the work; in particular a `rejected{deadline}` means
/// the caller's own queue-time budget expired and retrying locally
/// would only blow past it further.
pub fn remote_call(
    endpoint: &Endpoint,
    kind: RequestKind,
    config: &ClientConfig,
) -> Result<Option<Outcome>, CliError> {
    let mut client = match Client::connect_with(endpoint, config.clone()) {
        Ok(client) => client,
        Err(ClientError::Connect(e)) => {
            eprintln!("[no daemon at {endpoint} ({e}); running in-process]");
            return Ok(None);
        }
        Err(e) => return Err(e.to_string().into()),
    };
    match client.call(kind, &mut |note| eprintln!("[daemon] {note}")) {
        Ok(outcome) => Ok(Some(outcome)),
        Err(ClientError::Rejected(reason)) if reason == "draining" => {
            eprintln!("[daemon at {endpoint} is draining; running in-process]");
            Ok(None)
        }
        Err(e) => Err(e.to_string().into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cmd_gen, load_module};
    use optinline_codegen::X86Like;
    use optinline_core::domain_fingerprint;
    use optinline_opt::PipelineOptions;

    fn module(seed: u64) -> Module {
        load_module(&cmd_gen(seed, 5, 2).expect("generation succeeds")).expect("generated IR loads")
    }

    fn fingerprint(m: &Module) -> u128 {
        domain_fingerprint(m, &X86Like, PipelineOptions::default())
    }

    fn decided(m: &Module) -> InliningConfiguration {
        StrategyChoice::Heuristic.configuration(m, &X86Like)
    }

    fn stats(entries: u64, hits: u64, misses: u64, evictions: u64) -> HeuristicStats {
        HeuristicStats { entries, hits, misses, evictions }
    }

    #[test]
    fn a_forged_fingerprint_replaces_the_entry_instead_of_serving_it() {
        let (a, b) = (module(11), module(12));
        assert_ne!(decided(&a), decided(&b), "the two modules must decide differently");
        let map = HeuristicMap::with_cap(HEURISTIC_MAP_BYTES);
        let forged = fingerprint(&a);
        assert_eq!(map.configuration(forged, &a, &X86Like), decided(&a));
        // b under a's key: the metas differ, so the entry starts afresh.
        assert_eq!(map.configuration(forged, &b, &X86Like), decided(&b));
        assert_eq!(map.stats(), stats(1, 0, 2, 0));
        assert_eq!(map.configuration(forged, &b, &X86Like), decided(&b));
        assert_eq!(map.configuration(forged, &a, &X86Like), decided(&a));
        assert_eq!(map.stats(), stats(1, 1, 3, 0));
    }

    #[test]
    fn the_byte_cap_evicts_the_least_recently_used_entry_first() {
        let [a, b, c] = [11, 12, 13].map(module);
        let charge = |m: &Module| {
            let map = HeuristicMap::with_cap(usize::MAX);
            map.configuration(fingerprint(m), m, &X86Like);
            let bytes = map.lock().bytes;
            bytes
        };
        // Room for a and either other module, not for all three.
        let cap = charge(&a) + charge(&b).max(charge(&c));
        let map = HeuristicMap::with_cap(cap);
        let look =
            |m: &Module| assert_eq!(map.configuration(fingerprint(m), m, &X86Like), decided(m));
        look(&a);
        look(&b);
        look(&a);
        // a was used after b, so c's entry pushes b out.
        look(&c);
        assert_eq!(map.stats(), stats(2, 1, 3, 1));
        look(&a);
        // b is computed again and pushes out c, now the least recent.
        look(&b);
        assert_eq!(map.stats(), stats(2, 2, 4, 2));
        look(&a);
        assert_eq!(map.stats(), stats(2, 3, 4, 2));
        assert!(map.lock().bytes <= cap);
    }
}
