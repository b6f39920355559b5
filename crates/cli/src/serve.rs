//! `optinline serve` — the daemon side — and the `--connect` client side.
//!
//! The daemon is the CLI's own subcommands behind a socket: requests are
//! executed by [`CliHandler`], which calls the very same `cmd_optimize` /
//! `cmd_search` / `cmd_autotune` functions the in-process paths use, so a
//! served answer is byte-identical to a local one by construction. The
//! daemon owns the cache policy: every request shares one persistent
//! store handle (`--cache-dir`), making the daemon a multi-tenant cache
//! tier — clients do not send cache flags over the wire.

use std::path::PathBuf;
use std::sync::Arc;

use optinline_serve::{
    install_drain_handler, Client, ClientConfig, ClientError, Endpoint, Handler, Outcome, Reply,
    RequestKind, ServeOptions, Server, ServerHandle, ServerStats,
};
use optinline_store::LocalStore;

use crate::{
    cmd_autotune_measured, cmd_optimize_measured, cmd_search_measured, CliError, EvalOptions,
    InitChoice, Objective, OptimizeOptions, StrategyChoice, TargetChoice,
};

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
    /// Evaluation workers the daemon starts (`--max-concurrent`), so the
    /// most evaluations running at once; 0 sizes from the worker pool.
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

/// Executes daemon requests by calling the CLI's own subcommand
/// functions, with the daemon's cache policy applied to every request.
pub struct CliHandler {
    cache_dir: Option<PathBuf>,
    cache_budget_bytes: Option<u64>,
    /// Held for the daemon's lifetime so the shared store (and its index)
    /// persists across requests instead of closing after each one.
    store: Option<Arc<LocalStore>>,
}

impl std::fmt::Debug for CliHandler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CliHandler").field("cache_dir", &self.cache_dir).finish_non_exhaustive()
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
        Ok(CliHandler { cache_dir, cache_budget_bytes, store })
    }

    fn eval_options(
        &self,
        incremental: bool,
        stats: bool,
        pass_stats: bool,
        objective: Objective,
    ) -> EvalOptions {
        EvalOptions {
            incremental,
            show_stats: stats,
            show_pass_stats: pass_stats,
            jobs: None,
            cache_dir: self.cache_dir.clone(),
            no_persist: false,
            cache_budget_bytes: self.cache_budget_bytes,
            objective,
        }
    }
}

/// Parses a wire-format objective spelling. The decode layer only checks
/// that the field is a string, so an unknown spelling is refused here,
/// with an `error` event.
fn parse_objective(s: &str) -> Result<Objective, String> {
    Objective::parse(s)
        .ok_or_else(|| format!("unknown objective `{s}` (expected size|speed|pareto)"))
}

impl Handler for CliHandler {
    fn handle(&self, kind: &RequestKind, progress: &dyn Fn(&str)) -> Result<Reply, String> {
        progress(&format!("evaluating {}", kind.name()));
        let as_msg = |e: CliError| e.to_string();
        match kind {
            RequestKind::Optimize {
                source,
                target,
                strategy,
                full_sweep,
                pass_stats,
                objective,
            } => {
                if *full_sweep {
                    return Err("the full-sweep scheduler was removed: optimize always drains \
                                the change-driven worklist"
                        .to_string());
                }
                let strategy = StrategyChoice::parse(strategy).map_err(as_msg)?;
                let target = TargetChoice::parse(target).map_err(as_msg)?;
                let objective = parse_objective(objective)?;
                let opts = OptimizeOptions { pass_stats: *pass_stats, objective };
                let (report, module, measurement) =
                    cmd_optimize_measured(source, strategy, target, opts).map_err(as_msg)?;
                Ok(Reply { report, module: Some(module), measurement: Some(measurement) })
            }
            RequestKind::Search {
                source,
                target,
                bits,
                full_eval,
                stats,
                pass_stats,
                objective,
            } => {
                let target = TargetChoice::parse(target).map_err(as_msg)?;
                let objective = parse_objective(objective)?;
                let eval = self.eval_options(!*full_eval, *stats, *pass_stats, objective);
                let (report, measurement) =
                    cmd_search_measured(source, *bits, target, eval).map_err(as_msg)?;
                Ok(Reply { report, module: None, measurement })
            }
            RequestKind::Autotune {
                source,
                target,
                rounds,
                init,
                full_eval,
                stats,
                pass_stats,
                objective,
            } => {
                let target = TargetChoice::parse(target).map_err(as_msg)?;
                let init = InitChoice::parse(init).map_err(as_msg)?;
                let objective = parse_objective(objective)?;
                let eval = self.eval_options(!*full_eval, *stats, *pass_stats, objective);
                let (report, measurement) =
                    cmd_autotune_measured(source, *rounds as usize, init, target, eval)
                        .map_err(as_msg)?;
                Ok(Reply { report, module: None, measurement })
            }
            other => Err(format!("request kind {:?} is not evaluable", other.name())),
        }
    }

    /// Drain-time flush: commit every scope's write-back buffer and the
    /// index before the daemon exits, so batched puts survive the daemon
    /// going away (the store half of the lost-write bugfix).
    fn drained(&self) {
        if let Some(store) = &self.store {
            if let Err(e) = store.flush_all() {
                eprintln!("[serve] store flush on drain failed: {e}");
            }
        }
    }
}

/// Binds a daemon with the CLI's handler to `config`'s endpoint.
fn bind(config: ServeConfig) -> Result<Server, CliError> {
    let handler = CliHandler::new(config.cache_dir, config.cache_budget_bytes)?;
    let mut opts =
        ServeOptions { max_concurrent: config.max_concurrent, ..ServeOptions::default() };
    if config.queue_capacity > 0 {
        opts.queue_capacity = config.queue_capacity;
    }
    Ok(Server::bind(config.endpoint, Box::new(handler), opts)?)
}

/// Boots a daemon on a background thread and returns its handle —
/// the building block tests and the equivalence oracle drive directly.
pub fn start_daemon(config: ServeConfig) -> Result<ServerHandle, CliError> {
    Ok(bind(config)?.start())
}

/// `optinline serve` — runs the daemon on the calling thread until a
/// `shutdown` request or SIGTERM/SIGINT drains it; returns the final
/// stats report.
pub fn cmd_serve(config: ServeConfig) -> Result<String, CliError> {
    let endpoint = config.endpoint.clone();
    let server = bind(config)?.drain_on(install_drain_handler());
    eprintln!("[serve] listening on {endpoint}");
    let stats = server.run()?;
    Ok(render_server_stats(&stats))
}

/// Renders final daemon counters, one per line.
pub fn render_server_stats(stats: &ServerStats) -> String {
    use std::fmt::Write as _;
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
