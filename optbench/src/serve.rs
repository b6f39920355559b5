//! The served workloads' harness: an in-process daemon and closed-loop
//! clients. Callers of `optinline --connect` wait for each reply before
//! sending the next request, so each client connection is a closed loop.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use optinline_cli::serve::{start_daemon, ServeConfig};
use optinline_serve::{Client, Endpoint, Handler, ServeOptions, Server, ServerHandle, ServerStats};
use optinline_store::LocalStore;

use crate::inputs::{Answer, Item};

/// Client connections (and client threads): two, or fewer on a machine
/// with fewer cores, so load never comes from more threads than cores.
pub fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// A daemon running on a background thread of this process, with the
/// closed-loop client connections that load it.
pub struct Daemon {
    handle: ServerHandle,
    pub clients: Vec<Client>,
    pub cache_dir: PathBuf,
}

impl Daemon {
    /// `optinline serve` as `start_daemon` boots it: the CLI's handler,
    /// default queue and slots, one store under `cache_dir`.
    pub fn start_cli(cache_dir: &Path, socket: &Path) -> Result<Daemon, String> {
        let endpoint = Endpoint::Unix(socket.to_path_buf());
        let config = ServeConfig {
            endpoint: endpoint.clone(),
            cache_dir: Some(cache_dir.to_path_buf()),
            ..ServeConfig::default()
        };
        let handle = start_daemon(config).map_err(|e| format!("daemon start failed: {e}"))?;
        Daemon::connected(handle, &endpoint, cache_dir)
    }

    /// A daemon over any handler, with `start_daemon`'s default options.
    pub fn start_with(
        handler: impl Handler,
        cache_dir: &Path,
        socket: &Path,
    ) -> Result<Daemon, String> {
        let endpoint = Endpoint::Unix(socket.to_path_buf());
        let server = Server::bind(endpoint.clone(), Box::new(handler), ServeOptions::default())
            .map_err(|e| format!("daemon bind failed: {e}"))?;
        Daemon::connected(server.start(), &endpoint, cache_dir)
    }

    fn connected(
        handle: ServerHandle,
        endpoint: &Endpoint,
        cache_dir: &Path,
    ) -> Result<Daemon, String> {
        let clients = (0..connections())
            .map(|_| Client::connect(endpoint).map_err(|e| format!("connect failed: {e}")))
            .collect::<Result<_, _>>()?;
        Ok(Daemon { handle, clients, cache_dir: cache_dir.to_path_buf() })
    }

    pub fn stats(&self) -> ServerStats {
        self.handle.stats()
    }

    /// Closes the client connections, drains the daemon, waits for its
    /// threads, and returns its final counters.
    pub fn stop(self) -> Result<ServerStats, String> {
        drop(self.clients);
        self.handle.drain();
        self.handle.join().map_err(|e| format!("daemon exited with an error: {e}"))
    }
}

/// The daemon's ledger problems, if any: every accepted request must end
/// as exactly one of completed, error, shed or cancelled.
pub fn ledger_problem(s: &ServerStats) -> Option<String> {
    let ended = s.completed + s.errors + s.shed_deadline + s.cancelled;
    (s.accepted != ended).then(|| {
        format!(
            "server ledger does not balance: accepted {} != completed {} + errors {} + shed {} \
             + cancelled {}",
            s.accepted, s.completed, s.errors, s.shed_deadline, s.cancelled
        )
    })
}

/// Damage `verify` finds in the store under `dir`, if any.
pub fn store_problem(dir: &Path) -> Option<String> {
    match LocalStore::shared(dir).and_then(|s| s.verify()) {
        Ok(report) if report.clean() => None,
        Ok(report) => Some(format!(
            "store verify: {} malformed lines, {} unreadable logs",
            report.malformed_lines, report.unreadable_logs
        )),
        Err(e) => Some(format!("store verify failed: {e}")),
    }
}

/// One request as a client saw it.
#[derive(Debug)]
pub struct Exchange {
    pub index: usize,
    pub sent: Instant,
    pub done: Instant,
    pub result: Result<Answer, String>,
}

/// Sends `items` over `clients`, each connection a closed loop taking the
/// next unsent item when its previous reply is in.
pub fn drive(clients: &mut [Client], items: &[Item]) -> Vec<Exchange> {
    let cursor = Arc::new(AtomicUsize::new(0));
    let mut out: Vec<Exchange> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let cursor = cursor.clone();
                s.spawn(move || {
                    let mut seen = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(index) else { break };
                        let kind = item.request_kind();
                        let sent = Instant::now();
                        let result = client
                            .call(kind, &mut |_| {})
                            .map(|o| (o.report, o.measurement))
                            .map_err(|e| e.to_string());
                        seen.push(Exchange { index, sent, done: Instant::now(), result });
                    }
                    seen
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("client thread panicked")).collect()
    });
    out.sort_by_key(|e| e.index);
    out
}
