//! The client half: dial an endpoint, stream events for one request at a
//! time. Connection failure is a distinct error variant so callers (the
//! CLI's `--connect` mode) can transparently fall back to in-process
//! evaluation when no daemon answers.
//!
//! # Failure handling
//!
//! Dial and mid-stream failures are classified: *transient* kinds
//! (timeouts, resets, broken pipes — the daemon restarting or the
//! network hiccuping) are retried up to [`ClientConfig::retries`] times
//! with capped exponential backoff, while *permanent* kinds
//! (`ConnectionRefused`, a missing socket file) fail immediately so the
//! in-process fallback stays fast when no daemon exists at all.
//!
//! Backoff jitter is **deterministic** — a hash of endpoint, attempt,
//! and a caller seed, not wall-clock randomness — so a chaos run
//! replays identically from its seed.
//!
//! Re-sending a request after a mid-stream retry is safe by
//! construction: evaluations are deterministic and the daemon dedups
//! identical in-flight requests, so a duplicate send converges on the
//! same bytes and at most one evaluation.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::time::Duration;

use crate::net::{Endpoint, Stream};
use crate::proto::{self, Event, Request, RequestKind, ServerStats};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// No daemon answered at the endpoint (after any configured
    /// retries). The caller should fall back to in-process evaluation.
    Connect(std::io::Error),
    /// The connection died mid-conversation (after it was established).
    Io(std::io::Error),
    /// The daemon reported an evaluation error.
    Remote(String),
    /// The daemon refused the request with a typed `rejected` event
    /// (`draining`, `deadline`, or `cancelled`).
    Rejected(String),
    /// The daemon sent something outside the protocol.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "cannot reach daemon: {e}"),
            ClientError::Io(e) => write!(f, "connection to daemon lost: {e}"),
            ClientError::Remote(msg) => write!(f, "daemon error: {msg}"),
            ClientError::Rejected(reason) => write!(f, "daemon rejected the request: {reason}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Errors worth retrying: the daemon (or network) may recover. Notably
/// absent: `ConnectionRefused` and `NotFound` — nothing is listening,
/// so retrying only delays the in-process fallback.
fn transient(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::*;
    matches!(
        e.kind(),
        TimedOut
            | WouldBlock
            | ConnectionReset
            | ConnectionAborted
            | BrokenPipe
            | UnexpectedEof
            | Interrupted
    )
}

/// Client-side robustness knobs. The default is the legacy behavior:
/// no timeouts, no retries, no deadline.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Bound on each dial attempt (TCP only; Unix connects don't block).
    pub connect_timeout: Option<Duration>,
    /// Bound on each silent stretch of the event stream.
    pub read_timeout: Option<Duration>,
    /// Queue-time budget attached to every request sent through this
    /// client; the daemon sheds work still queued past it.
    pub deadline_ms: Option<u64>,
    /// How many times a *transient* dial or mid-stream failure is
    /// retried before giving up.
    pub retries: u32,
    /// First backoff delay; doubles per attempt.
    pub retry_base: Duration,
    /// Backoff ceiling.
    pub retry_cap: Duration,
    /// Seed for the deterministic backoff jitter.
    pub retry_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: None,
            read_timeout: None,
            deadline_ms: None,
            retries: 0,
            retry_base: Duration::from_millis(50),
            retry_cap: Duration::from_secs(2),
            retry_seed: 0,
        }
    }
}

/// The final answer to one evaluation request, plus what the event stream
/// revealed about how it was served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Rendered report text, byte-identical to an in-process run.
    pub report: String,
    /// Optimized module text, for request kinds that produce one.
    pub module: Option<String>,
    /// The winning measurement, when the daemon reported one.
    pub measurement: Option<optinline_ir::Measurement>,
    /// True if this request joined an evaluation another request started.
    pub deduped: bool,
    /// True if this request's event carried the freshly computed result
    /// (the leader); false for fan-out copies.
    pub evaluated: bool,
}

/// What the event stream has revealed so far about one pipelined request
/// that has not been [`finish`](Client::finish)ed yet.
#[derive(Debug, Default)]
struct Pending {
    deduped: bool,
    /// A terminal event that arrived while the caller was waiting on a
    /// *different* pipelined request.
    terminal: Option<Event>,
}

/// One connection to a running daemon.
#[derive(Debug)]
pub struct Client {
    endpoint: Endpoint,
    config: ClientConfig,
    reader: BufReader<Stream>,
    writer: Stream,
    next_id: u64,
    /// How many times this client has dialed (1 after connect; +1 per
    /// reconnect). A sequential request loop over one healthy daemon
    /// must leave this at 1 — the persistent-reuse regression guard.
    dials: u64,
    /// Requests started but not yet finished, for the pipelined API.
    pending: HashMap<u64, Pending>,
}

/// FNV-1a over the jitter inputs: the deterministic randomness source
/// for backoff spreading.
fn jitter_hash(endpoint: &Endpoint, seed: u64, attempt: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in endpoint.to_string().bytes().chain(attempt.to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Client {
    /// Dials the daemon with legacy behavior (no timeouts, no retries).
    /// Failure here is [`ClientError::Connect`] — the
    /// fall-back-to-in-process signal.
    pub fn connect(endpoint: &Endpoint) -> Result<Client, ClientError> {
        Client::connect_with(endpoint, ClientConfig::default())
    }

    /// Dials the daemon under `config`: each attempt is bounded by the
    /// connect timeout, and transient failures are retried with capped
    /// exponential backoff and deterministic jitter. Permanent failures
    /// (nothing listening) return immediately.
    pub fn connect_with(endpoint: &Endpoint, config: ClientConfig) -> Result<Client, ClientError> {
        let mut attempt = 0u32;
        let stream = loop {
            match Stream::connect_timeout(endpoint, config.connect_timeout) {
                Ok(stream) => break stream,
                Err(e) if attempt < config.retries && transient(&e) => {
                    attempt += 1;
                    std::thread::sleep(backoff_delay(endpoint, &config, attempt));
                }
                Err(e) => return Err(ClientError::Connect(e)),
            }
        };
        stream.set_read_timeout(config.read_timeout).map_err(ClientError::Connect)?;
        let read_half = stream.try_clone().map_err(ClientError::Connect)?;
        Ok(Client {
            endpoint: endpoint.clone(),
            config,
            reader: BufReader::new(read_half),
            writer: stream,
            next_id: 1,
            dials: 1,
            pending: HashMap::new(),
        })
    }

    /// How many times this client has dialed the endpoint (the initial
    /// connect counts as one). Sequential requests over a healthy daemon
    /// reuse the connection, so this stays at 1 unless a mid-stream
    /// retry had to reconnect.
    pub fn dials(&self) -> u64 {
        self.dials
    }

    /// Replaces this client's connection with a freshly dialed one
    /// (single attempt — the caller's retry loop owns the budget).
    fn reconnect(&mut self) -> Result<(), ClientError> {
        let stream = Stream::connect_timeout(&self.endpoint, self.config.connect_timeout)
            .map_err(ClientError::Connect)?;
        stream.set_read_timeout(self.config.read_timeout).map_err(ClientError::Connect)?;
        let read_half = stream.try_clone().map_err(ClientError::Connect)?;
        self.reader = BufReader::new(read_half);
        self.writer = stream;
        self.dials += 1;
        // Events for pipelined requests sent on the old connection can
        // never arrive now; their `finish` calls must fail, not hang.
        self.pending.clear();
        Ok(())
    }

    fn send(&mut self, kind: RequestKind) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let request = Request { id, kind, deadline_ms: self.config.deadline_ms };
        let line = proto::encode_request(&request);
        self.writer.write_all(line.as_bytes()).map_err(ClientError::Io)?;
        self.writer.write_all(b"\n").map_err(ClientError::Io)?;
        self.writer.flush().map_err(ClientError::Io)?;
        Ok(id)
    }

    fn read_event(&mut self) -> Result<Event, ClientError> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line).map_err(ClientError::Io)?;
            if n == 0 {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                )));
            }
            if line.trim().is_empty() {
                continue;
            }
            return proto::decode_event(line.trim_end()).map_err(ClientError::Protocol);
        }
    }

    /// Sends one evaluation request and streams its events until `done`,
    /// `error`, or `rejected`. Progress notes are handed to `progress`
    /// as they arrive. A transient mid-stream failure reconnects and
    /// re-sends (safe: deterministic evaluations + server-side dedup)
    /// until the retry budget runs out.
    pub fn call(
        &mut self,
        kind: RequestKind,
        progress: &mut dyn FnMut(&str),
    ) -> Result<Outcome, ClientError> {
        let mut attempt = 0u32;
        loop {
            match self.call_once(kind.clone(), progress) {
                Err(ClientError::Io(e)) if attempt < self.config.retries && transient(&e) => {
                    attempt += 1;
                    std::thread::sleep(backoff_delay(&self.endpoint, &self.config, attempt));
                    self.reconnect()?;
                }
                other => return other,
            }
        }
    }

    fn call_once(
        &mut self,
        kind: RequestKind,
        progress: &mut dyn FnMut(&str),
    ) -> Result<Outcome, ClientError> {
        let id = self.send(kind)?;
        let mut deduped = false;
        loop {
            match self.read_event()? {
                Event::Queued { id: eid } if eid == id => {}
                Event::Started { id: eid, deduped: d } if eid == id => deduped = d,
                Event::Progress { id: eid, note } if eid == id => progress(&note),
                Event::Done { id: eid, report, module, measurement, evaluated } if eid == id => {
                    return Ok(Outcome { report, module, measurement, deduped, evaluated });
                }
                Event::Error { id: eid, message } if eid == id => {
                    return Err(ClientError::Remote(message));
                }
                Event::Rejected { id: eid, reason } if eid == id => {
                    return Err(ClientError::Rejected(reason));
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected event for request {id}: {other:?}"
                    )));
                }
            }
        }
    }

    /// Sends one request without waiting for its answer, so many
    /// requests can ride one connection back-to-back (the load-generator
    /// path). Returns the request id to pass to [`Client::finish`].
    ///
    /// Only `ping` and evaluation kinds may be pipelined; interleave no
    /// [`Client::call`] / [`Client::ping`] / [`Client::server_stats`]
    /// while pipelined requests are outstanding — those read the stream
    /// directly and would trip over the out-of-order events.
    pub fn start(&mut self, kind: RequestKind) -> Result<u64, ClientError> {
        let id = self.send(kind)?;
        self.pending.insert(id, Pending::default());
        Ok(id)
    }

    /// Waits for the terminal answer to a pipelined request. Terminal
    /// events for *other* outstanding requests that arrive meanwhile are
    /// parked and handed out by their own `finish` calls, so completion
    /// order does not have to match send order. Returns `None` for a
    /// `ping` (its terminal is `pong`), the outcome otherwise.
    pub fn finish(
        &mut self,
        id: u64,
        progress: &mut dyn FnMut(&str),
    ) -> Result<Option<Outcome>, ClientError> {
        loop {
            let Some(state) = self.pending.get_mut(&id) else {
                return Err(ClientError::Protocol(format!("request {id} is not in flight")));
            };
            if let Some(terminal) = state.terminal.take() {
                let deduped = state.deduped;
                self.pending.remove(&id);
                return match terminal {
                    Event::Pong { .. } => Ok(None),
                    Event::Done { report, module, measurement, evaluated, .. } => {
                        Ok(Some(Outcome { report, module, measurement, deduped, evaluated }))
                    }
                    Event::Error { message, .. } => Err(ClientError::Remote(message)),
                    Event::Rejected { reason, .. } => Err(ClientError::Rejected(reason)),
                    other => Err(ClientError::Protocol(format!(
                        "unexpected terminal for request {id}: {other:?}"
                    ))),
                };
            }
            match self.read_event()? {
                Event::Queued { .. } => {}
                Event::Started { id: eid, deduped } => {
                    if let Some(p) = self.pending.get_mut(&eid) {
                        p.deduped = deduped;
                    }
                }
                Event::Progress { id: eid, note } => {
                    if eid == id {
                        progress(&note);
                    }
                }
                terminal @ (Event::Pong { .. }
                | Event::Done { .. }
                | Event::Error { .. }
                | Event::Rejected { .. }) => {
                    if let Some(p) = self.pending.get_mut(&terminal.id()) {
                        p.terminal = Some(terminal);
                    }
                    // An untracked id is stale fan-out from before a
                    // reconnect; ignoring it keeps the stream in sync.
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected event while pipelining: {other:?}"
                    )));
                }
            }
        }
    }

    /// Round-trips a `ping`.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let id = self.send(RequestKind::Ping)?;
        match self.read_event()? {
            Event::Pong { id: eid } if eid == id => Ok(()),
            other => Err(ClientError::Protocol(format!("expected pong, got {other:?}"))),
        }
    }

    /// Fetches a live snapshot of the daemon's counters.
    pub fn server_stats(&mut self) -> Result<ServerStats, ClientError> {
        let id = self.send(RequestKind::Stats)?;
        match self.read_event()? {
            Event::Stats { id: eid, stats } if eid == id => Ok(stats),
            other => Err(ClientError::Protocol(format!("expected stats, got {other:?}"))),
        }
    }

    /// Asks the daemon to drain and exit. Returns once the daemon has
    /// acknowledged (it finishes in-flight work after that).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let id = self.send(RequestKind::Shutdown)?;
        match self.read_event()? {
            Event::ShuttingDown { id: eid } if eid == id => Ok(()),
            other => Err(ClientError::Protocol(format!("expected shutting_down, got {other:?}"))),
        }
    }
}

/// Attempt `n`'s delay: `base * 2^(n-1)` capped at `retry_cap`, then
/// jittered into `[d/2, d]` by the deterministic hash — enough spread to
/// decorrelate a thundering herd, zero dependence on wall-clock entropy.
fn backoff_delay(endpoint: &Endpoint, config: &ClientConfig, attempt: u32) -> Duration {
    let base = config.retry_base.as_millis() as u64;
    let cap = config.retry_cap.as_millis() as u64;
    let exp = base.saturating_mul(1u64 << (attempt - 1).min(20)).min(cap).max(1);
    let jitter = jitter_hash(endpoint, config.retry_seed, attempt) % (exp / 2 + 1);
    Duration::from_millis(exp / 2 + jitter)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_exponential_and_deterministic() {
        let endpoint = Endpoint::Tcp("127.0.0.1:1".into());
        let config = ClientConfig {
            retry_base: Duration::from_millis(50),
            retry_cap: Duration::from_millis(400),
            retry_seed: 7,
            ..ClientConfig::default()
        };
        let delays: Vec<Duration> = (1..=6).map(|n| backoff_delay(&endpoint, &config, n)).collect();
        assert_eq!(
            delays,
            (1..=6).map(|n| backoff_delay(&endpoint, &config, n)).collect::<Vec<_>>()
        );
        for (i, d) in delays.iter().enumerate() {
            let exp = (50u64 << i).min(400);
            assert!(d.as_millis() as u64 >= exp / 2, "attempt {} under half", i + 1);
            assert!(d.as_millis() as u64 <= exp, "attempt {} over cap", i + 1);
        }
        let other_seed = ClientConfig { retry_seed: 8, ..config.clone() };
        assert_ne!(
            (1..=6).map(|n| backoff_delay(&endpoint, &other_seed, n)).collect::<Vec<_>>(),
            delays,
            "different seeds jitter differently"
        );
    }

    #[test]
    fn refused_connections_are_not_transient() {
        let refused = std::io::Error::from(std::io::ErrorKind::ConnectionRefused);
        assert!(!transient(&refused), "nothing listening: fall back immediately");
        let timeout = std::io::Error::from(std::io::ErrorKind::TimedOut);
        assert!(transient(&timeout), "a slow daemon is worth retrying");
    }
}
