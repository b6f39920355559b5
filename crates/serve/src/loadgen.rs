//! A deterministic closed-loop load generator for the daemon.
//!
//! `optinline loadgen` opens N persistent connections and keeps one
//! request outstanding on each: worker threads own disjoint slices of
//! the connections and run send-all / drain-all rounds through the
//! client's pipelined [`start`](Client::start)/[`finish`](Client::finish)
//! API, so concurrency equals the connection count without a thread per
//! connection on the *generator* side either.
//!
//! Determinism: the request mix is chosen by an FNV hash of
//! `(seed, connection, round)` — no wall-clock randomness — so a run is
//! replayable from its seed. Latency is measured per request from the
//! moment its line is written to the moment its terminal event is
//! decoded, and reported as percentiles across all requests.
//!
//! The report also snapshots the daemon's counters afterwards and checks
//! the accounting invariant (`accepted ==` [`ServerStats::terminal`]) —
//! with the generator's own load finished, an unbalanced ledger means the
//! server leaked a request.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crate::client::{Client, ClientConfig, ClientError};
use crate::net::Endpoint;
use crate::proto::{RequestKind, ServerStats};

/// Relative weights of the request kinds a load run issues.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadMix {
    /// Weight of `ping` requests (pure transport round-trips).
    pub ping: u32,
    /// Weight of `search` requests (real evaluations through the queue).
    pub search: u32,
}

impl LoadMix {
    /// Parses a mix spec: `ping`, `search`, or weighted pairs like
    /// `ping:9,search:1`.
    pub fn parse(s: &str) -> Result<LoadMix, String> {
        let mut mix = LoadMix { ping: 0, search: 0 };
        for part in s.split(',') {
            let part = part.trim();
            let (name, weight) = match part.split_once(':') {
                Some((name, w)) => {
                    (name, w.parse::<u32>().map_err(|_| format!("bad mix weight in {part:?}"))?)
                }
                None => (part, 1),
            };
            match name {
                "ping" => mix.ping += weight,
                "search" => mix.search += weight,
                other => return Err(format!("unknown mix kind {other:?} (expected ping|search)")),
            }
        }
        if mix.ping + mix.search == 0 {
            return Err("mix has zero total weight".to_string());
        }
        Ok(mix)
    }

    fn render(&self) -> String {
        format!("ping:{},search:{}", self.ping, self.search)
    }
}

/// Everything one load run needs.
#[derive(Clone, Debug)]
pub struct LoadgenOptions {
    /// Concurrent persistent connections to hold open.
    pub connections: usize,
    /// Total requests, distributed round-robin across connections.
    pub requests: u64,
    /// Worker threads driving the connections; 0 picks a default.
    pub threads: usize,
    /// Seed for the deterministic request-mix hash.
    pub seed: u64,
    /// Relative request-kind weights.
    pub mix: LoadMix,
    /// Module text for `search` requests (required if the mix includes
    /// any); the hash varies the bit budget so identities differ.
    pub search_source: Option<String>,
    /// Optional queue-time budget attached to evaluation requests.
    pub deadline_ms: Option<u64>,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            connections: 64,
            requests: 640,
            threads: 0,
            seed: 0,
            mix: LoadMix { ping: 1, search: 0 },
            search_source: None,
            deadline_ms: None,
        }
    }
}

/// The outcome of one load run.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Connections actually opened.
    pub connections: usize,
    /// Requests sent.
    pub sent: u64,
    /// Requests answered with `pong` or `done`.
    pub ok: u64,
    /// Requests answered with a typed `rejected` event.
    pub rejected: u64,
    /// Requests that failed (I/O, protocol, or remote errors).
    pub errors: u64,
    /// Total dials across all connections; equals `connections` when
    /// every connection was reused for its whole request share.
    pub dials: u64,
    /// Wall-clock of the request phase (excludes connecting).
    pub elapsed: Duration,
    /// Latency percentiles over successful requests, in microseconds.
    pub p50_us: u64,
    /// 90th percentile latency (µs).
    pub p90_us: u64,
    /// 99th percentile latency (µs).
    pub p99_us: u64,
    /// Worst observed latency (µs).
    pub max_us: u64,
    /// Mean latency (µs).
    pub mean_us: u64,
    /// Successful requests per second of elapsed request-phase time.
    pub throughput_rps: u64,
    /// Daemon counters snapshotted after the run (absent if the stats
    /// query failed, e.g. the daemon drained meanwhile).
    pub server: Option<ServerStats>,
}

impl LoadReport {
    /// Whether the daemon's ledger balances: every accepted request
    /// reached exactly one terminal counter. `None` if no stats
    /// snapshot was available.
    pub fn balanced(&self) -> Option<bool> {
        self.server.map(|s| s.accepted == s.terminal())
    }

    /// Renders the report in the stable, greppable key=value layout the
    /// CI load-smoke job and `results/perf_load.txt` consume.
    pub fn render(&self, opts: &LoadgenOptions) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "loadgen: connections={} requests={} threads={} seed={} mix={}",
            self.connections,
            opts.requests,
            effective_threads(opts),
            opts.seed,
            opts.mix.render(),
        );
        let _ = writeln!(
            out,
            "client: sent={} ok={} rejected={} errors={} dials={}",
            self.sent, self.ok, self.rejected, self.errors, self.dials
        );
        let _ = writeln!(
            out,
            "timing: elapsed_ms={} throughput_rps={}",
            self.elapsed.as_millis(),
            self.throughput_rps
        );
        let _ = writeln!(
            out,
            "latency_us: p50={} p90={} p99={} max={} mean={}",
            self.p50_us, self.p90_us, self.p99_us, self.max_us, self.mean_us
        );
        match &self.server {
            Some(s) => {
                let _ = writeln!(
                    out,
                    "server: accepted={} completed={} errors={} shed_deadline={} cancelled={} \
                     evaluations={} dedup_joined={} open_connections={} peak_connections={} \
                     slow_reader_disconnects={} poll_wakeups={}",
                    s.accepted,
                    s.completed,
                    s.errors,
                    s.shed_deadline,
                    s.cancelled,
                    s.evaluations,
                    s.dedup_joined,
                    s.open_connections,
                    s.peak_connections,
                    s.slow_reader_disconnects,
                    s.poll_wakeups
                );
                let _ = writeln!(
                    out,
                    "accounting: {}",
                    if self.balanced() == Some(true) { "balanced" } else { "UNBALANCED" }
                );
            }
            None => {
                let _ = writeln!(out, "server: unavailable");
            }
        }
        out
    }
}

/// FNV-1a over `(seed, connection, round)`: the only randomness source.
fn mix_hash(seed: u64, conn: u64, round: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in conn.to_le_bytes().into_iter().chain(round.to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn pick_kind(opts: &LoadgenOptions, conn: u64, round: u64) -> RequestKind {
    let h = mix_hash(opts.seed, conn, round);
    let total = opts.mix.ping + opts.mix.search;
    if (h % u64::from(total)) < u64::from(opts.mix.ping) {
        RequestKind::Ping
    } else {
        RequestKind::Search {
            source: opts.search_source.clone().unwrap_or_default(),
            target: "x86".to_string(),
            // A small spread of budgets so concurrent searches are not
            // all one dedup identity.
            bits: 10 + ((h >> 8) % 5) as u32,
            full_eval: false,
            stats: false,
            pass_stats: false,
            objective: "size".to_string(),
        }
    }
}

fn effective_threads(opts: &LoadgenOptions) -> usize {
    let conns = opts.connections.max(1);
    if opts.threads == 0 {
        conns.min(8)
    } else {
        opts.threads.min(conns)
    }
}

struct WorkerOut {
    latencies_us: Vec<u64>,
    sent: u64,
    ok: u64,
    rejected: u64,
    errors: u64,
    dials: u64,
    elapsed: Duration,
}

/// Runs one load against `endpoint` and reports what happened. Connect
/// failures are fatal (a load run needs its daemon); request failures
/// are counted, not fatal.
pub fn run(endpoint: &Endpoint, opts: &LoadgenOptions) -> Result<LoadReport, String> {
    if opts.mix.search > 0 && opts.search_source.is_none() {
        return Err("a mix with search requests needs a source module".to_string());
    }
    let conns = opts.connections.max(1);
    let threads = effective_threads(opts);
    let barrier = Arc::new(Barrier::new(threads));
    let opts = Arc::new(opts.clone());
    let endpoint = endpoint.clone();

    let mut handles = Vec::with_capacity(threads);
    for t in 0..threads {
        // Contiguous connection slices, as even as they divide.
        let lo = conns * t / threads;
        let hi = conns * (t + 1) / threads;
        let barrier = Arc::clone(&barrier);
        let opts = Arc::clone(&opts);
        let endpoint = endpoint.clone();
        let handle = std::thread::Builder::new()
            .name(format!("loadgen-{t}"))
            .spawn(move || worker(&endpoint, &opts, lo..hi, conns, &barrier))
            .map_err(|e| format!("spawn loadgen worker: {e}"))?;
        handles.push(handle);
    }

    let mut latencies = Vec::new();
    let mut report = LoadReport { connections: conns, ..LoadReport::default() };
    for handle in handles {
        let out = handle.join().map_err(|_| "loadgen worker panicked".to_string())??;
        latencies.extend(out.latencies_us);
        report.sent += out.sent;
        report.ok += out.ok;
        report.rejected += out.rejected;
        report.errors += out.errors;
        report.dials += out.dials;
        report.elapsed = report.elapsed.max(out.elapsed);
    }
    latencies.sort_unstable();
    report.p50_us = percentile(&latencies, 50);
    report.p90_us = percentile(&latencies, 90);
    report.p99_us = percentile(&latencies, 99);
    report.max_us = latencies.last().copied().unwrap_or(0);
    report.mean_us = if latencies.is_empty() {
        0
    } else {
        latencies.iter().sum::<u64>() / latencies.len() as u64
    };
    report.throughput_rps = if report.elapsed.as_micros() == 0 {
        0
    } else {
        (u128::from(report.ok) * 1_000_000 / report.elapsed.as_micros()) as u64
    };
    // One extra short-lived connection for the counters snapshot; its
    // dial is deliberately not part of `report.dials`.
    report.server = Client::connect(&endpoint).and_then(|mut c| c.server_stats()).ok();
    Ok(report)
}

/// One worker: connect its slice, then run send-all / drain-all rounds
/// until every connection has used up its request share.
fn worker(
    endpoint: &Endpoint,
    opts: &LoadgenOptions,
    slice: std::ops::Range<usize>,
    conns: usize,
    barrier: &Barrier,
) -> Result<WorkerOut, String> {
    let config = ClientConfig {
        connect_timeout: Some(Duration::from_secs(10)),
        read_timeout: Some(Duration::from_secs(60)),
        deadline_ms: opts.deadline_ms,
        ..ClientConfig::default()
    };
    // Per-connection share: requests distributed round-robin, so the
    // first `requests % connections` connections carry one extra.
    let share = |conn: usize| -> u64 {
        opts.requests / conns as u64 + u64::from((conn as u64) < opts.requests % conns as u64)
    };
    let mut clients: Vec<(u64, Client, u64)> = Vec::with_capacity(slice.len());
    for conn in slice {
        let client = Client::connect_with(endpoint, config.clone())
            .map_err(|e| format!("connection {conn}: {e}"))?;
        clients.push((conn as u64, client, share(conn)));
    }
    barrier.wait();

    let mut out = WorkerOut {
        latencies_us: Vec::new(),
        sent: 0,
        ok: 0,
        rejected: 0,
        errors: 0,
        dials: 0,
        elapsed: Duration::ZERO,
    };
    let started = Instant::now();
    let mut round = 0u64;
    let mut in_flight: Vec<(usize, u64, Instant)> = Vec::with_capacity(clients.len());
    loop {
        in_flight.clear();
        for (slot, (conn, client, remaining)) in clients.iter_mut().enumerate() {
            if *remaining == 0 {
                continue;
            }
            *remaining -= 1;
            out.sent += 1;
            let kind = pick_kind(opts, *conn, round);
            match client.start(kind) {
                Ok(id) => in_flight.push((slot, id, Instant::now())),
                Err(_) => out.errors += 1,
            }
        }
        if in_flight.is_empty() {
            break;
        }
        for &(slot, id, sent_at) in &in_flight {
            match clients[slot].1.finish(id, &mut |_| {}) {
                Ok(_) => {
                    out.ok += 1;
                    out.latencies_us.push(sent_at.elapsed().as_micros() as u64);
                }
                Err(ClientError::Rejected(_)) => out.rejected += 1,
                Err(_) => out.errors += 1,
            }
        }
        round += 1;
    }
    out.elapsed = started.elapsed();
    out.dials = clients.iter().map(|(_, c, _)| c.dials()).sum();
    Ok(out)
}

fn percentile(sorted: &[u64], q: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as u64 * q / 100) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_parses_bare_and_weighted_specs() {
        assert_eq!(LoadMix::parse("ping").unwrap(), LoadMix { ping: 1, search: 0 });
        assert_eq!(LoadMix::parse("search").unwrap(), LoadMix { ping: 0, search: 1 });
        assert_eq!(LoadMix::parse("ping:9,search:1").unwrap(), LoadMix { ping: 9, search: 1 });
        assert!(LoadMix::parse("ping:0").is_err(), "zero total weight is rejected");
        assert!(LoadMix::parse("fetch").is_err(), "unknown kinds are rejected");
    }

    #[test]
    fn kind_choice_is_deterministic_in_the_seed() {
        let opts = LoadgenOptions {
            mix: LoadMix { ping: 1, search: 1 },
            search_source: Some("module \"m\"".into()),
            seed: 42,
            ..LoadgenOptions::default()
        };
        let a: Vec<_> = (0..64).map(|r| pick_kind(&opts, 3, r).name().to_string()).collect();
        let b: Vec<_> = (0..64).map(|r| pick_kind(&opts, 3, r).name().to_string()).collect();
        assert_eq!(a, b, "same seed, same mix sequence");
        assert!(a.contains(&"ping".to_string()) && a.contains(&"search".to_string()));
        let other = LoadgenOptions { seed: 43, ..opts };
        let c: Vec<_> = (0..64).map(|r| pick_kind(&other, 3, r).name().to_string()).collect();
        assert_ne!(a, c, "different seeds differ somewhere in 64 draws");
    }

    #[test]
    fn percentiles_index_the_sorted_tail() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50), 50);
        assert_eq!(percentile(&sorted, 99), 99);
        assert_eq!(percentile(&sorted, 100), 100);
        assert_eq!(percentile(&[], 99), 0);
    }
}
