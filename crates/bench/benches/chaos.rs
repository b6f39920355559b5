//! Overload benches for the hardened daemon: 64 concurrent clients
//! against two evaluation slots, every request carrying a queue-time
//! deadline. Measures whole-burst wall time plus per-request completion
//! and shed latency percentiles — the numbers behind
//! `results/perf_chaos.txt`. A shed must be *fast*: a client whose
//! deadline expired should hear the typed `rejected{deadline}` promptly,
//! not after the work it no longer wants finishes.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use optinline_bench::{criterion_group, criterion_main, Criterion};
use optinline_serve::{
    Client, ClientConfig, ClientError, Endpoint, Handler, Reply, RequestKind, ServeOptions, Server,
    ServerHandle,
};

/// Concurrent clients per overload burst.
const CLIENTS: usize = 64;
/// Evaluation slots: the bottleneck that builds the queue.
const SLOTS: usize = 2;
/// Synthetic evaluation cost per request.
const WORK: Duration = Duration::from_millis(2);
/// Queue-time budget each client attaches; with 64 requests × 2 ms of
/// work through 2 slots (~64 ms of backlog), roughly the last third of
/// the burst expires in the queue and must be shed.
const DEADLINE_MS: u64 = 40;

fn sock(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("optinline-bench-chaos-{tag}-{}.sock", std::process::id()))
}

fn boot(tag: &str) -> (Endpoint, ServerHandle) {
    let path = sock(tag);
    let _ = std::fs::remove_file(&path);
    let endpoint = Endpoint::Unix(path);
    let server = Server::bind(
        endpoint.clone(),
        Box::new(SlowHandler),
        ServeOptions { queue_capacity: CLIENTS, max_concurrent: SLOTS, ..ServeOptions::default() },
    )
    .expect("daemon binds");
    (endpoint, server.start())
}

/// Burns a fixed slice of wall time in cancellable 500 µs steps — a
/// stand-in for a real evaluation that honors cancellation checkpoints.
#[derive(Debug)]
struct SlowHandler;

impl Handler for SlowHandler {
    fn handle(&self, kind: &RequestKind, _progress: &dyn Fn(&str)) -> Result<Reply, String> {
        let until = Instant::now() + WORK;
        while Instant::now() < until {
            optinline_ir::cancel::checkpoint();
            std::thread::sleep(Duration::from_micros(500));
        }
        Ok(Reply { report: format!("done {}\n", kind.name()), module: None, measurement: None })
    }
}

/// A distinct identity per client so dedup cannot collapse the burst.
fn kind_for(i: usize) -> RequestKind {
    RequestKind::Search {
        source: format!("module chaos_{i} {{ }}"),
        target: "x86".to_string(),
        bits: 4,
        full_eval: false,
        stats: false,
        pass_stats: false,
        objective: "size".to_string(),
    }
}

fn client_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: Some(Duration::from_secs(2)),
        deadline_ms: Some(DEADLINE_MS),
        ..ClientConfig::default()
    }
}

/// One 64-client burst; returns per-request (completed, latency) pairs.
fn burst(endpoint: &Endpoint) -> Vec<(bool, Duration)> {
    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || {
                let mut client =
                    Client::connect_with(&endpoint, client_config()).expect("client connects");
                let t = Instant::now();
                let result = client.call(kind_for(i), &mut |_| {});
                let latency = t.elapsed();
                match result {
                    Ok(_) => (true, latency),
                    Err(ClientError::Rejected(reason)) => {
                        assert_eq!(reason, "deadline", "only deadline sheds expected");
                        (false, latency)
                    }
                    Err(e) => panic!("overload must shed, not fail: {e}"),
                }
            })
        })
        .collect();
    workers.into_iter().map(|w| w.join().expect("client thread")).collect()
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Whole-burst wall time under criterion, then one instrumented burst
/// whose per-request latencies feed the percentile report.
fn bench_overload(c: &mut Criterion) {
    let mut group = c.benchmark_group("chaos_overload");
    group.sample_size(10);

    let (endpoint, handle) = boot("overload");
    group.bench_function("burst_64_clients_2_slots", |b| {
        b.iter(|| burst(&endpoint).iter().filter(|(ok, _)| *ok).count())
    });

    // One more burst, reported request by request: completion latency
    // for the survivors, shed latency (send → typed rejection) for the
    // rest. The shed p99 is the headline — how long an expired request
    // waits before the daemon tells it so.
    let outcomes = burst(&endpoint);
    let mut completed: Vec<Duration> =
        outcomes.iter().filter(|(ok, _)| *ok).map(|&(_, d)| d).collect();
    let mut shed: Vec<Duration> = outcomes.iter().filter(|(ok, _)| !*ok).map(|&(_, d)| d).collect();
    completed.sort();
    shed.sort();
    println!(
        "chaos_overload: {} completed, {} shed of {CLIENTS} (deadline {DEADLINE_MS} ms, \
         {SLOTS} slots, {:?} work)",
        completed.len(),
        shed.len(),
        WORK
    );
    if !completed.is_empty() {
        println!(
            "chaos_overload/completed_latency: p50 {:?}  p99 {:?}",
            percentile(&completed, 0.50),
            percentile(&completed, 0.99)
        );
    }
    if !shed.is_empty() {
        println!(
            "chaos_overload/shed_latency:      p50 {:?}  p99 {:?}  (deadline {DEADLINE_MS} ms)",
            percentile(&shed, 0.50),
            percentile(&shed, 0.99)
        );
    }

    handle.drain();
    let stats = handle.join().expect("clean exit");
    println!(
        "chaos_overload/counters: accepted {} = completed {} + errors {} + shed {} + cancelled {}",
        stats.accepted, stats.completed, stats.errors, stats.shed_deadline, stats.cancelled
    );
    assert_eq!(stats.accepted, stats.terminal(), "overload must not leak requests: {stats:?}");
    group.finish();
}

criterion_group!(benches, bench_overload);
criterion_main!(benches);
