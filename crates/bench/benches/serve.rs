//! Benches for the `optinline-serve` daemon: transport round-trip
//! latency (ping, and a no-op request through the full admission →
//! worker → fan-out path) and concurrent batch throughput with
//! identical vs distinct request identities — the dedup payoff behind
//! `results/perf_serve.txt`.

use std::path::PathBuf;
use std::sync::Arc;

use optinline_bench::{criterion_group, criterion_main, Criterion};
use optinline_callgraph::{InlineGraph, PartitionStrategy};
use optinline_codegen::X86Like;
use optinline_core::tree::{evaluate_inlining_tree, try_build_inlining_tree};
use optinline_core::{InliningConfiguration, SizeEvaluator};
use optinline_serve::{
    Client, Endpoint, Handler, Reply, RequestKind, ServeOptions, Server, ServerHandle,
};
use optinline_workloads::{generate_file, GenParams};

/// Concurrent clients per dedup batch.
const BATCH: usize = 8;

fn sock(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("optinline-bench-serve-{tag}-{}.sock", std::process::id()))
}

fn boot(tag: &str, handler: Box<dyn Handler>, max_concurrent: usize) -> (Endpoint, ServerHandle) {
    let path = sock(tag);
    let _ = std::fs::remove_file(&path);
    let endpoint = Endpoint::Unix(path);
    let server = Server::bind(
        endpoint.clone(),
        handler,
        ServeOptions { queue_capacity: 64, max_concurrent, ..ServeOptions::default() },
    )
    .expect("daemon binds");
    (endpoint, server.start())
}

fn search_kind(source: &str, bits: u32) -> RequestKind {
    RequestKind::Search {
        source: source.to_string(),
        target: "x86".to_string(),
        bits,
        full_eval: false,
        stats: false,
        pass_stats: false,
        objective: "size".to_string(),
    }
}

/// A module whose inlining tree fits comfortably under `1 << bits`, so
/// every request is a real (millisecond-scale) sequential search.
fn bench_module(bits: u32) -> String {
    let module =
        generate_file(&GenParams { n_internal: 5, clusters: 2, ..GenParams::named("srv", 7) });
    let graph = InlineGraph::from_module(&module);
    assert!(
        try_build_inlining_tree(&graph, PartitionStrategy::Paper, 1u128 << bits).is_some(),
        "bench module must fit the bit budget"
    );
    module.to_string()
}

/// Replies instantly: what is left is framing, admission, the worker's
/// pop and dedup check, and fan-out — the transport's own cost.
#[derive(Debug)]
struct EchoHandler;

impl Handler for EchoHandler {
    fn handle(&self, kind: &RequestKind, _progress: &dyn Fn(&str)) -> Result<Reply, String> {
        Ok(Reply { report: format!("echo {}\n", kind.name()), module: None, measurement: None })
    }
}

/// Runs the real sequential search over the module embedded in the
/// request, like the CLI handler does — so the dedup benches measure
/// evaluation collapse, not socket chatter.
#[derive(Debug)]
struct SearchHandler;

impl Handler for SearchHandler {
    fn handle(&self, kind: &RequestKind, _progress: &dyn Fn(&str)) -> Result<Reply, String> {
        let RequestKind::Search { source, bits, .. } = kind else {
            return Err("bench handler serves search only".to_string());
        };
        let module = optinline_ir::parse_module(source).map_err(|e| e.to_string())?;
        let graph = InlineGraph::from_module(&module);
        let tree = try_build_inlining_tree(&graph, PartitionStrategy::Paper, 1u128 << *bits)
            .ok_or("tree exceeds the bit budget")?;
        let ev = SizeEvaluator::new(module, Box::new(X86Like), false);
        let (config, size) =
            evaluate_inlining_tree(&tree, &ev, InliningConfiguration::clean_slate());
        Ok(Reply {
            report: format!("optimal size: {size} B\nconfig: {config}\n"),
            module: None,
            measurement: Some(optinline_ir::Measurement::size_only(size)),
        })
    }
}

/// Round-trip latency over the unix socket: a ping (pure framing) vs a
/// no-op request (framing plus the whole queue/worker/fan-out path).
fn bench_transport(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_transport");
    group.sample_size(10);

    let (endpoint, handle) = boot("ping", Box::new(EchoHandler), 2);
    let mut client = Client::connect(&endpoint).expect("client connects");
    group.bench_function("ping", |b| b.iter(|| client.ping().expect("pong")));
    let kind = search_kind("module bench { }", 4);
    group.bench_function("noop_request", |b| {
        b.iter(|| client.call(kind.clone(), &mut |_| {}).expect("echoed").report.len())
    });

    // Regression tripwire for the event loop: a ping must never become
    // tick-bound. The old accept path slept 20 ms between accept polls;
    // a poll-loop bug that parks a ready connection until the next
    // timeout would show up here as a ~25 ms median. The bound is loose
    // (real medians are tens of microseconds) so only a tick-scale
    // regression trips it, not CI noise.
    let mut rtts: Vec<std::time::Duration> = (0..200)
        .map(|_| {
            let t0 = std::time::Instant::now();
            client.ping().expect("pong");
            t0.elapsed()
        })
        .collect();
    rtts.sort();
    let median_rtt = rtts[rtts.len() / 2];
    assert!(
        median_rtt < std::time::Duration::from_millis(5),
        "median ping round-trip {median_rtt:?} is tick-scale: readiness regression"
    );
    // Same tripwire for accept: dial-to-first-pong must not inherit a
    // sleep-based accept loop (the old one cost up to 20 ms per dial).
    let mut dials: Vec<std::time::Duration> = (0..50)
        .map(|_| {
            let t0 = std::time::Instant::now();
            let mut fresh = Client::connect(&endpoint).expect("client connects");
            fresh.ping().expect("pong");
            t0.elapsed()
        })
        .collect();
    dials.sort();
    let median_dial = dials[dials.len() / 2];
    assert!(
        median_dial < std::time::Duration::from_millis(10),
        "median dial+ping {median_dial:?} is sleep-scale: accept readiness regression"
    );
    println!("serve_transport: median ping {median_rtt:?}, median dial+ping {median_dial:?}");

    drop(client);
    handle.drain();
    handle.join().expect("clean exit");
    group.finish();
}

/// A batch of concurrent clients firing at once: when all requests share
/// one identity they collapse into a single evaluation; distinct
/// identities each pay full price. The gap is the dedup payoff.
fn bench_dedup(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_dedup");
    group.sample_size(10);
    let bits = 9;
    let source = bench_module(bits);

    for (name, distinct) in [("identical_batch", false), ("distinct_batch", true)] {
        let (endpoint, handle) = boot(name, Box::new(SearchHandler), BATCH);
        let source = Arc::new(source.clone());
        // Distinct identities come from distinct (still-satisfiable) bit
        // budgets; the searched tree is the same, so per-evaluation work
        // matches across the two variants.
        group.bench_function(name, |b| {
            b.iter(|| {
                let workers: Vec<_> = (0..BATCH)
                    .map(|i| {
                        let endpoint = endpoint.clone();
                        let source = Arc::clone(&source);
                        let bits = if distinct { bits + i as u32 } else { bits };
                        std::thread::spawn(move || {
                            let mut client = Client::connect(&endpoint).expect("client connects");
                            client.call(search_kind(&source, bits), &mut |_| {}).expect("served")
                        })
                    })
                    .collect();
                let outcomes: Vec<_> =
                    workers.into_iter().map(|w| w.join().expect("client thread")).collect();
                outcomes.len()
            })
        });
        handle.drain();
        let stats = handle.join().expect("clean exit");
        println!(
            "serve_dedup/{name}: {} evaluations for {} completed requests ({} joined in flight)",
            stats.evaluations, stats.completed, stats.dedup_joined
        );
    }
    group.finish();
}

criterion_group!(benches, bench_transport, bench_dedup);
criterion_main!(benches);
