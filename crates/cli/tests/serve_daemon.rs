//! Daemon lifecycle tests against the real evaluator: byte-identity
//! between served and in-process results (cold and warm cache, and on
//! warm heuristic decisions), dedup of identical concurrent requests,
//! transparent fallback when no daemon answers, and drain-under-load
//! leaving the store verify-clean.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};

use optinline_cli::serve::{
    remote_call, start_daemon, CliHandler, HeuristicMap, HeuristicStats, ServeConfig,
};
use optinline_cli::{
    cmd_autotune, cmd_cache, cmd_gen, cmd_optimize, cmd_search, CacheAction, EvalOptions,
    InitChoice, Objective, OptimizeOptions, RequestError, StrategyChoice, TargetChoice,
};
use optinline_ir::cancel::{self, CancelToken, Cancelled};
use optinline_serve::{
    Client, ClientConfig, ClientError, Endpoint, Handler, RequestKind, ServeOptions, Server,
    ServerHandle,
};

fn tmp(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("optinline-serve-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    let _ = std::fs::remove_file(&p);
    p
}

fn demo_source() -> String {
    cmd_gen(11, 5, 2).expect("generation succeeds")
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

fn heuristic_optimize_kind(source: &str, target: &str) -> RequestKind {
    RequestKind::Optimize {
        source: source.to_string(),
        target: target.to_string(),
        strategy: "heuristic".to_string(),
        full_sweep: false,
        pass_stats: false,
        objective: "size".to_string(),
    }
}

/// A daemon over the CLI's handler, as `start_daemon` boots it, with the
/// handler's heuristic map in hand.
fn daemon_with_map(sock: &Path) -> (ServerHandle, Arc<HeuristicMap>) {
    let handler = CliHandler::new(None, None).expect("handler");
    let map = handler.heuristics();
    let endpoint = Endpoint::Unix(sock.to_path_buf());
    let server =
        Server::bind(endpoint, Box::new(handler), ServeOptions::default()).expect("daemon binds");
    (server.start(), map)
}

fn map_stats(entries: u64, hits: u64, misses: u64) -> HeuristicStats {
    HeuristicStats { entries, hits, misses, evictions: 0 }
}

#[test]
fn served_results_are_byte_identical_to_in_process_cold_and_warm() {
    let src = demo_source();
    let sock = tmp("ident.sock");
    let daemon_cache = tmp("ident-daemon-cache");
    let local_cache = tmp("ident-local-cache");

    let handle = start_daemon(ServeConfig {
        endpoint: Endpoint::Unix(sock.clone()),
        cache_dir: Some(daemon_cache.clone()),
        ..ServeConfig::default()
    })
    .expect("daemon boots");
    let mut client = Client::connect(&Endpoint::Unix(sock.clone())).expect("connect");

    // The daemon and the in-process run each get a fresh cache dir, so
    // cold compares against cold and warm against warm ("compilations
    // done" depends on cache warmth).
    let local_eval = EvalOptions { cache_dir: Some(local_cache.clone()), ..EvalOptions::default() };

    // search: cold, then warm.
    let served_cold = client.call(search_kind(&src, 18), &mut |_| {}).expect("served search");
    let local_cold = cmd_search(&src, 18, TargetChoice::X86, local_eval.clone()).unwrap();
    assert_eq!(served_cold.report, local_cold, "cold search diverged");
    let served_warm = client.call(search_kind(&src, 18), &mut |_| {}).expect("served search");
    let local_warm = cmd_search(&src, 18, TargetChoice::X86, local_eval.clone()).unwrap();
    assert_eq!(served_warm.report, local_warm, "warm search diverged");

    // optimize: report and module text.
    let kind = RequestKind::Optimize {
        source: src.clone(),
        target: "wasm".to_string(),
        strategy: "trial".to_string(),
        full_sweep: false,
        pass_stats: true,
        objective: "size".to_string(),
    };
    let served = client.call(kind, &mut |_| {}).expect("served optimize");
    let (local_report, local_module) = cmd_optimize(
        &src,
        StrategyChoice::Trial,
        TargetChoice::Wasm,
        OptimizeOptions { pass_stats: true, ..Default::default() },
    )
    .unwrap();
    assert_eq!(served.report, local_report, "optimize report diverged");
    assert_eq!(served.module.as_deref(), Some(local_module.as_str()), "optimize module diverged");

    // autotune: warm against the caches both runs just populated.
    let kind = RequestKind::Autotune {
        source: src.clone(),
        target: "x86".to_string(),
        rounds: 2,
        init: "both".to_string(),
        full_eval: false,
        stats: false,
        pass_stats: false,
        objective: "size".to_string(),
    };
    let served = client.call(kind, &mut |_| {}).expect("served autotune");
    let local =
        cmd_autotune(&src, 2, InitChoice::Both, TargetChoice::X86, local_eval.clone()).unwrap();
    assert_eq!(served.report, local, "autotune diverged");

    handle.drain();
    handle.join().expect("clean exit");
    std::fs::remove_dir_all(&daemon_cache).ok();
    std::fs::remove_dir_all(&local_cache).ok();
}

#[test]
fn served_objectives_match_in_process_and_report_measurements() {
    let src = demo_source();
    let sock = tmp("objective.sock");
    let daemon_cache = tmp("objective-daemon-cache");
    let local_cache = tmp("objective-local-cache");

    let handle = start_daemon(ServeConfig {
        endpoint: Endpoint::Unix(sock.clone()),
        cache_dir: Some(daemon_cache.clone()),
        ..ServeConfig::default()
    })
    .expect("daemon boots");
    let mut client = Client::connect(&Endpoint::Unix(sock.clone())).expect("connect");

    let kind = |objective: &str| RequestKind::Search {
        source: src.clone(),
        target: "x86".to_string(),
        bits: 18,
        full_eval: false,
        stats: false,
        pass_stats: false,
        objective: objective.to_string(),
    };
    let local_eval = |objective| EvalOptions {
        cache_dir: Some(local_cache.clone()),
        objective,
        ..EvalOptions::default()
    };

    // Pareto: served == in-process, cold and warm, and the done event
    // carries the front's smallest-size measurement.
    let served = client.call(kind("pareto"), &mut |_| {}).expect("served pareto");
    let local =
        cmd_search(&src, 18, TargetChoice::X86, local_eval(optinline_cli::Objective::Pareto))
            .unwrap();
    assert_eq!(served.report, local, "cold pareto search diverged");
    let m = served.measurement.expect("pareto search reports a measurement");
    assert!(m.cycles.is_some(), "pareto measurement carries cycles: {m:?}");
    assert!(local.contains(&format!("size-optimal:       {} B", m.size)), "{local}");
    let served_warm = client.call(kind("pareto"), &mut |_| {}).expect("served pareto");
    let local_warm =
        cmd_search(&src, 18, TargetChoice::X86, local_eval(optinline_cli::Objective::Pareto))
            .unwrap();
    assert_eq!(served_warm.report, local_warm, "warm pareto search diverged");

    // Speed: same equivalence, plus the measurement matches the report.
    let served = client.call(kind("speed"), &mut |_| {}).expect("served speed");
    let local =
        cmd_search(&src, 18, TargetChoice::X86, local_eval(optinline_cli::Objective::Speed))
            .unwrap();
    assert_eq!(served.report, local, "speed search diverged");
    let m = served.measurement.expect("speed search reports a measurement");
    assert!(local.contains(&format!("optimal size:       {} B", m.size)), "{local}");

    // An explicit `size` objective and an absent one share a dedup
    // identity and a report.
    let explicit = client.call(kind("size"), &mut |_| {}).expect("served size");
    let m = explicit.measurement.expect("size search reports a measurement");
    assert_eq!(m.cycles, None, "size measurements are size-only: {m:?}");
    assert!(explicit.report.contains(&format!("optimal size:       {} B", m.size)));

    // A bogus objective is a daemon-side error, not a hang.
    let err = client.call(kind("fast"), &mut |_| {});
    assert!(err.is_err(), "unknown objective must be rejected");

    handle.drain();
    handle.join().expect("clean exit");
    std::fs::remove_dir_all(&daemon_cache).ok();
    std::fs::remove_dir_all(&local_cache).ok();
}

#[test]
fn a_full_sweep_optimize_is_refused_with_an_error_event() {
    let src = demo_source();
    let sock = tmp("full-sweep.sock");
    let handle = start_daemon(ServeConfig {
        endpoint: Endpoint::Unix(sock.clone()),
        ..ServeConfig::default()
    })
    .expect("daemon boots");
    let mut client = Client::connect(&Endpoint::Unix(sock.clone())).expect("connect");

    let kind = |full_sweep| RequestKind::Optimize {
        source: src.clone(),
        target: "x86".to_string(),
        strategy: "heuristic".to_string(),
        full_sweep,
        pass_stats: false,
        objective: "size".to_string(),
    };
    match client.call(kind(true), &mut |_| {}) {
        Err(ClientError::Remote(msg)) => assert!(msg.contains("full-sweep"), "{msg}"),
        other => panic!("expected an error event, got {other:?}"),
    }
    // The refusal is the request's outcome, not the connection's: the
    // same connection still serves the worklist.
    let served = client.call(kind(false), &mut |_| {}).expect("served optimize");
    assert!(served.report.contains("size:"), "{}", served.report);

    let stats = client.server_stats().expect("stats");
    assert_eq!(stats.errors, 1, "the refusal is counted as an error");
    assert_eq!(stats.completed, 1);

    handle.drain();
    handle.join().expect("clean exit");
}

/// Sends `refused` to a fresh daemon and expects an `error` event with
/// `reason`'s message, then a well-formed search on the same connection.
fn refused_then_served(tag: &str, refused: RequestKind, reason: RequestError) {
    let src = demo_source();
    let sock = tmp(tag);
    let handle = start_daemon(ServeConfig {
        endpoint: Endpoint::Unix(sock.clone()),
        ..ServeConfig::default()
    })
    .expect("daemon boots");
    let mut client = Client::connect(&Endpoint::Unix(sock.clone())).expect("connect");
    match client.call(refused, &mut |_| {}) {
        Err(ClientError::Remote(msg)) => assert_eq!(msg, reason.to_string()),
        other => panic!("expected an error event, got {other:?}"),
    }
    let served = client.call(search_kind(&src, 18), &mut |_| {}).expect("served search");
    assert!(served.report.contains("optimal size:"), "{}", served.report);

    handle.drain();
    let stats = handle.join().expect("clean exit");
    assert_eq!(stats.errors, 1, "the refusal is counted as an error");
    assert_eq!(stats.completed, 1);
}

#[test]
fn a_search_with_bits_beyond_the_u128_budget_is_refused() {
    let kind = search_kind(&demo_source(), 130);
    refused_then_served("bits.sock", kind, RequestError::BitsOutOfRange(130));
}

/// Whole-module evaluation is gone, but the wire keeps `full_eval`: a
/// request that sets it is refused with the in-process message.
#[test]
fn a_full_eval_search_or_autotune_is_refused() {
    let mut search = search_kind(&demo_source(), 18);
    let mut autotune = RequestKind::Autotune {
        source: demo_source(),
        target: "x86".to_string(),
        rounds: 2,
        init: "both".to_string(),
        full_eval: false,
        stats: false,
        pass_stats: false,
        objective: "size".to_string(),
    };
    for kind in [&mut search, &mut autotune] {
        if let RequestKind::Search { full_eval, .. } | RequestKind::Autotune { full_eval, .. } =
            kind
        {
            *full_eval = true;
        }
    }
    refused_then_served("full-eval-search.sock", search, RequestError::FullEvalRemoved);
    refused_then_served("full-eval-tune.sock", autotune, RequestError::FullEvalRemoved);
}

#[test]
fn an_autotune_with_zero_rounds_is_refused() {
    let kind = RequestKind::Autotune {
        source: demo_source(),
        target: "x86".to_string(),
        rounds: 0,
        init: "both".to_string(),
        full_eval: false,
        stats: false,
        pass_stats: false,
        objective: "size".to_string(),
    };
    refused_then_served("rounds.sock", kind, RequestError::RoundsOutOfRange(0));
}

#[test]
fn identical_concurrent_requests_evaluate_once() {
    const CLIENTS: usize = 6;
    let src = demo_source();
    let sock = tmp("dedup.sock");
    let handle = start_daemon(ServeConfig {
        endpoint: Endpoint::Unix(sock.clone()),
        max_concurrent: CLIENTS,
        ..ServeConfig::default()
    })
    .expect("daemon boots");

    // All clients connect first, then fire the same request through a
    // barrier; a worker's dedup check runs in microseconds while the
    // search itself takes milliseconds, so followers join the leader's
    // in-flight evaluation.
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let sock = sock.clone();
            let src = src.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(&Endpoint::Unix(sock)).expect("connect");
                barrier.wait();
                client.call(search_kind(&src, 18), &mut |_| {}).expect("served search")
            })
        })
        .collect();
    let outcomes: Vec<_> = workers.into_iter().map(|w| w.join().expect("client thread")).collect();

    let first = &outcomes[0].report;
    for out in &outcomes {
        assert_eq!(&out.report, first, "fan-out must be byte-identical");
    }

    handle.drain();
    let stats = handle.join().expect("clean exit");
    assert_eq!(stats.completed, CLIENTS as u64);
    assert_eq!(
        stats.evaluations, 1,
        "identical concurrent requests must collapse into one evaluation: {stats:?}"
    );
    assert_eq!(stats.dedup_joined, CLIENTS as u64 - 1);
}

/// Search, then optimize, then autotune on one module under every
/// objective: after the first search every lookup is a hit, most of them
/// from another request kind or objective, and every reply (with its
/// `--pass-stats` table) matches the in-process run, which decides afresh.
#[test]
fn warm_heuristic_hits_serve_in_process_bytes_across_kinds_and_objectives() {
    let src = demo_source();
    let sock = tmp("warm.sock");
    let (handle, map) = daemon_with_map(&sock);
    let mut client = Client::connect(&Endpoint::Unix(sock)).expect("connect");
    for objective in [Objective::Size, Objective::Speed, Objective::Pareto] {
        let name = objective.to_string();
        let kind = RequestKind::Search {
            source: src.clone(),
            target: "x86".to_string(),
            bits: 18,
            full_eval: false,
            stats: false,
            pass_stats: true,
            objective: name.clone(),
        };
        let served = client.call(kind, &mut |_| {}).expect("served search");
        let eval = EvalOptions { show_pass_stats: true, objective, ..EvalOptions::default() };
        let local = cmd_search(&src, 18, TargetChoice::X86, eval.clone()).unwrap();
        assert_eq!(served.report, local, "{name} search diverged");

        let kind = RequestKind::Optimize {
            source: src.clone(),
            target: "x86".to_string(),
            strategy: "heuristic".to_string(),
            full_sweep: false,
            pass_stats: true,
            objective: name.clone(),
        };
        let served = client.call(kind, &mut |_| {}).expect("served optimize");
        let opts = OptimizeOptions { pass_stats: true, objective };
        let (report, module) =
            cmd_optimize(&src, StrategyChoice::Heuristic, TargetChoice::X86, opts).unwrap();
        assert_eq!(served.report, report, "{name} optimize diverged");
        assert_eq!(served.module.as_deref(), Some(module.as_str()), "{name} module diverged");

        let kind = RequestKind::Autotune {
            source: src.clone(),
            target: "x86".to_string(),
            rounds: 2,
            init: "both".to_string(),
            full_eval: false,
            stats: false,
            pass_stats: true,
            objective: name.clone(),
        };
        let served = client.call(kind, &mut |_| {}).expect("served autotune");
        let local = cmd_autotune(&src, 2, InitChoice::Both, TargetChoice::X86, eval).unwrap();
        assert_eq!(served.report, local, "{name} autotune diverged");
    }
    assert_eq!(map.stats(), map_stats(1, 8, 1));
    handle.drain();
    handle.join().expect("clean exit");
}

/// The search path keys the map by the evaluator's `memo_scope`, the
/// optimize path by `domain_fingerprint`: per target they name one entry.
#[test]
fn x86_and_wasm_requests_on_one_text_get_separate_entries() {
    let src = demo_source();
    let handler = CliHandler::new(None, None).expect("handler");
    let map = handler.heuristics();
    for target in ["x86", "wasm"] {
        let kind = RequestKind::Search {
            source: src.clone(),
            target: target.to_string(),
            bits: 18,
            full_eval: false,
            stats: false,
            pass_stats: false,
            objective: "size".to_string(),
        };
        handler.handle(&kind, &|_| {}).expect("search");
    }
    assert_eq!(map.stats(), map_stats(2, 0, 2));
    for target in ["x86", "wasm"] {
        let served = handler.handle(&heuristic_optimize_kind(&src, target), &|_| {});
        let target = TargetChoice::parse(target).unwrap();
        let (report, _) =
            cmd_optimize(&src, StrategyChoice::Heuristic, target, OptimizeOptions::default())
                .unwrap();
        assert_eq!(served.expect("optimize").report, report);
    }
    assert_eq!(map.stats(), map_stats(2, 2, 2));
}

#[test]
fn a_request_cancelled_inside_decide_leaves_the_cell_empty() {
    let src = demo_source();
    let handler = CliHandler::new(None, None).expect("handler");
    let map = handler.heuristics();
    let kind = heuristic_optimize_kind(&src, "x86");
    let token = CancelToken::new();
    token.cancel();
    let unwound = {
        let _cancel = cancel::install(token);
        catch_unwind(AssertUnwindSafe(|| handler.handle(&kind, &|_| {})))
            .expect_err("the first checkpoint is inside decide's cleanup drains")
    };
    assert!(unwound.downcast_ref::<Cancelled>().is_some(), "cancelled, not a bug");
    assert_eq!(map.stats(), map_stats(1, 0, 1), "decide started and unwound");
    // The next request finds the cell empty and computes it.
    let served = handler.handle(&kind, &|_| {}).expect("optimize");
    let (report, _) = cmd_optimize(
        &src,
        StrategyChoice::Heuristic,
        TargetChoice::X86,
        OptimizeOptions::default(),
    )
    .unwrap();
    assert_eq!(served.report, report);
    assert_eq!(map.stats(), map_stats(1, 0, 2));
    handler.handle(&kind, &|_| {}).expect("optimize");
    assert_eq!(map.stats(), map_stats(1, 1, 2));
}

#[test]
fn missing_daemon_falls_back_to_in_process() {
    let src = demo_source();
    let sock = tmp("absent.sock");
    let fallback =
        remote_call(&Endpoint::Unix(sock), search_kind(&src, 18), &ClientConfig::default())
            .expect("fallback is not an error");
    assert!(fallback.is_none(), "no daemon must mean in-process fallback, not a served result");
}

#[test]
fn an_unreachable_tcp_daemon_degrades_to_fallback_within_the_dial_bound() {
    // Satellite fix for the unbounded dial: `--connect` against a dead
    // TCP endpoint must degrade to in-process within the configured
    // connect timeout instead of hanging on the kernel's default.
    let src = demo_source();
    let config = ClientConfig {
        connect_timeout: Some(std::time::Duration::from_millis(250)),
        ..ClientConfig::default()
    };
    let started = std::time::Instant::now();
    let fallback =
        remote_call(&Endpoint::Tcp("127.0.0.1:1".into()), search_kind(&src, 18), &config)
            .expect("a dead endpoint is a fallback, not an error");
    assert!(fallback.is_none(), "nothing listening must mean in-process fallback");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(10),
        "the dial must be bounded: {:?}",
        started.elapsed()
    );
}

#[test]
fn drain_under_saturation_finishes_admitted_work_and_rejects_new_with_a_typed_event() {
    // The drain signal lands while the admission queue is saturated:
    // one evaluation slot, five distinct real searches admitted. Every
    // admitted request must still complete, a request arriving after
    // the drain must get the typed `rejected{draining}` event (never a
    // silent drop or a hang), the store must flush, and the daemon must
    // exit cleanly.
    const REQUESTS: usize = 5;
    let src = demo_source();
    let sock = tmp("saturate.sock");
    let cache = tmp("saturate-cache");
    let handle = start_daemon(ServeConfig {
        endpoint: Endpoint::Unix(sock.clone()),
        cache_dir: Some(cache.clone()),
        queue_capacity: REQUESTS,
        max_concurrent: 1,
        ..ServeConfig::default()
    })
    .expect("daemon boots");

    let workers: Vec<_> = (0..REQUESTS)
        .map(|i| {
            let sock = sock.clone();
            let src = src.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&Endpoint::Unix(sock)).expect("connect");
                client.call(search_kind(&src, 15 + i as u32), &mut |_| {}).expect("served search")
            })
        })
        .collect();

    // With one slot, at most one request can be evaluating once all five
    // are admitted — the rest sit in the queue when the drain lands.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while handle.stats().accepted < REQUESTS as u64 {
        assert!(std::time::Instant::now() < deadline, "requests were not admitted in time");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    // Connect the late client before the drain lands: an established
    // connection keeps getting served events, so its post-drain request
    // draws the typed rejection instead of a socket error. The ping
    // round-trip proves the accept loop picked the connection up — a
    // dial alone only parks it in the listen backlog.
    let mut late = Client::connect(&Endpoint::Unix(sock.clone())).expect("connect");
    late.ping().expect("pre-drain ping");
    handle.drain();

    // New work after the drain is refused with the typed event, not
    // silently dropped or hung.
    match late.call(search_kind(&src, 20), &mut |_| {}) {
        Err(ClientError::Rejected(reason)) => assert_eq!(reason, "draining"),
        other => panic!("a post-drain request must be typed-rejected, got {other:?}"),
    }

    for w in workers {
        w.join().expect("client thread");
    }
    let stats = handle.join().expect("clean exit");
    assert_eq!(stats.completed, REQUESTS as u64, "admitted work all completes: {stats:?}");
    assert!(stats.rejected >= 1, "post-drain requests are counted as rejected: {stats:?}");
    assert_eq!(stats.accepted, stats.terminal(), "counters must not leak requests: {stats:?}");

    // The drain flushed the store: a full structural verify passes and
    // the evaluated entries made it to disk.
    let report = cmd_cache(CacheAction::Verify, &cache, None).expect("verify is clean");
    assert!(report.contains("malformed lines: 0"), "{report}");
    assert!(report.contains("unreadable logs: 0"), "{report}");
    let entries: u64 = report
        .lines()
        .find(|l| l.starts_with("entries:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .expect("entries line");
    assert!(entries > 0, "drain must flush evaluated entries to disk: {report}");

    // With the daemon gone (socket removed on exit), `--connect` is a
    // clean in-process fallback — the terminal degradation.
    let fallback =
        remote_call(&Endpoint::Unix(sock), search_kind(&src, 20), &ClientConfig::default())
            .expect("a dead daemon is a fallback, not an error");
    assert!(fallback.is_none(), "a drained daemon must degrade to in-process");
    std::fs::remove_dir_all(&cache).ok();
}

#[test]
fn drain_under_load_leaves_the_store_verify_clean() {
    const REQUESTS: usize = 4;
    let src = demo_source();
    let sock = tmp("drain.sock");
    let cache = tmp("drain-cache");
    let handle = start_daemon(ServeConfig {
        endpoint: Endpoint::Unix(sock.clone()),
        cache_dir: Some(cache.clone()),
        max_concurrent: 2,
        ..ServeConfig::default()
    })
    .expect("daemon boots");

    // Distinct identities so every request is a real evaluation writing
    // through the shared store while the drain lands.
    let workers: Vec<_> = (0..REQUESTS)
        .map(|i| {
            let sock = sock.clone();
            let src = src.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&Endpoint::Unix(sock)).expect("connect");
                client.call(search_kind(&src, 14 + i as u32), &mut |_| {}).expect("served search")
            })
        })
        .collect();

    // Drain mid-load: once everything is admitted (and with
    // max_concurrent=2, at most half can have finished by the time the
    // last one is accepted), the admitted work must finish and the store
    // must flush.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while handle.stats().accepted < REQUESTS as u64 {
        assert!(std::time::Instant::now() < deadline, "requests were not admitted in time");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    handle.drain();
    for w in workers {
        w.join().expect("client thread");
    }
    let stats = handle.join().expect("clean exit");
    assert_eq!(stats.completed, REQUESTS as u64, "admitted requests all complete: {stats:?}");

    // The flushed store passes a full structural verify, and the drain
    // actually committed entries (a lost write-back buffer would leave
    // the scope empty or torn).
    let report = cmd_cache(CacheAction::Verify, &cache, None).expect("verify is clean");
    assert!(report.contains("malformed lines: 0"), "{report}");
    assert!(report.contains("unreadable logs: 0"), "{report}");
    let entries: u64 = report
        .lines()
        .find(|l| l.starts_with("entries:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .expect("entries line");
    assert!(entries > 0, "drain must flush evaluated entries to disk: {report}");
    std::fs::remove_dir_all(&cache).ok();
}
