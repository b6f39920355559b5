//! Integration tests for the serve machinery: transport round-trips,
//! concurrent dedup fan-out, graceful drain, and client fallback
//! signalling — all against a toy handler so the tests stay fast and
//! deterministic. Full-stack equivalence against the real evaluator
//! lives in `optinline-check` and the CLI tests.

use std::collections::{HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use optinline_core::WorkerPool;
use optinline_serve::{
    Client, ClientError, Endpoint, Handler, Reply, RequestKind, ServeOptions, Server,
};

fn sock_path(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("optinline-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn search(source: &str, bits: u32) -> RequestKind {
    RequestKind::Search {
        source: source.to_string(),
        target: "x86".to_string(),
        bits,
        full_eval: false,
        stats: true,
        pass_stats: false,
        objective: "size".to_string(),
    }
}

/// A gate evaluations can be parked on, so tests control exactly when an
/// in-flight evaluation completes.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

struct TestHandler {
    gate: Option<Arc<Gate>>,
    handled: Arc<AtomicU64>,
    drained: Arc<AtomicBool>,
}

impl TestHandler {
    fn plain() -> (Box<TestHandler>, Arc<AtomicU64>, Arc<AtomicBool>) {
        let handled = Arc::new(AtomicU64::new(0));
        let drained = Arc::new(AtomicBool::new(false));
        let h = TestHandler {
            gate: None,
            handled: Arc::clone(&handled),
            drained: Arc::clone(&drained),
        };
        (Box::new(h), handled, drained)
    }

    fn gated(gate: Arc<Gate>) -> (Box<TestHandler>, Arc<AtomicU64>, Arc<AtomicBool>) {
        let handled = Arc::new(AtomicU64::new(0));
        let drained = Arc::new(AtomicBool::new(false));
        let h = TestHandler {
            gate: Some(gate),
            handled: Arc::clone(&handled),
            drained: Arc::clone(&drained),
        };
        (Box::new(h), handled, drained)
    }
}

impl Handler for TestHandler {
    fn handle(&self, kind: &RequestKind, progress: &dyn Fn(&str)) -> Result<Reply, String> {
        self.handled.fetch_add(1, Ordering::SeqCst);
        progress("evaluating");
        if let Some(gate) = &self.gate {
            gate.wait();
        }
        match kind {
            RequestKind::Search { source, bits, .. } => Ok(Reply {
                report: format!("best of {source} at {bits} bits"),
                module: None,
                measurement: None,
            }),
            RequestKind::Optimize { source, .. } => Ok(Reply {
                report: format!("optimized {source}"),
                module: Some(format!("(module {source})")),
                measurement: None,
            }),
            RequestKind::Autotune { source, rounds, .. } => Ok(Reply {
                report: format!("tuned {source} over {rounds} rounds"),
                module: None,
                measurement: None,
            }),
            other => Err(format!("not evaluable: {}", other.name())),
        }
    }

    fn drained(&self) {
        self.drained.store(true, Ordering::SeqCst);
    }
}

fn wait_until(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn round_trips_every_request_kind_over_a_unix_socket() {
    let path = sock_path("roundtrip");
    let (handler, _, _) = TestHandler::plain();
    let server =
        Server::bind(Endpoint::Unix(path.clone()), handler, ServeOptions::default()).expect("bind");
    let handle = server.start();

    let mut client = Client::connect(&Endpoint::Unix(path.clone())).expect("connect");
    client.ping().expect("ping");

    let mut notes = Vec::new();
    let out = client.call(search("(module m)", 6), &mut |n| notes.push(n.to_string())).unwrap();
    assert_eq!(out.report, "best of (module m) at 6 bits");
    assert_eq!(out.module, None);
    assert!(!out.deduped);
    assert!(out.evaluated);
    assert_eq!(notes, ["evaluating"], "progress notes stream through");

    let out = client
        .call(
            RequestKind::Optimize {
                source: "(module m)".to_string(),
                target: "wasm".to_string(),
                strategy: "trial".to_string(),
                full_sweep: true,
                pass_stats: false,
                objective: "size".to_string(),
            },
            &mut |_| {},
        )
        .unwrap();
    assert_eq!(out.module.as_deref(), Some("(module (module m))"));

    let stats = client.server_stats().expect("stats");
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.evaluations, 2);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.dedup_joined, 0);

    handle.drain();
    let final_stats = handle.join().expect("clean exit");
    assert_eq!(final_stats.completed, 2);
    assert!(!path.exists(), "socket file removed after drain");
}

/// Every `stats` reply is one instant's ledger: while two clients stream
/// pipelined requests, no snapshot counts a request as ended or queued
/// that it has not counted as accepted, and once the clients have their
/// answers and no slot is held, everything accepted has ended.
#[test]
fn every_stats_snapshot_is_a_consistent_ledger() {
    const CLIENTS: usize = 2;
    const REQUESTS: usize = 300;
    const WINDOW: usize = 8;
    let path = sock_path("ledger");
    let (handler, _, _) = TestHandler::plain();
    let server =
        Server::bind(Endpoint::Unix(path.clone()), handler, ServeOptions::default()).expect("bind");
    let handle = server.start();

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&Endpoint::Unix(path)).expect("connect");
                let mut pending = VecDeque::new();
                for i in 0..REQUESTS {
                    // Five identities shared by both clients, so some
                    // requests join a flight instead of leading one.
                    let kind = search(&format!("(module m{})", (i + c) % 5), 4);
                    pending.push_back(client.start(kind).expect("start"));
                    if pending.len() == WINDOW {
                        let id = pending.pop_front().unwrap();
                        client.finish(id, &mut |_| {}).expect("served");
                    }
                }
                for id in pending {
                    client.finish(id, &mut |_| {}).expect("served");
                }
            })
        })
        .collect();

    let mut poller = Client::connect(&Endpoint::Unix(path.clone())).expect("connect");
    let start = Instant::now();
    let mut snapshots = 0;
    let last = loop {
        let answered = clients.iter().all(|c| c.is_finished());
        let s = poller.server_stats().expect("stats");
        snapshots += 1;
        assert!(s.terminal() + s.queue_depth <= s.accepted, "snapshot {snapshots}: {s:?}");
        if answered && s.in_flight == 0 {
            break s;
        }
        assert!(start.elapsed() < Duration::from_secs(30), "still busy: {s:?}");
    };
    for c in clients {
        c.join().expect("client thread");
    }
    assert_eq!(last.accepted, (CLIENTS * REQUESTS) as u64, "{last:?}");
    assert_eq!(last.terminal(), last.accepted, "{last:?}");
    assert_eq!(last.completed, last.accepted, "{last:?}");
    assert_eq!(last.evaluations + last.dedup_joined, last.accepted, "{last:?}");
    assert_eq!(last.queue_depth, 0, "{last:?}");

    handle.drain();
    handle.join().expect("clean exit");
}

#[test]
fn identical_concurrent_requests_collapse_into_one_evaluation() {
    const CLIENTS: usize = 8;
    let path = sock_path("dedup");
    let gate = Arc::new(Gate::default());
    let (handler, handled, _) = TestHandler::gated(Arc::clone(&gate));
    let opts =
        ServeOptions { queue_capacity: 64, max_concurrent: CLIENTS, ..ServeOptions::default() };
    let server = Server::bind(Endpoint::Unix(path.clone()), handler, opts).expect("bind");
    let handle = server.start();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&Endpoint::Unix(path)).expect("connect");
                client.call(search("(module shared)", 4), &mut |_| {}).expect("call")
            })
        })
        .collect();

    // All requests reach the in-flight table (1 leader + N-1 joiners)
    // while the leader is parked on the gate.
    wait_until("all clients to join the in-flight evaluation", Duration::from_secs(10), || {
        handle.stats().dedup_joined == (CLIENTS as u64 - 1)
    });
    // The flight is recorded before its worker enters the handler, so the
    // leader's entry can trail the joins.
    wait_until("the leader to enter the handler", Duration::from_secs(10), || {
        handled.load(Ordering::SeqCst) >= 1
    });
    assert_eq!(handled.load(Ordering::SeqCst), 1, "only the leader runs the handler");
    gate.release();

    let outcomes: Vec<_> = workers.into_iter().map(|w| w.join().expect("client thread")).collect();
    for out in &outcomes {
        assert_eq!(out.report, "best of (module shared) at 4 bits", "fan-out is byte-identical");
    }
    assert_eq!(
        outcomes.iter().filter(|o| o.evaluated).count(),
        1,
        "exactly one waiter carries the freshly evaluated flag"
    );
    assert_eq!(outcomes.iter().filter(|o| o.deduped).count(), CLIENTS - 1);

    handle.drain();
    let stats = handle.join().expect("clean exit");
    assert_eq!(stats.evaluations, 1);
    assert_eq!(stats.dedup_joined, CLIENTS as u64 - 1);
    assert_eq!(stats.completed, CLIENTS as u64);
}

#[test]
fn distinct_identities_evaluate_independently() {
    let path = sock_path("distinct");
    let (handler, handled, _) = TestHandler::plain();
    let server =
        Server::bind(Endpoint::Unix(path.clone()), handler, ServeOptions::default()).expect("bind");
    let handle = server.start();

    let mut client = Client::connect(&Endpoint::Unix(path.clone())).expect("connect");
    // Same module, different bit budget: a reply-shaping field differs, so
    // the identities must differ and no dedup may happen.
    let a = client.call(search("(module m)", 4), &mut |_| {}).unwrap();
    let b = client.call(search("(module m)", 5), &mut |_| {}).unwrap();
    assert_ne!(a.report, b.report);
    assert_eq!(handled.load(Ordering::SeqCst), 2);

    handle.drain();
    let stats = handle.join().expect("clean exit");
    assert_eq!(stats.evaluations, 2);
    assert_eq!(stats.dedup_joined, 0);
}

#[test]
fn drain_finishes_in_flight_work_then_flushes_the_handler() {
    let path = sock_path("drain");
    let gate = Arc::new(Gate::default());
    let (handler, _, drained) = TestHandler::gated(Arc::clone(&gate));
    let server =
        Server::bind(Endpoint::Unix(path.clone()), handler, ServeOptions::default()).expect("bind");
    let handle = server.start();

    let worker = {
        let path = path.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&Endpoint::Unix(path)).expect("connect");
            client.call(search("(module slow)", 3), &mut |_| {}).expect("call")
        })
    };
    wait_until("the evaluation to start", Duration::from_secs(10), || {
        handle.stats().in_flight == 1
    });
    // Connected before the drain: the drain stops accepting *new*
    // connections, but requests on existing ones still get answers.
    let mut late = Client::connect(&Endpoint::Unix(path.clone())).expect("connect");
    late.ping().expect("connection accepted before the drain");

    // Drain while the evaluation is parked: the server must wait for it.
    handle.drain();
    assert!(!drained.load(Ordering::SeqCst), "flush must not run before in-flight work ends");

    // New work is refused while draining — with a typed rejection, not a
    // generic error, so clients can tell "shed" from "failed".
    match late.call(search("(module late)", 3), &mut |_| {}) {
        Err(ClientError::Rejected(reason)) => assert_eq!(reason, "draining"),
        other => panic!("expected a draining rejection, got {other:?}"),
    }

    gate.release();
    let out = worker.join().expect("client thread");
    assert_eq!(out.report, "best of (module slow) at 3 bits", "in-flight work completes");

    let stats = handle.join().expect("clean exit");
    assert!(drained.load(Ordering::SeqCst), "handler flushed after the last evaluation");
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.rejected, 1);
    assert!(!path.exists(), "socket file removed after drain");
}

#[test]
fn connecting_to_an_absent_socket_signals_fallback() {
    let path = sock_path("absent");
    match Client::connect(&Endpoint::Unix(path)) {
        Err(ClientError::Connect(_)) => {}
        other => panic!("expected Connect (the fall-back signal), got {other:?}"),
    }
}

#[test]
fn a_stale_socket_file_is_replaced_on_bind() {
    let path = sock_path("stale");
    // A socket file nobody answers on — a daemon that died without
    // cleanup. `bind` must probe it, find it dead, and take it over.
    {
        let l = std::os::unix::net::UnixListener::bind(&path).expect("plant stale socket");
        drop(l);
    }
    assert!(path.exists());
    let (handler, _, _) = TestHandler::plain();
    let server = Server::bind(Endpoint::Unix(path.clone()), handler, ServeOptions::default())
        .expect("rebind over stale socket");
    let handle = server.start();
    let mut client = Client::connect(&Endpoint::Unix(path)).expect("connect");
    client.ping().expect("ping");
    handle.drain();
    handle.join().expect("clean exit");
}

#[test]
fn tcp_endpoint_serves_when_asked() {
    let (handler, _, _) = TestHandler::plain();
    let server =
        Server::bind(Endpoint::Tcp("127.0.0.1:0".to_string()), handler, ServeOptions::default())
            .expect("bind tcp");
    let addr = server.tcp_addr().expect("bound tcp address");
    let handle = server.start();

    let mut client = Client::connect(&Endpoint::Tcp(addr.to_string())).expect("connect");
    client.ping().expect("ping");
    let out = client.call(search("(module tcp)", 2), &mut |_| {}).unwrap();
    assert_eq!(out.report, "best of (module tcp) at 2 bits");

    handle.drain();
    handle.join().expect("clean exit");
}

#[test]
fn shutdown_request_drains_the_server() {
    let path = sock_path("shutdown");
    let (handler, _, drained) = TestHandler::plain();
    let server =
        Server::bind(Endpoint::Unix(path.clone()), handler, ServeOptions::default()).expect("bind");
    let handle = server.start();

    let mut client = Client::connect(&Endpoint::Unix(path.clone())).expect("connect");
    let out = client.call(search("(module m)", 2), &mut |_| {}).unwrap();
    assert!(out.evaluated);
    client.shutdown().expect("shutdown acknowledged");

    let stats = handle.join().expect("clean exit");
    assert_eq!(stats.completed, 1);
    assert!(drained.load(Ordering::SeqCst));
    assert!(!path.exists());
}

#[test]
fn a_panicking_handler_reports_an_error_instead_of_stranding_waiters() {
    struct PanicHandler;
    impl Handler for PanicHandler {
        fn handle(&self, _: &RequestKind, _: &dyn Fn(&str)) -> Result<Reply, String> {
            panic!("boom");
        }
    }
    let path = sock_path("panic");
    let server =
        Server::bind(Endpoint::Unix(path.clone()), Box::new(PanicHandler), ServeOptions::default())
            .expect("bind");
    let handle = server.start();

    let mut client = Client::connect(&Endpoint::Unix(path)).expect("connect");
    match client.call(search("(module m)", 2), &mut |_| {}) {
        Err(ClientError::Remote(msg)) => assert!(msg.contains("panicked"), "got: {msg}"),
        other => panic!("expected a remote error, got {other:?}"),
    }
    // The server survives and keeps serving.
    client.ping().expect("ping after panic");

    handle.drain();
    let stats = handle.join().expect("clean exit");
    assert_eq!(stats.errors, 1);
}

/// Records the thread every evaluation runs on.
struct ThreadLog {
    threads: Arc<Mutex<Vec<(ThreadId, String)>>>,
}

fn current_thread() -> (ThreadId, String) {
    let t = std::thread::current();
    (t.id(), t.name().unwrap_or_default().to_string())
}

impl Handler for ThreadLog {
    fn handle(&self, kind: &RequestKind, _: &dyn Fn(&str)) -> Result<Reply, String> {
        self.threads.lock().unwrap().push(current_thread());
        let RequestKind::Search { source, .. } = kind else { return Err("not search".into()) };
        Ok(Reply { report: format!("ran {source}"), module: None, measurement: None })
    }
}

/// The server's own threads at `max_concurrent`: the pool's idle workers
/// make up the rest.
fn lanes(max_concurrent: usize) -> usize {
    max_concurrent.saturating_sub(WorkerPool::global().threads()).max(1)
}

#[test]
fn evaluations_run_on_the_lanes_and_pool_workers() {
    let path = sock_path("workers");
    let threads = Arc::new(Mutex::new(Vec::new()));
    let handler = Box::new(ThreadLog { threads: Arc::clone(&threads) });
    let opts = ServeOptions { max_concurrent: 2, ..ServeOptions::default() };
    let handle = Server::bind(Endpoint::Unix(path.clone()), handler, opts).expect("bind").start();
    let mut client = Client::connect(&Endpoint::Unix(path)).expect("connect");
    for i in 0..20 {
        let source = format!("(module m{i})");
        let out = client.call(search(&source, 4), &mut |_| {}).expect("served");
        assert_eq!(out.report, format!("ran {source}"));
    }
    handle.drain();
    let stats = handle.join().expect("clean exit");
    assert_eq!(stats.evaluations, 20, "distinct identities never dedup");
    let threads = threads.lock().unwrap();
    for (_, name) in threads.iter() {
        assert!(
            name.starts_with("serve-lane-") || name.starts_with("optinline-worker-"),
            "an evaluation ran on {name:?}, neither a lane nor a pool worker"
        );
    }
    let used: HashSet<ThreadId> = threads.iter().map(|(id, _)| *id).collect();
    let bound = lanes(2) + WorkerPool::global().threads();
    assert!(
        used.len() <= bound,
        "20 evaluations ran on {} threads, want at most {bound}",
        used.len()
    );
}

/// Parks evaluations on gates by source: `hold` on `lane` when it runs
/// on one of the server's lanes and on `worker` otherwise, `park` on
/// `park`, and `boom` panics. Records where each source ran.
struct PinHandler {
    lane: Arc<Gate>,
    worker: Arc<Gate>,
    park: Arc<Gate>,
    ran: Arc<Mutex<Vec<(String, ThreadId, String)>>>,
}

impl Handler for PinHandler {
    fn handle(&self, kind: &RequestKind, _: &dyn Fn(&str)) -> Result<Reply, String> {
        let RequestKind::Search { source, .. } = kind else { return Err("not search".into()) };
        let (id, name) = current_thread();
        self.ran.lock().unwrap().push((source.clone(), id, name.clone()));
        if source.contains("hold") {
            if name.starts_with("serve-lane-") {
                self.lane.wait();
            } else {
                self.worker.wait();
            }
        } else if source.contains("park") {
            self.park.wait();
        } else if source.contains("boom") {
            panic!("boom");
        }
        Ok(Reply { report: format!("ran {source}"), module: None, measurement: None })
    }
}

fn expect_panic_reply(client: &mut Client, source: &str) {
    match client.call(search(source, 4), &mut |_| {}) {
        Err(ClientError::Remote(msg)) => assert!(msg.contains("panicked"), "got: {msg}"),
        other => panic!("expected a remote error, got {other:?}"),
    }
}

/// A handler that panics on a pool worker, and then one that panics on
/// the server's lane, are each answered `error`, and the thread that ran
/// each goes on to run a later evaluation. With no pool workers only the
/// lane part runs: both evaluations run on the one lane.
#[test]
fn a_lane_and_a_pool_worker_keep_serving_after_a_handler_panics() {
    let workers = WorkerPool::global().threads();
    let path = sock_path("panicworker");
    let endpoint = Endpoint::Unix(path);
    let (lane, worker, park) = (Arc::default(), Arc::default(), Arc::default());
    let ran = Arc::new(Mutex::new(Vec::new()));
    let handler = PinHandler {
        lane: Arc::clone(&lane),
        worker: Arc::clone(&worker),
        park: Arc::clone(&park),
        ran: Arc::clone(&ran),
    };
    // One lane: every other slot is a pool worker.
    let opts = ServeOptions { max_concurrent: workers + 1, ..ServeOptions::default() };
    assert_eq!(lanes(opts.max_concurrent), 1);
    let handle = Server::bind(endpoint.clone(), Box::new(handler), opts).expect("bind").start();
    let call_in_thread = |source: String| {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&endpoint).expect("connect");
            client.call(search(&source, 4), &mut |_| {})
        })
    };
    let started = |what: &str| ran.lock().unwrap().iter().filter(|r| r.0.contains(what)).count();
    let ran_on = |what: &str| {
        let ran = ran.lock().unwrap();
        let r = ran.iter().find(|r| r.0.contains(what)).expect("evaluated");
        (r.1, r.2.clone())
    };
    let mut client = Client::connect(&endpoint).expect("connect");
    let mut calls = Vec::new();

    if workers > 0 {
        // Fill every slot, then let the workers go: the lane stays held,
        // so whatever runs next runs on a pool worker.
        calls.extend((0..=workers).map(|i| call_in_thread(format!("(module hold{i})"))));
        wait_until("a hold on every slot", Duration::from_secs(10), || {
            started("hold") == workers + 1
        });
        worker.release();
        expect_panic_reply(&mut client, "(module boom-worker)");
        let (boom_thread, boom_name) = ran_on("boom-worker");
        assert!(boom_name.starts_with("optinline-worker-"), "the panic ran on {boom_name:?}");

        // One parked evaluation per worker: each takes a worker of its
        // own, the one that panicked among them.
        calls.extend((0..workers).map(|i| call_in_thread(format!("(module park{i})"))));
        wait_until("a park on every worker", Duration::from_secs(10), || {
            started("park") == workers
        });
        let parked_on: HashSet<ThreadId> =
            ran.lock().unwrap().iter().filter(|r| r.0.contains("park")).map(|r| r.1).collect();
        assert!(parked_on.contains(&boom_thread), "the worker that panicked serves again");

        // Free the lane while the parks hold every worker: only the lane
        // is left to run what comes next.
        lane.release();
    }
    expect_panic_reply(&mut client, "(module boom-lane)");
    let out = client.call(search("(module after)", 4), &mut |_| {}).expect("served after a panic");
    assert_eq!(out.report, "ran (module after)");
    let (boom_thread, boom_name) = ran_on("boom-lane");
    assert!(boom_name.starts_with("serve-lane-"), "the panic ran on {boom_name:?}");
    assert_eq!(ran_on("after").0, boom_thread, "the lane that panicked ran the next evaluation");

    park.release();
    for call in calls {
        call.join().expect("client thread").expect("served");
    }
    handle.drain();
    let stats = handle.join().expect("clean exit");
    // Each worker ran a hold and a park, the lane a hold, then `after`.
    let (panics, completed) = if workers > 0 { (2, 2 * workers as u64 + 2) } else { (1, 1) };
    assert_eq!((stats.errors, stats.completed), (panics, completed));
}

/// Persistent clients repeat one identical request, so each often joins
/// another's evaluation. A joiner's `started` must reach it before its
/// result: a late one would be read by the client's next call as an
/// event for the wrong request, and every later call on that connection
/// would fail.
#[test]
fn a_joiners_started_event_precedes_its_result() {
    const CLIENTS: usize = 4;
    const CALLS: usize = 3000;
    let path = sock_path("joinorder");
    let (handler, _, _) = TestHandler::plain();
    let opts = ServeOptions { max_concurrent: CLIENTS, ..ServeOptions::default() };
    let handle = Server::bind(Endpoint::Unix(path.clone()), handler, opts).expect("bind").start();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&Endpoint::Unix(path)).expect("connect");
                let mut failures = Vec::new();
                for _ in 0..CALLS {
                    if let Err(e) = client.call(search("(module same)", 4), &mut |_| {}) {
                        failures.push(e.to_string());
                    }
                }
                failures
            })
        })
        .collect();
    let failures: Vec<String> =
        clients.into_iter().flat_map(|c| c.join().expect("client thread")).collect();
    handle.drain();
    let stats = handle.join().expect("clean exit");
    assert!(failures.is_empty(), "{} failed calls, first: {}", failures.len(), failures[0]);
    assert!(stats.dedup_joined > 0, "no call joined another's evaluation");
    assert_eq!(stats.completed, (CLIENTS * CALLS) as u64);
}

/// With default options a second identical request that arrives while
/// the first evaluates joins it: a free slot starts it at once.
#[test]
fn default_options_join_an_identical_request_in_flight() {
    if WorkerPool::global().threads() == 0 {
        eprintln!("skipped: with no pool workers the default runs one evaluation at a time");
        return;
    }
    let path = sock_path("defaultdedup");
    let gate = Arc::new(Gate::default());
    let (handler, handled, _) = TestHandler::gated(Arc::clone(&gate));
    let server =
        Server::bind(Endpoint::Unix(path.clone()), handler, ServeOptions::default()).expect("bind");
    let handle = server.start();
    let call = || {
        let path = path.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&Endpoint::Unix(path)).expect("connect");
            client.call(search("(module twice)", 4), &mut |_| {}).expect("call")
        })
    };
    let first = call();
    wait_until("the first evaluation to start", Duration::from_secs(10), || {
        handled.load(Ordering::SeqCst) == 1
    });
    let second = call();
    wait_until("the second request to join", Duration::from_secs(10), || {
        handle.stats().dedup_joined == 1
    });
    gate.release();
    let (a, b) = (first.join().expect("client"), second.join().expect("client"));
    assert_eq!(a.report, b.report);
    assert!(a.evaluated && b.deduped);
    handle.drain();
    let stats = handle.join().expect("clean exit");
    assert_eq!((stats.evaluations, stats.dedup_joined), (1, 1));
}

/// Sleeps briefly per evaluation and records the most evaluations it saw
/// running at once.
struct Overlap {
    running: AtomicUsize,
    peak: Arc<AtomicUsize>,
}

impl Handler for Overlap {
    fn handle(&self, kind: &RequestKind, _: &dyn Fn(&str)) -> Result<Reply, String> {
        let now = self.running.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(2));
        self.running.fetch_sub(1, Ordering::SeqCst);
        let RequestKind::Search { source, .. } = kind else { return Err("not search".into()) };
        Ok(Reply { report: format!("ran {source}"), module: None, measurement: None })
    }
}

/// Two servers share the pool, as when a new daemon starts before the
/// old one drains. Each has a small `max_concurrent` and more concurrent
/// clients than slots, so tasks find every slot taken and wait for one
/// to free: every job completes, neither server exceeds its cap, and
/// both drain.
#[test]
fn two_servers_sharing_the_pool_finish_every_job_and_drain() {
    const CLIENTS: usize = 3;
    const CALLS: usize = 15;
    let servers: Vec<_> = [1usize, 2]
        .into_iter()
        .map(|max_concurrent| {
            let path = sock_path(&format!("shared{max_concurrent}"));
            let peak = Arc::new(AtomicUsize::new(0));
            let handler = Overlap { running: AtomicUsize::new(0), peak: Arc::clone(&peak) };
            let opts = ServeOptions { max_concurrent, ..ServeOptions::default() };
            let handle = Server::bind(Endpoint::Unix(path.clone()), Box::new(handler), opts)
                .expect("bind")
                .start();
            (path, handle, peak, max_concurrent)
        })
        .collect();
    // Clients report back on a channel, so a stranded job fails the test
    // instead of hanging it.
    let (served, calls_done) = mpsc::channel();
    let clients: Vec<_> = servers
        .iter()
        .flat_map(|(path, ..)| {
            (0..CLIENTS).map(|c| {
                let (path, served) = (path.clone(), served.clone());
                std::thread::spawn(move || {
                    let mut client = Client::connect(&Endpoint::Unix(path)).expect("connect");
                    for i in 0..CALLS {
                        let source = format!("(module c{c}r{i})");
                        let out = client.call(search(&source, 4), &mut |_| {}).expect("served");
                        assert_eq!(out.report, format!("ran {source}"));
                    }
                    let _ = served.send(());
                })
            })
        })
        .collect();
    for _ in 0..clients.len() {
        calls_done.recv_timeout(Duration::from_secs(30)).expect("every client's calls served");
    }
    for c in clients {
        c.join().expect("client thread");
    }
    for (_, handle, peak, max_concurrent) in servers {
        let (done, finished) = mpsc::channel();
        let drainer = std::thread::spawn(move || {
            handle.drain();
            let _ = done.send(handle.join());
        });
        let stats = finished
            .recv_timeout(Duration::from_secs(5))
            .expect("drained within 5 s")
            .expect("clean exit");
        drainer.join().expect("drainer thread");
        assert_eq!(stats.completed, (CLIENTS * CALLS) as u64);
        assert!(peak.load(Ordering::SeqCst) <= max_concurrent, "the slot cap held");
    }
}

/// A drain that lands while the lanes are starting or going idle must
/// still wake every one of them: an idle server drains promptly, every
/// time.
#[test]
fn idle_servers_drain_promptly_every_time() {
    let path = sock_path("cycles");
    for cycle in 0..50 {
        let (handler, _, drained) = TestHandler::plain();
        let opts = ServeOptions { max_concurrent: 4, ..ServeOptions::default() };
        let server = Server::bind(Endpoint::Unix(path.clone()), handler, opts).expect("bind");
        let handle = server.start();
        let (done, finished) = mpsc::channel();
        let drainer = std::thread::spawn(move || {
            handle.drain();
            let _ = done.send(handle.join());
        });
        let stats = finished
            .recv_timeout(Duration::from_secs(2))
            .unwrap_or_else(|_| panic!("cycle {cycle}: drain and join took over 2 s"))
            .expect("clean exit");
        drainer.join().expect("drainer thread");
        assert!(drained.load(Ordering::SeqCst), "cycle {cycle}: the handler flushed");
        assert_eq!(stats.accepted, 0);
    }
}
