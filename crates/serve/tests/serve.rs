//! Integration tests for the serve machinery: transport round-trips,
//! concurrent dedup fan-out, graceful drain, and client fallback
//! signalling — all against a toy handler so the tests stay fast and
//! deterministic. Full-stack equivalence against the real evaluator
//! lives in `optinline-check` and the CLI tests.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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
    // The flight is recorded before the evaluation thread that enters the
    // handler is spawned, so the leader's entry can trail the joins.
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
