//! Robustness tests for the daemon: deadline shedding, round-robin
//! admission fairness, cooperative cancellation on waiter disconnect,
//! dead-waiter reaping during dedup fan-out, framing of lines that
//! arrive over many reads, and the request-line cap. All against toy
//! handlers; some clients speak the wire protocol raw so they can
//! pipeline requests and disconnect at nasty moments.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use optinline_serve::{
    proto, Client, ClientConfig, ClientError, Endpoint, Event, Handler, Reply, Request,
    RequestKind, ServeOptions, Server, ServerHandle,
};

fn sock_path(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("optinline-robust-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn search(source: &str) -> RequestKind {
    RequestKind::Search {
        source: source.to_string(),
        target: "x86".to_string(),
        bits: 4,
        full_eval: false,
        stats: true,
        pass_stats: false,
        objective: "size".to_string(),
    }
}

fn wait_until(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A gate evaluations park on until the test releases them.
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

/// Parks on the gate only for sources containing "blocker"; records the
/// order sources were handled in.
struct OrderHandler {
    gate: Arc<Gate>,
    order: Arc<Mutex<Vec<String>>>,
}

impl Handler for OrderHandler {
    fn handle(&self, kind: &RequestKind, _progress: &dyn Fn(&str)) -> Result<Reply, String> {
        let RequestKind::Search { source, .. } = kind else { return Err("not search".into()) };
        self.order.lock().unwrap().push(source.clone());
        if source.contains("blocker") {
            self.gate.wait();
        }
        Ok(Reply { report: format!("done {source}"), module: None, measurement: None })
    }
}

/// A raw wire-speaking connection: pipelines requests without waiting
/// for replies, and can vanish mid-conversation.
struct RawConn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl RawConn {
    fn connect(path: &PathBuf) -> RawConn {
        let writer = UnixStream::connect(path).expect("raw connect");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        RawConn { writer, reader }
    }

    fn send(&mut self, req: &Request) {
        let line = proto::encode_request(req);
        self.writer.write_all(line.as_bytes()).expect("raw write");
        self.writer.write_all(b"\n").expect("raw write");
        self.writer.flush().expect("raw flush");
    }

    fn read_event(&mut self) -> Event {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line).expect("raw read");
            assert!(n > 0, "server closed the connection unexpectedly");
            if !line.trim().is_empty() {
                return proto::decode_event(line.trim_end()).expect("decode event");
            }
        }
    }

    /// Reads until this id's terminal event, returning it.
    fn read_terminal(&mut self, id: u64) -> Event {
        loop {
            match self.read_event() {
                e @ (Event::Done { .. } | Event::Error { .. } | Event::Rejected { .. })
                    if event_id(&e) == id =>
                {
                    return e;
                }
                _ => {}
            }
        }
    }
}

fn event_id(e: &Event) -> u64 {
    match e {
        Event::Queued { id }
        | Event::Started { id, .. }
        | Event::Progress { id, .. }
        | Event::Done { id, .. }
        | Event::Error { id, .. }
        | Event::Rejected { id, .. }
        | Event::Pong { id }
        | Event::Stats { id, .. }
        | Event::ShuttingDown { id } => *id,
    }
}

fn start_server(path: &Path, handler: Box<dyn Handler>, opts: ServeOptions) -> ServerHandle {
    Server::bind(Endpoint::Unix(path.to_path_buf()), handler, opts).expect("bind").start()
}

#[test]
fn expired_queued_work_is_shed_with_a_typed_event() {
    let path = sock_path("deadline");
    let gate = Arc::new(Gate::default());
    let order = Arc::new(Mutex::new(Vec::new()));
    let handler = OrderHandler { gate: Arc::clone(&gate), order: Arc::clone(&order) };
    let opts = ServeOptions { queue_capacity: 16, max_concurrent: 1, ..ServeOptions::default() };
    let handle = start_server(&path, Box::new(handler), opts);

    // Occupy the only slot.
    let blocker = {
        let path = path.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&Endpoint::Unix(path)).expect("connect");
            c.call(search("(module blocker)"), &mut |_| {}).expect("blocker completes")
        })
    };
    wait_until("blocker to start", Duration::from_secs(10), || handle.stats().in_flight == 1);

    // A deadlined request that can never get the slot in time.
    let config = ClientConfig { deadline_ms: Some(40), ..ClientConfig::default() };
    let mut hurried = Client::connect_with(&Endpoint::Unix(path.clone()), config).expect("connect");
    match hurried.call(search("(module hurried)"), &mut |_| {}) {
        Err(ClientError::Rejected(reason)) => assert_eq!(reason, "deadline"),
        other => panic!("expected a typed deadline rejection, got {other:?}"),
    }

    gate.release();
    blocker.join().expect("blocker thread");
    handle.drain();
    let stats = handle.join().expect("clean exit");
    assert_eq!(stats.shed_deadline, 1, "the shed is counted");
    assert_eq!(stats.completed, 1);
    assert_eq!(
        stats.accepted,
        stats.terminal(),
        "every accepted request reaches exactly one terminal counter"
    );
    assert_eq!(*order.lock().unwrap(), vec!["(module blocker)"], "shed work never evaluates");
}

#[test]
fn admission_is_round_robin_across_connections() {
    let path = sock_path("fairness");
    let gate = Arc::new(Gate::default());
    let order = Arc::new(Mutex::new(Vec::new()));
    let handler = OrderHandler { gate: Arc::clone(&gate), order: Arc::clone(&order) };
    let opts = ServeOptions { queue_capacity: 16, max_concurrent: 1, ..ServeOptions::default() };
    let handle = start_server(&path, Box::new(handler), opts);

    // Connection A occupies the slot, then floods its sub-queue.
    let mut flood = RawConn::connect(&path);
    flood.send(&Request::new(1, search("(module blocker)")));
    wait_until("blocker to start", Duration::from_secs(10), || handle.stats().in_flight == 1);
    for (i, src) in ["(module a2)", "(module a3)", "(module a4)"].iter().enumerate() {
        flood.send(&Request::new(2 + i as u64, search(src)));
    }
    wait_until("flood to queue", Duration::from_secs(10), || handle.stats().queue_depth == 3);

    // Connection B sends one request, queued behind A's three.
    let mut single = RawConn::connect(&path);
    single.send(&Request::new(1, search("(module b1)")));
    wait_until("b1 to queue", Duration::from_secs(10), || handle.stats().queue_depth == 4);

    gate.release();
    assert!(matches!(single.read_terminal(1), Event::Done { .. }));
    for id in 1..=4 {
        assert!(matches!(flood.read_terminal(id), Event::Done { .. }));
    }

    let order = order.lock().unwrap().clone();
    let pos = |s: &str| order.iter().position(|o| o == s).unwrap_or(usize::MAX);
    // Under a global FIFO b1 would run last; round-robin interleaves it
    // after at most one of A's queued jobs.
    assert!(
        pos("(module b1)") < pos("(module a3)"),
        "one connection's backlog must not starve another's single request; order: {order:?}"
    );

    handle.drain();
    let stats = handle.join().expect("clean exit");
    assert_eq!(stats.completed, 5);
}

/// Spins on cancellation checkpoints, so the evaluation stops only when
/// the flight's token fires; flags that it observed cancellation.
struct SpinHandler {
    entered: Arc<AtomicBool>,
}

impl Handler for SpinHandler {
    fn handle(&self, _: &RequestKind, _: &dyn Fn(&str)) -> Result<Reply, String> {
        self.entered.store(true, Ordering::SeqCst);
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(30) {
            optinline_ir::cancel::checkpoint();
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("never cancelled".to_string())
    }
}

#[test]
fn disconnecting_every_waiter_cancels_the_evaluation_at_a_checkpoint() {
    let path = sock_path("cancel");
    let entered = Arc::new(AtomicBool::new(false));
    let handler = SpinHandler { entered: Arc::clone(&entered) };
    let handle = start_server(&path, Box::new(handler), ServeOptions::default());

    {
        let mut conn = RawConn::connect(&path);
        conn.send(&Request::new(1, search("(module doomed)")));
        wait_until("evaluation to enter the handler", Duration::from_secs(10), || {
            entered.load(Ordering::SeqCst)
        });
        // The only waiter vanishes.
    }
    // The spin loop must be stopped by the cancel token long before its
    // 30s natural end — the slot frees and the request is accounted as
    // cancelled.
    wait_until("the evaluation to stop at a checkpoint", Duration::from_secs(10), || {
        handle.stats().in_flight == 0
    });

    handle.drain();
    let stats = handle.join().expect("clean exit");
    assert_eq!(stats.cancelled, 1, "the abandoned request is accounted, not silently dropped");
    assert_eq!(stats.completed, 0);
    assert_eq!(stats.errors, 0, "cancellation is not an error");
    assert_eq!(stats.accepted, stats.cancelled + stats.shed_deadline);
}

/// Parks until released, then emits a progress note before finishing —
/// so a waiter that died while the evaluation was parked is discovered
/// by the progress fan-out, not the terminal one.
struct ProgressHandler {
    gate: Arc<Gate>,
}

impl Handler for ProgressHandler {
    fn handle(&self, kind: &RequestKind, progress: &dyn Fn(&str)) -> Result<Reply, String> {
        self.gate.wait();
        progress("late note");
        let RequestKind::Search { source, .. } = kind else { return Err("not search".into()) };
        Ok(Reply { report: format!("done {source}"), module: None, measurement: None })
    }
}

#[test]
fn dead_joiners_are_reaped_without_disturbing_the_leader() {
    let path = sock_path("reap");
    let gate = Arc::new(Gate::default());
    let handler = ProgressHandler { gate: Arc::clone(&gate) };
    // Two workers: dedup joining happens when a worker pops the job, so
    // the joiner needs a free worker while the leader occupies the first.
    let opts = ServeOptions { queue_capacity: 16, max_concurrent: 2, ..ServeOptions::default() };
    let handle = start_server(&path, Box::new(handler), opts);

    // Leader parks on the gate.
    let leader = {
        let path = path.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&Endpoint::Unix(path)).expect("connect");
            c.call(search("(module shared)"), &mut |_| {}).expect("leader completes")
        })
    };
    wait_until("leader to start", Duration::from_secs(10), || handle.stats().in_flight == 1);

    // A joiner dedups onto the same flight, then vanishes.
    {
        let mut joiner = RawConn::connect(&path);
        joiner.send(&Request::new(7, search("(module shared)")));
        wait_until("joiner to dedup", Duration::from_secs(10), || handle.stats().dedup_joined == 1);
    }
    wait_until("joiner reap", Duration::from_secs(10), || handle.stats().cancelled == 1);

    gate.release();
    let out = leader.join().expect("leader thread");
    assert_eq!(out.report, "done (module shared)", "the leader's answer is unaffected");

    handle.drain();
    let stats = handle.join().expect("clean exit");
    assert_eq!(stats.completed, 1, "only the live waiter completes");
    assert_eq!(stats.cancelled, 1, "the dead joiner is accounted as cancelled");
    assert_eq!(stats.evaluations, 1, "one evaluation served both");
    assert_eq!(stats.accepted, stats.terminal());
}

/// Client and daemon ship in one binary, so nothing decodes older lines:
/// a stats line without every counter and a request line without an
/// objective are both decode errors, and the daemon answers such a
/// request line with `error{id: 0, "bad request: …"}`.
#[test]
fn lines_missing_a_required_field_are_refused() {
    let stats = concat!(
        r#"{"id":2,"event":"stats","accepted":4,"rejected":0,"evaluations":4,"#,
        r#""dedup_joined":0,"completed":4,"errors":0,"queue_depth":0,"in_flight":0}"#
    );
    let err = proto::decode_event(stats).expect_err("a stats line missing counters is refused");
    assert!(err.contains("shed_deadline"), "got: {err}");
    let search = r#"{"id":5,"kind":"search","source":"m","target":"x86","bits":16,"stats":true}"#;
    let err = proto::decode_request(search).expect_err("a request without objective is refused");
    assert!(err.contains("objective"), "got: {err}");

    let path = sock_path("badline");
    let handler = OrderHandler { gate: Arc::default(), order: Arc::default() };
    let handle = start_server(&path, Box::new(handler), ServeOptions::default());
    let mut conn = RawConn::connect(&path);
    conn.writer.write_all(search.as_bytes()).expect("raw write");
    conn.writer.write_all(b"\n").expect("raw write");
    match conn.read_event() {
        Event::Error { id: 0, message } => {
            assert_eq!(message, format!("bad request: {err}"));
        }
        other => panic!("expected a bad-request error, got {other:?}"),
    }
    drop(conn);
    handle.drain();
    let stats = handle.join().expect("clean exit");
    assert_eq!(stats.accepted, 0, "a refused line never reaches admission");
}

/// A request line that arrives over many reads is framed like a one-piece
/// write, and a pipelined second line split across writes is answered
/// too.
#[test]
fn lines_split_across_reads_are_framed_whole() {
    let path = sock_path("split");
    let gate = Arc::new(Gate::default());
    let handler = OrderHandler { gate, order: Arc::new(Mutex::new(Vec::new())) };
    let handle = start_server(&path, Box::new(handler), ServeOptions::default());
    let request = Request::new(1, search("(module split)"));

    let mut whole = RawConn::connect(&path);
    whole.send(&request);
    let expected = whole.read_terminal(1);
    assert!(matches!(expected, Event::Done { .. }), "{expected:?}");

    let first = proto::encode_request(&request) + "\n";
    let second = proto::encode_request(&Request::new(2, RequestKind::Ping)) + "\n";
    let step = first.len() / 64;
    assert!(step >= 1, "the request line is shorter than 64 bytes");
    let mut split = RawConn::connect(&path);
    let mut pieces = 0;
    let (head, tail) = second.as_bytes().split_at(second.len() / 2);
    for piece in first.as_bytes().chunks(step).chain([head, tail]) {
        split.writer.write_all(piece).expect("raw write");
        split.writer.flush().expect("raw flush");
        pieces += 1;
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(pieces >= 64 + 2, "{pieces} pieces");
    // The ping is answered inline, so it may overtake the search's reply.
    let (mut done, mut pong) = (None, false);
    while done.is_none() || !pong {
        match split.read_event() {
            Event::Pong { id: 2 } => pong = true,
            e @ Event::Done { id: 1, .. } => done = Some(e),
            e => assert!(
                matches!(e, Event::Queued { id: 1 } | Event::Started { id: 1, .. }),
                "{e:?}"
            ),
        }
    }
    assert_eq!(done, Some(expected));

    handle.drain();
    let stats = handle.join().expect("clean exit");
    assert_eq!(stats.completed, 2);
}

/// A client that streams bytes without a newline is refused once the line
/// passes the daemon's cap (4 MiB) with `rejected{line_too_long}` (id 0)
/// and disconnected; the daemon goes on serving other connections.
#[test]
fn an_over_long_line_is_rejected_and_the_connection_closed() {
    const CAP: usize = 4 << 20;
    let path = sock_path("longline");
    let handler = OrderHandler { gate: Arc::default(), order: Arc::default() };
    let handle = start_server(&path, Box::new(handler), ServeOptions::default());

    let mut flood = RawConn::connect(&path);
    flood.writer.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    flood.writer.write_all(&vec![b'x'; CAP + 1]).expect("raw write");
    flood.writer.flush().expect("raw flush");
    let mut line = String::new();
    let n = flood.reader.read_line(&mut line).expect("the daemon answers the stream");
    assert!(n > 0, "the daemon closed the connection without an answer");
    let event = proto::decode_event(line.trim_end()).expect("decode event");
    assert_eq!(event, Event::Rejected { id: 0, reason: "line_too_long".to_string() });
    line.clear();
    assert_eq!(flood.reader.read_line(&mut line).expect("read after refusal"), 0, "{line}");

    let mut other = RawConn::connect(&path);
    other.send(&Request::new(7, RequestKind::Ping));
    assert_eq!(other.read_event(), Event::Pong { id: 7 });
    let request = Request::new(8, search("(module after-flood)"));
    other.send(&request);
    assert!(matches!(other.read_terminal(8), Event::Done { .. }));

    drop((flood, other));
    handle.drain();
    let stats = handle.join().expect("clean exit");
    assert_eq!(stats.rejected, 1, "the refusal is counted: {stats:?}");
    assert_eq!(stats.completed, 1);
}
