//! Connection-scaling tests for the event-driven front end: hundreds of
//! idle connections must cost file descriptors, not threads; a reader
//! that stops taking events must be disconnected, not waited on; a full
//! admission queue must park pipelined requests instead of dropping
//! them; and one client must serve many requests over a single dial.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use optinline_serve::{
    proto, Client, Endpoint, Event, Handler, Reply, Request, RequestKind, ServeOptions, Server,
    ServerHandle,
};

fn sock_path(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("optinline-connscale-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn start_server(path: &Path, handler: Box<dyn Handler>, opts: ServeOptions) -> ServerHandle {
    Server::bind(Endpoint::Unix(path.to_path_buf()), handler, opts).expect("bind").start()
}

fn wait_until(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn search(source: &str) -> RequestKind {
    RequestKind::Search {
        source: source.to_string(),
        target: "x86".to_string(),
        bits: 4,
        full_eval: false,
        stats: false,
        pass_stats: false,
        objective: "size".to_string(),
    }
}

/// Replies instantly.
struct EchoHandler;

impl Handler for EchoHandler {
    fn handle(&self, kind: &RequestKind, _progress: &dyn Fn(&str)) -> Result<Reply, String> {
        Ok(Reply { report: format!("echo {}\n", kind.name()), module: None, measurement: None })
    }
}

/// The kernel's count of this process's threads, from `/proc`.
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line in /proc/self/status")
}

/// Connects with a little patience: a connect storm can transiently
/// overflow the listen backlog before the poll loop accepts the batch.
fn connect_patiently(path: &Path) -> UnixStream {
    let start = Instant::now();
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return s,
            Err(e) => {
                assert!(start.elapsed() < Duration::from_secs(10), "connect storm rejected: {e}");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

const IDLE_CONNS: usize = 500;

/// 500 idle connections: the old design held one reader thread per
/// connection (502 threads); the event loop must hold a fixed handful
/// regardless of connection count — and still answer every one of the
/// 500 with byte-identical responses afterwards.
#[test]
fn idle_connections_cost_fds_not_threads() {
    let path = sock_path("idle");
    let handle = start_server(&path, Box::new(EchoHandler), ServeOptions::default());

    #[cfg(target_os = "linux")]
    let threads_before = thread_count();

    let mut conns: Vec<UnixStream> = (0..IDLE_CONNS).map(|_| connect_patiently(&path)).collect();
    wait_until("all connections accepted", Duration::from_secs(20), || {
        handle.stats().open_connections == IDLE_CONNS as u64
    });

    #[cfg(target_os = "linux")]
    {
        let grown = thread_count().saturating_sub(threads_before);
        // Poll loop + evaluation workers (all running before `start`
        // returned, so counted before the connects) plus nothing per
        // connection; a generous bound of 4 catches any
        // thread-per-connection backsliding (which would be ~500).
        assert!(grown <= 4, "{IDLE_CONNS} idle connections grew {grown} threads (want <= 4)");
    }

    // Every connection still works, and identically: same request, same
    // reply bytes on all 500.
    let line = proto::encode_request(&Request::new(1, RequestKind::Ping));
    let mut first: Option<Vec<u8>> = None;
    for (i, conn) in conns.iter_mut().enumerate() {
        conn.write_all(line.as_bytes()).expect("write request");
        conn.write_all(b"\n").expect("write newline");
        let mut reply = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            assert_ne!(conn.read(&mut byte).expect("read reply"), 0, "conn {i} closed early");
            if byte[0] == b'\n' {
                break;
            }
            reply.push(byte[0]);
        }
        match &first {
            None => first = Some(reply),
            Some(expected) => {
                assert_eq!(&reply, expected, "conn {i} got a different reply byte-for-byte");
            }
        }
    }
    let pong = proto::decode_event(std::str::from_utf8(first.as_deref().unwrap()).unwrap())
        .expect("decode reply");
    assert!(matches!(pong, Event::Pong { id: 1 }), "the shared reply is the pong, got {pong:?}");

    let stats = handle.stats();
    assert_eq!(stats.peak_connections, IDLE_CONNS as u64);
    assert_eq!(stats.slow_reader_disconnects, 0);

    drop(conns);
    handle.drain();
    handle.join().expect("clean exit");
}

/// Emits a long stream of progress notes before finishing, so a client
/// that stops reading overflows its bounded outbound buffer mid-flight.
struct ChattyHandler {
    notes: usize,
}

impl Handler for ChattyHandler {
    fn handle(&self, _: &RequestKind, progress: &dyn Fn(&str)) -> Result<Reply, String> {
        let filler = "x".repeat(1024);
        for i in 0..self.notes {
            progress(&format!("note {i}: {filler}"));
        }
        Ok(Reply { report: "done".to_string(), module: None, measurement: None })
    }
}

/// A client that requests a chatty evaluation and then never reads:
/// once the socket buffer and the bounded outbound buffer are both
/// full, the server must disconnect it (counting a slow-reader
/// disconnect and accounting the request as cancelled) rather than
/// block the evaluation's fan-out on it.
#[test]
fn slow_reader_is_disconnected_not_waited_on() {
    let path = sock_path("slowreader");
    // Enough note bytes to overrun any kernel socket buffer, and a tiny
    // server-side bound so the overflow trips quickly after that.
    let handler = ChattyHandler { notes: 4096 };
    let opts = ServeOptions { out_buffer_cap: 4096, ..ServeOptions::default() };
    let handle = start_server(&path, Box::new(handler), opts);

    let mut conn = connect_patiently(&path);
    let line = proto::encode_request(&Request::new(9, search("(module stall)")));
    conn.write_all(line.as_bytes()).expect("write request");
    conn.write_all(b"\n").expect("write newline");
    // ...and never read.

    wait_until("the slow reader to be disconnected", Duration::from_secs(20), || {
        handle.stats().slow_reader_disconnects == 1
    });

    // The server closed the socket: draining what it buffered ends in
    // EOF, not a hang.
    let mut sink = [0u8; 65536];
    loop {
        match conn.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }

    handle.drain();
    let stats = handle.join().expect("clean exit");
    assert_eq!(stats.slow_reader_disconnects, 1);
    assert_eq!(stats.cancelled, 1, "the abandoned waiter is accounted as cancelled");
    assert_eq!(stats.completed, 0, "nobody was left to complete");
    assert_eq!(
        stats.accepted,
        stats.terminal(),
        "slow-reader disconnects keep the terminal ledger balanced"
    );
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

/// Parks on the gate only for sources containing "blocker".
struct GateHandler {
    gate: Arc<Gate>,
}

impl Handler for GateHandler {
    fn handle(&self, kind: &RequestKind, _: &dyn Fn(&str)) -> Result<Reply, String> {
        let RequestKind::Search { source, .. } = kind else { return Err("not search".into()) };
        if source.contains("blocker") {
            self.gate.wait();
        }
        Ok(Reply { report: format!("done {source}"), module: None, measurement: None })
    }
}

/// A connection that pipelines more requests than the queue can hold
/// must be parked (back-pressured through the socket), never answered
/// with a drop or an error — and every request completes once the
/// queue clears.
#[test]
fn full_queue_parks_pipelined_requests_until_space_frees() {
    let path = sock_path("parking");
    let gate = Arc::new(Gate::default());
    let handler = GateHandler { gate: Arc::clone(&gate) };
    let opts = ServeOptions { queue_capacity: 1, max_concurrent: 1, ..ServeOptions::default() };
    let handle = start_server(&path, Box::new(handler), opts);

    let mut conn = connect_patiently(&path);
    // One blocker holds the only slot; the rest overrun queue_capacity=1
    // and must park.
    let mut send = |id: u64, src: &str| {
        let line = proto::encode_request(&Request::new(id, search(src)));
        conn.write_all(line.as_bytes()).expect("write");
        conn.write_all(b"\n").expect("write");
    };
    send(1, "(module blocker)");
    for id in 2..=6 {
        send(id, &format!("(module m{id})"));
    }
    wait_until("blocker to occupy the slot", Duration::from_secs(10), || {
        handle.stats().in_flight == 1
    });
    // The queue bound holds while requests wait in the parked lane.
    assert!(handle.stats().queue_depth <= 1, "parking must not overrun the queue bound");

    gate.release();

    // All six requests get their Done, in order, over the one connection.
    let mut reader = std::io::BufReader::new(conn.try_clone().expect("clone"));
    let mut next_done = 1u64;
    while next_done <= 6 {
        use std::io::BufRead as _;
        let mut line = String::new();
        assert_ne!(reader.read_line(&mut line).expect("read event"), 0, "early close");
        if line.trim().is_empty() {
            continue;
        }
        let event = proto::decode_event(line.trim_end()).expect("decode event");
        if let Event::Done { id, .. } = event {
            assert_eq!(id, next_done, "pipelined completions arrive in request order");
            next_done += 1;
        }
    }

    handle.drain();
    let stats = handle.join().expect("clean exit");
    assert_eq!(stats.completed, 6, "every pipelined request completed");
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.rejected, 0, "parking is not rejection");
    assert_eq!(stats.accepted, stats.terminal());
}

/// One `Client` must serve an arbitrary number of sequential requests
/// over a single dial — the persistent-connection contract the load
/// generator (and the CLI's daemon fallback path) relies on.
#[test]
fn client_reuses_one_connection_for_many_requests() {
    let path = sock_path("reuse");
    let handle = start_server(&path, Box::new(EchoHandler), ServeOptions::default());

    let mut client = Client::connect(&Endpoint::Unix(path)).expect("connect");
    assert_eq!(client.dials(), 1);
    for i in 0..50 {
        client.ping().expect("pong");
        let outcome =
            client.call(search(&format!("(module reuse{i})")), &mut |_| {}).expect("served");
        assert_eq!(outcome.report, "echo search\n");
    }
    assert_eq!(client.dials(), 1, "100 sequential requests must not redial");

    // The pipelined interface shares the same single connection.
    let a = client.start(search("(module pipelined-a)")).expect("start a");
    let b = client.start(search("(module pipelined-b)")).expect("start b");
    assert!(client.finish(a, &mut |_| {}).expect("finish a").is_some());
    assert!(client.finish(b, &mut |_| {}).expect("finish b").is_some());
    assert_eq!(client.dials(), 1, "pipelining must not redial either");

    drop(client);
    handle.drain();
    let stats = handle.join().expect("clean exit");
    assert_eq!(stats.completed, 52);
    assert_eq!(stats.errors, 0);
}
