//! The daemon: event-driven connection multiplexing, fair bounded
//! admission, in-flight dedup, deadlines, cooperative cancellation,
//! graceful drain.
//!
//! # Life of a request
//!
//! A single **poll loop** thread owns the listener and every client
//! socket, all non-blocking, registered with `poll(2)` (the FFI shim in
//! `net.rs`). Readiness drives everything: pending connects are
//! accepted, readable sockets are drained into per-connection line
//! buffers, and each complete line decodes into one request; a line
//! longer than [`MAX_LINE`] is answered `rejected{line_too_long}` and
//! the connection closed, so those buffers stay bounded. Admin
//! requests (`ping`, `stats`, `shutdown`) are answered inline on the
//! poll thread. Evaluation requests are acknowledged with `queued` and
//! pushed into the bounded admission structure — when it is full the
//! decoded job is *parked* and the connection's read interest is
//! dropped, which back-pressures the client through the socket exactly
//! like the old blocking reader did, without holding a thread.
//!
//! Admission is **round-robin per connection**, not a global FIFO: each
//! connection owns a sub-queue and the workers take one job per
//! connection per turn, so a client that batches a thousand requests
//! cannot starve a client that sends one. The total across sub-queues is
//! still bounded by `queue_capacity`.
//!
//! `max_concurrent` **evaluation workers** start with the server and
//! live until it drains; no thread is created per request. A worker pops
//! the next job and checks its 128-bit evaluation identity against the
//! in-flight table: a hit makes this request a *joiner* (it is recorded
//! as a waiter and the worker moves on to the next job), a miss makes it
//! the *leader* of a fresh evaluation, and the worker runs the injected
//! [`Handler`] itself. Progress notes and the final result fan out to
//! every waiter recorded by completion time. A panic in the handler is
//! caught and reported as an `error` event so joiners are never
//! stranded, and the worker goes on serving.
//!
//! # Outbound buffering and slow readers
//!
//! No thread ever writes to a socket except the poll loop. [`Out::send`]
//! appends the encoded event to the connection's bounded outbound buffer
//! and nudges the poll loop through its waker; the loop drains buffers
//! opportunistically and on `POLLOUT`. A stalled client therefore cannot
//! block a worker or an evaluation's fan-out — its buffer just
//! grows until the bound trips, at which point everything pending is
//! replaced by a typed `rejected{slow_reader}` farewell and the
//! connection is doomed: one best-effort farewell flush, then disconnect
//! and the usual waiter reaping. A single event larger than the bound is
//! allowed into an *empty* buffer, so memory stays bounded by
//! `out_buffer_cap + one event` without a frame-size ceiling.
//!
//! # Deadlines and shedding
//!
//! A request may carry a queue-time budget (`deadline_ms`). Expired jobs
//! are swept out of the sub-queues by every worker pop, in the same
//! critical section, and by the poll loop once per tick, which covers
//! work queued while every worker is busy. Both answer with a typed
//! `rejected{deadline}` event — under overload the daemon sheds late
//! work instead of evaluating it after the client stopped caring, and
//! the shed is always observable, never a silent drop. A *parked* job
//! (never admitted) that expires is refused with the same event but
//! counts as `rejected`, not `shed_deadline`, so the accepted-side
//! ledger never sees a request it never accepted.
//!
//! # Cancellation
//!
//! A waiter whose event cannot be delivered (dead or doomed connection)
//! is reaped from its flight immediately, and a connection's death reaps
//! its queued jobs and all its waiters. A flight whose **last** waiter
//! disappears has its
//! [`CancelToken`](optinline_ir::cancel::CancelToken) cancelled; the
//! evaluation notices at its next pass/search checkpoint and unwinds with
//! a `Cancelled` payload, which the executor absorbs — nobody is waiting
//! for the answer. The identity's slot is generation-stamped so a new
//! identical request arriving after cancellation starts a fresh flight
//! instead of joining the dying one.
//!
//! # Drain
//!
//! `shutdown` requests, [`ServerHandle::drain`], and an optional external
//! [`AtomicBool`] (wired to SIGTERM by the CLI) all trip the same flag:
//! the listener is dropped (new connects fail fast), new work is
//! answered `rejected{draining}`, queued and running work finishes and
//! each worker exits once the queue is empty, the remaining outbound
//! buffers are flushed (bounded by a grace period so one stalled reader
//! cannot hold the exit hostage), the handler flushes durable state
//! ([`Handler::drained`]), connections close, the Unix socket file is
//! removed, and final [`ServerStats`] are returned. The SIGTERM flag and
//! the deadline sweep run every poll timeout tick, the only periodic
//! wake-up left — accept and I/O latency come from readiness.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use optinline_ir::cancel::{self, CancelToken, Cancelled};

use crate::net::{
    poll_fds, Endpoint, Listener, PollFd, Stream, Waker, POLLERR, POLLHUP, POLLIN, POLLNVAL,
    POLLOUT,
};
use crate::proto::{self, Event, Request, RequestKind, ServerStats};

/// Poll timeout, and the period of the poll loop's deadline sweep:
/// bounds how stale the external drain-flag (SIGTERM) check, and the
/// shedding of expired work queued behind busy workers, can get.
/// Everything else — accept, reads, writes, wakes — is readiness-driven;
/// this tick never gates request latency.
const POLL_TICK: Duration = Duration::from_millis(25);

/// Read chunk size for draining a readable socket.
const READ_CHUNK: usize = 16 * 1024;

/// The longest request line the daemon frames, newline excluded. A request
/// carries its module's whole text; the longest line CI and the benchmark
/// send is 14,064 bytes. A longer line is answered `rejected{line_too_long}`
/// and the connection closed, so a client streaming bytes without a newline
/// holds at most `MAX_LINE + READ_CHUNK` bytes of the daemon's memory.
const MAX_LINE: usize = 4 << 20;

/// How long the drain endgame keeps trying to flush outbound buffers
/// before abandoning unread bytes — one stalled reader must not hold
/// the exit hostage.
const DRAIN_FLUSH_GRACE: Duration = Duration::from_secs(5);

/// The result of one evaluation, fanned out verbatim to every waiter.
///
/// `report` is the exact text an in-process run would print; `module` is
/// the optimized module text for `optimize` requests (`None` otherwise).
/// Keeping these byte-identical to the in-process path is what makes the
/// serve-equivalence oracle a pure string comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reply {
    /// Rendered report text, exactly as the in-process path prints it.
    pub report: String,
    /// Optimized module text, for request kinds that produce one.
    pub module: Option<String>,
    /// The winning measurement, when the evaluation produced one.
    pub measurement: Option<optinline_ir::Measurement>,
}

/// What the daemon actually runs. Injected so this crate stays free of a
/// dependency on the CLI (which depends on everything else): the CLI
/// implements `Handler` by calling the same `cmd_*` functions its
/// subcommands use, which makes daemon and in-process results identical
/// by construction.
pub trait Handler: Send + Sync + 'static {
    /// Evaluates one request. `progress` may be called with short
    /// human-readable notes; they are fanned out to all current waiters.
    /// `Err` is reported to clients as an `error` event.
    ///
    /// The executor installs the request's cancel token around this
    /// call, so any `optinline_ir::cancel::checkpoint()` the evaluation
    /// passes through will stop it once every waiter has disconnected —
    /// handlers built on the optimizer/search stack get cancellation for
    /// free, without a signature change.
    fn handle(&self, kind: &RequestKind, progress: &dyn Fn(&str)) -> Result<Reply, String>;

    /// Called exactly once, after the last evaluation of a drain has
    /// finished and before the server exits. Flush durable state here
    /// (the CLI flushes its store scopes so batched puts survive).
    fn drained(&self) {}
}

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Bounded admission depth, summed across all per-connection
    /// sub-queues; a connection whose job does not fit is parked and not
    /// read from (back-pressuring the client) until space frees.
    pub queue_capacity: usize,
    /// Evaluation workers started with the server, so the most
    /// evaluations running at once. `0` means "worker pool threads, at
    /// least 1".
    pub max_concurrent: usize,
    /// Per-connection outbound buffer bound in bytes; a connection whose
    /// pending events exceed it is disconnected as a slow reader. A
    /// single event always fits an empty buffer, whatever its size.
    pub out_buffer_cap: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { queue_capacity: 64, max_concurrent: 0, out_buffer_cap: 1 << 20 }
    }
}

impl ServeOptions {
    fn effective_concurrency(&self) -> usize {
        if self.max_concurrent > 0 {
            self.max_concurrent
        } else {
            optinline_core::WorkerPool::global().threads().max(1)
        }
    }
}

/// The outcome of a non-blocking admission attempt; refusals return the
/// job so its connection can park it or answer it.
enum Admit {
    Admitted,
    /// The server is draining: refuse with `rejected{draining}`.
    Draining(Job),
    /// The queue is full: park the job, stop reading its connection.
    Full(Job),
}

/// One evaluation request admitted into a connection's sub-queue.
struct Job {
    id: u64,
    kind: RequestKind,
    out: Arc<Out>,
    /// Queue-time budget: still queued past this instant → shed with
    /// `rejected{deadline}`.
    deadline: Option<Instant>,
}

/// A request waiting on an in-flight evaluation (the leader is the first
/// entry of its flight's waiter list).
#[derive(Clone)]
struct Waiter {
    id: u64,
    out: Arc<Out>,
}

/// One in-flight evaluation: its waiters and the cancellation plumbing.
struct Flight {
    /// Generation stamp: a leader only removes/serves the identity's
    /// entry if the generation still matches its own, so a *new* flight
    /// started after this one was cancelled is never clobbered by the
    /// old leader's epilogue.
    gen: u64,
    waiters: Vec<Waiter>,
    /// Cancelled when the last waiter disappears; the leader's
    /// evaluation observes it at its next checkpoint.
    cancel: CancelToken,
}

/// A connection's outbound side, shared between the poll loop (which
/// owns the socket and does every actual write) and the workers (which
/// only ever append events here). Bounded: a
/// reader that falls `cap` bytes behind is doomed, never waited on.
#[derive(Debug)]
struct Out {
    /// The owning connection's id — the admission fairness key and the
    /// reap key when the connection dies.
    conn: u64,
    /// Cleared when the connection is doomed (overflow, write failure,
    /// EOF): no further events are accepted and the poll loop closes
    /// the socket at its next pass.
    alive: AtomicBool,
    /// Set when the doom was a buffer overflow — feeds the slow-reader
    /// gauge exactly once, at reap time.
    overflowed: AtomicBool,
    /// Encoded event lines waiting for the socket to take them.
    buf: Mutex<Vec<u8>>,
    cap: usize,
    /// Nudges the poll loop when bytes arrive or the connection dooms.
    waker: Arc<Waker>,
    /// Context string for fault-injection filtering (the endpoint).
    ctx: Arc<str>,
}

/// The id a terminal farewell should carry when `event` overflowed the
/// buffer: the same request the undeliverable event belonged to.
fn event_id(event: &Event) -> u64 {
    match event {
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

impl Out {
    fn new(conn: u64, cap: usize, waker: Arc<Waker>, ctx: Arc<str>) -> Out {
        Out {
            conn,
            alive: AtomicBool::new(true),
            overflowed: AtomicBool::new(false),
            buf: Mutex::new(Vec::new()),
            cap,
            waker,
            ctx,
        }
    }

    fn alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    fn mark_dead(&self) {
        self.alive.store(false, Ordering::Release);
    }

    fn overflowed(&self) -> bool {
        self.overflowed.load(Ordering::Acquire)
    }

    fn lock_buf(&self) -> MutexGuard<'_, Vec<u8>> {
        self.buf.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn buffered(&self) -> bool {
        !self.lock_buf().is_empty()
    }

    /// Queues one event line for the poll loop to write. Returns whether
    /// the event was accepted; a refusal means the connection is (now)
    /// dead, so the caller can reap its waiters — a vanished or stalled
    /// client must not take down an evaluation other waiters still want,
    /// nor keep soaking up fan-out.
    fn send(&self, event: &Event) -> bool {
        if !self.alive() {
            return false;
        }
        let mut line = proto::encode_event(event);
        line.push('\n');
        {
            let mut buf = self.lock_buf();
            // The cap trips only when the reader is already behind
            // (non-empty buffer): one oversized event in an empty buffer
            // is accepted, bounding memory at `cap + one event` without
            // imposing a frame-size ceiling.
            if !buf.is_empty() && buf.len() + line.len() > self.cap {
                // Slow reader: replace everything it has not taken with
                // a typed farewell it might, and doom the connection.
                buf.clear();
                let mut farewell = proto::encode_event(&Event::Rejected {
                    id: event_id(event),
                    reason: "slow_reader".to_string(),
                });
                farewell.push('\n');
                buf.extend_from_slice(farewell.as_bytes());
                drop(buf);
                self.overflowed.store(true, Ordering::SeqCst);
                self.mark_dead();
                self.waker.wake();
                return false;
            }
            buf.extend_from_slice(line.as_bytes());
        }
        self.waker.wake();
        true
    }
}

/// Round-robin per-connection admission: each connection owns a
/// sub-queue; `pop_fair` serves connections in rotation so one chatty
/// connection cannot starve the rest. `queued` is the global bound.
#[derive(Default)]
struct QueueState {
    per_conn: HashMap<u64, VecDeque<Job>>,
    /// Rotation order; invariant: a connection appears here exactly once
    /// iff its sub-queue is non-empty.
    rr: VecDeque<u64>,
    queued: usize,
    running: usize,
}

impl QueueState {
    fn push(&mut self, job: Job) {
        let conn = job.out.conn;
        let q = self.per_conn.entry(conn).or_default();
        if q.is_empty() {
            self.rr.push_back(conn);
        }
        q.push_back(job);
        self.queued += 1;
    }

    /// One job from the connection at the head of the rotation; the
    /// connection goes to the back if it still has queued work.
    fn pop_fair(&mut self) -> Option<Job> {
        let conn = self.rr.pop_front()?;
        let q = self.per_conn.get_mut(&conn)?;
        let job = q.pop_front();
        if q.is_empty() {
            self.per_conn.remove(&conn);
        } else {
            self.rr.push_back(conn);
        }
        if job.is_some() {
            self.queued -= 1;
        }
        job
    }

    /// Sweeps every sub-queue: deadline-expired jobs into `shed`,
    /// dead-connection jobs into `dead` (a backstop — `drop_conn`
    /// normally gets them first).
    fn take_expired(&mut self, now: Instant, shed: &mut Vec<Job>, dead: &mut Vec<Job>) {
        if self.queued == 0 {
            return;
        }
        let before = shed.len() + dead.len();
        for q in self.per_conn.values_mut() {
            let mut keep = VecDeque::with_capacity(q.len());
            while let Some(job) = q.pop_front() {
                if !job.out.alive() {
                    dead.push(job);
                } else if job.deadline.is_some_and(|d| d <= now) {
                    shed.push(job);
                } else {
                    keep.push_back(job);
                }
            }
            *q = keep;
        }
        let removed = shed.len() + dead.len() - before;
        if removed > 0 {
            self.queued -= removed;
            self.per_conn.retain(|_, q| !q.is_empty());
            let per_conn = &self.per_conn;
            self.rr.retain(|c| per_conn.contains_key(c));
        }
    }

    /// Drops every queued job belonging to `conn`; returns how many.
    fn drop_conn(&mut self, conn: u64) -> u64 {
        let dropped = self.per_conn.remove(&conn).map_or(0, |q| q.len());
        self.queued -= dropped;
        self.rr.retain(|c| *c != conn);
        dropped as u64
    }
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    rejected: AtomicU64,
    evaluations: AtomicU64,
    dedup_joined: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
    shed_deadline: AtomicU64,
    cancelled: AtomicU64,
    open_connections: AtomicU64,
    peak_connections: AtomicU64,
    slow_reader_disconnects: AtomicU64,
    poll_wakeups: AtomicU64,
}

struct ServerInner {
    handler: Box<dyn Handler>,
    queue_capacity: usize,
    max_concurrent: usize,
    out_buffer_cap: usize,
    state: Mutex<QueueState>,
    /// Wakes an idle worker when a job is admitted, and every worker
    /// when the drain lands.
    wake: Condvar,
    in_flight: Mutex<HashMap<u128, Flight>>,
    draining: AtomicBool,
    counters: Counters,
    next_conn: AtomicU64,
    next_gen: AtomicU64,
    /// Endpoint display string, threaded into every `Out` as the
    /// fault-injection context.
    ctx: Arc<str>,
    /// Interrupts the poll loop's sleep: new outbound bytes, freed queue
    /// space, or a drain from another thread.
    waker: Arc<Waker>,
}

impl std::fmt::Debug for ServerInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerInner").finish_non_exhaustive()
    }
}

impl ServerInner {
    fn lock_state(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_in_flight(&self) -> MutexGuard<'_, HashMap<u128, Flight>> {
        self.in_flight.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Trips the drain flag. It is set under the state lock, so a worker
    /// that found the queue empty either sees the flag or is already
    /// waiting for the notification: no lost wake-up.
    fn begin_drain(&self) {
        {
            let _s = self.lock_state();
            self.draining.store(true, Ordering::SeqCst);
        }
        self.wake.notify_all();
        self.waker.wake();
    }

    fn count_cancelled(&self, n: u64) {
        if n > 0 {
            self.counters.cancelled.fetch_add(n, Ordering::SeqCst);
        }
    }

    fn server_stats(&self) -> ServerStats {
        let (queue_depth, in_flight) = {
            let s = self.lock_state();
            (s.queued as u64, s.running as u64)
        };
        ServerStats {
            accepted: self.counters.accepted.load(Ordering::SeqCst),
            rejected: self.counters.rejected.load(Ordering::SeqCst),
            evaluations: self.counters.evaluations.load(Ordering::SeqCst),
            dedup_joined: self.counters.dedup_joined.load(Ordering::SeqCst),
            completed: self.counters.completed.load(Ordering::SeqCst),
            errors: self.counters.errors.load(Ordering::SeqCst),
            shed_deadline: self.counters.shed_deadline.load(Ordering::SeqCst),
            cancelled: self.counters.cancelled.load(Ordering::SeqCst),
            queue_depth,
            in_flight,
            open_connections: self.counters.open_connections.load(Ordering::SeqCst),
            peak_connections: self.counters.peak_connections.load(Ordering::SeqCst),
            slow_reader_disconnects: self.counters.slow_reader_disconnects.load(Ordering::SeqCst),
            poll_wakeups: self.counters.poll_wakeups.load(Ordering::Relaxed),
        }
    }

    /// Non-blocking admission: refused jobs come back to the caller,
    /// which either refuses them with a typed event (`Draining`) or
    /// parks them and pauses reading the connection (`Full`). The
    /// draining check happens under the state lock so a drain cannot
    /// slip a job in behind it.
    fn try_admit(&self, job: Job) -> Admit {
        let mut s = self.lock_state();
        if self.draining() {
            return Admit::Draining(job);
        }
        if s.queued >= self.queue_capacity {
            return Admit::Full(job);
        }
        s.push(job);
        drop(s);
        self.counters.accepted.fetch_add(1, Ordering::SeqCst);
        self.wake.notify_one();
        Admit::Admitted
    }

    /// Releases the worker's slot once its job is settled (a joiner's
    /// right after the dedup check).
    fn finish_slot(&self) {
        self.lock_state().running -= 1;
        // The poll loop may be waiting on this for drain completion.
        self.waker.wake();
    }

    /// Answers the jobs a sweep took out of the queue: expired ones with
    /// `rejected{deadline}`, dead-connection ones as cancelled. Called
    /// after the state lock is dropped.
    fn answer_swept(&self, shed: &mut Vec<Job>, dead: &mut Vec<Job>) {
        for job in shed.drain(..) {
            self.counters.shed_deadline.fetch_add(1, Ordering::SeqCst);
            job.out.send(&Event::Rejected { id: job.id, reason: "deadline".to_string() });
        }
        self.count_cancelled(dead.drain(..).len() as u64);
    }

    /// One evaluation worker: runs until draining *and* the queue is
    /// empty. Each pop first sweeps deadline-expired (and
    /// dead-connection) jobs out of the sub-queues in the same critical
    /// section, so an expired job is never evaluated.
    fn work(&self) {
        let mut shed: Vec<Job> = Vec::new();
        let mut dead: Vec<Job> = Vec::new();
        loop {
            let job = {
                let mut s = self.lock_state();
                loop {
                    s.take_expired(Instant::now(), &mut shed, &mut dead);
                    if let Some(job) = s.pop_fair() {
                        s.running += 1;
                        break Some(job);
                    }
                    if !shed.is_empty() || !dead.is_empty() {
                        break None;
                    }
                    if self.draining() {
                        return;
                    }
                    s = self.wake.wait(s).unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            // Queue space was freed: let the poll loop retry parked jobs.
            self.waker.wake();
            self.answer_swept(&mut shed, &mut dead);
            if let Some(job) = job {
                self.launch(job);
            }
        }
    }

    /// Dedup-checks one popped job: join a live in-flight identity or
    /// lead a fresh evaluation on this worker. A *cancelled* flight is
    /// never joined — its evaluation is already unwinding — so the job
    /// replaces it as a new generation.
    fn launch(&self, job: Job) {
        let Job { id, kind, out, .. } = job;
        let Some(identity) = kind.identity() else {
            // Admin kinds are answered at the connection layer and never
            // reach the queue; refuse defensively rather than panic.
            self.counters.errors.fetch_add(1, Ordering::SeqCst);
            out.send(&Event::Error {
                id,
                message: format!("request kind {:?} is not evaluable", kind.name()),
            });
            self.finish_slot();
            return;
        };
        let waiter = Waiter { id, out: Arc::clone(&out) };
        let lead = {
            let mut inflight = self.lock_in_flight();
            match inflight.get_mut(&identity) {
                Some(flight) if !flight.cancel.is_cancelled() => {
                    flight.waiters.push(waiter);
                    None
                }
                _ => {
                    let gen = self.next_gen.fetch_add(1, Ordering::SeqCst);
                    let flight = Flight { gen, waiters: vec![waiter], cancel: CancelToken::new() };
                    let token = flight.cancel.clone();
                    inflight.insert(identity, flight);
                    Some((gen, token))
                }
            }
        };
        out.send(&Event::Started { id, deduped: lead.is_none() });
        let Some((gen, token)) = lead else {
            self.counters.dedup_joined.fetch_add(1, Ordering::SeqCst);
            // A joiner holds no slot: its result arrives with the leader's.
            self.finish_slot();
            return;
        };
        self.counters.evaluations.fetch_add(1, Ordering::SeqCst);
        self.execute(identity, gen, token, &kind);
    }

    /// Removes waiters (by `(conn, id)`) from the given flight if the
    /// generation still matches, cancelling the flight when its last
    /// waiter goes. Returns how many were removed.
    fn reap_waiters(&self, identity: u128, gen: u64, dead: &[(u64, u64)]) -> u64 {
        let mut inflight = self.lock_in_flight();
        let Some(flight) = inflight.get_mut(&identity) else { return 0 };
        if flight.gen != gen {
            return 0;
        }
        let before = flight.waiters.len();
        flight.waiters.retain(|w| !dead.contains(&(w.out.conn, w.id)));
        let removed = (before - flight.waiters.len()) as u64;
        if removed > 0 && flight.waiters.is_empty() {
            flight.cancel.cancel();
        }
        removed
    }

    /// Runs the handler as the leader of `(identity, gen)` and fans the
    /// outcome out to every waiter still registered at completion time.
    fn execute(&self, identity: u128, gen: u64, token: CancelToken, kind: &RequestKind) {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // Install the flight's cancel token around the handler: any
            // checkpoint the evaluation passes through now answers to
            // this flight's waiters.
            let _cancel = cancel::install(token);
            let progress = |note: &str| {
                // Snapshot waiters, then send outside the lock: a stalled
                // client socket must not block the dedup table. A waiter
                // whose send fails is reaped on the spot so later fan-out
                // skips it — and if it was the last one, the flight is
                // cancelled.
                let waiters = self
                    .lock_in_flight()
                    .get(&identity)
                    .filter(|f| f.gen == gen)
                    .map(|f| f.waiters.clone())
                    .unwrap_or_default();
                let mut dead: Vec<(u64, u64)> = Vec::new();
                for w in &waiters {
                    if !w.out.send(&Event::Progress { id: w.id, note: note.to_string() }) {
                        dead.push((w.out.conn, w.id));
                    }
                }
                if !dead.is_empty() {
                    self.count_cancelled(self.reap_waiters(identity, gen, &dead));
                }
            };
            self.handler.handle(kind, &progress)
        }));
        enum Terminal {
            Reply(Reply),
            Fail(String),
            Cancelled,
        }
        let terminal = match outcome {
            Ok(Ok(reply)) => Terminal::Reply(reply),
            Ok(Err(message)) => Terminal::Fail(message),
            Err(payload) if payload.downcast_ref::<Cancelled>().is_some() => Terminal::Cancelled,
            Err(_) => Terminal::Fail("evaluation panicked; see server log".to_string()),
        };
        let waiters = {
            let mut inflight = self.lock_in_flight();
            match inflight.get(&identity) {
                // Only this generation's entry belongs to this leader: a
                // successor flight at the same identity is left alone.
                Some(flight) if flight.gen == gen => {
                    inflight.remove(&identity).map(|f| f.waiters).unwrap_or_default()
                }
                _ => Vec::new(),
            }
        };
        let mut evaluated = true;
        for w in &waiters {
            // Every waiter lands in exactly one terminal counter, counted
            // before the event is queued: a client holding its terminal
            // event must find it in a `stats` snapshot. A failed send
            // moves the count to cancelled — the client disconnected and
            // never got an answer.
            let counter = match &terminal {
                Terminal::Reply(_) => &self.counters.completed,
                Terminal::Fail(_) => &self.counters.errors,
                Terminal::Cancelled => &self.counters.cancelled,
            };
            counter.fetch_add(1, Ordering::SeqCst);
            let sent = match &terminal {
                Terminal::Reply(reply) => w.out.send(&Event::Done {
                    id: w.id,
                    report: reply.report.clone(),
                    module: reply.module.clone(),
                    measurement: reply.measurement,
                    evaluated,
                }),
                Terminal::Fail(message) => {
                    w.out.send(&Event::Error { id: w.id, message: message.clone() })
                }
                // Normally unreachable (cancellation implies zero
                // waiters), but a waiter that raced in is answered, not
                // stranded.
                Terminal::Cancelled => {
                    w.out.send(&Event::Rejected { id: w.id, reason: "cancelled".to_string() })
                }
            };
            if !sent {
                self.counters.cancelled.fetch_add(1, Ordering::SeqCst);
                counter.fetch_sub(1, Ordering::SeqCst);
            }
            evaluated = false;
        }
        self.finish_slot();
    }

    /// Connection-death cleanup: drop its queued jobs, remove its
    /// waiters from every flight (cancelling flights that empty), and
    /// refuse all future events to it.
    fn reap_connection(&self, conn: u64, out: &Out) {
        out.mark_dead();
        let dropped = {
            let mut s = self.lock_state();
            s.drop_conn(conn)
        };
        self.count_cancelled(dropped);
        let mut reaped = 0u64;
        {
            let mut inflight = self.lock_in_flight();
            for flight in inflight.values_mut() {
                let before = flight.waiters.len();
                flight.waiters.retain(|w| w.out.conn != conn);
                let removed = (before - flight.waiters.len()) as u64;
                if removed > 0 && flight.waiters.is_empty() {
                    flight.cancel.cancel();
                }
                reaped += removed;
            }
        }
        self.count_cancelled(reaped);
    }
}

/// One connection as the poll loop sees it: the owned socket, the shared
/// outbound side, the unparsed input bytes, and at most one decoded job
/// waiting for queue space.
struct Conn {
    stream: Stream,
    out: Arc<Out>,
    /// Bytes read but not yet framed into lines.
    rdbuf: Vec<u8>,
    /// Length of the prefix of `rdbuf` already searched and known to
    /// hold no newline, so a line arriving over many reads is scanned
    /// once, not once per read.
    scanned: usize,
    /// A decoded request the full queue refused; while present, the
    /// connection is not read from (back-pressure) and not polled for
    /// input.
    parked: Option<Job>,
    /// The read side reported EOF or a read error; the connection is
    /// reaped at the end of the iteration.
    eof: bool,
}

/// What a poll-set slot refers to.
enum Key {
    Waker,
    Listener,
    Conn(u64),
}

/// Accepts every pending connection (readiness said there is at least
/// one; drain until `WouldBlock`).
fn accept_ready(
    inner: &Arc<ServerInner>,
    listener: &Listener,
    conns: &mut HashMap<u64, Conn>,
) -> std::io::Result<()> {
    while let Some(stream) = listener.accept()? {
        // Poll-loop fault site: an injected accept failure drops the
        // brand-new connection on the floor, as a listener with an
        // exhausted fd table would — clients see a reset, not a hang.
        if optinline_fault::armed()
            && optinline_fault::fail_point("serve.accept", &inner.ctx).is_err()
        {
            stream.shutdown();
            continue;
        }
        if stream.set_nonblocking(true).is_err() {
            stream.shutdown();
            continue;
        }
        let conn = inner.next_conn.fetch_add(1, Ordering::SeqCst);
        let out = Arc::new(Out::new(
            conn,
            inner.out_buffer_cap,
            Arc::clone(&inner.waker),
            Arc::clone(&inner.ctx),
        ));
        conns.insert(
            conn,
            Conn { stream, out, rdbuf: Vec::new(), scanned: 0, parked: None, eof: false },
        );
        let open = inner.counters.open_connections.fetch_add(1, Ordering::SeqCst) + 1;
        inner.counters.peak_connections.fetch_max(open, Ordering::SeqCst);
    }
    Ok(())
}

/// Drains a readable socket into the connection's line buffer and
/// processes every complete line (until one parks).
fn read_ready(inner: &Arc<ServerInner>, c: &mut Conn) {
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match c.stream.read(&mut chunk) {
            Ok(0) => {
                c.eof = true;
                break;
            }
            Ok(n) => {
                c.rdbuf.extend_from_slice(&chunk[..n]);
                // Frame what is here before reading more: an over-long
                // line is refused at `MAX_LINE + READ_CHUNK` bytes at most.
                if c.rdbuf.len() > MAX_LINE {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                c.eof = true;
                break;
            }
        }
    }
    process_lines(inner, c);
}

/// Frames and handles complete lines out of `rdbuf`. Stops early when a
/// request parks (the rest of the backlog waits with it) or the
/// connection dooms. A trailing partial line stays buffered. A line
/// longer than [`MAX_LINE`], complete or not, ends the connection.
fn process_lines(inner: &Arc<ServerInner>, c: &mut Conn) {
    while c.parked.is_none() && c.out.alive() {
        let found = c.rdbuf[c.scanned..].iter().position(|&b| b == b'\n');
        if found.map_or(c.rdbuf.len(), |at| c.scanned + at) > MAX_LINE {
            refuse_long_line(inner, c);
            return;
        }
        let Some(at) = found else {
            c.scanned = c.rdbuf.len();
            break;
        };
        let pos = c.scanned + at;
        c.scanned = 0;
        let raw: Vec<u8> = c.rdbuf.drain(..=pos).collect();
        match std::str::from_utf8(&raw[..raw.len() - 1]) {
            Ok(line) => handle_line(inner, c, line.trim_end_matches('\r')),
            Err(_) => {
                // Not a protocol stream; drop the connection like the
                // line reader it replaced would have.
                c.eof = true;
                return;
            }
        }
    }
}

/// Answers a line longer than [`MAX_LINE`] with `rejected{line_too_long}`
/// (id 0: the line was never decoded), counted in `rejected`, and closes
/// the connection once that farewell has had its flush: the rest of the
/// stream cannot be framed.
fn refuse_long_line(inner: &ServerInner, c: &mut Conn) {
    inner.counters.rejected.fetch_add(1, Ordering::SeqCst);
    c.out.send(&Event::Rejected { id: 0, reason: "line_too_long".to_string() });
    c.rdbuf = Vec::new();
    c.scanned = 0;
    c.eof = true;
}

/// Decodes and answers one request line — the poll-loop half of request
/// handling. Admin kinds are answered inline; evaluation kinds go
/// through `queued` → admission (or parking, or a typed refusal).
fn handle_line(inner: &Arc<ServerInner>, c: &mut Conn, line: &str) {
    if line.trim().is_empty() {
        return;
    }
    let request = match proto::decode_request(line) {
        Ok(request) => request,
        Err(e) => {
            c.out.send(&Event::Error { id: 0, message: format!("bad request: {e}") });
            return;
        }
    };
    let Request { id, kind, deadline_ms } = request;
    match kind {
        RequestKind::Ping => {
            c.out.send(&Event::Pong { id });
        }
        RequestKind::Stats => {
            let stats = inner.server_stats();
            c.out.send(&Event::Stats { id, stats });
        }
        RequestKind::Shutdown => {
            c.out.send(&Event::ShuttingDown { id });
            inner.begin_drain();
        }
        kind => {
            // `queued` goes out before admission so the client always
            // sees it first, parked or not.
            c.out.send(&Event::Queued { id });
            let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
            match inner.try_admit(Job { id, kind, out: Arc::clone(&c.out), deadline }) {
                Admit::Admitted => {}
                Admit::Draining(job) => {
                    inner.counters.rejected.fetch_add(1, Ordering::SeqCst);
                    c.out.send(&Event::Rejected { id: job.id, reason: "draining".to_string() });
                }
                Admit::Full(job) => c.parked = Some(job),
            }
        }
    }
}

/// Retries a parked job: admit it, or refuse it if the drain landed or
/// its deadline expired while it waited. Once the park slot clears, the
/// connection's buffered backlog resumes processing.
fn retry_parked(inner: &Arc<ServerInner>, c: &mut Conn) {
    let Some(job) = c.parked.take() else { return };
    if job.deadline.is_some_and(|d| d <= Instant::now()) {
        // Never admitted, so this is a pre-admission refusal (the
        // `rejected` counter) — the accepted-side ledger must not see a
        // request it never accepted.
        inner.counters.rejected.fetch_add(1, Ordering::SeqCst);
        c.out.send(&Event::Rejected { id: job.id, reason: "deadline".to_string() });
    } else {
        match inner.try_admit(job) {
            Admit::Admitted => {}
            Admit::Draining(job) => {
                inner.counters.rejected.fetch_add(1, Ordering::SeqCst);
                c.out.send(&Event::Rejected { id: job.id, reason: "draining".to_string() });
            }
            Admit::Full(job) => {
                c.parked = Some(job);
                return;
            }
        }
    }
    process_lines(inner, c);
}

/// Writes as much of the connection's outbound buffer as the socket will
/// take. All failure modes doom the connection: a half-written frame is
/// garbage the client cannot resynchronize on, so there is no partial
/// recovery, only the close-and-reap path.
fn flush_out(c: &mut Conn) {
    let mut buf = c.out.lock_buf();
    while !buf.is_empty() {
        if optinline_fault::armed() {
            match optinline_fault::write_cap("serve.out", &c.out.ctx, buf.len()) {
                optinline_fault::WriteFault::Pass => {}
                optinline_fault::WriteFault::Truncate(keep) => {
                    let keep = keep.min(buf.len());
                    let _ = c.stream.write(&buf[..keep]);
                    let _ = c.stream.flush();
                    buf.clear();
                    c.out.mark_dead();
                    return;
                }
                optinline_fault::WriteFault::Error => {
                    buf.clear();
                    c.out.mark_dead();
                    return;
                }
            }
        }
        match c.stream.write(&buf) {
            Ok(0) => {
                buf.clear();
                c.out.mark_dead();
                return;
            }
            Ok(n) => {
                buf.drain(..n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                buf.clear();
                c.out.mark_dead();
                return;
            }
        }
    }
}

/// The poll loop: owns the listener and every connection, multiplexes
/// accept/read/write readiness on one thread, and exits once a drain
/// has finished all admitted work and flushed (or timed out flushing)
/// every outbound buffer. Returns the surviving connections' sockets so
/// `serve` can close them *after* the handler has flushed durable state.
fn event_loop(
    inner: &Arc<ServerInner>,
    listener: Listener,
    drain_on: Option<&'static AtomicBool>,
) -> std::io::Result<Vec<Stream>> {
    listener.set_nonblocking(true)?;
    let mut listener = Some(listener);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut keys: Vec<Key> = Vec::new();
    let mut flush_deadline: Option<Instant> = None;
    let mut last_sweep = Instant::now();

    loop {
        if let Some(flag) = drain_on {
            // Once: tripping the drain wakes this loop, so re-tripping it
            // every pass would spin it until the drain completes.
            if flag.load(Ordering::SeqCst) && !inner.draining() {
                inner.begin_drain();
            }
        }
        if inner.draining() && listener.is_some() {
            // Dropping the listener the moment the drain lands makes new
            // connects fail fast instead of parking in a backlog nobody
            // will ever serve.
            listener = None;
        }

        // Deadline expiry is an event no notification announces: while
        // every worker is busy, only this tick sheds expired queued work.
        if last_sweep.elapsed() >= POLL_TICK {
            last_sweep = Instant::now();
            let (mut shed, mut dead) = (Vec::new(), Vec::new());
            inner.lock_state().take_expired(last_sweep, &mut shed, &mut dead);
            inner.answer_swept(&mut shed, &mut dead);
        }

        // Queue space may have freed (or the drain landed): settle
        // parked jobs and resume reading their connections.
        let parked: Vec<u64> =
            conns.iter().filter(|(_, c)| c.parked.is_some()).map(|(&id, _)| id).collect();
        for id in parked {
            if let Some(c) = conns.get_mut(&id) {
                retry_parked(inner, c);
            }
        }

        // Drain endgame: every admitted job finished, nothing parked,
        // and the outbound buffers flushed (or the grace expired).
        if inner.draining() && conns.values().all(|c| c.parked.is_none()) {
            let work_done = {
                let s = inner.lock_state();
                s.queued == 0 && s.running == 0
            };
            if work_done {
                let deadline =
                    *flush_deadline.get_or_insert_with(|| Instant::now() + DRAIN_FLUSH_GRACE);
                let pending = conns.values().any(|c| c.out.alive() && c.out.buffered());
                if !pending || Instant::now() >= deadline {
                    break;
                }
            }
        }

        fds.clear();
        keys.clear();
        fds.push(PollFd { fd: inner.waker.fd(), events: POLLIN, revents: 0 });
        keys.push(Key::Waker);
        if let Some(l) = &listener {
            fds.push(PollFd { fd: l.raw_fd(), events: POLLIN, revents: 0 });
            keys.push(Key::Listener);
        }
        for (&id, c) in &conns {
            let mut events = 0i16;
            if !c.eof && c.parked.is_none() && c.out.alive() {
                events |= POLLIN;
            }
            if c.out.buffered() {
                events |= POLLOUT;
            }
            if events != 0 {
                fds.push(PollFd { fd: c.stream.raw_fd(), events, revents: 0 });
                keys.push(Key::Conn(id));
            }
        }

        poll_fds(&mut fds, POLL_TICK.as_millis() as i32)?;
        inner.counters.poll_wakeups.fetch_add(1, Ordering::Relaxed);

        for (i, key) in keys.iter().enumerate() {
            let revents = fds[i].revents;
            if revents == 0 {
                continue;
            }
            match key {
                Key::Waker => inner.waker.drain(),
                Key::Listener => {
                    if let Some(l) = &listener {
                        accept_ready(inner, l, &mut conns)?;
                    }
                }
                Key::Conn(id) => {
                    if let Some(c) = conns.get_mut(id) {
                        if revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
                            && c.parked.is_none()
                        {
                            read_ready(inner, c);
                        }
                    }
                }
            }
        }

        // Opportunistic flush: replies produced this iteration go out
        // now if the socket will take them — no extra poll round, no
        // added latency. Sockets that refuse keep POLLOUT interest.
        for c in conns.values_mut() {
            if c.out.buffered() {
                flush_out(c);
            }
        }

        // Close what finished: EOF, write failure, or a slow-reader
        // doom (its farewell just got its one best-effort flush above —
        // waiting on a stalled peer is not an option).
        conns.retain(|&id, c| {
            let done = c.eof || !c.out.alive();
            if done {
                if c.out.overflowed() {
                    inner.counters.slow_reader_disconnects.fetch_add(1, Ordering::SeqCst);
                }
                inner.reap_connection(id, &c.out);
                c.stream.shutdown();
                inner.counters.open_connections.fetch_sub(1, Ordering::SeqCst);
            }
            !done
        });
    }
    Ok(conns.into_values().map(|c| c.stream).collect())
}

/// A bound, not-yet-running server.
#[derive(Debug)]
pub struct Server {
    inner: Arc<ServerInner>,
    listener: Listener,
    endpoint: Endpoint,
    /// External drain signal (the CLI points this at its SIGTERM flag).
    drain_on: Option<&'static AtomicBool>,
}

impl Server {
    /// Binds `endpoint` eagerly (so address errors surface before any
    /// daemonization) with the given handler and options.
    pub fn bind(
        endpoint: Endpoint,
        handler: Box<dyn Handler>,
        opts: ServeOptions,
    ) -> std::io::Result<Server> {
        let listener = Listener::bind(&endpoint)?;
        let waker = Arc::new(Waker::new()?);
        let inner = Arc::new(ServerInner {
            handler,
            queue_capacity: opts.queue_capacity.max(1),
            max_concurrent: opts.effective_concurrency(),
            out_buffer_cap: opts.out_buffer_cap.max(1),
            state: Mutex::new(QueueState::default()),
            wake: Condvar::new(),
            in_flight: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
            counters: Counters::default(),
            next_conn: AtomicU64::new(0),
            next_gen: AtomicU64::new(0),
            ctx: Arc::from(endpoint.to_string()),
            waker,
        });
        Ok(Server { inner, listener, endpoint, drain_on: None })
    }

    /// Additionally trip drain when `flag` becomes true (checked every
    /// poll tick). The CLI wires this to its SIGTERM handler.
    pub fn drain_on(mut self, flag: &'static AtomicBool) -> Server {
        self.drain_on = Some(flag);
        self
    }

    /// The TCP address actually bound, if the endpoint is TCP (lets tests
    /// bind port 0 and discover the real port).
    pub fn tcp_addr(&self) -> Option<std::net::SocketAddr> {
        self.listener.tcp_addr()
    }

    /// Serves until drained, then returns final stats. Blocks the calling
    /// thread (it becomes the poll loop); use [`Server::start`] for a
    /// handle-based variant.
    pub fn run(self) -> std::io::Result<ServerStats> {
        let workers = self.start_workers();
        self.serve(workers)
    }

    /// Runs the server on a background thread and returns a handle for
    /// draining and joining (used by tests and the equivalence oracle).
    /// The evaluation workers are running when this returns.
    pub fn start(self) -> ServerHandle {
        let workers = self.start_workers();
        let inner = Arc::clone(&self.inner);
        let thread = std::thread::Builder::new()
            .name("serve-poll".to_string())
            .spawn(move || self.serve(workers))
            .expect("spawn server thread");
        ServerHandle { inner, thread }
    }

    /// Starts the `max_concurrent` evaluation workers.
    fn start_workers(&self) -> Vec<std::thread::JoinHandle<()>> {
        (0..self.inner.max_concurrent)
            .map(|i| {
                let inner = Arc::clone(&self.inner);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || inner.work())
                    .expect("spawn evaluation worker")
            })
            .collect()
    }

    /// The poll loop, then the drain epilogue.
    fn serve(self, workers: Vec<std::thread::JoinHandle<()>>) -> std::io::Result<ServerStats> {
        let survivors = match event_loop(&self.inner, self.listener, self.drain_on) {
            Ok(survivors) => survivors,
            Err(e) => {
                // Poll-layer failure: let the workers wind down instead
                // of waiting for work forever, then surface the error.
                self.inner.begin_drain();
                return Err(e);
            }
        };

        // The event loop only exits once draining with the queue empty
        // and no evaluation running, so every worker is exiting too.
        for worker in workers {
            let _ = worker.join();
        }

        // All evaluations done and their events flushed: let the handler
        // flush durable state before any client can observe the daemon
        // as gone.
        self.inner.handler.drained();

        for stream in &survivors {
            stream.shutdown();
        }
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
        Ok(self.inner.server_stats())
    }
}

/// Handle to a server running on a background thread.
#[derive(Debug)]
pub struct ServerHandle {
    inner: Arc<ServerInner>,
    thread: std::thread::JoinHandle<std::io::Result<ServerStats>>,
}

impl ServerHandle {
    /// Trips the drain flag: stop admitting, finish in-flight, exit.
    pub fn drain(&self) {
        self.inner.begin_drain();
    }

    /// A live snapshot of server counters.
    pub fn stats(&self) -> ServerStats {
        self.inner.server_stats()
    }

    /// Waits for the server to finish draining and returns final stats.
    pub fn join(self) -> std::io::Result<ServerStats> {
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(std::io::Error::other("server thread panicked")),
        }
    }
}
