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
//! connection owns a sub-queue and the pops take one job per
//! connection per turn, so a client that batches a thousand requests
//! cannot starve a client that sends one. The total across sub-queues is
//! still bounded by `queue_capacity`.
//!
//! # Evaluation lanes
//!
//! Evaluations run on the process's compute lanes; no thread is created
//! per request. Each admitted job is also offered to the
//! [`WorkerPool`](optinline_core::WorkerPool) as a top-level task that
//! starts the next queued request, so an idle pool worker takes it. The
//! server keeps `max(1, max_concurrent − pool workers)` threads of its own
//! (one on a two-core host), lent to the pool as lanes of the server's
//! task group: they help running searches with their `map` jobs first,
//! then start the server's queued requests. A thread waiting inside a
//! `map` never starts a request, so requests never nest. The queue still
//! decides order, shedding and parking, and the `in_flight` gauge caps
//! evaluation slots at `max_concurrent` (default: one per core); a task
//! that finds every slot taken leaves its job queued, and each freed slot
//! offers a task while jobs wait.
//!
//! It is not one dedicated thread per core because every thread that
//! allocates keeps its own allocator arena resident: on a two-core host
//! that design added 13–15% to the benchmark's peak RSS, while these lanes
//! leave the set of allocating threads as it was.
//!
//! A starting job's 128-bit evaluation identity is checked against the
//! in-flight table: a hit makes this request a *joiner* (its `started`
//! event is queued, it is recorded as a waiter and its slot is given
//! back, all under the state lock, and the thread moves on), a miss makes
//! it the *leader* of a fresh evaluation, and the thread that popped it
//! runs the injected [`Handler`] itself. Progress notes and the final
//! result fan out to every waiter recorded by completion time. A panic in
//! the handler is caught and reported as an `error` event so joiners are
//! never stranded, and the thread goes on serving.
//!
//! # Bookkeeping
//!
//! One mutex, `state`, holds all of the daemon's request bookkeeping: the
//! per-connection sub-queues, the in-flight table and the [`ServerStats`]
//! that `stats` replies and the drain report copy. Its `queue_depth` and
//! `in_flight` are the live gauges admission and the slot cap read, and
//! every counter moves in the critical section that changes what it
//! counts: `accepted` with the push, shed and dead-connection jobs where
//! they leave the queue, reaped waiters where they leave their flight,
//! and terminal counts where the leader removes its flight, before any
//! terminal event is queued. So each snapshot is one instant's ledger:
//! `terminal() + queue_depth <= accepted`, with equality once nothing is
//! in flight. No path takes `state` while holding it; events are queued
//! under a connection's own buffer lock, which never waits on `state`.
//!
//! # Outbound buffering and slow readers
//!
//! No thread ever writes to a socket except the poll loop. [`Out::send`]
//! appends the encoded event to the connection's bounded outbound buffer
//! and nudges the poll loop through its waker; the loop drains buffers
//! opportunistically and on `POLLOUT`. A stalled client therefore cannot
//! block an evaluation or its fan-out — its buffer just
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
//! are swept out of the sub-queues by every pop, in the same critical
//! section, and by the poll loop once per tick, which covers work queued
//! while every slot is busy. Both answer with a typed
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
//! answered `rejected{draining}`, queued and running work finishes, the
//! server's lanes are stopped and woken and exit, the remaining outbound
//! buffers are flushed (bounded by a grace period so one stalled reader
//! cannot hold the exit hostage), the handler flushes durable state
//! ([`Handler::drained`]), connections close, the Unix socket file is
//! removed, and final [`ServerStats`] are returned. The SIGTERM flag and
//! the deadline sweep run every poll timeout tick, the only periodic
//! wake-up left — accept and I/O latency come from readiness.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

use optinline_core::{TaskGroup, WorkerPool};
use optinline_ir::cancel::{self, CancelToken, Cancelled};

use crate::net::{
    poll_fds, Endpoint, Listener, PollFd, Stream, Waker, POLLERR, POLLHUP, POLLIN, POLLNVAL,
    POLLOUT,
};
use crate::proto::{self, Event, Request, RequestKind, ServerStats};

/// Poll timeout, and the period of the poll loop's deadline sweep:
/// bounds how stale the external drain-flag (SIGTERM) check, and the
/// shedding of expired work queued while every slot is busy, can get.
/// Everything else — accept, reads, writes, wakes — is readiness-driven;
/// this tick never gates request latency.
const POLL_TICK: Duration = Duration::from_millis(25);

/// Read chunk size for draining a readable socket.
const READ_CHUNK: usize = 16 * 1024;

/// The longest request line the daemon frames, newline excluded. A request
/// carries its module's whole text; the longest line CI and the benchmark
/// send is 14,562 bytes. A longer line is answered `rejected{line_too_long}`
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
    /// The most evaluations running at once. `0` means one per core
    /// (the global worker pool's workers plus one). They run on the pool's
    /// idle workers and on `max(1, max_concurrent − pool workers)` threads
    /// the server starts.
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
    fn effective_concurrency(&self, pool: &WorkerPool) -> usize {
        if self.max_concurrent > 0 {
            self.max_concurrent
        } else {
            pool.threads() + 1
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

impl Flight {
    /// Removes the waiters `gone` picks, cancelling the flight when its
    /// last waiter goes. Returns how many left, for the caller to count
    /// as cancelled.
    fn reap(&mut self, gone: impl Fn(&Waiter) -> bool) -> u64 {
        let before = self.waiters.len();
        self.waiters.retain(|w| !gone(w));
        let removed = before - self.waiters.len();
        if removed > 0 && self.waiters.is_empty() {
            self.cancel.cancel();
        }
        removed as u64
    }
}

/// A connection's outbound side, shared between the poll loop (which
/// owns the socket and does every actual write) and the evaluating
/// threads (which only ever append events here). Bounded: a reader that
/// falls `cap` bytes behind is doomed, never waited on.
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
    /// Set when this (or any) connection dooms: [`State::deaths`].
    deaths: Arc<AtomicBool>,
}

impl Out {
    fn new(
        conn: u64,
        cap: usize,
        waker: Arc<Waker>,
        ctx: Arc<str>,
        deaths: Arc<AtomicBool>,
    ) -> Out {
        Out {
            conn,
            alive: AtomicBool::new(true),
            overflowed: AtomicBool::new(false),
            buf: Mutex::new(Vec::new()),
            cap,
            waker,
            ctx,
            deaths,
        }
    }

    fn alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Dooms the connection. `alive` is cleared before `deaths` is set
    /// (release), so the sweep that takes the flag (acquire) sees this
    /// connection dead.
    fn mark_dead(&self) {
        if self.alive.swap(false, Ordering::AcqRel) {
            self.deaths.store(true, Ordering::Release);
        }
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
                // a typed farewell it might, and doom the connection. The
                // farewell answers the request the undeliverable event did.
                buf.clear();
                let mut farewell = proto::encode_event(&Event::Rejected {
                    id: event.id(),
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

/// All of the daemon's request bookkeeping, under the one `state` lock:
/// the round-robin admission queue, the in-flight table and the counters
/// `stats` replies copy. `stats.queue_depth` and `stats.in_flight` are the
/// gauges admission and the slot cap read.
#[derive(Default)]
struct State {
    /// Each connection's sub-queue; `pop_fair` serves connections in
    /// rotation so one chatty connection cannot starve the rest.
    per_conn: HashMap<u64, VecDeque<Job>>,
    /// Rotation order; invariant: a connection appears here exactly once
    /// iff its sub-queue is non-empty.
    rr: VecDeque<u64>,
    /// In-flight evaluations by identity.
    flights: HashMap<u128, Flight>,
    /// The generation stamp of the next flight.
    next_gen: u64,
    /// Queued jobs that carry a deadline: with none, no sweep can shed.
    deadlined: u64,
    /// Set by every connection's doom and cleared by the sweep that then
    /// scans for its jobs: with it clear, no queued job is a dead one's.
    deaths: Arc<AtomicBool>,
    stats: ServerStats,
}

impl State {
    /// Admits one job, counting it `accepted`.
    fn push(&mut self, job: Job) {
        let conn = job.out.conn;
        let q = self.per_conn.entry(conn).or_default();
        if q.is_empty() {
            self.rr.push_back(conn);
        }
        self.deadlined += u64::from(job.deadline.is_some());
        q.push_back(job);
        self.stats.queue_depth += 1;
        self.stats.accepted += 1;
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
        if let Some(job) = &job {
            self.stats.queue_depth -= 1;
            self.deadlined -= u64::from(job.deadline.is_some());
        }
        job
    }

    /// Sweeps every sub-queue, counting what it removes: deadline-expired
    /// jobs are shed into `shed`, to be answered once the lock is dropped,
    /// and dead-connection jobs are dropped as cancelled (a backstop —
    /// `drop_conn` normally gets them first). Only a sub-queue that loses a
    /// job is rebuilt, in place and in order. Returns whether any job left.
    /// With no queued deadline and no connection doomed since the last
    /// scan, nothing can leave, and the sweep returns without one.
    fn sweep(&mut self, now: Instant, shed: &mut Vec<Job>) -> bool {
        if self.stats.queue_depth == 0 {
            return false;
        }
        if !self.deaths.swap(false, Ordering::AcqRel) && self.deadlined == 0 {
            return false;
        }
        let expired = |job: &Job| job.deadline.is_some_and(|d| d <= now);
        let (mut removed, mut deadlined, shed_before) = (0, 0, shed.len());
        for q in self.per_conn.values_mut() {
            if !q.iter().any(|job| !job.out.alive() || expired(job)) {
                continue;
            }
            for _ in 0..q.len() {
                let job = q.pop_front().expect("one pop per queued job");
                if job.out.alive() && !expired(&job) {
                    q.push_back(job);
                    continue;
                }
                removed += 1;
                deadlined += u64::from(job.deadline.is_some());
                if job.out.alive() {
                    shed.push(job);
                }
            }
        }
        if removed == 0 {
            return false;
        }
        let expired = (shed.len() - shed_before) as u64;
        self.deadlined -= deadlined;
        self.stats.queue_depth -= removed;
        self.stats.shed_deadline += expired;
        self.stats.cancelled += removed - expired;
        self.per_conn.retain(|_, q| !q.is_empty());
        let per_conn = &self.per_conn;
        self.rr.retain(|c| per_conn.contains_key(c));
        true
    }

    /// Connection-death cleanup: drops its queued jobs and removes its
    /// waiters from every flight (cancelling flights that empty), each
    /// counted as cancelled, and closes its connection gauges.
    fn drop_conn(&mut self, out: &Out) {
        if let Some(q) = self.per_conn.remove(&out.conn) {
            self.deadlined -= q.iter().filter(|job| job.deadline.is_some()).count() as u64;
            self.stats.queue_depth -= q.len() as u64;
            self.stats.cancelled += q.len() as u64;
            self.rr.retain(|c| *c != out.conn);
        }
        for flight in self.flights.values_mut() {
            self.stats.cancelled += flight.reap(|w| w.out.conn == out.conn);
        }
        self.stats.slow_reader_disconnects += u64::from(out.overflowed());
        self.stats.open_connections -= 1;
    }
}

struct ServerInner {
    /// This server, for the tasks it offers: they hold it weakly, so a
    /// task left queued after the drain runs as a no-op.
    me: Weak<ServerInner>,
    handler: Box<dyn Handler>,
    queue_capacity: usize,
    max_concurrent: usize,
    out_buffer_cap: usize,
    /// The queue, the in-flight table and the counters: see [`State`].
    state: Mutex<State>,
    /// The pool that runs evaluations, and this server's group in it.
    pool: &'static WorkerPool,
    group: TaskGroup,
    /// Set once the drain has finished every job: the lanes return.
    stopped: AtomicBool,
    draining: AtomicBool,
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
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Trips the drain flag. It is set under the state lock, so no
    /// admission can slip a job in behind it.
    fn begin_drain(&self) {
        {
            let _s = self.lock_state();
            self.draining.store(true, Ordering::SeqCst);
        }
        self.waker.wake();
    }

    /// Stops and wakes the server's lanes, once no job is left to run.
    fn stop_lanes(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        self.pool.wake_lanes(self.group);
    }

    fn server_stats(&self) -> ServerStats {
        self.lock_state().stats
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
        if s.stats.queue_depth >= self.queue_capacity as u64 {
            return Admit::Full(job);
        }
        s.push(job);
        drop(s);
        self.offer();
        Admit::Admitted
    }

    /// Refuses a request that was never admitted: counted in `rejected`,
    /// then answered with `rejected{reason}`.
    fn refuse(&self, out: &Out, id: u64, reason: &str) {
        self.lock_state().stats.rejected += 1;
        out.send(&Event::Rejected { id, reason: reason.to_string() });
    }

    /// Offers the pool a task that starts the next queued job. Called
    /// without the state lock held.
    fn offer(&self) {
        let me = Weak::clone(&self.me);
        self.pool.offer(self.group, move || {
            if let Some(inner) = me.upgrade() {
                inner.start_next();
            }
        });
    }

    /// Releases a slot in the critical section `s` holds, once its job is
    /// settled (a joiner's right after the dedup check, a leader's after
    /// its fan-out). A task that found every slot taken left its job
    /// queued, so while jobs wait the freed slot offers a task for one.
    fn finish_slot(&self, mut s: MutexGuard<'_, State>) {
        s.stats.in_flight -= 1;
        let reoffer = s.stats.queue_depth > 0;
        drop(s);
        if reoffer {
            self.offer();
        }
        // The poll loop may be waiting on this for drain completion.
        self.waker.wake();
    }

    /// One offered task: starts the next queued job on this thread if a
    /// slot is free; otherwise the job stays queued for the next freed
    /// slot. The pop first sweeps deadline-expired (and dead-connection)
    /// jobs out of the sub-queues in the same critical section, so an
    /// expired job is never evaluated.
    fn start_next(&self) {
        let mut shed = Vec::new();
        let (swept, job) = {
            let mut s = self.lock_state();
            let swept = s.sweep(Instant::now(), &mut shed);
            let free = s.stats.in_flight < self.max_concurrent as u64;
            let job = if free { s.pop_fair() } else { None };
            s.stats.in_flight += u64::from(job.is_some());
            (swept, job)
        };
        if job.is_some() || swept {
            // Queue space was freed: let the poll loop retry parked jobs.
            self.waker.wake();
        }
        answer_shed(shed);
        if let Some(job) = job {
            self.launch(job);
        }
    }

    /// Dedup-checks one popped job: join a live in-flight identity or
    /// lead a fresh evaluation on this thread. A *cancelled* flight is
    /// never joined — its evaluation is already unwinding — so the job
    /// replaces it as a new generation.
    fn launch(&self, job: Job) {
        let Job { id, kind, out, .. } = job;
        let Some(identity) = kind.identity() else {
            // Admin kinds are answered at the connection layer and never
            // reach the queue; refuse defensively rather than panic.
            let mut s = self.lock_state();
            s.stats.errors += 1;
            out.send(&Event::Error {
                id,
                message: format!("request kind {:?} is not evaluable", kind.name()),
            });
            return self.finish_slot(s);
        };
        let waiter = Waiter { id, out: Arc::clone(&out) };
        let mut guard = self.lock_state();
        let s = &mut *guard;
        let (gen, token) = match s.flights.get_mut(&identity) {
            Some(flight) if !flight.cancel.is_cancelled() => {
                // Queued before the waiter is visible: the leader's
                // fan-out takes the waiters under this lock, so the
                // joiner's terminal event cannot overtake its `started`.
                out.send(&Event::Started { id, deduped: true });
                flight.waiters.push(waiter);
                s.stats.dedup_joined += 1;
                // A joiner holds no slot: its result arrives with the
                // leader's.
                return self.finish_slot(guard);
            }
            _ => {
                let gen = s.next_gen;
                s.next_gen += 1;
                let flight = Flight { gen, waiters: vec![waiter], cancel: CancelToken::new() };
                let token = flight.cancel.clone();
                s.flights.insert(identity, flight);
                s.stats.evaluations += 1;
                (gen, token)
            }
        };
        drop(guard);
        // The leader's later events all go out from this thread.
        out.send(&Event::Started { id, deduped: false });
        self.execute(identity, gen, token, &kind);
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
                    .lock_state()
                    .flights
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
                    let mut guard = self.lock_state();
                    let s = &mut *guard;
                    if let Some(flight) = s.flights.get_mut(&identity).filter(|f| f.gen == gen) {
                        s.stats.cancelled += flight.reap(|w| dead.contains(&(w.out.conn, w.id)));
                    }
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
        // Every waiter lands in exactly one terminal counter.
        let counter: fn(&mut ServerStats) -> &mut u64 = match &terminal {
            Terminal::Reply(_) => |s| &mut s.completed,
            Terminal::Fail(_) => |s| &mut s.errors,
            Terminal::Cancelled => |s| &mut s.cancelled,
        };
        let waiters = {
            let mut s = self.lock_state();
            let waiters = match s.flights.get(&identity) {
                // Only this generation's entry belongs to this leader: a
                // successor flight at the same identity is left alone.
                Some(flight) if flight.gen == gen => {
                    s.flights.remove(&identity).map(|f| f.waiters).unwrap_or_default()
                }
                _ => Vec::new(),
            };
            // Counted before any event is queued: a client holding its
            // terminal event must find it in a `stats` snapshot.
            *counter(&mut s.stats) += waiters.len() as u64;
            waiters
        };
        let mut evaluated = true;
        let mut unsent = 0;
        for w in &waiters {
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
            unsent += u64::from(!sent);
            evaluated = false;
        }
        // A failed send moves its count to cancelled: the client
        // disconnected and never got an answer.
        let mut s = self.lock_state();
        *counter(&mut s.stats) -= unsent;
        s.stats.cancelled += unsent;
        self.finish_slot(s);
    }
}

/// Answers the expired jobs a sweep shed, with `rejected{deadline}`;
/// called after the state lock is dropped (the sweep counted them).
fn answer_shed(shed: Vec<Job>) {
    for job in shed {
        job.out.send(&Event::Rejected { id: job.id, reason: "deadline".to_string() });
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
    next_conn: &mut u64,
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
        let conn = *next_conn;
        *next_conn += 1;
        let mut s = inner.lock_state();
        let out = Arc::new(Out::new(
            conn,
            inner.out_buffer_cap,
            Arc::clone(&inner.waker),
            Arc::clone(&inner.ctx),
            Arc::clone(&s.deaths),
        ));
        conns.insert(
            conn,
            Conn { stream, out, rdbuf: Vec::new(), scanned: 0, parked: None, eof: false },
        );
        let stats = &mut s.stats;
        stats.open_connections += 1;
        stats.peak_connections = stats.peak_connections.max(stats.open_connections);
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
    inner.refuse(&c.out, 0, "line_too_long");
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
                Admit::Draining(job) => inner.refuse(&c.out, job.id, "draining"),
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
        inner.refuse(&c.out, job.id, "deadline");
    } else {
        match inner.try_admit(job) {
            Admit::Admitted => {}
            Admit::Draining(job) => inner.refuse(&c.out, job.id, "draining"),
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
    let mut next_conn = 0;
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
        // every slot is busy, only this tick sheds expired queued work.
        if last_sweep.elapsed() >= POLL_TICK {
            last_sweep = Instant::now();
            let mut shed = Vec::new();
            inner.lock_state().sweep(last_sweep, &mut shed);
            answer_shed(shed);
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
                s.stats.queue_depth == 0 && s.stats.in_flight == 0
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
        inner.lock_state().stats.poll_wakeups += 1;

        for (i, key) in keys.iter().enumerate() {
            let revents = fds[i].revents;
            if revents == 0 {
                continue;
            }
            match key {
                Key::Waker => inner.waker.drain(),
                Key::Listener => {
                    if let Some(l) = &listener {
                        accept_ready(inner, l, &mut conns, &mut next_conn)?;
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
        conns.retain(|_, c| {
            let done = c.eof || !c.out.alive();
            if done {
                // Refuse all future events to it before its queued jobs
                // and waiters go.
                c.out.mark_dead();
                inner.lock_state().drop_conn(&c.out);
                c.stream.shutdown();
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
        let pool = WorkerPool::global();
        let inner = Arc::new_cyclic(|me| ServerInner {
            me: Weak::clone(me),
            handler,
            queue_capacity: opts.queue_capacity.max(1),
            max_concurrent: opts.effective_concurrency(pool),
            out_buffer_cap: opts.out_buffer_cap.max(1),
            state: Mutex::new(State::default()),
            pool,
            group: pool.task_group(),
            stopped: AtomicBool::new(false),
            draining: AtomicBool::new(false),
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
        let lanes = self.start_lanes();
        self.serve(lanes)
    }

    /// Runs the server on a background thread and returns a handle for
    /// draining and joining (used by tests and the equivalence oracle).
    /// The server's lanes are running when this returns.
    pub fn start(self) -> ServerHandle {
        let lanes = self.start_lanes();
        let inner = Arc::clone(&self.inner);
        let thread = std::thread::Builder::new()
            .name("serve-poll".to_string())
            .spawn(move || self.serve(lanes))
            .expect("spawn server thread");
        ServerHandle { inner, thread }
    }

    /// Starts the server's own threads, `max(1, max_concurrent − pool
    /// workers)` lanes of its task group; the pool's idle workers make up
    /// the rest of `max_concurrent`.
    fn start_lanes(&self) -> Vec<std::thread::JoinHandle<()>> {
        let lanes = self.inner.max_concurrent.saturating_sub(self.inner.pool.threads()).max(1);
        (0..lanes)
            .map(|i| {
                let inner = Arc::clone(&self.inner);
                std::thread::Builder::new()
                    .name(format!("serve-lane-{i}"))
                    .spawn(move || {
                        inner.pool.run_lane(inner.group, || inner.stopped.load(Ordering::SeqCst))
                    })
                    .expect("spawn evaluation lane")
            })
            .collect()
    }

    /// The poll loop, then the drain epilogue.
    fn serve(self, lanes: Vec<std::thread::JoinHandle<()>>) -> std::io::Result<ServerStats> {
        let survivors = match event_loop(&self.inner, self.listener, self.drain_on) {
            Ok(survivors) => survivors,
            Err(e) => {
                // Poll-layer failure: stop admitting and let the lanes
                // go, then surface the error.
                self.inner.begin_drain();
                self.inner.stop_lanes();
                return Err(e);
            }
        };

        // The event loop only exits once draining with the queue empty
        // and no evaluation running: the lanes have nothing left to do.
        self.inner.stop_lanes();
        for lane in lanes {
            let _ = lane.join();
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
