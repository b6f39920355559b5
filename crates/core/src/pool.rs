//! A persistent work-stealing executor (std-only): `map` fan-out plus
//! top-level tasks.
//!
//! It is the process's one scheduler. The parallel tree search
//! ([`crate::evaluate_inlining_tree_dag`]) forks every tree node's subtrees
//! through `map`, the autotuner ([`crate::autotune`]) its probes, and the
//! serving daemon runs its requests as tasks. Spawning scoped threads at
//! every recursion node would pay a thread-creation tax per node and
//! statically split work that is wildly uneven (one subtree may compile
//! 100× more modules than its sibling). This pool avoids both:
//!
//! - **Persistent workers.** `available_parallelism() - 1` threads are
//!   started once (lazily, via [`WorkerPool::global`]) and reused for every
//!   `map` and task in the process.
//! - **Help-first semantics.** The caller always participates: `map`
//!   claims items from a shared atomic index alongside the helpers. A
//!   blocked caller *helps* — it pops and runs other queued helper jobs
//!   while waiting — so nested `map` calls cannot deadlock even when every
//!   worker is busy.
//! - **Dynamic balancing.** `map` hands out items one atomic increment at a
//!   time instead of pre-chunking, so a thread that drew cheap items simply
//!   claims more; nobody idles behind a straggler.
//! - **A map's items are its caller's work.** Every helper job runs under
//!   the caller's cancel token ([`optinline_ir::cancel::current`]), or
//!   with the running thread's own token masked when the caller has none,
//!   so cancelling a request stops its items on every thread and never
//!   another request's. Each helper wakes the caller as it exits, so a
//!   caller waiting for it resumes at once. After an item panics the
//!   remaining items are skipped, and the panic resurfaces at the caller.
//!
//! # Tasks and lanes
//!
//! Beside the `map` helpers sits a queue of top-level **tasks**
//! ([`WorkerPool::offer`]), each tagged with a [`TaskGroup`]. An idle
//! worker takes a task of any group; a **lane** — a thread its owner
//! lends the pool through [`WorkerPool::run_lane`] — takes only its own
//! group's. Workers and lanes both run helper jobs before tasks, so a
//! running `map` gets help before a new task starts, and a waiting `map`
//! caller runs helper jobs only, never a task: tasks never nest. The
//! serving daemon offers one task per admitted request and lends the pool
//! its own threads as lanes, so an idle worker starts the next queued
//! request and an idle lane helps a running search.
//!
//! An idle worker or lane parks on an idle list; a new helper job wakes
//! the most recently idle thread, a new task the most recently idle one
//! that may take it, and [`WorkerPool::wake_lanes`] every idle lane of a
//! group, so its threads can see their stop condition.
//!
//! # Safety
//!
//! Jobs borrow the caller's stack (like `std::thread::scope`). The borrow
//! is erased to `'static` to sit in the shared queue, which is sound
//! because `map` blocks until every job it pushed has either been executed
//! or been reclaimed from the queue *and* every borrowing closure has
//! signalled completion — no reference outlives the call that created it.
//! Tasks own what they capture (`'static`).

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::Thread;
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Locks a mutex, shrugging off poisoning: the pool's shared state (a job
/// queue) is never left mid-mutation across a panic point, so a poisoned
/// lock only means *some* thread died — the data is still consistent and
/// the pool must keep serving rather than cascade `unwrap` panics into
/// every other thread.
fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fixed-size pool of persistent worker threads. See the module docs.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    threads: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("threads", &self.threads).finish()
    }
}

/// Names the tasks one owner offers and the lanes it lends to run them
/// (see the module docs). Each [`WorkerPool::task_group`] call returns a
/// new one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskGroup(u64);

struct PoolInner {
    queues: Mutex<Queues>,
    next_id: AtomicU64,
    next_group: AtomicU64,
    shutdown: AtomicBool,
}

impl PoolInner {
    fn lock(&self) -> MutexGuard<'_, Queues> {
        lock_ignore_poison(&self.queues)
    }

    /// Blocks until there is a job for the calling thread — a worker
    /// (`group` is `None`) or a lane of `group` — or returns `None` once
    /// `stop` holds. A stopping thread still takes its remaining tasks,
    /// but no helper job: it leaves those to the `map` that pushed them.
    /// `stop` is read under the queue lock, so a stop flag set before
    /// [`WorkerPool::wake_lanes`] (or the pool's drop) is never missed.
    fn next_job(&self, group: Option<TaskGroup>, stop: &dyn Fn() -> bool) -> Option<Job> {
        let mut q = self.lock();
        loop {
            let stopping = stop();
            let job = if stopping { q.pop_task(group) } else { q.pop(group) };
            if job.is_some() || stopping {
                return job;
            }
            let me = std::thread::current();
            let id = me.id();
            q.idle.push((group, me));
            drop(q);
            std::thread::park();
            q = self.lock();
            // A waker takes the thread off the list before unparking it;
            // a spurious wake-up leaves it there.
            q.idle.retain(|(_, t)| t.id() != id);
        }
    }
}

#[derive(Default)]
struct Queues {
    /// `map` helper jobs, by id; any thread may run one.
    helpers: VecDeque<(u64, Job)>,
    /// Top-level tasks, oldest first.
    tasks: VecDeque<(TaskGroup, Job)>,
    /// Parked threads waiting for work, most recently idle last: a worker
    /// (`None`) takes any task, a lane only its own group's.
    idle: Vec<(Option<TaskGroup>, Thread)>,
}

impl Queues {
    /// The next job for a thread of `group`: a helper job first, so a
    /// running `map` gets help before a new task starts.
    fn pop(&mut self, group: Option<TaskGroup>) -> Option<Job> {
        match self.helpers.pop_front() {
            Some((_, job)) => Some(job),
            None => self.pop_task(group),
        }
    }

    /// The oldest task a thread of `group` may run.
    fn pop_task(&mut self, group: Option<TaskGroup>) -> Option<Job> {
        let at = self.tasks.iter().position(|(g, _)| group.is_none_or(|own| *g == own))?;
        self.tasks.remove(at).map(|(_, job)| job)
    }

    /// Unparks the most recently idle thread that `takes` accepts.
    fn wake_one(&mut self, takes: impl Fn(Option<TaskGroup>) -> bool) {
        if let Some(at) = self.idle.iter().rposition(|(g, _)| takes(*g)) {
            self.idle.remove(at).1.unpark();
        }
    }

    /// Unparks every idle thread that `takes` accepts.
    fn wake_all(&mut self, takes: impl Fn(Option<TaskGroup>) -> bool) {
        self.idle.retain(|(g, t)| {
            let wake = takes(*g);
            if wake {
                t.unpark();
            }
            !wake
        });
    }
}

/// Raw pointer that may cross threads; the pool's blocking protocol keeps
/// the pointee alive for as long as any job can dereference it.
struct SendPtr<T>(*const T);
unsafe impl<T> Send for SendPtr<T> {}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

/// `map`'s loop when nothing is fanned out: a plain loop, not an iterator
/// chain, whose adapters are a stack frame each in a debug build, and the
/// tree search recurses through it.
fn in_turn<T, R>(items: &[T], f: &impl Fn(&T) -> R) -> Vec<R> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        out.push(f(item));
    }
    out
}

/// A `map` result slot.
struct Slot<R>(UnsafeCell<Option<R>>);
// SAFETY: each slot is written by exactly one claimant (the unique thread
// that won its index from the cursor) and read only after `done` counts
// it and every helper has exited.
unsafe impl<R: Send> Sync for Slot<R> {}

/// One `map` call's state, shared with its helper jobs.
struct MapShared<'a, T, R, F> {
    items: &'a [T],
    f: &'a F,
    slots: Vec<Slot<R>>,
    next: AtomicUsize,
    done: AtomicUsize,
    exited: AtomicUsize,
    failed: AtomicBool,
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

impl<'a, T: Sync, R: Send, F: Fn(&T) -> R + Sync> MapShared<'a, T, R, F> {
    fn new(items: &'a [T], f: &'a F) -> Self {
        MapShared {
            items,
            f,
            slots: (0..items.len()).map(|_| Slot(UnsafeCell::new(None))).collect(),
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            exited: AtomicUsize::new(0),
            failed: AtomicBool::new(false),
            panic: Mutex::new(None),
        }
    }

    /// Claims and runs items until the cursor runs out.
    fn drive(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.items.len() {
                break;
            }
            // Once an item panicked the map's outcome is that panic: the
            // rest are counted done without running.
            if !self.failed.load(Ordering::Relaxed) {
                // SAFETY: this thread won index `i` from the cursor, so it
                // is the slot's only writer, and nobody reads it before
                // `done` counts it.
                let run = || unsafe { *self.slots[i].0.get() = Some((self.f)(&self.items[i])) };
                if let Err(p) = catch_unwind(AssertUnwindSafe(run)) {
                    self.failed.store(true, Ordering::Relaxed);
                    lock_ignore_poison(&self.panic).get_or_insert(p);
                }
            }
            self.done.fetch_add(1, Ordering::Release);
        }
    }

    /// Queues `helpers` jobs that drive `self` under the caller's cancel
    /// token, and wake the caller as they exit.
    fn push_helpers(&self, pool: &WorkerPool, helpers: usize) -> Vec<u64> {
        let ptr = SendPtr(self as *const Self);
        let token = optinline_ir::cancel::current();
        let caller = std::thread::current();
        (0..helpers)
            .map(|_| {
                let (token, caller) = (token.clone(), caller.clone());
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    // Capture the whole SendPtr, not the raw field.
                    let ptr = ptr;
                    // SAFETY: `map` keeps the state in place until this
                    // job has counted itself in `exited`.
                    let s = unsafe { &*ptr.0 };
                    {
                        let _token = match token {
                            Some(token) => optinline_ir::cancel::install(token),
                            None => optinline_ir::cancel::suspend(),
                        };
                        s.drive();
                    }
                    s.exited.fetch_add(1, Ordering::Release);
                    // `s` may be gone now; the handle is the job's own.
                    caller.unpark();
                });
                // SAFETY: `map` blocks until `exited == helpers`, which each
                // job signals only after its last use of the borrowed state.
                pool.push(unsafe { erase(job) })
            })
            .collect()
    }

    /// Waits for the helpers, then returns the results or the first panic.
    /// The state stays where the helpers found it until they exit.
    fn finish(&self, pool: &WorkerPool, ids: Vec<u64>) -> Vec<R> {
        // Helpers still sitting in the queue would find the cursor
        // exhausted anyway; reclaim and run them inline so the wait below
        // cannot depend on queue drain order.
        let helpers = ids.len();
        for id in ids {
            if let Some(job) = pool.reclaim(id) {
                job();
            }
        }
        pool.help_until(|| {
            self.done.load(Ordering::Acquire) == self.items.len()
                && self.exited.load(Ordering::Acquire) == helpers
        });
        if let Some(p) = lock_ignore_poison(&self.panic).take() {
            resume_unwind(p);
        }
        // SAFETY: every item is done and every helper has exited, so no
        // other thread touches the slots any more.
        let take = |slot: &Slot<R>| unsafe { (*slot.0.get()).take() };
        self.slots.iter().map(|slot| take(slot).expect("every map slot written")).collect()
    }
}

static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();

impl WorkerPool {
    /// The process-wide pool, started on first use with
    /// `available_parallelism() - 1` workers (the calling thread is the
    /// extra lane — `map` keeps the caller working).
    pub fn global() -> &'static WorkerPool {
        GLOBAL.get_or_init(|| {
            let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            WorkerPool::new(n.saturating_sub(1))
        })
    }

    /// Creates a pool with exactly `threads` workers. `threads == 0` is
    /// valid: every `map` then runs its items on the calling thread, which
    /// keeps single-core behaviour identical, just sequential, and tasks
    /// run on their group's lanes only.
    pub fn new(threads: usize) -> Self {
        let inner = Arc::new(PoolInner {
            queues: Mutex::new(Queues::default()),
            next_id: AtomicU64::new(0),
            next_group: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        for i in 0..threads {
            let inner = Arc::clone(&inner);
            // A worker that fails to start only costs parallelism: `map`
            // reclaims the helper jobs nobody picked up and runs them.
            let _ = std::thread::Builder::new()
                .name(format!("optinline-worker-{i}"))
                .spawn(move || worker_loop(&inner));
        }
        WorkerPool { inner, threads }
    }

    /// Number of worker threads (not counting callers).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, in parallel, preserving order.
    ///
    /// Items are claimed one at a time from a shared atomic cursor by the
    /// caller and up to `threads` helper jobs, so uneven per-item cost
    /// balances dynamically. Results land in per-index slots: the output
    /// is deterministic (ordered like `items`) regardless of which thread
    /// computed what. A helper job runs its items under the caller's
    /// cancel token (see the module docs). The first panic from `f` skips
    /// the items nobody has claimed yet and resurfaces after all helpers
    /// have settled.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if items.len() <= 1 || self.threads == 0 {
            return in_turn(items, &f);
        }
        // The tree search recurses through here once per tree level: each
        // step is a method, so only `shared` and `ids` stay on the stack
        // while `drive` runs items.
        let shared = MapShared::new(items, &f);
        let ids = shared.push_helpers(self, self.threads.min(items.len() - 1));
        shared.drive();
        shared.finish(self, ids)
    }

    /// A new group for [`offer`](Self::offer) and
    /// [`run_lane`](Self::run_lane).
    pub fn task_group(&self) -> TaskGroup {
        TaskGroup(self.inner.next_group.fetch_add(1, Ordering::Relaxed))
    }

    /// Queues a top-level task of `group` and wakes an idle thread that
    /// may run it: a worker or one of the group's lanes. A task that
    /// panics is dropped; the thread that ran it keeps serving. A task no
    /// thread is free for waits in the queue: the caller must bound how
    /// much it offers.
    pub fn offer(&self, group: TaskGroup, task: impl FnOnce() + Send + 'static) {
        let mut q = self.inner.lock();
        q.tasks.push_back((group, Box::new(task)));
        q.wake_one(|g| g.is_none_or(|own| own == group));
    }

    /// Lends the calling thread to the pool as a lane of `group` until
    /// `stop` holds: it runs helper jobs first, then `group`'s tasks, and
    /// parks when there are none. Once `stop` holds it runs what is left
    /// of `group`'s tasks and returns. Whoever sets the stop condition
    /// must then call [`wake_lanes`](Self::wake_lanes). `stop` is read
    /// under the pool's lock, so it must not call into the pool.
    pub fn run_lane(&self, group: TaskGroup, stop: impl Fn() -> bool) {
        while let Some(job) = self.inner.next_job(Some(group), &stop) {
            run_job(job);
        }
    }

    /// Wakes every parked lane of `group`, so each re-reads its stop
    /// condition.
    pub fn wake_lanes(&self, group: TaskGroup) {
        self.inner.lock().wake_all(|g| g == Some(group));
    }

    fn push(&self, job: Job) -> u64 {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let mut q = self.inner.lock();
        q.helpers.push_back((id, job));
        q.wake_one(|_| true);
        id
    }

    /// Removes a still-queued helper job by id; `None` means a thread
    /// already took it (or is running it now).
    fn reclaim(&self, id: u64) -> Option<Job> {
        let mut q = self.inner.lock();
        let pos = q.helpers.iter().position(|(i, _)| *i == id)?;
        Some(q.helpers.remove(pos).expect("position in bounds").1)
    }

    /// Runs queued helper jobs (any `map`'s — that's the stealing) until
    /// `ready` holds, parking when there are none: until a helper of the
    /// waiting `map` exits and wakes it, or for 50 µs, to look for new
    /// jobs. It never starts a task: the caller is inside a task or a
    /// `map` already, and tasks never nest. A stolen job carries its own
    /// `map`'s cancel token, so it runs under that one, not this thread's.
    fn help_until(&self, ready: impl Fn() -> bool) {
        while !ready() {
            let job = self.inner.lock().helpers.pop_front();
            match job {
                Some((_, job)) => run_job(job),
                None => std::thread::park_timeout(Duration::from_micros(50)),
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.lock().wake_all(|g| g.is_none());
    }
}

fn worker_loop(inner: &PoolInner) {
    while let Some(job) = inner.next_job(None, &|| inner.shutdown.load(Ordering::Acquire)) {
        run_job(job);
    }
}

/// Runs one job on a worker, a lane or a waiting `map` caller. Helper jobs
/// capture their own panics, so for them this is a backstop: `map` must
/// not unwind past its completion flags (the borrow-erasure safety
/// contract). A task's panic stops here, so the thread keeps serving.
fn run_job(job: Job) {
    drop(catch_unwind(AssertUnwindSafe(job)));
}

/// Erases a job's borrow lifetime so it can sit in the shared queue.
///
/// # Safety
///
/// The caller must not return (or unwind) before the job has run to
/// completion or been reclaimed from the queue — `map` enforces this with
/// its completion flags.
unsafe fn erase(job: Box<dyn FnOnce() + Send + '_>) -> Job {
    std::mem::transmute(job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn map_preserves_order_and_covers_all_items() {
        let pool = WorkerPool::new(3);
        let items: Vec<u64> = (0..200).collect();
        let out = pool.map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn map_handles_empty_and_singleton() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(pool.map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn map_inside_map_does_not_deadlock() {
        let pool = WorkerPool::new(2);
        let rows: Vec<u64> = (0..8).collect();
        let out = pool.map(&rows, |&r| {
            let cols: Vec<u64> = (0..8).collect();
            pool.map(&cols, |&c| r * 10 + c).into_iter().sum::<u64>()
        });
        let expect: Vec<u64> = (0..8).map(|r| (0..8).map(|c| r * 10 + c).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn map_balances_uneven_work() {
        // One pathological item must not serialize the rest: with dynamic
        // claiming, total wall time ≈ the one slow item, not slow × chunk.
        let pool = WorkerPool::new(3);
        let items: Vec<u64> = (0..64).collect();
        let counter = AtomicU32::new(0);
        let out = pool.map(&items, |&x| {
            counter.fetch_add(1, Ordering::Relaxed);
            if x == 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
            x
        });
        assert_eq!(out, items);
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn panics_propagate_from_map() {
        let pool = WorkerPool::new(2);
        let items: Vec<u32> = (0..16).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map(&items, |&x| {
                if x == 7 {
                    panic!("boom on 7");
                }
                x
            })
        }));
        assert!(result.is_err());
        // The pool stays usable afterwards.
        assert_eq!(pool.map(&items, |&x| x + 1)[0], 1);
    }

    #[test]
    fn stolen_map_jobs_report_panics_to_their_own_map() {
        // Row 1's inner map panics on one column. Whichever thread runs
        // that item — its own caller, the worker, or the other row's
        // caller helping while it waits — the panic resurfaces at row 1's
        // inner `map` only, and the pool keeps serving.
        let pool = WorkerPool::new(1);
        let rows: Vec<u32> = (0..4).collect();
        let cols: Vec<u32> = (0..8).collect();
        let failed = pool.map(&rows, |&r| {
            catch_unwind(AssertUnwindSafe(|| {
                pool.map(&cols, |&c| {
                    if r == 1 && c == 5 {
                        panic!("inner boom");
                    }
                    c
                })
            }))
            .is_err()
        });
        assert_eq!(failed, vec![false, true, false, false]);
        assert_eq!(pool.map(&cols, |&x| x * 2)[7], 14);
    }

    fn thread_name() -> String {
        std::thread::current().name().unwrap_or_default().to_string()
    }

    #[test]
    fn tasks_run_on_workers_and_a_panic_leaves_the_worker_serving() {
        let pool = WorkerPool::new(1);
        let group = pool.task_group();
        let (tx, rx) = std::sync::mpsc::channel();
        pool.offer(group, || panic!("task boom"));
        pool.offer(group, move || tx.send(thread_name()).unwrap());
        let ran_on =
            rx.recv_timeout(Duration::from_secs(10)).expect("the task after the panic ran");
        assert_eq!(ran_on, "optinline-worker-0");
    }

    #[test]
    fn a_lane_runs_only_its_own_groups_tasks_and_returns_when_stopped() {
        let pool = Arc::new(WorkerPool::new(0));
        let (mine, theirs) = (pool.task_group(), pool.task_group());
        let stop = Arc::new(AtomicBool::new(false));
        let lane = {
            let (pool, stop) = (Arc::clone(&pool), Arc::clone(&stop));
            std::thread::Builder::new()
                .name("test-lane".to_string())
                .spawn(move || pool.run_lane(mine, || stop.load(Ordering::SeqCst)))
                .unwrap()
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let other = tx.clone();
        pool.offer(theirs, move || other.send("theirs").unwrap());
        pool.offer(mine, move || tx.send("mine").unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok("mine"));
        assert!(
            rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "a lane ran another group's task"
        );
        stop.store(true, Ordering::SeqCst);
        pool.wake_lanes(mine);
        lane.join().expect("the stopped lane returned");
        assert_eq!(pool.inner.lock().tasks.len(), 1, "the other group's task still waits");
    }

    #[test]
    fn an_idle_lane_helps_a_running_map() {
        let pool = Arc::new(WorkerPool::new(1));
        let group = pool.task_group();
        // Hold the only worker so the map's helper job can go to the lane.
        let (hold, held) = std::sync::mpsc::channel::<()>();
        let (busy, is_busy) = std::sync::mpsc::channel();
        pool.offer(group, move || {
            busy.send(()).unwrap();
            let _ = held.recv();
        });
        is_busy.recv_timeout(Duration::from_secs(10)).expect("the worker took the task");
        let stop = Arc::new(AtomicBool::new(false));
        let lane = {
            let (pool, stop) = (Arc::clone(&pool), Arc::clone(&stop));
            std::thread::Builder::new()
                .name("test-lane".to_string())
                .spawn(move || pool.run_lane(group, || stop.load(Ordering::SeqCst)))
                .unwrap()
        };
        // Each item waits until both have started, so two threads run
        // them: the caller and a helper, which only the lane is free to be.
        let started = AtomicUsize::new(0);
        let names = pool.map(&[0u32, 1], |_| {
            started.fetch_add(1, Ordering::SeqCst);
            let start = std::time::Instant::now();
            while started.load(Ordering::SeqCst) < 2 {
                assert!(start.elapsed() < Duration::from_secs(10), "no thread helped the map");
                std::thread::sleep(Duration::from_millis(1));
            }
            thread_name()
        });
        assert!(names.iter().any(|n| n == "test-lane"), "the idle lane ran no item: {names:?}");
        drop(hold);
        stop.store(true, Ordering::SeqCst);
        pool.wake_lanes(group);
        lane.join().expect("the stopped lane returned");
    }

    #[test]
    fn a_waiting_map_caller_never_starts_a_task() {
        // The map's second item holds the only worker; the caller offers a
        // task from the first item and then waits in `help_until`, with
        // the task queued beside it. Tasks never nest, so it must wait for
        // the worker.
        let pool = WorkerPool::new(1);
        let group = pool.task_group();
        let (tx, rx) = std::sync::mpsc::channel();
        let second_started = AtomicBool::new(false);
        let caller = std::thread::current().id();
        pool.map(&[0u32, 1], |&i| {
            if i == 0 {
                while !second_started.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let tx = tx.clone();
                pool.offer(group, move || tx.send(std::thread::current().id()).unwrap());
            } else {
                second_started.store(true, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let ran_on = rx.recv_timeout(Duration::from_secs(10)).expect("the worker ran the task");
        assert_ne!(ran_on, caller, "the waiting map caller started a task");
    }

    #[test]
    fn cancelling_the_callers_token_unwinds_items_another_thread_runs() {
        use optinline_ir::cancel::{self, CancelToken, Cancelled};
        let pool = WorkerPool::new(1);
        let token = CancelToken::new();
        let _installed = cancel::install(token.clone());
        let started = AtomicUsize::new(0);
        let unwound = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.map(&[0u32, 1], |_| {
                // Both items start before the cancel, so one runs on the
                // worker, which has no token of its own.
                started.fetch_add(1, Ordering::SeqCst);
                let start = std::time::Instant::now();
                while started.load(Ordering::SeqCst) < 2 {
                    assert!(start.elapsed() < Duration::from_secs(10), "no thread helped the map");
                    std::thread::sleep(Duration::from_millis(1));
                }
                token.cancel();
                let polled = catch_unwind(|| {
                    let start = std::time::Instant::now();
                    while start.elapsed() < Duration::from_secs(5) {
                        cancel::checkpoint();
                        std::thread::sleep(Duration::from_millis(1));
                    }
                });
                if let Err(payload) = polled {
                    unwound.fetch_add(1, Ordering::SeqCst);
                    resume_unwind(payload);
                }
            })
        }));
        let payload = outcome.expect_err("the cancelled map unwinds");
        assert!(payload.downcast_ref::<Cancelled>().is_some(), "the payload is Cancelled");
        assert_eq!(unwound.load(Ordering::SeqCst), 2, "an item kept running after the cancel");
    }

    #[test]
    fn items_after_a_panic_are_skipped() {
        // The only worker is held, so the caller claims every item itself.
        let pool = WorkerPool::new(1);
        let (hold, held) = std::sync::mpsc::channel::<()>();
        let (busy, is_busy) = std::sync::mpsc::channel();
        pool.offer(pool.task_group(), move || {
            busy.send(()).unwrap();
            let _ = held.recv();
        });
        is_busy.recv_timeout(Duration::from_secs(10)).expect("the worker took the task");
        let ran = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.map(&[0u32, 1, 2], |&i| {
                ran.fetch_add(1, Ordering::SeqCst);
                assert_ne!(i, 0, "boom on 0");
            })
        }));
        assert!(outcome.is_err());
        assert_eq!(ran.load(Ordering::SeqCst), 1, "items ran after the panic");
        drop(hold);
    }

    #[test]
    fn global_pool_is_shared() {
        let a = WorkerPool::global() as *const WorkerPool;
        let b = WorkerPool::global() as *const WorkerPool;
        assert_eq!(a, b);
    }
}
