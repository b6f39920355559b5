//! A persistent work-stealing worker pool (std-only).
//!
//! The tree search ([`crate::tree`]) and the autotuner
//! ([`crate::autotune`]) both fan work out across threads. Spawning scoped
//! threads at every recursion node pays a thread-creation tax per node and
//! statically splits work that is wildly uneven (one subtree may compile
//! 100× more modules than its sibling). This pool fixes both:
//!
//! - **Persistent workers.** `available_parallelism() - 1` threads are
//!   started once (lazily, via [`WorkerPool::global`]) and reused for every
//!   `map` and task-DAG lane in the process.
//! - **Help-first semantics.** The caller always participates: `map`
//!   claims items from a shared atomic index alongside the helpers. A
//!   blocked caller *helps* — it pops and runs other queued jobs while
//!   waiting — so nested `map` calls cannot deadlock even when every
//!   worker is busy.
//! - **Dynamic balancing.** `map` hands out items one atomic increment at a
//!   time instead of pre-chunking, so a thread that drew cheap items simply
//!   claims more; nobody idles behind a straggler.
//!
//! # Safety
//!
//! Jobs borrow the caller's stack (like `std::thread::scope`). The borrow
//! is erased to `'static` to sit in the shared queue, which is sound
//! because `map` blocks until every job it pushed has either been executed
//! or been reclaimed from the queue *and* every borrowing closure has
//! signalled completion — no reference outlives the call that created it.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
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

struct PoolInner {
    queue: Mutex<VecDeque<(u64, Job)>>,
    available: Condvar,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    /// Live worker threads; kept at the configured count by the respawn
    /// guard even when a job panic kills a worker.
    alive: AtomicUsize,
}

/// Restores pool capacity when a worker dies of a panic: spawns a
/// replacement thread unless the pool is shutting down. Armed for the whole
/// life of a worker thread; a clean (shutdown) exit only decrements the
/// live count.
struct RespawnGuard {
    inner: Arc<PoolInner>,
    index: usize,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        self.inner.alive.fetch_sub(1, Ordering::SeqCst);
        if std::thread::panicking() && !self.inner.shutdown.load(Ordering::Acquire) {
            spawn_worker(Arc::clone(&self.inner), self.index);
        }
    }
}

/// Starts one worker thread (initial startup and panic respawn).
fn spawn_worker(inner: Arc<PoolInner>, index: usize) {
    let for_thread = Arc::clone(&inner);
    inner.alive.fetch_add(1, Ordering::SeqCst);
    let spawned =
        std::thread::Builder::new().name(format!("optinline-worker-{index}")).spawn(move || {
            let guard = RespawnGuard { inner: for_thread, index };
            worker_loop(&guard.inner);
        });
    if spawned.is_err() {
        // Could not start the thread at all; don't count a ghost worker.
        inner.alive.fetch_sub(1, Ordering::SeqCst);
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
    /// valid: every job then runs on the calling thread (reclaimed from the
    /// queue or executed through the help loop), which keeps single-core
    /// behaviour identical, just sequential.
    pub fn new(threads: usize) -> Self {
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            next_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            alive: AtomicUsize::new(0),
        });
        for i in 0..threads {
            spawn_worker(Arc::clone(&inner), i);
        }
        WorkerPool { inner, threads }
    }

    /// Number of worker threads (not counting callers).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of currently live worker threads. Transiently below
    /// [`threads`](WorkerPool::threads) while a panicked worker is being
    /// respawned; converges back to it.
    pub fn alive_workers(&self) -> usize {
        self.inner.alive.load(Ordering::SeqCst)
    }

    /// Submits a fire-and-forget job.
    ///
    /// Unlike [`map`](WorkerPool::map) jobs, which capture their own panics
    /// and resurface them at the submitting call site, a `spawn`ed job has
    /// no caller waiting: if it panics, the worker running it dies and is
    /// respawned, and the panic is otherwise dropped (or contained, when a
    /// helping caller stole the job). The pool itself stays fully
    /// serviceable either way.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.push(Box::new(job));
    }

    /// Applies `f` to every item, in parallel, preserving order.
    ///
    /// Items are claimed one at a time from a shared atomic cursor by the
    /// caller and up to `threads` helper jobs, so uneven per-item cost
    /// balances dynamically. Results land in per-index slots: the output
    /// is deterministic (ordered like `items`) regardless of which thread
    /// computed what. The first panic from `f` resurfaces after all
    /// helpers have settled.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        struct Slot<R>(UnsafeCell<Option<R>>);
        // Each slot is written by exactly one claimant (the unique thread
        // that won index i from the cursor) and read only after `done`
        // reaches the item count.
        unsafe impl<R: Send> Sync for Slot<R> {}

        struct MapShared<'a, T, R, F> {
            items: &'a [T],
            f: &'a F,
            slots: &'a [Slot<R>],
            next: AtomicUsize,
            done: AtomicUsize,
            exited: AtomicUsize,
            panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
        }

        fn drive<T, R, F: Fn(&T) -> R>(s: &MapShared<'_, T, R, F>) {
            loop {
                let i = s.next.fetch_add(1, Ordering::Relaxed);
                if i >= s.items.len() {
                    break;
                }
                match catch_unwind(AssertUnwindSafe(|| (s.f)(&s.items[i]))) {
                    Ok(v) => unsafe { *s.slots[i].0.get() = Some(v) },
                    Err(p) => {
                        let mut slot = s.panic.lock().unwrap();
                        slot.get_or_insert(p);
                    }
                }
                s.done.fetch_add(1, Ordering::Release);
            }
        }

        if items.len() <= 1 {
            return items.iter().map(f).collect();
        }
        let slots: Vec<Slot<R>> = (0..items.len()).map(|_| Slot(UnsafeCell::new(None))).collect();
        let shared = MapShared {
            items,
            f: &f,
            slots: &slots,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            exited: AtomicUsize::new(0),
            panic: Mutex::new(None),
        };
        let helpers = self.threads.min(items.len() - 1);
        let ptr = SendPtr(&shared as *const MapShared<'_, T, R, F>);
        let ids: Vec<u64> = (0..helpers)
            .map(|_| {
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let ptr = ptr; // capture the whole SendPtr, not the raw field
                    let s = unsafe { &*ptr.0 };
                    drive(s);
                    s.exited.fetch_add(1, Ordering::Release);
                });
                // Safety: `map` blocks below until `exited == helpers`,
                // which each job signals only after its last use of the
                // borrowed state.
                self.push(unsafe { erase(job) })
            })
            .collect();

        drive(&shared);
        // Helpers still sitting in the queue would find the cursor
        // exhausted anyway; reclaim and run them inline so the wait below
        // cannot depend on queue drain order.
        for id in ids {
            if let Some(job) = self.reclaim(id) {
                job();
            }
        }
        self.help_until(|| {
            shared.done.load(Ordering::Acquire) == items.len()
                && shared.exited.load(Ordering::Acquire) == helpers
        });

        if let Some(p) = shared.panic.lock().unwrap().take() {
            resume_unwind(p);
        }
        slots.into_iter().map(|s| s.0.into_inner().expect("every map slot written")).collect()
    }

    fn push(&self, job: Job) -> u64 {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        lock_ignore_poison(&self.inner.queue).push_back((id, job));
        self.inner.available.notify_one();
        id
    }

    /// Removes a still-queued job by id; `None` means a worker already took
    /// it (or is running it now).
    fn reclaim(&self, id: u64) -> Option<Job> {
        let mut q = lock_ignore_poison(&self.inner.queue);
        let pos = q.iter().position(|(i, _)| *i == id)?;
        Some(q.remove(pos).expect("position in bounds").1)
    }

    /// Runs queued jobs (any jobs — that's the stealing) until `ready`
    /// holds, parking briefly when the queue is empty.
    ///
    /// Stolen jobs run under `catch_unwind`: `map` must not unwind past its
    /// completion flags (the borrow-erasure safety contract), so a
    /// panicking fire-and-forget job stolen here is contained — `map` jobs
    /// carry their own capture-and-report panic handling and are unaffected
    /// by the extra guard.
    fn help_until(&self, ready: impl Fn() -> bool) {
        while !ready() {
            let job = lock_ignore_poison(&self.inner.queue).pop_front();
            match job {
                Some((_, job)) => {
                    // Stolen jobs may belong to a *different* request than
                    // the one this thread is helping for; mask the thread's
                    // cancel token so one request's cancellation cannot
                    // unwind another request's work.
                    let _mask = optinline_ir::cancel::suspend();
                    drop(catch_unwind(AssertUnwindSafe(job)));
                }
                None => std::thread::park_timeout(Duration::from_micros(50)),
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.available.notify_all();
    }
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let job = {
            let mut q = lock_ignore_poison(&inner.queue);
            loop {
                if let Some((_, job)) = q.pop_front() {
                    break Some(job);
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                q = inner.available.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        match job {
            // `map` jobs contain their own panic capture; a raw
            // `spawn` job may panic through here, killing this worker — the
            // thread's `RespawnGuard` then starts a replacement, so pool
            // capacity survives. The job runs outside the queue lock, so a
            // panic cannot poison shared state mid-mutation.
            Some(job) => job(),
            None => return,
        }
    }
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

    /// Spin-waits (bounded) until `cond` holds; panics on timeout.
    fn wait_for(what: &str, cond: impl Fn() -> bool) {
        for _ in 0..2000 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn panicking_spawn_jobs_do_not_poison_or_shrink_the_pool() {
        let pool = WorkerPool::new(2);
        wait_for("workers up", || pool.alive_workers() == 2);
        // More panicking jobs than workers: every worker dies at least once
        // if it picks one up; each death must respawn a replacement.
        for _ in 0..8 {
            pool.spawn(|| panic!("worker-killing job"));
        }
        // The pool keeps serving work correctly throughout...
        let items: Vec<u64> = (0..64).collect();
        for _ in 0..4 {
            let out = pool.map(&items, |&x| x + 1);
            assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>());
        }
        // ...and worker capacity converges back to the configured count.
        wait_for("respawn", || pool.alive_workers() == 2);
    }

    #[test]
    fn panicking_spawn_then_shutdown_does_not_deadlock() {
        let pool = WorkerPool::new(1);
        wait_for("worker up", || pool.alive_workers() == 1);
        pool.spawn(|| panic!("boom"));
        wait_for("respawn", || pool.alive_workers() == 1);
        drop(pool); // must not hang on a dead or poisoned worker
    }

    #[test]
    fn spawn_runs_fire_and_forget_jobs() {
        let pool = WorkerPool::new(2);
        let counter = Arc::new(AtomicU32::new(0));
        for _ in 0..16 {
            let counter = Arc::clone(&counter);
            pool.spawn(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        wait_for("jobs drained", || counter.load(Ordering::SeqCst) == 16);
    }

    #[test]
    fn helping_caller_contains_a_stolen_panicking_job() {
        let pool = WorkerPool::new(1);
        wait_for("worker up", || pool.alive_workers() == 1);
        // The sole worker's helper job sleeps on item 1 while the caller's
        // item 0 enqueues a panicking fire-and-forget job, so the caller
        // usually ends up in the help loop and steals it. Whether the caller
        // or a worker runs the panicking job, `map` must return normally.
        let out = pool.map(&[0u32, 1], |&i| {
            if i == 0 {
                pool.spawn(|| panic!("stolen panicking job"));
            } else {
                std::thread::sleep(Duration::from_millis(50));
            }
            i + 1
        });
        assert_eq!(out, vec![1, 2]);
        let items: Vec<u32> = (0..32).collect();
        assert_eq!(pool.map(&items, |&x| x * 2)[31], 62);
        wait_for("capacity restored", || pool.alive_workers() == 1);
    }

    #[test]
    fn global_pool_is_shared() {
        let a = WorkerPool::global() as *const WorkerPool;
        let b = WorkerPool::global() as *const WorkerPool;
        assert_eq!(a, b);
    }

    #[test]
    fn respawn_after_panic_drains_already_queued_jobs() {
        // Regression test for the DAG executor's lane drivers: a panicking
        // job in front of a full queue must not strand the jobs behind it.
        // The replacement worker (RespawnGuard) has to pick up the same
        // shared queue and drain everything that was enqueued *before* the
        // panic happened.
        let pool = WorkerPool::new(1);
        let done = Arc::new(AtomicU32::new(0));
        pool.spawn(|| {
            std::thread::sleep(Duration::from_millis(20));
            panic!("queue-head job dies");
        });
        for _ in 0..64 {
            let done = Arc::clone(&done);
            pool.spawn(move || {
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        wait_for("queued jobs survive the respawn", || done.load(Ordering::Relaxed) == 64);
        wait_for("capacity restored", || pool.alive_workers() == 1);
    }
}
