//! A persistent work-stealing `map` executor (std-only).
//!
//! The DAG tree search ([`crate::evaluate_inlining_tree_dag`]) and the autotuner
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
    /// completion flags (the borrow-erasure safety contract). Every queued
    /// job is a `map` helper that captures and reports its own panics, so
    /// the guard is a backstop.
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
            // Every job is a `map` helper, which captures its own panics.
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

    #[test]
    fn global_pool_is_shared() {
        let a = WorkerPool::global() as *const WorkerPool;
        let b = WorkerPool::global() as *const WorkerPool;
        assert_eq!(a, b);
    }
}
