//! Cooperative cancellation for long-running evaluations.
//!
//! A [`CancelToken`] is a shared flag a *requester* sets and a *worker*
//! polls. Workers don't thread the token through every call — they
//! install it in a thread-local with [`install`] and sprinkle
//! [`checkpoint`] calls at round boundaries (pass-manager rounds, tree
//! nodes, autotuner rounds). When the installed token is cancelled, the
//! next checkpoint panics with a [`Cancelled`] payload; whoever wrapped
//! the evaluation in `catch_unwind` (the serve executor does) downcasts
//! the payload to tell "cancelled" apart from a genuine panic.
//!
//! Unwinding is safe at every checkpoint because the worker pool already
//! contains panics for fault tolerance: its `map` resurfaces an item's
//! panic at its caller only after every borrowed job has settled, and the
//! parallel tree search forks through that `map`.
//!
//! An evaluation's work may run on other threads: `map` reads its
//! caller's token with [`current`] and installs it around every item
//! another thread takes, so a cancelled request stops there too. A thread
//! that has no token for that work — a `map` whose caller had none — runs
//! it under [`suspend`], which masks whatever token the thread itself
//! holds, so one request's cancellation never unwinds another's work.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cancellation flag: set once by the requester, polled by
/// [`checkpoint`] on worker threads that [`install`]ed a clone.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation: every installed clone's next
    /// [`checkpoint`] will unwind with [`Cancelled`].
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// The panic payload [`checkpoint`] unwinds with. Downcast the payload
/// of a caught panic to `Cancelled` to distinguish cooperative
/// cancellation from a real bug.
#[derive(Debug)]
pub struct Cancelled;

thread_local! {
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Restores the thread's previous token (or suspension) on drop.
#[derive(Debug)]
pub struct InstallGuard {
    prev: Option<Option<CancelToken>>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
}

/// Installs `token` as this thread's checkpoint target for the guard's
/// lifetime. Nesting restores the previous token on drop.
pub fn install(token: CancelToken) -> InstallGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(token));
    InstallGuard { prev: Some(prev) }
}

/// This thread's installed token, if any: the one [`checkpoint`] polls.
pub fn current() -> Option<CancelToken> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Masks this thread's installed token for the guard's lifetime: used
/// around work taken from another thread whose owner had no token, so
/// the helping thread's own token cannot cancel it.
pub fn suspend() -> InstallGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().take());
    InstallGuard { prev: Some(prev) }
}

/// Polls this thread's installed token; unwinds with [`Cancelled`] if
/// it has been cancelled. A no-op (one thread-local read) on threads
/// with no token installed — in-process evaluations never pay for the
/// serving layer's cancellation.
#[inline]
pub fn checkpoint() {
    let cancelled =
        CURRENT.with(|c| c.borrow().as_ref().map(CancelToken::is_cancelled).unwrap_or(false));
    if cancelled {
        std::panic::panic_any(Cancelled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_is_a_no_op_without_a_token() {
        checkpoint();
    }

    #[test]
    fn cancelled_token_unwinds_the_next_checkpoint() {
        let token = CancelToken::new();
        let _guard = install(token.clone());
        checkpoint();
        token.cancel();
        let err = std::panic::catch_unwind(checkpoint).unwrap_err();
        assert!(err.downcast_ref::<Cancelled>().is_some(), "payload is Cancelled");
    }

    #[test]
    fn suspend_masks_the_token_and_drop_restores_it() {
        let token = CancelToken::new();
        token.cancel();
        let _guard = install(token.clone());
        {
            let _mask = suspend();
            checkpoint();
        }
        assert!(std::panic::catch_unwind(checkpoint).is_err(), "restored after mask");
    }

    #[test]
    fn current_reads_the_installed_token_and_sees_the_mask() {
        assert!(current().is_none());
        let token = CancelToken::new();
        let _guard = install(token.clone());
        token.cancel();
        assert!(current().is_some_and(|t| t.is_cancelled()), "the installed token");
        let _mask = suspend();
        assert!(current().is_none(), "masked");
    }

    #[test]
    fn install_nesting_restores_the_outer_token() {
        let outer = CancelToken::new();
        outer.cancel();
        let _g1 = install(outer);
        {
            let _g2 = install(CancelToken::new());
            checkpoint();
        }
        assert!(std::panic::catch_unwind(checkpoint).is_err(), "outer token back in force");
    }
}
