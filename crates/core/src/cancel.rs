//! Cooperative cancellation and deadline propagation.
//!
//! A [`CancelToken`] is a cheap, clonable handle shared between the party
//! imposing a budget (a service request handler, a watchdog) and the code
//! doing the work (synthesis passes, the mapper).  Workers poll
//! [`CancelToken::check`] at natural checkpoints — pass boundaries and
//! per-node sweep loops — and, once the token has fired, return
//! `Err(`[`Cancelled`]`)`, which every layer above passes up with `?`.
//! Cancellation is an ordinary return value: nothing unwinds and no panic
//! hook is involved.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a unit of work was asked to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called explicitly (drain, watchdog, client
    /// disconnect).
    Cancelled,
    /// The token's wall-clock deadline passed.
    DeadlineExceeded,
}

/// The error returned by cancellable entry points once their token fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled {
    /// Why the work was stopped.
    pub reason: CancelReason,
}

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.reason {
            CancelReason::Cancelled => write!(f, "evaluation cancelled"),
            CancelReason::DeadlineExceeded => write!(f, "evaluation deadline exceeded"),
        }
    }
}

impl std::error::Error for Cancelled {}

/// The `expect` message of a call made under [`CancelToken::never`]: the
/// plain entry points over a cancellable path are that path under `never`,
/// and nothing else cancels the token they make.
pub const NEVER_FIRES: &str = "a CancelToken::never() nobody else holds cannot fire";

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A shared cancellation handle, optionally carrying a wall-clock deadline.
///
/// Cloning is cheap (one `Arc` bump); all clones observe the same state.
/// A token with neither a deadline nor an explicit [`cancel`](Self::cancel)
/// call never fires, so "no budget" is just [`CancelToken::never`] — callers
/// need no `Option` plumbing.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that never cancels on its own (can still be cancelled
    /// explicitly).
    pub fn never() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that expires `budget` from now.
    pub fn with_deadline(budget: Duration) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Instant::now().checked_add(budget),
            }),
        }
    }

    /// The absolute deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Time left until the deadline (`None` when no deadline was set; zero
    /// once it has passed).
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Requests cancellation.  Idempotent; wins over a later deadline expiry
    /// when reporting the reason.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// The current state: `Some(reason)` once the token has fired.
    pub fn state(&self) -> Option<CancelReason> {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return Some(CancelReason::Cancelled);
        }
        match self.inner.deadline {
            Some(deadline) if Instant::now() >= deadline => Some(CancelReason::DeadlineExceeded),
            _ => None,
        }
    }

    /// `Err(Cancelled)` once the token has fired; cheap enough for inner
    /// loops when strided (the explicit-cancel flag is one atomic load, the
    /// deadline one `Instant::now()`).
    pub fn check(&self) -> Result<(), Cancelled> {
        match self.state() {
            Some(reason) => Err(Cancelled { reason }),
            None => Ok(()),
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::never()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_token_stays_quiet() {
        let token = CancelToken::never();
        assert_eq!(token.state(), None);
        assert!(token.check().is_ok());
        assert_eq!(token.deadline(), None);
        assert_eq!(token.remaining(), None);
    }

    #[test]
    fn explicit_cancel_fires_and_wins() {
        let token = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(token.check().is_ok());
        let clone = token.clone();
        clone.cancel();
        assert_eq!(token.state(), Some(CancelReason::Cancelled));
        assert_eq!(
            token.check().unwrap_err().reason,
            CancelReason::Cancelled,
            "explicit cancel reported even with a live deadline"
        );
    }

    #[test]
    fn expired_deadline_reports_deadline_exceeded() {
        let token = CancelToken::with_deadline(Duration::ZERO);
        assert_eq!(token.state(), Some(CancelReason::DeadlineExceeded));
        assert_eq!(token.remaining(), Some(Duration::ZERO));
    }
}
