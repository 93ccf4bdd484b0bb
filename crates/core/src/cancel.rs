//! Cooperative cancellation and deadlines for long-running analyses.
//!
//! The sweep of Equation 6.3 is quadratic in candidate points per block;
//! a pathological instance can keep a worker busy for a long time. Batch
//! drivers that analyze many instances need a way to give up on one
//! instance without killing the process or the pool, so the pipeline's
//! `*_ctl` entry points ([`crate::analyze_ctl`],
//! [`crate::AnalysisSession::new_ctl`],
//! [`crate::AnalysisSession::apply_ctl`]) accept a [`CancelToken`] and
//! poll it at interruption checkpoints: once per task in the EST/LCT
//! passes, once per `t1` sweep column, and inside the filtering pass.
//! A tripped token surfaces as [`AnalysisError::Deadline`]; partial
//! results are discarded by the caller (the session keeps its dirt, see
//! `crates/core/src/session.rs`).
//!
//! Tokens are cheap to clone (an `Arc`) and cheap to poll: the cancel
//! flag is one relaxed atomic load, and the deadline clock is consulted
//! only every [`DEADLINE_STRIDE`] polls so the hot sweep loops never pay
//! a syscall per column.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::AnalysisError;

/// How many [`CancelToken::check`] calls elapse between deadline-clock
/// reads. Cancellation via [`CancelToken::cancel`] is observed on the
/// very next check regardless.
pub(crate) const DEADLINE_STRIDE: u32 = 64;

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    polls: AtomicU32,
}

/// A shared, cooperative stop signal with an optional deadline.
///
/// [`CancelToken::none`] is the zero-cost default: it never trips and
/// every check is a branch on a `None`. Real tokens share state across
/// clones, so a driver thread can [`cancel`](CancelToken::cancel) a
/// token while a worker polls it.
///
/// # Example
///
/// ```
/// use rtlb_core::{AnalysisError, CancelToken};
/// let token = CancelToken::new();
/// assert_eq!(token.check(), Ok(()));
/// token.cancel();
/// assert_eq!(token.check(), Err(AnalysisError::Deadline));
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Option<Arc<Inner>>,
}

impl CancelToken {
    /// A token that never trips; checks compile to a branch on `None`.
    pub const fn none() -> CancelToken {
        CancelToken { inner: None }
    }

    /// A cancellable token with no deadline.
    pub fn new() -> CancelToken {
        CancelToken::with_inner(None)
    }

    /// A token that trips once `timeout` has elapsed from now (and can
    /// still be cancelled early).
    pub fn with_timeout(timeout: Duration) -> CancelToken {
        CancelToken::with_inner(Instant::now().checked_add(timeout))
    }

    fn with_inner(deadline: Option<Instant>) -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline,
                polls: AtomicU32::new(0),
            })),
        }
    }

    /// Trips the token: every clone's next [`check`](CancelToken::check)
    /// fails.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Relaxed);
        }
    }

    /// The pipeline's interruption checkpoint.
    ///
    /// Observes [`cancel`](CancelToken::cancel) immediately; the deadline
    /// clock is read every 64th call (an expired deadline latches the
    /// cancel flag, so later checks stay cheap).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Deadline`] once the token has tripped.
    pub fn check(&self) -> Result<(), AnalysisError> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if inner.cancelled.load(Ordering::Relaxed) {
            return Err(AnalysisError::Deadline);
        }
        if let Some(deadline) = inner.deadline {
            let poll = inner.polls.fetch_add(1, Ordering::Relaxed);
            if poll % DEADLINE_STRIDE == 0 && Instant::now() >= deadline {
                inner.cancelled.store(true, Ordering::Relaxed);
                return Err(AnalysisError::Deadline);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_token_never_trips() {
        let t = CancelToken::none();
        for _ in 0..1000 {
            assert_eq!(t.check(), Ok(()));
        }
        t.cancel();
        assert_eq!(t.check(), Ok(()));
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert_eq!(clone.check(), Ok(()));
        t.cancel();
        assert_eq!(clone.check(), Err(AnalysisError::Deadline));
    }

    #[test]
    fn expired_timeout_trips_and_latches() {
        let t = CancelToken::with_timeout(Duration::ZERO);
        // The first check reads the clock (poll 0), trips, and latches.
        assert_eq!(t.check(), Err(AnalysisError::Deadline));
        assert_eq!(t.check(), Err(AnalysisError::Deadline));
    }

    #[test]
    fn generous_timeout_does_not_trip() {
        let t = CancelToken::with_timeout(Duration::from_secs(3600));
        for _ in 0..(DEADLINE_STRIDE * 3) {
            assert_eq!(t.check(), Ok(()));
        }
    }
}
