//! Cooperative cancellation for dataflow jobs: deadlines and explicit
//! abandonment threaded through the executor.
//!
//! A [`CancelToken`] is a cheap, cloneable handle carrying an "abandon this
//! work" flag plus an optional wall-clock deadline. Installing one with
//! [`CancelToken::scope`] makes every task wave launched from the enclosed
//! code check it: [`Runtime::run_indexed`](crate::Runtime::run_indexed)
//! refuses to launch a new wave once the token has tripped, and every task
//! in an in-flight wave re-checks the token before running, so a cancelled
//! query's queued partitions drain off the worker pool in microseconds
//! instead of finishing their (now pointless) work.
//!
//! Cancellation surfaces as a typed unwind ([`Cancelled`]) that `scope`
//! converts into `Err(Cancelled)` at the boundary — operator code in between
//! needs no `Result` plumbing, mirroring how Spark propagates job
//! cancellation by interrupting task threads.
//!
//! ```
//! use tgraph_dataflow::{CancelToken, Dataset, Runtime};
//!
//! let rt = Runtime::new(2);
//! let d = Dataset::from_vec(&rt, (0..100).collect::<Vec<i64>>());
//! let token = CancelToken::new();
//! token.cancel();
//! let result = token.scope(|| d.map(|x| x * 2).collect(&rt));
//! assert!(result.is_err(), "cancelled before the wave launched");
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The unwind payload carried by a cancelled dataflow job. Caught and
/// converted to `Err(Cancelled)` by [`CancelToken::scope`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dataflow job cancelled")
    }
}

impl std::error::Error for Cancelled {}

struct Inner {
    flag: AtomicBool,
    deadline: Option<Instant>,
}

/// A cheap, cloneable cancellation handle: an explicit flag plus an optional
/// deadline. All clones observe the same flag.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token with no deadline; trips only via [`CancelToken::cancel`].
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that additionally trips once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// Trips the token: every holder observes cancellation from now on.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the token has tripped (explicitly or by deadline).
    pub fn is_cancelled(&self) -> bool {
        self.inner.flag.load(Ordering::Relaxed)
            || self.inner.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Runs `f` with this token installed as the calling thread's current
    /// cancellation context. Task waves launched inside (directly or through
    /// any dataflow operator) check the token at wave boundaries and between
    /// partitions. Returns `Err(Cancelled)` if the work was abandoned;
    /// panics other than cancellation propagate unchanged.
    pub fn scope<R>(&self, f: impl FnOnce() -> R) -> Result<R, Cancelled> {
        let _guard = ScopeGuard::install(self.clone());
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(r) => Ok(r),
            Err(payload) => {
                if payload.downcast_ref::<Cancelled>().is_some() {
                    Err(Cancelled)
                } else {
                    std::panic::resume_unwind(payload)
                }
            }
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .field("deadline", &self.inner.deadline)
            .finish()
    }
}

thread_local! {
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Restores the previously installed token when a scope exits (scopes nest).
struct ScopeGuard {
    previous: Option<CancelToken>,
}

impl ScopeGuard {
    fn install(token: CancelToken) -> ScopeGuard {
        let previous = CURRENT.with(|c| c.borrow_mut().replace(token));
        ScopeGuard { previous }
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.previous.take());
    }
}

/// The token installed on the calling thread, if any. Read by the runtime at
/// wave-dispatch time; captured into tasks so pool workers (which have their
/// own thread-locals) observe the dispatching query's token.
pub(crate) fn current() -> Option<CancelToken> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Aborts the current job by unwinding with the [`Cancelled`] payload.
pub(crate) fn abort() -> ! {
    std::panic::panic_any(Cancelled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn token_trips_on_cancel_and_deadline() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());

        let expired = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(expired.is_cancelled());
        let future = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!future.is_cancelled());
    }

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn scope_returns_ok_when_uncancelled() {
        let t = CancelToken::new();
        assert_eq!(t.scope(|| 41 + 1), Ok(42));
    }

    #[test]
    fn scope_catches_cancellation_unwind_only() {
        let t = CancelToken::new();
        assert_eq!(t.scope(|| abort()), Err::<(), _>(Cancelled));
        // Ordinary panics pass through.
        let other = std::panic::catch_unwind(|| {
            let _ = t.scope(|| panic!("boom"));
        });
        assert!(other.is_err());
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = CancelToken::new();
        let inner = CancelToken::new();
        inner.cancel();
        let r = outer.scope(|| {
            assert!(!current().is_some_and(|t| t.is_cancelled()));
            let nested = inner.scope(|| {
                assert!(current().is_some_and(|t| t.is_cancelled()));
                7
            });
            assert_eq!(nested, Ok(7));
            // Outer token is current again.
            assert!(!current().is_some_and(|t| t.is_cancelled()));
            9
        });
        assert_eq!(r, Ok(9));
        assert!(current().is_none());
    }
}
