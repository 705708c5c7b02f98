//! Admission control: a bounded in-flight query semaphore with a bounded
//! waiting queue and deadline-aware waits.
//!
//! The dataflow `Runtime` is a shared, fixed-size worker pool; letting every
//! connection launch task waves at once would convoy them all. Instead each
//! zoom query must acquire a [`Permit`] first: at most `max_inflight`
//! queries execute concurrently, at most `max_queue` more wait, and a waiter
//! whose deadline passes is rejected while still queued — it never touches
//! the pool (the acceptance criterion for expired deadlines).
//!
//! Over a socket only the dispatcher threads run zooms, and
//! `eventloop::serve` starts `max_inflight + 2` of them, so at most two
//! zooms ever wait here: a `max_queue` of 2 or more never refuses a socket
//! request. The bound still holds for in-process callers of
//! [`Server::handle_line`](crate::Server::handle_line) on more threads.
//!
//! A permit is a slot and nothing else: it reserves no bytes. Memory is the
//! dataflow governor's business — each exchange charges what it measures
//! and spills past the budget — and the connection layer pauses reads while
//! the governor is over budget (DESIGN.md §9).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tgraph_dataflow::{lock_unpoisoned, wait_timeout_unpoisoned, wait_unpoisoned};

/// Why admission was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// The waiting queue is at capacity.
    QueueFull,
    /// The request's deadline expired before a slot freed up.
    DeadlineExpired,
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::QueueFull => f.write_str("admission queue full"),
            AdmitError::DeadlineExpired => f.write_str("deadline expired while queued"),
        }
    }
}

impl std::error::Error for AdmitError {}

#[derive(Default)]
struct State {
    inflight: usize,
    waiting: usize,
}

/// Counters returned by [`Admission::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Permits granted.
    pub admitted: u64,
    /// Rejections: queue at capacity.
    pub rejected_queue_full: u64,
    /// Rejections: deadline expired while waiting.
    pub rejected_deadline: u64,
    /// Total microseconds spent waiting for admission (granted permits only).
    pub wait_us_total: u64,
    /// Permit releases that found `inflight` already at zero. Always 0 in a
    /// correct server: every release must pair with exactly one admit. The
    /// old accounting `saturating_sub(1)` silently absorbed such imbalances,
    /// which would mask a leaked or double-released slot (the gate would
    /// quietly admit more than `max_inflight`). Debug builds also assert.
    pub release_underflows: u64,
    /// Queries currently executing.
    pub inflight: usize,
    /// Queries currently waiting.
    pub queue_depth: usize,
    /// The in-flight bound the gate enforces (the configured one, at
    /// least 1).
    pub max_inflight: usize,
    /// The waiter bound the gate enforces (the configured one, at least 1).
    pub max_queue: usize,
}

/// The admission gate. Cheap to share (`Arc`).
pub struct Admission {
    max_inflight: usize,
    max_queue: usize,
    state: Mutex<State>,
    cv: Condvar,
    admitted: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_deadline: AtomicU64,
    wait_us_total: AtomicU64,
    release_underflows: AtomicU64,
}

/// An admission slot. Dropping it releases the slot and wakes one waiter.
pub struct Permit {
    gate: Arc<Admission>,
    /// How long this permit waited in the queue before being granted.
    pub waited: Duration,
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut state = lock_unpoisoned(&self.gate.state);
        // Balanced accounting: every release pairs with exactly one admit.
        // An underflow means a slot was double-released — wrapping (or the
        // old `saturating_sub`, which hid it) would let the gate admit more
        // than `max_inflight` forever after. Count it, never wrap, and trip
        // loudly in debug builds.
        match state.inflight.checked_sub(1) {
            Some(n) => state.inflight = n,
            None => {
                drop(state);
                self.gate.release_underflows.fetch_add(1, Ordering::Relaxed);
                debug_assert!(
                    false,
                    "admission permit released with zero inflight (double release?)"
                );
                return;
            }
        }
        drop(state);
        self.gate.cv.notify_one();
    }
}

impl Admission {
    /// A gate admitting `max_inflight` concurrent queries with up to
    /// `max_queue` waiters. Both must be at least 1.
    pub fn new(max_inflight: usize, max_queue: usize) -> Arc<Self> {
        Arc::new(Admission {
            max_inflight: max_inflight.max(1),
            max_queue: max_queue.max(1),
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
            admitted: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            rejected_deadline: AtomicU64::new(0),
            wait_us_total: AtomicU64::new(0),
            release_underflows: AtomicU64::new(0),
        })
    }

    /// Acquires a permit, waiting until a slot frees or `deadline` passes.
    /// `deadline: None` waits indefinitely.
    pub fn admit(self: &Arc<Self>, deadline: Option<Instant>) -> Result<Permit, AdmitError> {
        let started = Instant::now();
        let mut state = lock_unpoisoned(&self.state);
        if state.inflight < self.max_inflight && state.waiting == 0 {
            // Fast path: free slot, no queue to cut.
            state.inflight += 1;
            drop(state);
            self.admitted.fetch_add(1, Ordering::Relaxed);
            return Ok(Permit {
                gate: Arc::clone(self),
                waited: Duration::ZERO,
            });
        }
        // Reject instantly if the deadline has already passed or the queue
        // is at capacity — no queue slot is consumed.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            self.rejected_deadline.fetch_add(1, Ordering::Relaxed);
            return Err(AdmitError::DeadlineExpired);
        }
        if state.waiting >= self.max_queue {
            self.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
            return Err(AdmitError::QueueFull);
        }
        state.waiting += 1;
        let outcome = loop {
            if state.inflight < self.max_inflight {
                state.inflight += 1;
                break Ok(());
            }
            let now = Instant::now();
            if deadline.is_some_and(|d| now >= d) {
                break Err(AdmitError::DeadlineExpired);
            }
            // Park until the deadline at most.
            state = match deadline {
                Some(d) => wait_timeout_unpoisoned(&self.cv, state, d - now),
                None => wait_unpoisoned(&self.cv, state),
            };
        };
        state.waiting -= 1;
        drop(state);
        match outcome {
            Ok(()) => {
                let waited = started.elapsed();
                self.admitted.fetch_add(1, Ordering::Relaxed);
                self.wait_us_total
                    .fetch_add(waited.as_micros() as u64, Ordering::Relaxed);
                Ok(Permit {
                    gate: Arc::clone(self),
                    waited,
                })
            }
            Err(e) => {
                self.rejected_deadline.fetch_add(1, Ordering::Relaxed);
                // Our wakeup may have been the one that carried a free slot;
                // pass it on so no waiter is stranded.
                self.cv.notify_one();
                Err(e)
            }
        }
    }

    /// Whether the gate is saturated from a *backpressure* point of view:
    /// every in-flight slot is taken **and** queries are already queued
    /// behind them. The event loop consults this (and the memory governor)
    /// before reading more request bytes off sockets — once the queue has
    /// formed, piling parsed requests into user-space buffers only grows the
    /// OOM surface; leaving bytes in the kernel socket buffer pushes back on
    /// the client instead.
    ///
    /// Note the `waiting > 0` term: a merely *full* gate with an empty queue
    /// is not saturation — the bounded queue exists precisely to absorb that
    /// much burst.
    pub fn is_saturated(&self) -> bool {
        let state = lock_unpoisoned(&self.state);
        state.inflight >= self.max_inflight && state.waiting > 0
    }

    /// Current counters and live depths.
    pub fn stats(&self) -> AdmissionStats {
        let (inflight, queue_depth) = {
            let state = lock_unpoisoned(&self.state);
            (state.inflight, state.waiting)
        };
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            rejected_deadline: self.rejected_deadline.load(Ordering::Relaxed),
            wait_us_total: self.wait_us_total.load(Ordering::Relaxed),
            release_underflows: self.release_underflows.load(Ordering::Relaxed),
            inflight,
            queue_depth,
            max_inflight: self.max_inflight,
            max_queue: self.max_queue,
        }
    }
}

impl std::fmt::Debug for Admission {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Admission")
            .field("max_inflight", &self.max_inflight)
            .field("max_queue", &self.max_queue)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_up_to_max_inflight_then_queues() {
        let gate = Admission::new(2, 4);
        let p1 = gate.admit(None).expect("slot 1");
        let _p2 = gate.admit(None).expect("slot 2");
        assert_eq!(gate.stats().inflight, 2);
        // Third must wait; give it a deadline so the test terminates.
        let deadline = Instant::now() + Duration::from_millis(30);
        assert!(matches!(
            gate.admit(Some(deadline)),
            Err(AdmitError::DeadlineExpired)
        ));
        drop(p1);
        // Slot freed: next admit succeeds immediately.
        let p3 = gate
            .admit(Some(Instant::now() + Duration::from_secs(5)))
            .expect("slot after release");
        drop(p3);
    }

    #[test]
    fn expired_deadline_is_rejected_without_queueing() {
        let gate = Admission::new(1, 4);
        let _hold = gate.admit(None).expect("slot");
        let expired = Instant::now() - Duration::from_millis(1);
        let t0 = Instant::now();
        assert!(matches!(
            gate.admit(Some(expired)),
            Err(AdmitError::DeadlineExpired)
        ));
        assert!(
            t0.elapsed() < Duration::from_millis(50),
            "instant rejection"
        );
        assert_eq!(gate.stats().rejected_deadline, 1);
        assert_eq!(gate.stats().queue_depth, 0);
    }

    #[test]
    fn full_queue_rejects() {
        let gate = Admission::new(1, 1);
        let _hold = gate.admit(None).expect("slot");
        // Fill the single queue slot with a waiter thread.
        let g2 = Arc::clone(&gate);
        let waiter =
            std::thread::spawn(move || g2.admit(Some(Instant::now() + Duration::from_millis(300))));
        // Wait until the waiter is queued.
        while gate.stats().queue_depth == 0 {
            std::thread::yield_now();
        }
        assert!(matches!(
            gate.admit(Some(Instant::now() + Duration::from_millis(300))),
            Err(AdmitError::QueueFull)
        ));
        drop(_hold);
        assert!(waiter.join().expect("waiter panicked").is_ok());
    }

    #[test]
    fn contended_permits_all_complete() {
        let gate = Admission::new(3, 64);
        let counter = Arc::new(AtomicU64::new(0));
        let peak = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..24 {
            let (gate, counter, peak) =
                (Arc::clone(&gate), Arc::clone(&counter), Arc::clone(&peak));
            handles.push(std::thread::spawn(move || {
                let _permit = gate.admit(None).expect("admitted");
                let now = counter.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
                counter.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        for h in handles {
            h.join().expect("worker panicked");
        }
        assert!(peak.load(Ordering::SeqCst) <= 3, "inflight bounded");
        assert_eq!(gate.stats().admitted, 24);
        assert_eq!(gate.stats().inflight, 0);
    }

    /// S2 regression: a release with zero inflight (a forged/double-released
    /// permit) must not wrap the counter — the old `saturating_sub` hid the
    /// imbalance; the fix counts it, panics in debug builds, and leaves the
    /// gate fully functional.
    #[test]
    fn unbalanced_release_is_detected_not_absorbed() {
        let gate = Admission::new(2, 4);
        let forged = Permit {
            gate: Arc::clone(&gate),
            waited: Duration::ZERO,
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(forged)));
        if cfg!(debug_assertions) {
            assert!(outcome.is_err(), "debug build trips the underflow assert");
        } else {
            assert!(outcome.is_ok(), "release build records and continues");
        }
        let stats = gate.stats();
        assert_eq!(stats.release_underflows, 1, "imbalance was counted");
        assert_eq!(stats.inflight, 0, "counter did not wrap");
        // The gate still enforces its bound afterwards.
        let p1 = gate.admit(None).expect("slot 1");
        let _p2 = gate.admit(None).expect("slot 2");
        assert_eq!(gate.stats().inflight, 2);
        assert!(matches!(
            gate.admit(Some(Instant::now() - Duration::from_millis(1))),
            Err(AdmitError::DeadlineExpired)
        ));
        drop(p1);
        assert_eq!(gate.stats().inflight, 1);
    }
}
