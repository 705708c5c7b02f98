//! Poison-recovering lock and condvar-wait helpers shared across the
//! workspace.
//!
//! This file is the workspace's **single audited poison-recovery point**.
//! Every engine mutex guards state that stays structurally valid across a
//! panic (wave aborts unwind with typed payloads and drain siblings by
//! RAII), so continuing past poison is sound here — and concentrating the
//! pattern in these helpers keeps that argument reviewable instead of
//! scattered across dozens of inline `unwrap_or_else(|e| e.into_inner())`
//! copies, which the root `clippy.toml` rejects everywhere else
//! (`disallowed-methods`: `std::sync::PoisonError::into_inner`).

#![expect(
    clippy::disallowed_methods,
    reason = "this file is the audited recovery point clippy.toml exempts"
)]

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Locks a mutex, recovering the guard if a previous holder panicked.
pub fn lock_unpoisoned<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// [`Condvar::wait`] with the same recovery as [`lock_unpoisoned`]. A wait
/// can return spuriously: call it in a loop that re-checks the condition.
pub fn wait_unpoisoned<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|e| e.into_inner())
}

/// [`Condvar::wait_timeout`] with the same recovery as [`lock_unpoisoned`];
/// whether the wait timed out is dropped, because every caller re-reads its
/// own deadline after waking.
pub fn wait_timeout_unpoisoned<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, dur)
        .unwrap_or_else(|e| e.into_inner())
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn poisoned(v: u32) -> Arc<Mutex<u32>> {
        let m = Arc::new(Mutex::new(v));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().expect("fresh mutex");
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        m
    }

    #[test]
    fn recovers_poisoned_mutex() {
        let m = poisoned(7);
        assert_eq!(*lock_unpoisoned(&m), 7);
        *lock_unpoisoned(&m) = 9;
        assert_eq!(*lock_unpoisoned(&m), 9);
    }

    #[test]
    fn waits_recover_a_poisoned_mutex() {
        let m = poisoned(7);
        let cv = Condvar::new();
        // Nobody notifies: the timeout returns the recovered guard.
        let g = wait_timeout_unpoisoned(&cv, lock_unpoisoned(&m), Duration::from_millis(1));
        assert_eq!(*g, 7);
        drop(g);
        // `wait` needs a notifier. It is spawned under the lock, so it
        // cannot publish 9 until the first wait has released the mutex.
        std::thread::scope(|s| {
            let mut g = lock_unpoisoned(&m);
            s.spawn(|| {
                *lock_unpoisoned(&m) = 9;
                cv.notify_all();
            });
            while *g != 9 {
                g = wait_unpoisoned(&cv, g);
            }
        });
        assert!(m.is_poisoned(), "recovery does not clear the flag");
    }
}
