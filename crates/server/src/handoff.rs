//! The reactor→dispatcher hand-off queue. Its lock is taken here only.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use tgraph_dataflow::{lock_unpoisoned, wait_unpoisoned};

/// The reactor→dispatcher hand-off: a batch goes to the most recently idle
/// dispatcher and queues only when none is idle ([`crate::eventloop`]'s docs say why
/// most-recent-first).
pub(crate) struct HandOff<J> {
    state: Mutex<HandOffState<J>>,
    /// One condvar per dispatcher, so a submit wakes exactly the thread it
    /// picked.
    wake_cv: Vec<Condvar>,
}

struct HandOffState<J> {
    /// Batches submitted while every dispatcher was busy, oldest first.
    queue: VecDeque<J>,
    /// Idle dispatchers by index, most recently idle last.
    idle: Vec<usize>,
    /// Per dispatcher, the batch a submit popped it off `idle` for.
    handed: Vec<Option<J>>,
    /// The reactors have exited: nothing further will be submitted.
    closed: bool,
}

impl<J> HandOff<J> {
    pub(crate) fn new(dispatchers: usize) -> HandOff<J> {
        HandOff {
            state: Mutex::new(HandOffState {
                queue: VecDeque::new(),
                idle: Vec::with_capacity(dispatchers),
                handed: (0..dispatchers).map(|_| None).collect(),
                closed: false,
            }),
            wake_cv: (0..dispatchers).map(|_| Condvar::new()).collect(),
        }
    }

    /// Hands `job` to the most recently idle dispatcher, or queues it.
    pub(crate) fn submit(&self, job: J) {
        let mut st = lock_unpoisoned(&self.state);
        match st.idle.pop() {
            Some(i) => {
                st.handed[i] = Some(job);
                self.wake_cv[i].notify_one();
            }
            None => st.queue.push_back(job),
        }
    }

    /// Dispatcher `me` is free: returns the oldest queued batch, or, with
    /// none waiting, enters `me` on the idle stack and returns `None`.
    pub(crate) fn take_or_idle(&self, me: usize) -> Option<J> {
        let mut st = lock_unpoisoned(&self.state);
        let job = st.queue.pop_front();
        if job.is_none() {
            st.idle.push(me);
        }
        job
    }

    /// Blocks idle dispatcher `me` until a batch is handed to it; `None`
    /// once the hand-off is closed.
    pub(crate) fn wait(&self, me: usize) -> Option<J> {
        let mut st = lock_unpoisoned(&self.state);
        loop {
            if let Some(job) = st.handed[me].take() {
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = wait_unpoisoned(&self.wake_cv[me], st);
        }
    }

    /// Ends every dispatcher once it has run what was already submitted.
    pub(crate) fn close(&self) {
        lock_unpoisoned(&self.state).closed = true;
        for cv in &self.wake_cv {
            cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_off_prefers_the_most_recently_idle_dispatcher() {
        let jobs: HandOff<u32> = HandOff::new(3);
        for me in [0, 1, 2] {
            assert!(jobs.take_or_idle(me).is_none(), "nothing queued yet");
        }
        // 2 went idle last, so it is handed the batch; 0 and 1 stay parked.
        jobs.submit(10);
        assert_eq!(jobs.wait(2), Some(10), "handed to 2");
        // 2 re-enters on top and gets the next one again.
        assert!(jobs.take_or_idle(2).is_none());
        jobs.submit(11);
        assert_eq!(jobs.wait(2), Some(11), "handed to 2 again");

        // With nobody idle a batch queues, oldest first.
        jobs.submit(12); // to 1
        jobs.submit(13); // to 0
        jobs.submit(14); // queued
        jobs.submit(15); // queued
        assert_eq!(jobs.wait(1), Some(12));
        assert_eq!(jobs.wait(0), Some(13));
        assert_eq!(jobs.take_or_idle(2), Some(14));
        assert_eq!(jobs.take_or_idle(2), Some(15));

        jobs.close();
        assert!(jobs.take_or_idle(2).is_none());
        assert!(jobs.wait(2).is_none(), "closed and nothing handed");
    }
}
