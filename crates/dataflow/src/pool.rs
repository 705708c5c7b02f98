//! A persistent worker thread pool over one shared job queue.
//!
//! The pool plays the role of Spark's executor set: every dataflow operator
//! submits one task per partition and waits for all of them to finish. Tasks
//! are `'static` closures; datasets share partition payloads via `Arc`, so
//! capturing them is a reference-count bump, not a copy.
//!
//! Batch execution is **fail-fast but fully drained**: when a task panics,
//! the remaining tasks of the same wave are skipped (their bodies never
//! run), but the wave does not unwind to the caller until every submitted
//! task has reported back — a failed wave can never leave stragglers racing
//! a subsequent wave's work on the pool.

use crate::sync::{lock_unpoisoned, wait_unpoisoned};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// An unbounded FIFO for any number of producers and consumers: a deque
/// under a mutex, one `notify_one` per push. Whichever idle worker the
/// kernel runs first takes the next job. (A `std::sync::mpsc::Receiver`
/// behind a mutex does not have that property: the idle worker parked in
/// `recv` holds the lock, so when it is woken but not yet scheduled nobody
/// else can take the job either; EXPERIMENTS.md, PR 18, has the numbers.)
struct Queue<T> {
    items: Mutex<VecDeque<T>>,
    ready: Condvar,
}

impl<T> Queue<T> {
    fn new() -> Self {
        Queue {
            items: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }
    }

    fn push(&self, item: T) {
        lock_unpoisoned(&self.items).push_back(item);
        self.ready.notify_one();
    }

    /// Takes the oldest item, blocking while there is none.
    fn pop(&self) -> T {
        let mut items = lock_unpoisoned(&self.items);
        loop {
            if let Some(item) = items.pop_front() {
                return item;
            }
            items = wait_unpoisoned(&self.ready, items);
        }
    }
}

/// What one task of a batch reported back.
enum TaskReport<R> {
    /// The task ran to completion.
    Done(R),
    /// The task was skipped because an earlier sibling panicked.
    Skipped,
    /// The task panicked; the payload is re-thrown after the wave drains.
    Panicked(Box<dyn std::any::Any + Send + 'static>),
}

/// A fixed-size pool of worker threads executing submitted jobs.
pub struct ThreadPool {
    /// `None` tells the worker that takes it to exit (`Drop` pushes one per
    /// worker, behind every job already queued).
    jobs: Arc<Queue<Option<Job>>>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
    tasks_run: Arc<AtomicU64>,
}

impl ThreadPool {
    /// Spawns a pool with `size` workers (at least one).
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let jobs = Arc::new(Queue::<Option<Job>>::new());
        let tasks_run = Arc::new(AtomicU64::new(0));
        #[expect(
            clippy::expect_used,
            reason = "thread spawn failure at pool construction is fatal"
        )]
        let workers = (0..size)
            .map(|i| {
                let jobs = Arc::clone(&jobs);
                std::thread::Builder::new()
                    .name(format!("tgraph-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = jobs.pop() {
                            job();
                        }
                    })
                    .expect("failed to spawn worker thread")
            })
            .collect();
        ThreadPool {
            jobs,
            workers,
            size,
            tasks_run,
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Total number of batch tasks executed since creation. Counts every
    /// [`run_batch`](ThreadPool::run_batch) task — including single-task
    /// batches run inline on the caller thread — but not raw
    /// [`execute`](ThreadPool::execute) jobs (those are plumbing, not logical
    /// tasks).
    pub fn tasks_run(&self) -> u64 {
        self.tasks_run.load(Ordering::Relaxed)
    }

    /// Submits one fire-and-forget job.
    pub fn execute(&self, job: Job) {
        self.jobs.push(Some(job));
    }

    /// Runs a batch of result-producing tasks, blocking until all complete,
    /// and returns results in task order.
    ///
    /// Panics in a task are propagated to the caller (fail-fast, like a
    /// Spark job aborting on a task failure) — but only after the whole wave
    /// has drained: sibling tasks still queued when the panic happens skip
    /// their bodies and report back, so no task of a failed wave is left
    /// running detached when the caller resumes.
    pub fn run_batch<R: Send + 'static>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> R + Send + 'static>>,
    ) -> Vec<R> {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        // Run small batches inline: dispatch overhead dominates otherwise.
        // Inline tasks are still tasks — count them (satellite fix: the
        // inline fast path used to bypass the counter, undercounting
        // `RuntimeStats.tasks` on single-partition plans).
        if n == 1 {
            #[expect(clippy::unwrap_used, reason = "n == 1 checked on the line above")]
            let task = tasks.into_iter().next().unwrap();
            self.tasks_run.fetch_add(1, Ordering::Relaxed);
            return vec![task()];
        }
        let abort = Arc::new(AtomicBool::new(false));
        let reports = Arc::new(Queue::<(usize, TaskReport<R>)>::new());
        for (idx, task) in tasks.into_iter().enumerate() {
            let reports = Arc::clone(&reports);
            let abort = Arc::clone(&abort);
            let counter = Arc::clone(&self.tasks_run);
            self.execute(Box::new(move || {
                if abort.load(Ordering::Acquire) {
                    // A sibling already panicked: skip the body, but still
                    // report so the caller's drain loop completes.
                    reports.push((idx, TaskReport::Skipped));
                    return;
                }
                // Count before running: the job's completion signal (its
                // report) must not be observable before the counter
                // reflects the task.
                counter.fetch_add(1, Ordering::Relaxed);
                let report = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)) {
                    Ok(r) => TaskReport::Done(r),
                    Err(payload) => {
                        abort.store(true, Ordering::Release);
                        TaskReport::Panicked(payload)
                    }
                };
                reports.push((idx, report));
            }));
        }
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut first_panic: Option<Box<dyn std::any::Any + Send + 'static>> = None;
        for _ in 0..n {
            // Each task reports exactly once, panicking or not.
            let (idx, report) = reports.pop();
            match report {
                TaskReport::Done(r) => slots[idx] = Some(r),
                TaskReport::Skipped => {}
                TaskReport::Panicked(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        // Every task has reported: the wave is fully drained, so unwinding
        // now cannot race tasks of this wave against later waves.
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        #[expect(
            clippy::expect_used,
            reason = "every slot filled by the recv loop above"
        )]
        let results = slots
            .into_iter()
            .map(|s| s.expect("missing task result"))
            .collect();
        results
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Behind every queued job: the workers drain, then exit.
        for _ in 0..self.workers.len() {
            self.jobs.push(None);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_batch_in_order() {
        let pool = ThreadPool::new(4);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> =
            (0..64usize).map(|i| Box::new(move || i * 2) as _).collect();
        let results = pool.run_batch(tasks);
        assert_eq!(results, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn executes_fire_and_forget() {
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let c = Arc::clone(&counter);
            pool.execute(Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        drop(pool); // joins workers
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn empty_batch() {
        let pool = ThreadPool::new(2);
        let results: Vec<u32> = pool.run_batch(vec![]);
        assert!(results.is_empty());
    }

    #[test]
    fn single_inline_task_is_counted() {
        // Satellite regression test: the inline fast path must count its
        // task like any other, or `RuntimeStats.tasks` undercounts relative
        // to `waves` on single-partition plans.
        let pool = ThreadPool::new(2);
        let before = pool.tasks_run();
        let results = pool.run_batch(vec![Box::new(|| 41 + 1) as Box<dyn FnOnce() -> i32 + Send>]);
        assert_eq!(results, vec![42]);
        assert_eq!(pool.tasks_run(), before + 1, "inline task must be counted");
    }

    #[test]
    fn execute_jobs_are_not_counted_as_tasks() {
        let pool = ThreadPool::new(2);
        let done = Arc::new(AtomicUsize::new(0));
        let before = pool.tasks_run();
        for _ in 0..4 {
            let d = Arc::clone(&done);
            pool.execute(Box::new(move || {
                d.fetch_add(1, Ordering::SeqCst);
            }));
        }
        while done.load(Ordering::SeqCst) < 4 {
            std::thread::yield_now();
        }
        assert_eq!(pool.tasks_run(), before, "raw jobs are plumbing, not tasks");
    }

    #[test]
    fn task_panic_propagates() {
        let pool = ThreadPool::new(2);
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("task exploded")),
            Box::new(|| 3),
        ];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_batch(tasks);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn failed_wave_drains_before_unwinding() {
        // Satellite regression test: when a task panics, run_batch must not
        // resume_unwind while sibling tasks are still queued/running — they
        // must all report (skipped or done) first, so a failed wave cannot
        // race a subsequent wave.
        let pool = ThreadPool::new(1); // strictly sequential queue
        let ran = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..16u32)
            .map(|i| {
                let ran = Arc::clone(&ran);
                Box::new(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if i == 0 {
                        panic!("first task fails");
                    }
                    i
                }) as _
            })
            .collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_batch(tasks);
        }));
        assert!(result.is_err());
        // The panic aborted the wave: later siblings were skipped, and — the
        // actual drain guarantee — none of them can still be pending now.
        let after_unwind = ran.load(Ordering::SeqCst);
        assert!(
            after_unwind < 16,
            "siblings queued behind the panic must be skipped"
        );
        // A fresh wave on the same pool sees no stragglers from the failed
        // one: the skipped tasks already drained off the queue.
        let ran2 = Arc::clone(&ran);
        let ok: Vec<u32> = pool
            .run_batch(vec![Box::new(move || ran2.load(Ordering::SeqCst) as u32)
                as Box<dyn FnOnce() -> u32 + Send>]);
        assert_eq!(ok[0] as usize, after_unwind, "no straggler ran in between");
    }

    #[test]
    fn counts_tasks() {
        let pool = ThreadPool::new(3);
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..5).map(|_| Box::new(|| ()) as _).collect();
        pool.run_batch(tasks);
        assert_eq!(pool.tasks_run(), 5);
    }

    #[test]
    fn pool_size_floor_is_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.size(), 1);
    }
}
