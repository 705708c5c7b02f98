//! The dataflow runtime: worker pool, partitioning defaults, and execution
//! statistics.

use crate::cancel;
use crate::config::EngineConfig;
use crate::governor::MemGovernor;
use crate::pool::ThreadPool;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Snapshot of execution statistics — the shared-memory analogue of Spark's
/// shuffle read/write metrics plus executor accounting.
///
/// `waves` counts task batches launched on the pool: a fully fused narrow
/// chain costs exactly one wave regardless of how many operators it chains,
/// so `waves` is the observable proof that operator fusion (or shuffle
/// elision) happened. `shuffled_bytes` approximates moved volume as
/// `records × size_of::<record>()`; heap payloads behind pointers are not
/// followed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Tasks executed on the pool.
    pub tasks: u64,
    /// Task waves (batches) launched — one per materialization or shuffle
    /// stage.
    pub waves: u64,
    /// Number of shuffle stages executed.
    pub shuffles: u64,
    /// Shuffles skipped because the input already carried the required
    /// hash partitioning.
    pub shuffles_elided: u64,
    /// Records that crossed a partition boundary in shuffles.
    pub shuffled_records: u64,
    /// Approximate bytes moved in shuffles (records × record size).
    pub shuffled_bytes: u64,
    /// Task waves refused at dispatch because the caller's
    /// [`CancelToken`](crate::CancelToken) had tripped — no task launched.
    pub waves_cancelled: u64,
    /// Tasks that observed a tripped token at start and exited without
    /// running their partition.
    pub tasks_cancelled: u64,
    /// Sum over waves of that wave's longest task, in µs. A wave's wall
    /// time can never be below its longest task, so `max_task_us / wave_us`
    /// close to 1 means waves were straggler-bound (partition skew).
    pub max_task_us: u64,
    /// Sum of wave wall-clock times, in µs.
    pub wave_us: u64,
    /// Total bytes written to spill run files by the memory governor. Zero
    /// unless a budget is in force (`TGRAPH_MEM_BYTES` /
    /// [`Runtime::set_mem_budget`]) and an exchange exceeded it.
    pub bytes_spilled: u64,
    /// Number of spill run files written by the memory governor.
    pub spill_files: u64,
    /// High-water mark of bytes charged against the memory governor
    /// (exchange residency and combine state). Unlike
    /// the other counters this is a *gauge maximum*, not a monotonic sum:
    /// [`since`](RuntimeStats::since) carries the current value through
    /// instead of subtracting.
    pub peak_bytes: u64,
    /// Encoded bytes of the buckets serialized shuffles round-tripped
    /// through the [`Spill`](crate::Spill) codec. Zero unless
    /// [`Runtime::set_serialized_shuffles`] is on.
    pub bytes_exchanged: u64,
    /// Non-empty buckets serialized shuffles round-tripped.
    pub buckets_exchanged: u64,
}

impl RuntimeStats {
    /// Statistics accumulated since an earlier snapshot
    /// (per-experiment deltas: `rt.stats().since(&before)`).
    pub fn since(&self, earlier: &RuntimeStats) -> RuntimeStats {
        RuntimeStats {
            tasks: self.tasks - earlier.tasks,
            waves: self.waves - earlier.waves,
            shuffles: self.shuffles - earlier.shuffles,
            shuffles_elided: self.shuffles_elided - earlier.shuffles_elided,
            shuffled_records: self.shuffled_records - earlier.shuffled_records,
            shuffled_bytes: self.shuffled_bytes - earlier.shuffled_bytes,
            waves_cancelled: self.waves_cancelled - earlier.waves_cancelled,
            tasks_cancelled: self.tasks_cancelled - earlier.tasks_cancelled,
            max_task_us: self.max_task_us - earlier.max_task_us,
            wave_us: self.wave_us - earlier.wave_us,
            bytes_spilled: self.bytes_spilled - earlier.bytes_spilled,
            spill_files: self.spill_files - earlier.spill_files,
            // A high-water mark has no meaningful delta; report the level.
            peak_bytes: self.peak_bytes,
            bytes_exchanged: self.bytes_exchanged - earlier.bytes_exchanged,
            buckets_exchanged: self.buckets_exchanged - earlier.buckets_exchanged,
        }
    }
}

/// The execution context every dataflow operator runs against.
///
/// Owns the worker pool and the default partition count (Spark's
/// `spark.default.parallelism`). Cheap to share: wrap in `Arc` or pass by
/// reference.
pub struct Runtime {
    pool: ThreadPool,
    partitions: usize,
    waves: AtomicU64,
    shuffles: AtomicU64,
    shuffles_elided: AtomicU64,
    shuffled_records: AtomicU64,
    shuffled_bytes: AtomicU64,
    waves_cancelled: AtomicU64,
    tasks_cancelled: AtomicU64,
    max_task_us: AtomicU64,
    wave_us: AtomicU64,
    config: EngineConfig,
    checked: AtomicBool,
    governor: Arc<MemGovernor>,
    serialized_shuffles: AtomicBool,
    bytes_exchanged: AtomicU64,
    buckets_exchanged: AtomicU64,
}

impl Runtime {
    /// Creates a runtime with `workers` threads and `2 × workers` default
    /// partitions.
    pub fn new(workers: usize) -> Self {
        Self::with_partitions(workers, workers.max(1) * 2)
    }

    /// Creates a runtime with an explicit default partition count.
    pub fn with_partitions(workers: usize, partitions: usize) -> Self {
        let config = EngineConfig::from_env();
        Runtime {
            pool: ThreadPool::new(workers),
            partitions: partitions.max(1),
            waves: AtomicU64::new(0),
            shuffles: AtomicU64::new(0),
            shuffles_elided: AtomicU64::new(0),
            shuffled_records: AtomicU64::new(0),
            shuffled_bytes: AtomicU64::new(0),
            waves_cancelled: AtomicU64::new(0),
            tasks_cancelled: AtomicU64::new(0),
            max_task_us: AtomicU64::new(0),
            wave_us: AtomicU64::new(0),
            checked: AtomicBool::new(config.checked),
            governor: Arc::new(MemGovernor::new(config.mem_bytes, config.spill_dir.clone())),
            serialized_shuffles: AtomicBool::new(false),
            bytes_exchanged: AtomicU64::new(0),
            buckets_exchanged: AtomicU64::new(0),
            config,
        }
    }

    /// A single-threaded runtime with one partition (useful in tests and as
    /// the sequential baseline in benchmarks).
    pub fn sequential() -> Self {
        Self::with_partitions(1, 1)
    }

    /// The environment settings this runtime was built from: parsed once,
    /// here, and read by every layer above instead of the environment.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Default number of partitions for new datasets and shuffles.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Number of pool workers.
    pub fn workers(&self) -> usize {
        self.pool.size()
    }

    /// Runs `n` indexed tasks in parallel, returning results in index order.
    /// Each non-empty batch counts as one wave.
    ///
    /// If the calling thread has a [`CancelToken`](crate::CancelToken)
    /// installed (via [`CancelToken::scope`](crate::CancelToken::scope)) and
    /// it has tripped, the wave is refused before any task launches; tasks
    /// of an already-launched wave re-check the token before running, so a
    /// cancelled query's queued partitions drain without doing their work.
    /// Cancellation unwinds with [`Cancelled`](crate::Cancelled), which the
    /// owning scope converts to `Err(Cancelled)`.
    pub fn run_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(usize) -> R + Send + Sync + 'static,
    {
        let token = cancel::current();
        if let Some(t) = &token {
            if t.is_cancelled() {
                self.waves_cancelled.fetch_add(1, Ordering::Relaxed);
                cancel::abort();
            }
        }
        if n > 0 {
            self.waves.fetch_add(1, Ordering::Relaxed);
        }
        let f = Arc::new(f);
        let cancelled_tasks = Arc::new(AtomicU64::new(0));
        let max_task_us = Arc::new(AtomicU64::new(0));
        let tasks: Vec<Box<dyn FnOnce() -> R + Send>> = (0..n)
            .map(|i| {
                let f = Arc::clone(&f);
                let token = token.clone();
                let cancelled_tasks = Arc::clone(&cancelled_tasks);
                let max_task_us = Arc::clone(&max_task_us);
                Box::new(move || {
                    if let Some(t) = &token {
                        if t.is_cancelled() {
                            cancelled_tasks.fetch_add(1, Ordering::Relaxed);
                            cancel::abort();
                        }
                    }
                    let start = Instant::now();
                    let r = f(i);
                    max_task_us.fetch_max(elapsed_us(start), Ordering::Relaxed);
                    r
                }) as _
            })
            .collect();
        let wave_start = Instant::now();
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.pool.run_batch(tasks)));
        if n > 0 {
            self.wave_us
                .fetch_add(elapsed_us(wave_start), Ordering::Relaxed);
            self.max_task_us
                .fetch_add(max_task_us.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.tasks_cancelled
            .fetch_add(cancelled_tasks.load(Ordering::Relaxed), Ordering::Relaxed);
        match result {
            Ok(r) => r,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Records shuffle volume (called by keyed operators).
    pub(crate) fn note_shuffle(&self, records: u64, bytes: u64) {
        self.shuffles.fetch_add(1, Ordering::Relaxed);
        self.shuffled_records.fetch_add(records, Ordering::Relaxed);
        self.shuffled_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records a shuffle skipped thanks to an existing hash partitioning.
    pub(crate) fn note_shuffle_elided(&self) {
        self.shuffles_elided.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether checked execution mode is on: elision points verify claimed
    /// partitionings record-by-record, and representation switches validate
    /// their TGraph against Definition 2.1. Enabled at construction when the
    /// environment variable `TGRAPH_CHECKED` is `1` or `true`, or explicitly
    /// via [`Runtime::set_checked`].
    pub fn checked(&self) -> bool {
        self.checked.load(Ordering::Relaxed)
    }

    /// Turns checked execution mode on or off.
    pub fn set_checked(&self, on: bool) {
        self.checked.store(on, Ordering::Relaxed);
    }

    /// The runtime's [memory governor](MemGovernor): the shared byte-budget
    /// accountant that shuffle exchanges charge and the serving layer's
    /// backpressure reads.
    pub fn governor(&self) -> Arc<MemGovernor> {
        Arc::clone(&self.governor)
    }

    /// The governor's byte budget (`0` = unlimited). Initialized from
    /// `TGRAPH_MEM_BYTES` at construction.
    pub fn mem_budget(&self) -> u64 {
        self.governor.budget()
    }

    /// Sets the governor's byte budget; `0` disables budgeting (and with it
    /// estimation and spilling). Results are byte-identical either way —
    /// only memory residency and the spill counters change.
    pub fn set_mem_budget(&self, bytes: u64) {
        self.governor.set_budget(bytes);
    }

    /// Whether shuffles serialize their buckets: off (the default), a
    /// shuffle moves its typed bucket vectors from map side to reduce side;
    /// on, it also encodes every non-empty bucket with the
    /// [`Spill`](crate::Spill) codec and decodes it back in place, paying
    /// what a wire would cost.
    pub(crate) fn serialized_shuffles(&self) -> bool {
        self.serialized_shuffles.load(Ordering::Relaxed)
    }

    /// Turns serialized shuffles on or off. Results are byte-identical
    /// either way; only `bytes_exchanged` / `buckets_exchanged` move.
    pub fn set_serialized_shuffles(&self, on: bool) {
        self.serialized_shuffles.store(on, Ordering::Relaxed);
    }

    /// Records one bucket a serialized shuffle round-tripped.
    pub(crate) fn note_exchanged(&self, bytes: u64) {
        self.buckets_exchanged.fetch_add(1, Ordering::Relaxed);
        self.bytes_exchanged.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Current execution statistics.
    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats {
            tasks: self.pool.tasks_run(),
            waves: self.waves.load(Ordering::Relaxed),
            shuffles: self.shuffles.load(Ordering::Relaxed),
            shuffles_elided: self.shuffles_elided.load(Ordering::Relaxed),
            shuffled_records: self.shuffled_records.load(Ordering::Relaxed),
            shuffled_bytes: self.shuffled_bytes.load(Ordering::Relaxed),
            waves_cancelled: self.waves_cancelled.load(Ordering::Relaxed),
            tasks_cancelled: self.tasks_cancelled.load(Ordering::Relaxed),
            max_task_us: self.max_task_us.load(Ordering::Relaxed),
            wave_us: self.wave_us.load(Ordering::Relaxed),
            bytes_spilled: self.governor.bytes_spilled(),
            spill_files: self.governor.spill_files(),
            peak_bytes: self.governor.peak_bytes(),
            bytes_exchanged: self.bytes_exchanged.load(Ordering::Relaxed),
            buckets_exchanged: self.buckets_exchanged.load(Ordering::Relaxed),
        }
    }
}

/// Microseconds elapsed since `start`, saturating at `u64::MAX`.
fn elapsed_us(start: Instant) -> u64 {
    start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.workers())
            .field("partitions", &self.partitions)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexed_results_in_order() {
        let rt = Runtime::new(4);
        let out = rt.run_indexed(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_runtime() {
        let rt = Runtime::sequential();
        assert_eq!(rt.workers(), 1);
        assert_eq!(rt.partitions(), 1);
        assert_eq!(rt.run_indexed(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn stats_track_shuffles() {
        let rt = Runtime::new(2);
        assert_eq!(rt.stats().shuffles, 0);
        rt.note_shuffle(10, 160);
        rt.note_shuffle(5, 80);
        rt.note_shuffle_elided();
        let s = rt.stats();
        assert_eq!(s.shuffles, 2);
        assert_eq!(s.shuffled_records, 15);
        assert_eq!(s.shuffled_bytes, 240);
        assert_eq!(s.shuffles_elided, 1);
    }

    #[test]
    fn waves_count_batches() {
        let rt = Runtime::new(2);
        assert_eq!(rt.stats().waves, 0);
        rt.run_indexed(4, |i| i);
        rt.run_indexed(1, |i| i);
        let empty: Vec<usize> = rt.run_indexed(0, |i| i);
        assert!(empty.is_empty());
        assert_eq!(rt.stats().waves, 2, "empty batches are not waves");
    }

    #[test]
    fn stats_since_deltas() {
        let rt = Runtime::new(2);
        rt.run_indexed(4, |i| i);
        let before = rt.stats();
        rt.run_indexed(4, |i| i);
        rt.note_shuffle(7, 70);
        let d = rt.stats().since(&before);
        assert_eq!(d.waves, 1);
        assert_eq!(d.shuffles, 1);
        assert_eq!(d.shuffled_records, 7);
    }

    #[test]
    fn checked_mode_toggles() {
        let rt = Runtime::new(1);
        let initial = rt.checked();
        rt.set_checked(true);
        assert!(rt.checked());
        rt.set_checked(false);
        assert!(!rt.checked());
        rt.set_checked(initial);
    }

    #[test]
    fn partitions_floor_is_one() {
        let rt = Runtime::with_partitions(2, 0);
        assert_eq!(rt.partitions(), 1);
    }

    #[test]
    fn tripped_token_refuses_the_wave_before_launch() {
        use crate::cancel::CancelToken;
        let rt = Runtime::new(2);
        let token = CancelToken::new();
        token.cancel();
        let before = rt.stats();
        let result = token.scope(|| rt.run_indexed(8, |i| i));
        assert!(result.is_err());
        let d = rt.stats().since(&before);
        assert_eq!(d.waves, 0, "no wave may launch after cancellation");
        assert_eq!(d.tasks, 0, "no task may run after cancellation");
        assert_eq!(d.waves_cancelled, 1);
    }

    #[test]
    fn expired_deadline_counts_as_cancelled() {
        use crate::cancel::CancelToken;
        let rt = Runtime::new(2);
        let token = CancelToken::with_deadline(
            std::time::Instant::now() - std::time::Duration::from_millis(1),
        );
        let result = token.scope(|| rt.run_indexed(4, |i| i));
        assert!(result.is_err());
        assert_eq!(rt.stats().waves_cancelled, 1);
    }

    #[test]
    fn mid_wave_cancellation_drains_queued_tasks() {
        use crate::cancel::CancelToken;
        // One worker so tasks run strictly in sequence: the first task trips
        // the token, every queued task after it must observe it and exit
        // without running its body.
        let rt = Runtime::new(1);
        let token = CancelToken::new();
        let body_runs = Arc::new(AtomicU64::new(0));
        let result = {
            let t = token.clone();
            let body_runs = Arc::clone(&body_runs);
            token.scope(move || {
                rt.run_indexed(16, move |i| {
                    body_runs.fetch_add(1, Ordering::Relaxed);
                    if i == 0 {
                        t.cancel();
                    }
                    i
                })
            })
        };
        assert_eq!(result, Err(crate::cancel::Cancelled));
        assert!(
            body_runs.load(Ordering::Relaxed) < 16,
            "queued tasks must drain without running their bodies"
        );
    }

    #[test]
    fn waves_record_timing_skew() {
        let rt = Runtime::new(2);
        rt.run_indexed(4, |i| {
            std::thread::sleep(std::time::Duration::from_millis(1 + i as u64));
            i
        });
        let s = rt.stats();
        assert!(s.max_task_us > 0, "longest task duration must be recorded");
        assert!(
            s.wave_us >= s.max_task_us,
            "wave wall time bounds its longest task"
        );
    }

    #[test]
    fn uncancelled_scope_runs_normally() {
        use crate::cancel::CancelToken;
        let rt = Runtime::new(2);
        let token = CancelToken::new();
        let out = token.scope(|| rt.run_indexed(4, |i| i * 3));
        assert_eq!(out, Ok(vec![0, 3, 6, 9]));
        assert_eq!(rt.stats().waves_cancelled, 0);
        assert_eq!(rt.stats().tasks_cancelled, 0);
    }
}
