//! The global memory governor: a runtime-wide byte budget charged by
//! shuffle exchanges and keyed-operator state, with spill-to-disk relief.
//!
//! # Protocol (see DESIGN.md §9)
//!
//! 1. **Charge.** After the shuffle map side materializes its bucket sets,
//!    the exchange estimates its residency with the cheap
//!    [`HeapSize`](crate::HeapSize) model (`size_of::<(K, V)>()` per record
//!    plus owned heap bytes) and charges the governor. `group_by_key` /
//!    `reduce_by_key` local state charges the same way for the lifetime of
//!    the combine pass.
//! 2. **Spill.** While the governor is over budget, the exchange picks its
//!    *largest still-in-memory map output* and writes it to a run file under
//!    the spill directory ([`spill`](crate::spill) module), releasing that
//!    output's charge. Spilling repeats until the governor is back under
//!    budget or nothing spillable remains.
//! 3. **Merge.** Reduce tasks stream each output partition back together by
//!    walking map outputs *in map-partition index order*, appending bucket
//!    `p` from memory or from disk. Runs preserve record order exactly, so
//!    the merged partition is byte-identical to the all-in-memory exchange —
//!    the governor is invisible to results, lineage and analyzer EXPLAIN
//!    output.
//!
//! A failed spill write aborts the wave with a typed
//! [`SpillError`](crate::SpillError) panic payload; already-written sibling
//! runs are deleted by RAII on unwind, so no temp files leak.

use crate::spill::{charged_size, RunHandle, RunWriter, Spill, SpillError};
use crate::sync::lock_unpoisoned;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Runtime-wide memory accounting and spill policy. One per
/// [`Runtime`](crate::Runtime). A budget of `0` means *unlimited*: nothing
/// is estimated, charged, or spilled.
pub struct MemGovernor {
    budget: AtomicU64,
    used: AtomicU64,
    peak: AtomicU64,
    bytes_spilled: AtomicU64,
    spill_files: AtomicU64,
    spill_dir: Mutex<PathBuf>,
    seq: AtomicU64,
}

impl MemGovernor {
    /// A governor with a starting byte `budget` (`0` = unlimited) that
    /// writes its spill runs under `spill_dir`. A [`Runtime`](crate::Runtime)
    /// builds its own from its [`EngineConfig`](crate::EngineConfig).
    pub fn new(budget: u64, spill_dir: PathBuf) -> Self {
        MemGovernor {
            budget: AtomicU64::new(budget),
            used: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            bytes_spilled: AtomicU64::new(0),
            spill_files: AtomicU64::new(0),
            spill_dir: Mutex::new(spill_dir),
            seq: AtomicU64::new(0),
        }
    }

    /// The byte budget; `0` means unlimited.
    pub fn budget(&self) -> u64 {
        self.budget.load(Ordering::Relaxed)
    }

    /// Sets the byte budget (`0` disables the governor).
    pub fn set_budget(&self, bytes: u64) {
        self.budget.store(bytes, Ordering::Relaxed);
    }

    /// Whether a budget is in force.
    pub fn enabled(&self) -> bool {
        self.budget() > 0
    }

    /// Bytes currently charged (exchanges in flight and combine state).
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// High-water mark of [`used`](MemGovernor::used) over the governor's
    /// lifetime.
    pub fn peak_bytes(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Total bytes written to spill runs.
    pub fn bytes_spilled(&self) -> u64 {
        self.bytes_spilled.load(Ordering::Relaxed)
    }

    /// Number of spill run files written.
    pub fn spill_files(&self) -> u64 {
        self.spill_files.load(Ordering::Relaxed)
    }

    /// The directory spill runs are written under.
    pub fn spill_dir(&self) -> PathBuf {
        lock_unpoisoned(&self.spill_dir).clone()
    }

    /// Points the governor at a different spill directory.
    pub fn set_spill_dir(&self, dir: impl Into<PathBuf>) {
        *lock_unpoisoned(&self.spill_dir) = dir.into();
    }

    /// Charges `bytes` unconditionally, returning the RAII release handle.
    /// Used for exchange residency and combine-state accounting, where the
    /// memory already exists and the honest move is to record it (and spill
    /// our way back under budget), not to refuse it.
    pub fn charge(self: &Arc<Self>, bytes: u64) -> MemCharge {
        let used = self.used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(used, Ordering::Relaxed);
        MemCharge {
            gov: Arc::clone(self),
            bytes,
        }
    }

    /// Whether current charges exceed the budget (always `false` when
    /// unlimited). The serving layer pauses socket reads while this holds.
    pub fn over_budget(&self) -> bool {
        self.enabled() && self.used() > self.budget()
    }

    fn release(&self, bytes: u64) {
        // Saturating: a release can never underflow the gauge.
        self.used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |u| {
                Some(u.saturating_sub(bytes))
            })
            .ok();
    }

    fn note_spill(&self, file_bytes: u64) {
        self.bytes_spilled.fetch_add(file_bytes, Ordering::Relaxed);
        self.spill_files.fetch_add(1, Ordering::Relaxed);
    }

    /// A fresh, collision-free run path under the spill directory (which is
    /// created on demand).
    fn next_run_path(&self) -> Result<PathBuf, SpillError> {
        let dir = self.spill_dir();
        std::fs::create_dir_all(&dir).map_err(|e| SpillError::Io {
            op: "create spill dir",
            path: dir.clone(),
            error: e.to_string(),
        })?;
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let unique = self as *const MemGovernor as usize;
        Ok(dir.join(format!("run-{}-{unique:x}-{seq}.tgr", std::process::id())))
    }
}

/// RAII handle for bytes charged against a [`MemGovernor`]; dropping it
/// releases the charge.
pub struct MemCharge {
    gov: Arc<MemGovernor>,
    bytes: u64,
}

impl MemCharge {
    /// Bytes this charge currently holds.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Releases part of the charge early (e.g. after spilling a map output
    /// frees its memory).
    fn shrink(&mut self, by: u64) {
        let by = by.min(self.bytes);
        self.bytes -= by;
        self.gov.release(by);
    }
}

impl Drop for MemCharge {
    fn drop(&mut self) {
        self.gov.release(self.bytes);
    }
}

/// One map output inside a governed exchange: still in memory — each bucket
/// behind its own lock, for the one reduce task that takes it — or spilled
/// to a run file.
enum GovernedSource<K, V> {
    Mem(Vec<Mutex<Vec<(K, V)>>>),
    Spilled(RunHandle),
}

impl<K, V> GovernedSource<K, V> {
    fn mem(buckets: Vec<Vec<(K, V)>>) -> Self {
        GovernedSource::Mem(buckets.into_iter().map(Mutex::new).collect())
    }
}

/// A shuffle exchange under governor control: the map outputs (in map
/// partition order), the residency charge, and — in checked mode — the
/// per-bucket record counts for the merge audit. Shared by every reduce
/// task; dropping it releases the charge and deletes any run files.
pub(crate) struct GovernedBuckets<K, V> {
    sources: Vec<GovernedSource<K, V>>,
    /// `counts[src][bucket]`, recorded before any spill; empty unless the
    /// runtime was in checked mode at admission.
    counts: Vec<Vec<u64>>,
    _charge: Option<MemCharge>,
}

impl<K: Spill, V: Spill> GovernedBuckets<K, V> {
    /// Takes ownership of the map side's bucket sets, charges the governor,
    /// and spills largest-first until back under budget.
    ///
    /// # Panics
    /// Raises a typed [`SpillError`] panic payload if a spill write fails;
    /// already-written sibling runs are removed on unwind.
    pub fn admit(rt: &crate::Runtime, bucketed: Vec<Vec<Vec<(K, V)>>>) -> Arc<Self> {
        let gov = rt.governor();
        let counts = if rt.checked() {
            bucketed
                .iter()
                .map(|src| src.iter().map(|b| b.len() as u64).collect())
                .collect()
        } else {
            Vec::new()
        };
        if !gov.enabled() {
            // Unlimited: no estimation pass, no charge, no spills — the
            // governed exchange is exactly the ungoverned one.
            return Arc::new(GovernedBuckets {
                sources: bucketed.into_iter().map(GovernedSource::mem).collect(),
                counts,
                _charge: None,
            });
        }
        let estimates: Vec<u64> = bucketed.iter().map(|src| estimate_source(src)).collect();
        let mut charge = gov.charge(estimates.iter().sum());
        let mut sources: Vec<GovernedSource<K, V>> =
            bucketed.into_iter().map(GovernedSource::mem).collect();
        let mut remaining = estimates;
        while gov.over_budget() {
            // Largest still-in-memory map output first: fewest files for the
            // most relief.
            let Some(i) = (0..sources.len())
                .filter(|&i| remaining[i] > 0)
                .max_by_key(|&i| remaining[i])
            else {
                break; // everything spillable is on disk; run over budget
            };
            let GovernedSource::Mem(buckets) = &sources[i] else {
                unreachable!("remaining[i] > 0 implies an in-memory source");
            };
            match spill_source(&gov, buckets) {
                Ok(run) => {
                    gov.note_spill(run.file_bytes());
                    sources[i] = GovernedSource::Spilled(run);
                    charge.shrink(remaining[i]);
                    remaining[i] = 0;
                }
                Err(e) => {
                    // Drop sources (and with them every sealed sibling run)
                    // before unwinding: no leaked temp files.
                    drop(sources);
                    drop(charge);
                    std::panic::panic_any(e);
                }
            }
        }
        Arc::new(GovernedBuckets {
            sources,
            counts,
            _charge: Some(charge),
        })
    }

    /// Takes output partition `p`'s records, walking map outputs in index
    /// order — the order-preserving streaming merge. In-memory buckets are
    /// moved out, so each partition can be taken once; every reduce task
    /// takes its own.
    ///
    /// # Panics
    /// Raises a typed [`SpillError`] payload if a run read fails, and (in
    /// checked mode) panics if the merged record count disagrees with the
    /// counts recorded at admission.
    pub fn take_bucket(&self, p: usize) -> Vec<(K, V)> {
        // Sized once for what is in memory, in the reducing thread's own
        // arena: growing a buffer a map task allocated would contend for
        // that task's arena. (Run files size themselves as they decode.)
        let resident: usize = self
            .sources
            .iter()
            .map(|src| match src {
                GovernedSource::Mem(buckets) => lock_unpoisoned(&buckets[p]).len(),
                GovernedSource::Spilled(_) => 0,
            })
            .sum();
        let mut merged = Vec::with_capacity(resident);
        for (i, src) in self.sources.iter().enumerate() {
            match src {
                GovernedSource::Mem(buckets) => {
                    merged.append(&mut std::mem::take(&mut *lock_unpoisoned(&buckets[p])));
                }
                GovernedSource::Spilled(run) => {
                    if let Some(counts) = self.counts.get(i) {
                        // Checked mode: the run's own metadata must agree with
                        // the count recorded before the source was spilled.
                        assert!(
                            run.bucket_records(p) == counts[p],
                            "checked mode: run bucket {p} holds {} records, \
                             map side recorded {}",
                            run.bucket_records(p),
                            counts[p]
                        );
                    }
                    if let Err(e) = run.read_bucket(p, &mut merged) {
                        std::panic::panic_any(e);
                    }
                }
            }
        }
        if !self.counts.is_empty() {
            let expected: u64 = self.counts.iter().map(|src| src[p]).sum();
            assert!(
                merged.len() as u64 == expected,
                "checked mode: governed merge of partition {p} produced {} records, \
                 map side recorded {expected}",
                merged.len()
            );
        }
        merged
    }
}

/// Records the residency of a keyed operator's per-partition state (the
/// grouped/combined rows `group_by_key` and `reduce_by_key` hold while
/// their pass runs) against the governor's
/// peak accounting. The state cannot be spilled — it is live operator
/// output — so the charge is recorded and immediately released: it moves
/// `peak_bytes` (and pushes concurrent exchanges toward spilling) without
/// lingering. Free when no budget is in force.
pub(crate) fn note_state<T: crate::HeapSize>(gov: &Arc<MemGovernor>, rows: &[T]) {
    if gov.enabled() {
        let est: u64 = rows.iter().map(|r| charged_size(r) as u64).sum();
        drop(gov.charge(est));
    }
}

/// The charge model for one map output: inline record size plus owned heap
/// bytes, summed over buckets.
fn estimate_source<K: Spill, V: Spill>(buckets: &[Vec<(K, V)>]) -> u64 {
    buckets
        .iter()
        .flat_map(|b| b.iter())
        .map(|rec| charged_size(rec) as u64)
        .sum()
}

/// Writes one map output's buckets to a fresh run file.
fn spill_source<K: Spill, V: Spill>(
    gov: &MemGovernor,
    buckets: &[Mutex<Vec<(K, V)>>],
) -> Result<RunHandle, SpillError> {
    let mut w = RunWriter::create(gov.next_run_path()?)?;
    for bucket in buckets {
        w.write_bucket(&lock_unpoisoned(bucket))?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<K, V> GovernedBuckets<K, V> {
        /// How many map outputs were spilled.
        fn spilled_sources(&self) -> usize {
            self.sources
                .iter()
                .filter(|s| matches!(s, GovernedSource::Spilled(_)))
                .count()
        }
    }

    fn gov(budget: u64) -> Arc<MemGovernor> {
        Arc::new(MemGovernor::new(
            budget,
            crate::EngineConfig::default().spill_dir,
        ))
    }

    #[test]
    fn charge_release_and_peak() {
        let g = gov(1000);
        assert!(!g.over_budget());
        let a = g.charge(600);
        let b = g.charge(600);
        assert_eq!(g.used(), 1200);
        assert!(g.over_budget());
        drop(a);
        assert_eq!(g.used(), 600);
        assert!(!g.over_budget());
        drop(b);
        assert_eq!(g.used(), 0);
        assert_eq!(g.peak_bytes(), 1200, "peak is a high-water mark");
    }

    #[test]
    fn shrink_releases_partially() {
        let g = gov(1000);
        let mut c = g.charge(800);
        c.shrink(300);
        assert_eq!(g.used(), 500);
        assert_eq!(c.bytes(), 500);
        c.shrink(10_000); // clamped to what is held
        assert_eq!(g.used(), 0);
        drop(c);
        assert_eq!(g.used(), 0);
    }

    fn unique_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tgraph-gov-{tag}-{}", std::process::id()))
    }

    #[test]
    fn governed_exchange_spills_and_merges_identically() {
        let rt = crate::Runtime::with_partitions(2, 2);
        rt.governor().set_spill_dir(unique_dir("merge"));
        let bucketed: Vec<Vec<Vec<(u64, String)>>> = vec![
            vec![
                vec![(0, "a".into()), (2, "c".into())],
                vec![(1, "b".into())],
            ],
            vec![
                vec![(4, "e".into())],
                vec![(3, "d".into()), (5, "f".into())],
            ],
        ];
        // Unlimited: nothing spills.
        let ex = GovernedBuckets::admit(&rt, bucketed.clone());
        assert_eq!(ex.spilled_sources(), 0);
        let plain0 = ex.take_bucket(0);
        // One-byte budget: everything spillable spills.
        rt.set_mem_budget(1);
        let ex2 = GovernedBuckets::admit(&rt, bucketed);
        assert_eq!(ex2.spilled_sources(), 2);
        assert!(rt.governor().bytes_spilled() > 0);
        assert_eq!(rt.governor().spill_files(), 2);
        let spilled0 = ex2.take_bucket(0);
        assert_eq!(spilled0, plain0, "merge must be byte-identical");
    }

    #[test]
    fn exchange_drop_releases_charge_and_runs() {
        let rt = crate::Runtime::with_partitions(1, 1);
        rt.set_mem_budget(1);
        let gov = rt.governor();
        gov.set_spill_dir(unique_dir("drop"));
        let before_files = count_runs(&gov.spill_dir());
        let ex = GovernedBuckets::admit(&rt, vec![vec![vec![(1u64, 2u64), (3, 4)]]]);
        assert_eq!(ex.spilled_sources(), 1);
        assert!(count_runs(&gov.spill_dir()) > before_files);
        drop(ex);
        assert_eq!(gov.used(), 0, "charge released");
        assert_eq!(
            count_runs(&gov.spill_dir()),
            before_files,
            "run files deleted"
        );
    }

    fn count_runs(dir: &std::path::Path) -> usize {
        std::fs::read_dir(dir).map(|it| it.count()).unwrap_or(0)
    }

    #[test]
    fn failed_spill_panics_typed_and_cleans_up() {
        let rt = crate::Runtime::with_partitions(1, 1);
        rt.set_mem_budget(1);
        // Point the spill "directory" at a regular file: creation fails for
        // any uid, including root.
        let blocker =
            std::env::temp_dir().join(format!("tgraph-gov-blocker-{}", std::process::id()));
        std::fs::write(&blocker, b"x").unwrap();
        rt.governor().set_spill_dir(&blocker);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            GovernedBuckets::admit(&rt, vec![vec![vec![(1u64, 2u64)]]])
        }));
        let Err(payload) = result else {
            panic!("spill into a file path must fail");
        };
        let err = payload
            .downcast_ref::<SpillError>()
            .expect("panic payload must be a typed SpillError");
        assert!(matches!(err, SpillError::Io { .. }), "{err}");
        assert_eq!(rt.governor().used(), 0, "charge released on unwind");
        let _ = std::fs::remove_file(&blocker);
    }
}
