//! A process-wide pool of loaded graphs: each (dataset, representation,
//! time-range) combination is materialized from disk **once** and shared by
//! every consumer as a cheap [`Arc`] handle.
//!
//! This is the serving layer's answer to DeltaGraph-style "keep hot
//! materializations in memory": `tgraph-serve` keeps one [`GraphPool`] for
//! its data directory, and concurrent sessions borrow [`SharedGraph`]s
//! instead of re-reading columnar files per request. The underlying
//! [`AnyGraph`] datasets are themselves `Arc`-backed partition vectors, so a
//! [`SharedGraph`] clone copies two pointers, never columnar data.
//!
//! Loads are single-flight: if two threads miss on the same key
//! concurrently, one performs the disk load while the other waits on a
//! condvar and then reuses the freshly inserted handle — the pool never
//! does the same disk read twice, and never holds its lock across I/O.

use crate::format::{ScanStats, StorageError};
use crate::loader::{last_epoch, GraphLoader};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use tgraph_core::graph::TGraph;
use tgraph_core::time::Interval;
use tgraph_dataflow::Runtime;
use tgraph_dataflow::{lock_unpoisoned, wait_unpoisoned};
use tgraph_repr::{AnyGraph, ReprKind};

/// A cheaply cloneable handle to a loaded graph: the graph behind an `Arc`
/// plus the scan statistics of the load that produced it.
#[derive(Clone, Debug)]
pub struct SharedGraph {
    /// The loaded representation. Cloning the `Arc` (or the `AnyGraph`
    /// inside, whose datasets are `Arc`-backed) never copies columnar data.
    pub graph: Arc<AnyGraph>,
    /// Pushdown effectiveness of the disk scan that loaded it.
    pub scan: ScanStats,
    /// The dataset epoch this handle reflects (0 = base, +1 per ingest).
    pub epoch: u64,
}

impl GraphLoader {
    /// Loads a representation as a [`SharedGraph`] handle. Equivalent to
    /// [`GraphLoader::load`] but returns the graph `Arc`-wrapped for
    /// zero-copy sharing across sessions/threads, stamped with the dataset's
    /// current epoch.
    pub fn load_shared(
        &self,
        rt: &Runtime,
        kind: ReprKind,
        range: Option<Interval>,
    ) -> Result<SharedGraph, StorageError> {
        // One reading of the manifest names the segments the load reads and
        // the epoch on the handle. If an ingest lands afterwards the handle
        // carries the older stamp and the pool's floor check reloads; a
        // handle can never be stamped newer than its contents.
        let epochs = self.epochs()?;
        let (graph, scan) = self.load_at(rt, kind, range, &epochs)?;
        Ok(SharedGraph {
            graph: Arc::new(graph),
            scan,
            epoch: last_epoch(&epochs),
        })
    }
}

/// Cache key: dataset name × representation × optional date-range filter.
type PoolKey = (String, ReprKind, Option<Interval>);

#[derive(Default)]
struct Inner {
    ready: HashMap<PoolKey, SharedGraph>,
    loading: HashSet<PoolKey>,
    /// Minimum acceptable epoch per dataset, raised by [`GraphPool::advance`].
    /// A load that completes with an older stamp (it raced an ingest) is
    /// discarded and retried rather than inserted.
    epoch_floor: HashMap<String, u64>,
}

/// Counters describing pool effectiveness, returned by [`GraphPool::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served from an already-loaded graph.
    pub hits: u64,
    /// Requests that performed (or joined) a disk load.
    pub misses: u64,
    /// Disk loads actually executed (≤ `misses`: concurrent misses on one
    /// key share a single load).
    pub loads: u64,
    /// Resident graphs upgraded in place by [`GraphPool::advance`] — each
    /// one an in-memory [`AnyGraph::append_epoch`] instead of a reload from
    /// disk.
    pub epoch_upgrades: u64,
}

/// A load-once, share-forever cache of graphs under one dataset directory.
pub struct GraphPool {
    dir: PathBuf,
    inner: Mutex<Inner>,
    cv: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    loads: AtomicU64,
    epoch_upgrades: AtomicU64,
}

impl GraphPool {
    /// A pool over dataset directory `dir`. Graphs are identified by the
    /// dataset name passed to [`GraphPool::get`] (the `GraphLoader` naming
    /// convention: `<name>.temporal.tgc` and its epoch segments under
    /// `dir`).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        GraphPool {
            dir: dir.into(),
            inner: Mutex::new(Inner::default()),
            cv: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            epoch_upgrades: AtomicU64::new(0),
        }
    }

    /// The dataset directory this pool reads from.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// Returns the shared handle for (`name`, `kind`, `range`), loading it
    /// from disk at most once across all threads.
    pub fn get(
        &self,
        rt: &Runtime,
        name: &str,
        kind: ReprKind,
        range: Option<Interval>,
    ) -> Result<SharedGraph, StorageError> {
        let key: PoolKey = (name.to_string(), kind, range);
        {
            let mut inner = lock_unpoisoned(&self.inner);
            loop {
                if let Some(g) = inner.ready.get(&key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(g.clone());
                }
                if inner.loading.contains(&key) {
                    // Another thread is loading this key; wait for it.
                    inner = wait_unpoisoned(&self.cv, inner);
                    continue;
                }
                inner.loading.insert(key.clone());
                break;
            }
        }
        // We own the load for this key; do the I/O without the lock.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let loaded = loop {
            self.loads.fetch_add(1, Ordering::Relaxed);
            let loaded = GraphLoader::new(&self.dir, name).load_shared(rt, kind, range);
            if let Ok(g) = &loaded {
                let floor = lock_unpoisoned(&self.inner)
                    .epoch_floor
                    .get(name)
                    .copied()
                    .unwrap_or(0);
                if g.epoch < floor {
                    // An ingest advanced the dataset while we were reading;
                    // the handle is stamped below the floor, so its contents
                    // may predate the new segments. Reload.
                    continue;
                }
            }
            break loaded;
        };
        let mut inner = lock_unpoisoned(&self.inner);
        inner.loading.remove(&key);
        if let Ok(g) = &loaded {
            inner.ready.insert(key, g.clone());
        }
        // Wake waiters either way: on error they retry the load themselves.
        self.cv.notify_all();
        drop(inner);
        loaded
    }

    /// Advances every resident graph of dataset `name` to `epoch` by
    /// applying `delta` in memory — no file is read; VE and RG extend, OG
    /// and OGC are rebuilt from their own rows — and raises the dataset's
    /// epoch floor so concurrent loads can never insert a pre-ingest handle
    /// afterwards.
    ///
    /// Full-history residents (`range == None`) upgrade in place via
    /// [`AnyGraph::append_epoch`]; range-filtered residents are evicted (the
    /// delta may intersect their window) and reload lazily with pushdown.
    /// The upgrade holds the pool lock, so a concurrent [`GraphPool::get`]
    /// observes either the pre-ingest or post-ingest graph, never a mix.
    /// Returns the number of in-place upgrades.
    ///
    /// The caller serializes ingests (single writer) and has already
    /// committed the epoch's segments to disk, so a load racing this call
    /// reads at least as much data as the floor demands.
    pub fn advance(&self, rt: &Runtime, name: &str, epoch: u64, delta: &TGraph) -> usize {
        let mut inner = lock_unpoisoned(&self.inner);
        let floor = inner.epoch_floor.entry(name.to_string()).or_insert(0);
        if epoch > *floor {
            *floor = epoch;
        }
        let keys: Vec<PoolKey> = inner
            .ready
            .keys()
            .filter(|k| k.0 == name)
            .cloned()
            .collect();
        let mut upgraded = 0;
        for key in keys {
            let shared = inner.ready[&key].clone();
            if shared.epoch >= epoch {
                continue;
            }
            // In-place append is only sound one epoch at a time and for
            // full-history residents; everything else evicts and reloads.
            if key.2.is_some() || shared.epoch + 1 != epoch {
                inner.ready.remove(&key);
                continue;
            }
            let graph = shared.graph.append_epoch(rt, delta);
            inner.ready.insert(
                key,
                SharedGraph {
                    graph: Arc::new(graph),
                    scan: shared.scan,
                    epoch,
                },
            );
            upgraded += 1;
            self.epoch_upgrades.fetch_add(1, Ordering::Relaxed);
        }
        upgraded
    }

    /// Hit/miss/load counters since the pool was created.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
            epoch_upgrades: self.epoch_upgrades.load(Ordering::Relaxed),
        }
    }

    /// Names and kinds currently resident, for observability output.
    pub fn resident(&self) -> Vec<(String, ReprKind, Option<Interval>)> {
        let inner = lock_unpoisoned(&self.inner);
        let mut keys: Vec<PoolKey> = inner.ready.keys().cloned().collect();
        keys.sort_by(|a, b| (&a.0, format!("{}", a.1)).cmp(&(&b.0, format!("{}", b.1))));
        keys
    }
}

impl std::fmt::Debug for GraphPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphPool")
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::write_dataset;
    use tgraph_core::graph::figure1_graph_stable_ids;

    fn setup(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tgc-pool-tests");
        write_dataset(&dir, name, &figure1_graph_stable_ids()).unwrap();
        dir
    }

    #[test]
    fn second_get_is_a_hit_and_shares_the_graph() {
        let rt = Runtime::with_partitions(2, 2);
        let dir = setup("p1");
        let pool = GraphPool::new(&dir);
        let a = pool.get(&rt, "p1", ReprKind::Ve, None).unwrap();
        let b = pool.get(&rt, "p1", ReprKind::Ve, None).unwrap();
        assert!(Arc::ptr_eq(&a.graph, &b.graph), "same loaded instance");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.loads), (1, 1, 1));
    }

    #[test]
    fn distinct_kinds_and_ranges_load_separately() {
        let rt = Runtime::with_partitions(2, 2);
        let dir = setup("p2");
        let pool = GraphPool::new(&dir);
        let _ = pool.get(&rt, "p2", ReprKind::Ve, None).unwrap();
        let _ = pool.get(&rt, "p2", ReprKind::Rg, None).unwrap();
        let _ = pool
            .get(&rt, "p2", ReprKind::Ve, Some(Interval::new(1, 3)))
            .unwrap();
        assert_eq!(pool.stats().loads, 3);
        assert_eq!(pool.resident().len(), 3);
    }

    #[test]
    fn concurrent_misses_share_one_load() {
        let rt = Arc::new(Runtime::with_partitions(2, 2));
        let dir = setup("p3");
        let pool = Arc::new(GraphPool::new(&dir));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let (pool, rt) = (Arc::clone(&pool), Arc::clone(&rt));
            handles.push(std::thread::spawn(move || {
                pool.get(&rt, "p3", ReprKind::Og, None).unwrap().graph
            }));
        }
        let graphs: Vec<Arc<AnyGraph>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(graphs.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
        assert_eq!(pool.stats().loads, 1, "single-flight load");
        assert_eq!(pool.stats().hits + pool.stats().misses, 8);
    }

    #[test]
    fn advance_upgrades_residents_in_place() {
        use tgraph_core::graph::{VertexId, VertexRecord};
        use tgraph_core::props::Props;
        use tgraph_core::TGraph;
        let rt = Runtime::with_partitions(2, 2);
        let dir = std::env::temp_dir().join("tgc-pool-advance");
        let _ = std::fs::remove_dir_all(&dir);
        write_dataset(&dir, "adv", &figure1_graph_stable_ids()).unwrap();
        let pool = GraphPool::new(&dir);
        let before = pool.get(&rt, "adv", ReprKind::Ve, None).unwrap();
        assert_eq!(before.epoch, 0);
        let ranged = pool
            .get(&rt, "adv", ReprKind::Ve, Some(Interval::new(1, 3)))
            .unwrap();
        assert_eq!(ranged.epoch, 0);

        let delta = TGraph::from_records(
            vec![VertexRecord {
                vid: VertexId(40),
                interval: Interval::new(9, 12),
                props: Props::typed("person"),
            }],
            Vec::new(),
        );
        crate::epochs::append_epoch(&dir, "adv", &delta).unwrap();
        let upgraded = pool.advance(&rt, "adv", 1, &delta);
        assert_eq!(upgraded, 1, "full-history resident upgrades in place");
        assert_eq!(pool.stats().epoch_upgrades, 1);

        // The upgraded handle serves without a reload and sees the delta.
        let after = pool.get(&rt, "adv", ReprKind::Ve, None).unwrap();
        assert_eq!(after.epoch, 1);
        assert_eq!(pool.stats().loads, 2, "no disk load for the upgrade");
        let g = after.graph.to_tgraph(&rt);
        assert!(g.vertices.iter().any(|v| v.vid == VertexId(40)));

        // The range-filtered resident was evicted; its next access reloads
        // from disk (base + segment) and is stamped with the new epoch.
        let ranged = pool
            .get(&rt, "adv", ReprKind::Ve, Some(Interval::new(1, 3)))
            .unwrap();
        assert_eq!(ranged.epoch, 1);
        assert_eq!(pool.stats().loads, 3);
    }

    #[test]
    fn load_errors_propagate_and_are_not_cached() {
        let rt = Runtime::with_partitions(2, 2);
        let pool = GraphPool::new(std::env::temp_dir().join("tgc-pool-missing"));
        assert!(pool.get(&rt, "nope", ReprKind::Ve, None).is_err());
        assert!(pool.get(&rt, "nope", ReprKind::Ve, None).is_err());
        assert_eq!(pool.stats().loads, 2, "errors are retried, not cached");
        assert!(pool.resident().is_empty());
    }
}
