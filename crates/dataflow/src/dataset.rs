//! `Dataset<T>` — an immutable, partitioned collection with Spark-RDD-style
//! second-order operators and **lazy, plan-based execution**.
//!
//! Narrow transformations (`map`, `filter`, `flat_map`, `map_partitions`)
//! do not run anything: they extend a deferred per-partition closure chain.
//! The chain is **fused into a single pass** over each partition when an
//! action (`collect`, `count`, `fold`, …) or a shuffle boundary (any keyed
//! operator) forces it — one task wave total, no intermediate partition
//! allocations. Sources lend their elements to the fused chain; `map` and
//! `flat_map` give theirs away (see [`Sink`]), so a consumer that keeps an
//! element clones it only if it still belongs to a source.
//!
//! Every dataset carries a [`Partitioning`] tag. Hash shuffles stamp their
//! output `HashByKey`; tag-preserving operators (`filter`,
//! [`map_values`](crate::keyed::KeyedDataset::map_values)) keep it, so a
//! later keyed operator on the same key can skip its shuffle entirely (see
//! [`shuffle`](crate::keyed::shuffle)).
//!
//! Alongside the fused closure plan, every dataset records a reified
//! [`PlanNode`] lineage DAG (see [`crate::lineage`]). The closure chain is
//! what executes; the lineage is what the static verifier in
//! `tgraph-analyze` walks to prove elisions sound and render EXPLAIN. A
//! lineage node knows its row count only once its records exist (sources,
//! materializations, shuffles, joins); a deferred narrow node has none.

use crate::lineage::{OpKind, PlanNode};
use crate::runtime::Runtime;
use std::borrow::Cow;
use std::sync::Arc;

/// Where a fused chain delivers its elements. The ownership rule of fused
/// chains: a materialized source lends (`Cow::Borrowed` — its partitions are
/// shared and outlive the pass), every operator that builds a fresh value
/// gives it away (`Cow::Owned`), and `filter` passes on what it was handed.
/// A consumer that keeps elements (`collect`, a shuffle bucket, a
/// `map_partitions` buffer) calls `into_owned`, which moves a given value
/// and clones only a lent one: one copy per exchange, at most.
pub(crate) type Sink<'a, T> = dyn FnMut(Cow<'_, T>) + 'a;

/// How a dataset's records are distributed across partitions.
///
/// `HashByKey` is produced by shuffles: partition `p` holds exactly the
/// records whose key hashes to `p` under the engine's bucket function. Keyed
/// operators consult this tag to elide redundant shuffles, mirroring Spark's
/// partitioner awareness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Partitioning {
    /// No known distribution invariant.
    Unknown,
    /// Hash-partitioned by the pair key over `parts` partitions.
    HashByKey {
        /// Partition count the hash was taken modulo.
        parts: usize,
    },
}

/// The deferred execution plan behind a dataset.
#[derive(Clone)]
enum Plan<T: Clone> {
    /// Materialized partitions, shared by reference.
    Source(Arc<Vec<Arc<Vec<T>>>>),
    /// A fused chain of narrow transformations: for partition `i`, the
    /// producer pushes each element into the sink.
    Lazy {
        parts: usize,
        producer: Arc<dyn Fn(usize, &mut Sink<'_, T>) + Send + Sync>,
    },
}

/// An immutable partitioned collection with a lazy narrow-operator plan.
#[derive(Clone)]
pub struct Dataset<T: Clone> {
    plan: Plan<T>,
    partitioning: Partitioning,
    lineage: Arc<PlanNode>,
}

impl<T: Clone + Send + Sync + 'static> Dataset<T> {
    /// Builds a dataset by splitting `items` evenly into the runtime's
    /// default partition count.
    pub fn from_vec(rt: &Runtime, items: Vec<T>) -> Self {
        Self::from_vec_with(rt.partitions(), items)
    }

    /// Builds a dataset split into exactly `parts` partitions.
    pub fn from_vec_with(parts: usize, items: Vec<T>) -> Self {
        let parts = parts.max(1);
        let n = items.len();
        let chunk = n.div_ceil(parts).max(1);
        let mut partitions = Vec::with_capacity(parts);
        let mut items = items;
        // Draining from the front preserves element order across partitions.
        let mut rest = items.split_off(0);
        for _ in 0..parts {
            if rest.is_empty() {
                partitions.push(Arc::new(Vec::new()));
                continue;
            }
            let tail = rest.split_off(chunk.min(rest.len()));
            partitions.push(Arc::new(rest));
            rest = tail;
        }
        debug_assert!(rest.is_empty());
        Self::from_arc_partitions(partitions, Partitioning::Unknown)
    }

    /// Wraps pre-built partitions.
    pub fn from_partitions(partitions: Vec<Vec<T>>) -> Self {
        Self::from_arc_partitions(
            partitions.into_iter().map(Arc::new).collect(),
            Partitioning::Unknown,
        )
    }

    /// Wraps pre-built shared partitions with a known partitioning tag
    /// (internal: shuffles use this to stamp their output). The lineage is
    /// a fresh `Source` leaf with the element count.
    pub(crate) fn from_arc_partitions(
        partitions: Vec<Arc<Vec<T>>>,
        partitioning: Partitioning,
    ) -> Self {
        let rows: u64 = partitions.iter().map(|p| p.len() as u64).sum();
        let lineage = PlanNode::source("source", partitions.len(), partitioning, rows);
        Self::from_arc_partitions_lineage(partitions, partitioning, lineage)
    }

    /// Wraps pre-built shared partitions and attaches an explicit lineage
    /// node (internal: shuffles and joins record their exchange here).
    pub(crate) fn from_arc_partitions_lineage(
        partitions: Vec<Arc<Vec<T>>>,
        partitioning: Partitioning,
        lineage: Arc<PlanNode>,
    ) -> Self {
        Dataset {
            plan: Plan::Source(Arc::new(partitions)),
            partitioning,
            lineage,
        }
    }

    /// An empty dataset with one empty partition.
    pub fn empty() -> Self {
        Self::from_arc_partitions(vec![Arc::new(Vec::new())], Partitioning::Unknown)
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        match &self.plan {
            Plan::Source(parts) => parts.len(),
            Plan::Lazy { parts, .. } => *parts,
        }
    }

    /// The partitioning invariant this dataset is known to satisfy.
    pub fn partitioning(&self) -> Partitioning {
        self.partitioning
    }

    /// The reified plan DAG that produced this dataset — the input to the
    /// static verifier in `tgraph-analyze`.
    pub fn lineage(&self) -> Arc<PlanNode> {
        Arc::clone(&self.lineage)
    }

    /// Replaces the top lineage node in place (same inputs, same row count)
    /// with a more precise operator kind, and re-tags the dataset.
    /// Internal: `map_values` is built on `map` but is key-preserving, and
    /// the local combine of an elided `reduce_by_key` is built on
    /// `map_partitions` but keeps keys in place — the lineage should say so.
    pub(crate) fn relabel_op(
        mut self,
        label: &'static str,
        op: OpKind,
        partitioning: Partitioning,
    ) -> Self {
        self.lineage = PlanNode::new(
            label,
            op,
            partitioning,
            self.lineage.rows,
            self.lineage.inputs.clone(),
        );
        self.partitioning = partitioning;
        self
    }

    /// Wraps the current lineage under a new node (internal: elided shuffles
    /// record the skipped exchange this way). The node counts no rows: the
    /// exchange it stands for moved nothing.
    pub(crate) fn wrap_op(
        mut self,
        label: &'static str,
        op: OpKind,
        partitioning: Partitioning,
    ) -> Self {
        self.lineage = PlanNode::new(
            label,
            op,
            partitioning,
            None,
            vec![Arc::clone(&self.lineage)],
        );
        self.partitioning = partitioning;
        self
    }

    /// Streams partition `i` through `sink`, running the fused narrow chain.
    /// This is the single point where deferred plans execute.
    pub(crate) fn produce(&self, i: usize, sink: &mut Sink<'_, T>) {
        match &self.plan {
            Plan::Source(parts) => {
                for x in parts[i].iter() {
                    sink(Cow::Borrowed(x));
                }
            }
            Plan::Lazy { producer, .. } => producer(i, sink),
        }
    }

    /// Runs the plan (one fused task wave) and returns a source-backed
    /// dataset sharing the same partitioning tag. No-op when already
    /// materialized.
    pub fn materialize(&self, rt: &Runtime) -> Dataset<T> {
        match &self.plan {
            Plan::Source(_) => self.clone(),
            Plan::Lazy { .. } => {
                let partitions: Vec<Arc<Vec<T>>> = self
                    .gather_partitions(rt)
                    .into_iter()
                    .map(Arc::new)
                    .collect();
                let rows: u64 = partitions.iter().map(|p| p.len() as u64).sum();
                let lineage = PlanNode::new(
                    "materialize",
                    OpKind::Materialize,
                    self.partitioning,
                    Some(rows),
                    vec![Arc::clone(&self.lineage)],
                );
                Self::from_arc_partitions_lineage(partitions, self.partitioning, lineage)
            }
        }
    }

    /// The materialized partitions (runs the plan if deferred).
    pub(crate) fn parts(&self, rt: &Runtime) -> Arc<Vec<Arc<Vec<T>>>> {
        match &self.materialize(rt).plan {
            Plan::Source(parts) => Arc::clone(parts),
            Plan::Lazy { .. } => unreachable!("materialize returns a source"),
        }
    }

    /// Runs one task per partition on the pool; each task gets the partition
    /// index and the dataset, and drives the fused chain via
    /// [`Dataset::produce`].
    pub(crate) fn run_per_partition<R, F>(&self, rt: &Runtime, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(usize, &Dataset<T>) -> R + Send + Sync + 'static,
    {
        let d = self.clone();
        rt.run_indexed(self.num_partitions(), move |i| f(i, &d))
    }

    /// Runs each partition's fused chain into an owned `Vec`, one task per
    /// partition.
    fn gather_partitions(&self, rt: &Runtime) -> Vec<Vec<T>> {
        self.run_per_partition(rt, |i, d| {
            let mut out = Vec::new();
            d.produce(i, &mut |x| out.push(x.into_owned()));
            out
        })
    }

    /// Total number of elements. Runs the fused chain without materializing
    /// or cloning anything.
    pub fn count(&self, rt: &Runtime) -> usize {
        let counts = self.run_per_partition(rt, |i, d| {
            let mut n = 0usize;
            d.produce(i, &mut |_x| n += 1);
            n
        });
        counts.into_iter().sum()
    }

    /// Materializes all elements in partition order. Partitions are gathered
    /// in parallel on the worker pool, then concatenated in order.
    pub fn collect(&self, rt: &Runtime) -> Vec<T> {
        let partitions = self.gather_partitions(rt);
        let total = partitions.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for p in partitions {
            out.extend(p);
        }
        out
    }

    /// Element-wise transformation (narrow, deferred).
    ///
    /// Operator closures are `'static`, so one cannot hold the `&Runtime` an
    /// action needs: materializing a dataset from inside another's operator
    /// (an eager collect per element) is a borrow error, not a review note.
    ///
    /// ```compile_fail,E0521
    /// use tgraph_dataflow::{Dataset, Runtime};
    ///
    /// fn eager(rt: &Runtime, outer: &Dataset<u64>, inner: Dataset<u64>) -> Dataset<usize> {
    ///     outer.map(move |_| inner.collect(rt).len())
    /// }
    /// ```
    pub fn map<U, F>(&self, f: F) -> Dataset<U>
    where
        U: Clone + Send + Sync + 'static,
        F: Fn(&T) -> U + Send + Sync + 'static,
    {
        let up = self.clone();
        let lineage = PlanNode::new(
            "map",
            OpKind::Map,
            Partitioning::Unknown,
            None,
            vec![Arc::clone(&self.lineage)],
        );
        Dataset {
            plan: Plan::Lazy {
                parts: self.num_partitions(),
                producer: Arc::new(move |i, sink| {
                    up.produce(i, &mut |x| sink(Cow::Owned(f(&x))));
                }),
            },
            partitioning: Partitioning::Unknown,
            lineage,
        }
    }

    /// Element-to-many transformation (narrow, deferred). The closure may
    /// return anything iterable — an `Option`, an adapter chain — and no
    /// intermediate collection is built.
    pub fn flat_map<U, I, F>(&self, f: F) -> Dataset<U>
    where
        U: Clone + Send + Sync + 'static,
        I: IntoIterator<Item = U>,
        F: Fn(&T) -> I + Send + Sync + 'static,
    {
        self.flat_map_into(move |x, emit| f(x).into_iter().for_each(emit))
    }

    /// [`flat_map`](Dataset::flat_map) for closures whose outputs borrow from
    /// the element or from captured state (which a returned iterator cannot):
    /// `f` hands each output to `emit` instead of returning them.
    pub fn flat_map_into<U, F>(&self, f: F) -> Dataset<U>
    where
        U: Clone + Send + Sync + 'static,
        F: Fn(&T, &mut dyn FnMut(U)) + Send + Sync + 'static,
    {
        self.flat_map_with(move |_: &mut (), x, emit| f(x, emit))
    }

    /// [`flat_map_into`](Dataset::flat_map_into) with per-partition state:
    /// each partition's pass starts from `S::default()` and hands it to every
    /// element, so a memo or a scratch buffer lives for one partition and is
    /// never shared between tasks. Still streams: no partition is buffered.
    pub fn flat_map_with<S, U, F>(&self, f: F) -> Dataset<U>
    where
        S: Default + 'static,
        U: Clone + Send + Sync + 'static,
        F: Fn(&mut S, &T, &mut dyn FnMut(U)) + Send + Sync + 'static,
    {
        let up = self.clone();
        let lineage = PlanNode::new(
            "flat_map",
            OpKind::FlatMap,
            Partitioning::Unknown,
            None,
            vec![Arc::clone(&self.lineage)],
        );
        Dataset {
            plan: Plan::Lazy {
                parts: self.num_partitions(),
                producer: Arc::new(move |i, sink| {
                    let mut state = S::default();
                    up.produce(i, &mut |x| f(&mut state, &x, &mut |u| sink(Cow::Owned(u))));
                }),
            },
            partitioning: Partitioning::Unknown,
            lineage,
        }
    }

    /// Keeps elements satisfying the predicate (narrow, deferred).
    /// Elements pass through untouched, so the partitioning tag is kept: a
    /// filtered hash-partitioned dataset is still hash-partitioned.
    pub fn filter<F>(&self, f: F) -> Dataset<T>
    where
        F: Fn(&T) -> bool + Send + Sync + 'static,
    {
        let up = self.clone();
        let lineage = PlanNode::new(
            "filter",
            OpKind::Filter,
            self.partitioning,
            None,
            vec![Arc::clone(&self.lineage)],
        );
        Dataset {
            plan: Plan::Lazy {
                parts: self.num_partitions(),
                producer: Arc::new(move |i, sink| {
                    up.produce(i, &mut |x| {
                        if f(&x) {
                            sink(x);
                        }
                    });
                }),
            },
            partitioning: self.partitioning,
            lineage,
        }
    }

    /// Whole-partition transformation (narrow, deferred). The closure sees
    /// the partition as a slice; when the upstream plan is already
    /// materialized the slice is borrowed directly, otherwise the fused
    /// chain buffers the partition first.
    pub fn map_partitions<U, F>(&self, f: F) -> Dataset<U>
    where
        U: Clone + Send + Sync + 'static,
        F: Fn(&[T]) -> Vec<U> + Send + Sync + 'static,
    {
        let up = self.clone();
        let lineage = PlanNode::new(
            "map_partitions",
            OpKind::MapPartitions,
            Partitioning::Unknown,
            None,
            vec![Arc::clone(&self.lineage)],
        );
        Dataset {
            plan: Plan::Lazy {
                parts: self.num_partitions(),
                producer: Arc::new(move |i, sink| {
                    let out = match &up.plan {
                        Plan::Source(parts) => f(&parts[i]),
                        Plan::Lazy { .. } => {
                            let mut buf = Vec::new();
                            up.produce(i, &mut |x| buf.push(x.into_owned()));
                            f(&buf)
                        }
                    };
                    for u in out {
                        sink(Cow::Owned(u));
                    }
                }),
            },
            partitioning: Partitioning::Unknown,
            lineage,
        }
    }

    /// Concatenates two datasets. Deferred: partition lists are appended and
    /// no data moves; each side keeps its own fused chain.
    pub fn union(&self, other: &Dataset<T>) -> Dataset<T> {
        let left = self.clone();
        let right = other.clone();
        let split = left.num_partitions();
        let lineage = PlanNode::new(
            "union",
            OpKind::Union,
            Partitioning::Unknown,
            None,
            vec![Arc::clone(&self.lineage), Arc::clone(&other.lineage)],
        );
        Dataset {
            plan: Plan::Lazy {
                parts: split + right.num_partitions(),
                producer: Arc::new(move |i, sink| {
                    if i < split {
                        left.produce(i, sink);
                    } else {
                        right.produce(i - split, sink);
                    }
                }),
            },
            partitioning: Partitioning::Unknown,
            lineage,
        }
    }

    /// Parallel fold: folds each partition through the fused chain, then
    /// reduces the partials on the caller thread in partition order.
    pub fn fold<A, F, G>(&self, rt: &Runtime, init: A, fold: F, combine: G) -> A
    where
        A: Send + Sync + Clone + 'static,
        F: Fn(A, &T) -> A + Send + Sync + 'static,
        G: Fn(A, A) -> A + Send + Sync + 'static,
    {
        let init2 = init.clone();
        // Accumulator is re-Some'd on every iteration; None here is an
        // engine bug, not user input.
        #[expect(clippy::expect_used, reason = "move-in/out accumulator invariant")]
        let fold_partition = move |i: usize, d: &Dataset<T>| {
            let mut acc = Some(init2.clone());
            d.produce(i, &mut |x| {
                let prev = acc.take().expect("fold accumulator");
                acc = Some(fold(prev, &x));
            });
            acc.expect("fold accumulator")
        };
        self.run_per_partition(rt, fold_partition)
            .into_iter()
            .fold(init, combine)
    }
}

impl<T: Clone + Send + Sync + 'static> FromIterator<T> for Dataset<T> {
    /// Collects into a single-partition dataset. Use
    /// [`Dataset::from_vec`] to control partitioning.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Dataset::from_partitions(vec![iter.into_iter().collect()])
    }
}

impl<T: Clone> std::fmt::Debug for Dataset<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.plan {
            Plan::Source(parts) => write!(
                f,
                "Dataset({} partitions, {} elements, {:?})",
                parts.len(),
                parts.iter().map(|p| p.len()).sum::<usize>(),
                self.partitioning,
            ),
            Plan::Lazy { parts, .. } => {
                write!(
                    f,
                    "Dataset({parts} partitions, deferred, {:?})",
                    self.partitioning
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T: Clone + Send + Sync + 'static> Dataset<T> {
        /// Re-tags the dataset by fiat: the tests' way to build a wrong or
        /// unproven partitioning claim. The lineage records an explicit
        /// [`OpKind::Claim`] node, which the verifier rejects unless the claimed
        /// invariant is derivable from the input, and checked mode audits.
        pub(crate) fn with_partitioning(mut self, partitioning: Partitioning) -> Self {
            self.lineage = PlanNode::new(
                "claim",
                OpKind::Claim,
                partitioning,
                self.lineage.rows,
                vec![Arc::clone(&self.lineage)],
            );
            self.partitioning = partitioning;
            self
        }
    }

    fn rt() -> Runtime {
        Runtime::with_partitions(4, 4)
    }

    #[test]
    fn from_vec_preserves_order_and_balance() {
        let rt = rt();
        let d = Dataset::from_vec(&rt, (0..10).collect());
        assert_eq!(d.num_partitions(), 4);
        assert_eq!(d.collect(&rt), (0..10).collect::<Vec<_>>());
        // ceil(10/4) = 3 → sizes 3,3,3,1
        let sizes: Vec<usize> = d.parts(&rt).iter().map(|p| p.len()).collect();
        assert_eq!(sizes, vec![3, 3, 3, 1]);
    }

    #[test]
    fn from_vec_more_partitions_than_items() {
        let rt = Runtime::with_partitions(2, 8);
        let d = Dataset::from_vec(&rt, vec![1, 2, 3]);
        assert_eq!(d.num_partitions(), 8);
        assert_eq!(d.count(&rt), 3);
    }

    #[test]
    fn map_filter_flat_map() {
        let rt = rt();
        let d = Dataset::from_vec(&rt, (0..100).collect::<Vec<i64>>());
        let doubled = d.map(|x| x * 2);
        assert_eq!(
            doubled.collect(&rt),
            (0..100).map(|x| x * 2).collect::<Vec<_>>()
        );
        let evens = d.filter(|x| x % 2 == 0);
        assert_eq!(evens.count(&rt), 50);
        let pairs = d.flat_map(|x| vec![*x, *x]);
        assert_eq!(pairs.count(&rt), 200);
    }

    #[test]
    fn narrow_chain_is_deferred_and_fuses_into_one_wave() {
        let rt = rt();
        let d = Dataset::from_vec(&rt, (0..1000).collect::<Vec<i64>>());
        let before = rt.stats();
        let chained = d.map(|x| x + 1).filter(|x| x % 3 == 0).map(|x| x * 10);
        // Building the chain runs nothing.
        let mid = rt.stats();
        assert_eq!(mid.waves, before.waves, "narrow ops must not launch tasks");
        assert_eq!(mid.tasks, before.tasks);
        let out = chained.collect(&rt);
        let after = rt.stats();
        assert_eq!(
            after.waves - before.waves,
            1,
            "map→filter→map + collect = one wave"
        );
        assert_eq!(after.tasks - before.tasks, 4, "one task per partition");
        let expected: Vec<i64> = (0..1000)
            .map(|x| x + 1)
            .filter(|x| x % 3 == 0)
            .map(|x| x * 10)
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn flat_map_with_state_is_fresh_per_partition_and_costs_no_extra_wave() {
        let rt = rt();
        let source = Dataset::from_vec(&rt, (0..10).collect::<Vec<i64>>());
        // Partitions hold 3, 3, 3 and 1 elements: a counter that restarts
        // with every partition numbers them 1..=3, 1..=3, 1..=3, 1.
        let expected: Vec<(i64, usize)> = (0..10).map(|x| (x, x as usize % 3 + 1)).collect();
        for (upstream, d) in [("source", source.clone()), ("lazy", source.map(|x| *x))] {
            let numbered = d.flat_map_with(|seen: &mut usize, x, emit| {
                *seen += 1;
                emit((*x, *seen));
            });
            let before = rt.stats();
            assert_eq!(numbered.collect(&rt), expected, "{upstream}");
            let with = rt.stats().since(&before);
            let plain = d.flat_map_into(|x, emit| emit((*x, 0usize)));
            let before = rt.stats();
            assert_eq!(plain.collect(&rt).len(), 10);
            let into = rt.stats().since(&before);
            assert_eq!(
                (with.waves, with.tasks),
                (into.waves, into.tasks),
                "{upstream}"
            );
            assert_eq!((with.waves, with.tasks), (1, 4), "{upstream}");
        }
    }

    #[test]
    fn filter_preserves_partitioning_tag_and_maps_reset_it() {
        let d: Dataset<(u32, u32)> = Dataset::from_partitions(vec![vec![(1, 1)], vec![(2, 2)]]);
        let tagged = d.with_partitioning(Partitioning::HashByKey { parts: 2 });
        assert_eq!(
            tagged.filter(|_| true).partitioning(),
            Partitioning::HashByKey { parts: 2 }
        );
        assert_eq!(tagged.map(|x| *x).partitioning(), Partitioning::Unknown);
        assert_eq!(
            tagged.flat_map(|x| vec![*x]).partitioning(),
            Partitioning::Unknown
        );
        assert_eq!(
            tagged.map_partitions(|p| p.to_vec()).partitioning(),
            Partitioning::Unknown
        );
    }

    #[test]
    fn materialize_is_idempotent_and_keeps_tag() {
        let rt = rt();
        let d = Dataset::from_vec(&rt, (0..10).collect::<Vec<i32>>())
            .with_partitioning(Partitioning::HashByKey { parts: 4 });
        let lazy = d.filter(|x| x % 2 == 0);
        let m = lazy.materialize(&rt);
        assert_eq!(m.partitioning(), Partitioning::HashByKey { parts: 4 });
        assert_eq!(m.collect(&rt), lazy.collect(&rt));
        let before = rt.stats().waves;
        let m2 = m.materialize(&rt);
        assert_eq!(
            rt.stats().waves,
            before,
            "re-materializing a source is free"
        );
        assert_eq!(m2.collect(&rt), m.collect(&rt));
    }

    #[test]
    fn fold_sums() {
        let rt = rt();
        let d = Dataset::from_vec(&rt, (1..=100).collect::<Vec<i64>>());
        let sum = d.fold(&rt, 0i64, |acc, x| acc + x, |a, b| a + b);
        assert_eq!(sum, 5050);
        // Fold over a fused chain sees transformed elements.
        let sum2 = d
            .map(|x| x * 2)
            .fold(&rt, 0i64, |acc, x| acc + x, |a, b| a + b);
        assert_eq!(sum2, 10100);
    }

    #[test]
    fn union_concatenates_and_stays_lazy() {
        let rt = rt();
        let a = Dataset::from_vec(&rt, vec![1, 2]);
        let b = Dataset::from_vec(&rt, vec![3]);
        let before = rt.stats().waves;
        let u = a.map(|x| x * 10).union(&b.map(|x| x * 10));
        assert_eq!(rt.stats().waves, before, "union of lazy chains is deferred");
        assert_eq!(u.count(&rt), 3);
        let mut all = u.collect(&rt);
        all.sort();
        assert_eq!(all, vec![10, 20, 30]);
    }

    #[test]
    fn empty_dataset() {
        let rt = rt();
        let d: Dataset<i32> = Dataset::empty();
        assert_eq!(d.count(&rt), 0);
        assert!(d.collect(&rt).is_empty());
    }

    #[test]
    fn from_iterator() {
        let rt = rt();
        let d: Dataset<i32> = (0..5).collect();
        assert_eq!(d.num_partitions(), 1);
        assert_eq!(d.collect(&rt), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn map_partitions_sees_whole_partition() {
        let rt = rt();
        let d = Dataset::from_vec(&rt, (0..12).collect::<Vec<i32>>());
        let sums = d.map_partitions(|p| vec![p.iter().sum::<i32>()]);
        assert_eq!(sums.count(&rt), 4);
        assert_eq!(sums.collect(&rt).iter().sum::<i32>(), 66);
        // And composes with a fused upstream chain.
        let sums2 = d
            .map(|x| x + 1)
            .map_partitions(|p| vec![p.iter().sum::<i32>()]);
        assert_eq!(sums2.collect(&rt).iter().sum::<i32>(), 78);
    }

    #[test]
    fn lineage_records_operator_chain() {
        let rt = rt();
        let d = Dataset::from_vec(&rt, (0..10).collect::<Vec<i64>>());
        let chained = d.map(|x| x + 1).filter(|x| x % 2 == 0);
        let root = chained.lineage();
        assert_eq!(root.op, OpKind::Filter);
        assert_eq!(root.inputs[0].op, OpKind::Map);
        assert_eq!(root.inputs[0].inputs[0].op, OpKind::Source { parts: 4 });
        // Only what has been materialized has a row count.
        assert_eq!(root.inputs[0].inputs[0].rows, Some(10));
        assert_eq!(root.inputs[0].rows, None);
        assert_eq!(root.rows, None);
        assert_eq!(chained.materialize(&rt).lineage().rows, Some(5));
    }

    #[test]
    fn with_partitioning_records_a_claim_node() {
        let d: Dataset<(u32, u32)> = Dataset::from_partitions(vec![vec![(1, 1)], vec![(2, 2)]]);
        let tagged = d.with_partitioning(Partitioning::HashByKey { parts: 2 });
        let root = tagged.lineage();
        assert_eq!(root.op, OpKind::Claim);
        assert_eq!(root.claimed, Partitioning::HashByKey { parts: 2 });
        assert_eq!(root.inputs[0].op, OpKind::Source { parts: 2 });
    }
}
