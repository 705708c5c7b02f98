//! Keyed (wide) operators: the shuffle-based second-order functions the
//! paper's algorithms are written in — `groupBy`, `reduceByKey`, `join`, and
//! `semijoin`.
//!
//! Every wide operator hash-partitions records by key across the output
//! partitions (a real shuffle with per-partition bucket exchange), so the
//! data-movement behaviour of the different TGraph representations — RG
//! shuffling a record per snapshot copy versus OG shuffling one record per
//! entity — is reproduced, not simulated.
//!
//! Shuffle outputs are stamped [`Partitioning::HashByKey`]; when a keyed
//! operator runs on an input that already carries the required tag (same key
//! type, same partition count) the shuffle is **elided**: zero records move,
//! and [`RuntimeStats::shuffles_elided`](crate::RuntimeStats) counts the
//! skip. The map side of a real shuffle fuses with any pending narrow chain
//! on the input, so `map → filter → reduce_by_key` reads its input exactly
//! once.

use crate::dataset::{Dataset, Partitioning};
use crate::governor::GovernedBuckets;
use crate::lineage::OpKind;
use crate::runtime::Runtime;
use crate::spill::{decode_records, Spill};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The engine's bucket function: which partition a key belongs to under
/// `HashByKey { parts }`. Elision audits (and tests constructing
/// adversarial layouts) use it to agree with the shuffle; it is public so
/// locality-aware loaders can pre-place records in the partition the
/// shuffle will route their key to.
///
/// Hashes with the explicitly-seeded FNV-1a shared with
/// [`fnv1a`](crate::fnv1a) — *not* `DefaultHasher`, whose algorithm is
/// unspecified and free to change across Rust releases, which would
/// silently invalidate persisted partition layouts and `HashByKey` claims
/// on a toolchain bump. A golden test pins the assignments.
pub fn bucket_of<K: Hash>(key: &K, parts: usize) -> usize {
    let mut h = crate::lineage::Fnv::new();
    key.hash(&mut h);
    (h.finish() % parts as u64) as usize
}

fn hashed_by_key(partitioning: Partitioning, parts: usize) -> bool {
    partitioning == Partitioning::HashByKey { parts }
}

/// How many leading records of partition 0 the debug-build elision audit
/// samples. A full scan is reserved for checked mode.
#[cfg(debug_assertions)]
const AUDIT_SAMPLE: usize = 64;

/// Audits an elision decision: the input claims `HashByKey { parts }` and a
/// shuffle is about to be skipped on the strength of that claim.
///
/// * In debug builds, samples the first [`AUDIT_SAMPLE`] records of
///   partition 0 on the caller thread and `debug_assert`s they hash to 0.
/// * In checked mode ([`Runtime::checked`]), runs a full verification wave:
///   every record of every partition must hash to its partition index, or
///   the claim is a lie and execution aborts with a diagnostic instead of
///   silently producing wrong joins/reductions.
fn audit_elision<K, V>(rt: &Runtime, input: &Dataset<(K, V)>, parts: usize)
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    #[cfg(debug_assertions)]
    {
        let mut seen = 0usize;
        let mut misplaced = 0usize;
        input.produce(0, &mut |kv| {
            if seen < AUDIT_SAMPLE {
                seen += 1;
                if bucket_of(&kv.0, parts) != 0 {
                    misplaced += 1;
                }
            }
        });
        debug_assert!(
            misplaced == 0,
            "elision audit: {misplaced}/{seen} sampled partition-0 records do not \
             hash to partition 0 under HashByKey {{ parts: {parts} }}"
        );
    }
    if rt.checked() {
        let bad: Vec<(usize, u64)> = input
            .run_per_partition(rt, move |p, d| {
                let mut bad = 0u64;
                d.produce(p, &mut |kv| {
                    if bucket_of(&kv.0, parts) != p {
                        bad += 1;
                    }
                });
                bad
            })
            .into_iter()
            .enumerate()
            .filter(|(_, b)| *b > 0)
            .collect();
        if !bad.is_empty() {
            panic!(
                "checked mode: partitioning claim HashByKey {{ parts: {parts} }} does not \
                 hold — misplaced records per partition: {bad:?}"
            );
        }
    }
}

/// Hash-partitions a keyed dataset: output partition `p` holds exactly the
/// records whose key hashes to `p`. This is the shuffle every wide operator
/// builds on.
///
/// If the input is already hash-partitioned by key over the runtime's
/// partition count, the shuffle is elided and the input is returned as-is
/// (its pending narrow chain, if any, stays deferred).
pub fn shuffle<K, V>(rt: &Runtime, input: &Dataset<(K, V)>) -> Dataset<(K, V)>
where
    K: Hash + Eq + Clone + Send + Sync + Spill + 'static,
    V: Clone + Send + Sync + Spill + 'static,
{
    let parts = rt.partitions();
    if hashed_by_key(input.partitioning(), parts) {
        rt.note_shuffle_elided();
        audit_elision(rt, input, parts);
        return input.clone().wrap_op(
            "shuffle(elided)",
            OpKind::ElidedShuffle { parts },
            Partitioning::HashByKey { parts },
        );
    }
    // Map side: one fused pass splits every input partition into `parts`
    // buckets, running any pending narrow chain in the same wave.
    let mut bucketed: Vec<Vec<Vec<(K, V)>>> = input.run_per_partition(rt, move |i, d| {
        let mut buckets: Vec<Vec<(K, V)>> = (0..parts).map(|_| Vec::new()).collect();
        d.produce(i, &mut |kv| {
            buckets[bucket_of(&kv.0, parts)].push(kv.into_owned());
        });
        buckets
    });
    let moved: u64 = bucketed
        .iter()
        .map(|p| p.iter().map(|b| b.len() as u64).sum::<u64>())
        .sum();
    rt.note_shuffle(moved, moved * std::mem::size_of::<(K, V)>() as u64);
    // The bucket vectors move from the map output that filled them to the
    // reduce task that owns their partition, never copied. A serialized
    // shuffle also round-trips each one through the codec on the way.
    if rt.serialized_shuffles() {
        round_trip(rt, &mut bucketed);
    }
    // Exchange residency passes under the memory governor: the charge is
    // recorded here, and over-budget map outputs are written out as run
    // files (order preserved) before the reduce side starts. With no budget
    // in force this is a no-op pass-through.
    let governed = GovernedBuckets::admit(rt, bucketed);
    // Reduce side: partition `p` concatenates bucket `p` of every map
    // output, in map-partition order — taken from memory or, for spilled
    // outputs, streamed back from their run files. Identical bytes
    // either way.
    let out = rt.run_indexed(parts, move |p| Arc::new(governed.take_bucket(p)));
    let node = crate::lineage::PlanNode::new(
        "shuffle",
        OpKind::Shuffle { parts },
        Partitioning::HashByKey { parts },
        Some(moved),
        vec![input.lineage()],
    );
    Dataset::from_arc_partitions_lineage(out, Partitioning::HashByKey { parts }, node)
}

/// A serialized shuffle's codec round trip: every non-empty bucket is
/// encoded with the [`Spill`] codec, counted, and decoded back into its
/// slot. A payload that does not decode back into its records aborts the
/// wave with the [`SpillError`](crate::SpillError) as its typed panic
/// payload, as a run file that does not read back does.
fn round_trip<T: Spill>(rt: &Runtime, bucketed: &mut [Vec<Vec<T>>]) {
    let mut payload = Vec::new();
    for bucket in bucketed.iter_mut().flatten().filter(|b| !b.is_empty()) {
        payload.clear();
        for record in bucket.iter() {
            record.spill(&mut payload);
        }
        rt.note_exchanged(payload.len() as u64);
        let records = bucket.len() as u64;
        bucket.clear();
        if let Err(e) = decode_records(&payload, records, bucket) {
            std::panic::panic_any(e);
        }
    }
}

/// Extension trait providing the wide operators on key–value datasets.
pub trait KeyedDataset<K: Clone, V: Clone> {
    /// Transforms values while keeping keys — and therefore the partitioning
    /// tag — intact (narrow, deferred). The lazy-plan counterpart of Spark's
    /// `mapValues`, which preserves the partitioner where `map` cannot.
    fn map_values<W, F>(&self, f: F) -> Dataset<(K, W)>
    where
        W: Clone + Send + Sync + 'static,
        F: Fn(&V) -> W + Send + Sync + 'static;

    /// Groups values by key: `groupBy` of the paper's algorithms.
    ///
    /// Wide operators require [`Spill`] on the record types so the memory
    /// governor can estimate (and, over budget, spill) the exchange.
    fn group_by_key(&self, rt: &Runtime) -> Dataset<(K, Vec<V>)>
    where
        K: Spill,
        V: Spill;

    /// Reduces values per key with a commutative, associative function,
    /// combining map-side before shuffling (Spark's `reduceByKey`). On an
    /// input already hash-partitioned by key this is a single local pass
    /// with no shuffle.
    fn reduce_by_key<F>(&self, rt: &Runtime, f: F) -> Dataset<(K, V)>
    where
        K: Spill,
        V: Spill,
        F: Fn(&V, &V) -> V + Send + Sync + 'static;

    /// Inner hash join on the key.
    fn join<W>(&self, rt: &Runtime, other: &Dataset<(K, W)>) -> Dataset<(K, (V, W))>
    where
        K: Spill,
        V: Spill,
        W: Clone + Send + Sync + Spill + 'static;

    /// Left semijoin: keeps records whose key appears in `keys`.
    fn semi_join<W>(&self, rt: &Runtime, keys: &Dataset<(K, W)>) -> Dataset<(K, V)>
    where
        K: Spill,
        V: Spill,
        W: Clone + Send + Sync + Spill + 'static;
}

/// Per-partition combine used on both sides of `reduce_by_key`.
///
/// Keys are emitted in **first-seen order**, not hash-map iteration order:
/// given the same partition contents, the output bytes are identical across
/// runs and across processes, where `HashMap`'s per-instance random seed
/// would scramble emission order.
fn combine_partition<K, V, F>(part: &[(K, V)], f: &F) -> Vec<(K, V)>
where
    K: Hash + Eq + Clone,
    V: Clone,
    F: Fn(&V, &V) -> V,
{
    let mut index: HashMap<K, usize> = HashMap::with_capacity(part.len());
    let mut out: Vec<(K, V)> = Vec::new();
    for (k, v) in part {
        match index.entry(k.clone()) {
            Entry::Occupied(e) => {
                let slot = &mut out[*e.get()].1;
                *slot = f(slot, v);
            }
            Entry::Vacant(e) => {
                e.insert(out.len());
                out.push((k.clone(), v.clone()));
            }
        }
    }
    out
}

impl<K, V> KeyedDataset<K, V> for Dataset<(K, V)>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn map_values<W, F>(&self, f: F) -> Dataset<(K, W)>
    where
        W: Clone + Send + Sync + 'static,
        F: Fn(&V) -> W + Send + Sync + 'static,
    {
        // Keys are untouched, so whatever hash partitioning held before
        // still holds after. The lineage records a key-preserving
        // `MapValues` (not a generic `Map` plus a claim), which is how the
        // verifier knows the invariant legitimately survives.
        let tag = self.partitioning();
        self.map(move |(k, v)| (k.clone(), f(v)))
            .relabel_op("map_values", OpKind::MapValues, tag)
    }

    fn group_by_key(&self, rt: &Runtime) -> Dataset<(K, Vec<V>)>
    where
        K: Spill,
        V: Spill,
    {
        let parts = rt.partitions();
        let gov = rt.governor();
        shuffle(rt, self)
            .map_partitions(move |part| {
                // First-seen key order, for cross-run determinism (see
                // `combine_partition`). The index borrows
                // its keys: one hash per record, one key clone per group.
                let mut index: HashMap<&K, usize> = HashMap::new();
                let mut out: Vec<(K, Vec<V>)> = Vec::new();
                for (k, v) in part {
                    match index.entry(k) {
                        Entry::Occupied(e) => out[*e.get()].1.push(v.clone()),
                        Entry::Vacant(e) => {
                            e.insert(out.len());
                            out.push((k.clone(), vec![v.clone()]));
                        }
                    }
                }
                crate::governor::note_state(&gov, &out);
                out
            })
            // Grouping within a hash partition keeps keys where they hashed.
            .relabel_op(
                "group_by_key",
                OpKind::LocalCombine,
                Partitioning::HashByKey { parts },
            )
    }

    fn reduce_by_key<F>(&self, rt: &Runtime, f: F) -> Dataset<(K, V)>
    where
        K: Spill,
        V: Spill,
        F: Fn(&V, &V) -> V + Send + Sync + 'static,
    {
        let parts = rt.partitions();
        let f = Arc::new(f);
        let gov = rt.governor();
        if hashed_by_key(self.partitioning(), parts) {
            // Already co-located by key: a single local combine pass, no
            // map-side stage, no shuffle.
            rt.note_shuffle_elided();
            audit_elision(rt, self, parts);
            return self
                .clone()
                .wrap_op(
                    "shuffle(elided)",
                    OpKind::ElidedShuffle { parts },
                    Partitioning::HashByKey { parts },
                )
                .map_partitions(move |part| {
                    let out = combine_partition(part, f.as_ref());
                    crate::governor::note_state(&gov, &out);
                    out
                })
                .relabel_op(
                    "reduce_by_key",
                    OpKind::LocalCombine,
                    Partitioning::HashByKey { parts },
                );
        }
        // Map-side combine shrinks the shuffle, as in Spark. The combine is a
        // deferred narrow stage, so it fuses with both the upstream chain and
        // the shuffle's map side: one pass over the input.
        let f1 = Arc::clone(&f);
        let gov1 = Arc::clone(&gov);
        let combined = self
            .map_partitions(move |part| {
                let out = combine_partition(part, f1.as_ref());
                crate::governor::note_state(&gov1, &out);
                out
            })
            .relabel_op(
                "combine(map-side)",
                OpKind::LocalCombine,
                self.partitioning(),
            );
        let f2 = Arc::clone(&f);
        shuffle(rt, &combined)
            .map_partitions(move |part| {
                let out = combine_partition(part, f2.as_ref());
                crate::governor::note_state(&gov, &out);
                out
            })
            .relabel_op(
                "reduce_by_key",
                OpKind::LocalCombine,
                Partitioning::HashByKey { parts },
            )
    }

    fn join<W>(&self, rt: &Runtime, other: &Dataset<(K, W)>) -> Dataset<(K, (V, W))>
    where
        K: Spill,
        V: Spill,
        W: Clone + Send + Sync + Spill + 'static,
    {
        let parts = rt.partitions();
        let left = shuffle(rt, self);
        let right = shuffle(rt, other);
        let (lin_l, lin_r) = (left.lineage(), right.lineage());
        let left_parts = left.parts(rt);
        let right_parts = right.parts(rt);
        let out = rt.run_indexed(parts, move |p| {
            // Build on the right, probe with the left (co-partitioned). The
            // right rows of one key form a chain in arrival order — `chains`
            // holds each key's first and last row, `next` the links — so the
            // build allocates twice per partition, not once per key.
            let right = &right_parts[p];
            let mut chains: HashMap<&K, (usize, usize)> = HashMap::with_capacity(right.len());
            let mut next: Vec<Option<usize>> = vec![None; right.len()];
            for (i, (k, _)) in right.iter().enumerate() {
                match chains.entry(k) {
                    Entry::Occupied(mut e) => {
                        let last = std::mem::replace(&mut e.get_mut().1, i);
                        next[last] = Some(i);
                    }
                    Entry::Vacant(e) => {
                        e.insert((i, i));
                    }
                }
            }
            let mut out = Vec::new();
            for (k, v) in left_parts[p].iter() {
                let mut row = chains.get(k).map(|(first, _)| *first);
                while let Some(i) = row {
                    out.push((k.clone(), (v.clone(), right[i].1.clone())));
                    row = next[i];
                }
            }
            Arc::new(out)
        });
        let rows: u64 = out.iter().map(|p| p.len() as u64).sum();
        let node = crate::lineage::PlanNode::new(
            "join",
            OpKind::Join { parts },
            Partitioning::HashByKey { parts },
            Some(rows),
            vec![lin_l, lin_r],
        );
        Dataset::from_arc_partitions_lineage(out, Partitioning::HashByKey { parts }, node)
    }

    fn semi_join<W>(&self, rt: &Runtime, keys: &Dataset<(K, W)>) -> Dataset<(K, V)>
    where
        K: Spill,
        V: Spill,
        W: Clone + Send + Sync + Spill + 'static,
    {
        let parts = rt.partitions();
        let left = shuffle(rt, self);
        let right = shuffle(rt, keys);
        let (lin_l, lin_r) = (left.lineage(), right.lineage());
        let left_parts = left.parts(rt);
        let right_parts = right.parts(rt);
        let out = rt.run_indexed(parts, move |p| {
            let keyset: std::collections::HashSet<&K> =
                right_parts[p].iter().map(|(k, _)| k).collect();
            Arc::new(
                left_parts[p]
                    .iter()
                    .filter(|(k, _)| keyset.contains(k))
                    .cloned()
                    .collect::<Vec<_>>(),
            )
        });
        let rows: u64 = out.iter().map(|p| p.len() as u64).sum();
        let node = crate::lineage::PlanNode::new(
            "semi_join",
            OpKind::Join { parts },
            Partitioning::HashByKey { parts },
            Some(rows),
            vec![lin_l, lin_r],
        );
        Dataset::from_arc_partitions_lineage(out, Partitioning::HashByKey { parts }, node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::{DecodeError, HeapSize, SpillError, SpillReader};

    fn rt() -> Runtime {
        Runtime::with_partitions(4, 4)
    }

    fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
        v.sort();
        v
    }

    #[test]
    fn shuffle_co_locates_keys_and_tags_output() {
        let rt = rt();
        let d = Dataset::from_vec(&rt, (0..100).map(|i| (i % 10, i)).collect::<Vec<_>>());
        let s = shuffle(&rt, &d);
        assert_eq!(s.partitioning(), Partitioning::HashByKey { parts: 4 });
        // Every key must live in exactly one partition.
        for key in 0..10 {
            let holders = s
                .parts(&rt)
                .iter()
                .filter(|p| p.iter().any(|(k, _)| *k == key))
                .count();
            assert_eq!(holders, 1, "key {key} spread across partitions");
        }
        assert_eq!(s.count(&rt), 100);
        let stats = rt.stats();
        assert!(stats.shuffled_records >= 100);
        assert!(stats.shuffled_bytes >= stats.shuffled_records);
    }

    #[test]
    fn shuffle_on_prepartitioned_input_is_elided() {
        let rt = rt();
        let d = Dataset::from_vec(&rt, (0..100).map(|i| (i % 10, i)).collect::<Vec<_>>());
        let s = shuffle(&rt, &d);
        let before = rt.stats();
        let s2 = shuffle(&rt, &s);
        let delta = rt.stats().since(&before);
        assert_eq!(delta.shuffles, 0, "second shuffle must be elided");
        assert_eq!(delta.shuffled_records, 0);
        assert_eq!(delta.shuffles_elided, 1);
        assert_eq!(sorted(s2.collect(&rt)), sorted(s.collect(&rt)));
    }

    #[test]
    fn reduce_by_key_on_prepartitioned_input_does_zero_shuffles() {
        let rt = rt();
        let d = Dataset::from_vec(&rt, (0..1000u64).map(|i| (i % 13, i)).collect::<Vec<_>>());
        let s = shuffle(&rt, &d);
        let before = rt.stats();
        let r = s.reduce_by_key(&rt, |a, b| a + b);
        let got = sorted(r.collect(&rt));
        let delta = rt.stats().since(&before);
        assert_eq!(delta.shuffles, 0, "pre-partitioned reduce must not shuffle");
        assert_eq!(delta.shuffled_records, 0);
        assert_eq!(delta.shuffled_bytes, 0);
        assert_eq!(delta.shuffles_elided, 1);
        // And the answer is still right.
        let mut expected: HashMap<u64, u64> = HashMap::new();
        for i in 0..1000u64 {
            *expected.entry(i % 13).or_default() += i;
        }
        assert_eq!(got, sorted(expected.into_iter().collect()));
    }

    #[test]
    fn elision_survives_tag_preserving_narrow_ops() {
        let rt = rt();
        let d = Dataset::from_vec(&rt, (0..500u64).map(|i| (i % 9, i)).collect::<Vec<_>>());
        // coalesce-then-aggregate shape: shuffle once, then filter +
        // map_values (both tag-preserving), then re-key by the same key.
        let s = shuffle(&rt, &d)
            .filter(|(_, v)| v % 2 == 0)
            .map_values(|v| v * 10);
        assert_eq!(s.partitioning(), Partitioning::HashByKey { parts: 4 });
        let before = rt.stats();
        let r = s.reduce_by_key(&rt, |a, b| a + b);
        let out = sorted(r.collect(&rt));
        let delta = rt.stats().since(&before);
        assert_eq!(delta.shuffles, 0);
        assert_eq!(delta.shuffles_elided, 1);
        let mut expected: HashMap<u64, u64> = HashMap::new();
        for i in (0..500u64).filter(|i| i % 2 == 0) {
            *expected.entry(i % 9).or_default() += i * 10;
        }
        assert_eq!(out, sorted(expected.into_iter().collect()));
    }

    #[test]
    fn group_by_key_collects_all_values() {
        let rt = rt();
        let d = Dataset::from_vec(&rt, vec![(1, "a"), (2, "b"), (1, "c"), (1, "d")]);
        let g = d.group_by_key(&rt);
        assert_eq!(g.partitioning(), Partitioning::HashByKey { parts: 4 });
        let mut groups = g.collect(&rt);
        groups.sort_by_key(|(k, _)| *k);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, 1);
        assert_eq!(sorted(groups[0].1.clone()), vec!["a", "c", "d"]);
        assert_eq!(groups[1].1, vec!["b"]);
    }

    /// The one-copy-per-exchange invariant: a record a `map` built moves
    /// into its shuffle bucket, moves to its reduce partition, and is
    /// cloned exactly once — out of the shared shuffle output into its
    /// group. Collecting the groups moves them.
    #[test]
    fn an_exchange_clones_each_record_at_most_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CLONES: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug, PartialEq)]
        struct Counted(u64);
        impl Clone for Counted {
            fn clone(&self) -> Self {
                CLONES.fetch_add(1, Ordering::Relaxed);
                Counted(self.0)
            }
        }
        impl HeapSize for Counted {}
        impl Spill for Counted {
            fn spill(&self, out: &mut Vec<u8>) {
                self.0.spill(out);
            }
            fn unspill(r: &mut SpillReader<'_>) -> Result<Self, DecodeError> {
                u64::unspill(r).map(Counted)
            }
        }
        let rt = rt();
        let records = 1000;
        let source = Dataset::from_vec(&rt, (0..records as u64).collect::<Vec<_>>());
        let grouped = source.map(|i| (i % 17, Counted(*i))).group_by_key(&rt);
        let groups = grouped.collect(&rt);
        assert_eq!(groups.iter().map(|(_, g)| g.len()).sum::<usize>(), records);
        assert!(
            CLONES.load(Ordering::Relaxed) <= records,
            "{} clones of {records} records across one exchange",
            CLONES.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn map_values_preserves_partitioning() {
        let rt = rt();
        let d = Dataset::from_vec(&rt, vec![(1u32, 2u32), (2, 3)]);
        assert_eq!(
            d.map_values(|v| v + 1).partitioning(),
            Partitioning::Unknown
        );
        let s = shuffle(&rt, &d);
        let mv = s.map_values(|v| v + 1);
        assert_eq!(mv.partitioning(), Partitioning::HashByKey { parts: 4 });
        assert_eq!(sorted(mv.collect(&rt)), vec![(1, 3), (2, 4)]);
    }

    #[test]
    fn reduce_by_key_matches_sequential() {
        let rt = rt();
        let data: Vec<(u32, u64)> = (0..1000).map(|i| (i % 7, i as u64)).collect();
        let mut expected: HashMap<u32, u64> = HashMap::new();
        for (k, v) in &data {
            *expected.entry(*k).or_default() += v;
        }
        let d = Dataset::from_vec(&rt, data);
        let r = d.reduce_by_key(&rt, |a, b| a + b);
        let got: HashMap<u32, u64> = r.collect(&rt).into_iter().collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn join_inner_multiplicity() {
        let rt = rt();
        let left = Dataset::from_vec(&rt, vec![(1, "l1"), (1, "l2"), (2, "l3"), (3, "l4")]);
        let right = Dataset::from_vec(&rt, vec![(1, "r1"), (2, "r2"), (2, "r3"), (4, "r4")]);
        let j = left.join(&rt, &right);
        let mut got = j.collect(&rt);
        got.sort();
        assert_eq!(
            got,
            vec![
                (1, ("l1", "r1")),
                (1, ("l2", "r1")),
                (2, ("l3", "r2")),
                (2, ("l3", "r3")),
            ]
        );
    }

    #[test]
    fn join_on_two_prepartitioned_inputs_moves_nothing() {
        let rt = rt();
        let left = shuffle(&rt, &Dataset::from_vec(&rt, vec![(1, "a"), (2, "b")]));
        let right = shuffle(&rt, &Dataset::from_vec(&rt, vec![(1, 10), (3, 30)]));
        let before = rt.stats();
        let j = left.join(&rt, &right);
        assert_eq!(j.collect(&rt), vec![(1, ("a", 10))]);
        let delta = rt.stats().since(&before);
        assert_eq!(delta.shuffles, 0);
        assert_eq!(delta.shuffled_records, 0);
        assert_eq!(delta.shuffles_elided, 2);
    }

    #[test]
    fn semi_join_filters() {
        let rt = rt();
        let left = Dataset::from_vec(&rt, vec![(1, "a"), (2, "b"), (3, "c")]);
        let right = Dataset::from_vec(&rt, vec![(1, ()), (3, ()), (9, ())]);
        let s = left.semi_join(&rt, &right);
        assert_eq!(sorted(s.collect(&rt)), vec![(1, "a"), (3, "c")]);
    }

    #[test]
    fn wide_ops_on_empty_input() {
        let rt = rt();
        let d: Dataset<(u32, u32)> = Dataset::empty();
        assert_eq!(d.group_by_key(&rt).count(&rt), 0);
        assert_eq!(d.reduce_by_key(&rt, |a, _| *a).count(&rt), 0);
        let other: Dataset<(u32, u32)> = Dataset::from_vec(&rt, vec![(1, 1)]);
        assert_eq!(d.join(&rt, &other).count(&rt), 0);
        assert_eq!(other.join(&rt, &d).count(&rt), 0);
    }

    /// A record whose decode reads one byte more than its encode wrote.
    #[derive(Clone, Debug)]
    struct Greedy(u64);

    impl HeapSize for Greedy {}
    impl Spill for Greedy {
        fn spill(&self, out: &mut Vec<u8>) {
            self.0.spill(out);
        }
        fn unspill(r: &mut SpillReader<'_>) -> Result<Self, DecodeError> {
            let v = u64::unspill(r)?;
            r.u8()?;
            Ok(Greedy(v))
        }
    }

    /// A bucket that does not decode back aborts the wave typed, never as a
    /// silently short or misread bucket.
    #[test]
    fn serialized_shuffle_of_a_bad_codec_panics_with_a_corrupt_payload() {
        let rt = rt();
        rt.set_serialized_shuffles(true);
        let d = Dataset::from_vec(&rt, (0..100u64).map(|i| (i % 10, Greedy(i))).collect());
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shuffle(&rt, &d);
        }))
        .expect_err("a payload that does not decode back must abort the shuffle");
        match payload.downcast_ref::<SpillError>() {
            Some(SpillError::Corrupt { detail }) => assert!(detail.contains("record"), "{detail}"),
            other => panic!("expected a typed corrupt payload, got {other:?}"),
        }
    }

    #[test]
    fn lineage_records_shuffles_and_elisions() {
        let rt = rt();
        let d = Dataset::from_vec(&rt, (0..40u64).map(|i| (i % 5, i)).collect::<Vec<_>>());
        let s = shuffle(&rt, &d);
        assert_eq!(s.lineage().op, OpKind::Shuffle { parts: 4 });
        assert_eq!(s.lineage().rows, Some(40));
        let r = s.reduce_by_key(&rt, |a, b| a + b);
        let root = r.lineage();
        assert_eq!(root.op, OpKind::LocalCombine);
        assert_eq!(root.inputs[0].op, OpKind::ElidedShuffle { parts: 4 });
        assert_eq!(root.inputs[0].inputs[0].op, OpKind::Shuffle { parts: 4 });
    }

    /// Satellite regression test: a deliberately wrong `HashByKey` tag on
    /// which an elision fires is caught by checked mode — instead of the
    /// elided reduce silently producing per-partition (wrong) results.
    ///
    /// The fixture is built so that partition 0 is entirely correct (the
    /// debug-build sampled audit passes) while partition 1 smuggles in a key
    /// that hashes to partition 0 — only the full checked-mode scan sees it.
    #[test]
    #[should_panic(expected = "partitioning claim")]
    fn checked_mode_catches_deliberately_wrong_tag() {
        let rt = Runtime::with_partitions(2, 2);
        rt.set_checked(true);
        let mut p0 = Vec::new();
        let mut p1 = Vec::new();
        for k in 0..200u64 {
            if bucket_of(&k, 2) == 0 {
                p0.push((k, 1u64));
            } else {
                p1.push((k, 1u64));
            }
        }
        // Find a fresh key that belongs to partition 0 and misplace it.
        let stray = (200..10_000u64)
            .find(|k| bucket_of(k, 2) == 0)
            .unwrap_or(200);
        p1.push((stray, 1u64));
        let wrongly_tagged = Dataset::from_partitions(vec![p0, p1])
            .with_partitioning(Partitioning::HashByKey { parts: 2 });
        // Elision fires on the strength of the tag; checked mode must abort.
        let _ = wrongly_tagged.reduce_by_key(&rt, |a, b| a + b).collect(&rt);
    }

    /// In dev (debug) builds even without checked mode, a wrong tag whose
    /// misplacement is visible in the sampled partition trips the
    /// `debug_assert` audit at the elision point.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "elision audit")]
    fn debug_audit_samples_partition_zero() {
        let rt = Runtime::with_partitions(2, 2);
        // Every key placed in the *wrong* partition: partition 0's sample
        // fails immediately.
        let mut p0 = Vec::new();
        let mut p1 = Vec::new();
        for k in 0..100u64 {
            if bucket_of(&k, 2) == 0 {
                p1.push((k, 1u64));
            } else {
                p0.push((k, 1u64));
            }
        }
        let wrongly_tagged = Dataset::from_partitions(vec![p0, p1])
            .with_partitioning(Partitioning::HashByKey { parts: 2 });
        let _ = wrongly_tagged.reduce_by_key(&rt, |a, b| a + b).collect(&rt);
    }

    /// With a *correct* tag, checked mode verifies and passes; results match.
    #[test]
    fn checked_mode_accepts_sound_elisions() {
        let rt = Runtime::with_partitions(2, 2);
        rt.set_checked(true);
        let d = Dataset::from_vec(&rt, (0..100u64).map(|i| (i % 7, i)).collect::<Vec<_>>());
        let s = shuffle(&rt, &d);
        let r = s.reduce_by_key(&rt, |a, b| a + b);
        let mut expected: HashMap<u64, u64> = HashMap::new();
        for i in 0..100u64 {
            *expected.entry(i % 7).or_default() += i;
        }
        assert_eq!(
            sorted(r.collect(&rt)),
            sorted(expected.into_iter().collect())
        );
    }

    #[test]
    fn shuffle_node_counts_the_records_it_moved() {
        let rt = rt();
        let d = Dataset::from_vec(&rt, (0..64u64).map(|i| (i % 3, i)).collect::<Vec<_>>());
        let before = rt.stats();
        let s = shuffle(&rt, &d.filter(|(_, v)| v % 2 == 0));
        let delta = rt.stats().since(&before);
        assert_eq!(delta.shuffled_records, 32);
        assert_eq!(s.lineage().op, OpKind::Shuffle { parts: 4 });
        assert_eq!(s.lineage().rows, Some(delta.shuffled_records));
        // The filter below it ran only inside the exchange: no count.
        assert_eq!(s.lineage().inputs[0].rows, None);
    }

    #[test]
    fn reduce_by_key_is_order_insensitive() {
        // Commutative+associative f must give identical results regardless of
        // partitioning.
        let data: Vec<(u8, i64)> = (0..200).map(|i| ((i % 3) as u8, i as i64)).collect();
        let rt1 = Runtime::with_partitions(1, 1);
        let rt4 = Runtime::with_partitions(4, 7);
        let r1 = Dataset::from_vec(&rt1, data.clone()).reduce_by_key(&rt1, |a, b| a + b);
        let r4 = Dataset::from_vec(&rt4, data).reduce_by_key(&rt4, |a, b| a + b);
        assert_eq!(sorted(r1.collect(&rt1)), sorted(r4.collect(&rt4)));
    }
}

#[cfg(test)]
mod golden {
    //! Pins `bucket_of` assignments. If this test fails, the partitioner's
    //! hash changed — which silently invalidates every persisted
    //! `HashByKey` layout. Do not update the constants casually.
    use super::bucket_of;

    #[test]
    fn bucket_assignments_are_pinned() {
        let u64_cases: [(u64, usize); 12] = [
            (0, 5),
            (1, 4),
            (2, 7),
            (3, 6),
            (4, 1),
            (5, 0),
            (6, 3),
            (7, 2),
            (41, 4),
            (97, 4),
            (1000, 4),
            (u64::MAX, 5),
        ];
        for (k, want) in u64_cases {
            assert_eq!(bucket_of(&k, 8), want, "u64 key {k} moved buckets");
        }
        let str_cases: [(&str, usize); 6] = [
            ("", 6),
            ("a", 1),
            ("b", 6),
            ("vertex", 0),
            ("edge", 1),
            ("zoom", 7),
        ];
        for (s, want) in str_cases {
            assert_eq!(bucket_of(&s, 8), want, "str key {s:?} moved buckets");
        }
        assert_eq!(bucket_of(&(1u64, 2u64), 8), 6);
        assert_eq!(bucket_of(&(7u64, 7u64), 8), 5);
        // A non-power-of-two partition count exercises the modulo path.
        assert_eq!(bucket_of(&0u64, 3), 1);
        assert_eq!(bucket_of(&1u64, 3), 0);
        assert_eq!(bucket_of(&2u64, 3), 0);
    }

    #[test]
    fn integer_widths_hash_identically() {
        // The seeded hasher feeds every fixed-width integer through its
        // little-endian bytes, so assignments cannot depend on the platform
        // or on which `write_uN` the standard library routes through.
        assert_eq!(bucket_of(&42u64, 8), bucket_of(&42usize, 8));
        assert_eq!(bucket_of(&42i64, 8), bucket_of(&42isize, 8));
    }
}
