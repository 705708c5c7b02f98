//! Golden byte-identity tests for serialized shuffles: the same workload
//! must produce **byte-identical** results whether buckets move as typed
//! vectors (the default) or also round-trip through the [`Spill`] codec -
//! with or without a byte budget forcing the reduce side to spill.

use tgraph_dataflow::{Dataset, KeyedDataset, Runtime, RuntimeStats, Spill};

/// A representative workload over all five wide operators: two chained
/// reduces (the second elided), a shuffle join, a group, a semijoin, a count,
/// and a fold. Returns the results spill-encoded, unsorted, so
/// "byte-identical" is literal — collect order itself is part of the
/// contract.
fn workload(rt: &Runtime) -> Vec<u8> {
    let data: Vec<(u64, u64)> = (0..20_000).map(|i| (i % 37, i)).collect();
    let d = Dataset::from_vec(rt, data);
    let reduced = d.reduce_by_key(rt, |a, b| a + b);
    let mut out = Vec::new();
    reduced.collect(rt).spill(&mut out);
    // Re-reducing hash-partitioned data elides the shuffle; still must agree.
    let rereduced = reduced.reduce_by_key(rt, |a, b| a + b);
    rereduced.collect(rt).spill(&mut out);
    let small: Vec<(u64, u64)> = (0..37)
        .filter(|k| k % 3 == 0)
        .map(|k| (k, k * 10))
        .collect();
    let s = Dataset::from_vec(rt, small);
    reduced.join(rt, &s).collect(rt).spill(&mut out);
    d.group_by_key(rt).collect(rt).spill(&mut out);
    d.semi_join(rt, &s).collect(rt).spill(&mut out);
    (reduced.count(rt) as u64).spill(&mut out);
    reduced
        .map(|(_, v)| *v)
        .fold(rt, 0u64, |a, b| a + b, |a, b| a + b)
        .spill(&mut out);
    out
}

/// The workload on the default typed move: the bytes a serialized shuffle
/// must reproduce.
fn typed_move() -> Vec<u8> {
    workload(&Runtime::with_partitions(4, 8))
}

/// A runtime whose shuffles round-trip every bucket through the codec.
fn serialized(parts: usize) -> Runtime {
    let rt = Runtime::with_partitions(4, parts);
    rt.set_serialized_shuffles(true);
    rt
}

#[test]
fn serialized_shuffles_are_byte_identical_to_the_typed_move() {
    let rt = serialized(8);
    assert!(workload(&rt) == typed_move());
    assert_eq!(traffic(&[rt.stats()]), [(218, 645_152)]);
}

/// Serialized shuffles share the governed reduce side, so checked mode's
/// merge audit (per-bucket counts recorded at admission, verified at the
/// merge) covers them, spilled or not.
#[test]
fn serialized_shuffles_pass_the_checked_merge_audit() {
    let base = typed_move();
    for budget in [0, 64 << 10] {
        let rt = serialized(8);
        rt.set_checked(true);
        rt.set_mem_budget(budget);
        assert!(workload(&rt) == base, "budget {budget}");
        assert_eq!(rt.stats().spill_files > 0, budget > 0, "budget {budget}");
    }
}

/// `(buckets_exchanged, bytes_exchanged)` per runtime: *what* is serialized
/// is pinned along with the result bytes, so a change to the reduce side
/// cannot quietly change the traffic.
fn traffic(stats: &[RuntimeStats]) -> Vec<(u64, u64)> {
    stats
        .iter()
        .map(|st| (st.buckets_exchanged, st.bytes_exchanged))
        .collect()
}

/// A serialized shuffle's decoded buckets pass under the byte budget like
/// any other: the reduce side spills, and the bytes do not change.
#[test]
fn serialized_shuffles_spill_under_a_byte_budget_and_stay_byte_identical() {
    let rt = serialized(8);
    rt.set_mem_budget(64 << 10);
    assert!(workload(&rt) == typed_move());
    let st = rt.stats();
    assert!(st.spill_files > 0, "never spilled: {st:?}");
}

#[test]
fn serialized_shuffles_elide_on_prepartitioned_input() {
    let rt = serialized(4);
    let d = Dataset::from_vec(&rt, (0..100u64).map(|i| (i % 7, i)).collect::<Vec<_>>());
    let reduced = d.reduce_by_key(&rt, |a, b| a + b);
    let _ = reduced.collect(&rt);
    let before = rt.stats();
    let _ = reduced.reduce_by_key(&rt, |a, b| a + b).collect(&rt);
    let delta = rt.stats().since(&before);
    assert_eq!(delta.shuffles, 0, "second reduce must be elided");
    assert_eq!(delta.shuffles_elided, 1);
    assert_eq!(
        delta.buckets_exchanged, 0,
        "an elided shuffle encodes nothing"
    );
}
