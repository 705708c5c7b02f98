//! Golden byte-identity tests for the pluggable exchange layer: the same
//! workload must produce **byte-identical** results whether buckets move as
//! typed vectors (no exchange installed), through the [`Loopback`] frame
//! codec, or over a real TCP exchange across 2 or 4 shards - with or without
//! a byte budget forcing the reduce side to spill.
//!
//! Each shard runs in its own thread with its own [`Runtime`] and a
//! [`TcpExchange`] wired to its peers over localhost. Because collects
//! all-gather owned partitions, *every* shard computes the full result, so
//! the test also asserts cross-shard agreement.

use std::sync::Arc;
use std::time::Duration;
use tgraph_dataflow::{
    Dataset, KeyedDataset, Loopback, Runtime, RuntimeStats, ShardLayout, Spill, TcpExchange,
};

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

/// The workload with no exchange installed: the bytes every transport must
/// reproduce.
fn typed_move() -> Vec<u8> {
    workload(&Runtime::with_partitions(4, 8))
}

/// Runs the workload on `shards` cooperating runtimes (each prepared by
/// `configure`) joined by TcpExchange over localhost, asserts all shards
/// agree, and returns shard 0's bytes with every shard's counters.
fn run_sharded(
    shards: usize,
    parts: usize,
    configure: fn(&Runtime),
) -> (Vec<u8>, Vec<RuntimeStats>) {
    let mut listeners = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..shards {
        let (l, a) = TcpExchange::bind("127.0.0.1:0").expect("bind");
        listeners.push(l);
        addrs.push(a.to_string());
    }
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(s, listener)| {
            let addrs = addrs.clone();
            std::thread::spawn(move || {
                let rt = Runtime::with_partitions(2, parts);
                configure(&rt);
                let layout = ShardLayout::new(s, shards);
                let ex = TcpExchange::start(
                    listener,
                    layout,
                    addrs,
                    rt.exchange_counters(),
                    Duration::from_secs(20),
                )
                .expect("start exchange");
                rt.set_exchange(ex);
                (workload(&rt), rt.stats())
            })
        })
        .collect();
    let (outs, stats): (Vec<_>, Vec<_>) = handles
        .into_iter()
        .map(|h| h.join().expect("shard thread"))
        .unzip();
    for (s, (out, st)) in outs.iter().zip(&stats).enumerate() {
        assert!(out == &outs[0], "shard {s} disagrees with shard 0");
        assert!(st.frames_sent > 0, "shard {s} sent no frames");
        assert!(st.bytes_exchanged > 0, "shard {s} exchanged no bytes");
    }
    (outs.into_iter().next().unwrap(), stats)
}

#[test]
fn loopback_is_byte_identical_to_the_typed_move() {
    let rt = Runtime::with_partitions(4, 8);
    rt.set_exchange(Arc::new(Loopback::new(rt.exchange_counters())));
    assert!(workload(&rt) == typed_move());
    assert_eq!(traffic(&[rt.stats()]), [(218, 645_152)]);
}

/// Framed shuffles share the governed reduce side, so checked mode's merge
/// audit (per-bucket counts recorded at admission, verified at the merge)
/// covers them, spilled or not.
#[test]
fn loopback_shuffles_pass_the_checked_merge_audit() {
    let base = typed_move();
    for budget in [0, 64 << 10] {
        let rt = Runtime::with_partitions(4, 8);
        rt.set_exchange(Arc::new(Loopback::new(rt.exchange_counters())));
        rt.set_checked(true);
        rt.set_mem_budget(budget);
        assert!(workload(&rt) == base, "budget {budget}");
        assert_eq!(rt.stats().spill_files > 0, budget > 0, "budget {budget}");
    }
}

/// Per shard, `(frames_sent, bytes_exchanged)`: *what* is framed is pinned
/// along with the result bytes, so a change to the reduce side cannot quietly
/// change the traffic.
fn traffic(stats: &[RuntimeStats]) -> Vec<(u64, u64)> {
    stats
        .iter()
        .map(|st| (st.frames_sent, st.bytes_exchanged))
        .collect()
}

#[test]
fn two_shard_tcp_is_byte_identical_to_the_typed_move() {
    let (out, stats) = run_sharded(2, 8, |_| ());
    assert!(out == typed_move());
    assert_eq!(traffic(&stats), [(88, 301_056), (84, 296_680)]);
}

#[test]
fn four_shard_tcp_is_byte_identical_to_the_typed_move() {
    let (out, stats) = run_sharded(4, 8, |_| ());
    assert!(out == typed_move());
    assert_eq!(
        traffic(&stats),
        [(92, 318_648), (90, 309_832), (88, 353_504), (86, 327_416)]
    );
}

/// A sharded shuffle's received buckets pass under the byte budget like any
/// other: every shard spills, and the bytes do not change.
#[test]
fn two_shard_tcp_spills_under_a_byte_budget_and_stays_byte_identical() {
    let (out, stats) = run_sharded(2, 8, |rt| rt.set_mem_budget(64 << 10));
    assert!(out == typed_move());
    for (s, st) in stats.iter().enumerate() {
        assert!(st.spill_files > 0, "shard {s} never spilled: {st:?}");
    }
}

#[test]
fn sharded_elision_still_works() {
    // The second reduce_by_key in the workload is elided; make sure a
    // sharded runtime elides it too (owned-partition emptiness keeps the
    // audit trivially satisfied).
    let mut listeners = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..2 {
        let (l, a) = TcpExchange::bind("127.0.0.1:0").expect("bind");
        listeners.push(l);
        addrs.push(a.to_string());
    }
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(s, listener)| {
            let addrs = addrs.clone();
            std::thread::spawn(move || {
                let rt = Runtime::with_partitions(2, 4);
                let ex = TcpExchange::start(
                    listener,
                    ShardLayout::new(s, 2),
                    addrs,
                    rt.exchange_counters(),
                    Duration::from_secs(20),
                )
                .expect("start exchange");
                rt.set_exchange(ex);
                let d = Dataset::from_vec(&rt, (0..100u64).map(|i| (i % 7, i)).collect::<Vec<_>>());
                let reduced = d.reduce_by_key(&rt, |a, b| a + b);
                let _ = reduced.collect(&rt);
                let before = rt.stats();
                let _ = reduced.reduce_by_key(&rt, |a, b| a + b).collect(&rt);
                rt.stats().since(&before)
            })
        })
        .collect();
    for h in handles {
        let delta = h.join().expect("shard thread");
        assert_eq!(delta.shuffles, 0, "second reduce must be elided");
        assert_eq!(delta.shuffles_elided, 1);
    }
}
