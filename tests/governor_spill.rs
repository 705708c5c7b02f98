//! End-to-end properties of the memory governor: a byte budget makes wide
//! operators spill shuffle buckets to disk, yet every observable result —
//! collected rows, reduced aggregates, the analyzed lineage — is
//! byte-identical to the unbudgeted in-memory run. The governor is an
//! execution concern only; the planner must never see it.

use tgraph_dataflow::{shuffle, Dataset, KeyedDataset, Runtime, SpillError};

/// A deterministic keyed dataset: `rows` pairs over `parts` partitions with
/// a mildly skewed key distribution, big enough to overflow a small budget.
fn keyed_input(rows: usize, parts: usize) -> Vec<Vec<(u64, u64)>> {
    let mut out = vec![Vec::new(); parts];
    let mut state = 0x5EED_u64;
    for i in 0..rows {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let key = (state >> 33) % 97;
        out[i % parts].push((key, i as u64));
    }
    out
}

/// A per-test runtime with checked-mode audits on and a unique spill dir,
/// so concurrent tests never share run files.
fn runtime_with_spill_dir(tag: &str) -> Runtime {
    let rt = Runtime::with_partitions(4, 8);
    rt.set_checked(true);
    let dir = std::env::temp_dir().join(format!("tgraph-governor-it-{}-{tag}", std::process::id()));
    rt.governor().set_spill_dir(&dir);
    rt
}

/// Sorted `(key, value)` rows: one vector per collected workload.
type Rows = Vec<(u64, u64)>;

fn run_workload(rt: &Runtime, parts: &[Vec<(u64, u64)>]) -> (Rows, Rows) {
    let input = Dataset::from_partitions(parts.to_vec());
    let mut shuffled = shuffle(rt, &input).collect(rt);
    shuffled.sort_unstable();
    let mut reduced = shuffle(rt, &input)
        .reduce_by_key(rt, |a, b| a.wrapping_add(*b))
        .collect(rt);
    reduced.sort_unstable();
    (shuffled, reduced)
}

#[test]
fn budgeted_spilling_run_is_byte_identical_to_in_memory() {
    let data = keyed_input(20_000, 8);
    let rt = runtime_with_spill_dir("identity");

    rt.set_mem_budget(0);
    let reference = run_workload(&rt, &data);
    let unbudgeted = rt.stats();
    assert_eq!(unbudgeted.bytes_spilled, 0, "no budget, no spills");
    assert_eq!(unbudgeted.spill_files, 0);

    rt.set_mem_budget(32 << 10);
    let spilled = run_workload(&rt, &data);
    let d = rt.stats().since(&unbudgeted);
    assert!(d.bytes_spilled > 0, "a 32 KiB budget must force spills");
    assert!(d.spill_files > 0);
    assert_eq!(spilled, reference, "spilling must not change any byte");
}

/// The spill-smoke CI job runs this suite and the dataflow suite under
/// `TGRAPH_MEM_BYTES=64k`; that is only a budgeted run if the variable
/// reaches a fresh runtime's governor.
#[test]
fn env_budget_reaches_a_fresh_runtime() {
    let Ok(v) = std::env::var("TGRAPH_MEM_BYTES") else {
        return;
    };
    let rt = Runtime::new(1);
    assert!(
        rt.mem_budget() > 0,
        "TGRAPH_MEM_BYTES={v} left a fresh runtime unbudgeted"
    );
}

#[test]
fn lineage_fingerprints_do_not_see_the_governor() {
    let data = keyed_input(500, 4);
    let plan = |rt: &Runtime| {
        let input = Dataset::from_partitions(data.clone());
        let reduced = shuffle(rt, &input).reduce_by_key(rt, |a, b| a + b);
        tgraph_analyze::analyze(&reduced.lineage()).render()
    };

    let rt = runtime_with_spill_dir("fingerprint");
    rt.set_mem_budget(0);
    let without = plan(&rt);
    rt.set_mem_budget(16 << 10);
    let with = plan(&rt);
    assert_eq!(
        without, with,
        "the planner and its lineage must be governor-invisible"
    );
}

#[test]
fn grouping_state_moves_the_peak_gauge() {
    let data = keyed_input(8_000, 8);
    let rt = runtime_with_spill_dir("peak");
    rt.set_mem_budget(1 << 30); // enabled, but far too big to spill
    let input = Dataset::from_partitions(data);
    let groups = shuffle(&rt, &input).group_by_key(&rt).collect(&rt);
    assert!(!groups.is_empty());
    let stats = rt.stats();
    assert!(
        stats.peak_bytes > 0,
        "combine state must be charged to the governor's peak gauge"
    );
    assert_eq!(stats.bytes_spilled, 0, "a 1 GiB budget must not spill");
}

#[test]
fn failed_spill_fails_the_wave_with_a_typed_error_and_leaks_nothing() {
    let data = keyed_input(20_000, 8);
    let rt = Runtime::with_partitions(4, 8);
    rt.set_checked(true);
    rt.set_mem_budget(16 << 10);
    // A regular file where the spill directory should be: every create under
    // it fails, for any uid.
    let blocker =
        std::env::temp_dir().join(format!("tgraph-governor-it-blocker-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").expect("create blocker file");
    rt.governor().set_spill_dir(&blocker);

    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let input = Dataset::from_partitions(data.clone());
        shuffle(&rt, &input).collect(&rt)
    }));
    let Err(payload) = result else {
        panic!("a spill into a file path must fail the wave");
    };
    let err = payload
        .downcast_ref::<SpillError>()
        .expect("the panic payload must be a typed SpillError");
    assert!(
        matches!(err, SpillError::Io { .. }),
        "expected an I/O spill error, got {err:?}"
    );
    assert_eq!(
        std::fs::read(&blocker)
            .expect("blocker still present")
            .as_slice(),
        b"not a directory",
        "the failed spill must not clobber the blocking file"
    );
    std::fs::remove_file(&blocker).ok();

    // The same runtime recovers once the spill dir is valid again.
    let dir =
        std::env::temp_dir().join(format!("tgraph-governor-it-recover-{}", std::process::id()));
    rt.governor().set_spill_dir(&dir);
    let input = Dataset::from_partitions(data.clone());
    let mut rows = shuffle(&rt, &input).collect(&rt);
    rows.sort_unstable();
    let mut expected: Vec<(u64, u64)> = data.into_iter().flatten().collect();
    expected.sort_unstable();
    assert_eq!(rows, expected);
    // All spill runs are RAII-deleted once their exchange is merged.
    let leftovers = std::fs::read_dir(&dir).map(|rd| rd.count()).unwrap_or(0);
    assert_eq!(leftovers, 0, "run files must not outlive their exchange");
}

/// The governed runtime drops an `Arc` per run handle as buckets merge; a
/// second full pass over the same runtime must start from a clean gauge.
#[test]
fn charges_drain_back_to_zero_between_waves() {
    let data = keyed_input(10_000, 8);
    let rt = runtime_with_spill_dir("drain");
    rt.set_mem_budget(32 << 10);
    for _ in 0..3 {
        let _ = run_workload(&rt, &data);
        assert_eq!(
            rt.governor().used(),
            0,
            "exchange charges must be fully released after collect"
        );
    }
}
