//! Property-based tests for the lazy plan-based dataflow engine: fused
//! narrow chains must agree element-for-element with the eager iterator
//! reference, fusion must execute a whole narrow chain in a single task
//! wave, and keyed operators on pre-partitioned inputs must move no data.

use proptest::prelude::*;
use tgraph_dataflow::{shuffle, Dataset, KeyedDataset, Runtime};

/// Applies one narrow step eagerly to a plain vector — the reference
/// semantics the fused pipeline must reproduce.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// `map(|x| x * a + b)`.
    MapAffine(i64, i64),
    /// `filter(|x| x % m != r)`.
    FilterMod(i64, i64),
    /// `flat_map(|x| [x; k])`.
    Repeat(usize),
}

impl Step {
    fn apply_eager(&self, input: Vec<i64>) -> Vec<i64> {
        match *self {
            Step::MapAffine(a, b) => input
                .into_iter()
                .map(|x| x.wrapping_mul(a).wrapping_add(b))
                .collect(),
            Step::FilterMod(m, r) => input.into_iter().filter(|x| x.rem_euclid(m) != r).collect(),
            Step::Repeat(k) => input
                .into_iter()
                .flat_map(|x| std::iter::repeat_n(x, k))
                .collect(),
        }
    }

    fn apply_lazy(&self, input: Dataset<i64>) -> Dataset<i64> {
        match *self {
            Step::MapAffine(a, b) => input.map(move |x| x.wrapping_mul(a).wrapping_add(b)),
            Step::FilterMod(m, r) => input.filter(move |x| x.rem_euclid(m) != r),
            Step::Repeat(k) => input.flat_map(move |x| vec![*x; k]),
        }
    }
}

fn arb_step() -> impl Strategy<Value = Step> {
    (0u8..3, -5i64..6, 1i64..7, 0usize..4).prop_map(|(kind, a, m, k)| match kind {
        0 => Step::MapAffine(a, m),
        1 => Step::FilterMod(m, a.rem_euclid(m)),
        _ => Step::Repeat(k),
    })
}

proptest! {
    /// An arbitrary chain of narrow transformations, fused into one deferred
    /// plan and collected once, yields exactly the sequence the eager
    /// per-operator reference produces.
    #[test]
    fn fused_narrow_chain_matches_eager_reference(
        input in prop::collection::vec(-1000i64..1000, 0..60),
        steps in prop::collection::vec(arb_step(), 0..6),
        parts in 1usize..6,
    ) {
        let rt = Runtime::with_partitions(2, parts);
        let mut lazy = Dataset::from_vec_with(parts, input.clone());
        let mut eager = input.clone();
        for s in &steps {
            lazy = s.apply_lazy(lazy);
            eager = s.apply_eager(eager);
        }
        prop_assert_eq!(lazy.collect(&rt), eager);
    }

    /// A map→filter→map chain ending in an action executes as ONE task wave:
    /// the three operators fuse into a single per-partition pass instead of
    /// three materialization rounds.
    #[test]
    fn narrow_chain_runs_in_one_wave(
        input in prop::collection::vec(-1000i64..1000, 1..80),
        parts in 1usize..6,
    ) {
        let rt = Runtime::with_partitions(2, parts);
        let d = Dataset::from_vec_with(parts, input.clone());
        let chained = d
            .map(|x| x.wrapping_mul(3))
            .filter(|x| x % 2 == 0)
            .map(|x| x + 1);
        let before = rt.stats();
        let n = chained.count(&rt);
        let delta = rt.stats().since(&before);
        prop_assert_eq!(delta.waves, 1, "narrow chain + count took {} waves", delta.waves);
        // One task per partition — including single-task batches, which run
        // inline on the caller but are still counted.
        prop_assert_eq!(delta.tasks, parts as u64);
        let _ = n;
    }

    /// `reduce_by_key` on an input already hash-partitioned by key performs
    /// ZERO shuffle rounds and moves zero records/bytes: the partitioning
    /// tag proves co-location, so the exchange is elided.
    #[test]
    fn reduce_by_key_on_prepartitioned_input_moves_nothing(
        pairs in prop::collection::vec((0u64..40, -100i64..100), 1..120),
        parts in 1usize..6,
    ) {
        let rt = Runtime::with_partitions(2, parts);
        let keyed = shuffle(&rt, &Dataset::from_vec_with(parts, pairs.clone()));

        let before = rt.stats();
        let reduced = keyed.reduce_by_key(&rt, |a, b| a + b);
        let mut got = reduced.collect(&rt);
        let delta = rt.stats().since(&before);

        prop_assert_eq!(delta.shuffles, 0, "expected shuffle elision");
        prop_assert_eq!(delta.shuffled_records, 0);
        prop_assert_eq!(delta.shuffled_bytes, 0);
        prop_assert_eq!(delta.shuffles_elided, 1);

        let mut expect = std::collections::BTreeMap::new();
        for &(k, v) in &pairs {
            *expect.entry(k).or_insert(0i64) += v;
        }
        got.sort_unstable();
        prop_assert_eq!(got, expect.into_iter().collect::<Vec<_>>());
    }
}
