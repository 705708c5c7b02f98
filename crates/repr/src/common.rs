//! Helpers shared by the physical representations' operator plans.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use tgraph_core::coalesce::{coalesce_edges, coalesce_group, coalesce_vertices, is_coalesced_run};
use tgraph_core::graph::{EdgeId, EdgeRecord, TGraph, VertexId, VertexRecord};
use tgraph_core::props::Props;
use tgraph_core::time::{Interval, Time};
use tgraph_core::zoom::azoom::{AZoomSpec, AggAccumulator};
use tgraph_core::zoom::wzoom::Quantifier;
use tgraph_dataflow::lock_unpoisoned;

/// A temporal state: a validity interval plus the property assignment held
/// during it. The unit of history arrays (OG) and of per-window resolution.
pub type State = (Interval, Props);

/// Coalesces a list of states of one entity (merging value-equivalent
/// adjacent/overlapping intervals) and returns them sorted by start. States
/// already in that form — history arrays, window clips of one — are lent
/// back untouched.
pub fn coalesce_states(states: &[State]) -> Cow<'_, [State]> {
    if is_coalesced_run(states) {
        Cow::Borrowed(states)
    } else {
        Cow::Owned(coalesce_group(states.to_vec()))
    }
}

/// What identifies an edge entity: its id and its endpoint pair.
pub type EdgeKey = (EdgeId, VertexId, VertexId);

/// One relation as history arrays: one entry per entity, its states sorted
/// by start and coalesced. What the OG and OGC constructors build from.
pub type Histories<K> = Vec<(K, Vec<State>)>;

/// The grouper: the facts of a logical graph as per-entity histories in key
/// order, the vertex relation and the edge relation. Each relation is
/// coalesced by one sort ([`coalesce_vertices`], [`coalesce_edges`]) and cut
/// where the key changes, so a graph read from the entity-ordered `.tgc`
/// groups with no map; the records move into the histories.
pub fn histories_of(g: TGraph) -> (Histories<VertexId>, Histories<EdgeKey>) {
    let vertices = runs(
        coalesce_vertices(g.vertices),
        |v| v.vid,
        |v| (v.interval, v.props),
    );
    let edges = runs(
        coalesce_edges(g.edges),
        |e| (e.eid, e.src, e.dst),
        |e| (e.interval, e.props),
    );
    (vertices, edges)
}

/// Cuts `facts`, sorted by key, into one history per run of equal keys.
fn runs<T, K: Copy + Eq>(
    facts: Vec<T>,
    key: impl Fn(&T) -> K,
    state: impl Fn(T) -> State,
) -> Histories<K> {
    let lens: Vec<usize> = facts
        .chunk_by(|a, b| key(a) == key(b))
        .map(<[T]>::len)
        .collect();
    let mut facts = facts.into_iter().peekable();
    let mut out = Vec::with_capacity(lens.len());
    for len in lens {
        if let Some(k) = facts.peek().map(&key) {
            out.push((k, facts.by_ref().take(len).map(&state).collect()));
        }
    }
    out
}

/// The base properties of `aZoom^T` group nodes where one group is met many
/// times (by every OG edge that touches it, in every RG snapshot it lives
/// through): a base belongs to the group, so it is built the first time the
/// group is met and shared — one allocation, however many copies — after.
pub struct GroupBases {
    spec: Arc<AZoomSpec>,
    /// Sharded by group id, so the dataflow workers rarely meet on one lock.
    built: [Mutex<HashMap<u64, Props>>; 16],
}

impl GroupBases {
    /// An empty set of bases for the groups of `spec`.
    pub fn new(spec: Arc<AZoomSpec>) -> Self {
        GroupBases {
            spec,
            built: Default::default(),
        }
    }

    /// The base of group `gid`, built from the member state `(vid, props)`
    /// if this is the first time the group is met. `None` only if the Skolem
    /// function refuses a state whose group id it minted.
    pub fn of(&self, gid: u64, vid: VertexId, props: &Props) -> Option<Props> {
        let mut shard = lock_unpoisoned(&self.built[gid as usize % self.built.len()]);
        if let Some(base) = shard.get(&gid) {
            return Some(base.clone());
        }
        let base = self.spec.group_base(vid, props)?;
        shard.insert(gid, base.clone());
        Some(base)
    }
}

/// Computes the zoomed history of one `aZoom^T` group node from its member
/// states `(vertex, state)`. The group node's base properties come from the
/// first member, once per group.
///
/// The members' intervals are split at every boundary (the temporal-splitter
/// technique of Algorithm 2); within each elementary interval the group
/// membership is constant, so the aggregation function is applied to the
/// members alive in it; finally value-equivalent adjacent intervals coalesce,
/// which is exactly the per-snapshot evaluation + coalescing that point
/// semantics prescribe.
///
/// Runs as one sweep over the sorted interval ends, carrying the aggregate
/// from one elementary interval to the next; only where a member's
/// contribution cannot be put in or taken out exactly are the live members
/// folded again.
pub fn aggregate_group_history(spec: &AZoomSpec, members: &[(VertexId, State)]) -> Vec<State> {
    let Some(base) = members
        .first()
        .and_then(|(vid, (_, props))| spec.group_base(*vid, props))
    else {
        return Vec::new();
    };
    // (time, joins, member): at equal times leavers sort before joiners.
    let mut ends: Vec<(Time, bool, usize)> = Vec::with_capacity(2 * members.len());
    for (i, (_, (iv, _))) in members.iter().enumerate() {
        if !iv.is_empty() {
            ends.push((iv.start, true, i));
            ends.push((iv.end, false, i));
        }
    }
    ends.sort_unstable();

    let mut out: Vec<State> = Vec::new();
    let mut acc = AggAccumulator::new(spec.aggs.clone());
    let (mut alive, mut exact) = (0usize, true);
    let mut k = 0;
    while k < ends.len() {
        let t = ends[k].0;
        while let Some(&(_, joins, i)) = ends.get(k).filter(|e| e.0 == t) {
            let props = &members[i].1 .1;
            if joins {
                alive += 1;
                exact &= acc.insert(props);
            } else {
                alive -= 1;
                exact &= acc.retract(props);
            }
            k += 1;
        }
        let Some(&(next, ..)) = ends.get(k) else {
            break;
        };
        if !exact || alive == 0 {
            acc = AggAccumulator::new(spec.aggs.clone());
            exact = true;
            if alive == 0 {
                continue;
            }
            for (_, (_, props)) in members.iter().filter(|(_, (iv, _))| iv.contains(t)) {
                acc.update(props);
            }
        }
        let props = acc.finish(&base);
        match out.last_mut() {
            Some((last, held)) if last.end == t && *held == props => last.end = next,
            _ => out.push((Interval::new(t, next), props)),
        }
    }
    out
}

/// Applies the window quantifier + resolve step of `wZoom^T` to one entity's
/// states inside one window (`match_threshold` + `f_v`/`f_e` of Algorithms
/// 4–6 in a single call).
///
/// `states` hold the *window-clipped* intervals. Returns the representative
/// properties if the entity's total coverage of `window` satisfies `quant`.
pub fn window_reduce(
    window: Interval,
    states: &[State],
    quant: &Quantifier,
    resolve: impl FnOnce(&[State]) -> Props,
) -> Option<Props> {
    // Coalesce first so coverage counts each time point once and resolve
    // functions see maximal states (correctness requires coalesced input,
    // §3.2).
    let states = coalesce_states(states);
    let covered: u64 = states.iter().map(|(iv, _)| iv.len()).sum();
    let r = covered as f64 / window.len() as f64;
    quant.satisfied(r).then(|| resolve(&states))
}

/// `wZoom^T` of one history array: a single walk of the sorted, coalesced
/// `history` against the sorted window relation, emitting one state per
/// window the entity's coverage satisfies `quant` in, coalesced.
pub fn rezoom_history(
    history: &[State],
    windows: &[Interval],
    quant: &Quantifier,
    resolve: impl Fn(&[State]) -> Props,
) -> Vec<State> {
    let mut out: Vec<State> = Vec::new();
    let mut clipped: Vec<State> = Vec::new();
    let (mut h, mut w) = (0, 0);
    while h < history.len() && w < windows.len() {
        let window = windows[w];
        if history[h].0.end <= window.start {
            h += 1;
            continue;
        }
        if history[h].0.start >= window.end {
            // Nothing of the entity in this window: jump to the one its next
            // state starts in.
            w += windows[w..].partition_point(|x| x.end <= history[h].0.start);
            continue;
        }
        clipped.clear();
        clipped.extend(
            history[h..]
                .iter()
                .map_while(|(iv, props)| Some((iv.intersect(&window)?, props.clone()))),
        );
        // Clips of a coalesced history are coalesced: no sort, no merge.
        if let Some(props) = window_reduce(window, &clipped, quant, &resolve) {
            match out.last_mut() {
                Some((last, held)) if last.end == window.start && *held == props => {
                    last.end = window.end;
                }
                _ => out.push((window, props)),
            }
        }
        w += 1;
    }
    out
}

/// One vertex's history laid flat as VE tuples.
pub fn vertex_tuples(vid: VertexId, history: &[State], emit: &mut dyn FnMut(VertexRecord)) {
    for (interval, props) in history {
        emit(VertexRecord {
            vid,
            interval: *interval,
            props: props.clone(),
        });
    }
}

/// One edge's history laid flat as VE tuples.
pub fn edge_tuples(key: EdgeKey, history: &[State], emit: &mut dyn FnMut(EdgeRecord)) {
    let (eid, src, dst) = key;
    for (interval, props) in history {
        emit(EdgeRecord {
            eid,
            src,
            dst,
            interval: *interval,
            props: props.clone(),
        });
    }
}

/// The union of a history's intervals: when the entity exists.
pub fn existence(history: &[State]) -> Vec<Interval> {
    tgraph_core::time::merge_non_overlapping(history.iter().map(|(iv, _)| *iv).collect())
}

/// Clips a history against a set of mask intervals, keeping the attribute
/// values of the history items (the `intersect(e.history, v.history)` step of
/// Algorithm 6).
pub fn clip_history(history: &[State], mask: &[Interval]) -> Vec<State> {
    let mut out = Vec::new();
    for (iv, props) in history {
        for m in mask {
            if let Some(x) = iv.intersect(m) {
                out.push((x, props.clone()));
            }
        }
    }
    coalesce_group(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::hash::Hash;
    use std::sync::Arc;
    use tgraph_core::splitter::splitter;
    use tgraph_core::zoom::azoom::{AggFn, AggSpec};
    use tgraph_core::Value;

    fn members_of(states: Vec<State>) -> Vec<(VertexId, State)> {
        states
            .into_iter()
            .enumerate()
            .map(|(i, s)| (VertexId(i as u64), s))
            .collect()
    }

    #[test]
    fn group_history_counts_members_over_time() {
        // Two members: [1,7) and [1,9) → count 2 during [1,7), 1 during [7,9).
        let spec = AZoomSpec::by_property("school", "school", vec![AggSpec::count("students")]);
        let members = members_of(vec![
            (
                Interval::new(1, 7),
                Props::typed("person").with("school", "MIT"),
            ),
            (
                Interval::new(1, 9),
                Props::typed("person").with("school", "MIT"),
            ),
        ]);
        let history = aggregate_group_history(&spec, &members);
        assert_eq!(history.len(), 2);
        assert_eq!(history[0].0, Interval::new(1, 7));
        assert_eq!(history[0].1.get("students"), Some(&Value::Int(2)));
        assert_eq!(history[0].1.get("school"), Some(&Value::from("MIT")));
        assert_eq!(history[1].0, Interval::new(7, 9));
        assert_eq!(history[1].1.get("students"), Some(&Value::Int(1)));
    }

    #[test]
    fn group_history_coalesces_equal_counts() {
        // Members with a shared boundary but constant count coalesce.
        let spec = AZoomSpec::by_property("g", "group", vec![AggSpec::count("n")]);
        let p = Props::typed("x").with("g", "a");
        let members = members_of(vec![
            (Interval::new(0, 4), p.clone()),
            (Interval::new(4, 8), p.clone()),
        ]);
        let history = aggregate_group_history(&spec, &members);
        let expected = Props::typed("group").with("g", "a").with("n", 1i64);
        assert_eq!(history, vec![(Interval::new(0, 8), expected)]);
    }

    /// The definition the sweep must reproduce: every elementary interval
    /// folds, in member order, the members overlapping it.
    fn history_by_rescan(spec: &AZoomSpec, members: &[(VertexId, State)]) -> Vec<State> {
        let Some((_, base)) = members
            .first()
            .and_then(|(vid, (_, props))| spec.skolemize(*vid, props))
        else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for s in splitter(members.iter().map(|(_, (iv, _))| iv)) {
            let alive: Vec<Props> = members
                .iter()
                .filter(|(_, (iv, _))| iv.overlaps(&s))
                .map(|(_, (_, props))| props.clone())
                .collect();
            if !alive.is_empty() {
                out.push((s, spec.aggregate(base.clone(), alive)));
            }
        }
        coalesce_group(out)
    }

    fn every_agg() -> Vec<AggSpec> {
        let x: Arc<str> = Arc::from("x");
        vec![
            AggSpec::count("n"),
            AggSpec::new("total", AggFn::Sum(x.clone())),
            AggSpec::new("lo", AggFn::Min(x.clone())),
            AggSpec::new("hi", AggFn::Max(x.clone())),
            AggSpec::new("mean", AggFn::Avg(x.clone())),
            AggSpec::new("pick", AggFn::Any(x)),
        ]
    }

    proptest! {
        #[test]
        fn sweep_equals_rescan_of_every_elementary_interval(
            raw in prop::collection::vec((0i64..24, 1i64..9, 0u8..6), 1..40),
            only_count in prop::bool::ANY,
        ) {
            let aggs = if only_count { vec![AggSpec::count("n")] } else { every_agg() };
            let spec = AZoomSpec::by_property("g", "group", aggs);
            let members = members_of(raw.iter().map(|&(start, len, x)| {
                let props = Props::typed("p").with("g", "a");
                // Some members lack the aggregated property; values are not
                // exactly representable sums, so fold order shows.
                let props = if x == 0 { props } else { props.with("x", f64::from(x) * 0.1) };
                (Interval::new(start, start + len), props)
            }).collect());
            prop_assert_eq!(
                aggregate_group_history(&spec, &members),
                history_by_rescan(&spec, &members)
            );
        }
    }

    #[test]
    fn one_group_of_five_thousand_members() {
        // The few-group shape (`by_type`): every vertex in one group, each
        // leaving at the instant a later one joins.
        let spec = AZoomSpec {
            skolem: tgraph_core::zoom::Skolem::ByType,
            new_type: Arc::from("all"),
            aggs: Arc::from(vec![AggSpec::count("members")]),
        };
        let members = members_of(
            (0..5000i64)
                .map(|i| (Interval::new(i, i + 2500), Props::typed("person")))
                .collect(),
        );
        let history = aggregate_group_history(&spec, &members);
        assert_eq!(history, history_by_rescan(&spec, &members));
        assert_eq!(history.first().map(|(iv, _)| iv.start), Some(0));
        let peak = history
            .iter()
            .filter_map(|(_, p)| p.get("members")?.as_int())
            .max();
        assert_eq!(peak, Some(2500));
    }

    /// The grouper `histories_of` replaced, kept as its reference: facts
    /// hashed by key in input order, each group coalesced, groups sorted by
    /// key.
    fn group_histories<K: Copy + Ord + Hash>(
        facts: impl Iterator<Item = (K, State)>,
    ) -> Histories<K> {
        let mut by_key: HashMap<K, Vec<State>> = HashMap::new();
        for (key, state) in facts {
            by_key.entry(key).or_default().push(state);
        }
        let mut out: Histories<K> = by_key
            .into_iter()
            .map(|(key, states)| (key, coalesce_group(states)))
            .collect();
        out.sort_by_key(|(key, _)| *key);
        out
    }

    /// `facts` in an order drawn from `seed`, then the first `dup` of them
    /// again.
    fn shuffled<T: Clone>(mut facts: Vec<T>, seed: u64, dup: usize) -> Vec<T> {
        let mut x = seed | 1;
        for i in (1..facts.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            facts.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let again: Vec<T> = facts.iter().take(dup).cloned().collect();
        facts.extend(again);
        facts
    }

    proptest! {
        #[test]
        fn histories_of_equals_the_hash_grouping_reference(
            raw_v in prop::collection::vec((0u64..6, 0i64..20, 1i64..7, 0u8..3), 0..40),
            raw_e in prop::collection::vec((0u64..5, 0u64..3, 0u64..3, 0i64..20, 1i64..7, 0u8..3), 0..40),
            seed in 0u64..u64::MAX,
            dup in 0usize..12,
        ) {
            // Few ids, values and time points: states of one entity overlap
            // and touch, with equal and with different values, and edges
            // share an `eid` across endpoint pairs.
            let props = |x: u8| Props::typed("t").with("x", i64::from(x));
            let vertices = raw_v.iter().map(|&(id, start, len, x)| {
                VertexRecord::new(id, Interval::new(start, start + len), props(x))
            });
            let edges = raw_e.iter().map(|&(id, src, dst, start, len, x)| EdgeRecord {
                eid: EdgeId(id),
                src: VertexId(src),
                dst: VertexId(dst),
                interval: Interval::new(start, start + len),
                props: props(x),
            });
            let g = TGraph {
                lifespan: Interval::new(0, 26),
                vertices: shuffled(vertices.collect(), seed, dup),
                edges: shuffled(edges.collect(), seed.rotate_left(17), dup),
            };
            let vertex_facts = g.vertices.iter().map(|v| (v.vid, (v.interval, v.props.clone())));
            let edge_facts = g
                .edges
                .iter()
                .map(|e| ((e.eid, e.src, e.dst), (e.interval, e.props.clone())));
            let reference = (group_histories(vertex_facts), group_histories(edge_facts));
            prop_assert_eq!(histories_of(g), reference);
        }
    }

    #[test]
    fn window_reduce_quantifier_gate() {
        let w = Interval::new(0, 4);
        let p = Props::typed("x");
        let half = vec![(Interval::new(0, 2), p.clone())];
        assert!(window_reduce(w, &half, &Quantifier::All, |s| s[0].1.clone()).is_none());
        assert!(window_reduce(w, &half, &Quantifier::Exists, |s| s[0].1.clone()).is_some());
    }

    #[test]
    fn window_reduce_counts_overlap_once() {
        // Uncoalesced duplicate states must not double-count coverage.
        let w = Interval::new(0, 4);
        let p = Props::typed("x");
        let dup = vec![
            (Interval::new(0, 3), p.clone()),
            (Interval::new(1, 4), p.clone()),
        ];
        // Union covers the window fully → `all` passes.
        assert!(window_reduce(w, &dup, &Quantifier::All, |s| s[0].1.clone()).is_some());
    }

    #[test]
    fn clip_history_respects_mask() {
        let p = Props::typed("x");
        let history = vec![(Interval::new(0, 10), p.clone())];
        let mask = vec![Interval::new(2, 4), Interval::new(6, 8)];
        let clipped = clip_history(&history, &mask);
        assert_eq!(
            clipped,
            vec![(Interval::new(2, 4), p.clone()), (Interval::new(6, 8), p)]
        );
    }

    #[test]
    fn rezoom_walks_gaps_and_straddling_states() {
        let a = Props::typed("x").with("v", 1i64);
        let b = Props::typed("x").with("v", 2i64);
        let windows: Vec<Interval> = (0..5).map(|d| Interval::new(d * 3, d * 3 + 3)).collect();
        // [1,4) a | gap | [10,14) b: windows 0,1 see a, window 2 nothing,
        // windows 3 and 4 see b.
        let history = vec![
            (Interval::new(1, 4), a.clone()),
            (Interval::new(10, 14), b.clone()),
        ];
        let any = |s: &[State]| s[0].1.clone();
        assert_eq!(
            rezoom_history(&history, &windows, &Quantifier::Exists, any),
            vec![(Interval::new(0, 6), a), (Interval::new(9, 15), b.clone())]
        );
        // No window is covered entirely.
        assert!(rezoom_history(&history, &windows, &Quantifier::All, any).is_empty());
        assert_eq!(
            rezoom_history(&history, &windows, &Quantifier::Most, any),
            vec![
                (Interval::new(0, 3), history[0].1.clone()),
                (Interval::new(9, 15), b)
            ]
        );
    }
}
