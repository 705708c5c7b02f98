//! Temporal coalescing (§4): merging adjacent and overlapping time periods of
//! value-equivalent tuples so that each fact is represented by a single tuple
//! per period of maximal length during which no change occurred.
//!
//! We implement the *partitioning method* described in the paper: group the
//! relation by key, sort each group by interval start, then fold over the
//! group checking pairs of adjacent tuples for value-equivalence.

use crate::graph::{EdgeRecord, TGraph, VertexRecord};
use crate::time::Interval;
use std::collections::HashMap;
use std::hash::Hash;

/// Whether the facts of one entity are already in coalesced form: non-empty,
/// sorted by `(start, end)`, and no neighbouring pair value-equivalent and
/// mergeable. [`coalesce_group`] maps exactly these inputs to themselves.
pub fn is_coalesced_run<V: Eq>(facts: &[(Interval, V)]) -> bool {
    facts.iter().all(|(iv, _)| !iv.is_empty())
        && facts.windows(2).all(|w| {
            let ((a, va), (b, vb)) = (&w[0], &w[1]);
            (a.start, a.end) <= (b.start, b.end) && !(va == vb && a.mergeable(b))
        })
}

/// Coalesces a group of `(interval, value)` facts that all belong to the same
/// entity key. Returns maximal-length facts sorted by start time; input that
/// is already coalesced (history arrays, loader output) is returned as is.
///
/// Overlapping intervals with *different* values are invalid input (an entity
/// exists at most once per time point); this function resolves them
/// deterministically by letting the later-starting tuple clip the earlier
/// one, but validation (see [`crate::validate`]) rejects such graphs.
pub fn coalesce_group<V: Eq>(mut facts: Vec<(Interval, V)>) -> Vec<(Interval, V)> {
    if is_coalesced_run(&facts) {
        return facts;
    }
    facts.retain(|(iv, _)| !iv.is_empty());
    facts.sort_by_key(|(iv, _)| (iv.start, iv.end));
    let mut out: Vec<(Interval, V)> = Vec::with_capacity(facts.len());
    for (iv, val) in facts {
        match out.last_mut() {
            Some((last_iv, last_val)) if *last_val == val && last_iv.mergeable(&iv) => {
                last_iv.end = last_iv.end.max(iv.end);
            }
            _ => out.push((iv, val)),
        }
    }
    out
}

/// Coalesces an arbitrary keyed temporal relation: facts are grouped by `key`,
/// each group is coalesced with [`coalesce_group`], and the result is
/// returned flattened (grouped runs, sorted by start within each key).
pub fn coalesce_relation<K, V, T>(
    items: Vec<T>,
    key: impl Fn(&T) -> K,
    interval: impl Fn(&T) -> Interval,
    value: impl Fn(&T) -> V,
    rebuild: impl Fn(&K, Interval, V) -> T,
) -> Vec<T>
where
    K: Eq + Hash + Clone,
    V: Eq + Clone,
{
    let mut groups: HashMap<K, Vec<(Interval, V)>> = HashMap::new();
    for item in &items {
        groups
            .entry(key(item))
            .or_default()
            .push((interval(item), value(item)));
    }
    let mut out = Vec::with_capacity(items.len());
    for (k, facts) in groups {
        for (iv, v) in coalesce_group(facts) {
            out.push(rebuild(&k, iv, v));
        }
    }
    out
}

/// Coalesces the vertex relation of a logical TGraph.
pub fn coalesce_vertices(vertices: Vec<VertexRecord>) -> Vec<VertexRecord> {
    coalesce_relation(
        vertices,
        |v| v.vid,
        |v| v.interval,
        |v| v.props.clone(),
        |vid, interval, props| VertexRecord {
            vid: *vid,
            interval,
            props,
        },
    )
}

/// Coalesces the edge relation of a logical TGraph. The key includes the
/// endpoints so that (pathological) same-id edges with different endpoints
/// are never merged.
pub fn coalesce_edges(edges: Vec<EdgeRecord>) -> Vec<EdgeRecord> {
    coalesce_relation(
        edges,
        |e| (e.eid, e.src, e.dst),
        |e| e.interval,
        |e| e.props.clone(),
        |(eid, src, dst), interval, props| EdgeRecord {
            eid: *eid,
            src: *src,
            dst: *dst,
            interval,
            props,
        },
    )
}

/// Coalesces a whole logical TGraph, producing deterministic ordering
/// (sorted by id, then start) so results compare structurally.
pub fn coalesce_graph(g: &TGraph) -> TGraph {
    let mut vertices = coalesce_vertices(g.vertices.clone());
    let mut edges = coalesce_edges(g.edges.clone());
    vertices.sort_by_key(|v| (v.vid, v.interval.start));
    edges.sort_by_key(|e| (e.eid, e.interval.start));
    TGraph {
        lifespan: g.lifespan,
        vertices,
        edges,
    }
}

/// Whether a keyed temporal relation is already coalesced: no two
/// value-equivalent facts of the same key are adjacent or overlapping.
///
/// A relation sorted by `(key, start, end)` — what the loader emits — is
/// checked in one pass over neighbouring facts; any other order falls back
/// to grouping by key.
pub fn is_coalesced<'a, K, V>(facts: impl Iterator<Item = (K, Interval, &'a V)> + Clone) -> bool
where
    K: Ord + Hash,
    V: Eq + 'a,
{
    let mut coalesced = true;
    let mut prev: Option<(K, Interval, &V)> = None;
    let sorted = facts.clone().all(|(k, iv, v)| {
        coalesced &= !iv.is_empty();
        let in_order = match &prev {
            None => true,
            Some((pk, piv, pv)) => match pk.cmp(&k) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => {
                    coalesced &= !(*pv == v && piv.mergeable(&iv));
                    (piv.start, piv.end) <= (iv.start, iv.end)
                }
                std::cmp::Ordering::Greater => false,
            },
        };
        prev = Some((k, iv, v));
        in_order
    });
    if sorted {
        return coalesced;
    }
    let mut groups: HashMap<K, Vec<(Interval, &V)>> = HashMap::new();
    for (k, iv, v) in facts {
        groups.entry(k).or_default().push((iv, v));
    }
    groups.into_values().all(|mut group| {
        group.sort_by_key(|(iv, _)| (iv.start, iv.end));
        is_coalesced_run(&group)
    })
}

/// Whether an entire graph is coalesced.
pub fn graph_is_coalesced(g: &TGraph) -> bool {
    is_coalesced(g.vertices.iter().map(|v| (v.vid, v.interval, &v.props)))
        // Edge identity includes the endpoints: aZoom^T can re-point the
        // same eid to different group nodes over time.
        && is_coalesced(
            g.edges
                .iter()
                .map(|e| ((e.eid, e.src, e.dst), e.interval, &e.props)),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::figure1_graph_stable_ids;
    use crate::props::Props;

    #[test]
    fn merges_adjacent_equal_values() {
        let out = coalesce_group(vec![
            (Interval::new(1, 3), "a"),
            (Interval::new(3, 5), "a"),
            (Interval::new(5, 7), "b"),
            (Interval::new(7, 9), "a"),
        ]);
        assert_eq!(
            out,
            vec![
                (Interval::new(1, 5), "a"),
                (Interval::new(5, 7), "b"),
                (Interval::new(7, 9), "a"),
            ]
        );
    }

    #[test]
    fn merges_overlapping_equal_values() {
        let out = coalesce_group(vec![(Interval::new(1, 4), "a"), (Interval::new(2, 6), "a")]);
        assert_eq!(out, vec![(Interval::new(1, 6), "a")]);
    }

    #[test]
    fn keeps_gap_separated_values() {
        let out = coalesce_group(vec![(Interval::new(1, 3), "a"), (Interval::new(5, 7), "a")]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn drops_empty_intervals() {
        let out = coalesce_group(vec![(Interval::empty(), "a"), (Interval::new(1, 2), "a")]);
        assert_eq!(out, vec![(Interval::new(1, 2), "a")]);
    }

    #[test]
    fn figure1_is_already_coalesced() {
        let g = figure1_graph_stable_ids();
        assert!(graph_is_coalesced(&g));
        let c = coalesce_graph(&g);
        assert_eq!(c.vertex_tuple_count(), 4);
        assert_eq!(c.edge_tuple_count(), 2);
    }

    #[test]
    fn uncoalesced_graph_is_detected_and_fixed() {
        let mut g = figure1_graph_stable_ids();
        // Split Cat's [1,9) fact into [1,4) + [4,9) — value-equivalent pieces.
        let cat = g.vertices.remove(3);
        let mut a = cat.clone();
        a.interval = Interval::new(1, 4);
        let mut b = cat;
        b.interval = Interval::new(4, 9);
        g.vertices.push(a);
        g.vertices.push(b);
        assert!(!graph_is_coalesced(&g));
        let c = coalesce_graph(&g);
        assert!(graph_is_coalesced(&c));
        assert_eq!(c.vertex_tuple_count(), 4);
        let cat_back = c.vertices.iter().find(|v| v.vid.0 == 3).unwrap();
        assert_eq!(cat_back.interval, Interval::new(1, 9));
    }

    #[test]
    fn bob_states_do_not_merge() {
        // Bob's two states differ in props, so they must remain two tuples
        // even though their intervals are adjacent.
        let g = coalesce_graph(&figure1_graph_stable_ids());
        let bob: Vec<_> = g.vertices.iter().filter(|v| v.vid.0 == 2).collect();
        assert_eq!(bob.len(), 2);
    }

    #[test]
    fn coalesce_is_idempotent() {
        let g = coalesce_graph(&figure1_graph_stable_ids());
        assert_eq!(coalesce_graph(&g), g);
    }

    #[test]
    fn coalesce_vertices_with_distinct_ids_untouched() {
        let v = vec![
            VertexRecord::new(1, Interval::new(0, 2), Props::typed("a")),
            VertexRecord::new(2, Interval::new(2, 4), Props::typed("a")),
        ];
        assert_eq!(coalesce_vertices(v).len(), 2);
    }
}
