//! Temporal coalescing (§4): merging adjacent and overlapping time periods of
//! value-equivalent tuples so that each fact is represented by a single tuple
//! per period of maximal length during which no change occurred.
//!
//! The dataflow kernels use the *partitioning method* described in the
//! paper: group the relation by key, sort each group by interval start, then
//! fold over the group checking pairs of adjacent tuples for
//! value-equivalence ([`coalesce_group`]). A relation collected onto one
//! thread is coalesced by one stable sort on `(key, start, end)` and one
//! in-place fold over neighbours ([`coalesce_vertices`], [`coalesce_edges`],
//! [`TGraph::into_coalesced`]): the same fold, with no map.

use crate::graph::{EdgeRecord, TGraph, VertexRecord};
use crate::props::Props;
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

/// Coalesces a collected keyed relation in place: drops empty intervals,
/// stable-sorts by `(key, start, end)` and folds each fact into its kept
/// predecessor when both have the same key and value and their intervals are
/// mergeable. Per key this is [`coalesce_group`], with no map and no copy of
/// a value; the result is sorted by `(key, start, end)`.
fn coalesce_sorted<T, K: Ord>(
    mut facts: Vec<T>,
    view: impl Fn(&T) -> (K, Interval, &Props),
    interval: impl Fn(&mut T) -> &mut Interval,
) -> Vec<T> {
    facts.retain(|f| !view(f).1.is_empty());
    facts.sort_by(|a, b| {
        let ((ka, ia, _), (kb, ib, _)) = (view(a), view(b));
        (ka, ia).cmp(&(kb, ib))
    });
    facts.dedup_by(|next, kept| {
        let ((kn, iv, vn), (kk, ik, vk)) = (view(next), view(kept));
        let merge = kn == kk && vn == vk && ik.mergeable(&iv);
        if merge {
            interval(kept).end = ik.end.max(iv.end);
        }
        merge
    });
    facts
}

/// Coalesces the vertex relation of a logical TGraph, sorted by
/// `(vid, start, end)`.
pub fn coalesce_vertices(vertices: Vec<VertexRecord>) -> Vec<VertexRecord> {
    coalesce_sorted(
        vertices,
        |v| (v.vid, v.interval, &v.props),
        |v| &mut v.interval,
    )
}

/// Coalesces the edge relation of a logical TGraph, sorted by
/// `(eid, src, dst, start, end)`. The key includes the endpoints so that
/// (pathological) same-id edges with different endpoints are never merged.
pub fn coalesce_edges(edges: Vec<EdgeRecord>) -> Vec<EdgeRecord> {
    coalesce_sorted(
        edges,
        |e| ((e.eid, e.src, e.dst), e.interval, &e.props),
        |e| &mut e.interval,
    )
}

impl TGraph {
    /// Coalesces both relations of this graph in place, in the order of
    /// [`coalesce_vertices`] and [`coalesce_edges`].
    pub fn into_coalesced(self) -> TGraph {
        TGraph {
            lifespan: self.lifespan,
            vertices: coalesce_vertices(self.vertices),
            edges: coalesce_edges(self.edges),
        }
    }
}

/// Coalesces a copy of a logical TGraph (see [`TGraph::into_coalesced`]), so
/// results compare structurally.
pub fn coalesce_graph(g: &TGraph) -> TGraph {
    g.clone().into_coalesced()
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
