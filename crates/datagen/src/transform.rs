//! Workload transformations used by the paper's controlled experiments:
//! coarsening the snapshot count at fixed size (Fig. 11), projecting random
//! group-by attributes (Figs. 12, 17), and injecting attribute changes at a
//! fixed frequency (Fig. 13).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use tgraph_core::graph::TGraph;
use tgraph_core::time::Interval;

/// Coarsens the time domain by `factor`: every `factor` consecutive time
/// points collapse into one, which merges consecutive snapshots while keeping
/// the number of nodes and edges fixed — the Fig. 11 workload ("we gradually
/// decrease the number of intervals, while we keep the size of the dataset
/// fixed").
///
/// An entity present during any part of a coarse point is present in all of
/// it (its interval is rounded outward), exactly what merging snapshots does.
pub fn coarsen_time(g: &TGraph, factor: u32) -> TGraph {
    assert!(factor > 0, "coarsening factor must be positive");
    let f = factor as i64;
    let origin = g.lifespan.start;
    let map_iv = |iv: Interval| -> Interval {
        let start = (iv.start - origin).div_euclid(f);
        let end = (iv.end - origin + f - 1).div_euclid(f); // ceil
        Interval::new(start, end.max(start + 1))
    };

    // Rounding outward can make consecutive states of one entity overlap in
    // the coarse domain (a merged snapshot sees both states). A merged
    // snapshot must pick one state per entity: the later state wins at the
    // contested boundary, so earlier pieces are trimmed back.
    use std::collections::HashMap;
    let mut v_by_id: HashMap<u64, Vec<tgraph_core::graph::VertexRecord>> = HashMap::new();
    for v in &g.vertices {
        let mut v = v.clone();
        v.interval = map_iv(v.interval);
        v_by_id.entry(v.vid.0).or_default().push(v);
    }
    let mut vertices = Vec::with_capacity(g.vertices.len());
    for (_, mut states) in v_by_id {
        states.sort_by_key(|s| (s.interval.start, s.interval.end));
        for i in 0..states.len() {
            let end = if i + 1 < states.len() {
                states[i].interval.end.min(states[i + 1].interval.start)
            } else {
                states[i].interval.end
            };
            if end > states[i].interval.start {
                let mut s = states[i].clone();
                s.interval = Interval::new(s.interval.start, end);
                vertices.push(s);
            }
        }
    }

    let mut e_by_id: HashMap<(u64, u64, u64), Vec<tgraph_core::graph::EdgeRecord>> = HashMap::new();
    for e in &g.edges {
        let mut e = e.clone();
        e.interval = map_iv(e.interval);
        e_by_id
            .entry((e.eid.0, e.src.0, e.dst.0))
            .or_default()
            .push(e);
    }
    let mut edges = Vec::with_capacity(g.edges.len());
    for (_, mut states) in e_by_id {
        states.sort_by_key(|s| (s.interval.start, s.interval.end));
        for i in 0..states.len() {
            let end = if i + 1 < states.len() {
                states[i].interval.end.min(states[i + 1].interval.start)
            } else {
                states[i].interval.end
            };
            if end > states[i].interval.start {
                let mut s = states[i].clone();
                s.interval = Interval::new(s.interval.start, end);
                edges.push(s);
            }
        }
    }

    TGraph {
        lifespan: map_iv(g.lifespan),
        vertices,
        edges,
    }
    .into_coalesced()
}

/// Projects each vertex's attributes to a random group identifier drawn
/// uniformly from `0..cardinality` (stable per vertex id and seed), stored as
/// the property `group` — the workload of Figs. 12 and 17 ("we vary the
/// number of groups in the output by assigning a group identifier to each
/// node, drawn uniformly at random from a given integer range").
pub fn project_random_groups(g: &TGraph, cardinality: u64, seed: u64) -> TGraph {
    assert!(cardinality > 0, "cardinality must be positive");
    let group_of = |vid: u64| -> i64 {
        let mut h = DefaultHasher::new();
        (vid, seed).hash(&mut h);
        (h.finish() % cardinality) as i64
    };
    let vertices = g
        .vertices
        .iter()
        .map(|v| {
            let mut v = v.clone();
            v.props = v.props.with("group", group_of(v.vid.0));
            v
        })
        .collect();
    TGraph {
        lifespan: g.lifespan,
        vertices,
        edges: g.edges.clone(),
    }
}

/// Injects vertex attribute changes with a fixed `period` (in time points):
/// each vertex's states are split at multiples of the period and each segment
/// receives a distinct value of the property `rev` — the Fig. 13 workload
/// ("we synthetically change vertex attribute values with a fixed
/// frequency"). Graph size in nodes/edges is unchanged; the number of tuples
/// (VE) and history-array lengths (OG) grow.
///
/// Changes land on multiples of the period measured from the lifespan start,
/// so on a monthly graph with `period ≥ 1` they align with snapshot
/// boundaries and the RG snapshot count is unaffected, as in the paper.
pub fn inject_attribute_changes(g: &TGraph, period: u32) -> TGraph {
    assert!(period > 0, "change period must be positive");
    let p = period as i64;
    let origin = g.lifespan.start;
    let mut vertices = Vec::with_capacity(g.vertices.len());
    for v in &g.vertices {
        let mut t = v.interval.start;
        while t < v.interval.end {
            // Next period boundary after t.
            let boundary = origin + ((t - origin).div_euclid(p) + 1) * p;
            let end = boundary.min(v.interval.end);
            let rev = (t - origin).div_euclid(p);
            let mut piece = v.clone();
            piece.interval = Interval::new(t, end);
            piece.props = v.props.with("rev", rev);
            vertices.push(piece);
            t = end;
        }
    }
    TGraph {
        lifespan: g.lifespan,
        vertices,
        edges: g.edges.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::WikiTalk;
    use tgraph_core::graph::figure1_graph_stable_ids;
    use tgraph_core::validate::validate;

    #[test]
    fn coarsen_halves_snapshots() {
        let g = WikiTalk {
            vertices: 200,
            months: 40,
            ..WikiTalk::default()
        }
        .generate();
        let snaps_before = g.change_points().len() - 1;
        let c = coarsen_time(&g, 4);
        let snaps_after = c.change_points().len() - 1;
        assert!(snaps_after < snaps_before);
        assert_eq!(c.distinct_vertex_count(), g.distinct_vertex_count());
        assert_eq!(c.distinct_edge_count(), g.distinct_edge_count());
        assert!(validate(&c).is_empty());
    }

    #[test]
    fn coarsen_by_one_is_translation_only() {
        let g = figure1_graph_stable_ids();
        let c = coarsen_time(&g, 1);
        assert_eq!(c.lifespan.len(), g.lifespan.len());
        assert_eq!(c.vertex_tuple_count(), g.vertex_tuple_count());
    }

    #[test]
    fn coarsen_rounds_outward() {
        let g = figure1_graph_stable_ids();
        // Factor 3 from origin 1: Ann [1,7) → offsets [0,6) → [0,2).
        let c = coarsen_time(&g, 3);
        let ann = c.vertices.iter().find(|v| v.vid.0 == 1).unwrap();
        assert_eq!(ann.interval, Interval::new(0, 2));
        // Bob's first state [2,5) → offsets [1,4) → [0,2): overlaps Ann.
        assert!(validate(&c).is_empty());
    }

    #[test]
    fn random_groups_respect_cardinality_and_stability() {
        let g = WikiTalk {
            vertices: 300,
            months: 12,
            ..WikiTalk::default()
        }
        .generate();
        let p = project_random_groups(&g, 10, 42);
        let mut groups: Vec<i64> = p
            .vertices
            .iter()
            .map(|v| v.props.get("group").unwrap().as_int().unwrap())
            .collect();
        groups.sort();
        groups.dedup();
        assert!(groups.len() <= 10);
        assert!(groups.iter().all(|g| (0..10).contains(g)));
        // Same seed → same assignment.
        let q = project_random_groups(&g, 10, 42);
        assert_eq!(p.vertices, q.vertices);
        // Different seed → (almost surely) different assignment.
        let r = project_random_groups(&g, 10, 43);
        assert_ne!(p.vertices, r.vertices);
    }

    #[test]
    fn attribute_changes_multiply_tuples() {
        let g = WikiTalk {
            vertices: 100,
            months: 24,
            ..WikiTalk::default()
        }
        .generate();
        let before = g.vertex_tuple_count();
        let m = inject_attribute_changes(&g, 6);
        assert!(m.vertex_tuple_count() > before);
        assert!(validate(&m).is_empty());
        // Tighter period → more tuples.
        let m2 = inject_attribute_changes(&g, 2);
        assert!(m2.vertex_tuple_count() > m.vertex_tuple_count());
        // Node/edge identity counts unchanged.
        assert_eq!(m2.distinct_vertex_count(), g.distinct_vertex_count());
        assert_eq!(m2.edge_tuple_count(), g.edge_tuple_count());
    }

    #[test]
    fn changes_are_coalescence_proof() {
        // Each segment gets a distinct `rev`, so coalescing cannot undo the
        // splits.
        let g = figure1_graph_stable_ids();
        let m = inject_attribute_changes(&g, 2);
        let c = tgraph_core::coalesce::coalesce_graph(&m);
        assert_eq!(c.vertex_tuple_count(), m.vertex_tuple_count());
    }
}
