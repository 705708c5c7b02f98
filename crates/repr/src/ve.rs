//! The **Vertex–Edge (VE)** representation: a nested temporal relational
//! encoding with one distributed relation for vertices and one for edges
//! (§3, Figure 5).
//!
//! VE is compact (every operator returns both relations temporally
//! coalesced; only a fragmented load or an epoch append leaves fragments,
//! which the operators and `coalesce_collected` fold away) but stores
//! tuples in unordered collections, so it has no temporal locality by
//! default: the two states of *Bob* may land on different workers, and the
//! operators below re-establish co-location at runtime via shuffles.

use crate::common::{
    aggregate_group_history, clip_history, coalesce_states, edge_tuples, existence, rezoom_history,
    vertex_tuples, EdgeKey, State,
};
use std::sync::Arc;
use tgraph_core::graph::{EdgeRecord, TGraph, VertexId, VertexRecord};
use tgraph_core::time::Interval;
use tgraph_core::zoom::azoom::AZoomSpec;
use tgraph_core::zoom::wzoom::{window_relation, windows_of, WZoomSpec, WindowSpec};
use tgraph_dataflow::{Dataset, KeyedDataset, Runtime};

/// A TGraph stored as two distributed temporal relations.
#[derive(Clone, Debug)]
pub struct VeGraph {
    /// The graph's recorded lifetime.
    pub lifespan: Interval,
    /// Vertex tuples `(vid, attributes, T)`.
    pub vertices: Dataset<VertexRecord>,
    /// Edge tuples `(eid, vid1, vid2, attributes, T)`; `vid1`/`vid2` are
    /// foreign keys into the vertex relation.
    pub edges: Dataset<EdgeRecord>,
}

impl VeGraph {
    /// Loads a VE graph from the logical representation: both relations move
    /// into partitions across the runtime.
    pub fn from_tgraph(rt: &Runtime, g: TGraph) -> Self {
        VeGraph {
            lifespan: g.lifespan,
            vertices: Dataset::from_vec(rt, g.vertices),
            edges: Dataset::from_vec(rt, g.edges),
        }
    }

    /// Materializes the logical graph, sorted like a coalesced one: vertices
    /// by `(vid, start, end)`, edges by `(eid, src, dst, start, end)`.
    pub fn to_tgraph(&self, rt: &Runtime) -> TGraph {
        let mut g = self.collect(rt);
        g.vertices.sort_by_key(|v| (v.vid, v.interval));
        g.edges.sort_by_key(|e| (e.eid, e.src, e.dst, e.interval));
        g
    }

    /// Both relations collected as they lie, in no particular order.
    fn collect(&self, rt: &Runtime) -> TGraph {
        let (vertices, edges) = (self.vertices.collect(rt), self.edges.collect(rt));
        if self.lifespan.is_empty() {
            return TGraph::from_records(vertices, edges);
        }
        TGraph {
            lifespan: self.lifespan,
            vertices,
            edges,
        }
    }

    /// Number of vertex tuples.
    pub fn vertex_tuple_count(&self, rt: &Runtime) -> usize {
        self.vertices.count(rt)
    }

    /// Number of edge tuples.
    pub fn edge_tuple_count(&self, rt: &Runtime) -> usize {
        self.edges.count(rt)
    }

    /// `aZoom^T` over VE — Algorithm 2.
    ///
    /// Vertices are mapped through the Skolem function, grouped by new id (a
    /// shuffle re-establishing temporal locality per group), split on the
    /// group's temporal splitter, and aggregated per elementary interval.
    /// Edges are redirected by joining with the vertex relation on `vid1`
    /// and `vid2` (VE stores only foreign keys) and recomputing intervals.
    pub fn azoom(&self, rt: &Runtime, spec: &AZoomSpec) -> VeGraph {
        let spec = Arc::new(spec.clone());

        // --- Vertex aggregation (lines 1–12). ---
        let spec1 = Arc::clone(&spec);
        let grouped: Dataset<(u64, (VertexId, State))> = self.vertices.flat_map(move |v| {
            spec1
                .group_id(v.vid, &v.props)
                .map(|gid| (gid, (v.vid, (v.interval, v.props.clone()))))
        });
        let spec2 = Arc::clone(&spec);
        let vertices: Dataset<VertexRecord> =
            grouped.group_by_key(rt).flat_map(move |(gid, members)| {
                let vid = VertexId(*gid);
                aggregate_group_history(&spec2, members).into_iter().map(
                    move |(interval, props)| VertexRecord {
                        vid,
                        interval,
                        props,
                    },
                )
            });

        // --- Edge redirection (lines 13–18): two joins on the vertex FK. ---
        let by_src: Dataset<(VertexId, EdgeRecord)> = self.edges.map(|e| (e.src, e.clone()));
        // The vertex relation is joined twice (src then dst redirection);
        // hash-partition it once so the second join elides its shuffle.
        let v_by_id: Dataset<(VertexId, VertexRecord)> =
            tgraph_dataflow::shuffle(rt, &self.vertices.map(|v| (v.vid, v.clone())));
        let spec3 = Arc::clone(&spec);
        let joined_src: Dataset<(VertexId, (EdgeRecord, (u64, Interval)))> =
            by_src.join(rt, &v_by_id).flat_map(move |(_, (e, v))| {
                // recomputeInterval part 1: clip to the src state's validity.
                let iv = e.interval.intersect(&v.interval)?;
                let gid = spec3.group_id(v.vid, &v.props)?;
                Some((e.dst, (e.clone(), (gid, iv))))
            });
        let edges: Dataset<EdgeRecord> =
            joined_src
                .join(rt, &v_by_id)
                .flat_map(move |(_, ((e, (gid1, iv1)), v2))| {
                    let interval = iv1.intersect(&v2.interval)?;
                    let gid2 = spec.group_id(v2.vid, &v2.props)?;
                    Some(EdgeRecord {
                        eid: e.eid,
                        src: VertexId(*gid1),
                        dst: VertexId(gid2),
                        interval,
                        props: e.props.clone(),
                    })
                });
        // Edges produced by redirection may contain adjacent value-equivalent
        // pieces (one per endpoint-state combination); vertices from
        // `aggregate_group_history` are already coalesced per group.
        // Coalescing the edge relation keeps the representation compact.
        VeGraph {
            lifespan: self.lifespan,
            vertices,
            edges: coalesced_edges(rt, &edges),
        }
    }

    /// `wZoom^T` over VE — Algorithm 5, by §4's partitioning method.
    ///
    /// Each tuple emits one copy per overlapped window, clipped to it: the
    /// tuple multiplication that makes small windows expensive for VE
    /// (§5.2). The copies are grouped by entity (a shuffle); sorted by start
    /// and coalesced, an entity's copies are its history inside the windows,
    /// which one walk gates by the quantifier, resolves and coalesces per
    /// window, as OG does. The output is therefore coalesced, whatever the
    /// input. When `r_v` is more restrictive than `r_e`, edge histories are
    /// clipped to their endpoints' zoomed existence by two joins on `vid`.
    pub fn wzoom(&self, rt: &Runtime, spec: &WZoomSpec) -> VeGraph {
        let change_points = match spec.window {
            // Change points of the logical graph, not of its fragments.
            WindowSpec::Changes(_) => coalesce_collected(rt, self).change_points(),
            _ => Vec::new(),
        };
        let windows = Arc::new(window_relation(self.lifespan, &change_points, spec.window));
        if windows.is_empty() {
            return VeGraph {
                lifespan: self.lifespan,
                vertices: Dataset::empty(),
                edges: Dataset::empty(),
            };
        }
        let spec = Arc::new(spec.clone());

        // --- Vertex aggregation for new intervals (lines 3–9). ---
        let ws = Arc::clone(&windows);
        let copies: Dataset<(VertexId, State)> = self.vertices.flat_map_into(move |v, emit| {
            for (_, _, covered) in windows_of(v.interval, &ws) {
                emit((v.vid, (covered, v.props.clone())));
            }
        });
        let ws = Arc::clone(&windows);
        let spec_v = Arc::clone(&spec);
        let mut vertex_histories: Dataset<(VertexId, Vec<State>)> =
            copies.group_by_key(rt).map_values(move |copies| {
                rezoom_history(
                    &coalesce_states(copies),
                    &ws,
                    &spec_v.vertex_quantifier,
                    |s| spec_v.resolve_vertex(s),
                )
            });

        // --- Edge aggregation (lines 10–16). ---
        let ws = Arc::clone(&windows);
        let copies: Dataset<(EdgeKey, State)> = self.edges.flat_map_into(move |e, emit| {
            for (_, _, covered) in windows_of(e.interval, &ws) {
                emit(((e.eid, e.src, e.dst), (covered, e.props.clone())));
            }
        });
        let ws = Arc::clone(&windows);
        let spec_e = Arc::clone(&spec);
        let edge_histories: Dataset<(EdgeKey, Vec<State>)> =
            copies.group_by_key(rt).flat_map(move |(key, copies)| {
                let history = rezoom_history(
                    &coalesce_states(copies),
                    &ws,
                    &spec_e.edge_quantifier,
                    |s| spec_e.resolve_edge(s),
                );
                (!history.is_empty()).then_some((*key, history))
            });

        // --- Dangling-edge removal (lines 17–19): only when r_v > r_e. ---
        let edge_histories = if spec.needs_dangling_check() {
            // The zoomed histories feed both the masks and the output, so
            // they are walked once. The group output is already
            // hash-partitioned by `vid`, and `materialize` and `map_values`
            // keep it so: both joins elide its shuffle, and read the masks
            // materialized once.
            vertex_histories = vertex_histories.materialize(rt);
            let existence: Dataset<(VertexId, Vec<Interval>)> = vertex_histories
                .map_values(|h| existence(h))
                .materialize(rt);
            let by_src: Dataset<(VertexId, (EdgeKey, Vec<State>))> =
                edge_histories.map(|(key, h)| (key.1, (*key, h.clone())));
            let clipped_src: Dataset<(VertexId, (EdgeKey, Vec<State>))> = by_src
                .join(rt, &existence)
                .flat_map(|(_, ((key, h), mask))| {
                    let history = clip_history(h, mask);
                    (!history.is_empty()).then_some((key.2, (*key, history)))
                });
            clipped_src
                .join(rt, &existence)
                .flat_map(|(_, ((key, h), mask))| {
                    let history = clip_history(h, mask);
                    (!history.is_empty()).then_some((*key, history))
                })
        } else {
            edge_histories
        };

        VeGraph {
            lifespan: Interval::hull_of(&windows),
            vertices: vertex_histories.flat_map_into(|(vid, h), emit| vertex_tuples(*vid, h, emit)),
            edges: edge_histories.flat_map_into(|(key, h), emit| edge_tuples(*key, h, emit)),
        }
    }
}

/// Coalesces an edge relation: group by edge identity (endpoints included),
/// fold each group's states.
fn coalesced_edges(rt: &Runtime, edges: &Dataset<EdgeRecord>) -> Dataset<EdgeRecord> {
    edges
        .map(|e| ((e.eid, e.src, e.dst), (e.interval, e.props.clone())))
        .group_by_key(rt)
        .flat_map_into(|(key, states), emit| edge_tuples(*key, &coalesce_states(states), emit))
}

/// The logical graph of `g`, collected and coalesced (what
/// `AnyGraph::to_tgraph` returns for VE).
pub fn coalesce_collected(rt: &Runtime, g: &VeGraph) -> TGraph {
    g.collect(rt).into_coalesced()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph_core::coalesce::graph_is_coalesced;
    use tgraph_core::graph::figure1_graph_stable_ids;
    use tgraph_core::reference::{azoom_reference, wzoom_reference};
    use tgraph_core::zoom::azoom::AggSpec;
    use tgraph_core::zoom::wzoom::{Quantifier, ResolveFn};

    fn rt() -> Runtime {
        Runtime::with_partitions(4, 4)
    }

    fn school_spec() -> AZoomSpec {
        AZoomSpec::by_property("school", "school", vec![AggSpec::count("students")])
    }

    #[test]
    fn roundtrip_tgraph() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let ve = VeGraph::from_tgraph(&rt, g.clone());
        let mut back = ve.to_tgraph(&rt);
        let mut orig = g.clone();
        orig.vertices.sort_by_key(|v| (v.vid, v.interval.start));
        orig.edges
            .sort_by_key(|e| (e.eid, e.src, e.dst, e.interval.start));
        back.vertices.sort_by_key(|v| (v.vid, v.interval.start));
        back.edges
            .sort_by_key(|e| (e.eid, e.src, e.dst, e.interval.start));
        assert_eq!(back.vertices, orig.vertices);
        assert_eq!(back.edges, orig.edges);
    }

    #[test]
    fn azoom_matches_reference_on_figure1() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let expected = azoom_reference(&g, &school_spec());
        let got = coalesce_collected(
            &rt,
            &VeGraph::from_tgraph(&rt, g).azoom(&rt, &school_spec()),
        );
        assert_eq!(got.vertices, expected.vertices);
        assert_eq!(got.edges, expected.edges);
    }

    #[test]
    fn wzoom_matches_reference_all_all() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let spec = WZoomSpec::points(3, Quantifier::All, Quantifier::All)
            .with_vertex_override("school", ResolveFn::Last);
        let expected = wzoom_reference(&g, &spec);
        let got = coalesce_collected(&rt, &VeGraph::from_tgraph(&rt, g).wzoom(&rt, &spec));
        assert_eq!(got.vertices, expected.vertices);
        assert_eq!(got.edges, expected.edges);
    }

    #[test]
    fn wzoom_matches_reference_exists_exists() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let spec = WZoomSpec::points(3, Quantifier::Exists, Quantifier::Exists);
        let expected = wzoom_reference(&g, &spec);
        let got = coalesce_collected(&rt, &VeGraph::from_tgraph(&rt, g).wzoom(&rt, &spec));
        assert_eq!(got.vertices, expected.vertices);
        assert_eq!(got.edges, expected.edges);
    }

    #[test]
    fn wzoom_dangling_removal_all_exists() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let spec = WZoomSpec::points(3, Quantifier::All, Quantifier::Exists);
        let expected = wzoom_reference(&g, &spec);
        let got = coalesce_collected(&rt, &VeGraph::from_tgraph(&rt, g).wzoom(&rt, &spec));
        assert_eq!(got.vertices, expected.vertices);
        assert_eq!(got.edges, expected.edges);
        assert!(tgraph_core::validate::validate(&got).is_empty());
    }

    /// Cat cut into one-point pieces and the first edge in two: `wZoom^T`
    /// needs maximal intervals, and VE folds each entity's window copies
    /// itself, so the answer is the reference's and comes out coalesced.
    #[test]
    fn wzoom_on_fragmented_input_matches_reference() {
        let rt = rt();
        let mut g = figure1_graph_stable_ids();
        let cat = g.vertices.remove(3);
        for t in cat.interval.start..cat.interval.end {
            let mut piece = cat.clone();
            piece.interval = Interval::new(t, t + 1);
            g.vertices.push(piece);
        }
        let first = g.edges.remove(0);
        let mid = first.interval.start + first.interval.len() as i64 / 2;
        for interval in [
            Interval::new(first.interval.start, mid),
            Interval::new(mid, first.interval.end),
        ] {
            let mut piece = first.clone();
            piece.interval = interval;
            g.edges.push(piece);
        }
        assert!(!graph_is_coalesced(&g), "the fixture must start fragmented");
        let ve = VeGraph::from_tgraph(&rt, g.clone());
        for (vq, eq) in [
            (Quantifier::Exists, Quantifier::Exists),
            (Quantifier::All, Quantifier::Exists),
            (Quantifier::Most, Quantifier::Exists),
        ] {
            let points = WZoomSpec::points(3, vq, eq);
            let mut changes = points.clone();
            changes.window = WindowSpec::Changes(2);
            for spec in [points, changes] {
                let out = ve.wzoom(&rt, &spec);
                let got = out.collect(&rt);
                assert!(graph_is_coalesced(&got), "{spec:?}: output fragmented");
                let got = coalesce_collected(&rt, &out);
                let expected = wzoom_reference(&g, &spec);
                assert_eq!(got.vertices, expected.vertices, "{spec:?}");
                assert_eq!(got.edges, expected.edges, "{spec:?}");
            }
        }
    }
}
