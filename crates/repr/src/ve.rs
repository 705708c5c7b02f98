//! The **Vertex–Edge (VE)** representation: a nested temporal relational
//! encoding with one distributed relation for vertices and one for edges
//! (§3, Figure 5).
//!
//! VE is compact (both relations are kept temporally coalesced) but stores
//! tuples in unordered collections, so it has no temporal locality by
//! default: the two states of *Bob* may land on different workers, and the
//! operators below re-establish co-location at runtime via shuffles.

use crate::common::{
    aggregate_group_history, coalesce_states, resolve_edge_states, resolve_vertex_states,
    window_reduce, State,
};
use std::sync::Arc;
use tgraph_core::graph::{EdgeId, EdgeRecord, TGraph, VertexId, VertexRecord};
use tgraph_core::time::Interval;
use tgraph_core::zoom::azoom::AZoomSpec;
use tgraph_core::zoom::wzoom::{window_relation, windows_of, WZoomSpec};
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
    /// Whether the relations are known to be temporally coalesced. Tracked
    /// for the lazy-coalescing optimization of §4.
    pub coalesced: bool,
}

impl VeGraph {
    /// Loads a VE graph from the logical representation, partitioning both
    /// relations across the runtime.
    pub fn from_tgraph(rt: &Runtime, g: &TGraph) -> Self {
        VeGraph {
            lifespan: g.lifespan,
            vertices: Dataset::from_vec(rt, g.vertices.clone()),
            edges: Dataset::from_vec(rt, g.edges.clone()),
            coalesced: tgraph_core::coalesce::graph_is_coalesced(g),
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

    /// Temporally coalesces both relations using the partitioning method of
    /// §4: group by entity key (a shuffle), sort each group by start time,
    /// and fold value-equivalent adjacent tuples.
    pub fn coalesce(&self, rt: &Runtime) -> VeGraph {
        if self.coalesced {
            return self.clone();
        }
        let vertices = self
            .vertices
            .map(|v| (v.vid, (v.interval, v.props.clone())))
            .group_by_key(rt)
            .flat_map_into(|(vid, states), emit| {
                for (interval, props) in coalesce_states(states).iter() {
                    emit(VertexRecord {
                        vid: *vid,
                        interval: *interval,
                        props: props.clone(),
                    });
                }
            });
        VeGraph {
            lifespan: self.lifespan,
            vertices,
            edges: coalesced_edges(rt, &self.edges),
            coalesced: true,
        }
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
            coalesced: true,
        }
    }

    /// `wZoom^T` over VE — Algorithm 5.
    ///
    /// Each tuple is joined with the window relation (computing one copy per
    /// overlapped window — the tuple-multiplication that makes small windows
    /// expensive for VE, §5.2), grouped by `(entity, window)`, gated by the
    /// quantifier threshold and resolved; dangling edges are removed with two
    /// semijoins when `r_v` is more restrictive than `r_e`.
    pub fn wzoom(&self, rt: &Runtime, spec: &WZoomSpec) -> VeGraph {
        // Correctness requires coalesced input (§3.2).
        let g = self.coalesce(rt);
        let change_points = {
            // Change points are only needed for `changes`-based windows.
            match spec.window {
                tgraph_core::zoom::wzoom::WindowSpec::Changes(_) => g.to_tgraph(rt).change_points(),
                _ => Vec::new(),
            }
        };
        let windows = Arc::new(window_relation(g.lifespan, &change_points, spec.window));
        if windows.is_empty() {
            return VeGraph {
                lifespan: g.lifespan,
                vertices: Dataset::empty(),
                edges: Dataset::empty(),
                coalesced: true,
            };
        }
        let spec = Arc::new(spec.clone());

        // --- Vertex aggregation for new intervals (lines 3–9). ---
        let ws = Arc::clone(&windows);
        let aligned_v: Dataset<((usize, VertexId), State)> =
            g.vertices.flat_map_into(move |v, emit| {
                for (idx, _w, covered) in windows_of(v.interval, &ws) {
                    emit(((idx, v.vid), (covered, v.props.clone())));
                }
            });
        let ws = Arc::clone(&windows);
        let spec_v = Arc::clone(&spec);
        let kept_vertices: Dataset<((usize, VertexId), VertexRecord)> = aligned_v
            .group_by_key(rt)
            .flat_map(move |((idx, vid), states)| {
                let window = ws[*idx];
                let props = window_reduce(window, states, &spec_v.vertex_quantifier, |s| {
                    resolve_vertex_states(&spec_v, s)
                })?;
                Some((
                    (*idx, *vid),
                    VertexRecord {
                        vid: *vid,
                        interval: window,
                        props,
                    },
                ))
            });
        let vertices: Dataset<VertexRecord> = kept_vertices.map(|(_, v)| v.clone());

        // --- Edge aggregation (lines 10–16). ---
        let ws = Arc::clone(&windows);
        let aligned_e: Dataset<((usize, EdgeId, VertexId, VertexId), State)> =
            g.edges.flat_map_into(move |e, emit| {
                for (idx, _w, covered) in windows_of(e.interval, &ws) {
                    emit(((idx, e.eid, e.src, e.dst), (covered, e.props.clone())));
                }
            });
        let ws = Arc::clone(&windows);
        let spec_e = Arc::clone(&spec);
        let edges: Dataset<((usize, VertexId), EdgeRecord)> =
            aligned_e
                .group_by_key(rt)
                .flat_map(move |((idx, eid, src, dst), states)| {
                    let window = ws[*idx];
                    let props = window_reduce(window, states, &spec_e.edge_quantifier, |s| {
                        resolve_edge_states(&spec_e, s)
                    })?;
                    Some((
                        (*idx, *src),
                        EdgeRecord {
                            eid: *eid,
                            src: *src,
                            dst: *dst,
                            interval: window,
                            props,
                        },
                    ))
                });

        // --- Dangling-edge removal (lines 17–19): only when r_v > r_e. ---
        let edges: Dataset<EdgeRecord> = if spec.needs_dangling_check() {
            // Both semijoins key by the same retained-vertex set; partition
            // it once and the second semijoin's key-side shuffle is elided.
            let kept: Dataset<((usize, VertexId), ())> =
                tgraph_dataflow::shuffle(rt, &kept_vertices.map(|(k, _)| (*k, ())));
            let by_src = edges.semi_join(rt, &kept);
            let by_dst: Dataset<((usize, VertexId), EdgeRecord)> =
                by_src.map(|((idx, _), e)| ((*idx, e.dst), e.clone()));
            by_dst.semi_join(rt, &kept).map(|(_, e)| e.clone())
        } else {
            edges.map(|(_, e)| e.clone())
        };

        let lifespan = Interval::hull_of(&windows);
        let out = VeGraph {
            lifespan,
            vertices,
            edges,
            coalesced: false,
        };
        // Point semantics: the final result is coalesced.
        out.coalesce(rt)
    }
}

/// Coalesces an edge relation: group by edge identity (endpoints included),
/// fold each group's states.
fn coalesced_edges(rt: &Runtime, edges: &Dataset<EdgeRecord>) -> Dataset<EdgeRecord> {
    edges
        .map(|e| ((e.eid, e.src, e.dst), (e.interval, e.props.clone())))
        .group_by_key(rt)
        .flat_map_into(|((eid, src, dst), states), emit| {
            for (interval, props) in coalesce_states(states).iter() {
                emit(EdgeRecord {
                    eid: *eid,
                    src: *src,
                    dst: *dst,
                    interval: *interval,
                    props: props.clone(),
                });
            }
        })
}

/// The logical graph of `g`, collected and coalesced (what
/// `AnyGraph::to_tgraph` returns for VE).
pub fn coalesce_collected(rt: &Runtime, g: &VeGraph) -> TGraph {
    g.collect(rt).into_coalesced()
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let ve = VeGraph::from_tgraph(&rt, &g);
        assert!(ve.coalesced);
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
            &VeGraph::from_tgraph(&rt, &g).azoom(&rt, &school_spec()),
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
        let got = coalesce_collected(&rt, &VeGraph::from_tgraph(&rt, &g).wzoom(&rt, &spec));
        assert_eq!(got.vertices, expected.vertices);
        assert_eq!(got.edges, expected.edges);
    }

    #[test]
    fn wzoom_matches_reference_exists_exists() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let spec = WZoomSpec::points(3, Quantifier::Exists, Quantifier::Exists);
        let expected = wzoom_reference(&g, &spec);
        let got = coalesce_collected(&rt, &VeGraph::from_tgraph(&rt, &g).wzoom(&rt, &spec));
        assert_eq!(got.vertices, expected.vertices);
        assert_eq!(got.edges, expected.edges);
    }

    #[test]
    fn wzoom_dangling_removal_all_exists() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let spec = WZoomSpec::points(3, Quantifier::All, Quantifier::Exists);
        let expected = wzoom_reference(&g, &spec);
        let got = coalesce_collected(&rt, &VeGraph::from_tgraph(&rt, &g).wzoom(&rt, &spec));
        assert_eq!(got.vertices, expected.vertices);
        assert_eq!(got.edges, expected.edges);
        assert!(tgraph_core::validate::validate(&got).is_empty());
    }

    #[test]
    fn coalesce_removes_fragmentation() {
        let rt = rt();
        let mut g = figure1_graph_stable_ids();
        // Fragment Cat into 8 pieces.
        let cat = g.vertices.remove(3);
        for t in 1..9 {
            let mut piece = cat.clone();
            piece.interval = Interval::new(t, t + 1);
            g.vertices.push(piece);
        }
        let ve = VeGraph::from_tgraph(&rt, &g);
        assert_eq!(ve.vertex_tuple_count(&rt), 11);
        let c = ve.coalesce(&rt);
        assert_eq!(c.vertex_tuple_count(&rt), 4);
        assert!(c.coalesced);
    }
}
