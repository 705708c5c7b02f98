//! Conversions between physical representations, enabling the
//! representation-switching pipelines of §5.3 (e.g. `aZoom^T` on VE followed
//! by `wZoom^T` on OG).
//!
//! VE↔OG conversion runs as a dataflow job (a shuffle groups the VE tuples of
//! each entity to rebuild OG's history arrays; the reverse is an
//! embarrassingly parallel flatMap). Conversions involving RG and OGC
//! materialize through the logical TGraph.

use crate::common::{coalesce_states, edge_tuples, vertex_tuples};
use crate::og::{OgEdge, OgGraph, OgVertex};
use crate::ogc::OgcGraph;
use crate::rg::RgGraph;
use crate::ve::VeGraph;
use crate::ReprKind;
use std::sync::Arc;
use tgraph_core::graph::{EdgeId, VertexId};
use tgraph_dataflow::{Dataset, KeyedDataset, PlanNode, Runtime};

/// VE → OG: shuffle tuples by entity key and assemble history arrays.
///
/// Edge endpoints are attached with a join against the freshly built vertex
/// collection (the step GraphX's vertex mirroring performs during
/// triplet-view materialization); the join carries one shared record per
/// vertex, which every edge it meets refers to.
pub fn ve_to_og(rt: &Runtime, ve: &VeGraph) -> OgGraph {
    let vertices: Dataset<OgVertex> = ve
        .vertices
        .map(|v| (v.vid, (v.interval, v.props.clone())))
        .group_by_key(rt)
        .map(|(vid, states)| OgVertex {
            vid: *vid,
            history: coalesce_states(states).into_owned(),
        });

    let e_grouped: Dataset<(
        (EdgeId, VertexId, VertexId),
        Vec<(tgraph_core::Interval, tgraph_core::Props)>,
    )> = ve
        .edges
        .map(|e| ((e.eid, e.src, e.dst), (e.interval, e.props.clone())))
        .group_by_key(rt);

    // Mirror endpoint vertices onto edges: join on src, then on dst.
    // Mirrored onto edges twice (src join, dst join): hash-partition once
    // so the dst join's vertex-side shuffle is elided.
    let v_by_id: Dataset<(VertexId, Arc<OgVertex>)> =
        tgraph_dataflow::shuffle(rt, &vertices.map(|v| (v.vid, Arc::new(v.clone()))));
    let by_src: Dataset<(
        VertexId,
        (
            (EdgeId, VertexId, VertexId),
            Vec<(tgraph_core::Interval, tgraph_core::Props)>,
        ),
    )> = e_grouped.map(|(k, states)| (k.1, (*k, states.clone())));
    let with_src = by_src
        .join(rt, &v_by_id)
        .map(|(_, ((k, states), src))| (k.2, (*k, states.clone(), Arc::clone(src))));
    let edges: Dataset<OgEdge> = with_src
        .join(rt, &v_by_id)
        .map(|(_, ((k, states, src), dst))| OgEdge {
            eid: k.0,
            src: Arc::clone(src),
            dst: Arc::clone(dst),
            history: coalesce_states(states).into_owned(),
        });

    OgGraph {
        lifespan: ve.lifespan,
        vertices,
        edges,
    }
}

/// OG → VE: split history arrays back into flat tuples (no shuffle).
pub fn og_to_ve(_rt: &Runtime, og: &OgGraph) -> VeGraph {
    VeGraph {
        lifespan: og.lifespan,
        vertices: og
            .vertices
            .flat_map_into(|v, emit| vertex_tuples(v.vid, &v.history, emit)),
        edges: og
            .edges
            .flat_map_into(|e, emit| edge_tuples((e.eid, e.src.vid, e.dst.vid), &e.history, emit)),
    }
}

/// A TGraph held in any of the four physical representations — the value the
/// query layer threads through operator pipelines.
#[derive(Clone, Debug)]
pub enum AnyGraph {
    /// Representative Graphs.
    Rg(RgGraph),
    /// Vertex–Edge relations.
    Ve(VeGraph),
    /// One Graph.
    Og(OgGraph),
    /// One Graph Columnar.
    Ogc(OgcGraph),
}

impl AnyGraph {
    /// The representation this graph is currently held in.
    pub fn kind(&self) -> ReprKind {
        match self {
            AnyGraph::Rg(_) => ReprKind::Rg,
            AnyGraph::Ve(_) => ReprKind::Ve,
            AnyGraph::Og(_) => ReprKind::Og,
            AnyGraph::Ogc(_) => ReprKind::Ogc,
        }
    }

    /// Builds the requested representation from a logical graph, whose rows
    /// move into it: the one way rows become a representation, whether they
    /// were decoded from files, converted, or appended to a resident.
    pub fn from_tgraph(rt: &Runtime, g: tgraph_core::TGraph, kind: ReprKind) -> AnyGraph {
        match kind {
            ReprKind::Rg => AnyGraph::Rg(RgGraph::from_tgraph(rt, g)),
            ReprKind::Ve => AnyGraph::Ve(VeGraph::from_tgraph(rt, g)),
            ReprKind::Og => AnyGraph::Og(OgGraph::from_tgraph(rt, g)),
            ReprKind::Ogc => AnyGraph::Ogc(OgcGraph::from_tgraph(rt, g)),
        }
    }

    /// [`AnyGraph::from_tgraph`] of a copy of `g`, for a caller that keeps
    /// its graph.
    pub fn load(rt: &Runtime, g: &tgraph_core::TGraph, kind: ReprKind) -> AnyGraph {
        Self::from_tgraph(rt, g.clone(), kind)
    }

    /// Switches to another representation (identity if already there).
    ///
    /// Under [checked mode](Runtime::checked) the result crossing the
    /// representation boundary is materialized, coalesced, and validated
    /// against Definition 2.1 — a conversion that produced an invalid TGraph
    /// (overlapping facts, dangling endpoints, empty intervals) panics here
    /// instead of silently corrupting downstream zooms.
    ///
    /// # Panics
    /// In checked mode, if the converted graph fails validation.
    pub fn switch_to(&self, rt: &Runtime, kind: ReprKind) -> AnyGraph {
        if self.kind() == kind {
            return self.clone();
        }
        let out = match (self, kind) {
            // Direct dataflow conversions between the compact representations.
            (AnyGraph::Ve(ve), ReprKind::Og) => AnyGraph::Og(ve_to_og(rt, ve)),
            (AnyGraph::Og(og), ReprKind::Ve) => AnyGraph::Ve(og_to_ve(rt, og)),
            // Everything else goes through the logical graph.
            (g, kind) => AnyGraph::from_tgraph(rt, g.to_tgraph(rt), kind),
        };
        if rt.checked() {
            // Validate the canonical (coalesced) logical form: physical
            // representations may legitimately hold uncoalesced fragments,
            // and `to_tgraph` coalesces them.
            let logical = out.to_tgraph(rt);
            let errors = tgraph_core::validate::validate(&logical);
            if !errors.is_empty() {
                let rendered: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
                panic!(
                    "checked mode: switch_to({} -> {kind}) produced an invalid TGraph: {}",
                    self.kind(),
                    rendered.join("; ")
                );
            }
        }
        out
    }

    /// Lineage roots of the datasets backing this representation, labelled
    /// for EXPLAIN rendering and static verification
    /// (`tgraph_analyze::analyze_all`).
    pub fn lineages(&self) -> Vec<(&'static str, Arc<PlanNode>)> {
        match self {
            AnyGraph::Rg(g) => vec![("rg.snapshots", g.snapshots.lineage())],
            AnyGraph::Ve(g) => vec![
                ("ve.vertices", g.vertices.lineage()),
                ("ve.edges", g.edges.lineage()),
            ],
            AnyGraph::Og(g) => vec![
                ("og.vertices", g.vertices.lineage()),
                ("og.edges", g.edges.lineage()),
            ],
            AnyGraph::Ogc(g) => vec![
                ("ogc.vertices", g.vertices.lineage()),
                ("ogc.edges", g.edges.lineage()),
            ],
        }
    }

    /// Materializes the logical graph.
    pub fn to_tgraph(&self, rt: &Runtime) -> tgraph_core::TGraph {
        match self {
            AnyGraph::Rg(g) => g.to_tgraph(rt),
            AnyGraph::Ve(g) => {
                // Coalesce for a canonical logical form.
                crate::ve::coalesce_collected(rt, g)
            }
            AnyGraph::Og(g) => g.to_tgraph(rt),
            AnyGraph::Ogc(g) => g.to_tgraph(rt),
        }
    }

    /// `aZoom^T` in the current representation.
    ///
    /// # Panics
    /// Panics for OGC, which does not support attribute-based zoom (§3.1).
    pub fn azoom(&self, rt: &Runtime, spec: &tgraph_core::zoom::AZoomSpec) -> AnyGraph {
        match self {
            AnyGraph::Rg(g) => AnyGraph::Rg(g.azoom(rt, spec)),
            AnyGraph::Ve(g) => AnyGraph::Ve(g.azoom(rt, spec)),
            AnyGraph::Og(g) => AnyGraph::Og(g.azoom(rt, spec)),
            AnyGraph::Ogc(_) => {
                panic!("OGC does not represent attributes and so does not support aZoom^T")
            }
        }
    }

    /// `wZoom^T` in the current representation.
    pub fn wzoom(&self, rt: &Runtime, spec: &tgraph_core::zoom::WZoomSpec) -> AnyGraph {
        match self {
            AnyGraph::Rg(g) => AnyGraph::Rg(g.wzoom(rt, spec)),
            AnyGraph::Ve(g) => AnyGraph::Ve(g.wzoom(rt, spec)),
            AnyGraph::Og(g) => AnyGraph::Og(g.wzoom(rt, spec)),
            AnyGraph::Ogc(g) => AnyGraph::Ogc(g.wzoom(rt, spec)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph_core::coalesce::coalesce_graph;
    use tgraph_core::graph::figure1_graph_stable_ids;
    use tgraph_core::reference::wzoom_reference;
    use tgraph_core::zoom::wzoom::{Quantifier, WZoomSpec};

    fn rt() -> Runtime {
        Runtime::with_partitions(4, 4)
    }

    fn canonical(g: &tgraph_core::TGraph) -> tgraph_core::TGraph {
        coalesce_graph(g)
    }

    #[test]
    fn ve_og_roundtrip() {
        let rt = rt();
        let g = canonical(&figure1_graph_stable_ids());
        let ve = VeGraph::from_tgraph(&rt, g.clone());
        let og = ve_to_og(&rt, &ve);
        assert_eq!(og.vertex_count(&rt), 3);
        assert_eq!(og.edge_count(&rt), 2);
        // Endpoint copies are mirrored with full histories.
        let e1 = og
            .edges
            .collect(&rt)
            .into_iter()
            .find(|e| e.eid.0 == 1)
            .unwrap();
        assert_eq!(e1.dst.history.len(), 2);
        let back = og_to_ve(&rt, &og);
        assert_eq!(
            crate::ve::coalesce_collected(&rt, &back).vertices,
            g.vertices
        );
        assert_eq!(crate::ve::coalesce_collected(&rt, &back).edges, g.edges);
    }

    #[test]
    fn all_representations_roundtrip_through_anygraph() {
        let rt = rt();
        let g = canonical(&figure1_graph_stable_ids());
        for kind in [ReprKind::Rg, ReprKind::Ve, ReprKind::Og] {
            let any = AnyGraph::load(&rt, &g, kind);
            assert_eq!(any.kind(), kind);
            let back = any.to_tgraph(&rt);
            assert_eq!(back.vertices, g.vertices, "{kind}");
            assert_eq!(back.edges, g.edges, "{kind}");
        }
    }

    #[test]
    fn switching_preserves_graph() {
        let rt = rt();
        let g = canonical(&figure1_graph_stable_ids());
        let ve = AnyGraph::load(&rt, &g, ReprKind::Ve);
        let og = ve.switch_to(&rt, ReprKind::Og);
        assert_eq!(og.kind(), ReprKind::Og);
        let rg = og.switch_to(&rt, ReprKind::Rg);
        assert_eq!(rg.kind(), ReprKind::Rg);
        let back = rg.switch_to(&rt, ReprKind::Ve);
        assert_eq!(back.to_tgraph(&rt).vertices, g.vertices);
        assert_eq!(back.to_tgraph(&rt).edges, g.edges);
    }

    /// `at least 1.0` means `r > 1` and keeps no vertex, while `all` (`r >=
    /// 1`) keeps edges: the thresholds tie, but the dangling-edge check must
    /// run, so every kernel returns the reference's empty graph.
    #[test]
    fn strict_vertex_bound_at_the_edge_threshold_drops_every_edge() {
        let rt = rt();
        let spec = WZoomSpec::points(3, Quantifier::AtLeast(1.0), Quantifier::All);
        let g = canonical(&figure1_graph_stable_ids());
        for kind in ReprKind::all() {
            let loaded = AnyGraph::load(&rt, &g, kind);
            // OGC keeps topology and type only: its reference input is
            // the graph as OGC holds it.
            let expected = wzoom_reference(&loaded.to_tgraph(&rt), &spec);
            assert!(expected.vertices.is_empty() && expected.edges.is_empty());
            let got = loaded.wzoom(&rt, &spec).to_tgraph(&rt);
            assert_eq!(got.vertices, expected.vertices, "{kind}");
            assert_eq!(got.edges, expected.edges, "{kind}");
        }
    }

    #[test]
    #[should_panic(expected = "OGC does not represent attributes")]
    fn ogc_azoom_panics() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let any = AnyGraph::load(&rt, &g, ReprKind::Ogc);
        let spec = tgraph_core::zoom::AZoomSpec::by_property("school", "school", vec![]);
        let _ = any.azoom(&rt, &spec);
    }

    #[test]
    fn checked_switch_to_validates_clean_graph() {
        let rt = rt();
        rt.set_checked(true);
        let g = canonical(&figure1_graph_stable_ids());
        let ve = AnyGraph::load(&rt, &g, ReprKind::Ve);
        // Every hop crosses a representation boundary under checked mode.
        let og = ve.switch_to(&rt, ReprKind::Og);
        let rg = og.switch_to(&rt, ReprKind::Rg);
        let back = rg.switch_to(&rt, ReprKind::Ve);
        assert_eq!(back.to_tgraph(&rt).vertices, g.vertices);
    }

    #[test]
    #[should_panic(expected = "invalid TGraph")]
    fn checked_switch_to_rejects_invalid_graph() {
        let rt = rt();
        rt.set_checked(true);
        let mut g = figure1_graph_stable_ids();
        // Edge between existing endpoints but with no `type` property: it
        // survives the VE→OG join yet violates Definition 2.1.
        let model = g.edges[0].clone();
        g.edges.push(tgraph_core::EdgeRecord {
            eid: EdgeId(77),
            src: model.src,
            dst: model.dst,
            interval: model.interval,
            props: tgraph_core::Props::new(),
        });
        let ve = AnyGraph::load(&rt, &g, ReprKind::Ve);
        let _ = ve.switch_to(&rt, ReprKind::Og);
    }

    #[test]
    fn lineages_expose_labelled_roots() {
        let rt = rt();
        let g = canonical(&figure1_graph_stable_ids());
        for (kind, expected) in [
            (ReprKind::Rg, 1),
            (ReprKind::Ve, 2),
            (ReprKind::Og, 2),
            (ReprKind::Ogc, 2),
        ] {
            let any = AnyGraph::load(&rt, &g, kind);
            let lineages = any.lineages();
            assert_eq!(lineages.len(), expected, "{kind}");
            for (label, root) in &lineages {
                assert!(!label.is_empty());
                assert!(root.node_count() >= 1);
            }
        }
    }

    #[test]
    fn switch_to_same_kind_is_identity() {
        let rt = rt();
        let g = canonical(&figure1_graph_stable_ids());
        let ve = AnyGraph::load(&rt, &g, ReprKind::Ve);
        let same = ve.switch_to(&rt, ReprKind::Ve);
        assert_eq!(same.kind(), ReprKind::Ve);
    }
}
