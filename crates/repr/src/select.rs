//! Dataflow implementations of the selection/projection algebra operators
//! (`tgraph_core::algebra`) for each physical representation, so that
//! realistic pipelines (slice → select → zoom) stay distributed end to end.

use crate::og::{OgEdge, OgGraph, OgVertex};
use crate::rg::{RgGraph, RgSnapshot};
use crate::ve::VeGraph;
use std::sync::Arc;
use tgraph_core::algebra::Predicate;
use tgraph_core::graph::{EdgeRecord, VertexId, VertexRecord};
use tgraph_core::time::{intersect_interval_sets, merge_non_overlapping, Interval};
use tgraph_dataflow::{Dataset, KeyedDataset, Runtime};

impl VeGraph {
    /// Temporal subgraph over VE: filter both relations, then clip edges to
    /// their endpoints' surviving existence with two joins (VE has only
    /// foreign keys, so the endpoint intervals must be shipped).
    pub fn subgraph(
        &self,
        rt: &Runtime,
        vertex_pred: &Predicate,
        edge_pred: &Predicate,
    ) -> VeGraph {
        let vp = Arc::new(vertex_pred.clone());
        let ep = Arc::new(edge_pred.clone());
        let vertices = self.vertices.filter(move |v| vp.eval(&v.props));

        // Surviving existence periods per vertex.
        let alive: Dataset<(VertexId, Vec<Interval>)> = vertices
            .map(|v| (v.vid, v.interval))
            .group_by_key(rt)
            .map(|(vid, ivs)| (*vid, merge_non_overlapping(ivs.clone())));

        let filtered_edges = self.edges.filter(move |e| ep.eval(&e.props));
        let edges: Dataset<EdgeRecord> = filtered_edges
            .map(|e| (e.src, e.clone()))
            .join(rt, &alive)
            .flat_map(|(_, (e, src_alive))| {
                src_alive
                    .iter()
                    .filter_map(|iv| iv.intersect(&e.interval))
                    .map(|interval| {
                        (
                            e.dst,
                            EdgeRecord {
                                interval,
                                ..e.clone()
                            },
                        )
                    })
                    .collect::<Vec<_>>()
            })
            .join(rt, &alive)
            .flat_map(|(_, (e, dst_alive))| {
                dst_alive
                    .iter()
                    .filter_map(|iv| iv.intersect(&e.interval))
                    .map(|interval| EdgeRecord {
                        interval,
                        ..e.clone()
                    })
                    .collect::<Vec<_>>()
            });
        let out = VeGraph {
            lifespan: self.lifespan,
            vertices,
            edges,
            coalesced: false,
        };
        out.coalesce(rt)
    }

    /// Attribute projection over VE (keeps `type`), coalescing afterwards
    /// because states may become value-equivalent.
    pub fn project(&self, rt: &Runtime, vertex_keys: &[&str], edge_keys: &[&str]) -> VeGraph {
        let vk: Arc<Vec<String>> = Arc::new(vertex_keys.iter().map(|s| s.to_string()).collect());
        let ek: Arc<Vec<String>> = Arc::new(edge_keys.iter().map(|s| s.to_string()).collect());
        let vertices = self.vertices.map(move |v| {
            let keys: Vec<&str> = vk.iter().map(|s| s.as_str()).collect();
            VertexRecord {
                props: v.props.project(&keys),
                ..v.clone()
            }
        });
        let edges = self.edges.map(move |e| {
            let keys: Vec<&str> = ek.iter().map(|s| s.as_str()).collect();
            EdgeRecord {
                props: e.props.project(&keys),
                ..e.clone()
            }
        });
        VeGraph {
            lifespan: self.lifespan,
            vertices,
            edges,
            coalesced: false,
        }
        .coalesce(rt)
    }
}

impl RgGraph {
    /// Temporal subgraph over RG: entirely snapshot-local — filter each
    /// snapshot's vertices and edges and drop dangling edges in place.
    pub fn subgraph(
        &self,
        _rt: &Runtime,
        vertex_pred: &Predicate,
        edge_pred: &Predicate,
    ) -> RgGraph {
        let vp = Arc::new(vertex_pred.clone());
        let ep = Arc::new(edge_pred.clone());
        let snapshots = self.snapshots.map(move |s| {
            let vertices: Vec<_> = s
                .vertices
                .iter()
                .filter(|(_, props)| vp.eval(props))
                .cloned()
                .collect();
            let present: std::collections::HashSet<VertexId> =
                vertices.iter().map(|(v, _)| *v).collect();
            let edges: Vec<_> = s
                .edges
                .iter()
                .filter(|(_, src, dst, props)| {
                    ep.eval(props) && present.contains(src) && present.contains(dst)
                })
                .cloned()
                .collect();
            RgSnapshot {
                interval: s.interval,
                vertices,
                edges,
            }
        });
        RgGraph {
            lifespan: self.lifespan,
            snapshots,
        }
    }
}

impl OgGraph {
    /// Temporal subgraph over OG: history elements are filtered locally;
    /// edge clipping against surviving endpoints uses the endpoint copies
    /// each edge carries, so — like Algorithm 3 — no join is needed.
    pub fn subgraph(
        &self,
        _rt: &Runtime,
        vertex_pred: &Predicate,
        edge_pred: &Predicate,
    ) -> OgGraph {
        let vp = Arc::new(vertex_pred.clone());
        let vp2 = Arc::clone(&vp);
        let ep = Arc::new(edge_pred.clone());

        let vertices: Dataset<OgVertex> = self.vertices.flat_map(move |v| {
            let history: Vec<_> = v
                .history
                .iter()
                .filter(|(_, props)| vp.eval(props))
                .cloned()
                .collect();
            if history.is_empty() {
                Vec::new()
            } else {
                vec![OgVertex {
                    vid: v.vid,
                    history,
                }]
            }
        });

        let edges: Dataset<OgEdge> = self.edges.flat_map(move |e| {
            let filter_copy = |copy: &OgVertex| -> OgVertex {
                OgVertex {
                    vid: copy.vid,
                    history: copy
                        .history
                        .iter()
                        .filter(|(_, props)| vp2.eval(props))
                        .cloned()
                        .collect(),
                }
            };
            let src = filter_copy(&e.src);
            let dst = filter_copy(&e.dst);
            let joint = intersect_interval_sets(&src.existence(), &dst.existence());
            let history: Vec<_> = e
                .history
                .iter()
                .filter(|(_, props)| ep.eval(props))
                .flat_map(|(iv, props)| {
                    joint
                        .iter()
                        .filter_map(|j| j.intersect(iv))
                        .map(|clipped| (clipped, props.clone()))
                        .collect::<Vec<_>>()
                })
                .collect();
            let history = tgraph_core::coalesce::coalesce_group(history);
            if history.is_empty() {
                Vec::new()
            } else {
                vec![OgEdge {
                    eid: e.eid,
                    src,
                    dst,
                    history,
                }]
            }
        });

        OgGraph {
            lifespan: self.lifespan,
            vertices,
            edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph_core::algebra::subgraph as subgraph_reference;
    use tgraph_core::coalesce::coalesce_graph;
    use tgraph_core::graph::figure1_graph_stable_ids;
    use tgraph_core::validate::validate;

    fn rt() -> Runtime {
        Runtime::with_partitions(4, 4)
    }

    fn canon(g: &tgraph_core::TGraph) -> (Vec<VertexRecord>, Vec<EdgeRecord>) {
        let c = coalesce_graph(g);
        (c.vertices, c.edges)
    }

    #[test]
    fn ve_subgraph_matches_reference() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        for (vp, ep) in [
            (Predicate::has("school"), Predicate::True),
            (Predicate::eq("school", "MIT"), Predicate::True),
            (Predicate::True, Predicate::eq("type", "co-author")),
            (Predicate::eq("name", "Bob").negate(), Predicate::True),
        ] {
            let expected = canon(&subgraph_reference(&g, &vp, &ep));
            let got = canon(
                &VeGraph::from_tgraph(&rt, &g)
                    .subgraph(&rt, &vp, &ep)
                    .to_tgraph(&rt),
            );
            assert_eq!(got, expected, "vp={vp:?} ep={ep:?}");
        }
    }

    #[test]
    fn rg_subgraph_matches_reference() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let vp = Predicate::has("school");
        let expected = canon(&subgraph_reference(&g, &vp, &Predicate::True));
        let got = canon(
            &RgGraph::from_tgraph(&rt, &g)
                .subgraph(&rt, &vp, &Predicate::True)
                .to_tgraph(&rt),
        );
        assert_eq!(got, expected);
    }

    #[test]
    fn og_subgraph_matches_reference() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        for vp in [
            Predicate::has("school"),
            Predicate::eq("school", "MIT"),
            Predicate::True,
        ] {
            let expected = canon(&subgraph_reference(&g, &vp, &Predicate::True));
            let got = canon(
                &OgGraph::from_tgraph(&rt, &g)
                    .subgraph(&rt, &vp, &Predicate::True)
                    .to_tgraph(&rt),
            );
            assert_eq!(got, expected, "vp={vp:?}");
        }
    }

    #[test]
    fn ve_project_coalesces_bob() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let p = VeGraph::from_tgraph(&rt, &g).project(&rt, &["name"], &[]);
        let t = p.to_tgraph(&rt);
        assert!(validate(&t).is_empty());
        let bob: Vec<_> = t.vertices.iter().filter(|v| v.vid.0 == 2).collect();
        assert_eq!(bob.len(), 1, "states merged after projecting away school");
        assert_eq!(bob[0].interval, Interval::new(2, 9));
    }

    #[test]
    fn subgraph_then_zoom_pipeline() {
        // Select enrolled people, then zoom to schools: the MIT group no
        // longer contains schoolless Bob at any point.
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let sub = VeGraph::from_tgraph(&rt, &g).subgraph(
            &rt,
            &Predicate::has("school"),
            &Predicate::True,
        );
        let spec = tgraph_core::zoom::AZoomSpec::by_property(
            "school",
            "school",
            vec![tgraph_core::zoom::AggSpec::count("students")],
        );
        let zoomed = sub.azoom(&rt, &spec).to_tgraph(&rt);
        let zoomed = coalesce_graph(&zoomed);
        assert!(validate(&zoomed).is_empty());
        assert_eq!(zoomed.distinct_vertex_count(), 2);
    }
}
