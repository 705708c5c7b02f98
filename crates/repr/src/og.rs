//! The **One Graph (OG)** representation: every vertex and edge is stored
//! exactly once, carrying the evolution of its attributes as a *history
//! array* of `(interval, attributes)` items (§3, Figure 6).
//!
//! OG maximizes temporal locality (an entity's whole history is one record)
//! while keeping structural locality (edges carry their endpoint vertices
//! instead of foreign keys, the GraphX-triplet-view analogue), at the price of
//! denser records. The paper finds OG to be the best representation for
//! `aZoom^T` and competitive everywhere (§5.4).
//!
//! The paper's edge holds a *copy* of each endpoint. Here the copies are
//! shared, as in GraphX's routing table: a load builds one `Arc<OgVertex>`
//! per vertex and every incident edge refers to it, and `wZoom^T` zooms each
//! shared endpoint once per partition. Sharing is invisible to results and
//! to bytes: a shared endpoint is charged, framed and spilled as the copy it
//! stands for.

use crate::common::{
    aggregate_group_history, clip_history, coalesce_states, existence, histories_of,
    rezoom_history, GroupBases, State,
};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use tgraph_core::coalesce::coalesce_group;
use tgraph_core::graph::{EdgeId, TGraph, VertexId};
use tgraph_core::props::Props;
use tgraph_core::time::{Interval, Time};
use tgraph_core::zoom::azoom::AZoomSpec;
use tgraph_core::zoom::wzoom::{window_relation, WZoomSpec};
use tgraph_dataflow::{Dataset, KeyedDataset, Runtime};

/// A vertex with its full attribute history (sorted by start, coalesced).
#[derive(Clone, Debug, PartialEq)]
pub struct OgVertex {
    /// Vertex identity.
    pub vid: VertexId,
    /// `(interval, attributes)` items covering every period of existence.
    pub history: Vec<State>,
}

impl OgVertex {
    /// The union of the vertex's existence intervals.
    pub fn existence(&self) -> Vec<Interval> {
        existence(&self.history)
    }
}

/// An edge with its endpoint vertices (not foreign keys) and its own
/// attribute history.
#[derive(Clone, Debug, PartialEq)]
pub struct OgEdge {
    /// Edge identity.
    pub eid: EdgeId,
    /// The source vertex, including its history: a shared reference, the
    /// bytes of a copy when framed or spilled.
    pub src: Arc<OgVertex>,
    /// The destination vertex, including its history: a shared reference,
    /// the bytes of a copy when framed or spilled.
    pub dst: Arc<OgVertex>,
    /// `(interval, attributes)` items of the edge itself.
    pub history: Vec<State>,
}

/// The endpoints one partition of a `wZoom^T` pass has zoomed, keyed by the
/// address of the shared record each was zoomed from. An entry holds that
/// record, so its address cannot be reused by another vertex while the memo
/// lives.
#[derive(Default)]
struct ZoomedEndpoints(HashMap<*const OgVertex, (Arc<OgVertex>, Arc<OgVertex>)>);

impl ZoomedEndpoints {
    /// `v` with its history recomputed by `zoom`, once per shared record.
    fn of(&mut self, v: &Arc<OgVertex>, zoom: &impl Fn(&[State]) -> Vec<State>) -> Arc<OgVertex> {
        let zoomed = || {
            Arc::new(OgVertex {
                vid: v.vid,
                history: zoom(&v.history),
            })
        };
        if Arc::strong_count(v) == 1 {
            // No other edge refers to this endpoint: nothing to share.
            return zoomed();
        }
        let (_, z) = self
            .0
            .entry(Arc::as_ptr(v))
            .or_insert_with(|| (Arc::clone(v), zoomed()));
        Arc::clone(z)
    }
}

/// A TGraph stored as single aggregated vertex and edge collections.
#[derive(Clone, Debug)]
pub struct OgGraph {
    /// The graph's recorded lifetime.
    pub lifespan: Interval,
    /// One record per vertex.
    pub vertices: Dataset<OgVertex>,
    /// One record per edge (per endpoint pair).
    pub edges: Dataset<OgEdge>,
}

impl OgGraph {
    /// Builds OG from the logical graph: its rows move into per-entity
    /// histories in id order, each sorted by start and coalesced; every
    /// vertex that is an endpoint is copied once into an `Arc` that all its
    /// edges share. An endpoint without a vertex row — a date-range load can
    /// leave one outside the range — gets an empty history.
    pub fn from_tgraph(rt: &Runtime, g: TGraph) -> Self {
        let lifespan = g.lifespan;
        let (vertices, edges) = histories_of(g);
        let vertices: Vec<OgVertex> = vertices
            .into_iter()
            .map(|(vid, history)| OgVertex { vid, history })
            .collect();
        let mut shared: Vec<Option<Arc<OgVertex>>> = vec![None; vertices.len()];
        let mut endpoint = |vid: VertexId| match vertices.binary_search_by_key(&vid, |v| v.vid) {
            Ok(i) => Arc::clone(shared[i].get_or_insert_with(|| Arc::new(vertices[i].clone()))),
            Err(_) => Arc::new(OgVertex {
                vid,
                history: Vec::new(),
            }),
        };
        let edges: Vec<OgEdge> = edges
            .into_iter()
            .map(|((eid, src, dst), history)| OgEdge {
                eid,
                src: endpoint(src),
                dst: endpoint(dst),
                history,
            })
            .collect();
        OgGraph {
            lifespan,
            vertices: Dataset::from_vec(rt, vertices),
            edges: Dataset::from_vec(rt, edges),
        }
    }

    /// Materializes the logical graph (coalesced, deterministically sorted).
    pub fn to_tgraph(&self, rt: &Runtime) -> TGraph {
        self.rows(rt).into_coalesced()
    }

    /// The history arrays laid flat (the OG → VE conversion) and collected
    /// as they lie, in no particular order.
    pub(crate) fn rows(&self, rt: &Runtime) -> TGraph {
        let flat = crate::convert::og_to_ve(rt, self);
        TGraph {
            lifespan: self.lifespan,
            vertices: flat.vertices.collect(rt),
            edges: flat.edges.collect(rt),
        }
    }

    /// The logical graph's change points ([`TGraph::change_points`]), read
    /// off the history arrays where they lie, with no flattening or
    /// collecting of the graph.
    pub fn change_points(&self, rt: &Runtime) -> Vec<Time> {
        let add = |mut points: BTreeSet<Time>, history: &[State]| {
            for (iv, _) in coalesce_states(history).iter() {
                points.insert(iv.start);
                points.insert(iv.end);
            }
            points
        };
        let union = |mut a: BTreeSet<Time>, b: BTreeSet<Time>| {
            a.extend(b);
            a
        };
        let vertices =
            self.vertices
                .fold(rt, BTreeSet::new(), move |p, v| add(p, &v.history), union);
        let edges = self
            .edges
            .fold(rt, BTreeSet::new(), move |p, e| add(p, &e.history), union);
        union(vertices, edges).into_iter().collect()
    }

    /// Number of vertex records (one per distinct vertex).
    pub fn vertex_count(&self, rt: &Runtime) -> usize {
        self.vertices.count(rt)
    }

    /// Number of edge records.
    pub fn edge_count(&self, rt: &Runtime) -> usize {
        self.edges.count(rt)
    }

    /// `aZoom^T` over OG — Algorithm 3 (illustrated in Figure 8).
    ///
    /// Vertices are split on their history arrays, the Skolem function is
    /// applied to every history element individually (flatMap + map), and
    /// identity-equivalent elements are grouped and reduced with `f_agg`.
    /// Edge redirection needs **no join**: each edge carries its endpoint
    /// vertices, so `recompute_history` derives the redirected history from
    /// local data.
    pub fn azoom(&self, rt: &Runtime, spec: &AZoomSpec) -> OgGraph {
        let spec = Arc::new(spec.clone());

        // V' ← V.flatMap(split history).groupBy(vid).reduce(f_agg)
        let spec1 = Arc::clone(&spec);
        let split: Dataset<(u64, (VertexId, State))> =
            self.vertices.flat_map_into(move |v, emit| {
                for (iv, attr) in &v.history {
                    if let Some(gid) = spec1.group_id(v.vid, attr) {
                        emit((gid, (v.vid, (*iv, attr.clone()))));
                    }
                }
            });
        let spec2 = Arc::clone(&spec);
        let vertices: Dataset<OgVertex> = split.group_by_key(rt).flat_map(move |(gid, members)| {
            let history = aggregate_group_history(&spec2, members);
            (!history.is_empty()).then_some(OgVertex {
                vid: VertexId(*gid),
                history,
            })
        });

        // E' ← E.map(recompute_history ∘ copyWithVids): all local.
        //
        // Endpoint copies carry the Skolem base of their group: shared by
        // every edge that touches the group.
        let bases = GroupBases::new(Arc::clone(&spec));
        type Pairs = Vec<((u64, u64), (Props, Props), Vec<State>)>;
        let edges: Dataset<OgEdge> = self.edges.flat_map_with(move |pairs: &mut Pairs, e, emit| {
            // For every (edge-state × src-state × dst-state) overlap, derive
            // the redirected piece; group pieces by the endpoint-group pair.
            // An edge sees a handful of pairs at most: a list, not a map, and
            // one list per partition, drained by every edge.
            for (eiv, eprops) in &e.history {
                for (siv, sprops) in &e.src.history {
                    let Some(es) = eiv.intersect(siv) else {
                        continue;
                    };
                    let Some(gs) = spec.group_id(e.src.vid, sprops) else {
                        continue;
                    };
                    for (div, dprops) in &e.dst.history {
                        let Some(esd) = es.intersect(div) else {
                            continue;
                        };
                        let Some(gd) = spec.group_id(e.dst.vid, dprops) else {
                            continue;
                        };
                        let piece = (esd, eprops.clone());
                        match pairs.iter_mut().find(|(pair, ..)| *pair == (gs, gd)) {
                            Some((.., pieces)) => pieces.push(piece),
                            None => {
                                // `group_id` accepted both states, so both
                                // bases exist; a Skolem function that says
                                // otherwise drops the pair.
                                let bases = bases
                                    .of(gs, e.src.vid, sprops)
                                    .zip(bases.of(gd, e.dst.vid, dprops));
                                if let Some(bases) = bases {
                                    pairs.push(((gs, gd), bases, vec![piece]));
                                }
                            }
                        }
                    }
                }
            }
            pairs.sort_by_key(|(pair, ..)| *pair);
            for ((gs, gd), (sbase, dbase), pieces) in pairs.drain(..) {
                let history = coalesce_group(pieces);
                // Endpoint copies carry the Skolem base attributes;
                // aggregated attributes live on the vertex relation.
                let copy = |vid: u64, base: Props| {
                    Arc::new(OgVertex {
                        vid: VertexId(vid),
                        history: history.iter().map(|(iv, _)| (*iv, base.clone())).collect(),
                    })
                };
                emit(OgEdge {
                    eid: e.eid,
                    src: copy(gs, sbase),
                    dst: copy(gd, dbase),
                    history,
                });
            }
        });

        OgGraph {
            lifespan: self.lifespan,
            vertices,
            edges,
        }
    }

    /// `wZoom^T` over OG — Algorithm 6.
    ///
    /// Each entity's history array is recomputed locally (`recomputeIntervals`
    /// plus `aggregateAndFilterAttributes`: align to windows, gate on the
    /// quantifier, resolve attributes, coalesce). When `r_v` is more
    /// restrictive than `r_e`, dangling edges are removed with two semijoins
    /// that intersect the edge history with the zoomed endpoint histories.
    pub fn wzoom(&self, rt: &Runtime, spec: &WZoomSpec) -> OgGraph {
        let change_points = match spec.window {
            tgraph_core::zoom::wzoom::WindowSpec::Changes(_) => self.change_points(rt),
            _ => Vec::new(),
        };
        let windows = Arc::new(window_relation(self.lifespan, &change_points, spec.window));
        if windows.is_empty() {
            return OgGraph {
                lifespan: self.lifespan,
                vertices: Dataset::empty(),
                edges: Dataset::empty(),
            };
        }
        let spec = Arc::new(spec.clone());

        // History arrays are coalesced by construction (the correctness
        // precondition of §3.2 holds per record in OG), so each is recomputed
        // by one walk against the window relation.
        let ws = Arc::clone(&windows);
        let spec_v = Arc::clone(&spec);
        let rezoom_vertex = move |history: &[State]| {
            rezoom_history(history, &ws, &spec_v.vertex_quantifier, |s| {
                spec_v.resolve_vertex(s)
            })
        };

        let rz = rezoom_vertex.clone();
        let zoom_vertex = move |v: &OgVertex| {
            let history = rz(&v.history);
            (!history.is_empty()).then_some(OgVertex {
                vid: v.vid,
                history,
            })
        };
        let vertices: Dataset<OgVertex> = self.vertices.flat_map(zoom_vertex.clone());

        let ws = Arc::clone(&windows);
        let spec_e = Arc::clone(&spec);
        let edges: Dataset<OgEdge> =
            self.edges
                .flat_map_with(move |zoomed: &mut ZoomedEndpoints, e, emit| {
                    let history = rezoom_history(&e.history, &ws, &spec_e.edge_quantifier, |s| {
                        spec_e.resolve_edge(s)
                    });
                    // Refresh the endpoints by zooming them locally with the
                    // same (pure) per-vertex computation the vertex relation
                    // uses, so chained operators see post-zoom endpoint
                    // histories; the edges of a partition that share an
                    // endpoint share its zoomed record too.
                    if !history.is_empty() {
                        emit(OgEdge {
                            eid: e.eid,
                            src: zoomed.of(&e.src, &rezoom_vertex),
                            dst: zoomed.of(&e.dst, &rezoom_vertex),
                            history,
                        });
                    }
                });

        // Dangling-edge removal (lines 9–15).
        let edges = if spec.needs_dangling_check() {
            // Joined twice (src clip, then dst clip): partition once, the
            // second join elides its vertex-side shuffle. A surviving edge
            // refers to the joined vertex record, it does not copy it.
            let v_by_id: Dataset<(VertexId, Arc<OgVertex>)> = tgraph_dataflow::shuffle(
                rt,
                &self
                    .vertices
                    .flat_map(move |v| zoom_vertex(v).map(|z| (z.vid, Arc::new(z)))),
            );
            let by_src: Dataset<(VertexId, OgEdge)> = edges.map(|e| (e.src.vid, e.clone()));
            let clipped_src: Dataset<(VertexId, OgEdge)> =
                by_src.join(rt, &v_by_id).flat_map(|(_, (e, v))| {
                    let history = clip_history(&e.history, &v.existence());
                    (!history.is_empty()).then(|| {
                        (
                            e.dst.vid,
                            OgEdge {
                                eid: e.eid,
                                src: Arc::clone(v),
                                dst: Arc::clone(&e.dst),
                                history,
                            },
                        )
                    })
                });
            clipped_src.join(rt, &v_by_id).flat_map(|(_, (e, v))| {
                let history = clip_history(&e.history, &v.existence());
                (!history.is_empty()).then(|| OgEdge {
                    eid: e.eid,
                    src: Arc::clone(&e.src),
                    dst: Arc::clone(v),
                    history,
                })
            })
        } else {
            edges
        };

        let lifespan = Interval::hull_of(&windows);
        OgGraph {
            lifespan,
            vertices,
            edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph_core::coalesce::coalesce_graph;
    use tgraph_core::graph::{figure1_graph_stable_ids, EdgeRecord, VertexRecord};
    use tgraph_core::reference::{azoom_reference, wzoom_reference};
    use tgraph_core::zoom::azoom::AggSpec;
    use tgraph_core::zoom::wzoom::{Quantifier, ResolveFn};
    use tgraph_core::Props;

    fn rt() -> Runtime {
        Runtime::with_partitions(4, 4)
    }

    fn school_spec() -> AZoomSpec {
        AZoomSpec::by_property("school", "school", vec![AggSpec::count("students")])
    }

    #[test]
    fn figure6_structure() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let og = OgGraph::from_tgraph(&rt, g);
        assert_eq!(og.vertex_count(&rt), 3, "one record per vertex");
        assert_eq!(og.edge_count(&rt), 2);
        let bob = og
            .vertices
            .collect(&rt)
            .into_iter()
            .find(|v| v.vid == VertexId(2))
            .unwrap();
        assert_eq!(bob.history.len(), 2, "Bob holds two history items");
        assert_eq!(bob.history[0].0, Interval::new(2, 5));
        assert_eq!(bob.history[1].0, Interval::new(5, 9));
        // Edges carry their endpoints with history.
        let e1 = og
            .edges
            .collect(&rt)
            .into_iter()
            .find(|e| e.eid == EdgeId(1))
            .unwrap();
        assert_eq!(e1.src.vid, VertexId(1));
        assert_eq!(e1.dst.history.len(), 2);
    }

    #[test]
    fn roundtrip_through_tgraph() {
        let rt = rt();
        let g = coalesce_graph(&figure1_graph_stable_ids());
        let og = OgGraph::from_tgraph(&rt, g.clone());
        let back = og.to_tgraph(&rt);
        assert_eq!(back.vertices, g.vertices);
        assert_eq!(back.edges, g.edges);
    }

    #[test]
    fn azoom_matches_reference() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let expected = azoom_reference(&g, &school_spec());
        let got = OgGraph::from_tgraph(&rt, g)
            .azoom(&rt, &school_spec())
            .to_tgraph(&rt);
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
        let got = OgGraph::from_tgraph(&rt, g)
            .wzoom(&rt, &spec)
            .to_tgraph(&rt);
        assert_eq!(got.vertices, expected.vertices);
        assert_eq!(got.edges, expected.edges);
    }

    #[test]
    fn wzoom_matches_reference_exists() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let spec = WZoomSpec::points(3, Quantifier::Exists, Quantifier::Exists);
        let expected = wzoom_reference(&g, &spec);
        let got = OgGraph::from_tgraph(&rt, g)
            .wzoom(&rt, &spec)
            .to_tgraph(&rt);
        assert_eq!(got.vertices, expected.vertices);
        assert_eq!(got.edges, expected.edges);
    }

    #[test]
    fn wzoom_dangling_removal() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let spec = WZoomSpec::points(3, Quantifier::All, Quantifier::Exists);
        let expected = wzoom_reference(&g, &spec);
        let got = OgGraph::from_tgraph(&rt, g)
            .wzoom(&rt, &spec)
            .to_tgraph(&rt);
        assert_eq!(got.vertices, expected.vertices);
        assert_eq!(got.edges, expected.edges);
        assert!(tgraph_core::validate::validate(&got).is_empty());
    }

    /// The change points read off the history arrays are the flattened,
    /// coalesced graph's, before and after a zoom.
    #[test]
    fn change_points_agree_with_the_logical_graph() {
        let rt = rt();
        for g in [figure1_graph_stable_ids(), hub_graph()] {
            let og = OgGraph::from_tgraph(&rt, g.clone());
            assert_eq!(og.change_points(&rt), og.to_tgraph(&rt).change_points());
            let zoomed = og.azoom(&rt, &school_spec());
            assert_eq!(
                zoomed.change_points(&rt),
                zoomed.to_tgraph(&rt).change_points()
            );
        }
    }

    /// A hub vertex with three states and 60 incident edges in both
    /// directions, over leaves of staggered lifetimes.
    fn hub_graph() -> TGraph {
        let hub = |level: i64| Props::typed("hub").with("level", level);
        let mut vertices = vec![
            VertexRecord::new(0, Interval::new(0, 10), hub(1)),
            VertexRecord::new(0, Interval::new(10, 20), hub(2)),
            VertexRecord::new(0, Interval::new(20, 30), hub(3)),
        ];
        let mut edges = Vec::new();
        for leaf in 1..=60u64 {
            let (start, end) = ((leaf % 7) as i64, 30 - (leaf % 5) as i64);
            vertices.push(VertexRecord::new(
                leaf,
                Interval::new(start, end),
                Props::typed("leaf"),
            ));
            let (src, dst) = if leaf % 2 == 0 { (0, leaf) } else { (leaf, 0) };
            edges.push(EdgeRecord::new(
                100 + leaf,
                src,
                dst,
                Interval::new(start + 1, end - 1),
                Props::typed("link"),
            ));
        }
        TGraph::from_records(vertices, edges)
    }

    /// The hub endpoint of an edge.
    fn hub_of(e: &OgEdge) -> &Arc<OgVertex> {
        if e.src.vid == VertexId(0) {
            &e.src
        } else {
            &e.dst
        }
    }

    #[test]
    fn edges_share_their_endpoints_before_and_after_wzoom() {
        let rt = rt();
        let og = OgGraph::from_tgraph(&rt, hub_graph());
        let edges = og.edges.collect(&rt);
        assert_eq!(edges.len(), 60);
        assert!(
            edges
                .iter()
                .all(|e| Arc::ptr_eq(hub_of(e), hub_of(&edges[0]))),
            "a load gives every edge of the hub one shared record"
        );
        assert_eq!(hub_of(&edges[0]).history.len(), 3);

        let spec = WZoomSpec::points(4, Quantifier::Exists, Quantifier::Exists);
        // Per partition: (edges, distinct zoomed hub records among them).
        let shares = og.wzoom(&rt, &spec).edges.map_partitions(|part| {
            let mut hubs: Vec<&Arc<OgVertex>> = part.iter().map(hub_of).collect();
            hubs.dedup_by(|a, b| Arc::ptr_eq(a, b));
            vec![(part.len(), hubs.len())]
        });
        let shares = shares.collect(&rt);
        assert_eq!(shares.iter().map(|(n, _)| n).sum::<usize>(), 60);
        for (n, hubs) in shares {
            assert_eq!(hubs, usize::from(n > 0), "{n} edges zoom the hub once");
        }
    }

    #[test]
    fn wzoom_on_a_shared_hub_matches_reference() {
        let rt = rt();
        let g = hub_graph();
        let og = OgGraph::from_tgraph(&rt, g.clone());
        // all/exists reaches the dangling-edge join; exists/exists does not.
        // The 4 KiB budget sends the joins' shared endpoints through runs.
        for budget in [0, 4 << 10] {
            rt.set_mem_budget(budget);
            for vq in [Quantifier::Exists, Quantifier::All] {
                let spec = WZoomSpec::points(4, vq, Quantifier::Exists);
                let expected = wzoom_reference(&g, &spec);
                let got = og.wzoom(&rt, &spec).to_tgraph(&rt);
                assert_eq!(got.vertices, expected.vertices, "{vq:?} at {budget}");
                assert_eq!(got.edges, expected.edges, "{vq:?} at {budget}");
            }
        }
        assert!(rt.stats().bytes_spilled > 0);
    }

    #[test]
    fn azoom_edge_endpoint_pair_changes_over_time() {
        // A vertex that changes group mid-edge must split the edge into two
        // OgEdge records with different endpoint pairs.
        let rt = rt();
        let g = TGraph::from_records(
            vec![
                VertexRecord::new(1, Interval::new(0, 10), Props::typed("p").with("g", "a")),
                VertexRecord::new(2, Interval::new(0, 5), Props::typed("p").with("g", "a")),
                VertexRecord::new(2, Interval::new(5, 10), Props::typed("p").with("g", "b")),
            ],
            vec![EdgeRecord::new(
                7,
                1,
                2,
                Interval::new(0, 10),
                Props::typed("knows"),
            )],
        );
        let spec = AZoomSpec::by_property("g", "group", vec![AggSpec::count("n")]);
        let og = OgGraph::from_tgraph(&rt, g.clone()).azoom(&rt, &spec);
        let edges = og.edges.collect(&rt);
        assert_eq!(edges.len(), 2, "edge splits into (a→a) and (a→b)");
        let expected = azoom_reference(&g, &spec);
        let got = og.to_tgraph(&rt);
        assert_eq!(got.edges, expected.edges);
        assert_eq!(got.vertices, expected.vertices);
    }
}
