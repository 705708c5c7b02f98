//! The **One Graph Columnar (OGC)** representation: topology-only storage
//! where each vertex and edge encodes its presence in the graph's elementary
//! intervals as a bitset (§3, Figure 7).
//!
//! OGC is intended for attribute-less analysis: it retains only the required
//! `type` label. It does **not** support `aZoom^T` (no attributes to group
//! on), but implements the fastest `wZoom^T` of all representations —
//! retention is bit counting over each row on its own, and dangling-edge
//! removal, which §3.2 needs only when `r_v` is more restrictive than `r_e`,
//! is a bitwise AND with the endpoints' bits.

use crate::common::{histories_of, Histories};
use std::collections::HashSet;
use std::sync::Arc;
use tgraph_core::bitset::Bitset;
use tgraph_core::graph::{EdgeId, EdgeRecord, TGraph, VertexId, VertexRecord};
use tgraph_core::props::Props;
use tgraph_core::splitter::splitter;
use tgraph_core::time::Interval;
use tgraph_core::zoom::wzoom::{window_relation, WZoomSpec};
use tgraph_dataflow::{Dataset, KeyedDataset, Runtime};

/// A vertex as topology: id, type label, and presence bitset over the
/// graph's elementary intervals.
#[derive(Clone, Debug, PartialEq)]
pub struct OgcVertex {
    /// Vertex identity.
    pub vid: VertexId,
    /// The required type label (the only attribute OGC keeps).
    pub vtype: Arc<str>,
    /// Bit `i` set ⇔ the vertex exists during elementary interval `i`.
    pub intervals: Bitset,
}

/// An edge as topology, with endpoint ids and presence bitset.
#[derive(Clone, Debug, PartialEq)]
pub struct OgcEdge {
    /// Edge identity.
    pub eid: EdgeId,
    /// Source vertex id.
    pub src: VertexId,
    /// Destination vertex id.
    pub dst: VertexId,
    /// The required type label.
    pub etype: Arc<str>,
    /// Bit `i` set ⇔ the edge exists during elementary interval `i`.
    pub intervals: Bitset,
}

/// A TGraph as shared elementary intervals plus per-entity bitsets.
#[derive(Clone, Debug)]
pub struct OgcGraph {
    /// The graph's recorded lifetime.
    pub lifespan: Interval,
    /// The shared elementary intervals the bitsets index into.
    pub intervals: Arc<Vec<Interval>>,
    /// One record per vertex.
    pub vertices: Dataset<OgcVertex>,
    /// One record per edge.
    pub edges: Dataset<OgcEdge>,
}

impl OgcGraph {
    /// Builds OGC from the logical graph, discarding all attributes except
    /// the `type` label. The interval table is the splitter of every row's
    /// interval as given, so a graph rebuilt from its own rows (one per set
    /// bit) keeps every entry. The rows then move into per-entity histories
    /// in id order: a row's bits are the table entries its states cover, and
    /// its label is its first state's `type` (one shared string per distinct
    /// label).
    pub fn from_tgraph(rt: &Runtime, g: TGraph) -> Self {
        let spans = g.vertices.iter().map(|v| &v.interval);
        let elems = Arc::new(splitter(spans.chain(g.edges.iter().map(|e| &e.interval))));
        let lifespan = g.lifespan;
        let (vertices, edges) = histories_of(g);
        let mut labels = HashSet::new();
        let vertices = rows(vertices, &elems, &mut labels)
            .map(|(vid, vtype, intervals)| OgcVertex {
                vid,
                vtype,
                intervals,
            })
            .collect();
        let edges = rows(edges, &elems, &mut labels)
            .map(|((eid, src, dst), etype, intervals)| OgcEdge {
                eid,
                src,
                dst,
                etype,
                intervals,
            })
            .collect();
        OgcGraph {
            lifespan,
            intervals: elems,
            vertices: Dataset::from_vec(rt, vertices),
            edges: Dataset::from_vec(rt, edges),
        }
    }

    /// Materializes the topology as a logical TGraph (entities carry only
    /// their `type` property), coalesced and deterministically sorted.
    pub fn to_tgraph(&self, rt: &Runtime) -> TGraph {
        self.rows(rt).into_coalesced()
    }

    /// The rows as they are held, collected in no particular order: the
    /// workers emit one fact per set bit, so every boundary of the interval
    /// table is the start or end of some fact.
    pub(crate) fn rows(&self, rt: &Runtime) -> TGraph {
        let elems = Arc::clone(&self.intervals);
        let vertices: Vec<VertexRecord> = self
            .vertices
            .flat_map_into(move |v, emit| {
                let props = Props::typed(&v.vtype);
                for i in v.intervals.iter_ones() {
                    emit(VertexRecord {
                        vid: v.vid,
                        interval: elems[i],
                        props: props.clone(),
                    });
                }
            })
            .collect(rt);
        let elems = Arc::clone(&self.intervals);
        let edges: Vec<EdgeRecord> = self
            .edges
            .flat_map_into(move |e, emit| {
                let props = Props::typed(&e.etype);
                for i in e.intervals.iter_ones() {
                    emit(EdgeRecord {
                        eid: e.eid,
                        src: e.src,
                        dst: e.dst,
                        interval: elems[i],
                        props: props.clone(),
                    });
                }
            })
            .collect(rt);
        TGraph {
            lifespan: self.lifespan,
            vertices,
            edges,
        }
    }

    /// Number of vertex records.
    pub fn vertex_count(&self, rt: &Runtime) -> usize {
        self.vertices.count(rt)
    }

    /// Number of edge records.
    pub fn edge_count(&self, rt: &Runtime) -> usize {
        self.edges.count(rt)
    }

    /// `wZoom^T` over OGC: per entity, count covered time points per window
    /// directly from the bitset, apply the quantifier, and emit a new bitset
    /// over the window intervals. Each row is rewritten on its own, so
    /// nothing crosses an exchange unless `r_v` is more restrictive than
    /// `r_e` (§3.2): only then are dangling edges removed, by joining each
    /// edge with its endpoints' bitsets by `src` and by `dst` and ANDing.
    /// Otherwise the AND would change nothing: by Definition 2.1 an edge's
    /// points are points of both endpoints, so a window the edge's
    /// quantifier keeps meets a no more restrictive vertex quantifier at
    /// both ends.
    ///
    /// Attribute resolve functions are irrelevant — OGC retains only `type`.
    pub fn wzoom(&self, rt: &Runtime, spec: &WZoomSpec) -> OgcGraph {
        let change_points: Vec<i64> = {
            let mut pts: Vec<i64> = self.intervals.iter().map(|iv| iv.start).collect();
            if let Some(last) = self.intervals.last() {
                pts.push(last.end);
            }
            pts
        };
        let windows = Arc::new(window_relation(self.lifespan, &change_points, spec.window));
        if windows.is_empty() {
            return OgcGraph {
                lifespan: self.lifespan,
                intervals: Arc::new(Vec::new()),
                vertices: Dataset::empty(),
                edges: Dataset::empty(),
            };
        }

        // Rewrites one presence bitset from elementary intervals to windows:
        // set bits and windows are both in time order, so one forward walk
        // sums each window's covered points and gates it on the quantifier.
        let rewrite = {
            let windows = Arc::clone(&windows);
            let elems = Arc::clone(&self.intervals);
            move |bits: &Bitset, quant: &tgraph_core::zoom::wzoom::Quantifier| -> Bitset {
                let mut out = Bitset::new(windows.len());
                let mut close = |w: usize, covered: u64| {
                    if quant.satisfied(covered as f64 / windows[w].len() as f64) {
                        out.set(w);
                    }
                };
                // `covered`: points of window `w` present so far.
                let (mut w, mut covered) = (0, 0u64);
                for i in bits.iter_ones() {
                    let elem = elems[i];
                    while w < windows.len() && windows[w].start < elem.end {
                        covered += elem.intersect(&windows[w]).map_or(0, |x| x.len());
                        if windows[w].end > elem.end {
                            break; // later intervals may cover more of it
                        }
                        close(w, covered);
                        (w, covered) = (w + 1, 0);
                    }
                }
                for w in w..windows.len() {
                    close(w, std::mem::take(&mut covered));
                }
                out
            }
        };

        let vq = spec.vertex_quantifier;
        let eq = spec.edge_quantifier;
        let rw = rewrite.clone();
        let mut vertices: Dataset<OgcVertex> = self.vertices.flat_map(move |v| {
            let bits = rw(&v.intervals, &vq);
            (!bits.none()).then(|| OgcVertex {
                vid: v.vid,
                vtype: v.vtype.clone(),
                intervals: bits,
            })
        });

        let edges: Dataset<OgcEdge> = self.edges.flat_map(move |e| {
            let bits = rewrite(&e.intervals, &eq);
            (!bits.none()).then(|| OgcEdge {
                eid: e.eid,
                src: e.src,
                dst: e.dst,
                etype: e.etype.clone(),
                intervals: bits,
            })
        });

        // Dangling-edge removal (§3.2): edge.bits &= src.bits & dst.bits,
        // needed only when r_v is more restrictive than r_e.
        let edges = if spec.needs_dangling_check() {
            // The rewritten vertices feed both the masks and the output, so
            // they are rewritten once. The mask relation feeds both the
            // src-AND and dst-AND joins; partition it once so the second
            // join elides its shuffle. Each join hands its rows out by
            // reference, so the edge it ANDs into is a copy.
            vertices = vertices.materialize(rt);
            let v_bits: Dataset<(VertexId, Bitset)> =
                tgraph_dataflow::shuffle(rt, &vertices.map(|v| (v.vid, v.intervals.clone())));
            let by_src: Dataset<(VertexId, OgcEdge)> = edges.map(|e| (e.src, e.clone()));
            let anded_src: Dataset<(VertexId, OgcEdge)> =
                by_src.join(rt, &v_bits).flat_map(|(_, (e, bits))| {
                    let mut out = e.clone();
                    out.intervals.and_with(bits);
                    (!out.intervals.none()).then_some((out.dst, out))
                });
            anded_src.join(rt, &v_bits).flat_map(|(_, (e, bits))| {
                let mut out = e.clone();
                out.intervals.and_with(bits);
                (!out.intervals.none()).then_some(out)
            })
        } else {
            edges
        };

        let lifespan = Interval::hull_of(&windows);
        OgcGraph {
            lifespan,
            intervals: Arc::new(windows.as_ref().clone()),
            vertices,
            edges,
        }
    }
}

/// One `(key, type label, presence bits)` per entity of `histories`, in
/// their order: the row layout [`OgcGraph::from_tgraph`] documents. `elems`
/// is sorted and gap-free and every state starts on one of its entries, so a
/// state covers the run of entries from the one that starts where it starts;
/// `labels` holds the label strings handed out so far, shared by every row
/// that repeats one.
fn rows<'a, K: 'a>(
    histories: Histories<K>,
    elems: &'a [Interval],
    labels: &'a mut HashSet<Arc<str>>,
) -> impl Iterator<Item = (K, Arc<str>, Bitset)> + 'a {
    histories.into_iter().map(move |(key, history)| {
        let label = history.first().and_then(|(_, props)| props.type_label());
        let label = label.unwrap_or("");
        let label = labels.get(label).cloned().unwrap_or_else(|| {
            let shared: Arc<str> = Arc::from(label);
            labels.insert(Arc::clone(&shared));
            shared
        });
        let mut bits = Bitset::new(elems.len());
        for (iv, _) in &history {
            let mut i = elems.partition_point(|e| e.start < iv.start);
            while i < elems.len() && elems[i].start < iv.end {
                bits.set(i);
                i += 1;
            }
        }
        (key, label, bits)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph_core::coalesce::coalesce_graph;
    use tgraph_core::graph::figure1_graph_stable_ids;
    use tgraph_core::reference::wzoom_reference;
    use tgraph_core::zoom::wzoom::Quantifier;

    fn rt() -> Runtime {
        Runtime::with_partitions(4, 4)
    }

    /// Strips every attribute but `type` — OGC's view of a graph.
    fn topology_only(g: &TGraph) -> TGraph {
        let vertices = g
            .vertices
            .iter()
            .map(|v| VertexRecord {
                vid: v.vid,
                interval: v.interval,
                props: Props::typed(v.props.type_label().unwrap_or("")),
            })
            .collect();
        let edges = g
            .edges
            .iter()
            .map(|e| EdgeRecord {
                eid: e.eid,
                src: e.src,
                dst: e.dst,
                interval: e.interval,
                props: Props::typed(e.props.type_label().unwrap_or("")),
            })
            .collect();
        coalesce_graph(&TGraph {
            lifespan: g.lifespan,
            vertices,
            edges,
        })
    }

    #[test]
    fn figure7_structure() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let ogc = OgcGraph::from_tgraph(&rt, g);
        // Splitter: [1,2), [2,5), [5,7), [7,9).
        assert_eq!(ogc.intervals.len(), 4);
        let ann = ogc
            .vertices
            .collect(&rt)
            .into_iter()
            .find(|v| v.vid == VertexId(1))
            .unwrap();
        // Ann [1,7) covers elementary 0,1,2.
        assert_eq!(ann.intervals.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2]);
        let bob = ogc
            .vertices
            .collect(&rt)
            .into_iter()
            .find(|v| v.vid == VertexId(2))
            .unwrap();
        assert_eq!(bob.intervals.iter_ones().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn roundtrip_topology() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let expected = topology_only(&g);
        let back = OgcGraph::from_tgraph(&rt, g).to_tgraph(&rt);
        assert_eq!(back.vertices, expected.vertices);
        assert_eq!(back.edges, expected.edges);
    }

    #[test]
    fn wzoom_matches_reference_on_topology() {
        let rt = rt();
        let g = topology_only(&figure1_graph_stable_ids());
        for (vq, eq) in [
            (Quantifier::All, Quantifier::All),
            (Quantifier::Exists, Quantifier::Exists),
            (Quantifier::All, Quantifier::Exists),
            (Quantifier::Most, Quantifier::Exists),
            (Quantifier::AtLeast(1.0), Quantifier::All),
        ] {
            let spec = WZoomSpec::points(3, vq, eq);
            let expected = wzoom_reference(&g, &spec);
            let got = OgcGraph::from_tgraph(&rt, g.clone())
                .wzoom(&rt, &spec)
                .to_tgraph(&rt);
            assert_eq!(got.vertices, expected.vertices, "vq={vq:?} eq={eq:?}");
            assert_eq!(got.edges, expected.edges, "vq={vq:?} eq={eq:?}");
        }
    }

    #[test]
    fn wzoom_output_is_valid() {
        let rt = rt();
        let g = topology_only(&figure1_graph_stable_ids());
        let spec = WZoomSpec::points(2, Quantifier::Exists, Quantifier::Exists);
        let out = OgcGraph::from_tgraph(&rt, g)
            .wzoom(&rt, &spec)
            .to_tgraph(&rt);
        assert!(tgraph_core::validate::validate(&out).is_empty());
    }

    #[test]
    fn empty_graph() {
        let rt = rt();
        let ogc = OgcGraph::from_tgraph(&rt, TGraph::new());
        assert_eq!(ogc.vertex_count(&rt), 0);
        let out = ogc.wzoom(&rt, &WZoomSpec::points(3, Quantifier::All, Quantifier::All));
        assert_eq!(out.vertex_count(&rt), 0);
    }
}
