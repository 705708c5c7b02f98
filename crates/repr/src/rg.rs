//! The **Representative Graphs (RG)** representation: a TGraph stored as a
//! sequence of conventional snapshots, one per interval during which no
//! change occurred (§3, Figure 4).
//!
//! RG preserves *structural locality* — all vertices and edges of a snapshot
//! are laid out together — and parallelizes embarrassingly by assigning
//! snapshots to workers. Its drawback is the total lack of compactness:
//! every entity is replicated into every snapshot it lives through, which is
//! why the paper finds RG to be the slowest representation on every workload
//! (§5) — behaviour this implementation reproduces by construction.

use crate::common::{window_reduce, GroupBases, State};
use std::sync::Arc;
use tgraph_core::graph::{EdgeId, EdgeRecord, TGraph, VertexId, VertexRecord};
use tgraph_core::props::Props;
use tgraph_core::splitter::elementary_intervals;
use tgraph_core::time::Interval;
use tgraph_core::zoom::azoom::{AZoomSpec, AggAccumulator};
use tgraph_core::zoom::wzoom::{window_relation, windows_of, WZoomSpec};
use tgraph_dataflow::{Dataset, KeyedDataset, Runtime};

/// One snapshot: the full state of the graph during `interval`.
#[derive(Clone, Debug, PartialEq)]
pub struct RgSnapshot {
    /// The no-change interval this snapshot represents.
    pub interval: Interval,
    /// Every vertex present, with its attribute values for this interval.
    pub vertices: Vec<(VertexId, Props)>,
    /// Every edge present, with endpoints and attributes. Endpoint attributes
    /// are available through `vertices` of the same snapshot (the local
    /// triplet view).
    pub edges: Vec<(EdgeId, VertexId, VertexId, Props)>,
}

/// A TGraph stored as a distributed sequence of snapshots.
#[derive(Clone, Debug)]
pub struct RgGraph {
    /// The graph's recorded lifetime.
    pub lifespan: Interval,
    /// The snapshot sequence, partitioned across workers.
    pub snapshots: Dataset<RgSnapshot>,
}

/// The snapshots a fact alive during `iv` lives through. The elementary
/// intervals are sorted and gap-free and every fact starts on one of them, so
/// the first is found by position and the rest follow it.
fn covering(snapshots: &mut [RgSnapshot], iv: Interval) -> impl Iterator<Item = &mut RgSnapshot> {
    let first = snapshots.partition_point(|s| s.interval.start < iv.start);
    snapshots[first..]
        .iter_mut()
        .take_while(move |s| s.interval.start < iv.end)
}

impl RgGraph {
    /// Materializes the snapshot sequence of a logical TGraph: one snapshot
    /// per elementary no-change interval.
    pub fn from_tgraph(rt: &Runtime, g: TGraph) -> Self {
        let mut snapshots: Vec<RgSnapshot> = elementary_intervals(&g.change_points())
            .into_iter()
            .map(|interval| RgSnapshot {
                interval,
                vertices: Vec::new(),
                edges: Vec::new(),
            })
            .collect();
        // Replicate every fact into every elementary interval it overlaps —
        // the replication that costs RG its compactness.
        for v in &g.vertices {
            for s in covering(&mut snapshots, v.interval) {
                s.vertices.push((v.vid, v.props.clone()));
            }
        }
        for e in &g.edges {
            for s in covering(&mut snapshots, e.interval) {
                s.edges.push((e.eid, e.src, e.dst, e.props.clone()));
            }
        }
        let parts = rt.partitions().min(snapshots.len().max(1));
        RgGraph {
            lifespan: g.lifespan,
            snapshots: Dataset::from_vec_with(parts, snapshots),
        }
    }

    /// Materializes the logical graph by emitting one fact per entity per
    /// snapshot and coalescing.
    pub fn to_tgraph(&self, rt: &Runtime) -> TGraph {
        let vertices: Vec<VertexRecord> = self
            .snapshots
            .flat_map_into(|s, emit| {
                for (vid, props) in &s.vertices {
                    emit(VertexRecord {
                        vid: *vid,
                        interval: s.interval,
                        props: props.clone(),
                    });
                }
            })
            .collect(rt);
        let edges: Vec<EdgeRecord> = self
            .snapshots
            .flat_map_into(|s, emit| {
                for (eid, src, dst, props) in &s.edges {
                    emit(EdgeRecord {
                        eid: *eid,
                        src: *src,
                        dst: *dst,
                        interval: s.interval,
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
        .into_coalesced()
    }

    /// Total vertex tuples across all snapshots (RG's storage footprint).
    pub fn total_vertex_tuples(&self, rt: &Runtime) -> usize {
        self.snapshots
            .map(|s| s.vertices.len())
            .fold(rt, 0usize, |a, x| a + x, |a, b| a + b)
    }

    /// Total edge tuples across all snapshots.
    pub fn total_edge_tuples(&self, rt: &Runtime) -> usize {
        self.snapshots
            .map(|s| s.edges.len())
            .fold(rt, 0usize, |a, x| a + x, |a, b| a + b)
    }

    /// `aZoom^T` over RG — Algorithm 1: the non-temporal node-creation plan
    /// (`map` → `groupBy` → `reduce`, plus edge re-pointing through the
    /// triplet view) runs over every snapshot. There are no dependencies
    /// between snapshots, but each snapshot's `groupBy` is a genuine dataflow
    /// shuffle over that snapshot's copy of the data — so the operator's cost
    /// is proportional to RG's *replicated* volume, which is what makes RG
    /// the slowest representation in the paper's experiments (§5.1).
    ///
    /// Snapshots are identified by their interval start (unique within an
    /// RG), so all per-snapshot group-bys run as one keyed dataflow job.
    pub fn azoom(&self, rt: &Runtime, spec: &AZoomSpec) -> RgGraph {
        use tgraph_core::time::Time;
        let spec = Arc::new(spec.clone());

        // V' ← V.map(copyWithVid(f_s)).groupBy(vid).reduce(f_agg), keyed by
        // snapshot. The same Skolem ids yield the vid → group mapping the
        // edge redirection joins against.
        let spec1 = Arc::clone(&spec);
        let skolemized: Dataset<((Time, u64), (Interval, VertexId, Props))> =
            self.snapshots.flat_map_into(move |s, emit| {
                for (vid, props) in &s.vertices {
                    if let Some(gid) = spec1.group_id(*vid, props) {
                        emit(((s.interval.start, gid), (s.interval, *vid, props.clone())));
                    }
                }
            });
        let aggs = Arc::clone(&spec.aggs);
        // A group recurs in every snapshot it lives through; its base is
        // built in the first and shared by the rest.
        let bases = GroupBases::new(Arc::clone(&spec));
        let grouped: Dataset<(Time, (VertexId, Interval, Props))> = skolemized
            .group_by_key(rt)
            .map(move |((snap, gid), members)| {
                // `group_id` accepted the first member; a Skolem function
                // that now refuses it leaves the node without base attributes.
                let (interval, vid, props) = &members[0];
                let base = bases.of(*gid, *vid, props).unwrap_or_default();
                let mut acc = AggAccumulator::new(Arc::clone(&aggs));
                for (_, _, props) in members {
                    acc.update(props);
                }
                (*snap, (VertexId(*gid), *interval, acc.finish(&base)))
            });

        // Edge redirection: join each edge with the snapshot-local vertex →
        // group mapping on v1, then on v2 (the triplet view's vertex lookup
        // expressed as dataflow joins). The mapping is partitioned up front,
        // so both joins elide its shuffle: its per-snapshot copies cross one
        // exchange, not two.
        let mapping: Dataset<((Time, VertexId), u64)> = tgraph_dataflow::shuffle(
            rt,
            &self.snapshots.flat_map_into(move |s, emit| {
                for (vid, props) in &s.vertices {
                    if let Some(gid) = spec.group_id(*vid, props) {
                        emit(((s.interval.start, *vid), gid));
                    }
                }
            }),
        );
        let edges_by_src: Dataset<((Time, VertexId), (EdgeId, VertexId, Interval, Props))> =
            self.snapshots.flat_map_into(|s, emit| {
                for (eid, src, dst, props) in &s.edges {
                    emit((
                        (s.interval.start, *src),
                        (*eid, *dst, s.interval, props.clone()),
                    ));
                }
            });
        let redirected: Dataset<(Time, (EdgeId, VertexId, VertexId, Interval, Props))> =
            edges_by_src
                .join(rt, &mapping)
                .map(|((snap, _), ((eid, dst, interval, props), g1))| {
                    (
                        (*snap, *dst),
                        (*eid, VertexId(*g1), *interval, props.clone()),
                    )
                })
                .join(rt, &mapping)
                .map(|((snap, _), ((eid, g1, interval, props), g2))| {
                    (*snap, (*eid, *g1, VertexId(*g2), *interval, props.clone()))
                });

        // Rebuild one snapshot per original interval.
        let snapshots = regroup_snapshots(rt, &grouped, &redirected);
        RgGraph {
            lifespan: self.lifespan,
            snapshots,
        }
    }

    /// `wZoom^T` over RG — Algorithm 4: each snapshot's vertices and edges
    /// are mapped onto the temporal windows they overlap (the join with the
    /// window relation, lines 3–9), grouped by `(window, entity)` through a
    /// dataflow shuffle — one record **per snapshot copy** of each entity,
    /// which is RG's cost — filtered by the quantifier, reduced with the
    /// resolve function, and reassembled into one snapshot per window with
    /// dangling edges removed (when the quantifiers can leave any).
    pub fn wzoom(&self, rt: &Runtime, spec: &WZoomSpec) -> RgGraph {
        let change_points: Vec<i64> = {
            let mut starts: Vec<i64> = self.snapshots.map(|s| s.interval.start).collect(rt);
            let mut ends: Vec<i64> = self.snapshots.map(|s| s.interval.end).collect(rt);
            starts.append(&mut ends);
            starts.sort_unstable();
            starts.dedup();
            starts
        };
        let windows = Arc::new(window_relation(self.lifespan, &change_points, spec.window));
        if windows.is_empty() {
            return RgGraph {
                lifespan: self.lifespan,
                snapshots: Dataset::empty(),
            };
        }
        let spec = Arc::new(spec.clone());

        // Map snapshot-local entities onto windows (lines 3–9 / 14–15): one
        // record per entity per snapshot copy — RG pays for its replication
        // in this shuffle.
        let ws = Arc::clone(&windows);
        let aligned_v: Dataset<((usize, VertexId), State)> =
            self.snapshots.flat_map_into(move |s, emit| {
                for (idx, _w, covered) in windows_of(s.interval, &ws) {
                    for (vid, props) in &s.vertices {
                        emit(((idx, *vid), (covered, props.clone())));
                    }
                }
            });
        let ws = Arc::clone(&windows);
        let spec_v = Arc::clone(&spec);
        let kept: Dataset<((usize, VertexId), Props)> =
            aligned_v
                .group_by_key(rt)
                .flat_map(move |((idx, vid), states)| {
                    window_reduce(ws[*idx], states, &spec_v.vertex_quantifier, |s| {
                        spec_v.resolve_vertex(s)
                    })
                    .map(|props| ((*idx, *vid), props))
                });

        let ws = Arc::clone(&windows);
        let aligned_e: Dataset<((usize, EdgeId, VertexId, VertexId), State)> =
            self.snapshots.flat_map_into(move |s, emit| {
                for (idx, _w, covered) in windows_of(s.interval, &ws) {
                    for (eid, src, dst, props) in &s.edges {
                        emit(((idx, *eid, *src, *dst), (covered, props.clone())));
                    }
                }
            });
        let ws = Arc::clone(&windows);
        let spec_e = Arc::clone(&spec);
        let surviving: Dataset<((usize, VertexId), (EdgeId, VertexId, VertexId, Props))> =
            aligned_e
                .group_by_key(rt)
                .flat_map(move |((idx, eid, src, dst), states)| {
                    window_reduce(ws[*idx], states, &spec_e.edge_quantifier, |s| {
                        spec_e.resolve_edge(s)
                    })
                    .map(|props| ((*idx, *src), (*eid, *src, *dst, props)))
                });

        // Dangling-edge removal against the retained vertex set (merge step
        // of line 19), only when `r_v` is more restrictive than `r_e` (§3.2):
        // otherwise every kept edge window keeps both endpoints. Semijoin on
        // source, then destination; the same key set drives both, so it is
        // partitioned once and the second semijoin's key-side shuffle is
        // elided.
        let edges_checked: Dataset<(usize, (EdgeId, VertexId, VertexId, Props))> =
            if spec.needs_dangling_check() {
                let kept_keys: Dataset<((usize, VertexId), ())> =
                    tgraph_dataflow::shuffle(rt, &kept.map(|(k, _)| (*k, ())));
                surviving
                    .semi_join(rt, &kept_keys)
                    .map(|((idx, _), e)| ((*idx, e.2), e.clone()))
                    .semi_join(rt, &kept_keys)
                    .map(|((idx, _), e)| (*idx, e.clone()))
            } else {
                surviving.map(|((idx, _), e)| (*idx, e.clone()))
            };

        // Recreate the RG representation: one snapshot per window.
        let ws = Arc::clone(&windows);
        let v_parts: Dataset<(usize, SnapshotPart)> =
            kept.map(|((idx, vid), props)| (*idx, SnapshotPart::Vertex(*vid, props.clone())));
        let e_parts: Dataset<(usize, SnapshotPart)> =
            edges_checked.map(|(idx, e)| (*idx, SnapshotPart::Edge(e.0, e.1, e.2, e.3.clone())));
        let snapshots = v_parts
            .union(&e_parts)
            .group_by_key(rt)
            .map(move |(idx, parts)| build_snapshot(ws[*idx], parts));

        let lifespan = Interval::hull_of(&windows);
        RgGraph {
            lifespan,
            snapshots,
        }
    }
}

/// A vertex or edge flowing into snapshot reassembly.
#[derive(Clone, Debug)]
enum SnapshotPart {
    Vertex(VertexId, Props),
    Edge(EdgeId, VertexId, VertexId, Props),
}

impl tgraph_dataflow::HeapSize for SnapshotPart {
    fn heap_bytes(&self) -> usize {
        match self {
            SnapshotPart::Vertex(_, props) | SnapshotPart::Edge(_, _, _, props) => {
                props.heap_bytes()
            }
        }
    }
}

impl tgraph_dataflow::Spill for SnapshotPart {
    fn spill(&self, out: &mut Vec<u8>) {
        match self {
            SnapshotPart::Vertex(vid, props) => {
                out.push(0);
                vid.spill(out);
                props.spill(out);
            }
            SnapshotPart::Edge(eid, src, dst, props) => {
                out.push(1);
                eid.spill(out);
                src.spill(out);
                dst.spill(out);
                props.spill(out);
            }
        }
    }
    fn unspill(
        r: &mut tgraph_dataflow::SpillReader<'_>,
    ) -> Result<Self, tgraph_dataflow::DecodeError> {
        match r.u8()? {
            0 => Ok(SnapshotPart::Vertex(
                VertexId::unspill(r)?,
                Props::unspill(r)?,
            )),
            1 => Ok(SnapshotPart::Edge(
                EdgeId::unspill(r)?,
                VertexId::unspill(r)?,
                VertexId::unspill(r)?,
                Props::unspill(r)?,
            )),
            tag => Err(tgraph_dataflow::DecodeError::BadTag {
                what: "snapshot part",
                tag,
            }),
        }
    }
}

/// Rebuilds one deterministic snapshot from its parts.
fn build_snapshot(interval: Interval, parts: &[SnapshotPart]) -> RgSnapshot {
    let mut vertices = Vec::new();
    let mut edges = Vec::new();
    for p in parts {
        match p {
            SnapshotPart::Vertex(vid, props) => vertices.push((*vid, props.clone())),
            SnapshotPart::Edge(eid, src, dst, props) => {
                edges.push((*eid, *src, *dst, props.clone()))
            }
        }
    }
    vertices.sort_by_key(|(v, _)| *v);
    edges.sort_by_key(|(e, s, d, _)| (*e, *s, *d));
    RgSnapshot {
        interval,
        vertices,
        edges,
    }
}

/// Reassembles snapshots from per-snapshot vertex and edge streams (used by
/// `aZoom^T`, where snapshots are keyed by their interval start).
fn regroup_snapshots(
    rt: &Runtime,
    vertices: &Dataset<(tgraph_core::Time, (VertexId, Interval, Props))>,
    edges: &Dataset<(
        tgraph_core::Time,
        (EdgeId, VertexId, VertexId, Interval, Props),
    )>,
) -> Dataset<RgSnapshot> {
    let v_parts: Dataset<(Interval, SnapshotPart)> =
        vertices.map(|(_, (vid, iv, props))| (*iv, SnapshotPart::Vertex(*vid, props.clone())));
    let e_parts: Dataset<(Interval, SnapshotPart)> =
        edges.map(|(_, (eid, src, dst, iv, props))| {
            (*iv, SnapshotPart::Edge(*eid, *src, *dst, props.clone()))
        });
    v_parts
        .union(&e_parts)
        .group_by_key(rt)
        .map(|(interval, parts)| build_snapshot(*interval, parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph_core::coalesce::coalesce_graph;
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
    fn snapshot_sequence_matches_figure4() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let rg = RgGraph::from_tgraph(&rt, g);
        let mut snaps = rg.snapshots.collect(&rt);
        snaps.sort_by_key(|s| s.interval.start);
        // Elementary intervals: [1,2), [2,5), [5,7), [7,9).
        assert_eq!(snaps.len(), 4);
        assert_eq!(snaps[0].interval, Interval::new(1, 2));
        assert_eq!(snaps[0].vertices.len(), 2); // Ann, Cat
        assert!(snaps[0].edges.is_empty());
        assert_eq!(snaps[1].interval, Interval::new(2, 5));
        assert_eq!(snaps[1].vertices.len(), 3);
        assert_eq!(snaps[1].edges.len(), 1); // e1
        assert_eq!(snaps[3].interval, Interval::new(7, 9));
        assert_eq!(snaps[3].edges.len(), 1); // e2
    }

    #[test]
    fn roundtrip_through_tgraph() {
        let rt = rt();
        let g = coalesce_graph(&figure1_graph_stable_ids());
        let rg = RgGraph::from_tgraph(&rt, g.clone());
        let back = rg.to_tgraph(&rt);
        assert_eq!(back.vertices, g.vertices);
        assert_eq!(back.edges, g.edges);
    }

    #[test]
    fn rg_replication_footprint() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let rg = RgGraph::from_tgraph(&rt, g);
        // Ann appears in 3 snapshots, Bob in 3, Cat in 4 → 10 vertex tuples
        // versus VE's 4: the compactness loss the paper describes.
        assert_eq!(rg.total_vertex_tuples(&rt), 10);
        assert_eq!(rg.total_edge_tuples(&rt), 3);
    }

    #[test]
    fn azoom_matches_reference() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let expected = azoom_reference(&g, &school_spec());
        let got = RgGraph::from_tgraph(&rt, g)
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
        let got = RgGraph::from_tgraph(&rt, g)
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
        let got = RgGraph::from_tgraph(&rt, g)
            .wzoom(&rt, &spec)
            .to_tgraph(&rt);
        assert_eq!(got.vertices, expected.vertices);
        assert_eq!(got.edges, expected.edges);
    }

    #[test]
    fn wzoom_mixed_quantifiers_stay_valid() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let spec = WZoomSpec::points(3, Quantifier::All, Quantifier::Exists);
        let expected = wzoom_reference(&g, &spec);
        let got = RgGraph::from_tgraph(&rt, g)
            .wzoom(&rt, &spec)
            .to_tgraph(&rt);
        assert_eq!(got.edges, expected.edges);
        assert!(tgraph_core::validate::validate(&got).is_empty());
    }

    #[test]
    fn azoom_empty_graph() {
        let rt = rt();
        let rg = RgGraph::from_tgraph(&rt, TGraph::new());
        let out = rg.azoom(&rt, &school_spec());
        assert_eq!(out.snapshots.count(&rt), 0);
    }
}
