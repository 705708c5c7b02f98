//! The `GraphLoader` utility of §4: initializes any physical representation
//! from files on disk, applying a date-range filter through the format's
//! predicate pushdown.
//!
//! A dataset directory holds one file per stem, `<name>.temporal.tgc`: flat
//! rows sorted by entity id, then start. Every representation loads from
//! it: the decoded rows of the file and its epoch segments move into
//! `AnyGraph::from_tgraph`, the constructor every other caller uses too, so
//! how a representation lays out its rows is decided in `tgraph-repr`
//! alone. §4 also wrote a start-then-id copy for RG and a nested copy for
//! OG/OGC, because on Parquet regrouping the flat rows by entity costs a
//! shuffle; here the entity order already keeps each history in adjacent
//! rows, so OG and OGC cut the decoded rows into histories with one sort
//! and no shuffle (EXPERIMENTS.md, A1). A `.structural.tgc` or `.tgo` an
//! older build left beside the file is never opened.

use crate::epochs::{read_epochs, segment_stem, EpochEntry};
use crate::format::{read_tgc, write_tgc, ScanStats, StorageError, DEFAULT_CHUNK_ROWS};
use std::path::{Path, PathBuf};
use tgraph_core::graph::TGraph;
use tgraph_core::time::Interval;
use tgraph_dataflow::Runtime;
use tgraph_repr::{AnyGraph, ReprKind};

/// `<stem>.temporal.tgc` under `dir`: the one file of a file-name stem.
pub(crate) fn flat_path(dir: &Path, stem: &str) -> PathBuf {
    dir.join(format!("{stem}.temporal.tgc"))
}

/// Writes `g` under one file-name stem: the dataset's name for the base,
/// [`segment_stem`] for an epoch's segment.
pub(crate) fn write_stem(dir: &Path, stem: &str, g: &TGraph) -> Result<(), StorageError> {
    write_tgc(&flat_path(dir, stem), g, DEFAULT_CHUNK_ROWS)
}

/// Writes a dataset directory holding the on-disk encoding of a graph.
pub fn write_dataset(dir: &Path, name: &str, g: &TGraph) -> Result<(), StorageError> {
    std::fs::create_dir_all(dir)?;
    write_stem(dir, name, g)
}

/// Loads TGraph datasets from disk into any physical representation.
#[derive(Clone, Debug)]
pub struct GraphLoader {
    dir: PathBuf,
    name: String,
}

/// The epoch a dataset whose manifest lists `epochs` is at (0 for a
/// base-only dataset).
pub(crate) fn last_epoch(epochs: &[EpochEntry]) -> u64 {
    epochs.last().map_or(0, |e| e.epoch)
}

impl GraphLoader {
    /// A loader for dataset `name` under directory `dir`.
    pub fn new(dir: impl Into<PathBuf>, name: impl Into<String>) -> Self {
        GraphLoader {
            dir: dir.into(),
            name: name.into(),
        }
    }

    /// The dataset's committed epoch list (empty for a base-only dataset).
    pub fn epochs(&self) -> Result<Vec<EpochEntry>, StorageError> {
        read_epochs(&self.dir, &self.name)
    }

    /// The dataset's current epoch number (0 for a base-only dataset).
    pub fn current_epoch(&self) -> Result<u64, StorageError> {
        Ok(last_epoch(&self.epochs()?))
    }

    /// Loads the flat file as a logical graph, merged with every committed
    /// epoch segment. The range pushdown applies to each file independently
    /// — a suffix scan (`[cut, ∞)`) skips every base chunk whose facts all
    /// end by the cut and reads the segments nearly whole.
    pub fn load_flat(&self, range: Option<Interval>) -> Result<(TGraph, ScanStats), StorageError> {
        self.flat_at(range, &self.epochs()?)
    }

    /// [`GraphLoader::load_flat`] over the segments `epochs` lists.
    fn flat_at(
        &self,
        range: Option<Interval>,
        epochs: &[EpochEntry],
    ) -> Result<(TGraph, ScanStats), StorageError> {
        let (mut g, mut stats) = read_tgc(&flat_path(&self.dir, &self.name), range)?;
        for entry in epochs {
            let stem = segment_stem(&self.name, entry.epoch);
            let (d, s) = read_tgc(&flat_path(&self.dir, &stem), range)?;
            stats.add(s);
            g.lifespan = g.lifespan.hull(&d.lifespan);
            g.vertices.extend(d.vertices);
            g.edges.extend(d.edges);
        }
        Ok((g, stats))
    }

    /// Loads any representation from the flat file and every epoch segment.
    pub fn load(
        &self,
        rt: &Runtime,
        kind: ReprKind,
        range: Option<Interval>,
    ) -> Result<(AnyGraph, ScanStats), StorageError> {
        self.load_at(rt, kind, range, &self.epochs()?)
    }

    /// [`GraphLoader::load`] over the segments `epochs` lists: the pool
    /// passes the one reading of the manifest it also takes
    /// `SharedGraph.epoch` from, so that number cannot name a segment the
    /// load missed.
    pub(crate) fn load_at(
        &self,
        rt: &Runtime,
        kind: ReprKind,
        range: Option<Interval>,
        epochs: &[EpochEntry],
    ) -> Result<(AnyGraph, ScanStats), StorageError> {
        let (g, scan) = self.flat_at(range, epochs)?;
        Ok((AnyGraph::from_tgraph(rt, g, kind), scan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph_core::coalesce::coalesce_graph;
    use tgraph_core::graph::figure1_graph_stable_ids;

    fn rt() -> Runtime {
        Runtime::with_partitions(2, 2)
    }

    fn setup(name: &str) -> GraphLoader {
        let dir = std::env::temp_dir().join("tgc-loader-tests");
        let g = figure1_graph_stable_ids();
        write_dataset(&dir, name, &g).unwrap();
        GraphLoader::new(dir, name)
    }

    #[test]
    fn loads_every_representation() {
        let rt = rt();
        let loader = setup("fig1");
        let expected = coalesce_graph(&figure1_graph_stable_ids());
        for kind in [ReprKind::Ve, ReprKind::Rg, ReprKind::Og] {
            let (any, _) = loader.load(&rt, kind, None).unwrap();
            assert_eq!(any.kind(), kind);
            let back = any.to_tgraph(&rt);
            assert_eq!(back.vertices, expected.vertices, "{kind}");
            assert_eq!(back.edges, expected.edges, "{kind}");
        }
        // OGC loads topology.
        let (ogc, _) = loader.load(&rt, ReprKind::Ogc, None).unwrap();
        assert_eq!(ogc.to_tgraph(&rt).distinct_vertex_count(), 3);
    }

    #[test]
    fn og_edges_carry_endpoint_copies() {
        let rt = rt();
        let loader = setup("fig1b");
        let Ok((AnyGraph::Og(og), _)) = loader.load(&rt, ReprKind::Og, None) else {
            panic!("an OG load answers OG");
        };
        let e1 = og
            .edges
            .collect(&rt)
            .into_iter()
            .find(|e| e.eid.0 == 1)
            .unwrap();
        assert_eq!(e1.dst.history.len(), 2, "Bob's copy has both states");
    }

    #[test]
    fn date_range_filter_applies() {
        let rt = rt();
        let loader = setup("fig1c");
        let (ve, _) = loader
            .load(&rt, ReprKind::Ve, Some(Interval::new(1, 3)))
            .unwrap();
        let g = ve.to_tgraph(&rt);
        assert_eq!(g.lifespan, Interval::new(1, 3));
        assert!(g.vertices.iter().all(|v| v.interval.end <= 3));
        // Bob's CMU state and e2 are gone.
        assert!(g.vertices.iter().all(|v| v
            .props
            .get("school")
            .is_none_or(|s| s.as_str() == Some("MIT"))));
        assert_eq!(g.edges.len(), 1);
    }

    #[test]
    fn epoch_segments_merge_into_every_representation() {
        use tgraph_core::graph::{EdgeRecord, VertexId, VertexRecord};
        use tgraph_core::props::Props;
        let rt = rt();
        let dir = std::env::temp_dir().join("tgc-loader-epoch-tests");
        let _ = std::fs::remove_dir_all(&dir);
        let base = figure1_graph_stable_ids();
        write_dataset(&dir, "fig1e", &base).unwrap();
        // Alice and friendship e1 continue past the boundary (9); Dana joins.
        let alice = base.vertices[0].clone();
        let e1 = base.edges[0].clone();
        let delta = TGraph::from_records(
            vec![
                VertexRecord {
                    vid: alice.vid,
                    interval: Interval::new(9, 13),
                    props: alice.props.clone(),
                },
                VertexRecord {
                    vid: VertexId(40),
                    interval: Interval::new(10, 12),
                    props: Props::typed("person"),
                },
            ],
            vec![EdgeRecord {
                eid: e1.eid,
                src: e1.src,
                dst: e1.dst,
                interval: Interval::new(9, 11),
                props: e1.props.clone(),
            }],
        );
        crate::epochs::append_epoch(&dir, "fig1e", &delta).unwrap();

        let mut combined = base.clone();
        combined.vertices.extend(delta.vertices.clone());
        combined.edges.extend(delta.edges.clone());
        let combined = TGraph::from_records(combined.vertices, combined.edges);
        let expected = coalesce_graph(&combined);

        let loader = GraphLoader::new(&dir, "fig1e");
        assert_eq!(loader.current_epoch().unwrap(), 1);
        for kind in [ReprKind::Ve, ReprKind::Rg, ReprKind::Og] {
            let (any, _) = loader.load(&rt, kind, None).unwrap();
            let back = coalesce_graph(&any.to_tgraph(&rt));
            assert_eq!(back.vertices, expected.vertices, "{kind}");
            assert_eq!(back.edges, expected.edges, "{kind}");
        }
        let (ogc, _) = loader.load(&rt, ReprKind::Ogc, None).unwrap();
        assert_eq!(ogc.to_tgraph(&rt).distinct_vertex_count(), 4);

        // A suffix scan pushes the range into base and segment alike.
        let (suffix, scan) = loader.load_flat(Some(Interval::new(9, i64::MAX))).unwrap();
        assert!(suffix.vertices.iter().all(|v| v.interval.end > 9));
        assert!(scan.chunks_read > 0);
        // Every base fact ends by the pre-append end (9), so the scan skips
        // every base chunk and reads the segment's alone: O(delta).
        let chunks = |stem: &str| {
            let s = crate::read_tgc_stats(&flat_path(&dir, stem)).unwrap();
            s.vertex_chunks.len() + s.edge_chunks.len()
        };
        assert_eq!(scan.chunks_skipped, chunks("fig1e"));
        assert_eq!(scan.chunks_read, chunks("fig1e.e1"));
        assert_eq!(scan.rows_read, delta.vertices.len() + delta.edges.len());

        // The later half of the lifespan [1, 13) crosses the epoch
        // boundary: the load clips base and segment alike and joins Alice's
        // two runs, and every representation built from the files equals a
        // build from the ranged flat graph.
        let half = Some(Interval::new(7, 13));
        let (ranged, _) = loader.load_flat(half).unwrap();
        let clip = |iv: Interval| iv.intersect(&Interval::new(7, 13));
        let vertices = expected.vertices.iter().filter_map(|v| {
            let interval = clip(v.interval)?;
            Some(VertexRecord {
                interval,
                ..v.clone()
            })
        });
        let edges = expected.edges.iter().filter_map(|e| {
            let interval = clip(e.interval)?;
            Some(EdgeRecord {
                interval,
                ..e.clone()
            })
        });
        let clipped = coalesce_graph(&ranged);
        assert_eq!(clipped.vertices, vertices.collect::<Vec<_>>());
        assert_eq!(clipped.edges, edges.collect::<Vec<_>>());
        for kind in ReprKind::all() {
            let built = AnyGraph::from_tgraph(&rt, ranged.clone(), kind).to_tgraph(&rt);
            let (any, _) = loader.load(&rt, kind, half).unwrap();
            let back = any.to_tgraph(&rt);
            assert_eq!(back.lifespan, built.lifespan, "{kind}");
            assert_eq!(back.vertices, built.vertices, "{kind}");
            assert_eq!(back.edges, built.edges, "{kind}");
        }
    }

    /// An older build also wrote `<name>.structural.tgc` (order byte 1) and
    /// the nested `<name>.tgo`. The loader never opens either: every
    /// representation loads as before, and an append still commits beside
    /// them.
    #[test]
    fn a_leftover_structural_file_is_never_read() {
        let rt = rt();
        let dir = std::env::temp_dir().join("tgc-loader-leftover-tests");
        let _ = std::fs::remove_dir_all(&dir);
        let base = figure1_graph_stable_ids();
        write_dataset(&dir, "fig1s", &base).unwrap();
        let mut old = std::fs::read(flat_path(&dir, "fig1s")).unwrap();
        old[4] = 1;
        std::fs::write(dir.join("fig1s.structural.tgc"), old).unwrap();
        std::fs::write(dir.join("fig1s.tgo"), b"TGO1 not a nested file").unwrap();

        let loader = GraphLoader::new(&dir, "fig1s");
        let expected = coalesce_graph(&base);
        for kind in [ReprKind::Ve, ReprKind::Rg, ReprKind::Og] {
            let (any, _) = loader.load(&rt, kind, None).unwrap();
            let back = any.to_tgraph(&rt);
            assert_eq!(back.vertices, expected.vertices, "{kind}");
            assert_eq!(back.edges, expected.edges, "{kind}");
        }
        let (ogc, _) = loader.load(&rt, ReprKind::Ogc, None).unwrap();
        assert_eq!(ogc.to_tgraph(&rt).distinct_vertex_count(), 3);

        let empty = TGraph::from_records(Vec::new(), Vec::new());
        let entry = crate::epochs::append_epoch(&dir, "fig1s", &empty).unwrap();
        assert_eq!(entry.epoch, 1);
        assert_eq!(loader.current_epoch().unwrap(), 1);
    }

    #[test]
    fn missing_file_is_io_error() {
        let rt = rt();
        let loader = GraphLoader::new(std::env::temp_dir(), "does-not-exist");
        match loader.load(&rt, ReprKind::Ve, None) {
            Err(StorageError::Io(_)) => {}
            other => panic!("expected io error, got {:?}", other.map(|_| ())),
        }
    }
}
