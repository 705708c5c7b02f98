//! The `GraphLoader` utility of §4: initializes any physical representation
//! from files on disk, applying a date-range filter through the formats'
//! predicate pushdown.
//!
//! Layout conventions per dataset directory:
//!
//! * `<name>.temporal.tgc` — flat rows sorted by entity id, then start (VE
//!   and RG). §4 also wrote a start-then-id copy for RG, ~30% faster on
//!   HDFS; here RG loads as fast from this one (EXPERIMENTS.md, A1), so
//!   there is one flat file, and a `.structural.tgc` an older build left
//!   beside it is never opened.
//! * `<name>.tgo` — nested history rows (OG and OGC; §4 reports nested
//!   loading is significantly faster for these).

use crate::epochs::{read_epochs, segment_stem, EpochEntry};
use crate::format::{read_tgc, write_tgc, ScanStats, StorageError, DEFAULT_CHUNK_ROWS};
use crate::nested::{read_tgo, write_tgo, NestedRow};
use std::path::{Path, PathBuf};
use tgraph_core::graph::{EdgeId, TGraph, VertexId};
use tgraph_core::time::Interval;
use tgraph_dataflow::Runtime;
use tgraph_repr::common::{fold_histories, EdgeKey, Histories};
use tgraph_repr::og::OgGraph;
use tgraph_repr::{AnyGraph, OgcGraph, ReprKind, RgGraph, VeGraph};

/// `<stem>.temporal.tgc` under `dir`.
pub(crate) fn flat_path(dir: &Path, stem: &str) -> PathBuf {
    dir.join(format!("{stem}.temporal.tgc"))
}

fn nested_path(dir: &Path, stem: &str) -> PathBuf {
    dir.join(format!("{stem}.tgo"))
}

/// The two files of one file-name stem: the flat file and the nested file.
pub(crate) fn stem_paths(dir: &Path, stem: &str) -> [PathBuf; 2] {
    [flat_path(dir, stem), nested_path(dir, stem)]
}

/// Writes the two encodings of `g` under one file-name stem: the dataset's
/// name for the base, [`segment_stem`] for an epoch's segment.
pub(crate) fn write_stem(dir: &Path, stem: &str, g: &TGraph) -> Result<(), StorageError> {
    let [flat, nested] = stem_paths(dir, stem);
    write_tgc(&flat, g, DEFAULT_CHUNK_ROWS)?;
    write_tgo(&nested, g, DEFAULT_CHUNK_ROWS)
}

/// Writes a dataset directory holding all on-disk encodings of a graph.
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

/// The nested files of a dataset read and merged: base histories with every
/// epoch segment folded in.
struct Nested {
    lifespan: Interval,
    vertices: Histories<VertexId>,
    edges: Histories<EdgeKey>,
    scan: ScanStats,
}

fn vertex_histories(rows: Vec<NestedRow>) -> Histories<VertexId> {
    let keyed = rows.into_iter().map(|r| (VertexId(r.id), r.history));
    keyed.collect()
}

fn edge_histories(rows: Vec<NestedRow>) -> Histories<EdgeKey> {
    let key = |r: &NestedRow| (EdgeId(r.id), VertexId(r.src), VertexId(r.dst));
    rows.into_iter().map(|r| (key(&r), r.history)).collect()
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

    /// Header-only chunk statistics of the flat file — the input to pre-scan
    /// cardinality estimates
    /// ([`TgcStats::estimated_rows`](crate::TgcStats::estimated_rows)).
    /// Aggregates the base file with every committed epoch segment, so the
    /// estimate stays truthful after ingest.
    pub fn flat_stats(&self) -> Result<crate::TgcStats, StorageError> {
        let mut stats = crate::read_tgc_stats(&flat_path(&self.dir, &self.name))?;
        for entry in self.epochs()? {
            let stem = segment_stem(&self.name, entry.epoch);
            let s = crate::read_tgc_stats(&flat_path(&self.dir, &stem))?;
            stats.lifespan = stats.lifespan.hull(&s.lifespan);
            stats.vertex_chunks.extend(s.vertex_chunks);
            stats.edge_chunks.extend(s.edge_chunks);
        }
        Ok(stats)
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

    /// Reads the base nested file and folds in every epoch segment `epochs`
    /// lists ([`fold_histories`]: a state continuing across an epoch
    /// boundary merges back into one interval, brand-new entities join).
    fn nested_at(
        &self,
        range: Option<Interval>,
        epochs: &[EpochEntry],
    ) -> Result<Nested, StorageError> {
        let (lifespan, vertices, edges, scan) =
            read_tgo(&nested_path(&self.dir, &self.name), range)?;
        let mut n = Nested {
            lifespan,
            vertices: vertex_histories(vertices),
            edges: edge_histories(edges),
            scan,
        };
        for entry in epochs {
            let stem = segment_stem(&self.name, entry.epoch);
            let (ls, dv, de, s) = read_tgo(&nested_path(&self.dir, &stem), range)?;
            n.lifespan = n.lifespan.hull(&ls);
            n.scan.add(s);
            fold_histories(&mut n.vertices, vertex_histories(dv));
            fold_histories(&mut n.edges, edge_histories(de));
        }
        Ok(n)
    }

    /// Loads VE from the flat file (the §4 choice: the id-then-start sort
    /// keeps each entity's history together).
    pub fn load_ve(
        &self,
        rt: &Runtime,
        range: Option<Interval>,
    ) -> Result<(VeGraph, ScanStats), StorageError> {
        self.ve_at(rt, range, &self.epochs()?)
    }

    fn ve_at(
        &self,
        rt: &Runtime,
        range: Option<Interval>,
        epochs: &[EpochEntry],
    ) -> Result<(VeGraph, ScanStats), StorageError> {
        let (g, scan) = self.flat_at(range, epochs)?;
        Ok((VeGraph::from_tgraph(rt, &g), scan))
    }

    /// Loads OG from the nested file: history arrays come pre-grouped, so no
    /// shuffle is needed — the load-time conversion of §4.
    pub fn load_og(
        &self,
        rt: &Runtime,
        range: Option<Interval>,
    ) -> Result<(OgGraph, ScanStats), StorageError> {
        self.og_at(rt, range, &self.epochs()?)
    }

    fn og_at(
        &self,
        rt: &Runtime,
        range: Option<Interval>,
        epochs: &[EpochEntry],
    ) -> Result<(OgGraph, ScanStats), StorageError> {
        let n = self.nested_at(range, epochs)?;
        let og = OgGraph::from_histories(rt, n.lifespan, n.vertices, n.edges);
        Ok((og, n.scan))
    }

    /// Loads any representation, using the file layout best suited to it.
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
        Ok(match kind {
            ReprKind::Ve => {
                let (g, s) = self.ve_at(rt, range, epochs)?;
                (AnyGraph::Ve(g), s)
            }
            // RG reads the flat file too; its build places each fact in
            // its snapshots by position, whatever the row order.
            ReprKind::Rg => {
                let (g, s) = self.flat_at(range, epochs)?;
                (AnyGraph::Rg(RgGraph::from_tgraph(rt, &g)), s)
            }
            ReprKind::Og => {
                let (g, s) = self.og_at(rt, range, epochs)?;
                (AnyGraph::Og(g), s)
            }
            // OGC reads the nested file too. The load decodes every
            // property; the build keeps only the `type` label.
            ReprKind::Ogc => {
                let n = self.nested_at(range, epochs)?;
                let g = OgcGraph::from_histories(rt, n.lifespan, n.vertices, n.edges);
                (AnyGraph::Ogc(g), n.scan)
            }
        })
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
        let (og, _) = loader.load_og(&rt, None).unwrap();
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
        let (ve, _) = loader.load_ve(&rt, Some(Interval::new(1, 3))).unwrap();
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

        // Aggregated header stats stay truthful about the appended rows.
        let stats = loader.flat_stats().unwrap();
        assert_eq!(stats.lifespan, Interval::new(1, 13));
        let (v_est, e_est) = stats.estimated_rows(None);
        assert_eq!(v_est, (base.vertices.len() + 2) as u64);
        assert_eq!(e_est, (base.edges.len() + 1) as u64);
    }

    /// An older build also wrote `<name>.structural.tgc` (order byte 1). The
    /// loader never opens it: every representation loads as before, and an
    /// append still commits beside it.
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
        match loader.load_ve(&rt, None) {
            Err(StorageError::Io(_)) => {}
            other => panic!("expected io error, got {:?}", other.map(|_| ())),
        }
    }
}
