//! The `GraphLoader` utility of §4: initializes any physical representation
//! from files on disk, applying a date-range filter through the formats'
//! predicate pushdown.
//!
//! Layout conventions per dataset directory:
//!
//! * `<name>.temporal.tgc` — flat rows sorted for temporal locality (VE).
//! * `<name>.structural.tgc` — flat rows sorted for structural locality (RG;
//!   §4 reports RG loads ~30% faster from this order).
//! * `<name>.tgo` — nested history rows (OG and OGC; §4 reports nested
//!   loading is significantly faster for these).

use crate::epochs::{read_epochs, segment_stem, EpochEntry};
use crate::format::{read_tgc, write_tgc, ScanStats, SortOrder, StorageError, DEFAULT_CHUNK_ROWS};
use crate::nested::{read_tgo, write_tgo, NestedRow};
use std::path::{Path, PathBuf};
use tgraph_core::coalesce::coalesce_group;
use tgraph_core::graph::{EdgeId, EdgeRecord, TGraph, VertexId, VertexRecord};
use tgraph_core::time::Interval;
use tgraph_dataflow::{Dataset, Runtime};
use tgraph_repr::og::{OgEdge, OgGraph, OgVertex};
use tgraph_repr::{AnyGraph, OgcGraph, ReprKind, RgGraph, VeGraph};

/// Writes a dataset directory holding all on-disk encodings of a graph.
pub fn write_dataset(dir: &Path, name: &str, g: &TGraph) -> Result<(), StorageError> {
    std::fs::create_dir_all(dir)?;
    write_tgc(
        &dir.join(format!("{name}.temporal.tgc")),
        g,
        SortOrder::Temporal,
        DEFAULT_CHUNK_ROWS,
    )?;
    write_tgc(
        &dir.join(format!("{name}.structural.tgc")),
        g,
        SortOrder::Structural,
        DEFAULT_CHUNK_ROWS,
    )?;
    write_tgo(&dir.join(format!("{name}.tgo")), g, DEFAULT_CHUNK_ROWS)?;
    Ok(())
}

/// Loads TGraph datasets from disk into any physical representation.
#[derive(Clone, Debug)]
pub struct GraphLoader {
    dir: PathBuf,
    name: String,
}

impl GraphLoader {
    /// A loader for dataset `name` under directory `dir`.
    pub fn new(dir: impl Into<PathBuf>, name: impl Into<String>) -> Self {
        GraphLoader {
            dir: dir.into(),
            name: name.into(),
        }
    }

    fn flat_path(&self, order: SortOrder) -> PathBuf {
        let suffix = match order {
            SortOrder::Temporal => "temporal",
            SortOrder::Structural => "structural",
        };
        self.dir.join(format!("{}.{suffix}.tgc", self.name))
    }

    fn nested_path(&self) -> PathBuf {
        self.dir.join(format!("{}.tgo", self.name))
    }

    fn segment_flat_path(&self, epoch: u64, order: SortOrder) -> PathBuf {
        let suffix = match order {
            SortOrder::Temporal => "temporal",
            SortOrder::Structural => "structural",
        };
        self.dir
            .join(format!("{}.{suffix}.tgc", segment_stem(&self.name, epoch)))
    }

    fn segment_nested_path(&self, epoch: u64) -> PathBuf {
        self.dir
            .join(format!("{}.tgo", segment_stem(&self.name, epoch)))
    }

    /// The dataset's committed epoch list (empty for a base-only dataset).
    pub fn epochs(&self) -> Result<Vec<EpochEntry>, StorageError> {
        read_epochs(&self.dir, &self.name)
    }

    /// The dataset's current epoch number (0 for a base-only dataset).
    pub fn current_epoch(&self) -> Result<u64, StorageError> {
        Ok(self.epochs()?.last().map_or(0, |e| e.epoch))
    }

    /// Header-only chunk statistics of the flat file with the given sort
    /// order — the input to pre-scan cardinality estimates
    /// ([`TgcStats::estimated_rows`](crate::TgcStats::estimated_rows)).
    /// Aggregates the base file with every committed epoch segment, so the
    /// estimate stays truthful after ingest.
    pub fn flat_stats(&self, order: SortOrder) -> Result<crate::TgcStats, StorageError> {
        let mut stats = crate::read_tgc_stats(&self.flat_path(order))?;
        for entry in self.epochs()? {
            let s = crate::read_tgc_stats(&self.segment_flat_path(entry.epoch, order))?;
            stats.lifespan = stats.lifespan.hull(&s.lifespan);
            stats.vertex_chunks.extend(s.vertex_chunks);
            stats.edge_chunks.extend(s.edge_chunks);
        }
        Ok(stats)
    }

    /// Loads the flat file with the given sort order as a logical graph,
    /// merged with every committed epoch segment. The range pushdown applies
    /// to each file independently — a suffix scan (`[cut, ∞)`) skips most
    /// base chunks via their statistics and reads the segments nearly whole.
    pub fn load_flat(
        &self,
        order: SortOrder,
        range: Option<Interval>,
    ) -> Result<(TGraph, ScanStats), StorageError> {
        let (mut g, _, mut stats) = read_tgc(&self.flat_path(order), range)?;
        for entry in self.epochs()? {
            let (d, _, s) = read_tgc(&self.segment_flat_path(entry.epoch, order), range)?;
            stats.chunks_skipped += s.chunks_skipped;
            stats.chunks_read += s.chunks_read;
            stats.rows_read += s.rows_read;
            g.lifespan = g.lifespan.hull(&d.lifespan);
            g.vertices.extend(d.vertices);
            g.edges.extend(d.edges);
        }
        Ok((g, stats))
    }

    /// Loads only epoch `epoch`'s segment as a logical graph — the O(delta)
    /// read feeding in-memory pool upgrades and shard replication.
    pub fn load_delta(
        &self,
        epoch: u64,
        range: Option<Interval>,
    ) -> Result<(TGraph, ScanStats), StorageError> {
        let (g, _, stats) = read_tgc(&self.segment_flat_path(epoch, SortOrder::Temporal), range)?;
        Ok((g, stats))
    }

    /// Loads VE from the temporally sorted flat file (the §4 choice: the
    /// id-then-start sort keeps each entity's history together).
    pub fn load_ve(
        &self,
        rt: &Runtime,
        range: Option<Interval>,
    ) -> Result<(VeGraph, ScanStats), StorageError> {
        let (g, stats) = self.load_flat(SortOrder::Temporal, range)?;
        Ok((
            VeGraph::from_tgraph_at(rt, &g, self.current_epoch()?),
            stats,
        ))
    }

    /// Loads RG from the structurally sorted flat file (start-then-id order;
    /// snapshot materialization reads contiguous runs).
    pub fn load_rg(
        &self,
        rt: &Runtime,
        range: Option<Interval>,
    ) -> Result<(RgGraph, ScanStats), StorageError> {
        let (g, stats) = self.load_flat(SortOrder::Structural, range)?;
        Ok((
            RgGraph::from_tgraph_at(rt, &g, self.current_epoch()?),
            stats,
        ))
    }

    /// Loads OG from the nested file: history arrays come pre-grouped, so no
    /// shuffle is needed — the load-time conversion of §4.
    pub fn load_og(
        &self,
        rt: &Runtime,
        range: Option<Interval>,
    ) -> Result<(OgGraph, ScanStats), StorageError> {
        let (lifespan, v_rows, e_rows, stats, epoch) = self.load_nested(range)?;
        let vertices: Vec<OgVertex> = v_rows
            .into_iter()
            .map(|r| OgVertex {
                vid: VertexId(r.id),
                history: r.history,
            })
            .collect();
        let vertex_index: std::collections::HashMap<u64, &OgVertex> =
            vertices.iter().map(|v| (v.vid.0, v)).collect();
        // An endpoint outside the loaded range has no history to copy.
        let copy_of = |vid: u64| match vertex_index.get(&vid) {
            Some(v) => (*v).clone(),
            None => OgVertex {
                vid: VertexId(vid),
                history: Vec::new(),
            },
        };
        let edges: Vec<OgEdge> = e_rows
            .into_iter()
            .map(|r| OgEdge {
                eid: EdgeId(r.id),
                src: copy_of(r.src),
                dst: copy_of(r.dst),
                history: r.history,
            })
            .collect();
        Ok((
            OgGraph {
                lifespan,
                vertices: Dataset::from_vec_tagged(rt, vertices, epoch),
                edges: Dataset::from_vec_tagged(rt, edges, epoch),
            },
            stats,
        ))
    }

    /// Loads OGC from the nested file (topology + type only).
    pub fn load_ogc(
        &self,
        rt: &Runtime,
        range: Option<Interval>,
    ) -> Result<(OgcGraph, ScanStats), StorageError> {
        let (lifespan, v_rows, e_rows, stats, epoch) = self.load_nested(range)?;
        let g = nested_to_tgraph(lifespan, v_rows, e_rows);
        Ok((OgcGraph::from_tgraph_at(rt, &g, epoch), stats))
    }

    /// Reads the base nested file and folds in every committed epoch
    /// segment: per-entity histories concatenate and re-coalesce (a state
    /// continuing across an epoch boundary merges back into one interval),
    /// brand-new entities append, and the whole row set re-sorts by id for
    /// determinism.
    #[allow(clippy::type_complexity)]
    fn load_nested(
        &self,
        range: Option<Interval>,
    ) -> Result<(Interval, Vec<NestedRow>, Vec<NestedRow>, ScanStats, u64), StorageError> {
        let (mut lifespan, mut v_rows, mut e_rows, mut stats) =
            read_tgo(&self.nested_path(), range)?;
        let epochs = self.epochs()?;
        let epoch = epochs.last().map_or(0, |e| e.epoch);
        for entry in &epochs {
            let (ls, dv, de, s) = read_tgo(&self.segment_nested_path(entry.epoch), range)?;
            lifespan = lifespan.hull(&ls);
            stats.chunks_skipped += s.chunks_skipped;
            stats.chunks_read += s.chunks_read;
            stats.rows_read += s.rows_read;
            merge_nested(&mut v_rows, dv);
            merge_nested(&mut e_rows, de);
        }
        if !epochs.is_empty() {
            v_rows.sort_by_key(|r| (r.id, r.src, r.dst));
            e_rows.sort_by_key(|r| (r.id, r.src, r.dst));
        }
        Ok((lifespan, v_rows, e_rows, stats, epoch))
    }

    /// Loads any representation, using the file layout best suited to it.
    pub fn load(
        &self,
        rt: &Runtime,
        kind: ReprKind,
        range: Option<Interval>,
    ) -> Result<(AnyGraph, ScanStats), StorageError> {
        Ok(match kind {
            ReprKind::Ve => {
                let (g, s) = self.load_ve(rt, range)?;
                (AnyGraph::Ve(g), s)
            }
            ReprKind::Rg => {
                let (g, s) = self.load_rg(rt, range)?;
                (AnyGraph::Rg(g), s)
            }
            ReprKind::Og => {
                let (g, s) = self.load_og(rt, range)?;
                (AnyGraph::Og(g), s)
            }
            ReprKind::Ogc => {
                let (g, s) = self.load_ogc(rt, range)?;
                (AnyGraph::Ogc(g), s)
            }
        })
    }
}

/// Folds one epoch segment's nested rows into the accumulated row set:
/// existing entities (same `(id, src, dst)`) extend and re-coalesce their
/// histories — with the pushdown columns widened to match — and new entities
/// append.
fn merge_nested(rows: &mut Vec<NestedRow>, delta: Vec<NestedRow>) {
    let index: std::collections::HashMap<(u64, u64, u64), usize> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| ((r.id, r.src, r.dst), i))
        .collect();
    for d in delta {
        match index.get(&(d.id, d.src, d.dst)) {
            Some(&i) => {
                let row = &mut rows[i];
                let mut all = std::mem::take(&mut row.history);
                all.extend(d.history);
                row.history = coalesce_group(all);
                row.first = row.first.min(d.first);
                row.last = row.last.max(d.last);
            }
            None => rows.push(d),
        }
    }
}

fn nested_to_tgraph(lifespan: Interval, v: Vec<NestedRow>, e: Vec<NestedRow>) -> TGraph {
    let vertices = v
        .into_iter()
        .flat_map(|r| {
            r.history
                .into_iter()
                .map(move |(interval, props)| VertexRecord {
                    vid: VertexId(r.id),
                    interval,
                    props,
                })
        })
        .collect();
    let edges = e
        .into_iter()
        .flat_map(|r| {
            r.history
                .into_iter()
                .map(move |(interval, props)| EdgeRecord {
                    eid: EdgeId(r.id),
                    src: VertexId(r.src),
                    dst: VertexId(r.dst),
                    interval,
                    props,
                })
        })
        .collect();
    TGraph {
        lifespan,
        vertices,
        edges,
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
        let (suffix, scan) = loader
            .load_flat(SortOrder::Structural, Some(Interval::new(9, i64::MAX)))
            .unwrap();
        assert!(suffix.vertices.iter().all(|v| v.interval.end > 9));
        assert!(scan.chunks_read > 0);

        // Aggregated header stats stay truthful about the appended rows.
        let stats = loader.flat_stats(SortOrder::Temporal).unwrap();
        assert_eq!(stats.lifespan, Interval::new(1, 13));
        let (v_est, e_est) = stats.estimated_rows(None);
        assert_eq!(v_est, (base.vertices.len() + 2) as u64);
        assert_eq!(e_est, (base.edges.len() + 1) as u64);
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
