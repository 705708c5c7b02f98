//! The nested `.tgo` format: pre-grouped history arrays for loading the OG
//! and OGC representations directly.
//!
//! §4 reports that while OG/OGC *could* be loaded from the flat VE-style
//! layout, it is significantly faster to pre-compute nested versions of the
//! graphs and convert at load time — but nesting breaks Parquet's filter
//! pushdown because the intervals live inside a nested column. The paper's
//! fix, reproduced here, is to store the **first and last time an entity
//! existed as separate top-level columns** and keep chunk min/max statistics
//! on those, restoring pushdown.

use crate::format::{clip, create, write_chunks, Layout, Scan, ScanStats, StorageError};
use std::io::Write;
use std::path::Path;
use tgraph_core::graph::TGraph;
use tgraph_core::props::Props;
use tgraph_core::spill::check_props;
use tgraph_core::time::Interval;
use tgraph_dataflow::{checked_count, DecodeError, EncodeError, Spill, SpillReader};
use tgraph_repr::common::histories_of;

/// One nested entity row: identity columns, the first/last pushdown columns,
/// and the history array.
#[derive(Clone, Debug, PartialEq)]
pub struct NestedRow {
    /// Entity id (vertex id, or edge id for edge rows).
    pub id: u64,
    /// Edge endpoints (zero for vertex rows).
    pub src: u64,
    /// Edge destination (zero for vertex rows).
    pub dst: u64,
    /// First time point at which the entity exists (pushdown column).
    pub first: i64,
    /// Last bound of existence, exclusive (pushdown column).
    pub last: i64,
    /// The nested history: `(interval, attributes)` items, sorted by start.
    pub history: Vec<(Interval, Props)>,
}

/// Builds nested rows from a logical graph: one row per entity with its
/// coalesced history, in `(id, src, dst)` order.
pub fn nest(g: &TGraph) -> (Vec<NestedRow>, Vec<NestedRow>) {
    let row = |id, src, dst, history: Vec<(Interval, Props)>| NestedRow {
        id,
        src,
        dst,
        first: history.first().map(|(iv, _)| iv.start).unwrap_or(0),
        last: history.last().map(|(iv, _)| iv.end).unwrap_or(0),
        history,
    };
    let (vertices, edges) = histories_of(g);
    let vertices = vertices.into_iter().map(|(vid, h)| row(vid.0, 0, 0, h));
    let edges = edges
        .into_iter()
        .map(|((eid, src, dst), h)| row(eid.0, src.0, dst.0, h));
    (vertices.collect(), edges.collect())
}

/// Writes a row: the three ids and the two pushdown columns, a `u32`
/// history count, and each history item in the record codec.
fn put_row(buf: &mut Vec<u8>, r: &NestedRow) -> Result<(), EncodeError> {
    (r.id, r.src, r.dst, r.first, r.last).spill(buf);
    buf.extend_from_slice(&checked_count(r.history.len())?.to_le_bytes());
    for item in &r.history {
        check_props(&item.1)?;
        item.spill(buf);
    }
    Ok(())
}

/// Writes a TGraph to `path` in the nested `.tgo` format.
pub fn write_tgo(path: &Path, g: &TGraph, chunk_rows: usize) -> Result<(), StorageError> {
    let chunk_rows = chunk_rows.max(1);
    let (vertices, edges) = nest(g);
    let rows = [vertices.len(), edges.len()];
    let mut out = create(path, Layout::Nested, &g.lifespan, rows, chunk_rows)?;
    for rows in [&vertices, &edges] {
        // Pushdown statistics on the flat first/last columns.
        let span = |r: &NestedRow| (r.first, r.last);
        write_chunks(&mut out, Layout::Nested, rows, chunk_rows, span, put_row)?;
    }
    out.flush()?;
    Ok(())
}

fn get_row(
    r: &mut SpillReader<'_>,
    range: Option<&Interval>,
) -> Result<Option<NestedRow>, DecodeError> {
    let (id, src, dst, mut first, mut last) = <(u64, u64, u64, i64, i64)>::unspill(r)?;
    let n = r.u32()? as usize;
    // A history item takes at least 18 bytes: the count cannot reserve more
    // than the payload could hold.
    let mut history = Vec::with_capacity(n.min(r.remaining() / 18));
    for _ in 0..n {
        let (iv, props) = <(Interval, Props)>::unspill(r)?;
        history.extend(clip(iv, range).map(|iv| (iv, props)));
    }
    // Residual filter: an entity with no history inside the range is no row.
    let (Some((head, _)), Some((tail, _))) = (history.first(), history.last()) else {
        return Ok(None);
    };
    if range.is_some() {
        (first, last) = (head.start, tail.end);
    }
    Ok(Some(NestedRow {
        id,
        src,
        dst,
        first,
        last,
        history,
    }))
}

/// Reads a nested `.tgo` file with optional time-range pushdown.
pub fn read_tgo(
    path: &Path,
    range: Option<Interval>,
) -> Result<(Interval, Vec<NestedRow>, Vec<NestedRow>, ScanStats), StorageError> {
    let (mut scan, head) = Scan::open(path, Layout::Nested)?;
    let range = range.as_ref();
    let mut scanned = ScanStats::default();
    let vertices = scan.rows(head.chunks[0], range, &mut scanned, get_row)?;
    let edges = scan.rows(head.chunks[1], range, &mut scanned, get_row)?;
    let lifespan = clip(head.lifespan, range).unwrap_or(Interval::empty());
    Ok((lifespan, vertices, edges, scanned))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph_core::graph::figure1_graph_stable_ids;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tgo-format-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn nest_groups_histories() {
        let g = figure1_graph_stable_ids();
        let (v, e) = nest(&g);
        assert_eq!(v.len(), 3);
        assert_eq!(e.len(), 2);
        let bob = v.iter().find(|r| r.id == 2).unwrap();
        assert_eq!(bob.history.len(), 2);
        assert_eq!(bob.first, 2);
        assert_eq!(bob.last, 9);
    }

    #[test]
    fn roundtrip() {
        let g = figure1_graph_stable_ids();
        let path = tmp("fig1.tgo");
        write_tgo(&path, &g, 2).unwrap();
        let (lifespan, v, e, stats) = read_tgo(&path, None).unwrap();
        assert_eq!(lifespan, g.lifespan);
        let (vn, en) = nest(&g);
        assert_eq!(v, vn);
        assert_eq!(e, en);
        assert_eq!(stats.chunks_skipped, 0);
    }

    #[test]
    fn pushdown_on_first_last_columns() {
        // Entities in separate eras; nested histories would defeat interval
        // pushdown, but the first/last columns restore it.
        let mut vertices = Vec::new();
        for era in 0..8i64 {
            for i in 0..16u64 {
                vertices.push(tgraph_core::VertexRecord::new(
                    era as u64 * 100 + i,
                    Interval::new(era * 1000, era * 1000 + 10),
                    Props::typed("x"),
                ));
            }
        }
        let g = TGraph::from_records(vertices, vec![]);
        let path = tmp("eras.tgo");
        write_tgo(&path, &g, 16).unwrap();
        let (_, v, _, stats) = read_tgo(&path, Some(Interval::new(3000, 3010))).unwrap();
        assert_eq!(v.len(), 16);
        assert!(stats.chunks_skipped >= 6);
    }

    #[test]
    fn range_clips_history() {
        let g = figure1_graph_stable_ids();
        let path = tmp("clip.tgo");
        write_tgo(&path, &g, 64).unwrap();
        let (_, v, _, _) = read_tgo(&path, Some(Interval::new(1, 3))).unwrap();
        // Bob's [5,9) state is clipped away entirely; his row keeps [2,3).
        let bob = v.iter().find(|r| r.id == 2).unwrap();
        assert_eq!(bob.history.len(), 1);
        assert_eq!(bob.history[0].0, Interval::new(2, 3));
        assert_eq!(bob.first, 2);
        assert_eq!(bob.last, 3);
    }

    #[test]
    fn empty_graph() {
        let path = tmp("empty.tgo");
        write_tgo(&path, &TGraph::new(), 8).unwrap();
        let (_, v, e, _) = read_tgo(&path, None).unwrap();
        assert!(v.is_empty() && e.is_empty());
    }
}
