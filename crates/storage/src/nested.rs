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

use crate::encode::{
    checked_count, checksum, get_interval, put_interval, put_props, DecodeError, PropsDecoder,
};
use crate::format::{ScanStats, StorageError};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use tgraph_core::graph::{EdgeId, TGraph, VertexId};
use tgraph_core::props::Props;
use tgraph_core::time::Interval;

const MAGIC: &[u8; 4] = b"TGO1";

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
/// coalesced history.
pub fn nest(g: &TGraph) -> (Vec<NestedRow>, Vec<NestedRow>) {
    use std::collections::HashMap;
    let mut v_hist: HashMap<VertexId, Vec<(Interval, Props)>> = HashMap::new();
    for v in &g.vertices {
        v_hist
            .entry(v.vid)
            .or_default()
            .push((v.interval, v.props.clone()));
    }
    let mut vertices: Vec<NestedRow> = v_hist
        .into_iter()
        .map(|(vid, states)| {
            let history = tgraph_core::coalesce::coalesce_group(states);
            NestedRow {
                id: vid.0,
                src: 0,
                dst: 0,
                first: history.first().map(|(iv, _)| iv.start).unwrap_or(0),
                last: history.last().map(|(iv, _)| iv.end).unwrap_or(0),
                history,
            }
        })
        .collect();
    vertices.sort_by_key(|r| r.id);

    let mut e_hist: HashMap<(EdgeId, VertexId, VertexId), Vec<(Interval, Props)>> = HashMap::new();
    for e in &g.edges {
        e_hist
            .entry((e.eid, e.src, e.dst))
            .or_default()
            .push((e.interval, e.props.clone()));
    }
    let mut edges: Vec<NestedRow> = e_hist
        .into_iter()
        .map(|((eid, src, dst), states)| {
            let history = tgraph_core::coalesce::coalesce_group(states);
            NestedRow {
                id: eid.0,
                src: src.0,
                dst: dst.0,
                first: history.first().map(|(iv, _)| iv.start).unwrap_or(0),
                last: history.last().map(|(iv, _)| iv.end).unwrap_or(0),
                history,
            }
        })
        .collect();
    edges.sort_by_key(|r| (r.id, r.src, r.dst));
    (vertices, edges)
}

fn write_rows<W: Write>(
    out: &mut W,
    rows: &[NestedRow],
    chunk_rows: usize,
) -> Result<(), StorageError> {
    for chunk in rows.chunks(chunk_rows) {
        let (mut min_first, mut max_last) = (i64::MAX, i64::MIN);
        for r in chunk {
            min_first = min_first.min(r.first);
            max_last = max_last.max(r.last);
        }
        let mut payload = BytesMut::new();
        for r in chunk {
            payload.put_u64_le(r.id);
            payload.put_u64_le(r.src);
            payload.put_u64_le(r.dst);
            payload.put_i64_le(r.first);
            payload.put_i64_le(r.last);
            payload.put_u32_le(checked_count(r.history.len())?);
            for (iv, props) in &r.history {
                put_interval(&mut payload, iv);
                put_props(&mut payload, props)?;
            }
        }
        let mut head = BytesMut::with_capacity(32);
        head.put_i64_le(min_first);
        head.put_i64_le(max_last);
        head.put_u32_le(checked_count(chunk.len())?);
        head.put_u32_le(crate::format::checked_chunk_len(payload.len())?);
        head.put_u64_le(checksum(&payload));
        out.write_all(&head)?;
        out.write_all(&payload)?;
    }
    Ok(())
}

/// Writes a TGraph to `path` in the nested `.tgo` format.
pub fn write_tgo(path: &Path, g: &TGraph, chunk_rows: usize) -> Result<(), StorageError> {
    let chunk_rows = chunk_rows.max(1);
    let (vertices, edges) = nest(g);
    let file = File::create(path)?;
    let mut out = BufWriter::new(file);
    out.write_all(MAGIC)?;
    let mut head = BytesMut::with_capacity(32);
    put_interval(&mut head, &g.lifespan);
    head.put_u32_le(checked_count(vertices.len().div_ceil(chunk_rows))?);
    head.put_u32_le(checked_count(edges.len().div_ceil(chunk_rows))?);
    out.write_all(&head)?;
    write_rows(&mut out, &vertices, chunk_rows)?;
    write_rows(&mut out, &edges, chunk_rows)?;
    out.flush()?;
    Ok(())
}

fn read_rows<R: Read>(
    input: &mut R,
    chunks: u32,
    range: Option<Interval>,
    stats: &mut ScanStats,
    out: &mut Vec<NestedRow>,
) -> Result<(), StorageError> {
    for _ in 0..chunks {
        let mut head = [0u8; 32];
        input.read_exact(&mut head)?;
        let mut buf = &head[..];
        let min_first = buf.get_i64_le();
        let max_last = buf.get_i64_le();
        let rows = buf.get_u32_le();
        let len = buf.get_u32_le();
        let sum = buf.get_u64_le();
        // Pushdown on the flat first/last columns.
        if let Some(r) = &range {
            if min_first >= r.end || max_last <= r.start {
                std::io::copy(&mut input.take(len as u64), &mut std::io::sink())?;
                stats.chunks_skipped += 1;
                continue;
            }
        }
        let mut payload = vec![0u8; len as usize];
        input.read_exact(&mut payload)?;
        if checksum(&payload) != sum {
            return Err(DecodeError::ChecksumMismatch.into());
        }
        stats.chunks_read += 1;
        let mut bytes = &payload[..];
        let mut decoder = PropsDecoder::default();
        for _ in 0..rows {
            if bytes.remaining() < 44 {
                return Err(DecodeError::UnexpectedEof.into());
            }
            let id = bytes.get_u64_le();
            let src = bytes.get_u64_le();
            let dst = bytes.get_u64_le();
            let first = bytes.get_i64_le();
            let last = bytes.get_i64_le();
            let n = bytes.get_u32_le() as usize;
            let mut history = Vec::with_capacity(n);
            for _ in 0..n {
                let iv = get_interval(&mut bytes)?;
                let props = decoder.get_props(&mut bytes)?;
                match &range {
                    Some(r) => {
                        if let Some(clipped) = iv.intersect(r) {
                            history.push((clipped, props));
                        }
                    }
                    None => history.push((iv, props)),
                }
            }
            stats.rows_read += 1;
            if history.is_empty() {
                continue; // residual filter: entity entirely outside range
            }
            let first = if range.is_some() {
                history.first().map(|(iv, _)| iv.start).unwrap_or(first)
            } else {
                first
            };
            let last = if range.is_some() {
                history.last().map(|(iv, _)| iv.end).unwrap_or(last)
            } else {
                last
            };
            out.push(NestedRow {
                id,
                src,
                dst,
                first,
                last,
                history,
            });
        }
    }
    Ok(())
}

/// Reads a nested `.tgo` file with optional time-range pushdown.
pub fn read_tgo(
    path: &Path,
    range: Option<Interval>,
) -> Result<(Interval, Vec<NestedRow>, Vec<NestedRow>, ScanStats), StorageError> {
    let file = File::open(path)?;
    let mut input = BufReader::new(file);
    let mut magic = [0u8; 4];
    input.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(DecodeError::BadMagic.into());
    }
    let mut head = [0u8; 24];
    input.read_exact(&mut head)?;
    let mut buf = Bytes::copy_from_slice(&head);
    let lifespan = get_interval(&mut buf)?;
    let v_chunks = buf.get_u32_le();
    let e_chunks = buf.get_u32_le();

    let mut stats = ScanStats::default();
    let mut vertices = Vec::new();
    let mut edges = Vec::new();
    read_rows(&mut input, v_chunks, range, &mut stats, &mut vertices)?;
    read_rows(&mut input, e_chunks, range, &mut stats, &mut edges)?;
    let lifespan = match range {
        Some(r) => lifespan.intersect(&r).unwrap_or(Interval::empty()),
        None => lifespan,
    };
    Ok((lifespan, vertices, edges, stats))
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
