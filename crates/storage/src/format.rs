//! The `.tgc` on-disk format: chunked, statistics-annotated row storage with
//! time-range predicate pushdown — the local-filesystem analogue of the
//! Parquet layout described in §4 ("Data loading").
//!
//! A file holds a vertex section and an edge section. Each section is a
//! sequence of *chunks* (row groups); every chunk records min/max statistics
//! over its `start` and `end` time columns and over the entity id column, so
//! a reader with a time-range predicate skips whole chunks — Parquet's
//! filter pushdown. Pushdown only prunes effectively if rows are sorted by
//! the filtered column, which is why the writer supports both sort orders:
//!
//! * [`SortOrder::Temporal`] — by entity id, then start time: consecutive
//!   states of one entity are adjacent (used for VE, §4).
//! * [`SortOrder::Structural`] — by start time, then entity id: each
//!   snapshot's rows are adjacent (used for RG; the paper found RG loads
//!   ~30% faster this way).

use crate::encode::{
    checked_count, checksum, get_interval, put_interval, put_props, DecodeError, EncodeError,
    PropsDecoder,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use tgraph_core::graph::{EdgeRecord, TGraph, VertexRecord};
use tgraph_core::time::Interval;

const MAGIC: &[u8; 4] = b"TGC1";
/// Rows per chunk; small enough that pushdown skips matter on test data,
/// large enough to amortize per-chunk overhead.
pub const DEFAULT_CHUNK_ROWS: usize = 4096;

/// Physical sort order of the rows inside a `.tgc` file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SortOrder {
    /// Entity id first, then interval start: preserves temporal locality.
    Temporal,
    /// Interval start first, then entity id: preserves structural locality.
    Structural,
}

impl SortOrder {
    fn to_u8(self) -> u8 {
        match self {
            SortOrder::Temporal => 0,
            SortOrder::Structural => 1,
        }
    }
    fn from_u8(b: u8) -> Result<Self, DecodeError> {
        match b {
            0 => Ok(SortOrder::Temporal),
            1 => Ok(SortOrder::Structural),
            _ => Err(DecodeError::BadMagic),
        }
    }
}

/// IO or decoding failure while reading/writing a `.tgc` file.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// Corrupt or incompatible file contents.
    Decode(DecodeError),
    /// A chunk payload exceeded the format's 4 GiB (`u32`) length field.
    /// Writing it would silently truncate the length and corrupt the file,
    /// so the writer refuses instead. The payload size is carried for the
    /// diagnostic.
    ChunkTooLarge(usize),
    /// A row field did not fit its fixed-width prefix (string length, prop
    /// count, or row count) — the same refuse-instead-of-truncate policy as
    /// `ChunkTooLarge`, applied at the encoding layer.
    Encode(EncodeError),
    /// An epoch manifest violation: corrupt manifest contents, or an append
    /// whose facts precede the dataset's current end (the append invariant
    /// every ingested delta must satisfy).
    Epoch(String),
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}
impl From<DecodeError> for StorageError {
    fn from(e: DecodeError) -> Self {
        StorageError::Decode(e)
    }
}
impl From<EncodeError> for StorageError {
    fn from(e: EncodeError) -> Self {
        StorageError::Encode(e)
    }
}
impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "io error: {e}"),
            StorageError::Decode(e) => write!(f, "decode error: {e}"),
            StorageError::ChunkTooLarge(len) => write!(
                f,
                "chunk payload of {len} bytes exceeds the format's 4 GiB limit"
            ),
            StorageError::Encode(e) => write!(f, "encode error: {e}"),
            StorageError::Epoch(msg) => write!(f, "epoch error: {msg}"),
        }
    }
}
impl std::error::Error for StorageError {}

/// Per-chunk statistics enabling predicate pushdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkStats {
    /// Minimum interval start in the chunk.
    pub min_start: i64,
    /// Maximum interval start.
    pub max_start: i64,
    /// Minimum interval end.
    pub min_end: i64,
    /// Maximum interval end.
    pub max_end: i64,
    /// Rows in the chunk.
    pub rows: u32,
}

impl ChunkStats {
    /// Whether any row in the chunk can overlap `range` (a row overlaps iff
    /// `start < range.end && end > range.start`).
    pub fn may_overlap(&self, range: &Interval) -> bool {
        self.min_start < range.end && self.max_end > range.start
    }
}

fn row_interval_stats(intervals: impl Iterator<Item = Interval>) -> ChunkStats {
    let mut stats = ChunkStats {
        min_start: i64::MAX,
        max_start: i64::MIN,
        min_end: i64::MAX,
        max_end: i64::MIN,
        rows: 0,
    };
    for iv in intervals {
        stats.min_start = stats.min_start.min(iv.start);
        stats.max_start = stats.max_start.max(iv.start);
        stats.min_end = stats.min_end.min(iv.end);
        stats.max_end = stats.max_end.max(iv.end);
        stats.rows += 1;
    }
    stats
}

/// Validates a chunk payload length against the format's `u32` length
/// field. A bare `as u32` cast here once truncated ≥ 4 GiB payloads into
/// corrupt files whose declared length disagreed with their contents — the
/// typed error turns that silent corruption into a refusal at write time.
pub(crate) fn checked_chunk_len(len: usize) -> Result<u32, StorageError> {
    u32::try_from(len).map_err(|_| StorageError::ChunkTooLarge(len))
}

fn write_chunk<W: Write>(
    out: &mut W,
    stats: &ChunkStats,
    payload: &[u8],
) -> Result<(), StorageError> {
    let len = checked_chunk_len(payload.len())?;
    let mut head = BytesMut::with_capacity(56);
    head.put_i64_le(stats.min_start);
    head.put_i64_le(stats.max_start);
    head.put_i64_le(stats.min_end);
    head.put_i64_le(stats.max_end);
    head.put_u32_le(stats.rows);
    head.put_u32_le(len);
    head.put_u64_le(checksum(payload));
    out.write_all(&head)?;
    out.write_all(payload)?;
    Ok(())
}

struct ChunkHeader {
    stats: ChunkStats,
    len: u32,
    checksum: u64,
}

fn read_chunk_header<R: Read>(input: &mut R) -> Result<ChunkHeader, StorageError> {
    let mut head = [0u8; 48];
    input.read_exact(&mut head)?;
    let mut buf = &head[..];
    let stats = ChunkStats {
        min_start: buf.get_i64_le(),
        max_start: buf.get_i64_le(),
        min_end: buf.get_i64_le(),
        max_end: buf.get_i64_le(),
        rows: buf.get_u32_le(),
    };
    let len = buf.get_u32_le();
    let checksum = buf.get_u64_le();
    Ok(ChunkHeader {
        stats,
        len,
        checksum,
    })
}

/// Serialized statistics of a `.tgc` file, returned by readers so callers can
/// report pushdown effectiveness (chunks skipped vs. read).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Chunks whose statistics allowed skipping them entirely.
    pub chunks_skipped: usize,
    /// Chunks decoded.
    pub chunks_read: usize,
    /// Rows decoded (before residual filtering).
    pub rows_read: usize,
}

/// Writes a TGraph to `path` in the `.tgc` format with the given sort order
/// and chunk size.
pub fn write_tgc(
    path: &Path,
    g: &TGraph,
    order: SortOrder,
    chunk_rows: usize,
) -> Result<(), StorageError> {
    let chunk_rows = chunk_rows.max(1);
    let mut vertices = g.vertices.clone();
    let mut edges = g.edges.clone();
    match order {
        SortOrder::Temporal => {
            vertices.sort_by_key(|v| (v.vid, v.interval.start));
            edges.sort_by_key(|e| (e.eid, e.src, e.dst, e.interval.start));
        }
        SortOrder::Structural => {
            vertices.sort_by_key(|v| (v.interval.start, v.vid));
            edges.sort_by_key(|e| (e.interval.start, e.eid, e.src, e.dst));
        }
    }

    let file = File::create(path)?;
    let mut out = BufWriter::new(file);
    out.write_all(MAGIC)?;
    out.write_all(&[order.to_u8()])?;
    let mut head = BytesMut::with_capacity(32);
    put_interval(&mut head, &g.lifespan);
    head.put_u32_le(checked_count(vertices.len().div_ceil(chunk_rows))?);
    head.put_u32_le(checked_count(edges.len().div_ceil(chunk_rows))?);
    out.write_all(&head)?;

    for chunk in vertices.chunks(chunk_rows) {
        let stats = row_interval_stats(chunk.iter().map(|v| v.interval));
        let mut payload = BytesMut::new();
        for v in chunk {
            payload.put_u64_le(v.vid.0);
            put_interval(&mut payload, &v.interval);
            put_props(&mut payload, &v.props)?;
        }
        write_chunk(&mut out, &stats, &payload)?;
    }
    for chunk in edges.chunks(chunk_rows) {
        let stats = row_interval_stats(chunk.iter().map(|e| e.interval));
        let mut payload = BytesMut::new();
        for e in chunk {
            payload.put_u64_le(e.eid.0);
            payload.put_u64_le(e.src.0);
            payload.put_u64_le(e.dst.0);
            put_interval(&mut payload, &e.interval);
            put_props(&mut payload, &e.props)?;
        }
        write_chunk(&mut out, &stats, &payload)?;
    }
    out.flush()?;
    Ok(())
}

/// Reads a `.tgc` file, applying time-range pushdown when `range` is given:
/// chunks that cannot overlap are skipped without decoding, surviving rows
/// are residual-filtered, and intervals are clipped to the range (matching
/// the `GraphLoader` date-range semantics of §4).
pub fn read_tgc(
    path: &Path,
    range: Option<Interval>,
) -> Result<(TGraph, SortOrder, ScanStats), StorageError> {
    let file = File::open(path)?;
    let mut input = BufReader::new(file);
    let mut magic = [0u8; 5];
    input.read_exact(&mut magic)?;
    if &magic[..4] != MAGIC {
        return Err(DecodeError::BadMagic.into());
    }
    let order = SortOrder::from_u8(magic[4])?;
    let mut head = [0u8; 24];
    input.read_exact(&mut head)?;
    let mut buf = Bytes::copy_from_slice(&head);
    let lifespan = get_interval(&mut buf)?;
    let v_chunks = buf.get_u32_le();
    let e_chunks = buf.get_u32_le();

    let mut stats = ScanStats::default();
    let mut vertices: Vec<VertexRecord> = Vec::new();
    let mut edges: Vec<EdgeRecord> = Vec::new();

    let mut read_section = |input: &mut BufReader<File>,
                            chunks: u32,
                            is_vertex: bool,
                            vertices: &mut Vec<VertexRecord>,
                            edges: &mut Vec<EdgeRecord>|
     -> Result<(), StorageError> {
        for _ in 0..chunks {
            let header = read_chunk_header(input)?;
            let skip = match &range {
                Some(r) => !header.stats.may_overlap(r),
                None => false,
            };
            if skip {
                // Pushdown: seek past the payload without decoding.
                std::io::copy(&mut input.take(header.len as u64), &mut std::io::sink())?;
                stats.chunks_skipped += 1;
                continue;
            }
            let mut payload = vec![0u8; header.len as usize];
            input.read_exact(&mut payload)?;
            if checksum(&payload) != header.checksum {
                return Err(DecodeError::ChecksumMismatch.into());
            }
            stats.chunks_read += 1;
            let mut bytes = &payload[..];
            let mut decoder = PropsDecoder::default();
            for _ in 0..header.stats.rows {
                if is_vertex {
                    if bytes.remaining() < 8 {
                        return Err(DecodeError::UnexpectedEof.into());
                    }
                    let vid = bytes.get_u64_le();
                    let interval = get_interval(&mut bytes)?;
                    let props = decoder.get_props(&mut bytes)?;
                    stats.rows_read += 1;
                    let clipped = match &range {
                        Some(r) => interval.intersect(r),
                        None => Some(interval),
                    };
                    if let Some(interval) = clipped {
                        vertices.push(VertexRecord::new(vid, interval, props));
                    }
                } else {
                    if bytes.remaining() < 24 {
                        return Err(DecodeError::UnexpectedEof.into());
                    }
                    let eid = bytes.get_u64_le();
                    let src = bytes.get_u64_le();
                    let dst = bytes.get_u64_le();
                    let interval = get_interval(&mut bytes)?;
                    let props = decoder.get_props(&mut bytes)?;
                    stats.rows_read += 1;
                    let clipped = match &range {
                        Some(r) => interval.intersect(r),
                        None => Some(interval),
                    };
                    if let Some(interval) = clipped {
                        edges.push(EdgeRecord::new(eid, src, dst, interval, props));
                    }
                }
            }
        }
        Ok(())
    };

    read_section(&mut input, v_chunks, true, &mut vertices, &mut edges)?;
    read_section(&mut input, e_chunks, false, &mut vertices, &mut edges)?;

    let lifespan = match range {
        Some(r) => lifespan.intersect(&r).unwrap_or(Interval::empty()),
        None => lifespan,
    };
    Ok((
        TGraph {
            lifespan,
            vertices,
            edges,
        },
        order,
        stats,
    ))
}

/// Header-only statistics of a `.tgc` file: every chunk's min/max interval
/// bounds and row count, read without decoding any payload bytes.
///
/// This is the input to pre-execution cardinality estimation — the plan
/// verifier's predicted-vs-actual movement column starts from these rows.
#[derive(Clone, Debug)]
pub struct TgcStats {
    /// Declared lifespan of the stored graph.
    pub lifespan: Interval,
    /// Sort order the file was written in.
    pub order: SortOrder,
    /// Per-chunk statistics of the vertex section.
    pub vertex_chunks: Vec<ChunkStats>,
    /// Per-chunk statistics of the edge section.
    pub edge_chunks: Vec<ChunkStats>,
}

impl TgcStats {
    /// Upper-bound row estimate for a scan with the given time-range
    /// pushdown: vertex and edge rows of every chunk that `may_overlap`.
    pub fn estimated_rows(&self, range: Option<&Interval>) -> (u64, u64) {
        (
            estimate_rows(&self.vertex_chunks, range),
            estimate_rows(&self.edge_chunks, range),
        )
    }
}

/// Upper-bound rows a pushdown scan over `chunks` decodes: the sum of rows
/// in chunks whose statistics cannot rule out overlap with `range`
/// (`None` = full scan, every chunk counts).
pub fn estimate_rows(chunks: &[ChunkStats], range: Option<&Interval>) -> u64 {
    chunks
        .iter()
        .filter(|c| range.is_none_or(|r| c.may_overlap(r)))
        .map(|c| u64::from(c.rows))
        .sum()
}

/// Reads only the file header and chunk headers of a `.tgc` file, seeking
/// past every payload — O(chunks), not O(rows).
pub fn read_tgc_stats(path: &Path) -> Result<TgcStats, StorageError> {
    let file = File::open(path)?;
    let mut input = BufReader::new(file);
    let mut magic = [0u8; 5];
    input.read_exact(&mut magic)?;
    if &magic[..4] != MAGIC {
        return Err(DecodeError::BadMagic.into());
    }
    let order = SortOrder::from_u8(magic[4])?;
    let mut head = [0u8; 24];
    input.read_exact(&mut head)?;
    let mut buf = Bytes::copy_from_slice(&head);
    let lifespan = get_interval(&mut buf)?;
    let v_chunks = buf.get_u32_le();
    let e_chunks = buf.get_u32_le();

    let read_headers =
        |input: &mut BufReader<File>, chunks: u32| -> Result<Vec<ChunkStats>, StorageError> {
            let mut out = Vec::with_capacity(chunks as usize);
            for _ in 0..chunks {
                let header = read_chunk_header(input)?;
                std::io::copy(&mut input.take(header.len as u64), &mut std::io::sink())?;
                out.push(header.stats);
            }
            Ok(out)
        };
    let vertex_chunks = read_headers(&mut input, v_chunks)?;
    let edge_chunks = read_headers(&mut input, e_chunks)?;
    Ok(TgcStats {
        lifespan,
        order,
        vertex_chunks,
        edge_chunks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph_core::graph::figure1_graph_stable_ids;

    /// Satellite regression test: a chunk payload that does not fit the
    /// `u32` length field is refused with a typed error instead of being
    /// truncated into a corrupt file. Exercised with synthetic lengths — no
    /// 4 GiB buffer is allocated.
    #[test]
    fn oversized_chunk_length_is_refused() {
        assert!(matches!(
            checked_chunk_len(u32::MAX as usize + 1),
            Err(StorageError::ChunkTooLarge(n)) if n == u32::MAX as usize + 1
        ));
        assert!(matches!(
            checked_chunk_len(usize::MAX),
            Err(StorageError::ChunkTooLarge(_))
        ));
        // The boundary itself still fits.
        assert!(matches!(checked_chunk_len(u32::MAX as usize), Ok(n) if n == u32::MAX));
        assert!(matches!(checked_chunk_len(0), Ok(0)));
        // And the error renders a useful diagnostic.
        let msg = StorageError::ChunkTooLarge(5_000_000_000).to_string();
        assert!(msg.contains("5000000000") && msg.contains("4 GiB"), "{msg}");
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tgc-format-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip_both_orders() {
        let g = figure1_graph_stable_ids();
        for (order, name) in [
            (SortOrder::Temporal, "fig1-temporal.tgc"),
            (SortOrder::Structural, "fig1-structural.tgc"),
        ] {
            let path = tmp(name);
            write_tgc(&path, &g, order, 2).unwrap();
            let (back, got_order, stats) = read_tgc(&path, None).unwrap();
            assert_eq!(got_order, order);
            assert_eq!(stats.chunks_skipped, 0);
            assert_eq!(back.lifespan, g.lifespan);
            let canon = |g: &TGraph| {
                let mut v = g.vertices.clone();
                v.sort_by_key(|x| (x.vid, x.interval.start));
                let mut e = g.edges.clone();
                e.sort_by_key(|x| (x.eid, x.interval.start));
                (v, e)
            };
            assert_eq!(canon(&back), canon(&g));
        }
    }

    #[test]
    fn pushdown_skips_chunks() {
        // Build a graph with widely separated eras so chunks get disjoint
        // time ranges under structural sort.
        let mut vertices = Vec::new();
        for era in 0..8i64 {
            for i in 0..16u64 {
                vertices.push(VertexRecord::new(
                    era as u64 * 100 + i,
                    Interval::new(era * 1000, era * 1000 + 10),
                    tgraph_core::Props::typed("x"),
                ));
            }
        }
        let g = TGraph::from_records(vertices, vec![]);
        let path = tmp("eras.tgc");
        write_tgc(&path, &g, SortOrder::Structural, 16).unwrap();
        let (slice, _, stats) = read_tgc(&path, Some(Interval::new(3000, 3010))).unwrap();
        assert_eq!(slice.vertices.len(), 16);
        assert!(
            stats.chunks_skipped >= 6,
            "skipped {}",
            stats.chunks_skipped
        );
        assert_eq!(stats.chunks_read, 1);
    }

    #[test]
    fn header_stats_predict_pushdown_scan() {
        // Same era layout as pushdown_skips_chunks: disjoint chunk ranges.
        let mut vertices = Vec::new();
        for era in 0..8i64 {
            for i in 0..16u64 {
                vertices.push(VertexRecord::new(
                    era as u64 * 100 + i,
                    Interval::new(era * 1000, era * 1000 + 10),
                    tgraph_core::Props::typed("x"),
                ));
            }
        }
        let g = TGraph::from_records(vertices, vec![]);
        let path = tmp("eras-stats.tgc");
        write_tgc(&path, &g, SortOrder::Structural, 16).unwrap();

        let stats = read_tgc_stats(&path).unwrap();
        assert_eq!(stats.order, SortOrder::Structural);
        assert_eq!(stats.lifespan, g.lifespan);
        assert_eq!(stats.vertex_chunks.len(), 8);
        assert_eq!(estimate_rows(&stats.vertex_chunks, None), 128);

        // Header-only estimate equals the rows the real scan decodes.
        let range = Interval::new(3000, 3010);
        let (v_est, e_est) = stats.estimated_rows(Some(&range));
        let (_, _, scan) = read_tgc(&path, Some(range)).unwrap();
        assert_eq!(v_est + e_est, scan.rows_read as u64);
        assert_eq!(v_est, 16);
    }

    #[test]
    fn range_clips_intervals() {
        let g = figure1_graph_stable_ids();
        let path = tmp("clip.tgc");
        write_tgc(&path, &g, SortOrder::Temporal, DEFAULT_CHUNK_ROWS).unwrap();
        let (slice, _, _) = read_tgc(&path, Some(Interval::new(4, 6))).unwrap();
        assert_eq!(slice.lifespan, Interval::new(4, 6));
        assert!(slice
            .vertices
            .iter()
            .all(|v| Interval::new(4, 6).contains_interval(&v.interval)));
    }

    #[test]
    fn corrupt_payload_detected() {
        let g = figure1_graph_stable_ids();
        let path = tmp("corrupt.tgc");
        write_tgc(&path, &g, SortOrder::Temporal, DEFAULT_CHUNK_ROWS).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        let n = raw.len();
        raw[n - 3] ^= 0xff; // flip a byte in the last chunk payload
        std::fs::write(&path, raw).unwrap();
        match read_tgc(&path, None) {
            Err(StorageError::Decode(DecodeError::ChecksumMismatch)) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_detected() {
        let path = tmp("badmagic.tgc");
        std::fs::write(&path, b"NOPE0aaaaaaaaaaaaaaaaaaaaaaaaaaa").unwrap();
        match read_tgc(&path, None) {
            Err(StorageError::Decode(DecodeError::BadMagic)) => {}
            other => panic!("expected bad magic, got {other:?}"),
        }
    }

    #[test]
    fn empty_graph_roundtrip() {
        let path = tmp("empty.tgc");
        write_tgc(&path, &TGraph::new(), SortOrder::Temporal, 8).unwrap();
        let (back, _, _) = read_tgc(&path, None).unwrap();
        assert!(back.is_empty());
    }
}
