//! The `.tgc` on-disk format: chunked, statistics-annotated row storage with
//! time-range predicate pushdown — the local-filesystem analogue of the
//! Parquet layout described in §4 ("Data loading").
//!
//! A file holds a vertex section and an edge section. Each section is a
//! sequence of *chunks* (row groups); every chunk records min/max statistics
//! over its `start` and `end` time columns, so a reader with a time-range
//! predicate skips whole chunks — Parquet's filter pushdown. Rows are sorted
//! by entity id, then start time: consecutive states of one entity are
//! adjacent (the temporal-locality order of §4). The paper also wrote a
//! start-then-id copy for RG and a nested per-entity copy for OG/OGC; here
//! both load as fast from this one (EXPERIMENTS.md, A1), so there is one
//! file. The byte after the magic, once the order's tag, is written as 0 and
//! must read 0.
//!
//! `create` and `write_chunks` write the file; `Scan` — header parse, chunk
//! walk, sizes checked against the file — reads it, for the rows
//! (`read_tgc`) or for the chunk headers alone (`read_tgc_stats`).

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use tgraph_core::graph::{EdgeRecord, TGraph, VertexRecord};
use tgraph_core::spill::check_props;
use tgraph_core::time::{Interval, Time};
use tgraph_dataflow::{checked_count, checksum, DecodeError, EncodeError, Spill, SpillReader};

/// Rows per chunk; small enough that pushdown skips matter on test data,
/// large enough to amortize per-chunk overhead.
pub const DEFAULT_CHUNK_ROWS: usize = 4096;

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

    /// Whether a scan filtered to `range` has to read the chunk (`None` =
    /// full scan, every chunk).
    fn in_scan(&self, range: Option<&Interval>) -> bool {
        range.is_none_or(|r| self.may_overlap(r))
    }
}

/// Validates a chunk payload length against the format's `u32` length
/// field. A bare `as u32` cast here once truncated ≥ 4 GiB payloads into
/// corrupt files whose declared length disagreed with their contents — the
/// typed error turns that silent corruption into a refusal at write time.
fn checked_chunk_len(len: usize) -> Result<u32, StorageError> {
    u32::try_from(len).map_err(|_| StorageError::ChunkTooLarge(len))
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

impl ScanStats {
    /// Adds another file's scan to this one.
    pub(crate) fn add(&mut self, other: ScanStats) {
        self.chunks_skipped += other.chunks_skipped;
        self.chunks_read += other.chunks_read;
        self.rows_read += other.rows_read;
    }
}

/// The bytes a file opens with: the magic and a zero byte.
const LEAD: &[u8] = b"TGC1\0";

/// The bytes of a chunk header: the four interval bounds, the row count, the
/// payload length and the checksum.
const CHUNK_HEADER: usize = 48;

/// What a file says about itself before its first chunk.
struct FileHeader {
    /// Declared lifespan of the stored graph.
    lifespan: Interval,
    /// Chunks in the vertex section and in the edge section after it.
    chunks: [u32; 2],
}

/// Creates `path` and writes its file header: the lead bytes, the lifespan,
/// and the chunk counts of the vertex and edge sections, which will hold
/// `rows` rows.
fn create(
    path: &Path,
    lifespan: &Interval,
    rows: [usize; 2],
    chunk_rows: usize,
) -> Result<BufWriter<File>, StorageError> {
    let mut bytes = LEAD.to_vec();
    lifespan.spill(&mut bytes);
    for section in rows {
        let chunks = checked_count(section.div_ceil(chunk_rows))?;
        bytes.extend_from_slice(&chunks.to_le_bytes());
    }
    let mut out = BufWriter::new(File::create(path)?);
    out.write_all(&bytes)?;
    Ok(out)
}

/// Writes one section: `rows` cut into chunks of `chunk_rows`, each chunk its
/// statistics over the rows' `span`s (start, end), row count, payload length
/// and checksum, then the payload `encode` produced.
fn write_chunks<R>(
    out: &mut impl Write,
    rows: &[R],
    chunk_rows: usize,
    span: impl Fn(&R) -> (Time, Time),
    encode: impl Fn(&mut Vec<u8>, &R) -> Result<(), EncodeError>,
) -> Result<(), StorageError> {
    for chunk in rows.chunks(chunk_rows) {
        let (mut min_start, mut max_start) = (i64::MAX, i64::MIN);
        let (mut min_end, mut max_end) = (i64::MAX, i64::MIN);
        let mut payload = Vec::new();
        for r in chunk {
            let (start, end) = span(r);
            min_start = min_start.min(start);
            max_start = max_start.max(start);
            min_end = min_end.min(end);
            max_end = max_end.max(end);
            encode(&mut payload, r)?;
        }
        let mut head = Vec::with_capacity(CHUNK_HEADER);
        for column in [min_start, max_start, min_end, max_end] {
            head.extend_from_slice(&column.to_le_bytes());
        }
        head.extend_from_slice(&checked_count(chunk.len())?.to_le_bytes());
        head.extend_from_slice(&checked_chunk_len(payload.len())?.to_le_bytes());
        head.extend_from_slice(&checksum(&payload).to_le_bytes());
        out.write_all(&head)?;
        out.write_all(&payload)?;
    }
    Ok(())
}

/// A file being read front to back, with the bytes it has left. Every size a
/// header announces — the file header itself, a chunk count, a payload
/// length — is claimed against `left` before anything is read, skipped or
/// reserved for it, so a file that lies about its sizes (or was cut short)
/// is `DecodeError::UnexpectedEof` and never an allocation.
struct Scan {
    input: BufReader<File>,
    left: u64,
}

/// Decodes one row at the cursor of a chunk payload: `None` when the row lies
/// outside the range the scan is filtered to.
type RowDecoder<T> = fn(&mut SpillReader<'_>, Option<&Interval>) -> Result<Option<T>, DecodeError>;

impl Scan {
    /// Opens `path` and reads and validates its file header.
    fn open(path: &Path) -> Result<(Scan, FileHeader), StorageError> {
        let file = File::open(path)?;
        let left = file.metadata()?.len();
        let mut scan = Scan {
            input: BufReader::new(file),
            left,
        };
        // The lead, the lifespan's two bounds and the two chunk counts.
        let mut bytes = [0u8; LEAD.len() + 16 + 8];
        scan.fill(&mut bytes)?;
        let mut r = SpillReader::new(&bytes);
        if r.bytes(LEAD.len())? != LEAD {
            return Err(DecodeError::BadMagic.into());
        }
        let lifespan = Interval::unspill(&mut r)?;
        let chunks = [r.u32()?, r.u32()?];
        Ok((scan, FileHeader { lifespan, chunks }))
    }

    /// Takes `n` bytes off what the file has left, or reports it short.
    fn claim(&mut self, n: u64) -> Result<(), DecodeError> {
        self.left = self.left.checked_sub(n).ok_or(DecodeError::UnexpectedEof)?;
        Ok(())
    }

    /// Reads exactly `buf.len()` bytes.
    fn fill(&mut self, buf: &mut [u8]) -> Result<(), StorageError> {
        self.claim(buf.len() as u64)?;
        self.input.read_exact(buf)?;
        Ok(())
    }

    /// The chunk walk, over the next `chunks` chunks: read the chunk header;
    /// if `keep` turns its statistics down, seek past the payload
    /// (pushdown), else read the payload, verify its checksum and hand it,
    /// with the header's row count, to `decode`.
    fn walk(
        &mut self,
        chunks: u32,
        scanned: &mut ScanStats,
        mut keep: impl FnMut(&ChunkStats) -> bool,
        mut decode: impl FnMut(u32, &[u8]) -> Result<(), DecodeError>,
    ) -> Result<(), StorageError> {
        let mut head = [0u8; CHUNK_HEADER];
        // A count the file has no room for the headers of is a lie: say so
        // before looping on it.
        if u64::from(chunks) * CHUNK_HEADER as u64 > self.left {
            return Err(DecodeError::UnexpectedEof.into());
        }
        for _ in 0..chunks {
            self.fill(&mut head)?;
            let mut r = SpillReader::new(&head);
            let stats = ChunkStats {
                min_start: r.i64()?,
                max_start: r.i64()?,
                min_end: r.i64()?,
                max_end: r.i64()?,
                rows: r.u32()?,
            };
            let len = r.u32()?;
            let sum = r.u64()?;
            self.claim(u64::from(len))?;
            if !keep(&stats) {
                self.input.seek_relative(i64::from(len))?;
                scanned.chunks_skipped += 1;
                continue;
            }
            let mut payload = vec![0u8; len as usize];
            self.input.read_exact(&mut payload)?;
            if checksum(&payload) != sum {
                return Err(DecodeError::ChecksumMismatch.into());
            }
            decode(stats.rows, &payload)?;
            scanned.chunks_read += 1;
            scanned.rows_read += stats.rows as usize;
        }
        Ok(())
    }

    /// Reads one section's rows through the walk: chunks that cannot overlap
    /// `range` are skipped on their statistics, every other payload is
    /// decoded row by row with `row`.
    fn rows<T>(
        &mut self,
        chunks: u32,
        range: Option<&Interval>,
        scanned: &mut ScanStats,
        row: RowDecoder<T>,
    ) -> Result<Vec<T>, StorageError> {
        let mut out = Vec::new();
        self.walk(
            chunks,
            scanned,
            |stats| stats.in_scan(range),
            |rows, payload| {
                let mut r = SpillReader::new(payload);
                for _ in 0..rows {
                    out.extend(row(&mut r, range)?);
                }
                Ok(())
            },
        )?;
        Ok(out)
    }
}

/// `iv` cut down to `range`: `None` when nothing of it is left.
fn clip(iv: Interval, range: Option<&Interval>) -> Option<Interval> {
    match range {
        Some(r) => iv.intersect(r),
        None => Some(iv),
    }
}

/// Writes a TGraph to `path` in the `.tgc` format, rows sorted by entity id
/// then start, in chunks of `chunk_rows`.
pub fn write_tgc(path: &Path, g: &TGraph, chunk_rows: usize) -> Result<(), StorageError> {
    let chunk_rows = chunk_rows.max(1);
    let mut vertices = g.vertices.clone();
    let mut edges = g.edges.clone();
    vertices.sort_by_key(|v| (v.vid, v.interval.start));
    edges.sort_by_key(|e| (e.eid, e.src, e.dst, e.interval.start));
    let rows = [vertices.len(), edges.len()];
    let mut out = create(path, &g.lifespan, rows, chunk_rows)?;
    write_chunks(
        &mut out,
        &vertices,
        chunk_rows,
        |v| (v.interval.start, v.interval.end),
        |buf, v| {
            check_props(&v.props)?;
            v.spill(buf);
            Ok(())
        },
    )?;
    write_chunks(
        &mut out,
        &edges,
        chunk_rows,
        |e| (e.interval.start, e.interval.end),
        |buf, e| {
            check_props(&e.props)?;
            e.spill(buf);
            Ok(())
        },
    )?;
    out.flush()?;
    Ok(())
}

/// A `.tgc` vertex row is the record's codec, clipped to the scan's range.
fn vertex_row(
    r: &mut SpillReader<'_>,
    range: Option<&Interval>,
) -> Result<Option<VertexRecord>, DecodeError> {
    let v = VertexRecord::unspill(r)?;
    Ok(clip(v.interval, range).map(|interval| VertexRecord { interval, ..v }))
}

/// A `.tgc` edge row is the record's codec, clipped to the scan's range.
fn edge_row(
    r: &mut SpillReader<'_>,
    range: Option<&Interval>,
) -> Result<Option<EdgeRecord>, DecodeError> {
    let e = EdgeRecord::unspill(r)?;
    Ok(clip(e.interval, range).map(|interval| EdgeRecord { interval, ..e }))
}

/// Reads a `.tgc` file, applying time-range pushdown when `range` is given:
/// chunks that cannot overlap are skipped without decoding, surviving rows
/// are residual-filtered, and intervals are clipped to the range (matching
/// the `GraphLoader` date-range semantics of §4).
pub fn read_tgc(path: &Path, range: Option<Interval>) -> Result<(TGraph, ScanStats), StorageError> {
    let (mut scan, head) = Scan::open(path)?;
    let range = range.as_ref();
    let mut scanned = ScanStats::default();
    let vertices = scan.rows(head.chunks[0], range, &mut scanned, vertex_row)?;
    let edges = scan.rows(head.chunks[1], range, &mut scanned, edge_row)?;
    let lifespan = clip(head.lifespan, range).unwrap_or(Interval::empty());
    Ok((
        TGraph {
            lifespan,
            vertices,
            edges,
        },
        scanned,
    ))
}

/// Header-only statistics of a `.tgc` file: every chunk's min/max interval
/// bounds and row count, read without decoding any payload bytes.
#[derive(Clone, Debug)]
pub struct TgcStats {
    /// Declared lifespan of the stored graph.
    pub lifespan: Interval,
    /// Per-chunk statistics of the vertex section.
    pub vertex_chunks: Vec<ChunkStats>,
    /// Per-chunk statistics of the edge section.
    pub edge_chunks: Vec<ChunkStats>,
}

/// Reads only the file header and chunk headers of a `.tgc` file, seeking
/// past every payload — O(chunks), not O(rows).
pub fn read_tgc_stats(path: &Path) -> Result<TgcStats, StorageError> {
    let (mut scan, head) = Scan::open(path)?;
    let mut headers = |chunks: u32| -> Result<Vec<ChunkStats>, StorageError> {
        let mut out = Vec::new();
        let keep_none = |stats: &ChunkStats| {
            out.push(*stats);
            false
        };
        scan.walk(chunks, &mut ScanStats::default(), keep_none, |_, _| Ok(()))?;
        Ok(out)
    };
    Ok(TgcStats {
        lifespan: head.lifespan,
        vertex_chunks: headers(head.chunks[0])?,
        edge_chunks: headers(head.chunks[1])?,
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

    /// A property set wider than the codec's `u16` count is refused with a
    /// typed error before a byte of its row is written.
    #[test]
    fn a_row_wider_than_the_codec_is_refused() {
        let wide = tgraph_core::Props::from_pairs(
            (0..=u16::MAX as usize).map(|i| (format!("k{i}"), tgraph_core::Value::Int(0))),
        );
        let g = TGraph::from_records(
            vec![VertexRecord::new(1, Interval::new(0, 1), wide)],
            vec![],
        );
        match write_tgc(&tmp("wide.tgc"), &g, 8) {
            Err(StorageError::Encode(EncodeError::TooManyProps(n))) => {
                assert_eq!(n, u16::MAX as usize + 1)
            }
            other => panic!("expected a too-wide refusal, got {other:?}"),
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tgc-format-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip() {
        let g = figure1_graph_stable_ids();
        let path = tmp("fig1.tgc");
        write_tgc(&path, &g, 2).unwrap();
        let (back, stats) = read_tgc(&path, None).unwrap();
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

    #[test]
    fn pushdown_skips_chunks() {
        // Build a graph with widely separated eras so chunks get disjoint
        // time ranges: each era mints its own ids, so entity order is also
        // time order.
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
        write_tgc(&path, &g, 16).unwrap();
        let (slice, stats) = read_tgc(&path, Some(Interval::new(3000, 3010))).unwrap();
        assert_eq!(slice.vertices.len(), 16);
        assert!(
            stats.chunks_skipped >= 6,
            "skipped {}",
            stats.chunks_skipped
        );
        assert_eq!(stats.chunks_read, 1);
    }

    #[test]
    fn header_stats_match_the_pushdown_scan() {
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
        write_tgc(&path, &g, 16).unwrap();

        let stats = read_tgc_stats(&path).unwrap();
        assert_eq!(stats.lifespan, g.lifespan);
        assert_eq!(stats.vertex_chunks.len(), 8);
        assert!(stats.edge_chunks.is_empty());
        let rows: u32 = stats.vertex_chunks.iter().map(|c| c.rows).sum();
        assert_eq!(rows, 128);

        // The chunks whose header statistics may overlap a range are the
        // chunks the ranged scan decodes.
        let range = Interval::new(3000, 3010);
        let kept: Vec<&ChunkStats> = stats
            .vertex_chunks
            .iter()
            .filter(|c| c.may_overlap(&range))
            .collect();
        let (_, scan) = read_tgc(&path, Some(range)).unwrap();
        assert_eq!(kept.len(), scan.chunks_read);
        assert_eq!(kept.iter().map(|c| c.rows as usize).sum::<usize>(), 16);
        assert_eq!(scan.rows_read, 16);
    }

    #[test]
    fn range_clips_intervals() {
        let g = figure1_graph_stable_ids();
        let path = tmp("clip.tgc");
        write_tgc(&path, &g, DEFAULT_CHUNK_ROWS).unwrap();
        let (slice, _) = read_tgc(&path, Some(Interval::new(4, 6))).unwrap();
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
        write_tgc(&path, &g, DEFAULT_CHUNK_ROWS).unwrap();
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
        write_tgc(&path, &TGraph::new(), 8).unwrap();
        let (back, _) = read_tgc(&path, None).unwrap();
        assert!(back.is_empty());
    }
}
