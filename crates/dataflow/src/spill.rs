//! Spill codec and run files: how exchange buckets leave memory when the
//! [memory governor](crate::MemGovernor) is over budget, and how a
//! serialized shuffle ([`Runtime::set_serialized_shuffles`](crate::Runtime::set_serialized_shuffles))
//! round-trips its buckets. Both decode through [`decode_records`].
//!
//! A *run* is one map partition's bucket set written to disk. Buckets are
//! written — and later read back — in bucket order, with records in exactly
//! the order the map side produced them, so a merge of spilled and in-memory
//! sources reproduces the all-in-memory exchange byte for byte.
//!
//! Records are encoded via the [`Spill`] trait: a deliberately boring,
//! exact codec (no compression, no varints) with implementations for the
//! standard types dataflow programs shuffle. Domain crates implement it for
//! their record types (`tgraph-core` for property-graph records,
//! `tgraph-repr` for the physical-representation rows). It is also the row
//! codec of `tgraph-storage`'s `.tgc` files, which read their chunk
//! payloads through the same [`SpillReader`] and report damage with the same
//! [`DecodeError`]: integers are 8 little-endian bytes, a string is a `u32`
//! byte length and its UTF-8 bytes, a sequence is a `u64` count and its
//! elements. The fixed widths are owned here too: a writer that can refuse
//! a record checks it with the `checked_*` helpers and their
//! [`EncodeError`], and an encoder that cannot ([`Spill::spill`]) raises
//! [`too_wide`].

use std::any::Any;
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A cheap estimate of the heap bytes owned by a value, *excluding* its
/// inline `size_of` footprint. The governor charges
/// `size_of::<T>() + heap_bytes()` per record; the estimate only needs to be
/// proportional to real residency, not exact (malloc headers and capacity
/// slack are ignored).
pub trait HeapSize {
    /// Heap bytes reachable from (and owned by) `self`.
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Inline plus owned-heap bytes of one value — the unit the governor charges.
pub fn charged_size<T: HeapSize>(x: &T) -> usize {
    std::mem::size_of::<T>() + x.heap_bytes()
}

/// Why a spill write or read failed. Spill failures abort the wave: the
/// engine's internal error channel is panics, so operators raise this as a
/// typed panic payload (`std::panic::panic_any(SpillError…)`) which
/// `catch_unwind` callers (tests, the serving layer) can downcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpillError {
    /// A filesystem operation on a run file failed.
    Io {
        /// Which operation failed (`create`, `write`, `open`, `read`, …).
        op: &'static str,
        /// The run file (or spill directory) involved.
        path: PathBuf,
        /// The underlying `std::io::Error`, stringified.
        error: String,
    },
    /// A payload did not decode back (checksum mismatch, a [`DecodeError`]
    /// at some record, trailing bytes), or a record was too wide for the
    /// codec's length prefixes and could not be encoded at all.
    Corrupt {
        /// What went wrong and where: the record, bucket and run path when
        /// known.
        detail: String,
    },
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillError::Io { op, path, error } => {
                write!(f, "spill {op} failed on {}: {error}", path.display())
            }
            SpillError::Corrupt { detail } => write!(f, "spill payload corrupt: {detail}"),
        }
    }
}

impl std::error::Error for SpillError {}

fn io_err(op: &'static str, path: &Path, e: std::io::Error) -> SpillError {
    SpillError::Io {
        op,
        path: path.to_path_buf(),
        error: e.to_string(),
    }
}

fn corrupt(detail: impl Into<String>) -> SpillError {
    SpillError::Corrupt {
        detail: detail.into(),
    }
}

/// Prefixes a `Corrupt` error's detail with where in the payload it arose.
fn within(what: std::fmt::Arguments<'_>, e: SpillError) -> SpillError {
    match e {
        SpillError::Corrupt { detail } => corrupt(format!("{what}: {detail}")),
        io => io,
    }
}

/// Raises the engine's typed panic for a value wider than the codec's
/// length prefix for it: [`Spill::spill`] cannot return an error, and
/// truncating the prefix would write a payload whose sizes lie.
pub fn too_wide(what: impl std::fmt::Display) -> ! {
    std::panic::panic_any(corrupt(format!("record too wide to encode: {what}")))
}

/// Why a payload did not decode: the one error of every [`Spill::unspill`],
/// whether the bytes came from a run file, a serialized shuffle or a
/// `.tgc` chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the announced payload.
    UnexpectedEof,
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// A tag byte (of a bool, an `Option`, a property value, …) that no
    /// encoder writes.
    BadTag {
        /// What the tag selects between.
        what: &'static str,
        /// The byte found.
        tag: u8,
    },
    /// The bytes are not in this format: a file magic, version or the
    /// `.tgc` zero byte after the magic that does not match, or an interval
    /// that ends before it starts. No writer produces one.
    BadMagic,
    /// A bitset with bits set past its length. No writer produces one.
    BitsPastLength,
    /// A chunk checksum did not match its payload.
    ChecksumMismatch,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "unexpected end of buffer"),
            DecodeError::InvalidUtf8 => write!(f, "invalid UTF-8 in string field"),
            DecodeError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            DecodeError::BadMagic => write!(f, "bad magic, version or interval"),
            DecodeError::BitsPastLength => write!(f, "bitset bits set past its length"),
            DecodeError::ChecksumMismatch => write!(f, "chunk checksum mismatch"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A field does not fit its fixed-width length or count prefix. Writers
/// refuse it: a truncated prefix would declare sizes that disagree with the
/// bytes after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// A string's byte length exceeded the `u32` length prefix. Carries the
    /// offending length.
    StringTooLarge(usize),
    /// A property set's pair count exceeded the `u16` count field. Carries
    /// the offending count.
    TooManyProps(usize),
    /// A row, chunk or history count exceeded a file's `u32` count field.
    /// Carries the offending count.
    CountTooLarge(usize),
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::StringTooLarge(len) => {
                write!(f, "string of {len} bytes exceeds the u32 length prefix")
            }
            EncodeError::TooManyProps(n) => {
                write!(f, "property set of {n} pairs exceeds the u16 count field")
            }
            EncodeError::CountTooLarge(n) => {
                write!(f, "{n} items exceed the format's u32 count field")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Validates a string's byte length against the `u32` length prefix.
/// Factored out so the boundary is testable without allocating a 4 GiB
/// string.
pub fn checked_str_len(len: usize) -> Result<u32, EncodeError> {
    u32::try_from(len).map_err(|_| EncodeError::StringTooLarge(len))
}

/// Validates a property-pair count against the `u16` count field.
pub fn checked_prop_count(n: usize) -> Result<u16, EncodeError> {
    u16::try_from(n).map_err(|_| EncodeError::TooManyProps(n))
}

/// Validates a row, chunk or history count against a `u32` count field.
pub fn checked_count(n: usize) -> Result<u32, EncodeError> {
    u32::try_from(n).map_err(|_| EncodeError::CountTooLarge(n))
}

/// Decodes exactly `records` values from `payload`, appending them to `out`
/// in order. A payload that is truncated, or longer than its `records`
/// account for, is a typed [`SpillError::Corrupt`]. Run files and serialized
/// shuffles both read their buckets back through this one function.
pub fn decode_records<T: Spill>(
    payload: &[u8],
    records: u64,
    out: &mut Vec<T>,
) -> Result<(), SpillError> {
    let mut r = SpillReader::new(payload);
    // Cap the reservation: a count must not force an arbitrary allocation
    // before decode proves it out.
    out.reserve(records.min(1 << 20) as usize);
    for i in 0..records {
        out.push(T::unspill(&mut r).map_err(|e| corrupt(format!("record {i} of {records}: {e}")))?);
    }
    if r.remaining() != 0 {
        return Err(corrupt(format!(
            "{} trailing bytes after {records} records",
            r.remaining()
        )));
    }
    Ok(())
}

/// The checksum guarding every run bucket (and, re-exported through
/// `tgraph-storage`, every `.tgc` chunk): a 64-bit multiply-add fold with
/// position mixing, cheap enough to run on every read and strong enough to
/// catch torn or bit-flipped writes.
///
/// The definition is byte-serial, `acc = acc·P + b_i + i` from a fixed seed;
/// it is evaluated eight bytes per step. Eight serial steps from position
/// `pos` expand to `acc·P⁸ + Σ b_j·P^(7−j) + pos·S1 + S2`, whose byte terms
/// are independent multiplies, so a block puts one multiply on the
/// dependency chain instead of eight. The tail folds byte by byte.
pub fn checksum(payload: &[u8]) -> u64 {
    let mut acc = CHECKSUM_SEED;
    let mut pos: u64 = 0;
    let mut blocks = payload.chunks_exact(8);
    for block in &mut blocks {
        let mut next = acc
            .wrapping_mul(BLOCK.p8)
            .wrapping_add(pos.wrapping_mul(BLOCK.s1))
            .wrapping_add(BLOCK.s2);
        for (b, weight) in block.iter().zip(BLOCK.weights) {
            next = next.wrapping_add((*b as u64).wrapping_mul(weight));
        }
        acc = next;
        pos = pos.wrapping_add(8);
    }
    for b in blocks.remainder() {
        acc = acc
            .wrapping_mul(CHECKSUM_P)
            .wrapping_add(*b as u64)
            .wrapping_add(pos);
        pos = pos.wrapping_add(1);
    }
    acc
}

const CHECKSUM_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const CHECKSUM_P: u64 = 0x100_0000_01b3;

/// The constants of [`checksum`]'s 8-byte step: `weights[j] = P^(7−j)`,
/// `p8 = P⁸`, `s1 = Σ_{k<8} P^k` and `s2 = Σ_j j·P^(7−j)` (all wrapping).
struct BlockStep {
    weights: [u64; 8],
    p8: u64,
    s1: u64,
    s2: u64,
}

const BLOCK: BlockStep = {
    let mut weights = [1u64; 8];
    let mut j = 7;
    while j > 0 {
        j -= 1;
        weights[j] = weights[j + 1].wrapping_mul(CHECKSUM_P);
    }
    let (mut s1, mut s2, mut j) = (0u64, 0u64, 0);
    while j < 8 {
        s1 = s1.wrapping_add(weights[j]);
        s2 = s2.wrapping_add((j as u64).wrapping_mul(weights[j]));
        j += 1;
    }
    BlockStep {
        weights,
        p8: weights[0].wrapping_mul(CHECKSUM_P),
        s1,
        s2,
    }
};

/// Bounds-checked little-endian cursor over one payload: a run bucket, a
/// serialized shuffle's bucket or a `.tgc` chunk.
///
/// The records of one payload repeat themselves: the same few labels on
/// every record, the same type and group strings on most, and, sorted by
/// entity, often the very same property set as the record before. So each
/// distinct string is validated and allocated once per payload and shared
/// from then on ([`interned`](Self::interned)), and a value whose bytes
/// repeat the previous one's comes back as a clone
/// ([`repeated`](Self::repeated)). The bytes are what they would be
/// without either.
pub struct SpillReader<'a> {
    /// The bytes not yet consumed.
    rest: &'a [u8],
    /// Every distinct string read through `interned` so far, by its bytes.
    strings: HashMap<&'a [u8], Arc<str>>,
    /// The bytes of the last value read through `repeated`, and the value.
    last: Option<(&'a [u8], Box<dyn Any>)>,
}

impl<'a> SpillReader<'a> {
    /// Reads from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SpillReader {
            rest: buf,
            strings: HashMap::new(),
            last: None,
        }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Consumes `n` raw bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (head, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or(DecodeError::UnexpectedEof)?;
        self.rest = rest;
        Ok(head)
    }

    /// Consumes `N` raw bytes.
    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, rest) = self
            .rest
            .split_first_chunk()
            .ok_or(DecodeError::UnexpectedEof)?;
        self.rest = rest;
        Ok(*head)
    }

    /// Consumes one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        self.array().map(u8::from_le_bytes)
    }

    /// Consumes a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Consumes a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Consumes a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Consumes a little-endian `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        self.array().map(i64::from_le_bytes)
    }

    /// Consumes a string: a `u32` byte length and that many UTF-8 bytes.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.bytes(len)?).map_err(|_| DecodeError::InvalidUtf8)
    }

    /// Consumes a string as [`str`](Self::str) does, shared with every
    /// earlier string of the payload that has the same bytes.
    pub fn interned(&mut self) -> Result<Arc<str>, DecodeError> {
        let len = self.u32()? as usize;
        let raw = self.bytes(len)?;
        if let Some(s) = self.strings.get(raw) {
            return Ok(Arc::clone(s));
        }
        let s: Arc<str> = std::str::from_utf8(raw)
            .map_err(|_| DecodeError::InvalidUtf8)?
            .into();
        self.strings.insert(raw, Arc::clone(&s));
        Ok(s)
    }

    /// Decodes one value with `decode`, unless the payload at the cursor
    /// starts with the bytes of the last value read through this method:
    /// those are skipped and that value comes back as a clone. `T`'s
    /// encoding must delimit itself, so that bytes which start with a
    /// value's encoding decode to that value.
    pub fn repeated<T: Clone + 'static>(
        &mut self,
        decode: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<T, DecodeError> {
        if let Some((raw, last)) = &self.last {
            if let Some(value) = last.downcast_ref::<T>() {
                if let Some(rest) = self.rest.strip_prefix(*raw) {
                    let value = value.clone();
                    self.rest = rest;
                    return Ok(value);
                }
            }
        }
        let start = self.rest;
        let value = decode(self)?;
        let raw = &start[..start.len() - self.rest.len()];
        // The slot's allocation is reused from one value to the next.
        match &mut self.last {
            Some((bytes, last)) if last.is::<T>() => {
                *bytes = raw;
                if let Some(last) = last.downcast_mut::<T>() {
                    *last = value.clone();
                }
            }
            slot => *slot = Some((raw, Box::new(value.clone()))),
        }
        Ok(value)
    }
}

/// Exact binary codec for spillable records. `unspill(spill(x)) == x` must
/// hold bit-for-bit (floats roundtrip through their bit patterns), because
/// the governor's contract is byte-identical results with spilling on or
/// off.
pub trait Spill: HeapSize + Sized {
    /// Appends the encoding of `self` to `out`.
    fn spill(&self, out: &mut Vec<u8>);
    /// Decodes one value, consuming exactly the bytes `spill` wrote.
    fn unspill(r: &mut SpillReader<'_>) -> Result<Self, DecodeError>;
}

macro_rules! spill_int {
    ($($t:ty),*) => {$(
        impl HeapSize for $t {}
        impl Spill for $t {
            #[inline]
            fn spill(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&(*self as u64).to_le_bytes());
            }
            #[inline]
            fn unspill(r: &mut SpillReader<'_>) -> Result<Self, DecodeError> {
                Ok(r.u64()? as $t)
            }
        }
    )*};
}

// Integers travel as 8 little-endian bytes regardless of native width, so a
// run written by any build decodes on any other.
spill_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl HeapSize for bool {}
impl Spill for bool {
    #[inline]
    fn spill(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    #[inline]
    fn unspill(r: &mut SpillReader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag { what: "bool", tag }),
        }
    }
}

impl HeapSize for f64 {}
impl Spill for f64 {
    #[inline]
    fn spill(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    #[inline]
    fn unspill(r: &mut SpillReader<'_>) -> Result<Self, DecodeError> {
        Ok(f64::from_bits(r.u64()?))
    }
}

impl HeapSize for () {}
impl Spill for () {
    fn spill(&self, _out: &mut Vec<u8>) {}
    fn unspill(_r: &mut SpillReader<'_>) -> Result<Self, DecodeError> {
        Ok(())
    }
}

/// Writes a string as [`SpillReader::str`] reads it.
fn spill_str(s: &str, out: &mut Vec<u8>) {
    let len = checked_str_len(s.len()).unwrap_or_else(|e| too_wide(e));
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

impl HeapSize for String {
    fn heap_bytes(&self) -> usize {
        self.len()
    }
}
impl Spill for String {
    fn spill(&self, out: &mut Vec<u8>) {
        spill_str(self, out);
    }
    fn unspill(r: &mut SpillReader<'_>) -> Result<Self, DecodeError> {
        r.str().map(str::to_owned)
    }
}

impl HeapSize for Arc<str> {
    fn heap_bytes(&self) -> usize {
        self.len()
    }
}
impl Spill for Arc<str> {
    fn spill(&self, out: &mut Vec<u8>) {
        spill_str(self, out);
    }
    fn unspill(r: &mut SpillReader<'_>) -> Result<Self, DecodeError> {
        r.interned()
    }
}

impl HeapSize for &'static str {
    fn heap_bytes(&self) -> usize {
        0
    }
}

impl Spill for &'static str {
    fn spill(&self, out: &mut Vec<u8>) {
        spill_str(self, out);
    }
    fn unspill(r: &mut SpillReader<'_>) -> Result<Self, DecodeError> {
        // A borrowed string cannot be reconstituted from disk without an
        // owner, so the round trip leaks each decoded string. Acceptable:
        // `&'static str` datasets are literal-sized, and the leak only
        // materializes for records that actually spilled and were read back.
        Ok(Box::leak(r.str()?.into()))
    }
}

impl<T: HeapSize> HeapSize for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
            + self.iter().map(HeapSize::heap_bytes).sum::<usize>()
    }
}
impl<T: Spill> Spill for Vec<T> {
    fn spill(&self, out: &mut Vec<u8>) {
        (self.len() as u64).spill(out);
        for x in self {
            x.spill(out);
        }
    }
    fn unspill(r: &mut SpillReader<'_>) -> Result<Self, DecodeError> {
        // The count is untrusted and elements may be zero-width (e.g.
        // `()`): the reservation, not the count, is capped by the payload.
        let n = r.u64()? as usize;
        let mut out = Vec::with_capacity(n.min(r.remaining().max(16)));
        for _ in 0..n {
            out.push(T::unspill(r)?);
        }
        Ok(out)
    }
}

/// A shared record is charged and encoded as the copy it stands for: the
/// pointee's inline and heap bytes, and exactly `T`'s encoding, so a frame or
/// a run holding `Arc<T>` is byte-identical to one holding `T`. Sharing does
/// not survive a round trip: each decoded value is its own `Arc`.
impl<T: HeapSize> HeapSize for Arc<T> {
    fn heap_bytes(&self) -> usize {
        charged_size::<T>(self)
    }
}
impl<T: Spill> Spill for Arc<T> {
    fn spill(&self, out: &mut Vec<u8>) {
        T::spill(self, out);
    }
    fn unspill(r: &mut SpillReader<'_>) -> Result<Self, DecodeError> {
        T::unspill(r).map(Arc::new)
    }
}

impl<T: HeapSize> HeapSize for Option<T> {
    fn heap_bytes(&self) -> usize {
        self.as_ref().map_or(0, HeapSize::heap_bytes)
    }
}
impl<T: Spill> Spill for Option<T> {
    fn spill(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(x) => {
                out.push(1);
                x.spill(out);
            }
        }
    }
    fn unspill(r: &mut SpillReader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::unspill(r)?)),
            tag => Err(DecodeError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

macro_rules! spill_tuple {
    ($(($($n:tt $T:ident),+)),+ $(,)?) => {$(
        impl<$($T: HeapSize),+> HeapSize for ($($T,)+) {
            fn heap_bytes(&self) -> usize {
                0 $(+ self.$n.heap_bytes())+
            }
        }
        impl<$($T: Spill),+> Spill for ($($T,)+) {
            fn spill(&self, out: &mut Vec<u8>) {
                $(self.$n.spill(out);)+
            }
            fn unspill(r: &mut SpillReader<'_>) -> Result<Self, DecodeError> {
                Ok(($($T::unspill(r)?,)+))
            }
        }
    )+};
}

spill_tuple!(
    (0 A),
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
    (0 A, 1 B, 2 C, 3 D, 4 E),
);

/// Location of one bucket inside a run file.
#[derive(Debug, Clone, Copy)]
struct BucketMeta {
    offset: u64,
    len: u64,
    records: u64,
    checksum: u64,
}

/// Writes one map partition's buckets to a run file, bucket by bucket.
/// On any error the partially-written file is removed before the error is
/// returned, so a failed spill never leaks temp files.
pub(crate) struct RunWriter {
    file: File,
    path: PathBuf,
    buckets: Vec<BucketMeta>,
    offset: u64,
    scratch: Vec<u8>,
}

impl RunWriter {
    /// Creates (truncating) the run file at `path`.
    pub fn create(path: PathBuf) -> Result<Self, SpillError> {
        let file = File::create(&path).map_err(|e| io_err("create", &path, e))?;
        Ok(RunWriter {
            file,
            path,
            buckets: Vec::new(),
            offset: 0,
            scratch: Vec::new(),
        })
    }

    /// Encodes and appends one bucket. Buckets must be written in bucket
    /// order; record order within the bucket is preserved exactly.
    pub fn write_bucket<T: Spill>(&mut self, records: &[T]) -> Result<(), SpillError> {
        self.scratch.clear();
        for rec in records {
            rec.spill(&mut self.scratch);
        }
        let meta = BucketMeta {
            offset: self.offset,
            len: self.scratch.len() as u64,
            records: records.len() as u64,
            checksum: checksum(&self.scratch),
        };
        if let Err(e) = self.file.write_all(&self.scratch) {
            let err = io_err("write", &self.path, e);
            self.discard();
            return Err(err);
        }
        self.offset += meta.len;
        self.buckets.push(meta);
        Ok(())
    }

    /// Flushes and seals the run, returning a handle that deletes the file
    /// when dropped.
    pub fn finish(mut self) -> Result<RunHandle, SpillError> {
        if let Err(e) = self.file.flush() {
            let err = io_err("flush", &self.path, e);
            self.discard();
            return Err(err);
        }
        Ok(RunHandle {
            path: std::mem::take(&mut self.path),
            buckets: std::mem::take(&mut self.buckets),
            bytes: self.offset,
        })
    }

    /// Best-effort removal of the partial file after a failure.
    fn discard(&mut self) {
        let _ = std::fs::remove_file(&self.path);
        self.path = PathBuf::new(); // disarm: nothing left to clean up
    }
}

/// A sealed, readable run file. Dropping the handle deletes the file —
/// spilled runs are strictly transient exchange state, so both the success
/// path (exchange consumed) and the failure path (wave unwinding) converge
/// on the same RAII cleanup.
pub(crate) struct RunHandle {
    path: PathBuf,
    buckets: Vec<BucketMeta>,
    bytes: u64,
}

impl RunHandle {
    /// Total payload bytes in the file.
    pub fn file_bytes(&self) -> u64 {
        self.bytes
    }

    /// Records recorded for bucket `b` at write time.
    pub fn bucket_records(&self, b: usize) -> u64 {
        self.buckets.get(b).map_or(0, |m| m.records)
    }

    /// Reads bucket `b` back, verifying its checksum, and appends the
    /// decoded records to `out` in their original order. Each caller opens
    /// its own file handle, so concurrent reduce tasks can read one run.
    pub fn read_bucket<T: Spill>(&self, b: usize, out: &mut Vec<T>) -> Result<(), SpillError> {
        let meta = self.buckets.get(b).ok_or_else(|| {
            corrupt(format!(
                "bucket {b} out of range ({} buckets) in {}",
                self.buckets.len(),
                self.path.display()
            ))
        })?;
        let mut file = File::open(&self.path).map_err(|e| io_err("open", &self.path, e))?;
        file.seek(SeekFrom::Start(meta.offset))
            .map_err(|e| io_err("seek", &self.path, e))?;
        let mut payload = vec![0u8; meta.len as usize];
        file.read_exact(&mut payload)
            .map_err(|e| io_err("read", &self.path, e))?;
        if checksum(&payload) != meta.checksum {
            return Err(corrupt(format!(
                "checksum mismatch in bucket {b} of {}",
                self.path.display()
            )));
        }
        decode_records(&payload, meta.records, out)
            .map_err(|e| within(format_args!("bucket {b} of {}", self.path.display()), e))
    }
}

impl Drop for RunHandle {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Spill + PartialEq + std::fmt::Debug>(x: T) {
        let mut buf = Vec::new();
        x.spill(&mut buf);
        let mut r = SpillReader::new(&buf);
        assert_eq!(T::unspill(&mut r).unwrap(), x);
        assert_eq!(r.remaining(), 0, "codec must consume exactly its bytes");
    }

    #[test]
    fn width_boundaries() {
        // The checked-length helpers make the 4 GiB / 65 535 boundaries
        // testable without allocating boundary-sized payloads.
        assert_eq!(checked_str_len(0), Ok(0));
        assert_eq!(checked_str_len(u32::MAX as usize), Ok(u32::MAX));
        assert_eq!(
            checked_str_len(u32::MAX as usize + 1),
            Err(EncodeError::StringTooLarge(u32::MAX as usize + 1))
        );
        assert_eq!(checked_prop_count(u16::MAX as usize), Ok(u16::MAX));
        assert_eq!(
            checked_prop_count(u16::MAX as usize + 1),
            Err(EncodeError::TooManyProps(u16::MAX as usize + 1))
        );
        assert_eq!(checked_count(u32::MAX as usize), Ok(u32::MAX));
        assert_eq!(
            checked_count(u32::MAX as usize + 1),
            Err(EncodeError::CountTooLarge(u32::MAX as usize + 1))
        );
        assert!(EncodeError::StringTooLarge(5_000_000_000)
            .to_string()
            .contains("5000000000"));
        assert!(EncodeError::TooManyProps(70_000)
            .to_string()
            .contains("70000"));
        assert!(EncodeError::CountTooLarge(1 << 33)
            .to_string()
            .contains("u32"));
    }

    #[test]
    fn std_types_roundtrip() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(1.5f64);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(());
        roundtrip("héllo".to_string());
        roundtrip(std::sync::Arc::<str>::from("arc"));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<String>::new());
        roundtrip(Some(7u32));
        roundtrip(Option::<String>::None);
        roundtrip((1u64, "k".to_string(), vec![2i64]));
        roundtrip(vec![((), ()), ((), ())]);
    }

    /// The byte-serial definition [`checksum`] evaluates in blocks.
    fn checksum_bytewise(payload: &[u8]) -> u64 {
        let mut acc: u64 = CHECKSUM_SEED;
        for (i, b) in payload.iter().enumerate() {
            acc = acc
                .wrapping_mul(CHECKSUM_P)
                .wrapping_add(*b as u64)
                .wrapping_add(i as u64);
        }
        acc
    }

    #[test]
    fn block_checksum_equals_the_bytewise_definition() {
        let mut state: u64 = 0x2545_f491_4f6c_dd1d;
        let mut payload = Vec::new();
        for len in 0..=300usize {
            payload.clear();
            for _ in 0..len {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                payload.push((state >> 56) as u8);
            }
            assert_eq!(checksum(&payload), checksum_bytewise(&payload), "len {len}");
        }
        assert_eq!(checksum(&[0xff; 64]), checksum_bytewise(&[0xff; 64]));
    }

    #[test]
    fn a_shared_value_encodes_and_charges_as_its_copy() {
        let x = (7u64, "shared".to_string(), vec![1i64, 2]);
        let shared = std::sync::Arc::new(x.clone());
        let (mut plain, mut arc) = (Vec::new(), Vec::new());
        x.spill(&mut plain);
        shared.spill(&mut arc);
        assert_eq!(arc, plain, "an Arc writes exactly its pointee's bytes");
        assert_eq!(shared.heap_bytes(), charged_size(&x));
        roundtrip(shared);
    }

    #[test]
    fn nan_bits_roundtrip_exactly() {
        let x = f64::from_bits(0x7ff8_0000_dead_beef);
        let mut buf = Vec::new();
        x.spill(&mut buf);
        let mut r = SpillReader::new(&buf);
        assert_eq!(f64::unspill(&mut r).unwrap().to_bits(), x.to_bits());
    }

    #[test]
    fn truncated_payload_errors() {
        let mut buf = Vec::new();
        "hello".to_string().spill(&mut buf);
        assert_eq!(buf.len(), 4 + 5, "a u32 length prefix and the bytes");
        buf.truncate(buf.len() - 2);
        let mut r = SpillReader::new(&buf);
        assert_eq!(String::unspill(&mut r), Err(DecodeError::UnexpectedEof));
        let mut r = SpillReader::new(&[0xff, 0xfe]);
        assert_eq!(
            bool::unspill(&mut r),
            Err(DecodeError::BadTag {
                what: "bool",
                tag: 0xff
            })
        );
        let mut r = SpillReader::new(&[1, 0, 0, 0, 0xff]);
        assert_eq!(String::unspill(&mut r), Err(DecodeError::InvalidUtf8));
    }

    #[test]
    fn a_payload_interns_each_distinct_string_once() {
        let words: Vec<Arc<str>> = ["type", "person", "type", "", "person"]
            .into_iter()
            .map(Arc::from)
            .collect();
        let mut buf = Vec::new();
        words.iter().for_each(|w| w.spill(&mut buf));
        let mut r = SpillReader::new(&buf);
        let back: Vec<Arc<str>> = (0..words.len())
            .map(|_| Arc::<str>::unspill(&mut r).unwrap())
            .collect();
        assert_eq!(back, words);
        assert!(Arc::ptr_eq(&back[0], &back[2]));
        assert!(Arc::ptr_eq(&back[1], &back[4]));
        assert!(!Arc::ptr_eq(&back[0], &back[1]));
        // A second payload interns afresh: nothing outlives its reader.
        let again = Arc::<str>::unspill(&mut SpillReader::new(&buf)).unwrap();
        assert!(!Arc::ptr_eq(&again, &back[0]));
    }

    #[test]
    fn a_value_whose_bytes_repeat_the_last_one_read_is_that_value() {
        let decode = |r: &mut SpillReader<'_>| r.repeated(|r| Ok(Arc::new(r.u64()?)));
        let mut buf = Vec::new();
        for x in [7u64, 7, 9, 7] {
            x.spill(&mut buf);
        }
        let mut r = SpillReader::new(&buf);
        let back: Vec<Arc<u64>> = (0..4).map(|_| decode(&mut r).unwrap()).collect();
        assert_eq!(r.remaining(), 0);
        assert_eq!(back.iter().map(|x| **x).collect::<Vec<_>>(), [7, 7, 9, 7]);
        assert!(Arc::ptr_eq(&back[0], &back[1]), "a repeat is a clone");
        assert!(!Arc::ptr_eq(&back[1], &back[3]), "only of the last value");
        // A value of another type is never handed out for the same bytes.
        let mut r = SpillReader::new(&buf);
        decode(&mut r).unwrap();
        assert_eq!(r.repeated(|r| r.u64().map(|x| x as i64)), Ok(7i64));
    }

    #[test]
    fn checksum_detects_a_flipped_byte() {
        let a = checksum(b"hello world");
        assert_ne!(a, checksum(b"hellp world"));
        assert_eq!(a, checksum(b"hello world"));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = Vec::new();
        (u64::MAX).spill(&mut buf); // absurd element count
        let mut r = SpillReader::new(&buf);
        assert!(Vec::<u64>::unspill(&mut r).is_err());
    }

    #[test]
    fn decode_records_roundtrips_and_rejects_a_lying_count() {
        let rows: Vec<(u64, String)> = vec![(1, "a".into()), (2, "bc".into())];
        let mut payload = Vec::new();
        rows.iter().for_each(|r| r.spill(&mut payload));
        let decode = |records| {
            let mut out: Vec<(u64, String)> = Vec::new();
            decode_records(&payload, records, &mut out).map(|()| out)
        };
        assert_eq!(decode(2).unwrap(), rows);
        assert!(matches!(decode(3), Err(SpillError::Corrupt { .. })));
        let err = decode(1).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn heap_bytes_counts_owned_payloads() {
        assert_eq!(7u64.heap_bytes(), 0);
        assert_eq!("abcd".to_string().heap_bytes(), 4);
        let v = vec!["ab".to_string()];
        assert!(v.heap_bytes() >= std::mem::size_of::<String>() + 2);
        assert!(charged_size(&v) > v.heap_bytes());
    }

    #[test]
    fn run_file_roundtrips_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("tgraph-spill-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run-roundtrip.tgr");
        let b0: Vec<(u64, String)> = vec![(1, "a".into()), (2, "bb".into())];
        let b1: Vec<(u64, String)> = vec![];
        let b2: Vec<(u64, String)> = vec![(9, "zzz".into())];
        let mut w = RunWriter::create(path.clone()).unwrap();
        w.write_bucket(&b0).unwrap();
        w.write_bucket(&b1).unwrap();
        w.write_bucket(&b2).unwrap();
        let run = w.finish().unwrap();
        assert!(path.exists());
        assert!(run.file_bytes() > 0);
        assert_eq!(run.bucket_records(0), 2);
        let mut got: Vec<(u64, String)> = Vec::new();
        run.read_bucket(0, &mut got).unwrap();
        run.read_bucket(1, &mut got).unwrap();
        run.read_bucket(2, &mut got).unwrap();
        let mut expected = b0.clone();
        expected.extend(b2.clone());
        assert_eq!(got, expected);
        drop(run);
        assert!(!path.exists(), "dropping the handle must delete the run");
    }

    #[test]
    fn corrupted_run_is_detected() {
        let dir = std::env::temp_dir().join(format!("tgraph-spill-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run-corrupt.tgr");
        let mut w = RunWriter::create(path.clone()).unwrap();
        w.write_bucket(&[(1u64, 2u64), (3, 4)]).unwrap();
        let run = w.finish().unwrap();
        // Flip a payload byte behind the handle's back.
        let mut raw = std::fs::read(&path).unwrap();
        raw[0] ^= 0xff;
        std::fs::write(&path, &raw).unwrap();
        let mut out: Vec<(u64, u64)> = Vec::new();
        let err = run.read_bucket(0, &mut out).unwrap_err();
        assert!(matches!(err, SpillError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn failed_create_reports_typed_io_error() {
        // A run path whose parent is a regular file cannot be created — this
        // fails for any uid (unlike chmod tricks, which root ignores).
        let dir = std::env::temp_dir().join(format!("tgraph-spill-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("not-a-dir");
        std::fs::write(&blocker, b"x").unwrap();
        let err = RunWriter::create(blocker.join("run.tgr"))
            .err()
            .expect("creating a run under a file path must fail");
        assert!(matches!(err, SpillError::Io { op: "create", .. }), "{err}");
    }
}
