//! Binary row encoding for the `.tgc` and `.tgo` formats, on nothing but the
//! standard library (the format is small enough to specify exactly).
//!
//! All integers are little-endian fixed width. Strings are UTF-8 with a
//! `u32` byte-length prefix. A property set is a `u16` pair count followed by
//! `(key, tagged value)` pairs in key order.
//!
//! Encoding appends to a `Vec<u8>`. Decoding reads from the front of a
//! `&mut &[u8]` through `get` (fixed width) and `take` (a length read from
//! the buffer), so a buffer that ends early is
//! [`DecodeError::UnexpectedEof`] by construction: there is no bounds guard
//! to remember at a decode site.

use std::collections::HashMap;
use std::sync::Arc;
use tgraph_core::props::{Props, Value};
use tgraph_core::time::Interval;

/// Errors raised while decoding a `.tgc` payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the announced payload.
    UnexpectedEof,
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// An unknown value-type tag was encountered.
    BadValueTag(u8),
    /// File magic or version did not match.
    BadMagic,
    /// A chunk checksum did not match its payload.
    ChecksumMismatch,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "unexpected end of buffer"),
            DecodeError::InvalidUtf8 => write!(f, "invalid UTF-8 in string field"),
            DecodeError::BadValueTag(t) => write!(f, "unknown value tag {t}"),
            DecodeError::BadMagic => write!(f, "bad file magic / version"),
            DecodeError::ChecksumMismatch => write!(f, "chunk checksum mismatch"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Errors raised while *encoding* rows into a `.tgc` payload: a field does
/// not fit its fixed-width length or count prefix. A bare `as` cast here
/// once silently truncated the prefix, producing a payload whose declared
/// sizes disagreed with its contents — the same corruption class
/// `StorageError::ChunkTooLarge` closed for chunk lengths. The writer now
/// refuses at encode time instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// A string's byte length exceeded the format's `u32` length prefix.
    /// Carries the offending length.
    StringTooLarge(usize),
    /// A property set's pair count exceeded the format's `u16` count field.
    /// Carries the offending count.
    TooManyProps(usize),
    /// A row or chunk count exceeded a `u32` count field. Carries the
    /// offending count.
    CountTooLarge(usize),
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::StringTooLarge(len) => write!(
                f,
                "string of {len} bytes exceeds the format's u32 length prefix"
            ),
            EncodeError::TooManyProps(n) => write!(
                f,
                "property set of {n} pairs exceeds the format's u16 count field"
            ),
            EncodeError::CountTooLarge(n) => {
                write!(f, "{n} items exceed the format's u32 count field")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Splits the next `n` bytes off the front of `buf`.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], DecodeError> {
    let (head, rest) = buf.split_at_checked(n).ok_or(DecodeError::UnexpectedEof)?;
    *buf = rest;
    Ok(head)
}

/// Reads a little-endian fixed-width value off the front of `buf`, as in
/// `get(buf, u64::from_le_bytes)`.
pub(crate) fn get<const N: usize, T>(
    buf: &mut &[u8],
    from_le_bytes: fn([u8; N]) -> T,
) -> Result<T, DecodeError> {
    let (head, rest) = buf.split_first_chunk().ok_or(DecodeError::UnexpectedEof)?;
    *buf = rest;
    Ok(from_le_bytes(*head))
}

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

/// Validates a row/chunk count against a `u32` count field.
pub fn checked_count(n: usize) -> Result<u32, EncodeError> {
    u32::try_from(n).map_err(|_| EncodeError::CountTooLarge(n))
}

/// Writes a length-prefixed UTF-8 string, refusing strings whose length
/// does not fit the prefix.
pub fn put_str(buf: &mut Vec<u8>, s: &str) -> Result<(), EncodeError> {
    buf.extend_from_slice(&checked_str_len(s.len())?.to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Writes a tagged property value.
pub fn put_value(buf: &mut Vec<u8>, v: &Value) -> Result<(), EncodeError> {
    match v {
        Value::Bool(b) => buf.extend_from_slice(&[0, *b as u8]),
        Value::Int(i) => {
            buf.push(1);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            buf.push(2);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(3);
            put_str(buf, s)?;
        }
    }
    Ok(())
}

/// Writes a property set, refusing sets whose pair count does not fit the
/// `u16` count field.
pub fn put_props(buf: &mut Vec<u8>, props: &Props) -> Result<(), EncodeError> {
    buf.extend_from_slice(&checked_prop_count(props.len())?.to_le_bytes());
    for (k, v) in props.iter() {
        put_str(buf, k)?;
        put_value(buf, v)?;
    }
    Ok(())
}

/// Reads the property sets of one chunk payload.
///
/// Rows of a chunk repeat themselves: the same few labels on every row, the
/// same type and group strings on most, and — sorted by entity — often the
/// very same property set as the row before. Each distinct string is
/// therefore validated and allocated once per chunk and shared from then on,
/// and a row whose encoded bytes equal the previous row's gets its `Props`
/// back as a reference-count bump. The bytes on disk are what they were.
#[derive(Default)]
pub struct PropsDecoder<'a> {
    /// Every distinct string of the chunk so far, by its encoded bytes.
    strings: HashMap<&'a [u8], Arc<str>>,
    /// The previous row's encoded property set and what it decoded to.
    last: Option<(&'a [u8], Props)>,
}

impl<'a> PropsDecoder<'a> {
    /// Reads a length-prefixed UTF-8 string.
    fn get_str(&mut self, buf: &mut &'a [u8]) -> Result<Arc<str>, DecodeError> {
        let len = get(buf, u32::from_le_bytes)? as usize;
        let raw = take(buf, len)?;
        if let Some(s) = self.strings.get(raw) {
            return Ok(Arc::clone(s));
        }
        let s: Arc<str> = std::str::from_utf8(raw)
            .map_err(|_| DecodeError::InvalidUtf8)?
            .into();
        self.strings.insert(raw, Arc::clone(&s));
        Ok(s)
    }

    /// Reads a tagged property value.
    pub fn get_value(&mut self, buf: &mut &'a [u8]) -> Result<Value, DecodeError> {
        match get(buf, u8::from_le_bytes)? {
            0 => Ok(Value::Bool(get(buf, u8::from_le_bytes)? != 0)),
            1 => Ok(Value::Int(get(buf, i64::from_le_bytes)?)),
            2 => Ok(Value::Float(get(buf, f64::from_le_bytes)?)),
            3 => Ok(Value::Str(self.get_str(buf)?)),
            t => Err(DecodeError::BadValueTag(t)),
        }
    }

    /// Reads a property set.
    pub fn get_props(&mut self, buf: &mut &'a [u8]) -> Result<Props, DecodeError> {
        // A property set's encoding delimits itself, so a buffer that starts
        // with the previous row's bytes decodes to the previous row's set.
        if let Some((raw, props)) = &self.last {
            if buf.starts_with(raw) {
                *buf = &buf[raw.len()..];
                return Ok(props.clone());
            }
        }
        let start = *buf;
        let n = get(buf, u16::from_le_bytes)? as usize;
        // A pair takes at least six bytes: the count cannot reserve more
        // than the payload could hold.
        let mut pairs = Vec::with_capacity(n.min(buf.len() / 6));
        for _ in 0..n {
            let k = self.get_str(buf)?;
            let v = self.get_value(buf)?;
            pairs.push((k, v));
        }
        let props = Props::from_pairs(pairs);
        self.last = Some((&start[..start.len() - buf.len()], props.clone()));
        Ok(props)
    }
}

/// Writes an interval as two fixed i64 columns (the "UNIX timestamp as long"
/// convention of §4, which is what makes min/max pushdown possible).
pub fn put_interval(buf: &mut Vec<u8>, iv: &Interval) {
    buf.extend_from_slice(&iv.start.to_le_bytes());
    buf.extend_from_slice(&iv.end.to_le_bytes());
}

/// Reads an interval. One that ends before it starts is not something any
/// writer produced (and `Interval::new` would panic on it): the file is
/// reported as not being in this format.
pub fn get_interval(buf: &mut &[u8]) -> Result<Interval, DecodeError> {
    let start = get(buf, i64::from_le_bytes)?;
    let end = get(buf, i64::from_le_bytes)?;
    if start > end {
        return Err(DecodeError::BadMagic);
    }
    Ok(Interval::new(start, end))
}

/// A cheap additive checksum (64-bit multiply-add fold with position mixing)
/// used to detect torn chunk writes. The algorithm is shared with the
/// dataflow engine's spill-run format — one checksum, one implementation —
/// so it is re-exported from there.
pub use tgraph_dataflow::checksum;

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_props(p: &Props) -> Props {
        let mut buf = Vec::new();
        put_props(&mut buf, p).unwrap();
        PropsDecoder::default().get_props(&mut &buf[..]).unwrap()
    }

    #[test]
    fn props_roundtrip() {
        let p = Props::typed("person")
            .with("name", "Ann")
            .with("edits", 42i64)
            .with("score", 1.5f64)
            .with("active", true);
        assert_eq!(roundtrip_props(&p), p);
    }

    #[test]
    fn repeated_rows_and_strings_share_their_allocations() {
        let ann = Props::typed("person").with("name", "Ann");
        let bob = Props::typed("person").with("name", "Bob");
        let mut buf = Vec::new();
        for p in [&ann, &ann, &bob, &ann] {
            put_props(&mut buf, p).unwrap();
        }
        let mut rest = &buf[..];
        let mut decoder = PropsDecoder::default();
        let rows: Vec<Props> = (0..4)
            .map(|_| decoder.get_props(&mut rest).unwrap())
            .collect();
        assert!(rest.is_empty());
        assert_eq!(rows, [ann.clone(), ann.clone(), bob, ann]);
        let key_of = |p: &Props, k: &str| p.iter().find(|(key, _)| &***key == k).unwrap().0.clone();
        // Same label, different rows: one allocation.
        assert!(Arc::ptr_eq(
            &key_of(&rows[0], "name"),
            &key_of(&rows[2], "name")
        ));
        let type_of = |p: &Props| match p.get("type") {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("type label missing: {other:?}"),
        };
        assert!(Arc::ptr_eq(&type_of(&rows[0]), &type_of(&rows[3])));
    }

    #[test]
    fn empty_props_roundtrip() {
        assert_eq!(roundtrip_props(&Props::new()), Props::new());
    }

    #[test]
    fn value_variants_roundtrip() {
        for v in [
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Float(f64::NAN),
            Value::Str("héllo".into()),
        ] {
            let mut buf = Vec::new();
            put_value(&mut buf, &v).unwrap();
            assert_eq!(PropsDecoder::default().get_value(&mut &buf[..]).unwrap(), v);
        }
    }

    #[test]
    fn interval_roundtrip() {
        let mut buf = Vec::new();
        put_interval(&mut buf, &Interval::new(-5, 99));
        assert_eq!(get_interval(&mut &buf[..]).unwrap(), Interval::new(-5, 99));
    }

    #[test]
    fn truncated_buffer_errors() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hello").unwrap();
        let mut truncated = &buf[..buf.len() - 2];
        assert_eq!(
            PropsDecoder::default().get_str(&mut truncated),
            Err(DecodeError::UnexpectedEof)
        );
    }

    #[test]
    fn string_length_boundary() {
        // The checked-length helpers make the 4 GiB / 65 535 boundaries
        // testable without allocating boundary-sized payloads.
        assert_eq!(checked_str_len(0), Ok(0));
        assert_eq!(checked_str_len(u32::MAX as usize), Ok(u32::MAX));
        assert_eq!(
            checked_str_len(u32::MAX as usize + 1),
            Err(EncodeError::StringTooLarge(u32::MAX as usize + 1))
        );
    }

    #[test]
    fn prop_count_boundary() {
        assert_eq!(checked_prop_count(u16::MAX as usize), Ok(u16::MAX));
        assert_eq!(
            checked_prop_count(u16::MAX as usize + 1),
            Err(EncodeError::TooManyProps(u16::MAX as usize + 1))
        );
    }

    #[test]
    fn count_boundary() {
        assert_eq!(checked_count(u32::MAX as usize), Ok(u32::MAX));
        assert_eq!(
            checked_count(u32::MAX as usize + 1),
            Err(EncodeError::CountTooLarge(u32::MAX as usize + 1))
        );
    }

    #[test]
    fn encode_error_messages_carry_sizes() {
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
    fn checksum_matches_dataflow_spill_checksum() {
        // One algorithm shared by .tgc chunks and spill runs: the re-export
        // must be the dataflow implementation, bit for bit.
        assert_eq!(
            checksum(b"zooming out"),
            tgraph_dataflow::checksum(b"zooming out")
        );
    }

    #[test]
    fn bad_tag_errors() {
        assert_eq!(
            PropsDecoder::default().get_value(&mut &[9u8][..]),
            Err(DecodeError::BadValueTag(9))
        );
    }

    #[test]
    fn checksum_detects_flip() {
        let a = checksum(b"hello world");
        let b = checksum(b"hellp world");
        assert_ne!(a, b);
        assert_eq!(a, checksum(b"hello world"));
    }
}
