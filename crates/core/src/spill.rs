//! The record codec: [`Spill`] impls for the core domain types, and the
//! widths they are written in.
//!
//! One codec serves every place a record becomes bytes: the dataflow
//! engine's governed shuffles and spill runs, serialized shuffles, and the
//! rows of `tgraph-storage`'s `.tgc` files, whose bytes
//! `tests/storage_golden.rs` pins. Ids and interval bounds are 8
//! little-endian bytes, a property value is a one-byte tag and its payload,
//! a string is a `u32` byte length and its UTF-8 bytes, and a property set
//! is a `u16` pair count and its `(key, value)` pairs in key order.
//!
//! The codecs are exact: `unspill(spill(x)) == x` bit-for-bit, matching the
//! governor's byte-identical-results contract. A value wider than its
//! length prefix cannot be written. The widths are checked where the
//! string codec and the reader live, in `tgraph_dataflow::spill`
//! ([`EncodeError`] and its `checked_*` helpers); [`check_props`] applies
//! them to a whole property set, so ingest validation and the file writer
//! refuse such a record with an [`EncodeError`], and [`Spill::spill`],
//! which cannot return an error, raises the engine's typed `SpillError`
//! panic.

use crate::bitset::Bitset;
use crate::graph::{EdgeId, EdgeRecord, VertexId, VertexRecord};
use crate::props::{Props, Value};
use crate::time::Interval;
use tgraph_dataflow::{
    checked_prop_count, checked_str_len, too_wide, DecodeError, EncodeError, HeapSize, Spill,
    SpillReader,
};

/// The codec's width check: `props` has at most `u16::MAX` pairs, and no
/// key or string value is longer than `u32::MAX` bytes.
pub fn check_props(props: &Props) -> Result<u16, EncodeError> {
    for (k, v) in props.iter() {
        checked_str_len(k.len())?;
        if let Value::Str(s) = v {
            checked_str_len(s.len())?;
        }
    }
    checked_prop_count(props.len())
}

impl HeapSize for VertexId {}
impl Spill for VertexId {
    #[inline]
    fn spill(&self, out: &mut Vec<u8>) {
        self.0.spill(out);
    }
    #[inline]
    fn unspill(r: &mut SpillReader<'_>) -> Result<Self, DecodeError> {
        r.u64().map(VertexId)
    }
}

impl HeapSize for EdgeId {}
impl Spill for EdgeId {
    #[inline]
    fn spill(&self, out: &mut Vec<u8>) {
        self.0.spill(out);
    }
    #[inline]
    fn unspill(r: &mut SpillReader<'_>) -> Result<Self, DecodeError> {
        r.u64().map(EdgeId)
    }
}

impl HeapSize for Interval {}
impl Spill for Interval {
    #[inline]
    fn spill(&self, out: &mut Vec<u8>) {
        self.start.spill(out);
        self.end.spill(out);
    }
    /// An interval that ends before it starts is nothing a writer produced
    /// (and `Interval::new` would panic on it): the bytes are reported as
    /// not being in this format.
    #[inline]
    fn unspill(r: &mut SpillReader<'_>) -> Result<Self, DecodeError> {
        let start = r.i64()?;
        let end = r.i64()?;
        if start > end {
            return Err(DecodeError::BadMagic);
        }
        Ok(Interval { start, end })
    }
}

impl HeapSize for Value {
    fn heap_bytes(&self) -> usize {
        match self {
            Value::Str(s) => s.len(),
            _ => 0,
        }
    }
}

impl Spill for Value {
    #[inline]
    fn spill(&self, out: &mut Vec<u8>) {
        match self {
            Value::Bool(b) => {
                out.push(0);
                b.spill(out);
            }
            Value::Int(v) => {
                out.push(1);
                v.spill(out);
            }
            Value::Float(v) => {
                out.push(2);
                v.spill(out);
            }
            Value::Str(s) => {
                out.push(3);
                s.spill(out);
            }
        }
    }
    #[inline]
    fn unspill(r: &mut SpillReader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(Value::Bool(bool::unspill(r)?)),
            1 => Ok(Value::Int(r.i64()?)),
            2 => Ok(Value::Float(f64::unspill(r)?)),
            3 => Ok(Value::Str(r.interned()?)),
            tag => Err(DecodeError::BadTag { what: "value", tag }),
        }
    }
}

impl HeapSize for Props {
    fn heap_bytes(&self) -> usize {
        // The Arc'd pair slice plus each string payload. Shared Arcs are
        // counted once per holder — the charge model is an estimate of
        // residency, not an ownership proof.
        self.iter()
            .map(|(k, v)| {
                std::mem::size_of::<(crate::props::Key, Value)>() + k.len() + v.heap_bytes()
            })
            .sum()
    }
}

impl Spill for Props {
    fn spill(&self, out: &mut Vec<u8>) {
        // Each key and string value checks its own length as it is written.
        let n = checked_prop_count(self.len()).unwrap_or_else(|e| too_wide(e));
        out.extend_from_slice(&n.to_le_bytes());
        for (k, v) in self.iter() {
            k.spill(out);
            v.spill(out);
        }
    }
    /// A set whose bytes repeat the previous set's in the same payload comes
    /// back as a clone of it, and its strings are the payload's interned
    /// ones.
    fn unspill(r: &mut SpillReader<'_>) -> Result<Self, DecodeError> {
        r.repeated(|r| {
            let n = r.u16()? as usize;
            // A pair takes at least six bytes (a key length and a value
            // tag): the count cannot reserve more than the payload holds.
            let mut pairs = Vec::with_capacity(n.min(r.remaining() / 6));
            for _ in 0..n {
                let k = r.interned()?;
                let v = Value::unspill(r)?;
                pairs.push((k, v));
            }
            // `from_pairs` re-sorts and dedups; encoded sets are already
            // sorted and unique, so this is an identity rebuild.
            Ok(Props::from_pairs(pairs))
        })
    }
}

impl HeapSize for VertexRecord {
    fn heap_bytes(&self) -> usize {
        self.props.heap_bytes()
    }
}

impl Spill for VertexRecord {
    fn spill(&self, out: &mut Vec<u8>) {
        self.vid.spill(out);
        self.interval.spill(out);
        self.props.spill(out);
    }
    #[inline]
    fn unspill(r: &mut SpillReader<'_>) -> Result<Self, DecodeError> {
        Ok(VertexRecord {
            vid: VertexId::unspill(r)?,
            interval: Interval::unspill(r)?,
            props: Props::unspill(r)?,
        })
    }
}

impl HeapSize for EdgeRecord {
    fn heap_bytes(&self) -> usize {
        self.props.heap_bytes()
    }
}

impl Spill for EdgeRecord {
    fn spill(&self, out: &mut Vec<u8>) {
        self.eid.spill(out);
        self.src.spill(out);
        self.dst.spill(out);
        self.interval.spill(out);
        self.props.spill(out);
    }
    #[inline]
    fn unspill(r: &mut SpillReader<'_>) -> Result<Self, DecodeError> {
        Ok(EdgeRecord {
            eid: EdgeId::unspill(r)?,
            src: VertexId::unspill(r)?,
            dst: VertexId::unspill(r)?,
            interval: Interval::unspill(r)?,
            props: Props::unspill(r)?,
        })
    }
}

impl HeapSize for Bitset {
    fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self.raw_words())
    }
}

impl Spill for Bitset {
    fn spill(&self, out: &mut Vec<u8>) {
        (self.len() as u64).spill(out);
        for w in self.raw_words() {
            w.spill(out);
        }
    }
    fn unspill(r: &mut SpillReader<'_>) -> Result<Self, DecodeError> {
        let len = r.u64()? as usize;
        let n_words = len.div_ceil(64);
        if r.remaining() < n_words.saturating_mul(8) {
            return Err(DecodeError::UnexpectedEof);
        }
        let mut words = Vec::with_capacity(n_words);
        for _ in 0..n_words {
            words.push(r.u64()?);
        }
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last() {
                if last & !((1u64 << (len % 64)) - 1) != 0 {
                    return Err(DecodeError::BitsPastLength);
                }
            }
        }
        Ok(Bitset::from_raw(words, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn roundtrip<T: Spill + PartialEq + std::fmt::Debug>(x: &T) {
        let mut buf = Vec::new();
        x.spill(&mut buf);
        let mut r = SpillReader::new(&buf);
        let back = T::unspill(&mut r).expect("decode");
        assert_eq!(&back, x);
        assert_eq!(r.remaining(), 0, "codec must consume exactly its bytes");
    }

    #[test]
    fn ids_and_intervals_roundtrip() {
        roundtrip(&VertexId(0));
        roundtrip(&VertexId(u64::MAX));
        roundtrip(&EdgeId(42));
        roundtrip(&Interval::new(3, 9));
        roundtrip(&Interval::empty());
    }

    #[test]
    fn bad_interval_is_rejected() {
        let mut buf = Vec::new();
        9i64.spill(&mut buf);
        3i64.spill(&mut buf);
        let err = Interval::unspill(&mut SpillReader::new(&buf)).unwrap_err();
        assert_eq!(err, DecodeError::BadMagic);
    }

    #[test]
    fn values_roundtrip_including_nan() {
        roundtrip(&Value::Bool(true));
        roundtrip(&Value::Int(-7));
        roundtrip(&Value::Float(f64::NAN)); // bit-pattern equality
        roundtrip(&Value::Float(-0.0));
        roundtrip(&Value::Str("héllo".into()));
    }

    #[test]
    fn props_and_records_roundtrip() {
        let props = Props::from_pairs::<&str, Value>([
            ("type", "person".into()),
            ("age", 30i64.into()),
            ("score", 2.5f64.into()),
        ]);
        roundtrip(&props);
        roundtrip(&Props::new());
        roundtrip(&VertexRecord::new(7, Interval::new(0, 10), props.clone()));
        roundtrip(&EdgeRecord::new(1, 2, 3, Interval::new(5, 6), props));
    }

    #[test]
    fn bitsets_roundtrip() {
        roundtrip(&Bitset::new(0));
        let mut b = Bitset::new(130);
        b.set(0);
        b.set(64);
        b.set(129);
        roundtrip(&b);
    }

    #[test]
    fn bitset_tail_bits_are_rejected() {
        let mut buf = Vec::new();
        3u64.spill(&mut buf); // 3 bits -> 1 word, only low 3 bits may be set
        0xFFu64.spill(&mut buf);
        let err = Bitset::unspill(&mut SpillReader::new(&buf)).unwrap_err();
        assert_eq!(err, DecodeError::BitsPastLength);
    }

    #[test]
    fn value_tags_and_bool_bytes_no_writer_produces_are_typed_errors() {
        let decode = |bytes: &[u8]| Value::unspill(&mut SpillReader::new(bytes));
        assert_eq!(
            decode(&[9]),
            Err(DecodeError::BadTag {
                what: "value",
                tag: 9
            })
        );
        assert_eq!(decode(&[0, 1]), Ok(Value::Bool(true)));
        assert_eq!(
            decode(&[0, 2]),
            Err(DecodeError::BadTag {
                what: "bool",
                tag: 2
            })
        );
        assert_eq!(
            decode(&[3, 5, 0, 0, 0, b'a']),
            Err(DecodeError::UnexpectedEof)
        );
    }

    #[test]
    fn a_string_and_a_pair_count_take_four_and_two_bytes() {
        let mut buf = Vec::new();
        Props::typed("person").spill(&mut buf);
        // count, key length, "type", value tag, value length, "person"
        assert_eq!(buf.len(), 2 + 4 + 4 + 1 + 4 + 6);
        assert_eq!(&buf[..6], &[1, 0, 4, 0, 0, 0]);
    }

    #[test]
    fn repeated_sets_and_strings_share_their_allocations() {
        let ann = Props::typed("person").with("name", "Ann");
        let bob = Props::typed("person").with("name", "Bob");
        let mut buf = Vec::new();
        for p in [&ann, &ann, &bob, &ann] {
            p.spill(&mut buf);
        }
        let mut r = SpillReader::new(&buf);
        let rows: Vec<Props> = (0..4).map(|_| Props::unspill(&mut r).unwrap()).collect();
        assert_eq!(r.remaining(), 0);
        assert_eq!(rows, [ann.clone(), ann.clone(), bob, ann]);
        let pairs = |p: &Props| p.iter().next().map(|(k, _)| std::ptr::from_ref(k));
        // A set whose bytes repeat the previous one's is that set, cloned.
        assert_eq!(pairs(&rows[0]), pairs(&rows[1]));
        assert_ne!(pairs(&rows[2]), pairs(&rows[3]));
        let key_of = |p: &Props, k: &str| p.iter().find(|(key, _)| &***key == k).unwrap().0.clone();
        // Same label, different sets: one allocation.
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
    fn check_props_boundary() {
        let wide = |n: usize| Props::from_pairs((0..n).map(|i| (format!("k{i}"), 0i64)));
        assert_eq!(check_props(&wide(u16::MAX as usize)), Ok(u16::MAX));
        assert_eq!(
            check_props(&wide(u16::MAX as usize + 1)),
            Err(EncodeError::TooManyProps(u16::MAX as usize + 1))
        );
    }

    #[test]
    fn a_set_too_wide_to_encode_panics_typed_instead_of_truncating() {
        let wide = Props::from_pairs((0..=u16::MAX as usize).map(|i| (format!("k{i}"), 0i64)));
        let payload = std::panic::catch_unwind(|| wide.spill(&mut Vec::new()))
            .expect_err("an oversize set must not encode");
        match payload.downcast_ref::<tgraph_dataflow::SpillError>() {
            Some(tgraph_dataflow::SpillError::Corrupt { detail }) => {
                assert!(detail.contains("65536"), "{detail}")
            }
            other => panic!("expected a typed spill error, got {other:?}"),
        }
    }

    #[test]
    fn heap_bytes_follow_payloads() {
        assert_eq!(VertexId(1).heap_bytes(), 0);
        let p = Props::typed("person");
        assert!(p.heap_bytes() > 0);
        let v = VertexRecord::new(1, Interval::new(0, 1), p.clone());
        assert_eq!(v.heap_bytes(), p.heap_bytes());
    }
}
