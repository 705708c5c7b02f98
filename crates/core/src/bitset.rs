//! Fixed-width bitsets used by the OGC (One Graph Columnar) representation
//! to encode the presence of a vertex or edge in each elementary interval
//! of the graph's splitter (§3, Figure 7).

use std::fmt;

/// A fixed-length bitset over `len` positions, packed into 64-bit words.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bitset {
    words: Vec<u64>,
    len: usize,
}

impl Bitset {
    /// Creates an all-zero bitset over `len` positions.
    pub fn new(len: usize) -> Self {
        Bitset {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitset has zero positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets position `i` to one.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears position `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Reads position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// The packed 64-bit words, for serialization.
    pub(crate) fn raw_words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a bitset from its packed words and length.
    ///
    /// # Panics
    /// Panics if `words.len()` disagrees with `len` or tail bits beyond
    /// `len` are set (the invariants every constructor maintains).
    pub(crate) fn from_raw(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "bitset word count mismatch");
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last() {
                assert_eq!(
                    last & !((1u64 << (len % 64)) - 1),
                    0,
                    "bitset tail bits beyond len are set"
                );
            }
        }
        Bitset { words, len }
    }

    /// Whether no position is set.
    pub fn none(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// In-place logical AND with `other`. This is how OGC removes dangling
    /// edges: `edge.bits &= src.bits & dst.bits` (§3.2).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn and_with(&mut self, other: &Bitset) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }

    /// Returns `self & other` as a new bitset.
    pub fn and(&self, other: &Bitset) -> Bitset {
        let mut out = self.clone();
        out.and_with(other);
        out
    }

    /// Iterates over the indices of set positions in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, w)| {
            let mut w = *w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }

    /// Builds a bitset from the indices in `ones`.
    pub fn from_ones(len: usize, ones: impl IntoIterator<Item = usize>) -> Self {
        let mut b = Bitset::new(len);
        for i in ones {
            b.set(i);
        }
        b
    }
}

impl fmt::Debug for Bitset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for i in 0..self.len {
            write!(f, "{}", self.get(i) as u8)?;
            if i + 1 < self.len {
                write!(f, ", ")?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut b = Bitset::new(130);
        assert!(!b.get(0) && !b.get(129));
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), [0, 129]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut b = Bitset::new(10);
        b.set(10);
    }

    #[test]
    fn and_intersects() {
        let a = Bitset::from_ones(8, [0, 2, 4]);
        let b = Bitset::from_ones(8, [2, 3, 4]);
        assert_eq!(a.and(&b), Bitset::from_ones(8, [2, 4]));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_length_mismatch_panics() {
        let mut a = Bitset::new(8);
        a.and_with(&Bitset::new(9));
    }

    #[test]
    fn iter_ones_crosses_word_boundaries() {
        let ones = [0usize, 1, 63, 64, 65, 127, 128];
        let b = Bitset::from_ones(130, ones);
        let got: Vec<usize> = b.iter_ones().collect();
        assert_eq!(got, ones);
    }

    #[test]
    fn none_and_empty() {
        let b = Bitset::new(70);
        assert!(b.none());
        assert!(!b.is_empty());
        assert!(Bitset::new(0).is_empty());
        let c = Bitset::from_ones(70, [69]);
        assert!(!c.none());
    }

    #[test]
    fn figure7_example() {
        // Splitter T = {[1,2), [2,7), [7,9)}; Ann=[1,1,0], Bob=[0,1,1], Cat=[1,1,1]
        let ann = Bitset::from_ones(3, [0, 1]);
        let bob = Bitset::from_ones(3, [1, 2]);
        let e1 = Bitset::from_ones(3, [1]); // valid [2,7)
                                            // Dangling-edge removal: e1 & ann & bob keeps bit 1 only.
        let mut e = e1.clone();
        e.and_with(&ann);
        e.and_with(&bob);
        assert_eq!(e, e1);
    }

    #[test]
    fn debug_format() {
        let b = Bitset::from_ones(3, [0, 2]);
        assert_eq!(format!("{b:?}"), "[1, 0, 1]");
    }
}
