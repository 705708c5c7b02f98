//! The discrete, linearly ordered time domain `Ω^T` and closed-open intervals.
//!
//! Following the paper (§2.1) and the SQL:2011 standard, temporally adjacent
//! time points are represented by closed-open intervals `[start, end)`. An
//! interval is purely a syntactic device over a set of discrete consecutive
//! time points; all operator semantics are defined point-wise.

use std::fmt;

/// A discrete time point drawn from the linearly ordered domain `Ω^T`.
///
/// The unit is dataset-defined (e.g. months for WikiTalk/SNB, years for
/// NGrams). Storage encodes time points as 64-bit integers, mirroring the
/// paper's use of UNIX timestamps stored as `long` for Parquet pushdown.
pub type Time = i64;

/// A closed-open interval `[start, end)` over the discrete time domain.
///
/// Invariant: `start <= end`. An interval with `start == end` is *empty* and
/// represents no time points; the constructors in this module never produce
/// empty intervals unless explicitly asked to via [`Interval::empty`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    /// First time point contained in the interval.
    pub start: Time,
    /// First time point *after* the interval (exclusive bound).
    pub end: Time,
}

impl Interval {
    /// Creates the interval `[start, end)`.
    ///
    /// # Panics
    /// Panics if `start > end`.
    #[inline]
    pub fn new(start: Time, end: Time) -> Self {
        assert!(
            start <= end,
            "invalid interval: start {start} must not exceed end {end}"
        );
        Interval { start, end }
    }

    /// The canonical empty interval `[0, 0)`.
    #[inline]
    pub fn empty() -> Self {
        Interval { start: 0, end: 0 }
    }

    /// The interval containing the single time point `t`, i.e. `[t, t+1)`.
    #[inline]
    pub fn point(t: Time) -> Self {
        Interval {
            start: t,
            end: t + 1,
        }
    }

    /// Number of time points contained in the interval.
    #[inline]
    pub fn len(&self) -> u64 {
        (self.end - self.start) as u64
    }

    /// Whether the interval contains no time points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Whether time point `t` lies inside the interval.
    #[inline]
    pub fn contains(&self, t: Time) -> bool {
        self.start <= t && t < self.end
    }

    /// Whether `other` is fully contained in `self` (point-wise `⊆`).
    ///
    /// The empty interval is contained in every interval.
    #[inline]
    pub fn contains_interval(&self, other: &Interval) -> bool {
        other.is_empty() || (self.start <= other.start && other.end <= self.end)
    }

    /// Whether the two intervals share at least one time point.
    #[inline]
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Whether the two intervals are adjacent (`[a,b)` then `[b,c)`) in either order.
    #[inline]
    pub fn adjacent(&self, other: &Interval) -> bool {
        self.end == other.start || other.end == self.start
    }

    /// Whether the two intervals overlap or are adjacent, i.e. their union is
    /// a single interval. This is the merge condition used by temporal
    /// coalescing (§4).
    #[inline]
    pub fn mergeable(&self, other: &Interval) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// Point-wise intersection. Returns `None` if the intervals are disjoint.
    #[inline]
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start < end {
            Some(Interval { start, end })
        } else {
            None
        }
    }

    /// Union of two mergeable intervals.
    ///
    /// Returns `None` when the union would not be a single interval (a gap
    /// separates the operands).
    #[inline]
    pub fn merge(&self, other: &Interval) -> Option<Interval> {
        if self.is_empty() {
            return Some(*other);
        }
        if other.is_empty() {
            return Some(*self);
        }
        if self.mergeable(other) {
            Some(Interval {
                start: self.start.min(other.start),
                end: self.end.max(other.end),
            })
        } else {
            None
        }
    }

    /// Smallest interval covering both operands (may cover points in neither).
    #[inline]
    pub fn hull(&self, other: &Interval) -> Interval {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Interval {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Smallest interval covering every interval in `ivs`
    /// ([`Interval::empty`] for an empty slice).
    pub fn hull_of(ivs: &[Interval]) -> Interval {
        let mut it = ivs.iter();
        match it.next() {
            Some(first) => it.fold(*first, |acc, iv| acc.hull(iv)),
            None => Interval::empty(),
        }
    }

    /// Iterates over the individual time points of the interval.
    #[inline]
    pub fn points(&self) -> impl Iterator<Item = Time> {
        self.start..self.end
    }
}

impl Default for Interval {
    /// The empty interval `[0, 0)`.
    fn default() -> Self {
        Interval::empty()
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// Merges a set of intervals into the minimal sorted set of maximal
/// non-overlapping, non-adjacent intervals covering the same time points.
///
/// This is the `mergeNonOverlapping` fold used by Algorithm 2 (aZoom^T over
/// VE) to derive each new vertex's validity periods.
pub fn merge_non_overlapping(mut intervals: Vec<Interval>) -> Vec<Interval> {
    intervals.retain(|i| !i.is_empty());
    intervals.sort_unstable();
    let mut out: Vec<Interval> = Vec::with_capacity(intervals.len());
    for iv in intervals {
        match out.last_mut() {
            Some(last) if last.mergeable(&iv) => {
                last.end = last.end.max(iv.end);
            }
            _ => out.push(iv),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_basics() {
        let iv = Interval::new(1, 7);
        assert_eq!(iv.len(), 6);
        assert!(!iv.is_empty());
        assert!(iv.contains(1));
        assert!(iv.contains(6));
        assert!(!iv.contains(7));
        assert!(!iv.contains(0));
    }

    #[test]
    fn point_interval_has_one_time_point() {
        let iv = Interval::point(5);
        assert_eq!(iv, Interval::new(5, 6));
        assert_eq!(iv.len(), 1);
        assert!(iv.contains(5));
        assert!(!iv.contains(6));
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn reversed_interval_panics() {
        let _ = Interval::new(7, 1);
    }

    #[test]
    fn empty_interval() {
        let iv = Interval::empty();
        assert!(iv.is_empty());
        assert_eq!(iv.len(), 0);
        assert!(!iv.contains(0));
    }

    #[test]
    fn overlap_and_adjacency() {
        let a = Interval::new(1, 4);
        let b = Interval::new(4, 7);
        let c = Interval::new(3, 5);
        assert!(!a.overlaps(&b));
        assert!(a.adjacent(&b));
        assert!(a.mergeable(&b));
        assert!(a.overlaps(&c));
        assert!(c.overlaps(&b));
        let d = Interval::new(6, 9);
        assert!(!a.overlaps(&d));
        assert!(!a.adjacent(&d));
        assert!(!a.mergeable(&d));
    }

    #[test]
    fn intersection() {
        let a = Interval::new(1, 5);
        let b = Interval::new(3, 9);
        assert_eq!(a.intersect(&b), Some(Interval::new(3, 5)));
        assert_eq!(b.intersect(&a), Some(Interval::new(3, 5)));
        let c = Interval::new(5, 6);
        assert_eq!(a.intersect(&c), None); // adjacent, no shared point
    }

    #[test]
    fn merge_overlapping_and_adjacent() {
        let a = Interval::new(1, 4);
        assert_eq!(a.merge(&Interval::new(4, 7)), Some(Interval::new(1, 7)));
        assert_eq!(a.merge(&Interval::new(2, 3)), Some(Interval::new(1, 4)));
        assert_eq!(a.merge(&Interval::new(6, 8)), None);
        assert_eq!(a.merge(&Interval::empty()), Some(a));
    }

    #[test]
    fn hull_covers_gap() {
        let a = Interval::new(1, 2);
        let b = Interval::new(8, 9);
        assert_eq!(a.hull(&b), Interval::new(1, 9));
    }

    #[test]
    fn containment() {
        let a = Interval::new(1, 9);
        assert!(a.contains_interval(&Interval::new(2, 5)));
        assert!(a.contains_interval(&a));
        assert!(a.contains_interval(&Interval::empty()));
        assert!(!a.contains_interval(&Interval::new(0, 5)));
        assert!(!a.contains_interval(&Interval::new(5, 10)));
    }

    #[test]
    fn merge_non_overlapping_collapses() {
        let merged = merge_non_overlapping(vec![
            Interval::new(5, 7),
            Interval::new(1, 3),
            Interval::new(3, 5),
            Interval::new(9, 11),
            Interval::empty(),
        ]);
        assert_eq!(merged, vec![Interval::new(1, 7), Interval::new(9, 11)]);
    }

    #[test]
    fn merge_non_overlapping_handles_duplicates() {
        let merged = merge_non_overlapping(vec![
            Interval::new(1, 3),
            Interval::new(1, 3),
            Interval::new(2, 4),
        ]);
        assert_eq!(merged, vec![Interval::new(1, 4)]);
    }

    #[test]
    fn points_iteration() {
        let pts: Vec<Time> = Interval::new(2, 6).points().collect();
        assert_eq!(pts, vec![2, 3, 4, 5]);
    }
}
