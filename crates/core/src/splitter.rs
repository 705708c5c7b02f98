//! Temporal splitters (alignment): deriving elementary non-overlapping
//! intervals from a set of interval boundaries.
//!
//! This is the "temporal splitter" concept of Dignös et al. (Temporal
//! Alignment, SIGMOD 2012) referenced by Algorithm 2: to evaluate a snapshot
//! operator over an interval-encoded relation, facts are split at every
//! boundary where *any* fact starts or ends, yielding sub-intervals within
//! which the relation is constant.

use crate::time::{Interval, Time};

/// Computes the elementary intervals induced by a set of boundary points.
///
/// Given sorted, deduplicated `boundaries` `t0 < t1 < … < tn`, the splitter
/// is `[t0,t1), [t1,t2), …, [tn-1,tn)`.
pub fn elementary_intervals(boundaries: &[Time]) -> Vec<Interval> {
    boundaries
        .windows(2)
        .map(|w| Interval::new(w[0], w[1]))
        .collect()
}

/// Computes the splitter of a set of intervals: the minimal set of elementary
/// intervals such that every input interval is a union of elementary ones.
pub fn splitter<'a>(intervals: impl IntoIterator<Item = &'a Interval>) -> Vec<Interval> {
    let mut boundaries: Vec<Time> = Vec::new();
    for iv in intervals {
        if !iv.is_empty() {
            boundaries.push(iv.start);
            boundaries.push(iv.end);
        }
    }
    boundaries.sort_unstable();
    boundaries.dedup();
    elementary_intervals(&boundaries)
}

/// Aligns an interval to fixed-width temporal windows anchored at `origin`:
/// the `computeNewInterval` function of Algorithms 4–6.
///
/// Returns, for each window the interval overlaps, the pair
/// `(window_interval, covered_part)` where `covered_part = iv ∩ window`.
/// Window `d` spans `[origin + d·width, origin + (d+1)·width)`.
pub fn align_to_windows(iv: &Interval, origin: Time, width: u64) -> Vec<(Interval, Interval)> {
    assert!(width > 0, "window width must be positive");
    if iv.is_empty() {
        return Vec::new();
    }
    let w = width as i64;
    let first = (iv.start - origin).div_euclid(w);
    let last = (iv.end - 1 - origin).div_euclid(w);
    let mut out = Vec::with_capacity((last - first + 1) as usize);
    for d in first..=last {
        let window = Interval::new(origin + d * w, origin + (d + 1) * w);
        // Every window in `first..=last` overlaps `iv` by construction; a
        // non-overlap here would mean the index arithmetic drifted, and the
        // safe behaviour is to drop the window rather than panic.
        if let Some(covered) = iv.intersect(&window) {
            out.push((window, covered));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitter_of_figure1_vertices() {
        // Ann [1,7), Bob [2,5)+[5,9), Cat [1,9) → boundaries 1,2,5,7,9
        let ivs = [
            Interval::new(1, 7),
            Interval::new(2, 5),
            Interval::new(5, 9),
            Interval::new(1, 9),
        ];
        assert_eq!(
            splitter(&ivs),
            vec![
                Interval::new(1, 2),
                Interval::new(2, 5),
                Interval::new(5, 7),
                Interval::new(7, 9),
            ]
        );
    }

    #[test]
    fn splitter_of_empty_set() {
        assert!(splitter(&[]).is_empty());
        assert!(splitter(&[Interval::empty()]).is_empty());
    }

    #[test]
    fn splitter_of_single_interval() {
        assert_eq!(splitter(&[Interval::new(3, 8)]), vec![Interval::new(3, 8)]);
    }

    #[test]
    fn windows_of_running_example() {
        // Example 2.3: 3-month quarters over [1,10) anchored at 1.
        // Ann [1,7) covers W1=[1,4) fully and W2=[4,7) fully.
        let ann = align_to_windows(&Interval::new(1, 7), 1, 3);
        assert_eq!(
            ann,
            vec![
                (Interval::new(1, 4), Interval::new(1, 4)),
                (Interval::new(4, 7), Interval::new(4, 7)),
            ]
        );
        // Bob [2,9): partial W1, full W2, partial W3 ([7,9) of [7,10)).
        let bob = align_to_windows(&Interval::new(2, 9), 1, 3);
        assert_eq!(
            bob,
            vec![
                (Interval::new(1, 4), Interval::new(2, 4)),
                (Interval::new(4, 7), Interval::new(4, 7)),
                (Interval::new(7, 10), Interval::new(7, 9)),
            ]
        );
    }

    #[test]
    fn windows_with_negative_origin_offsets() {
        let parts = align_to_windows(&Interval::new(-5, 2), 0, 4);
        assert_eq!(
            parts,
            vec![
                (Interval::new(-8, -4), Interval::new(-5, -4)),
                (Interval::new(-4, 0), Interval::new(-4, 0)),
                (Interval::new(0, 4), Interval::new(0, 2)),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "window width must be positive")]
    fn zero_width_window_panics() {
        let _ = align_to_windows(&Interval::new(0, 1), 0, 0);
    }

    #[test]
    fn elementary_from_boundaries() {
        assert_eq!(
            elementary_intervals(&[1, 4, 9]),
            vec![Interval::new(1, 4), Interval::new(4, 9)]
        );
        assert!(elementary_intervals(&[5]).is_empty());
        assert!(elementary_intervals(&[]).is_empty());
    }
}
