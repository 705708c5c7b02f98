//! Incremental-maintenance planning for zoom pipelines over an *appended*
//! graph: given where new history begins, decide whether a cached result can
//! be **patched** from the delta or must be recomputed, and where the patch
//! must cut.
//!
//! # The append invariant
//!
//! An ingest epoch appends facts whose intervals lie entirely at or after
//! the boundary `b` (the previous lifespan's end). Since a TGraph's lifespan
//! is the hull of its facts, every pre-existing fact ends at or before `b`:
//! the graph's support is time-disjoint around `b`, and any snapshot at
//! `t < b` is untouched by the ingest.
//!
//! # Why a cut exists
//!
//! * `aZoom^T` is **snapshot-wise**: the zoomed graph at time `t` depends
//!   only on the input snapshot at `t`. It commutes with slicing at any
//!   point, so `b` itself is a valid cut.
//! * `wZoom^T` with [`WindowSpec::Points`]`(n)` windows is **grid-local**:
//!   windows are `[L + k·n, L + (k+1)·n)` anchored at the input lifespan
//!   start `L`, which the append never moves. A window before the cut sees
//!   no new facts; a window at or after a grid-aligned cut is computed
//!   identically from the suffix alone. The cut must therefore be aligned
//!   *down* from `b` to the window grid.
//! * `wZoom^T` with [`WindowSpec::Changes`]`(n)` windows is **not**
//!   append-stable: appending facts appends change points, which re-chunks
//!   every window boundary. Those pipelines must recompute.
//!
//! With several `Points` zooms chained, each anchors at `L` (aZoom^T
//! preserves its input lifespan; wZoom^T's output lifespan is the hull of
//! its windows, which starts at the first window = `L`), so the cut is the
//! greatest point ≤ `b` aligned to *every* grid — the fixpoint of iterated
//! align-downs, i.e. `L + ⌊(b−L)/lcm⌋·lcm` computed without forming the lcm.

use crate::time::{Interval, Time};
use crate::zoom::wzoom::WindowSpec;

/// How a cached zoom result should be brought up to the new epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaintenanceDecision {
    /// Re-execute the pipeline over the suffix `[cut, ∞)` only and stitch it
    /// onto the cached result split at `cut` — cost O(delta + one window).
    Patch {
        /// The stitch point: every cached fact part before `cut` is kept
        /// verbatim; everything at or after it comes from the suffix run.
        cut: Time,
    },
    /// The pipeline is not append-stable (or the cut degenerates); run it
    /// cold over the full history.
    Recompute {
        /// Human-readable cause, surfaced by EXPLAIN and the server stats.
        reason: &'static str,
    },
}

impl MaintenanceDecision {
    /// Whether this is the patch path.
    pub fn is_patch(&self) -> bool {
        matches!(self, MaintenanceDecision::Patch { .. })
    }
}

/// Plans maintenance for a pipeline whose wZoom^T steps use the given window
/// specs, over a cached base with lifespan `lifespan`, after an ingest whose
/// facts all lie at or after `boundary`.
///
/// `windows` must list the window spec of every wZoom^T step in the
/// pipeline (in any order — alignment is order-insensitive); aZoom^T and
/// representation switches are snapshot-wise and never constrain the cut.
pub fn decide(lifespan: Interval, boundary: Time, windows: &[WindowSpec]) -> MaintenanceDecision {
    if lifespan.is_empty() {
        return MaintenanceDecision::Recompute {
            reason: "empty cached lifespan",
        };
    }
    let anchor = lifespan.start;
    if boundary <= anchor {
        return MaintenanceDecision::Recompute {
            reason: "delta boundary precedes cached history",
        };
    }
    if windows.iter().any(|w| matches!(w, WindowSpec::Changes(_))) {
        return MaintenanceDecision::Recompute {
            reason: "changes-windows are not append-stable",
        };
    }
    // Greatest point ≤ boundary aligned to every Points grid anchored at
    // `anchor`: iterated align-down converges to the greatest common
    // fixpoint without computing (and possibly overflowing) the lcm.
    let mut cut = boundary;
    loop {
        let before = cut;
        for w in windows {
            let WindowSpec::Points(n) = w else { continue };
            let n = *n as i64;
            debug_assert!(n > 0, "window size must be positive");
            cut = anchor + ((cut - anchor).div_euclid(n)) * n;
        }
        if cut == before {
            break;
        }
    }
    if cut <= anchor {
        return MaintenanceDecision::Recompute {
            reason: "aligned cut reaches the start of history",
        };
    }
    MaintenanceDecision::Patch { cut }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_wise_pipelines_cut_at_the_boundary() {
        let d = decide(Interval::new(1, 9), 9, &[]);
        assert_eq!(d, MaintenanceDecision::Patch { cut: 9 });
    }

    #[test]
    fn points_windows_align_the_cut_down() {
        // Grid 1, 4, 7, 10, ... — boundary 9 aligns down to 7.
        let d = decide(Interval::new(1, 9), 9, &[WindowSpec::Points(3)]);
        assert_eq!(d, MaintenanceDecision::Patch { cut: 7 });
        // An already-aligned boundary stays put.
        let d = decide(Interval::new(1, 10), 10, &[WindowSpec::Points(3)]);
        assert_eq!(d, MaintenanceDecision::Patch { cut: 10 });
    }

    #[test]
    fn chained_grids_take_the_common_fixpoint() {
        // Grids 2 and 3 anchored at 0: common alignment every 6.
        let d = decide(
            Interval::new(0, 17),
            17,
            &[WindowSpec::Points(2), WindowSpec::Points(3)],
        );
        assert_eq!(d, MaintenanceDecision::Patch { cut: 12 });
        // Order-insensitive.
        let d2 = decide(
            Interval::new(0, 17),
            17,
            &[WindowSpec::Points(3), WindowSpec::Points(2)],
        );
        assert_eq!(d, d2);
    }

    #[test]
    fn coprime_grids_can_degenerate_to_recompute() {
        // lcm(3, 4) = 12 > boundary − start = 10: no interior alignment.
        let d = decide(
            Interval::new(1, 11),
            11,
            &[WindowSpec::Points(3), WindowSpec::Points(4)],
        );
        assert_eq!(
            d,
            MaintenanceDecision::Recompute {
                reason: "aligned cut reaches the start of history"
            }
        );
    }

    #[test]
    fn changes_windows_force_recompute() {
        let d = decide(
            Interval::new(1, 9),
            9,
            &[WindowSpec::Points(3), WindowSpec::Changes(2)],
        );
        assert_eq!(
            d,
            MaintenanceDecision::Recompute {
                reason: "changes-windows are not append-stable"
            }
        );
        assert!(!d.is_patch());
    }

    #[test]
    fn degenerate_boundaries_recompute() {
        assert!(!decide(Interval::empty(), 5, &[]).is_patch());
        assert!(!decide(Interval::new(3, 9), 3, &[]).is_patch());
        assert!(!decide(Interval::new(3, 9), 2, &[]).is_patch());
    }
}
