//! Temporal window-based zoom (`wZoom^T`) specification: window
//! specifications, existence quantifiers, and resolve functions (§2.3, §3.2).
//!
//! `wZoom^T` maps the different states of each node and edge within a
//! temporal window to a single representative state valid for the whole
//! window. Entities are retained in a window only if their existence meets
//! the window's quantifier threshold; attribute conflicts are resolved by
//! window aggregation functions (`first` / `last` / `any`). Because the
//! operator computes *across* snapshots, its input must be temporally
//! coalesced (§3.2).

use crate::props::{Key, Props};
use crate::splitter::align_to_windows;
use crate::time::{Interval, Time};
use std::sync::Arc;

/// Window specification `n {unit | changes}` (§2.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowSpec {
    /// Windows of `n` consecutive time points (e.g. `3 months` when the time
    /// domain is months). Anchored at the graph lifespan's start; the final
    /// window is full-width even if it extends past the lifespan, exactly as
    /// in Example 2.3 where W3 = [7, 10) over a graph ending at 9.
    Points(u64),
    /// Windows of `n` consecutive *changes*: each window spans `n` elementary
    /// no-change intervals (snapshots) of the input graph.
    Changes(u64),
}

impl WindowSpec {
    /// Number `n` in the specification.
    pub fn n(&self) -> u64 {
        match self {
            WindowSpec::Points(n) | WindowSpec::Changes(n) => *n,
        }
    }
}

/// Node/edge existence quantifiers `{all | most | at least n | exists}`.
///
/// Each translates to a threshold on the fraction `r` of the window during
/// which the entity existed (§3.2): `r = 1` for `all`, `r > 0.5` for `most`,
/// `r > n` for `at least n`, and `r > 0` for `exists`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Quantifier {
    /// Universal quantification: the entity spans the entire window.
    All,
    /// More than half of the window.
    Most,
    /// More than fraction `n` (a decimal in `[0, 1]`) of the window.
    AtLeast(f64),
    /// Existential quantification: at least one time point.
    Exists,
}

impl Quantifier {
    /// Whether coverage fraction `r ∈ [0,1]` satisfies the quantifier.
    #[inline]
    pub fn satisfied(&self, r: f64) -> bool {
        match self {
            Quantifier::All => r >= 1.0,
            Quantifier::Most => r > 0.5,
            Quantifier::AtLeast(n) => r > *n,
            Quantifier::Exists => r > 0.0,
        }
    }

    /// The threshold `t` such that the quantifier means `r > t` (with `all`
    /// meaning `r >= 1`). Used to order quantifiers by restrictiveness for
    /// the dangling-edge-check optimization (`r_v` more restrictive than
    /// `r_e` in Algorithms 5 and 6).
    #[inline]
    pub fn threshold(&self) -> f64 {
        match self {
            Quantifier::All => 1.0,
            Quantifier::Most => 0.5,
            Quantifier::AtLeast(n) => *n,
            Quantifier::Exists => 0.0,
        }
    }

    /// Whether `self` is strictly more restrictive than `other` (retains a
    /// subset of entities for every input): quantifiers are ordered by
    /// threshold, and at an equal threshold the strict `r > t` is the more
    /// restrictive, so `at least 1.0` (`r > 1`, never met) outranks `all`
    /// (`r >= 1`, the one bound that is not strict).
    #[inline]
    pub fn more_restrictive_than(&self, other: &Quantifier) -> bool {
        let rank = |q: &Quantifier| (q.threshold(), !matches!(q, Quantifier::All));
        rank(self) > rank(other)
    }
}

/// Window aggregation (resolve) functions choosing, for each attribute,
/// which of its conflicting values within a window to accept (§2.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResolveFn {
    /// Value from the earliest state (by interval start) carrying the key.
    First,
    /// Value from the latest state (by interval start) carrying the key.
    Last,
    /// Implementation-chosen value; the default. Deterministically the value
    /// from the state with the longest presence in the window (ties broken
    /// by earliest start), so that all physical representations agree.
    Any,
}

impl ResolveFn {
    /// Resolves the representative properties from the (window-clipped)
    /// states of one entity within one window. `states` are
    /// `(covered_interval, props)` pairs; order is irrelevant.
    ///
    /// Resolution is *per attribute*: each key present in any state gets the
    /// value chosen by the resolve rule among the states carrying that key.
    pub fn resolve(&self, states: &[(Interval, Props)]) -> Props {
        debug_assert!(!states.is_empty());
        if states.len() == 1 {
            return states[0].1.clone();
        }
        let mut ordered: Vec<&(Interval, Props)> = states.iter().collect();
        match self {
            // Priority order: earlier states win.
            ResolveFn::First => ordered.sort_by_key(|(iv, _)| (iv.start, iv.end)),
            // Later states win.
            ResolveFn::Last => ordered.sort_by_key(|(iv, _)| (std::cmp::Reverse(iv.start), iv.end)),
            // Longest-presence states win.
            ResolveFn::Any => {
                ordered.sort_by_key(|(iv, _)| (std::cmp::Reverse(iv.len()), iv.start))
            }
        }
        // First state in priority order seeds the result; later states only
        // contribute keys not yet present.
        let mut out = ordered[0].1.clone();
        for (_, props) in ordered.iter().skip(1) {
            for (k, v) in props.iter() {
                if out.get(k).is_none() {
                    out = out.with(k.clone(), v.clone());
                }
            }
        }
        out
    }
}

/// Full specification of one `wZoom^T` invocation.
#[derive(Clone, Debug)]
pub struct WZoomSpec {
    /// The window specification.
    pub window: WindowSpec,
    /// Node existence quantifier `r_v`.
    pub vertex_quantifier: Quantifier,
    /// Edge existence quantifier `r_e`.
    pub edge_quantifier: Quantifier,
    /// Resolve function `f_v` for node attributes.
    pub vertex_resolve: ResolveFn,
    /// Resolve function `f_e` for edge attributes.
    pub edge_resolve: ResolveFn,
    /// Per-attribute overrides of the node resolve function, e.g.
    /// `node.school = last(school)` in Figure 3.
    pub vertex_overrides: Vec<(Key, ResolveFn)>,
    /// Per-attribute overrides of the edge resolve function.
    pub edge_overrides: Vec<(Key, ResolveFn)>,
}

impl WZoomSpec {
    /// Windows of `n` time points with the given quantifiers and `any`
    /// resolve functions.
    pub fn points(n: u64, vq: Quantifier, eq: Quantifier) -> Self {
        WZoomSpec {
            window: WindowSpec::Points(n),
            vertex_quantifier: vq,
            edge_quantifier: eq,
            vertex_resolve: ResolveFn::Any,
            edge_resolve: ResolveFn::Any,
            vertex_overrides: Vec::new(),
            edge_overrides: Vec::new(),
        }
    }

    /// Sets both resolve functions.
    pub fn with_resolve(mut self, v: ResolveFn, e: ResolveFn) -> Self {
        self.vertex_resolve = v;
        self.edge_resolve = e;
        self
    }

    /// Adds a per-attribute vertex resolve override.
    pub fn with_vertex_override(mut self, key: &str, f: ResolveFn) -> Self {
        self.vertex_overrides.push((Arc::from(key), f));
        self
    }

    /// Adds a per-attribute edge resolve override.
    pub fn with_edge_override(mut self, key: &str, f: ResolveFn) -> Self {
        self.edge_overrides.push((Arc::from(key), f));
        self
    }

    /// Whether the dangling-edge check is required: only if `r_v` is more
    /// restrictive than `r_e` (§3.2) can an edge pass while an endpoint fails.
    pub fn needs_dangling_check(&self) -> bool {
        self.vertex_quantifier
            .more_restrictive_than(&self.edge_quantifier)
    }

    /// Resolves vertex properties honoring per-attribute overrides.
    pub fn resolve_vertex(&self, states: &[(Interval, Props)]) -> Props {
        resolve_with_overrides(self.vertex_resolve, &self.vertex_overrides, states)
    }

    /// Resolves edge properties honoring per-attribute overrides.
    pub fn resolve_edge(&self, states: &[(Interval, Props)]) -> Props {
        resolve_with_overrides(self.edge_resolve, &self.edge_overrides, states)
    }
}

/// Applies a base resolve function, then re-resolves individually overridden
/// attributes among the states that carry them.
fn resolve_with_overrides(
    base: ResolveFn,
    overrides: &[(Key, ResolveFn)],
    states: &[(Interval, Props)],
) -> Props {
    let resolved = base.resolve(states);
    if overrides.is_empty() {
        return resolved;
    }
    let mut out = resolved;
    for (key, f) in overrides {
        let carrying: Vec<(Interval, Props)> = states
            .iter()
            .filter(|(_, p)| p.get(key).is_some())
            .cloned()
            .collect();
        if carrying.is_empty() {
            continue;
        }
        let resolved = f.resolve(&carrying);
        if let Some(v) = resolved.get(key) {
            out = out.with(key.clone(), v.clone());
        }
    }
    out
}

/// Computes the temporal window relation `W(d | T)` of §2.3 for a graph with
/// the given `lifespan`. For [`WindowSpec::Changes`], `change_points` must be
/// the graph's sorted change points (see `TGraph::change_points`).
///
/// Returns the windows in temporal order; window `d` is `windows[d]`.
pub fn window_relation(
    lifespan: Interval,
    change_points: &[Time],
    spec: WindowSpec,
) -> Vec<Interval> {
    if lifespan.is_empty() {
        return Vec::new();
    }
    match spec {
        WindowSpec::Points(n) => {
            assert!(n > 0, "window size must be positive");
            align_to_windows(&lifespan, lifespan.start, n)
                .into_iter()
                .map(|(window, _)| window)
                .collect()
        }
        WindowSpec::Changes(n) => {
            assert!(n > 0, "window size must be positive");
            // Elementary no-change intervals between consecutive change points.
            let elems = crate::splitter::elementary_intervals(change_points);
            if elems.is_empty() {
                return vec![lifespan];
            }
            elems
                .chunks(n as usize)
                .map(|chunk| Interval::new(chunk[0].start, chunk[chunk.len() - 1].end))
                .collect()
        }
    }
}

/// Maps an entity's covered parts within windows: for every window of the
/// relation (as [`window_relation`] returns it: sorted, gap-free) that `fact`
/// overlaps, yields `(window_index, window, covered)`. Used by the
/// representations that shuffle one copy per overlapped window.
pub fn windows_of(
    fact: Interval,
    windows: &[Interval],
) -> impl Iterator<Item = (usize, Interval, Interval)> + '_ {
    let first = windows.partition_point(|w| w.end <= fact.start);
    windows[first..]
        .iter()
        .enumerate()
        .map_while(move |(i, w)| Some((first + i, *w, fact.intersect(w)?)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantifier_thresholds() {
        assert!(Quantifier::All.satisfied(1.0));
        assert!(!Quantifier::All.satisfied(0.999));
        assert!(Quantifier::Most.satisfied(0.51));
        assert!(!Quantifier::Most.satisfied(0.5));
        assert!(Quantifier::AtLeast(0.25).satisfied(0.26));
        assert!(!Quantifier::AtLeast(0.25).satisfied(0.25));
        assert!(Quantifier::Exists.satisfied(0.001));
        assert!(!Quantifier::Exists.satisfied(0.0));
    }

    #[test]
    fn restrictiveness_ordering() {
        assert!(Quantifier::All.more_restrictive_than(&Quantifier::Most));
        assert!(Quantifier::Most.more_restrictive_than(&Quantifier::Exists));
        assert!(Quantifier::AtLeast(0.7).more_restrictive_than(&Quantifier::Most));
        assert!(!Quantifier::Exists.more_restrictive_than(&Quantifier::Exists));
        // Equal thresholds: the strict `r > 1` outranks `all`'s `r >= 1`,
        // and two strict bounds tie.
        assert!(Quantifier::AtLeast(1.0).more_restrictive_than(&Quantifier::All));
        assert!(!Quantifier::All.more_restrictive_than(&Quantifier::AtLeast(1.0)));
        assert!(!Quantifier::AtLeast(0.5).more_restrictive_than(&Quantifier::Most));
        assert!(!Quantifier::Most.more_restrictive_than(&Quantifier::AtLeast(0.5)));
    }

    #[test]
    fn dangling_check_condition() {
        let spec = WZoomSpec::points(3, Quantifier::All, Quantifier::Exists);
        assert!(spec.needs_dangling_check());
        let spec = WZoomSpec::points(3, Quantifier::Exists, Quantifier::All);
        assert!(!spec.needs_dangling_check());
        let spec = WZoomSpec::points(3, Quantifier::All, Quantifier::All);
        assert!(!spec.needs_dangling_check());
        // No vertex meets `r > 1`, so every edge `all` keeps dangles.
        let spec = WZoomSpec::points(3, Quantifier::AtLeast(1.0), Quantifier::All);
        assert!(spec.needs_dangling_check());
    }

    #[test]
    fn window_relation_points() {
        // Example 2.3: lifespan [1,10), 3-point windows → W1..W3.
        let w = window_relation(Interval::new(1, 10), &[], WindowSpec::Points(3));
        assert_eq!(
            w,
            vec![
                Interval::new(1, 4),
                Interval::new(4, 7),
                Interval::new(7, 10)
            ]
        );
        // Lifespan [1,9) still produces a full-width W3 = [7,10).
        let w = window_relation(Interval::new(1, 9), &[], WindowSpec::Points(3));
        assert_eq!(w[2], Interval::new(7, 10));
    }

    #[test]
    fn window_relation_changes() {
        // Change points of Figure 1: 1,2,5,7,9 → elementary [1,2),[2,5),[5,7),[7,9).
        let cps = vec![1, 2, 5, 7, 9];
        let w = window_relation(Interval::new(1, 9), &cps, WindowSpec::Changes(2));
        assert_eq!(w, vec![Interval::new(1, 5), Interval::new(5, 9)]);
        let w1 = window_relation(Interval::new(1, 9), &cps, WindowSpec::Changes(3));
        assert_eq!(w1, vec![Interval::new(1, 7), Interval::new(7, 9)]);
    }

    #[test]
    fn window_relation_empty_lifespan() {
        assert!(window_relation(Interval::empty(), &[], WindowSpec::Points(3)).is_empty());
    }

    #[test]
    fn windows_of_points() {
        let lifespan = Interval::new(1, 10);
        let windows = window_relation(lifespan, &[], WindowSpec::Points(3));
        // Bob [2,9): partial W0, full W1, partial W2.
        let got: Vec<_> = windows_of(Interval::new(2, 9), &windows).collect();
        assert_eq!(
            got,
            vec![
                (0, Interval::new(1, 4), Interval::new(2, 4)),
                (1, Interval::new(4, 7), Interval::new(4, 7)),
                (2, Interval::new(7, 10), Interval::new(7, 9)),
            ]
        );
    }

    #[test]
    fn windows_of_changes() {
        let windows = vec![Interval::new(1, 5), Interval::new(5, 9)];
        let got: Vec<_> = windows_of(Interval::new(2, 7), &windows).collect();
        assert_eq!(
            got,
            vec![
                (0, Interval::new(1, 5), Interval::new(2, 5)),
                (1, Interval::new(5, 9), Interval::new(5, 7)),
            ]
        );
    }

    #[test]
    fn resolve_first_last() {
        let early = Props::typed("person");
        let late = Props::typed("person").with("school", "CMU");
        let states = vec![
            (Interval::new(4, 5), early.clone()),
            (Interval::new(5, 7), late.clone()),
        ];
        assert_eq!(
            ResolveFn::Last
                .resolve(&states)
                .get("school")
                .unwrap()
                .as_str(),
            Some("CMU")
        );
        // First: base props from early state, but school filled from late
        // state because early lacks the key.
        let first = ResolveFn::First.resolve(&states);
        assert_eq!(first.get("school").unwrap().as_str(), Some("CMU"));
        assert_eq!(first.type_label(), Some("person"));
    }

    #[test]
    fn resolve_first_vs_last_conflicting_values() {
        let a = Props::typed("p").with("x", 1i64);
        let b = Props::typed("p").with("x", 2i64);
        let states = vec![(Interval::new(0, 2), a), (Interval::new(2, 3), b)];
        assert_eq!(
            ResolveFn::First.resolve(&states).get("x").unwrap().as_int(),
            Some(1)
        );
        assert_eq!(
            ResolveFn::Last.resolve(&states).get("x").unwrap().as_int(),
            Some(2)
        );
        // Any: longest presence wins → [0,2) is longer → value 1.
        assert_eq!(
            ResolveFn::Any.resolve(&states).get("x").unwrap().as_int(),
            Some(1)
        );
    }

    #[test]
    fn resolve_single_state_is_identity() {
        let p = Props::typed("p").with("x", 1i64);
        let states = vec![(Interval::new(0, 3), p.clone())];
        assert_eq!(ResolveFn::Any.resolve(&states), p);
    }

    #[test]
    fn vertex_override_applies() {
        // Figure 3: node.school = last(school).
        let spec = WZoomSpec::points(3, Quantifier::All, Quantifier::All)
            .with_resolve(ResolveFn::First, ResolveFn::Any)
            .with_vertex_override("school", ResolveFn::Last);
        let states = vec![
            (Interval::new(4, 5), Props::typed("person")),
            (
                Interval::new(5, 7),
                Props::typed("person").with("school", "CMU"),
            ),
        ];
        let out = spec.resolve_vertex(&states);
        assert_eq!(out.get("school").unwrap().as_str(), Some("CMU"));
    }

    #[test]
    #[should_panic(expected = "window size must be positive")]
    fn zero_window_panics() {
        let _ = window_relation(Interval::new(0, 5), &[], WindowSpec::Points(0));
    }
}
