//! TGraph validity checking (Definition 2.1).
//!
//! A valid TGraph conceptually corresponds to a sequence of valid
//! conventional graphs. This imposes:
//!
//! 1. *Referential condition on ξ:* an edge can only exist at a time when
//!    both endpoints exist.
//! 2. *Property condition on λ:* a property can only take a value when the
//!    owning entity exists (trivially holds in our fact encoding).
//! 3. *Non-empty property sets:* every entity assigns a value to `type` at
//!    every point at which it exists.
//! 4. *Uniqueness:* an entity exists at most once at any time point — facts
//!    for the same id must not overlap.

use crate::graph::{EdgeId, EdgeRecord, TGraph, VertexId, VertexRecord};
use crate::time::{merge_non_overlapping, Interval};
use std::collections::HashMap;
use std::fmt;

/// A violation of TGraph validity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidityError {
    /// A vertex fact has an empty interval.
    EmptyVertexInterval(VertexId),
    /// An edge fact has an empty interval.
    EmptyEdgeInterval(EdgeId),
    /// Two facts for the same vertex overlap in time.
    OverlappingVertexFacts(VertexId, Interval, Interval),
    /// Two facts for the same edge overlap in time.
    OverlappingEdgeFacts(EdgeId, Interval, Interval),
    /// A vertex fact lacks the required `type` property.
    MissingVertexType(VertexId),
    /// An edge fact lacks the required `type` property.
    MissingEdgeType(EdgeId),
    /// An edge exists at a time when an endpoint does not (dangling edge).
    DanglingEdge {
        /// The offending edge.
        eid: EdgeId,
        /// The endpoint that is missing.
        endpoint: VertexId,
        /// The sub-interval during which the edge dangles.
        during: Interval,
    },
    /// A fact lies outside the graph's declared lifespan.
    OutsideLifespan(Interval),
}

impl fmt::Display for ValidityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidityError::EmptyVertexInterval(v) => {
                write!(f, "vertex {v} has a fact with an empty interval")
            }
            ValidityError::EmptyEdgeInterval(e) => {
                write!(f, "edge {e} has a fact with an empty interval")
            }
            ValidityError::OverlappingVertexFacts(v, a, b) => {
                write!(f, "vertex {v} has overlapping facts {a} and {b}")
            }
            ValidityError::OverlappingEdgeFacts(e, a, b) => {
                write!(f, "edge {e} has overlapping facts {a} and {b}")
            }
            ValidityError::MissingVertexType(v) => {
                write!(f, "vertex {v} lacks the required `type` property")
            }
            ValidityError::MissingEdgeType(e) => {
                write!(f, "edge {e} lacks the required `type` property")
            }
            ValidityError::DanglingEdge {
                eid,
                endpoint,
                during,
            } => {
                write!(
                    f,
                    "edge {eid} dangles: endpoint {endpoint} absent during {during}"
                )
            }
            ValidityError::OutsideLifespan(iv) => {
                write!(f, "fact interval {iv} lies outside the graph lifespan")
            }
        }
    }
}

impl std::error::Error for ValidityError {}

/// Validates a TGraph against Definition 2.1. Returns all violations found
/// (empty means valid).
pub fn validate(g: &TGraph) -> Vec<ValidityError> {
    let mut errors = Vec::new();

    // Uniqueness needs each vertex's facts side by side.
    let mut vertex_periods: HashMap<VertexId, Vec<Interval>> = HashMap::new();
    for v in &g.vertices {
        if v.interval.is_empty() {
            errors.push(ValidityError::EmptyVertexInterval(v.vid));
            continue;
        }
        if !g.lifespan.contains_interval(&v.interval) {
            errors.push(ValidityError::OutsideLifespan(v.interval));
        }
        if v.props.type_label().is_none() {
            errors.push(ValidityError::MissingVertexType(v.vid));
        }
        vertex_periods.entry(v.vid).or_default().push(v.interval);
    }
    for (vid, periods) in vertex_periods.iter_mut() {
        periods.sort_unstable();
        for w in periods.windows(2) {
            if w[0].overlaps(&w[1]) {
                errors.push(ValidityError::OverlappingVertexFacts(*vid, w[0], w[1]));
            }
        }
    }

    let mut edge_periods: HashMap<EdgeId, Vec<Interval>> = HashMap::new();
    for e in &g.edges {
        if e.interval.is_empty() {
            errors.push(ValidityError::EmptyEdgeInterval(e.eid));
            continue;
        }
        if !g.lifespan.contains_interval(&e.interval) {
            errors.push(ValidityError::OutsideLifespan(e.interval));
        }
        if e.props.type_label().is_none() {
            errors.push(ValidityError::MissingEdgeType(e.eid));
        }
        edge_periods.entry(e.eid).or_default().push(e.interval);
    }
    for (eid, periods) in edge_periods.iter_mut() {
        periods.sort_unstable();
        for w in periods.windows(2) {
            if w[0].overlaps(&w[1]) {
                errors.push(ValidityError::OverlappingEdgeFacts(*eid, w[0], w[1]));
            }
        }
    }

    errors.extend(dangling_edges(&g.vertices, &g.edges));
    errors
}

/// The referential condition of Definition 2.1 on its own: every stretch
/// of a (non-empty) edge fact during which an endpoint has no vertex fact,
/// as a [`ValidityError::DanglingEdge`]. Empty means every edge is covered
/// by the union of its endpoints' facts.
pub fn dangling_edges(vertices: &[VertexRecord], edges: &[EdgeRecord]) -> Vec<ValidityError> {
    let mut periods: HashMap<VertexId, Vec<Interval>> = HashMap::new();
    for v in vertices {
        periods.entry(v.vid).or_default().push(v.interval);
    }
    for p in periods.values_mut() {
        *p = merge_non_overlapping(std::mem::take(p));
    }
    let mut errors = Vec::new();
    for e in edges.iter().filter(|e| !e.interval.is_empty()) {
        for endpoint in [e.src, e.dst] {
            let mut uncovered = vec![e.interval];
            for p in periods.get(&endpoint).map_or(&[][..], Vec::as_slice) {
                uncovered = uncovered.iter().flat_map(|u| subtract(u, p)).collect();
            }
            errors.extend(
                uncovered
                    .into_iter()
                    .map(|during| ValidityError::DanglingEdge {
                        eid: e.eid,
                        endpoint,
                        during,
                    }),
            );
        }
    }
    errors
}

/// Point-wise interval subtraction `a \ b` (zero, one, or two pieces).
fn subtract(a: &Interval, b: &Interval) -> Vec<Interval> {
    match a.intersect(b) {
        None => vec![*a],
        Some(x) => {
            let mut out = Vec::new();
            if a.start < x.start {
                out.push(Interval::new(a.start, x.start));
            }
            if x.end < a.end {
                out.push(Interval::new(x.end, a.end));
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::figure1_graph_stable_ids;
    use crate::props::Props;

    #[test]
    fn figure1_is_valid() {
        assert_eq!(validate(&figure1_graph_stable_ids()), vec![]);
    }

    #[test]
    fn detects_dangling_edge() {
        let mut g = figure1_graph_stable_ids();
        // Extend e1 past Ann's existence ([1,7)) to [2,8).
        g.edges[0].interval = Interval::new(2, 8);
        let errs = validate(&g);
        assert!(errs.iter().any(|e| matches!(
            e,
            ValidityError::DanglingEdge { endpoint: VertexId(1), during, .. }
                if *during == Interval::new(7, 8)
        )));
    }

    #[test]
    fn detects_edge_to_nonexistent_vertex() {
        let g = TGraph::from_records(
            vec![VertexRecord::new(1, Interval::new(0, 5), Props::typed("a"))],
            vec![EdgeRecord::new(
                1,
                1,
                99,
                Interval::new(0, 5),
                Props::typed("x"),
            )],
        );
        let errs = validate(&g);
        assert!(errs.iter().any(|e| matches!(
            e,
            ValidityError::DanglingEdge {
                endpoint: VertexId(99),
                ..
            }
        )));
    }

    #[test]
    fn detects_overlapping_vertex_facts() {
        let g = TGraph::from_records(
            vec![
                VertexRecord::new(1, Interval::new(0, 5), Props::typed("a")),
                VertexRecord::new(1, Interval::new(3, 8), Props::typed("b")),
            ],
            vec![],
        );
        let errs = validate(&g);
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidityError::OverlappingVertexFacts(VertexId(1), _, _))));
    }

    #[test]
    fn detects_missing_type() {
        let g = TGraph::from_records(
            vec![VertexRecord::new(
                1,
                Interval::new(0, 5),
                Props::from_pairs([("name", "x")]),
            )],
            vec![],
        );
        let errs = validate(&g);
        assert_eq!(errs, vec![ValidityError::MissingVertexType(VertexId(1))]);
    }

    #[test]
    fn detects_empty_interval() {
        let g = TGraph {
            lifespan: Interval::new(0, 10),
            vertices: vec![VertexRecord::new(1, Interval::empty(), Props::typed("a"))],
            edges: vec![],
        };
        assert_eq!(
            validate(&g),
            vec![ValidityError::EmptyVertexInterval(VertexId(1))]
        );
    }

    #[test]
    fn edge_covered_by_multiple_vertex_facts_is_fine() {
        // e1 spans Bob's two states [2,5)+[5,9); coverage is the union.
        let g = figure1_graph_stable_ids();
        assert!(validate(&g).is_empty());
    }

    #[test]
    fn subtract_pieces() {
        let a = Interval::new(0, 10);
        assert_eq!(
            subtract(&a, &Interval::new(3, 6)),
            vec![Interval::new(0, 3), Interval::new(6, 10)]
        );
        assert_eq!(subtract(&a, &Interval::new(0, 10)), vec![]);
        assert_eq!(subtract(&a, &Interval::new(20, 30)), vec![a]);
        assert_eq!(
            subtract(&a, &Interval::new(0, 4)),
            vec![Interval::new(4, 10)]
        );
    }

    #[test]
    fn fact_outside_lifespan_detected() {
        let g = TGraph {
            lifespan: Interval::new(0, 5),
            vertices: vec![VertexRecord::new(1, Interval::new(3, 8), Props::typed("a"))],
            edges: vec![],
        };
        let errs = validate(&g);
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidityError::OutsideLifespan(_))));
    }
}
