//! Typed snapshot deltas: the unit of live ingest.
//!
//! A [`SnapshotDelta`] carries the facts observed since a dataset's current
//! lifespan end (`since`). Validation enforces the **append invariant** the
//! whole incremental-maintenance stack rests on — every fact starts at or
//! after `since` — and the record codec's width limits; everything else is
//! Definition 2.1 as [`tgraph_core::validate`] states it, applied to the
//! delta's own facts (every committed fact ends by `since`, so no stored
//! fact can overlap or cover a delta fact).
//! Producers re-assert continuing entities: a vertex alive across the
//! boundary appears in the delta with a fresh interval starting at `since`,
//! which coalescing later merges back into one state; an entity that is
//! *not* re-asserted has simply ended.

use tgraph_core::graph::{EdgeRecord, TGraph, VertexRecord};
use tgraph_core::props::Props;
use tgraph_core::spill::check_props;
use tgraph_core::time::Time;
use tgraph_core::validate::{validate, ValidityError};
use tgraph_dataflow::EncodeError;

/// The facts of one ingest step, all at or after the `since` boundary.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SnapshotDelta {
    /// The dataset lifespan end this delta extends. Every fact interval
    /// starts at or after this point.
    pub since: Time,
    /// New vertex facts (including re-assertions of continuing vertices).
    pub vertices: Vec<VertexRecord>,
    /// New edge facts (including re-assertions of continuing edges).
    pub edges: Vec<EdgeRecord>,
}

/// Why a delta was rejected. Every malformed input maps to one of these —
/// ingest never panics on user data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// A fact starting before the `since` boundary — accepting it would let
    /// the delta rewrite committed history out from under cached results.
    OutOfOrder {
        /// `"vertex"` or `"edge"`.
        entity: &'static str,
        /// The offending entity id.
        id: u64,
        /// Where the fact starts.
        start: Time,
        /// The boundary it violates.
        since: Time,
    },
    /// A fact whose property set the record codec cannot write (more than
    /// `u16::MAX` pairs, or a string over `u32::MAX` bytes): refused here,
    /// not inside the epoch append.
    TooWide {
        /// `"vertex"` or `"edge"`.
        entity: &'static str,
        /// The offending entity id.
        id: u64,
        /// Which width was exceeded.
        error: EncodeError,
    },
    /// The delta's facts do not form a valid TGraph (Definition 2.1): the
    /// first violation [`tgraph_core::validate::validate`] reports.
    Invalid(ValidityError),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::OutOfOrder {
                entity,
                id,
                start,
                since,
            } => write!(
                f,
                "{entity} {id}: starts at {start}, before the delta boundary {since}"
            ),
            DeltaError::TooWide { entity, id, error } => write!(f, "{entity} {id}: {error}"),
            DeltaError::Invalid(error) => error.fmt(f),
        }
    }
}

impl std::error::Error for DeltaError {}

impl SnapshotDelta {
    /// An empty delta at `since`. Valid: it commits an epoch that moves no
    /// time but still advances every cache generation.
    pub fn empty(since: Time) -> Self {
        SnapshotDelta {
            since,
            vertices: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Total facts carried.
    pub fn len(&self) -> usize {
        self.vertices.len() + self.edges.len()
    }

    /// True when the delta carries no facts.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty() && self.edges.is_empty()
    }

    /// Checks the append invariant and the codec width of every fact, then
    /// Definition 2.1 on the delta as a graph. Returns the first violation
    /// found; a valid delta returns `Ok(())`.
    pub fn validate(&self) -> Result<(), DeltaError> {
        for v in &self.vertices {
            check_fact("vertex", v.vid.0, v.interval.start, &v.props, self.since)?;
        }
        for e in &self.edges {
            check_fact("edge", e.eid.0, e.interval.start, &e.props, self.since)?;
        }
        match validate(&self.to_tgraph()).into_iter().next() {
            Some(error) => Err(DeltaError::Invalid(error)),
            None => Ok(()),
        }
    }

    /// The delta's facts as a logical graph (lifespan derived from the
    /// facts), ready for [`tgraph_storage::append_epoch`] or
    /// [`AnyGraph::append_epoch`](tgraph_repr::AnyGraph::append_epoch).
    pub fn to_tgraph(&self) -> TGraph {
        TGraph::from_records(self.vertices.clone(), self.edges.clone())
    }
}

/// The two rules that exist for deltas alone: the append invariant and the
/// record codec's widths.
fn check_fact(
    entity: &'static str,
    id: u64,
    start: Time,
    props: &Props,
    since: Time,
) -> Result<(), DeltaError> {
    if start < since {
        return Err(DeltaError::OutOfOrder {
            entity,
            id,
            start,
            since,
        });
    }
    check_props(props).map_err(|error| DeltaError::TooWide { entity, id, error })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph_core::graph::{EdgeId, VertexId};
    use tgraph_core::props::Value;
    use tgraph_core::time::Interval;

    fn v(id: u64, start: Time, end: Time) -> VertexRecord {
        VertexRecord {
            vid: VertexId(id),
            interval: Interval::new(start, end),
            props: Props::typed("person"),
        }
    }

    #[test]
    fn valid_delta_passes() {
        let d = SnapshotDelta {
            since: 9,
            vertices: vec![v(1, 9, 13), v(2, 10, 12)],
            edges: vec![EdgeRecord {
                eid: EdgeId(1),
                src: VertexId(1),
                dst: VertexId(2),
                interval: Interval::new(10, 12),
                props: Props::typed("knows"),
            }],
        };
        assert_eq!(d.validate(), Ok(()));
        assert_eq!(d.to_tgraph().lifespan, Interval::new(9, 13));
    }

    /// The widest property set the codec writes passes; one pair more is a
    /// typed rejection, not a storage error inside the epoch append.
    #[test]
    fn a_property_set_wider_than_the_codec_is_refused() {
        let wide = |n: usize| SnapshotDelta {
            since: 9,
            vertices: vec![VertexRecord {
                props: Props::from_pairs(
                    (1..n)
                        .map(|i| (format!("k{i}"), Value::Int(0)))
                        .chain([("type".to_string(), Value::from("person"))]),
                ),
                ..v(1, 9, 10)
            }],
            edges: Vec::new(),
        };
        assert_eq!(wide(u16::MAX as usize).validate(), Ok(()));
        assert_eq!(
            wide(u16::MAX as usize + 1).validate(),
            Err(DeltaError::TooWide {
                entity: "vertex",
                id: 1,
                error: EncodeError::TooManyProps(u16::MAX as usize + 1),
            })
        );
    }

    #[test]
    fn empty_delta_is_valid() {
        assert_eq!(SnapshotDelta::empty(9).validate(), Ok(()));
        assert!(SnapshotDelta::empty(9).to_tgraph().lifespan.is_empty());
    }

    #[test]
    fn empty_interval_is_typed_error() {
        let d = SnapshotDelta {
            since: 9,
            vertices: vec![v(1, 10, 10)],
            edges: Vec::new(),
        };
        assert_eq!(
            d.validate(),
            Err(DeltaError::Invalid(ValidityError::EmptyVertexInterval(
                VertexId(1)
            )))
        );
    }

    #[test]
    fn fact_before_boundary_is_typed_error() {
        let d = SnapshotDelta {
            since: 9,
            vertices: vec![v(1, 5, 12)],
            edges: Vec::new(),
        };
        assert!(matches!(
            d.validate(),
            Err(DeltaError::OutOfOrder {
                start: 5,
                since: 9,
                ..
            })
        ));
    }

    /// Definition 2.1 (condition 3): every fact carries a `type` label. The
    /// boundary check still answers first.
    #[test]
    fn untyped_fact_is_typed_error() {
        let mut untyped = v(8, 9, 12);
        untyped.props = Props::new().with("school", "MIT");
        let d = SnapshotDelta {
            since: 9,
            vertices: vec![v(1, 9, 12), untyped.clone()],
            edges: Vec::new(),
        };
        assert_eq!(
            d.validate(),
            Err(DeltaError::Invalid(ValidityError::MissingVertexType(
                VertexId(8)
            )))
        );
        let edge = EdgeRecord {
            eid: EdgeId(4),
            src: VertexId(1),
            dst: VertexId(1),
            interval: Interval::new(9, 11),
            props: Props::new(),
        };
        let d = SnapshotDelta {
            since: 9,
            vertices: vec![v(1, 9, 12)],
            edges: vec![edge],
        };
        assert_eq!(
            d.validate().map_err(|e| e.to_string()),
            Err("edge e4 lacks the required `type` property".to_string())
        );
        untyped.interval = Interval::new(5, 12);
        let early = SnapshotDelta {
            since: 9,
            vertices: vec![untyped],
            edges: Vec::new(),
        };
        assert!(matches!(
            early.validate(),
            Err(DeltaError::OutOfOrder { id: 8, .. })
        ));
    }

    #[test]
    fn conflicting_duplicate_id_is_typed_error() {
        let mut a = v(1, 9, 12);
        let mut b = v(1, 10, 13);
        a.props = Props::typed("person").with("school", "MIT");
        b.props = Props::typed("person").with("school", "CMU");
        let d = SnapshotDelta {
            since: 9,
            vertices: vec![a, b],
            edges: Vec::new(),
        };
        assert_eq!(
            d.validate(),
            Err(DeltaError::Invalid(ValidityError::OverlappingVertexFacts(
                VertexId(1),
                Interval::new(9, 12),
                Interval::new(10, 13)
            )))
        );
    }

    /// One vertex may carry several facts with equal properties only when
    /// they do not overlap: adjacent facts coalesce, overlapping ones would
    /// make the vertex exist twice at one time point.
    #[test]
    fn duplicate_id_with_equal_props_is_fine_only_when_disjoint() {
        let d = |later: VertexRecord| SnapshotDelta {
            since: 9,
            vertices: vec![v(1, 9, 12), later],
            edges: Vec::new(),
        };
        assert_eq!(d(v(1, 12, 13)).validate(), Ok(()));
        assert!(matches!(
            d(v(1, 10, 13)).validate(),
            Err(DeltaError::Invalid(ValidityError::OverlappingVertexFacts(
                VertexId(1),
                ..
            )))
        ));
    }

    /// Equal properties do not make an overlap harmless. Accepted, this
    /// delta counted `v1` twice over `[9, 11)` in VE and RG (an `aZoom` by
    /// `school` with `count` gave `n=3` there, where OG and the reference
    /// give `n=2` over all of `[8, 12)`).
    #[test]
    fn an_overlapping_duplicate_is_refused_whatever_its_props() {
        let mit = |id, start, end| VertexRecord {
            props: Props::typed("person").with("school", "MIT"),
            ..v(id, start, end)
        };
        let d = SnapshotDelta {
            since: 8,
            vertices: vec![mit(1, 8, 12), mit(1, 9, 11), mit(2, 8, 12)],
            edges: Vec::new(),
        };
        assert_eq!(
            d.validate(),
            Err(DeltaError::Invalid(ValidityError::OverlappingVertexFacts(
                VertexId(1),
                Interval::new(8, 12),
                Interval::new(9, 11)
            )))
        );
    }

    /// With several entities at fault the error names the lowest id, so
    /// the `bad_delta` a client reads does not depend on hash order.
    #[test]
    fn the_first_overlap_reported_is_the_lowest_id() {
        let vertices = (1..=8)
            .rev()
            .flat_map(|id| [v(id, 9, 12), v(id, 10, 11)])
            .collect();
        let d = SnapshotDelta {
            since: 9,
            vertices,
            edges: Vec::new(),
        };
        assert_eq!(
            d.validate().map_err(|e| e.to_string()),
            Err("vertex v1 has overlapping facts [9, 12) and [10, 11)".to_string())
        );
    }

    /// An edge id names one edge (Definition 2.1 keys uniqueness by id), so
    /// it cannot join two endpoint pairs at the same time point.
    #[test]
    fn an_edge_id_on_two_endpoint_pairs_at_once_is_refused() {
        let knows = |src, dst| EdgeRecord {
            eid: EdgeId(5),
            src: VertexId(src),
            dst: VertexId(dst),
            interval: Interval::new(9, 12),
            props: Props::typed("knows"),
        };
        let d = SnapshotDelta {
            since: 9,
            vertices: vec![v(1, 9, 12), v(2, 9, 12), v(3, 9, 12)],
            edges: vec![knows(1, 2), knows(1, 3)],
        };
        assert_eq!(
            d.validate(),
            Err(DeltaError::Invalid(ValidityError::OverlappingEdgeFacts(
                EdgeId(5),
                Interval::new(9, 12),
                Interval::new(9, 12)
            )))
        );
    }

    /// An edge needs both endpoints asserted by the delta over its whole
    /// interval; a vertex fact that stops short leaves it dangling.
    #[test]
    fn dangling_edge_is_typed_error() {
        let edge = |start, end| EdgeRecord {
            eid: EdgeId(4),
            src: VertexId(1),
            dst: VertexId(2),
            interval: Interval::new(start, end),
            props: Props::typed("knows"),
        };
        let d = |vertices, e| SnapshotDelta {
            since: 9,
            vertices,
            edges: vec![e],
        };
        assert_eq!(
            d(vec![v(1, 9, 12), v(2, 9, 10), v(2, 10, 12)], edge(9, 12)).validate(),
            Ok(())
        );
        let short = d(vec![v(1, 9, 12), v(2, 9, 11)], edge(9, 12)).validate();
        assert_eq!(
            short,
            Err(DeltaError::Invalid(ValidityError::DanglingEdge {
                eid: EdgeId(4),
                endpoint: VertexId(2),
                during: Interval::new(11, 12),
            }))
        );
        assert_eq!(
            short.map_err(|e| e.to_string()),
            Err("edge e4 dangles: endpoint v2 absent during [11, 12)".to_string())
        );
        assert!(matches!(
            d(vec![v(2, 9, 12)], edge(9, 12)).validate(),
            Err(DeltaError::Invalid(ValidityError::DanglingEdge {
                endpoint: VertexId(1),
                ..
            }))
        ));
    }
}
