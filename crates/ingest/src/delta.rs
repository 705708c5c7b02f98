//! Typed snapshot deltas: the unit of live ingest.
//!
//! A [`SnapshotDelta`] carries the facts observed since a dataset's current
//! lifespan end (`since`). Validation enforces the **append invariant** the
//! whole incremental-maintenance stack rests on — every fact starts at or
//! after `since` — plus basic well-formedness (non-empty intervals, a
//! `type` label on every fact, no conflicting overlaps for one entity, no
//! property set wider than the record codec writes, no edge outliving an
//! endpoint).
//! Producers re-assert continuing entities: a vertex alive across the
//! boundary appears in the delta with a fresh interval starting at `since`,
//! which coalescing later merges back into one state; an entity that is
//! *not* re-asserted has simply ended.

use std::collections::HashMap;
use tgraph_core::graph::{EdgeId, EdgeRecord, TGraph, VertexId, VertexRecord};
use tgraph_core::props::Props;
use tgraph_core::spill::check_props;
use tgraph_core::time::{Interval, Time};
use tgraph_core::validate::{dangling_edges, ValidityError};
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
    /// A fact interval with `end <= start` — empty under the closed-open
    /// convention, so it asserts nothing and is almost certainly a producer
    /// bug.
    EmptyInterval {
        /// `"vertex"` or `"edge"`.
        entity: &'static str,
        /// The offending entity id.
        id: u64,
        /// The degenerate interval.
        interval: Interval,
    },
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
    /// Two facts for the same entity overlap in time with different
    /// properties — the entity would have two property sets at once.
    /// (Overlapping facts with *equal* properties are fine; they coalesce.)
    Conflict {
        /// `"vertex"` or `"edge"`.
        entity: &'static str,
        /// The id asserted twice.
        id: u64,
        /// The instant both facts cover.
        at: Time,
    },
    /// A fact without the `type` label Definition 2.1 requires of every
    /// vertex and edge — committed, it would fail the first checked-mode
    /// validation of the graph it joined.
    MissingType {
        /// `"vertex"` or `"edge"`.
        entity: &'static str,
        /// The offending entity id.
        id: u64,
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
    /// An edge fact covering time at which the delta asserts no fact for
    /// one of its endpoints (Definition 2.1's referential condition). Every
    /// committed fact ends by `since`, so only the delta's own vertex facts
    /// can cover a delta edge.
    DanglingEdge {
        /// The offending edge id.
        id: u64,
        /// The endpoint with no fact.
        endpoint: u64,
        /// The stretch of the edge's interval the endpoint leaves uncovered.
        during: Interval,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::EmptyInterval {
                entity,
                id,
                interval,
            } => write!(
                f,
                "{entity} {id}: empty interval [{}, {})",
                interval.start, interval.end
            ),
            DeltaError::OutOfOrder {
                entity,
                id,
                start,
                since,
            } => write!(
                f,
                "{entity} {id}: starts at {start}, before the delta boundary {since}"
            ),
            DeltaError::Conflict { entity, id, at } => write!(
                f,
                "{entity} {id}: conflicting property sets overlap at time {at}"
            ),
            DeltaError::MissingType { entity, id } => {
                write!(f, "{entity} {id}: lacks the required `type` property")
            }
            DeltaError::TooWide { entity, id, error } => write!(f, "{entity} {id}: {error}"),
            DeltaError::DanglingEdge {
                id,
                endpoint,
                during,
            } => write!(
                f,
                "edge {id}: endpoint {endpoint} has no vertex fact during [{}, {})",
                during.start, during.end
            ),
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

    /// Checks the append invariant and well-formedness. Returns the first
    /// violation found; a valid delta returns `Ok(())`.
    pub fn validate(&self) -> Result<(), DeltaError> {
        let mut v_facts: HashMap<VertexId, Vec<(Interval, &Props)>> = HashMap::new();
        for v in &self.vertices {
            check_fact("vertex", v.vid.0, v.interval, &v.props, self.since)?;
            v_facts
                .entry(v.vid)
                .or_default()
                .push((v.interval, &v.props));
        }
        for (vid, facts) in v_facts {
            check_overlaps("vertex", vid.0, facts)?;
        }
        type EdgeKey = (EdgeId, VertexId, VertexId);
        let mut e_facts: HashMap<EdgeKey, Vec<(Interval, &Props)>> = HashMap::new();
        for e in &self.edges {
            check_fact("edge", e.eid.0, e.interval, &e.props, self.since)?;
            e_facts
                .entry((e.eid, e.src, e.dst))
                .or_default()
                .push((e.interval, &e.props));
        }
        for ((eid, _, _), facts) in e_facts {
            check_overlaps("edge", eid.0, facts)?;
        }
        match dangling_edges(&self.vertices, &self.edges)
            .into_iter()
            .next()
        {
            Some(ValidityError::DanglingEdge {
                eid,
                endpoint,
                during,
            }) => Err(DeltaError::DanglingEdge {
                id: eid.0,
                endpoint: endpoint.0,
                during,
            }),
            _ => Ok(()),
        }
    }

    /// The delta's facts as a logical graph (lifespan derived from the
    /// facts), ready for [`tgraph_storage::append_epoch`] or
    /// [`AnyGraph::append_epoch`](tgraph_repr::AnyGraph::append_epoch).
    pub fn to_tgraph(&self) -> TGraph {
        TGraph::from_records(self.vertices.clone(), self.edges.clone())
    }
}

fn check_fact(
    entity: &'static str,
    id: u64,
    interval: Interval,
    props: &Props,
    since: Time,
) -> Result<(), DeltaError> {
    if interval.is_empty() {
        return Err(DeltaError::EmptyInterval {
            entity,
            id,
            interval,
        });
    }
    if interval.start < since {
        return Err(DeltaError::OutOfOrder {
            entity,
            id,
            start: interval.start,
            since,
        });
    }
    if props.type_label().is_none() {
        return Err(DeltaError::MissingType { entity, id });
    }
    check_props(props).map_err(|error| DeltaError::TooWide { entity, id, error })?;
    Ok(())
}

fn check_overlaps(
    entity: &'static str,
    id: u64,
    mut facts: Vec<(Interval, &Props)>,
) -> Result<(), DeltaError> {
    facts.sort_by_key(|(iv, _)| (iv.start, iv.end));
    for pair in facts.windows(2) {
        let ((a, pa), (b, pb)) = (&pair[0], &pair[1]);
        if b.start < a.end && pa != pb {
            return Err(DeltaError::Conflict {
                entity,
                id,
                at: b.start,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph_core::props::Value;

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
        assert!(matches!(
            d.validate(),
            Err(DeltaError::EmptyInterval {
                entity: "vertex",
                id: 1,
                ..
            })
        ));
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
    /// interval and boundary checks still answer first.
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
            Err(DeltaError::MissingType {
                entity: "vertex",
                id: 8
            })
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
            Err("edge 4: lacks the required `type` property".to_string())
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
        assert!(matches!(
            d.validate(),
            Err(DeltaError::Conflict {
                entity: "vertex",
                id: 1,
                at: 10
            })
        ));
    }

    #[test]
    fn duplicate_id_with_equal_props_is_fine() {
        let d = SnapshotDelta {
            since: 9,
            vertices: vec![v(1, 9, 12), v(1, 10, 13)],
            edges: Vec::new(),
        };
        assert_eq!(d.validate(), Ok(()));
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
            Err(DeltaError::DanglingEdge {
                id: 4,
                endpoint: 2,
                during: Interval::new(11, 12),
            })
        );
        assert_eq!(
            short.map_err(|e| e.to_string()),
            Err("edge 4: endpoint 2 has no vertex fact during [11, 12)".to_string())
        );
        assert!(matches!(
            d(vec![v(2, 9, 12)], edge(9, 12)).validate(),
            Err(DeltaError::DanglingEdge { endpoint: 1, .. })
        ));
    }
}
