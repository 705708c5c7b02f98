//! The TGraph logical model (Definition 2.1): temporal vertex and edge
//! records, and the canonical in-memory interchange representation.
//!
//! A `TGraph` here is the *logical* graph — a flat, possibly uncoalesced
//! collection of vertex and edge facts, each valid during a closed-open
//! interval. The four *physical* representations of §3 (RG, VE, OG, OGC) live
//! in the `tgraph-repr` crate and convert to/from this type.

use crate::props::Props;
use crate::time::{Interval, Time};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a vertex. `u64` to mirror the paper's use of `long` ids for
/// GraphX interoperability.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub u64);

/// Identifier of an edge. Edges have identity of their own because a TGraph
/// is a multigraph: multiple edges may connect the same pair of vertices.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u64);

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}
impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}
impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}
impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// One temporal fact about a vertex: during `interval`, vertex `vid` existed
/// and carried exactly the properties `props`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct VertexRecord {
    /// Vertex identity, stable across its whole history.
    pub vid: VertexId,
    /// Period of validity of this state, closed-open.
    pub interval: Interval,
    /// Property assignment during `interval` (must include `type`).
    pub props: Props,
}

impl VertexRecord {
    /// Creates a vertex fact.
    pub fn new(vid: u64, interval: Interval, props: Props) -> Self {
        VertexRecord {
            vid: VertexId(vid),
            interval,
            props,
        }
    }
}

/// One temporal fact about an edge: during `interval`, edge `eid` connected
/// `src` to `dst` carrying `props`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct EdgeRecord {
    /// Edge identity, stable across its whole history.
    pub eid: EdgeId,
    /// Source vertex (the ρ function of Definition 2.1 is total and
    /// time-invariant: an edge's endpoints never change).
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Period of validity of this state, closed-open.
    pub interval: Interval,
    /// Property assignment during `interval` (must include `type`).
    pub props: Props,
}

impl EdgeRecord {
    /// Creates an edge fact.
    pub fn new(eid: u64, src: u64, dst: u64, interval: Interval, props: Props) -> Self {
        EdgeRecord {
            eid: EdgeId(eid),
            src: VertexId(src),
            dst: VertexId(dst),
            interval,
            props,
        }
    }
}

/// The logical evolving property graph: a bag of temporal vertex and edge
/// facts plus the graph's overall lifespan.
///
/// Records for the same entity must not overlap in time (an entity exists at
/// most once at any time point); [`crate::validate`] checks this along with
/// the referential conditions of Definition 2.1.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TGraph {
    /// Hull of all validity periods; the graph's recorded lifetime.
    pub lifespan: Interval,
    /// Vertex facts, in no particular order.
    pub vertices: Vec<VertexRecord>,
    /// Edge facts, in no particular order.
    pub edges: Vec<EdgeRecord>,
}

impl TGraph {
    /// Creates an empty TGraph with an empty lifespan.
    pub fn new() -> Self {
        TGraph {
            lifespan: Interval::empty(),
            vertices: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Builds a TGraph from records, deriving the lifespan as the hull of all
    /// record intervals.
    pub fn from_records(vertices: Vec<VertexRecord>, edges: Vec<EdgeRecord>) -> Self {
        let mut lifespan = Interval::empty();
        for v in &vertices {
            lifespan = lifespan.hull(&v.interval);
        }
        for e in &edges {
            lifespan = lifespan.hull(&e.interval);
        }
        TGraph {
            lifespan,
            vertices,
            edges,
        }
    }

    /// Number of vertex facts (tuples, not distinct vertices).
    pub fn vertex_tuple_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edge facts (tuples, not distinct edges).
    pub fn edge_tuple_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of distinct vertices.
    pub fn distinct_vertex_count(&self) -> usize {
        let mut ids: Vec<u64> = self.vertices.iter().map(|v| v.vid.0).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Number of distinct edges.
    pub fn distinct_edge_count(&self) -> usize {
        let mut ids: Vec<u64> = self.edges.iter().map(|e| e.eid.0).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Whether the graph holds no facts at all.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty() && self.edges.is_empty()
    }

    /// Restricts the graph to facts overlapping `range`, clipping intervals.
    /// This mirrors the `GraphLoader` date-range filter of §4.
    pub fn slice(&self, range: Interval) -> TGraph {
        let vertices = self
            .vertices
            .iter()
            .filter_map(|v| {
                v.interval.intersect(&range).map(|iv| VertexRecord {
                    vid: v.vid,
                    interval: iv,
                    props: v.props.clone(),
                })
            })
            .collect();
        let edges = self
            .edges
            .iter()
            .filter_map(|e| {
                e.interval.intersect(&range).map(|iv| EdgeRecord {
                    eid: e.eid,
                    src: e.src,
                    dst: e.dst,
                    interval: iv,
                    props: e.props.clone(),
                })
            })
            .collect();
        TGraph::from_records(vertices, edges)
    }

    /// The state of the graph at a single time point `t` — a conventional
    /// property graph (the "snapshot" the paper's point semantics evaluate
    /// non-temporal operators over).
    pub fn at(&self, t: Time) -> StaticGraph {
        let mut vertices = BTreeMap::new();
        for v in &self.vertices {
            if v.interval.contains(t) {
                vertices.insert(v.vid, v.props.clone());
            }
        }
        let mut edges = BTreeMap::new();
        for e in &self.edges {
            if e.interval.contains(t) {
                edges.insert(e.eid, (e.src, e.dst, e.props.clone()));
            }
        }
        StaticGraph { vertices, edges }
    }

    /// The sorted set of time points at which *anything* changes: a fact
    /// starts or ends. Between two consecutive change points the graph is
    /// constant; these boundaries induce the snapshot sequence of §3.
    pub fn change_points(&self) -> Vec<Time> {
        let mut pts = Vec::with_capacity(2 * (self.vertices.len() + self.edges.len()));
        for v in &self.vertices {
            pts.push(v.interval.start);
            pts.push(v.interval.end);
        }
        for e in &self.edges {
            pts.push(e.interval.start);
            pts.push(e.interval.end);
        }
        pts.sort_unstable();
        pts.dedup();
        pts
    }
}

/// A conventional (non-temporal) property graph: the state of a TGraph at one
/// time point, or one RG snapshot's payload.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StaticGraph {
    /// Vertices present, with their property assignment.
    pub vertices: BTreeMap<VertexId, Props>,
    /// Edges present, with endpoints and properties.
    pub edges: BTreeMap<EdgeId, (VertexId, VertexId, Props)>,
}

impl StaticGraph {
    /// Whether this is a *valid* conventional graph: every edge's endpoints
    /// are present, and no entity has an empty property set.
    pub fn is_valid(&self) -> bool {
        self.vertices.values().all(|p| !p.is_empty())
            && self.edges.values().all(|(s, d, p)| {
                !p.is_empty() && self.vertices.contains_key(s) && self.vertices.contains_key(d)
            })
    }
}

/// Builds the TGraph of the paper's Figure 1: Ann, Bob, Cat with their
/// co-author edges, exactly as drawn: Bob keeps one vertex id across his
/// two states. This is the canonical running-example graph, used throughout
/// tests and the quickstart example.
///
/// ```text
/// Ann  (v1): type=person, school=MIT           T=[1,7)
/// Bob  (v2): type=person                        T=[2,5)
/// Bob  (v2): type=person, school=CMU            T=[5,9)
/// Cat  (v3): type=person, school=MIT            T=[1,9)
/// e1 (Ann→Bob): type=co-author                  T=[2,7)
/// e2 (Bob→Cat): type=co-author                  T=[7,9)
/// ```
pub fn figure1_graph_stable_ids() -> TGraph {
    let person = Props::typed("person");
    TGraph::from_records(
        vec![
            VertexRecord::new(
                1,
                Interval::new(1, 7),
                person.clone().with("school", "MIT").with("name", "Ann"),
            ),
            VertexRecord::new(2, Interval::new(2, 5), person.clone().with("name", "Bob")),
            VertexRecord::new(
                2,
                Interval::new(5, 9),
                person.clone().with("school", "CMU").with("name", "Bob"),
            ),
            VertexRecord::new(
                3,
                Interval::new(1, 9),
                person.with("school", "MIT").with("name", "Cat"),
            ),
        ],
        vec![
            EdgeRecord::new(1, 1, 2, Interval::new(2, 7), Props::typed("co-author")),
            EdgeRecord::new(2, 2, 3, Interval::new(7, 9), Props::typed("co-author")),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_records_derives_lifespan() {
        let g = figure1_graph_stable_ids();
        assert_eq!(g.lifespan, Interval::new(1, 9));
        assert_eq!(g.vertex_tuple_count(), 4);
        assert_eq!(g.edge_tuple_count(), 2);
        assert_eq!(g.distinct_vertex_count(), 3);
        assert_eq!(g.distinct_edge_count(), 2);
    }

    #[test]
    fn snapshot_at_time_point() {
        let g = figure1_graph_stable_ids();
        // At t=1 only Ann and Cat exist; no edges.
        let s1 = g.at(1);
        assert_eq!(s1.vertices.len(), 2);
        assert!(s1.edges.is_empty());
        assert!(s1.is_valid());
        // At t=3 Bob exists (schoolless) and e1 connects Ann→Bob.
        let s3 = g.at(3);
        assert_eq!(s3.vertices.len(), 3);
        assert_eq!(s3.edges.len(), 1);
        assert!(s3.is_valid());
        // At t=8 Bob has school=CMU and e2 connects Bob→Cat.
        let s8 = g.at(8);
        assert_eq!(s8.vertices.len(), 2);
        let bob = s8.vertices.get(&VertexId(2)).unwrap();
        assert_eq!(bob.get("school").unwrap().as_str(), Some("CMU"));
        assert_eq!(s8.edges.len(), 1);
        // At t=9 (after lifespan) nothing exists.
        let s9 = g.at(9);
        assert!(s9.vertices.is_empty() && s9.edges.is_empty());
    }

    #[test]
    fn change_points_of_running_example() {
        let g = figure1_graph_stable_ids();
        assert_eq!(g.change_points(), vec![1, 2, 5, 7, 9]);
    }

    #[test]
    fn slice_clips_intervals() {
        let g = figure1_graph_stable_ids();
        let s = g.slice(Interval::new(4, 6));
        assert_eq!(s.lifespan, Interval::new(4, 6));
        // Ann [4,6), Bob [4,5) and [5,6), Cat [4,6)
        assert_eq!(s.vertex_tuple_count(), 4);
        // e1 clipped to [4,6); e2 entirely outside.
        assert_eq!(s.edge_tuple_count(), 1);
        assert_eq!(s.edges[0].interval, Interval::new(4, 6));
    }

    #[test]
    fn static_graph_validity_detects_dangling_edge() {
        let mut s = StaticGraph::default();
        s.vertices.insert(VertexId(1), Props::typed("a"));
        s.edges
            .insert(EdgeId(1), (VertexId(1), VertexId(2), Props::typed("x")));
        assert!(!s.is_valid());
        s.vertices.insert(VertexId(2), Props::typed("a"));
        assert!(s.is_valid());
    }

    #[test]
    fn empty_graph() {
        let g = TGraph::new();
        assert!(g.is_empty());
        assert!(g.lifespan.is_empty());
        assert!(g.change_points().is_empty());
    }
}
