//! Temporal attribute-based zoom (`aZoom^T`) specification: Skolem functions
//! and commutative/associative aggregation functions (§2.2, §3.1).
//!
//! `aZoom^T` is the temporal generalization of graph *node creation*: on every
//! snapshot of the input, nodes are partitioned into disjoint groups agreeing
//! on the grouping attributes, a new node is created per group (with identity
//! assigned consistently across time by a Skolem function `f_s`), group
//! attributes are aggregated by `f_agg`, and every input edge is re-created
//! with its endpoints re-pointed to the group nodes. Finally the result is
//! temporally coalesced (point semantics).

use crate::graph::VertexId;
use crate::props::{type_key, Key, Props, Value, TYPE_KEY};
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A user-providable Skolem function: maps a vertex (id + properties) to the
/// identity of its group node and the base properties the group node carries.
/// The base belongs to the group: every member state of one group must
/// return the same one, since it is built from whichever member is met first.
///
/// Returning `None` excludes the vertex from the zoomed graph in that state
/// (e.g. Bob before he has a `school`); edges incident to excluded states are
/// clipped accordingly, as in Example 2.2 where `e1` shrinks from `[2,7)` to
/// `[5,7)`.
pub type SkolemFn = Arc<dyn Fn(VertexId, &Props) -> Option<(u64, Props)> + Send + Sync>;

/// The Skolem function `f_s` assigning identity to created nodes.
#[derive(Clone)]
pub enum Skolem {
    /// Group by the value of one property. The new node's id is a stable
    /// 64-bit hash of that value; the new node carries the grouping property.
    /// Vertices lacking the property are excluded.
    ByProperty(Key),
    /// Group by the values of several properties (all must be present).
    ByProperties(Vec<Key>),
    /// Group by the required `type` label.
    ByType,
    /// Arbitrary user function (must be deterministic: identical inputs map
    /// to identical group ids across snapshots, per §2.2).
    Custom {
        /// Name used for `Debug`/plan display.
        name: &'static str,
        /// The function itself.
        f: SkolemFn,
    },
}

impl fmt::Debug for Skolem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Skolem::ByProperty(k) => write!(f, "Skolem::ByProperty({k})"),
            Skolem::ByProperties(ks) => write!(f, "Skolem::ByProperties({ks:?})"),
            Skolem::ByType => write!(f, "Skolem::ByType"),
            Skolem::Custom { name, .. } => write!(f, "Skolem::Custom({name})"),
        }
    }
}

/// Stable (process-independent) hash used to mint group node ids; `None` if
/// any part is missing.
fn stable_hash<'a>(parts: impl IntoIterator<Item = Option<&'a Value>>) -> Option<u64> {
    // DefaultHasher with fixed keys is stable within a build; good enough for
    // deterministic ids across snapshots and workers in one run.
    let mut h = DefaultHasher::new();
    for p in parts {
        p?.hash(&mut h);
    }
    Some(h.finish())
}

impl Skolem {
    /// The identity half of `f_s`: the group a vertex state belongs to, or
    /// `None` if it is excluded. Builds no property set — edge redirection
    /// and the shuffle's map side read only the id.
    pub fn group_id(&self, vid: VertexId, props: &Props) -> Option<u64> {
        match self {
            Skolem::ByProperty(key) => stable_hash([props.get(key)]),
            Skolem::ByProperties(keys) => stable_hash(keys.iter().map(|k| props.get(k))),
            Skolem::ByType => stable_hash([props.get(TYPE_KEY)]),
            Skolem::Custom { f, .. } => f(vid, props).map(|(id, _)| id),
        }
    }

    /// The other half of `f_s`: the base properties of the group a vertex
    /// state belongs to (`None` if it is excluded), without minting the id.
    /// `stamp` is written onto the base in the same build, winning over a
    /// grouping property of its label.
    fn base(&self, vid: VertexId, props: &Props, stamp: Option<(Key, Value)>) -> Option<Props> {
        let keys = match self {
            Skolem::ByProperty(key) => std::slice::from_ref(key),
            Skolem::ByProperties(keys) => keys.as_slice(),
            Skolem::ByType => return props.get(TYPE_KEY).map(|_| Props::from_pairs(stamp)),
            Skolem::Custom { f, .. } => {
                let (_, base) = f(vid, props)?;
                return Some(match stamp {
                    Some((k, v)) => base.with(k, v),
                    None => base,
                });
            }
        };
        let carried = keys
            .iter()
            .map(|k| Some((k.clone(), props.get(k)?.clone())))
            .chain(stamp.map(Some));
        carried.collect::<Option<Vec<_>>>().map(Props::from_pairs)
    }

    /// Applies `f_s` to a vertex state: `Some((group_id, base_props))` if the
    /// vertex participates in a group, `None` otherwise.
    pub fn apply(&self, vid: VertexId, props: &Props) -> Option<(u64, Props)> {
        match self {
            Skolem::Custom { f, .. } => f(vid, props),
            _ => Some((self.group_id(vid, props)?, self.base(vid, props, None)?)),
        }
    }

    /// Convenience constructor for [`Skolem::ByProperty`].
    pub fn by_property(key: &str) -> Self {
        Skolem::ByProperty(Arc::from(key))
    }
}

/// An aggregation function `f_agg` applied to the vertices of one group in
/// one snapshot. All functions are commutative and associative (required by
/// §2.2 so that groups can be reduced in any order by the dataflow engine).
#[derive(Clone, Debug, PartialEq)]
pub enum AggFn {
    /// Number of member vertices.
    Count,
    /// Sum of a numeric property over members (members lacking it contribute 0).
    Sum(Key),
    /// Minimum of a property over members that carry it.
    Min(Key),
    /// Maximum of a property over members that carry it.
    Max(Key),
    /// Arithmetic mean of a numeric property over members that carry it.
    Avg(Key),
    /// An arbitrary member's value of a property (deterministically the
    /// minimum, so every evaluation order agrees).
    Any(Key),
}

/// One output attribute computed by aggregation: `output = f(members)`.
#[derive(Clone, Debug, PartialEq)]
pub struct AggSpec {
    /// Property label of the computed attribute on the group node.
    pub output: Key,
    /// The aggregation function.
    pub f: AggFn,
}

impl AggSpec {
    /// Builds an aggregation spec.
    pub fn new(output: &str, f: AggFn) -> Self {
        AggSpec {
            output: Arc::from(output),
            f,
        }
    }

    /// `output = count()` — the paper's running example (`students` count).
    pub fn count(output: &str) -> Self {
        AggSpec::new(output, AggFn::Count)
    }
}

/// Mergeable accumulator state for one [`AggFn`].
#[derive(Clone, Debug, PartialEq)]
enum AggState {
    Count(u64),
    Sum(f64, bool),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, n: u64 },
    Any(Option<Value>),
}

/// A mergeable accumulator over group members, evaluating all [`AggSpec`]s of
/// an [`AZoomSpec`] at once. Satisfies the commutative/associative contract:
/// `update` order and `merge` shape never change the result.
#[derive(Clone, Debug)]
pub struct AggAccumulator {
    specs: Arc<[AggSpec]>,
    states: Vec<AggState>,
}

impl AggAccumulator {
    /// Creates an empty accumulator for `specs`.
    pub fn new(specs: Arc<[AggSpec]>) -> Self {
        let states = specs
            .iter()
            .map(|s| match &s.f {
                AggFn::Count => AggState::Count(0),
                AggFn::Sum(_) => AggState::Sum(0.0, false),
                AggFn::Min(_) => AggState::Min(None),
                AggFn::Max(_) => AggState::Max(None),
                AggFn::Avg(_) => AggState::Avg { sum: 0.0, n: 0 },
                AggFn::Any(_) => AggState::Any(None),
            })
            .collect();
        AggAccumulator { specs, states }
    }

    /// Folds one member vertex's properties into the accumulator.
    pub fn update(&mut self, member: &Props) {
        for (spec, state) in self.specs.iter().zip(self.states.iter_mut()) {
            match (&spec.f, state) {
                (AggFn::Count, AggState::Count(n)) => *n += 1,
                (AggFn::Sum(k), AggState::Sum(s, seen)) => {
                    if let Some(v) = member.get(k).and_then(Value::as_f64) {
                        *s += v;
                        *seen = true;
                    }
                }
                (AggFn::Min(k), AggState::Min(m)) => {
                    if let Some(v) = member.get(k) {
                        if m.as_ref().is_none_or(|cur| v < cur) {
                            *m = Some(v.clone());
                        }
                    }
                }
                (AggFn::Max(k), AggState::Max(m)) => {
                    if let Some(v) = member.get(k) {
                        if m.as_ref().is_none_or(|cur| v > cur) {
                            *m = Some(v.clone());
                        }
                    }
                }
                (AggFn::Avg(k), AggState::Avg { sum, n }) => {
                    if let Some(v) = member.get(k).and_then(Value::as_f64) {
                        *sum += v;
                        *n += 1;
                    }
                }
                (AggFn::Any(k), AggState::Any(m)) => {
                    if let Some(v) = member.get(k) {
                        if m.as_ref().is_none_or(|cur| v < cur) {
                            *m = Some(v.clone());
                        }
                    }
                }
                _ => unreachable!("accumulator state out of sync with specs"),
            }
        }
    }

    /// [`update`](AggAccumulator::update) for a sweep over time, where members
    /// join in start order rather than member order. Returns `false` — with
    /// the state then unspecified — if joining out of order could change the
    /// result (a float sum that already holds a term): the caller re-folds
    /// the live members in member order.
    pub fn insert(&mut self, member: &Props) -> bool {
        let order_free =
            self.specs
                .iter()
                .zip(&self.states)
                .all(|(spec, state)| match (&spec.f, state) {
                    (AggFn::Sum(k), AggState::Sum(_, true))
                    | (AggFn::Avg(k), AggState::Avg { n: 1.., .. }) => {
                        member.get(k).and_then(Value::as_f64).is_none()
                    }
                    _ => true,
                });
        self.update(member);
        order_free
    }

    /// Takes one member's contribution back out. Returns `false` — with the
    /// state then unspecified — if that cannot be done exactly (a float sum,
    /// or an extreme this member may have been the last to hold): the caller
    /// re-folds the surviving members.
    pub fn retract(&mut self, member: &Props) -> bool {
        let mut exact = true;
        for (spec, state) in self.specs.iter().zip(self.states.iter_mut()) {
            match (&spec.f, state) {
                (AggFn::Count, AggState::Count(n)) => *n -= 1,
                (AggFn::Sum(k), _) | (AggFn::Avg(k), _) => {
                    exact &= member.get(k).and_then(Value::as_f64).is_none();
                }
                (AggFn::Min(k), AggState::Min(m))
                | (AggFn::Max(k), AggState::Max(m))
                | (AggFn::Any(k), AggState::Any(m)) => {
                    exact &= member.get(k).is_none_or(|v| m.as_ref() != Some(v));
                }
                _ => unreachable!("accumulator state out of sync with specs"),
            }
        }
        exact
    }

    /// Finishes aggregation, writing every computed attribute onto `base` in
    /// one build.
    pub fn finish(&self, base: &Props) -> Props {
        base.with_all(
            self.specs
                .iter()
                .zip(&self.states)
                .filter_map(|(spec, state)| {
                    let value = match state {
                        AggState::Count(n) => Value::Int(*n as i64),
                        AggState::Sum(s, seen) => seen.then_some(Value::Float(*s))?,
                        AggState::Min(m) | AggState::Max(m) | AggState::Any(m) => m.clone()?,
                        AggState::Avg { sum, n } => {
                            (*n > 0).then(|| Value::Float(*sum / *n as f64))?
                        }
                    };
                    Some((&spec.output, value))
                }),
        )
    }
}

/// Full specification of one `aZoom^T` invocation.
#[derive(Clone, Debug)]
pub struct AZoomSpec {
    /// The Skolem function `f_s` assigning group identity.
    pub skolem: Skolem,
    /// Type label assigned to created group nodes (e.g. `school` in Fig. 2).
    pub new_type: Key,
    /// Aggregations `f_agg` computing group-node attributes.
    pub aggs: Arc<[AggSpec]>,
}

impl AZoomSpec {
    /// Creates a spec grouping by `property`, labelling new nodes `new_type`.
    pub fn by_property(property: &str, new_type: &str, aggs: Vec<AggSpec>) -> Self {
        AZoomSpec {
            skolem: Skolem::by_property(property),
            new_type: Arc::from(new_type),
            aggs: Arc::from(aggs),
        }
    }

    /// The group a vertex state belongs to: the id [`AZoomSpec::skolemize`]
    /// assigns, without building the group node's properties. What the
    /// kernels call per record.
    pub fn group_id(&self, vid: VertexId, props: &Props) -> Option<u64> {
        self.skolem.group_id(vid, props)
    }

    /// The properties a group node starts from — the Skolem base with the
    /// new type label stamped on — for a member state [`group_id`] accepted.
    /// What the kernels call once per group; the id they already have.
    ///
    /// [`group_id`]: AZoomSpec::group_id
    pub fn group_base(&self, vid: VertexId, props: &Props) -> Option<Props> {
        let type_label = (type_key(), Value::Str(self.new_type.clone()));
        self.skolem.base(vid, props, Some(type_label))
    }

    /// Applies the Skolem function and stamps the group node's type label.
    pub fn skolemize(&self, vid: VertexId, props: &Props) -> Option<(u64, Props)> {
        Some((self.group_id(vid, props)?, self.group_base(vid, props)?))
    }

    /// Aggregates a complete group of member property sets into the group
    /// node's final properties. `base` comes from [`AZoomSpec::skolemize`].
    pub fn aggregate(&self, base: Props, members: impl IntoIterator<Item = Props>) -> Props {
        let mut acc = AggAccumulator::new(self.aggs.clone());
        for m in members {
            acc.update(&m);
        }
        acc.finish(&base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The id-only path, the base-only path and `skolemize` agree with
        /// the definition of a group id — the stable hash of the grouping
        /// values in key order — and exclude exactly the same states.
        #[test]
        fn group_id_is_the_id_skolemize_assigns(
            vid in 0u64..50,
            school in prop::collection::vec(0u8..3, 0..2),
            year in prop::collection::vec(0i64..3, 0..2),
            kind in 0usize..5,
        ) {
            let mut props = Props::typed(if vid % 2 == 0 { "person" } else { "bot" });
            if let Some(s) = school.first() {
                props = props.with("school", format!("s{s}"));
            }
            if let Some(y) = year.first() {
                props = props.with("year", *y);
            }
            let hashed = |keys: &[&str]| {
                let mut h = DefaultHasher::new();
                for k in keys {
                    props.get(k)?.hash(&mut h);
                }
                Some(h.finish())
            };
            let (skolem, expected) = match kind {
                0 => (Skolem::by_property("school"), hashed(&["school"])),
                1 => (
                    Skolem::ByProperties(vec![Arc::from("school"), Arc::from("year")]),
                    hashed(&["school", "year"]),
                ),
                2 => (
                    Skolem::ByProperties(vec![Arc::from("type"), Arc::from("year")]),
                    hashed(&["type", "year"]),
                ),
                3 => (Skolem::ByType, hashed(&["type"])),
                _ => (
                    Skolem::Custom {
                        name: "even_with_year",
                        f: Arc::new(|vid, p| {
                            let year = p.get("year")?.clone();
                            (vid.0 % 2 == 0).then(|| (vid.0 / 10, Props::new().with("year", year)))
                        }),
                    },
                    (vid % 2 == 0 && !year.is_empty()).then_some(vid / 10),
                ),
            };
            let spec = AZoomSpec { skolem, new_type: Arc::from("group"), aggs: Arc::from(vec![]) };
            let vid = VertexId(vid);
            prop_assert_eq!(spec.group_id(vid, &props), expected);
            prop_assert_eq!(spec.skolemize(vid, &props).map(|(id, _)| id), expected);
            let base = spec.group_base(vid, &props);
            prop_assert_eq!(base.is_some(), expected.is_some());
            prop_assert_eq!(base.as_ref().and_then(Props::type_label), expected.map(|_| "group"));
        }
    }

    fn person(school: Option<&str>, edits: i64) -> Props {
        let p = Props::typed("person").with("editCount", edits);
        match school {
            Some(s) => p.with("school", s),
            None => p,
        }
    }

    #[test]
    fn skolem_by_property_is_consistent() {
        let s = Skolem::by_property("school");
        let (id1, base1) = s.apply(VertexId(1), &person(Some("MIT"), 5)).unwrap();
        let (id2, _) = s.apply(VertexId(99), &person(Some("MIT"), 7)).unwrap();
        let (id3, _) = s.apply(VertexId(1), &person(Some("CMU"), 5)).unwrap();
        assert_eq!(
            id1, id2,
            "same value must map to same group id across vertices"
        );
        assert_ne!(id1, id3, "different values must map to different groups");
        assert_eq!(base1.get("school").unwrap().as_str(), Some("MIT"));
    }

    #[test]
    fn skolem_missing_property_excludes_vertex() {
        let s = Skolem::by_property("school");
        assert!(s.apply(VertexId(2), &person(None, 3)).is_none());
    }

    #[test]
    fn skolem_by_properties_requires_all() {
        let s = Skolem::ByProperties(vec![Arc::from("school"), Arc::from("type")]);
        assert!(s.apply(VertexId(1), &person(Some("MIT"), 1)).is_some());
        assert!(s.apply(VertexId(2), &person(None, 1)).is_none());
    }

    #[test]
    fn skolem_by_type() {
        let s = Skolem::ByType;
        let (a, _) = s.apply(VertexId(1), &person(Some("MIT"), 1)).unwrap();
        let (b, _) = s.apply(VertexId(2), &person(None, 2)).unwrap();
        assert_eq!(a, b, "all persons share one group");
    }

    #[test]
    fn count_aggregation() {
        let spec = AZoomSpec::by_property("school", "school", vec![AggSpec::count("students")]);
        let (_, base) = spec
            .skolemize(VertexId(1), &person(Some("MIT"), 5))
            .unwrap();
        let out = spec.aggregate(base, vec![person(Some("MIT"), 5), person(Some("MIT"), 9)]);
        assert_eq!(out.get("students"), Some(&Value::Int(2)));
        assert_eq!(out.type_label(), Some("school"));
        assert_eq!(out.get("school").unwrap().as_str(), Some("MIT"));
    }

    #[test]
    fn sum_min_max_avg_any() {
        let aggs = vec![
            AggSpec::new("total", AggFn::Sum(Arc::from("editCount"))),
            AggSpec::new("least", AggFn::Min(Arc::from("editCount"))),
            AggSpec::new("most", AggFn::Max(Arc::from("editCount"))),
            AggSpec::new("mean", AggFn::Avg(Arc::from("editCount"))),
            AggSpec::new("some", AggFn::Any(Arc::from("editCount"))),
        ];
        let spec = AZoomSpec::by_property("school", "school", aggs);
        let out = spec.aggregate(
            Props::typed("school"),
            vec![
                person(Some("MIT"), 2),
                person(Some("MIT"), 4),
                person(Some("MIT"), 9),
            ],
        );
        assert_eq!(out.get("total"), Some(&Value::Float(15.0)));
        assert_eq!(out.get("least"), Some(&Value::Int(2)));
        assert_eq!(out.get("most"), Some(&Value::Int(9)));
        assert_eq!(out.get("mean"), Some(&Value::Float(5.0)));
        assert_eq!(out.get("some"), Some(&Value::Int(2)));
    }

    #[test]
    fn aggregation_over_members_missing_property() {
        let spec = AZoomSpec::by_property(
            "school",
            "school",
            vec![AggSpec::new("mean", AggFn::Avg(Arc::from("absent")))],
        );
        let out = spec.aggregate(Props::typed("school"), vec![person(Some("MIT"), 1)]);
        assert!(out.get("mean").is_none(), "no members carry the property");
    }

    #[test]
    fn custom_skolem() {
        let skolem = Skolem::Custom {
            name: "mod2",
            f: Arc::new(|vid, _| Some((vid.0 % 2, Props::new()))),
        };
        let spec = AZoomSpec {
            skolem,
            new_type: Arc::from("parity"),
            aggs: Arc::from(vec![AggSpec::count("n")]),
        };
        let (g0, p) = spec.skolemize(VertexId(4), &Props::typed("x")).unwrap();
        assert_eq!(g0, 0);
        assert_eq!(p.type_label(), Some("parity"));
        let (g1, _) = spec.skolemize(VertexId(3), &Props::typed("x")).unwrap();
        assert_eq!(g1, 1);
    }
}
