//! Property model: typed values and key–value property sets.
//!
//! As in the paper's property-graph foundation (Angles et al., adopted in
//! §2.1), every node and edge carries a set of key–value pairs. The set is
//! schemaless — it may differ between entities of the same type and for the
//! same entity over time. Every entity must assign a value to the property
//! `type` at every time point at which it exists.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// The required `type` property label carried by every node and edge.
pub const TYPE_KEY: &str = "type";

/// [`TYPE_KEY`] as a shared [`Key`]: stamping a type label bumps a reference
/// count instead of allocating the label again.
pub fn type_key() -> Key {
    static KEY: OnceLock<Key> = OnceLock::new();
    KEY.get_or_init(|| Arc::from(TYPE_KEY)).clone()
}

/// A property label (key). Cheap to clone; interned per chunk by the storage
/// decoder, so the rows of a loaded graph share one allocation per label.
pub type Key = Arc<str>;

/// A property value.
///
/// `Float` values order and hash by their bit pattern so that `Props` can be
/// used as grouping/coalescing keys (value-equivalence must be decidable).
/// NaN therefore equals itself, which is the desired behaviour for grouping.
#[derive(Clone, Debug)]
pub enum Value {
    /// Boolean value.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float, ordered and hashed by total order of its bit pattern.
    Float(f64),
    /// Immutable string, cheap to clone.
    Str(Arc<str>),
}

impl Value {
    /// Returns the integer payload if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float payload, widening integers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the string payload if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the boolean payload if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Stable discriminant used for cross-variant ordering.
    fn tag(&self) -> u8 {
        match self {
            Value::Bool(_) => 0,
            Value::Int(_) => 1,
            Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u8(self.tag());
        match self {
            Value::Bool(b) => b.hash(state),
            Value::Int(v) => v.hash(state),
            Value::Float(v) => v.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => self.tag().cmp(&other.tag()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v))
    }
}
impl From<Arc<str>> for Value {
    fn from(v: Arc<str>) -> Self {
        Value::Str(v)
    }
}

/// An immutable property set: key–value pairs sorted by key.
///
/// Stored behind an `Arc` so that cloning a property set — which happens for
/// every tuple copy a dataflow shuffle makes — is a reference-count bump, the
/// same way Spark shares immutable row data between RDD lineage stages.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Props(Arc<[(Key, Value)]>);

impl Props {
    /// The empty property set. Note that a *valid* TGraph entity always has a
    /// non-empty property set containing at least `type` (§2.1); the empty
    /// set exists only as a builder starting point.
    pub fn new() -> Self {
        Props(Arc::from(Vec::new()))
    }

    /// Builds a property set from key–value pairs. Later duplicates win.
    pub fn from_pairs<K, V>(pairs: impl IntoIterator<Item = (K, V)>) -> Self
    where
        K: Into<Key>,
        V: Into<Value>,
    {
        let mut v: Vec<(Key, Value)> = pairs
            .into_iter()
            .map(|(k, val)| (k.into(), val.into()))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v.dedup_by(|a, b| {
            if a.0 == b.0 {
                // keep the later pair (currently in `b`'s slot after swap semantics)
                std::mem::swap(&mut a.1, &mut b.1);
                true
            } else {
                false
            }
        });
        Props(Arc::from(v))
    }

    /// A property set from pairs already in strictly ascending key order, in
    /// one allocation and without a sort; `None` if they are not in that
    /// order (a key out of place or repeated).
    pub fn from_sorted(pairs: impl IntoIterator<Item = (Key, Value)>) -> Option<Self> {
        let pairs: Arc<[(Key, Value)]> = pairs.into_iter().collect();
        let ascending = pairs.windows(2).all(|w| w[0].0 < w[1].0);
        ascending.then_some(Props(pairs))
    }

    /// Convenience constructor for an entity that only carries a type label.
    pub fn typed(type_label: &str) -> Self {
        Props(Arc::from([(type_key(), Value::from(type_label))]))
    }

    /// Looks up a property value by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0
            .binary_search_by(|(k, _)| k.as_ref().cmp(key))
            .ok()
            .map(|i| &self.0[i].1)
    }

    /// The required `type` label, if present.
    pub fn type_label(&self) -> Option<&str> {
        self.get(TYPE_KEY).and_then(Value::as_str)
    }

    /// Number of properties.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the property set is empty (invalid for a live entity).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &Value)> {
        self.0.iter().map(|(k, v)| (k, v))
    }

    /// Returns a new property set with `key` set to `value`.
    pub fn with(&self, key: impl Into<Key>, value: impl Into<Value>) -> Self {
        let key = key.into();
        let (at, replaced) = match self.0.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => (i, 1),
            Err(i) => (i, 0),
        };
        // Chains of slice iterators and `once` report their exact length, so
        // collecting into the `Arc` allocates the result once.
        Props(
            self.0[..at]
                .iter()
                .cloned()
                .chain(std::iter::once((key, value.into())))
                .chain(self.0[at + replaced..].iter().cloned())
                .collect(),
        )
    }

    /// Returns a new property set without `key`.
    pub fn without(&self, key: &str) -> Self {
        let v: Vec<(Key, Value)> = self
            .0
            .iter()
            .filter(|(k, _)| k.as_ref() != key)
            .cloned()
            .collect();
        Props(Arc::from(v))
    }

    /// Returns a new property set restricted to `keys` (preserving `type`).
    pub fn project(&self, keys: &[&str]) -> Self {
        let v: Vec<(Key, Value)> = self
            .0
            .iter()
            .filter(|(k, _)| k.as_ref() == TYPE_KEY || keys.contains(&k.as_ref()))
            .cloned()
            .collect();
        Props(Arc::from(v))
    }

    /// Returns a new property set with every `(key, value)` of `sets`
    /// written, later pairs winning: one build however many pairs.
    pub fn with_all<'a>(&self, sets: impl IntoIterator<Item = (&'a Key, Value)>) -> Self {
        let sets = sets.into_iter();
        let mut v = Vec::with_capacity(self.0.len() + sets.size_hint().1.unwrap_or(0));
        v.extend_from_slice(&self.0);
        for (key, value) in sets {
            match v.binary_search_by(|(k, _)| k.cmp(key)) {
                Ok(i) => v[i].1 = value,
                Err(i) => v.insert(i, (key.clone(), value)),
            }
        }
        Props(Arc::from(v))
    }
}

impl fmt::Debug for Props {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for (k, v) in self.iter() {
            map.entry(&k.as_ref(), &format_args!("{v}"));
        }
        map.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_sorts_and_dedups() {
        let p = Props::from_pairs([("b", 1i64), ("a", 2i64), ("b", 3i64)]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.get("a"), Some(&Value::Int(2)));
        assert_eq!(p.get("b"), Some(&Value::Int(3)));
        let keys: Vec<&str> = p.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(keys, vec!["a", "b"]);
    }

    #[test]
    fn from_sorted_keeps_ascending_keys_and_refuses_others() {
        let pair = |k: &str, v: i64| (Key::from(k), Value::Int(v));
        let p = Props::from_sorted([pair("a", 1), pair("b", 2)]);
        assert_eq!(p, Some(Props::from_pairs([("b", 2i64), ("a", 1i64)])));
        assert_eq!(Props::from_sorted([]), Some(Props::new()));
        assert_eq!(Props::from_sorted([pair("b", 1), pair("a", 2)]), None);
        assert_eq!(Props::from_sorted([pair("a", 1), pair("a", 2)]), None);
    }

    #[test]
    fn typed_constructor() {
        let p = Props::typed("person");
        assert_eq!(p.type_label(), Some("person"));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn with_and_without() {
        let p = Props::typed("person").with("school", "MIT");
        assert_eq!(p.get("school").unwrap().as_str(), Some("MIT"));
        let q = p.with("school", "CMU");
        assert_eq!(q.get("school").unwrap().as_str(), Some("CMU"));
        assert_eq!(p.get("school").unwrap().as_str(), Some("MIT")); // immutable
        let r = q.without("school");
        assert!(r.get("school").is_none());
        assert_eq!(r.type_label(), Some("person"));
    }

    #[test]
    fn value_equivalence_is_structural() {
        let a = Props::from_pairs([("type", "person"), ("school", "MIT")]);
        let b = Props::typed("person").with("school", "MIT");
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn float_values_equal_by_bits() {
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert_ne!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(Value::Float(1.5), Value::Float(1.5));
    }

    #[test]
    fn cross_type_values_never_equal() {
        assert_ne!(Value::Int(1), Value::Float(1.0));
        assert_ne!(Value::Bool(true), Value::Int(1));
        assert_ne!(Value::Str(Arc::from("1")), Value::Int(1));
    }

    #[test]
    fn value_ordering_is_total() {
        let mut vals = [
            Value::Str(Arc::from("z")),
            Value::Int(3),
            Value::Bool(false),
            Value::Float(2.5),
            Value::Int(-1),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Bool(false));
        assert_eq!(vals[1], Value::Int(-1));
        assert_eq!(vals[2], Value::Int(3));
        assert_eq!(vals[3], Value::Float(2.5));
        assert_eq!(vals[4], Value::Str(Arc::from("z")));
    }

    #[test]
    fn project_keeps_type() {
        let p = Props::from_pairs::<&str, Value>([
            ("type", "person".into()),
            ("school", "MIT".into()),
            ("age", 30i64.into()),
        ]);
        let q = p.project(&["school"]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.type_label(), Some("person"));
        assert!(q.get("age").is_none());
    }

    #[test]
    fn numeric_widening() {
        assert_eq!(Value::Int(4).as_f64(), Some(4.0));
        assert_eq!(Value::Float(4.5).as_f64(), Some(4.5));
        assert_eq!(Value::Str(Arc::from("x")).as_f64(), None);
    }
}
