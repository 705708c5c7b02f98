//! Reified operator lineage: every [`Dataset`](crate::Dataset) carries an
//! [`Arc<PlanNode>`] describing the logical plan that produced it.
//!
//! The closure-based `Plan` inside a dataset is opaque — it fuses narrow
//! operators into one producer function and cannot be inspected. `PlanNode`
//! is its walkable shadow: a persistent DAG recording every operator kind,
//! every partitioning claim, every shuffle executed or elided, and the
//! records each materialized node holds, counted when it was built. The
//! `tgraph-analyze` crate consumes this DAG to *prove* shuffle elisions
//! sound (by deriving partitioning facts bottom-up), to flag redundant
//! work, and to render EXPLAIN.
//!
//! Nodes are immutable and shared: a diamond in the DAG (one subplan consumed
//! by two operators) is represented by two parents holding the same `Arc`,
//! which is exactly the signal the analyzer uses to detect re-executed
//! narrow chains.

use crate::dataset::Partitioning;
use std::sync::Arc;

/// The operator class of a plan node — what the verifier reasons about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Materialized input partitions (leaf).
    Source {
        /// Partition count of the source.
        parts: usize,
    },
    /// Element-wise transformation; destroys any partitioning invariant.
    Map,
    /// One-to-many transformation; destroys any partitioning invariant.
    FlatMap,
    /// Predicate filter; records pass through untouched, so the input's
    /// partitioning invariant is preserved.
    Filter,
    /// Whole-partition transformation; destroys any partitioning invariant.
    MapPartitions,
    /// Key-preserving value transformation (`map_values`); preserves hash
    /// partitioning because keys are untouched.
    MapValues,
    /// Per-partition combine/grouping keyed by the same key
    /// (`reduce_by_key` / `group_by_key` local stages); key-preserving.
    LocalCombine,
    /// Concatenation of two inputs; destroys partitioning invariants.
    Union,
    /// An executed hash shuffle over `parts` partitions — establishes
    /// `HashByKey { parts }`.
    Shuffle {
        /// Output partition count (hash modulus).
        parts: usize,
    },
    /// A shuffle that was *elided* because the input claimed the required
    /// partitioning. Sound only if `HashByKey { parts }` is derivable for
    /// the input — the central fact the verifier checks.
    ElidedShuffle {
        /// Partition count the elided exchange would have used.
        parts: usize,
    },
    /// Co-partitioned hash join output — establishes `HashByKey { parts }`.
    Join {
        /// Output partition count.
        parts: usize,
    },
    /// An *unchecked* partitioning claim (`with_partitioning`): the tag was
    /// stamped by fiat, not established by an exchange. The verifier rejects
    /// claims it cannot derive from the input.
    Claim,
    /// An explicit materialization boundary (`materialize()`); preserves
    /// the input's partitioning invariant.
    Materialize,
}

impl OpKind {
    /// Whether this operator is narrow (no exchange): its work re-runs every
    /// time the plan above it executes, unless materialized.
    pub fn is_narrow(&self) -> bool {
        matches!(
            self,
            OpKind::Map
                | OpKind::FlatMap
                | OpKind::Filter
                | OpKind::MapPartitions
                | OpKind::MapValues
                | OpKind::LocalCombine
                | OpKind::Union
                | OpKind::Claim
        )
    }

    /// Whether this operator preserves its input's partitioning invariant
    /// (keys untouched, records not rerouted).
    pub fn preserves_partitioning(&self) -> bool {
        matches!(
            self,
            OpKind::Filter
                | OpKind::MapValues
                | OpKind::LocalCombine
                | OpKind::Materialize
                | OpKind::ElidedShuffle { .. }
                | OpKind::Claim
        )
    }
}

/// One node of the reified plan DAG. Immutable; shared via `Arc`.
#[derive(Clone, Debug)]
pub struct PlanNode {
    /// Human-readable operator label for EXPLAIN output.
    pub label: &'static str,
    /// Operator class.
    pub op: OpKind,
    /// The partitioning tag carried by the dataset this node produced.
    pub claimed: Partitioning,
    /// Records this node holds, counted when it was materialized: set for
    /// sources, materializations, shuffles (the records the exchange moved)
    /// and joins, and carried through by wrappers that pass their input on
    /// unchanged (claims, relabels). `None` for deferred narrow operators,
    /// whose output has not been produced, and for elided shuffles, which
    /// moved nothing: the `rows` of shuffle nodes sum to the records moved.
    pub rows: Option<u64>,
    /// Upstream plan nodes (0 for sources, 1 for most ops, 2 for joins
    /// and unions).
    pub inputs: Vec<Arc<PlanNode>>,
}

impl PlanNode {
    /// Builds a node. `rows` is the counted output size, if the node has
    /// been materialized (see [`PlanNode::rows`]).
    pub fn new(
        label: &'static str,
        op: OpKind,
        claimed: Partitioning,
        rows: Option<u64>,
        inputs: Vec<Arc<PlanNode>>,
    ) -> Arc<PlanNode> {
        Arc::new(PlanNode {
            label,
            op,
            claimed,
            rows,
            inputs,
        })
    }

    /// A source leaf holding `rows` elements.
    pub fn source(
        label: &'static str,
        parts: usize,
        claimed: Partitioning,
        rows: u64,
    ) -> Arc<PlanNode> {
        PlanNode::new(
            label,
            OpKind::Source { parts },
            claimed,
            Some(rows),
            Vec::new(),
        )
    }

    /// The distinct nodes of the DAGs rooted at `roots`, each once however
    /// many parents or roots share it: the one traversal behind
    /// [`node_count`](PlanNode::node_count) and
    /// [`counted_rows`](PlanNode::counted_rows).
    fn distinct<'a>(roots: impl IntoIterator<Item = &'a Arc<PlanNode>>) -> Vec<&'a PlanNode> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        let mut stack: Vec<&PlanNode> = roots.into_iter().map(|r| &**r).collect();
        while let Some(node) = stack.pop() {
            if seen.insert(std::ptr::from_ref(node)) {
                out.push(node);
                stack.extend(node.inputs.iter().map(|i| &**i));
            }
        }
        out
    }

    /// Number of distinct nodes in the DAG rooted here (shared nodes counted
    /// once).
    pub fn node_count(self: &Arc<Self>) -> usize {
        PlanNode::distinct([self]).len()
    }

    /// The records the DAGs rooted at `roots` counted: the sum of
    /// [`rows`](PlanNode::rows) over their distinct nodes (the sources,
    /// exchanges, joins and materializations EXPLAIN shows as `rows=`). A
    /// node two roots share, as a VE graph's vertex and edge plans do, is
    /// counted once. Deterministic for a given input and plan.
    pub fn counted_rows<'a>(roots: impl IntoIterator<Item = &'a Arc<PlanNode>>) -> u64 {
        PlanNode::distinct(roots)
            .iter()
            .filter_map(|n| n.rows)
            .sum()
    }
}

/// 64-bit FNV-1a with the standard explicit seed: the stable primitive
/// under [`fnv1a`], and — through its [`std::hash::Hasher`] impl — under
/// the shuffle partitioner's `bucket_of`, so persisted partition layouts
/// and elision claims cannot drift across Rust releases the way
/// `DefaultHasher` (explicitly unspecified) can.
pub(crate) struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Fnv {
        Fnv(Self::OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

impl std::hash::Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        Fnv::write(self, bytes);
    }

    // Fixed-width integers feed little-endian bytes regardless of host
    // endianness, so one key hashes identically on every platform.
    fn write_u8(&mut self, v: u8) {
        Fnv::write(self, &[v]);
    }
    fn write_u16(&mut self, v: u16) {
        Fnv::write(self, &v.to_le_bytes());
    }
    fn write_u32(&mut self, v: u32) {
        Fnv::write(self, &v.to_le_bytes());
    }
    fn write_u64(&mut self, v: u64) {
        Fnv::write_u64(self, v);
    }
    fn write_u128(&mut self, v: u128) {
        Fnv::write(self, &v.to_le_bytes());
    }
    fn write_usize(&mut self, v: usize) {
        Fnv::write_u64(self, v as u64);
    }
    fn write_i8(&mut self, v: i8) {
        self.write_u8(v as u8);
    }
    fn write_i16(&mut self, v: i16) {
        self.write_u16(v as u16);
    }
    fn write_i32(&mut self, v: i32) {
        self.write_u32(v as u32);
    }
    fn write_i64(&mut self, v: i64) {
        Fnv::write_u64(self, v as u64);
    }
    fn write_i128(&mut self, v: i128) {
        self.write_u128(v as u128);
    }
    fn write_isize(&mut self, v: isize) {
        Fnv::write_u64(self, v as u64);
    }
}

/// 64-bit FNV-1a of `bytes`: the digest the serving protocol reports as a
/// response's `fingerprint`, stable across runs, processes and platforms.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_identity_and_count() {
        let src = PlanNode::source("v", 2, Partitioning::Unknown, 10);
        let a = PlanNode::new(
            "map",
            OpKind::Map,
            Partitioning::Unknown,
            None,
            vec![src.clone()],
        );
        let b = PlanNode::new(
            "filter",
            OpKind::Filter,
            Partitioning::Unknown,
            None,
            vec![src.clone()],
        );
        let join = PlanNode::new(
            "join",
            OpKind::Join { parts: 2 },
            Partitioning::HashByKey { parts: 2 },
            Some(10),
            vec![a, b],
        );
        // Diamond: src shared by both sides, counted once.
        assert_eq!(join.node_count(), 4);
        assert_eq!(PlanNode::counted_rows([&join]), 20);
        // A second root over the same source adds only its own rows.
        let shuffled = PlanNode::new(
            "shuffle",
            OpKind::Shuffle { parts: 2 },
            Partitioning::HashByKey { parts: 2 },
            Some(7),
            vec![src.clone()],
        );
        assert_eq!(PlanNode::counted_rows([&join, &shuffled]), 27);
        assert_eq!(PlanNode::distinct([&join, &shuffled, &join]).len(), 5);
        assert!(OpKind::Filter.preserves_partitioning());
        assert!(!OpKind::Map.preserves_partitioning());
        assert!(OpKind::Map.is_narrow());
        assert!(!OpKind::Shuffle { parts: 2 }.is_narrow());
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
