//! The static plan verifier: walks a reified [`PlanNode`] DAG and
//! (a) **proves elisions sound** — every `ElidedShuffle { parts }` and every
//! `Claim` of `HashByKey { parts }` must be *derivable* from the input by
//! the partitioning-propagation rules below, otherwise the plan is rejected
//! with an error diagnostic;
//! (b) **flags redundant work** — duplicate narrow subplans that re-execute
//! per consumer, shuffles whose input is provably already partitioned the
//! same way, and materialization barriers that break narrow-chain fusion;
//! (c) **renders EXPLAIN** — the DAG with each node's operator, claimed tag
//! and, where the node was materialized, its counted `rows=`. A `Shuffle`
//! node's rows are the records that exchange moved: the plan reports
//! measured movement, never a guess.
//!
//! ## Derivation rules
//!
//! A node *derives* `HashByKey { parts }` iff:
//! * it is a `Shuffle { parts }` or `Join { parts }` (an exchange placed it);
//! * it is a `Source` whose recorded tag is `HashByKey { parts }`
//!   (materialized data whose placement was established when it was built —
//!   the leaf trust anchor); or
//! * it is a partitioning-preserving operator (`Filter`, `MapValues`,
//!   `LocalCombine`, `Materialize`, `ElidedShuffle`, `Claim`) whose input
//!   derives `HashByKey { parts }`.
//!
//! Everything else (`Map`, `FlatMap`, `MapPartitions`, `Union`) derives
//! `Unknown`: keys may have changed or records moved, so no placement fact
//! survives.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;
use tgraph_dataflow::{OpKind, Partitioning, PlanNode};

/// Diagnostic severity. Errors make the plan unsound; warnings flag
/// redundant work.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The plan would compute wrong results (unsound elision or claim).
    Error,
    /// The plan is correct but does redundant work.
    Warning,
}

/// What the verifier found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiagnosticKind {
    /// A `Claim` of `HashByKey` that the derivation rules cannot establish.
    UnsoundClaim {
        /// The partitioning the claim asserts.
        claimed: Partitioning,
        /// What is actually derivable at that point.
        derived: Partitioning,
    },
    /// An `ElidedShuffle { parts }` whose input does not derive
    /// `HashByKey { parts }` — the engine skipped an exchange it needed.
    UnsoundElision {
        /// Partition count the elision assumed.
        parts: usize,
        /// What is actually derivable for the input.
        derived: Partitioning,
    },
    /// A `Shuffle { parts }` whose input already derives
    /// `HashByKey { parts }`: the exchange moves data that is provably in
    /// place (an elision the runtime tag system missed).
    RedundantShuffle {
        /// Partition count of the redundant exchange.
        parts: usize,
    },
    /// A narrow node consumed by more than one downstream operator: its
    /// fused chain re-executes once per consumer unless materialized.
    DuplicateSubplan {
        /// Number of consumers observed in the DAG.
        consumers: usize,
    },
    /// A `Materialize` barrier sandwiched between narrow operators,
    /// splitting what would otherwise fuse into one pass.
    FusionBreak,
}

impl DiagnosticKind {
    /// Stable kebab-case code used in rendered diagnostics.
    pub fn code(&self) -> &'static str {
        match self {
            DiagnosticKind::UnsoundClaim { .. } => "unsound-claim",
            DiagnosticKind::UnsoundElision { .. } => "unsound-elision",
            DiagnosticKind::RedundantShuffle { .. } => "redundant-shuffle",
            DiagnosticKind::DuplicateSubplan { .. } => "duplicate-subplan",
            DiagnosticKind::FusionBreak => "fusion-break",
        }
    }
}

/// One ranked finding, anchored to a display id in the EXPLAIN rendering.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// `#n` display id of the node in [`Analysis::explain`].
    pub node: usize,
    /// Operator label of the node.
    pub label: &'static str,
    /// The finding.
    pub kind: DiagnosticKind,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(
            f,
            "{sev}[{}] at #{} {}: ",
            self.kind.code(),
            self.node,
            self.label
        )?;
        match &self.kind {
            DiagnosticKind::UnsoundClaim { claimed, derived } => write!(
                f,
                "claims {} but only {} is derivable",
                tag_str(*claimed),
                tag_str(*derived)
            ),
            DiagnosticKind::UnsoundElision { parts, derived } => write!(
                f,
                "elided an exchange assuming hash(p={parts}) but only {} is derivable",
                tag_str(*derived)
            ),
            DiagnosticKind::RedundantShuffle { parts } => write!(
                f,
                "input already derives hash(p={parts}); this exchange re-moves placed data"
            ),
            DiagnosticKind::DuplicateSubplan { consumers } => write!(
                f,
                "consumed by {consumers} operators; its fused chain re-executes per consumer \
                 (consider materialize())"
            ),
            DiagnosticKind::FusionBreak => write!(
                f,
                "materialization barrier between narrow operators splits a fusable chain"
            ),
        }
    }
}

/// The result of verifying one plan DAG.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Findings, errors first (then warnings), each in DAG display order.
    pub diagnostics: Vec<Diagnostic>,
    /// Executed exchanges in the plan.
    pub shuffles: usize,
    /// Elided exchanges in the plan.
    pub elisions: usize,
    /// Distinct nodes in the DAG.
    pub nodes: usize,
    /// EXPLAIN-style tree rendering of the DAG.
    pub explain: String,
}

impl Analysis {
    /// Whether the plan is sound: no error-severity diagnostics.
    pub fn is_sound(&self) -> bool {
        self.diagnostics
            .iter()
            .all(|d| d.severity != Severity::Error)
    }

    /// The EXPLAIN tree followed by the ranked diagnostics.
    pub fn render(&self) -> String {
        let mut out = self.explain.clone();
        if self.diagnostics.is_empty() {
            out.push_str("-- no diagnostics\n");
        } else {
            for d in &self.diagnostics {
                let _ = writeln!(out, "{d}");
            }
        }
        let _ = writeln!(
            out,
            "-- {} nodes, {} shuffles ({} elided)",
            self.nodes, self.shuffles, self.elisions
        );
        out
    }
}

fn tag_str(p: Partitioning) -> String {
    match p {
        Partitioning::Unknown => "unknown".to_string(),
        Partitioning::HashByKey { parts } => format!("hash(p={parts})"),
    }
}

fn op_str(op: OpKind) -> String {
    match op {
        OpKind::Source { parts } => format!("source(p={parts})"),
        OpKind::Map => "map".to_string(),
        OpKind::FlatMap => "flat_map".to_string(),
        OpKind::Filter => "filter".to_string(),
        OpKind::MapPartitions => "map_partitions".to_string(),
        OpKind::MapValues => "map_values".to_string(),
        OpKind::LocalCombine => "local_combine".to_string(),
        OpKind::Union => "union".to_string(),
        OpKind::Shuffle { parts } => format!("shuffle(p={parts})"),
        OpKind::ElidedShuffle { parts } => format!("elided_shuffle(p={parts})"),
        OpKind::Join { parts } => format!("join(p={parts})"),
        OpKind::Claim => "claim".to_string(),
        OpKind::Materialize => "materialize".to_string(),
    }
}

type NodeKey = usize;

fn key(n: &Arc<PlanNode>) -> NodeKey {
    Arc::as_ptr(n) as usize
}

/// Walk state shared by the passes.
struct Walk {
    /// Node → partitioning derivable at that node.
    derived: HashMap<NodeKey, Partitioning>,
    /// Node → display id (preorder, root-first).
    ids: HashMap<NodeKey, usize>,
    /// Node → number of distinct consumers.
    consumers: HashMap<NodeKey, usize>,
    next_id: usize,
}

/// Bottom-up partitioning derivation (memoized; iterative to tolerate deep
/// narrow chains).
fn derive(root: &Arc<PlanNode>, w: &mut Walk) -> Partitioning {
    if let Some(p) = w.derived.get(&key(root)) {
        return *p;
    }
    let mut stack: Vec<Arc<PlanNode>> = vec![Arc::clone(root)];
    while let Some(n) = stack.last().cloned() {
        if w.derived.contains_key(&key(&n)) {
            stack.pop();
            continue;
        }
        let pending: Vec<Arc<PlanNode>> = n
            .inputs
            .iter()
            .filter(|i| !w.derived.contains_key(&key(i)))
            .cloned()
            .collect();
        if !pending.is_empty() {
            stack.extend(pending);
            continue;
        }
        let p = match n.op {
            OpKind::Source { .. } => n.claimed,
            OpKind::Shuffle { parts } | OpKind::Join { parts } => Partitioning::HashByKey { parts },
            op if op.preserves_partitioning() => match n.inputs.first() {
                Some(i) => w.derived[&key(i)],
                None => Partitioning::Unknown,
            },
            _ => Partitioning::Unknown,
        };
        w.derived.insert(key(&n), p);
        stack.pop();
    }
    w.derived[&key(root)]
}

/// Collects every distinct node of the DAG and counts each node's
/// consumers (a node listed twice in one parent's inputs counts twice: it is
/// produced twice).
fn collect_nodes(root: &Arc<PlanNode>, w: &mut Walk) -> Vec<Arc<PlanNode>> {
    let mut nodes = Vec::new();
    let mut stack = vec![Arc::clone(root)];
    let mut visited: HashSet<NodeKey> = HashSet::new();
    while let Some(n) = stack.pop() {
        if !visited.insert(key(&n)) {
            continue;
        }
        for i in &n.inputs {
            *w.consumers.entry(key(i)).or_insert(0) += 1;
            stack.push(Arc::clone(i));
        }
        nodes.push(n);
    }
    nodes
}

/// Renders the EXPLAIN tree, assigning display ids in preorder. Shared nodes
/// render their subtree once; later references point back by id.
fn render_explain(root: &Arc<PlanNode>, w: &mut Walk, out: &mut String, depth: usize) {
    let indent = "  ".repeat(depth);
    if let Some(id) = w.ids.get(&key(root)) {
        let _ = writeln!(out, "{indent}#{id} ({}; shared, see above)", root.label);
        return;
    }
    w.next_id += 1;
    let id = w.next_id;
    w.ids.insert(key(root), id);
    let rows = root.rows.map_or(String::new(), |r| format!(" rows={r}"));
    let _ = writeln!(
        out,
        "{indent}#{id} {} [{}] {}{}",
        root.label,
        op_str(root.op),
        tag_str(root.claimed),
        rows
    );
    for i in &root.inputs {
        render_explain(i, w, out, depth + 1);
    }
}

/// Verifies one plan DAG. See the module docs for the derivation rules and
/// diagnostic catalogue.
pub fn analyze(root: &Arc<PlanNode>) -> Analysis {
    let mut w = Walk {
        derived: HashMap::new(),
        ids: HashMap::new(),
        consumers: HashMap::new(),
        next_id: 0,
    };
    derive(root, &mut w);
    let nodes = collect_nodes(root, &mut w);
    let mut explain = String::new();
    render_explain(root, &mut w, &mut explain, 0);

    // Collect diagnostics in display-id order, then rank errors first.
    let mut all: Vec<(usize, Arc<PlanNode>)> =
        nodes.into_iter().map(|n| (w.ids[&key(&n)], n)).collect();
    all.sort_by_key(|(id, _)| *id);

    let mut diagnostics = Vec::new();
    let mut shuffles = 0usize;
    let mut elisions = 0usize;
    for (id, n) in &all {
        match n.op {
            OpKind::Claim => {
                if let Partitioning::HashByKey { .. } = n.claimed {
                    let input_derived = n
                        .inputs
                        .first()
                        .map(|i| w.derived[&key(i)])
                        .unwrap_or(Partitioning::Unknown);
                    if input_derived != n.claimed {
                        diagnostics.push(Diagnostic {
                            severity: Severity::Error,
                            node: *id,
                            label: n.label,
                            kind: DiagnosticKind::UnsoundClaim {
                                claimed: n.claimed,
                                derived: input_derived,
                            },
                        });
                    }
                }
            }
            OpKind::ElidedShuffle { parts } => {
                elisions += 1;
                let input_derived = n
                    .inputs
                    .first()
                    .map(|i| w.derived[&key(i)])
                    .unwrap_or(Partitioning::Unknown);
                if input_derived != (Partitioning::HashByKey { parts }) {
                    diagnostics.push(Diagnostic {
                        severity: Severity::Error,
                        node: *id,
                        label: n.label,
                        kind: DiagnosticKind::UnsoundElision {
                            parts,
                            derived: input_derived,
                        },
                    });
                }
            }
            OpKind::Shuffle { parts } => {
                shuffles += 1;
                if let Some(input) = n.inputs.first() {
                    if w.derived[&key(input)] == (Partitioning::HashByKey { parts }) {
                        diagnostics.push(Diagnostic {
                            severity: Severity::Warning,
                            node: *id,
                            label: n.label,
                            kind: DiagnosticKind::RedundantShuffle { parts },
                        });
                    }
                }
            }
            op if op.is_narrow() => {
                if w.consumers.get(&key(n)).copied().unwrap_or(0) > 1 {
                    diagnostics.push(Diagnostic {
                        severity: Severity::Warning,
                        node: *id,
                        label: n.label,
                        kind: DiagnosticKind::DuplicateSubplan {
                            consumers: w.consumers[&key(n)],
                        },
                    });
                }
                // Narrow op reading through a materialization barrier that
                // itself caps a narrow chain: fusion was broken in between.
                for i in &n.inputs {
                    if i.op == OpKind::Materialize
                        && i.inputs.first().is_some_and(|g| g.op.is_narrow())
                    {
                        diagnostics.push(Diagnostic {
                            severity: Severity::Warning,
                            node: w.ids[&key(i)],
                            label: i.label,
                            kind: DiagnosticKind::FusionBreak,
                        });
                    }
                }
            }
            _ => {}
        }
    }
    diagnostics.sort_by_key(|d| (d.severity, d.node));
    diagnostics.dedup_by(|a, b| a.node == b.node && a.kind == b.kind);

    Analysis {
        diagnostics,
        shuffles,
        elisions,
        nodes: all.len(),
        explain,
    }
}

/// Verifies several named plan roots (e.g. the vertex and edge datasets of a
/// graph) and returns the per-root analyses.
pub fn analyze_all(roots: &[(&str, Arc<PlanNode>)]) -> Vec<(String, Analysis)> {
    roots
        .iter()
        .map(|(name, root)| (name.to_string(), analyze(root)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph_dataflow::{Dataset, KeyedDataset, Runtime};

    #[test]
    fn rejects_hand_built_unsound_claim() {
        // source(unknown) → claim hash(p=4): underivable, must be rejected.
        let src = PlanNode::source("source", 4, Partitioning::Unknown, 100);
        let claim = PlanNode::new(
            "claim",
            OpKind::Claim,
            Partitioning::HashByKey { parts: 4 },
            Some(100),
            vec![src],
        );
        let a = analyze(&claim);
        assert!(!a.is_sound());
        assert_eq!(a.diagnostics.len(), 1);
        assert_eq!(a.diagnostics[0].severity, Severity::Error);
        assert!(matches!(
            a.diagnostics[0].kind,
            DiagnosticKind::UnsoundClaim { .. }
        ));
    }

    #[test]
    fn rejects_hand_built_unsound_elision() {
        // map destroys partitioning; eliding a shuffle right after is unsound.
        let src = PlanNode::source("source", 4, Partitioning::HashByKey { parts: 4 }, 10);
        let mapped = PlanNode::new("map", OpKind::Map, Partitioning::Unknown, None, vec![src]);
        let elided = PlanNode::new(
            "shuffle(elided)",
            OpKind::ElidedShuffle { parts: 4 },
            Partitioning::HashByKey { parts: 4 },
            None,
            vec![mapped],
        );
        let a = analyze(&elided);
        assert!(!a.is_sound());
        assert!(matches!(
            a.diagnostics[0].kind,
            DiagnosticKind::UnsoundElision { parts: 4, .. }
        ));
    }

    #[test]
    fn accepts_shuffle_then_preserving_chain_then_elision() {
        let src = PlanNode::source("source", 4, Partitioning::Unknown, 1000);
        let shuf = PlanNode::new(
            "shuffle",
            OpKind::Shuffle { parts: 4 },
            Partitioning::HashByKey { parts: 4 },
            Some(1000),
            vec![src],
        );
        let filt = PlanNode::new(
            "filter",
            OpKind::Filter,
            Partitioning::HashByKey { parts: 4 },
            None,
            vec![shuf],
        );
        let mv = PlanNode::new(
            "map_values",
            OpKind::MapValues,
            Partitioning::HashByKey { parts: 4 },
            None,
            vec![filt],
        );
        let elided = PlanNode::new(
            "shuffle(elided)",
            OpKind::ElidedShuffle { parts: 4 },
            Partitioning::HashByKey { parts: 4 },
            None,
            vec![mv],
        );
        let a = analyze(&elided);
        assert!(a.is_sound(), "diagnostics: {:?}", a.diagnostics);
        assert_eq!(a.shuffles, 1);
        assert_eq!(a.elisions, 1);
        assert!(
            a.explain.contains("[shuffle(p=4)] hash(p=4) rows=1000"),
            "{}",
            a.explain
        );
    }

    #[test]
    fn flags_redundant_reshuffle() {
        let src = PlanNode::source("source", 4, Partitioning::Unknown, 10);
        let s1 = PlanNode::new(
            "shuffle",
            OpKind::Shuffle { parts: 4 },
            Partitioning::HashByKey { parts: 4 },
            Some(10),
            vec![src],
        );
        let s2 = PlanNode::new(
            "shuffle",
            OpKind::Shuffle { parts: 4 },
            Partitioning::HashByKey { parts: 4 },
            Some(10),
            vec![s1],
        );
        let a = analyze(&s2);
        assert!(a.is_sound());
        assert!(a
            .diagnostics
            .iter()
            .any(|d| matches!(d.kind, DiagnosticKind::RedundantShuffle { parts: 4 })));
    }

    #[test]
    fn flags_duplicate_narrow_subplan() {
        let src = PlanNode::source("source", 2, Partitioning::Unknown, 10);
        let mapped = PlanNode::new("map", OpKind::Map, Partitioning::Unknown, None, vec![src]);
        let left = PlanNode::new(
            "filter",
            OpKind::Filter,
            Partitioning::Unknown,
            None,
            vec![mapped.clone()],
        );
        let right = PlanNode::new(
            "filter",
            OpKind::Filter,
            Partitioning::Unknown,
            None,
            vec![mapped],
        );
        let join = PlanNode::new(
            "join",
            OpKind::Join { parts: 2 },
            Partitioning::HashByKey { parts: 2 },
            None,
            vec![left, right],
        );
        let a = analyze(&join);
        assert!(a.is_sound());
        assert!(a
            .diagnostics
            .iter()
            .any(|d| matches!(d.kind, DiagnosticKind::DuplicateSubplan { consumers: 2 })));
    }

    #[test]
    fn flags_fusion_break() {
        let src = PlanNode::source("source", 2, Partitioning::Unknown, 10);
        let m1 = PlanNode::new("map", OpKind::Map, Partitioning::Unknown, None, vec![src]);
        let mat = PlanNode::new(
            "materialize",
            OpKind::Materialize,
            Partitioning::Unknown,
            Some(10),
            vec![m1],
        );
        let m2 = PlanNode::new("map", OpKind::Map, Partitioning::Unknown, None, vec![mat]);
        let a = analyze(&m2);
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.kind == DiagnosticKind::FusionBreak));
    }

    #[test]
    fn engine_produced_elision_plans_verify_sound() {
        // The real engine: shuffle → filter/map_values → reduce (elided).
        let rt = Runtime::with_partitions(2, 2);
        let d = Dataset::from_vec(&rt, (0..100u64).map(|i| (i % 7, i)).collect::<Vec<_>>());
        let s = tgraph_dataflow::shuffle(&rt, &d)
            .filter(|(_, v)| v % 2 == 0)
            .map_values(|v| v + 1);
        let r = s.reduce_by_key(&rt, |a, b| a + b);
        let a = analyze(&r.lineage());
        assert!(a.is_sound(), "{}", a.render());
        assert_eq!(a.shuffles, 1);
        assert_eq!(a.elisions, 1);
    }

    #[test]
    fn engine_wrong_tag_plan_is_rejected_statically() {
        // The same wrong-tag fixture checked mode catches dynamically: the
        // static verifier rejects it without running anything.
        let rt = Runtime::with_partitions(2, 2);
        let d: Dataset<(u64, u64)> =
            Dataset::from_vec(&rt, (0..10).map(|i| (i, i)).collect::<Vec<_>>());
        // Fabricate the claim via a hand-built node (the engine's audited
        // with_partitioning is crate-private).
        let claim = PlanNode::new(
            "claim",
            OpKind::Claim,
            Partitioning::HashByKey { parts: 2 },
            Some(10),
            vec![d.lineage()],
        );
        let a = analyze(&claim);
        assert!(!a.is_sound());
    }

    #[test]
    fn explain_renders_shared_nodes_once() {
        let src = PlanNode::source("source", 2, Partitioning::Unknown, 5);
        let l = PlanNode::new(
            "filter",
            OpKind::Filter,
            Partitioning::Unknown,
            None,
            vec![src.clone()],
        );
        let r = PlanNode::new("map", OpKind::Map, Partitioning::Unknown, None, vec![src]);
        let u = PlanNode::new(
            "union",
            OpKind::Union,
            Partitioning::Unknown,
            None,
            vec![l, r],
        );
        let a = analyze(&u);
        assert_eq!(a.explain.matches("[source(p=2)]").count(), 1);
        assert!(a.explain.contains("shared, see above"));
        assert_eq!(a.nodes, 4);
        assert!(a.render().ends_with("-- 4 nodes, 0 shuffles (0 elided)\n"));
    }

    #[test]
    fn one_plan_built_twice_renders_identically() {
        let build = || {
            let rt = Runtime::with_partitions(2, 2);
            Dataset::from_vec(&rt, vec![(1i64, 2i64), (3, 4)])
                .reduce_by_key(&rt, |a, b| a + b)
                .lineage()
        };
        // Process-specific node ids and `Arc` addresses stay out of the
        // rendering: the same logical plan reads the same every time.
        assert_eq!(analyze(&build()).render(), analyze(&build()).render());
    }
}
