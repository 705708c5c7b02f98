//! Operator pipelines: chaining zooms, switching representations mid-query,
//! and the lazy-coalescing optimization of §4.
//!
//! The paper's API "supports chaining multiple operations together and
//! switching between graph representations during query execution". The
//! coalescing rule it derives: `aZoom^T` computes within each snapshot and
//! does **not** need coalesced input; `wZoom^T` computes across snapshots and
//! **does**. So in a chain, the system coalesces only before `wZoom^T` and
//! once at the end of the pipeline.
//!
//! [`Pipeline`] is the one spelling of a zoom chain in the workspace: the
//! serve protocol parses into it, the cost model and the maintenance planner
//! read it, and [`Pipeline::execute`] is the one step loop. What a consumer
//! needs to know about an operator is a method here, not a `match` there.

use std::fmt::Write as _;
use tgraph_core::zoom::azoom::Skolem;
use tgraph_core::zoom::{AZoomSpec, WZoomSpec, WindowSpec};
use tgraph_core::TGraph;
use tgraph_dataflow::Runtime;
use tgraph_repr::{AnyGraph, ReprKind};

/// One pipeline step.
#[derive(Clone, Debug)]
pub enum Step {
    /// Apply attribute-based zoom in the current representation.
    AZoom(AZoomSpec),
    /// Apply window-based zoom in the current representation.
    WZoom(WZoomSpec),
    /// Switch the graph to another physical representation.
    Switch(ReprKind),
}

/// Coalescing strategy for a pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoalescePolicy {
    /// Coalesce only where correctness requires it (before `wZoom^T`) and at
    /// the end of the pipeline — the paper's optimization.
    Lazy,
    /// Coalesce after every operator (the naive baseline the optimization is
    /// measured against in experiment A2).
    Eager,
}

impl Step {
    /// Whether the operator computes across snapshots and therefore needs
    /// maximal intervals on its input (`wZoom^T`); snapshot-wise operators
    /// are insensitive to fragmentation.
    pub fn needs_coalesced_input(&self) -> bool {
        matches!(self, Step::WZoom(_))
    }

    /// Applies this one step to `g`. Representations track their own
    /// coalesced-ness where they can (VE carries a flag; OG/OGC histories are
    /// coalesced by construction; RG is conceptually always
    /// snapshot-normalized), so coalescing is a no-op where the data is
    /// already maximal.
    pub fn apply(&self, rt: &Runtime, mut g: AnyGraph, policy: CoalescePolicy) -> AnyGraph {
        // Correctness: the representation implementations also guard this
        // themselves; the pipeline-level insertion is the observable part of
        // the optimization.
        if self.needs_coalesced_input() {
            g = coalesce_any(rt, g);
        }
        let out = match self {
            Step::AZoom(spec) => g.azoom(rt, spec),
            Step::WZoom(spec) => g.wzoom(rt, spec),
            Step::Switch(kind) => return g.switch_to(rt, *kind),
        };
        match policy {
            CoalescePolicy::Lazy => out,
            CoalescePolicy::Eager => coalesce_any(rt, out),
        }
    }

    /// Appends the canonical text of this step. Every string a client
    /// supplied is written quoted and escaped (`{:?}`), so no choice of
    /// property, type or output name can make two different steps read the
    /// same.
    fn write_canonical(&self, s: &mut String) {
        match self {
            Step::Switch(k) => {
                let _ = write!(s, "switch({k})");
            }
            Step::AZoom(a) => {
                s.push_str("azoom(skolem=");
                let _ = match &a.skolem {
                    Skolem::ByProperty(k) => write!(s, "ByProperty({k:?})"),
                    Skolem::ByProperties(ks) => write!(s, "ByProperties({ks:?})"),
                    Skolem::ByType => write!(s, "ByType"),
                    Skolem::Custom { name, .. } => write!(s, "Custom({name})"),
                };
                let _ = write!(s, ",type={:?}", a.new_type);
                for agg in a.aggs.iter() {
                    let _ = write!(s, ",{:?}={:?}", agg.output, agg.f);
                }
                s.push(')');
            }
            Step::WZoom(w) => {
                let _ = write!(
                    s,
                    "wzoom(window={:?},vq={:?},eq={:?},rv={:?},re={:?}",
                    w.window,
                    w.vertex_quantifier,
                    w.edge_quantifier,
                    w.vertex_resolve,
                    w.edge_resolve
                );
                for (k, f) in &w.vertex_overrides {
                    let _ = write!(s, ",v.{k:?}={f:?}");
                }
                for (k, f) in &w.edge_overrides {
                    let _ = write!(s, ",e.{k:?}={f:?}");
                }
                s.push(')');
            }
        }
    }
}

/// A chain of zoom operators with optional representation switches.
#[derive(Clone, Debug, Default)]
pub struct Pipeline {
    steps: Vec<Step>,
}

impl Pipeline {
    /// An empty pipeline (identity, modulo the final coalesce).
    pub fn new() -> Self {
        Pipeline::default()
    }

    /// Appends a step.
    pub fn push(&mut self, step: Step) {
        self.steps.push(step);
    }

    /// Appends an attribute-based zoom.
    pub fn azoom(mut self, spec: AZoomSpec) -> Self {
        self.push(Step::AZoom(spec));
        self
    }

    /// Appends a window-based zoom.
    pub fn wzoom(mut self, spec: WZoomSpec) -> Self {
        self.push(Step::WZoom(spec));
        self
    }

    /// Appends a representation switch.
    pub fn switch_to(mut self, kind: ReprKind) -> Self {
        self.push(Step::Switch(kind));
        self
    }

    /// The steps of the pipeline.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Every step paired with the representation it runs in when the
    /// pipeline starts in `first`: switches are tracked, so a step after
    /// `Switch(k)` sees `k`.
    pub fn steps_with_repr(&self, first: ReprKind) -> impl Iterator<Item = (ReprKind, &Step)> {
        self.steps.iter().scan(first, |repr, step| {
            let here = *repr;
            if let Step::Switch(k) = step {
                *repr = *k;
            }
            Some((here, step))
        })
    }

    /// The first `aZoom^T` that would run in a representation storing no
    /// attributes (OGC, §3.1) when the pipeline starts in `first`: its index
    /// and that representation. `None` means the pipeline is valid there.
    pub fn first_unsupported(&self, first: ReprKind) -> Option<(usize, ReprKind)> {
        self.steps_with_repr(first)
            .enumerate()
            .find_map(|(i, (repr, step))| {
                (matches!(step, Step::AZoom(_)) && !repr.supports_azoom()).then_some((i, repr))
            })
    }

    /// The window grid of every `wZoom^T` step, in order: the alignment
    /// constraints incremental maintenance must respect
    /// (`tgraph_core::zoom::maintenance::decide`). Snapshot-wise steps never
    /// constrain the cut.
    pub fn window_grids(&self) -> Vec<WindowSpec> {
        self.steps
            .iter()
            .filter_map(|step| match step {
                Step::WZoom(spec) => Some(spec.window),
                _ => None,
            })
            .collect()
    }

    /// A canonical, whitespace-free description of the steps (`;`-joined):
    /// identical for any two pipelines that compute the same thing the same
    /// way, different otherwise. The serve layer keys its result cache and
    /// its maintenance seeds on it.
    pub fn canonical(&self) -> String {
        let mut s = String::new();
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 {
                s.push(';');
            }
            step.write_canonical(&mut s);
        }
        s
    }

    /// Executes the pipeline on `graph` with the given coalescing policy —
    /// the only step loop in the workspace.
    pub fn execute(&self, rt: &Runtime, graph: AnyGraph, policy: CoalescePolicy) -> AnyGraph {
        let g = self
            .steps
            .iter()
            .fold(graph, |g, step| step.apply(rt, g, policy));
        // Point semantics: the final result is always coalesced.
        coalesce_any(rt, g)
    }

    /// Executes lazily and materializes the logical result — what
    /// [`Session::collect`](crate::Session::collect) is to a session.
    pub fn collect(&self, rt: &Runtime, graph: AnyGraph) -> TGraph {
        self.execute(rt, graph, CoalescePolicy::Lazy).to_tgraph(rt)
    }
}

/// Coalesces a graph in its current representation (no-op where the
/// representation is coalesced by construction).
pub fn coalesce_any(rt: &Runtime, g: AnyGraph) -> AnyGraph {
    match g {
        AnyGraph::Ve(ve) => AnyGraph::Ve(ve.coalesce(rt)),
        // OG/OGC keep per-entity histories coalesced by construction; RG's
        // snapshots are definitionally one per no-change interval.
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph_core::graph::figure1_graph_stable_ids;
    use tgraph_core::props::Props;
    use tgraph_core::reference::{azoom_reference, wzoom_reference};
    use tgraph_core::zoom::azoom::AggSpec;
    use tgraph_core::zoom::wzoom::Quantifier;

    fn rt() -> Runtime {
        Runtime::with_partitions(4, 4)
    }

    fn school_spec() -> AZoomSpec {
        AZoomSpec::by_property("school", "school", vec![AggSpec::count("students")])
    }

    fn wspec() -> WZoomSpec {
        WZoomSpec::points(3, Quantifier::Exists, Quantifier::Exists)
    }

    /// Every attribute but `type` dropped: what OGC stores of a graph.
    fn topology_only(g: &TGraph) -> TGraph {
        let mut g = g.clone();
        for v in &mut g.vertices {
            v.props = Props::typed(v.props.type_label().unwrap_or(""));
        }
        for e in &mut g.edges {
            e.props = Props::typed(e.props.type_label().unwrap_or(""));
        }
        tgraph_core::coalesce::coalesce_graph(&g)
    }

    /// Chains must equal composing the reference evaluators: the two-zoom
    /// chain in every attribute-carrying representation, the same chain with
    /// a switch in the middle, and the `wZoom^T`-only chain OGC can run.
    #[test]
    fn chain_azoom_then_wzoom_matches_reference_composition() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let topo = topology_only(&g);
        let chain = Pipeline::new().azoom(school_spec()).wzoom(wspec());
        let chain_ref = wzoom_reference(&azoom_reference(&g, &school_spec()), &wspec());
        let switched = Pipeline::new()
            .azoom(school_spec())
            .switch_to(ReprKind::Og)
            .wzoom(wspec());
        let windows = Pipeline::new().wzoom(wspec());
        let windows_ref = wzoom_reference(&topo, &wspec());

        for (input, kind, pipeline, expected) in [
            (&g, ReprKind::Ve, &chain, &chain_ref),
            (&g, ReprKind::Og, &chain, &chain_ref),
            (&g, ReprKind::Rg, &chain, &chain_ref),
            (&g, ReprKind::Ve, &switched, &chain_ref),
            (&g, ReprKind::Rg, &switched, &chain_ref),
            (&topo, ReprKind::Ogc, &windows, &windows_ref),
        ] {
            assert_eq!(pipeline.first_unsupported(kind), None, "{kind}");
            let out = pipeline.execute(&rt, AnyGraph::load(&rt, input, kind), CoalescePolicy::Lazy);
            let got = out.to_tgraph(&rt);
            let what = pipeline.canonical();
            assert_eq!(got.vertices, expected.vertices, "{kind}: {what}");
            assert_eq!(got.edges, expected.edges, "{kind}: {what}");
        }
    }

    /// The per-operator facts consumers read instead of matching on steps.
    #[test]
    fn pipeline_answers_what_the_cost_model_and_planner_ask() {
        let p = Pipeline::new()
            .wzoom(wspec())
            .switch_to(ReprKind::Ogc)
            .azoom(school_spec());
        let reprs: Vec<ReprKind> = p.steps_with_repr(ReprKind::Ve).map(|(r, _)| r).collect();
        assert_eq!(reprs, [ReprKind::Ve, ReprKind::Ve, ReprKind::Ogc]);
        assert_eq!(p.first_unsupported(ReprKind::Ve), Some((2, ReprKind::Ogc)));
        assert_eq!(p.window_grids(), [wspec().window]);
        assert_eq!(
            p.steps()
                .iter()
                .map(Step::needs_coalesced_input)
                .collect::<Vec<_>>(),
            [true, false, false]
        );
    }

    /// Unquoted, both of these read `azoom(skolem=ByType,type=t,x=Count)`.
    #[test]
    fn canonical_text_quotes_client_strings() {
        let counted = AZoomSpec {
            skolem: Skolem::ByType,
            new_type: "t".into(),
            aggs: vec![AggSpec::count("x")].into(),
        };
        let forged = AZoomSpec {
            skolem: Skolem::ByType,
            new_type: "t,x=Count".into(),
            aggs: Vec::new().into(),
        };
        let text = |spec| Pipeline::new().azoom(spec).wzoom(wspec()).canonical();
        assert_ne!(text(counted.clone()), text(forged));
        assert_eq!(
            text(counted),
            "azoom(skolem=ByType,type=\"t\",\"x\"=Count);\
             wzoom(window=Points(3),vq=Exists,eq=Exists,rv=Any,re=Any)"
        );
    }

    #[test]
    fn chain_with_representation_switch() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let expected = wzoom_reference(&azoom_reference(&g, &school_spec()), &wspec());

        // aZoom on VE, switch to OG, wZoom on OG — the paper's VE-OG chain.
        let pipeline = Pipeline::new()
            .azoom(school_spec())
            .switch_to(ReprKind::Og)
            .wzoom(wspec());
        let out = pipeline.execute(
            &rt,
            AnyGraph::load(&rt, &g, ReprKind::Ve),
            CoalescePolicy::Lazy,
        );
        assert_eq!(out.kind(), ReprKind::Og);
        let got = out.to_tgraph(&rt);
        assert_eq!(got.vertices, expected.vertices);
        assert_eq!(got.edges, expected.edges);

        // OG → VE direction.
        let pipeline = Pipeline::new()
            .azoom(school_spec())
            .switch_to(ReprKind::Ve)
            .wzoom(wspec());
        let out = pipeline.execute(
            &rt,
            AnyGraph::load(&rt, &g, ReprKind::Og),
            CoalescePolicy::Lazy,
        );
        assert_eq!(out.kind(), ReprKind::Ve);
        let got = out.to_tgraph(&rt);
        assert_eq!(got.vertices, expected.vertices);
        assert_eq!(got.edges, expected.edges);
    }

    #[test]
    fn lazy_and_eager_agree() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let pipeline = Pipeline::new().azoom(school_spec()).wzoom(wspec());
        let lazy = pipeline
            .execute(
                &rt,
                AnyGraph::load(&rt, &g, ReprKind::Ve),
                CoalescePolicy::Lazy,
            )
            .to_tgraph(&rt);
        let eager = pipeline
            .execute(
                &rt,
                AnyGraph::load(&rt, &g, ReprKind::Ve),
                CoalescePolicy::Eager,
            )
            .to_tgraph(&rt);
        assert_eq!(lazy.vertices, eager.vertices);
        assert_eq!(lazy.edges, eager.edges);
    }

    #[test]
    fn wzoom_then_azoom_order() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let expected = azoom_reference(&wzoom_reference(&g, &wspec()), &school_spec());
        for kind in [ReprKind::Ve, ReprKind::Og] {
            let pipeline = Pipeline::new().wzoom(wspec()).azoom(school_spec());
            let out = pipeline.execute(&rt, AnyGraph::load(&rt, &g, kind), CoalescePolicy::Lazy);
            let got = out.to_tgraph(&rt);
            assert_eq!(got.vertices, expected.vertices, "{kind}");
            assert_eq!(got.edges, expected.edges, "{kind}");
        }
    }

    #[test]
    fn empty_pipeline_is_coalesced_identity() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let out = Pipeline::new().execute(
            &rt,
            AnyGraph::load(&rt, &g, ReprKind::Ve),
            CoalescePolicy::Lazy,
        );
        let got = out.to_tgraph(&rt);
        let expected = tgraph_core::coalesce::coalesce_graph(&g);
        assert_eq!(got.vertices, expected.vertices);
        assert_eq!(got.edges, expected.edges);
    }
}
