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
use tgraph_core::zoom::maintenance::{decide, MaintenanceDecision};
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
    pub fn apply(&self, rt: &Runtime, mut g: AnyGraph) -> AnyGraph {
        // Correctness: the representation implementations also guard this
        // themselves; the pipeline-level insertion is the observable part of
        // the optimization.
        if self.needs_coalesced_input() {
            g = coalesce_any(rt, g);
        }
        match self {
            Step::AZoom(spec) => g.azoom(rt, spec),
            Step::WZoom(spec) => g.wzoom(rt, spec),
            Step::Switch(kind) => g.switch_to(rt, *kind),
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

    /// Executes the pipeline on `graph`, coalescing only where the lazy rule
    /// asks — the only step loop in the workspace.
    pub fn execute(&self, rt: &Runtime, graph: AnyGraph) -> AnyGraph {
        let g = self.steps.iter().fold(graph, |g, step| step.apply(rt, g));
        // Point semantics: the final result is always coalesced.
        coalesce_any(rt, g)
    }

    /// Executes and materializes the logical result.
    pub fn collect(&self, rt: &Runtime, graph: AnyGraph) -> TGraph {
        self.execute(rt, graph).to_tgraph(rt)
    }

    /// EXPLAIN rendering of the plan DAGs backing the result of running the
    /// pipeline on `graph`, one section per dataset, including verifier
    /// diagnostics and predicted data-movement footers, plus a maintenance
    /// footer: whether an ingest at `graph`'s lifespan end would patch this
    /// pipeline's result or force a recompute.
    pub fn explain(&self, rt: &Runtime, graph: AnyGraph) -> String {
        let lifespan = graph.lifespan();
        let mut out = String::new();
        for (name, analysis) in tgraph_analyze::analyze_all(&self.execute(rt, graph).lineages()) {
            let _ = writeln!(out, "== {name} ==");
            out.push_str(&analysis.render());
        }
        out.push_str("== maintenance ==\n");
        let boundary = lifespan.end;
        let _ = match decide(lifespan, boundary, &self.window_grids()) {
            MaintenanceDecision::Patch { cut } => writeln!(
                out,
                "-- ingest at {boundary}: patch — re-run suffix [{cut}, ∞), stitch at cut={cut}"
            ),
            MaintenanceDecision::Recompute { reason } => {
                writeln!(out, "-- ingest at {boundary}: recompute — {reason}")
            }
        };
        out
    }

    /// Statically verifies the plan DAGs backing the result of running the
    /// pipeline on `graph`: every elided exchange and partitioning claim
    /// must be derivable.
    ///
    /// Returns the error-severity diagnostics, prefixed with the dataset
    /// name; an empty vector means every plan is provably sound.
    pub fn verify(&self, rt: &Runtime, graph: AnyGraph) -> Vec<String> {
        tgraph_analyze::analyze_all(&self.execute(rt, graph).lineages())
            .into_iter()
            .flat_map(|(name, analysis)| {
                analysis
                    .diagnostics
                    .into_iter()
                    .filter(|d| d.severity == tgraph_analyze::Severity::Error)
                    .map(move |d| format!("{name}: {d}"))
            })
            .collect()
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
    use tgraph_core::graph::{figure1_graph_stable_ids, VertexRecord};
    use tgraph_core::props::Props;
    use tgraph_core::reference::{azoom_reference, wzoom_reference};
    use tgraph_core::time::Interval;
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
            let out = pipeline.execute(&rt, AnyGraph::load(&rt, input, kind));
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
        let out = pipeline.execute(&rt, AnyGraph::load(&rt, &g, ReprKind::Ve));
        assert_eq!(out.kind(), ReprKind::Og);
        let got = out.to_tgraph(&rt);
        assert_eq!(got.vertices, expected.vertices);
        assert_eq!(got.edges, expected.edges);

        // OG → VE direction.
        let pipeline = Pipeline::new()
            .azoom(school_spec())
            .switch_to(ReprKind::Ve)
            .wzoom(wspec());
        let out = pipeline.execute(&rt, AnyGraph::load(&rt, &g, ReprKind::Og));
        assert_eq!(out.kind(), ReprKind::Ve);
        let got = out.to_tgraph(&rt);
        assert_eq!(got.vertices, expected.vertices);
        assert_eq!(got.edges, expected.edges);
    }

    /// Figure 1 with Cat's history and the first edge each cut in two
    /// value-equal pieces: loaded into VE, it is not known to be coalesced.
    fn fragmented() -> TGraph {
        let g = figure1_graph_stable_ids();
        let mut vertices = Vec::new();
        for v in &g.vertices {
            if v.vid.0 == 3 {
                let (a, b) = (v.interval.start, v.interval.end);
                let mid = a + (b - a) / 2;
                vertices.push(VertexRecord::new(3, Interval::new(a, mid), v.props.clone()));
                vertices.push(VertexRecord::new(3, Interval::new(mid, b), v.props.clone()));
            } else {
                vertices.push(v.clone());
            }
        }
        let mut edges = g.edges.clone();
        let first = edges.remove(0);
        let (a, b) = (first.interval.start, first.interval.end);
        let mid = a + (b - a) / 2;
        for interval in [Interval::new(a, mid), Interval::new(mid, b)] {
            let mut piece = first.clone();
            piece.interval = interval;
            edges.push(piece);
        }
        TGraph::from_records(vertices, edges)
    }

    /// Why lazy coalescing is the only policy: every operator already
    /// returns coalesced output. Each step kind into VE — `aZoom^T` and
    /// `wZoom^T` on VE, and a switch into VE from RG, OG and OGC — starts
    /// from a fragmented input and must hand back a VE flagged coalesced,
    /// on which the pipeline's final `coalesce_any` runs nothing. A kernel
    /// that starts emitting uncoalesced output fails here.
    #[test]
    fn every_step_into_ve_returns_coalesced_output() {
        let rt = rt();
        let g = fragmented();
        let topo = topology_only(&g);
        let loaded = AnyGraph::load(&rt, &g, ReprKind::Ve);
        assert!(
            matches!(&loaded, AnyGraph::Ve(ve) if !ve.coalesced),
            "the fixture must start fragmented"
        );
        for (label, input, kind, step) in [
            ("aZoom on VE", &g, ReprKind::Ve, Step::AZoom(school_spec())),
            ("wZoom on VE", &g, ReprKind::Ve, Step::WZoom(wspec())),
            ("RG -> VE", &g, ReprKind::Rg, Step::Switch(ReprKind::Ve)),
            ("OG -> VE", &g, ReprKind::Og, Step::Switch(ReprKind::Ve)),
            (
                "OGC -> VE",
                &topo,
                ReprKind::Ogc,
                Step::Switch(ReprKind::Ve),
            ),
        ] {
            let out = step.apply(&rt, AnyGraph::load(&rt, input, kind));
            let AnyGraph::Ve(ve) = &out else {
                panic!("{label}: left VE for {}", out.kind());
            };
            assert!(ve.coalesced, "{label}: output not flagged coalesced");
            let before = rt.stats();
            let _ = coalesce_any(&rt, out);
            let d = rt.stats().since(&before);
            assert_eq!((d.waves, d.shuffles), (0, 0), "{label}: coalesce ran");
        }
    }

    /// EXPLAIN and the verifier see the plans behind the executed result.
    #[test]
    fn explain_and_verify_on_zoom_pipeline() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let pipeline = Pipeline::new().azoom(school_spec()).switch_to(ReprKind::Og);
        let load = || AnyGraph::load(&rt, &g, ReprKind::Ve);
        // Engine-produced plans must always verify sound.
        assert_eq!(pipeline.verify(&rt, load()), Vec::<String>::new());
        let explain = pipeline.explain(&rt, load());
        assert!(explain.contains("== og.vertices =="), "{explain}");
        assert!(explain.contains("== og.edges =="), "{explain}");
        assert!(explain.contains("shuffle"), "{explain}");
        assert!(explain.contains("-- "), "{explain}");
    }

    /// The maintenance footer says whether an ingest at the lifespan end
    /// patches the result, and why not when it recomputes.
    #[test]
    fn explain_maintenance_footer_patch_vs_recompute() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let load = || AnyGraph::load(&rt, &g, ReprKind::Ve);
        let points = WZoomSpec::points(2, Quantifier::Exists, Quantifier::Exists);
        let explain = Pipeline::new().wzoom(points.clone()).explain(&rt, load());
        assert!(
            explain.contains("== maintenance ==\n-- ingest at 9: patch — re-run suffix [9, ∞)"),
            "{explain}"
        );

        // Changes-based windows are not append-stable: the footer says why.
        let mut changes = points;
        changes.window = WindowSpec::Changes(2);
        let explain = Pipeline::new().wzoom(changes).explain(&rt, load());
        assert!(
            explain.contains("recompute — changes-windows are not append-stable"),
            "{explain}"
        );
    }

    #[test]
    fn wzoom_then_azoom_order() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let expected = azoom_reference(&wzoom_reference(&g, &wspec()), &school_spec());
        for kind in [ReprKind::Ve, ReprKind::Og] {
            let pipeline = Pipeline::new().wzoom(wspec()).azoom(school_spec());
            let out = pipeline.execute(&rt, AnyGraph::load(&rt, &g, kind));
            let got = out.to_tgraph(&rt);
            assert_eq!(got.vertices, expected.vertices, "{kind}");
            assert_eq!(got.edges, expected.edges, "{kind}");
        }
    }

    #[test]
    fn empty_pipeline_is_coalesced_identity() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let out = Pipeline::new().execute(&rt, AnyGraph::load(&rt, &g, ReprKind::Ve));
        let got = out.to_tgraph(&rt);
        let expected = tgraph_core::coalesce::coalesce_graph(&g);
        assert_eq!(got.vertices, expected.vertices);
        assert_eq!(got.edges, expected.edges);
    }
}
