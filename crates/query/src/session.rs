//! A small fluent session API over pipelines — the "TGraph API" surface of
//! §4, for users who want to zoom interactively rather than build explicit
//! [`Pipeline`] values.

use crate::pipeline::{coalesce_any, CoalescePolicy, Pipeline, Step};
use tgraph_core::time::{Interval, Time};
use tgraph_core::zoom::maintenance::{decide, MaintenanceDecision};
use tgraph_core::zoom::{AZoomSpec, WZoomSpec};
use tgraph_core::TGraph;
use tgraph_dataflow::Runtime;
use tgraph_repr::{AnyGraph, ReprKind};

/// A live query session holding a graph in some physical representation and
/// applying operators eagerly, one [`Step::apply`] at a time, while honoring
/// the lazy-coalescing rule.
pub struct Session<'rt> {
    rt: &'rt Runtime,
    graph: AnyGraph,
    trace: Pipeline,
    /// Lifespan of the *input* graph, captured at load — the anchor and
    /// boundary the maintenance planner reasons about.
    input_lifespan: Interval,
}

impl<'rt> Session<'rt> {
    /// Starts a session from a logical graph loaded into `kind`.
    pub fn load(rt: &'rt Runtime, g: &TGraph, kind: ReprKind) -> Self {
        Session {
            rt,
            graph: AnyGraph::load(rt, g, kind),
            trace: Pipeline::new(),
            input_lifespan: g.lifespan,
        }
    }

    /// Starts a session from an already-loaded representation.
    pub fn from_graph(rt: &'rt Runtime, graph: AnyGraph) -> Self {
        let input_lifespan = graph.lifespan();
        Session {
            rt,
            graph,
            trace: Pipeline::new(),
            input_lifespan,
        }
    }

    fn step(mut self, step: Step) -> Self {
        self.graph = step.apply(self.rt, self.graph, CoalescePolicy::Lazy);
        self.trace.push(step);
        self
    }

    /// Applies attribute-based zoom.
    pub fn azoom(self, spec: &AZoomSpec) -> Self {
        self.step(Step::AZoom(spec.clone()))
    }

    /// Applies window-based zoom (coalescing first, as correctness requires).
    pub fn wzoom(self, spec: &WZoomSpec) -> Self {
        self.step(Step::WZoom(spec.clone()))
    }

    /// Switches the physical representation.
    pub fn switch_to(self, kind: ReprKind) -> Self {
        self.step(Step::Switch(kind))
    }

    /// Current representation.
    pub fn kind(&self) -> ReprKind {
        self.graph.kind()
    }

    /// The operators applied so far, replayable as a [`Pipeline`].
    pub fn trace(&self) -> &Pipeline {
        &self.trace
    }

    /// Finishes the session: coalesces (point semantics) and returns the
    /// graph in its current representation.
    pub fn finish(self) -> AnyGraph {
        coalesce_any(self.rt, self.graph)
    }

    /// Finishes and materializes the logical result.
    pub fn collect(self) -> TGraph {
        let rt = self.rt;
        self.finish().to_tgraph(rt)
    }

    /// How a result cached from this session's trace would be brought up to
    /// date after an ingest at `boundary` (every new fact at or after it):
    /// patched from the suffix, or recomputed cold, and why.
    pub fn maintenance_plan(&self, boundary: Time) -> MaintenanceDecision {
        // The post-ingest lifespan extends at least to the boundary; the
        // anchor (start) never moves under the append invariant.
        let lifespan = Interval::new(
            self.input_lifespan.start,
            self.input_lifespan.end.max(boundary),
        );
        decide(lifespan, boundary, &self.trace.window_grids())
    }

    /// EXPLAIN rendering of the plan DAGs backing the current graph, one
    /// section per dataset, including verifier diagnostics and predicted
    /// data-movement footers, plus a maintenance footer: whether an ingest
    /// at the current lifespan end would patch this pipeline's result or
    /// force a recompute.
    pub fn explain(&self) -> String {
        let lineages = self.graph.lineages();
        let mut out = String::new();
        for (name, analysis) in tgraph_analyze::analyze_all(&lineages) {
            out.push_str(&format!("== {name} ==\n"));
            out.push_str(&analysis.render());
        }
        out.push_str("== maintenance ==\n");
        let boundary = self.input_lifespan.end;
        match self.maintenance_plan(boundary) {
            MaintenanceDecision::Patch { cut } => {
                out.push_str(&format!(
                    "-- ingest at {boundary}: patch — re-run suffix [{cut}, ∞), stitch at cut={cut}\n"
                ));
            }
            MaintenanceDecision::Recompute { reason } => {
                out.push_str(&format!("-- ingest at {boundary}: recompute — {reason}\n"));
            }
        }
        out
    }

    /// Statically verifies the plan DAGs backing the current graph: every
    /// elided exchange and partitioning claim must be derivable.
    ///
    /// Returns the error-severity diagnostics, prefixed with the dataset
    /// name; an empty vector means every plan is provably sound.
    pub fn verify(&self) -> Vec<String> {
        let lineages = self.graph.lineages();
        tgraph_analyze::analyze_all(&lineages)
            .into_iter()
            .flat_map(|(name, analysis)| {
                analysis
                    .diagnostics
                    .into_iter()
                    .filter(|d| d.severity == tgraph_analyze::Severity::Error)
                    .map(move |d| format!("{name}: {d}"))
                    .collect::<Vec<_>>()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph_core::graph::figure1_graph_stable_ids;
    use tgraph_core::reference::{azoom_reference, wzoom_reference};
    use tgraph_core::zoom::azoom::AggSpec;
    use tgraph_core::zoom::wzoom::Quantifier;

    fn rt() -> Runtime {
        Runtime::with_partitions(2, 2)
    }

    #[test]
    fn session_matches_pipeline() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let aspec = AZoomSpec::by_property("school", "school", vec![AggSpec::count("students")]);
        let wspec = WZoomSpec::points(3, Quantifier::Exists, Quantifier::Exists);

        let session_out = Session::load(&rt, &g, ReprKind::Ve)
            .azoom(&aspec)
            .switch_to(ReprKind::Og)
            .wzoom(&wspec)
            .collect();

        let expected = wzoom_reference(&azoom_reference(&g, &aspec), &wspec);
        assert_eq!(session_out.vertices, expected.vertices);
        assert_eq!(session_out.edges, expected.edges);
    }

    #[test]
    fn trace_replays_as_pipeline() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let aspec = AZoomSpec::by_property("school", "school", vec![AggSpec::count("students")]);
        let session = Session::load(&rt, &g, ReprKind::Ve).azoom(&aspec);
        let pipeline = session.trace().clone();
        assert_eq!(pipeline.steps().len(), 1);
        let replayed = pipeline
            .execute(
                &rt,
                AnyGraph::load(&rt, &g, ReprKind::Ve),
                CoalescePolicy::Lazy,
            )
            .to_tgraph(&rt);
        assert_eq!(replayed.vertices, session.collect().vertices);
    }

    #[test]
    fn explain_and_verify_on_zoom_pipeline() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let aspec = AZoomSpec::by_property("school", "school", vec![AggSpec::count("students")]);
        let session = Session::load(&rt, &g, ReprKind::Ve)
            .azoom(&aspec)
            .switch_to(ReprKind::Og);
        // Engine-produced plans must always verify sound.
        assert_eq!(session.verify(), Vec::<String>::new());
        let explain = session.explain();
        assert!(explain.contains("== og.vertices =="), "{explain}");
        assert!(explain.contains("== og.edges =="), "{explain}");
        assert!(explain.contains("shuffle"), "{explain}");
        assert!(explain.contains("-- "), "{explain}");
    }

    #[test]
    fn explain_maintenance_footer_patch_vs_recompute() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let wspec = WZoomSpec::points(2, Quantifier::Exists, Quantifier::Exists);
        let s = Session::load(&rt, &g, ReprKind::Ve).wzoom(&wspec);
        assert!(s.maintenance_plan(g.lifespan.end).is_patch());
        let explain = s.explain();
        assert!(explain.contains("== maintenance =="), "{explain}");
        assert!(explain.contains("patch"), "{explain}");

        // Changes-based windows are not append-stable: the footer says why.
        let mut cspec = wspec.clone();
        cspec.window = tgraph_core::zoom::WindowSpec::Changes(2);
        let s = Session::load(&rt, &g, ReprKind::Ve).wzoom(&cspec);
        assert!(!s.maintenance_plan(g.lifespan.end).is_patch());
        let explain = s.explain();
        assert!(
            explain.contains("recompute — changes-windows are not append-stable"),
            "{explain}"
        );
    }

    #[test]
    fn kind_tracks_switches() {
        let rt = rt();
        let g = figure1_graph_stable_ids();
        let s = Session::load(&rt, &g, ReprKind::Ve);
        assert_eq!(s.kind(), ReprKind::Ve);
        let s = s.switch_to(ReprKind::Ogc);
        assert_eq!(s.kind(), ReprKind::Ogc);
    }
}
