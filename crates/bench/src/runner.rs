//! The one measurement runner every experiment uses: a [`Pipeline`] from a
//! starting representation.
//!
//! Following §5 ("the runtime includes the setup time of submitting a job,
//! reading the data from disk, executing the operation, and materializing
//! the results in memory"), every measurement covers: building the physical
//! representation from the logical graph (the load step), executing the
//! pipeline, and materializing the result (a count that touches every output
//! partition).

use std::time::Duration;
use tgraph_core::TGraph;
use tgraph_dataflow::Runtime;
use tgraph_query::{Pipeline, Step};
use tgraph_repr::{AnyGraph, OgGraph, OgcGraph, ReprKind, RgGraph, VeGraph};

use crate::harness::{measure, Cell};

/// Statically verifies every plan DAG behind `pipeline` run on `g` loaded
/// into `first`: panics with the error diagnostics if any elision or
/// partitioning claim is underivable.
pub fn verify_plans(rt: &Runtime, g: &TGraph, first: ReprKind, pipeline: &Pipeline) {
    let errors = pipeline.verify(rt, AnyGraph::load(rt, g, first));
    assert!(
        errors.is_empty(),
        "{first}: {}: unsound plan: {errors:?}",
        pipeline.canonical()
    );
}

/// Materializes an output graph: touches every partition of the result.
fn materialize(rt: &Runtime, g: &AnyGraph) -> usize {
    match g {
        AnyGraph::Rg(g) => g.total_vertex_tuples(rt) + g.total_edge_tuples(rt),
        AnyGraph::Ve(g) => g.vertex_tuple_count(rt) + g.edge_tuple_count(rt),
        AnyGraph::Og(g) => g.vertex_count(rt) + g.edge_count(rt),
        AnyGraph::Ogc(g) => g.vertex_count(rt) + g.edge_count(rt),
    }
}

/// Loads `g` into `first`, executes `pipeline`, materializes; returns the
/// cell, or [`Cell::NotSupported`] when a step cannot run where it lands.
///
/// Under [checked mode](Runtime::checked) the plans are statically verified
/// first — every measured result is also a proven-sound plan.
pub fn run_pipeline(
    rt: &Runtime,
    g: &TGraph,
    first: ReprKind,
    pipeline: &Pipeline,
    timeout: Duration,
) -> Cell {
    if pipeline.first_unsupported(first).is_some() {
        return Cell::NotSupported;
    }
    if rt.checked() {
        verify_plans(rt, g, first, pipeline);
    }
    measure(timeout, || {
        let out = pipeline.execute(rt, AnyGraph::load(rt, g, first));
        let _ = materialize(rt, &out);
    })
}

/// A chain step sequence for Figures 16–17: which representation hosts each
/// zoom, with a switch in between when they differ.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainPlan {
    /// Representation of the first operator.
    pub first: ReprKind,
    /// Representation of the second operator.
    pub second: ReprKind,
}

impl std::fmt::Display for ChainPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.first == self.second {
            write!(f, "{}", self.first)
        } else {
            write!(f, "{}-{}", self.first, self.second)
        }
    }
}

/// The four chain plans of Figure 16: VE, OG, VE→OG, OG→VE.
pub const CHAIN_PLANS: [ChainPlan; 4] = [
    ChainPlan {
        first: ReprKind::Ve,
        second: ReprKind::Ve,
    },
    ChainPlan {
        first: ReprKind::Og,
        second: ReprKind::Og,
    },
    ChainPlan {
        first: ReprKind::Ve,
        second: ReprKind::Og,
    },
    ChainPlan {
        first: ReprKind::Og,
        second: ReprKind::Ve,
    },
];

impl ChainPlan {
    /// `first` in [`ChainPlan::first`], a switch, then `second` in
    /// [`ChainPlan::second`] (Fig. 16; Fig. 17 reorders the two zooms).
    pub fn pipeline(&self, first: Step, second: Step) -> Pipeline {
        let mut p = Pipeline::new();
        p.push(first);
        p.push(Step::Switch(self.second));
        p.push(second);
        p
    }
}

/// Re-exported concrete types so benches can build representations directly.
pub type Reprs = (RgGraph, VeGraph, OgGraph, OgcGraph);

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph_core::graph::figure1_graph_stable_ids;
    use tgraph_core::zoom::azoom::AggSpec;
    use tgraph_core::zoom::wzoom::Quantifier;
    use tgraph_core::zoom::{AZoomSpec, WZoomSpec};

    #[test]
    fn runners_produce_measurements() {
        let rt = Runtime::with_partitions(2, 2);
        let g = figure1_graph_stable_ids();
        let aspec = AZoomSpec::by_property("school", "school", vec![AggSpec::count("students")]);
        let wspec = WZoomSpec::points(3, Quantifier::Exists, Quantifier::Exists);
        let azoom = Pipeline::new().azoom(aspec.clone());
        let wzoom = Pipeline::new().wzoom(wspec.clone());
        let t = Duration::from_secs(60);
        for kind in [ReprKind::Rg, ReprKind::Ve, ReprKind::Og] {
            assert!(run_pipeline(&rt, &g, kind, &azoom, t).seconds().is_some());
        }
        assert_eq!(
            run_pipeline(&rt, &g, ReprKind::Ogc, &azoom, t),
            Cell::NotSupported
        );
        for kind in [ReprKind::Rg, ReprKind::Ve, ReprKind::Og, ReprKind::Ogc] {
            assert!(run_pipeline(&rt, &g, kind, &wzoom, t).seconds().is_some());
        }
        let (a, w) = (Step::AZoom(aspec), Step::WZoom(wspec));
        for plan in CHAIN_PLANS {
            for chain in [
                plan.pipeline(a.clone(), w.clone()),
                plan.pipeline(w.clone(), a.clone()),
            ] {
                assert!(run_pipeline(&rt, &g, plan.first, &chain, t)
                    .seconds()
                    .is_some());
            }
        }
    }

    #[test]
    fn chain_plan_display() {
        assert_eq!(CHAIN_PLANS[0].to_string(), "VE");
        assert_eq!(CHAIN_PLANS[2].to_string(), "VE-OG");
    }
}
