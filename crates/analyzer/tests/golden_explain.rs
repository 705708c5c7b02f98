//! Golden plan tests: `aZoom^T` and `wZoom^T` over the paper's Figure-1
//! graph must produce exactly the expected shuffle/elision structure and
//! EXPLAIN rendering.
//!
//! These snapshots are the regression net for the optimizer: an accidental
//! extra shuffle, a lost elision, or a changed derivation shows up as a
//! string diff here before it shows up as a benchmark regression.

use tgraph_analyze::analyze;
use tgraph_core::graph::figure1_graph_stable_ids;
use tgraph_core::zoom::azoom::{AZoomSpec, AggSpec};
use tgraph_core::zoom::wzoom::{Quantifier, WZoomSpec};
use tgraph_dataflow::Runtime;
use tgraph_query::Pipeline;
use tgraph_repr::{AnyGraph, ReprKind};

fn rt() -> Runtime {
    Runtime::with_partitions(2, 2)
}

fn aspec() -> AZoomSpec {
    AZoomSpec::by_property("school", "school", vec![AggSpec::count("students")])
}

fn wspec() -> WZoomSpec {
    WZoomSpec::points(3, Quantifier::Exists, Quantifier::Exists)
}

/// Asserts one analyzed lineage against its golden snapshot.
fn check(
    name: &str,
    root: &std::sync::Arc<tgraph_dataflow::PlanNode>,
    shuffles: usize,
    elisions: usize,
    explain: &str,
) {
    let a = analyze(root);
    assert!(a.is_sound(), "{name}:\n{}", a.render());
    assert_eq!(a.shuffles, shuffles, "{name} shuffle count:\n{}", a.explain);
    assert_eq!(a.elisions, elisions, "{name} elision count:\n{}", a.explain);
    assert_eq!(a.explain, explain, "{name} EXPLAIN drifted:\n{}", a.explain);
}

#[test]
fn azoom_on_ve_golden() {
    let rt = rt();
    let g = figure1_graph_stable_ids();
    let pipeline = Pipeline::new().azoom(aspec());
    let load = || AnyGraph::load(&rt, &g, ReprKind::Ve);
    assert_eq!(pipeline.verify(&rt, load()), Vec::<String>::new());
    let lineages = pipeline.execute(&rt, load()).lineages();
    assert_eq!(lineages.len(), 2);

    // Vertices: one aggregation shuffle; the group-by combine rides on it.
    check(
        lineages[0].0,
        &lineages[0].1,
        1,
        0,
        "\
#1 flat_map [flat_map] unknown
  #2 group_by_key [local_combine] hash(p=2) rows~3
    #3 shuffle [shuffle(p=2)] hash(p=2) rows=3
      #4 flat_map [flat_map] unknown
        #5 source [source(p=2)] unknown rows=4
",
    );

    // Edges: two endpoint-mirroring joins share one pre-shuffled vertex
    // side (#14) — both its re-uses are elided exchanges.
    check(
        lineages[1].0,
        &lineages[1].1,
        4,
        2,
        "\
#1 flat_map [flat_map] unknown
  #2 group_by_key [local_combine] hash(p=2) rows~2
    #3 shuffle [shuffle(p=2)] hash(p=2) rows=2
      #4 map [map] unknown
        #5 flat_map [flat_map] unknown
          #6 join [join(p=2)] hash(p=2) rows=3
            #7 shuffle [shuffle(p=2)] hash(p=2) rows=2
              #8 flat_map [flat_map] unknown
                #9 join [join(p=2)] hash(p=2) rows=3
                  #10 shuffle [shuffle(p=2)] hash(p=2) rows=2
                    #11 map [map] unknown rows=2
                      #12 source [source(p=2)] unknown rows=2
                  #13 shuffle(elided) [elided_shuffle(p=2)] hash(p=2) rows=4
                    #14 shuffle [shuffle(p=2)] hash(p=2) rows=4
                      #15 map [map] unknown rows=4
                        #16 source [source(p=2)] unknown rows=4
            #17 shuffle(elided) [elided_shuffle(p=2)] hash(p=2) rows=4
              #14 (shuffle; shared, see above)
",
    );
}

#[test]
fn wzoom_on_og_golden() {
    let rt = rt();
    let g = figure1_graph_stable_ids();
    let pipeline = Pipeline::new().wzoom(wspec());
    let load = || AnyGraph::load(&rt, &g, ReprKind::Og);
    assert_eq!(pipeline.verify(&rt, load()), Vec::<String>::new());
    let lineages = pipeline.execute(&rt, load()).lineages();
    assert_eq!(lineages.len(), 2);

    // wZoom^T on OG is embarrassingly parallel: per-entity window folds,
    // zero exchanges on either relation (the §5 OG story).
    check(
        lineages[0].0,
        &lineages[0].1,
        0,
        0,
        "\
#1 flat_map [flat_map] unknown
  #2 source [source(p=2)] unknown rows=3
",
    );
    check(
        lineages[1].0,
        &lineages[1].1,
        0,
        0,
        "\
#1 flat_map [flat_map] unknown
  #2 source [source(p=2)] unknown rows=2
",
    );
}

/// `wZoom^T` removes dangling edges with two joins against the kept
/// vertices, which §3.2 needs only when the vertex quantifier is more
/// restrictive than the edge quantifier. Pins the exchanges (shuffles /
/// elided) on the edge relation of a window-3 `wZoom^T` in every
/// representation that keeps edges apart from vertices. OGC still runs the
/// check at exists/exists: gating it moves its first row to 0/0.
#[test]
fn wzoom_dangling_check_edge_exchanges_golden() {
    use Quantifier::{All, Exists};
    let rt = rt();
    let g = figure1_graph_stable_ids();
    for (vq, eq, kind, shuffles, elisions) in [
        (Exists, Exists, ReprKind::Ve, 2, 0),
        (Exists, Exists, ReprKind::Og, 0, 0),
        (Exists, Exists, ReprKind::Ogc, 3, 2),
        (All, Exists, ReprKind::Ve, 6, 2),
        (All, Exists, ReprKind::Og, 3, 2),
        (All, Exists, ReprKind::Ogc, 3, 2),
    ] {
        let pipeline = Pipeline::new().wzoom(WZoomSpec::points(3, vq, eq));
        let load = || AnyGraph::load(&rt, &g, kind);
        assert_eq!(pipeline.verify(&rt, load()), Vec::<String>::new());
        let lineages = pipeline.execute(&rt, load()).lineages();
        let (name, edges) = &lineages[1];
        let a = analyze(edges);
        assert_eq!(
            (a.shuffles, a.elisions),
            (shuffles, elisions),
            "{name} at {vq:?}/{eq:?}:\n{}",
            a.explain
        );
    }
}

/// The exchange is plan-invisible: running the same zoom with buckets
/// moved as typed vectors and round-tripped through the codec by serialized
/// shuffles must yield the identical analysis of every plan root. How bytes
/// move between map and reduce sides must never leak into plan structure,
/// row counts, or the partitioning proofs.
#[test]
fn exchange_is_plan_invisible() {
    let g = figure1_graph_stable_ids();

    let run = |serialized: bool| {
        let rt = rt();
        rt.set_serialized_shuffles(serialized);
        let before = rt.stats();
        let pipeline = Pipeline::new().azoom(aspec());
        let load = || AnyGraph::load(&rt, &g, ReprKind::Ve);
        assert_eq!(pipeline.verify(&rt, load()), Vec::<String>::new());
        let renders: Vec<(String, String)> = pipeline
            .execute(&rt, load())
            .lineages()
            .iter()
            .map(|(name, root)| {
                let a = analyze(root);
                assert!(a.is_sound(), "serialized-shuffle plan must analyze clean");
                (name.to_string(), a.render())
            })
            .collect();
        (renders, rt.stats().since(&before))
    };

    let (an_typed, d_typed) = run(false);
    let (an_serialized, d_serialized) = run(true);

    assert_eq!(
        an_typed, an_serialized,
        "analysis must not see the exchange"
    );
    assert_eq!(
        d_typed.buckets_exchanged, 0,
        "typed path must not encode buckets"
    );
    assert!(
        d_serialized.buckets_exchanged > 0,
        "serialized run must actually have encoded buckets"
    );
    assert!(d_serialized.bytes_exchanged > 0);
}
