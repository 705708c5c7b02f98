//! `AnyGraph::append_epoch`, epoch after epoch: a resident graph that took
//! eight ingests one at a time is the graph a fresh load of base ∪ deltas
//! builds, in all four representations, and an OG or OGC resident is still
//! what a load produces: a bare materialized source, however many epochs it
//! has taken.

use tgraph_core::coalesce::coalesce_graph;
use tgraph_core::graph::{figure1_graph_stable_ids, EdgeRecord, TGraph, VertexId, VertexRecord};
use tgraph_core::props::Props;
use tgraph_core::time::Interval;
use tgraph_core::zoom::{AZoomSpec, AggSpec, Quantifier, WZoomSpec};
use tgraph_dataflow::Runtime;
use tgraph_datagen::WikiTalk;
use tgraph_repr::{AnyGraph, ReprKind};

fn rt() -> Runtime {
    Runtime::with_partitions(3, 3)
}

fn union(base: &TGraph, delta: &TGraph) -> TGraph {
    let mut vertices = base.vertices.clone();
    vertices.extend(delta.vertices.iter().cloned());
    let mut edges = base.edges.clone();
    edges.extend(delta.edges.iter().cloned());
    TGraph::from_records(vertices, edges)
}

/// Epoch `n`'s facts over `full`, all at or after its lifespan end. Every
/// shape the fold has to handle is in each delta: a vertex continuing with
/// its properties unchanged (one interval again after coalescing), one
/// continuing with a changed property, brand-new vertices, an edge of the
/// history continuing and a new edge; odd epochs start one point after the
/// boundary, leaving a gap.
fn epoch_delta(full: &TGraph, n: u64) -> TGraph {
    let since = full.lifespan.end + (n % 2) as i64;
    let span = Interval::new(since, since + 2);
    // An edge alive up to the boundary, with both endpoints alive there too.
    let state_at_end = |vid: VertexId| {
        let mut states = full.vertices.iter().filter(|v| v.vid == vid);
        states.find(|v| v.interval.end == full.lifespan.end)
    };
    let live: Vec<_> = full
        .edges
        .iter()
        .filter(|e| e.interval.end == full.lifespan.end)
        .filter_map(|e| Some((e, state_at_end(e.src)?, state_at_end(e.dst)?)))
        .collect();
    let (edge, src, dst) = live[n as usize % live.len()];
    let fresh = |i: u64| {
        let props = Props::typed("person")
            .with("name", format!("late{n}-{i}"))
            .with("editCount", (n + i) as i64);
        VertexRecord::new(1_000_000 + n * 10 + i, span, props)
    };
    let vertices = vec![
        VertexRecord {
            interval: span,
            ..src.clone()
        },
        VertexRecord {
            interval: span,
            props: dst.props.clone().with("editCount", 100 + n as i64),
            ..dst.clone()
        },
        fresh(0),
        fresh(1),
    ];
    let edges = vec![
        EdgeRecord {
            interval: span,
            ..edge.clone()
        },
        EdgeRecord::new(
            2_000_000 + n,
            vertices[2].vid.0,
            vertices[3].vid.0,
            span,
            Props::typed("message"),
        ),
    ];
    TGraph::from_records(vertices, edges)
}

fn node_counts(g: &AnyGraph) -> Vec<usize> {
    g.lineages().iter().map(|(_, n)| n.node_count()).collect()
}

fn assert_same_logical_graph(got: &AnyGraph, fresh: &AnyGraph, rt: &Runtime, what: &str) {
    assert_eq!(got.lifespan(), fresh.lifespan(), "{what}");
    let got = coalesce_graph(&got.to_tgraph(rt));
    let fresh = coalesce_graph(&fresh.to_tgraph(rt));
    assert_eq!(got.vertices, fresh.vertices, "{what}");
    assert_eq!(got.edges, fresh.edges, "{what}");
}

#[test]
fn eight_appends_equal_a_fresh_load_and_og_ogc_stay_bare_sources() {
    let rt = rt();
    let base = WikiTalk {
        vertices: 60,
        months: 10,
        edges_per_vertex: 3.0,
        edge_survival: 0.3,
        edit_count_values: 5,
        seed: 0xA99E,
    }
    .generate();
    for kind in ReprKind::all() {
        let mut full = base.clone();
        let mut resident = AnyGraph::load(&rt, &base, kind);
        for epoch in 1..=8u64 {
            let delta = epoch_delta(&full, epoch);
            full = union(&full, &delta);
            resident = resident.append_epoch(&rt, &delta);
            let what = format!("{kind} at epoch {epoch}");

            let fresh = AnyGraph::load(&rt, &full, kind);
            assert_same_logical_graph(&resident, &fresh, &rt, &what);
            if kind != ReprKind::Ogc {
                let got = coalesce_graph(&resident.to_tgraph(&rt));
                let expected = coalesce_graph(&full);
                assert_eq!(got.vertices, expected.vertices, "{what}");
                assert_eq!(got.edges, expected.edges, "{what}");
            }

            // Zooms read what `to_tgraph` does not: OG's endpoint copies,
            // OGC's interval table.
            let wz = WZoomSpec::points(3, Quantifier::Exists, Quantifier::All);
            assert_same_logical_graph(
                &resident.wzoom(&rt, &wz),
                &fresh.wzoom(&rt, &wz),
                &rt,
                &what,
            );
            if kind.supports_azoom() {
                let az = AZoomSpec::by_property("editCount", "bucket", vec![AggSpec::count("n")]);
                assert_same_logical_graph(
                    &resident.azoom(&rt, &az),
                    &fresh.azoom(&rt, &az),
                    &rt,
                    &what,
                );
            }

            // OG and OGC are rebuilt through their constructors: no map or
            // union stacks up per epoch.
            if matches!(kind, ReprKind::Og | ReprKind::Ogc) {
                assert_eq!(node_counts(&resident), node_counts(&fresh), "{what}");
            }
        }
    }
}

/// Figure 1 extended past its lifespan end (9): Alice and the Alice–Bob
/// friendship continue, Dana appears.
#[test]
fn figure1_delta_appends_in_every_representation() {
    let rt = rt();
    let base = figure1_graph_stable_ids();
    let alice = base.vertices[0].clone();
    let e1 = base.edges[0].clone();
    let delta = TGraph::from_records(
        vec![
            VertexRecord {
                interval: Interval::new(9, 13),
                ..alice
            },
            VertexRecord {
                vid: VertexId(40),
                interval: Interval::new(10, 12),
                props: Props::typed("person").with("school", "MIT"),
            },
        ],
        vec![EdgeRecord {
            interval: Interval::new(9, 11),
            ..e1
        }],
    );
    let full = union(&base, &delta);
    for kind in ReprKind::all() {
        let appended = AnyGraph::load(&rt, &base, kind).append_epoch(&rt, &delta);
        let fresh = AnyGraph::load(&rt, &full, kind);
        assert_same_logical_graph(&appended, &fresh, &rt, &kind.to_string());
    }
}

#[test]
fn empty_delta_is_identity() {
    let rt = rt();
    let base = figure1_graph_stable_ids();
    let empty = TGraph::from_records(Vec::new(), Vec::new());
    for kind in ReprKind::all() {
        let g = AnyGraph::load(&rt, &base, kind);
        let out = g.append_epoch(&rt, &empty);
        assert_same_logical_graph(&out, &g, &rt, &kind.to_string());
    }
}
