//! Property-based tests (proptest) on the core invariants of the system:
//! coalescing, point semantics, quantifier monotonicity, conversion
//! round-trips, and storage round-trips — on arbitrary generated TGraphs.

use proptest::prelude::*;
use tgraph::prelude::*;
use tgraph_core::coalesce::{coalesce_graph, graph_is_coalesced};
use tgraph_core::reference::{azoom_reference, wzoom_reference};
use tgraph_core::validate::validate;

const HORIZON: i64 = 10;

/// Strategy: a valid TGraph with up to 12 vertices (each with 1–3 states and
/// an optional `group` attribute) and up to 16 edges inside their endpoints'
/// joint lifetimes.
fn arb_tgraph() -> impl Strategy<Value = TGraph> {
    let vertex = (0..HORIZON - 1).prop_flat_map(|start| {
        (
            Just(start),
            (start + 1)..=HORIZON,
            prop::collection::vec(0u8..4, 1..3),
            prop::bool::ANY,
        )
    });
    let vertices = prop::collection::vec(vertex, 1..12);
    let edges = prop::collection::vec((0usize..12, 0usize..12, 0..HORIZON, 1..4i64), 0..16);
    (vertices, edges).prop_map(|(vspecs, especs)| {
        let mut vrecs = Vec::new();
        let mut spans = Vec::new();
        for (vid, (start, end, groups, grouped)) in vspecs.iter().enumerate() {
            spans.push((*start, *end));
            // Split [start,end) into one state per group entry.
            let n = groups.len() as i64;
            let len = end - start;
            for (i, gslot) in groups.iter().enumerate() {
                let s = start + len * i as i64 / n;
                let e = start + len * (i as i64 + 1) / n;
                if s >= e {
                    continue;
                }
                let mut props = Props::typed("node");
                if *grouped {
                    props = props.with("group", format!("g{gslot}"));
                }
                vrecs.push(VertexRecord::new(vid as u64, Interval::new(s, e), props));
            }
            if !vrecs.iter().any(|v| v.vid.0 == vid as u64) {
                vrecs.push(VertexRecord::new(
                    vid as u64,
                    Interval::new(*start, *end),
                    Props::typed("node"),
                ));
            }
        }
        let mut erecs = Vec::new();
        let mut eid = 0u64;
        for (a, b, start, len) in especs {
            let a = a % spans.len();
            let b = b % spans.len();
            let lo = spans[a].0.max(spans[b].0);
            let hi = spans[a].1.min(spans[b].1);
            if lo >= hi {
                continue;
            }
            let s = lo + (start.rem_euclid(hi - lo));
            let e = (s + len).min(hi);
            if s >= e {
                continue;
            }
            erecs.push(EdgeRecord::new(
                eid,
                a as u64,
                b as u64,
                Interval::new(s, e),
                Props::typed("link"),
            ));
            eid += 1;
        }
        TGraph::from_records(vrecs, erecs)
    })
}

fn azoom_spec() -> AZoomSpec {
    AZoomSpec::by_property("group", "group", vec![AggSpec::count("n")])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_graphs_are_valid(g in arb_tgraph()) {
        prop_assert!(validate(&g).is_empty());
    }

    #[test]
    fn coalesce_is_idempotent(g in arb_tgraph()) {
        let once = coalesce_graph(&g);
        let twice = coalesce_graph(&once);
        prop_assert!(graph_is_coalesced(&once));
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn coalesce_preserves_point_semantics(g in arb_tgraph()) {
        // The coalesced graph has exactly the same state at every time point.
        let c = coalesce_graph(&g);
        for t in g.lifespan.points() {
            prop_assert_eq!(g.at(t), c.at(t), "diverged at t={}", t);
        }
    }

    #[test]
    fn azoom_output_is_valid_and_coalesced(g in arb_tgraph()) {
        let out = azoom_reference(&g, &azoom_spec());
        prop_assert!(validate(&out).is_empty());
        prop_assert!(graph_is_coalesced(&out));
    }

    #[test]
    fn wzoom_output_is_valid_and_coalesced(g in arb_tgraph(), w in 1u64..5) {
        let spec = WZoomSpec::points(w, Quantifier::Most, Quantifier::Exists);
        let out = wzoom_reference(&g, &spec);
        prop_assert!(validate(&out).is_empty());
        prop_assert!(graph_is_coalesced(&out));
    }

    #[test]
    fn quantifier_monotonicity(g in arb_tgraph(), w in 1u64..5) {
        // all ⊆ most ⊆ at-least(0.25) ⊆ exists, measured in retained
        // vertex-time points per window.
        let quants = [
            Quantifier::All,
            Quantifier::Most,
            Quantifier::AtLeast(0.25),
            Quantifier::Exists,
        ];
        let mut sizes = Vec::new();
        for q in quants {
            let spec = WZoomSpec::points(w, q, q);
            let out = wzoom_reference(&g, &spec);
            let points: u64 = out.vertices.iter().map(|v| v.interval.len()).sum();
            sizes.push(points);
        }
        for pair in sizes.windows(2) {
            prop_assert!(pair[0] <= pair[1], "sizes not monotone: {:?}", sizes);
        }
    }

    #[test]
    fn wzoom_unit_window_is_coalesced_identity(g in arb_tgraph()) {
        // A 1-point window with `all` returns exactly the coalesced input
        // (§2.3: a window finer than the resolution has no effect).
        let spec = WZoomSpec::points(1, Quantifier::All, Quantifier::All);
        let out = wzoom_reference(&g, &spec);
        let expected = coalesce_graph(&g);
        prop_assert_eq!(out.vertices, expected.vertices);
        prop_assert_eq!(out.edges, expected.edges);
    }

    #[test]
    fn representation_roundtrips_preserve_graph(g in arb_tgraph()) {
        let rt = Runtime::with_partitions(2, 3);
        let expected = coalesce_graph(&g);
        for kind in [ReprKind::Rg, ReprKind::Ve, ReprKind::Og] {
            let back = AnyGraph::load(&rt, &g, kind).to_tgraph(&rt);
            prop_assert_eq!(&back.vertices, &expected.vertices, "{}", kind);
            prop_assert_eq!(&back.edges, &expected.edges, "{}", kind);
        }
    }

    #[test]
    fn wzoom_kernels_agree_with_the_reference(
        g in arb_tgraph(),
        n in 1u64..6,
        by_changes in prop::bool::ANY,
        quantifiers in 0usize..4,
    ) {
        // VE reduces each (window, entity) group, OG walks each history
        // against the window relation, OGC walks each bitset: all three must
        // give what the point-semantics evaluator gives — for windows that
        // straddle the lifespan end (n up to 5 over a horizon of 10), for
        // windows counted in changes, and with dangling-edge removal
        // (`all` vertices under `exists` edges).
        let (vq, eq) = [
            (Quantifier::Exists, Quantifier::Exists),
            (Quantifier::All, Quantifier::All),
            (Quantifier::All, Quantifier::Exists),
            (Quantifier::Most, Quantifier::AtLeast(0.25)),
        ][quantifiers];
        let mut spec = WZoomSpec::points(n, vq, eq);
        if by_changes {
            spec.window = WindowSpec::Changes(n);
        }
        let rt = Runtime::with_partitions(2, 3);
        let canon = |g: &TGraph| {
            let c = coalesce_graph(g);
            (c.vertices, c.edges)
        };
        let expected = canon(&wzoom_reference(&g, &spec));
        for kind in [ReprKind::Ve, ReprKind::Og] {
            let got = AnyGraph::load(&rt, &g, kind).wzoom(&rt, &spec).to_tgraph(&rt);
            prop_assert_eq!(canon(&got), expected.clone(), "{} {:?}", kind, spec);
        }
        // OGC keeps topology and type only: compare on that projection
        // (coalesced, so its elementary intervals are the change points).
        let mut topology = g.clone();
        for v in &mut topology.vertices {
            v.props = Props::typed("node");
        }
        let topology = coalesce_graph(&topology);
        let got = AnyGraph::load(&rt, &topology, ReprKind::Ogc).wzoom(&rt, &spec).to_tgraph(&rt);
        prop_assert_eq!(canon(&got), canon(&wzoom_reference(&topology, &spec)), "OGC {:?}", spec);
    }

    #[test]
    fn storage_roundtrip(g in arb_tgraph()) {
        let dir = std::env::temp_dir().join("tgraph-proptest");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("g-{}.tgc", std::process::id()));
        tgraph::storage::write_tgc(&path, &g, SortOrder::Temporal, 7).unwrap();
        let (back, _, _) = tgraph::storage::read_tgc(&path, None).unwrap();
        let canon = |g: &TGraph| {
            let mut v = g.vertices.clone();
            v.sort_by_key(|x| (x.vid, x.interval.start));
            let mut e = g.edges.clone();
            e.sort_by_key(|x| (x.eid, x.interval.start));
            (v, e)
        };
        prop_assert_eq!(canon(&back), canon(&g));
    }

    #[test]
    fn azoom_snapshot_reducibility(g in arb_tgraph()) {
        // Snapshot reducibility (§2.2): the zoomed graph's state at any time
        // point equals applying the static operator to the input's state.
        let spec = azoom_spec();
        let out = azoom_reference(&g, &spec);
        for t in g.lifespan.points() {
            let direct = tgraph_core::reference::azoom_static(&g.at(t), &spec);
            prop_assert_eq!(out.at(t), direct, "diverged at t={}", t);
        }
    }
}
