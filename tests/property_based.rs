//! Property-based tests (proptest) on the core invariants of the system:
//! coalescing, point semantics, quantifier monotonicity, conversion
//! round-trips, storage round-trips, the record codec both storage and
//! shuffles use, and the bytes of a rendered result — on arbitrary generated
//! TGraphs.

use proptest::prelude::*;
use std::collections::HashMap;
use std::hash::Hash;
use tgraph::prelude::*;
use tgraph_core::coalesce::{
    coalesce_edges, coalesce_graph, coalesce_group, coalesce_vertices, graph_is_coalesced,
};
use tgraph_core::reference::{azoom_reference, wzoom_reference};
use tgraph_core::validate::validate;
use tgraph_dataflow::{decode_records, DecodeError, Spill, SpillError, SpillReader};
use tgraph_serve::{json, serialize_tgraph, Json};

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

/// Text pieces a property key or string value is built from: every control
/// byte, the two characters JSON escapes in place, and multi-byte UTF-8.
fn text_piece(i: usize) -> String {
    const PIECES: [&str; 8] = ["\"", "\\", "a", "type", "\u{7f}", "é", "中", "😀"];
    match u8::try_from(i) {
        Ok(b) if b < 0x20 => char::from(b).to_string(),
        _ => PIECES[(i - 0x20) % PIECES.len()].to_string(),
    }
}

fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..0x28, 0..5)
        .prop_map(|pieces| pieces.into_iter().map(text_piece).collect())
}

const FLOATS: [f64; 10] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    1e300,
    -1e-300,
    0.1,
    f64::MIN_POSITIVE,
    2.5,
];
const INTS: [i64; 5] = [i64::MIN, i64::MAX, 0, -1, 7];

fn arb_props() -> impl Strategy<Value = Props> {
    let value = (0u8..4, 0usize..10, arb_text()).prop_map(|(kind, i, text)| match kind {
        0 => Value::Bool(i % 2 == 0),
        1 => Value::Int(INTS[i % INTS.len()]),
        2 => Value::Float(FLOATS[i]),
        _ => Value::from(text),
    });
    prop::collection::vec((arb_text(), value), 0..4).prop_map(|pairs| {
        pairs
            .into_iter()
            .fold(Props::new(), |p, (k, v)| p.with(k, v))
    })
}

/// Strategy: records with hostile properties, ids drawn from a pool small
/// enough to repeat (with different intervals) and including ids above
/// `i64::MAX`, and possibly no records at all.
fn arb_rendered_graph() -> impl Strategy<Value = TGraph> {
    const IDS: [u64; 4] = [0, 1, u64::MAX, 1 << 63];
    let interval = (-3i64..3, 0i64..3).prop_map(|(start, len)| Interval::new(start, start + len));
    let vertex = (0usize..4, interval.clone(), arb_props())
        .prop_map(|(id, i, props)| VertexRecord::new(IDS[id], i, props));
    let edge = (0usize..4, 0usize..4, 0usize..4, interval, arb_props()).prop_map(
        |(id, src, dst, i, props)| EdgeRecord::new(IDS[id], IDS[src], IDS[dst], i, props),
    );
    (
        prop::collection::vec(vertex, 0..6),
        prop::collection::vec(edge, 0..6),
    )
        .prop_map(|(vertices, edges)| TGraph::from_records(vertices, edges))
}

/// `records` in one total order, so two relations holding the same records
/// in different orders compare equal.
fn sorted<T: Clone, K: Ord>(records: &[T], key: impl Fn(&T) -> K) -> Vec<T> {
    let mut out = records.to_vec();
    out.sort_by_key(key);
    out
}

/// Encodes `records` as one spilled bucket and decodes the bucket back.
fn bucket_roundtrip<T: Spill>(records: &[T]) -> Result<Vec<T>, SpillError> {
    let mut payload = Vec::new();
    records.iter().for_each(|r| r.spill(&mut payload));
    let mut back = Vec::new();
    decode_records(&payload, records.len() as u64, &mut back).map(|()| back)
}

/// Decodes `payload` as `T` rows until it ends or a row fails: each row is
/// a record or a typed [`DecodeError`], never a panic.
fn rows_or_typed_error<T: Spill>(payload: &[u8]) {
    let mut r = SpillReader::new(payload);
    while r.remaining() > 0 {
        let row: Result<T, DecodeError> = T::unspill(&mut r);
        if row.is_err() {
            break;
        }
    }
}

/// The result body as a `Json` tree per record, written with `Json::write`:
/// the reference `serialize_tgraph` must match byte for byte.
fn tree_body(g: &TGraph) -> String {
    let interval = |i: Interval| Json::Arr(vec![Json::Int(i.start), Json::Int(i.end)]);
    let props = |p: &Props| {
        Json::Obj(
            p.iter()
                .map(|(k, v)| {
                    let value = match v {
                        Value::Bool(b) => Json::Bool(*b),
                        Value::Int(i) => Json::Int(*i),
                        Value::Float(f) => Json::Float(*f),
                        Value::Str(s) => Json::Str(s.to_string()),
                    };
                    (k.to_string(), value)
                })
                .collect(),
        )
    };
    let mut vertices: Vec<_> = g.vertices.iter().collect();
    vertices.sort_by_key(|v| (v.vid, v.interval));
    let mut edges: Vec<_> = g.edges.iter().collect();
    edges.sort_by_key(|e| (e.eid, e.interval));
    let vertex = |v: &&VertexRecord| {
        Json::obj(vec![
            ("id", Json::Int(v.vid.0 as i64)),
            ("interval", interval(v.interval)),
            ("props", props(&v.props)),
        ])
    };
    let edge = |e: &&EdgeRecord| {
        Json::obj(vec![
            ("id", Json::Int(e.eid.0 as i64)),
            ("src", Json::Int(e.src.0 as i64)),
            ("dst", Json::Int(e.dst.0 as i64)),
            ("interval", interval(e.interval)),
            ("props", props(&e.props)),
        ])
    };
    let body = Json::obj(vec![
        ("lifespan", interval(g.lifespan)),
        ("vertices", Json::Arr(vertices.iter().map(vertex).collect())),
        ("edges", Json::Arr(edges.iter().map(edge).collect())),
    ]);
    let mut out = String::new();
    body.write(&mut out).unwrap();
    out
}

#[test]
fn serialize_tgraph_matches_the_tree_writer_on_fixed_edge_cases() {
    let every_piece: String = (0..0x28).map(text_piece).collect();
    let hostile = Props::new()
        .with(every_piece.as_str(), every_piece.as_str())
        .with("\"quoted\" key", f64::NAN)
        .with("-0", -0.0)
        .with("big", 1e300)
        .with("inf", f64::NEG_INFINITY)
        .with("min", i64::MIN)
        .with("max", i64::MAX)
        .with("yes", true);
    let g = TGraph::from_records(
        vec![
            VertexRecord::new(3, Interval::new(4, 6), Props::new()),
            VertexRecord::new(3, Interval::new(0, 2), hostile.clone()),
            VertexRecord::new(u64::MAX, Interval::new(1, 2), Props::typed("node")),
        ],
        vec![EdgeRecord::new(0, 3, 3, Interval::new(0, 1), hostile)],
    );
    for g in [TGraph::new(), g] {
        let body = serialize_tgraph(&g);
        assert_eq!(body, tree_body(&g));
        json::parse(&body).unwrap();
    }
}

/// Reference coalescer for a collected relation: group the facts by key in a
/// `HashMap`, coalesce each group with `coalesce_group`, flatten, then sort
/// by `(key, interval)` — what the sort-and-fold coalescer must equal.
fn grouping_reference<T, K: Ord + Hash + Clone>(
    facts: &[T],
    key: impl Fn(&T) -> K,
    fact: impl Fn(&T) -> (Interval, Props),
    rebuild: impl Fn(&K, Interval, Props) -> T,
) -> Vec<T> {
    let mut groups: HashMap<K, Vec<(Interval, Props)>> = HashMap::new();
    for f in facts {
        groups.entry(key(f)).or_default().push(fact(f));
    }
    let mut runs: Vec<(K, Interval, Props)> = groups
        .into_iter()
        .flat_map(|(k, group)| {
            coalesce_group(group)
                .into_iter()
                .map(move |(iv, props)| (k.clone(), iv, props))
        })
        .collect();
    runs.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
    runs.into_iter()
        .map(|(k, iv, p)| rebuild(&k, iv, p))
        .collect()
}

/// Three values: two type labels, and a label with one more attribute.
fn fact_props(i: u8) -> Props {
    match i {
        0 => Props::typed("a"),
        1 => Props::typed("b"),
        _ => Props::typed("a").with("x", 1i64),
    }
}

/// `[start, start + len)`: empty when `len` is 0.
fn fact_interval(start: i64, len: i64) -> Interval {
    Interval::new(start, start + len)
}

/// Holds `coalesce_vertices` and `coalesce_edges` on one relation pair to
/// the grouping reference, to their own order, to `graph_is_coalesced` and
/// to idempotence.
fn check_against_grouping_reference(vertices: Vec<VertexRecord>, edges: Vec<EdgeRecord>) {
    let want_v = grouping_reference(
        &vertices,
        |v| v.vid,
        |v| (v.interval, v.props.clone()),
        |vid, interval, props| VertexRecord {
            vid: *vid,
            interval,
            props,
        },
    );
    let want_e = grouping_reference(
        &edges,
        |e| (e.eid, e.src, e.dst),
        |e| (e.interval, e.props.clone()),
        |&(eid, src, dst), interval, props| EdgeRecord {
            eid,
            src,
            dst,
            interval,
            props,
        },
    );
    let got_v = coalesce_vertices(vertices);
    let got_e = coalesce_edges(edges);
    assert_eq!(got_v, want_v);
    assert_eq!(got_e, want_e);
    assert!(got_v
        .windows(2)
        .all(|w| (w[0].vid, w[0].interval) <= (w[1].vid, w[1].interval)));
    assert!(got_e.windows(2).all(|w| {
        let key = |e: &EdgeRecord| (e.eid, e.src, e.dst, e.interval);
        key(&w[0]) <= key(&w[1])
    }));
    assert_eq!(coalesce_vertices(got_v.clone()), got_v);
    assert_eq!(coalesce_edges(got_e.clone()), got_e);
    assert!(graph_is_coalesced(&TGraph::from_records(got_v, got_e)));
}

#[test]
fn coalescing_matches_the_grouping_reference_on_fixed_edge_cases() {
    let v = |vid, start, len, value| {
        VertexRecord::new(vid, fact_interval(start, len), fact_props(value))
    };
    let e = |eid, src, dst, start, len, value| {
        EdgeRecord::new(eid, src, dst, fact_interval(start, len), fact_props(value))
    };
    check_against_grouping_reference(
        vec![
            v(2, 4, 2, 0), // unsorted, interleaved with key 1
            v(1, 3, 2, 0),
            v(2, 0, 4, 0), // touches [4, 6)
            v(1, 3, 2, 0), // exact duplicate
            v(1, 1, 0, 0), // empty interval
            v(1, 0, 4, 0), // overlaps [3, 5), same value
            v(1, 1, 2, 0), // inside [0, 4), same value
            v(1, 2, 3, 1), // overlaps, different value: invalid input
            v(3, 5, 0, 2), // a key with only an empty interval
            v(2, 6, 1, 2), // touches, different value
        ],
        vec![
            e(0, 1, 2, 2, 2, 0), // one eid, two endpoint pairs
            e(0, 1, 1, 0, 2, 0),
            e(0, 1, 2, 0, 2, 0), // touches [2, 4) on the same endpoints
            e(0, 1, 1, 2, 2, 0), // touches [0, 2) on the other endpoints
            e(1, 0, 0, 1, 3, 1),
            e(1, 0, 0, 1, 3, 1), // exact duplicate
            e(1, 0, 0, 0, 2, 2), // overlaps, different value
        ],
    );
    check_against_grouping_reference(Vec::new(), Vec::new());
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
        tgraph::storage::write_tgc(&path, &g, 7).unwrap();
        let (back, _) = tgraph::storage::read_tgc(&path, None).unwrap();
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

    /// One codec, two containers: records with hostile strings read back
    /// equal from a `.tgc` file and from a spilled bucket.
    #[test]
    fn records_roundtrip_through_files_and_spilled_buckets(g in arb_rendered_graph()) {
        let dir = std::env::temp_dir().join("tgraph-proptest");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("codec-{}.tgc", std::process::id()));
        tgraph::storage::write_tgc(&path, &g, 3).unwrap();
        let (back, _) = tgraph::storage::read_tgc(&path, None).unwrap();
        let vkey = |v: &VertexRecord| (v.vid, v.interval, v.props.clone());
        let ekey = |e: &EdgeRecord| (e.eid, e.src, e.dst, e.interval, e.props.clone());
        prop_assert_eq!(sorted(&back.vertices, vkey), sorted(&g.vertices, vkey));
        prop_assert_eq!(sorted(&back.edges, ekey), sorted(&g.edges, ekey));
        prop_assert_eq!(bucket_roundtrip(&g.vertices).unwrap(), g.vertices.clone());
        prop_assert_eq!(bucket_roundtrip(&g.edges).unwrap(), g.edges.clone());
    }

    /// Arbitrary bytes, and the encoding of real rows with one byte changed,
    /// decode as `.tgc` rows to records or a typed error — never a panic.
    #[test]
    fn damaged_rows_decode_or_fail_typed(
        g in arb_rendered_graph(),
        noise in prop::collection::vec(0u8..=255, 0..120),
        at in 0usize..4096,
        flip in 1u8..=255,
    ) {
        rows_or_typed_error::<VertexRecord>(&noise);
        rows_or_typed_error::<EdgeRecord>(&noise);
        let mut payload = Vec::new();
        g.vertices.iter().for_each(|v| v.spill(&mut payload));
        g.edges.iter().for_each(|e| e.spill(&mut payload));
        if let Some(byte) = payload.get_mut(at) {
            *byte ^= flip;
        }
        rows_or_typed_error::<VertexRecord>(&payload);
        rows_or_typed_error::<EdgeRecord>(&payload);
    }

    #[test]
    fn serialize_tgraph_matches_the_tree_writer(g in arb_rendered_graph()) {
        let body = serialize_tgraph(&g);
        prop_assert_eq!(&body, &tree_body(&g));
        prop_assert!(json::parse(&body).is_ok(), "does not re-parse: {}", body);
    }

    #[test]
    fn coalescing_matches_the_grouping_reference(
        vertices in prop::collection::vec((0u64..4, -2i64..6, 0i64..4, 0u8..3, prop::bool::ANY), 0..24),
        edges in prop::collection::vec(
            ((0u64..3, 0u64..2, 0u64..2), -2i64..6, 0i64..4, 0u8..3, prop::bool::ANY),
            0..24,
        ),
        presorted in prop::bool::ANY,
    ) {
        // `twice` repeats a fact: exact duplicates. Small ranges make
        // touching, overlapping and interleaved facts common; `presorted`
        // hands over runs that are already in order.
        let mut vs = Vec::new();
        for &(vid, start, len, value, twice) in &vertices {
            let rec = VertexRecord::new(vid, fact_interval(start, len), fact_props(value));
            if twice {
                vs.push(rec.clone());
            }
            vs.push(rec);
        }
        let mut es = Vec::new();
        for &((eid, src, dst), start, len, value, twice) in &edges {
            let rec = EdgeRecord::new(eid, src, dst, fact_interval(start, len), fact_props(value));
            if twice {
                es.push(rec.clone());
            }
            es.push(rec);
        }
        if presorted {
            vs.sort_by_key(|v| (v.vid, v.interval));
            es.sort_by_key(|e| (e.eid, e.src, e.dst, e.interval));
        }
        check_against_grouping_reference(vs, es);
    }
}
