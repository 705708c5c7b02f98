//! The incremental-maintenance contract: `patch(cached, delta)` must be
//! **indistinguishable** from a cold recompute over the post-ingest graph —
//! same lifespan, same record set — for every representation (RG/VE/OG/OGC),
//! every pipeline shape, with and without spilling. Every case goes through
//! storage, as the server does: the base is written with `write_dataset`,
//! the delta committed with `append_epoch`, and the patch is
//! [`patch_from_storage`] reading the suffix back. Record-set equality on
//! the deterministically sorted relations is exactly byte-identity under the
//! serve layer's canonical serialization (which is a pure function of
//! lifespan + sorted records).
//!
//! Also here: delta fuzzing — malformed deltas (empty intervals, facts
//! before the boundary, conflicting duplicates) surface typed
//! [`DeltaError`]s and never panic.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use tgraph_core::graph::{EdgeId, EdgeRecord, TGraph, VertexId, VertexRecord};
use tgraph_core::props::Props;
use tgraph_core::time::{Interval, Time};
use tgraph_core::zoom::{AZoomSpec, AggSpec, Quantifier, ResolveFn, WZoomSpec};
use tgraph_dataflow::Runtime;
use tgraph_ingest::{patch_from_storage, NoPatch, Patched, SnapshotDelta};
use tgraph_query::Pipeline;
use tgraph_repr::{AnyGraph, ReprKind};
use tgraph_storage::{append_epoch, write_dataset, GraphLoader};

const SCHOOLS: [&str; 3] = ["MIT", "CMU", "ETH"];

fn person(id: u64, start: Time, end: Time, school: usize) -> VertexRecord {
    VertexRecord {
        vid: VertexId(id),
        interval: Interval::new(start, end),
        props: Props::typed("person").with("school", SCHOOLS[school % SCHOOLS.len()]),
    }
}

fn knows(id: u64, src: u64, dst: u64, start: Time, end: Time) -> EdgeRecord {
    EdgeRecord {
        eid: EdgeId(id),
        src: VertexId(src),
        dst: VertexId(dst),
        interval: Interval::new(start, end),
        props: Props::typed("knows"),
    }
}

/// A small evolving graph: vertices 1..=5 with one state each inside
/// `[0, 13)`, a few edges among them. Interval endpoints are drawn from a
/// small grid so window boundaries, state boundaries, and the ingest
/// boundary collide often — the adversarial cases for stitching.
///
/// Edge intervals are clipped to the intersection of their endpoints'
/// existence (dropped when empty): generated graphs satisfy Definition 2.1's
/// referential condition, which is the maintenance contract's precondition —
/// checked mode rejects dangling edges before any pipeline runs.
fn arb_base() -> impl Strategy<Value = TGraph> {
    let vertex = |id: u64| {
        (0i64..6, 1i64..7, 0usize..3)
            .prop_map(move |(s, len, school)| person(id, s, s + len, school))
    };
    let edge_params = || (1u64..6, 1u64..6, 0i64..6, 1i64..7);
    (
        vertex(1),
        vertex(2),
        vertex(3),
        vertex(4),
        vertex(5),
        edge_params(),
        edge_params(),
        edge_params(),
    )
        .prop_map(|(v1, v2, v3, v4, v5, e1, e2, e3)| {
            let vertices = vec![v1, v2, v3, v4, v5];
            let edges = [e1, e2, e3]
                .into_iter()
                .zip(1u64..)
                .filter_map(|((src, dst, s, len), eid)| {
                    let cover = |vid: u64| {
                        vertices
                            .iter()
                            .find(|v| v.vid.0 == vid)
                            .map(|v| v.interval)
                            .unwrap()
                    };
                    Interval::new(s, s + len)
                        .intersect(&cover(src))
                        .and_then(|iv| iv.intersect(&cover(dst)))
                        .map(|iv| knows(eid, src, dst, iv.start, iv.end))
                })
                .collect();
            TGraph::from_records(vertices, edges)
        })
}

/// An optional fact: present roughly half the time.
fn maybe<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (prop::bool::ANY, s).prop_map(|(keep, v)| keep.then_some(v))
}

/// Base and a valid delta extending it past its lifespan end: re-assertions
/// of existing ids and one new vertex, all starting at or after the
/// boundary, at most one fact per entity (so no intra-delta conflicts by
/// construction). Delta edges connect vertices asserted *in the delta* —
/// the only states that exist past the boundary — with intervals clipped to
/// their endpoints' intersection, so the combined graph stays valid.
fn arb_case() -> impl Strategy<Value = (TGraph, SnapshotDelta)> {
    let v_params = || maybe((0i64..3, 1i64..5, 0usize..3));
    let e_params = || maybe((0usize..3, 0usize..3, 0i64..3, 1i64..5));
    arb_base().prop_flat_map(move |base| {
        let boundary = base.lifespan.end;
        (
            Just(base),
            v_params(),
            v_params(),
            v_params(),
            e_params(),
            e_params(),
        )
            .prop_map(move |(base, p1, p3, p6, pe1, pe4)| {
                let mut vertices = Vec::new();
                for (vid, p) in [(1u64, p1), (3, p3), (6, p6)] {
                    if let Some((off, len, school)) = p {
                        vertices.push(person(vid, boundary + off, boundary + off + len, school));
                    }
                }
                let mut edges = Vec::new();
                for (eid, p) in [(1u64, pe1), (4, pe4)] {
                    let Some((si, di, off, len)) = p else {
                        continue;
                    };
                    if vertices.is_empty() {
                        continue;
                    }
                    let src = &vertices[si % vertices.len()];
                    let dst = &vertices[di % vertices.len()];
                    if let Some(iv) = Interval::new(boundary + off, boundary + off + len)
                        .intersect(&src.interval)
                        .and_then(|iv| iv.intersect(&dst.interval))
                    {
                        edges.push(knows(eid, src.vid.0, dst.vid.0, iv.start, iv.end));
                    }
                }
                let delta = SnapshotDelta {
                    since: boundary,
                    vertices,
                    edges,
                };
                (base, delta)
            })
    })
}

fn pipelines() -> Vec<(&'static str, Pipeline)> {
    let azoom = || AZoomSpec::by_property("school", "school", vec![AggSpec::count("students")]);
    let wzoom = |n: u64| WZoomSpec::points(n, Quantifier::Exists, Quantifier::Exists);
    let wzoom_most = |n: u64| {
        WZoomSpec::points(n, Quantifier::Most, Quantifier::Exists)
            .with_resolve(ResolveFn::Last, ResolveFn::First)
    };
    let p = Pipeline::new;
    vec![
        ("w2", p().wzoom(wzoom(2))),
        ("w3-most", p().wzoom(wzoom_most(3))),
        ("a", p().azoom(azoom())),
        ("a-w2", p().azoom(azoom()).wzoom(wzoom(2))),
        ("w2-w3", p().wzoom(wzoom(2)).wzoom(wzoom_most(3))),
        ("w2-switch-og", p().wzoom(wzoom(2)).switch_to(ReprKind::Og)),
    ]
}

/// A cold run through `Pipeline::execute`, the loop `tgraph-serve` answers a
/// miss with.
fn run_cold(rt: &Runtime, g: AnyGraph, pipeline: &Pipeline) -> TGraph {
    pipeline.collect(rt, g)
}

/// Record-set form of a result: what the canonical serialization hashes.
fn canonical(mut g: TGraph) -> (Interval, Vec<VertexRecord>, Vec<EdgeRecord>) {
    g.vertices.sort_by_key(|v| (v.vid, v.interval));
    g.edges.sort_by_key(|e| (e.eid, e.src, e.dst, e.interval));
    (g.lifespan, g.vertices, g.edges)
}

/// A dataset directory of its own, removed on drop, holding `base` with
/// `delta` committed as epoch 1. Cases run on parallel threads, so no two
/// share a directory.
struct Stored {
    dir: PathBuf,
    loader: GraphLoader,
}

fn stored(base: &TGraph, delta: &SnapshotDelta) -> Stored {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tgraph-patch-identity-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    write_dataset(&dir, "g", base).expect("write base");
    append_epoch(&dir, "g", &delta.to_tgraph()).expect("append epoch");
    let loader = GraphLoader::new(&dir, "g");
    Stored { dir, loader }
}

impl Drop for Stored {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One maintenance step as `tgraph-serve` runs it: the result cached before
/// the ingest, what `patch_from_storage` makes of it, and the cold recompute
/// over the stored post-ingest graph.
struct Maintained {
    cached: TGraph,
    patched: Result<Patched, NoPatch>,
    cold: TGraph,
}

fn maintain(
    rt: &Runtime,
    Stored { loader, .. }: &Stored,
    base: &TGraph,
    delta: &SnapshotDelta,
    repr: ReprKind,
    pipeline: &Pipeline,
) -> Maintained {
    let cached = run_cold(rt, AnyGraph::load(rt, base, repr), pipeline);
    let (full, _) = loader.load(rt, repr, None).expect("load full");
    let lifespan = full.lifespan();
    let patched = patch_from_storage(rt, loader, lifespan, repr, pipeline, &cached, delta.since);
    let cold = run_cold(rt, full, pipeline);
    Maintained {
        cached,
        patched,
        cold,
    }
}

fn check_patch_matches_cold(rt: &Runtime, base: &TGraph, delta: &SnapshotDelta) {
    delta.validate().expect("generated delta must be valid");
    let stored = stored(base, delta);
    for (name, steps) in pipelines() {
        for repr in ReprKind::all() {
            // aZoom is undefined for the topology-only OGC representation.
            if steps.first_unsupported(repr).is_some() {
                continue;
            }
            let m = maintain(rt, &stored, base, delta, repr, &steps);
            // A planner refusal is answered cold; only a patch can diverge.
            if let Ok(patched) = m.patched {
                assert_eq!(
                    canonical(patched.result),
                    canonical(m.cold),
                    "pipeline {name} over {repr} diverged from cold recompute"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn patched_equals_cold_recompute(case in arb_case()) {
        let (base, delta) = &case;
        let rt = Runtime::with_partitions(2, 3);
        check_patch_matches_cold(&rt, base, delta);
    }

    #[test]
    fn patched_equals_cold_under_spill(case in arb_case()) {
        let (base, delta) = &case;
        // Byte-budgeted execution: a tiny budget forces shuffle spills.
        let rt = Runtime::with_partitions(2, 2);
        rt.set_mem_budget(4 * 1024);
        check_patch_matches_cold(&rt, base, delta);
    }

    #[test]
    fn malformed_deltas_are_typed_errors_not_panics(
        base in arb_base(),
        starts in prop::collection::vec((-4i64..8, 0i64..5), 0..6),
        dup_conflict in prop::bool::ANY,
    ) {
        let boundary = base.lifespan.end;
        let mut vertices: Vec<VertexRecord> = starts
            .iter()
            .enumerate()
            .map(|(i, (off, len))| person(i as u64 + 1, boundary + off, boundary + off + len, 0))
            .collect();
        if dup_conflict && !vertices.is_empty() {
            let mut dup = vertices[0].clone();
            dup.props = dup.props.with("school", "KIT");
            vertices.push(dup);
        }
        let delta = SnapshotDelta { since: boundary, vertices, edges: Vec::new() };
        // Validation must classify, never panic; valid deltas must maintain
        // byte-identically, invalid ones are rejected before application.
        match delta.validate() {
            Ok(()) => {
                let rt = Runtime::with_partitions(2, 2);
                check_patch_matches_cold(&rt, &base, &delta);
            }
            Err(e) => {
                let _ = e.to_string(); // Display is total
            }
        }
    }
}

/// The deterministic case the fuzzers may not pin every run: an appended
/// epoch whose zoom is actually *patched* (not recomputed), across all four
/// representations, with a state continuing across the boundary.
#[test]
fn patch_path_is_taken_and_identical() {
    let rt = Runtime::with_partitions(2, 3);
    // History [0, 8): two vertices and one friendship, all window-aligned.
    let base = TGraph::from_records(
        vec![person(1, 0, 8, 0), person(2, 2, 8, 1)],
        vec![knows(1, 1, 2, 2, 8)],
    );
    // Alice, Bob and their friendship continue; Dana appears at 9.
    let delta = SnapshotDelta {
        since: 8,
        vertices: vec![
            person(1, 8, 14, 0),
            person(2, 8, 11, 1),
            person(6, 9, 13, 2),
        ],
        edges: vec![knows(1, 1, 2, 8, 11)],
    };
    delta.validate().unwrap();
    let stored = stored(&base, &delta);
    let steps = Pipeline::new().wzoom(WZoomSpec::points(2, Quantifier::Exists, Quantifier::Exists));
    for repr in ReprKind::all() {
        let m = maintain(&rt, &stored, &base, &delta, repr, &steps);
        let patched = m.patched.unwrap_or_else(|e| panic!("{repr}: {e}"));
        assert_eq!(patched.cut, 8, "{repr}: aligned boundary must patch");
        assert_eq!(canonical(patched.result), canonical(m.cold), "{repr}");
    }
}

#[test]
fn empty_delta_patches_to_the_same_result() {
    let rt = Runtime::with_partitions(2, 2);
    let base = TGraph::from_records(
        vec![person(1, 0, 6, 0), person(2, 1, 5, 1)],
        vec![knows(1, 1, 2, 2, 5)],
    );
    let delta = SnapshotDelta::empty(6);
    let stored = stored(&base, &delta);
    let steps = Pipeline::new().wzoom(WZoomSpec::points(3, Quantifier::Exists, Quantifier::Exists));
    let m = maintain(&rt, &stored, &base, &delta, ReprKind::Ve, &steps);
    // An empty delta moves no time: the stored lifespan is the base's.
    assert_eq!(m.cold.lifespan, m.cached.lifespan);
    let patched = m.patched.expect("an empty delta patches");
    assert_eq!(canonical(patched.result), canonical(m.cached));
}

#[test]
fn changes_windows_recompute() {
    use tgraph_core::zoom::WindowSpec;
    let rt = Runtime::with_partitions(2, 2);
    let base = TGraph::from_records(vec![person(1, 0, 7, 0)], Vec::new());
    let delta = SnapshotDelta {
        since: 7,
        vertices: vec![person(1, 7, 9, 0)],
        edges: Vec::new(),
    };
    let stored = stored(&base, &delta);
    // Changes-based windows depend on the global change-point list; they are
    // never patched.
    let steps = Pipeline::new().wzoom(WZoomSpec {
        window: WindowSpec::Changes(2),
        vertex_quantifier: Quantifier::Exists,
        edge_quantifier: Quantifier::Exists,
        vertex_resolve: ResolveFn::Any,
        edge_resolve: ResolveFn::Any,
        vertex_overrides: Vec::new(),
        edge_overrides: Vec::new(),
    });
    let m = maintain(&rt, &stored, &base, &delta, ReprKind::Ve, &steps);
    assert!(matches!(m.patched, Err(NoPatch::Recompute { .. })));
    // The answer is then the cold run over what storage holds: the base's
    // state and the delta's, one interval again.
    let all = vec![person(1, 0, 9, 0)];
    let direct = TGraph::from_records(all, Vec::new());
    let expected = run_cold(&rt, AnyGraph::load(&rt, &direct, ReprKind::Ve), &steps);
    assert_eq!(canonical(m.cold), canonical(expected));
}
