//! Point-semantics reference evaluator for both zoom operators.
//!
//! This module implements `aZoom^T` and `wZoom^T` *literally by their
//! semantics*, with no concern for efficiency:
//!
//! * `aZoom^T` is evaluated under snapshot reducibility (§2.2): the
//!   non-temporal node-creation operator runs independently over the state of
//!   the graph at **every single time point**, and the per-point results are
//!   coalesced into maximal intervals.
//! * `wZoom^T` is evaluated per window directly from the definition (§2.3):
//!   an entity's coverage of each window decides retention, resolve functions
//!   pick representative attribute values, dangling edges are removed, and
//!   the result is coalesced.
//!
//! Every physical representation in `tgraph-repr` is tested for equality
//! against these evaluators, which is what "correct under point semantics"
//! means operationally.

use crate::coalesce::coalesce_graph;
use crate::graph::{EdgeRecord, StaticGraph, TGraph, VertexRecord};
use crate::props::Props;
use crate::time::Interval;
use crate::zoom::azoom::AZoomSpec;
use crate::zoom::wzoom::{window_relation, WZoomSpec};
use std::collections::HashMap;

/// Applies the *non-temporal* node-creation operator to a single snapshot.
///
/// Returns the zoomed conventional graph: one node per group (with aggregated
/// attributes) and every input edge re-pointed to group nodes, keeping only
/// edges whose two endpoints both participate in groups.
pub fn azoom_static(snapshot: &StaticGraph, spec: &AZoomSpec) -> StaticGraph {
    use crate::graph::VertexId;

    // Group member vertices by Skolem id.
    let mut groups: HashMap<u64, (Props, Vec<Props>)> = HashMap::new();
    let mut mapping: HashMap<VertexId, u64> = HashMap::new();
    for (vid, props) in &snapshot.vertices {
        if let Some((gid, base)) = spec.skolemize(*vid, props) {
            mapping.insert(*vid, gid);
            groups
                .entry(gid)
                .or_insert_with(|| (base, Vec::new()))
                .1
                .push(props.clone());
        }
    }

    let mut out = StaticGraph::default();
    for (gid, (base, members)) in groups {
        let props = spec.aggregate(base, members);
        out.vertices.insert(VertexId(gid), props);
    }
    // Re-point edges; drop those with an unmapped endpoint.
    for (eid, (src, dst, props)) in &snapshot.edges {
        if let (Some(gs), Some(gd)) = (mapping.get(src), mapping.get(dst)) {
            out.edges
                .insert(*eid, (VertexId(*gs), VertexId(*gd), props.clone()));
        }
    }
    out
}

/// Reference `aZoom^T`: per-time-point evaluation followed by coalescing.
pub fn azoom_reference(g: &TGraph, spec: &AZoomSpec) -> TGraph {
    let mut vertices: Vec<VertexRecord> = Vec::new();
    let mut edges: Vec<EdgeRecord> = Vec::new();
    for t in g.lifespan.points() {
        let zoomed = azoom_static(&g.at(t), spec);
        for (vid, props) in zoomed.vertices {
            vertices.push(VertexRecord {
                vid,
                interval: Interval::point(t),
                props,
            });
        }
        for (eid, (src, dst, props)) in zoomed.edges {
            edges.push(EdgeRecord {
                eid,
                src,
                dst,
                interval: Interval::point(t),
                props,
            });
        }
    }
    TGraph {
        lifespan: g.lifespan,
        vertices,
        edges,
    }
    .into_coalesced()
}

/// Reference `wZoom^T`: per-window evaluation from the definition.
///
/// The input need not be pre-coalesced: the evaluator coalesces internally
/// first, which is exactly the correctness requirement the paper states for
/// physical implementations (§3.2).
pub fn wzoom_reference(g: &TGraph, spec: &WZoomSpec) -> TGraph {
    let g = coalesce_graph(g);
    let windows = window_relation(g.lifespan, &g.change_points(), spec.window);
    if windows.is_empty() {
        return TGraph {
            lifespan: g.lifespan,
            ..TGraph::new()
        };
    }

    // Vertex retention and resolution per window.
    let mut out_vertices: Vec<VertexRecord> = Vec::new();
    let mut kept: HashMap<(usize, crate::graph::VertexId), bool> = HashMap::new();
    {
        // Collect states per (vertex, window).
        let mut per: HashMap<(usize, crate::graph::VertexId), Vec<(Interval, Props)>> =
            HashMap::new();
        for v in &g.vertices {
            for (idx, w) in windows.iter().enumerate() {
                if let Some(covered) = v.interval.intersect(w) {
                    per.entry((idx, v.vid))
                        .or_default()
                        .push((covered, v.props.clone()));
                }
            }
        }
        for ((idx, vid), states) in per {
            let window = windows[idx];
            let covered: u64 = states.iter().map(|(iv, _)| iv.len()).sum();
            let r = covered as f64 / window.len() as f64;
            if spec.vertex_quantifier.satisfied(r) {
                let props = spec.resolve_vertex(&states);
                out_vertices.push(VertexRecord {
                    vid,
                    interval: window,
                    props,
                });
                kept.insert((idx, vid), true);
            }
        }
    }

    // Edge retention, resolution, and dangling-edge removal per window.
    let mut out_edges: Vec<EdgeRecord> = Vec::new();
    {
        let mut per: HashMap<
            (
                usize,
                crate::graph::EdgeId,
                crate::graph::VertexId,
                crate::graph::VertexId,
            ),
            Vec<(Interval, Props)>,
        > = HashMap::new();
        for e in &g.edges {
            for (idx, w) in windows.iter().enumerate() {
                if let Some(covered) = e.interval.intersect(w) {
                    per.entry((idx, e.eid, e.src, e.dst))
                        .or_default()
                        .push((covered, e.props.clone()));
                }
            }
        }
        for ((idx, eid, src, dst), states) in per {
            let window = windows[idx];
            let covered: u64 = states.iter().map(|(iv, _)| iv.len()).sum();
            let r = covered as f64 / window.len() as f64;
            if !spec.edge_quantifier.satisfied(r) {
                continue;
            }
            // Validity: both endpoints must be retained in this window.
            if !kept.contains_key(&(idx, src)) || !kept.contains_key(&(idx, dst)) {
                continue;
            }
            let props = spec.resolve_edge(&states);
            out_edges.push(EdgeRecord {
                eid,
                src,
                dst,
                interval: window,
                props,
            });
        }
    }

    let lifespan = Interval::hull_of(&windows);
    TGraph {
        lifespan,
        vertices: out_vertices,
        edges: out_edges,
    }
    .into_coalesced()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{figure1_graph_stable_ids, VertexId};
    use crate::props::Value;
    use crate::validate::validate;
    use crate::zoom::azoom::AggSpec;
    use crate::zoom::wzoom::{Quantifier, ResolveFn};

    fn school_spec() -> AZoomSpec {
        AZoomSpec::by_property("school", "school", vec![AggSpec::count("students")])
    }

    /// Reproduces Figure 2 exactly.
    #[test]
    fn azoom_reference_figure2() {
        let g = figure1_graph_stable_ids();
        let z = azoom_reference(&g, &school_spec());
        assert!(
            validate(&z).is_empty(),
            "zoom output must be a valid TGraph"
        );

        // Find MIT and CMU nodes.
        let mit: Vec<_> = z
            .vertices
            .iter()
            .filter(|v| v.props.get("school").and_then(Value::as_str) == Some("MIT"))
            .collect();
        let cmu: Vec<_> = z
            .vertices
            .iter()
            .filter(|v| v.props.get("school").and_then(Value::as_str) == Some("CMU"))
            .collect();

        // MIT: students=2 during [1,7) (Ann+Cat), students=1 during [7,9).
        assert_eq!(mit.len(), 2);
        let mit2 = mit
            .iter()
            .find(|v| v.interval == Interval::new(1, 7))
            .unwrap();
        assert_eq!(mit2.props.get("students"), Some(&Value::Int(2)));
        let mit1 = mit
            .iter()
            .find(|v| v.interval == Interval::new(7, 9))
            .unwrap();
        assert_eq!(mit1.props.get("students"), Some(&Value::Int(1)));

        // CMU: students=1 during [5,9).
        assert_eq!(cmu.len(), 1);
        assert_eq!(cmu[0].interval, Interval::new(5, 9));
        assert_eq!(cmu[0].props.get("students"), Some(&Value::Int(1)));

        // e1 redirected MIT→CMU, valid only [5,7) (Bob not at CMU before 5).
        // e2 redirected CMU→MIT, valid [7,9).
        assert_eq!(z.edges.len(), 2);
        let e1 = z.edges.iter().find(|e| e.eid.0 == 1).unwrap();
        assert_eq!(e1.interval, Interval::new(5, 7));
        let e2 = z.edges.iter().find(|e| e.eid.0 == 2).unwrap();
        assert_eq!(e2.interval, Interval::new(7, 9));
        // Endpoint checks: e1 goes MIT group → CMU group.
        assert_eq!(e1.src, mit2.vid);
        assert_eq!(e1.dst, cmu[0].vid);
        assert_eq!(e2.src, cmu[0].vid);
        assert_eq!(e2.dst, mit2.vid);
        assert_ne!(mit2.vid, cmu[0].vid);
    }

    /// Reproduces Figure 3 / Example 2.3 for `all` quantification.
    #[test]
    fn wzoom_reference_figure3_all() {
        let g = figure1_graph_stable_ids();
        let spec = WZoomSpec::points(3, Quantifier::All, Quantifier::All)
            .with_vertex_override("school", ResolveFn::Last);
        let z = wzoom_reference(&g, &spec);
        assert!(validate(&z).is_empty());

        let find = |vid: u64| -> Vec<&VertexRecord> {
            z.vertices
                .iter()
                .filter(|v| v.vid == VertexId(vid))
                .collect()
        };
        // Ann: present for all of W1 and W2 → [1,7).
        let ann = find(1);
        assert_eq!(ann.len(), 1);
        assert_eq!(ann[0].interval, Interval::new(1, 7));
        // Bob: all of W2 only → [4,7).
        let bob = find(2);
        assert_eq!(bob.len(), 1);
        assert_eq!(bob[0].interval, Interval::new(4, 7));
        // Figure 3: Bob's school resolves to CMU via last(school).
        assert_eq!(bob[0].props.get("school").unwrap().as_str(), Some("CMU"));
        // Cat: all of W1, W2; only [7,9) of W3=[7,10) → [1,7).
        let cat = find(3);
        assert_eq!(cat.len(), 1);
        assert_eq!(cat[0].interval, Interval::new(1, 7));

        // e1 [2,7): covers all of W2 only → [4,7). e2 [7,9): partial W3 → dropped.
        assert_eq!(z.edges.len(), 1);
        assert_eq!(z.edges[0].eid.0, 1);
        assert_eq!(z.edges[0].interval, Interval::new(4, 7));
    }

    /// Example 2.3's `exists` cases.
    #[test]
    fn wzoom_reference_figure3_exists() {
        let g = figure1_graph_stable_ids();
        let spec = WZoomSpec::points(3, Quantifier::Exists, Quantifier::Exists);
        let z = wzoom_reference(&g, &spec);
        assert!(validate(&z).is_empty());

        let find = |vid: u64| -> Vec<&VertexRecord> {
            z.vertices
                .iter()
                .filter(|v| v.vid == VertexId(vid))
                .collect()
        };
        // Bob: exists in W1, W2, W3 → retained over [1,10). His resolved
        // attributes change between W1 (no school) and W2/W3 (school=CMU via
        // the default `any` resolve, which picks his longest state), so the
        // coalesced result has two tuples covering [1,10).
        let mut bob = find(2);
        bob.sort_by_key(|v| v.interval.start);
        assert_eq!(bob.len(), 2);
        assert_eq!(bob[0].interval, Interval::new(1, 4));
        assert!(bob[0].props.get("school").is_none());
        assert_eq!(bob[1].interval, Interval::new(4, 10));
        assert_eq!(bob[1].props.get("school").unwrap().as_str(), Some("CMU"));
        // Cat exists in all three windows → [1,10).
        let cat = find(3);
        assert_eq!(cat[0].interval, Interval::new(1, 10));
        // Ann: W1+W2 → [1,7).
        assert_eq!(find(1)[0].interval, Interval::new(1, 7));
        // e2 exists in W3 → [7,10).
        let e2 = z.edges.iter().find(|e| e.eid.0 == 2).unwrap();
        assert_eq!(e2.interval, Interval::new(7, 10));
    }

    #[test]
    fn wzoom_window_finer_than_resolution_is_identity_shaped() {
        // 1-point windows: every state is kept verbatim (quantifier always
        // satisfied), so the result equals the coalesced input.
        let g = figure1_graph_stable_ids();
        let spec = WZoomSpec::points(1, Quantifier::All, Quantifier::All);
        let z = wzoom_reference(&g, &spec);
        let c = coalesce_graph(&g);
        assert_eq!(z.vertices, c.vertices);
        assert_eq!(z.edges, c.edges);
    }

    #[test]
    fn wzoom_dangling_edges_removed() {
        // vq=All, eq=Exists: edges can pass while endpoints fail.
        let g = figure1_graph_stable_ids();
        let spec = WZoomSpec::points(3, Quantifier::All, Quantifier::Exists);
        let z = wzoom_reference(&g, &spec);
        assert!(validate(&z).is_empty(), "no dangling edges may survive");
        // e2 [7,9) exists in W3 but Cat fails `all` in W3 → e2 dropped.
        assert!(z.edges.iter().all(|e| e.eid.0 != 2));
    }

    #[test]
    fn azoom_empty_graph() {
        let z = azoom_reference(&TGraph::new(), &school_spec());
        assert!(z.is_empty());
    }

    #[test]
    fn wzoom_changes_windows() {
        let g = figure1_graph_stable_ids();
        // 2-change windows over elementary [1,2),[2,5),[5,7),[7,9) → [1,5),[5,9).
        let spec = WZoomSpec {
            window: crate::zoom::wzoom::WindowSpec::Changes(2),
            vertex_quantifier: Quantifier::Exists,
            edge_quantifier: Quantifier::Exists,
            vertex_resolve: ResolveFn::Last,
            edge_resolve: ResolveFn::Any,
            vertex_overrides: vec![],
            edge_overrides: vec![],
        };
        let z = wzoom_reference(&g, &spec);
        assert!(validate(&z).is_empty());
        // Ann exists in both windows → [1,9).
        let ann: Vec<_> = z.vertices.iter().filter(|v| v.vid.0 == 1).collect();
        assert_eq!(ann.len(), 1);
        assert_eq!(ann[0].interval, Interval::new(1, 9));
    }

    #[test]
    fn azoom_then_validate_intermediate_snapshots() {
        // Every snapshot of the azoom output must itself be a valid graph.
        let g = figure1_graph_stable_ids();
        let z = azoom_reference(&g, &school_spec());
        for t in z.lifespan.points() {
            assert!(z.at(t).is_valid(), "snapshot at {t} invalid");
        }
    }
}
