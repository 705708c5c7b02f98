//! What each representation moves, pinned. §5 of the paper explains every
//! result by data movement: RG shuffles a record per snapshot copy, VE
//! re-keys its tuples by group and by entity, OG keeps histories
//! entity-local, OGC folds windows over bitsets. This table pins, for a
//! small seeded WikiTalk and SNB, how many exchanges each zoom runs, how
//! many it elides and how many records cross them, so a change to what a
//! kernel moves is a deliberate re-pin here.
//!
//! Every row is also held against the plan: the `Shuffle` and
//! `ElidedShuffle` nodes of the result's lineage are the runtime's
//! exchanges, and the shuffle nodes' counted `rows` - as EXPLAIN prints
//! them on its `shuffle` lines, where an elided exchange shows none - sum
//! to the records the runtime saw move.

use std::collections::HashSet;
use std::sync::Arc;
use tgraph::core::zoom::wzoom::{window_relation, windows_of, WindowSpec};
use tgraph::dataflow::{OpKind, Partitioning, PlanNode};
use tgraph::datagen::{Snb, WikiTalk};
use tgraph::prelude::*;
use Quantifier::{All, Exists};

#[derive(Clone, Copy, Debug, PartialEq)]
enum Graph {
    Wiki,
    Snb,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Zoom {
    /// `aZoom^T` on the graph's group key, counting members.
    A,
    /// `wZoom^T` over 3-point windows at (vertex, edge) quantifiers.
    W(Quantifier, Quantifier),
}

/// `(shuffles, shuffles_elided, shuffled_records)`.
type Moved = (u64, u64, u64);

const ZOOMS: [Zoom; 4] = [
    Zoom::A,
    Zoom::W(Exists, Exists),
    Zoom::W(All, Exists),
    Zoom::W(All, All),
];

/// The pinned movement of every cell, in [`measure`] order. Every
/// representation runs its two dangling-edge joins only when
/// `needs_dangling_check()` holds (all/exists here); otherwise OG and OGC
/// rewrite each row where it lies and move nothing, and RG moves only its
/// window copies. VE `wZoom^T` moves each window copy once, keyed by
/// entity. RG `aZoom^T` partitions its vertex -> group mapping once, so the
/// second of its two joins elides that shuffle.
#[rustfmt::skip]
const PINNED: [(Graph, ReprKind, Zoom, Moved); 30] = [
    (Graph::Wiki, ReprKind::Rg, Zoom::A, (5, 2, 6652)),
    (Graph::Wiki, ReprKind::Ve, Zoom::A, (5, 2, 2814)),
    (Graph::Wiki, ReprKind::Og, Zoom::A, (1, 0, 300)),
    (Graph::Wiki, ReprKind::Rg, Zoom::W(Exists, Exists), (3, 0, 4377)),
    (Graph::Wiki, ReprKind::Ve, Zoom::W(Exists, Exists), (2, 0, 1537)),
    (Graph::Wiki, ReprKind::Og, Zoom::W(Exists, Exists), (0, 0, 0)),
    (Graph::Wiki, ReprKind::Ogc, Zoom::W(Exists, Exists), (0, 0, 0)),
    (Graph::Wiki, ReprKind::Rg, Zoom::W(All, Exists), (6, 2, 5891)),
    (Graph::Wiki, ReprKind::Ve, Zoom::W(All, Exists), (4, 2, 2874)),
    (Graph::Wiki, ReprKind::Og, Zoom::W(All, Exists), (3, 2, 1582)),
    (Graph::Wiki, ReprKind::Ogc, Zoom::W(All, Exists), (3, 2, 1582)),
    (Graph::Wiki, ReprKind::Rg, Zoom::W(All, All), (3, 0, 3392)),
    (Graph::Wiki, ReprKind::Ve, Zoom::W(All, All), (2, 0, 1537)),
    (Graph::Wiki, ReprKind::Og, Zoom::W(All, All), (0, 0, 0)),
    (Graph::Wiki, ReprKind::Ogc, Zoom::W(All, All), (0, 0, 0)),
    (Graph::Snb, ReprKind::Rg, Zoom::A, (5, 2, 8116)),
    (Graph::Snb, ReprKind::Ve, Zoom::A, (5, 2, 2200)),
    (Graph::Snb, ReprKind::Og, Zoom::A, (1, 0, 200)),
    (Graph::Snb, ReprKind::Rg, Zoom::W(Exists, Exists), (3, 0, 4448)),
    (Graph::Snb, ReprKind::Ve, Zoom::W(Exists, Exists), (2, 0, 1351)),
    (Graph::Snb, ReprKind::Og, Zoom::W(Exists, Exists), (0, 0, 0)),
    (Graph::Snb, ReprKind::Ogc, Zoom::W(Exists, Exists), (0, 0, 0)),
    (Graph::Snb, ReprKind::Rg, Zoom::W(All, Exists), (6, 2, 5984)),
    (Graph::Snb, ReprKind::Ve, Zoom::W(All, Exists), (4, 2, 2459)),
    (Graph::Snb, ReprKind::Og, Zoom::W(All, Exists), (3, 2, 1276)),
    (Graph::Snb, ReprKind::Ogc, Zoom::W(All, Exists), (3, 2, 1276)),
    (Graph::Snb, ReprKind::Rg, Zoom::W(All, All), (3, 0, 3831)),
    (Graph::Snb, ReprKind::Ve, Zoom::W(All, All), (2, 0, 1351)),
    (Graph::Snb, ReprKind::Og, Zoom::W(All, All), (0, 0, 0)),
    (Graph::Snb, ReprKind::Ogc, Zoom::W(All, All), (0, 0, 0)),
];

fn graph(which: Graph) -> TGraph {
    match which {
        Graph::Wiki => WikiTalk {
            vertices: 300,
            months: 12,
            edges_per_vertex: 3.0,
            edge_survival: 0.2,
            edit_count_values: 6,
            seed: 20200330,
        }
        .generate(),
        Graph::Snb => Snb {
            persons: 200,
            months: 12,
            edges_per_person: 6.0,
            first_names: 20,
            seed: 20200330,
        }
        .generate(),
    }
}

fn group_key(which: Graph) -> &'static str {
    match which {
        Graph::Wiki => "editCount",
        Graph::Snb => "firstName",
    }
}

fn pipeline(which: Graph, zoom: Zoom) -> Pipeline {
    match zoom {
        Zoom::A => {
            let key = group_key(which);
            Pipeline::new().azoom(AZoomSpec::by_property(
                key,
                key,
                vec![AggSpec::count("members")],
            ))
        }
        Zoom::W(vq, eq) => Pipeline::new().wzoom(WZoomSpec::points(3, vq, eq)),
    }
}

/// One measured cell: what the runtime counted, and what the result's
/// plan shows.
struct Cell {
    graph: Graph,
    kind: ReprKind,
    zoom: Zoom,
    runtime: Moved,
    plan: Moved,
    /// The `rows=` values on the `shuffle` lines of the result's EXPLAIN.
    explained: u64,
}

/// The exchanges reachable from `roots`, each node once: executed
/// shuffles, elided ones, and the records the executed ones hold.
fn plan_exchanges(roots: &[(&str, Arc<PlanNode>)]) -> Moved {
    let mut seen = HashSet::new();
    let mut stack: Vec<Arc<PlanNode>> = roots.iter().map(|(_, r)| Arc::clone(r)).collect();
    let mut moved = (0, 0, 0);
    while let Some(n) = stack.pop() {
        if !seen.insert(Arc::as_ptr(&n)) {
            continue;
        }
        match n.op {
            OpKind::Shuffle { .. } => {
                moved.0 += 1;
                moved.2 += n.rows.expect("a shuffle node counts what it moved");
            }
            OpKind::ElidedShuffle { .. } => moved.1 += 1,
            _ => {}
        }
        stack.extend(n.inputs.iter().cloned());
    }
    moved
}

/// The sum of `rows=` over the lines of one EXPLAIN rendering of `roots`
/// (each node once, under a synthetic root) whose operator label is a
/// shuffle, elided ones included.
fn explained_shuffle_rows(roots: &[(&str, Arc<PlanNode>)]) -> u64 {
    let inputs = roots.iter().map(|(_, r)| Arc::clone(r)).collect();
    let root = PlanNode::new("result", OpKind::Union, Partitioning::Unknown, None, inputs);
    tgraph_analyze::analyze(&root)
        .explain
        .lines()
        .filter(|line| {
            let label = line.split_whitespace().nth(1);
            label.is_some_and(|l| l.starts_with("shuffle"))
        })
        .filter_map(|line| line.split_once(" rows=")?.1.parse::<u64>().ok())
        .sum()
}

/// The window copies VE `wZoom^T` multiplies `g`'s tuples into over
/// 3-point windows: one per tuple per window it overlaps (§5.2, F15).
fn window_copies(g: &TGraph) -> u64 {
    let windows = window_relation(g.lifespan, &[], WindowSpec::Points(3));
    let intervals = g.vertices.iter().map(|v| v.interval);
    intervals
        .chain(g.edges.iter().map(|e| e.interval))
        .map(|iv| windows_of(iv, &windows).count() as u64)
        .sum()
}

/// Runs every cell of the table: four representations (OGC has no
/// `aZoom^T`) by four zooms, on both graphs.
fn measure() -> Vec<Cell> {
    let rt = Runtime::with_partitions(2, 4);
    let mut cells = Vec::new();
    for which in [Graph::Wiki, Graph::Snb] {
        let g = graph(which);
        for zoom in ZOOMS {
            for kind in ReprKind::all() {
                if zoom == Zoom::A && !kind.supports_azoom() {
                    continue;
                }
                let loaded = AnyGraph::load(&rt, &g, kind);
                let before = rt.stats();
                let out = pipeline(which, zoom).execute(&rt, loaded);
                let d = rt.stats().since(&before);
                let lineages = out.lineages();
                cells.push(Cell {
                    graph: which,
                    kind,
                    zoom,
                    runtime: (d.shuffles, d.shuffles_elided, d.shuffled_records),
                    plan: plan_exchanges(&lineages),
                    explained: explained_shuffle_rows(&lineages),
                });
            }
        }
    }
    cells
}

/// `PINNED`'s source text for `cells`, to paste on a deliberate change.
fn render(cells: &[Cell]) -> String {
    cells
        .iter()
        .map(|c| {
            let zoom = match c.zoom {
                Zoom::A => "Zoom::A".to_string(),
                Zoom::W(vq, eq) => format!("Zoom::W({vq:?}, {eq:?})"),
            };
            format!(
                "    (Graph::{:?}, ReprKind::{:?}, {zoom}, {:?}),\n",
                c.graph, c.kind, c.runtime
            )
        })
        .collect()
}

#[test]
fn every_cell_moves_what_is_pinned() {
    let cells = measure();
    let got: Vec<_> = cells
        .iter()
        .map(|c| (c.graph, c.kind, c.zoom, c.runtime))
        .collect();
    assert!(
        got == PINNED,
        "movement changed; if on purpose, re-pin PINNED with:\n{}",
        render(&cells)
    );
}

#[test]
fn each_plan_shows_the_exchanges_the_runtime_counted() {
    for c in measure() {
        assert_eq!(
            c.plan, c.runtime,
            "{:?} {:?} {:?}: plan (shuffles, elided, shuffle rows) against the runtime's counts",
            c.graph, c.kind, c.zoom
        );
        assert_eq!(
            c.explained, c.runtime.2,
            "{:?} {:?} {:?}: EXPLAIN's shuffle `rows=` against the records moved",
            c.graph, c.kind, c.zoom
        );
    }
}

#[test]
fn the_papers_movement_relations_hold() {
    let cells = measure();
    let records = |which: Graph, kind: ReprKind, zoom: Zoom| {
        cells
            .iter()
            .find(|c| (c.graph, c.kind, c.zoom) == (which, kind, zoom))
            .map(|c| c.runtime.2)
            .expect("every cell is measured")
    };
    for which in [Graph::Wiki, Graph::Snb] {
        // RG shuffles a record per snapshot copy, more than VE's
        // per-tuple exchanges.
        let (rg, ve) = (
            records(which, ReprKind::Rg, Zoom::A),
            records(which, ReprKind::Ve, Zoom::A),
        );
        assert!(rg > ve, "{which:?} aZoom: RG {rg} <= VE {ve}");
        // OG exchanges group assignments, at most one per vertex.
        let og = records(which, ReprKind::Og, Zoom::A);
        let g = graph(which);
        let vertices = g.distinct_vertex_count() as u64;
        let copies = window_copies(&g);
        assert!(
            og <= vertices,
            "{which:?} aZoom: OG {og} > {vertices} vertices"
        );
        for zoom in ZOOMS {
            let (ve, og) = (
                records(which, ReprKind::Ve, zoom),
                records(which, ReprKind::Og, zoom),
            );
            assert!(ve >= og, "{which:?} {zoom:?}: VE {ve} < OG {og}");
            if let Zoom::W(vq, eq) = zoom {
                // VE's window copies cross the exchange: the F15 cost.
                assert!(
                    ve >= copies,
                    "{which:?} {zoom:?}: VE {ve} < {copies} copies"
                );
                // OG keeps histories entity-local and OGC counts bits row
                // by row: a wZoom moves nothing unless the dangling-edge
                // joins must run, and VE moves its window copies once.
                if !WZoomSpec::points(3, vq, eq).needs_dangling_check() {
                    let ogc = records(which, ReprKind::Ogc, zoom);
                    assert_eq!(og, 0, "{which:?} {zoom:?}: OG moved records");
                    assert_eq!(ogc, 0, "{which:?} {zoom:?}: OGC moved records");
                    assert_eq!(ve, copies, "{which:?} {zoom:?}: VE against copies");
                }
            }
        }
    }
}
