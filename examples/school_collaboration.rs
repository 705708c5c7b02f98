//! Collaboration-network analysis with `aZoom^T` (the use case motivating
//! §1–2 of the paper): a synthetic co-authorship network of researchers with
//! institutional affiliations that change over time; zooming out turns it
//! into an evolving institution-level collaboration graph.
//!
//! ```sh
//! cargo run --release --example school_collaboration
//! ```

use rand::prelude::*;
use rand::rngs::StdRng;
use tgraph::prelude::*;

const SCHOOLS: &[&str] = &["MIT", "CMU", "NYU", "Drexel", "UW", "EPFL"];
const YEARS: i64 = 12;

/// Generates an author collaboration network: authors move between schools
/// every few years; co-author edges appear for 1–3-year project periods.
fn collaboration_graph(authors: usize, seed: u64) -> TGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vertices = Vec::new();
    for vid in 0..authors as u64 {
        // Each author's career is split into affiliations.
        let mut year = 0i64;
        while year < YEARS {
            let stay = rng.gen_range(2..=5).min(YEARS - year);
            let school = SCHOOLS[rng.gen_range(0..SCHOOLS.len())];
            vertices.push(VertexRecord::new(
                vid,
                Interval::new(year, year + stay),
                Props::typed("author")
                    .with("name", format!("author{vid}"))
                    .with("school", school),
            ));
            year += stay;
        }
    }
    let mut edges = Vec::new();
    let mut eid = 0u64;
    for _ in 0..authors * 3 {
        let a = rng.gen_range(0..authors as u64);
        let b = rng.gen_range(0..authors as u64);
        if a == b {
            continue;
        }
        let start = rng.gen_range(0..YEARS - 1);
        let len = rng.gen_range(1..=3).min(YEARS - start);
        edges.push(EdgeRecord::new(
            eid,
            a,
            b,
            Interval::new(start, start + len),
            Props::typed("co-author"),
        ));
        eid += 1;
    }
    TGraph::from_records(vertices, edges)
}

fn main() {
    let rt = Runtime::new(4);
    let g = collaboration_graph(400, 7);
    println!(
        "input: {} authors ({} affiliation records), {} co-author edges over {} years",
        g.distinct_vertex_count(),
        g.vertex_tuple_count(),
        g.distinct_edge_count(),
        g.lifespan.len()
    );

    // Zoom authors → schools, computing per-school sizes over time.
    let spec = AZoomSpec::by_property("school", "school", vec![AggSpec::count("authors")]);
    let zoomed = Pipeline::new()
        .azoom(spec)
        .collect(&rt, AnyGraph::load(&rt, &g, ReprKind::Og));

    println!(
        "\nschool-level graph: {} school states, {} collaboration edge states",
        zoomed.vertex_tuple_count(),
        zoomed.edge_tuple_count()
    );

    // Report each school's headcount trajectory.
    println!("\nheadcount per school over time:");
    let mut by_school: Vec<&VertexRecord> = zoomed.vertices.iter().collect();
    by_school.sort_by_key(|v| {
        (
            v.props
                .get("school")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            v.interval.start,
        )
    });
    for v in by_school {
        let school = v.props.get("school").and_then(Value::as_str).unwrap_or("?");
        let n = v.props.get("authors").and_then(Value::as_int).unwrap_or(0);
        println!(
            "  {school:<8} {:<10} {n:>4} authors",
            v.interval.to_string()
        );
    }

    // Count inter-school collaboration intensity (self-loops = internal).
    let internal = zoomed.edges.iter().filter(|e| e.src == e.dst).count();
    let external = zoomed.edge_tuple_count() - internal;
    println!("\ncollaboration edge states: {internal} within a school, {external} across schools");

    // Validity check: every snapshot of the zoomed graph is a valid graph.
    assert!(tgraph::core::validate::validate(&zoomed).is_empty());
    println!("zoomed graph validated: every snapshot is a valid property graph");
}
