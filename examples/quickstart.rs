//! Quickstart: build the paper's running-example TGraph (Figure 1) by hand,
//! run both zoom operators, and print the results — reproducing Figures 2
//! and 3 of the paper on the console.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tgraph::prelude::*;

fn print_graph(title: &str, g: &TGraph) {
    println!("=== {title} ===");
    println!("lifespan {}", g.lifespan);
    let mut vertices = g.vertices.clone();
    vertices.sort_by_key(|v| (v.vid, v.interval.start));
    for v in &vertices {
        println!(
            "  vertex {:>3}  {:<10} {:?}",
            v.vid.0,
            v.interval.to_string(),
            v.props
        );
    }
    let mut edges = g.edges.clone();
    edges.sort_by_key(|e| (e.eid, e.interval.start));
    for e in &edges {
        println!(
            "  edge   {:>3}  {:<10} {} -> {}  {:?}",
            e.eid.0,
            e.interval.to_string(),
            e.src.0,
            e.dst.0,
            e.props
        );
    }
    println!();
}

fn main() {
    let rt = Runtime::new(4);

    // --- Figure 1: an interaction network over nine months. -----------------
    // Ann is enrolled at MIT during [1,7); Bob has no school until month 5,
    // then CMU; Cat is at MIT for the whole period. Two co-author edges.
    let person = Props::typed("person");
    let g = TGraph::from_records(
        vec![
            VertexRecord::new(
                1,
                Interval::new(1, 7),
                person.clone().with("name", "Ann").with("school", "MIT"),
            ),
            VertexRecord::new(2, Interval::new(2, 5), person.clone().with("name", "Bob")),
            VertexRecord::new(
                2,
                Interval::new(5, 9),
                person.clone().with("name", "Bob").with("school", "CMU"),
            ),
            VertexRecord::new(
                3,
                Interval::new(1, 9),
                person.with("name", "Cat").with("school", "MIT"),
            ),
        ],
        vec![
            EdgeRecord::new(1, 1, 2, Interval::new(2, 7), Props::typed("co-author")),
            EdgeRecord::new(2, 2, 3, Interval::new(7, 9), Props::typed("co-author")),
        ],
    );
    print_graph("Figure 1: input TGraph", &g);

    // --- Figure 2: attribute-based zoom from people to schools. -------------
    // Schools become nodes; `students` counts enrolled people per school and
    // time; edges are re-pointed (note how e1 shrinks to [5,7): Bob was not
    // at CMU before month 5).
    let schools = Pipeline::new()
        .azoom(AZoomSpec::by_property(
            "school",
            "school",
            vec![AggSpec::count("students")],
        ))
        .collect(&rt, AnyGraph::load(&rt, &g, ReprKind::Og));
    print_graph("Figure 2: aZoom^T to school level", &schools);

    // --- Figure 3: window-based zoom from months to quarters. ---------------
    // Keep entities present during the *entire* quarter (nodes=all,
    // edges=all); Bob's school resolves via last(school).
    let quarters = Pipeline::new()
        .wzoom(
            WZoomSpec::points(3, Quantifier::All, Quantifier::All)
                .with_vertex_override("school", ResolveFn::Last),
        )
        .collect(&rt, AnyGraph::load(&rt, &g, ReprKind::Ve));
    print_graph("Figure 3: wZoom^T to quarters (all/all)", &quarters);

    // The same zoom with existential quantification keeps more history.
    let exists = Pipeline::new()
        .wzoom(WZoomSpec::points(3, Quantifier::Exists, Quantifier::Exists))
        .collect(&rt, AnyGraph::load(&rt, &g, ReprKind::Ve));
    print_graph("wZoom^T to quarters (exists/exists)", &exists);

    println!("done. Try `--example school_collaboration` next.");
}
