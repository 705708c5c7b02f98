//! Temporal-resolution analysis with `wZoom^T` (§2.3): quantify the state of
//! a volatile interaction network per fiscal quarter, comparing existence
//! quantifiers — `all` surfaces *stable* relationships, `exists` surfaces
//! *any* activity, `most` sits in between.
//!
//! ```sh
//! cargo run --release --example fiscal_quarters
//! ```

use tgraph::datagen::WikiTalk;
use tgraph::prelude::*;

fn main() {
    let rt = Runtime::new(4);

    // A WikiTalk-shaped messaging network: 36 monthly snapshots, short-lived
    // edges — exactly the kind of graph where the right temporal resolution
    // is not obvious a priori.
    let g = WikiTalk {
        vertices: 3_000,
        months: 36,
        ..WikiTalk::default()
    }
    .generate();
    println!(
        "input: {} users, {} message edges, {} monthly snapshots",
        g.distinct_vertex_count(),
        g.distinct_edge_count(),
        g.change_points().len().saturating_sub(1),
    );

    // Zoom to quarters under three quantifier regimes.
    for (label, vq, eq) in [
        (
            "nodes=all,   edges=all   (stable cores)",
            Quantifier::All,
            Quantifier::All,
        ),
        (
            "nodes=all,   edges=most  (strong ties)",
            Quantifier::All,
            Quantifier::Most,
        ),
        (
            "nodes=exists,edges=exists (any activity)",
            Quantifier::Exists,
            Quantifier::Exists,
        ),
    ] {
        let spec = WZoomSpec::points(3, vq, eq);
        // OGC is the paper's fastest representation for wZoom^T — this graph
        // has no attributes beyond `type`, so nothing is lost.
        let out = Pipeline::new()
            .wzoom(spec)
            .collect(&rt, AnyGraph::load(&rt, &g, ReprKind::Ogc));
        println!(
            "\nquarterly zoom [{label}]\n  -> {} vertex states, {} edge states, {} snapshots",
            out.vertex_tuple_count(),
            out.edge_tuple_count(),
            out.change_points().len().saturating_sub(1),
        );
        assert!(tgraph::core::validate::validate(&out).is_empty());
    }

    // Compare resolutions: quarters vs years for the same quantifier.
    println!("\nedge survival by window size (edges=all):");
    for window in [3u64, 6, 12] {
        let spec = WZoomSpec::points(window, Quantifier::Exists, Quantifier::All);
        let out = Pipeline::new()
            .wzoom(spec)
            .collect(&rt, AnyGraph::load(&rt, &g, ReprKind::Ogc));
        println!(
            "  window {window:>2} months: {:>6} edge states survive",
            out.edge_tuple_count()
        );
    }
    println!("\nlonger windows keep fewer edges under `all` — volatile ties wash out.");
}
