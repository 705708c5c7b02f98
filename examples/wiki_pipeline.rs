//! End-to-end pipeline (§4–5.3): generate a WikiTalk-shaped dataset, persist
//! it to the columnar `.tgc`/`.tgo` formats, load a time slice back through
//! predicate pushdown, and run a chained `aZoom^T` · `wZoom^T` query with a
//! representation switch in the middle — the full system in one program.
//!
//! ```sh
//! cargo run --release --example wiki_pipeline
//! ```

use tgraph::datagen::{graph_stats, WikiTalk};
use tgraph::prelude::*;
use tgraph::storage::write_dataset;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rt = Runtime::new(4);

    // 1. Generate and inspect the dataset.
    let g = WikiTalk {
        vertices: 5_000,
        months: 48,
        ..WikiTalk::default()
    }
    .generate();
    let stats = graph_stats(&g);
    println!(
        "generated WikiTalk-shaped graph: {} vertices, {} edges, {} snapshots, evolution rate {:.1}",
        stats.vertices, stats.edges, stats.snapshots, stats.evolution_rate
    );

    // 2. Persist to disk in all on-disk encodings (flat temporal, flat
    //    structural, nested) — the dataset directory a cluster would share.
    let dir = std::env::temp_dir().join("tgraph-wiki-pipeline");
    write_dataset(&dir, "wiki", &g)?;
    println!("wrote dataset to {}", dir.display());

    // 3. Load only the last year through predicate pushdown.
    let loader = GraphLoader::new(&dir, "wiki");
    let range = Interval::new(36, 48);
    let (og, scan) = loader.load_og(&rt, Some(range))?;
    println!(
        "loaded [{range}] as OG: {} chunks read, {} skipped by pushdown, {} rows",
        scan.chunks_read, scan.chunks_skipped, scan.rows_read
    );

    // 4. Chain: group users by editCount bucket (aZoom^T on OG), then zoom
    //    the result to quarters (wZoom^T after switching to VE).
    let bucket = AZoomSpec {
        skolem: Skolem::Custom {
            name: "editCount-bucket",
            f: std::sync::Arc::new(|_vid, props| {
                let edits = props.get("editCount")?.as_int()?;
                let bucket = edits / 1000;
                Some((bucket as u64, Props::new().with("bucket", bucket)))
            }),
        },
        new_type: "cohort".into(),
        aggs: vec![
            AggSpec::count("users"),
            AggSpec::new("maxEdits", AggFn::Max("editCount".into())),
        ]
        .into(),
    };
    let wspec = WZoomSpec::points(3, Quantifier::Exists, Quantifier::Exists);

    let result = Pipeline::new()
        .azoom(bucket)
        .switch_to(ReprKind::Ve)
        .wzoom(wspec)
        .collect(&rt, AnyGraph::Og(og));

    println!(
        "\ncohort-level quarterly graph: {} cohort states, {} interaction states",
        result.vertex_tuple_count(),
        result.edge_tuple_count()
    );
    let mut cohorts: Vec<_> = result.vertices.iter().collect();
    cohorts.sort_by_key(|v| {
        (
            v.props.get("bucket").and_then(Value::as_int).unwrap_or(0),
            v.interval.start,
        )
    });
    for v in cohorts.iter().take(12) {
        println!(
            "  cohort {:>2}  {:<10} users={:<5} maxEdits={}",
            v.props.get("bucket").and_then(Value::as_int).unwrap_or(-1),
            v.interval.to_string(),
            v.props.get("users").and_then(Value::as_int).unwrap_or(0),
            v.props.get("maxEdits").and_then(Value::as_int).unwrap_or(0),
        );
    }
    if cohorts.len() > 12 {
        println!("  ... {} more cohort states", cohorts.len() - 12);
    }

    assert!(tgraph::core::validate::validate(&result).is_empty());
    println!(
        "\npipeline result validated; dataflow stats: {:?}",
        rt.stats()
    );
    Ok(())
}
