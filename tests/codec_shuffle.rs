//! The record codec on the shuffle path. With serialized shuffles on, every
//! bucket a zoom moves round-trips through the `Spill` codec — property
//! sets, strings and OGC's bitsets included. Under a byte budget instead,
//! buckets are written to and read back from spill runs in the same codec.
//! Either way each representation's aZoom and wZoom must materialize to
//! exactly what the typed move produces.

use tgraph::datagen::WikiTalk;
use tgraph::prelude::*;

/// Which zoom to run.
#[derive(Clone, Copy, Debug)]
enum Zoom {
    A,
    W,
}

fn run(rt: &Runtime, g: &TGraph, kind: ReprKind, zoom: Zoom) -> TGraph {
    let loaded = AnyGraph::load(rt, g, kind);
    let zoomed = match zoom {
        Zoom::A => loaded.azoom(
            rt,
            &AZoomSpec::by_property("editCount", "group", vec![AggSpec::count("members")]),
        ),
        // `all` on vertices is stricter than `exists` on edges: the
        // dangling-edge joins run, so OGC also moves its vertex bitsets.
        Zoom::W => loaded.wzoom(
            rt,
            &WZoomSpec::points(3, Quantifier::All, Quantifier::Exists),
        ),
    };
    zoomed.to_tgraph(rt)
}

fn runtime() -> Runtime {
    let rt = Runtime::with_partitions(2, 4);
    rt.set_mem_budget(0);
    rt
}

#[test]
fn zooms_through_the_codec_equal_the_typed_move() {
    let g = WikiTalk {
        vertices: 150,
        months: 12,
        seed: 39,
        ..WikiTalk::default()
    }
    .generate();
    let spill_dir =
        std::env::temp_dir().join(format!("tgraph-codec-shuffle-{}", std::process::id()));
    let cases = [
        (ReprKind::Ve, Zoom::A),
        (ReprKind::Og, Zoom::A),
        (ReprKind::Rg, Zoom::A),
        (ReprKind::Ve, Zoom::W),
        (ReprKind::Og, Zoom::W),
        (ReprKind::Ogc, Zoom::W),
        (ReprKind::Rg, Zoom::W),
    ];
    for (kind, zoom) in cases {
        let typed = run(&runtime(), &g, kind, zoom);
        assert!(!typed.is_empty(), "{kind} {zoom:?}: nothing to compare");

        let serialized = runtime();
        serialized.set_serialized_shuffles(true);
        assert!(
            run(&serialized, &g, kind, zoom) == typed,
            "{kind} {zoom:?}: a serialized shuffle changed the result"
        );
        let exchanged = serialized.stats().bytes_exchanged;
        assert!(
            exchanged > 0,
            "{kind} {zoom:?}: nothing went through the codec"
        );

        let budgeted = runtime();
        budgeted.governor().set_spill_dir(&spill_dir);
        budgeted.set_mem_budget(4 << 10);
        assert!(
            run(&budgeted, &g, kind, zoom) == typed,
            "{kind} {zoom:?}: spilling changed the result"
        );
        let spilled = budgeted.stats().bytes_spilled;
        assert!(spilled > 0, "{kind} {zoom:?}: the budget forced no spill");
        println!("codec_shuffle {kind} {zoom:?}: {exchanged} bytes exchanged, {spilled} spilled");
    }
    let _ = std::fs::remove_dir_all(&spill_dir);
}
