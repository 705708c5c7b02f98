//! Golden sweep: the optimizer's representation choice must match the
//! measured winner recorded in EXPERIMENTS.md on every matrix cell, within
//! the per-cell tolerance documented there.
//!
//! Tolerance semantics: a cell lists every representation whose measured
//! time was within the stated factor of the measured winner (EXPERIMENTS.md
//! records e.g. "VE and OG within ~20% of each other" for F10/F11 — both
//! are acceptable choices for that cell). The optimizer must land in the
//! acceptable set; cells with a single clear winner have a singleton set.

use tgraph_core::zoom::{AZoomSpec, AggSpec, Quantifier, WZoomSpec};
use tgraph_optimize::{predicted_work, ChoiceSource, GraphFeatures, Optimizer};
use tgraph_query::Pipeline;
use tgraph_repr::ReprKind;

/// One EXPERIMENTS.md matrix cell: a workload shape over dataset features,
/// plus the measured-winner set and its documented tolerance.
struct Cell {
    name: &'static str,
    features: GraphFeatures,
    steps: Pipeline,
    /// Representations whose measured time was within `tolerance` of the
    /// measured winner.
    acceptable: &'static [ReprKind],
    /// The documented tolerance factor that produced `acceptable`.
    tolerance: f64,
}

/// The aggregation spec is not a cost feature (F12); any one will do.
fn azoom() -> Pipeline {
    Pipeline::new().azoom(AZoomSpec::by_property("k", "k", Vec::new()))
}

fn wspec(window: u64) -> WZoomSpec {
    WZoomSpec::points(window, Quantifier::Exists, Quantifier::Exists)
}

fn wzoom(window: u64) -> Pipeline {
    Pipeline::new().wzoom(wspec(window))
}

fn features(rows: u64, snapshots: u64, lifespan: u64, avg_span: f64) -> GraphFeatures {
    GraphFeatures {
        vertex_rows: rows / 2,
        edge_rows: rows - rows / 2,
        snapshots,
        lifespan,
        avg_span,
    }
}

/// The matrix: one cell per EXPERIMENTS.md figure row that names a winner.
fn matrix() -> Vec<Cell> {
    vec![
        // F11, smallest snapshot count: "At the smallest snapshot counts RG
        // is *fastest* (2-snapshot WikiTalk: 0.07 s vs VE 0.14 s)". RG wins
        // by 2x, so the cell is a singleton at tolerance 1.5.
        Cell {
            name: "F11 aZoom, 2 snapshots (WikiTalk-2)",
            features: features(40_000, 2, 2, 1.0),
            steps: azoom(),
            acceptable: &[ReprKind::Rg],
            tolerance: 1.5,
        },
        // F10/F11 at full scale: "VE and OG within ~20% of each other on
        // every dataset; RG is the slowest" — either tuple repr is a win at
        // tolerance 1.25.
        Cell {
            name: "F11 aZoom, 60 snapshots (WikiTalk-60)",
            features: features(40_000, 60, 60, 30.0),
            steps: azoom(),
            acceptable: &[ReprKind::Ve, ReprKind::Og],
            tolerance: 1.25,
        },
        // F13, change period 1: "VE degrades sharply (SNB 0.39 → 51 s); OG
        // degrades more gently (0.42 → 1.2 s)" — OG is the only acceptable
        // choice even at a generous tolerance 2.0.
        Cell {
            name: "F13 aZoom, high attribute churn (SNB period-1)",
            features: features(20_000, 60, 60, 2.0),
            steps: azoom(),
            acceptable: &[ReprKind::Og],
            tolerance: 2.0,
        },
        // F14: "OGC wins every configuration (3–5x over the next best)" —
        // singleton at tolerance 3.0.
        Cell {
            name: "F14 wZoom, 60 snapshots",
            features: features(40_000, 60, 60, 30.0),
            steps: wzoom(6),
            acceptable: &[ReprKind::Ogc],
            tolerance: 3.0,
        },
        // F15, small window on a growth-only dataset: "OGC best everywhere;
        // VE's small-window penalty ... SNB: 0.62 s at window 2 vs 0.16 s at
        // window 24". OGC singleton at tolerance 2.0.
        Cell {
            name: "F15 wZoom, window 2 (SNB growth-only)",
            features: features(20_000, 60, 60, 30.0),
            steps: wzoom(2),
            acceptable: &[ReprKind::Ogc],
            tolerance: 2.0,
        },
        // F16 chain: "OG wins every dataset and window size (SNB window 6:
        // OG 0.56 s, VE 0.68 s)" — a 21% gap, singleton at tolerance 1.2.
        Cell {
            name: "F16 aZoom-then-wZoom chain (SNB window-6)",
            features: features(20_000, 60, 60, 30.0),
            steps: azoom().wzoom(wspec(6)),
            acceptable: &[ReprKind::Og],
            tolerance: 1.2,
        },
    ]
}

#[test]
fn optimizer_choice_matches_the_measured_winner_on_every_cell() {
    let opt = Optimizer::new();
    for cell in matrix() {
        let d = opt
            .choose(cell.name, &cell.features, &cell.steps)
            .unwrap_or_else(|| panic!("{}: no valid candidate", cell.name));
        assert!(
            cell.acceptable.contains(&d.chosen),
            "{}: chose {:?}, measured winners (tolerance {}x) are {:?}\ncandidates: {:?}",
            cell.name,
            d.chosen,
            cell.tolerance,
            cell.acceptable,
            d.candidates
        );
        assert_eq!(d.source, ChoiceSource::Predicted, "{}", cell.name);
    }
}

/// F11's shape, not just its endpoints: RG's predicted work is linear in
/// the snapshot count with a slope that loses to the flat tuple reprs well
/// before the 60-snapshot endpoint.
#[test]
fn rg_work_grows_linearly_with_snapshots_while_tuple_reprs_stay_flat() {
    let az = azoom();
    let mut last_rg = 0.0;
    for snaps in [2u64, 12, 30, 60] {
        let f = features(40_000, snaps, 60, 30.0);
        let rg = predicted_work(&f, &az, ReprKind::Rg).unwrap();
        assert!(rg > last_rg, "RG must grow with snapshots");
        last_rg = rg;
        let ve = predicted_work(&f, &az, ReprKind::Ve).unwrap();
        let og = predicted_work(&f, &az, ReprKind::Og).unwrap();
        // VE/OG ignore the snapshot count entirely (F11 "flat within noise").
        assert_eq!(
            ve,
            predicted_work(&features(40_000, 2, 60, 30.0), &az, ReprKind::Ve).unwrap()
        );
        assert_eq!(
            og,
            predicted_work(&features(40_000, 2, 60, 30.0), &az, ReprKind::Og).unwrap()
        );
    }
}

/// F13's shape: shrinking the change period (avg span) hurts VE more than
/// OG — the shuffle-vs-local churn asymmetry.
#[test]
fn attribute_churn_hits_ve_harder_than_og() {
    let az = azoom();
    let calm = features(20_000, 60, 60, 30.0);
    let churned = features(20_000, 60, 60, 2.0);
    let ve_blowup = predicted_work(&churned, &az, ReprKind::Ve).unwrap()
        / predicted_work(&calm, &az, ReprKind::Ve).unwrap();
    let og_blowup = predicted_work(&churned, &az, ReprKind::Og).unwrap()
        / predicted_work(&calm, &az, ReprKind::Og).unwrap();
    assert!(
        ve_blowup > og_blowup && og_blowup > 1.0,
        "VE {ve_blowup:.2}x vs OG {og_blowup:.2}x"
    );
}

/// F15's shape: VE's wZoom penalty scales with `avg_span / window` on
/// growth-only data (long spans), while OG and OGC are window-insensitive.
#[test]
fn ve_small_window_penalty_fades_with_larger_windows() {
    let f = features(20_000, 60, 60, 30.0);
    let small = predicted_work(&f, &wzoom(2), ReprKind::Ve).unwrap();
    let large = predicted_work(&f, &wzoom(24), ReprKind::Ve).unwrap();
    assert!(small / large > 3.0, "SNB measured a 3.8x spread");
    for repr in [ReprKind::Og, ReprKind::Ogc] {
        assert_eq!(
            predicted_work(&f, &wzoom(2), repr).unwrap(),
            predicted_work(&f, &wzoom(24), repr).unwrap(),
            "{repr:?} must be window-insensitive"
        );
    }
    // VE at window 2 must also lose to OG outright (the measured SNB gap).
    assert!(small > predicted_work(&f, &wzoom(2), ReprKind::Og).unwrap());
}

/// F16's headline: pure OG beats both switching plans — the conversion is
/// never free.
#[test]
fn pure_og_beats_switching_chains() {
    let f = features(20_000, 60, 60, 30.0);
    let pure = predicted_work(&f, &azoom().wzoom(wspec(6)), ReprKind::Og).unwrap();
    let og_ve = predicted_work(
        &f,
        &azoom().switch_to(ReprKind::Ve).wzoom(wspec(6)),
        ReprKind::Og,
    )
    .unwrap();
    let ve_og = predicted_work(
        &f,
        &azoom().switch_to(ReprKind::Og).wzoom(wspec(6)),
        ReprKind::Ve,
    )
    .unwrap();
    assert!(pure < og_ve && pure < ve_og);
}

/// F12: group-by cardinality does not move the needle — the model has no
/// cardinality input, so two cells differing only in cardinality are one
/// cell. Pinned here as documentation that the omission is deliberate.
#[test]
fn group_by_cardinality_is_not_a_feature() {
    let f = features(40_000, 60, 60, 30.0);
    // Identical features => identical predictions, whatever the agg spec.
    let counted = Pipeline::new().azoom(AZoomSpec::by_property(
        "school",
        "school",
        vec![AggSpec::count("students")],
    ));
    let a = predicted_work(&f, &azoom(), ReprKind::Ve).unwrap();
    let b = predicted_work(&f, &counted, ReprKind::Ve).unwrap();
    assert_eq!(a, b);
}

/// The adaptive layer: once the incumbent and a rival both have measured
/// run times for a shape, the measured ordering overrides the model — the
/// "demonstrably flips at least one choice" acceptance criterion.
#[test]
fn observed_stats_flip_a_choice_the_model_got_wrong() {
    let opt = Optimizer::new();
    let cell = &matrix()[5]; // F16 chain: model picks OG.
    let before = opt.choose(cell.name, &cell.features, &cell.steps).unwrap();
    assert_eq!(before.chosen, ReprKind::Og);
    assert_eq!(before.source, ChoiceSource::Predicted);

    // Suppose this deployment's OG is pathologically slow (cold NFS, say):
    // the chosen repr measures 1.03 s, while an explicitly-requested VE run
    // measures 0.56 s. The next decision must follow the measurements.
    opt.observe(cell.name, ReprKind::Og, 1_030_000);
    opt.observe(cell.name, ReprKind::Ve, 560_000);
    let after = opt.choose(cell.name, &cell.features, &cell.steps).unwrap();
    assert_eq!(after.chosen, ReprKind::Ve, "{:?}", after.candidates);
    assert_eq!(after.source, ChoiceSource::Observed);

    // The flip is shape-local: a different shape is untouched.
    let other = opt
        .choose("some other shape", &cell.features, &cell.steps)
        .unwrap();
    assert_eq!(other.chosen, ReprKind::Og);
    assert_eq!(other.source, ChoiceSource::Predicted);
}

/// End-to-end feature extraction: header-only `.tgc` statistics of a real
/// dataset produce sane features without decoding any rows.
#[test]
fn features_from_tgc_stats_match_the_stored_graph() {
    use tgraph_core::graph::figure1_graph_stable_ids;
    use tgraph_storage::{write_dataset, GraphLoader};

    let dir = std::env::temp_dir().join("tgraph-optimize-features");
    let _ = std::fs::remove_dir_all(&dir);
    write_dataset(&dir, "fig1", &figure1_graph_stable_ids()).expect("write dataset");
    let stats = GraphLoader::new(&dir, "fig1")
        .flat_stats()
        .expect("flat stats");
    let from_stats = GraphFeatures::from_tgc_stats(&stats, None);
    let exact = GraphFeatures::from_tgraph(&figure1_graph_stable_ids());
    // Chunk estimates are upper bounds, never undercounts.
    assert!(from_stats.vertex_rows >= exact.vertex_rows);
    assert!(from_stats.edge_rows >= exact.edge_rows);
    assert_eq!(from_stats.lifespan, exact.lifespan);
    assert!(from_stats.avg_span >= 1.0);
    // Both feature vectors drive the same choice on the same pipeline.
    let opt = Optimizer::new();
    let a = opt.choose("k1", &from_stats, &azoom()).expect("choice");
    let b = opt.choose("k2", &exact, &azoom()).expect("choice");
    assert_eq!(a.chosen, b.chosen);
}
