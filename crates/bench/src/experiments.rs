//! One function per table/figure of the paper's evaluation (§5). Each
//! returns printable [`Table`]s with the same rows/series the paper reports.
//! The experiment index in `DESIGN.md` maps every figure to its function.

use std::time::Duration;
use tgraph_core::zoom::azoom::{AZoomSpec, AggSpec};
use tgraph_core::zoom::wzoom::{Quantifier, WZoomSpec};
use tgraph_core::TGraph;
use tgraph_dataflow::Runtime;
use tgraph_datagen::{coarsen_time, graph_stats, inject_attribute_changes, project_random_groups};
use tgraph_query::{Pipeline, Step};
use tgraph_repr::{AnyGraph, ReprKind};
use tgraph_storage::{write_dataset, GraphLoader};

use crate::datasets::{
    natural_group_key, ngrams, ngrams_years, snb, snb_months, wikitalk, wikitalk_months, DatasetId,
};
use crate::harness::{measure, Cell, Table};
use crate::runner::{run_pipeline, CHAIN_PLANS};

/// Global experiment configuration.
#[derive(Clone, Debug)]
pub struct ExpConfig {
    /// Dataset scale relative to the laptop-sized defaults.
    pub scale: f64,
    /// Worker threads (the paper used 16 workers × 4 cores).
    pub workers: usize,
    /// Soft timeout per measurement (the paper used 30 minutes).
    pub timeout: Duration,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: 1.0,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            timeout: Duration::from_secs(60),
        }
    }
}

impl ExpConfig {
    fn runtime(&self) -> Runtime {
        Runtime::new(self.workers)
    }
}

fn natural_azoom(id: DatasetId) -> AZoomSpec {
    AZoomSpec::by_property(
        natural_group_key(id),
        "group",
        vec![AggSpec::count("members")],
    )
}

fn group_azoom() -> AZoomSpec {
    AZoomSpec::by_property("group", "group", vec![AggSpec::count("members")])
}

/// Renders the executor's data-movement delta since `before` as a table
/// footer: shuffle rounds (and elided ones), records and approximate bytes
/// moved, plus the task/wave counts that show operator fusion at work.
fn movement_note(rt: &Runtime, before: &tgraph_dataflow::RuntimeStats) -> String {
    let d = rt.stats().since(before);
    format!(
        "moved: {} shuffle rounds ({} elided), {} records, ~{}; {} tasks in {} waves",
        d.shuffles,
        d.shuffles_elided,
        d.shuffled_records,
        crate::harness::fmt_bytes(d.shuffled_bytes),
        d.tasks,
        d.waves
    )
}

/// T1 — the dataset summary table of §5 (vertices, edges, snapshots,
/// evolution rate), for generated stand-ins at the configured scale.
pub fn datasets_table(cfg: &ExpConfig) -> Vec<Table> {
    let mut t = Table::new(
        format!(
            "Datasets (scale {}) — paper: WikiTalk ev 14.4, SNB ev 89-91, NGrams ev 16-18",
            cfg.scale
        ),
        vec![
            "vertices".into(),
            "edges".into(),
            "snapshots".into(),
            "ev.rate".into(),
        ],
    );
    // This table reports counts, not times; reuse Cell::Time to carry seconds
    // would be wrong, so render counts into the label column instead.
    let mut lines = Vec::new();
    for (name, g) in [
        ("WikiTalk", wikitalk(cfg.scale)),
        ("SNB:a", snb(cfg.scale * 0.5)),
        ("SNB:b", snb(cfg.scale)),
        ("SNB:c", snb(cfg.scale * 2.0)),
        ("NGrams", ngrams(cfg.scale)),
    ] {
        let s = graph_stats(&g);
        lines.push(format!(
            "{name:10} {:>9} {:>9} {:>9} {:>8.1}",
            s.vertices, s.edges, s.snapshots, s.evolution_rate
        ));
    }
    t.push_row(lines.join("\n"), vec![]);
    vec![t]
}

fn size_series(id: DatasetId, cfg: &ExpConfig) -> Vec<(String, TGraph)> {
    match id {
        DatasetId::WikiTalk => [12u32, 24, 36, 48, 60]
            .iter()
            .map(|m| (format!("{m} snaps"), wikitalk_months(cfg.scale, *m)))
            .collect(),
        DatasetId::Snb => [0.125, 0.25, 0.5, 1.0]
            .iter()
            .map(|f| (format!("sf x{f}"), snb(cfg.scale * f)))
            .collect(),
        DatasetId::NGrams => [25u32, 50, 75, 100]
            .iter()
            .map(|y| (format!("{y} snaps"), ngrams_years(cfg.scale, *y)))
            .collect(),
    }
}

/// F10 — `aZoom^T`, fixed group count, varying data size (Fig. 10 a–c).
pub fn fig10(cfg: &ExpConfig) -> Vec<Table> {
    let rt = cfg.runtime();
    let reprs = [ReprKind::Rg, ReprKind::Ve, ReprKind::Og];
    let mut tables = Vec::new();
    for id in [DatasetId::WikiTalk, DatasetId::Snb, DatasetId::NGrams] {
        let pipeline = Pipeline::new().azoom(natural_azoom(id));
        let before = rt.stats();
        let mut t = Table::new(
            format!("Fig.10 aZoom^T vs data size — {id}"),
            reprs.iter().map(|r| r.to_string()).collect(),
        );
        let mut dead = [false; 3];
        for (label, g) in size_series(id, cfg) {
            let mut cells = Vec::new();
            for (i, kind) in reprs.iter().enumerate() {
                let cell = if dead[i] {
                    Cell::Skipped
                } else {
                    run_pipeline(&rt, &g, *kind, &pipeline, cfg.timeout)
                };
                if cell.is_timeout() {
                    dead[i] = true;
                }
                cells.push(cell);
            }
            t.push_row(label, cells);
        }
        t.set_note(movement_note(&rt, &before));
        tables.push(t);
    }
    tables
}

/// F11 — `aZoom^T`, fixed size and group-by cardinality, varying the number
/// of snapshots (Fig. 11 a–c).
pub fn fig11(cfg: &ExpConfig) -> Vec<Table> {
    let rt = cfg.runtime();
    let reprs = [ReprKind::Rg, ReprKind::Ve, ReprKind::Og];
    let mut tables = Vec::new();

    // WikiTalk / NGrams: merge consecutive snapshots of the full graph.
    for (id, base, factors) in [
        (
            DatasetId::WikiTalk,
            wikitalk(cfg.scale),
            vec![30u32, 12, 6, 2, 1],
        ),
        (
            DatasetId::NGrams,
            ngrams(cfg.scale),
            vec![50u32, 20, 10, 4, 1],
        ),
    ] {
        let pipeline = Pipeline::new().azoom(natural_azoom(id));
        let before = rt.stats();
        let mut t = Table::new(
            format!("Fig.11 aZoom^T vs #snapshots (fixed size) — {id}"),
            reprs.iter().map(|r| r.to_string()).collect(),
        );
        let mut dead = [false; 3];
        for factor in factors {
            let g = coarsen_time(&base, factor);
            let snaps = g.change_points().len().saturating_sub(1);
            let mut cells = Vec::new();
            for (i, kind) in reprs.iter().enumerate() {
                let cell = if dead[i] {
                    Cell::Skipped
                } else {
                    run_pipeline(&rt, &g, *kind, &pipeline, cfg.timeout)
                };
                if cell.is_timeout() {
                    dead[i] = true;
                }
                cells.push(cell);
            }
            t.push_row(format!("{snaps} snaps"), cells);
        }
        t.set_note(movement_note(&rt, &before));
        tables.push(t);
    }

    // SNB: directly generate the desired number of snapshots.
    {
        let pipeline = Pipeline::new().azoom(natural_azoom(DatasetId::Snb));
        let before = rt.stats();
        let mut t = Table::new(
            "Fig.11 aZoom^T vs #snapshots (fixed size) — SNB".to_string(),
            reprs.iter().map(|r| r.to_string()).collect(),
        );
        let mut dead = [false; 3];
        for months in [12u32, 36, 72, 120] {
            let g = snb_months(cfg.scale, months);
            let mut cells = Vec::new();
            for (i, kind) in reprs.iter().enumerate() {
                let cell = if dead[i] {
                    Cell::Skipped
                } else {
                    run_pipeline(&rt, &g, *kind, &pipeline, cfg.timeout)
                };
                if cell.is_timeout() {
                    dead[i] = true;
                }
                cells.push(cell);
            }
            t.push_row(format!("{months} snaps"), cells);
        }
        t.set_note(movement_note(&rt, &before));
        tables.push(t);
    }
    tables
}

/// F12 — `aZoom^T`, varying group-by cardinality (Fig. 12 a–c).
pub fn fig12(cfg: &ExpConfig) -> Vec<Table> {
    let rt = cfg.runtime();
    let reprs = [ReprKind::Rg, ReprKind::Ve, ReprKind::Og];
    let pipeline = Pipeline::new().azoom(group_azoom());
    let mut tables = Vec::new();
    for (id, base) in [
        (DatasetId::WikiTalk, wikitalk(cfg.scale)),
        (DatasetId::Snb, snb(cfg.scale)),
        (DatasetId::NGrams, ngrams(cfg.scale)),
    ] {
        let before = rt.stats();
        let mut t = Table::new(
            format!("Fig.12 aZoom^T vs group-by cardinality — {id}"),
            reprs.iter().map(|r| r.to_string()).collect(),
        );
        let mut dead = [false; 3];
        for card in [10u64, 100, 1_000, 100_000, 1_000_000] {
            let g = project_random_groups(&base, card, 42);
            let mut cells = Vec::new();
            for (i, kind) in reprs.iter().enumerate() {
                let cell = if dead[i] {
                    Cell::Skipped
                } else {
                    run_pipeline(&rt, &g, *kind, &pipeline, cfg.timeout)
                };
                if cell.is_timeout() {
                    dead[i] = true;
                }
                cells.push(cell);
            }
            t.push_row(format!("card {card}"), cells);
        }
        t.set_note(movement_note(&rt, &before));
        tables.push(t);
    }
    tables
}

/// F13 — `aZoom^T`, varying frequency of vertex attribute change
/// (Fig. 13 a–b: WikiTalk and SNB).
pub fn fig13(cfg: &ExpConfig) -> Vec<Table> {
    let rt = cfg.runtime();
    let reprs = [ReprKind::Rg, ReprKind::Ve, ReprKind::Og];
    let mut tables = Vec::new();
    for (id, base) in [
        (DatasetId::WikiTalk, wikitalk(cfg.scale)),
        (DatasetId::Snb, snb(cfg.scale)),
    ] {
        let pipeline = Pipeline::new().azoom(natural_azoom(id));
        let before = rt.stats();
        let mut t = Table::new(
            format!("Fig.13 aZoom^T vs frequency of change — {id}"),
            reprs.iter().map(|r| r.to_string()).collect(),
        );
        let mut dead = [false; 3];
        // Period in time points between changes; smaller = more changes.
        for period in [60u32, 24, 12, 6, 3, 1] {
            let g = inject_attribute_changes(&base, period);
            let mut cells = Vec::new();
            for (i, kind) in reprs.iter().enumerate() {
                let cell = if dead[i] {
                    Cell::Skipped
                } else {
                    run_pipeline(&rt, &g, *kind, &pipeline, cfg.timeout)
                };
                if cell.is_timeout() {
                    dead[i] = true;
                }
                cells.push(cell);
            }
            t.push_row(format!("every {period}"), cells);
        }
        t.set_note(movement_note(&rt, &before));
        tables.push(t);
    }
    tables
}

/// F14 — `wZoom^T`, fixed window, varying data size (Fig. 14 a–c),
/// quantifiers `exists`/`exists`.
pub fn fig14(cfg: &ExpConfig) -> Vec<Table> {
    let rt = cfg.runtime();
    let reprs = [ReprKind::Rg, ReprKind::Ve, ReprKind::Og, ReprKind::Ogc];
    let mut tables = Vec::new();
    for id in [DatasetId::WikiTalk, DatasetId::Snb, DatasetId::NGrams] {
        let window = match id {
            DatasetId::NGrams => 25,
            _ => 3,
        };
        let pipeline = Pipeline::new().wzoom(WZoomSpec::points(
            window,
            Quantifier::Exists,
            Quantifier::Exists,
        ));
        let before = rt.stats();
        let mut t = Table::new(
            format!("Fig.14 wZoom^T vs data size (window {window}) — {id}"),
            reprs.iter().map(|r| r.to_string()).collect(),
        );
        let mut dead = [false; 4];
        for (label, g) in size_series(id, cfg) {
            let mut cells = Vec::new();
            for (i, kind) in reprs.iter().enumerate() {
                let cell = if dead[i] {
                    Cell::Skipped
                } else {
                    run_pipeline(&rt, &g, *kind, &pipeline, cfg.timeout)
                };
                if cell.is_timeout() {
                    dead[i] = true;
                }
                cells.push(cell);
            }
            t.push_row(label, cells);
        }
        t.set_note(movement_note(&rt, &before));
        tables.push(t);
    }
    tables
}

/// F15 — `wZoom^T`, fixed data size, varying window size (Fig. 15 a–c),
/// quantifiers `all`/`all`.
pub fn fig15(cfg: &ExpConfig) -> Vec<Table> {
    let rt = cfg.runtime();
    let reprs = [ReprKind::Rg, ReprKind::Ve, ReprKind::Og, ReprKind::Ogc];
    let mut tables = Vec::new();
    for (id, g, windows) in [
        (
            DatasetId::WikiTalk,
            wikitalk(cfg.scale),
            vec![2u64, 3, 6, 12, 24],
        ),
        (DatasetId::Snb, snb(cfg.scale), vec![2u64, 3, 6, 12, 24]),
        (
            DatasetId::NGrams,
            ngrams(cfg.scale),
            vec![5u64, 10, 25, 50, 100],
        ),
    ] {
        let before = rt.stats();
        let mut t = Table::new(
            format!("Fig.15 wZoom^T vs window size — {id}"),
            reprs.iter().map(|r| r.to_string()).collect(),
        );
        let mut dead = [false; 4];
        for w in windows {
            let pipeline =
                Pipeline::new().wzoom(WZoomSpec::points(w, Quantifier::All, Quantifier::All));
            let mut cells = Vec::new();
            for (i, kind) in reprs.iter().enumerate() {
                let cell = if dead[i] {
                    Cell::Skipped
                } else {
                    run_pipeline(&rt, &g, *kind, &pipeline, cfg.timeout)
                };
                if cell.is_timeout() {
                    dead[i] = true;
                }
                cells.push(cell);
            }
            t.push_row(format!("window {w}"), cells);
        }
        t.set_note(movement_note(&rt, &before));
        tables.push(t);
    }
    tables
}

/// F16 — chained `aZoom^T` · `wZoom^T` with representation switching
/// (Fig. 16 a–c): plans VE, OG, VE→OG, OG→VE over varying window sizes.
pub fn fig16(cfg: &ExpConfig) -> Vec<Table> {
    let rt = cfg.runtime();
    let mut tables = Vec::new();
    for (id, g, windows) in [
        (
            DatasetId::WikiTalk,
            wikitalk(cfg.scale),
            vec![2u64, 6, 12, 24],
        ),
        (DatasetId::Snb, snb(cfg.scale), vec![2u64, 6, 12, 24]),
        (
            DatasetId::NGrams,
            ngrams(cfg.scale * 0.5),
            vec![5u64, 10, 25, 50],
        ),
    ] {
        let azoom = Step::AZoom(natural_azoom(id));
        let before = rt.stats();
        let mut t = Table::new(
            format!("Fig.16 aZoom^T·wZoom^T chain, representation switching — {id}"),
            CHAIN_PLANS.iter().map(|p| p.to_string()).collect(),
        );
        for w in windows {
            let wzoom = Step::WZoom(WZoomSpec::points(w, Quantifier::All, Quantifier::All));
            let cells = CHAIN_PLANS
                .iter()
                .map(|plan| {
                    let chain = plan.pipeline(azoom.clone(), wzoom.clone());
                    run_pipeline(&rt, &g, plan.first, &chain, cfg.timeout)
                })
                .collect();
            t.push_row(format!("window {w}"), cells);
        }
        t.set_note(movement_note(&rt, &before));
        tables.push(t);
    }
    tables
}

/// F17 — zoom order × group-by cardinality (Fig. 17 a–c): `aZoom^T·wZoom^T`
/// versus `wZoom^T·aZoom^T` on VE and OG.
pub fn fig17(cfg: &ExpConfig) -> Vec<Table> {
    let rt = cfg.runtime();
    let azoom = Step::AZoom(group_azoom());
    let mut tables = Vec::new();
    for (id, base, window) in [
        (DatasetId::WikiTalk, wikitalk(cfg.scale), 6u64),
        (DatasetId::Snb, snb(cfg.scale), 6),
        (DatasetId::NGrams, ngrams(cfg.scale * 0.5), 10),
    ] {
        let wzoom = Step::WZoom(WZoomSpec::points(
            window,
            Quantifier::Exists,
            Quantifier::Exists,
        ));
        let (ve, og) = (CHAIN_PLANS[0], CHAIN_PLANS[1]);
        let plans = [
            (ve, ve.pipeline(azoom.clone(), wzoom.clone()), "az-wz VE"),
            (og, og.pipeline(azoom.clone(), wzoom.clone()), "az-wz OG"),
            (ve, ve.pipeline(wzoom.clone(), azoom.clone()), "wz-az VE"),
            (og, og.pipeline(wzoom.clone(), azoom.clone()), "wz-az OG"),
        ];
        let before = rt.stats();
        let mut t = Table::new(
            format!("Fig.17 zoom order vs cardinality (window {window}) — {id}"),
            plans.iter().map(|(_, _, n)| n.to_string()).collect(),
        );
        for card in [10u64, 1_000, 100_000, 1_000_000] {
            let g = project_random_groups(&base, card, 42);
            let cells = plans
                .iter()
                .map(|(plan, chain, _)| run_pipeline(&rt, &g, plan.first, chain, cfg.timeout))
                .collect();
            t.push_row(format!("card {card}"), cells);
        }
        t.set_note(movement_note(&rt, &before));
        tables.push(t);
    }
    tables
}

/// A1 — §4's loading-locality claims. The paper wrote a start-then-id copy
/// for RG and a nested copy for OG, because regrouping flat rows by entity
/// costs a shuffle on Parquet. Both copies are retired: RG loaded no faster
/// from its copy, and the one entity-ordered flat file already holds each
/// history in adjacent rows, which OG cuts into runs with no shuffle. The
/// third row is the load that pays the shuffle the nesting avoided.
pub fn load_locality(cfg: &ExpConfig) -> Vec<Table> {
    let rt = cfg.runtime();
    let g = wikitalk(cfg.scale);
    let dir = std::env::temp_dir().join("tgraph-bench-load");
    write_dataset(&dir, "wiki", &g).expect("write dataset");
    let loader = GraphLoader::new(&dir, "wiki");
    let load = |kind| loader.load(&rt, kind, None).unwrap().0;

    let before = rt.stats();
    let mut t = Table::new(
        "A1: load locality — OG from entity runs vs flat + shuffle",
        vec!["time".into()],
    );
    for (label, run) in [
        (
            "VE <- flat",
            Box::new(|| {
                let _ = load(ReprKind::Ve);
            }) as Box<dyn Fn()>,
        ),
        (
            "OG <- flat, entity runs",
            Box::new(|| {
                let _ = load(ReprKind::Og);
            }),
        ),
        (
            "OG <- flat + shuffle (ve_to_og)",
            Box::new(|| {
                if let AnyGraph::Ve(ve) = load(ReprKind::Ve) {
                    let _ = tgraph_repr::convert::ve_to_og(&rt, &ve);
                }
            }),
        ),
    ] {
        let cell = measure(cfg.timeout, run);
        t.push_row(label, vec![cell]);
    }
    t.set_note(movement_note(&rt, &before));
    vec![t]
}

/// A4 — EXPLAIN: statically verifies the canonical zoom pipelines and
/// renders their plan DAGs with diagnostics, counted rows and shuffle
/// footers.
pub fn explain_plans(cfg: &ExpConfig) -> Vec<Table> {
    let rt = cfg.runtime();
    let g = wikitalk(cfg.scale);
    let aspec = natural_azoom(DatasetId::WikiTalk);
    let wspec = WZoomSpec::points(3, Quantifier::Exists, Quantifier::Exists);
    let mut t = Table::new("A4: EXPLAIN — verified zoom plans (WikiTalk)", vec![]);
    let mut lines = Vec::new();
    for (label, first, pipeline) in [
        (
            "aZoom^T on VE",
            ReprKind::Ve,
            Pipeline::new().azoom(aspec.clone()),
        ),
        (
            "wZoom^T on OG",
            ReprKind::Og,
            Pipeline::new().wzoom(wspec.clone()),
        ),
        (
            "aZoom^T . switch . wZoom^T (VE->OG)",
            ReprKind::Ve,
            Pipeline::new()
                .azoom(aspec)
                .switch_to(ReprKind::Og)
                .wzoom(wspec),
        ),
    ] {
        let load = || AnyGraph::load(&rt, &g, first);
        let errors = pipeline.verify(&rt, load());
        assert!(errors.is_empty(), "{label}: unsound plan: {errors:?}");
        lines.push(format!(
            "### {label} — verified sound\n{}",
            pipeline.explain(&rt, load())
        ));
    }
    t.push_row(lines.join("\n"), vec![]);
    vec![t]
}

/// A3 — quantifier strength: `all` vs `exists` for `wZoom^T` (§5.2 notes
/// `all` is slightly faster because fewer entities survive).
pub fn quantifiers(cfg: &ExpConfig) -> Vec<Table> {
    let rt = cfg.runtime();
    let g = wikitalk(cfg.scale);
    let reprs = [ReprKind::Rg, ReprKind::Ve, ReprKind::Og, ReprKind::Ogc];
    let before = rt.stats();
    let mut t = Table::new(
        "A3: wZoom^T quantifier strength (window 3, WikiTalk)",
        reprs.iter().map(|r| r.to_string()).collect(),
    );
    for (label, q) in [
        ("all", Quantifier::All),
        ("most", Quantifier::Most),
        ("at least 0.25", Quantifier::AtLeast(0.25)),
        ("exists", Quantifier::Exists),
    ] {
        let pipeline = Pipeline::new().wzoom(WZoomSpec::points(3, q, q));
        let cells = reprs
            .iter()
            .map(|kind| run_pipeline(&rt, &g, *kind, &pipeline, cfg.timeout))
            .collect();
        t.push_row(label, cells);
    }
    t.set_note(movement_note(&rt, &before));
    vec![t]
}

/// Extra ablation — parallelism degree: `aZoom^T` on OG and VE with 1–N
/// workers (the distributed-scaling axis the paper gets from its cluster).
pub fn partitions(cfg: &ExpConfig) -> Vec<Table> {
    let g = wikitalk(cfg.scale);
    let pipeline = Pipeline::new().azoom(natural_azoom(DatasetId::WikiTalk));
    let max = cfg.workers.max(1);
    let mut t = Table::new(
        "Ablation: workers sweep (aZoom^T, WikiTalk)",
        vec!["VE".into(), "OG".into()],
    );
    let mut w = 1;
    let mut notes = Vec::new();
    while w <= max {
        let rt = Runtime::new(w);
        let cells = vec![
            run_pipeline(&rt, &g, ReprKind::Ve, &pipeline, cfg.timeout),
            run_pipeline(&rt, &g, ReprKind::Og, &pipeline, cfg.timeout),
        ];
        // Each worker count gets a fresh runtime, so report movement per row.
        notes.push(format!("{w}w {}", movement_note(&rt, &Default::default())));
        t.push_row(format!("{w} workers"), cells);
        w *= 2;
    }
    t.set_note(notes.join("\n  "));
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            scale: 0.01,
            workers: 2,
            timeout: Duration::from_secs(120),
        }
    }

    #[test]
    fn datasets_table_renders() {
        let tables = datasets_table(&tiny());
        let s = tables[0].render();
        assert!(s.contains("WikiTalk"));
        assert!(s.contains("NGrams"));
    }

    #[test]
    fn fig12_runs_at_tiny_scale() {
        let tables = fig12(&ExpConfig {
            scale: 0.005,
            ..tiny()
        });
        assert_eq!(tables.len(), 3);
        // Every row has 3 representation cells with measurements.
        for t in &tables {
            for (_, cells) in t.rows() {
                assert_eq!(cells.len(), 3);
                assert!(cells.iter().all(|c| c.seconds().is_some()));
            }
        }
    }

    #[test]
    fn explain_plans_verifies_sound() {
        let tables = explain_plans(&ExpConfig {
            scale: 0.005,
            ..tiny()
        });
        let s = tables[0].render();
        assert!(s.contains("verified sound"), "{s}");
        assert!(s.contains("== ve.vertices =="), "{s}");
        assert!(s.contains("shuffle"), "{s}");
    }

    #[test]
    fn quantifier_tables_have_all_reprs() {
        let tables = quantifiers(&ExpConfig {
            scale: 0.005,
            ..tiny()
        });
        for (_, cells) in tables[0].rows() {
            assert_eq!(cells.len(), 4);
        }
    }
}
