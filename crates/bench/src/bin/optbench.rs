//! `optbench` — validates the cost-based representation optimizer against
//! measured reality, and reports its regret versus every fixed-choice
//! baseline.
//!
//! ```text
//! optbench                 # full sweep at --scale 0.1
//! optbench --scale 0.3     # bigger graphs, sharper separations
//! optbench --smoke         # CI: tiny graphs, invariant checks only
//! ```
//!
//! The sweep mirrors the decisive cells of EXPERIMENTS.md (Figs. 10–16):
//! few-snapshot aZoom (RG territory), many-snapshot aZoom (VE/OG), churny
//! aZoom (OG), wZoom at small and medium windows (OGC), and the
//! aZoom→wZoom chain (OG). For every cell it measures each runnable
//! representation, asks the optimizer for its *static* choice (cost model
//! only) and its *adaptive* choice (after feeding the measured run times
//! back as observations), and reports:
//!
//! * per cell: the measured time per representation, the model's choice,
//!   the measured winner, and the regret `t(chosen)/t(best) − 1`;
//! * in total: the optimizer's summed time versus the best *fixed*
//!   representation applied to every cell — the headline number, since a
//!   fixed choice is what an optimizer-less deployment would ship.
//!
//! Invariants enforced in both modes (exit nonzero on violation):
//!
//! * every cell yields a decision whose candidates were all measured;
//! * adaptive re-optimization picks each cell's measured winner (its
//!   regret is 0 by construction once every candidate is observed) — the
//!   feedback loop demonstrably corrects any static mispick;
//! * in full mode only (smoke graphs are too small for asymptotic shapes
//!   to dominate constant overheads): each static choice lands within the
//!   cell's documented tolerance of the measured winner.
//!
//! `--smoke` shrinks every dataset to a few hundred vertices so the whole
//! sweep runs in seconds; CI runs it on every push (`opt-smoke` job).

use std::process::ExitCode;
use std::time::{Duration, Instant};
use tgraph_bench::datasets;
use tgraph_core::zoom::azoom::{AZoomSpec, AggSpec};
use tgraph_core::zoom::wzoom::{Quantifier, WZoomSpec};
use tgraph_core::TGraph;
use tgraph_dataflow::Runtime;
use tgraph_optimize::{ChoiceSource, GraphFeatures, Optimizer};
use tgraph_query::{CoalescePolicy, Pipeline};
use tgraph_repr::{AnyGraph, ReprKind};

struct Args {
    scale: f64,
    workers: usize,
    smoke: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: 0.1,
            workers: 4,
            smoke: false,
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--scale" => {
                args.scale = val("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?
            }
            "--workers" => {
                args.workers = val("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.smoke {
        args.scale = args.scale.min(0.01);
        args.workers = args.workers.min(2);
    }
    if !args.scale.is_finite() || args.scale <= 0.0 || args.workers == 0 {
        return Err("--scale and --workers must be positive".to_string());
    }
    Ok(args)
}

/// One cell of the sweep: a workload whose measured winner EXPERIMENTS.md
/// pins down, with the tolerance documented there (winners separated by
/// narrow margins get loose tolerances; blowout cells get tight ones).
struct SweepCell {
    name: &'static str,
    graph: TGraph,
    /// What is both costed by the optimizer and executed by `run_cell`.
    pipeline: Pipeline,
    /// Full-mode acceptance: `t(static choice) ≤ tolerance × t(winner)`.
    tolerance: f64,
}

fn azoom(group: &str) -> Pipeline {
    Pipeline::new().azoom(AZoomSpec::by_property(
        group,
        group,
        vec![AggSpec::count("members")],
    ))
}

fn wspec(points: u64) -> WZoomSpec {
    WZoomSpec::points(points, Quantifier::Exists, Quantifier::Exists)
}

fn sweep(scale: f64, smoke: bool) -> Vec<SweepCell> {
    use datasets::{natural_group_key, DatasetId};
    let wiki_group = natural_group_key(DatasetId::WikiTalk);
    let snb_group = natural_group_key(DatasetId::Snb);
    let ngrams_group = natural_group_key(DatasetId::NGrams);
    // Smoke shrinks the time axis as well as the vertex counts: the point
    // is plumbing coverage, not asymptotic separation.
    let (wiki_many, ngrams_years) = if smoke { (12, 10) } else { (60, 40) };
    vec![
        SweepCell {
            // Fig. 11: two snapshots — RG's linear-in-snapshots cost is
            // unbeatable at the left edge of the axis.
            name: "F11-2snap-azoom",
            graph: datasets::wikitalk_months(scale, 2),
            pipeline: azoom(wiki_group),
            tolerance: 1.5,
        },
        SweepCell {
            // Fig. 11: many snapshots — RG degrades linearly; VE and OG
            // (tuple-bounded) win and sit within ~20% of each other.
            name: "F11-60snap-azoom",
            graph: datasets::wikitalk_months(scale, wiki_many),
            pipeline: azoom(wiki_group),
            tolerance: 1.25,
        },
        SweepCell {
            // Fig. 13: churny edges — VE pays a shuffle per change, OG
            // stays local.
            name: "F13-churn-azoom",
            graph: datasets::ngrams_years(scale, ngrams_years),
            pipeline: azoom(ngrams_group),
            tolerance: 2.0,
        },
        SweepCell {
            // Fig. 14: wZoom — OGC's compiled windows win outright.
            name: "F14-wzoom-w6",
            graph: datasets::snb(scale),
            pipeline: Pipeline::new().wzoom(wspec(6)),
            tolerance: 3.0,
        },
        SweepCell {
            // Fig. 15: small windows on a growth-only graph — VE's span
            // penalty is at its worst; OGC stays window-insensitive.
            name: "F15-wzoom-w2",
            graph: datasets::snb(scale),
            pipeline: Pipeline::new().wzoom(wspec(2)),
            tolerance: 2.0,
        },
        SweepCell {
            // Fig. 16: the aZoom→wZoom chain — pure OG beats every
            // switching plan and VE.
            name: "F16-chain-azoom-wzoom6",
            graph: datasets::snb(scale),
            pipeline: azoom(snb_group).wzoom(wspec(6)),
            tolerance: 1.2,
        },
    ]
}

/// Executes a cell's pipeline in `kind` end to end (load → steps →
/// materialize), the same span the paper's §5 measurements cover.
fn run_cell(rt: &Runtime, cell: &SweepCell, kind: ReprKind) -> Duration {
    let t0 = Instant::now();
    let cur = cell.pipeline.execute(
        rt,
        AnyGraph::load(rt, &cell.graph, kind),
        CoalescePolicy::Lazy,
    );
    let _rows = match &cur {
        AnyGraph::Rg(g) => g.total_vertex_tuples(rt) + g.total_edge_tuples(rt),
        AnyGraph::Ve(g) => g.vertex_tuple_count(rt) + g.edge_tuple_count(rt),
        AnyGraph::Og(g) => g.vertex_count(rt) + g.edge_count(rt),
        AnyGraph::Ogc(g) => g.vertex_count(rt) + g.edge_count(rt),
    };
    t0.elapsed()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("optbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rt = Runtime::with_partitions(args.workers, args.workers);
    let optimizer = Optimizer::new();
    let mut failures = 0u32;
    let mut static_total = 0.0f64;
    let mut adaptive_total = 0.0f64;
    let mut oracle_total = 0.0f64;
    // Fixed-choice baselines: what shipping one hardwired representation
    // would cost across the whole sweep. OGC is excluded — it cannot run
    // the aZoom cells at all.
    let mut fixed_totals: Vec<(ReprKind, f64)> = [ReprKind::Rg, ReprKind::Ve, ReprKind::Og]
        .into_iter()
        .map(|k| (k, 0.0))
        .collect();

    println!(
        "optbench: scale {} / {} workers{}",
        args.scale,
        args.workers,
        if args.smoke { " (smoke)" } else { "" }
    );
    for cell in sweep(args.scale, args.smoke) {
        let features = GraphFeatures::from_tgraph(&cell.graph);
        let Some(decision) = optimizer.choose(cell.name, &features, &cell.pipeline) else {
            eprintln!("FAIL {}: optimizer produced no decision", cell.name);
            failures += 1;
            continue;
        };
        // Measure every representation the optimizer considered, then feed
        // the observations back.
        let mut measured: Vec<(ReprKind, f64)> = Vec::new();
        for c in &decision.candidates {
            let took = run_cell(&rt, &cell, c.repr);
            optimizer.observe(cell.name, c.repr, took.as_micros() as u64);
            measured.push((c.repr, took.as_secs_f64()));
        }
        let &(winner, best) = measured
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one candidate");
        let time_of = |kind: ReprKind| {
            measured
                .iter()
                .find(|(k, _)| *k == kind)
                .map(|(_, t)| *t)
                .expect("chosen repr was measured")
        };
        let static_time = time_of(decision.chosen);
        let regret = static_time / best - 1.0;
        static_total += static_time;
        oracle_total += best;
        for (k, total) in &mut fixed_totals {
            *total += measured
                .iter()
                .find(|(m, _)| m == k)
                .map(|(_, t)| *t)
                .unwrap_or(0.0);
        }
        // Adaptive pass: with every candidate observed, the choice must
        // flip to the measured winner regardless of what the model thought.
        let adaptive = optimizer
            .choose(cell.name, &features, &cell.pipeline)
            .expect("adaptive decision");
        adaptive_total += time_of(adaptive.chosen);
        let times: Vec<String> = measured
            .iter()
            .map(|(k, t)| format!("{k} {t:.3}s"))
            .collect();
        println!(
            "  {:<24} [{}] static={} winner={winner} regret={:+.0}% adaptive={}",
            cell.name,
            times.join(", "),
            decision.chosen,
            regret * 100.0,
            adaptive.chosen,
        );
        if adaptive.source != ChoiceSource::Observed || adaptive.chosen != winner {
            eprintln!(
                "FAIL {}: adaptive choice {} (source {:?}) != measured winner {winner}",
                cell.name, adaptive.chosen, adaptive.source
            );
            failures += 1;
        }
        if !args.smoke && static_time > cell.tolerance * best {
            eprintln!(
                "FAIL {}: static choice {} took {static_time:.3}s, beyond {}x of winner \
                 {winner} at {best:.3}s",
                cell.name, decision.chosen, cell.tolerance
            );
            failures += 1;
        }
    }

    let &(best_fixed, best_fixed_total) = fixed_totals
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("fixed baselines");
    println!("  ---");
    for (k, total) in &fixed_totals {
        println!("  fixed {k}: {total:.3}s total");
    }
    println!(
        "  optimizer static {static_total:.3}s / adaptive {adaptive_total:.3}s / oracle \
         {oracle_total:.3}s"
    );
    println!(
        "  regret vs best-fixed ({best_fixed} {best_fixed_total:.3}s): static {:+.1}% adaptive \
         {:+.1}%",
        (static_total / best_fixed_total - 1.0) * 100.0,
        (adaptive_total / best_fixed_total - 1.0) * 100.0,
    );
    if failures > 0 {
        eprintln!("optbench: {failures} check(s) failed");
        return ExitCode::FAILURE;
    }
    println!("optbench: all checks passed");
    ExitCode::SUCCESS
}
