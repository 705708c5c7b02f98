//! # tgraph-optimize
//!
//! Cost-based representation & plan optimizer. Given a zoom pipeline (a
//! [`tgraph_query::Pipeline`], the same value the server executes) and a
//! graph's storage statistics, predicts abstract work for each physical
//! representation (RG / VE / OG / OGC) and picks the cheapest valid one —
//! the piece that turns four hand-picked engines into one system.
//!
//! The model is deliberately small, in the GraphX tradition: a handful of
//! cardinality and evolution features that are free to compute (header-only
//! `.tgc` chunk statistics), with coefficients shaped by the paper's
//! measured results (see EXPERIMENTS.md):
//!
//! * **RG** is linear in the snapshot count with a high slope — it wins
//!   only at very small snapshot counts (figure 10/11: fastest at 2
//!   snapshots, far slowest at 60).
//! * **VE** pays a *shuffle* penalty proportional to attribute churn
//!   (figure 13) and a small-window penalty proportional to
//!   `avg_span / window` for wZoom (figure 15).
//! * **OG** pays a gentler, *local* churn penalty (history arrays are
//!   entity-partitioned) and is flat across wZoom windows.
//! * **OGC** only supports wZoom, where its bitset topology makes it the
//!   clear winner (figure 14: 3–5×).
//!
//! On top of the static model sits an adaptive layer: the server records
//! measured execution times per (plan shape, repr) and [`Optimizer::choose`]
//! prefers observed numbers over predictions once they exist, calibrating
//! the remaining predictions against them. EXPLAIN surfaces all three
//! views: `predicted`, `chosen`, `observed`.
//!
//! The model prices work only. It does not guess exchange bytes: what a
//! plan moves is counted when it runs (`RuntimeStats::shuffled_records`,
//! and `rows=` on each shuffle node of the plan's EXPLAIN).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::HashMap;
use std::sync::Mutex;
use tgraph_core::graph::TGraph;
use tgraph_core::time::Interval;
use tgraph_core::zoom::WindowSpec;
use tgraph_dataflow::lock_unpoisoned;
use tgraph_query::{Pipeline, Step};
use tgraph_repr::ReprKind;
use tgraph_storage::{ChunkStats, TgcStats};

/// RG per-row work *per snapshot* — the high slope of figures 10/11. At two
/// snapshots RG's total (`2 × 0.45 = 0.9`) undercuts every other aZoom
/// candidate (2-snapshot WikiTalk: RG 0.07 s vs VE 0.14 s); by sixty it is
/// an order of magnitude out of the race.
const RG_PER_SNAPSHOT: f64 = 0.45;
/// Baseline per-row work shared by the tuple representations.
const TUPLE_BASE: f64 = 1.0;
/// VE's per-row *shuffle* weight on the churn feature (figure 13: grouping
/// by entity moves every churned tuple across the exchange).
const VE_SHUFFLE_CHURN: f64 = 0.4;
/// OG's per-row *local* weight on the churn feature (figure 13: history
/// arrays are already entity-partitioned, so churn stays node-local).
const OG_LOCAL_CHURN: f64 = 0.25;
/// OG per-row wZoom work — flat in the window size.
const OG_WZOOM: f64 = 1.2;
/// OGC per-row wZoom work — the 3–5× bitset win of figure 14.
const OGC_WZOOM: f64 = 0.3;
/// VE per-row wZoom weight on `avg_span / window` (figure 15: long-lived
/// tuples replicated into every small window they overlap).
const VE_SPAN_PENALTY: f64 = 0.8;
/// Per-row cost of materializing a representation switch.
const SWITCH_PER_ROW: f64 = 0.7;
/// Row survival factor after an aZoom (entities collapse into groups).
const AZOOM_REDUCE: f64 = 0.3;
/// Row survival factor after a wZoom (time collapses into windows).
const WZOOM_REDUCE: f64 = 0.5;

/// Free cardinality/evolution features of a stored graph, extracted from
/// header-only `.tgc` chunk statistics or from an in-memory [`TGraph`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GraphFeatures {
    /// Vertex tuple rows a pushdown scan would decode.
    pub vertex_rows: u64,
    /// Edge tuple rows a pushdown scan would decode.
    pub edge_rows: u64,
    /// Snapshot count the RG representation would materialize (distinct
    /// change points, approximated by the lifespan length for on-disk
    /// datasets whose time unit is the snapshot granularity).
    pub snapshots: u64,
    /// Lifespan length in time units.
    pub lifespan: u64,
    /// Mean tuple interval length — the inverse evolution-rate feature:
    /// short spans mean high attribute churn.
    pub avg_span: f64,
}

impl GraphFeatures {
    /// Builds features from header-only `.tgc` statistics, optionally
    /// restricted to a scan `range` (mirrors the loader's pushdown).
    pub fn from_tgc_stats(stats: &TgcStats, range: Option<&Interval>) -> Self {
        let (vertex_rows, edge_rows) = stats.estimated_rows(range);
        let lifespan = match range {
            Some(r) => r.intersect(&stats.lifespan).map(|iv| iv.len()).unwrap_or(0),
            None => stats.lifespan.len(),
        }
        .max(1);
        let avg_span = chunk_avg_span(
            stats.vertex_chunks.iter().chain(stats.edge_chunks.iter()),
            lifespan,
        );
        GraphFeatures {
            vertex_rows,
            edge_rows,
            snapshots: lifespan,
            lifespan,
            avg_span,
        }
    }

    /// Builds exact features from an in-memory graph (used by the bench
    /// harness, where the graph is already materialized).
    pub fn from_tgraph(g: &TGraph) -> Self {
        let lifespan = g.lifespan.len().max(1);
        let rows = g.vertex_tuple_count() + g.edge_tuple_count();
        let span_total: u64 = g
            .vertices
            .iter()
            .map(|v| v.interval.len())
            .chain(g.edges.iter().map(|e| e.interval.len()))
            .sum();
        let avg_span = if rows == 0 {
            lifespan as f64
        } else {
            (span_total as f64 / rows as f64).max(1.0)
        };
        GraphFeatures {
            vertex_rows: g.vertex_tuple_count() as u64,
            edge_rows: g.edge_tuple_count() as u64,
            snapshots: (g.change_points().len() as u64).max(1),
            lifespan,
            avg_span,
        }
    }

    /// Total tuple rows.
    pub fn rows(&self) -> u64 {
        self.vertex_rows + self.edge_rows
    }

    /// Churn feature: how many states the average entity cycles through
    /// over the lifespan (`lifespan / avg_span`, at least 1). A growth-only
    /// dataset (facts live to the end) sits near 1; an attribute-churn
    /// workload like figure 13's shuffled tuples is ≫ 1.
    pub fn churn(&self) -> f64 {
        (self.lifespan as f64 / self.avg_span.max(1.0)).max(1.0)
    }
}

/// Rows-weighted mean interval length across chunk statistics. The exact
/// per-row spans are not in the headers; `(mean end − mean start)` of each
/// chunk's hull is an adequate evolution-rate proxy.
fn chunk_avg_span<'a>(chunks: impl Iterator<Item = &'a ChunkStats>, lifespan: u64) -> f64 {
    let mut weighted = 0.0f64;
    let mut rows = 0u64;
    for c in chunks {
        let mid_start = (c.min_start as f64 + c.max_start as f64) / 2.0;
        let mid_end = (c.min_end as f64 + c.max_end as f64) / 2.0;
        weighted += (mid_end - mid_start).max(1.0) * f64::from(c.rows);
        rows += u64::from(c.rows);
    }
    if rows == 0 {
        lifespan as f64
    } else {
        (weighted / rows as f64).clamp(1.0, lifespan as f64)
    }
}

/// Predicted abstract work for running `pipeline` starting in `first`, or
/// `None` when the pipeline is invalid in that representation (an aZoom
/// reached while the current representation is OGC, which stores topology
/// only). Representation switches inside the pipeline are honored.
///
/// Only the plan *shape* is costed: aggregate functions, quantifiers and
/// resolve policies touch every surviving row regardless of representation
/// (figure 12: group-by cardinality does not move the needle). The one spec
/// field read is the `wZoom^T` window length.
pub fn predicted_work(f: &GraphFeatures, pipeline: &Pipeline, first: ReprKind) -> Option<f64> {
    if pipeline.first_unsupported(first).is_some() {
        return None;
    }
    let mut rows = (f.rows() as f64).max(1.0);
    let churn = f.churn();
    // An empty pipeline is a pure load-and-serialize; cost it as one
    // baseline pass so representations still differentiate by row count.
    let mut work = rows * 0.1;
    for (repr, step) in pipeline.steps_with_repr(first) {
        match step {
            Step::AZoom(_) => {
                work += rows
                    * match repr {
                        ReprKind::Rg => RG_PER_SNAPSHOT * f.snapshots as f64,
                        ReprKind::Ve => TUPLE_BASE + VE_SHUFFLE_CHURN * churn,
                        ReprKind::Og => TUPLE_BASE + OG_LOCAL_CHURN * churn,
                        ReprKind::Ogc => unreachable!("checked by first_unsupported"),
                    };
                rows = (rows * AZOOM_REDUCE).max(1.0);
            }
            Step::WZoom(spec) => {
                let window = match spec.window {
                    WindowSpec::Points(n) => n as f64,
                    // Change-driven windows advance at the evolution rate.
                    WindowSpec::Changes(_) => f.avg_span.max(1.0),
                };
                work += rows
                    * match repr {
                        ReprKind::Rg => RG_PER_SNAPSHOT * f.snapshots as f64,
                        ReprKind::Ve => TUPLE_BASE * (1.0 + VE_SPAN_PENALTY * f.avg_span / window),
                        ReprKind::Og => OG_WZOOM,
                        ReprKind::Ogc => OGC_WZOOM,
                    };
                rows = (rows * WZOOM_REDUCE).max(1.0);
            }
            Step::Switch(to) => {
                if *to != repr {
                    work += rows * SWITCH_PER_ROW;
                }
            }
        }
    }
    Some(work)
}

/// Where the winning number for a decision came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChoiceSource {
    /// Only the static cost model voted.
    Predicted,
    /// At least one candidate had a measured run time on file; observations
    /// (and the calibration they imply) drove the comparison.
    Observed,
}

impl ChoiceSource {
    /// Lowercase wire name for JSON surfaces.
    pub fn as_str(self) -> &'static str {
        match self {
            ChoiceSource::Predicted => "predicted",
            ChoiceSource::Observed => "observed",
        }
    }
}

/// One candidate representation's scoring, kept for EXPLAIN output.
#[derive(Clone, Debug)]
pub struct CandidateRow {
    /// The representation considered.
    pub repr: ReprKind,
    /// Static model prediction in abstract work units.
    pub predicted_work: f64,
    /// Measured execution time (µs, EWMA) if this shape ran before.
    pub observed_us: Option<f64>,
    /// The number the decision actually compared: the observation when one
    /// exists, otherwise the calibrated prediction.
    pub effective: f64,
}

/// The optimizer's verdict for one request.
#[derive(Clone, Debug)]
pub struct Decision {
    /// The winning representation.
    pub chosen: ReprKind,
    /// Whether observations participated.
    pub source: ChoiceSource,
    /// Every valid candidate's scoring, cheapest first.
    pub candidates: Vec<CandidateRow>,
}

/// Exponentially-weighted moving average of observed run times, so a noisy
/// outlier neither sticks forever nor is forgotten instantly.
#[derive(Clone, Copy, Debug)]
struct Ewma {
    value: f64,
    samples: u64,
}

impl Ewma {
    fn update(&mut self, x: f64) {
        self.value = if self.samples == 0 {
            x
        } else {
            0.5 * self.value + 0.5 * x
        };
        self.samples += 1;
    }
}

/// Counters describing the adaptive layer, surfaced by the server's `stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptimizerStats {
    /// Distinct (plan shape, repr) pairs with at least one observation.
    pub observed_pairs: u64,
    /// Total observations recorded.
    pub observations: u64,
}

/// The adaptive optimizer: the static cost model plus a table of measured
/// execution times keyed by (plan shape, repr).
pub struct Optimizer {
    observed: Mutex<HashMap<(String, ReprKind), Ewma>>,
}

impl Default for Optimizer {
    fn default() -> Self {
        Self::new()
    }
}

impl Optimizer {
    /// An optimizer with an empty observation table.
    pub fn new() -> Self {
        Optimizer {
            observed: Mutex::new(HashMap::new()),
        }
    }

    /// Records a measured execution time for a plan shape that ran in
    /// `repr`. Cache hits and patched replays must not be recorded — only
    /// cold executions measure the representation itself.
    pub fn observe(&self, shape: &str, repr: ReprKind, micros: u64) {
        let mut table = lock_unpoisoned(&self.observed);
        table
            .entry((shape.to_string(), repr))
            .or_insert(Ewma {
                value: 0.0,
                samples: 0,
            })
            .update(micros as f64);
    }

    /// Table size counters for the `stats` surface.
    pub fn stats(&self) -> OptimizerStats {
        let table = lock_unpoisoned(&self.observed);
        OptimizerStats {
            observed_pairs: table.len() as u64,
            observations: table.values().map(|e| e.samples).sum(),
        }
    }

    /// Picks the cheapest valid representation for `pipeline` over a graph
    /// with features `f`. Candidates with a measured run time on file are
    /// compared by that number; the rest are compared by their prediction,
    /// calibrated by the mean observed-per-predicted ratio so µs and work
    /// units live on one scale. On equal effective cost an observed
    /// candidate wins, so a shape that ran keeps its representation (and
    /// its cached answer) until a rival is cheaper. Returns `None` only if
    /// no representation can run the pipeline.
    pub fn choose(&self, shape: &str, f: &GraphFeatures, pipeline: &Pipeline) -> Option<Decision> {
        let table = lock_unpoisoned(&self.observed);
        let mut rows: Vec<CandidateRow> = ReprKind::all()
            .into_iter()
            .filter_map(|repr| {
                let predicted_work = predicted_work(f, pipeline, repr)?;
                let observed_us = table.get(&(shape.to_string(), repr)).map(|e| e.value);
                Some(CandidateRow {
                    repr,
                    predicted_work,
                    observed_us,
                    effective: 0.0,
                })
            })
            .collect();
        drop(table);
        if rows.is_empty() {
            return None;
        }
        // Calibrate work units against any observations on file: the mean
        // observed-µs-per-predicted-work ratio puts unobserved candidates
        // on the observed scale instead of comparing µs to abstract units.
        // Each observation is scaled by a prediction ratio, so a candidate
        // predicted exactly like an observed one costs exactly its
        // observation (`(o / p) * p` can round below `o`).
        let observed: Vec<(f64, f64)> = rows
            .iter()
            .filter_map(|r| Some((r.observed_us?, r.predicted_work.max(1e-9))))
            .collect();
        let calibrated = |work: f64| {
            let scaled = observed.iter().map(|(o, p)| o * (work / p));
            scaled.sum::<f64>() / observed.len() as f64
        };
        let source = if observed.is_empty() {
            ChoiceSource::Predicted
        } else {
            ChoiceSource::Observed
        };
        for r in &mut rows {
            r.effective = match (r.observed_us, observed.is_empty()) {
                (Some(o), _) => o,
                (None, true) => r.predicted_work,
                (None, false) => calibrated(r.predicted_work),
            };
        }
        rows.sort_by(|a, b| {
            let unobserved = |r: &CandidateRow| r.observed_us.is_none();
            a.effective
                .total_cmp(&b.effective)
                .then(unobserved(a).cmp(&unobserved(b)))
        });
        Some(Decision {
            chosen: rows[0].repr,
            source,
            candidates: rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph_core::zoom::AZoomSpec;

    fn azoom() -> Pipeline {
        Pipeline::new().azoom(AZoomSpec::by_property("k", "k", Vec::new()))
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

    #[test]
    fn azoom_on_ogc_is_invalid_without_a_preceding_switch() {
        let f = features(1000, 60, 60, 30.0);
        assert!(predicted_work(&f, &azoom(), ReprKind::Ogc).is_none());
        let switched = Pipeline::new()
            .switch_to(ReprKind::Ve)
            .azoom(AZoomSpec::by_property("k", "k", Vec::new()));
        assert!(predicted_work(&f, &switched, ReprKind::Ogc).is_some());
    }

    #[test]
    fn churn_feature_reflects_span_versus_lifespan() {
        assert!((features(10, 60, 60, 30.0).churn() - 2.0).abs() < 1e-9);
        assert!(features(10, 60, 60, 5.0).churn() > 10.0);
        // Growth-only: facts live to the end of the lifespan.
        assert!((features(10, 60, 60, 60.0).churn() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn observation_wins_over_prediction_for_its_candidate() {
        let f = features(1000, 60, 60, 30.0);
        let opt = Optimizer::new();
        let cold = opt.choose("s", &f, &azoom()).map(|d| d.chosen).unwrap();
        // The chosen repr runs (and measures slow); a rival's explicit
        // request measures fast: the next decision must flip to the rival.
        let runner_up = ReprKind::all()
            .into_iter()
            .find(|r| *r != cold && r.supports_azoom())
            .unwrap();
        opt.observe("s", cold, 100_000);
        opt.observe("s", runner_up, 1);
        let d = opt.choose("s", &f, &azoom()).unwrap();
        assert_eq!(d.chosen, runner_up);
        assert_eq!(d.source, ChoiceSource::Observed);
        assert_eq!(opt.stats().observed_pairs, 2);
    }

    /// An empty pipeline predicts the same work in every representation, so
    /// after one observation `o` each rival is calibrated to `o` exactly;
    /// the observed candidate must win that tie, or a repeated request would
    /// switch representations and miss its cached answer.
    #[test]
    fn observed_candidate_keeps_an_effective_cost_tie() {
        let f = features(1000, 60, 60, 30.0);
        let p = predicted_work(&f, &Pipeline::new(), ReprKind::Rg).unwrap();
        let o = 29.0;
        // Taking the rate first, `(o / p) * p`, rounds below `o` here.
        assert!((o / p) * p < o, "the fixture must round below o");
        for ran in ReprKind::all() {
            let opt = Optimizer::new();
            opt.observe("s", ran, o as u64);
            let d = opt.choose("s", &f, &Pipeline::new()).unwrap();
            assert_eq!(d.chosen, ran, "after observing {ran}");
            assert!(d.candidates.iter().all(|c| c.effective == o));
        }
    }
}
