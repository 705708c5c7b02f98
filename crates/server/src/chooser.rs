//! The representation chooser behind `"repr":"auto"`: a table of measured
//! run times per (query shape, representation) and one default.
//!
//! Only RG, VE and OG are candidates, because only their answers agree: OGC
//! keeps topology alone (§3.1), so an OGC answer drops every attribute an
//! OG answer carries. A shape starts in OG, which runs every pipeline the
//! other two run, and moves to a rival only once the table holds a time for
//! OG *and* a strictly lower one for that rival; a tie keeps OG (and its
//! cached answer). Only cold executions feed the table: hits measure the
//! cache and patches measure the delta.

use std::collections::HashMap;
use std::sync::Mutex;
use tgraph_dataflow::lock_unpoisoned;
use tgraph_query::Pipeline;
use tgraph_repr::ReprKind;

/// The representations whose answers agree, in candidate-table order.
const CANDIDATES: [ReprKind; 3] = [ReprKind::Rg, ReprKind::Ve, ReprKind::Og];
/// Where every shape starts.
const DEFAULT: ReprKind = ReprKind::Og;

/// What decided a choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ChoiceSource {
    /// The table held no time for OG and a rival both: the default stands.
    Default,
    /// Measured times for OG and at least one rival were compared.
    Observed,
}

impl ChoiceSource {
    /// Lowercase wire name for JSON surfaces.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            ChoiceSource::Default => "default",
            ChoiceSource::Observed => "observed",
        }
    }
}

/// One candidate representation, kept for EXPLAIN output.
#[derive(Clone, Debug)]
pub(crate) struct CandidateRow {
    /// The representation considered.
    pub(crate) repr: ReprKind,
    /// Measured execution time (µs, EWMA) if this shape ran in `repr`.
    pub(crate) observed_us: Option<f64>,
}

/// The chooser's verdict for one request.
#[derive(Clone, Debug)]
pub(crate) struct Decision {
    /// The winning representation.
    pub(crate) chosen: ReprKind,
    /// What decided it.
    pub(crate) source: ChoiceSource,
    /// Every candidate valid for the pipeline, in [`CANDIDATES`] order.
    pub(crate) candidates: Vec<CandidateRow>,
}

/// Exponentially-weighted moving average of observed run times, so a noisy
/// outlier neither sticks forever nor is forgotten instantly.
#[derive(Clone, Copy, Debug, Default)]
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

/// Table size counters for the `stats` surface.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct ChooserStats {
    /// Distinct (shape, repr) pairs with at least one observation.
    pub(crate) observed_pairs: u64,
    /// Total observations recorded.
    pub(crate) observations: u64,
}

/// Measured run times keyed by (query shape, representation).
#[derive(Default)]
pub(crate) struct ReprChooser {
    observed: Mutex<HashMap<(String, ReprKind), Ewma>>,
}

impl ReprChooser {
    /// Records a cold execution of `shape` in `repr`.
    pub(crate) fn observe(&self, shape: &str, repr: ReprKind, micros: u64) {
        lock_unpoisoned(&self.observed)
            .entry((shape.to_string(), repr))
            .or_default()
            .update(micros as f64);
    }

    pub(crate) fn stats(&self) -> ChooserStats {
        let table = lock_unpoisoned(&self.observed);
        ChooserStats {
            observed_pairs: table.len() as u64,
            observations: table.values().map(|e| e.samples).sum(),
        }
    }

    /// The representation `pipeline` should run in for `shape`: OG, unless
    /// OG's measured time for the shape is beaten strictly by a rival's.
    pub(crate) fn choose(&self, shape: &str, pipeline: &Pipeline) -> Decision {
        let table = lock_unpoisoned(&self.observed);
        let mut key = (shape.to_string(), DEFAULT);
        let candidates: Vec<CandidateRow> = CANDIDATES
            .into_iter()
            .filter(|repr| pipeline.first_unsupported(*repr).is_none())
            .map(|repr| {
                key.1 = repr;
                let observed_us = table.get(&key).map(|e| e.value);
                CandidateRow { repr, observed_us }
            })
            .collect();
        drop(table);
        let mut chosen = DEFAULT;
        let mut source = ChoiceSource::Default;
        let default_us = candidates
            .iter()
            .find(|c| c.repr == DEFAULT)
            .and_then(|c| c.observed_us);
        if let Some(mut best) = default_us {
            for c in candidates.iter().filter(|c| c.repr != DEFAULT) {
                let Some(us) = c.observed_us else { continue };
                source = ChoiceSource::Observed;
                if us < best {
                    (chosen, best) = (c.repr, us);
                }
            }
        }
        Decision {
            chosen,
            source,
            candidates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph_core::zoom::{AZoomSpec, Quantifier, WZoomSpec};

    fn wzoom() -> Pipeline {
        Pipeline::new().wzoom(WZoomSpec::points(3, Quantifier::Exists, Quantifier::Exists))
    }

    /// Nothing measured: OG, by default, and OGC is never offered.
    #[test]
    fn an_unmeasured_shape_runs_in_og() {
        let chooser = ReprChooser::default();
        chooser.observe("s", ReprKind::Ogc, 1);
        for pipeline in [
            wzoom(),
            Pipeline::new().azoom(AZoomSpec::by_property("k", "k", Vec::new())),
        ] {
            let d = chooser.choose("s", &pipeline);
            assert_eq!((d.chosen, d.source), (ReprKind::Og, ChoiceSource::Default));
            let offered: Vec<ReprKind> = d.candidates.iter().map(|c| c.repr).collect();
            assert_eq!(offered, CANDIDATES);
        }
    }

    /// A rival needs a time for OG to beat, and must beat it strictly.
    #[test]
    fn a_rival_wins_only_by_beating_a_measured_og() {
        let chooser = ReprChooser::default();
        chooser.observe("s", ReprKind::Ve, 10);
        assert_eq!(chooser.choose("s", &wzoom()).chosen, ReprKind::Og);
        chooser.observe("s", ReprKind::Og, 10);
        let tie = chooser.choose("s", &wzoom());
        assert_eq!(
            (tie.chosen, tie.source),
            (ReprKind::Og, ChoiceSource::Observed)
        );
        chooser.observe("s", ReprKind::Rg, 4);
        assert_eq!(chooser.choose("s", &wzoom()).chosen, ReprKind::Rg);
        assert_eq!(chooser.choose("other", &wzoom()).chosen, ReprKind::Og);
        assert_eq!(
            chooser.stats(),
            ChooserStats {
                observed_pairs: 3,
                observations: 3
            }
        );
    }
}
