//! The names every later change claims against: workloads, end-to-end
//! metrics with their regression bounds, per-layer metrics. `BENCHMARK.json`
//! at the repository root repeats these tables; a unit test keeps the two in
//! step.

use tgraph_serve::json::{self, Json};

/// The gated workloads: the ones `BENCHMARK.json` names and the acceptance
/// driver runs. Three, because 4 + 22 runs per workload and two cold builds
/// must fit 3420 s, and 30 s of measuring per run is what steadies a run on
/// this shared host (`NOISE.md`).
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "paper_batch",
        "in-process load -> zoom -> materialize over 28 paper cells: storage decode and zoom kernels do all the work, serve does none",
    ),
    (
        "serve_miss",
        "96 distinct zooms against an 8 MiB result cache: working set larger than the cache, so kernels, serialization and eviction dominate",
    ),
    (
        "serve_hit",
        "8 zooms replayed against a 64 MiB result cache: every request is a hit, so socket, parse, lookup and write are all of the work",
    ),
];

/// Runnable and part of the full suite, but not gated: the time cap has no
/// room for a fourth 30 s workload, and this is the one whose timings the
/// acceptance driver found least steady (an fsync per ingest on a shared
/// disk, a fresh server every lap, seven laps to take a median over).
pub const UNGATED_WORKLOADS: [(&str, &str); 1] = [(
    "serve_ingest",
    "ingest one time point, then 6 pinned zooms, repeated: writes beside reads, so append, invalidation and patch-vs-recompute show",
)];

/// Every workload the suite runs, gated first.
pub fn all_workloads() -> impl Iterator<Item = (&'static str, &'static str)> {
    WORKLOADS.into_iter().chain(UNGATED_WORKLOADS)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may worsen before
    /// `compare` calls it a regression.
    pub bound: f64,
}

/// Every end-to-end metric is reported by every workload and is never 0.
/// Every bound but the one on stored bytes is the 25% the acceptance contract
/// caps it at: the host this sandbox shares drifts by 15-20% over minutes
/// (`NOISE.md`). `ops_per_s` is the one gated timing: it averages over every
/// operation of a round, and it is the timing that stayed inside 25% on every
/// gated workload in the acceptance driver's own runs. Latency percentiles
/// and CPU time per operation are per-layer metrics (`trace.zoom_*`,
/// `trace.cpu_ms_per_op`): their run-to-run spread on that host does not
/// stay under a third of any bound the contract allows.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "disk_bytes_per_row",
        unit: "B",
        better: Better::Lower,
        bound: 0.02,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The 28 cells of `paper_batch`, in pass order.
pub const CELLS: [&str; 28] = [
    "f11.wiki.ve",
    "f11.wiki.og",
    "f11.wiki.rg",
    "f11.snb.ve",
    "f11.snb.og",
    "f11.ngrams.ve",
    "f11.ngrams.og",
    "f13.wiki.ve",
    "f13.wiki.og",
    "f14.wiki.ve",
    "f14.wiki.og",
    "f14.wiki.ogc",
    "f14.wiki.rg",
    "f14.snb.ve",
    "f14.snb.og",
    "f14.snb.ogc",
    "f14.ngrams.ve",
    "f14.ngrams.og",
    "f14.ngrams.ogc",
    "f15.snb.ve",
    "f15.snb.ogc",
    "f16.wiki.og",
    "f16.wiki.ve",
    "f16.wiki.ve-og",
    "f16.snb.og",
    "f16.snb.ve",
    "f16.snb.ve-og",
    "a1.ngrams.ve",
];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Exact counts repeat between two runs of one commit; `compare` diffs
    /// them instead of judging a ratio.
    pub exact: bool,
}

/// Per-layer metrics, reported by the traced run and never gated. A metric
/// that does not apply to a workload reads 0 there.
pub fn per_layer() -> &'static [PerLayer] {
    static TABLE: std::sync::OnceLock<Vec<PerLayer>> = std::sync::OnceLock::new();
    TABLE.get_or_init(per_layer_table)
}

fn per_layer_table() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut v: Vec<PerLayer> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better, exact: bool| {
        v.push(PerLayer {
            name: name.to_string(),
            unit,
            better,
            exact,
        })
    };
    add("datagen.generate_s", "s", Lower, false);
    add("storage.write_dataset_s", "s", Lower, false);
    for f in ["temporal", "structural", "nested"] {
        add(&format!("storage.bytes_per_row.{f}"), "B", Lower, false);
    }
    for kind in ["flat", "nested"] {
        for ds in ["wiki", "snb", "ngrams"] {
            add(&format!("storage.load_{kind}_ms.{ds}"), "ms", Lower, false);
        }
    }
    add("storage.load_ranged_ms", "ms", Lower, false);
    add("storage.rows_decoded_per_s", "1/s", Higher, false);
    add("storage.chunks_skipped_share", "ratio", Higher, false);
    add("storage.stats_read_us", "us", Lower, false);
    add("storage.append_epoch_ms", "ms", Lower, false);
    add("storage.files_per_epoch", "count", Lower, true);
    add("storage.pool_loads", "count", Lower, false);
    add("storage.pool_epoch_upgrades", "count", Lower, false);
    for r in ["rg", "ve", "og", "ogc"] {
        add(&format!("repr.build_ms.{r}"), "ms", Lower, false);
    }
    for r in ["rg", "ve", "og"] {
        add(&format!("repr.azoom_ms.{r}"), "ms", Lower, false);
    }
    for r in ["rg", "ve", "og", "ogc"] {
        add(&format!("repr.wzoom_ms.{r}"), "ms", Lower, false);
    }
    add("repr.switch_ms.ve_og", "ms", Lower, false);
    add("repr.switch_ms.og_ve", "ms", Lower, false);
    add("repr.collect_ms", "ms", Lower, false);
    for c in CELLS {
        add(&format!("batch.cell_ms.{c}"), "ms", Lower, false);
    }
    add("batch.pass_s", "s", Lower, false);
    for c in [
        "waves",
        "tasks",
        "shuffles",
        "shuffles_elided",
        "shuffled_records",
        "shuffled_bytes",
        "peak_bytes",
    ] {
        add(&format!("dataflow.{c}"), "count", Lower, true);
    }
    add("dataflow.wave_us", "us", Lower, false);
    add("dataflow.max_task_us", "us", Lower, false);
    add("dataflow.straggler_ratio", "ratio", Lower, false);
    add("core.coalesce_ms", "ms", Lower, false);
    add("core.reference_agree", "ratio", Higher, true);
    add("optimize.auto_overhead_us", "us", Lower, false);
    add("optimize.static_agree_share", "ratio", Higher, false);
    add("ingest.validate_us", "us", Lower, false);
    add("ingest.patched_share", "ratio", Higher, true);
    add("ingest.patch_ms_p50", "ms", Lower, false);
    add("ingest.recompute_ms_p50", "ms", Lower, false);
    add("ingest.latency_ms_p50", "ms", Lower, false);
    add("ingest.latency_ms_p95", "ms", Lower, false);
    add("ingest.latency_drift", "ratio", Lower, false);
    add("serve.parse_us", "us", Lower, false);
    add("serve.json_parse_mb_per_s", "MB/s", Higher, false);
    add("serve.serialize_ms", "ms", Lower, false);
    add("serve.serialize_mb_per_s", "MB/s", Higher, false);
    add("serve.exec_us_p50", "us", Lower, false);
    add("serve.overhead_us_p50", "us", Lower, false);
    add("serve.hit_total_us_p50", "us", Lower, false);
    add("serve.conn_us_p50", "us", Lower, false);
    add("serve.response_bytes_p50", "B", Lower, false);
    add("serve.mb_out_per_s", "MB/s", Higher, false);
    add("serve.cache_hit_share", "ratio", Higher, false);
    add("serve.cache_evictions", "count", Lower, false);
    add("serve.cache_invalidations", "count", Lower, false);
    add("serve.admission_wait_us_mean", "us", Lower, false);
    add("serve.rejected", "count", Lower, false);
    add("serve.cpu_share", "ratio", Lower, false);
    add("serve.zoom_p99_ms", "ms", Lower, false);
    add("trace.ops_per_s", "1/s", Higher, false);
    add("trace.zoom_geomean_ms", "ms", Lower, false);
    add("trace.zoom_p50_ms", "ms", Lower, false);
    add("trace.zoom_p95_ms", "ms", Lower, false);
    add("trace.cpu_ms_per_op", "ms", Lower, false);
    add("trace.self_time_share", "ratio", Higher, false);
    v
}

/// What one `--workload` run reports.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)`; units come from the tables above.
    pub metrics: Vec<(String, f64)>,
    /// Human-readable context printed above the metric lines: load shape,
    /// sample counts next to percentiles, failure reasons.
    pub notes: Vec<String>,
}

impl RunOutput {
    /// The one-line result the run prints last:
    /// `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
    pub fn result_line(&self) -> String {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|(name, value)| {
                    (
                        name.clone(),
                        Json::obj(vec![
                            ("value", Json::Float(*value)),
                            ("unit", Json::str(unit_of(name))),
                        ]),
                    )
                })
                .collect(),
        );
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", metrics),
        ])
        .to_string()
    }

    /// Reads a result line back (the suite runs every run as a child
    /// process and collects these).
    pub fn from_result_line(line: &str) -> Result<Self, String> {
        let v = json::parse(line).map_err(|e| format!("result line: {e}"))?;
        let int = |k: &str| {
            v.get(k)
                .and_then(Json::as_i64)
                .and_then(|n| u64::try_from(n).ok())
                .ok_or_else(|| format!("result line has no count '{k}'"))
        };
        let metrics = v
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("result line has no 'metrics'")?
            .iter()
            .map(|(name, m)| {
                m.get("value")
                    .and_then(Json::as_f64)
                    .map(|value| (name.clone(), value))
                    .ok_or_else(|| format!("{name}: no numeric 'value'"))
            })
            .collect::<Result<_, _>>()?;
        Ok(RunOutput {
            correct: v
                .get("correct")
                .and_then(Json::as_bool)
                .ok_or("result line has no 'correct'")?,
            attempted: int("attempted")?,
            failed: int("failed")?,
            metrics,
            notes: Vec::new(),
        })
    }
}

pub fn unit_of(name: &str) -> &'static str {
    if let Some(m) = end_to_end(name) {
        return m.unit;
    }
    per_layer()
        .iter()
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_of(v: &Json, key: &str) -> Vec<String> {
        v.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_repeats_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = json::parse(&text).expect("valid json");
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(names_of(&v, "workloads"), workloads);
        let e2e = v.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END.iter()) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(m.better.as_str())
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let layers: Vec<String> = per_layer().iter().map(|m| m.name.clone()).collect();
        assert_eq!(names_of(&v, "per_layer"), layers);
    }

    #[test]
    fn result_line_round_trips() {
        let out = RunOutput {
            correct: true,
            attempted: 1344,
            failed: 0,
            metrics: vec![("setup_s".into(), 0.1875218485), ("ops_per_s".into(), 61.0)],
            notes: Vec::new(),
        };
        let line = out.result_line();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1344,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.1875218485,\"unit\":\"s\"}"));
        assert_eq!(RunOutput::from_result_line(&line).unwrap(), out);
        assert!(RunOutput::from_result_line("{\"correct\":true}").is_err());
    }

    #[test]
    fn names_fit_the_contract() {
        let layers = per_layer();
        assert!(layers.len() <= 128 && END_TO_END.len() <= 16);
        let mut all: Vec<String> = layers.iter().map(|m| m.name.clone()).collect();
        all.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        all.extend(all_workloads().map(|w| w.0.to_string()));
        for n in &all {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let unique: std::collections::HashSet<&String> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(all_workloads().all(|w| w.1.len() <= 200));
    }
}
