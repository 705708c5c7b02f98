//! The results file one full run writes, the `compare` gate over two of
//! them, and the `BENCHMARK.json` manifest.

use crate::metrics::{self, all_workloads, Better, RunOutput, END_TO_END, WORKLOADS};
use crate::util;
use crate::RunConfig;
use std::path::Path;
use tgraph_serve::json::{self, Json};

/// One metric of one workload in a results file: every repeat's value.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    pub unit: String,
    pub values: Vec<f64>,
}

impl Measured {
    pub fn median(&self) -> f64 {
        util::median(&self.values)
    }

    pub fn spread(&self) -> f64 {
        util::spread(&self.values)
    }
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadResult {
    pub attempted: u64,
    pub failed: u64,
    pub trace_overhead_pct: f64,
    pub end_to_end: Vec<(String, Measured)>,
    pub per_layer: Vec<(String, Measured)>,
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct Results {
    /// Hardware and run fingerprint: `nproc`, `workers`, `cpu_model`,
    /// `kernel`, `rustc`, `commit`, `seed`, `seconds`, `repeats`, `smoke`.
    pub fingerprint: Vec<(String, String)>,
    pub workloads: Vec<(String, WorkloadResult)>,
}

fn measured_json(m: &Measured) -> Json {
    Json::obj(vec![
        ("unit", Json::str(m.unit.as_str())),
        ("median", Json::Float(m.median())),
        ("spread", Json::Float(m.spread())),
        (
            "values",
            Json::Arr(m.values.iter().map(|v| Json::Float(*v)).collect()),
        ),
    ])
}

impl Results {
    pub fn to_json(&self) -> Json {
        let section = |metrics: &[(String, Measured)]| {
            Json::Obj(
                metrics
                    .iter()
                    .map(|(n, m)| (n.clone(), measured_json(m)))
                    .collect(),
            )
        };
        Json::obj(vec![
            ("schema", Json::Int(1)),
            (
                "fingerprint",
                Json::Obj(
                    self.fingerprint
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::str(v.as_str())))
                        .collect(),
                ),
            ),
            (
                "workloads",
                Json::Obj(
                    self.workloads
                        .iter()
                        .map(|(name, w)| {
                            (
                                name.clone(),
                                Json::obj(vec![
                                    ("attempted", Json::Int(w.attempted as i64)),
                                    ("failed", Json::Int(w.failed as i64)),
                                    ("trace_overhead_pct", Json::Float(w.trace_overhead_pct)),
                                    ("end_to_end", section(&w.end_to_end)),
                                    ("per_layer", section(&w.per_layer)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Self, String> {
        let fields = |v: &Json, key: &str| -> Result<Vec<(String, Json)>, String> {
            v.get(key)
                .and_then(Json::as_obj)
                .map(<[_]>::to_vec)
                .ok_or_else(|| format!("results file has no object '{key}'"))
        };
        let section = |w: &Json, key: &str| -> Result<Vec<(String, Measured)>, String> {
            fields(w, key)?
                .into_iter()
                .map(|(name, m)| {
                    let values = m
                        .get("values")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| format!("{name}: no 'values'"))?
                        .iter()
                        .map(|x| {
                            x.as_f64()
                                .ok_or_else(|| format!("{name}: non-numeric value"))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    let unit = m
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string();
                    Ok((name, Measured { unit, values }))
                })
                .collect()
        };
        let fingerprint = fields(v, "fingerprint")?
            .into_iter()
            .map(|(k, v)| (k, v.as_str().unwrap_or("").to_string()))
            .collect();
        let workloads = fields(v, "workloads")?
            .into_iter()
            .map(|(name, w)| {
                let int = |k: &str| w.get(k).and_then(Json::as_i64).unwrap_or(0).max(0) as u64;
                Ok((
                    name,
                    WorkloadResult {
                        attempted: int("attempted"),
                        failed: int("failed"),
                        trace_overhead_pct: w
                            .get("trace_overhead_pct")
                            .and_then(Json::as_f64)
                            .unwrap_or(0.0),
                        end_to_end: section(&w, "end_to_end")?,
                        per_layer: section(&w, "per_layer")?,
                    },
                ))
            })
            .collect::<Result<_, String>>()?;
        Ok(Results {
            fingerprint,
            workloads,
        })
    }
}

fn fingerprint(cfg: &RunConfig, repeats: usize) -> Vec<(String, String)> {
    let unknown = || "unknown".to_string();
    vec![
        ("nproc".into(), util::nproc().to_string()),
        ("workers".into(), cfg.workers.to_string()),
        ("cpu_model".into(), util::cpu_model()),
        (
            "kernel".into(),
            util::command_line("uname", &["-sr"]).unwrap_or_else(unknown),
        ),
        (
            "rustc".into(),
            util::command_line("rustc", &["--version"]).unwrap_or_else(unknown),
        ),
        (
            "commit".into(),
            util::command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        ),
        ("seed".into(), cfg.seed.to_string()),
        ("seconds".into(), cfg.seconds.to_string()),
        ("repeats".into(), repeats.to_string()),
        ("smoke".into(), cfg.smoke.to_string()),
    ]
}

fn fold(into: &mut Vec<(String, Measured)>, out: &RunOutput) {
    for (name, value) in &out.metrics {
        match into.iter_mut().find(|(n, _)| n == name) {
            Some((_, m)) => m.values.push(*value),
            None => into.push((
                name.clone(),
                Measured {
                    unit: metrics::unit_of(name).to_string(),
                    values: vec![*value],
                },
            )),
        }
    }
}

/// One run in a process of its own, exactly as the acceptance driver makes
/// it: peak memory, allocator state and hash seeds start fresh every time,
/// which matters most on `paper_batch`, where this driver is itself the
/// process under test.
fn run_in_child(cfg: &RunConfig) -> Result<RunOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", &cfg.workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .arg("--serve-bin")
        .arg(&cfg.serve_bin)
        .arg("--out-dir")
        .arg(&cfg.out_dir);
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("run {}: {e}", cfg.workload))?;
    let text = String::from_utf8_lossy(&out.stdout);
    // An incorrect run still reports (and exits nonzero); one that printed
    // no result line failed outright.
    let line = text
        .lines()
        .last()
        .filter(|l| l.starts_with('{'))
        .ok_or_else(|| format!("{} ended without a result ({})", cfg.workload, out.status))?;
    let mut run = RunOutput::from_result_line(line)?;
    run.notes = text
        .lines()
        .filter_map(|l| l.strip_prefix("# "))
        .map(str::to_string)
        .collect();
    Ok(run)
}

/// Runs every workload `repeats` times untraced and once traced, prints each
/// metric as `workload metric value unit`, and writes one results file.
/// Repeat `i` runs with seed + `i`, as the acceptance gate varies the seed
/// from run to run, so a metric's spread covers both the machine and the
/// inputs. `Ok(false)` when any run was incorrect.
pub fn run_suite(
    out_path: &Path,
    repeats: usize,
    config: &dyn Fn(&str, bool) -> RunConfig,
) -> Result<bool, String> {
    let mut results = Results::default();
    let mut all_correct = true;
    for (workload, _) in all_workloads() {
        let mut w = WorkloadResult::default();
        for i in 0..repeats {
            let mut cfg = config(workload, false);
            cfg.seed += i as u64;
            let out = run_in_child(&cfg)?;
            all_correct &= out.correct;
            w.attempted += out.attempted;
            w.failed += out.failed;
            for note in &out.notes {
                println!("# {note}");
            }
            fold(&mut w.end_to_end, &out);
        }
        let cfg = config(workload, true);
        let traced = run_in_child(&cfg)?;
        all_correct &= traced.correct;
        w.failed += traced.failed;
        fold(&mut w.per_layer, &traced);
        let ops = |section: &[(String, Measured)], name: &str| {
            section
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, m)| m.median())
        };
        let (untraced, with_trace) = (
            ops(&w.end_to_end, "ops_per_s"),
            ops(&w.per_layer, "trace.ops_per_s"),
        );
        w.trace_overhead_pct = (untraced - with_trace) / untraced.max(1e-9) * 100.0;
        for (name, m) in w.end_to_end.iter().chain(w.per_layer.iter()) {
            println!("{workload} {name} {} {}", m.median(), m.unit);
        }
        println!("{workload} trace_overhead_pct {} %", w.trace_overhead_pct);
        println!(
            "{workload} failed_share {} ratio ({} of {})",
            w.failed as f64 / w.attempted.max(1) as f64,
            w.failed,
            w.attempted
        );
        if results.fingerprint.is_empty() {
            results.fingerprint = fingerprint(&cfg, repeats);
        }
        results.workloads.push((workload.to_string(), w));
    }
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(out_path, format!("{}\n", results.to_json()))
        .map_err(|e| format!("write {}: {e}", out_path.display()))?;
    println!("# results written to {}", out_path.display());
    Ok(all_correct)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Unchanged,
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so the
    /// two medians cannot be told apart.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges a new median against a base median under a bound. A change counts
/// only when it exceeds the bound; a spread wider than the bound makes the
/// pair unresolved unless the new median is outright worse.
pub fn verdict(better: Better, bound: f64, base: f64, new: f64, spread: f64) -> Verdict {
    if base == 0.0 {
        return if new == 0.0 {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    let worsening = match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    };
    if worsening > bound {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// The compare table as text plus whether the gate passes (no `worse`, no
/// rise in failures).
pub fn compare(base: &Results, new: &Results) -> (String, bool) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut pass = true;
    let _ = writeln!(
        out,
        "{:<14} {:<20} {:>14} {:>14} {:>8} {:>8}  verdict",
        "workload", "metric", "base", "new", "ratio", "spread"
    );
    let exact: Vec<&str> = metrics::per_layer()
        .iter()
        .filter(|m| m.exact)
        .map(|m| m.name.as_str())
        .collect();
    for (workload, b) in &base.workloads {
        let Some((_, n)) = new.workloads.iter().find(|(w, _)| w == workload) else {
            let _ = writeln!(out, "{workload:<14} missing from the new results: worse");
            pass = false;
            continue;
        };
        for m in &END_TO_END {
            let find = |w: &WorkloadResult| {
                w.end_to_end
                    .iter()
                    .find(|(k, _)| k == m.name)
                    .map(|(_, v)| v.clone())
            };
            let (Some(bm), Some(nm)) = (find(b), find(n)) else {
                continue;
            };
            let spread = bm.spread().max(nm.spread());
            let v = verdict(m.better, m.bound, bm.median(), nm.median(), spread);
            pass &= v != Verdict::Worse;
            let _ = writeln!(
                out,
                "{workload:<14} {:<20} {:>14.4} {:>14.4} {:>8.3} {:>8.3}  {}",
                m.name,
                bm.median(),
                nm.median(),
                nm.median() / bm.median(),
                spread,
                v.as_str()
            );
        }
        let share = |w: &WorkloadResult| w.failed as f64 / w.attempted.max(1) as f64;
        let rose = share(n) > share(b);
        pass &= !rose;
        let _ = writeln!(
            out,
            "{workload:<14} {:<20} {:>14.6} {:>14.6} {:>8} {:>8}  {}",
            "failed_share",
            share(b),
            share(n),
            "",
            "",
            if rose { "worse" } else { "unchanged" }
        );
        for name in &exact {
            let find = |w: &WorkloadResult| {
                w.per_layer
                    .iter()
                    .find(|(k, _)| k == name)
                    .map(|(_, v)| v.median())
            };
            if let (Some(bv), Some(nv)) = (find(b), find(n)) {
                if bv != nv {
                    let _ = writeln!(
                        out,
                        "{workload:<14} {name:<20} {bv:>14} {nv:>14}  count differs by {}",
                        nv - bv
                    );
                }
            }
        }
    }
    (out, pass)
}

pub fn compare_files(base: &Path, new: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Results, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))?;
        Results::from_json(&json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?)
    };
    let (table, pass) = compare(&load(base)?, &load(new)?);
    print!("{table}");
    println!("{}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

/// `BENCHMARK.json`, generated from the tables in [`metrics`].
pub fn manifest() -> String {
    let named = |name: &str, unit: &str, better: Better| {
        vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better.as_str())),
        ]
    };
    let list = |items: Vec<Json>| {
        let rows: Vec<String> = items.iter().map(|j| format!("    {j}")).collect();
        format!("[\n{}\n  ]", rows.join(",\n"))
    };
    let workloads = list(
        WORKLOADS
            .iter()
            .map(|(n, why)| Json::obj(vec![("name", Json::str(*n)), ("why", Json::str(*why))]))
            .collect(),
    );
    let end_to_end = list(
        END_TO_END
            .iter()
            .map(|m| {
                let mut f = named(m.name, m.unit, m.better);
                f.push(("bound", Json::Float(m.bound)));
                Json::obj(f)
            })
            .collect(),
    );
    let per_layer = list(
        metrics::per_layer()
            .iter()
            .map(|m| Json::obj(named(&m.name, m.unit, m.better)))
            .collect(),
    );
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": {workloads},\n  \"end_to_end\": {end_to_end},\n  \"per_layer\": {per_layer}\n}}",
        crate::DEFAULT_SECONDS as u64
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(values: &[f64]) -> Measured {
        Measured {
            unit: "s".into(),
            values: values.to_vec(),
        }
    }

    fn results(setup_s: &[f64], failed: u64, waves: f64) -> Results {
        Results {
            fingerprint: vec![("nproc".into(), "2".into())],
            workloads: vec![(
                "serve_hit".into(),
                WorkloadResult {
                    attempted: 1000,
                    failed,
                    trace_overhead_pct: 1.5,
                    end_to_end: vec![("setup_s".into(), sample(setup_s))],
                    per_layer: vec![("dataflow.waves".into(), sample(&[waves]))],
                },
            )],
        }
    }

    #[test]
    fn bound_verdicts() {
        use Better::{Higher, Lower};
        assert_eq!(verdict(Lower, 0.1, 100.0, 105.0, 0.0), Verdict::Unchanged);
        assert_eq!(verdict(Lower, 0.1, 100.0, 111.0, 0.0), Verdict::Worse);
        assert_eq!(verdict(Lower, 0.1, 100.0, 85.0, 0.0), Verdict::Better);
        assert_eq!(verdict(Higher, 0.1, 100.0, 85.0, 0.0), Verdict::Worse);
        assert_eq!(verdict(Higher, 0.1, 100.0, 120.0, 0.0), Verdict::Better);
        // A spread wider than the bound hides small moves, never a regression.
        assert_eq!(verdict(Lower, 0.1, 100.0, 95.0, 0.2), Verdict::Unresolved);
        assert_eq!(verdict(Lower, 0.1, 100.0, 130.0, 0.2), Verdict::Worse);
    }

    #[test]
    fn results_round_trip_through_json() {
        let r = results(&[1.25, 1.5, 1.0], 0, 12.0);
        let text = r.to_json().to_string();
        let back = Results::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.workloads[0].1.end_to_end[0].1.median(), 1.25);
    }

    #[test]
    fn compare_gates_on_worse_failures_and_lists_count_diffs() {
        let base = results(&[1.0, 1.0, 1.0], 0, 12.0);
        let (table, pass) = compare(&base, &results(&[1.05, 1.04, 1.06], 0, 12.0));
        assert!(pass && table.contains("unchanged") && !table.contains("count differs"));
        let (table, pass) = compare(&base, &results(&[1.3, 1.3, 1.3], 0, 14.0));
        assert!(!pass && table.contains("worse") && table.contains("count differs by 2"));
        let (_, pass) = compare(&base, &results(&[1.0, 1.0, 1.0], 3, 12.0));
        assert!(!pass, "a rise in failed_share fails the gate");
        let (table, pass) = compare(&base, &results(&[0.8, 1.0, 1.25], 0, 12.0));
        assert!(pass && table.contains("unresolved"));
    }

    #[test]
    fn manifest_is_valid_json_with_exactly_the_contract_keys() {
        let v = json::parse(&manifest()).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
