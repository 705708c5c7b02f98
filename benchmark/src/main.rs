//! `tgraph-benchmark`: the repository's benchmark driver.
//!
//! ```text
//! tgraph-benchmark --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result JSON
//! tgraph-benchmark [--seed N] [--seconds S] [--repeats R] [--smoke] [--out FILE]
//!                                                                  every workload, untraced then traced, one results file
//! tgraph-benchmark compare BASE.json NEW.json                      the regression gate
//! tgraph-benchmark manifest                                        prints BENCHMARK.json
//! ```
//!
//! `run.sh` builds the server and this driver and passes `--serve-bin` and
//! `--out-dir`; see `README.md` for workloads, metrics and the probe surface.

mod batch;
mod datasets;
mod ingest;
mod metrics;
mod results;
mod serve;
mod server;
mod trace;
mod util;

use metrics::RunOutput;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

pub const DEFAULT_SEED: u64 = 20_200_330;
pub const DEFAULT_SECONDS: f64 = 30.0;

/// Everything one run needs to know.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// The measured phase runs whole rounds until this much time has passed.
    pub seconds: f64,
    pub trace: bool,
    /// ~1/50 of the work: small datasets, one set-up, one round.
    pub smoke: bool,
    pub serve_bin: PathBuf,
    pub out_dir: PathBuf,
    /// `min(2, available_parallelism)`: dataflow workers of the process
    /// under test.
    pub workers: usize,
}

impl RunConfig {
    /// Dataset scale relative to the pinned sizes.
    pub fn scale(&self) -> f64 {
        if self.smoke {
            0.25
        } else {
            1.0
        }
    }

    /// `setup_s` is the median over this many full set-ups.
    pub fn set_ups(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Rounds the measured phase runs even when `seconds` is already over.
    pub fn min_rounds(&self) -> usize {
        if self.smoke {
            1
        } else {
            2
        }
    }

    pub fn trace_path(&self) -> PathBuf {
        self.out_dir.join(format!("trace_{}.json", self.workload))
    }
}

/// Sets up `times` times, tearing each world down before the next, and
/// returns the last world with the median set-up time in seconds.
pub fn repeat_set_up<T>(
    times: usize,
    mut set_up: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut seconds = Vec::new();
    let mut world = None;
    for _ in 0..times.max(1) {
        drop(world.take());
        let t = Instant::now();
        world = Some(set_up()?);
        seconds.push(t.elapsed().as_secs_f64());
    }
    Ok((world.expect("at least one set-up"), util::median(&seconds)))
}

fn run_workload(cfg: &RunConfig) -> Result<RunOutput, String> {
    let mut out = match cfg.workload.as_str() {
        "paper_batch" => batch::run(cfg),
        "serve_miss" => serve::run(cfg, serve::Kind::Miss),
        "serve_hit" => serve::run(cfg, serve::Kind::Hit),
        "serve_ingest" => ingest::run(cfg),
        other => Err(format!(
            "unknown workload '{other}' (expected paper_batch|serve_miss|serve_hit|serve_ingest)"
        )),
    }?;
    if cfg.trace {
        // Every traced run reports every per-layer metric; one that does not
        // apply to this workload reads 0.
        let mut all: Vec<(String, f64)> = Vec::new();
        for m in metrics::per_layer() {
            let v = out
                .metrics
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |(_, v)| *v);
            all.push((m.name.clone(), v));
        }
        out.metrics = all;
    }
    Ok(out)
}

/// `workload metric value unit` lines, then the one-line result JSON.
fn print_run(cfg: &RunConfig, out: &RunOutput) {
    for note in &out.notes {
        println!("# {note}");
    }
    for (name, value) in &out.metrics {
        println!("{} {name} {value} {}", cfg.workload, metrics::unit_of(name));
    }
    println!("{}", out.result_line());
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeats: usize,
    out: Option<PathBuf>,
    serve_bin: PathBuf,
    out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        repeats: 1,
        out: None,
        serve_bin: PathBuf::from("target/release/tgraph-serve"),
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=120.0).contains(&s) {
                    return Err("--seconds must lie in [0, 120]".to_string());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => a.smoke = true,
            "--repeats" => {
                a.repeats = value()?.parse().map_err(|e| format!("--repeats: {e}"))?;
                if a.repeats == 0 {
                    return Err("--repeats must be at least 1".to_string());
                }
            }
            "--out" => a.out = Some(value()?.into()),
            "--serve-bin" => a.serve_bin = value()?.into(),
            "--out-dir" => a.out_dir = value()?.into(),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(a)
}

fn run() -> Result<bool, String> {
    // Shipped defaults are what is measured: nothing in the environment may
    // change how the crates linked here, or the server processes that
    // inherit it, behave.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("TGRAPH_") {
            std::env::remove_var(k);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => {
            let [_, base, new] = argv.as_slice() else {
                return Err("usage: compare BASE.json NEW.json".to_string());
            };
            return results::compare_files(base.as_ref(), new.as_ref());
        }
        Some("manifest") => {
            println!("{}", results::manifest());
            return Ok(true);
        }
        _ => {}
    }
    let args = parse_args(&argv)?;
    let config = |workload: &str, trace: bool| RunConfig {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args
            .seconds
            .unwrap_or(if args.smoke { 0.0 } else { DEFAULT_SECONDS }),
        trace,
        smoke: args.smoke,
        serve_bin: args.serve_bin.clone(),
        out_dir: args.out_dir.clone(),
        workers: util::nproc().min(2),
    };
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    if let Some(workload) = &args.workload {
        let cfg = config(workload, args.trace);
        let out = run_workload(&cfg)?;
        print_run(&cfg, &out);
        return Ok(out.correct);
    }
    results::run_suite(
        &args
            .out
            .unwrap_or_else(|| args.out_dir.join("results.json")),
        args.repeats,
        &config,
    )
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("tgraph-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
