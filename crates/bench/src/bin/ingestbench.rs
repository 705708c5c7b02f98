//! `ingestbench` — O(delta) incremental zoom maintenance vs cold recompute.
//!
//! ```text
//! ingestbench                         # full sweep
//! ingestbench --smoke                 # small deterministic pass for CI
//! ingestbench --history 1000,4000 --deltas 8,512 --repr ve
//! ```
//!
//! It sweeps (history length × delta size): a synthetic evolving graph is
//! written to disk, a delta appended as an epoch segment, and the same
//! pipeline timed two ways — a cold recompute (full scan + full pipeline)
//! and the patch path (`tgraph_ingest::patch_from_storage`: plan → suffix
//! read → pipeline over the suffix → stitch, the call `tgraph-serve` makes).
//! Byte-identity of the two results is asserted on every cell via the serve
//! layer's canonical serialization, and the scan counters show the suffix
//! read is bounded by the delta, not the history. The serve path itself is
//! checked by `tgraph-serve`'s ingest tests (checked mode, patched against
//! `no_cache`) and, over a socket, by the benchmark's `serve_ingest`
//! workload.

use std::process::ExitCode;
use std::time::Instant;
use tgraph_core::graph::{EdgeId, EdgeRecord, TGraph, VertexId, VertexRecord};
use tgraph_core::props::Props;
use tgraph_core::time::{Interval, Time};
use tgraph_core::zoom::{AZoomSpec, AggSpec, Quantifier, WZoomSpec};
use tgraph_dataflow::Runtime;
use tgraph_ingest::{patch_from_storage, SnapshotDelta};
use tgraph_query::Pipeline;
use tgraph_repr::{AnyGraph, ReprKind};
use tgraph_serve::serialize_tgraph;
use tgraph_storage::{append_epoch, write_dataset, GraphLoader};

const SCHOOLS: [&str; 3] = ["MIT", "CMU", "ETH"];

struct Args {
    histories: Vec<u64>,
    deltas: Vec<u64>,
    repr: ReprKind,
    smoke: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            histories: vec![1_000, 4_000, 16_000],
            deltas: vec![8, 64, 512],
            repr: ReprKind::Ve,
            smoke: false,
        }
    }
}

fn parse_list(s: &str, flag: &str) -> Result<Vec<u64>, String> {
    s.split(',')
        .map(|p| p.trim().parse::<u64>().map_err(|e| format!("{flag}: {e}")))
        .collect()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--history" => args.histories = parse_list(&value("--history")?, "--history")?,
            "--deltas" => args.deltas = parse_list(&value("--deltas")?, "--deltas")?,
            "--repr" => {
                let v = value("--repr")?;
                args.repr = match v.as_str() {
                    "rg" => ReprKind::Rg,
                    "ve" => ReprKind::Ve,
                    "og" => ReprKind::Og,
                    other => return Err(format!("--repr: unknown representation '{other}'")),
                };
            }
            "--smoke" => {
                args.smoke = true;
                args.histories = vec![300, 600];
                args.deltas = vec![4, 16];
            }
            "--help" | "-h" => {
                return Err("usage: ingestbench [--history N,N,...] [--deltas N,N,...] \
                            [--repr rg|ve|og] [--smoke]"
                    .to_string())
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    Ok(args)
}

/// A synthetic evolving graph: vertex `i` alive over `[i, i+4)` with a
/// rotating school, edge `i` connecting `i → i+1` over `[i+1, i+3)` — always
/// inside both endpoints' existence, so the graph is valid under
/// Definition 2.1. Lifespan `[0, n+3)`.
fn history_graph(n: u64) -> TGraph {
    let vertices = (0..n)
        .map(|i| VertexRecord {
            vid: VertexId(i),
            interval: Interval::new(i as Time, i as Time + 4),
            props: Props::typed("person").with("school", SCHOOLS[(i % 3) as usize]),
        })
        .collect();
    let edges = (0..n.saturating_sub(1))
        .map(|i| EdgeRecord {
            eid: EdgeId(i + 1),
            src: VertexId(i),
            dst: VertexId(i + 1),
            interval: Interval::new(i as Time + 1, i as Time + 3),
            props: Props::typed("knows"),
        })
        .collect();
    TGraph::from_records(vertices, edges)
}

/// A valid delta of `d` fresh vertices (plus chaining edges) at `since`:
/// every fact starts exactly at the boundary, edge intervals covered by
/// their delta-asserted endpoints.
fn delta_of(n: u64, d: u64, since: Time) -> SnapshotDelta {
    let vertices: Vec<VertexRecord> = (0..d)
        .map(|j| VertexRecord {
            vid: VertexId(n + 1 + j),
            interval: Interval::new(since, since + 2),
            props: Props::typed("person").with("school", SCHOOLS[(j % 3) as usize]),
        })
        .collect();
    let edges = (0..d.saturating_sub(1))
        .map(|j| EdgeRecord {
            eid: EdgeId(n + 1 + j),
            src: VertexId(n + 1 + j),
            dst: VertexId(n + 2 + j),
            interval: Interval::new(since, since + 2),
            props: Props::typed("knows"),
        })
        .collect();
    SnapshotDelta {
        since,
        vertices,
        edges,
    }
}

fn pipeline() -> Pipeline {
    Pipeline::new()
        .azoom(AZoomSpec::by_property(
            "school",
            "school",
            vec![AggSpec::count("students")],
        ))
        .wzoom(WZoomSpec::points(2, Quantifier::Exists, Quantifier::Exists))
}

/// One sweep cell: returns `(cold_us, patch_us, rows_full, rows_suffix)`.
fn run_cell(
    rt: &Runtime,
    repr: ReprKind,
    n: u64,
    d: u64,
) -> Result<(u128, u128, usize, usize), String> {
    let dir = std::env::temp_dir().join(format!("tgraph-ingestbench-{n}-{d}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let base = history_graph(n);
    let boundary = base.lifespan.end;
    write_dataset(&dir, "bench", &base).map_err(|e| format!("write dataset: {e}"))?;
    let loader = GraphLoader::new(&dir, "bench");
    let steps = pipeline();
    let run_cold = |g: &TGraph| steps.collect(rt, AnyGraph::load(rt, g, repr));

    // The retained result the patch path maintains (untimed: it is the
    // pre-ingest answer the serve layer already holds).
    let cached = run_cold(&base);

    let delta = delta_of(n, d, boundary);
    delta.validate().map_err(|e| format!("delta: {e}"))?;
    append_epoch(&dir, "bench", &delta.to_tgraph()).map_err(|e| format!("append epoch: {e}"))?;

    // Cold: full scan + full pipeline, what serving would do without
    // maintenance.
    let t0 = Instant::now();
    let (full, full_scan) = loader
        .load_flat(None)
        .map_err(|e| format!("full load: {e}"))?;
    let cold = run_cold(&full);
    let cold_us = t0.elapsed().as_micros();

    // Patch: plan → suffix read (chunk-skipped) → pipeline over the suffix →
    // stitch. The call `tgraph-serve` makes after an ingest.
    let t1 = Instant::now();
    let patched = patch_from_storage(rt, &loader, full.lifespan, repr, &steps, &cached, boundary)
        .map_err(|e| e.to_string())?;
    let patch_us = t1.elapsed().as_micros();

    // Byte-identity on every cell, not just in checked mode: the bench is
    // only meaningful if the fast path is indistinguishable from the slow
    // one.
    if serialize_tgraph(&patched.result) != serialize_tgraph(&cold) {
        return Err(format!(
            "patched result diverged from cold recompute (history {n}, delta {d})"
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok((
        cold_us,
        patch_us,
        full_scan.rows_read,
        patched.scan.rows_read,
    ))
}

fn sweep(args: &Args) -> Result<(), String> {
    let rt = Runtime::with_partitions(2, 4);
    println!(
        "ingestbench: repr={} pipeline=azoom(school)+wzoom(points=2)",
        args.repr
    );
    println!(
        "{:>10} {:>8} {:>12} {:>12} {:>9} {:>12} {:>12}",
        "history", "delta", "cold_us", "patch_us", "speedup", "rows_full", "rows_suffix"
    );
    for &n in &args.histories {
        for &d in &args.deltas {
            let (cold_us, patch_us, rows_full, rows_suffix) = run_cell(&rt, args.repr, n, d)?;
            println!(
                "{:>10} {:>8} {:>12} {:>12} {:>8.1}x {:>12} {:>12}",
                n,
                d,
                cold_us,
                patch_us,
                cold_us as f64 / (patch_us as f64).max(1.0),
                rows_full,
                rows_suffix,
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("ingestbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    match sweep(&args) {
        Ok(()) => {
            println!("ingestbench: ok");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("ingestbench: {message}");
            ExitCode::FAILURE
        }
    }
}
