//! `serve_ingest`: writes beside reads on one connection, fully sequential.
//! Each cycle sends one `ingest` (one new time point: 16 vertices and 16
//! edges, `since` = current end) and then 6 pinned zooms once each: 5 are
//! decomposable and come back `cache:"patch"`, 1 has a `{"changes":k}`
//! window and recomputes.
//!
//! Why it exists: the same storage, pool and cache layers used for writes
//! instead of reads (append + fsync, pool advance, invalidation, suffix load
//! and stitch). Epochs accumulate over the 32 cycles of a lap, so
//! unbounded-history cost and any read gain paid for by writes both show
//! here; laps restart from a fresh server until the run's time is up, and
//! each restart is one more set-up sample. A concurrent
//! reader beside the writer is deliberately left out: it would make the
//! hit/patch mix timing-dependent.

use crate::datasets::{self, DataDir, Dataset, Written};
use crate::metrics::RunOutput;
use crate::serve::{
    azoom_by, dataflow_from_stats, record_spans, request_line, serve_layer_metrics, wzoom_over,
};
use crate::server::{Client, ServerProcess, ZoomReply};
use crate::trace::Recorder;
use crate::util::{self, Rng};
use crate::RunConfig;
use std::fmt::Write as _;
use std::time::Instant;
use tgraph_core::graph::{EdgeRecord, VertexRecord};
use tgraph_core::props::Props;
use tgraph_core::time::Interval;
use tgraph_ingest::SnapshotDelta;
use tgraph_serve::json::{self, Json};
use tgraph_storage::{append_epoch, write_dataset};

const FACTS_PER_KIND: u64 = 16;
/// Cycles of one lap: every lap crosses the same epochs, so latencies,
/// `disk_bytes_per_row` and the exact-count metrics do not depend on how
/// many cycles a faster or slower build fits into the run.
const CYCLES_PER_LAP: usize = 32;
const STATS: &str = "{\"op\":\"stats\"}\n";

/// One of the six zooms of a cycle: as served, and as a `no_cache`
/// recompute to hold the served answer against.
struct PinnedZoom {
    label: &'static str,
    line: String,
    cold: String,
}

fn pinned_zooms() -> Vec<PinnedZoom> {
    let zoom = |label: &'static str, repr: &str, steps: &str| PinnedZoom {
        label,
        line: request_line("wiki", repr, None, steps, ""),
        cold: request_line("wiki", repr, None, steps, ",\"no_cache\":true"),
    };
    let az = |key: &str| azoom_by(key, "group");
    let wz = wzoom_over;
    vec![
        zoom("az-key.ve", "ve", &az("name")),
        zoom("az-few.og", "og", &az("editCount")),
        zoom("wz6-exists.ve", "ve", &wz("{\"points\":6}", "exists")),
        zoom("wz12-all.og", "og", &wz("{\"points\":12}", "all")),
        zoom(
            "chain.ve",
            "ve",
            &format!("{},{}", az("name"), wz("{\"points\":6}", "exists")),
        ),
        // Change-driven windows are not append-stable: always a recompute.
        zoom("wz-changes4.ve", "ve", &wz("{\"changes\":4}", "exists")),
    ]
}

/// The facts of cycle `cycle`: fresh vertices alive for the one new time
/// point and edges among them, all starting exactly at `since`.
fn delta_of(cycle: u64, since: i64, rng: &mut Rng) -> SnapshotDelta {
    let interval = Interval::new(since, since + 1);
    let base = 10_000_000 + cycle * FACTS_PER_KIND;
    let vertices = (0..FACTS_PER_KIND)
        .map(|j| {
            let props = Props::typed("person")
                .with("name", format!("ingested{}", base + j))
                .with(
                    "editCount",
                    rng.below(u64::from(datasets::WIKI_EDIT_COUNTS)) as i64,
                );
            VertexRecord::new(base + j, interval, props)
        })
        .collect();
    let edges = (0..FACTS_PER_KIND)
        .map(|j| {
            let dst = base + (j + 1 + rng.below(FACTS_PER_KIND - 1)) % FACTS_PER_KIND;
            EdgeRecord::new(base + j, base + j, dst, interval, Props::typed("message"))
        })
        .collect();
    SnapshotDelta {
        since,
        vertices,
        edges,
    }
}

fn props_json(p: &Props) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in p.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let value = match (v.as_int(), v.as_str()) {
            (Some(n), _) => Json::Int(n),
            (_, Some(s)) => Json::str(s),
            _ => Json::Null,
        };
        let _ = write!(out, "\"{k}\":{value}");
    }
    out.push('}');
    out
}

fn ingest_line(d: &SnapshotDelta) -> String {
    let mut out = format!(
        "{{\"op\":\"ingest\",\"graph\":\"wiki\",\"since\":{},\"vertices\":[",
        d.since
    );
    for (i, v) in d.vertices.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"id\":{},\"interval\":[{},{}],\"props\":{}}}",
            if i > 0 { "," } else { "" },
            v.vid.0,
            v.interval.start,
            v.interval.end,
            props_json(&v.props)
        );
    }
    out.push_str("],\"edges\":[");
    for (i, e) in d.edges.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"id\":{},\"src\":{},\"dst\":{},\"interval\":[{},{}],\"props\":{}}}",
            if i > 0 { "," } else { "" },
            e.eid.0,
            e.src.0,
            e.dst.0,
            e.interval.start,
            e.interval.end,
            props_json(&e.props)
        );
    }
    out.push_str("]}\n");
    out
}

struct World {
    dir: DataDir,
    server: ServerProcess,
    client: Client,
    written: Written,
    zooms: Vec<PinnedZoom>,
}

fn set_up(cfg: &RunConfig) -> Result<World, String> {
    let dir = DataDir::create(&cfg.out_dir, "serve_ingest")?;
    let data = dir.path.join("data");
    let written = datasets::write_all(&data, &[Dataset::Wiki], cfg.seed, cfg.scale())?;
    let server = ServerProcess::spawn(
        &cfg.serve_bin,
        &data,
        &dir.path.join("server.stderr"),
        cfg.workers,
        64,
        "wiki:ve,wiki:og",
    )?;
    let mut client = Client::connect(&server.addr)?;
    let zooms = pinned_zooms();
    // The warm round caches the six answers: the first cycle patches them.
    for z in &zooms {
        client
            .zoom(&z.line)
            .map_err(|e| format!("warm {}: {e}", z.label))?;
    }
    Ok(World {
        dir,
        server,
        client,
        written,
        zooms,
    })
}

/// In-process probes of the write path's layers.
fn layer_probes(
    world: &World,
    cfg: &RunConfig,
    deltas: &[SnapshotDelta],
    lines: &[String],
    out: &mut Vec<(String, f64)>,
) -> Result<(), String> {
    let t = Instant::now();
    for d in deltas {
        std::hint::black_box(d.validate().is_ok());
    }
    out.push((
        "ingest.validate_us".into(),
        t.elapsed().as_secs_f64() * 1e6 / deltas.len().max(1) as f64,
    ));
    let t = Instant::now();
    let mut bytes = 0;
    for l in lines {
        bytes += l.len();
        std::hint::black_box(json::parse(l.trim()).is_ok());
    }
    out.push((
        "serve.json_parse_mb_per_s".into(),
        bytes as f64 / 1e6 / t.elapsed().as_secs_f64().max(1e-9),
    ));
    // `append_epoch` on a scratch copy of the base dataset, replaying the
    // first deltas: the storage share of an ingest, without the server.
    let scratch = world.dir.path.join("append-probe");
    write_dataset(
        &scratch,
        "wiki",
        &Dataset::Wiki.generate(cfg.seed, cfg.scale()),
    )
    .map_err(|e| format!("probe dataset: {e}"))?;
    let mut ms = Vec::new();
    for d in deltas.iter().take(8) {
        let t = Instant::now();
        append_epoch(&scratch, "wiki", &d.to_tgraph()).map_err(|e| format!("probe append: {e}"))?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.push(("storage.append_epoch_ms".into(), util::median(&ms)));
    Ok(())
}

/// What one lap observed. A lap is a fresh world (dataset rewritten, server
/// restarted, six answers cached) driven through the same `cycles` cycles,
/// so every lap crosses epochs `1..=cycles` and laps are comparable however
/// many of them fit the run.
struct Lap {
    started: Instant,
    wall_s: f64,
    server_cpu_ms: f64,
    rss_mb: f64,
    before: Json,
    after: Json,
    ingests: Vec<(Instant, f64)>,
    replies: Vec<ZoomReply>,
    disk_bytes: u64,
    new_files: u64,
    mismatches: Vec<String>,
}

fn run_lap(
    world: &mut World,
    cfg: &RunConfig,
    cycles: usize,
) -> Result<(Lap, Vec<SnapshotDelta>, Vec<String>), String> {
    let data = world.dir.path.join("data");
    let before = world.client.call(STATS)?.0;
    let (_, files_before) = util::dir_usage(&data);
    let cpu0 = util::cpu_ms(world.server.pid()).unwrap_or(0.0);
    // Every lap ingests the same deltas.
    let mut rng = Rng::new(cfg.seed ^ 0x0001_6e57);
    let mut since = world.written.lifespans[0].1.end;
    let (mut deltas, mut lines) = (Vec::new(), Vec::new());
    let (mut ingests, mut replies) = (Vec::new(), Vec::new());
    let started = Instant::now();
    for cycle in 1..=cycles {
        let delta = delta_of(cycle as u64, since, &mut rng);
        let line = ingest_line(&delta);
        let sent = Instant::now();
        let (ack, wall) = world.client.call(&line)?;
        ingests.push((sent, wall.as_secs_f64() * 1e3));
        since = ack
            .get("end")
            .and_then(Json::as_i64)
            .ok_or("ingest response has no 'end'")?;
        for z in &world.zooms {
            replies.push(
                world
                    .client
                    .zoom(&z.line)
                    .map_err(|e| format!("{}: {e}", z.label))?,
            );
        }
        deltas.push(delta);
        lines.push(line);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let server_cpu_ms = util::cpu_ms(world.server.pid()).unwrap_or(0.0) - cpu0;
    let rss_mb = util::peak_rss_mb(world.server.pid()).unwrap_or(0.0);
    let after = world.client.call(STATS)?.0;
    let (disk_bytes, files) = util::dir_usage(&data);
    world.server.health()?;

    // Every patched or recomputed answer is now the cached one: it must be
    // byte-for-byte what a cold recompute gives at the final epoch.
    let mut mismatches = Vec::new();
    for z in &world.zooms {
        let served = world.client.zoom_body(&z.line)?;
        let cold = world.client.zoom_body(&z.cold)?;
        if served != cold {
            mismatches.push(format!(
                "{}: served answer differs from a no_cache recompute at the final epoch",
                z.label
            ));
        }
    }
    world.server.health()?;
    let lap = Lap {
        started,
        wall_s,
        server_cpu_ms,
        rss_mb,
        before,
        after,
        ingests,
        replies,
        disk_bytes,
        new_files: files - files_before,
        mismatches,
    };
    Ok((lap, deltas, lines))
}

pub fn run(cfg: &RunConfig) -> Result<RunOutput, String> {
    let cycles = if cfg.smoke { 2 } else { CYCLES_PER_LAP };
    let min_laps = cfg.set_ups();
    let epoch = Instant::now();
    let (mut laps, mut set_up_s): (Vec<Lap>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut last: Option<(World, Vec<SnapshotDelta>, Vec<String>)> = None;
    while laps.len() < min_laps || laps.iter().map(|l| l.wall_s).sum::<f64>() < cfg.seconds {
        drop(last.take());
        let t = Instant::now();
        let mut world = set_up(cfg)?;
        set_up_s.push(t.elapsed().as_secs_f64());
        let (lap, deltas, lines) = run_lap(&mut world, cfg, cycles)?;
        laps.push(lap);
        last = Some((world, deltas, lines));
    }
    let (world, deltas, lines) = last.expect("at least one lap");
    let mut notes = vec![format!(
        "serve_ingest: closed loop, 1 connection, sequential; {} laps of {cycles} cycles on a fresh server, each cycle = 1 ingest ({FACTS_PER_KIND} vertices + {FACTS_PER_KIND} edges) + {} zooms; server --workers {} --partitions 4 --max-inflight 2 --max-queue 64 --cache-mb 64",
        laps.len(),
        world.zooms.len(),
        cfg.workers
    )];

    let wall_s: f64 = laps.iter().map(|l| l.wall_s).sum();
    let server_cpu_ms: f64 = laps.iter().map(|l| l.server_cpu_ms).sum();
    let replies: Vec<&ZoomReply> = laps.iter().flat_map(|l| &l.replies).collect();
    let ingest_count: usize = laps.iter().map(|l| l.ingests.len()).sum();
    let attempted = (ingest_count + replies.len()) as u64;
    let failed = laps.iter().map(|l| l.mismatches.len() as u64).sum::<u64>();
    notes.extend(
        laps.iter()
            .flat_map(|l| l.mismatches.iter().cloned())
            .take(10),
    );
    let patched = replies.iter().filter(|r| r.header.cache == "patch").count();
    notes.push(format!(
        "{patched} of {} zooms patched; each lap's final answers checked against no_cache recomputes",
        replies.len()
    ));
    let mut rounds = util::Rounds::default();
    for l in &laps {
        let zoom_ms = l
            .replies
            .iter()
            .map(|r| r.wall.as_secs_f64() * 1e3)
            .collect();
        rounds.push(zoom_ms, l.ingests.len() + l.replies.len(), l.wall_s);
    }
    notes.push(rounds.describe("zoom latency (one round = one lap)"));
    let ingest_ms = util::sorted(
        laps.iter()
            .flat_map(|l| l.ingests.iter().map(|(_, ms)| *ms))
            .collect(),
    );
    notes.push(format!(
        "ingest latency over {} requests: p95 has {} samples beyond it (supported: {})",
        ingest_ms.len(),
        util::samples_beyond(ingest_ms.len(), 0.95),
        util::tail_supported(ingest_ms.len(), 0.95),
    ));

    let first = &laps[0];
    let mut metrics: Vec<(String, f64)> = Vec::new();
    if !cfg.trace {
        let rows = world.written.rows + (cycles as u64) * 2 * FACTS_PER_KIND;
        metrics.push(("setup_s".into(), util::median(&set_up_s)));
        metrics.push(("ops_per_s".into(), rounds.ops_per_s()));
        metrics.push((
            "peak_rss_mb".into(),
            util::median(&laps.iter().map(|l| l.rss_mb).collect::<Vec<_>>()),
        ));
        metrics.push((
            "disk_bytes_per_row".into(),
            first.disk_bytes as f64 / rows as f64,
        ));
    } else {
        metrics.push(("datagen.generate_s".into(), world.written.generate_s));
        metrics.push(("storage.write_dataset_s".into(), world.written.write_s));
        for (f, v) in datasets::bytes_per_row(&world.dir.path.join("data"), &world.written) {
            metrics.push((format!("storage.bytes_per_row.{f}"), v));
        }
        // Counts are those of one lap (every lap repeats them); latencies
        // pool all laps.
        serve_layer_metrics(
            &replies,
            &first.before,
            &first.after,
            wall_s,
            server_cpu_ms,
            &mut metrics,
        );
        dataflow_from_stats(&first.before, &first.after, &mut metrics);
        metrics.push((
            "storage.files_per_epoch".into(),
            first.new_files as f64 / cycles as f64,
        ));
        let by_tag = |tag: &str| -> Vec<f64> {
            replies
                .iter()
                .filter(|r| r.header.cache == tag)
                .map(|r| r.wall.as_secs_f64() * 1e3)
                .collect()
        };
        metrics.push((
            "ingest.patched_share".into(),
            patched as f64 / replies.len().max(1) as f64,
        ));
        metrics.push(("ingest.patch_ms_p50".into(), util::median(&by_tag("patch"))));
        metrics.push((
            "ingest.recompute_ms_p50".into(),
            util::median(&by_tag("miss")),
        ));
        metrics.push((
            "ingest.latency_ms_p50".into(),
            util::percentile(&ingest_ms, 0.5),
        ));
        metrics.push((
            "ingest.latency_ms_p95".into(),
            util::percentile(&ingest_ms, 0.95),
        ));
        // Last tenth of a lap's ingests over its first tenth, pooled over
        // laps: how much an append costs after `cycles` epochs of history.
        let tenth = (cycles / 10).max(1);
        let edge = |from_end: bool| -> f64 {
            let picked: Vec<f64> = laps
                .iter()
                .flat_map(|l| {
                    let n = l.ingests.len();
                    let range = if from_end { n - tenth..n } else { 0..tenth };
                    l.ingests[range].iter().map(|(_, ms)| *ms)
                })
                .collect();
            util::median(&picked)
        };
        metrics.push((
            "ingest.latency_drift".into(),
            edge(true) / edge(false).max(1e-9),
        ));
        layer_probes(&world, cfg, &deltas, &lines, &mut metrics)?;

        let mut rec = Recorder::new(epoch);
        for (n, lap) in laps.iter().enumerate() {
            let lap_start = lap.started.duration_since(epoch).as_nanos() as u64;
            let root = rec.push(
                0,
                0,
                "trace.run",
                lap_start,
                lap_start + (lap.wall_s * 1e9) as u64,
            );
            rec.counter(root, "epochs", cycles as f64);
            rec.counter(root, "new_files", lap.new_files as f64);
            let per_cycle = world.zooms.len();
            for (c, (sent, ms)) in lap.ingests.iter().enumerate() {
                let request = ((n as u64) << 32) + (c * (per_cycle + 1)) as u64 + 1;
                let start = sent.duration_since(epoch).as_nanos() as u64;
                rec.push(
                    root,
                    request,
                    "ingest.latency_ms_p50",
                    start,
                    start + (ms * 1e6) as u64,
                );
                for (z, reply) in lap.replies[c * per_cycle..(c + 1) * per_cycle]
                    .iter()
                    .enumerate()
                {
                    record_spans(&mut rec, root, epoch, request + 1 + z as u64, reply);
                }
            }
        }
        metrics.push(("trace.ops_per_s".into(), rounds.ops_per_s()));
        // A lap's replies come in cycles of the pinned zooms, in order.
        let mut by_zoom: Vec<Vec<f64>> = vec![Vec::new(); world.zooms.len()];
        for (n, r) in laps.iter().flat_map(|l| l.replies.iter().enumerate()) {
            by_zoom[n % world.zooms.len()].push(r.wall.as_secs_f64() * 1e3);
        }
        metrics.push((
            "trace.zoom_geomean_ms".into(),
            util::geomean_of_medians(&by_zoom),
        ));
        metrics.push(("trace.zoom_p50_ms".into(), rounds.percentile(0.5)));
        metrics.push(("trace.zoom_p95_ms".into(), rounds.percentile(0.95)));
        metrics.push((
            "trace.cpu_ms_per_op".into(),
            server_cpu_ms / attempted.max(1) as f64,
        ));
        metrics.push(("trace.self_time_share".into(), rec.self_time_share()));
        rec.write(&cfg.trace_path(), "serve_ingest")
            .map_err(|e| format!("write trace: {e}"))?;
    }
    Ok(RunOutput {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph_serve::parse_request;

    #[test]
    fn deltas_are_valid_and_seeded() {
        let a = delta_of(3, 62, &mut Rng::new(5));
        let b = delta_of(3, 62, &mut Rng::new(5));
        assert_eq!(a, b);
        assert!(a.validate().is_ok());
        assert_eq!((a.vertices.len(), a.edges.len()), (16, 16));
        assert!(a.edges.iter().all(|e| e.src != e.dst));
        assert!(parse_request(ingest_line(&a).trim()).is_ok());
    }

    #[test]
    fn pinned_zooms_parse() {
        let zooms = pinned_zooms();
        assert_eq!(zooms.len(), 6);
        for z in &zooms {
            assert!(parse_request(z.line.trim()).is_ok(), "{}", z.label);
            assert!(parse_request(z.cold.trim()).is_ok(), "{}", z.label);
            assert!(z.cold.contains("\"no_cache\":true") && !z.line.contains("no_cache"));
        }
    }
}
