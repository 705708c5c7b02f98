//! `tgraph-loadgen` — closed-loop load generator for `tgraph-serve`.
//!
//! ```text
//! tgraph-loadgen --addr 127.0.0.1:7687 --graph demo --conns 32 --requests 20000
//! tgraph-loadgen --addr 127.0.0.1:7687 --graph demo \
//!                --conns 512 --active 32 --pipeline 4 --requests 4000
//! ```
//!
//! The main thread dials `--conns` connections. `--active` of them (default:
//! all) each get one blocking thread that keeps `--pipeline` requests in
//! flight, closed loop: it writes D lines, then reads one response and
//! writes one more request, until its share of the `--requests` total is
//! spent. The other connections stay idle on purpose: the server must park
//! them for free, and a parked connection needs no client work.
//!
//! Zooms rotate through `--distinct` window widths so the cache sees a mix
//! of repeats and fresh plans; `--no-cache` makes every request bypass the
//! result cache for a cold-path baseline. `--ingest-mix P` turns P percent
//! of each connection's requests into live-ingest epoch appends (tiny
//! deltas, self-resynchronizing on write races), so zoom quantiles can be
//! compared with ingest on vs off. The report gives throughput, zoom and
//! ingest quantiles, the server's counters and a `BENCH p99-under-load:`
//! headline for the sweep in EXPERIMENTS.md §10. `--hold-ms T` then keeps
//! every connection open but silent for T ms, so the server's idle CPU can
//! be sampled externally. Exits nonzero if any request failed.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};
use tgraph_serve::json::{self, Json};
use tgraph_serve::Histogram;

const USAGE: &str = "usage: tgraph-loadgen --addr HOST:PORT [--graph NAME] [--repr rg|ve|og] \
                     [--conns N] [--active M] [--pipeline D] [--requests N] [--distinct N] \
                     [--deadline-ms N] [--no-cache] [--ingest-mix PCT] [--hold-ms T]";

struct Args {
    addr: String,
    graph: String,
    repr: String,
    conns: usize,
    /// Connections that send requests; 0 means all of them.
    active: usize,
    pipeline: usize,
    /// Total requests, split across the active connections.
    requests: usize,
    distinct: usize,
    deadline_ms: Option<i64>,
    no_cache: bool,
    ingest_mix: usize,
    hold_ms: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            addr: "127.0.0.1:7687".to_string(),
            graph: "demo".to_string(),
            repr: "ve".to_string(),
            conns: 4,
            active: 0,
            pipeline: 1,
            requests: 200,
            distinct: 8,
            deadline_ms: None,
            no_cache: false,
            ingest_mix: 0,
            hold_ms: 0,
        }
    }
}

fn next_value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn next_number<T: FromStr>(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    next_value(it, flag)?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let it = &mut it;
        match flag.as_str() {
            "--addr" => args.addr = next_value(it, flag)?,
            "--graph" => args.graph = next_value(it, flag)?,
            "--repr" => args.repr = next_value(it, flag)?,
            "--conns" => args.conns = next_number::<usize>(it, flag)?.max(1),
            "--active" => args.active = next_number::<usize>(it, flag)?.max(1),
            "--pipeline" => args.pipeline = next_number::<usize>(it, flag)?.clamp(1, 64),
            "--requests" => args.requests = next_number(it, flag)?,
            "--distinct" => args.distinct = next_number::<usize>(it, flag)?.max(1),
            "--deadline-ms" => args.deadline_ms = Some(next_number(it, flag)?),
            "--no-cache" => args.no_cache = true,
            "--ingest-mix" => {
                args.ingest_mix = next_number(it, flag)?;
                if args.ingest_mix > 100 {
                    return Err("--ingest-mix: must be a percentage in 0..=100".to_string());
                }
            }
            "--hold-ms" => args.hold_ms = next_number(it, flag)?,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    Ok(args)
}

/// Builds a zoom request line: an attribute zoom on `editCount` followed by
/// a window zoom whose width varies with `variant`, so distinct variants map
/// to distinct cache keys while repeats of one variant are cache hits.
fn zoom_line(args: &Args, variant: usize) -> String {
    let mut obj = vec![
        ("op", Json::str("zoom")),
        ("graph", Json::str(&args.graph)),
        ("repr", Json::str(&args.repr)),
    ];
    if let Some(ms) = args.deadline_ms {
        obj.push(("deadline_ms", Json::Int(ms)));
    }
    if args.no_cache {
        obj.push(("no_cache", Json::Bool(true)));
    }
    let azoom = Json::obj(vec![
        ("by", Json::str("editCount")),
        ("new_type", Json::str("cohort")),
        (
            "aggs",
            Json::Arr(vec![Json::obj(vec![
                ("output", Json::str("members")),
                ("fn", Json::str("count")),
            ])]),
        ),
    ]);
    let wzoom = Json::obj(vec![
        (
            "window",
            Json::obj(vec![("points", Json::Int(2 + variant as i64))]),
        ),
        ("vq", Json::str("exists")),
        ("eq", Json::str("exists")),
    ]);
    obj.push((
        "steps",
        Json::Arr(vec![
            Json::obj(vec![("azoom", azoom)]),
            Json::obj(vec![("switch", Json::str("og"))]),
            Json::obj(vec![("wzoom", wzoom)]),
        ]),
    ));
    Json::obj(obj).to_string()
}

/// Builds an ingest request line for connection `k`: one vertex alive over
/// `[end, end + 1)` when the dataset's lifespan end is known, else an empty
/// (always valid) delta whose answer reports the end.
fn ingest_line(args: &Args, k: usize, end: Option<i64>) -> String {
    match end {
        None => format!(r#"{{"op":"ingest","graph":"{}"}}"#, args.graph),
        Some(e) => format!(
            r#"{{"op":"ingest","graph":"{}","vertices":[{{"id":{},"interval":[{},{}],"props":{{"type":"live","editCount":0}}}}]}}"#,
            args.graph,
            900_000 + k,
            e,
            e + 1
        ),
    }
}

fn field_i64(response: &str, path: &[&str]) -> Result<i64, String> {
    let parsed =
        json::parse(response).map_err(|e| format!("bad json in response: {e} ({response})"))?;
    let mut v = &parsed;
    for key in path {
        v = v
            .get(key)
            .ok_or_else(|| format!("missing field {key} in {response}"))?;
    }
    v.as_i64()
        .ok_or_else(|| format!("{path:?} is not an integer in {response}"))
}

/// Sends one request line on `stream` and reads its one-line answer.
fn roundtrip(stream: &TcpStream, line: &str) -> Result<String, String> {
    let mut writer = stream;
    writer
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    match BufReader::new(stream).read_line(&mut response) {
        Ok(0) => Err("server closed the connection".to_string()),
        Ok(_) => Ok(response.trim_end().to_string()),
        Err(e) => Err(format!("receive: {e}")),
    }
}

/// Client-side outcome counts of the requests one or more connections sent.
#[derive(Default)]
struct Tally {
    hits: u64,
    errors: u64,
    committed: u64,
    raced: u64,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.hits += other.hits;
        self.errors += other.errors;
        self.committed += other.committed;
        self.raced += other.raced;
    }
}

/// What one run measured. `held` keeps every connection it dialed open,
/// the active ones first.
struct Report {
    active: usize,
    dial: Duration,
    elapsed: Duration,
    zoom: Histogram,
    ingest: Histogram,
    tally: Tally,
    /// The server's `stats` answer, taken while every connection was open.
    stats: String,
    held: Vec<TcpStream>,
}

/// Drives active connection `k` closed loop: `quota` requests, at most
/// `--pipeline` of them in flight, answers read in order.
fn drive(
    args: &Args,
    k: usize,
    quota: usize,
    stream: TcpStream,
    zoom: &Histogram,
    ingest: &Histogram,
) -> Result<(TcpStream, Tally), String> {
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?,
    );
    let mut writer = stream;
    let mut tally = Tally::default();
    // Send instant and kind (ingest or not) of each unanswered request.
    let mut inflight: VecDeque<(Instant, bool)> = VecDeque::new();
    // Dataset lifespan end as this connection last saw it; None means
    // "unknown", resolved by an empty (always-valid) delta.
    let mut end: Option<i64> = None;
    let mut sent = 0usize;
    let mut response = String::new();
    loop {
        while sent < quota && inflight.len() < args.pipeline {
            // Offset by connection so writers and cache keys do not march
            // in lockstep; the Bresenham stride spreads ingests evenly
            // through the run at the requested rate.
            let j = k + sent;
            let is_ingest = (j + 1) * args.ingest_mix / 100 > j * args.ingest_mix / 100;
            let mut line = if is_ingest {
                ingest_line(args, k, end)
            } else {
                zoom_line(args, j % args.distinct)
            };
            line.push('\n');
            writer
                .write_all(line.as_bytes())
                .map_err(|e| format!("send on #{k}: {e}"))?;
            inflight.push_back((Instant::now(), is_ingest));
            sent += 1;
        }
        let Some((sent_at, is_ingest)) = inflight.pop_front() else {
            return Ok((writer, tally));
        };
        response.clear();
        match reader.read_line(&mut response) {
            Ok(0) => return Err(format!("server closed connection #{k} mid-run")),
            Ok(_) => {}
            Err(e) => return Err(format!("receive on #{k}: {e}")),
        }
        if is_ingest {
            ingest.record(sent_at.elapsed());
            if response.contains("\"ok\":true") {
                tally.committed += 1;
                end = field_i64(&response, &["end"]).ok();
            } else if response.contains("\"kind\":\"bad_delta\"") {
                // Lost a write race: another writer moved the boundary.
                // Resync from the next empty delta.
                end = None;
                tally.raced += 1;
            } else {
                tally.errors += 1;
            }
        } else {
            zoom.record(sent_at.elapsed());
            if response.contains("\"cache\":\"hit\"") {
                tally.hits += 1;
            } else if !response.contains("\"ok\":true") {
                tally.errors += 1;
            }
        }
    }
}

/// Dials every connection, runs one thread per active connection until the
/// request total is spent, then reads the server's counters.
fn run(args: &Args) -> Result<Report, String> {
    let active = match args.active {
        0 => args.conns,
        a => a.min(args.conns),
    };
    let dial_started = Instant::now();
    let mut held = (0..args.conns)
        .map(|i| {
            let stream = TcpStream::connect(&args.addr)
                .map_err(|e| format!("connect #{i} to {}: {e}", args.addr))?;
            // Sub-millisecond cache hits drown in Nagle + delayed ACK otherwise.
            stream
                .set_nodelay(true)
                .map_err(|e| format!("socket options: {e}"))?;
            Ok(stream)
        })
        .collect::<Result<Vec<TcpStream>, String>>()?;
    let dial = dial_started.elapsed();

    let zoom = Histogram::default();
    let ingest = Histogram::default();
    let started = Instant::now();
    let (driven, tally) = std::thread::scope(|scope| {
        let handles: Vec<_> = held
            .drain(..active)
            .enumerate()
            .map(|(k, stream)| {
                let quota = args.requests / active + usize::from(k < args.requests % active);
                let (zoom, ingest) = (&zoom, &ingest);
                scope.spawn(move || drive(args, k, quota, stream, zoom, ingest))
            })
            .collect();
        let mut driven = Vec::with_capacity(active);
        let mut tally = Tally::default();
        for handle in handles {
            let (stream, t) = handle
                .join()
                .map_err(|_| "connection thread panicked".to_string())??;
            driven.push(stream);
            tally.add(t);
        }
        Ok::<_, String>((driven, tally))
    })?;
    let elapsed = started.elapsed().max(Duration::from_micros(1));
    held.splice(0..0, driven);

    let stats_conn =
        TcpStream::connect(&args.addr).map_err(|e| format!("connect {}: {e}", args.addr))?;
    let stats = roundtrip(&stats_conn, r#"{"op":"stats"}"#)?;
    Ok(Report {
        active,
        dial,
        elapsed,
        zoom,
        ingest,
        tally,
        stats,
        held,
    })
}

impl Report {
    fn print(&self, args: &Args) {
        let total = self.zoom.count() + self.ingest.count();
        let rate = total as f64 / self.elapsed.as_secs_f64();
        let t = &self.tally;
        println!(
            "loadgen: {} conns ({} active x pipeline {}, {} idle), {} requests, \
             {} distinct plans, cache {}, ingest mix {}%",
            self.held.len(),
            self.active,
            args.pipeline,
            self.held.len() - self.active,
            total,
            args.distinct,
            if args.no_cache { "OFF" } else { "ON" },
            args.ingest_mix,
        );
        println!(
            "  throughput  {rate:>10.1} req/s  ({total} requests in {:.2}s; dial {:.2}s)",
            self.elapsed.as_secs_f64(),
            self.dial.as_secs_f64(),
        );
        let quantiles = |h: &Histogram| {
            format!(
                "p50 {}us  p95 {}us  p99 {}us",
                h.quantile_us(0.50),
                h.quantile_us(0.95),
                h.quantile_us(0.99)
            )
        };
        println!(
            "  zoom        {}  ({} zooms)",
            quantiles(&self.zoom),
            self.zoom.count()
        );
        if self.ingest.count() > 0 {
            println!(
                "  ingest      {}  ({} epochs committed, {} raced)",
                quantiles(&self.ingest),
                t.committed,
                t.raced
            );
        }
        println!("  client view {} cache hits, {} errors", t.hits, t.errors);
        let g = |path: &[&str]| field_i64(&self.stats, path).unwrap_or(-1);
        println!(
            "  server      cache hits {} / misses {} / evictions {}; \
             executed {} (patched {}); ingests {}; admission wait p50 {}us; \
             pipelined {} lines in {} batches; backpressure pauses {}; accept errors {}",
            g(&["cache", "hits"]),
            g(&["cache", "misses"]),
            g(&["cache", "evictions"]),
            g(&["server", "zoom_executed"]),
            g(&["server", "zoom_patched"]),
            g(&["server", "ingests"]),
            g(&["server", "latency", "admission_wait", "p50_us"]),
            g(&["server", "pipelined_lines"]),
            g(&["server", "pipelined_batches"]),
            g(&["server", "backpressure_pauses"]),
            g(&["server", "accept_errors"]),
        );
        println!(
            "  spilled     {} bytes in {} run files (budget {} bytes, peak {} bytes)",
            g(&["runtime", "bytes_spilled"]),
            g(&["runtime", "spill_files"]),
            g(&["runtime", "mem_budget"]),
            g(&["runtime", "peak_bytes"]),
        );
        println!(
            "BENCH p99-under-load: {}us ({} conns, {total} reqs, {rate:.0} req/s)",
            self.zoom.quantile_us(0.99),
            self.held.len(),
        );
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        eprintln!(
            "loadgen: dialing {} connections (pipeline depth {})...",
            args.conns, args.pipeline
        );
        let report = run(&args)?;
        report.print(&args);
        if args.hold_ms > 0 {
            eprintln!(
                "loadgen: holding {} connections silent for {}ms",
                report.held.len(),
                args.hold_ms
            );
            std::thread::sleep(Duration::from_millis(args.hold_ms));
        }
        match report.tally.errors {
            0 => Ok(()),
            n => Err(format!("{n} requests failed")),
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("tgraph-loadgen: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tgraph_datagen::WikiTalk;
    use tgraph_serve::{Server, ServerConfig};
    use tgraph_storage::write_dataset;

    #[test]
    fn active_connections_mix_zooms_and_ingests_while_idle_ones_stay_usable() {
        let dir = std::env::temp_dir().join(format!("tgraph-loadgen-{}", std::process::id()));
        // The dataset `tgraph-serve --gen-demo` writes.
        let g = WikiTalk {
            vertices: 200,
            months: 24,
            edges_per_vertex: 3.0,
            edge_survival: 0.2,
            edit_count_values: 50,
            seed: 0x5EED,
        }
        .generate();
        write_dataset(&dir, "demo", &g).expect("write dataset");
        let server = Arc::new(
            Server::bind(ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                data_dir: dir.clone(),
                workers: 2,
                partitions: 2,
                ..ServerConfig::default()
            })
            .expect("bind"),
        );
        let serving = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.serve())
        };

        let args = Args {
            addr: server.local_addr().expect("addr").to_string(),
            conns: 6,
            active: 3,
            pipeline: 2,
            requests: 60,
            ingest_mix: 20,
            ..Args::default()
        };
        let report = run(&args).expect("load run");
        assert_eq!(report.tally.errors, 0);
        assert_eq!(report.zoom.count() + report.ingest.count(), 60);
        assert!(report.tally.committed >= 1, "no epoch committed");
        assert_eq!((report.active, report.held.len()), (3, 6));

        // A connection held idle through the run still answers.
        let idle = report.held.last().expect("an idle connection");
        assert_eq!(
            roundtrip(idle, r#"{"op":"ping"}"#).expect("ping"),
            r#"{"ok":true,"pong":true}"#
        );

        server.request_shutdown();
        serving.join().expect("serve thread").expect("serve loop");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
