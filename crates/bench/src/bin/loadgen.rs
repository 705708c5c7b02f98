//! `tgraph-loadgen` — closed-loop load generator for `tgraph-serve`.
//!
//! ```text
//! tgraph-loadgen --addr 127.0.0.1:7687 --graph demo --clients 4 --requests 100
//! tgraph-loadgen --addr 127.0.0.1:7687 --graph demo --smoke
//! ```
//!
//! Load mode: `--clients` threads each hold one connection and issue
//! `--requests` zoom queries back-to-back (closed loop), rotating through
//! `--distinct` window widths so the cache sees a mix of repeats and fresh
//! plans. Reports throughput, p50/p95/p99 latency, and the server's cache
//! and admission counters. `--no-cache` makes every request bypass the
//! result cache for a cold-path baseline. `--ingest-mix P` turns P percent
//! of each client's requests into live-ingest epoch appends (tiny deltas,
//! self-resynchronizing on write races), so zoom p50/p95/p99 can be compared
//! with ingest on vs off — zoom and ingest latencies are reported
//! separately.
//!
//! Smoke mode (`--smoke`): a deterministic correctness pass used by CI —
//! ping, the same zoom twice (second must be a cache hit with byte-identical
//! result bytes), an already-expired deadline (must be rejected without
//! running a task wave), and a stats cross-check. Exits nonzero on any
//! violation.
//!
//! High-concurrency mode (`--conns N [--active M] [--pipeline D]`): one
//! event-driven thread holds N open connections (thread-per-connection
//! clients cannot reach 10k), M of which issue zooms closed-loop with D
//! requests pipelined per connection; the other N-M connections sit idle to
//! exercise the server's parked-connection path. `--requests` is the *total*
//! request budget across all active connections in this mode. Prints a
//! `BENCH p99-under-load:` headline for the sweep in EXPERIMENTS.md §10.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tgraph_serve::json::{self, Json};
use tgraph_serve::Histogram;

struct Args {
    addr: String,
    graph: String,
    repr: String,
    clients: usize,
    requests: usize,
    distinct: usize,
    deadline_ms: Option<i64>,
    no_cache: bool,
    ingest_mix: usize,
    smoke: bool,
    conns: usize,
    active: usize,
    pipeline: usize,
    hold_ms: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            addr: "127.0.0.1:7687".to_string(),
            graph: "demo".to_string(),
            repr: "ve".to_string(),
            clients: 4,
            requests: 50,
            distinct: 8,
            deadline_ms: None,
            no_cache: false,
            ingest_mix: 0,
            smoke: false,
            conns: 0,
            active: 0,
            pipeline: 1,
            hold_ms: 0,
        }
    }
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
            "--addr" => args.addr = value("--addr")?,
            "--graph" => args.graph = value("--graph")?,
            "--repr" => args.repr = value("--repr")?,
            "--clients" => {
                args.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?
            }
            "--requests" => {
                args.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?
            }
            "--distinct" => {
                args.distinct = value("--distinct")?
                    .parse::<usize>()
                    .map_err(|e| format!("--distinct: {e}"))?
                    .max(1)
            }
            "--deadline-ms" => {
                args.deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?,
                )
            }
            "--no-cache" => args.no_cache = true,
            "--ingest-mix" => {
                args.ingest_mix = value("--ingest-mix")?
                    .parse::<usize>()
                    .map_err(|e| format!("--ingest-mix: {e}"))?;
                if args.ingest_mix > 100 {
                    return Err("--ingest-mix: must be a percentage in 0..=100".to_string());
                }
            }
            "--smoke" => args.smoke = true,
            "--conns" => {
                args.conns = value("--conns")?
                    .parse::<usize>()
                    .map_err(|e| format!("--conns: {e}"))?
                    .max(1)
            }
            "--active" => {
                args.active = value("--active")?
                    .parse::<usize>()
                    .map_err(|e| format!("--active: {e}"))?
                    .max(1)
            }
            "--pipeline" => {
                args.pipeline = value("--pipeline")?
                    .parse::<usize>()
                    .map_err(|e| format!("--pipeline: {e}"))?
                    .clamp(1, 64)
            }
            "--hold-ms" => {
                args.hold_ms = value("--hold-ms")?
                    .parse()
                    .map_err(|e| format!("--hold-ms: {e}"))?
            }
            "--help" | "-h" => {
                return Err("usage: tgraph-loadgen --addr HOST:PORT [--graph NAME] \
                            [--repr rg|ve|og] [--clients N] [--requests N] \
                            [--distinct N] [--deadline-ms N] [--no-cache] \
                            [--ingest-mix PCT] [--smoke] \
                            [--conns N [--active M] [--pipeline D] [--hold-ms T]]"
                    .to_string())
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    Ok(args)
}

/// One NDJSON connection to the server.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // Sub-millisecond cache hits drown in Nagle + delayed ACK otherwise.
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone stream: {e}"))?,
        );
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        let n = self
            .reader
            .read_line(&mut response)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        Ok(response.trim_end().to_string())
    }
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

fn result_suffix(response: &str) -> Result<&str, String> {
    response
        .find("\"result\":")
        .map(|at| &response[at..])
        .ok_or_else(|| format!("no result field in {response}"))
}

fn expect(cond: bool, what: &str, response: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(format!("smoke: expected {what}, got: {response}"))
    }
}

/// CI smoke pass: deterministic correctness checks, nonzero exit on failure.
fn run_smoke(args: &Args) -> Result<(), String> {
    let mut client = Client::connect(&args.addr)?;

    let pong = client.roundtrip(r#"{"op":"ping"}"#)?;
    expect(pong.contains("\"pong\":true"), "a pong", &pong)?;

    // Same zoom twice: miss then hit, byte-identical result bytes.
    let line = zoom_line(args, 0);
    let t0 = Instant::now();
    let first = client.roundtrip(&line)?;
    let cold = t0.elapsed();
    expect(first.contains("\"ok\":true"), "ok on first zoom", &first)?;
    expect(
        first.contains("\"cache\":\"miss\""),
        "a cache miss first",
        &first,
    )?;
    let t1 = Instant::now();
    let second = client.roundtrip(&line)?;
    let warm = t1.elapsed();
    expect(
        second.contains("\"cache\":\"hit\""),
        "a cache hit second",
        &second,
    )?;
    expect(
        result_suffix(&first)? == result_suffix(&second)?,
        "byte-identical replay",
        &second,
    )?;
    println!(
        "smoke: repeat zoom cold={}us warm={}us (speedup {:.1}x)",
        cold.as_micros(),
        warm.as_micros(),
        cold.as_secs_f64() / warm.as_secs_f64().max(1e-9),
    );

    // An already-expired deadline must be rejected without a task wave.
    let stats_before = client.roundtrip(r#"{"op":"stats"}"#)?;
    let waves_before = field_i64(&stats_before, &["runtime", "waves"])?;
    let mut expired_args = Args {
        addr: args.addr.clone(),
        graph: args.graph.clone(),
        repr: args.repr.clone(),
        ..Args::default()
    };
    expired_args.deadline_ms = Some(0);
    let rejected = client.roundtrip(&zoom_line(&expired_args, 1))?;
    expect(
        rejected.contains("\"kind\":\"deadline\""),
        "a deadline rejection",
        &rejected,
    )?;
    let stats_after = client.roundtrip(r#"{"op":"stats"}"#)?;
    let waves_after = field_i64(&stats_after, &["runtime", "waves"])?;
    expect(
        waves_after == waves_before,
        "no task wave for the expired deadline",
        &stats_after,
    )?;

    // Counter cross-check: one execution, one hit, one insertion.
    expect(
        field_i64(&stats_after, &["server", "zoom_cache_hits"])? >= 1,
        "zoom_cache_hits >= 1",
        &stats_after,
    )?;
    expect(
        field_i64(&stats_after, &["server", "zoom_executed"])? >= 1,
        "zoom_executed >= 1",
        &stats_after,
    )?;
    expect(
        field_i64(&stats_after, &["cache", "insertions"])? >= 1,
        "cache insertions >= 1",
        &stats_after,
    )?;
    // The governor's counters must be surfaced (zero is fine: whether the
    // tiny smoke workload spills depends on TGRAPH_MEM_BYTES).
    let spilled = field_i64(&stats_after, &["runtime", "bytes_spilled"])?;
    let spill_files = field_i64(&stats_after, &["runtime", "spill_files"])?;
    let budget = field_i64(&stats_after, &["runtime", "mem_budget"])?;
    field_i64(&stats_after, &["runtime", "peak_bytes"])?;
    expect(
        budget > 0 || spilled == 0,
        "no spills without a memory budget",
        &stats_after,
    )?;
    println!("smoke: spilled {spilled} bytes in {spill_files} run files (budget {budget})");
    println!("smoke: ok");
    Ok(())
}

/// Closed-loop load phase: every client thread drives one connection.
fn run_load(args: &Args) -> Result<(), String> {
    let args = Arc::new(Args {
        addr: args.addr.clone(),
        graph: args.graph.clone(),
        repr: args.repr.clone(),
        ..*args
    });
    let latency = Arc::new(Histogram::default());
    let ingest_latency = Arc::new(Histogram::default());
    let started = Instant::now();
    let mut handles = Vec::new();
    for client_id in 0..args.clients {
        let args = Arc::clone(&args);
        let latency = Arc::clone(&latency);
        let ingest_latency = Arc::clone(&ingest_latency);
        handles.push(
            std::thread::spawn(move || -> Result<(u64, u64, u64, u64), String> {
                let mut client = Client::connect(&args.addr)?;
                let mut hits = 0u64;
                let mut errors = 0u64;
                let mut ingests = 0u64;
                let mut raced = 0u64;
                // Dataset lifespan end as this client last saw it; None means
                // "unknown", resolved by an empty (always-valid) delta.
                let mut end: Option<i64> = None;
                for i in 0..args.requests {
                    // Deterministic Bresenham stride: ingests spread evenly
                    // through the run at the requested rate, offset by client
                    // id so writers do not march in lockstep.
                    let j = client_id + i;
                    if (j + 1) * args.ingest_mix / 100 > j * args.ingest_mix / 100 {
                        let line = match end {
                            None => format!(r#"{{"op":"ingest","graph":"{}"}}"#, args.graph),
                            Some(e) => format!(
                                r#"{{"op":"ingest","graph":"{}","vertices":[{{"id":{},"interval":[{},{}],"props":{{"type":"live","editCount":0}}}}]}}"#,
                                args.graph,
                                900_000 + client_id,
                                e,
                                e + 1
                            ),
                        };
                        let t0 = Instant::now();
                        let response = client.roundtrip(&line)?;
                        ingest_latency.record(t0.elapsed());
                        if response.contains("\"ok\":true") {
                            ingests += 1;
                            end = field_i64(&response, &["end"]).ok();
                        } else if response.contains("\"kind\":\"bad_delta\"") {
                            // Lost a write race: another client moved the
                            // boundary. Resync from the next empty delta.
                            end = None;
                            raced += 1;
                        } else {
                            errors += 1;
                        }
                        continue;
                    }
                    // Offset by client id so clients collide on the cache
                    // rather than marching in lockstep.
                    let variant = (client_id + i) % args.distinct;
                    let line = zoom_line(&args, variant);
                    let t0 = Instant::now();
                    let response = client.roundtrip(&line)?;
                    latency.record(t0.elapsed());
                    if response.contains("\"cache\":\"hit\"") {
                        hits += 1;
                    } else if !response.contains("\"ok\":true") {
                        errors += 1;
                    }
                }
                Ok((hits, errors, ingests, raced))
            }),
        );
    }
    let mut hits = 0u64;
    let mut errors = 0u64;
    let mut ingests = 0u64;
    let mut raced = 0u64;
    for handle in handles {
        let (h, e, n, r) = handle
            .join()
            .map_err(|_| "client thread panicked".to_string())??;
        hits += h;
        errors += e;
        ingests += n;
        raced += r;
    }
    let elapsed = started.elapsed().max(Duration::from_micros(1));
    let total = (args.clients * args.requests) as u64;
    println!(
        "loadgen: {} clients x {} requests ({} distinct plans, cache {}, ingest mix {}%)",
        args.clients,
        args.requests,
        args.distinct,
        if args.no_cache { "OFF" } else { "ON" },
        args.ingest_mix,
    );
    println!(
        "  throughput  {:>10.1} req/s  ({} requests in {:.2}s)",
        total as f64 / elapsed.as_secs_f64(),
        total,
        elapsed.as_secs_f64(),
    );
    println!(
        "  zoom        p50 {}us  p95 {}us  p99 {}us  ({} zooms)",
        latency.quantile_us(0.50),
        latency.quantile_us(0.95),
        latency.quantile_us(0.99),
        latency.count(),
    );
    if ingests + raced > 0 {
        println!(
            "  ingest      p50 {}us  p95 {}us  p99 {}us  ({} epochs committed, {} raced)",
            ingest_latency.quantile_us(0.50),
            ingest_latency.quantile_us(0.95),
            ingest_latency.quantile_us(0.99),
            ingests,
            raced,
        );
    }
    println!("  client view {hits} cache hits, {errors} errors");

    // Server-side counters for the same window.
    let mut client = Client::connect(&args.addr)?;
    let stats = client.roundtrip(r#"{"op":"stats"}"#)?;
    let g = |path: &[&str]| field_i64(&stats, path).unwrap_or(-1);
    println!(
        "  server      cache hits {} / misses {} / evictions {}; \
         executed {} (patched {}); ingests {}; admission wait p50 {}us",
        g(&["cache", "hits"]),
        g(&["cache", "misses"]),
        g(&["cache", "evictions"]),
        g(&["server", "zoom_executed"]),
        g(&["server", "zoom_patched"]),
        g(&["server", "ingests"]),
        g(&["server", "latency", "admission_wait", "p50_us"]),
    );
    println!(
        "  spilled     {} bytes in {} run files (budget {} bytes, peak {} bytes)",
        g(&["runtime", "bytes_spilled"]),
        g(&["runtime", "spill_files"]),
        g(&["runtime", "mem_budget"]),
        g(&["runtime", "peak_bytes"]),
    );
    if errors > 0 {
        return Err(format!("{errors} requests failed"));
    }
    Ok(())
}

/// One nonblocking connection in the high-concurrency phase.
struct EventConn {
    stream: TcpStream,
    /// Unparsed response bytes read so far.
    rbuf: Vec<u8>,
    /// Request bytes not yet accepted by the kernel.
    out: Vec<u8>,
    out_pos: usize,
    /// Send instants of requests whose responses are still outstanding;
    /// responses arrive in order, so front() matches the next line read.
    inflight: VecDeque<Instant>,
    sent: usize,
}

impl EventConn {
    /// Flushes buffered request bytes; returns false once the kernel
    /// pushes back and writable interest is needed.
    fn flush(&mut self) -> Result<bool, String> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err("server closed while writing".to_string()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(true)
    }
}

/// High-concurrency phase: one thread, `--conns` open connections driven by
/// the readiness poller (the same `polling` shim the server's event loop
/// uses), `--active` of them pipelining `--pipeline` zooms each until the
/// total `--requests` budget is spent. The remaining connections stay idle
/// on purpose: the server must park them for free.
fn run_conns(args: &Args) -> Result<(), String> {
    let active = match args.active {
        0 => args.conns.min(64),
        a => a.min(args.conns),
    };
    let total = args.requests.max(active);
    eprintln!(
        "loadgen: dialing {} connections ({} active, pipeline depth {})...",
        args.conns, active, args.pipeline
    );
    let dial_started = Instant::now();
    let poller = polling::Poller::new().map_err(|e| format!("poller: {e}"))?;
    let mut conns: Vec<EventConn> = Vec::with_capacity(args.conns);
    for key in 0..args.conns {
        let stream = TcpStream::connect(&args.addr)
            .map_err(|e| format!("connect #{key} to {}: {e}", args.addr))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_nonblocking(true))
            .map_err(|e| format!("socket options: {e}"))?;
        poller
            .add(&stream, polling::Event::readable(key))
            .map_err(|e| format!("register #{key}: {e}"))?;
        conns.push(EventConn {
            stream,
            rbuf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            inflight: VecDeque::new(),
            sent: 0,
        });
    }
    let dialed = dial_started.elapsed();
    eprintln!(
        "loadgen: {} connections open in {:.2}s",
        args.conns,
        dialed.as_secs_f64()
    );

    let latency = Histogram::default();
    let mut budget = total; // requests not yet written
    let mut received = 0usize;
    let mut hits = 0u64;
    let mut errors = 0u64;

    // Seed every active connection with a full pipeline window.
    let started = Instant::now();
    for (key, conn) in conns.iter_mut().enumerate().take(active) {
        for _ in 0..args.pipeline.min(budget) {
            let variant = (key + conn.sent) % args.distinct;
            conn.out
                .extend_from_slice(format!("{}\n", zoom_line(args, variant)).as_bytes());
            conn.inflight.push_back(Instant::now());
            conn.sent += 1;
            budget -= 1;
        }
        let drained = conn.flush()?;
        poller
            .modify(
                &conn.stream,
                if drained {
                    polling::Event::readable(key)
                } else {
                    polling::Event::all(key)
                },
            )
            .map_err(|e| format!("arm #{key}: {e}"))?;
    }

    let mut events = polling::Events::new();
    let mut chunk = [0u8; 16 * 1024];
    while received < total {
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_secs(30)))
            .map_err(|e| format!("wait: {e}"))?;
        if events.is_empty() {
            return Err(format!(
                "stalled: {received}/{total} responses after 30s of silence"
            ));
        }
        for event in events.iter() {
            let key = event.key;
            let conn = &mut conns[key];
            if event.writable {
                conn.flush()?;
            }
            if event.readable {
                loop {
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => return Err(format!("server closed connection #{key} mid-run")),
                        Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(e) => return Err(format!("receive #{key}: {e}")),
                    }
                }
                while let Some(nl) = conn.rbuf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = conn.rbuf.drain(..=nl).collect();
                    let sent_at = conn
                        .inflight
                        .pop_front()
                        .ok_or_else(|| format!("unsolicited response on #{key}"))?;
                    latency.record(sent_at.elapsed());
                    received += 1;
                    let text = String::from_utf8_lossy(&line);
                    if text.contains("\"cache\":\"hit\"") {
                        hits += 1;
                    } else if !text.contains("\"ok\":true") {
                        errors += 1;
                    }
                    // Closed loop: a finished request funds the next one.
                    if budget > 0 {
                        let variant = (key + conn.sent) % args.distinct;
                        conn.out.extend_from_slice(
                            format!("{}\n", zoom_line(args, variant)).as_bytes(),
                        );
                        conn.inflight.push_back(Instant::now());
                        conn.sent += 1;
                        budget -= 1;
                    }
                }
            }
            let drained = conn.flush()?;
            poller
                .modify(
                    &conn.stream,
                    if drained {
                        polling::Event::readable(key)
                    } else {
                        polling::Event::all(key)
                    },
                )
                .map_err(|e| format!("rearm #{key}: {e}"))?;
        }
    }
    let elapsed = started.elapsed().max(Duration::from_micros(1));

    println!(
        "loadgen: {} conns ({} active x pipeline {}, {} idle), {} requests, \
         {} distinct plans, cache {}",
        args.conns,
        active,
        args.pipeline,
        args.conns - active,
        total,
        args.distinct,
        if args.no_cache { "OFF" } else { "ON" },
    );
    println!(
        "  throughput  {:>10.1} req/s  ({} requests in {:.2}s; dial {:.2}s)",
        total as f64 / elapsed.as_secs_f64(),
        total,
        elapsed.as_secs_f64(),
        dialed.as_secs_f64(),
    );
    println!(
        "  zoom        p50 {}us  p95 {}us  p99 {}us",
        latency.quantile_us(0.50),
        latency.quantile_us(0.95),
        latency.quantile_us(0.99),
    );
    println!("  client view {hits} cache hits, {errors} errors");
    println!(
        "BENCH p99-under-load: {}us ({} conns, {} reqs, {:.0} req/s)",
        latency.quantile_us(0.99),
        args.conns,
        total,
        total as f64 / elapsed.as_secs_f64(),
    );

    // Server-side counters while the idle crowd is still connected.
    let mut client = Client::connect(&args.addr)?;
    let stats = client.roundtrip(r#"{"op":"stats"}"#)?;
    let g = |path: &[&str]| field_i64(&stats, path).unwrap_or(-1);
    println!(
        "  server      cache hits {} / misses {}; executed {}; \
         pipelined {} lines in {} batches; \
         backpressure pauses {}; accept errors {}",
        g(&["cache", "hits"]),
        g(&["cache", "misses"]),
        g(&["server", "zoom_executed"]),
        g(&["server", "pipelined_lines"]),
        g(&["server", "pipelined_batches"]),
        g(&["server", "backpressure_pauses"]),
        g(&["server", "accept_errors"]),
    );
    if args.hold_ms > 0 {
        // Keep the whole crowd connected but silent, so the server's
        // idle-connection CPU can be sampled externally (EXPERIMENTS §10).
        eprintln!(
            "loadgen: holding {} idle connections for {}ms",
            args.conns, args.hold_ms
        );
        std::thread::sleep(Duration::from_millis(args.hold_ms));
    }
    if errors > 0 {
        return Err(format!("{errors} requests failed"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("tgraph-loadgen: {message}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = if args.smoke {
        run_smoke(&args)
    } else if args.conns > 0 {
        run_conns(&args)
    } else {
        run_load(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("tgraph-loadgen: {message}");
            ExitCode::FAILURE
        }
    }
}
