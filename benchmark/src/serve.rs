//! `serve_miss` and `serve_hit`: the same zoom population against the real
//! `tgraph-serve` subprocess, on either side of its result cache.
//!
//! `serve_miss` replays 96 distinct zooms in seeded-shuffled rounds against
//! an 8 MiB cache and ~47 MB of distinct results, cache left on so probe,
//! insert and eviction all run. Why: the working set is larger than the
//! cache, so kernels, `serialize_tgraph` and cache churn dominate and the
//! connection layer is a few percent.
//!
//! `serve_hit` replays 8 of those zooms against a 64 MiB cache, on one
//! connection per pair of cores. Why: the working set fits, so socket read
//! -> frame split -> parse -> lookup -> response assembly -> socket write is
//! all of the work and the kernels are idle. A serve-loop change must show
//! here and a kernel change must not.

use crate::datasets::{self, DataDir, Dataset, Written};
use crate::metrics::RunOutput;
use crate::server::{stat, Client, ServerProcess, ZoomReply};
use crate::trace::Recorder;
use crate::util::{self, Rng};
use crate::RunConfig;
use std::time::Instant;
use tgraph_core::zoom::{AZoomSpec, AggSpec, Quantifier, WZoomSpec};
use tgraph_dataflow::Runtime;
use tgraph_repr::{AnyGraph, ReprKind};
use tgraph_serve::json::Json;
use tgraph_serve::{parse_request, serialize_tgraph};
use tgraph_storage::read_tgc_stats;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Miss,
    Hit,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Miss => "serve_miss",
            Kind::Hit => "serve_hit",
        }
    }

    fn cache_mb(self) -> u64 {
        match self {
            Kind::Miss => 8,
            Kind::Hit => 64,
        }
    }

    /// Dataset scale: `serve_miss` halves the graphs so that its 96-request
    /// warm round, which set-up repeats, stays near two seconds.
    fn scale(self) -> f64 {
        match self {
            Kind::Miss => 0.5,
            Kind::Hit => 1.0,
        }
    }

    /// `serve_hit` gives every client thread and the server thread that
    /// answers it a core each, at most two pairs. With two connections on
    /// two cores the four busy threads time-share, and where the scheduler
    /// happens to place them flips throughput between ~1450 and ~1900
    /// requests per second from one run to the next.
    fn connections(self) -> usize {
        match self {
            Kind::Miss => 1,
            Kind::Hit => (util::nproc() / 2).clamp(1, 2),
        }
    }
}

const GRAPHS: [Dataset; 2] = [Dataset::Wiki, Dataset::Ngrams];
const PRELOAD: &str = "wiki:ve,wiki:og,wiki:ogc,wiki:rg,ngrams:ve,ngrams:og,ngrams:ogc";

/// One zoom of the population, spelled as wire JSON.
#[derive(Clone, Debug)]
pub struct Entry {
    /// `<graph>.<range>.<shape>.<repr>`, unique in the population.
    pub label: String,
    /// The request line, newline included.
    pub line: String,
    graph: &'static str,
    range: Option<(i64, i64)>,
    steps: String,
    pub auto: bool,
}

impl Entry {
    /// The same query with another `repr` and extra top-level fields.
    pub fn variant(&self, repr: &str, extra: &str) -> String {
        request_line(self.graph, repr, self.range, &self.steps, extra)
    }
}

pub fn request_line(
    graph: &str,
    repr: &str,
    range: Option<(i64, i64)>,
    steps: &str,
    extra: &str,
) -> String {
    let range = range.map_or(String::new(), |(a, b)| format!(",\"range\":[{a},{b}]"));
    format!("{{\"op\":\"zoom\",\"graph\":\"{graph}\",\"repr\":\"{repr}\"{range}{extra},\"steps\":[{steps}]}}\n")
}

pub fn azoom_by(key: &str, new_type: &str) -> String {
    format!(
        "{{\"azoom\":{{\"by\":\"{key}\",\"new_type\":\"{new_type}\",\"aggs\":[{{\"output\":\"members\",\"fn\":\"count\"}}]}}}}"
    )
}

fn azoom_by_type(new_type: &str) -> String {
    format!(
        "{{\"azoom\":{{\"by_type\":true,\"new_type\":\"{new_type}\",\"aggs\":[{{\"output\":\"members\",\"fn\":\"count\"}}]}}}}"
    )
}

fn wzoom(points: u32, q: &str) -> String {
    wzoom_over(&format!("{{\"points\":{points}}}"), q)
}

/// A wZoom step over any window spelled as wire JSON.
pub fn wzoom_over(window: &str, q: &str) -> String {
    format!("{{\"wzoom\":{{\"window\":{window},\"vq\":\"{q}\",\"eq\":\"{q}\"}}}}")
}

/// The 96 requests: 76 explicit VE/OG/OGC entries over two graphs and two
/// ranges, 8 RG entries on `wiki`, and 12 `"repr":"auto"` entries whose
/// shapes (graph, range, steps) no explicit entry shares, so the optimizer's
/// adaptive table never sees them and its choice stays static.
pub fn population() -> Vec<Entry> {
    let mut entries = Vec::new();
    for ds in GRAPHS {
        let graph = ds.name();
        let lifespan = match ds {
            Dataset::Wiki => (0, i64::from(datasets::WIKI_MONTHS)),
            _ => (0, i64::from(datasets::NGRAMS_YEARS)),
        };
        let half = Some((lifespan.1 / 2, lifespan.1));
        let a1 = |t: &str| azoom_by(ds.natural_key(), t);
        // The kernel-heavy aZoom: few groups, many members each.
        let a2 = |t: &str| match ds {
            Dataset::Wiki => azoom_by("editCount", t),
            _ => azoom_by_type(t),
        };
        let mut push =
            |range: Option<(i64, i64)>, shape: &str, plan: &str, steps: String, auto: bool| {
                let repr = plan.split('-').next().expect("plan names its first repr");
                let tag = if range.is_some() { "half" } else { "full" };
                entries.push(Entry {
                    label: format!("{graph}.{tag}.{shape}.{plan}"),
                    line: request_line(graph, repr, range, &steps, ""),
                    graph,
                    range,
                    steps,
                    auto,
                });
            };
        let chain = |first: &str, second: &str| {
            if first == second {
                format!("{},{}", a1("group"), wzoom(6, "exists"))
            } else {
                format!(
                    "{},{{\"switch\":\"{second}\"}},{}",
                    a1("group"),
                    wzoom(6, "exists")
                )
            }
        };
        for repr in ["ve", "og"] {
            let other = if repr == "ve" { "og" } else { "ve" };
            push(None, "az-key", repr, a1("group"), false);
            push(None, "az-few", repr, a2("group"), false);
            push(None, "chain", repr, chain(repr, repr), false);
            push(
                None,
                "chain",
                &format!("{repr}-{other}"),
                chain(repr, other),
                false,
            );
            push(half, "az-key", repr, a1("group"), false);
            push(half, "az-few", repr, a2("group"), false);
        }
        push(half, "chain", "ve", chain("ve", "ve"), false);
        push(half, "chain", "ve-og", chain("ve", "og"), false);
        for repr in ["ve", "og", "ogc"] {
            for (n, q) in [
                (3, "exists"),
                (6, "exists"),
                (12, "exists"),
                (3, "all"),
                (6, "all"),
                (12, "all"),
            ] {
                push(None, &format!("wz{n}-{q}"), repr, wzoom(n, q), false);
            }
            push(half, "wz6-exists", repr, wzoom(6, "exists"), false);
            push(half, "wz12-all", repr, wzoom(12, "all"), false);
        }
        if ds == Dataset::Wiki {
            push(None, "az-key", "rg", a1("group"), false);
            push(None, "az-few", "rg", a2("group"), false);
            push(None, "chain", "rg", chain("rg", "rg"), false);
            for (n, q) in [(3, "exists"), (6, "exists"), (12, "exists"), (6, "all")] {
                push(None, &format!("wz{n}-{q}"), "rg", wzoom(n, q), false);
            }
            push(half, "az-few", "rg", a2("group"), false);
        }
        push(None, "wz4-exists", "auto", wzoom(4, "exists"), true);
        push(None, "wz8-all", "auto", wzoom(8, "all"), true);
        push(None, "az-key-cluster", "auto", a1("cluster"), true);
        push(
            None,
            "chain4",
            "auto",
            format!("{},{}", a1("group"), wzoom(4, "exists")),
            true,
        );
        push(half, "wz4-exists", "auto", wzoom(4, "exists"), true);
        push(half, "az-few-cluster", "auto", a2("cluster"), true);
    }
    entries
}

/// The 8 entries `serve_hit` replays: large and small bodies, every
/// representation family, a ranged and an auto request.
const HIT_LABELS: [&str; 8] = [
    "wiki.full.az-key.ve",
    "wiki.full.az-few.og",
    "wiki.full.wz6-exists.ogc",
    "wiki.full.chain.ve-og",
    "ngrams.full.az-key.og",
    "ngrams.full.wz12-all.ve",
    "wiki.half.wz6-exists.ve",
    "wiki.full.wz4-exists.auto",
];

/// A `serve_hit` round is this many replays of the 8 entries on one
/// connection, shuffled together (200 requests, ~0.2 s).
const HIT_REPLAYS_PER_ROUND: usize = 25;

struct World {
    dir: DataDir,
    server: ServerProcess,
    clients: Vec<Client>,
    written: Written,
    entries: Vec<Entry>,
    /// Hash of each entry's `result` bytes in the warm round.
    golden: Vec<u64>,
    disk_bytes: u64,
    bytes_per_row: [(&'static str, f64); 3],
}

fn set_up(cfg: &RunConfig, kind: Kind) -> Result<World, String> {
    let dir = DataDir::create(&cfg.out_dir, kind.name())?;
    let data = dir.path.join("data");
    let written = datasets::write_all(&data, &GRAPHS, cfg.seed, cfg.scale() * kind.scale())?;
    let (disk_bytes, _) = util::dir_usage(&data);
    let bytes_per_row = datasets::bytes_per_row(&data, &written);
    let server = ServerProcess::spawn(
        &cfg.serve_bin,
        &data,
        &dir.path.join("server.stderr"),
        cfg.workers,
        kind.cache_mb(),
        PRELOAD,
    )?;
    let mut clients = (0..kind.connections())
        .map(|_| Client::connect(&server.addr))
        .collect::<Result<Vec<_>, _>>()?;
    let all = population();
    let entries: Vec<Entry> = match kind {
        Kind::Miss => all,
        Kind::Hit => HIT_LABELS
            .iter()
            .map(|l| {
                all.iter()
                    .find(|e| e.label == *l)
                    .cloned()
                    .ok_or_else(|| format!("no population entry {l}"))
            })
            .collect::<Result<_, _>>()?,
    };
    // The warm round: loads the pool residents, fixes each golden answer
    // and, for `serve_hit`, fills the cache.
    let golden = entries
        .iter()
        .map(|e| {
            clients[0]
                .zoom(&e.line)
                .map(|r| r.result_hash)
                .map_err(|err| format!("warm {}: {err}", e.label))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(World {
        dir,
        server,
        clients,
        written,
        entries,
        golden,
        disk_bytes,
        bytes_per_row,
    })
}

/// What one client thread observed.
#[derive(Default)]
struct Observed {
    replies: Vec<(usize, ZoomReply)>,
    mismatches: Vec<String>,
    rounds: util::Rounds,
}

/// Replays `order` (indices into `entries`) as one round, checking every
/// body against its golden hash.
fn replay(
    client: &mut Client,
    entries: &[Entry],
    golden: &[u64],
    order: &[usize],
    seen: &mut Observed,
) -> Result<(), String> {
    let (started, first) = (Instant::now(), seen.replies.len());
    for &i in order {
        let reply = client
            .zoom(&entries[i].line)
            .map_err(|e| format!("{}: {e}", entries[i].label))?;
        if reply.result_hash != golden[i] {
            seen.mismatches.push(format!(
                "{} ({}) differs from its warm-round answer",
                entries[i].label, reply.header.cache
            ));
        }
        seen.replies.push((i, reply));
    }
    let latencies = seen.replies[first..]
        .iter()
        .map(|(_, r)| r.wall.as_secs_f64() * 1e3)
        .collect();
    seen.rounds
        .push(latencies, order.len(), started.elapsed().as_secs_f64());
    Ok(())
}

pub fn record_spans(rec: &mut Recorder, root: u64, epoch: Instant, request: u64, r: &ZoomReply) {
    let start = r.start.duration_since(epoch).as_nanos() as u64;
    let wall = r.wall.as_nanos() as u64;
    let total = (r.header.total_us * 1_000).min(wall);
    let exec = (r.header.exec_us * 1_000).min(total);
    // The request span's self time is the connection layer: client wall
    // minus the server's own `total_us`, which sits somewhere inside it.
    let conn = rec.push(root, request, "serve.conn_us_p50", start, start + wall);
    let inner = start + (wall - total) / 2;
    if r.header.cache == "hit" {
        rec.push(
            conn,
            request,
            "serve.hit_total_us_p50",
            inner,
            inner + total,
        );
    } else {
        rec.push(
            conn,
            request,
            "serve.overhead_us_p50",
            inner,
            inner + total - exec,
        );
        rec.push(
            conn,
            request,
            "serve.exec_us_p50",
            inner + total - exec,
            inner + total,
        );
    }
}

fn p50(v: Vec<f64>) -> f64 {
    util::median(&v)
}

/// Per-layer metrics every serve workload derives from its replies and a
/// `stats` delta.
pub fn serve_layer_metrics(
    replies: &[&ZoomReply],
    before: &Json,
    after: &Json,
    wall_s: f64,
    server_cpu_ms: f64,
    out: &mut Vec<(String, f64)>,
) {
    let us = |r: &ZoomReply| r.wall.as_secs_f64() * 1e6;
    let executed: Vec<&&ZoomReply> = replies.iter().filter(|r| r.header.cache != "hit").collect();
    let hits: Vec<&&ZoomReply> = replies.iter().filter(|r| r.header.cache == "hit").collect();
    let mut add = |name: &str, v: f64| out.push((name.to_string(), v));
    add(
        "serve.exec_us_p50",
        p50(executed.iter().map(|r| r.header.exec_us as f64).collect()),
    );
    add(
        "serve.overhead_us_p50",
        p50(executed
            .iter()
            .map(|r| r.header.total_us.saturating_sub(r.header.exec_us) as f64)
            .collect()),
    );
    add(
        "serve.hit_total_us_p50",
        p50(hits.iter().map(|r| r.header.total_us as f64).collect()),
    );
    add(
        "serve.conn_us_p50",
        p50(replies
            .iter()
            .map(|r| (us(r) - r.header.total_us as f64).max(0.0))
            .collect()),
    );
    add(
        "serve.response_bytes_p50",
        p50(replies.iter().map(|r| r.response_bytes as f64).collect()),
    );
    let bytes: f64 = replies.iter().map(|r| r.response_bytes as f64).sum();
    add("serve.mb_out_per_s", bytes / 1e6 / wall_s);
    let delta =
        |section: &str, field: &str| stat(after, section, field) - stat(before, section, field);
    let (cache_hits, cache_misses) = (delta("cache", "hits"), delta("cache", "misses"));
    add(
        "serve.cache_hit_share",
        cache_hits / (cache_hits + cache_misses).max(1.0),
    );
    add("serve.cache_evictions", delta("cache", "evictions"));
    add("serve.cache_invalidations", delta("cache", "invalidations"));
    add(
        "serve.admission_wait_us_mean",
        delta("admission", "wait_us_total") / delta("admission", "admitted").max(1.0),
    );
    add(
        "serve.rejected",
        delta("admission", "rejected_queue_full")
            + delta("admission", "rejected_deadline")
            + delta("server", "zoom_rejected"),
    );
    add("serve.cpu_share", server_cpu_ms / 1e3 / wall_s);
    add("storage.pool_loads", delta("pool", "loads"));
    add(
        "storage.pool_epoch_upgrades",
        delta("pool", "epoch_upgrades"),
    );
    let walls = util::sorted(replies.iter().map(|r| us(r) / 1e3).collect());
    if !walls.is_empty() {
        add("serve.zoom_p99_ms", util::percentile(&walls, 0.99));
    }
}

/// `dataflow.*` from a `stats` delta.
pub fn dataflow_from_stats(before: &Json, after: &Json, out: &mut Vec<(String, f64)>) {
    let delta = |field: &str| stat(after, "runtime", field) - stat(before, "runtime", field);
    for c in [
        "waves",
        "tasks",
        "shuffles",
        "shuffles_elided",
        "shuffled_records",
        "shuffled_bytes",
    ] {
        out.push((format!("dataflow.{c}"), delta(c)));
    }
    out.push((
        "dataflow.peak_bytes".into(),
        stat(after, "runtime", "peak_bytes"),
    ));
    let (wave_us, max_task_us) = (delta("wave_us"), delta("max_task_us"));
    out.push(("dataflow.wave_us".into(), wave_us));
    out.push(("dataflow.max_task_us".into(), max_task_us));
    out.push((
        "dataflow.straggler_ratio".into(),
        max_task_us / wave_us.max(1.0),
    ));
}

/// In-process probes of the layers a miss crosses outside the kernels:
/// request parsing, chunk-statistics reads, result serialization.
fn layer_probes(world: &World, cfg: &RunConfig, kind: Kind, out: &mut Vec<(String, f64)>) {
    // Median over passes: the first pass pays for cold code and allocator.
    let passes: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            for e in &world.entries {
                std::hint::black_box(parse_request(e.line.trim()).is_ok());
            }
            t.elapsed().as_secs_f64() * 1e6 / world.entries.len() as f64
        })
        .collect();
    out.push(("serve.parse_us".into(), util::median(&passes)));

    let stats_path = world.dir.path.join("data").join("wiki.temporal.tgc");
    let reads: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(read_tgc_stats(&stats_path).is_ok());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.push(("storage.stats_read_us".into(), util::median(&reads)));

    let rt = Runtime::with_partitions(cfg.workers, 4);
    let wiki = &Dataset::Wiki.generate(cfg.seed, cfg.scale() * kind.scale());
    let by_name = AZoomSpec::by_property("name", "group", vec![AggSpec::count("members")]);
    let by_count = AZoomSpec::by_property("editCount", "group", vec![AggSpec::count("members")]);
    let window = WZoomSpec::points(6, Quantifier::Exists, Quantifier::Exists);
    let ve = AnyGraph::load(&rt, wiki, ReprKind::Ve);
    let results = [
        ve.azoom(&rt, &by_name).to_tgraph(&rt),
        ve.azoom(&rt, &by_count).to_tgraph(&rt),
        ve.wzoom(&rt, &window).to_tgraph(&rt),
        ve.azoom(&rt, &by_name).wzoom(&rt, &window).to_tgraph(&rt),
    ];
    let (mut ms, mut bytes, mut seconds) = (Vec::new(), 0usize, 0.0);
    for _ in 0..3 {
        for g in &results {
            let t = Instant::now();
            let text = serialize_tgraph(g);
            let dt = t.elapsed().as_secs_f64();
            bytes += std::hint::black_box(text).len();
            seconds += dt;
            ms.push(dt * 1e3);
        }
    }
    out.push(("serve.serialize_ms".into(), util::median(&ms)));
    out.push((
        "serve.serialize_mb_per_s".into(),
        bytes as f64 / 1e6 / seconds.max(1e-9),
    ));
}

/// The optimizer probes of traced `serve_miss`, run after the measured
/// phase because explicit traffic of an auto entry's shape trains the
/// adaptive table.
fn optimizer_probes(world: &mut World, out: &mut Vec<(String, f64)>) -> Result<(), String> {
    let client = &mut world.clients[0];
    let autos: Vec<&Entry> = world.entries.iter().filter(|e| e.auto).collect();
    let (mut auto_us, mut pinned_us, mut chosen) = (Vec::new(), Vec::new(), Vec::new());
    for e in &autos {
        // Second send of each is a hit: the pair differs only in whether the
        // optimizer resolves the representation.
        client.zoom(&e.line)?;
        let hit = client.zoom(&e.line)?;
        let repr = hit
            .header
            .chosen
            .clone()
            .ok_or_else(|| format!("{}: no optimizer.chosen", e.label))?;
        auto_us.push(hit.header.total_us as f64);
        let pinned = e.variant(&repr, "");
        client.zoom(&pinned)?;
        pinned_us.push(client.zoom(&pinned)?.header.total_us as f64);
        chosen.push(repr);
    }
    out.push((
        "optimize.auto_overhead_us".into(),
        util::median(&auto_us) - util::median(&pinned_us),
    ));
    let mut agree = 0;
    for (e, chosen) in autos.iter().zip(&chosen) {
        let mut best: Option<(u64, &str)> = None;
        for repr in ["ve", "og", "ogc", "rg"] {
            // OGC cannot host an aZoom; the server refuses it, which is not
            // a failure of this probe.
            if let Ok(r) = client.zoom(&e.variant(repr, ",\"no_cache\":true")) {
                if best.is_none_or(|(us, _)| r.header.exec_us < us) {
                    best = Some((r.header.exec_us, repr));
                }
            }
        }
        agree += usize::from(best.map(|(_, r)| r) == Some(chosen.as_str()));
    }
    out.push((
        "optimize.static_agree_share".into(),
        agree as f64 / autos.len().max(1) as f64,
    ));
    Ok(())
}

pub fn run(cfg: &RunConfig, kind: Kind) -> Result<RunOutput, String> {
    let (mut world, setup_s) = crate::repeat_set_up(cfg.set_ups(), || set_up(cfg, kind))?;
    let connections = world.clients.len();
    let mut notes = vec![format!(
        "{}: closed loop, {connections} connection(s), one client thread each, {} distinct requests, server --workers {} --partitions 4 --max-inflight 2 --max-queue 64 --cache-mb {}",
        kind.name(),
        world.entries.len(),
        cfg.workers,
        kind.cache_mb()
    )];

    let epoch = Instant::now();
    let before = world.clients[0].call("{\"op\":\"stats\"}\n")?.0;
    let cpu0 = util::cpu_ms(world.server.pid()).unwrap_or(0.0);
    let started = Instant::now();
    let mut first_round_stats = None;
    let (entries, golden) = (&world.entries, &world.golden);
    let mut observed: Vec<Observed> = match kind {
        Kind::Miss => {
            let mut rng = Rng::new(cfg.seed ^ 0x005e_127e);
            let mut order: Vec<usize> = (0..entries.len()).collect();
            let mut seen = Observed::default();
            let mut rounds = 0;
            while rounds < cfg.min_rounds() || started.elapsed().as_secs_f64() < cfg.seconds {
                rng.shuffle(&mut order);
                replay(&mut world.clients[0], entries, golden, &order, &mut seen)?;
                rounds += 1;
                if rounds == 1 && cfg.trace {
                    // Exact-count metrics are taken over this fixed op count.
                    first_round_stats = Some(world.clients[0].call("{\"op\":\"stats\"}\n")?.0);
                }
            }
            let distinct_mb: f64 = seen.replies[..entries.len()]
                .iter()
                .map(|(_, r)| r.response_bytes as f64 / 1e6)
                .sum();
            notes.push(format!(
                "{rounds} shuffled rounds of {}; {distinct_mb:.1} MB of distinct responses against the {} MiB cache",
                entries.len(),
                kind.cache_mb()
            ));
            vec![seen]
        }
        Kind::Hit => {
            let (seconds, min_rounds, seed) = (cfg.seconds, cfg.min_rounds(), cfg.seed);
            std::thread::scope(|scope| {
                let handles: Vec<_> = world
                    .clients
                    .iter_mut()
                    .enumerate()
                    .map(|(t, client)| {
                        scope.spawn(move || {
                            // Every round is a fresh seeded shuffle of 25 replays:
                            // a fixed order would let two connections fall
                            // into step and stay there for the whole run.
                            let mut rng = Rng::new(seed ^ (0x417 + t as u64));
                            let mut order: Vec<usize> = (0..entries.len())
                                .cycle()
                                .take(entries.len() * HIT_REPLAYS_PER_ROUND)
                                .collect();
                            let mut seen = Observed::default();
                            let mut rounds = 0;
                            while rounds < min_rounds || started.elapsed().as_secs_f64() < seconds {
                                rng.shuffle(&mut order);
                                replay(client, entries, golden, &order, &mut seen)?;
                                rounds += 1;
                            }
                            Ok::<_, String>(seen)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
                    .collect::<Result<Vec<_>, String>>()
            })?
        }
    };
    let wall_s = started.elapsed().as_secs_f64();
    let server_cpu_ms = util::cpu_ms(world.server.pid()).unwrap_or(0.0) - cpu0;
    let rss_mb = util::peak_rss_mb(world.server.pid()).unwrap_or(0.0);
    let after = world.clients[0].call("{\"op\":\"stats\"}\n")?.0;
    world.server.health()?;

    let attempted: u64 = observed.iter().map(|o| o.replies.len() as u64).sum();
    let failed: u64 = observed.iter().map(|o| o.mismatches.len() as u64).sum();
    for m in observed.iter().flat_map(|o| &o.mismatches).take(10) {
        notes.push(format!("mismatch: {m}"));
    }
    // Connections run side by side: throughput adds up over them, latency
    // percentiles are medians over every connection's rounds.
    let ops_per_s: f64 = observed.iter().map(|o| o.rounds.ops_per_s()).sum();
    let mut rounds = util::Rounds::default();
    let mut replies: Vec<&ZoomReply> = Vec::new();
    for o in observed.iter_mut() {
        rounds.absorb(std::mem::take(&mut o.rounds));
    }
    for o in &observed {
        replies.extend(o.replies.iter().map(|(_, r)| r));
    }
    notes.push(rounds.describe("zoom latency"));

    let mut metrics: Vec<(String, f64)> = Vec::new();
    if !cfg.trace {
        metrics.push(("setup_s".into(), setup_s));
        metrics.push(("ops_per_s".into(), ops_per_s));
        metrics.push(("peak_rss_mb".into(), rss_mb));
        metrics.push((
            "disk_bytes_per_row".into(),
            world.disk_bytes as f64 / world.written.rows.max(1) as f64,
        ));
    } else {
        metrics.push(("datagen.generate_s".into(), world.written.generate_s));
        metrics.push(("storage.write_dataset_s".into(), world.written.write_s));
        for (f, v) in world.bytes_per_row {
            metrics.push((format!("storage.bytes_per_row.{f}"), v));
        }
        serve_layer_metrics(
            &replies,
            &before,
            &after,
            wall_s,
            server_cpu_ms,
            &mut metrics,
        );
        dataflow_from_stats(
            &before,
            first_round_stats.as_ref().unwrap_or(&after),
            &mut metrics,
        );
        let mut rec = Recorder::new(epoch);
        let run_start = started.duration_since(epoch).as_nanos() as u64;
        for (t, seen) in observed.iter().enumerate() {
            // One root per connection: a connection's requests never overlap,
            // so each root's self time is its client's own work between
            // requests.
            let root = rec.push(
                0,
                0,
                "trace.run",
                run_start,
                run_start + (wall_s * 1e9) as u64,
            );
            if t == 0 {
                for c in ["hits", "misses", "evictions"] {
                    rec.counter(
                        root,
                        &format!("cache_{c}"),
                        stat(&after, "cache", c) - stat(&before, "cache", c),
                    );
                }
            }
            for (n, (_, reply)) in seen.replies.iter().enumerate() {
                record_spans(
                    &mut rec,
                    root,
                    epoch,
                    ((t as u64) << 32) + n as u64 + 1,
                    reply,
                );
            }
        }
        metrics.push(("trace.ops_per_s".into(), ops_per_s));
        let mut by_entry: Vec<Vec<f64>> = vec![Vec::new(); world.entries.len()];
        for (i, r) in observed.iter().flat_map(|o| &o.replies) {
            by_entry[*i].push(r.wall.as_secs_f64() * 1e3);
        }
        metrics.push((
            "trace.zoom_geomean_ms".into(),
            util::geomean_of_medians(&by_entry),
        ));
        metrics.push(("trace.zoom_p50_ms".into(), rounds.percentile(0.5)));
        metrics.push(("trace.zoom_p95_ms".into(), rounds.percentile(0.95)));
        metrics.push((
            "trace.cpu_ms_per_op".into(),
            server_cpu_ms / attempted.max(1) as f64,
        ));
        metrics.push(("trace.self_time_share".into(), rec.self_time_share()));
        layer_probes(&world, cfg, kind, &mut metrics);
        if kind == Kind::Miss {
            optimizer_probes(&mut world, &mut metrics)?;
            world.server.health()?;
        }
        rec.write(&cfg.trace_path(), kind.name())
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

    #[test]
    fn population_is_96_distinct_valid_zooms() {
        let p = population();
        assert_eq!(p.len(), 96);
        assert_eq!(p.iter().filter(|e| e.auto).count(), 12);
        assert_eq!(p.iter().filter(|e| e.label.ends_with(".rg")).count(), 8);
        let mut lines = std::collections::HashSet::new();
        let mut labels = std::collections::HashSet::new();
        for e in &p {
            assert!(
                labels.insert(e.label.clone()),
                "duplicate label {}",
                e.label
            );
            assert!(
                lines.insert(e.line.clone()),
                "duplicate request {}",
                e.label
            );
            assert!(parse_request(e.line.trim()).is_ok(), "{}", e.label);
            assert_eq!(e.line.contains("\"repr\":\"auto\""), e.auto, "{}", e.label);
        }
    }

    #[test]
    fn auto_shapes_are_shared_by_no_explicit_entry() {
        let p = population();
        let shape = |e: &Entry| (e.graph, e.range, e.steps.clone());
        for a in p.iter().filter(|e| e.auto) {
            assert!(
                p.iter().filter(|e| !e.auto).all(|e| shape(e) != shape(a)),
                "{} shares its shape",
                a.label
            );
        }
    }

    #[test]
    fn hit_entries_exist_in_the_population() {
        let p = population();
        for l in HIT_LABELS {
            assert!(p.iter().any(|e| e.label == l), "{l}");
        }
    }
}
