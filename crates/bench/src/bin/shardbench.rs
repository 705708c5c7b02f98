//! `shardbench` — sharding-strategy microbenchmark: how much shuffle
//! traffic crosses shard boundaries under different data placements, on the
//! Figure-1 workload (group students by school and count) scaled up.
//!
//! ```text
//! shardbench                      # full run: 1/2/4 shards × 3 placements
//! shardbench --rows 200000 --schools 5000
//! shardbench --smoke              # CI: small, correctness-only, fast
//! ```
//!
//! Reproduces the shape of the RDF-over-Spark partitioning study (see
//! PAPERS.md): the exchange is fixed — hash-bucketed, peer-to-peer TCP — and
//! the *placement* of the input rows is the experimental variable:
//!
//! * **scatter** — rows land wherever the loader wrote them (round-robin),
//!   oblivious to the grouping key. The expected cross-shard fraction of
//!   shuffle traffic is (shards−1)/shards.
//! * **range** — vertex-range (subject-locality) sharding: each partition
//!   holds a contiguous range of school ids, so every school's rows are
//!   co-resident. Locality alone does **not** reduce exchange traffic: the
//!   engine's hash bucket map is uncorrelated with the range map, so the
//!   rows still move.
//! * **hash** — rows pre-placed in the partition `bucket_of(school)` routes
//!   them to. Placement agrees with the exchange's bucket→shard map, so the
//!   grouping shuffle is entirely shard-local: zero cross-shard frames.
//!
//! Every (placement, shard-count) cell must produce the identical sorted
//! aggregate, and within a placement the unsorted collect must be
//! byte-identical across 1/2/4 shards (the exchange invisibility contract).
//! Exits nonzero on any violation, so CI can run `--smoke` directly.

use std::process::ExitCode;
use std::time::{Duration, Instant};
use tgraph_dataflow::{
    bucket_of, shuffle, Dataset, KeyedDataset, Runtime, ShardLayout, TcpExchange,
};

struct Args {
    /// Total enrollment rows (student → school edges).
    rows: usize,
    /// Distinct schools (the group-by cardinality).
    schools: u64,
    /// Partitions per runtime (shards split these evenly).
    parts: usize,
    /// Small, correctness-only run for CI.
    smoke: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            rows: 200_000,
            schools: 5_000,
            parts: 8,
            smoke: false,
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--rows" => args.rows = val("--rows")?.parse().map_err(|e| format!("--rows: {e}"))?,
            "--schools" => {
                args.schools = val("--schools")?
                    .parse()
                    .map_err(|e| format!("--schools: {e}"))?
            }
            "--parts" => {
                args.parts = val("--parts")?
                    .parse()
                    .map_err(|e| format!("--parts: {e}"))?
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.smoke {
        args.rows = args.rows.min(20_000);
        args.schools = args.schools.min(500);
    }
    if args.rows == 0 || args.schools == 0 || args.parts < 4 {
        return Err("--rows/--schools must be positive and --parts >= 4".to_string());
    }
    Ok(args)
}

#[derive(Clone, Copy, PartialEq)]
enum Placement {
    Scatter,
    Range,
    Hash,
}

impl Placement {
    fn name(self) -> &'static str {
        match self {
            Placement::Scatter => "scatter",
            Placement::Range => "range",
            Placement::Hash => "hash",
        }
    }
}

/// The Figure-1 enrollment rows, deterministically generated: row `i` is
/// student `i` attending a school drawn by an LCG. The same rows go into
/// every placement; only their partition assignment differs.
fn enrollments(rows: usize, schools: u64) -> Vec<(u64, u64)> {
    let mut state: u64 = 0x5DEE_CE66_D1A4_F729;
    (0..rows as u64)
        .map(|student| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) % schools, student)
        })
        .collect()
}

/// Distributes the rows into `parts` partitions under a placement strategy.
fn place(rows: &[(u64, u64)], parts: usize, placement: Placement) -> Vec<Vec<(u64, u64)>> {
    let mut out: Vec<Vec<(u64, u64)>> = (0..parts).map(|_| Vec::new()).collect();
    match placement {
        Placement::Scatter => {
            for (i, row) in rows.iter().enumerate() {
                out[i % parts].push(*row);
            }
        }
        Placement::Range => {
            // Contiguous school-id ranges per partition: subject-locality.
            let mut sorted = rows.to_vec();
            sorted.sort_unstable();
            let max_school = sorted.last().map_or(0, |r| r.0) + 1;
            let span = max_school.div_ceil(parts as u64).max(1);
            for row in sorted {
                out[((row.0 / span) as usize).min(parts - 1)].push(row);
            }
        }
        Placement::Hash => {
            for row in rows {
                out[bucket_of(&row.0, parts)].push(*row);
            }
        }
    }
    out
}

struct Cell {
    /// Unsorted per-school counts, exactly as collected (byte-identity
    /// across shard counts is asserted per placement).
    collected: Vec<(u64, u64)>,
    secs: f64,
    /// Cross-shard bytes moved by the grouping shuffle — the quantity the
    /// placement strategy controls.
    shuffle_bytes: u64,
    /// Cross-shard bytes moved assembling the result (collect all-gather) —
    /// invariant across placements; reported for context.
    gather_bytes: u64,
    frames_sent: u64,
    exchange_stalls: u64,
}

/// The workload proper: shuffle by school, count students per school.
/// Returns the collected counts plus the exchange bytes attributable to the
/// shuffle alone (the collect's all-gather is measured separately: result
/// assembly crosses shards regardless of placement).
fn count_per_school(rt: &Runtime, parts: Vec<Vec<(u64, u64)>>) -> (Vec<(u64, u64)>, u64, u64) {
    let before = rt.stats();
    let input = Dataset::from_partitions(parts);
    let grouped = shuffle(rt, &input.map(|&(school, _)| (school, 1u64)));
    let shuffle_bytes = rt.stats().since(&before).bytes_exchanged;
    let collected = grouped.reduce_by_key(rt, |a, b| a + b).collect(rt);
    let total = rt.stats().since(&before).bytes_exchanged;
    (collected, shuffle_bytes, total - shuffle_bytes)
}

/// Runs the workload on `shards` cooperating runtimes joined by TcpExchange
/// over localhost (a single shard runs the loopback frame codec so frame
/// counts stay comparable). Returns shard 0's cell; asserts shard agreement.
fn run(data: &[(u64, u64)], parts: usize, shards: usize, placement: Placement) -> Cell {
    let placed = place(data, parts, placement);
    if shards == 1 {
        let rt = Runtime::with_partitions(2, parts);
        rt.set_exchange(std::sync::Arc::new(tgraph_dataflow::Loopback::new(
            rt.exchange_counters(),
        )));
        let start = Instant::now();
        let (collected, _, _) = count_per_school(&rt, placed);
        let secs = start.elapsed().as_secs_f64();
        let s = rt.stats();
        return Cell {
            collected,
            secs,
            // Loopback moves every frame through the codec but nothing
            // crosses a shard boundary, which is what the 1-shard row says.
            shuffle_bytes: 0,
            gather_bytes: 0,
            frames_sent: s.frames_sent,
            exchange_stalls: s.exchange_stalls,
        };
    }
    let mut listeners = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..shards {
        let (l, a) = TcpExchange::bind("127.0.0.1:0").expect("bind");
        listeners.push(l);
        addrs.push(a.to_string());
    }
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(s, listener)| {
            let addrs = addrs.clone();
            let placed = placed.clone();
            std::thread::spawn(move || {
                let rt = Runtime::with_partitions(2, parts);
                let ex = TcpExchange::start(
                    listener,
                    ShardLayout::new(s, shards),
                    addrs,
                    rt.exchange_counters(),
                    Duration::from_secs(30),
                )
                .expect("start exchange");
                rt.set_exchange(ex);
                let start = Instant::now();
                let (collected, shuffle_bytes, gather_bytes) = count_per_school(&rt, placed);
                let secs = start.elapsed().as_secs_f64();
                let st = rt.stats();
                Cell {
                    collected,
                    secs,
                    shuffle_bytes,
                    gather_bytes,
                    frames_sent: st.frames_sent,
                    exchange_stalls: st.exchange_stalls,
                }
            })
        })
        .collect();
    let mut cells: Vec<Cell> = handles
        .into_iter()
        .map(|h| h.join().expect("shard thread"))
        .collect();
    for (s, cell) in cells.iter().enumerate() {
        assert_eq!(
            cell.collected,
            cells[0].collected,
            "shard {s} disagrees with shard 0 ({} placement, {shards} shards)",
            placement.name()
        );
    }
    // Traffic is reported deployment-wide: sum over shards.
    let mut total = cells.remove(0);
    for c in cells {
        total.shuffle_bytes += c.shuffle_bytes;
        total.gather_bytes += c.gather_bytes;
        total.frames_sent += c.frames_sent;
        total.exchange_stalls += c.exchange_stalls;
        total.secs = total.secs.max(c.secs);
    }
    total
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("shardbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let data = enrollments(args.rows, args.schools);
    println!(
        "shardbench: {} rows, {} schools, {} partitions{}",
        args.rows,
        args.schools,
        args.parts,
        if args.smoke { ", smoke mode" } else { "" }
    );
    println!(
        "  placement | shards | shuffle x-shard B | gather x-shard B | frames | stalls |   time"
    );

    let mut failures: Vec<String> = Vec::new();
    let mut baseline: Option<Vec<(u64, u64)>> = None;
    for placement in [Placement::Scatter, Placement::Range, Placement::Hash] {
        let mut per_shards: Vec<(usize, Cell)> = Vec::new();
        for shards in [1usize, 2, 4] {
            let cell = run(&data, args.parts, shards, placement);
            println!(
                "  {:>9} | {:>6} | {:>17} | {:>16} | {:>6} | {:>6} | {:>5.3}s",
                placement.name(),
                shards,
                cell.shuffle_bytes,
                cell.gather_bytes,
                cell.frames_sent,
                cell.exchange_stalls,
                cell.secs
            );
            per_shards.push((shards, cell));
        }
        // Within a placement the collect is byte-identical across shard
        // counts (exchange invisibility); across placements only the sorted
        // aggregate agrees (collect order follows partition layout).
        for (shards, cell) in &per_shards[1..] {
            if cell.collected != per_shards[0].1.collected {
                failures.push(format!(
                    "{} placement: {shards}-shard collect differs from 1-shard",
                    placement.name()
                ));
            }
        }
        let mut sorted = per_shards[0].1.collected.clone();
        sorted.sort_unstable();
        match &baseline {
            None => baseline = Some(sorted),
            Some(b) => {
                if *b != sorted {
                    failures.push(format!(
                        "{} placement computed different aggregates",
                        placement.name()
                    ));
                }
            }
        }
        let four = &per_shards[2].1;
        match placement {
            // Oblivious placements must move real cross-shard shuffle
            // traffic...
            Placement::Scatter | Placement::Range => {
                if four.shuffle_bytes == 0 {
                    failures.push(format!(
                        "{} placement moved no cross-shard shuffle bytes at 4 shards",
                        placement.name()
                    ));
                }
            }
            // ...while bucket-aligned placement must move none: every
            // bucket is produced on the shard that owns it.
            Placement::Hash => {
                if four.shuffle_bytes != 0 {
                    failures.push(format!(
                        "hash-aligned placement moved {} cross-shard shuffle bytes; expected 0",
                        four.shuffle_bytes
                    ));
                }
            }
        }
    }

    if failures.is_empty() {
        println!("shardbench: OK");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("shardbench: FAILED: {f}");
        }
        ExitCode::FAILURE
    }
}
