//! `tgraph-serve` — the zoom-query service binary. One process answers
//! every request.
//!
//! ```text
//! tgraph-serve --addr 127.0.0.1:7687 --data-dir ./data \
//!              --graphs demo:ve,demo:og --workers 4 --cache-mb 64
//! ```
//!
//! Flags:
//! * `--addr HOST:PORT`      listen address (port 0 picks a free port; the
//!   bound address is printed as `listening on <addr>` once ready)
//! * `--data-dir DIR`        dataset directory (GraphLoader layout)
//! * `--graphs a:ve,b:og`    preload graphs (name:repr) before accepting
//! * `--workers N`           dataflow worker threads (default 4)
//! * `--partitions N`        dataflow partitions (default `max(4, workers)`;
//!   an explicit value wins wherever it appears on the command line)
//! * `--max-inflight N`      concurrent zoom executions (default 2)
//! * `--max-queue N`         admission queue capacity (default 64); over a
//!   socket at most two zooms ever wait (there are `max-inflight + 2`
//!   dispatchers), so any N of 2 or more refuses nothing
//! * `--cache-mb N`          result-cache budget in MiB (default 64), for
//!   answer bodies and their patch seeds together
//! * `--gen-demo NAME`       generate a small deterministic WikiTalk-style
//!   dataset under `--data-dir` as NAME before serving (for smoke tests)

#![warn(clippy::too_many_lines)]

use std::process::ExitCode;
use std::sync::Arc;
use tgraph_datagen::WikiTalk;
use tgraph_repr::ReprKind;
use tgraph_serve::{Server, ServerConfig};
use tgraph_storage::write_dataset;

struct Args {
    config: ServerConfig,
    preload: Vec<(String, ReprKind)>,
    gen_demo: Option<String>,
}

const USAGE: &str = "usage: tgraph-serve --addr HOST:PORT --data-dir DIR \
                     [--graphs name:repr,...] [--workers N] [--partitions N] \
                     [--max-inflight N] [--max-queue N] [--cache-mb N] \
                     [--gen-demo NAME]";

fn number<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

fn list(value: String) -> Vec<String> {
    value
        .split(',')
        .filter(|p| !p.is_empty())
        .map(str::to_string)
        .collect()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut config = ServerConfig::default();
    let mut partitions = None;
    let mut preload = Vec::new();
    let mut gen_demo = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--addr" => config.addr = value()?,
            "--data-dir" => config.data_dir = value()?.into(),
            "--workers" => config.workers = number(flag, value()?)?,
            "--partitions" => partitions = Some(number(flag, value()?)?),
            "--max-inflight" => config.max_inflight = number(flag, value()?)?,
            "--max-queue" => config.max_queue = number(flag, value()?)?,
            "--cache-mb" => {
                let mib: u64 = number(flag, value()?)?;
                config.cache_bytes = mib
                    .checked_mul(1 << 20)
                    .ok_or_else(|| format!("{flag}: {mib} MiB overflows a byte count"))?;
            }
            "--graphs" => {
                for part in list(value()?) {
                    let (name, repr) = part
                        .split_once(':')
                        .ok_or_else(|| format!("--graphs entry '{part}' must be name:repr"))?;
                    preload.push((name.to_string(), repr.parse()?));
                }
            }
            "--gen-demo" => gen_demo = Some(value()?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    // Resolved after the loop so flag order cannot matter: an explicit
    // `--partitions` wins; otherwise one partition per worker, and never
    // fewer than the default.
    config.partitions = partitions.unwrap_or(config.partitions.max(config.workers));
    Ok(Args {
        config,
        preload,
        gen_demo,
    })
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;

    if let Some(name) = &args.gen_demo {
        // Small but non-trivial: ~200 vertices × 24 months, deterministic.
        let g = WikiTalk {
            vertices: 200,
            months: 24,
            edges_per_vertex: 3.0,
            edge_survival: 0.2,
            edit_count_values: 50,
            seed: 0x5EED,
        }
        .generate();
        write_dataset(&args.config.data_dir, name, &g)
            .map_err(|e| format!("generating demo dataset '{name}': {e}"))?;
        eprintln!(
            "generated dataset '{name}' under {}",
            args.config.data_dir.display()
        );
    }

    let server = Arc::new(
        Server::bind(args.config.clone()).map_err(|e| format!("bind {}: {e}", args.config.addr))?,
    );
    for (name, kind) in &args.preload {
        server.preload(name, *kind)?;
        eprintln!("preloaded {name} as {kind}");
    }
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    // The harness waits for this exact line before sending traffic.
    println!("listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.serve().map_err(|e| format!("serve loop: {e}"))?;
    eprintln!("shut down cleanly");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("tgraph-serve: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partitions(argv: &[&str]) -> usize {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        parse_args(&argv).expect("parse").config.partitions
    }

    #[test]
    fn explicit_partitions_win_in_either_flag_order() {
        assert_eq!(partitions(&["--partitions", "2", "--workers", "8"]), 2);
        assert_eq!(partitions(&["--workers", "8", "--partitions", "2"]), 2);
    }

    #[test]
    fn default_partitions_are_one_per_worker_and_at_least_four() {
        assert_eq!(partitions(&[]), 4);
        assert_eq!(partitions(&["--workers", "2"]), 4);
        assert_eq!(partitions(&["--workers", "8"]), 8);
    }

    #[test]
    fn preload_reprs_parse_case_insensitively_and_reject_unknown_ones() {
        let argv = |graphs: &str| vec!["--graphs".to_string(), graphs.to_string()];
        let args = parse_args(&argv("a:ve,b:OGC")).expect("parse");
        assert_eq!(
            args.preload,
            vec![
                ("a".to_string(), ReprKind::Ve),
                ("b".to_string(), ReprKind::Ogc)
            ]
        );
        let err = parse_args(&argv("a:xx")).err().expect("unknown repr");
        assert!(err.contains("unknown repr 'xx'"), "{err}");
    }

    #[test]
    fn cache_mb_is_mebibytes_and_rejects_an_overflowing_count() {
        let parse = |mib: &str| parse_args(&["--cache-mb", mib].map(String::from));
        assert_eq!(parse("3").expect("parse").config.cache_bytes, 3 << 20);
        let max = (u64::MAX >> 20).to_string();
        assert_eq!(
            parse(&max).expect("parse").config.cache_bytes,
            (u64::MAX >> 20) << 20
        );
        // 2^44 + 1 MiB: a shift drops the high bit and leaves a 1 MiB cache.
        let err = parse("17592186044417").err().expect("overflow");
        assert!(err.starts_with("--cache-mb: "), "{err}");
    }

    #[test]
    fn sharding_flags_are_unknown() {
        let argv = ["--shards", "2"].map(String::from);
        let err = parse_args(&argv).err().expect("no sharded mode");
        assert_eq!(err, "unknown flag '--shards' (try --help)");
    }
}
