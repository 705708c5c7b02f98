//! The experiment driver: regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p tgraph-bench --bin experiments -- all
//! cargo run --release -p tgraph-bench --bin experiments -- fig10 fig14 --scale 0.5
//! cargo run --release -p tgraph-bench --bin experiments -- datasets --workers 8 --timeout 120
//! ```
//!
//! Experiments: `datasets`, `fig10` … `fig17`, `load`, `explain`,
//! `quantifiers`, `partitions`, or `all`.

use std::time::Duration;
use tgraph_bench::experiments::{
    datasets_table, explain_plans, fig10, fig11, fig12, fig13, fig14, fig15, fig16, fig17,
    load_locality, partitions, quantifiers, ExpConfig,
};
use tgraph_bench::Table;

const ALL: &[&str] = &[
    "datasets",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "load",
    "explain",
    "quantifiers",
    "partitions",
];

fn run_one(name: &str, cfg: &ExpConfig) -> Option<Vec<Table>> {
    let tables = match name {
        "datasets" => datasets_table(cfg),
        "fig10" => fig10(cfg),
        "fig11" => fig11(cfg),
        "fig12" => fig12(cfg),
        "fig13" => fig13(cfg),
        "fig14" => fig14(cfg),
        "fig15" => fig15(cfg),
        "fig16" => fig16(cfg),
        "fig17" => fig17(cfg),
        "load" => load_locality(cfg),
        "explain" => explain_plans(cfg),
        "quantifiers" => quantifiers(cfg),
        "partitions" => partitions(cfg),
        _ => return None,
    };
    Some(tables)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ExpConfig::default();
    let mut selected: Vec<String> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                cfg.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale needs a float");
            }
            "--workers" => {
                cfg.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers needs an integer");
            }
            "--timeout" => {
                let secs: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--timeout needs seconds");
                cfg.timeout = Duration::from_secs(secs);
            }
            "all" => selected.extend(ALL.iter().map(|s| s.to_string())),
            "--help" | "-h" => {
                eprintln!("usage: experiments [--scale F] [--workers N] [--timeout SECS] <exp>...");
                eprintln!("experiments: {}", ALL.join(", "));
                return;
            }
            other => selected.push(other.to_string()),
        }
    }
    if selected.is_empty() {
        eprintln!(
            "no experiment selected; use one of: all, {}",
            ALL.join(", ")
        );
        std::process::exit(2);
    }

    println!(
        "# TGraph zoom experiments — scale {}, {} workers, timeout {:?}",
        cfg.scale, cfg.workers, cfg.timeout
    );
    println!();
    for name in selected {
        match run_one(&name, &cfg) {
            Some(tables) => {
                let (_, elapsed) = tgraph_bench::time_it(|| {
                    for t in &tables {
                        println!("{}", t.render());
                    }
                });
                let _ = elapsed;
            }
            None => {
                eprintln!("unknown experiment: {name}");
                std::process::exit(2);
            }
        }
    }
}
