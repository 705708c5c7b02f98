//! `tgraph` — command-line interface to the evolving-graph zoom system.
//!
//! ```text
//! tgraph generate wikitalk --scale 0.2 --out data --name wiki
//! tgraph stats data wiki
//! tgraph azoom data wiki --by name --count members --repr og
//! tgraph wzoom data wiki --window 3 --vq all --eq exists --repr ogc
//! tgraph azoom data wiki --by editCount --out data --save zoomed
//! ```
//!
//! A dataset lives in a directory as the one file `tgraph_storage::write_dataset`
//! writes (`NAME.temporal.tgc`). Operators load the representation they run
//! on from it, execute, and either print a summary or save the result as a
//! new dataset.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::process::exit;
use tgraph::datagen::{graph_stats, NGrams, Snb, WikiTalk};
use tgraph::prelude::*;
use tgraph::storage::write_dataset;

fn usage() -> ! {
    eprintln!(
        "usage:
  tgraph generate <wikitalk|snb|ngrams> [--scale F] [--snapshots N] [--seed N] --out DIR --name NAME
  tgraph stats <DIR> <NAME> [--from T --to T]
  tgraph validate <DIR> <NAME>
  tgraph azoom <DIR> <NAME> --by KEY [--count OUT] [--repr rg|ve|og] [--from T --to T] [--out DIR --save NAME]
  tgraph wzoom <DIR> <NAME> --window N [--vq all|most|exists|0.x] [--eq ...] [--resolve first|last|any]
               [--repr rg|ve|og|ogc] [--from T --to T] [--out DIR --save NAME]
  tgraph workers N   (prefix option: run with N worker threads)"
    );
    exit(2);
}

struct Args {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
}

impl Args {
    fn parse(raw: impl IntoIterator<Item = String>) -> Args {
        let mut positional = Vec::new();
        let mut flags = std::collections::HashMap::new();
        let mut queue: VecDeque<String> = raw.into_iter().collect();
        while let Some(arg) = queue.pop_front() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = queue.pop_front().unwrap_or_else(|| usage());
                flags.insert(name.to_string(), value);
            } else {
                positional.push(arg);
            }
        }
        Args { positional, flags }
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    fn require(&self, name: &str) -> &str {
        self.flag(name).unwrap_or_else(|| {
            eprintln!("missing required flag --{name}");
            usage()
        })
    }

    fn parse_flag<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.flag(name) {
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("invalid value for --{name}: {v}");
                usage()
            }),
            None => default,
        }
    }

    fn range(&self) -> Option<Interval> {
        match (self.flag("from"), self.flag("to")) {
            (None, None) => None,
            (from, to) => {
                let from: i64 = from.and_then(|v| v.parse().ok()).unwrap_or(i64::MIN / 2);
                let to: i64 = to.and_then(|v| v.parse().ok()).unwrap_or(i64::MAX / 2);
                Some(Interval::new(from, to))
            }
        }
    }
}

fn parse_quantifier(s: &str) -> Quantifier {
    match s {
        "all" => Quantifier::All,
        "most" => Quantifier::Most,
        "exists" => Quantifier::Exists,
        frac => match frac.parse::<f64>() {
            Ok(f) if (0.0..=1.0).contains(&f) => Quantifier::AtLeast(f),
            _ => {
                eprintln!("invalid quantifier: {s} (use all|most|exists|0.x)");
                usage()
            }
        },
    }
}

fn parse_resolve(s: &str) -> ResolveFn {
    match s {
        "first" => ResolveFn::First,
        "last" => ResolveFn::Last,
        "any" => ResolveFn::Any,
        _ => {
            eprintln!("invalid resolve function: {s}");
            usage()
        }
    }
}

fn print_summary(label: &str, g: &TGraph) {
    let s = graph_stats(g);
    println!(
        "{label}: {} vertices ({} tuples), {} edges ({} tuples), {} snapshots, lifespan {}, evolution rate {:.1}",
        s.vertices, s.vertex_tuples, s.edges, s.edge_tuples, s.snapshots, g.lifespan, s.evolution_rate
    );
}

fn save_or_print(args: &Args, result: &TGraph, label: &str) {
    print_summary(label, result);
    if let (Some(out), Some(name)) = (args.flag("out"), args.flag("save")) {
        write_dataset(&PathBuf::from(out), name, result).unwrap_or_else(|e| {
            eprintln!("failed to save dataset: {e}");
            exit(1);
        });
        println!("saved as dataset '{name}' under {out}");
    }
}

fn cmd_generate(args: &Args) {
    let kind = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let scale: f64 = args.parse_flag("scale", 1.0);
    let seed: u64 = args.parse_flag("seed", 0);
    let out = PathBuf::from(args.require("out"));
    let name = args.require("name").to_string();
    let g = match kind {
        "wikitalk" => {
            let mut cfg = WikiTalk {
                vertices: (20_000.0 * scale) as usize,
                ..WikiTalk::default()
            };
            cfg.months = args.parse_flag("snapshots", cfg.months);
            if seed != 0 {
                cfg.seed = seed;
            }
            cfg.generate()
        }
        "snb" => {
            let mut cfg = Snb {
                persons: (10_000.0 * scale) as usize,
                ..Snb::default()
            };
            cfg.months = args.parse_flag("snapshots", cfg.months);
            if seed != 0 {
                cfg.seed = seed;
            }
            cfg.generate()
        }
        "ngrams" => {
            let mut cfg = NGrams {
                vertices: (16_000.0 * scale) as usize,
                ..NGrams::default()
            };
            cfg.years = args.parse_flag("snapshots", cfg.years);
            if seed != 0 {
                cfg.seed = seed;
            }
            cfg.generate()
        }
        other => {
            eprintln!("unknown dataset kind: {other}");
            usage()
        }
    };
    write_dataset(&out, &name, &g).unwrap_or_else(|e| {
        eprintln!("failed to write dataset: {e}");
        exit(1);
    });
    print_summary(&format!("generated {kind} '{name}'"), &g);
    println!("wrote {} under {}", name, out.display());
}

fn load(args: &Args, rt: &Runtime, kind: ReprKind) -> AnyGraph {
    let dir = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let name = args
        .positional
        .get(1)
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let loader = GraphLoader::new(dir, name);
    match loader.load(rt, kind, args.range()) {
        Ok((g, scan)) => {
            eprintln!(
                "loaded {name} as {kind}: {} chunks read, {} skipped by pushdown",
                scan.chunks_read, scan.chunks_skipped
            );
            g
        }
        Err(e) => {
            eprintln!("failed to load dataset '{name}' from {dir}: {e}");
            exit(1);
        }
    }
}

fn cmd_stats(args: &Args, rt: &Runtime) {
    let g = load(args, rt, ReprKind::Ve).to_tgraph(rt);
    print_summary("dataset", &g);
}

fn cmd_validate(args: &Args, rt: &Runtime) {
    let g = load(args, rt, ReprKind::Ve).to_tgraph(rt);
    let errors = tgraph::core::validate::validate(&g);
    if errors.is_empty() {
        println!(
            "valid TGraph (Definition 2.1): {} vertex facts, {} edge facts",
            g.vertex_tuple_count(),
            g.edge_tuple_count()
        );
    } else {
        println!("INVALID: {} violations", errors.len());
        for e in errors.iter().take(20) {
            println!("  - {e}");
        }
        if errors.len() > 20 {
            println!("  ... and {} more", errors.len() - 20);
        }
        exit(1);
    }
}

fn cmd_azoom(args: &Args, rt: &Runtime) {
    let key = args.require("by").to_string();
    let repr = args.parse_flag("repr", ReprKind::Og);
    if !repr.supports_azoom() {
        eprintln!("representation {repr} does not support aZoom^T");
        exit(2);
    }
    let mut aggs = Vec::new();
    if let Some(out_key) = args.flag("count") {
        aggs.push(AggSpec::count(out_key));
    }
    let spec = AZoomSpec::by_property(&key, "group", aggs);
    let g = load(args, rt, repr);
    let (result, elapsed) = {
        let start = std::time::Instant::now();
        let r = g.azoom(rt, &spec).to_tgraph(rt);
        (r, start.elapsed())
    };
    println!("aZoom^T by '{key}' on {repr} in {elapsed:?}");
    save_or_print(args, &result, "result");
}

fn cmd_wzoom(args: &Args, rt: &Runtime) {
    let window: u64 = args.parse_flag("window", 0);
    if window == 0 {
        eprintln!("--window must be a positive number of time points");
        usage();
    }
    let vq = parse_quantifier(args.flag("vq").unwrap_or("exists"));
    let eq = parse_quantifier(args.flag("eq").unwrap_or("exists"));
    let resolve = parse_resolve(args.flag("resolve").unwrap_or("any"));
    let repr = args.parse_flag("repr", ReprKind::Ogc);
    let spec = WZoomSpec::points(window, vq, eq).with_resolve(resolve, resolve);
    let g = load(args, rt, repr);
    let (result, elapsed) = {
        let start = std::time::Instant::now();
        let r = g.wzoom(rt, &spec).to_tgraph(rt);
        (r, start.elapsed())
    };
    println!("wZoom^T window={window} vq={vq:?} eq={eq:?} on {repr} in {elapsed:?}");
    save_or_print(args, &result, "result");
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        usage();
    }
    let command = raw.remove(0);
    let args = Args::parse(raw);
    let workers: usize = args.parse_flag(
        "workers",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
    );
    let rt = Runtime::new(workers);
    match command.as_str() {
        "generate" => cmd_generate(&args),
        "stats" => cmd_stats(&args, &rt),
        "validate" => cmd_validate(&args, &rt),
        "azoom" => cmd_azoom(&args, &rt),
        "wzoom" => cmd_wzoom(&args, &rt),
        "help" | "--help" | "-h" => usage(),
        other => {
            eprintln!("unknown command: {other}");
            usage();
        }
    }
}
