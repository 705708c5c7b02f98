//! `paper_batch`: the paper's own span, in-process and without a server.
//! Each of the 28 cells is `GraphLoader::load` from `.tgc`/`.tgo` -> zoom
//! step(s) -> materialize (tuple counts over every output partition).
//!
//! Why it exists: storage decode, representation build and the aZoom/wZoom
//! kernels do all the work and `serve` does none. A loader or kernel change
//! must show here; a serve-path change must show nothing.

use crate::datasets::{self, DataDir, Dataset, Written};
use crate::metrics::{RunOutput, CELLS};
use crate::trace::Recorder;
use crate::util;
use crate::RunConfig;
use std::collections::BTreeMap;
use std::time::Instant;
use tgraph_core::coalesce::coalesce_graph;
use tgraph_core::graph::{figure1_graph_stable_ids, EdgeRecord, VertexRecord};
use tgraph_core::props::Props;
use tgraph_core::reference::{azoom_reference, wzoom_reference};
use tgraph_core::time::Interval;
use tgraph_core::zoom::{AZoomSpec, AggSpec, Quantifier, WZoomSpec};
use tgraph_core::TGraph;
use tgraph_dataflow::{Runtime, RuntimeStats};
use tgraph_repr::{AnyGraph, ReprKind};
use tgraph_storage::GraphLoader;

const DATASETS: [Dataset; 4] = [
    Dataset::Wiki,
    Dataset::Snb,
    Dataset::Ngrams,
    Dataset::WikiF13,
];

#[derive(Clone, Debug)]
enum StepSpec {
    AZoom(AZoomSpec),
    WZoom(WZoomSpec),
    Switch(ReprKind),
}

/// One measured configuration: dataset, starting representation, steps.
#[derive(Clone, Debug)]
pub struct Cell {
    pub name: &'static str,
    ds: Dataset,
    repr: ReprKind,
    steps: Vec<StepSpec>,
    /// Load only the second half of the lifespan (range pushdown).
    half_range: bool,
}

fn natural_azoom(ds: Dataset) -> StepSpec {
    StepSpec::AZoom(AZoomSpec::by_property(
        ds.natural_key(),
        "group",
        vec![AggSpec::count("members")],
    ))
}

fn wzoom(window: u64, q: Quantifier) -> StepSpec {
    StepSpec::WZoom(WZoomSpec::points(window, q, q))
}

/// The lower-case tag cell and metric names use for a representation.
fn repr_tag(kind: ReprKind) -> String {
    kind.to_string().to_lowercase()
}

fn repr_of(tag: &str) -> ReprKind {
    ReprKind::all()
        .into_iter()
        .find(|k| repr_tag(*k) == tag)
        .unwrap_or_else(|| panic!("unknown repr tag {tag}"))
}

/// Builds the cell list from the names in [`CELLS`]: `<figure>.<dataset>.<plan>`.
pub fn cells() -> Vec<Cell> {
    CELLS
        .iter()
        .map(|name| {
            let parts: Vec<&str> = name.split('.').collect();
            let (figure, plan) = (parts[0], parts[2]);
            let ds = match (figure, parts[1]) {
                ("f13", "wiki") => Dataset::WikiF13,
                (_, "wiki") => Dataset::Wiki,
                (_, "snb") => Dataset::Snb,
                (_, "ngrams") => Dataset::Ngrams,
                other => panic!("unknown dataset in cell {other:?}"),
            };
            let (first, second) = plan.split_once('-').unwrap_or((plan, plan));
            let steps = match figure {
                "f11" | "f13" => vec![natural_azoom(ds)],
                "f14" => vec![wzoom(6, Quantifier::Exists)],
                "f15" => vec![wzoom(2, Quantifier::All)],
                "f16" => {
                    let mut s = vec![natural_azoom(ds)];
                    if first != second {
                        s.push(StepSpec::Switch(repr_of(second)));
                    }
                    s.push(wzoom(6, Quantifier::Exists));
                    s
                }
                "a1" => vec![wzoom(6, Quantifier::Exists)],
                other => panic!("unknown figure {other}"),
            };
            Cell {
                name,
                ds,
                repr: repr_of(first),
                steps,
                half_range: figure == "a1",
            }
        })
        .collect()
}

/// Touches every partition of the result, as §5 does.
fn materialize(rt: &Runtime, g: &AnyGraph) -> usize {
    match g {
        AnyGraph::Rg(g) => g.total_vertex_tuples(rt) + g.total_edge_tuples(rt),
        AnyGraph::Ve(g) => g.vertex_tuple_count(rt) + g.edge_tuple_count(rt),
        AnyGraph::Og(g) => g.vertex_count(rt) + g.edge_count(rt),
        AnyGraph::Ogc(g) => g.vertex_count(rt) + g.edge_count(rt),
    }
}

fn apply(rt: &Runtime, g: &AnyGraph, step: &StepSpec) -> AnyGraph {
    match step {
        StepSpec::AZoom(spec) => g.azoom(rt, spec),
        StepSpec::WZoom(spec) => g.wzoom(rt, spec),
        StepSpec::Switch(kind) => g.switch_to(rt, *kind),
    }
}

fn load_span_name(cell: &Cell) -> String {
    if cell.half_range {
        return "storage.load_ranged_ms".to_string();
    }
    let kind = match cell.repr {
        ReprKind::Ve | ReprKind::Rg => "flat",
        ReprKind::Og | ReprKind::Ogc => "nested",
    };
    format!("storage.load_{kind}_ms.{}", cell.ds.family())
}

fn step_span_name(step: &StepSpec, current: ReprKind) -> String {
    match step {
        StepSpec::AZoom(_) => format!("repr.azoom_ms.{}", repr_tag(current)),
        StepSpec::WZoom(_) => format!("repr.wzoom_ms.{}", repr_tag(current)),
        StepSpec::Switch(to) => format!("repr.switch_ms.{}_{}", repr_tag(current), repr_tag(*to)),
    }
}

/// Spans and scan counters of a traced pass.
struct PassTrace<'a> {
    rec: &'a mut Recorder,
    pass_span: u64,
    rows_read: u64,
    chunks_skipped_ranged: u64,
    chunks_ranged: u64,
}

struct World {
    _dir: DataDir,
    rt: Runtime,
    loaders: Vec<(Dataset, GraphLoader, Interval)>,
    written: Written,
    /// Tuple count of each cell's result in the warm pass.
    golden: Vec<usize>,
    disk_bytes: u64,
    bytes_per_row: [(&'static str, f64); 3],
}

impl World {
    fn loader(&self, ds: Dataset) -> (&GraphLoader, Interval) {
        let (_, loader, lifespan) = self
            .loaders
            .iter()
            .find(|(d, _, _)| *d == ds)
            .expect("dataset written at set-up");
        (loader, *lifespan)
    }

    /// Runs one cell and returns its result's tuple count. With a trace,
    /// every step is followed by a forced materialize inside its span so
    /// lazy fusion cannot move work across span boundaries.
    fn run_cell(
        &self,
        cell: &Cell,
        request: u64,
        mut trace: Option<&mut PassTrace<'_>>,
    ) -> Result<(usize, AnyGraph), String> {
        let (loader, lifespan) = self.loader(cell.ds);
        let range = cell.half_range.then(|| {
            let mid = lifespan.start + (lifespan.end - lifespan.start) / 2;
            Interval::new(mid, lifespan.end)
        });
        let cell_span = trace.as_deref_mut().map(|t| {
            let name = format!("batch.cell_ms.{}", cell.name);
            t.rec.begin(t.pass_span, request, &name)
        });
        let span = trace.as_deref_mut().map(|t| {
            t.rec
                .begin(cell_span.unwrap_or(0), request, &load_span_name(cell))
        });
        let (mut g, scan) = loader
            .load(&self.rt, cell.repr, range)
            .map_err(|e| format!("{}: load: {e}", cell.name))?;
        if let Some(t) = trace.as_deref_mut() {
            materialize(&self.rt, &g);
            let span = span.expect("opened with the trace");
            t.rec.end(span);
            t.rec.counter(span, "rows_read", scan.rows_read as f64);
            t.rec
                .counter(span, "chunks_skipped", scan.chunks_skipped as f64);
            t.rows_read += scan.rows_read as u64;
            if cell.half_range {
                t.chunks_skipped_ranged += scan.chunks_skipped as u64;
                t.chunks_ranged += (scan.chunks_skipped + scan.chunks_read) as u64;
            }
        }
        for step in &cell.steps {
            let span = trace.as_deref_mut().map(|t| {
                t.rec.begin(
                    cell_span.unwrap_or(0),
                    request,
                    &step_span_name(step, g.kind()),
                )
            });
            g = apply(&self.rt, &g, step);
            if let Some(t) = trace.as_deref_mut() {
                materialize(&self.rt, &g);
                t.rec.end(span.expect("opened with the trace"));
            }
        }
        let tuples = materialize(&self.rt, &g);
        if let (Some(t), Some(span)) = (trace, cell_span) {
            t.rec.end(span);
        }
        Ok((tuples, g))
    }
}

fn set_up(cfg: &RunConfig, cells: &[Cell]) -> Result<World, String> {
    let dir = DataDir::create(&cfg.out_dir, "paper_batch")?;
    let written = datasets::write_all(&dir.path, &DATASETS, cfg.seed, cfg.scale())?;
    let rt = Runtime::with_partitions(cfg.workers, 4);
    let loaders = written
        .lifespans
        .iter()
        .map(|(ds, lifespan)| (*ds, GraphLoader::new(&dir.path, ds.name()), *lifespan))
        .collect();
    let (disk_bytes, _) = util::dir_usage(&dir.path);
    let bytes_per_row = datasets::bytes_per_row(&dir.path, &written);
    let mut world = World {
        _dir: dir,
        rt,
        loaders,
        written,
        golden: Vec::new(),
        disk_bytes,
        bytes_per_row,
    };
    // The untimed pass: fills the page cache and fixes each cell's count.
    let golden = cells
        .iter()
        .map(|c| world.run_cell(c, 0, None).map(|(n, _)| n))
        .collect::<Result<Vec<_>, _>>()?;
    world.golden = golden;
    Ok(world)
}

/// Coalesced logical form of a result; `topology_only` drops attributes so
/// OGC (which stores none) compares with the others.
fn canon(rt: &Runtime, g: &AnyGraph, topology_only: bool) -> (Vec<VertexRecord>, Vec<EdgeRecord>) {
    let mut t = g.to_tgraph(rt);
    if topology_only {
        for v in &mut t.vertices {
            v.props = Props::new();
        }
        for e in &mut t.edges {
            e.props = Props::new();
        }
    }
    let c = coalesce_graph(&t);
    (c.vertices, c.edges)
}

/// What the cross-representation check found and what it timed on the way.
struct Verified {
    groups: u64,
    disagree: Vec<String>,
    collect_ms: Vec<f64>,
    coalesce_ms: Vec<f64>,
}

/// Cross-representation equality: cells that answer the same logical query
/// (same figure and dataset) must collect to the same coalesced graph.
fn verify_across_reprs(world: &World, cells: &[Cell]) -> Result<Verified, String> {
    let mut groups: BTreeMap<String, Vec<&Cell>> = BTreeMap::new();
    for c in cells {
        let key = c.name.rsplit_once('.').expect("cell name").0.to_string();
        groups.entry(key).or_default().push(c);
    }
    let (mut disagree, mut collect_ms, mut coalesce_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut checked = 0;
    for (key, members) in &groups {
        if members.len() < 2 {
            continue;
        }
        checked += 1;
        let results = members
            .iter()
            .map(|c| world.run_cell(c, 0, None).map(|(_, g)| g))
            .collect::<Result<Vec<_>, _>>()?;
        for g in &results {
            let t = Instant::now();
            let logical = g.to_tgraph(&world.rt);
            collect_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            std::hint::black_box(coalesce_graph(&logical));
            coalesce_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let has_ogc = results.iter().any(|g| g.kind() == ReprKind::Ogc);
        let full: Vec<_> = results
            .iter()
            .filter(|g| g.kind() != ReprKind::Ogc)
            .map(|g| canon(&world.rt, g, false))
            .collect();
        let mut agree = full.windows(2).all(|w| w[0] == w[1]);
        if has_ogc {
            let topo: Vec<_> = results.iter().map(|g| canon(&world.rt, g, true)).collect();
            agree &= topo.windows(2).all(|w| w[0] == w[1]);
        }
        if !agree {
            disagree.push(key.clone());
        }
    }
    Ok(Verified {
        groups: checked,
        disagree,
        collect_ms,
        coalesce_ms,
    })
}

/// Share of (shape, representation) pairs on the Figure-1 graph whose
/// result equals the point-semantics reference evaluator's.
fn reference_agree(rt: &Runtime) -> f64 {
    let g = figure1_graph_stable_ids();
    let a = AZoomSpec::by_property("school", "group", vec![AggSpec::count("members")]);
    let shapes: Vec<(Vec<StepSpec>, TGraph)> = [
        (Quantifier::Exists, 6),
        (Quantifier::Exists, 3),
        (Quantifier::All, 2),
    ]
    .into_iter()
    .map(|(q, n)| {
        let w = WZoomSpec::points(n, q, q);
        (vec![StepSpec::WZoom(w.clone())], wzoom_reference(&g, &w))
    })
    .chain(std::iter::once((
        vec![StepSpec::AZoom(a.clone())],
        azoom_reference(&g, &a),
    )))
    .chain(std::iter::once({
        let w = WZoomSpec::points(3, Quantifier::Exists, Quantifier::Exists);
        (
            vec![StepSpec::AZoom(a.clone()), StepSpec::WZoom(w.clone())],
            wzoom_reference(&azoom_reference(&g, &a), &w),
        )
    }))
    .collect();
    let (mut total, mut agree) = (0u32, 0u32);
    for (steps, expected) in &shapes {
        let expected = coalesce_graph(expected);
        for kind in [ReprKind::Rg, ReprKind::Ve, ReprKind::Og] {
            let mut out = AnyGraph::load(rt, &g, kind);
            for s in steps {
                out = apply(rt, &out, s);
            }
            let got = coalesce_graph(&out.to_tgraph(rt));
            total += 1;
            agree +=
                u32::from((got.vertices == expected.vertices) && (got.edges == expected.edges));
        }
    }
    f64::from(agree) / f64::from(total)
}

/// Layer probes on a resident `wiki` graph, outside any cell: building a
/// representation from a logical graph, and the switch no cell exercises.
fn repr_probes(rt: &Runtime, wiki: &TGraph, out: &mut Vec<(String, f64)>) {
    let timed = |f: &dyn Fn()| {
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        util::median(&samples)
    };
    for kind in ReprKind::all() {
        let ms = timed(&|| {
            materialize(rt, &AnyGraph::load(rt, wiki, kind));
        });
        out.push((format!("repr.build_ms.{}", repr_tag(kind)), ms));
    }
    let og = AnyGraph::load(rt, wiki, ReprKind::Og);
    materialize(rt, &og);
    let ms = timed(&|| {
        materialize(rt, &og.switch_to(rt, ReprKind::Ve));
    });
    out.push(("repr.switch_ms.og_ve".to_string(), ms));
}

fn dataflow_metrics(d: &RuntimeStats, out: &mut Vec<(String, f64)>) {
    for (name, v) in [
        ("waves", d.waves),
        ("tasks", d.tasks),
        ("shuffles", d.shuffles),
        ("shuffles_elided", d.shuffles_elided),
        ("shuffled_records", d.shuffled_records),
        ("shuffled_bytes", d.shuffled_bytes),
        ("peak_bytes", d.peak_bytes),
        ("wave_us", d.wave_us),
        ("max_task_us", d.max_task_us),
    ] {
        out.push((format!("dataflow.{name}"), v as f64));
    }
    out.push((
        "dataflow.straggler_ratio".to_string(),
        d.max_task_us as f64 / d.wave_us.max(1) as f64,
    ));
}

pub fn run(cfg: &RunConfig) -> Result<RunOutput, String> {
    let cells = cells();
    let (world, setup_s) = crate::repeat_set_up(cfg.set_ups(), || set_up(cfg, &cells))?;
    let mut notes = vec![format!(
        "paper_batch: closed loop, 1 driver thread, in-process, Runtime::with_partitions({}, 4), {} cells per pass",
        cfg.workers,
        cells.len()
    )];

    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch);
    let pid = std::process::id();
    let cpu0 = util::cpu_ms(pid).unwrap_or(0.0);
    let (mut rounds, mut pass_s) = (util::Rounds::default(), Vec::new());
    let mut cell_ms: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut pass_totals: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut pass_deltas: Vec<RuntimeStats> = Vec::new();
    let (mut rows_read, mut load_s, mut skipped, mut ranged) = (0u64, 0.0, 0u64, 0u64);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let run_span = cfg.trace.then(|| rec.begin(0, 0, "trace.run"));
    let started = Instant::now();
    while pass_s.len() < cfg.min_rounds() || started.elapsed().as_secs_f64() < cfg.seconds {
        let pass = pass_s.len() as u64 + 1;
        let before = world.rt.stats();
        let first_span = rec.spans.len();
        let pass_span = run_span.map(|root| rec.begin(root, pass, "batch.pass_s"));
        let mut trace = pass_span.map(|pass_span| PassTrace {
            rec: &mut rec,
            pass_span,
            rows_read: 0,
            chunks_skipped_ranged: 0,
            chunks_ranged: 0,
        });
        let t_pass = Instant::now();
        let mut latencies = Vec::with_capacity(cells.len());
        for (i, cell) in cells.iter().enumerate() {
            let t = Instant::now();
            let (tuples, _) = world.run_cell(cell, pass * 100 + i as u64, trace.as_mut())?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            latencies.push(ms);
            cell_ms[i].push(ms);
            attempted += 1;
            if tuples != world.golden[i] {
                failed += 1;
                notes.push(format!(
                    "count mismatch: {} gave {tuples} tuples, warm pass gave {}",
                    cell.name, world.golden[i]
                ));
            }
        }
        pass_s.push(t_pass.elapsed().as_secs_f64());
        rounds.push(latencies, cells.len(), t_pass.elapsed().as_secs_f64());
        if let Some(t) = trace {
            rows_read += t.rows_read;
            skipped += t.chunks_skipped_ranged;
            ranged += t.chunks_ranged;
        }
        if let Some(span) = pass_span {
            rec.end(span);
            let mut totals: BTreeMap<String, f64> = BTreeMap::new();
            for s in &rec.spans[first_span..] {
                let name = rec.name_of(s);
                if name.starts_with("storage.") || name.starts_with("repr.") {
                    *totals.entry(name.to_string()).or_default() +=
                        (s.end_ns - s.start_ns) as f64 / 1e6;
                }
            }
            load_s += totals
                .iter()
                .filter(|(k, _)| k.starts_with("storage.load"))
                .map(|(_, v)| v / 1e3)
                .sum::<f64>();
            pass_totals.push(totals);
        }
        pass_deltas.push(world.rt.stats().since(&before));
    }
    if let Some(span) = run_span {
        rec.end(span);
    }
    let cpu_ms = util::cpu_ms(pid).unwrap_or(0.0) - cpu0;
    let rss_mb = util::peak_rss_mb(pid).unwrap_or(0.0);

    // Correctness beyond counts, untimed.
    let Verified {
        groups,
        disagree,
        collect_ms,
        coalesce_ms,
    } = verify_across_reprs(&world, &cells)?;
    failed += disagree.len() as u64;
    for key in &disagree {
        notes.push(format!("representations disagree on {key}"));
    }
    let agree_share = reference_agree(&world.rt);
    if agree_share < 1.0 {
        failed += 1;
        notes.push(format!("core.reference_agree = {agree_share}, must be 1"));
    }
    notes.push(format!(
        "checked: {} cell counts, {groups} cross-representation groups, reference agreement {agree_share}",
        attempted
    ));

    notes.push(rounds.describe("zoom latency (one round = one pass over the cells)"));
    let mut metrics: Vec<(String, f64)> = Vec::new();
    if !cfg.trace {
        metrics.push(("setup_s".into(), setup_s));
        metrics.push(("ops_per_s".into(), rounds.ops_per_s()));
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
        let names: std::collections::BTreeSet<&String> =
            pass_totals.iter().flat_map(|t| t.keys()).collect();
        for name in names {
            let per_pass: Vec<f64> = pass_totals
                .iter()
                .map(|t| t.get(name).copied().unwrap_or(0.0))
                .collect();
            metrics.push((name.clone(), util::median(&per_pass)));
        }
        metrics.push((
            "storage.rows_decoded_per_s".into(),
            rows_read as f64 / load_s.max(1e-9),
        ));
        metrics.push((
            "storage.chunks_skipped_share".into(),
            skipped as f64 / ranged.max(1) as f64,
        ));
        for (i, cell) in cells.iter().enumerate() {
            metrics.push((
                format!("batch.cell_ms.{}", cell.name),
                util::median(&cell_ms[i]),
            ));
        }
        metrics.push(("batch.pass_s".into(), util::median(&pass_s)));
        // Counts come from the first pass (every pass repeats them exactly);
        // the two time sums are medians over passes.
        let over_passes = |field: fn(&RuntimeStats) -> u64| {
            let per_pass: Vec<f64> = pass_deltas.iter().map(|d| field(d) as f64).collect();
            util::median(&per_pass) as u64
        };
        let mut d = pass_deltas[0];
        d.wave_us = over_passes(|d| d.wave_us);
        d.max_task_us = over_passes(|d| d.max_task_us);
        dataflow_metrics(&d, &mut metrics);
        // Generated again here, after the measured phase: kept resident it
        // would count towards this process's own `peak_rss_mb`.
        let wiki = Dataset::Wiki.generate(cfg.seed, cfg.scale());
        repr_probes(&world.rt, &wiki, &mut metrics);
        metrics.push(("repr.collect_ms".into(), util::median(&collect_ms)));
        metrics.push(("core.coalesce_ms".into(), util::median(&coalesce_ms)));
        metrics.push(("core.reference_agree".into(), agree_share));
        metrics.push(("trace.ops_per_s".into(), rounds.ops_per_s()));
        metrics.push((
            "trace.zoom_geomean_ms".into(),
            util::geomean_of_medians(&cell_ms),
        ));
        metrics.push(("trace.zoom_p50_ms".into(), rounds.percentile(0.5)));
        metrics.push(("trace.zoom_p95_ms".into(), rounds.percentile(0.95)));
        metrics.push((
            "trace.cpu_ms_per_op".into(),
            cpu_ms / attempted.max(1) as f64,
        ));
        metrics.push(("trace.self_time_share".into(), rec.self_time_share()));
        rec.write(&cfg.trace_path(), "paper_batch")
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
    fn cell_list_matches_the_pinned_names() {
        let cells = cells();
        assert_eq!(cells.len(), 28);
        let chain = cells.iter().find(|c| c.name == "f16.wiki.ve-og").unwrap();
        assert_eq!(chain.repr, ReprKind::Ve);
        assert_eq!(chain.steps.len(), 3);
        assert!(cells
            .iter()
            .filter(|c| c.repr == ReprKind::Rg)
            .all(|c| c.ds == Dataset::Wiki));
        assert!(cells
            .iter()
            .all(|c| c.repr != ReprKind::Ogc
                || c.steps.iter().all(|s| !matches!(s, StepSpec::AZoom(_)))));
        assert_eq!(cells.iter().filter(|c| c.half_range).count(), 1);
    }

    #[test]
    fn implementations_agree_with_the_reference_on_figure_1() {
        let rt = Runtime::with_partitions(2, 4);
        assert_eq!(reference_agree(&rt), 1.0);
    }
}
