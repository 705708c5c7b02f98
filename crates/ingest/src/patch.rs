//! O(delta) zoom maintenance: patch a cached result instead of recomputing
//! it over the whole history.
//!
//! After an ingest extends a dataset from lifespan `[L, b)` to `[L, b')`,
//! a cached zoom result is still correct on most of the time axis — the
//! delta's facts all live at or after `b`. [`decide`] (from
//! `tgraph_core::zoom::maintenance`) finds the **cut** `c ≤ b`: the
//! greatest point aligned to every `Points` window grid of the pipeline.
//! Maintenance then:
//!
//! 1. re-executes the pipeline on the **suffix** — the updated graph
//!    restricted to `[c, ∞)`, with its lifespan forced to start at `c` so
//!    window grids anchor exactly where the cold run's windows fall;
//! 2. **stitches**: the cached result truncated to `(-∞, c)` unioned with
//!    the suffix result, re-coalesced per entity so states split at the cut
//!    merge back.
//!
//! Every pipeline's final result is temporally coalesced (every operator
//! returns coalesced output; `AnyGraph::to_tgraph` ends in
//! `TGraph::into_coalesced`),
//! and coalesced-plus-sorted is a *unique* normal form — so a patched result is
//! byte-identical to a cold recompute under the server's deterministic
//! serialization. The contract presumes the post-ingest graph is *valid*
//! (Definition 2.1, `tgraph_core::validate`) — in particular no dangling
//! edges, so every edge alive in the suffix has endpoint states there too;
//! checked mode rejects invalid graphs before any pipeline runs.
//! The cost is O(|delta| + entities alive at the cut), not
//! O(history): the suffix read pushes `[c, ∞)` into the chunk statistics of
//! the base file and every epoch segment.

use std::borrow::Cow;
use tgraph_core::graph::{EdgeRecord, TGraph, VertexRecord};
use tgraph_core::time::{Interval, Time};
use tgraph_core::zoom::maintenance::{decide, MaintenanceDecision};
use tgraph_dataflow::Runtime;
use tgraph_query::Pipeline;
use tgraph_repr::{AnyGraph, ReprKind};
use tgraph_storage::format::{ScanStats, StorageError};
use tgraph_storage::GraphLoader;

/// Stitches a cached result with the suffix recompute: cached states
/// truncated to `(-∞, cut)`, suffix states appended, both relations
/// re-coalesced so states split at the cut merge back into the single
/// interval a cold run would produce.
pub fn stitch(cached: &TGraph, suffix: &TGraph, cut: Time) -> TGraph {
    let head = Interval::new(Time::MIN, cut);
    let mut vertices: Vec<VertexRecord> = cached
        .vertices
        .iter()
        .filter_map(|v| {
            v.interval.intersect(&head).map(|interval| VertexRecord {
                vid: v.vid,
                interval,
                props: v.props.clone(),
            })
        })
        .collect();
    vertices.extend(suffix.vertices.iter().cloned());
    let mut edges: Vec<EdgeRecord> = cached
        .edges
        .iter()
        .filter_map(|e| {
            e.interval.intersect(&head).map(|interval| EdgeRecord {
                eid: e.eid,
                src: e.src,
                dst: e.dst,
                interval,
                props: e.props.clone(),
            })
        })
        .collect();
    edges.extend(suffix.edges.iter().cloned());
    TGraph {
        lifespan: cached.lifespan.hull(&suffix.lifespan),
        vertices: tgraph_core::coalesce::coalesce_vertices(vertices),
        edges: tgraph_core::coalesce::coalesce_edges(edges),
    }
}

/// The cached result a patch starts from. [`patch_from_storage`] asks for
/// the graph only once the planner has decided to patch, so a seed kept in
/// another form (the server keeps the serialized answer) is rebuilt only
/// for a patch.
pub trait Seed {
    /// The result graph, or `None` if it cannot be had: then there is no
    /// patch, and the caller runs cold.
    fn graph(&self) -> Option<Cow<'_, TGraph>>;
}

impl Seed for TGraph {
    fn graph(&self) -> Option<Cow<'_, TGraph>> {
        Some(Cow::Borrowed(self))
    }
}

/// A result [`patch_from_storage`] brought up to date.
#[derive(Clone, Debug)]
pub struct Patched {
    /// The stitched result, byte-identical to a cold recompute.
    pub result: TGraph,
    /// The stitch point.
    pub cut: Time,
    /// What the suffix read decoded and skipped.
    pub scan: ScanStats,
}

/// Why [`patch_from_storage`] produced no patch; the caller runs cold.
#[derive(Debug)]
pub enum NoPatch {
    /// The planner ruled the pipeline out.
    Recompute {
        /// Why patching was not applicable.
        reason: &'static str,
    },
    /// The suffix could not be read.
    Storage(StorageError),
    /// The seed could not be read back.
    Seed,
}

impl std::fmt::Display for NoPatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NoPatch::Recompute { reason } => write!(f, "planner refused to patch: {reason}"),
            NoPatch::Storage(e) => write!(f, "suffix load: {e}"),
            NoPatch::Seed => write!(f, "the cached result could not be read back"),
        }
    }
}

/// Maintenance against a stored dataset, the whole `plan → suffix → execute
/// → stitch` sequence: `cached` is the pipeline's result as of `boundary`
/// (the lifespan end it was computed at) and `lifespan` the dataset's
/// lifespan now. The seed is read after the planner has ruled and before
/// the suffix is loaded, so a refused or unreadable seed costs no suffix
/// read.
///
/// The suffix `[cut, ∞)` is read from the flat base file plus every epoch
/// segment, with the range pushed into each file's chunk statistics — a
/// base chunk whose facts all end by the cut is skipped, which is what keeps
/// the patch path O(delta + live-at-cut) instead of O(history).
/// `read_tgc` clips intervals to the range; the suffix lifespan is forced to
/// `[cut, lifespan.end)` (an empty scan included) because window grids and
/// the stitch both key off the full dataset lifespan.
pub fn patch_from_storage(
    rt: &Runtime,
    loader: &GraphLoader,
    lifespan: Interval,
    repr: ReprKind,
    pipeline: &Pipeline,
    cached: &(impl Seed + ?Sized),
    boundary: Time,
) -> Result<Patched, NoPatch> {
    let cut = match decide(lifespan, boundary, &pipeline.window_grids()) {
        MaintenanceDecision::Patch { cut } => cut,
        MaintenanceDecision::Recompute { reason } => return Err(NoPatch::Recompute { reason }),
    };
    let cached = cached.graph().ok_or(NoPatch::Seed)?;
    let (mut suffix, scan) = loader
        .load_flat(Some(Interval::new(cut, Time::MAX)))
        .map_err(NoPatch::Storage)?;
    suffix.lifespan = Interval::new(cut, lifespan.end);
    let out = pipeline.collect(rt, AnyGraph::from_tgraph(rt, suffix, repr));
    Ok(Patched {
        result: stitch(&cached, &out, cut),
        cut,
        scan,
    })
}
