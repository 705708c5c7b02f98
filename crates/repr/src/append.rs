//! In-memory epoch append: a resident [`AnyGraph`] reaches the next epoch
//! through the same constructors a load uses, never through a second copy
//! of a representation's layout.
//!
//! The delta obeys the **append invariant** (see
//! `tgraph_core::zoom::maintenance`): every delta fact lies at or after the
//! resident graph's lifespan end. Two representations extend, two rebuild:
//!
//! * **VE** — the delta tuples union onto the two relations (two `O(1)`
//!   partition concatenations). An entity whose state continues across the
//!   boundary now has two mergeable tuples; every VE operator and
//!   `coalesce_collected` fold them.
//! * **RG** — the delta's snapshot sequence, built by
//!   [`RgGraph::from_tgraph`] from the delta alone (no old fact is alive
//!   after the boundary), unions onto the resident sequence. A fresh full
//!   build may also materialize empty gap snapshots between the epochs;
//!   those emit no facts, so the logical graph is unaffected.
//! * **OG** — the resident's history arrays are collected, the delta's are
//!   folded in ([`fold_histories`]) and [`OgGraph::from_histories`] builds
//!   the graph again, shared endpoints included.
//! * **OGC** — the resident's rows as histories, followed by the delta's
//!   ([`histories_of`]), go through [`OgcGraph::from_histories`], which
//!   lays out the interval table and every bitset.
//!
//! An OG or OGC resident therefore stays what a load produces, a
//! materialized source: its lineage does not deepen with the number of
//! epochs and a later zoom re-executes no earlier append. The cost is one
//! pass over the resident, like the collect the rebuild starts with. In
//! every case `append(load(base), delta) ≡
//! load(base ∪ delta)` *as a logical TGraph* — physical layouts (partition
//! boundaries, gap snapshots) may differ, which downstream coalescing and
//! the deterministic result serialization wash out; `tests/append_epochs.rs`
//! pins this per representation, epoch after epoch.

use crate::common::{fold_histories, histories_of};
use crate::og::{OgEdge, OgGraph};
use crate::ogc::OgcGraph;
use crate::rg::RgGraph;
use crate::ve::VeGraph;
use crate::AnyGraph;
use tgraph_core::graph::TGraph;
use tgraph_core::time::Interval;
use tgraph_dataflow::{Dataset, Runtime};

impl AnyGraph {
    /// The lifespan of the graph in its current representation.
    pub fn lifespan(&self) -> Interval {
        match self {
            AnyGraph::Rg(g) => g.lifespan,
            AnyGraph::Ve(g) => g.lifespan,
            AnyGraph::Og(g) => g.lifespan,
            AnyGraph::Ogc(g) => g.lifespan,
        }
    }

    /// Extends this graph with an ingested epoch's records (see the module
    /// docs).
    ///
    /// The caller guarantees the append invariant: every fact of `delta`
    /// starts at or after `self.lifespan().end`.
    pub fn append_epoch(&self, rt: &Runtime, delta: &TGraph) -> AnyGraph {
        if delta.vertices.is_empty() && delta.edges.is_empty() {
            return self.clone();
        }
        debug_assert!(
            delta
                .vertices
                .iter()
                .map(|v| v.interval)
                .chain(delta.edges.iter().map(|e| e.interval))
                .all(|iv| iv.start >= self.lifespan().end),
            "append invariant violated: delta fact starts before the boundary"
        );
        let lifespan = self.lifespan().hull(&delta.lifespan);
        match self {
            AnyGraph::Ve(g) => AnyGraph::Ve(VeGraph {
                lifespan,
                vertices: g
                    .vertices
                    .union(&Dataset::from_vec(rt, delta.vertices.clone())),
                edges: g.edges.union(&Dataset::from_vec(rt, delta.edges.clone())),
            }),
            AnyGraph::Rg(g) => AnyGraph::Rg(RgGraph {
                lifespan,
                snapshots: g
                    .snapshots
                    .union(&RgGraph::from_tgraph(rt, delta).snapshots),
            }),
            AnyGraph::Og(g) => {
                let (delta_vertices, delta_edges) = histories_of(delta.clone());
                let mut vertices = g.vertices.map(|v| (v.vid, v.history.clone())).collect(rt);
                fold_histories(&mut vertices, delta_vertices);
                // Only an edge's own history: its endpoints are shared again
                // from the folded vertex histories.
                let keyed = |e: &OgEdge| ((e.eid, e.src.vid, e.dst.vid), e.history.clone());
                let mut edges = g.edges.map(keyed).collect(rt);
                fold_histories(&mut edges, delta_edges);
                AnyGraph::Og(OgGraph::from_histories(rt, lifespan, vertices, edges))
            }
            AnyGraph::Ogc(g) => {
                let (delta_vertices, delta_edges) = histories_of(delta.clone());
                let (mut vertices, mut edges) = g.histories(rt);
                vertices.extend(delta_vertices);
                edges.extend(delta_edges);
                AnyGraph::Ogc(OgcGraph::from_histories(rt, lifespan, vertices, edges))
            }
        }
    }
}
