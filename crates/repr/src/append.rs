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
//! * **OG**, **OGC** — the resident's rows laid flat as they are held (one
//!   fact per state of an OG history, per set bit of an OGC row; no sort),
//!   followed by the delta's, go through [`AnyGraph::from_tgraph`] with
//!   the hull lifespan: the constructor a load uses groups and coalesces
//!   them in its one sort (a state continuing across the boundary merges
//!   back into one interval) and builds the graph again, OG's shared
//!   endpoints and OGC's interval table included.
//!
//! An OG or OGC resident therefore stays what a load produces, a
//! materialized source: its lineage does not deepen with the number of
//! epochs and a later zoom re-executes no earlier append. The cost is a
//! collect of the resident's rows and the constructor's sort over them. In
//! every case `append(load(base), delta) ≡
//! load(base ∪ delta)` *as a logical TGraph* — physical layouts (partition
//! boundaries, gap snapshots) may differ, which downstream coalescing and
//! the deterministic result serialization wash out; `tests/append_epochs.rs`
//! pins this per representation, epoch after epoch.

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
        let mut rows = match self {
            AnyGraph::Ve(g) => {
                return AnyGraph::Ve(VeGraph {
                    lifespan,
                    vertices: g
                        .vertices
                        .union(&Dataset::from_vec(rt, delta.vertices.clone())),
                    edges: g.edges.union(&Dataset::from_vec(rt, delta.edges.clone())),
                })
            }
            AnyGraph::Rg(g) => {
                return AnyGraph::Rg(RgGraph {
                    lifespan,
                    snapshots: g
                        .snapshots
                        .union(&RgGraph::from_tgraph(rt, delta.clone()).snapshots),
                })
            }
            AnyGraph::Og(g) => g.rows(rt),
            AnyGraph::Ogc(g) => g.rows(rt),
        };
        rows.lifespan = lifespan;
        rows.vertices.extend(delta.vertices.iter().cloned());
        rows.edges.extend(delta.edges.iter().cloned());
        AnyGraph::from_tgraph(rt, rows, self.kind())
    }
}
