//! Live ingest for TGraph: typed snapshot deltas, epoch appends, and
//! O(delta) incremental zoom maintenance.
//!
//! The subsystem has three pieces, stacked on the storage layer's epoch
//! segments ([`tgraph_storage::epochs`]):
//!
//! * [`SnapshotDelta`] — the validated unit of ingest: facts at or after
//!   the dataset's current lifespan end, with typed rejection
//!   ([`DeltaError`]) of three kinds: a fact before the boundary
//!   (`OutOfOrder`), a property set wider than the record codec
//!   (`TooWide`), and a delta that is not a valid TGraph under
//!   [`tgraph_core::validate`] (`Invalid`).
//! * [`AnyGraph::append_epoch`](tgraph_repr::AnyGraph::append_epoch) — how
//!   a resident representation reaches the next epoch without a reload
//!   (VE and RG extend, OG and OGC are rebuilt through their constructors),
//!   used by [`GraphPool::advance`](tgraph_storage::GraphPool::advance).
//! * [`patch`] — incremental result maintenance over a
//!   [`tgraph_query::Pipeline`]: `plan → suffix → execute → stitch`,
//!   byte-identical to a cold recompute. The pipeline says which window
//!   grids constrain the cut and [`Pipeline::execute`](tgraph_query::Pipeline::execute)
//!   runs both the cold and the suffix side; the property suite in `tests/`
//!   (all four representations, with and without spilling) calls
//!   [`patch_from_storage`], the function `tgraph-serve` calls. The cached
//!   result comes in as a [`Seed`], asked for its graph only once the
//!   planner has decided to patch.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod delta;
pub mod patch;

pub use delta::{DeltaError, SnapshotDelta};
pub use patch::{patch_from_storage, stitch, NoPatch, Patched, Seed};
pub use tgraph_core::zoom::maintenance::MaintenanceDecision;
