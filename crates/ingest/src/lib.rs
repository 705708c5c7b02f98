//! Live ingest for TGraph: typed snapshot deltas, epoch appends, and
//! O(delta) incremental zoom maintenance.
//!
//! The subsystem has three pieces, stacked on the storage layer's epoch
//! segments ([`tgraph_storage::epochs`]):
//!
//! * [`SnapshotDelta`] — the validated unit of ingest: facts at or after
//!   the dataset's current lifespan end, with typed rejection
//!   ([`DeltaError`]) for empty intervals, out-of-order facts, and
//!   conflicting duplicates.
//! * [`AnyGraph::append_epoch`](tgraph_repr::AnyGraph::append_epoch) — the
//!   in-memory O(delta) extension of a resident representation, used by
//!   [`GraphPool::advance`](tgraph_storage::GraphPool::advance).
//! * [`patch`] — incremental result maintenance over a
//!   [`tgraph_query::Pipeline`]: `plan → suffix → execute → stitch`,
//!   byte-identical to a cold recompute. The pipeline says which window
//!   grids constrain the cut and [`Pipeline::execute`](tgraph_query::Pipeline::execute)
//!   runs both the cold and the suffix side, so the property suite in
//!   `tests/` (all four representations, with and without spilling) checks the
//!   loop `tgraph-serve` runs.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod delta;
pub mod patch;

pub use delta::{DeltaError, SnapshotDelta};
pub use patch::{
    apply_delta, maintain, patch_from_storage, stitch, suffix_input, MaintenanceOutcome, NoPatch,
    Patched,
};
pub use tgraph_core::zoom::maintenance::MaintenanceDecision;
