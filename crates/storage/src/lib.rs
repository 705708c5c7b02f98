//! # tgraph-storage
//!
//! Columnar on-disk storage for evolving graphs — the local-filesystem
//! substitute for the paper's Parquet-on-HDFS layer (§4, "Data loading").
//!
//! * [`format`](mod@format) — the flat `.tgc` format: chunked rows, sorted by
//!   entity id then start, with min/max time statistics and **time-range
//!   predicate pushdown**. It is the one file of a dataset (and of each
//!   epoch segment): the entity order keeps every history in adjacent rows,
//!   so the paper's nested copy for OG/OGC is not written.
//! * [`loader`] — the `GraphLoader` that initializes any of the four
//!   physical representations from that file with an optional date-range
//!   filter.
//! * [`pool`] — the load-once [`GraphPool`]: `Arc`-shared graph handles for
//!   long-lived processes (the serving layer) with single-flight loading.
//!
//! A row is written and read in the record codec of `tgraph-core`'s
//! `spill` module, through the same `SpillReader` that reads spill runs and
//! serialized shuffles: [`DecodeError`] and [`EncodeError`] are that
//! codec's errors, re-exported here from `tgraph-dataflow`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod epochs;
pub mod format;
pub mod loader;
pub mod pool;

pub use epochs::{append_epoch, current_end, read_epochs, EpochEntry};
pub use format::{
    read_tgc, read_tgc_stats, write_tgc, ChunkStats, ScanStats, StorageError, TgcStats,
};
pub use loader::{write_dataset, GraphLoader};
pub use pool::{GraphPool, PoolStats, SharedGraph};
pub use tgraph_dataflow::{DecodeError, EncodeError};
