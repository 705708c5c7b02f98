//! # tgraph-dataflow
//!
//! A shared-memory, partitioned **dataflow engine** providing the
//! second-order operators the paper's zoom algorithms are expressed in —
//! `map`, `flatMap`, `filter`, `groupBy`, `reduceByKey`, `join`, `semijoin` —
//! executed in parallel over a worker thread pool.
//!
//! This crate is the substitute for Apache Spark in the reproduction (see
//! `DESIGN.md`): datasets are immutable partitioned collections
//! ([`Dataset`]) executed under a **lazy, plan-based model**:
//!
//! * **Narrow transformations are deferred and fused.** `map`, `filter`,
//!   `flat_map`, `map_partitions`, and
//!   [`map_values`](KeyedDataset::map_values) run nothing; they extend a
//!   per-partition closure chain. The chain executes as a *single* pass per
//!   partition — one task wave, no intermediate partition allocations — when
//!   an action (`collect`, `count`, `fold`) or a shuffle boundary forces it.
//!   Sources lend their elements to the chain and operators give theirs
//!   away, so a consumer that keeps an element clones it only if a source
//!   still owns it (DESIGN.md §5).
//! * **Wide (keyed) transformations are the fusion boundaries.** They
//!   perform a real hash shuffle with per-partition bucket exchange, whose
//!   map side fuses with the pending narrow chain. The engine therefore
//!   preserves the data-movement asymmetries between the TGraph physical
//!   representations that the paper's experiments measure.
//! * **Shuffles are elided when provably redundant.** Shuffle outputs carry
//!   a [`Partitioning::HashByKey`] tag; tag-preserving operators (`filter`,
//!   `map_values`) keep it, and a keyed operator whose input already has the
//!   required tag skips its shuffle entirely — zero records moved.
//!
//! [`Runtime::stats`] exposes the executor accounting that makes all of this
//! observable: task waves launched, shuffle rounds executed and elided, and
//! records/approximate bytes moved.
//!
//! ```
//! use tgraph_dataflow::{Dataset, KeyedDataset, Runtime};
//!
//! let rt = Runtime::new(4);
//! let words = Dataset::from_vec(&rt, vec!["a", "b", "a", "c", "b", "a"]);
//! // Narrow ops build a deferred plan; reduce_by_key forces it in one pass.
//! let counts = words
//!     .map(|w| (*w, 1u64))
//!     .reduce_by_key(&rt, |x, y| x + y);
//! let mut result = counts.collect(&rt);
//! result.sort();
//! assert_eq!(result, vec![("a", 3), ("b", 2), ("c", 1)]);
//!
//! // A second reduce on the same key needs no shuffle: the output of the
//! // first is already hash-partitioned by key.
//! let before = rt.stats();
//! let _ = counts.reduce_by_key(&rt, |x, y| x + y).collect(&rt);
//! let delta = rt.stats().since(&before);
//! assert_eq!(delta.shuffles, 0);
//! assert_eq!(delta.shuffles_elided, 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Dataflow operator signatures nest tuples and Arcs deeply by design.
#![allow(clippy::type_complexity)]

pub mod cancel;
pub mod config;
pub mod dataset;
pub mod governor;
pub mod keyed;
pub mod lineage;
pub mod pool;
pub mod runtime;
pub mod spill;
pub mod sync;

pub use cancel::{CancelToken, Cancelled};
pub use config::EngineConfig;
pub use dataset::{Dataset, Partitioning};
pub use governor::{MemCharge, MemGovernor};
pub use keyed::{bucket_of, shuffle, KeyedDataset};
pub use lineage::{fnv1a, OpKind, PlanNode};
pub use runtime::{Runtime, RuntimeStats};
pub use spill::{
    charged_size, checked_count, checked_prop_count, checked_str_len, checksum, decode_records,
    too_wide, DecodeError, EncodeError, HeapSize, Spill, SpillError, SpillReader,
};
pub use sync::{lock_unpoisoned, wait_timeout_unpoisoned, wait_unpoisoned};
