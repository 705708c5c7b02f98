//! # tgraph-serve
//!
//! A concurrent zoom-query service over evolving graphs: the serving layer
//! the ROADMAP's "heavy traffic" north star asks for, built on the lazy
//! plan-based dataflow engine and its reified lineage DAGs.
//!
//! The server speaks **newline-delimited JSON** over TCP ([`protocol`]).
//! One connection layer ([`eventloop`]: reactors, pipelined batches,
//! backpressure) moves the bytes; [`server`] dispatches each request line
//! to the role module that handles it (zoom path, ingest writer, rendering;
//! each owns the state it locks) and is the same code whether a line
//! arrives over a socket or through [`Server::handle_line`]. One process
//! answers every request: named graphs are loaded from a dataset directory
//! once and shared across all sessions via the storage layer's
//! [`GraphPool`]; zoom requests parse into `tgraph-query` pipelines and
//! execute on one shared dataflow [`Runtime`]. Three mechanisms make it a
//! serving system rather than a batch runner:
//!
//! 1. **Result caching** ([`cache`]): a result is named by what was asked
//!    and when. Each query's cache key is the request's canonical form and
//!    its entry carries the dataset epoch it answers (the response's
//!    `fingerprint` is the FNV-1a of `epoch=N;` + that text); answers are
//!    memoized as serialized bytes under a byte budget that keeps the
//!    answers worth most per byte (aged request count times the work the
//!    plan counted), so a repeated zoom replays byte-identical output
//!    without touching the worker pool, and after an ingest the older
//!    answer's bytes, read back into its result graph, are the seed the
//!    patch path stitches.
//! 2. **Admission control and deadlines** ([`admission`]): a bounded
//!    in-flight semaphore with a bounded waiting queue; per-request
//!    deadlines propagate into the dataflow runtime as a
//!    [`CancelToken`](tgraph_dataflow::CancelToken), so task waves check the
//!    token between partitions and an expired query stops consuming workers
//!    mid-wave.
//! 3. **Observability** ([`metrics`]): a `stats` request returns request
//!    counters, cache hit/miss/eviction/declined accounting, admission
//!    queue depths, log2 latency histograms (p50/p95/p99), and the runtime's
//!    data-movement counters.
//!
//! The closed-loop load generator `tgraph-loadgen` (in `crates/bench`)
//! drives this protocol for throughput/latency benchmarking, in CI too.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::too_many_lines)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod admission;
pub mod cache;
mod chooser;
pub mod eventloop;
mod handoff;
mod ingest;
pub mod json;
pub mod metrics;
pub mod protocol;
mod reactor;
mod render;
pub mod server;
mod zoom;

pub use admission::{Admission, AdmissionStats, AdmitError, Permit};
pub use cache::{CacheStats, ResultCache};
pub use json::Json;
pub use metrics::{Histogram, ServerMetrics};
pub use protocol::{parse_request, BadRequest, Request, ZoomRequest};
pub use render::{read_tgraph, serialize_tgraph};
pub use server::{Server, ServerConfig, MAX_LINE_BYTES};

#[doc(no_inline)]
pub use tgraph_storage::GraphPool;
