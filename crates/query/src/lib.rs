//! # tgraph-query
//!
//! The operator-chaining layer of the system (§4): pipelines of `aZoom^T` /
//! `wZoom^T` steps over any physical representation, **representation
//! switching** mid-query (§5.3), and the **lazy coalescing** optimization —
//! coalesce only before `wZoom^T` (which computes across snapshots and needs
//! maximal intervals for correctness) and once at the end of the pipeline,
//! never after `aZoom^T` (which computes within snapshots and is
//! insensitive to fragmentation).
//!
//! ```
//! use tgraph_core::graph::figure1_graph_stable_ids;
//! use tgraph_core::zoom::{AZoomSpec, AggSpec, Quantifier, WZoomSpec};
//! use tgraph_dataflow::Runtime;
//! use tgraph_query::Pipeline;
//! use tgraph_repr::{AnyGraph, ReprKind};
//!
//! let rt = Runtime::new(2);
//! let g = figure1_graph_stable_ids();
//! let zoomed = Pipeline::new()
//!     .azoom(AZoomSpec::by_property("school", "school", vec![AggSpec::count("students")]))
//!     .switch_to(ReprKind::Og)
//!     .wzoom(WZoomSpec::points(3, Quantifier::Exists, Quantifier::Exists))
//!     .collect(&rt, AnyGraph::load(&rt, &g, ReprKind::Ve));
//! assert_eq!(zoomed.distinct_vertex_count(), 2); // MIT, CMU
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod pipeline;

pub use pipeline::{coalesce_any, Pipeline, Step};
