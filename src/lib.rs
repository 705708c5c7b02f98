//! # tgraph
//!
//! A from-scratch Rust implementation of **temporal zoom operators over
//! evolving property graphs**, reproducing *"Zooming Out on an Evolving
//! Graph"* (Aghasadeghi, Moffitt, Schelter, Stoyanovich — EDBT 2020).
//!
//! An evolving property graph (**TGraph**) records the history of changes of
//! graph topology and attribute values over time. Two operators change its
//! resolution during exploratory analysis:
//!
//! * **`aZoom^T`** (attribute-based zoom) changes *structural* resolution:
//!   nodes that agree on grouping attributes collapse into new nodes (e.g.
//!   people into their schools), edges are re-pointed, and aggregates such as
//!   counts are computed — all under point semantics, per snapshot, with the
//!   result temporally coalesced.
//! * **`wZoom^T`** (temporal window-based zoom) changes *temporal*
//!   resolution: each entity's states within a window (e.g. a quarter)
//!   collapse to one representative state, gated by existence quantifiers
//!   (`all` / `most` / `at least n` / `exists`) and resolved by window
//!   aggregation functions (`first` / `last` / `any`).
//!
//! The system implements four physical representations with different
//! temporal/structural locality trade-offs (**RG**, **VE**, **OG**, **OGC**),
//! a partitioned multi-threaded dataflow engine standing in for Apache
//! Spark, a columnar storage layer with predicate pushdown standing in for
//! Parquet/HDFS, dataset generators standing in for WikiTalk/NGrams/LDBC-SNB,
//! and a benchmark harness regenerating every figure of the paper's
//! evaluation. See `README.md`, `DESIGN.md` and `EXPERIMENTS.md`.
//!
//! ## Quickstart
//!
//! ```
//! use tgraph::prelude::*;
//!
//! // The paper's running example (Figure 1): Ann, Bob, Cat and their
//! // co-authorship, with schools as vertex attributes.
//! let g = tgraph::core::graph::figure1_graph_stable_ids();
//! let rt = Runtime::new(4);
//!
//! // Figure 2: zoom from people to schools, counting students.
//! let schools = Pipeline::new()
//!     .azoom(AZoomSpec::by_property("school", "school", vec![AggSpec::count("students")]))
//!     .collect(&rt, AnyGraph::load(&rt, &g, ReprKind::Og));
//! assert_eq!(schools.distinct_vertex_count(), 2); // MIT, CMU
//!
//! // Figure 3: zoom from months to quarters, keeping entities present the
//! // entire quarter.
//! let quarters = Pipeline::new()
//!     .wzoom(WZoomSpec::points(3, Quantifier::All, Quantifier::All))
//!     .collect(&rt, AnyGraph::load(&rt, &g, ReprKind::Ve));
//! assert!(quarters.lifespan.len() >= 9);
//! ```

pub use tgraph_core as core;
pub use tgraph_dataflow as dataflow;
pub use tgraph_datagen as datagen;
pub use tgraph_query as query;
pub use tgraph_repr as repr;
pub use tgraph_storage as storage;

/// Convenient single-import surface for applications.
pub mod prelude {
    pub use tgraph_core::graph::{EdgeRecord, StaticGraph, TGraph, VertexRecord};
    pub use tgraph_core::props::{Props, Value};
    pub use tgraph_core::time::{Interval, Time};
    pub use tgraph_core::zoom::{
        AZoomSpec, AggFn, AggSpec, Quantifier, ResolveFn, Skolem, WZoomSpec, WindowSpec,
    };
    pub use tgraph_dataflow::Runtime;
    pub use tgraph_query::Pipeline;
    pub use tgraph_repr::{AnyGraph, OgGraph, OgcGraph, ReprKind, RgGraph, VeGraph};
    pub use tgraph_storage::GraphLoader;
}
