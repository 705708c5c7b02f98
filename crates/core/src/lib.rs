//! # tgraph-core
//!
//! The logical model of an **evolving property graph** (TGraph) and the
//! specifications of the two temporal **zoom operators** from
//! *"Zooming Out on an Evolving Graph"* (EDBT 2020):
//!
//! * [`zoom::AZoomSpec`] — temporal attribute-based zoom (`aZoom^T`), which
//!   changes *structural* resolution by creating nodes from groups of nodes
//!   (e.g. collapsing people into their schools, Figure 2 of the paper);
//! * [`zoom::WZoomSpec`] — temporal window-based zoom (`wZoom^T`), which
//!   changes *temporal* resolution by collapsing each entity's states within
//!   a window to one representative state (e.g. months into quarters,
//!   Figure 3 of the paper).
//!
//! A TGraph associates every node, edge and property value with periods of
//! validity over a discrete time domain, and operates under **point
//! semantics**: operator results are defined per time point and then
//! temporally [coalesced](coalesce) into maximal intervals.
//!
//! This crate contains everything representation-independent:
//!
//! | module | contents |
//! |---|---|
//! | [`time`] | time domain, closed-open [`Interval`]s, interval algebra |
//! | [`props`] | typed property values and immutable property sets |
//! | [`graph`] | vertex/edge facts, the logical [`TGraph`], snapshots |
//! | [`coalesce`] | temporal coalescing (§4): the partitioning method per key, one sort and a fold per collected relation |
//! | [`splitter`] | temporal alignment / splitters, window alignment |
//! | [`bitset`] | packed bitsets for the OGC representation |
//! | [`validate`] | Definition 2.1 validity checking |
//! | [`zoom`] | operator specifications (Skolem, aggregation, windows, quantifiers) |
//! | [`reference`](mod@reference) | literal point-semantics evaluators used as the testing oracle |
//!
//! The four physical representations (RG, VE, OG, OGC) and their dataflow
//! operator plans live in the `tgraph-repr` crate.
//!
//! ## Quick example
//!
//! ```
//! use tgraph_core::graph::figure1_graph_stable_ids;
//! use tgraph_core::reference::azoom_reference;
//! use tgraph_core::zoom::{AZoomSpec, AggSpec};
//!
//! // Zoom the paper's running example from people to schools (Figure 2).
//! let g = figure1_graph_stable_ids();
//! let spec = AZoomSpec::by_property("school", "school", vec![AggSpec::count("students")]);
//! let zoomed = azoom_reference(&g, &spec);
//! assert_eq!(zoomed.distinct_vertex_count(), 2); // MIT and CMU
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Dataflow operator signatures nest tuples and Arcs deeply by design.
#![allow(clippy::type_complexity)]

pub mod bitset;
pub mod coalesce;
pub mod graph;
pub mod props;
pub mod reference;
pub mod spill;
pub mod splitter;
pub mod time;
pub mod validate;
pub mod zoom;

pub use graph::{EdgeId, EdgeRecord, StaticGraph, TGraph, VertexId, VertexRecord};
pub use props::{Key, Props, Value, TYPE_KEY};
pub use time::{Interval, Time};
