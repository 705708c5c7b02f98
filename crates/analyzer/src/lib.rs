//! # tgraph-analyze
//!
//! The correctness layer over the lazy dataflow engine: a **static plan
//! verifier**.
//!
//! PR 1 made keyed operators elide shuffles whenever a
//! [`Partitioning::HashByKey`](tgraph_dataflow::Partitioning) tag claims the
//! data is already placed — but a wrong tag silently produces wrong
//! `aZoom^T`/`wZoom^T` results *while making benchmarks faster*. This crate
//! closes that hole from two directions:
//!
//! * [`verify::analyze`] walks the reified plan DAG
//!   ([`PlanNode`](tgraph_dataflow::PlanNode)) carried by every
//!   [`Dataset`](tgraph_dataflow::Dataset) and proves every elided exchange
//!   and partitioning claim *derivable* from the plan structure — rejecting
//!   unsound plans, flagging redundant work (duplicate subplans, redundant
//!   reshuffles, fusion breaks), and rendering an EXPLAIN tree whose row
//!   counts are measured, not estimated: each exchange shows the records
//!   it moved.
//! * **Checked execution mode** (`TGRAPH_CHECKED=1`, see
//!   [`Runtime::checked`](tgraph_dataflow::Runtime::checked)) verifies the
//!   same claims dynamically, record by record, at every elision point — and
//!   representation switches validate their TGraph against Definition 2.1.
//!
//! Source-level rules are not this crate's business: `unwrap`/`expect` in
//! library crates and poison recovery outside `tgraph_dataflow::sync` are
//! clippy errors (crate-root `deny`s and the root `clippy.toml`), raw
//! re-tagging and eager collects inside operators are rustc errors.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod verify;

pub use verify::{analyze, analyze_all, Analysis, Diagnostic, DiagnosticKind, Severity};
