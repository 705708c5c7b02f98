//! # tgraph-bench
//!
//! The benchmark harness regenerating every table and figure of the paper's
//! evaluation (§5). See the experiment index in `DESIGN.md`.
//!
//! The crate's two binaries (`cargo run --release -p tgraph-bench --bin …`):
//!
//! * `experiments -- all` prints the paper-shaped series for every figure;
//! * `tgraph-loadgen` drives a running `tgraph-serve` closed loop and
//!   reports its latency under load.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod datasets;
pub mod experiments;
pub mod harness;
pub mod runner;

pub use experiments::ExpConfig;
pub use harness::{measure, time_it, Cell, Table};
