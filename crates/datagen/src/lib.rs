//! # tgraph-datagen
//!
//! Deterministic synthetic generators for the evolving-graph workloads of
//! the paper's evaluation (§5), plus the workload transformations its
//! controlled experiments apply and the dataset statistics it reports.
//!
//! * [`generators::WikiTalk`] — sparse messaging graph: growth-only vertices
//!   with immutable attributes, short-lived edges, low evolution rate.
//! * [`generators::NGrams`] — word co-occurrence graph: persistent vertices,
//!   churning edges, many snapshots.
//! * [`generators::Snb`] — LDBC-SNB-shaped friendship network: strictly
//!   growth-only, very high evolution rate.
//! * [`transform`] — snapshot coarsening (Fig. 11), random group projection
//!   (Figs. 12/17), attribute-change injection (Fig. 13).
//! * [`stats`] — vertices / edges / snapshots / evolution-rate summary.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod generators;
pub mod stats;
pub mod transform;

pub use generators::{NGrams, Snb, WikiTalk};
pub use stats::{graph_stats, GraphStats};
pub use transform::{coarsen_time, inject_attribute_changes, project_random_groups};
