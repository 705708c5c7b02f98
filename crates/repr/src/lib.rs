//! # tgraph-repr
//!
//! The four **physical representations** of a TGraph from §3 of the paper,
//! each with dataflow implementations of the zoom operators:
//!
//! | representation | module | locality | `aZoom^T` | `wZoom^T` |
//! |---|---|---|---|---|
//! | Representative Graphs (sequence of snapshots) | [`rg`] | structural | Alg. 1 | Alg. 4 |
//! | Vertex–Edge (nested temporal relations) | [`ve`] | none by default | Alg. 2 | Alg. 5 |
//! | One Graph (per-entity history arrays) | [`og`] | temporal + structural | Alg. 3 | Alg. 6 |
//! | One Graph Columnar (topology bitsets) | [`ogc`] | temporal + structural | unsupported | bitwise |
//!
//! All representations convert to and from the logical
//! [`TGraph`](tgraph_core::TGraph) (see [`convert`]) and agree with the
//! point-semantics reference evaluators in `tgraph_core::reference` — that
//! equivalence is what the test suites of these modules check.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Dataflow operator signatures nest tuples and Arcs deeply by design.
#![allow(clippy::type_complexity)]

pub mod append;
mod common;
pub mod convert;
pub mod og;
pub mod ogc;
pub mod rg;
pub mod spill;
pub mod ve;

pub use convert::AnyGraph;
pub use og::OgGraph;
pub use ogc::OgcGraph;
pub use rg::RgGraph;
pub use ve::VeGraph;

/// Identifies a physical representation — used by the query layer to express
/// representation switching (§5.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReprKind {
    /// Representative Graphs: a sequence of snapshots.
    Rg,
    /// Vertex–Edge temporal relations.
    Ve,
    /// One Graph with history arrays.
    Og,
    /// One Graph Columnar (topology-only bitsets).
    Ogc,
}

impl ReprKind {
    /// Whether the representation supports `aZoom^T` (OGC does not store
    /// attributes, §3.1).
    pub fn supports_azoom(&self) -> bool {
        !matches!(self, ReprKind::Ogc)
    }

    /// All four representations.
    pub fn all() -> [ReprKind; 4] {
        [ReprKind::Rg, ReprKind::Ve, ReprKind::Og, ReprKind::Ogc]
    }
}

impl std::fmt::Display for ReprKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ReprKind::Rg => "RG",
            ReprKind::Ve => "VE",
            ReprKind::Og => "OG",
            ReprKind::Ogc => "OGC",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for ReprKind {
    type Err = String;

    /// Case-insensitive: `Display` prints uppercase, the serving protocol
    /// prints lowercase, and both spellings read back.
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "rg" => Ok(ReprKind::Rg),
            "ve" => Ok(ReprKind::Ve),
            "og" => Ok(ReprKind::Og),
            "ogc" => Ok(ReprKind::Ogc),
            other => Err(format!("unknown repr '{other}' (expected rg|ve|og|ogc)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::ReprKind;

    #[test]
    fn repr_kind_reads_back_in_either_case() {
        for kind in ReprKind::all() {
            let upper = kind.to_string();
            assert_eq!(upper.parse::<ReprKind>(), Ok(kind));
            assert_eq!(upper.to_ascii_lowercase().parse::<ReprKind>(), Ok(kind));
        }
        assert_eq!(
            "XG".parse::<ReprKind>(),
            Err("unknown repr 'xg' (expected rg|ve|og|ogc)".to_string())
        );
    }
}
