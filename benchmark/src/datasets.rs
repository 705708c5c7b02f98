//! The seeded datasets every workload sets up: the paper's three characters
//! (`wiki` growth-only vertices with short-lived edges, `snb` growth-only
//! with a high evolution rate, `ngrams` persistent vertices with churning
//! edges) plus the Fig. 13 high-change-frequency variant of `wiki`.
//!
//! Sizes are pinned; only the seed varies, so row counts stay within a
//! fraction of a percent between seeds.

use std::path::{Path, PathBuf};
use std::time::Instant;
use tgraph_core::time::Interval;
use tgraph_core::TGraph;
use tgraph_datagen::{inject_attribute_changes, NGrams, Snb, WikiTalk};
use tgraph_storage::write_dataset;

pub const WIKI_VERTICES: usize = 2_000;
pub const WIKI_MONTHS: u32 = 60;
/// `editCount` cardinality: the kernel-heavy aZoom groups into this many.
pub const WIKI_EDIT_COUNTS: u32 = 50;
pub const SNB_PERSONS: usize = 1_000;
pub const NGRAMS_VERTICES: usize = 640;
pub const NGRAMS_YEARS: u32 = 100;
/// Attribute-change period (time points) of the Fig. 13 variant.
pub const F13_PERIOD: u32 = 6;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    Wiki,
    Snb,
    Ngrams,
    WikiF13,
}

impl Dataset {
    /// Name on disk and on the wire.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Wiki => "wiki",
            Dataset::Snb => "snb",
            Dataset::Ngrams => "ngrams",
            Dataset::WikiF13 => "wiki_f13",
        }
    }

    /// The dataset family per-layer metric names use (`wiki_f13` is `wiki`).
    pub fn family(self) -> &'static str {
        match self {
            Dataset::WikiF13 => "wiki",
            other => other.name(),
        }
    }

    /// The natural `aZoom` grouping attribute of §5.1.
    pub fn natural_key(self) -> &'static str {
        match self {
            Dataset::Wiki | Dataset::WikiF13 => "name",
            Dataset::Snb => "firstName",
            Dataset::Ngrams => "word",
        }
    }

    pub fn generate(self, seed: u64, scale: f64) -> TGraph {
        let n = |base: usize| ((base as f64 * scale) as usize).max(64);
        match self {
            Dataset::Wiki => WikiTalk {
                vertices: n(WIKI_VERTICES),
                months: WIKI_MONTHS,
                edit_count_values: WIKI_EDIT_COUNTS,
                seed: seed ^ 0x1111,
                ..WikiTalk::default()
            }
            .generate(),
            Dataset::Snb => Snb {
                persons: n(SNB_PERSONS),
                seed: seed ^ 0x5b5b,
                ..Snb::default()
            }
            .generate(),
            Dataset::Ngrams => NGrams {
                vertices: n(NGRAMS_VERTICES),
                years: NGRAMS_YEARS,
                seed: seed ^ 0x9ea5,
                ..NGrams::default()
            }
            .generate(),
            Dataset::WikiF13 => {
                inject_attribute_changes(&Dataset::Wiki.generate(seed, scale), F13_PERIOD)
            }
        }
    }
}

/// A data directory under the benchmark's own `out/`, removed when dropped.
pub struct DataDir {
    pub path: PathBuf,
}

impl DataDir {
    pub fn create(out_dir: &Path, label: &str) -> Result<Self, String> {
        let path = out_dir.join(format!("data-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(DataDir { path })
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// What set-up learned while writing the datasets.
#[derive(Clone, Debug, Default)]
pub struct Written {
    pub generate_s: f64,
    pub write_s: f64,
    /// Vertex + edge tuples over all datasets written.
    pub rows: u64,
    /// The graphs themselves are dropped once written: `paper_batch` is its
    /// own process under test and must not carry them in its peak memory.
    pub lifespans: Vec<(Dataset, Interval)>,
}

/// Generates and writes `datasets` into `dir`.
pub fn write_all(
    dir: &Path,
    datasets: &[Dataset],
    seed: u64,
    scale: f64,
) -> Result<Written, String> {
    let mut w = Written::default();
    for ds in datasets {
        let t = Instant::now();
        let g = ds.generate(seed, scale);
        w.generate_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        write_dataset(dir, ds.name(), &g).map_err(|e| format!("write {}: {e}", ds.name()))?;
        w.write_s += t.elapsed().as_secs_f64();
        w.rows += (g.vertices.len() + g.edges.len()) as u64;
        w.lifespans.push((*ds, g.lifespan));
    }
    Ok(w)
}

/// Bytes on disk per stored tuple, for each of the three encodings
/// (`temporal`, `structural`, `nested`) summed over the written datasets.
pub fn bytes_per_row(dir: &Path, w: &Written) -> [(&'static str, f64); 3] {
    let size = |suffix: &str| -> u64 {
        w.lifespans
            .iter()
            .filter_map(|(ds, _)| {
                std::fs::metadata(dir.join(format!("{}.{suffix}", ds.name()))).ok()
            })
            .map(|m| m.len())
            .sum()
    };
    let rows = w.rows.max(1) as f64;
    [
        ("temporal", size("temporal.tgc") as f64 / rows),
        ("structural", size("structural.tgc") as f64 / rows),
        ("nested", size("tgo") as f64 / rows),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_graph_and_natural_keys_exist() {
        for ds in [
            Dataset::Wiki,
            Dataset::Snb,
            Dataset::Ngrams,
            Dataset::WikiF13,
        ] {
            let a = ds.generate(3, 0.1);
            let b = ds.generate(3, 0.1);
            assert_eq!(a.vertices, b.vertices, "{ds:?}");
            assert_eq!(a.edges, b.edges, "{ds:?}");
            assert!(a
                .vertices
                .iter()
                .all(|v| v.props.get(ds.natural_key()).is_some()));
        }
        assert_ne!(
            Dataset::Wiki.generate(3, 0.1).edges,
            Dataset::Wiki.generate(4, 0.1).edges
        );
    }
}
