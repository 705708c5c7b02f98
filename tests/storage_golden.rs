//! The storage layer's format golden: `write_dataset` plus two
//! `append_epoch`s over a fixed generated graph, every file produced (the
//! base, both segments and the manifest) pinned as `len:checksum` in
//! `storage_golden.golden`. Bytes on disk are the contract
//! every storage refactor is held to: older datasets must keep loading.
//!
//! On a deliberate format change, run the test and paste the table it
//! prints into `storage_golden.golden`.

use tgraph_core::graph::TGraph;
use tgraph_core::time::Interval;
use tgraph_datagen::WikiTalk;
use tgraph_storage::{append_epoch, write_dataset};

const GOLDEN: &str = include_str!("storage_golden.golden");

/// The first `vertices`/`edges` records of `g`, moved `by` time points later.
fn shifted(g: &TGraph, by: i64, vertices: usize, edges: usize) -> TGraph {
    let later = |iv: Interval| Interval::new(iv.start + by, iv.end + by);
    let mut v = g.vertices[..vertices].to_vec();
    let mut e = g.edges[..edges].to_vec();
    v.iter_mut().for_each(|v| v.interval = later(v.interval));
    e.iter_mut().for_each(|e| e.interval = later(e.interval));
    TGraph::from_records(v, e)
}

#[test]
fn written_files_match_the_golden() {
    let dir = std::env::temp_dir().join("tgraph-tier1-storage-golden");
    let _ = std::fs::remove_dir_all(&dir);
    // Large enough that every section of every file spans more than one
    // 4096-row chunk.
    let base = WikiTalk {
        vertices: 5000,
        months: 12,
        edges_per_vertex: 3.0,
        edge_survival: 0.2,
        edit_count_values: 6,
        seed: 0x5EED,
    }
    .generate();
    assert!(base.vertices.len() > 4096 && base.edges.len() > 4096);
    write_dataset(&dir, "wiki", &base).expect("write dataset");
    let span = base.lifespan.end - base.lifespan.start;
    append_epoch(&dir, "wiki", &shifted(&base, span, 5000, 300)).expect("first append");
    append_epoch(&dir, "wiki", &shifted(&base, 2 * span, 40, 0)).expect("second append");

    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("list dataset directory")
        .map(|entry| entry.expect("directory entry").file_name())
        .map(|name| name.to_string_lossy().into_owned())
        .collect();
    names.sort();
    let actual: Vec<String> = names
        .iter()
        .map(|name| {
            let bytes = std::fs::read(dir.join(name)).expect("read back");
            format!(
                "{}:{:016x} {name}",
                bytes.len(),
                tgraph_dataflow::checksum(&bytes)
            )
        })
        .collect();
    let golden: Vec<&str> = GOLDEN.lines().filter(|l| !l.starts_with('#')).collect();
    assert!(
        actual == golden,
        "files diverge from tests/storage_golden.golden; actual table:\n{}",
        actual.join("\n")
    );
}
