//! Append-path epochs: the on-disk layout that lets ingest extend a dataset
//! without rewriting its history.
//!
//! A dataset directory starts as the base file, `<name>.temporal.tgc`,
//! which this module calls **epoch 0** (the base). Each ingested delta
//! becomes a numbered **segment**: the same file under
//! `<name>.e<N>.temporal.tgc`, carrying only that epoch's records
//! with their own header and chunk statistics (so `read_tgc_stats` over a
//! segment is exactly as truthful as over the base, and a suffix load can
//! push a time range down into every file independently).
//!
//! The `<name>.epochs` manifest lists committed epochs, one line each:
//!
//! ```text
//! <epoch> <since> <end> <vertices> <edges>
//! ```
//!
//! `since` is the dataset's lifespan end when the epoch was appended — the
//! boundary every fact of the segment starts at or after — and `end` is the
//! lifespan end afterwards. The manifest is replaced atomically
//! (write-to-temp then rename), so readers see either the old epoch list or
//! the new one, never a torn line; the segment file is fully written and
//! synced to disk *before* the manifest names it, and the directory is
//! synced after the rename, so a manifest entry implies a readable segment,
//! a power loss included. There is one writer by design (the serve layer's
//! ingest lock); this module adds crash-atomicity, not multi-writer
//! coordination.

use crate::format::StorageError;
use crate::loader::{flat_path, write_stem};
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use tgraph_core::graph::TGraph;
use tgraph_core::time::Time;

/// One committed epoch of a dataset, as recorded in the manifest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochEntry {
    /// Epoch number (1-based; the base layout is epoch 0).
    pub epoch: u64,
    /// Dataset lifespan end when this epoch was appended: every fact of the
    /// segment starts at or after this boundary.
    pub since: Time,
    /// Dataset lifespan end after this epoch.
    pub end: Time,
    /// Vertex records in the segment.
    pub vertices: u64,
    /// Edge records in the segment.
    pub edges: u64,
}

fn manifest_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.epochs"))
}

/// The file-name stem of an epoch's segment (`<stem>.temporal.tgc`).
pub fn segment_stem(name: &str, epoch: u64) -> String {
    format!("{name}.e{epoch}")
}

/// Reads the epoch manifest of `dataset` under `dir`. A dataset that has
/// never been appended to has no manifest file; that reads as an empty list
/// (base only).
pub fn read_epochs(dir: &Path, name: &str) -> Result<Vec<EpochEntry>, StorageError> {
    let text = match std::fs::read_to_string(manifest_path(dir, name)) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let parse = |s: &str| -> Result<i64, StorageError> {
            s.parse().map_err(|_| {
                StorageError::Epoch(format!("manifest line {}: bad field {s:?}", i + 1))
            })
        };
        if fields.len() != 5 {
            return Err(StorageError::Epoch(format!(
                "manifest line {}: expected 5 fields, got {}",
                i + 1,
                fields.len()
            )));
        }
        let entry = EpochEntry {
            epoch: parse(fields[0])? as u64,
            since: parse(fields[1])?,
            end: parse(fields[2])?,
            vertices: parse(fields[3])? as u64,
            edges: parse(fields[4])? as u64,
        };
        let expected = entries.len() as u64 + 1;
        if entry.epoch != expected {
            return Err(StorageError::Epoch(format!(
                "manifest line {}: epoch {} out of sequence (expected {expected})",
                i + 1,
                entry.epoch
            )));
        }
        entries.push(entry);
    }
    Ok(entries)
}

/// The dataset's current lifespan end, combining the base file's declared
/// lifespan with every committed epoch. This is the boundary the next
/// ingested delta must start at or after.
pub fn current_end(dir: &Path, name: &str) -> Result<Time, StorageError> {
    if let Some(last) = read_epochs(dir, name)?.last() {
        return Ok(last.end);
    }
    let stats = crate::read_tgc_stats(&flat_path(dir, name))?;
    Ok(stats.lifespan.end)
}

fn atomic_write(path: &Path, contents: &str) -> Result<(), StorageError> {
    let tmp = path.with_extension("epochs.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Commits `delta` as the dataset's next epoch: writes the segment file,
/// then atomically appends the manifest line. Returns the committed entry.
///
/// Fails with [`StorageError::Epoch`] if any delta fact starts before the
/// dataset's current end — the append invariant that makes incremental zoom
/// maintenance sound. An empty delta is valid and commits an empty segment
/// (it still advances the epoch number, and with it every cache generation).
pub fn append_epoch(dir: &Path, name: &str, delta: &TGraph) -> Result<EpochEntry, StorageError> {
    let entries = read_epochs(dir, name)?;
    let since = current_end(dir, name)?;
    if let Some(first) = delta
        .vertices
        .iter()
        .map(|v| v.interval.start)
        .chain(delta.edges.iter().map(|e| e.interval.start))
        .min()
    {
        if first < since {
            return Err(StorageError::Epoch(format!(
                "delta fact starts at {first}, before the dataset's current end {since}"
            )));
        }
    }
    let epoch = entries.last().map_or(0, |e| e.epoch) + 1;
    let end = if delta.lifespan.is_empty() {
        since
    } else {
        since.max(delta.lifespan.end)
    };

    // Segment first, manifest last: a crash between the two leaves an orphan
    // segment file the manifest never names — invisible to readers. The
    // writer ends in a flush to the page cache; the bytes are forced to disk
    // here, before any manifest can name them.
    let stem = segment_stem(name, epoch);
    write_stem(dir, &stem, delta)?;
    File::open(flat_path(dir, &stem))?.sync_all()?;

    let entry = EpochEntry {
        epoch,
        since,
        end,
        vertices: delta.vertices.len() as u64,
        edges: delta.edges.len() as u64,
    };
    let mut text = String::new();
    for e in entries.iter().chain(std::iter::once(&entry)) {
        text.push_str(&format!(
            "{} {} {} {} {}\n",
            e.epoch, e.since, e.end, e.vertices, e.edges
        ));
    }
    atomic_write(&manifest_path(dir, name), &text)?;
    // The rename is durable once the directory holding both names is.
    File::open(dir)?.sync_all()?;
    Ok(entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::write_dataset;
    use tgraph_core::graph::{figure1_graph_stable_ids, VertexId, VertexRecord};
    use tgraph_core::props::Props;
    use tgraph_core::time::Interval;

    fn setup(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tgc-epoch-tests");
        write_dataset(&dir, name, &figure1_graph_stable_ids()).unwrap();
        let _ = std::fs::remove_file(manifest_path(&dir, name));
        dir
    }

    fn delta_at(start: Time) -> TGraph {
        TGraph::from_records(
            vec![VertexRecord {
                vid: VertexId(40),
                interval: Interval::new(start, start + 2),
                props: Props::typed("person"),
            }],
            Vec::new(),
        )
    }

    #[test]
    fn base_dataset_reads_as_epoch_zero() {
        let dir = setup("e1");
        assert!(read_epochs(&dir, "e1").unwrap().is_empty());
        // Figure 1's lifespan ends at 9.
        assert_eq!(current_end(&dir, "e1").unwrap(), 9);
    }

    #[test]
    fn append_commits_segments_and_manifest() {
        let dir = setup("e2");
        let entry = append_epoch(&dir, "e2", &delta_at(9)).unwrap();
        assert_eq!((entry.epoch, entry.since, entry.end), (1, 9, 11));
        assert_eq!(current_end(&dir, "e2").unwrap(), 11);
        // The segment exists with truthful headers.
        let stats = crate::read_tgc_stats(&dir.join("e2.e1.temporal.tgc")).unwrap();
        assert_eq!(stats.lifespan, Interval::new(9, 11));
        let entry2 = append_epoch(&dir, "e2", &delta_at(11)).unwrap();
        assert_eq!((entry2.epoch, entry2.since), (2, 11));
        assert_eq!(read_epochs(&dir, "e2").unwrap().len(), 2);
    }

    #[test]
    fn append_before_current_end_is_rejected() {
        let dir = setup("e3");
        match append_epoch(&dir, "e3", &delta_at(5)) {
            Err(StorageError::Epoch(msg)) => assert!(msg.contains("before")),
            other => panic!("expected epoch error, got {:?}", other.map(|_| ())),
        }
        assert!(
            read_epochs(&dir, "e3").unwrap().is_empty(),
            "nothing committed"
        );
    }

    #[test]
    fn empty_delta_advances_the_epoch_without_moving_time() {
        let dir = setup("e4");
        let empty = TGraph::from_records(Vec::new(), Vec::new());
        let entry = append_epoch(&dir, "e4", &empty).unwrap();
        assert_eq!((entry.epoch, entry.since, entry.end), (1, 9, 9));
        assert_eq!(current_end(&dir, "e4").unwrap(), 9);
    }

    #[test]
    fn corrupt_manifest_is_a_typed_error() {
        let dir = setup("e5");
        std::fs::write(manifest_path(&dir, "e5"), "1 nine 11 1 0\n").unwrap();
        assert!(matches!(
            read_epochs(&dir, "e5"),
            Err(StorageError::Epoch(_))
        ));
        std::fs::write(manifest_path(&dir, "e5"), "2 9 11 1 0\n").unwrap();
        assert!(matches!(
            read_epochs(&dir, "e5"),
            Err(StorageError::Epoch(_))
        ));
    }
}
