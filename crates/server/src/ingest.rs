//! The write side: the single-writer epoch append, and the patch-seed store
//! that lets the zoom after an ingest cost O(delta) instead of O(history).
//!
//! [`IngestState`] owns both locks involved — the writer lock that
//! serializes appends and the seed map's — and nothing outside this module
//! takes either.

use crate::json::Json;
use crate::metrics::ServerMetrics;
use crate::protocol::{IngestRequest, ZoomRequest};
use crate::render::{error_response, serialize_tgraph};
use crate::server::Server;
use crate::zoom::{cache_key_graph, execute_steps};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tgraph_core::graph::TGraph;
use tgraph_core::time::Time;
use tgraph_dataflow::{lock_unpoisoned, Runtime};
use tgraph_ingest::{patch_from_storage, SnapshotDelta};
use tgraph_storage::{GraphLoader, SharedGraph};

/// What an epoch append serializes on and what it leaves for the zooms
/// that follow it.
#[derive(Default)]
pub(crate) struct IngestState {
    /// Single-writer ingest: epoch appends (storage commit → pool advance →
    /// cache invalidation) are strictly serialized.
    writer: Mutex<()>,
    pub(crate) patches: PatchStore,
}

impl Server {
    /// Commits a snapshot delta as a new dataset epoch. Single-writer:
    /// storage append, pool advance and cache invalidation happen under one
    /// lock, in that order. The cache drops every result of the graph (any
    /// representation): with epoch-stamped keys stale entries are
    /// unreachable anyway, and invalidation reclaims their bytes at once
    /// instead of waiting on LRU pressure.
    pub(crate) fn handle_ingest(&self, req: &IngestRequest) -> String {
        let _writer = lock_unpoisoned(&self.ingest.writer);
        let current = match tgraph_storage::current_end(&self.config.data_dir, &req.graph) {
            Ok(t) => t,
            Err(e) => {
                return error_response(
                    "not_found",
                    &format!("cannot ingest into '{}': {e}", req.graph),
                )
            }
        };
        if let Some(since) = req.since.filter(|since| *since != current) {
            return error_response(
                "stale_since",
                &format!(
                    "dataset '{}' is at lifespan end {current}, request asserts {since}",
                    req.graph
                ),
            );
        }
        let delta = SnapshotDelta {
            since: current,
            vertices: req.vertices.clone(),
            edges: req.edges.clone(),
        };
        if let Err(e) = delta.validate() {
            return error_response("bad_delta", &e.to_string());
        }
        let delta_graph = delta.to_tgraph();
        let entry =
            match tgraph_storage::append_epoch(&self.config.data_dir, &req.graph, &delta_graph) {
                Ok(en) => en,
                Err(e) => return error_response("storage", &format!("append epoch: {e}")),
            };
        let upgraded = self
            .pool
            .advance(&self.rt, &req.graph, entry.epoch, &delta_graph);
        let dropped = self
            .cache
            .invalidate(|key| cache_key_graph(key) == Some(req.graph.as_str()));
        ServerMetrics::bump(&self.metrics.ingests);
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("graph", Json::str(req.graph.as_str())),
            ("epoch", Json::Int(entry.epoch as i64)),
            ("since", Json::Int(entry.since)),
            ("end", Json::Int(entry.end)),
            ("vertices", Json::Int(entry.vertices as i64)),
            ("edges", Json::Int(entry.edges as i64)),
            ("pool_upgrades", Json::Int(upgraded as i64)),
            ("cache_invalidations", Json::Int(dropped as i64)),
        ])
        .to_string()
    }
}

/// A retained result the patch path can bring up to date: the collected
/// pipeline output (shared with the response being serialized) plus the
/// dataset epoch and lifespan end it reflects.
#[derive(Clone)]
struct PatchEntry {
    epoch: u64,
    boundary: Time,
    result: Arc<TGraph>,
    /// Set by [`PatchStore::retain`] when the query's seed first enters the
    /// store; a refresh keeps it. The cap evicts the lowest, so eviction
    /// does not depend on map order.
    retained: u64,
}

/// Bound on retained results: maintenance seeds, not a second result cache.
const PATCH_STORE_CAP: usize = 64;

/// Prior zoom results retained for incremental maintenance, keyed by the
/// request's canonical text (epoch-independent). After an ingest the patch
/// path stitches these instead of recomputing over history.
#[derive(Default)]
pub(crate) struct PatchStore {
    seeds: Mutex<HashMap<String, PatchEntry>>,
    /// Source of [`PatchEntry::retained`]; bumped under the `seeds` lock.
    retentions: AtomicU64,
}

impl PatchStore {
    /// Execution with incremental maintenance: when a prior result
    /// for the same canonical query exists at an earlier dataset epoch and
    /// the maintenance planner allows it, re-run the pipeline over the disk
    /// suffix `[cut, ∞)` only and stitch — O(delta + live-at-cut) instead of
    /// O(history). Falls back to a cold run otherwise, and records the fresh
    /// result as the seed for the next ingest. Returns `(result, patched)`.
    pub(crate) fn execute_or_patch(
        &self,
        rt: &Runtime,
        data_dir: &Path,
        shared: &SharedGraph,
        req: &ZoomRequest,
        canonical: &str,
    ) -> (Arc<TGraph>, bool) {
        // Range-restricted residents are not full history (the stitch
        // invariant needs all of it) and `no_cache` requests promise cold
        // semantics, so both bypass maintenance entirely.
        if req.range.is_some() || req.no_cache {
            return (Arc::new(execute_steps(rt, shared, req)), false);
        }
        let attempt = self.try_patch(rt, data_dir, shared, req, canonical);
        let patched = attempt.is_some();
        let result = Arc::new(attempt.unwrap_or_else(|| execute_steps(rt, shared, req)));
        self.retain(
            canonical,
            PatchEntry {
                epoch: shared.epoch,
                boundary: shared.graph.lifespan().end,
                result: Arc::clone(&result),
                retained: 0,
            },
        );
        (result, patched)
    }

    /// Attempts the patch path. `None` means "no seed / planner said
    /// recompute / suffix unreadable" — the caller runs cold. In checked
    /// mode (`TGRAPH_CHECKED=1`) the patched bytes are verified against a
    /// full cold recompute and any divergence fails the query loudly.
    fn try_patch(
        &self,
        rt: &Runtime,
        data_dir: &Path,
        shared: &SharedGraph,
        req: &ZoomRequest,
        canonical: &str,
    ) -> Option<TGraph> {
        let entry = self.seed_before(canonical, shared.epoch)?;
        let patched = patch_from_storage(
            rt,
            &GraphLoader::new(data_dir, &req.graph),
            shared.graph.lifespan(),
            req.repr,
            &req.pipeline,
            &entry.result,
            entry.boundary,
        )
        .ok()?;
        if rt.checked() {
            let cold = execute_steps(rt, shared, req);
            assert_eq!(
                serialize_tgraph(&patched.result),
                serialize_tgraph(&cold),
                "maintenance divergence: patched result (cut={}, seed epoch {}) \
                 differs from cold recompute at epoch {} for {canonical}",
                patched.cut,
                entry.epoch,
                shared.epoch,
            );
        }
        Some(patched.result)
    }

    /// The seed for `canonical`, if it predates `epoch`. Same epoch: the
    /// seed is already current (the result cache answered or will answer);
    /// a newer epoch on the seed cannot happen under the single-writer
    /// ingest lock, but guard anyway.
    fn seed_before(&self, canonical: &str, epoch: u64) -> Option<PatchEntry> {
        lock_unpoisoned(&self.seeds)
            .get(canonical)
            .filter(|entry| entry.epoch < epoch)
            .cloned()
    }

    /// Stores `entry` as the seed for `canonical`. Bounded: at the cap the
    /// seed retained first is dropped (never the one being refreshed); the
    /// evicted query simply recomputes cold after its next ingest.
    fn retain(&self, canonical: &str, mut entry: PatchEntry) {
        let mut seeds = lock_unpoisoned(&self.seeds);
        if let Some(seed) = seeds.get(canonical) {
            entry.retained = seed.retained;
        } else {
            if seeds.len() >= PATCH_STORE_CAP {
                let first = seeds.iter().min_by_key(|(_, seed)| seed.retained);
                if let Some(victim) = first.map(|(query, _)| query.clone()) {
                    seeds.remove(&victim);
                }
            }
            entry.retained = self.retentions.fetch_add(1, Ordering::Relaxed);
        }
        seeds.insert(canonical.to_string(), entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::testutil::{fresh_server, ingest_line, result_of, zoom_line};
    use tgraph_core::graph::figure1_graph_stable_ids;
    use tgraph_repr::ReprKind;
    use tgraph_storage::write_dataset;

    fn entry(epoch: u64) -> PatchEntry {
        PatchEntry {
            epoch,
            boundary: 9,
            result: Arc::new(figure1_graph_stable_ids()),
            retained: 0,
        }
    }

    #[test]
    fn cap_eviction_never_drops_the_key_being_inserted() {
        let store = PatchStore::default();
        for i in 0..PATCH_STORE_CAP {
            store.retain(&format!("q{i}"), entry(0));
        }
        // Refreshing a resident key at the cap evicts nothing.
        store.retain("q0", entry(1));
        {
            let seeds = lock_unpoisoned(&store.seeds);
            assert_eq!(seeds.len(), PATCH_STORE_CAP);
            assert!((0..PATCH_STORE_CAP).all(|i| seeds.contains_key(&format!("q{i}"))));
            assert_eq!(seeds["q0"].epoch, 1);
        }
        // A new key at the cap evicts exactly one other seed and stays: the
        // one retained first, refreshed or not.
        store.retain("fresh", entry(2));
        let seeds = lock_unpoisoned(&store.seeds);
        assert_eq!(seeds.len(), PATCH_STORE_CAP);
        assert_eq!(seeds["fresh"].epoch, 2);
        assert!(!seeds.contains_key("q0"), "the first-retained seed goes");
        assert!((1..PATCH_STORE_CAP).all(|i| seeds.contains_key(&format!("q{i}"))));
    }

    /// An ingest drops the cached results of its own graph only: a client
    /// string that spells another graph's key field is not that field.
    #[test]
    fn an_ingest_keeps_other_graphs_results_whatever_their_text() {
        let server = fresh_server("tgraph-serve-ingest4", "a");
        let dir = std::env::temp_dir().join("tgraph-serve-ingest4");
        write_dataset(&dir, "b", &figure1_graph_stable_ids()).expect("write dataset");
        let line = r#"{"op":"zoom","graph":"a","repr":"ve","steps":[{"azoom":{"by":"school","new_type":"graph=b;","aggs":[{"output":"n","fn":"count"}]}}]}"#;
        let first = server.handle_line(line);
        assert!(first.contains("\"cache\":\"miss\""), "{first}");
        let ing = server.handle_line(&ingest_line("b"));
        assert!(ing.contains("\"cache_invalidations\":0"), "{ing}");
        let again = server.handle_line(line);
        assert!(again.contains("\"cache\":\"hit\""), "{again}");
        let stats = server.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains("\"invalidations\":0"), "{stats}");
    }

    #[test]
    fn a_seed_at_or_past_the_resident_epoch_is_not_used() {
        let store = PatchStore::default();
        store.retain("q", entry(3));
        assert!(store.seed_before("q", 3).is_none(), "same epoch: current");
        assert!(store.seed_before("q", 2).is_none(), "seed from the future");
        assert_eq!(store.seed_before("q", 4).map(|e| e.epoch), Some(3));
        assert!(store.seed_before("other", 4).is_none());
    }

    /// An ingest between two identical zooms must not replay the pre-ingest
    /// bytes — and the second zoom should go down the O(delta) patch path,
    /// byte-identical to a cold recompute (checked mode verifies
    /// in-process; the `no_cache` run re-verifies end to end here).
    #[test]
    fn ingest_between_identical_zooms_patches_instead_of_replaying() {
        let server = fresh_server("tgraph-serve-ingest1", "ing1");
        server.runtime().set_checked(true);
        let line = zoom_line("ing1", "");
        let first = server.handle_line(&line);
        assert!(first.contains("\"cache\":\"miss\""), "{first}");
        let replay = server.handle_line(&line);
        assert!(replay.contains("\"cache\":\"hit\""), "{replay}");

        let ing = server.handle_line(&ingest_line("ing1"));
        assert!(ing.contains("\"ok\":true"), "{ing}");
        assert!(ing.contains("\"epoch\":1"), "{ing}");
        assert!(ing.contains("\"since\":9"), "{ing}");
        assert!(ing.contains("\"end\":12"), "{ing}");
        assert!(ing.contains("\"pool_upgrades\":1"), "{ing}");

        let third = server.handle_line(&line);
        assert!(
            third.contains("\"cache\":\"patch\""),
            "post-ingest zoom must take the patch path, not the cache: {third}"
        );
        assert_ne!(
            result_of(&first),
            result_of(&third),
            "stale pre-ingest bytes replayed after an epoch append"
        );
        // End-to-end identity: a cold, cache-bypassing run agrees byte for
        // byte with the patched result.
        let cold = server.handle_line(&zoom_line("ing1", "\"no_cache\":true,"));
        assert_eq!(result_of(&third), result_of(&cold));

        let stats = server.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains("\"ingests\":1"), "{stats}");
        assert!(stats.contains("\"zoom_patched\":1"), "{stats}");
        assert!(stats.contains("\"invalidations\":1"), "{stats}");
        assert!(stats.contains("\"epoch_upgrades\":1"), "{stats}");
    }

    #[test]
    fn ingest_rejections_are_typed() {
        let server = fresh_server("tgraph-serve-ingest2", "ing2");
        // CAS guard: the dataset is at lifespan end 9, not 5.
        let stale = server.handle_line(r#"{"op":"ingest","graph":"ing2","since":5}"#);
        assert!(stale.contains("\"kind\":\"stale_since\""), "{stale}");
        assert!(
            stale.contains("is at lifespan end 9, request asserts 5"),
            "{stale}"
        );
        // A fact starting before the boundary would rewrite history.
        let early = server.handle_line(
            r#"{"op":"ingest","graph":"ing2","vertices":[{"id":9,"interval":[3,10]}]}"#,
        );
        assert!(early.contains("\"kind\":\"bad_delta\""), "{early}");
        assert!(early.contains("before the delta boundary"), "{early}");
        // Degenerate intervals assert nothing.
        let empty = server.handle_line(
            r#"{"op":"ingest","graph":"ing2","vertices":[{"id":9,"interval":[9,9]}]}"#,
        );
        assert!(empty.contains("\"kind\":\"bad_delta\""), "{empty}");
        // Every fact carries a `type` label (Definition 2.1).
        let untyped = server.handle_line(
            r#"{"op":"ingest","graph":"ing2","vertices":[{"id":8,"interval":[9,12],"props":{}}]}"#,
        );
        assert_eq!(
            untyped,
            r#"{"ok":false,"kind":"bad_delta","error":"vertex 8: lacks the required `type` property"}"#
        );
        let missing = server.handle_line(r#"{"op":"ingest","graph":"nope"}"#);
        assert!(missing.contains("\"kind\":\"not_found\""), "{missing}");
        let stats = server.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains("\"ingests\":0"), "{stats}");
    }

    /// Identity zooms ride the O(delta) maintenance path after an ingest,
    /// in every representation, and (checked mode) agree with a cold
    /// recompute byte for byte.
    #[test]
    fn zero_step_zoom_patches_after_ingest_in_every_representation() {
        let server = fresh_server("tgraph-serve-identity2", "id2");
        server.runtime().set_checked(true);
        let line_for =
            |kind: ReprKind| format!(r#"{{"op":"zoom","graph":"id2","repr":"{kind}","steps":[]}}"#);
        let mut seeds = Vec::new();
        for kind in ReprKind::all() {
            let first = server.handle_line(&line_for(kind));
            assert!(first.contains("\"cache\":\"miss\""), "{kind}: {first}");
            seeds.push((kind, first));
        }
        let ing = server.handle_line(&ingest_line("id2"));
        assert!(ing.contains("\"ok\":true"), "{ing}");
        for (kind, seed) in seeds {
            let after = server.handle_line(&line_for(kind));
            assert!(
                after.contains("\"cache\":\"patch\""),
                "{kind}: post-ingest identity zoom must take the patch path: {after}"
            );
            assert_ne!(
                result_of(&seed),
                result_of(&after),
                "{kind}: stale pre-ingest bytes replayed"
            );
            assert!(after.contains("\"lifespan\":[1,12]"), "{kind}: {after}");
            // Checked mode already asserted patch == cold in-process; the
            // no_cache run re-verifies end to end.
            let cold = server.handle_line(&format!(
                r#"{{"op":"zoom","graph":"id2","repr":"{kind}","no_cache":true,"steps":[]}}"#
            ));
            assert_eq!(result_of(&after), result_of(&cold), "{kind}");
        }
        let stats = server.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains("\"zoom_patched\":4"), "{stats}");
    }

    /// An empty delta is a valid epoch: it moves no time but still advances
    /// the generation, so replays recompute (via patch) rather than serving
    /// pre-ingest cache entries.
    #[test]
    fn empty_delta_advances_the_generation() {
        let server = fresh_server("tgraph-serve-ingest3", "ing3");
        server.runtime().set_checked(true);
        let line = zoom_line("ing3", "");
        let first = server.handle_line(&line);
        let ing = server.handle_line(r#"{"op":"ingest","graph":"ing3"}"#);
        assert!(ing.contains("\"ok\":true"), "{ing}");
        assert!(ing.contains("\"epoch\":1"), "{ing}");
        assert!(ing.contains("\"end\":9"), "{ing}");
        let second = server.handle_line(&line);
        assert!(second.contains("\"cache\":\"patch\""), "{second}");
        // No facts moved: the patched result is byte-identical to before.
        assert_eq!(result_of(&first), result_of(&second));
    }
}
