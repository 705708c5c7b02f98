//! The write side: the single-writer epoch append.
//!
//! An append commits the delta to storage and advances the pool's resident
//! graphs, and that is all it does. Cached answers carry the epoch they were
//! computed at, so after an append the older ones stop hitting by
//! themselves and stay as the seeds the zoom path patches from (`cache.rs`,
//! `zoom.rs`); the append takes no cache lock. [`IngestState`] owns the
//! writer lock, and nothing outside this module takes it.

use crate::json::Json;
use crate::metrics::ServerMetrics;
use crate::protocol::IngestRequest;
use crate::render::error_response;
use crate::server::Server;
use std::sync::Mutex;
use tgraph_dataflow::lock_unpoisoned;
use tgraph_ingest::SnapshotDelta;

/// What an epoch append serializes on.
#[derive(Default)]
pub(crate) struct IngestState {
    /// Single-writer ingest: epoch appends (storage commit → pool advance)
    /// are strictly serialized.
    writer: Mutex<()>,
}

impl Server {
    /// Commits a snapshot delta as a new dataset epoch. Single-writer:
    /// storage append, then pool advance, under one lock.
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
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use crate::cache::{Answer, Lookup, ENTRY_OVERHEAD};
    use crate::protocol::{parse_request, Request};
    use crate::server::testutil::{fresh_server, ingest_line, result_of, zoom_line};
    use tgraph_core::graph::figure1_graph_stable_ids;
    use tgraph_repr::ReprKind;
    use tgraph_storage::write_dataset;

    /// The canonical text `line`'s zoom is cached under.
    fn canonical(line: &str) -> String {
        match parse_request(line) {
            Ok(Request::Zoom(req)) => req.canonical(),
            _ => panic!("not a zoom request: {line}"),
        }
    }

    /// An ingest leaves the cached results of other graphs answering: a
    /// client string that spells another graph's key field is not that
    /// field.
    #[test]
    fn an_ingest_keeps_other_graphs_results_whatever_their_text() {
        let server = fresh_server("tgraph-serve-ingest4", "a");
        let dir = std::env::temp_dir().join("tgraph-serve-ingest4");
        write_dataset(&dir, "b", &figure1_graph_stable_ids()).expect("write dataset");
        let line = r#"{"op":"zoom","graph":"a","repr":"ve","steps":[{"azoom":{"by":"school","new_type":"graph=b;","aggs":[{"output":"n","fn":"count"}]}}]}"#;
        let first = server.handle_line(line);
        assert!(first.contains("\"cache\":\"miss\""), "{first}");
        let ing = server.handle_line(&ingest_line("b"));
        assert!(ing.contains("\"ok\":true"), "{ing}");
        let again = server.handle_line(line);
        assert!(again.contains("\"cache\":\"hit\""), "{again}");
    }

    /// An ingest between two identical zooms must not replay the pre-ingest
    /// bytes — and the second zoom should go down the O(delta) patch path
    /// from the cached entry, byte-identical to a cold recompute (checked
    /// mode verifies in-process; the `no_cache` run re-verifies end to end
    /// here).
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
        assert_eq!(
            ing,
            r#"{"ok":true,"graph":"ing1","epoch":1,"since":9,"end":12,"vertices":3,"edges":1,"pool_upgrades":1}"#
        );

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
        assert!(stats.contains("\"epoch_upgrades\":1"), "{stats}");
        // The stale entry was a miss, and the patched answer replaced it.
        assert!(
            stats.contains("\"cache\":{\"hits\":1,\"misses\":2,\"insertions\":1,\"evictions\":0"),
            "{stats}"
        );
    }

    /// The seed is the cache entry's body: once the byte budget evicts it,
    /// the zoom after an ingest recomputes cold, and answers what
    /// `no_cache` does.
    #[test]
    fn an_evicted_seed_leaves_the_next_zoom_a_cold_miss() {
        let server = fresh_server("tgraph-serve-ingest5", "ing5");
        server.runtime().set_checked(true);
        let line = zoom_line("ing5", "");
        let first = server.handle_line(&line);
        assert!(first.contains("\"cache\":\"miss\""), "{first}");
        // Another answer the size of the whole budget, and worth more than
        // any other, evicts the zoom's.
        let filler = "filler";
        let budget = server.cache.stats().byte_budget as usize;
        let body = "x".repeat(budget - ENTRY_OVERHEAD as usize - filler.len());
        let answer = Answer {
            epoch: 0,
            boundary: 9,
            body: body.into(),
            work: u64::MAX,
        };
        server.cache.insert(filler, answer);
        assert!(!server.cache.contains(&canonical(&line)), "evicted");
        let ing = server.handle_line(&ingest_line("ing5"));
        assert!(ing.contains("\"ok\":true"), "{ing}");
        let after = server.handle_line(&line);
        assert!(after.contains("\"cache\":\"miss\""), "{after}");
        let cold = server.handle_line(&zoom_line("ing5", "\"no_cache\":true,"));
        assert_eq!(result_of(&after), result_of(&cold));
    }

    /// A result that finishes at epoch 0 after the epoch-1 answer was
    /// stored leaves that answer in place: the next zoom hits it.
    #[test]
    fn a_late_result_from_an_older_epoch_keeps_the_newer_answer() {
        let server = fresh_server("tgraph-serve-ingest6", "ing6");
        let line = zoom_line("ing6", "");
        let key = canonical(&line);
        let first = server.handle_line(&line);
        assert!(first.contains("\"cache\":\"miss\""), "{first}");
        let Lookup::Miss(Some(late)) = server.cache.get(&key, 1) else {
            panic!("the epoch-0 answer is stored under {key}");
        };
        let ing = server.handle_line(&ingest_line("ing6"));
        assert!(ing.contains("\"epoch\":1"), "{ing}");
        let patched = server.handle_line(&line);
        assert!(patched.contains("\"cache\":\"patch\""), "{patched}");
        server.cache.insert(&key, late);
        let again = server.handle_line(&line);
        assert!(again.contains("\"cache\":\"hit\""), "{again}");
        assert_eq!(result_of(&patched), result_of(&again));
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
            r#"{"ok":false,"kind":"bad_delta","error":"vertex v8 lacks the required `type` property"}"#
        );
        let missing = server.handle_line(r#"{"op":"ingest","graph":"nope"}"#);
        assert!(missing.contains("\"kind\":\"not_found\""), "{missing}");
        let stats = server.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains("\"ingests\":0"), "{stats}");
    }

    /// An edge whose endpoint the delta does not assert over the edge's
    /// interval is refused before the epoch append: the manifest stays at
    /// epoch 0 and the next valid ingest is epoch 1.
    #[test]
    fn a_dangling_edge_ingest_is_a_bad_delta_and_commits_nothing() {
        let server = fresh_server("tgraph-serve-ingest-dangling", "ingd");
        let epoch = || {
            tgraph_storage::GraphLoader::new(&server.config.data_dir, "ingd")
                .current_epoch()
                .expect("manifest")
        };
        assert_eq!(epoch(), 0);
        // Vertex 1 ended with Figure 1's history at 9; vertex 9 starts here.
        let line = r#"{"op":"ingest","graph":"ingd","since":9,"vertices":[{"id":9,"interval":[9,12],"props":{"type":"person"}}],"edges":[{"id":77,"src":9,"dst":1,"interval":[9,11],"props":{"type":"knows"}}]}"#;
        assert_eq!(
            server.handle_line(line),
            r#"{"ok":false,"kind":"bad_delta","error":"edge e77 dangles: endpoint v1 absent during [9, 11)"}"#
        );
        assert_eq!(epoch(), 0);
        let stats = server.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains("\"ingests\":0"), "{stats}");
        let ing = server.handle_line(&ingest_line("ingd"));
        assert!(ing.contains("\"epoch\":1"), "{ing}");
        assert_eq!(epoch(), 1);
    }

    /// A vertex with one property more than the record codec's `u16` count
    /// is refused as a bad delta before anything is written: the next
    /// ingest is still epoch 1.
    #[test]
    fn an_ingest_wider_than_the_codec_is_a_bad_delta_and_commits_nothing() {
        let server = fresh_server("tgraph-serve-ingest7", "ing7");
        let mut props = String::from(r#""type":"person""#);
        for i in 1..=u16::MAX {
            props.push_str(&format!(",\"k{i}\":{i}"));
        }
        let line = format!(
            r#"{{"op":"ingest","graph":"ing7","since":9,"vertices":[{{"id":9,"interval":[9,12],"props":{{{props}}}}}]}}"#
        );
        assert_eq!(
            server.handle_line(&line),
            r#"{"ok":false,"kind":"bad_delta","error":"vertex 9: property set of 65536 pairs exceeds the u16 count field"}"#
        );
        let stats = server.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains("\"ingests\":0"), "{stats}");
        let ing = server.handle_line(&ingest_line("ing7"));
        assert!(ing.contains("\"epoch\":1"), "{ing}");
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
