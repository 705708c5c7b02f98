//! The zoom request path, as a driver over named stages: resolve the
//! representation → load from the pool → probe the cache → admit →
//! execute (cold, or patched from the query's answer at an earlier epoch)
//! → serialize → respond. The stage boundaries are where per-request spans
//! go (ROADMAP item 9).
//!
//! This is the one module that knows how a query names its cache entry:
//! by its canonical text (`ZoomRequest::canonical`), with the dataset epoch
//! carried in the entry.

use crate::admission::{AdmitError, Permit};
use crate::cache::{Answer, Lookup};
use crate::chooser::ChoiceSource;
use crate::json::Json;
use crate::metrics::ServerMetrics;
use crate::protocol::ZoomRequest;
use crate::render::{
    error_response, optimizer_json, panic_detail, read_tgraph, serialize_tgraph, zoom_response,
    Reply,
};
use crate::server::Server;
use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tgraph_core::graph::TGraph;
use tgraph_dataflow::{CancelToken, PlanNode, Runtime};
use tgraph_ingest::{patch_from_storage, Seed};
use tgraph_repr::ReprKind;
use tgraph_storage::{GraphLoader, SharedGraph};

/// `req` with its representation fixed to `kind`.
fn pinned(req: &ZoomRequest, kind: ReprKind) -> ZoomRequest {
    let mut pinned = req.clone();
    pinned.repr = kind;
    pinned.auto_repr = false;
    pinned
}

/// The one executor every path shares: cold runs here, suffix re-runs
/// inside `patch_from_storage`, both through `tgraph_query`'s
/// `Pipeline::execute` — which is what makes a patched result
/// byte-identical to a recompute. Also returns the work the executed plan
/// counted (`PlanNode::counted_rows` over its lineage roots): what the
/// result cache weighs an answer by.
pub(crate) fn execute_steps(
    rt: &Runtime,
    shared: &SharedGraph,
    req: &ZoomRequest,
) -> (TGraph, u64) {
    let executed = req.pipeline.execute(rt, (*shared.graph).clone());
    let work = PlanNode::counted_rows(executed.lineages().iter().map(|(_, root)| root));
    (executed.to_tgraph(rt), work)
}

/// What the execute stage hands to the serialize stage.
struct Executed {
    /// The result graph, serialized into the answer.
    result: TGraph,
    /// The counted work of the cold run behind the result: this one's, or
    /// for a patch the answer's it was patched from.
    work: u64,
    patched: bool,
}

impl Server {
    /// Answers one zoom.
    pub(crate) fn handle_zoom(&self, req: &ZoomRequest) -> Reply {
        let t0 = Instant::now();
        let deadline = req.deadline_ms.map(|ms| t0 + Duration::from_millis(ms));
        // An already-expired deadline is rejected before any graph load,
        // cache probe, or task wave.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return self
                .reject("deadline", "deadline expired before execution")
                .into();
        }
        // Resolve `"repr":"auto"` *before* the pool load and cache probe so
        // an auto request resolved to (say) VE shares pool residents and
        // cache entries with an explicit `"repr":"ve"` request.
        let shape = req.shape();
        let (req, optimizer_block) = self.resolve_repr(req, &shape);
        let block = optimizer_block.as_ref();
        let shared = match self.load_graph(&req) {
            Ok(g) => g,
            Err(message) => return self.reject("not_found", &message).into(),
        };
        // The one canonical text of this request: the cache key, and with
        // the epoch the response's fingerprint.
        let canonical = req.canonical();
        let epoch = shared.epoch;
        let earlier = match self.probe_cache(&req, &canonical, epoch) {
            Lookup::Hit(body) => {
                self.metrics.hit_latency.record(t0.elapsed());
                self.metrics.total_latency.record(t0.elapsed());
                let zero = Duration::ZERO;
                return zoom_response("hit", t0.elapsed(), zero, epoch, &canonical, block, body);
            }
            Lookup::Miss(earlier) => earlier,
        };
        let permit = match self.admit(deadline) {
            Ok(permit) => permit,
            Err(refusal) => return refusal.into(),
        };
        let exec0 = Instant::now();
        let outcome = self.execute(&shared, &req, earlier.as_ref(), deadline);
        drop(permit);
        let exec = exec0.elapsed();
        let done = match outcome {
            Ok(done) => done,
            Err(refusal) => return refusal.into(),
        };
        let patched = done.patched;
        let body = self.serialize(done, &req, &shared, &canonical);
        self.record_execution(&shape, req.repr, patched, exec);
        self.metrics.total_latency.record(t0.elapsed());
        let tag = if patched { "patch" } else { "miss" };
        zoom_response(tag, t0.elapsed(), exec, epoch, &canonical, block, body)
    }

    /// A counted zoom refusal.
    fn reject(&self, kind: &str, message: &str) -> String {
        ServerMetrics::bump(&self.metrics.zoom_rejected);
        error_response(kind, message)
    }

    /// Stage 1: the request with a concrete representation, and the
    /// `optimizer` response block if the request earns one. An `"auto"`
    /// request takes the chooser's pick; EXPLAIN on an explicit
    /// representation still consults the chooser so the response can show
    /// what it *would* pick, without overriding the caller's pinned choice.
    fn resolve_repr<'r>(
        &self,
        req: &'r ZoomRequest,
        shape: &str,
    ) -> (Cow<'r, ZoomRequest>, Option<Json>) {
        if !req.auto_repr && !req.explain {
            return (Cow::Borrowed(req), None);
        }
        let decision = self.chooser.choose(shape, &req.pipeline);
        let resolved = if req.auto_repr {
            ServerMetrics::bump(&self.metrics.auto_chosen);
            if decision.source == ChoiceSource::Observed {
                ServerMetrics::bump(&self.metrics.auto_by_observed);
            }
            Cow::Owned(pinned(req, decision.chosen))
        } else {
            Cow::Borrowed(req)
        };
        let block = optimizer_json(&resolved, req.auto_repr, &decision);
        (resolved, block)
    }

    /// Stage 2: the graph from the pool, or the `not_found` message. The
    /// load runs *outside* the cancel scope on purpose: a cancellation
    /// unwinding through the pool's single-flight section would strand
    /// other waiters on the in-flight marker.
    pub(crate) fn load_graph(&self, req: &ZoomRequest) -> Result<SharedGraph, String> {
        self.pool
            .get(&self.rt, &req.graph, req.repr, req.range)
            .map_err(|e| format!("cannot load graph '{}' as {}: {e}", req.graph, req.repr))
    }

    /// Stage 3: the cached answer at the resident `epoch`, unless the
    /// request opted out. A miss may carry the query's answer from an
    /// earlier epoch, for the execute stage to patch.
    fn probe_cache(&self, req: &ZoomRequest, canonical: &str, epoch: u64) -> Lookup {
        if req.no_cache {
            return Lookup::Miss(None);
        }
        let found = self.cache.get(canonical, epoch);
        if matches!(found, Lookup::Hit(_)) {
            ServerMetrics::bump(&self.metrics.zoom_cache_hits);
        }
        found
    }

    /// Stage 4: an admission permit, held until execution returns, or the
    /// typed refusal.
    fn admit(&self, deadline: Option<Instant>) -> Result<Permit, String> {
        let permit = self.admission.admit(deadline).map_err(|e| {
            let kind = match e {
                AdmitError::QueueFull => "queue_full",
                AdmitError::DeadlineExpired => "deadline",
            };
            self.reject(kind, &e.to_string())
        })?;
        self.metrics.admission_wait.record(permit.waited);
        Ok(permit)
    }

    /// Stage 5: runs the pipeline under the request's cancel scope —
    /// patched from `earlier` where the maintenance planner allows it, cold
    /// otherwise — and turns every way that can fail into its typed
    /// refusal.
    fn execute(
        &self,
        shared: &SharedGraph,
        req: &ZoomRequest,
        earlier: Option<&Answer>,
        deadline: Option<Instant>,
    ) -> Result<Executed, String> {
        let token = match deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            token.scope(|| {
                let patch = earlier.and_then(|answer| {
                    let result = self.patch(shared, req, answer);
                    result.map(|result| (result, answer.work))
                });
                let patched = patch.is_some();
                let (result, work) = patch.unwrap_or_else(|| execute_steps(&self.rt, shared, req));
                Executed {
                    result,
                    work,
                    patched,
                }
            })
        }));
        match outcome {
            Err(panic) => {
                let detail = panic_detail(&*panic);
                Err(self.reject("internal", &format!("execution panicked: {detail}")))
            }
            Ok(Err(_cancelled)) => {
                ServerMetrics::bump(&self.metrics.zoom_cancelled);
                Err(error_response(
                    "cancelled",
                    "deadline expired during execution",
                ))
            }
            Ok(Ok(done)) => Ok(done),
        }
    }

    /// The O(delta) path: re-runs the pipeline over the disk suffix
    /// `[cut, ∞)` only and stitches it onto `earlier`'s result graph, read
    /// back from its body once the planner has decided to patch —
    /// O(delta + live-at-cut + the body) instead of O(history). `None` when
    /// the query is ranged (a ranged answer is not the full history a
    /// stitch needs), the planner says recompute, the body does not read
    /// back, or the suffix is unreadable: the caller runs cold. In checked
    /// mode (`TGRAPH_CHECKED=1`) the patched bytes are held against a full
    /// cold recompute and any divergence fails the query loudly.
    fn patch(&self, shared: &SharedGraph, req: &ZoomRequest, earlier: &Answer) -> Option<TGraph> {
        if req.range.is_some() {
            return None;
        }
        let patched = patch_from_storage(
            &self.rt,
            &GraphLoader::new(&self.config.data_dir, &req.graph),
            shared.graph.lifespan(),
            req.repr,
            &req.pipeline,
            earlier,
            earlier.boundary,
        )
        .ok()?;
        if self.rt.checked() {
            let (cold, _) = execute_steps(&self.rt, shared, req);
            assert_eq!(
                serialize_tgraph(&patched.result),
                serialize_tgraph(&cold),
                "maintenance divergence: patched result (cut={}, seed epoch {}) \
                 differs from cold recompute at epoch {} for {}",
                patched.cut,
                earlier.epoch,
                shared.epoch,
                req.canonical(),
            );
        }
        Some(patched.result)
    }

    /// Stage 6: the result's text, stored as the query's answer at the
    /// resident epoch. The text is all the answer keeps: a later epoch's
    /// patch of a range-free query reads the result graph back from it.
    fn serialize(
        &self,
        done: Executed,
        req: &ZoomRequest,
        shared: &SharedGraph,
        canonical: &str,
    ) -> Arc<str> {
        let body: Arc<str> = serialize_tgraph(&done.result).into();
        if !req.no_cache {
            let answer = Answer {
                epoch: shared.epoch,
                boundary: shared.graph.lifespan().end,
                body: Arc::clone(&body),
                work: done.work,
            };
            self.cache.insert(canonical, answer);
        }
        body
    }

    /// Books a finished execution. Only cold executions measure the
    /// representation itself (hits measure the cache and patches measure
    /// the delta), so only they feed the chooser's table.
    fn record_execution(&self, shape: &str, repr: ReprKind, patched: bool, exec: Duration) {
        ServerMetrics::bump(&self.metrics.zoom_executed);
        if patched {
            ServerMetrics::bump(&self.metrics.zoom_patched);
        } else {
            self.chooser.observe(shape, repr, exec.as_micros() as u64);
        }
        self.metrics.exec_latency.record(exec);
    }
}

/// A cached answer seeds a patch with the result graph read back from its
/// body.
impl Seed for Answer {
    fn graph(&self) -> Option<Cow<'_, TGraph>> {
        read_tgraph(&self.body).map(Cow::Owned)
    }
}

#[cfg(test)]
mod tests {
    use super::execute_steps;
    use crate::cache::{Lookup, ENTRY_OVERHEAD};
    use crate::protocol::{parse_request, Request, ZoomRequest};
    use crate::render::{read_tgraph, Reply};
    use crate::server::testutil::{fresh_server, result_of, server_over_figure1, zoom_line};
    use std::sync::Arc;
    use tgraph_repr::ReprKind;

    fn zoom_request(line: &str) -> ZoomRequest {
        match parse_request(line) {
            Ok(Request::Zoom(req)) => *req,
            _ => panic!("not a zoom request: {line}"),
        }
    }

    /// A miss answers with the very allocation it inserted into the cache,
    /// and a hit with the cache's entry: no copy of a result between the
    /// cache and the socket.
    #[test]
    fn zoom_replies_share_their_body_with_the_cache_entry() {
        let server = server_over_figure1("unit-shared");
        let req = zoom_request(&zoom_line("unit-shared", ""));
        let epoch = server.load_graph(&req).expect("load").epoch;
        let body = |reply: Reply| match reply {
            Reply::Zoom { head, body } => (head.contains("\"cache\":\"hit\""), body),
            Reply::Text(text) => panic!("not a zoom result: {text}"),
        };
        let (hit, miss) = body(server.handle_zoom(&req));
        assert!(!hit);
        let Lookup::Hit(entry) = server.cache.get(&req.canonical(), epoch) else {
            panic!("the miss inserted its result");
        };
        assert!(Arc::ptr_eq(&miss, &entry), "a miss answers with its entry");
        let (hit, replay) = body(server.handle_zoom(&req));
        assert!(hit);
        assert!(Arc::ptr_eq(&replay, &entry), "a hit answers with the entry");
    }

    /// Every answer, range-free or ranged, is charged its key, its body and
    /// the fixed per-entry bookkeeping, and nothing more; the body reads
    /// back to the very graph the zoom computed.
    #[test]
    fn an_entry_is_charged_its_key_and_body() {
        let server = server_over_figure1("unit-charge");
        let mut used = 0;
        for extra in ["", "\"range\":[2,8],"] {
            let req = zoom_request(&zoom_line("unit-charge", extra));
            let Reply::Zoom { body, .. } = server.handle_zoom(&req) else {
                panic!("not a zoom result");
            };
            let key = req.canonical();
            used += (key.len() + body.len()) as u64 + ENTRY_OVERHEAD;
            assert_eq!(server.cache.stats().bytes_used, used, "{key}");
            let shared = server.load_graph(&req).expect("load");
            let (cold, _) = execute_steps(server.runtime(), &shared, &req);
            assert_eq!(read_tgraph(&body), Some(cold), "{key}");
        }
        assert_eq!(server.cache.stats().resident, 2);
    }

    #[test]
    fn zoom_executes_then_replays_from_cache_byte_identically() {
        let server = server_over_figure1("unit1");
        let line = zoom_line("unit1", "");
        let first = server.handle_line(&line);
        assert!(first.contains("\"ok\":true"), "{first}");
        assert!(first.contains("\"cache\":\"miss\""), "{first}");
        let second = server.handle_line(&line);
        assert!(second.contains("\"cache\":\"hit\""), "{second}");
        assert_eq!(
            result_of(&first),
            result_of(&second),
            "byte-identical replay"
        );
        // The result actually contains the zoomed group node.
        assert!(first.contains("\"students\":"), "{first}");
        let stats = server.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains("\"zoom_cache_hits\":1"), "{stats}");
        assert!(stats.contains("\"zoom_executed\":1"), "{stats}");
    }

    #[test]
    fn expired_deadline_rejected_without_any_task_wave() {
        let server = server_over_figure1("unit2");
        // Preload so the load's own waves don't confound the assertion.
        server.preload("unit2", ReprKind::Ve).expect("preload");
        let before = server.runtime().stats();
        let line = zoom_line("unit2", "\"deadline_ms\":0,");
        let resp = server.handle_line(&line);
        assert!(resp.contains("\"ok\":false"), "{resp}");
        assert!(resp.contains("\"kind\":\"deadline\""), "{resp}");
        let delta = server.runtime().stats().since(&before);
        assert_eq!(delta.waves, 0, "no task wave executed");
        assert_eq!(delta.tasks, 0);
    }

    #[test]
    fn no_cache_requests_bypass_the_result_cache() {
        let server = server_over_figure1("unit4");
        let line = zoom_line("unit4", "\"no_cache\":true,");
        let first = server.handle_line(&line);
        let second = server.handle_line(&line);
        assert!(first.contains("\"cache\":\"miss\""), "{first}");
        assert!(second.contains("\"cache\":\"miss\""), "{second}");
        assert!(server.cache.is_empty());
        assert_eq!(server.cache.stats().misses, 0, "the cache was not read");
    }

    /// Client strings are quoted in the canonical text, so no choice of
    /// names makes two different queries share a cache entry (or a
    /// maintenance seed): here the second query's type label spells out the
    /// first one's aggregation.
    #[test]
    fn client_strings_cannot_forge_another_querys_cache_key() {
        let server = server_over_figure1("unit-forge");
        let zoom = |azoom: &str| {
            server.handle_line(&format!(
                r#"{{"op":"zoom","graph":"unit-forge","repr":"ve","steps":[{{"azoom":{azoom}}}]}}"#
            ))
        };
        let counted =
            zoom(r#"{"by_type":true,"new_type":"t","aggs":[{"output":"x","fn":"count"}]}"#);
        assert!(counted.contains("\"cache\":\"miss\""), "{counted}");
        let forged = zoom(r#"{"by_type":true,"new_type":"t,x=Count"}"#);
        assert!(forged.contains("\"cache\":\"miss\""), "{forged}");
        assert_ne!(result_of(&counted), result_of(&forged));
    }

    /// The chooser's observation rows are keyed by the query's shape; a
    /// group-by key that contains `;repr=` is part of that shape, not a
    /// field to strip, so two such pipelines keep one row each.
    #[test]
    fn shape_key_keeps_a_group_key_containing_repr_marker() {
        let server = server_over_figure1("unit-shape");
        for by in ["school;repr=a", "school;repr=b"] {
            let resp = server.handle_line(&format!(
                r#"{{"op":"zoom","graph":"unit-shape","repr":"ve","steps":[{{"azoom":{{"by":"{by}"}}}}]}}"#
            ));
            assert!(resp.contains("\"cache\":\"miss\""), "{resp}");
        }
        let stats = server.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains("\"observed_pairs\":2"), "{stats}");
    }

    /// A zero-step pipeline is the identity zoom — load the graph, apply
    /// nothing, serialize. It must behave like any other query in every
    /// representation: deterministic within a representation, cacheable
    /// (miss → hit byte-identically), and consistent with a cache-bypassing
    /// cold run.
    #[test]
    fn zero_step_zoom_is_identity_in_every_representation() {
        let server = fresh_server("tgraph-serve-identity1", "id1");
        server.runtime().set_checked(true);
        for kind in ReprKind::all() {
            let line = format!(r#"{{"op":"zoom","graph":"id1","repr":"{kind}","steps":[]}}"#);
            let first = server.handle_line(&line);
            assert!(first.contains("\"ok\":true"), "{kind}: {first}");
            assert!(first.contains("\"cache\":\"miss\""), "{kind}: {first}");
            let replay = server.handle_line(&line);
            assert!(replay.contains("\"cache\":\"hit\""), "{kind}: {replay}");
            assert_eq!(
                result_of(&first),
                result_of(&replay),
                "{kind}: identity replay must be byte-identical"
            );
            let cold = server.handle_line(&format!(
                r#"{{"op":"zoom","graph":"id1","repr":"{kind}","no_cache":true,"steps":[]}}"#
            ));
            assert_eq!(
                result_of(&first),
                result_of(&cold),
                "{kind}: identity zoom must be deterministic"
            );
            // The identity result carries the original facts: figure 1 has
            // vertices 1..=6 in [1,9).
            assert!(first.contains("\"lifespan\":[1,9]"), "{kind}: {first}");
        }
    }

    /// `"repr":"auto"` resolves to OG until a rival is measured faster,
    /// reports the decision in the `optimizer` response block, shares cache
    /// entries with the equivalent explicit request, and EXPLAIN exposes
    /// the candidate table with each observed time.
    #[test]
    fn auto_repr_resolves_and_explains() {
        let server = server_over_figure1("unit-auto");
        let auto_line = r#"{"op":"zoom","graph":"unit-auto","explain":true,"steps":[]}"#;
        let first = server.handle_line(auto_line);
        assert!(first.contains("\"ok\":true"), "{first}");
        assert!(
            first.contains(r#""requested":"auto","chosen":"og","source":"default""#),
            "{first}"
        );
        // Nothing has run yet (observation happens after execution), and
        // OGC, whose answer drops attributes, is never a candidate.
        assert!(
            first.contains(r#""candidates":[{"repr":"rg","observed_us":null},{"repr":"ve","observed_us":null},{"repr":"og","observed_us":null}]"#),
            "{first}"
        );
        // The auto request shares the cache entry of the explicit spelling.
        let explicit =
            server.handle_line(r#"{"op":"zoom","graph":"unit-auto","repr":"og","steps":[]}"#);
        assert!(explicit.contains("\"cache\":\"hit\""), "{explicit}");
        // A later explained request sees the observation the first
        // execution recorded; with no rival measured, OG stays.
        let second = server.handle_line(auto_line);
        assert!(second.contains("\"cache\":\"hit\""), "{second}");
        assert!(second.contains("\"source\":\"default\""), "{second}");
        assert!(
            !second.contains(r#"{"repr":"og","observed_us":null}"#),
            "{second}"
        );
        // A rival measured faster than OG takes the shape over.
        server
            .chooser
            .observe(&zoom_request(auto_line).shape(), ReprKind::Ve, 0);
        let third = server.handle_line(auto_line);
        assert!(
            third.contains(r#""chosen":"ve","source":"observed""#),
            "{third}"
        );
        let stats = server.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains("\"auto_chosen\":3"), "{stats}");
        assert!(stats.contains("\"auto_by_observed\":1"), "{stats}");
        assert!(stats.contains("\"observed_pairs\":2"), "{stats}");
        // EXPLAIN on an explicit representation reports the dissenting
        // choice without overriding it.
        let pinned = server.handle_line(
            r#"{"op":"zoom","graph":"unit-auto","repr":"ogc","explain":true,"steps":[{"wzoom":{"window":{"points":2}}}]}"#,
        );
        assert!(
            pinned.contains(
                r#""requested":"ogc","chosen":"ogc","source":"default","would_choose":"og""#
            ),
            "{pinned}"
        );
    }
}
