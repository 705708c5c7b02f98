//! The server proper: shared state, per-line NDJSON request dispatch, and
//! the zoom execution path (cache → admission → cancellable execution →
//! serialize → memoize). Client connections are read and written by
//! [`crate::eventloop`] only; the sockets opened here are the coordinator's
//! outbound calls to its peer shards.

use crate::admission::{Admission, AdmitError};
use crate::cache::{CacheKey, ResultCache};
use crate::json::Json;
use crate::metrics::ServerMetrics;
use crate::protocol::{parse_request, IngestRequest, Request, ZoomRequest};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tgraph_core::graph::TGraph;
use tgraph_core::props::{Props, Value};
use tgraph_core::time::{Interval, Time};
use tgraph_dataflow::lock_unpoisoned;
use tgraph_dataflow::{CancelToken, Runtime, ShardLayout, TcpExchange};
use tgraph_ingest::{patch_from_storage, SnapshotDelta};
use tgraph_optimize::{ChoiceSource, Decision, GraphFeatures, Optimizer};
use tgraph_repr::ReprKind;
use tgraph_storage::{GraphLoader, GraphPool, SharedGraph, SortOrder};

/// Default cap on a single NDJSON request line (see
/// [`ServerConfig::max_line_bytes`]). Without a cap, one client streaming
/// bytes that never contain `\n` grows the server-side line buffer without
/// bound — a one-connection OOM.
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7687` (`:0` picks a free port).
    pub addr: String,
    /// Dataset directory (the `GraphLoader` layout).
    pub data_dir: PathBuf,
    /// Dataflow worker threads.
    pub workers: usize,
    /// Dataflow partitions per wave.
    pub partitions: usize,
    /// Maximum concurrently executing zoom queries.
    pub max_inflight: usize,
    /// Maximum queued zoom queries beyond the in-flight bound.
    pub max_queue: usize,
    /// Result-cache byte budget.
    pub cache_bytes: u64,
    /// Bytes reserved against the runtime's memory governor per admitted
    /// query. Only binding when a budget is set (`TGRAPH_MEM_BYTES` or
    /// `Runtime::set_mem_budget`); with no budget, reservations are free.
    pub query_reserve_bytes: u64,
    /// This instance's shard index (`0` is the coordinator).
    pub shard: usize,
    /// Total shards in the deployment. `1` (the default) serves unsharded.
    pub shards: usize,
    /// This shard's exchange listen address (required when `shards > 1`).
    pub exchange_addr: String,
    /// Every shard's exchange address, in shard order (required when
    /// `shards > 1`; this shard's own entry is ignored).
    pub exchange_peers: Vec<String>,
    /// Every shard's *serve* address, in shard order. The coordinator uses
    /// these to broadcast `shard_exec` to its peers; required on shard 0.
    pub serve_peers: Vec<String>,
    /// Cap on one request line in bytes: a longer line is answered with a
    /// typed `line_too_large` error and the connection closes.
    pub max_line_bytes: usize,
    /// Fault injection for tests only: commit ingests locally but skip the
    /// `shard_ingest` broadcast, simulating a lost replication message so
    /// the `stale_epoch` recovery path can be exercised end to end.
    #[doc(hidden)]
    pub drop_ingest_broadcast: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7687".to_string(),
            data_dir: PathBuf::from("."),
            workers: 4,
            partitions: 4,
            max_inflight: 2,
            max_queue: 64,
            cache_bytes: 64 << 20,
            query_reserve_bytes: 16 << 20,
            shard: 0,
            shards: 1,
            exchange_addr: String::new(),
            exchange_peers: Vec::new(),
            serve_peers: Vec::new(),
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            drop_ingest_broadcast: false,
        }
    }
}

/// The shared server state plus its listener. All request handling is
/// `&self`; the connection layer ([`crate::eventloop`]) calls it from its
/// dispatcher threads.
pub struct Server {
    pub(crate) config: ServerConfig,
    pub(crate) listener: TcpListener,
    rt: Runtime,
    pool: GraphPool,
    cache: ResultCache,
    pub(crate) admission: Arc<Admission>,
    pub(crate) metrics: ServerMetrics,
    shutdown: AtomicBool,
    started: Instant,
    /// Pollers the serve loop's threads are blocked in; [`Server::request_shutdown`]
    /// notifies each so accept/reactor threads wake without a poll interval.
    pub(crate) loop_pollers: Mutex<Vec<Arc<polling::Poller>>>,
    /// Monotonic exchange-epoch counter (coordinator only): each sharded
    /// query gets a fresh epoch so frame sequence numbers never collide.
    epoch: AtomicU64,
    /// Serializes sharded executions: exchange sequence numbers align across
    /// shards only when every shard runs one wave sequence at a time.
    shard_lock: Mutex<()>,
    /// Single-writer ingest: epoch appends (storage commit → pool advance →
    /// cache invalidation → peer broadcast) are strictly serialized.
    ingest_lock: Mutex<()>,
    /// Prior zoom results retained for incremental maintenance, keyed by the
    /// request's canonical text (epoch-independent). After an ingest the
    /// patch path stitches these instead of recomputing over history.
    patches: Mutex<HashMap<String, PatchEntry>>,
    /// The cost-based representation optimizer: static model plus the
    /// per-shape observed-run-time table that cold executions feed.
    optimizer: Optimizer,
    /// Header-only storage features per graph, cached with the dataset
    /// epoch they were read at (an ingest invalidates by epoch mismatch).
    features: Mutex<HashMap<String, (u64, GraphFeatures)>>,
}

/// A retained result the patch path can bring up to date: the collected
/// pipeline output plus the dataset epoch and lifespan end it reflects.
#[derive(Clone)]
struct PatchEntry {
    epoch: u64,
    boundary: Time,
    result: TGraph,
}

/// Bound on retained results: maintenance seeds, not a second result cache.
const PATCH_STORE_CAP: usize = 64;

impl Server {
    /// Binds the listener and builds the shared state. No graph is loaded
    /// yet; use [`Server::preload`] to warm the pool before serving.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);
        if config.shards > 1 {
            if config.shard >= config.shards {
                return Err(invalid(format!(
                    "shard index {} out of range 0..{}",
                    config.shard, config.shards
                )));
            }
            if config.exchange_peers.len() != config.shards {
                return Err(invalid(format!(
                    "need {} exchange peer addresses (one per shard, in shard order), got {}",
                    config.shards,
                    config.exchange_peers.len()
                )));
            }
            if config.shard == 0 && config.serve_peers.len() != config.shards {
                return Err(invalid(format!(
                    "coordinator needs {} serve peer addresses (one per shard, in shard order), got {}",
                    config.shards,
                    config.serve_peers.len()
                )));
            }
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let rt = Runtime::with_partitions(config.workers, config.partitions);
        if config.shards > 1 {
            let (ex_listener, _) = TcpExchange::bind(&config.exchange_addr)?;
            let exchange = TcpExchange::start(
                ex_listener,
                ShardLayout::new(config.shard, config.shards),
                config.exchange_peers.clone(),
                rt.exchange_counters(),
                tgraph_dataflow::exchange::timeout_from_env(),
            )?;
            rt.set_exchange(exchange);
        }
        // Queries reserve bytes against the same governor the dataflow
        // charges shuffles to: admission is memory-aware, not just a count.
        let admission = Admission::with_governor(
            config.max_inflight,
            config.max_queue,
            rt.governor(),
            config.query_reserve_bytes,
        );
        Ok(Server {
            rt,
            pool: GraphPool::new(&config.data_dir),
            cache: ResultCache::new(config.cache_bytes),
            admission,
            metrics: ServerMetrics::default(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            loop_pollers: Mutex::new(Vec::new()),
            epoch: AtomicU64::new(0),
            shard_lock: Mutex::new(()),
            ingest_lock: Mutex::new(()),
            patches: Mutex::new(HashMap::new()),
            optimizer: Optimizer::new(),
            features: Mutex::new(HashMap::new()),
            listener,
            config,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The server's dataflow runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// Loads `graph` in `kind` into the pool ahead of traffic.
    pub fn preload(&self, graph: &str, kind: ReprKind) -> Result<(), String> {
        self.pool
            .get(&self.rt, graph, kind, None)
            .map(|_| ())
            .map_err(|e| format!("preload {graph} as {kind}: {e}"))
    }

    /// Requests the serve loop to stop: the flag is set first, then every
    /// parked poller is notified so accept and reactor threads wake
    /// immediately instead of after a poll interval.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for poller in lock_unpoisoned(&self.loop_pollers).iter() {
            let _ = poller.notify();
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Accepts and serves connections until shutdown is requested (the
    /// connection layer is [`crate::eventloop`]).
    pub fn serve(self: &Arc<Self>) -> std::io::Result<()> {
        crate::eventloop::serve(self)
    }

    /// Handles one request line and returns the response text (no trailing
    /// newline). Exposed for in-process testing and the smoke harness.
    /// Requests that stream multiple lines (`shard_exec` acks) are joined
    /// with `'\n'`.
    pub fn handle_line(&self, line: &str) -> String {
        let mut lines: Vec<String> = Vec::new();
        self.handle_line_to(line, &mut |l: &str| lines.push(l.to_string()));
        lines.join("\n")
    }

    /// Handles one request line, emitting one or more response lines into
    /// `out`. Every request answers exactly one line except `shard_exec`,
    /// which on acceptance emits an ack line *before* executing (so the
    /// coordinator knows every peer joined the wave) and its digest after.
    pub fn handle_line_to(&self, line: &str, out: &mut dyn FnMut(&str)) {
        self.handle_line_batched(line, out, &mut None);
    }

    /// [`Server::handle_line_to`] with a batch-scoped admission slot: a
    /// deadline-free zoom returns its permit into `permit_slot` instead of
    /// releasing it, and the next zoom in the same batch picks it up without
    /// re-admitting. The event loop threads one slot across every line of a
    /// pipelined batch (the batch runs serially on one dispatcher, so the
    /// carried permit never covers two concurrent executions), amortizing
    /// the admission lock/condvar and governor reservation over the batch.
    /// Dropping the slot after the last line releases the permit as usual.
    pub(crate) fn handle_line_batched(
        &self,
        line: &str,
        out: &mut dyn FnMut(&str),
        permit_slot: &mut Option<crate::admission::Permit>,
    ) {
        ServerMetrics::bump(&self.metrics.requests);
        match parse_request(line) {
            Err(e) => {
                ServerMetrics::bump(&self.metrics.bad_requests);
                out(&error_response("bad_request", &e.0));
            }
            Ok(Request::Ping) => {
                out(
                    &Json::obj(vec![("ok", Json::Bool(true)), ("pong", Json::Bool(true))])
                        .to_string(),
                )
            }
            Ok(Request::Shutdown) => {
                self.request_shutdown();
                out(&Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("shutting_down", Json::Bool(true)),
                ])
                .to_string());
            }
            Ok(Request::Stats) => out(&self.stats_response()),
            Ok(Request::Zoom(req)) => out(&self.handle_zoom_with(&req, line, permit_slot)),
            Ok(Request::Ingest(req)) => out(&self.handle_ingest(&req, line)),
            Ok(Request::ShardExec {
                epoch,
                dataset_epoch,
                repr_override,
                zoom,
            }) => self.handle_shard_exec(epoch, dataset_epoch, repr_override, &zoom, out),
            Ok(Request::ShardIngest {
                epoch,
                since,
                ingest,
            }) => out(&self.handle_shard_ingest(epoch, since, &ingest)),
        }
    }

    /// `line` is the raw request text: the coordinator embeds it verbatim in
    /// the `shard_exec` broadcast so every shard parses the identical query.
    /// `permit_slot` optionally carries an already-held admission permit
    /// between the zooms of one pipelined batch (see
    /// [`Server::handle_line_batched`]); only deadline-free requests use it —
    /// a deadline must flow through `admit` so queue-full and expiry
    /// rejections keep their semantics.
    fn handle_zoom_with(
        &self,
        req: &ZoomRequest,
        line: &str,
        permit_slot: &mut Option<crate::admission::Permit>,
    ) -> String {
        if self.config.shards > 1 && self.config.shard != 0 {
            ServerMetrics::bump(&self.metrics.zoom_rejected);
            return error_response(
                "not_coordinator",
                &format!(
                    "shard {} of {} does not accept zoom queries; send them to shard 0",
                    self.config.shard, self.config.shards
                ),
            );
        }
        let t0 = Instant::now();
        let deadline = req.deadline_ms.map(|ms| t0 + Duration::from_millis(ms));
        // An already-expired deadline is rejected before any graph load,
        // cache probe, or task wave (acceptance criterion).
        if deadline.is_some_and(|d| Instant::now() >= d) {
            ServerMetrics::bump(&self.metrics.zoom_rejected);
            return error_response("deadline", "deadline expired before execution");
        }
        // Resolve `"repr":"auto"` *before* the pool load and cache probe so
        // an auto request resolved to (say) VE shares pool residents and
        // cache entries with an explicit `"repr":"ve"` request.
        let shape = req.shape();
        let was_auto = req.auto_repr;
        let mut resolved_req;
        let (req, decision) = if req.auto_repr {
            let (r, d) = self.resolve_auto(req, &shape);
            resolved_req = r;
            resolved_req.auto_repr = false;
            if let Some(d) = &d {
                ServerMetrics::bump(&self.metrics.auto_chosen);
                if d.source == ChoiceSource::Observed {
                    ServerMetrics::bump(&self.metrics.auto_by_observed);
                }
            }
            (&resolved_req, d)
        } else if req.explain {
            // EXPLAIN on an explicit representation still consults the
            // optimizer so the response can show what it *would* pick —
            // without overriding the caller's pinned choice.
            let d = self
                .graph_features(&req.graph, req.range)
                .and_then(|f| self.optimizer.choose(&shape, &f, &req.pipeline));
            (req, d)
        } else {
            (req, None)
        };
        let optimizer_block = optimizer_json(req, was_auto, decision.as_ref());
        // NOTE: the pool load runs *outside* the cancel scope on purpose: a
        // cancellation unwinding through the pool's single-flight section
        // would strand other waiters on the in-flight marker.
        let shared = match self.pool.get(&self.rt, &req.graph, req.repr, req.range) {
            Ok(g) => g,
            Err(e) => {
                ServerMetrics::bump(&self.metrics.zoom_rejected);
                return error_response(
                    "not_found",
                    &format!("cannot load graph '{}' as {}: {e}", req.graph, req.repr),
                );
            }
        };
        // The one canonical text of this request: cache key, maintenance
        // seed key and divergence report all read this string.
        let canonical = req.canonical();
        let key = cache_key(&shared, &canonical);
        if !req.no_cache {
            if let Some(bytes) = self.cache.get(&key) {
                ServerMetrics::bump(&self.metrics.zoom_cache_hits);
                self.metrics.hit_latency.record(t0.elapsed());
                self.metrics.total_latency.record(t0.elapsed());
                return zoom_response(
                    "hit",
                    t0.elapsed(),
                    Duration::ZERO,
                    &key,
                    optimizer_block.as_ref(),
                    &bytes,
                );
            }
        }
        let reused = deadline.is_none() && permit_slot.is_some();
        let permit = match permit_slot.take() {
            Some(p) if deadline.is_none() => {
                ServerMetrics::bump(&self.metrics.admission_reuses);
                p
            }
            carried => {
                // A deadline request releases any carried permit first:
                // holding a slot while queueing for a second would deadlock
                // a max_inflight=1 gate against itself.
                drop(carried);
                match self.admission.admit(deadline) {
                    Ok(p) => p,
                    Err(e) => {
                        ServerMetrics::bump(&self.metrics.zoom_rejected);
                        let kind = match e {
                            AdmitError::QueueFull => "queue_full",
                            AdmitError::DeadlineExpired => "deadline",
                        };
                        return error_response(kind, &e.to_string());
                    }
                }
            }
        };
        if !reused {
            self.metrics.admission_wait.record(permit.waited);
        }
        let token = match deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        let exec0 = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            token.scope(|| {
                if self.config.shards > 1 {
                    self.execute_steps_sharded(&shared, req, line)
                        .map(|(result, replies)| (result, replies, false))
                } else {
                    let (result, patched) = self.execute_or_patch(&shared, req, &canonical);
                    Ok((result, Vec::new(), patched))
                }
            })
        }));
        // A deadline-free permit parks in the slot for the next zoom of the
        // batch (the caller drops the slot when the batch ends); any other
        // permit releases immediately.
        if deadline.is_none() {
            *permit_slot = Some(permit);
        } else {
            drop(permit);
        }
        let exec = exec0.elapsed();
        match outcome {
            Err(panic) => {
                ServerMetrics::bump(&self.metrics.zoom_rejected);
                error_response(
                    "internal",
                    &format!("execution panicked: {}", panic_detail(&*panic)),
                )
            }
            Ok(Err(_cancelled)) => {
                ServerMetrics::bump(&self.metrics.zoom_cancelled);
                error_response("cancelled", "deadline expired during execution")
            }
            Ok(Ok(Err((kind, message)))) => {
                ServerMetrics::bump(&self.metrics.zoom_rejected);
                error_response(&kind, &message)
            }
            Ok(Ok(Ok((result, replies, patched)))) => {
                let bytes: Arc<[u8]> = serialize_tgraph(&result).into_bytes().into();
                if let Some(divergence) = self.check_shard_agreement(&bytes, &replies) {
                    return divergence;
                }
                if !req.no_cache {
                    self.cache.insert(&key, Arc::clone(&bytes));
                }
                ServerMetrics::bump(&self.metrics.zoom_executed);
                if patched {
                    ServerMetrics::bump(&self.metrics.zoom_patched);
                } else {
                    // Adaptive feedback: only cold executions measure the
                    // representation itself (hits measure the cache and
                    // patches measure the delta), so only they feed the
                    // optimizer's observed-run-time table.
                    self.optimizer
                        .observe(&shape, req.repr, exec.as_micros() as u64);
                }
                self.metrics.exec_latency.record(exec);
                self.metrics.total_latency.record(t0.elapsed());
                let cache_tag = if patched { "patch" } else { "miss" };
                zoom_response(
                    cache_tag,
                    t0.elapsed(),
                    exec,
                    &key,
                    optimizer_block.as_ref(),
                    &bytes,
                )
            }
        }
    }

    /// Resolves an `"repr":"auto"` request: header-only storage features
    /// feed the cost model, the per-shape observed table feeds adaptive
    /// re-optimization, and the winner becomes the request's concrete
    /// representation. Falls back to the VE placeholder (with no decision)
    /// when the dataset's statistics are unreadable — the pool load will
    /// surface the real error.
    fn resolve_auto(&self, req: &ZoomRequest, shape: &str) -> (ZoomRequest, Option<Decision>) {
        let mut resolved = req.clone();
        let Some(features) = self.graph_features(&req.graph, req.range) else {
            return (resolved, None);
        };
        match self.optimizer.choose(shape, &features, &req.pipeline) {
            Some(decision) => {
                resolved.repr = decision.chosen;
                (resolved, Some(decision))
            }
            None => (resolved, None),
        }
    }

    /// Free cardinality/evolution features of `graph`, read from `.tgc`
    /// chunk headers (O(chunks), no row decode). Full-history features are
    /// cached per dataset epoch; range-restricted requests recompute, since
    /// the pushdown changes the row estimates.
    fn graph_features(&self, graph: &str, range: Option<Interval>) -> Option<GraphFeatures> {
        let loader = GraphLoader::new(&self.config.data_dir, graph);
        let epoch = loader.current_epoch().ok()?;
        if range.is_none() {
            if let Some((cached_epoch, f)) = lock_unpoisoned(&self.features).get(graph) {
                if *cached_epoch == epoch {
                    return Some(*f);
                }
            }
        }
        let stats = loader.flat_stats(SortOrder::Temporal).ok()?;
        let features = GraphFeatures::from_tgc_stats(&stats, range.as_ref());
        if range.is_none() {
            lock_unpoisoned(&self.features).insert(graph.to_string(), (epoch, features));
        }
        Some(features)
    }

    /// Runs one zoom across every shard: broadcast `shard_exec` to the
    /// peers, execute our own partition slots (the exchange interleaves the
    /// shuffle waves), then collect each peer's result digest.
    ///
    /// The error value is a `(kind, message)` pair for [`error_response`].
    fn execute_steps_sharded(
        &self,
        shared: &SharedGraph,
        req: &ZoomRequest,
        line: &str,
    ) -> Result<(TGraph, Vec<PeerReply>), (String, String)> {
        let peer_err =
            |addr: &str, what: String| ("shard_peer".to_string(), format!("peer {addr}: {what}"));
        let _guard = lock_unpoisoned(&self.shard_lock);
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let timeout = tgraph_dataflow::exchange::timeout_from_env();
        // The envelope pins the coordinator's dataset epoch (a peer behind
        // it rejects with `stale_epoch` instead of computing on stale data)
        // and the resolved representation (an `"auto"` query must not
        // re-resolve per shard — observation tables diverge across shards).
        let msg = format!(
            "{{\"op\":\"shard_exec\",\"epoch\":{epoch},\"dataset_epoch\":{},\"repr\":\"{}\",\"zoom\":{}}}\n",
            shared.epoch,
            req.repr,
            line.trim()
        );
        // Phase 1: dispatch to every peer and collect their *acks* before
        // executing locally. A peer that will not join the wave (stale
        // epoch, missing dataset) must be detected now — discovering it
        // after entering the exchange would stall every shard until the
        // wave timeout.
        let mut conns = Vec::new();
        for (s, addr) in self.config.serve_peers.iter().enumerate() {
            if s == self.config.shard {
                continue;
            }
            let mut reader = self
                .dial_and_send(addr, &msg, timeout)
                .map_err(|e| peer_err(addr, e))?;
            let ack = read_json_line(&mut reader).map_err(|e| peer_err(addr, e))?;
            let ack = if ack.get("ok").and_then(Json::as_bool) == Some(true) {
                ack
            } else if ack.get("kind").and_then(Json::as_str) == Some("stale_epoch") {
                // The peer missed one or more `shard_ingest` broadcasts.
                // Re-replicate the epochs it lacks, then retry once.
                ServerMetrics::bump(&self.metrics.shard_stale_retries);
                let peer_epoch = ack
                    .get("peer_epoch")
                    .and_then(Json::as_i64)
                    .filter(|e| *e >= 0)
                    .ok_or_else(|| {
                        peer_err(addr, "stale_epoch reply missing peer_epoch".to_string())
                    })? as u64;
                self.replicate_epochs_to(addr, &req.graph, peer_epoch, timeout)
                    .map_err(|e| peer_err(addr, e))?;
                reader = self
                    .dial_and_send(addr, &msg, timeout)
                    .map_err(|e| peer_err(addr, e))?;
                let retry = read_json_line(&mut reader).map_err(|e| peer_err(addr, e))?;
                if retry.get("ok").and_then(Json::as_bool) != Some(true) {
                    return Err(peer_err(
                        addr,
                        format!("still rejecting after epoch replication: {retry}"),
                    ));
                }
                retry
            } else {
                return Err(peer_err(addr, format!("shard {s} refused: {ack}")));
            };
            debug_assert_eq!(
                ack.get("ack").and_then(Json::as_str),
                Some("shard_exec"),
                "peer acked something else"
            );
            conns.push((s, addr.as_str(), reader));
        }
        // Distinct epochs keep this query's frame sequence numbers disjoint
        // from every earlier query's, on every shard.
        self.rt.set_exchange_seq_base(epoch << 32);
        let result = self.execute_steps(shared, req);
        // Phase 2: collect each peer's result digest.
        let mut replies = Vec::new();
        for (s, addr, mut reader) in conns {
            let v = read_json_line(&mut reader).map_err(|e| peer_err(addr, e))?;
            if v.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(peer_err(addr, format!("shard {s} failed: {v}")));
            }
            let bytes = v
                .get("result_bytes")
                .and_then(Json::as_i64)
                .filter(|n| *n >= 0)
                .ok_or_else(|| peer_err(addr, "reply missing result_bytes".to_string()))?;
            let checksum = v
                .get("result_checksum")
                .and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| peer_err(addr, "reply missing result_checksum".to_string()))?;
            replies.push(PeerReply {
                shard: s,
                bytes: bytes as u64,
                checksum,
            });
        }
        Ok((result, replies))
    }

    /// Connects to a peer's serve address, sends one request line, and
    /// returns the reader for its reply lines. Timeouts are inherited from
    /// the exchange configuration: peers answer their final digest only
    /// after the whole execution finishes.
    fn dial_and_send(
        &self,
        addr: &str,
        msg: &str,
        timeout: Duration,
    ) -> Result<BufReader<TcpStream>, String> {
        let sockaddr = addr
            .to_socket_addrs()
            .ok()
            .and_then(|mut a| a.next())
            .ok_or_else(|| "unresolvable address".to_string())?;
        let mut stream =
            TcpStream::connect_timeout(&sockaddr, timeout).map_err(|e| format!("connect: {e}"))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(timeout.saturating_mul(2)));
        stream
            .write_all(msg.as_bytes())
            .and_then(|()| stream.flush())
            .map_err(|e| format!("send: {e}"))?;
        Ok(BufReader::new(stream))
    }

    /// Brings a peer that reported `stale_epoch` back up to date: replays
    /// every epoch segment past the peer's resident epoch as a
    /// `shard_ingest`, reading the facts back from this (shared) data
    /// directory. Mirrors `broadcast_ingest`, but reconstructs the deltas
    /// from storage since the original request lines are gone.
    fn replicate_epochs_to(
        &self,
        addr: &str,
        graph: &str,
        peer_epoch: u64,
        timeout: Duration,
    ) -> Result<(), String> {
        let loader = GraphLoader::new(&self.config.data_dir, graph);
        let entries = loader
            .epochs()
            .map_err(|e| format!("read epoch manifest: {e}"))?;
        for entry in entries.iter().filter(|e| e.epoch > peer_epoch) {
            let (delta, _) = loader
                .load_delta(entry.epoch, None)
                .map_err(|e| format!("load epoch {} delta: {e}", entry.epoch))?;
            let msg = format!(
                "{{\"op\":\"shard_ingest\",\"epoch\":{},\"since\":{},\"ingest\":{}}}\n",
                entry.epoch,
                entry.since,
                ingest_json(graph, &delta)
            );
            let mut reader = self.dial_and_send(addr, &msg, timeout)?;
            let v = read_json_line(&mut reader)?;
            if v.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(format!("replicating epoch {} failed: {v}", entry.epoch));
            }
        }
        Ok(())
    }

    /// Cross-verifies the coordinator's serialized result against every
    /// peer's digest. Any mismatch fails the query loudly — a sharded
    /// deployment must be byte-indistinguishable from a single process.
    fn check_shard_agreement(&self, bytes: &[u8], replies: &[PeerReply]) -> Option<String> {
        let own_len = bytes.len() as u64;
        let own_sum = tgraph_dataflow::checksum(bytes);
        for r in replies {
            if r.bytes != own_len || r.checksum != own_sum {
                ServerMetrics::bump(&self.metrics.zoom_rejected);
                return Some(error_response(
                    "shard_divergence",
                    &format!(
                        "shard {} produced {} bytes (checksum {:016x}); \
                         coordinator produced {} bytes (checksum {:016x})",
                        r.shard, r.bytes, r.checksum, own_len, own_sum
                    ),
                ));
            }
        }
        None
    }

    /// Executes this shard's slots of a coordinator-driven query. Bypasses
    /// cache, admission, and deadlines on purpose: the coordinator already
    /// arbitrated those, and a peer stalling in a queue would wedge every
    /// shard's exchange until the wave timeout.
    ///
    /// Replies in two lines. First an *ack* — emitted after the epoch and
    /// dataset checks pass but before execution begins — which tells the
    /// coordinator it is safe to enter the exchange. Then the result
    /// digest once execution finishes. A rejection (stale epoch, missing
    /// dataset) is a single error line instead of the ack, so the
    /// coordinator learns about it before it could possibly stall.
    fn handle_shard_exec(
        &self,
        epoch: u64,
        dataset_epoch: u64,
        repr_override: Option<ReprKind>,
        req: &ZoomRequest,
        out: &mut dyn FnMut(&str),
    ) {
        if self.config.shards <= 1 {
            ServerMetrics::bump(&self.metrics.bad_requests);
            out(&error_response(
                "bad_request",
                "shard_exec sent to an unsharded server",
            ));
            return;
        }
        if self.config.shard == 0 {
            ServerMetrics::bump(&self.metrics.bad_requests);
            out(&error_response(
                "bad_request",
                "shard_exec sent to the coordinator",
            ));
            return;
        }
        // The coordinator resolved `"auto"` already; its choice rides in
        // the envelope so every shard runs the same representation.
        let mut resolved;
        let req = match repr_override {
            Some(kind) => {
                resolved = req.clone();
                resolved.repr = kind;
                resolved.auto_repr = false;
                &resolved
            }
            None => req,
        };
        let shared = match self.pool.get(&self.rt, &req.graph, req.repr, req.range) {
            Ok(g) => g,
            Err(e) => {
                out(&error_response(
                    "not_found",
                    &format!("cannot load graph '{}' as {}: {e}", req.graph, req.repr),
                ));
                return;
            }
        };
        // S1: a peer whose resident graph lags the coordinator's dataset
        // epoch (it missed an ingest broadcast) must not silently compute
        // on stale data — the per-shard results would diverge. Reject with
        // a typed error carrying our epoch so the coordinator can
        // re-replicate the missing epochs and retry.
        if dataset_epoch > 0 && shared.epoch < dataset_epoch {
            out(&Json::obj(vec![
                ("ok", Json::Bool(false)),
                ("kind", Json::str("stale_epoch")),
                (
                    "error",
                    Json::str(format!(
                        "shard {} holds '{}' at epoch {}, coordinator is at {}",
                        self.config.shard, req.graph, shared.epoch, dataset_epoch
                    )),
                ),
                ("shard", Json::Int(self.config.shard as i64)),
                ("peer_epoch", Json::Int(shared.epoch as i64)),
                ("expected_epoch", Json::Int(dataset_epoch as i64)),
            ])
            .to_string());
            return;
        }
        out(&Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("ack", Json::str("shard_exec")),
            ("epoch", Json::Int(epoch as i64)),
            ("shard", Json::Int(self.config.shard as i64)),
        ])
        .to_string());
        let _guard = lock_unpoisoned(&self.shard_lock);
        self.rt.set_exchange_seq_base(epoch << 32);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.execute_steps(&shared, req)
        }));
        match outcome {
            Err(panic) => out(&error_response(
                "internal",
                &format!(
                    "shard {} execution failed: {}",
                    self.config.shard,
                    panic_detail(&*panic)
                ),
            )),
            Ok(result) => {
                let bytes = serialize_tgraph(&result).into_bytes();
                out(&Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("epoch", Json::Int(epoch as i64)),
                    ("shard", Json::Int(self.config.shard as i64)),
                    ("result_bytes", Json::Int(bytes.len() as i64)),
                    (
                        "result_checksum",
                        Json::str(format!("{:016x}", tgraph_dataflow::checksum(&bytes))),
                    ),
                ])
                .to_string());
            }
        }
    }

    /// Commits a snapshot delta as a new dataset epoch. Single-writer:
    /// storage append, pool advance, cache invalidation, and (sharded) peer
    /// broadcast all happen under one lock, in that order. `line` is the raw
    /// request text, embedded verbatim in the `shard_ingest` broadcast.
    fn handle_ingest(&self, req: &IngestRequest, line: &str) -> String {
        if self.config.shards > 1 && self.config.shard != 0 {
            ServerMetrics::bump(&self.metrics.zoom_rejected);
            return error_response(
                "not_coordinator",
                &format!(
                    "shard {} of {} does not accept ingest; send it to shard 0",
                    self.config.shard, self.config.shards
                ),
            );
        }
        let _writer = lock_unpoisoned(&self.ingest_lock);
        let current = match tgraph_storage::current_end(&self.config.data_dir, &req.graph) {
            Ok(t) => t,
            Err(e) => {
                return error_response(
                    "not_found",
                    &format!("cannot ingest into '{}': {e}", req.graph),
                )
            }
        };
        if let Some(since) = req.since {
            if since != current {
                return error_response(
                    "stale_since",
                    &format!(
                        "dataset '{}' is at lifespan end {current}, request asserts {since}",
                        req.graph
                    ),
                );
            }
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
        let dropped = self.invalidate_graph(&req.graph);
        // `drop_ingest_broadcast` is fault injection for the stale-epoch
        // e2e test: commit locally but let the peers lag behind.
        if self.config.shards > 1 && !self.config.drop_ingest_broadcast {
            if let Err((kind, message)) = self.broadcast_ingest(entry.epoch, current, line) {
                return error_response(&kind, &message);
            }
        }
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

    /// Drops every cached result of `graph` (any representation). With
    /// epoch-stamped keys stale entries are unreachable anyway; invalidation
    /// reclaims their bytes immediately instead of waiting on LRU pressure.
    fn invalidate_graph(&self, graph: &str) -> u64 {
        let needle = format!("graph={graph};");
        self.cache
            .invalidate(|canonical| canonical.contains(&needle))
    }

    /// Notifies every peer shard that a dataset epoch was committed. Peers
    /// share the data directory, so they only advance their resident graphs
    /// and drop their cached results — no storage write.
    fn broadcast_ingest(
        &self,
        epoch: u64,
        since: Time,
        line: &str,
    ) -> Result<(), (String, String)> {
        let peer_err =
            |addr: &str, what: String| ("shard_peer".to_string(), format!("peer {addr}: {what}"));
        let timeout = tgraph_dataflow::exchange::timeout_from_env();
        for (s, addr) in self.config.serve_peers.iter().enumerate() {
            if s == self.config.shard {
                continue;
            }
            let sockaddr = addr
                .to_socket_addrs()
                .ok()
                .and_then(|mut a| a.next())
                .ok_or_else(|| peer_err(addr, "unresolvable address".to_string()))?;
            let mut stream = TcpStream::connect_timeout(&sockaddr, timeout)
                .map_err(|e| peer_err(addr, format!("connect: {e}")))?;
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(timeout.saturating_mul(2)));
            let msg = format!(
                "{{\"op\":\"shard_ingest\",\"epoch\":{epoch},\"since\":{since},\"ingest\":{}}}\n",
                line.trim()
            );
            stream
                .write_all(msg.as_bytes())
                .and_then(|()| stream.flush())
                .map_err(|e| peer_err(addr, format!("send: {e}")))?;
            let mut reader = BufReader::new(stream);
            let mut reply = String::new();
            reader
                .read_line(&mut reply)
                .map_err(|e| peer_err(addr, format!("reply: {e}")))?;
            if reply.trim().is_empty() {
                return Err(peer_err(addr, "disconnected before replying".to_string()));
            }
            let v = crate::json::parse(reply.trim())
                .map_err(|e| peer_err(addr, format!("unparseable reply: {}", e.message)))?;
            if v.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(peer_err(
                    addr,
                    format!("shard {s} failed: {}", reply.trim()),
                ));
            }
        }
        Ok(())
    }

    /// Applies a coordinator-committed epoch on a peer shard: advance the
    /// resident graphs in place and drop cached results. The authoritative
    /// boundary rides in the envelope — the peer never consults its own view
    /// of the dataset end, which may lag the coordinator's commit.
    fn handle_shard_ingest(&self, epoch: u64, since: Time, req: &IngestRequest) -> String {
        if self.config.shards <= 1 {
            ServerMetrics::bump(&self.metrics.bad_requests);
            return error_response("bad_request", "shard_ingest sent to an unsharded server");
        }
        if self.config.shard == 0 {
            ServerMetrics::bump(&self.metrics.bad_requests);
            return error_response("bad_request", "shard_ingest sent to the coordinator");
        }
        let delta = SnapshotDelta {
            since,
            vertices: req.vertices.clone(),
            edges: req.edges.clone(),
        };
        if let Err(e) = delta.validate() {
            return error_response("bad_delta", &e.to_string());
        }
        let upgraded = self
            .pool
            .advance(&self.rt, &req.graph, epoch, &delta.to_tgraph());
        let dropped = self.invalidate_graph(&req.graph);
        ServerMetrics::bump(&self.metrics.ingests);
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("shard", Json::Int(self.config.shard as i64)),
            ("epoch", Json::Int(epoch as i64)),
            ("pool_upgrades", Json::Int(upgraded as i64)),
            ("cache_invalidations", Json::Int(dropped as i64)),
        ])
        .to_string()
    }

    /// The one executor every path shares: cold runs here, suffix re-runs
    /// inside [`patch_from_storage`], both through `tgraph_query`'s
    /// `Pipeline::execute` — which is what makes a patched result
    /// byte-identical to a recompute.
    fn execute_steps(&self, shared: &SharedGraph, req: &ZoomRequest) -> TGraph {
        req.pipeline.collect(&self.rt, (*shared.graph).clone())
    }

    /// Unsharded execution with incremental maintenance: when a prior result
    /// for the same canonical query exists at an earlier dataset epoch and
    /// the maintenance planner allows it, re-run the pipeline over the disk
    /// suffix `[cut, ∞)` only and stitch — O(delta + live-at-cut) instead of
    /// O(history). Falls back to a cold run otherwise, and records the fresh
    /// result as the seed for the next ingest. Returns `(result, patched)`.
    fn execute_or_patch(
        &self,
        shared: &SharedGraph,
        req: &ZoomRequest,
        canonical: &str,
    ) -> (TGraph, bool) {
        // Range-restricted residents are not full history (the stitch
        // invariant needs all of it) and `no_cache` requests promise cold
        // semantics, so both bypass maintenance entirely.
        let eligible = req.range.is_none() && !req.no_cache;
        let attempt = if eligible {
            self.try_patch(shared, req, canonical)
        } else {
            None
        };
        let patched = attempt.is_some();
        let result = attempt.unwrap_or_else(|| self.execute_steps(shared, req));
        if eligible {
            let mut patches = lock_unpoisoned(&self.patches);
            if patches.len() >= PATCH_STORE_CAP && !patches.contains_key(canonical) {
                // Bounded store: drop an arbitrary seed; the evicted query
                // simply recomputes cold after its next ingest.
                if let Some(victim) = patches.keys().next().cloned() {
                    patches.remove(&victim);
                }
            }
            patches.insert(
                canonical.to_string(),
                PatchEntry {
                    epoch: shared.epoch,
                    boundary: shared.graph.lifespan().end,
                    result: result.clone(),
                },
            );
        }
        (result, patched)
    }

    /// Attempts the patch path. `None` means "no seed / planner said
    /// recompute / suffix unreadable" — the caller runs cold. In checked
    /// mode (`TGRAPH_CHECKED=1`) the patched bytes are verified against a
    /// full cold recompute and any divergence fails the query loudly.
    fn try_patch(
        &self,
        shared: &SharedGraph,
        req: &ZoomRequest,
        canonical: &str,
    ) -> Option<TGraph> {
        let entry = lock_unpoisoned(&self.patches).get(canonical).cloned()?;
        // Same epoch: the cached seed is already current (the result cache
        // answered or will answer); newer epoch on the seed cannot happen
        // under the single-writer ingest lock, but guard anyway.
        if entry.epoch >= shared.epoch {
            return None;
        }
        let patched = patch_from_storage(
            &self.rt,
            &GraphLoader::new(&self.config.data_dir, &req.graph),
            shared.graph.lifespan(),
            req.repr,
            &req.pipeline,
            &entry.result,
            entry.boundary,
        )
        .ok()?;
        if self.rt.checked() {
            let cold = self.execute_steps(shared, req);
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

    fn stats_response(&self) -> String {
        let rt = self.rt.stats();
        let cache = self.cache.stats();
        let admission = self.admission.stats();
        let pool = self.pool.stats();
        let optimizer = self.optimizer.stats();
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            (
                "uptime_ms",
                Json::Int(self.started.elapsed().as_millis() as i64),
            ),
            ("shard", Json::Int(self.config.shard as i64)),
            ("shards", Json::Int(self.config.shards as i64)),
            ("server", self.metrics.to_json()),
            (
                "cache",
                Json::obj(vec![
                    ("hits", Json::Int(cache.hits as i64)),
                    ("misses", Json::Int(cache.misses as i64)),
                    ("insertions", Json::Int(cache.insertions as i64)),
                    ("evictions", Json::Int(cache.evictions as i64)),
                    ("invalidations", Json::Int(cache.invalidations as i64)),
                    ("bytes_used", Json::Int(cache.bytes_used as i64)),
                    ("byte_budget", Json::Int(cache.byte_budget as i64)),
                ]),
            ),
            (
                "admission",
                Json::obj(vec![
                    ("admitted", Json::Int(admission.admitted as i64)),
                    (
                        "rejected_queue_full",
                        Json::Int(admission.rejected_queue_full as i64),
                    ),
                    (
                        "rejected_deadline",
                        Json::Int(admission.rejected_deadline as i64),
                    ),
                    ("wait_us_total", Json::Int(admission.wait_us_total as i64)),
                    ("memory_stalls", Json::Int(admission.memory_stalls as i64)),
                    (
                        "release_underflows",
                        Json::Int(admission.release_underflows as i64),
                    ),
                    ("inflight", Json::Int(admission.inflight as i64)),
                    ("queue_depth", Json::Int(admission.queue_depth as i64)),
                    ("max_inflight", Json::Int(self.config.max_inflight as i64)),
                    ("max_queue", Json::Int(self.config.max_queue as i64)),
                ]),
            ),
            (
                "pool",
                Json::obj(vec![
                    ("hits", Json::Int(pool.hits as i64)),
                    ("misses", Json::Int(pool.misses as i64)),
                    ("loads", Json::Int(pool.loads as i64)),
                    ("epoch_upgrades", Json::Int(pool.epoch_upgrades as i64)),
                ]),
            ),
            (
                "optimizer",
                Json::obj(vec![
                    ("observed_pairs", Json::Int(optimizer.observed_pairs as i64)),
                    ("observations", Json::Int(optimizer.observations as i64)),
                ]),
            ),
            (
                "runtime",
                Json::obj(vec![
                    ("workers", Json::Int(self.rt.workers() as i64)),
                    ("partitions", Json::Int(self.rt.partitions() as i64)),
                    ("tasks", Json::Int(rt.tasks as i64)),
                    ("waves", Json::Int(rt.waves as i64)),
                    ("shuffles", Json::Int(rt.shuffles as i64)),
                    ("shuffles_elided", Json::Int(rt.shuffles_elided as i64)),
                    ("shuffled_records", Json::Int(rt.shuffled_records as i64)),
                    ("shuffled_bytes", Json::Int(rt.shuffled_bytes as i64)),
                    ("waves_cancelled", Json::Int(rt.waves_cancelled as i64)),
                    ("tasks_cancelled", Json::Int(rt.tasks_cancelled as i64)),
                    ("max_task_us", Json::Int(rt.max_task_us as i64)),
                    ("wave_us", Json::Int(rt.wave_us as i64)),
                    ("mem_budget", Json::Int(self.rt.mem_budget() as i64)),
                    ("peak_bytes", Json::Int(rt.peak_bytes as i64)),
                    ("bytes_spilled", Json::Int(rt.bytes_spilled as i64)),
                    ("spill_files", Json::Int(rt.spill_files as i64)),
                    ("bytes_exchanged", Json::Int(rt.bytes_exchanged as i64)),
                    ("frames_sent", Json::Int(rt.frames_sent as i64)),
                    ("frames_received", Json::Int(rt.frames_received as i64)),
                    ("exchange_stalls", Json::Int(rt.exchange_stalls as i64)),
                ]),
            ),
        ])
        .to_string()
    }
}

/// Lowercase wire spelling of a representation (`Display` is uppercase;
/// the protocol accepts either but emits lowercase, matching requests).
fn repr_wire(kind: ReprKind) -> String {
    kind.to_string().to_ascii_lowercase()
}

/// The `"optimizer"` response block: present for `"repr":"auto"` requests
/// and for any request with `"explain":true`. Shows the requested vs
/// chosen representation and the choice's provenance; under EXPLAIN the
/// full candidate table rides along — each representation's predicted
/// work, predicted shuffle bytes, observed mean run time (null until the
/// server has executed that candidate for this shape), and the effective
/// score the decision ranked by.
fn optimizer_json(req: &ZoomRequest, was_auto: bool, decision: Option<&Decision>) -> Option<Json> {
    if !was_auto && !req.explain {
        return None;
    }
    let mut fields = vec![
        (
            "requested",
            if was_auto {
                Json::str("auto")
            } else {
                Json::str(repr_wire(req.repr))
            },
        ),
        ("chosen", Json::str(repr_wire(req.repr))),
        (
            "source",
            Json::str(match decision {
                Some(d) => d.source.as_str(),
                // Auto with unreadable stats falls back to the default
                // representation; EXPLAIN without a decision ditto.
                None => "fallback",
            }),
        ),
    ];
    if let Some(d) = decision {
        if d.chosen != req.repr {
            // The request pinned a representation the optimizer disagrees
            // with (only possible under EXPLAIN-on-explicit).
            fields.push(("would_choose", Json::str(repr_wire(d.chosen))));
        }
        if req.explain {
            fields.push((
                "candidates",
                Json::Arr(
                    d.candidates
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("repr", Json::str(repr_wire(c.repr))),
                                ("predicted_work", Json::Float(c.predicted_work)),
                                (
                                    "predicted_shuffle_bytes",
                                    Json::Int(c.predicted_shuffle_bytes as i64),
                                ),
                                (
                                    "observed_us",
                                    match c.observed_us {
                                        Some(us) => Json::Float(us),
                                        None => Json::Null,
                                    },
                                ),
                                ("effective", Json::Float(c.effective)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
    }
    Some(Json::obj(fields))
}

/// Reads one newline-terminated JSON reply from a peer connection.
fn read_json_line(reader: &mut BufReader<TcpStream>) -> Result<Json, String> {
    let mut reply = String::new();
    reader
        .read_line(&mut reply)
        .map_err(|e| format!("reply: {e}"))?;
    if reply.trim().is_empty() {
        return Err("disconnected before replying".to_string());
    }
    crate::json::parse(reply.trim()).map_err(|e| format!("unparseable reply: {}", e.message))
}

/// Renders a delta graph as an ingest request body — the inverse of
/// [`parse_ingest_request`]'s fact schema. Used to re-replicate committed
/// epochs to a peer that reported `stale_epoch` (the original request
/// lines are gone by then; the facts come back out of storage).
fn ingest_json(graph: &str, delta: &TGraph) -> String {
    let interval =
        |i: tgraph_core::time::Interval| Json::Arr(vec![Json::Int(i.start), Json::Int(i.end)]);
    let props = |p: &Props| {
        Json::Obj(
            p.iter()
                .map(|(k, v)| {
                    let value = match v {
                        Value::Bool(b) => Json::Bool(*b),
                        Value::Int(i) => Json::Int(*i),
                        Value::Float(f) => Json::Float(*f),
                        Value::Str(s) => Json::Str(s.to_string()),
                    };
                    (k.to_string(), value)
                })
                .collect(),
        )
    };
    Json::obj(vec![
        ("op", Json::str("ingest")),
        ("graph", Json::str(graph)),
        (
            "vertices",
            Json::Arr(
                delta
                    .vertices
                    .iter()
                    .map(|v| {
                        Json::obj(vec![
                            ("id", Json::Int(v.vid.0 as i64)),
                            ("interval", interval(v.interval)),
                            ("props", props(&v.props)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "edges",
            Json::Arr(
                delta
                    .edges
                    .iter()
                    .map(|e| {
                        Json::obj(vec![
                            ("id", Json::Int(e.eid.0 as i64)),
                            ("src", Json::Int(e.src.0 as i64)),
                            ("dst", Json::Int(e.dst.0 as i64)),
                            ("interval", interval(e.interval)),
                            ("props", props(&e.props)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .to_string()
}

/// One peer's digest of a sharded execution: the coordinator compares these
/// against its own serialization to prove every shard agreed byte-for-byte.
struct PeerReply {
    shard: usize,
    bytes: u64,
    checksum: u64,
}

/// Best-effort rendering of a panic payload. Exchange and spill failures
/// travel as typed payloads through `panic_any`; surfacing "peer 1 died
/// mid-wave" beats a bare "execution panicked".
fn panic_detail(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(e) = panic.downcast_ref::<tgraph_dataflow::ExchangeError>() {
        e.to_string()
    } else if let Some(e) = panic.downcast_ref::<tgraph_dataflow::SpillError>() {
        e.to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "opaque payload; see server log".to_string()
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.listener.local_addr().ok())
            .field("data_dir", &self.config.data_dir)
            .finish()
    }
}

/// Builds the cache key for a request over a loaded graph: FNV-1a over the
/// graph's per-dataset plan fingerprints plus the canonical query string.
/// The canonical text (prefixed with the lineage digests) rides along in the
/// key, making lookups immune to 64-bit collisions.
fn cache_key(shared: &SharedGraph, query: &str) -> CacheKey {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(PRIME);
        }
    };
    let mut canonical = String::new();
    // Generation stamp: an ingest advances the dataset epoch, so results
    // computed before it can never be replayed after it — even if a lineage
    // fingerprint ever collided across epochs.
    write(&shared.epoch.to_le_bytes());
    canonical.push_str(&format!("epoch={};", shared.epoch));
    for (name, lineage) in shared.graph.lineages() {
        let fp = tgraph_dataflow::lineage::fingerprint(&lineage);
        write(name.as_bytes());
        write(&fp.to_le_bytes());
        canonical.push_str(&format!("{name}={fp:#018x};"));
    }
    write(query.as_bytes());
    canonical.push_str(query);
    CacheKey { hash, canonical }
}

/// Serializes a logical graph result deterministically: records sorted by
/// (id, interval), object fields in fixed order, properties in `Props`'s
/// sorted key order. Identical results → identical bytes, the invariant the
/// result cache's byte-identical replay relies on.
pub fn serialize_tgraph(g: &TGraph) -> String {
    let interval =
        |i: tgraph_core::time::Interval| Json::Arr(vec![Json::Int(i.start), Json::Int(i.end)]);
    let props = |p: &Props| {
        Json::Obj(
            p.iter()
                .map(|(k, v)| {
                    let value = match v {
                        Value::Bool(b) => Json::Bool(*b),
                        Value::Int(i) => Json::Int(*i),
                        Value::Float(f) => Json::Float(*f),
                        Value::Str(s) => Json::Str(s.to_string()),
                    };
                    (k.to_string(), value)
                })
                .collect(),
        )
    };
    let mut vertices: Vec<_> = g.vertices.iter().collect();
    vertices.sort_by_key(|v| (v.vid, v.interval));
    let mut edges: Vec<_> = g.edges.iter().collect();
    edges.sort_by_key(|e| (e.eid, e.interval));
    Json::obj(vec![
        ("lifespan", interval(g.lifespan)),
        (
            "vertices",
            Json::Arr(
                vertices
                    .into_iter()
                    .map(|v| {
                        Json::obj(vec![
                            ("id", Json::Int(v.vid.0 as i64)),
                            ("interval", interval(v.interval)),
                            ("props", props(&v.props)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "edges",
            Json::Arr(
                edges
                    .into_iter()
                    .map(|e| {
                        Json::obj(vec![
                            ("id", Json::Int(e.eid.0 as i64)),
                            ("src", Json::Int(e.src.0 as i64)),
                            ("dst", Json::Int(e.dst.0 as i64)),
                            ("interval", interval(e.interval)),
                            ("props", props(&e.props)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .to_string()
}

pub(crate) fn error_response(kind: &str, message: &str) -> String {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("kind", Json::str(kind)),
        ("error", Json::str(message)),
    ])
    .to_string()
}

/// Composes a zoom response. `result` is ALWAYS the final field and its
/// bytes are spliced in verbatim, so clients (and the smoke test) can
/// extract everything after `"result":` up to the closing brace and compare
/// replays byte-for-byte. The optional `optimizer` block (auto-choice /
/// EXPLAIN) is spliced immediately before it.
fn zoom_response(
    cache: &str,
    total: Duration,
    exec: Duration,
    key: &CacheKey,
    optimizer: Option<&Json>,
    result: &[u8],
) -> String {
    let mut out = Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("cache", Json::str(cache)),
        ("fingerprint", Json::str(format!("{:#018x}", key.hash))),
        ("total_us", Json::Int(total.as_micros() as i64)),
        ("exec_us", Json::Int(exec.as_micros() as i64)),
    ])
    .to_string();
    out.pop(); // strip the closing '}' to splice the trailing fields in
    if let Some(block) = optimizer {
        out.push_str(",\"optimizer\":");
        out.push_str(&block.to_string());
    }
    out.push_str(",\"result\":");
    out.push_str(std::str::from_utf8(result).unwrap_or("null"));
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph_core::graph::figure1_graph_stable_ids;
    use tgraph_storage::write_dataset;

    fn server_over_figure1(name: &str) -> Arc<Server> {
        let dir = std::env::temp_dir().join("tgraph-serve-unit");
        write_dataset(&dir, name, &figure1_graph_stable_ids()).expect("write dataset");
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir,
            workers: 2,
            partitions: 2,
            max_inflight: 2,
            max_queue: 8,
            cache_bytes: 1 << 20,
            ..ServerConfig::default()
        })
        .expect("bind");
        Arc::new(server)
    }

    fn zoom_line(name: &str, extra: &str) -> String {
        format!(
            r#"{{"op":"zoom","graph":"{name}","repr":"ve",{extra}"steps":[
                {{"azoom":{{"by":"school","new_type":"school",
                           "aggs":[{{"output":"students","fn":"count"}}]}}}}]}}"#
        )
        .replace('\n', " ")
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
        let result_of = |s: &str| {
            let at = s.find("\"result\":").expect("result field");
            s[at..].to_string()
        };
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
        let before = server.runtime().snapshot();
        let line = zoom_line("unit2", "\"deadline_ms\":0,");
        let resp = server.handle_line(&line);
        assert!(resp.contains("\"ok\":false"), "{resp}");
        assert!(resp.contains("\"kind\":\"deadline\""), "{resp}");
        let delta = before.delta(server.runtime());
        assert_eq!(delta.waves, 0, "no task wave executed");
        assert_eq!(delta.tasks, 0);
    }

    #[test]
    fn bad_requests_and_unknown_graphs_are_rejected() {
        let server = server_over_figure1("unit3");
        let bad = server.handle_line("this is not json");
        assert!(bad.contains("\"kind\":\"bad_request\""), "{bad}");
        let missing = server.handle_line(&zoom_line("no-such-graph", ""));
        assert!(missing.contains("\"kind\":\"not_found\""), "{missing}");
        let pong = server.handle_line(r#"{"op":"ping"}"#);
        assert_eq!(pong, r#"{"ok":true,"pong":true}"#);
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

    /// The optimizer's observation rows are keyed by the query's shape; a
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

    #[test]
    fn serialization_is_deterministic_for_a_fixed_graph() {
        let g = figure1_graph_stable_ids();
        assert_eq!(serialize_tgraph(&g), serialize_tgraph(&g));
        assert!(serialize_tgraph(&g).starts_with("{\"lifespan\":["));
    }

    /// A server over figure 1 in a *fresh* directory: ingest tests append
    /// epoch segments, which must not leak between `cargo test` runs.
    fn fresh_server(dirname: &str, name: &str) -> Arc<Server> {
        let dir = std::env::temp_dir().join(dirname);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create data dir");
        write_dataset(&dir, name, &figure1_graph_stable_ids()).expect("write dataset");
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir,
            workers: 2,
            partitions: 2,
            max_inflight: 2,
            max_queue: 8,
            cache_bytes: 1 << 20,
            ..ServerConfig::default()
        })
        .expect("bind");
        Arc::new(server)
    }

    /// A valid delta over figure 1 (lifespan `[1,9)`): re-asserts the two
    /// continuing vertices, adds a new ETH student, and extends edge 2 —
    /// every edge interval covered by delta-asserted endpoint states, so the
    /// post-ingest graph stays valid under Definition 2.1.
    fn ingest_line(name: &str) -> String {
        format!(
            r#"{{"op":"ingest","graph":"{name}","since":9,"vertices":[
                {{"id":2,"interval":[9,12],"props":{{"type":"person","school":"CMU","name":"Bob"}}}},
                {{"id":3,"interval":[9,12],"props":{{"type":"person","school":"MIT","name":"Cat"}}}},
                {{"id":7,"interval":[9,11],"props":{{"type":"person","school":"ETH","name":"Eli"}}}}],
                "edges":[{{"id":2,"src":2,"dst":3,"interval":[9,11],"props":{{"type":"co-author"}}}}]}}"#
        )
        .replace('\n', " ")
    }

    fn result_of(s: &str) -> &str {
        let at = s.find("\"result\":").expect("result field");
        &s[at..]
    }

    /// The satellite-1 regression: an ingest between two identical zooms
    /// must not replay the pre-ingest bytes — and the second zoom should go
    /// down the O(delta) patch path, byte-identical to a cold recompute
    /// (checked mode verifies in-process; the `no_cache` run re-verifies
    /// end to end here).
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
        let missing = server.handle_line(r#"{"op":"ingest","graph":"nope"}"#);
        assert!(missing.contains("\"kind\":\"not_found\""), "{missing}");
        let stats = server.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains("\"ingests\":0"), "{stats}");
    }

    /// S4: a zero-step pipeline is the identity zoom — load the graph,
    /// apply nothing, serialize. It must behave like any other query in
    /// every representation: deterministic within a representation,
    /// cacheable (miss → hit byte-identically), and consistent with a
    /// cache-bypassing cold run.
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

    /// S4: identity zooms ride the O(delta) maintenance path after an
    /// ingest, in every representation, and (checked mode) agree with a
    /// cold recompute byte for byte.
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

    /// Tentpole: `"repr":"auto"` resolves to a concrete representation via
    /// the cost model, reports the decision in the `optimizer` response
    /// block, shares cache entries with the equivalent explicit request,
    /// and EXPLAIN exposes the candidate table with predicted vs observed.
    #[test]
    fn auto_repr_resolves_and_explains() {
        let server = server_over_figure1("unit-auto");
        let auto_line = r#"{"op":"zoom","graph":"unit-auto","explain":true,"steps":[]}"#;
        let first = server.handle_line(auto_line);
        assert!(first.contains("\"ok\":true"), "{first}");
        assert!(first.contains("\"requested\":\"auto\""), "{first}");
        assert!(first.contains("\"source\":\"predicted\""), "{first}");
        assert!(first.contains("\"candidates\":["), "{first}");
        assert!(first.contains("\"predicted_work\":"), "{first}");
        // No candidate has run yet: all observed_us are null on the very
        // first request (observation happens after execution).
        assert!(first.contains("\"observed_us\":null"), "{first}");
        let chosen_at = first.find("\"chosen\":\"").expect("chosen field") + 10;
        let chosen = &first[chosen_at..first[chosen_at..].find('"').unwrap() + chosen_at];
        // The auto request shares the cache entry of the explicit spelling.
        let explicit = server.handle_line(&format!(
            r#"{{"op":"zoom","graph":"unit-auto","repr":"{chosen}","steps":[]}}"#
        ));
        assert!(
            explicit.contains("\"cache\":\"hit\""),
            "auto and explicit {chosen} must share a cache entry: {explicit}"
        );
        // A later explained request sees the observation recorded by the
        // first execution.
        let second = server.handle_line(auto_line);
        assert!(second.contains("\"cache\":\"hit\""), "{second}");
        let with_obs = second
            .find("\"observed_us\":")
            .map(|at| !second[at + 14..].starts_with("null"))
            .unwrap_or(false)
            || second.matches("\"observed_us\":null").count() < 4;
        assert!(
            with_obs,
            "at least one candidate must carry an observation: {second}"
        );
        let stats = server.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains("\"auto_chosen\":2"), "{stats}");
        assert!(stats.contains("\"observed_pairs\":1"), "{stats}");
        // EXPLAIN on an explicit representation reports the dissenting
        // choice without overriding it.
        let pinned = server.handle_line(
            r#"{"op":"zoom","graph":"unit-auto","repr":"ogc","explain":true,"steps":[]}"#,
        );
        assert!(pinned.contains("\"requested\":\"ogc\""), "{pinned}");
        assert!(pinned.contains("\"chosen\":\"ogc\""), "{pinned}");
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
