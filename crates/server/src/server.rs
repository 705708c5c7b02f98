//! The server proper: configuration, the shared state every request
//! handler borrows, and per-line NDJSON dispatch. What a request *does*
//! lives in the role modules — `zoom` (the zoom path and its cache key),
//! `ingest` (epoch appends), `render` (every response
//! byte) — and each owns the state it locks. Client connections are read
//! and written by [`crate::eventloop`] only.

use crate::admission::Admission;
use crate::cache::ResultCache;
use crate::chooser::ReprChooser;
use crate::eventloop::Endpoint;
use crate::ingest::IngestState;
use crate::json::Json;
use crate::metrics::ServerMetrics;
use crate::protocol::{parse_request, Request};
use crate::render::{error_response, stats_response, Reply};
use std::path::PathBuf;
use std::sync::Arc;
use tgraph_dataflow::Runtime;
use tgraph_repr::ReprKind;
use tgraph_storage::GraphPool;

/// Cap on one NDJSON request line in bytes: a longer line is answered with a
/// typed `line_too_large` error and the connection closes. Without a cap,
/// one client streaming bytes that never contain `\n` grows the server-side
/// line buffer without bound — a one-connection OOM.
pub const MAX_LINE_BYTES: usize = 1 << 20;

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
    /// Maximum queued zoom queries beyond the in-flight bound (at least 1).
    /// Over a socket at most two zooms ever wait, because the connection
    /// layer runs `max_inflight + 2` dispatchers, so a value of 2 or more
    /// refuses nothing there.
    pub max_queue: usize,
    /// Result-cache byte budget: each answer is charged its key, its body
    /// and its fixed bookkeeping.
    pub cache_bytes: u64,
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
        }
    }
}

/// The shared server state. All request handling is `&self`; the
/// connection layer ([`crate::eventloop`]) calls it from its dispatcher
/// threads. Every lock lives inside the sub-struct whose module takes it.
pub struct Server {
    pub(crate) config: ServerConfig,
    /// The listener and the serve loop's shutdown state.
    pub(crate) net: Endpoint,
    pub(crate) rt: Runtime,
    pub(crate) pool: GraphPool,
    pub(crate) cache: ResultCache,
    pub(crate) admission: Arc<Admission>,
    pub(crate) metrics: ServerMetrics,
    pub(crate) chooser: ReprChooser,
    pub(crate) ingest: IngestState,
}

impl Server {
    /// Binds the listener and builds the shared state. No graph is loaded
    /// yet; use [`Server::preload`] to warm the pool before serving.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        Ok(Server {
            net: Endpoint::bind(&config.addr)?,
            rt: Runtime::with_partitions(config.workers, config.partitions),
            pool: GraphPool::new(&config.data_dir),
            cache: ResultCache::new(config.cache_bytes),
            admission: Admission::new(config.max_inflight, config.max_queue),
            metrics: ServerMetrics::default(),
            chooser: ReprChooser::default(),
            ingest: IngestState::default(),
            config,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.net.listener.local_addr()
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

    /// Requests the serve loop to stop; its threads wake immediately.
    pub fn request_shutdown(&self) {
        self.net.request_shutdown();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.net.is_shutting_down()
    }

    /// Accepts and serves connections until shutdown is requested (the
    /// connection layer is [`crate::eventloop`]).
    pub fn serve(self: &Arc<Self>) -> std::io::Result<()> {
        crate::eventloop::serve(self)
    }

    /// Handles one request line and returns the response text (no trailing
    /// newline): the in-process spelling of what the event loop does with a
    /// line off a socket, for tests and the smoke harness.
    pub fn handle_line(&self, line: &str) -> String {
        self.handle(line).into_text()
    }

    /// Handles one request line: every request answers exactly one line.
    pub(crate) fn handle(&self, line: &str) -> Reply {
        ServerMetrics::bump(&self.metrics.requests);
        let request = match parse_request(line) {
            Ok(request) => request,
            Err(e) => {
                ServerMetrics::bump(&self.metrics.bad_requests);
                return error_response("bad_request", &e.0).into();
            }
        };
        let flag = |name: &str| {
            Reply::Text(
                Json::obj(vec![("ok", Json::Bool(true)), (name, Json::Bool(true))]).to_string(),
            )
        };
        match request {
            Request::Ping => flag("pong"),
            Request::Shutdown => {
                self.request_shutdown();
                flag("shutting_down")
            }
            Request::Stats => stats_response(self).into(),
            Request::Zoom(req) => self.handle_zoom(&req),
            Request::Ingest(req) => self.handle_ingest(&req).into(),
        }
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.local_addr().ok())
            .field("data_dir", &self.config.data_dir)
            .finish()
    }
}

/// Servers over figure 1 and the request lines the unit tests of the role
/// modules share.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use tgraph_core::graph::figure1_graph_stable_ids;
    use tgraph_storage::write_dataset;

    fn bind_over(dir: PathBuf, name: &str) -> Arc<Server> {
        write_dataset(&dir, name, &figure1_graph_stable_ids()).expect("write dataset");
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir,
            workers: 2,
            partitions: 2,
            max_inflight: 2,
            max_queue: 8,
            cache_bytes: 1 << 20,
        })
        .expect("bind");
        Arc::new(server)
    }

    pub(crate) fn server_over_figure1(name: &str) -> Arc<Server> {
        bind_over(std::env::temp_dir().join("tgraph-serve-unit"), name)
    }

    /// A server over figure 1 in a *fresh* directory: ingest tests append
    /// epoch segments, which must not leak between `cargo test` runs.
    pub(crate) fn fresh_server(dirname: &str, name: &str) -> Arc<Server> {
        let dir = std::env::temp_dir().join(dirname);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create data dir");
        bind_over(dir, name)
    }

    pub(crate) fn zoom_line(name: &str, extra: &str) -> String {
        format!(
            r#"{{"op":"zoom","graph":"{name}","repr":"ve",{extra}"steps":[
                {{"azoom":{{"by":"school","new_type":"school",
                           "aggs":[{{"output":"students","fn":"count"}}]}}}}]}}"#
        )
        .replace('\n', " ")
    }

    /// A valid delta over figure 1 (lifespan `[1,9)`): re-asserts the two
    /// continuing vertices, adds a new ETH student, and extends edge 2 —
    /// every edge interval covered by delta-asserted endpoint states, so the
    /// post-ingest graph stays valid under Definition 2.1.
    pub(crate) fn ingest_line(name: &str) -> String {
        format!(
            r#"{{"op":"ingest","graph":"{name}","since":9,"vertices":[
                {{"id":2,"interval":[9,12],"props":{{"type":"person","school":"CMU","name":"Bob"}}}},
                {{"id":3,"interval":[9,12],"props":{{"type":"person","school":"MIT","name":"Cat"}}}},
                {{"id":7,"interval":[9,11],"props":{{"type":"person","school":"ETH","name":"Eli"}}}}],
                "edges":[{{"id":2,"src":2,"dst":3,"interval":[9,11],"props":{{"type":"co-author"}}}}]}}"#
        )
        .replace('\n', " ")
    }

    pub(crate) fn result_of(s: &str) -> &str {
        let at = s.find("\"result\":").expect("result field");
        &s[at..]
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{server_over_figure1, zoom_line};

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

    /// An unknown op is refused at parse, before any handler runs or any
    /// graph loads, even when it carries a valid zoom.
    #[test]
    fn an_unknown_op_is_refused_before_any_load() {
        let server = server_over_figure1("unit-role");
        let refused = server.handle_line(&format!(
            r#"{{"op":"rezoom","zoom":{}}}"#,
            zoom_line("unit-role", "")
        ));
        assert_eq!(
            refused,
            r#"{"ok":false,"kind":"bad_request","error":"unknown op 'rezoom' (expected ping|stats|shutdown|zoom|ingest)"}"#
        );
        let stats = server.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains("\"bad_requests\":1"), "{stats}");
        assert!(
            stats.contains("\"loads\":0"),
            "no graph was loaded: {stats}"
        );
    }
}
