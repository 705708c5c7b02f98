//! Everything that dials or answers another shard: the coordinator's
//! two-phase `shard_exec` broadcast, the peer side of it (including its
//! catch-up from the shared epoch manifest), and the cross-shard agreement
//! check. No shard sends another the facts of an epoch: every shard reads
//! them from the one data directory they share.
//!
//! [`Shards`] owns what that needs — this server's role, its peers' serve
//! addresses, the exchange-epoch counter and the lock that serializes
//! sharded executions — and nothing outside this module touches them.

use crate::json::Json;
use crate::metrics::ServerMetrics;
use crate::protocol::ZoomRequest;
use crate::render::{error_response, panic_detail, serialize_tgraph, Reply};
use crate::server::{Server, ServerConfig};
use crate::zoom::{execute_steps, pinned};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use tgraph_core::graph::TGraph;
use tgraph_dataflow::lock_unpoisoned;
use tgraph_repr::ReprKind;
use tgraph_storage::{GraphLoader, SharedGraph};

/// What this server is to its deployment, fixed at bind time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Role {
    /// The whole deployment (`shards == 1`).
    Single,
    /// Shard 0 of several: takes client `zoom`/`ingest`, drives the peers.
    Coordinator,
    /// Shard 1..n: takes only the coordinator's `shard_exec`.
    Peer,
}

/// A `(kind, message)` pair for [`error_response`].
pub(crate) type PeerError = (String, String);

fn peer_err(addr: &str, what: impl std::fmt::Display) -> PeerError {
    ("shard_peer".to_string(), format!("peer {addr}: {what}"))
}

fn is_ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

/// One peer's digest of a sharded execution: the coordinator compares these
/// against its own serialization to prove every shard agreed byte-for-byte.
pub(crate) struct PeerReply {
    shard: usize,
    bytes: u64,
    checksum: u64,
}

/// This server's place among the shards and its lines to the others.
pub(crate) struct Shards {
    role: Role,
    shard: usize,
    shards: usize,
    /// Every *other* shard's index and serve address (coordinator only).
    peers: Vec<(usize, String)>,
    /// Dial and reply timeout, inherited from the exchange configuration:
    /// peers answer their final digest only after the whole execution.
    timeout: Duration,
    /// Monotonic exchange-epoch counter (coordinator only): each sharded
    /// query gets a fresh epoch so frame sequence numbers never collide.
    epoch: AtomicU64,
    /// Serializes sharded executions: exchange sequence numbers align across
    /// shards only when every shard runs one wave sequence at a time.
    wave_lock: Mutex<()>,
}

impl Shards {
    pub(crate) fn new(config: &ServerConfig, timeout: Duration) -> Shards {
        let role = match (config.shards, config.shard) {
            (0 | 1, _) => Role::Single,
            (_, 0) => Role::Coordinator,
            _ => Role::Peer,
        };
        let peers = config
            .serve_peers
            .iter()
            .enumerate()
            .filter(|(s, _)| role == Role::Coordinator && *s != config.shard)
            .map(|(s, addr)| (s, addr.clone()))
            .collect();
        Shards {
            role,
            shard: config.shard,
            shards: config.shards,
            peers,
            timeout,
            epoch: AtomicU64::new(0),
            wave_lock: Mutex::new(()),
        }
    }

    /// Whether zooms run across shards (asked on the coordinator; a peer
    /// never gets as far as executing a client zoom).
    pub(crate) fn is_sharded(&self) -> bool {
        self.role != Role::Single
    }

    /// The typed refusal for `op` if this server's role does not take it:
    /// client ops belong to the coordinator (or a single server),
    /// `shard_exec` to a peer. The one place roles are checked.
    pub(crate) fn refusal(&self, op: &str, metrics: &ServerMetrics) -> Option<String> {
        let Shards { shard, shards, .. } = self;
        let (counter, kind, message) = match (op, self.role) {
            ("zoom", Role::Peer) => (
                &metrics.zoom_rejected,
                "not_coordinator",
                format!(
                    "shard {shard} of {shards} does not accept zoom queries; send them to shard 0"
                ),
            ),
            ("ingest", Role::Peer) => (
                &metrics.zoom_rejected,
                "not_coordinator",
                format!("shard {shard} of {shards} does not accept ingest; send it to shard 0"),
            ),
            ("shard_exec", Role::Single) => (
                &metrics.bad_requests,
                "bad_request",
                format!("{op} sent to an unsharded server"),
            ),
            ("shard_exec", Role::Coordinator) => (
                &metrics.bad_requests,
                "bad_request",
                format!("{op} sent to the coordinator"),
            ),
            _ => return None,
        };
        ServerMetrics::bump(counter);
        Some(error_response(kind, &message))
    }

    /// The one peer call: connects to a peer's serve address, sends one
    /// request line and reads the first reply line. The reader comes back
    /// too, for requests that answer more than once (`shard_exec`).
    fn call(&self, addr: &str, msg: &str) -> Result<(BufReader<TcpStream>, Json), String> {
        let sockaddr = addr
            .to_socket_addrs()
            .ok()
            .and_then(|mut a| a.next())
            .ok_or_else(|| "unresolvable address".to_string())?;
        let mut stream = TcpStream::connect_timeout(&sockaddr, self.timeout)
            .map_err(|e| format!("connect: {e}"))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(self.timeout.saturating_mul(2)));
        stream
            .write_all(msg.as_bytes())
            .and_then(|()| stream.flush())
            .map_err(|e| format!("send: {e}"))?;
        let mut reader = BufReader::new(stream);
        let reply = read_json_line(&mut reader)?;
        Ok((reader, reply))
    }
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

/// Phase 2 of a sharded execution, for one peer: its result digest.
fn read_digest(shard: usize, reader: &mut BufReader<TcpStream>) -> Result<PeerReply, String> {
    let v = read_json_line(reader)?;
    if !is_ok(&v) {
        return Err(format!("shard {shard} failed: {v}"));
    }
    let bytes = v
        .get("result_bytes")
        .and_then(Json::as_u64)
        .ok_or_else(|| "reply missing result_bytes".to_string())?;
    let checksum = v
        .get("result_checksum")
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| "reply missing result_checksum".to_string())?;
    Ok(PeerReply {
        shard,
        bytes,
        checksum,
    })
}

impl Server {
    /// Runs one zoom across every shard: broadcast `shard_exec` to the
    /// peers, execute our own partition slots (the exchange interleaves the
    /// shuffle waves), then collect each peer's result digest. `line` is
    /// the raw request text, embedded verbatim so every shard parses the
    /// identical query.
    pub(crate) fn execute_sharded(
        &self,
        shared: &SharedGraph,
        req: &ZoomRequest,
        line: &str,
    ) -> Result<(TGraph, Vec<PeerReply>), PeerError> {
        let _guard = lock_unpoisoned(&self.shards.wave_lock);
        let epoch = self.shards.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        // The envelope pins the coordinator's dataset epoch (a peer behind
        // it reads the epochs it lacks from the manifest before it acks)
        // and the resolved representation (an `"auto"` query must not
        // re-resolve per shard — observation tables diverge across shards).
        let msg = format!(
            "{{\"op\":\"shard_exec\",\"epoch\":{epoch},\"dataset_epoch\":{},\"repr\":\"{}\",\"zoom\":{}}}\n",
            shared.epoch,
            req.repr,
            line.trim()
        );
        // Phase 1: dispatch to every peer and collect their *acks* before
        // executing locally. A peer that will not join the wave (missing
        // dataset, unreadable epoch) must be detected now — discovering it
        // after entering the exchange would stall every shard until the
        // wave timeout.
        let mut conns = Vec::new();
        for (s, addr) in &self.shards.peers {
            let (reader, ack) = self
                .shards
                .call(addr, &msg)
                .map_err(|e| peer_err(addr, e))?;
            if !is_ok(&ack) {
                return Err(peer_err(addr, format!("shard {s} refused: {ack}")));
            }
            conns.push((*s, addr.as_str(), reader));
        }
        // Distinct epochs keep this query's frame sequence numbers disjoint
        // from every earlier query's, on every shard.
        self.rt.set_exchange_seq_base(epoch << 32);
        let result = execute_steps(&self.rt, shared, req);
        // Phase 2: collect each peer's result digest.
        let mut replies = Vec::new();
        for (s, addr, mut reader) in conns {
            replies.push(read_digest(s, &mut reader).map_err(|e| peer_err(addr, e))?);
        }
        Ok((result, replies))
    }

    /// Cross-verifies the coordinator's serialized result against every
    /// peer's digest. Any mismatch fails the query loudly — a sharded
    /// deployment must be byte-indistinguishable from a single process.
    pub(crate) fn check_shard_agreement(
        &self,
        bytes: &[u8],
        replies: &[PeerReply],
    ) -> Option<String> {
        let own_len = bytes.len() as u64;
        let own_sum = tgraph_dataflow::checksum(bytes);
        let r = replies
            .iter()
            .find(|r| r.bytes != own_len || r.checksum != own_sum)?;
        ServerMetrics::bump(&self.metrics.zoom_rejected);
        Some(error_response(
            "shard_divergence",
            &format!(
                "shard {} produced {} bytes (checksum {:016x}); \
                 coordinator produced {} bytes (checksum {:016x})",
                r.shard, r.bytes, r.checksum, own_len, own_sum
            ),
        ))
    }

    /// Executes this shard's slots of a coordinator-driven query. Bypasses
    /// cache, admission, and deadlines on purpose: the coordinator already
    /// arbitrated those, and a peer stalling in a queue would wedge every
    /// shard's exchange until the wave timeout.
    ///
    /// Replies in two lines. First an *ack* — emitted once this shard holds
    /// the graph at the coordinator's dataset epoch or later, before
    /// execution begins — which tells the coordinator it is safe to enter
    /// the exchange. Then the result digest once execution finishes. A
    /// refusal (missing dataset, unreadable epoch) is a single error line
    /// instead of the ack, so the coordinator learns about it before it
    /// could possibly stall.
    pub(crate) fn handle_shard_exec(
        &self,
        epoch: u64,
        dataset_epoch: u64,
        repr_override: Option<ReprKind>,
        req: &ZoomRequest,
        out: &mut dyn FnMut(Reply),
    ) {
        let shard = Json::Int(self.shards.shard as i64);
        // The coordinator resolved `"auto"` already; its choice rides in
        // the envelope so every shard runs the same representation.
        let resolved = repr_override.map(|kind| pinned(req, kind));
        let req = resolved.as_ref().unwrap_or(req);
        let shared = match self.graph_at(req, dataset_epoch) {
            Ok(g) => g,
            Err(refusal) => return out(refusal.into()),
        };
        out(Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("ack", Json::str("shard_exec")),
            ("epoch", Json::Int(epoch as i64)),
            ("shard", shard.clone()),
        ])
        .to_string()
        .into());
        let _guard = lock_unpoisoned(&self.shards.wave_lock);
        self.rt.set_exchange_seq_base(epoch << 32);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_steps(&self.rt, &shared, req)
        }));
        match outcome {
            Err(panic) => out(error_response(
                "internal",
                &format!(
                    "shard {} execution failed: {}",
                    self.shards.shard,
                    panic_detail(&*panic)
                ),
            )
            .into()),
            Ok(result) => {
                let bytes = serialize_tgraph(&result).into_bytes();
                let checksum = format!("{:016x}", tgraph_dataflow::checksum(&bytes));
                out(Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("epoch", Json::Int(epoch as i64)),
                    ("shard", shard),
                    ("result_bytes", Json::Int(bytes.len() as i64)),
                    ("result_checksum", Json::str(checksum)),
                ])
                .to_string()
                .into());
            }
        }
    }

    /// The graph `req` names, at `dataset_epoch` or later, or the typed
    /// refusal. The coordinator commits an epoch to the shared data
    /// directory before any `shard_exec` names it, so a resident that lags
    /// reads each epoch it lacks from the manifest and applies it as the
    /// coordinator did; a cold load reads the manifest anyway.
    fn graph_at(&self, req: &ZoomRequest, dataset_epoch: u64) -> Result<SharedGraph, String> {
        let not_found = |message: String| error_response("not_found", &message);
        let shared = self.load_graph(req).map_err(not_found)?;
        if shared.epoch >= dataset_epoch {
            return Ok(shared);
        }
        let storage = |message: String| error_response("storage", &message);
        let loader = GraphLoader::new(&self.config.data_dir, &req.graph);
        let entries = loader
            .epochs()
            .map_err(|e| storage(format!("read epoch manifest: {e}")))?;
        for entry in entries
            .iter()
            .filter(|e| (shared.epoch + 1..=dataset_epoch).contains(&e.epoch))
        {
            let (delta, _) = loader
                .load_delta(entry.epoch, None)
                .map_err(|e| storage(format!("load epoch {} delta: {e}", entry.epoch)))?;
            self.apply_epoch(&req.graph, entry.epoch, &delta);
        }
        self.load_graph(req).map_err(not_found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shards(shard: usize, shards: usize) -> Shards {
        let config = ServerConfig {
            shard,
            shards,
            serve_peers: (0..shards)
                .map(|s| format!("127.0.0.1:{}", 7000 + s))
                .collect(),
            ..ServerConfig::default()
        };
        Shards::new(&config, Duration::from_millis(10))
    }

    /// The four role refusals, byte for byte, and the counter each bumps.
    #[test]
    fn role_refusals_keep_their_wire_text() {
        let metrics = ServerMetrics::default();
        let refusal = |s: &Shards, op: &str| s.refusal(op, &metrics);
        let peer = shards(1, 2);
        assert_eq!(peer.role, Role::Peer);
        assert_eq!(
            refusal(&peer, "zoom").as_deref(),
            Some(
                r#"{"ok":false,"kind":"not_coordinator","error":"shard 1 of 2 does not accept zoom queries; send them to shard 0"}"#
            )
        );
        assert_eq!(
            refusal(&peer, "ingest").as_deref(),
            Some(
                r#"{"ok":false,"kind":"not_coordinator","error":"shard 1 of 2 does not accept ingest; send it to shard 0"}"#
            )
        );
        assert_eq!(metrics.zoom_rejected.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.bad_requests.load(Ordering::Relaxed), 0);

        let single = shards(0, 1);
        assert_eq!(single.role, Role::Single);
        assert_eq!(
            refusal(&single, "shard_exec").as_deref(),
            Some(
                r#"{"ok":false,"kind":"bad_request","error":"shard_exec sent to an unsharded server"}"#
            )
        );
        let coordinator = shards(0, 3);
        assert_eq!(coordinator.role, Role::Coordinator);
        assert_eq!(
            refusal(&coordinator, "shard_exec").as_deref(),
            Some(
                r#"{"ok":false,"kind":"bad_request","error":"shard_exec sent to the coordinator"}"#
            )
        );
        assert_eq!(metrics.bad_requests.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.zoom_rejected.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn every_role_takes_its_own_ops() {
        let metrics = ServerMetrics::default();
        for (s, ops) in [
            (shards(0, 1), &["zoom", "ingest", "ping", "stats"][..]),
            (shards(0, 2), &["zoom", "ingest", "ping", "stats"]),
            (shards(1, 2), &["shard_exec", "ping", "stats"]),
        ] {
            for op in ops {
                assert_eq!(s.refusal(op, &metrics), None, "{:?} refused {op}", s.role);
            }
        }
        // Only the coordinator dials anyone, and never itself.
        assert_eq!(shards(0, 3).peers.len(), 2);
        assert!(shards(0, 3).peers.iter().all(|(s, _)| *s != 0));
        assert!(shards(1, 3).peers.is_empty());
        assert!(shards(0, 1).peers.is_empty());
    }
}
