//! Sharded serving end-to-end: two `Server` instances over real TCP, each
//! owning half the partition slots and exchanging shuffle buckets
//! peer-to-peer, must answer a zoom byte-identically to a single process.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use tgraph_core::graph::figure1_graph_stable_ids;
use tgraph_dataflow::lock_unpoisoned;
use tgraph_serve::{Server, ServerConfig};
use tgraph_storage::write_dataset;

fn roundtrip(addr: SocketAddr, line: &str) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer
        .write_all(format!("{line}\n").as_bytes())
        .expect("send");
    writer.flush().expect("flush");
    let mut response = String::new();
    reader.read_line(&mut response).expect("receive");
    response.trim_end().to_string()
}

/// Reserves an ephemeral localhost port by binding and dropping a listener
/// (one that never accepted leaves no TIME_WAIT state). Until the shard
/// binds it the number is free again, so the caller holds [`PORTS`] from
/// here to its last `Server::bind`.
fn reserve_port() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("reserve");
    format!("127.0.0.1:{}", listener.local_addr().expect("addr").port())
}

/// Serialises every listener bind in this binary, whose tests run in
/// parallel: unserialised, one test's `:0` bind (a serve listener, or its
/// own reservation) could be handed a port another test had reserved and
/// not yet bound, and that test's shard then fails to bind.
/// (Locked unpoisoned: a test that failed while binding must not fail the
/// others.)
static PORTS: Mutex<()> = Mutex::new(());

fn result_suffix(response: &str) -> &str {
    let at = response.find("\"result\":").expect("result field");
    &response[at..]
}

const ZOOM: &str = r#"{"op":"zoom","graph":"fig1","repr":"ve","steps":[{"azoom":{"by":"school","new_type":"school","aggs":[{"output":"students","fn":"count"}]}}]}"#;

const INGEST: &str = r#"{"op":"ingest","graph":"fig1","since":9,"vertices":[{"id":3,"interval":[9,12],"props":{"type":"person","school":"MIT","name":"Cat"}},{"id":7,"interval":[9,11],"props":{"type":"person","school":"ETH","name":"Eli"}}]}"#;

/// A fresh data directory holding figure 1 as `fig1`.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create data dir");
    write_dataset(&dir, "fig1", &figure1_graph_stable_ids()).expect("write dataset");
    dir
}

/// An unsharded server over `dir` with the shards' partition count.
fn bind_single(dir: &Path) -> Arc<Server> {
    let _ports = lock_unpoisoned(&PORTS);
    Arc::new(
        Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir.to_path_buf(),
            workers: 2,
            partitions: 2,
            ..ServerConfig::default()
        })
        .expect("bind single"),
    )
}

/// Shard `shard` of two over `dir`. Exchange addresses must be known to
/// both sides up front; serve addresses can stay ephemeral because only
/// the coordinator dials peers (and skips its own entry).
fn bind_shard(dir: &Path, shard: usize, exchange: &[String], serve_peers: &[String]) -> Server {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: dir.to_path_buf(),
        workers: 2,
        partitions: 2,
        shard,
        shards: 2,
        exchange_addr: exchange[shard].clone(),
        exchange_peers: exchange.to_vec(),
        serve_peers: serve_peers.to_vec(),
        ..ServerConfig::default()
    })
    .unwrap_or_else(|e| panic!("bind shard {shard}: {e}"))
}

/// A serving two-shard deployment over one data directory.
struct Deployment {
    shards: [Arc<Server>; 2],
    addrs: [SocketAddr; 2],
    threads: [JoinHandle<std::io::Result<()>>; 2],
}

impl Deployment {
    fn start(dir: &Path) -> Deployment {
        let ports = lock_unpoisoned(&PORTS);
        let exchange = [reserve_port(), reserve_port()];
        let peer = Arc::new(bind_shard(dir, 1, &exchange, &[]));
        let peer_addr = peer.local_addr().expect("addr1");
        // Entry 0 is the coordinator's own slot; it is never dialed.
        let serve_peers = ["127.0.0.1:1".to_string(), peer_addr.to_string()];
        let coordinator = Arc::new(bind_shard(dir, 0, &exchange, &serve_peers));
        drop(ports);
        let shards = [coordinator, peer];
        let addrs = shards.each_ref().map(|s| s.local_addr().expect("addr"));
        let threads = shards.each_ref().map(|s| {
            let s = Arc::clone(s);
            std::thread::spawn(move || s.serve())
        });
        Deployment {
            shards,
            addrs,
            threads,
        }
    }

    fn shutdown(self) {
        for (addr, thread) in self.addrs.into_iter().zip(self.threads) {
            let bye = roundtrip(addr, r#"{"op":"shutdown"}"#);
            assert!(bye.contains("\"shutting_down\":true"), "{bye}");
            thread.join().expect("serve thread").expect("serve loop");
        }
    }
}

#[test]
fn two_shard_deployment_answers_byte_identically_to_single_process() {
    let dir = std::env::temp_dir().join("tgraph-sharded-e2e");
    write_dataset(&dir, "fig1", &figure1_graph_stable_ids()).expect("write dataset");

    // Single-process baseline over the same dataset and partition count.
    let single = bind_single(&dir);
    let baseline = single.handle_line(ZOOM);
    assert!(baseline.contains("\"ok\":true"), "{baseline}");

    let deployment = Deployment::start(&dir);
    let [addr0, addr1] = deployment.addrs;

    // The coordinator's answer is byte-identical to the single process.
    let sharded = roundtrip(addr0, ZOOM);
    assert!(sharded.contains("\"ok\":true"), "{sharded}");
    assert!(sharded.contains("\"cache\":\"miss\""), "{sharded}");
    assert_eq!(result_suffix(&baseline), result_suffix(&sharded));

    // Replays hit the coordinator's cache without a fresh broadcast, and
    // stay byte-identical.
    let replay = roundtrip(addr0, ZOOM);
    assert!(replay.contains("\"cache\":\"hit\""), "{replay}");
    assert_eq!(result_suffix(&baseline), result_suffix(&replay));

    // The shuffle really crossed the wire on both sides.
    for (server, who) in deployment.shards.iter().zip(["coordinator", "peer"]) {
        let stats = server.runtime().stats();
        assert!(stats.frames_sent > 0, "{who} sent no frames");
        assert!(stats.bytes_exchanged > 0, "{who} exchanged no bytes");
    }

    // Non-coordinator shards refuse plain zooms instead of wedging the
    // exchange waiting for waves nobody coordinated.
    let refused = roundtrip(addr1, ZOOM);
    assert!(
        refused.contains("\"kind\":\"not_coordinator\""),
        "{refused}"
    );

    // An unsharded server refuses shard_exec outright.
    let stray = single.handle_line(&format!(r#"{{"op":"shard_exec","epoch":1,"zoom":{ZOOM}}}"#));
    assert!(stray.contains("\"kind\":\"bad_request\""), "{stray}");

    deployment.shutdown();
}

/// Live ingest in a sharded deployment: the coordinator commits the epoch
/// (the shards share one data directory), the next `shard_exec` names it,
/// and the peer reads it from the manifest before joining — so the next
/// zoom on every shard sees the new facts, byte-identically to a single
/// process over the same post-ingest dataset.
#[test]
fn sharded_ingest_replicates_the_epoch_to_peers() {
    let dir = fresh_dir("tgraph-sharded-ingest-e2e");
    let deployment = Deployment::start(&dir);
    let [addr0, addr1] = deployment.addrs;

    // Warm both shards, then commit a delta through the coordinator.
    let before = roundtrip(addr0, ZOOM);
    assert!(before.contains("\"cache\":\"miss\""), "{before}");
    let committed = roundtrip(addr0, INGEST);
    assert!(committed.contains("\"ok\":true"), "{committed}");
    assert!(committed.contains("\"epoch\":1"), "{committed}");

    // Peers refuse direct ingest: the coordinator owns the write path.
    let refused = roundtrip(addr1, INGEST);
    assert!(
        refused.contains("\"kind\":\"not_coordinator\""),
        "{refused}"
    );

    // The post-ingest zoom recomputes (no stale replay) and matches a
    // single process loading the same post-ingest dataset from disk.
    let after = roundtrip(addr0, ZOOM);
    assert!(after.contains("\"cache\":\"miss\""), "{after}");
    assert_ne!(result_suffix(&before), result_suffix(&after));
    let baseline = bind_single(&dir).handle_line(ZOOM);
    assert_eq!(result_suffix(&baseline), result_suffix(&after));

    // The peer advanced its resident in place when the zoom named epoch 1;
    // nobody sent it an ingest.
    let peer_stats = roundtrip(addr1, r#"{"op":"stats"}"#);
    assert!(peer_stats.contains("\"epoch_upgrades\":1"), "{peer_stats}");
    assert!(peer_stats.contains("\"ingests\":0"), "{peer_stats}");

    deployment.shutdown();
}

/// A peer that sat out two ingests holds an epoch-0 resident; the first
/// zoom that names epoch 2 has it read both epochs from the shared manifest
/// before it acks, so the answer is the single process's, byte for byte.
#[test]
fn a_peer_catches_up_from_the_manifest() {
    let dir = fresh_dir("tgraph-sharded-catch-up-e2e");
    let deployment = Deployment::start(&dir);
    let [addr0, addr1] = deployment.addrs;

    // Warm both shards at epoch 0, then commit two epochs the peer is not
    // told about.
    let before = roundtrip(addr0, ZOOM);
    assert!(before.contains("\"cache\":\"miss\""), "{before}");
    let first = roundtrip(addr0, INGEST);
    assert!(first.contains("\"epoch\":1"), "{first}");
    let second = roundtrip(
        addr0,
        r#"{"op":"ingest","graph":"fig1","since":12,"vertices":[{"id":3,"interval":[12,14],"props":{"type":"person","school":"MIT","name":"Cat"}},{"id":8,"interval":[12,15],"props":{"type":"person","school":"CMU","name":"Fay"}}]}"#,
    );
    assert!(second.contains("\"epoch\":2"), "{second}");
    let peer_stats = roundtrip(addr1, r#"{"op":"stats"}"#);
    assert!(peer_stats.contains("\"epoch_upgrades\":0"), "{peer_stats}");

    let after = roundtrip(addr0, ZOOM);
    assert!(after.contains("\"ok\":true"), "{after}");
    assert_ne!(
        result_suffix(&before),
        result_suffix(&after),
        "stale pre-ingest facts served"
    );
    let baseline = bind_single(&dir).handle_line(ZOOM);
    assert_eq!(result_suffix(&baseline), result_suffix(&after));

    // One in-place upgrade per epoch, and not one ingest on the peer.
    let peer_stats = roundtrip(addr1, r#"{"op":"stats"}"#);
    assert!(peer_stats.contains("\"epoch_upgrades\":2"), "{peer_stats}");
    assert!(peer_stats.contains("\"ingests\":0"), "{peer_stats}");

    deployment.shutdown();
}

/// A peer that cannot read an epoch it lacks answers a typed refusal in
/// place of its ack, so the coordinator refuses the zoom before any wave
/// starts instead of stalling the exchange.
#[test]
fn a_peer_that_cannot_read_an_epoch_refuses_before_the_wave() {
    let dir = fresh_dir("tgraph-sharded-unreadable-e2e");
    let deployment = Deployment::start(&dir);
    let [addr0, _] = deployment.addrs;

    let before = roundtrip(addr0, ZOOM);
    assert!(before.contains("\"cache\":\"miss\""), "{before}");
    let committed = roundtrip(addr0, INGEST);
    assert!(committed.contains("\"epoch\":1"), "{committed}");
    // The coordinator's resident advanced in memory; the peer's must read
    // the segment, which is gone.
    std::fs::remove_file(dir.join("fig1.e1.temporal.tgc")).expect("remove segment");

    let refused = roundtrip(addr0, ZOOM);
    assert!(refused.contains("\"kind\":\"shard_peer\""), "{refused}");
    assert!(refused.contains("refused"), "{refused}");
    assert!(refused.contains("load epoch 1 delta"), "{refused}");

    deployment.shutdown();
}

/// The coordinator's ingest is its own: committed to the shared directory
/// and answered without dialing a peer, so a peer that is down cannot turn
/// a committed epoch into an error reply.
#[test]
fn an_ingest_commits_and_answers_without_its_peers() {
    let dir = fresh_dir("tgraph-sharded-no-peer-e2e");
    let coordinator = {
        let _ports = lock_unpoisoned(&PORTS);
        let exchange = [reserve_port(), reserve_port()];
        // Nothing listens on the peer's serve port.
        let serve_peers = ["127.0.0.1:1".to_string(), reserve_port()];
        bind_shard(&dir, 0, &exchange, &serve_peers)
    };
    let committed = coordinator.handle_line(INGEST);
    assert!(committed.contains("\"ok\":true"), "{committed}");
    assert!(committed.contains("\"epoch\":1"), "{committed}");

    // A zoom needs its peers, and says so with a typed refusal.
    let zoom = coordinator.handle_line(ZOOM);
    assert!(zoom.contains("\"kind\":\"shard_peer\""), "{zoom}");
}
