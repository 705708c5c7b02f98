//! Sharded serving end-to-end: two `Server` instances over real TCP, each
//! owning half the partition slots and exchanging shuffle buckets
//! peer-to-peer, must answer a zoom byte-identically to a single process.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use tgraph_core::graph::figure1_graph_stable_ids;
use tgraph_dataflow::lock_unpoisoned;
use tgraph_serve::{Server, ServerConfig};
use tgraph_storage::write_dataset;

fn roundtrip(addr: std::net::SocketAddr, line: &str) -> String {
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

#[test]
fn two_shard_deployment_answers_byte_identically_to_single_process() {
    let dir = std::env::temp_dir().join("tgraph-sharded-e2e");
    write_dataset(&dir, "fig1", &figure1_graph_stable_ids()).expect("write dataset");

    // Single-process baseline over the same dataset and partition count.
    let ports = lock_unpoisoned(&PORTS);
    let single = Arc::new(
        Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir.clone(),
            workers: 2,
            partitions: 2,
            ..ServerConfig::default()
        })
        .expect("bind single"),
    );
    let baseline = single.handle_line(ZOOM);
    assert!(baseline.contains("\"ok\":true"), "{baseline}");

    // Two shards: exchange addresses must be known to both sides up front,
    // so reserve concrete ports; serve addresses can stay ephemeral because
    // only the coordinator dials peers (and skips its own entry).
    let exchange = vec![reserve_port(), reserve_port()];
    let shard1 = Arc::new(
        Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir.clone(),
            workers: 2,
            partitions: 2,
            shard: 1,
            shards: 2,
            exchange_addr: exchange[1].clone(),
            exchange_peers: exchange.clone(),
            ..ServerConfig::default()
        })
        .expect("bind shard 1"),
    );
    let addr1 = shard1.local_addr().expect("addr1");
    let shard0 = Arc::new(
        Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir.clone(),
            workers: 2,
            partitions: 2,
            shard: 0,
            shards: 2,
            exchange_addr: exchange[0].clone(),
            exchange_peers: exchange.clone(),
            // Entry 0 is this shard's own slot; it is never dialed.
            serve_peers: vec!["127.0.0.1:1".to_string(), addr1.to_string()],
            ..ServerConfig::default()
        })
        .expect("bind shard 0"),
    );
    drop(ports);
    let addr0 = shard0.local_addr().expect("addr0");
    let threads = [&shard0, &shard1].map(|s| {
        let s = Arc::clone(s);
        std::thread::spawn(move || s.serve())
    });

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
    for (server, who) in [(&shard0, "coordinator"), (&shard1, "peer")] {
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

    for (addr, thread) in [addr0, addr1].into_iter().zip(threads) {
        let bye = roundtrip(addr, r#"{"op":"shutdown"}"#);
        assert!(bye.contains("\"shutting_down\":true"), "{bye}");
        thread.join().expect("serve thread").expect("serve loop");
    }
}

/// Live ingest in a sharded deployment: the coordinator commits the epoch
/// (the shards share one data directory), broadcasts `shard_ingest` so the
/// peer advances its resident graphs, and the next zoom on every shard sees
/// the new facts — byte-identically to a single process over the same
/// post-ingest dataset.
#[test]
fn sharded_ingest_replicates_the_epoch_to_peers() {
    let dir = std::env::temp_dir().join("tgraph-sharded-ingest-e2e");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create data dir");
    write_dataset(&dir, "fig1", &figure1_graph_stable_ids()).expect("write dataset");

    let ports = lock_unpoisoned(&PORTS);
    let exchange = vec![reserve_port(), reserve_port()];
    let shard1 = Arc::new(
        Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir.clone(),
            workers: 2,
            partitions: 2,
            shard: 1,
            shards: 2,
            exchange_addr: exchange[1].clone(),
            exchange_peers: exchange.clone(),
            ..ServerConfig::default()
        })
        .expect("bind shard 1"),
    );
    let addr1 = shard1.local_addr().expect("addr1");
    let shard0 = Arc::new(
        Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir.clone(),
            workers: 2,
            partitions: 2,
            shard: 0,
            shards: 2,
            exchange_addr: exchange[0].clone(),
            exchange_peers: exchange.clone(),
            serve_peers: vec!["127.0.0.1:1".to_string(), addr1.to_string()],
            ..ServerConfig::default()
        })
        .expect("bind shard 0"),
    );
    drop(ports);
    let addr0 = shard0.local_addr().expect("addr0");
    let threads = [&shard0, &shard1].map(|s| {
        let s = Arc::clone(s);
        std::thread::spawn(move || s.serve())
    });

    // Warm both shards, then commit a delta through the coordinator.
    let before = roundtrip(addr0, ZOOM);
    assert!(before.contains("\"cache\":\"miss\""), "{before}");
    let ingest = r#"{"op":"ingest","graph":"fig1","since":9,"vertices":[{"id":3,"interval":[9,12],"props":{"type":"person","school":"MIT","name":"Cat"}},{"id":7,"interval":[9,11],"props":{"type":"person","school":"ETH","name":"Eli"}}]}"#;
    let committed = roundtrip(addr0, ingest);
    assert!(committed.contains("\"ok\":true"), "{committed}");
    assert!(committed.contains("\"epoch\":1"), "{committed}");

    // Peers refuse direct ingest: the coordinator owns the write path.
    let refused = roundtrip(addr1, ingest);
    assert!(
        refused.contains("\"kind\":\"not_coordinator\""),
        "{refused}"
    );

    // The post-ingest zoom recomputes (no stale replay) and matches a
    // single process loading the same post-ingest dataset from disk.
    let after = roundtrip(addr0, ZOOM);
    assert!(after.contains("\"cache\":\"miss\""), "{after}");
    assert_ne!(result_suffix(&before), result_suffix(&after));
    let ports = lock_unpoisoned(&PORTS);
    let single = Arc::new(
        Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir.clone(),
            workers: 2,
            partitions: 2,
            ..ServerConfig::default()
        })
        .expect("bind single"),
    );
    drop(ports);
    let baseline = single.handle_line(ZOOM);
    assert_eq!(result_suffix(&baseline), result_suffix(&after));

    // The peer really applied the epoch: its ingest counter moved.
    let peer_stats = roundtrip(addr1, r#"{"op":"stats"}"#);
    assert!(peer_stats.contains("\"ingests\":1"), "{peer_stats}");

    for (addr, thread) in [addr0, addr1].into_iter().zip(threads) {
        let bye = roundtrip(addr, r#"{"op":"shutdown"}"#);
        assert!(bye.contains("\"shutting_down\":true"), "{bye}");
        thread.join().expect("serve thread").expect("serve loop");
    }
}

/// S1 e2e: a peer whose resident graph missed an ingest broadcast (forced
/// here via fault injection) must reject `shard_exec` with a typed
/// `stale_epoch` *before* joining the exchange; the coordinator then
/// re-replicates the missing epochs and retries, and the query completes
/// byte-identically to a single process over the post-ingest dataset —
/// instead of silently computing on stale facts and tripping
/// `shard_divergence` (or wedging the exchange until the wave timeout).
#[test]
fn stale_peer_epoch_is_rejected_replicated_and_retried() {
    let dir = std::env::temp_dir().join("tgraph-sharded-stale-e2e");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create data dir");
    write_dataset(&dir, "fig1", &figure1_graph_stable_ids()).expect("write dataset");

    let ports = lock_unpoisoned(&PORTS);
    let exchange = vec![reserve_port(), reserve_port()];
    let shard1 = Arc::new(
        Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir.clone(),
            workers: 2,
            partitions: 2,
            shard: 1,
            shards: 2,
            exchange_addr: exchange[1].clone(),
            exchange_peers: exchange.clone(),
            ..ServerConfig::default()
        })
        .expect("bind shard 1"),
    );
    let addr1 = shard1.local_addr().expect("addr1");
    let shard0 = Arc::new(
        Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir.clone(),
            workers: 2,
            partitions: 2,
            shard: 0,
            shards: 2,
            exchange_addr: exchange[0].clone(),
            exchange_peers: exchange.clone(),
            serve_peers: vec!["127.0.0.1:1".to_string(), addr1.to_string()],
            // Fault injection: commit epochs locally but never tell the
            // peer — its resident graphs go stale, exactly the race a
            // lost/reordered broadcast would produce.
            drop_ingest_broadcast: true,
            ..ServerConfig::default()
        })
        .expect("bind shard 0"),
    );
    drop(ports);
    let addr0 = shard0.local_addr().expect("addr0");
    let threads = [&shard0, &shard1].map(|s| {
        let s = Arc::clone(s);
        std::thread::spawn(move || s.serve())
    });

    // Warm both shards so the peer holds an epoch-0 resident, then commit
    // a delta that the peer never hears about.
    let before = roundtrip(addr0, ZOOM);
    assert!(before.contains("\"cache\":\"miss\""), "{before}");
    let ingest = r#"{"op":"ingest","graph":"fig1","since":9,"vertices":[{"id":3,"interval":[9,12],"props":{"type":"person","school":"MIT","name":"Cat"}},{"id":7,"interval":[9,11],"props":{"type":"person","school":"ETH","name":"Eli"}}]}"#;
    let committed = roundtrip(addr0, ingest);
    assert!(committed.contains("\"ok\":true"), "{committed}");
    assert!(committed.contains("\"epoch\":1"), "{committed}");
    let peer_stats = roundtrip(addr1, r#"{"op":"stats"}"#);
    assert!(
        peer_stats.contains("\"ingests\":0"),
        "broadcast was supposed to be dropped: {peer_stats}"
    );

    // The post-ingest zoom hits the stale peer: typed rejection →
    // replication → retry, all inside one request.
    let after = roundtrip(addr0, ZOOM);
    assert!(after.contains("\"ok\":true"), "{after}");
    assert_ne!(
        result_suffix(&before),
        result_suffix(&after),
        "stale pre-ingest facts served"
    );
    let ports = lock_unpoisoned(&PORTS);
    let single = Arc::new(
        Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir.clone(),
            workers: 2,
            partitions: 2,
            ..ServerConfig::default()
        })
        .expect("bind single"),
    );
    drop(ports);
    let baseline = single.handle_line(ZOOM);
    assert_eq!(result_suffix(&baseline), result_suffix(&after));

    // The retry path really ran: the coordinator counted it, and the peer
    // applied the replicated epoch.
    let coord_stats = roundtrip(addr0, r#"{"op":"stats"}"#);
    assert!(
        coord_stats.contains("\"shard_stale_retries\":1"),
        "{coord_stats}"
    );
    let peer_stats = roundtrip(addr1, r#"{"op":"stats"}"#);
    assert!(peer_stats.contains("\"ingests\":1"), "{peer_stats}");

    // Once replicated, the next cold query needs no retry.
    let again = roundtrip(
        addr0,
        &ZOOM.replace("\"steps\"", "\"no_cache\":true,\"steps\""),
    );
    assert!(again.contains("\"ok\":true"), "{again}");
    let coord_stats = roundtrip(addr0, r#"{"op":"stats"}"#);
    assert!(
        coord_stats.contains("\"shard_stale_retries\":1"),
        "second query must not need a retry: {coord_stats}"
    );

    for (addr, thread) in [addr0, addr1].into_iter().zip(threads) {
        let bye = roundtrip(addr, r#"{"op":"shutdown"}"#);
        assert!(bye.contains("\"shutting_down\":true"), "{bye}");
        thread.join().expect("serve thread").expect("serve loop");
    }
}
