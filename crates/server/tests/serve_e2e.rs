//! End-to-end serving test over real TCP: cache-hit replay is
//! byte-identical, expired deadlines never launch a task wave, nothing
//! spills without a memory budget, and shutdown is clean.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use tgraph_core::graph::figure1_graph_stable_ids;
use tgraph_serve::{Server, ServerConfig};
use tgraph_storage::write_dataset;

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        self.writer.flush().expect("flush");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("receive");
        response.trim_end().to_string()
    }
}

fn field_i64(response: &str, path: &[&str]) -> i64 {
    let mut v = &tgraph_serve::json::parse(response).expect("response json");
    for key in path {
        v = v
            .get(key)
            .unwrap_or_else(|| panic!("field {key} in {response}"));
    }
    v.as_i64().unwrap_or_else(|| panic!("{path:?} not an int"))
}

fn result_suffix(response: &str) -> &str {
    let at = response.find("\"result\":").expect("result field");
    &response[at..]
}

#[test]
fn serves_zooms_with_cache_deadlines_and_stats_over_tcp() {
    let dir = std::env::temp_dir().join("tgraph-serve-e2e");
    write_dataset(&dir, "fig1", &figure1_graph_stable_ids()).expect("write dataset");
    let server = Arc::new(
        Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir,
            workers: 2,
            partitions: 2,
            max_inflight: 2,
            max_queue: 8,
            cache_bytes: 4 << 20,
        })
        .expect("bind"),
    );
    let addr = server.local_addr().expect("addr");
    let serve_thread = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve())
    };

    let mut client = Client::connect(addr);
    assert_eq!(
        client.roundtrip(r#"{"op":"ping"}"#),
        r#"{"ok":true,"pong":true}"#
    );

    // Same logical zoom issued twice: first executes, second replays from
    // the result cache with byte-identical result bytes.
    let zoom = r#"{"op":"zoom","graph":"fig1","repr":"ve","steps":[{"azoom":{"by":"school","new_type":"school","aggs":[{"output":"students","fn":"count"}]}},{"switch":"og"},{"wzoom":{"window":{"points":3},"vq":"exists","eq":"exists"}}]}"#;
    let first = client.roundtrip(zoom);
    assert!(first.contains("\"ok\":true"), "{first}");
    assert!(first.contains("\"cache\":\"miss\""), "{first}");
    let second = client.roundtrip(zoom);
    assert!(second.contains("\"cache\":\"hit\""), "{second}");
    assert_eq!(result_suffix(&first), result_suffix(&second));

    // A second connection sees the same cache (server-wide, not per-conn).
    let mut other = Client::connect(addr);
    let third = other.roundtrip(zoom);
    assert!(third.contains("\"cache\":\"hit\""), "{third}");
    assert_eq!(result_suffix(&first), result_suffix(&third));

    // An already-expired deadline is rejected without running a task wave.
    let stats_before = client.roundtrip(r#"{"op":"stats"}"#);
    let waves_before = field_i64(&stats_before, &["runtime", "waves"]);
    let expired = r#"{"op":"zoom","graph":"fig1","repr":"ve","deadline_ms":0,"steps":[{"azoom":{"by":"school"}}]}"#;
    let rejected = client.roundtrip(expired);
    assert!(rejected.contains("\"ok\":false"), "{rejected}");
    assert!(rejected.contains("\"kind\":\"deadline\""), "{rejected}");
    let stats_after = client.roundtrip(r#"{"op":"stats"}"#);
    assert_eq!(
        field_i64(&stats_after, &["runtime", "waves"]),
        waves_before,
        "expired deadline must not launch a wave: {stats_after}"
    );

    // Stats reflect the issued request mix.
    assert_eq!(field_i64(&stats_after, &["server", "zoom_executed"]), 1);
    assert_eq!(field_i64(&stats_after, &["server", "zoom_cache_hits"]), 2);
    assert_eq!(field_i64(&stats_after, &["cache", "insertions"]), 1);
    assert!(field_i64(&stats_after, &["server", "latency", "total", "count"]) >= 3);

    // Without a memory budget nothing spills.
    if field_i64(&stats_after, &["runtime", "mem_budget"]) == 0 {
        assert_eq!(
            field_i64(&stats_after, &["runtime", "bytes_spilled"]),
            0,
            "spilled without a budget: {stats_after}"
        );
    }

    // Wave timing is surfaced and coherent.
    assert!(
        field_i64(&stats_after, &["runtime", "wave_us"])
            >= field_i64(&stats_after, &["runtime", "max_task_us"]),
        "wall time bounds the longest task: {stats_after}"
    );

    // Clean shutdown.
    let bye = client.roundtrip(r#"{"op":"shutdown"}"#);
    assert!(bye.contains("\"shutting_down\":true"), "{bye}");
    serve_thread
        .join()
        .expect("serve thread")
        .expect("serve loop");
}
