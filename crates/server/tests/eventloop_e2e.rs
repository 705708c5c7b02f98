//! End-to-end tests for the connection layer: pipelining answers in order,
//! partial frames reassemble across poll wakeups, the TCP response stream
//! is byte-identical to the in-process `Server::handle_line` dispatch path,
//! the request-line cap answers with a typed error, malformed input gets a
//! typed `bad_request` instead of a silent close, and a burst served under
//! a memory budget spills without changing a byte.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use tgraph_core::graph::figure1_graph_stable_ids;
use tgraph_datagen::WikiTalk;
use tgraph_serve::{Server, ServerConfig, MAX_LINE_BYTES};
use tgraph_storage::write_dataset;

/// Binds a server over a fresh Figure-1 dataset, without serving yet.
fn bind_server(dirname: &str, graph: &str) -> Arc<Server> {
    let dir = std::env::temp_dir().join(dirname);
    let _ = std::fs::remove_dir_all(&dir); // stale epochs from prior runs skew ingest
    write_dataset(&dir, graph, &figure1_graph_stable_ids()).expect("write dataset");
    Arc::new(
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
    )
}

fn spawn_server(
    dirname: &str,
    graph: &str,
) -> (
    Arc<Server>,
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = bind_server(dirname, graph);
    let addr = server.local_addr().expect("addr");
    let handle = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve())
    };
    (server, addr, handle)
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("send");
        self.writer.flush().expect("flush");
    }

    fn recv_line(&mut self) -> String {
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("receive");
        assert!(!response.is_empty(), "connection closed mid-script");
        response.trim_end().to_string()
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.send_raw(format!("{line}\n").as_bytes());
        self.recv_line()
    }

    /// Reads until EOF; asserts the server closed the connection.
    fn expect_eof(&mut self) {
        let mut rest = String::new();
        match self.reader.read_line(&mut rest) {
            Ok(0) => {}
            other => panic!("expected server-side close, got {other:?} ({rest:?})"),
        }
    }
}

fn zoom_line(graph: &str, points: u64) -> String {
    format!(
        r#"{{"op":"zoom","graph":"{graph}","repr":"ve","steps":[{{"azoom":{{"by":"school","new_type":"school","aggs":[{{"output":"students","fn":"count"}}]}}}},{{"switch":"og"}},{{"wzoom":{{"window":{{"points":{points}}},"vq":"exists","eq":"exists"}}}}]}}"#
    )
}

fn ingest_line(graph: &str) -> String {
    format!(
        r#"{{"op":"ingest","graph":"{graph}","since":9,"vertices":[{{"id":2,"interval":[9,12],"props":{{"type":"person","school":"CMU","name":"Bob"}}}},{{"id":3,"interval":[9,12],"props":{{"type":"person","school":"MIT","name":"Cat"}}}}],"edges":[{{"id":2,"src":2,"dst":3,"interval":[9,11],"props":{{"type":"co-author"}}}}]}}"#
    )
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

/// Blanks the values of timing fields that legitimately differ run to run,
/// leaving every other byte intact for exact comparison.
fn normalize_timings(line: &str) -> String {
    let mut out = line.to_string();
    for field in ["\"total_us\":", "\"exec_us\":"] {
        let mut from = 0;
        while let Some(at) = out[from..].find(field) {
            let start = from + at + field.len();
            let end = start
                + out[start..]
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(out.len() - start);
            out.replace_range(start..end, "X");
            from = start;
        }
    }
    out
}

fn shutdown(client: &mut Client, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let bye = client.roundtrip(r#"{"op":"shutdown"}"#);
    assert!(bye.contains("\"shutting_down\":true"), "{bye}");
    handle.join().expect("serve thread").expect("serve loop");
}

/// (a) Many NDJSON requests written in a single TCP segment are all parsed
/// and answered, strictly in request order.
#[test]
fn pipelined_requests_in_one_segment_answer_in_order() {
    let (_server, addr, handle) = spawn_server("tgraph-el-pipeline", "fig1");

    // Reference responses, gathered one-at-a-time on a separate connection.
    // Result bytes are cache-backed and deterministic, so the pipelined
    // responses must match them whatever the cache state.
    let mut reference = Client::connect(addr);
    let points: Vec<u64> = vec![2, 3, 4, 5, 6];
    let expected: Vec<String> = points
        .iter()
        .map(|&p| reference.roundtrip(&zoom_line("fig1", p)))
        .collect();

    let mut client = Client::connect(addr);
    let mut segment = String::new();
    for &p in &points {
        segment.push_str(&zoom_line("fig1", p));
        segment.push('\n');
    }
    segment.push_str("{\"op\":\"ping\"}\n");
    client.send_raw(segment.as_bytes());

    for (i, expect) in expected.iter().enumerate() {
        let got = client.recv_line();
        assert_eq!(
            result_suffix(&got),
            result_suffix(expect),
            "response {i} out of order"
        );
        let fp = |s: &str| {
            let at = s.find("\"fingerprint\":").expect("fingerprint");
            s[at..at + 34].to_string()
        };
        assert_eq!(fp(&got), fp(expect), "response {i} out of order");
    }
    assert_eq!(client.recv_line(), r#"{"ok":true,"pong":true}"#);

    let stats = client.roundtrip(r#"{"op":"stats"}"#);
    let batches = field_i64(&stats, &["server", "pipelined_batches"]);
    let lines = field_i64(&stats, &["server", "pipelined_lines"]);
    assert!(batches >= 1, "event loop dispatched batches: {stats}");
    assert!(lines >= batches, "batches carry lines: {stats}");
    // One permit per executed zoom, each dropped when its zoom answered:
    // the burst's cache hits took none.
    assert_eq!(
        field_i64(&stats, &["admission", "admitted"]),
        field_i64(&stats, &["server", "zoom_executed"]),
        "{stats}"
    );
    assert_eq!(field_i64(&stats, &["admission", "inflight"]), 0, "{stats}");

    shutdown(&mut client, handle);
}

/// Under a memory budget the serving layer's one coupling to memory is the
/// reactor's read pause while the governor is over budget: a pipelined
/// burst of cold zooms spills, and every answer is byte-identical to the
/// same zoom run cold with no budget.
#[test]
fn a_budgeted_burst_spills_and_answers_like_an_unbudgeted_run() {
    let dir = std::env::temp_dir().join("tgraph-el-budget");
    let _ = std::fs::remove_dir_all(&dir);
    let wiki = WikiTalk {
        vertices: 200,
        months: 24,
        edges_per_vertex: 3.0,
        edge_survival: 0.2,
        edit_count_values: 50,
        seed: 0x5EED,
    }
    .generate();
    write_dataset(&dir, "wiki", &wiki).expect("write dataset");
    let server = Arc::new(
        Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir,
            workers: 2,
            partitions: 2,
            ..ServerConfig::default()
        })
        .expect("bind"),
    );
    let zoom = |points: u64, extra: &str| {
        format!(
            r#"{{"op":"zoom","graph":"wiki","repr":"ve",{extra}"steps":[{{"wzoom":{{"window":{{"points":{points}}},"vq":"exists","eq":"exists"}}}}]}}"#
        )
    };
    let points = 2..8;
    let expected: Vec<String> = points
        .clone()
        .map(|p| server.handle_line(&zoom(p, r#""no_cache":true,"#)))
        .collect();

    server.runtime().set_mem_budget(64 << 10);
    let addr = server.local_addr().expect("addr");
    let handle = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve())
    };
    let mut client = Client::connect(addr);
    let burst: String = points.map(|p| zoom(p, "") + "\n").collect();
    client.send_raw(burst.as_bytes());
    for (i, expect) in expected.iter().enumerate() {
        let got = client.recv_line();
        assert!(got.contains("\"cache\":\"miss\""), "zoom {i}: {got}");
        assert_eq!(result_suffix(&got), result_suffix(expect), "zoom {i}");
    }
    let stats = client.roundtrip(r#"{"op":"stats"}"#);
    assert!(
        field_i64(&stats, &["runtime", "bytes_spilled"]) > 0,
        "{stats}"
    );
    shutdown(&mut client, handle);
}

/// (b) A request dripped a few bytes at a time — across many poll wakeups
/// and partial-frame reads — reassembles into one frame.
#[test]
fn dripped_request_bytes_reassemble() {
    let (_server, addr, handle) = spawn_server("tgraph-el-drip", "fig1");
    let mut client = Client::connect(addr);

    let line = format!("{}\n", zoom_line("fig1", 3));
    for (i, chunk) in line.as_bytes().chunks(3).enumerate() {
        client.send_raw(chunk);
        if i % 8 == 0 {
            // Let the reactor wake, read the fragment and park again.
            std::thread::sleep(Duration::from_millis(12));
        }
    }
    let response = client.recv_line();
    assert!(response.contains("\"ok\":true"), "{response}");
    assert!(
        response.contains("\"result\":"),
        "drip reassembled into a full zoom: {response}"
    );
    shutdown(&mut client, handle);
}

/// (c) The response stream a client reads over TCP is byte-identical to
/// what `Server::handle_line` returns in process for the same mixed
/// zoom/hit/bad-JSON/ingest/patch/stats script (timing fields blanked;
/// stats lines checked structurally — the connection layer's own counters
/// only move when a socket is involved). The in-process dispatch path is
/// the oracle: the connection layer may move bytes, never change them.
#[test]
fn tcp_transcript_matches_in_process_dispatch() {
    let script: Vec<String> = vec![
        r#"{"op":"ping"}"#.to_string(),
        zoom_line("figx", 3),
        zoom_line("figx", 3), // cache hit replay
        zoom_line("figx", 5),
        "definitely not json".to_string(),
        ingest_line("figx"),
        zoom_line("figx", 3), // patched or re-executed after ingest
        r#"{"op":"stats"}"#.to_string(),
        zoom_line("figx", 5),
    ];

    // Each side gets its own dataset: the ingest mutates it.
    let oracle = bind_server("tgraph-el-ident-inproc", "figx");
    let in_process: Vec<String> = script.iter().map(|l| oracle.handle_line(l)).collect();

    let (_server, addr, handle) = spawn_server("tgraph-el-ident-tcp", "figx");
    let mut client = Client::connect(addr);
    let over_tcp: Vec<String> = script.iter().map(|l| client.roundtrip(l)).collect();
    shutdown(&mut client, handle);

    assert_eq!(in_process.len(), over_tcp.len());
    for (i, (p, t)) in in_process.iter().zip(over_tcp.iter()).enumerate() {
        if p.contains("\"uptime_ms\"") {
            assert!(t.contains("\"uptime_ms\""), "line {i}: {t}");
            assert!(p.contains("\"ok\":true") && t.contains("\"ok\":true"));
            continue;
        }
        assert_eq!(
            normalize_timings(p),
            normalize_timings(t),
            "line {i} diverged between handle_line and the socket"
        );
    }
}

/// The request-line cap answers a typed `line_too_large` and closes — after
/// first answering everything already pipelined ahead of the oversized
/// line.
#[test]
fn oversized_request_line_is_refused_with_a_typed_error() {
    let (_server, addr, handle) = spawn_server("tgraph-el-cap", "fig1");
    let mut client = Client::connect(addr);

    // An in-cap request still works.
    assert_eq!(
        client.roundtrip(r#"{"op":"ping"}"#),
        r#"{"ok":true,"pong":true}"#
    );

    // A ping pipelined ahead of a newline-free flood one byte past the cap:
    // the ping is answered first, then the typed refusal, then the close.
    // The server reads every byte sent before it refuses, so the close is
    // orderly.
    let mut burst = Vec::new();
    burst.extend_from_slice(b"{\"op\":\"ping\"}\n");
    burst.extend_from_slice(&vec![b'x'; MAX_LINE_BYTES + 1]);
    client.send_raw(&burst);
    assert_eq!(client.recv_line(), r#"{"ok":true,"pong":true}"#);
    let refusal = client.recv_line();
    assert!(refusal.contains("\"kind\":\"line_too_large\""), "{refusal}");
    client.expect_eof();

    let mut control = Client::connect(addr);
    let stats = control.roundtrip(r#"{"op":"stats"}"#);
    assert!(
        field_i64(&stats, &["server", "lines_over_cap"]) >= 1,
        "{stats}"
    );
    shutdown(&mut control, handle);
}

/// Invalid UTF-8 gets a typed `bad_request` response (not a silent close),
/// keeps its place in the pipeline's response order, and leaves the
/// connection usable.
#[test]
fn invalid_utf8_line_gets_a_typed_bad_request() {
    let (_server, addr, handle) = spawn_server("tgraph-el-utf8", "fig1");
    let mut client = Client::connect(addr);

    let mut burst = Vec::new();
    burst.extend_from_slice(b"{\"op\":\"ping\"}\n");
    burst.extend_from_slice(&[0xff, 0xfe, 0x80, b'\n']);
    burst.extend_from_slice(b"{\"op\":\"ping\"}\n");
    client.send_raw(&burst);

    assert_eq!(client.recv_line(), r#"{"ok":true,"pong":true}"#);
    let refusal = client.recv_line();
    assert!(refusal.contains("\"kind\":\"bad_request\""), "{refusal}");
    assert!(refusal.contains("UTF-8"), "{refusal}");
    assert_eq!(
        client.recv_line(),
        r#"{"ok":true,"pong":true}"#,
        "connection stays usable"
    );

    let stats = client.roundtrip(r#"{"op":"stats"}"#);
    assert!(
        field_i64(&stats, &["server", "bad_requests"]) >= 1,
        "{stats}"
    );
    shutdown(&mut client, handle);
}

/// Idle connections park without any poll-interval wakeups: with a
/// crowd of idle connections open, a request on one of them still answers
/// promptly (the reactor was blocked in `wait`, not sleeping in a loop).
#[test]
fn idle_connections_do_not_starve_active_ones() {
    let (_server, addr, handle) = spawn_server("tgraph-el-idle", "fig1");
    let _idlers: Vec<Client> = (0..64).map(|_| Client::connect(addr)).collect();
    std::thread::sleep(Duration::from_millis(50));
    let mut active = Client::connect(addr);
    let t0 = std::time::Instant::now();
    assert_eq!(
        active.roundtrip(r#"{"op":"ping"}"#),
        r#"{"ok":true,"pong":true}"#
    );
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "ping served promptly amid idle crowd"
    );
    shutdown(&mut active, handle);
}
