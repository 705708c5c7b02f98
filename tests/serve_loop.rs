//! Tier-1 slice of the serving suites (`crates/server/tests`): opens a real
//! socket against the serve loop and checks that what a client reads is
//! byte-identical to `Server::handle_line` run in process on the same
//! script. The in-process dispatch path is the oracle: the connection layer
//! may move bytes, never change them.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use tgraph_core::graph::figure1_graph_stable_ids;
use tgraph_serve::{Server, ServerConfig};
use tgraph_storage::write_dataset;

fn bind_server(dirname: &str) -> Arc<Server> {
    let dir = std::env::temp_dir().join(dirname);
    let _ = std::fs::remove_dir_all(&dir);
    write_dataset(&dir, "fig1", &figure1_graph_stable_ids()).expect("write dataset");
    Arc::new(
        Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir,
            workers: 2,
            partitions: 2,
            cache_bytes: 4 << 20,
            ..ServerConfig::default()
        })
        .expect("bind"),
    )
}

/// Blanks the two timing fields, which differ run to run.
fn normalize_timings(line: &str) -> String {
    let mut out = line.to_string();
    for field in ["\"total_us\":", "\"exec_us\":"] {
        if let Some(at) = out.find(field) {
            let start = at + field.len();
            let len = out[start..]
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(out.len() - start);
            out.replace_range(start..start + len, "X");
        }
    }
    out
}

#[test]
fn tcp_transcript_matches_in_process_dispatch() {
    let zoom = r#"{"op":"zoom","graph":"fig1","repr":"ve","steps":[{"azoom":{"by":"school","new_type":"school","aggs":[{"output":"students","fn":"count"}]}},{"switch":"og"},{"wzoom":{"window":{"points":3},"vq":"exists","eq":"exists"}}]}"#;
    // ping, miss, hit replay, malformed line.
    let script = [r#"{"op":"ping"}"#, zoom, zoom, "definitely not json"];

    let oracle = bind_server("tgraph-tier1-serve-inproc");
    let in_process: Vec<String> = script.iter().map(|l| oracle.handle_line(l)).collect();
    assert!(
        in_process[1].contains("\"cache\":\"miss\""),
        "{}",
        in_process[1]
    );
    assert!(
        in_process[2].contains("\"cache\":\"hit\""),
        "{}",
        in_process[2]
    );
    assert!(
        in_process[3].contains("\"kind\":\"bad_request\""),
        "{}",
        in_process[3]
    );

    let server = bind_server("tgraph-tier1-serve-tcp");
    let addr = server.local_addr().expect("addr");
    let serve_thread = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve())
    };
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut roundtrip = |line: &str| -> String {
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut response = String::new();
        reader.read_line(&mut response).expect("receive");
        assert!(!response.is_empty(), "connection closed mid-script");
        response.trim_end().to_string()
    };

    for (i, (line, expected)) in script.iter().zip(&in_process).enumerate() {
        assert_eq!(
            normalize_timings(&roundtrip(line)),
            normalize_timings(expected),
            "line {i} diverged between handle_line and the socket"
        );
    }

    let bye = roundtrip(r#"{"op":"shutdown"}"#);
    assert!(bye.contains("\"shutting_down\":true"), "{bye}");
    serve_thread
        .join()
        .expect("serve thread")
        .expect("serve loop");
}
