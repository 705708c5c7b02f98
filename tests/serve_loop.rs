//! Tier-1 slice of the serving suites (`crates/server/tests`): opens a real
//! socket against the serve loop and checks that what a client reads is
//! byte-identical to `Server::handle_line` run in process on the same
//! script. The in-process dispatch path is the oracle: the connection layer
//! may move bytes, never change them; the same script holds `"repr":"auto"`
//! answers to the bytes of the same zooms pinned to OG and to VE. A second
//! case ingests over the socket and checks the patched answer against a
//! cold recompute; a third sends a hostile line and checks the server is
//! still there afterwards; a fourth (in process) holds a server that
//! ingested against one bound afterwards over the same directory; a fifth
//! replays more zooms than the result cache holds and checks every answer,
//! hit, evicted or declined, against a cache-bypassing recompute; a sixth
//! sends a delta that asserts one vertex twice at once and checks it is
//! refused without committing an epoch; a seventh patches answers whose
//! result graph is read back from the cached body, over hostile properties.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use tgraph_core::graph::{figure1_graph_stable_ids, VertexRecord};
use tgraph_core::props::Props;
use tgraph_core::time::Interval;
use tgraph_serve::{json, Json, Server, ServerConfig};
use tgraph_storage::write_dataset;

fn bind_server(dirname: &str) -> Arc<Server> {
    let dir = std::env::temp_dir().join(dirname);
    let _ = std::fs::remove_dir_all(&dir);
    write_dataset(&dir, "fig1", &figure1_graph_stable_ids()).expect("write dataset");
    bind_over(dir, 4 << 20)
}

/// A server over whatever `dir` already holds, with a result cache of
/// `cache_bytes`.
fn bind_over(dir: PathBuf, cache_bytes: u64) -> Arc<Server> {
    Arc::new(
        Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir,
            workers: 2,
            partitions: 2,
            cache_bytes,
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

/// One client connection to a serve loop running on its own thread.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

type ServeThread = std::thread::JoinHandle<std::io::Result<()>>;

fn serve_and_connect(server: Arc<Server>) -> (Client, ServeThread) {
    let addr = server.local_addr().expect("addr");
    let serve_thread = std::thread::spawn(move || server.serve());
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (
        Client {
            reader,
            writer: stream,
        },
        serve_thread,
    )
}

impl Client {
    fn roundtrip(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("receive");
        assert!(!response.is_empty(), "connection closed mid-script");
        response.trim_end().to_string()
    }

    fn shutdown(mut self, serve_thread: ServeThread) {
        let bye = self.roundtrip(r#"{"op":"shutdown"}"#);
        assert!(bye.contains("\"shutting_down\":true"), "{bye}");
        serve_thread
            .join()
            .expect("serve thread")
            .expect("serve loop");
    }
}

#[test]
fn tcp_transcript_matches_in_process_dispatch() {
    let zoom = r#"{"op":"zoom","graph":"fig1","repr":"ve","steps":[{"azoom":{"by":"school","new_type":"school","aggs":[{"output":"students","fn":"count"}]}},{"switch":"og"},{"wzoom":{"window":{"points":3},"vq":"exists","eq":"exists"}}]}"#;
    // One wZoom and one aZoom pipeline, each asked `"repr":"auto"` first
    // (nothing measured yet, so the choice is the same on both servers)
    // and then pinned to OG and to VE.
    let reprs = ["auto", "og", "ve"];
    let wzoom = reprs.map(|r| format!(r#"{{"op":"zoom","graph":"fig1","repr":"{r}","steps":[{{"wzoom":{{"window":{{"points":3}},"vq":"exists","eq":"exists"}}}}]}}"#));
    let azoom = reprs.map(|r| format!(r#"{{"op":"zoom","graph":"fig1","repr":"{r}","steps":[{{"azoom":{{"by":"school","new_type":"school","aggs":[{{"output":"students","fn":"count"}}]}}}}]}}"#));
    // ping, miss, hit replay, malformed line, then the auto/pinned triples.
    let mut script = vec![r#"{"op":"ping"}"#, zoom, zoom, "definitely not json"];
    script.extend(wzoom.iter().chain(&azoom).map(String::as_str));

    let oracle = bind_server("tgraph-tier1-serve-inproc");
    let in_process: Vec<String> = script.iter().map(|l| oracle.handle_line(l)).collect();
    // Auto never changes an answer: OGC, which keeps no attributes, is not
    // a candidate, so the auto bytes are the pinned OG and VE bytes.
    let result_of = |response: &str| {
        let at = response.find(",\"result\":").expect("result field");
        response[at..].to_string()
    };
    for triple in in_process[4..].chunks(3) {
        assert!(
            triple[0].contains("\"requested\":\"auto\""),
            "{}",
            triple[0]
        );
        for pinned in &triple[1..] {
            assert_eq!(result_of(&triple[0]), result_of(pinned), "{pinned}");
        }
    }
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

    let (mut client, serve_thread) = serve_and_connect(bind_server("tgraph-tier1-serve-tcp"));

    for (i, (line, expected)) in script.iter().zip(&in_process).enumerate() {
        assert_eq!(
            normalize_timings(&client.roundtrip(line)),
            normalize_timings(expected),
            "line {i} diverged between handle_line and the socket"
        );
    }

    client.shutdown(serve_thread);
}

/// 100 000 `[` is a tenth of the line cap, and used to overflow the
/// dispatcher's stack in the JSON parser: the whole process died, not the
/// request. It is a typed refusal, and the connection keeps answering.
#[test]
fn deeply_nested_json_is_a_bad_request_and_the_server_lives() {
    let (mut client, serve_thread) = serve_and_connect(bind_server("tgraph-tier1-serve-nesting"));
    let refused = client.roundtrip(&"[".repeat(100_000));
    assert_eq!(
        refused,
        r#"{"ok":false,"kind":"bad_request","error":"invalid json: nesting deeper than 64 at byte 64"}"#
    );
    let pong = client.roundtrip(r#"{"op":"ping"}"#);
    assert_eq!(pong, r#"{"ok":true,"pong":true}"#);
    client.shutdown(serve_thread);
}

/// Zoom, ingest, same zoom, all over the socket: the third answer comes down
/// the O(delta) patch path and its `result` equals a cache-bypassing cold
/// recompute byte for byte.
#[test]
fn ingest_over_the_socket_patches_byte_identically_to_a_recompute() {
    let zoom = |extra: &str| {
        format!(
            r#"{{"op":"zoom","graph":"fig1","repr":"ve",{extra}"steps":[{{"azoom":{{"by":"school","new_type":"school","aggs":[{{"output":"students","fn":"count"}}]}}}},{{"wzoom":{{"window":{{"points":2}}}}}}]}}"#
        )
    };
    // Figure 1 ends at 9: Cat stays at MIT, Eli arrives at ETH.
    let ingest = r#"{"op":"ingest","graph":"fig1","since":9,"vertices":[{"id":3,"interval":[9,12],"props":{"type":"person","school":"MIT","name":"Cat"}},{"id":7,"interval":[9,11],"props":{"type":"person","school":"ETH","name":"Eli"}}]}"#;
    let result_of = |response: &str| {
        let at = response.find("\"result\":").expect("result field");
        response[at..].to_string()
    };

    let (mut client, serve_thread) = serve_and_connect(bind_server("tgraph-tier1-serve-ingest"));
    let before = client.roundtrip(&zoom(""));
    assert!(before.contains("\"cache\":\"miss\""), "{before}");
    let committed = client.roundtrip(ingest);
    assert!(committed.contains("\"epoch\":1"), "{committed}");
    let patched = client.roundtrip(&zoom(""));
    assert!(patched.contains("\"cache\":\"patch\""), "{patched}");
    assert_ne!(result_of(&before), result_of(&patched));
    let recomputed = client.roundtrip(&zoom(r#""no_cache":true,"#));
    assert!(recomputed.contains("\"cache\":\"miss\""), "{recomputed}");
    assert_eq!(result_of(&patched), result_of(&recomputed));
    client.shutdown(serve_thread);
}

/// A delta that asserts one vertex twice over overlapping intervals breaks
/// Definition 2.1 even when both facts carry the same properties: VE and RG
/// would count the vertex twice where OG counts it once. It is a
/// `bad_delta`, no epoch is committed, and the zoom asked before it is
/// still answered from the cache afterwards.
#[test]
fn an_overlapping_duplicate_over_the_socket_is_a_bad_delta_and_commits_nothing() {
    let zoom = r#"{"op":"zoom","graph":"fig1","repr":"ve","steps":[{"azoom":{"by":"school","new_type":"school","aggs":[{"output":"students","fn":"count"}]}}]}"#;
    let cat = |interval: &str| {
        format!(
            r#"{{"id":3,"interval":{interval},"props":{{"type":"person","school":"MIT","name":"Cat"}}}}"#
        )
    };
    let ingest = format!(
        r#"{{"op":"ingest","graph":"fig1","since":9,"vertices":[{},{}]}}"#,
        cat("[9,12]"),
        cat("[10,11]")
    );

    let (mut client, serve_thread) = serve_and_connect(bind_server("tgraph-tier1-serve-overlap"));
    let first = client.roundtrip(zoom);
    assert!(first.contains("\"cache\":\"miss\""), "{first}");
    let before = client.roundtrip(zoom);
    assert!(before.contains("\"cache\":\"hit\""), "{before}");
    let refused = client.roundtrip(&ingest);
    assert_eq!(
        refused,
        r#"{"ok":false,"kind":"bad_delta","error":"vertex v3 has overlapping facts [9, 12) and [10, 11)"}"#
    );
    let stats = client.roundtrip(r#"{"op":"stats"}"#);
    assert!(stats.contains("\"ingests\":0"), "{stats}");
    let after = client.roundtrip(zoom);
    assert!(after.contains("\"cache\":\"hit\""), "{after}");
    client.shutdown(serve_thread);
}

/// A served answer is named by what was asked and when. Server A loads the
/// base, takes one ingest (its resident graph is upgraded in memory) and
/// zooms; server B is bound afterwards over the same directory and loads
/// base plus segment from disk. Same request, same epoch: same `fingerprint`
/// and the same result bytes, in every representation — and on A the zoom
/// repeated across the ingest is never answered from the cache.
#[test]
fn a_server_bound_after_an_ingest_answers_like_the_one_that_took_it() {
    let ingest = r#"{"op":"ingest","graph":"fig1","since":9,"vertices":[{"id":3,"interval":[9,12],"props":{"type":"person","school":"MIT","name":"Cat"}},{"id":7,"interval":[9,11],"props":{"type":"person","school":"ETH","name":"Eli"}}]}"#;
    let field = |response: &str, name: &str| {
        let at = response.find(&format!("\"{name}\":")).expect(name);
        let end = if name == "result" {
            response.len()
        } else {
            at + response[at..].find(',').expect("next field")
        };
        response[at..end].to_string()
    };
    for repr in ["rg", "ve", "og", "ogc"] {
        let zoom = format!(
            r#"{{"op":"zoom","graph":"fig1","repr":"{repr}","steps":[{{"wzoom":{{"window":{{"changes":2}}}}}}]}}"#
        );
        let dirname = format!("tgraph-tier1-serve-rebind-{repr}");
        let a = bind_server(&dirname);
        let before = a.handle_line(&zoom);
        assert!(before.contains("\"cache\":\"miss\""), "{repr}: {before}");
        let committed = a.handle_line(ingest);
        assert!(committed.contains("\"epoch\":1"), "{repr}: {committed}");
        let after = a.handle_line(&zoom);
        assert!(after.contains("\"ok\":true"), "{repr}: {after}");
        assert!(!after.contains("\"cache\":\"hit\""), "{repr}: {after}");
        assert_ne!(field(&before, "result"), field(&after, "result"), "{repr}");
        assert_ne!(
            field(&before, "fingerprint"),
            field(&after, "fingerprint"),
            "{repr}"
        );

        let b = bind_over(std::env::temp_dir().join(dirname), 4 << 20);
        let fresh = b.handle_line(&zoom);
        assert!(fresh.contains("\"cache\":\"miss\""), "{repr}: {fresh}");
        assert_eq!(
            field(&after, "fingerprint"),
            field(&fresh, "fingerprint"),
            "{repr}"
        );
        assert_eq!(field(&after, "result"), field(&fresh, "result"), "{repr}");
    }
}

/// The counter `name` of a `stats` response's `cache` object.
fn cache_stat(stats: &str, name: &str) -> i64 {
    let stats = json::parse(stats).expect("stats json");
    let count = stats.get("cache").and_then(|cache| cache.get(name));
    count.and_then(Json::as_i64).expect(name)
}

/// Eight zooms, two window pipelines in every representation, replayed for
/// four rounds over the socket against a result cache that holds half
/// their answers: some answers hit, some are declined, and every `result`
/// equals the same zoom's `"no_cache":true` recompute byte for byte.
#[test]
fn answers_under_cache_pressure_equal_their_recomputes() {
    let zoom = |repr: &str, points: u32, extra: &str| {
        format!(
            r#"{{"op":"zoom","graph":"fig1","repr":"{repr}",{extra}"steps":[{{"wzoom":{{"window":{{"points":{points}}},"vq":"exists","eq":"exists"}}}}]}}"#
        )
    };
    let cases: Vec<(&str, u32)> = ["rg", "ve", "og", "ogc"]
        .into_iter()
        .flat_map(|repr| [(repr, 2), (repr, 3)])
        .collect();
    let result_of = |response: &str| {
        let at = response.find(",\"result\":").expect("result field");
        response[at..].to_string()
    };
    // What the eight answers are charged together, on a server that keeps
    // them all.
    let roomy = bind_server("tgraph-tier1-serve-roomy");
    for (repr, points) in &cases {
        roomy.handle_line(&zoom(repr, *points, ""));
    }
    let stats = roomy.handle_line(r#"{"op":"stats"}"#);
    assert_eq!(cache_stat(&stats, "insertions"), 8, "{stats}");
    let all = cache_stat(&stats, "bytes_used") as u64;

    let dir = std::env::temp_dir().join("tgraph-tier1-serve-pressure");
    let _ = std::fs::remove_dir_all(&dir);
    write_dataset(&dir, "fig1", &figure1_graph_stable_ids()).expect("write dataset");
    let (mut client, serve_thread) = serve_and_connect(bind_over(dir, all / 2));
    let cold: Vec<String> = cases
        .iter()
        .map(|(repr, points)| {
            result_of(&client.roundtrip(&zoom(repr, *points, r#""no_cache":true,"#)))
        })
        .collect();
    for round in 0..4 {
        for ((repr, points), cold) in cases.iter().zip(&cold) {
            let response = client.roundtrip(&zoom(repr, *points, ""));
            assert_eq!(
                &result_of(&response),
                cold,
                "round {round}: {repr} points {points}"
            );
        }
    }
    let stats = client.roundtrip(r#"{"op":"stats"}"#);
    assert!(cache_stat(&stats, "hits") > 0, "{stats}");
    assert!(cache_stat(&stats, "declined") > 0, "{stats}");
    assert!(
        cache_stat(&stats, "bytes_used") as u64 <= all / 2,
        "{stats}"
    );
    client.shutdown(serve_thread);
}

/// A patch reads its seed back from the cached body, so the body must carry
/// every property the result graph did. Figure 1 gains a vertex whose id is
/// above `i64::MAX` and whose properties hold an escaped string, non-ASCII
/// text and an integral float. After an ingest, the identity zoom in VE, OG
/// and RG is answered by a patch equal to its cold recompute byte for byte;
/// a ranged zoom, whose answer seeds nothing, is a miss.
#[test]
fn a_patch_from_a_body_read_back_equals_the_recompute() {
    let mut fixture = figure1_graph_stable_ids();
    let props = Props::typed("person")
        .with("name", "Zo\u{eb} \"Z\" \\ \u{4e2d}\t")
        .with("school", "ETH")
        .with("score", 3.0);
    fixture
        .vertices
        .push(VertexRecord::new((1 << 63) + 5, Interval::new(2, 7), props));
    let dir = std::env::temp_dir().join("tgraph-tier1-serve-readback");
    let _ = std::fs::remove_dir_all(&dir);
    write_dataset(&dir, "fig1", &fixture).expect("write dataset");
    let zoom = |repr: &str, extra: &str| {
        format!(r#"{{"op":"zoom","graph":"fig1","repr":"{repr}",{extra}"steps":[]}}"#)
    };
    let ingest = r#"{"op":"ingest","graph":"fig1","since":9,"vertices":[{"id":3,"interval":[9,12],"props":{"type":"person","school":"MIT","name":"Cat"}}]}"#;
    let result_of = |response: &str| {
        let at = response.find(",\"result\":").expect("result field");
        response[at..].to_string()
    };

    let (mut client, serve_thread) = serve_and_connect(bind_over(dir, 4 << 20));
    let ranged = zoom("ve", r#""range":[2,8],"#);
    for line in [
        zoom("ve", ""),
        zoom("og", ""),
        zoom("rg", ""),
        ranged.clone(),
    ] {
        let first = client.roundtrip(&line);
        assert!(first.contains("\"cache\":\"miss\""), "{first}");
        // The writer spells ids as their `i64` bits.
        assert!(first.contains("\"id\":-9223372036854775803"), "{first}");
        assert!(first.contains("\"score\":3.0"), "{first}");
    }
    let committed = client.roundtrip(ingest);
    assert!(committed.contains("\"epoch\":1"), "{committed}");
    for repr in ["ve", "og", "rg"] {
        let patched = client.roundtrip(&zoom(repr, ""));
        assert!(patched.contains("\"cache\":\"patch\""), "{repr}: {patched}");
        let cold = client.roundtrip(&zoom(repr, r#""no_cache":true,"#));
        assert_eq!(result_of(&patched), result_of(&cold), "{repr}");
    }
    let after = client.roundtrip(&ranged);
    assert!(after.contains("\"cache\":\"miss\""), "{after}");
    client.shutdown(serve_thread);
}
