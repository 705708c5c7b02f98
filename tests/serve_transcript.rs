//! The serve path's golden transcript: one fixed request script over a
//! deterministic generated dataset, run through `Server::handle_line` and
//! again over one TCP connection to a fresh server, each
//! response pinned in `serve_transcript.golden` as two `len:checksum`
//! columns: the head (the normalised text before `,"result":`) and the body
//! (the result bytes, from `,"result":` to the end; empty for responses that
//! carry no result). A change to the envelope moves head sums only. Byte
//! identity of responses is the contract every serve-layer refactor is held
//! to; this is the script earlier PRs rebuilt by hand, committed once.
//!
//! Before hashing, what legitimately differs between two runs of one binary
//! is blanked: `*_us`/`*_ms` values (`observed_us` among them).
//! `fingerprint`s and every result byte stay in. `stats` carries counters
//! that depend on timing, so it is pinned by key set, not values.
//!
//! On a deliberate protocol change, run the test and paste the table it
//! prints into `serve_transcript.golden`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use tgraph_datagen::WikiTalk;
use tgraph_serve::json::{self, Json};
use tgraph_serve::{Server, ServerConfig};
use tgraph_storage::write_dataset;

const GOLDEN: &str = include_str!("serve_transcript.golden");

/// A server over a fresh copy of the dataset in `dirname`: the script
/// ingests, so two runs must not share a directory.
fn bind_server(dirname: &str) -> Arc<Server> {
    let dir = std::env::temp_dir().join(dirname);
    let _ = std::fs::remove_dir_all(&dir);
    let g = WikiTalk {
        vertices: 80,
        months: 12,
        edges_per_vertex: 3.0,
        edge_survival: 0.2,
        edit_count_values: 6,
        seed: 0x5EED,
    }
    .generate();
    write_dataset(&dir, "wiki", &g).expect("write dataset");
    Arc::new(
        Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir,
            workers: 2,
            partitions: 2,
            cache_bytes: 32 << 20,
            ..ServerConfig::default()
        })
        .expect("bind"),
    )
}

fn zoom(repr: &str, extra: &str, steps: &str) -> String {
    let repr = if repr.is_empty() {
        String::new()
    } else {
        format!(r#""repr":"{repr}","#)
    };
    format!(r#"{{"op":"zoom","graph":"wiki",{repr}{extra}"steps":[{steps}]}}"#)
}

/// The script, as `(label, request line)`.
fn script() -> Vec<(String, String)> {
    const ALL: [&str; 4] = ["rg", "ve", "og", "ogc"];
    const ATTR: [&str; 3] = ["rg", "ve", "og"];
    const FOUR_AGGS: &str = r#"{"output":"n","fn":"count"},{"output":"s","fn":"sum","key":"editCount"},{"output":"lo","fn":"min","key":"editCount"},{"output":"hi","fn":"max","key":"editCount"},{"output":"mean","fn":"avg","key":"editCount"}"#;
    let by_prop = r#"{"azoom":{"by":"editCount","new_type":"bucket","aggs":[{"output":"users","fn":"count"}]}}"#;
    let by_props = format!(
        r#"{{"azoom":{{"by_properties":["type","editCount"],"new_type":"cell","aggs":[{FOUR_AGGS}]}}}}"#
    );
    let by_type =
        format!(r#"{{"azoom":{{"by_type":true,"new_type":"kind","aggs":[{FOUR_AGGS}]}}}}"#);
    let by_name = r#"{"azoom":{"by":"name","aggs":[{"output":"e","fn":"any","key":"editCount"}]}}"#;
    let wz = |window: &str, vq: &str, eq: &str| {
        format!(r#"{{"wzoom":{{"window":{{{window}}},"vq":{vq},"eq":{eq}}}}}"#)
    };

    let mut s: Vec<(String, String)> = Vec::new();
    let mut push = |label: String, line: String| s.push((label, line));
    push("ping".into(), r#"{"op":"ping"}"#.into());
    for r in ALL {
        push(format!("identity {r}"), zoom(r, "", ""));
    }
    for r in ATTR {
        push(format!("azoom by property {r}"), zoom(r, "", by_prop));
        push(format!("azoom by properties {r}"), zoom(r, "", &by_props));
        push(format!("azoom by type {r}"), zoom(r, "", &by_type));
    }
    push("azoom by name ve".into(), zoom("ve", "", by_name));
    for r in ALL {
        let exists = wz(r#""points":3"#, r#""exists""#, r#""exists""#);
        push(format!("wzoom points exists {r}"), zoom(r, "", &exists));
        let all = wz(r#""points":4"#, r#""all""#, r#""all""#);
        push(format!("wzoom points all {r}"), zoom(r, "", &all));
        let changes = wz(r#""changes":2"#, r#""exists""#, r#""exists""#);
        push(format!("wzoom changes exists {r}"), zoom(r, "", &changes));
    }
    for r in ["ve", "og", "ogc"] {
        let most = wz(r#""points":3"#, r#""most""#, r#""exists""#);
        push(format!("wzoom most {r}"), zoom(r, "", &most));
    }
    for r in ATTR {
        let at_least = wz(
            r#""points":6"#,
            r#"{"at_least":0.5}"#,
            r#"{"at_least":0.25}"#,
        );
        push(format!("wzoom at_least {r}"), zoom(r, "", &at_least));
    }
    for r in ["ve", "og"] {
        let resolved = r#"{"wzoom":{"window":{"changes":3},"vq":"all","eq":"most","resolve_v":"last","resolve_e":"first","overrides_v":[["editCount","first"]]}}"#;
        push(format!("wzoom changes resolve {r}"), zoom(r, "", resolved));
    }
    for r in ["ve", "ogc"] {
        let chained = format!(
            "{},{}",
            wz(r#""points":2"#, r#""exists""#, r#""exists""#),
            wz(r#""points":6"#, r#""all""#, r#""exists""#)
        );
        push(format!("wzoom chained {r}"), zoom(r, "", &chained));
    }
    let quarter = wz(r#""points":3"#, r#""exists""#, r#""all""#);
    push(
        "chain ve azoom switch og wzoom".into(),
        zoom(
            "ve",
            "",
            &format!(r#"{by_prop},{{"switch":"og"}},{quarter}"#),
        ),
    );
    push(
        "chain og azoom switch ogc wzoom".into(),
        zoom(
            "og",
            "",
            &format!(r#"{by_type},{{"switch":"ogc"}},{quarter}"#),
        ),
    );
    push(
        "chain rg switch ve azoom".into(),
        zoom("rg", "", &format!(r#"{{"switch":"ve"}},{by_props}"#)),
    );
    push(
        "chain ogc wzoom switch ve azoom".into(),
        zoom(
            "ogc",
            "",
            &format!(r#"{quarter},{{"switch":"ve"}},{by_prop}"#),
        ),
    );
    for r in ALL {
        let steps = if r == "ogc" {
            quarter.clone()
        } else {
            format!("{by_prop},{quarter}")
        };
        push(format!("range {r}"), zoom(r, r#""range":[2,8],"#, &steps));
    }
    // Auto requests use shapes no explicit request shares, so the choice
    // never depends on which representation happened to run faster.
    let auto_shape = wz(r#""points":5"#, r#""exists""#, r#""exists""#);
    push(
        "auto explain".into(),
        zoom("", r#""explain":true,"#, &auto_shape),
    );
    push(
        "auto explain replay".into(),
        zoom("", r#""explain":true,"#, &auto_shape),
    );
    let auto_azoom = format!("{by_type},{}", wz(r#""points":2"#, r#""all""#, r#""all""#));
    push("auto".into(), zoom("auto", "", &auto_azoom));
    let pinned = wz(r#""changes":4"#, r#""most""#, r#""most""#);
    push(
        "explain pinned ogc".into(),
        zoom("ogc", r#""explain":true,"#, &pinned),
    );
    push("hit replay".into(), zoom("ve", "", by_prop));

    // Zoom -> ingest -> the same zooms: patched, and two cold recomputes.
    let maintained = [
        (
            "ve",
            format!(
                "{by_prop},{}",
                wz(r#""points":2"#, r#""exists""#, r#""exists""#)
            ),
        ),
        ("og", format!("{by_type},{quarter}")),
        ("ogc", wz(r#""points":4"#, r#""exists""#, r#""all""#)),
        ("rg", format!("{by_prop},{quarter}")),
    ];
    for (r, steps) in &maintained {
        push(format!("before ingest {r}"), zoom(r, "", steps));
    }
    push(
        "ingest".into(),
        r#"{"op":"ingest","graph":"wiki","since":12,"vertices":[{"id":0,"interval":[12,15],"props":{"type":"person","name":"user0","editCount":1}},{"id":1,"interval":[12,15],"props":{"type":"person","name":"user1","editCount":4}},{"id":500,"interval":[12,14],"props":{"type":"person","name":"user500","editCount":2}}],"edges":[{"id":100000,"src":0,"dst":1,"interval":[12,14],"props":{"type":"message"}},{"id":100001,"src":500,"dst":1,"interval":[13,14],"props":{"type":"message"}}]}"#.into(),
    );
    for (i, (r, steps)) in maintained.iter().enumerate() {
        let extra = if i >= 2 { r#""no_cache":true,"# } else { "" };
        push(format!("after ingest {r}"), zoom(r, extra, steps));
    }
    push(
        "stale ingest".into(),
        r#"{"op":"ingest","graph":"wiki","since":12}"#.into(),
    );

    push("reject bad repr".into(), zoom("XG", "", ""));
    push("reject azoom on ogc".into(), zoom("ogc", "", by_prop));
    push(
        "reject unknown graph".into(),
        r#"{"op":"zoom","graph":"nope","repr":"ve","steps":[]}"#.into(),
    );
    push("reject not json".into(), "definitely not json".into());
    push(
        "reject unknown op shard_exec".into(),
        format!(
            r#"{{"op":"shard_exec","epoch":1,"zoom":{}}}"#,
            zoom("ve", "", "")
        ),
    );
    push("stats".into(), r#"{"op":"stats"}"#.into());
    s
}

/// Replaces the value after every occurrence of `key_end` (the tail of a
/// quoted key plus its colon) with `X`. Values here are numbers or `null`.
fn blank_values(text: &mut String, key_end: &str) {
    let mut from = 0;
    while let Some(at) = text[from..].find(key_end) {
        let start = from + at + key_end.len();
        let len = text[start..]
            .find([',', '}', ']'])
            .unwrap_or(text.len() - start);
        text.replace_range(start..start + len, "X");
        from = start;
    }
}

/// Normalises one response into `(head, body)`: everything before
/// `,"result":` has its timings blanked; the result bytes are untouched.
fn normalize(response: &str) -> (String, &str) {
    let (head, body) = match response.find(",\"result\":") {
        Some(at) => response.split_at(at),
        None => (response, ""),
    };
    let mut head = head.to_string();
    for key_end in ["_us\":", "_ms\":"] {
        blank_values(&mut head, key_end);
    }
    (head, body)
}

/// Every key path of a JSON value, e.g. `runtime.waves`.
fn key_paths(v: &Json, prefix: &str, out: &mut Vec<String>) {
    if let Some(fields) = v.as_obj() {
        for (k, child) in fields {
            let path = if prefix.is_empty() {
                k.clone()
            } else {
                format!("{prefix}.{k}")
            };
            key_paths(child, &path, out);
        }
    } else {
        out.push(prefix.to_string());
    }
}

fn len_sum(text: &str) -> String {
    format!(
        "{}:{:016x}",
        text.len(),
        tgraph_dataflow::checksum(text.as_bytes())
    )
}

/// The golden line for one response; `head` and `body` are its normalised
/// halves.
fn pin(label: &str, response: &str, head: &str, body: &str) -> String {
    if label == "stats" {
        let mut keys = Vec::new();
        key_paths(&json::parse(response).expect("stats json"), "", &mut keys);
        return format!("keys:{} {label}", keys.join(","));
    }
    format!("{} {} {label}", len_sum(head), len_sum(body))
}

#[test]
fn responses_match_the_golden_transcript() {
    let server = bind_server("tgraph-tier1-serve-transcript");
    let script = script();
    let responses: Vec<String> = script
        .iter()
        .map(|(_, line)| server.handle_line(line))
        .collect();
    assert_matches_golden(&script, &responses);
}

/// The same script over one TCP connection. Every line is written before
/// any response is read, so the responses queue up together in the
/// connection's write backlog and leave it through the socket write path.
#[test]
fn responses_over_one_socket_match_the_golden_transcript() {
    let server = bind_server("tgraph-tier1-serve-transcript-tcp");
    let addr = server.local_addr().expect("addr");
    let serving = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve())
    };
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let script = script();
    let requests: String = script.iter().map(|(_, line)| format!("{line}\n")).collect();
    (&stream).write_all(requests.as_bytes()).expect("send");
    let mut reader = BufReader::new(&stream);
    let mut responses = Vec::with_capacity(script.len());
    for (label, _) in &script {
        let mut response = String::new();
        reader.read_line(&mut response).expect("receive");
        assert!(response.ends_with('\n'), "connection closed before {label}");
        response.pop();
        responses.push(response);
    }
    server.request_shutdown();
    serving.join().expect("serve thread").expect("serve loop");
    assert_matches_golden(&script, &responses);
}

/// Pins each response of `script` and holds the table against
/// `serve_transcript.golden`.
fn assert_matches_golden(script: &[(String, String)], responses: &[String]) {
    let mut actual = Vec::with_capacity(script.len());
    let mut heads = Vec::with_capacity(script.len());
    let mut tags = std::collections::BTreeMap::<&str, usize>::new();
    for ((label, _), response) in script.iter().zip(responses) {
        for tag in ["miss", "hit", "patch"] {
            if response.contains(&format!("\"cache\":\"{tag}\"")) {
                *tags.entry(tag).or_default() += 1;
            }
        }
        let (head, body) = normalize(response);
        actual.push(pin(label, response, &head, body));
        heads.push(head.chars().take(600).collect::<String>());
    }
    // The script exercises what it says it does, whatever the golden holds.
    assert_eq!(tags.get("patch"), Some(&2), "two patched zooms: {tags:?}");
    assert_eq!(tags.get("hit"), Some(&2), "two hit replays: {tags:?}");
    assert!(tags.get("miss").is_some_and(|n| *n >= 50), "{tags:?}");

    let golden: Vec<&str> = GOLDEN.lines().filter(|l| !l.starts_with('#')).collect();
    let diverged: Vec<String> = actual
        .iter()
        .enumerate()
        .filter(|(i, line)| golden.get(*i) != Some(&line.as_str()))
        .map(|(i, line)| {
            format!(
                "line {i}\n  golden: {}\n  actual: {line}\n  head:   {}",
                golden.get(i).unwrap_or(&"<missing>"),
                heads[i]
            )
        })
        .collect();
    assert!(
        diverged.is_empty() && golden.len() == actual.len(),
        "{} of {} responses diverged from tests/serve_transcript.golden:\n{}\n\nfull actual table:\n{}\n",
        diverged.len(),
        actual.len(),
        diverged.join("\n"),
        actual.join("\n")
    );
}
