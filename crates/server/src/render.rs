//! Every byte the server writes: result graphs and zoom / error / stats
//! responses. Rendering is deterministic (fixed field order, sorted records
//! and property keys), because byte-identical replay is what the result
//! cache and the patch path both compare.

use crate::chooser::{CandidateRow, Decision};
use crate::json::{counters, write_escaped, write_float, Json};
use crate::protocol::ZoomRequest;
use crate::server::Server;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;
use tgraph_core::graph::{EdgeRecord, TGraph, VertexRecord};
use tgraph_core::props::{Props, Value};
use tgraph_core::time::Interval;
use tgraph_dataflow::{fnv1a, EngineConfig};
use tgraph_repr::ReprKind;

/// Room for one record in a result body's buffer. WikiTalk's records are
/// 80-110 bytes, Skolem ids included; a body of longer records grows its
/// buffer by doubling. (Counting the bytes exactly first made a render
/// 10-20 % slower: it walks every property twice.)
const RECORD_BYTES: usize = 128;

/// Serializes a logical graph result deterministically: records sorted by
/// (id, interval), object fields in fixed order, properties in `Props`'s
/// sorted key order. Identical results → identical bytes, the invariant the
/// result cache's byte-identical replay relies on. The records are spelled
/// in the shape `parse_ingest_request` reads.
///
/// Each record is written straight into one buffer sized up front, with no
/// intermediate [`Json`] value: a result body is the largest thing the
/// server writes.
pub fn serialize_tgraph(g: &TGraph) -> String {
    let mut vertices: Vec<_> = g.vertices.iter().collect();
    vertices.sort_by_key(|v| (v.vid, v.interval));
    let mut edges: Vec<_> = g.edges.iter().collect();
    edges.sort_by_key(|e| (e.eid, e.interval));
    let records = g.vertices.len() + g.edges.len();
    let mut out = String::with_capacity(64 + RECORD_BYTES * records);
    // A `String` sink cannot fail.
    let _ = write_graph(&mut out, g.lifespan, &vertices, &edges);
    out
}

fn write_graph(
    out: &mut String,
    lifespan: Interval,
    vertices: &[&VertexRecord],
    edges: &[&EdgeRecord],
) -> fmt::Result {
    out.push_str("{\"lifespan\":");
    push_interval(out, lifespan);
    out.push_str(",\"vertices\":[");
    for (i, v) in vertices.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"id\":");
        push_int(out, v.vid.0 as i64);
        out.push_str(",\"interval\":");
        push_interval(out, v.interval);
        out.push_str(",\"props\":");
        write_props(out, &v.props)?;
        out.push('}');
    }
    out.push_str("],\"edges\":[");
    for (i, e) in edges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"id\":");
        push_int(out, e.eid.0 as i64);
        out.push_str(",\"src\":");
        push_int(out, e.src.0 as i64);
        out.push_str(",\"dst\":");
        push_int(out, e.dst.0 as i64);
        out.push_str(",\"interval\":");
        push_interval(out, e.interval);
        out.push_str(",\"props\":");
        write_props(out, &e.props)?;
        out.push('}');
    }
    out.push_str("]}");
    Ok(())
}

/// `n` in decimal, the text `write!(out, "{n}")` produces, two digits per
/// step and without a trip through `fmt`: ids and interval bounds are most
/// of a record.
fn push_int(out: &mut String, n: i64) {
    const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
        2021222324252627282930313233343536373839\
        4041424344454647484950515253545556575859\
        6061626364656667686970717273747576777879\
        8081828384858687888990919293949596979899";
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = n.unsigned_abs();
    while rest >= 100 {
        let pair = (rest % 100) as usize * 2;
        rest /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if rest >= 10 {
        let pair = rest as usize * 2;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        digits[at] = b'0' + rest as u8;
    }
    if n < 0 {
        out.push('-');
    }
    // ASCII digits only: the conversion cannot fail.
    out.push_str(std::str::from_utf8(&digits[at..]).unwrap_or_default());
}

fn push_interval(out: &mut String, i: Interval) {
    out.push('[');
    push_int(out, i.start);
    out.push(',');
    push_int(out, i.end);
    out.push(']');
}

fn write_props(out: &mut String, p: &Props) -> fmt::Result {
    out.push('{');
    for (i, (k, v)) in p.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(k, out)?;
        out.push(':');
        match v {
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => push_int(out, *n),
            Value::Float(f) => write_float(*f, out)?,
            Value::Str(s) => write_escaped(s, out)?,
        }
    }
    out.push('}');
    Ok(())
}

pub(crate) fn error_response(kind: &str, message: &str) -> String {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("kind", Json::str(kind)),
        ("error", Json::str(message)),
    ])
    .to_string()
}

/// One response line (without its newline), as the dispatch sink receives
/// it. A zoom response carries its result by reference, so a cache hit
/// reaches the socket without a copy of the result bytes.
pub(crate) enum Reply {
    /// The whole response.
    Text(String),
    /// A zoom response in three parts: `head` up to and including
    /// `"result":`, the result `body` exactly as the cache holds it, and a
    /// closing `}`.
    Zoom { head: String, body: Arc<str> },
}

impl Reply {
    /// The response as one text: what [`Server::handle_line`] returns.
    pub(crate) fn into_text(self) -> String {
        match self {
            Reply::Text(text) => text,
            Reply::Zoom { mut head, body } => {
                head.reserve(body.len() + 1);
                head.push_str(&body);
                head.push('}');
                head
            }
        }
    }
}

impl From<String> for Reply {
    fn from(text: String) -> Reply {
        Reply::Text(text)
    }
}

/// Composes a zoom response. `result` is ALWAYS the final field and its
/// bytes are spliced in verbatim, so clients (and the `serve_e2e` test) can
/// extract everything after `"result":` up to the closing brace and compare
/// replays byte-for-byte. The optional `optimizer` block (auto-choice /
/// EXPLAIN) is spliced immediately before it. `fingerprint` is the FNV-1a
/// of `epoch=N;` + the request's canonical text: equal for any two servers
/// answering the same request at the same dataset epoch.
pub(crate) fn zoom_response(
    cache: &str,
    total: Duration,
    exec: Duration,
    epoch: u64,
    canonical: &str,
    optimizer: Option<&Json>,
    result: Arc<str>,
) -> Reply {
    let named = format!("epoch={epoch};{canonical}");
    let mut head = Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("cache", Json::str(cache)),
        (
            "fingerprint",
            Json::str(format!("{:#018x}", fnv1a(named.as_bytes()))),
        ),
        ("total_us", Json::Int(total.as_micros() as i64)),
        ("exec_us", Json::Int(exec.as_micros() as i64)),
    ])
    .to_string();
    head.pop(); // strip the closing '}' to splice the trailing fields in
    if let Some(block) = optimizer {
        head.push_str(",\"optimizer\":");
        let _ = block.write(&mut head);
    }
    head.push_str(",\"result\":");
    Reply::Zoom { head, body: result }
}

/// Lowercase wire spelling of a representation (`Display` is uppercase;
/// the protocol accepts either but emits lowercase, matching requests).
fn repr_wire(kind: ReprKind) -> String {
    kind.to_string().to_ascii_lowercase()
}

/// The `"optimizer"` response block: present for `"repr":"auto"` requests
/// and for any request with `"explain":true`. Shows the requested vs
/// chosen representation and what decided the choice; under EXPLAIN the
/// candidate table rides along, each representation's observed mean run
/// time for this shape (null until the server has executed it cold).
pub(crate) fn optimizer_json(
    req: &ZoomRequest,
    was_auto: bool,
    decision: &Decision,
) -> Option<Json> {
    if !was_auto && !req.explain {
        return None;
    }
    let requested = if was_auto {
        "auto".to_string()
    } else {
        repr_wire(req.repr)
    };
    let mut fields = vec![
        ("requested", Json::str(requested)),
        ("chosen", Json::str(repr_wire(req.repr))),
        ("source", Json::str(decision.source.as_str())),
    ];
    if decision.chosen != req.repr {
        // The request pinned a representation the chooser would not pick
        // (only possible under EXPLAIN-on-explicit).
        fields.push(("would_choose", Json::str(repr_wire(decision.chosen))));
    }
    if req.explain {
        let row = |c: &CandidateRow| {
            Json::obj(vec![
                ("repr", Json::str(repr_wire(c.repr))),
                ("observed_us", c.observed_us.map_or(Json::Null, Json::Float)),
            ])
        };
        let rows = decision.candidates.iter().map(row).collect();
        fields.push(("candidates", Json::Arr(rows)));
    }
    Some(Json::obj(fields))
}

/// Best-effort rendering of a panic payload. Spill failures travel as typed
/// payloads through `panic_any`; surfacing "spill write failed" beats a bare
/// "execution panicked".
pub(crate) fn panic_detail(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(e) = panic.downcast_ref::<tgraph_dataflow::SpillError>() {
        e.to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "opaque payload; see server log".to_string()
    }
}

/// The runtime's data-movement, cancellation and spill counters.
fn runtime_json(server: &Server) -> Json {
    let rt = server.rt.stats();
    Json::Obj(counters(&[
        ("workers", server.rt.workers() as u64),
        ("partitions", server.rt.partitions() as u64),
        ("tasks", rt.tasks),
        ("waves", rt.waves),
        ("shuffles", rt.shuffles),
        ("shuffles_elided", rt.shuffles_elided),
        ("shuffled_records", rt.shuffled_records),
        ("shuffled_bytes", rt.shuffled_bytes),
        ("waves_cancelled", rt.waves_cancelled),
        ("tasks_cancelled", rt.tasks_cancelled),
        ("max_task_us", rt.max_task_us),
        ("wave_us", rt.wave_us),
        ("mem_budget", server.rt.mem_budget()),
        ("peak_bytes", rt.peak_bytes),
        ("bytes_spilled", rt.bytes_spilled),
        ("spill_files", rt.spill_files),
    ]))
}

/// What the three `TGRAPH_*` variables parsed to when the runtime was built.
fn config_json(config: &EngineConfig) -> Json {
    let spill_dir = config.spill_dir.to_string_lossy().into_owned();
    Json::obj(vec![
        ("checked", Json::Bool(config.checked)),
        ("mem_bytes", Json::Int(config.mem_bytes as i64)),
        ("spill_dir", Json::str(spill_dir)),
    ])
}

/// The `stats` response: every layer's counters, then the engine
/// configuration the process was started with.
pub(crate) fn stats_response(server: &Server) -> String {
    let uptime_ms = server.net.bound_at.elapsed().as_millis();
    let cache = server.cache.stats();
    let admission = server.admission.stats();
    let pool = server.pool.stats();
    let optimizer = server.chooser.stats();
    let object = |fields: &[(&str, u64)]| Json::Obj(counters(fields));
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("uptime_ms", Json::Int(uptime_ms as i64)),
        ("server", server.metrics.to_json()),
        (
            "cache",
            object(&[
                ("hits", cache.hits),
                ("misses", cache.misses),
                ("insertions", cache.insertions),
                ("evictions", cache.evictions),
                ("declined", cache.declined),
                ("bytes_used", cache.bytes_used),
                ("byte_budget", cache.byte_budget),
            ]),
        ),
        (
            "admission",
            object(&[
                ("admitted", admission.admitted),
                ("rejected_queue_full", admission.rejected_queue_full),
                ("rejected_deadline", admission.rejected_deadline),
                ("wait_us_total", admission.wait_us_total),
                ("release_underflows", admission.release_underflows),
                ("inflight", admission.inflight as u64),
                ("queue_depth", admission.queue_depth as u64),
                ("max_inflight", admission.max_inflight as u64),
                ("max_queue", admission.max_queue as u64),
            ]),
        ),
        (
            "pool",
            object(&[
                ("hits", pool.hits),
                ("misses", pool.misses),
                ("loads", pool.loads),
                ("epoch_upgrades", pool.epoch_upgrades),
            ]),
        ),
        (
            "optimizer",
            object(&[
                ("observed_pairs", optimizer.observed_pairs),
                ("observations", optimizer.observations),
            ]),
        ),
        ("runtime", runtime_json(server)),
        ("config", config_json(server.rt.config())),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph_core::graph::figure1_graph_stable_ids;

    #[test]
    fn serialization_is_deterministic_for_a_fixed_graph() {
        let g = figure1_graph_stable_ids();
        assert_eq!(serialize_tgraph(&g), serialize_tgraph(&g));
        assert!(serialize_tgraph(&g).starts_with("{\"lifespan\":["));
    }
}
