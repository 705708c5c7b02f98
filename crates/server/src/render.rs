//! Every byte the server writes: result graphs and zoom / error / stats
//! responses. Rendering is deterministic (fixed field order, sorted records
//! and property keys), because byte-identical replay is what the result
//! cache and the patch path both compare.

use crate::chooser::{CandidateRow, Decision};
use crate::json::{counters, write_escaped, write_float, Json, Parser};
use crate::protocol::ZoomRequest;
use crate::server::Server;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;
use tgraph_core::graph::{EdgeId, EdgeRecord, TGraph, VertexId, VertexRecord};
use tgraph_core::props::{Key, Props, Value};
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

/// Reads a result body back into its graph: the inverse of
/// [`serialize_tgraph`], returning the graph in its coalesced normal form
/// (`TGraph::into_coalesced`), which is what every zoom result already is.
///
/// It reads only the writer's own layout: fixed field order, no
/// whitespace, property keys strictly ascending. Anything else — a `null`
/// where the writer had a non-finite float, a truncated body, trailing
/// bytes — is `None`. Strings and numbers go through the JSON parser's own
/// scanning. Every distinct label is allocated once per read, and a record
/// whose property text repeats the previous record's shares its property
/// set.
pub fn read_tgraph(body: &str) -> Option<TGraph> {
    let mut r = BodyReader {
        p: Parser::new(body),
        labels: HashSet::new(),
        recent: Vec::new(),
        pairs: Vec::new(),
        last: None,
    };
    r.token("{\"lifespan\":")?;
    let lifespan = r.interval()?;
    r.token(",\"vertices\":")?;
    let vertices = r.list(|r| {
        r.token("{\"id\":")?;
        let vid = VertexId(r.int()? as u64);
        r.token(",\"interval\":")?;
        let interval = r.interval()?;
        r.token(",\"props\":")?;
        let props = r.props()?;
        r.token("}")?;
        Some(VertexRecord {
            vid,
            interval,
            props,
        })
    })?;
    r.token(",\"edges\":")?;
    let edges = r.list(|r| {
        r.token("{\"id\":")?;
        let eid = EdgeId(r.int()? as u64);
        r.token(",\"src\":")?;
        let src = VertexId(r.int()? as u64);
        r.token(",\"dst\":")?;
        let dst = VertexId(r.int()? as u64);
        r.token(",\"interval\":")?;
        let interval = r.interval()?;
        r.token(",\"props\":")?;
        let props = r.props()?;
        r.token("}")?;
        Some(EdgeRecord {
            eid,
            src,
            dst,
            interval,
            props,
        })
    })?;
    r.token("}")?;
    r.p.at_end().then_some(())?;
    let graph = TGraph {
        lifespan,
        vertices,
        edges,
    };
    Some(graph.into_coalesced())
}

/// [`read_tgraph`]'s cursor and what it shares between records.
struct BodyReader<'a> {
    p: Parser<'a>,
    /// Every distinct label read so far.
    labels: HashSet<Key>,
    /// The labels of the last property set read, by position: the next
    /// set most often has the same ones.
    recent: Vec<Key>,
    /// The pairs of the property set being read.
    pairs: Vec<(Key, Value)>,
    /// The text of the last property set read, and the set.
    last: Option<(&'a str, Props)>,
}

impl<'a> BodyReader<'a> {
    fn token(&mut self, token: &str) -> Option<()> {
        self.p.token(token).then_some(())
    }

    /// After an item of a list that `close` ends: `true` past a `,`,
    /// `false` past `close`.
    fn more(&mut self, close: &str) -> Option<bool> {
        if self.p.token(",") {
            Some(true)
        } else {
            self.token(close).map(|()| false)
        }
    }

    /// A JSON array of what `item` reads.
    fn list<T>(&mut self, item: impl Fn(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        self.token("[")?;
        let mut items = Vec::new();
        if self.p.token("]") {
            return Some(items);
        }
        loop {
            items.push(item(self)?);
            if !self.more("]")? {
                return Some(items);
            }
        }
    }

    fn int(&mut self) -> Option<i64> {
        match self.p.number().ok()? {
            Json::Int(n) => Some(n),
            _ => None,
        }
    }

    fn interval(&mut self) -> Option<Interval> {
        self.token("[")?;
        let start = self.int()?;
        self.token(",")?;
        let end = self.int()?;
        self.token("]")?;
        (start <= end).then(|| Interval::new(start, end))
    }

    /// The label at position `at` of a property set, shared with every
    /// earlier one of the same text.
    fn label(&mut self, at: usize) -> Option<Key> {
        let text = self.p.string().ok()?;
        if let Some(label) = self.recent.get(at).filter(|l| ***l == *text) {
            return Some(Arc::clone(label));
        }
        let label = match self.labels.get(text.as_ref()) {
            Some(label) => Arc::clone(label),
            None => {
                let label: Key = text.into();
                self.labels.insert(Arc::clone(&label));
                label
            }
        };
        self.recent.truncate(at);
        self.recent.push(Arc::clone(&label));
        Some(label)
    }

    fn props(&mut self) -> Option<Props> {
        let rest = self.p.rest();
        // An object's text ends at its own closing brace, so text that
        // starts with the last set's whole text is that set again.
        if let Some((text, props)) = &self.last {
            if rest.starts_with(text) {
                let props = props.clone();
                self.p.advance(text.len());
                return Some(props);
            }
        }
        self.token("{")?;
        if !self.p.token("}") {
            loop {
                let key = self.label(self.pairs.len())?;
                self.token(":")?;
                let value = self.value()?;
                self.pairs.push((key, value));
                if !self.more("}")? {
                    break;
                }
            }
        }
        let props = Props::from_sorted(self.pairs.drain(..))?;
        let len = rest.len() - self.p.rest().len();
        self.last = Some((rest.get(..len)?, props.clone()));
        Some(props)
    }

    fn value(&mut self) -> Option<Value> {
        match self.p.peek()? {
            b'"' => self.p.string().ok().map(|text| Value::Str(text.into())),
            b't' => self.token("true").map(|()| Value::Bool(true)),
            b'f' => self.token("false").map(|()| Value::Bool(false)),
            _ => match self.p.number().ok()? {
                Json::Int(n) => Some(Value::Int(n)),
                Json::Float(f) => Some(Value::Float(f)),
                _ => None,
            },
        }
    }
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
                ("resident", cache.resident),
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
    use proptest::prelude::*;
    use tgraph_core::graph::figure1_graph_stable_ids;

    #[test]
    fn serialization_is_deterministic_for_a_fixed_graph() {
        let g = figure1_graph_stable_ids();
        assert_eq!(serialize_tgraph(&g), serialize_tgraph(&g));
        assert!(serialize_tgraph(&g).starts_with("{\"lifespan\":["));
    }

    /// Text a label or string value is built from: every control byte, the
    /// two characters JSON escapes in place, and multi-byte UTF-8.
    fn text_piece(i: usize) -> String {
        const PIECES: [&str; 8] = ["\"", "\\", "a", "type", "\u{7f}", "é", "中", "😀"];
        match u8::try_from(i) {
            Ok(b) if b < 0x20 => char::from(b).to_string(),
            _ => PIECES[(i - 0x20) % PIECES.len()].to_string(),
        }
    }

    /// Every finite float the writer must spell so it reads back bit for
    /// bit; the non-finite ones are written `null` and do not.
    const FLOATS: [f64; 7] = [-0.0, 0.0, 5e-324, 1e300, 3.0, 0.1, -2.5];
    const INTS: [i64; 5] = [i64::MIN, i64::MAX, 0, -1, 7];
    /// Ids drawn from a pool small enough to repeat, above `i64::MAX` too.
    const IDS: [u64; 4] = [0, 1, u64::MAX, 1 << 63];

    fn arb_props() -> impl Strategy<Value = Props> {
        let text = prop::collection::vec(0usize..0x28, 0..5)
            .prop_map(|pieces| pieces.into_iter().map(text_piece).collect::<String>());
        let value = (0u8..4, 0usize..7, text.clone()).prop_map(|(kind, i, text)| match kind {
            0 => Value::Bool(i % 2 == 0),
            1 => Value::Int(INTS[i % INTS.len()]),
            2 => Value::Float(FLOATS[i]),
            _ => Value::from(text),
        });
        prop::collection::vec((text, value), 0..4).prop_map(|pairs| {
            pairs
                .into_iter()
                .fold(Props::new(), |p, (k, v)| p.with(k, v))
        })
    }

    /// Records with hostile properties and ids, not coalesced: the same
    /// entity may repeat with equal props over meeting intervals, and one
    /// edge id may sit on several endpoint pairs.
    fn arb_graph() -> impl Strategy<Value = TGraph> {
        let interval =
            (-3i64..3, 0i64..3).prop_map(|(start, len)| Interval::new(start, start + len));
        let vertex = (0usize..4, interval.clone(), arb_props())
            .prop_map(|(id, i, props)| VertexRecord::new(IDS[id], i, props));
        let edge = (0usize..4, 0usize..4, 0usize..4, interval, arb_props()).prop_map(
            |(id, src, dst, i, props)| EdgeRecord::new(IDS[id], IDS[src], IDS[dst], i, props),
        );
        (
            prop::collection::vec(vertex, 0..6),
            prop::collection::vec(edge, 0..6),
        )
            .prop_map(|(vertices, edges)| TGraph::from_records(vertices, edges))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The reader inverts the writer: a body reads back to the
        /// coalesced normal form of the graph it was written from.
        #[test]
        fn a_body_reads_back_to_its_graphs_coalesced_normal_form(g in arb_graph()) {
            let body = serialize_tgraph(&g);
            prop_assert_eq!(read_tgraph(&body), Some(g.clone().into_coalesced()));
        }
    }

    #[test]
    fn fixed_edge_cases_read_back() {
        let every_piece: String = (0..0x28).map(text_piece).collect();
        let hostile = FLOATS
            .iter()
            .enumerate()
            .fold(Props::typed("node"), |p, (i, f)| {
                p.with(format!("f{i}"), *f)
            })
            .with(every_piece.as_str(), every_piece.as_str())
            .with("min", i64::MIN)
            .with("max", i64::MAX)
            .with("yes", true);
        let g = TGraph::from_records(
            vec![
                VertexRecord::new(u64::MAX, Interval::new(1, 4), hostile.clone()),
                VertexRecord::new(1 << 63, Interval::new(0, 2), Props::typed("node")),
            ],
            // One edge id on two endpoint pairs, in the order the writer
            // puts them (by interval) and not the normal form's (by pair).
            vec![
                EdgeRecord::new(5, 1 << 63, 1 << 63, Interval::new(0, 1), hostile),
                EdgeRecord::new(5, 1, 1, Interval::new(2, 3), Props::typed("e")),
            ],
        );
        for g in [TGraph::new(), figure1_graph_stable_ids(), g] {
            let back = read_tgraph(&serialize_tgraph(&g));
            assert_eq!(back, Some(g.clone().into_coalesced()));
            let back = back.unwrap_or_default();
            assert_eq!(serialize_tgraph(&back), serialize_tgraph(&g));
        }
    }

    /// What the writer did not write reads as `None`, never as a graph.
    #[test]
    fn anything_else_reads_as_none() {
        let nan = TGraph::from_records(
            vec![VertexRecord::new(
                1,
                Interval::new(0, 1),
                Props::typed("x").with("f", f64::NAN),
            )],
            vec![],
        );
        let body = serialize_tgraph(&nan);
        assert!(body.contains("\"f\":null"), "{body}");
        assert_eq!(read_tgraph(&body), None, "a non-finite float");

        let body = serialize_tgraph(&figure1_graph_stable_ids());
        for cut in [0, 1, body.len() / 2, body.len() - 1] {
            assert_eq!(read_tgraph(&body[..cut]), None, "truncated at {cut}");
        }
        for tail in [" ", "\n", "}", ",{}"] {
            assert_eq!(read_tgraph(&format!("{body}{tail}")), None, "{tail:?}");
        }
        let other = [
            // Whitespace, a field out of order, a float id, an interval
            // that ends before it starts, keys out of order or repeated.
            r#"{ "lifespan":[0,0],"vertices":[],"edges":[]}"#,
            r#"{"vertices":[],"lifespan":[0,0],"edges":[]}"#,
            r#"{"lifespan":[0,9],"vertices":[{"id":1.0,"interval":[0,1],"props":{}}],"edges":[]}"#,
            r#"{"lifespan":[0,9],"vertices":[{"id":1,"interval":[2,1],"props":{}}],"edges":[]}"#,
            r#"{"lifespan":[0,9],"vertices":[{"id":1,"interval":[0,1],"props":{"b":1,"a":2}}],"edges":[]}"#,
            r#"{"lifespan":[0,9],"vertices":[{"id":1,"interval":[0,1],"props":{"a":1,"a":2}}],"edges":[]}"#,
            r#"{"lifespan":[0,9],"vertices":[],"edges":[{"id":1,"dst":2,"src":3,"interval":[0,1],"props":{}}]}"#,
        ];
        for body in other {
            assert_eq!(read_tgraph(body), None, "{body}");
        }
        let empty = r#"{"lifespan":[0,0],"vertices":[],"edges":[]}"#;
        assert_eq!(read_tgraph(empty), Some(TGraph::new()));
    }

    /// Equal labels share one allocation, whether or not the sets they
    /// sit in are neighbours or hold them at the same position, and a
    /// record that repeats the previous record's property text shares its
    /// set.
    #[test]
    fn a_read_allocates_each_distinct_label_once() {
        let person = |school: &str| Props::typed("person").with("school", school);
        let g = TGraph::from_records(
            (0..4)
                .map(|i| VertexRecord::new(i, Interval::new(0, 1), person("MIT")))
                .chain([
                    VertexRecord::new(8, Interval::new(0, 1), Props::typed("x")),
                    VertexRecord::new(9, Interval::new(0, 1), person("ETH")),
                ])
                .collect(),
            vec![],
        );
        let back = read_tgraph(&serialize_tgraph(&g)).unwrap_or_default();
        let keys = |p: &Props| p.iter().map(|(k, _)| k.clone()).collect::<Vec<Key>>();
        let (first, last) = (keys(&back.vertices[0].props), keys(&back.vertices[5].props));
        assert_eq!(first.len(), 2);
        for (a, b) in first.iter().zip(&last) {
            assert!(Arc::ptr_eq(a, b), "label {a} allocated twice");
        }
        let lone = keys(&back.vertices[4].props);
        assert!(
            Arc::ptr_eq(&lone[0], &first[1]),
            "`type` at another position"
        );
        // Two sets share one allocation when their first pairs do.
        let first_pair = |v: &VertexRecord| v.props.iter().next().map(|(k, _)| k as *const Key);
        let shared = first_pair(&back.vertices[0]);
        assert!(back.vertices[1..4].iter().all(|v| first_pair(v) == shared));
        assert_ne!(first_pair(&back.vertices[5]), shared);
    }
}
