//! The serving protocol: newline-delimited JSON requests and the mapping
//! from wire shape to a [`tgraph_query::Pipeline`] — the value the server
//! executes, the representation chooser checks and the maintenance planner
//! reads; there is no protocol-side step type.
//!
//! One request per line; one JSON response per line. Request kinds:
//!
//! * `{"op":"ping"}` — liveness probe.
//! * `{"op":"stats"}` — counters, histograms, runtime accounting.
//! * `{"op":"shutdown"}` — stop accepting and exit the serve loop.
//! * `{"op":"zoom", ...}` — the workhorse; see [`ZoomRequest`]:
//!
//! ```json
//! {"op":"zoom","graph":"demo","repr":"ve","range":[0,24],"deadline_ms":500,
//!  "steps":[
//!    {"azoom":{"by":"school","new_type":"school",
//!              "aggs":[{"output":"students","fn":"count"}]}},
//!    {"switch":"og"},
//!    {"wzoom":{"window":{"points":3},"vq":"exists","eq":"all",
//!              "resolve_v":"last","overrides_v":[["school","last"]]}}]}
//! ```
//!
//! Parsing **normalizes**: two requests that differ only in field order,
//! whitespace, or defaulted fields produce the same [`ZoomRequest`] and
//! therefore the same [`ZoomRequest::canonical`] string — which, prefixed
//! with the dataset epoch, is the result-cache key.

use crate::json::Json;
use std::fmt::Write as _;
use tgraph_core::graph::{EdgeId, EdgeRecord, VertexId, VertexRecord};
use tgraph_core::props::{Props, Value};
use tgraph_core::time::{Interval, Time};
use tgraph_core::zoom::azoom::{AZoomSpec, AggFn, AggSpec, Skolem};
use tgraph_core::zoom::wzoom::{Quantifier, ResolveFn, WZoomSpec, WindowSpec};
use tgraph_query::{Pipeline, Step};
use tgraph_repr::ReprKind;

/// A parsed request line.
#[derive(Clone, Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Server statistics.
    Stats,
    /// Graceful shutdown.
    Shutdown,
    /// A zoom query.
    Zoom(Box<ZoomRequest>),
    /// A live-ingest step: append a snapshot delta as a new epoch.
    Ingest(Box<IngestRequest>),
}

/// A fully validated zoom query.
#[derive(Clone, Debug)]
pub struct ZoomRequest {
    /// Dataset name under the server's data directory.
    pub graph: String,
    /// Initial physical representation. When [`ZoomRequest::auto_repr`] is
    /// set this is a placeholder until the chooser resolves it.
    pub repr: ReprKind,
    /// The request omitted `repr` or said `"repr":"auto"`: the server's
    /// representation chooser picks the representation.
    pub auto_repr: bool,
    /// Optional date-range filter pushed into the load.
    pub range: Option<Interval>,
    /// The zoom chain, applied in order.
    pub pipeline: Pipeline,
    /// Per-request deadline in milliseconds (admission wait + execution).
    pub deadline_ms: Option<u64>,
    /// Bypass the result cache (for load-test cold runs).
    pub no_cache: bool,
    /// Include the chooser's candidate table (each candidate's observed
    /// run time, and what auto would choose) in the response.
    pub explain: bool,
}

/// A parsed ingest request: the facts of one epoch append.
///
/// ```json
/// {"op":"ingest","graph":"demo","since":8,
///  "vertices":[{"id":1,"interval":[8,14],"props":{"type":"person","school":"MIT"}}],
///  "edges":[{"id":1,"src":1,"dst":2,"interval":[8,11],"props":{"type":"knows"}}]}
/// ```
///
/// `since` is optional: when present it must equal the dataset's current
/// lifespan end (a compare-and-swap guard against ingesting off a stale view
/// of history); when absent the server resolves it. Fact-level validation
/// (intervals, boundary, conflicts) happens in `tgraph_ingest::SnapshotDelta`
/// after parsing, so malformed deltas surface typed errors, not panics.
#[derive(Clone, Debug)]
pub struct IngestRequest {
    /// Dataset name under the server's data directory.
    pub graph: String,
    /// Expected current lifespan end (optional optimistic-concurrency guard).
    pub since: Option<Time>,
    /// New vertex facts.
    pub vertices: Vec<VertexRecord>,
    /// New edge facts.
    pub edges: Vec<EdgeRecord>,
}

/// A protocol-level rejection: the request never reached execution.
#[derive(Clone, Debug, PartialEq)]
pub struct BadRequest(pub String);

impl std::fmt::Display for BadRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BadRequest {}

fn bad(msg: impl Into<String>) -> BadRequest {
    BadRequest(msg.into())
}

/// `v[field]` read by `read`, with an absent field or an explicit `null`
/// as `None`; a field that is present but unreadable is `expected`'s error.
fn optional<'a, T>(
    v: &'a Json,
    field: &str,
    read: impl Fn(&'a Json) -> Option<T>,
    expected: &str,
) -> Result<Option<T>, BadRequest> {
    v.get(field)
        .filter(|given| **given != Json::Null)
        .map(|given| read(given).ok_or_else(|| bad(expected)))
        .transpose()
}

fn parse_repr(s: &str) -> Result<ReprKind, BadRequest> {
    s.parse().map_err(BadRequest)
}

fn parse_quantifier(v: &Json) -> Result<Quantifier, BadRequest> {
    if let Some(s) = v.as_str() {
        return match s {
            "all" => Ok(Quantifier::All),
            "most" => Ok(Quantifier::Most),
            "exists" => Ok(Quantifier::Exists),
            other => Err(bad(format!(
                "unknown quantifier '{other}' (expected all|most|exists|{{\"at_least\":r}})"
            ))),
        };
    }
    if let Some(r) = v.get("at_least").and_then(Json::as_f64) {
        if !(0.0..=1.0).contains(&r) {
            return Err(bad(format!("at_least fraction {r} outside [0, 1]")));
        }
        return Ok(Quantifier::AtLeast(r));
    }
    Err(bad("quantifier must be a string or {\"at_least\": r}"))
}

fn parse_resolve(s: &str) -> Result<ResolveFn, BadRequest> {
    match s {
        "first" => Ok(ResolveFn::First),
        "last" => Ok(ResolveFn::Last),
        "any" => Ok(ResolveFn::Any),
        other => Err(bad(format!(
            "unknown resolve fn '{other}' (expected first|last|any)"
        ))),
    }
}

fn parse_agg(v: &Json) -> Result<AggSpec, BadRequest> {
    let output = v
        .get("output")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("agg needs string field 'output'"))?;
    let f = v
        .get("fn")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("agg needs string field 'fn'"))?;
    let key = || -> Result<&str, BadRequest> {
        v.get("key")
            .and_then(Json::as_str)
            .ok_or_else(|| bad(format!("agg fn '{f}' needs string field 'key'")))
    };
    let agg = match f {
        "count" => AggFn::Count,
        "sum" => AggFn::Sum(key()?.into()),
        "min" => AggFn::Min(key()?.into()),
        "max" => AggFn::Max(key()?.into()),
        "avg" => AggFn::Avg(key()?.into()),
        "any" => AggFn::Any(key()?.into()),
        other => Err(bad(format!(
            "unknown agg fn '{other}' (expected count|sum|min|max|avg|any)"
        )))?,
    };
    Ok(AggSpec::new(output, agg))
}

fn parse_azoom(v: &Json) -> Result<AZoomSpec, BadRequest> {
    let new_type = v.get("new_type").and_then(Json::as_str).unwrap_or("group");
    let aggs = match v.get("aggs") {
        None => Vec::new(),
        Some(a) => a
            .as_arr()
            .ok_or_else(|| bad("'aggs' must be an array"))?
            .iter()
            .map(parse_agg)
            .collect::<Result<Vec<_>, _>>()?,
    };
    let skolem = if let Some(key) = v.get("by").and_then(Json::as_str) {
        Skolem::by_property(key)
    } else if let Some(keys) = v.get("by_properties").and_then(Json::as_arr) {
        let keys = keys
            .iter()
            .map(|k| {
                k.as_str()
                    .map(std::sync::Arc::from)
                    .ok_or_else(|| bad("'by_properties' entries must be strings"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if keys.is_empty() {
            return Err(bad("'by_properties' must not be empty"));
        }
        Skolem::ByProperties(keys)
    } else if v.get("by_type").and_then(Json::as_bool) == Some(true) {
        Skolem::ByType
    } else {
        return Err(bad(
            "azoom needs 'by' (property), 'by_properties' (array), or 'by_type': true",
        ));
    };
    Ok(AZoomSpec {
        skolem,
        new_type: new_type.into(),
        aggs: aggs.into(),
    })
}

fn parse_wzoom(v: &Json) -> Result<WZoomSpec, BadRequest> {
    let window = v.get("window").ok_or_else(|| bad("wzoom needs 'window'"))?;
    let window = if let Some(n) = window.get("points").and_then(Json::as_i64) {
        if n <= 0 {
            return Err(bad("window points must be positive"));
        }
        WindowSpec::Points(n as u64)
    } else if let Some(n) = window.get("changes").and_then(Json::as_i64) {
        if n <= 0 {
            return Err(bad("window changes must be positive"));
        }
        WindowSpec::Changes(n as u64)
    } else {
        return Err(bad("'window' must be {\"points\": n} or {\"changes\": n}"));
    };
    let vq = match v.get("vq") {
        Some(q) => parse_quantifier(q)?,
        None => Quantifier::Exists,
    };
    let eq = match v.get("eq") {
        Some(q) => parse_quantifier(q)?,
        None => Quantifier::Exists,
    };
    let mut spec = WZoomSpec::points(1, vq, eq);
    spec.window = window;
    if let Some(s) = v.get("resolve_v").and_then(Json::as_str) {
        spec.vertex_resolve = parse_resolve(s)?;
    }
    if let Some(s) = v.get("resolve_e").and_then(Json::as_str) {
        spec.edge_resolve = parse_resolve(s)?;
    }
    let overrides = |field: &str| -> Result<Vec<(std::sync::Arc<str>, ResolveFn)>, BadRequest> {
        match v.get(field) {
            None => Ok(Vec::new()),
            Some(list) => {
                list.as_arr()
                    .ok_or_else(|| bad(format!("'{field}' must be an array of [key, fn] pairs")))?
                    .iter()
                    .map(|pair| {
                        let pair = pair.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                            bad(format!("'{field}' entries must be [key, fn] pairs"))
                        })?;
                        let key = pair[0]
                            .as_str()
                            .ok_or_else(|| bad("override key must be a string"))?;
                        let f = pair[1]
                            .as_str()
                            .ok_or_else(|| bad("override fn must be a string"))?;
                        Ok((std::sync::Arc::from(key), parse_resolve(f)?))
                    })
                    .collect()
            }
        }
    };
    spec.vertex_overrides = overrides("overrides_v")?;
    spec.edge_overrides = overrides("overrides_e")?;
    Ok(spec)
}

fn parse_graph_name(v: &Json) -> Result<String, BadRequest> {
    let graph = v
        .get("graph")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("request needs string field 'graph'"))?
        .to_string();
    if graph.is_empty()
        || !graph
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Err(bad("graph name must be non-empty [A-Za-z0-9_-]"));
    }
    Ok(graph)
}

fn parse_props(v: Option<&Json>) -> Result<Props, BadRequest> {
    let Some(v) = v else {
        return Ok(Props::new());
    };
    let obj = v.as_obj().ok_or_else(|| bad("'props' must be an object"))?;
    let pairs = obj.iter().map(|(k, val)| {
        let value = match val {
            Json::Bool(b) => Value::Bool(*b),
            Json::Int(i) => Value::Int(*i),
            Json::Float(f) => Value::Float(*f),
            Json::Str(s) => Value::from(s.as_str()),
            _ => return Err(bad(format!("prop '{k}' must be a bool, number, or string"))),
        };
        Ok((k.as_str(), value))
    });
    // One sort for the whole set; a key given twice keeps its last value.
    Ok(Props::from_pairs(pairs.collect::<Result<Vec<_>, _>>()?))
}

/// Parses a fact interval `[start, end]`. Degenerate intervals pass here and
/// are rejected downstream as typed `DeltaError`s, keeping one rejection
/// path for everything fact-level.
fn parse_fact_interval(v: &Json) -> Result<Interval, BadRequest> {
    let arr = v
        .as_arr()
        .filter(|a| a.len() == 2)
        .ok_or_else(|| bad("'interval' must be [start, end]"))?;
    let start = arr[0]
        .as_i64()
        .ok_or_else(|| bad("interval start must be an integer"))?;
    let end = arr[1]
        .as_i64()
        .ok_or_else(|| bad("interval end must be an integer"))?;
    Ok(Interval::new(start, end))
}

fn parse_ingest_request(v: &Json) -> Result<IngestRequest, BadRequest> {
    let graph = parse_graph_name(v)?;
    let since = optional(v, "since", Json::as_i64, "'since' must be an integer")?;
    let id_of = |rec: &Json, what: &str| -> Result<u64, BadRequest> {
        rec.get(what)
            .and_then(Json::as_u64)
            .ok_or_else(|| bad(format!("fact needs non-negative integer field '{what}'")))
    };
    let records = |field: &str| -> Result<Vec<&Json>, BadRequest> {
        match v.get(field) {
            None => Ok(Vec::new()),
            Some(list) => Ok(list
                .as_arr()
                .ok_or_else(|| bad(format!("'{field}' must be an array")))?
                .iter()
                .collect()),
        }
    };
    let vertices = records("vertices")?
        .into_iter()
        .map(|rec| {
            Ok(VertexRecord {
                vid: VertexId(id_of(rec, "id")?),
                interval: parse_fact_interval(
                    rec.get("interval")
                        .ok_or_else(|| bad("vertex fact needs 'interval'"))?,
                )?,
                props: parse_props(rec.get("props"))?,
            })
        })
        .collect::<Result<Vec<_>, BadRequest>>()?;
    let edges = records("edges")?
        .into_iter()
        .map(|rec| {
            Ok(EdgeRecord {
                eid: EdgeId(id_of(rec, "id")?),
                src: VertexId(id_of(rec, "src")?),
                dst: VertexId(id_of(rec, "dst")?),
                interval: parse_fact_interval(
                    rec.get("interval")
                        .ok_or_else(|| bad("edge fact needs 'interval'"))?,
                )?,
                props: parse_props(rec.get("props"))?,
            })
        })
        .collect::<Result<Vec<_>, BadRequest>>()?;
    Ok(IngestRequest {
        graph,
        since,
        vertices,
        edges,
    })
}

fn parse_step(v: &Json) -> Result<Step, BadRequest> {
    if let Some(a) = v.get("azoom") {
        return Ok(Step::AZoom(parse_azoom(a)?));
    }
    if let Some(w) = v.get("wzoom") {
        return Ok(Step::WZoom(parse_wzoom(w)?));
    }
    if let Some(s) = v.get("switch") {
        let s = s
            .as_str()
            .ok_or_else(|| bad("'switch' must be a repr string"))?;
        return Ok(Step::Switch(parse_repr(s)?));
    }
    Err(bad("step must contain 'azoom', 'wzoom', or 'switch'"))
}

/// Parses and validates one request line.
pub fn parse_request(line: &str) -> Result<Request, BadRequest> {
    let v = crate::json::parse(line).map_err(|e| bad(format!("invalid json: {e}")))?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("request needs string field 'op'"))?;
    match op {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "zoom" => Ok(Request::Zoom(Box::new(parse_zoom_request(&v)?))),
        "ingest" => Ok(Request::Ingest(Box::new(parse_ingest_request(&v)?))),
        other => Err(bad(format!(
            "unknown op '{other}' (expected ping|stats|shutdown|zoom|ingest)"
        ))),
    }
}

fn parse_zoom_request(v: &Json) -> Result<ZoomRequest, BadRequest> {
    let graph = parse_graph_name(v)?;
    // `repr` omitted or "auto" delegates the choice to the chooser. The
    // placeholder is VE (supports every step), so static validation below
    // still catches switch-introduced violations.
    let repr = optional(
        v,
        "repr",
        Json::as_str,
        "'repr' must be a string (rg|ve|og|ogc|auto)",
    )?;
    let (repr, auto_repr) = match repr {
        Some(s) if !s.eq_ignore_ascii_case("auto") => (parse_repr(s)?, false),
        _ => (ReprKind::Ve, true),
    };
    let range = match v.get("range") {
        None | Some(Json::Null) => None,
        Some(r) => {
            let r = r
                .as_arr()
                .filter(|r| r.len() == 2)
                .ok_or_else(|| bad("'range' must be [start, end]"))?;
            let (start, end) = (
                r[0].as_i64()
                    .ok_or_else(|| bad("range start must be an integer"))?,
                r[1].as_i64()
                    .ok_or_else(|| bad("range end must be an integer"))?,
            );
            if start > end {
                return Err(bad(format!("range start {start} exceeds end {end}")));
            }
            Some(Interval::new(start, end))
        }
    };
    let mut pipeline = Pipeline::new();
    if let Some(steps) = v.get("steps") {
        for step in steps
            .as_arr()
            .ok_or_else(|| bad("'steps' must be an array"))?
        {
            pipeline.push(parse_step(step)?);
        }
    }
    let deadline_ms = optional(
        v,
        "deadline_ms",
        Json::as_u64,
        "'deadline_ms' must be a non-negative integer",
    )?;
    let no_cache = v.get("no_cache").and_then(Json::as_bool).unwrap_or(false);
    let explain = v.get("explain").and_then(Json::as_bool).unwrap_or(false);
    let req = ZoomRequest {
        graph,
        repr,
        auto_repr,
        range,
        pipeline,
        deadline_ms,
        no_cache,
        explain,
    };
    req.validate()?;
    Ok(req)
}

impl ZoomRequest {
    /// Static validation that needs no data: rejects an `azoom` that would
    /// run on OGC (it stores no attributes, §3.1), switches tracked, *before*
    /// admission, so invalid plans never consume pool slots.
    pub fn validate(&self) -> Result<(), BadRequest> {
        match self.pipeline.first_unsupported(self.repr) {
            Some((i, kind)) => Err(bad(format!(
                "step {i}: azoom unsupported on {kind} (no attributes stored)"
            ))),
            None => Ok(()),
        }
    }

    /// A canonical, whitespace-free description of the query — identical for
    /// any two wire requests that parse to the same query. Prefixed with the
    /// dataset epoch it is the result-cache key; on its own it keys the
    /// maintenance seeds, which outlive an epoch.
    ///
    /// Deliberately excludes `deadline_ms` and `no_cache`: they affect
    /// scheduling, not the result.
    pub fn canonical(&self) -> String {
        self.describe(Some(self.repr))
    }

    /// The representation-independent shape of the query: what
    /// [`ZoomRequest::canonical`] says minus the representation. Observed
    /// run times are keyed by shape, so an `"auto"` request and an explicit
    /// request with the identical pipeline feed (and read) the same
    /// adaptation rows.
    pub fn shape(&self) -> String {
        self.describe(None)
    }

    /// The graph name needs no quoting: [`parse_graph_name`] admits only
    /// `[A-Za-z0-9_-]`. Everything else a client typed is in the pipeline
    /// text, which quotes it.
    fn describe(&self, repr: Option<ReprKind>) -> String {
        let mut s = format!("graph={}", self.graph);
        if let Some(repr) = repr {
            let _ = write!(s, ";repr={repr}");
        }
        if let Some(r) = self.range {
            let _ = write!(s, ";range=[{},{})", r.start, r.end);
        }
        if !self.pipeline.steps().is_empty() {
            s.push(';');
            s.push_str(&self.pipeline.canonical());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"{"op":"zoom","graph":"demo","repr":"ve","range":[0,24],
        "deadline_ms":500,
        "steps":[
          {"azoom":{"by":"school","new_type":"school",
                    "aggs":[{"output":"students","fn":"count"},
                            {"output":"m","fn":"max","key":"editCount"}]}},
          {"switch":"og"},
          {"wzoom":{"window":{"points":3},"vq":{"at_least":0.5},"eq":"all",
                    "resolve_v":"last","overrides_v":[["school","first"]]}}]}"#;

    #[test]
    fn parses_the_full_zoom_shape() {
        let req = match parse_request(FULL).unwrap() {
            Request::Zoom(z) => z,
            other => panic!("expected zoom, got {other:?}"),
        };
        assert_eq!(req.graph, "demo");
        assert_eq!(req.repr, ReprKind::Ve);
        assert_eq!(req.range, Some(Interval::new(0, 24)));
        assert_eq!(req.deadline_ms, Some(500));
        assert_eq!(req.pipeline.steps().len(), 3);
        match &req.pipeline.steps()[2] {
            Step::WZoom(w) => {
                assert_eq!(w.window, WindowSpec::Points(3));
                assert_eq!(w.vertex_quantifier, Quantifier::AtLeast(0.5));
                assert_eq!(w.edge_quantifier, Quantifier::All);
                assert_eq!(w.vertex_resolve, ResolveFn::Last);
                assert_eq!(w.vertex_overrides.len(), 1);
            }
            other => panic!("expected wzoom, got {other:?}"),
        }
    }

    #[test]
    fn canonical_ignores_field_order_and_scheduling_fields() {
        let a = match parse_request(FULL).unwrap() {
            Request::Zoom(z) => z.canonical(),
            _ => unreachable!(),
        };
        // Same query: fields shuffled, different deadline, no_cache set.
        let reordered = r#"{"steps":[
              {"azoom":{"new_type":"school","by":"school",
                        "aggs":[{"fn":"count","output":"students"},
                                {"key":"editCount","output":"m","fn":"max"}]}},
              {"switch":"og"},
              {"wzoom":{"overrides_v":[["school","first"]],"eq":"all",
                        "vq":{"at_least":0.5},"resolve_v":"last",
                        "window":{"points":3}}}],
            "no_cache":true,"repr":"ve","deadline_ms":9,"graph":"demo",
            "range":[0,24],"op":"zoom"}"#;
        let b = match parse_request(reordered).unwrap() {
            Request::Zoom(z) => z.canonical(),
            _ => unreachable!(),
        };
        assert_eq!(a, b);
        // A genuinely different query diverges.
        let different = FULL.replace("\"points\":3", "\"points\":4");
        let c = match parse_request(&different).unwrap() {
            Request::Zoom(z) => z.canonical(),
            _ => unreachable!(),
        };
        assert_ne!(a, c);
    }

    #[test]
    fn rejects_azoom_on_ogc_statically() {
        let bad1 = r#"{"op":"zoom","graph":"g","repr":"ogc",
                       "steps":[{"azoom":{"by":"school"}}]}"#;
        assert!(parse_request(bad1).is_err());
        // Also after a switch to OGC.
        let bad2 = r#"{"op":"zoom","graph":"g","repr":"ve",
                       "steps":[{"switch":"ogc"},{"azoom":{"by":"school"}}]}"#;
        assert!(parse_request(bad2).is_err());
        // But azoom before the switch is fine.
        let ok = r#"{"op":"zoom","graph":"g","repr":"ve",
                     "steps":[{"azoom":{"by":"school"}},{"switch":"ogc"}]}"#;
        assert!(parse_request(ok).is_ok());
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "not json",
            r#"{"op":"zap"}"#,
            r#"{"op":"zoom"}"#,
            r#"{"op":"zoom","graph":"../etc","repr":"ve"}"#,
            r#"{"op":"zoom","graph":"g","repr":"xx"}"#,
            r#"{"op":"zoom","graph":"g","repr":"ve","range":[5,1]}"#,
            r#"{"op":"zoom","graph":"g","repr":"ve","deadline_ms":-1}"#,
            r#"{"op":"zoom","graph":"g","repr":"ve","steps":[{"wzoom":{}}]}"#,
            r#"{"op":"zoom","graph":"g","repr":"ve",
                "steps":[{"wzoom":{"window":{"points":0}}}]}"#,
            r#"{"op":"zoom","graph":"g","repr":"ve",
                "steps":[{"wzoom":{"window":{"points":2},"vq":{"at_least":1.5}}}]}"#,
            r#"{"op":"zoom","graph":"g","repr":"ve",
                "steps":[{"azoom":{"aggs":[{"output":"s","fn":"sum"}]}}]}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad}");
        }
    }

    /// Omitting `repr`, or spelling it `"auto"` in any case, marks the
    /// request for the representation chooser; an explicit representation
    /// does not. `explain` opts into the candidate table independently.
    #[test]
    fn parses_auto_repr_and_explain() {
        let zoom = |line: &str| match parse_request(line).unwrap() {
            Request::Zoom(z) => z,
            other => panic!("expected zoom, got {other:?}"),
        };
        let omitted = zoom(r#"{"op":"zoom","graph":"g"}"#);
        assert!(omitted.auto_repr);
        assert!(!omitted.explain);
        let spelled = zoom(r#"{"op":"zoom","graph":"g","repr":"AuTo","explain":true}"#);
        assert!(spelled.auto_repr);
        assert!(spelled.explain);
        let explicit = zoom(r#"{"op":"zoom","graph":"g","repr":"og","explain":true}"#);
        assert!(!explicit.auto_repr);
        assert_eq!(explicit.repr, ReprKind::Og);
        assert!(explicit.explain);
        // Scheduling/introspection fields stay out of the cache identity:
        // an auto request resolved to OG replays an explicit OG's entry.
        let mut resolved = spelled.clone();
        resolved.repr = ReprKind::Og;
        resolved.auto_repr = false;
        assert_eq!(resolved.canonical(), explicit.canonical());
    }

    #[test]
    fn parses_ingest_requests() {
        let line = r#"{"op":"ingest","graph":"demo","since":8,
            "vertices":[{"id":1,"interval":[8,14],
                         "props":{"type":"person","school":"MIT","score":3}}],
            "edges":[{"id":1,"src":1,"dst":2,"interval":[8,11],
                      "props":{"type":"knows"}}]}"#;
        let req = match parse_request(line).unwrap() {
            Request::Ingest(i) => i,
            other => panic!("expected ingest, got {other:?}"),
        };
        assert_eq!(req.graph, "demo");
        assert_eq!(req.since, Some(8));
        assert_eq!(req.vertices.len(), 1);
        assert_eq!(req.vertices[0].interval, Interval::new(8, 14));
        assert_eq!(req.vertices[0].props.type_label(), Some("person"));
        assert_eq!(req.edges.len(), 1);
        assert_eq!(req.edges[0].src.0, 1);
        assert_eq!(req.edges[0].dst.0, 2);

        // `since` and facts are optional at the protocol level.
        let minimal = parse_request(r#"{"op":"ingest","graph":"demo"}"#).unwrap();
        match minimal {
            Request::Ingest(i) => {
                assert_eq!(i.since, None);
                assert!(i.vertices.is_empty() && i.edges.is_empty());
            }
            other => panic!("expected ingest, got {other:?}"),
        }
    }

    #[test]
    fn ingest_props_keep_the_last_of_duplicate_keys() {
        let line = r#"{"op":"ingest","graph":"g","vertices":[{"id":1,"interval":[1,2],
            "props":{"type":"person","n":1,"school":"MIT","n":2.5,"type":"student"}}]}"#;
        let req = match parse_request(line).unwrap() {
            Request::Ingest(i) => i,
            other => panic!("expected ingest, got {other:?}"),
        };
        assert_eq!(
            req.vertices[0].props,
            Props::typed("student")
                .with("n", 2.5f64)
                .with("school", "MIT")
        );
    }

    #[test]
    fn rejects_malformed_ingest() {
        for bad in [
            r#"{"op":"ingest"}"#,
            r#"{"op":"ingest","graph":"../etc"}"#,
            r#"{"op":"ingest","graph":"g","since":"soon"}"#,
            r#"{"op":"ingest","graph":"g","vertices":[{"interval":[1,2]}]}"#,
            r#"{"op":"ingest","graph":"g","vertices":[{"id":1}]}"#,
            r#"{"op":"ingest","graph":"g","vertices":[{"id":1,"interval":[1]}]}"#,
            r#"{"op":"ingest","graph":"g","vertices":[{"id":1,"interval":[1,2],"props":{"x":[1]}}]}"#,
            r#"{"op":"ingest","graph":"g","edges":[{"id":1,"src":1,"interval":[1,2]}]}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn simple_ops_parse() {
        assert!(matches!(
            parse_request(r#"{"op":"ping"}"#),
            Ok(Request::Ping)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"stats"}"#),
            Ok(Request::Stats)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown"}"#),
            Ok(Request::Shutdown)
        ));
    }
}
