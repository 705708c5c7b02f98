//! In-memory spans for the traced run, written out when the benchmark ends.
//!
//! A span is `(id, parent, request, name, start_ns, end_ns)`; its name is a
//! per-layer metric name, so the trace and the metric list share one
//! vocabulary. Counter deltas taken at a span boundary hang off the span's
//! id. A layer's self time is its span minus the part its children cover.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// Spans of one request (or one batch cell) share this.
    pub request: u64,
    pub name: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The run's span buffer.
pub struct Recorder {
    epoch: Instant,
    names: Vec<String>,
    index: HashMap<String, u32>,
    pub spans: Vec<Span>,
    counters: Vec<(u64, String, f64)>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            names: Vec::new(),
            index: HashMap::new(),
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(i) = self.index.get(name) {
            return *i;
        }
        let i = self.names.len() as u32;
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), i);
        i
    }

    /// Opens a span now; close it with [`Recorder::end`].
    pub fn begin(&mut self, parent: u64, request: u64, name: &str) -> u64 {
        let now = self.now_ns();
        self.push(parent, request, name, now, now)
    }

    pub fn end(&mut self, id: u64) {
        let now = self.now_ns();
        let slot = (id - 1) as usize;
        self.spans[slot].end_ns = now;
    }

    /// Records a span whose boundaries are already known (a server-side
    /// phase reconstructed from response fields).
    pub fn push(
        &mut self,
        parent: u64,
        request: u64,
        name: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let name = self.intern(name);
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Attaches a counter delta taken at a span's boundary.
    pub fn counter(&mut self, span: u64, name: &str, value: f64) {
        self.counters.push((span, name.to_string(), value));
    }

    pub fn name_of(&self, span: &Span) -> &str {
        &self.names[span.name as usize]
    }

    /// Total self time per span name, in ns.
    pub fn self_times(&self) -> Vec<(String, u64)> {
        let per_span = self_times_ns(&self.spans);
        let mut by_name = vec![0u64; self.names.len()];
        for (span, own) in self.spans.iter().zip(per_span) {
            by_name[span.name as usize] += own;
        }
        self.names.iter().cloned().zip(by_name).collect()
    }

    /// Sum of all self times over the summed duration of root spans: 1 when
    /// every nanosecond of every root is attributed to exactly one layer.
    pub fn self_time_share(&self) -> f64 {
        let roots: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let own: u64 = self.self_times().iter().map(|(_, ns)| ns).sum();
        if roots == 0 {
            0.0
        } else {
            own as f64 / roots as f64
        }
    }

    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 + self.spans.len() * 48);
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"names\":[");
        for (i, n) in self.names.iter().enumerate() {
            let _ = write!(out, "{}\"{n}\"", if i > 0 { "," } else { "" });
        }
        out.push_str("],\"span_fields\":[\"id\",\"parent\",\"request\",\"name\",\"start_ns\",\"end_ns\"],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}[{},{},{},{},{},{}]",
                if i > 0 { "," } else { "" },
                s.id,
                s.parent,
                s.request,
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("],\"counters\":[");
        for (i, (span, name, value)) in self.counters.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"span\":{span},\"name\":\"{name}\",\"value\":{value:?}}}",
                if i > 0 { "," } else { "" }
            );
        }
        out.push_str("],\"self_time_ns\":{");
        for (i, (name, ns)) in self.self_times().iter().enumerate() {
            let _ = write!(out, "{}\"{name}\":{ns}", if i > 0 { "," } else { "" });
        }
        let _ = write!(out, "}},\"self_time_share\":{:?}}}", self.self_time_share());
        out.push('\n');
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self time of each span: its duration minus the union of its children's
/// intervals clipped to its own.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let slot: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = slot.get(&s.parent) {
            let parent = &spans[*p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[*p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids.iter() {
                let a = (*a).max(reach);
                if a < *b {
                    covered += b - a;
                    reach = *b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 50, 70),
            span(4, 2, 15, 20),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 25, 20, 5]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children overlap each other on [30, 40) and one overhangs the
        // parent's end: only the covered part of the parent is subtracted.
        let spans = vec![span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 30, 120)];
        assert_eq!(self_times_ns(&spans)[0], 10);
    }

    #[test]
    fn recorder_attributes_every_nanosecond_of_a_root() {
        let mut r = Recorder::new(Instant::now());
        let root = r.push(0, 0, "run", 0, 1_000);
        let req = r.push(root, 7, "serve.conn_us_p50", 100, 900);
        r.push(req, 7, "serve.overhead_us_p50", 200, 300);
        r.push(req, 7, "serve.exec_us_p50", 300, 800);
        let own: HashMap<String, u64> = r.self_times().into_iter().collect();
        assert_eq!(own["run"], 200);
        assert_eq!(own["serve.conn_us_p50"], 200);
        assert_eq!(own["serve.exec_us_p50"], 500);
        assert!((r.self_time_share() - 1.0).abs() < 1e-12);
    }
}
