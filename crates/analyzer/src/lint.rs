//! Source-level lint rules for the tgraph workspace, run by the
//! `tgraph-lint` binary (`cargo run -p tgraph-analyze --bin tgraph-lint`).
//!
//! Eight rules, all scoped to **library code** (test modules, `tests/`
//! directories, benches, and `src/bin/` drivers are exempt):
//!
//! * **`no-unwrap`** — no `unwrap()` / `expect()` on user-reachable paths in
//!   library crates. Engine-invariant sites may opt out with a
//!   `lint:allow(unwrap)` or `lint:allow(expect)` marker comment on the same
//!   or the preceding line, which doubles as an audit trail.
//! * **`no-eager-collect`** — no `Dataset::collect(rt)` inside operator
//!   closures (`map`, `filter`, `flat_map`, `map_partitions`, `map_values`,
//!   `fold`): collecting mid-operator defeats the lazy plan and runs a
//!   nested job per element. Iterator `collect()` (no runtime argument) is
//!   fine.
//! * **`no-raw-retag`** — no `with_partitioning(` outside the dataflow
//!   crate's `dataset.rs` / `keyed.rs`: partitioning claims must go through
//!   the audited elision machinery, never be stamped ad hoc.
//!
//! Plus five **concurrency rules** guarding the distributed exchange layer
//! and the serving event loop:
//!
//! * **`lock-order`** — a lock-acquisition-order graph is extracted from
//!   the masked sources of the protocol-adjacent files
//!   ([`LOCK_ORDER_FILES`]: the exchange, the runtime and every server
//!   module that takes a lock; a listed path that is missing is a finding),
//!   unioned across them, and checked for cycles: two code paths acquiring
//!   the same pair of locks in opposite orders is a latent deadlock even
//!   when each path is individually correct. Opt out per acquisition with
//!   `lint:allow(lock-order)`.
//! * **`condvar-wait-in-loop`** — every `Condvar::wait`/`wait_timeout`
//!   must sit inside a `loop`/`while` that re-checks its predicate:
//!   condvars wake spuriously, and a bare `if`-guarded wait is a race.
//!   (`wait_while`/`wait_timeout_while` re-check internally and are
//!   exempt.) Opt out with `lint:allow(condvar)`.
//! * **`no-blocking-in-reader`** — the exchange reader/acceptor loops
//!   (functions named `*_loop`) must not make unbounded blocking calls
//!   (`read_exact`, `read_to_end`, `read_to_string`, `recv()`, `accept()`)
//!   unless the function participates in the shutdown/poll discipline
//!   (its body references the shutdown flag or a poll helper) — otherwise
//!   teardown hangs on a silent peer. Opt out with `lint:allow(blocking)`.
//! * **`blocking-call-in-reactor`** — functions that run on a serving
//!   reactor thread (any `fn` whose name contains `reactor`) must stay
//!   nonblocking: no `thread::sleep`, channel `recv()`, thread `join(`,
//!   or buffered/blocking I/O (`read_line`, `read_to_end`,
//!   `read_to_string`, `write_all`). One stalled reactor parks every
//!   connection it owns. Opt out with `lint:allow(reactor)` where the
//!   call is provably on a nonblocking fd.
//! * **`no-inline-poison-recovery`** — no inline
//!   `lock().unwrap_or_else(|e| e.into_inner())`: poison recovery is only
//!   sound when the guarded state is panic-consistent, and that argument
//!   is audited in exactly one place —
//!   [`lock_unpoisoned`](tgraph_dataflow::lock_unpoisoned), which carries
//!   the one `lint:allow(poison)` marker.
//!
//! The linter works on masked source text: comments and string literals are
//! blanked (preserving line structure) and `#[cfg(test)]` blocks are
//! stripped before matching, so rules cannot fire on prose or test code.

use std::fmt;
use std::path::{Path, PathBuf};

/// Library crates subject to the lint rules. `bench` is a harness crate and
/// exempt from `no-unwrap` (its panics are operator-facing, not
/// user-reachable), but still subject to the dataflow-discipline rules.
const LIB_CRATES: &[&str] = &[
    "core", "dataflow", "repr", "storage", "datagen", "query", "analyzer", "server", "optimize",
];

/// Crates linted for dataflow discipline (eager collect, raw retag) only.
const HARNESS_CRATES: &[&str] = &["bench"];

/// Files whose lock-acquisition graphs are unioned for the cross-file
/// `lock-order` check: the distributed exchange protocol, the runtime that
/// holds locks around it, and every server module that takes a lock. A
/// listed file that does not exist is itself a finding — a rename must not
/// silently shrink the rule's coverage.
pub const LOCK_ORDER_FILES: &[&str] = &[
    "crates/dataflow/src/exchange.rs",
    "crates/dataflow/src/runtime.rs",
    "crates/server/src/admission.rs",
    "crates/server/src/cache.rs",
    "crates/server/src/eventloop.rs",
    "crates/server/src/handoff.rs",
    "crates/server/src/ingest.rs",
    "crates/server/src/reactor.rs",
    "crates/server/src/shard.rs",
    "crates/server/src/zoom.rs",
];

/// Unbounded blocking calls forbidden inside `*_loop` reader/acceptor
/// functions that lack a shutdown/poll discipline.
const READER_BLOCKING_CALLS: &[&str] = &[
    ".read_exact(",
    ".read_to_end(",
    ".read_to_string(",
    ".recv()",
    ".accept()",
];

/// Calls that stall a serving reactor thread, forbidden inside any
/// function whose name contains `reactor`. Unlike the reader rule there is
/// no shutdown-discipline exemption: a reactor must never block outside
/// its poller wait, because every connection it owns stalls with it.
const REACTOR_BLOCKING_CALLS: &[&str] = &[
    "thread::sleep(",
    ".recv()",
    ".join(",
    ".read_line(",
    ".read_to_end(",
    ".read_to_string(",
    ".write_all(",
];

/// Operator entry points whose closure arguments must not call
/// `Dataset::collect(rt)`.
const OPERATOR_CALLS: &[&str] = &[
    ".map(",
    ".flat_map(",
    ".filter(",
    ".map_partitions(",
    ".map_values(",
    ".map_values_with_key(",
    ".fold(",
];

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// File the finding is in (workspace-relative when produced by
    /// [`lint_workspace`]).
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule code (`no-unwrap`, `no-eager-collect`, `no-raw-retag`,
    /// `lock-order`, `condvar-wait-in-loop`, `no-blocking-in-reader`,
    /// `blocking-call-in-reactor`, `no-inline-poison-recovery`).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Which rules apply to a file.
#[derive(Clone, Copy, Debug)]
pub struct RuleSet {
    /// Enforce `no-unwrap`.
    pub no_unwrap: bool,
    /// Enforce `no-eager-collect`.
    pub no_eager_collect: bool,
    /// Enforce `no-raw-retag`.
    pub no_raw_retag: bool,
    /// Enforce `lock-order` on this file's own acquisition graph. In
    /// [`lint_workspace`] the [`LOCK_ORDER_FILES`] are instead unioned
    /// into one cross-file graph, so their per-file pass is off there.
    pub lock_order: bool,
    /// Enforce `condvar-wait-in-loop`.
    pub condvar_wait_in_loop: bool,
    /// Enforce `no-blocking-in-reader`.
    pub no_blocking_in_reader: bool,
    /// Enforce `blocking-call-in-reactor`.
    pub blocking_call_in_reactor: bool,
    /// Enforce `no-inline-poison-recovery`.
    pub no_inline_poison_recovery: bool,
}

impl RuleSet {
    /// All rules on.
    pub fn all() -> Self {
        RuleSet {
            no_unwrap: true,
            no_eager_collect: true,
            no_raw_retag: true,
            lock_order: true,
            condvar_wait_in_loop: true,
            no_blocking_in_reader: true,
            blocking_call_in_reactor: true,
            no_inline_poison_recovery: true,
        }
    }
}

/// Replaces comments, string literals, and char literals with spaces,
/// preserving line structure so findings keep accurate line numbers.
/// Handles line comments, (nested) block comments, escapes, and raw strings.
fn mask_source(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    let n = b.len();
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    while i < n {
        let c = b[i];
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            while i < n && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
        } else if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 1;
            out.push(' ');
            out.push(' ');
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
        } else if c == 'r' && i + 1 < n && (b[i + 1] == '"' || b[i + 1] == '#') {
            // Raw string r"..." or r#"..."# (any hash depth).
            let start = i;
            let mut j = i + 1;
            let mut hashes = 0;
            while j < n && b[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if j < n && b[j] == '"' {
                out.push(' ');
                for _ in 0..=hashes {
                    out.push(' ');
                }
                j += 1;
                // Scan for closing quote followed by `hashes` hashes.
                loop {
                    if j >= n {
                        break;
                    }
                    if b[j] == '"' {
                        let mut k = j + 1;
                        let mut h = 0;
                        while k < n && h < hashes && b[k] == '#' {
                            h += 1;
                            k += 1;
                        }
                        if h == hashes {
                            for _ in j..k {
                                out.push(' ');
                            }
                            j = k;
                            break;
                        }
                    }
                    out.push(blank(b[j]));
                    j += 1;
                }
                i = j;
            } else {
                // Not a raw string after all (e.g. `r#ident`).
                out.push(b[start]);
                i = start + 1;
            }
        } else if c == '"' {
            out.push(' ');
            i += 1;
            while i < n {
                if b[i] == '\\' && i + 1 < n {
                    out.push(' ');
                    out.push(blank(b[i + 1]));
                    i += 2;
                } else if b[i] == '"' {
                    out.push(' ');
                    i += 1;
                    break;
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
        } else if c == '\'' {
            // Char literal or lifetime. Treat as char literal only when it
            // closes within a few chars; otherwise it's a lifetime.
            let close = (i + 1..n.min(i + 5)).find(|&j| b[j] == '\'' && b[j - 1] != '\\');
            let close = match close {
                Some(j) => Some(j),
                None if i + 2 < n && b[i + 1] == '\\' => {
                    (i + 2..n.min(i + 6)).find(|&j| b[j] == '\'')
                }
                None => None,
            };
            if let Some(j) = close {
                for _ in i..=j {
                    out.push(' ');
                }
                i = j + 1;
            } else {
                out.push(c);
                i += 1;
            }
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

/// Blanks every `#[cfg(test)] mod … { … }` (or any `#[cfg(test)]`-attributed
/// item with a brace block) in masked source.
fn strip_test_blocks(masked: &str) -> String {
    let mut text: Vec<char> = masked.chars().collect();
    let pat: Vec<char> = "#[cfg(test)]".chars().collect();
    let n = text.len();
    let mut i = 0;
    while i + pat.len() <= n {
        if text[i..i + pat.len()] == pat[..] {
            // Find the opening brace of the attributed item, then blank
            // through its matching close.
            let mut j = i + pat.len();
            while j < n && text[j] != '{' {
                j += 1;
            }
            let mut depth = 0;
            let start = i;
            while j < n {
                if text[j] == '{' {
                    depth += 1;
                } else if text[j] == '}' {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            let end = (j + 1).min(n);
            for c in text.iter_mut().take(end).skip(start) {
                if *c != '\n' {
                    *c = ' ';
                }
            }
            i = end;
        } else {
            i += 1;
        }
    }
    text.into_iter().collect()
}

/// Whether `raw` line `line` (or the line above) carries a
/// `lint:allow(<what>)` marker. Markers live in comments, so they are read
/// from the raw (unmasked) source.
fn allowed(raw_lines: &[&str], line: usize, what: &str) -> bool {
    let marker = format!("lint:allow({what})");
    let check = |l: usize| l >= 1 && l <= raw_lines.len() && raw_lines[l - 1].contains(&marker);
    check(line) || check(line.saturating_sub(1))
}

/// Spans (start, end) of the parenthesized argument lists of operator calls
/// in masked text — the regions where `Dataset::collect(rt)` is forbidden.
fn operator_closure_spans(masked: &str) -> Vec<(usize, usize)> {
    let bytes = masked.as_bytes();
    let mut spans = Vec::new();
    for pat in OPERATOR_CALLS {
        let mut start = 0;
        while let Some(pos) = find_from(masked, pat, start) {
            let open = pos + pat.len() - 1;
            let mut depth = 0i32;
            let mut j = open;
            while j < bytes.len() {
                match bytes[j] {
                    b'(' => depth += 1,
                    b')' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            spans.push((open, j.min(bytes.len())));
            start = open + 1;
        }
    }
    spans
}

/// The dotted receiver path immediately before byte offset `pos` (which
/// points at the `.` of a matched method call), skipping whitespace so
/// multi-line chains resolve: `self.cond\n    .wait_timeout(` → `self.cond`.
fn path_before(masked: &str, pos: usize) -> String {
    let bytes = masked.as_bytes();
    let mut i = pos;
    let mut out: Vec<u8> = Vec::new();
    loop {
        while i > 0 && bytes[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
        let mut took = false;
        while i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
            out.push(bytes[i - 1]);
            i -= 1;
            took = true;
        }
        if !took {
            break;
        }
        while i > 0 && bytes[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
        if i > 0 && bytes[i - 1] == b'.' {
            out.push(b'.');
            i -= 1;
        } else {
            break;
        }
    }
    out.reverse();
    String::from_utf8_lossy(&out).into_owned()
}

/// Whether `word` occurs in `text` delimited by non-identifier characters.
fn has_word(text: &str, word: &str) -> bool {
    let bytes = text.as_bytes();
    let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut start = 0;
    while let Some(p) = find_from(text, word, start) {
        start = p + word.len();
        let before_ok = p == 0 || !ident(bytes[p - 1]);
        let after_ok = bytes.get(p + word.len()).is_none_or(|&b| !ident(b));
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

/// Whether byte offset `pos` sits inside a `loop { … }` or `while … { … }`
/// block: some enclosing brace's header (the text since the previous
/// `{`/`}`/`;`) contains the keyword.
fn in_predicate_loop(masked: &str, pos: usize) -> bool {
    let bytes = masked.as_bytes();
    let mut stack: Vec<usize> = Vec::new();
    for (i, &b) in bytes.iter().enumerate().take(pos) {
        match b {
            b'{' => stack.push(i),
            b'}' => {
                stack.pop();
            }
            _ => {}
        }
    }
    stack.iter().any(|&open| {
        let start = bytes[..open]
            .iter()
            .rposition(|&b| b == b'{' || b == b'}' || b == b';')
            .map_or(0, |p| p + 1);
        let header = &masked[start..open];
        has_word(header, "loop") || has_word(header, "while")
    })
}

/// The byte offset just past the `}` closing the innermost block that
/// contains `pos`, or the text's end if unbraced.
fn enclosing_block_end(masked: &str, pos: usize) -> usize {
    let bytes = masked.as_bytes();
    let mut depth = 0i32;
    for (off, &b) in bytes.iter().enumerate().skip(pos) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                if depth == 0 {
                    return off;
                }
                depth -= 1;
            }
            _ => {}
        }
    }
    masked.len()
}

/// The byte offset of the `;` ending the statement containing `pos`
/// (tracking nesting), or the end of the enclosing block.
fn statement_end(masked: &str, pos: usize) -> usize {
    let bytes = masked.as_bytes();
    let mut depth = 0i32;
    for (off, &b) in bytes.iter().enumerate().skip(pos) {
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' => depth -= 1,
            b'}' => {
                if depth == 0 {
                    return off;
                }
                depth -= 1;
            }
            b';' if depth == 0 => return off,
            _ => {}
        }
    }
    masked.len()
}

/// One directed edge of the lock-acquisition-order graph: lock `held` was
/// (conservatively) still held when lock `then` was acquired.
#[derive(Clone, Debug)]
pub struct LockEdge {
    /// Last path segment of the already-held lock's receiver.
    pub held: String,
    /// Last path segment of the lock acquired under it.
    pub then: String,
    /// File containing the nested acquisition.
    pub file: PathBuf,
    /// 1-based line of the nested acquisition.
    pub line: usize,
}

/// One lock acquisition site in masked source.
struct Acquisition {
    name: String,
    pos: usize,
    hold_end: usize,
    line: usize,
}

/// Extracts the lock-acquisition-order edges of one source file. A lock's
/// identity is the last path segment of its receiver (`self.acceptor` →
/// `acceptor`); a guard is held to the end of its enclosing block when
/// `let`-bound (shortened by an explicit `drop(guard)`), else to the end
/// of its statement. Acquisitions marked `lint:allow(lock-order)`
/// contribute no edges.
pub fn lock_order_edges(file: &Path, src: &str) -> Vec<LockEdge> {
    let masked = strip_test_blocks(&mask_source(src));
    let raw_lines: Vec<&str> = src.lines().collect();
    let bytes = masked.as_bytes();
    let mut acquisitions: Vec<Acquisition> = Vec::new();

    let mut record = |name: String, pos: usize| {
        if name.is_empty() {
            return;
        }
        let line = line_of_bytes(&masked, pos);
        if allowed(&raw_lines, line, "lock-order") {
            return;
        }
        // Statement start: just past the previous `;`, `{`, or `}`.
        let stmt_start = bytes[..pos]
            .iter()
            .rposition(|&b| b == b';' || b == b'{' || b == b'}')
            .map_or(0, |p| p + 1);
        let stmt_head = &masked[stmt_start..pos];
        let hold_end = if has_word(stmt_head, "let") {
            // Guard bound to a variable: held to the end of the enclosing
            // block, or to an explicit drop of the variable.
            let mut end = enclosing_block_end(&masked, pos);
            let var: String = stmt_head
                .split_whitespace()
                .skip_while(|w| *w != "let")
                .skip(1)
                .find(|w| *w != "mut")
                .unwrap_or("")
                .trim_end_matches([':', '='])
                .to_string();
            if !var.is_empty() {
                let drop_pat = format!("drop({var})");
                if let Some(d) = find_from(&masked, &drop_pat, pos) {
                    if d < end {
                        end = d;
                    }
                }
            }
            end
        } else {
            // Temporary guard: held to the end of the statement.
            statement_end(&masked, pos)
        };
        acquisitions.push(Acquisition {
            name,
            pos,
            hold_end,
            line,
        });
    };

    let mut start = 0;
    while let Some(pos) = find_from(&masked, ".lock()", start) {
        start = pos + ".lock()".len();
        let receiver = path_before(&masked, pos);
        let name = receiver.rsplit('.').next().unwrap_or("").to_string();
        record(name, pos);
    }
    let mut start = 0;
    while let Some(pos) = find_from(&masked, "lock_unpoisoned(", start) {
        start = pos + "lock_unpoisoned(".len();
        if pos > 0 {
            let prev = bytes[pos - 1];
            if prev.is_ascii_alphanumeric() || prev == b'_' {
                continue;
            }
        }
        let arg: String = masked[pos + "lock_unpoisoned(".len()..]
            .chars()
            .take_while(|c| *c != ')' && *c != ',')
            .filter(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '.')
            .collect();
        let name = arg.rsplit('.').next().unwrap_or("").to_string();
        record(name, pos);
    }

    let mut edges: Vec<LockEdge> = Vec::new();
    for a in &acquisitions {
        for b in &acquisitions {
            if a.name != b.name && b.pos > a.pos && b.pos <= a.hold_end {
                let dup = edges
                    .iter()
                    .any(|e| e.held == a.name && e.then == b.name && e.line == b.line);
                if !dup {
                    edges.push(LockEdge {
                        held: a.name.clone(),
                        then: b.name.clone(),
                        file: file.to_path_buf(),
                        line: b.line,
                    });
                }
            }
        }
    }
    edges
}

/// Finds acquisition-order cycles in a (possibly cross-file) edge union
/// and renders one finding per distinct cycle, anchored at one of its
/// edge sites.
pub fn lock_order_findings(edges: &[LockEdge]) -> Vec<Finding> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut adj: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.held.as_str()).or_default().push(e);
    }
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut findings = Vec::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &root in &nodes {
        // Bounded DFS from each node; a path returning to its origin is a
        // cycle.
        let mut stack: Vec<(&str, Vec<&LockEdge>)> = vec![(root, Vec::new())];
        while let Some((node, path)) = stack.pop() {
            if path.len() > nodes.len() {
                continue;
            }
            for e in adj.get(node).map_or(&[][..], |v| &v[..]) {
                if e.then == root {
                    let mut full = path.clone();
                    full.push(e);
                    // Canonical form: the cycle's lock names rotated so the
                    // lexicographically smallest comes first.
                    let names: Vec<String> = full.iter().map(|e| e.held.clone()).collect();
                    let rot = names
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, n)| n.as_str())
                        .map_or(0, |(i, _)| i);
                    let canon: Vec<String> = (0..names.len())
                        .map(|i| names[(rot + i) % names.len()].clone())
                        .collect();
                    if seen_cycles.insert(canon.clone()) {
                        let ring = canon.join(" -> ");
                        let sites: Vec<String> = full
                            .iter()
                            .map(|e| {
                                format!(
                                    "{} -> {} at {}:{}",
                                    e.held,
                                    e.then,
                                    e.file.display(),
                                    e.line
                                )
                            })
                            .collect();
                        let anchor = full[full.len() - 1];
                        findings.push(Finding {
                            file: anchor.file.clone(),
                            line: anchor.line,
                            rule: "lock-order",
                            message: format!(
                                "lock-acquisition-order cycle {ring} -> {} (latent deadlock); \
                                 sites: {}",
                                canon[0],
                                sites.join("; ")
                            ),
                        });
                    }
                } else if !path.iter().any(|p| p.held == e.then) && e.then != node {
                    let mut next = path.clone();
                    next.push(e);
                    stack.push((e.then.as_str(), next));
                }
            }
        }
    }
    findings
}

/// Lints one source text. `file` is used for finding labels only.
pub fn lint_source(file: &Path, src: &str, rules: RuleSet) -> Vec<Finding> {
    let masked = strip_test_blocks(&mask_source(src));
    let raw_lines: Vec<&str> = src.lines().collect();
    let mut findings = Vec::new();

    if rules.no_unwrap {
        for pat in ["unwrap()", "expect("] {
            let what = if pat.starts_with("unwrap") {
                "unwrap"
            } else {
                "expect"
            };
            let mut start = 0;
            while let Some(pos) = find_from(&masked, pat, start) {
                start = pos + pat.len();
                // `.unwrap()` / `.expect(` method calls only.
                let prev = masked[..pos].chars().next_back();
                if prev != Some('.') {
                    continue;
                }
                let line = line_of_bytes(&masked, pos);
                if allowed(&raw_lines, line, what) {
                    continue;
                }
                findings.push(Finding {
                    file: file.to_path_buf(),
                    line,
                    rule: "no-unwrap",
                    message: format!(
                        ".{pat}…: library code must surface typed errors, not panic \
                         (add `// lint:allow({what}): <reason>` if this is an engine invariant)"
                    ),
                });
            }
        }
    }

    if rules.no_eager_collect {
        let spans = operator_closure_spans(&masked);
        let mut start = 0;
        while let Some(pos) = find_from(&masked, ".collect(", start) {
            start = pos + ".collect(".len();
            // An argument ⇒ Dataset::collect(rt); bare `.collect()` or
            // turbofished iterator collects have none.
            let after: String = masked[pos + ".collect(".len()..]
                .chars()
                .take_while(|c| c.is_whitespace())
                .collect();
            let next = masked[pos + ".collect(".len() + after.len()..]
                .chars()
                .next();
            if next == Some(')') || next.is_none() {
                continue;
            }
            if spans.iter().any(|&(s, e)| pos > s && pos < e) {
                let line = line_of_bytes(&masked, pos);
                if allowed(&raw_lines, line, "collect") {
                    continue;
                }
                findings.push(Finding {
                    file: file.to_path_buf(),
                    line,
                    rule: "no-eager-collect",
                    message: "Dataset::collect(rt) inside an operator closure runs a nested \
                              job per element; hoist the collect outside the operator \
                              (see broadcast_join) or restructure as a join"
                        .to_string(),
                });
            }
        }
    }

    if rules.no_raw_retag {
        let mut start = 0;
        while let Some(pos) = find_from(&masked, "with_partitioning(", start) {
            start = pos + "with_partitioning(".len();
            let line = line_of_bytes(&masked, pos);
            if allowed(&raw_lines, line, "retag") {
                continue;
            }
            findings.push(Finding {
                file: file.to_path_buf(),
                line,
                rule: "no-raw-retag",
                message: "partitioning tags must be established by the audited shuffle/elision \
                          machinery in dataflow's dataset.rs/keyed.rs, not stamped directly"
                    .to_string(),
            });
        }
    }

    if rules.condvar_wait_in_loop {
        for pat in [".wait(", ".wait_timeout("] {
            let mut start = 0;
            while let Some(pos) = find_from(&masked, pat, start) {
                start = pos + pat.len();
                let receiver = path_before(&masked, pos).to_ascii_lowercase();
                // Heuristic condvar identification: the receiver names a
                // condition variable (cv / cond / condvar conventions).
                if !(receiver.contains("cv") || receiver.contains("cond")) {
                    continue;
                }
                if in_predicate_loop(&masked, pos) {
                    continue;
                }
                let line = line_of_bytes(&masked, pos);
                if allowed(&raw_lines, line, "condvar") {
                    continue;
                }
                findings.push(Finding {
                    file: file.to_path_buf(),
                    line,
                    rule: "condvar-wait-in-loop",
                    message: format!(
                        "Condvar `{pat}` outside a predicate-re-checking loop/while: condvars \
                         wake spuriously, so the guarded condition must be re-tested around \
                         every wait (or use wait_while)",
                        pat = pat.trim_start_matches('.').trim_end_matches('(')
                    ),
                });
            }
        }
    }

    if rules.no_blocking_in_reader {
        let mut start = 0;
        while let Some(fn_pos) = find_from(&masked, "fn ", start) {
            start = fn_pos + 3;
            if fn_pos > 0 {
                let prev = masked.as_bytes()[fn_pos - 1];
                if prev.is_ascii_alphanumeric() || prev == b'_' {
                    continue;
                }
            }
            let name: String = masked[fn_pos + 3..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.ends_with("_loop") {
                continue;
            }
            let Some(open) = find_from(&masked, "{", fn_pos) else {
                continue;
            };
            let close = enclosing_block_end(&masked, open + 1);
            let body = &masked[open..close.min(masked.len())];
            // A reader that participates in the shutdown/poll discipline
            // (checks the shutdown flag or uses a polling read helper) may
            // block briefly between checks.
            if has_word(body, "shutdown") || body.contains("_polling") || body.contains(".poll") {
                continue;
            }
            for pat in READER_BLOCKING_CALLS {
                let mut bstart = 0;
                while let Some(bpos) = find_from(body, pat, bstart) {
                    bstart = bpos + pat.len();
                    let line = line_of_bytes(&masked, open + bpos);
                    if allowed(&raw_lines, line, "blocking") {
                        continue;
                    }
                    findings.push(Finding {
                        file: file.to_path_buf(),
                        line,
                        rule: "no-blocking-in-reader",
                        message: format!(
                            "unbounded blocking `{call}` inside reader/acceptor `fn {name}` with \
                             no shutdown/poll check: teardown will hang on a silent peer \
                             (poll with a deadline and re-check the shutdown flag)",
                            call = pat.trim_start_matches('.').trim_end_matches('(')
                        ),
                    });
                }
            }
        }
    }

    if rules.blocking_call_in_reactor {
        let mut start = 0;
        while let Some(fn_pos) = find_from(&masked, "fn ", start) {
            start = fn_pos + 3;
            if fn_pos > 0 {
                let prev = masked.as_bytes()[fn_pos - 1];
                if prev.is_ascii_alphanumeric() || prev == b'_' {
                    continue;
                }
            }
            let name: String = masked[fn_pos + 3..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.contains("reactor") {
                continue;
            }
            let Some(open) = find_from(&masked, "{", fn_pos) else {
                continue;
            };
            let close = enclosing_block_end(&masked, open + 1);
            let body = &masked[open..close.min(masked.len())];
            for pat in REACTOR_BLOCKING_CALLS {
                let mut bstart = 0;
                while let Some(bpos) = find_from(body, pat, bstart) {
                    bstart = bpos + pat.len();
                    let line = line_of_bytes(&masked, open + bpos);
                    if allowed(&raw_lines, line, "reactor") {
                        continue;
                    }
                    findings.push(Finding {
                        file: file.to_path_buf(),
                        line,
                        rule: "blocking-call-in-reactor",
                        message: format!(
                            "blocking `{call}` inside reactor function `fn {name}`: a stalled \
                             reactor thread parks every connection it owns; hand the work to a \
                             dispatcher or buffer it for the poller (add \
                             `// lint:allow(reactor): <reason>` only for calls on nonblocking fds)",
                            call = pat.trim_start_matches('.').trim_end_matches('(')
                        ),
                    });
                }
            }
        }
    }

    if rules.no_inline_poison_recovery {
        let mut start = 0;
        while let Some(pos) = find_from(&masked, ".unwrap_or_else(", start) {
            start = pos + ".unwrap_or_else(".len();
            // Only the poison-recovery idiom: receiver chain ends in
            // `.lock()` (possibly across lines).
            let before = masked[..pos].trim_end();
            if !before.ends_with(".lock()") {
                continue;
            }
            let line = line_of_bytes(&masked, pos);
            if allowed(&raw_lines, line, "poison") {
                continue;
            }
            findings.push(Finding {
                file: file.to_path_buf(),
                line,
                rule: "no-inline-poison-recovery",
                message: "inline `lock().unwrap_or_else(…into_inner…)` poison recovery: route \
                          through tgraph_dataflow::lock_unpoisoned, the single audited recovery \
                          point"
                    .to_string(),
            });
        }
    }

    if rules.lock_order {
        findings.extend(lock_order_findings(&lock_order_edges(file, src)));
    }

    findings
}

/// Byte-offset substring search starting at `from`.
fn find_from(haystack: &str, needle: &str, from: usize) -> Option<usize> {
    haystack.get(from..)?.find(needle).map(|p| p + from)
}

/// Like [`line_of`] but for byte offsets (ASCII-safe: masked text newlines
/// are preserved 1:1).
fn line_of_bytes(text: &str, offset: usize) -> usize {
    text.as_bytes()[..offset.min(text.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

/// Which rules apply to `path` (workspace-relative), or `None` if exempt.
fn rules_for(rel: &Path) -> Option<RuleSet> {
    let s = rel.to_string_lossy().replace('\\', "/");
    if !s.ends_with(".rs") {
        return None;
    }
    // Only library sources: crates/<name>/src/**, excluding bins and tests.
    let rest = s.strip_prefix("crates/")?;
    let (crate_name, in_crate) = rest.split_once('/')?;
    if !in_crate.starts_with("src/") || in_crate.starts_with("src/bin/") {
        return None;
    }
    if LIB_CRATES.contains(&crate_name) {
        let mut rules = RuleSet::all();
        // `with_partitioning` lives in (and is allowed inside) the dataflow
        // engine's own dataset/keyed modules.
        if crate_name == "dataflow" && (in_crate == "src/dataset.rs" || in_crate == "src/keyed.rs")
        {
            rules.no_raw_retag = false;
        }
        // The lock-order graph is scoped to LOCK_ORDER_FILES and unioned
        // cross-file by lint_workspace, not run per file.
        rules.lock_order = false;
        Some(rules)
    } else if HARNESS_CRATES.contains(&crate_name) {
        Some(RuleSet {
            no_unwrap: false,
            no_eager_collect: true,
            no_raw_retag: true,
            lock_order: false,
            condvar_wait_in_loop: true,
            no_blocking_in_reader: true,
            blocking_call_in_reactor: true,
            no_inline_poison_recovery: true,
        })
    } else {
        None
    }
}

/// Recursively collects `.rs` files under `dir`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name.starts_with('.') {
                continue;
            }
            rust_files(&p, out);
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(p);
        }
    }
}

/// Lints every in-scope source file under the workspace root, then checks
/// the cross-file lock-acquisition-order union over [`LOCK_ORDER_FILES`]:
/// each file contributes its acquisition edges, and a cycle anywhere in
/// the union — even spanning files — is a `lock-order` finding. Findings
/// use workspace-relative paths.
pub fn lint_workspace(root: &Path) -> Vec<Finding> {
    lint_workspace_with(root, LOCK_ORDER_FILES)
}

/// [`lint_workspace`] with the lock-order file list as a parameter.
fn lint_workspace_with(root: &Path, lock_order_files: &[&str]) -> Vec<Finding> {
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    let mut findings = Vec::new();
    let mut lock_edges: Vec<LockEdge> = Vec::new();
    let mut seen: Vec<String> = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        let Some(rules) = rules_for(&rel) else {
            continue;
        };
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        let rel_s = rel.to_string_lossy().replace('\\', "/");
        if lock_order_files.contains(&rel_s.as_str()) {
            lock_edges.extend(lock_order_edges(&rel, &src));
            seen.push(rel_s);
        }
        findings.extend(lint_source(&rel, &src, rules));
    }
    for listed in lock_order_files {
        if !seen.iter().any(|s| s == listed) {
            findings.push(Finding {
                file: PathBuf::from(listed),
                line: 1,
                rule: "lock-order",
                message: "listed in LOCK_ORDER_FILES but not found (or not readable) in the \
                          workspace: the rule no longer covers it; fix the list"
                    .to_string(),
            });
        }
    }
    findings.extend(lock_order_findings(&lock_edges));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Finding> {
        lint_source(Path::new("test.rs"), src, RuleSet::all())
    }

    #[test]
    fn flags_unwrap_and_expect() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   fn g(x: Option<u32>) -> u32 { x.expect(\"boom\") }\n";
        let f = lint(src);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.rule == "no-unwrap"));
        assert_eq!(f[0].line, 1);
        assert_eq!(f[1].line, 2);
    }

    #[test]
    fn allow_marker_suppresses() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   // lint:allow(unwrap): invariant\n\
                   x.unwrap()\n\
                   }\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn comments_strings_and_tests_are_ignored() {
        let src = "// x.unwrap() in a comment\n\
                   const S: &str = \"x.unwrap()\";\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t(x: Option<u32>) { x.unwrap(); }\n\
                   }\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn flags_eager_collect_in_operator_closure() {
        let src = "fn f() {\n\
                   let out = big.flat_map(move |k| {\n\
                       small.collect(rt).into_iter().collect::<Vec<_>>()\n\
                   });\n\
                   }\n";
        let f = lint(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-eager-collect");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn iterator_collect_and_toplevel_dataset_collect_are_fine() {
        let src = "fn f() {\n\
                   let v: Vec<u32> = it.map(|x| x + 1).collect();\n\
                   let w = dataset.collect(rt);\n\
                   let u = dataset.map(|x| *x).collect(&rt);\n\
                   }\n";
        // Line 4's collect is OUTSIDE the map's parens (method-chained after
        // them), so it is a legal top-level action.
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn flags_raw_retag() {
        let src = "fn f(d: Dataset<(u32, u32)>) {\n\
                   let t = d.with_partitioning(Partitioning::HashByKey { parts: 2 });\n\
                   }\n";
        let f = lint(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-raw-retag");
    }

    #[test]
    fn rules_scope_by_path() {
        assert!(rules_for(Path::new("crates/storage/src/loader.rs")).is_some());
        assert!(rules_for(Path::new("crates/analyzer/src/bin/tgraph-lint.rs")).is_none());
        assert!(rules_for(Path::new("crates/dataflow/tests/dataflow_laziness.rs")).is_none());
        let bench = rules_for(Path::new("crates/bench/src/harness.rs")).unwrap();
        assert!(!bench.no_unwrap);
        assert!(bench.no_eager_collect);
        let ds = rules_for(Path::new("crates/dataflow/src/dataset.rs")).unwrap();
        assert!(!ds.no_raw_retag);
        assert!(ds.no_unwrap);
        assert!(rules_for(Path::new("crates/bench/src/main.rs")).is_some());
        assert!(rules_for(Path::new("DESIGN.md")).is_none());
    }

    #[test]
    fn raw_strings_are_masked() {
        let src = "const S: &str = r#\"x.unwrap() \"quoted\" \"#;\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn seeded_violation_fixture_fails() {
        let fixture = include_str!("../tests/fixtures/seeded_violations.rs.txt");
        let f = lint_source(Path::new("crates/fake/src/lib.rs"), fixture, RuleSet::all());
        let rules: std::collections::HashSet<&str> = f.iter().map(|f| f.rule).collect();
        assert!(rules.contains("no-unwrap"), "{f:?}");
        assert!(rules.contains("no-eager-collect"), "{f:?}");
        assert!(rules.contains("no-raw-retag"), "{f:?}");
        assert!(rules.contains("condvar-wait-in-loop"), "{f:?}");
        assert!(rules.contains("no-blocking-in-reader"), "{f:?}");
        assert!(rules.contains("blocking-call-in-reactor"), "{f:?}");
        assert!(rules.contains("no-inline-poison-recovery"), "{f:?}");
        // The lint:allow(reactor)-marked call must NOT fire: exactly two
        // reactor findings (the sleep and the unmarked write_all).
        assert_eq!(
            f.iter()
                .filter(|f| f.rule == "blocking-call-in-reactor")
                .count(),
            2,
            "{f:?}"
        );
    }

    #[test]
    fn lock_order_fixture_has_a_cycle() {
        let fixture = include_str!("../tests/fixtures/lock_order_violation.rs.txt");
        let f = lint_source(Path::new("crates/fake/src/lib.rs"), fixture, RuleSet::all());
        assert!(
            f.iter().any(|f| f.rule == "lock-order"),
            "expected a lock-order cycle: {f:?}"
        );
    }

    #[test]
    fn condvar_wait_in_loop_passes_and_bare_wait_fails() {
        let ok = "fn ok(&self) {\n\
                  let mut g = lock_unpoisoned(&self.state);\n\
                  while !g.ready {\n\
                      g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());\n\
                  }\n\
                  }\n";
        let f = lint_source(Path::new("t.rs"), ok, RuleSet::all());
        assert!(!f.iter().any(|f| f.rule == "condvar-wait-in-loop"), "{f:?}");

        let bad = "fn bad(&self) {\n\
                   let g = lock_unpoisoned(&self.state);\n\
                   if !g.ready {\n\
                       let _ = self.cond.wait(g);\n\
                   }\n\
                   }\n";
        let f = lint_source(Path::new("t.rs"), bad, RuleSet::all());
        assert_eq!(
            f.iter()
                .filter(|f| f.rule == "condvar-wait-in-loop")
                .count(),
            1,
            "{f:?}"
        );
        assert_eq!(
            f.iter()
                .find(|f| f.rule == "condvar-wait-in-loop")
                .map(|f| f.line),
            Some(4)
        );
    }

    #[test]
    fn wait_while_and_non_condvar_waits_are_exempt() {
        let src = "fn f(&self) {\n\
                   let g = self.cv.wait_while(g, |s| !s.ready);\n\
                   let st = self.cv.wait_timeout_while(g, d, |s| !s.ready);\n\
                   child.wait();\n\
                   }\n";
        let f = lint_source(Path::new("t.rs"), src, RuleSet::all());
        assert!(!f.iter().any(|f| f.rule == "condvar-wait-in-loop"), "{f:?}");
    }

    #[test]
    fn blocking_reader_without_shutdown_check_fails() {
        let bad = "fn reader_loop(mut stream: TcpStream) {\n\
                   let mut buf = [0u8; 8];\n\
                   stream.read_exact(&mut buf);\n\
                   }\n";
        let f = lint_source(Path::new("t.rs"), bad, RuleSet::all());
        assert_eq!(
            f.iter()
                .filter(|f| f.rule == "no-blocking-in-reader")
                .count(),
            1,
            "{f:?}"
        );

        let ok = "fn reader_loop(mut stream: TcpStream, shutdown: Arc<AtomicBool>) {\n\
                  loop {\n\
                      if shutdown.load(Ordering::SeqCst) { return; }\n\
                      let mut buf = [0u8; 8];\n\
                      stream.read_exact(&mut buf);\n\
                  }\n\
                  }\n";
        let f = lint_source(Path::new("t.rs"), ok, RuleSet::all());
        assert!(
            !f.iter().any(|f| f.rule == "no-blocking-in-reader"),
            "{f:?}"
        );

        // Blocking outside a *_loop function is not this rule's business.
        let other = "fn read_header(mut stream: TcpStream) {\n\
                     let mut buf = [0u8; 8];\n\
                     stream.read_exact(&mut buf);\n\
                     }\n";
        let f = lint_source(Path::new("t.rs"), other, RuleSet::all());
        assert!(
            !f.iter().any(|f| f.rule == "no-blocking-in-reader"),
            "{f:?}"
        );
    }

    #[test]
    fn reactor_functions_must_not_block() {
        let bad = "fn reactor_event(conn: &mut Conn) {\n\
                   std::thread::sleep(Duration::from_millis(10));\n\
                   conn.stream.write_all(&conn.out);\n\
                   }\n";
        let f = lint_source(Path::new("t.rs"), bad, RuleSet::all());
        assert_eq!(
            f.iter()
                .filter(|f| f.rule == "blocking-call-in-reactor")
                .count(),
            2,
            "{f:?}"
        );

        // Nonblocking writes and poller waits are the blessed idiom; the
        // allow marker covers audited calls on nonblocking fds.
        let ok = "fn reactor_flush(conn: &mut Conn) -> bool {\n\
                  // lint:allow(reactor): fd is nonblocking, write returns WouldBlock\n\
                  match conn.stream.write(&conn.out) {\n\
                      Ok(_) => true,\n\
                      Err(_) => false,\n\
                  }\n\
                  }\n";
        let f = lint_source(Path::new("t.rs"), ok, RuleSet::all());
        assert!(
            !f.iter().any(|f| f.rule == "blocking-call-in-reactor"),
            "{f:?}"
        );

        // Blocking outside reactor functions is not this rule's business.
        let other = "fn dispatcher_loop(rx: Receiver<Job>) {\n\
                     while let Ok(job) = rx.recv() { run(job); }\n\
                     }\n";
        let f = lint_source(Path::new("t.rs"), other, RuleSet::all());
        assert!(
            !f.iter().any(|f| f.rule == "blocking-call-in-reactor"),
            "{f:?}"
        );
    }

    #[test]
    fn inline_poison_recovery_fails_but_helper_and_condvar_do_not() {
        let bad = "fn f(&self) {\n\
                   let g = self.inner.lock().unwrap_or_else(|e| e.into_inner());\n\
                   }\n";
        let f = lint_source(Path::new("t.rs"), bad, RuleSet::all());
        assert_eq!(
            f.iter()
                .filter(|f| f.rule == "no-inline-poison-recovery")
                .count(),
            1,
            "{f:?}"
        );

        // The condvar wait_timeout recovery idiom is NOT the lock idiom.
        let ok = "fn f(&self) {\n\
                  loop {\n\
                  let (g, _) = self.cv.wait_timeout(g, d).unwrap_or_else(|e| e.into_inner());\n\
                  }\n\
                  }\n";
        let f = lint_source(Path::new("t.rs"), ok, RuleSet::all());
        assert!(
            !f.iter().any(|f| f.rule == "no-inline-poison-recovery"),
            "{f:?}"
        );

        // The audited helper itself carries the allow marker.
        let helper = "pub fn lock_unpoisoned<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {\n\
                      // lint:allow(poison): the single audited recovery point\n\
                      m.lock().unwrap_or_else(|e| e.into_inner())\n\
                      }\n";
        let f = lint_source(Path::new("t.rs"), helper, RuleSet::all());
        assert!(
            !f.iter().any(|f| f.rule == "no-inline-poison-recovery"),
            "{f:?}"
        );
    }

    #[test]
    fn lock_order_cycle_detected_and_consistent_order_passes() {
        let bad = "fn a(&self) {\n\
                   let g1 = self.alpha.lock();\n\
                   let g2 = self.beta.lock();\n\
                   }\n\
                   fn b(&self) {\n\
                   let g2 = self.beta.lock();\n\
                   let g1 = self.alpha.lock();\n\
                   }\n";
        let f = lock_order_findings(&lock_order_edges(Path::new("t.rs"), bad));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("alpha -> beta -> alpha"), "{f:?}");

        let ok = "fn a(&self) {\n\
                  let g1 = self.alpha.lock();\n\
                  let g2 = self.beta.lock();\n\
                  }\n\
                  fn b(&self) {\n\
                  let g1 = self.alpha.lock();\n\
                  let g2 = self.beta.lock();\n\
                  }\n";
        let f = lock_order_findings(&lock_order_edges(Path::new("t.rs"), ok));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn lock_order_respects_drop_and_statement_temporaries() {
        // Explicit drop releases the first guard before the second
        // acquisition: no edge, no cycle.
        let dropped = "fn a(&self) {\n\
                       let g1 = self.alpha.lock();\n\
                       drop(g1);\n\
                       let g2 = self.beta.lock();\n\
                       }\n\
                       fn b(&self) {\n\
                       let g2 = self.beta.lock();\n\
                       drop(g2);\n\
                       let g1 = self.alpha.lock();\n\
                       }\n";
        let edges = lock_order_edges(Path::new("t.rs"), dropped);
        assert!(edges.is_empty(), "{edges:?}");

        // A temporary guard lives to its statement's end only.
        let temp = "fn a(&self) {\n\
                    *self.alpha.lock() += 1;\n\
                    let g2 = self.beta.lock();\n\
                    }\n\
                    fn b(&self) {\n\
                    *self.beta.lock() += 1;\n\
                    let g1 = self.alpha.lock();\n\
                    }\n";
        let edges = lock_order_edges(Path::new("t.rs"), temp);
        assert!(edges.is_empty(), "{edges:?}");

        // lock_unpoisoned acquisitions participate in the graph.
        let helper = "fn a(&self) {\n\
                      let g1 = lock_unpoisoned(&self.alpha);\n\
                      let g2 = lock_unpoisoned(&self.beta);\n\
                      }\n\
                      fn b(&self) {\n\
                      let g2 = lock_unpoisoned(&self.beta);\n\
                      let g1 = lock_unpoisoned(&self.alpha);\n\
                      }\n";
        let f = lock_order_findings(&lock_order_edges(Path::new("t.rs"), helper));
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn cross_file_lock_order_union_finds_split_cycles() {
        let file_a = "fn a(&self) {\n\
                      let g1 = self.alpha.lock();\n\
                      let g2 = self.beta.lock();\n\
                      }\n";
        let file_b = "fn b(&self) {\n\
                      let g2 = self.beta.lock();\n\
                      let g1 = self.alpha.lock();\n\
                      }\n";
        let mut edges = lock_order_edges(Path::new("a.rs"), file_a);
        edges.extend(lock_order_edges(Path::new("b.rs"), file_b));
        let f = lock_order_findings(&edges);
        assert_eq!(f.len(), 1, "{f:?}");
        // Each file alone is acyclic.
        assert!(lock_order_findings(&lock_order_edges(Path::new("a.rs"), file_a)).is_empty());
        assert!(lock_order_findings(&lock_order_edges(Path::new("b.rs"), file_b)).is_empty());
    }

    /// A listed lock-order file that is not in the tree is reported, not
    /// skipped: a rename must not silently shrink the rule's coverage.
    #[test]
    fn a_listed_lock_order_file_that_is_missing_is_a_finding() {
        let root = std::env::temp_dir().join(format!("tgraph-lint-missing-{}", std::process::id()));
        let src = root.join("crates/core/src");
        std::fs::create_dir_all(&src).expect("create tree");
        std::fs::write(src.join("here.rs"), "fn f() {}\n").expect("write source");
        let listed = ["crates/core/src/here.rs", "crates/core/src/gone.rs"];
        let f = lint_workspace_with(&root, &listed);
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "lock-order");
        assert_eq!(f[0].file, Path::new("crates/core/src/gone.rs"));
        assert!(
            f[0].message.contains("LOCK_ORDER_FILES"),
            "{}",
            f[0].message
        );
    }
}
