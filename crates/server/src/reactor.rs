//! Connections: the reactors that own sockets and the dispatchers that run
//! their request batches. [`crate::eventloop`] starts and stops these
//! threads and feeds them accepted connections; its module docs describe
//! how the pieces fit. The per-connection locks and the reactors' inboxes
//! are taken in this module only.

use crate::handoff::HandOff;
use crate::metrics::ServerMetrics;
use crate::render::{error_response, Reply};
use crate::server::{Server, MAX_LINE_BYTES};
use polling::{Event, Events, Poller};
use std::collections::{HashMap, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tgraph_dataflow::lock_unpoisoned;

/// Bytes read from a socket per `read(2)` call.
const READ_CHUNK: usize = 16 * 1024;
/// Write-buffer high-water mark: above this backlog the connection stops
/// reading and dispatching until the client drains its responses.
const WRITE_HWM: usize = 256 * 1024;
/// Most backlog chunks handed to one `write_vectored` call.
const MAX_SLICES: usize = 16;
/// Most request lines dispatched as one batch.
const MAX_BATCH: usize = 64;
/// Parsed-but-undispatched lines a connection may hold before its reads
/// pause. Bounds per-connection memory under a pipelining firehose.
const MAX_PENDING: usize = 1024;
/// How often a reactor with paused connections re-checks the admission
/// gate and the memory governor. Only paused reactors tick; idle ones
/// block indefinitely.
const BACKPRESSURE_TICK: Duration = Duration::from_millis(50);
/// How long a reactor keeps flushing in-flight responses after shutdown.
const DRAIN_GRACE: Duration = Duration::from_millis(500);

/// One parsed unit of the per-connection pending queue. Synthetic entries
/// are pre-formed responses (e.g. for a non-UTF-8 line) that flow through
/// the same queue as real requests so responses stay in arrival order.
enum PendingLine {
    Request(String),
    Synthetic(String),
}

/// Connection state shared between the owning reactor and dispatchers.
struct ConnShared {
    state: Mutex<ConnState>,
}

/// One piece of a connection's write backlog.
enum Chunk {
    /// Bytes the connection owns: heads, whole small responses and
    /// newlines, coalesced into one buffer while they arrive back to back.
    Owned(Vec<u8>),
    /// A zoom result shared with the result cache, written in place.
    Shared(Arc<str>),
}

impl Chunk {
    fn bytes(&self) -> &[u8] {
        match self {
            Chunk::Owned(buf) => buf,
            Chunk::Shared(body) => body.as_bytes(),
        }
    }
}

#[derive(Default)]
struct ConnState {
    /// Response bytes awaiting the socket, in order; `out_pos` marks how
    /// much of the front chunk is already written (partial-write
    /// continuation) and `queued` how many bytes are left in all of them.
    out: VecDeque<Chunk>,
    out_pos: usize,
    queued: usize,
    /// The last fully written owned buffer, if it was small: the next
    /// owned chunk starts in it instead of in a fresh allocation.
    spare: Vec<u8>,
    /// Complete frames parsed but not yet dispatched.
    pending: VecDeque<PendingLine>,
    /// Whether a batch from this connection is on a dispatcher right now.
    /// At most one: ordering depends on it.
    dispatching: bool,
    /// Close once everything queued and buffered has been answered and
    /// written (set by client EOF, a cap overflow, or a handler panic).
    close_when_done: bool,
}

impl ConnState {
    fn backlog(&self) -> usize {
        self.queued
    }

    /// Queues one response line. Text is copied in, coalesced with the
    /// owned bytes already at the back; a zoom result is queued by
    /// reference, so the cache's allocation is what gets written.
    fn push_reply(&mut self, reply: Reply) {
        match reply {
            Reply::Text(text) => self.push_owned(text.as_bytes()),
            Reply::Zoom { head, body } => {
                self.push_owned(head.as_bytes());
                self.queued += body.len();
                self.out.push_back(Chunk::Shared(body));
                self.push_owned(b"}");
            }
        }
        self.push_owned(b"\n");
    }

    fn push_owned(&mut self, bytes: &[u8]) {
        self.queued += bytes.len();
        if let Some(Chunk::Owned(tail)) = self.out.back_mut() {
            tail.extend_from_slice(bytes);
        } else {
            let mut buf = std::mem::take(&mut self.spare);
            buf.extend_from_slice(bytes);
            self.out.push_back(Chunk::Owned(buf));
        }
    }

    /// Writes the front of the backlog to `w` in one vectored call of at
    /// most [`MAX_SLICES`] chunks and drops what was taken, continuing a
    /// partial write at any byte of any chunk. Returns the bytes written.
    fn write_to(&mut self, w: &mut impl Write) -> std::io::Result<usize> {
        let mut slices = [IoSlice::new(&[]); MAX_SLICES];
        let mut count = 0;
        for (slot, chunk) in slices.iter_mut().zip(&self.out) {
            let skip = if count == 0 { self.out_pos } else { 0 };
            *slot = IoSlice::new(&chunk.bytes()[skip..]);
            count += 1;
        }
        let written = w.write_vectored(&slices[..count])?;
        self.consume(written);
        Ok(written)
    }

    /// Drops `n` written bytes from the front. A fully written chunk goes:
    /// a shared body releases its reference, and an owned buffer is kept
    /// as the spare only if it is small. One large response (bodies reach
    /// megabytes) must not pin its capacity for the connection's lifetime —
    /// across thousands of parked connections that retention is unbounded.
    fn consume(&mut self, mut n: usize) {
        self.queued -= n;
        while let Some(front) = self.out.front() {
            let left = front.bytes().len() - self.out_pos;
            if n < left {
                self.out_pos += n;
                return;
            }
            n -= left;
            self.out_pos = 0;
            if let Some(Chunk::Owned(mut buf)) = self.out.pop_front() {
                if buf.capacity() <= WRITE_HWM {
                    buf.clear();
                    self.spare = buf;
                }
            }
        }
    }

    /// Nothing queued, executing, or buffered.
    fn is_idle(&self) -> bool {
        !self.dispatching && self.pending.is_empty() && self.backlog() == 0
    }
}

/// A reactor's cross-thread surface: the poller it parks in, connections
/// handed over by the accept loop, and tokens nudged by dispatchers.
pub(crate) struct ReactorShared {
    pub(crate) poller: Arc<Poller>,
    incoming: Mutex<Vec<TcpStream>>,
    ready: Mutex<Vec<usize>>,
}

impl ReactorShared {
    pub(crate) fn new() -> std::io::Result<Arc<ReactorShared>> {
        Ok(Arc::new(ReactorShared {
            poller: Arc::new(Poller::new()?),
            incoming: Mutex::new(Vec::new()),
            ready: Mutex::new(Vec::new()),
        }))
    }

    /// Hands an accepted connection to this reactor and wakes it.
    pub(crate) fn adopt(&self, stream: TcpStream) {
        lock_unpoisoned(&self.incoming).push(stream);
        let _ = self.poller.notify();
    }

    /// Marks `token` as having made progress (new response bytes, or its
    /// batch completed) and wakes the reactor to act on it.
    fn push_ready(&self, token: usize) {
        lock_unpoisoned(&self.ready).push(token);
        let _ = self.poller.notify();
    }
}

/// A batch of frames travelling to a dispatcher.
pub(crate) struct Job {
    token: usize,
    lines: Vec<PendingLine>,
    conn: Arc<ConnShared>,
    reactor: Arc<ReactorShared>,
}

/// The dispatch path a batch's request lines run through:
/// [`Server::handle`] in service, a stand-in under test.
pub(crate) type LineHandler<'a> = dyn Fn(&str) -> Reply + 'a;

/// A connection as its owning reactor sees it.
struct Conn {
    stream: TcpStream,
    shared: Arc<ConnShared>,
    /// Bytes received but not yet split at a newline.
    rbuf: Vec<u8>,
    /// Reads stopped for good (client EOF or fatal input); the connection
    /// survives until its queue and write buffer drain.
    eof: bool,
    /// Read interest currently withheld by backpressure (not by EOF).
    paused: bool,
}

struct Reactor {
    server: Arc<Server>,
    shared: Arc<ReactorShared>,
    jobs: Arc<HandOff<Job>>,
    conns: HashMap<usize, Conn>,
    /// Monotonic token source: tokens are never reused, so a stale ready
    /// nudge for a closed connection cannot alias a new one.
    next_token: usize,
    /// Connections currently read-paused by backpressure.
    paused_conns: usize,
    /// Whether the admission gate is saturated or the memory governor over
    /// budget, sampled once per loop pass.
    saturated: bool,
}

/// The reactor: parks in its poller, then acts on whichever of its inputs
/// fired — socket readiness, adopted connections, dispatcher progress
/// nudges — and re-arms interest to match each connection's state.
pub(crate) fn reactor_loop(
    server: Arc<Server>,
    shared: Arc<ReactorShared>,
    jobs: Arc<HandOff<Job>>,
) {
    let mut r = Reactor {
        server,
        shared,
        jobs,
        conns: HashMap::new(),
        next_token: 0,
        paused_conns: 0,
        saturated: false,
    };
    let mut events = Events::new();
    loop {
        // Idle and unpaused: block forever (zero CPU; a notify wakes us).
        // Paused: tick, because saturation clearing does not send a notify.
        let timeout = (r.paused_conns > 0).then_some(BACKPRESSURE_TICK);
        let _ = r.shared.poller.wait(&mut events, timeout);
        if r.server.is_shutting_down() {
            break;
        }
        reactor_adopt_incoming(&mut r);
        let was_saturated = r.saturated;
        r.saturated = r.server.admission.is_saturated() || r.server.rt.governor().over_budget();
        for ev in events.iter() {
            reactor_event(&mut r, ev);
        }
        let ready: Vec<usize> = std::mem::take(&mut *lock_unpoisoned(&r.shared.ready));
        for token in ready {
            reactor_progress(&mut r, token);
        }
        if (was_saturated || r.paused_conns > 0) && !r.saturated {
            reactor_resume_paused(&mut r);
        }
    }
    reactor_drain(&mut r, &mut events);
}

/// Registers connections the accept loop handed over.
fn reactor_adopt_incoming(r: &mut Reactor) {
    let incoming: Vec<TcpStream> = std::mem::take(&mut *lock_unpoisoned(&r.shared.incoming));
    for stream in incoming {
        let token = r.next_token;
        r.next_token += 1;
        if r.shared
            .poller
            .add(&stream, Event::readable(token))
            .is_err()
        {
            continue; // dropping the stream closes it
        }
        r.conns.insert(
            token,
            Conn {
                stream,
                shared: Arc::new(ConnShared {
                    state: Mutex::new(ConnState::default()),
                }),
                rbuf: Vec::new(),
                eof: false,
                paused: false,
            },
        );
    }
}

/// Handles one readiness event: continue the write, drain the read, then
/// settle the connection.
fn reactor_event(r: &mut Reactor, ev: Event) {
    let Some(conn) = r.conns.get_mut(&ev.key) else {
        return; // raced with close; tokens are never reused
    };
    let mut alive = true;
    if ev.writable {
        alive = reactor_flush(conn);
    }
    if alive && ev.readable && !conn.eof {
        alive = reactor_read(&r.server, conn);
    }
    reactor_settle(r, ev.key, alive);
}

/// Acts on a dispatcher nudge: new response bytes to flush, or a completed
/// batch freeing the connection for its next one. The flush comes first
/// because a backlog over [`WRITE_HWM`] holds the next batch back.
fn reactor_progress(r: &mut Reactor, token: usize) {
    let Some(conn) = r.conns.get_mut(&token) else {
        return;
    };
    let alive = reactor_flush(conn);
    reactor_settle(r, token, alive);
}

/// Brings one connection's state and poller interest up to date after
/// anything happened to it: dispatch what is pending, flush what is
/// buffered, then close it if it is finished (or `alive` is already false)
/// and re-arm it otherwise.
fn reactor_settle(r: &mut Reactor, token: usize, mut alive: bool) {
    let Some(conn) = r.conns.get_mut(&token) else {
        return;
    };
    if alive {
        reactor_try_dispatch(&r.server, &r.shared, &r.jobs, conn, token, r.saturated);
        // Flushing eagerly (instead of waiting for a writable event) saves
        // a poll roundtrip on the common small-response path.
        alive = reactor_flush(conn) && !reactor_conn_done(conn);
    }
    if alive {
        reactor_rearm(
            &r.shared,
            conn,
            token,
            r.saturated,
            &mut r.paused_conns,
            &r.server.metrics,
        );
    } else {
        reactor_close(r, token);
    }
}

/// Drains the socket into the read buffer and splits complete frames into
/// the pending queue. Returns `false` when the connection must close now.
fn reactor_read(server: &Arc<Server>, conn: &mut Conn) -> bool {
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => {
                // Half-close: answer everything already queued, then close.
                conn.eof = true;
                lock_unpoisoned(&conn.shared.state).close_when_done = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                reactor_split_frames(server, conn);
                if conn.eof {
                    break; // a fatal frame stopped further reads
                }
                let pending = lock_unpoisoned(&conn.shared.state).pending.len();
                if pending >= MAX_PENDING {
                    break; // stop reading; the queue must drain first
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    true
}

/// Splits `rbuf` at newlines into pending frames, enforcing the line cap
/// and answering non-UTF-8 lines with a typed error (in order, via a
/// synthetic queue entry). Cap overflows keep the connection alive just
/// long enough to deliver their typed refusal.
fn reactor_split_frames(server: &Arc<Server>, conn: &mut Conn) {
    let mut start = 0usize;
    let mut st = lock_unpoisoned(&conn.shared.state);
    while let Some(nl) = conn.rbuf[start..].iter().position(|&b| b == b'\n') {
        let frame = &conn.rbuf[start..start + nl];
        start += nl + 1;
        if frame.len() > MAX_LINE_BYTES {
            ServerMetrics::bump(&server.metrics.lines_over_cap);
            st.pending
                .push_back(PendingLine::Synthetic(line_too_large_response()));
            st.close_when_done = true;
            conn.eof = true; // stop reading; the refusal still flows out
            break;
        }
        match std::str::from_utf8(frame) {
            Ok(text) => {
                let text = text.trim();
                if !text.is_empty() {
                    st.pending.push_back(PendingLine::Request(text.to_string()));
                }
            }
            Err(_) => {
                // Answer through the pending queue so the response keeps
                // its place in the pipeline's ordering.
                ServerMetrics::bump(&server.metrics.bad_requests);
                st.pending
                    .push_back(PendingLine::Synthetic(invalid_utf8_response()));
            }
        }
    }
    drop(st);
    conn.rbuf.drain(..start);
    if conn.rbuf.len() > MAX_LINE_BYTES {
        // An unterminated line already over the cap can never complete
        // legally: refuse it and stop reading.
        ServerMetrics::bump(&server.metrics.lines_over_cap);
        let mut st = lock_unpoisoned(&conn.shared.state);
        st.pending
            .push_back(PendingLine::Synthetic(line_too_large_response()));
        st.close_when_done = true;
        drop(st);
        conn.eof = true;
        conn.rbuf = Vec::new();
    }
}

/// The typed refusal for a request line over the size cap.
fn line_too_large_response() -> String {
    error_response(
        "line_too_large",
        &format!("request line exceeds the {MAX_LINE_BYTES}-byte cap"),
    )
}

/// The typed refusal for a request line that is not valid UTF-8.
fn invalid_utf8_response() -> String {
    error_response("bad_request", "request line is not valid UTF-8")
}

/// Hands the next batch of pending frames to a dispatcher, unless one is
/// already in flight for this connection, the client is not draining its
/// responses, or the server is saturated (gate or memory budget).
fn reactor_try_dispatch(
    server: &Arc<Server>,
    shared: &Arc<ReactorShared>,
    jobs: &HandOff<Job>,
    conn: &mut Conn,
    token: usize,
    saturated: bool,
) {
    let mut st = lock_unpoisoned(&conn.shared.state);
    if st.dispatching || st.pending.is_empty() || st.backlog() >= WRITE_HWM {
        return;
    }
    if saturated && !conn.eof {
        // Global backpressure: hold the batch (and, via rearm, the reads).
        // EOF'd connections still drain — they can't grow the queue.
        return;
    }
    let n = st.pending.len().min(MAX_BATCH);
    let lines: Vec<PendingLine> = st.pending.drain(..n).collect();
    st.dispatching = true;
    drop(st);
    ServerMetrics::bump(&server.metrics.pipelined_batches);
    server
        .metrics
        .pipelined_lines
        .fetch_add(n as u64, std::sync::atomic::Ordering::Relaxed);
    jobs.submit(Job {
        token,
        lines,
        conn: Arc::clone(&conn.shared),
        reactor: Arc::clone(shared),
    });
}

/// Continues writing the response backlog until it drains or the socket
/// would block. Returns `false` when the connection must close now.
fn reactor_flush(conn: &mut Conn) -> bool {
    loop {
        let mut st = lock_unpoisoned(&conn.shared.state);
        if st.backlog() == 0 {
            return true;
        }
        // The write is nonblocking, so holding the state lock across it is
        // bounded; dispatchers appending concurrently wait at most one
        // syscall: one `write_vectored`, not a loop of them.
        match st.write_to(&mut &conn.stream) {
            Ok(0) => return false,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Whether a close-marked connection has finished its goodbyes.
fn reactor_conn_done(conn: &Conn) -> bool {
    let st = lock_unpoisoned(&conn.shared.state);
    st.close_when_done && st.is_idle()
}

/// Re-arms poller interest to mirror the connection's state: read while
/// we're willing to take more input, write while a backlog waits. A
/// connection wanting neither stays registered but disarmed (oneshot
/// delivery already disarmed it) until progress or a tick revisits it.
fn reactor_rearm(
    shared: &Arc<ReactorShared>,
    conn: &mut Conn,
    token: usize,
    saturated: bool,
    paused_conns: &mut usize,
    metrics: &ServerMetrics,
) {
    let (backlog, pending, closing) = {
        let st = lock_unpoisoned(&conn.shared.state);
        (st.backlog(), st.pending.len(), st.close_when_done)
    };
    let want_read =
        !conn.eof && !closing && !saturated && pending < MAX_PENDING && backlog < WRITE_HWM;
    let want_write = backlog > 0;
    let now_paused = !want_read && !conn.eof && !closing;
    if now_paused && !conn.paused {
        *paused_conns += 1;
        ServerMetrics::bump(&metrics.backpressure_pauses);
    } else if !now_paused && conn.paused {
        *paused_conns -= 1;
    }
    conn.paused = now_paused;
    let _ = shared.poller.modify(
        &conn.stream,
        Event {
            key: token,
            readable: want_read,
            writable: want_write,
        },
    );
}

/// Revisits paused connections once saturation clears: dispatch
/// what queued up and re-arm reads.
fn reactor_resume_paused(r: &mut Reactor) {
    let paused: Vec<usize> = r
        .conns
        .iter()
        .filter(|(_, c)| c.paused)
        .map(|(&t, _)| t)
        .collect();
    for token in paused {
        reactor_settle(r, token, true);
    }
}

/// Deregisters and drops a connection (closing the socket). Late
/// dispatcher nudges for its token find no entry and are ignored.
fn reactor_close(r: &mut Reactor, token: usize) {
    if let Some(conn) = r.conns.remove(&token) {
        if conn.paused {
            r.paused_conns -= 1;
        }
        let _ = r.shared.poller.delete(&conn.stream);
    }
}

/// Post-shutdown grace: stop reading, but keep flushing responses already
/// earned — the `shutdown` acknowledgement itself travels this path — for
/// at most [`DRAIN_GRACE`].
fn reactor_drain(r: &mut Reactor, events: &mut Events) {
    let deadline = Instant::now() + DRAIN_GRACE;
    loop {
        let all_done = {
            let conns = &r.conns;
            conns
                .values()
                .all(|c| lock_unpoisoned(&c.shared.state).is_idle())
        };
        if all_done || Instant::now() >= deadline {
            break;
        }
        let _ = r
            .shared
            .poller
            .wait(events, Some(Duration::from_millis(10)));
        let ready: Vec<usize> = std::mem::take(&mut *lock_unpoisoned(&r.shared.ready));
        for token in ready {
            if let Some(conn) = r.conns.get_mut(&token) {
                if !reactor_flush(conn) {
                    reactor_close(r, token);
                }
            }
        }
        // Writable events may also be carrying the last partial write.
        for ev in events.iter() {
            if let Some(conn) = r.conns.get_mut(&ev.key) {
                let _ = reactor_flush(conn);
            }
        }
    }
    // Dropping the map closes every socket.
    r.conns.clear();
}

/// Dispatcher `me`: runs batches until the hand-off closes. It re-enters
/// the idle stack *before* releasing the connection it served, so the
/// batch that release lets the reactor submit comes straight back here.
pub(crate) fn dispatcher_loop(jobs: &HandOff<Job>, me: usize, handle: &LineHandler<'_>) {
    let mut next = jobs.take_or_idle(me);
    while let Some(job) = next.or_else(|| jobs.wait(me)) {
        run_batch(&job, handle);
        next = jobs.take_or_idle(me);
        lock_unpoisoned(&job.conn.state).dispatching = false;
        job.reactor.push_ready(job.token);
    }
}

/// Executes one batch: every line through the dispatch path, in order.
/// Each response nudges the reactor as soon as it is made — never held
/// until the batch ends — so a pipelining client reads its first answers
/// while later lines of the batch still execute.
///
/// A handler panic (the pool load runs outside the zoom's own
/// `catch_unwind`, and a failed spill write during it panics the wave by
/// design) is contained here: that line is answered with a typed
/// `internal` error and the connection closes once everything queued has
/// been answered. Escaping instead would kill one of a fixed set of
/// dispatchers and leave `dispatching` set, hanging the connection.
fn run_batch(job: &Job, handle: &LineHandler<'_>) {
    for item in &job.lines {
        match item {
            PendingLine::Request(line) => match catch_unwind(AssertUnwindSafe(|| handle(line))) {
                Ok(reply) => push_response(job, reply),
                Err(_) => {
                    let refusal = error_response("internal", "request handler panicked; closing");
                    push_response(job, refusal.into());
                    lock_unpoisoned(&job.conn.state).close_when_done = true;
                }
            },
            PendingLine::Synthetic(resp) => push_response(job, Reply::Text(resp.clone())),
        }
    }
}

/// Queues one response line on the connection's write backlog and wakes
/// its reactor to flush it.
fn push_response(job: &Job, reply: Reply) {
    lock_unpoisoned(&job.conn.state).push_reply(reply);
    job.reactor.push_ready(job.token);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::testutil::{server_over_figure1, zoom_line};

    fn conn_and_reactor() -> (Arc<ConnShared>, Arc<ReactorShared>) {
        let conn = Arc::new(ConnShared {
            state: Mutex::new(ConnState {
                dispatching: true,
                ..ConnState::default()
            }),
        });
        let reactor = Arc::new(ReactorShared {
            poller: Arc::new(Poller::new().expect("poller")),
            incoming: Mutex::new(Vec::new()),
            ready: Mutex::new(Vec::new()),
        });
        (conn, reactor)
    }

    fn job(
        token: usize,
        lines: &[&str],
        conn: &Arc<ConnShared>,
        reactor: &Arc<ReactorShared>,
    ) -> Job {
        Job {
            token,
            lines: lines
                .iter()
                .map(|l| PendingLine::Request(l.to_string()))
                .collect(),
            conn: Arc::clone(conn),
            reactor: Arc::clone(reactor),
        }
    }

    /// Echoes every line except `boom`, which panics like a failed spill
    /// write inside the pool load does.
    fn echo_or_panic(line: &str) -> Reply {
        if line == "boom" {
            panic!("injected handler panic");
        }
        format!("echo {line}").into()
    }

    fn written(conn: &ConnShared) -> String {
        let st = lock_unpoisoned(&conn.state);
        let bytes: Vec<u8> = st.out.iter().flat_map(Chunk::bytes).copied().collect();
        String::from_utf8(bytes).expect("utf8")
    }

    /// A socket that takes 1-7 bytes per call, spread over as many of the
    /// offered slices as that covers: every partial write a kernel could
    /// make, at every chunk boundary.
    #[derive(Default)]
    struct Stingy {
        taken: Vec<u8>,
        calls: usize,
        widest: usize,
    }

    impl Write for Stingy {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            self.widest = self.widest.max(bufs.len());
            let mut budget = 1 + self.calls % 7;
            let before = self.taken.len();
            for buf in bufs {
                let n = buf.len().min(budget);
                self.taken.extend_from_slice(&buf[..n]);
                budget -= n;
                if budget == 0 {
                    break;
                }
            }
            Ok(self.taken.len() - before)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn drain(st: &mut ConnState, w: &mut impl Write) {
        while st.backlog() > 0 {
            assert!(st.write_to(w).expect("write") > 0, "stalled with a backlog");
        }
    }

    fn zoom_reply(head: &str, body: &Arc<str>) -> Reply {
        Reply::Zoom {
            head: head.to_string(),
            body: Arc::clone(body),
        }
    }

    #[test]
    fn partial_writes_deliver_every_reply_whole_and_in_order() {
        let body: Arc<str> = (0..300).map(|i| format!("{i},")).collect::<String>().into();
        let other: Arc<str> = Arc::from("{\"vertices\":[]}");
        let mut st = ConnState::default();
        let mut expected = String::new();
        for i in 0..24 {
            let reply = match i % 3 {
                0 => Reply::Text(format!("{{\"ok\":false,\"n\":{i}}}")),
                1 => zoom_reply(&format!("{{\"n\":{i},\"result\":"), &body),
                _ => zoom_reply("{\"result\":", &other),
            };
            let text = match &reply {
                Reply::Text(text) => text.clone(),
                Reply::Zoom { head, body } => format!("{head}{body}}}"),
            };
            expected.push_str(&text);
            expected.push('\n');
            st.push_reply(reply);
            assert_eq!(st.backlog(), expected.len(), "reply {i}");
        }
        assert!(st.out.len() > MAX_SLICES, "the queue outgrows one call");

        let mut socket = Stingy::default();
        drain(&mut st, &mut socket);
        assert_eq!(String::from_utf8(socket.taken).expect("utf8"), expected);
        assert_eq!(socket.widest, MAX_SLICES, "one call offers up to 16 chunks");
        assert!(st.out.is_empty() && st.out_pos == 0);
        assert_eq!(Arc::strong_count(&body), 1, "written bodies are released");
        assert_eq!(Arc::strong_count(&other), 1);
    }

    #[test]
    fn drained_backlog_holds_no_body_and_no_large_buffer_and_reuses_a_small_one() {
        let mut st = ConnState::default();
        let body: Arc<str> = "x".repeat(3 << 20).into();
        st.push_reply(Reply::Text("y".repeat(3 << 20)));
        st.push_reply(zoom_reply("{\"result\":", &body));
        drain(&mut st, &mut Vec::new());
        assert!(st.out.is_empty() && st.backlog() == 0);
        assert_eq!(
            Arc::strong_count(&body),
            1,
            "no body reference outlives its write"
        );
        assert!(
            st.spare.capacity() <= WRITE_HWM,
            "a 3 MiB response must not pin its buffer: {} bytes kept",
            st.spare.capacity()
        );

        st.push_reply(Reply::Text("z".repeat(4096)));
        drain(&mut st, &mut Vec::new());
        let (kept, at) = (st.spare.capacity(), st.spare.as_ptr());
        assert!(kept > 4096);
        st.push_reply(Reply::Text("small".to_string()));
        match st.out.front() {
            Some(Chunk::Owned(buf)) => assert_eq!(buf.as_ptr(), at, "small buffers are reused"),
            _ => panic!("a text reply queues owned bytes"),
        }
        drain(&mut st, &mut Vec::new());
        assert_eq!(st.spare.capacity(), kept);
    }

    #[test]
    fn handler_panic_answers_internal_and_marks_the_connection_closing() {
        let (conn, reactor) = conn_and_reactor();
        run_batch(
            &job(7, &["a", "boom", "c"], &conn, &reactor),
            &echo_or_panic,
        );

        let lines: Vec<String> = written(&conn).lines().map(str::to_string).collect();
        assert_eq!(lines.len(), 3, "one answer per request line: {lines:?}");
        assert_eq!(lines[0], "echo a");
        assert!(lines[1].contains("\"kind\":\"internal\""), "{}", lines[1]);
        assert_eq!(lines[2], "echo c", "the rest of the batch is still served");
        assert!(lock_unpoisoned(&conn.state).close_when_done);
        assert!(
            lock_unpoisoned(&reactor.ready).contains(&7),
            "the reactor was nudged to flush"
        );
    }

    /// A zoom's admission slot is free again by the next line of its batch:
    /// the stats line after a cold zoom sees nothing in flight.
    #[test]
    fn a_batched_zoom_holds_no_slot_once_it_has_answered() {
        let server = server_over_figure1("unit-batch-permit");
        let (conn, reactor) = conn_and_reactor();
        let zoom = zoom_line("unit-batch-permit", "");
        run_batch(
            &job(3, &[&zoom, r#"{"op":"stats"}"#], &conn, &reactor),
            &|line| server.handle(line),
        );

        let answers = written(&conn);
        let lines: Vec<&str> = answers.lines().collect();
        assert!(lines[0].contains("\"cache\":\"miss\""), "{}", lines[0]);
        let stats = crate::json::parse(lines[1]).expect("stats json");
        let admission = |key: &str| stats.get("admission")?.get(key)?.as_i64();
        assert_eq!(admission("inflight"), Some(0), "{}", lines[1]);
        assert_eq!(admission("admitted"), Some(1), "{}", lines[1]);
    }

    /// A pool of one dispatcher: if the panic escaped `run_batch` the thread
    /// would be gone and the second batch would never run; if `dispatching`
    /// stayed set the first connection would hang forever.
    #[test]
    fn dispatcher_survives_a_panicking_batch_and_releases_its_connection() {
        let jobs = HandOff::new(1);
        let (first, reactor) = conn_and_reactor();
        let (second, _) = conn_and_reactor();
        jobs.submit(job(1, &["boom"], &first, &reactor));
        jobs.submit(job(2, &["after"], &second, &reactor));
        jobs.close();
        dispatcher_loop(&jobs, 0, &echo_or_panic);

        assert!(written(&first).contains("\"kind\":\"internal\""));
        assert_eq!(written(&second), "echo after\n");
        for conn in [&first, &second] {
            assert!(!lock_unpoisoned(&conn.state).dispatching);
        }
        assert!(lock_unpoisoned(&first.state).close_when_done);
        assert!(!lock_unpoisoned(&second.state).close_when_done);
    }
}
