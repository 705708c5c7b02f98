//! The connection layer: nonblocking reactors with request pipelining and
//! admission-coupled backpressure. [`Server::serve`] runs this module and
//! nothing else reads or writes a client socket; request dispatch lives in
//! [`crate::server`] and never touches one.
//!
//! A fixed set of threads serves any number of connections:
//!
//! * **Accept loop** (the caller's thread): accepts nonblockingly, parks in
//!   its own poller between bursts, and hands each connection to a reactor
//!   round-robin. Transient accept errors back off and retry; fatal ones
//!   set the shutdown flag before returning so nothing leaks.
//! * **Reactors** (`min(4, cores)`): each owns a [`polling::Poller`] and
//!   every connection assigned to it. A readable event drains the socket
//!   into a read buffer, splits complete NDJSON frames, and queues them; a
//!   writable event continues a partial write. Only the owning reactor ever
//!   touches a socket.
//! * **Dispatchers** (`max_inflight + 2`: enough to keep `max_inflight`
//!   queries executing while two more answer pings, stats and cache hits):
//!   execute queued request batches against the shared [`Server`] dispatch
//!   path and append responses to the connection's write buffer, nudging
//!   the reactor after every line — a `shard_exec` ack must reach the
//!   coordinator *before* the executing shard blocks in its first exchange
//!   wave, so responses are never held until a batch completes.
//!
//! **Hand-off.** Reactors pass batches to dispatchers through `HandOff`:
//! a batch goes to the *most recently idle* dispatcher, and only queues
//! when none is idle. A dispatcher re-enters the idle stack before it
//! releases the connection it just served, so a closed-loop client's next
//! batch lands on the thread that ran its last one. A FIFO channel rotated
//! one connection across every dispatcher, and each thread that has run a
//! zoom keeps its own malloc arena at that zoom's high-water mark: on the
//! benchmark's one-connection `serve_miss` the rotation peaked at 151–154
//! MiB resident, this hand-off at 115–119 (EXPERIMENTS.md, "One serve
//! loop").
//!
//! **Pipelining.** Many lines read in one syscall are parsed together and
//! dispatched as one batch (up to [`MAX_BATCH`] lines). The batch runs
//! serially on one dispatcher, so responses come back in request order —
//! the protocol's ordering contract — and a deadline-free zoom's admission
//! permit is carried to the next zoom of the batch instead of being
//! released and re-acquired ([`Server::handle_line_batched`]), amortizing
//! the admission handshake across the batch. Per connection at most one
//! batch is in flight; further parsed lines wait in the pending queue.
//!
//! **Backpressure, layer by layer.** When the admission gate reports
//! saturation ([`Admission::is_saturated`]: every slot taken with a queue
//! behind it, or the memory governor over budget) reactors stop *reading* —
//! bytes accumulate in kernel socket buffers and TCP pushes back on
//! clients, instead of the server buffering unboundedly in user space. The
//! same read-pause triggers per connection when its write backlog passes
//! [`WRITE_HWM`] (a client that won't read its responses) or its pending
//! queue passes [`MAX_PENDING`]. Paused reactors poll at a coarse tick to
//! notice the gate clearing; an idle, unpaused reactor blocks indefinitely
//! and costs zero CPU.
//!
//! [`Admission::is_saturated`]: crate::admission::Admission::is_saturated

use crate::admission::Permit;
use crate::metrics::ServerMetrics;
use crate::server::{error_response, Server};
use polling::{Event, Events, Poller};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tgraph_dataflow::lock_unpoisoned;

/// Bytes read from a socket per `read(2)` call.
const READ_CHUNK: usize = 16 * 1024;
/// Write-buffer high-water mark: above this backlog the connection stops
/// reading and dispatching until the client drains its responses.
const WRITE_HWM: usize = 256 * 1024;
/// Most request lines dispatched as one batch.
pub(crate) const MAX_BATCH: usize = 64;
/// Parsed-but-undispatched lines a connection may hold before its reads
/// pause. Bounds per-connection memory under a pipelining firehose.
const MAX_PENDING: usize = 1024;
/// How often a reactor with paused connections re-checks the admission
/// gate. Only paused reactors tick; idle ones block indefinitely.
const BACKPRESSURE_TICK: Duration = Duration::from_millis(50);
/// How long a reactor keeps flushing in-flight responses after shutdown.
const DRAIN_GRACE: Duration = Duration::from_millis(500);
/// First retry delay after a transient accept failure.
const ACCEPT_BACKOFF_FLOOR: Duration = Duration::from_millis(1);
/// Backoff cap: under sustained fd exhaustion the loop retries 10×/s, which
/// keeps the listener responsive the moment descriptors free up.
const ACCEPT_BACKOFF_CEIL: Duration = Duration::from_millis(100);

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

#[derive(Default)]
struct ConnState {
    /// Response bytes awaiting the socket; `out_pos` marks how much of it
    /// is already written (partial-write continuation).
    out: Vec<u8>,
    out_pos: usize,
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
        self.out.len() - self.out_pos
    }

    /// Resets a fully written buffer. One large response (bodies reach
    /// megabytes) must not pin its capacity for the connection's lifetime —
    /// across thousands of parked connections that retention is unbounded.
    fn reset_drained_out(&mut self) {
        if self.out.capacity() > WRITE_HWM {
            self.out = Vec::new();
        } else {
            self.out.clear();
        }
        self.out_pos = 0;
    }

    /// Nothing queued, executing, or buffered.
    fn is_idle(&self) -> bool {
        !self.dispatching && self.pending.is_empty() && self.backlog() == 0
    }
}

/// A reactor's cross-thread surface: the poller it parks in, connections
/// handed over by the accept loop, and tokens nudged by dispatchers.
struct ReactorShared {
    poller: Arc<Poller>,
    incoming: Mutex<Vec<TcpStream>>,
    ready: Mutex<Vec<usize>>,
}

impl ReactorShared {
    /// Marks `token` as having made progress (new response bytes, or its
    /// batch completed) and wakes the reactor to act on it.
    fn push_ready(&self, token: usize) {
        lock_unpoisoned(&self.ready).push(token);
        let _ = self.poller.notify();
    }
}

/// A batch of frames travelling to a dispatcher.
struct Job {
    token: usize,
    lines: Vec<PendingLine>,
    conn: Arc<ConnShared>,
    reactor: Arc<ReactorShared>,
}

/// The reactor→dispatcher hand-off: a batch goes to the most recently idle
/// dispatcher and queues only when none is idle (the module docs say why
/// most-recent-first).
struct HandOff {
    state: Mutex<HandOffState>,
    /// One condvar per dispatcher, so a submit wakes exactly the thread it
    /// picked.
    wake_cv: Vec<Condvar>,
}

struct HandOffState {
    /// Batches submitted while every dispatcher was busy, oldest first.
    queue: VecDeque<Job>,
    /// Idle dispatchers by index, most recently idle last.
    idle: Vec<usize>,
    /// Per dispatcher, the batch a submit popped it off `idle` for.
    handed: Vec<Option<Job>>,
    /// The reactors have exited: nothing further will be submitted.
    closed: bool,
}

impl HandOff {
    fn new(dispatchers: usize) -> HandOff {
        HandOff {
            state: Mutex::new(HandOffState {
                queue: VecDeque::new(),
                idle: Vec::with_capacity(dispatchers),
                handed: (0..dispatchers).map(|_| None).collect(),
                closed: false,
            }),
            wake_cv: (0..dispatchers).map(|_| Condvar::new()).collect(),
        }
    }

    /// Hands `job` to the most recently idle dispatcher, or queues it.
    fn submit(&self, job: Job) {
        let mut st = lock_unpoisoned(&self.state);
        match st.idle.pop() {
            Some(i) => {
                st.handed[i] = Some(job);
                self.wake_cv[i].notify_one();
            }
            None => st.queue.push_back(job),
        }
    }

    /// Dispatcher `me` is free: returns the oldest queued batch, or, with
    /// none waiting, enters `me` on the idle stack and returns `None`.
    fn take_or_idle(&self, me: usize) -> Option<Job> {
        let mut st = lock_unpoisoned(&self.state);
        let job = st.queue.pop_front();
        if job.is_none() {
            st.idle.push(me);
        }
        job
    }

    /// Blocks idle dispatcher `me` until a batch is handed to it; `None`
    /// once the hand-off is closed.
    fn wait(&self, me: usize) -> Option<Job> {
        let mut st = lock_unpoisoned(&self.state);
        loop {
            if let Some(job) = st.handed[me].take() {
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = self.wake_cv[me].wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Ends every dispatcher once it has run what was already submitted.
    fn close(&self) {
        lock_unpoisoned(&self.state).closed = true;
        for cv in &self.wake_cv {
            cv.notify_one();
        }
    }
}

/// The dispatch path a batch's request lines run through:
/// [`Server::handle_line_batched`] in service, a stand-in under test.
type LineHandler<'a> = dyn Fn(&str, &mut dyn FnMut(&str), &mut Option<Permit>) + 'a;

/// A connection as its owning reactor sees it.
struct Conn {
    stream: TcpStream,
    peer: Option<SocketAddr>,
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
    jobs: Arc<HandOff>,
    conns: HashMap<usize, Conn>,
    /// Monotonic token source: tokens are never reused, so a stale ready
    /// nudge for a closed connection cannot alias a new one.
    next_token: usize,
    /// Connections currently read-paused by backpressure.
    paused_conns: usize,
    /// The admission gate's saturation state, sampled once per loop pass.
    saturated: bool,
}

/// Serves connections until shutdown. Fails before accepting anything on
/// a platform with no poller backend.
pub(crate) fn serve(server: &Arc<Server>) -> std::io::Result<()> {
    let accept_poller = Arc::new(Poller::new()?);
    let n_reactors = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4);
    let n_dispatchers = server.config.max_inflight + 2;
    let jobs = Arc::new(HandOff::new(n_dispatchers));

    let mut shards: Vec<Arc<ReactorShared>> = Vec::with_capacity(n_reactors);
    let mut reactor_threads = Vec::with_capacity(n_reactors);
    for i in 0..n_reactors {
        let shared = Arc::new(ReactorShared {
            poller: Arc::new(Poller::new()?),
            incoming: Mutex::new(Vec::new()),
            ready: Mutex::new(Vec::new()),
        });
        shards.push(Arc::clone(&shared));
        let server = Arc::clone(server);
        let jobs = Arc::clone(&jobs);
        reactor_threads.push(
            std::thread::Builder::new()
                .name(format!("tgraph-reactor-{i}"))
                .spawn(move || reactor_loop(server, shared, jobs))?,
        );
    }

    let mut dispatcher_threads = Vec::with_capacity(n_dispatchers);
    for i in 0..n_dispatchers {
        let server = Arc::clone(server);
        let jobs = Arc::clone(&jobs);
        dispatcher_threads.push(
            std::thread::Builder::new()
                .name(format!("tgraph-dispatch-{i}"))
                .spawn(move || {
                    dispatcher_loop(&jobs, i, &|line, out, permit| {
                        server.handle_line_batched(line, out, permit)
                    })
                })?,
        );
    }

    // Park every loop poller where request_shutdown can notify it, so a
    // `shutdown` request wakes all threads immediately.
    {
        let mut pollers = lock_unpoisoned(&server.loop_pollers);
        pollers.push(Arc::clone(&accept_poller));
        for shard in &shards {
            pollers.push(Arc::clone(&shard.poller));
        }
    }

    let result = accept_loop(server, &accept_poller, &shards);

    // The shutdown flag is set by now (a request, or a fatal accept error).
    // Reactors grace-drain and exit; with no submitter left, closing the
    // hand-off drains the dispatchers.
    for shard in &shards {
        let _ = shard.poller.notify();
    }
    for handle in reactor_threads {
        let _ = handle.join();
    }
    jobs.close();
    for handle in dispatcher_threads {
        let _ = handle.join();
    }
    lock_unpoisoned(&server.loop_pollers).clear();
    result
}

/// Accepts until shutdown, handing each connection to a reactor
/// round-robin. Transient failures back off and retry; fatal ones set the
/// shutdown flag first so reactors drain instead of leaking.
fn accept_loop(
    server: &Arc<Server>,
    poller: &Arc<Poller>,
    shards: &[Arc<ReactorShared>],
) -> std::io::Result<()> {
    poller.add(&server.listener, Event::readable(0))?;
    let mut events = Events::new();
    let mut backoff = ACCEPT_BACKOFF_FLOOR;
    let mut next_shard = 0usize;
    let result = loop {
        if server.is_shutting_down() {
            break Ok(());
        }
        match server.listener.accept() {
            Ok((stream, _peer)) => {
                backoff = ACCEPT_BACKOFF_FLOOR;
                let _ = stream.set_nonblocking(true);
                // Request/response over small lines: Nagle + delayed ACK
                // would add ~40ms per roundtrip otherwise.
                let _ = stream.set_nodelay(true);
                let shard = &shards[next_shard % shards.len()];
                next_shard = next_shard.wrapping_add(1);
                lock_unpoisoned(&shard.incoming).push(stream);
                let _ = shard.poller.notify();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Park until the listener is readable or shutdown notifies.
                let _ = poller.wait(&mut events, None);
                let _ = poller.modify(&server.listener, Event::readable(0));
            }
            Err(e) if accept_error_is_transient(&e) => {
                ServerMetrics::bump(&server.metrics.accept_errors);
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_CEIL);
            }
            Err(e) => {
                ServerMetrics::bump(&server.metrics.accept_errors);
                server.request_shutdown();
                break Err(e);
            }
        }
    };
    let _ = poller.delete(&server.listener);
    result
}

/// Whether an `accept(2)` failure is transient — worth backing off and
/// retrying — rather than a dead listener. Transient causes: descriptor
/// exhaustion (`EMFILE`/`ENFILE`), a connection that was reset or aborted
/// while still in the backlog, an interrupted syscall, or momentary kernel
/// memory pressure. Everything else (e.g. `EBADF`, `EINVAL`) means the
/// listening socket itself is gone.
fn accept_error_is_transient(e: &std::io::Error) -> bool {
    if matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::TimedOut
    ) {
        return true;
    }
    // Raw errnos with no stable `ErrorKind` mapping (Linux numbering):
    // ENOMEM(12), ENFILE(23), EMFILE(24), EPROTO(71), ENOBUFS(105).
    matches!(e.raw_os_error(), Some(12 | 23 | 24 | 71 | 105))
}

/// The reactor: parks in its poller, then acts on whichever of its inputs
/// fired — socket readiness, adopted connections, dispatcher progress
/// nudges — and re-arms interest to match each connection's state.
fn reactor_loop(server: Arc<Server>, shared: Arc<ReactorShared>, jobs: Arc<HandOff>) {
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
        // Paused: tick, because admission clearing does not send a notify.
        let timeout = (r.paused_conns > 0).then_some(BACKPRESSURE_TICK);
        let _ = r.shared.poller.wait(&mut events, timeout);
        if r.server.is_shutting_down() {
            break;
        }
        reactor_adopt_incoming(&mut r);
        let was_saturated = r.saturated;
        r.saturated = r.server.admission.is_saturated();
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
        let peer = stream.peer_addr().ok();
        r.conns.insert(
            token,
            Conn {
                stream,
                peer,
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
                if !reactor_split_frames(server, conn) {
                    return false;
                }
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
            Err(e) => {
                debug_log_peer(conn.peer, &format!("read failed mid-stream: {e}"));
                return false;
            }
        }
    }
    true
}

/// Splits `rbuf` at newlines into pending frames, enforcing the line cap
/// and answering non-UTF-8 lines with a typed error (in order, via a
/// synthetic queue entry). Returns `false` only for states with nothing
/// left to say; cap overflows keep the connection alive just long enough
/// to deliver their typed refusal.
fn reactor_split_frames(server: &Arc<Server>, conn: &mut Conn) -> bool {
    let max_line = server.config.max_line_bytes;
    let mut start = 0usize;
    let mut st = lock_unpoisoned(&conn.shared.state);
    while let Some(nl) = conn.rbuf[start..].iter().position(|&b| b == b'\n') {
        let frame = &conn.rbuf[start..start + nl];
        start += nl + 1;
        if frame.len() > max_line {
            ServerMetrics::bump(&server.metrics.lines_over_cap);
            st.pending
                .push_back(PendingLine::Synthetic(line_too_large_response(max_line)));
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
                debug_log_peer(conn.peer, "request line is not valid UTF-8");
                st.pending
                    .push_back(PendingLine::Synthetic(invalid_utf8_response()));
            }
        }
    }
    drop(st);
    conn.rbuf.drain(..start);
    if conn.rbuf.len() > max_line {
        // An unterminated line already over the cap can never complete
        // legally: refuse it and stop reading.
        ServerMetrics::bump(&server.metrics.lines_over_cap);
        let mut st = lock_unpoisoned(&conn.shared.state);
        st.pending
            .push_back(PendingLine::Synthetic(line_too_large_response(max_line)));
        st.close_when_done = true;
        drop(st);
        conn.eof = true;
        conn.rbuf = Vec::new();
    }
    true
}

/// The typed refusal for a request line over the size cap.
fn line_too_large_response(cap: usize) -> String {
    error_response(
        "line_too_large",
        &format!("request line exceeds the {cap}-byte cap"),
    )
}

/// The typed refusal for a request line that is not valid UTF-8.
fn invalid_utf8_response() -> String {
    error_response("bad_request", "request line is not valid UTF-8")
}

/// Logs peer-level protocol noise (malformed lines, mid-line disconnects)
/// to stderr when `TGRAPH_SERVE_DEBUG` is set. Off by default: a hostile
/// client must not be able to flood the server's log.
fn debug_log_peer(peer: Option<SocketAddr>, msg: &str) {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    if !*ENABLED.get_or_init(|| std::env::var_os("TGRAPH_SERVE_DEBUG").is_some()) {
        return;
    }
    match peer {
        Some(p) => eprintln!("tgraph-serve debug: peer {p}: {msg}"),
        None => eprintln!("tgraph-serve debug: peer <unknown>: {msg}"),
    }
}

/// Hands the next batch of pending frames to a dispatcher, unless one is
/// already in flight for this connection, the client is not draining its
/// responses, or the admission gate is saturated.
fn reactor_try_dispatch(
    server: &Arc<Server>,
    shared: &Arc<ReactorShared>,
    jobs: &HandOff,
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
            if st.out_pos > 0 {
                st.reset_drained_out();
            }
            return true;
        }
        // The write is nonblocking, so holding the state lock across it is
        // bounded; dispatchers appending concurrently wait at most one
        // syscall. lint:allow(reactor) — `write`, not `write_all`.
        match (&conn.stream).write(&st.out[st.out_pos..]) {
            Ok(0) => return false,
            Ok(n) => {
                st.out_pos += n;
                if st.out_pos == st.out.len() {
                    st.reset_drained_out();
                    return true;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                debug_log_peer(conn.peer, &format!("write failed: {e}"));
                return false;
            }
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

/// Revisits paused connections once the admission gate clears: dispatch
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
fn dispatcher_loop(jobs: &HandOff, me: usize, handle: &LineHandler<'_>) {
    let mut next = jobs.take_or_idle(me);
    while let Some(job) = next.or_else(|| jobs.wait(me)) {
        run_batch(&job, handle);
        next = jobs.take_or_idle(me);
        lock_unpoisoned(&job.conn.state).dispatching = false;
        job.reactor.push_ready(job.token);
    }
}

/// Executes one batch: every line through the dispatch path, in order,
/// with a batch-scoped admission slot. Each response line nudges the
/// reactor immediately — never held until the batch ends — because a
/// `shard_exec` ack must reach the coordinator before the executing shard
/// blocks in its exchange wave.
///
/// A handler panic (the pool load runs outside the zoom's own
/// `catch_unwind`, and a failed spill write during it panics the wave by
/// design) is contained here: that line is answered with a typed
/// `internal` error and the connection closes once everything queued has
/// been answered. Escaping instead would kill one of a fixed set of
/// dispatchers and leave `dispatching` set, hanging the connection.
fn run_batch(job: &Job, handle: &LineHandler<'_>) {
    let mut permit: Option<Permit> = None;
    for item in &job.lines {
        match item {
            PendingLine::Request(line) => {
                let mut out = |resp: &str| push_response(job, resp);
                let ran = catch_unwind(AssertUnwindSafe(|| handle(line, &mut out, &mut permit)));
                if ran.is_err() {
                    push_response(
                        job,
                        &error_response("internal", "request handler panicked; closing"),
                    );
                    lock_unpoisoned(&job.conn.state).close_when_done = true;
                }
            }
            PendingLine::Synthetic(resp) => push_response(job, resp),
        }
    }
    // Dropping `permit` releases the carried admission slot at batch end.
}

/// Appends one response line to the connection's write buffer and wakes
/// its reactor to flush it.
fn push_response(job: &Job, resp: &str) {
    {
        let mut st = lock_unpoisoned(&job.conn.state);
        st.out.reserve(resp.len() + 1);
        st.out.extend_from_slice(resp.as_bytes());
        st.out.push(b'\n');
    }
    job.reactor.push_ready(job.token);
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn echo_or_panic(line: &str, out: &mut dyn FnMut(&str), _permit: &mut Option<Permit>) {
        if line == "boom" {
            panic!("injected handler panic");
        }
        out(&format!("echo {line}"));
    }

    fn written(conn: &ConnShared) -> String {
        String::from_utf8(lock_unpoisoned(&conn.state).out.clone()).expect("utf8")
    }

    #[test]
    fn drained_write_buffer_releases_a_large_allocation_and_keeps_a_small_one() {
        let mut st = ConnState::default();
        st.out.extend_from_slice(&vec![b'x'; 3 << 20]);
        st.out_pos = st.out.len();
        st.reset_drained_out();
        assert_eq!((st.out.len(), st.out_pos), (0, 0));
        assert!(
            st.out.capacity() <= WRITE_HWM,
            "a 3 MiB response must not pin its buffer: {} bytes kept",
            st.out.capacity()
        );

        st.out.extend_from_slice(&[b'x'; 4096]);
        st.out_pos = st.out.len();
        let kept = st.out.capacity();
        st.reset_drained_out();
        assert_eq!((st.out.len(), st.out_pos), (0, 0));
        assert_eq!(st.out.capacity(), kept, "small buffers are reused");
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

    #[test]
    fn hand_off_prefers_the_most_recently_idle_dispatcher() {
        let jobs = HandOff::new(3);
        let (conn, reactor) = conn_and_reactor();
        for me in [0, 1, 2] {
            assert!(jobs.take_or_idle(me).is_none(), "nothing queued yet");
        }
        // 2 went idle last, so it is handed the batch; 0 and 1 stay parked.
        jobs.submit(job(10, &["x"], &conn, &reactor));
        assert_eq!(jobs.wait(2).expect("handed to 2").token, 10);
        // 2 re-enters on top and gets the next one again.
        assert!(jobs.take_or_idle(2).is_none());
        jobs.submit(job(11, &["y"], &conn, &reactor));
        assert_eq!(jobs.wait(2).expect("handed to 2 again").token, 11);

        // With nobody idle a batch queues, oldest first.
        jobs.submit(job(12, &["z"], &conn, &reactor)); // to 1
        jobs.submit(job(13, &["z"], &conn, &reactor)); // to 0
        jobs.submit(job(14, &["z"], &conn, &reactor)); // queued
        jobs.submit(job(15, &["z"], &conn, &reactor)); // queued
        assert_eq!(jobs.wait(1).expect("1").token, 12);
        assert_eq!(jobs.wait(0).expect("0").token, 13);
        assert_eq!(jobs.take_or_idle(2).expect("queued").token, 14);
        assert_eq!(jobs.take_or_idle(2).expect("queued").token, 15);

        jobs.close();
        assert!(jobs.take_or_idle(2).is_none());
        assert!(jobs.wait(2).is_none(), "closed and nothing handed");
    }
}
