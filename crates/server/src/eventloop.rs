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
//!   path and queue responses on the connection's write backlog, nudging
//!   the reactor after every line: a pipelining client reads each answer as
//!   soon as it is made, never held until its batch completes.
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
//! dispatched as one batch (up to `MAX_BATCH` lines). The batch runs
//! serially on one dispatcher, so responses come back in request order —
//! the protocol's ordering contract. Each zoom of the batch takes its own
//! admission permit at the execute stage and drops it when execution
//! returns, so the batch's hits, pings and stats never hold a slot. Per
//! connection at most one batch is in flight; further parsed lines wait in
//! the pending queue.
//!
//! **Backpressure, layer by layer.** While the admission gate reports
//! saturation ([`Admission::is_saturated`]: every slot taken with a queue
//! behind it) or the memory governor is over budget (exchanges in flight
//! charge more than `TGRAPH_MEM_BYTES`), reactors stop *reading* —
//! bytes accumulate in kernel socket buffers and TCP pushes back on
//! clients, instead of the server buffering unboundedly in user space. The
//! same read-pause triggers per connection when its write backlog passes
//! `WRITE_HWM` (a client that won't read its responses) or its pending
//! queue passes `MAX_PENDING`. Paused reactors poll at a coarse tick to
//! notice either clearing; an idle, unpaused reactor blocks indefinitely
//! and costs zero CPU.
//!
//! [`Admission::is_saturated`]: crate::admission::Admission::is_saturated

use crate::handoff::HandOff;
use crate::metrics::ServerMetrics;
use crate::reactor::{dispatcher_loop, reactor_loop, ReactorShared};
use crate::server::Server;
use polling::{Event, Events, Poller};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tgraph_dataflow::lock_unpoisoned;

/// First retry delay after a transient accept failure.
const ACCEPT_BACKOFF_FLOOR: Duration = Duration::from_millis(1);
/// Backoff cap: under sustained fd exhaustion the loop retries 10×/s, which
/// keeps the listener responsive the moment descriptors free up.
const ACCEPT_BACKOFF_CEIL: Duration = Duration::from_millis(100);

/// The listening socket and what stops the loop that serves it. Owned by
/// the [`Server`]; the pollers lock is taken in this module only.
pub(crate) struct Endpoint {
    pub(crate) listener: TcpListener,
    /// When the listener was bound: the server's uptime counts from here.
    pub(crate) bound_at: Instant,
    shutdown: AtomicBool,
    /// Pollers the serve loop's threads are blocked in;
    /// [`Endpoint::request_shutdown`] notifies each so accept and reactor
    /// threads wake without a poll interval.
    pollers: Mutex<Vec<Arc<Poller>>>,
}

impl Endpoint {
    pub(crate) fn bind(addr: &str) -> std::io::Result<Endpoint> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Endpoint {
            listener,
            bound_at: Instant::now(),
            shutdown: AtomicBool::new(false),
            pollers: Mutex::new(Vec::new()),
        })
    }

    /// Requests the serve loop to stop: the flag is set first, then every
    /// parked poller is notified so accept and reactor threads wake
    /// immediately instead of after a poll interval.
    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for poller in lock_unpoisoned(&self.pollers).iter() {
            let _ = poller.notify();
        }
    }

    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
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

    let mut reactors: Vec<Arc<ReactorShared>> = Vec::with_capacity(n_reactors);
    let mut reactor_threads = Vec::with_capacity(n_reactors);
    for i in 0..n_reactors {
        let shared = ReactorShared::new()?;
        reactors.push(Arc::clone(&shared));
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
                .spawn(move || dispatcher_loop(&jobs, i, &|line| server.handle(line)))?,
        );
    }

    // Park every loop poller where request_shutdown can notify it, so a
    // `shutdown` request wakes all threads immediately.
    {
        let mut pollers = lock_unpoisoned(&server.net.pollers);
        pollers.push(Arc::clone(&accept_poller));
        for reactor in &reactors {
            pollers.push(Arc::clone(&reactor.poller));
        }
    }

    let result = accept_loop(server, &accept_poller, &reactors);

    // The shutdown flag is set by now (a request, or a fatal accept error).
    // Reactors grace-drain and exit; with no submitter left, closing the
    // hand-off drains the dispatchers.
    for reactor in &reactors {
        let _ = reactor.poller.notify();
    }
    for handle in reactor_threads {
        let _ = handle.join();
    }
    jobs.close();
    for handle in dispatcher_threads {
        let _ = handle.join();
    }
    lock_unpoisoned(&server.net.pollers).clear();
    result
}

/// Accepts until shutdown, handing each connection to a reactor
/// round-robin. Transient failures back off and retry; fatal ones set the
/// shutdown flag first so reactors drain instead of leaking.
fn accept_loop(
    server: &Arc<Server>,
    poller: &Arc<Poller>,
    reactors: &[Arc<ReactorShared>],
) -> std::io::Result<()> {
    poller.add(&server.net.listener, Event::readable(0))?;
    let mut events = Events::new();
    let mut backoff = ACCEPT_BACKOFF_FLOOR;
    let mut next = 0usize;
    let result = loop {
        if server.is_shutting_down() {
            break Ok(());
        }
        // The listener is nonblocking; the loop parks in `poller` and
        // re-checks the flag above on every pass.
        match server.net.listener.accept() {
            Ok((stream, _peer)) => {
                backoff = ACCEPT_BACKOFF_FLOOR;
                let _ = stream.set_nonblocking(true);
                // Request/response over small lines: Nagle + delayed ACK
                // would add ~40ms per roundtrip otherwise.
                let _ = stream.set_nodelay(true);
                let reactor = &reactors[next % reactors.len()];
                next = next.wrapping_add(1);
                reactor.adopt(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Park until the listener is readable or shutdown notifies.
                let _ = poller.wait(&mut events, None);
                let _ = poller.modify(&server.net.listener, Event::readable(0));
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
    let _ = poller.delete(&server.net.listener);
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
