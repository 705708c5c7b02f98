//! The pluggable exchange layer: how shuffle buckets and gathered
//! partitions move between participants of a wave.
//!
//! A [`Runtime`](crate::Runtime) has no exchange installed by default: a
//! shuffle then moves its typed bucket vectors from the map side straight to
//! the reduce side. With an [`Exchange`] installed, the same shuffle encodes
//! each non-empty bucket into a wire [`Frame`], routes the frames, and
//! decodes what comes back into the same bucket slots - frames are a
//! transport detail between one map side and one governed reduce side.
//! Two implementations ship:
//!
//! * [`TcpExchange`] — the multi-node exchange. N shards each own a
//!   contiguous range of the global partition space ([`ShardLayout`]);
//!   shuffle buckets travel peer-to-peer over length-prefixed, checksummed
//!   frames whose payloads use the [`Spill`](crate::Spill) codec (the PR 5
//!   run-file format) as the wire format.
//! * [`Loopback`] — the same frame path without a network: one shard, every
//!   frame handed straight back, counted. Tests and benches install it to
//!   run (and measure) the codec single-process.
//!
//! # Wire format
//!
//! One frame is a 52-byte little-endian header followed by the payload:
//!
//! ```text
//! magic "TGXF" (u32) | seq u64 | src u64 | bucket u64 | records u64
//!                    | payload_len u64 | checksum u64 | payload bytes
//! ```
//!
//! `seq` namespaces concurrent exchange operations (one per shuffle or
//! gather), `src` is the global map-partition index the payload came from,
//! `bucket` the global destination partition. The checksum is
//! [`checksum`](crate::checksum) over the payload — the same multiply-add
//! fold guarding spill runs and `.tgc` chunks. A frame with
//! `bucket == u64::MAX` is a FIN sentinel: "sender `src` has no more frames
//! for `seq`". Connections open with a one-shot handshake
//! (`"TGXH" | version | shards | shard`) so a mis-wired peer is rejected
//! before any data frame is interpreted.
//!
//! # Failure model
//!
//! Exchange failures are **typed, never silent**: codec violations
//! (truncation, oversized length prefixes, checksum mismatches) surface as
//! [`ExchangeError::Frame`], a peer that dies mid-wave as
//! [`ExchangeError::PeerDied`], and a peer that hangs as
//! [`ExchangeError::Timeout`] after a bounded, env-tunable wait
//! (`TGRAPH_EXCHANGE_TIMEOUT_MS`, default 10 s). The wave then aborts with
//! the error as a typed panic payload — the same discipline as
//! [`SpillError`](crate::SpillError) — and sibling state (pending inbox
//! frames, outbound connections) is drained by RAII.

use crate::protocol::{PollOutcome, ProtocolCore};
use crate::spill::{checksum, Spill, SpillError, SpillReader};
use crate::sync::{lock_unpoisoned, wait_timeout_unpoisoned};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Frame header magic: `"TGXF"` little-endian.
pub const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"TGXF");
/// Handshake magic: `"TGXH"` little-endian.
pub const HANDSHAKE_MAGIC: u32 = u32::from_le_bytes(*b"TGXH");
/// Exchange protocol version spoken by this build. Version 2 added counted
/// FIN sentinels: a FIN's `records` field declares how many data frames its
/// sender shipped for the sequence, so lost frames are detected at FIN time
/// instead of silently shortening a wave (see [`crate::protocol`]).
pub const PROTOCOL_VERSION: u64 = 2;
/// `bucket` value marking a FIN sentinel frame.
pub const FIN_BUCKET: u64 = u64::MAX;
/// Upper bound on a single frame's payload; length prefixes beyond this are
/// rejected as corrupt before any allocation happens.
pub const MAX_FRAME_PAYLOAD: u64 = 1 << 30;

/// Frame header size on the wire (magic + six u64 fields).
/// Encoded frame header size: magic plus six u64 words.
pub const HEADER_BYTES: usize = 4 + 6 * 8;

/// Why an exchange operation failed. Raised as a typed panic payload by the
/// shuffle/gather paths (mirroring [`SpillError`](crate::SpillError)), so
/// `catch_unwind` callers can downcast and report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExchangeError {
    /// A frame failed to decode: bad magic, truncation, an oversized length
    /// prefix, a checksum mismatch, or a payload that does not decode back
    /// into records.
    Frame {
        /// What was wrong with the frame.
        detail: String,
    },
    /// A socket operation failed.
    Io {
        /// Which operation failed (`connect`, `write`, `read`, …).
        op: &'static str,
        /// The peer involved.
        peer: String,
        /// The underlying error, stringified.
        error: String,
    },
    /// A peer closed its connection (or was never reachable) while frames
    /// were still owed.
    PeerDied {
        /// The peer that died.
        peer: String,
        /// What was observed.
        detail: String,
    },
    /// A bounded wait for peer frames expired.
    Timeout {
        /// Which operation timed out.
        op: &'static str,
        /// The configured bound, in milliseconds.
        ms: u64,
    },
    /// A peer spoke the wrong protocol (bad handshake, wrong topology).
    Protocol {
        /// The peer involved.
        peer: String,
        /// What disagreed.
        detail: String,
    },
}

impl std::fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExchangeError::Frame { detail } => write!(f, "exchange frame corrupt: {detail}"),
            ExchangeError::Io { op, peer, error } => {
                write!(f, "exchange {op} failed on peer {peer}: {error}")
            }
            ExchangeError::PeerDied { peer, detail } => {
                write!(f, "exchange peer {peer} died: {detail}")
            }
            ExchangeError::Timeout { op, ms } => {
                write!(f, "exchange {op} timed out after {ms} ms")
            }
            ExchangeError::Protocol { peer, detail } => {
                write!(f, "exchange protocol violation from peer {peer}: {detail}")
            }
        }
    }
}

impl std::error::Error for ExchangeError {}

fn frame_err(detail: impl Into<String>) -> ExchangeError {
    ExchangeError::Frame {
        detail: detail.into(),
    }
}

/// Unwraps an exchange result inside a wave: a failure aborts the wave with
/// the error as its typed panic payload (the failure model above).
pub(crate) fn raise<T>(result: Result<T, ExchangeError>) -> T {
    match result {
        Ok(value) => value,
        Err(e) => std::panic::panic_any(e),
    }
}

/// Which contiguous range of the global partition space this participant
/// owns. The single-process layout is `shard 0 of 1`, which owns everything.
///
/// Ranges follow the standard balanced split: shard `s` of `n` owns global
/// indices `[s·t/n, (s+1)·t/n)` over `t` total partitions (integer
/// division), so every index has exactly one owner and range sizes differ by
/// at most one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardLayout {
    shard: usize,
    shards: usize,
}

impl ShardLayout {
    /// The single-process layout: one shard owning every partition.
    pub fn single() -> Self {
        ShardLayout {
            shard: 0,
            shards: 1,
        }
    }

    /// Layout for shard `shard` of `shards` total.
    ///
    /// # Panics
    /// If `shard >= shards` or `shards == 0`.
    pub fn new(shard: usize, shards: usize) -> Self {
        assert!(shards > 0, "shard layout needs at least one shard");
        assert!(
            shard < shards,
            "shard index {shard} out of range 0..{shards}"
        );
        ShardLayout { shard, shards }
    }

    /// This participant's shard index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Total number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Whether more than one shard participates.
    pub fn is_sharded(&self) -> bool {
        self.shards > 1
    }

    /// First global index owned by this shard, of `total` partitions.
    pub fn lo(&self, total: usize) -> usize {
        self.shard * total / self.shards
    }

    /// One past the last global index owned by this shard.
    pub fn hi(&self, total: usize) -> usize {
        (self.shard + 1) * total / self.shards
    }

    /// Whether this shard owns global index `idx` of `total`.
    pub fn owns(&self, idx: usize, total: usize) -> bool {
        self.lo(total) <= idx && idx < self.hi(total)
    }

    /// The shard owning global index `idx` of `total` partitions — the
    /// unique `s` with `s·t/n ≤ idx < (s+1)·t/n`.
    pub fn owner_of(&self, idx: usize, total: usize) -> usize {
        debug_assert!(idx < total, "index {idx} out of range 0..{total}");
        ((idx + 1) * self.shards - 1) / total
    }

    /// Per-index ownership mask over `total` partitions.
    pub fn range_mask(&self, total: usize) -> Vec<bool> {
        let (lo, hi) = (self.lo(total), self.hi(total));
        (0..total).map(|i| lo <= i && i < hi).collect()
    }
}

/// One unit of exchanged data: an encoded record batch from global map
/// partition `src`, destined for global partition `bucket`, within exchange
/// operation `seq`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Exchange-operation sequence number (one per shuffle or gather).
    pub seq: u64,
    /// Global source partition index.
    pub src: u64,
    /// Global destination partition index (or [`FIN_BUCKET`]).
    pub bucket: u64,
    /// Number of records encoded in the payload.
    pub records: u64,
    /// Record batch encoded with the [`Spill`](crate::Spill) codec.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Whether this frame is a FIN sentinel.
    pub fn is_fin(&self) -> bool {
        self.bucket == FIN_BUCKET
    }

    /// A FIN sentinel for `seq` from shard `shard`, declaring the number of
    /// data frames the shard sent for the sequence (carried in `records`,
    /// validated by the receiver's [`ProtocolCore`]).
    pub fn fin(seq: u64, shard: u64, sent: u64) -> Frame {
        Frame {
            seq,
            src: shard,
            bucket: FIN_BUCKET,
            records: sent,
            payload: Vec::new(),
        }
    }

    /// A data frame carrying `records` (encoded with the
    /// [`Spill`](crate::Spill) codec) from global map partition `src` to
    /// global partition `bucket`.
    pub fn of_records<T: Spill>(seq: u64, src: usize, bucket: usize, records: &[T]) -> Frame {
        let mut payload = Vec::new();
        for r in records {
            r.spill(&mut payload);
        }
        Frame {
            seq,
            src: src as u64,
            bucket: bucket as u64,
            records: records.len() as u64,
            payload,
        }
    }

    /// A payload-free frame whose `records` field is the datum: partition
    /// `part` holds `n` elements (how sharded counts rendezvous).
    pub fn count(seq: u64, part: usize, n: u64) -> Frame {
        Frame {
            seq,
            src: part as u64,
            bucket: part as u64,
            records: n,
            payload: Vec::new(),
        }
    }

    /// Decodes the payload back into its typed records. A payload that is
    /// truncated, or longer than its `records` count accounts for, is a
    /// typed [`ExchangeError::Frame`].
    pub fn records<T: Spill>(&self) -> Result<Vec<T>, ExchangeError> {
        let mut r = SpillReader::new(&self.payload);
        // Cap the pre-allocation: `records` is wire data and must not be able
        // to force an arbitrary allocation before decode proves it out.
        let mut out = Vec::with_capacity(self.records.min(1 << 20) as usize);
        for k in 0..self.records {
            out.push(
                T::unspill(&mut r)
                    .map_err(|e| frame_err(format!("record {k} of {}: {e}", self.records)))?,
            );
        }
        if r.remaining() != 0 {
            return Err(frame_err(format!(
                "{} trailing payload bytes after decode",
                r.remaining()
            )));
        }
        Ok(out)
    }
}

/// Appends the wire encoding of `frame` to `out`.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.extend_from_slice(&frame.seq.to_le_bytes());
    out.extend_from_slice(&frame.src.to_le_bytes());
    out.extend_from_slice(&frame.bucket.to_le_bytes());
    out.extend_from_slice(&frame.records.to_le_bytes());
    out.extend_from_slice(&(frame.payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(&frame.payload).to_le_bytes());
    out.extend_from_slice(&frame.payload);
}

/// A frame header as read off the wire, its payload not yet seen.
struct Header {
    seq: u64,
    src: u64,
    bucket: u64,
    records: u64,
    len: usize,
    sum: u64,
}

impl Header {
    /// The one reader of the header's field sequence, under both
    /// [`decode_frame`] and [`read_frame`] (which wrap the `Err` detail in
    /// their own error types): rejects a bad magic and a length prefix beyond
    /// [`MAX_FRAME_PAYLOAD`].
    fn parse(bytes: &[u8; HEADER_BYTES]) -> Result<Header, String> {
        let field = |e: SpillError| e.to_string();
        let mut r = SpillReader::new(bytes);
        let magic = r.u32().map_err(field)?;
        if magic != FRAME_MAGIC {
            return Err(format!("bad frame magic {magic:#x}"));
        }
        let seq = r.u64().map_err(field)?;
        let src = r.u64().map_err(field)?;
        let bucket = r.u64().map_err(field)?;
        let records = r.u64().map_err(field)?;
        let len = r.u64().map_err(field)?;
        let sum = r.u64().map_err(field)?;
        if len > MAX_FRAME_PAYLOAD {
            return Err(format!(
                "payload length {len} exceeds cap {MAX_FRAME_PAYLOAD}"
            ));
        }
        Ok(Header {
            seq,
            src,
            bucket,
            records,
            len: len as usize,
            sum,
        })
    }

    /// Checks `payload` against the header's checksum and assembles the
    /// frame.
    fn seal(self, payload: Vec<u8>) -> Result<Frame, String> {
        let actual = checksum(&payload);
        if actual != self.sum {
            return Err(format!(
                "checksum mismatch: stored {:#x}, computed {actual:#x}",
                self.sum
            ));
        }
        Ok(Frame {
            seq: self.seq,
            src: self.src,
            bucket: self.bucket,
            records: self.records,
            payload,
        })
    }
}

/// Decodes one frame from the start of `buf`, returning it and the bytes
/// consumed. Fails typed — never panics — on truncation, bad magic,
/// oversized length prefixes, or checksum mismatch.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), ExchangeError> {
    let Some(header) = buf.first_chunk::<HEADER_BYTES>() else {
        return Err(frame_err(format!(
            "truncated header: {} of {HEADER_BYTES} bytes",
            buf.len()
        )));
    };
    let header = Header::parse(header).map_err(frame_err)?;
    let rest = &buf[HEADER_BYTES..];
    let Some(payload) = rest.get(..header.len) else {
        return Err(frame_err(format!(
            "truncated payload: {} of {} bytes",
            rest.len(),
            header.len
        )));
    };
    let used = HEADER_BYTES + header.len;
    let frame = header.seal(payload.to_vec()).map_err(frame_err)?;
    Ok((frame, used))
}

/// Largest step by which [`read_frame`] grows its payload buffer. The length
/// prefix is wire data from a peer that has only passed a 28-byte handshake:
/// memory follows bytes received, never bytes promised.
const PAYLOAD_STEP: usize = 64 << 10;

/// Reads one frame from a stream. `Ok(None)` means a clean EOF at a frame
/// boundary; EOF mid-frame is `UnexpectedEof`, and a header or checksum
/// [`decode_frame`] would reject is `InvalidData` carrying the same detail.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, std::io::Error> {
    use std::io::ErrorKind;
    let invalid = |detail: String| std::io::Error::new(ErrorKind::InvalidData, detail);
    let mut header = [0u8; HEADER_BYTES];
    let mut got = 0usize;
    while got < HEADER_BYTES {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    format!("EOF inside frame header ({got} of {HEADER_BYTES} bytes)"),
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // A read-timeout poll tick before any frame byte arrived is the
            // caller's signal to check shutdown; but once we hold partial
            // frame bytes we are committed — dropping them would desync the
            // stream, so keep reading through the stall.
            Err(e)
                if got > 0 && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
    }
    let header = Header::parse(&header).map_err(invalid)?;
    let len = header.len;
    let mut payload = Vec::new();
    let mut got = 0usize;
    while got < len {
        if got == payload.len() {
            payload.resize(len.min(got + PAYLOAD_STEP), 0);
        }
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    format!("EOF inside frame payload ({got} of {len} bytes)"),
                ))
            }
            Ok(n) => got += n,
            // Mid-frame: ride out poll ticks, same as the header loop above.
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(e),
        }
    }
    header.seal(payload).map(Some).map_err(invalid)
}

/// Monotonic exchange counters, shared between the runtime's stats and the
/// installed exchange. A [`Loopback`] counts too, so the codec path is
/// observable single-process.
#[derive(Debug, Default)]
pub struct ExchangeCounters {
    /// Payload bytes that crossed the exchange (sent side).
    pub bytes_exchanged: AtomicU64,
    /// Data frames handed to the exchange for routing.
    pub frames_sent: AtomicU64,
    /// Data frames delivered by the exchange (own frames included).
    pub frames_received: AtomicU64,
    /// Waits that actually blocked on remote frames.
    pub exchange_stalls: AtomicU64,
}

impl ExchangeCounters {
    fn note_sent(&self, frames: u64, bytes: u64) {
        self.frames_sent.fetch_add(frames, Ordering::Relaxed);
        self.bytes_exchanged.fetch_add(bytes, Ordering::Relaxed);
    }

    fn note_received(&self, frames: u64) {
        self.frames_received.fetch_add(frames, Ordering::Relaxed);
    }

    fn note_stall(&self) {
        self.exchange_stalls.fetch_add(1, Ordering::Relaxed);
    }
}

/// The routing abstraction a shuffle or sharded gather goes through when one
/// is installed on the [`Runtime`](crate::Runtime). Implementations operate
/// on encoded [`Frame`]s so the trait stays object-safe.
pub trait Exchange: Send + Sync {
    /// This participant's slice of the global partition space.
    fn layout(&self) -> ShardLayout;

    /// Routes shuffle frames: each data frame travels to the owner of its
    /// `bucket` (of `total_buckets` global buckets). Returns every frame
    /// destined for locally-owned buckets — own contributions and peers'.
    fn route(
        &self,
        seq: u64,
        frames: Vec<Frame>,
        total_buckets: usize,
    ) -> Result<Vec<Frame>, ExchangeError>;

    /// All-gather: broadcasts `frames` to every shard and returns the union
    /// of all shards' contributions (own frames included).
    fn gather(&self, seq: u64, frames: Vec<Frame>) -> Result<Vec<Frame>, ExchangeError>;
}

/// The single-shard exchange: every frame comes straight back, counted.
/// Installing it makes shuffles encode and decode every bucket through the
/// wire codec without a network - what the golden tests compare against the
/// typed move and `shardbench` measures as its 1-shard row.
pub struct Loopback {
    counters: Arc<ExchangeCounters>,
}

impl Loopback {
    /// A loopback counting into `counters` (the installing runtime's
    /// [`exchange_counters`](crate::Runtime::exchange_counters)).
    pub fn new(counters: Arc<ExchangeCounters>) -> Self {
        Loopback { counters }
    }

    fn echo(&self, frames: Vec<Frame>) -> Vec<Frame> {
        let bytes: u64 = frames.iter().map(|f| f.payload.len() as u64).sum();
        self.counters.note_sent(frames.len() as u64, bytes);
        self.counters.note_received(frames.len() as u64);
        frames
    }
}

impl Exchange for Loopback {
    fn layout(&self) -> ShardLayout {
        ShardLayout::single()
    }

    fn route(
        &self,
        _seq: u64,
        frames: Vec<Frame>,
        _total_buckets: usize,
    ) -> Result<Vec<Frame>, ExchangeError> {
        Ok(self.echo(frames))
    }

    fn gather(&self, _seq: u64, frames: Vec<Frame>) -> Result<Vec<Frame>, ExchangeError> {
        Ok(self.echo(frames))
    }
}

/// Shared mailbox the acceptor's reader threads deposit inbound frames
/// into, keyed by exchange sequence number. All protocol decisions —
/// dedup, FIN counting, death-vs-FIN precedence, poison — live in the pure
/// [`ProtocolCore`] (model-checked by `tgraph-analyze`); this wrapper only
/// adds the lock, the condvar discipline, and the wall-clock timeout.
struct Inbox {
    state: Mutex<ProtocolCore>,
    cond: Condvar,
}

impl Inbox {
    fn new() -> Arc<Self> {
        Arc::new(Inbox {
            state: Mutex::new(ProtocolCore::new()),
            cond: Condvar::new(),
        })
    }

    /// Deposits a frame read off peer shard `from_shard`'s connection. A
    /// detected protocol violation (duplicate frame, FIN count mismatch)
    /// has already poisoned the core; waiters observe it on wakeup.
    fn push(&self, from_shard: u64, frame: Frame) {
        let mut st = lock_unpoisoned(&self.state);
        let _ = st.deposit(from_shard, frame);
        self.cond.notify_all();
    }

    fn fail(&self, err: ExchangeError) {
        let mut st = lock_unpoisoned(&self.state);
        st.poison(err);
        self.cond.notify_all();
    }

    /// Records the death of an identified peer shard. Waits that shard had
    /// already FINed stay satisfiable; waits still missing its FIN fail.
    fn fail_shard(&self, shard: u64, err: ExchangeError) {
        let mut st = lock_unpoisoned(&self.state);
        st.mark_shard_dead(shard, err);
        self.cond.notify_all();
    }

    /// Blocks until `want_fins` FIN sentinels arrived for `seq`, then drains
    /// and returns its data frames. On peer death or timeout the pending
    /// frames for `seq` are discarded (drained RAII-clean) and the typed
    /// error is returned.
    fn await_seq(
        &self,
        seq: u64,
        want_fins: usize,
        timeout: Duration,
        counters: &ExchangeCounters,
    ) -> Result<Vec<Frame>, ExchangeError> {
        let deadline = Instant::now() + timeout;
        let mut st = lock_unpoisoned(&self.state);
        let mut stalled = false;
        loop {
            match st.poll(seq, want_fins) {
                PollOutcome::Ready(frames) => {
                    counters.note_received(frames.len() as u64);
                    return Ok(frames);
                }
                PollOutcome::Failed(err) => return Err(err),
                PollOutcome::Pending => {}
            }
            let now = Instant::now();
            if now >= deadline {
                // Discard the wave's pending frames before unwinding.
                st.discard(seq);
                return Err(ExchangeError::Timeout {
                    op: "await frames",
                    ms: timeout.as_millis() as u64,
                });
            }
            if !stalled {
                stalled = true;
                counters.note_stall();
            }
            st = wait_timeout_unpoisoned(&self.cond, st, deadline - now);
        }
    }
}

/// One outbound peer link: lazily connected, handshake sent on connect.
struct PeerLink {
    addr: String,
    stream: Mutex<Option<TcpStream>>,
}

/// The multi-node exchange: a listener accepting inbound peer connections
/// (one reader thread per peer) and lazy persistent outbound connections,
/// with bounded connect/read waits.
pub struct TcpExchange {
    layout: ShardLayout,
    counters: Arc<ExchangeCounters>,
    timeout: Duration,
    inbox: Arc<Inbox>,
    peers: Vec<PeerLink>,
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl TcpExchange {
    /// Binds an exchange listener (use `"127.0.0.1:0"` for an ephemeral
    /// port) and returns it with its resolved address.
    pub fn bind(addr: &str) -> std::io::Result<(TcpListener, SocketAddr)> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Ok((listener, local))
    }

    /// Starts the exchange on a bound listener. `peer_addrs` lists every
    /// shard's exchange address in shard order (this shard's own entry is
    /// ignored). Counters are shared with the owning runtime's stats.
    pub fn start(
        listener: TcpListener,
        layout: ShardLayout,
        peer_addrs: Vec<String>,
        counters: Arc<ExchangeCounters>,
        timeout: Duration,
    ) -> std::io::Result<Arc<TcpExchange>> {
        assert_eq!(
            peer_addrs.len(),
            layout.shards(),
            "need one exchange address per shard"
        );
        let local_addr = listener.local_addr()?;
        let inbox = Inbox::new();
        let shutdown = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let inbox = Arc::clone(&inbox);
            let shutdown = Arc::clone(&shutdown);
            let layout_c = layout;
            let counters_c = Arc::clone(&counters);
            let read_poll = timeout.min(Duration::from_millis(500));
            std::thread::Builder::new()
                .name(format!("tgx-accept-{}", layout.shard()))
                .spawn(move || {
                    accept_loop(listener, layout_c, inbox, shutdown, counters_c, read_poll)
                })?
        };
        Ok(Arc::new(TcpExchange {
            layout,
            counters,
            timeout,
            inbox,
            peers: peer_addrs
                .into_iter()
                .map(|addr| PeerLink {
                    addr,
                    stream: Mutex::new(None),
                })
                .collect(),
            local_addr,
            shutdown,
            acceptor: Mutex::new(Some(acceptor)),
        }))
    }

    /// The address the exchange listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Sends pre-encoded frame bytes to shard `to`, connecting (with
    /// handshake, retrying until the bounded deadline) on first use.
    fn send_to(&self, to: usize, bytes: &[u8]) -> Result<(), ExchangeError> {
        let link = &self.peers[to];
        let mut slot = lock_unpoisoned(&link.stream);
        if slot.is_none() {
            *slot = Some(self.connect(link)?);
        }
        #[expect(clippy::expect_used, reason = "guarded by the fill right before")]
        let stream = slot.as_mut().expect("outbound stream present");
        if let Err(e) = stream.write_all(bytes).and_then(|()| stream.flush()) {
            *slot = None; // poisoned link: reconnect on the next wave
            return Err(peer_io_err("write", &link.addr, e));
        }
        Ok(())
    }

    /// Connects to a peer with retries until the timeout elapses (peers boot
    /// in arbitrary order), then sends the handshake.
    fn connect(&self, link: &PeerLink) -> Result<TcpStream, ExchangeError> {
        let deadline = Instant::now() + self.timeout;
        let addrs: Vec<SocketAddr> = link
            .addr
            .parse::<SocketAddr>()
            .map(|a| vec![a])
            .or_else(|_| {
                use std::net::ToSocketAddrs;
                link.addr.to_socket_addrs().map(|it| it.collect())
            })
            .map_err(|e| peer_io_err("resolve", &link.addr, e))?;
        let Some(addr) = addrs.first().copied() else {
            return Err(ExchangeError::Io {
                op: "resolve",
                peer: link.addr.clone(),
                error: "no addresses".into(),
            });
        };
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(ExchangeError::Timeout {
                    op: "connect",
                    ms: self.timeout.as_millis() as u64,
                });
            }
            match TcpStream::connect_timeout(&addr, remaining.min(Duration::from_millis(250))) {
                Ok(mut stream) => {
                    stream.set_nodelay(true).ok();
                    let mut hello = Vec::with_capacity(28);
                    hello.extend_from_slice(&HANDSHAKE_MAGIC.to_le_bytes());
                    hello.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
                    hello.extend_from_slice(&(self.layout.shards() as u64).to_le_bytes());
                    hello.extend_from_slice(&(self.layout.shard() as u64).to_le_bytes());
                    stream
                        .write_all(&hello)
                        .map_err(|e| peer_io_err("handshake", &link.addr, e))?;
                    return Ok(stream);
                }
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(peer_io_err("connect", &link.addr, e)),
            }
        }
    }

    /// Encodes and ships `frames` according to `dest(frame) -> shard`,
    /// keeping own frames local, then awaits FINs from every peer.
    fn ship(
        &self,
        seq: u64,
        frames: Vec<Frame>,
        dests: impl Fn(&Frame) -> Dest,
    ) -> Result<Vec<Frame>, ExchangeError> {
        let me = self.layout.shard();
        let n = self.layout.shards();
        let mut outgoing: Vec<Vec<u8>> = (0..n).map(|_| Vec::new()).collect();
        let mut sent_counts = vec![0u64; n];
        let mut local = Vec::new();
        let mut sent_frames = 0u64;
        let mut sent_bytes = 0u64;
        for f in frames {
            match dests(&f) {
                Dest::One(owner) if owner == me => local.push(f),
                Dest::One(owner) => {
                    sent_frames += 1;
                    sent_bytes += f.payload.len() as u64;
                    sent_counts[owner] += 1;
                    encode_frame(&f, &mut outgoing[owner]);
                }
                Dest::Broadcast => {
                    sent_frames += (n - 1) as u64;
                    sent_bytes += f.payload.len() as u64 * (n - 1) as u64;
                    for (s, buf) in outgoing.iter_mut().enumerate() {
                        if s != me {
                            sent_counts[s] += 1;
                            encode_frame(&f, buf);
                        }
                    }
                    local.push(f);
                }
            }
        }
        self.counters.note_sent(sent_frames, sent_bytes);
        // Each peer gets its own FIN declaring exactly how many data frames
        // it was sent, so the receiving ProtocolCore can prove none were
        // lost in transit before completing the wave.
        for (s, buf) in outgoing.iter_mut().enumerate() {
            if s == me {
                continue;
            }
            encode_frame(&Frame::fin(seq, me as u64, sent_counts[s]), buf);
            self.send_to(s, buf)?;
        }
        self.counters.note_received(local.len() as u64);
        let remote = self
            .inbox
            .await_seq(seq, n - 1, self.timeout, &self.counters)?;
        local.extend(remote);
        Ok(local)
    }
}

enum Dest {
    One(usize),
    Broadcast,
}

impl Exchange for TcpExchange {
    fn layout(&self) -> ShardLayout {
        self.layout
    }

    fn route(
        &self,
        seq: u64,
        frames: Vec<Frame>,
        total_buckets: usize,
    ) -> Result<Vec<Frame>, ExchangeError> {
        let layout = self.layout;
        self.ship(seq, frames, move |f| {
            Dest::One(layout.owner_of(f.bucket as usize, total_buckets))
        })
    }

    fn gather(&self, seq: u64, frames: Vec<Frame>) -> Result<Vec<Frame>, ExchangeError> {
        self.ship(seq, frames, |_| Dest::Broadcast)
    }
}

impl Drop for TcpExchange {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Close outbound links: peers' readers observe EOF and exit.
        for link in &self.peers {
            if let Some(stream) = lock_unpoisoned(&link.stream).take() {
                stream.shutdown(std::net::Shutdown::Both).ok();
            }
        }
        // Wake the acceptor so it can observe the shutdown flag.
        TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(200)).ok();
        if let Some(h) = lock_unpoisoned(&self.acceptor).take() {
            h.join().ok();
        }
    }
}

fn peer_io_err(op: &'static str, peer: &str, e: impl std::fmt::Display) -> ExchangeError {
    ExchangeError::Io {
        op,
        peer: peer.to_string(),
        error: e.to_string(),
    }
}

/// Accepts inbound peer connections, validates their handshake, and spawns
/// one reader thread per peer. Reader threads deposit frames into the inbox
/// and report peer death as a typed inbox failure.
fn accept_loop(
    listener: TcpListener,
    layout: ShardLayout,
    inbox: Arc<Inbox>,
    shutdown: Arc<AtomicBool>,
    counters: Arc<ExchangeCounters>,
    read_poll: Duration,
) {
    loop {
        let Ok((stream, peer_addr)) = listener.accept() else {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let inbox = Arc::clone(&inbox);
        let shutdown = Arc::clone(&shutdown);
        let _ = Arc::clone(&counters); // reader-side accounting happens at await
        let name = format!("tgx-read-{}", layout.shard());
        let _ = std::thread::Builder::new()
            .name(name)
            .spawn(move || reader_loop(stream, peer_addr, layout, inbox, shutdown, read_poll));
    }
}

/// Validates the handshake, then pumps frames into the inbox until EOF,
/// error, or shutdown.
fn reader_loop(
    mut stream: TcpStream,
    peer_addr: SocketAddr,
    layout: ShardLayout,
    inbox: Arc<Inbox>,
    shutdown: Arc<AtomicBool>,
    read_poll: Duration,
) {
    let peer = peer_addr.to_string();
    stream.set_read_timeout(Some(read_poll)).ok();
    // Handshake first: 28 bytes, validated before any frame is trusted.
    let mut hello = [0u8; 28];
    if let Err(e) = read_exact_polling(&mut stream, &mut hello, &shutdown) {
        if !shutdown.load(Ordering::SeqCst) {
            inbox.fail(ExchangeError::PeerDied {
                peer,
                detail: format!("before handshake: {e}"),
            });
        }
        return;
    }
    let mut hr = SpillReader::new(&hello);
    let peer_shard = (|| {
        let magic = hr.u32().ok()?;
        let version = hr.u64().ok()?;
        let shards = hr.u64().ok()?;
        let shard = hr.u64().ok()?;
        (magic == HANDSHAKE_MAGIC
            && version == PROTOCOL_VERSION
            && shards == layout.shards() as u64
            && shard < shards
            && shard != layout.shard() as u64)
            .then_some(shard)
    })();
    let Some(peer_shard) = peer_shard else {
        inbox.fail(ExchangeError::Protocol {
            peer,
            detail: format!(
                "bad handshake (want version {PROTOCOL_VERSION}, {} shards)",
                layout.shards()
            ),
        });
        return;
    };
    loop {
        match read_frame(&mut stream) {
            Ok(Some(frame)) => inbox.push(peer_shard, frame),
            Ok(None) => {
                if !shutdown.load(Ordering::SeqCst) {
                    // An identified shard closing its stream: fatal only to
                    // waves it had not FINed (a finished peer shuts down
                    // while slower shards still drain the last wave).
                    inbox.fail_shard(
                        peer_shard,
                        ExchangeError::PeerDied {
                            peer,
                            detail: "connection closed".into(),
                        },
                    );
                }
                return;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                inbox.fail(frame_err(format!("from peer {peer}: {e}")));
                return;
            }
            Err(e) => {
                if !shutdown.load(Ordering::SeqCst) {
                    inbox.fail_shard(
                        peer_shard,
                        ExchangeError::PeerDied {
                            peer,
                            detail: e.to_string(),
                        },
                    );
                }
                return;
            }
        }
    }
}

/// `read_exact` that tolerates read-timeout polls while watching the
/// shutdown flag.
fn read_exact_polling(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    let mut got = 0usize;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF",
                ))
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "shutdown",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_ranges_tile_and_owner_agrees() {
        for total in 1..=16usize {
            for shards in 1..=8usize {
                let layouts: Vec<ShardLayout> =
                    (0..shards).map(|s| ShardLayout::new(s, shards)).collect();
                for idx in 0..total {
                    let owners: Vec<usize> = layouts
                        .iter()
                        .enumerate()
                        .filter(|(_, l)| l.owns(idx, total))
                        .map(|(s, _)| s)
                        .collect();
                    assert_eq!(owners.len(), 1, "idx {idx} of {total} over {shards}");
                    assert_eq!(
                        layouts[0].owner_of(idx, total),
                        owners[0],
                        "owner_of disagrees with ranges for idx {idx}/{total} over {shards}"
                    );
                }
                let covered: usize = layouts.iter().map(|l| l.hi(total) - l.lo(total)).sum();
                assert_eq!(covered, total);
            }
        }
    }

    #[test]
    fn single_layout_owns_everything() {
        let l = ShardLayout::single();
        assert!(!l.is_sharded());
        assert!(l.owns(0, 4) && l.owns(3, 4));
        assert_eq!(l.range_mask(3), vec![true, true, true]);
    }

    #[test]
    fn frame_roundtrip() {
        let f = Frame {
            seq: 7,
            src: 3,
            bucket: 11,
            records: 2,
            payload: vec![1, 2, 3, 4, 5],
        };
        let mut buf = Vec::new();
        encode_frame(&f, &mut buf);
        let (back, used) = decode_frame(&buf).expect("roundtrip");
        assert_eq!(back, f);
        assert_eq!(used, buf.len());
        // And via the stream reader.
        let mut cursor = std::io::Cursor::new(buf);
        let back2 = read_frame(&mut cursor).expect("read").expect("one frame");
        assert_eq!(back2, f);
        assert!(read_frame(&mut cursor).expect("eof").is_none());
    }

    /// Every corruption case runs through both decoders, which must agree:
    /// the slice decoder's typed detail is the stream reader's `InvalidData`
    /// text, and a truncation is the stream's `UnexpectedEof`.
    #[test]
    fn decode_rejects_corruption_typed() {
        let f = Frame {
            seq: 1,
            src: 0,
            bucket: 2,
            records: 1,
            payload: vec![9; 32],
        };
        let mut buf = Vec::new();
        encode_frame(&f, &mut buf);
        let mut bad_magic = buf.clone();
        bad_magic[0] ^= 0xff;
        // Flipped payload bit → checksum mismatch.
        let mut flipped = buf.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        let mut oversized = buf.clone();
        let len_off = 4 + 4 * 8;
        oversized[len_off..len_off + 8].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        let cases: [(&str, &[u8]); 5] = [
            ("truncated header", &buf[..10]),
            ("truncated payload", &buf[..buf.len() - 1]),
            ("bad magic", &bad_magic),
            ("checksum mismatch", &flipped),
            ("oversized length prefix", &oversized),
        ];
        for (name, bytes) in cases {
            let Err(ExchangeError::Frame { detail }) = decode_frame(bytes) else {
                panic!("{name}: decode_frame must fail typed");
            };
            let err = read_frame(&mut std::io::Cursor::new(bytes))
                .expect_err("read_frame must reject what decode_frame rejects");
            match err.kind() {
                std::io::ErrorKind::InvalidData => assert_eq!(err.to_string(), detail, "{name}"),
                std::io::ErrorKind::UnexpectedEof => {
                    assert!(detail.starts_with("truncated"), "{name}: {detail} vs {err}")
                }
                other => panic!("{name}: unexpected error kind {other:?}"),
            }
        }
    }

    /// A reader that serves `data` and records the largest buffer it was
    /// ever asked to fill.
    struct Offered<'a> {
        data: &'a [u8],
        largest: usize,
    }

    impl Read for Offered<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.data.read(buf)
        }
    }

    #[test]
    fn a_promised_gigabyte_is_not_allocated_before_it_arrives() {
        let mut wire = Vec::new();
        encode_frame(&Frame::of_records(3, 0, 1, &[7u64]), &mut wire);
        let len_off = 4 + 4 * 8;
        wire[len_off..len_off + 8].copy_from_slice(&MAX_FRAME_PAYLOAD.to_le_bytes());
        let mut r = Offered {
            data: &wire,
            largest: 0,
        };
        let err = read_frame(&mut r).expect_err("EOF long before the promised payload");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert!(
            r.largest <= PAYLOAD_STEP,
            "asked the stream to fill {} bytes on the strength of a length prefix",
            r.largest
        );
    }

    #[test]
    fn records_roundtrip_and_reject_a_lying_count() {
        let rows: Vec<(u64, String)> = vec![(1, "a".into()), (2, "bc".into())];
        let mut f = Frame::of_records(5, 3, 1, &rows);
        assert_eq!((f.seq, f.src, f.bucket, f.records), (5, 3, 1, 2));
        assert_eq!(f.records::<(u64, String)>().expect("decode"), rows);
        f.records = 3;
        assert!(matches!(
            f.records::<(u64, String)>(),
            Err(ExchangeError::Frame { .. })
        ));
        f.records = 1;
        assert!(
            matches!(f.records::<(u64, String)>(), Err(ExchangeError::Frame { detail }) if detail.contains("trailing"))
        );
    }

    #[test]
    fn loopback_route_is_identity_and_counts() {
        let counters = Arc::new(ExchangeCounters::default());
        let ex = Loopback::new(Arc::clone(&counters));
        assert!(!ex.layout().is_sharded());
        let frames = vec![Frame::of_records(0, 0, 1, &[0u64])];
        let out = ex.route(0, frames.clone(), 4).expect("loopback");
        assert_eq!(out, frames);
        assert_eq!(counters.frames_sent.load(Ordering::Relaxed), 1);
        assert_eq!(counters.frames_received.load(Ordering::Relaxed), 1);
        assert_eq!(counters.bytes_exchanged.load(Ordering::Relaxed), 8);
    }

    fn start_pair(timeout: Duration) -> (Arc<TcpExchange>, Arc<TcpExchange>) {
        let (l0, a0) = TcpExchange::bind("127.0.0.1:0").expect("bind");
        let (l1, a1) = TcpExchange::bind("127.0.0.1:0").expect("bind");
        let addrs = vec![a0.to_string(), a1.to_string()];
        let e0 = TcpExchange::start(
            l0,
            ShardLayout::new(0, 2),
            addrs.clone(),
            Arc::new(ExchangeCounters::default()),
            timeout,
        )
        .expect("start 0");
        let e1 = TcpExchange::start(
            l1,
            ShardLayout::new(1, 2),
            addrs,
            Arc::new(ExchangeCounters::default()),
            timeout,
        )
        .expect("start 1");
        (e0, e1)
    }

    fn data_frame(seq: u64, src: u64, bucket: u64, byte: u8) -> Frame {
        Frame {
            seq,
            src,
            bucket,
            records: 1,
            payload: vec![byte; 4],
        }
    }

    #[test]
    fn mid_wave_peer_death_after_partial_frames_is_peer_died() {
        // A peer that handshakes, ships SOME of its frames for a wave, then
        // dies without a FIN must fail the wave typed (PeerDied), with the
        // partial frames drained — not deliver a short result, not hang.
        let (l0, a0) = TcpExchange::bind("127.0.0.1:0").expect("bind");
        let fake = TcpListener::bind("127.0.0.1:0").expect("bind fake peer");
        let fake_addr = fake.local_addr().expect("fake addr");
        let e0 = TcpExchange::start(
            l0,
            ShardLayout::new(0, 2),
            vec![a0.to_string(), fake_addr.to_string()],
            Arc::new(ExchangeCounters::default()),
            Duration::from_millis(800),
        )
        .expect("start 0");
        // Absorb shard 0's outbound send so route() reaches its await phase.
        let sink = std::thread::spawn(move || {
            let (stream, _) = fake.accept().expect("outbound connect from shard 0");
            std::thread::sleep(Duration::from_secs(2));
            drop(stream);
        });
        // Raw client playing shard 1: valid handshake, one mid-wave data
        // frame for seq 9, then EOF before the FIN.
        let mut client = TcpStream::connect(a0).expect("connect");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&HANDSHAKE_MAGIC.to_le_bytes());
        bytes.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        encode_frame(&data_frame(9, 3, 1, 5), &mut bytes);
        client.write_all(&bytes).expect("partial wave");
        client.flush().expect("flush");
        drop(client);
        let started = Instant::now();
        let err = e0
            .route(9, vec![data_frame(9, 0, 1, 7)], 4)
            .expect_err("wave must fail after mid-wave peer death");
        assert!(
            matches!(err, ExchangeError::PeerDied { .. }),
            "expected PeerDied, got {err}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "bounded wait, not a hang"
        );
        sink.join().expect("sink thread");
    }

    #[test]
    fn tcp_route_delivers_buckets_to_owners() {
        let (e0, e1) = start_pair(Duration::from_secs(5));
        // 4 buckets over 2 shards: shard 0 owns 0..2, shard 1 owns 2..4.
        let t1 = {
            let e1 = Arc::clone(&e1);
            std::thread::spawn(move || {
                e1.route(
                    9,
                    vec![data_frame(9, 2, 1, 0xbb), data_frame(9, 2, 3, 0xcc)],
                    4,
                )
            })
        };
        let got0 = e0
            .route(
                9,
                vec![data_frame(9, 0, 0, 0xaa), data_frame(9, 0, 2, 0xdd)],
                4,
            )
            .expect("route 0");
        let got1 = t1.join().expect("join").expect("route 1");
        let mut buckets0: Vec<u64> = got0.iter().map(|f| f.bucket).collect();
        buckets0.sort_unstable();
        assert_eq!(buckets0, vec![0, 1], "shard 0 receives its owned buckets");
        let mut buckets1: Vec<u64> = got1.iter().map(|f| f.bucket).collect();
        buckets1.sort_unstable();
        assert_eq!(buckets1, vec![2, 3]);
    }

    #[test]
    fn tcp_gather_broadcasts_everything() {
        let (e0, e1) = start_pair(Duration::from_secs(5));
        let t1 = {
            let e1 = Arc::clone(&e1);
            std::thread::spawn(move || e1.gather(4, vec![data_frame(4, 1, 1, 2)]))
        };
        let got0 = e0.gather(4, vec![data_frame(4, 0, 0, 1)]).expect("gather");
        let got1 = t1.join().expect("join").expect("gather 1");
        let mut srcs0: Vec<u64> = got0.iter().map(|f| f.src).collect();
        srcs0.sort_unstable();
        assert_eq!(srcs0, vec![0, 1]);
        let mut srcs1: Vec<u64> = got1.iter().map(|f| f.src).collect();
        srcs1.sort_unstable();
        assert_eq!(srcs1, vec![0, 1]);
    }

    #[test]
    fn tcp_peer_death_is_typed_not_a_hang() {
        let (e0, e1) = start_pair(Duration::from_millis(600));
        // Shard 1 sends its frames (so a connection exists), then dies
        // without... actually: shard 1 simply drops. Shard 0 then waits on a
        // route and must get a typed error within the bound, not hang.
        drop(e1);
        let started = Instant::now();
        let err = e0
            .route(2, vec![data_frame(2, 0, 3, 7)], 4)
            .expect_err("peer is gone");
        assert!(
            matches!(
                err,
                ExchangeError::PeerDied { .. }
                    | ExchangeError::Timeout { .. }
                    | ExchangeError::Io { .. }
            ),
            "{err}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "bounded wait, not a hang"
        );
    }

    #[test]
    fn tcp_connect_to_nobody_times_out() {
        let (l0, a0) = TcpExchange::bind("127.0.0.1:0").expect("bind");
        // Peer address: a bound-then-dropped listener → nobody home.
        let ghost = {
            let (l, a) = TcpExchange::bind("127.0.0.1:0").expect("bind");
            drop(l);
            a
        };
        let e0 = TcpExchange::start(
            l0,
            ShardLayout::new(0, 2),
            vec![a0.to_string(), ghost.to_string()],
            Arc::new(ExchangeCounters::default()),
            Duration::from_millis(300),
        )
        .expect("start");
        let err = e0
            .route(1, vec![data_frame(1, 0, 3, 1)], 4)
            .expect_err("no peer");
        assert!(
            matches!(
                err,
                ExchangeError::Timeout { .. } | ExchangeError::Io { .. }
            ),
            "{err}"
        );
    }
}
