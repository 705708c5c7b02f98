//! The pluggable exchange layer: how a shuffle's buckets travel from its map
//! side to its reduce side.
//!
//! A [`Runtime`](crate::Runtime) has no exchange installed by default: a
//! shuffle then moves its typed bucket vectors from the map side straight to
//! the reduce side. With an [`Exchange`] installed, the same shuffle encodes
//! each non-empty bucket into a [`Frame`], routes the frames, and decodes
//! what comes back into the same bucket slots - frames are a transport
//! detail between one map side and one governed reduce side. Payloads use
//! the [`Spill`](crate::Spill) codec, the run-file format.
//!
//! [`Loopback`] is the one implementation that ships: every frame is handed
//! straight back, counted. Installing it makes every shuffle pay for
//! serialization, which is how the representations are compared once moved
//! bytes cost something.
//!
//! # Failure model
//!
//! A payload that does not decode back into its records (truncated, or
//! longer than its record count accounts for) is a typed
//! [`ExchangeError::Frame`], never a silently short bucket. The wave then
//! aborts with the error as a typed panic payload - the same discipline as
//! [`SpillError`](crate::SpillError).

use crate::spill::{Spill, SpillReader};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Why an exchange operation failed. Raised as a typed panic payload by the
/// shuffle path (mirroring [`SpillError`](crate::SpillError)), so
/// `catch_unwind` callers can downcast and report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExchangeError {
    /// A frame failed to decode back into records, or named a bucket slot
    /// the shuffle cannot take.
    Frame {
        /// What was wrong with the frame.
        detail: String,
    },
}

impl std::fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExchangeError::Frame { detail } => write!(f, "exchange frame corrupt: {detail}"),
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

/// One unit of exchanged data: an encoded record batch from map partition
/// `src`, destined for partition `bucket`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Source (map) partition index.
    pub src: u64,
    /// Destination (reduce) partition index.
    pub bucket: u64,
    /// Number of records encoded in the payload.
    pub records: u64,
    /// Record batch encoded with the [`Spill`](crate::Spill) codec.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame carrying `records` (encoded with the [`Spill`](crate::Spill)
    /// codec) from map partition `src` to partition `bucket`.
    pub fn of_records<T: Spill>(src: usize, bucket: usize, records: &[T]) -> Frame {
        let mut payload = Vec::new();
        for r in records {
            r.spill(&mut payload);
        }
        Frame {
            src: src as u64,
            bucket: bucket as u64,
            records: records.len() as u64,
            payload,
        }
    }

    /// Decodes the payload back into its typed records. A payload that is
    /// truncated, or longer than its `records` count accounts for, is a
    /// typed [`ExchangeError::Frame`].
    pub fn records<T: Spill>(&self) -> Result<Vec<T>, ExchangeError> {
        let mut r = SpillReader::new(&self.payload);
        // Cap the pre-allocation: a count must not be able to force an
        // arbitrary allocation before decode proves it out.
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

/// Monotonic exchange counters, shared between the runtime's stats and the
/// installed exchange.
#[derive(Debug, Default)]
pub struct ExchangeCounters {
    /// Payload bytes handed to the exchange.
    pub bytes_exchanged: AtomicU64,
    /// Data frames handed to the exchange for routing.
    pub frames_sent: AtomicU64,
    /// Data frames the exchange delivered back.
    pub frames_received: AtomicU64,
}

/// The routing abstraction a shuffle goes through when one is installed on
/// the [`Runtime`](crate::Runtime). Implementations operate on encoded
/// [`Frame`]s so the trait stays object-safe.
pub trait Exchange: Send + Sync {
    /// Routes a shuffle's frames and returns every frame that reaches the
    /// reduce side.
    fn route(&self, frames: Vec<Frame>) -> Result<Vec<Frame>, ExchangeError>;
}

/// The exchange that hands every frame straight back, counted. Installing
/// it makes shuffles encode and decode every bucket through the codec - what
/// the golden tests compare against the typed move.
pub struct Loopback {
    counters: Arc<ExchangeCounters>,
}

impl Loopback {
    /// A loopback counting into `counters` (the installing runtime's
    /// [`exchange_counters`](crate::Runtime::exchange_counters)).
    pub fn new(counters: Arc<ExchangeCounters>) -> Self {
        Loopback { counters }
    }
}

impl Exchange for Loopback {
    fn route(&self, frames: Vec<Frame>) -> Result<Vec<Frame>, ExchangeError> {
        let bytes: u64 = frames.iter().map(|f| f.payload.len() as u64).sum();
        let n = frames.len() as u64;
        let c = &self.counters;
        c.frames_sent.fetch_add(n, Ordering::Relaxed);
        c.bytes_exchanged.fetch_add(bytes, Ordering::Relaxed);
        c.frames_received.fetch_add(n, Ordering::Relaxed);
        Ok(frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_roundtrip_and_reject_a_lying_count() {
        let rows: Vec<(u64, String)> = vec![(1, "a".into()), (2, "bc".into())];
        let mut f = Frame::of_records(3, 1, &rows);
        assert_eq!((f.src, f.bucket, f.records), (3, 1, 2));
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
        let frames = vec![Frame::of_records(0, 1, &[0u64])];
        let out = ex.route(frames.clone()).expect("loopback");
        assert_eq!(out, frames);
        assert_eq!(counters.frames_sent.load(Ordering::Relaxed), 1);
        assert_eq!(counters.frames_received.load(Ordering::Relaxed), 1);
        assert_eq!(counters.bytes_exchanged.load(Ordering::Relaxed), 8);
    }
}
