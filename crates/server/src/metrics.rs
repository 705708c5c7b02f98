//! Latency histograms and request counters for the `/stats` endpoint.
//!
//! Histograms use power-of-two microsecond buckets: bucket 0 holds 0 µs,
//! bucket *i* (for `1 ≤ i < 39`) holds durations in `[2^(i-1), 2^i)` µs,
//! and the final bucket saturates — it holds everything from `2^38` µs
//! (~76 hours) up to `u64::MAX`. Recording is a single atomic increment and
//! percentile estimates are within a factor of two — plenty for the serving
//! benchmark's p50/p95/p99 reporting. A quantile that lands in the
//! saturated final bucket is reported as the observed maximum rather than a
//! fictitious power-of-two "upper bound" that would under-report it.

use crate::json::{counters, Json};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const BUCKETS: usize = 40; // 2^39 µs ≈ 6.4 days; ample ceiling

/// A lock-free log2 latency histogram over microseconds.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one duration.
    pub fn record(&self, d: Duration) {
        let us = d.as_micros().min(u128::from(u64::MAX)) as u64;
        let idx = (64 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Number of recordings.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Upper bound (µs) of the bucket containing quantile `q ∈ [0,1]`, or 0
    /// when empty. For the saturated final bucket (values ≥ 2^38 µs, which
    /// has no power-of-two upper bound) the observed maximum is returned
    /// instead — honest and tight, since the global maximum necessarily
    /// lives in the highest non-empty bucket.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let snapshot: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = snapshot.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in snapshot.iter().enumerate() {
            seen += n;
            if seen >= rank {
                if i == BUCKETS - 1 {
                    break; // saturated bucket: fall through to max_us
                }
                // Bucket i holds [2^(i-1), 2^i) µs (i = 0 holds 0 µs), so
                // 2^i bounds every value in it.
                return 1u64 << i;
            }
        }
        self.max_us.load(Ordering::Relaxed)
    }

    /// Percentile summary as a deterministic JSON object.
    pub fn to_json(&self) -> Json {
        let count = self.count();
        let mean = self
            .sum_us
            .load(Ordering::Relaxed)
            .checked_div(count)
            .unwrap_or(0);
        Json::obj(vec![
            ("count", Json::Int(count as i64)),
            ("mean_us", Json::Int(mean as i64)),
            ("p50_us", Json::Int(self.quantile_us(0.50) as i64)),
            ("p95_us", Json::Int(self.quantile_us(0.95) as i64)),
            ("p99_us", Json::Int(self.quantile_us(0.99) as i64)),
            (
                "max_us",
                Json::Int(self.max_us.load(Ordering::Relaxed) as i64),
            ),
        ])
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("p50_us", &self.quantile_us(0.5))
            .field("p99_us", &self.quantile_us(0.99))
            .finish()
    }
}

/// All serving metrics: request counters plus per-phase latency histograms.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Requests received, any kind.
    pub requests: AtomicU64,
    /// Zoom requests answered from the result cache.
    pub zoom_cache_hits: AtomicU64,
    /// Zoom requests executed on the runtime.
    pub zoom_executed: AtomicU64,
    /// Zoom executions served by patching a prior result from the delta
    /// suffix (O(delta)) instead of recomputing over the full history.
    pub zoom_patched: AtomicU64,
    /// Ingest epochs committed.
    pub ingests: AtomicU64,
    /// Zoom requests rejected (bad request, admission, deadline).
    pub zoom_rejected: AtomicU64,
    /// Zoom requests cancelled mid-execution by their deadline.
    pub zoom_cancelled: AtomicU64,
    /// Malformed / unparseable request lines.
    pub bad_requests: AtomicU64,
    /// Zoom requests whose representation the chooser picked (`"auto"`).
    pub auto_chosen: AtomicU64,
    /// Auto choices that compared observed run times rather than taking
    /// the default.
    pub auto_by_observed: AtomicU64,
    /// Transient accept-loop failures retried with backoff (EMFILE, ENFILE,
    /// ECONNABORTED, EINTR, …). The loop no longer dies on these.
    pub accept_errors: AtomicU64,
    /// Request lines rejected for exceeding the max-line cap
    /// (`line_too_large` responses; the connection is closed after).
    pub lines_over_cap: AtomicU64,
    /// Batches of pipelined request lines dispatched by the event loop.
    pub pipelined_batches: AtomicU64,
    /// Request lines carried inside those batches. `pipelined_lines /
    /// pipelined_batches` is the realized pipelining depth.
    pub pipelined_lines: AtomicU64,
    /// Times a reactor paused reading a connection because admission or the
    /// memory governor was saturated (kernel TCP backpressure engaged).
    pub backpressure_pauses: AtomicU64,
    /// End-to-end zoom latency (parse → response serialized).
    pub total_latency: Histogram,
    /// Admission-wait portion of zoom latency.
    pub admission_wait: Histogram,
    /// Execution portion (pipeline run + collect) of zoom latency.
    pub exec_latency: Histogram,
    /// Cache-hit service latency (lookup + reply).
    pub hit_latency: Histogram,
}

impl ServerMetrics {
    /// Bumps a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Counter snapshot as a deterministic JSON object.
    pub fn to_json(&self) -> Json {
        let n = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let mut fields = counters(&[
            ("requests", n(&self.requests)),
            ("zoom_cache_hits", n(&self.zoom_cache_hits)),
            ("zoom_executed", n(&self.zoom_executed)),
            ("zoom_patched", n(&self.zoom_patched)),
            ("ingests", n(&self.ingests)),
            ("zoom_rejected", n(&self.zoom_rejected)),
            ("zoom_cancelled", n(&self.zoom_cancelled)),
            ("bad_requests", n(&self.bad_requests)),
            ("auto_chosen", n(&self.auto_chosen)),
            ("auto_by_observed", n(&self.auto_by_observed)),
            ("accept_errors", n(&self.accept_errors)),
            ("lines_over_cap", n(&self.lines_over_cap)),
            ("pipelined_batches", n(&self.pipelined_batches)),
            ("pipelined_lines", n(&self.pipelined_lines)),
            ("backpressure_pauses", n(&self.backpressure_pauses)),
        ]);
        fields.push((
            "latency".to_string(),
            Json::obj(vec![
                ("total", self.total_latency.to_json()),
                ("admission_wait", self.admission_wait.to_json()),
                ("exec", self.exec_latency.to_json()),
                ("cache_hit", self.hit_latency.to_json()),
            ]),
        ));
        Json::Obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_bracket_recorded_values() {
        let h = Histogram::default();
        for us in [100u64, 200, 400, 800, 100_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 5);
        let p50 = h.quantile_us(0.5);
        // Median value 400 µs lives in bucket [256, 512) → upper bound 512.
        assert_eq!(p50, 512);
        let p99 = h.quantile_us(0.99);
        assert!(p99 >= 100_000, "p99 {p99} covers the outlier");
        // Monotone in q.
        assert!(h.quantile_us(0.1) <= p50 && p50 <= p99);
    }

    /// Satellite regression test: bucket boundaries match the documented
    /// `[2^(i-1), 2^i)` mapping exactly at the edges, and the saturated
    /// final bucket reports the observed max instead of a fictitious bound.
    #[test]
    fn bucket_boundaries_are_exact() {
        // v = 1 lives in bucket 1 = [1, 2) → reported bound 2.
        let h = Histogram::default();
        h.record(Duration::from_micros(1));
        assert_eq!(h.quantile_us(1.0), 2);

        for k in [1u32, 5, 17, 30] {
            // v = 2^k is the *lower* edge of bucket k+1 = [2^k, 2^(k+1)).
            let h = Histogram::default();
            h.record(Duration::from_micros(1u64 << k));
            assert_eq!(h.quantile_us(1.0), 1u64 << (k + 1), "v = 2^{k}");

            // v = 2^k − 1 is the *upper* edge of bucket k = [2^(k-1), 2^k).
            let h = Histogram::default();
            h.record(Duration::from_micros((1u64 << k) - 1));
            assert_eq!(h.quantile_us(1.0), 1u64 << k, "v = 2^{k} - 1");
        }
    }

    #[test]
    fn saturated_bucket_reports_observed_max() {
        // Anything ≥ 2^38 µs clamps into the final bucket, whose "bound" is
        // the recorded maximum — not a silently under-reporting 2^39.
        let h = Histogram::default();
        h.record(Duration::from_micros(u64::MAX));
        assert_eq!(h.quantile_us(0.5), u64::MAX);
        assert_eq!(h.quantile_us(1.0), u64::MAX);

        let h = Histogram::default();
        let big = (1u64 << 45) + 12345;
        h.record(Duration::from_micros(big));
        assert_eq!(
            h.quantile_us(1.0),
            big,
            "quantile must not report below an observed value"
        );

        // A mixed population: the quantile below the saturated bucket still
        // reports its exact power-of-two bound.
        let h = Histogram::default();
        for _ in 0..9 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_micros(big));
        assert_eq!(h.quantile_us(0.5), 128);
        assert_eq!(h.quantile_us(1.0), big);
    }

    #[test]
    fn zero_duration_lands_in_bucket_zero() {
        let h = Histogram::default();
        h.record(Duration::from_micros(0));
        assert_eq!(h.quantile_us(1.0), 1, "bucket 0 holds 0 µs; bound 2^0");
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::default();
        assert_eq!(h.quantile_us(0.99), 0);
        let j = h.to_json();
        assert_eq!(j.get("count"), Some(&Json::Int(0)));
        assert_eq!(j.get("p50_us"), Some(&Json::Int(0)));
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let h = std::sync::Arc::new(Histogram::default());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let h = std::sync::Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    h.record(Duration::from_micros(i));
                }
            }));
        }
        for handle in handles {
            handle.join().expect("recorder panicked");
        }
        assert_eq!(h.count(), 4000);
    }
}
