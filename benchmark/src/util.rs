//! Statistics, hashing, a seeded shuffle and `/proc` readers shared by every
//! workload. No dependency beyond the standard library.

use std::path::Path;

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// A percentile is reportable when at least ten samples lie beyond it.
pub fn tail_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Geometric mean over kinds of operation (a cell, a distinct request) of
/// each kind's median latency: the typical latency, every kind counting the
/// same. A percentile of the pooled samples sits in a gap between two kinds
/// and moves with whichever one the machine disturbed; this averages over all
/// of them, as `ops_per_s` does, without letting the heaviest kinds dominate.
/// Kinds without samples are skipped; 0 when there are none.
pub fn geomean_of_medians(kinds: &[Vec<f64>]) -> f64 {
    let logs: Vec<f64> = kinds
        .iter()
        .filter(|k| !k.is_empty())
        .map(|k| median(k).ln())
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    if v.len() < 2 {
        return None;
    }
    let s = sorted(v.to_vec());
    let (ld, n) = (s.len(), 4usize);
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// the compare gate holds against a metric's bound. 0 for fewer than two
/// values.
pub fn spread(v: &[f64]) -> f64 {
    match (quartiles(v), median(v)) {
        (Some((q1, q3)), m) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Timing samples grouped into rounds of identical work (one pass over the
/// cells, one shuffled pass over the population, one ingest lap). Every
/// end-to-end timing is the median over rounds of the round's own value, so
/// a round disturbed by the machine moves the result by one rank, not by
/// its size.
#[derive(Default)]
pub struct Rounds {
    latencies_ms: Vec<Vec<f64>>,
    ops_per_s: Vec<f64>,
}

impl Rounds {
    /// One finished round: its zoom latencies, and the operations it
    /// answered in `seconds` of wall time.
    pub fn push(&mut self, latencies_ms: Vec<f64>, ops: usize, seconds: f64) {
        self.latencies_ms.push(sorted(latencies_ms));
        self.ops_per_s.push(ops as f64 / seconds.max(1e-9));
    }

    pub fn len(&self) -> usize {
        self.ops_per_s.len()
    }

    pub fn samples(&self) -> usize {
        self.latencies_ms.iter().map(Vec::len).sum()
    }

    /// Median over rounds of each round's nearest-rank `p` percentile.
    pub fn percentile(&self, p: f64) -> f64 {
        let per_round: Vec<f64> = self
            .latencies_ms
            .iter()
            .filter(|r| !r.is_empty())
            .map(|r| percentile(r, p))
            .collect();
        median(&per_round)
    }

    /// Median over rounds of each round's operations per second.
    pub fn ops_per_s(&self) -> f64 {
        median(&self.ops_per_s)
    }

    pub fn absorb(&mut self, other: Rounds) {
        self.latencies_ms.extend(other.latencies_ms);
        self.ops_per_s.extend(other.ops_per_s);
    }

    /// The note printed beside the percentiles: sample counts and how many
    /// samples lie beyond p95.
    pub fn describe(&self, what: &str) -> String {
        let n = self.samples();
        format!(
            "{what}: {n} samples in {} rounds, p50/p95 taken per round then the median over rounds; {} samples beyond p95 overall (supported: {})",
            self.len(),
            samples_beyond(n, 0.95),
            tail_supported(n, 0.95)
        )
    }
}

/// Word-at-a-time multiplicative hash of a response body. Only equality
/// matters (golden answer vs replay), so speed beats distribution: the
/// client hashes up to ~1 MB per response inside the closed loop.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h.rotate_left(5) ^ w).wrapping_mul(K);
    }
    for b in chunks.remainder() {
        h = (h.rotate_left(5) ^ u64::from(*b)).wrapping_mul(K);
    }
    h
}

/// splitmix64: the one generator behind every seeded choice the driver makes
/// itself (population shuffles, ingest deltas).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Fisher-Yates.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// `utime + stime` of a process in milliseconds (all its threads).
pub fn cpu_ms(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces and parentheses: fields resume after
    // the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    Some(ticks * 1000.0 / clock_ticks_per_s())
}

fn clock_ticks_per_s() -> f64 {
    static TICKS: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *TICKS.get_or_init(|| {
        command_line("getconf", &["CLK_TCK"])
            .and_then(|s| s.parse().ok())
            .unwrap_or(100.0)
    })
}

/// Peak resident set (`VmHWM`) of a process in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// (bytes, regular files) under a directory, recursively.
pub fn dir_usage(dir: &Path) -> (u64, u64) {
    let mut total = (0, 0);
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            match e.metadata() {
                Ok(m) if m.is_dir() => {
                    let (b, f) = dir_usage(&e.path());
                    total = (total.0 + b, total.1 + f);
                }
                Ok(m) => total = (total.0 + m.len(), total.1 + 1),
                Err(_) => {}
            }
        }
    }
    total
}

/// First line of a command's stdout, trimmed; `None` when it cannot run.
pub fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8_lossy(&out.stdout);
    s.lines().next().map(|l| l.trim().to_string())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(200, 0.95));
        assert!(!tail_supported(199, 0.95));
        assert!(!tail_supported(50, 0.9));
    }

    #[test]
    fn typical_latency_weighs_every_kind_the_same() {
        let kinds = vec![vec![1.0, 2.0, 300.0], vec![8.0], vec![], vec![4.0, 4.0]];
        // medians 2, 8, 4: geometric mean 4.
        assert!((geomean_of_medians(&kinds) - 4.0).abs() < 1e-12);
        assert_eq!(geomean_of_medians(&[]), 0.0);
    }

    #[test]
    fn round_statistics_are_medians_over_rounds() {
        let mut r = Rounds::default();
        r.push(vec![1.0, 2.0, 3.0, 4.0], 4, 2.0);
        r.push(vec![10.0, 20.0, 30.0, 40.0], 4, 8.0);
        r.push(vec![2.0, 3.0, 4.0, 5.0], 4, 1.0);
        assert_eq!(r.percentile(0.5), 3.0);
        assert_eq!(r.percentile(1.0), 5.0);
        assert_eq!(r.ops_per_s(), 2.0);
        assert_eq!((r.len(), r.samples()), (3, 12));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let (q1, q3) = quartiles(&[3.0, 1.0]).unwrap();
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
        assert_eq!(spread(&[4.0]), 0.0);
    }

    #[test]
    fn hash_separates_near_identical_bodies() {
        let a = b"{\"lifespan\":[0,60],\"vertices\":[]}".to_vec();
        let mut b = a.clone();
        *b.last_mut().unwrap() = b']';
        assert_ne!(hash_bytes(&a), hash_bytes(&b));
        assert_ne!(hash_bytes(&a), hash_bytes(&a[..a.len() - 1]));
        assert_eq!(hash_bytes(&a), hash_bytes(&a.clone()));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        Rng::new(9).shuffle(&mut a);
        Rng::new(9).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..50).collect();
        Rng::new(10).shuffle(&mut c);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(cpu_ms(pid).is_some());
        assert!(peak_rss_mb(pid).unwrap() > 0.0);
    }
}
