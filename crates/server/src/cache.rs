//! The result cache: a byte-bounded, thread-safe LRU memoizing serialized
//! zoom results.
//!
//! A result is named by what was asked and when: the key is the dataset
//! epoch followed by the request's canonical query text
//! (`epoch=N;graph=..;repr=..;range=..;<pipeline>`, built by the zoom path).
//! The map is keyed by that text itself, so two distinct queries can never
//! share an entry; each entry's text is one shared `Arc<str>`, held by the
//! map and by the recency index.
//!
//! Values are the serialized result texts, shared out as `Arc<str>` — a hit
//! replays the exact bytes of the first execution (byte-identical responses,
//! asserted by the CI smoke test) without re-serialization. A hit shares
//! the entry's allocation all the way to the socket: the zoom reply holds
//! the `Arc` and the connection's write backlog queues it as one chunk, so
//! the bytes are never copied (nor re-checked as UTF-8, which the type
//! already guarantees). An entry evicted meanwhile lives until written.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tgraph_dataflow::lock_unpoisoned;

struct Entry {
    bytes: Arc<str>,
    tick: u64,
}

/// Fixed bookkeeping retained per resident entry beyond the key text and
/// payload: the map's `(key, Entry)` slot, the recency-index node payload
/// (`tick → key`), and the reference counters of the two `Arc`s. Derived
/// from the actual layouts so the charge tracks the code.
const ENTRY_OVERHEAD: u64 = (std::mem::size_of::<(Arc<str>, Entry)>()
    + std::mem::size_of::<(u64, Arc<str>)>()
    + 4 * std::mem::size_of::<usize>()) as u64;

/// Budget charge of one entry: what residency actually retains. Shared with
/// the shadow-model property test so any accounting drift between model and
/// implementation is a test failure.
fn entry_cost(key: &str, payload_len: usize) -> u64 {
    (payload_len + key.len()) as u64 + ENTRY_OVERHEAD
}

#[derive(Default)]
struct Inner {
    map: HashMap<Arc<str>, Entry>,
    /// Recency order: tick → key, oldest first.
    recency: BTreeMap<u64, Arc<str>>,
    bytes_used: u64,
    next_tick: u64,
}

impl Inner {
    fn tick(&mut self) -> u64 {
        self.next_tick += 1;
        self.next_tick - 1
    }

    /// Takes `key`'s entry out of the map, the recency index and the
    /// byte count.
    fn remove(&mut self, key: &str) -> Option<Entry> {
        let entry = self.map.remove(key)?;
        self.recency.remove(&entry.tick);
        self.bytes_used -= entry_cost(key, entry.bytes.len());
        Some(entry)
    }
}

/// Counters returned by [`ResultCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned bytes.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted to fit the byte budget.
    pub evictions: u64,
    /// Entries dropped by [`ResultCache::invalidate`] (ingest generation
    /// turnover), as opposed to budget evictions.
    pub invalidations: u64,
    /// Bytes currently charged against the budget.
    pub bytes_used: u64,
    /// The configured budget.
    pub byte_budget: u64,
}

/// A byte-bounded LRU over serialized results. All methods are `&self` and
/// thread-safe.
pub struct ResultCache {
    inner: Mutex<Inner>,
    byte_budget: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl ResultCache {
    /// A cache bounded to `byte_budget` bytes of (payload + key + overhead).
    pub fn new(byte_budget: u64) -> Self {
        ResultCache {
            inner: Mutex::new(Inner::default()),
            byte_budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<Arc<str>> {
        let mut inner = lock_unpoisoned(&self.inner);
        let fresh = inner.tick();
        let Inner { map, recency, .. } = &mut *inner;
        let Some(entry) = map.get_mut(key) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        if let Some(shared) = recency.remove(&entry.tick) {
            recency.insert(fresh, shared);
        }
        entry.tick = fresh;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&entry.bytes))
    }

    /// Inserts (or refreshes) `key → bytes`, evicting least-recently-used
    /// entries until the budget holds. An entry larger than the whole budget
    /// is never cached — whether it arrives as a fresh insert or as a
    /// refresh that grew past the budget (the refresh drops the entry
    /// instead of flushing every other resident entry first).
    pub fn insert(&self, key: &str, bytes: Arc<str>) {
        let mut inner = lock_unpoisoned(&self.inner);
        let refreshed = inner.remove(key).is_some();
        let cost = entry_cost(key, bytes.len());
        if cost > self.byte_budget {
            return; // would evict everything and still not fit
        }
        let tick = inner.tick();
        let key: Arc<str> = Arc::from(key);
        inner.recency.insert(tick, Arc::clone(&key));
        inner.map.insert(key, Entry { bytes, tick });
        inner.bytes_used += cost;
        if !refreshed {
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
        while inner.bytes_used > self.byte_budget {
            let Some((_, oldest)) = inner.recency.pop_first() else {
                break;
            };
            if inner.remove(&oldest).is_some() {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drops every entry whose key satisfies `pred`, returning how many were
    /// dropped. Used on ingest: keys stamped with an older epoch can never
    /// hit again, so their bytes are reclaimed eagerly instead of waiting
    /// for LRU pressure.
    pub fn invalidate(&self, pred: impl Fn(&str) -> bool) -> u64 {
        let mut inner = lock_unpoisoned(&self.inner);
        let doomed: Vec<Arc<str>> = inner.map.keys().filter(|k| pred(k)).cloned().collect();
        for key in &doomed {
            inner.remove(key);
        }
        let dropped = doomed.len() as u64;
        self.invalidations.fetch_add(dropped, Ordering::Relaxed);
        dropped
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let bytes_used = {
            let inner = lock_unpoisoned(&self.inner);
            inner.bytes_used
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            bytes_used,
            byte_budget: self.byte_budget,
        }
    }

    /// Whether `key` is resident, **without** refreshing its recency — a
    /// pure probe for tests and metrics, unlike [`get`](ResultCache::get)
    /// which promotes the entry to most-recently-used.
    pub fn contains(&self, key: &str) -> bool {
        lock_unpoisoned(&self.inner).map.contains_key(key)
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.inner).map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` copies of the ASCII character `fill % 128`.
    fn payload(n: usize, fill: u8) -> Arc<str> {
        char::from(fill % 128).to_string().repeat(n).into()
    }

    #[test]
    fn hit_returns_the_exact_bytes() {
        let c = ResultCache::new(10_000);
        assert!(c.get("q1").is_none());
        c.insert("q1", payload(100, b'7'));
        assert_eq!(c.get("q1").as_deref(), Some("7".repeat(100).as_str()));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn byte_budget_evicts_in_lru_order() {
        // Budget fits three entries but not four.
        let unit = entry_cost("k1", 100);
        let budget = 3 * unit + unit / 2;
        let c = ResultCache::new(budget);
        for (fill, name) in [(1, "k1"), (2, "k2"), (3, "k3")] {
            c.insert(name, payload(100, fill));
        }
        assert_eq!(c.len(), 3);
        // Touch k1 so k2 becomes the LRU entry.
        assert!(c.get("k1").is_some());
        // Inserting k4 exceeds the budget → evict k2 (oldest untouched).
        c.insert("k4", payload(100, 4));
        assert!(c.get("k2").is_none(), "k2 evicted");
        assert!(c.get("k1").is_some(), "k1 survived (recently used)");
        assert!(c.get("k3").is_some());
        assert!(c.get("k4").is_some());
        assert_eq!(c.stats().evictions, 1);
        assert!(c.stats().bytes_used <= budget);
    }

    /// The budget charge reflects what residency retains: the payload, the
    /// one shared copy of the key text, and layout-derived bookkeeping.
    #[test]
    fn entry_cost_covers_payload_key_and_bookkeeping() {
        let key = "x".repeat(1000);
        let c = ResultCache::new(1 << 20);
        c.insert(&key, payload(100, 1));
        let used = c.stats().bytes_used;
        assert_eq!(used, entry_cost(&key, 100));
        assert!(used >= 100 + 1000, "payload and key text, got {used}");
        // The overhead term is layout-derived, not a guess: it covers at
        // least the Entry struct and the recency node it models.
        assert!(ENTRY_OVERHEAD >= std::mem::size_of::<Entry>() as u64);
        // One allocation of the text serves the map and the recency index.
        let inner = lock_unpoisoned(&c.inner);
        let (held, _) = inner.map.get_key_value(key.as_str()).expect("resident");
        assert_eq!(Arc::strong_count(held), 2);
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let c = ResultCache::new(100);
        c.insert("big", payload(200, 1));
        assert!(c.get("big").is_none());
        assert_eq!(c.stats().insertions, 0);
        assert_eq!(c.stats().bytes_used, 0);
    }

    #[test]
    fn reinsert_refreshes_in_place() {
        let c = ResultCache::new(10_000);
        c.insert("q", payload(10, 1));
        c.insert("q", payload(20, 2));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("q").as_deref(), Some("\u{2}".repeat(20).as_str()));
        assert_eq!(c.stats().insertions, 1, "a refresh is not an insertion");
        assert_eq!(c.stats().bytes_used, entry_cost("q", 20));
    }

    /// A refresh whose new value alone exceeds the budget must drop the
    /// entry, not flush every *other* resident entry first.
    #[test]
    fn oversized_refresh_drops_only_the_refreshed_entry() {
        // Budget fits all four small entries.
        let unit = entry_cost("k1", 100);
        let budget = 5 * unit;
        let c = ResultCache::new(budget);
        for (fill, name) in [(1, "k1"), (2, "k2"), (3, "k3"), (9, "kg")] {
            c.insert(name, payload(100, fill));
        }
        assert_eq!(c.len(), 4);
        // Refresh kg with a payload larger than the entire budget.
        c.insert("kg", payload(budget as usize + 100, 9));
        assert!(!c.contains("kg"), "oversized refresh is dropped");
        for name in ["k1", "k2", "k3"] {
            assert!(
                c.contains(name),
                "{name} must survive an oversized refresh of another key"
            );
        }
        assert_eq!(c.stats().evictions, 0, "no other entry was evicted");
        let used = c.stats().bytes_used;
        assert_eq!(used, 3 * unit, "accounting excludes the dropped entry");
    }

    #[test]
    fn invalidate_drops_matching_entries_and_reclaims_bytes() {
        let c = ResultCache::new(10_000);
        c.insert("epoch=0;graph=a;repr=ve", payload(100, 1));
        c.insert("epoch=0;graph=a;repr=og", payload(100, 2));
        c.insert("epoch=0;graph=b;repr=ve", payload(100, 3));
        let before = c.stats().bytes_used;
        let dropped = c.invalidate(|key| key.contains("graph=a;"));
        assert_eq!(dropped, 2);
        assert!(!c.contains("epoch=0;graph=a;repr=ve"));
        assert!(!c.contains("epoch=0;graph=a;repr=og"));
        assert!(c.contains("epoch=0;graph=b;repr=ve"));
        let s = c.stats();
        assert_eq!(s.invalidations, 2);
        assert_eq!(s.evictions, 0, "invalidation is not an eviction");
        assert!(s.bytes_used < before);
        // Recency bookkeeping stays coherent: filling the cache afterwards
        // still evicts cleanly.
        for i in 10..60u64 {
            c.insert(&format!("graph=c;q{i}"), payload(400, i as u8));
        }
        assert!(c.stats().bytes_used <= 10_000);
    }

    #[test]
    fn contains_does_not_refresh_recency() {
        // Budget for exactly two entries.
        let c = ResultCache::new(2 * entry_cost("k1", 100) + 10);
        c.insert("k1", payload(100, 1));
        c.insert("k2", payload(100, 2));
        // Probe k1 with contains(): unlike get(), this must NOT promote it.
        assert!(c.contains("k1"));
        c.insert("k3", payload(100, 3));
        assert!(!c.contains("k1"), "k1 was still the LRU entry");
        assert!(c.contains("k2"));
        assert!(c.contains("k3"));
    }

    /// A shadow model of the cache: entries kept in recency order (front =
    /// least recently used), with the same cost formula. Used by the
    /// property test to predict residency, eviction order, and byte
    /// accounting after every operation.
    struct Shadow {
        budget: u64,
        /// (key, payload_len), LRU first.
        entries: Vec<(String, usize)>,
    }

    impl Shadow {
        fn used(&self) -> u64 {
            // The implementation's own formula: the model predicts *exact*
            // byte accounting, so any drift in `entry_cost` (or a call site
            // forgetting a component) fails the property test.
            self.entries.iter().map(|(k, l)| entry_cost(k, *l)).sum()
        }

        fn position(&self, key: &str) -> Option<usize> {
            self.entries.iter().position(|(k, _)| k == key)
        }

        /// Mirrors `ResultCache::get`: promote to most-recently-used.
        fn get(&mut self, key: &str) -> Option<usize> {
            let idx = self.position(key)?;
            let e = self.entries.remove(idx);
            let len = e.1;
            self.entries.push(e);
            Some(len)
        }

        /// Mirrors `ResultCache::insert`, including the oversized rules.
        fn insert(&mut self, key: &str, len: usize) {
            if let Some(idx) = self.position(key) {
                self.entries.remove(idx);
            }
            if entry_cost(key, len) > self.budget {
                return; // oversized: never cached, nothing else evicted
            }
            self.entries.push((key.to_string(), len));
            while self.used() > self.budget {
                self.entries.remove(0); // evict LRU-first
            }
        }
    }

    /// Property test: under a long random interleaving of gets, inserts,
    /// refreshes and oversized values, the cache agrees with the shadow
    /// model on residency (via the non-refreshing `contains`), payload
    /// identity, and exact byte accounting — and never exceeds its budget.
    #[test]
    fn random_ops_agree_with_shadow_model() {
        // Deterministic LCG so failures replay exactly.
        let mut state: u64 = 0x9E3779B97F4A7C15;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };

        const BUDGET: u64 = 1200;
        let c = ResultCache::new(BUDGET);
        let mut shadow = Shadow {
            budget: BUDGET,
            entries: Vec::new(),
        };

        // A small key universe with key lengths from 2 to ~80 characters,
        // so the key-text term of the cost formula carries weight.
        let keyspace: Vec<String> = (0..16usize)
            .map(|i| format!("q{i}{}", "x".repeat((i % 4) * 25)))
            .collect();

        for step in 0..4000 {
            let k = &keyspace[(next() % 16) as usize];
            match next() % 3 {
                0 => {
                    // get: cache hit iff the shadow says resident, and the
                    // payload length matches the shadow's record.
                    let got = c.get(k);
                    assert_eq!(
                        got.as_ref().map(|b| b.len()),
                        shadow.get(k),
                        "step {step}: get({k:?}) disagrees with the model"
                    );
                }
                1 => {
                    // insert / refresh with a size that is usually small but
                    // occasionally oversized (> budget).
                    let len = if next() % 8 == 0 {
                        (BUDGET as usize) + 100
                    } else {
                        (next() % 300) as usize
                    };
                    c.insert(k, payload(len, k.len() as u8));
                    shadow.insert(k, len);
                }
                _ => {
                    // Pure probe: must not perturb recency in either model.
                    assert_eq!(
                        c.contains(k),
                        shadow.position(k).is_some(),
                        "step {step}: contains({k:?}) disagrees with the model"
                    );
                }
            }
            // Invariants after every operation.
            let s = c.stats();
            assert!(
                s.bytes_used <= BUDGET,
                "step {step}: bytes_used {} exceeds budget",
                s.bytes_used
            );
            assert_eq!(
                s.bytes_used,
                shadow.used(),
                "step {step}: byte accounting drifted from the model"
            );
            assert_eq!(
                c.len(),
                shadow.entries.len(),
                "step {step}: resident count drifted from the model"
            );
            for (key, _) in &shadow.entries {
                assert!(c.contains(key), "step {step}: model says {key} is resident");
            }
        }
        // The run must have actually exercised eviction.
        assert!(c.stats().evictions > 0, "run never evicted — weak test");
        assert!(c.stats().hits > 0 && c.stats().misses > 0);
    }

    #[test]
    fn concurrent_get_insert_is_consistent() {
        let c = Arc::new(ResultCache::new(1 << 20));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let k = format!("q{}", i % 16);
                    if (i + t) % 3 == 0 {
                        c.insert(&k, payload(((i % 16) + 1) as usize, (i % 16) as u8));
                    } else if let Some(bytes) = c.get(&k) {
                        // Whatever we read must be the payload for that key.
                        assert_eq!(bytes.len() as u64, (i % 16) + 1);
                        assert!(bytes.bytes().all(|b| b == (i % 16) as u8));
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("worker panicked");
        }
        let s = c.stats();
        assert!(s.hits + s.misses > 0);
        assert!(s.bytes_used <= 1 << 20);
    }
}
