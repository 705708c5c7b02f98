//! The result cache: the server's one store of past answers, a
//! byte-bounded, thread-safe LRU.
//!
//! An answer is named by what was asked: the map is keyed by the request's
//! canonical query text (`graph=..;repr=..;range=..;<pipeline>`, built by the
//! zoom path), so two distinct queries can never share an entry; each
//! entry's text is one shared `Arc<str>`, held by the map and by the recency
//! index. When it was asked is in the entry: the dataset epoch the answer
//! was computed at. A lookup hits only at that epoch. An entry from an
//! earlier epoch is a miss that hands the old answer back, and when that
//! answer kept its result graph (range-free queries do) the patch path
//! stitches the new epoch onto it; the new answer then replaces the entry.
//! An ingest therefore has nothing to drop here.
//!
//! Bodies are the serialized result texts, shared out as `Arc<str>` — a hit
//! replays the exact bytes of the first execution (byte-identical responses,
//! asserted by the `serve_e2e` test) without re-serialization. A hit shares
//! the entry's allocation all the way to the socket: the zoom reply holds
//! the `Arc` and the connection's write backlog queues it as one chunk, so
//! the bytes are never copied (nor re-checked as UTF-8, which the type
//! already guarantees). An entry evicted meanwhile lives until written.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tgraph_core::graph::TGraph;
use tgraph_core::time::Time;
use tgraph_dataflow::{charged_size, lock_unpoisoned};

/// One query's answer at one dataset epoch.
#[derive(Clone, Debug)]
pub struct Answer {
    /// The dataset epoch the answer was computed at.
    pub epoch: u64,
    /// The lifespan end of the graph it was computed over: where a patch
    /// from this answer starts.
    pub boundary: Time,
    /// The serialized result.
    pub body: Arc<str>,
    /// The collected result graph, kept for range-free queries only: the
    /// seed the patch path brings up to a later epoch.
    pub seed: Option<Arc<TGraph>>,
}

/// What [`ResultCache::get`] found.
#[derive(Debug)]
pub enum Lookup {
    /// The answer at the asked epoch.
    Hit(Arc<str>),
    /// No answer at the asked epoch; `Some` is the query's answer from an
    /// earlier one.
    Miss(Option<Answer>),
}

struct Entry {
    answer: Answer,
    /// The entry's charge against the budget, fixed when it was stored.
    cost: u64,
    tick: u64,
}

/// Fixed bookkeeping retained per resident entry beyond the key text,
/// body and seed: the map's `(key, Entry)` slot, the recency-index node
/// payload (`tick → key`), and the reference counters of the two `Arc`s.
/// Derived from the actual layouts so the charge tracks the code.
pub(crate) const ENTRY_OVERHEAD: u64 = (std::mem::size_of::<(Arc<str>, Entry)>()
    + std::mem::size_of::<(u64, Arc<str>)>()
    + 4 * std::mem::size_of::<usize>()) as u64;

/// Budget charge of one entry: what residency actually retains — the key
/// text, the body, the seed's vertex and edge lists, and the bookkeeping.
/// Shared with the shadow-model property test so any accounting drift
/// between model and implementation is a test failure.
fn entry_cost(key: &str, answer: &Answer) -> u64 {
    let seed = answer
        .seed
        .as_deref()
        .map_or(0, |g| charged_size(&g.vertices) + charged_size(&g.edges));
    (key.len() + answer.body.len() + seed) as u64 + ENTRY_OVERHEAD
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
        self.bytes_used -= entry.cost;
        Some(entry)
    }
}

/// Counters returned by [`ResultCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned the answer at the asked epoch.
    pub hits: u64,
    /// Lookups that did not: no entry, or one from another epoch.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted to fit the byte budget.
    pub evictions: u64,
    /// Bytes currently charged against the budget.
    pub bytes_used: u64,
    /// The configured budget.
    pub byte_budget: u64,
}

/// A byte-bounded LRU over answers. All methods are `&self` and
/// thread-safe.
pub struct ResultCache {
    inner: Mutex<Inner>,
    byte_budget: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// A cache bounded to `byte_budget` bytes of (key + body + seed +
    /// overhead).
    pub fn new(byte_budget: u64) -> Self {
        ResultCache {
            inner: Mutex::new(Inner::default()),
            byte_budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up `key` at dataset `epoch`, refreshing its recency on a hit.
    /// An entry from an earlier epoch counts as a miss and comes back
    /// whole; one from a later epoch counts as a miss and stays put.
    pub fn get(&self, key: &str, epoch: u64) -> Lookup {
        let mut inner = lock_unpoisoned(&self.inner);
        let fresh = inner.tick();
        let Inner { map, recency, .. } = &mut *inner;
        let entry = match map.get_mut(key) {
            Some(entry) if entry.answer.epoch == epoch => entry,
            other => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let earlier = other.filter(|entry| entry.answer.epoch < epoch);
                return Lookup::Miss(earlier.map(|entry| entry.answer.clone()));
            }
        };
        if let Some(shared) = recency.remove(&entry.tick) {
            recency.insert(fresh, shared);
        }
        entry.tick = fresh;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Lookup::Hit(Arc::clone(&entry.answer.body))
    }

    /// Stores `answer` as `key`'s entry, evicting least-recently-used
    /// entries until the budget holds. An entry from a later epoch than
    /// `answer`'s stays: a result that finishes after an ingest never
    /// replaces the answer computed since. An answer larger than the whole
    /// budget is never stored — whether it arrives fresh or replaces an
    /// older entry, which it then takes with it instead of flushing every
    /// other entry.
    pub fn insert(&self, key: &str, answer: Answer) {
        let cost = entry_cost(key, &answer);
        let mut inner = lock_unpoisoned(&self.inner);
        if inner
            .map
            .get(key)
            .is_some_and(|entry| entry.answer.epoch > answer.epoch)
        {
            return;
        }
        let refreshed = inner.remove(key).is_some();
        if cost > self.byte_budget {
            return; // would evict everything and still not fit
        }
        let tick = inner.tick();
        let key: Arc<str> = Arc::from(key);
        inner.recency.insert(tick, Arc::clone(&key));
        inner.map.insert(key, Entry { answer, cost, tick });
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
    use tgraph_core::graph::figure1_graph_stable_ids;

    /// An epoch-0 answer of `n` copies of the ASCII character `fill % 128`,
    /// with no seed.
    fn payload(n: usize, fill: u8) -> Answer {
        at_epoch(0, n, fill)
    }

    fn at_epoch(epoch: u64, n: usize, fill: u8) -> Answer {
        Answer {
            epoch,
            boundary: 9,
            body: char::from(fill % 128).to_string().repeat(n).into(),
            seed: None,
        }
    }

    /// The charge of a seedless `len`-byte body under `key`.
    fn cost(key: &str, len: usize) -> u64 {
        entry_cost(key, &payload(len, 0))
    }

    /// The body of a hit at epoch 0, `None` on a miss.
    fn body(c: &ResultCache, key: &str) -> Option<Arc<str>> {
        c.get(key, 0).hit()
    }

    impl Lookup {
        fn hit(self) -> Option<Arc<str>> {
            match self {
                Lookup::Hit(body) => Some(body),
                Lookup::Miss(_) => None,
            }
        }
    }

    #[test]
    fn hit_returns_the_exact_bytes() {
        let c = ResultCache::new(10_000);
        assert!(body(&c, "q1").is_none());
        c.insert("q1", payload(100, b'7'));
        assert_eq!(body(&c, "q1").as_deref(), Some("7".repeat(100).as_str()));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn byte_budget_evicts_in_lru_order() {
        // Budget fits three entries but not four.
        let unit = cost("k1", 100);
        let budget = 3 * unit + unit / 2;
        let c = ResultCache::new(budget);
        for (fill, name) in [(1, "k1"), (2, "k2"), (3, "k3")] {
            c.insert(name, payload(100, fill));
        }
        assert_eq!(c.len(), 3);
        // Touch k1 so k2 becomes the LRU entry.
        assert!(body(&c, "k1").is_some());
        // Inserting k4 exceeds the budget → evict k2 (oldest untouched).
        c.insert("k4", payload(100, 4));
        assert!(body(&c, "k2").is_none(), "k2 evicted");
        assert!(body(&c, "k1").is_some(), "k1 survived (recently used)");
        assert!(body(&c, "k3").is_some());
        assert!(body(&c, "k4").is_some());
        assert_eq!(c.stats().evictions, 1);
        assert!(c.stats().bytes_used <= budget);
    }

    /// The budget charge reflects what residency retains: the body, the
    /// one shared copy of the key text, the seed's records, and
    /// layout-derived bookkeeping.
    #[test]
    fn entry_cost_covers_body_key_seed_and_bookkeeping() {
        let key = "x".repeat(1000);
        let c = ResultCache::new(1 << 20);
        c.insert(&key, payload(100, 1));
        let used = c.stats().bytes_used;
        assert_eq!(used, cost(&key, 100));
        assert!(used >= 100 + 1000, "body and key text, got {used}");
        // The overhead term is layout-derived, not a guess: it covers at
        // least the Entry struct and the recency node it models.
        assert!(ENTRY_OVERHEAD >= std::mem::size_of::<Entry>() as u64);
        {
            // One allocation of the text serves the map and the recency
            // index.
            let inner = lock_unpoisoned(&c.inner);
            let (held, _) = inner.map.get_key_value(key.as_str()).expect("resident");
            assert_eq!(Arc::strong_count(held), 2);
        }
        // A seed is charged its vertex and edge lists on top.
        let g = figure1_graph_stable_ids();
        let records = (charged_size(&g.vertices) + charged_size(&g.edges)) as u64;
        let seeded = Answer {
            seed: Some(Arc::new(g)),
            ..payload(100, 1)
        };
        c.insert(&key, seeded);
        assert_eq!(c.stats().bytes_used, used + records);
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let c = ResultCache::new(100);
        c.insert("big", payload(200, 1));
        assert!(body(&c, "big").is_none());
        assert_eq!(c.stats().insertions, 0);
        assert_eq!(c.stats().bytes_used, 0);
    }

    #[test]
    fn reinsert_refreshes_in_place() {
        let c = ResultCache::new(10_000);
        c.insert("q", payload(10, 1));
        c.insert("q", payload(20, 2));
        assert_eq!(c.len(), 1);
        assert_eq!(body(&c, "q").as_deref(), Some("\u{2}".repeat(20).as_str()));
        assert_eq!(c.stats().insertions, 1, "a refresh is not an insertion");
        assert_eq!(c.stats().bytes_used, cost("q", 20));
    }

    /// A refresh whose new value alone exceeds the budget must drop the
    /// entry, not flush every *other* resident entry first.
    #[test]
    fn oversized_refresh_drops_only_the_refreshed_entry() {
        // Budget fits all four small entries.
        let unit = cost("k1", 100);
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

    /// A lookup hits only at the entry's epoch. From a later epoch the
    /// entry is a miss that hands the old answer back; from an earlier one
    /// it is a plain miss. Either way the entry stays.
    #[test]
    fn an_entry_answers_its_own_epoch_and_seeds_later_ones() {
        let c = ResultCache::new(10_000);
        c.insert("q", at_epoch(3, 10, 1));
        assert!(c.get("q", 3).hit().is_some());
        match c.get("q", 4) {
            Lookup::Miss(Some(old)) => assert_eq!((old.epoch, old.boundary), (3, 9)),
            other => panic!("expected the epoch-3 answer, got {other:?}"),
        }
        assert!(
            matches!(c.get("q", 2), Lookup::Miss(None)),
            "from the future"
        );
        assert!(matches!(c.get("other", 4), Lookup::Miss(None)));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 3), "a stale entry is a miss");
        assert!(c.contains("q"));
    }

    /// A result that finishes at epoch E after the entry at E+1 was stored
    /// leaves that entry in place.
    #[test]
    fn an_older_epoch_never_replaces_a_newer_entry() {
        let c = ResultCache::new(10_000);
        c.insert("q", at_epoch(1, 10, 1));
        c.insert("q", at_epoch(0, 20, 2));
        assert_eq!(c.get("q", 1).hit().map(|b| b.len()), Some(10));
        assert_eq!(c.stats().bytes_used, cost("q", 10));
        // The same epoch and a later one do replace it.
        c.insert("q", at_epoch(1, 30, 3));
        assert_eq!(c.get("q", 1).hit().map(|b| b.len()), Some(30));
        c.insert("q", at_epoch(2, 40, 4));
        assert_eq!(c.get("q", 2).hit().map(|b| b.len()), Some(40));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn contains_does_not_refresh_recency() {
        // Budget for exactly two entries.
        let c = ResultCache::new(2 * cost("k1", 100) + 10);
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
            self.entries.iter().map(|(k, l)| cost(k, *l)).sum()
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
            if cost(key, len) > self.budget {
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
                    let got = body(&c, k);
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
                    } else if let Some(bytes) = body(&c, &k) {
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
