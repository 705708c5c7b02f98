//! The result cache: the server's one store of past answers, byte-bounded
//! and thread-safe, keeping the answers worth most per byte.
//!
//! An answer is named by what was asked: the map is keyed by the request's
//! canonical query text (`graph=..;repr=..;range=..;<pipeline>`, built by the
//! zoom path), so two distinct queries can never share an entry. When it was
//! asked is in the entry: the dataset epoch the answer was computed at. A
//! lookup hits only at that epoch. An entry from an earlier epoch is a miss
//! that hands the old answer back, and for a range-free query the patch path
//! reads the old result graph back from its body and stitches the new epoch
//! onto it; the new answer then replaces the entry. An ingest therefore has
//! nothing to drop here.
//!
//! An answer is kept once, as its bytes: an entry holds its key, its body
//! and its bookkeeping, and is charged exactly those. No result graph is
//! kept beside the body: only a patch after an ingest would read one, and
//! the patch rebuilds it from the body (`render::read_tgraph`) when the
//! planner has decided to patch.
//!
//! What stays under the budget is decided by value per charged byte, after
//! GreedyDual-Size (Cao & Irani, 1997) with TinyLFU's aged frequency
//! (Einziger et al., 2017). An answer's value is its query's request count
//! times the work its plan counted ([`Answer::work`]). Every lookup counts a
//! request; every ten lookups per resident (at least ten) all counts halve
//! and zeros are dropped, so an answer nobody asks for any more ages out.
//! An insert that needs room ranks the residents by value per byte,
//! cheapest first (equal values least recently used first), and takes them
//! in order until their bytes cover the need. If those victims are together
//! worth at least the newcomer, the newcomer is declined and nothing moves;
//! otherwise they go and it stays. So a cyclic scan over more answers than
//! fit, where LRU never hits, leaves the dear, small answers resident. Work
//! is counted records, not time, so which answers stay is the same on
//! every run.
//!
//! Bodies are the serialized result texts, shared out as `Arc<str>` — a hit
//! replays the exact bytes of the first execution (byte-identical responses,
//! asserted by the `serve_e2e` test) without re-serialization. A hit shares
//! the entry's allocation all the way to the socket: the zoom reply holds
//! the `Arc` and the connection's write backlog queues it as one chunk, so
//! the bytes are never copied (nor re-checked as UTF-8, which the type
//! already guarantees). An entry evicted meanwhile lives until written.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tgraph_core::time::Time;
use tgraph_dataflow::{fnv1a, lock_unpoisoned};

/// One query's answer at one dataset epoch.
#[derive(Clone, Debug)]
pub struct Answer {
    /// The dataset epoch the answer was computed at.
    pub epoch: u64,
    /// The lifespan end of the graph it was computed over: where a patch
    /// from this answer starts.
    pub boundary: Time,
    /// The serialized result. For a range-free query it is also the patch
    /// seed: the patch path reads the result graph back from it.
    pub body: Arc<str>,
    /// What a cold run of the query cost: the records its executed plan
    /// counted (`PlanNode::counted_rows`). A patched answer keeps the work
    /// of the answer it was patched from.
    pub work: u64,
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
    /// When the entry was stored or last hit: the order among equal values.
    tick: u64,
}

/// Lookups per resident between two halvings of every request count.
const AGING_PERIOD: u64 = 10;

/// Fixed bookkeeping retained per resident entry beyond the key text and
/// body: the map's `(key, Entry)` slot, the query's request-count
/// slot, and the body `Arc`'s two reference counters. Derived from the
/// actual layouts so the charge tracks the code.
pub(crate) const ENTRY_OVERHEAD: u64 = (std::mem::size_of::<(Box<str>, Entry)>()
    + std::mem::size_of::<(u64, u32)>()
    + 2 * std::mem::size_of::<usize>()) as u64;

/// Budget charge of one entry: what residency actually retains — the key
/// text, the body and the bookkeeping. Shared with the shadow-model
/// property test so any accounting drift between model and implementation
/// is a test failure.
fn entry_cost(key: &str, answer: &Answer) -> u64 {
    (key.len() + answer.body.len()) as u64 + ENTRY_OVERHEAD
}

/// An answer's value: its query's request count times its work.
fn value(count: u32, work: u64) -> u128 {
    u128::from(count) * u128::from(work)
}

#[derive(Default)]
struct Inner {
    map: HashMap<Box<str>, Entry>,
    /// Aged request counts by the `fnv1a` of the key, resident or not.
    counts: HashMap<u64, u32>,
    /// Lookups since the counts last halved.
    lookups: u64,
    bytes_used: u64,
    next_tick: u64,
}

impl Inner {
    fn tick(&mut self) -> u64 {
        self.next_tick += 1;
        self.next_tick - 1
    }

    /// Counts one request for `key`, halving every count once per aging
    /// period.
    fn count_request(&mut self, key: &str) {
        let count = self.counts.entry(fnv1a(key.as_bytes())).or_insert(0);
        *count = count.saturating_add(1);
        self.lookups += 1;
        if self.lookups >= AGING_PERIOD * (self.map.len() as u64).max(1) {
            self.lookups = 0;
            self.counts.retain(|_, count| {
                *count /= 2;
                *count > 0
            });
        }
    }

    /// `key`'s aged request count.
    fn count(&self, key: &str) -> u32 {
        let hash = fnv1a(key.as_bytes());
        self.counts.get(&hash).copied().unwrap_or(0)
    }

    /// The residents whose eviction frees at least `need` bytes, cheapest
    /// value per byte first and equal values least recently used first,
    /// with their total value.
    fn victims(&self, need: u64) -> (Vec<Box<str>>, u128) {
        let mut ranked: Vec<(f64, u64, u128, u64, &Box<str>)> = self
            .map
            .iter()
            .map(|(key, entry)| {
                let worth = value(self.count(key), entry.answer.work);
                let per_byte = worth as f64 / entry.cost as f64;
                (per_byte, entry.tick, worth, entry.cost, key)
            })
            .collect();
        ranked.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let (mut freed, mut total, mut victims) = (0, 0, Vec::new());
        for (_, _, worth, cost, key) in ranked {
            if freed >= need {
                break;
            }
            freed += cost;
            total += worth;
            victims.push(key.clone());
        }
        (victims, total)
    }

    /// Takes `key`'s entry out of the map and the byte count.
    fn remove(&mut self, key: &str) -> Option<Entry> {
        let entry = self.map.remove(key)?;
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
    /// Entries evicted to make room for a more valuable answer.
    pub evictions: u64,
    /// Answers not stored because what they would have displaced was worth
    /// at least as much: the misses to come for them are declines, not
    /// evictions.
    pub declined: u64,
    /// Answers currently held.
    pub resident: u64,
    /// Bytes currently charged against the budget.
    pub bytes_used: u64,
    /// The configured budget.
    pub byte_budget: u64,
}

/// A byte-bounded store of answers that keeps the most valuable per byte
/// (see the module docs). All methods are `&self` and thread-safe.
pub struct ResultCache {
    inner: Mutex<Inner>,
    byte_budget: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    declined: AtomicU64,
}

impl ResultCache {
    /// A cache bounded to `byte_budget` bytes of (key + body + overhead).
    pub fn new(byte_budget: u64) -> Self {
        ResultCache {
            inner: Mutex::new(Inner::default()),
            byte_budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            declined: AtomicU64::new(0),
        }
    }

    /// Looks up `key` at dataset `epoch`, counting a request for it and, on
    /// a hit, refreshing its recency. An entry from an earlier epoch counts
    /// as a miss and comes back whole; one from a later epoch counts as a
    /// miss and stays put.
    pub fn get(&self, key: &str, epoch: u64) -> Lookup {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.count_request(key);
        let fresh = inner.tick();
        match inner.map.get_mut(key) {
            Some(entry) if entry.answer.epoch == epoch => {
                entry.tick = fresh;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Lookup::Hit(Arc::clone(&entry.answer.body))
            }
            other => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let earlier = other.filter(|entry| entry.answer.epoch < epoch);
                Lookup::Miss(earlier.map(|entry| entry.answer.clone()))
            }
        }
    }

    /// Stores `answer` as `key`'s entry if it is worth more than what it
    /// would displace (see the module docs); a stored answer counts at
    /// least the one request that computed it. An entry from a later epoch
    /// than `answer`'s stays: a result that finishes after an ingest never
    /// replaces the answer computed since. Any other entry for `key` is
    /// taken out first, whether or not `answer` is then stored. An answer
    /// larger than the whole budget is never stored, and takes the older
    /// entry with it instead of flushing every other one.
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
        let count = inner.count(key).max(1);
        let need = (inner.bytes_used + cost).saturating_sub(self.byte_budget);
        if need > 0 {
            let (victims, worth) = inner.victims(need);
            if worth >= value(count, answer.work) {
                self.declined.fetch_add(1, Ordering::Relaxed);
                return;
            }
            for victim in &victims {
                inner.remove(victim);
            }
            self.evictions
                .fetch_add(victims.len() as u64, Ordering::Relaxed);
        }
        inner.counts.insert(fnv1a(key.as_bytes()), count);
        let tick = inner.tick();
        inner.map.insert(key.into(), Entry { answer, cost, tick });
        inner.bytes_used += cost;
        if !refreshed {
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let (bytes_used, resident) = {
            let inner = lock_unpoisoned(&self.inner);
            (inner.bytes_used, inner.map.len() as u64)
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            declined: self.declined.load(Ordering::Relaxed),
            resident,
            bytes_used,
            byte_budget: self.byte_budget,
        }
    }

    /// Whether `key` is resident, **without** counting a request or
    /// refreshing its recency — a pure probe for tests and metrics, unlike
    /// [`get`](ResultCache::get).
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

    /// An epoch-0 answer of `n` copies of the ASCII character `fill % 128`,
    /// with one unit of work.
    fn payload(n: usize, fill: u8) -> Answer {
        worth(n, fill, 1)
    }

    /// An epoch-0 `payload` whose cold run counted `work` records.
    fn worth(n: usize, fill: u8, work: u64) -> Answer {
        Answer {
            work,
            ..at_epoch(0, n, fill)
        }
    }

    fn at_epoch(epoch: u64, n: usize, fill: u8) -> Answer {
        Answer {
            epoch,
            boundary: 9,
            body: char::from(fill % 128).to_string().repeat(n).into(),
            work: 1,
        }
    }

    /// The charge of a `len`-byte body under `key`.
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

    /// The budget evicts the cheapest value per byte first; among equal
    /// values, the least recently used; and a newcomer worth no more than
    /// its victims is declined.
    #[test]
    fn byte_budget_evicts_in_value_order() {
        // Budget fits three entries but not four.
        let unit = cost("k1", 100);
        let budget = 3 * unit + unit / 2;
        let c = ResultCache::new(budget);
        for (fill, name, work) in [(1, "k1", 3), (2, "k2", 1), (3, "k3", 2)] {
            c.insert(name, worth(100, fill, work));
        }
        assert_eq!(c.len(), 3);
        // k4 (worth 5) takes the place of k2 (worth 1), the cheapest.
        c.insert("k4", worth(100, 4, 5));
        assert!(!c.contains("k2"), "k2 evicted");
        assert!(["k1", "k3", "k4"].iter().all(|k| c.contains(k)));
        // k5 is worth 2, no more than k3: declined, and nothing moves.
        c.insert("k5", worth(100, 5, 2));
        assert!(!c.contains("k5"));
        assert!(["k1", "k3", "k4"].iter().all(|k| c.contains(k)));
        let s = c.stats();
        assert_eq!((s.evictions, s.declined, s.insertions), (1, 1, 4));
        assert!(s.bytes_used <= budget);

        // Equal values keep LRU order: a and c are worth 2 by work, b by a
        // second request, which also makes it the most recently used.
        let c = ResultCache::new(budget);
        for (fill, name, work) in [(1, "a", 2), (2, "b", 1), (3, "c", 2)] {
            c.insert(name, worth(100, fill, work));
        }
        assert!(body(&c, "b").is_some());
        c.insert("d", worth(100, 4, 3));
        assert!(!c.contains("a"), "a was the least recently used");
        c.insert("e", worth(100, 5, 3));
        assert!(!c.contains("c"), "then c");
        assert!(c.contains("b"), "b survived (recently used)");
        assert_eq!(c.stats().evictions, 2);
    }

    /// The budget charge reflects what residency retains: the body, the
    /// one copy of the key text, and layout-derived bookkeeping; nothing
    /// else, whatever the answer's epoch, boundary or work.
    #[test]
    fn entry_cost_covers_body_key_and_bookkeeping() {
        let key = "x".repeat(1000);
        let c = ResultCache::new(1 << 20);
        c.insert(&key, payload(100, 1));
        let used = c.stats().bytes_used;
        assert_eq!(used, cost(&key, 100));
        assert_eq!(used, 100 + 1000 + ENTRY_OVERHEAD, "body, key, bookkeeping");
        // The overhead term is layout-derived, not a guess: it covers at
        // least the Entry struct and the request-count slot.
        let count_slot = std::mem::size_of::<(u64, u32)>();
        assert!(ENTRY_OVERHEAD >= (std::mem::size_of::<Entry>() + count_slot) as u64);
        c.insert(&key, at_epoch(7, 100, 1));
        assert_eq!(c.stats().bytes_used, used, "the epoch is not charged");
        let dear = Answer {
            work: u64::MAX,
            ..at_epoch(8, 100, 1)
        };
        c.insert(&key, dear);
        assert_eq!(c.stats().bytes_used, used, "nor is the work");
        assert_eq!(c.stats().resident, 1);
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

    /// `contains` is a pure probe: had it counted a request for k1 or
    /// refreshed it, k2 would have gone instead.
    #[test]
    fn contains_neither_counts_nor_refreshes() {
        // Budget for exactly two entries.
        let c = ResultCache::new(2 * cost("k1", 100) + 10);
        c.insert("k1", payload(100, 1));
        c.insert("k2", payload(100, 2));
        assert!(c.contains("k1"));
        c.insert("k3", worth(100, 3, 2));
        assert!(!c.contains("k1"), "k1 was still the least recently used");
        assert!(c.contains("k2"));
        assert!(c.contains("k3"));
    }

    /// A replay of `keys` in order, `rounds` times, as the server does it:
    /// a lookup, then on a miss the insert of the answer the run computed.
    /// Returns the hits.
    fn replay(c: &ResultCache, keys: &[(String, Answer)], rounds: usize) -> u64 {
        let before = c.stats().hits;
        for _ in 0..rounds {
            for (key, answer) in keys {
                if body(c, key).is_none() {
                    c.insert(key, answer.clone());
                }
            }
        }
        c.stats().hits - before
    }

    /// Twenty answers of one size, of which the budget holds five, asked
    /// in a cycle: LRU evicts each answer just before it is asked again and
    /// scores no hit. Here the five dearest stay and hit on every round
    /// after the first, and the others are declined rather than churned.
    #[test]
    fn a_cyclic_scan_larger_than_the_budget_keeps_the_most_valuable_answers() {
        let keys: Vec<(String, Answer)> = (0..20u8)
            .map(|i| {
                let work = if i % 4 == 3 { 1_000 } else { 10 };
                (format!("q{i:02}"), worth(100, i, work))
            })
            .collect();
        let c = ResultCache::new(5 * cost("q00", 100) + 10);
        let hits = replay(&c, &keys, 10);
        let dear: Vec<&str> = keys
            .iter()
            .filter(|(_, a)| a.work == 1_000)
            .map(|(k, _)| k.as_str())
            .collect();
        assert!(dear.iter().all(|k| c.contains(k)), "the dear answers stay");
        assert!(hits >= 9 * 5, "{hits} hits in 10 rounds");
        let s = c.stats();
        assert!(s.declined > s.evictions, "{s:?}");
    }

    /// Once the queries change, the old residents' counts halve to nothing
    /// and the new answers take their place, within a bounded number of
    /// lookups, however often the old ones were asked before.
    #[test]
    fn answers_nobody_asks_for_age_out() {
        let set = |prefix: &str| -> Vec<(String, Answer)> {
            (0..5u8)
                .map(|i| (format!("{prefix}{i}"), worth(100, i, 10)))
                .collect()
        };
        let (old, new) = (set("old"), set("new"));
        let c = ResultCache::new(5 * cost("old0", 100) + 10);
        assert_eq!(replay(&c, &old, 200), 5 * 199, "the old set fits");
        // Each halving period is 10 lookups per resident: 10 rounds of the
        // five new keys. A count of n is gone after log2(n) + 1 halvings,
        // and no count exceeds the lookups of two periods.
        let periods = (2 * AGING_PERIOD * 5).ilog2() as usize + 2;
        replay(&c, &new, 10 * periods);
        assert!(new.iter().all(|(k, _)| c.contains(k)), "{:?}", c.stats());
        assert!(old.iter().all(|(k, _)| !c.contains(k)));
        // And the new set hits from then on.
        assert_eq!(replay(&c, &new, 3), 15);
    }

    /// A naive model of the cache: residents in a `Vec`, request counts by
    /// key with the same halving, and victims found by repeatedly taking
    /// the minimum. Used by the property test to predict residency, what is
    /// evicted or declined, and byte accounting after every operation.
    struct Shadow {
        budget: u64,
        /// (key, payload_len, work, tick).
        entries: Vec<(String, usize, u64, u64)>,
        counts: HashMap<String, u32>,
        lookups: u64,
        tick: u64,
        declined: u64,
    }

    impl Shadow {
        fn used(&self) -> u64 {
            // The implementation's own formula: the model predicts *exact*
            // byte accounting, so any drift in `entry_cost` (or a call site
            // forgetting a component) fails the property test.
            self.entries.iter().map(|(k, l, ..)| cost(k, *l)).sum()
        }

        fn position(&self, key: &str) -> Option<usize> {
            self.entries.iter().position(|(k, ..)| k == key)
        }

        fn value(&self, key: &str, work: u64) -> u128 {
            value(self.counts.get(key).copied().unwrap_or(0), work)
        }

        /// Mirrors `ResultCache::get`: count, maybe halve, refresh.
        fn get(&mut self, key: &str) -> Option<usize> {
            *self.counts.entry(key.to_string()).or_insert(0) += 1;
            self.lookups += 1;
            if self.lookups >= AGING_PERIOD * self.entries.len().max(1) as u64 {
                self.lookups = 0;
                self.counts.values_mut().for_each(|c| *c /= 2);
                self.counts.retain(|_, c| *c > 0);
            }
            self.tick += 1;
            let idx = self.position(key)?;
            self.entries[idx].3 = self.tick;
            Some(self.entries[idx].1)
        }

        /// Mirrors `ResultCache::insert`, including the oversized rules.
        fn insert(&mut self, key: &str, len: usize, work: u64) {
            if let Some(idx) = self.position(key) {
                self.entries.remove(idx);
            }
            if cost(key, len) > self.budget {
                return; // oversized: never cached, nothing else evicted
            }
            let count = self.counts.get(key).copied().unwrap_or(0).max(1);
            let mut rest = self.entries.clone();
            let mut victims = Vec::new();
            let mut worth = 0;
            while rest.iter().map(|(k, l, ..)| cost(k, *l)).sum::<u64>() + cost(key, len)
                > self.budget
            {
                let per_byte = |(k, l, w, t): &(String, usize, u64, u64)| {
                    (self.value(k, *w) as f64 / cost(k, *l) as f64, *t)
                };
                let cheapest = (0..rest.len())
                    .min_by(|&a, &b| {
                        let (va, ta) = per_byte(&rest[a]);
                        let (vb, tb) = per_byte(&rest[b]);
                        va.total_cmp(&vb).then(ta.cmp(&tb))
                    })
                    .expect("a resident to evict");
                let victim = rest.remove(cheapest);
                worth += self.value(&victim.0, victim.2);
                victims.push(victim);
            }
            if !victims.is_empty() && worth >= value(count, work) {
                self.declined += 1;
                return;
            }
            self.entries = rest;
            self.counts.insert(key.to_string(), count);
            self.tick += 1;
            self.entries.push((key.to_string(), len, work, self.tick));
        }
    }

    /// Property test: under a long random interleaving of gets, inserts,
    /// refreshes and oversized values, the cache agrees with the shadow
    /// model on residency (via the non-counting `contains`), payload
    /// identity, declines and exact byte accounting — and never exceeds
    /// its budget.
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
            counts: HashMap::new(),
            lookups: 0,
            tick: 0,
            declined: 0,
        };

        // A small key universe with key lengths from 2 to ~80 characters,
        // so the key-text term of the cost formula carries weight.
        let keyspace: Vec<String> = (0..16usize)
            .map(|i| format!("q{i}{}", "x".repeat((i % 4) * 25)))
            .collect();

        for step in 0..4000 {
            // The asked keys are a window of 8 that slides one key every
            // 250 steps, so answers fall out of use and aging decides.
            let k = &keyspace[((step / 250 + next() % 8) % 16) as usize];
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
                    // occasionally oversized (> budget), and a work from 0.
                    let len = if next() % 8 == 0 {
                        (BUDGET as usize) + 100
                    } else {
                        (next() % 300) as usize
                    };
                    let work = next() % 50;
                    c.insert(k, worth(len, k.len() as u8, work));
                    shadow.insert(k, len, work);
                }
                _ => {
                    // Pure probe: must not count a request in either model.
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
            assert_eq!(s.declined, shadow.declined, "step {step}: declines");
            assert_eq!(
                c.len(),
                shadow.entries.len(),
                "step {step}: resident count drifted from the model"
            );
            for (key, ..) in &shadow.entries {
                assert!(c.contains(key), "step {step}: model says {key} is resident");
            }
        }
        // The run must have actually exercised eviction and admission.
        let s = c.stats();
        assert!(s.evictions > 0, "run never evicted — weak test");
        assert!(s.declined > 0, "run never declined — weak test");
        assert!(s.hits > 0 && s.misses > 0);
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
