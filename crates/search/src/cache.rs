//! LRU cache of query results for the serving path.
//!
//! The prebuilt posting index (see [`crate::engine::BurstySearchEngine`])
//! makes individual queries cheap; real query workloads are additionally
//! highly repetitive, so the engine keeps a small LRU cache of fully
//! evaluated top-k result lists. Entries are keyed on the complete query
//! identity — the (sorted) term multiset, `k`, and the scoring
//! configuration — and are invalidated per term whenever
//! [`crate::engine::BurstySearchEngine::set_patterns`] changes that term's
//! patterns, so a hit is always equivalent to re-running the query.
//!
//! The cache is internally synchronized (a `Mutex` around the map, atomic
//! hit/miss counters), so a finalized engine can serve `&self` queries from
//! multiple threads.

use crate::engine::{EngineConfig, SearchResult};
use stb_obs::Counter;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use stb_corpus::TermId;
use stb_geo::Rect;
use stb_timeseries::TimeInterval;

/// Identity of a cached query: term multiset (sorted), result size, the
/// effective engine configuration, and the spatiotemporal filters — the
/// full canonicalized query. Two queries differing only in their time
/// window or region hash to different keys, so filtered and unfiltered
/// results can never collide.
///
/// Terms are sorted because Eq. 10 sums per-term contributions — queries
/// that are permutations of each other have identical results. The key
/// itself stores whatever term list it is given (it stays usable as a raw
/// multiset key), but planned queries never contain duplicates: the
/// planner collapses repeated terms canonically before any key is built,
/// so cache keys, TA scans, and subscription keys always agree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryKey {
    terms: Vec<TermId>,
    k: usize,
    config: EngineConfig,
    /// Closed time window as `(start, end)`, if filtered.
    window: Option<(usize, usize)>,
    /// Region corners as IEEE-754 bit patterns `[min_x, min_y, max_x,
    /// max_y]` — bitwise identity, so the key stays `Eq + Hash` without
    /// giving distinct float values (e.g. `0.0` vs `-0.0`) the same key.
    region: Option<[u64; 4]>,
}

impl QueryKey {
    /// Builds the key for an unfiltered query, normalizing term order.
    #[cfg(test)]
    pub(crate) fn new(query: &[TermId], k: usize, config: EngineConfig) -> Self {
        Self::canonical(query, k, config, None, None)
    }

    /// Builds the full canonical key: sorted terms, result size, effective
    /// configuration, and the query's time/region filters.
    pub(crate) fn canonical(
        query: &[TermId],
        k: usize,
        config: EngineConfig,
        window: Option<TimeInterval>,
        region: Option<Rect>,
    ) -> Self {
        let mut terms = query.to_vec();
        terms.sort();
        Self {
            terms,
            k,
            config,
            window: window.map(|w| (w.start, w.end)),
            region: region.map(|r| {
                [
                    r.min_x.to_bits(),
                    r.min_y.to_bits(),
                    r.max_x.to_bits(),
                    r.max_y.to_bits(),
                ]
            }),
        }
    }

    /// The key's term set, sorted ascending. For keys built from a planned
    /// query this is the canonical deduplicated term set — the
    /// subscription registry indexes registrations by exactly these terms.
    pub fn terms(&self) -> &[TermId] {
        &self.terms
    }

    /// Stable single-line rendering of the canonical query identity for
    /// the slow-query log, e.g. `terms=[3,17] k=10 window=2..=5`.
    ///
    /// Covers the fields an operator triages on — sorted terms, `k`, and
    /// the spatiotemporal filters; the scoring configuration (also part of
    /// the key's identity) is omitted for brevity.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("terms=[");
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", t.0);
        }
        let _ = write!(out, "] k={}", self.k);
        if let Some((start, end)) = self.window {
            let _ = write!(out, " window={start}..={end}");
        }
        if let Some(bits) = self.region {
            let [min_x, min_y, max_x, max_y] = bits.map(f64::from_bits);
            let _ = write!(out, " region=({min_x},{min_y})..({max_x},{max_y})");
        }
        out
    }
}

#[derive(Debug)]
struct Entry {
    results: Vec<SearchResult>,
    /// Logical timestamp of the last access (monotone counter, not wall
    /// clock), used for least-recently-used eviction.
    last_used: u64,
    /// Serving generation the results were computed from (0 for unversioned
    /// callers). A reader serving generation `g` may only consume entries
    /// with `generation <= g` — see [`QueryCache::get_at`].
    generation: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<QueryKey, Entry>,
    clock: u64,
}

/// An LRU cache of top-k query results with per-term invalidation.
///
/// Capacity 0 disables the cache entirely (every lookup misses, nothing is
/// stored). Eviction scans for the least-recently-used entry, which is
/// `O(capacity)` per insertion past capacity — fine for the intended
/// capacities (hundreds to a few thousand distinct queries).
#[derive(Debug)]
pub(crate) struct QueryCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl QueryCache {
    /// Creates a cache holding at most `capacity` distinct queries.
    pub(crate) fn new(capacity: usize) -> Self {
        Self::with_counters(capacity, Arc::new(Counter::new()), Arc::new(Counter::new()))
    }

    /// Creates a cache that counts hits and misses into the given shared
    /// cells.
    ///
    /// The sharded serving tier passes the *same* two cells to every
    /// per-shard cache, so the tier-wide totals are maintained by the hot
    /// path itself — and an `ObsRegistry` that adopts the cells renders
    /// them live, making `EngineMetrics` a thin view over the registry
    /// rather than a separate tally.
    pub(crate) fn with_counters(capacity: usize, hits: Arc<Counter>, misses: Arc<Counter>) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            capacity,
            hits,
            misses,
        }
    }

    /// Maximum number of cached queries (0 = caching disabled).
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// The cache map. It holds plain data that every update leaves valid,
    /// so a panic under the mutex (e.g. in a [`QueryCache::put_tagged`]
    /// caller closure) must not take every later query down with it.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up a query on behalf of a reader serving `generation` (0 for
    /// unversioned callers), refreshing its recency on a hit.
    ///
    /// A hit is returned only when the entry was computed from that
    /// generation *or an older one* — older surviving entries are exact
    /// because every intervening publish invalidated the queries its dirty
    /// terms touched. Entries from a **newer** generation are rejected (and
    /// counted as a miss): a reader still holding generation `g` while
    /// `g+1` is being published must not serve results referencing state
    /// (e.g. documents) that `g` does not contain.
    pub(crate) fn get_at(&self, key: &QueryKey, generation: u64) -> Option<Vec<SearchResult>> {
        if self.capacity == 0 {
            self.misses.inc();
            return None;
        }
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.get_mut(key) {
            Some(entry) if entry.generation <= generation => {
                entry.last_used = clock;
                self.hits.inc();
                Some(entry.results.clone())
            }
            _ => {
                self.misses.inc();
                None
            }
        }
    }

    /// Stores a query's results computed from serving generation
    /// `generation` (0 for unversioned callers), only if `valid` still
    /// holds once the cache lock is taken, evicting the
    /// least-recently-used entry if the cache is full.
    ///
    /// This closes the serving tier's staleness race: a reader
    /// evaluates against generation `g`, then calls `put_tagged` with a
    /// check that the published generation is still `g`. Because the check
    /// runs *under the same mutex* the writer's per-term invalidation
    /// takes, a stale result either observes the bumped generation here
    /// (and is not inserted) or is inserted before the writer invalidates —
    /// in which case the writer's invalidation removes it.
    pub(crate) fn put_tagged(
        &self,
        key: QueryKey,
        results: Vec<SearchResult>,
        generation: u64,
        valid: impl FnOnce() -> bool,
    ) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.lock();
        if !valid() {
            return;
        }
        inner.clock += 1;
        let clock = inner.clock;
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&key) {
            if let Some(lru) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&lru);
            }
        }
        inner.map.insert(
            key,
            Entry {
                results,
                last_used: clock,
                generation,
            },
        );
    }

    /// Drops every cached query that involves `term`.
    pub(crate) fn invalidate_term(&self, term: TermId) {
        self.invalidate_terms(|t| t == term);
    }

    /// Drops every cached query that involves a term `dirty` holds for: one
    /// lock, one pass over the map, however many terms are dirty. A
    /// disabled cache is not locked at all.
    pub(crate) fn invalidate_terms(&self, dirty: impl Fn(TermId) -> bool) {
        if self.capacity == 0 {
            return;
        }
        self.lock()
            .map
            .retain(|key, _| !key.terms.iter().any(|&t| dirty(t)));
    }

    /// Drops every cached entry.
    pub(crate) fn clear(&self) {
        if self.capacity == 0 {
            return;
        }
        self.lock().map.clear();
    }

    /// Number of currently cached queries.
    pub(crate) fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache currently holds no entries.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of lookups answered from the cache since construction (the
    /// shared cell's total when constructed via
    /// [`QueryCache::with_counters`]).
    pub(crate) fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Number of lookups that missed since construction (the shared
    /// cell's total when constructed via [`QueryCache::with_counters`]).
    pub(crate) fn misses(&self) -> u64 {
        self.misses.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stb_corpus::DocId;

    fn key(terms: &[u32], k: usize) -> QueryKey {
        let terms: Vec<TermId> = terms.iter().map(|&t| TermId(t)).collect();
        QueryKey::new(&terms, k, EngineConfig::default())
    }

    fn results(n: u32) -> Vec<SearchResult> {
        (0..n)
            .map(|i| SearchResult {
                doc: DocId(i),
                score: f64::from(n),
            })
            .collect()
    }

    /// Unversioned lookup / insert, as the unsharded engine issues them.
    fn get(cache: &QueryCache, key: &QueryKey) -> Option<Vec<SearchResult>> {
        cache.get_at(key, 0)
    }

    fn put(cache: &QueryCache, key: QueryKey, results: Vec<SearchResult>) {
        cache.put_tagged(key, results, 0, || true);
    }

    #[test]
    fn hit_and_miss_counting() {
        let cache = QueryCache::new(4);
        assert_eq!(get(&cache, &key(&[1], 5)), None);
        put(&cache, key(&[1], 5), results(2));
        assert_eq!(get(&cache, &key(&[1], 5)), Some(results(2)));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn key_is_order_insensitive_but_k_sensitive() {
        let cache = QueryCache::new(4);
        put(&cache, key(&[2, 1], 5), results(1));
        assert!(get(&cache, &key(&[1, 2], 5)).is_some());
        assert!(get(&cache, &key(&[1, 2], 6)).is_none());
        // Duplicate terms are a different query than the deduplicated one.
        assert!(get(&cache, &key(&[1, 2, 2], 5)).is_none());
    }

    #[test]
    fn filters_are_part_of_the_key() {
        let cache = QueryCache::new(8);
        let terms = [TermId(1), TermId(2)];
        let config = EngineConfig::default();
        let unfiltered = QueryKey::canonical(&terms, 5, config, None, None);
        let windowed = QueryKey::canonical(&terms, 5, config, Some(TimeInterval::new(0, 3)), None);
        let other_window =
            QueryKey::canonical(&terms, 5, config, Some(TimeInterval::new(4, 9)), None);
        let regioned =
            QueryKey::canonical(&terms, 5, config, None, Some(Rect::new(0.0, 0.0, 1.0, 1.0)));
        let other_region =
            QueryKey::canonical(&terms, 5, config, None, Some(Rect::new(0.0, 0.0, 2.0, 2.0)));
        let keys = [unfiltered, windowed, other_window, regioned, other_region];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "two queries differing only in filters collided");
            }
        }
        for (i, key) in keys.iter().enumerate() {
            put(&cache, key.clone(), results(i as u32 + 1));
        }
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(get(&cache, key), Some(results(i as u32 + 1)));
        }
        // The unfiltered constructor and the canonical one agree.
        assert_eq!(
            QueryKey::new(&terms, 5, config),
            QueryKey::canonical(&terms, 5, config, None, None)
        );
        // Per-term invalidation still drops filtered entries.
        cache.invalidate_term(TermId(2));
        assert!(cache.is_empty());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = QueryCache::new(0);
        put(&cache, key(&[1], 5), results(1));
        assert_eq!(get(&cache, &key(&[1], 5)), None);
        assert!(cache.is_empty());
    }

    #[test]
    fn lru_eviction_keeps_recent_entries() {
        let cache = QueryCache::new(2);
        put(&cache, key(&[1], 5), results(1));
        put(&cache, key(&[2], 5), results(2));
        // Touch [1] so [2] becomes the LRU entry.
        assert!(get(&cache, &key(&[1], 5)).is_some());
        put(&cache, key(&[3], 5), results(3));
        assert_eq!(cache.len(), 2);
        assert!(get(&cache, &key(&[1], 5)).is_some());
        assert!(get(&cache, &key(&[2], 5)).is_none());
        assert!(get(&cache, &key(&[3], 5)).is_some());
    }

    #[test]
    fn invalidate_term_drops_only_involving_queries() {
        let cache = QueryCache::new(8);
        put(&cache, key(&[1, 2], 5), results(1));
        put(&cache, key(&[2, 3], 5), results(2));
        put(&cache, key(&[3, 4], 5), results(3));
        cache.invalidate_term(TermId(2));
        assert!(get(&cache, &key(&[1, 2], 5)).is_none());
        assert!(get(&cache, &key(&[2, 3], 5)).is_none());
        assert!(get(&cache, &key(&[3, 4], 5)).is_some());
        // A dirty *set* goes in one pass: both dirty terms' queries are
        // dropped, the query touching neither survives.
        put(&cache, key(&[1, 2], 5), results(1));
        put(&cache, key(&[5], 5), results(4));
        put(&cache, key(&[6, 7], 5), results(5));
        cache.invalidate_terms(|t| [TermId(1), TermId(4)].contains(&t));
        assert!(get(&cache, &key(&[1, 2], 5)).is_none());
        assert!(get(&cache, &key(&[3, 4], 5)).is_none());
        assert!(get(&cache, &key(&[5], 5)).is_some());
        assert!(get(&cache, &key(&[6, 7], 5)).is_some());
    }

    #[test]
    fn get_at_rejects_entries_from_newer_generations() {
        let cache = QueryCache::new(4);
        cache.put_tagged(key(&[1], 5), results(1), 7, || true);
        // A reader still serving an older generation must not see it...
        assert_eq!(cache.get_at(&key(&[1], 5), 6), None);
        // ...while readers at or past the entry's generation do.
        assert_eq!(cache.get_at(&key(&[1], 5), 7), Some(results(1)));
        assert_eq!(cache.get_at(&key(&[1], 5), 8), Some(results(1)));
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
        // Generation-0 entries are visible to every reader.
        put(&cache, key(&[2], 5), results(2));
        assert_eq!(cache.get_at(&key(&[2], 5), 0), Some(results(2)));
        assert_eq!(cache.get_at(&key(&[2], 5), 9), Some(results(2)));
    }

    #[test]
    fn put_tagged_respects_the_validity_check() {
        let cache = QueryCache::new(4);
        cache.put_tagged(key(&[1], 5), results(1), 0, || false);
        assert!(cache.is_empty());
        cache.put_tagged(key(&[1], 5), results(1), 0, || true);
        assert_eq!(get(&cache, &key(&[1], 5)), Some(results(1)));
    }

    #[test]
    fn a_panicking_validity_check_does_not_poison_the_cache() {
        let cache = QueryCache::new(4);
        put(&cache, key(&[1, 2], 5), results(1));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.put_tagged(key(&[3], 5), results(3), 0, || panic!("validity check"));
        }));
        assert!(panicked.is_err());
        // The closure ran under the mutex; every later operation still works.
        assert_eq!(get(&cache, &key(&[1, 2], 5)), Some(results(1)));
        assert_eq!(get(&cache, &key(&[3], 5)), None);
        put(&cache, key(&[3], 5), results(3));
        assert_eq!(cache.len(), 2);
        cache.invalidate_term(TermId(2));
        assert_eq!(get(&cache, &key(&[1, 2], 5)), None);
        assert_eq!(get(&cache, &key(&[3], 5)), Some(results(3)));
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn clear_empties_the_cache() {
        let cache = QueryCache::new(8);
        put(&cache, key(&[1], 5), results(1));
        cache.clear();
        assert!(cache.is_empty());
    }
}
