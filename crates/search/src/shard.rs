//! The sharded serving tier.
//!
//! [`BurstySearchEngine`] is internally synchronized for `&self` queries,
//! but live ingestion needs `&mut self` — so the previous serving design
//! put the whole engine behind one `RwLock`, and every `commit_tick`
//! stalled every in-flight query. This module splits the two roles:
//!
//! * [`ShardedEngine`] is the **write side**: it owns a private
//!   `BurstySearchEngine`, applies pattern/collection updates to it, and on
//!   [`ShardedEngine::publish`] hands the front a clone of that engine's
//!   derived state. The clone copies pointers, not data: every term's
//!   score-sorted posting list, stored patterns and term→documents list is
//!   an `Arc` the writer replaces (or copies before writing) rather than
//!   mutates, so the writer and every published generation share them.
//! * [`ServingFront`] is the **read side**: an `RwLock<Arc<ServingState>>`
//!   holding the current state — one generation number over one such
//!   clone (collection snapshot included). A query clones the `Arc` once (the
//!   read lock is held for that pointer clone only, never across
//!   evaluation) and runs entirely against that state, so it never waits
//!   on a commit's mining or publish work and never observes a torn
//!   generation (state mixing pre- and post-tick postings): the only
//!   mutation readers can see is the single pointer swap.
//!
//! The state itself is not partitioned; what is sharded is the **result
//! cache**: `n_shards` LRU caches sit in front of evaluation, a query
//! routed to one by the hash of its minimum term ([`shard_of`]) so readers
//! contend on different mutexes. A cache insert is guarded by
//! [`QueryCache::put_tagged`] on the published generation, and the writer
//! invalidates the dirty terms in every shard cache *after* bumping the
//! generation, which together make a cached hit always equivalent to
//! re-evaluating against the current state.
//!
//! # Bit-identical serving
//!
//! Queries against the front must be byte-identical to the same queries on
//! the unsharded engine. They are by construction: the whole query flow —
//! planning, cache gating, gathering the query terms' lists, the Threshold
//! Algorithm, stats, explanations — is the one `execute` function in
//! [`crate::engine`], run here over a published generation's state and
//! there over the engine's own, so both tiers execute the same float
//! operations in the same order over the same lists.

use crate::cache::{QueryCache, QueryKey};
use crate::engine::{
    execute, plan_key, plan_query, BurstySearchEngine, DerivedState, EngineConfig, EngineMetrics,
};
use crate::error::QueryError;
use crate::obs::SearchObs;
use crate::query::{Query, QueryResponse, QueryTerms, ResponseSnapshot};
use stb_obs::Counter;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use stb_core::{Pattern, PatternRecord};
use stb_corpus::{Collection, DocId, TermId};

/// Default number of serving shards.
pub const DEFAULT_SHARDS: usize = 8;

/// The shard a term's cache traffic lands on: a query is cached on the
/// shard of its minimum term.
///
/// A multiplicative hash of the term id, so consecutively interned terms
/// spread across shards instead of clustering.
pub(crate) fn shard_of(term: TermId, n_shards: usize) -> usize {
    debug_assert!(n_shards > 0);
    let h = u64::from(term.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) as usize) % n_shards
}

/// One published generation of the serving tier: the write side's derived
/// state as of one publish, sharing every term's data with it by pointer.
/// Readers obtain it with a single `Arc` clone, so every query runs against
/// exactly one generation.
#[derive(Debug)]
pub(crate) struct ServingState {
    generation: u64,
    derived: DerivedState,
    /// Write-side engine counters captured at publish time (cache fields
    /// are overridden live by the front's shard caches).
    base: EngineMetrics,
}

/// The read side of the sharded serving tier.
///
/// Obtained from [`ShardedEngine::front`] and freely shared across reader
/// threads (`Arc<ServingFront>`); every query clones the current
/// `ServingState` pointer under a read lock held for that clone alone, then
/// runs without any lock on the state. Results are byte-identical to the
/// same query on the unsharded [`BurstySearchEngine`] holding the same
/// state.
pub struct ServingFront {
    state: RwLock<Arc<ServingState>>,
    /// One LRU result cache per shard, routed by the query's minimum term.
    caches: Vec<QueryCache>,
    /// Tier-wide hit/miss cells shared by every shard cache, so the totals
    /// are maintained lock-free by the hot path itself (and renderable
    /// live by an adopting `ObsRegistry`).
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    /// Generation whose results may be inserted into the caches; bumped by
    /// the writer *before* it invalidates and swaps (see
    /// [`QueryCache::put_tagged`] and `publish_state`).
    published: AtomicU64,
    /// The configured result-cache capacity, as reported by metrics.
    declared_capacity: usize,
    /// Observability hooks, set once via [`ServingFront::attach_obs`];
    /// unset means queries skip instrumentation entirely.
    obs: OnceLock<Arc<SearchObs>>,
}

impl ServingFront {
    fn new(initial: Arc<ServingState>, n_shards: usize, cache_capacity: usize) -> Self {
        let per_shard = if cache_capacity == 0 {
            0
        } else {
            cache_capacity.div_ceil(n_shards).max(1)
        };
        let cache_hits = Arc::new(Counter::new());
        let cache_misses = Arc::new(Counter::new());
        Self {
            state: RwLock::new(initial),
            caches: (0..n_shards)
                .map(|_| {
                    QueryCache::with_counters(
                        per_shard,
                        Arc::clone(&cache_hits),
                        Arc::clone(&cache_misses),
                    )
                })
                .collect(),
            cache_hits,
            cache_misses,
            published: AtomicU64::new(0),
            declared_capacity: cache_capacity,
            obs: OnceLock::new(),
        }
    }

    /// Attaches observability hooks: query latencies, span traces, and the
    /// slow-query log start recording, and the result cache's live
    /// hit/miss cells are adopted into the obs registry (as
    /// `search_cache_hits` / `search_cache_misses`).
    ///
    /// Attach once at wiring time; later calls are ignored. Un-attached
    /// fronts pay one atomic load and a branch per query — the baseline
    /// arm of `stbench`'s `obs.trace_overhead_pct`.
    pub(crate) fn attach_obs(&self, obs: Arc<SearchObs>) {
        obs.adopt_cache_counters(&self.cache_hits, &self.cache_misses);
        let _ = self.obs.set(obs);
    }

    /// The currently published state. The read lock covers one pointer
    /// clone; the state is plain data behind an `Arc`, so a poisoned lock
    /// is still valid.
    fn load(&self) -> Arc<ServingState> {
        Arc::clone(&self.state.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The generation of the currently published serving state.
    ///
    /// Generations are monotone: if two calls straddling a query return the
    /// same value, the query ran against exactly that generation.
    pub fn generation(&self) -> u64 {
        self.load().generation
    }

    /// The collection snapshot of the current generation.
    pub fn collection(&self) -> Arc<Collection> {
        Arc::clone(&self.load().derived.collection)
    }

    /// A point-in-time snapshot of the serving counters: the write-side
    /// engine counters captured at the last publish, with the cache fields
    /// read live from the per-shard caches' atomic counters.
    pub fn metrics(&self) -> EngineMetrics {
        let state = self.load();
        let mut m = state.base;
        let (hits, misses, len) = self.cache_counters();
        m.cache_hits = hits;
        m.cache_misses = misses;
        m.cache_len = len;
        m.cache_capacity = self.declared_capacity;
        m
    }

    pub(crate) fn cache_counters(&self) -> (u64, u64, usize) {
        // Hit/miss cells are shared across every shard cache (see
        // `QueryCache::with_counters`), so the totals are single reads.
        let hits = self.cache_hits.get();
        let misses = self.cache_misses.get();
        let len = self.caches.iter().map(QueryCache::len).sum();
        (hits, misses, len)
    }

    pub(crate) fn declared_capacity(&self) -> usize {
        self.declared_capacity
    }

    /// Executes a typed [`Query`] against the current generation. Semantics
    /// (and bits) match [`BurstySearchEngine::query`] over the same state.
    pub fn query(&self, query: &Query) -> Result<QueryResponse, QueryError> {
        let state = self.load();
        self.query_on(&state, query)
    }

    /// Executes a typed [`Query`] and returns the response *bracketed to
    /// the generation it was evaluated against*.
    ///
    /// The state is loaded exactly once, so the pair is never torn:
    /// the generation is the one whose collection, postings, and patterns
    /// produced the results — the invariant the subscription tier's diff
    /// evaluation relies on. Bits match [`ServingFront::query`] over the
    /// same state.
    pub fn query_snapshot(&self, query: &Query) -> Result<ResponseSnapshot, QueryError> {
        let state = self.load();
        let response = self.query_on(&state, query)?;
        Ok(ResponseSnapshot {
            generation: state.generation,
            response,
        })
    }

    /// Resolves a query into its *standing form* plus its canonical key
    /// against the current generation, without executing it.
    ///
    /// The standing form is the same query with its terms replaced by the
    /// planner's resolved, deduplicated term ids — text words are looked
    /// up in the dictionary *now* and frozen, so a standing registration
    /// keeps meaning the same terms even as new words are interned later.
    /// The key is exactly the cache key the query would evaluate under
    /// ([`QueryKey`]), which is what makes subscription identities,
    /// cache identities, and TA scans agree.
    pub fn canonicalize(&self, query: &Query) -> Result<(Query, QueryKey), QueryError> {
        let state = self.load();
        let plan = plan_query(&state.derived.collection, state.derived.config, query)?;
        let key = plan_key(&plan);
        let mut standing = query.clone();
        standing.terms = QueryTerms::Ids(plan.terms);
        Ok((standing, key))
    }

    /// Executes a batch of typed queries against **one** consistent
    /// generation (the batch never straddles a concurrent publish), one
    /// response per query in input order.
    pub fn query_many(&self, queries: &[Query]) -> Vec<Result<QueryResponse, QueryError>> {
        let state = self.load();
        queries.iter().map(|q| self.query_on(&state, q)).collect()
    }

    fn query_on(&self, state: &ServingState, query: &Query) -> Result<QueryResponse, QueryError> {
        let still_current = || self.published.load(SeqCst) == state.generation;
        let obs = self.obs.get().map(Arc::as_ref);
        execute(
            &state.derived,
            state.generation,
            &self.caches,
            still_current,
            query,
            obs,
        )
    }

    /// Publishes `state` as the new serving generation. The ordering is
    /// load-bearing:
    ///
    /// 1. Bump `published` — from here on, no reader can insert results
    ///    computed from an older generation ([`QueryCache::put_tagged`]
    ///    checks under the cache mutex).
    /// 2. Invalidate the dirty terms' cached queries. Any stale entry was
    ///    either inserted before this (removed here) or its insert attempt
    ///    observes the bumped `published` and is rejected.
    /// 3. Swap the pointer. Only now can readers observe (and tag entries
    ///    with) the new generation, so by the time a reader serves
    ///    generation `g`, every invalidation for generations `<= g` has
    ///    completed — which is what makes older surviving cache entries
    ///    exact for newer readers (see [`QueryCache::get_at`]).
    fn publish_state(&self, state: Arc<ServingState>, dirty: &BTreeSet<TermId>, clear: bool) {
        self.published.store(state.generation, SeqCst);
        if clear {
            for cache in &self.caches {
                cache.clear();
            }
        } else {
            // A query involving term t may be cached on any shard (routing
            // follows the query's minimum term), so invalidate everywhere:
            // the whole dirty set per cache in one pass under one lock —
            // these are the mutexes every reader's query takes.
            for cache in &self.caches {
                cache.invalidate_terms(|t| dirty.contains(&t));
            }
        }
        let mut current = self.state.write().unwrap_or_else(PoisonError::into_inner);
        let old = std::mem::replace(&mut *current, state);
        drop(current);
        // The previous generation (possibly its last reference) is freed
        // only after the write lock is released.
        drop(old);
    }
}

/// The write side of the sharded serving tier.
///
/// Owns a private [`BurstySearchEngine`] that mutators
/// ([`set_patterns`](Self::set_patterns),
/// [`update_collection`](Self::update_collection), …) apply to while
/// tracking which terms they dirtied; [`publish`](Self::publish) then swaps
/// a pointer-sharing clone of that engine's state into the [`ServingFront`]
/// as one new generation and invalidates the dirty terms' cached results.
/// Readers holding the front wait on none of this but the final pointer
/// swap.
pub struct ShardedEngine {
    /// Never queried, so built without a result cache: the write path
    /// touches no cache but the front's.
    engine: BurstySearchEngine,
    front: Arc<ServingFront>,
    generation: u64,
    /// Terms whose cached results the next publish must invalidate.
    dirty: BTreeSet<TermId>,
    /// Every cached result is suspect (finalize, import): the next publish
    /// clears the caches instead.
    all_dirty: bool,
}

impl ShardedEngine {
    /// Creates a sharded engine over a collection with the given scoring
    /// configuration, shard count (the number of result caches), and
    /// result-cache capacity (total across shards; 0 disables caching).
    ///
    /// The initial generation (0) is empty and unfinalized; register
    /// patterns, [`finalize`](Self::finalize_with_threads), and
    /// [`publish`](Self::publish) to begin serving.
    pub fn new(
        collection: impl Into<Arc<Collection>>,
        config: EngineConfig,
        n_shards: usize,
        cache_capacity: usize,
    ) -> Self {
        assert!(n_shards > 0, "at least one shard is required");
        let engine = BurstySearchEngine::with_cache_capacity(collection, config, 0);
        let initial = ServingState {
            generation: 0,
            derived: engine.state().clone(),
            base: engine.metrics(),
        };
        let front = Arc::new(ServingFront::new(
            Arc::new(initial),
            n_shards,
            cache_capacity,
        ));
        Self {
            engine,
            front,
            generation: 0,
            dirty: BTreeSet::new(),
            all_dirty: false,
        }
    }

    /// The shared read front.
    pub fn front(&self) -> Arc<ServingFront> {
        Arc::clone(&self.front)
    }

    /// Attaches observability hooks to the read front. See
    /// `ServingFront::attach_obs`.
    pub fn attach_obs(&self, obs: Arc<SearchObs>) {
        self.front.attach_obs(obs);
    }

    /// Read access to the write-side engine (its state trails the front by
    /// whatever has not been [`publish`](Self::publish)ed yet).
    pub fn engine(&self) -> &BurstySearchEngine {
        &self.engine
    }

    /// Registers the mined patterns of a term on the write side (visible to
    /// readers after the next [`publish`](Self::publish)). See
    /// [`BurstySearchEngine::set_patterns`].
    pub fn set_patterns<P: Pattern>(&mut self, term: TermId, patterns: &[P]) {
        self.engine.set_patterns(term, patterns);
        self.dirty.insert(term);
    }

    /// Registers a term's already captured patterns on the write side,
    /// storing `records` itself: the writer and every generation published
    /// after it share the caller's allocation.
    pub fn set_pattern_records(&mut self, term: TermId, records: Arc<[PatternRecord]>) {
        self.engine.set_pattern_records(term, records);
        self.dirty.insert(term);
    }

    /// Registers the patterns of every `(term, patterns)` entry. See
    /// [`BurstySearchEngine::set_patterns_from`].
    pub fn set_patterns_from<P: Pattern>(&mut self, source: &[(TermId, Vec<P>)]) {
        for (term, patterns) in source {
            self.set_patterns(*term, patterns);
        }
    }

    /// Swaps in a newer collection snapshot, marking the new documents'
    /// terms dirty. See [`BurstySearchEngine::update_collection`].
    pub fn update_collection(&mut self, collection: Arc<Collection>, new_docs: &[DocId]) {
        self.engine
            .update_collection(Arc::clone(&collection), new_docs);
        for &doc_id in new_docs {
            for &term in collection.document(doc_id).counts.keys() {
                self.dirty.insert(term);
            }
        }
    }

    /// Prebuilds the full-collection posting index on the write side and
    /// marks every term dirty. See
    /// [`BurstySearchEngine::finalize_with_threads`].
    pub fn finalize_with_threads(&mut self, n_threads: usize) {
        self.engine.finalize_with_threads(n_threads);
        self.all_dirty = true;
    }

    /// Every term's registered pattern records, terms sorted by id: the
    /// engine's own slices, shared by pointer. With the collection they are
    /// all a snapshot needs to rebuild the engine (see
    /// [`ShardedEngine::restore`]).
    pub fn pattern_records(&self) -> Vec<(TermId, Arc<[PatternRecord]>)> {
        let mut records: Vec<_> = self
            .engine
            .state()
            .patterns
            .iter()
            .map(|(&term, records)| (term, Arc::clone(records)))
            .collect();
        records.sort_by_key(|&(term, _)| term);
        records
    }

    /// Crash-recovery restore: replaces the write side with a fresh engine
    /// over `collection`, registers the persisted pattern records, derives
    /// every posting list with the single-threaded
    /// [`finalize_with_threads`](Self::finalize_with_threads) a fresh
    /// pipeline runs, and publishes the result as a new generation on the
    /// *same* front, so existing [`ServingFront`] handles keep working.
    pub fn restore(
        &mut self,
        collection: impl Into<Arc<Collection>>,
        patterns: Vec<(TermId, Arc<[PatternRecord]>)>,
    ) {
        let config = *self.engine.config();
        self.engine = BurstySearchEngine::with_cache_capacity(collection, config, 0);
        for (term, records) in patterns {
            self.engine.set_pattern_records(term, records);
        }
        self.finalize_with_threads(1);
        self.publish();
    }

    /// A snapshot of the serving counters: the write-side engine's live
    /// counters with the cache fields read from the front's shard caches.
    pub fn metrics(&self) -> EngineMetrics {
        let mut m = self.engine.metrics();
        let (hits, misses, len) = self.front.cache_counters();
        m.cache_hits = hits;
        m.cache_misses = misses;
        m.cache_len = len;
        m.cache_capacity = self.front.declared_capacity();
        m
    }

    /// Publishes the write side's current state to the front as one new
    /// generation: clones the engine's derived state (one pointer copy per
    /// term — clean terms stay shared with the previous generation, dirty
    /// terms' fresh lists become shared with the writer), invalidates the
    /// dirty terms in every shard result cache, and swaps the front's state
    /// pointer.
    pub fn publish(&mut self) {
        self.generation += 1;
        let state = ServingState {
            generation: self.generation,
            derived: self.engine.state().clone(),
            base: self.engine.metrics(),
        };
        self.front
            .publish_state(Arc::new(state), &self.dirty, self.all_dirty);
        self.dirty.clear();
        self.all_dirty = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::SearchObsConfig;
    use crate::query::UnknownWords;
    use crate::relevance::Relevance;
    use stb_core::CombinatorialPattern;
    use stb_corpus::{CollectionBuilder, StreamId};
    use stb_geo::{GeoPoint, Rect};
    use stb_obs::{ObsRegistry, SpanKind};
    use stb_timeseries::TimeInterval;
    use std::collections::HashMap as StdHashMap;
    use std::sync::atomic::AtomicBool;

    fn build_fixture() -> (Collection, TermId, TermId) {
        let mut b = CollectionBuilder::new(10);
        let flood = b.dict_mut().intern("flood");
        let other = b.dict_mut().intern("cricket");
        let s0 = b.add_stream("A", GeoPoint::new(0.0, 0.0));
        let s1 = b.add_stream("B", GeoPoint::new(1.0, 1.0));
        let s2 = b.add_stream("C", GeoPoint::new(50.0, 50.0));
        for ts in 0..10 {
            for &s in &[s0, s1, s2] {
                let mut counts = StdHashMap::new();
                counts.insert(other, 3);
                if ts % 3 == 0 {
                    counts.insert(flood, 1);
                }
                b.add_document(s, ts, counts);
            }
        }
        for ts in 4..=6 {
            for &s in &[s0, s1] {
                let mut counts = StdHashMap::new();
                counts.insert(flood, 10);
                b.add_document(s, ts, counts);
            }
        }
        (b.build(), flood, other)
    }

    fn flood_pattern() -> CombinatorialPattern {
        CombinatorialPattern::new(
            vec![StreamId(0), StreamId(1)],
            TimeInterval::new(4, 6),
            1.5,
            vec![],
        )
    }

    fn assert_bit_identical(a: &QueryResponse, b: &QueryResponse) {
        assert_eq!(a.results.len(), b.results.len());
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.doc, y.doc);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
        assert_eq!(a.explanations.len(), b.explanations.len());
        for (x, y) in a.explanations.iter().zip(&b.explanations) {
            assert_eq!(x.doc, y.doc);
            assert_eq!(x.total.to_bits(), y.total.to_bits());
            assert_eq!(x.terms, y.terms);
        }
    }

    /// Builds an unsharded reference engine and a sharded front over the
    /// same fixture state, both finalized.
    fn build_pair(n_shards: usize) -> (BurstySearchEngine, ShardedEngine, TermId, TermId) {
        build_tiers(n_shards, true)
    }

    fn build_tiers(
        n_shards: usize,
        finalized: bool,
    ) -> (BurstySearchEngine, ShardedEngine, TermId, TermId) {
        let (c, flood, other) = build_fixture();
        let shared = Arc::new(c);
        let mut reference = BurstySearchEngine::new(Arc::clone(&shared), EngineConfig::default());
        reference.set_patterns(flood, &[flood_pattern()]);
        let mut sharded = ShardedEngine::new(shared, EngineConfig::default(), n_shards, 64);
        sharded.set_patterns(flood, &[flood_pattern()]);
        if finalized {
            reference.finalize_with_threads(1);
            sharded.finalize_with_threads(1);
        }
        sharded.publish();
        (reference, sharded, flood, other)
    }

    /// The span kinds of the most recent sampled query trace.
    fn last_walk(obs: &SearchObs) -> Vec<SpanKind> {
        let trace = obs.traces().into_iter().max_by_key(|t| t.id).unwrap();
        trace.spans.iter().map(|s| s.kind).collect()
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for n in [1, 2, 8, 13] {
            for t in 0..100u32 {
                let s = shard_of(TermId(t), n);
                assert!(s < n);
                assert_eq!(s, shard_of(TermId(t), n));
            }
        }
        // Terms actually spread over shards.
        let hit: std::collections::HashSet<usize> =
            (0..100u32).map(|t| shard_of(TermId(t), 8)).collect();
        assert!(hit.len() > 4);
    }

    /// One query set through all three entries to the single `execute`:
    /// the unsharded engine, a plain front, and a front with obs attached.
    #[test]
    fn front_matches_engine_bit_for_bit() {
        use SpanKind::{CacheLookup, Plan, Respond, ShardGather, TaScan};
        for finalized in [true, false] {
            let (reference, plain, flood, other) = build_tiers(4, finalized);
            let (_, observed, _, _) = build_tiers(4, finalized);
            let obs = SearchObs::new(
                Arc::new(ObsRegistry::new()),
                &SearchObsConfig {
                    trace_sample_every: 1,
                    ..SearchObsConfig::default()
                },
            );
            observed.attach_obs(Arc::clone(&obs));
            let (plain, observed) = (plain.front(), observed.front());
            let queries = [
                Query::terms([flood]).top_k(5),
                Query::terms([flood, other]).top_k(10),
                Query::terms([other]).top_k(3),
                Query::terms([flood]).top_k(5).time_window(2..=5),
                Query::terms([flood])
                    .top_k(5)
                    .region(Rect::new(-1.0, -1.0, 2.0, 2.0)),
                Query::terms([flood]).top_k(5).relevance(Relevance::RawFreq),
                Query::terms([flood, other]).top_k(6).explain(true),
                Query::text("flood").top_k(4),
            ];
            for q in &queries {
                // First pass evaluates, second pass hits each tier's cache.
                for (cache_hit, walk) in [
                    (
                        false,
                        &[Plan, CacheLookup, ShardGather, TaScan, Respond][..],
                    ),
                    (true, &[Plan, CacheLookup, Respond][..]),
                ] {
                    let a = reference.query(q).unwrap();
                    for front in [&plain, &observed] {
                        let b = front.query(q).unwrap();
                        assert_bit_identical(&a, &b);
                        assert_eq!(a.stats, b.stats);
                    }
                    assert_eq!(a.stats.cache_hit, cache_hit);
                    assert_eq!(
                        a.stats.served_from_prebuilt,
                        finalized
                            && !cache_hit
                            && q.time_window.is_none()
                            && q.region.is_none()
                            && q.relevance.is_none()
                    );
                    assert_eq!(last_walk(&obs), walk);
                }
            }
            // A vacuous text query answers empty after planning alone.
            let vacuous = Query::text("flood nosuchword")
                .top_k(5)
                .unknown_words(UnknownWords::EmptyResponse);
            let a = reference.query(&vacuous).unwrap();
            assert!(a.results.is_empty());
            for front in [&plain, &observed] {
                assert_eq!(a, front.query(&vacuous).unwrap());
            }
            assert_eq!(last_walk(&obs), [Plan]);
            // Every error matches too, and is counted rather than traced.
            #[allow(clippy::reversed_empty_ranges)] // the empty window IS the case under test
            let malformed = [
                Query::terms([flood]).top_k(0),
                Query::terms([] as [TermId; 0]),
                Query::terms([flood]).time_window(7..=3),
                Query::terms([flood]).region(Rect {
                    min_x: f64::NAN,
                    min_y: 0.0,
                    max_x: 1.0,
                    max_y: 1.0,
                }),
                Query::text("flood nosuchword"),
            ];
            let traced = obs.traces().len();
            for q in &malformed {
                // Rendered, because the NaN region error is not `==` itself.
                let e = format!("{:?}", reference.query(q).unwrap_err());
                assert_eq!(e, format!("{:?}", plain.query(q).unwrap_err()));
                assert_eq!(e, format!("{:?}", observed.query(q).unwrap_err()));
            }
            assert_eq!(obs.traces().len(), traced);
            let errors = obs
                .registry()
                .snapshot()
                .counter("search_query_errors_total");
            assert_eq!(errors, Some(malformed.len() as u64));
        }
    }

    #[test]
    fn front_explanations_match_engine() {
        let (reference, sharded, flood, other) = build_pair(3);
        let front = sharded.front();
        let q = Query::terms([flood, other]).top_k(5).explain(true);
        let a = reference.query(&q).unwrap();
        let b = front.query(&q).unwrap();
        assert_eq!(a.explanations.len(), b.explanations.len());
        for (x, y) in a.explanations.iter().zip(&b.explanations) {
            assert_eq!(x.doc, y.doc);
            assert_eq!(x.total.to_bits(), y.total.to_bits());
            assert_eq!(x.terms.len(), y.terms.len());
        }
    }

    #[test]
    fn publish_swaps_generations_and_serves_updates() {
        let (_, mut sharded, flood, _) = build_pair(4);
        let front = sharded.front();
        assert_eq!(front.generation(), 1);
        let before = front.query(&Query::terms([flood]).top_k(50)).unwrap();

        // Stronger pattern: same docs, higher scores, next generation.
        let strong = CombinatorialPattern::new(
            vec![StreamId(0), StreamId(1)],
            TimeInterval::new(4, 6),
            3.0,
            vec![],
        );
        sharded.set_patterns(flood, &[strong]);
        sharded.publish();
        assert_eq!(front.generation(), 2);
        let after = front.query(&Query::terms([flood]).top_k(50)).unwrap();
        assert_eq!(before.results.len(), after.results.len());
        assert!(after.results[0].score > before.results[0].score);
    }

    #[test]
    fn cache_hits_are_recorded_and_invalidated_per_term() {
        let (_, mut sharded, flood, other) = build_pair(4);
        let front = sharded.front();
        let q_flood = Query::terms([flood]).top_k(5);
        let q_other = Query::terms([other]).top_k(5);
        assert!(!front.query(&q_flood).unwrap().stats.cache_hit);
        assert!(front.query(&q_flood).unwrap().stats.cache_hit);
        // "other" has no patterns; still cacheable (empty result set).
        assert!(!front.query(&q_other).unwrap().stats.cache_hit);
        assert!(front.query(&q_other).unwrap().stats.cache_hit);

        // Dirtying flood invalidates its queries but not other's.
        sharded.set_patterns(flood, &[flood_pattern()]);
        sharded.publish();
        assert!(!front.query(&q_flood).unwrap().stats.cache_hit);
        assert!(front.query(&q_other).unwrap().stats.cache_hit);
        let m = front.metrics();
        assert_eq!(m.cache_hits + m.cache_misses, 6);
    }

    /// Writer and published generations alias the same allocations, so the
    /// load-bearing invariant is that the writer never writes through one:
    /// a pinned generation keeps answering bit-identically while later
    /// commits re-register and extend the very terms it serves — and what
    /// is shared really is shared, not copied.
    #[test]
    fn pinned_generation_is_isolated_from_the_writer_it_shares_with() {
        let (_, mut sharded, flood, other) = build_pair(4);
        let front = sharded.front();
        // `other` gets a list and patterns of its own, then stays clean.
        let everywhere = CombinatorialPattern::new(
            vec![StreamId(0), StreamId(1), StreamId(2)],
            TimeInterval::new(0, 9),
            0.3,
            vec![],
        );
        sharded.set_patterns(other, &[everywhere]);
        sharded.publish();
        let queries = [
            Query::terms([flood]).top_k(50),
            Query::terms([flood, other]).top_k(50).explain(true),
            Query::terms([flood]).top_k(50).time_window(2..=5),
            Query::terms([flood])
                .top_k(50)
                .region(Rect::new(-1.0, -1.0, 2.0, 2.0))
                .explain(true),
            Query::terms([other]).top_k(5),
        ];
        let pinned = front.load();
        let answer = |state: &ServingState| -> Vec<QueryResponse> {
            queries
                .iter()
                .map(|q| front.query_on(state, q).unwrap())
                .collect()
        };
        let when_current = answer(&pinned);
        assert!(when_current[0].stats.served_from_prebuilt);
        assert!(!when_current[0].results.is_empty());

        let entries = |d: &DerivedState, term: TermId| {
            (
                Arc::clone(d.prebuilt.as_ref().unwrap().entry(term).unwrap()),
                Arc::clone(&d.patterns[&term]),
                Arc::clone(&d.term_docs[&term]),
            )
        };
        let mut collection = Collection::clone(&front.collection());
        for round in 0..4u32 {
            let before = front.load();
            // New documents for `flood` only, then stronger patterns for it:
            // the same term dirtied through both mutators, every round.
            let doc = collection.push_document(StreamId(0), 5, StdHashMap::from([(flood, 10)]));
            let snapshot = Arc::new(collection.clone());
            sharded.update_collection(Arc::clone(&snapshot), &[doc]);
            let stronger = CombinatorialPattern::new(
                vec![StreamId(0), StreamId(1)],
                TimeInterval::new(4, 6),
                2.0 + f64::from(round),
                vec![],
            );
            sharded.set_patterns(flood, &[stronger]);
            sharded.publish();
            let after = front.load();
            assert_eq!(after.generation, before.generation + 1);

            // (a) The dirty term's published list, patterns and documents
            // ARE the writer's allocations...
            let (w_list, w_patterns, w_docs) = entries(sharded.engine().state(), flood);
            let (a_list, a_patterns, a_docs) = entries(&after.derived, flood);
            assert!(Arc::ptr_eq(&w_list, &a_list));
            assert!(Arc::ptr_eq(&w_patterns, &a_patterns));
            assert!(Arc::ptr_eq(&w_docs, &a_docs));
            // ...and new ones, not the previous generation's written through.
            let (b_list, b_patterns, b_docs) = entries(&before.derived, flood);
            assert!(!Arc::ptr_eq(&b_list, &a_list));
            assert!(!Arc::ptr_eq(&b_patterns, &a_patterns));
            assert!(!Arc::ptr_eq(&b_docs, &a_docs));
            assert_eq!(b_docs.len() + 1, a_docs.len());
            // (b) The clean term's entries are shared across generations.
            let (b_list, b_patterns, b_docs) = entries(&before.derived, other);
            let (a_list, a_patterns, a_docs) = entries(&after.derived, other);
            assert!(Arc::ptr_eq(&b_list, &a_list));
            assert!(Arc::ptr_eq(&b_patterns, &a_patterns));
            assert!(Arc::ptr_eq(&b_docs, &a_docs));

            // The pinned generation still answers as it did when current;
            // the current one has moved on.
            for (then, now) in when_current.iter().zip(answer(&pinned)) {
                assert_bit_identical(then, &now);
            }
            let current = front.query(&queries[0]).unwrap();
            assert_eq!(
                current.results.len(),
                when_current[0].results.len() + round as usize + 1
            );
        }
    }

    /// Captured records go in by pointer: the published generation serves
    /// the caller's allocation, not a copy of it.
    #[test]
    fn published_generation_shares_registered_records() {
        let (_, mut sharded, flood, _) = build_pair(2);
        let positions = sharded.front().collection().positions();
        let records: Arc<[PatternRecord]> =
            Arc::from([PatternRecord::capture(&flood_pattern(), &positions)]);
        sharded.set_pattern_records(flood, Arc::clone(&records));
        sharded.publish();
        let published = sharded.front().load();
        assert!(Arc::ptr_eq(&published.derived.patterns[&flood], &records));
    }

    #[test]
    fn restore_preserves_front_handles() {
        let (_, mut sharded, flood, _) = build_pair(4);
        let front = sharded.front();
        let expected = front.query(&Query::terms([flood]).top_k(10)).unwrap();
        let patterns = sharded.pattern_records();
        let collection = front.collection();
        sharded.restore(collection, patterns);
        let after = front.query(&Query::terms([flood]).top_k(10)).unwrap();
        assert_bit_identical(&expected, &after);
    }

    /// Satellite: concurrent recording through the read path
    /// loses no cache hit/miss counts.
    #[test]
    fn concurrent_metrics_lose_no_counts() {
        let (_, sharded, flood, other) = build_pair(4);
        let front = sharded.front();
        let n_threads = 8;
        let per_thread = 200;
        let start = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..n_threads)
            .map(|i| {
                let front = Arc::clone(&front);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    while !start.load(SeqCst) {
                        std::hint::spin_loop();
                    }
                    for j in 0..per_thread {
                        // Mix of repeated (cacheable) and distinct queries.
                        let k = 1 + ((i + j) % 7);
                        let q = if j % 2 == 0 {
                            Query::terms([flood]).top_k(k)
                        } else {
                            Query::terms([flood, other]).top_k(k)
                        };
                        front.query(&q).unwrap();
                    }
                })
            })
            .collect();
        start.store(true, SeqCst);
        for h in handles {
            h.join().unwrap();
        }
        let m = front.metrics();
        assert_eq!(
            m.cache_hits + m.cache_misses,
            (n_threads * per_thread) as u64,
            "lost cache counter updates: {m:?}"
        );
    }

    #[test]
    fn front_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServingFront>();
        assert_send_sync::<ShardedEngine>();
        assert_send_sync::<Arc<ServingFront>>();
    }
}
