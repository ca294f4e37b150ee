//! The bursty-document search engine (Section 5, Problem 2).
//!
//! The engine combines three ingredients:
//!
//! 1. a document collection (for term frequencies and document metadata),
//! 2. the spatiotemporal patterns mined per term by one of the miners
//!    (`STComb`, `STLocal`, or the temporal-only `TB` baseline) — the engine
//!    handles one pattern source at a time, as in the paper,
//! 3. a scoring configuration (relevance strategy, no-pattern policy).
//!
//! For every query term the engine needs a posting list whose per-document
//! score is `relevance(d, t) × burstiness(d, t)` (Eq. 10–11); the top-k is
//! then evaluated with Fagin's Threshold Algorithm. Every burstiness value —
//! in a prebuilt list, a commit's re-score, a cold or filtered query, an
//! explanation — comes from one overlap kernel, the crate-private
//! `burstiness::Footprint`, built once per scored term and query filter.
//!
//! # Query surface
//!
//! Queries enter through the typed DSL: a [`Query`] (terms or raw text,
//! optional `time_window`/`region` filters, per-query options) executed by
//! [`BurstySearchEngine::query`] into a `Result<QueryResponse, QueryError>`
//! carrying results, optional per-document explanations, and execution
//! stats. Both serving tiers — this engine and the sharded
//! [`crate::ServingFront`] — run every query through the one crate-private
//! `execute` function below, over the one crate-private `DerivedState`
//! type: the engine's own, or a published generation's pointer-sharing
//! clone of the write side's.
//!
//! # Serving path
//!
//! The engine has two modes. In *cold* mode (the paper's experimental
//! setting) every query scores its terms' posting lists from scratch. For
//! serving repeated query traffic,
//! call [`BurstySearchEngine::finalize`] once after registering patterns:
//! it materializes the score-sorted posting list of **every** term in the
//! collection — built in parallel across terms, which are independent —
//! so subsequent unfiltered queries only walk prebuilt lists (filtered
//! queries score their restricted lists per query). On top of that sit
//!
//! * an LRU cache of evaluated top-k result lists, keyed on the full
//!   canonical query — (terms, k, effective config, time window, region) —
//!   and invalidated per term by [`BurstySearchEngine::set_patterns`], and
//! * an incremental per-term rebuild: updating one term's patterns after
//!   finalization re-scores only that term's posting list.

use crate::burstiness::{Footprint, NoPatternPolicy};
use crate::cache::{QueryCache, QueryKey};
use crate::error::QueryError;
use crate::index::{InvertedIndex, Posting};
use crate::obs::SearchObs;
use crate::query::{
    DocExplanation, PatternMatch, Query, QueryResponse, QueryStats, QueryTerms, TermExplanation,
    UnknownWords,
};
use crate::relevance::Relevance;
use crate::shard::shard_of;
use crate::threshold::{threshold_topk_with_stats, ScoredDoc, TopkStats};
use stb_obs::{SpanClock, SpanKind};
use std::collections::HashMap;
use std::sync::Arc;

use stb_core::{parallel_map, Pattern, PatternRecord};
use stb_corpus::{Collection, DocId, TermId};
use stb_geo::{Point2D, Rect};
use stb_timeseries::TimeInterval;

/// A search hit: a document and its total score for the query.
pub type SearchResult = ScoredDoc;

/// Default capacity of the engine's query-result cache (distinct queries).
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// Scoring configuration of the engine.
///
/// Marked `#[non_exhaustive]`: new scoring knobs can be added without a
/// breaking change. Construct it with [`EngineConfig::default`] or, to
/// deviate from the defaults, with [`EngineConfig::builder`]:
///
/// ```
/// use stb_search::{EngineConfig, NoPatternPolicy, Relevance};
///
/// let config = EngineConfig::builder()
///     .relevance(Relevance::RawFreq)
///     .no_pattern(NoPatternPolicy::Zero)
///     .build();
/// assert_eq!(config.relevance, Relevance::RawFreq);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub struct EngineConfig {
    /// Relevance strategy (default: `log(freq + 1)`).
    pub relevance: Relevance,
    /// Behaviour for documents with no overlapping pattern (default:
    /// exclude, per Eq. 11).
    pub no_pattern: NoPatternPolicy,
}

impl EngineConfig {
    /// A fluent builder starting from the default configuration.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: EngineConfig::default(),
        }
    }
}

/// Builder for [`EngineConfig`] (see [`EngineConfig::builder`]).
#[derive(Debug, Clone, Default)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Sets the relevance strategy.
    pub fn relevance(mut self, relevance: Relevance) -> Self {
        self.config.relevance = relevance;
        self
    }

    /// Sets the no-overlapping-pattern policy.
    pub fn no_pattern(mut self, no_pattern: NoPatternPolicy) -> Self {
        self.config.no_pattern = no_pattern;
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> EngineConfig {
        self.config
    }
}

/// The spatiotemporal restriction of a query, applied to patterns.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct PatternFilter {
    pub(crate) window: Option<TimeInterval>,
    pub(crate) region: Option<Rect>,
}

impl PatternFilter {
    pub(crate) const NONE: PatternFilter = PatternFilter {
        window: None,
        region: None,
    };

    pub(crate) fn is_none(&self) -> bool {
        self.window.is_none() && self.region.is_none()
    }

    /// Whether a pattern survives the filter: its timeframe intersects the
    /// window (if any) and its region intersects the query rectangle (if
    /// any). A pattern with no spatial footprint never passes a region
    /// filter.
    pub(crate) fn passes(&self, pattern: &PatternRecord) -> bool {
        self.window.is_none_or(|w| pattern.timeframe.overlaps(&w))
            && self
                .region
                .is_none_or(|r| pattern.region.is_some_and(|pr| pr.intersects(&r)))
    }
}

/// Everything a query reads: one collection snapshot, the scoring
/// configuration, and each term's patterns, document list and (once
/// finalized) scored posting list.
///
/// [`BurstySearchEngine`] owns one and mutates it copy-on-write — a
/// re-scored posting list or re-registered pattern set is a fresh `Arc`, a
/// document list is `Arc::make_mut`'d on its first push after a clone. The
/// serving tier publishes a generation by cloning it: one `Arc` clone per
/// term and map, no list, map or pattern copied. The writer and every
/// published generation therefore share each term's data by pointer, and a
/// generation never observes a later write.
#[derive(Debug, Clone)]
pub(crate) struct DerivedState {
    pub(crate) collection: Arc<Collection>,
    /// The configuration the prebuilt lists were scored under.
    pub(crate) config: EngineConfig,
    pub(crate) patterns: HashMap<TermId, Arc<[PatternRecord]>>,
    /// Corpus-level inverted lists: term → documents containing it.
    pub(crate) term_docs: HashMap<TermId, Arc<Vec<DocId>>>,
    /// The full-collection scored posting index, present after
    /// [`BurstySearchEngine::finalize`].
    pub(crate) prebuilt: Option<InvertedIndex>,
}

impl DerivedState {
    fn term_docs(&self, term: TermId) -> Option<&[DocId]> {
        self.term_docs.get(&term).map(|d| d.as_slice())
    }

    fn patterns(&self, term: TermId) -> Option<&[PatternRecord]> {
        self.patterns.get(&term).map(|p| &**p)
    }
}

/// The bursty-document search engine.
///
/// # Example
///
/// Build a tiny two-stream collection, register one mined pattern, prebuild
/// the posting index, and search:
///
/// ```
/// use std::collections::HashMap;
/// use stb_core::CombinatorialPattern;
/// use stb_corpus::CollectionBuilder;
/// use stb_geo::GeoPoint;
/// use stb_search::{BurstySearchEngine, EngineConfig, Query};
/// use stb_timeseries::TimeInterval;
///
/// // "earthquake" bursts in Athens during timestamps 2..=3.
/// let mut b = CollectionBuilder::new(5);
/// let quake = b.dict_mut().intern("earthquake");
/// let athens = b.add_stream("Athens", GeoPoint::new(38.0, 23.7));
/// let lima = b.add_stream("Lima", GeoPoint::new(-12.0, -77.0));
/// for ts in 0..5 {
///     let f = if ts == 2 || ts == 3 { 8 } else { 1 };
///     b.add_document(athens, ts, HashMap::from([(quake, f)]));
///     b.add_document(lima, ts, HashMap::from([(quake, 1)]));
/// }
/// let collection = b.build();
///
/// let mut engine = BurstySearchEngine::new(&collection, EngineConfig::default());
/// let pattern =
///     CombinatorialPattern::new(vec![athens], TimeInterval::new(2, 3), 2.0, vec![]);
/// engine.set_patterns(quake, &[pattern]);
/// engine.finalize(); // prebuild the score-sorted posting index, in parallel
///
/// let top = engine.query(&Query::terms([quake]).top_k(2)).unwrap();
/// assert_eq!(top.results.len(), 2); // the two Athens burst documents
/// assert!(top.results[0].score >= top.results[1].score);
/// // A repeated query is now answered from the result cache.
/// let again = engine.query(&Query::terms([quake]).top_k(2)).unwrap();
/// assert_eq!(again.results, top.results);
/// assert!(again.stats.cache_hit);
/// assert!(engine.metrics().cache_hits >= 1);
/// ```
///
/// # Ownership and live updates
///
/// The engine *owns* its collection as an `Arc<Collection>` snapshot
/// rather than borrowing it: queries (`&self`, internally synchronized
/// cache) can then be served from one thread while an ingestion pipeline
/// prepares the next snapshot on another, swapping it in with
/// [`BurstySearchEngine::update_collection`]. `new` accepts anything
/// convertible into the shared handle — an `Arc<Collection>`, an owned
/// `Collection`, or (cloning) a `&Collection`.
pub struct BurstySearchEngine {
    state: DerivedState,
    /// Planar stream positions of the current snapshot (indexed by
    /// `StreamId::index`), cached for pattern-geometry capture.
    positions: Vec<Point2D>,
    /// LRU cache of evaluated top-k result lists.
    cache: QueryCache,
    /// Number of single-term posting-list rebuilds on the prebuilt index.
    term_rescore_count: u64,
}

/// A point-in-time snapshot of the engine's serving counters, for benchmark
/// harnesses and operational monitoring (see `IngestPipeline` in
/// `stb-ingest`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineMetrics {
    /// Searches answered from the query-result cache.
    pub cache_hits: u64,
    /// Searches that had to be evaluated.
    pub cache_misses: u64,
    /// Query results currently cached.
    pub cache_len: usize,
    /// Capacity of the result cache (0 = caching disabled).
    pub cache_capacity: usize,
    /// Whether the full-collection posting index is prebuilt.
    pub finalized: bool,
    /// Terms with at least one posting in the prebuilt index (0 if cold).
    pub indexed_terms: usize,
    /// Total postings in the prebuilt index (0 if cold).
    pub indexed_postings: usize,
    /// Single-term posting-list rebuilds applied to the prebuilt index
    /// (incremental `set_patterns` / `refresh_term` calls).
    pub term_rescore_count: u64,
}

impl BurstySearchEngine {
    /// Creates an engine over a collection with the given scoring
    /// configuration. Patterns must be registered per term with
    /// [`BurstySearchEngine::set_patterns`] before searching.
    pub fn new(collection: impl Into<Arc<Collection>>, config: EngineConfig) -> Self {
        Self::with_cache_capacity(collection, config, DEFAULT_CACHE_CAPACITY)
    }

    /// [`BurstySearchEngine::new`] with an explicit result-cache capacity;
    /// the sharded tier builds its never-queried write side with 0.
    pub(crate) fn with_cache_capacity(
        collection: impl Into<Arc<Collection>>,
        config: EngineConfig,
        cache_capacity: usize,
    ) -> Self {
        let collection = collection.into();
        let mut term_docs: HashMap<TermId, Vec<DocId>> = HashMap::new();
        for doc in collection.documents() {
            for &term in doc.counts.keys() {
                term_docs.entry(term).or_default().push(doc.id);
            }
        }
        let term_docs = term_docs
            .into_iter()
            .map(|(term, mut docs)| {
                docs.sort();
                docs.dedup();
                (term, Arc::new(docs))
            })
            .collect();
        Self {
            positions: collection.positions(),
            state: DerivedState {
                collection,
                config,
                patterns: HashMap::new(),
                term_docs,
                prebuilt: None,
            },
            cache: QueryCache::new(cache_capacity),
            term_rescore_count: 0,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.state.config
    }

    /// The state queries run over — what the sharded tier publishes.
    pub(crate) fn state(&self) -> &DerivedState {
        &self.state
    }

    /// Registers the mined patterns of a term, replacing any previous ones.
    /// Accepts any pattern type (`CombinatorialPattern`, `RegionalPattern`, …).
    ///
    /// Each pattern is frozen with [`PatternRecord::capture`] over the
    /// current snapshot's stream positions, so region-filtered queries
    /// treat `STLocal` rectangles and `STComb` stream MBRs identically.
    ///
    /// On a finalized engine this incrementally re-scores the posting list
    /// of `term` alone (the rest of the prebuilt index is untouched) and
    /// invalidates the cached results of every query involving the term.
    pub fn set_patterns<P: Pattern>(&mut self, term: TermId, patterns: &[P]) {
        let records = patterns
            .iter()
            .map(|p| PatternRecord::capture(p, &self.positions))
            .collect();
        self.set_pattern_records(term, records);
    }

    /// [`BurstySearchEngine::set_patterns`] for patterns already captured:
    /// stores `records` itself, so the engine and every published
    /// generation share the caller's allocation.
    pub(crate) fn set_pattern_records(&mut self, term: TermId, records: Arc<[PatternRecord]>) {
        self.state.patterns.insert(term, records);
        self.refresh_term(term);
    }

    /// Re-derives one term's scored posting list from the engine's current
    /// collection snapshot and patterns, updating the prebuilt index in
    /// place (if finalized) and invalidating the cached results of every
    /// query involving the term.
    ///
    /// [`BurstySearchEngine::set_patterns`] calls this automatically; call
    /// it directly when a term's scores changed for a reason *other* than
    /// its patterns — new documents arrived via
    /// [`BurstySearchEngine::update_collection`].
    pub(crate) fn refresh_term(&mut self, term: TermId) {
        if self.state.prebuilt.is_some() {
            let list = self.term_postings(term);
            if let Some(index) = self.state.prebuilt.as_mut() {
                index.set_postings(term, list);
            }
            self.term_rescore_count += 1;
        }
        self.cache.invalidate_term(term);
    }

    /// Swaps in a newer collection snapshot, incrementally extending the
    /// engine's corpus-level inverted lists with `new_docs` — the documents
    /// appended since the snapshot the engine previously held (dense ids, in
    /// arrival order).
    ///
    /// This does **not** re-score any posting list: after swapping, refresh
    /// the terms whose scores the new documents affect (their own terms, at
    /// minimum) with [`BurstySearchEngine::set_patterns`] or
    /// `BurstySearchEngine::refresh_term` — which is exactly what the
    /// `stb-ingest` pipeline's per-tick commit does with its dirty-term set.
    pub fn update_collection(&mut self, collection: Arc<Collection>, new_docs: &[DocId]) {
        let state = &mut self.state;
        state.collection = collection;
        self.positions = state.collection.positions();
        for &doc_id in new_docs {
            let doc = state.collection.document(doc_id);
            for &term in doc.counts.keys() {
                // The first push after a publish copies the list the
                // published generation still reads; later pushes are in
                // place.
                let docs = Arc::make_mut(state.term_docs.entry(term).or_default());
                debug_assert!(
                    docs.last().is_none_or(|&last| last < doc_id),
                    "new documents must arrive in id order"
                );
                docs.push(doc_id);
            }
        }
    }

    /// Registers the patterns of every `(term, patterns)` entry — e.g. the
    /// output of `STLocal::mine_collection_parallel` or
    /// `STComb::mine_collection_parallel` — so a mining run can feed the
    /// index builder directly.
    /// Entries are replayed in order, so a term appearing twice keeps its
    /// last entry, exactly as two [`BurstySearchEngine::set_patterns`] calls
    /// would.
    pub fn set_patterns_from<P: Pattern>(&mut self, source: &[(TermId, Vec<P>)]) {
        for (term, patterns) in source {
            self.set_patterns(*term, patterns);
        }
    }

    /// The Eq. 10–11 scored posting list of one term (unsorted) under the
    /// engine's own configuration and no filter — the list the prebuilt
    /// index materializes.
    fn term_postings(&self, term: TermId) -> Vec<Posting> {
        scored_postings(&self.state, term, self.state.config, PatternFilter::NONE)
    }

    /// Prebuilds the score-sorted posting index of **every** term in the
    /// collection, in parallel across all available cores. See
    /// [`BurstySearchEngine::finalize_with_threads`].
    pub fn finalize(&mut self) {
        let n_threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        self.finalize_with_threads(n_threads);
    }

    /// Prebuilds the full-collection posting index with an explicit worker
    /// count.
    ///
    /// Terms are scored independently (exactly the independence `STLocal`'s
    /// parallel mining driver exploits), so the build distributes term ids
    /// over `n_threads` scoped threads and merges the finished lists into
    /// one [`InvertedIndex`]. The result is deterministic regardless of the
    /// thread count. Any previously cached query results are dropped.
    ///
    /// Calling this again after more [`BurstySearchEngine::set_patterns`]
    /// calls rebuilds from the current patterns; for single-term updates the
    /// incremental path inside `set_patterns` is cheaper.
    pub fn finalize_with_threads(&mut self, n_threads: usize) {
        let mut terms: Vec<TermId> = self.state.term_docs.keys().copied().collect();
        terms.sort();
        let this = &*self;
        let lists = parallel_map(terms.len(), n_threads, |i| this.term_postings(terms[i]));
        let mut index = InvertedIndex::new();
        for (term, list) in terms.iter().zip(lists) {
            index.set_postings(*term, list);
        }
        index.finalize();
        self.state.prebuilt = Some(index);
        self.cache.clear();
    }

    /// The prebuilt full-collection posting index, if
    /// [`BurstySearchEngine::finalize`] has run.
    pub fn prebuilt_index(&self) -> Option<&InvertedIndex> {
        self.state.prebuilt.as_ref()
    }

    /// Replaces the query-result cache with an empty one of the given
    /// capacity (0 disables caching).
    pub fn set_cache_capacity(&mut self, capacity: usize) {
        self.cache = QueryCache::new(capacity);
    }

    /// A snapshot of the engine's serving counters.
    pub fn metrics(&self) -> EngineMetrics {
        let prebuilt = self.state.prebuilt.as_ref();
        EngineMetrics {
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_len: self.cache.len(),
            cache_capacity: self.cache.capacity(),
            finalized: prebuilt.is_some(),
            indexed_terms: prebuilt.map_or(0, InvertedIndex::n_terms),
            indexed_postings: prebuilt.map_or(0, InvertedIndex::n_postings),
            term_rescore_count: self.term_rescore_count,
        }
    }

    /// Executes a typed [`Query`]: the canonical entry point of the serving
    /// API.
    ///
    /// Scoring follows Eq. 10–11 restricted to the patterns that pass the
    /// query's time/region filters (see the `crate::query` module docs
    /// for the exact filter semantics). Results come from the result cache
    /// when the *full* canonical query — terms, `k`, effective
    /// configuration, and filters — was answered before; otherwise the
    /// evaluation walks the prebuilt index (unfiltered queries on a
    /// finalized engine) or scores the query terms' filtered posting lists
    /// on the fly. Either way [`QueryResponse::stats`] says which path ran.
    pub fn query(&self, query: &Query) -> Result<QueryResponse, QueryError> {
        // The engine is unversioned: one cache, generation 0, never stale.
        execute(
            &self.state,
            0,
            std::slice::from_ref(&self.cache),
            || true,
            query,
            None,
        )
    }

    /// Executes a batch of typed queries, returning one response per query
    /// (same order as the input). Each query fails or succeeds on its own;
    /// repeated queries in the batch hit the result cache.
    pub fn query_many(&self, queries: &[Query]) -> Vec<Result<QueryResponse, QueryError>> {
        queries.iter().map(|q| self.query(q)).collect()
    }
}

/// A validated, dictionary-resolved query ready for execution.
pub(crate) struct QueryPlan {
    /// Resolved distinct query terms, in first-occurrence order (repeated
    /// terms are collapsed by [`plan_query`], the one place every
    /// downstream identity — cache keys, TA scans, subscription keys —
    /// derives its term set from).
    pub(crate) terms: Vec<TermId>,
    pub(crate) k: usize,
    /// The engine configuration with per-query overrides applied.
    pub(crate) config: EngineConfig,
    pub(crate) filter: PatternFilter,
    pub(crate) explain: bool,
    /// The query is vacuously unmatchable (unknown word under
    /// [`UnknownWords::EmptyResponse`]): respond empty without evaluating.
    pub(crate) vacuous: bool,
}

// ---------------------------------------------------------------------------
// Shared query-execution machinery.
//
// `execute` is the single query flow of BOTH `BurstySearchEngine` (above)
// and the sharded serving tier (`crate::shard`); each tier only supplies a
// `DerivedState`, a generation number and its result caches. Sharing it is
// what makes the two paths bit-identical: every float operation a query
// triggers runs through exactly this code, in exactly this order, no matter
// which tier executes it.
// ---------------------------------------------------------------------------

/// The span clock of one query: records into the attached [`SearchObs`],
/// or does nothing (not even read the time) when none is attached.
struct Spans<'a>(Option<(&'a SearchObs, SpanClock)>);

impl Spans<'_> {
    fn lap(&mut self, kind: SpanKind) {
        if let Some((_, clock)) = &mut self.0 {
            clock.lap(kind);
        }
    }

    fn finish(self, key: &QueryKey, stats: &QueryStats) {
        if let Some((obs, clock)) = self.0 {
            obs.record_query(clock, key, stats);
        }
    }
}

/// Executes a typed [`Query`] against one state: plan → vacuous check →
/// generation-gated cache lookup → gather → TA scan → tagged cache insert →
/// respond.
///
/// `generation` is the serving generation `state` was published as (0 for
/// the unversioned engine). `caches` is the tier's result caches, routed by
/// the query's minimum term ([`shard_of`]); `still_current` says whether
/// `generation` is still the published one and is checked under the cache
/// mutex, so a stale insert either sees the bumped generation or is removed
/// by the writer's subsequent invalidation.
pub(crate) fn execute(
    state: &DerivedState,
    generation: u64,
    caches: &[QueryCache],
    still_current: impl FnOnce() -> bool,
    query: &Query,
    obs: Option<&SearchObs>,
) -> Result<QueryResponse, QueryError> {
    let mut spans = Spans(obs.map(|obs| (obs, SpanClock::start())));
    let plan = match plan_query(&state.collection, state.config, query) {
        Ok(plan) => plan,
        Err(e) => {
            if let Some(obs) = obs {
                obs.record_error();
            }
            return Err(e);
        }
    };
    spans.lap(SpanKind::Plan);
    let key = plan_key(&plan);
    let route = match plan.terms.iter().min() {
        Some(&term) if !plan.vacuous => term,
        _ => {
            let response = vacuous_response(&plan);
            spans.finish(&key, &response.stats);
            return Ok(response);
        }
    };
    let cache = &caches[shard_of(route, caches.len())];
    // Hits are gated on the entry's generation: entries computed from a
    // *newer* generation than this state are rejected (their results may
    // reference documents this generation lacks); older surviving entries
    // are exact because every intervening publish invalidated the queries
    // its dirty terms touched.
    let hit = cache.get_at(&key, generation);
    spans.lap(SpanKind::CacheLookup);
    let (results, stats) = match hit {
        Some(results) => (results, cache_hit_stats(&plan)),
        None => {
            // The prebuilt lists are sound only for the plan they were
            // built under (no filters, no per-query overrides); anything
            // else scores its terms' filtered lists per query. Filtering
            // happens *before* the Threshold Algorithm runs, so its
            // early-termination bound applies to the filtered lists
            // unchanged.
            let prebuilt = state
                .prebuilt
                .as_ref()
                .filter(|_| plan.filter.is_none() && plan.config == state.config);
            let scored;
            let index = match prebuilt {
                Some(index) => index,
                None => {
                    scored = query_index(&plan.terms, |term| {
                        scored_postings(state, term, plan.config, plan.filter)
                    });
                    &scored
                }
            };
            let lists = index.gather(&plan.terms);
            spans.lap(SpanKind::ShardGather);
            let (results, ta) =
                threshold_topk_with_stats(&lists, &plan.terms, plan.k, plan.config.no_pattern);
            spans.lap(SpanKind::TaScan);
            cache.put_tagged(key.clone(), results.clone(), generation, still_current);
            (results, evaluated_stats(&plan, ta, prebuilt.is_some()))
        }
    };
    // Explanations are derived from the live pattern store, never cached,
    // so cache hits explain too.
    let explanations = if plan.explain {
        explain(state, &plan, &results)
    } else {
        Vec::new()
    };
    let response = QueryResponse {
        results,
        explanations,
        stats,
    };
    spans.lap(SpanKind::Respond);
    spans.finish(&key, &response.stats);
    Ok(response)
}

/// Validates and resolves a [`Query`] against a collection snapshot under a
/// base configuration (per-query overrides applied on top).
pub(crate) fn plan_query(
    collection: &Collection,
    base_config: EngineConfig,
    query: &Query,
) -> Result<QueryPlan, QueryError> {
    if query.top_k == 0 {
        return Err(QueryError::ZeroTopK);
    }
    let window = match &query.time_window {
        Some(w) => {
            let (start, end) = (*w.start(), *w.end());
            if start > end {
                return Err(QueryError::EmptyTimeWindow { start, end });
            }
            Some(TimeInterval::new(start, end))
        }
        None => None,
    };
    let region = match query.region {
        Some(r) => {
            // `Rect`'s fields are public, so an inverted rectangle can be
            // built field by field; like a NaN one it intersects nothing.
            let nan = [r.min_x, r.min_y, r.max_x, r.max_y]
                .iter()
                .any(|v| v.is_nan());
            if nan || r.min_x > r.max_x || r.min_y > r.max_y {
                return Err(QueryError::InvalidRegion { region: r });
            }
            Some(r)
        }
        None => None,
    };
    let mut config = base_config;
    if let Some(relevance) = query.relevance {
        config.relevance = relevance;
    }
    let mut vacuous = false;
    let terms = match &query.terms {
        QueryTerms::Ids(ids) => ids.clone(),
        QueryTerms::Text(text) => {
            let mut terms = Vec::new();
            for word in text.split_whitespace() {
                let lower = word.to_lowercase();
                match collection.dict().get(&lower) {
                    Some(term) => terms.push(term),
                    None => match query.unknown_words {
                        UnknownWords::Error => return Err(QueryError::UnknownWord { word: lower }),
                        UnknownWords::Drop => {}
                        UnknownWords::EmptyResponse => vacuous = true,
                    },
                }
            }
            terms
        }
    };
    // Canonical duplicate handling, in exactly one place: Eq. 10 sums one
    // relevance×burstiness factor per *distinct* term, so a repeated term
    // collapses to its first occurrence here. Every consumer of a plan
    // (cache keys via `plan_key`, the TA scan over `plan.terms`,
    // explanations, subscription registrations) therefore agrees on the
    // deduplicated term set.
    let mut deduped = Vec::with_capacity(terms.len());
    for term in terms {
        if !deduped.contains(&term) {
            deduped.push(term);
        }
    }
    let terms = deduped;
    if terms.is_empty() && !vacuous {
        return Err(QueryError::EmptyQuery);
    }
    Ok(QueryPlan {
        terms,
        k: query.top_k,
        config,
        filter: PatternFilter { window, region },
        explain: query.explain,
        vacuous,
    })
}

/// The canonical cache key of a plan.
pub(crate) fn plan_key(plan: &QueryPlan) -> QueryKey {
    QueryKey::canonical(
        &plan.terms,
        plan.k,
        plan.config,
        plan.filter.window,
        plan.filter.region,
    )
}

/// Stats template for a query answered from the result cache.
fn cache_hit_stats(plan: &QueryPlan) -> QueryStats {
    QueryStats {
        cache_hit: true,
        terms: plan.terms.len(),
        filtered: !plan.filter.is_none(),
        ..QueryStats::default()
    }
}

/// Stats of an evaluated (non-cached) query.
fn evaluated_stats(plan: &QueryPlan, ta: TopkStats, from_prebuilt: bool) -> QueryStats {
    QueryStats {
        cache_hit: false,
        served_from_prebuilt: from_prebuilt,
        postings_scanned: ta.postings_scanned,
        candidates_pruned: ta.candidates_pruned,
        terms: plan.terms.len(),
        filtered: !plan.filter.is_none(),
    }
}

/// The empty response of a vacuously unmatchable plan.
fn vacuous_response(plan: &QueryPlan) -> QueryResponse {
    QueryResponse {
        results: Vec::new(),
        explanations: Vec::new(),
        stats: QueryStats {
            terms: plan.terms.len(),
            filtered: !plan.filter.is_none(),
            ..QueryStats::default()
        },
    }
}

/// The Eq. 10–11 scored posting list of one term (unsorted) over a state's
/// term→documents list and pattern set, under `config` and `filter`.
pub(crate) fn scored_postings(
    state: &DerivedState,
    term: TermId,
    config: EngineConfig,
    filter: PatternFilter,
) -> Vec<Posting> {
    let collection = &state.collection;
    let Some(docs) = state.term_docs(term) else {
        return Vec::new();
    };
    let footprint = Footprint::new(
        state.patterns(term).unwrap_or_default(),
        collection.n_streams(),
        &filter,
    );
    // Not preallocated: under Exclude most documents drop out, and
    // `finalize` holds every term's list at once.
    let mut list = Vec::new();
    for &doc_id in docs {
        let doc = collection.document(doc_id);
        let score = match footprint.burstiness(doc.stream, doc.timestamp) {
            Some(burst) => config.relevance.score(doc.freq(term)) * burst,
            // The term contributes nothing but the document stays eligible
            // for the rest of the query.
            None if config.no_pattern == NoPatternPolicy::Zero => 0.0,
            // Under Exclude the document is simply absent from this term's
            // posting list, which the Threshold Algorithm interprets as
            // -inf.
            None => continue,
        };
        list.push(Posting { doc: doc_id, score });
    }
    list
}

/// Builds and finalizes a per-query index from a posting-list source.
fn query_index(
    query: &[TermId],
    mut postings_of: impl FnMut(TermId) -> Vec<Posting>,
) -> InvertedIndex {
    let mut terms = query.to_vec();
    terms.sort();
    terms.dedup();
    let mut index = InvertedIndex::new();
    for term in terms {
        index.set_postings(term, postings_of(term));
    }
    index.finalize();
    index
}

/// Per-document Eq. 10–11 breakdown of a result list under a plan's
/// effective configuration and filters.
fn explain(
    state: &DerivedState,
    plan: &QueryPlan,
    results: &[SearchResult],
) -> Vec<DocExplanation> {
    let collection = &state.collection;
    let footprints: Vec<Footprint> = plan
        .terms
        .iter()
        .map(|&term| {
            Footprint::new(
                state.patterns(term).unwrap_or_default(),
                collection.n_streams(),
                &plan.filter,
            )
        })
        .collect();
    results
        .iter()
        .map(|r| {
            let doc = collection.document(r.doc);
            let mut total = 0.0;
            let terms = plan
                .terms
                .iter()
                .zip(&footprints)
                .map(|(&term, footprint)| {
                    let relevance = plan.config.relevance.score(doc.freq(term));
                    let patterns: Vec<PatternMatch> = footprint
                        .overlapping(doc.stream, doc.timestamp)
                        .map(|p| PatternMatch {
                            interval: p.timeframe,
                            region: p.region,
                            score: p.score,
                        })
                        .collect();
                    let burstiness = footprint.burstiness(doc.stream, doc.timestamp);
                    let contribution = burstiness.map_or(0.0, |b| relevance * b);
                    total += contribution;
                    TermExplanation {
                        term,
                        relevance,
                        burstiness,
                        contribution,
                        patterns,
                    }
                })
                .collect();
            DocExplanation {
                doc: r.doc,
                total,
                terms,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stb_core::CombinatorialPattern;
    use stb_corpus::{CollectionBuilder, StreamId};
    use stb_geo::GeoPoint;
    use std::collections::HashMap as StdHashMap;

    /// Three streams, 10 timestamps. "flood" bursts in streams 0 and 1
    /// during timestamps 4..=6; documents elsewhere mention it sporadically.
    fn build_fixture() -> (Collection, TermId) {
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
        // Burst documents.
        for ts in 4..=6 {
            for &s in &[s0, s1] {
                let mut counts = StdHashMap::new();
                counts.insert(flood, 10);
                b.add_document(s, ts, counts);
            }
        }
        (b.build(), flood)
    }

    fn flood_pattern() -> CombinatorialPattern {
        CombinatorialPattern::new(
            vec![StreamId(0), StreamId(1)],
            TimeInterval::new(4, 6),
            1.5,
            vec![],
        )
    }

    fn assert_same_results(a: &[SearchResult], b: &[SearchResult]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.doc, y.doc);
            assert!((x.score - y.score).abs() < 1e-12);
        }
    }

    /// Unfiltered term query through the typed API (the tests' equivalent
    /// of the legacy `search`). Degenerate queries resolve to no results.
    fn run(engine: &BurstySearchEngine, terms: &[TermId], k: usize) -> Vec<SearchResult> {
        engine
            .query(&Query::terms(terms.iter().copied()).top_k(k))
            .map(|response| response.results)
            .unwrap_or_default()
    }

    #[test]
    fn search_returns_burst_documents_first() {
        let (c, flood) = build_fixture();
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        engine.set_patterns(flood, &[flood_pattern()]);
        let results = run(&engine, &[flood], 6);
        assert_eq!(results.len(), 6);
        for r in &results {
            let d = c.document(r.doc);
            // Under the Exclude policy every returned document must overlap
            // the pattern.
            assert!((4..=6).contains(&d.timestamp));
            assert!(d.stream == StreamId(0) || d.stream == StreamId(1));
            assert!(r.score > 0.0);
        }
        // The strongest hits are the high-frequency burst documents.
        let top_doc = c.document(results[0].doc);
        assert_eq!(top_doc.freq(flood), 10);
    }

    #[test]
    fn zero_policy_keeps_non_overlapping_documents() {
        let (c, flood) = build_fixture();
        let config = EngineConfig {
            no_pattern: NoPatternPolicy::Zero,
            ..Default::default()
        };
        let mut engine = BurstySearchEngine::new(&c, config);
        engine.set_patterns(flood, &[flood_pattern()]);
        let strict_count = {
            let mut strict = BurstySearchEngine::new(&c, EngineConfig::default());
            strict.set_patterns(flood, &[flood_pattern()]);
            run(&strict, &[flood], 100).len()
        };
        let lenient_count = run(&engine, &[flood], 100).len();
        // Zero policy can only return at least as many documents; documents
        // outside the pattern score 0 and are still filtered from the top-k
        // (non-positive scores are never returned), so the counts match here.
        assert!(lenient_count >= strict_count);
    }

    #[test]
    fn no_patterns_means_no_results_under_exclude() {
        let (c, flood) = build_fixture();
        let engine = BurstySearchEngine::new(&c, EngineConfig::default());
        assert!(run(&engine, &[flood], 10).is_empty());
    }

    #[test]
    fn search_text_resolves_terms() {
        let (c, flood) = build_fixture();
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        engine.set_patterns(flood, &[flood_pattern()]);
        let by_id = run(&engine, &[flood], 5);
        let by_text = engine.query(&Query::text("Flood").top_k(5)).unwrap();
        assert_eq!(by_id.len(), by_text.results.len());
        for (a, b) in by_id.iter().zip(&by_text.results) {
            assert_eq!(a.doc, b.doc);
        }
    }

    #[test]
    fn text_query_unknown_word_policies() {
        let (c, flood) = build_fixture();
        for finalized in [false, true] {
            let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
            engine.set_patterns(flood, &[flood_pattern()]);
            if finalized {
                engine.finalize_with_threads(2);
            }
            // Error (default): the unknown word is surfaced.
            assert_eq!(
                engine.query(&Query::text("flood UNKNOWNTERM").top_k(5)),
                Err(QueryError::UnknownWord {
                    word: "unknownterm".into()
                })
            );
            // EmptyResponse: the whole query is unmatchable, successfully.
            let vacuous = engine
                .query(
                    &Query::text("flood unknownterm")
                        .top_k(5)
                        .unknown_words(UnknownWords::EmptyResponse),
                )
                .unwrap();
            assert!(vacuous.results.is_empty());
            assert!(!vacuous.stats.cache_hit);
            // Drop: unknown words contribute nothing; all-unknown queries
            // resolve to no terms at all.
            let dropped = engine
                .query(
                    &Query::text("Flood unknownterm")
                        .top_k(5)
                        .unknown_words(UnknownWords::Drop),
                )
                .unwrap();
            assert_eq!(dropped.results, run(&engine, &[flood], 5));
            assert_eq!(
                engine.query(
                    &Query::text("unknownterm")
                        .top_k(5)
                        .unknown_words(UnknownWords::Drop)
                ),
                Err(QueryError::EmptyQuery)
            );
        }
    }

    #[test]
    fn unseen_term_id_never_panics() {
        let (c, flood) = build_fixture();
        // A TermId the collection has never seen (e.g. interned into a newer
        // dictionary snapshot than the engine's) must yield empty results on
        // cold and finalized engines alike — not a panic or debug-assert.
        let ghost = TermId(4242);
        for finalized in [false, true] {
            let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
            engine.set_patterns(flood, &[flood_pattern()]);
            if finalized {
                engine.finalize_with_threads(2);
            }
            assert!(run(&engine, &[ghost], 5).is_empty());
            assert!(run(&engine, &[flood, ghost], 5).is_empty());
        }
    }

    #[test]
    fn update_collection_scores_newly_arrived_documents() {
        let (c, flood) = build_fixture();
        let shared: Arc<Collection> = Arc::new(c);
        let mut engine = BurstySearchEngine::new(Arc::clone(&shared), EngineConfig::default());
        engine.set_patterns(flood, &[flood_pattern()]);
        engine.finalize_with_threads(2);
        let before = run(&engine, &[flood], 50).len();

        // A new burst document and a brand-new term arrive.
        let mut next = Collection::clone(&shared);
        let surge = next.dict_mut().intern("surge");
        let mut counts = StdHashMap::new();
        counts.insert(flood, 10);
        counts.insert(surge, 3);
        let new_doc = next.push_document(StreamId(0), 5, counts);
        let next = Arc::new(next);
        engine.update_collection(Arc::clone(&next), &[new_doc]);
        engine.refresh_term(flood); // same patterns, one more overlapping doc
        engine.set_patterns(
            surge,
            &[CombinatorialPattern::new(
                vec![StreamId(0)],
                TimeInterval::new(4, 6),
                1.0,
                vec![],
            )],
        );

        let after = run(&engine, &[flood], 50);
        assert_eq!(after.len(), before + 1);
        assert!(after.iter().any(|r| r.doc == new_doc));
        let surge_hits = run(&engine, &[surge], 10);
        assert_eq!(surge_hits.len(), 1);
        assert_eq!(surge_hits[0].doc, new_doc);
        // The refreshed engine agrees with a cold engine over the new
        // snapshot.
        let mut reference = BurstySearchEngine::new(next, EngineConfig::default());
        reference.set_cache_capacity(0);
        reference.set_patterns(flood, &[flood_pattern()]);
        assert_same_results(&run(&reference, &[flood], 50), &after);
    }

    #[test]
    fn metrics_snapshot_tracks_counters() {
        let (c, flood) = build_fixture();
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        let cold = engine.metrics();
        assert!(!cold.finalized);

        engine.set_patterns(flood, &[flood_pattern()]);
        engine.finalize_with_threads(2);
        let _ = run(&engine, &[flood], 5);
        let _ = run(&engine, &[flood], 5);
        engine.set_patterns(flood, &[flood_pattern()]);

        let m = engine.metrics();
        assert!(m.finalized);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.cache_misses, 1);
        assert!(m.term_rescore_count >= 1);
        assert!(m.indexed_terms >= 1);
        assert!(m.indexed_postings >= m.indexed_terms);
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BurstySearchEngine>();
    }

    #[test]
    fn multi_term_query_requires_all_terms_under_exclude() {
        let (c, flood) = build_fixture();
        let cricket = c.dict().get("cricket").unwrap();
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        engine.set_patterns(flood, &[flood_pattern()]);
        engine.set_patterns(
            cricket,
            &[CombinatorialPattern::new(
                vec![StreamId(0), StreamId(1), StreamId(2)],
                TimeInterval::new(0, 9),
                0.3,
                vec![],
            )],
        );
        let results = run(&engine, &[flood, cricket], 10);
        // Burst documents contain only "flood", background documents contain
        // "cricket" and sometimes "flood": only documents containing both
        // terms and overlapping both patterns qualify.
        for r in &results {
            let d = c.document(r.doc);
            assert!(d.freq(flood) > 0 && d.freq(cricket) > 0);
        }
    }

    #[test]
    fn finalized_engine_matches_cold_engine() {
        let (c, flood) = build_fixture();
        let cricket = c.dict().get("cricket").unwrap();
        let all_streams = CombinatorialPattern::new(
            vec![StreamId(0), StreamId(1), StreamId(2)],
            TimeInterval::new(0, 9),
            0.3,
            vec![],
        );
        for config in [
            EngineConfig::default(),
            EngineConfig {
                no_pattern: NoPatternPolicy::Zero,
                ..Default::default()
            },
        ] {
            let mut cold = BurstySearchEngine::new(&c, config);
            cold.set_cache_capacity(0);
            cold.set_patterns(flood, &[flood_pattern()]);
            cold.set_patterns(cricket, std::slice::from_ref(&all_streams));

            let mut hot = BurstySearchEngine::new(&c, config);
            hot.set_patterns(flood, &[flood_pattern()]);
            hot.set_patterns(cricket, std::slice::from_ref(&all_streams));
            hot.finalize_with_threads(3);

            for query in [vec![flood], vec![cricket], vec![flood, cricket]] {
                for k in [1, 5, 50] {
                    assert_same_results(&run(&cold, &query, k), &run(&hot, &query, k));
                }
            }
        }
    }

    #[test]
    fn finalize_thread_count_does_not_change_results() {
        let (c, flood) = build_fixture();
        let mut one = BurstySearchEngine::new(&c, EngineConfig::default());
        one.set_patterns(flood, &[flood_pattern()]);
        one.finalize_with_threads(1);
        let mut many = BurstySearchEngine::new(&c, EngineConfig::default());
        many.set_patterns(flood, &[flood_pattern()]);
        many.finalize_with_threads(8);
        assert_same_results(&run(&one, &[flood], 10), &run(&many, &[flood], 10));
        // The prebuilt indexes are structurally identical too.
        let (a, b) = (
            one.prebuilt_index().unwrap(),
            many.prebuilt_index().unwrap(),
        );
        assert_eq!(a.n_terms(), b.n_terms());
        assert_eq!(a.n_postings(), b.n_postings());
    }

    #[test]
    fn repeated_search_hits_the_cache() {
        let (c, flood) = build_fixture();
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        engine.set_patterns(flood, &[flood_pattern()]);
        engine.finalize();
        let first = run(&engine, &[flood], 5);
        assert_eq!(engine.metrics().cache_hits, 0);
        let second = run(&engine, &[flood], 5);
        assert_eq!(engine.metrics().cache_hits, 1);
        assert_same_results(&first, &second);
        // Different k is a different cache entry.
        let _ = run(&engine, &[flood], 6);
        assert_eq!(engine.metrics().cache_hits, 1);
        assert_eq!(engine.metrics().cache_len, 2);
    }

    #[test]
    fn set_patterns_after_finalize_rebuilds_incrementally() {
        let (c, flood) = build_fixture();
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        engine.set_patterns(flood, &[flood_pattern()]);
        engine.finalize();
        let before = run(&engine, &[flood], 10);
        assert!(!before.is_empty());

        // Strengthen the pattern: cached results must not survive.
        let stronger = CombinatorialPattern::new(
            vec![StreamId(0), StreamId(1)],
            TimeInterval::new(4, 6),
            3.0,
            vec![],
        );
        engine.set_patterns(flood, &[stronger]);
        let after = run(&engine, &[flood], 10);
        assert_eq!(before.len(), after.len());
        for (b, a) in before.iter().zip(&after) {
            assert!(
                (a.score - 2.0 * b.score).abs() < 1e-9,
                "doubled pattern score"
            );
        }

        // Dropping the patterns empties the term's posting list in place.
        engine.set_patterns(flood, &[] as &[CombinatorialPattern]);
        assert!(run(&engine, &[flood], 10).is_empty());
    }

    #[test]
    fn query_many_cold_reuses_cache_on_repeat() {
        let (c, flood) = build_fixture();
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        engine.set_patterns(flood, &[flood_pattern()]);
        let queries = vec![
            Query::terms([flood]).top_k(5),
            Query::terms([flood]).top_k(5),
        ];
        let first: Vec<_> = engine
            .query_many(&queries)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        // Within one batch the second (identical) query hits the cache.
        assert_eq!(engine.metrics().cache_hits, 1);
        assert!(!first[0].stats.cache_hit);
        assert!(first[1].stats.cache_hit);
        // A repeated batch is answered entirely from the cache — no index
        // is rebuilt for it.
        let second: Vec<_> = engine
            .query_many(&queries)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(engine.metrics().cache_hits, 3);
        assert_eq!(first[0].results, second[0].results);
        assert_eq!(first[1].results, second[1].results);
    }

    #[test]
    fn set_patterns_from_duplicate_terms_last_wins() {
        let (c, flood) = build_fixture();
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        let source = vec![
            (flood, vec![flood_pattern()]),
            (flood, Vec::new()), // a later run retracts the pattern
        ];
        engine.set_patterns_from(&source);
        assert!(run(&engine, &[flood], 10).is_empty());
    }

    /// A mined pattern's `streams` is public, so a caller can push a stream
    /// out of order; registration must still find every stream's documents.
    #[test]
    fn out_of_order_pattern_streams_score_like_sorted_ones() {
        let mut b = CollectionBuilder::new(4);
        let quake = b.dict_mut().intern("quake");
        for i in 0..4 {
            b.add_stream(&format!("s{i}"), GeoPoint::new(f64::from(i), 0.0));
        }
        for ts in 0..4u32 {
            for s in [0, 1, 3] {
                b.add_document(
                    StreamId(s),
                    ts as usize,
                    StdHashMap::from([(quake, 1 + ts)]),
                );
            }
        }
        let c = b.build();
        let frame = TimeInterval::new(0, 3);
        let sorted = CombinatorialPattern::new(
            vec![StreamId(0), StreamId(1), StreamId(3)],
            frame,
            1.5,
            vec![],
        );
        let mut pushed =
            CombinatorialPattern::new(vec![StreamId(1), StreamId(3)], frame, 1.5, vec![]);
        pushed.streams.push(StreamId(0));
        let postings = |pattern: &CombinatorialPattern| -> Vec<(DocId, u64)> {
            let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
            engine.set_patterns(quake, std::slice::from_ref(pattern));
            engine
                .term_postings(quake)
                .iter()
                .map(|p| (p.doc, p.score.to_bits()))
                .collect()
        };
        assert_eq!(postings(&sorted).len(), 12);
        assert_eq!(postings(&pushed), postings(&sorted));
    }

    #[test]
    fn query_many_matches_one_by_one_filtered_and_unfiltered() {
        // Regression guard for the batched union-scoring path: a batch
        // mixing unfiltered, windowed, and regioned queries must return
        // exactly what issuing them one by one returns — one query's
        // filters must never leak into another's scoring.
        let (c, flood) = build_fixture();
        let cricket = c.dict().get("cricket").unwrap();
        let all_streams = CombinatorialPattern::new(
            vec![StreamId(0), StreamId(1), StreamId(2)],
            TimeInterval::new(0, 9),
            0.3,
            vec![],
        );
        let queries = vec![
            Query::terms([flood]).top_k(7),
            Query::terms([cricket]).top_k(7),
            Query::terms([flood, cricket]).top_k(7),
            Query::terms([flood]).top_k(7), // repeat: in-batch cache hit
            Query::terms([flood]).top_k(7).time_window(0..=3),
            Query::terms([flood, cricket]).top_k(7).time_window(4..=9),
            // Region around streams A/B only (stream C sits at (50, 50)).
            Query::terms([flood])
                .top_k(7)
                .region(Rect::new(-1.0, -1.0, 2.0, 2.0)),
            Query::terms([cricket])
                .top_k(7)
                .time_window(2..=8)
                .region(Rect::new(40.0, 40.0, 60.0, 60.0)),
        ];
        for finalized in [false, true] {
            let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
            engine.set_patterns(flood, &[flood_pattern()]);
            engine.set_patterns(cricket, std::slice::from_ref(&all_streams));
            if finalized {
                engine.finalize();
            }
            let batch = engine.query_many(&queries);
            assert_eq!(batch.len(), queries.len());
            let mut reference = BurstySearchEngine::new(&c, EngineConfig::default());
            reference.set_cache_capacity(0);
            reference.set_patterns(flood, &[flood_pattern()]);
            reference.set_patterns(cricket, std::slice::from_ref(&all_streams));
            for (q, got) in queries.iter().zip(batch) {
                let one_by_one = reference.query(q).unwrap();
                assert_same_results(&got.unwrap().results, &one_by_one.results);
            }
        }
    }

    #[test]
    fn time_window_restricts_to_intersecting_patterns() {
        let (c, flood) = build_fixture();
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        engine.set_patterns(flood, &[flood_pattern()]); // timeframe 4..=6
        let all = run(&engine, &[flood], 50);
        // A window intersecting the pattern keeps every supported document
        // (filters select patterns, not documents).
        let overlapping = engine
            .query(&Query::terms([flood]).top_k(50).time_window(6..=9))
            .unwrap();
        assert_same_results(&overlapping.results, &all);
        assert!(overlapping.stats.filtered);
        // A disjoint window removes the pattern and with it every result.
        let disjoint = engine
            .query(&Query::terms([flood]).top_k(50).time_window(7..=9))
            .unwrap();
        assert!(disjoint.results.is_empty());
    }

    #[test]
    fn region_filter_uses_pattern_geometry() {
        let (c, flood) = build_fixture();
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        // Pattern over streams A(0,0) and B(1,1): its MBR is [0,1]x[0,1].
        engine.set_patterns(flood, &[flood_pattern()]);
        let all = run(&engine, &[flood], 50);
        let near = engine
            .query(
                &Query::terms([flood])
                    .top_k(50)
                    .region(Rect::new(0.5, 0.5, 3.0, 3.0)),
            )
            .unwrap();
        assert_same_results(&near.results, &all);
        // A rectangle far from both streams excludes the pattern entirely.
        let far = engine
            .query(
                &Query::terms([flood])
                    .top_k(50)
                    .region(Rect::new(40.0, 40.0, 60.0, 60.0)),
            )
            .unwrap();
        assert!(far.results.is_empty());
    }

    #[test]
    fn filters_select_among_multiple_patterns() {
        // Two patterns of the same term with different windows and regions:
        // filtering picks the right burstiness per document.
        let (c, flood) = build_fixture();
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        let early_ab = flood_pattern(); // streams 0,1 / 4..=6 / score 1.5
        let late_c =
            CombinatorialPattern::new(vec![StreamId(2)], TimeInterval::new(0, 9), 0.7, vec![]);
        engine.set_patterns(flood, &[early_ab, late_c]);

        // Window+region matching only the C pattern: every hit is from
        // stream C and scored by the weaker pattern.
        let only_c = engine
            .query(
                &Query::terms([flood])
                    .top_k(50)
                    .time_window(0..=3)
                    .region(Rect::new(45.0, 45.0, 55.0, 55.0))
                    .explain(true),
            )
            .unwrap();
        assert!(!only_c.results.is_empty());
        for (r, e) in only_c.results.iter().zip(&only_c.explanations) {
            assert_eq!(c.document(r.doc).stream, StreamId(2));
            assert_eq!(e.terms[0].burstiness, Some(0.7));
            assert_eq!(e.terms[0].patterns.len(), 1);
        }
    }

    #[test]
    fn explanations_break_down_the_score() {
        let (c, flood) = build_fixture();
        let cricket = c.dict().get("cricket").unwrap();
        let all_streams = CombinatorialPattern::new(
            vec![StreamId(0), StreamId(1), StreamId(2)],
            TimeInterval::new(0, 9),
            0.3,
            vec![],
        );
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        engine.set_patterns(flood, &[flood_pattern()]);
        engine.set_patterns(cricket, std::slice::from_ref(&all_streams));
        engine.finalize_with_threads(2);

        let response = engine
            .query(&Query::terms([flood, cricket]).top_k(10).explain(true))
            .unwrap();
        assert!(!response.results.is_empty());
        assert_eq!(response.results.len(), response.explanations.len());
        for (r, e) in response.results.iter().zip(&response.explanations) {
            assert_eq!(r.doc, e.doc);
            // The per-term contributions reconstruct the score exactly.
            assert_eq!(e.total, r.score);
            assert_eq!(e.terms.len(), 2);
            let sum: f64 = e.terms.iter().map(|t| t.contribution).sum();
            assert_eq!(sum, e.total);
            for t in &e.terms {
                let b = t.burstiness.expect("Exclude policy: every term matched");
                assert_eq!(t.contribution, t.relevance * b);
                assert!(!t.patterns.is_empty());
                for p in &t.patterns {
                    assert!(p.region.is_some(), "stored geometry must be exposed");
                }
            }
        }
        // A cache hit still explains (explanations are never cached).
        let again = engine
            .query(&Query::terms([flood, cricket]).top_k(10).explain(true))
            .unwrap();
        assert!(again.stats.cache_hit);
        assert_eq!(again.explanations, response.explanations);
    }

    #[test]
    fn structured_errors_cover_malformed_queries() {
        let (c, flood) = build_fixture();
        let engine = BurstySearchEngine::new(&c, EngineConfig::default());
        assert_eq!(
            engine.query(&Query::terms([] as [TermId; 0])),
            Err(QueryError::EmptyQuery)
        );
        assert_eq!(
            engine.query(&Query::terms([flood]).top_k(0)),
            Err(QueryError::ZeroTopK)
        );
        #[allow(clippy::reversed_empty_ranges)] // the empty window IS the case under test
        let inverted = Query::terms([flood]).time_window(7..=3);
        assert_eq!(
            engine.query(&inverted),
            Err(QueryError::EmptyTimeWindow { start: 7, end: 3 })
        );
        // `Rect::new`'s min/max normalization absorbs a single NaN corner,
        // so build the pathological rectangle field by field.
        let nan_rect = Rect {
            min_x: f64::NAN,
            min_y: 0.0,
            max_x: 1.0,
            max_y: 1.0,
        };
        assert!(matches!(
            engine.query(&Query::terms([flood]).region(nan_rect)),
            Err(QueryError::InvalidRegion { .. })
        ));
        // An inverted axis intersects nothing either: a typed error, not a
        // silently empty answer.
        for inverted in [
            Rect {
                min_x: 2.0,
                min_y: 0.0,
                max_x: 1.0,
                max_y: 1.0,
            },
            Rect {
                min_x: 0.0,
                min_y: 2.0,
                max_x: 1.0,
                max_y: 1.0,
            },
        ] {
            assert_eq!(
                engine.query(&Query::terms([flood]).region(inverted)),
                Err(QueryError::InvalidRegion { region: inverted })
            );
        }
    }

    /// The overlap kernel indexes patterns by stream; an explanation must
    /// still list a document's overlapping patterns in registration order,
    /// not in stream or time order.
    #[test]
    fn explanation_lists_patterns_in_registration_order() {
        let (c, flood) = build_fixture();
        // All but the stream-0-only pattern overlap the stream-1 burst
        // document at timestamp 5, registered neither by stream nor by start
        // nor by score.
        let registered = [
            CombinatorialPattern::new(
                vec![StreamId(1), StreamId(2)],
                TimeInterval::new(5, 9),
                0.9,
                vec![],
            ),
            CombinatorialPattern::new(
                vec![StreamId(0), StreamId(1)],
                TimeInterval::new(4, 6),
                2.5,
                vec![],
            ),
            CombinatorialPattern::new(vec![StreamId(1)], TimeInterval::new(0, 5), 1.1, vec![]),
            CombinatorialPattern::new(vec![StreamId(0)], TimeInterval::new(3, 7), 9.0, vec![]),
            CombinatorialPattern::new(
                vec![StreamId(0), StreamId(1)],
                TimeInterval::new(2, 5),
                0.4,
                vec![],
            ),
        ];
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        engine.set_patterns(flood, &registered);
        let response = engine
            .query(&Query::terms([flood]).top_k(50).explain(true))
            .unwrap();
        let (_, explanation) = response
            .results
            .iter()
            .zip(&response.explanations)
            .find(|(r, _)| {
                let d = c.document(r.doc);
                d.stream == StreamId(1) && d.timestamp == 5 && d.freq(flood) == 10
            })
            .expect("the stream-1 burst document at timestamp 5 is a hit");
        let term = &explanation.terms[0];
        let expected: Vec<f64> = registered
            .iter()
            .filter(|p| p.overlaps(StreamId(1), 5))
            .map(|p| p.score)
            .collect();
        assert_eq!(expected, [0.9, 2.5, 1.1, 0.4]);
        let scores: Vec<f64> = term.patterns.iter().map(|p| p.score).collect();
        assert_eq!(scores, expected);
        assert_eq!(term.burstiness, Some(2.5));
    }

    #[test]
    fn per_query_relevance_override_matches_reconfigured_engine() {
        let (c, flood) = build_fixture();
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        engine.set_patterns(flood, &[flood_pattern()]);
        engine.finalize_with_threads(2);

        let mut raw_engine = BurstySearchEngine::new(
            &c,
            EngineConfig::builder()
                .relevance(Relevance::RawFreq)
                .build(),
        );
        raw_engine.set_cache_capacity(0);
        raw_engine.set_patterns(flood, &[flood_pattern()]);

        let overridden = engine
            .query(
                &Query::terms([flood])
                    .top_k(10)
                    .relevance(Relevance::RawFreq),
            )
            .unwrap();
        // The override bypasses the prebuilt lists (they embed LogFreq).
        assert!(!overridden.stats.served_from_prebuilt);
        assert_same_results(&overridden.results, &run(&raw_engine, &[flood], 10));
        // The default-config query is unaffected and still served prebuilt.
        let default = engine.query(&Query::terms([flood]).top_k(10)).unwrap();
        assert!(default.stats.served_from_prebuilt);
        assert_same_results(&default.results, &run(&engine, &[flood], 10));
    }

    #[test]
    fn stats_report_execution_path() {
        let (c, flood) = build_fixture();
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        engine.set_patterns(flood, &[flood_pattern()]);
        let q = Query::terms([flood]).top_k(3);

        let cold = engine.query(&q).unwrap();
        assert!(!cold.stats.cache_hit);
        assert!(!cold.stats.served_from_prebuilt);
        assert!(cold.stats.postings_scanned > 0);
        assert_eq!(cold.stats.terms, 1);

        let hit = engine.query(&q).unwrap();
        assert!(hit.stats.cache_hit);
        assert_eq!(hit.stats.postings_scanned, 0);

        engine.finalize_with_threads(2);
        let prebuilt = engine.query(&q).unwrap();
        assert!(prebuilt.stats.served_from_prebuilt);
        assert!(!prebuilt.stats.cache_hit);
    }

    #[test]
    fn engine_config_builder_defaults_match_default() {
        assert_eq!(EngineConfig::builder().build(), EngineConfig::default());
        let custom = EngineConfig::builder()
            .relevance(Relevance::RawFreq)
            .no_pattern(NoPatternPolicy::Zero)
            .build();
        assert_eq!(custom.relevance, Relevance::RawFreq);
        assert_eq!(custom.no_pattern, NoPatternPolicy::Zero);
    }
}
