//! The typed spatiotemporal query DSL.
//!
//! The paper's whole point is that burstiness is *spatiotemporal*: every
//! mined pattern carries a temporal interval and a spatial region. This
//! module makes that queryable. A [`Query`] is built fluently —
//!
//! ```text
//! Query::text("earthquake damage")
//!     .time_window(12..=16)
//!     .region(Rect::new(-85.0, 9.0, -83.0, 11.0))
//!     .top_k(5)
//!     .explain(true)
//! ```
//!
//! — and executed with [`crate::BurstySearchEngine::query`], which returns
//! `Result<QueryResponse, QueryError>`: the canonical question "which
//! documents were bursty for these terms *in this window, in this region*"
//! is one call.
//!
//! # Filter semantics
//!
//! Filters select **patterns**, not documents: a document qualifies through
//! the patterns of Eq. 11 that overlap it, and a filtered query simply
//! restricts that pattern set to those whose timeframe intersects the time
//! window and whose region (an `STLocal` rectangle, or the stream MBR of an
//! `STComb` pattern — see `stb_core::Pattern::region`) intersects the query
//! rectangle. A document whose every supporting pattern is filtered out has
//! no burstiness left and drops out exactly as Eq. 11 prescribes for
//! pattern-less documents.
//!
//! # Explanations
//!
//! With [`Query::explain`] the response carries one [`DocExplanation`] per
//! result: the per-term relevance and burstiness factors of Eq. 10–11 and
//! the concrete patterns (interval, region, score) that produced them.

use crate::engine::SearchResult;
use crate::relevance::Relevance;
use std::ops::RangeInclusive;

use stb_corpus::{DocId, TermId, Timestamp};
use stb_geo::Rect;
use stb_timeseries::TimeInterval;

/// How a text query treats words missing from the collection's dictionary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum UnknownWords {
    /// Fail the query with [`crate::QueryError::UnknownWord`] (default):
    /// the caller asked for a word the collection has never seen, which is
    /// worth surfacing rather than guessing around.
    #[default]
    Error,
    /// Drop unknown words and run the query over the known remainder. If
    /// every word is unknown the query fails with
    /// [`crate::QueryError::EmptyQuery`].
    Drop,
    /// Treat the whole query as unmatchable and return an empty (but
    /// successful) response — the behaviour of the legacy `search_text`
    /// under [`crate::NoPatternPolicy::Exclude`], where a document can
    /// never contain the unknown word.
    EmptyResponse,
}

/// The query's terms: resolved ids, or raw text resolved at execution time
/// against the engine's current dictionary snapshot.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum QueryTerms {
    /// Already-interned term ids.
    Ids(Vec<TermId>),
    /// Whitespace-separated words, lowercased and resolved per
    /// [`UnknownWords`].
    Text(String),
}

/// Default number of results a [`Query`] returns.
pub(crate) const DEFAULT_TOP_K: usize = 10;

/// A typed, immutable description of one search: terms, spatiotemporal
/// filters, result size, and scoring/diagnostic options.
///
/// # Example
///
/// ```
/// use std::collections::HashMap;
/// use stb_core::CombinatorialPattern;
/// use stb_corpus::CollectionBuilder;
/// use stb_geo::{GeoPoint, Rect};
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
/// let mut engine = BurstySearchEngine::new(b.build(), EngineConfig::default());
/// let pattern =
///     CombinatorialPattern::new(vec![athens], TimeInterval::new(2, 3), 2.0, vec![]);
/// engine.set_patterns(quake, &[pattern]);
/// engine.finalize();
///
/// // The canonical spatiotemporal question, one typed call: bursty
/// // documents for "earthquake", inside this window and this map region.
/// let query = Query::text("earthquake")
///     .time_window(2..=3)
///     .region(Rect::new(20.0, 35.0, 30.0, 40.0)) // around Athens
///     .top_k(2)
///     .explain(true);
/// let response = engine.query(&query).unwrap();
/// assert_eq!(response.results.len(), 2);
///
/// // Each result is explained: which pattern matched, where and when.
/// let explanation = &response.explanations[0];
/// let matched = &explanation.terms[0].patterns[0];
/// assert_eq!(matched.interval, TimeInterval::new(2, 3));
///
/// // A region elsewhere on the map matches nothing.
/// let elsewhere = Query::text("earthquake")
///     .time_window(2..=3)
///     .region(Rect::new(-80.0, -15.0, -75.0, -10.0)); // around Lima
/// assert!(engine.query(&elsewhere).unwrap().results.is_empty());
///
/// // Malformed queries fail with a structured error, not a panic.
/// assert!(engine.query(&Query::text("earthquake").top_k(0)).is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub(crate) terms: QueryTerms,
    pub(crate) time_window: Option<RangeInclusive<Timestamp>>,
    pub(crate) region: Option<Rect>,
    pub(crate) top_k: usize,
    pub(crate) relevance: Option<Relevance>,
    pub(crate) unknown_words: UnknownWords,
    pub(crate) explain: bool,
}

impl Query {
    fn with_terms(terms: QueryTerms) -> Self {
        Self {
            terms,
            time_window: None,
            region: None,
            top_k: DEFAULT_TOP_K,
            relevance: None,
            unknown_words: UnknownWords::default(),
            explain: false,
        }
    }

    /// A query over already-interned term ids. Repeated terms are
    /// harmless: planning deduplicates them canonically (Eq. 10 sums one
    /// factor per *distinct* term), so `[t, t]` plans, caches, and scores
    /// exactly like `[t]` — through `query()`, the legacy `search` shims,
    /// and standing subscriptions alike.
    pub fn terms<I: IntoIterator<Item = TermId>>(terms: I) -> Self {
        Self::with_terms(QueryTerms::Ids(terms.into_iter().collect()))
    }

    /// A query over whitespace-separated words, lowercased and resolved
    /// against the engine's dictionary at execution time (see
    /// [`Query::unknown_words`]).
    pub fn text(text: impl Into<String>) -> Self {
        Self::with_terms(QueryTerms::Text(text.into()))
    }

    /// Restricts scoring to patterns whose timeframe intersects the closed
    /// window `start..=end`. A window covering no timestamp fails execution
    /// with [`crate::QueryError::EmptyTimeWindow`].
    pub fn time_window(mut self, window: RangeInclusive<Timestamp>) -> Self {
        self.time_window = Some(window);
        self
    }

    /// Restricts scoring to patterns whose spatial footprint intersects
    /// `region` (closed rectangle on the collection's planar map). Patterns
    /// that cannot be located spatially never pass a region filter.
    pub fn region(mut self, region: Rect) -> Self {
        self.region = Some(region);
        self
    }

    /// Number of results to return (default `DEFAULT_TOP_K`). Zero fails
    /// execution with [`crate::QueryError::ZeroTopK`].
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = k;
        self
    }

    /// Overrides the engine's relevance strategy for this query only.
    /// Overridden queries are scored per query (never from the prebuilt
    /// index, whose lists embed the engine's own relevance) but are cached
    /// under the effective configuration like any other query.
    pub fn relevance(mut self, relevance: Relevance) -> Self {
        self.relevance = Some(relevance);
        self
    }

    /// How unknown words in a [`Query::text`] query are handled (default:
    /// [`UnknownWords::Error`]). Ignored for [`Query::terms`] queries —
    /// unseen `TermId`s simply have empty posting lists.
    pub fn unknown_words(mut self, policy: UnknownWords) -> Self {
        self.unknown_words = policy;
        self
    }

    /// Requests per-document explanations in the response (default off).
    /// Explanation does not change the results and is recomputed even on a
    /// cache hit.
    pub fn explain(mut self, explain: bool) -> Self {
        self.explain = explain;
        self
    }
}

/// One pattern that contributed to a document's burstiness: where it lives,
/// when, and how strong it is.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternMatch {
    /// The pattern's temporal interval.
    pub interval: TimeInterval,
    /// The pattern's spatial footprint (`None` when the pattern cannot be
    /// located spatially).
    pub region: Option<Rect>,
    /// The pattern's burstiness score.
    pub(crate) score: f64,
}

/// One query term's contribution to a document's score (one factor pair of
/// Eq. 10).
#[derive(Debug, Clone, PartialEq)]
pub struct TermExplanation {
    /// The query term.
    pub(crate) term: TermId,
    /// `relevance(d, t)` under the query's effective configuration.
    pub(crate) relevance: f64,
    /// `burstiness(d, t)` (Eq. 11) aggregated over the matching patterns,
    /// or `None` when no (filter-surviving) pattern overlaps the document.
    pub(crate) burstiness: Option<f64>,
    /// `relevance × burstiness`, or `0.0` when no pattern matched (the
    /// term contributes nothing under [`crate::NoPatternPolicy::Zero`];
    /// under [`crate::NoPatternPolicy::Exclude`] such a document never
    /// appears in the results at all).
    pub(crate) contribution: f64,
    /// The patterns of the term that overlap the document *and* pass the
    /// query's filters — the set Eq. 11 aggregates over.
    pub patterns: Vec<PatternMatch>,
}

/// Why one result document scored what it scored.
#[derive(Debug, Clone, PartialEq)]
pub struct DocExplanation {
    /// The explained document.
    pub(crate) doc: DocId,
    /// Sum of the per-term contributions — equals the result's score.
    pub(crate) total: f64,
    /// One entry per distinct query term, in first-occurrence order.
    pub terms: Vec<TermExplanation>,
}

/// Execution statistics of one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryStats {
    /// The result list came straight from the query cache (no posting was
    /// touched).
    pub cache_hit: bool,
    /// The query walked the prebuilt full-collection index; `false` means
    /// its posting lists were scored per query (cold engine, active
    /// filters, or a per-query relevance override).
    pub served_from_prebuilt: bool,
    /// Postings read by sorted access during top-k evaluation.
    pub postings_scanned: usize,
    /// Postings the Threshold Algorithm's early termination never had to
    /// read.
    pub candidates_pruned: usize,
    /// Distinct resolved query terms (duplicates collapse in planning).
    pub terms: usize,
    /// Whether a time or region filter restricted the pattern set.
    pub(crate) filtered: bool,
}

/// The outcome of a successfully executed [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// The top-k documents, best first.
    pub results: Vec<SearchResult>,
    /// One explanation per result (same order), when the query asked for
    /// them with [`Query::explain`]; empty otherwise.
    pub explanations: Vec<DocExplanation>,
    /// How the query was executed.
    pub stats: QueryStats,
}

/// A [`QueryResponse`] bracketed to the serving generation it was computed
/// from — the diffable unit of the subscription tier.
///
/// Produced by [`crate::ServingFront::query_snapshot`], which loads the
/// serving state exactly once: the results and the generation always belong
/// together, so consumers comparing two snapshots (e.g. the standing-query
/// diff evaluator) can never observe a torn pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseSnapshot {
    /// The serving generation the response was evaluated against.
    pub generation: u64,
    /// The response itself.
    pub response: QueryResponse,
}

impl ResponseSnapshot {
    /// The ranked results, best first.
    pub fn results(&self) -> &[SearchResult] {
        &self.response.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_options() {
        let q = Query::terms([TermId(3), TermId(1)])
            .time_window(2..=9)
            .region(Rect::new(0.0, 0.0, 1.0, 1.0))
            .top_k(7)
            .relevance(Relevance::RawFreq)
            .unknown_words(UnknownWords::Drop)
            .explain(true);
        assert_eq!(q.top_k, 7);
        assert_eq!(q.relevance, Some(Relevance::RawFreq));
        assert_eq!(q.unknown_words, UnknownWords::Drop);
        assert!(q.explain);
        assert_eq!(q.terms, QueryTerms::Ids(vec![TermId(3), TermId(1)]));
    }

    #[test]
    fn defaults_are_unfiltered_top_10() {
        let q = Query::text("flood warning");
        assert_eq!(q.top_k, DEFAULT_TOP_K);
        assert!(!q.explain);
        assert_eq!(q.unknown_words, UnknownWords::Error);
        assert_eq!(q.relevance, None);
    }
}
