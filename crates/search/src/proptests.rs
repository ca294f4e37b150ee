//! Property-based tests for the search engine: the Threshold Algorithm must
//! always agree with exhaustive evaluation, the serving path (prebuilt
//! index + query cache) must be indistinguishable from cold evaluation, and
//! a spatiotemporally filtered `Query` must be byte-identical to an
//! exhaustive search whose pattern set was post-filtered by geometry, and
//! every scored posting list must equal Eq. 11's linear definition.

use crate::engine::{scored_postings, PatternFilter};
use crate::threshold::exhaustive_topk;
use crate::{
    threshold_topk, BurstySearchEngine, EngineConfig, InvertedIndex, NoPatternPolicy, Query,
    QueryKey, Relevance, SearchResult,
};
use proptest::prelude::*;
use proptest::TestCaseError;
use stb_core::{CombinatorialPattern, Pattern, PatternRecord, RegionalPattern};
use stb_corpus::{Collection, CollectionBuilder, DocId, Document, StreamId, TermId};
use stb_geo::{GeoPoint, Rect};
use stb_timeseries::TimeInterval;
use std::collections::HashMap;
use std::sync::Arc;

fn arb_index() -> impl Strategy<Value = InvertedIndex> {
    // Up to 4 terms, up to 30 docs, sparse random scores.
    prop::collection::vec(
        (0u32..4, 0u32..30, -1.0f64..5.0).prop_map(|(t, d, s)| (TermId(t), DocId(d), s)),
        0..80,
    )
    .prop_map(|entries| {
        let mut idx = InvertedIndex::new();
        for (t, d, s) in entries {
            idx.insert(t, d, s);
        }
        idx.finalize();
        idx
    })
}

/// Document blueprint: (stream, timestamp, bag of (term, count)).
type DocSpec = (u32, usize, Vec<(u32, u32)>);
/// Pattern blueprint: (term, stream bitmask, start, extra length, score).
type PatternSpec = (u32, u8, usize, usize, f64);
/// Regional-pattern blueprint: (term, stream bitmask, start, extra length,
/// score, (rect corner, rect extent)).
type RegionalSpec = (u32, u8, usize, usize, f64, ((f64, f64), (f64, f64)));
/// Spatiotemporal filter blueprint: optional (start, extra) window and
/// optional (corner, extent) region.
type FilterSpec = (Option<(usize, usize)>, Option<((f64, f64), (f64, f64))>);

const N_STREAMS: u32 = 4;
const N_TERMS: u32 = 4;
const TIMELINE: usize = 8;

fn arb_docs() -> impl Strategy<Value = Vec<DocSpec>> {
    prop::collection::vec(
        (
            0..N_STREAMS,
            0..TIMELINE,
            prop::collection::vec((0..N_TERMS, 1u32..9), 1..4),
        ),
        1..40,
    )
}

fn arb_patterns() -> impl Strategy<Value = Vec<PatternSpec>> {
    prop::collection::vec(
        (0..N_TERMS, 1u8..16, 0..TIMELINE, 0usize..4, 0.1f64..3.0),
        0..8,
    )
}

fn arb_regional_patterns() -> impl Strategy<Value = Vec<RegionalSpec>> {
    prop::collection::vec(
        (
            0..N_TERMS,
            1u8..16,
            0..TIMELINE,
            0usize..4,
            0.1f64..3.0,
            ((-1.0f64..2.0, -1.0f64..5.0), (0.0f64..2.5, 0.0f64..4.0)),
        ),
        0..8,
    )
}

fn arb_filter() -> impl Strategy<Value = FilterSpec> {
    (
        prop::option::of((0..TIMELINE, 0usize..4)),
        prop::option::of(((-1.0f64..2.0, -1.0f64..5.0), (0.0f64..2.5, 0.0f64..4.0))),
    )
}

fn build_collection(docs: &[DocSpec]) -> Collection {
    let mut b = CollectionBuilder::new(TIMELINE);
    // Intern the whole vocabulary up front so TermId(0..N_TERMS) all exist.
    for t in 0..N_TERMS {
        b.dict_mut().intern(&format!("t{t}"));
    }
    for s in 0..N_STREAMS {
        b.add_stream(&format!("s{s}"), GeoPoint::new(f64::from(s), 0.0));
    }
    for (stream, ts, counts) in docs {
        let mut bag = HashMap::new();
        for (term, count) in counts {
            *bag.entry(TermId(*term)).or_insert(0) += *count;
        }
        b.add_document(StreamId(*stream), *ts, bag);
    }
    b.build()
}

fn spec_streams(mask: u8) -> Vec<StreamId> {
    (0..N_STREAMS)
        .filter(|s| mask & (1 << s) != 0)
        .map(StreamId)
        .collect()
}

fn spec_timeframe(start: usize, extra: usize) -> TimeInterval {
    TimeInterval::new(start, (start + extra).min(TIMELINE - 1))
}

fn patterns_by_term(specs: &[PatternSpec]) -> HashMap<TermId, Vec<CombinatorialPattern>> {
    let mut by_term: HashMap<TermId, Vec<CombinatorialPattern>> = HashMap::new();
    for &(term, mask, start, extra, score) in specs {
        by_term
            .entry(TermId(term))
            .or_default()
            .push(CombinatorialPattern::new(
                spec_streams(mask),
                spec_timeframe(start, extra),
                score,
                vec![],
            ));
    }
    by_term
}

fn regional_by_term(specs: &[RegionalSpec]) -> HashMap<TermId, Vec<RegionalPattern>> {
    let mut by_term: HashMap<TermId, Vec<RegionalPattern>> = HashMap::new();
    for &(term, mask, start, extra, score, ((x, y), (w, h))) in specs {
        by_term
            .entry(TermId(term))
            .or_default()
            .push(RegionalPattern::new(
                Rect::new(x, y, x + w, y + h),
                spec_streams(mask),
                spec_timeframe(start, extra),
                score,
            ));
    }
    by_term
}

fn filter_query(base: Query, filter: &FilterSpec) -> Query {
    let mut q = base;
    if let Some((start, extra)) = filter.0 {
        q = q.time_window(start..=(start + extra).min(TIMELINE - 1));
    }
    if let Some(((x, y), (w, h))) = filter.1 {
        q = q.region(Rect::new(x, y, x + w, y + h));
    }
    q
}

/// Registers every term's patterns on `engine`.
fn register<P: Pattern>(engine: &mut BurstySearchEngine, by_term: &HashMap<TermId, Vec<P>>) {
    for (&term, patterns) in by_term {
        engine.set_patterns(term, patterns);
    }
}

/// Drops every pattern that fails the filter, using the same geometry the
/// engine filters by (`Pattern::region` over the collection's positions) —
/// the oracle the filtered query path is checked against.
fn post_filter<P: Pattern + Clone>(
    by_term: &HashMap<TermId, Vec<P>>,
    collection: &Collection,
    filter: &FilterSpec,
) -> HashMap<TermId, Vec<P>> {
    let positions = collection.positions();
    let window = filter.0.map(|(start, extra)| spec_timeframe(start, extra));
    let region = filter
        .1
        .map(|((x, y), (w, h))| Rect::new(x, y, x + w, y + h));
    by_term
        .iter()
        .map(|(&term, patterns)| {
            let kept: Vec<P> = patterns
                .iter()
                .filter(|p| {
                    window.is_none_or(|w| p.timeframe().overlaps(&w))
                        && region.is_none_or(|r| {
                            p.region(&positions).is_some_and(|pr| pr.intersects(&r))
                        })
                })
                .cloned()
                .collect();
            (term, kept)
        })
        .collect()
}

fn sample_queries() -> [Vec<TermId>; 4] {
    [
        vec![TermId(0)],
        vec![TermId(1), TermId(2)],
        vec![TermId(0), TermId(3)],
        vec![TermId(0), TermId(1), TermId(2), TermId(3)],
    ]
}

fn config_for(zero: bool) -> EngineConfig {
    EngineConfig::builder()
        .no_pattern(if zero {
            NoPatternPolicy::Zero
        } else {
            NoPatternPolicy::Exclude
        })
        .build()
}

fn run(engine: &BurstySearchEngine, terms: &[TermId], k: usize) -> Vec<SearchResult> {
    engine
        .query(&Query::terms(terms.iter().copied()).top_k(k))
        .map(|r| r.results)
        .unwrap_or_default()
}

fn assert_same(a: &[SearchResult], b: &[SearchResult]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        prop_assert_eq!(x.doc, y.doc);
        prop_assert!((x.score - y.score).abs() < 1e-9);
    }
    Ok(())
}

/// Byte-identical comparison: same documents, bitwise-equal scores.
fn assert_identical(a: &[SearchResult], b: &[SearchResult]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        prop_assert_eq!(x.doc, y.doc);
        prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
    }
    Ok(())
}

proptest! {
    #[test]
    fn cached_and_uncached_search_return_identical_topk(
        docs in arb_docs(),
        specs in arb_patterns(),
        k in 1usize..8,
        zero in proptest::bool::ANY
    ) {
        let collection = build_collection(&docs);
        let by_term = patterns_by_term(&specs);
        let config = config_for(zero);

        // Reference: cold engine, caching disabled — every search is a
        // from-scratch evaluation.
        let mut cold = BurstySearchEngine::new(&collection, config);
        cold.set_cache_capacity(0);
        register(&mut cold, &by_term);

        // Serving path: prebuilt index + result cache.
        let mut hot = BurstySearchEngine::new(&collection, config);
        register(&mut hot, &by_term);
        hot.finalize_with_threads(2);

        // Two rounds: the second round is answered from the cache and must
        // still agree with the cold engine.
        for _round in 0..2 {
            for query in &sample_queries() {
                assert_same(&run(&cold, query, k), &run(&hot, query, k))?;
            }
        }
        prop_assert!(hot.metrics().cache_hits >= sample_queries().len() as u64);
    }

    #[test]
    fn set_patterns_after_finalize_invalidates_stale_entries(
        docs in arb_docs(),
        specs in arb_patterns(),
        k in 1usize..8
    ) {
        let collection = build_collection(&docs);
        let mut by_term = patterns_by_term(&specs);
        let config = EngineConfig::default();

        let mut hot = BurstySearchEngine::new(&collection, config);
        register(&mut hot, &by_term);
        hot.finalize_with_threads(2);
        // Populate the cache with results for the original patterns.
        for query in &sample_queries() {
            let _ = run(&hot, query, k);
        }

        // Change TermId(0)'s patterns: double scores, or create a pattern
        // where none existed.
        let entry = by_term.entry(TermId(0)).or_default();
        if entry.is_empty() {
            entry.push(CombinatorialPattern::new(
                (0..N_STREAMS).map(StreamId).collect(),
                TimeInterval::new(0, TIMELINE - 1),
                1.0,
                vec![],
            ));
        } else {
            for p in entry.iter_mut() {
                p.score *= 2.0;
            }
        }
        hot.set_patterns(TermId(0), &by_term[&TermId(0)]);

        // A fresh cold engine with the updated patterns is the oracle: the
        // finalized engine must serve the new results, not stale cache hits.
        let mut reference = BurstySearchEngine::new(&collection, config);
        reference.set_cache_capacity(0);
        register(&mut reference, &by_term);
        for query in &sample_queries() {
            assert_same(&run(&reference, query, k), &run(&hot, query, k))?;
        }
    }

    /// The tentpole equivalence: a `Query` with time/region filters equals
    /// an exhaustive (unfiltered) search over the geometrically
    /// post-filtered pattern set, byte-identically — for combinatorial
    /// (MBR-located) patterns, with the cache on and off, finalized or not.
    #[test]
    fn filtered_query_matches_postfilter_oracle_combinatorial(
        docs in arb_docs(),
        specs in arb_patterns(),
        filter in arb_filter(),
        k in 1usize..8,
        zero in proptest::bool::ANY,
        finalized in proptest::bool::ANY
    ) {
        let collection = build_collection(&docs);
        let by_term = patterns_by_term(&specs);
        let config = config_for(zero);

        let mut engine = BurstySearchEngine::new(&collection, config);
        register(&mut engine, &by_term);
        if finalized {
            engine.finalize_with_threads(2);
        }
        let mut uncached = BurstySearchEngine::new(&collection, config);
        uncached.set_cache_capacity(0);
        register(&mut uncached, &by_term);

        // Oracle: unfiltered engine over the post-filtered pattern set.
        let mut oracle = BurstySearchEngine::new(&collection, config);
        oracle.set_cache_capacity(0);
        register(&mut oracle, &post_filter(&by_term, &collection, &filter));

        for terms in &sample_queries() {
            let q = filter_query(Query::terms(terms.iter().copied()).top_k(k), &filter);
            let expect = run(&oracle, terms, k);
            // Cached engine, twice (second round from the cache).
            for _ in 0..2 {
                assert_identical(&engine.query(&q).unwrap().results, &expect)?;
            }
            assert_identical(&uncached.query(&q).unwrap().results, &expect)?;
        }
    }

    /// Same equivalence for regional (`STLocal`-shaped) patterns, whose
    /// geometry is the mined rectangle rather than a stream MBR.
    #[test]
    fn filtered_query_matches_postfilter_oracle_regional(
        docs in arb_docs(),
        specs in arb_regional_patterns(),
        filter in arb_filter(),
        k in 1usize..8,
        zero in proptest::bool::ANY,
        finalized in proptest::bool::ANY
    ) {
        let collection = build_collection(&docs);
        let by_term = regional_by_term(&specs);
        let config = config_for(zero);

        let mut engine = BurstySearchEngine::new(&collection, config);
        register(&mut engine, &by_term);
        if finalized {
            engine.finalize_with_threads(2);
        }
        let mut oracle = BurstySearchEngine::new(&collection, config);
        oracle.set_cache_capacity(0);
        register(&mut oracle, &post_filter(&by_term, &collection, &filter));

        for terms in &sample_queries() {
            let q = filter_query(Query::terms(terms.iter().copied()).top_k(k), &filter);
            let expect = run(&oracle, terms, k);
            for _ in 0..2 {
                assert_identical(&engine.query(&q).unwrap().results, &expect)?;
            }
        }
    }

    /// Queries differing only in their window/region must never share a
    /// cache entry: interleaving differently-filtered queries on one cached
    /// engine returns exactly what a cache-disabled engine returns.
    #[test]
    fn differently_filtered_queries_never_collide_in_the_cache(
        docs in arb_docs(),
        specs in arb_patterns(),
        filters in prop::collection::vec(arb_filter(), 2..5),
        k in 1usize..8
    ) {
        let collection = build_collection(&docs);
        let by_term = patterns_by_term(&specs);
        let config = EngineConfig::default();

        let mut cached = BurstySearchEngine::new(&collection, config);
        register(&mut cached, &by_term);
        cached.finalize_with_threads(2);
        let mut uncached = BurstySearchEngine::new(&collection, config);
        uncached.set_cache_capacity(0);
        register(&mut uncached, &by_term);

        let terms = vec![TermId(0), TermId(1)];
        // Two interleaved rounds so every filter variant both populates and
        // re-reads the cache with the others in between.
        for _round in 0..2 {
            for filter in &filters {
                let q = filter_query(Query::terms(terms.iter().copied()).top_k(k), filter);
                assert_identical(
                    &cached.query(&q).unwrap().results,
                    &uncached.query(&q).unwrap().results,
                )?;
            }
        }
        // And the canonical keys themselves are pairwise distinct whenever
        // the canonicalized filters are (different specs may clamp to the
        // same window, which legitimately shares a key).
        let canonical: Vec<(Option<TimeInterval>, Option<Rect>)> = filters
            .iter()
            .map(|f| {
                (
                    f.0.map(|(s, e)| spec_timeframe(s, e)),
                    f.1.map(|((x, y), (w, h))| Rect::new(x, y, x + w, y + h)),
                )
            })
            .collect();
        let keys: Vec<QueryKey> = canonical
            .iter()
            .map(|&(window, region)| QueryKey::canonical(&terms, k, config, window, region))
            .collect();
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate().skip(i + 1) {
                if canonical[i] != canonical[j] {
                    prop_assert_ne!(a, b);
                }
            }
        }
    }
}

/// Pattern-record blueprint: (term, stream bitmask over `N_STREAMS + 2` ids
/// — the top two lie beyond the collection — start, extra length, (score
/// selector, score), optional (corner, extent) region).
type RecordSpec = (
    u32,
    u8,
    usize,
    usize,
    (u8, f64),
    Option<((f64, f64), (f64, f64))>,
);

fn arb_records() -> impl Strategy<Value = Vec<RecordSpec>> {
    prop::collection::vec(
        (
            0..N_TERMS,
            0u8..(1 << (N_STREAMS + 2)),
            0..TIMELINE,
            0usize..4,
            (0u8..4, -1.0f64..3.0),
            prop::option::of(((-1.0f64..2.0, -1.0f64..5.0), (0.0f64..2.5, 0.0f64..4.0))),
        ),
        0..24,
    )
}

/// Every term's records in registration order. A term with no record is
/// registered with an empty slice when its bit in `empty_mask` is set, and
/// never registered otherwise.
fn records_by_term(specs: &[RecordSpec], empty_mask: u8) -> HashMap<TermId, Vec<PatternRecord>> {
    let mut by_term: HashMap<TermId, Vec<PatternRecord>> = (0..N_TERMS)
        .filter(|t| empty_mask & (1 << t) != 0)
        .map(|t| (TermId(t), Vec::new()))
        .collect();
    for &(term, mask, start, extra, (pick, score), region) in specs {
        by_term
            .entry(TermId(term))
            .or_default()
            .push(PatternRecord {
                streams: (0..N_STREAMS + 2)
                    .filter(|s| mask & (1 << s) != 0)
                    .map(StreamId)
                    .collect(),
                timeframe: spec_timeframe(start, extra),
                region: region.map(|((x, y), (w, h))| Rect::new(x, y, x + w, y + h)),
                // Signed zeros make `max` order-sensitive; NaN is ignored by it.
                score: match pick {
                    0 => f64::NAN,
                    1 => 0.0,
                    2 => -0.0,
                    _ => score,
                },
            });
    }
    by_term
}

/// The linear Eq. 11 pass the engine's overlap kernel replaced, kept as an
/// independent oracle: for every document of the term, in id order, fold
/// the scores of every pattern that survives the filter and overlaps the
/// document, in registration order.
fn linear_postings(
    collection: &Collection,
    patterns: Option<&[PatternRecord]>,
    term: TermId,
    config: EngineConfig,
    filter: PatternFilter,
) -> Vec<(DocId, u64)> {
    let docs: Vec<&Document> = collection
        .documents()
        .iter()
        .filter(|d| d.counts.contains_key(&term))
        .collect();
    let mut postings = Vec::new();
    for doc in &docs {
        let overlapping: Vec<f64> = patterns
            .unwrap_or_default()
            .iter()
            .filter(|p| {
                filter.window.is_none_or(|w| p.timeframe.overlaps(&w))
                    && filter
                        .region
                        .is_none_or(|r| p.region.is_some_and(|pr| pr.intersects(&r)))
                    && p.overlaps(doc.stream, doc.timestamp)
            })
            .map(|p| p.score)
            .collect();
        let score = if overlapping.is_empty() {
            match config.no_pattern {
                NoPatternPolicy::Zero => 0.0,
                NoPatternPolicy::Exclude => continue,
            }
        } else {
            let burst = overlapping
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            config.relevance.score(doc.freq(term)) * burst
        };
        postings.push((doc.id, score.to_bits()));
    }
    postings
}

proptest! {
    /// Eq. 11 against its definition: every term's scored posting list —
    /// registered, registered empty, never registered, or unknown to the
    /// dictionary — equals the linear oracle's bit for bit, under random
    /// window/region filters and both no-pattern policies.
    #[test]
    fn scored_postings_match_the_linear_eq11_oracle(
        docs in arb_docs(),
        specs in arb_records(),
        empty_mask in 0u8..(1 << N_TERMS),
        filter in arb_filter(),
        raw in proptest::bool::ANY,
        zero in proptest::bool::ANY
    ) {
        let collection = build_collection(&docs);
        let by_term = records_by_term(&specs, empty_mask);
        let relevance = if raw { Relevance::RawFreq } else { Relevance::LogFreq };
        let config = EngineConfig::builder()
            .relevance(relevance)
            .no_pattern(config_for(zero).no_pattern)
            .build();
        let mut engine = BurstySearchEngine::new(&collection, config);
        for (&term, records) in &by_term {
            engine.set_pattern_records(term, Arc::from(records.as_slice()));
        }
        let filter = PatternFilter {
            window: filter.0.map(|(start, extra)| spec_timeframe(start, extra)),
            region: filter.1.map(|((x, y), (w, h))| Rect::new(x, y, x + w, y + h)),
        };
        for term in (0..=N_TERMS).map(TermId) {
            let got: Vec<(DocId, u64)> = scored_postings(engine.state(), term, config, filter)
                .iter()
                .map(|p| (p.doc, p.score.to_bits()))
                .collect();
            let expect = linear_postings(
                &collection,
                by_term.get(&term).map(Vec::as_slice),
                term,
                config,
                filter,
            );
            prop_assert_eq!(got, expect);
        }
    }
}

proptest! {
    #[test]
    fn threshold_algorithm_matches_exhaustive(
        idx in arb_index(),
        k in 1usize..12,
        n_query in 1usize..4,
        exclude in proptest::bool::ANY
    ) {
        let query: Vec<TermId> = (0..n_query as u32).map(TermId).collect();
        let policy = if exclude { NoPatternPolicy::Exclude } else { NoPatternPolicy::Zero };
        let ta = threshold_topk(&idx, &query, k, policy);
        let ex = exhaustive_topk(&idx, &query, k, policy);
        prop_assert_eq!(ta.len(), ex.len());
        for (a, b) in ta.iter().zip(&ex) {
            // Scores must agree exactly; document identity may differ only on
            // exact score ties, which both sides break by doc id.
            prop_assert!((a.score - b.score).abs() < 1e-9);
            prop_assert_eq!(a.doc, b.doc);
        }
    }

    /// Scores from a four-value set make cut-off ties the common case: the
    /// two evaluations agree on every document and every score bit.
    #[test]
    fn threshold_algorithm_matches_exhaustive_under_ties(
        entries in prop::collection::vec((0u32..3, 0u32..10, 1u8..5), 0..40),
        k in 1usize..4,
        n_query in 1usize..4,
        exclude in proptest::bool::ANY
    ) {
        let mut idx = InvertedIndex::new();
        for (t, d, s) in entries {
            idx.insert(TermId(t), DocId(d), f64::from(s) * 0.5);
        }
        idx.finalize();
        let query: Vec<TermId> = (0..n_query as u32).map(TermId).collect();
        let policy = if exclude { NoPatternPolicy::Exclude } else { NoPatternPolicy::Zero };
        let bits = |r: Vec<crate::threshold::ScoredDoc>| -> Vec<(DocId, u64)> {
            r.iter().map(|s| (s.doc, s.score.to_bits())).collect()
        };
        prop_assert_eq!(
            bits(threshold_topk(&idx, &query, k, policy)),
            bits(exhaustive_topk(&idx, &query, k, policy))
        );
    }

    #[test]
    fn results_are_sorted_positive_and_unique(idx in arb_index(), k in 1usize..12) {
        let query = vec![TermId(0), TermId(1), TermId(2)];
        let results = threshold_topk(&idx, &query, k, NoPatternPolicy::Zero);
        prop_assert!(results.len() <= k);
        for w in results.windows(2) {
            prop_assert!(w[0].score >= w[1].score - 1e-12);
        }
        let mut docs: Vec<DocId> = results.iter().map(|r| r.doc).collect();
        let before = docs.len();
        docs.sort();
        docs.dedup();
        prop_assert_eq!(docs.len(), before);
        for r in &results {
            prop_assert!(r.score > 0.0);
        }
    }
}
