//! Replay-equivalence property tests: ingesting a corpus one document at a
//! time through the live pipeline, then querying, must be **byte-identical**
//! to the batch path (`CollectionBuilder` + batch-mine every term +
//! `finalize()`), with the result cache on and off.
//!
//! Exactness (not approximate agreement) is intentional: the incremental
//! path performs the same floating-point operations in the same order as
//! the batch path — term counts are integral so tensor aggregation is
//! exact, and the miner consumes identical per-term inputs — so any drift
//! at all indicates a dirty-term bookkeeping bug.

use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use stb_core::{Pattern, PatternRecord, STLocal, STLocalConfig};
use stb_corpus::{Collection, CollectionBuilder, StreamId, TermId};
use stb_geo::GeoPoint;
use stb_ingest::{IngestConfig, IngestPipeline, MinerKind, SearchHandle};
use stb_search::{BurstySearchEngine, EngineConfig, Query, SearchResult};

/// Typed-API term query against a reference engine.
fn engine_run(engine: &BurstySearchEngine, terms: &[TermId], k: usize) -> Vec<SearchResult> {
    engine
        .query(&Query::terms(terms.iter().copied()).top_k(k))
        .map(|r| r.results)
        .unwrap_or_default()
}

/// Typed-API term query through a live handle.
fn handle_run(handle: &SearchHandle, terms: &[TermId], k: usize) -> Vec<SearchResult> {
    handle
        .query(&Query::terms(terms.iter().copied()).top_k(k))
        .map(|r| r.results)
        .unwrap_or_default()
}

const N_STREAMS: usize = 3;
const TERMS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// One tick's documents: (stream index, [(term index, count)]).
type TickSpec = Vec<(usize, Vec<(usize, u32)>)>;

/// A corpus plan: one `TickSpec` per timestamp. Counts are skewed so bursts
/// (and therefore non-trivial patterns) actually occur.
fn arb_plan() -> impl Strategy<Value = Vec<TickSpec>> {
    // Counts are either background noise (1..3) or a burst (15..40).
    let count = (proptest::bool::ANY, 0u32..25)
        .prop_map(|(burst, c)| if burst { 15 + c } else { 1 + c % 2 });
    let doc = (
        0..N_STREAMS,
        prop::collection::vec((0..TERMS.len(), count), 1..3),
    );
    let tick = prop::collection::vec(doc, 0..4);
    prop::collection::vec(tick, 2..9)
}

fn stream_geo(s: usize) -> GeoPoint {
    // Two nearby streams and one far away, so regional patterns can both
    // include and exclude streams.
    match s {
        0 => GeoPoint::new(0.0, 0.0),
        1 => GeoPoint::new(1.0, 1.0),
        _ => GeoPoint::new(40.0 + s as f64, 40.0),
    }
}

/// Batch path: builder → collection, interning terms in exactly the order
/// the pipeline replay does (document by document, term-list order).
fn batch_collection(plan: &[TickSpec]) -> Collection {
    let mut b = CollectionBuilder::new(plan.len());
    for s in 0..N_STREAMS {
        b.add_stream(&format!("s{s}"), stream_geo(s));
    }
    for (ts, tick) in plan.iter().enumerate() {
        for (stream, bag) in tick {
            let mut counts = HashMap::new();
            for &(term, count) in bag {
                let id = b.dict_mut().intern(TERMS[term]);
                *counts.entry(id).or_insert(0) += count;
            }
            b.add_document(StreamId(*stream as u32), ts, counts);
        }
    }
    b.build()
}

/// Stages one tick's documents (terms interned in plan order) and returns
/// the terms they mention.
fn stage_tick(pipeline: &mut IngestPipeline, tick: &TickSpec) -> BTreeSet<TermId> {
    let mut staged = BTreeSet::new();
    for (stream, bag) in tick {
        let mut counts = HashMap::new();
        for &(term, count) in bag {
            let id = pipeline.intern(TERMS[term]);
            *counts.entry(id).or_insert(0) += count;
        }
        staged.extend(counts.keys().copied());
        pipeline.stage_document(StreamId(*stream as u32), counts);
    }
    staged
}

/// Live path: the same plan driven through the pipeline tick by tick.
fn ingest_pipeline(plan: &[TickSpec], miner: MinerKind, cache_capacity: usize) -> IngestPipeline {
    let mut pipeline = IngestPipeline::new(IngestConfig {
        timeline_capacity: plan.len(),
        miner,
        engine: EngineConfig::default(),
        cache_capacity,
        ..IngestConfig::default()
    });
    for s in 0..N_STREAMS {
        pipeline.add_stream(&format!("s{s}"), stream_geo(s));
    }
    for tick in plan {
        stage_tick(&mut pipeline, tick);
        pipeline.commit_tick();
    }
    pipeline
}

fn queries(collection: &Collection) -> Vec<Vec<TermId>> {
    let terms: Vec<TermId> = collection.terms().collect();
    let mut queries: Vec<Vec<TermId>> = terms.iter().map(|&t| vec![t]).collect();
    if terms.len() >= 2 {
        queries.push(vec![terms[0], terms[1]]);
        queries.push(terms.clone());
    }
    queries
}

fn assert_identical_results(
    label: &str,
    expect: &[SearchResult],
    got: &[SearchResult],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(expect.len(), got.len(), "{}: result count", label);
    for (e, g) in expect.iter().zip(got) {
        prop_assert_eq!(e.doc, g.doc, "{}: doc", label);
        // Byte-identical, not approximately equal.
        prop_assert_eq!(
            e.score.to_bits(),
            g.score.to_bits(),
            "{}: score {} vs {}",
            label,
            e.score,
            g.score
        );
    }
    Ok(())
}

fn assert_identical_patterns(
    expect: &[PatternRecord],
    got: &[PatternRecord],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(expect.len(), got.len(), "pattern count");
    for (e, g) in expect.iter().zip(got) {
        prop_assert_eq!(&e.streams, &g.streams);
        prop_assert_eq!(e.timeframe, g.timeframe);
        prop_assert_eq!(e.region, g.region, "pattern region");
        prop_assert_eq!(e.score.to_bits(), g.score.to_bits(), "pattern score");
    }
    Ok(())
}

/// The equivalence check: run the plan through both paths with the given
/// cache setting and compare patterns and top-k results.
fn check_equivalence(plan: &[TickSpec], cache_capacity: usize) -> Result<(), TestCaseError> {
    let batch = batch_collection(plan);
    let miner = MinerKind::STLocal(STLocalConfig::default());
    let pipeline = ingest_pipeline(plan, miner, cache_capacity);

    // Batch engine: mine every term, register, finalize.
    let shared: Arc<Collection> = Arc::new(batch);
    let mut batch_engine = BurstySearchEngine::new(Arc::clone(&shared), EngineConfig::default());
    batch_engine.set_cache_capacity(cache_capacity);
    for term in shared.terms() {
        let (patterns, _) = STLocal::mine_collection(&shared, term, STLocalConfig::default());
        batch_engine.set_patterns(term, &patterns);
    }
    batch_engine.finalize_with_threads(2);

    // 1. The engines hold byte-identical patterns: compare the pipeline's
    //    final per-term mining state against the batch miner output.
    let positions = shared.positions();
    for term in shared.terms() {
        let (patterns, _) = STLocal::mine_collection(&shared, term, STLocalConfig::default());
        let expect: Vec<PatternRecord> = patterns
            .iter()
            .map(|p| PatternRecord::capture(p, &positions))
            .collect();
        assert_identical_patterns(&expect, &pipeline.current_patterns(term).patterns)?;
    }

    // 2. Identical collections as far as any consumer can observe.
    let live = pipeline.collection();
    prop_assert_eq!(shared.documents().len(), live.documents().len());
    prop_assert_eq!(shared.n_terms(), live.n_terms());
    prop_assert_eq!(shared.timeline_len(), live.timeline_len());

    // 3. Byte-identical top-k, twice (the second round exercises the cache
    //    when it is enabled).
    let handle = pipeline.search_handle();
    for _round in 0..2 {
        for query in queries(&shared) {
            for k in [1, 3, 10] {
                assert_identical_results(
                    "stlocal",
                    &engine_run(&batch_engine, &query, k),
                    &handle_run(&handle, &query, k),
                )?;
            }
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn replay_equals_batch_stlocal(plan in arb_plan(), cache in proptest::bool::ANY) {
        check_equivalence(&plan, if cache { 64 } else { 0 })?;
    }

    #[test]
    fn replay_equals_batch_with_growing_timeline(plan in arb_plan()) {
        // timeline_capacity 0: every tick grows the timeline on demand. The
        // pipeline must still converge to the batch result (growth is free).
        let batch = batch_collection(&plan);
        let mut pipeline = IngestPipeline::new(IngestConfig {
            timeline_capacity: 0,
            miner: MinerKind::STLocal(STLocalConfig::default()),
            ..Default::default()
        });
        for s in 0..N_STREAMS {
            pipeline.add_stream(&format!("s{s}"), stream_geo(s));
        }
        for tick in &plan {
            stage_tick(&mut pipeline, tick);
            pipeline.commit_tick();
        }
        let shared: Arc<Collection> = Arc::new(batch);
        let mut batch_engine = BurstySearchEngine::new(Arc::clone(&shared), EngineConfig::default());
        batch_engine.set_cache_capacity(0);
        for term in shared.terms() {
            let (patterns, _) = STLocal::mine_collection(&shared, term, STLocalConfig::default());
            batch_engine.set_patterns(term, &patterns);
        }
        batch_engine.finalize_with_threads(2);
        let handle = pipeline.search_handle();
        for query in queries(&shared) {
            assert_identical_results(
                "grow",
                &engine_run(&batch_engine, &query, 10),
                &handle_run(&handle, &query, 10),
            )?;
        }
    }

    #[test]
    fn a_commit_remines_and_rescores_exactly_its_ticks_terms(plan in arb_plan()) {
        // timeline_capacity 0: the timeline grows on every tick, and still
        // a commit's work is the terms of the documents it applies.
        let mut pipeline = IngestPipeline::new(IngestConfig {
            timeline_capacity: 0,
            miner: MinerKind::STLocal(STLocalConfig::default()),
            ..Default::default()
        });
        for s in 0..N_STREAMS {
            pipeline.add_stream(&format!("s{s}"), stream_geo(s));
        }
        let handle = pipeline.search_handle();
        for (ts, tick) in plan.iter().enumerate() {
            let staged = stage_tick(&mut pipeline, tick);
            let rescored_before = handle.metrics().term_rescore_count;
            let receipt = pipeline.commit_tick();
            if ts == 0 {
                // The streams were added in this tick: every term is
                // re-derived (`add_stream`'s structural re-mine).
                continue;
            }
            let mined: BTreeSet<TermId> = receipt.deltas.iter().map(|d| d.term).collect();
            prop_assert_eq!(receipt.deltas.len(), mined.len(), "one delta per term");
            prop_assert_eq!(&mined, &staged, "tick {}", ts);
            prop_assert_eq!(
                handle.metrics().term_rescore_count - rescored_before,
                staged.len() as u64,
                "tick {}",
                ts
            );
        }
    }

    #[test]
    fn mined_pattern_overlap_is_consistent(plan in arb_plan()) {
        // Sanity on the emitted deltas themselves: every reported pattern
        // overlap matches the Pattern trait's stream/timestamp test.
        let pipeline = ingest_pipeline(&plan, MinerKind::STLocal(STLocalConfig::default()), 0);
        let collection = pipeline.collection();
        for term in collection.terms() {
            for p in pipeline.current_patterns(term).patterns.iter() {
                prop_assert!(p.timeframe.end < collection.timeline_len());
                for &s in &p.streams {
                    prop_assert!(s.index() < collection.n_streams());
                    prop_assert!(p.overlaps(s, p.timeframe.start));
                }
            }
        }
    }
}
