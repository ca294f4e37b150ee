//! Serving-tier equivalence property tests: the sharded, lock-free
//! [`SearchHandle`] must answer **byte-identically** to a single-threaded,
//! unsharded [`BurstySearchEngine`] fed the same tick receipts — while
//! reader threads hammer the handle concurrently with the commits.
//!
//! The shadow engine replays exactly what the pipeline's write side does
//! each commit (`update_collection` + per-delta `set_patterns`), so any
//! divergence at all — a float bit, a result order, an error variant —
//! indicates a sharding, gather, or publication bug, not noise.
//!
//! Two axes are swept per case: result cache (on/off) and shard count
//! (1, 2, 3, 8). The query set covers unfiltered
//! term queries, text queries, time-window and region filters, per-query
//! relevance overrides, and explanations.

use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use stb_corpus::{StreamId, TermId};
use stb_geo::{GeoPoint, Rect};
use stb_ingest::{IngestConfig, IngestPipeline};
use stb_search::{
    BurstySearchEngine, EngineConfig, Query, QueryError, QueryResponse, Relevance, SearchResult,
};

const N_STREAMS: usize = 3;
const TERMS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// One tick's documents: (stream index, [(term index, count)]).
type TickSpec = Vec<(usize, Vec<(usize, u32)>)>;

fn arb_plan() -> impl Strategy<Value = Vec<TickSpec>> {
    let count = (proptest::bool::ANY, 0u32..25)
        .prop_map(|(burst, c)| if burst { 15 + c } else { 1 + c % 2 });
    let doc = (
        0..N_STREAMS,
        prop::collection::vec((0..TERMS.len(), count), 1..3),
    );
    let tick = prop::collection::vec(doc, 0..4);
    prop::collection::vec(tick, 2..8)
}

fn stream_geo(s: usize) -> GeoPoint {
    match s {
        0 => GeoPoint::new(0.0, 0.0),
        1 => GeoPoint::new(1.0, 1.0),
        _ => GeoPoint::new(40.0 + s as f64, 40.0),
    }
}

/// The fixed query set every generation is checked with: unfiltered,
/// text-resolved, filtered (time, region, both), relevance-overridden, and
/// explained queries.
fn query_set(n_ticks: usize) -> Vec<Query> {
    let t: Vec<TermId> = (0..TERMS.len() as u32).map(TermId).collect();
    let mid = n_ticks / 2;
    let near = Rect::new(-0.5, -0.5, 1.5, 1.5);
    vec![
        Query::terms([t[0]]).top_k(5),
        Query::terms([t[1], t[2]]).top_k(4),
        Query::terms(t.iter().copied()).top_k(10),
        Query::text("alpha beta").top_k(5),
        Query::text("alpha unknown-word").top_k(5),
        Query::terms([t[0], t[3]]).top_k(6).time_window(0..=mid),
        Query::terms([t[1]]).top_k(6).region(near),
        Query::terms([t[2], t[0]])
            .top_k(8)
            .time_window(0..=mid)
            .region(near),
        Query::terms([t[0]]).top_k(5).relevance(Relevance::RawFreq),
        Query::terms([t[3], t[1]]).top_k(5).explain(true),
    ]
}

fn assert_bit_identical(
    label: &str,
    expect: &Result<QueryResponse, QueryError>,
    got: &Result<QueryResponse, QueryError>,
    compare_stats: bool,
) -> Result<(), TestCaseError> {
    match (expect, got) {
        (Ok(e), Ok(g)) => {
            prop_assert_eq!(e.results.len(), g.results.len(), "{}: result count", label);
            for (er, gr) in e.results.iter().zip(&g.results) {
                prop_assert_eq!(er.doc, gr.doc, "{}: doc", label);
                prop_assert_eq!(
                    er.score.to_bits(),
                    gr.score.to_bits(),
                    "{}: score {} vs {}",
                    label,
                    er.score,
                    gr.score
                );
            }
            prop_assert_eq!(&e.explanations, &g.explanations, "{}: explanations", label);
            if compare_stats {
                prop_assert_eq!(&e.stats, &g.stats, "{}: stats", label);
            }
        }
        (Err(e), Err(g)) => prop_assert_eq!(e, g, "{}: error", label),
        (e, g) => prop_assert!(false, "{}: disagree on success: {:?} vs {:?}", label, e, g),
    }
    Ok(())
}

/// Results of the query set against one serving generation, bit-packed for
/// comparison (doc ids and score bits).
type GenReference = Vec<Result<Vec<(u32, u64)>, QueryError>>;

fn reference_of(responses: &[Result<QueryResponse, QueryError>]) -> GenReference {
    responses
        .iter()
        .map(|r| {
            r.as_ref()
                .map(|resp| {
                    resp.results
                        .iter()
                        .map(|s: &SearchResult| (s.doc.0, s.score.to_bits()))
                        .collect()
                })
                .map_err(Clone::clone)
        })
        .collect()
}

/// The shared check: drive `plan` through a sharded pipeline while reader
/// threads hammer the handle, and compare every generation bit-for-bit
/// against a single-threaded unsharded shadow engine fed the same receipts.
fn check_serving_equivalence(
    plan: &[TickSpec],
    cache_capacity: usize,
    n_shards: usize,
) -> Result<(), TestCaseError> {
    let engine_config = EngineConfig::default();
    let mut pipeline = IngestPipeline::new(IngestConfig {
        timeline_capacity: plan.len(),
        engine: engine_config,
        cache_capacity,
        n_shards,
        ..IngestConfig::default()
    });
    // Shadow: a plain single-threaded engine over the same snapshots,
    // constructed from the same *empty* collection the pipeline's engine
    // started from (generation 1 is published before any stream or term
    // exists). The cache stays off so its stats are deterministic; with the
    // handle cache off too, stats must agree exactly.
    let mut shadow = BurstySearchEngine::new(pipeline.collection(), engine_config);
    shadow.set_cache_capacity(0);
    shadow.finalize_with_threads(1);

    for s in 0..N_STREAMS {
        pipeline.add_stream(&format!("s{s}"), stream_geo(s));
    }
    // Intern the full vocabulary up front so the query set resolves the
    // same term ids from tick 0.
    for term in TERMS {
        pipeline.intern(term);
    }

    let queries = query_set(plan.len());
    let handle = pipeline.search_handle();
    let compare_stats = cache_capacity == 0;

    // Per-generation references (query-set results computed by the shadow),
    // filled by the committing thread; read by the readers only after join.
    let references: Mutex<HashMap<u64, GenReference>> = Mutex::new(HashMap::new());
    references.lock().unwrap().insert(
        handle.generation(),
        reference_of(&shadow.query_many(&queries)),
    );

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| -> Result<(), TestCaseError> {
        // Readers: record (generation, per-query results) whenever a whole
        // batch is bracketed by one stable generation.
        let mut readers = Vec::new();
        for _ in 0..2 {
            let h = handle.clone();
            let q = &queries;
            let done_ref = &done;
            readers.push(scope.spawn(move || {
                let mut seen: Vec<(u64, GenReference)> = Vec::new();
                loop {
                    let finished = done_ref.load(Ordering::SeqCst);
                    let g1 = h.generation();
                    let responses = h.query_many(&q[..]);
                    let g2 = h.generation();
                    if g1 == g2 {
                        seen.push((g1, reference_of(&responses)));
                    }
                    if finished {
                        return seen;
                    }
                }
            }));
        }

        // Writer: commit the plan tick by tick, mirroring each receipt into
        // the shadow and checking the handle against it bit-for-bit.
        for tick in plan {
            for (stream, bag) in tick {
                let mut counts = HashMap::new();
                for &(term, count) in bag {
                    let id = pipeline.intern(TERMS[term]);
                    *counts.entry(id).or_insert(0) += count;
                }
                pipeline.stage_document(StreamId(*stream as u32), counts);
            }
            let receipt = pipeline.commit_tick();
            shadow.update_collection(pipeline.collection(), &receipt.new_docs);
            for delta in &receipt.deltas {
                shadow.set_patterns(delta.term, &delta.patterns);
            }

            let generation = handle.generation();
            let expect = shadow.query_many(&queries);
            let got = handle.query_many(&queries);
            for (i, (e, g)) in expect.iter().zip(&got).enumerate() {
                assert_bit_identical(&format!("query {i}"), e, g, compare_stats)?;
            }
            references
                .lock()
                .unwrap()
                .insert(generation, reference_of(&expect));
        }
        done.store(true, Ordering::SeqCst);

        // Every bracketed concurrent batch must match the reference of the
        // generation it observed.
        let references = references.lock().unwrap();
        for reader in readers {
            let seen = reader.join().expect("reader thread");
            for (generation, batch) in seen {
                let reference = references
                    .get(&generation)
                    .expect("bracketed generation must have been published by the writer");
                prop_assert_eq!(
                    reference,
                    &batch,
                    "concurrent batch diverged at generation {}",
                    generation
                );
            }
        }
        Ok(())
    })?;

    // Quiesced double-check: a second pass exercises the (now warm) cache;
    // results must still be bit-identical to the shadow.
    let expect = shadow.query_many(&queries);
    let got = handle.query_many(&queries);
    for (i, (e, g)) in expect.iter().zip(&got).enumerate() {
        assert_bit_identical(&format!("quiesced query {i}"), e, g, false)?;
    }
    Ok(())
}

proptest! {
    #[test]
    fn sharded_serving_equals_unsharded_stlocal(
        plan in arb_plan(),
        cache in proptest::bool::ANY,
    ) {
        check_serving_equivalence(&plan, if cache { 64 } else { 0 }, 8)?;
    }

    #[test]
    fn equivalence_holds_for_every_shard_count(
        plan in arb_plan(),
        shard_choice in 0usize..4,
    ) {
        let n_shards = [1usize, 2, 3, 8][shard_choice];
        check_serving_equivalence(&plan, 64, n_shards)?;
    }
}
