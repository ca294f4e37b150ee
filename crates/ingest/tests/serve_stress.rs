//! Snapshot-consistency stress test for the lock-free serving tier.
//!
//! Eight reader threads hammer a [`SearchHandle`] while the writer commits
//! ticks as fast as it can. The test pins down the three properties the
//! epoch-swap design promises:
//!
//! 1. **No torn generations.** Every query bracketed by two identical
//!    `generation()` reads must return results bit-identical to a
//!    single-threaded reference engine holding exactly that generation's
//!    state — never a mix of two generations.
//! 2. **Monotonicity.** The generation a reader observes never decreases.
//! 3. **Counter reconciliation.** At quiesce, the handle's
//!    `EngineMetrics` cache counters equal the per-thread tallies of
//!    `QueryStats::cache_hit`: no concurrent query is lost or
//!    double-counted.
//!
//! The whole run executes with a [`PipelineObs`] attached, so the
//! registry's `search_query_ns` histogram and query counters must also
//! reconcile exactly with the per-thread tallies at quiesce — the
//! lock-free recording path loses nothing under 8-way contention either.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use stb_core::STLocalConfig;
use stb_corpus::TermId;
use stb_geo::{GeoPoint, Rect};
use stb_ingest::{IngestConfig, IngestPipeline, MinerKind, PipelineObs, PipelineObsConfig, Query};
use stb_search::{BurstySearchEngine, EngineConfig, SearchResult};

const N_READERS: usize = 8;
const N_TICKS: usize = 60;
const TERMS: [&str; 4] = ["flood", "quake", "storm", "calm"];

/// Query-set results packed for bit-exact comparison.
type Packed = Vec<Vec<(u32, u64)>>;

/// A reader's recording of one bracketed query: (generation, query index,
/// packed results).
type Bracketed = (u64, usize, Vec<(u32, u64)>);

fn pack(results: &[SearchResult]) -> Vec<(u32, u64)> {
    results
        .iter()
        .map(|r| (r.doc.0, r.score.to_bits()))
        .collect()
}

/// Non-vacuous queries only: every execution performs exactly one cache
/// lookup, so hits + misses must reconcile with the number of calls.
fn query_set() -> Vec<Query> {
    let t: Vec<TermId> = (0..TERMS.len() as u32).map(TermId).collect();
    vec![
        Query::terms([t[0]]).top_k(5),
        Query::terms([t[1], t[2]]).top_k(4),
        Query::terms(t.iter().copied()).top_k(8),
        Query::terms([t[3]]).top_k(3),
        Query::terms([t[0], t[2]]).top_k(6).time_window(5..=40),
        Query::terms([t[1]])
            .top_k(6)
            .region(Rect::new(-0.5, -0.5, 1.5, 1.5)),
    ]
}

#[test]
fn readers_never_observe_torn_generations_and_counters_reconcile() {
    let engine_config = EngineConfig::default();
    let mut pipeline = IngestPipeline::new(IngestConfig {
        timeline_capacity: N_TICKS,
        miner: MinerKind::STLocal(STLocalConfig::default()),
        engine: engine_config,
        cache_capacity: 64,
        n_shards: 8,
        ..IngestConfig::default()
    });

    // The reference engine mirrors the pipeline's write side exactly,
    // starting from the same empty pre-stream snapshot generation 1 serves.
    let mut reference = BurstySearchEngine::new(pipeline.collection(), engine_config);
    reference.set_cache_capacity(0);
    reference.finalize_with_threads(1);

    // Full observability attached for the whole run: the stress doubles as
    // the no-lost-observations proof for the registry's recording path.
    let obs = PipelineObs::new(&PipelineObsConfig::default());
    pipeline.attach_obs(&obs);

    let streams = [
        pipeline.add_stream("A", GeoPoint::new(0.0, 0.0)),
        pipeline.add_stream("B", GeoPoint::new(1.0, 1.0)),
        pipeline.add_stream("C", GeoPoint::new(50.0, 50.0)),
    ];
    let terms: Vec<TermId> = TERMS.iter().map(|t| pipeline.intern(t)).collect();

    let queries = query_set();
    let handle = pipeline.search_handle();

    // Per-generation reference results, filled by the writer; readers only
    // read it after the writer is done (they record, then the main thread
    // verifies).
    let references: Mutex<HashMap<u64, Packed>> = Mutex::new(HashMap::new());
    references.lock().unwrap().insert(
        handle.generation(),
        queries
            .iter()
            .map(|q| pack(&reference.query(q).expect("reference query").results))
            .collect(),
    );

    let done = AtomicBool::new(false);
    let (recordings, tallies) = std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for reader_id in 0..N_READERS {
            let h = handle.clone();
            let q = &queries;
            let done_ref = &done;
            readers.push(scope.spawn(move || {
                // (generation, query index, packed results) for every
                // bracketed query; (hits, misses) tallied from QueryStats.
                let mut seen: Vec<Bracketed> = Vec::new();
                let mut hits = 0u64;
                let mut misses = 0u64;
                let mut last_generation = 0u64;
                let mut i = reader_id; // desynchronize the threads
                loop {
                    let finished = done_ref.load(Ordering::SeqCst);
                    let idx = i % q.len();
                    let g1 = h.generation();
                    let response = h.query(&q[idx]).expect("stress queries are valid");
                    let g2 = h.generation();
                    assert!(g1 >= last_generation, "generation went backwards");
                    assert!(g2 >= g1, "generation went backwards mid-query");
                    last_generation = g2;
                    if response.stats.cache_hit {
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                    if g1 == g2 {
                        seen.push((g1, idx, pack(&response.results)));
                    }
                    i += 1;
                    if finished {
                        return (seen, hits, misses);
                    }
                }
            }));
        }

        // Writer: commit ticks with rotating dirty sets (bursts move across
        // terms) so cache invalidation and shard rebuilds churn constantly.
        for tick in 0..N_TICKS {
            let hot = terms[tick % terms.len()];
            let quiet = terms[(tick + 1) % terms.len()];
            for (i, &s) in streams.iter().enumerate() {
                let f = if i < 2 { 25 } else { 1 };
                pipeline.stage_document(s, HashMap::from([(hot, f), (quiet, 1)]));
            }
            let receipt = pipeline.commit_tick();
            reference.update_collection(pipeline.collection(), &receipt.new_docs);
            for delta in &receipt.deltas {
                reference.set_patterns(delta.term, &delta.patterns);
            }
            references.lock().unwrap().insert(
                handle.generation(),
                queries
                    .iter()
                    .map(|q| pack(&reference.query(q).expect("reference query").results))
                    .collect(),
            );
            std::thread::yield_now();
        }
        done.store(true, Ordering::SeqCst);

        let mut recordings = Vec::new();
        let mut tallies = (0u64, 0u64, 0u64);
        for reader in readers {
            let (seen, hits, misses) = reader.join().expect("reader thread");
            tallies.0 += hits;
            tallies.1 += misses;
            tallies.2 += seen.len() as u64;
            recordings.extend(seen);
        }
        (recordings, tallies)
    });

    // Every commit published exactly one generation (plus the initial one).
    assert_eq!(handle.generation(), N_TICKS as u64 + 1);

    // 1. No torn generations: every bracketed query matches the reference
    //    for exactly the generation it observed.
    let references = references.lock().unwrap();
    assert!(!recordings.is_empty(), "readers must have run");
    for (generation, idx, packed) in &recordings {
        let expect = references
            .get(generation)
            .unwrap_or_else(|| panic!("generation {generation} was never published"));
        assert_eq!(
            &expect[*idx], packed,
            "torn read: query {idx} at generation {generation} \
             diverged from the single-threaded reference"
        );
    }

    // 3. Counter reconciliation at quiesce: the handle's cache counters
    //    equal the per-thread QueryStats tallies exactly — nothing lost to
    //    the concurrent recording, nothing double-counted.
    let (hits, misses, bracketed) = tallies;
    let metrics = handle.metrics();
    assert_eq!(metrics.cache_hits, hits, "cache_hits must reconcile");
    assert_eq!(metrics.cache_misses, misses, "cache_misses must reconcile");
    assert_eq!(
        metrics.cache_hits + metrics.cache_misses,
        hits + misses,
        "every query performed exactly one cache lookup"
    );
    assert!(
        bracketed > 0,
        "at least some queries must be generation-bracketed"
    );

    // The registry reconciles too: its histogram saw every query exactly
    // once, and its adopted counter cells are the very cells the handle's
    // metrics read, so hits/misses agree with the QueryStats tallies.
    let snap = obs.snapshot();
    let recorded = snap
        .histogram("search_query_ns")
        .map(|h| h.count())
        .unwrap_or(0);
    assert_eq!(
        recorded,
        hits + misses,
        "search_query_ns must record every concurrent query exactly once"
    );
    assert_eq!(
        snap.counter("search_queries_total"),
        Some(hits + misses),
        "search_queries_total must reconcile"
    );
    assert_eq!(
        snap.counter("search_cache_hits"),
        Some(hits),
        "registry cache_hits must reconcile"
    );
    assert_eq!(
        snap.counter("search_cache_misses"),
        Some(misses),
        "registry cache_misses must reconcile"
    );
    assert_eq!(
        snap.counter("ingest_commits_total"),
        Some(N_TICKS as u64),
        "every commit recorded"
    );

    // Quiesced: the final generation still answers bit-identically.
    for (i, q) in queries.iter().enumerate() {
        let got = pack(&handle.query(q).expect("final query").results);
        let expect = &references[&handle.generation()][i];
        assert_eq!(expect, &got, "quiesced query {i} diverged");
    }
}
