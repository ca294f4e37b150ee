//! Public-API surface snapshot: exercises every documented entry point of
//! the facade so that a future signature change fails *this* test (and CI)
//! instead of silently breaking downstream callers. Keep additions here in
//! lockstep with README/ARCHITECTURE — a deliberate API break should edit
//! this file in the same commit.
//!
//! The test is mostly compile-pass: the assertions are deliberately light,
//! the point is that the names, signatures, field sets, and trait bounds
//! below keep existing.

use std::collections::HashMap;
use std::sync::Arc;

use stburst::core::{
    CombinatorialPattern, Pattern, PatternGeometry, PatternSource, RegionalPattern, STComb,
    STCombConfig, STLocal, STLocalConfig, TB,
};
use stburst::corpus::{Collection, CollectionBuilder, DocId, StreamId, TermId, Tokenizer};
use stburst::geo::{GeoPoint, Mbr, Point2D, Rect};
use stburst::ingest::{
    replay_tsv, replay_tsv_durable, Backpressure, Durability, DurabilityState, HealthReport,
    IngestConfig, IngestError, IngestPipeline, MinerKind, PatternDelta, PipelineMetrics,
    QuarantineReason, QuarantinedDoc, RecoveryReport, RetryPolicy, SearchHandle, StageOutcome,
    StoreError, TickReceipt,
};
use stburst::search::{
    shard_of, threshold_topk, threshold_topk_with_stats, BurstinessAgg, BurstySearchEngine,
    DocExplanation, EngineConfig, EngineMetrics, InvertedIndex, NoPatternPolicy, PatternMatch,
    Posting, Query, QueryCache, QueryError, QueryKey, QueryResponse, QueryStats, Relevance,
    SearchResult, ServingFront, ShardedEngine, TermExplanation, TopkStats, UnknownWords,
    DEFAULT_CACHE_CAPACITY, DEFAULT_SHARDS, DEFAULT_TOP_K,
};
use stburst::timeseries::TimeInterval;

fn tiny_collection() -> (Collection, TermId, StreamId) {
    let mut b = CollectionBuilder::new(4);
    let term = b.dict_mut().intern("storm");
    let stream = b.add_stream("Athens", GeoPoint::new(38.0, 23.7));
    for ts in 0..4 {
        b.add_document(
            stream,
            ts,
            HashMap::from([(term, if ts == 2 { 9 } else { 1 })]),
        );
    }
    (b.build(), term, stream)
}

/// The typed query DSL: every builder method, the response shape, and the
/// structured error set.
#[test]
fn query_dsl_surface() {
    let (collection, term, stream) = tiny_collection();
    let mut engine = BurstySearchEngine::new(&collection, EngineConfig::default());
    let pattern = CombinatorialPattern::new(vec![stream], TimeInterval::new(1, 3), 2.0, vec![]);
    engine.set_patterns(term, &[pattern]);
    engine.finalize();

    // Every documented builder method, chained.
    let query: Query = Query::terms([term])
        .time_window(0..=3)
        .region(Rect::new(20.0, 30.0, 30.0, 45.0))
        .top_k(5)
        .relevance(Relevance::LogFreq)
        .unknown_words(UnknownWords::Error)
        .explain(true);
    assert!(query.is_filtered());

    let response: QueryResponse = engine.query(&query).unwrap();
    let _results: &Vec<SearchResult> = &response.results;
    let stats: QueryStats = response.stats;
    let _: (bool, bool, usize, usize, usize, bool) = (
        stats.cache_hit,
        stats.served_from_prebuilt,
        stats.postings_scanned,
        stats.candidates_pruned,
        stats.terms,
        stats.filtered,
    );
    for explanation in &response.explanations {
        let _: &DocExplanation = explanation;
        let _: (DocId, f64) = (explanation.doc, explanation.total);
        for te in &explanation.terms {
            let _: &TermExplanation = te;
            let _: (TermId, f64, Option<f64>, f64) =
                (te.term, te.relevance, te.burstiness, te.contribution);
            for pm in &te.patterns {
                let _: &PatternMatch = pm;
                let _: (TimeInterval, Option<Rect>, f64) = (pm.interval, pm.region, pm.score);
            }
        }
    }

    // Text queries and the batch entry point.
    let _ = engine.query(&Query::text("storm").top_k(DEFAULT_TOP_K));
    let batch: Vec<Result<QueryResponse, QueryError>> =
        engine.query_many(&[Query::terms([term]), Query::text("storm")]);
    assert_eq!(batch.len(), 2);

    // The structured error set is matchable (non-exhaustively).
    let err = engine.query(&Query::terms([] as [TermId; 0])).unwrap_err();
    match err {
        QueryError::EmptyQuery
        | QueryError::ZeroTopK
        | QueryError::UnknownWord { .. }
        | QueryError::EmptyTimeWindow { .. }
        | QueryError::InvalidRegion { .. } => {}
        _ => {} // #[non_exhaustive]
    }
    let _: String = err.to_string();
}

/// Engine lifecycle: construction, pattern registration, finalize, cache,
/// live updates, and the consolidated metrics surface.
#[test]
fn engine_surface() {
    let (collection, term, stream) = tiny_collection();
    let config: EngineConfig = EngineConfig::builder()
        .relevance(Relevance::TfIdf)
        .aggregation(BurstinessAgg::Max)
        .no_pattern(NoPatternPolicy::Zero)
        .build();
    let shared: Arc<Collection> = Arc::new(collection);
    let mut engine = BurstySearchEngine::new(Arc::clone(&shared), config);
    let _: &EngineConfig = engine.config();
    let _: &Arc<Collection> = engine.collection();

    // All three registration paths: typed slice, trait-object-free generic,
    // and a whole `PatternSource`.
    let comb = CombinatorialPattern::new(vec![stream], TimeInterval::new(0, 3), 1.0, vec![]);
    let regional = RegionalPattern::new(
        Rect::new(20.0, 35.0, 30.0, 40.0),
        vec![stream],
        TimeInterval::new(0, 3),
        1.0,
    );
    engine.set_patterns(term, std::slice::from_ref(&comb));
    engine.set_patterns(term, &[regional]);
    let source: Vec<(TermId, Vec<CombinatorialPattern>)> = vec![(term, vec![comb])];
    engine.set_patterns_from(&source);

    engine.set_cache_capacity(DEFAULT_CACHE_CAPACITY);
    engine.finalize_with_threads(2);
    assert!(engine.is_finalized());
    let _: Option<&InvertedIndex> = engine.prebuilt_index();
    let _: usize = engine.doc_freq(term);
    let _: Option<f64> = engine.document_burstiness(term, DocId(0));
    engine.refresh_term(term);
    engine.update_collection(Arc::clone(&shared), &[]);

    let metrics: EngineMetrics = engine.metrics();
    let _: (u64, u64, usize, usize) = (
        metrics.cache_hits,
        metrics.cache_misses,
        metrics.cache_len,
        metrics.cache_capacity,
    );
    let _: (bool, usize, usize) = (
        metrics.finalized,
        metrics.indexed_terms,
        metrics.indexed_postings,
    );
    let _: (u64, Option<f64>, u64, usize) = (
        metrics.finalize_count,
        metrics.last_finalize_ms,
        metrics.term_rescore_count,
        metrics.n_docs,
    );
}

/// Index + threshold layer: the retrieval primitives under the engine.
#[test]
fn retrieval_surface() {
    let mut idx = InvertedIndex::new();
    idx.insert(TermId(0), DocId(0), 1.5);
    idx.set_postings(
        TermId(1),
        vec![Posting {
            doc: DocId(0),
            score: 2.0,
        }],
    );
    idx.finalize();
    let _: &[Posting] = idx.postings(TermId(0));
    let _: Option<f64> = idx.score(TermId(0), DocId(0));
    let (_, n) = (idx.n_terms(), idx.n_postings());
    assert!(n >= 1);

    let query = [TermId(0), TermId(1)];
    let _: Vec<SearchResult> = threshold_topk(&idx, &query, 2, NoPatternPolicy::Zero);
    let (_, stats): (Vec<SearchResult>, TopkStats) =
        threshold_topk_with_stats(&idx, &query, 2, NoPatternPolicy::Zero);
    let _: (usize, usize) = (stats.postings_scanned, stats.candidates_pruned);

    // The cache key canonicalization is public (used by cache-aware tests).
    let _: QueryKey = QueryKey::new(&query, 2, EngineConfig::default());
    let _: QueryKey = QueryKey::canonical(
        &query,
        2,
        EngineConfig::default(),
        Some(TimeInterval::new(0, 3)),
        Some(Rect::new(0.0, 0.0, 1.0, 1.0)),
    );
}

/// Pattern traits: overlap, geometry, and source plumbing shared by miners
/// and the engine.
#[test]
fn pattern_surface() {
    let comb = CombinatorialPattern::new(
        vec![StreamId(0), StreamId(1)],
        TimeInterval::new(2, 5),
        1.0,
        vec![],
    );
    let regional = RegionalPattern::new(
        Rect::new(0.0, 0.0, 1.0, 1.0),
        vec![StreamId(0)],
        TimeInterval::new(2, 5),
        1.0,
    );
    // Pattern: overlap semantics.
    assert!(comb.overlaps(StreamId(0), 2));
    let _: (&[StreamId], TimeInterval, f64) = (comb.streams(), comb.timeframe(), comb.score());
    // PatternGeometry: unified interval/region accessors.
    let positions = vec![Point2D::new(0.0, 0.0), Point2D::new(1.0, 1.0)];
    let _: TimeInterval = comb.interval();
    let _: Option<Rect> = comb.region(&positions);
    assert_eq!(regional.region(&[]), Some(regional.rect));
    // PatternSource: both canonical shapes.
    let as_vec: Vec<(TermId, Vec<CombinatorialPattern>)> = vec![(TermId(0), vec![comb.clone()])];
    let as_map: HashMap<TermId, Vec<CombinatorialPattern>> = as_vec.iter().cloned().collect();
    assert_eq!(as_vec.terms(), as_map.terms());
    let _: &[CombinatorialPattern] = as_vec.term_patterns(TermId(0));
    // Mbr: the geometry used for combinatorial regions.
    let _: Option<Rect> = Mbr::from_points(positions).rect();
}

/// Miners still construct and mine through their documented entry points.
#[test]
fn miner_surface() {
    let (collection, term, _) = tiny_collection();
    let _: Vec<CombinatorialPattern> = STComb::new().mine_collection(&collection, term);
    let _: Vec<CombinatorialPattern> =
        STComb::with_config(STCombConfig::default()).mine_collection(&collection, term);
    let (_, _stats) = STLocal::mine_collection(&collection, term, STLocalConfig::default());
    let _: Vec<CombinatorialPattern> = TB::new().mine_collection(&collection, term);
}

/// Live serving: pipeline construction, staging, commits, and the typed
/// query DSL through a `SearchHandle`.
#[test]
fn ingest_surface() {
    let mut pipeline = IngestPipeline::new(IngestConfig {
        timeline_capacity: 4,
        miner: MinerKind::STLocal(STLocalConfig::default()),
        engine: EngineConfig::default(),
        cache_capacity: 16,
        n_shards: DEFAULT_SHARDS,
        durability: Durability::Buffered,
        checkpoint_every_ticks: 0,
        retry: RetryPolicy::default(),
        max_buffered_ticks: 64,
        max_staged_docs: 0,
        backpressure: Backpressure::Block,
        max_terms_per_doc: 0,
        max_quarantined_docs: 1024,
    });
    let stream = pipeline.add_stream("Athens", GeoPoint::new(38.0, 23.7));
    let term = pipeline.intern("storm");
    let tokenizer = Tokenizer::new();
    pipeline.stage_document(stream, HashMap::from([(term, 5)]));
    pipeline.stage_text_document(stream, "storm warning", &tokenizer);
    let receipt: TickReceipt = pipeline.commit_tick();
    for delta in &receipt.deltas {
        let _: (TermId, usize) = (delta.term(), delta.n_patterns());
        match delta {
            PatternDelta::Regional { .. } | PatternDelta::Combinatorial { .. } => {}
        }
    }
    let _: DurabilityState = receipt.durability;
    let metrics: PipelineMetrics = pipeline.metrics();
    let _: (usize, u64) = (metrics.ticks_committed, metrics.docs_ingested);

    // Overload protection and poison-document quarantine.
    let _: Result<StageOutcome, IngestError> =
        pipeline.try_stage_document(stream, HashMap::from([(term, 1)]));
    match pipeline.try_stage_document(StreamId(999), HashMap::from([(term, 1)])) {
        Ok(StageOutcome::Quarantined(QuarantineReason::UnknownStream)) => {}
        other => panic!("expected quarantine, got {other:?}"),
    }
    let quarantined: Vec<&QuarantinedDoc> = pipeline.quarantine_log().collect();
    assert_eq!(quarantined.len(), 1);
    let health: HealthReport = pipeline.health();
    let _: (DurabilityState, usize, u64) = (
        health.durability,
        health.staged_docs,
        health.quarantined_total,
    );

    let handle: SearchHandle = pipeline.search_handle();
    let _: HealthReport = handle.health();
    let _: Result<QueryResponse, QueryError> =
        handle.query(&Query::terms([term]).time_window(0..=3));
    let _: Vec<Result<QueryResponse, QueryError>> = handle.query_many(&[Query::terms([term])]);
    let _: u64 = handle.generation();
    let _: Arc<Collection> = handle.collection();
    let _: EngineMetrics = handle.metrics();

    // TSV replay still accepts a reader + config.
    let data = "C\t2\nS\t0\tAthens\t38.0\t23.7\t23.7\t38.0\nD\t0\t1\tstorm:3\n";
    let replayed = replay_tsv(std::io::Cursor::new(data), IngestConfig::default()).unwrap();
    assert_eq!(replayed.ticks_committed(), 2);
}

/// The sharded serving tier: shard routing, the read front, the
/// write-side sharded engine, and the thread-safety bounds the whole design
/// rests on.
#[test]
fn serving_tier_surface() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ServingFront>();
    assert_send_sync::<ShardedEngine>();
    assert_send_sync::<SearchHandle>();
    assert_send_sync::<QueryCache>();

    // Term-hash shard routing is public and total over shard counts.
    assert!(shard_of(TermId(42), DEFAULT_SHARDS) < DEFAULT_SHARDS);
    assert_eq!(shard_of(TermId(42), 1), 0);

    // ShardedEngine: the write side mirrors BurstySearchEngine's mutation
    // surface and publishes generations; the front is the shared read side.
    let (collection, term, stream) = tiny_collection();
    let mut engine = ShardedEngine::new(collection, EngineConfig::default(), DEFAULT_SHARDS, 16);
    let pattern = CombinatorialPattern::new(vec![stream], TimeInterval::new(1, 3), 2.0, vec![]);
    engine.set_patterns(term, std::slice::from_ref(&pattern));
    let source: Vec<(TermId, Vec<CombinatorialPattern>)> = vec![(term, vec![pattern])];
    engine.set_patterns_from(&source);
    engine.refresh_term(term);
    engine.finalize_with_threads(1);
    engine.publish();
    assert_eq!(engine.n_shards(), DEFAULT_SHARDS);
    let _: u64 = engine.generation();
    let _: &BurstySearchEngine = engine.engine();
    let _: EngineMetrics = engine.metrics();

    let front: Arc<ServingFront> = engine.front();
    let _: Result<QueryResponse, QueryError> = front.query(&Query::terms([term]));
    let _: Vec<Result<QueryResponse, QueryError>> = front.query_many(&[Query::terms([term])]);
    let _: (u64, usize) = (front.generation(), front.n_shards());
    let _: Arc<Collection> = front.collection();
    let _: EngineConfig = front.config();
    let _: EngineMetrics = front.metrics();
    let _: Option<f64> = front.document_burstiness(term, DocId(0));

    // Generation-tagged cache entries: the read path's consistency gate.
    let cache = QueryCache::new(4);
    let key = QueryKey::new(&[term], 2, EngineConfig::default());
    cache.put_tagged(key.clone(), Vec::new(), 3, || true);
    assert!(cache.get_at(&key, 2).is_none()); // newer than the reader
    assert!(cache.get_at(&key, 3).is_some());
    let _: (u64, u64) = (cache.hits(), cache.misses());
}

/// Standing subscriptions: registration options, the handle's consumption
/// surface, the diff vocabulary, registry introspection, and the
/// thread-safety bounds that let handles cross threads.
#[test]
fn subscribe_surface() {
    use stburst::subscribe::{
        NotifyReport, OverflowPolicy, Reranked, ResultDiff, SubscribeMetrics, SubscriptionHandle,
        SubscriptionId, SubscriptionInfo, SubscriptionOptions, SubscriptionRegistry, Trigger,
    };

    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SubscriptionRegistry>();
    assert_send_sync::<SubscriptionHandle>();
    assert_send_sync::<ResultDiff>();
    assert_send_sync::<SubscriptionOptions>();

    // Options: the literal field set and every builder method.
    let options = SubscriptionOptions {
        capacity: 8,
        overflow: OverflowPolicy::Block,
        notify_initial: false,
        notify_unchanged: false,
    };
    let options = options
        .capacity(16)
        .overflow(OverflowPolicy::CoalesceLatest)
        .notify_initial(true)
        .notify_unchanged(false);
    match options.overflow {
        OverflowPolicy::Block | OverflowPolicy::CoalesceLatest | OverflowPolicy::DropCounted => {}
    }

    let mut pipeline = IngestPipeline::new(IngestConfig {
        timeline_capacity: 8,
        ..IngestConfig::default()
    });
    let stream = pipeline.add_stream("Athens", GeoPoint::new(38.0, 23.7));
    let term = pipeline.intern("storm");

    // Registration through both entry points: the cloneable handle and the
    // pipeline itself. Both delegate to the same registry.
    let search: SearchHandle = pipeline.search_handle();
    let sub: SubscriptionHandle = search
        .subscribe(&Query::terms([term]).top_k(3), options)
        .unwrap();
    let _: SubscriptionHandle = pipeline
        .subscribe(
            &Query::terms([term]).top_k(3),
            SubscriptionOptions::default(),
        )
        .unwrap();
    let registry: &Arc<SubscriptionRegistry> = search.subscriptions();
    assert_eq!(registry.len(), 2);
    assert!(!registry.is_empty());

    // Handle surface: identity, consumption, channel counters, lifecycle.
    let _: SubscriptionId = sub.id();
    let _: &QueryKey = sub.key();
    let clone: SubscriptionHandle = sub.clone();
    let _: Option<ResultDiff> = clone.try_recv();
    let _: Option<ResultDiff> = sub.recv_timeout(std::time::Duration::ZERO);
    let _: usize = sub.pending();
    let _: (u64, u64, u64) = (sub.delivered(), sub.dropped(), sub.coalesced());
    assert!(!sub.is_closed());

    // A committed burst flows through as a `ResultDiff`.
    for tick in 0..8u32 {
        pipeline.stage_document(
            stream,
            HashMap::from([(term, if (3..6).contains(&tick) { 25 } else { 1 })]),
        );
        pipeline.commit_tick();
    }
    let diffs: Vec<ResultDiff> = sub.drain();
    assert!(!diffs.is_empty());
    for diff in &diffs {
        let _: (SubscriptionId, Option<u64>, u64, u64) = (
            diff.subscription,
            diff.tick,
            diff.generation,
            diff.coalesced,
        );
        let _: (&Vec<SearchResult>, &Vec<SearchResult>) = (&diff.previous, &diff.current);
        let _: (&Vec<SearchResult>, &Vec<SearchResult>) = (&diff.entered, &diff.left);
        for r in &diff.reranked {
            let _: &Reranked = r;
            let _: (DocId, usize, usize, f64, f64) =
                (r.doc, r.previous_rank, r.rank, r.previous_score, r.score);
        }
        for trigger in &diff.triggers {
            let _: &Trigger = trigger;
            let _: TermId = trigger.term;
            assert!(!trigger.patterns.is_empty());
        }
        let _: bool = diff.is_unchanged();
    }

    // Registry introspection: per-subscription info and global counters.
    for info in registry.subscriptions() {
        let _: SubscriptionInfo = info.clone();
        let _: String = info.key.describe();
        let _: (usize, u64, u64, u64) =
            (info.pending, info.delivered, info.dropped, info.coalesced);
    }
    let metrics: SubscribeMetrics = registry.metrics();
    assert!(metrics.active >= 1);
    assert!(metrics.notifications >= 1);
    let _: (u64, u64, u64, u64) = (
        metrics.registered_total,
        metrics.evaluations,
        metrics.eval_errors,
        metrics.dropped,
    );
    let _: NotifyReport = NotifyReport::default();

    // The pipeline health report carries the subscription counters.
    let health = pipeline.health();
    let _: (usize, u64, u64) = (
        health.subscriptions,
        health.notifications,
        health.notifications_dropped,
    );

    // Unsubscribing through the registry detaches the standing query.
    assert!(registry.unsubscribe(sub.id()));
    drop(sub);
}

/// Observability: the metrics registry, histogram, tracing, and slow-query
/// vocabulary, plus the pipeline/engine attachment points and the
/// thread-safety bounds the lock-free recording path rests on.
#[test]
fn obs_surface() {
    use stburst::ingest::{PipelineObs, PipelineObsConfig};
    use stburst::obs::{
        Counter, Gauge, HistogramSnapshot, LatencyHistogram, ObsRegistry, ObsSnapshot, Sampler,
        SlowQueryLog, SlowQueryRecord, SpanClock, SpanKind, SpanRecord, TraceId, TraceKind,
        TraceRecord, TraceRing,
    };
    use stburst::search::{SearchObs, SearchObsConfig};
    use stburst::store::WalObs;

    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ObsRegistry>();
    assert_send_sync::<Counter>();
    assert_send_sync::<Gauge>();
    assert_send_sync::<LatencyHistogram>();
    assert_send_sync::<TraceRing>();
    assert_send_sync::<SlowQueryLog>();
    assert_send_sync::<Sampler>();
    assert_send_sync::<SearchObs>();
    assert_send_sync::<PipelineObs>();

    // Registry: get-or-create handles, cell adoption, snapshot, exposition.
    let registry = Arc::new(ObsRegistry::new());
    let counter: Arc<Counter> = registry.counter("api_total");
    counter.inc();
    counter.add(2);
    assert_eq!(counter.get(), 3);
    registry.adopt_counter("api_adopted", Arc::clone(&counter));
    let gauge: Arc<Gauge> = registry.gauge("api_gauge");
    gauge.set(1.5);
    assert_eq!(gauge.get(), 1.5);
    let hist: Arc<LatencyHistogram> = registry.histogram("api_ns");
    hist.record(1_000);
    hist.record_duration(std::time::Duration::from_micros(5));
    assert_eq!(hist.count(), 2);

    let snap: ObsSnapshot = registry.snapshot();
    assert_eq!(snap.counter("api_total"), Some(3));
    assert_eq!(snap.gauge("api_gauge"), Some(1.5));
    let h: &HistogramSnapshot = snap.histogram("api_ns").unwrap();
    let _: (u64, u64, u64, u64, f64) = (h.count(), h.sum(), h.min(), h.max(), h.mean());
    let _: (u64, u64, u64, u64) = (h.p50(), h.p90(), h.p99(), h.p999());
    let _: u64 = h.quantile(0.75);
    let mut merged = HistogramSnapshot::empty();
    merged.merge(h);
    assert_eq!(merged.count(), h.count());
    let _: String = registry.render_prometheus();
    let _: String = snap.render_json();

    // Tracing: span clocks, ring buffer, sampling.
    let mut clock = SpanClock::start();
    clock.lap(SpanKind::Plan);
    let _: u64 = clock.total_ns();
    let (total_ns, spans): (u64, Vec<SpanRecord>) = clock.finish();
    let ring = TraceRing::new(4);
    ring.push(TraceRecord {
        id: TraceId(0),
        kind: TraceKind::Query,
        total_ns,
        spans,
    });
    let records: Vec<TraceRecord> = ring.snapshot();
    assert_eq!(records.len(), 1);
    let _: &'static str = SpanKind::TaScan.as_str();
    match records[0].kind {
        TraceKind::Query | TraceKind::Commit => {}
    }
    assert!(Sampler::every(1).hit());

    // Slow-query log: threshold, capture, drain.
    let slow = SlowQueryLog::new(std::time::Duration::ZERO, 4);
    assert!(slow.is_slow(1));
    slow.push(SlowQueryRecord {
        key: "terms=[0] k=1".into(),
        total_ns: 1,
        spans: Vec::new(),
        stats: vec![("cache_hit", 0)],
    });
    let _: Vec<SlowQueryRecord> = slow.snapshot();
    slow.set_threshold(std::time::Duration::from_millis(1));
    let _: u64 = slow.threshold_ns();

    // Attachment points: pipeline-level (shared registry) and the per-layer
    // obs bundles it hands out.
    let obs: Arc<PipelineObs> = PipelineObs::with_registry(
        Arc::clone(&registry),
        &PipelineObsConfig {
            search: SearchObsConfig::default(),
            commit_sample_every: 1,
            commit_trace_capacity: 8,
        },
    );
    let mut pipeline = IngestPipeline::new(IngestConfig::default());
    pipeline.attach_obs(&obs);
    assert!(pipeline.obs().is_some());
    let _: &Arc<ObsRegistry> = obs.registry();
    let _: &Arc<SearchObs> = obs.search();
    let _: &WalObs = obs.wal();
    let _: &Arc<LatencyHistogram> = obs.commit_latency();
    let _: Vec<TraceRecord> = obs.commit_traces();
    let _: ObsSnapshot = obs.snapshot();
    let _: &SlowQueryLog = obs.search().slow_log();
    let _: &Arc<LatencyHistogram> = obs.search().query_latency();
}

/// Durability: the store-backed pipeline constructor, checkpointing, the
/// recovery report, and the persistence layer's own public types.
#[test]
fn store_surface() {
    use stburst::store::{
        crc32, decode_wal, read_wal, Dec, DocRecord, Enc, FaultFile, FaultKind, FaultSchedule,
        FaultSite, InjectedFault, PendingState, RecordingSleeper, SnapshotState, Store,
        StreamRecord, TermRecord, TickRecord, WalReplay, WalWriter, SNAPSHOT_FILE, SNAPSHOT_MAGIC,
        SNAPSHOT_VERSION, WAL_FILE, WAL_HEADER_LEN, WAL_MAGIC, WAL_VERSION,
    };

    let dir = std::env::temp_dir().join(format!("stb-api-surface-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Durable pipeline lifecycle: open, commit (write-ahead logged),
    // checkpoint, recover.
    let config = IngestConfig {
        timeline_capacity: 2,
        durability: Durability::Buffered,
        checkpoint_every_ticks: 0,
        ..IngestConfig::default()
    };
    let (mut pipeline, report): (IngestPipeline, RecoveryReport) =
        IngestPipeline::durable(config.clone(), &dir).unwrap();
    let _: (bool, u64, usize, usize, u64) = (
        report.snapshot_loaded,
        report.snapshot_ticks,
        report.wal_ticks_replayed,
        report.wal_ticks_skipped,
        report.wal_bytes_discarded,
    );
    assert!(pipeline.is_durable());
    let _: Option<&std::path::Path> = pipeline.store_dir();
    let stream = pipeline.add_stream("Athens", GeoPoint::new(38.0, 23.7));
    let term = pipeline.intern("storm");
    pipeline.stage_document(stream, HashMap::from([(term, 5)]));
    pipeline.commit_tick();
    let _: DurabilityState = pipeline.durability_state();
    let _: DurabilityState = pipeline.try_recover_durability();
    let _: SnapshotState = pipeline.export_snapshot_state();
    let _: u64 = pipeline.checkpoint().unwrap();
    let metrics = pipeline.metrics();
    let _: (bool, u64, u64) = (metrics.durable, metrics.wal_appends, metrics.checkpoints);
    drop(pipeline);
    let (recovered, report) = IngestPipeline::durable(config.clone(), &dir).unwrap();
    assert!(report.snapshot_loaded);
    assert_eq!(recovered.ticks_committed(), 1);
    drop(recovered);

    // Durable TSV replay: recovers from the store instead of the file.
    let data = "C\t2\nS\t0\tAthens\t38.0\t23.7\t23.7\t38.0\nD\t0\t1\tstorm:3\n";
    let (_, report) = replay_tsv_durable(std::io::Cursor::new(data), config, &dir).unwrap();
    assert!(report.snapshot_loaded);

    // The persistence layer's own vocabulary stays public: store paths,
    // file formats, the WAL record types, and the fault-injection helpers.
    let store = Store::open(&dir).unwrap();
    assert!(store.snapshot_path().ends_with(SNAPSHOT_FILE));
    assert!(store.wal_path().ends_with(WAL_FILE));
    let _: Option<SnapshotState> = store.load_snapshot().unwrap();
    let replay: WalReplay = store.read_wal().unwrap();
    let _: (usize, u64, u64) = (replay.ticks.len(), replay.valid_len, replay.discarded_bytes);
    let _: WalReplay = read_wal(&store.wal_path()).unwrap();
    let _: ([u8; 8], u32, [u8; 8], u32, u64) = (
        WAL_MAGIC,
        WAL_VERSION,
        SNAPSHOT_MAGIC,
        SNAPSHOT_VERSION,
        WAL_HEADER_LEN,
    );
    let _: PendingState = PendingState::default();
    let record = TickRecord {
        tick: 0,
        new_streams: vec![StreamRecord {
            index: StreamId(0),
            name: "Athens".into(),
            geostamp: GeoPoint::new(38.0, 23.7),
            position: Point2D::new(23.7, 38.0),
        }],
        new_terms: vec![TermRecord {
            id: TermId(0),
            text: "storm".into(),
        }],
        docs: vec![DocRecord {
            stream: StreamId(0),
            counts: vec![(TermId(0), 3)],
        }],
    };
    let mut writer = WalWriter::from_sink(Vec::new(), true, Durability::Buffered).unwrap();
    writer.append(&record).unwrap();
    let sink: Vec<u8> = writer.into_sink();
    let _: Vec<TickRecord> = decode_wal(&sink).unwrap().ticks;

    // Codec + fault-injection helpers.
    let mut enc = Enc::new();
    enc.put_u32(7);
    let bytes = enc.into_bytes();
    let _: u32 = crc32(&bytes);
    let mut dec = Dec::new(&bytes, "api");
    assert_eq!(dec.get_u32().unwrap(), 7);
    let _: FaultFile = FaultFile::new(FaultKind::ShortWrite, 8);
    let torn = stburst::store::crash_artifact(&bytes, FaultKind::Torn, 2, 4);
    assert_eq!(torn.len(), bytes.len());

    // Retry policy: deterministic backoff schedule with injectable sleep.
    let policy = RetryPolicy::default();
    let _: Vec<std::time::Duration> = policy.delays().collect();
    let _: std::time::Duration = policy.max_total_backoff();
    let mut sleeper = RecordingSleeper::default();
    let (result, retries) = policy.run_with(&mut sleeper, || Ok::<_, StoreError>(1));
    assert_eq!((result.unwrap(), retries), (1, 0));
    let _: RetryPolicy = RetryPolicy::none();
    let _: RetryPolicy = RetryPolicy::immediate(2);

    // Live fault schedules: scripted and stochastic store-error injection.
    let faults = FaultSchedule::new();
    faults.fail_next(InjectedFault::transient());
    faults.fail_next_at(FaultSite::WalAppend, InjectedFault::torn(3));
    faults.succeed_next();
    faults.storm(7, 4, 250);
    assert!(faults.is_armed());
    faults.heal();
    assert!(!faults.is_armed());
    let _: (u64, u64) = (faults.ops(), faults.injected());
    let _: InjectedFault = InjectedFault::permanent();
    let faulted = Store::open_with_faults(&dir, faults.clone()).unwrap();
    assert!(faulted.faults().is_some());

    let _ = std::fs::remove_dir_all(&dir);
}
