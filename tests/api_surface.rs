//! Public-API surface snapshot: exercises the entry points that code outside
//! the workspace crates names (the examples, the paper binaries and benches,
//! `benchmark/`, the other integration tests), so that a future signature
//! change fails *this* test (and CI) instead of silently breaking those
//! callers. An item is public only because something outside its crate names
//! it; this file pins that surface and nothing the crates keep to
//! themselves. A deliberate API break should edit this file in the same
//! commit.
//!
//! The test is mostly compile-pass: the assertions are deliberately light,
//! the point is that the names, signatures, field sets, and trait bounds
//! below keep existing.

use std::collections::HashMap;
use std::sync::Arc;

use stburst::core::{
    CombinatorialPattern, Pattern, PatternRecord, RegionalPattern, STComb, STCombConfig, STLocal,
    STLocalConfig, TB,
};
use stburst::corpus::{Collection, CollectionBuilder, DocId, StreamId, TermId, Tokenizer};
use stburst::geo::{GeoPoint, Mbr, Point2D, Rect};
use stburst::ingest::{
    replay_tsv, replay_tsv_durable, Backpressure, Durability, DurabilityState, HealthReport,
    IngestConfig, IngestPipeline, MinerKind, PatternDelta, PipelineMetrics, RecoveryReport,
    RetryPolicy, SearchHandle, StoreError, TickReceipt,
};
use stburst::search::{
    threshold_topk, BurstySearchEngine, DocExplanation, EngineConfig, EngineMetrics, InvertedIndex,
    NoPatternPolicy, PatternMatch, Query, QueryError, QueryResponse, QueryStats, Relevance,
    SearchResult, ServingFront, ShardedEngine, TermExplanation, UnknownWords,
    DEFAULT_CACHE_CAPACITY, DEFAULT_SHARDS,
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

    let response: QueryResponse = engine.query(&query).unwrap();
    let _results: &Vec<SearchResult> = &response.results;
    let stats: QueryStats = response.stats;
    let _: (bool, bool, usize, usize, usize) = (
        stats.cache_hit,
        stats.served_from_prebuilt,
        stats.postings_scanned,
        stats.candidates_pruned,
        stats.terms,
    );
    for explanation in &response.explanations {
        let _: &DocExplanation = explanation;
        for te in &explanation.terms {
            let _: &TermExplanation = te;
            for pm in &te.patterns {
                let _: &PatternMatch = pm;
                let _: (TimeInterval, Option<Rect>) = (pm.interval, pm.region);
            }
        }
    }

    // Text queries and the batch entry point.
    let _ = engine.query(&Query::text("storm"));
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
        .relevance(Relevance::RawFreq)
        .no_pattern(NoPatternPolicy::Zero)
        .build();
    let shared: Arc<Collection> = Arc::new(collection);
    let mut engine = BurstySearchEngine::new(Arc::clone(&shared), config);
    let _: &EngineConfig = engine.config();

    // All three registration paths: typed slice, trait-object-free generic,
    // and a whole mining run's `(term, patterns)` list.
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
    let _: Option<&InvertedIndex> = engine.prebuilt_index();
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
    let _: u64 = metrics.term_rescore_count;
}

/// Index + threshold layer: the retrieval primitives under the engine.
#[test]
fn retrieval_surface() {
    let mut idx = InvertedIndex::new();
    idx.insert(TermId(0), DocId(0), 1.5);
    idx.insert(TermId(1), DocId(0), 2.0);
    idx.finalize();

    let query = [TermId(0), TermId(1)];
    let ta: Vec<SearchResult> = threshold_topk(&idx, &query, 2, NoPatternPolicy::Zero);
    let exhaustive: Vec<SearchResult> =
        stburst::search::threshold::exhaustive_topk(&idx, &query, 2, NoPatternPolicy::Zero);
    assert_eq!(ta.len(), 1);
    assert_eq!(ta, exhaustive);
}

/// The pattern trait and record: overlap, geometry, and the captured form
/// shared by miners and the engine.
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
    // Pattern::region: the footprint region-filtered queries intersect.
    let positions = vec![Point2D::new(0.0, 0.0), Point2D::new(1.0, 1.0)];
    let _: Option<Rect> = comb.region(&positions);
    assert_eq!(regional.region(&[]), Some(regional.rect));
    // PatternRecord: the captured form, with its public fields.
    let record: PatternRecord = PatternRecord::capture(&comb, &positions);
    let _: (&Vec<StreamId>, TimeInterval, Option<Rect>, f64) = (
        &record.streams,
        record.timeframe,
        record.region,
        record.score,
    );
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
    });
    let stream = pipeline.add_stream("Athens", GeoPoint::new(38.0, 23.7));
    let term = pipeline.intern("storm");
    let tokenizer = Tokenizer::new();
    pipeline.stage_document(stream, HashMap::from([(term, 5)]));
    pipeline.stage_text_document(stream, "storm warning", &tokenizer);
    let receipt: TickReceipt = pipeline.commit_tick();
    for delta in &receipt.deltas {
        let _: usize = delta.n_patterns();
        let PatternDelta { term, patterns } = delta;
        let _: (&TermId, &Arc<[PatternRecord]>) = (term, patterns);
    }
    let _: DurabilityState = receipt.durability;
    let _: PipelineMetrics = pipeline.metrics();

    // Poison documents are quarantined, not fatal.
    pipeline.stage_document(StreamId(999), HashMap::from([(term, 1)]));
    let health: HealthReport = pipeline.health();
    assert_eq!(health.quarantined_total, 1);

    let handle: SearchHandle = pipeline.search_handle();
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

/// The sharded serving tier: the read front, the write-side sharded engine,
/// and the thread-safety bounds the whole design rests on.
#[test]
fn serving_tier_surface() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ServingFront>();
    assert_send_sync::<ShardedEngine>();
    assert_send_sync::<SearchHandle>();

    // ShardedEngine: the write side mirrors BurstySearchEngine's mutation
    // surface and publishes generations; the front is the shared read side.
    let (collection, term, stream) = tiny_collection();
    let mut engine = ShardedEngine::new(collection, EngineConfig::default(), DEFAULT_SHARDS, 16);
    let pattern = CombinatorialPattern::new(vec![stream], TimeInterval::new(1, 3), 2.0, vec![]);
    engine.set_patterns(term, std::slice::from_ref(&pattern));
    let positions = engine.front().collection().positions();
    let records: Arc<[PatternRecord]> = Arc::from([PatternRecord::capture(&pattern, &positions)]);
    engine.set_pattern_records(term, records);
    let source: Vec<(TermId, Vec<CombinatorialPattern>)> = vec![(term, vec![pattern])];
    engine.set_patterns_from(&source);
    engine.finalize_with_threads(1);
    engine.publish();
    let _: &BurstySearchEngine = engine.engine();
    let _: EngineMetrics = engine.metrics();

    let front: Arc<ServingFront> = engine.front();
    let _: Result<QueryResponse, QueryError> = front.query(&Query::terms([term]));
    let _: Vec<Result<QueryResponse, QueryError>> = front.query_many(&[Query::terms([term])]);
    let _: u64 = front.generation();
    let _: Arc<Collection> = front.collection();
    let _: EngineMetrics = front.metrics();
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

    // Options: every builder method.
    let options = SubscriptionOptions::default()
        .capacity(16)
        .overflow(OverflowPolicy::CoalesceLatest);
    match OverflowPolicy::default() {
        OverflowPolicy::Block | OverflowPolicy::CoalesceLatest | OverflowPolicy::DropCounted => {}
    }

    let mut pipeline = IngestPipeline::new(IngestConfig {
        timeline_capacity: 8,
        ..IngestConfig::default()
    });
    let stream = pipeline.add_stream("Athens", GeoPoint::new(38.0, 23.7));
    let term = pipeline.intern("storm");

    // Registration through the cloneable handle, into the registry the
    // pipeline shares with every handle.
    let search: SearchHandle = pipeline.search_handle();
    let sub: SubscriptionHandle = search
        .subscribe(&Query::terms([term]).top_k(3), options)
        .unwrap();
    let registry: &Arc<SubscriptionRegistry> = search.subscriptions();
    assert!(Arc::ptr_eq(registry, pipeline.subscriptions()));
    assert!(!registry.is_empty());

    // Handle surface: identity, consumption, channel counters.
    let _: SubscriptionId = sub.id();
    let _: &stburst::search::QueryKey = sub.key();
    let clone: SubscriptionHandle = sub.clone();
    let _: (u64, u64) = (clone.dropped(), clone.coalesced());

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
        let _: (Option<u64>, u64, u64) = (diff.tick, diff.generation, diff.coalesced);
        let _: (&Vec<SearchResult>, &Vec<SearchResult>) = (&diff.previous, &diff.current);
        let _: (&Vec<SearchResult>, &Vec<SearchResult>) = (&diff.entered, &diff.left);
        let _: &Vec<Reranked> = &diff.reranked;
        for trigger in &diff.triggers {
            let _: &Trigger = trigger;
            assert!(!trigger.patterns.is_empty());
        }
    }

    // Registry introspection: per-subscription info and global counters.
    for info in registry.subscriptions() {
        let _: SubscriptionInfo = info.clone();
        let _: String = info.key.describe();
        let _: (usize, u64, u64) = (info.pending, info.delivered, info.coalesced);
    }
    let metrics: SubscribeMetrics = registry.metrics();
    assert!(metrics.active >= 1);
    assert!(metrics.notifications >= 1);
    let _: (u64, u64, u64) = (metrics.evaluations, metrics.eval_errors, metrics.dropped);
    let _: NotifyReport = NotifyReport::default();

    // Dropping every handle detaches the standing query.
    drop(sub);
    drop(clone);
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
    let hist: Arc<LatencyHistogram> = registry.histogram("api_ns");
    hist.record(1_000);
    hist.record_duration(std::time::Duration::from_micros(5));

    let snap: ObsSnapshot = registry.snapshot();
    assert_eq!(snap.counter("api_total"), Some(3));
    assert_eq!(snap.gauge("api_gauge"), Some(1.5));
    let h: &HistogramSnapshot = snap.histogram("api_ns").unwrap();
    assert_eq!(h.count(), 2);
    let _: (u64, u64) = (h.p50(), h.p99());
    let _: String = registry.render_prometheus();

    // Tracing: span clocks, ring buffer, sampling.
    let mut clock = SpanClock::start();
    clock.lap(SpanKind::Plan);
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

    // Attachment points: pipeline-level and the per-layer obs bundles it
    // hands out.
    let obs: Arc<PipelineObs> = PipelineObs::new(&PipelineObsConfig {
        search: SearchObsConfig::default(),
        commit_sample_every: 1,
        commit_trace_capacity: 8,
    });
    let mut pipeline = IngestPipeline::new(IngestConfig::default());
    pipeline.attach_obs(&obs);
    let _: &Arc<ObsRegistry> = obs.registry();
    let _: &Arc<SearchObs> = obs.search();
    let _: Vec<TraceRecord> = obs.commit_traces();
    let _: ObsSnapshot = obs.snapshot();
    let _: &SlowQueryLog = obs.search().slow_log();
}

/// Durability: the store-backed pipeline constructor, checkpointing, the
/// recovery report, and the persistence layer's own public types.
#[test]
fn store_surface() {
    use stburst::store::{
        crc32, DocRecord, Enc, FaultSchedule, FaultSite, InjectedFault, PendingState,
        SnapshotState, Store, StreamRecord, TermRecord, TickRecord, WalReplay, WalWriter,
        WAL_HEADER_LEN,
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
    let stream = pipeline.add_stream("Athens", GeoPoint::new(38.0, 23.7));
    let term = pipeline.intern("storm");
    pipeline.stage_document(stream, HashMap::from([(term, 5)]));
    pipeline.commit_tick();
    assert!(pipeline.durability_state().is_durable());
    let _: DurabilityState = pipeline.try_recover_durability();
    let _: SnapshotState = pipeline.export_snapshot_state();
    let _: u64 = pipeline.checkpoint().unwrap();
    assert_eq!(pipeline.metrics().checkpoints, 1);
    drop(pipeline);
    let (recovered, report) = IngestPipeline::durable(config.clone(), &dir).unwrap();
    assert!(report.snapshot_loaded);
    assert_eq!(recovered.ticks_committed(), 1);
    drop(recovered);

    // Durable TSV replay: recovers from the store instead of the file.
    let data = "C\t2\nS\t0\tAthens\t38.0\t23.7\t23.7\t38.0\nD\t0\t1\tstorm:3\n";
    let (_, report) = replay_tsv_durable(std::io::Cursor::new(data), config, &dir).unwrap();
    assert!(report.snapshot_loaded);

    // The persistence layer's own vocabulary: store paths, the WAL record
    // types, the log writer, and the codec checksum.
    let store = Store::open(&dir).unwrap();
    let _: Option<SnapshotState> = store.load_snapshot().unwrap();
    let replay: WalReplay = store.read_wal().unwrap();
    let _: (usize, u64, u64) = (replay.ticks.len(), replay.valid_len, replay.discarded_bytes);
    assert!(replay.valid_len >= WAL_HEADER_LEN);
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
    let wal_path = dir.join("api-surface.wal");
    let mut writer = WalWriter::open(&wal_path, 0, Durability::Buffered).unwrap();
    writer.append(&record).unwrap();
    let _: u32 = crc32(&Enc::new().into_bytes());

    // Retry policy: bounded backoff around one store operation.
    let policy = RetryPolicy::default();
    let (result, retries) = policy.run(|| Ok::<_, StoreError>(1));
    assert_eq!((result.unwrap(), retries), (1, 0));
    let _: RetryPolicy = RetryPolicy::none();
    let _: RetryPolicy = RetryPolicy::immediate(2);

    // Live fault schedules: scripted and stochastic store-error injection.
    let faults = FaultSchedule::new();
    faults.fail_next_at(FaultSite::WalAppend, InjectedFault::torn(3));
    faults.storm(7, 4, 250);
    faults.heal();
    let _: InjectedFault = InjectedFault::permanent();
    let _: InjectedFault = InjectedFault::transient();
    let _faulted: Store = Store::open_with_faults(&dir, faults.clone()).unwrap();

    let _ = std::fs::remove_dir_all(&dir);
}
