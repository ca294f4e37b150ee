//! End-to-end observability: a fully instrumented pipeline must expose a
//! coherent story — slow-query log with span breakdowns and canonical
//! keys, sampled commit traces, histogram-backed health, and a Prometheus
//! / JSON exposition surface an operator could actually scrape.

use std::collections::HashMap;
use std::time::Duration;

use stb_core::STLocalConfig;
use stb_corpus::TermId;
use stb_geo::GeoPoint;
use stb_ingest::{
    IngestConfig, IngestPipeline, MinerKind, PipelineObs, PipelineObsConfig, Query, SearchObsConfig,
};
use stb_obs::SpanKind;

const TERMS: [&str; 4] = ["flood", "quake", "storm", "calm"];

/// A pipeline with a few committed ticks and an attached [`PipelineObs`]
/// whose slow-query threshold is zero — every query is "slow", so the
/// test can seed the slow log deterministically.
fn instrumented_pipeline() -> (IngestPipeline, std::sync::Arc<PipelineObs>, Vec<TermId>) {
    let mut pipeline = IngestPipeline::new(IngestConfig {
        timeline_capacity: 16,
        miner: MinerKind::STLocal(STLocalConfig::default()),
        cache_capacity: 64,
        ..IngestConfig::default()
    });
    let obs = PipelineObs::new(&PipelineObsConfig {
        search: SearchObsConfig {
            trace_sample_every: 1,
            slow_query_threshold: Duration::ZERO,
            ..SearchObsConfig::default()
        },
        commit_sample_every: 1,
        ..PipelineObsConfig::default()
    });
    pipeline.attach_obs(&obs);
    let streams = [
        pipeline.add_stream("A", GeoPoint::new(0.0, 0.0)),
        pipeline.add_stream("B", GeoPoint::new(1.0, 1.0)),
        pipeline.add_stream("C", GeoPoint::new(50.0, 50.0)),
    ];
    let terms: Vec<TermId> = TERMS.iter().map(|t| pipeline.intern(t)).collect();
    for tick in 0..8 {
        let hot = terms[tick % terms.len()];
        for (i, &s) in streams.iter().enumerate() {
            let f = if i < 2 { 20 } else { 1 };
            pipeline.stage_document(s, HashMap::from([(hot, f), (terms[3], 1)]));
        }
        pipeline.commit_tick();
    }
    (pipeline, obs, terms)
}

#[test]
fn slow_query_log_captures_seeded_query_with_span_breakdown() {
    let (pipeline, obs, terms) = instrumented_pipeline();
    let handle = pipeline.search_handle();

    // Seed one cold (cache-miss) windowed query and repeat it for a hit.
    let query = Query::terms([terms[0], terms[2]])
        .top_k(5)
        .time_window(1..=6);
    handle.query(&query).expect("seeded query");
    handle.query(&query).expect("repeat query");

    let slow = obs.search().slow_log().snapshot();
    assert_eq!(slow.len(), 2, "threshold zero logs every query");

    // The canonical key: sorted term ids, k, and the window — exactly the
    // identity the result cache and invalidation operate on.
    let mut sorted = [terms[0].0, terms[2].0];
    sorted.sort_unstable();
    let expect_key = format!("terms=[{},{}] k=5 window=1..=6", sorted[0], sorted[1]);
    let cold = &slow[0];
    assert_eq!(cold.key, expect_key, "canonical key in the slow log");
    assert!(cold.total_ns > 0, "slow records carry the total latency");

    // The cold query's span breakdown walks the full evaluation path, in
    // order, and the spans sum to the recorded total.
    let kinds: Vec<SpanKind> = cold.spans.iter().map(|s| s.kind).collect();
    assert_eq!(
        kinds,
        vec![
            SpanKind::Plan,
            SpanKind::CacheLookup,
            SpanKind::ShardGather,
            SpanKind::TaScan,
            SpanKind::Respond,
        ],
        "cold query span breakdown"
    );
    let span_sum: u64 = cold.spans.iter().map(|s| s.duration_ns).sum();
    assert!(
        span_sum <= cold.total_ns,
        "spans nest within the total ({span_sum} > {})",
        cold.total_ns
    );
    let stats: HashMap<&str, u64> = cold.stats.iter().map(|&(k, v)| (k, v)).collect();
    assert_eq!(stats["cache_hit"], 0);
    assert_eq!(stats["terms"], 2);
    assert_eq!(stats["filtered"], 1);
    assert!(stats["postings_scanned"] > 0, "cold queries scan postings");

    // The repeat is a cache hit: shorter span walk, hit flagged.
    let hit = &slow[1];
    assert_eq!(hit.key, expect_key);
    let kinds: Vec<SpanKind> = hit.spans.iter().map(|s| s.kind).collect();
    assert_eq!(
        kinds,
        vec![SpanKind::Plan, SpanKind::CacheLookup, SpanKind::Respond],
        "cache-hit span breakdown"
    );
    let stats: HashMap<&str, u64> = hit.stats.iter().map(|&(k, v)| (k, v)).collect();
    assert_eq!(stats["cache_hit"], 1);
}

#[test]
fn commit_traces_and_health_are_histogram_backed() {
    let (pipeline, obs, _) = instrumented_pipeline();

    // Every commit was sampled (sample_every = 1): ephemeral commits span
    // apply -> mine -> publish, with no WAL stage.
    let traces = obs.commit_traces();
    assert_eq!(traces.len(), 8, "one sampled trace per commit");
    for trace in &traces {
        let kinds: Vec<SpanKind> = trace.spans.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![SpanKind::ApplyDocs, SpanKind::Mine, SpanKind::Publish],
            "ephemeral commit span breakdown"
        );
    }

    // Health is served from the same histogram the registry exports.
    let health = pipeline.health();
    assert_eq!(pipeline.ticks_committed(), 8);
    assert!(health.last_commit_ms >= 0.0);
    assert!(
        health.commit_p99_ms.is_some(),
        "attached obs backs commit_p99_ms"
    );
    let snap = obs.snapshot();
    let hist = snap
        .histogram("ingest_commit_ns")
        .expect("commit histogram");
    assert_eq!(hist.count(), 8);
    assert_eq!(
        health.commit_p99_ms.map(f64::to_bits),
        Some((hist.p99() as f64 / 1e6).to_bits()),
        "health p99 is exactly the registry histogram's p99"
    );
}

#[test]
fn exposition_renders_prometheus_and_json() {
    let (pipeline, obs, terms) = instrumented_pipeline();
    let handle = pipeline.search_handle();
    // Two cold queries, a filtered one, three repeats served from the
    // result cache, and one rejected: the latency histogram must count
    // every query that succeeded, the error counter the one that did not.
    let cold = Query::terms([terms[0]]).top_k(3);
    let other = Query::terms([terms[1], terms[3]]).top_k(5);
    let filtered = Query::terms([terms[0]]).top_k(3).time_window(0..=3);
    let mut hits = 0;
    for q in [&cold, &other, &filtered, &cold, &cold, &other] {
        hits += usize::from(handle.query(q).expect("query").stats.cache_hit);
    }
    assert_eq!(hits, 3, "the repeats are served from the cache");
    handle
        .query(&Query::terms([terms[0]]).top_k(0))
        .expect_err("top_k(0) is rejected");

    let prom = obs.registry().render_prometheus();
    for needle in [
        "# TYPE ingest_commits_total counter",
        "ingest_commits_total 8",
        "# TYPE search_query_ns summary",
        "search_query_ns{quantile=\"0.99\"}",
        "search_query_ns_count 6",
        "search_query_errors_total 1",
        "# TYPE ingest_durability_state gauge",
        "ingest_durability_state 0",
    ] {
        assert!(
            prom.contains(needle),
            "prometheus exposition missing {needle:?}:\n{prom}"
        );
    }

    let json = obs.registry().render_json();
    for needle in [
        "\"ingest_commits_total\":8",
        "\"search_query_ns\":{\"count\":6,",
        "\"search_query_errors_total\":1",
        "\"p99\":",
        "\"ingest_durability_state\":0",
    ] {
        assert!(
            json.contains(needle),
            "json exposition missing {needle:?}:\n{json}"
        );
    }
}
