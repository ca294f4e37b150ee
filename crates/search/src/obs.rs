//! Observability hooks for the serving path.
//!
//! [`SearchObs`] bundles every metric the query hot path records — the
//! query-latency histogram, the Threshold-Algorithm scan histogram, the
//! sampled trace ring, and the slow-query log — around one shared
//! [`ObsRegistry`]. It is attached to a [`crate::ServingFront`] once at
//! wiring time via `attach_obs`; un-attached fronts skip instrumentation
//! entirely (one atomic load and a branch per query), which is the
//! "compiled-out" baseline `stbench`'s `obs.trace_overhead_pct` compares
//! against.
//!
//! Recording never blocks: histograms
//! and counters are relaxed atomics, trace/slow-log capture claims a ring
//! slot with a `try_lock` and drops the sample on contention. Nothing on
//! the query path ever blocks another reader.

use crate::cache::QueryKey;
use crate::query::QueryStats;
use stb_obs::{
    Counter, LatencyHistogram, ObsRegistry, Sampler, SlowQueryLog, SlowQueryRecord, SpanClock,
    SpanKind, TraceId, TraceKind, TraceRecord, TraceRing,
};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

/// Construction parameters for [`SearchObs`].
#[derive(Debug, Clone)]
pub struct SearchObsConfig {
    /// Sample one query trace in this many queries into the trace ring
    /// (0 disables trace sampling; slow queries are always considered).
    pub trace_sample_every: u64,
    /// Capacity of the sampled trace ring.
    pub trace_capacity: usize,
    /// Queries at or above this latency enter the slow-query log.
    pub slow_query_threshold: Duration,
    /// Capacity of the slow-query log.
    pub slow_log_capacity: usize,
}

impl Default for SearchObsConfig {
    fn default() -> Self {
        Self {
            trace_sample_every: 64,
            trace_capacity: 256,
            slow_query_threshold: Duration::from_millis(100),
            slow_log_capacity: 64,
        }
    }
}

/// Metric handles for the query hot path, pre-resolved from a shared
/// [`ObsRegistry`] so recording never touches the registry lock.
///
/// Registered metrics:
///
/// | name | kind | meaning |
/// |---|---|---|
/// | `search_queries_total` | counter | queries answered (ok, incl. vacuous) |
/// | `search_query_errors_total` | counter | queries rejected with a [`crate::QueryError`] |
/// | `search_query_ns` | histogram | end-to-end query latency |
/// | `search_ta_scan_ns` | histogram | Threshold-Algorithm scan span |
/// | `search_ta_postings_scanned` | histogram | postings read per evaluated query |
/// | `search_cache_hits` / `search_cache_misses` | counter | adopted from the result cache's live cells |
#[derive(Debug)]
pub struct SearchObs {
    registry: Arc<ObsRegistry>,
    queries: Arc<Counter>,
    query_errors: Arc<Counter>,
    query_ns: Arc<LatencyHistogram>,
    ta_scan_ns: Arc<LatencyHistogram>,
    ta_postings: Arc<LatencyHistogram>,
    sampler: Sampler,
    trace_seq: AtomicU64,
    traces: TraceRing,
    slow: SlowQueryLog,
}

impl SearchObs {
    /// Creates the search metric set on `registry`.
    pub fn new(registry: Arc<ObsRegistry>, config: &SearchObsConfig) -> Arc<Self> {
        Arc::new(Self {
            queries: registry.counter("search_queries_total"),
            query_errors: registry.counter("search_query_errors_total"),
            query_ns: registry.histogram("search_query_ns"),
            ta_scan_ns: registry.histogram("search_ta_scan_ns"),
            ta_postings: registry.histogram("search_ta_postings_scanned"),
            sampler: Sampler::every(config.trace_sample_every),
            trace_seq: AtomicU64::new(0),
            traces: TraceRing::new(config.trace_capacity),
            slow: SlowQueryLog::new(config.slow_query_threshold, config.slow_log_capacity),
            registry,
        })
    }

    /// The registry the metric handles live in.
    #[cfg(test)]
    pub(crate) fn registry(&self) -> &Arc<ObsRegistry> {
        &self.registry
    }

    /// The sampled query traces currently retained.
    pub fn traces(&self) -> Vec<TraceRecord> {
        self.traces.snapshot()
    }

    /// The slow-query log (threshold adjustable at runtime).
    pub fn slow_log(&self) -> &SlowQueryLog {
        &self.slow
    }

    /// Called by an attaching front to expose the result cache's live
    /// hit/miss cells through the registry.
    pub(crate) fn adopt_cache_counters(&self, hits: &Arc<Counter>, misses: &Arc<Counter>) {
        self.registry
            .adopt_counter("search_cache_hits", Arc::clone(hits));
        self.registry
            .adopt_counter("search_cache_misses", Arc::clone(misses));
    }

    /// Records a rejected query.
    pub(crate) fn record_error(&self) {
        self.query_errors.inc();
    }

    /// Records a completed query: latency histogram + counters always;
    /// trace ring when sampled; slow-query log (with the canonical key
    /// rendered lazily) when at or above the threshold.
    pub(crate) fn record_query(&self, clock: SpanClock, key: &QueryKey, stats: &QueryStats) {
        let (total_ns, spans) = clock.finish();
        self.queries.inc();
        self.query_ns.record(total_ns);
        if !stats.cache_hit {
            self.ta_postings.record(stats.postings_scanned as u64);
            if let Some(scan) = spans.iter().find(|s| s.kind == SpanKind::TaScan) {
                self.ta_scan_ns.record(scan.duration_ns);
            }
        }
        let slow = self.slow.is_slow(total_ns);
        let sampled = self.sampler.hit();
        if !(slow || sampled) {
            return;
        }
        let id = TraceId(self.trace_seq.fetch_add(1, Relaxed));
        if sampled {
            self.traces.push(TraceRecord {
                id,
                kind: TraceKind::Query,
                total_ns,
                spans: spans.clone(),
            });
        }
        if slow {
            self.slow.push(SlowQueryRecord {
                key: key.describe(),
                total_ns,
                spans,
                stats: vec![
                    ("cache_hit", u64::from(stats.cache_hit)),
                    (
                        "served_from_prebuilt",
                        u64::from(stats.served_from_prebuilt),
                    ),
                    ("postings_scanned", stats.postings_scanned as u64),
                    ("candidates_pruned", stats.candidates_pruned as u64),
                    ("terms", stats.terms as u64),
                    ("filtered", u64::from(stats.filtered)),
                ],
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_query_feeds_histogram_trace_and_slow_log() {
        let obs = SearchObs::new(
            Arc::new(ObsRegistry::new()),
            &SearchObsConfig {
                trace_sample_every: 1,
                slow_query_threshold: Duration::ZERO,
                ..SearchObsConfig::default()
            },
        );
        let mut clock = SpanClock::start();
        clock.lap(SpanKind::Plan);
        clock.lap(SpanKind::TaScan);
        let key = QueryKey::new(
            &[stb_corpus::TermId(3)],
            10,
            crate::engine::EngineConfig::default(),
        );
        let stats = QueryStats {
            cache_hit: false,
            served_from_prebuilt: true,
            postings_scanned: 42,
            candidates_pruned: 7,
            terms: 1,
            filtered: false,
        };
        obs.record_query(clock, &key, &stats);
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter("search_queries_total"), Some(1));
        assert_eq!(
            snap.histogram("search_query_ns").map(|h| h.count()),
            Some(1)
        );
        assert_eq!(
            snap.histogram("search_ta_postings_scanned")
                .map(|h| h.p50()),
            Some(42)
        );
        assert_eq!(obs.traces().len(), 1);
        let slow = obs.slow_log().snapshot();
        assert_eq!(slow.len(), 1);
        assert!(slow[0].key.contains("terms=[3]"));
        assert!(slow[0].stats.contains(&("postings_scanned", 42)));
    }
}
