//! Threshold-configurable slow-query log.

use crate::ring::Ring;
use crate::trace::SpanRecord;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// One logged slow query: the canonicalized query key, its end-to-end
/// latency, the span breakdown, and the query's execution stats.
///
/// Query-log mining treats this as an analysis substrate, not just debug
/// output, so every field is structured: `key` is the stable canonical
/// rendering of the engine's `QueryKey` (sorted terms, k, filters), and
/// `stats` carries named execution counters (`postings_scanned`,
/// `cache_hit`, …) without this crate depending on the search crate's
/// types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQueryRecord {
    /// Canonical rendering of the query's cache key.
    pub key: String,
    /// End-to-end latency in nanoseconds.
    pub total_ns: u64,
    /// Per-stage breakdown (plan → cache → gather → TA scan → respond).
    pub spans: Vec<SpanRecord>,
    /// Named execution stats, e.g. `("postings_scanned", 1312)`.
    pub stats: Vec<(&'static str, u64)>,
}

/// A bounded log of queries slower than a runtime-adjustable threshold.
///
/// The threshold is a relaxed atomic, so it can be tightened on a live
/// system (e.g. to `Duration::ZERO` to capture everything during an
/// investigation) without pausing serving. Pushing is non-blocking and
/// may drop on slot contention, exactly like [`crate::TraceRing`].
#[derive(Debug)]
pub struct SlowQueryLog {
    threshold_ns: AtomicU64,
    ring: Ring<SlowQueryRecord>,
}

impl SlowQueryLog {
    /// Creates a log capturing queries at or above `threshold`, retaining
    /// the most recent `capacity` records.
    pub fn new(threshold: Duration, capacity: usize) -> Self {
        Self {
            threshold_ns: AtomicU64::new(crate::duration_ns(threshold)),
            ring: Ring::new(capacity),
        }
    }

    /// The current threshold in nanoseconds.
    pub(crate) fn threshold_ns(&self) -> u64 {
        self.threshold_ns.load(Relaxed)
    }

    /// Whether a query of `total_ns` qualifies as slow.
    pub fn is_slow(&self, total_ns: u64) -> bool {
        total_ns >= self.threshold_ns()
    }

    /// Logs a slow query (non-blocking; may drop on contention).
    pub fn push(&self, record: SlowQueryRecord) {
        self.ring.push(record);
    }

    /// Clones the currently retained records.
    pub fn snapshot(&self) -> Vec<SlowQueryRecord> {
        self.ring.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanKind;

    #[test]
    fn threshold_gates_and_adjusts() {
        let log = SlowQueryLog::new(Duration::from_millis(50), 8);
        assert!(!log.is_slow(10_000_000));
        assert!(log.is_slow(50_000_000));
    }

    #[test]
    fn records_round_trip() {
        let log = SlowQueryLog::new(Duration::ZERO, 4);
        log.push(SlowQueryRecord {
            key: "terms=[3] k=10".into(),
            total_ns: 123,
            spans: vec![SpanRecord {
                kind: SpanKind::Plan,
                start_ns: 0,
                duration_ns: 50,
            }],
            stats: vec![("postings_scanned", 7)],
        });
        let got = log.snapshot();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].key, "terms=[3] k=10");
        assert_eq!(got[0].stats[0], ("postings_scanned", 7));
    }
}
