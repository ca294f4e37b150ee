//! Structured tracing: trace identifiers, span records, sampling, and the
//! bounded trace ring.

use crate::ring::Ring;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Identifier tying the spans of one query or one commit together.
///
/// Ids are drawn from a process-local monotone counter (see
/// [`Sampler`]-owning integrations), not random, so two traces from the
/// same process never collide and ordering is meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// What kind of operation a [`TraceRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// One query through the serving path.
    Query,
    /// One committed ingest tick.
    Commit,
}

/// The named stages of the instrumented hot paths.
///
/// Query path: [`Plan`](Self::Plan) → [`CacheLookup`](Self::CacheLookup)
/// → [`ShardGather`](Self::ShardGather) → [`TaScan`](Self::TaScan) →
/// [`Respond`](Self::Respond). Commit path: [`Stage`](Self::Stage) →
/// [`WalAppend`](Self::WalAppend) → [`ApplyDocs`](Self::ApplyDocs) →
/// [`Mine`](Self::Mine) → [`Publish`](Self::Publish) (which includes the
/// per-term cache invalidation), followed by [`Notify`](Self::Notify)
/// when standing subscriptions were evaluated against the just-published
/// generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpanKind {
    /// Query planning: term lookup, filter normalization, vacuity check.
    Plan,
    /// Result-cache probe (per-shard LRU).
    CacheLookup,
    /// Gathering the query terms' posting lists from the generation's
    /// index (or scoring them per query, for filtered and cold queries).
    ShardGather,
    /// The Threshold Algorithm scan over gathered postings.
    TaScan,
    /// Assembling the response (stats, optional explanations).
    Respond,
    /// Staging documents ahead of a commit.
    Stage,
    /// WAL append (including the configured durability step).
    WalAppend,
    /// Applying staged documents to the live collection and burst states.
    ApplyDocs,
    /// Re-mining the tick's dirty terms.
    Mine,
    /// Publishing the new serving generation (cache invalidation
    /// included).
    Publish,
    /// Evaluating standing subscriptions against the published generation
    /// and pushing result diffs to their channels.
    Notify,
}

impl SpanKind {
    /// Stable lower-case name used in rendered traces and logs.
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            SpanKind::Plan => "plan",
            SpanKind::CacheLookup => "cache-lookup",
            SpanKind::ShardGather => "shard-gather",
            SpanKind::TaScan => "ta-scan",
            SpanKind::Respond => "respond",
            SpanKind::Stage => "stage",
            SpanKind::WalAppend => "wal-append",
            SpanKind::ApplyDocs => "apply-docs",
            SpanKind::Mine => "mine",
            SpanKind::Publish => "publish",
            SpanKind::Notify => "notify",
        }
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One timed stage within a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Which stage this span timed.
    pub kind: SpanKind,
    /// Offset of the span start from the trace start, in nanoseconds.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub duration_ns: u64,
}

/// One completed trace: the id, what it traced, its total duration, and
/// the ordered span breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Identifier of this query/commit.
    pub id: TraceId,
    /// Query or commit.
    pub kind: TraceKind,
    /// End-to-end duration in nanoseconds.
    pub total_ns: u64,
    /// Timed stages in execution order.
    pub spans: Vec<SpanRecord>,
}

/// A bounded ring of recent [`TraceRecord`]s.
///
/// Pushing claims a slot with one atomic `fetch_add` and then *tries* the
/// slot lock: on contention the trace is dropped, so the recording path
/// never blocks — the ring holds the most recent `capacity` traces on a
/// best-effort basis.
#[derive(Debug)]
pub struct TraceRing {
    ring: Ring<TraceRecord>,
}

impl TraceRing {
    /// Creates a ring retaining at most `capacity` traces (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: Ring::new(capacity),
        }
    }

    /// Records a completed trace (non-blocking; may drop on contention).
    pub fn push(&self, record: TraceRecord) {
        self.ring.push(record);
    }

    /// Clones the currently retained traces.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.ring.snapshot()
    }
}

/// 1-in-N sampling decision shared by recording threads.
///
/// `every == 0` disables sampling entirely; `every == 1` samples
/// everything. The decision is one relaxed `fetch_add`, so it is safe on
/// the lock-free query path.
#[derive(Debug)]
pub struct Sampler {
    every: u64,
    n: AtomicU64,
}

impl Sampler {
    /// Samples one in `every` events (0 = never).
    pub fn every(every: u64) -> Self {
        Self {
            every,
            n: AtomicU64::new(0),
        }
    }

    /// Whether this event is sampled. Exactly one call in `every` returns
    /// `true` (modulo concurrent interleaving, which preserves the rate).
    pub fn hit(&self) -> bool {
        if self.every == 0 {
            return false;
        }
        self.n.fetch_add(1, Relaxed).is_multiple_of(self.every)
    }
}

/// Builds a span breakdown from consecutive laps of one wall clock.
///
/// Sequential instrumentation helper for straight-line code: construct at
/// the start of the operation, call [`lap`](Self::lap) at the end of each
/// stage, and [`finish`](Self::finish) to obtain the total duration and
/// span list.
#[derive(Debug)]
pub struct SpanClock {
    origin: Instant,
    last: Instant,
    spans: Vec<SpanRecord>,
}

impl Default for SpanClock {
    fn default() -> Self {
        Self::start()
    }
}

impl SpanClock {
    /// Starts the clock.
    pub fn start() -> Self {
        let now = Instant::now();
        Self {
            origin: now,
            last: now,
            spans: Vec::with_capacity(6),
        }
    }

    /// Closes the current stage: records a span of `kind` covering the
    /// time since the previous lap (or since start).
    pub fn lap(&mut self, kind: SpanKind) {
        let now = Instant::now();
        self.spans.push(SpanRecord {
            kind,
            start_ns: crate::duration_ns(self.last - self.origin),
            duration_ns: crate::duration_ns(now - self.last),
        });
        self.last = now;
    }

    /// Consumes the clock, returning `(total_ns, spans)`.
    pub fn finish(self) -> (u64, Vec<SpanRecord>) {
        (crate::duration_ns(self.origin.elapsed()), self.spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_rate_is_exact_single_threaded() {
        let s = Sampler::every(4);
        let hits = (0..40).filter(|_| s.hit()).count();
        assert_eq!(hits, 10);
        assert!(!Sampler::every(0).hit());
        assert!(Sampler::every(1).hit());
    }

    #[test]
    fn span_clock_produces_ordered_spans() {
        let mut clock = SpanClock::start();
        clock.lap(SpanKind::Plan);
        clock.lap(SpanKind::TaScan);
        let (total, spans) = clock.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].kind, SpanKind::Plan);
        assert_eq!(spans[1].kind, SpanKind::TaScan);
        assert!(spans[1].start_ns >= spans[0].start_ns);
        assert!(total >= spans.iter().map(|s| s.duration_ns).sum::<u64>());
    }

    #[test]
    fn trace_ring_round_trips() {
        let ring = TraceRing::new(8);
        ring.push(TraceRecord {
            id: TraceId(7),
            kind: TraceKind::Query,
            total_ns: 100,
            spans: vec![],
        });
        let got = ring.snapshot();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].id, TraceId(7));
        assert_eq!(format!("{}", got[0].id), "0000000000000007");
        assert_eq!(SpanKind::TaScan.to_string(), "ta-scan");
    }
}
