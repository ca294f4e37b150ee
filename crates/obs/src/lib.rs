//! Unified observability for the live serving stack: a lock-free metrics
//! registry, log-linear latency histograms, structured per-query /
//! per-commit tracing, and a slow-query log — all std-only and recordable
//! from the epoch-pinned read path without blocking readers.
//!
//! The north star is a production system serving millions of users; its
//! telemetry therefore has to satisfy two constraints at once:
//!
//! 1. **Recording must never block serving.** Counters, gauges, and
//!    histogram buckets are plain atomics ([`Counter`], [`Gauge`],
//!    [`LatencyHistogram`]), so the lock-free query path of
//!    `stb-search`'s `ServingFront` can record latencies while holding an
//!    epoch-pinned snapshot. Trace capture ([`TraceRing`],
//!    [`SlowQueryLog`]) claims a slot with one atomic `fetch_add` and
//!    *tries* a per-slot lock — on contention the sample is dropped, never
//!    waited for.
//! 2. **Readout must be machine-consumable.** Histograms snapshot into
//!    plain bucket arrays ([`HistogramSnapshot`]), and the registry renders
//!    Prometheus text ([`ObsRegistry::render_prometheus`]) and
//!    JSON ([`ObsRegistry::render_json`]) from one consistent
//!    [`ObsSnapshot`].
//!
//! Latency histograms are log-linear (HDR-style): each power-of-two
//! magnitude is split into 32 linear sub-buckets, bounding the relative
//! quantile error at ~3% while keeping recording a single indexed atomic
//! increment over the full `u64` range. See [`LatencyHistogram`] for the
//! bucket math.
//!
//! Downstream crates thread these types through their hot paths:
//! `stb-search` records query latency, span breakdowns, and the slow-query
//! log; `stb-ingest` records commit-stage spans and durability-state
//! gauges; `stb-store` records WAL append/fsync latency and rollback
//! events. `stb-bench` replaces its hand-rolled percentile helpers with
//! [`HistogramSnapshot`] quantiles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod hist;
#[cfg(test)]
mod hist_proptests;
mod metric;
mod registry;
mod ring;
mod slow;
mod trace;

pub use hist::{HistogramSnapshot, LatencyHistogram};
pub use metric::{Counter, Gauge};
pub use registry::{ObsRegistry, ObsSnapshot};
pub use slow::{SlowQueryLog, SlowQueryRecord};
use std::time::Duration;
pub use trace::{
    Sampler, SpanClock, SpanKind, SpanRecord, TraceId, TraceKind, TraceRecord, TraceRing,
};

/// Converts a [`Duration`] to whole nanoseconds, saturating at `u64::MAX`
/// (~584 years) — the unit every latency histogram and span in this crate
/// records.
fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
