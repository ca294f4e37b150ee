//! What the pipeline reports about itself: per-commit [`TickReceipt`]s,
//! the [`HealthReport`] and the [`PipelineMetrics`] counters.

use crate::durability::DurabilityState;
use crate::miner::PatternDelta;
#[cfg(doc)]
use crate::{Backpressure, IngestPipeline, SearchHandle};
use stb_corpus::{DocId, Timestamp};

/// A point-in-time health summary of the pipeline: durability state,
/// failure/retry counters, queue depths, and shed/quarantine counts.
///
/// Obtained from [`IngestPipeline::health`] — the admission-control and
/// monitoring surface.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HealthReport {
    /// The durability contract currently honored.
    pub(crate) durability: DurabilityState,
    /// Documents staged for the open tick.
    pub(crate) staged_docs: usize,
    /// Committed-but-unlogged tick records buffered in degraded mode.
    pub(crate) buffered_ticks: usize,
    /// Dirty terms pending for the open tick.
    pub(crate) dirty_terms: usize,
    /// Tick records successfully appended to the WAL.
    pub(crate) wal_appends: u64,
    /// Store operations that failed after exhausting their retries.
    pub(crate) wal_failures: u64,
    /// Transient-failure retries performed across all store operations.
    pub(crate) store_retries: u64,
    /// Times the pipeline returned from `Degraded` to `Durable`.
    pub(crate) recoveries: u64,
    /// Checkpoint attempts that failed.
    pub(crate) checkpoint_failures: u64,
    /// Documents dropped by [`Backpressure::Shed`].
    pub docs_shed: u64,
    /// Poison documents refused over the pipeline's lifetime.
    pub quarantined_total: u64,
    /// Wall-clock milliseconds of the most recent commit.
    pub last_commit_ms: f64,
    /// Wall-clock seconds the pipeline has spent in its *current*
    /// durability state (resets on every state transition).
    pub(crate) durability_state_secs: f64,
    /// The 99th-percentile commit latency in milliseconds, from the
    /// `ingest_commit_ns` histogram. `None` until
    /// [`IngestPipeline::attach_obs`] wires an observability registry (or
    /// while no commit has been recorded yet).
    pub commit_p99_ms: Option<f64>,
    /// The most recent store failure, while durability is not intact.
    pub last_error: Option<String>,
}

/// What one [`IngestPipeline::commit_tick`] did.
#[derive(Debug, Clone)]
pub struct TickReceipt {
    /// The committed tick (timestamp index).
    pub tick: Timestamp,
    /// Ids of the documents applied by this commit, in arrival order.
    pub new_docs: Vec<DocId>,
    /// The per-term pattern updates applied to the engine.
    pub deltas: Vec<PatternDelta>,
    /// Wall-clock milliseconds from commit start to the engine serving the
    /// new state (the pattern-freshness lag of this tick).
    pub commit_ms: f64,
    /// The durability contract this tick's commit left the pipeline in —
    /// per-commit truth about whether the tick was logged.
    pub durability: DurabilityState,
}

/// A point-in-time snapshot of the pipeline's counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineMetrics {
    /// Documents applied over the pipeline's lifetime.
    pub(crate) docs_ingested: u64,
    /// Documents currently staged for the open tick (queue depth).
    pub staged_docs: usize,
    /// Per-term online miners currently tracked (`STLocal` mode).
    pub(crate) tracked_miners: usize,
    /// Miners (re)built by replaying collection history — late-arriving
    /// terms and post-`add_stream` rebuilds.
    pub(crate) catchup_replays: u64,
    /// Mutation generation of the live collection.
    pub(crate) generation: u64,
    /// Snapshots written (manual and automatic checkpoints).
    pub checkpoints: u64,
}
