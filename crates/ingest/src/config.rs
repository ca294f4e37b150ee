//! [`IngestConfig`]: the knobs of an [`IngestPipeline`].

use crate::admission::Backpressure;
use crate::miner::MinerKind;
#[cfg(doc)]
use crate::{DurabilityState, IngestPipeline, StoreError};
use stb_core::STLocalConfig;
use stb_search::{EngineConfig, DEFAULT_CACHE_CAPACITY, DEFAULT_SHARDS};
use stb_store::{Durability, RetryPolicy};

/// Configuration of an [`IngestPipeline`].
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Pre-sized timeline length. Ticks beyond it grow the timeline on
    /// demand; 0 means fully dynamic.
    pub timeline_capacity: usize,
    /// The miner that keeps patterns fresh.
    pub miner: MinerKind,
    /// Scoring configuration of the serving engine.
    pub engine: EngineConfig,
    /// Capacity of the engine's query-result cache (0 disables caching),
    /// split evenly across the `n_shards` result caches.
    pub cache_capacity: usize,
    /// Number of result caches in the read tier (must be > 0). A query is
    /// routed to one by the hash of its minimum term, so more shards mean
    /// readers contend on
    /// more, smaller cache mutexes. The serving state itself is one shared
    /// index, not partitioned.
    pub n_shards: usize,
    /// When the write-ahead log forces appends to disk (only relevant for
    /// pipelines opened with [`IngestPipeline::durable`]).
    pub durability: Durability,
    /// Automatically [`IngestPipeline::checkpoint`] after this many commits
    /// (compacting the WAL back to empty); 0 disables auto-checkpointing.
    /// Only relevant for durable pipelines.
    pub checkpoint_every_ticks: usize,
    /// Retry policy for WAL appends, snapshot writes, and WAL rotation:
    /// transient store failures ([`StoreError::is_transient`]) are retried
    /// with bounded exponential backoff before durability degrades.
    pub retry: RetryPolicy,
    /// In degraded durability, at most this many committed-but-unlogged
    /// tick records are buffered in memory while re-opening the log is
    /// retried; one more commit fail-stops the pipeline to
    /// [`DurabilityState::NonDurable`]. 0 disables buffering (the first
    /// unrecovered failure fail-stops).
    pub max_buffered_ticks: usize,
    /// Upper bound on documents staged for the open tick; staging beyond
    /// it triggers the [`Backpressure`] policy. 0 means unbounded.
    pub max_staged_docs: usize,
    /// What staging a document does when the staging buffer is full.
    pub backpressure: Backpressure,
    /// Poison bound: a document whose total term count (sum of
    /// multiplicities) exceeds this is quarantined instead of staged. 0
    /// means unbounded.
    pub max_terms_per_doc: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            timeline_capacity: 0,
            miner: MinerKind::STLocal(STLocalConfig::default()),
            engine: EngineConfig::default(),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            n_shards: DEFAULT_SHARDS,
            durability: Durability::Buffered,
            checkpoint_every_ticks: 0,
            retry: RetryPolicy::default(),
            max_buffered_ticks: 64,
            max_staged_docs: 0,
            backpressure: Backpressure::Block,
            max_terms_per_doc: 0,
        }
    }
}
