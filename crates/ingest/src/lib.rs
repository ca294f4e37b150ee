//! Live document ingestion: incremental mining and per-term index deltas.
//!
//! The rest of the workspace reproduces the paper's *batch* pipeline:
//! freeze a collection, mine every term, build the posting index, serve.
//! This crate turns the same machinery into a **live** system in which
//! documents, ticks, streams, and previously-unseen terms keep arriving
//! while queries are being served:
//!
//! * [`IngestPipeline`] — owns a mutable collection behind generational
//!   `Arc<Collection>` snapshots (copy-on-write per generation), sharing
//!   the frequency-tensor representation with `stb-corpus`. It stages
//!   documents and commits ticks: each commit
//!   advances the per-(term, stream) online burst state, re-mines only the
//!   tick's *dirty terms* (the streaming `STLocal` step of Algorithm 2),
//!   and applies the resulting
//!   [`PatternDelta`]s to a `ShardedEngine` — per-term posting re-scores
//!   and precise result-cache invalidation, never a full rebuild — before
//!   publishing one new immutable serving generation that shares the
//!   engine's lists by pointer.
//! * [`SearchHandle`] — cloneable query access over the engine's
//!   `ServingFront`, speaking the typed [`Query`] DSL (time/region filters,
//!   explanations, structured errors): readers clone the current
//!   generation's `Arc` under a read lock held for that clone alone, so
//!   they never wait on a commit's mining or publish work (nor does a
//!   query hold a commit up), yet answer bit-identically to the
//!   single-threaded engine.
//! * [`replay_tsv`] — drive a TSV corpus from disk through the pipeline
//!   tick-by-tick via the streaming reader in `stb_corpus::tsv`.
//! * **Standing subscriptions** ([`SearchHandle::subscribe`]) — register a
//!   typed [`Query`] once and receive a
//!   [`ResultDiff`](stb_subscribe::ResultDiff) after every commit
//!   whose dirty terms intersect its term set: each commit intersects the
//!   tick's dirty set with the `stb-subscribe` registry's term index, so
//!   only affected registrations re-evaluate (against the generation just
//!   published — never torn), with per-channel overflow policies
//!   ([`OverflowPolicy`]).
//! * **Durability** ([`IngestPipeline::durable`]) — commits are
//!   write-ahead logged (`stb-store`) before they are applied, and
//!   [`IngestPipeline::checkpoint`] persists atomic snapshots that compact
//!   the log, so a restarted process recovers as `load_snapshot +
//!   replay_wal` — byte-identical to an engine that never stopped —
//!   instead of a full TSV rebuild.
//!
//! Replay-equivalence is property-tested: ingesting a corpus one document
//! at a time and then querying is byte-identical to the batch
//! `CollectionBuilder` + batch-mine + `finalize()` path, with the result
//! cache on and off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod admission;
mod config;
mod durability;
mod live;
mod miner;
mod obs;
mod pipeline;
mod recovery;
mod replay;
mod report;

pub use obs::{PipelineObs, PipelineObsConfig};
pub use pipeline::{
    Backpressure, DurabilityState, HealthReport, IngestConfig, IngestPipeline, MinerKind,
    PatternDelta, PipelineMetrics, RecoveryReport, SearchHandle, TickReceipt,
};
pub use replay::{replay_tsv, replay_tsv_durable, ReplayError};

// Re-exported so live-serving callers can build and inspect typed queries
// without depending on `stb-search` directly.
pub use stb_search::{Query, QueryResponse, UnknownWords};

// Re-exported so subscribing callers can configure channels and consume
// diffs without depending on `stb-subscribe` directly.
pub use stb_subscribe::{
    OverflowPolicy, SubscribeMetrics, SubscriptionHandle, SubscriptionOptions,
};

// Re-exported so instrumented callers can configure serving-side
// observability and read the exposition surface without depending on
// `stb-search`/`stb-obs` directly.
pub use stb_obs::ObsSnapshot;
pub use stb_search::SearchObsConfig;

// Re-exported so durable-pipeline callers can configure and match on the
// persistence layer without depending on `stb-store` directly.
pub use stb_store::{Durability, RetryPolicy, Store, StoreError};
