//! The live ingestion pipeline: staged documents → tick commit → dirty-term
//! incremental mining → per-term index deltas.
//!
//! [`IngestPipeline`] connects the online machinery the rest of the
//! workspace already provides into one serving loop:
//!
//! 1. Documents are *staged* against the current open tick
//!    ([`IngestPipeline::stage_document`]); staging is cheap and tracks the
//!    tick's **dirty terms** (terms occurring in the staged documents).
//! 2. [`IngestPipeline::commit_tick`] closes the tick: the staged documents
//!    are applied to the [`LiveCollection`] (one copy-on-write generation),
//!    every tracked term's per-(term, stream) online burst state advances by
//!    one snapshot, and only the dirty terms are re-mined — the streaming
//!    `STLocal` step (Algorithm 2) or a dirty-subset `STComb` pass for the
//!    combinatorial view.
//! 3. The resulting [`PatternDelta`]s are applied to the pipeline's
//!    [`ShardedEngine`]: the new collection snapshot is swapped in, the
//!    prebuilt posting index re-scores only the affected terms, and the
//!    commit *publishes* one new immutable serving generation — a clone of
//!    the engine's maps of `Arc`s, so the dirty terms' fresh lists are
//!    shared with the generation, not copied into it — and the sharded LRU
//!    result caches invalidate precisely the queries involving them.
//!
//! Queries are served concurrently through [`SearchHandle`]s over the
//! engine's [`ServingFront`]: readers clone the current generation's `Arc`
//! (a read lock held for that clone alone) and evaluate on it unlocked, so
//! a query never waits on a commit's mining or publish work; a query
//! observes either the previous tick's generation or the new one, never a
//! half-applied commit.
//!
//! # Equivalence with the batch path
//!
//! Replaying a corpus tick-by-tick and then querying is *byte-identical* to
//! batch-building the collection, batch-mining every term, and finalizing
//! the engine (property-tested in this crate for both miners, cache on and
//! off). Two ingredients make the dirty-term restriction exact:
//!
//! * `STLocal` is streaming by construction: a term absent from a tick has
//!   non-positive burstiness in every stream, which can neither create
//!   rectangles nor change any tracked window — its patterns are unchanged.
//! * `STComb` mines per-term series over a *fixed-length* timeline, so a
//!   term's output only changes when its own documents arrive. Growing the
//!   timeline changes every term's `B_T` normalization, so a grow re-dirties
//!   all terms — pre-size the timeline via `IngestConfig::timeline_capacity`
//!   to keep per-tick work proportional to the dirty set.
//!
//! Terms unseen when a miner's sequence started are caught up by replaying
//! their (all-zero) history from the collection, so late-arriving terms and
//! late-registered streams converge to the same state as the batch run.

use crate::live::LiveCollection;
use crate::obs::PipelineObs;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use stb_obs::{Counter, SpanClock, SpanKind};

use stb_core::{
    CombinatorialPattern, PatternRecord, RegionalPattern, STComb, STCombConfig, STLocal,
    STLocalConfig,
};
use stb_corpus::{Collection, DocId, StreamId, TermId, Timestamp, Tokenizer};
use stb_geo::{GeoPoint, Point2D};
use stb_search::{
    EngineConfig, EngineMetrics, Query, QueryError, QueryResponse, Relevance, ServingFront,
    ShardedEngine, DEFAULT_CACHE_CAPACITY, DEFAULT_SHARDS,
};
use stb_store::{
    DocRecord, Durability, PendingState, RetryPolicy, SnapshotState, Store, StoreError,
    StreamRecord, TermRecord, TickRecord, WalWriter,
};
use stb_subscribe::{SubscriptionHandle, SubscriptionOptions, SubscriptionRegistry};

/// Which miner keeps the patterns fresh while ingesting.
#[derive(Debug, Clone)]
pub enum MinerKind {
    /// The streaming regional miner (Section 4, Algorithm 2): one online
    /// `STLocal` instance per term, advanced every tick.
    STLocal(STLocalConfig),
    /// The combinatorial miner (Section 3): dirty terms are re-mined from
    /// their full (fixed-timeline) series on each commit.
    STComb(STCombConfig),
}

/// Configuration of an [`IngestPipeline`].
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Pre-sized timeline length. Ticks beyond it grow the timeline on
    /// demand (which re-dirties every term for the `STComb` view — see the
    /// module docs). 0 means fully dynamic.
    pub timeline_capacity: usize,
    /// The miner that keeps patterns fresh.
    pub miner: MinerKind,
    /// Scoring configuration of the serving engine.
    pub engine: EngineConfig,
    /// Capacity of the engine's query-result cache (0 disables caching),
    /// split evenly across the `n_shards` result caches.
    pub cache_capacity: usize,
    /// Number of result caches in the read tier (must be > 0). A query is
    /// routed to one by the hash of its minimum term
    /// ([`stb_search::shard_of`]), so more shards mean readers contend on
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
    /// What [`IngestPipeline::try_stage_document`] does when the staging
    /// buffer is full.
    pub backpressure: Backpressure,
    /// Poison bound: a document whose total term count (sum of
    /// multiplicities) exceeds this is quarantined instead of staged. 0
    /// means unbounded.
    pub max_terms_per_doc: usize,
    /// At most this many quarantined documents are retained for
    /// inspection (oldest evicted first); the `quarantined_total` health
    /// counter keeps counting past the bound.
    pub max_quarantined_docs: usize,
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
            max_quarantined_docs: 1024,
        }
    }
}

/// The durability contract a pipeline is currently honoring.
///
/// Durable pipelines move along `Durable → Degraded → NonDurable` as store
/// faults accumulate and recede:
///
/// * [`DurabilityState::Durable`] — every committed tick is in the WAL.
/// * [`DurabilityState::Degraded`] — a store failure interrupted logging;
///   committed ticks are buffered in memory (up to
///   [`IngestConfig::max_buffered_ticks`]) while each commit — or an
///   explicit [`IngestPipeline::try_recover_durability`] — retries
///   re-opening the log and replaying the buffer. Recovery returns to
///   `Durable` with zero committed-tick loss.
/// * [`DurabilityState::NonDurable`] — fail-stop: the buffer overflowed or
///   a permanent error (corruption-class, `EACCES`-class) made retrying
///   pointless. The pipeline keeps serving and committing in memory but
///   logs nothing further; only an explicit, successful
///   [`IngestPipeline::checkpoint`] (which persists everything and rotates
///   the log) revives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityState {
    /// No store is attached (the pipeline was built with
    /// [`IngestPipeline::new`]); durability was never promised.
    #[default]
    Ephemeral,
    /// Every committed tick has been written to the WAL.
    Durable,
    /// Store faults interrupted logging; commits are buffered in memory
    /// while recovery is retried.
    Degraded {
        /// Store operations that have failed since durability was last
        /// intact (appends, recovery attempts, rotations).
        consecutive_failures: u32,
        /// Committed tick records currently awaiting replay into a
        /// re-opened log.
        buffered_ticks: usize,
    },
    /// Fail-stop: logging has ceased. See the enum docs for what revives
    /// a pipeline from this state.
    NonDurable,
}

impl DurabilityState {
    /// Whether every committed tick is currently persisted (`Durable`).
    pub fn is_durable(&self) -> bool {
        matches!(self, DurabilityState::Durable)
    }

    /// Whether the pipeline is in the degraded, actively-recovering state.
    pub fn is_degraded(&self) -> bool {
        matches!(self, DurabilityState::Degraded { .. })
    }
}

/// What [`IngestPipeline::try_stage_document`] does when the staging
/// buffer ([`IngestConfig::max_staged_docs`]) is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Commit the open tick in-line to drain the buffer, then stage the
    /// document into the next tick. The caller pays the commit latency —
    /// the single-threaded analogue of blocking the producer.
    #[default]
    Block,
    /// Drop the document (counted in [`HealthReport::docs_shed`]) and keep
    /// the pipeline responsive.
    Shed,
    /// Refuse with [`IngestError::StagingFull`]; the caller decides.
    Error,
}

/// Why a document was quarantined instead of staged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The document references a stream the collection does not have —
    /// applying it would panic the commit.
    UnknownStream,
    /// The document references a term id beyond the live dictionary —
    /// logging it would poison WAL replay and scoring.
    UnknownTerm,
    /// The document's total term count exceeds
    /// [`IngestConfig::max_terms_per_doc`].
    OversizedDoc,
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineReason::UnknownStream => write!(f, "unknown stream"),
            QuarantineReason::UnknownTerm => write!(f, "unknown term id"),
            QuarantineReason::OversizedDoc => write!(f, "term count over bound"),
        }
    }
}

/// A poison document parked in the quarantine log instead of killing its
/// tick. The original counts are retained so an operator can inspect (or
/// re-submit after fixing) the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedDoc {
    /// The tick that was open when the document arrived.
    pub tick: Timestamp,
    /// The stream the document claimed to belong to.
    pub stream: StreamId,
    /// The document's term counts, sorted by term id.
    pub counts: Vec<(TermId, u32)>,
    /// Why it was quarantined.
    pub reason: QuarantineReason,
}

/// How [`IngestPipeline::try_stage_document`] disposed of a document.
#[derive(Debug)]
pub enum StageOutcome {
    /// Staged into the open tick.
    Staged,
    /// The staging buffer was full under [`Backpressure::Block`]: the open
    /// tick was committed in-line (receipt attached) and the document was
    /// staged into the next tick.
    StagedAfterCommit(Box<TickReceipt>),
    /// The staging buffer was full under [`Backpressure::Shed`]: the
    /// document was dropped.
    Shed,
    /// The document was poison and went to the quarantine log.
    Quarantined(QuarantineReason),
}

/// Typed staging failures surfaced by
/// [`IngestPipeline::try_stage_document`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IngestError {
    /// The staging buffer is full and the pipeline is configured with
    /// [`Backpressure::Error`].
    StagingFull {
        /// Documents currently staged.
        staged: usize,
        /// The configured bound.
        max: usize,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::StagingFull { staged, max } => write!(
                f,
                "staging buffer full ({staged}/{max} documents); commit the open tick or \
                 configure a different backpressure policy"
            ),
        }
    }
}

impl std::error::Error for IngestError {}

/// A point-in-time health summary of the pipeline: durability state,
/// failure/retry counters, queue depths, and quarantine size.
///
/// Obtained from [`IngestPipeline::health`] (always current) or
/// [`SearchHandle::health`] (as of the last pipeline operation) — the
/// admission-control and monitoring surface.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HealthReport {
    /// The durability contract currently honored.
    pub durability: DurabilityState,
    /// Documents staged for the open tick.
    pub staged_docs: usize,
    /// Configured staging bound (0 = unbounded).
    pub max_staged_docs: usize,
    /// Committed-but-unlogged tick records buffered in degraded mode.
    pub buffered_ticks: usize,
    /// Configured degraded-buffer bound.
    pub max_buffered_ticks: usize,
    /// Dirty terms pending for the open tick.
    pub dirty_terms: usize,
    /// Tick records successfully appended to the WAL.
    pub wal_appends: u64,
    /// Store operations that failed after exhausting their retries.
    pub wal_failures: u64,
    /// Transient-failure retries performed across all store operations.
    pub store_retries: u64,
    /// Times the pipeline returned from `Degraded` to `Durable`.
    pub recoveries: u64,
    /// Snapshots written (manual and automatic checkpoints).
    pub checkpoints: u64,
    /// Checkpoint attempts that failed.
    pub checkpoint_failures: u64,
    /// Documents dropped by [`Backpressure::Shed`].
    pub docs_shed: u64,
    /// Documents currently in the quarantine log.
    pub quarantined: usize,
    /// Documents ever quarantined (keeps counting past the log bound).
    pub quarantined_total: u64,
    /// Ticks committed over the pipeline's lifetime (the "age" of the
    /// serving state in ticks).
    pub uptime_ticks: usize,
    /// Wall-clock milliseconds of the most recent commit.
    pub last_commit_ms: f64,
    /// Wall-clock seconds the pipeline has spent in its *current*
    /// durability state (resets on every state transition).
    pub durability_state_secs: f64,
    /// The 99th-percentile commit latency in milliseconds, from the
    /// `ingest_commit_ns` histogram. `None` until
    /// [`IngestPipeline::attach_obs`] wires an observability registry (or
    /// while no commit has been recorded yet).
    pub commit_p99_ms: Option<f64>,
    /// Standing subscriptions currently registered.
    pub subscriptions: usize,
    /// Result diffs delivered to subscription channels over the
    /// pipeline's lifetime (coalesced merges count once).
    pub notifications: u64,
    /// Result diffs dropped by full `DropCounted` subscription channels.
    pub notifications_dropped: u64,
    /// The most recent store failure, while durability is not intact.
    pub last_error: Option<String>,
}

/// The pipeline-internal durability discriminant; payload for the public
/// [`DurabilityState`] lives in the pipeline's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DurState {
    Durable,
    Degraded,
    NonDurable,
}

/// A per-term pattern update emitted by a tick commit and applied to the
/// search engine (`BurstySearchEngine::set_patterns`).
#[derive(Debug, Clone)]
pub enum PatternDelta {
    /// New regional patterns of a term (the `STLocal` view).
    Regional {
        /// The re-mined term.
        term: TermId,
        /// Its complete current pattern set (replace semantics).
        patterns: Vec<RegionalPattern>,
    },
    /// New combinatorial patterns of a term (the `STComb` view).
    Combinatorial {
        /// The re-mined term.
        term: TermId,
        /// Its complete current pattern set (replace semantics).
        patterns: Vec<CombinatorialPattern>,
    },
}

impl PatternDelta {
    /// The term the delta applies to.
    pub fn term(&self) -> TermId {
        match self {
            PatternDelta::Regional { term, .. } | PatternDelta::Combinatorial { term, .. } => *term,
        }
    }

    /// Number of patterns the term now has.
    pub fn n_patterns(&self) -> usize {
        match self {
            PatternDelta::Regional { patterns, .. } => patterns.len(),
            PatternDelta::Combinatorial { patterns, .. } => patterns.len(),
        }
    }
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
    /// Ticks committed so far.
    pub ticks_committed: usize,
    /// Documents applied over the pipeline's lifetime.
    pub docs_ingested: u64,
    /// Documents currently staged for the open tick (queue depth).
    pub staged_docs: usize,
    /// Dirty terms currently pending for the open tick (queue depth).
    pub dirty_terms: usize,
    /// Per-term online miners currently tracked (`STLocal` mode).
    pub tracked_miners: usize,
    /// Miners (re)built by replaying collection history — late-arriving
    /// terms and post-`add_stream` rebuilds.
    pub catchup_replays: u64,
    /// Wall-clock milliseconds of the most recent commit.
    pub last_commit_ms: f64,
    /// Cumulative wall-clock milliseconds spent in commits.
    pub total_commit_ms: f64,
    /// Mutation generation of the live collection.
    pub generation: u64,
    /// Whether the pipeline has a durable store attached.
    pub durable: bool,
    /// Tick records appended to the write-ahead log.
    pub wal_appends: u64,
    /// Snapshots written (manual and automatic checkpoints).
    pub checkpoints: u64,
    /// The serving engine's counters.
    pub engine: EngineMetrics,
}

/// What [`IngestPipeline::durable`] found on disk and how it recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Whether a snapshot was loaded (false = cold start).
    pub snapshot_loaded: bool,
    /// Ticks already covered by the loaded snapshot.
    pub snapshot_ticks: u64,
    /// WAL tick records replayed on top of the snapshot.
    pub wal_ticks_replayed: usize,
    /// WAL records skipped because the snapshot already contained them (a
    /// crash landed between the snapshot rename and the WAL reset).
    pub wal_ticks_skipped: usize,
    /// Torn-tail bytes discarded from the end of the WAL.
    pub wal_bytes_discarded: u64,
    /// Whether a TSV corpus input was ingested into the store by
    /// [`crate::replay_tsv_durable`]. Always `false` from
    /// [`IngestPipeline::durable`] itself; `false` after a durable TSV
    /// replay means the store already held state and the file was skipped.
    pub corpus_ingested: bool,
}

/// A cloneable handle for serving queries concurrently with ingestion.
///
/// Handles wrap the pipeline engine's [`ServingFront`]: every query clones
/// the current serving generation's `Arc` (under a read lock held for that
/// clone alone) and then runs on it unlocked, so any number of query
/// threads proceed in parallel and never wait on a tick commit's mining or
/// publish work — the commit swaps in a new immutable generation and
/// readers pick it up on their next query.
///
/// The handle speaks the same typed query DSL as the engine itself
/// ([`SearchHandle::query`] / [`SearchHandle::query_many`]), so live
/// queries get spatiotemporal filters, explanations, and structured errors
/// for free — against whatever tick generation is current at call time.
#[derive(Clone)]
pub struct SearchHandle {
    front: Arc<ServingFront>,
    /// Shared health cell, refreshed by the pipeline after every public
    /// mutating operation.
    health: Arc<Mutex<HealthReport>>,
    /// The pipeline's standing-subscription registry, notified by every
    /// commit right after publish.
    subscriptions: Arc<SubscriptionRegistry>,
}

impl SearchHandle {
    /// The pipeline's health as of its most recent operation (commit,
    /// stage, checkpoint, or recovery attempt) — durability state, retry
    /// counters, queue depths, quarantine size. Serving-side callers use
    /// this for admission control without a reference to the pipeline.
    pub fn health(&self) -> HealthReport {
        self.health
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Executes a typed [`Query`] against the current tick's generation.
    /// See [`ServingFront::query`].
    pub fn query(&self, query: &Query) -> Result<QueryResponse, QueryError> {
        self.front.query(query)
    }

    /// Executes a batch of typed queries against **one** consistent
    /// generation. See [`ServingFront::query_many`].
    pub fn query_many(&self, queries: &[Query]) -> Vec<Result<QueryResponse, QueryError>> {
        self.front.query_many(queries)
    }

    /// The generation of the serving state the next query will observe
    /// (monotone; bumped by every commit).
    pub fn generation(&self) -> u64 {
        self.front.generation()
    }

    /// Registers a standing subscription for `query`: the pipeline
    /// evaluates it after every commit whose dirty terms intersect the
    /// query's (deduplicated) term set and pushes a
    /// [`stb_subscribe::ResultDiff`] into the returned handle's channel.
    /// See [`SubscriptionRegistry::subscribe`].
    pub fn subscribe(
        &self,
        query: &Query,
        options: SubscriptionOptions,
    ) -> Result<SubscriptionHandle, QueryError> {
        self.subscriptions.subscribe(query, options)
    }

    /// The standing-subscription registry this handle registers into —
    /// for enumeration ([`SubscriptionRegistry::subscriptions`]),
    /// unsubscription by id, and subscription metrics.
    pub fn subscriptions(&self) -> &Arc<SubscriptionRegistry> {
        &self.subscriptions
    }

    /// The current generation's collection snapshot.
    pub fn collection(&self) -> Arc<Collection> {
        self.front.collection()
    }

    /// The serving counters: engine counters as of the last publish, cache
    /// counters read live from the shard caches.
    pub fn metrics(&self) -> EngineMetrics {
        self.front.metrics()
    }
}

/// A document staged for the open tick.
#[derive(Debug, Clone)]
struct StagedDoc {
    stream: StreamId,
    counts: HashMap<TermId, u32>,
}

/// The live ingestion pipeline. See the module docs for the design.
///
/// # Example
///
/// ```
/// use stb_ingest::{IngestConfig, IngestPipeline, Query};
/// use stb_geo::GeoPoint;
/// use std::collections::HashMap;
///
/// let mut pipeline = IngestPipeline::new(IngestConfig {
///     timeline_capacity: 8,
///     ..Default::default()
/// });
/// let athens = pipeline.add_stream("Athens", GeoPoint::new(38.0, 23.7));
/// let lima = pipeline.add_stream("Lima", GeoPoint::new(-12.0, -77.0));
/// let quake = pipeline.intern("earthquake");
///
/// let handle = pipeline.search_handle();
/// for tick in 0..8 {
///     let f = if (2..=4).contains(&tick) { 20 } else { 1 };
///     pipeline.stage_document(athens, HashMap::from([(quake, f)]));
///     pipeline.stage_document(lima, HashMap::from([(quake, 1)]));
///     let receipt = pipeline.commit_tick();
///     assert_eq!(receipt.tick, tick);
///     // Queries are answerable at every tick, concurrently with ingest.
///     let _ = handle.query(&Query::terms([quake]).top_k(3));
/// }
/// let top = handle.query(&Query::terms([quake]).top_k(3)).unwrap().results;
/// assert!(!top.is_empty());
/// // The burst documents come from Athens during the burst window.
/// let collection = handle.collection();
/// let best = collection.document(top[0].doc);
/// assert_eq!(collection.stream(best.stream).name, "Athens");
/// assert!((2..=4).contains(&best.timestamp));
/// ```
pub struct IngestPipeline {
    live: LiveCollection,
    /// The sharded write side; its [`ServingFront`] serves the reads.
    engine: ShardedEngine,
    miner: MinerKind,
    /// One online miner per term ever seen (`STLocal` mode only).
    local_miners: HashMap<TermId, STLocal>,
    staged: Vec<StagedDoc>,
    /// Terms occurring in the staged documents of the open tick.
    dirty: BTreeSet<TermId>,
    /// A stream was added since the last commit: per-term miner state is
    /// positional and must be rebuilt from collection history.
    structural_dirty: bool,
    /// The timeline length changed (or a structural change happened), so
    /// every term's `STComb` view is stale.
    comb_all_dirty: bool,
    ticks_committed: usize,
    docs_ingested: Arc<Counter>,
    catchup_replays: Arc<Counter>,
    last_commit_ms: f64,
    total_commit_ms: f64,
    /// The durable store, if this pipeline was opened with
    /// [`IngestPipeline::durable`].
    store: Option<Store>,
    /// The open WAL writer (durable pipelines only; dropped on an append
    /// failure and re-opened by degraded-mode recovery).
    wal: Option<WalWriter>,
    /// Streams already recorded in the snapshot, the WAL, or the degraded
    /// buffer; the next tick record logs only registrations beyond this
    /// count. Buffered records count as logically logged — they carry the
    /// registrations and will reach the log when the buffer replays.
    logged_streams: usize,
    /// Terms already recorded in the snapshot, the WAL, or the buffer.
    logged_terms: usize,
    /// The durability state machine's discriminant (payload lives in
    /// `consecutive_failures` / `unlogged`).
    dur_state: DurState,
    /// Committed tick records awaiting replay into a re-opened log
    /// (degraded mode only; bounded by `max_buffered_ticks`).
    unlogged: Vec<TickRecord>,
    /// Store failures since durability was last intact.
    consecutive_failures: u32,
    /// The most recent store failure (cleared on return to `Durable`).
    last_error: Option<StoreError>,
    /// Shared health cell mirrored into every [`SearchHandle`].
    health_cell: Arc<Mutex<HealthReport>>,
    /// Quarantined poison documents, oldest first (bounded).
    quarantine: VecDeque<QuarantinedDoc>,
    /// Lifetime counters. `Arc<Counter>` cells rather than plain integers
    /// so [`IngestPipeline::attach_obs`] can adopt the *same* cells into
    /// the observability registry — [`PipelineMetrics`] and
    /// [`HealthReport`] stay exact views of what the registry exports.
    quarantined_total: Arc<Counter>,
    docs_shed: Arc<Counter>,
    wal_appends: Arc<Counter>,
    wal_failures: Arc<Counter>,
    store_retries: Arc<Counter>,
    recoveries: Arc<Counter>,
    checkpoints: Arc<Counter>,
    checkpoint_failures: Arc<Counter>,
    /// Attached observability bundle, if any (commit traces, durability
    /// gauges; search/WAL instrumentation is attached to the engine front
    /// and log writers directly).
    obs: Option<Arc<PipelineObs>>,
    /// When the current durability state was entered (drives the
    /// time-in-state gauge and [`HealthReport::durability_state_secs`]).
    dur_state_since: Instant,
    /// The state the last health publish saw, for transition detection.
    dur_state_seen: DurState,
    ticks_since_checkpoint: usize,
    checkpoint_every_ticks: usize,
    durability: Durability,
    retry: RetryPolicy,
    max_buffered_ticks: usize,
    max_staged_docs: usize,
    backpressure: Backpressure,
    max_terms_per_doc: usize,
    max_quarantined_docs: usize,
    /// Standing subscriptions, notified after every publish whose dirty
    /// terms intersect a registration's term set. Shared with every
    /// [`SearchHandle`]; survives durable recovery because restore
    /// republishes through the same [`ServingFront`].
    subscriptions: Arc<SubscriptionRegistry>,
}

impl IngestPipeline {
    /// Creates an empty pipeline (no streams, no documents). Streams can be
    /// registered and documents staged immediately.
    pub fn new(config: IngestConfig) -> Self {
        let live = LiveCollection::new(config.timeline_capacity);
        let mut engine = ShardedEngine::new(
            live.snapshot(),
            config.engine,
            config.n_shards,
            config.cache_capacity,
        );
        // Prebuild the (empty) posting index so every later pattern delta
        // takes the incremental per-term path, and publish generation 1 so
        // handles can serve before the first commit.
        engine.finalize_with_threads(1);
        engine.publish();
        let subscriptions = Arc::new(SubscriptionRegistry::new(engine.front()));
        Self {
            live,
            engine,
            miner: config.miner,
            local_miners: HashMap::new(),
            staged: Vec::new(),
            dirty: BTreeSet::new(),
            structural_dirty: false,
            comb_all_dirty: false,
            ticks_committed: 0,
            docs_ingested: Arc::new(Counter::new()),
            catchup_replays: Arc::new(Counter::new()),
            last_commit_ms: 0.0,
            total_commit_ms: 0.0,
            store: None,
            wal: None,
            logged_streams: 0,
            logged_terms: 0,
            dur_state: DurState::Durable,
            unlogged: Vec::new(),
            consecutive_failures: 0,
            last_error: None,
            health_cell: Arc::new(Mutex::new(HealthReport::default())),
            quarantine: VecDeque::new(),
            quarantined_total: Arc::new(Counter::new()),
            docs_shed: Arc::new(Counter::new()),
            wal_appends: Arc::new(Counter::new()),
            wal_failures: Arc::new(Counter::new()),
            store_retries: Arc::new(Counter::new()),
            recoveries: Arc::new(Counter::new()),
            checkpoints: Arc::new(Counter::new()),
            checkpoint_failures: Arc::new(Counter::new()),
            obs: None,
            dur_state_since: Instant::now(),
            dur_state_seen: DurState::Durable,
            ticks_since_checkpoint: 0,
            checkpoint_every_ticks: config.checkpoint_every_ticks,
            durability: config.durability,
            retry: config.retry,
            max_buffered_ticks: config.max_buffered_ticks,
            max_staged_docs: config.max_staged_docs,
            backpressure: config.backpressure,
            max_terms_per_doc: config.max_terms_per_doc,
            max_quarantined_docs: config.max_quarantined_docs,
            subscriptions,
        }
    }

    /// Opens a pipeline backed by a durable store at `dir`, recovering any
    /// previously persisted state.
    ///
    /// A fresh directory starts an empty pipeline whose commits are
    /// write-ahead logged. A directory holding a snapshot and/or WAL
    /// recovers as `load_snapshot + replay_wal`: the snapshot restores the
    /// collection, mined patterns (with their captured spatial
    /// footprints), posting lists (scores bit-for-bit), and pending
    /// bookkeeping; WAL records beyond the snapshot's tick are then
    /// re-committed. A torn WAL tail (crash artifact) is discarded and
    /// repaired transparently; a corrupt snapshot or mid-log corruption is
    /// a hard [`StoreError`] — the pipeline never silently starts empty
    /// over bad data.
    pub fn durable(
        config: IngestConfig,
        dir: impl AsRef<Path>,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        Self::durable_with_store(config, Store::open(dir.as_ref())?)
    }

    /// [`IngestPipeline::durable`] over an already-opened [`Store`] — the
    /// entry point for chaos testing, which injects a store opened with
    /// [`Store::open_with_faults`].
    pub fn durable_with_store(
        config: IngestConfig,
        store: Store,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let snapshot = store.load_snapshot()?;
        let replay = store.read_wal()?;
        let durability = config.durability;

        let mut report = RecoveryReport {
            wal_bytes_discarded: replay.discarded_bytes,
            ..RecoveryReport::default()
        };
        let mut pipeline = Self::new(config);

        if let Some(state) = snapshot {
            report.snapshot_loaded = true;
            report.snapshot_ticks = state.ticks_committed;
            pipeline.live = LiveCollection::from_collection(Arc::clone(&state.collection));
            // A fresh engine over the recovered collection re-derives the
            // term→documents map deterministically; the persisted state
            // restores patterns and posting lists without re-scoring. The
            // restore rebuilds every shard and publishes a new generation
            // through the existing front (handles stay valid).
            pipeline
                .engine
                .restore(Arc::clone(&state.collection), state.engine);
            pipeline.ticks_committed = usize::try_from(state.ticks_committed)
                .map_err(|_| StoreError::corrupt("snapshot", "tick count out of range"))?;
            pipeline.structural_dirty = state.pending.structural_dirty;
            pipeline.comb_all_dirty = state.pending.comb_all_dirty;
            pipeline.dirty = state.pending.dirty_terms.iter().copied().collect();
            for doc in &state.pending.staged {
                pipeline.staged.push(StagedDoc {
                    stream: doc.stream,
                    counts: doc.counts.iter().copied().collect(),
                });
            }
        }

        for record in replay.ticks {
            if record.tick < pipeline.ticks_committed as u64 {
                // Already inside the snapshot: a crash landed between the
                // snapshot rename and the WAL reset.
                report.wal_ticks_skipped += 1;
                continue;
            }
            if report.snapshot_loaded && record.tick == report.snapshot_ticks {
                // The snapshot may have been taken mid-tick, with documents
                // staged; the WAL record that later committed this tick
                // holds *every* staged document (the log was reset at
                // checkpoint time), so the record is authoritative —
                // replaying it on top of the restored pending docs would
                // apply the pre-checkpoint ones twice.
                pipeline.staged.clear();
                pipeline.dirty.clear();
            }
            pipeline.apply_wal_record(record)?;
            report.wal_ticks_replayed += 1;
        }

        // Everything now in the collection is covered by snapshot + WAL.
        pipeline.logged_streams = pipeline.live.n_streams();
        pipeline.logged_terms = pipeline.live.dict().len();
        let policy = pipeline.retry.clone();
        let (writer, retries) = policy.run(|| store.wal_writer(replay.valid_len, durability));
        pipeline.store_retries.add(u64::from(retries));
        pipeline.wal = Some(writer?);
        pipeline.store = Some(store);
        pipeline.publish_health();
        Ok((pipeline, report))
    }

    /// Re-commits one WAL record during recovery (no re-logging).
    fn apply_wal_record(&mut self, record: TickRecord) -> Result<(), StoreError> {
        if record.tick != self.ticks_committed as u64 {
            return Err(StoreError::corrupt(
                "wal record",
                format!(
                    "tick {} does not follow the {} ticks committed so far",
                    record.tick, self.ticks_committed
                ),
            ));
        }
        for s in &record.new_streams {
            let n = self.live.n_streams();
            if s.index.index() < n {
                // Already restored by the snapshot; must NOT re-mark the
                // structural flag the snapshot's pending state settled.
                continue;
            }
            if s.index.index() != n {
                return Err(StoreError::corrupt(
                    "wal record",
                    format!("stream index {} with {n} streams present", s.index.0),
                ));
            }
            // Goes through the public path so the structural flag is set
            // exactly as in the original run.
            self.add_stream_with_position(&s.name, s.geostamp, s.position);
        }
        for t in &record.new_terms {
            let n = self.live.dict().len();
            if t.id.index() < n {
                continue;
            }
            if t.id.index() != n {
                return Err(StoreError::corrupt(
                    "wal record",
                    format!("term id {} with {n} terms interned", t.id.0),
                ));
            }
            let id = self.live.intern(&t.text);
            if id != t.id {
                return Err(StoreError::corrupt(
                    "wal record",
                    format!(
                        "term {:?} interned as {} instead of {}",
                        t.text, id.0, t.id.0
                    ),
                ));
            }
        }
        for d in &record.docs {
            if d.stream.index() >= self.live.n_streams() {
                return Err(StoreError::corrupt(
                    "wal record",
                    format!("document references unknown stream {}", d.stream.0),
                ));
            }
            // Bypass quarantine and backpressure: WAL records were
            // validated when first committed (and re-validated above), and
            // replay must reproduce the original run bit-identically.
            self.stage_raw(d.stream, d.counts.iter().copied().collect());
        }
        self.apply_commit(None);
        Ok(())
    }

    /// Attaches an observability bundle to the whole pipeline:
    ///
    /// * the serving-side [`stb_search::SearchObs`] goes to the engine's
    ///   serving front (query latency, TA-scan stats, trace sampling,
    ///   slow-query log);
    /// * the [`stb_store::WalObs`] cells go to the open log writer — and
    ///   to every writer the pipeline re-opens later (degraded-mode
    ///   recovery, checkpoint rotation);
    /// * the pipeline's own lifetime counter cells are *adopted* into the
    ///   registry (`ingest_docs_total`, `ingest_wal_appends_total`, …) —
    ///   the same cells [`PipelineMetrics`] and [`HealthReport`] read, so
    ///   the registry's exposition reconciles exactly with them;
    /// * commits start feeding the `ingest_commit_ns` histogram and the
    ///   sampled commit trace ring, and health publishes refresh the
    ///   durability and queue-depth gauges.
    ///
    /// Attaching is idempotent in effect (re-adopting the same cells is a
    /// no-op) and expected to happen once, right after construction. An
    /// un-attached pipeline records nothing beyond its own counters.
    pub fn attach_obs(&mut self, obs: &Arc<PipelineObs>) {
        self.engine.attach_obs(Arc::clone(obs.search()));
        let registry = obs.registry();
        registry.adopt_counter("ingest_docs_total", Arc::clone(&self.docs_ingested));
        registry.adopt_counter("ingest_docs_shed_total", Arc::clone(&self.docs_shed));
        registry.adopt_counter(
            "ingest_quarantined_total",
            Arc::clone(&self.quarantined_total),
        );
        registry.adopt_counter(
            "ingest_catchup_replays_total",
            Arc::clone(&self.catchup_replays),
        );
        registry.adopt_counter("ingest_wal_appends_total", Arc::clone(&self.wal_appends));
        registry.adopt_counter("ingest_wal_failures_total", Arc::clone(&self.wal_failures));
        registry.adopt_counter(
            "ingest_store_retries_total",
            Arc::clone(&self.store_retries),
        );
        registry.adopt_counter("ingest_recoveries_total", Arc::clone(&self.recoveries));
        registry.adopt_counter("ingest_checkpoints_total", Arc::clone(&self.checkpoints));
        registry.adopt_counter(
            "ingest_checkpoint_failures_total",
            Arc::clone(&self.checkpoint_failures),
        );
        if let Some(w) = self.wal.as_mut() {
            w.set_obs(obs.wal().clone());
        }
        self.subscriptions.register_obs(registry);
        self.obs = Some(Arc::clone(obs));
        self.publish_health();
    }

    /// The attached observability bundle, if any.
    pub fn obs(&self) -> Option<&Arc<PipelineObs>> {
        self.obs.as_ref()
    }

    /// A cloneable query handle over the engine's serving front.
    pub fn search_handle(&self) -> SearchHandle {
        SearchHandle {
            front: self.engine.front(),
            health: Arc::clone(&self.health_cell),
            subscriptions: Arc::clone(&self.subscriptions),
        }
    }

    /// Registers a standing subscription for `query`, evaluated after
    /// every commit whose dirty terms intersect the query's term set.
    /// Equivalent to [`SearchHandle::subscribe`].
    pub fn subscribe(
        &self,
        query: &Query,
        options: SubscriptionOptions,
    ) -> Result<SubscriptionHandle, QueryError> {
        self.subscriptions.subscribe(query, options)
    }

    /// The standing-subscription registry shared with every
    /// [`SearchHandle`].
    pub fn subscriptions(&self) -> &Arc<SubscriptionRegistry> {
        &self.subscriptions
    }

    /// The live collection's current snapshot (includes staged-but-uncommitted
    /// ticks' *streams and terms*, but documents only after their commit).
    pub fn collection(&self) -> Arc<Collection> {
        self.live.snapshot()
    }

    /// Number of ticks committed so far — also the index of the open tick.
    pub fn ticks_committed(&self) -> usize {
        self.ticks_committed
    }

    /// Current timeline length of the live collection.
    pub fn timeline_len(&self) -> usize {
        self.live.timeline_len()
    }

    /// Interns a term (new or existing) into the live dictionary.
    pub fn intern(&mut self, term: &str) -> TermId {
        self.live.intern(term)
    }

    /// Registers a new stream; takes effect for miners at the next commit.
    pub fn add_stream(&mut self, name: &str, geostamp: GeoPoint) -> StreamId {
        let id = self.live.add_stream(name, geostamp);
        self.mark_structural();
        id
    }

    /// Registers a new stream with an explicit planar position.
    pub fn add_stream_with_position(
        &mut self,
        name: &str,
        geostamp: GeoPoint,
        position: Point2D,
    ) -> StreamId {
        let id = self.live.add_stream_with_position(name, geostamp, position);
        self.mark_structural();
        id
    }

    fn mark_structural(&mut self) {
        self.structural_dirty = true;
        self.comb_all_dirty = true;
    }

    /// Stages a document for the open tick, shorthand for
    /// [`IngestPipeline::try_stage_document`] when the caller does not
    /// inspect outcomes: poison documents are quarantined silently and a
    /// full staging buffer follows the configured [`Backpressure`] policy.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full under [`Backpressure::Error`] — that
    /// policy demands the caller handle refusal, so use the fallible
    /// method with it.
    pub fn stage_document(&mut self, stream: StreamId, counts: HashMap<TermId, u32>) {
        #[allow(clippy::expect_used)]
        self.try_stage_document(stream, counts)
            .expect("staging buffer full under Backpressure::Error");
    }

    /// Stages a document for the open tick, reporting how it was disposed
    /// of.
    ///
    /// Poison inputs — an unknown stream (applying it would panic the
    /// commit), a term id beyond the dictionary (it would poison WAL
    /// replay and scoring), or a term count over
    /// [`IngestConfig::max_terms_per_doc`] — go to the quarantine log
    /// instead of killing the tick. A staging buffer at
    /// [`IngestConfig::max_staged_docs`] triggers the configured
    /// [`Backpressure`] policy.
    pub fn try_stage_document(
        &mut self,
        stream: StreamId,
        counts: HashMap<TermId, u32>,
    ) -> Result<StageOutcome, IngestError> {
        if let Some(reason) = self.poison_reason(stream, &counts) {
            let mut sorted: Vec<(TermId, u32)> = counts.into_iter().collect();
            sorted.sort_by_key(|&(t, _)| t);
            if self.quarantine.len() >= self.max_quarantined_docs.max(1) {
                self.quarantine.pop_front();
            }
            self.quarantine.push_back(QuarantinedDoc {
                tick: self.ticks_committed,
                stream,
                counts: sorted,
                reason,
            });
            self.quarantined_total.inc();
            self.publish_health();
            return Ok(StageOutcome::Quarantined(reason));
        }
        if self.max_staged_docs > 0 && self.staged.len() >= self.max_staged_docs {
            match self.backpressure {
                Backpressure::Block => {
                    let receipt = self.commit_tick();
                    self.stage_raw(stream, counts);
                    self.publish_health();
                    return Ok(StageOutcome::StagedAfterCommit(Box::new(receipt)));
                }
                Backpressure::Shed => {
                    self.docs_shed.inc();
                    self.publish_health();
                    return Ok(StageOutcome::Shed);
                }
                Backpressure::Error => {
                    return Err(IngestError::StagingFull {
                        staged: self.staged.len(),
                        max: self.max_staged_docs,
                    });
                }
            }
        }
        self.stage_raw(stream, counts);
        Ok(StageOutcome::Staged)
    }

    /// Why `(stream, counts)` must not reach the commit path, if any.
    fn poison_reason(
        &self,
        stream: StreamId,
        counts: &HashMap<TermId, u32>,
    ) -> Option<QuarantineReason> {
        if stream.index() >= self.live.n_streams() {
            return Some(QuarantineReason::UnknownStream);
        }
        let n_terms = self.live.dict().len();
        if counts.keys().any(|t| t.index() >= n_terms) {
            return Some(QuarantineReason::UnknownTerm);
        }
        if self.max_terms_per_doc > 0 {
            let total: u64 = counts.values().map(|&c| u64::from(c)).sum();
            if total > self.max_terms_per_doc as u64 {
                return Some(QuarantineReason::OversizedDoc);
            }
        }
        None
    }

    /// Unchecked staging: trusted callers only (validated inputs and WAL
    /// replay, which must be bit-identical to the original run).
    fn stage_raw(&mut self, stream: StreamId, counts: HashMap<TermId, u32>) {
        self.dirty.extend(counts.keys().copied());
        self.staged.push(StagedDoc { stream, counts });
    }

    /// The quarantine log, oldest first (bounded by
    /// [`IngestConfig::max_quarantined_docs`]).
    pub fn quarantine_log(&self) -> impl Iterator<Item = &QuarantinedDoc> {
        self.quarantine.iter()
    }

    /// Stages a raw-text document for the open tick, tokenizing with
    /// `tokenizer` and interning new terms into the live dictionary.
    pub fn stage_text_document(&mut self, stream: StreamId, text: &str, tokenizer: &Tokenizer) {
        let counts = self.live.term_counts(text, tokenizer);
        self.stage_document(stream, counts);
    }

    /// Commits the open tick: applies the staged documents, advances every
    /// tracked term's online burst state, re-mines the dirty terms, and
    /// publishes the new snapshot plus its [`PatternDelta`]s to the engine.
    ///
    /// Committing with no staged documents is valid (an empty tick) and is
    /// required for batch equivalence: the streaming miners must observe
    /// every timestamp, occupied or not.
    ///
    /// On a durable pipeline the tick is appended to the write-ahead log
    /// *before* it is applied (transient failures retried under
    /// [`IngestConfig::retry`]), so a crash at any point leaves either a
    /// log without the tick or a log from which the tick replays exactly.
    /// Log failures never fail the commit: the pipeline degrades through
    /// the [`DurabilityState`] machine — buffering the record, retrying
    /// recovery on subsequent commits — and the receipt's `durability`
    /// field reports where it landed.
    pub fn commit_tick(&mut self) -> TickReceipt {
        let mut clock = self.obs.is_some().then(SpanClock::start);
        if self.store.is_some() {
            self.log_open_tick();
            if let Some(c) = clock.as_mut() {
                c.lap(SpanKind::WalAppend);
            }
        }
        let mut receipt = self.apply_commit(clock.as_mut());
        if let (Some(obs), Some(clock)) = (&self.obs, clock) {
            obs.record_commit(clock);
        }
        self.ticks_since_checkpoint += 1;
        if self.store.is_some()
            && self.checkpoint_every_ticks > 0
            && self.ticks_since_checkpoint >= self.checkpoint_every_ticks
            && self.dur_state == DurState::Durable
        {
            // An auto-checkpoint failure is not a durability loss — the WAL
            // still holds every tick — so it only bumps the failure counter
            // (inside `checkpoint`) and compaction is retried next commit.
            let _ = self.checkpoint();
        }
        receipt.durability = self.durability_state();
        self.publish_health();
        receipt
    }

    /// Routes the open tick's record through the durability state machine.
    fn log_open_tick(&mut self) {
        let record = self.build_tick_record();
        // The record captures all registrations since the last logged
        // tick, whether it reaches the WAL now or waits in the degraded
        // buffer — advance the watermarks either way so the next record
        // does not re-capture them.
        self.logged_streams = self.live.n_streams();
        self.logged_terms = self.live.dict().len();
        match self.dur_state {
            DurState::Durable => self.append_record(record),
            DurState::Degraded => {
                self.unlogged.push(record);
                if self.unlogged.len() > self.max_buffered_ticks {
                    self.enter_non_durable();
                } else {
                    self.try_restore();
                }
            }
            // Fail-stop: logging has ceased until an explicit checkpoint
            // succeeds (which persists everything, making the record moot).
            DurState::NonDurable => {}
        }
    }

    /// Appends one record in the `Durable` state, retrying transient
    /// failures; on exhaustion the state machine degrades.
    fn append_record(&mut self, record: TickRecord) {
        let policy = self.retry.clone();
        let (result, retries) = match self.wal.as_mut() {
            Some(w) => policy.run(|| w.append(&record)),
            // Store configured but the writer is gone in the Durable state:
            // an invariant breach surfaced as a typed, permanent error
            // rather than a mislabelled corruption error.
            None => (Err(StoreError::WalClosed), 0),
        };
        self.store_retries.add(u64::from(retries));
        match result {
            Ok(()) => self.wal_appends.inc(),
            Err(e) => {
                // Drop the writer: nothing may be stacked on top of a
                // possibly half-written frame; recovery re-opens at the
                // verified valid length.
                self.wal = None;
                self.wal_failures.inc();
                self.consecutive_failures += 1;
                let transient = e.is_transient();
                self.last_error = Some(e);
                if transient && self.max_buffered_ticks > 0 {
                    self.dur_state = DurState::Degraded;
                    self.unlogged.push(record);
                } else {
                    self.enter_non_durable();
                }
            }
        }
    }

    /// Fail-stop. The buffer is dropped: its records are already applied
    /// in memory, and the only way back to durability — an explicit
    /// successful checkpoint — snapshots the full state anyway.
    fn enter_non_durable(&mut self) {
        self.dur_state = DurState::NonDurable;
        self.wal = None;
        self.unlogged.clear();
    }

    /// One degraded-mode recovery attempt: re-read the log (computing
    /// which buffered ticks a failed-but-persisted append already placed
    /// on disk), re-open the writer at the verified valid length
    /// (truncating any torn partial frame), and replay the buffer.
    ///
    /// The whole attempt runs under the retry policy, and the disk state
    /// is re-read on every retry — a record that landed during a previous
    /// partial attempt is never appended twice.
    fn try_restore(&mut self) {
        let Some(store) = self.store.clone() else {
            return;
        };
        let durability = self.durability;
        let policy = self.retry.clone();
        let unlogged = &self.unlogged;
        let wal_obs = self.obs.as_ref().map(|o| o.wal().clone());
        let (result, retries) = policy.run(|| {
            let replay = store.read_wal()?;
            // A failed append (or a sync failure after a complete frame
            // write) may have left a fully valid record on disk. Buffered
            // records below `disk_next` are identical to their on-disk
            // twins — `build_tick_record` is deterministic — so they are
            // skipped, never duplicated.
            let disk_next = replay.ticks.last().map_or(0, |t| t.tick + 1);
            let mut writer = store.wal_writer(replay.valid_len, durability)?;
            if let Some(obs) = &wal_obs {
                writer.set_obs(obs.clone());
            }
            let mut appended = 0u64;
            for rec in unlogged.iter().filter(|rec| rec.tick >= disk_next) {
                writer.append(rec)?;
                appended += 1;
            }
            Ok((writer, appended))
        });
        self.store_retries.add(u64::from(retries));
        match result {
            Ok((writer, appended)) => {
                self.wal = Some(writer);
                self.wal_appends.add(appended);
                self.unlogged.clear();
                self.dur_state = DurState::Durable;
                self.consecutive_failures = 0;
                self.last_error = None;
                self.recoveries.inc();
            }
            Err(e) => {
                self.wal_failures.inc();
                self.consecutive_failures += 1;
                let transient = e.is_transient();
                self.last_error = Some(e);
                if !transient {
                    self.enter_non_durable();
                }
            }
        }
    }

    /// Attempts to return a `Degraded` pipeline to `Durable` immediately —
    /// re-opening the log and replaying the buffered ticks — without
    /// waiting for the next commit to do it. A no-op in every other state
    /// (`NonDurable` is fail-stop by design; see [`DurabilityState`]).
    /// Returns the state the pipeline is in afterwards.
    pub fn try_recover_durability(&mut self) -> DurabilityState {
        if self.store.is_some() && self.dur_state == DurState::Degraded {
            self.try_restore();
        }
        self.publish_health();
        self.durability_state()
    }

    /// The WAL record describing the open tick: everything registered or
    /// staged since the last logged tick (or checkpoint).
    fn build_tick_record(&self) -> TickRecord {
        let collection = self.live.collection();
        let new_streams = collection.streams()[self.logged_streams..]
            .iter()
            .map(|s| StreamRecord {
                index: s.id,
                name: s.name.clone(),
                geostamp: s.geostamp,
                position: s.position,
            })
            .collect();
        let new_terms = collection
            .dict()
            .iter()
            .skip(self.logged_terms)
            .map(|(id, text)| TermRecord {
                id,
                text: text.to_string(),
            })
            .collect();
        let docs = self
            .staged
            .iter()
            .map(|doc| {
                let mut counts: Vec<(TermId, u32)> =
                    doc.counts.iter().map(|(&t, &c)| (t, c)).collect();
                counts.sort_by_key(|&(t, _)| t);
                DocRecord {
                    stream: doc.stream,
                    counts,
                }
            })
            .collect();
        TickRecord {
            tick: self.ticks_committed as u64,
            new_streams,
            new_terms,
            docs,
        }
    }

    /// Applies the open tick to the in-memory state (the whole of
    /// [`IngestPipeline::commit_tick`] minus durability). The optional
    /// clock records the commit's stage breakdown (apply → mine →
    /// publish) for the sampled commit trace ring.
    fn apply_commit(&mut self, mut clock: Option<&mut SpanClock>) -> TickReceipt {
        let start = Instant::now();
        let tick = self.ticks_committed;

        // Grow the timeline if the open tick runs past it. This changes the
        // `B_T` normalization of every term's series, so the combinatorial
        // view of every term is re-mined below.
        if tick >= self.live.timeline_len() {
            self.live.extend_timeline(tick + 1);
            self.comb_all_dirty = true;
        }

        // Apply the staged documents (one copy-on-write generation).
        let staged = std::mem::take(&mut self.staged);
        let mut new_docs = Vec::with_capacity(staged.len());
        for doc in staged {
            new_docs.push(self.live.push_document(doc.stream, tick, doc.counts));
        }
        self.docs_ingested.add(new_docs.len() as u64);
        self.ticks_committed += 1;
        let snapshot = self.live.snapshot();
        if let Some(c) = clock.as_deref_mut() {
            c.lap(SpanKind::ApplyDocs);
        }

        let mut dirty = std::mem::take(&mut self.dirty);
        if self.structural_dirty {
            // Stream positions changed: per-term miner state is positional,
            // so drop it and re-derive every term from collection history.
            self.local_miners.clear();
            dirty.extend(snapshot.terms());
            self.structural_dirty = false;
        }
        if self.comb_all_dirty && matches!(self.miner, MinerKind::STComb(_)) {
            dirty.extend(snapshot.terms());
        }
        self.comb_all_dirty = false;

        // Mine. Dirty terms get fresh patterns; in STLocal mode every
        // tracked term additionally advances its online state by one tick.
        let mut deltas = Vec::with_capacity(dirty.len());
        match &self.miner {
            MinerKind::STLocal(config) => {
                for &term in &dirty {
                    if let std::collections::hash_map::Entry::Vacant(slot) =
                        self.local_miners.entry(term)
                    {
                        // Late-arriving term: replay its (mostly zero)
                        // history so its miner state matches a batch run.
                        let mut miner = STLocal::new(snapshot.positions(), config.clone());
                        for ts in 0..tick {
                            miner.step(&snapshot.term_snapshot(term, ts).frequencies);
                        }
                        slot.insert(miner);
                        self.catchup_replays.inc();
                    }
                }
                let mut tracked: Vec<TermId> = self.local_miners.keys().copied().collect();
                tracked.sort();
                for term in tracked {
                    let snap = snapshot.term_snapshot(term, tick);
                    if let Some(miner) = self.local_miners.get_mut(&term) {
                        miner.step(&snap.frequencies);
                    }
                }
                for &term in &dirty {
                    deltas.push(PatternDelta::Regional {
                        term,
                        patterns: self.local_miners[&term].patterns(),
                    });
                }
            }
            MinerKind::STComb(config) => {
                let miner = STComb::with_config(config.clone());
                for &term in &dirty {
                    deltas.push(PatternDelta::Combinatorial {
                        term,
                        patterns: miner.mine_collection(&snapshot, term),
                    });
                }
            }
        }

        if let Some(c) = clock.as_deref_mut() {
            c.lap(SpanKind::Mine);
        }

        // Publish: swap the snapshot in, apply the per-term deltas, and
        // push one new serving generation to the front. Readers do not
        // wait on this — they keep serving the previous generation until
        // the final pointer swap.
        self.engine
            .update_collection(Arc::clone(&snapshot), &new_docs);
        for delta in &deltas {
            match delta {
                PatternDelta::Regional { term, patterns } => {
                    self.engine.set_patterns(*term, patterns);
                }
                PatternDelta::Combinatorial { term, patterns } => {
                    self.engine.set_patterns(*term, patterns);
                }
            }
        }
        // Under tf-idf every term's relevance depends on the corpus
        // document count, so new documents stale every posting list.
        if self.engine.engine().config().relevance == Relevance::TfIdf && !new_docs.is_empty() {
            for term in snapshot.terms() {
                self.engine.refresh_term(term);
            }
        }
        // Under tf-idf the refresh above re-scored *every* posting list,
        // so every subscribed term may have moved, not just the mined set.
        let tfidf_refresh =
            self.engine.engine().config().relevance == Relevance::TfIdf && !new_docs.is_empty();
        self.engine.publish();
        if let Some(c) = clock.as_deref_mut() {
            c.lap(SpanKind::Publish);
        }

        // Notify standing subscriptions against the generation just
        // published: intersect this tick's trigger terms with the
        // registry's term index, re-evaluate only the affected
        // registrations, and push diffs. Runs inside the commit, so the
        // notification cost is visible in commit latency (`commit_ms_p50`
        // on `stbench`'s `mixed-live`).
        if !self.subscriptions.is_empty() {
            let mut trigger_terms = dirty;
            if tfidf_refresh {
                trigger_terms.extend(snapshot.terms());
            }
            let by_term: HashMap<TermId, &PatternDelta> =
                deltas.iter().map(|d| (d.term(), d)).collect();
            let positions: std::cell::OnceCell<Vec<Point2D>> = std::cell::OnceCell::new();
            let report = self
                .subscriptions
                .on_commit(tick as u64, &trigger_terms, |term| {
                    let Some(delta) = by_term.get(&term) else {
                        // Dirty via the tf-idf refresh only: scores moved but
                        // no re-mining happened, so there is nothing to attach.
                        return Vec::new();
                    };
                    let positions = positions.get_or_init(|| snapshot.positions());
                    match delta {
                        PatternDelta::Regional { patterns, .. } => patterns
                            .iter()
                            .map(|p| PatternRecord::capture(p, positions))
                            .collect(),
                        PatternDelta::Combinatorial { patterns, .. } => patterns
                            .iter()
                            .map(|p| PatternRecord::capture(p, positions))
                            .collect(),
                    }
                });
            if report.evaluated > 0 {
                if let Some(c) = clock {
                    c.lap(SpanKind::Notify);
                }
            }
        }

        let commit_ms = start.elapsed().as_secs_f64() * 1000.0;
        self.last_commit_ms = commit_ms;
        self.total_commit_ms += commit_ms;
        TickReceipt {
            tick,
            new_docs,
            deltas,
            commit_ms,
            durability: self.durability_state(),
        }
    }

    /// Writes a snapshot of the full current state (collection, patterns,
    /// posting lists, pending bookkeeping) and truncates the WAL back to
    /// empty — the periodic compaction that bounds recovery time. Returns
    /// the snapshot size in bytes.
    ///
    /// The ordering is crash-safe: the snapshot is renamed into place
    /// (atomically) *before* the log is truncated, and WAL replay skips
    /// records the snapshot already covers, so a crash between the two
    /// steps only costs some redundant skipping on recovery.
    ///
    /// Both the snapshot write and the WAL rotation are retried under
    /// [`IngestConfig::retry`]. A successful checkpoint also *recovers*
    /// durability: the snapshot covers every committed tick (including any
    /// the degraded buffer held), so the buffer is dropped, the log is
    /// rotated fresh, and the state machine returns to
    /// [`DurabilityState::Durable`] — the explicit operator path out of
    /// [`DurabilityState::NonDurable`].
    ///
    /// # Errors
    ///
    /// [`StoreError::NotDurable`] on a pipeline without a store; any I/O
    /// or serialization failure (post-retry) otherwise.
    pub fn checkpoint(&mut self) -> Result<u64, StoreError> {
        let store = self.store.clone().ok_or(StoreError::NotDurable)?;
        let state = self.export_snapshot_state();
        let policy = self.retry.clone();
        let (result, retries) = policy.run(|| store.write_snapshot(&state));
        self.store_retries.add(u64::from(retries));
        let bytes = match result {
            Ok(b) => b,
            Err(e) => {
                // The snapshot never replaced the previous one (atomic
                // rename), and the WAL is untouched: durability state is
                // unchanged, only the compaction failed.
                self.checkpoint_failures.inc();
                self.publish_health();
                return Err(e);
            }
        };
        // The snapshot now durably covers everything committed; the
        // degraded buffer and the old log contents are obsolete.
        self.unlogged.clear();
        if let Err(e) = self.rotate_wal(&store) {
            // Data is safe (the snapshot landed) but the log could not be
            // rotated: degrade so subsequent commits retry the re-open.
            self.wal = None;
            self.wal_failures.inc();
            self.consecutive_failures += 1;
            self.checkpoint_failures.inc();
            let transient = e.is_transient();
            self.dur_state = if transient {
                DurState::Degraded
            } else {
                DurState::NonDurable
            };
            self.last_error = Some(e.duplicate());
            self.publish_health();
            return Err(e);
        }
        if self.dur_state != DurState::Durable {
            self.recoveries.inc();
        }
        self.dur_state = DurState::Durable;
        self.consecutive_failures = 0;
        self.last_error = None;
        self.logged_streams = self.live.n_streams();
        self.logged_terms = self.live.dict().len();
        self.checkpoints.inc();
        self.ticks_since_checkpoint = 0;
        self.publish_health();
        Ok(bytes)
    }

    /// Truncates the open log back to its header, re-opening the writer
    /// first if an earlier failure dropped it. Retried under the policy.
    fn rotate_wal(&mut self, store: &Store) -> Result<(), StoreError> {
        let policy = self.retry.clone();
        match self.wal.as_mut() {
            Some(w) => {
                let (result, retries) = policy.run(|| w.reset());
                self.store_retries.add(u64::from(retries));
                result
            }
            None => {
                let durability = self.durability;
                let wal_obs = self.obs.as_ref().map(|o| o.wal().clone());
                let (result, retries) = policy.run(|| {
                    let replay = store.read_wal()?;
                    let mut w = store.wal_writer(replay.valid_len, durability)?;
                    if let Some(obs) = &wal_obs {
                        w.set_obs(obs.clone());
                    }
                    w.reset()?;
                    Ok(w)
                });
                self.store_retries.add(u64::from(retries));
                self.wal = Some(result?);
                Ok(())
            }
        }
    }

    /// Exports the pipeline's full state as a snapshot value (what
    /// [`IngestPipeline::checkpoint`] persists).
    pub fn export_snapshot_state(&self) -> SnapshotState {
        let mut staged = Vec::with_capacity(self.staged.len());
        for doc in &self.staged {
            let mut counts: Vec<(TermId, u32)> = doc.counts.iter().map(|(&t, &c)| (t, c)).collect();
            counts.sort_by_key(|&(t, _)| t);
            staged.push(DocRecord {
                stream: doc.stream,
                counts,
            });
        }
        SnapshotState {
            ticks_committed: self.ticks_committed as u64,
            collection: self.live.snapshot(),
            engine: self.engine.export_state(),
            pending: PendingState {
                structural_dirty: self.structural_dirty,
                comb_all_dirty: self.comb_all_dirty,
                dirty_terms: self.dirty.iter().copied().collect(),
                staged,
            },
        }
    }

    /// The durability contract the pipeline is currently honoring.
    pub fn durability_state(&self) -> DurabilityState {
        if self.store.is_none() {
            return DurabilityState::Ephemeral;
        }
        match self.dur_state {
            DurState::Durable => DurabilityState::Durable,
            DurState::Degraded => DurabilityState::Degraded {
                consecutive_failures: self.consecutive_failures,
                buffered_ticks: self.unlogged.len(),
            },
            DurState::NonDurable => DurabilityState::NonDurable,
        }
    }

    /// A current health summary: durability state, failure/retry counters,
    /// queue depths, quarantine size. See [`HealthReport`].
    pub fn health(&self) -> HealthReport {
        let sub_metrics = self.subscriptions.metrics();
        HealthReport {
            durability: self.durability_state(),
            staged_docs: self.staged.len(),
            max_staged_docs: self.max_staged_docs,
            buffered_ticks: self.unlogged.len(),
            max_buffered_ticks: self.max_buffered_ticks,
            dirty_terms: self.dirty.len(),
            wal_appends: self.wal_appends.get(),
            wal_failures: self.wal_failures.get(),
            store_retries: self.store_retries.get(),
            recoveries: self.recoveries.get(),
            checkpoints: self.checkpoints.get(),
            checkpoint_failures: self.checkpoint_failures.get(),
            docs_shed: self.docs_shed.get(),
            quarantined: self.quarantine.len(),
            quarantined_total: self.quarantined_total.get(),
            uptime_ticks: self.ticks_committed,
            last_commit_ms: self.last_commit_ms,
            durability_state_secs: self.dur_state_since.elapsed().as_secs_f64(),
            commit_p99_ms: self.obs.as_ref().and_then(|obs| {
                let snap = obs.commit_latency().snapshot();
                (snap.count() > 0).then(|| snap.p99() as f64 / 1e6)
            }),
            subscriptions: sub_metrics.active,
            notifications: sub_metrics.notifications,
            notifications_dropped: sub_metrics.dropped,
            last_error: match self.dur_state {
                DurState::Durable => None,
                _ => self.last_error.as_ref().map(StoreError::to_string),
            },
        }
    }

    /// Refreshes the health cell shared with every [`SearchHandle`], and
    /// — when observability is attached — the durability and queue-depth
    /// gauges. Durability-state *transitions* are detected here: every
    /// public mutating operation ends in a publish, so the time-in-state
    /// clock restarts within the same call that changed the state.
    fn publish_health(&mut self) {
        let transitioned = self.dur_state_seen != self.dur_state;
        if transitioned {
            self.dur_state_seen = self.dur_state;
            self.dur_state_since = Instant::now();
        }
        if let Some(obs) = &self.obs {
            obs.set_durability(
                self.durability_code(),
                self.dur_state_since.elapsed().as_secs_f64(),
                transitioned,
            );
            obs.set_queue_depths(
                self.staged.len(),
                self.dirty.len(),
                self.unlogged.len(),
                self.quarantine.len(),
            );
        }
        let report = self.health();
        *self
            .health_cell
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = report;
    }

    /// The `ingest_durability_state` gauge encoding: 0 ephemeral,
    /// 1 durable, 2 degraded, 3 non-durable.
    fn durability_code(&self) -> f64 {
        if self.store.is_none() {
            return 0.0;
        }
        match self.dur_state {
            DurState::Durable => 1.0,
            DurState::Degraded => 2.0,
            DurState::NonDurable => 3.0,
        }
    }

    /// Whether this pipeline has a durable store attached.
    pub fn is_durable(&self) -> bool {
        self.store.is_some()
    }

    /// The durable store directory, if any.
    pub fn store_dir(&self) -> Option<&Path> {
        self.store.as_ref().map(Store::dir)
    }

    /// The pipeline's current mining output for one term: the live
    /// `STLocal` miner's accumulated windows, or a fresh combinatorial pass
    /// over the current collection. Useful for inspecting pattern state
    /// without going through a [`TickReceipt`].
    pub fn current_patterns(&self, term: TermId) -> PatternDelta {
        match &self.miner {
            MinerKind::STLocal(_) => PatternDelta::Regional {
                term,
                patterns: self
                    .local_miners
                    .get(&term)
                    .map(STLocal::patterns)
                    .unwrap_or_default(),
            },
            MinerKind::STComb(config) => PatternDelta::Combinatorial {
                term,
                patterns: STComb::with_config(config.clone())
                    .mine_collection(self.live.collection(), term),
            },
        }
    }

    /// A snapshot of the pipeline's counters.
    pub fn metrics(&self) -> PipelineMetrics {
        PipelineMetrics {
            ticks_committed: self.ticks_committed,
            docs_ingested: self.docs_ingested.get(),
            staged_docs: self.staged.len(),
            dirty_terms: self.dirty.len(),
            tracked_miners: self.local_miners.len(),
            catchup_replays: self.catchup_replays.get(),
            last_commit_ms: self.last_commit_ms,
            total_commit_ms: self.total_commit_ms,
            generation: self.live.generation(),
            durable: self.store.is_some(),
            wal_appends: self.wal_appends.get(),
            checkpoints: self.checkpoints.get(),
            engine: self.engine.metrics(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stb_search::{BurstySearchEngine, NoPatternPolicy, SearchResult};

    /// Typed-API term query through a live handle.
    fn run(handle: &SearchHandle, terms: &[TermId], k: usize) -> Vec<SearchResult> {
        handle
            .query(&Query::terms(terms.iter().copied()).top_k(k))
            .map(|r| r.results)
            .unwrap_or_default()
    }

    /// Typed-API term query against a reference engine.
    fn engine_run(engine: &BurstySearchEngine, terms: &[TermId], k: usize) -> Vec<SearchResult> {
        engine
            .query(&Query::terms(terms.iter().copied()).top_k(k))
            .map(|r| r.results)
            .unwrap_or_default()
    }

    /// Typed-API text query through a live handle; unknown words make the
    /// query vacuously empty (the live-serving default while a term has not
    /// arrived yet).
    fn run_text(handle: &SearchHandle, text: &str, k: usize) -> Vec<SearchResult> {
        handle
            .query(
                &Query::text(text)
                    .top_k(k)
                    .unknown_words(stb_search::UnknownWords::EmptyResponse),
            )
            .map(|r| r.results)
            .unwrap_or_default()
    }

    fn two_cluster_pipeline(miner: MinerKind, capacity: usize) -> (IngestPipeline, Vec<StreamId>) {
        let mut pipeline = IngestPipeline::new(IngestConfig {
            timeline_capacity: capacity,
            miner,
            ..Default::default()
        });
        let streams = vec![
            pipeline.add_stream("A", GeoPoint::new(0.0, 0.0)),
            pipeline.add_stream("B", GeoPoint::new(1.0, 1.0)),
            pipeline.add_stream("C", GeoPoint::new(50.0, 50.0)),
        ];
        (pipeline, streams)
    }

    fn burst_tick(
        pipeline: &mut IngestPipeline,
        streams: &[StreamId],
        term: TermId,
        bursting: bool,
    ) -> TickReceipt {
        for (i, &s) in streams.iter().enumerate() {
            let f = if bursting && i < 2 { 25 } else { 1 };
            pipeline.stage_document(s, HashMap::from([(term, f)]));
        }
        pipeline.commit_tick()
    }

    #[test]
    fn stlocal_pipeline_detects_burst_and_serves_queries() {
        let (mut pipeline, streams) =
            two_cluster_pipeline(MinerKind::STLocal(STLocalConfig::default()), 20);
        let quake = pipeline.intern("quake");
        let handle = pipeline.search_handle();
        for tick in 0..20 {
            let receipt = burst_tick(&mut pipeline, &streams, quake, (8..11).contains(&tick));
            assert_eq!(receipt.tick, tick);
            assert!(receipt.deltas.iter().all(|d| d.term() == quake));
            // Queries never fail mid-stream.
            let _ = run(&handle, &[quake], 5);
        }
        let top = run(&handle, &[quake], 6);
        assert!(!top.is_empty());
        let collection = handle.collection();
        for hit in &top {
            let doc = collection.document(hit.doc);
            assert!((8..11).contains(&doc.timestamp), "hit outside the burst");
            assert!(doc.stream == streams[0] || doc.stream == streams[1]);
        }
    }

    #[test]
    fn stcomb_pipeline_detects_burst() {
        let (mut pipeline, streams) =
            two_cluster_pipeline(MinerKind::STComb(STCombConfig::default()), 20);
        let storm = pipeline.intern("storm");
        for tick in 0..20 {
            burst_tick(&mut pipeline, &streams, storm, (5..8).contains(&tick));
        }
        let handle = pipeline.search_handle();
        let top = run(&handle, &[storm], 6);
        assert!(!top.is_empty());
        let collection = handle.collection();
        for hit in &top {
            let doc = collection.document(hit.doc);
            assert!((5..8).contains(&doc.timestamp));
        }
    }

    #[test]
    fn empty_ticks_are_committed() {
        let (mut pipeline, streams) =
            two_cluster_pipeline(MinerKind::STLocal(STLocalConfig::default()), 0);
        let t = pipeline.intern("t");
        burst_tick(&mut pipeline, &streams, t, false);
        let receipt = pipeline.commit_tick(); // nothing staged
        assert_eq!(receipt.tick, 1);
        assert!(receipt.new_docs.is_empty());
        assert!(receipt.deltas.is_empty());
        assert_eq!(pipeline.ticks_committed(), 2);
        assert_eq!(pipeline.timeline_len(), 2); // grew on demand
    }

    #[test]
    fn unseen_term_is_searchable_after_it_arrives() {
        let (mut pipeline, streams) =
            two_cluster_pipeline(MinerKind::STLocal(STLocalConfig::default()), 12);
        let early = pipeline.intern("early");
        let handle = pipeline.search_handle();
        for _ in 0..5 {
            burst_tick(&mut pipeline, &streams, early, false);
        }
        // "late" is unknown to the engine's snapshot: empty results, no
        // panic (Exclude policy).
        assert!(run_text(&handle, "late", 5).is_empty());

        let late = pipeline.intern("late");
        for tick in 5..12 {
            for &s in &streams[..2] {
                let f = if (6..9).contains(&tick) { 30 } else { 1 };
                pipeline.stage_document(s, HashMap::from([(late, f)]));
            }
            pipeline.commit_tick();
        }
        let hits = run_text(&handle, "late", 5);
        assert!(!hits.is_empty(), "late term must score once it arrived");
        let collection = handle.collection();
        assert!((6..9).contains(&collection.document(hits[0].doc).timestamp));
    }

    #[test]
    fn adding_a_stream_mid_flight_rebuilds_miners() {
        let (mut pipeline, streams) =
            two_cluster_pipeline(MinerKind::STLocal(STLocalConfig::default()), 16);
        let t = pipeline.intern("t");
        for _ in 0..4 {
            burst_tick(&mut pipeline, &streams, t, false);
        }
        let before = pipeline.metrics().catchup_replays;
        let d = pipeline.add_stream("D", GeoPoint::new(1.5, 0.5));
        let mut all = streams.clone();
        all.push(d);
        for tick in 4..16 {
            for (i, &s) in all.iter().enumerate() {
                let bursty = (6..9).contains(&tick) && (i < 2 || s == d);
                let f = if bursty { 25 } else { 1 };
                pipeline.stage_document(s, HashMap::from([(t, f)]));
            }
            pipeline.commit_tick();
        }
        assert!(
            pipeline.metrics().catchup_replays > before,
            "the structural change must have rebuilt miner state"
        );
        let handle = pipeline.search_handle();
        let top = run(&handle, &[t], 3);
        assert!(!top.is_empty());
        let collection = handle.collection();
        assert!((6..9).contains(&collection.document(top[0].doc).timestamp));
    }

    #[test]
    fn cache_invalidation_is_per_dirty_term() {
        let (mut pipeline, streams) =
            two_cluster_pipeline(MinerKind::STLocal(STLocalConfig::default()), 20);
        let hot = pipeline.intern("hot");
        let cold = pipeline.intern("cold");
        let handle = pipeline.search_handle();
        // Both terms burst early so both have patterns.
        for tick in 0..10 {
            for &s in &streams[..2] {
                let f = if (2..5).contains(&tick) { 20 } else { 1 };
                pipeline.stage_document(s, HashMap::from([(hot, f), (cold, f)]));
            }
            pipeline.commit_tick();
        }
        let _ = run(&handle, &[hot], 5);
        let _ = run(&handle, &[cold], 5);
        let misses_before = handle.metrics().cache_misses;
        // A tick touching only `hot` must keep `cold`'s cached entry.
        for &s in &streams[..2] {
            pipeline.stage_document(s, HashMap::from([(hot, 2)]));
        }
        pipeline.commit_tick();
        let _ = run(&handle, &[cold], 5); // hit
        assert_eq!(handle.metrics().cache_misses, misses_before);
        let _ = run(&handle, &[hot], 5); // miss: invalidated by the commit
        assert_eq!(handle.metrics().cache_misses, misses_before + 1);
    }

    #[test]
    fn tfidf_relevance_refreshes_all_terms() {
        // Under tf-idf the corpus document count enters every score, so the
        // pipeline must keep non-dirty terms' postings fresh too.
        let config = IngestConfig {
            timeline_capacity: 10,
            engine: EngineConfig::builder()
                .relevance(Relevance::TfIdf)
                .no_pattern(NoPatternPolicy::Zero)
                .build(),
            ..Default::default()
        };
        let mut pipeline = IngestPipeline::new(config.clone());
        let streams = [
            pipeline.add_stream("A", GeoPoint::new(0.0, 0.0)),
            pipeline.add_stream("B", GeoPoint::new(1.0, 1.0)),
        ];
        let a = pipeline.intern("a");
        let b = pipeline.intern("b");
        for tick in 0..10 {
            for &s in &streams {
                let mut counts = HashMap::from([(a, if tick == 3 { 15 } else { 1 })]);
                if tick < 5 {
                    counts.insert(b, 1);
                }
                pipeline.stage_document(s, counts);
            }
            pipeline.commit_tick();
        }
        let handle = pipeline.search_handle();
        let got = run(&handle, &[b], 30);

        // Oracle: a cold engine over the final snapshot with the same
        // patterns must agree, including the tf-idf weights.
        let collection = handle.collection();
        let mut reference = BurstySearchEngine::new(Arc::clone(&collection), config.engine);
        reference.set_cache_capacity(0);
        let (patterns, _) = STLocal::mine_collection(&collection, b, STLocalConfig::default());
        reference.set_patterns(b, &patterns);
        let (patterns_a, _) = STLocal::mine_collection(&collection, a, STLocalConfig::default());
        reference.set_patterns(a, &patterns_a);
        let expect = engine_run(&reference, &[b], 30);
        assert_eq!(got.len(), expect.len());
        for (x, y) in got.iter().zip(&expect) {
            assert_eq!(x.doc, y.doc);
            assert_eq!(x.score, y.score, "tf-idf scores must match the oracle");
        }
    }

    #[test]
    fn metrics_report_queue_depths() {
        let (mut pipeline, streams) =
            two_cluster_pipeline(MinerKind::STLocal(STLocalConfig::default()), 8);
        let t = pipeline.intern("t");
        pipeline.stage_document(streams[0], HashMap::from([(t, 1)]));
        let m = pipeline.metrics();
        assert_eq!(m.staged_docs, 1);
        assert_eq!(m.dirty_terms, 1);
        assert_eq!(m.ticks_committed, 0);
        pipeline.commit_tick();
        let m = pipeline.metrics();
        assert_eq!(m.staged_docs, 0);
        assert_eq!(m.dirty_terms, 0);
        assert_eq!(m.ticks_committed, 1);
        assert_eq!(m.docs_ingested, 1);
        assert_eq!(m.tracked_miners, 1);
        assert!(m.last_commit_ms >= 0.0);
        assert!(m.engine.finalized);
        assert!(m.generation > 0);
    }

    #[test]
    fn concurrent_queries_during_ingest() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        let (mut pipeline, streams) =
            two_cluster_pipeline(MinerKind::STLocal(STLocalConfig::default()), 40);
        let t = pipeline.intern("t");
        let handle = pipeline.search_handle();
        let done = AtomicBool::new(false);
        let answered = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let h = handle.clone();
            let done_ref = &done;
            let answered_ref = &answered;
            let reader = scope.spawn(move || {
                while !done_ref.load(Ordering::Relaxed) {
                    let _ = run(&h, &[t], 5);
                    answered_ref.fetch_add(1, Ordering::Relaxed);
                }
            });
            for tick in 0..40 {
                burst_tick(&mut pipeline, &streams, t, (10..20).contains(&tick));
                // The read path never holds the writer up, so on a
                // single-CPU box the commit loop could finish before the
                // reader is ever scheduled; yield to let it interleave.
                std::thread::yield_now();
            }
            // Liveness: the reader must get at least one answer while the
            // pipeline exists (not merely "was spawned").
            while answered.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            done.store(true, Ordering::Relaxed);
            reader.join().expect("query thread");
            assert!(
                answered.load(Ordering::Relaxed) > 0,
                "queries must be served during ingest"
            );
        });
        assert!(!run(&handle, &[t], 5).is_empty());
    }

    #[test]
    fn attached_obs_records_commits_and_reconciles_with_metrics() {
        use crate::obs::{PipelineObs, PipelineObsConfig};

        let (mut pipeline, streams) =
            two_cluster_pipeline(MinerKind::STLocal(STLocalConfig::default()), 12);
        let obs = PipelineObs::new(&PipelineObsConfig::default());
        pipeline.attach_obs(&obs);
        let t = pipeline.intern("t");
        let handle = pipeline.search_handle();
        for tick in 0..12 {
            burst_tick(&mut pipeline, &streams, t, (4..7).contains(&tick));
            let _ = run(&handle, &[t], 5);
        }

        let snap = obs.snapshot();
        assert_eq!(snap.counter("ingest_commits_total"), Some(12));
        assert_eq!(
            snap.histogram("ingest_commit_ns").map(|h| h.count()),
            Some(12)
        );
        // Adopted cells reconcile exactly with the legacy metrics view.
        let m = pipeline.metrics();
        assert_eq!(snap.counter("ingest_docs_total"), Some(m.docs_ingested));
        assert_eq!(
            snap.counter("search_queries_total"),
            Some(m.engine.cache_hits + m.engine.cache_misses)
        );
        // Ephemeral pipeline: durability gauge reads 0, no WAL activity.
        assert_eq!(snap.gauge("ingest_durability_state"), Some(0.0));
        assert_eq!(snap.counter("wal_appends_total"), Some(0));

        // Commit traces carry the apply → mine → publish breakdown (no
        // WalAppend span without a store).
        let traces = obs.commit_traces();
        assert!(!traces.is_empty());
        let kinds: Vec<_> = traces[0].spans.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![SpanKind::ApplyDocs, SpanKind::Mine, SpanKind::Publish]
        );

        // The health report consumes the histogram snapshot.
        let h = pipeline.health();
        assert_eq!(h.uptime_ticks, 12);
        assert!(h.commit_p99_ms.is_some());
        assert!(h.durability_state_secs >= 0.0);

        // The exposition endpoints render the live cells.
        let prom = obs.registry().render_prometheus();
        assert!(prom.contains("ingest_commits_total 12"));
        assert!(prom.contains("ingest_commit_ns{quantile=\"0.99\"}"));
    }

    #[test]
    fn durable_obs_sees_wal_appends_and_durability_gauge() {
        use crate::obs::{PipelineObs, PipelineObsConfig};

        let dir = temp_dir("obs");
        let (mut pipeline, _) =
            IngestPipeline::durable(durable_config(8), &dir).expect("open durable pipeline");
        let obs = PipelineObs::new(&PipelineObsConfig::default());
        pipeline.attach_obs(&obs);
        let s = pipeline.add_stream("A", GeoPoint::new(0.0, 0.0));
        let t = pipeline.intern("t");
        for _ in 0..4 {
            commit_one(&mut pipeline, s, t);
        }
        let snap = obs.snapshot();
        assert_eq!(snap.gauge("ingest_durability_state"), Some(1.0));
        assert_eq!(snap.counter("ingest_wal_appends_total"), Some(4));
        // The writer-level histogram sees the same four appends.
        assert_eq!(snap.histogram("wal_append_ns").map(|h| h.count()), Some(4));
        // Durable commits lead with the WalAppend span.
        let traces = obs.commit_traces();
        assert!(!traces.is_empty());
        assert_eq!(traces[0].spans[0].kind, SpanKind::WalAppend);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Fresh per-test store directory under the system temp dir.
    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("stb-ingest-durable-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_config(ticks: usize) -> IngestConfig {
        IngestConfig {
            timeline_capacity: ticks,
            miner: MinerKind::STLocal(STLocalConfig::default()),
            ..Default::default()
        }
    }

    /// Drives `ticks` bursty ticks through a durable pipeline in `dir` and
    /// returns the pipeline plus the interned term.
    fn durable_burst_run(dir: &std::path::Path, ticks: usize) -> (IngestPipeline, TermId) {
        let (mut pipeline, report) =
            IngestPipeline::durable(durable_config(ticks), dir).expect("open durable pipeline");
        assert!(!report.snapshot_loaded);
        assert_eq!(report.wal_ticks_replayed, 0);
        let streams = vec![
            pipeline.add_stream("A", GeoPoint::new(0.0, 0.0)),
            pipeline.add_stream("B", GeoPoint::new(1.0, 1.0)),
            pipeline.add_stream("C", GeoPoint::new(50.0, 50.0)),
        ];
        let quake = pipeline.intern("quake");
        for tick in 0..ticks {
            burst_tick(&mut pipeline, &streams, quake, (3..6).contains(&tick));
        }
        assert!(
            pipeline.durability_state().is_durable(),
            "WAL append must not fail"
        );
        (pipeline, quake)
    }

    #[test]
    fn durable_pipeline_recovers_from_wal_alone() {
        let dir = temp_dir("wal-only");
        let (pipeline, quake) = durable_burst_run(&dir, 10);
        let expect = pipeline.export_snapshot_state();
        let handle = pipeline.search_handle();
        let expect_top = run(&handle, &[quake], 5);
        assert!(!expect_top.is_empty());
        drop(pipeline);

        let (recovered, report) =
            IngestPipeline::durable(durable_config(10), &dir).expect("recover");
        assert!(!report.snapshot_loaded);
        assert_eq!(report.wal_ticks_replayed, 10);
        assert_eq!(report.wal_ticks_skipped, 0);
        assert_eq!(report.wal_bytes_discarded, 0);
        assert_eq!(recovered.ticks_committed(), 10);
        let got = recovered.export_snapshot_state();
        assert_eq!(expect.engine, got.engine, "engine state must round-trip");
        assert_eq!(expect.pending, got.pending);
        let got_top = run(&recovered.search_handle(), &[quake], 5);
        assert_eq!(expect_top.len(), got_top.len());
        for (e, g) in expect_top.iter().zip(&got_top) {
            assert_eq!(e.doc, g.doc);
            assert_eq!(e.score.to_bits(), g.score.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_pipeline_recovers_from_snapshot_plus_wal() {
        let dir = temp_dir("snap-wal");
        let (mut pipeline, quake) = durable_burst_run(&dir, 6);
        pipeline.checkpoint().expect("checkpoint");
        // Four more ticks after the checkpoint land only in the WAL.
        let streams: Vec<StreamId> = (0..3).map(|i| StreamId(i as u32)).collect();
        for tick in 6..10 {
            burst_tick(&mut pipeline, &streams, quake, (3..6).contains(&tick));
        }
        let expect = pipeline.export_snapshot_state();
        let expect_top = run(&pipeline.search_handle(), &[quake], 5);
        drop(pipeline);

        let (recovered, report) =
            IngestPipeline::durable(durable_config(10), &dir).expect("recover");
        assert!(report.snapshot_loaded);
        assert_eq!(report.snapshot_ticks, 6);
        assert_eq!(report.wal_ticks_replayed, 4);
        assert_eq!(recovered.ticks_committed(), 10);
        assert_eq!(expect.engine, recovered.export_snapshot_state().engine);
        let got_top = run(&recovered.search_handle(), &[quake], 5);
        for (e, g) in expect_top.iter().zip(&got_top) {
            assert_eq!(e.doc, g.doc);
            assert_eq!(e.score.to_bits(), g.score.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncates_wal_and_counts() {
        let dir = temp_dir("compact");
        let (mut pipeline, _) = durable_burst_run(&dir, 8);
        let wal_before = std::fs::metadata(dir.join(stb_store::WAL_FILE))
            .expect("wal exists")
            .len();
        assert!(wal_before > stb_store::WAL_HEADER_LEN);
        let bytes = pipeline.checkpoint().expect("checkpoint");
        assert!(bytes > 0);
        let wal_after = std::fs::metadata(dir.join(stb_store::WAL_FILE))
            .expect("wal exists")
            .len();
        assert_eq!(wal_after, stb_store::WAL_HEADER_LEN);
        let m = pipeline.metrics();
        assert!(m.durable);
        assert_eq!(m.checkpoints, 1);
        assert_eq!(m.wal_appends, 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_checkpoint_fires_on_configured_cadence() {
        let dir = temp_dir("auto-ckpt");
        let config = IngestConfig {
            timeline_capacity: 9,
            miner: MinerKind::STLocal(STLocalConfig::default()),
            checkpoint_every_ticks: 3,
            ..Default::default()
        };
        let (mut pipeline, _) = IngestPipeline::durable(config, &dir).expect("open");
        let streams = vec![
            pipeline.add_stream("A", GeoPoint::new(0.0, 0.0)),
            pipeline.add_stream("B", GeoPoint::new(1.0, 1.0)),
            pipeline.add_stream("C", GeoPoint::new(50.0, 50.0)),
        ];
        let t = pipeline.intern("t");
        for tick in 0..9 {
            burst_tick(&mut pipeline, &streams, t, tick == 4);
        }
        assert!(pipeline.durability_state().is_durable());
        assert_eq!(pipeline.metrics().checkpoints, 3);
        // The final commit triggered a checkpoint, so the WAL is compact.
        let wal_len = std::fs::metadata(dir.join(stb_store::WAL_FILE))
            .expect("wal exists")
            .len();
        assert_eq!(wal_len, stb_store::WAL_HEADER_LEN);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_on_non_durable_pipeline_is_typed_error() {
        let (mut pipeline, _) =
            two_cluster_pipeline(MinerKind::STLocal(STLocalConfig::default()), 4);
        assert!(!pipeline.is_durable());
        match pipeline.checkpoint() {
            Err(StoreError::NotDurable) => {}
            other => panic!("expected NotDurable, got {other:?}"),
        }
    }

    #[test]
    fn durable_pipeline_with_fsync_policy_commits() {
        let dir = temp_dir("fsync");
        let config = IngestConfig {
            timeline_capacity: 3,
            miner: MinerKind::STLocal(STLocalConfig::default()),
            durability: Durability::Fsync,
            ..Default::default()
        };
        let (mut pipeline, _) = IngestPipeline::durable(config, &dir).expect("open");
        let s = pipeline.add_stream("A", GeoPoint::new(0.0, 0.0));
        let t = pipeline.intern("t");
        for _ in 0..3 {
            pipeline.stage_document(s, HashMap::from([(t, 2)]));
            pipeline.commit_tick();
        }
        assert!(pipeline.durability_state().is_durable());
        assert_eq!(pipeline.metrics().wal_appends, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    use stb_store::{FaultSchedule, FaultSite, InjectedFault};

    /// A durable pipeline over a fault-schedule store, with zero-backoff
    /// retries so tests run instantly, plus one registered stream/term.
    fn faulted_pipeline(
        tag: &str,
        max_retries: u32,
        max_buffered: usize,
    ) -> (
        IngestPipeline,
        FaultSchedule,
        StreamId,
        TermId,
        std::path::PathBuf,
    ) {
        let dir = temp_dir(tag);
        let faults = FaultSchedule::new();
        let store = Store::open_with_faults(&dir, faults.clone()).expect("open store");
        let config = IngestConfig {
            timeline_capacity: 32,
            miner: MinerKind::STLocal(STLocalConfig::default()),
            retry: RetryPolicy::immediate(max_retries),
            max_buffered_ticks: max_buffered,
            ..Default::default()
        };
        let (mut pipeline, _) =
            IngestPipeline::durable_with_store(config, store).expect("open pipeline");
        let s = pipeline.add_stream("A", GeoPoint::new(0.0, 0.0));
        let t = pipeline.intern("t");
        (pipeline, faults, s, t, dir)
    }

    fn commit_one(pipeline: &mut IngestPipeline, s: StreamId, t: TermId) -> TickReceipt {
        pipeline.stage_document(s, HashMap::from([(t, 2)]));
        pipeline.commit_tick()
    }

    #[test]
    fn transient_fault_within_retry_budget_stays_durable() {
        let (mut pipeline, faults, s, t, dir) = faulted_pipeline("retry-ok", 3, 8);
        faults.fail_next_at(FaultSite::WalAppend, InjectedFault::transient());
        let receipt = commit_one(&mut pipeline, s, t);
        assert_eq!(receipt.durability, DurabilityState::Durable);
        let h = pipeline.health();
        assert_eq!(h.store_retries, 1);
        assert_eq!(h.wal_failures, 0);
        assert_eq!(h.wal_appends, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_retries_degrade_then_recover_with_all_ticks_logged() {
        let (mut pipeline, faults, s, t, dir) = faulted_pipeline("degrade-recover", 1, 8);
        // Three transient faults: initial attempt + 1 retry exhaust the
        // policy, leaving one queued to also fail the in-commit restore.
        for _ in 0..3 {
            faults.fail_next_at(FaultSite::WalAppend, InjectedFault::transient());
        }
        let receipt = commit_one(&mut pipeline, s, t);
        assert!(receipt.durability.is_degraded());
        assert_eq!(pipeline.health().buffered_ticks, 1);

        // Disk heals: the next commit buffers its record, re-opens the
        // log, and replays both.
        faults.heal();
        let receipt = commit_one(&mut pipeline, s, t);
        assert_eq!(receipt.durability, DurabilityState::Durable);
        let h = pipeline.health();
        assert_eq!(h.buffered_ticks, 0);
        assert_eq!(h.recoveries, 1);
        assert!(h.last_error.is_none());
        // Every committed tick is on disk.
        let store = Store::open(&dir).expect("reopen");
        let replay = store.read_wal().expect("read wal");
        assert_eq!(replay.ticks.len(), 2);
        assert_eq!(replay.ticks[0].tick, 0);
        assert_eq!(replay.ticks[1].tick, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explicit_recovery_drains_the_buffer_without_a_commit() {
        let (mut pipeline, faults, s, t, dir) = faulted_pipeline("explicit-recover", 0, 8);
        faults.fail_next_at(FaultSite::WalAppend, InjectedFault::transient());
        let receipt = commit_one(&mut pipeline, s, t);
        assert!(receipt.durability.is_degraded());
        faults.heal();
        let state = pipeline.try_recover_durability();
        assert_eq!(state, DurabilityState::Durable);
        // No extra tick was committed to get there (bit-identity with a
        // never-faulted run depends on this).
        assert_eq!(pipeline.ticks_committed(), 1);
        let store = Store::open(&dir).expect("reopen");
        assert_eq!(store.read_wal().expect("read wal").ticks.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_failure_after_full_frame_is_not_duplicated_on_recovery() {
        let (mut pipeline, faults, s, t, dir) = faulted_pipeline("sync-fail", 0, 8);
        // The frame is fully written, then the durability step fails: the
        // record is on disk but unacknowledged.
        faults.fail_next_at(FaultSite::WalSync, InjectedFault::transient());
        let receipt = commit_one(&mut pipeline, s, t);
        assert!(receipt.durability.is_degraded());
        faults.heal();
        assert_eq!(pipeline.try_recover_durability(), DurabilityState::Durable);
        let store = Store::open(&dir).expect("reopen");
        let replay = store.read_wal().expect("read wal");
        let ticks: Vec<u64> = replay.ticks.iter().map(|r| r.tick).collect();
        assert_eq!(ticks, vec![0], "the persisted record must not repeat");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_partial_append_is_repaired_on_recovery() {
        let (mut pipeline, faults, s, t, dir) = faulted_pipeline("torn-append", 0, 8);
        faults.fail_next_at(FaultSite::WalAppend, InjectedFault::torn(5));
        let receipt = commit_one(&mut pipeline, s, t);
        assert!(receipt.durability.is_degraded());
        faults.heal();
        assert_eq!(pipeline.try_recover_durability(), DurabilityState::Durable);
        let store = Store::open(&dir).expect("reopen");
        let replay = store.read_wal().expect("read wal");
        assert_eq!(replay.ticks.len(), 1);
        assert_eq!(replay.discarded_bytes, 0, "torn bytes were truncated away");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn permanent_fault_fail_stops_to_non_durable() {
        let (mut pipeline, faults, s, t, dir) = faulted_pipeline("permanent", 3, 8);
        faults.fail_next_at(FaultSite::WalAppend, InjectedFault::permanent());
        let receipt = commit_one(&mut pipeline, s, t);
        assert_eq!(receipt.durability, DurabilityState::NonDurable);
        // No retries were wasted on a permanent error.
        assert_eq!(pipeline.health().store_retries, 0);
        // Fail-stop: healing alone does not revive it.
        faults.heal();
        assert_eq!(
            pipeline.try_recover_durability(),
            DurabilityState::NonDurable
        );
        // ...but an explicit successful checkpoint does.
        commit_one(&mut pipeline, s, t);
        pipeline.checkpoint().expect("checkpoint revives");
        assert_eq!(pipeline.durability_state(), DurabilityState::Durable);
        assert!(pipeline.health().last_error.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn buffer_overflow_fail_stops() {
        let (mut pipeline, faults, s, t, dir) = faulted_pipeline("overflow", 0, 2);
        // Every append and every restore attempt fails (storm of
        // transients far longer than the bound).
        faults.storm(3, 1000, 1000);
        let mut last = DurabilityState::Durable;
        for _ in 0..5 {
            last = commit_one(&mut pipeline, s, t).durability;
        }
        assert_eq!(last, DurabilityState::NonDurable);
        // The buffer was dropped at the cliff edge.
        assert_eq!(pipeline.health().buffered_ticks, 0);
        faults.heal();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn receipt_durability_reports_degradation_per_commit() {
        let (mut pipeline, faults, s, t, dir) = faulted_pipeline("receipt", 0, 8);
        assert_eq!(
            commit_one(&mut pipeline, s, t).durability,
            DurabilityState::Durable
        );
        faults.fail_next_at(FaultSite::WalAppend, InjectedFault::transient());
        faults.fail_next_at(FaultSite::WalRead, InjectedFault::transient());
        let degraded = commit_one(&mut pipeline, s, t);
        match degraded.durability {
            DurabilityState::Degraded {
                consecutive_failures,
                buffered_ticks,
            } => {
                assert!(consecutive_failures >= 1);
                assert_eq!(buffered_ticks, 1);
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ephemeral_pipeline_reports_ephemeral_health() {
        let (mut pipeline, streams) =
            two_cluster_pipeline(MinerKind::STLocal(STLocalConfig::default()), 4);
        let t = pipeline.intern("t");
        let receipt = burst_tick(&mut pipeline, &streams, t, false);
        assert_eq!(receipt.durability, DurabilityState::Ephemeral);
        assert_eq!(pipeline.health().durability, DurabilityState::Ephemeral);
    }

    #[test]
    fn search_handle_surfaces_health() {
        let (mut pipeline, faults, s, t, dir) = faulted_pipeline("handle-health", 0, 8);
        let handle = pipeline.search_handle();
        assert_eq!(handle.health().durability, DurabilityState::Durable);
        faults.fail_next_at(FaultSite::WalAppend, InjectedFault::transient());
        faults.fail_next_at(FaultSite::WalRead, InjectedFault::transient());
        commit_one(&mut pipeline, s, t);
        let h = handle.health();
        assert!(h.durability.is_degraded());
        assert_eq!(h.buffered_ticks, 1);
        assert!(h.last_error.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_catches_poison_documents() {
        let config = IngestConfig {
            timeline_capacity: 4,
            max_terms_per_doc: 10,
            ..Default::default()
        };
        let mut pipeline = IngestPipeline::new(config);
        let s = pipeline.add_stream("A", GeoPoint::new(0.0, 0.0));
        let t = pipeline.intern("t");

        let unknown_stream = StreamId(99);
        match pipeline.try_stage_document(unknown_stream, HashMap::from([(t, 1)])) {
            Ok(StageOutcome::Quarantined(QuarantineReason::UnknownStream)) => {}
            other => panic!("expected UnknownStream quarantine, got {other:?}"),
        }
        match pipeline.try_stage_document(s, HashMap::from([(TermId(42), 1)])) {
            Ok(StageOutcome::Quarantined(QuarantineReason::UnknownTerm)) => {}
            other => panic!("expected UnknownTerm quarantine, got {other:?}"),
        }
        match pipeline.try_stage_document(s, HashMap::from([(t, 11)])) {
            Ok(StageOutcome::Quarantined(QuarantineReason::OversizedDoc)) => {}
            other => panic!("expected OversizedDoc quarantine, got {other:?}"),
        }
        // The tick survives: a clean document commits normally.
        match pipeline.try_stage_document(s, HashMap::from([(t, 1)])) {
            Ok(StageOutcome::Staged) => {}
            other => panic!("expected Staged, got {other:?}"),
        }
        let receipt = pipeline.commit_tick();
        assert_eq!(receipt.new_docs.len(), 1);
        let h = pipeline.health();
        assert_eq!(h.quarantined, 3);
        assert_eq!(h.quarantined_total, 3);
        let reasons: Vec<QuarantineReason> = pipeline.quarantine_log().map(|q| q.reason).collect();
        assert_eq!(
            reasons,
            vec![
                QuarantineReason::UnknownStream,
                QuarantineReason::UnknownTerm,
                QuarantineReason::OversizedDoc
            ]
        );
    }

    #[test]
    fn quarantine_log_is_bounded_but_total_keeps_counting() {
        let config = IngestConfig {
            timeline_capacity: 4,
            max_quarantined_docs: 2,
            ..Default::default()
        };
        let mut pipeline = IngestPipeline::new(config);
        let _ = pipeline.add_stream("A", GeoPoint::new(0.0, 0.0));
        let t = pipeline.intern("t");
        for _ in 0..5 {
            let _ = pipeline.try_stage_document(StreamId(9), HashMap::from([(t, 1)]));
        }
        let h = pipeline.health();
        assert_eq!(h.quarantined, 2);
        assert_eq!(h.quarantined_total, 5);
    }

    #[test]
    fn backpressure_block_commits_inline() {
        let config = IngestConfig {
            timeline_capacity: 8,
            max_staged_docs: 2,
            backpressure: Backpressure::Block,
            ..Default::default()
        };
        let mut pipeline = IngestPipeline::new(config);
        let s = pipeline.add_stream("A", GeoPoint::new(0.0, 0.0));
        let t = pipeline.intern("t");
        for _ in 0..2 {
            match pipeline.try_stage_document(s, HashMap::from([(t, 1)])) {
                Ok(StageOutcome::Staged) => {}
                other => panic!("expected Staged, got {other:?}"),
            }
        }
        match pipeline.try_stage_document(s, HashMap::from([(t, 1)])) {
            Ok(StageOutcome::StagedAfterCommit(receipt)) => {
                assert_eq!(receipt.tick, 0);
                assert_eq!(receipt.new_docs.len(), 2);
            }
            other => panic!("expected StagedAfterCommit, got {other:?}"),
        }
        assert_eq!(pipeline.ticks_committed(), 1);
        assert_eq!(pipeline.health().staged_docs, 1);
    }

    #[test]
    fn backpressure_shed_drops_and_counts() {
        let config = IngestConfig {
            timeline_capacity: 8,
            max_staged_docs: 1,
            backpressure: Backpressure::Shed,
            ..Default::default()
        };
        let mut pipeline = IngestPipeline::new(config);
        let s = pipeline.add_stream("A", GeoPoint::new(0.0, 0.0));
        let t = pipeline.intern("t");
        let _ = pipeline.try_stage_document(s, HashMap::from([(t, 1)]));
        match pipeline.try_stage_document(s, HashMap::from([(t, 1)])) {
            Ok(StageOutcome::Shed) => {}
            other => panic!("expected Shed, got {other:?}"),
        }
        let receipt = pipeline.commit_tick();
        assert_eq!(receipt.new_docs.len(), 1, "shed doc never entered");
        assert_eq!(pipeline.health().docs_shed, 1);
    }

    #[test]
    fn backpressure_error_is_typed() {
        let config = IngestConfig {
            timeline_capacity: 8,
            max_staged_docs: 1,
            backpressure: Backpressure::Error,
            ..Default::default()
        };
        let mut pipeline = IngestPipeline::new(config);
        let s = pipeline.add_stream("A", GeoPoint::new(0.0, 0.0));
        let t = pipeline.intern("t");
        let _ = pipeline.try_stage_document(s, HashMap::from([(t, 1)]));
        match pipeline.try_stage_document(s, HashMap::from([(t, 1)])) {
            Err(IngestError::StagingFull { staged: 1, max: 1 }) => {}
            other => panic!("expected StagingFull, got {other:?}"),
        }
        // Committing drains the buffer and staging resumes.
        pipeline.commit_tick();
        assert!(matches!(
            pipeline.try_stage_document(s, HashMap::from([(t, 1)])),
            Ok(StageOutcome::Staged)
        ));
    }

    #[test]
    fn auto_checkpoint_failure_keeps_durability_and_retries_later() {
        let dir = temp_dir("auto-ckpt-fault");
        let faults = FaultSchedule::new();
        let store = Store::open_with_faults(&dir, faults.clone()).expect("open store");
        let config = IngestConfig {
            timeline_capacity: 8,
            miner: MinerKind::STLocal(STLocalConfig::default()),
            checkpoint_every_ticks: 2,
            retry: RetryPolicy::immediate(0),
            ..Default::default()
        };
        let (mut pipeline, _) =
            IngestPipeline::durable_with_store(config, store).expect("open pipeline");
        let s = pipeline.add_stream("A", GeoPoint::new(0.0, 0.0));
        let t = pipeline.intern("t");
        commit_one(&mut pipeline, s, t);
        // The 2nd commit triggers the auto-checkpoint; fail its snapshot
        // write. The WAL still holds every tick: durability is intact.
        faults.fail_next_at(FaultSite::SnapshotWrite, InjectedFault::transient());
        let receipt = commit_one(&mut pipeline, s, t);
        assert_eq!(receipt.durability, DurabilityState::Durable);
        let h = pipeline.health();
        assert_eq!(h.checkpoint_failures, 1);
        assert_eq!(h.checkpoints, 0);
        // The next commit retries the (now healed) checkpoint.
        commit_one(&mut pipeline, s, t);
        assert_eq!(pipeline.health().checkpoints, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
