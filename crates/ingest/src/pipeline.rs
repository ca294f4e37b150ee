//! The live ingestion pipeline: staged documents → tick commit → dirty-term
//! incremental mining → per-term index deltas.
//!
//! [`IngestPipeline`] sequences one serving loop out of the online
//! machinery the rest of the workspace provides; this module is that
//! orchestration (plus the [`SearchHandle`] readers use), and each step
//! lives in a private module of its own:
//!
//! 1. Documents are *staged* against the current open tick
//!    ([`IngestPipeline::stage_document`]) once `admission` lets them in;
//!    staging is cheap and tracks the tick's **dirty terms** (terms
//!    occurring in the staged documents).
//! 2. [`IngestPipeline::commit_tick`] closes the tick: its record goes
//!    through the `durability` state machine, the staged documents are
//!    applied to the [`LiveCollection`] (one copy-on-write generation), and
//!    `miner` re-mines only the dirty terms, catching each one's online
//!    burst state up through the tick.
//! 3. The resulting [`PatternDelta`]s are applied to the pipeline's
//!    [`ShardedEngine`]: the prebuilt posting index re-scores only the
//!    affected terms, and the commit *publishes* one new immutable serving
//!    generation that shares the engine's lists by pointer, invalidating
//!    precisely the cached queries that involve them.
//!
//! Readers ([`SearchHandle`]) clone the current generation's `Arc` under a
//! read lock held for that clone alone, so a query never waits on a commit
//! and observes either the previous tick's generation or the new one, never
//! a half-applied commit. Cold start from a store directory is `recovery`.
//!
//! # Equivalence with the batch path
//!
//! Replaying a corpus tick-by-tick and then querying is *byte-identical* to
//! batch-building the collection, batch-mining every term, and finalizing
//! the engine (property-tested in this crate, cache on and off). The
//! dirty-term restriction is exact because `STLocal` is streaming by
//! construction: a term absent from a tick has non-positive burstiness in
//! every stream, which can neither create rectangles nor change any
//! tracked window — its patterns are unchanged. A term's relevance depends
//! on its own frequency alone, so its posting list only moves when its own
//! documents arrive: a commit re-mines and re-scores exactly the tick's
//! dirty terms, whether or not the timeline grows.
//!
//! There is one mining regime: a term's `STLocal` miner steps only when the
//! term is dirty or read, replaying from the collection every tick it has
//! not seen yet. A quiet term's skipped ticks, a late-arriving term's
//! (all-zero) history, and every term's history after a new stream or a
//! restart are all the same catch-up, so they converge to the same state
//! as the batch run.

use crate::admission::{Admission, Decision};
use crate::durability::DurabilityLayer;
use crate::live::LiveCollection;
use crate::miner::Miners;
use crate::obs::PipelineObs;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use stb_obs::{Counter, SpanClock, SpanKind};

use stb_corpus::{Collection, StreamId, TermId, Timestamp, Tokenizer};
use stb_geo::{GeoPoint, Point2D};
use stb_search::{EngineMetrics, Query, QueryError, QueryResponse, ServingFront, ShardedEngine};
use stb_store::{
    DocRecord, PendingState, SnapshotState, StoreError, StreamRecord, TermRecord, TickRecord,
};
use stb_subscribe::{SubscriptionHandle, SubscriptionOptions, SubscriptionRegistry};

pub use crate::admission::Backpressure;
pub(crate) use crate::admission::StageOutcome;
pub use crate::config::IngestConfig;
pub use crate::durability::DurabilityState;
pub use crate::miner::{MinerKind, PatternDelta};
pub use crate::recovery::RecoveryReport;
pub use crate::report::{HealthReport, PipelineMetrics, TickReceipt};

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
    /// The pipeline's standing-subscription registry, notified by every
    /// commit right after publish.
    subscriptions: Arc<SubscriptionRegistry>,
}

impl SearchHandle {
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

/// Closes the commit stage that just ended, when the commit is traced.
fn lap(clock: &mut Option<SpanClock>, kind: SpanKind) {
    if let Some(clock) = clock {
        clock.lap(kind);
    }
}

/// A document staged for the open tick.
#[derive(Debug, Clone)]
pub(crate) struct StagedDoc {
    pub(crate) stream: StreamId,
    pub(crate) counts: HashMap<TermId, u32>,
}

impl StagedDoc {
    /// The document as the WAL and the snapshot persist it: counts sorted
    /// by term id, so the bytes do not depend on hash order.
    fn to_record(&self) -> DocRecord {
        let mut counts: Vec<(TermId, u32)> = self.counts.iter().map(|(&t, &c)| (t, c)).collect();
        counts.sort_by_key(|&(t, _)| t);
        DocRecord {
            stream: self.stream,
            counts,
        }
    }
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
    pub(crate) live: LiveCollection,
    /// The sharded write side; its [`ServingFront`] serves the reads.
    pub(crate) engine: ShardedEngine,
    pub(crate) miners: Miners,
    admission: Admission,
    pub(crate) durability: DurabilityLayer,
    pub(crate) staged: Vec<StagedDoc>,
    /// Terms occurring in the staged documents of the open tick.
    pub(crate) dirty: BTreeSet<TermId>,
    pub(crate) ticks_committed: usize,
    /// `Arc<Counter>` cells rather than plain integers (here and in the
    /// layers) so [`IngestPipeline::attach_obs`] can adopt the *same* cells
    /// into the observability registry — [`PipelineMetrics`] and
    /// [`HealthReport`] stay exact views of what the registry exports.
    docs_ingested: Arc<Counter>,
    last_commit_ms: f64,
    /// The `ingest_commit_ns` p99 as of the last commit — the histogram
    /// only changes there, so health publishes never re-read it.
    commit_p99_ms: Option<f64>,
    /// Attached observability bundle, if any (commit traces, durability
    /// gauges; search/WAL instrumentation is attached to the engine front
    /// and log writers directly).
    obs: Option<Arc<PipelineObs>>,
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
            admission: Admission::new(&config),
            durability: DurabilityLayer::ephemeral(&config),
            miners: Miners::new(config.miner),
            staged: Vec::new(),
            dirty: BTreeSet::new(),
            ticks_committed: 0,
            docs_ingested: Arc::default(),
            last_commit_ms: 0.0,
            commit_p99_ms: None,
            obs: None,
            subscriptions,
        }
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
        for (name, cell) in [
            ("ingest_docs_total", &self.docs_ingested),
            ("ingest_docs_shed_total", &self.admission.docs_shed),
            (
                "ingest_quarantined_total",
                &self.admission.quarantined_total,
            ),
            ("ingest_catchup_replays_total", &self.miners.catchup_replays),
        ] {
            obs.registry().adopt_counter(name, Arc::clone(cell));
        }
        self.durability.attach_obs(obs);
        self.subscriptions.register_obs(obs.registry());
        self.commit_p99_ms = obs.commit_p99_ms();
        self.obs = Some(Arc::clone(obs));
        self.publish_health();
    }

    /// A cloneable query handle over the engine's serving front.
    pub fn search_handle(&self) -> SearchHandle {
        SearchHandle {
            front: self.engine.front(),
            subscriptions: Arc::clone(&self.subscriptions),
        }
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
    #[cfg(test)]
    pub(crate) fn timeline_len(&self) -> usize {
        self.live.timeline_len()
    }

    /// Interns a term (new or existing) into the live dictionary.
    pub fn intern(&mut self, term: &str) -> TermId {
        self.live.intern(term)
    }

    /// Registers a new stream; takes effect for miners at the next commit.
    pub fn add_stream(&mut self, name: &str, geostamp: GeoPoint) -> StreamId {
        let id = self.live.add_stream(name, geostamp);
        self.miners.mark_structural();
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
        self.miners.mark_structural();
        id
    }

    /// Stages a document for the open tick: poison documents are
    /// quarantined silently and a full staging buffer follows the
    /// configured [`Backpressure`] policy.
    pub fn stage_document(&mut self, stream: StreamId, counts: HashMap<TermId, u32>) {
        self.try_stage_document(stream, counts);
    }

    /// Stages a document for the open tick, reporting how it was disposed
    /// of.
    ///
    /// Poison inputs — an unknown stream (applying it would panic the
    /// commit), a term id beyond the dictionary (it would poison WAL
    /// replay and scoring), or a term count over
    /// [`IngestConfig::max_terms_per_doc`] — are refused with their
    /// `QuarantineReason` instead of killing the tick. A staging buffer at
    /// [`IngestConfig::max_staged_docs`] triggers the configured
    /// [`Backpressure`] policy.
    pub(crate) fn try_stage_document(
        &mut self,
        stream: StreamId,
        counts: HashMap<TermId, u32>,
    ) -> StageOutcome {
        match self
            .admission
            .decide(self.live.collection(), self.staged.len(), stream, &counts)
        {
            Decision::Quarantine(reason) => {
                self.admission.quarantined_total.inc();
                self.publish_health();
                StageOutcome::Quarantined(reason)
            }
            Decision::Full => match self.admission.backpressure {
                Backpressure::Block => {
                    self.commit_tick();
                    self.stage_raw(stream, counts);
                    self.publish_health();
                    StageOutcome::StagedAfterCommit
                }
                Backpressure::Shed => {
                    self.admission.docs_shed.inc();
                    self.publish_health();
                    StageOutcome::Shed
                }
            },
            Decision::Admit => {
                self.stage_raw(stream, counts);
                StageOutcome::Staged
            }
        }
    }

    /// Unchecked staging: trusted callers only (validated inputs and WAL
    /// replay, which must be bit-identical to the original run).
    pub(crate) fn stage_raw(&mut self, stream: StreamId, counts: HashMap<TermId, u32>) {
        self.dirty.extend(counts.keys().copied());
        self.staged.push(StagedDoc { stream, counts });
    }

    /// Stages a raw-text document for the open tick, tokenizing with
    /// `tokenizer` and interning new terms into the live dictionary.
    pub fn stage_text_document(&mut self, stream: StreamId, text: &str, tokenizer: &Tokenizer) {
        let counts = self.live.term_counts(text, tokenizer);
        self.stage_document(stream, counts);
    }

    /// Commits the open tick: applies the staged documents, re-mines the
    /// dirty terms (catching each one's online burst state up through the
    /// tick), and publishes the new snapshot plus its [`PatternDelta`]s to
    /// the engine.
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
        if let Some(logged) = self.durability.logged() {
            self.durability.log(self.open_tick_record(logged));
            lap(&mut clock, SpanKind::WalAppend);
        }
        let mut receipt = self.apply_commit(&mut clock);
        if let (Some(obs), Some(clock)) = (&self.obs, clock) {
            obs.record_commit(clock);
            self.commit_p99_ms = obs.commit_p99_ms();
        }
        if self.durability.checkpoint_due() {
            // An auto-checkpoint failure is not a durability loss — the WAL
            // still holds every tick — so it only bumps the failure counter
            // (inside `checkpoint`) and compaction is retried next commit.
            let _ = self.checkpoint();
        }
        receipt.durability = self.durability_state();
        self.publish_health();
        receipt
    }

    /// Attempts to return a `Degraded` pipeline to `Durable` immediately —
    /// re-opening the log and replaying the buffered ticks — without
    /// waiting for the next commit to do it. A no-op in every other state
    /// (`NonDurable` is fail-stop by design; see [`DurabilityState`]).
    /// Returns the state the pipeline is in afterwards.
    pub fn try_recover_durability(&mut self) -> DurabilityState {
        self.durability.try_restore();
        self.publish_health();
        self.durability_state()
    }

    /// The WAL record describing the open tick: everything staged, plus
    /// the streams and terms registered beyond the `logged` counts (since
    /// the last logged tick or checkpoint).
    fn open_tick_record(&self, (logged_streams, logged_terms): (usize, usize)) -> TickRecord {
        let collection = self.live.collection();
        let new_streams = collection.streams()[logged_streams..]
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
            .skip(logged_terms)
            .map(|(id, text)| TermRecord {
                id,
                text: text.to_string(),
            })
            .collect();
        TickRecord {
            tick: self.ticks_committed as u64,
            new_streams,
            new_terms,
            docs: self.staged.iter().map(StagedDoc::to_record).collect(),
        }
    }

    /// Applies the open tick to the in-memory state (the whole of
    /// [`IngestPipeline::commit_tick`] minus durability), lapping `clock`
    /// after each stage: apply → mine → publish → notify.
    pub(crate) fn apply_commit(&mut self, clock: &mut Option<SpanClock>) -> TickReceipt {
        let start = Instant::now();
        let tick = self.ticks_committed;

        // Grow the timeline if the open tick runs past it.
        if tick >= self.live.timeline_len() {
            self.live.extend_timeline(tick + 1);
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
        lap(clock, SpanKind::ApplyDocs);

        // Mine. Dirty terms get fresh patterns; only their miners step, each
        // catching up through this tick.
        let mut dirty = std::mem::take(&mut self.dirty);
        let deltas = self.miners.mine(&snapshot, tick, &mut dirty);
        lap(clock, SpanKind::Mine);

        // Publish: swap the snapshot in, apply the per-term deltas, and
        // push one new serving generation to the front. Readers do not
        // wait on this — they keep serving the previous generation until
        // the final pointer swap.
        self.engine
            .update_collection(Arc::clone(&snapshot), &new_docs);
        for delta in &deltas {
            self.engine
                .set_pattern_records(delta.term, Arc::clone(&delta.patterns));
        }
        self.engine.publish();
        lap(clock, SpanKind::Publish);

        if !self.subscriptions.is_empty() && self.notify(tick, &dirty, &deltas) > 0 {
            lap(clock, SpanKind::Notify);
        }

        let commit_ms = start.elapsed().as_secs_f64() * 1000.0;
        self.last_commit_ms = commit_ms;
        TickReceipt {
            tick,
            new_docs,
            deltas,
            commit_ms,
            durability: self.durability_state(),
        }
    }

    /// Notifies standing subscriptions against the generation just
    /// published: the registrations whose terms intersect `trigger_terms`
    /// are re-evaluated (their count is returned) and pushed a diff — inside
    /// the commit, so the cost shows in commit latency.
    fn notify(
        &self,
        tick: Timestamp,
        trigger_terms: &BTreeSet<TermId>,
        deltas: &[PatternDelta],
    ) -> usize {
        let report = self
            .subscriptions
            .on_commit(tick as u64, trigger_terms, |term| {
                // Deltas are mined in term order, one per dirty term.
                deltas
                    .binary_search_by_key(&term, |d| d.term)
                    .map_or_else(|_| Arc::default(), |i| Arc::clone(&deltas[i].patterns))
            });
        report.evaluated
    }

    /// Writes a snapshot of the current inputs (collection, patterns,
    /// pending bookkeeping) and truncates the WAL back to
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
        if !self.durability.is_attached() {
            return Err(StoreError::NotDurable);
        }
        let state = self.export_snapshot_state();
        let result = self.durability.checkpoint(&state);
        self.publish_health();
        result
    }

    /// Exports the pipeline's full state as a snapshot value (what
    /// [`IngestPipeline::checkpoint`] persists).
    pub fn export_snapshot_state(&self) -> SnapshotState {
        SnapshotState {
            ticks_committed: self.ticks_committed as u64,
            collection: self.live.snapshot(),
            patterns: self.engine.pattern_records(),
            pending: PendingState {
                structural_dirty: self.miners.structural_dirty(),
                dirty_terms: self.dirty.iter().copied().collect(),
                staged: self.staged.iter().map(StagedDoc::to_record).collect(),
            },
        }
    }

    /// The durability contract the pipeline is currently honoring.
    pub fn durability_state(&self) -> DurabilityState {
        self.durability.state()
    }

    /// A current health summary: durability state, failure/retry counters,
    /// queue depths, shed and quarantine counts. See [`HealthReport`].
    pub fn health(&self) -> HealthReport {
        let mut report = HealthReport {
            staged_docs: self.staged.len(),
            dirty_terms: self.dirty.len(),
            last_commit_ms: self.last_commit_ms,
            commit_p99_ms: self.commit_p99_ms,
            ..HealthReport::default()
        };
        self.admission.report(&mut report);
        self.durability.report(&mut report);
        report
    }

    /// Refreshes, when observability is attached, the durability and
    /// queue-depth gauges.
    pub(crate) fn publish_health(&mut self) {
        if let Some(obs) = &self.obs {
            obs.set_health(&self.health());
        }
    }

    /// Whether this pipeline has a durable store attached.
    #[cfg(test)]
    pub(crate) fn is_durable(&self) -> bool {
        self.durability.is_attached()
    }

    /// The pipeline's current mining output for one term: the windows its
    /// `STLocal` miner accumulates over the committed ticks, or a fresh
    /// combinatorial pass over the current collection. Useful for
    /// inspecting pattern state without going through a [`TickReceipt`].
    pub fn current_patterns(&self, term: TermId) -> PatternDelta {
        self.miners
            .current_patterns(self.live.collection(), self.ticks_committed, term)
    }

    /// A snapshot of the pipeline's counters.
    pub fn metrics(&self) -> PipelineMetrics {
        PipelineMetrics {
            docs_ingested: self.docs_ingested.get(),
            staged_docs: self.staged.len(),
            tracked_miners: self.miners.tracked(),
            catchup_replays: self.miners.catchup_replays.get(),
            generation: self.live.generation(),
            checkpoints: self.durability.checkpoints.get(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! The orchestration's own tests, plus the fixtures the layer modules'
    //! tests share.

    use super::*;
    use stb_core::{PatternRecord, STLocal, STLocalConfig};
    use stb_search::SearchResult;
    use stb_store::{FaultSchedule, RetryPolicy, Store};

    /// Typed-API term query through a live handle.
    pub(crate) fn run(handle: &SearchHandle, terms: &[TermId], k: usize) -> Vec<SearchResult> {
        handle
            .query(&Query::terms(terms.iter().copied()).top_k(k))
            .map(|r| r.results)
            .unwrap_or_default()
    }

    /// Typed-API text query through a live handle; unknown words make the
    /// query vacuously empty (the live-serving default while a term has not
    /// arrived yet).
    pub(crate) fn run_text(handle: &SearchHandle, text: &str, k: usize) -> Vec<SearchResult> {
        handle
            .query(
                &Query::text(text)
                    .top_k(k)
                    .unknown_words(stb_search::UnknownWords::EmptyResponse),
            )
            .map(|r| r.results)
            .unwrap_or_default()
    }

    pub(crate) fn two_cluster_pipeline(
        miner: MinerKind,
        capacity: usize,
    ) -> (IngestPipeline, Vec<StreamId>) {
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

    pub(crate) fn burst_tick(
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

    /// Fresh per-test store directory under the system temp dir.
    pub(crate) fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("stb-ingest-durable-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    pub(crate) fn durable_config(ticks: usize) -> IngestConfig {
        IngestConfig {
            timeline_capacity: ticks,
            miner: MinerKind::STLocal(STLocalConfig::default()),
            ..Default::default()
        }
    }

    /// Drives `ticks` bursty ticks through a durable pipeline in `dir` and
    /// returns the pipeline plus the interned term.
    pub(crate) fn durable_burst_run(
        dir: &std::path::Path,
        ticks: usize,
    ) -> (IngestPipeline, TermId) {
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

    /// A durable pipeline over a fault-schedule store, with zero-backoff
    /// retries so tests run instantly, plus one registered stream/term.
    pub(crate) fn faulted_pipeline(
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

    /// Asserts two pattern sets are equal record by record, scores by
    /// `to_bits`.
    pub(crate) fn assert_same_patterns(expect: &[PatternRecord], got: &[PatternRecord]) {
        assert_eq!(expect.len(), got.len(), "pattern count");
        for (e, g) in expect.iter().zip(got) {
            assert_eq!(e.score.to_bits(), g.score.to_bits(), "score bits");
            assert_eq!(e.timeframe, g.timeframe);
            assert_eq!(e.streams, g.streams);
            assert_eq!(e.region, g.region);
        }
    }

    /// The batch oracle: `term`'s patterns from one `STLocal` pass over
    /// the whole of `collection`, captured as the live path captures them.
    pub(crate) fn batch_patterns(collection: &Collection, term: TermId) -> Vec<PatternRecord> {
        let (patterns, _) = STLocal::mine_collection(collection, term, STLocalConfig::default());
        let positions = collection.positions();
        patterns
            .iter()
            .map(|p| PatternRecord::capture(p, &positions))
            .collect()
    }

    pub(crate) fn commit_one(pipeline: &mut IngestPipeline, s: StreamId, t: TermId) -> TickReceipt {
        pipeline.stage_document(s, HashMap::from([(t, 2)]));
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
            assert!(receipt.deltas.iter().all(|d| d.term == quake));
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

    /// One capture per dirty term per tick: the receipt's delta and every
    /// trigger the tick delivers for that term are one allocation.
    #[test]
    fn triggers_share_the_tick_capture() {
        let (mut pipeline, streams) =
            two_cluster_pipeline(MinerKind::STLocal(STLocalConfig::default()), 12);
        let quake = pipeline.intern("quake");
        let sub = pipeline
            .search_handle()
            .subscribe(
                &Query::terms([quake]).top_k(3),
                SubscriptionOptions::default(),
            )
            .expect("subscribe");
        let mut shared = 0;
        for tick in 0..12 {
            let receipt = burst_tick(&mut pipeline, &streams, quake, (4..7).contains(&tick));
            let [delta] = &receipt.deltas[..] else {
                panic!("quake is the only dirty term");
            };
            for diff in sub.drain() {
                for trigger in &diff.triggers {
                    assert!(Arc::ptr_eq(&trigger.patterns, &delta.patterns));
                    shared += 1;
                }
            }
        }
        assert!(shared > 0, "the burst must have notified the subscription");
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
    fn metrics_report_queue_depths() {
        let (mut pipeline, streams) =
            two_cluster_pipeline(MinerKind::STLocal(STLocalConfig::default()), 8);
        let t = pipeline.intern("t");
        pipeline.stage_document(streams[0], HashMap::from([(t, 1)]));
        assert_eq!(pipeline.metrics().staged_docs, 1);
        assert_eq!(pipeline.health().dirty_terms, 1);
        assert_eq!(pipeline.ticks_committed(), 0);
        pipeline.commit_tick();
        let m = pipeline.metrics();
        assert_eq!(m.staged_docs, 0);
        assert_eq!(pipeline.health().dirty_terms, 0);
        assert_eq!(pipeline.ticks_committed(), 1);
        assert_eq!(m.docs_ingested, 1);
        assert_eq!(m.tracked_miners, 1);
        assert!(pipeline.health().last_commit_ms >= 0.0);
        assert!(pipeline.search_handle().metrics().finalized);
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
        assert_eq!(
            snap.counter("ingest_docs_total"),
            Some(pipeline.metrics().docs_ingested)
        );
        let served = handle.metrics();
        assert_eq!(
            snap.counter("search_queries_total"),
            Some(served.cache_hits + served.cache_misses)
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
        assert_eq!(pipeline.ticks_committed(), 12);
        assert!(h.commit_p99_ms.is_some());
        assert!(h.durability_state_secs >= 0.0);

        // The exposition endpoints render the live cells.
        let prom = obs.registry().render_prometheus();
        assert!(prom.contains("ingest_commits_total 12"));
        assert!(prom.contains("ingest_commit_ns{quantile=\"0.99\"}"));
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
}
