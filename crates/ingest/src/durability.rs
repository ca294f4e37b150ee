//! The durability state machine: what a durable pipeline does with each
//! tick record while store faults accumulate and recede.
//!
//! The state carries its own payload — a log writer exists exactly in
//! `Durable`, a buffer of unlogged records exactly in `Degraded` — and is
//! written by exactly two functions: [`DurabilityLayer::fail`] (every way
//! durability is lost, or stays lost) and [`DurabilityLayer::restored`]
//! (the way back). Both restart the time-in-state clock and count the
//! transition where it happens.

use crate::config::IngestConfig;
use crate::obs::PipelineObs;
#[cfg(doc)]
use crate::pipeline::IngestPipeline;
use crate::report::HealthReport;
use std::mem;
use std::sync::Arc;
use std::time::Instant;

use stb_corpus::Collection;
use stb_obs::Counter;
use stb_store::{Durability, RetryPolicy, SnapshotState, Store, StoreError, TickRecord, WalWriter};

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
    #[cfg(test)]
    pub(crate) fn is_degraded(&self) -> bool {
        matches!(self, DurabilityState::Degraded { .. })
    }
}

/// What a state without a log writer remembers of how it got there.
struct Fault {
    /// Store failures since durability was last intact.
    failures: u32,
    last_error: StoreError,
}

/// [`DurabilityState`] with the resources each state owns.
enum State {
    Ephemeral,
    /// `wal` is positioned right after the last committed tick's record.
    Durable {
        store: Store,
        wal: WalWriter,
    },
    /// `unlogged` holds the committed tick records (at most
    /// `max_buffered_ticks`) awaiting replay into a re-opened log.
    Degraded {
        store: Store,
        unlogged: Vec<TickRecord>,
        fault: Fault,
    },
    NonDurable {
        store: Store,
        fault: Fault,
    },
}

/// The durability layer of a pipeline: the state machine, the logging
/// watermarks, the checkpoint cadence and the store counters.
pub(crate) struct DurabilityLayer {
    state: State,
    /// When the current state was entered.
    since: Instant,
    /// Streams already recorded in the snapshot, the WAL, or the degraded
    /// buffer; the next tick record logs only registrations beyond this
    /// count. Buffered records count as logically logged — they carry the
    /// registrations and will reach the log when the buffer replays.
    logged_streams: usize,
    /// Terms already recorded in the snapshot, the WAL, or the buffer.
    logged_terms: usize,
    ticks_since_checkpoint: usize,
    checkpoint_every_ticks: usize,
    sync: Durability,
    retry: RetryPolicy,
    max_buffered_ticks: usize,
    pub(crate) wal_appends: Arc<Counter>,
    wal_failures: Arc<Counter>,
    store_retries: Arc<Counter>,
    recoveries: Arc<Counter>,
    pub(crate) checkpoints: Arc<Counter>,
    checkpoint_failures: Arc<Counter>,
    /// Source of the WAL metric cells for every writer opened here, and of
    /// the transition counter.
    obs: Option<Arc<PipelineObs>>,
}

impl DurabilityLayer {
    /// The layer of a pipeline without a store.
    pub(crate) fn ephemeral(config: &IngestConfig) -> Self {
        Self {
            state: State::Ephemeral,
            since: Instant::now(),
            logged_streams: 0,
            logged_terms: 0,
            ticks_since_checkpoint: 0,
            checkpoint_every_ticks: config.checkpoint_every_ticks,
            sync: config.durability,
            retry: config.retry.clone(),
            max_buffered_ticks: config.max_buffered_ticks,
            wal_appends: Arc::default(),
            wal_failures: Arc::default(),
            store_retries: Arc::default(),
            recoveries: Arc::default(),
            checkpoints: Arc::default(),
            checkpoint_failures: Arc::default(),
            obs: None,
        }
    }

    /// Attaches `store` after a cold recovery: `collection` is what its
    /// snapshot plus the first `valid_len` bytes of its log hold.
    pub(crate) fn open(
        self,
        store: Store,
        valid_len: u64,
        collection: &Collection,
    ) -> Result<Self, StoreError> {
        let policy = self.retry.clone();
        let (wal, retries) = policy.run(|| self.writer_at(&store, valid_len));
        self.store_retries.add(u64::from(retries));
        Ok(Self {
            state: State::Durable { store, wal: wal? },
            logged_streams: collection.n_streams(),
            logged_terms: collection.dict().len(),
            ..self
        })
    }

    /// A writer appending after the log's first `valid_len` (verified)
    /// bytes, truncating any torn tail, wired to the attached WAL metrics.
    fn writer_at(&self, store: &Store, valid_len: u64) -> Result<WalWriter, StoreError> {
        let mut writer = store.wal_writer(valid_len, self.sync)?;
        if let Some(obs) = &self.obs {
            writer.set_obs(obs.wal().clone());
        }
        Ok(writer)
    }

    /// Adopts the store counters into `obs`'s registry and wires its WAL
    /// metrics to the open writer and to every writer opened later.
    pub(crate) fn attach_obs(&mut self, obs: &Arc<PipelineObs>) {
        for (name, cell) in [
            ("ingest_wal_appends_total", &self.wal_appends),
            ("ingest_wal_failures_total", &self.wal_failures),
            ("ingest_store_retries_total", &self.store_retries),
            ("ingest_recoveries_total", &self.recoveries),
            ("ingest_checkpoints_total", &self.checkpoints),
            (
                "ingest_checkpoint_failures_total",
                &self.checkpoint_failures,
            ),
        ] {
            obs.registry().adopt_counter(name, Arc::clone(cell));
        }
        if let State::Durable { wal, .. } = &mut self.state {
            wal.set_obs(obs.wal().clone());
        }
        self.obs = Some(Arc::clone(obs));
    }

    /// The attached store, in whatever durability state.
    pub(crate) fn store(&self) -> Option<&Store> {
        match &self.state {
            State::Ephemeral => None,
            State::Durable { store, .. }
            | State::Degraded { store, .. }
            | State::NonDurable { store, .. } => Some(store),
        }
    }

    pub(crate) fn is_attached(&self) -> bool {
        self.store().is_some()
    }

    /// `(streams, terms)` already logged — the next tick record carries
    /// the registrations beyond them. `None` without a store.
    pub(crate) fn logged(&self) -> Option<(usize, usize)> {
        self.is_attached()
            .then_some((self.logged_streams, self.logged_terms))
    }

    pub(crate) fn state(&self) -> DurabilityState {
        match &self.state {
            State::Ephemeral => DurabilityState::Ephemeral,
            State::Durable { .. } => DurabilityState::Durable,
            State::Degraded {
                unlogged, fault, ..
            } => DurabilityState::Degraded {
                consecutive_failures: fault.failures,
                buffered_ticks: unlogged.len(),
            },
            State::NonDurable { .. } => DurabilityState::NonDurable,
        }
    }

    fn fault(&self) -> Option<&Fault> {
        match &self.state {
            State::Degraded { fault, .. } | State::NonDurable { fault, .. } => Some(fault),
            State::Ephemeral | State::Durable { .. } => None,
        }
    }

    /// Routes the open tick's record through the state machine: appended
    /// (transient failures retried) while `Durable`, buffered and followed
    /// by a recovery attempt while `Degraded`, dropped after a fail-stop —
    /// logging has ceased until an explicit checkpoint succeeds, which
    /// persists everything and makes the record moot.
    pub(crate) fn log(&mut self, record: TickRecord) {
        // The record captures all registrations since the last logged
        // tick, whether it reaches the WAL now or waits in the degraded
        // buffer — advance the watermarks either way so the next record
        // does not re-capture them.
        self.logged_streams += record.new_streams.len();
        self.logged_terms += record.new_terms.len();
        let policy = self.retry.clone();
        match &mut self.state {
            State::Durable { wal, .. } => {
                let (result, retries) = policy.run(|| wal.append(&record));
                self.store_retries.add(u64::from(retries));
                match result {
                    Ok(()) => self.wal_appends.inc(),
                    Err(e) => self.fail(Some(e), Some(record)),
                }
            }
            State::Degraded { unlogged, .. } if unlogged.len() < self.max_buffered_ticks => {
                unlogged.push(record);
                self.try_restore();
            }
            State::Degraded { .. } => self.fail(None, Some(record)),
            State::NonDurable { .. } | State::Ephemeral => {}
        }
    }

    /// One degraded-mode recovery attempt (a no-op in every other state):
    /// re-read the log (computing which buffered ticks a
    /// failed-but-persisted append already placed on disk), re-open the
    /// writer at the verified valid length (truncating any torn partial
    /// frame), and replay the buffer.
    ///
    /// The whole attempt runs under the retry policy, and the disk state
    /// is re-read on every retry — a record that landed during a previous
    /// partial attempt is never appended twice.
    pub(crate) fn try_restore(&mut self) {
        let (store, unlogged) = match &self.state {
            State::Degraded {
                store, unlogged, ..
            } => (store, unlogged),
            _ => return,
        };
        let policy = self.retry.clone();
        let (result, retries) = policy.run(|| {
            let replay = store.read_wal()?;
            // A failed append (or a sync failure after a complete frame
            // write) may have left a fully valid record on disk. Buffered
            // records below `disk_next` are identical to their on-disk
            // twins — tick records are built deterministically — so they
            // are skipped, never duplicated.
            let disk_next = replay.ticks.last().map_or(0, |t| t.tick + 1);
            let mut writer = self.writer_at(store, replay.valid_len)?;
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
                self.wal_appends.add(appended);
                self.restored(writer);
            }
            Err(e) => self.fail(Some(e), None),
        }
    }

    /// Every way durability is lost or stays lost. `error` is the store
    /// failure that exhausted its retries — `None` when nothing new failed
    /// and the degraded buffer simply has no room for `record`, a committed
    /// tick that did not reach the log. The layer buffers in `Degraded`
    /// while the failure is transient and the buffer within its bound, and
    /// fail-stops to `NonDurable` otherwise.
    fn fail(&mut self, error: Option<StoreError>, record: Option<TickRecord>) {
        let newly = u32::from(error.is_some());
        let retryable = error.as_ref().is_some_and(StoreError::is_transient);
        let standing = || self.fault().map(|f| f.last_error.duplicate());
        let Some(last_error) = error.or_else(standing) else {
            return;
        };
        let before = mem::discriminant(&self.state);
        let (store, mut unlogged, failures) = match mem::replace(&mut self.state, State::Ephemeral)
        {
            State::Ephemeral => return,
            // The writer is dropped: nothing may be stacked on top of a
            // possibly half-written frame; recovery re-opens at the
            // verified valid length.
            State::Durable { store, .. } => (store, Vec::new(), 0),
            State::Degraded {
                store,
                unlogged,
                fault,
            } => (store, unlogged, fault.failures),
            State::NonDurable { store, fault } => (store, Vec::new(), fault.failures),
        };
        self.wal_failures.add(u64::from(newly));
        unlogged.extend(record);
        let fault = Fault {
            failures: failures + newly,
            last_error,
        };
        self.state = if retryable && unlogged.len() <= self.max_buffered_ticks {
            State::Degraded {
                store,
                unlogged,
                fault,
            }
        } else {
            // Fail-stop. The buffer is dropped: its records are already
            // applied in memory, and the only way back to durability — an
            // explicit successful checkpoint — snapshots the full state
            // anyway.
            State::NonDurable { store, fault }
        };
        self.stamp(before);
    }

    /// The way back to `Durable`: `wal` is positioned on a log that,
    /// together with the snapshot, covers every committed tick.
    fn restored(&mut self, wal: WalWriter) {
        let before = mem::discriminant(&self.state);
        let store = match mem::replace(&mut self.state, State::Ephemeral) {
            State::Ephemeral => return,
            State::Durable { store, .. } => store,
            State::Degraded { store, .. } | State::NonDurable { store, .. } => {
                self.recoveries.inc();
                store
            }
        };
        self.state = State::Durable { store, wal };
        self.stamp(before);
    }

    /// Restarts the time-in-state clock and counts the transition if the
    /// state is no longer the `before` one.
    fn stamp(&mut self, before: mem::Discriminant<State>) {
        if mem::discriminant(&self.state) != before {
            self.since = Instant::now();
            if let Some(obs) = &self.obs {
                obs.durability_transition();
            }
        }
    }

    /// Counts one commit towards the auto-checkpoint cadence; true when the
    /// cadence is reached with durability intact.
    pub(crate) fn checkpoint_due(&mut self) -> bool {
        self.ticks_since_checkpoint += 1;
        self.checkpoint_every_ticks > 0
            && self.ticks_since_checkpoint >= self.checkpoint_every_ticks
            && matches!(self.state, State::Durable { .. })
    }

    /// Persists `state` as the snapshot and rotates the log; see
    /// [`IngestPipeline::checkpoint`] for the contract.
    pub(crate) fn checkpoint(&mut self, state: &SnapshotState) -> Result<u64, StoreError> {
        let store = self.store().ok_or(StoreError::NotDurable)?.clone();
        let policy = self.retry.clone();
        let (result, retries) = policy.run(|| store.write_snapshot(state));
        self.store_retries.add(u64::from(retries));
        // On failure the snapshot never replaced the previous one (atomic
        // rename), and the WAL is untouched: durability state is
        // unchanged, only the compaction failed.
        let bytes = result.inspect_err(|_| self.checkpoint_failures.inc())?;
        // The snapshot now durably covers everything committed; the
        // degraded buffer and the old log contents are obsolete.
        if let State::Degraded { unlogged, .. } = &mut self.state {
            unlogged.clear();
        }
        match self.rotate(&store) {
            Ok(Some(wal)) => self.restored(wal),
            Ok(None) => {}
            Err(e) => {
                // Data is safe (the snapshot landed) but the log could not
                // be rotated: degrade so subsequent commits retry the
                // re-open.
                self.checkpoint_failures.inc();
                self.fail(Some(e.duplicate()), None);
                return Err(e);
            }
        }
        self.logged_streams = state.collection.n_streams();
        self.logged_terms = state.collection.dict().len();
        self.checkpoints.inc();
        self.ticks_since_checkpoint = 0;
        Ok(bytes)
    }

    /// Truncates the log back to its header under the retry policy: in
    /// place through the open writer, or — an earlier failure dropped it —
    /// through a re-opened one, which is returned.
    fn rotate(&mut self, store: &Store) -> Result<Option<WalWriter>, StoreError> {
        let policy = self.retry.clone();
        let (result, retries) = match &mut self.state {
            State::Durable { wal, .. } => {
                let (result, retries) = policy.run(|| wal.reset());
                (result.map(|()| None), retries)
            }
            _ => policy.run(|| {
                let mut writer = self.writer_at(store, store.read_wal()?.valid_len)?;
                writer.reset()?;
                Ok(Some(writer))
            }),
        };
        self.store_retries.add(u64::from(retries));
        result
    }

    /// Fills in the durability fields of a health report.
    pub(crate) fn report(&self, health: &mut HealthReport) {
        health.durability = self.state();
        if let DurabilityState::Degraded { buffered_ticks, .. } = health.durability {
            health.buffered_ticks = buffered_ticks;
        }
        health.wal_appends = self.wal_appends.get();
        health.wal_failures = self.wal_failures.get();
        health.store_retries = self.store_retries.get();
        health.recoveries = self.recoveries.get();
        health.checkpoint_failures = self.checkpoint_failures.get();
        health.durability_state_secs = self.since.elapsed().as_secs_f64();
        health.last_error = self.fault().map(|f| f.last_error.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::{
        burst_tick, commit_one, durable_burst_run, durable_config, faulted_pipeline, temp_dir,
        two_cluster_pipeline,
    };
    use crate::pipeline::IngestPipeline;
    use crate::MinerKind;
    use proptest::prelude::*;
    use stb_core::STLocalConfig;
    use stb_corpus::CollectionBuilder;
    use stb_geo::GeoPoint;
    use stb_obs::SpanKind;
    use stb_store::{FaultError, FaultSchedule, FaultSite, InjectedFault};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        assert!(pipeline.is_durable());
        assert_eq!(pipeline.metrics().checkpoints, 1);
        assert_eq!(pipeline.health().wal_appends, 8);
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
        assert_eq!(pipeline.health().wal_appends, 3);
        let _ = std::fs::remove_dir_all(&dir);
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
        assert_eq!(pipeline.metrics().checkpoints, 0);
        // The next commit retries the (now healed) checkpoint.
        commit_one(&mut pipeline, s, t);
        assert_eq!(pipeline.metrics().checkpoints, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Pins the on-disk formats: the snapshot bytes and the WAL file of a
    /// fixed 12-tick durable run with one mid-run checkpoint have a known
    /// length and CRC-32, so a format change cannot go unnoticed.
    #[test]
    fn store_bytes_of_a_fixed_run_are_unchanged() {
        let dir = temp_dir("format-pin");
        let (mut pipeline, _) =
            IngestPipeline::durable(durable_config(12), &dir).expect("open durable pipeline");
        let streams = vec![
            pipeline.add_stream("A", GeoPoint::new(0.0, 0.0)),
            pipeline.add_stream("B", GeoPoint::new(1.0, 1.0)),
            pipeline.add_stream("C", GeoPoint::new(50.0, 50.0)),
        ];
        let quake = pipeline.intern("quake");
        for tick in 0..12 {
            if tick == 7 {
                pipeline.checkpoint().expect("mid-run checkpoint");
            }
            burst_tick(&mut pipeline, &streams, quake, (3..6).contains(&tick));
        }
        let snapshot = stb_store::snapshot::encode_snapshot(&pipeline.export_snapshot_state());
        let wal = std::fs::read(dir.join(stb_store::WAL_FILE)).expect("read wal");
        assert_eq!(
            (snapshot.len(), stb_store::crc32(&snapshot)),
            (1102, 0x0e19_1fd7)
        );
        assert_eq!((wal.len(), stb_store::crc32(&wal)), (392, 0x679b_9f28));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The reference machine of the model test below: the durability
    /// contract restated over plain counters.
    #[derive(Debug, Default, PartialEq)]
    struct Model {
        /// 1 durable, 2 degraded, 3 non-durable (the gauge encoding).
        state: u8,
        buffered: usize,
        failures: u32,
        max_buffered: usize,
        wal_appends: u64,
        wal_failures: u64,
        recoveries: u64,
        checkpoints: u64,
        checkpoint_failures: u64,
    }

    impl Model {
        /// A store operation failed; `unlogged` committed records ride on it.
        fn fail(&mut self, fault: FaultError, unlogged: usize) {
            self.wal_failures += 1;
            self.failures += 1;
            self.buffered += unlogged;
            self.state = 2;
            if fault == FaultError::Permanent || self.buffered > self.max_buffered {
                (self.state, self.buffered) = (3, 0);
            }
        }

        fn restored(&mut self) {
            self.recoveries += u64::from(self.state != 1);
            (self.state, self.failures, self.buffered) = (1, 0, 0);
        }

        /// A degraded-mode restore: re-read, re-open, replay the buffer.
        fn restore(&mut self, read: Option<FaultError>, append: Option<FaultError>) {
            match read.or(append.filter(|_| self.buffered > 0)) {
                Some(fault) => self.fail(fault, 0),
                None => {
                    self.wal_appends += self.buffered as u64;
                    self.restored();
                }
            }
        }

        fn step(&mut self, op: u8, [append, read, snapshot, reset]: [Option<FaultError>; 4]) {
            match (op, self.state) {
                (LOG, 1) => match append {
                    Some(fault) => self.fail(fault, 1),
                    None => self.wal_appends += 1,
                },
                (LOG, 2) if self.buffered >= self.max_buffered => {
                    (self.state, self.buffered) = (3, 0)
                }
                (LOG, 2) => {
                    self.buffered += 1;
                    self.restore(read, append);
                }
                (RECOVER, 2) => self.restore(read, append),
                (CHECKPOINT, _) if snapshot.is_some() => self.checkpoint_failures += 1,
                (CHECKPOINT, state) => {
                    self.buffered = 0;
                    match read.filter(|_| state != 1).or(reset) {
                        Some(fault) => {
                            self.checkpoint_failures += 1;
                            self.fail(fault, 0);
                        }
                        None => {
                            self.restored();
                            self.checkpoints += 1;
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// The model's encoding of the layer's state.
    fn code(layer: &DurabilityLayer) -> u8 {
        match layer.state() {
            DurabilityState::Ephemeral => 0,
            DurabilityState::Durable => 1,
            DurabilityState::Degraded { .. } => 2,
            DurabilityState::NonDurable => 3,
        }
    }

    const LOG: u8 = 0;
    const RECOVER: u8 = 1;
    const CHECKPOINT: u8 = 2;

    fn arb_fault() -> impl Strategy<Value = Option<FaultError>> {
        (0u8..4).prop_map(|roll| match roll {
            2 => Some(FaultError::Transient),
            3 => Some(FaultError::Permanent),
            _ => None,
        })
    }

    proptest! {
        /// Random scripts of commits, explicit recoveries and checkpoints
        /// under injected append / re-read / snapshot-write / rotation
        /// faults: after every step the layer agrees with the reference
        /// machine on the state, the buffer, the failure count and the
        /// counters, and its time-in-state clock restarted iff the state
        /// changed.
        #[test]
        fn durability_layer_follows_the_reference_machine(
            max_buffered in 0usize..3,
            script in prop::collection::vec(
                (0u8..3, arb_fault(), arb_fault(), arb_fault(), arb_fault()),
                1..40,
            ),
        ) {
            static CASE: AtomicUsize = AtomicUsize::new(0);
            let dir = temp_dir(&format!("model-{}", CASE.fetch_add(1, Ordering::Relaxed)));
            let faults = FaultSchedule::new();
            let store = Store::open_with_faults(&dir, faults.clone()).expect("open store");
            let config = IngestConfig {
                retry: RetryPolicy::immediate(0),
                max_buffered_ticks: max_buffered,
                ..Default::default()
            };
            let collection = Arc::new(CollectionBuilder::new(1).build());
            let mut layer = DurabilityLayer::ephemeral(&config)
                .open(store, 0, &collection)
                .expect("open layer");
            let mut model = Model { state: 1, max_buffered, ..Model::default() };

            for (tick, &(op, append, read, snapshot, reset)) in script.iter().enumerate() {
                let sites = [
                    FaultSite::WalAppend,
                    FaultSite::WalRead,
                    FaultSite::SnapshotWrite,
                    FaultSite::WalReset,
                ];
                for (site, error) in sites.into_iter().zip([append, read, snapshot, reset]) {
                    if let Some(error) = error {
                        faults.fail_next_at(site, InjectedFault { error, partial_bytes: None });
                    }
                }
                let (was, since) = (code(&layer), layer.since);
                match op {
                    LOG => layer.log(TickRecord {
                        tick: tick as u64,
                        new_streams: Vec::new(),
                        new_terms: Vec::new(),
                        docs: Vec::new(),
                    }),
                    RECOVER => layer.try_restore(),
                    _ => {
                        let _ = layer.checkpoint(&SnapshotState {
                            ticks_committed: tick as u64,
                            collection: Arc::clone(&collection),
                            patterns: Vec::new(),
                            pending: Default::default(),
                        });
                    }
                }
                faults.heal();
                model.step(op, [append, read, snapshot, reset]);

                let got = Model {
                    state: code(&layer),
                    buffered: match layer.state() {
                        DurabilityState::Degraded { buffered_ticks, .. } => buffered_ticks,
                        _ => 0,
                    },
                    failures: layer.fault().map_or(0, |f| f.failures),
                    max_buffered,
                    wal_appends: layer.wal_appends.get(),
                    wal_failures: layer.wal_failures.get(),
                    recoveries: layer.recoveries.get(),
                    checkpoints: layer.checkpoints.get(),
                    checkpoint_failures: layer.checkpoint_failures.get(),
                };
                prop_assert_eq!(&got, &model, "after step {} of {:?}", tick, script);
                prop_assert_eq!(layer.store_retries.get(), 0, "immediate(0) never retries");
                prop_assert_eq!(
                    layer.since != since,
                    code(&layer) != was,
                    "the clock restarts iff the state changed (step {})",
                    tick
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
