//! Cold recovery: rebuilding a pipeline from a store directory as
//! `load_snapshot + replay_wal`.

use crate::live::LiveCollection;
use crate::pipeline::{IngestPipeline, StagedDoc};
use crate::IngestConfig;
use std::path::Path;
use std::sync::Arc;

use stb_store::{Store, StoreError, TickRecord};

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

impl IngestPipeline {
    /// Opens a pipeline backed by a durable store at `dir`, recovering any
    /// previously persisted state.
    ///
    /// A fresh directory starts an empty pipeline whose commits are
    /// write-ahead logged. A directory holding a snapshot and/or WAL
    /// recovers as `load_snapshot + replay_wal`: the snapshot restores the
    /// collection's inputs, the mined patterns (with their captured
    /// spatial footprints) and the pending bookkeeping; the frequency
    /// tensor and every posting list are re-derived from them by the code
    /// that builds them on the commit path, so their scores are
    /// bit-for-bit the never-crashed ones. WAL records beyond the
    /// snapshot's tick are then re-committed. A torn WAL tail (crash
    /// artifact) is discarded and repaired transparently; a corrupt
    /// snapshot or mid-log corruption is a hard [`StoreError`] — the
    /// pipeline never silently starts empty over bad data.
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
            // term→documents map, takes the persisted patterns and scores
            // every posting list as a fresh pipeline's `finalize` does,
            // then publishes a new generation through the existing front
            // (handles stay valid).
            pipeline
                .engine
                .restore(Arc::clone(&state.collection), state.patterns);
            pipeline.ticks_committed = usize::try_from(state.ticks_committed)
                .map_err(|_| StoreError::corrupt("snapshot", "tick count out of range"))?;
            pipeline
                .miners
                .restore_structural_dirty(state.pending.structural_dirty);
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
        pipeline.durability =
            pipeline
                .durability
                .open(store, replay.valid_len, pipeline.live.collection())?;
        pipeline.publish_health();
        Ok((pipeline, report))
    }

    /// Re-commits one WAL record during recovery (no re-logging).
    fn apply_wal_record(&mut self, record: TickRecord) -> Result<(), StoreError> {
        let corrupt = |detail: String| StoreError::corrupt("wal record", detail);
        if record.tick != self.ticks_committed as u64 {
            return Err(corrupt(format!(
                "tick {} does not follow the {} ticks committed so far",
                record.tick, self.ticks_committed
            )));
        }
        for s in &record.new_streams {
            let n = self.live.n_streams();
            if s.index.index() < n {
                // Already restored by the snapshot; must NOT re-mark the
                // structural flag the snapshot's pending state settled.
                continue;
            }
            if s.index.index() != n {
                return Err(corrupt(format!(
                    "stream index {} with {n} streams present",
                    s.index.0
                )));
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
                return Err(corrupt(format!(
                    "term id {} with {n} terms interned",
                    t.id.0
                )));
            }
            let id = self.live.intern(&t.text);
            if id != t.id {
                return Err(corrupt(format!(
                    "term {:?} interned as {} instead of {}",
                    t.text, id.0, t.id.0
                )));
            }
        }
        for d in &record.docs {
            if d.stream.index() >= self.live.n_streams() {
                return Err(corrupt(format!(
                    "document references unknown stream {}",
                    d.stream.0
                )));
            }
            // Bypass quarantine and backpressure: WAL records were
            // validated when first committed (and re-validated above), and
            // replay must reproduce the original run bit-identically.
            self.stage_raw(d.stream, d.counts.iter().copied().collect());
        }
        self.apply_commit(&mut None);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::{
        assert_same_patterns, batch_patterns, burst_tick, durable_burst_run, durable_config, run,
        temp_dir,
    };
    use stb_corpus::StreamId;
    use stb_geo::GeoPoint;

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
        assert_eq!(expect.patterns, got.patterns, "patterns must round-trip");
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
        assert_eq!(expect.patterns, recovered.export_snapshot_state().patterns);
        let got_top = run(&recovered.search_handle(), &[quake], 5);
        for (e, g) in expect_top.iter().zip(&got_top) {
            assert_eq!(e.doc, g.doc);
            assert_eq!(e.score.to_bits(), g.score.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Online miners are not persisted: a recovered pipeline rebuilds a
    /// term's miner from the collection the first time it is read.
    #[test]
    fn current_patterns_survive_recovery() {
        let dir = temp_dir("current-patterns");
        let (mut pipeline, quake) = durable_burst_run(&dir, 8);
        pipeline.checkpoint().expect("checkpoint");
        let before = pipeline.current_patterns(quake);
        assert!(before.n_patterns() > 0, "the burst must have been mined");
        drop(pipeline);

        let (mut recovered, report) =
            IngestPipeline::durable(durable_config(8), &dir).expect("recover");
        assert!(report.snapshot_loaded);
        assert_eq!(report.wal_ticks_replayed, 0);
        let after = recovered.current_patterns(quake);
        assert_same_patterns(&before.patterns, &after.patterns);

        // `quake` gets a miner at tick 8 and lags a tick behind by tick 9.
        // A stream added since then must not have the read step that
        // miner one position short: it replays the widened history.
        let streams: Vec<StreamId> = (0..3).map(|i| StreamId(i as u32)).collect();
        burst_tick(&mut recovered, &streams, quake, false);
        let other = recovered.intern("other");
        burst_tick(&mut recovered, &streams, other, false);
        recovered.add_stream("D", GeoPoint::new(2.0, 2.0));
        let widened = recovered.current_patterns(quake);
        let expect = batch_patterns(&recovered.collection(), quake);
        assert_same_patterns(&expect, &widened.patterns);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
