//! Per-term mining on the live path: the paper's streaming miner kept
//! fresh one tick at a time, and the [`PatternDelta`]s a commit hands to
//! the engine.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use stb_core::{Pattern, PatternRecord, RegionalPattern, STLocal, STLocalConfig};
use stb_corpus::{Collection, TermId, Timestamp};
use stb_geo::Point2D;
use stb_obs::Counter;

/// Which miner keeps the patterns fresh while ingesting.
#[derive(Debug, Clone)]
pub enum MinerKind {
    /// The streaming regional miner (Section 4, Algorithm 2): one online
    /// `STLocal` instance per term, stepped when the term is dirty or read.
    STLocal(STLocalConfig),
}

/// A per-term pattern update emitted by a tick commit: the term's
/// complete current pattern set (replace semantics), captured once at the
/// miner. The engine stores this very slice and the subscription triggers
/// carry it, so everything past the miner shares one allocation.
#[derive(Debug, Clone)]
pub struct PatternDelta {
    /// The re-mined term.
    pub term: TermId,
    /// Its patterns, each frozen with its spatial footprint.
    pub patterns: Arc<[PatternRecord]>,
}

impl PatternDelta {
    /// Number of patterns the term now has.
    pub fn n_patterns(&self) -> usize {
        self.patterns.len()
    }
}

/// The mining state of a pipeline: the miner configuration, one online
/// `STLocal` instance per term ever dirty, and the flag that forces a wider
/// re-mine than the tick's dirty set.
pub(crate) struct Miners {
    config: STLocalConfig,
    /// One online miner per term ever dirty.
    local: HashMap<TermId, TermMiner>,
    /// A stream was added since the last commit: per-term miner state is
    /// positional and must be rebuilt from collection history.
    structural_dirty: bool,
    /// Miners (re)built by replaying collection history.
    pub(crate) catchup_replays: Arc<Counter>,
}

/// A term's online miner and the first tick it has not stepped yet.
///
/// Miners step lazily: only when their term is dirty (`Miners::mine`) or
/// read (`Miners::current_patterns`). The ticks a quiet term skipped are
/// replayed from the collection on its next catch-up — history before the
/// open tick never changes, so the miner sees exactly the snapshots eager
/// stepping would have fed it.
#[derive(Clone)]
struct TermMiner {
    next: Timestamp,
    stlocal: STLocal,
}

impl TermMiner {
    fn new(positions: Vec<Point2D>, config: &STLocalConfig) -> Self {
        Self {
            next: 0,
            stlocal: STLocal::new(positions, config.clone()),
        }
    }

    /// Steps the miner over `term`'s history in `collection` until it has
    /// observed the first `ticks` ticks, and returns its accumulated
    /// windows.
    fn catch_up(
        &mut self,
        collection: &Collection,
        term: TermId,
        ticks: usize,
    ) -> Vec<RegionalPattern> {
        for ts in self.next..ticks {
            self.stlocal
                .step(&collection.term_snapshot(term, ts).frequencies);
        }
        self.next = ticks;
        self.stlocal.patterns()
    }
}

impl Miners {
    pub(crate) fn new(kind: MinerKind) -> Self {
        let MinerKind::STLocal(config) = kind;
        Self {
            config,
            local: HashMap::new(),
            structural_dirty: false,
            catchup_replays: Arc::default(),
        }
    }

    /// A stream was registered: every term must be re-derived next commit.
    pub(crate) fn mark_structural(&mut self) {
        self.structural_dirty = true;
    }

    /// Whether a stream was added since the last commit, as snapshots
    /// persist it.
    pub(crate) fn structural_dirty(&self) -> bool {
        self.structural_dirty
    }

    pub(crate) fn restore_structural_dirty(&mut self, structural_dirty: bool) {
        self.structural_dirty = structural_dirty;
    }

    /// Online miners currently tracked.
    pub(crate) fn tracked(&self) -> usize {
        self.local.len()
    }

    /// Mines tick `tick` of `snapshot`: widens `dirty` to every term after a
    /// structural change, then returns fresh patterns for each dirty term.
    /// Only the dirty terms' miners step, each catching up through `tick`;
    /// a term without one gets a fresh miner that replays its history.
    pub(crate) fn mine(
        &mut self,
        snapshot: &Collection,
        tick: Timestamp,
        dirty: &mut BTreeSet<TermId>,
    ) -> Vec<PatternDelta> {
        if self.structural_dirty {
            // Stream positions changed: per-term miner state is positional,
            // so drop it and re-derive every term from collection history.
            self.local.clear();
            dirty.extend(snapshot.terms());
            self.structural_dirty = false;
        }

        let positions = snapshot.positions();
        let mut deltas = Vec::with_capacity(dirty.len());
        for &term in dirty.iter() {
            let miner = self.local.entry(term).or_insert_with(|| {
                self.catchup_replays.inc();
                TermMiner::new(positions.clone(), &self.config)
            });
            let patterns = miner.catch_up(snapshot, term, tick + 1);
            deltas.push(capture(term, &patterns, &positions));
        }
        deltas
    }

    /// One term's current patterns over the first `ticks` ticks of
    /// `collection`: a copy of its `STLocal` miner caught up through them.
    pub(crate) fn current_patterns(
        &self,
        collection: &Collection,
        ticks: usize,
        term: TermId,
    ) -> PatternDelta {
        let positions = collection.positions();
        // A stream added since the last commit leaves every miner one
        // position short until that commit rebuilds them.
        let mut miner = match self.local.get(&term) {
            Some(miner) if !self.structural_dirty => miner.clone(),
            _ => TermMiner::new(positions.clone(), &self.config),
        };
        let patterns = miner.catch_up(collection, term, ticks);
        capture(term, &patterns, &positions)
    }
}

/// Freezes one term's mined patterns, with their footprints over
/// `positions`, into the delta everything past the miner shares.
fn capture<P: Pattern>(term: TermId, patterns: &[P], positions: &[Point2D]) -> PatternDelta {
    PatternDelta {
        term,
        patterns: patterns
            .iter()
            .map(|p| PatternRecord::capture(p, positions))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::{
        assert_same_patterns, batch_patterns, burst_tick, run, run_text, two_cluster_pipeline,
    };
    use stb_geo::GeoPoint;

    /// A quiet term's miner does not step while other terms commit; its
    /// next dirty tick catches it up to exactly the batch miner's state.
    /// The timeline is pre-sized to the 22 ticks run, so the batch pass
    /// covers exactly the committed ticks.
    #[test]
    fn a_quiet_term_steps_only_when_dirty_again() {
        let (mut pipeline, streams) =
            two_cluster_pipeline(MinerKind::STLocal(STLocalConfig::default()), 22);
        let term = pipeline.intern("term");
        let other = pipeline.intern("other");
        for tick in 0..3 {
            burst_tick(&mut pipeline, &streams, term, tick == 1);
        }
        for tick in 3..21 {
            burst_tick(&mut pipeline, &streams, other, tick == 10);
            assert_eq!(pipeline.miners.local[&term].next, 3, "tick {tick}");
        }
        // One fresh miner each for `term` (tick 0) and `other` (tick 3).
        assert_eq!(pipeline.metrics().catchup_replays, 2);

        let receipt = burst_tick(&mut pipeline, &streams, term, true);
        assert_eq!(receipt.tick, 21);
        assert_eq!(pipeline.metrics().catchup_replays, 2, "no second replay");
        assert_eq!(pipeline.miners.local[&term].next, 22);
        let [delta] = &receipt.deltas[..] else {
            panic!("`term` is the only dirty term");
        };
        assert!(delta.n_patterns() > 0, "both bursts must be mined");
        let expect = batch_patterns(&pipeline.collection(), term);
        assert_same_patterns(&expect, &delta.patterns);
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
}
