//! `STLocal`: regional spatiotemporal patterns via streaming maximal windows
//! (Section 4, Algorithm 2).
//!
//! `STLocal` processes a collection one snapshot (timestamp) at a time. For
//! every new snapshot it:
//!
//! 1. computes the per-stream burstiness `B(t, D_x[i]) = observed − expected`
//!    (Eq. 7) using the running-mean expected-frequency baseline — kept only for
//!    the *activated* streams, those that have mentioned the term at least
//!    once: a stream whose history is all zeros expects 0, observes 0 and
//!    has burstiness 0 without any state,
//! 2. runs `R-Bursty` to find the bursty rectangles of the snapshot
//!    (Algorithm 1),
//! 3. starts a score *sequence* for every newly seen bursty region, appends
//!    the region's current r-score to every tracked sequence, and
//! 4. maintains the maximal spatiotemporal windows of every sequence with
//!    the online Ruzzo–Tompa algorithm (`GetMax`), retiring sequences whose
//!    running total drops below zero (they can never again extend a maximal
//!    window).
//!
//! One `STLocal` instance tracks one term; terms are independent, so a
//! driver can process many terms in parallel (see [`STLocal::mine_collection_parallel`]).
//! A miner's size follows its term's signal, not the clock: a tick in which
//! the term is quiet everywhere grows nothing.

use crate::pattern::RegionalPattern;
use stb_corpus::{Collection, StreamId, TermId};
use stb_discrepancy::{RBursty, WPoint};
use stb_geo::{Point2D, Rect};
use stb_timeseries::{OnlineMaxSeg, RunningMean, TimeInterval};

/// Configuration of the `STLocal` miner.
#[derive(Debug, Clone)]
pub struct STLocalConfig {
    /// Minimum r-score for a rectangle to be reported by R-Bursty. The paper
    /// uses 0 (strictly positive); raising it suppresses noise rectangles.
    pub(crate) min_rectangle_score: f64,
    /// Minimum w-score for a maximal window to be reported as a pattern.
    pub(crate) min_window_score: f64,
    /// A member stream is reported as *included* in a pattern only if its
    /// total burstiness contribution within the window exceeds this fraction
    /// of the strongest member's contribution. This implements the paper's
    /// remark (Section 4, "Discussion on proximity") that the non-bursty
    /// "false positives" contained in a bursty rectangle are remembered and
    /// ultimately excluded from the pattern. Set to 0 to keep every member
    /// with any positive contribution.
    pub(crate) min_member_contribution_ratio: f64,
}

impl Default for STLocalConfig {
    fn default() -> Self {
        Self {
            min_rectangle_score: 0.0,
            min_window_score: 0.0,
            min_member_contribution_ratio: 0.05,
        }
    }
}

/// Runtime statistics collected while streaming, matching the quantities the
/// paper reports in Figures 5 and 6.
#[derive(Debug, Clone, Default)]
pub struct STLocalStats {
    /// Number of bursty rectangles found at each processed timestamp
    /// (Figure 5 histogram input).
    pub rectangles_per_timestamp: Vec<usize>,
    /// Number of open (still tracked) spatiotemporal windows after each
    /// processed timestamp (Figure 6).
    pub open_windows_per_timestamp: Vec<usize>,
    /// Number of active region sequences after each processed timestamp.
    pub(crate) active_sequences_per_timestamp: Vec<usize>,
}

impl STLocalStats {
    fn record(&mut self, step: StepStats) {
        self.rectangles_per_timestamp.push(step.rectangles);
        self.open_windows_per_timestamp.push(step.open_windows);
        self.active_sequences_per_timestamp
            .push(step.active_sequences);
    }
}

/// What one [`STLocal::step`] found and left tracked. The miner keeps no
/// history of these (a live miner steps forever); a driver that wants the
/// per-timestamp series of [`STLocalStats`] collects them, as
/// [`STLocal::mine_collection`] does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepStats {
    /// Bursty rectangles found in this snapshot.
    pub(crate) rectangles: usize,
    /// Open (still tracked) spatiotemporal windows after this snapshot.
    pub(crate) open_windows: usize,
    /// Active region sequences after this snapshot.
    pub(crate) active_sequences: usize,
}

/// A tracked region: the set of streams it covers, its rectangle, and the
/// online maximal-segment state of its r-score sequence.
#[derive(Debug, Clone)]
struct RegionSequence {
    /// Sorted stream indices inside the region (identity of the region).
    members: Vec<usize>,
    /// Per member, the prefix sums of its burstiness contributions over the
    /// sequence's lifetime (`contrib_prefix[m][k]` = contribution of member
    /// `m` over the first `k` appended snapshots). Used to exclude, per
    /// reported window, the member streams that did not contribute positive
    /// burstiness — the "false positives" the paper's Section 4 discussion
    /// says are remembered and ultimately excluded from each pattern.
    contrib_prefix: Vec<Vec<f64>>,
    /// The rectangle reported by R-Bursty when the region was first seen.
    rect: Rect,
    /// Timestamp at which the sequence started.
    start_ts: usize,
    /// Online Ruzzo–Tompa state over the region's r-scores.
    maxseg: OnlineMaxSeg,
}

impl RegionSequence {
    fn windows(&self, min_score: f64, min_member_ratio: f64) -> Vec<RegionalPattern> {
        self.maxseg
            .maximal_segments()
            .into_iter()
            .filter(|seg| seg.score > min_score)
            .map(|seg| {
                // Contributing streams of this window: members whose total
                // burstiness within the window is positive and not
                // negligible compared to the strongest contributor.
                let contributions: Vec<f64> = self
                    .contrib_prefix
                    .iter()
                    .map(|prefix| prefix[seg.end() + 1] - prefix[seg.start()])
                    .collect();
                let max_contribution = contributions.iter().copied().fold(0.0f64, f64::max);
                let cutoff = max_contribution * min_member_ratio;
                let core: Vec<StreamId> = self
                    .members
                    .iter()
                    .zip(&contributions)
                    .filter(|(_, &c)| c > 0.0 && c >= cutoff)
                    .map(|(&i, _)| StreamId(i as u32))
                    .collect();
                RegionalPattern::with_region(
                    self.rect,
                    core,
                    self.members.iter().map(|&i| StreamId(i as u32)).collect(),
                    TimeInterval::new(self.start_ts + seg.start(), self.start_ts + seg.end()),
                    seg.score,
                )
            })
            .collect()
    }
}

/// The streaming `STLocal` miner for a single term.
///
/// # Example
///
/// Stream per-snapshot frequencies for two co-located streams that burst
/// together at timestamps 2..=4 while a distant third stays flat; `STLocal`
/// reports a regional pattern covering the bursty pair:
///
/// ```
/// use stb_core::{STLocal, STLocalConfig};
/// use stb_geo::Point2D;
///
/// let positions = vec![
///     Point2D::new(0.0, 0.0),
///     Point2D::new(1.0, 1.0),
///     Point2D::new(100.0, 100.0),
/// ];
/// let mut miner = STLocal::new(positions, STLocalConfig::default());
/// for ts in 0..8 {
///     let f = if (2..=4).contains(&ts) { 10.0 } else { 1.0 };
///     miner.step(&[f, f, 1.0]); // one frequency per stream
/// }
/// let top = miner.patterns().into_iter().next().expect("burst detected");
/// assert_eq!(top.streams.len(), 2);
/// assert!(top.timeframe.contains(3));
/// ```
#[derive(Debug, Clone)]
pub struct STLocal {
    config: STLocalConfig,
    positions: Vec<Point2D>,
    /// The streams that have mentioned the term, in order of their first
    /// non-zero observation, each with the baseline of its full history.
    activated: Vec<(usize, RunningMean)>,
    /// `is_active[x]`: stream `x` has an entry in `activated`.
    is_active: Vec<bool>,
    sequences: Vec<RegionSequence>,
    retired: Vec<RegionalPattern>,
    timestamp: usize,
}

impl STLocal {
    /// Creates a miner for streams at the given map positions (one position
    /// per stream, indexed by stream index).
    pub fn new(positions: Vec<Point2D>, config: STLocalConfig) -> Self {
        Self {
            config,
            is_active: vec![false; positions.len()],
            positions,
            activated: Vec::new(),
            sequences: Vec::new(),
            retired: Vec::new(),
            timestamp: 0,
        }
    }

    /// Processes one snapshot: the observed frequency of the term in every
    /// stream at the current timestamp. Returns what the snapshot found.
    ///
    /// # Panics
    ///
    /// Panics if `observed.len()` does not match the number of streams.
    pub fn step(&mut self, observed: &[f64]) -> StepStats {
        assert_eq!(
            observed.len(),
            self.positions.len(),
            "snapshot must provide one frequency per stream"
        );
        // 1. Per-stream burstiness (Eq. 7). A stream's first non-zero
        //    observation activates it with the baseline of the zeros it has
        //    observed so far, bit-identical to one kept from timestamp 0.
        for (x, &obs) in observed.iter().enumerate() {
            if obs != 0.0 && !self.is_active[x] {
                self.is_active[x] = true;
                self.activated
                    .push((x, RunningMean::after_zeros(self.timestamp)));
            }
        }
        let mut burstiness = vec![0.0f64; observed.len()];
        let mut any_positive = false;
        for (x, baseline) in &mut self.activated {
            let obs = observed[*x];
            let b = match baseline.expected() {
                Some(e) => obs - e,
                None => 0.0,
            };
            burstiness[*x] = b;
            any_positive |= b > 0.0;
            baseline.observe(obs);
        }

        // 2. Bursty rectangles of this snapshot (Algorithm 1). Fast path:
        //    a bursty rectangle needs a strictly positive r-score (R-Bursty
        //    clamps its minimum score at 0), which requires at least one
        //    stream with positive burstiness — so a quiet snapshot (e.g. a
        //    tick in which a streamed term does not occur at all) skips the
        //    rectangle search entirely. This is what keeps the live ingest
        //    pipeline's catch-up over a quiet term's skipped ticks cheap.
        let rects = if any_positive {
            let points: Vec<WPoint> = self
                .positions
                .iter()
                .zip(&burstiness)
                .map(|(p, &w)| WPoint::at(*p, w))
                .collect();
            RBursty::new()
                .with_min_score(self.config.min_rectangle_score)
                .find(&points)
        } else {
            Vec::new()
        };

        // 3. Start sequences for regions not already tracked (Line 7 of
        //    Algorithm 2). Region identity is its set of member streams.
        for rect in &rects {
            let mut members = rect.members.clone();
            members.sort_unstable();
            let already_tracked = self.sequences.iter().any(|s| s.members == members);
            if !already_tracked {
                let n_members = members.len();
                self.sequences.push(RegionSequence {
                    members,
                    contrib_prefix: vec![vec![0.0]; n_members],
                    rect: rect.rect,
                    start_ts: self.timestamp,
                    maxseg: OnlineMaxSeg::new(),
                });
            }
        }

        // 4. Append the current r-score to every tracked sequence (Line 9)
        //    and retire sequences whose running total went negative
        //    (Lines 11-12).
        let min_window_score = self.config.min_window_score;
        let min_member_ratio = self.config.min_member_contribution_ratio;
        let mut still_active = Vec::with_capacity(self.sequences.len());
        for mut seq in std::mem::take(&mut self.sequences) {
            let r_score: f64 = seq.members.iter().map(|&x| burstiness[x]).sum();
            for (m, &x) in seq.members.iter().enumerate() {
                let last = seq.contrib_prefix[m].last().copied().unwrap_or(0.0);
                seq.contrib_prefix[m].push(last + burstiness[x]);
            }
            seq.maxseg.push(r_score);
            if seq.maxseg.total() < 0.0 {
                self.retired
                    .extend(seq.windows(min_window_score, min_member_ratio));
            } else {
                still_active.push(seq);
            }
        }
        self.sequences = still_active;

        let open_windows: usize = self
            .sequences
            .iter()
            .map(|s| s.maxseg.candidate_count())
            .sum();
        self.timestamp += 1;
        StepStats {
            rectangles: rects.len(),
            open_windows,
            active_sequences: self.sequences.len(),
        }
    }

    /// The maximal windows accumulated so far (retired sequences plus the
    /// current windows of the still-active sequences), strongest first.
    pub fn patterns(&self) -> Vec<RegionalPattern> {
        let mut out = self.retired.clone();
        for seq in &self.sequences {
            out.extend(seq.windows(
                self.config.min_window_score,
                self.config.min_member_contribution_ratio,
            ));
        }
        out.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        out
    }

    /// Consumes the miner and returns all maximal windows, strongest first.
    pub fn finish(self) -> Vec<RegionalPattern> {
        self.patterns()
    }

    /// The single strongest pattern seen so far, if any.
    #[cfg(test)]
    pub(crate) fn top_pattern(&self) -> Option<RegionalPattern> {
        self.patterns().into_iter().next()
    }

    /// Convenience driver: streams an entire collection for one term and
    /// returns the mined patterns with the streaming statistics.
    pub fn mine_collection(
        collection: &Collection,
        term: TermId,
        config: STLocalConfig,
    ) -> (Vec<RegionalPattern>, STLocalStats) {
        let mut miner = STLocal::new(collection.positions(), config);
        let mut stats = STLocalStats::default();
        for ts in 0..collection.timeline_len() {
            let snapshot = collection.term_snapshot(term, ts);
            stats.record(miner.step(&snapshot.frequencies));
        }
        (miner.finish(), stats)
    }

    /// Parallel driver: mines several terms of a collection concurrently
    /// (terms are independent, as the paper notes when discussing the
    /// complexity of `STLocal`). Results are returned in the order of the
    /// input terms.
    pub fn mine_collection_parallel(
        collection: &Collection,
        terms: &[TermId],
        config: &STLocalConfig,
        n_threads: usize,
    ) -> Vec<(TermId, Vec<RegionalPattern>)> {
        crate::parallel_map(terms.len(), n_threads, |i| {
            let term = terms[i];
            let (patterns, _) = STLocal::mine_collection(collection, term, config.clone());
            (term, patterns)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Positions forming two well-separated clusters of three streams each.
    fn cluster_positions() -> Vec<Point2D> {
        vec![
            Point2D::new(0.0, 0.0),
            Point2D::new(1.0, 0.5),
            Point2D::new(0.5, 1.0),
            Point2D::new(100.0, 100.0),
            Point2D::new(101.0, 100.5),
            Point2D::new(100.5, 101.0),
        ]
    }

    /// Streams a synthetic term: background frequency 1 everywhere, with a
    /// burst of `peak` in the given streams during `burst_ts`. Returns the
    /// miner and what every step reported.
    fn run_scenario(
        positions: Vec<Point2D>,
        timeline: usize,
        burst_streams: &[usize],
        burst_ts: std::ops::Range<usize>,
        peak: f64,
    ) -> (STLocal, Vec<StepStats>) {
        let mut miner = STLocal::new(positions.clone(), STLocalConfig::default());
        let mut steps = Vec::with_capacity(timeline);
        for ts in 0..timeline {
            let mut obs = vec![1.0; positions.len()];
            if burst_ts.contains(&ts) {
                for &s in burst_streams {
                    obs[s] = peak;
                }
            }
            steps.push(miner.step(&obs));
        }
        (miner, steps)
    }

    #[test]
    fn detects_localized_burst() {
        let (miner, _) = run_scenario(cluster_positions(), 30, &[0, 1, 2], 10..15, 20.0);
        let top = miner.top_pattern().expect("a pattern should be found");
        assert_eq!(
            top.streams,
            vec![StreamId(0), StreamId(1), StreamId(2)],
            "the pattern should cover exactly the bursty cluster"
        );
        assert!(top.timeframe.start >= 10 && top.timeframe.start <= 11);
        assert!(top.timeframe.end >= 13 && top.timeframe.end <= 15);
        assert!(top.score > 0.0);
    }

    #[test]
    fn quiet_stream_produces_no_patterns() {
        let positions = cluster_positions();
        let mut miner = STLocal::new(positions, STLocalConfig::default());
        for _ in 0..20 {
            miner.step(&[2.0; 6]);
        }
        assert!(miner.top_pattern().is_none());
        assert!(miner.finish().is_empty());
    }

    #[test]
    fn two_separate_regions_yield_two_patterns() {
        let positions = cluster_positions();
        let mut miner = STLocal::new(positions.clone(), STLocalConfig::default());
        for ts in 0..40 {
            let mut obs = vec![1.0; positions.len()];
            if (8..12).contains(&ts) {
                for s in 0..3 {
                    obs[s] = 15.0;
                }
            }
            if (25..30).contains(&ts) {
                for s in 3..6 {
                    obs[s] = 15.0;
                }
            }
            miner.step(&obs);
        }
        let patterns = miner.finish();
        assert!(patterns.len() >= 2);
        let first_cluster: Vec<StreamId> = vec![StreamId(0), StreamId(1), StreamId(2)];
        let second_cluster: Vec<StreamId> = vec![StreamId(3), StreamId(4), StreamId(5)];
        assert!(patterns.iter().any(|p| p.streams == first_cluster));
        assert!(patterns.iter().any(|p| p.streams == second_cluster));
    }

    #[test]
    fn stats_are_recorded_per_timestamp() {
        let (_, steps) = run_scenario(cluster_positions(), 25, &[0, 1], 5..8, 10.0);
        assert_eq!(steps.len(), 25);
        // During the burst at least one rectangle must be found.
        assert!(steps[5..8].iter().any(|s| s.rectangles > 0));
        assert!(steps[5..8].iter().any(|s| s.open_windows > 0));
        assert!(steps[5..8].iter().any(|s| s.active_sequences > 0));
        // No burstiness on the very first timestamp (no history yet).
        assert_eq!(steps[0], StepStats::default());
    }

    #[test]
    fn sequences_are_pruned_after_burst_fades() {
        let (_, steps) = run_scenario(cluster_positions(), 60, &[0, 1, 2], 10..13, 25.0);
        // Long after the burst the negative r-scores must have retired the
        // sequence.
        assert_eq!(steps.last().unwrap().active_sequences, 0);
    }

    #[test]
    fn late_activation_is_bit_identical_to_a_baseline_kept_from_the_start() {
        // One stream, silent for five steps: its baseline is created at
        // step 5 and must stand where one fed every observation would.
        const SERIES: [f64; 13] = [
            0.0, 0.0, 0.0, 0.0, 0.0, 6.0, 9.0, 4.0, 1.0, 0.0, 2.0, 7.0, 1.0,
        ];
        let mut model = RunningMean::new();
        let mut maxseg = OnlineMaxSeg::new();
        let mut start = None;
        for (ts, &obs) in SERIES.iter().enumerate() {
            let b = model.expected().map_or(0.0, |e| obs - e);
            model.observe(obs);
            if b > 0.0 {
                start.get_or_insert(ts);
            }
            if start.is_some() {
                maxseg.push(b);
                assert!(maxseg.total() >= 0.0, "SERIES must keep one sequence open");
            }
        }
        let start = start.expect("SERIES has a positive step");
        let best = maxseg.best_segment().expect("a positive score was pushed");
        let timeframe = TimeInterval::new(start + best.start(), start + best.end());

        let mut miner = STLocal::new(vec![Point2D::new(0.0, 0.0)], STLocalConfig::default());
        for &obs in &SERIES {
            miner.step(&[obs]);
        }
        let top = miner.top_pattern().expect("a pattern should be found");
        assert_eq!(top.score.to_bits(), best.score.to_bits());
        assert_eq!(top.timeframe, timeframe);
        assert_eq!(timeframe.start, 5);
    }

    #[test]
    fn pattern_timeframe_is_within_processed_range() {
        let (miner, _) = run_scenario(cluster_positions(), 30, &[3, 4, 5], 20..25, 12.0);
        for p in miner.patterns() {
            assert!(p.timeframe.end < 30);
            assert!(p.timeframe.start <= p.timeframe.end);
        }
    }

    #[test]
    fn mine_collection_driver_works() {
        use stb_corpus::CollectionBuilder;
        use stb_geo::GeoPoint;
        use std::collections::HashMap;

        let mut b = CollectionBuilder::new(20);
        let quake = b.dict_mut().intern("quake");
        let s0 = b.add_stream("A", GeoPoint::new(0.0, 0.0));
        let s1 = b.add_stream("B", GeoPoint::new(1.0, 1.0));
        let s2 = b.add_stream("C", GeoPoint::new(60.0, 60.0));
        for ts in 0..20 {
            for &s in &[s0, s1, s2] {
                let mut counts = HashMap::new();
                counts.insert(quake, 1);
                b.add_document(s, ts, counts);
            }
        }
        for ts in 8..11 {
            for &s in &[s0, s1] {
                let mut counts = HashMap::new();
                counts.insert(quake, 30);
                b.add_document(s, ts, counts);
            }
        }
        let c = b.build();
        let (patterns, stats) = STLocal::mine_collection(&c, quake, STLocalConfig::default());
        assert!(!patterns.is_empty());
        assert_eq!(stats.rectangles_per_timestamp.len(), 20);
        assert_eq!(patterns[0].streams, vec![s0, s1]);
    }

    #[test]
    fn parallel_driver_matches_sequential() {
        use stb_corpus::CollectionBuilder;
        use stb_geo::GeoPoint;
        use std::collections::HashMap;

        let mut b = CollectionBuilder::new(15);
        let t1 = b.dict_mut().intern("alpha");
        let t2 = b.dict_mut().intern("beta");
        let s0 = b.add_stream("A", GeoPoint::new(0.0, 0.0));
        let s1 = b.add_stream("B", GeoPoint::new(2.0, 2.0));
        for ts in 0..15 {
            for &s in &[s0, s1] {
                let mut counts = HashMap::new();
                counts.insert(t1, if ts == 7 && s == s0 { 20 } else { 1 });
                counts.insert(t2, if ts == 3 && s == s1 { 25 } else { 1 });
                b.add_document(s, ts, counts);
            }
        }
        let c = b.build();
        let config = STLocalConfig::default();
        let par = STLocal::mine_collection_parallel(&c, &[t1, t2], &config, 2);
        for (term, patterns) in par {
            let (seq, _) = STLocal::mine_collection(&c, term, config.clone());
            assert_eq!(patterns.len(), seq.len());
            for (a, b) in patterns.iter().zip(&seq) {
                assert_eq!(a.streams, b.streams);
                assert_eq!(a.timeframe, b.timeframe);
                assert!((a.score - b.score).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic]
    fn wrong_snapshot_size_panics() {
        let mut miner = STLocal::new(cluster_positions(), STLocalConfig::default());
        miner.step(&[1.0, 2.0]);
    }
}
