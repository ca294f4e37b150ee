//! The `Base` baseline (Section 6.2.2).
//!
//! The paper compares its miners against a simple heuristic:
//!
//! 1. compute the per-stream burstiness series (Eq. 7) and binarise it
//!    (positive → 1, otherwise → 0),
//! 2. fill interior gaps of zeros shorter than `ℓ` so short lulls do not
//!    split an interval,
//! 3. take the contiguous runs of ones as the per-stream bursty intervals,
//! 4. visit the streams in a given order; starting from the interval set of
//!    the first stream, merge every later interval into an existing one when
//!    their Jaccard overlap is at least `δ` (replacing the kept interval by
//!    the intersection), otherwise keep it as a new candidate.
//!
//! Each surviving interval, together with the streams whose intervals were
//! merged into it, is reported as a pattern.

use crate::pattern::CombinatorialPattern;
use stb_corpus::StreamId;
use stb_timeseries::{burstiness_series, TimeInterval};

/// Configuration of the `Base` baseline.
#[derive(Debug, Clone)]
pub(crate) struct BaseConfig {
    /// Maximum length `ℓ` of an interior zero-gap that is filled with ones.
    pub(crate) gap_fill: usize,
    /// Minimum Jaccard overlap `δ` for two intervals to be merged.
    pub(crate) delta: f64,
}

impl Default for BaseConfig {
    fn default() -> Self {
        Self {
            gap_fill: 2,
            delta: 0.3,
        }
    }
}

/// The `Base` baseline miner.
#[derive(Debug, Clone, Default)]
pub struct Base {
    config: BaseConfig,
}

/// A candidate pattern during the merge phase.
#[derive(Debug, Clone)]
struct Candidate {
    interval: TimeInterval,
    streams: Vec<StreamId>,
}

impl Base {
    /// Creates a baseline miner with the default parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a baseline miner with explicit parameters.
    #[cfg(test)]
    pub(crate) fn with_config(config: BaseConfig) -> Self {
        Self { config }
    }

    /// Extracts the binarised, gap-filled bursty intervals of one frequency
    /// series.
    pub(crate) fn stream_intervals(&self, frequencies: &[f64]) -> Vec<TimeInterval> {
        let burst = burstiness_series(frequencies);
        let mut bits: Vec<bool> = burst.iter().map(|&b| b > 0.0).collect();
        self.fill_gaps(&mut bits);
        let mut intervals = Vec::new();
        let mut start: Option<usize> = None;
        for (i, &b) in bits.iter().enumerate() {
            match (start, b) {
                (None, true) => start = Some(i),
                (Some(s), false) => {
                    intervals.push(TimeInterval::new(s, i - 1));
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            intervals.push(TimeInterval::new(s, bits.len() - 1));
        }
        intervals
    }

    /// Replaces interior zero-runs of length at most `ℓ` with ones.
    fn fill_gaps(&self, bits: &mut [bool]) {
        if self.config.gap_fill == 0 {
            return;
        }
        let n = bits.len();
        let mut i = 0;
        while i < n {
            if !bits[i] {
                let gap_start = i;
                while i < n && !bits[i] {
                    i += 1;
                }
                let gap_end = i; // exclusive
                let interior = gap_start > 0 && gap_end < n;
                if interior && gap_end - gap_start <= self.config.gap_fill {
                    bits[gap_start..gap_end].iter_mut().for_each(|b| *b = true);
                }
            } else {
                i += 1;
            }
        }
    }

    /// Mines patterns from explicit per-stream frequency series, visiting
    /// the streams in the order given.
    pub fn mine_series(&self, series: &[(StreamId, Vec<f64>)]) -> Vec<CombinatorialPattern> {
        let mut candidates: Vec<Candidate> = Vec::new();
        for (stream, freqs) in series {
            for interval in self.stream_intervals(freqs) {
                // Find the best-overlapping existing candidate.
                let mut best: Option<(usize, f64)> = None;
                for (i, cand) in candidates.iter().enumerate() {
                    let j = cand.interval.jaccard(&interval);
                    if j >= self.config.delta && best.is_none_or(|(_, bj)| j > bj) {
                        best = Some((i, j));
                    }
                }
                match best {
                    Some((i, _)) => {
                        let cand = &mut candidates[i];
                        // Replace the kept interval by the intersection and
                        // record the new stream.
                        if let Some(inter) = cand.interval.intersection(&interval) {
                            cand.interval = inter;
                        }
                        if !cand.streams.contains(stream) {
                            cand.streams.push(*stream);
                        }
                    }
                    None => candidates.push(Candidate {
                        interval,
                        streams: vec![*stream],
                    }),
                }
            }
        }
        let mut patterns: Vec<CombinatorialPattern> = candidates
            .into_iter()
            .map(|c| {
                let score = c.streams.len() as f64;
                let intervals = c.streams.iter().map(|&s| (s, c.interval, 1.0)).collect();
                CombinatorialPattern::new(c.streams, c.interval, score, intervals)
            })
            .collect();
        patterns.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        patterns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_with_burst(timeline: usize, burst: std::ops::Range<usize>, peak: f64) -> Vec<f64> {
        (0..timeline)
            .map(|t| if burst.contains(&t) { peak } else { 1.0 })
            .collect()
    }

    #[test]
    fn stream_intervals_detect_burst() {
        let base = Base::new();
        let freqs = series_with_burst(30, 10..15, 20.0);
        let intervals = base.stream_intervals(&freqs);
        assert_eq!(intervals.len(), 1);
        assert_eq!(intervals[0], TimeInterval::new(10, 14));
    }

    #[test]
    fn flat_series_has_no_intervals() {
        let base = Base::new();
        assert!(base.stream_intervals(&[3.0; 20]).is_empty());
        assert!(base.stream_intervals(&[]).is_empty());
    }

    #[test]
    fn gap_filling_joins_nearby_runs() {
        let base = Base::with_config(BaseConfig {
            gap_fill: 2,
            delta: 0.3,
        });
        // Bursts at 5..8 and 10..13 with a 2-step lull in between.
        let mut freqs = vec![1.0; 25];
        for t in 5..8 {
            freqs[t] = 20.0;
        }
        for t in 10..13 {
            freqs[t] = 20.0;
        }
        let intervals = base.stream_intervals(&freqs);
        assert_eq!(intervals.len(), 1);
        assert_eq!(intervals[0], TimeInterval::new(5, 12));

        let no_fill = Base::with_config(BaseConfig {
            gap_fill: 0,
            delta: 0.3,
        });
        assert_eq!(no_fill.stream_intervals(&freqs).len(), 2);
    }

    #[test]
    fn leading_and_trailing_gaps_are_not_filled() {
        let base = Base::with_config(BaseConfig {
            gap_fill: 100,
            delta: 0.3,
        });
        let freqs = series_with_burst(10, 4..6, 30.0);
        let intervals = base.stream_intervals(&freqs);
        assert_eq!(intervals.len(), 1);
        // The gap before 4 and after 5 must not be filled even though they
        // are shorter than the (huge) gap_fill parameter.
        assert_eq!(intervals[0], TimeInterval::new(4, 5));
    }

    #[test]
    fn merges_overlapping_intervals_across_streams() {
        let base = Base::new();
        let series = vec![
            (StreamId(0), series_with_burst(30, 10..16, 15.0)),
            (StreamId(1), series_with_burst(30, 11..17, 15.0)),
            (StreamId(2), series_with_burst(30, 25..28, 15.0)),
        ];
        let patterns = base.mine_series(&series);
        assert_eq!(patterns.len(), 2);
        // The merged pattern covers streams 0 and 1 over the intersection.
        let merged = &patterns[0];
        assert_eq!(merged.streams, vec![StreamId(0), StreamId(1)]);
        assert!(merged.timeframe.start >= 10);
        assert!(merged.timeframe.end <= 16);
        assert_eq!(patterns[1].streams, vec![StreamId(2)]);
    }

    #[test]
    fn disjoint_bursts_are_not_merged() {
        let base = Base::new();
        let series = vec![
            (StreamId(0), series_with_burst(40, 5..10, 15.0)),
            (StreamId(1), series_with_burst(40, 30..35, 15.0)),
        ];
        let patterns = base.mine_series(&series);
        assert_eq!(patterns.len(), 2);
        for p in &patterns {
            assert_eq!(p.n_streams(), 1);
        }
    }

    #[test]
    fn delta_controls_merging() {
        let strict = Base::with_config(BaseConfig {
            gap_fill: 0,
            delta: 0.9,
        });
        let lenient = Base::with_config(BaseConfig {
            gap_fill: 0,
            delta: 0.1,
        });
        let series = vec![
            (StreamId(0), series_with_burst(40, 10..20, 15.0)),
            (StreamId(1), series_with_burst(40, 17..25, 15.0)),
        ];
        assert_eq!(strict.mine_series(&series).len(), 2);
        assert_eq!(lenient.mine_series(&series).len(), 1);
    }

    #[test]
    fn empty_input() {
        assert!(Base::new().mine_series(&[]).is_empty());
    }
}
