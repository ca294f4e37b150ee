//! Temporal burstiness of a term within a single stream.
//!
//! Implements the discrepancy-based temporal burstiness measure of Eq. 1 in
//! the paper (introduced in Lappas et al., "On burstiness-aware search for
//! document sequences", KDD 2009) and the linear-time extraction of the
//! non-overlapping bursty temporal intervals that `STComb` consumes.
//!
//! Given the frequency series `Y_t = y_1 .. y_N` of a term and an interval
//! `I = [l, r]`:
//!
//! ```text
//! B_T(I) = sum_{i in I} y_i / W  −  |I| / N        where W = sum_i y_i
//! ```
//!
//! i.e. the share of the term's total mass that falls inside `I` minus the
//! share of the timeline that `I` covers. `B_T(I)` is always in `[-1, 1]`
//! and positive exactly when the interval holds more than its "fair share"
//! of the mass. Because `B_T` decomposes into per-timestamp contributions
//! `y_i/W − 1/N`, the set of maximal bursty intervals is exactly the set of
//! Ruzzo–Tompa maximal segments of that transformed series.

use crate::interval::TimeInterval;
use crate::ruzzo_tompa::max_segments;

/// A bursty temporal interval: where it lies on the timeline and how bursty
/// it is (its `B_T` score).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstyInterval {
    /// The interval on the timeline (inclusive timestamps).
    pub interval: TimeInterval,
    /// The temporal burstiness `B_T` of the interval, in `(0, 1]`.
    pub score: f64,
}

/// Computes the temporal burstiness `B_T(I)` (Eq. 1) of the interval
/// `[start, end]` (inclusive) of the frequency series `frequencies`.
///
/// Returns 0 when the series has no mass (all-zero frequencies), and clamps
/// the interval to the series length. Test oracle for the scores
/// [`bursty_intervals`] reports.
#[cfg(test)]
pub(crate) fn temporal_burstiness(frequencies: &[f64], interval: TimeInterval) -> f64 {
    if frequencies.is_empty() {
        return 0.0;
    }
    let n = frequencies.len();
    let total: f64 = frequencies.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let start = interval.start.min(n - 1);
    let end = interval.end.min(n - 1);
    let mass: f64 = frequencies[start..=end].iter().sum();
    mass / total - (end - start + 1) as f64 / n as f64
}

/// Extracts the set of non-overlapping bursty temporal intervals of a
/// frequency series, each with its `B_T` score, in linear time.
///
/// This reproduces the burst extraction of Lappas et al. (KDD 2009) that
/// `STComb` builds on: transform each timestamp's frequency into its
/// discrepancy contribution and take the Ruzzo–Tompa maximal segments.
/// Returned intervals are sorted by start timestamp, strictly
/// non-overlapping, and all have strictly positive scores.
pub fn bursty_intervals(frequencies: &[f64]) -> Vec<BurstyInterval> {
    if frequencies.is_empty() {
        return Vec::new();
    }
    let n = frequencies.len() as f64;
    let total: f64 = frequencies.iter().sum();
    if total <= 0.0 {
        return Vec::new();
    }
    let transformed: Vec<f64> = frequencies.iter().map(|&y| y / total - 1.0 / n).collect();
    max_segments(&transformed)
        .into_iter()
        .map(|seg| BurstyInterval {
            interval: seg.interval,
            score: seg.score,
        })
        .collect()
}

/// Like [`bursty_intervals`] but keeps only intervals with score at least
/// `min_score`. Useful to suppress micro-bursts when feeding `STComb`.
pub fn bursty_intervals_with_threshold(frequencies: &[f64], min_score: f64) -> Vec<BurstyInterval> {
    bursty_intervals(frequencies)
        .into_iter()
        .filter(|b| b.score >= min_score)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_series() {
        assert!(bursty_intervals(&[]).is_empty());
        assert_eq!(temporal_burstiness(&[], TimeInterval::new(0, 0)), 0.0);
    }

    #[test]
    fn zero_mass_series() {
        let freqs = [0.0; 10];
        assert!(bursty_intervals(&freqs).is_empty());
        assert_eq!(temporal_burstiness(&freqs, TimeInterval::new(0, 9)), 0.0);
    }

    #[test]
    fn uniform_series_has_no_bursts() {
        let freqs = [5.0; 12];
        assert!(bursty_intervals(&freqs).is_empty());
        // Any interval of a uniform series has zero burstiness.
        assert!(temporal_burstiness(&freqs, TimeInterval::new(3, 7)).abs() < 1e-12);
    }

    #[test]
    fn temporal_burstiness_doc_example() {
        let freqs = [0.0, 0.0, 8.0, 8.0, 0.0, 0.0, 0.0, 0.0];
        // The two bursty days hold 100% of the mass but only 25% of the timeline.
        let b = temporal_burstiness(&freqs, TimeInterval::new(2, 3));
        assert!((b - 0.75).abs() < 1e-12);
    }

    #[test]
    fn whole_timeline_has_zero_burstiness() {
        let freqs = [1.0, 9.0, 2.0, 0.0, 5.0];
        let b = temporal_burstiness(&freqs, TimeInterval::new(0, 4));
        assert!(b.abs() < 1e-12);
    }

    #[test]
    fn burstiness_bounded_by_one() {
        let freqs = [0.0, 0.0, 0.0, 100.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let b = temporal_burstiness(&freqs, TimeInterval::new(3, 3));
        assert!(b > 0.0 && b <= 1.0);
        assert!((b - 0.9).abs() < 1e-12);
    }

    #[test]
    fn single_spike_detected() {
        let freqs = [1.0, 1.0, 1.0, 50.0, 1.0, 1.0, 1.0, 1.0];
        let bursts = bursty_intervals(&freqs);
        assert_eq!(bursts.len(), 1);
        assert_eq!(bursts[0].interval, TimeInterval::new(3, 3));
        assert!(bursts[0].score > 0.7);
    }

    #[test]
    fn two_spikes_detected_separately() {
        let mut freqs = vec![1.0; 30];
        freqs[5] = 40.0;
        freqs[6] = 40.0;
        freqs[20] = 60.0;
        let bursts = bursty_intervals(&freqs);
        assert_eq!(bursts.len(), 2);
        assert_eq!(bursts[0].interval, TimeInterval::new(5, 6));
        assert_eq!(bursts[1].interval, TimeInterval::new(20, 20));
    }

    #[test]
    fn interval_scores_match_direct_formula() {
        let freqs = [2.0, 1.0, 0.0, 14.0, 18.0, 1.0, 0.0, 2.0, 1.0, 1.0];
        for b in bursty_intervals(&freqs) {
            let direct = temporal_burstiness(&freqs, b.interval);
            assert!((b.score - direct).abs() < 1e-9);
        }
    }

    #[test]
    fn intervals_do_not_overlap() {
        let freqs = [3.0, 0.1, 5.0, 0.1, 0.1, 7.0, 0.1, 2.0, 0.1, 4.0];
        let bursts = bursty_intervals(&freqs);
        for w in bursts.windows(2) {
            assert!(w[0].interval.end < w[1].interval.start);
        }
    }

    #[test]
    fn threshold_filters_weak_bursts() {
        let mut freqs = vec![1.0; 20];
        freqs[3] = 2.0; // weak blip
        freqs[10] = 50.0; // strong burst
        let all = bursty_intervals(&freqs);
        let strong = bursty_intervals_with_threshold(&freqs, 0.3);
        assert!(all.len() >= strong.len());
        assert_eq!(strong.len(), 1);
        assert_eq!(strong[0].interval, TimeInterval::new(10, 10));
    }

    #[test]
    fn interval_clamped_to_series() {
        let freqs = [1.0, 2.0, 3.0];
        let b = temporal_burstiness(&freqs, TimeInterval::new(2, 10));
        let direct = temporal_burstiness(&freqs, TimeInterval::new(2, 2));
        assert_eq!(b, direct);
    }
}
