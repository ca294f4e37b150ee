//! Ruzzo–Tompa maximal scoring subsequences (batch version).
//!
//! Given a sequence of real scores, the algorithm of Ruzzo & Tompa (ISMB
//! 1999) finds *all maximal scoring subsequences* — the unique set of
//! disjoint, positive-score contiguous segments such that no segment can be
//! extended or merged with its neighbourhood without lowering its score — in
//! a single linear pass. The paper uses it (as `GetMax`, Appendix C) to turn
//! per-timestamp burstiness scores into maximal bursty windows, and the
//! temporal burst extraction of Section 3 is exactly this algorithm applied
//! to the discrepancy-transformed frequency series.

use crate::interval::TimeInterval;

/// A scored segment `[start, end]` (inclusive indices) of the input sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Inclusive index range of the segment.
    pub(crate) interval: TimeInterval,
    /// Total score of the segment (always positive for maximal segments).
    pub score: f64,
}

impl Segment {
    /// Creates a segment covering `[start, end]` with the given score.
    pub(crate) fn new(start: usize, end: usize, score: f64) -> Self {
        Self {
            interval: TimeInterval::new(start, end),
            score,
        }
    }

    /// First index of the segment.
    pub fn start(&self) -> usize {
        self.interval.start
    }

    /// Last index of the segment.
    pub fn end(&self) -> usize {
        self.interval.end
    }
}

/// Internal candidate entry of the Ruzzo–Tompa list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    pub(crate) start: usize,
    pub(crate) end: usize,
    /// Cumulative score of the whole sequence up to (but excluding) `start`.
    pub(crate) l: f64,
    /// Cumulative score of the whole sequence up to and including `end`.
    pub(crate) r: f64,
}

impl Candidate {
    pub(crate) fn score(&self) -> f64 {
        self.r - self.l
    }

    pub(crate) fn to_segment(self) -> Segment {
        Segment::new(self.start, self.end, self.score())
    }
}

/// Core of the Ruzzo–Tompa step: integrates the score at `index` into the
/// candidate list. `cum` must be the cumulative sum *excluding* this score;
/// the updated cumulative sum is returned.
pub(crate) fn rt_push(candidates: &mut Vec<Candidate>, index: usize, score: f64, cum: f64) -> f64 {
    let new_cum = cum + score;
    if score <= 0.0 {
        // Non-positive scores never start or extend a candidate directly.
        return new_cum;
    }
    let mut k = Candidate {
        start: index,
        end: index,
        l: cum,
        r: new_cum,
    };
    loop {
        // Step 1: search the list from right to left for the maximum j with
        // L_j < L_k.
        let j = candidates.iter().rposition(|c| c.l < k.l);
        match j {
            None => {
                candidates.push(k);
                break;
            }
            Some(j) => {
                if candidates[j].r >= k.r {
                    // Step 2, first case: append k as a new candidate.
                    candidates.push(k);
                    break;
                }
                // Step 2, second case: extend k to the left to absorb
                // candidates j..end, then reconsider.
                k.start = candidates[j].start;
                k.l = candidates[j].l;
                candidates.truncate(j);
            }
        }
    }
    new_cum
}

/// Finds all maximal scoring subsequences of `scores` in linear time.
///
/// Segments are returned sorted by start index; every segment has a strictly
/// positive score. An all-non-positive input yields an empty result.
///
/// # Examples
///
/// ```
/// use stb_timeseries::max_segments;
/// let scores = [4.0, -5.0, 3.0, -3.0, 1.0, 2.0, -2.0, 2.0, -2.0, 1.0, 5.0];
/// let segs = max_segments(&scores);
/// // The example from Ruzzo & Tompa's paper: the maximal subsequences are
/// // [4], [3], and the trailing segment starting at the score 1 at index 4.
/// assert_eq!(segs.len(), 3);
/// assert_eq!(segs[0].start(), 0);
/// assert_eq!(segs[0].end(), 0);
/// assert_eq!(segs[1].start(), 2);
/// assert!((segs[2].score - 7.0).abs() < 1e-12);
/// ```
pub fn max_segments(scores: &[f64]) -> Vec<Segment> {
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut cum = 0.0;
    for (i, &s) in scores.iter().enumerate() {
        cum = rt_push(&mut candidates, i, s, cum);
    }
    let mut segs: Vec<Segment> = candidates.into_iter().map(Candidate::to_segment).collect();
    segs.sort_by_key(|s| s.start());
    segs
}

/// Maximum-sum contiguous subarray (Kadane's algorithm).
///
/// Returns `None` when every element is non-positive (the paper's burstiness
/// semantics never report empty or non-positive bursts). Test oracle, with
/// [`max_segments_reference`].
#[cfg(test)]
pub(crate) fn max_subarray(scores: &[f64]) -> Option<Segment> {
    let mut best: Option<Segment> = None;
    let mut cur_sum = 0.0;
    let mut cur_start = 0usize;
    for (i, &s) in scores.iter().enumerate() {
        if cur_sum <= 0.0 {
            cur_sum = s;
            cur_start = i;
        } else {
            cur_sum += s;
        }
        if cur_sum > 0.0 && best.is_none_or(|b| cur_sum > b.score) {
            best = Some(Segment::new(cur_start, i, cur_sum));
        }
    }
    best
}

/// Reference implementation of the maximal-scoring-subsequence set via the
/// divide-and-conquer characterization: find the maximum-sum subarray, then
/// recurse on the prefix before it and the suffix after it.
///
/// Quadratic in the worst case; only meant as a test oracle for
/// [`max_segments`].
#[cfg(test)]
pub(crate) fn max_segments_reference(scores: &[f64]) -> Vec<Segment> {
    fn recurse(scores: &[f64], offset: usize, out: &mut Vec<Segment>) {
        if scores.is_empty() {
            return;
        }
        if let Some(best) = max_subarray(scores) {
            let (s, e) = (best.start(), best.end());
            recurse(&scores[..s], offset, out);
            out.push(Segment::new(offset + s, offset + e, best.score));
            recurse(&scores[e + 1..], offset + e + 1, out);
        }
    }
    let mut out = Vec::new();
    recurse(scores, 0, &mut out);
    out.sort_by_key(|s| s.start());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_segs_eq(a: &[Segment], b: &[Segment]) {
        assert_eq!(a.len(), b.len(), "{a:?} vs {b:?}");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.interval, y.interval, "{a:?} vs {b:?}");
            assert!((x.score - y.score).abs() < 1e-9, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn empty_input() {
        assert!(max_segments(&[]).is_empty());
        assert!(max_subarray(&[]).is_none());
    }

    #[test]
    fn all_negative() {
        assert!(max_segments(&[-1.0, -2.0, -0.5]).is_empty());
        assert!(max_subarray(&[-1.0, -2.0, -0.5]).is_none());
    }

    #[test]
    fn all_zero() {
        assert!(max_segments(&[0.0, 0.0]).is_empty());
    }

    #[test]
    fn single_positive() {
        let segs = max_segments(&[0.0, 3.5, 0.0]);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].interval, TimeInterval::new(1, 1));
        assert_eq!(segs[0].score, 3.5);
    }

    #[test]
    fn all_positive_is_single_segment() {
        let segs = max_segments(&[1.0, 2.0, 3.0]);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].interval, TimeInterval::new(0, 2));
        assert!((segs[0].score - 6.0).abs() < 1e-12);
    }

    #[test]
    fn ruzzo_tompa_paper_example() {
        // The worked example from the original paper.
        let scores = [4.0, -5.0, 3.0, -3.0, 1.0, 2.0, -2.0, 2.0, -2.0, 1.0, 5.0];
        let segs = max_segments(&scores);
        let expected = [
            Segment::new(0, 0, 4.0),
            Segment::new(2, 2, 3.0),
            Segment::new(4, 10, 7.0),
        ];
        assert_segs_eq(&segs, &expected);
    }

    #[test]
    fn two_separate_bursts() {
        let scores = [-1.0, 2.0, 3.0, -10.0, 4.0, -1.0, 2.0, -8.0];
        let segs = max_segments(&scores);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].interval, TimeInterval::new(1, 2));
        assert!((segs[0].score - 5.0).abs() < 1e-12);
        assert_eq!(segs[1].interval, TimeInterval::new(4, 6));
        assert!((segs[1].score - 5.0).abs() < 1e-12);
    }

    #[test]
    fn segments_are_disjoint_and_positive() {
        let scores = [1.0, -0.5, 2.0, -3.0, 0.5, 0.5, -0.2, 0.1];
        let segs = max_segments(&scores);
        for w in segs.windows(2) {
            assert!(w[0].end() < w[1].start());
        }
        for s in &segs {
            assert!(s.score > 0.0);
        }
    }

    #[test]
    fn matches_reference_on_fixed_cases() {
        let cases: Vec<Vec<f64>> = vec![
            vec![4.0, -5.0, 3.0, -3.0, 1.0, 2.0, -2.0, 2.0, -2.0, 1.0, 5.0],
            vec![1.0, -1.0, 1.0, -1.0, 1.0],
            vec![-2.0, 5.0, -1.0, -1.0, 5.0, -2.0],
            vec![0.5, 0.5, -2.0, 3.0, -0.5, -0.5, 2.0],
            vec![2.0, -1.0, 2.0, -1.0, 2.0, -10.0, 1.0],
        ];
        for case in cases {
            assert_segs_eq(&max_segments(&case), &max_segments_reference(&case));
        }
    }

    #[test]
    fn best_segment_matches_kadane() {
        let scores = [0.3, -0.2, 0.9, -1.4, 2.0, 0.1, -0.6, 0.4];
        let segs = max_segments(&scores);
        let best = segs
            .iter()
            .map(|s| s.score)
            .fold(f64::NEG_INFINITY, f64::max);
        let kadane = max_subarray(&scores).unwrap().score;
        assert!((best - kadane).abs() < 1e-12);
    }

    #[test]
    fn kadane_finds_middle_segment() {
        let scores = [-2.0, 1.0, 2.0, -1.0, 3.0, -5.0, 1.0];
        let seg = max_subarray(&scores).unwrap();
        assert_eq!(seg.interval, TimeInterval::new(1, 4));
        assert!((seg.score - 5.0).abs() < 1e-12);
    }
}
