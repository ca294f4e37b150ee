//! Incremental (online) maintenance of maximal scoring subsequences.
//!
//! The streaming `STLocal` algorithm (Algorithm 2 in the paper) appends one
//! r-score to each tracked region's sequence per timestamp and needs the set
//! of maximal windows to be kept up to date without reprocessing the whole
//! sequence. [`OnlineMaxSeg`] does exactly that: it carries the Ruzzo–Tompa
//! candidate list across pushes, so each new score costs amortized `O(1)`
//! and the current maximal segments can be read off at any time.

use crate::ruzzo_tompa::{rt_push, Candidate, Segment};

/// Online Ruzzo–Tompa state: push scores one at a time, read the maximal
/// segments of everything pushed so far at any point.
#[derive(Debug, Clone, Default)]
pub struct OnlineMaxSeg {
    candidates: Vec<Candidate>,
    cum: f64,
    len: usize,
}

impl OnlineMaxSeg {
    /// Creates an empty state (no scores pushed yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the next score of the sequence.
    pub fn push(&mut self, score: f64) {
        self.cum = rt_push(&mut self.candidates, self.len, score, self.cum);
        self.len += 1;
    }

    /// Appends several scores in order.
    #[cfg(test)]
    pub(crate) fn extend<I: IntoIterator<Item = f64>>(&mut self, scores: I) {
        for s in scores {
            self.push(s);
        }
    }

    /// Running total of all scores pushed so far.
    ///
    /// `STLocal` uses this to prune region sequences: once the total drops
    /// below zero the region can never again contribute a maximal window
    /// that extends the current suffix, so its sequence is dropped.
    pub fn total(&self) -> f64 {
        self.cum
    }

    /// The maximal scoring subsequences of everything pushed so far, sorted
    /// by start index.
    pub fn maximal_segments(&self) -> Vec<Segment> {
        let mut segs: Vec<Segment> = self
            .candidates
            .iter()
            .map(|c| Candidate::to_segment(*c))
            .collect();
        segs.sort_by_key(|s| s.start());
        segs
    }

    /// The highest-scoring maximal segment so far, if any score pushed so far
    /// was positive.
    pub fn best_segment(&self) -> Option<Segment> {
        self.candidates
            .iter()
            .map(|c| Candidate::to_segment(*c))
            .max_by(|a, b| {
                a.score
                    .partial_cmp(&b.score)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }

    /// Number of candidate segments currently kept. This is the "open
    /// windows" count reported in Figure 6 of the paper.
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ruzzo_tompa::max_segments;

    #[test]
    fn empty_state() {
        let s = OnlineMaxSeg::new();
        assert_eq!(s.total(), 0.0);
        assert!(s.maximal_segments().is_empty());
        assert!(s.best_segment().is_none());
    }

    #[test]
    fn matches_batch_on_paper_example() {
        let scores = [4.0, -5.0, 3.0, -3.0, 1.0, 2.0, -2.0, 2.0, -2.0, 1.0, 5.0];
        let mut online = OnlineMaxSeg::new();
        online.extend(scores.iter().copied());
        let batch = max_segments(&scores);
        let incr = online.maximal_segments();
        assert_eq!(batch.len(), incr.len());
        for (a, b) in batch.iter().zip(&incr) {
            assert_eq!(a.interval, b.interval);
            assert!((a.score - b.score).abs() < 1e-12);
        }
    }

    #[test]
    fn matches_batch_at_every_prefix() {
        let scores = [0.5, -1.0, 2.0, 1.0, -4.0, 3.0, -0.5, 0.7, -0.1, 0.2];
        let mut online = OnlineMaxSeg::new();
        for i in 0..scores.len() {
            online.push(scores[i]);
            let batch = max_segments(&scores[..=i]);
            let incr = online.maximal_segments();
            assert_eq!(batch.len(), incr.len(), "prefix {i}");
            for (a, b) in batch.iter().zip(&incr) {
                assert_eq!(a.interval, b.interval, "prefix {i}");
                assert!((a.score - b.score).abs() < 1e-12, "prefix {i}");
            }
        }
    }

    #[test]
    fn total_tracks_sum() {
        let mut s = OnlineMaxSeg::new();
        s.extend([1.0, -2.5, 3.0]);
        assert!((s.total() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn best_segment_is_max_score() {
        let mut s = OnlineMaxSeg::new();
        s.extend([2.0, -5.0, 1.0, 1.0, 1.0, -5.0, 2.5]);
        let best = s.best_segment().unwrap();
        assert!((best.score - 3.0).abs() < 1e-12);
        assert_eq!(best.start(), 2);
        assert_eq!(best.end(), 4);
    }

    #[test]
    fn candidate_count_bounded_by_positive_scores() {
        let mut s = OnlineMaxSeg::new();
        let scores = [1.0, -0.1, 1.0, -0.1, 1.0, -0.1];
        s.extend(scores.iter().copied());
        assert!(s.candidate_count() <= scores.iter().filter(|&&x| x > 0.0).count());
    }
}
