//! `STComb`: combinatorial spatiotemporal patterns (Section 3).
//!
//! For a given term, `STComb`:
//!
//! 1. extracts the non-overlapping bursty temporal intervals of the term in
//!    every stream independently (the KDD'09 discrepancy detector of
//!    [`stb_timeseries::bursty_intervals`]),
//! 2. pools all intervals and solves the Highest-Scoring-Subset problem —
//!    the maximum-weight clique of the interval graph — to obtain the
//!    strongest set of streams that were simultaneously bursty
//!    ([`crate::max_weight_interval_clique`]),
//! 3. optionally iterates: removing the clique's intervals and re-solving
//!    yields multiple non-overlapping combinatorial patterns, strongest
//!    first, exactly as the paper's "Getting Multiple Patterns" paragraph
//!    prescribes.
//!
//! Steps 2 and 3 ([`STComb::mine_intervals`]) only see the pooled weighted
//! intervals, not the detector that produced them.

use crate::interval_clique::{max_weight_interval_clique, WeightedInterval};
use crate::pattern::CombinatorialPattern;
use stb_corpus::{Collection, StreamId, TermId};
use stb_timeseries::temporal_burst::bursty_intervals_with_threshold;
use stb_timeseries::TimeInterval;

/// Configuration of the `STComb` miner.
#[derive(Debug, Clone)]
pub struct STCombConfig {
    /// Maximum number of (non-overlapping) patterns to report per term.
    pub max_patterns: usize,
    /// Minimum temporal burstiness `B_T` for a per-stream interval to enter
    /// the clique problem. The paper keeps every positive interval (0.0);
    /// raising this suppresses noise-level intervals and speeds up mining.
    pub min_interval_score: f64,
    /// Minimum number of streams a pattern must span to be reported.
    pub min_streams: usize,
}

impl Default for STCombConfig {
    fn default() -> Self {
        Self {
            max_patterns: 10,
            min_interval_score: 0.0,
            min_streams: 1,
        }
    }
}

/// The `STComb` miner.
///
/// # Example
///
/// Two streams burst together over timestamps 3..=5, a third stays flat;
/// `STComb` reports one pattern spanning exactly the two bursty streams:
///
/// ```
/// use stb_core::STComb;
/// use stb_corpus::StreamId;
///
/// let quiet = vec![1.0; 10];
/// let mut bursty = quiet.clone();
/// for t in 3..=5 {
///     bursty[t] = 9.0;
/// }
/// let series = vec![
///     (StreamId(0), bursty.clone()),
///     (StreamId(1), bursty),
///     (StreamId(2), quiet),
/// ];
/// let patterns = STComb::new().mine_series(&series);
/// assert_eq!(patterns[0].streams, vec![StreamId(0), StreamId(1)]);
/// assert!(patterns[0].timeframe.contains(4));
/// ```
#[derive(Debug, Clone, Default)]
pub struct STComb {
    config: STCombConfig,
}

impl STComb {
    /// Creates a miner with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a miner with an explicit configuration.
    pub fn with_config(config: STCombConfig) -> Self {
        Self { config }
    }

    /// Mines combinatorial patterns for one term of a document collection.
    ///
    /// Every stream in which the term occurs contributes its bursty temporal
    /// intervals; patterns are returned strongest first.
    pub fn mine_collection(
        &self,
        collection: &Collection,
        term: TermId,
    ) -> Vec<CombinatorialPattern> {
        let series: Vec<(StreamId, Vec<f64>)> = collection
            .streams_with_term(term)
            .into_iter()
            .map(|s| (s, collection.term_stream_series(term, s)))
            .collect();
        self.mine_series(&series)
    }

    /// Mines combinatorial patterns from explicit per-stream frequency
    /// series (one entry per stream: the stream id and its frequency series
    /// over the shared timeline).
    pub fn mine_series(&self, series: &[(StreamId, Vec<f64>)]) -> Vec<CombinatorialPattern> {
        let mut intervals: Vec<WeightedInterval> = Vec::new();
        for (stream, freqs) in series {
            for b in bursty_intervals_with_threshold(freqs, self.config.min_interval_score) {
                intervals.push(WeightedInterval::new(b.interval, b.score, stream.index()));
            }
        }
        self.mine_intervals(&intervals)
    }

    /// Mines combinatorial patterns from an explicit pool of per-stream
    /// bursty intervals (the tag of each interval must be the stream index).
    ///
    /// This is the lowest-level step: it does not depend on which temporal
    /// burst detector produced the intervals.
    pub(crate) fn mine_intervals(
        &self,
        intervals: &[WeightedInterval],
    ) -> Vec<CombinatorialPattern> {
        let mut pool: Vec<WeightedInterval> = intervals.to_vec();
        let mut patterns = Vec::new();
        while patterns.len() < self.config.max_patterns {
            let Some(clique) = max_weight_interval_clique(&pool) else {
                break;
            };
            let member_intervals: Vec<(StreamId, TimeInterval, f64)> = clique
                .members
                .iter()
                .map(|&i| {
                    let wi = pool[i];
                    (StreamId(wi.tag as u32), wi.interval, wi.weight)
                })
                .collect();
            let streams: Vec<StreamId> = member_intervals.iter().map(|(s, _, _)| *s).collect();
            let pattern =
                CombinatorialPattern::new(streams, clique.common, clique.weight, member_intervals);
            // Remove the clique's intervals from the pool before iterating
            // ("Getting Multiple Patterns", Section 3).
            let member_set: std::collections::HashSet<usize> =
                clique.members.iter().copied().collect();
            pool = pool
                .into_iter()
                .enumerate()
                .filter(|(i, _)| !member_set.contains(i))
                .map(|(_, wi)| wi)
                .collect();
            if pattern.n_streams() >= self.config.min_streams {
                patterns.push(pattern);
            }
        }
        patterns
    }

    /// Parallel driver: mines several terms of a collection concurrently
    /// (terms are independent). Results are returned in the order of the
    /// input terms, as the `(term, patterns)` list the search engine's
    /// `set_patterns_from` takes directly.
    pub fn mine_collection_parallel(
        &self,
        collection: &Collection,
        terms: &[TermId],
        n_threads: usize,
    ) -> Vec<(TermId, Vec<CombinatorialPattern>)> {
        crate::parallel_map(terms.len(), n_threads, |i| {
            let term = terms[i];
            (term, self.mine_collection(collection, term))
        })
    }

    /// Convenience: the single highest-scoring pattern for a term (the HSS
    /// problem, Problem 1 of the paper).
    pub fn top_pattern(
        &self,
        collection: &Collection,
        term: TermId,
    ) -> Option<CombinatorialPattern> {
        let mut limited = self.clone();
        limited.config.max_patterns = 1;
        limited.mine_collection(collection, term).into_iter().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stb_corpus::CollectionBuilder;
    use stb_geo::GeoPoint;
    use std::collections::HashMap;

    /// Builds a collection where the term "storm" bursts in streams 0 and 1
    /// during timestamps 10..=12, and stream 2 stays flat.
    fn bursty_collection() -> (Collection, TermId) {
        let mut b = CollectionBuilder::new(30);
        let storm = b.dict_mut().intern("storm");
        let calm = b.dict_mut().intern("calm");
        let s0 = b.add_stream("A", GeoPoint::new(0.0, 0.0));
        let s1 = b.add_stream("B", GeoPoint::new(1.0, 1.0));
        let s2 = b.add_stream("C", GeoPoint::new(50.0, 50.0));
        for ts in 0..30 {
            for &s in &[s0, s1, s2] {
                let mut counts = HashMap::new();
                counts.insert(calm, 5);
                // Background occurrence of "storm" everywhere.
                counts.insert(storm, 1);
                b.add_document(s, ts, counts);
            }
        }
        for ts in 10..=12 {
            for &s in &[s0, s1] {
                let mut counts = HashMap::new();
                counts.insert(storm, 40);
                b.add_document(s, ts, counts);
            }
        }
        (b.build(), storm)
    }

    #[test]
    fn detects_simultaneous_burst_across_streams() {
        let (c, storm) = bursty_collection();
        let patterns = STComb::new().mine_collection(&c, storm);
        assert!(!patterns.is_empty());
        let top = &patterns[0];
        assert_eq!(top.streams, vec![StreamId(0), StreamId(1)]);
        assert!(top.timeframe.start >= 9 && top.timeframe.start <= 11);
        assert!(top.timeframe.end >= 11 && top.timeframe.end <= 13);
        assert!(top.score > 1.0);
    }

    #[test]
    fn parallel_driver_matches_serial_mining() {
        let (c, storm) = bursty_collection();
        let calm = c.dict().get("calm").unwrap();
        let miner = STComb::new();
        let par = miner.mine_collection_parallel(&c, &[storm, calm], 3);
        assert_eq!(par.len(), 2);
        assert_eq!(par[0].0, storm);
        assert_eq!(par[1].0, calm);
        assert_eq!(par[0].1, miner.mine_collection(&c, storm));
        assert!(par[1].1.is_empty());
    }

    #[test]
    fn top_pattern_matches_first_of_mine() {
        let (c, storm) = bursty_collection();
        let all = STComb::new().mine_collection(&c, storm);
        let top = STComb::new().top_pattern(&c, storm).unwrap();
        assert_eq!(all[0], top);
    }

    #[test]
    fn flat_term_produces_no_patterns() {
        let (c, _) = bursty_collection();
        let calm = c.dict().get("calm").unwrap();
        let patterns = STComb::new().mine_collection(&c, calm);
        assert!(patterns.is_empty());
    }

    #[test]
    fn patterns_use_each_interval_once() {
        let intervals = vec![
            WeightedInterval::new(TimeInterval::new(0, 5), 0.8, 0),
            WeightedInterval::new(TimeInterval::new(2, 6), 0.7, 1),
            WeightedInterval::new(TimeInterval::new(10, 15), 0.5, 0),
            WeightedInterval::new(TimeInterval::new(11, 14), 0.4, 2),
        ];
        let patterns = STComb::new().mine_intervals(&intervals);
        assert_eq!(patterns.len(), 2);
        assert!((patterns[0].score - 1.5).abs() < 1e-12);
        assert!((patterns[1].score - 0.9).abs() < 1e-12);
        // Each pattern draws from disjoint interval sets.
        let total_intervals: usize = patterns.iter().map(|p| p.intervals.len()).sum();
        assert_eq!(total_intervals, 4);
    }

    #[test]
    fn max_patterns_limits_output() {
        let intervals: Vec<WeightedInterval> = (0..8)
            .map(|i| WeightedInterval::new(TimeInterval::new(i * 10, i * 10 + 3), 0.5, i))
            .collect();
        let config = STCombConfig {
            max_patterns: 3,
            ..Default::default()
        };
        let patterns = STComb::with_config(config).mine_intervals(&intervals);
        assert_eq!(patterns.len(), 3);
    }

    #[test]
    fn min_streams_filters_small_patterns() {
        let intervals = vec![
            WeightedInterval::new(TimeInterval::new(0, 5), 0.9, 0),
            WeightedInterval::new(TimeInterval::new(1, 4), 0.3, 1),
            WeightedInterval::new(TimeInterval::new(20, 25), 0.8, 2),
        ];
        let config = STCombConfig {
            min_streams: 2,
            ..Default::default()
        };
        let patterns = STComb::with_config(config).mine_intervals(&intervals);
        assert_eq!(patterns.len(), 1);
        assert_eq!(patterns[0].n_streams(), 2);
    }

    #[test]
    fn empty_input() {
        assert!(STComb::new().mine_intervals(&[]).is_empty());
        assert!(STComb::new().mine_series(&[]).is_empty());
    }

    #[test]
    fn pattern_timeframe_is_common_segment_of_member_intervals() {
        let (c, storm) = bursty_collection();
        for p in STComb::new().mine_collection(&c, storm) {
            for (_, interval, _) in &p.intervals {
                assert!(interval.contains(p.timeframe.start));
                assert!(interval.contains(p.timeframe.end));
            }
        }
    }
}
