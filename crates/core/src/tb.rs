//! The `TB` baseline: temporal-only burstiness over the merged stream.
//!
//! `TB` is the search approach of Lappas et al. (KDD 2009) that the paper
//! compares against in the Bursty Documents experiment (Section 6.3): it
//! ignores where documents come from, merges every stream into a single
//! document sequence, and mines the temporal bursts of that merged sequence.
//! Each temporal burst becomes a pattern that covers *all* streams (since
//! the origin of documents is disregarded) over the burst's timeframe.

use crate::pattern::CombinatorialPattern;
use stb_corpus::{Collection, StreamId, TermId};
use stb_timeseries::temporal_burst::bursty_intervals_with_threshold;

/// Configuration of the `TB` baseline.
#[derive(Debug, Clone)]
pub(crate) struct TBConfig {
    /// Minimum temporal burstiness `B_T` for a burst to become a pattern.
    pub(crate) min_interval_score: f64,
    /// Maximum number of patterns (bursts) reported per term.
    pub(crate) max_patterns: usize,
}

impl Default for TBConfig {
    fn default() -> Self {
        Self {
            min_interval_score: 0.0,
            max_patterns: 10,
        }
    }
}

/// The temporal-only baseline miner.
#[derive(Debug, Clone, Default)]
pub struct TB {
    config: TBConfig,
}

impl TB {
    /// Creates a baseline miner with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a baseline miner with an explicit configuration.
    #[cfg(test)]
    pub(crate) fn with_config(config: TBConfig) -> Self {
        Self { config }
    }

    /// Mines temporal-burst patterns for one term: the per-stream series are
    /// merged into one and its bursty intervals are reported as patterns
    /// covering every stream of the collection.
    pub fn mine_collection(
        &self,
        collection: &Collection,
        term: TermId,
    ) -> Vec<CombinatorialPattern> {
        let merged = collection.term_merged_series(term);
        let all_streams: Vec<StreamId> = (0..collection.n_streams())
            .map(|i| StreamId(i as u32))
            .collect();
        self.mine_merged_series(&merged, &all_streams)
    }

    /// Mines temporal-burst patterns from an explicit merged frequency
    /// series; the returned patterns cover the given stream set.
    pub fn mine_merged_series(
        &self,
        merged: &[f64],
        streams: &[StreamId],
    ) -> Vec<CombinatorialPattern> {
        let mut bursts = bursty_intervals_with_threshold(merged, self.config.min_interval_score);
        bursts.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        bursts
            .into_iter()
            .take(self.config.max_patterns)
            .map(|b| {
                let intervals = streams.iter().map(|&s| (s, b.interval, b.score)).collect();
                CombinatorialPattern::new(streams.to_vec(), b.interval, b.score, intervals)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;
    use stb_corpus::CollectionBuilder;
    use stb_geo::GeoPoint;
    use std::collections::HashMap;

    fn collection_with_global_burst() -> (Collection, TermId) {
        let mut b = CollectionBuilder::new(20);
        let crisis = b.dict_mut().intern("crisis");
        let streams: Vec<StreamId> = (0..4)
            .map(|i| b.add_stream(&format!("S{i}"), GeoPoint::new(i as f64 * 10.0, 0.0)))
            .collect();
        for ts in 0..20 {
            for &s in &streams {
                let mut counts = HashMap::new();
                counts.insert(crisis, if (8..11).contains(&ts) { 20 } else { 1 });
                b.add_document(s, ts, counts);
            }
        }
        (b.build(), crisis)
    }

    #[test]
    fn detects_burst_on_merged_stream() {
        let (c, crisis) = collection_with_global_burst();
        let patterns = TB::new().mine_collection(&c, crisis);
        assert!(!patterns.is_empty());
        let top = &patterns[0];
        assert_eq!(top.timeframe.start, 8);
        assert_eq!(top.timeframe.end, 10);
        // TB patterns cover every stream of the collection.
        assert_eq!(top.n_streams(), c.n_streams());
    }

    #[test]
    fn pattern_overlaps_any_stream_in_timeframe() {
        let (c, crisis) = collection_with_global_burst();
        let patterns = TB::new().mine_collection(&c, crisis);
        let top = &patterns[0];
        assert!(top.overlaps(StreamId(0), 9));
        assert!(top.overlaps(StreamId(3), 9));
        assert!(!top.overlaps(StreamId(0), 2));
    }

    #[test]
    fn max_patterns_is_respected() {
        let merged: Vec<f64> = (0..50)
            .map(|t| if t % 10 == 0 { 30.0 } else { 1.0 })
            .collect();
        let streams = vec![StreamId(0)];
        let config = TBConfig {
            max_patterns: 2,
            ..Default::default()
        };
        let patterns = TB::with_config(config).mine_merged_series(&merged, &streams);
        assert_eq!(patterns.len(), 2);
        let all = TB::new().mine_merged_series(&merged, &streams);
        assert!(all.len() > 2);
    }

    #[test]
    fn flat_series_gives_no_patterns() {
        let patterns = TB::new().mine_merged_series(&[2.0; 30], &[StreamId(0)]);
        assert!(patterns.is_empty());
    }

    #[test]
    fn patterns_sorted_by_score() {
        let mut merged = vec![1.0; 60];
        for t in 10..13 {
            merged[t] = 50.0;
        }
        merged[40] = 10.0;
        let patterns = TB::new().mine_merged_series(&merged, &[StreamId(0)]);
        assert!(patterns.len() >= 2);
        for w in patterns.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }
}
