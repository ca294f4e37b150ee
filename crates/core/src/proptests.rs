//! Property-based tests for the pattern miners.

use crate::interval_clique::{max_weight_clique_naive, max_weight_interval_clique};
use crate::{Pattern, STComb, STLocal, STLocalConfig, WeightedInterval, TB};
use proptest::prelude::*;
use stb_corpus::StreamId;
use stb_geo::Point2D;
use stb_timeseries::TimeInterval;

fn arb_weighted_intervals() -> impl Strategy<Value = Vec<WeightedInterval>> {
    prop::collection::vec(
        (0usize..40, 0usize..10, 0.01f64..2.0, 0usize..8).prop_map(|(start, len, w, tag)| {
            WeightedInterval::new(TimeInterval::new(start, start + len), w, tag)
        }),
        0..15,
    )
}

proptest! {
    #[test]
    fn clique_sweep_matches_naive(intervals in arb_weighted_intervals()) {
        let fast = max_weight_interval_clique(&intervals);
        let slow = max_weight_clique_naive(&intervals);
        match (fast, slow) {
            (None, None) => {}
            (Some(f), Some(s)) => {
                prop_assert!((f.weight - s.weight).abs() < 1e-9, "{} vs {}", f.weight, s.weight);
            }
            (f, s) => prop_assert!(false, "presence mismatch {f:?} vs {s:?}"),
        }
    }

    #[test]
    fn clique_members_share_the_common_segment(intervals in arb_weighted_intervals()) {
        if let Some(c) = max_weight_interval_clique(&intervals) {
            prop_assert!(c.weight > 0.0);
            for &m in &c.members {
                prop_assert!(intervals[m].interval.contains(c.common.start));
                prop_assert!(intervals[m].interval.contains(c.common.end));
            }
        }
    }

    #[test]
    fn stcomb_patterns_are_internally_consistent(intervals in arb_weighted_intervals()) {
        let patterns = STComb::new().mine_intervals(&intervals);
        for p in &patterns {
            // Score equals the sum of its member interval weights.
            let sum: f64 = p.intervals.iter().map(|(_, _, w)| w).sum();
            prop_assert!((sum - p.score).abs() < 1e-9);
            // The timeframe is contained in every member interval.
            for (_, interval, _) in &p.intervals {
                prop_assert!(interval.contains(p.timeframe.start));
                prop_assert!(interval.contains(p.timeframe.end));
            }
            // Streams are sorted and unique.
            for w in p.streams.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }
        // Patterns are sorted by score (iterative clique removal guarantees
        // non-increasing scores).
        for w in patterns.windows(2) {
            prop_assert!(w[0].score >= w[1].score - 1e-9);
        }
    }

    #[test]
    fn stcomb_uses_each_interval_at_most_once(intervals in arb_weighted_intervals()) {
        let patterns = STComb::new().mine_intervals(&intervals);
        let used: usize = patterns.iter().map(|p| p.intervals.len()).sum();
        prop_assert!(used <= intervals.len());
    }

    #[test]
    fn tb_patterns_cover_all_streams_and_positive_scores(
        freqs in prop::collection::vec(0.0f64..30.0, 5..60),
        n_streams in 1usize..6
    ) {
        let streams: Vec<StreamId> = (0..n_streams as u32).map(StreamId).collect();
        let patterns = TB::new().mine_merged_series(&freqs, &streams);
        for p in &patterns {
            prop_assert_eq!(p.n_streams(), n_streams);
            prop_assert!(p.score > 0.0);
            prop_assert!(p.timeframe.end < freqs.len());
        }
    }

    #[test]
    fn stlocal_patterns_have_positive_scores_and_valid_members(
        burst_stream in 0usize..4,
        burst_start in 2usize..10,
        burst_len in 1usize..5,
        peak in 5.0f64..30.0
    ) {
        let positions = vec![
            Point2D::new(0.0, 0.0),
            Point2D::new(1.0, 1.0),
            Point2D::new(30.0, 30.0),
            Point2D::new(31.0, 31.0),
        ];
        let timeline = 20;
        let mut miner = STLocal::new(positions.clone(), STLocalConfig::default());
        for ts in 0..timeline {
            let mut obs = vec![1.0; positions.len()];
            if ts >= burst_start && ts < burst_start + burst_len {
                obs[burst_stream] = peak;
            }
            miner.step(&obs);
        }
        for p in miner.finish() {
            prop_assert!(p.score > 0.0);
            prop_assert!(p.timeframe.end < timeline);
            prop_assert!(!p.streams.is_empty());
            for s in &p.streams {
                prop_assert!(s.index() < positions.len());
            }
            prop_assert!(p.overlaps(p.streams[0], p.timeframe.start));
        }
    }
}
