//! Property-based tests for the temporal burst substrate.

use crate::ruzzo_tompa::{max_segments_reference, max_subarray};
use crate::temporal_burst::temporal_burstiness;
use crate::{bursty_intervals, max_segments, OnlineMaxSeg, RunningMean, TimeInterval};
use proptest::prelude::*;

fn arb_scores() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0f64..10.0, 0..60)
}

fn arb_frequencies() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..50.0, 1..60)
}

proptest! {
    #[test]
    fn rt_segments_are_disjoint_positive_sorted(scores in arb_scores()) {
        let segs = max_segments(&scores);
        for s in &segs {
            prop_assert!(s.score > 0.0);
            prop_assert!(s.end() < scores.len());
            // Boundary elements of a maximal segment are positive.
            prop_assert!(scores[s.start()] > 0.0);
            prop_assert!(scores[s.end()] > 0.0);
        }
        for w in segs.windows(2) {
            prop_assert!(w[0].end() < w[1].start());
        }
    }

    #[test]
    fn rt_segment_scores_match_sums(scores in arb_scores()) {
        for s in max_segments(&scores) {
            let sum: f64 = scores[s.start()..=s.end()].iter().sum();
            prop_assert!((sum - s.score).abs() < 1e-9);
        }
    }

    #[test]
    fn rt_internal_prefixes_and_suffixes_positive(scores in arb_scores()) {
        // Characterization of maximal segments: every proper prefix and
        // proper suffix of a maximal segment has strictly positive sum.
        for s in max_segments(&scores) {
            let seg = &scores[s.start()..=s.end()];
            let mut prefix = 0.0;
            for &x in &seg[..seg.len() - 1] {
                prefix += x;
                prop_assert!(prefix > 0.0);
            }
            let mut suffix = 0.0;
            for &x in seg[1..].iter().rev() {
                suffix += x;
                prop_assert!(suffix > 0.0);
            }
        }
    }

    #[test]
    fn rt_best_matches_kadane(scores in arb_scores()) {
        let segs = max_segments(&scores);
        let best = segs.iter().map(|s| s.score).fold(f64::NEG_INFINITY, f64::max);
        match max_subarray(&scores) {
            None => prop_assert!(segs.is_empty()),
            Some(k) => prop_assert!((best - k.score).abs() < 1e-9),
        }
    }

    #[test]
    fn rt_matches_divide_and_conquer_reference(scores in arb_scores()) {
        let a = max_segments(&scores);
        let b = max_segments_reference(&scores);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.interval, y.interval);
            prop_assert!((x.score - y.score).abs() < 1e-9);
        }
    }

    #[test]
    fn online_matches_batch_at_every_prefix(scores in arb_scores()) {
        let mut online = OnlineMaxSeg::new();
        for i in 0..scores.len() {
            online.push(scores[i]);
            let batch = max_segments(&scores[..=i]);
            let incr = online.maximal_segments();
            prop_assert_eq!(batch.len(), incr.len());
            for (a, b) in batch.iter().zip(&incr) {
                prop_assert_eq!(a.interval, b.interval);
                prop_assert!((a.score - b.score).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn burstiness_is_bounded(freqs in arb_frequencies(), a in 0usize..60, b in 0usize..60) {
        let n = freqs.len();
        let interval = TimeInterval::new(a.min(n - 1), b.min(n - 1));
        let score = temporal_burstiness(&freqs, interval);
        prop_assert!((-1.0..=1.0).contains(&score));
    }

    #[test]
    fn bursty_interval_scores_match_formula(freqs in arb_frequencies()) {
        for b in bursty_intervals(&freqs) {
            let direct = temporal_burstiness(&freqs, b.interval);
            prop_assert!((b.score - direct).abs() < 1e-9);
            prop_assert!(b.score > 0.0);
        }
    }

    #[test]
    fn bursty_intervals_nonoverlapping_and_within_bounds(freqs in arb_frequencies()) {
        let bursts = bursty_intervals(&freqs);
        for b in &bursts {
            prop_assert!(b.interval.end < freqs.len());
        }
        for w in bursts.windows(2) {
            prop_assert!(w[0].interval.end < w[1].interval.start);
        }
    }

    #[test]
    fn running_mean_matches_arithmetic_mean(values in prop::collection::vec(0.0f64..100.0, 1..50)) {
        let mut m = RunningMean::new();
        for &v in &values {
            m.observe(v);
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        prop_assert!((m.expected().unwrap() - mean).abs() < 1e-9);
    }
}
