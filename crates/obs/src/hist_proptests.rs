//! Property and stress tests for the log-linear latency histogram:
//! quantile accuracy against an exact oracle, and lock-free recording under
//! thread contention.

use crate::hist::HIST_SUB_BUCKETS;
use crate::LatencyHistogram;
use proptest::prelude::*;

/// Exact nearest-rank quantile over raw samples: the oracle the histogram
/// readout is compared against.
fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One log-linear bucket of slack around the oracle: the reported value
/// may sit anywhere in the oracle's bucket (width ≤ oracle/32 + 1), and
/// nearest-rank ties at bucket edges can land one bucket over.
fn within_one_bucket(reported: u64, exact: u64) -> bool {
    let bucket_width = exact / HIST_SUB_BUCKETS as u64 + 1;
    reported.abs_diff(exact) <= 2 * bucket_width
}

proptest! {
    #[test]
    fn quantiles_within_one_bucket_of_oracle(
        samples in prop::collection::vec(0u64..10_000_000_000, 1..400),
    ) {
        let h = LatencyHistogram::new();
        for &v in &samples {
            h.record(v);
        }
        let snap = h.snapshot();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        prop_assert_eq!(snap.count(), sorted.len() as u64);
        prop_assert_eq!(snap.min(), sorted[0]);
        prop_assert_eq!(snap.max(), *sorted.last().unwrap());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = oracle_quantile(&sorted, q);
            let reported = snap.quantile(q);
            prop_assert!(
                within_one_bucket(reported, exact),
                "q={} reported={} exact={} (n={})",
                q, reported, exact, sorted.len()
            );
        }
    }
}

/// Satellite: 8 threads hammering one histogram concurrently (the shape of
/// 8 reader threads recording query latencies during commits) lose no
/// observations and keep the sum exact.
#[test]
fn concurrent_recording_loses_no_observations() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let h = Arc::new(LatencyHistogram::new());
    let n_threads = 8u64;
    let per_thread = 50_000u64;
    let start = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..n_threads)
        .map(|t| {
            let h = Arc::clone(&h);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                while !start.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                for i in 0..per_thread {
                    // Deterministic per-thread values spread over buckets.
                    h.record(t * 1_000 + (i % 997));
                }
            })
        })
        .collect();
    start.store(true, Ordering::SeqCst);
    for handle in handles {
        handle.join().unwrap();
    }
    let snap = h.snapshot();
    assert_eq!(snap.count(), n_threads * per_thread);
    let expected_sum: u64 = (0..n_threads)
        .map(|t| (0..per_thread).map(|i| t * 1_000 + (i % 997)).sum::<u64>())
        .sum();
    assert_eq!(snap.sum(), expected_sum);
}
