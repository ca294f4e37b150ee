//! Log-linear (HDR-style) latency histograms with lock-free recording.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// Linear sub-buckets per power-of-two magnitude (32 ⇒ ≤ ~3.1% relative
/// quantile error).
pub(crate) const HIST_SUB_BUCKETS: usize = 32;

const SUB_BITS: u32 = HIST_SUB_BUCKETS.trailing_zeros(); // 5

/// Total bucket count covering the full `u64` value range: one linear
/// group below [`HIST_SUB_BUCKETS`], then one 32-wide group per remaining
/// power of two (magnitudes `SUB_BITS..=63`).
pub(crate) const HIST_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * HIST_SUB_BUCKETS;

/// The bucket index of a recorded value.
///
/// Values below [`HIST_SUB_BUCKETS`] get exact unit-width buckets; above
/// that, each power-of-two magnitude `[2^m, 2^{m+1})` is split into
/// [`HIST_SUB_BUCKETS`] equal sub-buckets, so bucket width never exceeds
/// `value / 32`.
fn bucket_of(v: u64) -> usize {
    if v < HIST_SUB_BUCKETS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let group = (msb - SUB_BITS + 1) as usize;
    let sub = ((v >> shift) - HIST_SUB_BUCKETS as u64) as usize;
    group * HIST_SUB_BUCKETS + sub
}

/// Inclusive `(low, high)` value bounds of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < HIST_SUB_BUCKETS {
        return (i as u64, i as u64);
    }
    let group = i / HIST_SUB_BUCKETS;
    let sub = i % HIST_SUB_BUCKETS;
    let shift = (group - 1) as u32;
    let lo = ((HIST_SUB_BUCKETS + sub) as u64) << shift;
    let width = 1u64 << shift;
    (lo, lo + (width - 1))
}

/// A lock-free log-linear latency histogram over `u64` values
/// (nanoseconds by convention; see `crate::duration_ns`).
///
/// Recording is one relaxed atomic increment on the value's bucket plus
/// bookkeeping (`count`, `sum`, `min`, `max` — all relaxed atomics), so
/// the epoch-pinned query path can record without blocking other readers
/// or the writer. Readout goes through [`LatencyHistogram::snapshot`],
/// which yields a plain [`HistogramSnapshot`] supporting quantiles and
/// order-independent merging.
///
/// The bucket layout is HDR-style log-linear: unit-width buckets below
/// `HIST_SUB_BUCKETS`, then every power-of-two magnitude split into
/// `HIST_SUB_BUCKETS` linear sub-buckets, covering the full `u64` range
/// in `HIST_BUCKETS` buckets with relative error bounded by
/// `1 / HIST_SUB_BUCKETS`.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(crate::duration_ns(d));
    }

    /// A point-in-time copy of the bucket counts and summary stats.
    ///
    /// Individual loads are relaxed, so a snapshot taken while recorders
    /// are active may be mid-update by a handful of observations; once
    /// recorders quiesce it is exact.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Relaxed)).collect(),
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
            min: self.min.load(Relaxed),
            max: self.max.load(Relaxed),
        }
    }
}

/// A plain (non-atomic) copy of a [`LatencyHistogram`]: bucket counts plus
/// `count`/`sum`/`min`/`max`, supporting quantile readout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no observations.
    pub(crate) fn empty() -> Self {
        Self {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (wraps only after ~2^64 ns ≈ 584 years).
    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or 0 when empty.
    pub(crate) fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation.
    pub(crate) fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) by nearest rank, reported as the
    /// upper bound of the selected bucket (clamped to the observed
    /// maximum), so the reported value is within one log-linear bucket —
    /// ≤ ~3.1% relative error — of the exact order statistic. Returns 0
    /// when empty.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Median (see `quantile`).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub(crate) fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub(crate) fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_monotone_and_self_consistent() {
        // Every bucket's bounds map back to that bucket, and bounds tile
        // the u64 range without gaps.
        let mut expected_lo = 0u64;
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expected_lo, "gap before bucket {i}");
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi), i);
            expected_lo = hi.wrapping_add(1);
        }
        assert_eq!(expected_lo, 0, "buckets must cover the whole u64 range");
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn relative_error_is_bounded() {
        for &v in &[1u64, 31, 32, 33, 100, 1_000, 123_456, u32::MAX as u64] {
            let (lo, hi) = bucket_bounds(bucket_of(v));
            assert!(lo <= v && v <= hi);
            let width = hi - lo;
            assert!(
                width as f64 <= (v as f64 / HIST_SUB_BUCKETS as f64).max(0.0) + 1.0,
                "bucket width {width} too wide for {v}"
            );
        }
    }

    #[test]
    fn quantiles_of_a_known_distribution() {
        let h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.min(), 1);
        assert_eq!(s.max(), 1000);
        // Exact order statistics: p50 = 500, p99 = 990; log-linear readout
        // is within one bucket (~3.1%).
        let p50 = s.p50() as f64;
        let p99 = s.p99() as f64;
        assert!((p50 - 500.0).abs() / 500.0 < 0.05, "p50 = {p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.05, "p99 = {p99}");
        assert_eq!(s.quantile(1.0), 1000);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.mean(), 0.0);
    }
}
