//! The expected-frequency baseline and per-stream burstiness (Eq. 7).
//!
//! The regional framework (Section 4 of the paper) measures the burstiness
//! of a term `t` in stream `D_x` at timestamp `i` as the *discrepancy*
//! between the observed frequency and an expected baseline:
//!
//! ```text
//! B(t, D_x[i]) = D_x[i][t] − E_x[i][t]
//! ```
//!
//! The paper deliberately leaves the choice of baseline open ("the nature of
//! an appropriate baseline depends on the domain") and suggests the running
//! average of all history, which is the model this module provides.

/// Mean of *all* observations seen so far — the paper's default suggestion.
///
/// The model is fed observations in timeline order via
/// [`observe`](RunningMean::observe) and asked for the expectation of the
/// *next* observation via [`expected`](RunningMean::expected) — i.e. the
/// expectation at timestamp `i` is computed strictly from history before
/// `i`, matching the paper's definition of `E_x[i][t]`.
#[derive(Debug, Clone, Default)]
pub struct RunningMean {
    sum: f64,
    count: usize,
}

impl RunningMean {
    /// Creates an empty running-mean model.
    pub fn new() -> Self {
        Self::default()
    }

    /// The model after `n` observations of `0.0`, in O(1): bit-identical
    /// to `n` [`observe`](RunningMean::observe) calls, as `0.0 + 0.0` is
    /// `+0.0`.
    pub fn after_zeros(n: usize) -> Self {
        Self { sum: 0.0, count: n }
    }

    /// Expected frequency of the next observation given history seen so far,
    /// or `None` if no history is available yet.
    pub fn expected(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Feeds the observation for the current timestamp into the model.
    pub fn observe(&mut self, value: f64) {
        self.sum += value;
        self.count += 1;
    }
}

/// Computes the per-timestamp burstiness series `B(t, D_x[i])` (Eq. 7) of a
/// frequency series under the running-mean baseline.
///
/// The expectation at each timestamp is computed strictly from the history
/// before that timestamp. When no history exists yet (the first timestamp),
/// the burstiness is reported as 0: with nothing to compare against, nothing
/// is a deviation.
pub fn burstiness_series(frequencies: &[f64]) -> Vec<f64> {
    let mut model = RunningMean::new();
    let mut out = Vec::with_capacity(frequencies.len());
    for &y in frequencies {
        let b = match model.expected() {
            Some(e) => y - e,
            None => 0.0,
        };
        out.push(b);
        model.observe(y);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_mean_basic() {
        let mut m = RunningMean::new();
        assert_eq!(m.expected(), None);
        m.observe(2.0);
        m.observe(4.0);
        assert_eq!(m.expected(), Some(3.0));
    }

    #[test]
    fn after_zeros_is_bit_identical_to_observing_the_zeros() {
        const LATER: [f64; 6] = [6.0, 0.0, 9.5, -0.0, 1e-300, 4.0];
        for n in 0..=64 {
            let mut fed = RunningMean::new();
            for _ in 0..n {
                fed.observe(0.0);
            }
            let mut built = RunningMean::after_zeros(n);
            let bits = |m: &RunningMean| m.expected().map(f64::to_bits);
            assert_eq!(bits(&built), bits(&fed), "n = {n}");
            for &y in &LATER {
                fed.observe(y);
                built.observe(y);
                assert_eq!(bits(&built), bits(&fed), "n = {n}, then {y}");
            }
        }
    }

    #[test]
    fn burstiness_series_first_value_is_zero() {
        let b = burstiness_series(&[5.0, 5.0, 5.0, 20.0]);
        assert_eq!(b[0], 0.0);
        assert_eq!(b[1], 0.0);
        assert_eq!(b[2], 0.0);
        assert_eq!(b[3], 15.0);
    }

    #[test]
    fn burstiness_series_empty_input() {
        assert!(burstiness_series(&[]).is_empty());
    }
}
