//! Random distributions used by the data generators.
//!
//! Appendix B of the paper builds its artificial corpora from three
//! ingredients: exponential background frequencies ("the exponential
//! distribution is a good fit" for the typical frequency of terms; the
//! generators invert its CDF inline), Weibull burst profiles (whose PDF
//! shape "emulates the progress of virtually every type of event" —
//! Figure 9), and a skewed choice of vocabulary, for which we use a Zipf
//! distribution. The last two are implemented here on top of the `rand` RNG
//! traits, so every generator in this crate stays deterministic under a
//! fixed seed.

use rand::Rng;

/// Weibull distribution with shape `k` and scale `c` (Eq. 12 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    /// Shape parameter `k` (> 0).
    pub(crate) shape: f64,
    /// Scale parameter `c` (> 0).
    pub(crate) scale: f64,
}

impl Weibull {
    /// Creates a Weibull distribution.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is not strictly positive.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(
            shape > 0.0 && scale > 0.0,
            "Weibull parameters must be positive"
        );
        Self { shape, scale }
    }

    /// Probability density at `x` (zero for negative `x`), exactly Eq. 12.
    pub fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        let (k, c) = (self.shape, self.scale);
        (k / c) * (x / c).powf(k - 1.0) * (-(x / c).powf(k)).exp()
    }

    /// The burst profile used when injecting a pattern: the PDF evaluated at
    /// the (1-based) position of each timestamp within a window of `len`
    /// timestamps, rescaled so the largest value equals `peak`.
    pub(crate) fn profile(&self, len: usize, peak: f64) -> Vec<f64> {
        if len == 0 {
            return Vec::new();
        }
        let raw: Vec<f64> = (1..=len).map(|x| self.pdf(x as f64)).collect();
        let max = raw.iter().copied().fold(f64::MIN_POSITIVE, f64::max);
        raw.into_iter().map(|v| v / max * peak).collect()
    }
}

/// Exponential distribution with the given rate `lambda` (mean `1/lambda`).
/// Test reference for [`Weibull::pdf`] at shape 1.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Exponential {
    /// Rate parameter (> 0).
    pub(crate) lambda: f64,
}

#[cfg(test)]
impl Exponential {
    /// Creates an exponential distribution with rate `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not strictly positive.
    pub(crate) fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0, "rate must be positive");
        Self { lambda }
    }

    /// Probability density at `x` (zero for negative `x`).
    pub(crate) fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            self.lambda * (-self.lambda * x).exp()
        }
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s`.
#[derive(Debug, Clone)]
pub(crate) struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s < 0`.
    pub(crate) fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s >= 0.0, "Zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    /// Number of ranks.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Probability of rank `rank` (0-based).
    #[cfg(test)]
    pub(crate) fn pmf(&self, rank: usize) -> f64 {
        if rank >= self.cdf.len() {
            return 0.0;
        }
        let prev = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        self.cdf[rank] - prev
    }

    /// Draws a 0-based rank.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        match self
            .cdf
            .binary_search_by(|v| v.partial_cmp(&u).unwrap_or(std::cmp::Ordering::Equal))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn weibull_pdf_matches_known_values() {
        // k=1 reduces to Exponential(1/c).
        let w = Weibull::new(1.0, 2.0);
        let e = Exponential::new(0.5);
        for x in [0.0, 0.5, 1.0, 3.0] {
            assert!((w.pdf(x) - e.pdf(x)).abs() < 1e-12);
        }
        assert_eq!(w.pdf(-1.0), 0.0);
    }

    #[test]
    fn weibull_pdf_integrates_to_one() {
        let w = Weibull::new(2.0, 3.0);
        let dx = 0.001;
        let integral: f64 = (0..40_000).map(|i| w.pdf(i as f64 * dx) * dx).sum();
        assert!((integral - 1.0).abs() < 1e-3, "integral {integral}");
    }

    #[test]
    fn weibull_profile_peaks_at_requested_value() {
        let w = Weibull::new(2.0, 6.0);
        let profile = w.profile(15, 40.0);
        assert_eq!(profile.len(), 15);
        let max = profile.iter().copied().fold(f64::MIN, f64::max);
        assert!((max - 40.0).abs() < 1e-9);
        assert!(profile.iter().all(|&v| v >= 0.0));
        assert!(w.profile(0, 10.0).is_empty());
    }

    #[test]
    fn exponential_pdf_properties() {
        let e = Exponential::new(2.0);
        assert_eq!(e.pdf(-0.1), 0.0);
        assert!((e.pdf(0.0) - 2.0).abs() < 1e-12);
        assert!(e.pdf(1.0) < e.pdf(0.1));
    }

    #[test]
    fn zipf_pmf_sums_to_one_and_is_decreasing() {
        let z = Zipf::new(50, 1.1);
        let total: f64 = (0..z.len()).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for r in 1..z.len() {
            assert!(z.pmf(r) <= z.pmf(r - 1) + 1e-12);
        }
        assert_eq!(z.pmf(999), 0.0);
    }

    #[test]
    fn zipf_sampling_respects_skew() {
        let z = Zipf::new(100, 1.2);
        let mut r = rng();
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        // The most popular rank must clearly dominate a middle rank.
        assert!(counts[0] > counts[50] * 5);
        // Every sample is a valid rank (implicitly checked by indexing).
    }

    #[test]
    fn zipf_uniform_when_exponent_zero() {
        let z = Zipf::new(4, 0.0);
        for r in 0..4 {
            assert!((z.pmf(r) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic]
    fn weibull_rejects_bad_parameters() {
        Weibull::new(0.0, 1.0);
    }

    #[test]
    #[should_panic]
    fn zipf_rejects_zero_ranks() {
        Zipf::new(0, 1.0);
    }
}
