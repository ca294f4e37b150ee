//! Relevance component of the document score (Eq. 10).
//!
//! `relevance(d, t)` is "any normalized version of `freq(t, d)`"; the paper
//! reports that `log(freq(t, d) + 1)` worked best on their corpora, so that
//! is the default here, with the raw frequency as the alternative. Both
//! depend on the document alone, so new documents never move another
//! document's score.

/// Strategy for computing `relevance(d, t)` from the term frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Relevance {
    /// `ln(freq + 1)` — the paper's best-performing choice (default).
    #[default]
    LogFreq,
    /// The raw term frequency `freq(t, d)`.
    RawFreq,
}

impl Relevance {
    /// Computes the relevance of a document for a term that occurs `freq`
    /// times in it.
    pub(crate) fn score(&self, freq: u32) -> f64 {
        match self {
            Relevance::LogFreq => (freq as f64 + 1.0).ln(),
            Relevance::RawFreq => freq as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logfreq_is_monotone_and_damped() {
        let r = Relevance::LogFreq;
        assert_eq!(r.score(0), (1.0f64).ln());
        assert!(r.score(1) < r.score(10));
        // Damping: doubling the frequency less than doubles the relevance.
        assert!(r.score(20) < 2.0 * r.score(10));
    }

    #[test]
    fn rawfreq_is_identity() {
        assert_eq!(Relevance::RawFreq.score(7), 7.0);
    }

    #[test]
    fn default_is_logfreq() {
        assert_eq!(Relevance::default(), Relevance::LogFreq);
    }
}
