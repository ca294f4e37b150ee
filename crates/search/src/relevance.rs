//! Relevance component of the document score (Eq. 10).
//!
//! `relevance(d, t)` is "any normalized version of `freq(t, d)`"; the paper
//! reports that `log(freq(t, d) + 1)` worked best on their corpora, so that
//! is the default here, with the raw frequency and a tf-idf weighting as
//! alternatives.

/// Strategy for computing `relevance(d, t)` from the term frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Relevance {
    /// `ln(freq + 1)` — the paper's best-performing choice (default).
    #[default]
    LogFreq,
    /// The raw term frequency `freq(t, d)`.
    RawFreq,
    /// `freq * ln(N / df)`: raw frequency damped by inverse document
    /// frequency (`N` documents in total, `df` containing the term).
    TfIdf,
}

impl Relevance {
    /// Computes the relevance of a document for a term.
    ///
    /// * `freq` — occurrences of the term in the document.
    /// * `doc_freq` — number of documents containing the term (used by
    ///   [`Relevance::TfIdf`] only).
    /// * `n_docs` — total number of documents (used by [`Relevance::TfIdf`]
    ///   only).
    pub(crate) fn score(&self, freq: u32, doc_freq: usize, n_docs: usize) -> f64 {
        match self {
            Relevance::LogFreq => (freq as f64 + 1.0).ln(),
            Relevance::RawFreq => freq as f64,
            Relevance::TfIdf => {
                if doc_freq == 0 || n_docs == 0 {
                    0.0
                } else {
                    freq as f64 * ((n_docs as f64 / doc_freq as f64).ln()).max(0.0)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logfreq_is_monotone_and_damped() {
        let r = Relevance::LogFreq;
        assert_eq!(r.score(0, 1, 10), (1.0f64).ln());
        assert!(r.score(1, 1, 10) < r.score(10, 1, 10));
        // Damping: doubling the frequency less than doubles the relevance.
        assert!(r.score(20, 1, 10) < 2.0 * r.score(10, 1, 10));
    }

    #[test]
    fn rawfreq_is_identity() {
        assert_eq!(Relevance::RawFreq.score(7, 3, 100), 7.0);
    }

    #[test]
    fn tfidf_downweights_common_terms() {
        let r = Relevance::TfIdf;
        let rare = r.score(3, 2, 1000);
        let common = r.score(3, 900, 1000);
        assert!(rare > common);
    }

    #[test]
    fn tfidf_handles_degenerate_inputs() {
        let r = Relevance::TfIdf;
        assert_eq!(r.score(3, 0, 100), 0.0);
        assert_eq!(r.score(3, 10, 0), 0.0);
        // df == N gives ln(1) = 0: a term in every document carries no signal.
        assert_eq!(r.score(3, 100, 100), 0.0);
    }

    #[test]
    fn default_is_logfreq() {
        assert_eq!(Relevance::default(), Relevance::LogFreq);
    }
}
