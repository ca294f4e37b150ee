//! Burstiness component of the document score (Eq. 11).
//!
//! `burstiness(d, t)` looks at the spatiotemporal patterns mined for the
//! term `t` that *overlap* the document `d` (contain both its stream of
//! origin and its timestamp) and aggregates their scores with a function
//! `f(P_{t,d})`. The paper found the maximum to work best, and it is the
//! aggregation implemented here. When *no* pattern overlaps the
//! document the paper assigns `-inf` (the document cannot be bursty for that
//! term); [`NoPatternPolicy`] makes that behaviour explicit and optionally
//! relaxes it to a zero contribution.

/// The aggregation `f(P_{t,d})` over the scores of the overlapping
/// patterns: their maximum, the paper's best choice. Returns `None` when
/// the slice is empty (no overlapping pattern — see [`NoPatternPolicy`]).
pub(crate) fn max_score(scores: &[f64]) -> Option<f64> {
    if scores.is_empty() {
        return None;
    }
    Some(scores.iter().copied().fold(f64::NEG_INFINITY, f64::max))
}

/// What to do when a document overlaps no pattern of a query term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NoPatternPolicy {
    /// The paper's Eq. 11: burstiness is `-inf`, i.e. the document is
    /// excluded from the results of any query containing the term (default).
    #[default]
    Exclude,
    /// The term simply contributes nothing to the document's score.
    Zero,
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCORES: &[f64] = &[0.4, 1.2, 0.8, 0.1];

    #[test]
    fn max_of_overlapping_scores() {
        assert_eq!(max_score(SCORES), Some(1.2));
    }

    #[test]
    fn empty_scores_give_none() {
        assert_eq!(max_score(&[]), None);
    }

    #[test]
    fn defaults_match_paper() {
        assert_eq!(NoPatternPolicy::default(), NoPatternPolicy::Exclude);
    }
}
