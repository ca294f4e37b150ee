//! Pattern-quality metrics (Section 6.2.2 and 6.3 of the paper).
//!
//! * [`jaccard_similarity`] — `|Y ∩ Y'| / |Y ∪ Y'|` between the retrieved and
//!   the ground-truth stream sets of a pattern ("JaccardSim").
//! * [`topk_overlap`] — size of the overlap of two top-k result lists
//!   divided by k, used to compare the result sets of TB / STLocal / STComb
//!   in the Bursty Documents experiment.

use stb_corpus::StreamId;
use std::collections::HashSet;
use std::hash::Hash;

/// Jaccard similarity of two stream sets (duplicates ignored). Returns 1 for
/// two empty sets.
pub fn jaccard_similarity(retrieved: &[StreamId], truth: &[StreamId]) -> f64 {
    let a: HashSet<StreamId> = retrieved.iter().copied().collect();
    let b: HashSet<StreamId> = truth.iter().copied().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(&b).count();
    let union = a.union(&b).count();
    inter as f64 / union as f64
}

/// Overlap of two top-k lists: `|A ∩ B| / k`, where `k` is the length of the
/// longer list. Returns 1 for two empty lists.
pub fn topk_overlap<T: Eq + Hash + Clone>(a: &[T], b: &[T]) -> f64 {
    let k = a.len().max(b.len());
    if k == 0 {
        return 1.0;
    }
    let sa: HashSet<&T> = a.iter().collect();
    let sb: HashSet<&T> = b.iter().collect();
    sa.intersection(&sb).count() as f64 / k as f64
}

/// Precision of a result list against a set of relevant items:
/// `|results ∩ relevant| / |results|`. Returns 1 for an empty result list.
pub fn precision<T: Eq + Hash>(results: &[T], relevant: &HashSet<T>) -> f64 {
    if results.is_empty() {
        return 1.0;
    }
    let hits = results.iter().filter(|r| relevant.contains(r)).count();
    hits as f64 / results.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(ids: &[u32]) -> Vec<StreamId> {
        ids.iter().map(|&i| StreamId(i)).collect()
    }

    #[test]
    fn jaccard_identical_sets() {
        assert_eq!(jaccard_similarity(&s(&[1, 2, 3]), &s(&[3, 2, 1])), 1.0);
    }

    #[test]
    fn jaccard_disjoint_sets() {
        assert_eq!(jaccard_similarity(&s(&[1, 2]), &s(&[3, 4])), 0.0);
    }

    #[test]
    fn jaccard_partial_overlap() {
        // {1,2,3} vs {2,3,4}: intersection 2, union 4.
        assert!((jaccard_similarity(&s(&[1, 2, 3]), &s(&[2, 3, 4])) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn jaccard_ignores_duplicates() {
        assert_eq!(jaccard_similarity(&s(&[1, 1, 2]), &s(&[1, 2, 2])), 1.0);
    }

    #[test]
    fn jaccard_empty_sets() {
        assert_eq!(jaccard_similarity(&[], &[]), 1.0);
        assert_eq!(jaccard_similarity(&s(&[1]), &[]), 0.0);
    }

    #[test]
    fn topk_overlap_values() {
        let a = vec![1, 2, 3, 4, 5];
        let b = vec![3, 4, 5, 6, 7];
        assert!((topk_overlap(&a, &b) - 0.6).abs() < 1e-12);
        assert_eq!(topk_overlap(&a, &a), 1.0);
        assert_eq!(topk_overlap::<i32>(&[], &[]), 1.0);
        assert_eq!(topk_overlap(&a, &[]), 0.0);
    }

    #[test]
    fn precision_values() {
        let relevant: HashSet<i32> = [1, 2, 3, 4].into_iter().collect();
        assert!((precision(&[1, 2, 9, 8], &relevant) - 0.5).abs() < 1e-12);
        assert_eq!(precision(&[1, 2], &relevant), 1.0);
        assert_eq!(precision::<i32>(&[], &relevant), 1.0);
    }
}
