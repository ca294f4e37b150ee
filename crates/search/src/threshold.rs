//! Fagin's Threshold Algorithm (TA) for top-k aggregation.
//!
//! Given one sorted posting list per query term and random access to the
//! per-term scores, TA retrieves the `k` documents with the highest *summed*
//! score while reading as few postings as possible: it walks the lists in
//! parallel (sorted access), fully scores every newly seen document (random
//! access), and stops as soon as the `k`-th best score so far is at least
//! the *threshold* — the sum of the scores at the current read depth, which
//! upper-bounds the score of any document not yet seen.
//!
//! The index handed in must be finalized (see [`InvertedIndex::finalize`]):
//! the early-termination bound is only sound over score-sorted posting
//! lists, which unfinalized indexes do not guarantee — in debug builds the
//! index asserts this on sorted access. Both the engine's per-query indexes
//! and its prebuilt full-collection index satisfy the invariant; the
//! algorithm itself is agnostic to which one it walks, since it only ever
//! touches the query terms' lists.

use crate::burstiness::NoPatternPolicy;
use crate::index::{InvertedIndex, Posting};
use std::collections::{BinaryHeap, HashSet};

use stb_corpus::{DocId, TermId};

/// Sorted + random access to per-term posting lists, as TA requires.
///
/// The algorithm is agnostic to where the lists live: an [`InvertedIndex`]
/// can be walked directly, while both serving tiers first resolve the query
/// terms' lists once (`InvertedIndex::gather`) and scan through that, so
/// they execute the *same* float operations in the same order
/// (bit-identical results).
pub trait PostingAccess {
    /// The posting list of `term`, sorted by score descending (doc id
    /// ascending on ties); empty for unknown terms.
    fn postings(&self, term: TermId) -> &[Posting];
    /// Random access: the score of `doc` under `term`, if present.
    fn score(&self, term: TermId, doc: DocId) -> Option<f64>;
}

impl PostingAccess for InvertedIndex {
    fn postings(&self, term: TermId) -> &[Posting] {
        InvertedIndex::postings(self, term)
    }

    fn score(&self, term: TermId, doc: DocId) -> Option<f64> {
        InvertedIndex::score(self, term, doc)
    }
}

/// A scored document returned by the top-k evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredDoc {
    /// The document.
    pub doc: DocId,
    /// Its total score over the query terms.
    pub score: f64,
}

#[derive(Debug, PartialEq)]
struct HeapEntry {
    score: f64,
    doc: DocId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // The heap's top is the entry that ranks last in the answer order
        // (score descending, doc id ascending): the lowest score, and among
        // equal scores the largest doc id.
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(self.doc.cmp(&other.doc))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Full score of a document over the query terms via random access.
///
/// Under [`NoPatternPolicy::Exclude`] a document missing from any query
/// term's posting list scores `-inf` (it can never enter the results);
/// under [`NoPatternPolicy::Zero`] missing terms simply contribute nothing.
fn full_score<I: PostingAccess + ?Sized>(
    index: &I,
    query: &[TermId],
    doc: DocId,
    policy: NoPatternPolicy,
) -> f64 {
    let mut total = 0.0;
    for &t in query {
        match index.score(t, doc) {
            Some(s) => total += s,
            None => match policy {
                NoPatternPolicy::Exclude => return f64::NEG_INFINITY,
                NoPatternPolicy::Zero => {}
            },
        }
    }
    total
}

/// How much work one top-k evaluation did — and, thanks to early
/// termination, did not do.
///
/// The counters are exact for the sorted-access phase: `postings_scanned`
/// counts every posting visited in depth order, `candidates_pruned` counts
/// the postings left unread when the threshold bound allowed the algorithm
/// to stop. The two always sum to the total length of the query terms'
/// posting lists, so the pair doubles as a direct measure of how effective
/// the early termination was — filtered queries shrink the lists *before*
/// the scan, so the bound applies to filtered lists unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct TopkStats {
    /// Postings read by sorted access.
    pub(crate) postings_scanned: usize,
    /// Postings never read because the algorithm terminated early.
    pub(crate) candidates_pruned: usize,
}

/// Runs the Threshold Algorithm over the query terms and returns the top-`k`
/// documents by total score, best first.
///
/// Documents with non-positive or `-inf` total scores are never returned.
pub fn threshold_topk<I: PostingAccess + ?Sized>(
    index: &I,
    query: &[TermId],
    k: usize,
    policy: NoPatternPolicy,
) -> Vec<ScoredDoc> {
    threshold_topk_with_stats(index, query, k, policy).0
}

/// [`threshold_topk`] plus the [`TopkStats`] of the evaluation — the
/// serving path uses this to report per-query execution statistics.
pub(crate) fn threshold_topk_with_stats<I: PostingAccess + ?Sized>(
    index: &I,
    query: &[TermId],
    k: usize,
    policy: NoPatternPolicy,
) -> (Vec<ScoredDoc>, TopkStats) {
    let mut stats = TopkStats::default();
    if k == 0 || query.is_empty() {
        return (Vec::new(), stats);
    }
    let lists: Vec<&[Posting]> = query.iter().map(|&t| index.postings(t)).collect();
    let total_postings: usize = lists.iter().map(|l| l.len()).sum();
    let max_depth = lists.iter().map(|l| l.len()).max().unwrap_or(0);

    let mut seen: HashSet<DocId> = HashSet::new();
    // Min-heap of the current best k documents.
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();

    for depth in 0..max_depth {
        // Sorted access: one posting per list at this depth. The threshold
        // upper-bounds the total score of any document not seen yet: from
        // each list it can gain at most the score at the current depth —
        // except that under the Zero policy a document *absent* from a list
        // contributes 0, so a negative current score must be clamped to 0,
        // and an exhausted list (all of whose documents have already been
        // seen) also bounds the gain of unseen documents by 0.
        let mut threshold = 0.0;
        for list in &lists {
            if let Some(p) = list.get(depth) {
                stats.postings_scanned += 1;
                threshold += match policy {
                    NoPatternPolicy::Zero => p.score.max(0.0),
                    NoPatternPolicy::Exclude => p.score,
                };
                if seen.insert(p.doc) {
                    let score = full_score(index, query, p.doc, policy);
                    if score.is_finite() && score > 0.0 {
                        heap.push(HeapEntry { score, doc: p.doc });
                        if heap.len() > k {
                            heap.pop();
                        }
                    }
                }
            }
        }
        // Early termination: no unseen document can displace the k-th best.
        // One list is read in answer order, so an unseen document that ties
        // the bound has a larger id and a tie suffices; across several
        // lists an unseen document may tie the k-th score with a smaller
        // id, so the bound must be beaten strictly.
        if heap.len() == k {
            let kth = heap.peek().map(|e| e.score).unwrap_or(f64::NEG_INFINITY);
            if kth > threshold || (lists.len() == 1 && kth == threshold) {
                break;
            }
        }
    }

    stats.candidates_pruned = total_postings - stats.postings_scanned;
    let mut results: Vec<ScoredDoc> = heap
        .into_iter()
        .map(|e| ScoredDoc {
            doc: e.doc,
            score: e.score,
        })
        .collect();
    results.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.doc.cmp(&b.doc))
    });
    (results, stats)
}

/// Exhaustive top-k evaluation (scores every document appearing in any query
/// term's posting list). Test oracle for [`threshold_topk`].
pub fn exhaustive_topk<I: PostingAccess + ?Sized>(
    index: &I,
    query: &[TermId],
    k: usize,
    policy: NoPatternPolicy,
) -> Vec<ScoredDoc> {
    let mut docs: HashSet<DocId> = HashSet::new();
    for &t in query {
        for p in index.postings(t) {
            docs.insert(p.doc);
        }
    }
    let mut scored: Vec<ScoredDoc> = docs
        .into_iter()
        .map(|doc| ScoredDoc {
            doc,
            score: full_score(index, query, doc, policy),
        })
        .filter(|s| s.score.is_finite() && s.score > 0.0)
        .collect();
    scored.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.doc.cmp(&b.doc))
    });
    scored.truncate(k);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;

    fn term(i: u32) -> TermId {
        TermId(i)
    }

    fn doc(i: u32) -> DocId {
        DocId(i)
    }

    fn sample_index() -> InvertedIndex {
        let mut idx = InvertedIndex::new();
        // term 0 postings
        idx.insert(term(0), doc(1), 3.0);
        idx.insert(term(0), doc(2), 2.0);
        idx.insert(term(0), doc(3), 1.0);
        // term 1 postings
        idx.insert(term(1), doc(2), 4.0);
        idx.insert(term(1), doc(3), 2.5);
        idx.insert(term(1), doc(4), 0.5);
        idx.finalize();
        idx
    }

    #[test]
    fn single_term_query_returns_posting_order() {
        let idx = sample_index();
        let top = threshold_topk(&idx, &[term(0)], 2, NoPatternPolicy::Zero);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].doc, doc(1));
        assert_eq!(top[1].doc, doc(2));
    }

    #[test]
    fn multi_term_zero_policy_sums_scores() {
        let idx = sample_index();
        let top = threshold_topk(&idx, &[term(0), term(1)], 10, NoPatternPolicy::Zero);
        // doc2: 2+4=6, doc3: 1+2.5=3.5, doc1: 3, doc4: 0.5
        assert_eq!(top[0].doc, doc(2));
        assert!((top[0].score - 6.0).abs() < 1e-12);
        assert_eq!(top[1].doc, doc(3));
        assert_eq!(top[2].doc, doc(1));
        assert_eq!(top[3].doc, doc(4));
    }

    #[test]
    fn exclude_policy_requires_all_terms() {
        let idx = sample_index();
        let top = threshold_topk(&idx, &[term(0), term(1)], 10, NoPatternPolicy::Exclude);
        // Only docs 2 and 3 appear in both lists.
        let docs: Vec<DocId> = top.iter().map(|s| s.doc).collect();
        assert_eq!(docs, vec![doc(2), doc(3)]);
    }

    #[test]
    fn matches_exhaustive_oracle() {
        let idx = sample_index();
        for k in 1..=5 {
            for policy in [NoPatternPolicy::Zero, NoPatternPolicy::Exclude] {
                let ta = threshold_topk(&idx, &[term(0), term(1)], k, policy);
                let ex = exhaustive_topk(&idx, &[term(0), term(1)], k, policy);
                assert_eq!(ta.len(), ex.len(), "k={k}");
                for (a, b) in ta.iter().zip(&ex) {
                    assert_eq!(a.doc, b.doc, "k={k}");
                    assert!((a.score - b.score).abs() < 1e-12);
                }
            }
        }
    }

    /// Cut-off ties resolve to the smaller doc id, as the answer order
    /// (score descending, doc id ascending) says. In the first index the
    /// larger id is read first. In the second, at depth 1 the bound (1 + 1)
    /// equals the k-th score (doc 4 or 9, both 2) while unseen doc 3 also
    /// scores 2: the scan must not stop on a tie with the bound.
    #[test]
    fn cut_off_ties_keep_the_smaller_doc_id() {
        let fixtures: [&[(u32, u32, f64)]; 2] = [
            &[(0, 5, 1.0), (0, 3, 0.5), (1, 3, 1.5), (1, 5, 1.0)],
            &[
                (0, 9, 1.5),
                (0, 1, 1.0),
                (0, 3, 1.0),
                (1, 4, 2.0),
                (1, 2, 1.0),
                (1, 3, 1.0),
                (1, 9, 0.5),
            ],
        ];
        for entries in fixtures {
            let mut idx = InvertedIndex::new();
            for &(t, d, s) in entries {
                idx.insert(term(t), doc(d), s);
            }
            idx.finalize();
            for policy in [NoPatternPolicy::Zero, NoPatternPolicy::Exclude] {
                let ta = threshold_topk(&idx, &[term(0), term(1)], 1, policy);
                let ex = exhaustive_topk(&idx, &[term(0), term(1)], 1, policy);
                let best = ScoredDoc {
                    doc: doc(3),
                    score: 2.0,
                };
                assert_eq!(ex, vec![best]);
                assert_eq!(ta, ex, "{policy:?} over {entries:?}");
            }
        }
    }

    #[test]
    fn k_larger_than_corpus() {
        let idx = sample_index();
        let top = threshold_topk(&idx, &[term(0)], 100, NoPatternPolicy::Zero);
        assert_eq!(top.len(), 3);
    }

    #[test]
    fn empty_query_or_zero_k() {
        let idx = sample_index();
        assert!(threshold_topk(&idx, &[], 5, NoPatternPolicy::Zero).is_empty());
        assert!(threshold_topk(&idx, &[term(0)], 0, NoPatternPolicy::Zero).is_empty());
    }

    #[test]
    fn unknown_term_exclude_gives_empty() {
        let idx = sample_index();
        let top = threshold_topk(&idx, &[term(0), term(9)], 5, NoPatternPolicy::Exclude);
        assert!(top.is_empty());
    }

    #[test]
    fn unknown_term_zero_policy_ignores_it() {
        let idx = sample_index();
        let top = threshold_topk(&idx, &[term(0), term(9)], 5, NoPatternPolicy::Zero);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].doc, doc(1));
    }

    #[test]
    fn stats_partition_the_posting_lists() {
        let idx = sample_index();
        for k in [1, 2, 5] {
            for policy in [NoPatternPolicy::Zero, NoPatternPolicy::Exclude] {
                let (results, stats) =
                    threshold_topk_with_stats(&idx, &[term(0), term(1)], k, policy);
                assert_eq!(
                    results,
                    threshold_topk(&idx, &[term(0), term(1)], k, policy)
                );
                // Scanned + pruned always account for every posting.
                assert_eq!(stats.postings_scanned + stats.candidates_pruned, 6);
                assert!(stats.postings_scanned >= results.len().min(k));
            }
        }
        // k=1 under Zero terminates early: doc2 (score 6) beats the depth-1
        // threshold (3 + 2.5), so depth 2 is never read.
        let (_, stats) =
            threshold_topk_with_stats(&idx, &[term(0), term(1)], 1, NoPatternPolicy::Zero);
        assert!(stats.candidates_pruned > 0);
        // Degenerate queries do no work at all.
        let (_, stats) = threshold_topk_with_stats(&idx, &[], 5, NoPatternPolicy::Zero);
        assert_eq!(stats, TopkStats::default());
    }

    #[test]
    fn negative_scores_are_not_returned() {
        let mut idx = InvertedIndex::new();
        idx.insert(term(0), doc(0), -1.0);
        idx.insert(term(0), doc(1), 2.0);
        idx.finalize();
        let top = threshold_topk(&idx, &[term(0)], 5, NoPatternPolicy::Zero);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].doc, doc(1));
    }
}
