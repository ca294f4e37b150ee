//! Inverted index with sorted and random access.
//!
//! Section 5 of the paper: "An inverted index is first built, mapping each
//! term to the documents that include it, ranked by their respective
//! scores. The popular Threshold Algorithm for top-k evaluation can then be
//! applied." This module is exactly that index: one entry per term holding
//! its posting list sorted by score (for sorted access) and the same scores
//! by document (for the random access the Threshold Algorithm needs).
//!
//! # Lifecycle
//!
//! The index distinguishes a *loading* state from a *finalized* state.
//! [`InvertedIndex::insert`] appends postings without maintaining sort
//! order; [`InvertedIndex::finalize`] sorts and deduplicates every posting
//! list. Sorted access ([`InvertedIndex::postings`]) before finalization is
//! a logic error — the Threshold Algorithm's early-termination bound is
//! only valid over sorted lists — and is caught by a `debug_assert!`.
//! `finalize` is idempotent: calling it twice (or on an empty index) is
//! free, and a fresh index is vacuously finalized.
//!
//! Already-scored whole lists can be bulk-loaded with
//! [`InvertedIndex::set_postings`], which keeps the per-term invariants
//! without touching the rest of the index — this is what the search
//! engine's incremental per-term rebuild uses.

use crate::threshold::PostingAccess;
use std::collections::HashMap;
use std::sync::Arc;

use stb_corpus::{DocId, TermId};

/// One entry of a posting list: a document and its score for the term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Posting {
    /// The document.
    pub doc: DocId,
    /// The document's per-term score (relevance × burstiness).
    pub score: f64,
}

/// One term's posting list in both of the views TA needs: score-sorted for
/// sorted access, by document for random access.
///
/// An entry is immutable once shared: the index holds it behind an `Arc`,
/// replaces it wholesale ([`InvertedIndex::set_postings`]) or copies it
/// before writing (`Arc::make_mut`), so a clone of the index — a published
/// serving generation — never sees a later write.
#[derive(Debug, Clone, Default)]
pub(crate) struct TermPostings {
    sorted: Vec<Posting>,
    by_doc: HashMap<DocId, f64>,
}

impl TermPostings {
    /// Sorts the list by descending score (ties broken by doc id for
    /// determinism) and deduplicates by document. If the same document was
    /// inserted twice `by_doc` keeps the last value; every copy is made to
    /// agree with it before deduplicating.
    fn sort(&mut self) {
        for p in &mut self.sorted {
            if let Some(&s) = self.by_doc.get(&p.doc) {
                p.score = s;
            }
        }
        self.sorted.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.doc.cmp(&b.doc))
        });
        self.sorted.dedup_by_key(|p| p.doc);
        // A sorted entry lives for as long as some generation holds it:
        // keep no slack from the list's incremental build.
        self.sorted.shrink_to_fit();
    }
}

/// A per-term inverted index over per-document scores.
///
/// Cloning is cheap — one `Arc` clone per term — and the clone shares every
/// list with the original until one of them writes to that term.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    lists: HashMap<TermId, Arc<TermPostings>>,
    /// Whether every posting list is currently sorted and deduplicated. A
    /// fresh (empty) index is vacuously finalized; `insert` clears the flag.
    finalized: bool,
}

impl Default for InvertedIndex {
    fn default() -> Self {
        Self {
            lists: HashMap::new(),
            finalized: true,
        }
    }
}

impl InvertedIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or overwrites) the score of `doc` for `term`.
    ///
    /// Posting lists are re-sorted lazily by [`InvertedIndex::finalize`];
    /// always call it after the last insertion.
    pub fn insert(&mut self, term: TermId, doc: DocId, score: f64) {
        self.finalized = false;
        let list = Arc::make_mut(self.lists.entry(term).or_default());
        list.sorted.push(Posting { doc, score });
        list.by_doc.insert(doc, score);
    }

    /// Replaces the whole posting list of `term` in one step, keeping the
    /// sorted/deduplicated invariant for that list. An empty `list` removes
    /// the term entirely.
    ///
    /// Unlike [`InvertedIndex::insert`] this does *not* un-finalize the
    /// index: it is the building block of the engine's incremental per-term
    /// rebuild, where the rest of the index stays valid.
    pub(crate) fn set_postings(&mut self, term: TermId, list: Vec<Posting>) {
        if list.is_empty() {
            self.lists.remove(&term);
            return;
        }
        let mut entry = TermPostings {
            by_doc: list.iter().map(|p| (p.doc, p.score)).collect(),
            sorted: list,
        };
        entry.sort();
        self.lists.insert(term, Arc::new(entry));
    }

    /// Sorts every posting list by descending score (ties broken by doc id
    /// for determinism) and deduplicates repeated documents (last inserted
    /// score wins). Must be called after the last insertion and before
    /// sorted access.
    ///
    /// Idempotent: on an already-finalized index this is a no-op.
    pub fn finalize(&mut self) {
        if self.finalized {
            return;
        }
        for list in self.lists.values_mut() {
            Arc::make_mut(list).sort();
        }
        self.finalized = true;
    }

    /// The posting list of a term, sorted by descending score. Empty slice
    /// for unknown terms.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if called before [`InvertedIndex::finalize`]:
    /// sorted access over unsorted lists would silently break the Threshold
    /// Algorithm's early-termination bound.
    pub(crate) fn postings(&self, term: TermId) -> &[Posting] {
        debug_assert!(
            self.finalized,
            "sorted access before InvertedIndex::finalize()"
        );
        self.lists.get(&term).map_or(&[], |l| l.sorted.as_slice())
    }

    /// Random access: the score of `doc` for `term`, if the document appears
    /// in the term's posting list. Allowed in any state.
    pub(crate) fn score(&self, term: TermId, doc: DocId) -> Option<f64> {
        self.lists.get(&term)?.by_doc.get(&doc).copied()
    }

    /// Number of terms with at least one posting.
    pub(crate) fn n_terms(&self) -> usize {
        self.lists.len()
    }

    /// Total number of postings over all terms.
    pub(crate) fn n_postings(&self) -> usize {
        self.lists.values().map(|l| l.sorted.len()).sum()
    }

    /// The shared entry of a term, if it has postings.
    pub(crate) fn entry(&self, term: TermId) -> Option<&Arc<TermPostings>> {
        self.lists.get(&term)
    }

    /// Resolves the lists of one query's terms, once, for a TA scan.
    pub(crate) fn gather(&self, terms: &[TermId]) -> Gathered<'_> {
        debug_assert!(
            self.finalized,
            "sorted access before InvertedIndex::finalize()"
        );
        Gathered {
            lists: terms
                .iter()
                .map(|&t| (t, self.entry(t).map(Arc::as_ref)))
                .collect(),
        }
    }
}

/// The posting lists of one query's terms, resolved once
/// ([`InvertedIndex::gather`]) so that each of TA's random accesses is a
/// single `by_doc` probe instead of a term lookup plus a document lookup.
/// Both serving tiers scan through this.
pub(crate) struct Gathered<'a> {
    lists: Vec<(TermId, Option<&'a TermPostings>)>,
}

impl<'a> Gathered<'a> {
    #[inline]
    fn lookup(&self, term: TermId) -> Option<&'a TermPostings> {
        self.lists
            .iter()
            .find(|(t, _)| *t == term)
            .and_then(|(_, list)| *list)
    }
}

impl PostingAccess for Gathered<'_> {
    #[inline]
    fn postings(&self, term: TermId) -> &[Posting] {
        self.lookup(term).map_or(&[], |l| l.sorted.as_slice())
    }

    #[inline]
    fn score(&self, term: TermId, doc: DocId) -> Option<f64> {
        self.lookup(term)?.by_doc.get(&doc).copied()
    }
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

    #[test]
    fn index_module_doc_example() {
        let mut idx = InvertedIndex::new();
        idx.insert(TermId(0), DocId(7), 1.5);
        idx.insert(TermId(0), DocId(3), 4.0);
        idx.finalize();
        // Sorted access: best document first.
        assert_eq!(idx.postings(TermId(0))[0].doc, DocId(3));
        // Random access: score lookup by (term, doc).
        assert_eq!(idx.score(TermId(0), DocId(7)), Some(1.5));
    }

    #[test]
    fn empty_index() {
        let idx = InvertedIndex::new();
        assert_eq!(idx.n_terms(), 0);
        assert!(idx.postings(term(0)).is_empty());
        assert_eq!(idx.score(term(0), doc(0)), None);
    }

    #[test]
    fn postings_sorted_by_score_desc() {
        let mut idx = InvertedIndex::new();
        idx.insert(term(1), doc(10), 0.5);
        idx.insert(term(1), doc(11), 2.0);
        idx.insert(term(1), doc(12), 1.0);
        idx.finalize();
        let scores: Vec<f64> = idx.postings(term(1)).iter().map(|p| p.score).collect();
        assert_eq!(scores, vec![2.0, 1.0, 0.5]);
    }

    #[test]
    fn ties_broken_by_doc_id() {
        let mut idx = InvertedIndex::new();
        idx.insert(term(1), doc(7), 1.0);
        idx.insert(term(1), doc(3), 1.0);
        idx.finalize();
        let docs: Vec<DocId> = idx.postings(term(1)).iter().map(|p| p.doc).collect();
        assert_eq!(docs, vec![doc(3), doc(7)]);
    }

    #[test]
    fn random_access_matches_postings() {
        let mut idx = InvertedIndex::new();
        idx.insert(term(2), doc(0), 0.25);
        idx.insert(term(2), doc(1), 0.75);
        idx.finalize();
        assert_eq!(idx.score(term(2), doc(0)), Some(0.25));
        assert_eq!(idx.score(term(2), doc(1)), Some(0.75));
        assert_eq!(idx.score(term(2), doc(2)), None);
    }

    #[test]
    fn reinsert_overwrites() {
        let mut idx = InvertedIndex::new();
        idx.insert(term(0), doc(0), 1.0);
        idx.insert(term(0), doc(0), 3.0);
        idx.finalize();
        assert_eq!(idx.score(term(0), doc(0)), Some(3.0));
        // The surviving posting carries the surviving score.
        assert_eq!(idx.postings(term(0))[0].score, 3.0);
    }

    #[test]
    fn multiple_terms_are_independent() {
        let mut idx = InvertedIndex::new();
        idx.insert(term(0), doc(0), 1.0);
        idx.insert(term(1), doc(1), 2.0);
        idx.finalize();
        assert_eq!(idx.n_terms(), 2);
        assert_eq!(idx.postings(term(0)).len(), 1);
        assert_eq!(idx.postings(term(1)).len(), 1);
        assert_eq!(idx.n_postings(), 2);
    }

    #[test]
    fn finalize_is_idempotent() {
        let mut idx = InvertedIndex::new();
        idx.insert(term(0), doc(1), 1.0);
        idx.insert(term(0), doc(2), 2.0);
        idx.finalize();
        let before: Vec<Posting> = idx.postings(term(0)).to_vec();
        idx.finalize();
        idx.finalize();
        assert_eq!(idx.postings(term(0)), before.as_slice());
    }

    #[test]
    fn insert_unfinalizes() {
        let mut idx = InvertedIndex::new();
        assert!(idx.finalized);
        idx.insert(term(0), doc(0), 1.0);
        assert!(!idx.finalized);
        idx.finalize();
        assert!(idx.finalized);
        idx.insert(term(0), doc(1), 2.0);
        assert!(!idx.finalized);
        idx.finalize();
        let docs: Vec<DocId> = idx.postings(term(0)).iter().map(|p| p.doc).collect();
        assert_eq!(docs, vec![doc(1), doc(0)], "re-sorted after the insert");
    }

    #[test]
    #[should_panic(expected = "sorted access before")]
    #[cfg(debug_assertions)]
    fn sorted_access_before_finalize_panics() {
        let mut idx = InvertedIndex::new();
        idx.insert(term(0), doc(0), 1.0);
        let _ = idx.postings(term(0));
    }

    #[test]
    fn set_postings_replaces_one_term() {
        let mut idx = InvertedIndex::new();
        idx.insert(term(0), doc(0), 1.0);
        idx.insert(term(1), doc(1), 2.0);
        idx.finalize();
        idx.set_postings(
            term(0),
            vec![
                Posting {
                    doc: doc(5),
                    score: 0.5,
                },
                Posting {
                    doc: doc(6),
                    score: 5.0,
                },
            ],
        );
        let docs: Vec<DocId> = idx.postings(term(0)).iter().map(|p| p.doc).collect();
        assert_eq!(docs, vec![doc(6), doc(5)]);
        assert_eq!(idx.score(term(0), doc(0)), None);
        assert_eq!(idx.score(term(0), doc(5)), Some(0.5));
        // The other term is untouched.
        assert_eq!(idx.score(term(1), doc(1)), Some(2.0));
    }

    /// A clone of the index (a published generation) shares every entry
    /// with the original; no later write to the original may show through.
    #[test]
    fn writes_never_reach_a_clone_sharing_the_entry() {
        let mut idx = InvertedIndex::new();
        idx.insert(term(0), doc(1), 1.0);
        idx.insert(term(0), doc(2), 2.0);
        idx.finalize();
        let held = idx.clone();
        let entry = Arc::clone(held.entry(term(0)).unwrap());
        assert!(Arc::ptr_eq(&entry, idx.entry(term(0)).unwrap()));
        let view = |i: &InvertedIndex| (i.postings(term(0)).to_vec(), i.score(term(0), doc(9)));
        let before = view(&held);

        // Wholesale replacement is a fresh allocation...
        idx.set_postings(
            term(0),
            vec![Posting {
                doc: doc(9),
                score: 9.0,
            }],
        );
        assert!(!Arc::ptr_eq(&entry, idx.entry(term(0)).unwrap()));
        assert_eq!(view(&held), before);
        // ...and an in-place insert into a shared entry copies it first.
        let shared_again = idx.clone();
        idx.insert(term(0), doc(3), 3.0);
        idx.finalize();
        assert_eq!(shared_again.score(term(0), doc(3)), None);
        assert_eq!(view(&held), before);
        assert!(Arc::ptr_eq(&entry, held.entry(term(0)).unwrap()));
    }

    #[test]
    fn set_postings_empty_removes_term() {
        let mut idx = InvertedIndex::new();
        idx.insert(term(0), doc(0), 1.0);
        idx.finalize();
        idx.set_postings(term(0), Vec::new());
        assert_eq!(idx.n_terms(), 0);
        assert_eq!(idx.score(term(0), doc(0)), None);
    }
}
