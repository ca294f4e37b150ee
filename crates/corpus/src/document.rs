//! Documents: the atomic items of a stream.

use crate::collection::{StreamId, Timestamp};
use crate::dictionary::TermId;
use std::collections::HashMap;

/// Dense identifier of a document within a collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u32);

impl DocId {
    /// The document id as a usize index.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// A document: where and when it appeared, and its bag of terms.
///
/// A document belongs to exactly one stream (its place of origin) and one
/// timestamp — this is what lets the search engine decide whether a document
/// *overlaps* a spatiotemporal pattern (Section 5 of the paper).
#[derive(Debug, Clone)]
pub struct Document {
    /// Identifier of the document within its collection.
    pub id: DocId,
    /// Stream (location) the document was reported from.
    pub stream: StreamId,
    /// Timestamp at which the document was reported.
    pub timestamp: Timestamp,
    /// Term frequency bag: `freq(t, d)` for every term appearing in `d`.
    pub counts: HashMap<TermId, u32>,
}

impl Document {
    /// Creates a document from its parts.
    pub(crate) fn new(
        id: DocId,
        stream: StreamId,
        timestamp: Timestamp,
        counts: HashMap<TermId, u32>,
    ) -> Self {
        Self {
            id,
            stream,
            timestamp,
            counts,
        }
    }

    /// Frequency of the term `t` in the document (`freq(t, d)`), zero if the
    /// term does not appear.
    pub fn freq(&self, t: TermId) -> u32 {
        self.counts.get(&t).copied().unwrap_or(0)
    }

    /// Number of distinct terms in the document.
    pub fn distinct_terms(&self) -> usize {
        self.counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> Document {
        let mut counts = HashMap::new();
        counts.insert(TermId(0), 3);
        counts.insert(TermId(5), 1);
        Document::new(DocId(7), StreamId(2), 4, counts)
    }

    #[test]
    fn freq_lookup() {
        let d = sample_doc();
        assert_eq!(d.freq(TermId(0)), 3);
        assert_eq!(d.freq(TermId(5)), 1);
        assert_eq!(d.freq(TermId(9)), 0);
    }

    #[test]
    fn token_and_term_counts() {
        let d = sample_doc();
        assert_eq!(d.distinct_terms(), 2);
    }

    #[test]
    fn ids_index() {
        assert_eq!(DocId(3).index(), 3);
    }
}
