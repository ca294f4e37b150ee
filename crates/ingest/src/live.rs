//! A mutable, snapshot-publishing view over a [`Collection`].
//!
//! [`LiveCollection`] is the ownership half of the live-ingestion design:
//! it holds the authoritative, mutable collection behind an
//! `Arc<Collection>` and mutates it copy-on-write (`Arc::make_mut`). While
//! no snapshot is shared, mutations are in-place and cheap; once a snapshot
//! has been published (to a search engine serving queries on another
//! thread), the *first* mutation of the next generation clones the
//! collection and every later mutation of that generation is again
//! in-place. Readers therefore always see a fully consistent generation —
//! never a half-applied tick — and writers never block on readers.

use std::collections::HashMap;
use std::sync::Arc;

use stb_corpus::{Collection, CollectionBuilder, DocId, StreamId, TermDict, TermId, Timestamp};
use stb_geo::{GeoPoint, Point2D};

/// A collection that keeps accepting streams, ticks, documents, and
/// previously-unseen terms after construction, publishing immutable
/// generational snapshots.
#[derive(Debug, Clone)]
pub(crate) struct LiveCollection {
    snapshot: Arc<Collection>,
    generation: u64,
}

impl LiveCollection {
    /// Creates an empty live collection whose timeline is pre-sized to
    /// `timeline_capacity` timestamps (0 is fine: the timeline grows on
    /// demand, see [`LiveCollection::extend_timeline`]).
    pub(crate) fn new(timeline_capacity: usize) -> Self {
        Self {
            snapshot: Arc::new(CollectionBuilder::new(timeline_capacity).build()),
            generation: 0,
        }
    }

    /// Wraps an existing collection (e.g. a batch-built corpus to keep
    /// ingesting into).
    pub(crate) fn from_collection(collection: impl Into<Arc<Collection>>) -> Self {
        Self {
            snapshot: collection.into(),
            generation: 0,
        }
    }

    /// The current snapshot handle. Cheap (`Arc` clone); the returned
    /// snapshot is immutable and detached from future mutations.
    pub(crate) fn snapshot(&self) -> Arc<Collection> {
        Arc::clone(&self.snapshot)
    }

    /// Number of mutations applied so far (the "generation" of the data).
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Read access to the underlying collection without publishing.
    pub(crate) fn collection(&self) -> &Collection {
        &self.snapshot
    }

    fn make_mut(&mut self) -> &mut Collection {
        self.generation += 1;
        Arc::make_mut(&mut self.snapshot)
    }

    /// Interns a term (new or existing) into the live dictionary.
    pub(crate) fn intern(&mut self, term: &str) -> TermId {
        if let Some(id) = self.snapshot.dict().get(term) {
            return id; // avoid a copy-on-write clone for known terms
        }
        self.make_mut().dict_mut().intern(term)
    }

    /// Read access to the live dictionary.
    pub(crate) fn dict(&self) -> &TermDict {
        self.snapshot.dict()
    }

    /// Tokenizes raw text against the live dictionary, interning any new
    /// terms, and returns the term-count bag (ready for
    /// [`LiveCollection::push_document`]).
    ///
    /// Like [`LiveCollection::intern`], this only mutates (and therefore
    /// only copies a shared snapshot) when the text actually contains a
    /// token the dictionary has not seen yet.
    pub(crate) fn term_counts(
        &mut self,
        text: &str,
        tokenizer: &stb_corpus::Tokenizer,
    ) -> HashMap<TermId, u32> {
        let all_known = tokenizer
            .tokenize(text)
            .all(|token| self.snapshot.dict().get(&token).is_some());
        if all_known {
            let dict = self.snapshot.dict();
            let mut counts = HashMap::new();
            for token in tokenizer.tokenize(text) {
                // `all_known` verified every token is present.
                if let Some(id) = dict.get(&token) {
                    *counts.entry(id).or_insert(0) += 1;
                }
            }
            return counts;
        }
        tokenizer.term_counts(text, self.make_mut().dict_mut())
    }

    /// Registers a new stream (position derived from the geostamp).
    pub(crate) fn add_stream(&mut self, name: &str, geostamp: GeoPoint) -> StreamId {
        self.make_mut().add_stream(name, geostamp)
    }

    /// Registers a new stream with an explicit planar position.
    pub(crate) fn add_stream_with_position(
        &mut self,
        name: &str,
        geostamp: GeoPoint,
        position: Point2D,
    ) -> StreamId {
        self.make_mut()
            .add_stream_with_position(name, geostamp, position)
    }

    /// Grows the timeline to at least `new_len` timestamps.
    pub(crate) fn extend_timeline(&mut self, new_len: usize) {
        if new_len > self.snapshot.timeline_len() {
            self.make_mut().extend_timeline(new_len);
        }
    }

    /// Appends a document, incrementally maintaining the frequency tensors.
    ///
    /// # Panics
    ///
    /// Panics if the stream is unknown or the timestamp is beyond the
    /// timeline.
    pub(crate) fn push_document(
        &mut self,
        stream: StreamId,
        timestamp: Timestamp,
        counts: HashMap<TermId, u32>,
    ) -> DocId {
        self.make_mut().push_document(stream, timestamp, counts)
    }

    /// Length of the timeline.
    pub(crate) fn timeline_len(&self) -> usize {
        self.snapshot.timeline_len()
    }

    /// Number of registered streams.
    pub(crate) fn n_streams(&self) -> usize {
        self.snapshot.n_streams()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_collection_doc_example() {
        let mut live = LiveCollection::new(4);
        let athens = live.add_stream("Athens", GeoPoint::new(38.0, 23.7));
        let quake = live.intern("earthquake");

        let frozen = live.snapshot(); // published: next mutation copies on write
        live.push_document(athens, 0, HashMap::from([(quake, 3)]));

        // The published snapshot still sees the pre-mutation generation.
        assert_eq!(frozen.documents().len(), 0);
        assert_eq!(live.snapshot().documents().len(), 1);
    }

    #[test]
    fn snapshots_are_generational() {
        let mut live = LiveCollection::new(3);
        let s = live.add_stream("A", GeoPoint::new(0.0, 0.0));
        let t = live.intern("x");
        let g0 = live.snapshot();
        let gen0 = live.generation();

        live.push_document(s, 0, HashMap::from([(t, 2)]));
        let g1 = live.snapshot();
        assert_eq!(g0.documents().len(), 0);
        assert_eq!(g1.documents().len(), 1);
        assert!(live.generation() > gen0);

        // Without shared snapshots the mutation is in place: the handle we
        // hold is the same allocation the live side keeps.
        drop((g0, g1));
        let before = Arc::as_ptr(&live.snapshot());
        // (the snapshot we just took is dropped immediately, so refcount
        // returns to 1 and the next mutation must not clone)
        live.push_document(s, 1, HashMap::from([(t, 1)]));
        assert_eq!(Arc::as_ptr(&live.snapshot()), before);
    }

    #[test]
    fn interning_known_terms_does_not_clone() {
        let mut live = LiveCollection::new(1);
        let a = live.intern("alpha");
        let published = live.snapshot();
        let gen = live.generation();
        assert_eq!(live.intern("alpha"), a);
        assert_eq!(live.generation(), gen, "known term must not mutate");
        drop(published);
        let b = live.intern("beta");
        assert_ne!(a, b);
    }

    #[test]
    fn term_counts_with_known_tokens_does_not_mutate() {
        let tokenizer = stb_corpus::Tokenizer::new();
        let mut live = LiveCollection::new(2);
        let quake = live.intern("quake");
        let damage = live.intern("damage");
        let published = live.snapshot();
        let gen = live.generation();

        let counts = live.term_counts("Quake quake damage!", &tokenizer);
        assert_eq!(counts, HashMap::from([(quake, 2), (damage, 1)]));
        assert_eq!(live.generation(), gen, "known-token text must not mutate");

        // An unknown token interns (and may copy the shared snapshot).
        let counts = live.term_counts("quake tsunami", &tokenizer);
        assert!(live.generation() > gen);
        assert_eq!(counts.len(), 2);
        assert_eq!(counts[&quake], 1);
        drop(published);
    }

    #[test]
    fn from_collection_keeps_existing_data() {
        let mut b = CollectionBuilder::new(2);
        let s = b.add_stream("A", GeoPoint::new(0.0, 0.0));
        let t = b.dict_mut().intern("x");
        b.add_document(s, 0, HashMap::from([(t, 1)]));
        let mut live = LiveCollection::from_collection(b.build());
        assert_eq!(live.snapshot().documents().len(), 1);
        live.push_document(s, 1, HashMap::from([(t, 4)]));
        assert_eq!(live.snapshot().documents().len(), 2);
        assert_eq!(live.collection().term_merged_series(t), vec![1.0, 4.0]);
    }

    #[test]
    fn timeline_grows_on_demand() {
        let mut live = LiveCollection::new(0);
        assert_eq!(live.timeline_len(), 0);
        live.extend_timeline(5);
        assert_eq!(live.timeline_len(), 5);
        live.extend_timeline(2); // no-op, never shrinks
        assert_eq!(live.timeline_len(), 5);
    }
}
