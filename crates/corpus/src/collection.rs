//! Spatiotemporal collections: streams × timestamps × terms.
//!
//! A [`Collection`] is the paper's `D = {D_1[·], ..., D_n[·]}` (Section 2):
//! a fixed set of geostamped document streams observed over a shared
//! discrete timeline. It stores the documents themselves (needed by the
//! search engine) and maintains the per-term frequency tensors the mining
//! algorithms consume:
//!
//! * `D_x[i][t]` — the frequency of term `t` in the documents of stream `x`
//!   at timestamp `i` (Eq. 6), available as per-stream series
//!   ([`Collection::term_stream_series`]) and as per-timestamp snapshots
//!   across streams ([`Collection::term_snapshot`]).

use crate::dictionary::{TermDict, TermId};
use crate::document::{DocId, Document};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use stb_geo::{GeoPoint, Point2D};

/// Dense identifier of a stream within a collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u32);

impl StreamId {
    /// The stream id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Discrete timestamp (index into the collection's timeline).
pub type Timestamp = usize;

/// Metadata of a document stream: a name, a geostamp, and the planar map
/// position used by the regional mining (typically obtained by projecting
/// the geostamps with MDS).
#[derive(Debug, Clone)]
pub struct StreamMeta {
    /// Identifier of the stream.
    pub id: StreamId,
    /// Human-readable name (e.g. a country or city name).
    pub name: String,
    /// Geographic location of the stream.
    pub geostamp: GeoPoint,
    /// Position of the stream on the planar map.
    pub position: Point2D,
}

/// A per-term snapshot `D[i]` of the collection: the frequency of one term
/// in every stream at a single timestamp.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Frequency of the term per stream, indexed by [`StreamId::index`].
    pub frequencies: Vec<f64>,
}

/// Sparse per-term storage: for each stream that mentions the term, the
/// (timestamp, frequency) pairs sorted by timestamp.
type TermOccurrences = BTreeMap<StreamId, Vec<(Timestamp, f64)>>;

/// A spatiotemporal document collection.
#[derive(Debug, Clone)]
pub struct Collection {
    dict: TermDict,
    streams: Vec<StreamMeta>,
    timeline_len: usize,
    documents: Vec<Document>,
    term_freqs: HashMap<TermId, TermOccurrences>,
}

impl Collection {
    /// Number of streams `n = |D|`.
    pub fn n_streams(&self) -> usize {
        self.streams.len()
    }

    /// Length of the timeline `|L|` (number of timestamps).
    pub fn timeline_len(&self) -> usize {
        self.timeline_len
    }

    /// The term dictionary of the collection.
    pub fn dict(&self) -> &TermDict {
        &self.dict
    }

    /// Metadata of one stream.
    pub fn stream(&self, id: StreamId) -> &StreamMeta {
        &self.streams[id.index()]
    }

    /// Metadata of all streams, indexed by [`StreamId::index`].
    pub fn streams(&self) -> &[StreamMeta] {
        &self.streams
    }

    /// Planar positions of all streams, indexed by [`StreamId::index`].
    pub fn positions(&self) -> Vec<Point2D> {
        self.streams.iter().map(|s| s.position).collect()
    }

    /// All documents of the collection.
    pub fn documents(&self) -> &[Document] {
        &self.documents
    }

    /// A single document by id.
    pub fn document(&self, id: DocId) -> &Document {
        &self.documents[id.index()]
    }

    /// Iterates over every term that occurs at least once in the collection.
    pub fn terms(&self) -> impl Iterator<Item = TermId> + '_ {
        let mut ids: Vec<TermId> = self.term_freqs.keys().copied().collect();
        ids.sort();
        ids.into_iter()
    }

    /// Number of distinct terms that occur in the collection.
    pub fn n_terms(&self) -> usize {
        self.term_freqs.len()
    }

    /// The streams in which `term` occurs at least once, sorted by id.
    pub fn streams_with_term(&self, term: TermId) -> Vec<StreamId> {
        self.term_freqs
            .get(&term)
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Dense frequency series of `term` in `stream` over the whole timeline
    /// (`D_x[·][t]`). Timestamps with no occurrence are zero.
    pub fn term_stream_series(&self, term: TermId, stream: StreamId) -> Vec<f64> {
        let mut series = vec![0.0; self.timeline_len];
        if let Some(per_stream) = self.term_freqs.get(&term) {
            if let Some(entries) = per_stream.get(&stream) {
                for &(ts, f) in entries {
                    if ts < self.timeline_len {
                        series[ts] += f;
                    }
                }
            }
        }
        series
    }

    /// Frequency of `term` in every stream at `timestamp` (`D[i]` restricted
    /// to one term), indexed by [`StreamId::index`].
    pub fn term_snapshot(&self, term: TermId, timestamp: Timestamp) -> Snapshot {
        let mut frequencies = vec![0.0; self.n_streams()];
        if let Some(per_stream) = self.term_freqs.get(&term) {
            for (stream, entries) in per_stream {
                // There is at most one entry per timestamp (the builder
                // aggregates), so a binary search lookup suffices.
                if let Ok(idx) = entries.binary_search_by_key(&timestamp, |e| e.0) {
                    frequencies[stream.index()] = entries[idx].1;
                }
            }
        }
        Snapshot { frequencies }
    }

    /// Aggregated frequency series of `term` over *all* streams merged into
    /// one (used by the temporal-only `TB` baseline of the paper).
    pub fn term_merged_series(&self, term: TermId) -> Vec<f64> {
        let mut series = vec![0.0; self.timeline_len];
        if let Some(per_stream) = self.term_freqs.get(&term) {
            for entries in per_stream.values() {
                for &(ts, f) in entries {
                    if ts < self.timeline_len {
                        series[ts] += f;
                    }
                }
            }
        }
        series
    }

    // ------------------------------------------------------------------
    // Live mutation.
    //
    // A built collection is not frozen: the ingest pipeline
    // (`stb-ingest`) appends streams, timeline ticks, and documents after
    // construction, maintaining the same frequency-tensor invariants the
    // batch [`CollectionBuilder`] establishes. A collection mutated
    // through these methods is indistinguishable from one built in a
    // single batch from the same documents (term counts are integral, so
    // the `f64` aggregation is exact in any order).
    // ------------------------------------------------------------------

    /// Mutable access to the term dictionary, so live ingestion can intern
    /// previously-unseen terms after construction.
    pub fn dict_mut(&mut self) -> &mut TermDict {
        &mut self.dict
    }

    /// Registers a new stream after construction, with an explicit planar
    /// position. The new stream has no documents yet; every existing
    /// per-term series simply gains a zero row.
    pub fn add_stream_with_position(
        &mut self,
        name: &str,
        geostamp: GeoPoint,
        position: Point2D,
    ) -> StreamId {
        let id = StreamId(self.streams.len() as u32);
        self.streams.push(StreamMeta {
            id,
            name: name.to_string(),
            geostamp,
            position,
        });
        id
    }

    /// Registers a new stream after construction, deriving its planar
    /// position from the geostamp by equirectangular projection (as
    /// [`CollectionBuilder::add_stream`] does).
    pub fn add_stream(&mut self, name: &str, geostamp: GeoPoint) -> StreamId {
        self.add_stream_with_position(name, geostamp, Point2D::new(geostamp.lon, geostamp.lat))
    }

    /// Grows the timeline to `new_len` timestamps (a no-op if the timeline
    /// is already at least that long). New timestamps hold no documents.
    pub fn extend_timeline(&mut self, new_len: usize) {
        self.timeline_len = self.timeline_len.max(new_len);
    }

    /// Appends a document after construction, incrementally updating the
    /// per-term frequency tensor. Returns the new
    /// document's id (dense, in arrival order — exactly the ids the batch
    /// builder would have assigned).
    ///
    /// # Panics
    ///
    /// Panics if the stream is unknown or the timestamp is outside the
    /// timeline (grow it first with [`Collection::extend_timeline`]).
    pub fn push_document(
        &mut self,
        stream: StreamId,
        timestamp: Timestamp,
        counts: HashMap<TermId, u32>,
    ) -> DocId {
        assert!(stream.index() < self.streams.len(), "unknown stream");
        assert!(timestamp < self.timeline_len, "timestamp beyond timeline");
        let id = DocId(self.documents.len() as u32);
        for (&term, &count) in &counts {
            let entries = self
                .term_freqs
                .entry(term)
                .or_default()
                .entry(stream)
                .or_default();
            // Keep the one-entry-per-timestamp, sorted-by-timestamp
            // invariant the batch builder establishes.
            match entries.binary_search_by_key(&timestamp, |e| e.0) {
                Ok(idx) => entries[idx].1 += count as f64,
                Err(idx) => entries.insert(idx, (timestamp, count as f64)),
            }
        }
        self.documents
            .push(Document::new(id, stream, timestamp, counts));
        id
    }
}

/// The persisted inputs of a [`Collection`]: everything but the per-term
/// frequency tensor, which [`Collection::from_parts`] re-derives from the
/// documents (`stb-store` serializes these, never the private fields).
#[derive(Debug, Clone, Default)]
pub struct CollectionParts {
    /// Every interned term string, in [`TermId`] order (including terms
    /// that never occur in a document).
    pub terms: Vec<String>,
    /// Stream metadata, in [`StreamId`] order.
    pub streams: Vec<StreamMeta>,
    /// Length of the timeline.
    pub timeline_len: usize,
    /// Every document, in [`DocId`] order.
    pub documents: Vec<Document>,
}

/// Error returned by [`Collection::from_parts`] when the parts violate a
/// collection invariant (dense ids, documents inside the timeline, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartsError {
    detail: String,
}

impl PartsError {
    fn new(detail: impl Into<String>) -> Self {
        Self {
            detail: detail.into(),
        }
    }

    /// The violated invariant, human-readable.
    pub fn detail(&self) -> &str {
        &self.detail
    }
}

impl std::fmt::Display for PartsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid collection parts: {}", self.detail)
    }
}

impl std::error::Error for PartsError {}

/// Aggregates documents into the per-term frequency tensor: the one
/// derivation both [`CollectionBuilder::build`] and
/// [`Collection::from_parts`] run. Its memory is proportional to the
/// documents' distinct (term, stream, timestamp) triples, never to
/// `streams × timeline_len`.
fn aggregate(documents: &[Document]) -> HashMap<TermId, TermOccurrences> {
    let mut term_freqs: HashMap<TermId, TermOccurrences> = HashMap::new();
    // Aggregate per (term, stream, timestamp).
    let mut agg: HashMap<(TermId, StreamId, Timestamp), f64> = HashMap::new();
    for doc in documents {
        for (&term, &count) in &doc.counts {
            *agg.entry((term, doc.stream, doc.timestamp)).or_insert(0.0) += count as f64;
        }
    }
    for ((term, stream, ts), freq) in agg {
        term_freqs
            .entry(term)
            .or_default()
            .entry(stream)
            .or_default()
            .push((ts, freq));
    }
    for per_stream in term_freqs.values_mut() {
        for entries in per_stream.values_mut() {
            entries.sort_by_key(|e| e.0);
        }
    }
    term_freqs
}

impl Collection {
    /// Reassembles a collection from its persisted inputs, validating every
    /// structural invariant and re-deriving the frequency tensor with the
    /// aggregation [`CollectionBuilder::build`] runs. Nothing structurally
    /// impossible is accepted: ids must be dense and in range, and
    /// documents inside the timeline.
    ///
    /// `timeline_len` is only compared against, never allocated by: every
    /// allocation here is sized by the terms, streams and documents the
    /// caller already holds, and the collection stores no dense
    /// per-timestamp data. A decoded `timeline_len` therefore needs no
    /// bound of its own (a dense `streams × timeline_len` field would).
    pub fn from_parts(parts: CollectionParts) -> Result<Self, PartsError> {
        let n_streams = parts.streams.len();
        let n_terms = parts.terms.len();
        for (i, meta) in parts.streams.iter().enumerate() {
            if meta.id.index() != i {
                return Err(PartsError::new(format!(
                    "stream {i} has non-dense id {:?}",
                    meta.id
                )));
            }
        }
        let mut dict = TermDict::new();
        for term in &parts.terms {
            dict.intern(term);
        }
        if dict.len() != n_terms {
            return Err(PartsError::new("duplicate term strings in dictionary"));
        }
        for (i, doc) in parts.documents.iter().enumerate() {
            if doc.id.index() != i {
                return Err(PartsError::new(format!(
                    "document {i} has non-dense id {:?}",
                    doc.id
                )));
            }
            if doc.stream.index() >= n_streams {
                return Err(PartsError::new(format!(
                    "document {i} references unknown stream {:?}",
                    doc.stream
                )));
            }
            if doc.timestamp >= parts.timeline_len {
                return Err(PartsError::new(format!(
                    "document {i} at timestamp {} beyond timeline {}",
                    doc.timestamp, parts.timeline_len
                )));
            }
            if let Some(&term) = doc.counts.keys().find(|t| t.index() >= n_terms) {
                return Err(PartsError::new(format!(
                    "document {i} references unknown term {term:?}"
                )));
            }
        }
        let term_freqs = aggregate(&parts.documents);
        Ok(Collection {
            dict,
            streams: parts.streams,
            timeline_len: parts.timeline_len,
            documents: parts.documents,
            term_freqs,
        })
    }
}

impl From<&Collection> for Arc<Collection> {
    /// Clones the collection into a fresh shared handle. This keeps
    /// pre-ownership call sites (`BurstySearchEngine::new(&collection, …)`)
    /// working; callers that share one collection across engines or with an
    /// ingest pipeline should build the `Arc` once and clone the handle.
    fn from(collection: &Collection) -> Self {
        Arc::new(collection.clone())
    }
}

/// Incremental builder of a [`Collection`].
#[derive(Debug, Clone)]
pub struct CollectionBuilder {
    dict: TermDict,
    streams: Vec<StreamMeta>,
    timeline_len: usize,
    documents: Vec<Document>,
}

impl CollectionBuilder {
    /// Creates a builder for a collection with the given timeline length.
    pub fn new(timeline_len: usize) -> Self {
        Self {
            dict: TermDict::new(),
            streams: Vec::new(),
            timeline_len,
            documents: Vec::new(),
        }
    }

    /// Mutable access to the term dictionary (for interning query terms or
    /// generator vocabularies up front).
    pub fn dict_mut(&mut self) -> &mut TermDict {
        &mut self.dict
    }

    /// Registers a stream with an explicit planar position.
    pub fn add_stream_with_position(
        &mut self,
        name: &str,
        geostamp: GeoPoint,
        position: Point2D,
    ) -> StreamId {
        let id = StreamId(self.streams.len() as u32);
        self.streams.push(StreamMeta {
            id,
            name: name.to_string(),
            geostamp,
            position,
        });
        id
    }

    /// Registers a stream whose planar position will be derived from its
    /// geostamp by equirectangular projection (longitude → x, latitude → y).
    ///
    /// For a projection that better preserves pairwise distances, compute an
    /// MDS embedding with [`stb_geo::classical_mds`] and use
    /// [`CollectionBuilder::add_stream_with_position`].
    pub fn add_stream(&mut self, name: &str, geostamp: GeoPoint) -> StreamId {
        self.add_stream_with_position(name, geostamp, Point2D::new(geostamp.lon, geostamp.lat))
    }

    /// Adds a document given its term-frequency bag.
    ///
    /// # Panics
    ///
    /// Panics if the stream is unknown or the timestamp is outside the
    /// timeline.
    pub fn add_document(
        &mut self,
        stream: StreamId,
        timestamp: Timestamp,
        counts: HashMap<TermId, u32>,
    ) -> DocId {
        assert!(stream.index() < self.streams.len(), "unknown stream");
        assert!(timestamp < self.timeline_len, "timestamp beyond timeline");
        let id = DocId(self.documents.len() as u32);
        self.documents
            .push(Document::new(id, stream, timestamp, counts));
        id
    }

    /// Adds a document given its raw text, tokenizing with `tokenizer`.
    pub fn add_text_document(
        &mut self,
        stream: StreamId,
        timestamp: Timestamp,
        text: &str,
        tokenizer: &crate::tokenizer::Tokenizer,
    ) -> DocId {
        let counts = tokenizer.term_counts(text, &mut self.dict);
        self.add_document(stream, timestamp, counts)
    }

    /// Finalizes the collection, computing the per-term frequency tensors.
    pub fn build(self) -> Collection {
        let term_freqs = aggregate(&self.documents);
        Collection {
            dict: self.dict,
            streams: self.streams,
            timeline_len: self.timeline_len,
            documents: self.documents,
            term_freqs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::Tokenizer;

    fn build_sample() -> Collection {
        let mut b = CollectionBuilder::new(5);
        let tok = Tokenizer::new();
        let s0 = b.add_stream("Athens", GeoPoint::new(38.0, 23.7));
        let s1 = b.add_stream("Lima", GeoPoint::new(-12.0, -77.0));
        b.add_text_document(s0, 0, "earthquake earthquake damage", &tok);
        b.add_text_document(s0, 2, "earthquake relief", &tok);
        b.add_text_document(s1, 2, "earthquake Fujimori trial", &tok);
        b.add_text_document(s1, 3, "Fujimori sentenced", &tok);
        b.build()
    }

    #[test]
    fn dimensions() {
        let c = build_sample();
        assert_eq!(c.n_streams(), 2);
        assert_eq!(c.timeline_len(), 5);
        assert_eq!(c.documents().len(), 4);
        assert!(c.n_terms() >= 5);
    }

    #[test]
    fn term_stream_series_is_dense() {
        let c = build_sample();
        let quake = c.dict().get("earthquake").unwrap();
        let series = c.term_stream_series(quake, StreamId(0));
        assert_eq!(series, vec![2.0, 0.0, 1.0, 0.0, 0.0]);
        let series1 = c.term_stream_series(quake, StreamId(1));
        assert_eq!(series1, vec![0.0, 0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn term_snapshot_across_streams() {
        let c = build_sample();
        let quake = c.dict().get("earthquake").unwrap();
        let snap = c.term_snapshot(quake, 2);
        assert_eq!(snap.frequencies, vec![1.0, 1.0]);
        let snap0 = c.term_snapshot(quake, 0);
        assert_eq!(snap0.frequencies, vec![2.0, 0.0]);
    }

    #[test]
    fn merged_series_sums_streams() {
        let c = build_sample();
        let quake = c.dict().get("earthquake").unwrap();
        assert_eq!(c.term_merged_series(quake), vec![2.0, 0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn streams_with_term() {
        let c = build_sample();
        let fuji = c.dict().get("fujimori").unwrap();
        assert_eq!(c.streams_with_term(fuji), vec![StreamId(1)]);
        let quake = c.dict().get("earthquake").unwrap();
        assert_eq!(c.streams_with_term(quake), vec![StreamId(0), StreamId(1)]);
    }

    #[test]
    fn unknown_term_has_empty_series() {
        let c = build_sample();
        let unknown = TermId(9999);
        assert_eq!(c.term_stream_series(unknown, StreamId(0)), vec![0.0; 5]);
        assert!(c.streams_with_term(unknown).is_empty());
    }

    #[test]
    fn document_lookup() {
        let c = build_sample();
        let d = c.document(DocId(0));
        assert_eq!(d.stream, StreamId(0));
        assert_eq!(d.timestamp, 0);
    }

    #[test]
    #[should_panic]
    fn timestamp_out_of_range_panics() {
        let mut b = CollectionBuilder::new(3);
        let s = b.add_stream("X", GeoPoint::new(0.0, 0.0));
        b.add_document(s, 3, HashMap::new());
    }

    #[test]
    #[should_panic]
    fn unknown_stream_panics() {
        let mut b = CollectionBuilder::new(3);
        b.add_document(StreamId(0), 0, HashMap::new());
    }

    #[test]
    fn terms_iterator_sorted() {
        let c = build_sample();
        let terms: Vec<_> = c.terms().collect();
        let mut sorted = terms.clone();
        sorted.sort();
        assert_eq!(terms, sorted);
    }

    /// A document plan: (stream index, timestamp, [(term index, count)]).
    type DocPlan = (usize, Timestamp, Vec<(usize, u32)>);

    /// Applies the same plan once through the batch builder and once through
    /// post-build mutation, and asserts the two collections are
    /// observationally identical.
    fn assert_incremental_matches_batch(plan: &[DocPlan], timeline: usize, n_streams: usize) {
        let terms = ["alpha", "beta", "gamma", "delta"];
        let mut batch = CollectionBuilder::new(timeline);
        let mut live = CollectionBuilder::new(timeline).build();
        for s in 0..n_streams {
            let geo = GeoPoint::new(s as f64, -(s as f64));
            batch.add_stream(&format!("s{s}"), geo);
            live.add_stream(&format!("s{s}"), geo);
        }
        for &(stream, ts, ref bag) in plan {
            let mut batch_counts = HashMap::new();
            let mut live_counts = HashMap::new();
            for &(t, count) in bag {
                let b_id = batch.dict_mut().intern(terms[t]);
                let l_id = live.dict_mut().intern(terms[t]);
                assert_eq!(b_id, l_id, "interning order must agree");
                *batch_counts.entry(b_id).or_insert(0) += count;
                *live_counts.entry(l_id).or_insert(0) += count;
            }
            batch.add_document(StreamId(stream as u32), ts, batch_counts);
            live.push_document(StreamId(stream as u32), ts, live_counts);
        }
        let batch = batch.build();

        assert_eq!(batch.n_streams(), live.n_streams());
        assert_eq!(batch.timeline_len(), live.timeline_len());
        assert_eq!(batch.documents().len(), live.documents().len());
        assert_eq!(batch.n_terms(), live.n_terms());
        let term_ids: Vec<TermId> = batch.terms().collect();
        assert_eq!(term_ids, live.terms().collect::<Vec<_>>());
        for &term in &term_ids {
            assert_eq!(batch.streams_with_term(term), live.streams_with_term(term));
            for s in 0..n_streams {
                assert_eq!(
                    batch.term_stream_series(term, StreamId(s as u32)),
                    live.term_stream_series(term, StreamId(s as u32))
                );
            }
            for ts in 0..timeline {
                assert_eq!(
                    batch.term_snapshot(term, ts).frequencies,
                    live.term_snapshot(term, ts).frequencies
                );
            }
        }
    }

    #[test]
    fn push_document_matches_batch_builder() {
        let plan: Vec<DocPlan> = vec![
            (0, 0, vec![(0, 2), (1, 1)]),
            (1, 0, vec![(0, 3)]),
            (0, 2, vec![(2, 5), (0, 1)]),
            (0, 2, vec![(0, 4)]), // same (term, stream, ts) twice: aggregates
            (1, 4, vec![(3, 1), (1, 2), (0, 1)]),
            (0, 1, vec![(1, 7)]), // out-of-timestamp-order arrival
        ];
        assert_incremental_matches_batch(&plan, 5, 2);
    }

    #[test]
    fn add_stream_after_build_starts_empty() {
        let mut c = build_sample();
        let n = c.n_streams();
        let s = c.add_stream("Tokyo", GeoPoint::new(35.7, 139.7));
        assert_eq!(s.index(), n);
        assert_eq!(c.n_streams(), n + 1);
        assert_eq!(c.stream(s).name, "Tokyo");
        let quake = c.dict().get("earthquake").unwrap();
        assert_eq!(c.term_snapshot(quake, 2).frequencies.len(), n + 1);
        // And it can receive documents right away.
        let mut counts = HashMap::new();
        counts.insert(quake, 2);
        c.push_document(s, 1, counts);
        assert_eq!(c.term_stream_series(quake, s)[1], 2.0);
    }

    #[test]
    fn extend_timeline_grows_with_zeros() {
        let mut c = build_sample();
        let quake = c.dict().get("earthquake").unwrap();
        let before = c.term_merged_series(quake);
        c.extend_timeline(8);
        assert_eq!(c.timeline_len(), 8);
        let after = c.term_merged_series(quake);
        assert_eq!(&after[..before.len()], before.as_slice());
        assert_eq!(&after[before.len()..], &[0.0, 0.0, 0.0]);
        // Shrinking is a no-op.
        c.extend_timeline(3);
        assert_eq!(c.timeline_len(), 8);
        // The grown tick accepts documents.
        let mut counts = HashMap::new();
        counts.insert(quake, 1);
        c.push_document(StreamId(0), 7, counts);
        assert_eq!(c.term_merged_series(quake)[7], 1.0);
    }

    #[test]
    fn new_term_after_build_is_queryable() {
        let mut c = build_sample();
        let tsunami = c.dict_mut().intern("tsunami");
        assert!(c
            .term_stream_series(tsunami, StreamId(0))
            .iter()
            .all(|&f| f == 0.0));
        let mut counts = HashMap::new();
        counts.insert(tsunami, 3);
        c.push_document(StreamId(1), 4, counts);
        assert_eq!(c.streams_with_term(tsunami), vec![StreamId(1)]);
        assert_eq!(c.term_stream_series(tsunami, StreamId(1))[4], 3.0);
    }

    #[test]
    #[should_panic(expected = "timestamp beyond timeline")]
    fn push_document_rejects_out_of_timeline() {
        let mut c = build_sample();
        c.push_document(StreamId(0), 99, HashMap::new());
    }

    /// The persisted inputs of `c`, as `stb-store` encodes them.
    fn parts_of(c: &Collection) -> CollectionParts {
        CollectionParts {
            terms: c.dict().iter().map(|(_, s)| s.to_string()).collect(),
            streams: c.streams().to_vec(),
            timeline_len: c.timeline_len(),
            documents: c.documents().to_vec(),
        }
    }

    #[test]
    fn parts_round_trip_is_identity() {
        // Mutated after the build, so the tensor the push path maintained
        // is compared against the one `from_parts` derives.
        let mut c = build_sample();
        let tokyo = c.add_stream("Tokyo", GeoPoint::new(35.7, 139.7));
        c.extend_timeline(7);
        let quake = c.dict().get("earthquake").unwrap();
        let tsunami = c.dict_mut().intern("tsunami");
        c.push_document(tokyo, 6, HashMap::from([(quake, 3), (tsunami, 2)]));
        c.push_document(StreamId(0), 2, HashMap::from([(quake, 1)]));
        let back = Collection::from_parts(parts_of(&c)).expect("valid parts");
        assert_eq!(c.n_streams(), back.n_streams());
        assert_eq!(c.timeline_len(), back.timeline_len());
        assert_eq!(c.documents().len(), back.documents().len());
        assert_eq!(c.n_terms(), back.n_terms());
        assert_eq!(
            c.terms().collect::<Vec<_>>(),
            back.terms().collect::<Vec<_>>()
        );
        for (term, name) in c.dict().iter() {
            assert_eq!(back.dict().resolve(term), Some(name));
            assert_eq!(c.streams_with_term(term), back.streams_with_term(term));
            for s in 0..c.n_streams() {
                assert_eq!(
                    c.term_stream_series(term, StreamId(s as u32)),
                    back.term_stream_series(term, StreamId(s as u32))
                );
            }
            for ts in 0..c.timeline_len() {
                assert_eq!(
                    c.term_snapshot(term, ts).frequencies,
                    back.term_snapshot(term, ts).frequencies
                );
            }
        }
        for (a, b) in c.documents().iter().zip(back.documents()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.stream, b.stream);
            assert_eq!(a.timestamp, b.timestamp);
            assert_eq!(a.counts, b.counts);
        }
    }

    #[test]
    fn empty_collection_parts_round_trip() {
        let c = CollectionBuilder::new(0).build();
        let back = Collection::from_parts(parts_of(&c)).expect("empty parts");
        assert_eq!(back.n_streams(), 0);
        assert_eq!(back.timeline_len(), 0);
        assert_eq!(back.documents().len(), 0);
        assert_eq!(back.n_terms(), 0);
    }

    #[test]
    fn from_parts_rejects_structural_nonsense() {
        let c = build_sample();
        // Dangling document stream.
        let mut parts = parts_of(&c);
        parts.documents[0].stream = StreamId(99);
        assert!(Collection::from_parts(parts).is_err());
        // A document past the timeline.
        let mut parts = parts_of(&c);
        parts.documents[1].timestamp = 5;
        assert!(Collection::from_parts(parts).is_err());
        // Duplicate dictionary strings.
        let mut parts = parts_of(&c);
        let first = parts.terms[0].clone();
        parts.terms.push(first);
        assert!(Collection::from_parts(parts).is_err());
        // Non-dense stream ids.
        let mut parts = parts_of(&c);
        parts.streams[0].id = StreamId(7);
        assert!(Collection::from_parts(parts).is_err());
    }

    #[test]
    fn arc_from_reference_clones() {
        let c = build_sample();
        let arc: Arc<Collection> = (&c).into();
        assert_eq!(arc.n_streams(), c.n_streams());
        assert_eq!(arc.documents().len(), c.documents().len());
    }
}
