//! Versioned, checksummed binary snapshots of the pipeline's inputs.
//!
//! A snapshot freezes what the ingestion pipeline cannot re-derive: the
//! dictionary, the streams with their positions, the timeline length, the
//! documents, the mined patterns with their captured spatial footprints,
//! and the pipeline's *pending* bookkeeping (dirty terms, staged
//! documents, structural flags). Everything else is derived
//! on load by the code that builds it the first time: the frequency tensor
//! by [`Collection::from_parts`] (the aggregation
//! `CollectionBuilder::build` runs), every posting list by the engine's
//! `finalize` (see `ShardedEngine::restore`). A restarted process resumes
//! from `load_snapshot + replay_wal` byte-identically to a process that
//! never stopped.
//!
//! # On-disk format
//!
//! ```text
//! "STBSNAP0" (8 bytes)  version: u32  payload_len: u64  payload_crc: u32
//! payload: payload_len bytes
//! ```
//!
//! The payload is encoded with the little-endian `crate::codec`
//! primitives; every `f64` is persisted as its IEEE 754 bit pattern so
//! round trips preserve score bits exactly. Snapshots are written
//! atomically: the bytes go to a temp file in the same directory, which is
//! synced and then renamed over the destination, followed by a
//! parent-directory fsync — a crash at any point leaves either the old
//! snapshot or the new one, never a hybrid.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

use stb_core::PatternRecord;
use stb_corpus::DocId;
use stb_corpus::{Collection, CollectionParts, Document, StreamId, StreamMeta, TermId};
use stb_geo::{GeoPoint, Point2D, Rect};
use stb_timeseries::TimeInterval;

use crate::codec::{crc32, Dec, Enc};
use crate::error::StoreError;
use crate::fault::{FaultSchedule, FaultSite};
use crate::wal::DocRecord;

/// The snapshot file magic number.
pub(crate) const SNAPSHOT_MAGIC: [u8; 8] = *b"STBSNAP0";
/// The single snapshot format version this build reads and writes. Version
/// 1 also persisted the frequency tensor and every posting list; version 2
/// also persisted a pending "timeline grew" flag for live `STComb` mining;
/// version 3 also persisted every stream's total term occurrences per
/// timestamp. There are no deployed stores, so an older file is an
/// `UnsupportedVersion` error.
pub(crate) const SNAPSHOT_VERSION: u32 = 4;

/// The ingestion pipeline's uncommitted bookkeeping at snapshot time.
///
/// A snapshot is not necessarily taken at a quiescent point: documents may
/// be staged but uncommitted, terms may be awaiting re-mining, and a newly
/// added stream may have flagged a structural change whose full re-mine
/// has not happened yet. Dropping any of that on recovery would make the
/// next commit diverge from the never-crashed run, so it is persisted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PendingState {
    /// A stream was added since the last commit (forces an all-term
    /// re-mine on the next commit).
    pub structural_dirty: bool,
    /// Terms whose patterns must be re-mined at the next commit, sorted.
    pub dirty_terms: Vec<TermId>,
    /// Documents staged but not yet committed, in arrival order.
    pub staged: Vec<DocRecord>,
}

/// Everything a recovered process needs and cannot re-derive: the
/// committed tick count, the collection, the mined patterns, and the
/// pipeline's pending bookkeeping.
#[derive(Debug, Clone)]
pub struct SnapshotState {
    /// Number of ticks committed when the snapshot was taken. WAL records
    /// with `tick < ticks_committed` are already reflected here and are
    /// skipped during replay.
    pub ticks_committed: u64,
    /// The collection; only its inputs are persisted (see
    /// [`encode_collection`]).
    pub collection: Arc<Collection>,
    /// Per-term mined patterns, terms sorted by id, each term's records in
    /// registration order.
    pub patterns: Vec<(TermId, Arc<[PatternRecord]>)>,
    /// Uncommitted pipeline bookkeeping.
    pub pending: PendingState,
}

// ---------------------------------------------------------------------
// Section codecs. Each record type has its own encode/decode pair so the
// unit tests can round-trip them in isolation.
// ---------------------------------------------------------------------

/// Encodes a collection's inputs into `e`: dictionary, streams, timeline
/// length and documents. The frequency tensor is not persisted;
/// `decode_collection` re-derives it from the documents.
pub fn encode_collection(e: &mut Enc, collection: &Collection) {
    let dict = collection.dict();
    e.put_u32(dict.len() as u32);
    for (_, term) in dict.iter() {
        e.put_str(term);
    }
    e.put_u32(collection.n_streams() as u32);
    for s in collection.streams() {
        e.put_str(&s.name);
        e.put_f64(s.geostamp.lat);
        e.put_f64(s.geostamp.lon);
        e.put_f64(s.position.x);
        e.put_f64(s.position.y);
    }
    e.put_usize(collection.timeline_len());
    e.put_u32(collection.documents().len() as u32);
    let mut counts: Vec<(TermId, u32)> = Vec::new();
    for d in collection.documents() {
        e.put_u32(d.stream.0);
        e.put_usize(d.timestamp);
        counts.clear();
        counts.extend(d.counts.iter().map(|(&t, &c)| (t, c)));
        counts.sort_unstable_by_key(|&(t, _)| t);
        e.put_u32(counts.len() as u32);
        for &(t, c) in &counts {
            e.put_u32(t.0);
            e.put_u32(c);
        }
    }
}

/// Decodes a collection, validating every structural invariant and
/// re-deriving the frequency tensor via [`Collection::from_parts`].
pub(crate) fn decode_collection(d: &mut Dec<'_>) -> Result<Collection, StoreError> {
    let n_terms = d.get_count(4)?;
    let mut terms = Vec::with_capacity(n_terms);
    for _ in 0..n_terms {
        terms.push(d.get_str()?);
    }
    let n_streams = d.get_count(4)?;
    let mut streams = Vec::with_capacity(n_streams);
    for i in 0..n_streams {
        let name = d.get_str()?;
        let lat = d.get_f64()?;
        let lon = d.get_f64()?;
        let x = d.get_f64()?;
        let y = d.get_f64()?;
        streams.push(StreamMeta {
            id: StreamId(i as u32),
            name,
            geostamp: GeoPoint { lat, lon },
            position: Point2D { x, y },
        });
    }
    let timeline_len = d.get_usize()?;
    let n_docs = d.get_count(4)?;
    let mut documents = Vec::with_capacity(n_docs);
    for i in 0..n_docs {
        let stream = StreamId(d.get_u32()?);
        let timestamp = d.get_usize()?;
        let n_counts = d.get_count(8)?;
        let mut counts = std::collections::HashMap::with_capacity(n_counts);
        for _ in 0..n_counts {
            let term = TermId(d.get_u32()?);
            let count = d.get_u32()?;
            counts.insert(term, count);
        }
        documents.push(Document {
            id: DocId(i as u32),
            stream,
            timestamp,
            counts,
        });
    }
    let parts = CollectionParts {
        terms,
        streams,
        timeline_len,
        documents,
    };
    Collection::from_parts(parts)
        .map_err(|e| StoreError::corrupt("snapshot", e.detail().to_string()))
}

/// Encodes one pattern record.
pub(crate) fn encode_pattern(e: &mut Enc, p: &PatternRecord) {
    e.put_u32(p.streams.len() as u32);
    for s in &p.streams {
        e.put_u32(s.0);
    }
    e.put_usize(p.timeframe.start);
    e.put_usize(p.timeframe.end);
    match &p.region {
        Some(r) => {
            e.put_bool(true);
            e.put_f64(r.min_x);
            e.put_f64(r.min_y);
            e.put_f64(r.max_x);
            e.put_f64(r.max_y);
        }
        None => e.put_bool(false),
    }
    e.put_f64(p.score);
}

/// Decodes one pattern record.
pub(crate) fn decode_pattern(d: &mut Dec<'_>) -> Result<PatternRecord, StoreError> {
    let n = d.get_count(4)?;
    let mut streams = Vec::with_capacity(n);
    for _ in 0..n {
        streams.push(StreamId(d.get_u32()?));
    }
    let start = d.get_usize()?;
    let end = d.get_usize()?;
    if start > end {
        return Err(StoreError::corrupt(
            "snapshot",
            format!("pattern timeframe [{start}, {end}] is inverted"),
        ));
    }
    // The engine's overlap test binary-searches `streams`: an unsorted or
    // repeated id would silently drop documents instead of failing here.
    if let Some(w) = streams.windows(2).find(|w| w[0] >= w[1]) {
        return Err(StoreError::corrupt(
            "snapshot",
            format!(
                "pattern stream ids {} then {} are not strictly increasing",
                w[0].0, w[1].0
            ),
        ));
    }
    let region = if d.get_bool()? {
        let min_x = d.get_f64()?;
        let min_y = d.get_f64()?;
        let max_x = d.get_f64()?;
        let max_y = d.get_f64()?;
        Some(Rect {
            min_x,
            min_y,
            max_x,
            max_y,
        })
    } else {
        None
    };
    let score = d.get_f64()?;
    Ok(PatternRecord {
        streams,
        timeframe: TimeInterval { start, end },
        region,
        score,
    })
}

/// Encodes every term's pattern records.
pub(crate) fn encode_patterns(e: &mut Enc, patterns: &TermPatterns) {
    e.put_u32(patterns.len() as u32);
    for (term, records) in patterns {
        e.put_u32(term.0);
        e.put_u32(records.len() as u32);
        for r in records.iter() {
            encode_pattern(e, r);
        }
    }
}

/// Every term's pattern records, terms sorted by id.
type TermPatterns = Vec<(TermId, Arc<[PatternRecord]>)>;

/// Decodes every term's pattern records.
pub(crate) fn decode_patterns(d: &mut Dec<'_>) -> Result<TermPatterns, StoreError> {
    let n_terms = d.get_count(4)?;
    let mut patterns = Vec::with_capacity(n_terms);
    for _ in 0..n_terms {
        let term = TermId(d.get_u32()?);
        let n = d.get_count(8)?;
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            records.push(decode_pattern(d)?);
        }
        patterns.push((term, records.into()));
    }
    Ok(patterns)
}

/// Encodes one staged-document record.
pub(crate) fn encode_doc_record(e: &mut Enc, d: &DocRecord) {
    e.put_u32(d.stream.0);
    e.put_u32(d.counts.len() as u32);
    for &(term, count) in &d.counts {
        e.put_u32(term.0);
        e.put_u32(count);
    }
}

/// Decodes one staged-document record.
pub(crate) fn decode_doc_record(d: &mut Dec<'_>) -> Result<DocRecord, StoreError> {
    let stream = StreamId(d.get_u32()?);
    let n = d.get_count(8)?;
    let mut counts = Vec::with_capacity(n);
    for _ in 0..n {
        let term = TermId(d.get_u32()?);
        let count = d.get_u32()?;
        counts.push((term, count));
    }
    Ok(DocRecord { stream, counts })
}

/// Encodes the pending pipeline bookkeeping.
pub(crate) fn encode_pending(e: &mut Enc, p: &PendingState) {
    e.put_bool(p.structural_dirty);
    e.put_u32(p.dirty_terms.len() as u32);
    for t in &p.dirty_terms {
        e.put_u32(t.0);
    }
    e.put_u32(p.staged.len() as u32);
    for doc in &p.staged {
        encode_doc_record(e, doc);
    }
}

/// Decodes the pending pipeline bookkeeping.
pub(crate) fn decode_pending(d: &mut Dec<'_>) -> Result<PendingState, StoreError> {
    let structural_dirty = d.get_bool()?;
    let n = d.get_count(4)?;
    let mut dirty_terms = Vec::with_capacity(n);
    for _ in 0..n {
        dirty_terms.push(TermId(d.get_u32()?));
    }
    let n_staged = d.get_count(8)?;
    let mut staged = Vec::with_capacity(n_staged);
    for _ in 0..n_staged {
        staged.push(decode_doc_record(d)?);
    }
    Ok(PendingState {
        structural_dirty,
        dirty_terms,
        staged,
    })
}

/// Encodes a full snapshot payload (without the file header).
pub fn encode_snapshot(state: &SnapshotState) -> Vec<u8> {
    let mut e = Enc::new();
    e.put_u64(state.ticks_committed);
    encode_collection(&mut e, &state.collection);
    encode_patterns(&mut e, &state.patterns);
    encode_pending(&mut e, &state.pending);
    e.into_bytes()
}

/// Range-checks every id in the pattern and pending sections against the
/// decoded collection's bounds, so a checksum-valid but internally
/// inconsistent snapshot fails closed with a typed error instead of
/// panicking (index out of bounds) the first time a query touches it.
fn validate_snapshot_ids(
    collection: &Collection,
    patterns: &TermPatterns,
    pending: &PendingState,
) -> Result<(), StoreError> {
    // Term ids are bounded by the dictionary, not the frequency tensor:
    // a term interned during a still-open tick is a valid id before any
    // of its documents commit.
    let n_terms = collection.dict().len();
    let n_streams = collection.n_streams();
    let term_in_range = |what: &'static str, term: TermId| {
        if (term.0 as usize) < n_terms {
            Ok(())
        } else {
            Err(StoreError::corrupt(
                "snapshot",
                format!("{what} references term {} with {n_terms} terms", term.0),
            ))
        }
    };
    for (term, records) in patterns {
        term_in_range("pattern set", *term)?;
        for r in records.iter() {
            for s in &r.streams {
                if (s.0 as usize) >= n_streams {
                    return Err(StoreError::corrupt(
                        "snapshot",
                        format!(
                            "pattern of term {} references stream {} with {n_streams} streams",
                            term.0, s.0
                        ),
                    ));
                }
            }
        }
    }
    for t in &pending.dirty_terms {
        term_in_range("dirty-term set", *t)?;
    }
    for doc in &pending.staged {
        if (doc.stream.0 as usize) >= n_streams {
            return Err(StoreError::corrupt(
                "snapshot",
                format!(
                    "staged document references stream {} with {n_streams} streams",
                    doc.stream.0
                ),
            ));
        }
        for &(term, _) in &doc.counts {
            term_in_range("staged document", term)?;
        }
    }
    Ok(())
}

/// Decodes a full snapshot payload (the header must already be verified).
pub(crate) fn decode_snapshot(payload: &[u8]) -> Result<SnapshotState, StoreError> {
    let mut d = Dec::new(payload, "snapshot");
    let ticks_committed = d.get_u64()?;
    let collection = decode_collection(&mut d)?;
    let patterns = decode_patterns(&mut d)?;
    let pending = decode_pending(&mut d)?;
    if !d.is_empty() {
        return Err(StoreError::corrupt(
            "snapshot",
            format!("{} trailing bytes after snapshot", d.remaining()),
        ));
    }
    validate_snapshot_ids(&collection, &patterns, &pending)?;
    Ok(SnapshotState {
        ticks_committed,
        collection: Arc::new(collection),
        patterns,
        pending,
    })
}

/// Frames a snapshot payload into the full file bytes (header + payload).
pub(crate) fn frame_snapshot(payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(24 + payload.len());
    bytes.extend_from_slice(&SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&crc32(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// Verifies a snapshot file's header and checksum, returning the payload.
pub(crate) fn unframe_snapshot(bytes: &[u8]) -> Result<&[u8], StoreError> {
    if bytes.len() < 24 {
        return Err(StoreError::Truncated { what: "snapshot" });
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(&bytes[..8]);
        return Err(StoreError::BadMagic {
            what: "snapshot",
            found,
        });
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != SNAPSHOT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            what: "snapshot",
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let payload_len = u64::from_le_bytes([
        bytes[12], bytes[13], bytes[14], bytes[15], bytes[16], bytes[17], bytes[18], bytes[19],
    ]);
    let expected = u32::from_le_bytes([bytes[20], bytes[21], bytes[22], bytes[23]]);
    let payload = &bytes[24..];
    if (payload.len() as u64) < payload_len {
        return Err(StoreError::Truncated { what: "snapshot" });
    }
    if (payload.len() as u64) > payload_len {
        return Err(StoreError::corrupt(
            "snapshot",
            format!(
                "{} trailing bytes after the declared payload",
                payload.len() as u64 - payload_len
            ),
        ));
    }
    let actual = crc32(payload);
    if actual != expected {
        return Err(StoreError::ChecksumMismatch {
            what: "snapshot",
            expected,
            actual,
        });
    }
    Ok(payload)
}

/// Reads and fully validates a snapshot file.
pub(crate) fn read_snapshot(path: &Path) -> Result<SnapshotState, StoreError> {
    let bytes = std::fs::read(path)?;
    decode_snapshot(unframe_snapshot(&bytes)?)
}

/// Writes a snapshot atomically: temp file in the same directory, data
/// sync, rename over the destination, parent-directory fsync. Returns the
/// total file size in bytes.
#[cfg(test)]
pub(crate) fn write_snapshot(path: &Path, state: &SnapshotState) -> Result<u64, StoreError> {
    write_snapshot_with_faults(path, state, None)
}

/// [`write_snapshot`] with an optional chaos-harness fault schedule: each
/// step of the atomic-write protocol (temp write, data sync, rename,
/// directory fsync) consults its [`FaultSite`] first, so tests can fail
/// the protocol at any seam. Failing *after* the rename leaves a fully
/// valid snapshot on disk whose caller believes the checkpoint failed —
/// the same ambiguity real directory-fsync failures create.
pub(crate) fn write_snapshot_with_faults(
    path: &Path,
    state: &SnapshotState,
    faults: Option<&FaultSchedule>,
) -> Result<u64, StoreError> {
    let bytes = frame_snapshot(&encode_snapshot(state));
    let dir = path.parent().ok_or_else(|| {
        StoreError::Io(io::Error::new(
            io::ErrorKind::InvalidInput,
            "snapshot path has no parent directory",
        ))
    })?;
    let tmp = path.with_extension("stb.tmp");
    {
        if let Some(s) = faults {
            s.check_io(FaultSite::SnapshotWrite)?;
        }
        let mut file = File::create(&tmp)?;
        file.write_all(&bytes)?;
        if let Some(s) = faults {
            s.check_io(FaultSite::SnapshotSync)?;
        }
        file.sync_data()?;
    }
    if let Some(s) = faults {
        s.check_io(FaultSite::SnapshotRename)?;
    }
    std::fs::rename(&tmp, path)?;
    // Persist the rename itself: fsync the parent directory.
    if let Some(s) = faults {
        s.check_io(FaultSite::DirSync)?;
    }
    let dir_handle = OpenOptions::new().read(true).open(dir)?;
    dir_handle.sync_all()?;
    Ok(bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stb_corpus::CollectionBuilder;

    fn sample_collection() -> Collection {
        let tokenizer = stb_corpus::Tokenizer::default();
        let mut b = CollectionBuilder::new(4);
        let s0 = b.add_stream("paris", GeoPoint::new(48.85, 2.35));
        let s1 = b.add_stream("tokyo", GeoPoint::new(35.68, 139.69));
        b.add_text_document(s0, 0, "quake tremor quake", &tokenizer);
        b.add_text_document(s1, 1, "quake festival", &tokenizer);
        b.add_text_document(s0, 3, "calm waters", &tokenizer);
        b.build()
    }

    fn sample_state() -> SnapshotState {
        let collection = sample_collection();
        let patterns = vec![(
            TermId(0),
            Arc::from([
                PatternRecord {
                    streams: vec![StreamId(0), StreamId(1)],
                    timeframe: TimeInterval { start: 0, end: 1 },
                    region: Some(Rect {
                        min_x: -1.0,
                        min_y: -0.0,
                        max_x: 2.5,
                        max_y: 7.125,
                    }),
                    score: 3.75,
                },
                PatternRecord {
                    streams: vec![StreamId(0)],
                    timeframe: TimeInterval { start: 3, end: 3 },
                    region: None,
                    score: f64::MIN_POSITIVE,
                },
            ]),
        )];
        let pending = PendingState {
            structural_dirty: true,
            dirty_terms: vec![TermId(0), TermId(2)],
            staged: vec![DocRecord {
                stream: StreamId(1),
                counts: vec![(TermId(1), 2)],
            }],
        };
        SnapshotState {
            ticks_committed: 4,
            collection: Arc::new(collection),
            patterns,
            pending,
        }
    }

    fn assert_states_equal(a: &SnapshotState, b: &SnapshotState) {
        assert_eq!(a.ticks_committed, b.ticks_committed);
        // Collections compare via re-encoding (Collection is not PartialEq).
        let mut ea = Enc::new();
        encode_collection(&mut ea, &a.collection);
        let mut eb = Enc::new();
        encode_collection(&mut eb, &b.collection);
        assert_eq!(ea.into_bytes(), eb.into_bytes());
        assert_eq!(a.patterns, b.patterns);
        assert_eq!(a.pending, b.pending);
    }

    #[test]
    fn collection_round_trip() {
        // Grown after the build, as the live pipeline grows it: the decoded
        // tensor is re-derived, and must equal the one the pushes kept.
        let mut collection = sample_collection();
        let lima = collection.add_stream("lima", GeoPoint::new(-12.0, -77.0));
        collection.extend_timeline(6);
        let quake = collection.dict().get("quake").unwrap();
        collection.push_document(lima, 5, std::collections::HashMap::from([(quake, 4)]));
        let mut e = Enc::new();
        encode_collection(&mut e, &collection);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes, "snapshot");
        let decoded = decode_collection(&mut d).unwrap();
        assert!(d.is_empty());
        let mut e2 = Enc::new();
        encode_collection(&mut e2, &decoded);
        assert_eq!(e2.into_bytes(), bytes);
        assert_eq!(
            collection.terms().collect::<Vec<_>>(),
            decoded.terms().collect::<Vec<_>>()
        );
        for term in collection.terms() {
            for s in collection.streams() {
                let (a, b) = (
                    collection.term_stream_series(term, s.id),
                    decoded.term_stream_series(term, s.id),
                );
                assert_eq!(
                    a.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                    b.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn a_huge_timeline_without_documents_loads_without_allocating_it() {
        // Nothing on the load path is sized by the decoded `timeline_len`:
        // a dense streams × timeline field of 2 × 2^40 f64s would abort.
        let collection = sample_collection();
        let state = SnapshotState {
            ticks_committed: 0,
            collection: Arc::new(
                Collection::from_parts(CollectionParts {
                    terms: vec!["quake".into()],
                    streams: collection.streams().to_vec(),
                    timeline_len: 1 << 40,
                    documents: Vec::new(),
                })
                .unwrap(),
            ),
            patterns: Vec::new(),
            pending: PendingState::default(),
        };
        let decoded = decode_snapshot(&encode_snapshot(&state)).unwrap();
        assert_eq!(decoded.collection.timeline_len(), 1 << 40);
        assert!(decoded.collection.documents().is_empty());
        assert_states_equal(&decoded, &state);
    }

    #[test]
    fn empty_collection_round_trip() {
        let collection = CollectionBuilder::new(0).build();
        let mut e = Enc::new();
        encode_collection(&mut e, &collection);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes, "snapshot");
        let decoded = decode_collection(&mut d).unwrap();
        assert_eq!(decoded.n_streams(), 0);
        assert_eq!(decoded.timeline_len(), 0);
        assert_eq!(decoded.documents().len(), 0);
    }

    #[test]
    fn pattern_round_trip_preserves_bits() {
        let p = PatternRecord {
            streams: vec![StreamId(3)],
            timeframe: TimeInterval { start: 1, end: 9 },
            region: Some(Rect {
                min_x: -0.0,
                min_y: 0.1 + 0.2, // not representable exactly; bits must survive
                max_x: f64::MAX,
                max_y: 1e-300,
            }),
            score: 0.1 + 0.7,
        };
        let mut e = Enc::new();
        encode_pattern(&mut e, &p);
        let bytes = e.into_bytes();
        let decoded = decode_pattern(&mut Dec::new(&bytes, "snapshot")).unwrap();
        assert_eq!(decoded.score.to_bits(), p.score.to_bits());
        let (r, dr) = (p.region.unwrap(), decoded.region.unwrap());
        assert_eq!(dr.min_x.to_bits(), r.min_x.to_bits());
        assert_eq!(dr.min_y.to_bits(), r.min_y.to_bits());
        assert_eq!(dr.max_x.to_bits(), r.max_x.to_bits());
        assert_eq!(dr.max_y.to_bits(), r.max_y.to_bits());
        assert_eq!(decoded.streams, p.streams);
        assert_eq!(decoded.timeframe, p.timeframe);
    }

    #[test]
    fn inverted_timeframe_is_corrupt() {
        let mut e = Enc::new();
        e.put_u32(0); // no streams
        e.put_usize(5);
        e.put_usize(2); // end < start
        e.put_bool(false);
        e.put_f64(1.0);
        let bytes = e.into_bytes();
        assert!(matches!(
            decode_pattern(&mut Dec::new(&bytes, "snapshot")),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn patterns_round_trip() {
        let patterns = sample_state().patterns;
        let mut e = Enc::new();
        encode_patterns(&mut e, &patterns);
        let bytes = e.into_bytes();
        let decoded = decode_patterns(&mut Dec::new(&bytes, "snapshot")).unwrap();
        assert_eq!(decoded, patterns);
    }

    #[test]
    fn doc_record_round_trip() {
        let doc = DocRecord {
            stream: StreamId(7),
            counts: vec![(TermId(1), 4), (TermId(9), 1)],
        };
        let mut e = Enc::new();
        encode_doc_record(&mut e, &doc);
        let bytes = e.into_bytes();
        assert_eq!(
            decode_doc_record(&mut Dec::new(&bytes, "snapshot")).unwrap(),
            doc
        );
    }

    #[test]
    fn pending_state_round_trip() {
        let pending = sample_state().pending;
        let mut e = Enc::new();
        encode_pending(&mut e, &pending);
        let bytes = e.into_bytes();
        assert_eq!(
            decode_pending(&mut Dec::new(&bytes, "snapshot")).unwrap(),
            pending
        );
    }

    #[test]
    fn full_snapshot_round_trip() {
        let state = sample_state();
        let decoded = decode_snapshot(&encode_snapshot(&state)).unwrap();
        assert_states_equal(&decoded, &state);
    }

    #[test]
    fn empty_snapshot_round_trip() {
        let state = SnapshotState {
            ticks_committed: 0,
            collection: Arc::new(CollectionBuilder::new(0).build()),
            patterns: Vec::new(),
            pending: PendingState::default(),
        };
        let decoded = decode_snapshot(&encode_snapshot(&state)).unwrap();
        assert_states_equal(&decoded, &state);
    }

    #[test]
    fn framed_snapshot_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("stb-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.stb");
        let state = sample_state();
        let written = write_snapshot(&path, &state).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        let decoded = read_snapshot(&path).unwrap();
        assert_states_equal(&decoded, &state);
        // No temp file left behind.
        assert!(!path.with_extension("stb.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_range_ids_are_corrupt() {
        // Checksum-valid snapshots whose ids point outside the decoded
        // collection must fail closed with a typed error at decode time,
        // not panic (index out of bounds) the first time a query runs.
        let reject = |state: &SnapshotState| {
            assert!(matches!(
                decode_snapshot(&encode_snapshot(state)),
                Err(StoreError::Corrupt { .. })
            ));
        };

        // Pattern streams out of range, out of order, or repeated.
        for streams in [&[0, 1, 9][..], &[1, 0], &[0, 0]] {
            let mut bad = sample_state();
            let mut records = bad.patterns[0].1.to_vec();
            records[0].streams = streams.iter().copied().map(StreamId).collect();
            bad.patterns[0].1 = records.into();
            reject(&bad);
        }

        let mut bad = sample_state();
        bad.patterns[0].0 = TermId(40);
        reject(&bad);

        let mut bad = sample_state();
        bad.pending.dirty_terms.push(TermId(50));
        reject(&bad);

        let mut bad = sample_state();
        bad.pending.staged[0].stream = StreamId(7);
        reject(&bad);

        let mut bad = sample_state();
        bad.pending.staged[0].counts.push((TermId(60), 1));
        reject(&bad);
    }

    #[test]
    fn corruption_is_rejected() {
        let state = sample_state();
        let good = frame_snapshot(&encode_snapshot(&state));

        // Zero-length file.
        assert!(matches!(
            unframe_snapshot(&[]),
            Err(StoreError::Truncated { what: "snapshot" })
        ));
        // Truncated header.
        assert!(matches!(
            unframe_snapshot(&good[..16]),
            Err(StoreError::Truncated { what: "snapshot" })
        ));
        // Foreign magic.
        let mut bad = good.clone();
        bad[0] = b'Z';
        assert!(matches!(
            unframe_snapshot(&bad),
            Err(StoreError::BadMagic {
                what: "snapshot",
                ..
            })
        ));
        // A file of an earlier format version.
        for old in [1, 2, 3] {
            let mut bad = good.clone();
            bad[8..12].copy_from_slice(&u32::to_le_bytes(old));
            assert!(matches!(
                unframe_snapshot(&bad),
                Err(StoreError::UnsupportedVersion {
                    what: "snapshot",
                    found,
                    supported: 4,
                }) if found == old
            ));
        }
        // Wrong version byte.
        let mut bad = good.clone();
        bad[8] = 42;
        assert!(matches!(
            unframe_snapshot(&bad),
            Err(StoreError::UnsupportedVersion {
                what: "snapshot",
                found: 42,
                ..
            })
        ));
        // Truncated payload.
        assert!(matches!(
            unframe_snapshot(&good[..good.len() - 1]),
            Err(StoreError::Truncated { what: "snapshot" })
        ));
        // Surplus bytes past the declared payload length: not a truncation
        // but still fail-closed, labeled as corruption.
        let mut bad = good.clone();
        bad.push(0xAB);
        assert!(matches!(
            unframe_snapshot(&bad),
            Err(StoreError::Corrupt { .. })
        ));
        // Flipped payload bit -> checksum mismatch.
        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0x01;
        assert!(matches!(
            unframe_snapshot(&bad),
            Err(StoreError::ChecksumMismatch {
                what: "snapshot",
                ..
            })
        ));
        // Flipped stored-CRC bit -> checksum mismatch.
        let mut bad = good.clone();
        bad[20] ^= 0x80;
        assert!(matches!(
            unframe_snapshot(&bad),
            Err(StoreError::ChecksumMismatch {
                what: "snapshot",
                ..
            })
        ));
    }
}
