//! The store's decoders fed hostile bytes: arbitrary byte strings, and
//! valid encodings with random byte substitutions, insertions and
//! deletions. Every decoder must answer `Ok` or a typed `StoreError`;
//! none may panic (a panic fails the property). Allocation sizes come from
//! [`crate::codec::Dec::get_count`], which bounds every length prefix by
//! the bytes that remain, so a hostile count fails before it allocates.
//!
//! The framed inputs go through [`frame_snapshot`] / a recomputed WAL frame
//! so that the checksum accepts them and the mutation reaches the payload
//! decoders instead of stopping at the CRC.

use crate::codec::crc32;
use crate::snapshot::{
    decode_snapshot, encode_snapshot, frame_snapshot, unframe_snapshot, PendingState, SnapshotState,
};
use crate::wal::{
    decode_wal, DocRecord, Durability, StreamRecord, TermRecord, TickRecord, WalWriter, WAL_MAGIC,
    WAL_VERSION,
};
use proptest::prelude::*;
use stb_core::PatternRecord;
use stb_corpus::{CollectionBuilder, StreamId, TermId, Tokenizer};
use stb_geo::{GeoPoint, Point2D, Rect};
use stb_timeseries::TimeInterval;
use std::sync::Arc;

/// A small but complete snapshot: every section non-empty.
fn sample_snapshot() -> SnapshotState {
    let tokenizer = Tokenizer::default();
    let mut b = CollectionBuilder::new(4);
    let s0 = b.add_stream("paris", GeoPoint::new(48.85, 2.35));
    let s1 = b.add_stream("tokyo", GeoPoint::new(35.68, 139.69));
    b.add_text_document(s0, 0, "quake tremor quake", &tokenizer);
    b.add_text_document(s1, 1, "quake festival", &tokenizer);
    b.add_text_document(s0, 3, "calm waters", &tokenizer);
    SnapshotState {
        ticks_committed: 4,
        collection: Arc::new(b.build()),
        patterns: vec![(
            TermId(0),
            Arc::from([PatternRecord {
                streams: vec![StreamId(0), StreamId(1)],
                timeframe: TimeInterval { start: 0, end: 1 },
                region: Some(Rect::new(-1.0, 0.0, 2.5, 7.125)),
                score: 3.75,
            }]),
        )],
        pending: PendingState {
            structural_dirty: true,
            dirty_terms: vec![TermId(1)],
            staged: vec![DocRecord {
                stream: StreamId(1),
                counts: vec![(TermId(2), 2)],
            }],
        },
    }
}

fn sample_record(tick: u64) -> TickRecord {
    TickRecord {
        tick,
        new_streams: vec![StreamRecord {
            index: StreamId(0),
            name: "athens".to_string(),
            geostamp: GeoPoint::new(37.98, 23.72),
            position: Point2D::new(0.25, -1.5),
        }],
        new_terms: vec![TermRecord {
            id: TermId(0),
            text: "alpha".to_string(),
        }],
        docs: vec![DocRecord {
            stream: StreamId(0),
            counts: vec![(TermId(0), 3)],
        }],
    }
}

/// A two-record WAL as the writer lays it out.
fn sample_wal() -> Vec<u8> {
    let mut w = WalWriter::from_sink(Vec::new(), true, Durability::Buffered).unwrap();
    w.append(&sample_record(0)).unwrap();
    w.append(&sample_record(1)).unwrap();
    w.into_sink()
}

/// A WAL holding `payload` as its one record, framed with a valid CRC.
fn wal_with_record(payload: &[u8]) -> Vec<u8> {
    let mut bytes = WAL_MAGIC.to_vec();
    bytes.extend_from_slice(&WAL_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// Up to eight edits: `(kind, position, byte)` where kind 0 substitutes,
/// 1 inserts and 2 deletes; positions wrap around the current length.
fn arb_edits() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
    prop::collection::vec((0u8..3, 0usize..1 << 16, 0u8..=255), 1..9)
}

fn mutate(bytes: &[u8], edits: &[(u8, usize, u8)]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for &(kind, at, byte) in edits {
        match kind {
            0 if !out.is_empty() => {
                let i = at % out.len();
                out[i] = byte;
            }
            1 => out.insert(at % (out.len() + 1), byte),
            2 if !out.is_empty() => {
                out.remove(at % out.len());
            }
            _ => {}
        }
    }
    out
}

/// Every decoder entry point, on one input. Each returns `Ok` or a typed
/// `StoreError`; a panic fails the calling property.
fn decode_everything(bytes: &[u8]) {
    let _ = unframe_snapshot(bytes);
    let _ = decode_snapshot(bytes);
    let _ = decode_snapshot(unframe_snapshot(&frame_snapshot(bytes)).unwrap());
    let _ = decode_wal(bytes);
    let _ = decode_wal(&wal_with_record(bytes));
    let _ = TickRecord::decode(bytes);
}

fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=255, 0..512)
}

proptest! {
    #[test]
    fn arbitrary_bytes_decode_to_a_typed_answer(bytes in arb_bytes()) {
        decode_everything(&bytes);
    }

    #[test]
    fn mutated_snapshot_decodes_to_a_typed_answer(edits in arb_edits()) {
        let payload = encode_snapshot(&sample_snapshot());
        decode_everything(&mutate(&payload, &edits));
        // The framed file, mutated as a whole, is checked by the header
        // and checksum first.
        let file = mutate(&frame_snapshot(&payload), &edits);
        if let Ok(inner) = unframe_snapshot(&file) {
            let _ = decode_snapshot(inner);
        }
    }

    #[test]
    fn mutated_wal_decodes_to_a_typed_answer(edits in arb_edits()) {
        let _ = decode_wal(&mutate(&sample_wal(), &edits));
        let payload = sample_record(7).encode();
        decode_everything(&mutate(&payload, &edits));
    }
}

#[test]
fn unmutated_fixtures_decode() {
    let state = sample_snapshot();
    let decoded = decode_snapshot(&encode_snapshot(&state)).unwrap();
    assert_eq!(decoded.ticks_committed, state.ticks_committed);
    assert_eq!(decode_wal(&sample_wal()).unwrap().ticks.len(), 2);
    let record = sample_record(7);
    let replay = decode_wal(&wal_with_record(&record.encode())).unwrap();
    assert_eq!(replay.ticks, vec![record]);
}
