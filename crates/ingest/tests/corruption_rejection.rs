//! Corruption-rejection tests: a damaged store must fail **closed** with a
//! typed [`StoreError`] — never panic, and never silently load as an empty
//! index (which would look like a healthy engine that lost all its data).
//! The one sanctioned repair is the WAL tail: a torn *final* record is the
//! expected signature of a crash mid-append, so it is discarded and
//! recovery proceeds from the last whole record.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use stb_core::STLocalConfig;
use stb_geo::GeoPoint;
use stb_ingest::{IngestConfig, IngestPipeline, MinerKind, StoreError};
use stb_store::{flip_bit_file, truncate_file, SNAPSHOT_FILE, WAL_FILE};

fn config(ticks: usize) -> IngestConfig {
    IngestConfig {
        timeline_capacity: ticks,
        miner: MinerKind::STLocal(STLocalConfig::default()),
        ..IngestConfig::default()
    }
}

fn case_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stb-corruption-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs a 5-tick durable corpus and checkpoints it, leaving both a
/// snapshot and (after two more ticks) a non-empty WAL in `dir`.
fn seed_store(dir: &Path) {
    let (mut p, _) = IngestPipeline::durable(config(7), dir).expect("open");
    let a = p.add_stream("A", GeoPoint::new(0.0, 0.0));
    let b = p.add_stream("B", GeoPoint::new(1.0, 1.0));
    let quake = p.intern("quake");
    for tick in 0..5 {
        let f = if (2..4).contains(&tick) { 25 } else { 1 };
        p.stage_document(a, HashMap::from([(quake, f)]));
        p.stage_document(b, HashMap::from([(quake, f)]));
        p.commit_tick();
    }
    p.checkpoint().expect("checkpoint");
    for _ in 5..7 {
        p.stage_document(a, HashMap::from([(quake, 1)]));
        p.commit_tick();
    }
    assert!(p.durability_state().is_durable());
}

fn recover(dir: &Path) -> Result<(IngestPipeline, stb_ingest::RecoveryReport), StoreError> {
    IngestPipeline::durable(config(7), dir)
}

/// Overwrites byte 8 of the snapshot in `dir`: the low-order byte of the
/// version u32 that sits right after the 8-byte magic.
fn write_snapshot_version_byte(dir: &Path, version: u8) {
    let path = dir.join(SNAPSHOT_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8] = version;
    std::fs::write(&path, bytes).unwrap();
}

#[test]
fn zero_length_snapshot_is_truncated_error() {
    let dir = case_dir("zero-snap");
    seed_store(&dir);
    std::fs::write(dir.join(SNAPSHOT_FILE), []).unwrap();
    match recover(&dir).map(|_| ()) {
        Err(StoreError::Truncated { .. }) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_snapshot_header_is_truncated_error() {
    let dir = case_dir("short-snap");
    seed_store(&dir);
    truncate_file(&dir.join(SNAPSHOT_FILE), 10).unwrap();
    match recover(&dir).map(|_| ()) {
        Err(StoreError::Truncated { .. }) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_snapshot_version_is_unsupported_version() {
    let dir = case_dir("version");
    seed_store(&dir);
    write_snapshot_version_byte(&dir, 68);
    match recover(&dir).map(|_| ()) {
        Err(StoreError::UnsupportedVersion { found: 68, .. }) => {}
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_one_snapshot_is_unsupported_version() {
    // Version 1 also persisted the frequency tensor and the posting lists.
    // No store of that format is deployed, so it is refused, not migrated.
    let dir = case_dir("version-one");
    seed_store(&dir);
    write_snapshot_version_byte(&dir, 1);
    match recover(&dir).map(|_| ()) {
        Err(StoreError::UnsupportedVersion {
            found: 1,
            supported: 4,
            ..
        }) => {}
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_two_snapshot_is_unsupported_version() {
    // Version 2 also persisted the pending "timeline grew" flag of live
    // `STComb` mining. No store of that format is deployed, so it is
    // refused, not migrated.
    let dir = case_dir("version-two");
    seed_store(&dir);
    write_snapshot_version_byte(&dir, 2);
    match recover(&dir).map(|_| ()) {
        Err(StoreError::UnsupportedVersion {
            found: 2,
            supported: 4,
            ..
        }) => {}
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_three_snapshot_is_unsupported_version() {
    // Version 3 also persisted every stream's total term occurrences per
    // timestamp. No store of that format is deployed, so it is refused,
    // not migrated.
    let dir = case_dir("version-three");
    seed_store(&dir);
    write_snapshot_version_byte(&dir, 3);
    match recover(&dir).map(|_| ()) {
        Err(StoreError::UnsupportedVersion {
            found: 3,
            supported: 4,
            ..
        }) => {}
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_snapshot_magic_is_bad_magic() {
    let dir = case_dir("magic");
    seed_store(&dir);
    flip_bit_file(&dir.join(SNAPSHOT_FILE), 0, 0).unwrap();
    match recover(&dir).map(|_| ()) {
        Err(StoreError::BadMagic { .. }) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_snapshot_payload_bit_is_checksum_mismatch() {
    let dir = case_dir("payload-bit");
    seed_store(&dir);
    let path = dir.join(SNAPSHOT_FILE);
    let len = std::fs::metadata(&path).unwrap().len();
    // Flip a bit in the middle of the payload (past the 24-byte header).
    flip_bit_file(&path, 24 + (len - 24) / 2, 3).unwrap();
    match recover(&dir).map(|_| ()) {
        Err(StoreError::ChecksumMismatch { .. }) => {}
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshot_never_loads_as_empty_index() {
    // The "fail closed" property stated directly: corruption is an error,
    // not a quietly empty pipeline a caller could mistake for real state.
    let dir = case_dir("fail-closed");
    seed_store(&dir);
    let path = dir.join(SNAPSHOT_FILE);
    for (tag, damage) in [
        (
            "truncate",
            Box::new(|p: &Path| truncate_file(p, 30).unwrap()) as Box<dyn Fn(&Path)>,
        ),
        (
            "bitflip",
            Box::new(|p: &Path| flip_bit_file(p, 40, 1).unwrap()),
        ),
    ] {
        let clean = std::fs::read(&path).unwrap();
        damage(&path);
        let result = recover(&dir);
        assert!(result.is_err(), "{tag}: corrupt snapshot must not recover");
        std::fs::write(&path, clean).unwrap();
    }
    // Restored clean bytes recover fine — the directory itself is sound.
    let (p, report) = recover(&dir).expect("clean recovery");
    assert!(report.snapshot_loaded);
    assert_eq!(p.ticks_committed(), 7);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_wal_magic_is_bad_magic() {
    let dir = case_dir("wal-magic");
    seed_store(&dir);
    flip_bit_file(&dir.join(WAL_FILE), 0, 0).unwrap();
    match recover(&dir).map(|_| ()) {
        Err(StoreError::BadMagic { .. }) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_tail_truncation_recovers_to_last_whole_record() {
    let dir = case_dir("wal-tail");
    seed_store(&dir);
    // The WAL holds ticks 5 and 6 (the checkpoint truncated ticks 0..5).
    // Chop one byte off the end: tick 6's record is torn, tick 5 survives.
    let path = dir.join(WAL_FILE);
    let len = std::fs::metadata(&path).unwrap().len();
    truncate_file(&path, len - 1).unwrap();
    let (p, report) = recover(&dir).expect("tail repair");
    assert!(report.snapshot_loaded);
    assert_eq!(report.snapshot_ticks, 5);
    assert_eq!(
        report.wal_ticks_replayed, 1,
        "tick 5 replays, tick 6 is torn"
    );
    assert!(report.wal_bytes_discarded > 0);
    assert_eq!(p.ticks_committed(), 6);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_truncated_to_header_recovers_snapshot_only() {
    let dir = case_dir("wal-header");
    seed_store(&dir);
    truncate_file(&dir.join(WAL_FILE), stb_store::WAL_HEADER_LEN).unwrap();
    let (p, report) = recover(&dir).expect("snapshot-only recovery");
    assert!(report.snapshot_loaded);
    assert_eq!(report.wal_ticks_replayed, 0);
    assert_eq!(p.ticks_committed(), 5);
    let _ = std::fs::remove_dir_all(&dir);
}
