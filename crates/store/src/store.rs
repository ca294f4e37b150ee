//! The on-disk layout: one directory holding a snapshot and a WAL.
//!
//! ```text
//! <dir>/snapshot.stb      last checkpoint (atomic rename target)
//! <dir>/snapshot.stb.tmp  in-flight checkpoint (ignored; overwritten)
//! <dir>/wal.stb           ticks committed since the checkpoint
//! ```
//!
//! Recovery is `load_snapshot` (absent file → fresh start) followed by
//! replaying the WAL records whose tick is not already covered by the
//! snapshot. A crash between the snapshot rename and the WAL reset leaves
//! already-snapshotted records in the log; replay skips them by tick
//! index, so the window is harmless.

use crate::error::StoreError;
use crate::fault::{FaultSchedule, FaultSite};
use crate::snapshot::{read_snapshot, write_snapshot_with_faults, SnapshotState};
use crate::wal::{read_wal, Durability, WalReplay, WalWriter};
use std::path::PathBuf;

/// Name of the snapshot file inside a store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.stb";
/// Name of the WAL file inside a store directory.
pub const WAL_FILE: &str = "wal.stb";

/// A durable store rooted at one directory.
#[derive(Debug, Clone)]
pub struct Store {
    dir: PathBuf,
    faults: Option<FaultSchedule>,
}

impl Store {
    /// Opens (creating if necessary) a store directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Store { dir, faults: None })
    }

    /// Opens a store whose every syscall site consults a chaos-harness
    /// fault schedule first. Clones of the store (and WAL writers it
    /// opens) share the same schedule.
    pub fn open_with_faults(
        dir: impl Into<PathBuf>,
        faults: FaultSchedule,
    ) -> Result<Self, StoreError> {
        let mut store = Store::open(dir)?;
        store.faults = Some(faults);
        Ok(store)
    }

    /// The store's directory.
    #[cfg(test)]
    pub(crate) fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// Path of the snapshot file.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }

    /// Path of the WAL file.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }

    /// Loads the snapshot, or `None` if none has been written yet. A
    /// present-but-invalid snapshot is an error — corruption must fail
    /// closed, never fall back to an empty index silently.
    pub fn load_snapshot(&self) -> Result<Option<SnapshotState>, StoreError> {
        if let Some(s) = &self.faults {
            s.check_io(FaultSite::SnapshotRead)?;
        }
        let path = self.snapshot_path();
        if !path.exists() {
            return Ok(None);
        }
        read_snapshot(&path).map(Some)
    }

    /// Writes a snapshot atomically (temp file + rename + directory
    /// fsync). Returns the snapshot size in bytes.
    pub fn write_snapshot(&self, state: &SnapshotState) -> Result<u64, StoreError> {
        write_snapshot_with_faults(&self.snapshot_path(), state, self.faults.as_ref())
    }

    /// Reads the WAL, repairing a torn tail. A missing file is an empty
    /// replay.
    pub fn read_wal(&self) -> Result<WalReplay, StoreError> {
        if let Some(s) = &self.faults {
            s.check_io(FaultSite::WalRead)?;
        }
        read_wal(&self.wal_path())
    }

    /// Opens the WAL for appending at `valid_len` (from
    /// [`Store::read_wal`]), truncating any torn tail.
    pub fn wal_writer(
        &self,
        valid_len: u64,
        durability: Durability,
    ) -> Result<WalWriter, StoreError> {
        WalWriter::open_with_faults(&self.wal_path(), valid_len, durability, self.faults.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::PendingState;
    use crate::wal::TickRecord;
    use stb_corpus::CollectionBuilder;
    use std::sync::Arc;

    fn temp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!("stb-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(dir).unwrap()
    }

    #[test]
    fn fresh_store_is_empty() {
        let store = temp_store("fresh");
        assert!(store.load_snapshot().unwrap().is_none());
        let replay = store.read_wal().unwrap();
        assert!(replay.ticks.is_empty());
        assert_eq!(replay.valid_len, 0);
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn snapshot_and_wal_round_trip_through_store() {
        let store = temp_store("roundtrip");
        let state = SnapshotState {
            ticks_committed: 2,
            collection: Arc::new(CollectionBuilder::new(3).build()),
            patterns: Vec::new(),
            pending: PendingState::default(),
        };
        store.write_snapshot(&state).unwrap();
        let loaded = store.load_snapshot().unwrap().unwrap();
        assert_eq!(loaded.ticks_committed, 2);

        let replay = store.read_wal().unwrap();
        let mut w = store
            .wal_writer(replay.valid_len, Durability::Buffered)
            .unwrap();
        let record = TickRecord {
            tick: 2,
            new_streams: Vec::new(),
            new_terms: Vec::new(),
            docs: Vec::new(),
        };
        w.append(&record).unwrap();
        drop(w);
        let replay = store.read_wal().unwrap();
        assert_eq!(replay.ticks, vec![record]);
        std::fs::remove_dir_all(store.dir()).unwrap();
    }
}
