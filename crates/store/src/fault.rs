//! Deterministic fault injection for crash-recovery tests.
//!
//! [`FaultFile`] wraps an in-memory sink and simulates a process crash at
//! an exact global byte offset: everything up to the offset is persisted,
//! and depending on the [`FaultKind`] the rest of the interrupted write is
//! either dropped (a *short write*) or replaced with deterministic garbage
//! (a *torn write* — the disk persisted part of a sector as junk). Writes
//! after the crash point report success but go nowhere, mimicking a
//! process that keeps running against a dead disk until it is killed.
//!
//! The proptest harness in `stb-ingest` uses this the other way around:
//! it first produces the *clean* WAL/snapshot bytes, then replays them
//! through a `FaultFile` at a random offset to synthesize the exact
//! artifact a crash at that offset would have left on disk.
//!
//! The standalone helpers [`truncate_bytes`] and [`flip_bit`] (plus their
//! file-backed variants) cover the remaining corruption modes: truncation
//! at arbitrary lengths and single-bit flips.
//!
//! [`FaultSchedule`] is the chaos-harness side of the module: a cloneable,
//! scripted queue of injected errors that the store consults at every
//! syscall site ([`FaultSite`]) — WAL appends and syncs, snapshot writes,
//! renames, directory fsyncs, reads. Unlike [`FaultFile`] (which models
//! *crashes*), a schedule models a *live but misbehaving* disk: operations
//! fail with transient (`EINTR`-class) or permanent errors in a
//! deterministic order, and the process keeps running to observe how the
//! retry/degraded-mode machinery responds.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

use crate::error::StoreError;
use crate::wal::SyncWrite;

/// What happens to the write that straddles the crash offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The interrupted write stops exactly at the crash offset; nothing
    /// after it reaches the file.
    ShortWrite,
    /// The interrupted write's remainder is persisted as deterministic
    /// garbage (each byte XORed with a position-dependent mask) — the
    /// kernel got the buffer but the sector content was mangled.
    Torn,
}

/// An in-memory sink that crashes deterministically at a byte offset.
#[derive(Debug)]
pub(crate) struct FaultFile {
    written: Vec<u8>,
    crash_at: u64,
    kind: FaultKind,
    crashed: bool,
}

impl FaultFile {
    /// A sink that will crash once `crash_at` total bytes have been
    /// written.
    pub(crate) fn new(kind: FaultKind, crash_at: u64) -> Self {
        FaultFile {
            written: Vec::new(),
            crash_at,
            kind,
            crashed: false,
        }
    }

    /// The bytes that made it to "disk" — the crash artifact.
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.written
    }
}

impl Write for FaultFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.crashed {
            // The process believes the write succeeded; the disk is gone.
            return Ok(buf.len());
        }
        let pos = self.written.len() as u64;
        if pos + buf.len() as u64 <= self.crash_at {
            self.written.extend_from_slice(buf);
            return Ok(buf.len());
        }
        let keep = (self.crash_at - pos) as usize;
        self.written.extend_from_slice(&buf[..keep]);
        if self.kind == FaultKind::Torn {
            // Persist the remainder as deterministic garbage.
            for (i, &b) in buf[keep..].iter().enumerate() {
                let mask = 0xA5u8 ^ ((i as u8).wrapping_mul(31)).wrapping_add(17);
                self.written.push(b ^ mask.max(1));
            }
        }
        self.crashed = true;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl SyncWrite for FaultFile {}

/// Replays `clean` through a `FaultFile` crashing at `crash_at`,
/// returning the artifact a crash at that offset would have left. The
/// clean bytes are offered in `chunk`-sized writes so the torn-write
/// garbage stays bounded to one chunk, like a real buffered writer.
pub fn crash_artifact(clean: &[u8], kind: FaultKind, crash_at: u64, chunk: usize) -> Vec<u8> {
    let chunk = chunk.max(1);
    let mut f = FaultFile::new(kind, crash_at);
    for piece in clean.chunks(chunk) {
        // FaultFile::write is infallible (failed writes are modelled as
        // silently dropped bytes), so the Result carries no information.
        let _ = f.write_all(piece);
    }
    f.into_bytes()
}

/// The store syscall sites at which a [`FaultSchedule`] can inject errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultSite {
    /// Opening (or creating) the WAL file for appending.
    WalOpen,
    /// Writing one framed record to the WAL.
    WalAppend,
    /// Syncing the WAL (`fdatasync` under `Durability::Fsync`).
    WalSync,
    /// Truncating the WAL back to an empty header after a checkpoint.
    WalReset,
    /// Reading the WAL back during recovery.
    WalRead,
    /// Writing the snapshot bytes to the temp file.
    SnapshotWrite,
    /// Syncing the snapshot temp file before the rename.
    SnapshotSync,
    /// Renaming the snapshot temp file over the live snapshot.
    SnapshotRename,
    /// Reading the snapshot during recovery.
    SnapshotRead,
    /// Syncing the store directory after a rename or header write.
    DirSync,
}

/// Whether an injected error reads as retryable to
/// [`StoreError::is_transient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// Injected as [`io::ErrorKind::Interrupted`] — a retry may succeed.
    Transient,
    /// Injected as [`io::ErrorKind::PermissionDenied`] — retries are
    /// pointless; the policy must fail over immediately.
    Permanent,
}

/// One scripted fault: the error class plus, for write sites, how many
/// bytes of the attempted write land on disk before the error fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// The error class reported to the caller.
    pub error: FaultError,
    /// For [`FaultSite::WalAppend`]: the number of leading bytes of the
    /// frame that are persisted *before* the failure — a torn partial
    /// frame the next recovery must repair. `None` means the write fails
    /// cleanly with nothing persisted.
    pub partial_bytes: Option<usize>,
}

impl InjectedFault {
    /// A transient fault that persists nothing.
    pub fn transient() -> Self {
        InjectedFault {
            error: FaultError::Transient,
            partial_bytes: None,
        }
    }

    /// A permanent fault that persists nothing.
    pub fn permanent() -> Self {
        InjectedFault {
            error: FaultError::Permanent,
            partial_bytes: None,
        }
    }

    /// A transient fault that first persists `n` bytes of the attempted
    /// write (a torn tail for recovery to repair).
    pub fn torn(n: usize) -> Self {
        InjectedFault {
            error: FaultError::Transient,
            partial_bytes: Some(n),
        }
    }

    /// The `io::Error` this fault surfaces as.
    pub(crate) fn to_io_error(self) -> io::Error {
        match self.error {
            FaultError::Transient => {
                io::Error::new(io::ErrorKind::Interrupted, "injected transient fault")
            }
            FaultError::Permanent => {
                io::Error::new(io::ErrorKind::PermissionDenied, "injected permanent fault")
            }
        }
    }
}

#[derive(Debug, Default)]
struct ScheduleInner {
    /// Faults consumed by *any* site, in order, after per-site queues.
    /// `None` entries are explicit "this operation succeeds" slots, letting
    /// a script interleave failures and successes deterministically.
    global: VecDeque<Option<InjectedFault>>,
    /// Faults consumed only by a specific site, checked first.
    per_site: HashMap<FaultSite, VecDeque<InjectedFault>>,
}

/// A deterministic, scripted schedule of injected store faults.
///
/// Cloning shares the underlying queue (it is an `Arc`), so the same
/// schedule handed to a [`crate::Store`] can be healed or extended from
/// the test while the store runs. Every consultation is ordered: per-site
/// queues win over the global queue, and an empty schedule injects
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    inner: Arc<Mutex<ScheduleInner>>,
}

impl FaultSchedule {
    /// An empty schedule (injects nothing until primed).
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ScheduleInner> {
        // A panicking store test must not cascade into poisoned-mutex
        // noise: the schedule state is plain data, safe to keep using.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `fault` to fire on the next consultation of any site.
    #[cfg(test)]
    pub(crate) fn fail_next(&self, fault: InjectedFault) {
        self.lock().global.push_back(Some(fault));
    }

    /// Queues `fault` to fire on the next consultation of `site`
    /// specifically (checked before the global queue).
    pub fn fail_next_at(&self, site: FaultSite, fault: InjectedFault) {
        self.lock()
            .per_site
            .entry(site)
            .or_default()
            .push_back(fault);
    }

    /// Queues an explicit success slot on the global queue — the next
    /// operation is let through even if more faults are queued behind it.
    #[cfg(test)]
    pub(crate) fn succeed_next(&self) {
        self.lock().global.push_back(None);
    }

    /// Drops every queued fault: the disk is healthy again.
    pub fn heal(&self) {
        let mut inner = self.lock();
        inner.global.clear();
        inner.per_site.clear();
    }

    /// Primes a deterministic "fault storm": `n` slots on the global
    /// queue, roughly `fail_permille`/1000 of which are transient faults
    /// (the rest are success slots), position-shuffled by `seed`. Storms
    /// never queue permanent faults — they model a flaky disk, not a dead
    /// one — so a pipeline retrying through one must eventually return to
    /// durable once the storm drains.
    pub fn storm(&self, seed: u64, n: usize, fail_permille: u32) {
        let mut state = seed | 1;
        let mut inner = self.lock();
        for _ in 0..n {
            // xorshift64* — cheap, deterministic, good enough to decorrelate
            // fault positions from record boundaries.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let roll = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as u32 % 1000;
            if roll < fail_permille.min(1000) {
                inner.global.push_back(Some(InjectedFault::transient()));
            } else {
                inner.global.push_back(None);
            }
        }
    }

    /// Consults the schedule at `site`. `Some(fault)` means the operation
    /// must fail with that fault; `None` means it proceeds normally.
    pub(crate) fn check(&self, site: FaultSite) -> Option<InjectedFault> {
        let mut inner = self.lock();
        if let Some(f) = inner.per_site.get_mut(&site).and_then(VecDeque::pop_front) {
            Some(f)
        } else {
            inner.global.pop_front().flatten()
        }
    }

    /// Consults the schedule at `site` and converts a hit into an `Err`.
    /// The store's write paths call this before touching the file system.
    pub(crate) fn check_io(&self, site: FaultSite) -> io::Result<()> {
        match self.check(site) {
            Some(f) => Err(f.to_io_error()),
            None => Ok(()),
        }
    }
}

/// Truncates a byte vector to `len` (no-op if already shorter).
pub fn truncate_bytes(mut bytes: Vec<u8>, len: usize) -> Vec<u8> {
    bytes.truncate(len);
    bytes
}

/// Flips one bit of a byte slice in place.
///
/// # Panics
///
/// Panics if `byte` is out of range or `bit > 7`.
pub(crate) fn flip_bit(bytes: &mut [u8], byte: usize, bit: u8) {
    assert!(bit < 8, "bit index out of range");
    bytes[byte] ^= 1 << bit;
}

/// Truncates a file on disk to `len` bytes.
pub fn truncate_file(path: &Path, len: u64) -> Result<(), StoreError> {
    let file = std::fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.sync_data()?;
    Ok(())
}

/// Flips one bit of a file on disk.
pub fn flip_bit_file(path: &Path, byte: u64, bit: u8) -> Result<(), StoreError> {
    let mut bytes = std::fs::read(path)?;
    let idx = usize::try_from(byte)
        .ok()
        .filter(|&i| i < bytes.len())
        .ok_or_else(|| StoreError::corrupt("fault", format!("byte offset {byte} out of range")))?;
    flip_bit(&mut bytes, idx, bit);
    std::fs::write(path, &bytes)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_write_stops_at_offset() {
        let mut f = FaultFile::new(FaultKind::ShortWrite, 5);
        f.write_all(b"hello world").unwrap();
        // Later writes succeed but are dropped.
        f.write_all(b"more").unwrap();
        assert_eq!(f.into_bytes(), b"hello");
    }

    #[test]
    fn torn_write_mangles_the_remainder() {
        let mut f = FaultFile::new(FaultKind::Torn, 5);
        f.write_all(b"hello world").unwrap();
        let bytes = f.into_bytes();
        assert_eq!(&bytes[..5], b"hello");
        assert_eq!(bytes.len(), 11);
        // The tail is garbage, not the original bytes.
        assert_ne!(&bytes[5..], b" world");
    }

    #[test]
    fn torn_write_is_deterministic() {
        let a = crash_artifact(b"abcdefghij", FaultKind::Torn, 4, 3);
        let b = crash_artifact(b"abcdefghij", FaultKind::Torn, 4, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn crash_beyond_end_is_clean() {
        let artifact = crash_artifact(b"abc", FaultKind::ShortWrite, 100, 2);
        assert_eq!(artifact, b"abc");
    }

    #[test]
    fn crash_at_zero_is_empty_or_garbage_only() {
        let artifact = crash_artifact(b"abc", FaultKind::ShortWrite, 0, 8);
        assert!(artifact.is_empty());
    }

    #[test]
    fn torn_garbage_is_bounded_by_chunk() {
        let artifact = crash_artifact(&[7u8; 100], FaultKind::Torn, 10, 4);
        // Crash mid-chunk: 10 clean bytes + at most the rest of that chunk.
        assert!(artifact.len() <= 12, "len {}", artifact.len());
    }

    #[test]
    fn bit_flip_round_trip() {
        let mut bytes = vec![0u8; 4];
        flip_bit(&mut bytes, 2, 7);
        assert_eq!(bytes, vec![0, 0, 0x80, 0]);
        flip_bit(&mut bytes, 2, 7);
        assert_eq!(bytes, vec![0u8; 4]);
    }

    #[test]
    fn schedule_consumes_in_order() {
        let s = FaultSchedule::new();
        s.fail_next(InjectedFault::transient());
        s.succeed_next();
        s.fail_next(InjectedFault::permanent());
        assert_eq!(
            s.check(FaultSite::WalAppend),
            Some(InjectedFault::transient())
        );
        assert_eq!(s.check(FaultSite::WalSync), None);
        assert_eq!(
            s.check(FaultSite::SnapshotWrite),
            Some(InjectedFault::permanent())
        );
        assert_eq!(
            s.check(FaultSite::WalAppend),
            None,
            "drained schedule is clean"
        );
    }

    #[test]
    fn per_site_queue_wins_over_global() {
        let s = FaultSchedule::new();
        s.fail_next(InjectedFault::transient());
        s.fail_next_at(FaultSite::SnapshotRename, InjectedFault::permanent());
        // The rename consumes its own queue, leaving the global fault for
        // the next site that asks.
        assert_eq!(
            s.check(FaultSite::SnapshotRename),
            Some(InjectedFault::permanent())
        );
        assert_eq!(
            s.check(FaultSite::WalAppend),
            Some(InjectedFault::transient())
        );
    }

    #[test]
    fn heal_clears_everything() {
        let s = FaultSchedule::new();
        s.storm(42, 100, 500);
        s.heal();
        assert_eq!(s.check(FaultSite::WalAppend), None);
    }

    #[test]
    fn storm_is_deterministic_and_transient_only() {
        let a = FaultSchedule::new();
        let b = FaultSchedule::new();
        a.storm(7, 200, 300);
        b.storm(7, 200, 300);
        let mut hits = 0;
        for _ in 0..200 {
            let fa = a.check(FaultSite::WalAppend);
            let fb = b.check(FaultSite::WalAppend);
            assert_eq!(fa, fb, "same seed, same schedule");
            if let Some(f) = fa {
                assert_eq!(f.error, FaultError::Transient);
                hits += 1;
            }
        }
        assert!(hits > 20 && hits < 120, "storm density off: {hits}/200");
    }

    #[test]
    fn injected_errors_classify_correctly() {
        let t: StoreError = InjectedFault::transient().to_io_error().into();
        let p: StoreError = InjectedFault::permanent().to_io_error().into();
        assert!(t.is_transient());
        assert!(!p.is_transient());
    }

    #[test]
    fn clones_share_the_queue() {
        let s = FaultSchedule::new();
        let handle = s.clone();
        s.fail_next(InjectedFault::transient());
        assert!(handle.check(FaultSite::WalAppend).is_some());
        assert!(s.check(FaultSite::WalAppend).is_none());
    }

    #[test]
    fn file_helpers_work() {
        let dir = std::env::temp_dir().join(format!("stb-fault-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.bin");
        std::fs::write(&path, [0u8, 1, 2, 3]).unwrap();
        truncate_file(&path, 2).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), vec![0u8, 1]);
        flip_bit_file(&path, 1, 0).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), vec![0u8, 0]);
        assert!(flip_bit_file(&path, 99, 0).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
