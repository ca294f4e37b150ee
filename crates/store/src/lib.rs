//! Durable persistence for the spatiotemporal burstiness engine.
//!
//! The live ingestion pipeline (`stb-ingest`) keeps everything in memory;
//! this crate makes that state survive restarts and crashes:
//!
//! * [`SnapshotState`] — a versioned, checksummed binary snapshot of the
//!   pipeline's inputs (dictionary, streams, documents, per-stream totals,
//!   mined patterns with captured spatial footprints, and the pipeline's
//!   pending bookkeeping), written atomically via temp-file + rename. The
//!   frequency tensor and the posting lists are re-derived on load.
//! * [`WalWriter`] — a write-ahead log of committed ticks:
//!   length-prefixed, CRC-framed [`TickRecord`]s with a configurable
//!   [`Durability`] policy, and tail-repair on read (a torn final record
//!   is discarded, never fatal).
//! * [`Store`] — the directory layout tying the two together: recovery is
//!   `load_snapshot + replay_wal`, and a checkpoint is `write_snapshot`
//!   followed by truncating the log.
//! * Deterministic fault injection: crash artifacts ([`crash_artifact`],
//!   bit flips, truncation) for the crash-recovery proptest harness, and
//!   scripted live-error schedules ([`FaultSchedule`]) for the chaos
//!   harness.
//! * [`RetryPolicy`] — bounded exponential-backoff retry for transient
//!   store failures.
//! * A little-endian codec everything is built from; `f64`s are persisted
//!   as IEEE 754 bit patterns so recovered scores are byte-identical.
//! * [`StoreError`]: every corruption mode is a typed, matchable error.
//!   Corrupt files fail closed; they never load as an empty index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod codec;
#[cfg(test)]
mod decode_proptests;
mod error;
mod fault;
mod retry;
pub mod snapshot;
mod store;
mod wal;

pub use codec::{crc32, Enc};
pub use error::StoreError;
pub use fault::{
    crash_artifact, flip_bit_file, truncate_bytes, truncate_file, FaultError, FaultKind,
    FaultSchedule, FaultSite, InjectedFault,
};
pub use retry::RetryPolicy;
pub use snapshot::{PendingState, SnapshotState};
pub use store::{Store, SNAPSHOT_FILE, WAL_FILE};
pub use wal::{
    DocRecord, Durability, StreamRecord, SyncWrite, TermRecord, TickRecord, WalObs, WalReplay,
    WalWriter, WAL_HEADER_LEN,
};
