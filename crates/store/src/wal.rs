//! Write-ahead log: length-prefixed, CRC-framed tick records.
//!
//! The ingestion pipeline appends one [`TickRecord`] to the log *before*
//! applying each committed tick, so that after a crash the sequence
//! `load_snapshot + replay_wal` reproduces exactly the committed state.
//!
//! # On-disk format
//!
//! ```text
//! header:  "STBWAL00" (8 bytes)  version: u32 LE          (12 bytes)
//! record:  len: u32 LE  crc: u32 LE  payload: len bytes   (repeated)
//! ```
//!
//! `crc` is the CRC32 of the payload. A record whose frame runs past the
//! end of the file, whose length prefix is implausible, or whose checksum
//! does not match is treated as a *torn tail*: it and everything after it
//! are discarded ([`WalReplay::discarded_bytes`]), and the writer truncates
//! the file back to the last whole record before appending again. A record
//! that passes its checksum but decodes to garbage is *corruption*, not a
//! crash artifact, and is a hard [`StoreError`].
//!
//! # Durability
//!
//! [`Durability::Buffered`] flushes userspace buffers after each append and
//! lets the OS schedule the disk write — cheap, and loses at most the
//! records the OS had not yet persisted. [`Durability::Fsync`] additionally
//! calls `fdatasync` after each append — each committed tick survives a
//! power loss at the cost of one disk round trip per commit.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use stb_corpus::{StreamId, TermId};
use stb_geo::{GeoPoint, Point2D};
use stb_obs::{Counter, LatencyHistogram, ObsRegistry};

use crate::codec::{crc32, Dec, Enc};
use crate::error::StoreError;
use crate::fault::{FaultSchedule, FaultSite};

/// The WAL file magic number.
pub(crate) const WAL_MAGIC: [u8; 8] = *b"STBWAL00";
/// The single WAL format version this build reads and writes.
pub(crate) const WAL_VERSION: u32 = 1;
/// Size of the WAL header in bytes (magic + version).
pub const WAL_HEADER_LEN: u64 = 12;

/// When the WAL forces its appends to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Flush userspace buffers after each append; the OS schedules the
    /// physical write. A crash of the *process* loses nothing; a crash of
    /// the *machine* may lose the most recent ticks.
    #[default]
    Buffered,
    /// `fdatasync` after each append: every committed tick survives power
    /// loss, at the cost of a disk round trip per commit.
    Fsync,
}

/// A stream that first appeared during a tick.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRecord {
    /// The stream's dense index (equals the collection's stream count at
    /// the moment it was added).
    pub index: StreamId,
    /// Human-readable stream name.
    pub name: String,
    /// Geographic location.
    pub geostamp: GeoPoint,
    /// Planar position used by regional mining.
    pub position: Point2D,
}

/// A term string that was first interned during a tick.
#[derive(Debug, Clone, PartialEq)]
pub struct TermRecord {
    /// The dense id the dictionary assigned.
    pub id: TermId,
    /// The term string.
    pub text: String,
}

/// One document staged within a tick: its stream of origin and term
/// counts, sorted by term id for deterministic bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct DocRecord {
    /// Stream of origin.
    pub stream: StreamId,
    /// Term counts, sorted by term id.
    pub counts: Vec<(TermId, u32)>,
}

/// Everything one `commit_tick` call changed, in replayable form.
#[derive(Debug, Clone, PartialEq)]
pub struct TickRecord {
    /// The tick index this record commits (0-based; must follow the
    /// previous record's tick without gaps).
    pub tick: u64,
    /// Streams added since the previous record, in registration order.
    pub new_streams: Vec<StreamRecord>,
    /// Terms interned since the previous record, in id order.
    pub new_terms: Vec<TermRecord>,
    /// Documents committed by this tick, in arrival order.
    pub docs: Vec<DocRecord>,
}

impl TickRecord {
    /// Encodes the record payload (without the frame).
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.put_u64(self.tick);
        e.put_u32(self.new_streams.len() as u32);
        for s in &self.new_streams {
            e.put_u32(s.index.0);
            e.put_str(&s.name);
            e.put_f64(s.geostamp.lat);
            e.put_f64(s.geostamp.lon);
            e.put_f64(s.position.x);
            e.put_f64(s.position.y);
        }
        e.put_u32(self.new_terms.len() as u32);
        for t in &self.new_terms {
            e.put_u32(t.id.0);
            e.put_str(&t.text);
        }
        e.put_u32(self.docs.len() as u32);
        for d in &self.docs {
            e.put_u32(d.stream.0);
            e.put_u32(d.counts.len() as u32);
            for &(term, count) in &d.counts {
                e.put_u32(term.0);
                e.put_u32(count);
            }
        }
        e.into_bytes()
    }

    /// Decodes a record payload. The payload must already have passed its
    /// frame checksum; a decode failure here means real corruption.
    pub(crate) fn decode(payload: &[u8]) -> Result<Self, StoreError> {
        let mut d = Dec::new(payload, "wal record");
        let tick = d.get_u64()?;
        let n_streams = d.get_count(4)?;
        let mut new_streams = Vec::with_capacity(n_streams);
        for _ in 0..n_streams {
            let index = StreamId(d.get_u32()?);
            let name = d.get_str()?;
            let lat = d.get_f64()?;
            let lon = d.get_f64()?;
            let x = d.get_f64()?;
            let y = d.get_f64()?;
            new_streams.push(StreamRecord {
                index,
                name,
                geostamp: GeoPoint { lat, lon },
                position: Point2D { x, y },
            });
        }
        let n_terms = d.get_count(4)?;
        let mut new_terms = Vec::with_capacity(n_terms);
        for _ in 0..n_terms {
            let id = TermId(d.get_u32()?);
            let text = d.get_str()?;
            new_terms.push(TermRecord { id, text });
        }
        let n_docs = d.get_count(4)?;
        let mut docs = Vec::with_capacity(n_docs);
        for _ in 0..n_docs {
            let stream = StreamId(d.get_u32()?);
            let n_counts = d.get_count(8)?;
            let mut counts = Vec::with_capacity(n_counts);
            for _ in 0..n_counts {
                let term = TermId(d.get_u32()?);
                let count = d.get_u32()?;
                counts.push((term, count));
            }
            docs.push(DocRecord { stream, counts });
        }
        if !d.is_empty() {
            return Err(StoreError::corrupt(
                "wal record",
                format!("{} trailing bytes after record", d.remaining()),
            ));
        }
        Ok(TickRecord {
            tick,
            new_streams,
            new_terms,
            docs,
        })
    }
}

/// The result of reading a WAL: every whole record, plus how much of the
/// file was valid and how many torn-tail bytes were discarded.
#[derive(Debug, Clone, PartialEq)]
pub struct WalReplay {
    /// Every complete, checksum-valid record, in file order.
    pub ticks: Vec<TickRecord>,
    /// File offset just past the last whole record (or past the header if
    /// there are none; 0 if even the header was torn). The writer truncates
    /// the file to this length before appending.
    pub valid_len: u64,
    /// Bytes after `valid_len` that were discarded as a torn tail.
    pub discarded_bytes: u64,
}

impl WalReplay {
    /// An empty replay for a WAL file that does not exist yet.
    pub(crate) fn empty() -> Self {
        WalReplay {
            ticks: Vec::new(),
            valid_len: 0,
            discarded_bytes: 0,
        }
    }
}

/// Decodes the full contents of a WAL file.
///
/// Crash artifacts — a torn header, a record frame that runs past the end
/// of the file, a checksum mismatch — are repaired by discarding the tail
/// from the first invalid record onward. Corruption that cannot be a crash
/// artifact (a foreign magic number, an unsupported version, a
/// checksum-valid record that decodes to garbage) is a hard error.
pub(crate) fn decode_wal(bytes: &[u8]) -> Result<WalReplay, StoreError> {
    if bytes.is_empty() {
        // Crash before the header was written: recover as a fresh log.
        return Ok(WalReplay::empty());
    }
    let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
    header.extend_from_slice(&WAL_MAGIC);
    header.extend_from_slice(&WAL_VERSION.to_le_bytes());
    if bytes.len() < header.len() {
        if header.starts_with(bytes) {
            // Torn header write: discard and start over.
            return Ok(WalReplay {
                ticks: Vec::new(),
                valid_len: 0,
                discarded_bytes: bytes.len() as u64,
            });
        }
        let mut found = [0u8; 8];
        let n = bytes.len().min(8);
        found[..n].copy_from_slice(&bytes[..n]);
        return Err(StoreError::BadMagic { what: "wal", found });
    }
    if bytes[..8] != WAL_MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(&bytes[..8]);
        return Err(StoreError::BadMagic { what: "wal", found });
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != WAL_VERSION {
        return Err(StoreError::UnsupportedVersion {
            what: "wal",
            found: version,
            supported: WAL_VERSION,
        });
    }
    let mut ticks = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            break;
        }
        if remaining < 8 {
            // Torn frame header.
            break;
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        let crc = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        if len == 0 || remaining - 8 < len {
            // A zero or implausible length prefix: torn or zero-filled tail.
            break;
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            // Torn payload (or a bit flip in the tail): discard from here.
            break;
        }
        ticks.push(TickRecord::decode(payload)?);
        pos += 8 + len;
    }
    Ok(WalReplay {
        ticks,
        valid_len: pos as u64,
        discarded_bytes: (bytes.len() - pos) as u64,
    })
}

/// Reads and decodes a WAL file from disk. A missing file is an empty
/// replay, not an error.
pub(crate) fn read_wal(path: &Path) -> Result<WalReplay, StoreError> {
    match std::fs::read(path) {
        Ok(bytes) => decode_wal(&bytes),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(WalReplay::empty()),
        Err(e) => Err(e.into()),
    }
}

/// A writer that can force its bytes to stable storage. The default
/// implementation only flushes userspace buffers — suitable for in-memory
/// sinks; file-backed sinks override it with `fdatasync`.
pub trait SyncWrite: Write {
    /// Forces previously written bytes toward stable storage.
    fn sync(&mut self) -> io::Result<()> {
        self.flush()
    }

    /// Truncates the sink back to `len` bytes and repositions the write
    /// cursor there — the rollback primitive [`WalWriter::append`] uses so
    /// a failed append leaves neither a torn prefix (which would garble
    /// every retried record behind it) nor an unacknowledged whole frame
    /// (which a retry would duplicate). Sinks that cannot rewind report
    /// `Unsupported`; the writer then poisons itself instead of guessing.
    fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        let _ = len;
        Err(io::Error::from(io::ErrorKind::Unsupported))
    }
}

impl SyncWrite for File {
    fn sync(&mut self) -> io::Result<()> {
        self.flush()?;
        self.sync_data()
    }

    fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        self.set_len(len)?;
        self.seek(SeekFrom::Start(len)).map(|_| ())
    }
}

impl SyncWrite for Vec<u8> {
    fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        self.truncate(len as usize);
        Ok(())
    }
}

/// Where a failed append can rewind to. See [`WalWriter::append`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rollback {
    /// End offset of the last acknowledged frame: failures truncate back
    /// here, so a bounded retry re-appends onto a clean tail.
    Known(u64),
    /// The sink's absolute length is unknown (a bare
    /// [`WalWriter::from_sink`] not at the start): appends work, but the
    /// first failure poisons the writer instead of rolling back.
    Unsupported,
    /// A rollback failed (or was impossible) after a failed append: the
    /// tail is unknowable, and the writer refuses to stack frames on top
    /// of it ([`StoreError::WalClosed`]).
    Poisoned,
}

/// Observability cells for one WAL writer: append/fsync latency
/// histograms and counters for the rare recovery-path events
/// (rollbacks after a failed append, resets after a snapshot).
///
/// The cells are shared `Arc`s registered in an
/// [`ObsRegistry`], so several writers (or a
/// writer recreated across re-opens) can feed the same series. Cloning
/// is cheap and shares the underlying cells. Recording is a handful of
/// relaxed atomic ops per append; an un-attached writer
/// ([`WalWriter::set_obs`] never called) pays only an `Option` check.
#[derive(Debug, Clone)]
pub struct WalObs {
    append_ns: Arc<LatencyHistogram>,
    fsync_ns: Arc<LatencyHistogram>,
    appends: Arc<Counter>,
    append_errors: Arc<Counter>,
    rollbacks: Arc<Counter>,
    resets: Arc<Counter>,
}

impl WalObs {
    /// Creates (or re-binds to) the WAL metric family in `registry`:
    /// `wal_append_ns` / `wal_fsync_ns` histograms and
    /// `wal_appends_total` / `wal_append_errors_total` /
    /// `wal_rollbacks_total` / `wal_resets_total` counters.
    pub fn register(registry: &ObsRegistry) -> Self {
        WalObs {
            append_ns: registry.histogram("wal_append_ns"),
            fsync_ns: registry.histogram("wal_fsync_ns"),
            appends: registry.counter("wal_appends_total"),
            append_errors: registry.counter("wal_append_errors_total"),
            rollbacks: registry.counter("wal_rollbacks_total"),
            resets: registry.counter("wal_resets_total"),
        }
    }
}

/// An append-only WAL writer over any [`SyncWrite`] sink.
///
/// File-backed writers are obtained from
/// [`WalWriter::open`], which repairs a torn tail (truncating
/// back to the last whole record) before the first append. In-memory
/// writers (`WalWriter::from_sink`) serve tests and fault injection.
/// Failed appends roll the sink back to the last acknowledged frame so
/// bounded retries are always safe; see [`WalWriter::append`].
#[derive(Debug)]
pub struct WalWriter<W: SyncWrite = File> {
    sink: W,
    durability: Durability,
    faults: Option<FaultSchedule>,
    rollback: Rollback,
    obs: Option<WalObs>,
}

impl<W: SyncWrite> WalWriter<W> {
    /// Wraps a sink that is positioned at the end of a valid WAL prefix
    /// (or at zero, in which case the header is written first).
    pub(crate) fn from_sink(
        mut sink: W,
        at_start: bool,
        durability: Durability,
    ) -> io::Result<Self> {
        if at_start {
            sink.write_all(&WAL_MAGIC)?;
            sink.write_all(&WAL_VERSION.to_le_bytes())?;
            sink.flush()?;
        }
        Ok(WalWriter {
            sink,
            durability,
            faults: None,
            rollback: if at_start {
                Rollback::Known(WAL_HEADER_LEN)
            } else {
                Rollback::Unsupported
            },
            obs: None,
        })
    }

    /// Attaches a chaos-harness fault schedule: every append, sync, and
    /// reset consults it before touching the sink.
    #[cfg(test)]
    pub(crate) fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attaches observability cells: appends and syncs feed the
    /// latency histograms, and rollback/reset events the counters.
    /// Without this the writer records nothing.
    pub fn set_obs(&mut self, obs: WalObs) {
        self.obs = Some(obs);
    }

    /// Builder-style [`WalWriter::set_obs`].
    #[cfg(test)]
    pub(crate) fn with_obs(mut self, obs: WalObs) -> Self {
        self.set_obs(obs);
        self
    }

    /// Appends one framed record and applies the durability policy.
    ///
    /// **Failure atomicity:** on any error the writer rewinds the sink to
    /// the end of the last acknowledged frame (via
    /// [`SyncWrite::truncate_to`]), so retrying the append is always safe
    /// — a failed attempt leaves neither a torn prefix nor an
    /// unacknowledged duplicate behind. If the rewind itself fails the
    /// writer is *poisoned*: every further append returns
    /// [`StoreError::WalClosed`] and the caller must re-open the log (which
    /// truncates to the verified prefix).
    ///
    /// With a fault schedule attached, an injected [`FaultSite::WalAppend`]
    /// fault first persists a *partial* frame (the torn tail a crashed
    /// write leaves behind, immediately rolled back as above), and an
    /// injected [`FaultSite::WalSync`] fault fails the durability step
    /// *after* the full frame was written — the ambiguity real `fsync`
    /// failures create.
    pub fn append(&mut self, record: &TickRecord) -> Result<(), StoreError> {
        if self.rollback == Rollback::Poisoned {
            return Err(StoreError::WalClosed);
        }
        let started = self.obs.as_ref().map(|_| Instant::now());
        let payload = record.encode();
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        match self.write_frame(&frame) {
            Ok(()) => {
                if let Rollback::Known(end) = &mut self.rollback {
                    *end += frame.len() as u64;
                }
                if let (Some(obs), Some(t)) = (&self.obs, started) {
                    obs.appends.inc();
                    obs.append_ns.record_duration(t.elapsed());
                }
                Ok(())
            }
            Err(e) => {
                // Rewind to the last acknowledged frame. Without this, a
                // bounded retry would stack its frame on top of a torn
                // prefix — garbling this and every later record — or, after
                // a post-write sync failure, append a second copy of an
                // already-persisted frame and duplicate the tick.
                let rewound = match self.rollback {
                    Rollback::Known(end) if self.sink.truncate_to(end).is_ok() => {
                        self.rollback = Rollback::Known(end);
                        true
                    }
                    _ => {
                        self.rollback = Rollback::Poisoned;
                        false
                    }
                };
                if let Some(obs) = &self.obs {
                    obs.append_errors.inc();
                    if rewound {
                        obs.rollbacks.inc();
                    }
                }
                Err(e)
            }
        }
    }

    /// The fallible tail of [`WalWriter::append`]: everything that can
    /// leave the sink in a state the caller must roll back.
    fn write_frame(&mut self, frame: &[u8]) -> Result<(), StoreError> {
        if let Some(f) = self
            .faults
            .as_ref()
            .and_then(|s| s.check(FaultSite::WalAppend))
        {
            if let Some(n) = f.partial_bytes {
                // Persist a prefix of the frame before failing: the torn
                // tail a crashed write leaves behind.
                let n = n.min(frame.len());
                self.sink.write_all(&frame[..n])?;
                self.sink.flush()?;
            }
            return Err(f.to_io_error().into());
        }
        self.sink.write_all(frame)?;
        if let Some(s) = &self.faults {
            s.check_io(FaultSite::WalSync)?;
        }
        match self.durability {
            Durability::Buffered => self.sink.flush()?,
            Durability::Fsync => {
                let started = self.obs.as_ref().map(|_| Instant::now());
                self.sink.sync()?;
                if let (Some(obs), Some(t)) = (&self.obs, started) {
                    obs.fsync_ns.record_duration(t.elapsed());
                }
            }
        }
        Ok(())
    }

    /// Consumes the writer, returning the sink (tests inspect the bytes).
    #[cfg(test)]
    pub(crate) fn into_sink(self) -> W {
        self.sink
    }
}

impl WalWriter<File> {
    /// Opens (or creates) the WAL file at `path` for appending.
    ///
    /// `valid_len` is the verified length from `read_wal`; anything after
    /// it is a torn tail and is truncated away before the first append. A
    /// `valid_len` of zero (fresh or torn-header file) rewrites the header.
    pub fn open(path: &Path, valid_len: u64, durability: Durability) -> Result<Self, StoreError> {
        Self::open_with_faults(path, valid_len, durability, None)
    }

    /// [`WalWriter::open`] with an optional fault schedule consulted at
    /// [`FaultSite::WalOpen`] (and attached to the writer for its
    /// appends).
    pub(crate) fn open_with_faults(
        path: &Path,
        valid_len: u64,
        durability: Durability,
        faults: Option<FaultSchedule>,
    ) -> Result<Self, StoreError> {
        if let Some(s) = &faults {
            s.check_io(FaultSite::WalOpen)?;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::Start(valid_len))?;
        let at_start = valid_len == 0;
        let mut writer = WalWriter::from_sink(file, at_start, durability)?;
        if at_start {
            writer.sink.sync_data()?;
            // A freshly created file is only durable once its directory
            // entry is: fsync the parent, as the snapshot writer does after
            // its rename, so a power loss cannot drop the whole log even
            // though every append was synced.
            if let Some(s) = &faults {
                s.check_io(FaultSite::DirSync)?;
            }
            if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                File::open(dir)?.sync_all()?;
            }
        }
        writer.faults = faults;
        writer.rollback = Rollback::Known(valid_len.max(WAL_HEADER_LEN));
        Ok(writer)
    }

    /// Truncates the log back to just its header — called after a snapshot
    /// has been durably written, so recovery never replays ticks the
    /// snapshot already contains.
    pub fn reset(&mut self) -> Result<(), StoreError> {
        if let Some(s) = &self.faults {
            // Checked before any mutation, so a retry after an injected
            // reset fault starts from an untouched sink.
            s.check_io(FaultSite::WalReset)?;
        }
        let result = (|| -> io::Result<()> {
            self.sink.set_len(WAL_HEADER_LEN)?;
            self.sink.seek(SeekFrom::Start(WAL_HEADER_LEN))?;
            self.sink.sync_data()
        })();
        match result {
            Ok(()) => {
                self.rollback = Rollback::Known(WAL_HEADER_LEN);
                if let Some(obs) = &self.obs {
                    obs.resets.inc();
                }
                Ok(())
            }
            Err(e) => {
                // A real truncation failure mid-way leaves the length and
                // cursor unknowable: poison rather than guess.
                self.rollback = Rollback::Poisoned;
                Err(e.into())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(tick: u64) -> TickRecord {
        TickRecord {
            tick,
            new_streams: vec![StreamRecord {
                index: StreamId(2),
                name: "athens".to_string(),
                geostamp: GeoPoint {
                    lat: 37.98,
                    lon: 23.72,
                },
                position: Point2D { x: 0.25, y: -1.5 },
            }],
            new_terms: vec![
                TermRecord {
                    id: TermId(0),
                    text: "alpha".to_string(),
                },
                TermRecord {
                    id: TermId(1),
                    text: "βeta".to_string(),
                },
            ],
            docs: vec![DocRecord {
                stream: StreamId(0),
                counts: vec![(TermId(0), 3), (TermId(1), 1)],
            }],
        }
    }

    #[test]
    fn tick_record_round_trip() {
        let record = sample_record(7);
        let decoded = TickRecord::decode(&record.encode()).unwrap();
        assert_eq!(decoded, record);
    }

    #[test]
    fn empty_tick_record_round_trip() {
        let record = TickRecord {
            tick: 0,
            new_streams: Vec::new(),
            new_terms: Vec::new(),
            docs: Vec::new(),
        };
        assert_eq!(TickRecord::decode(&record.encode()).unwrap(), record);
    }

    #[test]
    fn trailing_bytes_are_corrupt() {
        let mut payload = sample_record(1).encode();
        payload.push(0);
        assert!(matches!(
            TickRecord::decode(&payload),
            Err(StoreError::Corrupt { .. })
        ));
    }

    fn wal_bytes(records: &[TickRecord]) -> Vec<u8> {
        let mut w = WalWriter::from_sink(Vec::new(), true, Durability::Buffered).unwrap();
        for r in records {
            w.append(r).unwrap();
        }
        w.into_sink()
    }

    #[test]
    fn wal_round_trip() {
        let records = vec![sample_record(0), sample_record(1), sample_record(2)];
        let bytes = wal_bytes(&records);
        let replay = decode_wal(&bytes).unwrap();
        assert_eq!(replay.ticks, records);
        assert_eq!(replay.valid_len, bytes.len() as u64);
        assert_eq!(replay.discarded_bytes, 0);
    }

    #[test]
    fn obs_records_appends_fsyncs_rollbacks_and_resets() {
        let registry = ObsRegistry::new();
        let obs = WalObs::register(&registry);
        let faults = FaultSchedule::new();
        let mut w = WalWriter::from_sink(Vec::new(), true, Durability::Fsync)
            .unwrap()
            .with_faults(faults.clone())
            .with_obs(obs.clone());

        w.append(&sample_record(0)).unwrap();
        w.append(&sample_record(1)).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("wal_appends_total"), Some(2));
        assert_eq!(snap.histogram("wal_append_ns").map(|h| h.count()), Some(2));
        // Two per-append fsyncs (Durability::Fsync).
        assert_eq!(snap.histogram("wal_fsync_ns").map(|h| h.count()), Some(2));

        // A failed append is rolled back and counted, then a retry lands.
        faults.fail_next_at(FaultSite::WalAppend, InjectedFault::transient());
        assert!(w.append(&sample_record(2)).is_err());
        w.append(&sample_record(2)).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("wal_append_errors_total"), Some(1));
        assert_eq!(snap.counter("wal_appends_total"), Some(3));
        assert_eq!(snap.counter("wal_rollbacks_total"), Some(1));
        assert_eq!(snap.histogram("wal_append_ns").map(|h| h.count()), Some(3));
    }

    #[test]
    fn obs_counts_resets() {
        let dir = std::env::temp_dir().join(format!("stb-wal-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.stb");
        let registry = ObsRegistry::new();
        let obs = WalObs::register(&registry);
        let mut w = WalWriter::open(&path, 0, Durability::Buffered)
            .unwrap()
            .with_obs(obs.clone());
        w.append(&sample_record(0)).unwrap();
        w.reset().unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("wal_resets_total"), Some(1));
        assert_eq!(snap.counter("wal_appends_total"), Some(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_and_header_only_wals() {
        assert_eq!(decode_wal(&[]).unwrap(), WalReplay::empty());
        let bytes = wal_bytes(&[]);
        let replay = decode_wal(&bytes).unwrap();
        assert!(replay.ticks.is_empty());
        assert_eq!(replay.valid_len, WAL_HEADER_LEN);
    }

    #[test]
    fn torn_header_recovers_to_empty() {
        let bytes = wal_bytes(&[]);
        for cut in 1..bytes.len() {
            let replay = decode_wal(&bytes[..cut]).unwrap();
            assert!(replay.ticks.is_empty());
            assert_eq!(replay.valid_len, 0, "cut at {cut}");
            assert_eq!(replay.discarded_bytes, cut as u64);
        }
    }

    #[test]
    fn torn_tail_recovers_to_last_whole_record() {
        let records = vec![sample_record(0), sample_record(1)];
        let bytes = wal_bytes(&records);
        let one = wal_bytes(&records[..1]);
        // Cut anywhere strictly inside the second record's frame.
        for cut in one.len() + 1..bytes.len() {
            let replay = decode_wal(&bytes[..cut]).unwrap();
            assert_eq!(replay.ticks, records[..1], "cut at {cut}");
            assert_eq!(replay.valid_len, one.len() as u64);
            assert_eq!(replay.discarded_bytes, (cut - one.len()) as u64);
        }
    }

    #[test]
    fn bit_flip_in_payload_discards_tail() {
        let records = vec![sample_record(0), sample_record(1)];
        let bytes = wal_bytes(&records);
        let one = wal_bytes(&records[..1]);
        let mut corrupted = bytes.clone();
        // Flip a bit in the second record's payload.
        corrupted[one.len() + 10] ^= 0x40;
        let replay = decode_wal(&corrupted).unwrap();
        assert_eq!(replay.ticks, records[..1]);
        assert_eq!(replay.valid_len, one.len() as u64);
    }

    #[test]
    fn foreign_magic_is_a_hard_error() {
        let mut bytes = wal_bytes(&[sample_record(0)]);
        bytes[0] = b'X';
        assert!(matches!(
            decode_wal(&bytes),
            Err(StoreError::BadMagic { what: "wal", .. })
        ));
    }

    #[test]
    fn wrong_version_is_a_hard_error() {
        let mut bytes = wal_bytes(&[]);
        bytes[8] = 9;
        assert!(matches!(
            decode_wal(&bytes),
            Err(StoreError::UnsupportedVersion {
                what: "wal",
                found: 9,
                supported: WAL_VERSION,
            })
        ));
    }

    #[test]
    fn zero_filled_tail_is_discarded() {
        let records = vec![sample_record(0)];
        let mut bytes = wal_bytes(&records);
        let valid = bytes.len();
        bytes.extend_from_slice(&[0u8; 64]);
        let replay = decode_wal(&bytes).unwrap();
        assert_eq!(replay.ticks, records);
        assert_eq!(replay.valid_len, valid as u64);
        assert_eq!(replay.discarded_bytes, 64);
    }

    #[test]
    fn file_writer_repairs_torn_tail_and_appends() {
        let dir = std::env::temp_dir().join(format!("stb-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.stb");
        // Write two records, then tear the second.
        let records = vec![sample_record(0), sample_record(1)];
        let bytes = wal_bytes(&records);
        let one = wal_bytes(&records[..1]);
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let replay = read_wal(&path).unwrap();
        assert_eq!(replay.ticks, records[..1]);
        // Re-open at the valid prefix and append a fresh record.
        let mut w = WalWriter::open(&path, replay.valid_len, Durability::Fsync).unwrap();
        w.append(&sample_record(1)).unwrap();
        let replay = read_wal(&path).unwrap();
        assert_eq!(replay.ticks, records);
        assert_eq!(
            replay.valid_len,
            one.len() as u64 + (bytes.len() - one.len()) as u64
        );
        // Reset truncates back to the header.
        w.reset().unwrap();
        let replay = read_wal(&path).unwrap();
        assert!(replay.ticks.is_empty());
        assert_eq!(replay.valid_len, WAL_HEADER_LEN);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    use crate::fault::{FaultSchedule, FaultSite, InjectedFault};

    #[test]
    fn failed_append_rolls_back_so_retry_is_clean() {
        let faults = FaultSchedule::new();
        let mut w = WalWriter::from_sink(Vec::new(), true, Durability::Buffered)
            .unwrap()
            .with_faults(faults.clone());
        let record = sample_record(0);

        // A torn partial write: without rollback, the retried frame would
        // land on top of the torn prefix and garble the whole tail.
        faults.fail_next_at(FaultSite::WalAppend, InjectedFault::torn(5));
        assert!(w.append(&record).is_err());
        assert!(w.append(&record).is_ok(), "retry after rollback");

        // A sync failure after the full frame was written: without
        // rollback, the retry would persist a duplicate of the frame.
        let next = sample_record(1);
        faults.fail_next_at(FaultSite::WalSync, InjectedFault::transient());
        assert!(w.append(&next).is_err());
        assert!(w.append(&next).is_ok(), "retry after sync rollback");

        let replay = decode_wal(&w.into_sink()).unwrap();
        let ticks: Vec<u64> = replay.ticks.iter().map(|t| t.tick).collect();
        assert_eq!(ticks, vec![0, 1], "exactly one copy of each record");
        assert_eq!(replay.discarded_bytes, 0, "no torn bytes survive");
    }

    #[test]
    fn file_backed_append_rollback_repairs_torn_prefix() {
        let dir = std::env::temp_dir().join(format!("stb-wal-rollback-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.stb");
        let faults = FaultSchedule::new();
        let mut w =
            WalWriter::open_with_faults(&path, 0, Durability::Buffered, Some(faults.clone()))
                .unwrap();
        faults.fail_next_at(FaultSite::WalAppend, InjectedFault::torn(7));
        assert!(w.append(&sample_record(0)).is_err());
        assert!(w.append(&sample_record(0)).is_ok());
        drop(w);
        let replay = read_wal(&path).unwrap();
        let ticks: Vec<u64> = replay.ticks.iter().map(|t| t.tick).collect();
        assert_eq!(ticks, vec![0]);
        assert_eq!(replay.discarded_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A sink whose rollback always fails: the writer must poison itself
    /// and fail fast instead of appending onto an unknowable tail.
    #[derive(Debug, Default)]
    struct NoRewind(Vec<u8>);

    impl Write for NoRewind {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    impl SyncWrite for NoRewind {}

    #[test]
    fn failed_rollback_poisons_the_writer() {
        let faults = FaultSchedule::new();
        let mut w = WalWriter::from_sink(NoRewind::default(), true, Durability::Buffered)
            .unwrap()
            .with_faults(faults.clone());
        w.append(&sample_record(0)).unwrap();
        faults.fail_next_at(FaultSite::WalAppend, InjectedFault::torn(3));
        assert!(w.append(&sample_record(1)).is_err());
        // The torn prefix could not be rewound: refuse to stack frames.
        assert!(matches!(
            w.append(&sample_record(1)),
            Err(StoreError::WalClosed)
        ));
    }
}
