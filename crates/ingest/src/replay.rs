//! Tick-by-tick replay of a TSV corpus into an [`IngestPipeline`].
//!
//! The batch TSV loader (`stb_corpus::tsv::read_collection`) materializes a
//! whole file into a [`stb_corpus::Collection`]; this module instead drives
//! the file through the live pipeline one tick at a time using the
//! streaming reader ([`stb_corpus::tsv::TsvStreamReader`]): streams come
//! online as their `S` records appear, documents are staged against their
//! timestamp's tick, and every tick of the declared timeline is committed —
//! including trailing empty ones, so the streaming miners observe the full
//! timeline exactly as a batch mining run would.
//!
//! Replay requires documents in non-decreasing timestamp order (the order
//! the TSV writer produces for any corpus that was itself built in arrival
//! order). A timestamp regression is reported as
//! [`ReplayError::OutOfOrder`] rather than silently reordering the stream.

use crate::pipeline::{IngestConfig, IngestPipeline, RecoveryReport};
use std::collections::HashMap;
use std::fmt;
use std::io::BufRead;
use std::path::Path;

use stb_corpus::tsv::{fold_counts, TsvError, TsvRecord, TsvStreamReader};
use stb_corpus::StreamId;
use stb_store::StoreError;

/// Errors produced while replaying a TSV corpus into a pipeline.
#[derive(Debug)]
pub enum ReplayError {
    /// The underlying stream could not be read or parsed.
    Tsv(TsvError),
    /// The durable store could not be opened, recovered, or written
    /// (durable replay only).
    Store(StoreError),
    /// A document's timestamp precedes an already-committed tick.
    OutOfOrder {
        /// 1-based line number of the offending record.
        line: usize,
        /// The document's timestamp.
        timestamp: usize,
        /// The first tick that is still open.
        open_tick: usize,
    },
    /// A document references a stream id with no preceding `S` record.
    UnknownStream {
        /// 1-based line number of the offending record.
        line: usize,
        /// The unresolved external stream id.
        stream: u32,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Tsv(e) => write!(f, "tsv error: {e}"),
            ReplayError::Store(e) => write!(f, "store error: {e}"),
            ReplayError::OutOfOrder {
                line,
                timestamp,
                open_tick,
            } => write!(
                f,
                "line {line}: document at timestamp {timestamp} arrived after tick \
                 {open_tick} opened (replay needs non-decreasing timestamps)"
            ),
            ReplayError::UnknownStream { line, stream } => {
                write!(
                    f,
                    "line {line}: document references unknown stream {stream}"
                )
            }
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<TsvError> for ReplayError {
    fn from(e: TsvError) -> Self {
        ReplayError::Tsv(e)
    }
}

impl From<StoreError> for ReplayError {
    fn from(e: StoreError) -> Self {
        ReplayError::Store(e)
    }
}

/// Replays a TSV corpus through a fresh [`IngestPipeline`], committing one
/// tick per timestamp of the declared timeline, and returns the pipeline
/// ready for further ingestion and querying.
///
/// `config.timeline_capacity` is raised to the file's declared timeline
/// length, so the pipeline's timeline is the file's from the first tick.
///
/// ```
/// use stb_ingest::{replay_tsv, IngestConfig, Query};
/// use std::io::Cursor;
///
/// let data = "C\t4\n\
///             S\t0\tAthens\t38.0\t23.7\t23.7\t38.0\n\
///             S\t1\tLima\t-12.0\t-77.0\t-77.0\t-12.0\n\
///             D\t0\t1\tquake:9\n\
///             D\t1\t1\tquake:1\n\
///             D\t0\t2\tquake:8\n";
/// let pipeline = replay_tsv(Cursor::new(data), IngestConfig::default()).unwrap();
/// assert_eq!(pipeline.ticks_committed(), 4); // the whole declared timeline
/// let handle = pipeline.search_handle();
/// let collection = handle.collection();
/// assert_eq!(collection.documents().len(), 3);
/// let hits = handle.query(&Query::text("quake").top_k(2)).unwrap();
/// assert!(!hits.results.is_empty());
/// ```
pub fn replay_tsv<R: BufRead>(
    input: R,
    mut config: IngestConfig,
) -> Result<IngestPipeline, ReplayError> {
    let mut reader = TsvStreamReader::new(input)?;
    config.timeline_capacity = config.timeline_capacity.max(reader.timeline_len());
    let mut pipeline = IngestPipeline::new(config);
    drive_replay(&mut reader, &mut pipeline)?;
    Ok(pipeline)
}

/// Replays a TSV corpus through a *durable* pipeline rooted at `dir` — or
/// skips the file entirely if the store already holds committed state.
///
/// On a directory whose recovered pipeline is truly empty (no committed
/// ticks, no streams or terms, nothing staged — a fresh directory, or a
/// checkpoint of a pristine pipeline) this behaves like [`replay_tsv`]
/// with every tick write-ahead logged, followed by a final
/// [`IngestPipeline::checkpoint`] so the next start recovers from the
/// snapshot alone, and the returned report has
/// [`RecoveryReport::corpus_ingested`] set. On a directory holding any
/// recovered state (a restart), the state recovers as `load_snapshot +
/// replay_wal` and the TSV input is **not** re-read — this is the fast
/// cold-start path the store exists for — with `corpus_ingested` left
/// `false` so callers can detect the skip. Callers resuming a partially
/// ingested corpus should compare [`IngestPipeline::ticks_committed`]
/// against the file's timeline and feed the remainder through the staging
/// API.
pub fn replay_tsv_durable<R: BufRead>(
    input: R,
    mut config: IngestConfig,
    dir: impl AsRef<Path>,
) -> Result<(IngestPipeline, RecoveryReport), ReplayError> {
    let mut reader = TsvStreamReader::new(input)?;
    config.timeline_capacity = config.timeline_capacity.max(reader.timeline_len());
    let (mut pipeline, mut report) = IngestPipeline::durable(config, dir)?;
    let empty = pipeline.ticks_committed() == 0 && pipeline.metrics().staged_docs == 0 && {
        let collection = pipeline.collection();
        collection.n_streams() == 0 && collection.n_terms() == 0
    };
    if empty {
        drive_replay(&mut reader, &mut pipeline)?;
        pipeline.checkpoint()?;
        report.corpus_ingested = true;
    }
    Ok((pipeline, report))
}

/// Drives every record of `reader` through `pipeline`, committing through
/// the file's declared timeline.
fn drive_replay<R: BufRead>(
    reader: &mut TsvStreamReader<R>,
    pipeline: &mut IngestPipeline,
) -> Result<(), ReplayError> {
    let mut stream_map: HashMap<u32, StreamId> = HashMap::new();

    while let Some(record) = reader.next() {
        let line = reader.line();
        match record? {
            TsvRecord::Stream {
                ext_id,
                name,
                geostamp,
                position,
            } => {
                let id = pipeline.add_stream_with_position(&name, geostamp, position);
                stream_map.insert(ext_id, id);
            }
            TsvRecord::Document(doc) => {
                if doc.timestamp < pipeline.ticks_committed() {
                    return Err(ReplayError::OutOfOrder {
                        line,
                        timestamp: doc.timestamp,
                        open_tick: pipeline.ticks_committed(),
                    });
                }
                while pipeline.ticks_committed() < doc.timestamp {
                    pipeline.commit_tick();
                }
                let stream = *stream_map
                    .get(&doc.stream)
                    .ok_or(ReplayError::UnknownStream {
                        line,
                        stream: doc.stream,
                    })?;
                let counts = fold_counts(&doc.counts, line, |term| pipeline.intern(term))?;
                pipeline.stage_document(stream, counts);
            }
        }
    }

    // Commit through the *file's* declared timeline (the last staged tick
    // and any trailing empty ticks): batch mining observes every timestamp,
    // so the streaming replay must too. Deliberately not the pipeline's
    // timeline length — a caller-provided capacity larger than the file is
    // headroom for ingestion after the replay, not ticks to commit.
    while pipeline.ticks_committed() < reader.timeline_len() {
        pipeline.commit_tick();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const SAMPLE: &str = "C\t5\n\
                          S\t0\tA\t0\t0\t0\t0\n\
                          S\t1\tB\t1\t1\t1\t1\n\
                          D\t0\t0\tx:2\ty:1\n\
                          D\t1\t1\tx:4\n\
                          D\t0\t3\tz:5\n";

    #[test]
    fn replay_commits_the_whole_timeline() {
        let pipeline = replay_tsv(Cursor::new(SAMPLE), IngestConfig::default()).unwrap();
        assert_eq!(pipeline.ticks_committed(), 5);
        assert_eq!(pipeline.timeline_len(), 5);
        let collection = pipeline.collection();
        assert_eq!(collection.documents().len(), 3);
        assert_eq!(collection.n_streams(), 2);
    }

    #[test]
    fn replay_matches_the_batch_loader() {
        let batch = stb_corpus::tsv::read_collection(Cursor::new(SAMPLE)).unwrap();
        let pipeline = replay_tsv(Cursor::new(SAMPLE), IngestConfig::default()).unwrap();
        let live = pipeline.collection();

        assert_eq!(batch.n_streams(), live.n_streams());
        assert_eq!(batch.timeline_len(), live.timeline_len());
        assert_eq!(batch.documents().len(), live.documents().len());
        assert_eq!(batch.n_terms(), live.n_terms());
        // Same file order on both paths: even the interned ids agree.
        for (term, name) in batch.dict().iter() {
            assert_eq!(live.dict().get(name), Some(term), "term id for {name:?}");
            assert_eq!(
                batch.term_merged_series(term),
                live.term_merged_series(term)
            );
            for s in 0..batch.n_streams() {
                assert_eq!(
                    batch.term_stream_series(term, StreamId(s as u32)),
                    live.term_stream_series(term, StreamId(s as u32))
                );
            }
        }
    }

    #[test]
    fn replay_accepts_streams_coming_online_mid_file() {
        let data = "C\t3\n\
                    S\t0\tA\t0\t0\t0\t0\n\
                    D\t0\t0\tx:1\n\
                    S\t1\tB\t1\t1\t1\t1\n\
                    D\t1\t2\tx:3\n";
        let pipeline = replay_tsv(Cursor::new(data), IngestConfig::default()).unwrap();
        let collection = pipeline.collection();
        assert_eq!(collection.n_streams(), 2);
        assert_eq!(collection.documents().len(), 2);
    }

    #[test]
    fn replay_rejects_out_of_order_timestamps() {
        let data = "C\t3\nS\t0\tA\t0\t0\t0\t0\nD\t0\t2\tx:1\nD\t0\t0\tx:1\n";
        let err = replay_tsv(Cursor::new(data), IngestConfig::default())
            .err()
            .expect("out-of-order replay must fail");
        match err {
            ReplayError::OutOfOrder {
                timestamp, line, ..
            } => {
                assert_eq!(timestamp, 0);
                assert_eq!(line, 4);
            }
            other => panic!("expected OutOfOrder, got {other:?}"),
        }
    }

    #[test]
    fn oversized_capacity_is_headroom_not_ticks() {
        // A capacity larger than the file pre-sizes the timeline for later
        // ingestion; replay must still only commit the file's timeline.
        let config = IngestConfig {
            timeline_capacity: 40,
            ..Default::default()
        };
        let pipeline = replay_tsv(Cursor::new(SAMPLE), config).unwrap();
        assert_eq!(pipeline.ticks_committed(), 5);
        assert_eq!(pipeline.timeline_len(), 40);
    }

    #[test]
    fn replay_rejects_unknown_streams() {
        let data = "C\t2\nS\t0\tA\t0\t0\t0\t0\nD\t7\t0\tx:1\n";
        assert!(matches!(
            replay_tsv(Cursor::new(data), IngestConfig::default()),
            Err(ReplayError::UnknownStream { stream: 7, .. })
        ));
    }

    #[test]
    fn replay_propagates_parse_errors() {
        let data = "C\t2\nS\t0\tA\t0\t0\t0\t0\nD\t0\t0\tbroken\n";
        assert!(matches!(
            replay_tsv(Cursor::new(data), IngestConfig::default()),
            Err(ReplayError::Tsv(_))
        ));
        let repeat_overflows = "C\t2\nS\t0\tA\t0\t0\t0\t0\nD\t0\t0\tx:4294967295\tx:2\n";
        assert!(matches!(
            replay_tsv(Cursor::new(repeat_overflows), IngestConfig::default()),
            Err(ReplayError::Tsv(TsvError::Parse { line: 3, .. }))
        ));
        let repeated_stream = "C\t2\nS\t0\tA\t0\t0\t0\t0\nS\t0\tB\t1\t1\t1\t1\nD\t0\t0\tx:1\n";
        assert!(matches!(
            replay_tsv(Cursor::new(repeated_stream), IngestConfig::default()),
            Err(ReplayError::Tsv(TsvError::Parse { line: 3, .. }))
        ));
    }
}
