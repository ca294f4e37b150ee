//! Minimal tab-separated persistence for collections.
//!
//! The format is intentionally simple and dependency-free: one file, three
//! record types distinguished by their first column.
//!
//! ```text
//! C   <timeline_len>
//! S   <stream_id> <name> <lat> <lon> <x> <y>
//! D   <stream_id> <timestamp> <term>:<count> <term>:<count> ...
//! ```
//!
//! Term strings must not contain tabs or colons. Stream ids are unique: a
//! second `S` record with an id already declared is a parse error.
//!
//! Two readers share the same parser:
//!
//! * [`read_collection`] — the batch loader: consumes the whole file and
//!   builds a [`Collection`] (documents may reference streams declared later
//!   in the file).
//! * [`TsvStreamReader`] — the streaming/append-mode reader: after the `C`
//!   header, yields one [`TsvRecord`] at a time, so a live consumer (the
//!   `stb-ingest` replay driver) can feed a corpus tick-by-tick without
//!   materializing it, and new `S` records may appear interleaved with
//!   documents as streams come online.

use crate::collection::{Collection, CollectionBuilder, StreamId};
use crate::dictionary::TermId;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io::BufRead;

use stb_geo::{GeoPoint, Point2D};

/// Errors produced while reading a TSV collection.
#[derive(Debug)]
pub enum TsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed record, with the 1-based line number and a description.
    Parse {
        /// 1-based line number of the offending record.
        line: usize,
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for TsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TsvError::Io(e) => write!(f, "i/o error: {e}"),
            TsvError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
        }
    }
}

impl std::error::Error for TsvError {}

impl From<std::io::Error> for TsvError {
    fn from(e: std::io::Error) -> Self {
        TsvError::Io(e)
    }
}

/// A `D` record as parsed from the file: the externally-assigned stream id,
/// the timestamp, and the (term string, count) pairs in file order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawDocument {
    /// External stream id (the first field of the originating `S` record).
    pub stream: u32,
    /// Timestamp of the document.
    pub timestamp: usize,
    /// The document's (term, count) pairs, in file order.
    pub counts: Vec<(String, u32)>,
}

/// One record yielded by [`TsvStreamReader`] (everything after the `C`
/// header).
#[derive(Debug, Clone, PartialEq)]
pub enum TsvRecord {
    /// An `S` record: a stream coming online.
    Stream {
        /// Externally-assigned stream id, referenced by `D` records.
        ext_id: u32,
        /// Human-readable stream name.
        name: String,
        /// Geographic location of the stream.
        geostamp: GeoPoint,
        /// Planar map position of the stream.
        position: Point2D,
    },
    /// A `D` record: a document.
    Document(RawDocument),
}

/// Streaming/append-mode reader of the TSV collection format.
///
/// [`TsvStreamReader::new`] consumes the `C` header (the first non-empty
/// line); the reader is then an iterator of [`TsvRecord`]s, in file order,
/// without buffering the corpus. `S` records may appear anywhere after the
/// header, so an append-mode producer can declare new streams as they come
/// online. Consumers that need the batch semantics (documents may reference
/// streams declared *later*) should use [`read_collection`], which is built
/// on this reader.
///
/// ```
/// use stb_corpus::tsv::{TsvRecord, TsvStreamReader};
/// use std::io::Cursor;
///
/// let data = "C\t3\nS\t0\tAthens\t38.0\t23.7\t23.7\t38.0\nD\t0\t1\tquake:2\n";
/// let mut reader = TsvStreamReader::new(Cursor::new(data)).unwrap();
/// assert_eq!(reader.timeline_len(), 3);
/// assert!(matches!(reader.next().unwrap().unwrap(), TsvRecord::Stream { .. }));
/// match reader.next().unwrap().unwrap() {
///     TsvRecord::Document(doc) => assert_eq!(doc.counts, vec![("quake".to_string(), 2)]),
///     other => panic!("expected a document, got {other:?}"),
/// }
/// assert!(reader.next().is_none());
/// ```
#[derive(Debug)]
pub struct TsvStreamReader<R: BufRead> {
    lines: std::io::Lines<R>,
    lineno: usize,
    timeline_len: usize,
    stream_ids: HashSet<u32>,
}

impl<R: BufRead> TsvStreamReader<R> {
    /// Opens the stream and parses the `C` header record.
    pub fn new(input: R) -> Result<Self, TsvError> {
        let mut lines = input.lines();
        let mut lineno = 0;
        loop {
            let Some(line) = lines.next() else {
                return Err(TsvError::Parse {
                    line: 0,
                    message: "missing C record".to_string(),
                });
            };
            let line = line?;
            lineno += 1;
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            if fields[0] != "C" {
                return Err(TsvError::Parse {
                    line: lineno,
                    message: format!("{} record before C record", fields[0]),
                });
            }
            let timeline_len =
                fields
                    .get(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or(TsvError::Parse {
                        line: lineno,
                        message: "invalid timeline length".to_string(),
                    })?;
            return Ok(Self {
                lines,
                lineno,
                timeline_len,
                stream_ids: HashSet::new(),
            });
        }
    }

    /// The timeline length declared by the `C` header.
    pub fn timeline_len(&self) -> usize {
        self.timeline_len
    }

    /// 1-based line number of the last record read (for error reporting).
    pub fn line(&self) -> usize {
        self.lineno
    }

    fn parse_record(&mut self, line: &str) -> Result<TsvRecord, TsvError> {
        let fields: Vec<&str> = line.split('\t').collect();
        let lineno = self.lineno;
        let err = |message: String| TsvError::Parse {
            line: lineno,
            message,
        };
        match fields[0] {
            "S" => {
                if fields.len() < 7 {
                    return Err(err("S record needs 7 fields".to_string()));
                }
                let ext_id: u32 = fields[1]
                    .parse()
                    .map_err(|_| err("invalid stream id".to_string()))?;
                let lat: f64 = fields[3]
                    .parse()
                    .map_err(|_| err("invalid latitude".to_string()))?;
                let lon: f64 = fields[4]
                    .parse()
                    .map_err(|_| err("invalid longitude".to_string()))?;
                let x: f64 = fields[5]
                    .parse()
                    .map_err(|_| err("invalid x".to_string()))?;
                let y: f64 = fields[6]
                    .parse()
                    .map_err(|_| err("invalid y".to_string()))?;
                if !self.stream_ids.insert(ext_id) {
                    return Err(err(format!("duplicate stream id {ext_id}")));
                }
                Ok(TsvRecord::Stream {
                    ext_id,
                    name: fields[2].to_string(),
                    geostamp: GeoPoint::new(lat, lon),
                    position: Point2D::new(x, y),
                })
            }
            "D" => {
                if fields.len() < 3 {
                    return Err(err("D record needs at least 3 fields".to_string()));
                }
                let stream: u32 = fields[1]
                    .parse()
                    .map_err(|_| err("invalid stream id".to_string()))?;
                let timestamp: usize = fields[2]
                    .parse()
                    .map_err(|_| err("invalid timestamp".to_string()))?;
                if timestamp >= self.timeline_len {
                    return Err(err("timestamp beyond timeline".to_string()));
                }
                let mut counts = Vec::new();
                for field in &fields[3..] {
                    let (term, count) = field
                        .rsplit_once(':')
                        .ok_or_else(|| err("term field missing ':'".to_string()))?;
                    let count: u32 = count
                        .parse()
                        .map_err(|_| err("invalid term count".to_string()))?;
                    counts.push((term.to_string(), count));
                }
                Ok(TsvRecord::Document(RawDocument {
                    stream,
                    timestamp,
                    counts,
                }))
            }
            "C" => Err(err("duplicate C record".to_string())),
            other => Err(err(format!("unknown record type '{other}'"))),
        }
    }
}

impl<R: BufRead> Iterator for TsvStreamReader<R> {
    type Item = Result<TsvRecord, TsvError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let line = match self.lines.next()? {
                Ok(line) => line,
                Err(e) => return Some(Err(e.into())),
            };
            self.lineno += 1;
            if line.trim().is_empty() {
                continue;
            }
            return Some(self.parse_record(&line));
        }
    }
}

/// Folds a `D` record's `(term, count)` pairs into one bag keyed by the ids
/// `intern` assigns (called once per pair, in file order), summing the
/// counts of a repeated term. A sum beyond `u32::MAX` is a
/// [`TsvError::Parse`] at `line`.
pub fn fold_counts(
    counts: &[(String, u32)],
    line: usize,
    mut intern: impl FnMut(&str) -> TermId,
) -> Result<HashMap<TermId, u32>, TsvError> {
    let mut bag = HashMap::new();
    for (term, count) in counts {
        let sum = bag.entry(intern(term)).or_insert(0u32);
        *sum = sum.checked_add(*count).ok_or_else(|| TsvError::Parse {
            line,
            message: format!("repeated term '{term}' overflows its count"),
        })?;
    }
    Ok(bag)
}

/// Reads a collection in the TSV format described in the module docs.
///
/// Batch semantics on top of [`TsvStreamReader`]: the whole file is
/// consumed first, so documents may reference streams declared later in the
/// file; term interning happens in document order, matching the ids a
/// tick-by-tick replay of the same file would assign.
pub fn read_collection<R: BufRead>(input: R) -> Result<Collection, TsvError> {
    let mut reader = TsvStreamReader::new(input)?;
    let mut builder = CollectionBuilder::new(reader.timeline_len());
    let mut stream_map: HashMap<u32, StreamId> = HashMap::new();
    let mut pending_docs: Vec<(usize, RawDocument)> = Vec::new();

    while let Some(record) = reader.next() {
        match record? {
            TsvRecord::Stream {
                ext_id,
                name,
                geostamp,
                position,
            } => {
                let id = builder.add_stream_with_position(&name, geostamp, position);
                stream_map.insert(ext_id, id);
            }
            TsvRecord::Document(doc) => pending_docs.push((reader.line(), doc)),
        }
    }

    for (line, doc) in pending_docs {
        let stream = *stream_map.get(&doc.stream).ok_or(TsvError::Parse {
            line,
            message: format!("document references unknown stream {}", doc.stream),
        })?;
        let bag = fold_counts(&doc.counts, line, |term| builder.dict_mut().intern(term))?;
        builder.add_document(stream, doc.timestamp, bag);
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// Two streams and two documents, as `C`/`S`/`D` records.
    const SAMPLE: &str = "C\t4\n\
                          S\t0\tAthens\t38\t23.7\t23.7\t38\n\
                          S\t1\tLima\t-12\t-77\t-77\t-12\n\
                          D\t0\t0\tceasefire:1\tannounced:1\ttoday:1\n\
                          D\t1\t3\tpiracy:2\tsomalia:1\n";

    #[test]
    fn read_collection_builds_the_declared_structure() {
        let restored = read_collection(Cursor::new(SAMPLE)).unwrap();

        assert_eq!(restored.n_streams(), 2);
        assert_eq!(restored.timeline_len(), 4);
        assert_eq!(restored.documents().len(), 2);
        assert_eq!(restored.n_terms(), 5);

        let piracy = restored.dict().get("piracy").unwrap();
        assert_eq!(
            restored.term_merged_series(piracy),
            vec![0.0, 0.0, 0.0, 2.0]
        );
        assert_eq!(restored.stream(StreamId(0)).name, "Athens");
        assert!((restored.stream(StreamId(1)).geostamp.lon - -77.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_malformed_term_count() {
        let bad = "C\t2\nS\t0\tA\t0\t0\t0\t0\nD\t0\t0\tfoo:bar\n";
        assert!(read_collection(Cursor::new(bad)).is_err());
        let missing_colon = "C\t2\nS\t0\tA\t0\t0\t0\t0\nD\t0\t0\tfoo\n";
        assert!(read_collection(Cursor::new(missing_colon)).is_err());
        let repeat_overflows = "C\t2\nS\t0\tA\t0\t0\t0\t0\nD\t0\t0\tx:4294967295\tx:2\n";
        assert!(matches!(
            read_collection(Cursor::new(repeat_overflows)),
            Err(TsvError::Parse { line: 3, .. })
        ));
    }

    #[test]
    fn rejects_document_for_unknown_stream() {
        let bad = "C\t2\nS\t0\tA\t0\t0\t0\t0\nD\t9\t0\tfoo:1\n";
        assert!(matches!(
            read_collection(Cursor::new(bad)),
            Err(TsvError::Parse { line: 3, .. })
        ));
    }

    #[test]
    fn rejects_repeated_stream_id() {
        let bad = "C\t2\nS\t0\tA\t0\t0\t0\t0\nS\t0\tB\t1\t1\t1\t1\nD\t0\t0\tfoo:1\n";
        assert!(matches!(
            read_collection(Cursor::new(bad)),
            Err(TsvError::Parse { line: 3, .. })
        ));
        let mut reader = TsvStreamReader::new(Cursor::new(bad)).unwrap();
        assert!(reader.next().unwrap().is_ok());
        assert!(matches!(
            reader.next().unwrap(),
            Err(TsvError::Parse { line: 3, .. })
        ));
    }

    #[test]
    fn rejects_garbage() {
        let bad = "X\tfoo\n";
        assert!(read_collection(Cursor::new(bad)).is_err());
    }

    #[test]
    fn rejects_document_before_header() {
        let bad = "D\t0\t0\tfoo:1\n";
        assert!(read_collection(Cursor::new(bad)).is_err());
    }

    #[test]
    fn rejects_timestamp_beyond_timeline() {
        let bad = "C\t2\nS\t0\tA\t0\t0\t0\t0\nD\t0\t5\tfoo:1\n";
        assert!(read_collection(Cursor::new(bad)).is_err());
    }

    #[test]
    fn rejects_missing_header() {
        let bad = "";
        assert!(read_collection(Cursor::new(bad)).is_err());
    }

    #[test]
    fn empty_document_is_allowed() {
        let data = "C\t2\nS\t0\tA\t0\t0\t0\t0\nD\t0\t1\n";
        let c = read_collection(Cursor::new(data)).unwrap();
        assert_eq!(c.documents().len(), 1);
        assert_eq!(c.documents()[0].distinct_terms(), 0);
    }

    #[test]
    fn stream_reader_yields_records_in_file_order() {
        let reader = TsvStreamReader::new(Cursor::new(SAMPLE)).unwrap();
        assert_eq!(reader.timeline_len(), 4);
        let records: Vec<TsvRecord> = reader.map(Result::unwrap).collect();
        let n_streams = records
            .iter()
            .filter(|r| matches!(r, TsvRecord::Stream { .. }))
            .count();
        let docs: Vec<&RawDocument> = records
            .iter()
            .filter_map(|r| match r {
                TsvRecord::Document(d) => Some(d),
                TsvRecord::Stream { .. } => None,
            })
            .collect();
        assert_eq!(n_streams, 2);
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].timestamp, 0);
        assert_eq!(docs[0].stream, 0);
        assert_eq!(docs[1].counts.iter().map(|(_, c)| c).sum::<u32>(), 3);
    }

    #[test]
    fn stream_reader_allows_streams_interleaved_with_documents() {
        // Append-mode: a second stream comes online after documents of the
        // first have been read.
        let data = "C\t4\nS\t0\tA\t0\t0\t0\t0\nD\t0\t0\tx:1\nS\t1\tB\t1\t1\t1\t1\nD\t1\t2\ty:2\n";
        let records: Vec<TsvRecord> = TsvStreamReader::new(Cursor::new(data))
            .unwrap()
            .map(Result::unwrap)
            .collect();
        assert!(matches!(records[0], TsvRecord::Stream { ext_id: 0, .. }));
        assert!(matches!(records[1], TsvRecord::Document(_)));
        assert!(matches!(records[2], TsvRecord::Stream { ext_id: 1, .. }));
        assert!(matches!(records[3], TsvRecord::Document(_)));
        // The batch loader accepts the same file.
        let c = read_collection(Cursor::new(data)).unwrap();
        assert_eq!(c.n_streams(), 2);
        assert_eq!(c.documents().len(), 2);
    }

    #[test]
    fn stream_reader_rejects_header_problems() {
        assert!(TsvStreamReader::new(Cursor::new("")).is_err());
        assert!(TsvStreamReader::new(Cursor::new("S\t0\tA\t0\t0\t0\t0\n")).is_err());
        assert!(TsvStreamReader::new(Cursor::new("C\tnope\n")).is_err());
        // A duplicate header is a record-level error.
        let mut reader = TsvStreamReader::new(Cursor::new("C\t2\nC\t3\n")).unwrap();
        assert!(reader.next().unwrap().is_err());
    }

    #[test]
    fn stream_reader_reports_line_numbers() {
        let data = "C\t2\n\nS\t0\tA\t0\t0\t0\t0\nD\t0\t9\tfoo:1\n";
        let mut reader = TsvStreamReader::new(Cursor::new(data)).unwrap();
        assert!(reader.next().unwrap().is_ok()); // the S record
        let err = reader.next().unwrap().unwrap_err(); // timestamp beyond timeline
        match err {
            TsvError::Parse { line, message } => {
                assert_eq!(line, 4);
                assert!(message.contains("timestamp"));
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }
}
