//! Document streams and spatiotemporal collections.
//!
//! This crate is the *data substrate* of the workspace: it models the
//! geostamped document streams of the paper's Section 2.
//!
//! * [`TermDict`] — interning of term strings into dense [`TermId`]s.
//! * [`Tokenizer`] — a simple, deterministic tokenizer (lowercase,
//!   alphanumeric, stop-word filtering) used to turn raw text into term
//!   counts.
//! * [`Document`] — a document with its stream of origin, timestamp, and
//!   term frequency vector.
//! * [`StreamMeta`] — a document stream: its name and geostamp (and the 2-D
//!   map position used by the regional mining).
//! * [`Collection`] — the spatiotemporal collection `D = {D_1[·],...,D_n[·]}`:
//!   per-stream, per-timestamp term frequencies (`D_x[i][t]`, Eq. 6),
//!   snapshots `D[i]`, and per-term frequency series.
//! * [`tsv`] — a small tab-separated persistence layer so corpora can be
//!   saved and reloaded without extra dependencies, with both a batch
//!   loader and a streaming/append-mode record reader
//!   ([`tsv::TsvStreamReader`]) for tick-by-tick replay.
//!
//! Collections are buildable in batch ([`CollectionBuilder`]) and mutable
//! afterwards (`Collection::{add_stream, extend_timeline, push_document,
//! dict_mut}`), which is what the live ingestion crate (`stb-ingest`)
//! builds on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod collection;
mod dictionary;
mod document;
mod tokenizer;
pub mod tsv;

pub use collection::{
    Collection, CollectionBuilder, CollectionParts, PartsError, Snapshot, StreamId, StreamMeta,
    Timestamp,
};
pub use dictionary::{TermDict, TermId};
pub use document::{DocId, Document};
pub use tokenizer::Tokenizer;
