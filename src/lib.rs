//! # stburst — spatiotemporal term burstiness
//!
//! A from-scratch Rust implementation of *"On the Spatiotemporal Burstiness
//! of Terms"* (Lappas, Vieira, Gunopulos, Tsotras — VLDB 2012): mining
//! combinatorial (`STComb`) and regional (`STLocal`) spatiotemporal
//! burstiness patterns from geostamped document streams, and using them to
//! power a bursty-document search engine.
//!
//! This facade crate simply re-exports the workspace crates under one roof;
//! see the individual modules for the full documentation:
//!
//! * [`geo`] — geographic primitives, MDS projection, country gazetteer.
//! * [`timeseries`] — temporal burst detection (discrepancy),
//!   Ruzzo–Tompa maximal segments.
//! * [`corpus`] — documents, streams, spatiotemporal collections.
//! * [`discrepancy`] — max-weight rectangles and the R-Bursty algorithm.
//! * [`core`] — the paper's contribution: STComb, STLocal, baselines,
//!   evaluation metrics.
//! * [`search`] — the bursty-document search engine and its typed
//!   spatiotemporal query DSL (`Query` → `QueryResponse`/`QueryError`).
//! * [`ingest`] — live ingestion: incremental mining, per-term index
//!   deltas, queries served concurrently with document arrival.
//! * [`subscribe`] — continuous queries: standing subscriptions evaluated
//!   incrementally against each tick's dirty terms, delivering result
//!   diffs through bounded channels with configurable overflow policies.
//! * [`store`] — durable snapshots and a write-ahead log: crash recovery
//!   as `load_snapshot + replay_wal`, byte-identical to a process that
//!   never stopped.
//! * [`obs`] — observability: the lock-free metrics registry (counters,
//!   gauges, mergeable latency histograms), span traces, the slow-query
//!   log, and the Prometheus/JSON exposition the instrumented crates
//!   share.
//! * [`datagen`] — synthetic data generators (distGen, randGen, Topix-like
//!   corpus).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use stb_core as core;
pub use stb_corpus as corpus;
pub use stb_datagen as datagen;
pub use stb_discrepancy as discrepancy;
pub use stb_geo as geo;
pub use stb_ingest as ingest;
pub use stb_obs as obs;
pub use stb_search as search;
pub use stb_store as store;
pub use stb_subscribe as subscribe;
pub use stb_timeseries as timeseries;

/// The README's `rust` blocks, compiled as doctests so they keep up with
/// the API (`no_run`: they open stores and build corpora).
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
