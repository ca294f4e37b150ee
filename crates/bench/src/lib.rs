//! Shared experiment harness for reproducing the paper's tables and figures.
//!
//! Every table and figure of the evaluation section has a dedicated binary in
//! `src/bin/` (`table1`, `table2`, `table3`, `figure4` … `figure9`); this
//! library holds the pieces they share: deterministic experiment contexts,
//! plain-text table rendering, and timing helpers. Criterion micro-benchmarks
//! for the algorithmic substrates live under `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod harness;
mod tables;

pub use harness::ExperimentCtx;
pub use tables::TableWriter;
