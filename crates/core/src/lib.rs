//! Spatiotemporal burstiness patterns — the paper's core contribution.
//!
//! Two complementary miners turn a geostamped document collection into
//! spatiotemporal burstiness patterns for each term:
//!
//! * [`STComb`] (Section 3) — **combinatorial patterns**: arbitrary sets of
//!   streams that are simultaneously bursty during a common temporal
//!   interval. Implemented by extracting per-stream temporal bursts and
//!   solving the Highest-Scoring-Subset problem as a maximum-weight clique
//!   on an interval graph ([`max_weight_interval_clique`]), iterated for multiple
//!   non-overlapping patterns.
//! * [`STLocal`] (Section 4) — **regional patterns**: axis-aligned map
//!   rectangles that stay bursty over maximal time windows. Implemented as a
//!   streaming algorithm: per-snapshot `R-Bursty`, one score sequence per
//!   tracked region, online Ruzzo–Tompa (`GetMax`) maintenance of maximal
//!   windows, and pruning of regions whose running total goes negative.
//!
//! The crate also contains the two baselines the paper evaluates against —
//! [`Base`] (binarised per-stream bursts greedily merged across streams by
//! Jaccard overlap) and [`TB`] (temporal-only burstiness over the merged
//! stream, the KDD 2009 predecessor) — and the evaluation metrics of
//! Section 6.2.2 ([`jaccard_similarity`], [`precision`], [`topk_overlap`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod base;
mod evaluation;
mod interval_clique;
mod parallel;
mod pattern;
#[cfg(test)]
mod proptests;
mod stcomb;
mod stlocal;
mod tb;

pub use base::Base;
pub use evaluation::{jaccard_similarity, precision, topk_overlap};
pub use interval_clique::{max_weight_interval_clique, IntervalClique, WeightedInterval};
pub use parallel::parallel_map;
pub use pattern::{CombinatorialPattern, Pattern, PatternRecord, RegionalPattern};
pub use stcomb::{STComb, STCombConfig};
pub use stlocal::{STLocal, STLocalConfig, STLocalStats, StepStats};
pub use tb::TB;
