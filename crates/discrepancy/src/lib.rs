//! Spatial discrepancy maximization: max-weight rectangles and `R-Bursty`.
//!
//! The regional pattern mining of the paper (Section 4) needs, for every
//! snapshot of the collection, the set of *all non-overlapping axis-aligned
//! rectangles with positive r-score* — where the r-score of a rectangle is
//! the sum of the per-stream burstiness values of the streams falling inside
//! it (Eq. 8). The paper obtains the single best rectangle with the
//! bichromatic-discrepancy algorithm of Dobkin, Gunopulos & Maass and then
//! iterates (Algorithm 1, `R-Bursty`).
//!
//! This crate provides:
//!
//! * [`WPoint`] — a weighted planar point (a stream's map position and its
//!   burstiness at the current timestamp).
//! * [`max_weight_rect_with`] — an exact maximizer of the rectangle score
//!   over all axis-aligned rectangles. Two exact kernels are selectable
//!   through [`RectKernel`]: the default DGM-style max-subsegment-tree sweep
//!   (anchored at the columns that hold a positive point) and the Kadane
//!   re-scan sweep (`O(m^3)`) the tests compare it against; both share a
//!   positive-mass upper-bound pruner and a reusable search workspace. A
//!   brute-force oracle ([`max_weight_rect_naive`]) is provided for
//!   testing.
//! * [`RBursty`] — Algorithm 1: iteratively report the best rectangle and
//!   mask its streams until no positive-score rectangle remains. The
//!   extraction loop reuses one workspace across rounds, applying masking
//!   as `O(1)` point-weight updates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The kernel runs on the ingest pipeline's commit thread.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod bursty_rect;
mod max_rect;
mod maxseg_tree;
#[cfg(test)]
mod proptests;
mod weighted_point;

pub use bursty_rect::{BurstyRectangle, RBursty};
pub use max_rect::{max_weight_rect_naive, max_weight_rect_with, MaxRect, RectKernel};
pub use weighted_point::WPoint;
