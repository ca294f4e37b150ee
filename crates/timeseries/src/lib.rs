//! Temporal burst detection substrate.
//!
//! This crate implements everything the spatiotemporal pattern miners need to
//! reason about "when" a term is unusually frequent:
//!
//! * [`TimeInterval`] — inclusive timestamp intervals `[start, end]`.
//! * [`max_segments`] — the linear-time algorithm of Ruzzo & Tompa for finding
//!   **all maximal scoring subsequences** of a real-valued sequence. This is
//!   the `GetMax` module of the paper (Appendix C), used both for temporal
//!   burst extraction and for maintaining maximal spatiotemporal windows in
//!   `STLocal`.
//! * [`OnlineMaxSeg`] — an incremental version of the same algorithm whose state
//!   can be advanced one score at a time, exactly as the streaming `STLocal`
//!   algorithm requires.
//! * [`temporal_burst`] — the discrepancy-based temporal burstiness measure
//!   `B_T(I)` of Eq. 1 (Lappas et al., KDD 2009) and the linear-time
//!   extraction of non-overlapping bursty temporal intervals.
//! * [`RunningMean`] — the expected-frequency model `E_x[i][t]`
//!   and the per-stream burstiness `B(t, D_x[i]) = observed − expected` of
//!   Eq. 7.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod baseline;
mod interval;
mod online;
#[cfg(test)]
mod proptests;
mod ruzzo_tompa;
pub mod temporal_burst;

pub use baseline::{burstiness_series, RunningMean};
pub use interval::TimeInterval;
pub use online::OnlineMaxSeg;
pub use ruzzo_tompa::{max_segments, Segment};
pub use temporal_burst::bursty_intervals;
