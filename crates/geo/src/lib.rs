//! Geographic primitives and projection utilities for spatiotemporal
//! burstiness mining.
//!
//! This crate is the *spatial substrate* of the `stburst` workspace. It
//! provides everything the pattern-mining algorithms need to reason about
//! "where" a document stream lives:
//!
//! * [`GeoPoint`] — a latitude/longitude geostamp, with great-circle
//!   distances ([`haversine`]).
//! * [`Point2D`] and [`Rect`] — planar points and axis-aligned rectangles,
//!   the geometry used by the regional (`STLocal`) patterns.
//! * [`Mbr`] — minimum bounding rectangles, used to report the spatial
//!   extent of combinatorial (`STComb`) patterns (Table 1 of the paper).
//! * [`classical_mds`] — classical (Torgerson) Multidimensional Scaling,
//!   the projection the paper uses to place the Topix country sources on a
//!   2-D plane from their pairwise geographic distances.
//! * [`countries`] — a gazetteer of country centroids standing in for the
//!   181 Topix country sources.
//!
//! The linear algebra needed by MDS (a symmetric eigensolver) is implemented
//! from scratch; the crate has no heavyweight dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod countries;
pub mod haversine;
mod linalg;
mod mds;
mod point;
#[cfg(test)]
mod proptests;
mod rect;

pub use countries::all_countries;
pub use mds::{classical_mds, MdsError};
pub use point::{GeoPoint, Point2D};
pub use rect::{Mbr, Rect};
