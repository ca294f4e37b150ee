//! Synthetic spatiotemporal data generation.
//!
//! The paper evaluates on (a) a proprietary crawl of Topix.com and (b)
//! artificial corpora produced by two generators, `distGen` and `randGen`
//! (Appendix B). This crate reproduces the generators exactly as described
//! and additionally provides a *synthetic Topix-like corpus* that stands in
//! for the unavailable crawl (see DESIGN.md for the substitution argument).
//!
//! * [`Weibull`] — the burst-shape profile of Appendix B (Figure 9); a Zipf
//!   vocabulary sampler beside it, both built on top of `rand`.
//! * [`PatternGenerator`] — `distGen` / `randGen`: inject ground-truth
//!   spatiotemporal patterns into background frequency streams.
//! * [`TopixCorpus`] — the synthetic Topix-like document corpus: 181 country
//!   streams, 48 weekly snapshots, Zipf background vocabulary, and the 18
//!   Major Events of the paper's Table 9 with ground-truth document labels.
//! * [`MajorEvent`] — the Major Events List (query, description, epicenter,
//!   impact tier).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod distributions;
mod events;
mod pattern_gen;
mod topix;

pub use distributions::Weibull;
pub use events::{EventTier, MajorEvent};
pub use pattern_gen::{
    GeneratorConfig, GroundTruthPattern, PatternGenerator, StreamSelection, SyntheticDataset,
};
pub use topix::{TopixConfig, TopixCorpus};
