//! Bursty-document search engine (Section 5 of the paper).
//!
//! Given the spatiotemporal burstiness patterns mined for each term (by
//! `STComb`, `STLocal`, or the temporal-only `TB` baseline), this crate
//! ranks documents for a multi-term query by
//!
//! ```text
//! score(q, d) = Σ_{t ∈ q} relevance(d, t) × burstiness(d, t)      (Eq. 10)
//! ```
//!
//! where `relevance` is a normalized term frequency (the paper found
//! `log(freq + 1)` to work best) and `burstiness(d, t)` aggregates the
//! scores of the patterns of `t` that *overlap* the document — i.e. contain
//! both its stream of origin and its timestamp (Eq. 11; the paper found the
//! maximum to work best).
//!
//! Queries enter through the typed spatiotemporal DSL ([`Query`] →
//! [`BurstySearchEngine::query`] → `Result<QueryResponse, QueryError>`):
//! term or text queries with optional `time_window`/`region` filters that
//! restrict scoring to the patterns intersecting both, per-document
//! explanations of the Eq. 10–11 factors, and execution statistics. (The
//! historical `search`/`search_many`/`search_text` trio was removed in
//! 0.4.0.)
//!
//! Retrieval uses a classic IR architecture: an [`InvertedIndex`] with
//! per-term postings sorted by score, queried with Fagin's Threshold
//! Algorithm ([`threshold_topk`]) for early-terminating top-k evaluation.
//! For serving repeated query traffic, [`BurstySearchEngine::finalize`]
//! prebuilds the whole collection's scored posting lists in parallel, and
//! an LRU result cache short-circuits repeated queries (keyed on the full
//! canonical query, filters included).
//!
//! The engine owns its collection as an `Arc` snapshot, so queries can be
//! served concurrently with ingestion: the `stb-ingest` pipeline swaps in
//! newer snapshots with [`BurstySearchEngine::update_collection`] and
//! re-scores only the affected terms; serving counters are exposed through
//! [`EngineMetrics`].
//!
//! For concurrent serving under live ingestion, a serving tier sits on
//! top: a [`ShardedEngine`] write side that publishes
//! generational snapshots — pointer-sharing clones of its engine's derived
//! state — by swapping one `Arc` under a `RwLock`, and a [`ServingFront`]
//! read side whose queries never wait on a commit's mining or publish work
//! (they take the read lock for one pointer clone) yet answer
//! bit-identically to the unsharded engine, behind result caches sharded by
//! term hash. Both tiers run the same single query flow over the same state
//! type.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A serving thread must not panic on a recoverable condition.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod burstiness;
mod cache;
mod engine;
mod error;
mod index;
mod obs;
#[cfg(test)]
mod proptests;
mod query;
mod relevance;
mod shard;
pub mod threshold;

pub use burstiness::NoPatternPolicy;
pub use cache::QueryKey;
pub use engine::{
    BurstySearchEngine, EngineConfig, EngineConfigBuilder, EngineMetrics, SearchResult,
    DEFAULT_CACHE_CAPACITY,
};
pub use error::QueryError;
pub use index::{InvertedIndex, Posting};
pub use obs::{SearchObs, SearchObsConfig};
pub use query::{
    DocExplanation, PatternMatch, Query, QueryResponse, QueryStats, ResponseSnapshot,
    TermExplanation, UnknownWords,
};
pub use relevance::Relevance;
pub use shard::{ServingFront, ShardedEngine, DEFAULT_SHARDS};
pub use threshold::threshold_topk;
