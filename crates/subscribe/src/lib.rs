//! Continuous queries: standing subscriptions with incremental diff
//! evaluation over live ingest.
//!
//! Point-in-time queries answer "who is bursty *now*"; the alerting
//! workload the paper's burstiness signal exists for is the standing form
//! of the same question — "tell me when these terms go bursty in this
//! window/region". This crate turns the typed query DSL of `stb-search`
//! into that push modality:
//!
//! * A [`SubscriptionRegistry`] accepts standing
//!   [`Query`](stb_search::Query)s (time/region
//!   filters included) and hands back a cloneable [`SubscriptionHandle`]
//!   yielding [`ResultDiff`]s — which documents entered, left, or
//!   re-ranked within the top-k, plus the mined patterns that triggered
//!   the re-evaluation.
//! * Registrations are indexed by their canonical term set (the same
//!   deduplicated [`stb_search::QueryKey`] identity the result cache
//!   uses), so a commit intersects its dirty terms with the inverted
//!   term→subscription index and re-evaluates **only affected
//!   registrations** — cost scales with `|dirty ∩ subscribed|`, not with
//!   the number of standing queries.
//! * Every evaluation runs through
//!   [`ServingFront::query_snapshot`](stb_search::ServingFront::query_snapshot),
//!   which brackets the response to the serving generation it was computed
//!   from; a notification therefore never mixes state from two
//!   generations.
//! * Diffs are pushed through bounded channels with a configurable
//!   [`OverflowPolicy`] — [`Block`](OverflowPolicy::Block),
//!   [`CoalesceLatest`](OverflowPolicy::CoalesceLatest), or
//!   [`DropCounted`](OverflowPolicy::DropCounted) — the same backpressure
//!   vocabulary the ingest admission path speaks.
//!
//! The registry is wired into the ingest pipeline by `stb-ingest`
//! (`SearchHandle::subscribe` / the `commit_tick` notify hook); this crate
//! is deliberately below `stb-ingest` in the dependency order and knows
//! nothing about WALs or ticks beyond the tick number stamped on each
//! diff.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod channel;
mod diff;
#[cfg(test)]
mod overflow_policies;
mod registry;

pub use channel::{OverflowPolicy, SubscriptionHandle};
pub use diff::{Reranked, ResultDiff, Trigger};
pub use registry::{
    NotifyReport, SubscribeMetrics, SubscriptionId, SubscriptionInfo, SubscriptionOptions,
    SubscriptionRegistry,
};
