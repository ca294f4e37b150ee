//! Subscription-stream equivalence property tests: replaying the diff
//! stream of a standing subscription must reconstruct **exactly** the
//! point-in-time result sequence a caller would have seen by querying the
//! serving front fresh after every commit — every score `f64::to_bits`
//! identical, every membership change accounted for.
//!
//! The writer commits a generated plan tick by tick and records, per
//! subscribed query, the fresh response at each published generation.
//! Afterwards each subscription's drained diff stream is replayed:
//!
//! * a delivered diff's `previous` must equal the replayed state (the
//!   stream chains — nothing lost, nothing reordered),
//! * its `current` must be bit-identical to the fresh response recorded at
//!   that tick, under the generation recorded at that tick,
//! * ticks with **no** delivered diff must have left the fresh response
//!   bit-identical to the replayed state (unchanged-suppression and
//!   dirty-term skipping may only elide no-ops).
//!
//! Swept per case: spatiotemporal filters on and off (the subscribed set
//! mixes unfiltered, time-window, region, and relevance-override queries),
//! coalescing off (`Block` channels sized to hold every diff), and each
//! plan once alone and once beside 1 000 idle registrations on terms no
//! document mentions: the commits must do exactly the same subscription
//! work either way — `SubscribeMetrics::{evaluations, notifications}`
//! equal, every matching diff stream bit-identical.

use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::HashMap;

use stb_corpus::{StreamId, TermId};
use stb_geo::{GeoPoint, Rect};
use stb_ingest::{
    IngestConfig, IngestPipeline, OverflowPolicy, Query, SubscribeMetrics, SubscriptionOptions,
};
use stb_search::{Relevance, SearchResult};

const N_STREAMS: usize = 3;
const TERMS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
/// Registrations of the idle arm, spread over `IDLE_TERMS` interned terms
/// that no plan ever stages, so no commit dirties them.
const IDLE_SUBSCRIPTIONS: usize = 1_000;
const IDLE_TERMS: usize = 8;

/// One tick's documents: (stream index, [(term index, count)]).
type TickSpec = Vec<(usize, Vec<(usize, u32)>)>;

fn arb_plan() -> impl Strategy<Value = Vec<TickSpec>> {
    let count = (proptest::bool::ANY, 0u32..25)
        .prop_map(|(burst, c)| if burst { 15 + c } else { 1 + c % 2 });
    let doc = (
        0..N_STREAMS,
        prop::collection::vec((0..TERMS.len(), count), 1..3),
    );
    let tick = prop::collection::vec(doc, 0..4);
    prop::collection::vec(tick, 2..8)
}

fn stream_geo(s: usize) -> GeoPoint {
    match s {
        0 => GeoPoint::new(0.0, 0.0),
        1 => GeoPoint::new(1.0, 1.0),
        _ => GeoPoint::new(40.0 + s as f64, 40.0),
    }
}

/// The standing queries every case registers: unfiltered, multi-term,
/// time-window, region, and relevance-override shapes.
fn subscription_set(n_ticks: usize) -> Vec<Query> {
    let t: Vec<TermId> = (0..TERMS.len() as u32).map(TermId).collect();
    let mid = n_ticks / 2;
    let near = Rect::new(-0.5, -0.5, 1.5, 1.5);
    vec![
        Query::terms([t[0]]).top_k(5),
        Query::terms([t[1], t[2]]).top_k(4),
        Query::terms(t.iter().copied()).top_k(10),
        Query::terms([t[0], t[3]]).top_k(6).time_window(0..=mid),
        Query::terms([t[1]]).top_k(6).region(near),
        Query::terms([t[0]]).top_k(5).relevance(Relevance::RawFreq),
    ]
}

/// Doc ids and score bits of a result list — the bit-exact comparison key.
type Bits = Vec<(u32, u64)>;

fn bits(results: &[SearchResult]) -> Bits {
    results
        .iter()
        .map(|r| (r.doc.0, r.score.to_bits()))
        .collect()
}

/// One delivered diff reduced to what two runs of the same plan must
/// agree on: (tick, generation, `previous` bits, `current` bits).
type DiffBits = (Option<u64>, u64, Bits, Bits);

/// Runs the plan alone and beside the idle registrations; both runs must
/// replay to the fresh queries, and the idle set must cost the commits
/// nothing: no extra evaluation, no extra notification, no moved bit.
fn check_subscription_stream(plan: &[TickSpec]) -> Result<(), TestCaseError> {
    let (alone, alone_streams) = replay_subscription_stream(plan, 0)?;
    let (watched, watched_streams) = replay_subscription_stream(plan, IDLE_SUBSCRIPTIONS)?;
    prop_assert_eq!(
        watched.active,
        alone.active + IDLE_SUBSCRIPTIONS,
        "the idle registrations stay registered through the run"
    );
    prop_assert_eq!(
        watched.evaluations,
        alone.evaluations,
        "idle registrations are never evaluated"
    );
    prop_assert_eq!(
        watched.notifications,
        alone.notifications,
        "idle registrations are never notified"
    );
    prop_assert_eq!(
        watched_streams,
        alone_streams,
        "matching diff streams are bit-identical beside the idle set"
    );
    Ok(())
}

/// Commits the plan with the standing query set (plus `n_idle` idle
/// registrations) subscribed, checks every matching diff stream against
/// the fresh per-tick responses, and returns the registry's counters and
/// the matching streams.
fn replay_subscription_stream(
    plan: &[TickSpec],
    n_idle: usize,
) -> Result<(SubscribeMetrics, Vec<Vec<DiffBits>>), TestCaseError> {
    let mut pipeline = IngestPipeline::new(IngestConfig {
        timeline_capacity: plan.len(),
        ..IngestConfig::default()
    });
    for s in 0..N_STREAMS {
        pipeline.add_stream(&format!("s{s}"), stream_geo(s));
    }
    for term in TERMS {
        pipeline.intern(term);
    }
    let idle_terms: Vec<TermId> = (0..IDLE_TERMS)
        .map(|i| pipeline.intern(&format!("idle{i}")))
        .collect();

    let handle = pipeline.search_handle();
    let queries = subscription_set(plan.len());
    // Coalescing off: Block channels with room for every possible diff, so
    // the stream arrives complete and in commit order.
    let options = SubscriptionOptions::default()
        .capacity(plan.len() + 1)
        .overflow(OverflowPolicy::Block);
    let subs: Vec<_> = queries
        .iter()
        .map(|q| handle.subscribe(q, options))
        .collect::<Result<_, _>>()
        .expect("subscriptions register");
    // Held to the end of the run: a registration with no handle left is
    // disconnected, not idle.
    let idle: Vec<_> = (0..n_idle)
        .map(|i| {
            let query = Query::terms([idle_terms[i % IDLE_TERMS]]).top_k(10);
            handle.subscribe(&query, SubscriptionOptions::default())
        })
        .collect::<Result<_, _>>()
        .expect("idle subscriptions register");
    let baselines: Vec<Bits> = queries
        .iter()
        .map(|q| bits(&handle.query(q).expect("baseline query").results))
        .collect();

    // Commit the plan, recording the fresh per-query response after every
    // publish — the point-in-time sequence the diff streams must encode.
    let mut timeline: Vec<(u64, u64, Vec<Bits>)> = Vec::new();
    for (i, tick) in plan.iter().enumerate() {
        for (stream, bag) in tick {
            let mut counts = HashMap::new();
            for &(term, count) in bag {
                let id = pipeline.intern(TERMS[term]);
                *counts.entry(id).or_insert(0) += count;
            }
            pipeline.stage_document(StreamId(*stream as u32), counts);
        }
        pipeline.commit_tick();
        let generation = handle.generation();
        let fresh = queries
            .iter()
            .map(|q| bits(&handle.query(q).expect("fresh query").results))
            .collect();
        timeline.push((i as u64, generation, fresh));
    }

    // Replay every subscription's diff stream against the recorded
    // sequence.
    let mut streams = Vec::with_capacity(subs.len());
    for (qi, sub) in subs.iter().enumerate() {
        let diffs = sub.drain();
        prop_assert_eq!(sub.coalesced(), 0, "query {}: Block never coalesces", qi);
        prop_assert_eq!(sub.dropped(), 0, "query {}: Block never drops", qi);
        let mut state = baselines[qi].clone();
        let mut stream = diffs.iter().peekable();
        for (tick, generation, fresh) in &timeline {
            if stream.peek().is_some_and(|d| d.tick == Some(*tick)) {
                let diff = stream.next().expect("peeked diff");
                prop_assert_eq!(diff.coalesced, 0, "query {}: per-diff merge count", qi);
                prop_assert_eq!(
                    &diff.generation,
                    generation,
                    "query {}: tick {} generation",
                    qi,
                    tick
                );
                prop_assert_eq!(
                    bits(&diff.previous),
                    state,
                    "query {}: tick {} chains from the replayed state",
                    qi,
                    tick
                );
                // Membership deltas must agree with the two full lists.
                let entered = diff
                    .current
                    .iter()
                    .filter(|r| diff.previous.iter().all(|p| p.doc != r.doc))
                    .count();
                let left = diff
                    .previous
                    .iter()
                    .filter(|p| diff.current.iter().all(|r| r.doc != p.doc))
                    .count();
                prop_assert_eq!(diff.entered.len(), entered, "query {}: entered", qi);
                prop_assert_eq!(diff.left.len(), left, "query {}: left", qi);
                state = bits(&diff.current);
            }
            prop_assert_eq!(
                &state,
                &fresh[qi],
                "query {}: tick {} replayed state must match the fresh response",
                qi,
                tick
            );
        }
        prop_assert!(
            stream.next().is_none(),
            "query {}: diff stream has no tick beyond the plan",
            qi
        );
        streams.push(
            diffs
                .iter()
                .map(|d| (d.tick, d.generation, bits(&d.previous), bits(&d.current)))
                .collect(),
        );
    }
    let metrics = pipeline.subscriptions().metrics();
    drop(idle);
    Ok((metrics, streams))
}

proptest! {
    #[test]
    fn diff_stream_replays_to_fresh_queries_stlocal(plan in arb_plan()) {
        check_subscription_stream(&plan)?;
    }
}

/// Regression: a query repeating a term must behave identically to the
/// deduplicated query on **both** live paths — `query()` (planning, cache
/// identity, explanations) and `subscribe()` (registration identity and
/// the diff stream itself). Duplicates used to double-count the repeated
/// term's relevance×burstiness factor in Eq. 10.
#[test]
fn duplicate_terms_are_equivalent_through_query_and_subscribe() {
    let mut pipeline = IngestPipeline::new(IngestConfig {
        timeline_capacity: 20,
        ..IngestConfig::default()
    });
    for s in 0..N_STREAMS {
        pipeline.add_stream(&format!("s{s}"), stream_geo(s));
    }
    let alpha = pipeline.intern("alpha");
    let beta = pipeline.intern("beta");

    let handle = pipeline.search_handle();
    let once = Query::terms([alpha]).top_k(8);
    let thrice = Query::terms([alpha, alpha, alpha]).top_k(8);
    let sub_once = handle
        .subscribe(&once, SubscriptionOptions::default().capacity(16))
        .expect("subscribe deduplicated");
    let sub_thrice = handle
        .subscribe(&thrice, SubscriptionOptions::default().capacity(16))
        .expect("subscribe with duplicates");
    assert_eq!(
        sub_once.key(),
        sub_thrice.key(),
        "registration identity ignores repetition"
    );

    for tick in 0..20u32 {
        for s in 0..N_STREAMS {
            let mut counts = HashMap::new();
            // A mid-timeline burst on the close pair of streams so mining
            // produces patterns and the standing queries change state.
            let bursting = (8..11).contains(&tick) && s < 2;
            counts.insert(alpha, if bursting { 25 } else { 1 });
            counts.insert(beta, 2);
            pipeline.stage_document(StreamId(s as u32), counts);
        }
        pipeline.commit_tick();

        let r_once = handle.query(&once).expect("deduplicated query");
        let r_thrice = handle.query(&thrice).expect("duplicate query");
        assert_eq!(bits(&r_once.results), bits(&r_thrice.results));
        assert_eq!(r_once.stats.terms, r_thrice.stats.terms);
    }

    // The two diff streams are the same stream.
    let d_once = sub_once.drain();
    let d_thrice = sub_thrice.drain();
    assert!(!d_once.is_empty(), "commits produced diffs");
    assert_eq!(d_once.len(), d_thrice.len());
    for (a, b) in d_once.iter().zip(&d_thrice) {
        assert_eq!(a.tick, b.tick);
        assert_eq!(bits(&a.current), bits(&b.current));
    }

    // Explanations carry one entry per *distinct* term.
    let explained = handle
        .query(&Query::terms([alpha, alpha]).top_k(3).explain(true))
        .expect("explained query");
    assert!(!explained.explanations.is_empty());
    for exp in &explained.explanations {
        assert_eq!(exp.terms.len(), 1, "one factor per distinct term");
    }

    // Cache identity: the duplicate form hits the entry the deduplicated
    // form populated (and vice versa) instead of caching twice.
    let before = handle.metrics();
    let _ = handle.query(&once).expect("warm");
    let between = handle.metrics();
    let _ = handle.query(&thrice).expect("must hit the same entry");
    let after = handle.metrics();
    assert_eq!(
        after.cache_len, between.cache_len,
        "no second cache entry for the duplicate form"
    );
    assert_eq!(after.cache_hits, between.cache_hits + 1);
    assert!(before.cache_capacity > 0, "cache enabled by default");
}
