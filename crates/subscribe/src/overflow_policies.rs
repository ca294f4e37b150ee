//! The overflow-policy contract, policy by policy:
//!
//! * `Block` never loses a diff — every committed change reaches the
//!   subscriber, in order, even when the channel fills.
//! * `CoalesceLatest` converges — however many intermediate states were
//!   merged away, the last drained diff's `current` is bit-identical to a
//!   fresh point-in-time query, and the merge count is reported.
//! * `DropCounted` keeps the oldest queued diffs and counts exactly the
//!   overflow.
//!
//! Plus the registry mechanics the policies sit on: canonical
//! subscription identity (duplicate terms collapse), dirty-term
//! intersection (non-matching registrations are never evaluated),
//! unchanged-suppression, and disconnect garbage collection.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::{OverflowPolicy, SubscriptionOptions, SubscriptionRegistry};
use stb_core::CombinatorialPattern;
use stb_corpus::{CollectionBuilder, StreamId, TermId};
use stb_geo::GeoPoint;
use stb_search::{EngineConfig, Query, ServingFront, ShardedEngine};
use stb_timeseries::TimeInterval;

/// A small two-term fixture: `flood` is the subscribed term whose
/// patterns the test re-mines tick by tick; `cricket` stays quiet.
struct Fixture {
    engine: ShardedEngine,
    registry: Arc<SubscriptionRegistry>,
    front: Arc<ServingFront>,
    flood: TermId,
    cricket: TermId,
    tick: u64,
}

fn pattern(score: f64) -> CombinatorialPattern {
    CombinatorialPattern::new(
        vec![StreamId(0), StreamId(1)],
        TimeInterval::new(4, 6),
        score,
        vec![],
    )
}

impl Fixture {
    fn new() -> Self {
        let mut b = CollectionBuilder::new(10);
        let flood = b.dict_mut().intern("flood");
        let cricket = b.dict_mut().intern("cricket");
        let s0 = b.add_stream("A", GeoPoint::new(0.0, 0.0));
        let s1 = b.add_stream("B", GeoPoint::new(1.0, 1.0));
        for ts in 0..10 {
            for &s in &[s0, s1] {
                let mut counts = HashMap::new();
                counts.insert(cricket, 3u32);
                counts.insert(flood, 1 + (ts as u32) % 3);
                b.add_document(s, ts, counts);
            }
        }
        let mut engine = ShardedEngine::new(Arc::new(b.build()), EngineConfig::default(), 4, 16);
        engine.set_patterns(flood, &[pattern(1.0)]);
        engine.finalize_with_threads(1);
        engine.publish();
        let front = engine.front();
        let registry = Arc::new(SubscriptionRegistry::new(Arc::clone(&front)));
        Self {
            engine,
            registry,
            front,
            flood,
            cricket,
            tick: 0,
        }
    }

    /// One "commit": re-mine `flood` with a new pattern score, publish a
    /// generation, and run the notify pass with `flood` dirty.
    fn commit_flood(&mut self, score: f64) {
        self.engine.set_patterns(self.flood, &[pattern(score)]);
        self.engine.publish();
        self.tick += 1;
        let dirty: BTreeSet<TermId> = [self.flood].into_iter().collect();
        self.registry
            .on_commit(self.tick, &dirty, |_| Arc::default());
    }
}

#[test]
fn block_policy_never_loses_a_diff() {
    let mut fx = Fixture::new();
    let handle = fx
        .registry
        .subscribe(
            &Query::terms([fx.flood]).top_k(5),
            SubscriptionOptions::default()
                .capacity(2)
                .overflow(OverflowPolicy::Block),
        )
        .unwrap();

    // Drain from another thread with a delay, so the committer genuinely
    // blocks on the full channel and then completes every send.
    const COMMITS: usize = 8;
    let receiver = {
        let handle = handle.clone();
        std::thread::spawn(move || {
            let mut got = Vec::new();
            while got.len() < COMMITS {
                std::thread::sleep(Duration::from_millis(5));
                match handle.recv_timeout(Duration::from_secs(20)) {
                    Some(d) => got.push(d),
                    None => break,
                }
            }
            got
        })
    };
    for i in 0..COMMITS {
        fx.commit_flood(2.0 + i as f64);
    }
    let got = receiver.join().unwrap();

    assert_eq!(got.len(), COMMITS, "no diff may be lost under Block");
    let ticks: Vec<u64> = got.iter().map(|d| d.tick.unwrap()).collect();
    assert_eq!(ticks, (1..=COMMITS as u64).collect::<Vec<_>>());
    // The stream chains: each diff's previous is its predecessor's
    // current, and the last current matches a fresh query bit-for-bit.
    for pair in got.windows(2) {
        assert_eq!(pair[1].previous, pair[0].current);
    }
    let fresh = fx.front.query(&Query::terms([fx.flood]).top_k(5)).unwrap();
    let last = got.last().unwrap();
    assert_eq!(last.current.len(), fresh.results.len());
    for (a, b) in last.current.iter().zip(&fresh.results) {
        assert_eq!(a.doc, b.doc);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
    }
    assert_eq!(handle.dropped(), 0);
    assert_eq!(handle.coalesced(), 0);
}

#[test]
fn coalesce_latest_converges_to_final_state() {
    let mut fx = Fixture::new();
    let handle = fx
        .registry
        .subscribe(
            &Query::terms([fx.flood]).top_k(5),
            SubscriptionOptions::default()
                .capacity(1)
                .overflow(OverflowPolicy::CoalesceLatest),
        )
        .unwrap();
    let baseline = fx.front.query(&Query::terms([fx.flood]).top_k(5)).unwrap();

    const COMMITS: usize = 6;
    for i in 0..COMMITS {
        fx.commit_flood(3.0 + i as f64);
    }

    let diffs = handle.drain();
    assert_eq!(diffs.len(), 1, "capacity-1 coalescing leaves one diff");
    let diff = &diffs[0];
    assert_eq!(diff.coalesced as usize, COMMITS - 1);
    assert_eq!(handle.coalesced() as usize, COMMITS - 1);
    assert_eq!(diff.tick, Some(COMMITS as u64), "newest tick wins");
    // Spans the whole window: previous is the pre-commit baseline,
    // current is bit-identical to a fresh query now.
    assert_eq!(diff.previous, baseline.results);
    let fresh = fx.front.query(&Query::terms([fx.flood]).top_k(5)).unwrap();
    assert_eq!(diff.current.len(), fresh.results.len());
    for (a, b) in diff.current.iter().zip(&fresh.results) {
        assert_eq!(a.doc, b.doc);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
    }
    assert!(handle.drain().is_empty());
}

#[test]
fn drop_counted_keeps_oldest_and_counts_overflow() {
    let mut fx = Fixture::new();
    let handle = fx
        .registry
        .subscribe(
            &Query::terms([fx.flood]).top_k(5),
            SubscriptionOptions::default()
                .capacity(2)
                .overflow(OverflowPolicy::DropCounted),
        )
        .unwrap();

    const COMMITS: usize = 7;
    for i in 0..COMMITS {
        fx.commit_flood(4.0 + i as f64);
    }

    assert_eq!(handle.pending(), 2);
    assert_eq!(handle.dropped() as usize, COMMITS - 2);
    let metrics = fx.registry.metrics();
    assert_eq!(metrics.dropped as usize, COMMITS - 2);
    assert_eq!(metrics.notifications, 2);
    // The queue keeps history from the front: the first two commits.
    let diffs = handle.drain();
    assert_eq!(diffs[0].tick, Some(1));
    assert_eq!(diffs[1].tick, Some(2));
}

#[test]
fn drop_counted_diff_stream_stays_contiguous_across_drops() {
    let mut fx = Fixture::new();
    let handle = fx
        .registry
        .subscribe(
            &Query::terms([fx.flood]).top_k(5),
            SubscriptionOptions::default()
                .capacity(1)
                .overflow(OverflowPolicy::DropCounted),
        )
        .unwrap();

    fx.commit_flood(2.0); // delivered, fills the capacity-1 queue
    fx.commit_flood(3.0); // dropped
    fx.commit_flood(4.0); // dropped
    let first = handle.drain();
    assert_eq!(first.len(), 1);
    assert_eq!(handle.dropped(), 2);

    // The next delivered diff spans the dropped window: its `previous`
    // is the last state the subscriber actually received (tick 1), not
    // the phantom tick-3 state it never saw.
    fx.commit_flood(5.0);
    let second = handle.drain();
    assert_eq!(second.len(), 1);
    assert_eq!(second[0].tick, Some(4));
    assert_eq!(
        second[0].previous, first[0].current,
        "`previous` must name a state the subscriber received"
    );
}

/// A committer blocked on a full `Block` channel must wake and observe
/// the disconnect when the last handle is dropped concurrently — the commit path may never wedge on an
/// abandoned subscription. The disconnect notification takes the queue
/// mutex before signalling so the wakeup cannot be lost between the
/// sender's disconnect check and its wait.
#[test]
fn blocked_sender_wakes_when_last_handle_drops() {
    let mut fx = Fixture::new();
    let handle = fx
        .registry
        .subscribe(
            &Query::terms([fx.flood]).top_k(5),
            SubscriptionOptions::default()
                .capacity(1)
                .overflow(OverflowPolicy::Block),
        )
        .unwrap();
    fx.commit_flood(2.0); // fills the queue
    fx.engine.set_patterns(fx.flood, &[pattern(3.0)]);
    fx.engine.publish();

    let registry = Arc::clone(&fx.registry);
    let flood = fx.flood;
    let committer = std::thread::spawn(move || {
        let dirty: BTreeSet<TermId> = [flood].into_iter().collect();
        registry.on_commit(2, &dirty, |_| Arc::default())
    });
    std::thread::sleep(Duration::from_millis(50));
    drop(handle);
    let report = committer.join().unwrap();
    assert_eq!(report.notified, 0);
    assert_eq!(report.disconnected, 1, "sender observed the disconnect");
    assert_eq!(fx.registry.len(), 0, "registration garbage-collected");
}

/// Registering while commits race: a fresh registration must never be
/// garbage-collected before its handle exists, its baseline must be
/// ordered against the notify pass (no commit falls silently between
/// snapshot and index insert).
#[test]
fn subscribing_under_concurrent_commits_never_loses_a_registration() {
    let fx = Fixture::new();
    let registry = Arc::clone(&fx.registry);
    let front = Arc::clone(&fx.front);
    let flood = fx.flood;
    let mut engine = fx.engine;
    let dirty: BTreeSet<TermId> = [flood].into_iter().collect();

    let stop = Arc::new(AtomicBool::new(false));
    let committer = {
        let registry = Arc::clone(&registry);
        let stop = Arc::clone(&stop);
        let dirty = dirty.clone();
        std::thread::spawn(move || {
            let mut tick = 0u64;
            let mut score = 1.0;
            while !stop.load(Ordering::SeqCst) {
                tick += 1;
                score += 1.0;
                engine.set_patterns(flood, &[pattern(score)]);
                engine.publish();
                registry.on_commit(tick, &dirty, |_| Arc::default());
            }
            (engine, tick)
        })
    };

    const SUBS: usize = 50;
    let mut handles = Vec::with_capacity(SUBS);
    for _ in 0..SUBS {
        handles.push(
            registry
                .subscribe(
                    &Query::terms([flood]).top_k(5),
                    SubscriptionOptions::default(),
                )
                .unwrap(),
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, Ordering::SeqCst);
    let (mut engine, tick) = committer.join().unwrap();

    assert_eq!(
        registry.len(),
        SUBS,
        "no live registration may be garbage-collected"
    );

    // One final commit: every registration hears it and converges to the
    // fresh point-in-time state, bit-for-bit.
    engine.set_patterns(flood, &[pattern(1000.0)]);
    engine.publish();
    registry.on_commit(tick + 1, &dirty, |_| Arc::default());
    let fresh = front.query(&Query::terms([flood]).top_k(5)).unwrap();
    for handle in &handles {
        let diffs = handle.drain();
        let last = diffs.last().expect("every registration hears the commit");
        for pair in diffs.windows(2) {
            assert!(
                pair[0].generation <= pair[1].generation,
                "generations arrive in order"
            );
        }
        assert_eq!(last.current.len(), fresh.results.len());
        for (a, b) in last.current.iter().zip(&fresh.results) {
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }
}

#[test]
fn non_matching_subscriptions_are_never_evaluated() {
    let mut fx = Fixture::new();
    let _quiet = fx
        .registry
        .subscribe(
            &Query::terms([fx.cricket]).top_k(5),
            SubscriptionOptions::default(),
        )
        .unwrap();
    for i in 0..5 {
        fx.commit_flood(2.0 + i as f64);
    }
    let metrics = fx.registry.metrics();
    assert_eq!(
        metrics.evaluations, 0,
        "a registration outside the dirty set costs nothing"
    );
    assert_eq!(metrics.notifications, 0);
}

#[test]
fn duplicate_terms_collapse_to_one_canonical_identity() {
    let fx = Fixture::new();
    let once = fx
        .registry
        .subscribe(
            &Query::terms([fx.flood]).top_k(5),
            SubscriptionOptions::default(),
        )
        .unwrap();
    let twice = fx
        .registry
        .subscribe(
            &Query::terms([fx.flood, fx.flood, fx.flood]).top_k(5),
            SubscriptionOptions::default(),
        )
        .unwrap();
    assert_eq!(once.key(), twice.key(), "registry keys agree");
    assert_eq!(twice.key().terms(), &[fx.flood]);
}

#[test]
fn unchanged_suppression() {
    let mut fx = Fixture::new();
    let handle = fx
        .registry
        .subscribe(
            &Query::terms([fx.flood]).top_k(5),
            SubscriptionOptions::default(),
        )
        .unwrap();

    // Re-publishing the identical pattern changes nothing: the
    // registration is evaluated (the term is dirty) but stays silent.
    fx.commit_flood(1.0);
    assert!(handle.drain().is_empty());
    let metrics = fx.registry.metrics();
    assert_eq!(metrics.evaluations, 1);
    assert_eq!(metrics.notifications, 0);
}

#[test]
fn dropping_every_handle_garbage_collects_the_registration() {
    let mut fx = Fixture::new();
    let handle = fx
        .registry
        .subscribe(
            &Query::terms([fx.flood]).top_k(5),
            SubscriptionOptions::default(),
        )
        .unwrap();
    let clone = handle.clone();
    drop(handle);
    fx.commit_flood(2.0);
    assert_eq!(fx.registry.len(), 1, "a live clone keeps the registration");
    assert!(clone.try_recv().is_some());
    drop(clone);
    fx.commit_flood(3.0);
    assert_eq!(fx.registry.len(), 0, "last drop disconnects");
}

#[test]
fn vacuous_standing_queries_are_rejected() {
    let fx = Fixture::new();
    let err = fx
        .registry
        .subscribe(
            &Query::text("nosuchword").unknown_words(stb_search::UnknownWords::EmptyResponse),
            SubscriptionOptions::default(),
        )
        .unwrap_err();
    assert!(matches!(err, stb_search::QueryError::EmptyQuery));
}
