//! Chaos property tests: a durable pipeline hammered by *transient* store
//! faults must, once the disk heals, return to `Durable` with **zero
//! committed-tick loss** — the survivor's state and its on-disk recovery
//! are both bit-identical (`f64::to_bits`, full snapshot encoding) to a
//! pipeline that never saw a single fault.
//!
//! Unlike `recovery_proptests` (which synthesizes crash artifacts on a
//! *clean* run's files), this harness scripts live I/O errors into the
//! running pipeline through [`FaultSchedule`]: appends fail mid-frame,
//! fsyncs fail after the frame hit the disk, snapshot writes and renames
//! fail, restore attempts fail again. The degraded-mode state machine
//! buffers unlogged ticks and replays them on re-open; these tests pin
//! down that no interleaving of faults and heals can make it drop or
//! duplicate a committed tick.

use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use stb_core::STLocalConfig;
use stb_corpus::{StreamId, TermId};
use stb_geo::GeoPoint;
use stb_ingest::{DurabilityState, IngestConfig, IngestPipeline, MinerKind, RetryPolicy};
use stb_search::Query;
use stb_store::snapshot::encode_snapshot;
use stb_store::{FaultSchedule, FaultSite, InjectedFault, Store};

const N_STREAMS: usize = 3;
const TERMS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// One tick's documents: (stream index, [(term index, count)]).
type TickSpec = Vec<(usize, Vec<(usize, u32)>)>;

fn arb_plan() -> impl Strategy<Value = Vec<TickSpec>> {
    let count = (proptest::bool::ANY, 0u32..25)
        .prop_map(|(burst, c)| if burst { 15 + c } else { 1 + c % 2 });
    let doc = (
        0..N_STREAMS,
        prop::collection::vec((0..TERMS.len(), count), 1..3),
    );
    let tick = prop::collection::vec(doc, 0..3);
    prop::collection::vec(tick, 2..7)
}

/// One scripted fault: fired before commit `tick % plan.len()`, at one of
/// the injectable store syscall sites, optionally tearing the frame after
/// `torn` bytes (WAL appends only; elsewhere `torn` is ignored by the
/// sink). All scripted faults are transient — the contract under test is
/// recovery, and a permanent fault is *specified* to fail-stop.
#[derive(Debug, Clone, Copy)]
struct FaultEvent {
    tick: usize,
    site: usize,
    torn: Option<u8>,
}

const SITES: [FaultSite; 8] = [
    FaultSite::WalOpen,
    FaultSite::WalAppend,
    FaultSite::WalSync,
    FaultSite::WalReset,
    FaultSite::WalRead,
    FaultSite::SnapshotWrite,
    FaultSite::SnapshotSync,
    FaultSite::DirSync,
];

fn arb_script() -> impl Strategy<Value = Vec<FaultEvent>> {
    let event = (0usize..16, 0..SITES.len(), prop::option::of(0u8..40))
        .prop_map(|(tick, site, torn)| FaultEvent { tick, site, torn });
    prop::collection::vec(event, 0..10)
}

fn stream_geo(s: usize) -> GeoPoint {
    match s {
        0 => GeoPoint::new(0.0, 0.0),
        1 => GeoPoint::new(1.0, 1.0),
        _ => GeoPoint::new(40.0 + s as f64, 40.0),
    }
}

/// Generous buffer and an instant (zero-backoff) bounded retry: every
/// scripted storm is survivable, so any tick loss is a state-machine bug,
/// never "the policy said stop".
fn config(ticks: usize) -> IngestConfig {
    IngestConfig {
        timeline_capacity: ticks,
        retry: RetryPolicy::immediate(1),
        max_buffered_ticks: 64,
        ..IngestConfig::default()
    }
}

fn case_dir() -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "stb-chaos-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn setup_streams(pipeline: &mut IngestPipeline) {
    for s in 0..N_STREAMS {
        pipeline.add_stream(&format!("s{s}"), stream_geo(s));
    }
}

fn commit_plan(pipeline: &mut IngestPipeline, plan: &[TickSpec]) {
    for tick in plan {
        stage_tick(pipeline, tick);
        pipeline.commit_tick();
    }
}

fn stage_tick(pipeline: &mut IngestPipeline, docs: &TickSpec) {
    for (stream, bag) in docs {
        let mut counts = HashMap::new();
        for &(term, count) in bag {
            let id = pipeline.intern(TERMS[term]);
            *counts.entry(id).or_insert(0) += count;
        }
        pipeline.stage_document(StreamId(*stream as u32), counts);
    }
}

/// A never-durable, never-faulted reference over the same plan.
fn reference(plan: &[TickSpec]) -> IngestPipeline {
    let mut p = IngestPipeline::new(config(plan.len()));
    setup_streams(&mut p);
    commit_plan(&mut p, plan);
    p
}

/// Bit-for-bit equivalence (same discipline as `recovery_proptests`): the
/// full snapshot encoding plus top-k scores compared as raw bit patterns.
fn assert_equiv(
    label: &str,
    expect: &IngestPipeline,
    got: &IngestPipeline,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        expect.ticks_committed(),
        got.ticks_committed(),
        "{}: ticks",
        label
    );
    let se = encode_snapshot(&expect.export_snapshot_state());
    let sg = encode_snapshot(&got.export_snapshot_state());
    prop_assert_eq!(se, sg, "{}: snapshot encodings differ", label);
    let terms: Vec<TermId> = expect.collection().terms().collect();
    let he = expect.search_handle();
    let hg = got.search_handle();
    for &t in &terms {
        let q = Query::terms([t]).top_k(5);
        let re = he.query(&q).map(|r| r.results).unwrap_or_default();
        let rg = hg.query(&q).map(|r| r.results).unwrap_or_default();
        prop_assert_eq!(re.len(), rg.len(), "{}: result count", label);
        for (e, g) in re.iter().zip(&rg) {
            prop_assert_eq!(e.doc, g.doc, "{}: doc", label);
            prop_assert_eq!(e.score.to_bits(), g.score.to_bits(), "{}: score", label);
        }
    }
    Ok(())
}

/// Commits `plan` on a fault-scheduled durable pipeline, firing `script`'s
/// events before their ticks; returns the survivor (dir kept alive by the
/// caller).
fn faulted_run(
    dir: &PathBuf,
    plan: &[TickSpec],
    script: &[FaultEvent],
    faults: &FaultSchedule,
) -> IngestPipeline {
    let store = Store::open_with_faults(dir, faults.clone()).expect("open store");
    let (mut p, _) = IngestPipeline::durable_with_store(config(plan.len()), store).expect("open");
    setup_streams(&mut p);
    for (i, tick) in plan.iter().enumerate() {
        for ev in script.iter().filter(|ev| ev.tick % plan.len() == i) {
            let fault = match ev.torn {
                Some(n) => InjectedFault::torn(n as usize),
                None => InjectedFault::transient(),
            };
            faults.fail_next_at(SITES[ev.site], fault);
        }
        stage_tick(&mut p, tick);
        p.commit_tick();
    }
    p
}

proptest! {
    /// The tentpole invariant: any interleaving of transient faults across
    /// every injectable store site, followed by a heal, converges back to
    /// `Durable` — and both the surviving pipeline and a cold recovery
    /// from its directory are bit-identical to a never-faulted run.
    #[test]
    fn transient_fault_storms_heal_to_bit_identical_state(
        plan in arb_plan(),
        script in arb_script(),
    ) {
        let dir = case_dir();
        let faults = FaultSchedule::new();
        let mut survivor = faulted_run(&dir, &plan, &script, &faults);

        // The storm may have left the pipeline degraded (never
        // non-durable: every scripted fault is transient and the buffer
        // is generous). Heal the disk and demand full convergence.
        prop_assert!(
            survivor.durability_state() != DurabilityState::NonDurable,
            "transient-only storm must never fail-stop"
        );
        faults.heal();
        let state = survivor.try_recover_durability();
        prop_assert_eq!(state, DurabilityState::Durable, "healed disk must recover");
        prop_assert!(survivor.health().last_error.is_none());

        // Survivor ≡ never-faulted reference, bit for bit.
        let reference = reference(&plan);
        assert_equiv("survivor", &reference, &survivor)?;
        drop(survivor);

        // Zero committed-tick loss on disk: a cold, fault-free recovery
        // replays the WAL into the same bit-identical state.
        let (recovered, _) =
            IngestPipeline::durable(config(plan.len()), &dir).expect("recover");
        assert_equiv("cold recovery", &reference, &recovered)?;
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Same convergence under a stochastic storm (`FaultSchedule::storm`)
    /// with a mid-plan checkpoint in the line of fire: snapshot writes,
    /// renames, dir syncs, and the log rotation all absorb faults without
    /// losing a tick.
    #[test]
    fn stochastic_storm_with_checkpoint_converges(
        plan in arb_plan(),
        seed in 1u64..u64::MAX,
        fail_permille in 0u32..700,
    ) {
        let dir = case_dir();
        let faults = FaultSchedule::new();
        let store = Store::open_with_faults(&dir, faults.clone()).expect("open store");
        let (mut survivor, _) =
            IngestPipeline::durable_with_store(config(plan.len()), store).expect("open");
        setup_streams(&mut survivor);
        faults.storm(seed, 200, fail_permille);
        let mid = plan.len() / 2;
        for (i, tick) in plan.iter().enumerate() {
            stage_tick(&mut survivor, tick);
            survivor.commit_tick();
            if i + 1 == mid {
                // Checkpoint failures under the storm are legitimate (the
                // error is surfaced); durability of committed ticks is not
                // allowed to regress to fail-stop.
                let _ = survivor.checkpoint();
            }
        }
        prop_assert!(
            survivor.durability_state() != DurabilityState::NonDurable,
            "transient-only storm must never fail-stop"
        );
        faults.heal();
        prop_assert_eq!(survivor.try_recover_durability(), DurabilityState::Durable);

        let reference = reference(&plan);
        assert_equiv("storm survivor", &reference, &survivor)?;
        drop(survivor);
        let (recovered, _) =
            IngestPipeline::durable(config(plan.len()), &dir).expect("recover");
        assert_equiv("storm cold recovery", &reference, &recovered)?;
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A storm long enough to overflow a tiny buffer *and* exhaust every
/// restore attempt fail-stops deterministically — and stays fail-stopped
/// after the disk heals until a checkpoint explicitly revives it.
#[test]
fn unsurvivable_storm_fail_stops_and_checkpoint_revives() {
    let dir = case_dir();
    let faults = FaultSchedule::new();
    let store = Store::open_with_faults(&dir, faults.clone()).expect("open store");
    let config = IngestConfig {
        timeline_capacity: 8,
        miner: MinerKind::STLocal(STLocalConfig::default()),
        retry: RetryPolicy::none(),
        max_buffered_ticks: 1,
        ..IngestConfig::default()
    };
    let (mut p, _) = IngestPipeline::durable_with_store(config, store).expect("open");
    let s = p.add_stream("A", GeoPoint::new(0.0, 0.0));
    let t = p.intern("alpha");
    faults.storm(11, 10_000, 1000);
    for _ in 0..4 {
        p.stage_document(s, HashMap::from([(t, 2)]));
        p.commit_tick();
    }
    assert_eq!(p.durability_state(), DurabilityState::NonDurable);
    faults.heal();
    // Healing alone must not silently resurrect a fail-stopped log (ticks
    // were dropped from it; only a full snapshot makes the state safe).
    assert_eq!(p.try_recover_durability(), DurabilityState::NonDurable);
    p.checkpoint().expect("checkpoint revives");
    assert_eq!(p.durability_state(), DurabilityState::Durable);

    // The revived directory recovers everything the survivor held.
    let expect = encode_snapshot(&p.export_snapshot_state());
    drop(p);
    let config = IngestConfig {
        timeline_capacity: 8,
        miner: MinerKind::STLocal(STLocalConfig::default()),
        ..IngestConfig::default()
    };
    let (recovered, report) = IngestPipeline::durable(config, &dir).expect("recover");
    assert!(report.snapshot_loaded);
    assert_eq!(recovered.ticks_committed(), 4);
    assert_eq!(expect, encode_snapshot(&recovered.export_snapshot_state()));
    let _ = std::fs::remove_dir_all(&dir);
}
