//! Crash-matrix property tests: recovery after *any* crash point must be
//! byte-identical to an engine that never crashed.
//!
//! The harness never instruments the live pipeline. Instead it runs a
//! **clean** durable pipeline to completion, captures the on-disk WAL and
//! snapshot bytes, and then synthesizes the exact artifact a crash at a
//! random offset would have left (via `stb_store::fault`): torn writes,
//! short writes, partial snapshot temp files, and the
//! rename-before-log-truncate window. Recovery from the damaged directory
//! must then agree **bit-for-bit** (`f64::to_bits`, full snapshot
//! encoding) with a reference pipeline that committed the same prefix of
//! ticks and never touched disk — and keep agreeing after the recovered
//! pipeline resumes committing the rest of the plan.

use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use stb_core::{STLocal, STLocalConfig};
use stb_corpus::{Collection, CollectionBuilder, StreamId, TermId};
use stb_geo::GeoPoint;
use stb_ingest::{IngestConfig, IngestPipeline, SearchHandle};
use stb_search::{BurstySearchEngine, EngineConfig, Query, SearchResult};
use stb_store::snapshot::encode_snapshot;
use stb_store::{crash_artifact, truncate_bytes, FaultKind, Store, SNAPSHOT_FILE, WAL_FILE};

const N_STREAMS: usize = 3;
const TERMS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// One tick's documents: (stream index, [(term index, count)]).
type TickSpec = Vec<(usize, Vec<(usize, u32)>)>;

/// A corpus plan: one `TickSpec` per timestamp, with counts skewed so
/// bursts (and therefore non-trivial patterns) actually occur.
fn arb_plan() -> impl Strategy<Value = Vec<TickSpec>> {
    let count = (proptest::bool::ANY, 0u32..25)
        .prop_map(|(burst, c)| if burst { 15 + c } else { 1 + c % 2 });
    let doc = (
        0..N_STREAMS,
        prop::collection::vec((0..TERMS.len(), count), 1..3),
    );
    let tick = prop::collection::vec(doc, 0..4);
    prop::collection::vec(tick, 2..9)
}

fn stream_geo(s: usize) -> GeoPoint {
    match s {
        0 => GeoPoint::new(0.0, 0.0),
        1 => GeoPoint::new(1.0, 1.0),
        _ => GeoPoint::new(40.0 + s as f64, 40.0),
    }
}

fn config(ticks: usize, cache_capacity: usize) -> IngestConfig {
    IngestConfig {
        timeline_capacity: ticks,
        cache_capacity,
        ..IngestConfig::default()
    }
}

/// A fresh, empty store directory unique to this test case.
fn case_dir() -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "stb-recovery-{}-{}",
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

/// Stages a slice of one tick's documents without committing (terms
/// interned in plan order, as `commit_plan` would).
fn stage_docs(pipeline: &mut IngestPipeline, docs: &[(usize, Vec<(usize, u32)>)]) {
    for (stream, bag) in docs {
        let mut counts = HashMap::new();
        for &(term, count) in bag {
            let id = pipeline.intern(TERMS[term]);
            *counts.entry(id).or_insert(0) += count;
        }
        pipeline.stage_document(StreamId(*stream as u32), counts);
    }
}

/// Stages and commits `plan` (streams and terms interned in plan order).
fn commit_plan(pipeline: &mut IngestPipeline, plan: &[TickSpec]) {
    for tick in plan {
        stage_docs(pipeline, tick);
        pipeline.commit_tick();
    }
}

/// A never-durable reference pipeline committing `plan` with an explicit
/// timeline capacity (the capacity must match the durable run's, even when
/// only a prefix of the plan is committed — the tensor's timeline length
/// is part of the byte-identical comparison).
fn reference(capacity: usize, plan: &[TickSpec], cache_capacity: usize) -> IngestPipeline {
    let mut p = IngestPipeline::new(config(capacity, cache_capacity));
    setup_streams(&mut p);
    commit_plan(&mut p, plan);
    p
}

/// Runs a clean durable pipeline over the full plan and returns the store
/// directory (pipeline dropped, nothing checkpointed unless asked).
fn clean_durable_run(
    plan: &[TickSpec],
    cache_capacity: usize,
    checkpoint_after: Option<usize>,
) -> PathBuf {
    let dir = case_dir();
    let (mut p, _) =
        IngestPipeline::durable(config(plan.len(), cache_capacity), &dir).expect("open");
    setup_streams(&mut p);
    if let Some(c) = checkpoint_after {
        commit_plan(&mut p, &plan[..c]);
        p.checkpoint().expect("checkpoint");
        commit_plan(&mut p, &plan[c..]);
    } else {
        commit_plan(&mut p, plan);
    }
    assert!(
        p.durability_state().is_durable(),
        "clean run must stay durable"
    );
    dir
}

fn handle_run(handle: &SearchHandle, terms: &[TermId], k: usize) -> Vec<SearchResult> {
    handle
        .query(&Query::terms(terms.iter().copied()).top_k(k))
        .map(|r| r.results)
        .unwrap_or_default()
}

/// Bit-for-bit equivalence: the full snapshot encoding (collection inputs,
/// patterns, pending bookkeeping), what recovery re-derives from it (every
/// term's frequency series and full ranked list), plus top-k query results.
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
    let state_e = expect.export_snapshot_state();
    let state_g = got.export_snapshot_state();
    prop_assert_eq!(&state_e.pending, &state_g.pending, "{}: pending", label);
    prop_assert_eq!(&state_e.patterns, &state_g.patterns, "{}: patterns", label);
    let mut ce = stb_store::Enc::new();
    stb_store::snapshot::encode_collection(&mut ce, &state_e.collection);
    let mut cg = stb_store::Enc::new();
    stb_store::snapshot::encode_collection(&mut cg, &state_g.collection);
    prop_assert_eq!(ce.into_bytes(), cg.into_bytes(), "{}: collection", label);
    let se = encode_snapshot(&state_e);
    let sg = encode_snapshot(&state_g);
    prop_assert_eq!(se, sg, "{}: snapshot encodings differ", label);
    // The snapshot carries neither the tensor nor the postings: compare
    // the re-derived ones directly. A single-term query with `k` at least
    // the document count returns the term's whole posting list.
    let (ce, cg) = (expect.collection(), got.collection());
    let all = ce.documents().len().max(1);
    let (he, hg) = (expect.search_handle(), got.search_handle());
    for term in ce.terms() {
        for s in ce.streams() {
            let bits = |c: &stb_corpus::Collection| -> Vec<u64> {
                c.term_stream_series(term, s.id)
                    .iter()
                    .map(|f| f.to_bits())
                    .collect()
            };
            prop_assert_eq!(bits(&ce), bits(&cg), "{}: series of {:?}", label, term);
        }
        let re = handle_run(&he, &[term], all);
        let rg = handle_run(&hg, &[term], all);
        prop_assert_eq!(re.len(), rg.len(), "{}: list length of {:?}", label, term);
        for (e, g) in re.iter().zip(&rg) {
            prop_assert_eq!(e.doc, g.doc, "{}: list of {:?}", label, term);
            prop_assert_eq!(
                e.score.to_bits(),
                g.score.to_bits(),
                "{}: list of {:?}",
                label,
                term
            );
        }
    }
    let terms: Vec<TermId> = ce.terms().collect();
    let mut queries: Vec<Vec<TermId>> = terms.iter().map(|&t| vec![t]).collect();
    if terms.len() >= 2 {
        queries.push(terms.clone());
    }
    for query in &queries {
        for k in [1, 3, 10] {
            let re = handle_run(&he, query, k);
            let rg = handle_run(&hg, query, k);
            prop_assert_eq!(re.len(), rg.len(), "{}: result count", label);
            for (e, g) in re.iter().zip(&rg) {
                prop_assert_eq!(e.doc, g.doc, "{}: doc", label);
                prop_assert_eq!(
                    e.score.to_bits(),
                    g.score.to_bits(),
                    "{}: score {} vs {}",
                    label,
                    e.score,
                    g.score
                );
            }
        }
    }
    Ok(())
}

/// Recovers from `dir`, checks the recovered prefix against a fresh
/// reference, then resumes committing the rest of the plan and checks
/// again against the full-plan reference.
fn recover_and_check(
    dir: &Path,
    plan: &[TickSpec],
    cache_capacity: usize,
) -> Result<(), TestCaseError> {
    let (mut recovered, _report) = IngestPipeline::durable(config(plan.len(), cache_capacity), dir)
        .expect("recovery must repair the tail, not fail");
    let k = recovered.ticks_committed();
    prop_assert!(k <= plan.len(), "recovered more ticks than committed");
    // Streams ride in tick 0's WAL record, so a recovery that salvaged no
    // ticks is a truly empty pipeline — the reference must be too.
    let mut prefix_ref = IngestPipeline::new(config(plan.len(), cache_capacity));
    if k > 0 {
        setup_streams(&mut prefix_ref);
        commit_plan(&mut prefix_ref, &plan[..k]);
    }
    assert_equiv("recovered prefix", &prefix_ref, &recovered)?;

    // Resume: the recovered pipeline must keep agreeing with a pipeline
    // that never crashed, through the end of the plan.
    if recovered.collection().n_streams() == 0 {
        setup_streams(&mut recovered);
    }
    commit_plan(&mut recovered, &plan[k..]);
    prop_assert!(
        recovered.durability_state().is_durable(),
        "resume must stay durable"
    );
    let full_ref = reference(plan.len(), plan, cache_capacity);
    assert_equiv("resumed run", &full_ref, &recovered)?;
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

proptest! {
    /// Crash during a WAL append: the log is cut (short write) or mangled
    /// (torn write) at an arbitrary offset past the header. Recovery keeps
    /// the longest valid record prefix and resumes from there.
    #[test]
    fn crash_during_wal_append(
        plan in arb_plan(),
        cache in proptest::bool::ANY,
        torn in proptest::bool::ANY,
        cut in 0u64..1_000_000,
        chunk in 1usize..64,
    ) {
        let cache_capacity = if cache { 64 } else { 0 };
        let dir = clean_durable_run(&plan, cache_capacity, None);
        let wal_path = dir.join(WAL_FILE);
        let clean = std::fs::read(&wal_path).expect("clean WAL");
        // The header is written and synced at WAL creation; append crashes
        // only ever damage bytes after it.
        let header = stb_store::WAL_HEADER_LEN;
        let crash_at = header + cut % (clean.len() as u64 - header + 1);
        let kind = if torn { FaultKind::Torn } else { FaultKind::ShortWrite };
        std::fs::write(&wal_path, crash_artifact(&clean, kind, crash_at, chunk))
            .expect("write artifact");
        recover_and_check(&dir, &plan, cache_capacity)?;
    }

    /// Crash while writing a snapshot: the temp file holds a prefix of the
    /// new snapshot, the rename never happened. Recovery must ignore the
    /// temp file entirely and rebuild from the old snapshot + WAL.
    #[test]
    fn crash_during_snapshot_write(
        plan in arb_plan(),
        frac in 0.0f64..1.0,
        checkpoint_frac in 0.0f64..1.0,
    ) {
        let checkpoint_after = (checkpoint_frac * plan.len() as f64) as usize;
        let dir = clean_durable_run(&plan, 0, Some(checkpoint_after));
        // Synthesize a torn snapshot *temp* file from the real snapshot
        // bytes: a later checkpoint crashed mid-write.
        let clean_snap = std::fs::read(dir.join(SNAPSHOT_FILE)).expect("snapshot");
        let cut = (frac * clean_snap.len() as f64) as usize;
        let tmp = dir.join(SNAPSHOT_FILE).with_extension("stb.tmp");
        std::fs::write(&tmp, truncate_bytes(clean_snap, cut)).expect("write tmp");
        recover_and_check(&dir, &plan, 0)?;
    }

    /// Crash in the window between the snapshot rename and the WAL
    /// truncation: the new snapshot is durable but the log still holds
    /// every tick it covers. Recovery must skip the already-snapshotted
    /// records instead of double-applying them.
    #[test]
    fn crash_between_rename_and_wal_reset(
        plan in arb_plan(),
    ) {
        let dir = clean_durable_run(&plan, 0, None);
        // Write a full snapshot of the final state through a second store
        // handle WITHOUT resetting the WAL — exactly what the directory
        // looks like if the process dies right after the rename.
        {
            let (p, _) = IngestPipeline::durable(config(plan.len(), 0), &dir)
                .expect("reload for state export");
            let store = Store::open(&dir).expect("store");
            store
                .write_snapshot(&p.export_snapshot_state())
                .expect("snapshot");
        }
        let (recovered, report) =
            IngestPipeline::durable(config(plan.len(), 0), &dir).expect("recover");
        prop_assert!(report.snapshot_loaded);
        prop_assert_eq!(report.wal_ticks_replayed, 0, "all WAL ticks predate the snapshot");
        prop_assert_eq!(report.wal_ticks_skipped, plan.len());
        let full_ref = reference(plan.len(), &plan, 0);
        assert_equiv("rename window", &full_ref, &recovered)?;
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpoint taken while documents are staged (mid-tick — explicitly
    /// a non-quiescent point per the `PendingState` docs): the snapshot's
    /// pending state restores the pre-checkpoint staged documents, and the
    /// WAL record that later commits the tick holds *every* staged document
    /// (the log was reset at checkpoint time). Recovery must treat the
    /// record as authoritative instead of applying the pre-checkpoint
    /// documents twice.
    #[test]
    fn checkpoint_while_documents_are_staged(
        plan in arb_plan(),
        cache in proptest::bool::ANY,
        at_frac in 0.0f64..1.0,
        split_frac in 0.0f64..1.0,
        commit_after in proptest::bool::ANY,
    ) {
        let cache_capacity = if cache { 64 } else { 0 };
        let at = (at_frac * (plan.len() - 1) as f64) as usize;
        let split = ((split_frac * (plan[at].len() + 1) as f64) as usize).min(plan[at].len());
        let dir = case_dir();
        {
            let (mut p, _) =
                IngestPipeline::durable(config(plan.len(), cache_capacity), &dir)
                    .expect("open");
            setup_streams(&mut p);
            commit_plan(&mut p, &plan[..at]);
            stage_docs(&mut p, &plan[at][..split]);
            p.checkpoint().expect("checkpoint mid-stage");
            if commit_after {
                stage_docs(&mut p, &plan[at][split..]);
                p.commit_tick();
            }
            prop_assert!(p.durability_state().is_durable(), "clean run must stay durable");
        }
        if commit_after {
            // The checkpointed tick was committed: the WAL holds its full
            // record, and recovery must land on exactly one copy of every
            // document. `recover_and_check` then resumes the rest of the
            // plan and compares against the never-crashed reference.
            recover_and_check(&dir, &plan, cache_capacity)?;
        } else {
            // Crash after the checkpoint but before the commit: only the
            // pre-checkpoint staged documents were made durable, and they
            // come back *staged*, not committed.
            let (mut recovered, report) =
                IngestPipeline::durable(config(plan.len(), cache_capacity), &dir)
                    .expect("recover");
            prop_assert!(report.snapshot_loaded);
            prop_assert_eq!(recovered.ticks_committed(), at);
            let mut reference =
                IngestPipeline::new(config(plan.len(), cache_capacity));
            setup_streams(&mut reference);
            commit_plan(&mut reference, &plan[..at]);
            stage_docs(&mut reference, &plan[at][..split]);
            assert_equiv("mid-stage recovery", &reference, &recovered)?;

            // Resume both: finish the tick, then the rest of the plan.
            for p in [&mut recovered, &mut reference] {
                stage_docs(p, &plan[at][split..]);
                p.commit_tick();
                commit_plan(p, &plan[at + 1..]);
            }
            prop_assert!(recovered.durability_state().is_durable(), "resume must stay durable");
            assert_equiv("mid-stage resumed", &reference, &recovered)?;
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Clean shutdown between ticks (possibly mid-plan with a checkpoint):
    /// recovery resumes exactly where the run stopped.
    #[test]
    fn crash_between_ticks(
        plan in arb_plan(),
        cache in proptest::bool::ANY,
        stop_frac in 0.0f64..1.0,
        with_checkpoint in proptest::bool::ANY,
    ) {
        let cache_capacity = if cache { 64 } else { 0 };
        let stop = 1 + (stop_frac * (plan.len() - 1) as f64) as usize;
        let dir = case_dir();
        {
            let (mut p, _) =
                IngestPipeline::durable(config(plan.len(), cache_capacity), &dir)
                    .expect("open");
            setup_streams(&mut p);
            commit_plan(&mut p, &plan[..stop]);
            if with_checkpoint {
                p.checkpoint().expect("checkpoint");
            }
        }
        recover_and_check(&dir, &plan, cache_capacity)?;
    }
}

/// One operation of the whole-system durability model.
#[derive(Debug, Clone)]
enum Op {
    AddStream,
    /// A document on stream `pick % streams` (skipped with no streams).
    Stage(usize, Vec<(usize, u32)>),
    Commit,
    Checkpoint,
    CrashRecover,
    /// A one-term and a two-term query.
    Query(usize, usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let count = (proptest::bool::ANY, 0u32..25)
        .prop_map(|(burst, c)| if burst { 15 + c } else { 1 + c % 2 });
    let bag = prop::collection::vec((0..TERMS.len(), count), 1..3);
    let op = (0u32..20, 0usize..8, bag, 0..TERMS.len(), 0..TERMS.len()).prop_map(
        |(kind, pick, bag, a, b)| match kind {
            0 | 1 => Op::AddStream,
            2..=8 => Op::Stage(pick, bag),
            9..=13 => Op::Commit,
            14 | 15 => Op::Checkpoint,
            16 | 17 => Op::CrashRecover,
            _ => Op::Query(a, b),
        },
    );
    prop::collection::vec(op, 1..40)
}

/// A staged document: (stream index, [(term index, count)]).
type StagedSpec = (usize, Vec<(usize, u32)>);

/// What the durability contract says survives: committed ticks always (the
/// log is written before a commit returns), registered streams and staged
/// documents only as of the last commit or checkpoint.
#[derive(Debug, Default)]
struct Model {
    streams: usize,
    durable_streams: usize,
    /// Streams the served generation was committed with.
    committed_streams: usize,
    /// Committed documents with their tick.
    docs: Vec<(usize, StagedSpec)>,
    staged: Vec<StagedSpec>,
    durable_staged: Vec<StagedSpec>,
    ticks: usize,
}

impl Model {
    /// The oracle: the committed documents batch-built, batch-mined with
    /// `STLocal` and served by a fresh finalized engine.
    fn oracle(&self) -> (BurstySearchEngine, Arc<Collection>) {
        let mut b = CollectionBuilder::new(self.ticks);
        for s in 0..self.committed_streams {
            b.add_stream(&format!("s{s}"), stream_geo(s));
        }
        for (tick, (stream, bag)) in &self.docs {
            let mut counts = HashMap::new();
            for &(term, count) in bag {
                let id = b.dict_mut().intern(TERMS[term]);
                *counts.entry(id).or_insert(0) += count;
            }
            b.add_document(StreamId(*stream as u32), *tick, counts);
        }
        let collection = Arc::new(b.build());
        let mut engine = BurstySearchEngine::new(Arc::clone(&collection), EngineConfig::default());
        for term in collection.terms() {
            let (patterns, _) =
                STLocal::mine_collection(&collection, term, STLocalConfig::default());
            engine.set_patterns(term, &patterns);
        }
        engine.finalize_with_threads(1);
        (engine, collection)
    }
}

/// A query's results on the live pipeline and on the oracle, by the words'
/// ids in each one's own dictionary. A word either side has not interned
/// answers nothing.
fn model_query(
    pipeline: &IngestPipeline,
    (oracle, collection): &(BurstySearchEngine, Arc<Collection>),
    words: &[usize],
    k: usize,
) -> (Vec<SearchResult>, Vec<SearchResult>) {
    let ids = |dict: &stb_corpus::TermDict| -> Option<Vec<TermId>> {
        words.iter().map(|&w| dict.get(TERMS[w])).collect()
    };
    let got = ids(pipeline.collection().dict())
        .map(|ids| handle_run(&pipeline.search_handle(), &ids, k))
        .unwrap_or_default();
    let expect = ids(collection.dict())
        .and_then(|ids| oracle.query(&Query::terms(ids).top_k(k)).ok())
        .map(|r| r.results)
        .unwrap_or_default();
    (expect, got)
}

proptest! {
    /// The durability half of the whole-system model test: stage, commit,
    /// stream registration, checkpoint, crash + recover and queries in
    /// random order. Every query answers exactly what batch `STLocal` over
    /// the committed documents, served by a fresh finalized engine,
    /// answers: each term's whole ranked list and a two-term top 3, by
    /// document and score bits.
    #[test]
    fn interleaved_durability_ops_match_a_batch_oracle(ops in arb_ops()) {
        let dir = case_dir();
        let open = |dir: &Path| IngestPipeline::durable(config(0, 64), dir).expect("open");
        let (mut pipeline, _) = open(&dir);
        let mut model = Model::default();
        let mut ops = ops;
        // Every run ends by serving its final state.
        ops.push(Op::Commit);
        ops.push(Op::Query(0, 1));
        for op in ops {
            match op {
                Op::AddStream => {
                    pipeline.add_stream(&format!("s{}", model.streams), stream_geo(model.streams));
                    model.streams += 1;
                }
                Op::Stage(pick, bag) => {
                    if model.streams == 0 {
                        continue;
                    }
                    let doc = (pick % model.streams, bag);
                    stage_docs(&mut pipeline, std::slice::from_ref(&doc));
                    model.staged.push(doc);
                }
                Op::Commit => {
                    pipeline.commit_tick();
                    for doc in model.staged.drain(..) {
                        model.docs.push((model.ticks, doc));
                    }
                    model.ticks += 1;
                    model.committed_streams = model.streams;
                    model.durable_streams = model.streams;
                    model.durable_staged.clear();
                }
                Op::Checkpoint => {
                    pipeline.checkpoint().expect("checkpoint");
                    model.durable_streams = model.streams;
                    model.durable_staged = model.staged.clone();
                }
                Op::CrashRecover => {
                    drop(pipeline);
                    pipeline = open(&dir).0;
                    model.streams = model.durable_streams;
                    model.staged = model.durable_staged.clone();
                    prop_assert_eq!(pipeline.ticks_committed(), model.ticks);
                    prop_assert_eq!(pipeline.collection().n_streams(), model.streams);
                    prop_assert_eq!(pipeline.metrics().staged_docs, model.staged.len());
                }
                Op::Query(a, b) => {
                    let oracle = model.oracle();
                    let all = model.docs.len().max(1);
                    let mut queries: Vec<(Vec<usize>, usize)> =
                        (0..TERMS.len()).map(|w| (vec![w], all)).collect();
                    queries.push((vec![a, b], 3));
                    for (words, k) in queries {
                        let (expect, got) = model_query(&pipeline, &oracle, &words, k);
                        prop_assert_eq!(expect.len(), got.len(), "{:?}: result count", words);
                        for (e, g) in expect.iter().zip(&got) {
                            prop_assert_eq!(e.doc, g.doc, "{:?}: doc", words);
                            prop_assert_eq!(
                                e.score.to_bits(),
                                g.score.to_bits(),
                                "{:?}: score {} vs {}",
                                words,
                                e.score,
                                g.score
                            );
                        }
                    }
                }
            }
        }
        prop_assert!(pipeline.durability_state().is_durable(), "the run must stay durable");
        drop(pipeline);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
