//! The write path: a live `IngestPipeline` fed tick by tick. `durable`
//! drives stage → WAL → apply → mine → publish → checkpoint → crash →
//! recovery in a closed loop; `mixed` publishes on a paced schedule while a
//! reader queries and standing subscriptions are notified.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use stb_core::{STLocal, STLocalConfig};
use stb_corpus::{Collection, TermId};
use stb_ingest::{
    Durability, DurabilityState, IngestConfig, IngestPipeline, MinerKind, OverflowPolicy,
    PipelineObs, PipelineObsConfig, RecoveryReport, SearchHandle, Store, SubscriptionHandle,
    SubscriptionOptions,
};
use stb_obs::{SpanKind, TraceRecord};
use stb_search::{BurstySearchEngine, EngineConfig, Query, SearchResult};
use stb_store::WalWriter;

use crate::batch::same_topk;
use crate::inputs::{QuerySpec, TickDoc, TOP_K};
use crate::report::Outcome;
use crate::serve::{
    read_loop, report_query_spans, report_slices, search_obs_config, typed, CACHE_CAPACITY, SHARDS,
};
use crate::spans::{Recorder, SpanId, HARNESS};
use crate::stats::{mean, median, percentile, tail10};
use crate::THREADS;

/// Time the paced writer spends waiting for a tick's due time: covered by
/// a span of this pseudo-layer so the accounting check sees no gap.
const IDLE: &str = "idle";

fn config(timeline: usize, checkpoint_every: usize) -> IngestConfig {
    IngestConfig {
        timeline_capacity: timeline,
        miner: MinerKind::STLocal(STLocalConfig::default()),
        n_shards: SHARDS,
        cache_capacity: CACHE_CAPACITY,
        durability: Durability::Buffered,
        checkpoint_every_ticks: checkpoint_every,
        ..IngestConfig::default()
    }
}

/// Every commit traced (the ring holds all of them); queries as in the
/// serve phase.
fn pipeline_obs(ticks: usize) -> Arc<PipelineObs> {
    PipelineObs::new(&PipelineObsConfig {
        search: search_obs_config(),
        commit_sample_every: 1,
        commit_trace_capacity: ticks.max(1),
    })
}

/// Registers the corpus's streams and its dictionary in id order, so the
/// generated `TermId`s and `StreamId`s address the pipeline unchanged.
fn register(pipeline: &mut IngestPipeline, source: &Collection) {
    for s in source.streams() {
        let id = pipeline.add_stream_with_position(&s.name, s.geostamp, s.position);
        assert_eq!(id, s.id, "streams register in id order");
    }
    for i in 0..source.dict().len() {
        let word = source
            .dict()
            .resolve(TermId(i as u32))
            .expect("dense dictionary");
        assert_eq!(pipeline.intern(word), TermId(i as u32));
    }
}

/// Per-tick readings of an ingest window.
#[derive(Default)]
struct Ticks {
    /// Tick start (due time when paced) → `commit_tick` returned.
    lag_ms: Vec<f64>,
    commit_s: Vec<f64>,
    stage_s: f64,
    docs: usize,
    dirty_terms: Vec<f64>,
    patterns: Vec<f64>,
    commit_spans: Vec<SpanId>,
    /// Ticks whose commit ran an auto-checkpoint.
    checkpointed: Vec<bool>,
    not_durable: u64,
}

impl Ticks {
    /// Stages and commits one tick; `since` is where its lag is counted from.
    fn commit(
        &mut self,
        pipeline: &mut IngestPipeline,
        tick: Vec<TickDoc>,
        since: Instant,
        expect: DurabilityState,
        rec: &mut Recorder,
    ) {
        let op = self.lag_ms.len() as u64;
        self.docs += tick.len();
        let checkpoints = pipeline.metrics().checkpoints;
        let ((), stage_s) = rec.time("ingest.stage", "ingest", op, || {
            for doc in tick {
                pipeline.stage_document(doc.stream, doc.counts);
            }
        });
        let (receipt, commit_s) = rec.time("ingest.commit_tick", "ingest", op, || {
            pipeline.commit_tick()
        });
        self.lag_ms.push(since.elapsed().as_secs_f64() * 1e3);
        self.commit_spans.push(rec.last());
        self.stage_s += stage_s;
        self.commit_s.push(commit_s);
        self.dirty_terms.push(receipt.deltas.len() as f64);
        self.patterns
            .push(receipt.deltas.iter().map(|d| d.n_patterns()).sum::<usize>() as f64);
        self.checkpointed
            .push(pipeline.metrics().checkpoints > checkpoints);
        self.not_durable += u64::from(receipt.durability != expect);
    }

    fn report(&self, pipeline: &IngestPipeline, out: &mut Outcome) {
        let health = pipeline.health();
        let lost = health.docs_shed + health.quarantined_total;
        out.ops(self.docs as u64, lost);
        out.ops(self.lag_ms.len() as u64, self.not_durable);
        let n = self.lag_ms.len();
        out.set("commit_ms_p50", median(&self.lag_ms), n);
        out.set("commit_ms_tail10", tail10(&self.lag_ms), n);
        let commit_ms: Vec<f64> = self.commit_s.iter().map(|s| s * 1e3).collect();
        out.set("ingest.commit_s", self.commit_s.iter().sum(), n);
        out.set("ingest.commit_ms_p90", percentile(&commit_ms, 0.9), n);
        out.set(
            "ingest.stage_us_per_doc",
            self.stage_s * 1e6 / self.docs.max(1) as f64,
            self.docs,
        );
        out.set("ingest.dirty_terms_per_tick", mean(&self.dirty_terms), n);
        out.set("ingest.patterns_per_tick", mean(&self.patterns), n);
    }

    /// Hangs the commit stages the program timed itself under the harness
    /// commit spans and reports their totals. Trace `i` belongs to tick `i`:
    /// every commit is sampled and the ring holds them all.
    fn report_commit_stages(&self, traces: &[TraceRecord], rec: &mut Recorder, out: &mut Outcome) {
        let mut totals = [0u64; 5];
        let stages = [
            (SpanKind::WalAppend, "commit.wal_append", "store"),
            (SpanKind::ApplyDocs, "commit.apply_docs", "corpus"),
            (SpanKind::Mine, "commit.mine", "core"),
            (SpanKind::Publish, "commit.publish", "search"),
            (SpanKind::Notify, "commit.notify", "subscribe"),
        ];
        let mut attributed = 0u64;
        for (i, trace) in traces.iter().enumerate().take(self.commit_spans.len()) {
            for s in &trace.spans {
                if let Some(k) = stages.iter().position(|(kind, _, _)| *kind == s.kind) {
                    totals[k] += s.duration_ns;
                    attributed += s.duration_ns;
                    let (_, name, layer) = stages[k];
                    rec.child_at(self.commit_spans[i], name, layer, s.start_ns, s.duration_ns);
                }
            }
            // An auto-checkpoint runs after the program's own commit clock
            // stopped: what a checkpointing commit took beyond its trace is
            // the snapshot write and the log rotation.
            let commit_ns = (self.commit_s[i] * 1e9) as u64;
            if self.checkpointed[i] && commit_ns > trace.total_ns {
                let extra = commit_ns - trace.total_ns;
                attributed += extra;
                rec.child_at(
                    self.commit_spans[i],
                    "commit.auto_checkpoint",
                    "store",
                    trace.total_ns,
                    extra,
                );
            }
        }
        for (k, name) in [
            "obs.c_wal_append_s",
            "obs.c_apply_docs_s",
            "obs.c_mine_s",
            "obs.c_publish_s",
            "obs.c_notify_s",
        ]
        .into_iter()
        .enumerate()
        {
            out.set(name, totals[k] as f64 / 1e9, traces.len());
        }
        let commit_s: f64 = self.commit_s.iter().sum();
        let share = 1.0 - attributed as f64 / 1e9 / commit_s.max(1e-12);
        out.set("obs.c_unattributed_share", share.max(0.0), traces.len());
        out.check(traces.len() == self.commit_spans.len(), || {
            format!(
                "{} commit traces for {} commits",
                traces.len(),
                self.commit_spans.len()
            )
        });
    }
}

fn answers(handle: &SearchHandle, checks: &[Query], out: &mut Outcome) -> Vec<Vec<SearchResult>> {
    checks
        .iter()
        .map(|q| match handle.query(q) {
            Ok(r) => {
                out.ops(1, 0);
                r.results
            }
            Err(e) => {
                out.ops(1, 1);
                out.failures.push(format!("check query refused: {e}"));
                Vec::new()
            }
        })
        .collect()
}

/// The check set answered by a from-scratch batch build over `collection`:
/// STLocal on the check set's terms only, a finalized plain engine.
fn batch_answers(collection: Arc<Collection>, checks: &[QuerySpec]) -> Vec<Vec<SearchResult>> {
    let terms: BTreeSet<TermId> = checks
        .iter()
        .flat_map(|c| c.terms.iter().copied())
        .collect();
    let mut engine = BurstySearchEngine::new(Arc::clone(&collection), EngineConfig::default());
    engine.set_cache_capacity(0);
    for term in terms {
        let (patterns, _) = STLocal::mine_collection(&collection, term, STLocalConfig::default());
        engine.set_patterns(term, &patterns);
    }
    engine.finalize_with_threads(THREADS);
    checks
        .iter()
        .map(|c| {
            engine
                .query(&c.query())
                .map_or_else(|_| Vec::new(), |r| r.results)
        })
        .collect()
}

fn same_answers(a: &[Vec<SearchResult>], b: &[Vec<SearchResult>]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_topk(x, y))
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// [`durable_lap`] `laps` times, each on a store directory of its own under
/// `dir`; the laps' readings are combined by [`Outcome::absorb_laps`].
#[allow(clippy::too_many_arguments)]
pub fn durable(
    source: &Collection,
    ticks: &[Vec<TickDoc>],
    checks: &[QuerySpec],
    checkpoint_every: usize,
    laps: usize,
    dir: &Path,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let measured = (0..laps)
        .map(|lap| {
            let mut lap_out = Outcome::default();
            durable_lap(
                source,
                ticks.to_vec(),
                checks,
                checkpoint_every,
                &dir.join(format!("store-{lap}")),
                // The direct `stb-store` probes run once, on the last state.
                lap + 1 == laps,
                rec,
                &mut lap_out,
            );
            lap_out
        })
        .collect();
    out.absorb_laps(measured);
}

/// Closed-loop durable ingest of `ticks` into a fresh store at `dir`, a
/// crash (drop), recovery, and the bit-identity checks around them.
#[allow(clippy::too_many_arguments)]
fn durable_lap(
    source: &Collection,
    ticks: Vec<Vec<TickDoc>>,
    checks: &[QuerySpec],
    checkpoint_every: usize,
    dir: &Path,
    probe: bool,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let n_ticks = ticks.len();
    let cfg = config(n_ticks, checkpoint_every);
    let check_queries: Vec<Query> = checks.iter().map(QuerySpec::query).collect();
    let obs = rec.enabled().then(|| pipeline_obs(n_ticks));

    let (mut pipeline, fresh) =
        IngestPipeline::durable(cfg.clone(), dir).expect("open a fresh store");
    out.check(fresh == RecoveryReport::default(), || {
        format!("a fresh store directory recovered state: {fresh:?}")
    });
    if fresh != RecoveryReport::default() {
        // A leftover store: nothing measured on top of it would mean
        // anything, and the run has already failed.
        return;
    }
    if let Some(obs) = &obs {
        pipeline.attach_obs(obs);
    }
    register(&mut pipeline, source);

    let window = rec.open("live.ingest", HARNESS, 0);
    let started = Instant::now();
    let mut t = Ticks::default();
    for tick in ticks {
        t.commit(
            &mut pipeline,
            tick,
            Instant::now(),
            DurabilityState::Durable,
            rec,
        );
    }
    let ingest_s = started.elapsed().as_secs_f64();
    rec.close(window);
    out.set("ingest_docs_per_s", t.docs as f64 / ingest_s, t.docs);
    t.report(&pipeline, out);
    if let Some(obs) = &obs {
        t.report_commit_stages(&obs.commit_traces(), rec, out);
    }

    let store = Store::open(dir).expect("store directory exists");
    let (snapshot_bytes, wal_bytes) = (
        file_len(&store.snapshot_path()),
        file_len(&store.wal_path()),
    );
    out.set(
        "store_bytes_per_doc",
        (snapshot_bytes + wal_bytes) as f64 / t.docs.max(1) as f64,
        t.docs,
    );
    out.set("store.snapshot_bytes", snapshot_bytes as f64, 1);
    out.set("store.wal_bytes", wal_bytes as f64, 1);

    let live = answers(&pipeline.search_handle(), &check_queries, out);
    for a in &live {
        out.fold_results(a);
    }
    if probe && rec.enabled() {
        store_probes(&pipeline, &store, dir, rec, out);
    }
    let final_collection = pipeline.collection();
    drop(pipeline);

    let window = rec.open("live.recover", HARNESS, 0);
    let ((recovered, report), recover_s) = rec.time("ingest.recover", "ingest", 0, || {
        IngestPipeline::durable(cfg, dir).expect("recover the store")
    });
    rec.close(window);
    out.set("recover_s", recover_s, 1);
    let replayed = if checkpoint_every == 0 {
        n_ticks
    } else {
        n_ticks % checkpoint_every
    };
    let expected = RecoveryReport {
        snapshot_loaded: checkpoint_every > 0 && n_ticks >= checkpoint_every,
        snapshot_ticks: (n_ticks - replayed) as u64,
        wal_ticks_replayed: replayed,
        ..RecoveryReport::default()
    };
    out.check(report == expected, || {
        format!("recovery report {report:?}, expected {expected:?}")
    });

    let after = answers(&recovered.search_handle(), &check_queries, out);
    out.check(same_answers(&live, &after), || {
        "recovered pipeline answers the check set differently from the live one".to_string()
    });
    let batch = batch_answers(final_collection, checks);
    out.check(same_answers(&live, &batch), || {
        "live pipeline answers the check set differently from a batch rebuild".to_string()
    });

    if probe && rec.enabled() {
        let mut recovered = recovered;
        let window = rec.open("probe.checkpoint", HARNESS, 0);
        let (result, secs) = rec.time("ingest.checkpoint", "store", 0, || recovered.checkpoint());
        rec.close(window);
        out.check(result.is_ok(), || format!("checkpoint failed: {result:?}"));
        out.set("store.checkpoint_s", secs, 1);
    }
}

/// `stb-store` called directly on the live pipeline's state, in a side
/// directory so the store under test is left as the commits wrote it.
fn store_probes(
    pipeline: &IngestPipeline,
    store: &Store,
    dir: &Path,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let window = rec.open("probe.store", HARNESS, 0);
    let side = Store::open(dir.join("probe")).expect("probe directory");
    let state = pipeline.export_snapshot_state();
    let (written, write_s) = rec.time("store.write_snapshot", "store", 0, || {
        side.write_snapshot(&state)
    });
    let (loaded, load_s) = rec.time("store.load_snapshot", "store", 0, || side.load_snapshot());
    out.check(written.is_ok() && matches!(loaded, Ok(Some(_))), || {
        "snapshot did not round-trip through the probe store".to_string()
    });
    out.set("store.snapshot_write_s", write_s, 1);
    out.set("store.snapshot_load_s", load_s, 1);

    let (replay, read_s) = rec.time("store.read_wal", "store", 0, || store.read_wal());
    out.set("store.wal_read_s", read_s, 1);
    let records = replay.map(|r| r.ticks).unwrap_or_default();
    // The same layer used two ways: the decoded records re-appended to a
    // fresh log, flushed to the OS versus forced to the device.
    for (name, span, durability) in [
        (
            "store.wal_append_us_per_tick",
            "store.wal_append",
            Durability::Buffered,
        ),
        (
            "store.wal_fsync_append_us_per_tick",
            "store.wal_append_fsync",
            Durability::Fsync,
        ),
    ] {
        let path = dir.join("probe").join(format!("{span}.stb"));
        let mut writer = WalWriter::open(&path, 0, durability).expect("probe log");
        let (ok, secs) = rec.time(span, "store", 0, || {
            records.iter().all(|r| writer.append(r).is_ok())
        });
        out.check(ok, || format!("{span}: append failed"));
        out.set(
            name,
            secs * 1e6 / records.len().max(1) as f64,
            records.len(),
        );
    }
    rec.close(window);
}

/// Load shape of the paced live phase.
#[derive(Debug, Clone, Copy)]
pub struct Pace {
    /// One tick falls due every this many milliseconds (open loop).
    pub period_ms: u64,
    /// Standing subscriptions on rare terms.
    pub idle_subs: usize,
    /// Standing subscriptions on hot term sets.
    pub matching_subs: usize,
    /// The reader hands its subscriptions' queues back this often.
    pub drain_every: usize,
}

/// One standing subscription the reader drains and the check replays.
struct Watched {
    query: Query,
    handle: SubscriptionHandle,
    /// The result list as of registration, then of the last diff.
    state: Vec<SearchResult>,
    generation: u64,
    in_order: bool,
    diffs: u64,
}

impl Watched {
    fn drain(&mut self) {
        for diff in self.handle.drain() {
            self.in_order &= diff.generation >= self.generation;
            self.generation = diff.generation;
            self.state = diff.current;
            self.diffs += 1;
        }
    }
}

/// A non-durable pipeline preloaded with `preload` (set-up), then `ticks`
/// committed on an open-loop schedule while one closed-loop reader asks
/// `list` and drains the subscriptions.
#[allow(clippy::too_many_arguments)]
pub fn mixed(
    source: &Collection,
    preload: Vec<Vec<TickDoc>>,
    ticks: Vec<Vec<TickDoc>>,
    list: &[QuerySpec],
    hot_sets: &[Vec<TermId>],
    rare_terms: &[TermId],
    pace: Pace,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let n_ticks = ticks.len();
    let populate = rec.open("mixed.populate", HARNESS, 0);
    let populate_started = Instant::now();
    let mut pipeline = IngestPipeline::new(config(preload.len() + n_ticks, 0));
    register(&mut pipeline, source);
    let mut warm = Ticks::default();
    for tick in preload {
        warm.commit(
            &mut pipeline,
            tick,
            Instant::now(),
            DurabilityState::Ephemeral,
            rec,
        );
    }
    out.ops((warm.docs + warm.lag_ms.len()) as u64, warm.not_durable);
    let handle = pipeline.search_handle();

    let options = SubscriptionOptions::default()
        .capacity(4)
        .overflow(OverflowPolicy::CoalesceLatest);
    let registered = Instant::now();
    let idle: Vec<SubscriptionHandle> = (0..pace.idle_subs)
        .filter_map(|i| {
            let term = rare_terms[i % rare_terms.len()];
            handle
                .subscribe(&Query::terms([term]).top_k(TOP_K), options)
                .ok()
        })
        .collect();
    let mut watched: Vec<Watched> = (0..pace.matching_subs)
        .filter_map(|i| {
            let query = Query::terms(hot_sets[i % hot_sets.len()].iter().copied()).top_k(TOP_K);
            let handle = handle.subscribe(&query, options).ok()?;
            Some((query, handle))
        })
        .map(|(query, sub)| Watched {
            state: handle
                .query(&query)
                .map_or_else(|_| Vec::new(), |r| r.results),
            query,
            handle: sub,
            generation: 0,
            in_order: true,
            diffs: 0,
        })
        .collect();
    let n_subs = pace.idle_subs + pace.matching_subs;
    out.set(
        "subscribe.register_us_per_sub",
        registered.elapsed().as_secs_f64() * 1e6 / n_subs.max(1) as f64,
        n_subs,
    );
    out.ops(n_subs as u64, (n_subs - idle.len() - watched.len()) as u64);
    let obs = rec.enabled().then(|| pipeline_obs(n_ticks));
    if let Some(obs) = &obs {
        pipeline.attach_obs(obs);
    }
    let typed_list = typed(list);
    out.add("setup_s", populate_started.elapsed().as_secs_f64());
    rec.close(populate);

    let window = rec.open("mixed.window", HARNESS, 0);
    let done = AtomicBool::new(false);
    let period = Duration::from_millis(pace.period_ms);
    let (mut writer_rec, mut reader_rec) = (rec.fork(1), rec.fork(2));
    let mut t = Ticks::default();
    let mut late_ms: Vec<f64> = Vec::with_capacity(n_ticks);
    let mut generations_in_order = true;
    let stats = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut seen = handle.generation();
            read_loop(
                |q| handle.query(q),
                &typed_list,
                // Longer than the period: every slice sees commits publish.
                2.5 * period.as_secs_f64(),
                &mut reader_rec,
                |answered, rec| {
                    let generation = handle.generation();
                    generations_in_order &= generation >= seen;
                    seen = generation;
                    if answered % pace.drain_every < crate::serve::READER_POLL {
                        rec.time("subscribe.drain", "subscribe", answered as u64, || {
                            watched.iter_mut().for_each(Watched::drain)
                        });
                    }
                    !done.load(Ordering::Acquire)
                },
            )
        });
        // The writer runs here, on the scope's own thread.
        let writer = writer_rec.open("mixed.writer", HARNESS, 0);
        let start = Instant::now() + Duration::from_millis(5);
        for (i, tick) in ticks.into_iter().enumerate() {
            let due = start + period * i as u32;
            writer_rec.time("pace.wait", IDLE, i as u64, || {
                std::thread::sleep(due.saturating_duration_since(Instant::now()))
            });
            late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            t.commit(
                &mut pipeline,
                tick,
                due,
                DurabilityState::Ephemeral,
                &mut writer_rec,
            );
        }
        writer_rec.close(writer);
        // Release pairs with the reader's Acquire: it stops only after
        // the last commit is published.
        done.store(true, Ordering::Release);
        reader.join().expect("reader thread")
    });
    let window_s = t.lag_ms.last().map_or(0.0, |lag| {
        lag / 1e3 + (period * (n_ticks - 1) as u32).as_secs_f64()
    });
    let busy = (t.commit_s.iter().sum::<f64>() + t.stage_s) / window_s.max(1e-9);
    rec.adopt(writer_rec);
    rec.adopt(reader_rec);
    rec.close(window);

    t.report(&pipeline, out);
    out.set("ingest.gen_late_ms_p90", percentile(&late_ms, 0.9), n_ticks);
    out.set("ingest.writer_busy_ratio", busy, n_ticks);
    report_slices(vec![stats], out);
    if let Some(obs) = &obs {
        t.report_commit_stages(&obs.commit_traces(), rec, out);
        report_query_spans(obs.search(), out);
    }

    let registry = pipeline.subscriptions();
    let m = registry.metrics();
    let commits = (n_ticks + warm.lag_ms.len()).max(1);
    out.set(
        "subscribe.evaluations_per_commit",
        m.evaluations as f64 / commits as f64,
        commits,
    );
    out.set("subscribe.notifications", m.notifications as f64, 1);
    out.set("subscribe.coalesced", m.coalesced as f64, 1);
    let notify = registry.notify_latency().snapshot();
    out.set(
        "subscribe.notify_us_p50",
        notify.p50() as f64 / 1e3,
        notify.count() as usize,
    );
    out.ops(m.evaluations, m.eval_errors + m.dropped);

    // Replaying each matching subscription's diff stream must land on what
    // a fresh query answers at the final generation.
    out.check(generations_in_order, || {
        "the reader saw the serving generation go backwards".to_string()
    });
    let mut delivered = 0;
    for w in &mut watched {
        w.drain();
        delivered += w.diffs;
        let fresh = handle
            .query(&w.query)
            .map_or_else(|_| Vec::new(), |r| r.results);
        out.fold_results(&fresh);
        out.check(w.in_order && same_topk(&w.state, &fresh), || {
            format!(
                "subscription {:?}: replayed diff stream differs from a fresh query",
                w.handle.id()
            )
        });
    }
    out.check(delivered > 0 || pace.matching_subs == 0, || {
        "no matching subscription was ever notified".to_string()
    });
    drop(idle);
}
