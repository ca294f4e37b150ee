//! The read path: closed-loop readers on a `ServingFront`, and the serve
//! phase that loads a batch-mined index into a `ShardedEngine` for them.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stb_core::CombinatorialPattern;
use stb_corpus::{Collection, TermId};
use stb_obs::ObsRegistry;
use stb_search::{
    BurstySearchEngine, EngineConfig, Query, QueryError, QueryResponse, SearchObs, SearchObsConfig,
    ServingFront, ShardedEngine,
};

use crate::batch::same_topk;
use crate::inputs::{QueryClass, QuerySpec};
use crate::report::Outcome;
use crate::spans::{Recorder, HARNESS};
use crate::stats::{median, percentile};
use crate::THREADS;

pub const SHARDS: usize = 8;
pub const CACHE_CAPACITY: usize = 1024;
/// Terms re-registered by the incremental-publish probe.
const PUBLISH_INCR_TERMS: usize = 32;
/// Readers look at the clock (or the stop flag) once per this many queries.
pub const READER_POLL: usize = 64;
/// Length of the time slices a serve reader's window is read in.
const SLICE_S: f64 = 0.25;

/// What one reader thread measured, per query class where it matters.
#[derive(Debug, Default)]
pub struct ReaderStats {
    /// Single precision: millions of samples, and a latency needs no more.
    pub lat_us: [Vec<f32>; 4],
    pub answered: u64,
    pub refused: u64,
    pub cache_hits: [u64; 4],
    /// Queries that were evaluated (not answered from the result cache).
    pub evaluated: u64,
    pub postings_scanned: u64,
    pub candidates_pruned: u64,
    /// Filtered queries whose posting lists were scored per query.
    pub filtered_scored: u64,
    pub elapsed_s: f64,
}

impl ReaderStats {
    pub fn merge(&mut self, other: ReaderStats) {
        for (mine, theirs) in self.lat_us.iter_mut().zip(other.lat_us) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.cache_hits.iter_mut().zip(other.cache_hits) {
            *mine += theirs;
        }
        self.answered += other.answered;
        self.refused += other.refused;
        self.evaluated += other.evaluated;
        self.postings_scanned += other.postings_scanned;
        self.candidates_pruned += other.candidates_pruned;
        self.filtered_scored += other.filtered_scored;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
    }

    fn class(&self, class: QueryClass) -> Vec<f64> {
        self.lat_us[class as usize]
            .iter()
            .map(|&us| f64::from(us))
            .collect()
    }

    /// The end-to-end read metrics and, in the traced run's catalogue, the
    /// per-query counts taken at the same boundary.
    pub fn report(&self, out: &mut Outcome) {
        out.ops(self.answered + self.refused, self.refused);
        out.set(
            "query_qps",
            self.answered as f64 / self.elapsed_s.max(1e-9),
            self.answered as usize,
        );
        for (name, class, q) in [
            ("q_hot_us_p50", QueryClass::Hot, 0.5),
            ("q_cold_us_p50", QueryClass::Cold, 0.5),
            ("q_cold_us_p99", QueryClass::Cold, 0.99),
            ("q_filtered_us_p50", QueryClass::Filtered, 0.5),
            ("q_filtered_us_p99", QueryClass::Filtered, 0.99),
            ("search.q_explain_us_p50", QueryClass::Explain, 0.5),
        ] {
            // A class this reader's mix leaves out keeps the reading of the
            // phase that asked it.
            let samples = self.class(class);
            if !samples.is_empty() {
                out.set(name, percentile(&samples, q), samples.len());
            }
        }
        // Ratios over nothing are left to the phase that has something.
        let mut ratio = |name: &'static str, num: u64, den: u64| {
            if den > 0 {
                out.set(name, num as f64 / den as f64, den as usize);
            }
        };
        let n = |class: QueryClass| self.lat_us[class as usize].len() as u64;
        ratio(
            "search.cache_hit_ratio",
            self.cache_hits.iter().sum(),
            self.answered,
        );
        for (name, class) in [
            ("search.cache_hit_ratio.hot", QueryClass::Hot),
            ("search.cache_hit_ratio.cold", QueryClass::Cold),
        ] {
            ratio(name, self.cache_hits[class as usize], n(class));
        }
        ratio(
            "search.postings_scanned_per_q",
            self.postings_scanned,
            self.evaluated,
        );
        ratio(
            "search.pruned_ratio",
            self.candidates_pruned,
            self.candidates_pruned + self.postings_scanned,
        );
        ratio(
            "search.q_filtered_scored_ratio",
            self.filtered_scored,
            n(QueryClass::Filtered),
        );
    }
}

/// One closed-loop reader: asks the next query only after the previous one
/// was answered, cycling through its list. `carry_on(answered, rec)` is
/// consulted every [`READER_POLL`] queries; the list is far longer than the
/// result cache, so a second pass finds the cold entries evicted again.
pub fn read_loop(
    ask: impl Fn(&Query) -> Result<QueryResponse, QueryError>,
    list: &[(QueryClass, Query)],
    slice_s: f64,
    rec: &mut Recorder,
    mut carry_on: impl FnMut(usize, &mut Recorder) -> bool,
) -> Vec<ReaderStats> {
    let mut slices: Vec<ReaderStats> = Vec::new();
    let mut stats = ReaderStats::default();
    let window = rec.open("reader", HARNESS, 0);
    let mut started = Instant::now();
    // Every query is timed on its own; the trace holds one span per
    // READER_POLL of them, since a cached answer takes well under a
    // microsecond and millions of spans would be the workload.
    let mut chunk = 0;
    for (i, (class, query)) in list.iter().cycle().enumerate() {
        if i % READER_POLL == 0 {
            rec.close(chunk);
            // The window is read in time slices: one reading per slice.
            let elapsed_s = started.elapsed().as_secs_f64();
            if elapsed_s >= slice_s {
                stats.elapsed_s = elapsed_s;
                slices.push(std::mem::take(&mut stats));
                started = Instant::now();
            }
            if !carry_on(i, rec) {
                chunk = 0;
                break;
            }
            chunk = rec.open("front.query_x64", "search", (i / READER_POLL) as u64);
        }
        let asked = Instant::now();
        let answer = ask(query);
        let secs = asked.elapsed().as_secs_f64();
        match answer {
            Ok(response) => {
                let c = *class as usize;
                stats.answered += 1;
                stats.lat_us[c].push((secs * 1e6) as f32);
                let s = response.stats;
                if s.cache_hit {
                    stats.cache_hits[c] += 1;
                } else {
                    stats.evaluated += 1;
                    stats.postings_scanned += s.postings_scanned as u64;
                    stats.candidates_pruned += s.candidates_pruned as u64;
                }
                if *class == QueryClass::Filtered && !s.served_from_prebuilt {
                    stats.filtered_scored += 1;
                }
            }
            Err(_) => stats.refused += 1,
        }
    }
    rec.close(chunk);
    // What is left after the last full slice joins it.
    stats.elapsed_s = started.elapsed().as_secs_f64();
    match slices.last_mut() {
        Some(last) => {
            let elapsed_s = last.elapsed_s + stats.elapsed_s;
            last.merge(stats);
            last.elapsed_s = elapsed_s;
        }
        None => slices.push(stats),
    }
    rec.close(window);
    slices
}

/// Reports the readers' windows slice by slice (slice `k` of every reader
/// together) through [`Outcome::absorb_laps`].
pub fn report_slices(readers: Vec<Vec<ReaderStats>>, out: &mut Outcome) {
    let n = readers.iter().map(Vec::len).min().unwrap_or(0);
    let mut merged: Vec<ReaderStats> = (0..n).map(|_| ReaderStats::default()).collect();
    for reader in readers {
        for (k, slice) in reader.into_iter().enumerate() {
            // A reader that cut one slice more than another: into the last.
            merged[k.min(n - 1)].merge(slice);
        }
    }
    let laps = merged
        .iter()
        .map(|slice| {
            let mut lap = Outcome::default();
            slice.report(&mut lap);
            lap
        })
        .collect();
    out.absorb_laps(laps);
}

pub fn typed(list: &[QuerySpec]) -> Vec<(QueryClass, Query)> {
    list.iter().map(|s| (s.class, s.query())).collect()
}

/// How the traced run has the program trace its own query path: 1 query
/// in 16, the last 4 096 traces kept.
pub fn search_obs_config() -> SearchObsConfig {
    SearchObsConfig {
        trace_sample_every: 16,
        trace_capacity: 4096,
        ..SearchObsConfig::default()
    }
}

/// Query-path spans the program recorded itself, read back from the
/// `SearchObs` the traced run attached.
pub fn report_query_spans(obs: &SearchObs, out: &mut Outcome) {
    use stb_obs::SpanKind;
    let traces = obs.traces();
    for (name, kind) in [
        ("obs.q_plan_ns_p50", SpanKind::Plan),
        ("obs.q_cache_lookup_ns_p50", SpanKind::CacheLookup),
        ("obs.q_shard_gather_ns_p50", SpanKind::ShardGather),
        ("obs.q_ta_scan_ns_p50", SpanKind::TaScan),
        ("obs.q_respond_ns_p50", SpanKind::Respond),
    ] {
        let samples: Vec<f64> = traces
            .iter()
            .flat_map(|t| t.spans.iter())
            .filter(|s| s.kind == kind)
            .map(|s| s.duration_ns as f64)
            .collect();
        out.set(name, median(&samples), samples.len());
    }
}

fn load(
    collection: &Arc<Collection>,
    patterns: &Vec<(TermId, Vec<CombinatorialPattern>)>,
    rec: &mut Recorder,
) -> (ShardedEngine, f64) {
    let (mut engine, _) = rec.time("search.engine_new", "search", 0, || {
        ShardedEngine::new(
            Arc::clone(collection),
            EngineConfig::default(),
            SHARDS,
            CACHE_CAPACITY,
        )
    });
    rec.time("search.set_patterns", "search", 0, || {
        engine.set_patterns_from(patterns)
    });
    rec.time("search.finalize", "search", 0, || {
        engine.finalize_with_threads(THREADS)
    });
    let ((), publish_s) = rec.time("search.publish_full", "search", 0, || engine.publish());
    (engine, publish_s)
}

/// One closed-loop reader thread per list on `front`, for `budget_s`;
/// each reader's time slices.
fn readers(
    front: &Arc<ServingFront>,
    lists: &[Vec<(QueryClass, Query)>],
    budget_s: f64,
    rec: &mut Recorder,
) -> Vec<Vec<ReaderStats>> {
    let window = rec.open("serve.window", HARNESS, 0);
    let deadline = Instant::now() + Duration::from_secs_f64(budget_s);
    let forks: Vec<Recorder> = (0..lists.len()).map(|r| rec.fork(r as u32 + 1)).collect();
    let finished: Vec<(Vec<ReaderStats>, Recorder)> = std::thread::scope(|scope| {
        let threads: Vec<_> = lists
            .iter()
            .zip(forks)
            .map(|(list, mut fork)| {
                scope.spawn(move || {
                    let stats = read_loop(
                        |q| front.query(q),
                        list,
                        SLICE_S,
                        &mut fork,
                        |_, _| Instant::now() < deadline,
                    );
                    (stats, fork)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("reader thread"))
            .collect()
    });
    let mut slices = Vec::new();
    for (s, fork) in finished {
        slices.push(s);
        rec.adopt(fork);
    }
    rec.close(window);
    slices
}

fn qps(readers: &[Vec<ReaderStats>]) -> f64 {
    let answered: u64 = readers.iter().flatten().map(|s| s.answered).sum();
    let elapsed_s = readers
        .iter()
        .map(|r| r.iter().map(|s| s.elapsed_s).sum::<f64>())
        .fold(0.0, f64::max);
    answered as f64 / elapsed_s.max(1e-9)
}

/// Loads the index (counted as set-up), runs one reader per list for
/// `budget_s`, then checks a 1 % sample against an unsharded engine.
///
/// The traced run spends a quarter of the budget on an identical engine
/// with neither spans nor `SearchObs` attached: the two throughputs, taken
/// in one process on one index, give the tracing overhead.
pub fn run(
    collection: &Arc<Collection>,
    patterns: &Vec<(TermId, Vec<CombinatorialPattern>)>,
    lists: &[Vec<QuerySpec>],
    budget_s: f64,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let populate = rec.open("serve.populate", HARNESS, 0);
    let started = Instant::now();
    let (mut engine, publish_full_s) = load(collection, patterns, rec);
    out.add("setup_s", started.elapsed().as_secs_f64());
    rec.close(populate);
    out.set("search.publish_full_s", publish_full_s, 1);
    let typed_lists: Vec<Vec<(QueryClass, Query)>> = lists.iter().map(|l| typed(l)).collect();

    let stats = if rec.enabled() {
        let mut off = Recorder::new(false);
        let (plain, _) = load(collection, patterns, &mut off);
        let untraced = readers(&plain.front(), &typed_lists, budget_s / 4.0, &mut off);
        drop(plain);
        let obs = SearchObs::new(Arc::new(ObsRegistry::new()), &search_obs_config());
        engine.attach_obs(Arc::clone(&obs));
        let traced = readers(&engine.front(), &typed_lists, budget_s * 0.75, rec);
        report_query_spans(&obs, out);
        out.set(
            "obs.trace_overhead_pct",
            (qps(&untraced) / qps(&traced).max(1e-9) - 1.0) * 100.0,
            untraced.iter().chain(&traced).flatten().count(),
        );
        traced
    } else {
        readers(&engine.front(), &typed_lists, budget_s, rec)
    };
    report_slices(stats, out);

    if rec.enabled() {
        publish_incr_probe(&mut engine, patterns, rec, out);
    }
    check_against_unsharded(collection, patterns, lists, &engine, out);
}

/// Re-registers a fixed sample of terms and publishes: the incremental
/// publish a live commit pays, isolated from mining. Readers have stopped.
fn publish_incr_probe(
    engine: &mut ShardedEngine,
    patterns: &[(TermId, Vec<CombinatorialPattern>)],
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let step = (patterns.len() / PUBLISH_INCR_TERMS).max(1);
    let sample: Vec<&(TermId, Vec<CombinatorialPattern>)> = patterns
        .iter()
        .step_by(step)
        .take(PUBLISH_INCR_TERMS)
        .collect();
    let window = rec.open("probe.publish_incr", HARNESS, 0);
    let ms: Vec<f64> = (0..5)
        .map(|rep| {
            let ((), secs) = rec.time("search.publish_incr", "search", rep, || {
                for (term, ps) in &sample {
                    engine.set_patterns(*term, ps);
                }
                engine.publish();
            });
            secs * 1e3
        })
        .collect();
    rec.close(window);
    out.set("search.publish_incr_ms", median(&ms), ms.len());
}

/// Every 100th query of each list must read bit-identically on the
/// sharded front and on a plain `BurstySearchEngine` holding the same
/// patterns (only the sampled queries' terms are registered there).
fn check_against_unsharded(
    collection: &Arc<Collection>,
    patterns: &[(TermId, Vec<CombinatorialPattern>)],
    lists: &[Vec<QuerySpec>],
    sharded: &ShardedEngine,
    out: &mut Outcome,
) {
    let sample: Vec<&QuerySpec> = lists.iter().flat_map(|l| l.iter().step_by(100)).collect();
    let wanted: BTreeSet<TermId> = sample
        .iter()
        .flat_map(|s| s.terms.iter().copied())
        .collect();
    let mut plain = BurstySearchEngine::new(Arc::clone(collection), EngineConfig::default());
    plain.set_cache_capacity(0);
    for (term, ps) in patterns.iter().filter(|(t, _)| wanted.contains(t)) {
        plain.set_patterns(*term, ps);
    }
    let front = sharded.front();
    for spec in sample {
        let query = spec.query();
        match (front.query(&query), plain.query(&query)) {
            (Ok(a), Ok(b)) => {
                out.fold_results(&a.results);
                out.check(same_topk(&a.results, &b.results), || {
                    format!("sharded and unsharded answers differ on {spec:?}")
                });
            }
            (a, b) => out.check(false, || {
                format!(
                    "query {spec:?} refused: sharded ok={}, unsharded ok={}",
                    a.is_ok(),
                    b.is_ok()
                )
            }),
        }
    }
}
