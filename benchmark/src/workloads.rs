//! The four workloads and the one flow they all run. Sizes, thread counts,
//! pace and seeds derive from here and from `--seed`/`--seconds` only: no
//! environment variable or other flag changes what a named workload does.
//!
//! Every workload drives the whole path — batch mining, serving, durable
//! live ingest with crash recovery — because every run reports every
//! end-to-end metric; the workload decides which phase gets the full size
//! and most of `--seconds` (its *home* metrics) and which run reduced.

use std::path::Path;
use std::time::Instant;

use stb_corpus::TermId;
use stb_datagen::TopixCorpus;

use crate::inputs::{
    generate_corpus, input_hash, live_ticks, CorpusShape, QueryGen, QueryMix, QuerySpec, Rng,
    TickDoc,
};
use crate::live::Pace;
use crate::report::{Outcome, LAYERS, PER_LAYER};
use crate::spans::{account, Recorder, HARNESS};
use crate::stats::{cpu_reference_ms, median, peak_rss_mb};
use crate::{batch, live, probes, serve, THREADS};

/// Queries generated per reader; readers cycle through them. Far more
/// distinct cold term sets than the 1 024 entries of the result cache.
const QUERIES_PER_READER: usize = 40_000;
/// Queries of the live check set.
const CHECK_QUERIES: usize = 40;
/// Idle subscriptions share this many of the rarest terms.
const RARE_TERMS: usize = 200;
/// Set-up (generation, dealing, query lists) is repeated this often and
/// its median reported.
const SETUP_REPEATS: usize = 3;

/// Minimum share of each harness window that spans must cover, and the
/// maximum share of commit time the program's own stages may leave out.
const MIN_COVERAGE: f64 = 0.95;
const MAX_UNATTRIBUTED: f64 = 0.10;

#[derive(Debug, Clone, Copy)]
pub struct Durable {
    /// The first `weeks` weeks of the corpus are ingested ...
    pub weeks: usize,
    /// ... each dealt round-robin into this many ticks.
    pub sub_ticks: usize,
    pub checkpoint_every: usize,
    /// The phase repeats this often (a fresh store each time) and reports
    /// medians: 1 where it is the workload's subject, more where it is short.
    pub laps: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct Mixed {
    /// Weeks committed as one big tick each before the window (set-up).
    pub preload_weeks: usize,
    /// Weeks after those, dealt into `sub_ticks` paced ticks each.
    pub weeks: usize,
    pub sub_ticks: usize,
    pub pace: Pace,
    pub mix: QueryMix,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub corpus: CorpusShape,
    /// Terms STLocal mines in the batch phase; `None` = every term.
    pub batch_sample: Option<usize>,
    /// Shares of `--seconds` the time-boxed phases get. The live phases do
    /// a fixed number of ticks instead.
    pub batch_share: f64,
    pub serve_share: f64,
    pub serve_mix: QueryMix,
    pub durable: Durable,
    pub mixed: Option<Mixed>,
}

const SERVE_MIX: QueryMix = QueryMix {
    hot: 60,
    cold: 30,
    filtered: 8,
    explain: 2,
};

/// The live corpus: about 1.2e4 documents and 1 521 terms over 48 weeks.
const LIVE_CORPUS: CorpusShape = CorpusShape {
    docs_per_stream_per_week: 1,
    background_vocab: 1500,
    event_docs_peak: 0.5,
};

/// The reduced durable phase of workloads whose subject is elsewhere.
const AWAY_DURABLE: Durable = Durable {
    weeks: 4,
    sub_ticks: 8,
    checkpoint_every: 12,
    laps: 5,
};

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "batch-mine",
        why: "the paper's setting: collection build, both miners, index and the 18 event queries on a 3.3e4-document corpus, in laps of about a second; serving and durability changes must not move batch_s",
        corpus: CorpusShape {
            docs_per_stream_per_week: 3,
            background_vocab: 2500,
            event_docs_peak: 1.0,
        },
        batch_sample: Some(200),
        batch_share: 0.5,
        serve_share: 0.12,
        serve_mix: SERVE_MIX,
        durable: Durable {
            weeks: 1,
            sub_ticks: 32,
            checkpoint_every: 12,
            laps: 5,
        },
        mixed: None,
    },
    Workload {
        name: "live-ingest",
        why: "write path alone, closed loop: stage, WAL, apply, mine, publish, checkpoint, crash and recovery on a growing corpus; the only workload sized for the store",
        corpus: LIVE_CORPUS,
        batch_sample: Some(150),
        batch_share: 0.2,
        serve_share: 0.15,
        serve_mix: SERVE_MIX,
        durable: Durable {
            weeks: 10,
            sub_ticks: 5,
            checkpoint_every: 20,
            laps: 3,
        },
        mixed: None,
    },
    Workload {
        name: "query-serve",
        why: "read path alone: 2 closed-loop readers on a 5e4-document index, hot sets that fit the result cache interleaved with cold and filtered ones that do not",
        corpus: CorpusShape {
            docs_per_stream_per_week: 5,
            background_vocab: 1500,
            event_docs_peak: 1.0,
        },
        batch_sample: Some(30),
        batch_share: 0.15,
        serve_share: 0.5,
        serve_mix: SERVE_MIX,
        durable: Durable {
            weeks: 1,
            sub_ticks: 32,
            checkpoint_every: 12,
            laps: 4,
        },
        mixed: None,
    },
    Workload {
        name: "mixed-live",
        why: "the serving state published while it is read: open-loop paced commits, one closed-loop reader, 1 050 standing subscriptions; a faster commit must leave the read metrics flat",
        corpus: LIVE_CORPUS,
        batch_sample: Some(150),
        batch_share: 0.2,
        serve_share: 0.1,
        serve_mix: SERVE_MIX,
        durable: AWAY_DURABLE,
        mixed: Some(Mixed {
            preload_weeks: 4,
            weeks: 8,
            sub_ticks: 5,
            pace: Pace {
                period_ms: 200,
                idle_subs: 1000,
                matching_subs: 50,
                drain_every: 1000,
            },
            mix: QueryMix {
                hot: 70,
                cold: 30,
                filtered: 0,
                explain: 0,
            },
        }),
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Everything generated from the seed before anything is timed.
struct Inputs {
    corpus: TopixCorpus,
    generate_s: f64,
    serve_lists: Vec<Vec<QuerySpec>>,
    durable_ticks: Vec<Vec<TickDoc>>,
    checks: Vec<QuerySpec>,
    mixed: Option<MixedInputs>,
    hash: u64,
}

struct MixedInputs {
    preload: Vec<Vec<TickDoc>>,
    ticks: Vec<Vec<TickDoc>>,
    list: Vec<QuerySpec>,
    hot_sets: Vec<Vec<TermId>>,
    rare_terms: Vec<TermId>,
}

fn prepare(w: &Workload, seed: u64) -> Inputs {
    let started = Instant::now();
    let corpus = generate_corpus(w.corpus, seed);
    let generate_s = started.elapsed().as_secs_f64();
    let collection = corpus.collection();
    // One stream of draws for everything but the corpus, split off the seed
    // so a query list never replays the corpus generator's sequence.
    let mut rng = Rng::new(seed ^ 0x5157_4245_4e43_4821);
    let gen = QueryGen::new(collection, collection.timeline_len(), &mut rng);

    let serve_lists: Vec<Vec<QuerySpec>> = (0..THREADS)
        .map(|_| gen.list(w.serve_mix, QUERIES_PER_READER, &mut rng))
        .collect();

    let durable_ticks = live_ticks(collection, 0..w.durable.weeks, w.durable.sub_ticks);
    let check_mix = QueryMix {
        hot: 50,
        cold: 30,
        filtered: 20,
        explain: 0,
    };
    let checks = gen
        .with_timeline(durable_ticks.len())
        .list(check_mix, CHECK_QUERIES, &mut rng);

    let mixed = w.mixed.map(|m| {
        let preload = live_ticks(collection, 0..m.preload_weeks, 1);
        let ticks = live_ticks(
            collection,
            m.preload_weeks..m.preload_weeks + m.weeks,
            m.sub_ticks,
        );
        let list = gen.with_timeline(preload.len() + ticks.len()).list(
            m.mix,
            QUERIES_PER_READER,
            &mut rng,
        );
        MixedInputs {
            preload,
            ticks,
            list,
            hot_sets: gen.hot_sets().to_vec(),
            rare_terms: gen.rare_terms(RARE_TERMS),
        }
    });

    let mut lists: Vec<&[QuerySpec]> = serve_lists.iter().map(Vec::as_slice).collect();
    lists.push(&checks);
    if let Some(m) = &mixed {
        lists.push(&m.list);
    }
    let hash = input_hash(collection, &lists);
    Inputs {
        corpus,
        generate_s,
        serve_lists,
        durable_ticks,
        checks,
        mixed,
        hash,
    }
}

/// Runs one workload in this process. `scratch` is a directory of the
/// run's own (store files go there); the caller creates and removes it.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: &Path,
) -> (Outcome, Recorder) {
    let mut out = Outcome::default();
    let mut rec = Recorder::new(trace);

    let setup = rec.open("setup", HARNESS, 0);
    let mut prepared = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = None;
    for rep in 0..SETUP_REPEATS {
        let (i, secs) = rec.time("datagen.prepare", "datagen", rep as u64, || {
            prepare(w, seed)
        });
        prepared.push((secs, i.generate_s, i.hash));
        inputs = Some(i);
    }
    rec.close(setup);
    let inputs = inputs.expect("set-up ran");
    out.check(prepared.iter().all(|p| p.2 == inputs.hash), || {
        "the same seed generated different inputs".to_string()
    });
    out.input_hash = inputs.hash;
    let of = |f: fn(&(f64, f64, u64)) -> f64| median(&prepared.iter().map(f).collect::<Vec<_>>());
    out.add("setup_s", of(|p| p.0));
    out.set("datagen.generate_s", of(|p| p.1), SETUP_REPEATS);

    let mut cpu_ref = vec![cpu_reference_ms()];
    let built = batch::run(
        &inputs.corpus,
        w.batch_sample,
        seconds * w.batch_share,
        &mut rec,
        &mut out,
    );
    serve::run(
        &built.collection,
        &built.stcomb,
        &inputs.serve_lists,
        seconds * w.serve_share,
        &mut rec,
        &mut out,
    );
    cpu_ref.push(cpu_reference_ms());
    live::durable(
        inputs.corpus.collection(),
        &inputs.durable_ticks,
        &inputs.checks,
        w.durable.checkpoint_every,
        w.durable.laps,
        scratch,
        &mut rec,
        &mut out,
    );
    cpu_ref.push(cpu_reference_ms());
    if let (Some(m), Some(shape)) = (inputs.mixed, w.mixed) {
        // Overrides the commit and read metrics of the reduced phases above:
        // on this workload they are taken while publishing and reading
        // overlap.
        live::mixed(
            inputs.corpus.collection(),
            m.preload,
            m.ticks,
            &m.list,
            &m.hot_sets,
            &m.rare_terms,
            shape.pace,
            &mut rec,
            &mut out,
        );
    }
    out.set("harness.cpu_ref_ms", median(&cpu_ref), cpu_ref.len());
    if trace {
        probes::run(&built.collection, &mut rec, &mut out);
        account_trace(&rec, &mut out);
    }
    out.set("peak_rss_mb", peak_rss_mb(), 1);
    (out, rec)
}

/// The per-crate self-time table and the two accounting checks of the
/// traced run: a gap is an unmeasured layer, and fails the run.
fn account_trace(rec: &Recorder, out: &mut Outcome) {
    let acc = account(rec.spans());
    for layer in LAYERS {
        let def = PER_LAYER
            .iter()
            .find(|d| {
                d.name
                    .strip_prefix("self.")
                    .and_then(|n| n.strip_suffix("_s"))
                    == Some(layer)
            })
            .expect("every layer has a self-time metric");
        out.set(def.name, acc.self_s(layer), rec.spans().len());
    }
    let coverage = acc.coverage();
    out.set("trace.coverage_ratio", coverage, rec.spans().len());
    out.check(coverage >= MIN_COVERAGE, || {
        format!(
            "unmeasured layer: harness spans cover {:.1} % of the timed windows ({:.3} s missing)",
            coverage * 100.0,
            (acc.window_ns - acc.window_covered_ns) as f64 / 1e9
        )
    });
    let unattributed = out.get("obs.c_unattributed_share").map_or(1.0, |v| v.value);
    out.check(unattributed <= MAX_UNATTRIBUTED, || {
        format!(
            "unmeasured layer: the program's commit stages leave {:.1} % of ingest.commit_s unattributed",
            unattributed * 100.0
        )
    });
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// The four workloads at a size a debug-profile test can afford: the
    /// smallest corpus the generator makes, a handful of terms and ticks.
    pub fn smoke(w: &Workload) -> Workload {
        Workload {
            corpus: CorpusShape {
                docs_per_stream_per_week: 1,
                background_vocab: 300,
                event_docs_peak: 0.5,
            },
            batch_sample: Some(4),
            durable: Durable {
                weeks: 1,
                sub_ticks: 7,
                checkpoint_every: 5,
                laps: 2,
            },
            mixed: w.mixed.map(|m| Mixed {
                preload_weeks: 1,
                weeks: 1,
                sub_ticks: 6,
                pace: Pace {
                    period_ms: 20,
                    idle_subs: 40,
                    matching_subs: 10,
                    drain_every: 200,
                },
                ..m
            }),
            ..*w
        }
    }

    #[test]
    fn names_are_unique_and_shares_fit_the_run() {
        for w in &WORKLOADS {
            assert_eq!(by_name(w.name).unwrap().name, w.name);
            assert!(w.batch_share + w.serve_share < 1.0);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            // Recovery must have WAL ticks to replay.
            let ticks = w.durable.weeks * w.durable.sub_ticks;
            assert!(ticks % w.durable.checkpoint_every > 0, "{}", w.name);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn benchmark_json_names_the_workloads() {
        let json = include_str!("../../BENCHMARK.json");
        for w in &WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(json.contains(&entry), "{entry}");
        }
    }
}
