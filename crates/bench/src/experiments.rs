//! Shared experiment logic behind the table/figure binaries.
//!
//! Every experiment of the paper's Section 6 is implemented here as a plain
//! function over the synthetic corpora, so the binaries in `src/bin/` only
//! parse arguments and format tables, and integration tests can exercise the
//! experiment pipelines directly.

use crate::harness::{measure_ms, ExperimentCtx};
use std::collections::HashSet;
use std::sync::Arc;

use stb_core::{
    jaccard_similarity, precision, Base, CombinatorialPattern, Pattern, RegionalPattern, STComb,
    STLocal, STLocalConfig, TB,
};
use stb_corpus::{Collection, DocId, StreamId, TermId};
use stb_datagen::{
    GeneratorConfig, MajorEvent, PatternGenerator, StreamSelection, SyntheticDataset, TopixConfig,
    TopixCorpus,
};
use stb_geo::Mbr;
use stb_search::{BurstySearchEngine, EngineConfig, Query};
use stb_timeseries::TimeInterval;

/// Builds the synthetic Topix corpus at the context's scale.
pub fn topix_corpus(ctx: &ExperimentCtx) -> TopixCorpus {
    let config = if ctx.full {
        TopixConfig {
            docs_per_stream_per_week: 4,
            background_vocab: 3000,
            seed: ctx.seed,
            ..Default::default()
        }
    } else {
        TopixConfig {
            docs_per_stream_per_week: 2,
            background_vocab: 800,
            seed: ctx.seed,
            ..Default::default()
        }
    };
    TopixCorpus::generate(config)
}

/// Minimum temporal burstiness `B_T` an interval must reach before STComb
/// considers it in the clique problem, used by every experiment in this
/// crate.
///
/// The paper's formulation keeps every positive-score interval; on the
/// synthetic corpora, however, the dense exponential background produces a
/// noise-level maximal segment (`B_T ≈ 0.1`) in almost every stream, and
/// because clique weights are additive those noise intervals would all be
/// absorbed into the top clique. Real bursts sit well above `B_T = 0.5`, so
/// a small threshold recovers the behaviour the paper reports on its real
/// corpus.
pub(crate) const STCOMB_MIN_INTERVAL_SCORE: f64 = 0.2;

/// The `STComb` miner configured as used throughout the experiments.
pub fn stcomb_miner() -> STComb {
    STComb::with_config(stb_core::STCombConfig {
        min_interval_score: STCOMB_MIN_INTERVAL_SCORE,
        ..Default::default()
    })
}

/// The pattern-mining approaches compared throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Approach {
    /// Regional patterns (Section 4).
    STLocal,
    /// Combinatorial patterns (Section 3).
    STComb,
    /// The binarise-and-merge baseline (Section 6.2.2).
    Base,
    /// Temporal-only burstiness over the merged stream (Section 6.3).
    TB,
}

impl Approach {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Approach::STLocal => "STLocal",
            Approach::STComb => "STComb",
            Approach::Base => "Base",
            Approach::TB => "TB",
        }
    }
}

// ---------------------------------------------------------------------------
// Table 1 / Figure 4: top pattern per Major-Events query.
// ---------------------------------------------------------------------------

/// The per-event quantities reported in Table 1 and Figure 4.
#[derive(Debug, Clone)]
pub struct EventAnalysis {
    /// The event under analysis.
    pub event: &'static MajorEvent,
    /// Number of countries (streams) in the top STLocal pattern.
    pub stlocal_countries: usize,
    /// Number of countries in the top STComb pattern.
    pub stcomb_countries: usize,
    /// Number of countries falling inside the MBR of the top STComb pattern.
    pub mbr_countries: usize,
    /// Timeframe length (weeks) of the top STLocal pattern.
    pub stlocal_weeks: usize,
    /// Timeframe length (weeks) of the top STComb pattern.
    pub stcomb_weeks: usize,
    /// Ground-truth number of affected countries.
    pub truth_countries: usize,
}

/// Mines the top STLocal and STComb pattern for one event (0-based index)
/// of the Topix corpus and summarizes them.
pub(crate) fn analyze_event(corpus: &TopixCorpus, event_idx: usize) -> EventAnalysis {
    let event = &corpus.events()[event_idx];
    let collection = corpus.collection();

    let stcomb = stcomb_miner();
    let stlocal_config = STLocalConfig::default();

    let mut best_comb: Option<CombinatorialPattern> = None;
    let mut best_local: Option<(RegionalPattern, TermId)> = None;
    for &term in corpus.query_terms(event_idx) {
        if let Some(p) = stcomb.top_pattern(collection, term) {
            if best_comb.as_ref().is_none_or(|b| p.score > b.score) {
                best_comb = Some(p);
            }
        }
        let (patterns, _) = STLocal::mine_collection(collection, term, stlocal_config.clone());
        if let Some(p) = patterns.into_iter().next() {
            if best_local.as_ref().is_none_or(|(b, _)| p.score > b.score) {
                best_local = Some((p, term));
            }
        }
    }

    let positions = collection.positions();
    let mbr_countries = best_comb
        .as_ref()
        .map(|p| {
            let mbr = Mbr::from_points(p.streams.iter().map(|s| positions[s.index()]));
            mbr.count_contained(&positions)
        })
        .unwrap_or(0);

    // The regional pattern's rectangle may geometrically contain countries
    // that never mention the term at all; following the paper's Table 1
    // semantics ("the streams that [the pattern] includes"), only streams
    // that actually carry the term during the pattern's window are counted.
    let stlocal_countries = best_local
        .as_ref()
        .map(|(p, term)| {
            p.streams
                .iter()
                .filter(|s| {
                    let series = collection.term_stream_series(*term, **s);
                    (p.timeframe.start..=p.timeframe.end).any(|ts| series[ts] > 0.0)
                })
                .count()
        })
        .unwrap_or(0);

    EventAnalysis {
        event,
        stlocal_countries,
        stcomb_countries: best_comb.as_ref().map_or(0, |p| p.n_streams()),
        mbr_countries,
        stlocal_weeks: best_local.as_ref().map_or(0, |(p, _)| p.timeframe.len()),
        stcomb_weeks: best_comb.as_ref().map_or(0, |p| p.timeframe.len()),
        truth_countries: corpus.affected_streams(event_idx).len(),
    }
}

/// Runs `analyze_event` for every event of the Major Events List.
pub fn analyze_all_events(corpus: &TopixCorpus) -> Vec<EventAnalysis> {
    (0..corpus.events().len())
        .map(|i| analyze_event(corpus, i))
        .collect()
}

// ---------------------------------------------------------------------------
// Table 2: pattern retrieval on artificial data.
// ---------------------------------------------------------------------------

/// Aggregated retrieval quality over all injected patterns of a dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrievalScores {
    /// Mean Jaccard similarity between retrieved and injected stream sets.
    pub jaccard: f64,
    /// Mean absolute error of the retrieved first timestamp.
    pub start_error: f64,
    /// Mean absolute error of the retrieved last timestamp.
    pub end_error: f64,
}

/// Generator configurations for the Table 2 experiment at the context's
/// scale: `(distGen config, randGen config)`.
pub fn table2_configs(ctx: &ExperimentCtx) -> (GeneratorConfig, GeneratorConfig) {
    let base = if ctx.full {
        GeneratorConfig {
            n_streams: 500,
            n_patterns: 1000,
            n_terms: 10_000,
            timeline: 365,
            seed: ctx.seed,
            ..Default::default()
        }
    } else {
        GeneratorConfig {
            n_streams: 60,
            n_patterns: 60,
            n_terms: 500,
            timeline: 365,
            max_streams_per_pattern: 24,
            seed: ctx.seed,
            ..Default::default()
        }
    };
    let dist = GeneratorConfig {
        selection: StreamSelection::DistGen {
            decay_fraction: 0.08,
        },
        ..base.clone()
    };
    let rand = GeneratorConfig {
        selection: StreamSelection::RandGen,
        ..base
    };
    (dist, rand)
}

/// Mines patterns of one term of a synthetic dataset with the given
/// approach, returning (streams, timeframe) candidates sorted by score.
fn mine_synthetic_term(
    dataset: &SyntheticDataset,
    term: usize,
    approach: Approach,
) -> Vec<(Vec<StreamId>, TimeInterval)> {
    match approach {
        Approach::STLocal => {
            let mut miner = STLocal::new(dataset.positions().to_vec(), STLocalConfig::default());
            for ts in 0..dataset.timeline() {
                miner.step(&dataset.snapshot(term, ts));
            }
            miner
                .finish()
                .into_iter()
                .map(|p| (p.streams, p.timeframe))
                .collect()
        }
        Approach::STComb | Approach::Base => {
            let series: Vec<(StreamId, Vec<f64>)> = (0..dataset.n_streams())
                .map(|s| (StreamId(s as u32), dataset.series(term, s)))
                .collect();
            let patterns = if approach == Approach::STComb {
                stcomb_miner().mine_series(&series)
            } else {
                Base::new().mine_series(&series)
            };
            patterns
                .into_iter()
                .map(|p| (p.streams, p.timeframe))
                .collect()
        }
        Approach::TB => {
            let mut merged = vec![0.0; dataset.timeline()];
            for s in 0..dataset.n_streams() {
                for (ts, v) in dataset.series(term, s).into_iter().enumerate() {
                    merged[ts] += v;
                }
            }
            let all: Vec<StreamId> = (0..dataset.n_streams() as u32).map(StreamId).collect();
            TB::new()
                .mine_merged_series(&merged, &all)
                .into_iter()
                .map(|p| (p.streams, p.timeframe))
                .collect()
        }
    }
}

/// Evaluates how well an approach recovers the injected patterns of a
/// dataset (Table 2): for every injected pattern, the best temporally
/// overlapping retrieved pattern of the same term is compared against the
/// ground truth.
pub fn evaluate_retrieval(dataset: &SyntheticDataset, approach: Approach) -> RetrievalScores {
    let mut jaccard_sum = 0.0;
    let mut start_sum = 0.0;
    let mut end_sum = 0.0;
    let mut count = 0usize;

    for term in dataset.patterned_terms() {
        let mined = mine_synthetic_term(dataset, term, approach);
        for &pid in dataset.patterns_of_term(term) {
            let truth = &dataset.patterns()[pid];
            let truth_streams: Vec<StreamId> =
                truth.streams.iter().map(|&s| StreamId(s as u32)).collect();
            // Pick the retrieved pattern with the best temporal overlap with
            // the injected one (falling back to the top pattern).
            let retrieved = mined
                .iter()
                .max_by(|a, b| {
                    let ja = a.1.jaccard(&truth.interval);
                    let jb = b.1.jaccard(&truth.interval);
                    ja.partial_cmp(&jb).unwrap_or(std::cmp::Ordering::Equal)
                })
                .or_else(|| mined.first());
            match retrieved {
                Some((streams, interval)) => {
                    jaccard_sum += jaccard_similarity(streams, &truth_streams);
                    start_sum += interval.start.abs_diff(truth.interval.start) as f64;
                    end_sum += interval.end.abs_diff(truth.interval.end) as f64;
                }
                None => {
                    // Nothing retrieved: zero similarity, full-timeframe error.
                    jaccard_sum += 0.0;
                    start_sum += dataset.timeline() as f64 / 2.0;
                    end_sum += dataset.timeline() as f64 / 2.0;
                }
            }
            count += 1;
        }
    }
    let n = count.max(1) as f64;
    RetrievalScores {
        jaccard: jaccard_sum / n,
        start_error: start_sum / n,
        end_error: end_sum / n,
    }
}

// ---------------------------------------------------------------------------
// Table 3: bursty-document search precision.
// ---------------------------------------------------------------------------

/// Per-event precision of the three search approaches (Table 3), plus the
/// retrieved top-k document lists used for the overlap analysis.
#[derive(Debug, Clone)]
pub struct SearchEvaluation {
    /// The event.
    pub event: &'static MajorEvent,
    /// Precision@k of the temporal-only TB engine.
    pub tb_precision: f64,
    /// Precision@k of the STLocal-backed engine.
    pub stlocal_precision: f64,
    /// Precision@k of the STComb-backed engine.
    pub stcomb_precision: f64,
}

/// Average pairwise overlap of the top-k sets of the three approaches
/// (reported at the end of Section 6.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapSummary {
    /// Mean overlap of the STComb and TB top-k sets.
    pub stcomb_tb: f64,
    /// Mean overlap of the STComb and STLocal top-k sets.
    pub stcomb_stlocal: f64,
    /// Mean overlap of the TB and STLocal top-k sets.
    pub tb_stlocal: f64,
}

fn search_with<P: Pattern>(
    collection: &Arc<Collection>,
    query: &[TermId],
    patterns_per_term: &[(TermId, Vec<P>)],
    k: usize,
) -> Vec<DocId> {
    // Engines share one collection handle; cloning the Arc is O(1), so the
    // per-(event, method) engine construction never copies the corpus.
    let mut engine = BurstySearchEngine::new(Arc::clone(collection), EngineConfig::default());
    for (term, patterns) in patterns_per_term {
        engine.set_patterns(*term, patterns);
    }
    engine
        .query(&Query::terms(query.iter().copied()).top_k(k))
        .map(|r| r.results)
        .unwrap_or_default()
        .into_iter()
        .map(|r| r.doc)
        .collect()
}

/// Evaluates the Bursty Documents problem (Table 3) on the Topix corpus:
/// for each event, retrieves the top-k documents with TB, STLocal and STComb
/// patterns and measures precision against the generator's ground-truth
/// relevance labels.
pub fn evaluate_search(corpus: &TopixCorpus, k: usize) -> (Vec<SearchEvaluation>, OverlapSummary) {
    let collection = corpus.collection();
    // One shared handle for every engine built below (3 methods x N events).
    let shared: Arc<Collection> = collection.into();
    let stcomb = stcomb_miner();
    let tb = TB::new();
    let stlocal_config = STLocalConfig::default();

    let mut evaluations = Vec::new();
    let mut overlaps = [0.0f64; 3];
    for (e_idx, event) in corpus.events().iter().enumerate() {
        let query: Vec<TermId> = corpus.query_terms(e_idx).to_vec();
        let relevant: HashSet<DocId> = corpus.relevant_docs(e_idx).clone();

        let tb_patterns: Vec<(TermId, Vec<CombinatorialPattern>)> = query
            .iter()
            .map(|&t| (t, tb.mine_collection(collection, t)))
            .collect();
        let comb_patterns: Vec<(TermId, Vec<CombinatorialPattern>)> = query
            .iter()
            .map(|&t| (t, stcomb.mine_collection(collection, t)))
            .collect();
        let local_patterns: Vec<(TermId, Vec<RegionalPattern>)> = query
            .iter()
            .map(|&t| {
                let (patterns, _) = STLocal::mine_collection(collection, t, stlocal_config.clone());
                (t, patterns)
            })
            .collect();

        let tb_docs = search_with(&shared, &query, &tb_patterns, k);
        let comb_docs = search_with(&shared, &query, &comb_patterns, k);
        let local_docs = search_with(&shared, &query, &local_patterns, k);

        overlaps[0] += stb_core::topk_overlap(&comb_docs, &tb_docs);
        overlaps[1] += stb_core::topk_overlap(&comb_docs, &local_docs);
        overlaps[2] += stb_core::topk_overlap(&tb_docs, &local_docs);

        evaluations.push(SearchEvaluation {
            event,
            tb_precision: precision(&tb_docs, &relevant),
            stlocal_precision: precision(&local_docs, &relevant),
            stcomb_precision: precision(&comb_docs, &relevant),
        });
    }
    let n = corpus.events().len().max(1) as f64;
    (
        evaluations,
        OverlapSummary {
            stcomb_tb: overlaps[0] / n,
            stcomb_stlocal: overlaps[1] / n,
            tb_stlocal: overlaps[2] / n,
        },
    )
}

// ---------------------------------------------------------------------------
// Figures 5 & 6: STLocal bookkeeping statistics on the Topix corpus.
// ---------------------------------------------------------------------------

/// Aggregated STLocal streaming statistics over a sample of terms.
#[derive(Debug, Clone)]
pub struct StreamingStats {
    /// Per term, the average number of bursty rectangles per timestamp
    /// (Figure 5's histogram population).
    pub avg_rectangles_per_term: Vec<f64>,
    /// Average (over terms) number of open windows at each timestamp
    /// (Figure 6, "STLocal" series).
    pub avg_open_windows: Vec<f64>,
    /// The worst-case bound `n * (i + 1)` at each timestamp (Figure 6,
    /// "Upper Bound" series).
    pub upper_bound: Vec<f64>,
}

/// Picks the term sample used by Figures 5-7: every event query term plus
/// `n_background` background terms spread uniformly over the Zipf ranks, so
/// the sample mirrors the frequency spectrum of the full vocabulary (a few
/// very common terms, mostly rare ones) the paper averages over.
pub fn sample_terms(corpus: &TopixCorpus, n_background: usize) -> Vec<TermId> {
    let mut terms: Vec<TermId> = (0..corpus.events().len())
        .flat_map(|e| corpus.query_terms(e).to_vec())
        .collect();
    let collection = corpus.collection();
    // Background terms are named "bg<rank>"; probe ranks with a fixed stride
    // to cover the whole spectrum regardless of the configured vocabulary
    // size.
    let mut collected = 0usize;
    let mut rank = 0usize;
    let mut misses = 0usize;
    while collected < n_background && misses < 3 {
        match collection.dict().get(&format!("bg{rank:05}")) {
            Some(t) => {
                terms.push(t);
                collected += 1;
            }
            None => misses += 1,
        }
        rank += 10;
    }
    terms.sort();
    terms.dedup();
    terms
}

/// Streams the Topix corpus with STLocal for every sampled term and collects
/// the bookkeeping statistics of Figures 5 and 6.
pub fn streaming_statistics(corpus: &TopixCorpus, terms: &[TermId]) -> StreamingStats {
    let collection = corpus.collection();
    let timeline = collection.timeline_len();
    let n = collection.n_streams() as f64;
    let mut avg_rectangles_per_term = Vec::with_capacity(terms.len());
    let mut open_windows_sum = vec![0.0f64; timeline];
    for &term in terms {
        let (_, stats) = STLocal::mine_collection(collection, term, STLocalConfig::default());
        let avg_rects = stats.rectangles_per_timestamp.iter().sum::<usize>() as f64
            / stats.rectangles_per_timestamp.len().max(1) as f64;
        avg_rectangles_per_term.push(avg_rects);
        for (i, &w) in stats.open_windows_per_timestamp.iter().enumerate() {
            open_windows_sum[i] += w as f64;
        }
    }
    let n_terms = terms.len().max(1) as f64;
    StreamingStats {
        avg_rectangles_per_term,
        avg_open_windows: open_windows_sum.iter().map(|s| s / n_terms).collect(),
        upper_bound: (0..timeline).map(|i| n * (i + 1) as f64).collect(),
    }
}

/// Buckets the Figure 5 population into the paper's pie-chart bins:
/// `[0, 1)`, `[1, 2)`, `[2, 3)` and `>= 3` average rectangles per timestamp.
/// Returns the percentage of terms in each bin.
pub fn rectangle_histogram(avg_rectangles_per_term: &[f64]) -> [f64; 4] {
    let mut counts = [0usize; 4];
    for &avg in avg_rectangles_per_term {
        let bin = if avg < 1.0 {
            0
        } else if avg < 2.0 {
            1
        } else if avg < 3.0 {
            2
        } else {
            3
        };
        counts[bin] += 1;
    }
    let total = avg_rectangles_per_term.len().max(1) as f64;
    [
        counts[0] as f64 / total * 100.0,
        counts[1] as f64 / total * 100.0,
        counts[2] as f64 / total * 100.0,
        counts[3] as f64 / total * 100.0,
    ]
}

// ---------------------------------------------------------------------------
// Figure 7: per-timestamp running time on the Topix corpus.
// ---------------------------------------------------------------------------

/// Average per-term processing time (milliseconds) at each timestamp for
/// the streaming STLocal and the re-applied STComb (Figure 7).
#[derive(Debug, Clone)]
pub struct TimingPerTimestamp {
    /// STLocal: time of one `step` call, averaged over the sampled terms.
    pub stlocal_ms: Vec<f64>,
    /// STComb: time to re-mine the prefix of the stream up to each
    /// timestamp, averaged over the sampled terms.
    pub stcomb_ms: Vec<f64>,
}

/// Replays the Topix corpus in streaming order and measures the
/// per-timestamp cost of the two miners for the sampled terms.
pub fn timing_per_timestamp(corpus: &TopixCorpus, terms: &[TermId]) -> TimingPerTimestamp {
    let collection = corpus.collection();
    let timeline = collection.timeline_len();
    let n_terms = terms.len().max(1) as f64;

    let mut stlocal_ms = vec![0.0f64; timeline];
    let mut stcomb_ms = vec![0.0f64; timeline];

    for &term in terms {
        // STLocal: a single streaming pass.
        let mut miner = STLocal::new(collection.positions(), STLocalConfig::default());
        for ts in 0..timeline {
            let snapshot = collection.term_snapshot(term, ts);
            let (_, ms) = measure_ms(|| miner.step(&snapshot.frequencies));
            stlocal_ms[ts] += ms;
        }
        // STComb: re-applied to the prefix ending at each timestamp.
        let streams = collection.streams_with_term(term);
        let full_series: Vec<(StreamId, Vec<f64>)> = streams
            .iter()
            .map(|&s| (s, collection.term_stream_series(term, s)))
            .collect();
        let stcomb = stcomb_miner();
        for ts in 0..timeline {
            let prefix: Vec<(StreamId, Vec<f64>)> = full_series
                .iter()
                .map(|(s, series)| (*s, series[..=ts].to_vec()))
                .collect();
            let (_, ms) = measure_ms(|| stcomb.mine_series(&prefix));
            stcomb_ms[ts] += ms;
        }
    }
    TimingPerTimestamp {
        stlocal_ms: stlocal_ms.iter().map(|v| v / n_terms).collect(),
        stcomb_ms: stcomb_ms.iter().map(|v| v / n_terms).collect(),
    }
}

// ---------------------------------------------------------------------------
// Figure 8: scalability with the number of streams.
// ---------------------------------------------------------------------------

/// One point of the scalability curve: per-term mining time at a given
/// stream count.
#[derive(Debug, Clone, Copy)]
pub struct ScalabilityPoint {
    /// Number of streams of the dataset.
    pub n_streams: usize,
    /// Average per-term time (seconds) of STLocal.
    pub stlocal_secs: f64,
    /// Average per-term time (seconds) of STComb.
    pub stcomb_secs: f64,
}

/// The stream counts swept by the Figure 8 experiment at the given scale.
pub fn scalability_stream_counts(full: bool) -> Vec<usize> {
    if full {
        vec![500, 1000, 2000, 4000, 8000, 16000, 32000, 64000, 128000]
    } else {
        vec![500, 1000, 2000, 4000]
    }
}

/// Measures per-term mining time of both approaches on distGen datasets of
/// increasing size (Figure 8). `terms_per_point` patterned terms are timed
/// per dataset.
pub fn scalability_experiment(
    ctx: &ExperimentCtx,
    stream_counts: &[usize],
    terms_per_point: usize,
) -> Vec<ScalabilityPoint> {
    stream_counts
        .iter()
        .map(|&n_streams| {
            let config = GeneratorConfig {
                n_streams,
                timeline: if ctx.full { 365 } else { 120 },
                n_terms: if ctx.full { 10_000 } else { 1_000 },
                n_patterns: if ctx.full { 1_000 } else { 100 },
                // Keep the per-term signal sparse, as in any real corpus: a
                // given term is only used by a bounded set of sources.
                background_density: (120.0 / n_streams as f64).min(1.0),
                seed: ctx.seed,
                ..Default::default()
            };
            let dataset = PatternGenerator::generate(config);
            let terms: Vec<usize> = dataset
                .patterned_terms()
                .into_iter()
                .take(terms_per_point)
                .collect();
            let n_terms = terms.len().max(1) as f64;

            let (_, stlocal_ms) = measure_ms(|| {
                for &term in &terms {
                    mine_synthetic_term(&dataset, term, Approach::STLocal);
                }
            });
            let (_, stcomb_ms) = measure_ms(|| {
                for &term in &terms {
                    mine_synthetic_term(&dataset, term, Approach::STComb);
                }
            });
            ScalabilityPoint {
                n_streams,
                stlocal_secs: stlocal_ms / 1000.0 / n_terms,
                stcomb_secs: stcomb_ms / 1000.0 / n_terms,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Helpers shared by the binaries.
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> ExperimentCtx {
        ExperimentCtx {
            full: false,
            seed: 5,
        }
    }

    fn tiny_corpus() -> TopixCorpus {
        TopixCorpus::generate(TopixConfig::small())
    }

    #[test]
    fn analyze_localized_event_is_spatially_tight() {
        let corpus = tiny_corpus();
        // Event 15 (index 14): Tsvangirai, localized in Zimbabwe.
        let analysis = analyze_event(&corpus, 14);
        assert!(analysis.stlocal_countries > 0);
        assert!(analysis.stcomb_countries > 0);
        // The regional pattern must be far smaller than the full map and the
        // MBR of the combinatorial pattern at least as large as the pattern.
        assert!(analysis.stlocal_countries < 120);
        assert!(analysis.mbr_countries >= analysis.stcomb_countries);
        assert!(analysis.stlocal_weeks > 0 && analysis.stcomb_weeks > 0);
    }

    #[test]
    fn retrieval_scores_are_sane_on_small_distgen() {
        let config = GeneratorConfig {
            n_streams: 25,
            timeline: 80,
            n_terms: 60,
            n_patterns: 10,
            max_streams_per_pattern: 8,
            seed: 3,
            ..Default::default()
        };
        let dataset = PatternGenerator::generate(config);
        let stcomb = evaluate_retrieval(&dataset, Approach::STComb);
        let base = evaluate_retrieval(&dataset, Approach::Base);
        assert!(stcomb.jaccard > 0.3, "STComb jaccard {}", stcomb.jaccard);
        assert!(stcomb.jaccard <= 1.0);
        assert!(stcomb.start_error < 40.0);
        // The trivial baseline should not beat STComb on stream recovery.
        assert!(stcomb.jaccard >= base.jaccard - 0.1);
    }

    #[test]
    fn table2_configs_differ_only_in_selection() {
        let (dist, rand) = table2_configs(&tiny_ctx());
        assert_eq!(dist.n_streams, rand.n_streams);
        assert_ne!(dist.selection, rand.selection);
    }

    #[test]
    fn rectangle_histogram_buckets_sum_to_100() {
        let pop = vec![0.1, 0.4, 1.5, 2.7, 5.0, 0.0];
        let bins = rectangle_histogram(&pop);
        let total: f64 = bins.iter().sum();
        assert!((total - 100.0).abs() < 1e-9);
        assert!(bins[0] > 0.0 && bins[3] > 0.0);
    }

    #[test]
    fn sample_terms_includes_event_queries() {
        let corpus = tiny_corpus();
        let terms = sample_terms(&corpus, 5);
        for e in 0..corpus.events().len() {
            for t in corpus.query_terms(e) {
                assert!(terms.contains(t));
            }
        }
    }

    #[test]
    fn scalability_counts_depend_on_scale() {
        assert_eq!(scalability_stream_counts(false).len(), 4);
        assert_eq!(scalability_stream_counts(true).last(), Some(&128_000));
    }
}
