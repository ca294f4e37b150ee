//! The batch phase — the paper's own setting: time from input documents to
//! a complete result. Collection build, both miners over the term set,
//! the finalized index, the 18 Major Event queries.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use stb_core::{CombinatorialPattern, STComb, STLocal, STLocalConfig};
use stb_corpus::{Collection, CollectionBuilder, StreamId, TermId};
use stb_datagen::TopixCorpus;
use stb_search::threshold::exhaustive_topk;
use stb_search::{BurstySearchEngine, EngineConfig, Query, SearchResult};

use crate::inputs::TOP_K;
use crate::report::Outcome;
use crate::spans::{Recorder, HARNESS};
use crate::THREADS;

/// Mean precision@10 of the event queries against the generator's ground
/// truth must stay above this (the seed commit reads 0.9 and more on every
/// workload; far below means the miners or the scoring broke).
pub const PRECISION_FLOOR: f64 = 0.6;

/// What later phases reuse: the rebuilt collection and the combinatorial
/// patterns of every term (cheap to mine, so always complete).
pub struct BatchOutput {
    pub collection: Arc<Collection>,
    pub stcomb: Vec<(TermId, Vec<CombinatorialPattern>)>,
}

/// The terms STLocal mines: all of them, or — where the batch phase is not
/// the workload's subject — the event terms plus an even sample of `n`.
pub fn stlocal_terms(corpus: &TopixCorpus, sample: Option<usize>) -> Vec<TermId> {
    let all: Vec<TermId> = corpus.collection().terms().collect();
    let Some(n) = sample else {
        return all;
    };
    let mut terms: Vec<TermId> = (0..corpus.events().len())
        .flat_map(|e| corpus.query_terms(e).iter().copied())
        .collect();
    let step = (all.len() / n.max(1)).max(1);
    terms.extend(all.iter().step_by(step).take(n));
    terms.sort();
    terms.dedup();
    terms
}

/// Runs batch laps until `budget_s` is spent (at least one), reports them
/// through [`Outcome::absorb_laps`], and checks the last lap's answers.
pub fn run(
    corpus: &TopixCorpus,
    stlocal_sample: Option<usize>,
    budget_s: f64,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> BatchOutput {
    let source = corpus.collection();
    let local_terms = stlocal_terms(corpus, stlocal_sample);
    let all_terms: Vec<TermId> = source.terms().collect();
    let event_queries: Vec<Query> = (0..corpus.events().len())
        .map(|e| Query::terms(corpus.query_terms(e).iter().copied()).top_k(TOP_K))
        .collect();

    let started = Instant::now();
    let mut laps: Vec<Outcome> = Vec::new();
    let mut last = None;
    let mut last_wall_s = 0.0;
    // Another lap starts only if, going by the last one, it ends in budget:
    // a lap that just fits must not double the run on a slower day.
    while laps.is_empty() || started.elapsed().as_secs_f64() + last_wall_s <= budget_s {
        let lap_no = laps.len() as u64;
        // One lap's products alive at a time: the peak must not depend on
        // how many laps the budget allowed.
        drop(last.take());
        // Owned copies of the input documents, made outside the window.
        let docs: Vec<(StreamId, usize, HashMap<TermId, u32>)> = source
            .documents()
            .iter()
            .map(|d| (d.stream, d.timestamp, d.counts.clone()))
            .collect();

        let window = rec.open("batch.lap", HARNESS, lap_no);
        let t0 = Instant::now();
        let (collection, build_s) = rec.time("corpus.build", "corpus", lap_no, || {
            let mut b = CollectionBuilder::new(source.timeline_len());
            for s in source.streams() {
                b.add_stream_with_position(&s.name, s.geostamp, s.position);
            }
            // The whole dictionary in id order, so term ids carry over.
            for t in 0..source.dict().len() {
                b.dict_mut().intern(
                    source
                        .dict()
                        .resolve(TermId(t as u32))
                        .expect("dense dictionary"),
                );
            }
            for (stream, week, counts) in docs {
                b.add_document(stream, week, counts);
            }
            Arc::new(b.build())
        });
        let (stlocal, stlocal_s) = rec.time("core.stlocal", "core", lap_no, || {
            STLocal::mine_collection_parallel(
                &collection,
                &local_terms,
                &STLocalConfig::default(),
                THREADS,
            )
        });
        let (stcomb, stcomb_s) = rec.time("core.stcomb", "core", lap_no, || {
            STComb::new().mine_collection_parallel(&collection, &all_terms, THREADS)
        });
        let (mut engine, set_patterns_s) =
            rec.time("search.set_patterns", "search", lap_no, || {
                let mut e =
                    BurstySearchEngine::new(Arc::clone(&collection), EngineConfig::default());
                e.set_patterns_from(&stlocal);
                e
            });
        let ((), finalize_s) = rec.time("search.finalize", "search", lap_no, || {
            engine.finalize_with_threads(THREADS)
        });
        let (answers, _) = rec.time("search.event_queries", "search", lap_no, || {
            event_queries
                .iter()
                .map(|q| engine.query(q))
                .collect::<Vec<_>>()
        });
        let wall_s = t0.elapsed().as_secs_f64();
        rec.close(window);

        let mut lap = Outcome::default();
        for (name, secs) in [
            ("batch_s", wall_s),
            ("corpus.build_s", build_s),
            ("core.stlocal_s", stlocal_s),
            ("core.stcomb_s", stcomb_s),
            ("search.set_patterns_s", set_patterns_s),
            ("search.finalize_s", finalize_s),
        ] {
            lap.set(name, secs, 1);
        }
        laps.push(lap);
        last_wall_s = wall_s;
        last = Some((collection, stlocal, stcomb, engine, answers));
    }
    let (collection, stlocal, stcomb, engine, answers) = last.expect("at least one lap ran");
    out.absorb_laps(laps);
    out.set("corpus.docs", collection.documents().len() as f64, 1);
    let postings: usize = collection
        .documents()
        .iter()
        .map(|d| d.distinct_terms())
        .sum();
    out.set("corpus.postings", postings as f64, 1);
    out.set(
        "core.stlocal_patterns",
        stlocal.iter().map(|(_, p)| p.len()).sum::<usize>() as f64,
        local_terms.len(),
    );
    out.set(
        "core.stcomb_patterns",
        stcomb.iter().map(|(_, p)| p.len()).sum::<usize>() as f64,
        all_terms.len(),
    );
    out.set(
        "search.index_postings",
        engine.metrics().indexed_postings as f64,
        1,
    );

    check_answers(corpus, &engine, &answers, out);
    BatchOutput { collection, stcomb }
}

/// Threshold-Algorithm top-10 ≡ exhaustive scoring on every event query,
/// and precision against the generator's relevant documents.
fn check_answers(
    corpus: &TopixCorpus,
    engine: &BurstySearchEngine,
    answers: &[Result<stb_search::QueryResponse, stb_search::QueryError>],
    out: &mut Outcome,
) {
    let index = engine.prebuilt_index().expect("the engine was finalized");
    let policy = engine.config().no_pattern;
    let mut precisions = Vec::new();
    for (e, answer) in answers.iter().enumerate() {
        out.ops(1, u64::from(answer.is_err()));
        let Ok(response) = answer else {
            out.failures.push(format!("event query {e} was refused"));
            continue;
        };
        out.fold_results(&response.results);
        // The whole exhaustive ranking, so that a document the threshold
        // walk picked from a tie at the cut-off can be looked up in it.
        let ranking = exhaustive_topk(index, corpus.query_terms(e), usize::MAX, policy);
        let cut = &ranking[..TOP_K.min(ranking.len())];
        let tied_in = response
            .results
            .iter()
            .all(|r| ranking.iter().any(|o| o.doc == r.doc && same_score(o, r)));
        out.check(same_topk(&response.results, cut) && tied_in, || {
            format!("event query {e}: threshold top-{TOP_K} differs from exhaustive scoring")
        });
        if !response.results.is_empty() {
            let relevant = corpus.relevant_docs(e);
            let hits = response
                .results
                .iter()
                .filter(|r| relevant.contains(&r.doc))
                .count();
            precisions.push(hits as f64 / response.results.len() as f64);
        }
    }
    let precision = crate::stats::mean(&precisions);
    out.check(precision >= PRECISION_FLOOR, || {
        format!("event-query precision {precision:.3} is below the floor {PRECISION_FLOOR}")
    });
}

fn same_score(a: &SearchResult, b: &SearchResult) -> bool {
    a.score.to_bits() == b.score.to_bits()
}

/// Two top-k lists are the same answer: score bits agree position by
/// position, and so do the documents — except among those tied with the
/// last score, where which of the equals made the cut is not defined.
pub fn same_topk(a: &[SearchResult], b: &[SearchResult]) -> bool {
    let Some(last) = a.last() else {
        return b.is_empty();
    };
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| same_score(x, y) && (x.doc == y.doc || same_score(x, last)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stb_corpus::DocId;

    fn list(entries: &[(u32, f64)]) -> Vec<SearchResult> {
        entries
            .iter()
            .map(|&(doc, score)| SearchResult {
                doc: DocId(doc),
                score,
            })
            .collect()
    }

    #[test]
    fn top_k_lists_compare_bit_for_bit_up_to_the_cut_off_tie() {
        let a = list(&[(1, 9.0), (2, 7.0), (5, 3.0)]);
        assert!(same_topk(&a, &a));
        assert!(same_topk(&[], &[]));
        // Another document of the same score at the cut-off: same answer.
        assert!(same_topk(&a, &list(&[(1, 9.0), (2, 7.0), (6, 3.0)])));
        // A corrupted expectation: one score bit, one document above the
        // cut-off, or a missing entry must all be caught.
        assert!(!same_topk(
            &a,
            &list(&[(1, 9.0), (2, 7.000000000000001), (5, 3.0)])
        ));
        assert!(!same_topk(&a, &list(&[(1, 9.0), (3, 7.0), (5, 3.0)])));
        assert!(!same_topk(&a, &list(&[(1, 9.0), (2, 7.0)])));
        assert!(!same_topk(&a, &[]));
    }
}
