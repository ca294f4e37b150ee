//! Regression tests for the durable replay path: on the same TSV corpus,
//! `load_snapshot + replay_wal` must be indistinguishable from
//! `replay_tsv` — identical snapshot bytes, identical re-derived frequency
//! series and posting lists, identical scores down to the `f64` bit
//! pattern. This is the contract that makes the store a safe substitute
//! for a full rebuild.

use std::io::Cursor;
use std::path::PathBuf;

use stb_corpus::TermId;
use stb_ingest::{
    replay_tsv, replay_tsv_durable, IngestConfig, IngestPipeline, Query, SearchHandle,
};
use stb_search::SearchResult;
use stb_store::snapshot::encode_snapshot;

/// A synthetic 12-tick, 3-stream corpus with two bursty terms and one
/// background term, exercising mid-file stream arrival as well.
fn corpus() -> String {
    let mut s = String::from("C\t12\n");
    s.push_str("S\t0\tA\t0\t0\t0\t0\n");
    s.push_str("S\t1\tB\t1\t1\t1\t1\n");
    for ts in 0..4 {
        s.push_str(&format!("D\t0\t{ts}\tquake:1\tcalm:2\n"));
        s.push_str(&format!("D\t1\t{ts}\tquake:1\n"));
    }
    // Third stream comes online mid-file, then both nearby streams burst.
    s.push_str("S\t2\tC\t50\t50\t50\t50\n");
    for ts in 4..8 {
        s.push_str(&format!("D\t0\t{ts}\tquake:25\tstorm:18\n"));
        s.push_str(&format!("D\t1\t{ts}\tquake:30\n"));
        s.push_str(&format!("D\t2\t{ts}\tcalm:1\n"));
    }
    for ts in 8..12 {
        s.push_str(&format!("D\t0\t{ts}\tquake:1\n"));
        s.push_str(&format!("D\t2\t{ts}\tstorm:2\tcalm:1\n"));
    }
    s
}

fn case_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stb-durable-replay-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(handle: &SearchHandle, terms: &[TermId], k: usize) -> Vec<SearchResult> {
    handle
        .query(&Query::terms(terms.iter().copied()).top_k(k))
        .map(|r| r.results)
        .unwrap_or_default()
}

fn assert_pipelines_identical(expect: &IngestPipeline, got: &IngestPipeline) {
    assert_eq!(expect.ticks_committed(), got.ticks_committed());
    assert_eq!(
        encode_snapshot(&expect.export_snapshot_state()),
        encode_snapshot(&got.export_snapshot_state()),
        "snapshot encodings diverge"
    );
    // The snapshot carries neither the tensor nor the postings: compare
    // the re-derived ones directly. A single-term query with `k` at least
    // the document count returns the term's whole posting list.
    let (ce, cg) = (expect.collection(), got.collection());
    let all = ce.documents().len().max(1);
    let he = expect.search_handle();
    let hg = got.search_handle();
    for term in ce.terms() {
        for s in ce.streams() {
            let bits = |c: &stb_corpus::Collection| -> Vec<u64> {
                c.term_stream_series(term, s.id)
                    .iter()
                    .map(|f| f.to_bits())
                    .collect()
            };
            assert_eq!(bits(&ce), bits(&cg), "series of {term:?}");
        }
        let re = run(&he, &[term], all);
        let rg = run(&hg, &[term], all);
        assert_eq!(re.len(), rg.len(), "list length of {term:?}");
        for (e, g) in re.iter().zip(&rg) {
            assert_eq!(e.doc, g.doc, "list of {term:?}");
            assert_eq!(e.score.to_bits(), g.score.to_bits(), "list of {term:?}");
        }
    }
    let terms: Vec<TermId> = ce.terms().collect();
    for term in &terms {
        for k in [1, 5, 20] {
            let re = run(&he, &[*term], k);
            let rg = run(&hg, &[*term], k);
            assert_eq!(re.len(), rg.len());
            for (e, g) in re.iter().zip(&rg) {
                assert_eq!(e.doc, g.doc);
                assert_eq!(e.score.to_bits(), g.score.to_bits(), "score bits");
            }
        }
    }
    let re = run(&he, &terms, 20);
    let rg = run(&hg, &terms, 20);
    assert_eq!(re.len(), rg.len());
    for (e, g) in re.iter().zip(&rg) {
        assert_eq!(e.doc, g.doc);
        assert_eq!(e.score.to_bits(), g.score.to_bits());
    }
}

#[test]
fn durable_replay_equals_plain_replay() {
    let dir = case_dir("default");
    let text = corpus();

    // Reference: the plain in-memory replay.
    let reference = replay_tsv(Cursor::new(&text), IngestConfig::default()).expect("replay");

    // First durable run drives the file and leaves a checkpoint behind.
    let (first, report) = replay_tsv_durable(Cursor::new(&text), IngestConfig::default(), &dir)
        .expect("durable replay");
    assert!(!report.snapshot_loaded, "fresh dir must replay the file");
    assert!(report.corpus_ingested, "fresh dir must ingest the corpus");
    assert_pipelines_identical(&reference, &first);
    drop(first);

    // Restart: recovery must come from the snapshot alone, not the file.
    let (recovered, report) =
        replay_tsv_durable(Cursor::new(&text), IngestConfig::default(), &dir).expect("recovery");
    assert!(report.snapshot_loaded, "restart must load the snapshot");
    assert!(!report.corpus_ingested, "restart must not re-read the file");
    assert_eq!(report.wal_ticks_replayed, 0, "checkpoint compacted the WAL");
    assert_pipelines_identical(&reference, &recovered);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_tick_snapshot_of_pristine_pipeline_still_ingests() {
    // A checkpoint taken on a completely fresh pipeline (no streams, no
    // terms, no commits) leaves a zero-tick snapshot behind. The store
    // holds no state worth preferring, so a durable replay must still
    // drive the file instead of silently returning an empty pipeline.
    let dir = case_dir("zero-tick-pristine");
    {
        let (mut pipeline, _) =
            IngestPipeline::durable(IngestConfig::default(), &dir).expect("open");
        pipeline.checkpoint().expect("pristine checkpoint");
    }
    let text = corpus();
    let reference = replay_tsv(Cursor::new(&text), IngestConfig::default()).expect("replay");
    let (ingested, report) = replay_tsv_durable(Cursor::new(&text), IngestConfig::default(), &dir)
        .expect("durable replay over pristine snapshot");
    assert!(report.snapshot_loaded);
    assert!(
        report.corpus_ingested,
        "pristine store must ingest the file"
    );
    assert_pipelines_identical(&reference, &ingested);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_tick_snapshot_with_state_skips_file_and_reports_it() {
    // A zero-tick snapshot can still hold real state: streams registered
    // and documents staged before the first commit. Re-driving the file on
    // top would duplicate streams, so the file is skipped — and the report
    // says so, instead of leaving the caller to guess why the corpus is
    // missing.
    let dir = case_dir("zero-tick-staged");
    {
        let (mut pipeline, _) =
            IngestPipeline::durable(IngestConfig::default(), &dir).expect("open");
        let s = pipeline.add_stream("staged-only", stb_geo::GeoPoint::new(2.0, 3.0));
        let term = pipeline.intern("quake");
        pipeline.stage_document(s, std::collections::HashMap::from([(term, 4)]));
        pipeline.checkpoint().expect("mid-stage checkpoint");
    }
    let (recovered, report) =
        replay_tsv_durable(Cursor::new(corpus()), IngestConfig::default(), &dir)
            .expect("recovery over staged-only snapshot");
    assert!(report.snapshot_loaded);
    assert!(
        !report.corpus_ingested,
        "staged state must win over the file"
    );
    assert_eq!(recovered.ticks_committed(), 0);
    assert_eq!(
        recovered.collection().n_streams(),
        1,
        "no duplicate streams"
    );
    assert_eq!(recovered.metrics().staged_docs, 1, "staged doc survives");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_replay_prefers_store_over_file() {
    // A store seeded from a 6-tick corpus, then opened against a longer
    // 12-tick file: the recovered state wins, the file is not re-read.
    // (Resuming the remaining ticks is the caller's decision, via the
    // staging API — re-driving the file would double-count documents.)
    let dir = case_dir("prefer-store");
    let mut short = String::from("C\t6\n");
    short.push_str("S\t0\tA\t0\t0\t0\t0\n");
    short.push_str("S\t1\tB\t1\t1\t1\t1\n");
    for ts in 0..6 {
        short.push_str(&format!(
            "D\t0\t{ts}\tquake:{}\n",
            if ts >= 4 { 25 } else { 1 }
        ));
    }
    let reference = replay_tsv(Cursor::new(&short), IngestConfig::default()).expect("replay");
    {
        let (pipeline, _) = replay_tsv_durable(Cursor::new(&short), IngestConfig::default(), &dir)
            .expect("seed store");
        drop(pipeline);
    }
    let (recovered, report) =
        replay_tsv_durable(Cursor::new(corpus()), IngestConfig::default(), &dir)
            .expect("recovery against longer file");
    assert!(report.snapshot_loaded);
    assert_eq!(recovered.ticks_committed(), 6, "file must not be re-driven");
    assert_pipelines_identical(&reference, &recovered);
    let _ = std::fs::remove_dir_all(&dir);
}
