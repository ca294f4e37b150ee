//! Bursty-document search over a synthetic world-news corpus.
//!
//! ```text
//! cargo run --release --example news_search [query terms...]
//! ```
//!
//! Generates the synthetic Topix-like corpus (181 country streams, 48
//! weeks, the 18 Major Events of the paper), mines STComb patterns for the
//! query terms, and retrieves the top documents with the paper's
//! relevance × burstiness scoring (Section 5). With no arguments the query
//! defaults to "piracy".

use stburst::core::STComb;
use stburst::corpus::TermId;
use stburst::datagen::{TopixConfig, TopixCorpus};
use stburst::search::{BurstySearchEngine, EngineConfig, Query};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let query_text = if args.is_empty() {
        "piracy".to_string()
    } else {
        args.join(" ")
    };

    println!("Generating the synthetic Topix corpus (181 countries, 48 weeks)...");
    let corpus = TopixCorpus::generate(TopixConfig {
        docs_per_stream_per_week: 2,
        background_vocab: 500,
        ..Default::default()
    });
    let collection = corpus.collection();
    println!(
        "  {} documents, {} distinct terms.\n",
        collection.documents().len(),
        collection.n_terms()
    );

    // Resolve the query against the dictionary.
    let query: Vec<TermId> = query_text
        .split_whitespace()
        .filter_map(|w| collection.dict().get(&w.to_lowercase()))
        .collect();
    if query.is_empty() {
        println!("No query term found in the corpus vocabulary: {query_text:?}");
        return;
    }

    // Mine combinatorial patterns for the query terms in parallel and feed
    // them to the engine wholesale (the miner output is the
    // `(term, patterns)` list `set_patterns_from` takes).
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mined = STComb::new().mine_collection_parallel(collection, &query, threads);
    for (term, patterns) in &mined {
        println!(
            "term '{}': {} spatiotemporal patterns",
            collection.dict().resolve(*term).unwrap_or("?"),
            patterns.len()
        );
    }
    let mut engine = BurstySearchEngine::new(collection, EngineConfig::default());
    engine.set_patterns_from(&mined);

    // Prebuild the score-sorted posting index so repeated queries only walk
    // prebuilt lists (and, on exact repeats, hit the result cache).
    let t0 = std::time::Instant::now();
    engine.finalize();
    println!("\nPrebuilt posting index in {:.1?}", t0.elapsed());

    // Retrieve the top-10 bursty documents through the typed query DSL,
    // with per-document explanations of the Eq. 10–11 factors.
    println!("Top documents for query '{query_text}':");
    let typed = Query::terms(query.iter().copied()).top_k(10).explain(true);
    let response = engine.query(&typed).expect("valid query");
    for (rank, (hit, why)) in response
        .results
        .iter()
        .zip(&response.explanations)
        .enumerate()
    {
        let doc = collection.document(hit.doc);
        let country = &collection.stream(doc.stream).name;
        let pattern = why.terms[0].patterns.first();
        println!(
            "  {:>2}. score {:>8.3}  week {:>2}  {}  (pattern {})",
            rank + 1,
            hit.score,
            doc.timestamp,
            country,
            pattern.map_or("-".to_string(), |p| p.interval.to_string()),
        );
    }

    // The canonical spatiotemporal question: the same terms, restricted to
    // the burst window and map region of the top hit's pattern.
    if let Some(top_pattern) = response
        .explanations
        .first()
        .and_then(|e| e.terms[0].patterns.first())
    {
        let (interval, region) = (top_pattern.interval, top_pattern.region);
        let mut focused = Query::terms(query.iter().copied())
            .top_k(10)
            .time_window(interval.start..=interval.end);
        if let Some(rect) = region {
            focused = focused.region(rect);
        }
        let focused_hits = engine.query(&focused).expect("valid query");
        println!(
            "\nRestricted to window {} and the pattern's region: {} documents",
            interval,
            focused_hits.results.len()
        );
    }

    // The same query again is a cache hit.
    let t1 = std::time::Instant::now();
    let again = engine.query(&typed).expect("valid query");
    println!(
        "\nRepeated query answered in {:.1?} (cache hit: {}, {} cache hits total)",
        t1.elapsed(),
        again.stats.cache_hit,
        engine.metrics().cache_hits
    );
}
