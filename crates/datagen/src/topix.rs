//! A synthetic Topix-like news corpus.
//!
//! The paper's real-data experiments run on a crawl of Topix.com: 305,641
//! articles from country-level news sources in 181 countries, posted between
//! September 2008 and July 2009, evaluated against the 18 events of the
//! Major Events List. That crawl is not publicly available, so this module
//! generates a corpus with the same *structure*:
//!
//! * one document stream per country of the gazetteer (181 streams), placed
//!   on the plane by classical MDS of the pairwise geographic distances —
//!   exactly the projection the paper uses;
//! * a 48-week timeline (Sep-2008 .. Jul-2009);
//! * background news traffic: every stream publishes a few documents per
//!   week whose terms are drawn from a Zipf-distributed vocabulary;
//! * the 18 Major Events injected on top: each event affects its epicenter
//!   and — depending on its impact tier — a geographically decaying set of
//!   other countries, for its duration, with a Weibull-shaped intensity
//!   profile. Documents generated by an event mention the event's query
//!   terms and are recorded as the event's ground-truth relevant documents
//!   (standing in for the paper's human annotator);
//! * a small amount of label noise: background documents occasionally
//!   mention an event term without being about the event.
//!
//! See DESIGN.md §4 for why this substitution preserves the behaviour the
//! evaluation measures.

use crate::distributions::{Weibull, Zipf};
use crate::events::{major_events, EventTier, MajorEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

use stb_corpus::{Collection, CollectionBuilder, DocId, StreamId, TermId};
use stb_geo::countries::{all_countries, by_code};
use stb_geo::haversine::pairwise_distance_matrix;
use stb_geo::{classical_mds, GeoPoint};

/// Number of weekly timestamps between September 2008 and July 2009.
pub(crate) const TOPIX_WEEKS: usize = 48;

/// Configuration of the synthetic Topix corpus.
#[derive(Debug, Clone)]
pub struct TopixConfig {
    /// Background documents per stream per week.
    pub docs_per_stream_per_week: usize,
    /// Size of the background vocabulary.
    pub background_vocab: usize,
    /// Background tokens per document.
    pub tokens_per_doc: usize,
    /// Zipf exponent of the background vocabulary.
    pub zipf_exponent: f64,
    /// Peak number of extra event documents per affected stream per week.
    pub event_docs_peak: f64,
    /// Occurrences of each event query term in an event document.
    pub event_term_freq: u32,
    /// Probability that a background document mentions one event term
    /// without being about the event (label noise).
    pub noise_mention_prob: f64,
    /// Whether to place the streams with classical MDS of geographic
    /// distances (as the paper does) instead of raw lon/lat coordinates.
    pub use_mds: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TopixConfig {
    fn default() -> Self {
        Self {
            docs_per_stream_per_week: 3,
            background_vocab: 1500,
            tokens_per_doc: 18,
            zipf_exponent: 1.1,
            event_docs_peak: 4.0,
            event_term_freq: 4,
            noise_mention_prob: 0.012,
            use_mds: true,
            seed: 2012,
        }
    }
}

impl TopixConfig {
    /// A reduced configuration for fast unit tests: fewer documents and no
    /// MDS projection.
    pub fn small() -> Self {
        Self {
            docs_per_stream_per_week: 1,
            background_vocab: 300,
            tokens_per_doc: 8,
            event_docs_peak: 3.0,
            use_mds: false,
            ..Default::default()
        }
    }
}

/// The generated corpus with its ground truth.
pub struct TopixCorpus {
    collection: Collection,
    events: &'static [MajorEvent],
    query_terms: Vec<Vec<TermId>>,
    relevant_docs: Vec<HashSet<DocId>>,
    affected_streams: Vec<Vec<StreamId>>,
    #[cfg(test)]
    country_streams: HashMap<&'static str, StreamId>,
}

impl TopixCorpus {
    /// Generates the corpus from a configuration.
    pub fn generate(config: TopixConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let countries = all_countries();
        let mut builder = CollectionBuilder::new(TOPIX_WEEKS);

        // --- Streams: one per country, projected with MDS. -----------------
        let geostamps: Vec<GeoPoint> = countries.iter().map(|c| c.geostamp()).collect();
        let positions = if config.use_mds {
            classical_mds(&pairwise_distance_matrix(&geostamps))
                .expect("geographic distance matrix is valid")
        } else {
            geostamps
                .iter()
                .map(|g| stb_geo::Point2D::new(g.lon, g.lat))
                .collect()
        };
        let mut country_streams = HashMap::new();
        for (country, position) in countries.iter().zip(positions) {
            let id = builder.add_stream_with_position(country.name, country.geostamp(), position);
            country_streams.insert(country.code, id);
        }

        // --- Vocabulary. ----------------------------------------------------
        let background_terms: Vec<TermId> = (0..config.background_vocab)
            .map(|i| builder.dict_mut().intern(&format!("bg{i:05}")))
            .collect();
        let zipf = Zipf::new(config.background_vocab, config.zipf_exponent);

        let events = major_events();
        let query_terms: Vec<Vec<TermId>> = events
            .iter()
            .map(|e| {
                e.query
                    .split_whitespace()
                    .map(|w| builder.dict_mut().intern(&w.to_lowercase()))
                    .collect()
            })
            .collect();

        // --- Event spatial footprint and temporal profile. ------------------
        // For each event, each affected country gets its own coverage
        // profile: intensity and duration both decay with the distance from
        // the epicenter. Nearby sources report heavily and keep the story in
        // the local spotlight after the rest of the world has moved on
        // (which is exactly the behaviour Section 6.2.1 of the paper
        // observes); remote sources report a brief, weaker splash around the
        // peak.
        let mut affected_streams: Vec<Vec<StreamId>> = Vec::with_capacity(events.len());
        let mut affected_profiles: Vec<Vec<Vec<f64>>> = Vec::with_capacity(events.len());
        for event in events {
            let epicenter = by_code(event.epicenter).expect("epicenter is in the gazetteer");
            let epicenter_point = epicenter.geostamp();
            let shape = rng.gen_range(1.5..3.0);
            let mut streams = Vec::new();
            let mut profiles = Vec::new();
            for country in countries {
                let d = country.geostamp().distance_km(&epicenter_point);
                let p = affect_probability(event.tier, d);
                if country.code != event.epicenter && !rng.gen_bool(p) {
                    continue;
                }
                let intensity = coverage_intensity(event.tier, d);
                let duration = ((event.duration_weeks as f64 * (0.4 + 1.2 * intensity)).round()
                    as usize)
                    .clamp(1, TOPIX_WEEKS - event.start_week);
                let scale = (duration as f64 / 2.0).max(1.0);
                let profile = Weibull::new(shape, scale)
                    .profile(duration, config.event_docs_peak * intensity);
                streams.push(country_streams[country.code]);
                profiles.push(profile);
            }
            affected_streams.push(streams);
            affected_profiles.push(profiles);
        }

        // --- Documents. ------------------------------------------------------
        let mut relevant_docs: Vec<HashSet<DocId>> = vec![HashSet::new(); events.len()];
        let all_stream_ids: Vec<StreamId> =
            countries.iter().map(|c| country_streams[c.code]).collect();
        for week in 0..TOPIX_WEEKS {
            for &stream in &all_stream_ids {
                // Background documents.
                for _ in 0..config.docs_per_stream_per_week {
                    let mut counts: HashMap<TermId, u32> = HashMap::new();
                    for _ in 0..config.tokens_per_doc {
                        let term = background_terms[zipf.sample(&mut rng)];
                        *counts.entry(term).or_insert(0) += 1;
                    }
                    // Label noise: incidental mentions of event terms. Real
                    // news sources use words like "earthquake" or "Obama"
                    // in unrelated coverage all the time; this is what gives
                    // every stream a small positive expected frequency for
                    // the query terms, exactly like the real Topix corpus.
                    for terms in &query_terms {
                        if rng.gen_bool(config.noise_mention_prob) {
                            let t = terms[rng.gen_range(0..terms.len())];
                            *counts.entry(t).or_insert(0) += 1;
                        }
                    }
                    builder.add_document(stream, week, counts);
                }
            }
            // Event documents for this week.
            for (e_idx, event) in events.iter().enumerate() {
                if week < event.start_week {
                    continue;
                }
                let offset = week - event.start_week;
                for (pos, &stream) in affected_streams[e_idx].iter().enumerate() {
                    let profile = &affected_profiles[e_idx][pos];
                    if offset >= profile.len() {
                        continue;
                    }
                    let intensity = profile[offset];
                    // Number of event documents: intensity with random
                    // rounding so weak weeks still occasionally produce one.
                    let n_docs = intensity.floor() as usize
                        + usize::from(rng.gen_bool(intensity.fract().clamp(0.0, 1.0)));
                    for _ in 0..n_docs {
                        let mut counts: HashMap<TermId, u32> = HashMap::new();
                        for &t in &query_terms[e_idx] {
                            *counts.entry(t).or_insert(0) += config.event_term_freq;
                        }
                        // Event documents still carry some background language.
                        for _ in 0..(config.tokens_per_doc / 2) {
                            let term = background_terms[zipf.sample(&mut rng)];
                            *counts.entry(term).or_insert(0) += 1;
                        }
                        let doc = builder.add_document(stream, week, counts);
                        relevant_docs[e_idx].insert(doc);
                    }
                }
            }
        }

        TopixCorpus {
            collection: builder.build(),
            events,
            query_terms,
            relevant_docs,
            affected_streams,
            #[cfg(test)]
            country_streams,
        }
    }

    /// The generated document collection.
    pub fn collection(&self) -> &Collection {
        &self.collection
    }

    /// The Major Events List the corpus was built from.
    pub fn events(&self) -> &'static [MajorEvent] {
        self.events
    }

    /// The interned query terms of an event (0-based index into
    /// [`TopixCorpus::events`]).
    pub fn query_terms(&self, event_idx: usize) -> &[TermId] {
        &self.query_terms[event_idx]
    }

    /// The ground-truth relevant documents of an event.
    pub fn relevant_docs(&self, event_idx: usize) -> &HashSet<DocId> {
        &self.relevant_docs[event_idx]
    }

    /// The ground-truth affected streams of an event.
    pub fn affected_streams(&self, event_idx: usize) -> &[StreamId] {
        &self.affected_streams[event_idx]
    }

    /// The stream of a country, by ISO code.
    #[cfg(test)]
    pub(crate) fn stream_of_country(&self, code: &str) -> Option<StreamId> {
        self.country_streams
            .get(code.to_ascii_uppercase().as_str())
            .copied()
    }
}

/// Probability that a country at distance `d` km from the epicenter reports
/// an event of the given tier.
fn affect_probability(tier: EventTier, distance_km: f64) -> f64 {
    match tier {
        EventTier::Global => 0.85,
        EventTier::MultiCountry => (-(distance_km / 3500.0)).exp().max(0.06),
        EventTier::Localized => (-(distance_km / 1500.0)).exp(),
    }
    .clamp(0.0, 1.0)
}

/// Relative coverage intensity (event documents per week at the burst peak)
/// of a country at distance `d` km from the epicenter.
fn coverage_intensity(tier: EventTier, distance_km: f64) -> f64 {
    match tier {
        EventTier::Global => (-(distance_km / 9000.0)).exp().max(0.55),
        EventTier::MultiCountry => (-(distance_km / 5000.0)).exp().max(0.3),
        EventTier::Localized => (-(distance_km / 2500.0)).exp().max(0.25),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus() -> TopixCorpus {
        TopixCorpus::generate(TopixConfig::small())
    }

    #[test]
    fn corpus_has_181_streams_and_48_weeks() {
        let c = small_corpus();
        assert_eq!(c.collection().n_streams(), 181);
        assert_eq!(c.collection().timeline_len(), TOPIX_WEEKS);
        assert!(c.collection().documents().len() > 181 * TOPIX_WEEKS / 2);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_corpus();
        let b = small_corpus();
        assert_eq!(
            a.collection().documents().len(),
            b.collection().documents().len()
        );
        for e in 0..18 {
            assert_eq!(a.relevant_docs(e).len(), b.relevant_docs(e).len());
            assert_eq!(a.affected_streams(e), b.affected_streams(e));
        }
    }

    #[test]
    fn every_event_has_relevant_documents_and_affected_streams() {
        let c = small_corpus();
        for e in 0..c.events().len() {
            assert!(!c.relevant_docs(e).is_empty(), "event {e} has no documents");
            assert!(!c.affected_streams(e).is_empty());
            assert!(!c.query_terms(e).is_empty());
        }
    }

    #[test]
    fn global_events_affect_more_countries_than_localized_ones() {
        let c = small_corpus();
        let avg = |range: std::ops::Range<usize>| -> f64 {
            range
                .clone()
                .map(|e| c.affected_streams(e).len() as f64)
                .sum::<f64>()
                / range.len() as f64
        };
        let global = avg(0..6);
        let localized = avg(12..18);
        assert!(
            global > 100.0,
            "global events cover {global} countries on average"
        );
        assert!(localized < 60.0, "localized events cover {localized}");
        assert!(global > 2.0 * localized);
    }

    #[test]
    fn epicenter_is_always_affected() {
        let c = small_corpus();
        for (e_idx, event) in c.events().iter().enumerate() {
            let epicenter_stream = c.stream_of_country(event.epicenter).unwrap();
            assert!(
                c.affected_streams(e_idx).contains(&epicenter_stream),
                "event {} does not affect its epicenter",
                event.id
            );
        }
    }

    #[test]
    fn relevant_documents_come_from_affected_streams_within_the_event_window() {
        let c = small_corpus();
        for (e_idx, event) in c.events().iter().enumerate() {
            // Local sources keep covering an event for up to ~1.6x its
            // nominal duration (the "local spotlight" tail).
            let max_end =
                event.start_week + (event.duration_weeks * 2).max(event.duration_weeks + 2);
            for &doc_id in c.relevant_docs(e_idx) {
                let doc = c.collection().document(doc_id);
                assert!(doc.timestamp >= event.start_week);
                assert!(doc.timestamp < max_end.min(super::TOPIX_WEEKS));
                assert!(c.affected_streams(e_idx).contains(&doc.stream));
                // The document mentions every query term of the event.
                for &t in c.query_terms(e_idx) {
                    assert!(doc.freq(t) > 0);
                }
            }
        }
    }

    #[test]
    fn event_terms_burst_during_the_event() {
        let c = small_corpus();
        // Event 4 (index 3): Jackson, a global event.
        let e_idx = 3;
        let event = &c.events()[e_idx];
        let term = c.query_terms(e_idx)[0];
        let merged = c.collection().term_merged_series(term);
        // The event window, including the extended local-coverage tail.
        let window_end = (event.start_week + event.duration_weeks * 2).min(TOPIX_WEEKS);
        let window_len = window_end - event.start_week;
        let inside: f64 = (event.start_week..window_end)
            .map(|w| merged[w])
            .sum::<f64>()
            / window_len as f64;
        let outside: f64 = merged
            .iter()
            .enumerate()
            .filter(|(w, _)| *w < event.start_week || *w >= window_end)
            .map(|(_, v)| v)
            .sum::<f64>()
            / (TOPIX_WEEKS - window_len) as f64;
        assert!(
            inside > 10.0 * (outside + 0.1),
            "inside {inside} vs outside {outside}"
        );
    }

    #[test]
    fn stream_lookup_by_country_code() {
        let c = small_corpus();
        assert!(c.stream_of_country("us").is_some());
        assert!(c.stream_of_country("ZW").is_some());
        assert!(c.stream_of_country("XX").is_none());
    }
}
