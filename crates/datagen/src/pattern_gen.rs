//! The `distGen` / `randGen` artificial data generators (Appendix B).
//!
//! The generators build a synthetic spatiotemporal collection in three
//! steps, exactly as the paper describes:
//!
//! 1. **Background frequencies** — every (term, stream, timestamp) cell gets
//!    a random frequency drawn from an exponential distribution (the paper
//!    verified this is a good fit for the Topix background traffic). The
//!    background is generated *lazily* from a hash of the coordinates, so a
//!    dataset with 128,000 streams and 10,000 terms (the largest point of
//!    Figure 8) never has to be materialized.
//! 2. **Pattern generation** — each of the requested ground-truth patterns
//!    picks a term uniformly at random, a timeframe uniformly at random, and
//!    a set of streams: `distGen` starts from a random seed stream and adds
//!    other streams with probability decaying in their distance from it
//!    (producing the spatially coherent patterns of real events), while
//!    `randGen` samples an arbitrary subset of streams.
//! 3. **Frequency injection** — each included stream receives extra
//!    frequency over the pattern's timeframe following a Weibull profile
//!    whose shape, scale and peak are drawn independently per stream, "to
//!    ensure high variability in the produced patterns".

use crate::distributions::Weibull;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

use stb_geo::Point2D;
use stb_timeseries::TimeInterval;

/// How the streams of a pattern are selected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamSelection {
    /// `distGen`: a random seed stream plus neighbours, with inclusion
    /// probability decaying exponentially in the distance from the seed
    /// (scale = the given fraction of the map diagonal).
    DistGen {
        /// Distance decay scale as a fraction of the map diagonal (e.g. 0.1).
        decay_fraction: f64,
    },
    /// `randGen`: a uniformly random subset of streams.
    RandGen,
}

/// Configuration of the artificial data generator.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Number of streams `|D|`.
    pub n_streams: usize,
    /// Timeline length (the paper uses 365 to emulate one year of days).
    pub timeline: usize,
    /// Number of terms in the vocabulary (the paper uses 10,000).
    pub n_terms: usize,
    /// Number of ground-truth patterns to inject (the paper uses 1,000).
    pub n_patterns: usize,
    /// Stream selection mechanism (`distGen` or `randGen`).
    pub selection: StreamSelection,
    /// Mean of the exponential background frequency.
    pub background_mean: f64,
    /// Range of the per-stream burst peak `P` (min, max).
    pub peak_range: (f64, f64),
    /// Minimum pattern timeframe length, in timestamps.
    pub min_pattern_len: usize,
    /// Maximum pattern timeframe length, in timestamps.
    pub max_pattern_len: usize,
    /// Upper bound on the number of streams included in one pattern.
    pub max_streams_per_pattern: usize,
    /// Side length of the square map on which stream positions are drawn.
    pub map_size: f64,
    /// Probability that a given (term, stream) pair carries background
    /// traffic at all. Real corpora are sparse — a term is only ever used by
    /// a subset of the sources — and the scalability experiment of Figure 8
    /// relies on this: the number of streams carrying a given term stays
    /// bounded while the total number of streams grows. 1.0 means every
    /// stream mentions every term (the dense worst case).
    pub background_density: f64,
    /// RNG seed; the dataset is fully determined by the configuration.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            n_streams: 200,
            timeline: 365,
            n_terms: 10_000,
            n_patterns: 1_000,
            selection: StreamSelection::DistGen {
                decay_fraction: 0.08,
            },
            background_mean: 1.0,
            peak_range: (30.0, 80.0),
            min_pattern_len: 5,
            max_pattern_len: 40,
            max_streams_per_pattern: 64,
            map_size: 1000.0,
            background_density: 1.0,
            seed: 7,
        }
    }
}

/// A ground-truth injected pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruthPattern {
    /// The term (0-based index into the generator's vocabulary) exhibiting
    /// the pattern.
    pub term: usize,
    /// The streams included in the pattern, sorted.
    pub streams: Vec<usize>,
    /// The pattern's timeframe.
    pub interval: TimeInterval,
}

/// A generated dataset: stream positions, ground-truth patterns, and lazy
/// access to the per-(term, stream) frequency series.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    config: GeneratorConfig,
    positions: Vec<Point2D>,
    patterns: Vec<GroundTruthPattern>,
    /// Per pattern, per included stream (parallel to `patterns[i].streams`),
    /// the injected frequency profile over the pattern's timeframe.
    injections: Vec<Vec<Vec<f64>>>,
    /// Term index → patterns affecting that term.
    by_term: HashMap<usize, Vec<usize>>,
}

/// The generator itself.
#[derive(Debug, Clone, Default)]
pub struct PatternGenerator;

impl PatternGenerator {
    /// Generates a dataset from the configuration.
    pub fn generate(config: GeneratorConfig) -> SyntheticDataset {
        assert!(config.n_streams > 0, "need at least one stream");
        assert!(
            config.timeline > 1,
            "timeline must have at least two timestamps"
        );
        assert!(config.n_terms > 0, "need at least one term");
        assert!(
            config.min_pattern_len >= 1 && config.min_pattern_len <= config.max_pattern_len,
            "invalid pattern length range"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Stream positions: uniform over the square map.
        let positions: Vec<Point2D> = (0..config.n_streams)
            .map(|_| {
                Point2D::new(
                    rng.gen_range(0.0..config.map_size),
                    rng.gen_range(0.0..config.map_size),
                )
            })
            .collect();

        let mut patterns = Vec::with_capacity(config.n_patterns);
        let mut injections = Vec::with_capacity(config.n_patterns);
        let mut by_term: HashMap<usize, Vec<usize>> = HashMap::new();
        for _ in 0..config.n_patterns {
            // Term and timeframe, uniformly at random.
            let term = rng.gen_range(0..config.n_terms);
            let len =
                rng.gen_range(config.min_pattern_len..=config.max_pattern_len.min(config.timeline));
            let start = rng.gen_range(0..config.timeline - len + 1);
            let interval = TimeInterval::new(start, start + len - 1);

            // Stream selection.
            let streams = match config.selection {
                StreamSelection::DistGen { decay_fraction } => {
                    select_dist_gen(&positions, &config, decay_fraction, &mut rng)
                }
                StreamSelection::RandGen => select_rand_gen(&config, &mut rng),
            };

            // Frequency injection: an independent Weibull profile per stream.
            let profiles: Vec<Vec<f64>> = streams
                .iter()
                .map(|_| {
                    let shape = rng.gen_range(1.2..5.0);
                    let scale = rng.gen_range((len as f64 / 4.0).max(1.0)..(len as f64).max(2.0));
                    let peak = rng.gen_range(config.peak_range.0..config.peak_range.1);
                    Weibull::new(shape, scale).profile(len, peak)
                })
                .collect();

            by_term.entry(term).or_default().push(patterns.len());
            patterns.push(GroundTruthPattern {
                term,
                streams,
                interval,
            });
            injections.push(profiles);
        }

        SyntheticDataset {
            config,
            positions,
            patterns,
            injections,
            by_term,
        }
    }
}

fn select_dist_gen(
    positions: &[Point2D],
    config: &GeneratorConfig,
    decay_fraction: f64,
    rng: &mut StdRng,
) -> Vec<usize> {
    let seed_stream = rng.gen_range(0..config.n_streams);
    let diag = config.map_size * std::f64::consts::SQRT_2;
    let scale = (decay_fraction * diag).max(f64::MIN_POSITIVE);
    let mut streams = vec![seed_stream];
    // Visit the other streams in order of increasing distance so the cap
    // keeps the nearest (most realistic) ones.
    let mut order: Vec<usize> = (0..config.n_streams)
        .filter(|&i| i != seed_stream)
        .collect();
    order.sort_by(|&a, &b| {
        let da = positions[a].distance_sq(&positions[seed_stream]);
        let db = positions[b].distance_sq(&positions[seed_stream]);
        da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
    });
    for i in order {
        if streams.len() >= config.max_streams_per_pattern {
            break;
        }
        let d = positions[i].distance(&positions[seed_stream]);
        let p = (-d / scale).exp();
        if rng.gen_bool(p.clamp(0.0, 1.0)) {
            streams.push(i);
        }
    }
    streams.sort_unstable();
    streams
}

fn select_rand_gen(config: &GeneratorConfig, rng: &mut StdRng) -> Vec<usize> {
    let max = config.max_streams_per_pattern.min(config.n_streams);
    let count = rng.gen_range(1..=max);
    let mut chosen = std::collections::HashSet::new();
    while chosen.len() < count {
        chosen.insert(rng.gen_range(0..config.n_streams));
    }
    let mut streams: Vec<usize> = chosen.into_iter().collect();
    streams.sort_unstable();
    streams
}

/// SplitMix64 finalizer, used to derive independent per-cell RNG streams
/// from the dataset seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl SyntheticDataset {
    /// Map positions of the streams.
    pub fn positions(&self) -> &[Point2D] {
        &self.positions
    }

    /// Number of streams.
    pub fn n_streams(&self) -> usize {
        self.config.n_streams
    }

    /// Timeline length.
    pub fn timeline(&self) -> usize {
        self.config.timeline
    }

    /// The injected ground-truth patterns.
    pub fn patterns(&self) -> &[GroundTruthPattern] {
        &self.patterns
    }

    /// The distinct terms that carry at least one injected pattern, sorted.
    pub fn patterned_terms(&self) -> Vec<usize> {
        let mut terms: Vec<usize> = self.by_term.keys().copied().collect();
        terms.sort_unstable();
        terms
    }

    /// The indices of the patterns injected into `term`.
    pub fn patterns_of_term(&self, term: usize) -> &[usize] {
        self.by_term.get(&term).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Deterministic exponential background frequency of one cell.
    fn background(&self, term: usize, stream: usize, ts: usize) -> f64 {
        if self.config.background_density < 1.0 {
            // Sparsity gate: whether this (term, stream) pair ever carries
            // background traffic is decided once, independently of ts.
            let gate = splitmix64(
                self.config
                    .seed
                    .wrapping_mul(0xA24BAED4963EE407)
                    .wrapping_add(splitmix64((term as u64) << 32 ^ stream as u64)),
            );
            let u = (gate >> 11) as f64 / (1u64 << 53) as f64;
            if u >= self.config.background_density {
                return 0.0;
            }
        }
        let h = splitmix64(
            self.config
                .seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(splitmix64(
                    (term as u64) << 42 ^ (stream as u64) << 20 ^ ts as u64,
                )),
        );
        // Map to (0, 1) and invert the exponential CDF (mean =
        // `background_mean`) without carrying RNG state per cell.
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let u = u.clamp(f64::MIN_POSITIVE, 1.0 - 1e-12);
        -(1.0 - u).ln() * self.config.background_mean
    }

    /// Injected (pattern) frequency of one cell.
    fn injected(&self, term: usize, stream: usize, ts: usize) -> f64 {
        let Some(pattern_ids) = self.by_term.get(&term) else {
            return 0.0;
        };
        let mut total = 0.0;
        for &pid in pattern_ids {
            let p = &self.patterns[pid];
            if !p.interval.contains(ts) {
                continue;
            }
            if let Ok(pos) = p.streams.binary_search(&stream) {
                let offset = ts - p.interval.start;
                total += self.injections[pid][pos][offset];
            }
        }
        total
    }

    /// Frequency of `term` in `stream` at timestamp `ts` (background plus
    /// any injected pattern mass).
    pub(crate) fn frequency(&self, term: usize, stream: usize, ts: usize) -> f64 {
        self.background(term, stream, ts) + self.injected(term, stream, ts)
    }

    /// The full frequency series of `term` in `stream`.
    pub fn series(&self, term: usize, stream: usize) -> Vec<f64> {
        (0..self.config.timeline)
            .map(|ts| self.frequency(term, stream, ts))
            .collect()
    }

    /// The frequency of `term` in every stream at timestamp `ts`.
    pub fn snapshot(&self, term: usize, ts: usize) -> Vec<f64> {
        (0..self.config.n_streams)
            .map(|s| self.frequency(term, s, ts))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(selection: StreamSelection) -> GeneratorConfig {
        GeneratorConfig {
            n_streams: 30,
            timeline: 60,
            n_terms: 50,
            n_patterns: 12,
            selection,
            max_streams_per_pattern: 10,
            seed: 99,
            ..Default::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = PatternGenerator::generate(small_config(StreamSelection::RandGen));
        let b = PatternGenerator::generate(small_config(StreamSelection::RandGen));
        assert_eq!(a.patterns(), b.patterns());
        assert_eq!(a.series(3, 7), b.series(3, 7));
    }

    #[test]
    fn requested_number_of_patterns_is_generated() {
        let d = PatternGenerator::generate(small_config(StreamSelection::RandGen));
        assert_eq!(d.patterns().len(), 12);
        assert_eq!(d.n_streams(), 30);
        assert_eq!(d.timeline(), 60);
        assert_eq!(d.positions().len(), 30);
    }

    #[test]
    fn patterns_are_within_bounds() {
        for sel in [
            StreamSelection::RandGen,
            StreamSelection::DistGen {
                decay_fraction: 0.1,
            },
        ] {
            let d = PatternGenerator::generate(small_config(sel));
            for p in d.patterns() {
                assert!(p.term < 50);
                assert!(p.interval.end < 60);
                assert!(!p.streams.is_empty());
                assert!(p.streams.len() <= 10);
                for &s in &p.streams {
                    assert!(s < 30);
                }
                // Streams are sorted and unique.
                for w in p.streams.windows(2) {
                    assert!(w[0] < w[1]);
                }
            }
        }
    }

    #[test]
    fn distgen_patterns_are_spatially_compact() {
        let mut config = small_config(StreamSelection::DistGen {
            decay_fraction: 0.05,
        });
        config.n_streams = 100;
        config.n_patterns = 40;
        config.max_streams_per_pattern = 100;
        let d = PatternGenerator::generate(config.clone());

        let mut rand_config = config;
        rand_config.selection = StreamSelection::RandGen;
        let r = PatternGenerator::generate(rand_config);

        let avg_spread = |ds: &SyntheticDataset| -> f64 {
            let mut total = 0.0;
            let mut count = 0;
            for p in ds.patterns() {
                if p.streams.len() < 2 {
                    continue;
                }
                let pts: Vec<Point2D> = p.streams.iter().map(|&s| ds.positions()[s]).collect();
                let centroid = Point2D::new(
                    pts.iter().map(|q| q.x).sum::<f64>() / pts.len() as f64,
                    pts.iter().map(|q| q.y).sum::<f64>() / pts.len() as f64,
                );
                total += pts.iter().map(|q| q.distance(&centroid)).sum::<f64>() / pts.len() as f64;
                count += 1;
            }
            total / count.max(1) as f64
        };
        // distGen patterns must be markedly more compact than randGen ones.
        assert!(avg_spread(&d) < avg_spread(&r) * 0.6);
    }

    #[test]
    fn injected_mass_appears_inside_the_pattern() {
        let d = PatternGenerator::generate(small_config(StreamSelection::RandGen));
        let p = &d.patterns()[0];
        let stream = p.streams[0];
        let series = d.series(p.term, stream);
        let inside: f64 = (p.interval.start..=p.interval.end).map(|t| series[t]).sum();
        let inside_len = p.interval.len() as f64;
        // "Outside" must be pure background: a term may carry several
        // injected patterns, so timestamps covered by any *other* same-term
        // pattern that also includes this stream are excluded.
        let background_only = |t: usize| {
            !p.interval.contains(t)
                && d.patterns_of_term(p.term).iter().all(|&pid| {
                    let q = &d.patterns()[pid];
                    !q.interval.contains(t) || q.streams.binary_search(&stream).is_err()
                })
        };
        let outside_ts: Vec<usize> = (0..series.len()).filter(|&t| background_only(t)).collect();
        assert!(!outside_ts.is_empty(), "no pure-background timestamps left");
        let outside: f64 = outside_ts.iter().map(|&t| series[t]).sum();
        let outside_len = outside_ts.len() as f64;
        // The average frequency inside the pattern is much larger than the
        // background average outside it.
        assert!(inside / inside_len > 5.0 * (outside / outside_len));
    }

    #[test]
    fn background_is_positive_and_bounded_on_average() {
        let d = PatternGenerator::generate(small_config(StreamSelection::RandGen));
        // A term with no pattern: pure background.
        let term = (0..50).find(|t| d.patterns_of_term(*t).is_empty()).unwrap();
        let series = d.series(term, 5);
        assert!(series.iter().all(|&v| v >= 0.0));
        let mean: f64 = series.iter().sum::<f64>() / series.len() as f64;
        assert!(mean > 0.2 && mean < 5.0, "background mean {mean}");
    }

    #[test]
    fn snapshot_matches_series() {
        let d = PatternGenerator::generate(small_config(StreamSelection::RandGen));
        let p = &d.patterns()[0];
        let ts = p.interval.start;
        let snap = d.snapshot(p.term, ts);
        for s in 0..d.n_streams() {
            assert_eq!(snap[s], d.series(p.term, s)[ts]);
        }
    }

    #[test]
    fn patterned_terms_listed() {
        let d = PatternGenerator::generate(small_config(StreamSelection::RandGen));
        let terms = d.patterned_terms();
        assert!(!terms.is_empty());
        for t in &terms {
            assert!(!d.patterns_of_term(*t).is_empty());
        }
    }

    #[test]
    #[should_panic]
    fn zero_streams_panics() {
        let mut c = small_config(StreamSelection::RandGen);
        c.n_streams = 0;
        PatternGenerator::generate(c);
    }
}
