//! Everything the program is fed, generated up front from `--seed`: the
//! Topix corpus, the sub-tick dealing of its weeks, and the classed query
//! lists. Nothing here reads a clock or OS entropy.

use std::collections::HashMap;
use std::ops::Range;

use stb_corpus::{Collection, StreamId, TermId};
use stb_datagen::{TopixConfig, TopixCorpus};
use stb_geo::{Mbr, Rect};
use stb_search::Query;

use crate::stats::Fnv;

/// SplitMix64: the benchmark's own generator for query lists, so the seed
/// plumbing does not depend on which `rand` the workspace vendors.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Size of the generated Topix corpus (181 streams, 48 weeks, MDS
/// placement and the 18 Major Events are the generator's own).
#[derive(Debug, Clone, Copy)]
pub struct CorpusShape {
    pub docs_per_stream_per_week: usize,
    pub background_vocab: usize,
    pub event_docs_peak: f64,
}

pub fn generate_corpus(shape: CorpusShape, seed: u64) -> TopixCorpus {
    TopixCorpus::generate(TopixConfig {
        docs_per_stream_per_week: shape.docs_per_stream_per_week,
        background_vocab: shape.background_vocab,
        event_docs_peak: shape.event_docs_peak,
        seed,
        ..TopixConfig::default()
    })
}

/// Deals `items` round-robin into `sub_ticks` hands, keeping the order of
/// the items inside each hand.
pub fn deal<T>(items: Vec<T>, sub_ticks: usize) -> Vec<Vec<T>> {
    let mut hands: Vec<Vec<T>> = (0..sub_ticks).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        hands[i % sub_ticks].push(item);
    }
    hands
}

/// One document as the live pipeline takes it: owned, so the timed window
/// stages it without cloning.
#[derive(Debug, Clone)]
pub struct TickDoc {
    pub stream: StreamId,
    pub counts: HashMap<TermId, u32>,
}

/// The documents of `weeks`, each week dealt into `sub_ticks` ticks.
pub fn live_ticks(
    collection: &Collection,
    weeks: Range<usize>,
    sub_ticks: usize,
) -> Vec<Vec<TickDoc>> {
    let mut by_week: Vec<Vec<TickDoc>> = weeks.clone().map(|_| Vec::new()).collect();
    for doc in collection.documents() {
        if weeks.contains(&doc.timestamp) {
            by_week[doc.timestamp - weeks.start].push(TickDoc {
                stream: doc.stream,
                counts: doc.counts.clone(),
            });
        }
    }
    by_week
        .into_iter()
        .flat_map(|week| deal(week, sub_ticks))
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// Zipf over a few distinct term sets: fits the result cache.
    Hot,
    /// Uniform over all terms: exceeds the result cache.
    Cold,
    /// A cold term set under a time window and a map region.
    Filtered,
    /// A hot term set with explanations requested.
    Explain,
}

impl QueryClass {
    pub const ALL: [QueryClass; 4] = [
        QueryClass::Hot,
        QueryClass::Cold,
        QueryClass::Filtered,
        QueryClass::Explain,
    ];
}

/// Class shares in percent; they sum to 100.
#[derive(Debug, Clone, Copy)]
pub struct QueryMix {
    pub hot: usize,
    pub cold: usize,
    pub filtered: usize,
    pub explain: usize,
}

impl QueryMix {
    fn share(&self, class: QueryClass) -> usize {
        match class {
            QueryClass::Hot => self.hot,
            QueryClass::Cold => self.cold,
            QueryClass::Filtered => self.filtered,
            QueryClass::Explain => self.explain,
        }
    }

    /// The repeating 100-slot class pattern: each slot goes to the class
    /// furthest behind its share, so the classes interleave (cold queries
    /// keep evicting hot entries) and every 100 queries hold the exact mix.
    pub fn pattern(&self) -> Vec<QueryClass> {
        assert_eq!(
            self.hot + self.cold + self.filtered + self.explain,
            100,
            "class shares are percentages"
        );
        let mut given = [0usize; 4];
        (1..=100)
            .map(|slot| {
                let (idx, class) = QueryClass::ALL
                    .iter()
                    .enumerate()
                    .max_by_key(|(i, c)| (self.share(**c) * slot) as i64 - (given[*i] * 100) as i64)
                    .expect("four classes");
                given[idx] += 1;
                *class
            })
            .collect()
    }
}

/// One generated query, kept as data so it can be hashed; `query()` turns
/// it into the program's typed query.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    pub class: QueryClass,
    pub terms: Vec<TermId>,
    pub window: Option<(usize, usize)>,
    pub region: Option<Rect>,
}

impl QuerySpec {
    pub fn query(&self) -> Query {
        let mut q = Query::terms(self.terms.iter().copied()).top_k(TOP_K);
        if let Some((from, to)) = self.window {
            q = q.time_window(from..=to);
        }
        if let Some(region) = self.region {
            q = q.region(region);
        }
        q.explain(self.class == QueryClass::Explain)
    }

    fn hash_into(&self, h: &mut Fnv) {
        h.u64(self.class as u64);
        for t in &self.terms {
            h.u64(u64::from(t.0));
        }
        if let Some((from, to)) = self.window {
            h.u64(from as u64);
            h.u64(to as u64);
        }
        if let Some(r) = self.region {
            for v in [r.min_x, r.min_y, r.max_x, r.max_y] {
                h.u64(v.to_bits());
            }
        }
    }
}

pub const TOP_K: usize = 10;
/// Distinct hot term sets; the serving result cache holds 1024 entries.
pub const HOT_SETS: usize = 256;
/// Hot sets draw from this many most-frequent terms.
pub const HOT_TERM_POOL: usize = 200;

/// Draws classed queries over one collection's terms, map and timeline.
#[derive(Debug, Clone)]
pub struct QueryGen {
    hot_sets: Vec<Vec<TermId>>,
    /// Cumulative Zipf(1.0) weights over `hot_sets`.
    hot_cdf: Vec<f64>,
    terms: Vec<TermId>,
    /// Every occurring term, most frequent first.
    by_freq: Vec<TermId>,
    map: Rect,
    timeline: usize,
}

impl QueryGen {
    /// `timeline` is the number of timestamps a time window may address
    /// (weeks for a batch index, ticks for a live pipeline).
    pub fn new(collection: &Collection, timeline: usize, rng: &mut Rng) -> Self {
        let mut doc_freq: HashMap<TermId, usize> = HashMap::new();
        for doc in collection.documents() {
            for &t in doc.counts.keys() {
                *doc_freq.entry(t).or_insert(0) += 1;
            }
        }
        let mut by_freq: Vec<(usize, TermId)> = doc_freq.iter().map(|(&t, &n)| (n, t)).collect();
        by_freq.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let by_freq: Vec<TermId> = by_freq.into_iter().map(|e| e.1).collect();
        let pool = &by_freq[..HOT_TERM_POOL.min(by_freq.len())];
        let mut terms: Vec<TermId> = doc_freq.into_keys().collect();
        terms.sort();

        let mut hot_sets: Vec<Vec<TermId>> = Vec::with_capacity(HOT_SETS);
        while hot_sets.len() < HOT_SETS.min(pool.len() * pool.len().saturating_sub(1)) {
            let set = term_set(pool, 1 + rng.below(2), rng);
            if !hot_sets.contains(&set) {
                hot_sets.push(set);
            }
        }
        let mut total = 0.0;
        let hot_cdf = (1..=hot_sets.len())
            .map(|rank| {
                total += 1.0 / rank as f64;
                total
            })
            .collect();
        let map = Mbr::from_points(collection.positions())
            .rect()
            .expect("a corpus has streams");
        QueryGen {
            hot_sets,
            hot_cdf,
            terms,
            by_freq,
            map,
            timeline,
        }
    }

    /// The same generator addressing another timeline length.
    pub fn with_timeline(&self, timeline: usize) -> Self {
        QueryGen {
            timeline,
            ..self.clone()
        }
    }

    /// The `n` least frequent terms, rarest first.
    pub fn rare_terms(&self, n: usize) -> Vec<TermId> {
        self.by_freq.iter().rev().take(n).copied().collect()
    }

    pub fn hot_sets(&self) -> &[Vec<TermId>] {
        &self.hot_sets
    }

    fn hot_set(&self, rng: &mut Rng) -> Vec<TermId> {
        let total = *self.hot_cdf.last().expect("hot sets exist");
        let u = rng.unit() * total;
        let idx = self.hot_cdf.partition_point(|&c| c <= u);
        self.hot_sets[idx.min(self.hot_sets.len() - 1)].clone()
    }

    fn one(&self, class: QueryClass, rng: &mut Rng) -> QuerySpec {
        match class {
            QueryClass::Hot | QueryClass::Explain => QuerySpec {
                class,
                terms: self.hot_set(rng),
                window: None,
                region: None,
            },
            QueryClass::Cold => QuerySpec {
                class,
                terms: term_set(&self.terms, 1 + rng.below(3), rng),
                window: None,
                region: None,
            },
            QueryClass::Filtered => {
                let terms = term_set(&self.terms, 1 + rng.below(3), rng);
                // A 4-12 timestamp window (clamped to short timelines) and a
                // half-width, half-height rectangle: about a quarter of the map.
                let len = (4 + rng.below(9)).min(self.timeline.max(1));
                let from = rng.below(self.timeline.max(1) - len + 1);
                let (w, h) = (self.map.width() / 2.0, self.map.height() / 2.0);
                let x = self.map.min_x + rng.unit() * w;
                let y = self.map.min_y + rng.unit() * h;
                QuerySpec {
                    class,
                    terms,
                    window: Some((from, from + len - 1)),
                    region: Some(Rect::new(x, y, x + w, y + h)),
                }
            }
        }
    }

    /// `n` queries in the fixed interleaved proportions of `mix`.
    pub fn list(&self, mix: QueryMix, n: usize, rng: &mut Rng) -> Vec<QuerySpec> {
        let pattern = mix.pattern();
        (0..n).map(|i| self.one(pattern[i % 100], rng)).collect()
    }
}

/// `n` distinct terms drawn uniformly from `pool`, in draw order.
fn term_set(pool: &[TermId], n: usize, rng: &mut Rng) -> Vec<TermId> {
    let mut set: Vec<TermId> = Vec::with_capacity(n);
    while set.len() < n.min(pool.len()) {
        let t = pool[rng.below(pool.len())];
        if !set.contains(&t) {
            set.push(t);
        }
    }
    set
}

/// Hash of every generated input: documents in id order (term counts
/// sorted, since a `HashMap` iterates in a per-process order) and queries.
pub fn input_hash(collection: &Collection, queries: &[&[QuerySpec]]) -> u64 {
    let mut h = Fnv::default();
    for doc in collection.documents() {
        h.u64(u64::from(doc.stream.0));
        h.u64(doc.timestamp as u64);
        let mut counts: Vec<(TermId, u32)> = doc.counts.iter().map(|(&t, &c)| (t, c)).collect();
        counts.sort();
        for (t, c) in counts {
            h.u64(u64::from(t.0));
            h.u64(u64::from(c));
        }
    }
    for list in queries {
        for q in *list {
            q.hash_into(&mut h);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    const SMALL: CorpusShape = CorpusShape {
        docs_per_stream_per_week: 1,
        background_vocab: 300,
        event_docs_peak: 0.5,
    };

    #[test]
    fn dealer_is_round_robin_and_loses_nothing() {
        let hands = deal((0..10).collect(), 3);
        assert_eq!(hands, vec![vec![0, 3, 6, 9], vec![1, 4, 7], vec![2, 5, 8]]);
        assert_eq!(deal(Vec::<u8>::new(), 2), vec![vec![], vec![]]);
    }

    #[test]
    fn live_ticks_cover_exactly_the_requested_weeks() {
        let corpus = generate_corpus(SMALL, 7);
        let c = corpus.collection();
        let ticks = live_ticks(c, 2..6, 3);
        assert_eq!(ticks.len(), 4 * 3);
        let dealt: usize = ticks.iter().map(Vec::len).sum();
        let expected = c
            .documents()
            .iter()
            .filter(|d| (2..6).contains(&d.timestamp))
            .count();
        assert_eq!(dealt, expected);
        // Sub-ticks of one week differ by at most one document.
        for week in ticks.chunks(3) {
            let sizes: Vec<usize> = week.iter().map(Vec::len).collect();
            assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        }
    }

    #[test]
    fn class_pattern_holds_the_exact_mix_and_interleaves() {
        let mix = QueryMix {
            hot: 60,
            cold: 30,
            filtered: 8,
            explain: 2,
        };
        let pattern = mix.pattern();
        assert_eq!(pattern.len(), 100);
        for class in QueryClass::ALL {
            let n = pattern.iter().filter(|c| **c == class).count();
            assert_eq!(n, mix.share(class), "{class:?}");
        }
        // Interleaved, not phased: no run of one class longer than 3.
        let longest = pattern
            .chunk_by(|a, b| a == b)
            .map(<[QueryClass]>::len)
            .max()
            .unwrap();
        assert!(longest <= 3, "longest run {longest}");
    }

    #[test]
    fn hot_sets_fit_the_cache_and_cold_sets_exceed_it() {
        let corpus = generate_corpus(SMALL, 7);
        let mut rng = Rng::new(1);
        let gen = QueryGen::new(corpus.collection(), 48, &mut rng);
        assert_eq!(gen.hot_sets().len(), HOT_SETS);
        let mix = QueryMix {
            hot: 60,
            cold: 30,
            filtered: 8,
            explain: 2,
        };
        let list = gen.list(mix, 20_000, &mut rng);
        let distinct = |class: QueryClass| {
            list.iter()
                .filter(|q| q.class == class)
                .map(|q| q.terms.clone())
                .collect::<HashSet<_>>()
                .len()
        };
        assert!(distinct(QueryClass::Hot) <= HOT_SETS);
        // 6 000 cold queries over > 300 terms: far more than the 1 024
        // entries of the serving result cache.
        assert!(distinct(QueryClass::Cold) > 2 * 1024);
        for q in list.iter().filter(|q| q.class == QueryClass::Filtered) {
            let (from, to) = q.window.unwrap();
            assert!((4..=12).contains(&(to - from + 1)) && to < 48);
            assert!(q.region.is_some());
        }
        // Zipf: the most popular hot set is asked far more often than the
        // median one.
        let mut counts: HashMap<Vec<TermId>, usize> = HashMap::new();
        for q in list.iter().filter(|q| q.class == QueryClass::Hot) {
            *counts.entry(q.terms.clone()).or_insert(0) += 1;
        }
        let top = counts[&gen.hot_sets()[0]];
        assert!(
            top > 10
                * counts
                    .get(&gen.hot_sets()[100])
                    .copied()
                    .unwrap_or(0)
                    .max(1)
        );
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let build = |seed: u64| {
            let corpus = generate_corpus(SMALL, seed);
            let mut rng = Rng::new(seed ^ 0x5eed);
            let gen = QueryGen::new(corpus.collection(), 48, &mut rng);
            let mix = QueryMix {
                hot: 70,
                cold: 30,
                filtered: 0,
                explain: 0,
            };
            let list = gen.list(mix, 500, &mut rng);
            input_hash(corpus.collection(), &[&list])
        };
        assert_eq!(build(2012), build(2012));
        assert_ne!(build(2012), build(2013));
    }
}
