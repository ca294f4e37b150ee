//! Spatiotemporal burstiness patterns.
//!
//! Both miners (and both baselines) ultimately report *patterns*: a set of
//! streams, a temporal interval, and a burstiness score. The search engine
//! (Section 5 of the paper) only needs to know whether a document — which
//! belongs to one stream and one timestamp — *overlaps* a pattern, how
//! strong that pattern is, and (for region-filtered queries) where on the
//! map it lives; the [`Pattern`] trait captures exactly that. Past the
//! miner every pattern is frozen once into a [`PatternRecord`], the one
//! form the engine, snapshots and subscription diffs share.

use stb_corpus::{StreamId, Timestamp};
use stb_geo::{Mbr, Point2D, Rect};
use stb_timeseries::TimeInterval;

/// Common behaviour of every spatiotemporal pattern type.
pub trait Pattern {
    /// The streams covered by the pattern, sorted by id.
    fn streams(&self) -> &[StreamId];

    /// The temporal interval covered by the pattern.
    fn timeframe(&self) -> TimeInterval;

    /// The burstiness score of the pattern (higher is stronger).
    fn score(&self) -> f64;

    /// Whether a document originating from `stream` at `timestamp` overlaps
    /// the pattern (Section 5: both the stream of origin and the timestamp
    /// must be included).
    fn overlaps(&self, stream: StreamId, timestamp: Timestamp) -> bool {
        self.timeframe().contains(timestamp) && self.streams().binary_search(&stream).is_ok()
    }

    /// The spatial footprint of the pattern on the planar map, which the
    /// serving layer's `Query::region` filter intersects.
    ///
    /// By default — a combinatorial (`STComb` / `TB`) pattern, which only
    /// names streams — this is the minimum bounding rectangle of the
    /// participating streams' planar positions, exactly the geometry the
    /// paper evaluates in Table 1 ("# countries in MBR"). A regional
    /// (`STLocal`) pattern overrides it with its mined rectangle.
    ///
    /// `positions` holds every stream's planar position, indexed by
    /// [`StreamId::index`] (i.e. `Collection::positions()`). Returns `None`
    /// when the pattern cannot be located spatially — it covers no stream,
    /// or none of its streams has a known position. A pattern without a
    /// region never intersects any spatial filter.
    fn region(&self, positions: &[Point2D]) -> Option<Rect> {
        let mut mbr = Mbr::new();
        for s in self.streams() {
            if let Some(p) = positions.get(s.index()) {
                mbr.push(*p);
            }
        }
        mbr.rect()
    }
}

/// A combinatorial spatiotemporal pattern (Section 3): an arbitrary set of
/// streams that were simultaneously bursty over a common temporal segment.
#[derive(Debug, Clone, PartialEq)]
pub struct CombinatorialPattern {
    /// The streams participating in the pattern, sorted by id.
    pub streams: Vec<StreamId>,
    /// The common temporal segment shared by all participating intervals.
    pub timeframe: TimeInterval,
    /// Total burstiness: the sum of the temporal burstiness scores of the
    /// participating per-stream intervals (Problem 1 / HSS objective).
    pub score: f64,
    /// The per-stream bursty intervals that formed the pattern: for each
    /// participating stream, its full interval and that interval's `B_T`.
    pub(crate) intervals: Vec<(StreamId, TimeInterval, f64)>,
}

impl CombinatorialPattern {
    /// Creates a pattern, normalizing the stream order.
    pub fn new(
        mut streams: Vec<StreamId>,
        timeframe: TimeInterval,
        score: f64,
        intervals: Vec<(StreamId, TimeInterval, f64)>,
    ) -> Self {
        streams.sort();
        streams.dedup();
        Self {
            streams,
            timeframe,
            score,
            intervals,
        }
    }

    /// Number of participating streams.
    pub fn n_streams(&self) -> usize {
        self.streams.len()
    }
}

impl Pattern for CombinatorialPattern {
    fn streams(&self) -> &[StreamId] {
        &self.streams
    }

    fn timeframe(&self) -> TimeInterval {
        self.timeframe
    }

    fn score(&self) -> f64 {
        self.score
    }
}

/// A regional spatiotemporal pattern (Section 4): a maximal spatiotemporal
/// window — an axis-aligned map rectangle together with the maximal time
/// window over which it stayed bursty.
///
/// Two stream sets are carried: [`RegionalPattern::streams`] holds the
/// streams that actually contributed positive burstiness to the window (the
/// streams "included" in the pattern, which is what the paper counts in its
/// evaluation), while `RegionalPattern::region_streams` holds every stream
/// whose position falls inside the rectangle — a superset that may contain
/// streams that never mentioned the term (the "false positives" the paper's
/// Section 4 discussion says are trivial to remember and exclude).
#[derive(Debug, Clone, PartialEq)]
pub struct RegionalPattern {
    /// The bursty region on the map.
    pub rect: Rect,
    /// The streams that contributed positive burstiness to the window,
    /// sorted by id.
    pub streams: Vec<StreamId>,
    /// Every stream whose position falls inside the region, sorted by id.
    pub(crate) region_streams: Vec<StreamId>,
    /// The maximal time window of the pattern.
    pub timeframe: TimeInterval,
    /// The w-score of the window: the sum of the region's r-scores over the
    /// window (Eq. 9).
    pub score: f64,
}

impl RegionalPattern {
    /// Creates a pattern whose region membership coincides with its
    /// contributing streams, normalizing the stream order.
    pub fn new(rect: Rect, streams: Vec<StreamId>, timeframe: TimeInterval, score: f64) -> Self {
        Self::with_region(rect, streams.clone(), streams, timeframe, score)
    }

    /// Creates a pattern with distinct contributing and region stream sets.
    pub(crate) fn with_region(
        rect: Rect,
        mut streams: Vec<StreamId>,
        mut region_streams: Vec<StreamId>,
        timeframe: TimeInterval,
        score: f64,
    ) -> Self {
        streams.sort();
        streams.dedup();
        region_streams.sort();
        region_streams.dedup();
        Self {
            rect,
            streams,
            region_streams,
            timeframe,
            score,
        }
    }

    /// Number of contributing streams.
    pub fn n_streams(&self) -> usize {
        self.streams.len()
    }
}

impl Pattern for RegionalPattern {
    fn streams(&self) -> &[StreamId] {
        &self.streams
    }

    fn timeframe(&self) -> TimeInterval {
        self.timeframe
    }

    fn score(&self) -> f64 {
        self.score
    }

    /// A regional pattern's footprint is the mined rectangle itself, not an
    /// MBR of its streams — the rectangle is the pattern's identity.
    fn region(&self, _positions: &[Point2D]) -> Option<Rect> {
        Some(self.rect)
    }
}

/// A pattern reduced to what everything past the miner reads: covered
/// streams, timeframe, burstiness score, and the spatial footprint
/// **captured at mining time** from the then-current stream positions.
///
/// [`PatternRecord::capture`] freezes any [`Pattern`] into one. It is the
/// form the search engine scores from, snapshots persist and subscription
/// diffs carry. The captured region is carried verbatim rather than
/// re-derived: stream positions can change after mining (new streams come
/// online, a projection is recomputed), and a restored pattern must filter
/// spatially exactly as the original did. `PatternRecord`'s
/// [`Pattern::region`] therefore returns its stored footprint and ignores
/// the positions it is offered.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternRecord {
    /// The streams covered by the pattern, sorted by id.
    pub streams: Vec<StreamId>,
    /// The temporal interval covered by the pattern.
    pub timeframe: TimeInterval,
    /// The spatial footprint captured when the pattern was mined, if any.
    pub region: Option<Rect>,
    /// The burstiness score of the pattern.
    pub score: f64,
}

impl PatternRecord {
    /// Freezes any pattern into its record, sorting and deduplicating its
    /// streams and capturing its spatial footprint over `positions` (every
    /// stream's planar position, indexed by [`StreamId::index`]).
    pub fn capture<P: Pattern>(pattern: &P, positions: &[Point2D]) -> Self {
        let mut streams = pattern.streams().to_vec();
        streams.sort();
        streams.dedup();
        Self {
            streams,
            timeframe: pattern.timeframe(),
            region: pattern.region(positions),
            score: pattern.score(),
        }
    }
}

impl Pattern for PatternRecord {
    fn streams(&self) -> &[StreamId] {
        &self.streams
    }

    fn timeframe(&self) -> TimeInterval {
        self.timeframe
    }

    fn score(&self) -> f64 {
        self.score
    }

    /// The footprint captured at mining time, verbatim — never re-derived
    /// from current positions.
    fn region(&self, _positions: &[Point2D]) -> Option<Rect> {
        self.region
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_comb() -> CombinatorialPattern {
        CombinatorialPattern::new(
            vec![StreamId(3), StreamId(1), StreamId(3)],
            TimeInterval::new(5, 9),
            2.1,
            vec![
                (StreamId(1), TimeInterval::new(4, 9), 1.3),
                (StreamId(3), TimeInterval::new(5, 11), 0.8),
            ],
        )
    }

    #[test]
    fn streams_are_sorted_and_deduped() {
        let p = sample_comb();
        assert_eq!(p.streams, vec![StreamId(1), StreamId(3)]);
        assert_eq!(p.n_streams(), 2);
    }

    #[test]
    fn overlap_requires_both_stream_and_time() {
        let p = sample_comb();
        assert!(p.overlaps(StreamId(1), 5));
        assert!(p.overlaps(StreamId(3), 9));
        assert!(!p.overlaps(StreamId(1), 4)); // outside the common segment
        assert!(!p.overlaps(StreamId(2), 6)); // stream not in the pattern
    }

    #[test]
    fn regional_pattern_overlap() {
        let p = RegionalPattern::new(
            Rect::new(0.0, 0.0, 10.0, 10.0),
            vec![StreamId(5), StreamId(2)],
            TimeInterval::new(3, 8),
            4.2,
        );
        assert_eq!(p.streams, vec![StreamId(2), StreamId(5)]);
        assert!(p.overlaps(StreamId(5), 3));
        assert!(!p.overlaps(StreamId(5), 9));
        assert!(!p.overlaps(StreamId(0), 3));
        assert_eq!(p.score(), 4.2);
        assert_eq!(p.timeframe(), TimeInterval::new(3, 8));
    }

    #[test]
    fn geometry_of_combinatorial_pattern_is_stream_mbr() {
        let p = sample_comb(); // streams 1 and 3
        let positions = vec![
            Point2D::new(0.0, 0.0),
            Point2D::new(2.0, -1.0),
            Point2D::new(9.0, 9.0),
            Point2D::new(5.0, 3.0),
        ];
        let region = p.region(&positions).unwrap();
        assert_eq!(region, Rect::new(2.0, -1.0, 5.0, 3.0));
        // Positions missing for every stream → the pattern has no region.
        assert!(p.region(&positions[..1]).is_none());
    }

    #[test]
    fn geometry_of_regional_pattern_is_its_rect() {
        let rect = Rect::new(0.0, 0.0, 10.0, 10.0);
        let p = RegionalPattern::new(rect, vec![StreamId(0)], TimeInterval::new(3, 8), 4.2);
        // The mined rectangle wins regardless of stream positions.
        assert_eq!(p.region(&[Point2D::new(99.0, 99.0)]), Some(rect));
        assert_eq!(p.region(&[]), Some(rect));
    }

    #[test]
    fn trait_objects_work() {
        let comb = sample_comb();
        let reg = RegionalPattern::new(
            Rect::new(0.0, 0.0, 1.0, 1.0),
            vec![StreamId(0)],
            TimeInterval::new(0, 0),
            1.0,
        );
        let patterns: Vec<&dyn Pattern> = vec![&comb, &reg];
        assert_eq!(patterns.len(), 2);
        assert!(patterns[0].score() > patterns[1].score());
    }
}
