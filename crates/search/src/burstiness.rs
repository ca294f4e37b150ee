//! Burstiness component of the document score (Eq. 11).
//!
//! `burstiness(d, t)` looks at the spatiotemporal patterns mined for the
//! term `t` that *overlap* the document `d` (contain both its stream of
//! origin and its timestamp) and aggregates their scores with a function
//! `f(P_{t,d})`. The paper found the maximum to work best, and it is the
//! aggregation implemented here. When *no* pattern overlaps the
//! document the paper assigns `-inf` (the document cannot be bursty for that
//! term); [`NoPatternPolicy`] makes that behaviour explicit and optionally
//! relaxes it to a zero contribution.
//!
//! # The overlap kernel
//!
//! Every Eq. 11 evaluation — a posting list scored for the prebuilt index,
//! a commit's re-score, a filtered or cold query, an explanation — goes
//! through one [`Footprint`]: one term's patterns under one query filter,
//! indexed by stream in compressed-sparse-row form. A document lookup scans
//! only the patterns covering its own stream, instead of every pattern of
//! the term. The footprint is built per scoring call and never stored.

use crate::engine::PatternFilter;
use stb_core::PatternRecord;
use stb_corpus::{StreamId, Timestamp};

/// What to do when a document overlaps no pattern of a query term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NoPatternPolicy {
    /// The paper's Eq. 11: burstiness is `-inf`, i.e. the document is
    /// excluded from the results of any query containing the term (default).
    #[default]
    Exclude,
    /// The term simply contributes nothing to the document's score.
    Zero,
}

/// The patterns of one term that pass one [`PatternFilter`], indexed by the
/// streams they cover.
///
/// `entries[offsets[s]..offsets[s + 1]]` is stream `s`'s run: every kept
/// pattern covering `s`, in registration order. Streams at or beyond the
/// collection's stream count hold no document and get no run.
pub(crate) struct Footprint<'a> {
    patterns: &'a [PatternRecord],
    /// Run boundaries, one per stream plus one; empty when no pattern
    /// passes the filter.
    offsets: Vec<usize>,
    entries: Vec<usize>,
}

impl<'a> Footprint<'a> {
    /// Indexes `patterns` (one term's, in registration order) over a
    /// collection of `n_streams` streams, keeping those that pass `filter`.
    ///
    /// O(patterns × streams + `n_streams`): a counting pass and a stable
    /// scatter, no sort. Each pattern's streams are sorted and distinct, as
    /// [`PatternRecord::capture`] leaves them.
    pub(crate) fn new(
        patterns: &'a [PatternRecord],
        n_streams: usize,
        filter: &PatternFilter,
    ) -> Self {
        let kept: Vec<usize> = (0..patterns.len())
            .filter(|&i| filter.passes(&patterns[i]))
            .collect();
        if kept.is_empty() {
            return Self {
                patterns,
                offsets: Vec::new(),
                entries: Vec::new(),
            };
        }
        let covered = |i: usize| {
            patterns[i]
                .streams
                .iter()
                .map(|s| s.index())
                .filter(move |&s| s < n_streams)
        };
        // Count each stream's run, then turn the counts into run ends.
        let mut offsets = vec![0; n_streams + 1];
        for &i in &kept {
            for s in covered(i) {
                offsets[s] += 1;
            }
        }
        let mut end = 0;
        for offset in &mut offsets {
            end += *offset;
            *offset = end;
        }
        // Fill every run from its end, last pattern first: the runs come
        // out in registration order and each `offsets[s]` ends at its run's
        // start.
        let mut entries = vec![0; end];
        for &i in kept.iter().rev() {
            for s in covered(i) {
                offsets[s] -= 1;
                entries[offsets[s]] = i;
            }
        }
        Self {
            patterns,
            offsets,
            entries,
        }
    }

    /// The kept patterns overlapping a document from `stream` at
    /// `timestamp`, in registration order.
    pub(crate) fn overlapping(
        &self,
        stream: StreamId,
        timestamp: Timestamp,
    ) -> impl Iterator<Item = &'a PatternRecord> + '_ {
        let s = stream.index();
        let run = self
            .offsets
            .get(s..s + 2)
            .map_or(&[][..], |bounds| &self.entries[bounds[0]..bounds[1]]);
        let patterns = self.patterns;
        run.iter()
            .map(move |&i| &patterns[i])
            .filter(move |p| p.timeframe.contains(timestamp))
    }

    /// Eq. 11 with `f = max`: the largest score among the kept patterns
    /// overlapping the document, or `None` when none does (see
    /// [`NoPatternPolicy`]).
    pub(crate) fn burstiness(&self, stream: StreamId, timestamp: Timestamp) -> Option<f64> {
        let mut overlapped = false;
        let best = self
            .overlapping(stream, timestamp)
            .fold(f64::NEG_INFINITY, |best, p| {
                overlapped = true;
                best.max(p.score)
            });
        overlapped.then_some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stb_timeseries::TimeInterval;

    fn record(streams: &[u32], start: usize, end: usize, score: f64) -> PatternRecord {
        PatternRecord {
            streams: streams.iter().copied().map(StreamId).collect(),
            timeframe: TimeInterval::new(start, end),
            region: None,
            score,
        }
    }

    #[test]
    fn runs_keep_registration_order_and_skip_foreign_streams() {
        let patterns = [
            record(&[1, 9], 0, 5, 0.4),
            record(&[0, 1], 2, 3, 1.2),
            record(&[1], 4, 9, 0.8),
        ];
        let footprint = Footprint::new(&patterns, 2, &PatternFilter::NONE);
        let scores = |ts| -> Vec<f64> {
            footprint
                .overlapping(StreamId(1), ts)
                .map(|p| p.score)
                .collect()
        };
        assert_eq!(scores(2), [0.4, 1.2]);
        assert_eq!(scores(4), [0.4, 0.8]);
        assert_eq!(footprint.burstiness(StreamId(1), 3), Some(1.2));
        assert_eq!(footprint.burstiness(StreamId(0), 5), None);
        // Stream 9 is beyond the collection: no run, no panic.
        assert_eq!(footprint.burstiness(StreamId(9), 1), None);
    }

    #[test]
    fn no_patterns_give_none() {
        let footprint = Footprint::new(&[], 3, &PatternFilter::NONE);
        assert_eq!(footprint.burstiness(StreamId(0), 0), None);
    }

    #[test]
    fn defaults_match_paper() {
        assert_eq!(NoPatternPolicy::default(), NoPatternPolicy::Exclude);
    }
}
