//! Maximum-weight clique on interval graphs.
//!
//! Proposition 1 of the paper shows that the Highest-Scoring-Subset problem
//! (find the set of pairwise-overlapping bursty intervals with maximum total
//! burstiness) is exactly the maximum-weight clique problem on the interval
//! graph induced by the intervals. By the Helly property of intervals on a
//! line, a clique of an interval graph is a set of intervals sharing a common
//! point, so the maximum-weight clique can be found with a single sweep over
//! the interval endpoints in `O(n log n)` (Gupta, Lee & Leung, 1982): at
//! every candidate point, the clique weight is the total weight of the
//! intervals covering that point.

use stb_timeseries::TimeInterval;

/// An interval with a weight and an opaque tag identifying its origin
/// (for `STComb`, the stream the interval came from).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedInterval {
    /// The interval on the timeline.
    pub(crate) interval: TimeInterval,
    /// The weight of the interval (its temporal burstiness `B_T`).
    pub(crate) weight: f64,
    /// Caller-defined tag (e.g. the stream index the interval belongs to).
    pub(crate) tag: usize,
}

impl WeightedInterval {
    /// Creates a weighted, tagged interval.
    pub fn new(interval: TimeInterval, weight: f64, tag: usize) -> Self {
        Self {
            interval,
            weight,
            tag,
        }
    }
}

/// A maximum-weight clique of the interval graph.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalClique {
    /// Indices (into the input slice) of the intervals in the clique.
    pub(crate) members: Vec<usize>,
    /// The common segment shared by every interval of the clique.
    pub(crate) common: TimeInterval,
    /// Total weight of the clique.
    pub(crate) weight: f64,
}

/// Finds the maximum-weight clique of the interval graph induced by
/// `intervals` (the `maxClique` module of the paper).
///
/// Returns `None` if the input is empty or the best achievable total weight
/// is not positive (all weights non-positive). Ties are broken towards the
/// earliest common point on the timeline.
pub fn max_weight_interval_clique(intervals: &[WeightedInterval]) -> Option<IntervalClique> {
    if intervals.is_empty() {
        return None;
    }
    // Sweep over events: +weight when an interval starts, -weight one past
    // its end. Candidate clique points are interval start points (the
    // maximum of the coverage function is always attained at one).
    // Intervals are closed, so an interval [s, e] covers every point in
    // s..=e: it contributes +weight at s and -weight at e + 1. All events at
    // the same timestamp are applied before the timestamp is evaluated, so
    // their relative order is irrelevant.
    let mut events: Vec<(usize, f64)> = Vec::with_capacity(intervals.len() * 2);
    for wi in intervals {
        events.push((wi.interval.start, wi.weight));
        events.push((wi.interval.end + 1, -wi.weight));
    }
    events.sort_by_key(|a| a.0);

    let mut active = 0.0f64;
    let mut best: Option<(f64, usize)> = None;
    let mut i = 0;
    while i < events.len() {
        let t = events[i].0;
        while i < events.len() && events[i].0 == t {
            active += events[i].1;
            i += 1;
        }
        // The coverage function is piecewise constant and changes only at
        // event points, so evaluating every event point (after applying its
        // events) visits every distinct coverage value at its earliest
        // attaining timestamp. With negative weights allowed the maximum may
        // sit right after an interval ends, so end points are candidates too.
        if best.is_none_or(|(w, _)| active > w + 1e-15) {
            best = Some((active, t));
        }
    }

    let (weight, point) = best?;
    if weight <= 0.0 {
        return None;
    }
    let members: Vec<usize> = intervals
        .iter()
        .enumerate()
        .filter(|(_, wi)| wi.interval.contains(point))
        .map(|(i, _)| i)
        .collect();
    // Every member contains the sweep point, so each intersection exists.
    let mut member_intervals = members.iter().map(|&i| intervals[i].interval);
    let first = member_intervals.next()?;
    let common = member_intervals.try_fold(first, |a, b| a.intersection(&b))?;
    Some(IntervalClique {
        members,
        common,
        weight,
    })
}

/// Exhaustive maximum-weight clique for small inputs: enumerates every
/// candidate common point. Test oracle for [`max_weight_interval_clique`].
#[cfg(test)]
pub(crate) fn max_weight_clique_naive(intervals: &[WeightedInterval]) -> Option<IntervalClique> {
    let max_t = intervals.iter().map(|wi| wi.interval.end).max()?;
    let mut best: Option<IntervalClique> = None;
    for point in 0..=max_t {
        let members: Vec<usize> = intervals
            .iter()
            .enumerate()
            .filter(|(_, wi)| wi.interval.contains(point))
            .map(|(i, _)| i)
            .collect();
        if members.is_empty() {
            continue;
        }
        let weight: f64 = members.iter().map(|&i| intervals[i].weight).sum();
        if weight > 0.0 && best.as_ref().is_none_or(|b| weight > b.weight + 1e-15) {
            let common = members
                .iter()
                .map(|&i| intervals[i].interval)
                .reduce(|a, b| a.intersection(&b).unwrap())
                .unwrap();
            best = Some(IntervalClique {
                members,
                common,
                weight,
            });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wi(start: usize, end: usize, weight: f64, tag: usize) -> WeightedInterval {
        WeightedInterval::new(TimeInterval::new(start, end), weight, tag)
    }

    #[test]
    fn empty_input() {
        assert!(max_weight_interval_clique(&[]).is_none());
    }

    #[test]
    fn single_interval() {
        let c = max_weight_interval_clique(&[wi(2, 5, 0.7, 0)]).unwrap();
        assert_eq!(c.members, vec![0]);
        assert_eq!(c.common, TimeInterval::new(2, 5));
        assert!((c.weight - 0.7).abs() < 1e-12);
    }

    #[test]
    fn non_positive_weights_give_none() {
        assert!(max_weight_interval_clique(&[wi(0, 3, 0.0, 0), wi(1, 2, -1.0, 1)]).is_none());
    }

    #[test]
    fn figure2_example_from_paper() {
        // Figure 2 of the paper: four streams with bursty intervals. The
        // highest-scoring subset is {I1, I3, I5, I6} with total 2.1, and the
        // competing subset {I2, I4, I7} scores lower.
        // Reconstruction on a 0..30 timeline:
        //   D1: I1=[2,10] (0.8),  I2=[18,26] (0.5)
        //   D2: I3=[4,12] (0.4),  I4=[20,28] (0.6)
        //   D3: I5=[3,9]  (0.5),  I6 belongs to D4 below
        //   D4: I6=[5,11] (0.4),  I7=[19,25] (0.3)
        let intervals = vec![
            wi(2, 10, 0.8, 1),  // I1
            wi(18, 26, 0.5, 1), // I2
            wi(4, 12, 0.4, 2),  // I3
            wi(20, 28, 0.6, 2), // I4
            wi(3, 9, 0.5, 3),   // I5
            wi(5, 11, 0.4, 4),  // I6
            wi(19, 25, 0.3, 4), // I7
        ];
        let c = max_weight_interval_clique(&intervals).unwrap();
        assert_eq!(c.members, vec![0, 2, 4, 5]);
        assert!((c.weight - 2.1).abs() < 1e-12);
        // The common segment is the intersection of the four intervals.
        assert_eq!(c.common, TimeInterval::new(5, 9));
    }

    #[test]
    fn prefers_heavier_clique_even_if_smaller() {
        let intervals = vec![
            wi(0, 10, 0.2, 0),
            wi(0, 10, 0.2, 1),
            wi(0, 10, 0.2, 2),
            wi(20, 25, 1.0, 3),
        ];
        let c = max_weight_interval_clique(&intervals).unwrap();
        assert_eq!(c.members, vec![3]);
        assert!((c.weight - 1.0).abs() < 1e-12);
    }

    #[test]
    fn negative_interval_excluded_from_clique_weight_only_if_disjoint() {
        // A negative-weight interval overlapping the best point still counts
        // (cliques are defined by the point, not by cherry-picking).
        let intervals = vec![wi(0, 5, 2.0, 0), wi(3, 8, -0.5, 1), wi(4, 6, 1.0, 2)];
        let c = max_weight_interval_clique(&intervals).unwrap();
        let naive = max_weight_clique_naive(&intervals).unwrap();
        assert!((c.weight - naive.weight).abs() < 1e-12);
    }

    #[test]
    fn matches_naive_on_fixed_cases() {
        let cases = vec![
            vec![
                wi(0, 2, 0.5, 0),
                wi(1, 4, 0.6, 1),
                wi(3, 6, 0.9, 2),
                wi(5, 8, 0.1, 3),
            ],
            vec![
                wi(0, 9, 0.1, 0),
                wi(2, 3, 0.7, 1),
                wi(2, 3, 0.7, 2),
                wi(5, 9, 1.2, 3),
            ],
            vec![wi(1, 1, 0.3, 0), wi(1, 1, 0.3, 1), wi(1, 1, 0.3, 2)],
        ];
        for case in cases {
            let fast = max_weight_interval_clique(&case).unwrap();
            let slow = max_weight_clique_naive(&case).unwrap();
            assert!((fast.weight - slow.weight).abs() < 1e-12, "{case:?}");
            assert_eq!(fast.members, slow.members, "{case:?}");
        }
    }

    #[test]
    fn common_segment_is_contained_in_all_members() {
        let intervals = vec![wi(0, 6, 0.4, 0), wi(2, 9, 0.5, 1), wi(4, 11, 0.2, 2)];
        let c = max_weight_interval_clique(&intervals).unwrap();
        for &m in &c.members {
            assert!(intervals[m].interval.contains(c.common.start));
            assert!(intervals[m].interval.contains(c.common.end));
        }
    }

    #[test]
    fn touching_intervals_form_a_clique_at_the_shared_point() {
        let intervals = vec![wi(0, 3, 0.5, 0), wi(3, 6, 0.5, 1)];
        let c = max_weight_interval_clique(&intervals).unwrap();
        assert_eq!(c.members, vec![0, 1]);
        assert_eq!(c.common, TimeInterval::new(3, 3));
        assert!((c.weight - 1.0).abs() < 1e-12);
    }
}
