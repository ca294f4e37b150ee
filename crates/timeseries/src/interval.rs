//! Inclusive timestamp intervals.

use std::fmt;

/// A closed interval `[start, end]` of integer timestamps.
///
/// Timestamps are abstract indices into the timeline of a collection (days,
/// weeks, ... — whatever granularity the caller chose). Both endpoints are
/// inclusive, matching the paper's `Y_t[l : r]` notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimeInterval {
    /// First timestamp covered by the interval (inclusive).
    pub start: usize,
    /// Last timestamp covered by the interval (inclusive).
    pub end: usize,
}

impl TimeInterval {
    /// Creates a new interval; `start` and `end` are swapped if given out of
    /// order.
    pub fn new(start: usize, end: usize) -> Self {
        if start <= end {
            Self { start, end }
        } else {
            Self {
                start: end,
                end: start,
            }
        }
    }

    /// Number of timestamps covered (always at least 1).
    pub fn len(&self) -> usize {
        self.end - self.start + 1
    }

    /// Always false: an interval covers at least one timestamp. Provided for
    /// API symmetry with collection types.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether the timestamp `t` lies inside the interval.
    pub fn contains(&self, t: usize) -> bool {
        t >= self.start && t <= self.end
    }

    /// Whether the two closed intervals share at least one timestamp.
    pub fn overlaps(&self, other: &TimeInterval) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// The intersection of the two intervals, if they overlap.
    pub fn intersection(&self, other: &TimeInterval) -> Option<TimeInterval> {
        if self.overlaps(other) {
            Some(TimeInterval {
                start: self.start.max(other.start),
                end: self.end.min(other.end),
            })
        } else {
            None
        }
    }

    /// Jaccard similarity `|A ∩ B| / |A ∪ B|` of the two intervals, measured
    /// in covered timestamps. Used by the `Base` baseline of the paper.
    pub fn jaccard(&self, other: &TimeInterval) -> f64 {
        let inter = match self.intersection(other) {
            Some(i) => i.len(),
            None => 0,
        };
        let union = self.len() + other.len() - inter;
        inter as f64 / union as f64
    }
}

impl fmt::Display for TimeInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}..{}]", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalizes_order() {
        let i = TimeInterval::new(7, 3);
        assert_eq!(i.start, 3);
        assert_eq!(i.end, 7);
        assert_eq!(i.len(), 5);
    }

    #[test]
    fn singleton_interval() {
        let i = TimeInterval::new(4, 4);
        assert_eq!(i.len(), 1);
        assert!(i.contains(4));
        assert!(!i.contains(3));
        assert!(!i.is_empty());
    }

    #[test]
    fn overlap_and_intersection() {
        let a = TimeInterval::new(0, 5);
        let b = TimeInterval::new(3, 9);
        let c = TimeInterval::new(6, 7);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert_eq!(a.intersection(&b), Some(TimeInterval::new(3, 5)));
        assert_eq!(a.intersection(&c), None);
    }

    #[test]
    fn touching_intervals_overlap() {
        let a = TimeInterval::new(0, 3);
        let b = TimeInterval::new(3, 6);
        assert!(a.overlaps(&b));
        assert_eq!(a.intersection(&b).unwrap().len(), 1);
    }

    #[test]
    fn jaccard_values() {
        let a = TimeInterval::new(0, 4); // 5 units
        let b = TimeInterval::new(0, 4);
        assert!((a.jaccard(&b) - 1.0).abs() < 1e-12);
        let c = TimeInterval::new(5, 9);
        assert_eq!(a.jaccard(&c), 0.0);
        let d = TimeInterval::new(3, 7); // overlap 2, union 8
        assert!((a.jaccard(&d) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ordering_is_by_start_then_end() {
        let mut v = [
            TimeInterval::new(5, 6),
            TimeInterval::new(1, 9),
            TimeInterval::new(1, 2),
        ];
        v.sort();
        assert_eq!(v[0], TimeInterval::new(1, 2));
        assert_eq!(v[1], TimeInterval::new(1, 9));
        assert_eq!(v[2], TimeInterval::new(5, 6));
    }
}
