//! Axis-aligned rectangles and minimum bounding rectangles on the planar map.
//!
//! Regional spatiotemporal patterns (Section 4 of the paper) are restricted to
//! axis-oriented rectangles: this keeps the discrepancy maximization
//! polynomial while still capturing spatially coherent regions. The
//! combinatorial patterns of Section 3 are evaluated spatially through the
//! minimum bounding rectangle ([`Mbr`]) of the streams they include (Table 1).

use crate::point::Point2D;
use std::fmt;

/// A closed axis-aligned rectangle `[min_x, max_x] x [min_y, max_y]`.
///
/// Degenerate rectangles (single points or segments) are allowed: a region
/// containing a single stream is a perfectly valid bursty region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Smallest x coordinate (inclusive).
    pub min_x: f64,
    /// Smallest y coordinate (inclusive).
    pub min_y: f64,
    /// Largest x coordinate (inclusive).
    pub max_x: f64,
    /// Largest y coordinate (inclusive).
    pub max_y: f64,
}

impl Rect {
    /// Creates a rectangle from two opposite corners, normalizing the order
    /// of the coordinates.
    pub fn new(x1: f64, y1: f64, x2: f64, y2: f64) -> Self {
        Self {
            min_x: x1.min(x2),
            min_y: y1.min(y2),
            max_x: x1.max(x2),
            max_y: y1.max(y2),
        }
    }

    /// A degenerate rectangle covering exactly one point.
    pub(crate) fn from_point(p: Point2D) -> Self {
        Self::new(p.x, p.y, p.x, p.y)
    }

    /// Width along the x axis.
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Height along the y axis.
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Whether the (closed) rectangle contains the point `p`.
    pub fn contains(&self, p: &Point2D) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// Whether the (closed) rectangle fully contains `other`.
    #[cfg(test)]
    pub(crate) fn contains_rect(&self, other: &Rect) -> bool {
        other.min_x >= self.min_x
            && other.max_x <= self.max_x
            && other.min_y >= self.min_y
            && other.max_y <= self.max_y
    }

    /// Whether the two closed rectangles share at least one point.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// The smallest rectangle containing both `self` and `other`.
    pub(crate) fn union(&self, other: &Rect) -> Rect {
        Rect {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.3},{:.3}]x[{:.3},{:.3}]",
            self.min_x, self.max_x, self.min_y, self.max_y
        )
    }
}

/// Incremental minimum-bounding-rectangle builder.
///
/// Used to compute, for a combinatorial (`STComb`) pattern, the rectangle
/// delimited by the streams it contains — the "# countries in MBR" column of
/// Table 1 in the paper.
#[derive(Debug, Clone, Default)]
pub struct Mbr {
    rect: Option<Rect>,
}

impl Mbr {
    /// An empty MBR containing no points.
    pub fn new() -> Self {
        Self { rect: None }
    }

    /// Builds an MBR directly from an iterator of points.
    pub fn from_points<I: IntoIterator<Item = Point2D>>(points: I) -> Self {
        let mut mbr = Self::new();
        for p in points {
            mbr.push(p);
        }
        mbr
    }

    /// Extends the MBR to cover `p`.
    pub fn push(&mut self, p: Point2D) {
        self.rect = Some(match self.rect {
            None => Rect::from_point(p),
            Some(r) => r.union(&Rect::from_point(p)),
        });
    }

    /// The accumulated rectangle, or `None` if no point was pushed.
    pub fn rect(&self) -> Option<Rect> {
        self.rect
    }

    /// Counts how many of the given points fall inside the accumulated MBR.
    ///
    /// Returns 0 when the MBR is empty.
    pub fn count_contained(&self, points: &[Point2D]) -> usize {
        match self.rect {
            None => 0,
            Some(r) => points.iter().filter(|p| r.contains(p)).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalizes_corners() {
        let r = Rect::new(5.0, 7.0, 1.0, 2.0);
        assert_eq!(r.min_x, 1.0);
        assert_eq!(r.max_x, 5.0);
        assert_eq!(r.min_y, 2.0);
        assert_eq!(r.max_y, 7.0);
    }

    #[test]
    fn contains_boundary_points() {
        let r = Rect::new(0.0, 0.0, 2.0, 2.0);
        assert!(r.contains(&Point2D::new(0.0, 0.0)));
        assert!(r.contains(&Point2D::new(2.0, 2.0)));
        assert!(r.contains(&Point2D::new(1.0, 2.0)));
        assert!(!r.contains(&Point2D::new(2.0001, 1.0)));
    }

    #[test]
    fn degenerate_rect_contains_only_its_point() {
        let r = Rect::from_point(Point2D::new(1.0, 1.0));
        assert!(r.contains(&Point2D::new(1.0, 1.0)));
        assert!(!r.contains(&Point2D::new(1.0, 1.1)));
    }

    #[test]
    fn intersects_and_union() {
        let a = Rect::new(0.0, 0.0, 2.0, 2.0);
        let b = Rect::new(1.0, 1.0, 3.0, 3.0);
        let c = Rect::new(5.0, 5.0, 6.0, 6.0);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        let u = a.union(&c);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&c));
    }

    #[test]
    fn touching_rectangles_intersect() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b));
    }

    #[test]
    fn mbr_covers_all_points() {
        let pts = vec![
            Point2D::new(0.0, 5.0),
            Point2D::new(-3.0, 2.0),
            Point2D::new(4.0, -1.0),
        ];
        let mbr = Mbr::from_points(pts.clone());
        let r = mbr.rect().unwrap();
        for p in &pts {
            assert!(r.contains(p));
        }
        assert_eq!(r.min_x, -3.0);
        assert_eq!(r.max_y, 5.0);
    }

    #[test]
    fn empty_mbr() {
        let mbr = Mbr::new();
        assert!(mbr.rect().is_none());
        assert_eq!(mbr.count_contained(&[Point2D::new(0.0, 0.0)]), 0);
    }

    #[test]
    fn mbr_count_contained() {
        let mbr = Mbr::from_points(vec![Point2D::new(0.0, 0.0), Point2D::new(10.0, 10.0)]);
        let pts = vec![
            Point2D::new(5.0, 5.0),
            Point2D::new(11.0, 5.0),
            Point2D::new(0.0, 10.0),
        ];
        assert_eq!(mbr.count_contained(&pts), 2);
    }
}
