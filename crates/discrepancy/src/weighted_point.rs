//! Weighted planar points.

use stb_geo::Point2D;

/// A planar point carrying a weight.
///
/// In the regional mining, each stream contributes one weighted point per
/// snapshot: its position on the map and its burstiness `B(t, D_x[i])` for
/// the term under consideration (Eq. 7 of the paper). Masked streams (those
/// already absorbed into a reported rectangle) carry weight `-inf` so that no
/// later rectangle can profitably contain them — this is exactly the masking
/// step of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WPoint {
    /// Horizontal map coordinate.
    pub(crate) x: f64,
    /// Vertical map coordinate.
    pub(crate) y: f64,
    /// Weight (burstiness) of the point; may be negative or `-inf`.
    pub(crate) weight: f64,
}

/// Collapses `-0.0` to `+0.0` so coordinate compression, which orders by
/// [`f64::total_cmp`] (where `-0.0 < +0.0`), never sees two distinct zeros.
fn canonical(v: f64) -> f64 {
    if v == 0.0 {
        0.0
    } else {
        v
    }
}

impl WPoint {
    /// Creates a weighted point.
    ///
    /// Coordinates must be finite and the weight must not be `NaN` or
    /// `+inf` (`-inf` marks a masked point); both are debug-asserted. The
    /// rectangle kernels index coordinates with a total order, so a `NaN`
    /// coordinate would otherwise silently corrupt the search rather than
    /// fail loudly.
    pub fn new(x: f64, y: f64, weight: f64) -> Self {
        debug_assert!(
            x.is_finite() && y.is_finite(),
            "WPoint coordinates must be finite, got ({x}, {y})"
        );
        debug_assert!(
            !weight.is_nan() && weight != f64::INFINITY,
            "WPoint weight must be finite or -inf, got {weight}"
        );
        Self {
            x: canonical(x),
            y: canonical(y),
            weight,
        }
    }

    /// Creates a weighted point at a [`Point2D`] position.
    pub fn at(pos: Point2D, weight: f64) -> Self {
        Self::new(pos.x, pos.y, weight)
    }

    /// The position of the point.
    pub(crate) fn position(&self) -> Point2D {
        Point2D::new(self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_position() {
        let p = WPoint::new(1.0, 2.0, 3.5);
        assert_eq!(p.position(), Point2D::new(1.0, 2.0));
    }

    #[test]
    fn at_builds_from_point2d() {
        let p = WPoint::at(Point2D::new(-1.0, 4.0), 0.5);
        assert_eq!(p.x, -1.0);
        assert_eq!(p.y, 4.0);
        assert_eq!(p.weight, 0.5);
    }

    #[test]
    fn negative_zero_coordinates_are_canonicalized() {
        let p = WPoint::new(-0.0, -0.0, 1.0);
        assert!(p.x.is_sign_positive());
        assert!(p.y.is_sign_positive());
        assert_eq!(p.x.total_cmp(&0.0), std::cmp::Ordering::Equal);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "coordinates must be finite")]
    fn nan_coordinates_are_rejected() {
        let _ = WPoint::new(f64::NAN, 0.0, 1.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "weight must be finite or -inf")]
    fn nan_weight_is_rejected() {
        let _ = WPoint::new(0.0, 0.0, f64::NAN);
    }
}
