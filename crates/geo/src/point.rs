//! Geographic and planar points.

use std::fmt;

/// A point on the Earth's surface, expressed in decimal degrees.
///
/// This is the *geostamp* attached to every document stream in the paper's
/// model (Section 2): each stream originates from one fixed location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude in decimal degrees, positive north, in `[-90, 90]`.
    pub lat: f64,
    /// Longitude in decimal degrees, positive east, in `[-180, 180]`.
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a new geostamp from latitude/longitude in decimal degrees.
    ///
    /// Values are clamped to the valid ranges rather than rejected: the
    /// gazetteer data this crate works with only needs city/country-level
    /// accuracy and out-of-range inputs are invariably small rounding spills.
    pub fn new(lat: f64, lon: f64) -> Self {
        Self {
            lat: lat.clamp(-90.0, 90.0),
            lon: lon.clamp(-180.0, 180.0),
        }
    }

    /// Latitude in radians.
    pub(crate) fn lat_rad(&self) -> f64 {
        self.lat.to_radians()
    }

    /// Longitude in radians.
    pub(crate) fn lon_rad(&self) -> f64 {
        self.lon.to_radians()
    }

    /// Great-circle distance to `other` in kilometers.
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        crate::haversine::haversine_km(self, other)
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4})", self.lat, self.lon)
    }
}

/// A point on the planar map produced by the MDS projection (or any other
/// 2-D embedding of the stream locations).
///
/// The regional pattern mining (`STLocal`) operates entirely on these planar
/// coordinates: bursty regions are axis-aligned rectangles in this plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point2D {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point2D {
    /// Creates a new planar point.
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn distance(&self, other: &Point2D) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Squared Euclidean distance to `other` (avoids the square root when
    /// only comparisons are needed).
    pub fn distance_sq(&self, other: &Point2D) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }
}

impl fmt::Display for Point2D {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point2D {
    fn from((x, y): (f64, f64)) -> Self {
        Point2D::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geopoint_clamps_out_of_range() {
        let p = GeoPoint::new(95.0, -200.0);
        assert_eq!(p.lat, 90.0);
        assert_eq!(p.lon, -180.0);
    }

    #[test]
    fn geopoint_radians() {
        let p = GeoPoint::new(90.0, 180.0);
        assert!((p.lat_rad() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((p.lon_rad() - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn point2d_distance_is_euclidean() {
        let a = Point2D::new(0.0, 0.0);
        let b = Point2D::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert!((a.distance_sq(&b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn point2d_distance_symmetric() {
        let a = Point2D::new(1.5, -2.0);
        let b = Point2D::new(-0.5, 7.0);
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn point2d_from_tuple() {
        let p: Point2D = (2.0, 3.0).into();
        assert_eq!(p, Point2D::new(2.0, 3.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(GeoPoint::new(1.0, 2.0).to_string(), "(1.0000, 2.0000)");
        assert_eq!(Point2D::new(1.0, 2.0).to_string(), "(1.000, 2.000)");
    }
}
