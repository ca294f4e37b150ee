//! Great-circle distances between geostamps.
//!
//! The paper projects the Topix sources onto a plane via Multidimensional
//! Scaling of their pairwise geographic distances (Section 6.1, ref \[30\]).
//! We use the haversine formulation, which is numerically stable for the
//! city/country-scale distances involved and accurate to well under 0.5%
//! relative to a full ellipsoidal (Vincenty) solution — far below the
//! resolution that matters for burst-region mining.

use crate::point::GeoPoint;

/// Mean Earth radius in kilometers (IUGG value).
pub(crate) const EARTH_RADIUS_KM: f64 = 6371.0088;

/// Great-circle distance between two geostamps, in kilometers.
pub(crate) fn haversine_km(a: &GeoPoint, b: &GeoPoint) -> f64 {
    let (lat1, lon1) = (a.lat_rad(), a.lon_rad());
    let (lat2, lon2) = (b.lat_rad(), b.lon_rad());
    let dlat = lat2 - lat1;
    let dlon = lon2 - lon1;
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    // Clamp guards against tiny negative round-off for antipodal points.
    2.0 * EARTH_RADIUS_KM * h.sqrt().clamp(0.0, 1.0).asin()
}

/// Builds the full symmetric matrix of pairwise great-circle distances, in
/// kilometers, for a slice of geostamps.
///
/// The result is row-major with `points.len()` rows and columns; the diagonal
/// is zero. This is the input to [`crate::classical_mds`].
pub fn pairwise_distance_matrix(points: &[GeoPoint]) -> Vec<Vec<f64>> {
    let n = points.len();
    let mut d = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let dist = haversine_km(&points[i], &points[j]);
            d[i][j] = dist;
            d[j][i] = dist;
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haversine_km_doc_example() {
        let athens = GeoPoint::new(37.98, 23.73);
        let riverside = GeoPoint::new(33.95, -117.40);
        let d = haversine_km(&athens, &riverside);
        assert!(d > 10_000.0 && d < 12_000.0);
    }

    #[test]
    fn zero_distance_to_self() {
        let p = GeoPoint::new(48.85, 2.35);
        assert_eq!(haversine_km(&p, &p), 0.0);
    }

    #[test]
    fn known_distance_london_paris() {
        let london = GeoPoint::new(51.5074, -0.1278);
        let paris = GeoPoint::new(48.8566, 2.3522);
        let d = haversine_km(&london, &paris);
        // Real-world value is ~343.5 km.
        assert!((d - 343.5).abs() < 5.0, "got {d}");
    }

    #[test]
    fn symmetric() {
        let a = GeoPoint::new(-33.86, 151.21);
        let b = GeoPoint::new(35.68, 139.69);
        assert!((haversine_km(&a, &b) - haversine_km(&b, &a)).abs() < 1e-9);
    }

    #[test]
    fn antipodal_is_half_circumference() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 180.0);
        let d = haversine_km(&a, &b);
        let half = std::f64::consts::PI * EARTH_RADIUS_KM;
        assert!((d - half).abs() < 1.0, "got {d}, expected {half}");
    }

    #[test]
    fn pairwise_matrix_shape_and_symmetry() {
        let pts = vec![
            GeoPoint::new(0.0, 0.0),
            GeoPoint::new(10.0, 10.0),
            GeoPoint::new(-20.0, 50.0),
        ];
        let m = pairwise_distance_matrix(&pts);
        assert_eq!(m.len(), 3);
        for i in 0..3 {
            assert_eq!(m[i].len(), 3);
            assert_eq!(m[i][i], 0.0);
            for j in 0..3 {
                assert!((m[i][j] - m[j][i]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn analytic_reference_distances() {
        // One degree of longitude at the equator is exactly pi*R/180.
        let deg = haversine_km(&GeoPoint::new(0.0, 0.0), &GeoPoint::new(0.0, 1.0));
        assert!(
            (deg - std::f64::consts::PI * EARTH_RADIUS_KM / 180.0).abs() < 1e-6,
            "got {deg}"
        );
        // Pole to equator is exactly a quarter circumference.
        let quarter = haversine_km(&GeoPoint::new(90.0, 0.0), &GeoPoint::new(0.0, 0.0));
        assert!(
            (quarter - std::f64::consts::PI * EARTH_RADIUS_KM / 2.0).abs() < 1e-6,
            "got {quarter}"
        );
    }

    #[test]
    fn known_city_pair_distances() {
        // Published great-circle distances; tolerance 1% covers coordinate
        // rounding and the spherical-Earth approximation.
        let cases = [
            // (city A, city B, expected km)
            ((40.7128, -74.0060), (51.5074, -0.1278), 5570.0), // New York - London
            ((35.6762, 139.6503), (-33.8688, 151.2093), 7823.0), // Tokyo - Sydney
            ((30.0444, 31.2357), (-33.9249, 18.4241), 7239.0), // Cairo - Cape Town
            ((-12.0464, -77.0428), (9.9281, -84.0907), 2565.0), // Lima - San Jose (CR)
        ];
        for ((alat, alon), (blat, blon), expected) in cases {
            let d = haversine_km(&GeoPoint::new(alat, alon), &GeoPoint::new(blat, blon));
            assert!(
                (d - expected).abs() < expected * 0.01,
                "({alat},{alon})-({blat},{blon}): got {d}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn triangle_inequality_holds_on_sample() {
        let pts = vec![
            GeoPoint::new(37.98, 23.73),
            GeoPoint::new(51.5, -0.12),
            GeoPoint::new(40.71, -74.0),
        ];
        let m = pairwise_distance_matrix(&pts);
        assert!(m[0][2] <= m[0][1] + m[1][2] + 1e-6);
    }
}
