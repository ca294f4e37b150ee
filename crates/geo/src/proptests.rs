//! Property-based tests for the geographic substrate.

use crate::haversine::{haversine_km, pairwise_distance_matrix};
use crate::linalg::SymMatrix;
use crate::mds::stress;
use crate::{classical_mds, GeoPoint, Mbr, Point2D, Rect};
use proptest::prelude::*;

fn arb_geopoint() -> impl Strategy<Value = GeoPoint> {
    (-85.0f64..85.0, -179.0f64..179.0).prop_map(|(lat, lon)| GeoPoint::new(lat, lon))
}

fn arb_point2d() -> impl Strategy<Value = Point2D> {
    (-1000.0f64..1000.0, -1000.0f64..1000.0).prop_map(|(x, y)| Point2D::new(x, y))
}

proptest! {
    #[test]
    fn haversine_is_symmetric_and_nonnegative(a in arb_geopoint(), b in arb_geopoint()) {
        let d1 = haversine_km(&a, &b);
        let d2 = haversine_km(&b, &a);
        prop_assert!(d1 >= 0.0);
        prop_assert!((d1 - d2).abs() < 1e-9);
        // No two points on Earth are farther apart than half the circumference.
        prop_assert!(d1 <= std::f64::consts::PI * crate::haversine::EARTH_RADIUS_KM + 1.0);
    }

    #[test]
    fn haversine_triangle_inequality(a in arb_geopoint(), b in arb_geopoint(), c in arb_geopoint()) {
        let ab = haversine_km(&a, &b);
        let bc = haversine_km(&b, &c);
        let ac = haversine_km(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-6);
    }

    #[test]
    fn rect_union_contains_both(p1 in arb_point2d(), p2 in arb_point2d(), p3 in arb_point2d(), p4 in arb_point2d()) {
        let a = Rect::new(p1.x, p1.y, p2.x, p2.y);
        let b = Rect::new(p3.x, p3.y, p4.x, p4.y);
        let u = a.union(&b);
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
    }

    #[test]
    fn mbr_contains_all_inputs(pts in prop::collection::vec(arb_point2d(), 1..40)) {
        let mbr = Mbr::from_points(pts.clone());
        let r = mbr.rect().unwrap();
        for p in &pts {
            prop_assert!(r.contains(p));
        }
        prop_assert_eq!(mbr.count_contained(&pts), pts.len());
    }

    #[test]
    fn eigen_reconstructs_trace(vals in prop::collection::vec(-10.0f64..10.0, 2..6)) {
        // Build a symmetric matrix with known trace from random entries.
        let n = vals.len();
        let mut m = SymMatrix::zeros(n);
        for i in 0..n {
            m.set(i, i, vals[i]);
            for j in (i + 1)..n {
                m.set(i, j, (vals[i] - vals[j]) * 0.1);
            }
        }
        let e = m.eigen_jacobi();
        let trace: f64 = vals.iter().sum();
        let sum: f64 = e.values.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-6);
    }

    #[test]
    fn mds_embedding_is_finite_and_low_stress_for_planar_inputs(
        pts in prop::collection::vec(arb_point2d(), 3..12)
    ) {
        // Distances generated from actual planar points must embed (almost)
        // perfectly in 2-D.
        let n = pts.len();
        let mut d = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                d[i][j] = pts[i].distance(&pts[j]);
            }
        }
        let emb = classical_mds(&d).unwrap();
        prop_assert_eq!(emb.len(), n);
        for p in &emb {
            prop_assert!(p.x.is_finite() && p.y.is_finite());
        }
        prop_assert!(stress(&d, &emb) < 1e-4);
    }

    #[test]
    fn mds_on_geographic_distances_is_finite(pts in prop::collection::vec(arb_geopoint(), 3..10)) {
        let d = pairwise_distance_matrix(&pts);
        let emb = classical_mds(&d).unwrap();
        prop_assert_eq!(emb.len(), pts.len());
        for p in &emb {
            prop_assert!(p.x.is_finite() && p.y.is_finite());
        }
    }
}
