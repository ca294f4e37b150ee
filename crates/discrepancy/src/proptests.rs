//! Property-based tests for the spatial discrepancy substrate.

use crate::max_rect::max_weight_rect;
use crate::{max_weight_rect_naive, max_weight_rect_with, RBursty, RectKernel, WPoint};
use proptest::prelude::*;
use std::collections::HashSet;

fn arb_points() -> impl Strategy<Value = Vec<WPoint>> {
    prop::collection::vec(
        (-50.0f64..50.0, -50.0f64..50.0, -5.0f64..5.0).prop_map(|(x, y, w)| WPoint::new(x, y, w)),
        0..14,
    )
}

fn arb_points_larger() -> impl Strategy<Value = Vec<WPoint>> {
    prop::collection::vec(
        (-100.0f64..100.0, -100.0f64..100.0, -3.0f64..3.0)
            .prop_map(|(x, y, w)| WPoint::new(x, y, w)),
        0..40,
    )
}

/// Hostile configurations for the exact kernels: coordinates drawn from a
/// tiny grid (forcing duplicates in both dimensions), and weights that are
/// routinely zero or `-inf` (pre-masked points) besides ordinary values.
fn arb_messy_points() -> impl Strategy<Value = Vec<WPoint>> {
    prop::collection::vec(
        (0usize..6, 0usize..6, 0usize..6, -4.0f64..4.0).prop_map(|(xi, yi, kind, w)| {
            let weight = match kind {
                0 => 0.0,
                1 => f64::NEG_INFINITY,
                _ => w,
            };
            WPoint::new(xi as f64, yi as f64, weight)
        }),
        0..22,
    )
}

/// Configurations on which every sum is exact, so ties are real ties: a
/// 9 × 9 coordinate grid (duplicates in both dimensions) and weights that
/// are multiples of 1/8, zero, or `-inf` (pre-masked).
fn arb_exact_points() -> impl Strategy<Value = Vec<WPoint>> {
    prop::collection::vec(
        (0usize..9, 0usize..9, -26i32..24).prop_map(|(xi, yi, k)| {
            let weight = match k {
                -26 => f64::NEG_INFINITY,
                -25 => 0.0,
                k => f64::from(k) / 8.0,
            };
            WPoint::new(xi as f64, yi as f64, weight)
        }),
        0..41,
    )
}

proptest! {
    #[test]
    fn kernels_break_ties_identically_on_exact_weights(points in arb_exact_points()) {
        // Which of several equal-score rectangles is reported decides the
        // zero-weight members R-Bursty hands it, and member sets are the
        // identity of an STLocal region: rect, members and score must be
        // equal, not merely the scores close.
        let tree = RBursty::new().with_kernel(RectKernel::Tree).find(&points);
        let sweep = RBursty::new().with_kernel(RectKernel::Sweep).find(&points);
        prop_assert_eq!(tree, sweep);
    }

    #[test]
    fn exact_matches_naive_oracle(points in arb_points()) {
        let fast = max_weight_rect(&points);
        let slow = max_weight_rect_naive(&points);
        match (fast, slow) {
            (None, None) => {}
            (Some(f), Some(s)) => prop_assert!((f.score - s.score).abs() < 1e-9,
                "fast {} vs naive {}", f.score, s.score),
            (f, s) => prop_assert!(false, "presence mismatch: {f:?} vs {s:?}"),
        }
    }

    #[test]
    fn reported_score_equals_member_weight_sum(points in arb_points_larger()) {
        if let Some(r) = max_weight_rect(&points) {
            let sum: f64 = r.members.iter().map(|&i| points[i].weight).sum();
            prop_assert!((sum - r.score).abs() < 1e-9);
            prop_assert!(r.score > 0.0);
            for &i in &r.members {
                prop_assert!(r.rect.contains(&points[i].position()));
            }
            // Points outside the rectangle are not members.
            for (i, p) in points.iter().enumerate() {
                if r.rect.contains(&p.position()) {
                    prop_assert!(r.members.contains(&i));
                }
            }
        }
    }

    #[test]
    fn exact_at_least_as_good_as_any_single_point(points in arb_points_larger()) {
        let best_single = points.iter().map(|p| p.weight).fold(f64::NEG_INFINITY, f64::max);
        if best_single > 0.0 {
            let r = max_weight_rect(&points).expect("a positive point guarantees a rectangle");
            prop_assert!(r.score >= best_single - 1e-9);
        }
    }

    #[test]
    fn rbursty_rectangles_are_disjoint_positive_sorted(points in arb_points_larger()) {
        let rects = RBursty::new().find(&points);
        let mut seen: HashSet<usize> = HashSet::new();
        for r in &rects {
            prop_assert!(r.score > 0.0);
            let sum: f64 = r.members.iter().map(|&i| points[i].weight).sum();
            prop_assert!((sum - r.score).abs() < 1e-9);
            for &m in &r.members {
                prop_assert!(seen.insert(m), "stream reported in two rectangles");
            }
        }
        for w in rects.windows(2) {
            prop_assert!(w[0].score >= w[1].score - 1e-9);
        }
        prop_assert!(rects.len() <= points.len());
    }

    #[test]
    fn rbursty_total_score_bounded_by_positive_mass(points in arb_points_larger()) {
        let rects = RBursty::new().find(&points);
        let total: f64 = rects.iter().map(|r| r.score).sum();
        let positive_mass: f64 = points.iter().map(|p| p.weight.max(0.0)).sum();
        prop_assert!(total <= positive_mass + 1e-9);
    }

    #[test]
    fn rbursty_first_rect_is_global_max(points in arb_points_larger()) {
        let rects = RBursty::new().find(&points);
        if let Some(best) = max_weight_rect(&points) {
            prop_assert!(!rects.is_empty());
            prop_assert!((rects[0].score - best.score).abs() < 1e-9);
        } else {
            prop_assert!(rects.is_empty());
        }
    }

    #[test]
    fn exact_kernels_match_naive_on_messy_configs(points in arb_messy_points()) {
        // Duplicate coordinates, zero weights, and -inf masked points must
        // not break either exact kernel: same optimal score as the oracle
        // and a valid maximizer (score == weight of contained points).
        let slow = max_weight_rect_naive(&points);
        for kernel in [RectKernel::Tree, RectKernel::Sweep] {
            let fast = max_weight_rect_with(&points, kernel);
            match (&fast, &slow) {
                (None, None) => {}
                (Some(f), Some(s)) => {
                    prop_assert!((f.score - s.score).abs() < 1e-9,
                        "{kernel:?}: {} vs naive {}", f.score, s.score);
                    let contained: f64 = points.iter()
                        .filter(|p| f.rect.contains(&p.position()))
                        .map(|p| p.weight)
                        .sum();
                    prop_assert!((contained - f.score).abs() < 1e-9,
                        "{kernel:?}: rect weight {contained} vs score {}", f.score);
                }
                (f, s) => prop_assert!(false, "{kernel:?} presence mismatch: {f:?} vs {s:?}"),
            }
        }
    }

    #[test]
    fn tree_and_sweep_kernels_agree(points in arb_points_larger()) {
        let tree = max_weight_rect_with(&points, RectKernel::Tree);
        let sweep = max_weight_rect_with(&points, RectKernel::Sweep);
        match (tree, sweep) {
            (None, None) => {}
            (Some(t), Some(s)) => prop_assert!((t.score - s.score).abs() < 1e-9,
                "tree {} vs sweep {}", t.score, s.score),
            (t, s) => prop_assert!(false, "presence mismatch: {t:?} vs {s:?}"),
        }
    }

    #[test]
    fn rbursty_incremental_is_byte_identical_to_scratch(points in arb_messy_points()) {
        for kernel in [RectKernel::Tree, RectKernel::Sweep] {
            let rb = RBursty::new().with_kernel(kernel);
            let incremental = rb.find(&points);
            let scratch = rb.find_from_scratch(&points);
            prop_assert_eq!(&incremental, &scratch, "kernel {:?}", kernel);
        }
    }

    #[test]
    fn rbursty_kernels_agree_on_scores(points in arb_points_larger()) {
        let tree = RBursty::new().with_kernel(RectKernel::Tree).find(&points);
        let sweep = RBursty::new().with_kernel(RectKernel::Sweep).find(&points);
        prop_assert_eq!(tree.len(), sweep.len());
        for (t, s) in tree.iter().zip(&sweep) {
            prop_assert!((t.score - s.score).abs() < 1e-9,
                "tree {} vs sweep {}", t.score, s.score);
        }
    }
}
