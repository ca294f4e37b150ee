//! Maximum-weight axis-aligned rectangle over weighted points.
//!
//! This is the numeric core of the regional mining: given the per-stream
//! burstiness values at one timestamp (as weighted points on the map), find
//! the axis-aligned rectangle whose contained points have the largest total
//! weight. The paper's reference for this kernel is the bichromatic-
//! discrepancy algorithm of Dobkin, Gunopulos & Maass (DGM) at
//! `O(m^2 log m)`; this module implements it together with the simpler
//! alternatives the tests compare it against:
//!
//! | kernel | complexity | role |
//! |---|---|---|
//! | [`max_weight_rect_naive`] | `O(m^5)` (`O(m^4)` rectangles × `O(m)` scan) | brute-force test oracle |
//! | [`RectKernel::Sweep`] | `O(m_x^2 · m_y)` ≈ `O(m^3)` | exact Kadane sweep; the independent reference the tests compare against |
//! | [`RectKernel::Tree`] | `O(p_x · N log m)` ≤ `O(m^2 log m)` | exact DGM max-subsegment tree, right-anchored; the kernel the miners run |
//!
//! (`N` non-zero points, `p_x` columns holding a positive point: in a
//! mined snapshot most non-zero streams sit at `0 − baseline < 0`, so
//! `p_x` is a small fraction of the `m_x` columns.)
//!
//! Both exact kernels run over a shared [`RectWorkspace`] (coordinate
//! compression, per-column point lists, scratch buffers) and prune with
//! the positive weight mass of a column range, which bounds every
//! rectangle inside that range: column pairs — and, because the bound is
//! monotone in the anchored edge, entire tails of the sweep — that cannot
//! beat the incumbent are skipped without being scored. The workspace also
//! supports `O(1)` point masking, which [`crate::RBursty`] uses to run
//! Algorithm 1 without rebuilding the search state after every extraction
//! round. Masked points (`-inf` weight) poison any rectangle containing
//! them, exactly as intended by Algorithm 1 of the paper.
//!
//! # Which maximizer is reported
//!
//! Both kernels report the **lexicographically smallest column pair
//! `(left, right)`** among those whose best y-interval attains the maximum
//! score. That pair is routinely loose on the left — a column of negative
//! points lying outside the winning y-interval ties the tighter pair and
//! sorts first — and the looseness is part of the contract: it decides
//! which zero-weight streams [`crate::RBursty`] hands the rectangle, and
//! member sets are the identity of an `STLocal` region. The Tree kernel's
//! precise contract is *argmax of the tree sum over all column pairs, ties
//! to the lexicographically smallest pair*; it is identical to the Kadane
//! kernel whenever the sums are exact. Two floating-point notes:
//!
//! 1. A *difference* of prefix sums is not a sound bound on a sum the
//!    kernels accumulate in another order: `(0.2 + 4/3 + 2/3) − 0.2`
//!    rounds one ulp below `4/3 + 2/3`, so pruning on the bare difference
//!    reports 1.999 999 999 999 999 8 where 2.0 exists. Every mass bound
//!    therefore carries a rounding allowance (`mass_slack`) and can never
//!    cut a pair that ties or beats the incumbent.
//! 2. The Tree kernel accumulates a y-bucket right-to-left, the Sweep
//!    kernel left-to-right. When three or more non-zero points share a
//!    y-coordinate *and* their weights are inexact, the two bucket sums can
//!    differ in the last ulp and a tie can resolve differently
//!    (`[(0,10,0.2), (1,10,−0.2), (2,10,0.8333333333333334)]`: both answers
//!    score 0.833…34). MDS stream positions share no coordinates.

use crate::maxseg_tree::MaxSegTree;
use crate::weighted_point::WPoint;
use stb_geo::Rect;

/// Result of a maximum-weight rectangle search.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxRect {
    /// The maximizing rectangle (boundaries lie on point coordinates).
    pub rect: Rect,
    /// Total weight of the points contained in the rectangle.
    pub score: f64,
    /// Indices (into the input slice) of the points contained in the
    /// rectangle.
    pub members: Vec<usize>,
}

/// Choice of the exact maximum-weight rectangle kernel.
///
/// Both kernels return the same optimal score (property-tested against
/// [`max_weight_rect_naive`]) and, whenever the sums are exact, the same
/// rectangle (see the module docs). [`RectKernel::Tree`] is faster at every
/// size and is what the miners run; [`RectKernel::Sweep`] is the
/// independent implementation the tests compare it against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RectKernel {
    /// DGM-style max-subsegment segment tree over the y-buckets, swept
    /// from the columns that hold a positive point: `O(p_x · N log m)`
    /// (see `MaxSegTree`).
    #[default]
    Tree,
    /// Kadane re-scan of the y-buckets for every x-boundary pair,
    /// `O(m_x^2 · m_y)`.
    Sweep,
}

fn members_of(points: &[WPoint], rect: &Rect) -> Vec<usize> {
    points
        .iter()
        .enumerate()
        .filter(|(_, p)| rect.contains(&p.position()))
        .map(|(i, _)| i)
        .collect()
}

/// Sorts and deduplicates coordinate values under one total order
/// (`f64::total_cmp` for both steps), so NaN or mixed-zero inputs can
/// never silently corrupt the coordinate index: the `total_cmp` binary
/// searches over the result find exactly the values kept here, even for
/// `-0.0` vs `+0.0` points built as [`WPoint`] struct literals
/// (the constructor additionally canonicalizes `-0.0` and rejects NaN).
fn dedup_sorted(values: &mut Vec<f64>) {
    values.sort_by(f64::total_cmp);
    values.dedup_by(|a, b| a.total_cmp(b).is_eq());
}

/// Maximum-sum contiguous bucket interval whose sum strictly exceeds
/// `floor`: `(sum, first_bucket, last_bucket)`, ties broken towards the
/// earliest improving interval (Kadane). Threading the caller's incumbent
/// through `floor` keeps the improvement branch almost-never-taken in the
/// sweep's hot loop instead of re-warming a per-call incumbent from zero.
fn kadane_above(buckets: &[f64], floor: f64) -> Option<(f64, usize, usize)> {
    let mut best = floor;
    let mut out = None;
    let mut cur_sum = 0.0;
    let mut cur_start = 0usize;
    for (yi, &b) in buckets.iter().enumerate() {
        if cur_sum <= 0.0 {
            cur_sum = b;
            cur_start = yi;
        } else {
            cur_sum += b;
        }
        if cur_sum > best {
            best = cur_sum;
            out = Some((cur_sum, cur_start, yi));
        }
    }
    out
}

/// One weighted point bucketed into its x-column: the compressed
/// y-coordinate index and the (maskable) weight.
#[derive(Debug, Clone, Copy)]
struct ColPoint {
    yi: u32,
    weight: f64,
}

/// Reusable search state for the exact kernels: coordinate compression,
/// per-column point lists, and the scratch buffers of both kernels.
///
/// Built once from a point set, it answers repeated [`best_rect`] queries
/// with zero allocation, and supports `O(1)` per-point [`mask`]ing between
/// queries — the extraction loop of Algorithm 1 ([`crate::RBursty`]) masks
/// the members of each reported rectangle and re-queries instead of
/// re-collecting and re-compressing the whole input every round.
///
/// Zero-weight points are excluded: they can neither help nor hurt any
/// rectangle, and the optimal rectangle can always be shrunk to the
/// bounding box of its non-zero contents, so the search cost scales with
/// the number of streams that actually carry signal for the term — on real
/// corpora a small fraction of all streams.
///
/// [`best_rect`]: RectWorkspace::best_rect
/// [`mask`]: RectWorkspace::mask
#[derive(Debug, Clone)]
pub(crate) struct RectWorkspace {
    /// Distinct x-coordinates of the non-zero-weight points, ascending.
    xs: Vec<f64>,
    /// Distinct y-coordinates of the non-zero-weight points, ascending.
    ys: Vec<f64>,
    /// Points grouped by x-coordinate index, in input order within a column.
    by_x: Vec<Vec<ColPoint>>,
    /// For every input point index: its `(column, slot)` in `by_x`, or
    /// `None` for zero-weight points that are not part of the search.
    point_col: Vec<Option<(u32, u32)>>,
    /// `pos_prefix[i]` = total positive weight in columns `[0, i)`;
    /// recomputed by every [`Self::best_rect`] call (masking changes it).
    pos_prefix: Vec<f64>,
    /// Scratch y-buckets of the Kadane sweep kernel.
    buckets: Vec<f64>,
    /// Scratch max-subsegment tree of the DGM kernel.
    tree: MaxSegTree,
}

impl RectWorkspace {
    /// Builds the workspace, or `None` when no point carries weight (the
    /// search domain is empty: no rectangle can have a non-zero score).
    pub(crate) fn new(points: &[WPoint]) -> Option<Self> {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for p in points {
            if p.weight != 0.0 {
                xs.push(p.x);
                ys.push(p.y);
            }
        }
        if xs.is_empty() {
            return None;
        }
        dedup_sorted(&mut xs);
        dedup_sorted(&mut ys);
        let mut by_x: Vec<Vec<ColPoint>> = vec![Vec::new(); xs.len()];
        let mut point_col = vec![None; points.len()];
        for (idx, p) in points.iter().enumerate() {
            if p.weight == 0.0 {
                continue;
            }
            let (Ok(xi), Ok(yi)) = (
                xs.binary_search_by(|v| v.total_cmp(&p.x)),
                ys.binary_search_by(|v| v.total_cmp(&p.y)),
            ) else {
                debug_assert!(false, "coordinates of a non-zero point were indexed above");
                continue;
            };
            point_col[idx] = Some((xi as u32, by_x[xi].len() as u32));
            by_x[xi].push(ColPoint {
                yi: yi as u32,
                weight: p.weight,
            });
        }
        Some(Self {
            pos_prefix: vec![0.0; xs.len() + 1],
            buckets: vec![0.0; ys.len()],
            tree: MaxSegTree::new(ys.len()),
            xs,
            ys,
            by_x,
            point_col,
        })
    }

    /// Masks the point at input index `idx` with `-inf` weight, so no
    /// later rectangle can profitably contain it (Algorithm 1, step 2).
    /// A no-op for zero-weight points, which are not part of the search.
    pub(crate) fn mask(&mut self, idx: usize) {
        if let Some((xi, slot)) = self.point_col[idx] {
            self.by_x[xi as usize][slot as usize].weight = f64::NEG_INFINITY;
        }
    }

    /// The best rectangle with score strictly greater than
    /// `floor.max(0.0)`, under the current (possibly masked) weights.
    ///
    /// Returns `(score, rect)` or `None` when no rectangle clears the
    /// floor. Passing the caller's minimum-score threshold as `floor`
    /// (instead of filtering afterwards) feeds the pruner a better
    /// incumbent from the start.
    pub(crate) fn best_rect(&mut self, kernel: RectKernel, floor: f64) -> Option<(f64, Rect)> {
        let m = self.xs.len();
        self.pos_prefix[0] = 0.0;
        for i in 0..m {
            let col_pos: f64 = self.by_x[i].iter().map(|c| c.weight.max(0.0)).sum();
            self.pos_prefix[i + 1] = self.pos_prefix[i] + col_pos;
        }
        match kernel {
            RectKernel::Tree => self.best_rect_tree(floor.max(0.0)),
            RectKernel::Sweep => self.best_rect_sweep(floor.max(0.0)),
        }
    }

    /// Rounding allowance of the positive-mass bounds. `pos_prefix` and a
    /// kernel's own sum add the same `N` or fewer positive weights in
    /// different orders (negative weights only lower a kernel's sum), so a
    /// score exceeds a prefix, or a difference of two, by less than
    /// `2N · ε · total`; twice that is added before a bound may prune.
    fn mass_slack(&self) -> f64 {
        4.0 * self.point_col.len() as f64 * f64::EPSILON * self.pos_prefix[self.xs.len()]
    }

    /// DGM kernel, right-anchored. A strict improvement needs a positive
    /// point in its right column, so only those columns anchor a sweep:
    /// `right` descends over them, the tree is reset, and columns `right,
    /// right − 1, …, 0` are added into the max-subsegment tree (`O(log m)`
    /// a point) with the best achievable y-interval *sum* read off the root
    /// in `O(1)` after each. The left edge must run all the way to column 0:
    /// the reported pair is the lexicographically smallest maximal one (see
    /// the module docs), and pairs are visited right-to-left, so a tie with
    /// the incumbent goes to the smaller pair. The tree does not track
    /// which interval wins (that would put argmax bookkeeping in every
    /// combine — see [`MaxSegTree`]'s module docs), so the sweep records
    /// the winning column pair and recovers the y-interval with one `O(m)`
    /// Kadane pass at the end.
    fn best_rect_tree(&mut self, floor: f64) -> Option<(f64, Rect)> {
        let slack = self.mass_slack();
        let mut best = floor;
        let mut best_pair: Option<(usize, usize)> = None;
        for right in (0..self.xs.len()).rev() {
            // The positive mass of columns `[0, right]` bounds every pair
            // still to come, and only shrinks as `right` descends. Strict:
            // a pair that ties the incumbent may sort before it.
            if self.pos_prefix[right + 1] + slack < best {
                break;
            }
            if !self.by_x[right].iter().any(|c| c.weight > 0.0) {
                continue;
            }
            self.tree.reset();
            for left in (0..=right).rev() {
                for c in &self.by_x[left] {
                    self.tree.add(c.yi as usize, c.weight);
                }
                let score = self.tree.best()?;
                if score > best || (score == best && best_pair.is_some_and(|p| (left, right) < p)) {
                    best = score;
                    best_pair = Some((left, right));
                }
            }
        }
        let (left, right) = best_pair?;
        // Recovery pass: accumulate the winning columns' buckets and find
        // the maximizing y-interval (and its linearly-accumulated score,
        // which is what the reported member weights sum to).
        self.buckets.iter_mut().for_each(|b| *b = 0.0);
        for col in &self.by_x[left..=right] {
            for c in col {
                self.buckets[c.yi as usize] += c.weight;
            }
        }
        // Recovery uses the same floor as the sweep, preserving the
        // strictly-greater-than-floor contract: the tree found a sum above
        // `floor` over these buckets, so the linear re-scan finds one too,
        // except when the optimum straddles `floor` within summation-order
        // rounding (an ulp-scale tie real burstiness inputs never
        // produce). Reporting nothing then is the conservative reading of
        // the contract — the pre-workspace code broke out of extraction on
        // such scores as well — and a genuinely broken recovery cannot
        // hide here: the kernel-equivalence proptests would catch it.
        let (score, y_start, y_end) = kadane_above(&self.buckets, floor)?;
        Some((
            score,
            Rect::new(
                self.xs[left],
                self.ys[y_start],
                self.xs[right],
                self.ys[y_end],
            ),
        ))
    }

    /// Kadane kernel: re-scan the accumulated y-buckets for every
    /// x-boundary pair, left edge ascending, right edge ascending, strict
    /// improvement only — the scan order that defines which maximizer is
    /// reported.
    fn best_rect_sweep(&mut self, floor: f64) -> Option<(f64, Rect)> {
        let m = self.xs.len();
        let slack = self.mass_slack();
        let total_pos = self.pos_prefix[m];
        let mut best = floor;
        let mut best_rect = None;
        for left in 0..m {
            // The positive mass right of `left` bounds every rectangle this
            // iteration can produce — and it only shrinks as `left` grows.
            if total_pos - self.pos_prefix[left] + slack <= best {
                break;
            }
            self.buckets.iter_mut().for_each(|b| *b = 0.0);
            for right in left..m {
                for c in &self.by_x[right] {
                    self.buckets[c.yi as usize] += c.weight;
                }
                if self.pos_prefix[right + 1] - self.pos_prefix[left] + slack <= best {
                    continue;
                }
                if let Some((score, y_start, y_end)) = kadane_above(&self.buckets, best) {
                    best = score;
                    best_rect = Some(Rect::new(
                        self.xs[left],
                        self.ys[y_start],
                        self.xs[right],
                        self.ys[y_end],
                    ));
                }
            }
        }
        best_rect.map(|r| (best, r))
    }
}

/// Exact maximum-weight axis-aligned rectangle with the default
/// ([`RectKernel::Tree`]) kernel.
///
/// Returns `None` when the input is empty or every point has non-positive
/// weight (no rectangle can achieve a positive score, and the burstiness
/// semantics only care about positive-score regions).
#[cfg(test)]
pub(crate) fn max_weight_rect(points: &[WPoint]) -> Option<MaxRect> {
    max_weight_rect_with(points, RectKernel::default())
}

/// Exact maximum-weight axis-aligned rectangle with an explicit kernel.
///
/// Returns `None` when the input is empty or every point has non-positive
/// weight; both kernels return the same optimal score and a valid
/// maximizer.
pub fn max_weight_rect_with(points: &[WPoint], kernel: RectKernel) -> Option<MaxRect> {
    let mut ws = RectWorkspace::new(points)?;
    let (score, rect) = ws.best_rect(kernel, 0.0)?;
    Some(MaxRect {
        members: members_of(points, &rect),
        rect,
        score,
    })
}

/// Brute-force maximum-weight rectangle: enumerates every candidate rectangle
/// whose boundaries are point coordinates. `O(m^4)` pairs of corners with an
/// `O(m)` containment scan each — strictly a test oracle.
pub fn max_weight_rect_naive(points: &[WPoint]) -> Option<MaxRect> {
    if points.is_empty() {
        return None;
    }
    let mut xs: Vec<f64> = points.iter().map(|p| p.x).collect();
    let mut ys: Vec<f64> = points.iter().map(|p| p.y).collect();
    dedup_sorted(&mut xs);
    dedup_sorted(&mut ys);
    let mut best: Option<(f64, Rect)> = None;
    for (i, &x1) in xs.iter().enumerate() {
        for &x2 in &xs[i..] {
            for (j, &y1) in ys.iter().enumerate() {
                for &y2 in &ys[j..] {
                    let rect = Rect::new(x1, y1, x2, y2);
                    let score: f64 = points
                        .iter()
                        .filter(|p| rect.contains(&p.position()))
                        .map(|p| p.weight)
                        .sum();
                    if score > 0.0 && best.as_ref().is_none_or(|(s, _)| score > *s) {
                        best = Some((score, rect));
                    }
                }
            }
        }
    }
    best.map(|(score, rect)| MaxRect {
        members: members_of(points, &rect),
        rect,
        score,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wp(x: f64, y: f64, w: f64) -> WPoint {
        WPoint::new(x, y, w)
    }

    const KERNELS: [RectKernel; 2] = [RectKernel::Tree, RectKernel::Sweep];

    #[test]
    fn empty_input() {
        for kernel in KERNELS {
            assert!(max_weight_rect_with(&[], kernel).is_none());
        }
        assert!(max_weight_rect(&[]).is_none());
        assert!(max_weight_rect_naive(&[]).is_none());
        assert!(RectWorkspace::new(&[]).is_none());
    }

    #[test]
    fn all_negative_weights() {
        let pts = vec![wp(0.0, 0.0, -1.0), wp(1.0, 1.0, -2.0)];
        for kernel in KERNELS {
            assert!(max_weight_rect_with(&pts, kernel).is_none());
        }
        assert!(max_weight_rect_naive(&pts).is_none());
    }

    #[test]
    fn single_positive_point() {
        let pts = vec![wp(3.0, 4.0, 2.5)];
        for kernel in KERNELS {
            let r = max_weight_rect_with(&pts, kernel).unwrap();
            assert_eq!(r.score, 2.5);
            assert_eq!(r.members, vec![0]);
            assert!(r.rect.contains(&pts[0].position()));
        }
    }

    #[test]
    fn excludes_negative_point_when_beneficial() {
        // Two positive points far apart with a very negative point between
        // them: the best rectangle picks only one side.
        let pts = vec![wp(0.0, 0.0, 5.0), wp(5.0, 0.0, -100.0), wp(10.0, 0.0, 6.0)];
        for kernel in KERNELS {
            let r = max_weight_rect_with(&pts, kernel).unwrap();
            assert_eq!(r.score, 6.0);
            assert_eq!(r.members, vec![2]);
        }
    }

    #[test]
    fn includes_negative_point_when_bridging_pays_off() {
        // Including a slightly negative point lets the rectangle span two
        // strong positives.
        let pts = vec![wp(0.0, 0.0, 5.0), wp(5.0, 0.0, -1.0), wp(10.0, 0.0, 6.0)];
        for kernel in KERNELS {
            let r = max_weight_rect_with(&pts, kernel).unwrap();
            assert!((r.score - 10.0).abs() < 1e-12);
            assert_eq!(r.members, vec![0, 1, 2]);
        }
    }

    #[test]
    fn rectangle_uses_both_dimensions() {
        // A cluster of positives in one corner, negatives elsewhere.
        let pts = vec![
            wp(0.0, 0.0, 3.0),
            wp(1.0, 0.5, 2.0),
            wp(0.5, 1.0, 1.0),
            wp(8.0, 8.0, -4.0),
            wp(0.5, 8.0, -4.0),
            wp(8.0, 0.5, -4.0),
        ];
        for kernel in KERNELS {
            let r = max_weight_rect_with(&pts, kernel).unwrap();
            assert!((r.score - 6.0).abs() < 1e-12);
            assert_eq!(r.members, vec![0, 1, 2]);
        }
    }

    #[test]
    fn matches_naive_on_fixed_configurations() {
        let configs: Vec<Vec<WPoint>> = vec![
            vec![
                wp(0.0, 0.0, 1.0),
                wp(1.0, 1.0, 1.0),
                wp(2.0, 2.0, -3.0),
                wp(3.0, 3.0, 2.0),
            ],
            vec![
                wp(0.0, 0.0, -1.0),
                wp(0.0, 1.0, 2.0),
                wp(1.0, 0.0, 2.0),
                wp(1.0, 1.0, -1.0),
            ],
            vec![
                wp(0.0, 0.0, 1.5),
                wp(2.0, 0.0, -0.5),
                wp(4.0, 0.0, 2.5),
                wp(2.0, 3.0, 4.0),
                wp(4.0, 3.0, -2.0),
            ],
        ];
        for pts in configs {
            let slow = max_weight_rect_naive(&pts).unwrap();
            for kernel in KERNELS {
                let fast = max_weight_rect_with(&pts, kernel).unwrap();
                assert!((fast.score - slow.score).abs() < 1e-9, "{kernel:?} {pts:?}");
            }
        }
    }

    #[test]
    fn prefix_difference_rounding_does_not_hide_the_maximum() {
        // (0.2 + 4/3 + 2/3) − 0.2 rounds to 1.9999999999999998, the score
        // of points 1–4: a prune on the bare prefix difference stops there,
        // one ulp below the pair {3, 4} that sums to exactly 2.0.
        let pts = vec![
            wp(0.0, 30.0, -1.0 / 3.0),
            wp(1.0, 101.0, 0.2),
            wp(2.0, 62.0, -0.2),
            wp(3.0, 23.0, 4.0 / 3.0),
            wp(4.0, 94.0, 2.0 / 3.0),
        ];
        let naive = max_weight_rect_naive(&pts).unwrap();
        assert_eq!(naive.score, 2.0);
        for kernel in KERNELS {
            let r = max_weight_rect_with(&pts, kernel).unwrap();
            assert_eq!(r.score, 2.0, "{kernel:?}");
            assert_eq!(r.members, vec![3, 4], "{kernel:?}");
        }
    }

    #[test]
    fn masked_points_are_never_profitably_included() {
        let pts = vec![
            wp(0.0, 0.0, 5.0),
            wp(1.0, 0.0, f64::NEG_INFINITY),
            wp(2.0, 0.0, 7.0),
        ];
        for kernel in KERNELS {
            let r = max_weight_rect_with(&pts, kernel).unwrap();
            // Best is the single point with weight 7 (bridging over the
            // masked point would poison the rectangle).
            assert_eq!(r.score, 7.0);
            assert_eq!(r.members, vec![2]);
        }
    }

    #[test]
    fn duplicate_coordinates_are_aggregated() {
        let pts = vec![wp(1.0, 1.0, 2.0), wp(1.0, 1.0, 3.0), wp(5.0, 5.0, -1.0)];
        for kernel in KERNELS {
            let r = max_weight_rect_with(&pts, kernel).unwrap();
            assert!((r.score - 5.0).abs() < 1e-12);
            assert_eq!(r.members, vec![0, 1]);
        }
    }

    #[test]
    fn workspace_masking_matches_rebuilt_search() {
        // Masking through the long-lived workspace must answer the next
        // query exactly like a workspace rebuilt from the masked input.
        let pts = vec![
            wp(0.0, 0.0, 4.0),
            wp(1.0, 1.0, 3.0),
            wp(5.0, 5.0, -100.0),
            wp(10.0, 10.0, 2.0),
            wp(11.0, 11.0, 1.0),
        ];
        for kernel in KERNELS {
            let mut ws = RectWorkspace::new(&pts).unwrap();
            let (first, rect) = ws.best_rect(kernel, 0.0).unwrap();
            assert!((first - 7.0).abs() < 1e-12, "{kernel:?}");
            let masked: Vec<usize> = (0..pts.len())
                .filter(|&i| rect.contains(&pts[i].position()))
                .collect();
            for &i in &masked {
                ws.mask(i);
            }
            let mut rebuilt_pts = pts.clone();
            for &i in &masked {
                rebuilt_pts[i].weight = f64::NEG_INFINITY;
            }
            let mut rebuilt = RectWorkspace::new(&rebuilt_pts).unwrap();
            let incremental = ws.best_rect(kernel, 0.0);
            let scratch = rebuilt.best_rect(kernel, 0.0);
            assert_eq!(incremental, scratch, "{kernel:?}");
            assert!((incremental.unwrap().0 - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn floor_prunes_below_threshold_results() {
        let pts = vec![wp(0.0, 0.0, 1.0), wp(10.0, 10.0, 0.5)];
        for kernel in KERNELS {
            let mut ws = RectWorkspace::new(&pts).unwrap();
            // Everything clears floor 0; the whole plane scores 1.5.
            let (score, _) = ws.best_rect(kernel, 0.0).unwrap();
            assert!((score - 1.5).abs() < 1e-12);
            // Nothing clears a floor above the global optimum.
            assert!(ws.best_rect(kernel, 2.0).is_none());
            // A negative floor behaves like 0: only positive scores exist.
            let (score, _) = ws.best_rect(kernel, -5.0).unwrap();
            assert!((score - 1.5).abs() < 1e-12);
        }
    }

    #[test]
    fn mixed_zero_coordinates_are_one_boundary() {
        // -0.0 and +0.0 must collapse to a single compressed coordinate.
        let pts = vec![wp(-0.0, 0.0, 2.0), wp(0.0, -0.0, 3.0), wp(4.0, 4.0, -1.0)];
        for kernel in KERNELS {
            let r = max_weight_rect_with(&pts, kernel).unwrap();
            assert!((r.score - 5.0).abs() < 1e-12);
            assert_eq!(r.members, vec![0, 1]);
        }
    }

    #[test]
    fn mixed_zeros_through_public_fields_do_not_panic() {
        // Struct-literal construction bypasses WPoint::new's -0.0
        // canonicalization; the coordinate index must still be coherent
        // (total_cmp sort, total_cmp dedup, total_cmp search).
        let pts = vec![
            WPoint {
                x: -0.0,
                y: 1.0,
                weight: 2.0,
            },
            WPoint {
                x: 0.0,
                y: 2.0,
                weight: 3.0,
            },
            WPoint {
                x: 5.0,
                y: -0.0,
                weight: -1.0,
            },
        ];
        for kernel in KERNELS {
            let r = max_weight_rect_with(&pts, kernel).unwrap();
            assert!((r.score - 5.0).abs() < 1e-12, "{kernel:?}");
        }
    }
}
