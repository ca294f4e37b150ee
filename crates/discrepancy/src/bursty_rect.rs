//! `R-Bursty`: all non-overlapping positive-score rectangles (Algorithm 1).
//!
//! Given a term's per-stream burstiness values at one timestamp (weighted
//! points on the map), Algorithm 1 of the paper repeatedly extracts the
//! maximum-score rectangle, reports it, masks the streams it contains with
//! `-inf` weights, and stops once the best remaining rectangle has a
//! non-positive score. The result is the set of *Bursty Rectangles*
//! (Definition 1): non-overlapping (in terms of contained streams),
//! positive-score regions, at most `n` of them.
//!
//! The extraction loop is *incremental*: one [`RectWorkspace`] (coordinate
//! compression, per-column point lists, kernel scratch state) is built up
//! front and reused across every round, with masking applied as `O(1)`
//! point-weight updates instead of re-collecting and re-compressing the
//! whole input after each reported rectangle. The reference from-scratch
//! loop is kept as [`RBursty::find_from_scratch`] and property-tested to
//! produce byte-identical rectangle sequences.

use crate::max_rect::{RectKernel, RectWorkspace};
use crate::weighted_point::WPoint;
use stb_geo::Rect;

/// One bursty rectangle reported by [`RBursty`].
#[derive(Debug, Clone, PartialEq)]
pub struct BurstyRectangle {
    /// The reported region.
    pub rect: Rect,
    /// Indices (into the input point slice, i.e. stream indices) of the
    /// streams contained in the rectangle.
    pub members: Vec<usize>,
    /// The r-score of the rectangle (sum of member burstiness values);
    /// strictly positive.
    pub(crate) score: f64,
}

/// Configuration of the R-Bursty extraction.
///
/// # Example
///
/// Two positive-burstiness streams close together, one negative outlier far
/// away: Algorithm 1 reports a single rectangle containing the pair.
///
/// ```
/// use stb_discrepancy::{RBursty, WPoint};
///
/// let points = vec![
///     WPoint::new(0.0, 0.0, 2.0),
///     WPoint::new(1.0, 1.0, 1.5),
///     WPoint::new(50.0, 50.0, -1.0),
/// ];
/// let rects = RBursty::new().find(&points);
/// assert_eq!(rects.len(), 1);
/// assert_eq!(rects[0].members, vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct RBursty {
    /// Minimum r-score for a rectangle to be reported. The paper uses 0
    /// (strictly positive scores); raising it suppresses noise-level
    /// rectangles.
    pub(crate) min_score: f64,
    /// The exact maximum-weight rectangle kernel driving each extraction
    /// round (see [`RectKernel`]).
    pub(crate) kernel: RectKernel,
}

impl Default for RBursty {
    fn default() -> Self {
        Self {
            min_score: 0.0,
            kernel: RectKernel::default(),
        }
    }
}

impl RBursty {
    /// Creates the default configuration (strictly positive scores, the
    /// [`RectKernel::Tree`] kernel).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the minimum reported r-score.
    pub fn with_min_score(mut self, min_score: f64) -> Self {
        self.min_score = min_score.max(0.0);
        self
    }

    /// Selects the exact rectangle kernel.
    #[cfg(test)]
    pub(crate) fn with_kernel(mut self, kernel: RectKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Runs Algorithm 1 on the given weighted points (one per stream) and
    /// returns all non-overlapping bursty rectangles, strongest first.
    ///
    /// The search state is built once and reused across extraction rounds;
    /// masking a reported rectangle's members is an `O(1)`-per-point weight
    /// update on the shared workspace.
    ///
    /// Zero-weight streams deserve a note: they contribute nothing to any
    /// score, so they are reported as members of the *first* rectangle
    /// that geometrically covers them and never again (a claimed set, not
    /// a `-inf` mask — masking them would make their location poison later
    /// rectangles, letting a stream with no burstiness at all veto a
    /// nearby region's shape). Member disjointness across the reported
    /// rectangles is preserved either way.
    pub fn find(&self, points: &[WPoint]) -> Vec<BurstyRectangle> {
        let Some(mut ws) = RectWorkspace::new(points) else {
            return Vec::new();
        };
        let mut claimed = vec![false; points.len()];
        let mut out = Vec::new();
        while out.len() < points.len() {
            let Some((score, rect)) = ws.best_rect(self.kernel, self.min_score) else {
                break;
            };
            let members = claim_members(points, &rect, &mut claimed);
            // Mask the members so no later rectangle can contain them
            // (Algorithm 1, step 2).
            for &m in &members {
                ws.mask(m);
            }
            out.push(BurstyRectangle {
                rect,
                members,
                score,
            });
        }
        out
    }

    /// Reference implementation of [`RBursty::find`] that rebuilds the
    /// entire search state from scratch after every masking round, the way
    /// Algorithm 1 is usually read (the paper does not specify state
    /// reuse; both paths implement the same extract-mask-repeat semantics,
    /// including the zero-weight claiming rule documented on
    /// [`RBursty::find`]).
    ///
    /// Kept for testing and benchmarking: it produces byte-identical
    /// rectangle sequences to the incremental path (property-tested), at
    /// the cost of re-collecting, re-sorting, and re-allocating the input
    /// every round.
    pub fn find_from_scratch(&self, points: &[WPoint]) -> Vec<BurstyRectangle> {
        let mut working: Vec<WPoint> = points.to_vec();
        let mut claimed = vec![false; points.len()];
        let mut out = Vec::new();
        while out.len() < points.len() {
            let Some(mut ws) = RectWorkspace::new(&working) else {
                break;
            };
            let Some((score, rect)) = ws.best_rect(self.kernel, self.min_score) else {
                break;
            };
            let members = claim_members(points, &rect, &mut claimed);
            for &m in &members {
                // Zero-weight members carry no mass to mask; leaving them
                // untouched keeps the rebuilt search domain identical to
                // the incremental workspace (which never indexes them).
                if working[m].weight != 0.0 {
                    working[m].weight = f64::NEG_INFINITY;
                }
            }
            out.push(BurstyRectangle {
                rect,
                members,
                score,
            });
        }
        out
    }
}

/// The not-yet-claimed points contained in `rect`, in input order; marks
/// them claimed. A winning rectangle can never contain a masked (`-inf`)
/// point, so claiming matters only for zero-weight points, which would
/// otherwise be reported as members of every rectangle that geometrically
/// covers them.
fn claim_members(points: &[WPoint], rect: &Rect, claimed: &mut [bool]) -> Vec<usize> {
    let mut members = Vec::new();
    for (i, p) in points.iter().enumerate() {
        if !claimed[i] && rect.contains(&p.position()) {
            claimed[i] = true;
            members.push(i);
        }
    }
    members
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn wp(x: f64, y: f64, w: f64) -> WPoint {
        WPoint::new(x, y, w)
    }

    #[test]
    fn empty_input_gives_no_rectangles() {
        assert!(RBursty::new().find(&[]).is_empty());
        assert!(RBursty::new().find_from_scratch(&[]).is_empty());
    }

    #[test]
    fn all_non_positive_gives_no_rectangles() {
        let pts = vec![wp(0.0, 0.0, 0.0), wp(1.0, 1.0, -3.0)];
        assert!(RBursty::new().find(&pts).is_empty());
    }

    #[test]
    fn single_cluster_reported_once() {
        let pts = vec![
            wp(0.0, 0.0, 2.0),
            wp(1.0, 0.5, 3.0),
            wp(0.5, 1.0, 1.0),
            wp(50.0, 50.0, -1.0),
        ];
        let rects = RBursty::new().find(&pts);
        assert_eq!(rects.len(), 1);
        assert_eq!(rects[0].members, vec![0, 1, 2]);
        assert!((rects[0].score - 6.0).abs() < 1e-12);
    }

    #[test]
    fn two_distant_clusters_reported_separately() {
        let pts = vec![
            // Cluster A around the origin.
            wp(0.0, 0.0, 2.0),
            wp(1.0, 1.0, 2.0),
            // A strongly negative gap point.
            wp(25.0, 25.0, -50.0),
            // Cluster B far away.
            wp(50.0, 50.0, 3.0),
            wp(51.0, 51.0, 3.0),
        ];
        let rects = RBursty::new().find(&pts);
        assert_eq!(rects.len(), 2);
        // Strongest first: cluster B has score 6, cluster A has 4.
        assert_eq!(rects[0].members, vec![3, 4]);
        assert!((rects[0].score - 6.0).abs() < 1e-12);
        assert_eq!(rects[1].members, vec![0, 1]);
        assert!((rects[1].score - 4.0).abs() < 1e-12);
    }

    #[test]
    fn reported_rectangles_never_share_streams() {
        let pts: Vec<WPoint> = (0..20)
            .map(|i| {
                wp(
                    (i % 5) as f64,
                    (i / 5) as f64,
                    if i % 3 == 0 { 2.0 } else { -0.5 },
                )
            })
            .collect();
        let rects = RBursty::new().find(&pts);
        let mut seen: HashSet<usize> = HashSet::new();
        for r in &rects {
            for &m in &r.members {
                assert!(seen.insert(m), "stream {m} reported twice");
            }
            assert!(r.score > 0.0);
        }
    }

    #[test]
    fn scores_are_non_increasing() {
        let pts: Vec<WPoint> = (0..15)
            .map(|i| wp(i as f64 * 3.0, (i * 7 % 11) as f64, (i % 4) as f64 - 1.0))
            .collect();
        let rects = RBursty::new().find(&pts);
        for w in rects.windows(2) {
            assert!(w[0].score >= w[1].score - 1e-12);
        }
    }

    #[test]
    fn rectangle_count_bounded_by_streams() {
        let pts: Vec<WPoint> = (0..30).map(|i| wp(i as f64, 0.0, 1.0)).collect();
        let rects = RBursty::new().find(&pts);
        assert!(rects.len() <= pts.len());
        // All-positive points on a line are absorbed into one rectangle.
        assert_eq!(rects.len(), 1);
        assert_eq!(rects[0].members.len(), 30);
    }

    #[test]
    fn min_score_threshold_filters_weak_rectangles() {
        let pts = vec![
            wp(0.0, 0.0, 10.0),
            wp(100.0, 100.0, -1.0),
            wp(200.0, 200.0, 0.2),
        ];
        let all = RBursty::new().find(&pts);
        assert_eq!(all.len(), 2);
        let strong = RBursty::new().with_min_score(1.0).find(&pts);
        assert_eq!(strong.len(), 1);
        assert_eq!(strong[0].members, vec![0]);
    }

    #[test]
    fn splits_region_when_splitting_beats_bridging() {
        // Automatic decision discussed in Section 4: two positives separated
        // by a heavy negative should be two rectangles, not one.
        let pts = vec![wp(0.0, 0.0, 3.0), wp(5.0, 0.0, -10.0), wp(10.0, 0.0, 3.0)];
        let rects = RBursty::new().find(&pts);
        assert_eq!(rects.len(), 2);
        // And with a mild negative it should be a single bridged rectangle.
        let pts2 = vec![wp(0.0, 0.0, 3.0), wp(5.0, 0.0, -0.5), wp(10.0, 0.0, 3.0)];
        let rects2 = RBursty::new().find(&pts2);
        assert_eq!(rects2.len(), 1);
        assert_eq!(rects2[0].members.len(), 3);
    }

    /// Fixed configurations exercising multi-round extraction, zero-weight
    /// members, duplicates, and pre-masked input.
    fn tricky_configs() -> Vec<Vec<WPoint>> {
        vec![
            // Three clusters, extracted over three rounds.
            vec![
                wp(0.0, 0.0, 1.0),
                wp(100.0, 0.0, -5.0),
                wp(200.0, 0.0, 2.0),
                wp(300.0, 0.0, -5.0),
                wp(400.0, 0.0, 3.0),
            ],
            // A zero-weight point inside the first reported rectangle.
            vec![
                wp(0.0, 0.0, 2.0),
                wp(1.0, 1.0, 0.0),
                wp(2.0, 2.0, 2.0),
                wp(50.0, 50.0, 1.0),
            ],
            // Duplicate coordinates and a pre-masked point.
            vec![
                wp(1.0, 1.0, 2.0),
                wp(1.0, 1.0, 3.0),
                wp(2.0, 2.0, f64::NEG_INFINITY),
                wp(10.0, 10.0, 1.5),
            ],
            // All mass in one column, split by a deep negative.
            vec![
                wp(0.0, 0.0, 4.0),
                wp(0.0, 1.0, -9.0),
                wp(0.0, 2.0, 5.0),
                wp(0.0, 3.0, 0.0),
            ],
        ]
    }

    #[test]
    fn incremental_workspace_matches_from_scratch_path() {
        for pts in tricky_configs() {
            for kernel in [RectKernel::Tree, RectKernel::Sweep] {
                let rb = RBursty::new().with_kernel(kernel);
                assert_eq!(
                    rb.find(&pts),
                    rb.find_from_scratch(&pts),
                    "kernel {kernel:?} on {pts:?}"
                );
            }
        }
    }

    #[test]
    fn kernels_agree_on_rectangle_scores() {
        for pts in tricky_configs() {
            let tree = RBursty::new().with_kernel(RectKernel::Tree).find(&pts);
            let sweep = RBursty::new().with_kernel(RectKernel::Sweep).find(&pts);
            assert_eq!(tree.len(), sweep.len(), "{pts:?}");
            for (a, b) in tree.iter().zip(&sweep) {
                assert!((a.score - b.score).abs() < 1e-9, "{pts:?}");
                assert_eq!(a.members, b.members, "{pts:?}");
            }
        }
    }

    #[test]
    fn zero_weight_member_is_claimed_exactly_once() {
        // The zero-weight point at (1, 1) sits inside the first reported
        // rectangle; it must be a member there and never reappear.
        let pts = vec![
            wp(0.0, 0.0, 2.0),
            wp(1.0, 1.0, 0.0),
            wp(2.0, 2.0, 2.0),
            wp(0.5, 1.5, 3.0),
        ];
        let rects = RBursty::new().find(&pts);
        let mut seen: HashSet<usize> = HashSet::new();
        for r in &rects {
            for &m in &r.members {
                assert!(seen.insert(m), "stream {m} reported twice");
            }
        }
        assert!(rects[0].members.contains(&1));
    }
}
