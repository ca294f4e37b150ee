//! Max-subsegment segment tree: the DGM-style inner kernel of the
//! rectangle sweep.
//!
//! The `O(m^2 log m)` bichromatic-discrepancy algorithm of Dobkin,
//! Gunopulos & Maass replaces the per-x-pair Kadane re-scan of the
//! y-buckets with a segment tree over the compressed y-coordinates. Every
//! node maintains, for its leaf range, the weight `total`, the best
//! (non-empty) `prefix` sum, the best `suffix` sum, and the best subsegment
//! sum `best` — so a point-weight *add* costs `O(log m)` node
//! recombinations and the best achievable y-interval sum over the current
//! column range is read off the root in `O(1)`.
//!
//! The nodes deliberately do **not** track which leaf interval achieves
//! `best`: dropping the argmax bookkeeping keeps a node at four `f64`s and
//! every combine branch-free (three adds, four `max`es), which is what
//! makes the tree kernel beat the cache-friendly Kadane sweep in practice
//! and not just asymptotically. The caller ([`crate::RectWorkspace`])
//! remembers the winning column pair and recovers the y-interval with one
//! `O(m)` Kadane pass at the end of the sweep.
//!
//! The tree is an arena of `2 * m.next_power_of_two()` nodes that is built
//! once per workspace and *reset* (an `O(m)` memcpy from a precomputed
//! zero template) at the start of every anchored sweep, so the
//! sweep performs no per-iteration allocation.
//!
//! Masked points (`-inf` weight, Algorithm 1 of the paper) need no special
//! casing: a `-inf` add poisons its bucket, every aggregate containing the
//! bucket becomes `-inf`, and as long as no `+inf` weight enters the tree
//! (debug-asserted by [`crate::WPoint`]'s constructor; a `+inf` smuggled
//! in through the public fields in a release build is the caller's bug),
//! no `inf - inf = NaN` can arise.

/// Aggregates of a leaf range. `prefix`/`suffix`/`best` are over
/// *non-empty* leaf sub-ranges.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Sum of all leaf values in the range.
    total: f64,
    /// Best sum of a non-empty prefix of the range.
    prefix: f64,
    /// Best sum of a non-empty suffix of the range.
    suffix: f64,
    /// Best sum of a non-empty contiguous sub-range.
    best: f64,
}

impl Node {
    /// A leaf holding value `v`.
    fn leaf(v: f64) -> Self {
        Node {
            total: v,
            prefix: v,
            suffix: v,
            best: v,
        }
    }

    /// The identity of the combine operation: a vacant padding slot that
    /// contributes no weight and whose (non-existent) segments never win.
    fn identity() -> Self {
        Node {
            total: 0.0,
            prefix: f64::NEG_INFINITY,
            suffix: f64::NEG_INFINITY,
            best: f64::NEG_INFINITY,
        }
    }

    /// Combines the aggregates of two adjacent ranges (`l` left of `r`).
    /// Branch-free: `f64::max` lowers to a max instruction, not a jump.
    #[inline]
    fn combine(l: Node, r: Node) -> Self {
        Node {
            total: l.total + r.total,
            prefix: (l.total + r.prefix).max(l.prefix),
            suffix: (r.total + l.suffix).max(r.suffix),
            best: (l.suffix + r.prefix).max(l.best).max(r.best),
        }
    }
}

/// Segment tree over `m` weight buckets supporting `O(log m)` point-weight
/// adds and an `O(1)` root query for the maximum bucket-interval sum.
#[derive(Debug, Clone)]
pub(crate) struct MaxSegTree {
    /// Number of real leaves (weight buckets).
    n: usize,
    /// Power-of-two leaf capacity; leaves live at `nodes[size..size + n]`.
    size: usize,
    /// 1-indexed implicit binary tree, `nodes[1]` is the root.
    nodes: Vec<Node>,
    /// Precomputed all-zero tree for O(m) resets.
    zero: Vec<Node>,
}

impl MaxSegTree {
    /// Creates a tree over `n` buckets, all holding weight `0.0`.
    pub(crate) fn new(n: usize) -> Self {
        let size = n.next_power_of_two().max(1);
        let mut zero = vec![Node::identity(); 2 * size];
        for slot in zero.iter_mut().skip(size).take(n) {
            *slot = Node::leaf(0.0);
        }
        for i in (1..size).rev() {
            zero[i] = Node::combine(zero[2 * i], zero[2 * i + 1]);
        }
        Self {
            n,
            size,
            nodes: zero.clone(),
            zero,
        }
    }

    /// Resets every bucket to weight `0.0` without reallocating.
    pub(crate) fn reset(&mut self) {
        self.nodes.copy_from_slice(&self.zero);
    }

    /// Adds `w` to bucket `leaf` and recombines the `O(log m)` ancestors.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `leaf >= self.len()`.
    #[inline]
    pub(crate) fn add(&mut self, leaf: usize, w: f64) {
        debug_assert!(leaf < self.n, "bucket {leaf} out of range (len {})", self.n);
        let nodes = &mut self.nodes[..];
        let mut i = self.size + leaf;
        // Carry the updated node up in a register: each level loads only
        // the sibling and stores the recombined parent, instead of
        // re-loading the freshly written child through the store buffer.
        let mut cur = Node::leaf(nodes[i].total + w);
        nodes[i] = cur;
        while i > 1 {
            let sib = nodes[i ^ 1];
            cur = if i & 1 == 0 {
                Node::combine(cur, sib)
            } else {
                Node::combine(sib, cur)
            };
            i /= 2;
            nodes[i] = cur;
        }
    }

    /// The maximum sum of any non-empty bucket interval, or `None` when
    /// the tree has no buckets. The achieving interval is intentionally
    /// not tracked (see the module docs); recover it with one linear
    /// Kadane pass over the bucket values when needed.
    #[inline]
    pub(crate) fn best(&self) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        Some(self.nodes[1].best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force best non-empty subsegment sum of `values`.
    fn brute(values: &[f64]) -> f64 {
        let mut best = f64::NEG_INFINITY;
        for s in 0..values.len() {
            let mut sum = 0.0;
            for &v in &values[s..] {
                sum += v;
                best = best.max(sum);
            }
        }
        best
    }

    fn tree_of(values: &[f64]) -> MaxSegTree {
        let mut tree = MaxSegTree::new(values.len());
        for (i, &v) in values.iter().enumerate() {
            tree.add(i, v);
        }
        tree
    }

    #[test]
    fn max_seg_tree_doc_example() {
        let mut tree = MaxSegTree::new(4);
        tree.add(0, 2.0);
        tree.add(1, -5.0);
        tree.add(2, 3.0);
        tree.add(3, 1.0);
        // Best interval is buckets 2..=3 with sum 4.0.
        assert_eq!(tree.best(), Some(4.0));
    }

    #[test]
    fn empty_tree_has_no_best() {
        assert!(MaxSegTree::new(0).best().is_none());
    }

    #[test]
    fn fresh_tree_is_all_zero() {
        let tree = MaxSegTree::new(5);
        assert_eq!(tree.best(), Some(0.0));
    }

    #[test]
    fn single_bucket() {
        assert_eq!(tree_of(&[3.5]).best(), Some(3.5));
        assert_eq!(tree_of(&[-2.0]).best(), Some(-2.0));
    }

    #[test]
    fn matches_brute_force_on_fixed_sequences() {
        let cases: Vec<Vec<f64>> = vec![
            vec![2.0, -5.0, 3.0, 1.0],
            vec![-1.0, -2.0, -3.0],
            vec![1.0, 1.0, 1.0, 1.0, 1.0],
            vec![5.0, -1.0, -1.0, 5.0],
            vec![0.0, 0.0, 2.0, 0.0, -1.0, 3.0],
            vec![-2.0, 7.0],
        ];
        for values in cases {
            assert_eq!(tree_of(&values).best(), Some(brute(&values)), "{values:?}");
        }
    }

    #[test]
    fn matches_brute_force_on_pseudorandom_sequences() {
        // Deterministic LCG so the crate needs no rand dependency.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 6.0 - 3.0
        };
        for n in [1usize, 2, 3, 7, 8, 9, 31, 64, 100] {
            let values: Vec<f64> = (0..n).map(|_| next()).collect();
            let tree_best = tree_of(&values).best().unwrap();
            assert!(
                (tree_best - brute(&values)).abs() < 1e-9,
                "n={n}: {tree_best} vs {}",
                brute(&values)
            );
        }
    }

    #[test]
    fn incremental_adds_accumulate() {
        let mut tree = MaxSegTree::new(3);
        tree.add(1, 2.0);
        tree.add(1, 3.0);
        assert_eq!(tree.best(), Some(5.0));
        tree.add(0, 1.0);
        tree.add(2, 1.0);
        assert_eq!(tree.best(), Some(7.0));
    }

    #[test]
    fn neg_inf_poisons_its_bucket_only() {
        // Bridging over the poisoned bucket is -inf; the best stays single.
        assert_eq!(tree_of(&[4.0, f64::NEG_INFINITY, 6.0]).best(), Some(6.0));
        let all_poison = tree_of(&[f64::NEG_INFINITY, f64::NEG_INFINITY]);
        let best = all_poison.best().unwrap();
        assert_eq!(best, f64::NEG_INFINITY);
        assert!(!best.is_nan());
    }

    #[test]
    fn reset_restores_zero_state() {
        let mut tree = tree_of(&[1.0, -2.0, f64::NEG_INFINITY, 3.0]);
        tree.reset();
        assert_eq!(tree.best(), Some(0.0));
        tree.add(3, 2.5);
        assert_eq!(tree.best(), Some(2.5));
    }

    #[test]
    fn non_power_of_two_padding_never_wins() {
        // n = 5 pads to 8; the padding slots must not surface in the root.
        assert_eq!(tree_of(&[-1.0, -1.0, -1.0, -1.0, -0.5]).best(), Some(-0.5));
    }
}
