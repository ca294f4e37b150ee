//! Kernel-scaling harness for the maximum-weight rectangle search.
//!
//! Runs every rectangle kernel on the same random point sets at
//! `m ∈ {64, 256, 1024}` in two shapes — `dense` (60 % of the points
//! positive, the tree kernel's unfavourable case) and `sparse` (3 %
//! positive, the rest slightly negative: what a mined snapshot looks like,
//! where every stream that ever mentioned the term sits just below zero
//! while it is silent) — checks that the exact kernels agree on the
//! optimal score and, on the sparse shape, on the rectangle, prints a
//! comparison table per shape, and writes `BENCH_maxrect.json` with
//! per-kernel nanoseconds and the tree-vs-sweep speedup. Timings are
//! reported, not gated. The default (quick) mode times a couple of
//! repetitions so CI can exercise the perf path cheaply; pass `--full` for
//! more repetitions and `--seed <n>` to vary the workload.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stb_bench::{ExperimentCtx, TableWriter};
use stb_discrepancy::{max_weight_rect_naive, max_weight_rect_with, MaxRect, RectKernel, WPoint};
use std::time::Instant;

/// Sizes the issue pins for the scaling comparison.
const SIZES: [usize; 3] = [64, 256, 1024];
/// The naive `O(m^5)` oracle is only affordable at the smallest size.
const NAIVE_CAP: usize = 64;

/// Weight distribution of a generated point set.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// Weights `U(−1, 1.5)`: 60 % of the points are positive.
    Dense,
    /// 3 % of the points `+U(0.5, 2)`, the rest `−U(0.01, 0.3)`.
    Sparse,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Dense => "dense",
            Shape::Sparse => "sparse",
        }
    }

    fn weight(self, rng: &mut StdRng) -> f64 {
        match self {
            Shape::Dense => rng.gen_range(-1.0..1.5),
            Shape::Sparse if rng.gen_bool(0.03) => rng.gen_range(0.5..2.0),
            Shape::Sparse => -rng.gen_range(0.01..0.3),
        }
    }
}

fn points(shape: Shape, n: usize, seed: u64) -> Vec<WPoint> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            WPoint::new(
                rng.gen_range(0.0..1000.0),
                rng.gen_range(0.0..1000.0),
                shape.weight(&mut rng),
            )
        })
        .collect()
}

/// Best-of-`reps` wall-clock nanoseconds of `f`, with one warmup run.
/// Returns the timing and the last result for score cross-checking.
fn time_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> (u128, T) {
    let mut out = f();
    let mut best = u128::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        out = f();
        best = best.min(start.elapsed().as_nanos());
    }
    (best, out)
}

/// One size's measurements, in nanoseconds per invocation.
struct SizeResult {
    m: usize,
    tree_ns: u128,
    sweep_ns: u128,
    naive_ns: Option<u128>,
}

impl SizeResult {
    fn speedup(&self) -> f64 {
        self.sweep_ns as f64 / self.tree_ns.max(1) as f64
    }
}

fn score_of(r: &Option<MaxRect>) -> f64 {
    r.as_ref().map(|m| m.score).unwrap_or(0.0)
}

fn run_size(shape: Shape, m: usize, seed: u64, reps: usize) -> SizeResult {
    let pts = points(shape, m, seed);
    let (tree_ns, tree) = time_ns(reps, || max_weight_rect_with(&pts, RectKernel::Tree));
    let (sweep_ns, sweep) = time_ns(reps, || max_weight_rect_with(&pts, RectKernel::Sweep));
    let naive_ns = (m <= NAIVE_CAP).then(|| {
        let (ns, naive) = time_ns(1, || max_weight_rect_naive(&pts));
        assert!(
            (score_of(&tree) - score_of(&naive)).abs() < 1e-6,
            "tree kernel disagrees with the naive oracle at {} m={m}",
            shape.name()
        );
        ns
    });
    assert!(
        (score_of(&tree) - score_of(&sweep)).abs() < 1e-6,
        "exact kernels disagree at {} m={m}: tree {} vs sweep {}",
        shape.name(),
        score_of(&tree),
        score_of(&sweep)
    );
    if shape == Shape::Sparse {
        // The shape the miners see: which maximizer is reported decides a
        // region's members, so the kernels must agree on it too.
        assert_eq!(
            tree.as_ref().map(|r| (&r.rect, &r.members)),
            sweep.as_ref().map(|r| (&r.rect, &r.members)),
            "exact kernels report different rectangles at sparse m={m}"
        );
    }
    SizeResult {
        m,
        tree_ns,
        sweep_ns,
        naive_ns,
    }
}

fn render_json(ctx: &ExperimentCtx, blocks: &[(Shape, Vec<SizeResult>)]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"maxrect_kernels\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if ctx.full { "full" } else { "quick" }
    ));
    out.push_str(&format!("  \"seed\": {},\n", ctx.seed));
    for (b, (shape, results)) in blocks.iter().enumerate() {
        out.push_str(&format!("  \"{}\": [\n", shape.name()));
        for (i, r) in results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"m\": {}, \"tree_ns\": {}, \"sweep_ns\": {}, \
                 \"naive_ns\": {}, \"speedup_tree_vs_sweep\": {:.2}}}{}\n",
                r.m,
                r.tree_ns,
                r.sweep_ns,
                r.naive_ns
                    .map(|ns| ns.to_string())
                    .unwrap_or_else(|| "null".to_string()),
                r.speedup(),
                if i + 1 < results.len() { "," } else { "" }
            ));
        }
        out.push_str(if b + 1 < blocks.len() {
            "  ],\n"
        } else {
            "  ]\n"
        });
    }
    out.push_str("}\n");
    out
}

fn main() {
    let ctx = ExperimentCtx::from_args();
    let reps = if ctx.full { 7 } else { 2 };
    println!(
        "max-rect kernel scaling (mode: {}, seed {}, best of {reps})",
        if ctx.full { "full" } else { "quick" },
        ctx.seed
    );

    let blocks: Vec<(Shape, Vec<SizeResult>)> = [Shape::Dense, Shape::Sparse]
        .into_iter()
        .map(|shape| {
            let results = SIZES
                .iter()
                .map(|&m| run_size(shape, m, ctx.seed, reps))
                .collect();
            (shape, results)
        })
        .collect();

    for (shape, results) in &blocks {
        let mut table = TableWriter::new(&format!(
            "max_weight_rect kernels, {} points: ns per call",
            shape.name()
        ));
        table.header(["m", "tree", "sweep", "naive", "tree vs sweep"]);
        for r in results {
            table.row([
                r.m.to_string(),
                r.tree_ns.to_string(),
                r.sweep_ns.to_string(),
                r.naive_ns
                    .map(|ns| ns.to_string())
                    .unwrap_or_else(|| "-".to_string()),
                format!("{:.2}x", r.speedup()),
            ]);
        }
        println!("{}", table.render());
    }

    let json = render_json(&ctx, &blocks);
    let path = "BENCH_maxrect.json";
    std::fs::write(path, &json).expect("write BENCH_maxrect.json");
    println!("wrote {path}");
}
