//! Micro-benchmark: maximum-weight rectangle kernels and R-Bursty — the
//! spatial discrepancy module behind every STLocal snapshot.
//!
//! `tree` (the `O(m^2 log m)` DGM max-subsegment-tree kernel) is compared
//! against `sweep` (the `O(m^3)` Kadane re-scan) at sizes where the
//! asymptotic gap is visible, plus the incremental vs from-scratch R-Bursty
//! extraction loops. The
//! `bench_maxrect` binary runs the same comparison headlessly and writes
//! `BENCH_maxrect.json`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stb_discrepancy::{max_weight_rect_with, RBursty, RectKernel, WPoint};

fn points(n: usize, seed: u64) -> Vec<WPoint> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            WPoint::new(
                rng.gen_range(0.0..1000.0),
                rng.gen_range(0.0..1000.0),
                rng.gen_range(-1.0..1.5),
            )
        })
        .collect()
}

fn bench_max_rect(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_rect");
    for &n in &[64usize, 256, 1024] {
        let pts = points(n, 7);
        group.bench_with_input(BenchmarkId::new("tree", n), &pts, |b, pts| {
            b.iter(|| black_box(max_weight_rect_with(pts, RectKernel::Tree)))
        });
        group.bench_with_input(BenchmarkId::new("sweep", n), &pts, |b, pts| {
            b.iter(|| black_box(max_weight_rect_with(pts, RectKernel::Sweep)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("rbursty");
    for &n in &[64usize, 181] {
        let pts = points(n, 7);
        group.bench_with_input(BenchmarkId::new("incremental", n), &pts, |b, pts| {
            b.iter(|| black_box(RBursty::new().find(pts)))
        });
        group.bench_with_input(BenchmarkId::new("from_scratch", n), &pts, |b, pts| {
            b.iter(|| black_box(RBursty::new().find_from_scratch(pts)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_max_rect);
criterion_main!(benches);
