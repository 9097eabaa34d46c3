//! FIG4 bench: the scatter-plot's Pareto computation over growing point
//! sets in 3 dimensions — the batch block-nested-loop reference vs. the
//! incremental `SkylineSet` the planner feeds one point at a time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use poiesis::{pareto_skyline_bnl, SkylineSet};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn points(n: usize, dims: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..dims).map(|_| rng.gen_range(50.0..200.0)).collect())
        .collect()
}

fn bench_fig4(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4_skyline");
    for n in [200usize, 1_000, 5_000] {
        let pts = points(n, 3, 42);
        g.bench_with_input(BenchmarkId::new("bnl", n), &pts, |b, pts| {
            b.iter(|| black_box(pareto_skyline_bnl(black_box(pts))))
        });
        g.bench_with_input(BenchmarkId::new("skyline_set_insert", n), &pts, |b, pts| {
            b.iter(|| {
                let mut s = SkylineSet::new();
                for (i, p) in pts.iter().enumerate() {
                    black_box(s.insert(i, p.clone()));
                }
                black_box(s.len())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
