//! Microbenchmarks for the tensor substrate: the matmul variants that
//! dominate RNN training time.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use etsb_tensor::{init, Matrix};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for &n in &[16usize, 64, 128] {
        let mut rng = init::seeded_rng(1);
        let a = init::glorot_uniform(n, n, &mut rng);
        let b = init::glorot_uniform(n, n, &mut rng);
        group.bench_with_input(BenchmarkId::new("plain", n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul(&b)))
        });
        group.bench_with_input(BenchmarkId::new("a_bT", n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul_transposed(&b)))
        });
        group.bench_with_input(BenchmarkId::new("aT_b", n), &n, |bench, _| {
            bench.iter(|| black_box(a.transposed_matmul(&b)))
        });
    }
    group.finish();
}

fn bench_vec_kernels(c: &mut Criterion) {
    let mut rng = init::seeded_rng(2);
    let m = init::glorot_uniform(64, 64, &mut rng);
    let v: Vec<f32> = (0..64).map(|i| (i as f32 * 0.1).sin()).collect();
    c.bench_function("vecmat_64", |b| {
        b.iter(|| black_box(m.vecmat(black_box(&v))))
    });
    c.bench_function("matvec_64", |b| {
        b.iter(|| black_box(m.matvec(black_box(&v))))
    });
    let mut grad = Matrix::zeros(64, 64);
    c.bench_function("add_outer_64", |b| {
        b.iter(|| {
            grad.add_outer(1.0, black_box(&v), black_box(&v));
        })
    });
    let mut x: Vec<f32> = (0..128).map(|i| i as f32 * 0.01 - 0.5).collect();
    c.bench_function("softmax_128", |b| {
        b.iter(|| {
            let mut y = x.clone();
            etsb_tensor::softmax_inplace(&mut y);
            black_box(y)
        })
    });
    c.bench_function("tanh_128", |b| {
        b.iter(|| {
            etsb_tensor::simd::tanh_exact(black_box(&mut x));
        })
    });
}

criterion_group!(benches, bench_matmul, bench_vec_kernels);
criterion_main!(benches);
