//! Bitwise contract of the Exact tier across backends: every dispatched
//! exact kernel must give the same bits on `Backend::Portable` and, where
//! the CPU has it, `Backend::Avx2` — the AVX2 path is the same body
//! compiled with wider registers, never a different operation order.
//! The exact tanh is pinned twice more: its AVX2 lanes against the
//! scalar port, and the scalar port against a golden hash of glibc's
//! `tanhf` that holds on any host.
//!
//! The golden tests go through [`active_backend`], so running this file
//! under `ETSB_KERNELS=portable` checks the scalar fallback against the
//! same pins.

use etsb_tensor::init::seeded_rng;
use etsb_tensor::simd::{
    active_backend, add_transposed_matmul_blocked_exact_with, matmul_transposed_exact_with,
    matmul_window_exact_with, tanh_exact, tanh_exact_with, Backend,
};
use etsb_tensor::Matrix;
use rand::Rng;

/// The AVX2 backend where this CPU supports it (the only backend the
/// portable one can be compared with here).
fn native() -> Option<Backend> {
    #[cfg(target_arch = "x86_64")]
    {
        // etsb: allow(fast-math-confinement) -- the dispatch test names the CPU feature gate.
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Some(Backend::Avx2);
        }
    }
    None
}

/// Random matrix with exact zeros laced in (every fifth element, plus
/// whole zero rows), so the kernels' zero-skip paths and their
/// all-nonzero fused paths both run.
fn messy(rng: &mut impl Rng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        if (i * cols + j).is_multiple_of(5) || i % 7 == 6 {
            0.0
        } else {
            rng.gen_range(-1.0..1.0)
        }
    })
}

/// Dense random matrix: no zeros, so the fully fused branches run.
fn dense(rng: &mut impl Rng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Shapes mixing odd widths, the 16-column block of the fused
/// four-row sweep, 8-wide `dot` chunks with tails, and row counts with
/// `count % 4 != 0`.
const SHAPES: [(usize, usize, usize); 7] = [
    (1, 1, 1),
    (3, 5, 7),
    (9, 17, 33),
    (13, 64, 64),
    (7, 86, 65),
    (22, 8, 16),
    (6, 129, 3),
];

#[test]
fn exact_products_are_bitwise_identical_across_backends() {
    let Some(native) = native() else {
        return;
    };
    let mut rng = seeded_rng(101);
    for (rows, inner, cols) in SHAPES {
        for (a, b) in [
            (messy(&mut rng, rows, inner), messy(&mut rng, inner, cols)),
            (dense(&mut rng, rows, inner), dense(&mut rng, inner, cols)),
        ] {
            // Row windows: the whole matrix, a shifted window with a
            // `count % 4` tail, and a single row.
            for (start, count) in [(0, rows), (rows / 3, rows - rows / 3), (rows - 1, 1)] {
                let mut p = Matrix::default();
                let mut n = Matrix::default();
                matmul_window_exact_with(Backend::Portable, &a, start, count, &b, &mut p);
                matmul_window_exact_with(native, &a, start, count, &b, &mut n);
                assert_eq!(
                    bits(p.as_slice()),
                    bits(n.as_slice()),
                    "matmul window {start}+{count} of {rows}x{inner}x{cols} diverged"
                );
            }

            let bt = b.transpose();
            let mut p = Matrix::default();
            let mut n = Matrix::default();
            matmul_transposed_exact_with(Backend::Portable, &a, &bt, &mut p);
            matmul_transposed_exact_with(native, &a, &bt, &mut n);
            assert_eq!(
                bits(p.as_slice()),
                bits(n.as_slice()),
                "matmul_transposed {rows}x{inner}x{cols} diverged"
            );

            // Weight-gradient accumulation over shifted row windows of
            // two matrices that share a row count, into a non-zero
            // accumulator.
            let x = messy(&mut rng, inner, rows);
            let y = dense(&mut rng, inner, cols);
            for (a_start, b_start, count) in [(0, 0, inner), (0, 1, inner - 1), (1, 0, inner / 2)] {
                let seed = dense(&mut rng, rows, cols);
                let mut p = seed.clone();
                let mut n = seed;
                let mut scratch = Matrix::default();
                add_transposed_matmul_blocked_exact_with(
                    Backend::Portable,
                    &mut p,
                    &x,
                    a_start,
                    &y,
                    b_start,
                    count,
                    &mut scratch,
                );
                add_transposed_matmul_blocked_exact_with(
                    native,
                    &mut n,
                    &x,
                    a_start,
                    &y,
                    b_start,
                    count,
                    &mut scratch,
                );
                assert_eq!(
                    bits(p.as_slice()),
                    bits(n.as_slice()),
                    "add_transposed_matmul_blocked {a_start}/{b_start}+{count} on {rows}x{cols} diverged"
                );
            }
        }
    }
}

#[test]
fn matrix_products_run_the_dispatched_exact_kernels() {
    // The public `Matrix` methods are the dispatchers on the active
    // backend; whatever that backend is, they must match the portable
    // body bit for bit.
    let mut rng = seeded_rng(102);
    let a = messy(&mut rng, 11, 37);
    let b = dense(&mut rng, 37, 21);
    let mut want = Matrix::default();
    matmul_window_exact_with(Backend::Portable, &a, 0, 11, &b, &mut want);
    assert_eq!(bits(a.matmul(&b).as_slice()), bits(want.as_slice()));
    let mut got = Matrix::default();
    a.matmul_window_into(3, 5, &b, &mut got);
    matmul_window_exact_with(Backend::Portable, &a, 3, 5, &b, &mut want);
    assert_eq!(bits(got.as_slice()), bits(want.as_slice()));
    let bt = b.transpose();
    matmul_transposed_exact_with(Backend::Portable, &a, &bt, &mut want);
    assert_eq!(
        bits(a.matmul_transposed(&bt).as_slice()),
        bits(want.as_slice())
    );
}

/// Inputs at and around every branch boundary of fdlibm's `tanhf` and
/// of the `expm1f` arguments it produces, plus the IEEE special values.
fn tanh_edge_inputs() -> Vec<f32> {
    let mut bounds: Vec<u32> = vec![
        0,
        1,
        0x007f_ffff, // largest subnormal
        0x0080_0000, // smallest normal
        0x2400_0000, // |x| = 2^-55: tiny branch
        0x3280_0000, // expm1 argument 2^-25 after doubling
        0x3e31_7218, // expm1 argument 0.5 ln 2 after doubling
        0x3f05_1592, // expm1 argument 1.5 ln 2 after doubling
        0x3f80_0000, // |x| = 1: branch switch
        0x41b0_0000, // |x| = 22: saturation
        0x7f7f_ffff, // largest finite
    ];
    bounds.extend(
        bounds
            .clone()
            .iter()
            .flat_map(|&b| [b.wrapping_sub(1), b + 1]),
    );
    let mut xs: Vec<f32> = bounds
        .iter()
        .flat_map(|&b| [f32::from_bits(b), -f32::from_bits(b)])
        .collect();
    xs.extend([f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN]);
    xs
}

/// Compare element by element; NaN inputs need only yield a NaN (IEEE
/// leaves the payload of a propagated NaN to the hardware).
fn assert_same_tanh(xs: &[f32], got: &[f32], want: &[f32], what: &str) {
    for ((&x, &g), &w) in xs.iter().zip(got).zip(want) {
        if x.is_nan() {
            assert!(g.is_nan() && w.is_nan(), "{what}: tanh(NaN) = {g} / {w}");
        } else {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: tanh({x:e} = {:#010x}) gave {g:e} vs {w:e}",
                x.to_bits()
            );
        }
    }
}

#[test]
fn tanh_exact_lanes_match_the_scalar_port() {
    let Some(native) = native() else {
        return;
    };
    let mut xs = tanh_edge_inputs();
    // Dense sweep: every 2^12-th bit pattern covers all exponents of
    // both signs, 2^20 inputs in all.
    xs.extend(
        (0..1u64 << 32)
            .step_by(1 << 12)
            .map(|b| f32::from_bits(b as u32)),
    );
    let mut p = xs.clone();
    let mut n = xs.clone();
    tanh_exact_with(Backend::Portable, &mut p);
    tanh_exact_with(native, &mut n);
    assert_same_tanh(&xs, &n, &p, "avx2 lanes vs scalar port");

    // Slice tails of 1..=7 behind 0..=2 full registers.
    let edges = tanh_edge_inputs();
    for full in 0..3 {
        for tail in 1..8 {
            let len = full * 8 + tail;
            let xs: Vec<f32> = edges.iter().cycle().skip(tail).take(len).copied().collect();
            let mut p = xs.clone();
            let mut n = xs.clone();
            tanh_exact_with(Backend::Portable, &mut p);
            tanh_exact_with(native, &mut n);
            assert_same_tanh(&xs, &n, &p, &format!("slice of {len}"));
        }
    }
}

/// FNV-1a-style fold of `tanh_exact` over every 4096th f32 bit pattern,
/// NaN inputs skipped.
fn golden_tanh_hash() -> (u64, usize) {
    let xs: Vec<f32> = (0..1u64 << 32)
        .step_by(1 << 12)
        .map(|b| f32::from_bits(b as u32))
        .filter(|x| !x.is_nan())
        .collect();
    let mut ys = xs.clone();
    tanh_exact(&mut ys);
    let h = ys.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, y| {
        (h ^ u64::from(y.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (h, xs.len())
}

#[test]
fn tanh_exact_matches_the_golden_glibc_hash() {
    // The value glibc 2.36's `tanhf` (fdlibm) produces on these inputs:
    // pinned here so the Exact tier's bits stay the same on every host
    // and backend, whatever that host's libm does.
    let (h, n) = golden_tanh_hash();
    assert_eq!(n, 1_044_482);
    assert_eq!(
        h,
        0x7f04_f9fe_0dee_fa81,
        "tanh_exact drifted from the golden bits on the {} backend",
        active_backend().name()
    );
}

/// Exhaustive: `tanh_exact` against the host's `f32::tanh` on all 2^32
/// inputs. Holds only where libm's `tanhf` is fdlibm's (glibc); musl and
/// macOS ship different implementations, whose bits the golden hash
/// above deliberately does not follow. Run with
/// `cargo test --release -p etsb-tensor --test exact_dispatch -- --ignored`.
#[test]
#[ignore = "2^32 inputs; meaningful only on a glibc host"]
fn tanh_exact_equals_glibc_tanhf_on_every_input() {
    let threads = 2u64;
    let span = (1u64 << 32) / threads;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            std::thread::spawn(move || {
                let mut buf = vec![0.0f32; 1 << 16];
                let mut mismatches = 0u64;
                for block in (t * span..(t + 1) * span).step_by(buf.len()) {
                    for (i, x) in buf.iter_mut().enumerate() {
                        *x = f32::from_bits((block + i as u64) as u32);
                    }
                    let xs = buf.clone();
                    tanh_exact(&mut buf);
                    for (x, y) in xs.iter().zip(&buf) {
                        let want = x.tanh();
                        if y.to_bits() != want.to_bits() && !(y.is_nan() && want.is_nan()) {
                            mismatches += 1;
                        }
                    }
                }
                mismatches
            })
        })
        .collect();
    let mismatches: u64 = handles
        .into_iter()
        .map(|h| h.join().unwrap_or(u64::MAX))
        .sum();
    assert_eq!(mismatches, 0, "tanh_exact differs from f32::tanh");
}
