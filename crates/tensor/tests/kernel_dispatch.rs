//! Forced-fallback dispatch: `ETSB_KERNELS=portable` must pin the
//! portable FastMath backend even on an AVX2+FMA host, and the results
//! routed through the policy dispatch must be bitwise identical to the
//! explicit portable kernels — and, where the host supports it, to the
//! AVX2 kernels too. This is how CI on a non-AVX2 machine still
//! exercises the dispatch layer both ways.
//!
//! The whole file is one test: [`etsb_tensor::simd::active_backend`]
//! resolves the override once per process through a `OnceLock`, so the
//! environment must be set before any other test could touch it.

use etsb_tensor::init::seeded_rng;
use etsb_tensor::simd::{
    active_backend, matmul_window_fast_with, tanh_fast, tanh_fast_with, Backend,
};
use etsb_tensor::{KernelPolicy, Matrix};
use rand::Rng;

#[test]
fn etsb_kernels_portable_forces_the_fallback_dispatch() {
    // Must happen before the first `active_backend` call in this
    // process; the OnceLock then pins the portable backend for good.
    std::env::set_var("ETSB_KERNELS", "portable");
    assert_eq!(
        active_backend(),
        Backend::Portable,
        "ETSB_KERNELS=portable did not mask the detected backend"
    );

    let mut rng = seeded_rng(7);
    let a = Matrix::from_fn(9, 86, |_, _| rng.gen_range(-1.0..1.0));
    let b = Matrix::from_fn(86, 64, |_, _| rng.gen_range(-1.0..1.0));

    // The policy dispatch now routes FastMath to the portable kernels.
    let mut via_policy = Matrix::default();
    a.matmul_window_policy_into(0, 9, &b, &mut via_policy, KernelPolicy::FastMath);
    let mut portable = Matrix::default();
    matmul_window_fast_with(Backend::Portable, &a, 0, 9, &b, &mut portable);
    assert_eq!(
        via_policy.as_slice(),
        portable.as_slice(),
        "policy dispatch under ETSB_KERNELS=portable diverged from the portable kernel"
    );

    // The elementwise FastMath tanh routes through the same masked
    // backend: the implicit-dispatch entry point must match the
    // explicit portable kernel bit for bit.
    let xs: Vec<f32> = (0..37).map(|_| rng.gen_range(-6.0..6.0)).collect();
    let mut via_dispatch = xs.clone();
    tanh_fast(&mut via_dispatch);
    let mut portable_tanh = xs;
    tanh_fast_with(Backend::Portable, &mut portable_tanh);
    for (i, (a, b)) in via_dispatch.iter().zip(&portable_tanh).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "fast tanh diverged at element {i}"
        );
    }

    // Where the host actually has AVX2+FMA, the masked portable results
    // must still be bitwise identical to what the native kernels would
    // have produced — masking changes nothing but the instruction set.
    #[cfg(target_arch = "x86_64")]
    {
        // etsb: allow(fast-math-confinement) -- the dispatch test names the CPU feature gate.
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        // etsb: allow(fast-math-confinement) -- the dispatch test names the CPU feature gate.
        let fma = std::arch::is_x86_feature_detected!("fma");
        if avx2 && fma {
            let mut native = Matrix::default();
            matmul_window_fast_with(Backend::Avx2, &a, 0, 9, &b, &mut native);
            assert_eq!(
                via_policy.as_slice(),
                native.as_slice(),
                "masked portable result diverged from the native AVX2 kernels"
            );
            let mut pre: Vec<f32> = (0..37).map(|_| rng.gen_range(-6.0..6.0)).collect();
            let mut pre_avx = pre.clone();
            tanh_fast_with(Backend::Portable, &mut pre);
            tanh_fast_with(Backend::Avx2, &mut pre_avx);
            for (i, (p, n)) in pre.iter().zip(&pre_avx).enumerate() {
                assert_eq!(
                    p.to_bits(),
                    n.to_bits(),
                    "portable vs AVX2 fast tanh diverged at element {i}"
                );
            }
        }
    }
}
