//! Runtime CPU dispatch for both kernel tiers, and the opt-in
//! `FastMath` tier itself.
//!
//! # The kernel-policy contract
//!
//! The exact kernels in `matrix.rs` / `ops.rs` pin a fixed ascending-k
//! mul-then-add reduction order — the bitwise-determinism contract the
//! whole training and reference-inference stack is built on. This module
//! dispatches them per CPU without changing a bit, and adds a second,
//! *opt-in* tier for batched inference only:
//!
//! * [`KernelPolicy::Exact`] (the default) keeps that operation order on
//!   every backend. Each exact product body exists once, as an
//!   `#[inline(always)]` method in `matrix.rs`; on `Backend::Avx2` a
//!   one-line `#[target_feature(enable = "avx2")]` shim in `x86.rs`
//!   compiles that same body with AVX2 enabled, so LLVM widens its
//!   independent per-column chains to 8 lanes. Without fast-math flags
//!   LLVM may neither reassociate a float add nor contract a
//!   mul-then-add (and `fma` is not enabled), so the two backends agree
//!   bit for bit. The exact tanh is [`tanh_exact`](crate::simd::tanh_exact), an in-repo port of
//!   fdlibm's `tanhf` (scalar on `Portable`, branch-free 8-lane on
//!   `Avx2`), bitwise equal to glibc's `f32::tanh`, so Exact `tanh` does
//!   not depend on the host libm. (The gate sigmoid, the softmax and the
//!   loss in the layers above still call the host's `expf`/`logf`.)
//! * [`KernelPolicy::FastMath`] routes the hot products through fused
//!   multiply-add kernels — a portable scalar [`f32::mul_add`] fallback
//!   and an x86-64 AVX2+FMA implementation selected by runtime CPU
//!   feature detection — and the elementwise tanh through a rational
//!   FMA approximation ([`tanh_fast`](crate::simd::tanh_fast), max abs
//!   error 2.4e-7).
//!
//! FastMath results are *not* bitwise comparable to Exact results (FMA
//! contracts the intermediate rounding step), but they are **backend
//! invariant**: the portable and AVX2 kernels compute the same chains of
//! IEEE-754 fused operations in the same order, so `FastMath` output is
//! bitwise identical across machines, backends and worker counts. The
//! two policies therefore form two internally-deterministic universes,
//! and response provenance records which one produced an answer.
//!
//! # Dispatch
//!
//! | policy    | backend                      | kernel                            |
//! |-----------|------------------------------|-----------------------------------|
//! | Exact     | `Backend::Portable`          | mul-then-add bodies (SSE2 baseline) + scalar fdlibm tanh |
//! | Exact     | `Backend::Avx2` (detected)   | the same bodies compiled for AVX2 + 8-lane fdlibm tanh |
//! | FastMath  | `Backend::Portable`          | scalar [`f32::mul_add`] products + rational tanh |
//! | FastMath  | `Backend::Avx2` (detected)   | AVX2 `_mm256_fmadd_ps` products + 8-lane rational tanh |
//!
//! One backend serves both tiers. It is chosen once per process by
//! [`is_x86_feature_detected!`](std::arch::is_x86_feature_detected)
//! (`avx2` *and* `fma`), overridable through the `ETSB_KERNELS`
//! environment variable: `portable` forces the scalar fallback (how CI
//! exercises both paths on any host), `native` (or unset) keeps the
//! detected backend. Unrecognized values fall back to detection — the
//! override can only *narrow* capability, never enable an instruction
//! set the host lacks.

use crate::Matrix;
use std::sync::OnceLock;

mod portable;
#[cfg(target_arch = "x86_64")]
mod x86;

/// Which numeric contract a kernel invocation must honour.
///
/// Threaded from `etsb_core`'s prediction entry points down through the
/// batched RNN forward paths. Training, backward and the allocating
/// per-sample oracle never accept a policy: they are always exact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum KernelPolicy {
    /// The bitwise-determinism contract: fixed ascending-k mul-then-add
    /// reduction order, identical across batch shapes and worker counts.
    #[default]
    Exact,
    /// Fused multiply-add kernels (portable scalar or AVX2+FMA),
    /// epsilon-close to `Exact` and bitwise identical across backends.
    FastMath,
}

impl KernelPolicy {
    /// Stable name used in provenance records and bench arm labels.
    pub fn name(self) -> &'static str {
        match self {
            KernelPolicy::Exact => "exact",
            KernelPolicy::FastMath => "fast-math",
        }
    }

    /// Elementwise tanh in place under this policy: [`tanh_exact`] or
    /// [`tanh_fast`].
    #[inline]
    pub fn tanh(self, xs: &mut [f32]) {
        match self {
            KernelPolicy::Exact => tanh_exact(xs),
            KernelPolicy::FastMath => tanh_fast(xs),
        }
    }
}

/// The kernel implementation in use, for both policies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Baseline-ISA kernels: scalar [`f32::mul_add`] FastMath chains and
    /// the exact bodies as compiled for the build target; compiled
    /// everywhere.
    Portable,
    /// AVX2 + FMA intrinsics (FastMath) and AVX2-compiled exact bodies;
    /// selected when the CPU supports both features.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Backend {
    /// Stable name used in diagnostics and tests.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => "avx2",
        }
    }
}

/// Runtime CPU-feature detection: AVX2 kernels require both `avx2`
/// (8-wide f32 vectors) and `fma` (`_mm256_fmadd_ps`).
fn detected_backend() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Backend::Avx2;
        }
    }
    Backend::Portable
}

/// Resolve the backend for a given `ETSB_KERNELS` value: `portable`
/// forces the scalar fallback, `native` / unset / unrecognized use
/// feature detection. The override can only narrow capability — there is
/// no way to force AVX2 on a host that lacks it, which is what keeps the
/// dispatch sound.
fn backend_for(env_override: Option<&str>) -> Backend {
    match env_override.map(str::trim) {
        Some("portable") => Backend::Portable,
        _ => detected_backend(),
    }
}

/// The kernel backend for this process (both tiers): detection plus the
/// `ETSB_KERNELS` override, resolved once and cached.
pub fn active_backend() -> Backend {
    static CACHE: OnceLock<Backend> = OnceLock::new();
    *CACHE.get_or_init(|| backend_for(std::env::var("ETSB_KERNELS").ok().as_deref()))
}

impl Matrix {
    /// Policy-dispatched [`Matrix::matmul_window_into`]:
    /// `self[row_start .. row_start+count] @ other` written into `out`.
    ///
    /// `Exact` delegates to the pinned scalar kernel unchanged.
    /// `FastMath` computes each output element as one ascending-k fused
    /// multiply-add chain from zero — bitwise identical between the
    /// portable and AVX2 backends (see the module docs), epsilon-close
    /// to the exact result.
    // Dispatching into the runtime-verified AVX2 kernels is the one
    // sanctioned unsafe_code opt-out outside `simd/x86.rs`.
    #[allow(unsafe_code, reason = "dispatch into runtime-verified AVX2 kernels")]
    pub fn matmul_window_policy_into(
        &self,
        row_start: usize,
        count: usize,
        other: &Matrix,
        out: &mut Matrix,
        policy: KernelPolicy,
    ) {
        assert_eq!(
            self.cols(),
            other.rows(),
            "matmul_window_policy_into: {}x{} @ {}x{} shape mismatch",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        assert!(
            row_start + count <= self.rows(),
            "matmul_window_policy_into: window {row_start}+{count} out of {} rows",
            self.rows()
        );
        match policy {
            KernelPolicy::Exact => self.matmul_window_into(row_start, count, other, out),
            KernelPolicy::FastMath => {
                out.resize_zeroed(count, other.cols());
                match active_backend() {
                    Backend::Portable => {
                        portable::matmul_window(self, row_start, count, other, out);
                    }
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: Backend::Avx2 is only ever produced by
                    // `detected_backend`, which verified the `avx2` and
                    // `fma` CPU features at runtime.
                    Backend::Avx2 => unsafe {
                        x86::matmul_window(self, row_start, count, other, out);
                    },
                }
                crate::sanitize::assert_finite(
                    "tensor",
                    "matmul_window_policy_into",
                    out.as_slice(),
                );
            }
        }
    }
}

/// Exact window product on an explicit backend: `out` reshaped to
/// `count x b.cols()` and filled with `a[row_start .. row_start+count]
/// @ b` by the one exact body, [`Matrix::matmul_window_into`]'s. The
/// `Matrix` product methods run it on [`active_backend`]; the bitwise
/// backend-equivalence tests call it with each backend.
// Dispatch into the AVX2 shims (see the policy methods).
#[allow(unsafe_code, reason = "dispatch into the AVX2 shims")]
pub fn matmul_window_exact_with(
    backend: Backend,
    a: &Matrix,
    row_start: usize,
    count: usize,
    b: &Matrix,
    out: &mut Matrix,
) {
    assert!(
        a.cols() == b.rows() && row_start + count <= a.rows(),
        "matmul_window_exact_with: window {row_start}+{count} of {}x{} @ {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    out.resize_zeroed(count, b.cols());
    match backend {
        Backend::Portable => a.matmul_window_kernel(row_start, count, b, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Backend::Avx2 values only exist on hosts where
        // `detected_backend` verified the `avx2` feature.
        Backend::Avx2 => unsafe { x86::exact_matmul_window(a, row_start, count, b, out) },
    }
}

/// Exact `a @ b.T` on an explicit backend, `out` reshaped to
/// `a.rows() x b.rows()` (the body of [`Matrix::matmul_transposed`]).
// Dispatch into the AVX2 shims (see the policy methods).
#[allow(unsafe_code, reason = "dispatch into the AVX2 shims")]
pub fn matmul_transposed_exact_with(backend: Backend, a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_transposed_exact_with: {}x{} @ ({}x{})^T",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    out.resize_zeroed(a.rows(), b.rows());
    match backend {
        Backend::Portable => a.matmul_transposed_kernel(b, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Backend::Avx2 values only exist on hosts where
        // `detected_backend` verified the `avx2` feature.
        Backend::Avx2 => unsafe { x86::exact_matmul_transposed(a, b, out) },
    }
}

/// Exact [`Matrix::add_transposed_matmul_blocked`] on an explicit
/// backend: `acc[i][j] += Σ_k a[a_start+k][i] · b[b_start+k][j]`.
#[allow(unsafe_code, reason = "dispatch into the AVX2 shims")]
#[allow(clippy::too_many_arguments, reason = "one argument per kernel operand")]
pub fn add_transposed_matmul_blocked_exact_with(
    backend: Backend,
    acc: &mut Matrix,
    a: &Matrix,
    a_start: usize,
    b: &Matrix,
    b_start: usize,
    count: usize,
    cols_scratch: &mut Matrix,
) {
    assert!(
        acc.shape() == (a.cols(), b.cols())
            && a_start + count <= a.rows()
            && b_start + count <= b.rows(),
        "add_transposed_matmul_blocked_exact_with: acc {:?} vs windows {a_start}/{b_start}+{count} of {}x{} / {}x{}",
        acc.shape(),
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    match backend {
        Backend::Portable => {
            acc.add_transposed_matmul_blocked_kernel(a, a_start, b, b_start, count, cols_scratch);
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Backend::Avx2 values only exist on hosts where
        // `detected_backend` verified the `avx2` feature.
        Backend::Avx2 => unsafe {
            x86::exact_add_transposed_matmul_blocked(
                acc,
                a,
                a_start,
                b,
                b_start,
                count,
                cols_scratch,
            );
        },
    }
}

/// Exact-tier elementwise tanh in place, on [`active_backend`]: an
/// in-repo port of fdlibm's `tanhf` (the one glibc ships), bitwise
/// equal to glibc's [`f32::tanh`] on every input and identical across
/// backends — every exact path calls this instead of the host libm.
pub fn tanh_exact(xs: &mut [f32]) {
    tanh_exact_with(active_backend(), xs);
}

/// Explicit-backend exact tanh, for the dispatch-correctness tests.
// Dispatch into runtime-verified AVX2 kernels (see the policy methods).
#[allow(unsafe_code, reason = "dispatch into runtime-verified AVX2 kernels")]
pub fn tanh_exact_with(backend: Backend, xs: &mut [f32]) {
    match backend {
        Backend::Portable => portable::tanh_exact_inplace(xs),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Backend::Avx2 values only exist on hosts where
        // `detected_backend` verified the `avx2` feature.
        Backend::Avx2 => unsafe { x86::tanh_exact_inplace(xs) },
    }
}

/// Explicit-backend window product, for the dispatch-correctness tests:
/// callers pick the backend instead of [`active_backend`]. Panics are
/// impossible for `Avx2` on a non-AVX2 host because the variant cannot
/// be constructed there (`cfg`-gated).
// Dispatch into runtime-verified AVX2 kernels (see the policy methods).
#[allow(unsafe_code, reason = "dispatch into runtime-verified AVX2 kernels")]
pub fn matmul_window_fast_with(
    backend: Backend,
    a: &Matrix,
    row_start: usize,
    count: usize,
    b: &Matrix,
    out: &mut Matrix,
) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul_window_fast_with: {}x{} @ {}x{} shape mismatch",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    assert!(
        row_start + count <= a.rows(),
        "matmul_window_fast_with: window {row_start}+{count} out of {} rows",
        a.rows()
    );
    out.resize_zeroed(count, b.cols());
    match backend {
        Backend::Portable => portable::matmul_window(a, row_start, count, b, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Backend::Avx2 values only exist on hosts where
        // `detected_backend` verified the `avx2` and `fma` features.
        Backend::Avx2 => unsafe { x86::matmul_window(a, row_start, count, b, out) },
    }
}

/// FastMath elementwise tanh in place, on [`active_backend`]: the
/// rational approximation `x·P(x²)/Q(x²)` evaluated as fused
/// multiply-add Horner chains — max abs error 2.4e-7 against
/// [`f32::tanh`], bitwise identical across backends (elementwise, so
/// there is no reduction order to preserve; both backends run the same
/// per-element IEEE-754 chain). The Exact tier never calls this: exact
/// paths use [`tanh_exact`].
pub fn tanh_fast(xs: &mut [f32]) {
    tanh_fast_with(active_backend(), xs);
    crate::sanitize::assert_finite("tensor", "tanh_fast", xs);
}

/// Explicit-backend FastMath tanh, for the dispatch-correctness tests.
// Dispatch into runtime-verified AVX2 kernels (see the policy methods).
#[allow(unsafe_code, reason = "dispatch into runtime-verified AVX2 kernels")]
pub fn tanh_fast_with(backend: Backend, xs: &mut [f32]) {
    match backend {
        Backend::Portable => portable::tanh_inplace(xs),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Backend::Avx2 values only exist on hosts where
        // `detected_backend` verified the `avx2` and `fma` features.
        Backend::Avx2 => unsafe { x86::tanh_inplace(xs) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
    use crate::ops::max_abs_diff;
    use rand::Rng;

    fn random_matrix(rng: &mut impl Rng, rows: usize, cols: usize) -> Matrix {
        // Lace in exact zeros so the exact kernels' zero-skip paths and
        // the fast kernels' no-skip contract are both exercised.
        Matrix::from_fn(rows, cols, |i, j| {
            if (i * cols + j).is_multiple_of(7) {
                0.0
            } else {
                rng.gen_range(-1.0..1.0)
            }
        })
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(KernelPolicy::Exact.name(), "exact");
        assert_eq!(KernelPolicy::FastMath.name(), "fast-math");
        assert_eq!(KernelPolicy::default(), KernelPolicy::Exact);
        assert_eq!(Backend::Portable.name(), "portable");
    }

    #[test]
    fn env_override_narrows_but_never_widens() {
        assert_eq!(backend_for(Some("portable")), Backend::Portable);
        assert_eq!(backend_for(Some(" portable ")), Backend::Portable);
        assert_eq!(backend_for(Some("native")), detected_backend());
        assert_eq!(backend_for(None), detected_backend());
        // Unrecognized values fall back to detection.
        assert_eq!(backend_for(Some("quantum")), detected_backend());
    }

    #[test]
    fn exact_policy_is_bitwise_identical_to_the_exact_kernel() {
        let mut rng = seeded_rng(41);
        let a = random_matrix(&mut rng, 13, 9);
        let b = random_matrix(&mut rng, 9, 11);
        let mut exact = Matrix::default();
        let mut via_policy = Matrix::default();
        a.matmul_window_into(2, 7, &b, &mut exact);
        a.matmul_window_policy_into(2, 7, &b, &mut via_policy, KernelPolicy::Exact);
        assert_eq!(exact.as_slice(), via_policy.as_slice());
    }

    #[test]
    fn fast_math_is_epsilon_close_to_exact() {
        let mut rng = seeded_rng(42);
        let a = random_matrix(&mut rng, 24, 86);
        let b = random_matrix(&mut rng, 86, 64);
        let mut exact = Matrix::default();
        let mut fast = Matrix::default();
        a.matmul_window_policy_into(0, 24, &b, &mut exact, KernelPolicy::Exact);
        a.matmul_window_policy_into(0, 24, &b, &mut fast, KernelPolicy::FastMath);
        let diff = max_abs_diff(exact.as_slice(), fast.as_slice());
        assert!(diff <= 1e-5, "fast-math drifted {diff} from exact");
    }

    #[test]
    fn portable_and_native_backends_are_bitwise_identical() {
        let native = detected_backend();
        let mut rng = seeded_rng(43);
        // Odd column counts exercise the 8-column and scalar column
        // tails (29 = 16 + 8 + 5); the model's shapes — inner 39
        // (Hospital's character embedding), 64, 68 and 128 (a layer-2
        // input) × 64 hidden units — the full 16- and 32-column tiles.
        let shapes = [
            (86, 64),
            (33, 37),
            (8, 8),
            (3, 70),
            (21, 29),
            (39, 64),
            (64, 64),
            (68, 64),
            (128, 64),
        ];
        for (inner, cols) in shapes {
            let b = random_matrix(&mut rng, inner, cols);
            // Every row count up to twice the AVX2 row block (6) plus
            // one covers each row tail, for windows starting at row 0
            // and inside the matrix.
            for rows in 1..=13 {
                for row_start in [0, 5] {
                    let a = random_matrix(&mut rng, row_start + rows + 2, inner);
                    let mut p = Matrix::default();
                    let mut n = Matrix::default();
                    matmul_window_fast_with(Backend::Portable, &a, row_start, rows, &b, &mut p);
                    matmul_window_fast_with(native, &a, row_start, rows, &b, &mut n);
                    assert_eq!(
                        p.as_slice(),
                        n.as_slice(),
                        "portable vs {} diverged on rows {row_start}+{rows} of {inner}x{cols}",
                        native.name()
                    );
                }
            }
        }
    }

    #[test]
    fn fast_tanh_is_close_to_std_and_backend_invariant() {
        let native = detected_backend();
        let mut rng = seeded_rng(45);
        // 1003 % 8 == 3 exercises the sub-register scalar tail; the
        // pinned values cover the exact zero and both clamp regions.
        let mut xs: Vec<f32> = (0..1003).map(|_| rng.gen_range(-9.0..9.0)).collect();
        xs[0] = 0.0;
        xs[1] = 20.0;
        xs[2] = -20.0;
        let mut p = xs.clone();
        let mut n = xs.clone();
        tanh_fast_with(Backend::Portable, &mut p);
        tanh_fast_with(native, &mut n);
        for (i, (a, b)) in p.iter().zip(&n).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "fast tanh diverged between portable and {} at element {i}",
                native.name()
            );
        }
        for (&x, &y) in xs.iter().zip(&p) {
            let want = x.tanh();
            assert!(
                (y - want).abs() <= 5e-7,
                "fast tanh({x}) = {y}, std = {want}"
            );
        }
        assert_eq!(p[0].to_bits(), 0.0f32.to_bits(), "tanh(0) must stay 0");
    }

    #[test]
    #[should_panic(expected = "matmul_window_policy_into")]
    fn policy_window_checks_shapes() {
        let a = Matrix::zeros(3, 4);
        let b = Matrix::zeros(5, 2);
        let mut out = Matrix::default();
        a.matmul_window_policy_into(0, 3, &b, &mut out, KernelPolicy::FastMath);
    }
}
