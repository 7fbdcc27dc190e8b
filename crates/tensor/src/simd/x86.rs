//! AVX2 kernels for both tiers. Only compiled on x86-64 and only *run*
//! after [`super::detected_backend`] has verified the `avx2` and `fma`
//! CPU features at runtime — the `Backend::Avx2` variant cannot be
//! constructed any other way.
//!
//! # Bitwise contract with the portable backend
//!
//! *FastMath.* Every output element is the same chain of IEEE-754 fused
//! multiply-adds the portable kernels compute: `_mm256_fmadd_ps`
//! performs one fused multiply-add per lane, exactly like scalar
//! [`f32::mul_add`]. Column blocking (32/8/scalar in `matmul_window`)
//! regroups *independent* per-column chains and therefore cannot change
//! a bit.
//!
//! *Exact.* The exact matmul kernels are not reimplemented here: each
//! `exact_*` shim calls the one `#[inline(always)]` body in `matrix.rs`,
//! compiled with `avx2` (not `fma`) enabled. LLVM may then only widen
//! the body's independent per-column chains into 8-lane registers — it
//! never reassociates a float add or contracts a mul-then-add without
//! fast-math flags, which Rust does not emit — so every element keeps
//! its scalar operation order. The exact tanh runs the portable
//! `tanh_exact_one` chain per lane, with blends in place of branches.
//
// The one sanctioned opt-out from the workspace-wide `unsafe_code`
// deny: SIMD intrinsics are unsafe by definition, and this module is
// the blessed home for them (enforced by the `fast-math-confinement`
// check rule).
#![allow(unsafe_code, reason = "SIMD intrinsics are unsafe by definition")]

use super::portable::{
    self, EXPM1_3HALF_LN2, EXPM1_HALF_LN2, EXPM1_Q, EXPM1_TINY, INV_LN2, LN2_HI, LN2_LO,
    TANH_ALPHA, TANH_BETA, TANH_CLAMP, TANH_HUGE, TANH_ONE, TANH_TINY,
};
use crate::Matrix;
use std::arch::x86_64::{
    __m256, __m256i, _mm256_add_epi32, _mm256_add_ps, _mm256_and_si256, _mm256_andnot_si256,
    _mm256_blendv_epi8, _mm256_blendv_ps, _mm256_castps_si256, _mm256_castsi256_ps, _mm256_cmp_ps,
    _mm256_cmpeq_epi32, _mm256_cmpgt_epi32, _mm256_cvtepi32_ps, _mm256_cvttps_epi32, _mm256_div_ps,
    _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_max_ps, _mm256_min_ps, _mm256_mul_ps, _mm256_or_si256,
    _mm256_set1_epi32, _mm256_set1_ps, _mm256_setzero_ps, _mm256_setzero_si256, _mm256_slli_epi32,
    _mm256_srlv_epi32, _mm256_storeu_ps, _mm256_sub_epi32, _mm256_sub_ps, _mm256_xor_si256,
    _CMP_UNORD_Q,
};

/// FastMath window product into a pre-zeroed `out` (see
/// `portable::matmul_window` for the chain definition). Columns are
/// processed in blocks of 32 (four independent accumulator registers),
/// then 8, then a scalar [`f32::mul_add`] tail — all computing the same
/// ascending-k chain per column.
///
/// # Safety
///
/// The CPU must support `avx2` and `fma`, and the caller must have
/// validated shapes (`a.cols() == b.rows()`, the row window in bounds)
/// and shaped `out` to `count x b.cols()`.
// SAFETY: callers uphold the `# Safety` contract above — `Backend::Avx2`
// existence proves avx2+fma, and the policy dispatcher validated shapes.
// etsb: allow(shape-assert) -- shapes validated by the policy dispatcher.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn matmul_window(
    a: &Matrix,
    row_start: usize,
    count: usize,
    b: &Matrix,
    out: &mut Matrix,
) {
    let cols = b.cols();
    let bp = b.as_slice().as_ptr();
    for r in 0..count {
        let a_row = a.row(row_start + r);
        let out_row = out.row_mut(r);
        let op = out_row.as_mut_ptr();
        let mut j = 0usize;
        while j + 32 <= cols {
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let mut acc2 = _mm256_setzero_ps();
            let mut acc3 = _mm256_setzero_ps();
            for (k, &av) in a_row.iter().enumerate() {
                let va = _mm256_set1_ps(av);
                // SAFETY: k < b.rows() and j+32 <= cols, so every load
                // reads inside row k of `b`'s backing slice.
                let base = bp.add(k * cols + j);
                acc0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(base), acc0);
                acc1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(base.add(8)), acc1);
                acc2 = _mm256_fmadd_ps(va, _mm256_loadu_ps(base.add(16)), acc2);
                acc3 = _mm256_fmadd_ps(va, _mm256_loadu_ps(base.add(24)), acc3);
            }
            // SAFETY: j+32 <= cols == out_row.len(), so the four stores
            // stay inside this output row.
            _mm256_storeu_ps(op.add(j), acc0);
            _mm256_storeu_ps(op.add(j + 8), acc1);
            _mm256_storeu_ps(op.add(j + 16), acc2);
            _mm256_storeu_ps(op.add(j + 24), acc3);
            j += 32;
        }
        while j + 8 <= cols {
            let mut acc = _mm256_setzero_ps();
            for (k, &av) in a_row.iter().enumerate() {
                // SAFETY: k < b.rows() and j+8 <= cols keep the load in
                // row k of `b`.
                let bv = _mm256_loadu_ps(bp.add(k * cols + j));
                acc = _mm256_fmadd_ps(_mm256_set1_ps(av), bv, acc);
            }
            // SAFETY: j+8 <= cols == out_row.len().
            _mm256_storeu_ps(op.add(j), acc);
            j += 8;
        }
        for (jj, o) in out_row.iter_mut().enumerate().skip(j) {
            let mut acc = 0.0f32;
            for (k, &av) in a_row.iter().enumerate() {
                // SAFETY: k < b.rows() and jj < cols index one element
                // of row k.
                acc = av.mul_add(*bp.add(k * cols + jj), acc);
            }
            *o = acc;
        }
    }
}

/// FastMath elementwise tanh in place: the rational approximation from
/// `portable::tanh_one` evaluated eight lanes at a time. Clamp
/// (min-then-max), both Horner chains, the final multiply and the
/// division are each one correctly rounded IEEE-754 operation per lane
/// — the identical chain the scalar kernel runs — so the two backends
/// agree bit for bit; the sub-register tail reuses the scalar kernel
/// outright.
///
/// # Safety
///
/// The CPU must support `avx2` and `fma`.
// SAFETY: callers uphold the `# Safety` contract above — `Backend::Avx2`
// existence proves avx2+fma; any slice length is valid.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn tanh_inplace(xs: &mut [f32]) {
    let hi = _mm256_set1_ps(TANH_CLAMP);
    let lo = _mm256_set1_ps(-TANH_CLAMP);
    let mut chunks = xs.chunks_exact_mut(8);
    for c in &mut chunks {
        let p8 = c.as_mut_ptr();
        // SAFETY: `c` is exactly eight contiguous f32s.
        let x = _mm256_max_ps(_mm256_min_ps(_mm256_loadu_ps(p8), hi), lo);
        let x2 = _mm256_mul_ps(x, x);
        let mut p = _mm256_set1_ps(TANH_ALPHA[6]);
        for &a in TANH_ALPHA[..6].iter().rev() {
            p = _mm256_fmadd_ps(x2, p, _mm256_set1_ps(a));
        }
        let p = _mm256_mul_ps(x, p);
        let mut q = _mm256_set1_ps(TANH_BETA[3]);
        for &b in TANH_BETA[..3].iter().rev() {
            q = _mm256_fmadd_ps(x2, q, _mm256_set1_ps(b));
        }
        // SAFETY: same eight lanes the load above read.
        _mm256_storeu_ps(p8, _mm256_div_ps(p, q));
    }
    for x in chunks.into_remainder() {
        *x = portable::tanh_one(*x);
    }
}

/// Exact window product: `Matrix::matmul_window_kernel`, the body the
/// portable backend runs, compiled with `avx2`.
#[target_feature(enable = "avx2")]
// etsb: allow(shape-assert) -- shapes validated by the exact dispatcher.
pub(super) fn exact_matmul_window(
    a: &Matrix,
    row_start: usize,
    count: usize,
    b: &Matrix,
    out: &mut Matrix,
) {
    a.matmul_window_kernel(row_start, count, b, out);
}

/// Exact `a @ b.T`: `Matrix::matmul_transposed_kernel` compiled with
/// `avx2`.
#[target_feature(enable = "avx2")]
// etsb: allow(shape-assert) -- shapes validated by the exact dispatcher.
pub(super) fn exact_matmul_transposed(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    a.matmul_transposed_kernel(b, out);
}

/// Exact blocked weight-gradient accumulation:
/// `Matrix::add_transposed_matmul_blocked_kernel` compiled with `avx2`.
#[target_feature(enable = "avx2")]
// etsb: allow(shape-assert) -- shapes validated by the exact dispatcher.
pub(super) fn exact_add_transposed_matmul_blocked(
    acc: &mut Matrix,
    a: &Matrix,
    a_start: usize,
    b: &Matrix,
    b_start: usize,
    count: usize,
    cols_scratch: &mut Matrix,
) {
    acc.add_transposed_matmul_blocked_kernel(a, a_start, b, b_start, count, cols_scratch);
}

/// Exact-tier elementwise tanh in place: [`tanh_exact8`] on every full
/// register, the portable `tanh_exact_one` on the sub-register tail.
///
/// # Safety
///
/// The CPU must support `avx2`.
// SAFETY: callers uphold the `# Safety` contract above — `Backend::Avx2`
// existence proves avx2; any slice length is valid.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn tanh_exact_inplace(xs: &mut [f32]) {
    let mut chunks = xs.chunks_exact_mut(8);
    for c in &mut chunks {
        let p8 = c.as_mut_ptr();
        // SAFETY: `c` is exactly eight contiguous f32s, read and then
        // written back in place.
        _mm256_storeu_ps(p8, tanh_exact8(_mm256_loadu_ps(p8)));
    }
    for x in chunks.into_remainder() {
        *x = portable::tanh_exact_one(*x);
    }
}

/// Lanes where the `|x|` bit pattern `ix` is at least `bound`.
#[inline]
#[target_feature(enable = "avx2")]
fn at_least(ix: __m256i, bound: u32) -> __m256i {
    _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(bound as i32 - 1))
}

/// Per-lane `if mask { a } else { b }` on f32 lanes.
#[inline]
#[target_feature(enable = "avx2")]
fn select(mask: __m256i, a: __m256, b: __m256) -> __m256 {
    _mm256_blendv_ps(b, a, _mm256_castsi256_ps(mask))
}

/// `y · 2^k` for `k_shift = k << 23`, by integer addition to the
/// exponent field (the scalar routine's `SET_FLOAT_WORD` step).
#[inline]
#[target_feature(enable = "avx2")]
fn add_exponent(y: __m256, k_shift: __m256i) -> __m256 {
    _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y), k_shift))
}

/// Eight lanes of `portable::tanh_exact_one`: every branch of the
/// scalar routine is computed for all lanes and the live one selected
/// by a blend, so each lane runs exactly the scalar routine's IEEE-754
/// operations on its own input (division is `_mm256_div_ps`, correctly
/// rounded like scalar `/`; there is no fused multiply-add). NaN lanes
/// return `x + x`, the quiet NaN the scalar `1/x ± 1` yields; ±inf
/// lanes fall into the `|x| >= 22` branch, which gives the same ±1.
#[inline]
#[target_feature(enable = "avx2")]
fn tanh_exact8(x: __m256) -> __m256 {
    let one = _mm256_set1_ps(1.0);
    let two = _mm256_set1_ps(2.0);
    let bits = _mm256_castps_si256(x);
    let abs_mask = _mm256_set1_epi32(0x7fff_ffff);
    let ix = _mm256_and_si256(bits, abs_mask);
    let sign = _mm256_andnot_si256(abs_mask, bits);
    let ax = _mm256_castsi256_ps(ix);
    // |x| >= 1: z = 1 - 2/(expm1(2|x|) + 2); else z = -t/(t + 2) with
    // t = expm1(-2|x|). Both divisions share one `_mm256_div_ps`.
    let big = at_least(ix, TANH_ONE);
    let t = expm1_tanh_arg8(_mm256_mul_ps(select(big, two, _mm256_set1_ps(-2.0)), ax));
    let neg_t = _mm256_castsi256_ps(_mm256_xor_si256(
        _mm256_castps_si256(t),
        _mm256_set1_epi32(i32::MIN),
    ));
    let q = _mm256_div_ps(select(big, two, neg_t), _mm256_add_ps(t, two));
    let z = select(big, _mm256_sub_ps(one, q), q);
    let z = select(at_least(ix, TANH_HUGE), one, z);
    let z = _mm256_castsi256_ps(_mm256_xor_si256(_mm256_castps_si256(z), sign));
    let tiny = _mm256_mul_ps(x, _mm256_add_ps(one, x));
    let z = select(at_least(ix, TANH_TINY), z, tiny);
    let nan = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_UNORD_Q>(x, x));
    select(nan, _mm256_add_ps(x, x), z)
}

/// Eight lanes of `portable::expm1_tanh_arg`, valid on the same domain
/// (`[2, 44)` and `(-2, -2^-54]`). The reduction runs for every lane:
/// `k = 0` lanes reduce by `0·ln2`, which leaves `r = x` and `c = 0`
/// exactly, and `k = -1` lanes by `-1·ln2`, exactly the scalar
/// `x + LN2_HI`, `-LN2_LO`.
#[inline]
#[target_feature(enable = "avx2")]
fn expm1_tanh_arg8(x: __m256) -> __m256 {
    let bits = _mm256_castps_si256(x);
    let abs_mask = _mm256_set1_epi32(0x7fff_ffff);
    let hx = _mm256_and_si256(bits, abs_mask);
    // k = trunc(x/ln2 ± 0.5), the sign of the half following x.
    let signed_half = _mm256_castsi256_ps(_mm256_or_si256(
        _mm256_castps_si256(_mm256_set1_ps(0.5)),
        _mm256_andnot_si256(abs_mask, bits),
    ));
    let k_round = _mm256_cvttps_epi32(_mm256_add_ps(
        _mm256_mul_ps(_mm256_set1_ps(INV_LN2), x),
        signed_half,
    ));
    let k = _mm256_blendv_epi8(
        k_round,
        _mm256_set1_epi32(-1),
        _mm256_cmpgt_epi32(_mm256_set1_epi32(EXPM1_3HALF_LN2 as i32), hx),
    );
    let reduced = _mm256_cmpgt_epi32(hx, _mm256_set1_epi32(EXPM1_HALF_LN2 as i32));
    let k = _mm256_and_si256(k, reduced);
    let t = _mm256_cvtepi32_ps(k);
    let hi = _mm256_sub_ps(x, _mm256_mul_ps(t, _mm256_set1_ps(LN2_HI)));
    let lo = _mm256_mul_ps(t, _mm256_set1_ps(LN2_LO));
    let r = _mm256_sub_ps(hi, lo);
    let c = _mm256_sub_ps(_mm256_sub_ps(hi, r), lo);

    let one = _mm256_set1_ps(1.0);
    let half = _mm256_set1_ps(0.5);
    let hfx = _mm256_mul_ps(half, r);
    let hxs = _mm256_mul_ps(r, hfx);
    // Horner from Q5 down, as the scalar nesting evaluates it.
    let mut poly = _mm256_set1_ps(EXPM1_Q[4]);
    for &q in EXPM1_Q[..4].iter().rev() {
        poly = _mm256_add_ps(_mm256_set1_ps(q), _mm256_mul_ps(hxs, poly));
    }
    let r1 = _mm256_add_ps(one, _mm256_mul_ps(hxs, poly));
    let t = _mm256_sub_ps(_mm256_set1_ps(3.0), _mm256_mul_ps(r1, hfx));
    let e = _mm256_mul_ps(
        hxs,
        _mm256_div_ps(
            _mm256_sub_ps(r1, t),
            _mm256_sub_ps(_mm256_set1_ps(6.0), _mm256_mul_ps(r, t)),
        ),
    );
    let k0 = _mm256_sub_ps(r, _mm256_sub_ps(_mm256_mul_ps(r, e), hxs));
    let e = _mm256_sub_ps(_mm256_sub_ps(_mm256_mul_ps(r, _mm256_sub_ps(e, c)), c), hxs);
    let k_minus1 = _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(r, e)), half);
    // Scale by 2^k through the exponent field.
    let k_shift = _mm256_slli_epi32::<23>(k);
    let e_minus_r = _mm256_sub_ps(e, r);
    // k <= -2 or k > 56.
    let far = _mm256_sub_ps(add_exponent(_mm256_sub_ps(one, e_minus_r), k_shift), one);
    // 2 <= k < 23, with t = 1 - 2^-k.
    let t_low = _mm256_castsi256_ps(_mm256_sub_epi32(
        _mm256_set1_epi32(0x3f80_0000),
        _mm256_srlv_epi32(_mm256_set1_epi32(0x0100_0000), k),
    ));
    let low = add_exponent(_mm256_sub_ps(t_low, e_minus_r), k_shift);
    // 23 <= k <= 56, with t = 2^-k.
    let t_high = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_sub_epi32(
        _mm256_set1_epi32(0x7f),
        k,
    )));
    let high = add_exponent(
        _mm256_add_ps(_mm256_sub_ps(r, _mm256_add_ps(e, t_high)), one),
        k_shift,
    );

    let y = select(_mm256_cmpgt_epi32(_mm256_set1_epi32(23), k), low, high);
    let is_far = _mm256_or_si256(
        _mm256_cmpgt_epi32(k, _mm256_set1_epi32(56)),
        _mm256_cmpgt_epi32(_mm256_set1_epi32(-1), k),
    );
    let y = select(is_far, far, y);
    let y = select(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(-1)), k_minus1, y);
    let y = select(_mm256_cmpeq_epi32(k, _mm256_setzero_si256()), k0, y);
    select(at_least(hx, EXPM1_TINY), y, x)
}
