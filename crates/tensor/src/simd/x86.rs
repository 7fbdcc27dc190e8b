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
//! [`f32::mul_add`]. `matmul_window` tiles the output into register
//! blocks — six rows × 16 columns, single rows × 32 columns on the row
//! tail, then 8-column and scalar column tails. Row blocking, like
//! column blocking, only regroups *independent* per-element chains (an
//! output row reads one row of `a`; an output column one column of `b`),
//! so no tiling can change a bit.
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

/// Rows per register block of [`matmul_window`]: six rows × two
/// 8-lane column vectors keep twelve independent accumulator chains in
/// flight, enough to hide the fused multiply-add latency, and with the
/// two `b` loads and one broadcast they fill 15 of the 16 `ymm`
/// registers.
const ROW_BLOCK: usize = 6;

/// FastMath window product into a pre-zeroed `out` (see
/// `portable::matmul_window` for the chain definition). Full blocks of
/// [`ROW_BLOCK`] rows are tiled six rows × 16 columns; the tail rows run
/// one at a time, 32 columns per tile. Each tile computes, for every
/// element it covers, the same ascending-k fused multiply-add chain from
/// zero as the portable kernel.
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
    let m = Operands {
        a: a.as_slice().as_ptr(),
        inner: a.cols(),
        b: b.as_slice().as_ptr(),
        cols: b.cols(),
        out: out.as_mut_slice().as_mut_ptr(),
    };
    let mut r = 0usize;
    while r + ROW_BLOCK <= count {
        // SAFETY: rows `r .. r+ROW_BLOCK` are inside the window, so
        // `row_start + r + ROW_BLOCK <= a.rows()` and `r + ROW_BLOCK <=
        // count == out.rows()`.
        row_panel::<ROW_BLOCK, 2>(&m, row_start + r, r);
        r += ROW_BLOCK;
    }
    while r < count {
        // SAFETY: as above, for the single row `r < count`.
        row_panel::<1, 4>(&m, row_start + r, r);
        r += 1;
    }
}

/// Raw views of a validated window product: `a` is row-major with
/// `inner` columns, `b` is `inner x cols`, and `out` has `cols` columns.
struct Operands {
    a: *const f32,
    inner: usize,
    b: *const f32,
    cols: usize,
    out: *mut f32,
}

/// `R` output rows starting at `out_row`, read from `a` rows
/// `a_row ..`: `8·V`-column tiles, then 8-column tiles, then one scalar
/// [`f32::mul_add`] chain per remaining element.
///
/// # Safety
///
/// The CPU must support `avx2` and `fma`; `a` must hold rows
/// `a_row .. a_row+R` and `out` rows `out_row .. out_row+R` (see
/// [`Operands`]).
// SAFETY: callers uphold the `# Safety` contract above — only
// `matmul_window` calls this, with rows inside its validated window.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn row_panel<const R: usize, const V: usize>(m: &Operands, a_row: usize, out_row: usize) {
    let (inner, cols) = (m.inner, m.cols);
    // SAFETY: the caller guarantees these rows exist in `a` and `out`.
    let (a, out) = (m.a.add(a_row * inner), m.out.add(out_row * cols));
    let mut j = 0usize;
    while j + 8 * V <= cols {
        // SAFETY: columns `j .. j+8V` are inside `b` and `out`.
        tile::<R, V>(m, a, m.b.add(j), out.add(j));
        j += 8 * V;
    }
    while j + 8 <= cols {
        // SAFETY: columns `j .. j+8` are inside `b` and `out`.
        tile::<R, 1>(m, a, m.b.add(j), out.add(j));
        j += 8;
    }
    for i in 0..R {
        for jj in j..cols {
            let mut acc = 0.0f32;
            for k in 0..inner {
                // SAFETY: i < R, k < inner and jj < cols index one
                // element of the panel's `a` rows and of row k of `b`.
                acc = (*a.add(i * inner + k)).mul_add(*m.b.add(k * cols + jj), acc);
            }
            // SAFETY: i < R and jj < cols stay inside the panel's rows.
            *out.add(i * cols + jj) = acc;
        }
    }
}

/// One register tile: `R` rows × `8·V` columns, accumulated over all of
/// `k` in registers and stored once. Lane `(i, v, l)` runs the
/// ascending-k chain `acc = fma(a[i][k], b[k][8v+l], acc)` from zero.
///
/// # Safety
///
/// The CPU must support `avx2` and `fma`; `a` points at `R` rows of
/// `m.inner` floats (stride `m.inner`), `b` at column `j` of `b`'s row 0
/// and `out` at column `j` of the tile's first output row, with
/// `j + 8·V <= m.cols`.
// SAFETY: callers uphold the `# Safety` contract above — only
// `row_panel` calls this, with whole tiles inside its rows and columns.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tile<const R: usize, const V: usize>(
    m: &Operands,
    a: *const f32,
    b: *const f32,
    out: *mut f32,
) {
    let mut acc = [[_mm256_setzero_ps(); V]; R];
    for k in 0..m.inner {
        let mut bk = [_mm256_setzero_ps(); V];
        for (v, lane) in bk.iter_mut().enumerate() {
            // SAFETY: k < inner and 8v+8 <= 8V keep the load inside row
            // k of `b`, within the tile's columns.
            *lane = _mm256_loadu_ps(b.add(k * m.cols + 8 * v));
        }
        for (i, row) in acc.iter_mut().enumerate() {
            // SAFETY: i < R and k < inner index one element of `a`.
            let va = _mm256_set1_ps(*a.add(i * m.inner + k));
            for (acc_v, &b_v) in row.iter_mut().zip(&bk) {
                *acc_v = _mm256_fmadd_ps(va, b_v, *acc_v);
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        for (v, &acc_v) in row.iter().enumerate() {
            // SAFETY: i < R rows and columns 8v..8v+8 of the tile stay
            // inside `out`.
            _mm256_storeu_ps(out.add(i * m.cols + 8 * v), acc_v);
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
