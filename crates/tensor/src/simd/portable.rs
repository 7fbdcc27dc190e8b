//! Portable scalar kernels, in exactly the order the AVX2 backend
//! computes them, so the two backends are bitwise interchangeable (the
//! `ETSB_KERNELS=portable` CI leg asserts this):
//!
//! * the FastMath [`f32::mul_add`] chains — scalar `mul_add` and
//!   `_mm256_fmadd_ps` both perform one IEEE-754 fused multiply-add per
//!   element, so identical chains produce identical bits;
//! * the Exact tier's tanh, [`tanh_exact_one`]: a port of fdlibm's
//!   `tanhf`/`expm1f` built from plain IEEE-754 operations only.
//!
//! Callers (the dispatchers in `simd::mod`) validate shapes and
//! pre-zero the output; these kernels only accumulate.

use crate::Matrix;

/// FastMath window product into a pre-zeroed `out`:
/// `out[r][j] = Σ_k a[row_start+r][k] * b[k][j]` as one ascending-k
/// fused multiply-add chain per output element, no zero-skip. Each
/// column chain is independent, which is why the AVX2 backend may block
/// columns freely without changing a single bit.
// etsb: allow(shape-assert) -- shapes validated by the policy dispatcher.
pub(super) fn matmul_window(
    a: &Matrix,
    row_start: usize,
    count: usize,
    b: &Matrix,
    out: &mut Matrix,
) {
    for r in 0..count {
        let a_row = a.row(row_start + r);
        let out_row = out.row_mut(r);
        for (k, &av) in a_row.iter().enumerate() {
            for (o, &bv) in out_row.iter_mut().zip(b.row(k)) {
                *o = av.mul_add(bv, *o);
            }
        }
    }
}

/// Clamp bound of the FastMath tanh approximation: beyond this |x| the
/// true tanh is 1 to within f32 resolution, so clamping first keeps the
/// rational form from overflowing without changing the rounded result.
pub(super) const TANH_CLAMP: f32 = 7.998_811_7;

/// Odd numerator coefficients of the FastMath tanh rational
/// approximation `x·P(x²) / Q(x²)` (ascending powers x¹..x¹³) — the
/// classic single-precision fit used across ML runtimes, measured at
/// max abs error 2.4e-7 against [`f32::tanh`] over the clamped range.
pub(super) const TANH_ALPHA: [f32; 7] = [
    4.893_524_6e-3,
    6.372_619_5e-4,
    1.485_722_35e-5,
    5.122_297_3e-8,
    -8.604_672e-11,
    2.000_188e-13,
    -2.760_768_4e-16,
];

/// Even denominator coefficients of the tanh approximation (ascending
/// powers x⁰..x⁶).
pub(super) const TANH_BETA: [f32; 4] =
    [4.893_525e-3, 2.268_434_7e-3, 1.185_347_1e-4, 1.198_258_4e-6];

/// One FastMath tanh: clamp, then evaluate both polynomials as
/// descending-degree fused multiply-add (Horner) chains in `x²`, then
/// one multiply and one division. Every step is a single correctly
/// rounded IEEE-754 operation, so the AVX2 backend reproduces it bit for
/// bit by running the same chain per lane.
#[inline]
pub(super) fn tanh_one(x: f32) -> f32 {
    let x = x.clamp(-TANH_CLAMP, TANH_CLAMP);
    let x2 = x * x;
    let mut p = TANH_ALPHA[6];
    for &a in TANH_ALPHA[..6].iter().rev() {
        p = x2.mul_add(p, a);
    }
    let p = x * p;
    let mut q = TANH_BETA[3];
    for &b in TANH_BETA[..3].iter().rev() {
        q = x2.mul_add(q, b);
    }
    p / q
}

/// FastMath elementwise tanh in place.
pub(super) fn tanh_inplace(xs: &mut [f32]) {
    for x in xs {
        *x = tanh_one(*x);
    }
}

/// `|x|` bit-pattern bounds of the fdlibm `tanhf` branches: below
/// [`TANH_TINY`] (2⁻⁵⁵) `tanh(x) = x·(1+x)`, from [`TANH_ONE`] (1.0) the
/// `expm1(2|x|)` form, from [`TANH_HUGE`] (22.0) `±1`.
pub(super) const TANH_TINY: u32 = 0x2400_0000;
/// See [`TANH_TINY`].
pub(super) const TANH_ONE: u32 = 0x3f80_0000;
/// See [`TANH_TINY`].
pub(super) const TANH_HUGE: u32 = 0x41b0_0000;
/// `|x|` bit-pattern bounds of the fdlibm `expm1f` branches reached from
/// `tanhf`: up to [`EXPM1_TINY`] (2⁻²⁵) the result is `x` itself, up to
/// [`EXPM1_HALF_LN2`] (½ ln 2) no reduction (`k = 0`), below
/// [`EXPM1_3HALF_LN2`] (1½ ln 2) the fixed `k = -1` reduction.
pub(super) const EXPM1_TINY: u32 = 0x3300_0000;
/// See [`EXPM1_TINY`].
pub(super) const EXPM1_HALF_LN2: u32 = 0x3eb1_7218;
/// See [`EXPM1_TINY`].
pub(super) const EXPM1_3HALF_LN2: u32 = 0x3f85_1592;
/// High part of ln 2 (trailing bits zero, so `k·LN2_HI` is exact).
pub(super) const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
/// Low part of ln 2.
pub(super) const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
/// 1 / ln 2.
pub(super) const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// fdlibm's scaled `expm1f` coefficients Q1..Q5.
pub(super) const EXPM1_Q: [f32; 5] = [
    f32::from_bits(0xbd08_8889),
    f32::from_bits(0x3ad0_0d01),
    f32::from_bits(0xb8a6_70cd),
    f32::from_bits(0x3686_7e54),
    f32::from_bits(0xb457_edbb),
];

/// Exact-tier tanh of one value: a port of fdlibm's `tanhf` (the one
/// glibc ships), bitwise equal to that libm's `f32::tanh` on every
/// input. Every step is a single correctly rounded IEEE-754 operation
/// or integer bit manipulation — no fused multiply-add, no libm call —
/// so the AVX2 lane kernel reproduces it bit for bit, and Exact `tanh`
/// no longer depends on the host's libm.
pub(super) fn tanh_exact_one(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    let negative = x.is_sign_negative();
    if ix >= 0x7f80_0000 {
        // tanh(±inf) = ±1, tanh(NaN) = NaN.
        return if negative {
            1.0 / x - 1.0
        } else {
            1.0 / x + 1.0
        };
    }
    if ix < TANH_TINY {
        // |x| < 2^-55, ±0 included: x·(1+x) rounds to x.
        return x * (1.0 + x);
    }
    let ax = f32::from_bits(ix);
    let z = if ix >= TANH_HUGE {
        1.0
    } else if ix >= TANH_ONE {
        let t = expm1_tanh_arg(2.0 * ax);
        1.0 - 2.0 / (t + 2.0)
    } else {
        let t = expm1_tanh_arg(-2.0 * ax);
        -t / (t + 2.0)
    };
    if negative {
        -z
    } else {
        z
    }
}

/// fdlibm's `expm1f` on the arguments [`tanh_exact_one`] passes it:
/// `x` in `[2, 44)` or `(-2, -2^-54]`. The overflow, non-finite and
/// `x < -27 ln 2` branches of the full routine, and its `k = 1` branch
/// (positive `x` below 1½ ln 2), cannot be reached from there and are
/// left out.
fn expm1_tanh_arg(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    // Argument reduction x = k·ln2 + r, with c the rounding error of r.
    let (r, c, k) = if hx > EXPM1_HALF_LN2 {
        let (hi, lo, k) = if hx < EXPM1_3HALF_LN2 {
            (x + LN2_HI, -LN2_LO, -1)
        } else {
            let half = if x.is_sign_negative() { -0.5 } else { 0.5 };
            let k = (INV_LN2 * x + half) as i32;
            let t = k as f32;
            (x - t * LN2_HI, t * LN2_LO, k)
        };
        let r = hi - lo;
        (r, (hi - r) - lo, k)
    } else if hx < EXPM1_TINY {
        return x;
    } else {
        (x, 0.0, 0)
    };
    let [q1, q2, q3, q4, q5] = EXPM1_Q;
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (q1 + hxs * (q2 + hxs * (q3 + hxs * (q4 + hxs * q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    if k == 0 {
        return r - (r * e - hxs);
    }
    let e = r * (e - c) - c - hxs;
    if k == -1 {
        return 0.5 * (r - e) - 0.5;
    }
    // Scale by 2^k through the exponent field.
    let scale = |y: f32| f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32);
    if !(-1..=56).contains(&k) {
        scale(1.0 - (e - r)) - 1.0
    } else if k < 23 {
        // 1 - 2^-k
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k));
        scale(t - (e - r))
    } else {
        // 2^-k
        let t = f32::from_bits(((0x7f - k) << 23) as u32);
        scale((r - (e + t)) + 1.0)
    }
}

/// Exact-tier elementwise tanh in place.
pub(super) fn tanh_exact_inplace(xs: &mut [f32]) {
    for x in xs {
        *x = tanh_exact_one(*x);
    }
}
