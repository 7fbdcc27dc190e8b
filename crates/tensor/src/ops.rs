//! Free functions on `&[f32]` slices: the vector kernels shared by the
//! layer implementations in `etsb-nn`.

/// Dot product of two equal-length slices.
///
/// # Panics
/// If the slices have different lengths.
#[inline(always)]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(
        a.len(),
        b.len(),
        "dot: length mismatch {} vs {}",
        a.len(),
        b.len()
    );
    // Eight independent accumulation chains over bounds-check-free chunks:
    // wide enough for the optimizer to keep the whole accumulator in one
    // vector register without needing `-C target-cpu` flags. The reduction
    // structure is symmetric in `a`/`b`, so `dot(a, b)` is bitwise equal to
    // `dot(b, a)` — the batched backward kernels rely on that.
    let mut acc = [0.0_f32; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        acc[0] += xa[0] * xb[0];
        acc[1] += xa[1] * xb[1];
        acc[2] += xa[2] * xb[2];
        acc[3] += xa[3] * xb[3];
        acc[4] += xa[4] * xb[4];
        acc[5] += xa[5] * xb[5];
        acc[6] += xa[6] * xb[6];
        acc[7] += xa[7] * xb[7];
    }
    let mut sum = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for (&xa, &xb) in ca.remainder().iter().zip(cb.remainder()) {
        sum += xa * xb;
    }
    sum
}

/// Four dot products sharing one pass over `a`: returns
/// `[dot(a, b0), dot(a, b1), dot(a, b2), dot(a, b3)]`, each entry bitwise
/// identical to the corresponding [`dot`] call. Blocking the `b` rows
/// amortizes the loads of `a` and the loop control across four outputs —
/// the difference between `matmul_transposed` running at memory speed
/// and stalling on per-call overhead.
///
/// # Panics
/// If any slice length differs from `a`'s.
#[inline(always)]
pub fn dot4(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
    assert!(
        b0.len() == a.len() && b1.len() == a.len() && b2.len() == a.len() && b3.len() == a.len(),
        "dot4: length mismatch"
    );
    let mut acc0 = [0.0_f32; 8];
    let mut acc1 = [0.0_f32; 8];
    let mut acc2 = [0.0_f32; 8];
    let mut acc3 = [0.0_f32; 8];
    let mut ca = a.chunks_exact(8);
    let mut c0 = b0.chunks_exact(8);
    let mut c1 = b1.chunks_exact(8);
    let mut c2 = b2.chunks_exact(8);
    let mut c3 = b3.chunks_exact(8);
    for ((((xa, x0), x1), x2), x3) in (&mut ca)
        .zip(&mut c0)
        .zip(&mut c1)
        .zip(&mut c2)
        .zip(&mut c3)
    {
        for j in 0..8 {
            acc0[j] += xa[j] * x0[j];
            acc1[j] += xa[j] * x1[j];
            acc2[j] += xa[j] * x2[j];
            acc3[j] += xa[j] * x3[j];
        }
    }
    // Same reduction tree as `dot`.
    let fold = |acc: [f32; 8]| {
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    };
    let mut out = [fold(acc0), fold(acc1), fold(acc2), fold(acc3)];
    let ra = ca.remainder();
    for (k, &xa) in ra.iter().enumerate() {
        out[0] += xa * c0.remainder()[k];
        out[1] += xa * c1.remainder()[k];
        out[2] += xa * c2.remainder()[k];
        out[3] += xa * c3.remainder()[k];
    }
    out
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(
        x.len(),
        y.len(),
        "axpy: length mismatch {} vs {}",
        x.len(),
        y.len()
    );
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y += x`.
#[inline]
pub fn add_assign(y: &mut [f32], x: &[f32]) {
    assert_eq!(
        x.len(),
        y.len(),
        "add_assign: length mismatch {} vs {}",
        x.len(),
        y.len()
    );
    axpy(1.0, x, y);
}

/// `y -= x`.
#[inline]
pub fn sub_assign(y: &mut [f32], x: &[f32]) {
    assert_eq!(
        x.len(),
        y.len(),
        "sub_assign: length mismatch {} vs {}",
        x.len(),
        y.len()
    );
    axpy(-1.0, x, y);
}

/// `x *= alpha`.
#[inline]
pub fn scale(x: &mut [f32], alpha: f32) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Index of the largest element; ties resolve to the first maximum.
///
/// # Panics
/// If the slice is empty.
pub fn argmax(x: &[f32]) -> usize {
    assert!(!x.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in x.iter().enumerate().skip(1) {
        if v > x[best] {
            best = i;
        }
    }
    best
}

/// Numerically stable in-place softmax.
pub fn softmax_inplace(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for xi in x.iter_mut() {
        *xi = (*xi - max).exp();
        sum += *xi;
    }
    // `sum >= 1` because one exponent is exp(0); no division-by-zero risk.
    for xi in x.iter_mut() {
        *xi /= sum;
    }
}

/// In-place rectified linear unit.
pub fn relu_inplace(x: &mut [f32]) {
    for xi in x {
        if *xi < 0.0 {
            *xi = 0.0;
        }
    }
}

/// Euclidean norm.
pub fn l2_norm(x: &[f32]) -> f32 {
    x.iter().map(|v| v * v).sum::<f32>().sqrt()
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(x: &[f32]) -> f32 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f32>() / x.len() as f32
    }
}

/// Population variance (0 for slices of length < 2).
pub fn variance(x: &[f32]) -> f32 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|v| (v - m) * (v - m)).sum::<f32>() / x.len() as f32
}

/// Population standard deviation.
pub fn stddev(x: &[f32]) -> f32 {
    variance(x).sqrt()
}

/// Largest absolute element-wise difference between two slices.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "max_abs_diff: length mismatch");
    a.iter()
        .zip(b)
        .fold(0.0_f32, |m, (&x, &y)| m.max((x - y).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic_and_unrolled_tail() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        // Length 7 exercises both the unrolled body and the scalar tail.
        let a: Vec<f32> = (1..=7).map(|i| i as f32).collect();
        let b = vec![1.0; 7];
        assert_eq!(dot(&a, &b), 28.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut y = vec![1.0, 1.0, 1.0];
        axpy(2.0, &[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0, 7.0]);
    }

    #[test]
    fn argmax_ties_take_first() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[-5.0]), 0);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut x = vec![1.0, 2.0, 3.0];
        softmax_inplace(&mut x);
        assert!((x.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(x[2] > x[1] && x[1] > x[0]);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let mut a = vec![1000.0, 1001.0];
        softmax_inplace(&mut a);
        let mut b = vec![0.0, 1.0];
        softmax_inplace(&mut b);
        assert!(max_abs_diff(&a, &b) < 1e-6);
        assert!(a.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn relu_clamps_negatives_only() {
        let mut x = vec![-1.0, 0.0, 2.5];
        relu_inplace(&mut x);
        assert_eq!(x, vec![0.0, 0.0, 2.5]);
    }

    #[test]
    fn stats() {
        let x = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&x), 5.0);
        assert_eq!(variance(&x), 4.0);
        assert_eq!(stddev(&x), 2.0);
    }

    #[test]
    fn empty_slice_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        softmax_inplace(&mut []); // must not panic
    }
}
