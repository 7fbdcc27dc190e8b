//! Fixture: compliant library-crate code. Must produce zero findings
//! for every rule — anything reported here is a false positive.

/// A documented public matrix wrapper.
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Element-wise sum with an op-naming shape assertion.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.shape(),
            other.shape(),
            "add: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Shape accessor; mentions unwrap() and panic!() only in prose and
    /// strings: "call .unwrap() here" should not be flagged.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
}

/// Hash maps are fine when iteration order cannot escape: entry-style
/// writes plus an annotated commutative reduction.
pub fn bucket_total(counts: &std::collections::HashMap<String, Vec<f32>>) -> usize {
    // etsb: allow(hash-iter-order) -- commutative usize sum.
    counts.values().map(Vec::len).sum::<usize>()
}

/// Lattice folds are order-insensitive and exempt from float-reduce.
pub fn max_abs(values: &[f32]) -> f32 {
    values.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
}

/// A compliant kernel: opens with an assert, writes in place.
pub fn double_into(a: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), out.len(), "double_into: length mismatch");
    for (o, x) in out.iter_mut().zip(a) {
        *o = x + x;
    }
}

/// Justified unsafe passes the safety-comment rule.
pub fn first_unchecked(v: &[f32]) -> f32 {
    assert!(!v.is_empty(), "first_unchecked: empty input");
    // SAFETY: emptiness asserted above, so index 0 is in bounds.
    unsafe { *v.get_unchecked(0) }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap_freely() {
        let v: Option<u32> = Some(3);
        assert_eq!(v.unwrap(), 3);
    }
}
