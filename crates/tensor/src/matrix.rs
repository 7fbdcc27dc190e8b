//! Row-major dense `f32` matrix.

use crate::simd::{self, active_backend};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f32` values.
///
/// Shapes are checked at runtime: mismatched operands panic with a message
/// naming the operation and both shapes, which turns silent numeric bugs
/// into loud test failures. All storage is a single contiguous `Vec<f32>`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from an explicit row-major buffer.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: buffer of len {} cannot form a {rows}x{cols} matrix",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Build from row slices; all rows must have equal length.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(
                row.len(),
                c,
                "Matrix::from_rows: ragged rows ({} vs {c})",
                row.len()
            );
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Build a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// A 1 x n row vector.
    pub fn row_vector(values: &[f32]) -> Self {
        Self {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// An n x 1 column vector.
    pub fn col_vector(values: &[f32]) -> Self {
        Self {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Heap bytes reserved by the backing buffer (capacity, not length) —
    /// the footprint a pooled scratch matrix keeps alive between uses.
    #[inline]
    pub fn capacity_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>()
    }

    /// Read-only view of the row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Read-only view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy of column `c`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(
            c < self.cols,
            "col {c} out of bounds for {} cols",
            self.cols
        );
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Explicit transpose, blocked so writes stream through `out`'s rows
    /// instead of striding the full matrix height on every element.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// [`Matrix::transpose`] written into `out` (reshaped in place) —
    /// allocation-free once `out`'s capacity has grown to fit.
    // etsb: allow(shape-assert, into-shape-assert) -- `out` is a reshaped sink; there is no shape precondition.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.resize_zeroed(self.cols, self.rows);
        const BLOCK: usize = 32;
        for ib in (0..self.rows).step_by(BLOCK) {
            let imax = (ib + BLOCK).min(self.rows);
            for jb in (0..self.cols).step_by(BLOCK) {
                let jmax = (jb + BLOCK).min(self.cols);
                // j outer within the block: the inner i loop writes a
                // contiguous run of out.row(j).
                for j in jb..jmax {
                    for i in ib..imax {
                        out.data[j * self.rows + i] = self.data[i * self.cols + j];
                    }
                }
            }
        }
    }

    /// Shared accumulation kernel: `out[j] += Σ_k v[k] * self[k][j]`,
    /// i.e. `out += v @ self`, k-unrolled by eight. Every `vecmat` and
    /// every `matmul` output row goes through this one function, which is
    /// what guarantees `a.matmul(&w).row(t)` stays bitwise identical to
    /// `w.vecmat(a.row(t))` — the batched and per-step sequence paths in
    /// `etsb-nn` must never diverge.
    #[inline(always)]
    fn accumulate_rows(&self, v: &[f32], out: &mut [f32]) {
        assert_eq!(
            v.len(),
            self.rows,
            "accumulate_rows: {} coefficients vs {} rows",
            v.len(),
            self.rows
        );
        self.accumulate_rows_from(0, v, out);
    }

    /// [`Matrix::accumulate_rows`] over the row window starting at
    /// `start`: `out[j] += Σ_k v[k] * self[start + k][j]`. Same ascending-k
    /// add order and zero-skip; the window form lets gradient kernels
    /// align shifted time ranges (e.g. `h_{t-1}` against `dz_t`).
    #[inline(always)]
    fn accumulate_rows_from(&self, start: usize, v: &[f32], out: &mut [f32]) {
        assert!(
            start + v.len() <= self.rows && out.len() == self.cols,
            "accumulate_rows_from: window {start}+{} over {} rows / out {} vs {} cols",
            v.len(),
            self.rows,
            out.len(),
            self.cols
        );
        let cols = self.cols;
        let mut chunks = v.chunks_exact(8);
        let mut base = start;
        for ch in &mut chunks {
            let rows = &self.data[base * cols..(base + 8) * cols];
            Self::apply_chunk8(ch, rows, cols, out);
            base += 8;
        }
        for (k, &vk) in chunks.remainder().iter().enumerate() {
            if vk == 0.0 {
                continue;
            }
            for (o, &m) in out.iter_mut().zip(self.row(base + k)) {
                *o += vk * m;
            }
        }
    }

    /// One eight-`k` chunk of [`Matrix::accumulate_rows_from`]:
    /// `out[j] += Σ_{k<8} ch[k] * rows[k * cols + j]`, adds in ascending
    /// `k`. Factored out so the four-row batched sweep below can fall
    /// back to exactly this code path row by row, keeping every batched
    /// output row bitwise identical to its single-row sweep.
    #[inline(always)]
    // etsb: allow(shape-assert) -- shared kernel; the callers' window asserts name their op.
    fn apply_chunk8(ch: &[f32], rows: &[f32], cols: usize, out: &mut [f32]) {
        let (r0, rest) = rows.split_at(cols);
        let (r1, rest) = rest.split_at(cols);
        let (r2, rest) = rest.split_at(cols);
        let (r3, rest) = rest.split_at(cols);
        let (r4, rest) = rest.split_at(cols);
        let (r5, rest) = rest.split_at(cols);
        let (r6, r7) = rest.split_at(cols);
        if ch.iter().all(|&vk| vk != 0.0) {
            // All-nonzero fast path: fused across eight k's so the
            // inner loop register-blocks out[j], but the adds stay in
            // ascending-k order — bitwise identical to the scalar
            // fallback below.
            let (v0, v1, v2, v3) = (ch[0], ch[1], ch[2], ch[3]);
            let (v4, v5, v6, v7) = (ch[4], ch[5], ch[6], ch[7]);
            let it = out
                .iter_mut()
                .zip(r0)
                .zip(r1)
                .zip(r2)
                .zip(r3)
                .zip(r4)
                .zip(r5)
                .zip(r6)
                .zip(r7);
            for ((((((((o, &a), &b), &c), &d), &e), &f), &g), &h) in it {
                let mut acc = *o;
                acc += v0 * a;
                acc += v1 * b;
                acc += v2 * c;
                acc += v3 * d;
                acc += v4 * e;
                acc += v5 * f;
                acc += v6 * g;
                acc += v7 * h;
                *o = acc;
            }
        } else {
            for (k, &vk) in ch.iter().enumerate() {
                if vk == 0.0 {
                    continue;
                }
                let r = &rows[k * cols..(k + 1) * cols];
                for (o, &m) in out.iter_mut().zip(r) {
                    *o += vk * m;
                }
            }
        }
    }

    /// Fully-fused four-row sweep for windows whose coefficients are all
    /// nonzero: `outs[r][j] += Σ_k vs[r][k] * self[start+k][j]`, blocked
    /// over 16 output columns so the four accumulator blocks stay in
    /// registers for the entire k loop — each weight row element is
    /// loaded once and the output is touched exactly twice (load, store)
    /// per block. The per-element add order is ascending k, the same
    /// sequence the chunked and single-row sweeps produce when no
    /// coefficient is zero.
    #[inline(always)]
    fn fused_rows4_from(&self, start: usize, vs: [&[f32]; 4], outs: [&mut [f32]; 4]) {
        const JB: usize = 16;
        let cols = self.cols;
        let len = vs[0].len();
        let [va, vb, vc, vd] = vs;
        let [oa, ob, oc, od] = outs;
        let mut jb = 0;
        while jb + JB <= cols {
            let mut a0 = [0.0_f32; JB];
            let mut a1 = [0.0_f32; JB];
            let mut a2 = [0.0_f32; JB];
            let mut a3 = [0.0_f32; JB];
            a0.copy_from_slice(&oa[jb..jb + JB]);
            a1.copy_from_slice(&ob[jb..jb + JB]);
            a2.copy_from_slice(&oc[jb..jb + JB]);
            a3.copy_from_slice(&od[jb..jb + JB]);
            for k in 0..len {
                let base = (start + k) * cols + jb;
                let w = &self.data[base..base + JB];
                let (x0, x1, x2, x3) = (va[k], vb[k], vc[k], vd[k]);
                for j in 0..JB {
                    a0[j] += x0 * w[j];
                    a1[j] += x1 * w[j];
                    a2[j] += x2 * w[j];
                    a3[j] += x3 * w[j];
                }
            }
            oa[jb..jb + JB].copy_from_slice(&a0);
            ob[jb..jb + JB].copy_from_slice(&a1);
            oc[jb..jb + JB].copy_from_slice(&a2);
            od[jb..jb + JB].copy_from_slice(&a3);
            jb += JB;
        }
        for j in jb..cols {
            let (mut t0, mut t1, mut t2, mut t3) = (oa[j], ob[j], oc[j], od[j]);
            for k in 0..len {
                let w = self.data[(start + k) * cols + j];
                t0 += va[k] * w;
                t1 += vb[k] * w;
                t2 += vc[k] * w;
                t3 += vd[k] * w;
            }
            oa[j] = t0;
            ob[j] = t1;
            oc[j] = t2;
            od[j] = t3;
        }
    }

    /// Four [`Matrix::accumulate_rows_from`] sweeps over the same row
    /// window, interleaved: `outs[r][j] += Σ_k vs[r][k] * self[start+k][j]`
    /// for each of the four coefficient/output pairs. When every
    /// coefficient in a chunk is nonzero the inner loop carries four
    /// independent accumulator chains — one per output row — so the
    /// eight-deep add latency chain of the single-row sweep overlaps
    /// fourfold and each loaded weight row serves four outputs. Per
    /// output row the adds stay in ascending `k` with the same zero-skip
    /// fallback, so each row is bitwise identical to its own single-row
    /// sweep — the invariant the batched sequence kernels in `etsb-nn`
    /// are built on.
    #[inline(always)]
    fn accumulate_rows4_from(&self, start: usize, vs: [&[f32]; 4], outs: [&mut [f32]; 4]) {
        let len = vs[0].len();
        assert!(
            start + len <= self.rows
                && vs.iter().all(|v| v.len() == len)
                && outs.iter().all(|o| o.len() == self.cols),
            "accumulate_rows4_from: window {start}+{len} over {} rows / outs vs {} cols",
            self.rows,
            self.cols
        );
        let cols = self.cols;
        let [va, vb, vc, vd] = vs;
        let [oa, ob, oc, od] = outs;
        if va.iter().chain(vb).chain(vc).chain(vd).all(|&x| x != 0.0) {
            // All-nonzero window (the common case for dense activations):
            // the j-blocked kernel keeps each 16-wide output block in
            // registers across the whole k loop instead of reloading it
            // per k-chunk. Per output element the adds still run in
            // ascending k with nothing skipped, so results are bitwise
            // identical to the chunked path below.
            return self.fused_rows4_from(start, [va, vb, vc, vd], [oa, ob, oc, od]);
        }
        // k-chunks of four (not eight): the fused inner loop then keeps
        // 4 weight vectors + 4 accumulators + 16 broadcast coefficients
        // live, which fits the register file; an 8-deep chunk spills.
        // Chunk width never changes results: per output element the adds
        // run in ascending k with the same skip-on-zero rule either way.
        let n_chunks = len / 4;
        for c in 0..n_chunks {
            let base = start + c * 4;
            let rows = &self.data[base * cols..(base + 4) * cols];
            let ca = &va[c * 4..c * 4 + 4];
            let cb = &vb[c * 4..c * 4 + 4];
            let cc = &vc[c * 4..c * 4 + 4];
            let cd = &vd[c * 4..c * 4 + 4];
            let fused = ca.iter().chain(cb).chain(cc).chain(cd).all(|&x| x != 0.0);
            if fused {
                let (r0, rest) = rows.split_at(cols);
                let (r1, rest) = rest.split_at(cols);
                let (r2, r3) = rest.split_at(cols);
                // Reslice to `cols` so the indexed inner loop elides its
                // bounds checks.
                let (sa, sb) = (&mut oa[..cols], &mut ob[..cols]);
                let (sc, sd) = (&mut oc[..cols], &mut od[..cols]);
                for j in 0..cols {
                    let (w0, w1, w2, w3) = (r0[j], r1[j], r2[j], r3[j]);
                    let mut t0 = sa[j];
                    t0 += ca[0] * w0;
                    t0 += ca[1] * w1;
                    t0 += ca[2] * w2;
                    t0 += ca[3] * w3;
                    sa[j] = t0;
                    let mut t1 = sb[j];
                    t1 += cb[0] * w0;
                    t1 += cb[1] * w1;
                    t1 += cb[2] * w2;
                    t1 += cb[3] * w3;
                    sb[j] = t1;
                    let mut t2 = sc[j];
                    t2 += cc[0] * w0;
                    t2 += cc[1] * w1;
                    t2 += cc[2] * w2;
                    t2 += cc[3] * w3;
                    sc[j] = t2;
                    let mut t3 = sd[j];
                    t3 += cd[0] * w0;
                    t3 += cd[1] * w1;
                    t3 += cd[2] * w2;
                    t3 += cd[3] * w3;
                    sd[j] = t3;
                }
            } else {
                for (ch, out) in [
                    (ca, &mut *oa),
                    (cb, &mut *ob),
                    (cc, &mut *oc),
                    (cd, &mut *od),
                ] {
                    for (k, &vk) in ch.iter().enumerate() {
                        if vk == 0.0 {
                            continue;
                        }
                        let r = &rows[k * cols..(k + 1) * cols];
                        for (o, &m) in out.iter_mut().zip(r) {
                            *o += vk * m;
                        }
                    }
                }
            }
        }
        let tail = n_chunks * 4;
        for (v, out) in [(va, oa), (vb, ob), (vc, oc), (vd, od)] {
            for (k, &vk) in v[tail..].iter().enumerate() {
                if vk == 0.0 {
                    continue;
                }
                for (o, &m) in out.iter_mut().zip(self.row(start + tail + k)) {
                    *o += vk * m;
                }
            }
        }
    }

    /// `self @ other` — standard matrix product, computed as the
    /// all-rows [`Matrix::matmul_window_into`] window: each output row is
    /// bitwise identical to its `accumulate_rows` sweep (and so to
    /// `other.vecmat(self.row(i))`).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} @ {}x{} shape mismatch",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::default();
        simd::matmul_window_exact_with(active_backend(), self, 0, self.rows, other, &mut out);
        crate::sanitize::assert_finite("tensor", "matmul", &out.data);
        out
    }

    /// `self @ other` written into `out`, which is reshaped in place —
    /// allocation-free once `out`'s capacity has grown to fit.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul_into: {}x{} @ {}x{} shape mismatch",
            self.rows, self.cols, other.rows, other.cols
        );
        simd::matmul_window_exact_with(active_backend(), self, 0, self.rows, other, out);
        crate::sanitize::assert_finite("tensor", "matmul_into", &out.data);
    }

    /// `self[row_start .. row_start+count] @ other` written into `out`
    /// (reshaped to `count x other.cols`). Output rows are computed four
    /// at a time through `Matrix::accumulate_rows4_from`, so each is
    /// bitwise identical to the corresponding [`Matrix::matmul_into`] /
    /// [`Matrix::vecmat`] row while the shared weight-row loads run at
    /// four-row matmul intensity. The window form is what the batched
    /// sequence kernels use to multiply only the still-active prefix of
    /// a packed timestep block.
    ///
    /// Runs on [`active_backend`]: under `Backend::Avx2` the same body is
    /// compiled with AVX2 enabled, which widens the independent
    /// per-column chains without changing any element's operation order
    /// (see `simd`).
    pub fn matmul_window_into(
        &self,
        row_start: usize,
        count: usize,
        other: &Matrix,
        out: &mut Matrix,
    ) {
        assert_eq!(
            self.cols, other.rows,
            "matmul_window_into: {}x{} @ {}x{} shape mismatch",
            self.rows, self.cols, other.rows, other.cols
        );
        assert!(
            row_start + count <= self.rows,
            "matmul_window_into: window {row_start}+{count} out of {} rows",
            self.rows
        );
        simd::matmul_window_exact_with(active_backend(), self, row_start, count, other, out);
        crate::sanitize::assert_finite("tensor", "matmul_window_into", &out.data);
    }

    /// Body of the exact window product, shared by every backend:
    /// `out` (already `count x other.cols`, zeroed) `+= self[row_start ..
    /// row_start+count] @ other`. `#[inline(always)]` so the AVX2 shim
    /// compiles this very code with its target features.
    #[inline(always)]
    // etsb: allow(shape-assert) -- body behind `matmul_window_into`'s asserts; row and window accesses stay bounds-checked.
    pub(crate) fn matmul_window_kernel(
        &self,
        row_start: usize,
        count: usize,
        other: &Matrix,
        out: &mut Matrix,
    ) {
        let oc = other.cols;
        let mut i = 0;
        while i + 4 <= count {
            let block = &mut out.data[i * oc..(i + 4) * oc];
            let (o0, rest) = block.split_at_mut(oc);
            let (o1, rest) = rest.split_at_mut(oc);
            let (o2, o3) = rest.split_at_mut(oc);
            other.accumulate_rows4_from(
                0,
                [
                    self.row(row_start + i),
                    self.row(row_start + i + 1),
                    self.row(row_start + i + 2),
                    self.row(row_start + i + 3),
                ],
                [o0, o1, o2, o3],
            );
            i += 4;
        }
        for r in i..count {
            other.accumulate_rows(self.row(row_start + r), out.row_mut(r));
        }
    }

    /// One output row of `a @ self.T`: `out_row[j] = dot(a_row, self.row(j))`,
    /// four `self` rows per pass via [`crate::ops::dot4`] (each element
    /// bitwise equal to its single `dot`).
    #[inline(always)]
    fn transposed_row_dots(&self, a_row: &[f32], out_row: &mut [f32]) {
        assert!(
            a_row.len() == self.cols && out_row.len() == self.rows,
            "transposed_row_dots: a_row {} vs {} cols / out_row {} vs {} rows",
            a_row.len(),
            self.cols,
            out_row.len(),
            self.rows
        );
        let mut j = 0;
        while j + 4 <= self.rows {
            let r = crate::ops::dot4(
                a_row,
                self.row(j),
                self.row(j + 1),
                self.row(j + 2),
                self.row(j + 3),
            );
            out_row[j..j + 4].copy_from_slice(&r);
            j += 4;
        }
        for (jj, o) in out_row.iter_mut().enumerate().skip(j) {
            *o = crate::ops::dot(a_row, self.row(jj));
        }
    }

    /// `self @ other.T` without materializing the transpose.
    pub fn matmul_transposed(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transposed: {}x{} @ ({}x{})^T shape mismatch",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::default();
        simd::matmul_transposed_exact_with(active_backend(), self, other, &mut out);
        crate::sanitize::assert_finite("tensor", "matmul_transposed", &out.data);
        out
    }

    /// Body of the exact `self @ other.T`, shared by every backend:
    /// `out` is already `self.rows x other.rows`; each element is one
    /// [`crate::ops::dot`]. `#[inline(always)]` for the AVX2 shim.
    #[inline(always)]
    // etsb: allow(shape-assert) -- body behind `matmul_transposed`'s assert; `transposed_row_dots` re-checks every row.
    pub(crate) fn matmul_transposed_kernel(&self, other: &Matrix, out: &mut Matrix) {
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out.data[i * other.rows..(i + 1) * other.rows];
            other.transposed_row_dots(a_row, out_row);
        }
    }

    /// `self.T @ other` without materializing the transpose.
    pub fn transposed_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "transposed_matmul: ({}x{})^T @ {}x{} shape mismatch",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        for k in 0..self.rows {
            let a_row = self.row(k);
            let b_row = other.row(k);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        crate::sanitize::assert_finite("tensor", "transposed_matmul", &out.data);
        out
    }

    /// Matrix–vector product `self @ v`: one [`crate::ops::dot`] per row.
    /// `dot` is argument-symmetric, so `self.matvec(a.row(i))` is bitwise
    /// identical to row `i` of `a.matmul_transposed(self)`.
    pub fn matvec(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(
            self.cols,
            v.len(),
            "matvec: {}x{} @ vec of len {}",
            self.rows,
            self.cols,
            v.len()
        );
        (0..self.rows)
            .map(|i| crate::ops::dot(self.row(i), v))
            .collect()
    }

    /// Vector–matrix product `v @ self` (i.e. `self.T @ v`), transpose-free.
    pub fn vecmat(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(
            self.rows,
            v.len(),
            "vecmat: vec of len {} @ {}x{}",
            v.len(),
            self.rows,
            self.cols
        );
        let mut out = vec![0.0; self.cols];
        self.accumulate_rows(v, &mut out);
        out
    }

    /// Rank-1 update `self += alpha * a b^T`; the outer-product accumulation
    /// at the heart of every weight-gradient in `etsb-nn`.
    pub fn add_outer(&mut self, alpha: f32, a: &[f32], b: &[f32]) {
        assert_eq!(
            self.rows,
            a.len(),
            "add_outer: rows {} vs a len {}",
            self.rows,
            a.len()
        );
        assert_eq!(
            self.cols,
            b.len(),
            "add_outer: cols {} vs b len {}",
            self.cols,
            b.len()
        );
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0.0 {
                continue;
            }
            let s = alpha * ai;
            for (o, &bj) in self.row_mut(i).iter_mut().zip(b) {
                *o += s * bj;
            }
        }
    }

    /// Batched outer-product accumulation over a window of matching rows:
    /// `self[i][j] += Σ_k a[a_start + k][i] * b[b_start + k][j]` for `k`
    /// in `0..count`. Per output element the additions run in ascending
    /// `k` with the same zero-skip as [`Matrix::add_outer`], so this is
    /// bitwise identical to `count` ascending `add_outer(1.0, a.row(..),
    /// b.row(..))` calls — but register-blocked four steps at a time,
    /// which is what makes whole-sequence weight-gradient accumulation
    /// cheap. `col` is caller-owned scratch (one strided column gather per
    /// output row), recycled across calls.
    pub fn add_transposed_matmul(
        &mut self,
        a: &Matrix,
        a_start: usize,
        b: &Matrix,
        b_start: usize,
        count: usize,
        col: &mut Vec<f32>,
    ) {
        assert_eq!(
            self.shape(),
            (a.cols, b.cols),
            "add_transposed_matmul: out {:?} vs {}x{}",
            self.shape(),
            a.cols,
            b.cols
        );
        assert!(
            a_start + count <= a.rows && b_start + count <= b.rows,
            "add_transposed_matmul: window {a_start}/{b_start}+{count} out of {}x{} rows",
            a.rows,
            b.rows
        );
        for i in 0..self.rows {
            col.clear();
            col.extend((0..count).map(|k| a.data[(a_start + k) * a.cols + i]));
            b.accumulate_rows_from(b_start, col, self.row_mut(i));
        }
    }

    /// [`Matrix::add_transposed_matmul`] with output rows computed four
    /// at a time through `Matrix::accumulate_rows4_from`: four columns
    /// of `a` are gathered into `cols_scratch` (reshaped to `4 x count`)
    /// and swept against the same `b` row window together, so each loaded
    /// `b` row serves four weight-gradient rows. Per output element the
    /// adds run in ascending `k` with the same zero-skip, so the result
    /// is bitwise identical to the unblocked kernel — and therefore to
    /// the per-step `add_outer` loop both replace.
    pub fn add_transposed_matmul_blocked(
        &mut self,
        a: &Matrix,
        a_start: usize,
        b: &Matrix,
        b_start: usize,
        count: usize,
        cols_scratch: &mut Matrix,
    ) {
        assert_eq!(
            self.shape(),
            (a.cols, b.cols),
            "add_transposed_matmul_blocked: out {:?} vs {}x{}",
            self.shape(),
            a.cols,
            b.cols
        );
        assert!(
            a_start + count <= a.rows && b_start + count <= b.rows,
            "add_transposed_matmul_blocked: window {a_start}/{b_start}+{count} out of {}x{} rows",
            a.rows,
            b.rows
        );
        simd::add_transposed_matmul_blocked_exact_with(
            active_backend(),
            self,
            a,
            a_start,
            b,
            b_start,
            count,
            cols_scratch,
        );
    }

    /// Body of [`Matrix::add_transposed_matmul_blocked`], shared by every
    /// backend. `#[inline(always)]` for the AVX2 shim.
    #[inline(always)]
    // etsb: allow(shape-assert) -- body behind `add_transposed_matmul_blocked`'s asserts; every access stays bounds-checked.
    pub(crate) fn add_transposed_matmul_blocked_kernel(
        &mut self,
        a: &Matrix,
        a_start: usize,
        b: &Matrix,
        b_start: usize,
        count: usize,
        cols_scratch: &mut Matrix,
    ) {
        cols_scratch.resize_zeroed(4, count);
        let sc = self.cols;
        let mut i = 0;
        while i + 4 <= self.rows {
            for r in 0..4 {
                let dst = cols_scratch.row_mut(r);
                for (k, d) in dst.iter_mut().enumerate() {
                    *d = a.data[(a_start + k) * a.cols + i + r];
                }
            }
            let block = &mut self.data[i * sc..(i + 4) * sc];
            let (o0, rest) = block.split_at_mut(sc);
            let (o1, rest) = rest.split_at_mut(sc);
            let (o2, o3) = rest.split_at_mut(sc);
            b.accumulate_rows4_from(
                b_start,
                [
                    cols_scratch.row(0),
                    cols_scratch.row(1),
                    cols_scratch.row(2),
                    cols_scratch.row(3),
                ],
                [o0, o1, o2, o3],
            );
            i += 4;
        }
        for r in i..self.rows {
            let dst = cols_scratch.row_mut(0);
            for (k, d) in dst.iter_mut().enumerate() {
                *d = a.data[(a_start + k) * a.cols + r];
            }
            let block = &mut self.data[r * sc..(r + 1) * sc];
            b.accumulate_rows_from(b_start, cols_scratch.row(0), block);
        }
    }

    /// Element-wise `self + other`.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise `self - other`.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, "hadamard", |a, b| a * b)
    }

    // etsb: allow(shape-assert) -- shared kernel; the assertion below names the *caller's* op.
    fn zip_with(&self, other: &Matrix, op: &str, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{op}: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place element-wise `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "add_assign: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place element-wise `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "axpy: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// In-place scalar multiply.
    pub fn scale_inplace(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Scalar multiple of the matrix.
    pub fn scaled(&self, alpha: f32) -> Matrix {
        let mut out = self.clone();
        out.scale_inplace(alpha);
        out
    }

    /// Apply `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Set every element to zero, retaining the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Reshape to `rows x cols` with every element zero, retaining the
    /// allocation when the existing capacity suffices. The workhorse of
    /// the `_into` kernels and the scratch [`crate::Workspace`].
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Become an element-wise copy of `other` (shape included), reusing
    /// the existing allocation when its capacity suffices.
    // etsb: allow(shape-assert) -- `self` is a reshaped sink; there is no shape precondition.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Largest absolute element (0 for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, &x| m.max(x.abs()))
    }

    /// Sanitizer hook: panic if any element is NaN/Inf, attributing the
    /// failure to `layer` and `op`. A no-op unless the crate is built
    /// with the `sanitize` feature; returns `self` for chaining.
    #[inline]
    pub fn assert_finite(&self, layer: &str, op: &str) -> &Matrix {
        crate::sanitize::assert_finite(layer, op, &self.data);
        self
    }

    /// True when every element of `self` is within `tol` of `other`.
    /// A shape mismatch is an ordinary `false`, never a panic.
    // etsb: allow(shape-assert) -- predicate by contract: mismatched shapes compare unequal.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

impl Default for Matrix {
    /// An empty `0 x 0` matrix — the placeholder state of reusable caches
    /// and workspace buffers before their first `resize_zeroed`.
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for i in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(12) {
                write!(f, "{:>9.4}", self[(i, j)])?;
            }
            if self.cols > 12 {
                write!(f, " ...")?;
            }
            writeln!(f, " ]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_transposed_agrees_with_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f32);
        let b = Matrix::from_fn(5, 4, |i, j| (i as f32) - (j as f32) * 0.5);
        assert!(a
            .matmul_transposed(&b)
            .approx_eq(&a.matmul(&b.transpose()), 1e-6));
    }

    #[test]
    fn transposed_matmul_agrees_with_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |i, j| (i + j) as f32 * 0.25);
        let b = Matrix::from_fn(4, 5, |i, j| (i as f32) * 0.1 + j as f32);
        assert!(a
            .transposed_matmul(&b)
            .approx_eq(&a.transpose().matmul(&b), 1e-6));
    }

    #[test]
    fn matvec_and_vecmat() {
        let m = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0], &[1.0, 1.0]]);
        assert_eq!(m.matvec(&[3.0, 4.0]), vec![3.0, 8.0, 7.0]);
        assert_eq!(m.vecmat(&[1.0, 1.0, 1.0]), vec![2.0, 3.0]);
    }

    #[test]
    fn add_outer_accumulates_outer_product() {
        let mut m = Matrix::zeros(2, 3);
        m.add_outer(2.0, &[1.0, 3.0], &[1.0, 0.0, -1.0]);
        assert_eq!(
            m,
            Matrix::from_rows(&[&[2.0, 0.0, -2.0], &[6.0, 0.0, -6.0]])
        );
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(b.sub(&a), Matrix::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(a.hadamard(&b), Matrix::from_rows(&[&[3.0, 10.0]]));
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 7 + j) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_non_square_exact() {
        // Shapes chosen to exercise partial blocks on both axes of the
        // blocked kernel (37 and 53 are not multiples of the block size).
        let a = Matrix::from_fn(37, 53, |i, j| (i * 100 + j) as f32);
        let t = a.transpose();
        assert_eq!(t.shape(), (53, 37));
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                assert_eq!(t[(j, i)], a[(i, j)], "mismatch at ({i},{j})");
            }
        }
    }

    /// Helper: a deterministic matrix with a mix of signs, magnitudes and
    /// exact zeros (so the zero-skip paths are exercised).
    fn messy(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            if (i * cols + j).is_multiple_of(7) {
                0.0
            } else {
                ((i * 31 + j * 17) % 23) as f32 * 0.37 - 3.9
            }
        })
    }

    #[test]
    fn into_variants_are_bitwise_identical_to_allocating_ones() {
        let a = messy(9, 13);
        let b = messy(13, 6);

        // Seed the `_into` output with garbage to prove it overwrites.
        let mut m = Matrix::full(2, 2, 7.7);
        a.matmul_into(&b, &mut m);
        assert_eq!(m, a.matmul(&b));
    }

    /// The batched weight-gradient kernel must be bitwise identical to
    /// the per-step `add_outer` loop it replaces (ascending step order,
    /// same zero-skip), on full and shifted row windows, accumulating on
    /// top of pre-existing gradient content.
    #[test]
    fn add_transposed_matmul_matches_per_step_add_outer() {
        let a = messy(11, 7); // e.g. cached inputs, T x input_dim
        let b = messy(11, 5); // e.g. dz rows, T x hidden
        let mut col = Vec::new();

        let mut batched = messy(7, 5); // nonzero start: accumulation, not overwrite
        let mut looped = batched.clone();
        batched.add_transposed_matmul(&a, 0, &b, 0, 11, &mut col);
        for t in 0..11 {
            looped.add_outer(1.0, a.row(t), b.row(t));
        }
        assert_eq!(batched, looped);

        // Shifted window: a rows 0..10 against b rows 1..11 (the
        // recurrent-weight alignment, h_{t-1} against dz_t).
        let mut batched = messy(7, 5);
        let mut looped = batched.clone();
        batched.add_transposed_matmul(&a, 0, &b, 1, 10, &mut col);
        for t in 1..11 {
            looped.add_outer(1.0, a.row(t - 1), b.row(t));
        }
        assert_eq!(batched, looped);
    }

    /// The invariant the sequence layers build on: a batched matmul row
    /// is bitwise identical to the per-step vecmat of the same row, and a
    /// batched transposed matmul row is bitwise identical to matvec.
    #[test]
    fn batched_rows_match_per_step_kernels_bitwise() {
        let inputs = messy(11, 9);
        let w = messy(9, 5);
        let z_all = inputs.matmul(&w);
        for t in 0..inputs.rows() {
            assert_eq!(z_all.row(t), &w.vecmat(inputs.row(t))[..], "row {t}");
        }

        let dz_all = messy(11, 5);
        let gi = dz_all.matmul_transposed(&w);
        for t in 0..dz_all.rows() {
            assert_eq!(gi.row(t), &w.matvec(dz_all.row(t))[..], "row {t}");
        }
    }

    /// The windowed four-row matmul must reproduce the plain matmul rows
    /// bit for bit, on aligned and unaligned windows (remainder rows go
    /// through the single-row sweep) and zero-laced data (fallback path).
    #[test]
    fn matmul_window_into_is_bitwise_identical_to_matmul_rows() {
        let a = messy(13, 17);
        let w = messy(17, 9);
        let full = a.matmul(&w);
        let mut out = Matrix::full(1, 1, 5.5);
        for (start, count) in [(0, 13), (0, 4), (2, 7), (5, 8), (9, 3), (0, 0)] {
            a.matmul_window_into(start, count, &w, &mut out);
            assert_eq!(out.shape(), (count, w.cols()));
            for r in 0..count {
                assert_eq!(
                    out.row(r),
                    full.row(start + r),
                    "window {start}+{count} row {r}"
                );
            }
        }
    }

    /// The blocked weight-gradient kernel must match the unblocked one
    /// bit for bit — full windows, shifted windows, row counts that leave
    /// a remainder against the 4-row blocking, and accumulation on top of
    /// pre-existing gradient content.
    #[test]
    fn add_transposed_matmul_blocked_matches_unblocked_bitwise() {
        let a = messy(11, 7); // 7 output rows: one full 4-block + 3 remainder
        let b = messy(11, 5);
        let mut col = Vec::new();
        let mut scratch = Matrix::default();
        for (a_start, b_start, count) in [(0, 0, 11), (0, 1, 10), (3, 0, 8), (2, 2, 9)] {
            let mut blocked = messy(7, 5);
            let mut plain = blocked.clone();
            blocked.add_transposed_matmul_blocked(&a, a_start, &b, b_start, count, &mut scratch);
            plain.add_transposed_matmul(&a, a_start, &b, b_start, count, &mut col);
            assert_eq!(blocked, plain, "window {a_start}/{b_start}+{count}");
        }
        // Output with a multiple-of-4 row count (no remainder rows).
        let a = messy(9, 8);
        let b = messy(9, 6);
        let mut blocked = messy(8, 6);
        let mut plain = blocked.clone();
        blocked.add_transposed_matmul_blocked(&a, 0, &b, 0, 9, &mut scratch);
        plain.add_transposed_matmul(&a, 0, &b, 0, 9, &mut col);
        assert_eq!(blocked, plain);
    }

    #[test]
    fn capacity_bytes_tracks_backing_buffer() {
        let mut m = Matrix::zeros(4, 4);
        assert!(m.capacity_bytes() >= 64);
        let cap = m.capacity_bytes();
        m.resize_zeroed(2, 2);
        assert_eq!(
            m.capacity_bytes(),
            cap,
            "shrinking must keep the allocation"
        );
    }

    #[test]
    fn resize_zeroed_and_copy_from_reuse_storage() {
        let mut m = Matrix::full(4, 4, 3.5);
        let cap = m.data.capacity();
        m.resize_zeroed(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(m.data.capacity(), cap, "resize within capacity reallocated");

        let src = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        m.copy_from(&src);
        assert_eq!(m, src);
        assert_eq!(m.data.capacity(), cap, "copy within capacity reallocated");
    }

    #[test]
    fn default_matrix_is_empty() {
        let m = Matrix::default();
        assert_eq!(m.shape(), (0, 0));
        assert!(m.is_empty());
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, -4.0]]);
        assert_eq!(a.sum(), -2.0);
        assert_eq!(a.mean(), -0.5);
        assert_eq!(a.max_abs(), 4.0);
        assert!((a.frobenius_norm() - 30.0_f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn row_and_col_views() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::from_rows(&[&[1.0, 1.0]]);
        let b = Matrix::from_rows(&[&[2.0, 4.0]]);
        a.axpy(0.5, &b);
        assert_eq!(a, Matrix::from_rows(&[&[2.0, 3.0]]));
        a.scale_inplace(2.0);
        assert_eq!(a, Matrix::from_rows(&[&[4.0, 6.0]]));
    }
}
