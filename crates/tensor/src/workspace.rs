//! Keyed pool of reusable scratch buffers for the batched sequence path.
//!
//! The batched sequence kernels in `etsb-nn` (`*_batch_into`) need
//! several scratch matrices per timestep and per layer. A [`Workspace`]
//! owns those buffers: callers `take_*` a buffer at the start of an
//! operation and `put_*` it back at the end, so after a warmup pass the
//! same allocations are recycled forever. Buffers are keyed by a static
//! string naming their role (e.g. `"rnn.bdz_all"`), which keeps shapes
//! from unrelated call sites out of each other's pools, and every
//! acquisition is **zero-filled at the requested size** — a taken buffer
//! is indistinguishable from a freshly allocated `vec![0.0; len]` /
//! `Matrix::zeros`, which is what lets the batched path stay bitwise
//! identical to the allocating per-sample oracle.
//!
//! Each key holds a *stack* of buffers, so re-entrant use (taking the
//! same key twice before returning it, as the bidirectional layers do) is
//! safe: the second take simply pops — or creates — another buffer.

use crate::Matrix;
use std::collections::HashMap;

/// A pool of keyed, zero-on-acquire scratch buffers.
///
/// One workspace is intended per worker thread: it is `Send` but not
/// shared, so there is no synchronization on the hot path. Dropping a
/// workspace frees everything it has pooled.
#[derive(Debug, Default)]
pub struct Workspace {
    vecs: HashMap<&'static str, Vec<Vec<f32>>>,
    mats: HashMap<&'static str, Vec<Matrix>>,
}

impl Workspace {
    /// An empty workspace; buffers are created lazily on first take.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrow a zeroed vector of exactly `len` elements under `key`.
    ///
    /// Reuses a pooled buffer when one is available (allocation-free once
    /// its capacity has grown to `len`); return it with [`Self::put_vec`]
    /// when done.
    pub fn take_vec(&mut self, key: &'static str, len: usize) -> Vec<f32> {
        let mut v = self.vecs.entry(key).or_default().pop().unwrap_or_default();
        v.clear();
        v.resize(len, 0.0);
        v
    }

    /// Return a vector to the pool under `key`.
    pub fn put_vec(&mut self, key: &'static str, v: Vec<f32>) {
        self.vecs.entry(key).or_default().push(v);
    }

    /// Borrow a zeroed `rows x cols` matrix under `key`.
    ///
    /// Reuses a pooled buffer when one is available (allocation-free once
    /// its capacity suffices); return it with [`Self::put_mat`] when done.
    pub fn take_mat(&mut self, key: &'static str, rows: usize, cols: usize) -> Matrix {
        let mut m = self.mats.entry(key).or_default().pop().unwrap_or_default();
        m.resize_zeroed(rows, cols);
        m
    }

    /// Return a matrix to the pool under `key`.
    pub fn put_mat(&mut self, key: &'static str, m: Matrix) {
        self.mats.entry(key).or_default().push(m);
    }

    /// Number of buffers currently pooled (both kinds), for diagnostics.
    pub fn pooled(&self) -> usize {
        // Commutative usize sums over pool sizes: iteration order cannot
        // change the result, so the maps keep their O(1) hot-path lookups.
        self.vecs.values().map(Vec::len).sum::<usize>() // etsb: allow(hash-iter-order) -- commutative usize sums
            + self.mats.values().map(Vec::len).sum::<usize>()
    }

    /// Heap bytes reserved by every pooled buffer (capacity, not length).
    /// This is the retained footprint a warmed workspace keeps alive
    /// between operations; the trainer traces it as the
    /// `workspace_bytes` event, and the leak-regression tests pin that it
    /// stops growing once the pools are warm.
    pub fn pooled_bytes(&self) -> usize {
        let vec_bytes: usize = self
            .vecs
            .values() // etsb: allow(hash-iter-order) -- commutative usize sum
            .flatten()
            .map(|v| v.capacity() * std::mem::size_of::<f32>())
            .sum();
        let mat_bytes: usize = self
            .mats
            .values() // etsb: allow(hash-iter-order) -- commutative usize sum
            .flatten()
            .map(Matrix::capacity_bytes)
            .sum();
        vec_bytes + mat_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_regardless_of_history() {
        let mut ws = Workspace::new();
        ws.put_vec("v", vec![7.0, 8.0, 9.0]);
        let v = ws.take_vec("v", 5);
        assert_eq!(v, vec![0.0; 5]);

        ws.put_mat("m", Matrix::full(3, 3, 4.2));
        let m = ws.take_mat("m", 2, 4);
        assert_eq!(m, Matrix::zeros(2, 4));
    }

    #[test]
    fn buffers_are_recycled_not_reallocated() {
        let mut ws = Workspace::new();
        let v = ws.take_vec("v", 64);
        let ptr = v.as_ptr();
        ws.put_vec("v", v);
        // Same key, smaller request: capacity suffices, same allocation.
        let v2 = ws.take_vec("v", 32);
        assert_eq!(v2.as_ptr(), ptr, "vector was reallocated");

        let m = ws.take_mat("m", 8, 8);
        let ptr = m.as_slice().as_ptr();
        ws.put_mat("m", m);
        let m2 = ws.take_mat("m", 4, 16);
        assert_eq!(m2.as_slice().as_ptr(), ptr, "matrix was reallocated");
    }

    #[test]
    fn double_take_yields_distinct_buffers() {
        let mut ws = Workspace::new();
        let a = ws.take_vec("v", 4);
        let b = ws.take_vec("v", 4);
        assert_ne!(a.as_ptr(), b.as_ptr());
        ws.put_vec("v", a);
        ws.put_vec("v", b);
        assert_eq!(ws.pooled(), 2);
    }

    #[test]
    fn pooled_bytes_counts_retained_capacity() {
        let mut ws = Workspace::new();
        assert_eq!(ws.pooled_bytes(), 0);
        let v = ws.take_vec("v", 16);
        let m = ws.take_mat("m", 4, 8);
        // Taken-out buffers are the caller's until returned.
        assert_eq!(ws.pooled_bytes(), 0);
        let expect = v.capacity() * 4 + m.capacity_bytes();
        ws.put_vec("v", v);
        ws.put_mat("m", m);
        assert_eq!(ws.pooled_bytes(), expect);

        // A warmed take/put cycle at the same or smaller size must not
        // grow the retained footprint.
        let before = ws.pooled_bytes();
        for _ in 0..3 {
            let v = ws.take_vec("v", 8);
            let m = ws.take_mat("m", 2, 4);
            ws.put_vec("v", v);
            ws.put_mat("m", m);
        }
        assert_eq!(ws.pooled_bytes(), before);
    }

    #[test]
    fn keys_do_not_alias() {
        let mut ws = Workspace::new();
        ws.put_vec("a", Vec::with_capacity(128));
        let b = ws.take_vec("b", 4);
        assert!(b.capacity() < 128, "buffer leaked across keys");
    }
}
