//! Vanilla (Elman) recurrent cells with backpropagation-through-time, and
//! the bidirectional / two-stacked configurations of the paper's §4.3.
//!
//! The recurrence implements equations (1)–(4) of the paper:
//!
//! ```text
//! z_t = Wx · x_t + Wh · h_{t-1} + b
//! h_t = tanh(z_t)
//! ```
//!
//! with row-vector convention (`h_t = tanh(x_t Wx + h_{t-1} Wh + b)`),
//! zero initial state, and full BPTT in `backward`.
//!
//! Sequences are processed at their *true* length (the data-preparation
//! pipeline guarantees at least one step), so no masking machinery is
//! needed and inference cost is proportional to actual value lengths.

use crate::batch::{accumulate_seq_grads, SeqBatch};
use crate::Param;
use etsb_tensor::simd::tanh_exact;
use etsb_tensor::{init, KernelPolicy, Matrix, Workspace};
use rand::rngs::StdRng;

/// Split a recurrent cell's 3-slot gradient slice into `(wx, wh, b)`,
/// matching the `params()` order every cell in this crate uses.
pub(crate) fn split_cell_grads<'g>(
    grads: &'g mut [Matrix],
    what: &str,
) -> (&'g mut Matrix, &'g mut Matrix, &'g mut Matrix) {
    assert_eq!(
        grads.len(),
        3,
        "{what}: expected 3 gradient slots (wx, wh, b), got {}",
        grads.len()
    );
    let (gwx, tail) = grads.split_at_mut(1);
    let (gwh, gb) = tail.split_at_mut(1);
    (&mut gwx[0], &mut gwh[0], &mut gb[0])
}

/// A recurrent cell usable inside [`BiRnn`] / [`StackedBiRnn`]: vanilla
/// ([`RnnCell`], the paper's choice), [`crate::LstmCell`] or
/// [`crate::GruCell`] (the heavier alternatives §2 argues against).
pub trait Recurrence: Clone {
    /// Cache produced by `forward`, consumed by `backward`. `Default`
    /// yields an empty cache that [`Recurrence::forward_batch_into`]
    /// rebuilds in place, so one cache allocation serves any number of
    /// batches.
    type Cache: Clone + std::fmt::Debug + Default;

    /// Construct a cell with freshly initialized weights.
    fn with_dims(input_dim: usize, hidden: usize, rng: &mut StdRng) -> Self;

    /// Input width.
    fn input_dim(&self) -> usize;

    /// Output (hidden-state) width.
    fn hidden_dim(&self) -> usize;

    /// Run the recurrence over a `T x input_dim` sequence, producing the
    /// `T x hidden` output sequence.
    fn forward_seq(&self, inputs: Matrix) -> (Matrix, Self::Cache);

    /// BPTT: gradients on every output step (`T x hidden`) in, parameter
    /// gradients accumulated into `grads` (one slot per parameter, in
    /// [`Recurrence::params`] order) + input gradients out.
    fn backward_seq(&self, cache: &Self::Cache, grad_out: &Matrix, grads: &mut [Matrix]) -> Matrix;

    /// The output sequence a [`Recurrence::forward_batch_into`] left in
    /// `cache` (packed rows, `hidden` wide).
    fn seq_output(cache: &Self::Cache) -> &Matrix;

    /// Batched forward over a packed timestep-major batch (see
    /// [`SeqBatch`]): `packed` holds `batch.total_rows() x input_dim`
    /// rows, one timestep block after another, and `cache` is rebuilt
    /// with the same packed-row semantics ([`Recurrence::seq_output`]
    /// returns the packed hidden sequence). Under
    /// [`KernelPolicy::Exact`] every sample's rows are bitwise identical
    /// to running [`Recurrence::forward_seq`] on that sample alone;
    /// [`KernelPolicy::FastMath`] routes the dense window products
    /// through the fused inference kernels (epsilon-close, still
    /// deterministic for a fixed backend).
    fn forward_batch_into(
        &self,
        packed: &Matrix,
        batch: &SeqBatch,
        cache: &mut Self::Cache,
        ws: &mut Workspace,
        policy: KernelPolicy,
    );

    /// Batched BPTT companion of [`Recurrence::forward_batch_into`]:
    /// `grad_out` and `grad_inputs` use the packed layout, and parameter
    /// gradients are replayed per sample in original batch order, so the
    /// accumulated `grads` are bitwise identical to per-sample
    /// [`Recurrence::backward_seq`] calls in that order.
    fn backward_batch_into(
        &self,
        batch: &SeqBatch,
        cache: &Self::Cache,
        grad_out: &Matrix,
        grads: &mut [Matrix],
        grad_inputs: &mut Matrix,
        ws: &mut Workspace,
    );

    /// Parameters in a stable order.
    fn params(&self) -> Vec<&Param>;

    /// Mutable parameters in the same order.
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Number of parameter slots ([`Recurrence::params`] length) without
    /// allocating the vector: every cell carries exactly `wx`, `wh`, `b`.
    /// Used by the hot-path gradient-slot splits, which must stay
    /// allocation-free.
    fn n_params(&self) -> usize {
        3
    }
}

/// One directional vanilla RNN cell.
#[derive(Clone, Debug)]
pub struct RnnCell {
    /// Input-to-hidden weights, `input_dim x hidden`.
    pub wx: Param,
    /// Hidden-to-hidden weights, `hidden x hidden`.
    pub wh: Param,
    /// Bias, `1 x hidden`.
    pub b: Param,
}

/// Cache from [`Recurrence::forward_seq`] on an [`RnnCell`]: owns the
/// inputs and the hidden-state sequence (`hidden.row(t)` is `h_t`, which
/// is also the layer output).
#[derive(Clone, Debug, Default)]
pub struct RnnCache {
    /// The `T x input_dim` input sequence.
    pub inputs: Matrix,
    /// The `T x hidden` hidden-state sequence (also the output).
    pub hidden: Matrix,
}

impl RnnCell {
    /// New cell with Glorot input weights and a near-identity recurrent
    /// matrix (see [`init::recurrent_init`]).
    pub fn new(input_dim: usize, hidden: usize, rng: &mut StdRng) -> Self {
        assert!(
            input_dim > 0 && hidden > 0,
            "RnnCell: dims must be positive"
        );
        Self {
            wx: Param::new(init::glorot_uniform(input_dim, hidden, rng)),
            wh: Param::new(init::recurrent_init(hidden, rng)),
            b: Param::new(Matrix::zeros(1, hidden)),
        }
    }
}

impl Recurrence for RnnCell {
    type Cache = RnnCache;

    fn with_dims(input_dim: usize, hidden: usize, rng: &mut StdRng) -> Self {
        RnnCell::new(input_dim, hidden, rng)
    }

    fn input_dim(&self) -> usize {
        self.wx.value.rows()
    }

    fn hidden_dim(&self) -> usize {
        self.wh.value.rows()
    }

    /// Run the recurrence over `inputs` (`T x input_dim`, `T >= 1`).
    fn forward_seq(&self, inputs: Matrix) -> (Matrix, RnnCache) {
        let t_max = inputs.rows();
        assert!(t_max > 0, "RnnCell::forward_seq: empty sequence");
        assert_eq!(
            inputs.cols(),
            self.input_dim(),
            "RnnCell::forward_seq: input width {} != cell input dim {}",
            inputs.cols(),
            self.input_dim()
        );
        let h = self.hidden_dim();
        let mut hidden = Matrix::zeros(t_max, h);
        let mut prev = vec![0.0_f32; h];
        for t in 0..t_max {
            // z_t = x_t Wx + h_{t-1} Wh + b
            let mut z = self.wx.value.vecmat(inputs.row(t));
            let rec = self.wh.value.vecmat(&prev);
            for ((zi, &ri), &bi) in z.iter_mut().zip(&rec).zip(self.b.value.row(0)) {
                *zi = *zi + ri + bi;
            }
            tanh_exact(&mut z);
            hidden.row_mut(t).copy_from_slice(&z);
            prev = z;
        }
        (hidden.clone(), RnnCache { inputs, hidden })
    }

    /// BPTT. `grad_out` is `dL/dh_t` for every step (`T x hidden`);
    /// parameter gradients accumulate into `grads` (slots `wx, wh, b`),
    /// and the gradient with respect to the inputs (`T x input_dim`) is
    /// returned.
    fn backward_seq(&self, cache: &RnnCache, grad_out: &Matrix, grads: &mut [Matrix]) -> Matrix {
        let t_max = cache.hidden.rows();
        let h = self.hidden_dim();
        assert_eq!(
            grad_out.shape(),
            (t_max, h),
            "RnnCell::backward_seq: grad shape {:?} != {:?}",
            grad_out.shape(),
            (t_max, h)
        );
        let (gwx, gwh, gb) = split_cell_grads(grads, "RnnCell::backward_seq");
        let mut dz_all = Matrix::zeros(t_max, h);
        let mut carry = vec![0.0_f32; h]; // dL/dh_t arriving from step t+1
        let wht = self.wh.value.transpose();
        for t in (0..t_max).rev() {
            let h_t = cache.hidden.row(t);
            // dz_t = (dL/dh_t) * tanh'(z_t), with tanh' = 1 - h_t².
            let dz_row = dz_all.row_mut(t);
            for (((dzj, &g), &c), &ht) in
                dz_row.iter_mut().zip(grad_out.row(t)).zip(&carry).zip(h_t)
            {
                *dzj = (g + c) * (1.0 - ht * ht);
            }
            let dz = dz_all.row(t);
            etsb_tensor::add_assign(gb.row_mut(0), dz);
            carry = wht.vecmat(dz);
        }
        // Weight gradients batched over the whole sequence: bitwise
        // identical to ascending per-step `add_outer` calls.
        let mut col = Vec::new();
        gwx.add_transposed_matmul(&cache.inputs, 0, &dz_all, 0, t_max, &mut col);
        if t_max > 1 {
            gwh.add_transposed_matmul(&cache.hidden, 0, &dz_all, 1, t_max - 1, &mut col);
        }
        dz_all.matmul(&self.wx.value.transpose())
    }

    fn seq_output(cache: &RnnCache) -> &Matrix {
        &cache.hidden
    }

    /// Batched forward over a packed timestep-major batch: the per-step
    /// recurrent product becomes one `active x hidden` windowed matmul
    /// whose rows reduce exactly like the per-sample `vecmat`, so each
    /// sample's hidden sequence is bitwise identical to
    /// [`Recurrence::forward_seq`] on that sample alone (under
    /// [`KernelPolicy::Exact`]; `FastMath` is epsilon-close).
    fn forward_batch_into(
        &self,
        packed: &Matrix,
        batch: &SeqBatch,
        cache: &mut RnnCache,
        ws: &mut Workspace,
        policy: KernelPolicy,
    ) {
        assert_eq!(
            packed.shape(),
            (batch.total_rows(), self.input_dim()),
            "RnnCell::forward_batch_into: packed shape {:?} != {:?}",
            packed.shape(),
            (batch.total_rows(), self.input_dim())
        );
        let h = self.hidden_dim();
        cache.inputs.copy_from(packed);
        cache.hidden.resize_zeroed(batch.total_rows(), h);
        let mut z_all = ws.take_mat("rnn.bz_all", 0, 0);
        packed.matmul_window_policy_into(0, packed.rows(), &self.wx.value, &mut z_all, policy);
        let mut rec = ws.take_mat("rnn.brec", 0, 0);
        let b = self.b.value.row(0);
        for t in 0..batch.t_max() {
            let n_act = batch.active(t);
            if t == 0 {
                // h_{-1} = 0: the recurrent product is exactly the zero
                // vector the per-sample path gets from `vecmat(0)`.
                rec.resize_zeroed(n_act, h);
            } else {
                cache.hidden.matmul_window_policy_into(
                    batch.offset(t - 1),
                    n_act,
                    &self.wh.value,
                    &mut rec,
                    policy,
                );
            }
            let off = batch.offset(t);
            for s in 0..n_act {
                let h_row = cache.hidden.row_mut(off + s);
                for (((hj, &zj), &rj), &bj) in h_row
                    .iter_mut()
                    .zip(z_all.row(off + s))
                    .zip(rec.row(s))
                    .zip(b)
                {
                    *hj = zj + rj + bj;
                }
            }
            // Step t's active rows are contiguous: one elementwise tanh
            // over the whole block.
            policy.tanh(&mut cache.hidden.as_mut_slice()[off * h..(off + n_act) * h]);
        }
        ws.put_mat("rnn.brec", rec);
        ws.put_mat("rnn.bz_all", z_all);
    }

    /// Batched BPTT over a packed batch, bitwise identical to per-sample
    /// [`Recurrence::backward_seq`] calls in original batch order: the
    /// carry matrix shrinks with the active batch (samples retiring after
    /// step `t` read the same all-zero carry a fresh per-sample backward
    /// starts from), and weight/bias gradients are replayed per sample.
    fn backward_batch_into(
        &self,
        batch: &SeqBatch,
        cache: &RnnCache,
        grad_out: &Matrix,
        grads: &mut [Matrix],
        grad_inputs: &mut Matrix,
        ws: &mut Workspace,
    ) {
        let h = self.hidden_dim();
        let total = batch.total_rows();
        assert_eq!(
            grad_out.shape(),
            (total, h),
            "RnnCell::backward_batch_into: grad shape {:?} != {:?}",
            grad_out.shape(),
            (total, h)
        );
        let mut dz_all = ws.take_mat("rnn.bdz_all", total, h);
        let mut carry = ws.take_mat("rnn.bcarry", 0, 0);
        let zero = ws.take_vec("batch.zero", h);
        let mut wht = ws.take_mat("rnn.wht", 0, 0);
        self.wh.value.transpose_into(&mut wht);
        let t_max = batch.t_max();
        for t in (0..t_max).rev() {
            let n_act = batch.active(t);
            let off = batch.offset(t);
            let carried = if t + 1 < t_max {
                batch.active(t + 1)
            } else {
                0
            };
            for s in 0..n_act {
                let c: &[f32] = if s < carried { carry.row(s) } else { &zero };
                let h_t = cache.hidden.row(off + s);
                let dz_row = dz_all.row_mut(off + s);
                for (((dzj, &g), &cj), &ht) in
                    dz_row.iter_mut().zip(grad_out.row(off + s)).zip(c).zip(h_t)
                {
                    *dzj = (g + cj) * (1.0 - ht * ht);
                }
            }
            if t > 0 {
                dz_all.matmul_window_into(off, n_act, &wht, &mut carry);
            }
        }
        accumulate_seq_grads(
            batch,
            &cache.inputs,
            &cache.hidden,
            &dz_all,
            &dz_all,
            grads,
            ws,
        );
        let mut wxt = ws.take_mat("rnn.wxt", 0, 0);
        self.wx.value.transpose_into(&mut wxt);
        dz_all.matmul_window_into(0, dz_all.rows(), &wxt, grad_inputs);
        ws.put_mat("rnn.wxt", wxt);
        ws.put_mat("rnn.wht", wht);
        ws.put_vec("batch.zero", zero);
        ws.put_mat("rnn.bcarry", carry);
        ws.put_mat("rnn.bdz_all", dz_all);
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.wx, &self.wh, &self.b]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.wx, &mut self.wh, &mut self.b]
    }
}

/// Reverse the row order of a matrix (time reversal).
fn reverse_rows(m: &Matrix) -> Matrix {
    let (rows, cols) = m.shape();
    let mut out = Matrix::zeros(rows, cols);
    for r in 0..rows {
        out.row_mut(rows - 1 - r).copy_from_slice(m.row(r));
    }
    out
}

/// A bidirectional recurrent layer: one forward cell, one backward cell,
/// output per step is `[h_fwd_t ‖ h_bwd_t]` (width `2 * hidden`), matching
/// Keras' `Bidirectional(..., merge_mode="concat")`. Generic over the
/// cell; the default is the paper's vanilla [`RnnCell`].
#[derive(Clone, Debug)]
pub struct BiRnn<C: Recurrence = RnnCell> {
    /// Cell consuming the sequence left-to-right.
    pub fwd: C,
    /// Cell consuming the sequence right-to-left.
    pub bwd: C,
}

/// Cache from [`BiRnn::forward`].
#[derive(Clone, Debug)]
pub struct BiRnnCache<C: Recurrence = RnnCell> {
    fwd: C::Cache,
    /// Backward-cell cache; its rows are in *reversed* time order.
    bwd: C::Cache,
    seq_len: usize,
}

// Manual impl: a derive would demand `C: Default`, which the cells don't
// (and shouldn't) provide — only their caches do.
impl<C: Recurrence> Default for BiRnnCache<C> {
    fn default() -> Self {
        Self {
            fwd: C::Cache::default(),
            bwd: C::Cache::default(),
            seq_len: 0,
        }
    }
}

impl<C: Recurrence> BiRnn<C> {
    /// New bidirectional layer with independently initialized cells.
    pub fn new(input_dim: usize, hidden: usize, rng: &mut StdRng) -> Self {
        Self {
            fwd: C::with_dims(input_dim, hidden, rng),
            bwd: C::with_dims(input_dim, hidden, rng),
        }
    }

    /// Per-direction hidden width (output width is twice this).
    pub fn hidden_dim(&self) -> usize {
        self.fwd.hidden_dim()
    }

    /// Output width (`2 * hidden`).
    pub fn output_dim(&self) -> usize {
        2 * self.hidden_dim()
    }

    /// Run both directions; returns the `T x 2·hidden` output sequence.
    pub fn forward(&self, inputs: Matrix) -> (Matrix, BiRnnCache<C>) {
        let seq_len = inputs.rows();
        let reversed = reverse_rows(&inputs);
        let (out_fwd, fwd) = self.fwd.forward_seq(inputs);
        let (out_bwd, bwd) = self.bwd.forward_seq(reversed);
        let h = self.hidden_dim();
        let mut out = Matrix::zeros(seq_len, 2 * h);
        for t in 0..seq_len {
            out.row_mut(t)[..h].copy_from_slice(out_fwd.row(t));
            // Backward cell's state for original position t was computed at
            // reversed step T-1-t.
            out.row_mut(t)[h..].copy_from_slice(out_bwd.row(seq_len - 1 - t));
        }
        out.assert_finite("birnn", "forward(recurrent-activation)");
        (out, BiRnnCache { fwd, bwd, seq_len })
    }

    /// Backward through both directions; `grad_out` is `T x 2·hidden` in
    /// output layout, `grads` holds one slot per parameter in [`BiRnn::params`]
    /// order (fwd cell then bwd cell). Returns `T x input_dim` input
    /// gradients.
    pub fn backward(
        &self,
        cache: &BiRnnCache<C>,
        grad_out: &Matrix,
        grads: &mut [Matrix],
    ) -> Matrix {
        let t_max = cache.seq_len;
        let h = self.hidden_dim();
        assert_eq!(
            grad_out.shape(),
            (t_max, 2 * h),
            "BiRnn::backward: grad shape {:?} != {:?}",
            grad_out.shape(),
            (t_max, 2 * h)
        );
        let n_fwd = self.fwd.n_params();
        assert_eq!(
            grads.len(),
            n_fwd + self.bwd.n_params(),
            "BiRnn::backward: gradient slot count"
        );
        let (grads_fwd, grads_bwd) = grads.split_at_mut(n_fwd);
        let mut grad_fwd = Matrix::zeros(t_max, h);
        let mut grad_bwd = Matrix::zeros(t_max, h);
        for t in 0..t_max {
            grad_fwd.row_mut(t).copy_from_slice(&grad_out.row(t)[..h]);
            grad_bwd
                .row_mut(t_max - 1 - t)
                .copy_from_slice(&grad_out.row(t)[h..]);
        }
        let gi_fwd = self.fwd.backward_seq(&cache.fwd, &grad_fwd, grads_fwd);
        let gi_bwd_rev = self.bwd.backward_seq(&cache.bwd, &grad_bwd, grads_bwd);
        let mut grad_inputs = gi_fwd;
        let gi_bwd = reverse_rows(&gi_bwd_rev);
        grad_inputs.add_assign(&gi_bwd);
        grad_inputs.assert_finite("birnn", "backward(grad-in)");
        grad_inputs
    }

    /// Batched forward over a packed timestep-major batch: both cells run
    /// their batched recurrence (the backward cell on the per-sample
    /// time-reversed packing), and `out` receives the concatenated
    /// `[h_fwd ‖ h_bwd]` rows in packed layout. Bitwise identical to
    /// per-sample [`BiRnn::forward`] calls under
    /// [`KernelPolicy::Exact`]; epsilon-close under `FastMath`.
    pub fn forward_batch_into(
        &self,
        packed: &Matrix,
        batch: &SeqBatch,
        out: &mut Matrix,
        cache: &mut BiRnnCache<C>,
        ws: &mut Workspace,
        policy: KernelPolicy,
    ) {
        assert_eq!(
            packed.shape(),
            (batch.total_rows(), self.fwd.input_dim()),
            "BiRnn::forward_batch_into: packed shape {:?} != {:?}",
            packed.shape(),
            (batch.total_rows(), self.fwd.input_dim())
        );
        let mut reversed = ws.take_mat("birnn.brev", 0, 0);
        batch.reverse_packed_into(packed, &mut reversed);
        self.fwd
            .forward_batch_into(packed, batch, &mut cache.fwd, ws, policy);
        self.bwd
            .forward_batch_into(&reversed, batch, &mut cache.bwd, ws, policy);
        cache.seq_len = batch.t_max();
        let h = self.hidden_dim();
        out.resize_zeroed(batch.total_rows(), 2 * h);
        let out_fwd = C::seq_output(&cache.fwd);
        let out_bwd = C::seq_output(&cache.bwd);
        for s in 0..batch.n_samples() {
            let len = batch.len_at(s);
            for t in 0..len {
                let row = out.row_mut(batch.row(s, t));
                row[..h].copy_from_slice(out_fwd.row(batch.row(s, t)));
                // The backward cell's state for a sample's position t was
                // computed at its reversed step len-1-t.
                row[h..].copy_from_slice(out_bwd.row(batch.row(s, len - 1 - t)));
            }
        }
        out.assert_finite("birnn", "forward(recurrent-activation)");
        ws.put_mat("birnn.brev", reversed);
    }

    /// Batched backward through both directions on the packed layout.
    /// Bitwise identical to per-sample [`BiRnn::backward`] calls in
    /// original batch order (the two cells fill disjoint gradient slots,
    /// so per-slot accumulation order is preserved).
    pub fn backward_batch_into(
        &self,
        batch: &SeqBatch,
        cache: &BiRnnCache<C>,
        grad_out: &Matrix,
        grads: &mut [Matrix],
        grad_inputs: &mut Matrix,
        ws: &mut Workspace,
    ) {
        let h = self.hidden_dim();
        let total = batch.total_rows();
        assert_eq!(
            grad_out.shape(),
            (total, 2 * h),
            "BiRnn::backward_batch_into: grad shape {:?} != {:?}",
            grad_out.shape(),
            (total, 2 * h)
        );
        let n_fwd = self.fwd.n_params();
        assert_eq!(
            grads.len(),
            n_fwd + self.bwd.n_params(),
            "BiRnn::backward_batch_into: gradient slot count"
        );
        let (grads_fwd, grads_bwd) = grads.split_at_mut(n_fwd);
        let mut grad_fwd = ws.take_mat("birnn.bgrad_fwd", total, h);
        let mut grad_bwd = ws.take_mat("birnn.bgrad_bwd", total, h);
        for s in 0..batch.n_samples() {
            let len = batch.len_at(s);
            for t in 0..len {
                let g = grad_out.row(batch.row(s, t));
                grad_fwd.row_mut(batch.row(s, t)).copy_from_slice(&g[..h]);
                grad_bwd
                    .row_mut(batch.row(s, len - 1 - t))
                    .copy_from_slice(&g[h..]);
            }
        }
        self.fwd
            .backward_batch_into(batch, &cache.fwd, &grad_fwd, grads_fwd, grad_inputs, ws);
        let mut gi_bwd_rev = ws.take_mat("birnn.bgi_bwd", 0, 0);
        self.bwd
            .backward_batch_into(batch, &cache.bwd, &grad_bwd, grads_bwd, &mut gi_bwd_rev, ws);
        // Per sample: grad_inputs[t] += gi_bwd_rev[len-1-t], the same
        // element order as the per-sample reverse-then-add.
        for s in 0..batch.n_samples() {
            let len = batch.len_at(s);
            for r in 0..len {
                etsb_tensor::add_assign(
                    grad_inputs.row_mut(batch.row(s, len - 1 - r)),
                    gi_bwd_rev.row(batch.row(s, r)),
                );
            }
        }
        grad_inputs.assert_finite("birnn", "backward(grad-in)");
        ws.put_mat("birnn.bgi_bwd", gi_bwd_rev);
        ws.put_mat("birnn.bgrad_bwd", grad_bwd);
        ws.put_mat("birnn.bgrad_fwd", grad_fwd);
    }

    /// Parameter-slot count of both cells without allocating the vector
    /// (hot-path gradient splits must stay allocation-free).
    pub fn n_params(&self) -> usize {
        self.fwd.n_params() + self.bwd.n_params()
    }

    /// Parameters of both cells (stable order: fwd then bwd).
    pub fn params(&self) -> Vec<&Param> {
        let mut p = self.fwd.params();
        p.extend(self.bwd.params());
        p
    }

    /// Mutable parameters in the same order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let (f, b) = (&mut self.fwd, &mut self.bwd);
        let mut p = f.params_mut();
        p.extend(b.params_mut());
        p
    }
}

/// The paper's *two-stacked* bidirectional RNN (§4.3): two [`BiRnn`] layers
/// in series, the second consuming the first's full output sequence; the
/// layer output is the concatenation of the second layer's two final
/// states (`[fwd_{T-1} ‖ bwd after consuming x_0]`), i.e. Keras'
/// `Bidirectional(SimpleRNN(h, return_sequences=True))` followed by
/// `Bidirectional(SimpleRNN(h))`. Generic over the recurrent cell.
#[derive(Clone, Debug)]
pub struct StackedBiRnn<C: Recurrence = RnnCell> {
    /// First bidirectional layer (`input_dim -> 2h`).
    pub layer1: BiRnn<C>,
    /// Second bidirectional layer (`2h -> 2h`).
    pub layer2: BiRnn<C>,
}

/// Cache from [`StackedBiRnn::forward`].
#[derive(Clone, Debug)]
pub struct StackedBiRnnCache<C: Recurrence = RnnCell> {
    l1: BiRnnCache<C>,
    l2: BiRnnCache<C>,
    seq_len: usize,
}

impl<C: Recurrence> Default for StackedBiRnnCache<C> {
    fn default() -> Self {
        Self {
            l1: BiRnnCache::default(),
            l2: BiRnnCache::default(),
            seq_len: 0,
        }
    }
}

impl<C: Recurrence> StackedBiRnn<C> {
    /// New two-stacked bidirectional RNN with `hidden` units per direction.
    pub fn new(input_dim: usize, hidden: usize, rng: &mut StdRng) -> Self {
        Self {
            layer1: BiRnn::new(input_dim, hidden, rng),
            layer2: BiRnn::new(2 * hidden, hidden, rng),
        }
    }

    /// Width of the final feature vector (`2 * hidden`).
    pub fn output_dim(&self) -> usize {
        self.layer2.output_dim()
    }

    /// Encode a sequence into a `2·hidden` feature vector.
    pub fn forward(&self, inputs: Matrix) -> (Vec<f32>, StackedBiRnnCache<C>) {
        let seq_len = inputs.rows();
        let (seq1, l1) = self.layer1.forward(inputs);
        let (seq2, l2) = self.layer2.forward(seq1);
        let h = self.layer2.hidden_dim();
        let t_last = seq_len - 1;
        let mut out = vec![0.0_f32; 2 * h];
        // Final forward state lives in the last output row's first half;
        // the backward cell's final state (after consuming x_0) lives in
        // the *first* output row's second half.
        out[..h].copy_from_slice(&seq2.row(t_last)[..h]);
        out[h..].copy_from_slice(&seq2.row(0)[h..]);
        (out, StackedBiRnnCache { l1, l2, seq_len })
    }

    /// Backward from a gradient on the final feature vector; `grads` holds
    /// one slot per parameter in [`StackedBiRnn::params`] order (layer1
    /// then layer2). Returns the gradient with respect to the input
    /// sequence.
    pub fn backward(
        &self,
        cache: &StackedBiRnnCache<C>,
        grad_out: &[f32],
        grads: &mut [Matrix],
    ) -> Matrix {
        let h = self.layer2.hidden_dim();
        assert_eq!(grad_out.len(), 2 * h, "StackedBiRnn::backward: grad width");
        let n_l1 = self.layer1.n_params();
        assert_eq!(
            grads.len(),
            n_l1 + self.layer2.n_params(),
            "StackedBiRnn::backward: gradient slot count"
        );
        let (grads_l1, grads_l2) = grads.split_at_mut(n_l1);
        let t_max = cache.seq_len;
        let mut grad_seq2 = Matrix::zeros(t_max, 2 * h);
        grad_seq2.row_mut(t_max - 1)[..h].copy_from_slice(&grad_out[..h]);
        grad_seq2.row_mut(0)[h..].copy_from_slice(&grad_out[h..]);
        let grad_seq1 = self.layer2.backward(&cache.l2, &grad_seq2, grads_l2);
        self.layer1.backward(&cache.l1, &grad_seq1, grads_l1)
    }

    /// Batched encode of a packed batch: both layers run batched, then
    /// each sample's `2·hidden` feature vector lands in `features` row
    /// `orig` (original batch order — the restore-order index map).
    /// Bitwise identical to per-sample [`StackedBiRnn::forward`]
    /// under [`KernelPolicy::Exact`]; epsilon-close under `FastMath`.
    // etsb: allow(shape-assert, into-shape-assert) -- thin delegation; layer1's batched forward asserts `packed`, and `features` is a resized sink.
    pub fn forward_batch_into(
        &self,
        packed: &Matrix,
        batch: &SeqBatch,
        features: &mut Matrix,
        cache: &mut StackedBiRnnCache<C>,
        ws: &mut Workspace,
        policy: KernelPolicy,
    ) {
        let h = self.layer2.hidden_dim();
        let mut seq1 = ws.take_mat("stacked.bseq1", 0, 0);
        self.layer1
            .forward_batch_into(packed, batch, &mut seq1, &mut cache.l1, ws, policy);
        let mut seq2 = ws.take_mat("stacked.bseq2", 0, 0);
        self.layer2
            .forward_batch_into(&seq1, batch, &mut seq2, &mut cache.l2, ws, policy);
        cache.seq_len = batch.t_max();
        features.resize_zeroed(batch.n_samples(), 2 * h);
        for orig in 0..batch.n_samples() {
            let slot = batch.slot_of(orig);
            let len = batch.len_at(slot);
            let out = features.row_mut(orig);
            out[..h].copy_from_slice(&seq2.row(batch.row(slot, len - 1))[..h]);
            out[h..].copy_from_slice(&seq2.row(batch.row(slot, 0))[h..]);
        }
        ws.put_mat("stacked.bseq2", seq2);
        ws.put_mat("stacked.bseq1", seq1);
    }

    /// Batched backward from per-sample feature gradients (`grad_features`
    /// row `orig` is sample `orig`'s gradient); input gradients come back
    /// in packed layout. Bitwise identical to per-sample
    /// [`StackedBiRnn::backward`] calls in original batch order.
    pub fn backward_batch_into(
        &self,
        batch: &SeqBatch,
        cache: &StackedBiRnnCache<C>,
        grad_features: &Matrix,
        grads: &mut [Matrix],
        grad_inputs: &mut Matrix,
        ws: &mut Workspace,
    ) {
        let h = self.layer2.hidden_dim();
        assert_eq!(
            grad_features.shape(),
            (batch.n_samples(), 2 * h),
            "StackedBiRnn::backward_batch_into: grad shape {:?} != {:?}",
            grad_features.shape(),
            (batch.n_samples(), 2 * h)
        );
        let n_l1 = self.layer1.n_params();
        assert_eq!(
            grads.len(),
            n_l1 + self.layer2.n_params(),
            "StackedBiRnn::backward_batch_into: gradient slot count"
        );
        let (grads_l1, grads_l2) = grads.split_at_mut(n_l1);
        let mut grad_seq2 = ws.take_mat("stacked.bgrad_seq2", batch.total_rows(), 2 * h);
        for orig in 0..batch.n_samples() {
            let slot = batch.slot_of(orig);
            let len = batch.len_at(slot);
            let g = grad_features.row(orig);
            grad_seq2.row_mut(batch.row(slot, len - 1))[..h].copy_from_slice(&g[..h]);
            grad_seq2.row_mut(batch.row(slot, 0))[h..].copy_from_slice(&g[h..]);
        }
        let mut grad_seq1 = ws.take_mat("stacked.bgrad_seq1", 0, 0);
        self.layer2
            .backward_batch_into(batch, &cache.l2, &grad_seq2, grads_l2, &mut grad_seq1, ws);
        self.layer1
            .backward_batch_into(batch, &cache.l1, &grad_seq1, grads_l1, grad_inputs, ws);
        ws.put_mat("stacked.bgrad_seq1", grad_seq1);
        ws.put_mat("stacked.bgrad_seq2", grad_seq2);
    }

    /// All parameters (layer1 then layer2, each fwd then bwd).
    pub fn params(&self) -> Vec<&Param> {
        let mut p = self.layer1.params();
        p.extend(self.layer2.params());
        p
    }

    /// Mutable parameters in the same order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let (l1, l2) = (&mut self.layer1, &mut self.layer2);
        let mut p = l1.params_mut();
        p.extend(l2.params_mut());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsb_tensor::init::seeded_rng;

    #[test]
    fn rnn_forward_shapes_and_state_propagation() {
        let mut rng = seeded_rng(1);
        let cell = RnnCell::new(3, 4, &mut rng);
        let inputs = Matrix::from_fn(5, 3, |i, j| (i as f32 - j as f32) * 0.1);
        let (out, _) = cell.forward_seq(inputs.clone());
        assert_eq!(out.shape(), (5, 4));
        // Same input at t=0 and t=1 but different hidden states because of
        // the recurrence (h_0 feeds into h_1).
        let constant = Matrix::from_fn(2, 3, |_, _| 0.3);
        let (out, _) = cell.forward_seq(constant);
        assert_ne!(out.row(0), out.row(1));
    }

    #[test]
    fn rnn_outputs_bounded_by_tanh() {
        let mut rng = seeded_rng(2);
        let cell = RnnCell::new(2, 8, &mut rng);
        let inputs = Matrix::from_fn(20, 2, |i, _| i as f32);
        let (out, _) = cell.forward_seq(inputs);
        assert!(out.as_slice().iter().all(|&x| x.abs() <= 1.0));
    }

    #[test]
    fn single_step_sequence_works() {
        let mut rng = seeded_rng(3);
        let s: StackedBiRnn = StackedBiRnn::new(4, 3, &mut rng);
        let (out, _) = s.forward(Matrix::from_fn(1, 4, |_, j| j as f32 * 0.1));
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn birnn_is_symmetric_under_reversal_with_swapped_cells() {
        // Running BiRnn on a reversed sequence with fwd/bwd cells swapped
        // must produce the row-reversed, half-swapped output.
        let mut rng = seeded_rng(4);
        let b: BiRnn = BiRnn::new(3, 2, &mut rng);
        let swapped = BiRnn {
            fwd: b.bwd.clone(),
            bwd: b.fwd.clone(),
        };
        let x = Matrix::from_fn(6, 3, |i, j| ((i * 3 + j) as f32).sin());
        let (out, _) = b.forward(x.clone());
        let (out_rev, _) = swapped.forward(reverse_rows(&x));
        let h = 2;
        for t in 0..6 {
            let orig = out.row(t);
            let mirrored = out_rev.row(5 - t);
            assert!(etsb_tensor::max_abs_diff(&orig[..h], &mirrored[h..]) < 1e-6);
            assert!(etsb_tensor::max_abs_diff(&orig[h..], &mirrored[..h]) < 1e-6);
        }
    }

    #[test]
    fn stacked_output_dim() {
        let mut rng = seeded_rng(5);
        let s: StackedBiRnn = StackedBiRnn::new(10, 64, &mut rng);
        assert_eq!(s.output_dim(), 128);
        assert_eq!(s.params().len(), 12);
    }

    /// Full BPTT gradient check on a tiny cell: perturb every weight and
    /// compare the analytic gradient of a scalar loss (sum of all hidden
    /// states) against central differences.
    #[test]
    fn rnn_cell_gradient_check() {
        let mut rng = seeded_rng(6);
        let cell = RnnCell::new(2, 3, &mut rng);
        let inputs = Matrix::from_fn(4, 2, |i, j| ((i + j) as f32 * 0.7).sin() * 0.5);

        let loss = |c: &RnnCell| c.forward_seq(inputs.clone()).0.sum();

        let (_, cache) = cell.forward_seq(inputs.clone());
        let ones = Matrix::full(4, 3, 1.0);
        let mut grads = crate::param::grad_buffer_for(&cell.params());
        let grad_inputs = cell.backward_seq(&cache, &ones, grads.slots_mut());

        let h = 1e-3_f32;
        // Check a selection of weights in each parameter.
        for (pi, coords) in [(0, (1, 2)), (1, (0, 1)), (2, (0, 2))] {
            let analytic = grads.slot(pi)[coords];
            let mut plus = cell.clone();
            plus.params_mut()[pi].value[coords] += h;
            let mut minus = cell.clone();
            minus.params_mut()[pi].value[coords] -= h;
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * h);
            assert!(
                (numeric - analytic).abs() < 2e-2 * analytic.abs().max(1.0),
                "param {pi} {coords:?}: numeric {numeric} vs analytic {analytic}"
            );
        }
        // And the input gradient.
        let analytic = grad_inputs[(1, 0)];
        let mut xp = inputs.clone();
        xp[(1, 0)] += h;
        let mut xm = inputs.clone();
        xm[(1, 0)] -= h;
        let numeric = (cell.forward_seq(xp).0.sum() - cell.forward_seq(xm).0.sum()) / (2.0 * h);
        assert!(
            (numeric - analytic).abs() < 2e-2 * analytic.abs().max(1.0),
            "input grad: numeric {numeric} vs analytic {analytic}"
        );
    }

    /// Gradient check through the full two-stacked bidirectional network.
    #[test]
    fn stacked_birnn_gradient_check() {
        let mut rng = seeded_rng(7);
        let net = StackedBiRnn::new(2, 2, &mut rng);
        let inputs = Matrix::from_fn(3, 2, |i, j| ((i * 2 + j) as f32 * 0.9).cos() * 0.4);

        let loss = |n: &StackedBiRnn| n.forward(inputs.clone()).0.iter().sum::<f32>();

        let (out, cache) = net.forward(inputs.clone());
        let mut grads = crate::param::grad_buffer_for(&net.params());
        let grad_inputs = net.backward(&cache, &vec![1.0; out.len()], grads.slots_mut());

        let h = 1e-3_f32;
        // One weight from every cell of both layers.
        for pi in 0..12 {
            let analytic = grads.slot(pi)[(0, 0)];
            let mut plus = net.clone();
            plus.params_mut()[pi].value[(0, 0)] += h;
            let mut minus = net.clone();
            minus.params_mut()[pi].value[(0, 0)] -= h;
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * h);
            assert!(
                (numeric - analytic).abs() < 3e-2 * analytic.abs().max(1.0),
                "param {pi}: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Input gradient.
        let analytic = grad_inputs[(2, 1)];
        let mut xp = inputs.clone();
        xp[(2, 1)] += h;
        let mut xm = inputs.clone();
        xm[(2, 1)] -= h;
        let loss_of = |x: Matrix| net.forward(x).0.iter().sum::<f32>();
        let numeric = (loss_of(xp) - loss_of(xm)) / (2.0 * h);
        assert!(
            (numeric - analytic).abs() < 3e-2 * analytic.abs().max(1.0),
            "input grad: numeric {numeric} vs analytic {analytic}"
        );
    }

    /// The batched tentpole contract: packing mixed-length samples into a
    /// timestep-major batch and running the batched kernels yields
    /// bit-identical features, parameter gradients and input gradients to
    /// the allocating per-sample oracle (the path the gradient checks
    /// above pin) — for every cell kind.
    #[test]
    fn batched_paths_are_bitwise_identical_to_per_sample_paths() {
        fn check<C: Recurrence>(seed: u64) {
            let mut rng = seeded_rng(seed);
            let net: StackedBiRnn<C> = StackedBiRnn::new(5, 4, &mut rng);
            // Mixed lengths with duplicates and a length-1 sample, in
            // scrambled order so the sort + restore map is exercised.
            let lens = [7usize, 3, 9, 1, 4, 9];
            let inputs: Vec<Matrix> = lens
                .iter()
                .enumerate()
                .map(|(v, &len)| {
                    Matrix::from_fn(len, 5, |i, j| ((i * 5 + j + v) as f32 * 0.37).sin() * 0.8)
                })
                .collect();
            let gseeds: Vec<Vec<f32>> = (0..lens.len())
                .map(|v| {
                    (0..net.output_dim())
                        .map(|i| ((i + v) as f32 * 0.71).cos())
                        .collect()
                })
                .collect();

            // Per-sample oracle: samples in original order, gradients
            // accumulating into one shared buffer — exactly what one
            // shard of the pre-batching training path did.
            let mut grads_ref = crate::param::grad_buffer_for(&net.params());
            let mut feats_ref: Vec<Vec<f32>> = Vec::new();
            let mut gi_ref: Vec<Matrix> = Vec::new();
            for (x, g) in inputs.iter().zip(&gseeds) {
                let (out, cache) = net.forward(x.clone());
                feats_ref.push(out);
                gi_ref.push(net.backward(&cache, g, grads_ref.slots_mut()));
            }

            // Batched path: pack, run once, compare against every sample.
            let batch = SeqBatch::from_lengths(&lens);
            let mut packed = Matrix::zeros(batch.total_rows(), 5);
            for (orig, x) in inputs.iter().enumerate() {
                let slot = batch.slot_of(orig);
                for t in 0..x.rows() {
                    packed.row_mut(batch.row(slot, t)).copy_from_slice(x.row(t));
                }
            }
            let mut bcache = StackedBiRnnCache::<C>::default();
            let mut feats = Matrix::default();
            let mut bws = Workspace::new();
            net.forward_batch_into(
                &packed,
                &batch,
                &mut feats,
                &mut bcache,
                &mut bws,
                KernelPolicy::Exact,
            );
            for (orig, f) in feats_ref.iter().enumerate() {
                assert_eq!(
                    feats.row(orig),
                    f.as_slice(),
                    "features diverge (sample {orig})"
                );
            }
            let mut grad_feats = Matrix::zeros(lens.len(), net.output_dim());
            for (orig, g) in gseeds.iter().enumerate() {
                grad_feats.row_mut(orig).copy_from_slice(g);
            }
            let mut grads_b = crate::param::grad_buffer_for(&net.params());
            let mut gi_packed = Matrix::default();
            net.backward_batch_into(
                &batch,
                &bcache,
                &grad_feats,
                grads_b.slots_mut(),
                &mut gi_packed,
                &mut bws,
            );
            for s in 0..grads_ref.len() {
                assert_eq!(grads_ref.slot(s), grads_b.slot(s), "grad slot {s} diverges");
            }
            for (orig, gi) in gi_ref.iter().enumerate() {
                let slot = batch.slot_of(orig);
                for t in 0..gi.rows() {
                    assert_eq!(
                        gi_packed.row(batch.row(slot, t)),
                        gi.row(t),
                        "input grad diverges (sample {orig}, step {t})"
                    );
                }
            }
        }
        check::<RnnCell>(31);
        check::<crate::GruCell>(32);
        check::<crate::LstmCell>(33);
    }

    /// Every cell's batched forward takes its tanh from the policy. With
    /// zero weights both policies' products are exactly zero, so the
    /// pre-activations of a first step are the biases and its hidden
    /// state has a closed form in them.
    #[test]
    fn batched_cells_take_tanh_from_the_policy() {
        use crate::activation::sigmoid;
        use crate::{GruCell, LstmCell};
        use etsb_tensor::simd::tanh_fast;

        type Tanh = fn(&mut [f32]);
        fn fast_step<C: Recurrence>(mut cell: C, bias: &[f32]) -> Vec<f32> {
            let mut params = cell.params_mut();
            params[0].value.map_inplace(|_| 0.0);
            params[1].value.map_inplace(|_| 0.0);
            params[2].value.as_mut_slice().copy_from_slice(bias);
            let packed = Matrix::from_fn(1, cell.input_dim(), |_, j| 0.5 - j as f32 * 0.4);
            let mut cache = C::Cache::default();
            cell.forward_batch_into(
                &packed,
                &SeqBatch::from_lengths(&[1]),
                &mut cache,
                &mut Workspace::new(),
                KernelPolicy::FastMath,
            );
            C::seq_output(&cache).row(0).to_vec()
        }
        fn apply(tanh: Tanh, xs: &[f32]) -> Vec<f32> {
            let mut ys = xs.to_vec();
            tanh(&mut ys);
            ys
        }
        let h = 4;
        let b: Vec<f32> = (0..4 * h).map(|j| j as f32 * 0.29 - 2.1).collect();
        let sig = |xs: &[f32]| xs.iter().map(|&x| sigmoid(x)).collect::<Vec<f32>>();
        // h = tanh(b)
        let vanilla = |tanh: Tanh| apply(tanh, &b[..h]);
        // h = (1 - z)·tanh(b_n) + z·0
        let gru = |tanh: Tanh| {
            let (z, n) = (sig(&b[..h]), apply(tanh, &b[2 * h..3 * h]));
            (0..h).map(|j| (1.0 - z[j]) * n[j] + z[j] * 0.0).collect()
        };
        // c = f·0 + i·tanh(b_g), h = o·tanh(c)
        let lstm = |tanh: Tanh| {
            let (i, f, o) = (sig(&b[..h]), sig(&b[h..2 * h]), sig(&b[3 * h..]));
            let g = apply(tanh, &b[2 * h..3 * h]);
            let c: Vec<f32> = (0..h).map(|j| f[j] * 0.0 + i[j] * g[j]).collect();
            let tc = apply(tanh, &c);
            (0..h).map(|j| o[j] * tc[j]).collect()
        };
        let check = |name: &str, got: Vec<f32>, closed: &dyn Fn(Tanh) -> Vec<f32>| {
            assert_ne!(
                closed(tanh_exact),
                closed(tanh_fast),
                "{name}: the biases must tell the two tanh kernels apart"
            );
            assert_eq!(got, closed(tanh_fast), "{name}: FastMath forward");
        };
        let mut rng = seeded_rng(9);
        check(
            "vanilla",
            fast_step(RnnCell::new(3, h, &mut rng), &b[..h]),
            &vanilla,
        );
        check(
            "gru",
            fast_step(GruCell::new(3, h, &mut rng), &b[..3 * h]),
            &gru,
        );
        check("lstm", fast_step(LstmCell::new(3, h, &mut rng), &b), &lstm);
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_sequence_panics() {
        let mut rng = seeded_rng(8);
        let cell = RnnCell::new(2, 2, &mut rng);
        let _ = cell.forward_seq(Matrix::zeros(0, 2));
    }
}
