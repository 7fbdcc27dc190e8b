//! GRU cell (Cho et al. 2014) with full BPTT.
//!
//! Classic (reset-before) formulation:
//!
//! ```text
//! z_t = σ(x_t Wxz + h_{t-1} Whz + bz)         update gate
//! r_t = σ(x_t Wxr + h_{t-1} Whr + br)         reset gate
//! n_t = tanh(x_t Wxn + r_t ⊙ (h_{t-1} Whn) + bn)
//! h_t = (1 - z_t) ⊙ n_t + z_t ⊙ h_{t-1}
//! ```
//!
//! Gate layout in the fused weight matrices: `[z, r, n]`.

use crate::activation::sigmoid;
use crate::batch::{accumulate_seq_grads, SeqBatch};
use crate::rnn::{split_cell_grads, Recurrence};
use crate::Param;
use etsb_tensor::simd::tanh_exact;
use etsb_tensor::{init, KernelPolicy, Matrix, Workspace};
use rand::rngs::StdRng;

/// A GRU cell with fused gate weights.
#[derive(Clone, Debug)]
pub struct GruCell {
    /// Input weights, `input_dim x 3·hidden` (gates z, r, n).
    pub wx: Param,
    /// Recurrent weights, `hidden x 3·hidden`.
    pub wh: Param,
    /// Bias, `1 x 3·hidden`.
    pub b: Param,
    hidden: usize,
}

/// Cache from [`GruCell::forward_seq`].
#[derive(Clone, Debug, Default)]
pub struct GruCache {
    inputs: Matrix,
    /// Activated gates per step, `T x 3·hidden`: `[z, r, n]`.
    gates: Matrix,
    /// The pre-reset hidden contribution `h_{t-1} Whn`, `T x hidden`
    /// (needed for the reset-gate gradient).
    hn: Matrix,
    /// Hidden states (outputs), `T x hidden`.
    hidden: Matrix,
}

impl GruCell {
    /// New cell with Glorot weights and zero bias.
    pub fn new(input_dim: usize, hidden: usize, rng: &mut StdRng) -> Self {
        assert!(
            input_dim > 0 && hidden > 0,
            "GruCell: dims must be positive"
        );
        Self {
            wx: Param::new(init::glorot_uniform(input_dim, 3 * hidden, rng)),
            wh: Param::new(init::glorot_uniform(hidden, 3 * hidden, rng)),
            b: Param::new(Matrix::zeros(1, 3 * hidden)),
            hidden,
        }
    }
}

impl Recurrence for GruCell {
    type Cache = GruCache;

    fn with_dims(input_dim: usize, hidden: usize, rng: &mut StdRng) -> Self {
        GruCell::new(input_dim, hidden, rng)
    }

    fn input_dim(&self) -> usize {
        self.wx.value.rows()
    }

    fn hidden_dim(&self) -> usize {
        self.hidden
    }

    fn forward_seq(&self, inputs: Matrix) -> (Matrix, GruCache) {
        let t_max = inputs.rows();
        assert!(t_max > 0, "GruCell::forward_seq: empty sequence");
        assert_eq!(
            inputs.cols(),
            self.input_dim(),
            "GruCell: input width mismatch"
        );
        let h = self.hidden;
        let mut gates = Matrix::zeros(t_max, 3 * h);
        let mut hn_all = Matrix::zeros(t_max, h);
        let mut hidden = Matrix::zeros(t_max, h);
        let mut h_prev = vec![0.0_f32; h];
        for t in 0..t_max {
            let zx = self.wx.value.vecmat(inputs.row(t));
            let zh = self.wh.value.vecmat(&h_prev);
            let b = self.b.value.row(0);
            let g_row = gates.row_mut(t);
            let hn_row = hn_all.row_mut(t);
            for j in 0..h {
                g_row[j] = sigmoid(zx[j] + zh[j] + b[j]); // z
                g_row[h + j] = sigmoid(zx[h + j] + zh[h + j] + b[h + j]); // r
                hn_row[j] = zh[2 * h + j];
            }
            for j in 0..h {
                g_row[2 * h + j] = zx[2 * h + j] + g_row[h + j] * hn_row[j] + b[2 * h + j];
            }
            tanh_exact(&mut g_row[2 * h..3 * h]);
            let h_row = hidden.row_mut(t);
            for j in 0..h {
                let z = g_row[j];
                h_row[j] = (1.0 - z) * g_row[2 * h + j] + z * h_prev[j];
            }
            h_prev.copy_from_slice(h_row);
        }
        let out = hidden.clone();
        (
            out,
            GruCache {
                inputs,
                gates,
                hn: hn_all,
                hidden,
            },
        )
    }

    fn backward_seq(&self, cache: &GruCache, grad_out: &Matrix, grads: &mut [Matrix]) -> Matrix {
        let t_max = cache.hidden.rows();
        let h = self.hidden;
        assert_eq!(
            grad_out.shape(),
            (t_max, h),
            "GruCell::backward_seq: grad shape"
        );
        let (gwx, gwh, gb) = split_cell_grads(grads, "GruCell::backward_seq");
        let mut dh_carry = vec![0.0_f32; h];
        // Gradient w.r.t. the pre-activations feeding Wx (dz_x) and the
        // hidden-side products feeding Wh (dz_h): they differ only in the
        // candidate slot, where the hidden path is gated by r.
        let mut dzx_all = Matrix::zeros(t_max, 3 * h);
        let mut dzh_all = Matrix::zeros(t_max, 3 * h);
        let wht = self.wh.value.transpose();
        let zero = vec![0.0_f32; h];
        for t in (0..t_max).rev() {
            let gates = cache.gates.row(t);
            let hn = cache.hn.row(t);
            let h_prev: &[f32] = if t > 0 {
                cache.hidden.row(t - 1)
            } else {
                &zero
            };
            let mut dh_prev_direct = vec![0.0_f32; h];
            let dz_x = dzx_all.row_mut(t);
            let dz_h = dzh_all.row_mut(t);
            for j in 0..h {
                let (z, r, n) = (gates[j], gates[h + j], gates[2 * h + j]);
                let dh = grad_out.row(t)[j] + dh_carry[j];
                let dz_gate = dh * (h_prev[j] - n) * z * (1.0 - z);
                let dn = dh * (1.0 - z) * (1.0 - n * n);
                let dr = dn * hn[j] * r * (1.0 - r);
                dz_x[j] = dz_gate;
                dz_x[h + j] = dr;
                dz_x[2 * h + j] = dn;
                dz_h[j] = dz_gate;
                dz_h[h + j] = dr;
                dz_h[2 * h + j] = dn * r;
                dh_prev_direct[j] = dh * z;
            }
            etsb_tensor::add_assign(gb.row_mut(0), dzx_all.row(t));
            dh_carry = wht.vecmat(dzh_all.row(t));
            etsb_tensor::add_assign(&mut dh_carry, &dh_prev_direct);
        }
        // Weight gradients batched over the whole sequence: bitwise
        // identical to ascending per-step `add_outer` calls.
        let mut col = Vec::new();
        gwx.add_transposed_matmul(&cache.inputs, 0, &dzx_all, 0, t_max, &mut col);
        if t_max > 1 {
            gwh.add_transposed_matmul(&cache.hidden, 0, &dzh_all, 1, t_max - 1, &mut col);
        }
        dzx_all.matmul(&self.wx.value.transpose())
    }

    fn seq_output(cache: &GruCache) -> &Matrix {
        &cache.hidden
    }

    fn forward_batch_into(
        &self,
        packed: &Matrix,
        batch: &SeqBatch,
        cache: &mut GruCache,
        ws: &mut Workspace,
        policy: KernelPolicy,
    ) {
        assert_eq!(
            packed.shape(),
            (batch.total_rows(), self.input_dim()),
            "GruCell::forward_batch_into: packed shape {:?} != {:?}",
            packed.shape(),
            (batch.total_rows(), self.input_dim())
        );
        let h = self.hidden;
        let total = batch.total_rows();
        cache.inputs.copy_from(packed);
        cache.gates.resize_zeroed(total, 3 * h);
        cache.hn.resize_zeroed(total, h);
        cache.hidden.resize_zeroed(total, h);
        let mut zx_all = ws.take_mat("gru.bzx_all", 0, 0);
        packed.matmul_window_policy_into(0, packed.rows(), &self.wx.value, &mut zx_all, policy);
        let mut zh_blk = ws.take_mat("gru.bzh", 0, 0);
        let mut h_prev_blk = ws.take_mat("gru.bh_prev", 0, 0);
        for t in 0..batch.t_max() {
            let n_act = batch.active(t);
            let off = batch.offset(t);
            h_prev_blk.resize_zeroed(n_act, h);
            if t == 0 {
                // h_{-1} = 0: recurrent product and prior state are zero.
                zh_blk.resize_zeroed(n_act, 3 * h);
            } else {
                let prev_off = batch.offset(t - 1);
                cache.hidden.matmul_window_policy_into(
                    prev_off,
                    n_act,
                    &self.wh.value,
                    &mut zh_blk,
                    policy,
                );
                for s in 0..n_act {
                    h_prev_blk
                        .row_mut(s)
                        .copy_from_slice(cache.hidden.row(prev_off + s));
                }
            }
            for s in 0..n_act {
                let zx = zx_all.row(off + s);
                let zh = zh_blk.row(s);
                let h_prev = h_prev_blk.row(s);
                let b = self.b.value.row(0);
                let g_row = cache.gates.row_mut(off + s);
                let hn_row = cache.hn.row_mut(off + s);
                for j in 0..h {
                    g_row[j] = sigmoid(zx[j] + zh[j] + b[j]); // z
                    g_row[h + j] = sigmoid(zx[h + j] + zh[h + j] + b[h + j]); // r
                    hn_row[j] = zh[2 * h + j];
                }
                for j in 0..h {
                    g_row[2 * h + j] = zx[2 * h + j] + g_row[h + j] * hn_row[j] + b[2 * h + j];
                }
                policy.tanh(&mut g_row[2 * h..3 * h]);
                let h_row = cache.hidden.row_mut(off + s);
                let g_row = cache.gates.row(off + s);
                for j in 0..h {
                    let z = g_row[j];
                    h_row[j] = (1.0 - z) * g_row[2 * h + j] + z * h_prev[j];
                }
            }
        }
        ws.put_mat("gru.bh_prev", h_prev_blk);
        ws.put_mat("gru.bzh", zh_blk);
        ws.put_mat("gru.bzx_all", zx_all);
    }

    fn backward_batch_into(
        &self,
        batch: &SeqBatch,
        cache: &GruCache,
        grad_out: &Matrix,
        grads: &mut [Matrix],
        grad_inputs: &mut Matrix,
        ws: &mut Workspace,
    ) {
        let h = self.hidden;
        let total = batch.total_rows();
        assert_eq!(
            grad_out.shape(),
            (total, h),
            "GruCell::backward_batch_into: grad shape {:?} != {:?}",
            grad_out.shape(),
            (total, h)
        );
        let mut dzx_all = ws.take_mat("gru.bdzx_all", total, 3 * h);
        let mut dzh_all = ws.take_mat("gru.bdzh_all", total, 3 * h);
        let mut wht = ws.take_mat("gru.wht", 0, 0);
        self.wh.value.transpose_into(&mut wht);
        let mut dh_carry = ws.take_mat("gru.bdh_carry", 0, 0);
        let mut dh_prev_direct = ws.take_mat("gru.bdh_prev", 0, 0);
        let zero = ws.take_vec("batch.zero", h);
        let t_max = batch.t_max();
        for t in (0..t_max).rev() {
            let n_act = batch.active(t);
            let off = batch.offset(t);
            let carried = if t + 1 < t_max {
                batch.active(t + 1)
            } else {
                0
            };
            dh_prev_direct.resize_zeroed(n_act, h);
            for s in 0..n_act {
                let carry: &[f32] = if s < carried { dh_carry.row(s) } else { &zero };
                let gates = cache.gates.row(off + s);
                let hn = cache.hn.row(off + s);
                let h_prev: &[f32] = if t > 0 {
                    cache.hidden.row(batch.offset(t - 1) + s)
                } else {
                    &zero
                };
                let g_out = grad_out.row(off + s);
                let dz_x = dzx_all.row_mut(off + s);
                let dz_h = dzh_all.row_mut(off + s);
                let dh_direct = dh_prev_direct.row_mut(s);
                for j in 0..h {
                    let (z, r, n) = (gates[j], gates[h + j], gates[2 * h + j]);
                    let dh = g_out[j] + carry[j];
                    let dz_gate = dh * (h_prev[j] - n) * z * (1.0 - z);
                    let dn = dh * (1.0 - z) * (1.0 - n * n);
                    let dr = dn * hn[j] * r * (1.0 - r);
                    dz_x[j] = dz_gate;
                    dz_x[h + j] = dr;
                    dz_x[2 * h + j] = dn;
                    dz_h[j] = dz_gate;
                    dz_h[h + j] = dr;
                    dz_h[2 * h + j] = dn * r;
                    dh_direct[j] = dh * z;
                }
            }
            if t > 0 {
                dzh_all.matmul_window_into(off, n_act, &wht, &mut dh_carry);
                for s in 0..n_act {
                    etsb_tensor::add_assign(dh_carry.row_mut(s), dh_prev_direct.row(s));
                }
            }
        }
        accumulate_seq_grads(
            batch,
            &cache.inputs,
            &cache.hidden,
            &dzx_all,
            &dzh_all,
            grads,
            ws,
        );
        let mut wxt = ws.take_mat("gru.wxt", 0, 0);
        self.wx.value.transpose_into(&mut wxt);
        dzx_all.matmul_window_into(0, dzx_all.rows(), &wxt, grad_inputs);
        ws.put_mat("gru.wxt", wxt);
        ws.put_vec("batch.zero", zero);
        ws.put_mat("gru.bdh_prev", dh_prev_direct);
        ws.put_mat("gru.bdh_carry", dh_carry);
        ws.put_mat("gru.wht", wht);
        ws.put_mat("gru.bdzh_all", dzh_all);
        ws.put_mat("gru.bdzx_all", dzx_all);
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.wx, &self.wh, &self.b]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.wx, &mut self.wh, &mut self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsb_tensor::init::seeded_rng;

    #[test]
    fn forward_shapes_and_bounds() {
        let cell = GruCell::new(3, 5, &mut seeded_rng(1));
        let x = Matrix::from_fn(6, 3, |i, j| ((i + 2 * j) as f32 * 0.3).sin());
        let (out, cache) = cell.forward_seq(x);
        assert_eq!(out.shape(), (6, 5));
        // h is a convex combination of tanh outputs and prior state.
        assert!(out.as_slice().iter().all(|&v| v.abs() <= 1.0));
        assert_eq!(cache.gates.shape(), (6, 15));
    }

    #[test]
    fn state_propagates_across_steps() {
        let cell = GruCell::new(2, 4, &mut seeded_rng(2));
        let constant = Matrix::from_fn(3, 2, |_, _| 0.4);
        let (out, _) = cell.forward_seq(constant);
        assert_ne!(out.row(0), out.row(1));
    }

    /// Central-difference gradient check through the full GRU BPTT,
    /// including the reset-gate path.
    #[test]
    fn gradient_check() {
        let cell = GruCell::new(2, 3, &mut seeded_rng(3));
        let x = Matrix::from_fn(4, 2, |i, j| ((i * 2 + j) as f32 * 0.77).sin() * 0.6);

        let loss = |c: &GruCell, x: &Matrix| c.forward_seq(x.clone()).0.sum();

        let (out, cache) = cell.forward_seq(x.clone());
        let ones = Matrix::full(out.rows(), out.cols(), 1.0);
        let mut grads = crate::param::grad_buffer_for(&cell.params());
        let grad_in = cell.backward_seq(&cache, &ones, grads.slots_mut());

        let h = 1e-3_f32;
        for pi in 0..3 {
            let cols = cell.params()[pi].value.cols();
            for block in 0..3 {
                let coords = (0, block * (cols / 3) + 1);
                let analytic = grads.slot(pi)[coords];
                let mut plus = cell.clone();
                plus.params_mut()[pi].value[coords] += h;
                let mut minus = cell.clone();
                minus.params_mut()[pi].value[coords] -= h;
                let numeric = (loss(&plus, &x) - loss(&minus, &x)) / (2.0 * h);
                assert!(
                    (numeric - analytic).abs() < 2e-2 * analytic.abs().max(1.0),
                    "param {pi} block {block}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
        let analytic = grad_in[(1, 0)];
        let mut xp = x.clone();
        xp[(1, 0)] += h;
        let mut xm = x.clone();
        xm[(1, 0)] -= h;
        let numeric = (loss(&cell, &xp) - loss(&cell, &xm)) / (2.0 * h);
        assert!(
            (numeric - analytic).abs() < 2e-2 * analytic.abs().max(1.0),
            "input grad: numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn works_inside_stacked_birnn() {
        use crate::StackedBiRnn;
        let net: StackedBiRnn<GruCell> = StackedBiRnn::new(3, 4, &mut seeded_rng(4));
        let x = Matrix::from_fn(5, 3, |i, j| (i as f32 + j as f32) * 0.1);
        let (out, cache) = net.forward(x);
        assert_eq!(out.len(), 8);
        let mut grads = crate::param::grad_buffer_for(&net.params());
        let grad = net.backward(&cache, &[1.0; 8], grads.slots_mut());
        assert_eq!(grad.shape(), (5, 3));
    }
}
