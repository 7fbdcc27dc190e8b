//! LSTM cell (Hochreiter & Schmidhuber 1997) with full BPTT.
//!
//! The paper (§2) argues vanilla RNNs are sufficient for character-level
//! error detection and cheaper to train than LSTM/GRU; this cell exists
//! so the claim is *testable* — it plugs into the same [`crate::BiRnn`] /
//! [`crate::StackedBiRnn`] topology via [`Recurrence`], and the
//! `ablation_cells` bench compares all three on F1 and wall-clock.
//!
//! Gate layout in the fused weight matrices: `[input, forget, cell, output]`.

use crate::activation::sigmoid;
use crate::batch::{accumulate_seq_grads, SeqBatch};
use crate::rnn::{split_cell_grads, Recurrence};
use crate::Param;
use etsb_tensor::simd::tanh_exact;
use etsb_tensor::{init, KernelPolicy, Matrix, Workspace};
use rand::rngs::StdRng;

/// An LSTM cell with fused gate weights.
#[derive(Clone, Debug)]
pub struct LstmCell {
    /// Input weights, `input_dim x 4·hidden` (gates i, f, g, o).
    pub wx: Param,
    /// Recurrent weights, `hidden x 4·hidden`.
    pub wh: Param,
    /// Bias, `1 x 4·hidden` (forget-gate slice initialized to 1).
    pub b: Param,
    hidden: usize,
}

/// Cache from [`LstmCell::forward_seq`].
#[derive(Clone, Debug, Default)]
pub struct LstmCache {
    inputs: Matrix,
    /// Activated gates per step, `T x 4·hidden`: `[i, f, g, o]`.
    gates: Matrix,
    /// Cell states, `T x hidden`.
    cells: Matrix,
    /// `tanh(c_t)`, `T x hidden`.
    tanh_cells: Matrix,
    /// Hidden states (outputs), `T x hidden`.
    hidden: Matrix,
}

impl LstmCell {
    /// New cell: Glorot input/recurrent weights, forget bias 1.
    pub fn new(input_dim: usize, hidden: usize, rng: &mut StdRng) -> Self {
        assert!(
            input_dim > 0 && hidden > 0,
            "LstmCell: dims must be positive"
        );
        let mut b = Matrix::zeros(1, 4 * hidden);
        for j in hidden..2 * hidden {
            b[(0, j)] = 1.0; // standard forget-gate bias init
        }
        Self {
            wx: Param::new(init::glorot_uniform(input_dim, 4 * hidden, rng)),
            wh: Param::new(init::glorot_uniform(hidden, 4 * hidden, rng)),
            b: Param::new(b),
            hidden,
        }
    }
}

impl Recurrence for LstmCell {
    type Cache = LstmCache;

    fn with_dims(input_dim: usize, hidden: usize, rng: &mut StdRng) -> Self {
        LstmCell::new(input_dim, hidden, rng)
    }

    fn input_dim(&self) -> usize {
        self.wx.value.rows()
    }

    fn hidden_dim(&self) -> usize {
        self.hidden
    }

    fn forward_seq(&self, inputs: Matrix) -> (Matrix, LstmCache) {
        let t_max = inputs.rows();
        assert!(t_max > 0, "LstmCell::forward_seq: empty sequence");
        assert_eq!(
            inputs.cols(),
            self.input_dim(),
            "LstmCell: input width mismatch"
        );
        let h = self.hidden;
        let mut gates = Matrix::zeros(t_max, 4 * h);
        let mut cells = Matrix::zeros(t_max, h);
        let mut tanh_cells = Matrix::zeros(t_max, h);
        let mut hidden = Matrix::zeros(t_max, h);
        let mut h_prev = vec![0.0_f32; h];
        let mut c_prev = vec![0.0_f32; h];
        for t in 0..t_max {
            let mut z = self.wx.value.vecmat(inputs.row(t));
            let rec = self.wh.value.vecmat(&h_prev);
            for ((zi, &ri), &bi) in z.iter_mut().zip(&rec).zip(self.b.value.row(0)) {
                *zi += ri + bi;
            }
            let g_row = gates.row_mut(t);
            for j in 0..h {
                g_row[j] = sigmoid(z[j]); // i
                g_row[h + j] = sigmoid(z[h + j]); // f
                g_row[2 * h + j] = z[2 * h + j]; // g, tanh below
                g_row[3 * h + j] = sigmoid(z[3 * h + j]); // o
            }
            tanh_exact(&mut g_row[2 * h..3 * h]);
            let c_row = cells.row_mut(t);
            for j in 0..h {
                c_row[j] = g_row[h + j] * c_prev[j] + g_row[j] * g_row[2 * h + j];
            }
            let tc_row = tanh_cells.row_mut(t);
            tc_row.copy_from_slice(c_row);
            tanh_exact(tc_row);
            let h_row = hidden.row_mut(t);
            for j in 0..h {
                h_row[j] = g_row[3 * h + j] * tc_row[j];
            }
            h_prev.copy_from_slice(h_row);
            c_prev.copy_from_slice(c_row);
        }
        let out = hidden.clone();
        (
            out,
            LstmCache {
                inputs,
                gates,
                cells,
                tanh_cells,
                hidden,
            },
        )
    }

    fn backward_seq(&self, cache: &LstmCache, grad_out: &Matrix, grads: &mut [Matrix]) -> Matrix {
        let t_max = cache.hidden.rows();
        let h = self.hidden;
        assert_eq!(
            grad_out.shape(),
            (t_max, h),
            "LstmCell::backward_seq: grad shape"
        );
        let (gwx, gwh, gb) = split_cell_grads(grads, "LstmCell::backward_seq");
        let mut dz_all = Matrix::zeros(t_max, 4 * h);
        let wht = self.wh.value.transpose();
        let mut dh_carry = vec![0.0_f32; h];
        let mut dc_carry = vec![0.0_f32; h];
        for t in (0..t_max).rev() {
            let gates = cache.gates.row(t);
            let tc = cache.tanh_cells.row(t);
            let dz = dz_all.row_mut(t);
            for j in 0..h {
                let (i, f, g, o) = (gates[j], gates[h + j], gates[2 * h + j], gates[3 * h + j]);
                let dh = grad_out.row(t)[j] + dh_carry[j];
                let do_ = dh * tc[j];
                let dc = dh * o * (1.0 - tc[j] * tc[j]) + dc_carry[j];
                let c_prev = if t > 0 {
                    cache.cells.row(t - 1)[j]
                } else {
                    0.0
                };
                dz[j] = dc * g * i * (1.0 - i); // input gate
                dz[h + j] = dc * c_prev * f * (1.0 - f); // forget gate
                dz[2 * h + j] = dc * i * (1.0 - g * g); // candidate
                dz[3 * h + j] = do_ * o * (1.0 - o); // output gate
                dc_carry[j] = dc * f;
            }
            etsb_tensor::add_assign(gb.row_mut(0), dz_all.row(t));
            dh_carry = wht.vecmat(dz_all.row(t));
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

    fn seq_output(cache: &LstmCache) -> &Matrix {
        &cache.hidden
    }

    fn forward_batch_into(
        &self,
        packed: &Matrix,
        batch: &SeqBatch,
        cache: &mut LstmCache,
        ws: &mut Workspace,
        policy: KernelPolicy,
    ) {
        let total = batch.total_rows();
        assert_eq!(
            packed.shape(),
            (total, self.input_dim()),
            "LstmCell::forward_batch_into: packed shape"
        );
        let h = self.hidden;
        cache.inputs.copy_from(packed);
        cache.gates.resize_zeroed(total, 4 * h);
        cache.cells.resize_zeroed(total, h);
        cache.tanh_cells.resize_zeroed(total, h);
        cache.hidden.resize_zeroed(total, h);
        let mut z_all = ws.take_mat("lstm.bz_all", 0, 0);
        packed.matmul_window_policy_into(0, packed.rows(), &self.wx.value, &mut z_all, policy);
        let mut rec = ws.take_mat("lstm.brec", 0, 0);
        let mut c_prev = ws.take_mat("lstm.bc_prev", 0, 0);
        for t in 0..batch.t_max() {
            let off = batch.offset(t);
            let n_act = batch.active(t);
            c_prev.resize_zeroed(n_act, h);
            if t == 0 {
                // First step: recurrent term of a zero state is zero, same
                // as `vecmat` against a fresh zero vector per sample.
                rec.resize_zeroed(n_act, 4 * h);
            } else {
                let prev_off = batch.offset(t - 1);
                cache.hidden.matmul_window_policy_into(
                    prev_off,
                    n_act,
                    &self.wh.value,
                    &mut rec,
                    policy,
                );
                for s in 0..n_act {
                    c_prev
                        .row_mut(s)
                        .copy_from_slice(cache.cells.row(prev_off + s));
                }
            }
            for s in 0..n_act {
                let z = z_all.row_mut(off + s);
                for ((zi, &ri), &bi) in z.iter_mut().zip(rec.row(s)).zip(self.b.value.row(0)) {
                    *zi += ri + bi;
                }
                let z = z_all.row(off + s);
                let g_row = cache.gates.row_mut(off + s);
                for j in 0..h {
                    g_row[j] = sigmoid(z[j]); // i
                    g_row[h + j] = sigmoid(z[h + j]); // f
                    g_row[2 * h + j] = z[2 * h + j]; // g, tanh below
                    g_row[3 * h + j] = sigmoid(z[3 * h + j]); // o
                }
                policy.tanh(&mut g_row[2 * h..3 * h]);
                let c_row = cache.cells.row_mut(off + s);
                let g_row = cache.gates.row(off + s);
                let cp = c_prev.row(s);
                for j in 0..h {
                    c_row[j] = g_row[h + j] * cp[j] + g_row[j] * g_row[2 * h + j];
                }
                let c_row = cache.cells.row(off + s);
                let tc_row = cache.tanh_cells.row_mut(off + s);
                tc_row.copy_from_slice(c_row);
                policy.tanh(tc_row);
                let tc_row = cache.tanh_cells.row(off + s);
                let h_row = cache.hidden.row_mut(off + s);
                for j in 0..h {
                    h_row[j] = g_row[3 * h + j] * tc_row[j];
                }
            }
        }
        ws.put_mat("lstm.bc_prev", c_prev);
        ws.put_mat("lstm.brec", rec);
        ws.put_mat("lstm.bz_all", z_all);
    }

    fn backward_batch_into(
        &self,
        batch: &SeqBatch,
        cache: &LstmCache,
        grad_out: &Matrix,
        grads: &mut [Matrix],
        grad_inputs: &mut Matrix,
        ws: &mut Workspace,
    ) {
        let total = batch.total_rows();
        let h = self.hidden;
        assert_eq!(
            grad_out.shape(),
            (total, h),
            "LstmCell::backward_batch_into: grad shape"
        );
        let mut dz_all = ws.take_mat("lstm.bdz_all", total, 4 * h);
        let mut wht = ws.take_mat("lstm.wht", 0, 0);
        self.wh.value.transpose_into(&mut wht);
        let mut dh_carry = ws.take_mat("lstm.bdh_carry", 0, 0);
        // One cell-state carry row per slot, zeroed on take: a sample's
        // first (latest-t) visit reads zeros, exactly like the fresh
        // per-sample `dc_carry` vector.
        let mut dc_carry = ws.take_mat("lstm.bdc_carry", batch.n_samples(), h);
        let zero = ws.take_vec("batch.zero", h);
        for t in (0..batch.t_max()).rev() {
            let off = batch.offset(t);
            let n_act = batch.active(t);
            // Rows past `carried` just retired at this step: their hidden
            // carry is the per-sample fresh zero vector.
            let carried = if t + 1 < batch.t_max() {
                batch.active(t + 1)
            } else {
                0
            };
            for s in 0..n_act {
                let gates = cache.gates.row(off + s);
                let tc = cache.tanh_cells.row(off + s);
                let carry: &[f32] = if s < carried { dh_carry.row(s) } else { &zero };
                let dcc = dc_carry.row_mut(s);
                let dz = dz_all.row_mut(off + s);
                for j in 0..h {
                    let (i, f, g, o) = (gates[j], gates[h + j], gates[2 * h + j], gates[3 * h + j]);
                    let dh = grad_out.row(off + s)[j] + carry[j];
                    let do_ = dh * tc[j];
                    let dc = dh * o * (1.0 - tc[j] * tc[j]) + dcc[j];
                    let c_prev = if t > 0 {
                        cache.cells.row(batch.offset(t - 1) + s)[j]
                    } else {
                        0.0
                    };
                    dz[j] = dc * g * i * (1.0 - i); // input gate
                    dz[h + j] = dc * c_prev * f * (1.0 - f); // forget gate
                    dz[2 * h + j] = dc * i * (1.0 - g * g); // candidate
                    dz[3 * h + j] = do_ * o * (1.0 - o); // output gate
                    dcc[j] = dc * f;
                }
            }
            if t > 0 {
                dz_all.matmul_window_into(off, n_act, &wht, &mut dh_carry);
            }
        }
        // Replay weight/bias gradients per sample in original batch order;
        // bitwise identical to the per-sample `backward_seq` calls.
        accumulate_seq_grads(
            batch,
            &cache.inputs,
            &cache.hidden,
            &dz_all,
            &dz_all,
            grads,
            ws,
        );
        let mut wxt = ws.take_mat("lstm.wxt", 0, 0);
        self.wx.value.transpose_into(&mut wxt);
        dz_all.matmul_window_into(0, dz_all.rows(), &wxt, grad_inputs);
        ws.put_mat("lstm.wxt", wxt);
        ws.put_vec("batch.zero", zero);
        ws.put_mat("lstm.bdc_carry", dc_carry);
        ws.put_mat("lstm.bdh_carry", dh_carry);
        ws.put_mat("lstm.wht", wht);
        ws.put_mat("lstm.bdz_all", dz_all);
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
        let cell = LstmCell::new(3, 5, &mut seeded_rng(1));
        let x = Matrix::from_fn(7, 3, |i, j| ((i + j) as f32 * 0.4).sin());
        let (out, cache) = cell.forward_seq(x);
        assert_eq!(out.shape(), (7, 5));
        // h = o * tanh(c): bounded by (0,1)*(-1,1).
        assert!(out.as_slice().iter().all(|&v| v.abs() < 1.0));
        assert_eq!(cache.gates.shape(), (7, 20));
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let cell = LstmCell::new(2, 4, &mut seeded_rng(2));
        for j in 4..8 {
            assert_eq!(cell.b.value[(0, j)], 1.0);
        }
        assert_eq!(cell.b.value[(0, 0)], 0.0);
    }

    #[test]
    fn state_propagates_across_steps() {
        let cell = LstmCell::new(2, 4, &mut seeded_rng(3));
        let constant = Matrix::from_fn(3, 2, |_, _| 0.5);
        let (out, _) = cell.forward_seq(constant);
        assert_ne!(out.row(0), out.row(1));
        assert_ne!(out.row(1), out.row(2));
    }

    /// Central-difference gradient check through the full LSTM BPTT.
    #[test]
    fn gradient_check() {
        let cell = LstmCell::new(2, 3, &mut seeded_rng(4));
        let x = Matrix::from_fn(4, 2, |i, j| ((i * 2 + j) as f32 * 0.63).cos() * 0.5);

        let loss = |c: &LstmCell, x: &Matrix| c.forward_seq(x.clone()).0.sum();

        let (out, cache) = cell.forward_seq(x.clone());
        let ones = Matrix::full(out.rows(), out.cols(), 1.0);
        let mut grads = crate::param::grad_buffer_for(&cell.params());
        let grad_in = cell.backward_seq(&cache, &ones, grads.slots_mut());

        let h = 1e-3_f32;
        // Sample coordinates from each gate block of each parameter.
        for pi in 0..3 {
            let cols = cell.params()[pi].value.cols();
            for block in 0..4 {
                let coords = (0, block * (cols / 4) + 1);
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
        // Input gradient.
        let analytic = grad_in[(2, 1)];
        let mut xp = x.clone();
        xp[(2, 1)] += h;
        let mut xm = x.clone();
        xm[(2, 1)] -= h;
        let numeric = (loss(&cell, &xp) - loss(&cell, &xm)) / (2.0 * h);
        assert!(
            (numeric - analytic).abs() < 2e-2 * analytic.abs().max(1.0),
            "input grad: numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn works_inside_stacked_birnn() {
        use crate::StackedBiRnn;
        let net: StackedBiRnn<LstmCell> = StackedBiRnn::new(3, 4, &mut seeded_rng(5));
        let x = Matrix::from_fn(5, 3, |i, j| (i as f32 - j as f32) * 0.2);
        let (out, _) = net.forward(x);
        assert_eq!(out.len(), 8);
        assert_eq!(net.params().len(), 12);
    }
}
