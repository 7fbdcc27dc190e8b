//! Fully connected layer with an element-wise activation.

use crate::{Activation, Param};
use etsb_tensor::{init, Matrix};
use rand::rngs::StdRng;

/// A dense layer: `y = act(x W + b)` applied row-wise to a batch.
#[derive(Clone, Debug)]
pub struct Dense {
    /// Weights, `input_dim x output_dim`.
    pub w: Param,
    /// Bias, `1 x output_dim`.
    pub b: Param,
    /// Element-wise activation.
    pub activation: Activation,
}

/// Cache from [`Dense::forward`]: owns the inputs and outputs needed by
/// the backward pass.
#[derive(Clone, Debug)]
pub struct DenseCache {
    inputs: Matrix,
    outputs: Matrix,
}

impl Dense {
    /// New dense layer with Glorot-uniform weights and zero bias.
    pub fn new(
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
        rng: &mut StdRng,
    ) -> Self {
        assert!(
            input_dim > 0 && output_dim > 0,
            "Dense: dims must be positive"
        );
        Self {
            w: Param::new(init::glorot_uniform(input_dim, output_dim, rng)),
            b: Param::new(Matrix::zeros(1, output_dim)),
            activation,
        }
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.w.value.rows()
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.w.value.cols()
    }

    /// Forward a batch (`N x input_dim` → `N x output_dim`).
    pub fn forward(&self, inputs: Matrix) -> (Matrix, DenseCache) {
        assert_eq!(
            inputs.cols(),
            self.input_dim(),
            "Dense::forward: input width {} != {}",
            inputs.cols(),
            self.input_dim()
        );
        let mut out = inputs.matmul(&self.w.value);
        let bias = self.b.value.row(0);
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            for (o, &bi) in row.iter_mut().zip(bias) {
                *o += bi;
            }
            self.activation.apply_inplace(row);
        }
        out.assert_finite("dense", "forward(activation)");
        (
            out.clone(),
            DenseCache {
                inputs,
                outputs: out,
            },
        )
    }

    /// Inference-only forward into a preallocated matrix: no cache, no
    /// input clone, no allocation once `out`'s capacity suffices. Bitwise
    /// identical to the output of [`Dense::forward`].
    pub fn forward_eval_into(&self, inputs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            inputs.cols(),
            self.input_dim(),
            "Dense::forward_eval_into: input width {} != {}",
            inputs.cols(),
            self.input_dim()
        );
        inputs.matmul_into(&self.w.value, out);
        let bias = self.b.value.row(0);
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            for (o, &bi) in row.iter_mut().zip(bias) {
                *o += bi;
            }
            self.activation.apply_inplace(row);
        }
        out.assert_finite("dense", "forward(activation)");
    }

    /// Backward a batch: accumulates weight/bias grads into `grads`
    /// (slots `[w, b]` in [`Dense::params`] order), returns the input
    /// gradient (`N x input_dim`).
    pub fn backward(&self, cache: &DenseCache, grad_out: &Matrix, grads: &mut [Matrix]) -> Matrix {
        assert_eq!(
            grad_out.shape(),
            cache.outputs.shape(),
            "Dense::backward: grad shape {:?} != output shape {:?}",
            grad_out.shape(),
            cache.outputs.shape()
        );
        assert_eq!(grads.len(), 2, "Dense::backward: expected 2 slots (w, b)");
        let (gw, gb) = grads.split_at_mut(1);
        let (gw, gb) = (&mut gw[0], &mut gb[0]);
        // dz = grad_out * act'(y)
        let mut dz = grad_out.clone();
        for r in 0..dz.rows() {
            let y = cache.outputs.row(r);
            for (d, &yi) in dz.row_mut(r).iter_mut().zip(y) {
                *d *= self.activation.derivative_from_output(yi);
            }
        }
        // dW = X^T dz ; db = column sums of dz ; dX = dz W^T
        gw.add_assign(&cache.inputs.transposed_matmul(&dz));
        for r in 0..dz.rows() {
            etsb_tensor::add_assign(gb.row_mut(0), dz.row(r));
        }
        gw.assert_finite("dense", "backward(weight-grad)");
        let grad_in = dz.matmul_transposed(&self.w.value);
        grad_in.assert_finite("dense", "backward(grad-in)");
        grad_in
    }

    /// Parameters in stable order.
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.w, &self.b]
    }

    /// Mutable parameters in the same order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsb_tensor::init::seeded_rng;

    #[test]
    fn forward_linear_matches_manual_product() {
        let mut rng = seeded_rng(1);
        let mut layer = Dense::new(2, 3, Activation::Linear, &mut rng);
        layer.w.value = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 1.0, -1.0]]);
        layer.b.value = Matrix::from_rows(&[&[0.5, 0.5, 0.5]]);
        let (out, _) = layer.forward(Matrix::from_rows(&[&[1.0, 2.0]]));
        assert_eq!(out, Matrix::from_rows(&[&[1.5, 2.5, 0.5]]));
    }

    #[test]
    fn relu_clamps_outputs() {
        let mut rng = seeded_rng(2);
        let mut layer = Dense::new(1, 2, Activation::Relu, &mut rng);
        layer.w.value = Matrix::from_rows(&[&[1.0, -1.0]]);
        let (out, _) = layer.forward(Matrix::from_rows(&[&[3.0]]));
        assert_eq!(out, Matrix::from_rows(&[&[3.0, 0.0]]));
    }

    #[test]
    fn gradient_check_all_activations() {
        for act in [Activation::Linear, Activation::Tanh, Activation::Relu] {
            let mut rng = seeded_rng(3);
            let layer = Dense::new(3, 2, act, &mut rng);
            let x = Matrix::from_fn(4, 3, |i, j| ((i * 3 + j) as f32 * 0.31).sin());

            let loss = |l: &Dense| l.forward(x.clone()).0.sum();

            let (out, cache) = layer.forward(x.clone());
            let ones = Matrix::full(out.rows(), out.cols(), 1.0);
            let mut grads = crate::param::grad_buffer_for(&layer.params());
            let grad_in = layer.backward(&cache, &ones, grads.slots_mut());

            let h = 1e-3_f32;
            for (pi, coords) in [(0usize, (1usize, 1usize)), (1, (0, 0))] {
                let analytic = grads.slot(pi)[coords];
                let mut plus = layer.clone();
                plus.params_mut()[pi].value[coords] += h;
                let mut minus = layer.clone();
                minus.params_mut()[pi].value[coords] -= h;
                let numeric = (loss(&plus) - loss(&minus)) / (2.0 * h);
                assert!(
                    (numeric - analytic).abs() < 1e-2 * analytic.abs().max(1.0),
                    "{act:?} param {pi}: numeric {numeric} vs analytic {analytic}"
                );
            }
            // Input gradient.
            let analytic = grad_in[(2, 1)];
            let mut xp = x.clone();
            xp[(2, 1)] += h;
            let mut xm = x.clone();
            xm[(2, 1)] -= h;
            let numeric = (layer.forward(xp).0.sum() - layer.forward(xm).0.sum()) / (2.0 * h);
            assert!(
                (numeric - analytic).abs() < 1e-2 * analytic.abs().max(1.0),
                "{act:?} input grad: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn batch_rows_are_independent() {
        let mut rng = seeded_rng(4);
        let layer = Dense::new(2, 2, Activation::Tanh, &mut rng);
        let (one, _) = layer.forward(Matrix::from_rows(&[&[0.3, -0.2]]));
        let (two, _) = layer.forward(Matrix::from_rows(&[&[9.0, 9.0], &[0.3, -0.2]]));
        assert!(etsb_tensor::max_abs_diff(one.row(0), two.row(1)) < 1e-7);
    }
}
