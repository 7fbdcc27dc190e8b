//! Property-based tests for the neural substrate: gradient correctness
//! over random shapes and inputs for every recurrent cell, and optimizer
//! behaviour on random quadratics.

use etsb_nn::{
    grad_buffer_for, Activation, Dense, GradBuffer, GruCell, LstmCell, Optimizer, Param,
    Recurrence, Rmsprop, RnnCell, Sgd,
};
use etsb_tensor::{init::seeded_rng, Matrix};
use proptest::prelude::*;

/// Check one random weight coordinate of a cell against central
/// differences of the sum-of-outputs loss.
fn cell_gradcheck<C: Recurrence>(cell: C, inputs: Matrix, param_idx: usize) -> (f32, f32) {
    let loss = |c: &C, x: &Matrix| c.forward_seq(x.clone()).0.sum();
    let (out, cache) = cell.forward_seq(inputs.clone());
    let ones = Matrix::full(out.rows(), out.cols(), 1.0);
    let mut grads = grad_buffer_for(&cell.params());
    let _ = cell.backward_seq(&cache, &ones, grads.slots_mut());
    let analytic = grads.slot(param_idx)[(0, 0)];
    let h = 1e-3_f32;
    let mut plus = cell.clone();
    plus.params_mut()[param_idx].value[(0, 0)] += h;
    let mut minus = cell.clone();
    minus.params_mut()[param_idx].value[(0, 0)] -= h;
    let numeric = (loss(&plus, &inputs) - loss(&minus, &inputs)) / (2.0 * h);
    (analytic, numeric)
}

fn close(analytic: f32, numeric: f32) -> bool {
    (analytic - numeric).abs() < 3e-2 * analytic.abs().max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rnn_gradients_hold_over_random_shapes(
        seed in 0u64..500,
        t in 1usize..8,
        input_dim in 1usize..5,
        hidden in 1usize..5,
        pidx in 0usize..3,
    ) {
        let mut rng = seeded_rng(seed);
        let cell = RnnCell::new(input_dim, hidden, &mut rng);
        let x = Matrix::from_fn(t, input_dim, |i, j| ((seed as f32 + (i * 3 + j) as f32) * 0.57).sin() * 0.5);
        let (a, n) = cell_gradcheck(cell, x, pidx);
        prop_assert!(close(a, n), "analytic {a} vs numeric {n}");
    }

    #[test]
    fn lstm_gradients_hold_over_random_shapes(
        seed in 0u64..500,
        t in 1usize..6,
        input_dim in 1usize..4,
        hidden in 1usize..4,
        pidx in 0usize..3,
    ) {
        let mut rng = seeded_rng(seed);
        let cell = LstmCell::new(input_dim, hidden, &mut rng);
        let x = Matrix::from_fn(t, input_dim, |i, j| ((seed as f32 + (i * 2 + j) as f32) * 0.43).cos() * 0.5);
        let (a, n) = cell_gradcheck(cell, x, pidx);
        prop_assert!(close(a, n), "analytic {a} vs numeric {n}");
    }

    #[test]
    fn gru_gradients_hold_over_random_shapes(
        seed in 0u64..500,
        t in 1usize..6,
        input_dim in 1usize..4,
        hidden in 1usize..4,
        pidx in 0usize..3,
    ) {
        let mut rng = seeded_rng(seed);
        let cell = GruCell::new(input_dim, hidden, &mut rng);
        let x = Matrix::from_fn(t, input_dim, |i, j| ((seed as f32 + (i * 5 + j) as f32) * 0.71).sin() * 0.5);
        let (a, n) = cell_gradcheck(cell, x, pidx);
        prop_assert!(close(a, n), "analytic {a} vs numeric {n}");
    }

    #[test]
    fn dense_gradients_hold(
        seed in 0u64..500,
        rows in 1usize..6,
        input_dim in 1usize..5,
        output_dim in 1usize..5,
    ) {
        let mut rng = seeded_rng(seed);
        for act in [Activation::Linear, Activation::Tanh, Activation::Relu] {
            let layer = Dense::new(input_dim, output_dim, act, &mut rng);
            let x = Matrix::from_fn(rows, input_dim, |i, j| ((seed as f32 + (i + j) as f32) * 0.39).sin());
            let (out, cache) = layer.forward(x.clone());
            let ones = Matrix::full(out.rows(), out.cols(), 1.0);
            let mut grads = grad_buffer_for(&layer.params());
            let _ = layer.backward(&cache, &ones, grads.slots_mut());
            let analytic = grads.slot(0)[(0, 0)];
            let h = 1e-3_f32;
            let loss = |l: &Dense, x: &Matrix| l.forward(x.clone()).0.sum();
            let mut plus = layer.clone();
            plus.params_mut()[0].value[(0, 0)] += h;
            let mut minus = layer.clone();
            minus.params_mut()[0].value[(0, 0)] -= h;
            let numeric = (loss(&plus, &x) - loss(&minus, &x)) / (2.0 * h);
            prop_assert!(close(analytic, numeric), "{act:?}: {analytic} vs {numeric}");
        }
    }

    #[test]
    fn optimizers_descend_random_quadratics(
        target in -5.0f32..5.0,
        curvature in 0.2f32..4.0,
    ) {
        // f(w) = curvature (w - target)²; both optimizers must reduce f.
        for mode in 0..2 {
            let mut p = Param::new(Matrix::zeros(1, 1));
            let mut grads = GradBuffer::from_shapes([(1, 1)]);
            let f = |w: f32| curvature * (w - target) * (w - target);
            let initial = f(p.value[(0, 0)]);
            let mut sgd = Sgd::new(0.05 / curvature);
            let mut rms = Rmsprop::new(0.05);
            for _ in 0..200 {
                let w = p.value[(0, 0)];
                grads.zero();
                grads.slot_mut(0)[(0, 0)] = 2.0 * curvature * (w - target);
                if mode == 0 {
                    sgd.step(&mut [&mut p], &grads);
                } else {
                    rms.step(&mut [&mut p], &grads);
                }
            }
            // RMSprop's adaptive step keeps a steady-state wiggle of
            // roughly ±lr around the optimum, so "converged" means
            // within that noise floor — or a large relative improvement
            // when the start was far away.
            let noise_floor = curvature * 0.01; // (2·lr)² amplitude
            let final_loss = f(p.value[(0, 0)]);
            prop_assert!(
                final_loss < initial * 0.6 || final_loss < noise_floor.max(1e-3),
                "mode {mode}: {initial} -> {final_loss} (floor {noise_floor})"
            );
        }
    }

    #[test]
    fn snapshot_restore_is_identity(seed in 0u64..500, n in 1usize..5) {
        let mut rng = seeded_rng(seed);
        let cell = RnnCell::new(n, n, &mut rng);
        let values: Vec<&Matrix> = cell.params().iter().map(|p| &p.value).collect();
        let snap = etsb_nn::snapshot(&values);
        let mut copy = cell.clone();
        let mut targets: Vec<&mut Matrix> =
            copy.params_mut().into_iter().map(|p| &mut p.value).collect();
        for m in targets.iter_mut() {
            m.map_inplace(|x| x + 1.0);
        }
        etsb_nn::restore(&snap, &mut targets).unwrap();
        for (a, b) in cell.params().iter().zip(copy.params()) {
            prop_assert_eq!(&a.value, &b.value);
        }
    }
}
