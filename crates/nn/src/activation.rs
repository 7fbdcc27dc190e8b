//! Element-wise activation functions and their derivatives.

use serde::{Deserialize, Serialize};

/// Activation applied element-wise by [`crate::Dense`] layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Identity.
    Linear,
    /// Hyperbolic tangent — used inside the paper's RNN gates.
    Tanh,
    /// Rectified linear unit — used in the paper's dense heads.
    Relu,
}

impl Activation {
    /// Apply the activation to a single value (bitwise equal to
    /// [`Activation::apply_inplace`] on that value).
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        let mut y = [x];
        self.apply_inplace(&mut y);
        y[0]
    }

    /// Apply the activation to every element of `xs` in place; `Tanh`
    /// runs the exact-tier [`etsb_tensor::simd::tanh_exact`].
    #[inline]
    pub fn apply_inplace(self, xs: &mut [f32]) {
        match self {
            Activation::Linear => {}
            Activation::Tanh => etsb_tensor::simd::tanh_exact(xs),
            Activation::Relu => {
                for x in xs {
                    *x = x.max(0.0);
                }
            }
        }
    }

    /// Derivative expressed in terms of the *output* `y = f(x)`.
    ///
    /// All three activations admit this form (`tanh' = 1 - y²`,
    /// `relu' = [y > 0]`), which lets `backward` passes avoid caching
    /// pre-activations.
    #[inline]
    pub fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Linear => 1.0,
            Activation::Tanh => 1.0 - y * y,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// The logistic sigmoid of the LSTM and GRU gates. It calls the host
/// libm's `expf`, so gate bits follow the platform's libm.
#[inline]
pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_matches_definitions() {
        assert_eq!(Activation::Linear.apply(-2.5), -2.5);
        assert_eq!(Activation::Relu.apply(-2.5), 0.0);
        assert_eq!(Activation::Relu.apply(2.5), 2.5);
        assert!((Activation::Tanh.apply(0.5) - 0.5_f32.tanh()).abs() < 1e-7);
    }

    #[test]
    fn derivative_from_output_matches_finite_difference() {
        let h = 1e-3_f32;
        for act in [Activation::Linear, Activation::Tanh, Activation::Relu] {
            for &x in &[-1.2_f32, -0.3, 0.4, 1.7] {
                let y = act.apply(x);
                let numeric = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                let analytic = act.derivative_from_output(y);
                assert!(
                    (numeric - analytic).abs() < 1e-2,
                    "{act:?} at {x}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }
}
