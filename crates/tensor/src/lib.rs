//! # etsb-tensor
//!
//! Dense `f32` linear-algebra substrate for the ETSB-RNN error-detection
//! stack. Provides a row-major [`Matrix`] type with the operations the
//! neural-network layer zoo in `etsb-nn` needs: matrix products (including
//! transposed variants that avoid materializing transposes), element-wise
//! arithmetic, reductions, seeded random initialization and a compact
//! binary serialization used for weight checkpoints.
//!
//! The reference kernels are plain Rust (no BLAS) so they build anywhere
//! and pin the bitwise-determinism contract; the matmul kernels are
//! written cache-consciously (ikj loop order, transpose-free variants)
//! and, on AVX2 hosts, recompiled for 8-lane registers by [`simd`]'s
//! runtime dispatch without changing a bit. [`simd`] also holds the
//! exact tanh (an in-repo port of fdlibm's `tanhf`) and an opt-in fast
//! inference tier: fused multiply-add kernels (portable scalar or
//! runtime-detected AVX2+FMA) selected through a [`KernelPolicy`],
//! epsilon-close to the exact path and bitwise identical across
//! backends.
//!
//! ```
//! use etsb_tensor::Matrix;
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! assert_eq!(a.matmul(&b), a);
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::disallowed_methods
    )
)]

mod grad;
mod matrix;
mod ops;
mod serialize;
mod workspace;

/// Seeded weight-initialization schemes (uniform, Glorot, recurrent).
pub mod init;
/// NaN/Inf detection hooks, active under the `sanitize` feature.
pub mod sanitize;
/// Runtime backend dispatch for both kernel tiers, the exact tanh, and
/// the opt-in FastMath inference kernels.
pub mod simd;

pub use grad::GradBuffer;
pub use matrix::Matrix;
pub use ops::{
    add_assign, argmax, axpy, dot, l2_norm, max_abs_diff, mean, relu_inplace, scale,
    softmax_inplace, stddev, sub_assign, variance,
};
pub use serialize::{decode_matrix, encode_matrix, DecodeError};
pub use simd::KernelPolicy;
pub use workspace::Workspace;

/// Crate-wide numeric tolerance used by tests and gradient checks.
pub const EPS: f32 = 1e-5;
