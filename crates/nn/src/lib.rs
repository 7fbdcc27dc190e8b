//! # etsb-nn
//!
//! A minimal neural-network framework purpose-built for the ETSB-RNN error
//! detector (Holzer & Stockinger, EDBT 2022). The paper's reference
//! implementation uses Keras; mature Rust bindings for RNN *training*
//! pipelines do not exist, so this crate implements the required layer zoo
//! from scratch with hand-rolled backpropagation:
//!
//! * [`Embedding`] — trainable character / attribute embeddings,
//! * [`RnnCell`] / [`BiRnn`] / [`StackedBiRnn`] — vanilla (Elman) recurrent
//!   cells with tanh activations and full backpropagation-through-time,
//!   including the two-stacked bidirectional configuration of §4.3,
//! * [`Dense`] — fully connected layers with linear/ReLU/tanh activations,
//! * [`BatchNorm`] — batch normalization with train/eval modes,
//! * [`softmax_cross_entropy`] — the fused softmax + cross-entropy loss,
//! * [`Rmsprop`] / [`Sgd`] / [`Adam`] — optimizers ([`Rmsprop`] is what the
//!   paper trains with),
//! * checkpointing ([`snapshot`] / [`restore`]) for the paper's
//!   best-training-loss weight callback,
//! * [`gradcheck`] — central-difference gradient verification used by the
//!   test-suite to prove every `backward` agrees with its `forward`.
//!
//! Layers follow a *cache-out* convention: `forward` returns the output
//! plus an explicit cache value, and `backward` consumes that cache while
//! accumulating parameter gradients into an explicit [`GradBuffer`] (see
//! [`grad_buffer_for`]) rather than into the layer itself. Layers are
//! therefore free of hidden mutable state: the same layer object can
//! evaluate many samples concurrently during inference *and* run backward
//! passes on `&self` across threads, each thread filling its own buffer,
//! merged deterministically afterwards (see [`parallel`]).

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

mod activation;
mod batch;
mod batchnorm;
mod dense;
mod embedding;
mod gru;
mod loss;
mod lstm;
mod optim;
mod param;
mod rnn;

pub mod checkpoint;
pub mod gradcheck;
pub mod parallel;

pub use activation::Activation;
pub use batch::SeqBatch;
pub use batchnorm::{BatchNorm, BatchNormCache};
pub use checkpoint::{restore, snapshot, CheckpointError};
pub use dense::{Dense, DenseCache};
pub use embedding::{Embedding, EmbeddingCache};
pub use etsb_tensor::{GradBuffer, KernelPolicy};
pub use gru::{GruCache, GruCell};
pub use loss::{binary_cross_entropy, softmax_cross_entropy, LossOutput};
pub use lstm::{LstmCache, LstmCell};
pub use optim::{Adam, Optimizer, Rmsprop, Sgd};
pub use param::{grad_buffer_for, Param};
pub use rnn::{BiRnn, BiRnnCache, Recurrence, RnnCache, RnnCell, StackedBiRnn, StackedBiRnnCache};
