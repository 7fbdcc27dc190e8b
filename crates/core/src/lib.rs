//! # etsb-core
//!
//! End-to-end reproduction of **"Detecting Errors in Databases with
//! Bidirectional Recurrent Neural Networks"** (Holzer & Stockinger,
//! EDBT 2022): a cell-level error detector that learns, from only 20
//! user-labelled tuples, which values of a dirty table are erroneous.
//!
//! The crate wires together the substrates of this workspace:
//!
//! * [`encode`] — turns a merged [`etsb_table::CellFrame`] into model
//!   inputs (character index sequences, attribute ids, normalized
//!   lengths, labels),
//! * [`sampling`] — the paper's three trainset-selection algorithms:
//!   [`sampling::random_set`] (Alg. 1), [`sampling::raha_set`] (Alg. 2,
//!   via `etsb-raha`) and the novel [`sampling::diver_set`] (Alg. 3),
//! * [`model`] — the two architectures of §4.3 as one type,
//!   [`model::AnyModel`]: TSB-RNN (two-stacked bidirectional RNN over
//!   characters) and ETSB-RNN (enriched with attribute metadata and
//!   value length), chosen by [`config::ModelKind`],
//! * [`train`] — the §5.2 protocol: 120 epochs, batches of a quarter of
//!   the trainset, RMSprop, binary cross-entropy, best-train-loss weight
//!   checkpointing, accuracy history for the paper's Figures 6–7,
//! * [`eval`] — precision/recall/F1 and the mean ± standard-deviation
//!   aggregation of Tables 3–4,
//! * [`pipeline`] — one-call experiment runner ([`pipeline::run_once`] /
//!   [`pipeline::run_repeated`]),
//! * [`rotom`] — a Rotom-style data-augmentation baseline so every row of
//!   the paper's Table 3 is backed by runnable code.
//!
//! ## Quickstart
//!
//! ```no_run
//! use etsb_core::pipeline::run_once;
//! use etsb_core::config::{ExperimentConfig, ModelKind, SamplerKind};
//! use etsb_datasets::{Dataset, GenConfig};
//!
//! let pair = Dataset::Beers.generate(&GenConfig { scale: 0.1, seed: 1 }).expect("dataset generation");
//! let cfg = ExperimentConfig {
//!     model: ModelKind::Etsb,
//!     sampler: SamplerKind::DiverSet,
//!     ..ExperimentConfig::default()
//! };
//! let result = run_once(&pair.dirty, &pair.clean, &cfg, 0).unwrap();
//! println!("F1 = {:.2}", result.metrics.f1);
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

/// Bounded, deterministic LRU over per-cell prediction probabilities.
pub mod cache;
/// Experiment, model and training hyper-parameter records.
pub mod config;
/// Cell-text to padded character-tensor encoding.
pub mod encode;
/// Precision/recall/F1 metrics and multi-repetition aggregation.
pub mod eval;
/// Paper section 5 extensions: attribute embeddings and length features.
pub mod extensions;
/// Run manifests: recorded provenance (seed, config, workers, version).
pub mod manifest;
/// The TSB/ETSB bidirectional RNN architectures.
pub mod model;
/// Model checkpoint serialization.
pub mod persist;
/// End-to-end experiment pipeline (`run_once` and friends).
pub mod pipeline;
/// The Rotom-style label-efficient sampling baseline.
pub mod rotom;
/// Training-set samplers (RandomSet, DiverSet, ...).
pub mod sampling;
/// Chunk-at-a-time streaming detection with O(chunk) memory.
pub mod stream;
/// Mini-batch training loop with early stopping.
pub mod train;

pub use cache::{CacheStats, PredictCache, PredictKey};
pub use config::{ExperimentConfig, ModelKind, SamplerKind, TrainConfig};
pub use encode::EncodedDataset;
pub use etsb_tensor::KernelPolicy;
pub use eval::{aggregate, Metrics, Summary};
pub use manifest::{DatasetInfo, RunManifest};
pub use pipeline::{run_once, run_repeated, RepeatedResult, RunResult};
pub use stream::{stream_predict, StreamChunk, StreamError, StreamMetrics, StreamOutcome};
