//! # etsb-raha
//!
//! A Raha-style configuration-free error-detection baseline
//! (Mahdavi et al., SIGMOD 2019), reimplemented from scratch as the
//! comparison system the ETSB-RNN paper evaluates against and as the
//! engine behind the paper's Algorithm 2 (`RahaSet`) label sampler.
//!
//! The pipeline follows the original's structure:
//!
//! 1. **Strategies** ([`strategies`]) — a battery of cheap detectors is
//!    run over every cell: frequency outliers (dBoost-style), Gaussian
//!    numeric outliers, pattern/shape violations (Wrangler-style),
//!    rare-character detectors, approximate functional-dependency
//!    violations (NADEEF-style) and domain-dictionary lookups
//!    (KATARA-style; DBpedia replaced by builtin dictionaries — see
//!    DESIGN.md §5).
//! 2. **Feature vectors** ([`build_features`]) — each cell's strategy outputs
//!    form a binary feature vector.
//! 3. **Clustering** ([`cluster_columns`]) — cells of each column are clustered
//!    by feature-vector similarity (agglomerative, average linkage).
//! 4. **Sampling & propagation** ([`RahaDetector`]) — tuples covering many
//!    unlabeled clusters are proposed to the user; labels propagate to
//!    cluster members; a per-column logistic-regression classifier
//!    ([`LogisticRegression`]) generalizes to the rest.

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

mod classifier;
mod cluster;
mod detector;
mod features;

pub mod strategies;

pub use classifier::LogisticRegression;
pub use cluster::{cluster_columns, ColumnClustering};
pub use detector::{RahaConfig, RahaDetector, RahaModel};
pub use features::{build_features, FeatureMatrix};
