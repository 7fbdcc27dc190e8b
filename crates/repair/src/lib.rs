//! # etsb-repair
//!
//! Error *correction* on top of error *detection* — the direction the
//! ETSB-RNN paper's conclusion names as the ultimate goal ("to integrate
//! our approach with the data repair systems of HoloClean and Baran").
//!
//! Given a dirty table and a per-cell error mask (from any detector in
//! this workspace — the ETSB-RNN model, the Raha baseline, or ground
//! truth), the [`Repairer`] proposes a correction for each flagged cell
//! using only information from the dirty data and the *unflagged* cells:
//!
//! 1. **Format normalization** ([`normalize_to_shape`]) — learn the dominant
//!    surface shape of the column's clean cells and strip the deviation
//!    (unit suffixes like `12.0 oz`, percent signs, thousands separators,
//!    spurious `.0` decimals, `&`/`and` swaps, leading-zero width fixes),
//! 2. **Dependency repair** ([`FdRepairer`]) — discover approximate functional
//!    dependencies among clean cells and impute the majority value of
//!    the cell's determining group (Baran-style context repair),
//! 3. **Typo correction** ([`TypoCorrector`]) — snap to the nearest frequent clean
//!    value of the column within small edit distance,
//! 4. **Imputation** — fall back to the column's majority clean value for
//!    missing values in low-cardinality columns.
//!
//! Every proposal carries the strategy that produced it, and
//! [`evaluate`] scores proposals against a ground-truth table (repair
//! accuracy, and cell correctness before vs after repair).

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

mod distance;
mod fd;
mod normalize;
mod repairer;
mod typo;

pub use distance::{bounded_levenshtein, levenshtein};
pub use fd::FdRepairer;
pub use normalize::{dominant_shape, normalize_to_shape};
pub use repairer::{evaluate, Proposal, RepairEvaluation, RepairStrategy, Repairer};
pub use typo::TypoCorrector;
