//! # etsb-datasets
//!
//! Seeded synthetic generators for the six benchmark datasets of the
//! ETSB-RNN paper (Beers, Flights, Hospital, Movies, Rayyan, Tax).
//!
//! The originals are distributed with the Raha repository and are not
//! available in this offline environment, so each generator synthesizes a
//! dirty/clean pair with the *same shape statistics* the paper's Table 2
//! reports — row/column counts, cell error rate, approximate alphabet
//! size — and the same error-type mix (missing values, typos, formatting
//! issues, violated attribute dependencies), including every idiosyncrasy
//! the paper's error analysis (§5.5) calls out:
//!
//! * Hospital typos inject the character `x` ("hexrt fxilure") and are
//!   trivially learnable;
//! * Flights carries multi-source departure/arrival conflicts that are
//!   character-plausible and therefore invisible to a character-level
//!   model (its known failure mode);
//! * Movies has `NaN` Duration cells that are *sometimes* the correct
//!   ground truth (the ambiguity §5.5 describes);
//! * Tax truncates leading zeros from ZIP codes and sprinkles typos into
//!   proper names.
//!
//! Every generator is deterministic in its `(scale, seed)` arguments.
//!
//! ```
//! use etsb_datasets::{Dataset, GenConfig};
//! let pair = Dataset::Beers.generate(&GenConfig { scale: 0.05, seed: 7 }).expect("dataset generation");
//! assert_eq!(pair.dirty.shape(), pair.clean.shape());
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

mod beers;
mod corrupt;
mod dataset;
mod flights;
mod hospital;
mod movies;
mod rayyan;
mod tax;
mod vocab;

pub use corrupt::{ErrorKind, Injector};
pub use dataset::{Dataset, DatasetPair, GenConfig};
