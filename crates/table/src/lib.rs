//! # etsb-table
//!
//! A deliberately small, string-typed dataframe layer plus the ETSB-RNN
//! data-preparation pipeline (§4.1 of Holzer & Stockinger, EDBT 2022).
//!
//! The paper's reference implementation leans on pandas for four steps:
//! loading the dirty/clean CSV pair, a structure transformation (trimming,
//! id column, column renaming), the wide→long *merge* that produces one
//! row per cell with its correctness label, and dictionary generation
//! (character and attribute indexes). This crate reimplements exactly
//! those steps:
//!
//! * [`Table`] — a wide-format table of string cells,
//! * [`csv`] — RFC-4180-style CSV reading and writing,
//! * [`CellFrame`] / [`Cell`] — the long-format merge of a dirty/clean
//!   pair, carrying `value_x`, `value_y`, `label`, `empty`, `concat` and
//!   `length_norm` exactly as Figure 3 describes,
//! * [`CharIndex`] / [`AttrIndex`] — the value and attribute dictionaries
//!   of step (4), with index 0 reserved for padding,
//! * [`scan`] — the streaming counterpart: chunk-at-a-time merge over a
//!   [`scan::RowSource`] with O(chunk) memory and bit-identical cells,
//! * [`stats`] — the dataset statistics reported in the paper's Table 2.

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

mod cellframe;
mod dict;
mod error;
mod table;

pub mod csv;
pub mod scan;
pub mod stats;

pub use cellframe::{normalize_value, normalize_value_into, Cell, CellFrame, MAX_VALUE_LEN};
pub use dict::{AttrIndex, CharIndex, CharIndexBuilder, PAD_INDEX};
pub use error::TableError;
pub use table::Table;
