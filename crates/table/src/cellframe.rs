//! The long-format merge of a dirty/clean table pair (§4.1, step 3).
//!
//! Every cell of the wide tables becomes one [`Cell`] record carrying the
//! dirty value (`value_x`), the ground-truth value (`value_y`), the
//! correctness label, the `empty` flag and the normalized length used by
//! the ETSB-RNN model. The frame stores cells in row-major order (all
//! attributes of tuple 0, then tuple 1, …), mirroring the `id_`-sorted
//! long dataframe of the paper's Figure 3.

use crate::{Table, TableError};

/// Values longer than this many characters are truncated, exactly as the
/// paper does for hospital/movies/rayyan ("If the value has more than 128
/// characters … we cut them off").
pub const MAX_VALUE_LEN: usize = 128;

/// Normalize one raw cell value exactly as [`CellFrame::merge`] does:
/// trim leading whitespace, then cap at [`MAX_VALUE_LEN`] characters.
///
/// This is the single normalization used everywhere a raw string enters
/// the model's view of the data — the in-memory merge, the streaming
/// scan and serve-request encoding all call it, which is what makes the
/// chunked path bitwise-identical to the in-memory one.
pub fn normalize_value(raw: &str) -> String {
    let mut out = String::new();
    normalize_value_into(raw, &mut out);
    out
}

/// Allocation-free variant of [`normalize_value`]: clears `out` and
/// fills it with the normalized value, reusing its capacity.
pub fn normalize_value_into(raw: &str, out: &mut String) {
    out.clear();
    let trimmed = raw.trim_start();
    // A value of at most MAX_VALUE_LEN bytes has at most that many chars.
    let end = if trimmed.len() <= MAX_VALUE_LEN {
        trimmed.len()
    } else {
        trimmed
            .char_indices()
            .nth(MAX_VALUE_LEN)
            .map_or(trimmed.len(), |(at, _)| at)
    };
    out.push_str(&trimmed[..end]);
}

/// One cell of the merged long-format dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Tuple id (`id_` in the paper): the 0-based row of the wide table.
    pub tuple_id: usize,
    /// 0-based attribute (column) index.
    pub attr: usize,
    /// Dirty value, leading-whitespace-trimmed and length-capped.
    pub value_x: String,
    /// Clean (ground-truth) value, same normalization.
    pub value_y: String,
    /// `true` when `value_x` differs from `value_y` (an error).
    pub label: bool,
    /// `true` when `value_x` is empty — input to DiverSet's tie-break.
    pub empty: bool,
    /// `len(value_x) / max len(value_x) within this attribute` (0 when the
    /// attribute is entirely empty).
    pub length_norm: f32,
}

impl Cell {
    /// The `concat` column of the paper: attribute name joined with the
    /// dirty value, used by DiverSet to track *seen attribute values*.
    /// The unit separator cannot occur in CSV data, so the pairing is
    /// collision-free.
    pub fn concat(&self, attrs: &[String]) -> String {
        format!("{}\u{1f}{}", attrs[self.attr], self.value_x)
    }
}

/// Long-format merged dataset: the paper's `df`.
#[derive(Clone, Debug)]
pub struct CellFrame {
    attrs: Vec<String>,
    n_tuples: usize,
    cells: Vec<Cell>,
}

impl CellFrame {
    /// Merge a dirty/clean pair (§4.1 steps 1–3): trim leading
    /// whitespace, align columns by position (the paper renames the dirty
    /// header to the clean one), truncate long values, compute labels,
    /// `empty` flags and `length_norm`.
    ///
    /// Returns an error when the tables' shapes differ.
    pub fn merge(dirty: &Table, clean: &Table) -> Result<Self, TableError> {
        if dirty.shape() != clean.shape() {
            return Err(TableError::ShapeMismatch {
                dirty: dirty.shape(),
                clean: clean.shape(),
            });
        }
        let (n_rows, n_cols) = dirty.shape();
        let attrs: Vec<String> = clean.columns().to_vec();

        // First pass: per-attribute maximum dirty-value length.
        let mut max_len = vec![0usize; n_cols];
        for r in 0..n_rows {
            for (c, slot) in max_len.iter_mut().enumerate() {
                let len = normalize_value(dirty.cell(r, c)).chars().count();
                *slot = (*slot).max(len);
            }
        }

        let mut cells = Vec::with_capacity(n_rows * n_cols);
        for r in 0..n_rows {
            for (c, &col_max) in max_len.iter().enumerate() {
                let value_x = normalize_value(dirty.cell(r, c));
                let value_y = normalize_value(clean.cell(r, c));
                let len = value_x.chars().count();
                cells.push(Cell {
                    tuple_id: r,
                    attr: c,
                    label: value_x != value_y,
                    empty: value_x.is_empty(),
                    length_norm: if col_max == 0 {
                        0.0
                    } else {
                        len as f32 / col_max as f32
                    },
                    value_x,
                    value_y,
                });
            }
        }
        Ok(Self {
            attrs,
            n_tuples: n_rows,
            cells,
        })
    }

    /// Attribute (column) names.
    pub fn attrs(&self) -> &[String] {
        &self.attrs
    }

    /// Number of attributes per tuple.
    pub fn n_attrs(&self) -> usize {
        self.attrs.len()
    }

    /// Number of tuples (wide-table rows).
    pub fn n_tuples(&self) -> usize {
        self.n_tuples
    }

    /// All cells, row-major.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The cells of one tuple.
    pub fn tuple(&self, tuple_id: usize) -> &[Cell] {
        let a = self.n_attrs();
        &self.cells[tuple_id * a..(tuple_id + 1) * a]
    }

    /// Global index of a cell in [`CellFrame::cells`].
    pub fn cell_index(&self, tuple_id: usize, attr: usize) -> usize {
        tuple_id * self.n_attrs() + attr
    }

    /// Fraction of cells whose label is `true` (the paper's "error rate").
    pub fn error_rate(&self) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        self.cells.iter().filter(|c| c.label).count() as f64 / self.cells.len() as f64
    }

    /// Number of distinct characters across all dirty values (the paper's
    /// "Different Characters" column of Table 2).
    pub fn distinct_chars(&self) -> usize {
        let mut seen = std::collections::BTreeSet::new();
        for cell in &self.cells {
            seen.extend(cell.value_x.chars());
        }
        seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (Table, Table) {
        let mut dirty = Table::with_columns(&["age", "city"]);
        dirty.push_row_strs(&["21", " Romr"]);
        dirty.push_row_strs(&["", "Paris"]);
        let mut clean = Table::with_columns(&["age", "city"]);
        clean.push_row_strs(&["21", "Rome"]);
        clean.push_row_strs(&["30", "Paris"]);
        (dirty, clean)
    }

    #[test]
    fn merge_labels_and_flags() {
        let (d, c) = pair();
        let frame = CellFrame::merge(&d, &c).unwrap();
        assert_eq!(frame.n_tuples(), 2);
        assert_eq!(frame.n_attrs(), 2);
        let cells = frame.cells();
        assert!(!cells[0].label); // 21 == 21
        assert!(cells[1].label); // Romr != Rome (after trim)
        assert!(cells[2].label && cells[2].empty); // "" != 30
        assert!(!cells[3].label);
        assert_eq!(frame.error_rate(), 0.5);
    }

    #[test]
    fn leading_whitespace_trimmed_before_compare() {
        let (d, c) = pair();
        let frame = CellFrame::merge(&d, &c).unwrap();
        assert_eq!(frame.cells()[1].value_x, "Romr");
    }

    #[test]
    fn length_norm_relative_to_attribute_max() {
        let (d, c) = pair();
        let frame = CellFrame::merge(&d, &c).unwrap();
        // city column: "Romr" (4) and "Paris" (5) → norms 0.8 and 1.0.
        assert!((frame.cells()[1].length_norm - 0.8).abs() < 1e-6);
        assert!((frame.cells()[3].length_norm - 1.0).abs() < 1e-6);
        // age column: "21" (2) and "" (0) → norms 1.0 and 0.0.
        assert!((frame.cells()[0].length_norm - 1.0).abs() < 1e-6);
        assert_eq!(frame.cells()[2].length_norm, 0.0);
    }

    #[test]
    fn long_values_truncated() {
        let long = "x".repeat(300);
        let mut d = Table::with_columns(&["a"]);
        d.push_row(vec![long.clone()]);
        let mut c = Table::with_columns(&["a"]);
        c.push_row(vec![long]);
        let frame = CellFrame::merge(&d, &c).unwrap();
        assert_eq!(frame.cells()[0].value_x.chars().count(), MAX_VALUE_LEN);
        // Equal after truncation → still labelled correct.
        assert!(!frame.cells()[0].label);
    }

    #[test]
    fn normalization_caps_chars_not_bytes() {
        let reference =
            |raw: &str| -> String { raw.trim_start().chars().take(MAX_VALUE_LEN).collect() };
        for raw in [
            String::new(),
            "  \t ".to_string(),
            " x".repeat(200),
            "é".repeat(MAX_VALUE_LEN),
            format!("  {}", "é".repeat(MAX_VALUE_LEN + 1)),
            "東".repeat(50),
            format!("{}東", "a".repeat(MAX_VALUE_LEN - 1)),
            format!("{}東", "a".repeat(MAX_VALUE_LEN)),
        ] {
            assert_eq!(normalize_value(&raw), reference(&raw), "{raw:?}");
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let (d, _) = pair();
        let mut c = Table::with_columns(&["age", "city"]);
        c.push_row_strs(&["21", "Rome"]);
        assert!(matches!(
            CellFrame::merge(&d, &c),
            Err(TableError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn concat_is_collision_free() {
        let (d, c) = pair();
        let frame = CellFrame::merge(&d, &c).unwrap();
        let concat = frame.cells()[1].concat(frame.attrs());
        assert_eq!(concat, format!("city\u{1f}Romr"));
    }

    #[test]
    fn tuple_view_and_index() {
        let (d, c) = pair();
        let frame = CellFrame::merge(&d, &c).unwrap();
        assert_eq!(frame.tuple(1).len(), 2);
        assert_eq!(frame.tuple(1)[0].value_x, "");
        assert_eq!(frame.cell_index(1, 1), 3);
    }

    #[test]
    fn distinct_chars_counts_dirty_side() {
        let (d, c) = pair();
        let frame = CellFrame::merge(&d, &c).unwrap();
        // "21", "Romr", "", "Paris" → {2,1,R,o,m,r,P,a,i,s} = 10
        assert_eq!(frame.distinct_chars(), 10);
    }
}
