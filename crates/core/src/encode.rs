//! Encoding of a merged [`CellFrame`](etsb_table::CellFrame) into model inputs, and the
//! train/test split by tuple id.

use etsb_table::{normalize_value, AttrIndex, CellFrame, CharIndex, Table, TableError};

/// Model-ready encoding of every cell of a dataset.
///
/// Arrays are indexed in `frame.cells()` order (tuple-major). The models
/// consume sequences at true length (§4.1's padding is only needed for
/// fixed-width tensor backends; see [`CharIndex::encode`]).
#[derive(Clone, Debug)]
pub struct EncodedDataset {
    /// Character-index sequence per cell (always at least one step).
    pub sequences: Vec<Vec<usize>>,
    /// Attribute id per cell (input to the ETSB metadata path).
    pub attr_ids: Vec<usize>,
    /// Normalized value length per cell (input to the ETSB length path).
    pub length_norms: Vec<f32>,
    /// Ground-truth error labels (`true` = error).
    pub labels: Vec<bool>,
    /// The value dictionary.
    pub char_index: CharIndex,
    /// The attribute dictionary.
    pub attr_index: AttrIndex,
    /// Tuples in the dataset.
    pub n_tuples: usize,
    /// Attributes per tuple.
    pub n_attrs: usize,
}

impl EncodedDataset {
    /// Encode every cell of a frame.
    pub fn from_frame(frame: &CellFrame) -> Self {
        let char_index = CharIndex::build(frame);
        let attr_index = AttrIndex::build(frame);
        let n_cells = frame.cells().len();
        let mut sequences = Vec::with_capacity(n_cells);
        let mut attr_ids = Vec::with_capacity(n_cells);
        let mut length_norms = Vec::with_capacity(n_cells);
        let mut labels = Vec::with_capacity(n_cells);
        for cell in frame.cells() {
            sequences.push(char_index.encode(&cell.value_x));
            attr_ids.push(cell.attr);
            length_norms.push(cell.length_norm);
            labels.push(cell.label);
        }
        Self {
            sequences,
            attr_ids,
            length_norms,
            labels,
            char_index,
            attr_index,
            n_tuples: frame.n_tuples(),
            n_attrs: frame.n_attrs(),
        }
    }

    /// Encode a *dirty-only* table (no ground truth) with dictionaries
    /// from training time — the deployment path used by
    /// [`crate::persist::LoadedDetector`]. Characters unseen during
    /// training map to the pad/unknown index; `length_norm` is computed
    /// against this table's own per-column maxima; all labels are
    /// `false` placeholders (there is no ground truth to compare to).
    ///
    /// The table's columns must match the training schema by name and
    /// order.
    pub fn from_dirty_table(
        table: &Table,
        char_index: &CharIndex,
        attr_index: &AttrIndex,
    ) -> Result<Self, TableError> {
        if table.n_cols() != attr_index.len() {
            return Err(TableError::ShapeMismatch {
                dirty: table.shape(),
                clean: (table.n_rows(), attr_index.len()),
            });
        }
        for (c, col) in table.columns().iter().enumerate() {
            if attr_index.name_of(c) != col {
                return Err(TableError::UnknownColumn(col.clone()));
            }
        }
        // Self-merge performs the same normalization (trim, truncation,
        // length_norm) as the training path.
        let frame = CellFrame::merge(table, table)?;
        let n_cells = frame.cells().len();
        let mut sequences = Vec::with_capacity(n_cells);
        let mut attr_ids = Vec::with_capacity(n_cells);
        let mut length_norms = Vec::with_capacity(n_cells);
        for cell in frame.cells() {
            sequences.push(char_index.encode(&cell.value_x));
            attr_ids.push(cell.attr);
            length_norms.push(cell.length_norm);
        }
        Ok(Self {
            sequences,
            attr_ids,
            length_norms,
            labels: vec![false; n_cells],
            char_index: char_index.clone(),
            attr_index: attr_index.clone(),
            n_tuples: frame.n_tuples(),
            n_attrs: frame.n_attrs(),
        })
    }

    /// Encode an ad-hoc batch of `(attribute id, raw value)` cells with
    /// training-time dictionaries — the batch-entry point of the serving
    /// path, where requests arrive as loose cells rather than a table.
    ///
    /// Values go through the same normalization as [`CellFrame::merge`]
    /// (leading whitespace trimmed, truncation to
    /// [`etsb_table::MAX_VALUE_LEN`] characters) and `length_norm` is
    /// computed against *this batch's* per-attribute maxima, mirroring
    /// [`EncodedDataset::from_dirty_table`]'s per-table semantics. The
    /// encoding of a batch is therefore a pure function of the batch
    /// alone — concatenating independently encoded batches for one
    /// coalesced forward pass cannot change any cell's inputs, which is
    /// what keeps coalesced serving bitwise identical to sequential
    /// serving.
    ///
    /// Labels are `false` placeholders; `n_tuples` counts the cells (each
    /// ad-hoc cell stands alone). Returns an error if an attribute id is
    /// out of range for the dictionary.
    pub fn from_request_cells(
        cells: &[(usize, &str)],
        char_index: &CharIndex,
        attr_index: &AttrIndex,
    ) -> Result<Self, TableError> {
        let mut max_len = vec![0usize; attr_index.len()];
        let mut normed = Vec::with_capacity(cells.len());
        for &(attr, value) in cells {
            if attr >= attr_index.len() {
                return Err(TableError::UnknownColumn(format!("attribute id {attr}")));
            }
            let value = normalize_value(value);
            max_len[attr] = max_len[attr].max(value.chars().count());
            normed.push((attr, value));
        }
        let mut sequences = Vec::with_capacity(cells.len());
        let mut attr_ids = Vec::with_capacity(cells.len());
        let mut length_norms = Vec::with_capacity(cells.len());
        for (attr, value) in &normed {
            // Byte for byte the rule `CellFrame::merge` uses.
            let col_max = max_len[*attr];
            length_norms.push(if col_max == 0 {
                0.0
            } else {
                value.chars().count() as f32 / col_max as f32
            });
            sequences.push(char_index.encode(value));
            attr_ids.push(*attr);
        }
        Ok(Self {
            sequences,
            attr_ids,
            length_norms,
            labels: vec![false; cells.len()],
            char_index: char_index.clone(),
            attr_index: attr_index.clone(),
            n_tuples: cells.len(),
            n_attrs: attr_index.len(),
        })
    }

    /// A dataset with dictionaries but no cells — exactly enough to
    /// construct a model of the right dimensions (persistence path).
    pub fn empty_with_dicts(char_index: CharIndex, attr_index: AttrIndex) -> Self {
        let n_attrs = attr_index.len();
        Self {
            sequences: Vec::new(),
            attr_ids: Vec::new(),
            length_norms: Vec::new(),
            labels: Vec::new(),
            char_index,
            attr_index,
            n_tuples: 0,
            n_attrs,
        }
    }

    /// Number of cells.
    pub fn n_cells(&self) -> usize {
        self.sequences.len()
    }

    /// Split cell indices into (train, test) by tuple membership:
    /// all cells of a trainset tuple go to train, the rest to test —
    /// the paper's "trainset of size 220 = 20 tuples x 11 attributes".
    pub fn split_by_tuples(&self, train_tuples: &[usize]) -> (Vec<usize>, Vec<usize>) {
        let mut in_train = vec![false; self.n_tuples];
        for &t in train_tuples {
            assert!(t < self.n_tuples, "split_by_tuples: tuple {t} out of range");
            in_train[t] = true;
        }
        let mut train = Vec::with_capacity(train_tuples.len() * self.n_attrs);
        let mut test = Vec::with_capacity(self.n_cells() - train.capacity().min(self.n_cells()));
        for (t, &is_train) in in_train.iter().enumerate() {
            let base = t * self.n_attrs;
            let dst = if is_train { &mut train } else { &mut test };
            dst.extend(base..base + self.n_attrs);
        }
        (train, test)
    }

    /// Labels of a set of cell indices.
    pub fn labels_of(&self, cells: &[usize]) -> Vec<bool> {
        cells.iter().map(|&c| self.labels[c]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsb_table::Table;

    fn frame() -> CellFrame {
        let mut d = Table::with_columns(&["a", "b"]);
        d.push_row_strs(&["ab", ""]);
        d.push_row_strs(&["c", "dd"]);
        d.push_row_strs(&["ab", "dd"]);
        let mut c = Table::with_columns(&["a", "b"]);
        c.push_row_strs(&["ab", "x"]);
        c.push_row_strs(&["c", "dd"]);
        c.push_row_strs(&["ab", "dd"]);
        CellFrame::merge(&d, &c).unwrap()
    }

    #[test]
    fn encoding_shapes_and_content() {
        let enc = EncodedDataset::from_frame(&frame());
        assert_eq!(enc.n_cells(), 6);
        assert_eq!(enc.n_tuples, 3);
        assert_eq!(enc.n_attrs, 2);
        // 'ab' encodes to two distinct nonzero indices.
        assert_eq!(enc.sequences[0].len(), 2);
        assert!(enc.sequences[0].iter().all(|&i| i > 0));
        // The empty value encodes as a single pad step.
        assert_eq!(enc.sequences[1], vec![0]);
        assert!(enc.labels[1]); // "" != "x"
        assert!(!enc.labels[2]);
        assert_eq!(enc.attr_ids, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn split_keeps_tuples_whole() {
        let enc = EncodedDataset::from_frame(&frame());
        let (train, test) = enc.split_by_tuples(&[1]);
        assert_eq!(train, vec![2, 3]);
        assert_eq!(test, vec![0, 1, 4, 5]);
        // Disjoint and exhaustive.
        let mut all: Vec<usize> = train.iter().chain(&test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn labels_of_selects() {
        let enc = EncodedDataset::from_frame(&frame());
        assert_eq!(enc.labels_of(&[1, 2]), vec![true, false]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn split_rejects_bad_tuple() {
        let enc = EncodedDataset::from_frame(&frame());
        let _ = enc.split_by_tuples(&[99]);
    }

    #[test]
    fn request_cells_encode_like_the_table_path() {
        let trained = EncodedDataset::from_frame(&frame());
        // The same values submitted as loose request cells encode to the
        // same sequences and per-batch length norms as a one-table apply.
        let req = EncodedDataset::from_request_cells(
            &[(0, "ab"), (1, ""), (0, "c"), (1, "dd")],
            &trained.char_index,
            &trained.attr_index,
        )
        .unwrap();
        assert_eq!(req.n_cells(), 4);
        assert_eq!(req.sequences[0], trained.sequences[0]);
        assert_eq!(req.sequences[1], vec![0], "empty value is one pad step");
        // Per-attribute maxima over this batch: attr 0 max 2, attr 1 max 2.
        assert_eq!(req.length_norms, vec![1.0, 0.0, 0.5, 1.0]);
        assert!(req.labels.iter().all(|&l| !l));
    }

    #[test]
    fn request_cells_normalize_and_handle_oov() {
        let trained = EncodedDataset::from_frame(&frame());
        let req = EncodedDataset::from_request_cells(
            &[(0, "  ab"), (0, "zz")],
            &trained.char_index,
            &trained.attr_index,
        )
        .unwrap();
        // Leading whitespace trimmed exactly like CellFrame::merge.
        assert_eq!(req.sequences[0], trained.sequences[0]);
        // Characters unseen at training time map to the pad/OOV index.
        assert_eq!(req.sequences[1], vec![0, 0]);
    }

    #[test]
    fn request_cells_reject_unknown_attribute_id() {
        let trained = EncodedDataset::from_frame(&frame());
        assert!(EncodedDataset::from_request_cells(
            &[(5, "ab")],
            &trained.char_index,
            &trained.attr_index,
        )
        .is_err());
    }

    #[test]
    fn request_cells_empty_batch_is_fine() {
        let trained = EncodedDataset::from_frame(&frame());
        let req = EncodedDataset::from_request_cells(&[], &trained.char_index, &trained.attr_index)
            .unwrap();
        assert_eq!(req.n_cells(), 0);
    }
}
