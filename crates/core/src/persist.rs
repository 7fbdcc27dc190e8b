//! Trained-detector persistence: save a trained model together with its
//! dictionaries, reload it later, and apply it to *new dirty data with no
//! ground truth* — the deployment step after the paper's train/evaluate
//! protocol.
//!
//! Binary format (all integers little-endian):
//!
//! ```text
//! magic "ETSBDET1"
//! u8  model kind (0 = TSB, 1 = ETSB)
//! u8  cell kind (0 = vanilla, 1 = LSTM, 2 = GRU)
//! u32 rnn_units | u32 attr_rnn_units | u32 head_dim | u32 length_dense_dim
//! u8  embed_dim override present | u32 embed_dim
//! u32 n_chars   | n_chars x u32 codepoint      (value dictionary, index order)
//! u32 n_attrs   | n_attrs x (u32 len, utf-8)   (attribute dictionary)
//! u64 weights byte length | weight snapshot (etsb-nn checkpoint format)
//! ```

use crate::config::{CellKind, ModelKind, TrainConfig};
use crate::encode::EncodedDataset;
use crate::model::AnyModel;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use etsb_table::{AttrIndex, CharIndex, Table, TableError};
use etsb_tensor::init::seeded_rng;

const MAGIC: &[u8; 8] = b"ETSBDET1";

/// Error loading a saved detector.
#[derive(Debug)]
pub enum PersistError {
    /// Not an ETSB detector file (bad magic) or truncated.
    Malformed(String),
    /// Weight snapshot does not fit the declared architecture.
    Weights(etsb_nn::CheckpointError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Malformed(msg) => write!(f, "malformed detector file: {msg}"),
            PersistError::Weights(e) => write!(f, "weight restore failed: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// A reloaded detector: the model plus everything needed to encode new
/// data the way it was trained.
#[derive(Debug)]
pub struct LoadedDetector {
    /// The restored model.
    pub model: AnyModel,
    /// Architecture kind.
    pub kind: ModelKind,
    /// The hyper-parameters the model was built with (training-schedule
    /// fields carry defaults; only architecture fields are persisted).
    pub train: TrainConfig,
    /// The value dictionary from training time.
    pub char_index: CharIndex,
    /// The attribute dictionary from training time.
    pub attr_index: AttrIndex,
}

impl LoadedDetector {
    /// Apply the detector to a new dirty table (no ground truth): encodes
    /// with the *training-time* dictionaries (unseen characters map to
    /// the pad/unknown index) and returns one error flag per cell in
    /// row-major order.
    ///
    /// The table's columns must match the training schema by name.
    pub fn apply(&self, dirty: &Table) -> Result<Vec<bool>, TableError> {
        let data = EncodedDataset::from_dirty_table(dirty, &self.char_index, &self.attr_index)?;
        let cells: Vec<usize> = (0..data.n_cells()).collect();
        Ok(self.model.predict(&data, &cells))
    }
}

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Serialize a trained model with the dictionaries it was trained on.
pub fn save_detector(
    model: &AnyModel,
    kind: ModelKind,
    cfg: &TrainConfig,
    data: &EncodedDataset,
) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u8(match kind {
        ModelKind::Tsb => 0,
        ModelKind::Etsb => 1,
    });
    buf.put_u8(match cfg.cell {
        CellKind::Vanilla => 0,
        CellKind::Lstm => 1,
        CellKind::Gru => 2,
    });
    buf.put_u32_le(cfg.rnn_units as u32);
    buf.put_u32_le(cfg.attr_rnn_units as u32);
    buf.put_u32_le(cfg.head_dim as u32);
    buf.put_u32_le(cfg.length_dense_dim as u32);
    buf.put_u8(u8::from(cfg.embed_dim.is_some()));
    buf.put_u32_le(cfg.embed_dim.unwrap_or(0) as u32);

    let entries = data.char_index.entries();
    buf.put_u32_le(entries.len() as u32);
    for (ch, _) in entries {
        buf.put_u32_le(ch as u32);
    }
    let names = data.attr_index.names();
    buf.put_u32_le(names.len() as u32);
    for name in names {
        put_string(&mut buf, name);
    }

    let weights = model.snapshot();
    buf.put_u64_le(weights.len() as u64);
    buf.put_slice(&weights);
    buf.to_vec()
}

fn need(buf: &Bytes, n: usize, what: &str) -> Result<(), PersistError> {
    if buf.remaining() < n {
        Err(PersistError::Malformed(format!(
            "truncated while reading {what}"
        )))
    } else {
        Ok(())
    }
}

/// Reject header dimensions [`AnyModel::new`] cannot build from this
/// file, before it allocates them: zero widths, and any parameter matrix
/// of the declared model kind that could not fit in the `w_len`-byte
/// weight payload on its own (4 bytes per float). The allocation a
/// header can request is thereby bounded by the file's own size;
/// [`AnyModel::restore`] still rejects every exact shape mismatch.
fn check_dims(
    kind: ModelKind,
    train: &TrainConfig,
    vocab: usize,
    n_attrs: usize,
    w_len: usize,
) -> Result<(), PersistError> {
    let mut dims = vec![("rnn_units", train.rnn_units), ("head_dim", train.head_dim)];
    if let Some(embed) = train.embed_dim {
        dims.push(("embed_dim", embed));
    }
    if kind == ModelKind::Etsb {
        dims.push(("attr_rnn_units", train.attr_rnn_units));
        dims.push(("length_dense_dim", train.length_dense_dim));
    }
    if let Some((what, _)) = dims.iter().find(|(_, d)| *d == 0) {
        return Err(PersistError::Malformed(format!("zero {what}")));
    }

    let gates = match train.cell {
        CellKind::Vanilla => 1,
        CellKind::Lstm => 4,
        CellKind::Gru => 3,
    };
    let to_u128 = |d: usize| d as u128;
    let embed = to_u128(train.embed_dim.unwrap_or(vocab));
    let (h, head) = (to_u128(train.rnn_units), to_u128(train.head_dim));
    // One real parameter matrix per way a header field grows the model:
    // the embedding table, each recurrent stack's first- and
    // second-layer input weights (the latter, `2h x gates·h`, dominates
    // every recurrent `wh`, `h x gates·h`) and the head's first dense
    // layer.
    let mut shapes = vec![
        ("embedding", to_u128(vocab), embed),
        ("rnn layer-1 input weights", embed, gates * h),
        ("rnn layer-2 input weights", 2 * h, gates * h),
    ];
    let mut head_in = 2 * h;
    if kind == ModelKind::Etsb {
        let attrs = to_u128(n_attrs.max(1));
        let (ha, len) = (
            to_u128(train.attr_rnn_units),
            to_u128(train.length_dense_dim),
        );
        shapes.extend([
            ("attribute embedding", attrs, attrs),
            ("attribute rnn layer-1 input weights", attrs, gates * ha),
            ("attribute rnn layer-2 input weights", 2 * ha, gates * ha),
            ("length dense", 1, len),
        ]);
        head_in += 2 * ha + len;
    }
    shapes.push(("head dense", head_in, head));
    for (what, rows, cols) in shapes {
        if rows * cols * 4 > to_u128(w_len) {
            return Err(PersistError::Malformed(format!(
                "{what} ({rows}x{cols}) does not fit in {w_len} weight bytes"
            )));
        }
    }
    Ok(())
}

/// Load a detector produced by [`save_detector`].
pub fn load_detector(bytes: &[u8]) -> Result<LoadedDetector, PersistError> {
    let mut buf = Bytes::copy_from_slice(bytes);
    need(&buf, 8, "magic")?;
    let mut magic = [0u8; 8];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(PersistError::Malformed("bad magic".into()));
    }
    need(&buf, 2 + 16 + 5, "header")?;
    let kind = match buf.get_u8() {
        0 => ModelKind::Tsb,
        1 => ModelKind::Etsb,
        other => {
            return Err(PersistError::Malformed(format!(
                "unknown model kind {other}"
            )))
        }
    };
    let cell = match buf.get_u8() {
        0 => CellKind::Vanilla,
        1 => CellKind::Lstm,
        2 => CellKind::Gru,
        other => {
            return Err(PersistError::Malformed(format!(
                "unknown cell kind {other}"
            )))
        }
    };
    let mut train = TrainConfig {
        rnn_units: buf.get_u32_le() as usize,
        attr_rnn_units: buf.get_u32_le() as usize,
        head_dim: buf.get_u32_le() as usize,
        length_dense_dim: buf.get_u32_le() as usize,
        cell,
        ..TrainConfig::default()
    };
    let has_embed = buf.get_u8() != 0;
    let embed = buf.get_u32_le() as usize;
    train.embed_dim = has_embed.then_some(embed);

    need(&buf, 4, "char count")?;
    let n_chars = buf.get_u32_le() as usize;
    need(&buf, n_chars.saturating_mul(4), "char table")?;
    let mut entries = Vec::with_capacity(n_chars);
    for i in 0..n_chars {
        let cp = buf.get_u32_le();
        let ch = char::from_u32(cp)
            .ok_or_else(|| PersistError::Malformed(format!("invalid codepoint {cp}")))?;
        entries.push((ch, i + 1));
    }
    let char_index = CharIndex::from_entries(entries);
    // A repeated codepoint collapses into one dictionary entry whose id
    // is past the embedding table, so the first cell holding it would
    // panic at lookup time instead of failing the load.
    if char_index.n_chars() != n_chars {
        return Err(PersistError::Malformed(
            "char table repeats a codepoint".into(),
        ));
    }

    need(&buf, 4, "attr count")?;
    let n_attrs = buf.get_u32_le() as usize;
    // Every name carries a 4-byte length, so the count is bounded by
    // the bytes left before anything is reserved for it.
    need(&buf, n_attrs.saturating_mul(4), "attr names")?;
    let mut names = Vec::with_capacity(n_attrs);
    for _ in 0..n_attrs {
        need(&buf, 4, "attr name length")?;
        let len = buf.get_u32_le() as usize;
        need(&buf, len, "attr name")?;
        let mut raw = vec![0u8; len];
        buf.copy_to_slice(&mut raw);
        let name = String::from_utf8(raw)
            .map_err(|_| PersistError::Malformed("non-utf8 attribute name".into()))?;
        names.push(name);
    }
    let attr_index = AttrIndex::from_names(names);

    need(&buf, 8, "weights length")?;
    let w_len = buf.get_u64_le() as usize;
    need(&buf, w_len, "weights")?;
    let weights = buf.copy_to_bytes(w_len);
    check_dims(
        kind,
        &train,
        char_index.vocab_size(),
        attr_index.len(),
        w_len,
    )?;

    // Build a model of the right shape, then restore the weights. The
    // RNG seed is irrelevant: every weight is overwritten.
    let dims = EncodedDataset::empty_with_dicts(char_index.clone(), attr_index.clone());
    let mut model = AnyModel::new(kind, &dims, &train, &mut seeded_rng(0));
    model.restore(&weights).map_err(PersistError::Weights)?;

    Ok(LoadedDetector {
        model,
        kind,
        train,
        char_index,
        attr_index,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::test_support::{marked_dataset, overfit};
    use etsb_tensor::KernelPolicy;

    fn small_cfg() -> TrainConfig {
        TrainConfig {
            rnn_units: 6,
            attr_rnn_units: 3,
            head_dim: 6,
            length_dense_dim: 4,
            embed_dim: Some(8),
            ..Default::default()
        }
    }

    #[test]
    fn save_load_round_trip_preserves_predictions() {
        let data = marked_dataset(30);
        let cfg = small_cfg();
        let mut model = AnyModel::new(ModelKind::Etsb, &data, &cfg, &mut seeded_rng(1));
        let _ = overfit(&mut model, &data, 40);

        let cells: Vec<usize> = (0..data.n_cells()).collect();
        let before = model.predict_probs_with(&data, &cells, KernelPolicy::Exact);

        let saved = save_detector(&model, ModelKind::Etsb, &cfg, &data);
        let loaded = load_detector(&saved).unwrap();
        assert_eq!(loaded.kind, ModelKind::Etsb);
        let after = loaded
            .model
            .predict_probs_with(&data, &cells, KernelPolicy::Exact);
        assert_eq!(before, after);
    }

    #[test]
    fn loaded_detector_applies_to_fresh_dirty_data() {
        let data = marked_dataset(30);
        let cfg = small_cfg();
        let mut model = AnyModel::new(ModelKind::Tsb, &data, &cfg, &mut seeded_rng(2));
        let _ = overfit(&mut model, &data, 60);
        let saved = save_detector(&model, ModelKind::Tsb, &cfg, &data);
        let loaded = load_detector(&saved).unwrap();

        // New dirty-only table in the same schema: errors carry '!'.
        let mut fresh = etsb_table::Table::with_columns(&["v", "w"]);
        fresh.push_row_strs(&["val1", "11"]);
        fresh.push_row_strs(&["val2!", "12"]);
        let flags = loaded.apply(&fresh).unwrap();
        assert_eq!(flags.len(), 4);
        assert!(flags[2], "the marked value should be flagged");
        assert!(!flags[0]);
    }

    /// Regression: applying a detector to a table with zero rows must
    /// return an empty mask, not panic in the batch-packing kernels.
    #[test]
    fn apply_to_empty_table_returns_empty_mask() {
        let data = marked_dataset(12);
        let cfg = small_cfg();
        let model = AnyModel::new(ModelKind::Etsb, &data, &cfg, &mut seeded_rng(9));
        let saved = save_detector(&model, ModelKind::Etsb, &cfg, &data);
        let loaded = load_detector(&saved).unwrap();
        let empty = etsb_table::Table::with_columns(&["v", "w"]);
        assert!(loaded.apply(&empty).unwrap().is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            load_detector(b"NOTADETECTOR"),
            Err(PersistError::Malformed(_))
        ));
    }

    /// A hand-crafted TSB header (vanilla cell, no embedding override)
    /// declaring `rnn_units`, followed by an empty value dictionary.
    fn crafted_header(rnn_units: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_slice(MAGIC);
        buf.put_u8(0);
        buf.put_u8(0);
        for dim in [rnn_units, 8, 32, 64] {
            buf.put_u32_le(dim);
        }
        buf.put_u8(0);
        buf.put_u32_le(0);
        buf.put_u32_le(0);
        buf
    }

    /// `crafted_header` completed with no attributes and an empty weight
    /// payload: 47 bytes.
    fn crafted_file(rnn_units: u32) -> Vec<u8> {
        let mut buf = crafted_header(rnn_units);
        buf.put_u32_le(0);
        buf.put_u64_le(0);
        buf
    }

    #[test]
    fn oversized_units_are_rejected_before_allocating() {
        let file = crafted_file(65_536);
        assert_eq!(file.len(), 47);
        assert!(matches!(
            load_detector(&file),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn repeated_codepoint_is_rejected() {
        let data = marked_dataset(12);
        let cfg = small_cfg();
        let model = AnyModel::new(ModelKind::Tsb, &data, &cfg, &mut seeded_rng(5));
        let saved = save_detector(&model, ModelKind::Tsb, &cfg, &data);
        // The char count follows the magic and the 23-byte config
        // header; repeat the first codepoint right after itself.
        let count_at = MAGIC.len() + 23;
        let table_at = count_at + 4;
        let n_chars = u32::from_le_bytes(saved[count_at..table_at].try_into().unwrap());
        let mut file = saved[..count_at].to_vec();
        file.put_u32_le(n_chars + 1);
        file.extend_from_slice(&saved[table_at..table_at + 4]);
        file.extend_from_slice(&saved[table_at..]);
        assert_eq!(file.len(), saved.len() + 4);
        assert!(matches!(
            load_detector(&file),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn attr_count_beyond_the_file_is_rejected() {
        let mut file = crafted_header(64);
        file.put_u32_le(u32::MAX);
        assert_eq!(file.len(), 39);
        assert!(matches!(
            load_detector(&file),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn zero_units_are_rejected() {
        assert!(matches!(
            load_detector(&crafted_file(0)),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let data = marked_dataset(12);
        let cfg = small_cfg();
        let model = AnyModel::new(ModelKind::Tsb, &data, &cfg, &mut seeded_rng(3));
        let saved = save_detector(&model, ModelKind::Tsb, &cfg, &data);
        // Chop the buffer at several points; every prefix must fail
        // cleanly rather than panic.
        for cut in [0, 4, 9, 12, 30, saved.len() / 2, saved.len() - 3] {
            assert!(
                load_detector(&saved[..cut]).is_err(),
                "prefix of {cut} bytes unexpectedly loaded"
            );
        }
    }

    #[test]
    fn schema_mismatch_is_reported_on_apply() {
        let data = marked_dataset(12);
        let cfg = small_cfg();
        let model = AnyModel::new(ModelKind::Tsb, &data, &cfg, &mut seeded_rng(4));
        let saved = save_detector(&model, ModelKind::Tsb, &cfg, &data);
        let loaded = load_detector(&saved).unwrap();
        let mut wrong = etsb_table::Table::with_columns(&["different", "schema"]);
        wrong.push_row_strs(&["a", "b"]);
        assert!(loaded.apply(&wrong).is_err());
    }
}
