//! Chunk-at-a-time streaming detection with O(chunk) memory.
//!
//! [`stream_predict`] drives a [`FrameScan`](etsb_table::scan::FrameScan)
//! through the frozen-dict encoder and
//! [`AnyModel::predict_probs_cached_with`](crate::model::AnyModel::predict_probs_cached_with),
//! handing each
//! chunk's probabilities to a caller-supplied sink as soon as they are
//! computed — nothing table-sized is ever resident. Because the batched
//! evaluation paths are row-independent (a cell's probability does not
//! depend on which other cells share its forward pass), chunk boundaries
//! are just batch boundaries: for any chunk size, worker count and
//! [`KernelPolicy`] arm the emitted probabilities are bitwise identical
//! to one whole-table `predict_probs_with` call over the in-memory
//! encoding. See DESIGN.md §16 for the full equivalence argument.
//!
//! Each chunk encodes and scores every distinct `(attribute, value)` pair
//! once and copies the probability to the pair's other cells, which
//! moves no bit and no cache operation (DESIGN.md §16.2). All chunk-sized
//! buffers (the merged cells, the encoded sequences, the prediction
//! vectors) are recycled between chunks, so steady-state streaming
//! performs a bounded number of allocations per chunk and peak memory is
//! O(`chunk_rows` × attrs), independent of the row count.

use crate::cache::PredictCache;
use crate::encode::EncodedDataset;
use crate::eval::Metrics;
use crate::model::AnyModel;
use etsb_table::scan::{ChunkedFrame, FrameScan, RowSource};
use etsb_table::{AttrIndex, CharIndex, TableError};
use etsb_tensor::KernelPolicy;
use std::collections::HashMap;

/// Error from a streaming detection pass.
#[derive(Clone, Debug, PartialEq)]
pub enum StreamError {
    /// The row source failed or produced malformed data.
    Table(TableError),
    /// The sink failed (e.g. an I/O error while writing results).
    Sink(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Table(e) => write!(f, "stream source: {e}"),
            StreamError::Sink(msg) => write!(f, "stream sink: {msg}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<TableError> for StreamError {
    fn from(e: TableError) -> Self {
        StreamError::Table(e)
    }
}

/// One detected chunk, borrowed from the streaming loop's reusable
/// buffers: the merged cells (with global `tuple_id`s), the model's
/// error probabilities and the thresholded predictions, all aligned
/// with `frame.cells()`.
#[derive(Debug)]
pub struct StreamChunk<'a> {
    /// The chunk's merged cells.
    pub frame: &'a ChunkedFrame,
    /// Error probability per cell (class-1 softmax output).
    pub probs: &'a [f32],
    /// `probs >= 0.5`, the same threshold as [`AnyModel::predict`].
    pub preds: &'a [bool],
}

/// Running confusion-matrix accumulator for chunked evaluation.
///
/// [`Metrics`] ratios are pure functions of the four integer counts, so
/// accumulating per chunk and finishing through [`Metrics::from_counts`]
/// is bitwise identical to one [`Metrics::from_predictions`] call over
/// the whole cell stream.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamMetrics {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
    /// True negatives.
    pub tn: usize,
}

impl StreamMetrics {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one prediction against its ground-truth label.
    pub fn observe(&mut self, predicted: bool, label: bool) {
        match (predicted, label) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, true) => self.fn_ += 1,
            (false, false) => self.tn += 1,
        }
    }

    /// Number of observations so far.
    pub fn n(&self) -> usize {
        self.tp + self.fp + self.fn_ + self.tn
    }

    /// Finish into [`Metrics`]; `None` when nothing was observed.
    pub fn finish(&self) -> Option<Metrics> {
        if self.n() == 0 {
            None
        } else {
            Some(Metrics::from_counts(self.tp, self.fp, self.fn_, self.tn))
        }
    }
}

/// Totals and peak-memory proxies from one [`stream_predict`] pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamOutcome {
    /// Rows scanned.
    pub n_rows: usize,
    /// Cells predicted (`rows × attrs`).
    pub n_cells: usize,
    /// Cells whose probability crossed the 0.5 threshold.
    pub flagged: usize,
    /// Peak resident bytes of the merged-chunk buffer.
    pub peak_chunk_bytes: usize,
    /// Peak resident bytes of the encoded-chunk buffer.
    pub peak_encoded_bytes: usize,
}

/// Reusable frozen-dict encoder: refills one [`EncodedDataset`] with the
/// distinct `(attribute, value)` pairs of a chunk, recycling the
/// per-value sequence buffers.
///
/// Cells of one chunk that share an attribute and a dirty value share
/// every model input: the same characters give the same sequence, and
/// the same length against the same per-attribute maximum gives the same
/// `length_norm`. So only the first cell of each pair is encoded, and
/// `slots` maps every chunk cell to that representative. The first cell
/// with a given memo key is also the first with its `(attribute, value)`,
/// so the representatives reach the memo in the order the chunk's cells
/// would: every `PredictCache` get and insert and the forward batch stay
/// exactly those of a per-cell encoding.
struct ChunkEncoder {
    data: EncodedDataset,
    spare: Vec<Vec<usize>>,
    /// Per chunk cell, the index of its representative in `data`.
    slots: Vec<usize>,
}

impl ChunkEncoder {
    fn new(char_index: &CharIndex, attr_index: &AttrIndex) -> Self {
        Self {
            data: EncodedDataset::empty_with_dicts(char_index.clone(), attr_index.clone()),
            spare: Vec::new(),
            slots: Vec::new(),
        }
    }

    fn refill(&mut self, chunk: &ChunkedFrame) {
        let data = &mut self.data;
        self.spare.append(&mut data.sequences);
        data.attr_ids.clear();
        data.length_norms.clear();
        data.labels.clear();
        self.slots.clear();
        let mut first: HashMap<(usize, &str), usize> = HashMap::new();
        for cell in chunk.cells() {
            let next = data.sequences.len();
            let slot = *first
                .entry((cell.attr, cell.value_x.as_str()))
                .or_insert_with(|| {
                    let mut seq = self.spare.pop().unwrap_or_default();
                    data.char_index.encode_into(&cell.value_x, &mut seq);
                    data.sequences.push(seq);
                    data.attr_ids.push(cell.attr);
                    data.length_norms.push(cell.length_norm);
                    // Sinks read labels from the chunk's cells.
                    data.labels.push(false);
                    next
                });
            self.slots.push(slot);
        }
        data.n_tuples = chunk.n_tuples();
        data.n_attrs = chunk.n_attrs();
    }

    /// Resident heap footprint of the encoded buffers in bytes.
    fn resident_bytes(&self) -> usize {
        let live: usize = self
            .data
            .sequences
            .iter()
            .chain(self.spare.iter())
            .map(|s| s.capacity() * std::mem::size_of::<usize>())
            .sum();
        live + (self.data.attr_ids.capacity() + self.slots.capacity())
            * std::mem::size_of::<usize>()
            + self.data.length_norms.capacity() * std::mem::size_of::<f32>()
            + self.data.labels.capacity()
    }
}

/// Stream a scan through the model: encode each chunk against the frozen
/// dictionaries, predict, and hand the results to `sink` in input order.
///
/// `char_index`/`attr_index` are the *frozen* dictionaries (from a
/// trained detector, a persisted vocabulary, or a `scan_stats` pass —
/// see [`etsb_table::scan::scan_stats`]); the scan's per-attribute
/// maxima supply the global `length_norm` denominators. The source's
/// columns must match the attribute dictionary by name and order.
///
/// `cache` composes exactly as in the serving path: a disabled cache
/// keeps the per-chunk memo only, an enabled one dedups representatives
/// across chunk boundaries. Either way the bits are identical — the
/// cache only changes how much work is done.
pub fn stream_predict<S: RowSource>(
    model: &AnyModel,
    char_index: &CharIndex,
    attr_index: &AttrIndex,
    scan: &mut FrameScan<S>,
    cache: &mut PredictCache,
    policy: KernelPolicy,
    mut sink: impl FnMut(&StreamChunk<'_>) -> Result<(), String>,
) -> Result<StreamOutcome, StreamError> {
    for (c, col) in scan.columns().iter().enumerate() {
        if c >= attr_index.len() || attr_index.name_of(c) != col {
            return Err(StreamError::Table(TableError::UnknownColumn(col.clone())));
        }
    }
    if scan.columns().len() != attr_index.len() {
        return Err(StreamError::Table(TableError::UnknownColumn(format!(
            "expected {} attributes, source has {}",
            attr_index.len(),
            scan.columns().len()
        ))));
    }

    let mut encoder = ChunkEncoder::new(char_index, attr_index);
    let mut chunk = ChunkedFrame::new();
    let mut rep_ids: Vec<usize> = Vec::new();
    let mut probs: Vec<f32> = Vec::new();
    let mut preds: Vec<bool> = Vec::new();
    let mut outcome = StreamOutcome::default();

    while scan.next_chunk(&mut chunk)? {
        encoder.refill(&chunk);
        rep_ids.clear();
        rep_ids.extend(0..encoder.data.n_cells());
        let rep_probs = model.predict_probs_cached_with(&encoder.data, &rep_ids, cache, policy);
        probs.clear();
        probs.extend(encoder.slots.iter().map(|&slot| rep_probs[slot]));
        preds.clear();
        preds.extend(probs.iter().map(|&p| p >= 0.5));

        outcome.n_rows += chunk.n_tuples();
        outcome.n_cells += probs.len();
        outcome.flagged += preds.iter().filter(|&&p| p).count();
        outcome.peak_chunk_bytes = outcome.peak_chunk_bytes.max(chunk.resident_bytes());
        outcome.peak_encoded_bytes = outcome.peak_encoded_bytes.max(encoder.resident_bytes());

        sink(&StreamChunk {
            frame: &chunk,
            probs: &probs,
            preds: &preds,
        })
        .map_err(StreamError::Sink)?;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelKind, TrainConfig};
    use etsb_table::scan::{scan_stats, TableSource};
    use etsb_table::{CellFrame, Table, PAD_INDEX};
    use etsb_tensor::init::seeded_rng;

    fn pair() -> (Table, Table) {
        let mut dirty = Table::with_columns(&["a", "b"]);
        let mut clean = Table::with_columns(&["a", "b"]);
        for i in 0..13 {
            let v = format!("v{i}");
            let w = format!("w{}", i % 4);
            let dirty_v = if i % 5 == 0 {
                format!("{v}x")
            } else {
                v.clone()
            };
            dirty.push_row_strs(&[&dirty_v, &w]);
            clean.push_row_strs(&[&v, &w]);
        }
        (dirty, clean)
    }

    fn small_cfg() -> TrainConfig {
        TrainConfig {
            rnn_units: 4,
            attr_rnn_units: 2,
            head_dim: 4,
            length_dense_dim: 2,
            embed_dim: Some(3),
            ..TrainConfig::default()
        }
    }

    #[test]
    fn streaming_probs_match_the_in_memory_path_bitwise() {
        let (d, c) = pair();
        let frame = CellFrame::merge(&d, &c).unwrap();
        let data = EncodedDataset::from_frame(&frame);
        let model = AnyModel::new(ModelKind::Etsb, &data, &small_cfg(), &mut seeded_rng(7));
        let all: Vec<usize> = (0..data.n_cells()).collect();
        let reference = model.predict_probs_with(&data, &all, KernelPolicy::Exact);

        for chunk_rows in [1usize, 3, 5, 100] {
            let mut source = TableSource::pair(&d, &c).unwrap();
            let (stats, _) = scan_stats(&mut source).unwrap();
            let mut scan = FrameScan::new(source, stats.max_len, chunk_rows);
            let mut streamed: Vec<f32> = Vec::new();
            let outcome = stream_predict(
                &model,
                &data.char_index,
                &data.attr_index,
                &mut scan,
                &mut PredictCache::disabled(),
                KernelPolicy::Exact,
                |chunk| {
                    streamed.extend_from_slice(chunk.probs);
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(outcome.n_cells, reference.len());
            assert_eq!(outcome.n_rows, 13);
            assert!(outcome.peak_chunk_bytes > 0 && outcome.peak_encoded_bytes > 0);
            let reference_bits: Vec<u32> = reference.iter().map(|p| p.to_bits()).collect();
            let streamed_bits: Vec<u32> = streamed.iter().map(|p| p.to_bits()).collect();
            assert_eq!(streamed_bits, reference_bits, "chunk_rows={chunk_rows}");
        }
    }

    #[test]
    fn shared_cache_across_chunks_keeps_bits() {
        let (d, c) = pair();
        let frame = CellFrame::merge(&d, &c).unwrap();
        let data = EncodedDataset::from_frame(&frame);
        let model = AnyModel::new(ModelKind::Etsb, &data, &small_cfg(), &mut seeded_rng(7));
        let all: Vec<usize> = (0..data.n_cells()).collect();
        let reference = model.predict_probs_with(&data, &all, KernelPolicy::Exact);

        let mut source = TableSource::pair(&d, &c).unwrap();
        let (stats, _) = scan_stats(&mut source).unwrap();
        let mut scan = FrameScan::new(source, stats.max_len, 4);
        let mut cache = PredictCache::new(1024);
        let mut streamed: Vec<f32> = Vec::new();
        stream_predict(
            &model,
            &data.char_index,
            &data.attr_index,
            &mut scan,
            &mut cache,
            KernelPolicy::Exact,
            |chunk| {
                streamed.extend_from_slice(chunk.probs);
                Ok(())
            },
        )
        .unwrap();
        assert!(cache.stats().hits + cache.stats().misses > 0);
        let reference_bits: Vec<u32> = reference.iter().map(|p| p.to_bits()).collect();
        let streamed_bits: Vec<u32> = streamed.iter().map(|p| p.to_bits()).collect();
        assert_eq!(streamed_bits, reference_bits);
    }

    #[test]
    fn repeated_values_keep_bits_labels_and_cache_work() {
        let (d, c) = pair();
        let train = EncodedDataset::from_frame(&CellFrame::merge(&d, &c).unwrap());
        let model = AnyModel::new(ModelKind::Etsb, &train, &small_cfg(), &mut seeded_rng(7));
        // "v1" appears under both attributes. The training alphabet lacks
        // 'q' and 'z', so "qq" and "zz" both encode to [PAD, PAD]. "w2"
        // is correct in row 1 and an error in rows 2 and 4.
        let mut dirty = Table::with_columns(&["a", "b"]);
        let mut clean = Table::with_columns(&["a", "b"]);
        for (observed, truth) in [
            (["v1", "v1"], ["v1", "v1"]),
            (["qq", "w2"], ["v2", "w2"]),
            (["zz", "w2"], ["v3", "w1"]),
            (["v1", "qq"], ["v1", "qq"]),
            (["zz", "w2"], ["zz", "w3"]),
        ] {
            dirty.push_row_strs(&observed);
            clean.push_row_strs(&truth);
        }
        let truth = CellFrame::merge(&dirty, &clean).unwrap();
        let per_cell =
            EncodedDataset::from_dirty_table(&dirty, &train.char_index, &train.attr_index).unwrap();
        assert_eq!(per_cell.sequences[2], vec![PAD_INDEX; 2]);
        assert_eq!(per_cell.sequences[4], per_cell.sequences[2]);
        let all: Vec<usize> = (0..per_cell.n_cells()).collect();
        let reference = model.predict_probs_with(&per_cell, &all, KernelPolicy::Exact);
        let reference_bits: Vec<u32> = reference.iter().map(|p| p.to_bits()).collect();
        let labels: Vec<bool> = truth.cells().iter().map(|cell| cell.label).collect();

        for chunk_rows in [1usize, 2, 3, 5] {
            for capacity in [0usize, 2, 1024] {
                // The per-cell encoding's cache traffic, chunk by chunk.
                let mut per_cell_cache = PredictCache::new(capacity);
                for cells in all.chunks(chunk_rows * 2) {
                    model.predict_probs_cached_with(
                        &per_cell,
                        cells,
                        &mut per_cell_cache,
                        KernelPolicy::Exact,
                    );
                }

                let mut source = TableSource::pair(&dirty, &clean).unwrap();
                let (stats, _) = scan_stats(&mut source).unwrap();
                let mut scan = FrameScan::new(source, stats.max_len, chunk_rows);
                let mut cache = PredictCache::new(capacity);
                let (mut bits, mut streamed_labels) = (Vec::new(), Vec::new());
                stream_predict(
                    &model,
                    &train.char_index,
                    &train.attr_index,
                    &mut scan,
                    &mut cache,
                    KernelPolicy::Exact,
                    |chunk| {
                        bits.extend(chunk.probs.iter().map(|p| p.to_bits()));
                        streamed_labels.extend(chunk.frame.cells().iter().map(|cell| cell.label));
                        Ok(())
                    },
                )
                .unwrap();
                let case = format!("chunk_rows={chunk_rows} capacity={capacity}");
                assert_eq!(bits, reference_bits, "{case}");
                assert_eq!(streamed_labels, labels, "{case}");
                assert_eq!(cache.stats(), per_cell_cache.stats(), "{case}");
            }
        }
    }

    #[test]
    fn chunked_metrics_match_whole_table_metrics() {
        let (d, c) = pair();
        let frame = CellFrame::merge(&d, &c).unwrap();
        let data = EncodedDataset::from_frame(&frame);
        let model = AnyModel::new(ModelKind::Etsb, &data, &small_cfg(), &mut seeded_rng(3));
        let all: Vec<usize> = (0..data.n_cells()).collect();
        let whole_preds = model.predict_with(&data, &all, KernelPolicy::Exact);
        let whole = Metrics::from_predictions(&whole_preds, &data.labels);

        let mut source = TableSource::pair(&d, &c).unwrap();
        let (stats, _) = scan_stats(&mut source).unwrap();
        let mut scan = FrameScan::new(source, stats.max_len, 3);
        let mut acc = StreamMetrics::new();
        stream_predict(
            &model,
            &data.char_index,
            &data.attr_index,
            &mut scan,
            &mut PredictCache::disabled(),
            KernelPolicy::Exact,
            |chunk| {
                for (cell, &p) in chunk.frame.cells().iter().zip(chunk.preds) {
                    acc.observe(p, cell.label);
                }
                Ok(())
            },
        )
        .unwrap();
        let chunked = acc.finish().expect("non-empty");
        assert_eq!(
            (whole.tp, whole.fp, whole.fn_, whole.tn),
            (chunked.tp, chunked.fp, chunked.fn_, chunked.tn)
        );
        assert_eq!(whole.f1.to_bits(), chunked.f1.to_bits());
        assert_eq!(whole.precision.to_bits(), chunked.precision.to_bits());
        assert_eq!(whole.recall.to_bits(), chunked.recall.to_bits());
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let (d, c) = pair();
        let frame = CellFrame::merge(&d, &c).unwrap();
        let data = EncodedDataset::from_frame(&frame);
        let model = AnyModel::new(ModelKind::Etsb, &data, &small_cfg(), &mut seeded_rng(3));
        let other = Table::with_columns(&["zz", "b"]);
        let mut scan = FrameScan::new(TableSource::dirty_only(&other), vec![0, 0], 2);
        let err = stream_predict(
            &model,
            &data.char_index,
            &data.attr_index,
            &mut scan,
            &mut PredictCache::disabled(),
            KernelPolicy::Exact,
            |_| Ok(()),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            StreamError::Table(TableError::UnknownColumn(_))
        ));
    }

    #[test]
    fn sink_errors_propagate() {
        let (d, c) = pair();
        let frame = CellFrame::merge(&d, &c).unwrap();
        let data = EncodedDataset::from_frame(&frame);
        let model = AnyModel::new(ModelKind::Etsb, &data, &small_cfg(), &mut seeded_rng(3));
        let mut source = TableSource::pair(&d, &c).unwrap();
        let (stats, _) = scan_stats(&mut source).unwrap();
        let mut scan = FrameScan::new(source, stats.max_len, 4);
        let err = stream_predict(
            &model,
            &data.char_index,
            &data.attr_index,
            &mut scan,
            &mut PredictCache::disabled(),
            KernelPolicy::Exact,
            |_| Err("disk full".into()),
        )
        .unwrap_err();
        assert_eq!(err, StreamError::Sink("disk full".into()));
    }
}
