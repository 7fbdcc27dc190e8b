//! The paper's two neural architectures (§4.3) as one model type,
//! [`AnyModel`](crate::model::AnyModel).
//!
//! TSB-RNN (§4.3.1) is one sequence path — characters → embedding →
//! two-stacked bidirectional RNN (64 units/direction) — feeding the
//! classification head Dense(32, ReLU) → BatchNorm → Dense(2, softmax).
//! ETSB-RNN (§4.3.2) concatenates two more inputs before the same head:
//! a second sequence path (attribute id → embedding → two-stacked BiRNN,
//! 8 units/direction) and the `length_norm` scalar → Dense(64, ReLU).
//! The [`ModelKind`] given to
//! [`AnyModel::new`](crate::model::AnyModel::new) decides which inputs
//! exist; everything else is shared code.
//!
//! Sequence execution is batch-major: each deterministic fold shard of a
//! training batch packs its cells into one length-bucketed
//! [`etsb_nn::SeqBatch`] per path — the attribute path is a rectangular
//! batch of length-1 sequences — and the whole shard runs through the
//! batched RNN kernels at once. Shard boundaries are a pure function of
//! the item count, so batch composition — and therefore every float
//! operation — is identical for any worker count, and the batched
//! kernels are bitwise identical to the allocating per-sample oracle
//! (pinned by the tests below). Prediction cuts each shard further into
//! blocks of [`PREDICT_BLOCK`](crate::model::PREDICT_BLOCK) cells that
//! reuse one set of buffers;
//! evaluation is row-independent, so block boundaries move no bit.

use crate::config::{CellKind, ModelKind, TrainConfig};
use crate::encode::EncodedDataset;
use etsb_nn::{
    parallel, softmax_cross_entropy, Activation, BatchNorm, BatchNormCache, Dense, DenseCache,
    Embedding, GruCell, LstmCell, Param, RnnCell, SeqBatch, StackedBiRnn, StackedBiRnnCache,
};
use etsb_tensor::{GradBuffer, KernelPolicy, Matrix, Workspace};
use rand::rngs::StdRng;

/// Cells per block when a prediction shard is scored
/// ([`AnyModel::predict_probs_direct_with`]). The block bounds the
/// forward's scratch memory (packed inputs, layer caches, head input) to
/// a constant per worker; it does not tune speed: on the benchmark's
/// `stream_hospital` workload (64-unit model, 2-vCPU AVX2 host) the
/// forward measured the same from 16 cells per block to a whole shard.
pub const PREDICT_BLOCK: usize = 64;

/// A cache built by one cell kind was handed to another — an internal
/// invariant violation (caches are created by [`AnyStacked::empty_cache`]
/// or the test-only allocating `forward` on the same instance), never a
/// data error.
#[allow(clippy::panic, reason = "cache variants are produced by this enum")]
fn cache_mismatch() -> ! {
    panic!("AnyStacked: cache kind does not match cell kind")
}

/// A two-stacked bidirectional encoder over any supported recurrent cell,
/// dispatched at runtime so [`crate::config::TrainConfig::cell`] can swap
/// vanilla RNN / LSTM / GRU without changing the model code.
// Variant sizes differ (LSTM carries 4x gate weights); one instance lives
// per model, so the footprint difference is irrelevant.
#[allow(clippy::large_enum_variant, reason = "one instance lives per model")]
#[derive(Clone, Debug)]
pub(crate) enum AnyStacked {
    Vanilla(StackedBiRnn<RnnCell>),
    Lstm(StackedBiRnn<LstmCell>),
    Gru(StackedBiRnn<GruCell>),
}

/// Cache matching the active variant of [`AnyStacked`].
// Variant sizes legitimately differ (LSTM caches gates and cell states);
// these are short-lived per-sample values, not stored in bulk.
#[allow(clippy::large_enum_variant, reason = "short-lived per-sample values")]
#[derive(Clone, Debug)]
pub(crate) enum AnyStackedCache {
    Vanilla(StackedBiRnnCache<RnnCell>),
    Lstm(StackedBiRnnCache<LstmCell>),
    Gru(StackedBiRnnCache<GruCell>),
}

impl AnyStacked {
    pub(crate) fn new(kind: CellKind, input_dim: usize, hidden: usize, rng: &mut StdRng) -> Self {
        match kind {
            CellKind::Vanilla => AnyStacked::Vanilla(StackedBiRnn::new(input_dim, hidden, rng)),
            CellKind::Lstm => AnyStacked::Lstm(StackedBiRnn::new(input_dim, hidden, rng)),
            CellKind::Gru => AnyStacked::Gru(StackedBiRnn::new(input_dim, hidden, rng)),
        }
    }

    pub(crate) fn output_dim(&self) -> usize {
        match self {
            AnyStacked::Vanilla(n) => n.output_dim(),
            AnyStacked::Lstm(n) => n.output_dim(),
            AnyStacked::Gru(n) => n.output_dim(),
        }
    }

    /// An empty cache matching this instance's cell kind, for the
    /// batched `_batch_into` paths to rebuild in place.
    pub(crate) fn empty_cache(&self) -> AnyStackedCache {
        match self {
            AnyStacked::Vanilla(_) => AnyStackedCache::Vanilla(Default::default()),
            AnyStacked::Lstm(_) => AnyStackedCache::Lstm(Default::default()),
            AnyStacked::Gru(_) => AnyStackedCache::Gru(Default::default()),
        }
    }

    /// Allocating per-sample forward: the oracle the bitwise-equivalence
    /// tests replay one sample at a time against the batched path.
    #[cfg(test)]
    pub(crate) fn forward(&self, inputs: Matrix) -> (Vec<f32>, AnyStackedCache) {
        match self {
            AnyStacked::Vanilla(n) => {
                let (out, c) = n.forward(inputs);
                (out, AnyStackedCache::Vanilla(c))
            }
            AnyStacked::Lstm(n) => {
                let (out, c) = n.forward(inputs);
                (out, AnyStackedCache::Lstm(c))
            }
            AnyStacked::Gru(n) => {
                let (out, c) = n.forward(inputs);
                (out, AnyStackedCache::Gru(c))
            }
        }
    }

    /// Allocating per-sample backward companion of [`AnyStacked::forward`]:
    /// parameter gradients accumulate into `grads` (one slot per
    /// parameter, [`AnyStacked::params`] order); returns the input
    /// gradient.
    #[cfg(test)]
    pub(crate) fn backward(
        &self,
        cache: &AnyStackedCache,
        grad_out: &[f32],
        grads: &mut [Matrix],
    ) -> Matrix {
        match (self, cache) {
            (AnyStacked::Vanilla(n), AnyStackedCache::Vanilla(c)) => n.backward(c, grad_out, grads),
            (AnyStacked::Lstm(n), AnyStackedCache::Lstm(c)) => n.backward(c, grad_out, grads),
            (AnyStacked::Gru(n), AnyStackedCache::Gru(c)) => n.backward(c, grad_out, grads),
            _ => cache_mismatch(),
        }
    }

    /// Batched encode of a packed timestep-major batch (see
    /// [`etsb_nn::SeqBatch`]): each sample's feature vector lands in
    /// `features` row `orig` (original batch order). Bitwise identical to
    /// per-sample [`AnyStacked::forward`] calls under
    /// [`KernelPolicy::Exact`]; epsilon-close under `FastMath`.
    pub(crate) fn forward_batch_into(
        &self,
        packed: &Matrix,
        batch: &etsb_nn::SeqBatch,
        features: &mut Matrix,
        cache: &mut AnyStackedCache,
        ws: &mut Workspace,
        policy: KernelPolicy,
    ) {
        match (self, cache) {
            (AnyStacked::Vanilla(n), AnyStackedCache::Vanilla(c)) => {
                n.forward_batch_into(packed, batch, features, c, ws, policy);
            }
            (AnyStacked::Lstm(n), AnyStackedCache::Lstm(c)) => {
                n.forward_batch_into(packed, batch, features, c, ws, policy);
            }
            (AnyStacked::Gru(n), AnyStackedCache::Gru(c)) => {
                n.forward_batch_into(packed, batch, features, c, ws, policy);
            }
            _ => cache_mismatch(),
        }
    }

    /// Batched backward from per-sample feature gradients (`grad_features`
    /// row `orig` is sample `orig`'s gradient); input gradients come back
    /// in packed layout. Bitwise identical to per-sample
    /// [`AnyStacked::backward`] calls in original batch order.
    pub(crate) fn backward_batch_into(
        &self,
        batch: &etsb_nn::SeqBatch,
        cache: &AnyStackedCache,
        grad_features: &Matrix,
        grads: &mut [Matrix],
        grad_inputs: &mut Matrix,
        ws: &mut Workspace,
    ) {
        match (self, cache) {
            (AnyStacked::Vanilla(n), AnyStackedCache::Vanilla(c)) => {
                n.backward_batch_into(batch, c, grad_features, grads, grad_inputs, ws);
            }
            (AnyStacked::Lstm(n), AnyStackedCache::Lstm(c)) => {
                n.backward_batch_into(batch, c, grad_features, grads, grad_inputs, ws);
            }
            (AnyStacked::Gru(n), AnyStackedCache::Gru(c)) => {
                n.backward_batch_into(batch, c, grad_features, grads, grad_inputs, ws);
            }
            _ => cache_mismatch(),
        }
    }

    pub(crate) fn params(&self) -> Vec<&Param> {
        match self {
            AnyStacked::Vanilla(n) => n.params(),
            AnyStacked::Lstm(n) => n.params(),
            AnyStacked::Gru(n) => n.params(),
        }
    }

    pub(crate) fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            AnyStacked::Vanilla(n) => n.params_mut(),
            AnyStacked::Lstm(n) => n.params_mut(),
            AnyStacked::Gru(n) => n.params_mut(),
        }
    }
}

/// The shared classification head: Dense(`head_dim`, ReLU) → BatchNorm →
/// Dense(2, linear) feeding the softmax cross-entropy loss. §4.3.1
/// describes exactly this stack for TSB-RNN; ETSB-RNN reuses it over a
/// wider concatenated feature vector.
#[derive(Clone, Debug)]
pub(crate) struct Head {
    dense: Dense,
    bn: BatchNorm,
    out: Dense,
}

pub(crate) struct HeadCache {
    dense: DenseCache,
    bn: BatchNormCache,
    out: DenseCache,
}

impl Head {
    pub(crate) fn new(input_dim: usize, head_dim: usize, rng: &mut StdRng) -> Self {
        Self {
            dense: Dense::new(input_dim, head_dim, Activation::Relu, rng),
            bn: BatchNorm::new(head_dim),
            out: Dense::new(head_dim, 2, Activation::Linear, rng),
        }
    }

    /// Training-mode forward (batch statistics in the BatchNorm).
    pub(crate) fn forward_train(&mut self, features: Matrix) -> (Matrix, HeadCache) {
        let (h, dense) = self.dense.forward(features);
        let (n, bn) = self.bn.forward_train(&h);
        let (logits, out) = self.out.forward(n);
        (logits, HeadCache { dense, bn, out })
    }

    /// Evaluation-mode forward (running statistics in the BatchNorm).
    /// Borrows the feature matrix; every stage is row-independent, so
    /// logits for a cell do not depend on which other cells share the
    /// batch — the property the memoized predict path relies on.
    pub(crate) fn forward_eval(&self, features: &Matrix) -> Matrix {
        let mut h = Matrix::default();
        self.dense.forward_eval_into(features, &mut h);
        let n = self.bn.forward_eval(&h);
        let (logits, _) = self.out.forward(n);
        logits
    }

    /// Backward through the head, accumulating into `grads` (6 slots in
    /// [`Head::params`] order: dense w/b, bn γ/β, out w/b); returns the
    /// feature gradient.
    pub(crate) fn backward(
        &self,
        cache: &HeadCache,
        grad_logits: &Matrix,
        grads: &mut [Matrix],
    ) -> Matrix {
        assert_eq!(grads.len(), 6, "Head::backward: expected 6 gradient slots");
        let (dense_g, rest) = grads.split_at_mut(2);
        let (bn_g, out_g) = rest.split_at_mut(2);
        let g = self.out.backward(&cache.out, grad_logits, out_g);
        let g = self.bn.backward(&cache.bn, &g, bn_g);
        self.dense.backward(&cache.dense, &g, dense_g)
    }

    pub(crate) fn params(&self) -> Vec<&Param> {
        let mut p = self.dense.params();
        p.extend(self.bn.params());
        p.extend(self.out.params());
        p
    }

    pub(crate) fn params_mut(&mut self) -> Vec<&mut Param> {
        let (d, b, o) = (&mut self.dense, &mut self.bn, &mut self.out);
        let mut p = d.params_mut();
        p.extend(b.params_mut());
        p.extend(o.params_mut());
        p
    }

    /// Non-trainable state that must survive checkpointing: the
    /// BatchNorm running statistics used by evaluation mode.
    pub(crate) fn buffers(&self) -> Vec<&Matrix> {
        vec![&self.bn.running_mean, &self.bn.running_var]
    }

    pub(crate) fn buffers_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.bn.running_mean, &mut self.bn.running_var]
    }
}

/// Where a sequence path reads its ids from.
#[derive(Clone, Copy, Debug)]
enum PathInput {
    /// The cell value's character sequence.
    Chars,
    /// The cell's attribute id, as a length-1 sequence.
    Attr,
}

impl PathInput {
    /// `(dictionary size, embedding width, hidden units per direction)`
    /// of this input's path.
    fn dims(self, data: &EncodedDataset, cfg: &TrainConfig) -> (usize, usize, usize) {
        match self {
            PathInput::Chars => {
                let vocab = data.char_index.vocab_size();
                // §3.1: the embedding width defaults to the dictionary size.
                (vocab, cfg.embed_dim.unwrap_or(vocab), cfg.rnn_units)
            }
            PathInput::Attr => {
                // The attribute dictionary plays the role of the value
                // dictionary for the metadata path: its embedding width
                // defaults to its size.
                let n_attrs = data.attr_index.len().max(1);
                (n_attrs, n_attrs, cfg.attr_rnn_units)
            }
        }
    }
}

/// One recurrent input path: an embedding feeding a two-stacked
/// bidirectional encoder. TSB-RNN has the character path only; ETSB-RNN
/// adds the attribute path.
#[derive(Debug)]
struct SeqPath {
    input: PathInput,
    embedding: Embedding,
    rnn: AnyStacked,
}

/// One path's encode buffers: the layer cache (packed-row semantics,
/// holding everything backward needs) and the per-sample feature rows in
/// original order. [`SeqPath::encode`] refills both in place, so a shard
/// scored block after block reuses their allocations.
struct PathEnc {
    cache: AnyStackedCache,
    feats: Matrix,
}

impl SeqPath {
    /// The id sequence of each of `cells`, in order.
    fn seqs<'a>(&self, data: &'a EncodedDataset, cells: &[usize]) -> Vec<&'a [usize]> {
        cells
            .iter()
            .map(|&c| match self.input {
                PathInput::Chars => data.sequences[c].as_slice(),
                PathInput::Attr => std::slice::from_ref(&data.attr_ids[c]),
            })
            .collect()
    }

    /// Empty encode buffers for this path's cell kind.
    fn empty_enc(&self) -> PathEnc {
        PathEnc {
            cache: self.rnn.empty_cache(),
            feats: Matrix::default(),
        }
    }

    /// Encode a non-empty run of cells batch-major — the one forward of
    /// training and prediction: pack the embeddings timestep-major into
    /// `packed` and run the stacked encoder batched, refilling `enc` in
    /// place. Returns the packed layout, which backward reads with
    /// `enc`. `packed` and `ws` are scratch shared by the paths.
    fn encode(
        &self,
        data: &EncodedDataset,
        cells: &[usize],
        enc: &mut PathEnc,
        packed: &mut Matrix,
        ws: &mut Workspace,
        policy: KernelPolicy,
    ) -> SeqBatch {
        let seqs = self.seqs(data, cells);
        let lengths: Vec<usize> = seqs.iter().map(|s| s.len()).collect();
        // Clamped: a hand-built dataset may carry zero-length sequences
        // (the normal encoder emits at least one pad step); they occupy
        // one pad timestep, exactly as if encoded as "".
        let sb = SeqBatch::from_lengths_clamped(&lengths);
        self.embedding.lookup_batch_into(&sb, &seqs, packed);
        self.rnn
            .forward_batch_into(packed, &sb, &mut enc.feats, &mut enc.cache, ws, policy);
        sb
    }

    /// Batched backward of an [`SeqPath::encode`] result — the packed
    /// layout and the refilled buffers — for the cells whose id sequences
    /// are `seqs`, from their feature gradients (row `r` belongs to the
    /// shard's `r`-th cell): the RNN backward, then the embedding
    /// backward. Gradients accumulate into `grads` ([`SeqPath::params`]
    /// order); `grad_packed` and `ws` are scratch shared by the paths of
    /// a shard.
    fn backward(
        &self,
        seqs: &[&[usize]],
        (sb, enc): &(SeqBatch, PathEnc),
        grad_feats: &Matrix,
        grads: &mut [Matrix],
        grad_packed: &mut Matrix,
        ws: &mut Workspace,
    ) {
        let (emb_slot, rnn_slots) = grads.split_at_mut(1);
        self.rnn
            .backward_batch_into(sb, &enc.cache, grad_feats, rnn_slots, grad_packed, ws);
        self.embedding
            .backward_batch(sb, seqs, grad_packed, &mut emb_slot[0]);
    }

    /// Parameters: the embedding, then the RNN (layer1 fwd/bwd, layer2
    /// fwd/bwd).
    fn params(&self) -> Vec<&Param> {
        let mut p = vec![self.embedding.param()];
        p.extend(self.rnn.params());
        p
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = vec![self.embedding.param_mut()];
        p.extend(self.rnn.params_mut());
        p
    }
}

/// TSB-RNN or ETSB-RNN (§4.3) behind one interface, so the trainer and
/// pipeline are model-agnostic: one sequence path per recurrent input
/// (characters; ETSB adds the attribute id), the `length_norm` dense
/// (ETSB only) and the shared classification head.
#[derive(Debug)]
pub struct AnyModel {
    paths: Vec<SeqPath>,
    len_dense: Option<Dense>,
    head: Head,
}

impl AnyModel {
    /// Construct the requested architecture for a dataset's dictionaries.
    pub fn new(
        kind: ModelKind,
        data: &EncodedDataset,
        cfg: &TrainConfig,
        rng: &mut StdRng,
    ) -> Self {
        let inputs: &[PathInput] = match kind {
            ModelKind::Tsb => &[PathInput::Chars],
            ModelKind::Etsb => &[PathInput::Chars, PathInput::Attr],
        };
        // Seeded init order: every path's RNN, then every path's
        // embedding, then the length dense, then the head.
        let rnns: Vec<AnyStacked> = inputs
            .iter()
            .map(|input| {
                let (_, embed_dim, units) = input.dims(data, cfg);
                AnyStacked::new(cfg.cell, embed_dim, units, rng)
            })
            .collect();
        let paths: Vec<SeqPath> = inputs
            .iter()
            .zip(rnns)
            .map(|(&input, rnn)| {
                let (vocab, embed_dim, _) = input.dims(data, cfg);
                let embedding = Embedding::new(vocab, embed_dim, rng);
                SeqPath {
                    input,
                    embedding,
                    rnn,
                }
            })
            .collect();
        let len_dense = (kind == ModelKind::Etsb)
            .then(|| Dense::new(1, cfg.length_dense_dim, Activation::Relu, rng));
        let feature_dim = paths.iter().map(|p| p.rnn.output_dim()).sum::<usize>()
            + len_dense.as_ref().map_or(0, Dense::output_dim);
        let head = Head::new(feature_dim, cfg.head_dim, rng);
        Self {
            paths,
            len_dense,
            head,
        }
    }

    /// Concatenated width of the sequence paths' features.
    fn seq_dim(&self) -> usize {
        self.paths.iter().map(|p| p.rnn.output_dim()).sum()
    }

    /// Width of the head's input: the sequence paths, then the length
    /// features.
    fn feature_dim(&self) -> usize {
        self.seq_dim() + self.len_dense.as_ref().map_or(0, Dense::output_dim)
    }

    /// Encode one training shard of cells batch-major on every sequence
    /// path, in path order, keeping each path's layout and buffers for
    /// the backward pass; empty for an empty trailing shard (the packed
    /// layout requires at least one sample). One workspace and one
    /// packed buffer serve all paths of the shard. Training is always
    /// exact.
    fn encode_shard(&self, data: &EncodedDataset, cells: &[usize]) -> Vec<(SeqBatch, PathEnc)> {
        if cells.is_empty() {
            return Vec::new();
        }
        let mut ws = Workspace::new();
        let mut packed = Matrix::default();
        self.paths
            .iter()
            .map(|path| {
                let mut enc = path.empty_enc();
                let sb = path.encode(
                    data,
                    cells,
                    &mut enc,
                    &mut packed,
                    &mut ws,
                    KernelPolicy::Exact,
                );
                (sb, enc)
            })
            .collect()
    }

    /// The `n x 1` matrix of the `length_norm` values of `cells`, the
    /// length dense's input.
    fn len_inputs(data: &EncodedDataset, cells: &[usize]) -> Matrix {
        Matrix::from_fn(cells.len(), 1, |r, _| data.length_norms[cells[r]])
    }

    /// Write one encoded shard or block into rows `start..` of the head
    /// input `out` (`feature_dim` wide): each path's feature rows in path
    /// order, then the length features, read from `len_feats` rows
    /// `start..` (indexed like `out`). Returns the number of rows
    /// written.
    fn put_features<'m>(
        &self,
        out: &mut Matrix,
        start: usize,
        path_feats: impl IntoIterator<Item = &'m Matrix>,
        len_feats: Option<&Matrix>,
    ) -> usize {
        let (mut col, mut rows) = (0usize, 0usize);
        for feats in path_feats {
            rows = feats.rows();
            for r in 0..rows {
                out.row_mut(start + r)[col..col + feats.cols()].copy_from_slice(feats.row(r));
            }
            col += feats.cols();
        }
        if let Some(len) = len_feats {
            for r in start..start + rows {
                out.row_mut(r)[col..].copy_from_slice(len.row(r));
            }
        }
        rows
    }

    /// Score one fold shard of a prediction set, [`PREDICT_BLOCK`] cells
    /// at a time: each block runs through every sequence path, the
    /// length dense (ETSB), the evaluation head and the softmax, and
    /// leaves only its class-1 probabilities. One workspace, one packed
    /// buffer, one [`PathEnc`] per path and the head-input buffers serve
    /// every block, so the shard's scratch memory is bounded by a block,
    /// not by the shard.
    fn score_shard(
        &self,
        data: &EncodedDataset,
        cells: &[usize],
        policy: KernelPolicy,
    ) -> Vec<f32> {
        let mut probs = Vec::with_capacity(cells.len());
        let mut ws = Workspace::new();
        let mut packed = Matrix::default();
        let mut encs: Vec<PathEnc> = self.paths.iter().map(SeqPath::empty_enc).collect();
        let (mut len_feats, mut features) = (Matrix::default(), Matrix::default());
        for block in cells.chunks(PREDICT_BLOCK) {
            for (path, enc) in self.paths.iter().zip(&mut encs) {
                path.encode(data, block, enc, &mut packed, &mut ws, policy);
            }
            let len = self.len_dense.as_ref().map(|dense| {
                dense.forward_eval_into(&Self::len_inputs(data, block), &mut len_feats);
                &len_feats
            });
            features.resize_zeroed(block.len(), self.feature_dim());
            self.put_features(&mut features, 0, encs.iter().map(|e| &e.feats), len);
            let logits = self.head.forward_eval(&features);
            probs.extend((0..block.len()).map(|r| {
                let mut row = [0.0f32; 2];
                row.copy_from_slice(logits.row(r));
                etsb_tensor::softmax_inplace(&mut row);
                row[1]
            }));
        }
        probs
    }

    /// One training step over a batch of cell indices: forward, loss,
    /// backward. Gradients *accumulate* into `grads` (shaped by
    /// [`AnyModel::grad_buffer`], [`AnyModel::params`] order; the caller
    /// owns zeroing and the optimizer step). Returns the mean batch loss.
    ///
    /// The sequence paths run batch-major: one packed batch per path per
    /// deterministic fold shard, forward and backward, with per-shard
    /// gradient buffers merged in fixed shard order (empty trailing
    /// shards contribute zeroed buffers). The batch-coupled length dense
    /// and head (BatchNorm statistics) stay on merged batch matrices.
    /// Results are bitwise identical to the allocating per-sample oracle
    /// for any worker count.
    pub fn train_batch(
        &mut self,
        data: &EncodedDataset,
        batch: &[usize],
        grads: &mut GradBuffer,
    ) -> f32 {
        assert!(!batch.is_empty(), "AnyModel::train_batch: empty batch");
        assert_eq!(
            grads.len(),
            self.params().len(),
            "AnyModel::train_batch: gradient slot count"
        );
        let n = batch.len();
        let forward_span = etsb_obs::obs_span!("forward", "samples" => n);
        let len = self
            .len_dense
            .as_ref()
            .map(|dense| dense.forward(Self::len_inputs(data, batch)));
        let encs =
            parallel::parallel_map_shards(n, |_, range| self.encode_shard(data, &batch[range]));
        let mut features = Matrix::zeros(n, self.feature_dim());
        let mut row = 0usize;
        for shard in &encs {
            row += self.put_features(
                &mut features,
                row,
                shard.iter().map(|(_, enc)| &enc.feats),
                len.as_ref().map(|(f, _)| f),
            );
        }
        if etsb_obs::enabled() {
            // Occupancy of the character path (path 0).
            let (rows, steps) = encs
                .iter()
                .filter_map(|e| e.first())
                .fold((0usize, 0usize), |(rows, steps), (sb, _)| {
                    (rows + sb.total_rows(), steps + sb.t_max())
                });
            if steps > 0 {
                etsb_obs::obs_event!("batch_occupancy", "value" => rows as f64 / steps as f64);
            }
        }

        let labels: Vec<usize> = batch.iter().map(|&c| usize::from(data.labels[c])).collect();
        let (logits, head_cache) = self.head.forward_train(features);
        let loss = softmax_cross_entropy(&logits, &labels);
        drop(forward_span);

        // Slot layout: sequence paths, then the length dense, then the head.
        let path_slots: Vec<usize> = self.paths.iter().map(|p| p.params().len()).collect();
        let seq_shapes: Vec<(usize, usize)> = self
            .paths
            .iter()
            .flat_map(SeqPath::params)
            .map(|p| p.value.shape())
            .collect();
        let seq_slots = seq_shapes.len();
        let head_start = seq_slots + self.len_dense.as_ref().map_or(0, |d| d.params().len());
        let _backward_span = etsb_obs::span("backward");
        let grad_features = self.head.backward(
            &head_cache,
            &loss.grad_logits,
            &mut grads.slots_mut()[head_start..],
        );

        // Batched backward, one shard per packed batch, each shard
        // accumulating into its own buffer over the sequence-path slots.
        // The batched kernels replay weight gradients per sample in shard
        // order, and shard buffers merge in fixed shard order, so the
        // result is bitwise identical to per-sample backward for any
        // worker count.
        let shard_grads = parallel::parallel_map_shards(n, |s, range| {
            let mut acc = GradBuffer::from_shapes(seq_shapes.iter().copied());
            let mut ws_bytes = 0usize;
            if !encs[s].is_empty() {
                let cells = &batch[range.clone()];
                let mut ws = Workspace::new();
                let mut grad_packed = Matrix::default();
                let (mut col, mut slot) = (0usize, 0usize);
                for ((path, encoded), &n_slots) in self.paths.iter().zip(&encs[s]).zip(&path_slots)
                {
                    let dim = path.rnn.output_dim();
                    let mut gf = Matrix::zeros(range.len(), dim);
                    for (r, orig) in range.clone().enumerate() {
                        gf.row_mut(r)
                            .copy_from_slice(&grad_features.row(orig)[col..col + dim]);
                    }
                    path.backward(
                        &path.seqs(data, cells),
                        encoded,
                        &gf,
                        &mut acc.slots_mut()[slot..slot + n_slots],
                        &mut grad_packed,
                        &mut ws,
                    );
                    col += dim;
                    slot += n_slots;
                }
                ws_bytes = ws.pooled_bytes();
            }
            (acc, ws_bytes)
        });
        etsb_obs::obs_event!(
            "workspace_bytes",
            "value" => shard_grads.iter().map(|(_, b)| b).sum::<usize>(),
        );
        let mut iter = shard_grads.into_iter().map(|(acc, _)| acc);
        if let Some(mut total) = iter.next() {
            for b in iter {
                total.merge(&b);
            }
            for (slot, merged) in grads.slots_mut()[..seq_slots].iter_mut().zip(total.slots()) {
                slot.add_assign(merged);
            }
        }

        // Length path gradient on the merged batch matrix.
        if let (Some(dense), Some((_, len_cache))) = (&self.len_dense, &len) {
            let seq_dim = self.seq_dim();
            let mut grad_len = Matrix::zeros(n, dense.output_dim());
            for row in 0..n {
                grad_len
                    .row_mut(row)
                    .copy_from_slice(&grad_features.row(row)[seq_dim..]);
            }
            let _ = dense.backward(
                len_cache,
                &grad_len,
                &mut grads.slots_mut()[seq_slots..head_start],
            );
        }
        loss.loss
    }

    /// A zeroed gradient buffer matching this model's parameter list.
    pub fn grad_buffer(&self) -> GradBuffer {
        etsb_nn::grad_buffer_for(&self.params())
    }

    /// Error probability (class-1 softmax output) per requested cell,
    /// evaluation mode, parallel across cells, under an explicit
    /// [`KernelPolicy`]: `Exact` is the bitwise reference path;
    /// `FastMath` routes the batched sequence encoders through the fused
    /// inference kernels (epsilon-close probabilities, see the fast-math
    /// equivalence suite). The head and memoization logic are shared
    /// either way.
    ///
    /// Duplicate cells are memoized: cells sharing a [`memo_key`] (same
    /// attribute, same character sequence, same normalized length — i.e.
    /// every model input) run the network once and share the probability.
    /// Real tables repeat values heavily, so this skips most of the
    /// forward passes without changing a single bit of the output: the
    /// evaluation head is row-independent, so a representative's
    /// probability is identical whichever batch it is computed in.
    pub fn predict_probs_with(
        &self,
        data: &EncodedDataset,
        cells: &[usize],
        policy: KernelPolicy,
    ) -> Vec<f32> {
        self.predict_probs_cached_with(
            data,
            cells,
            &mut crate::cache::PredictCache::disabled(),
            policy,
        )
    }

    /// [`AnyModel::predict_probs_with`] with a caller-owned cross-call
    /// cache: representatives whose key is already resident are served
    /// from `cache` without a forward pass, and freshly computed
    /// representatives are inserted. Because a cached probability was
    /// produced by the same deterministic, row-independent evaluation
    /// path, the output is bitwise identical to an uncached call — the
    /// cache only changes how much work is done, never the bits.
    ///
    /// With [`crate::cache::PredictCache::disabled`] this is exactly the
    /// per-call memo (no owned keys are even built). Cache keys do not
    /// encode the policy, so a given `cache` must only ever be fed one
    /// policy (the serve engine pins the policy per service instance);
    /// mixing policies on one cache would conflate exact and fast-math
    /// bits.
    pub fn predict_probs_cached_with(
        &self,
        data: &EncodedDataset,
        cells: &[usize],
        cache: &mut crate::cache::PredictCache,
        policy: KernelPolicy,
    ) -> Vec<f32> {
        use std::collections::HashMap;
        if cells.is_empty() {
            return Vec::new();
        }
        let mut slot_of: HashMap<(usize, u32, &[usize]), usize> = HashMap::new();
        let mut reps: Vec<usize> = Vec::new();
        // Representative index per requested cell, first-encounter order.
        let assignment: Vec<usize> = cells
            .iter()
            .map(|&cell| {
                *slot_of.entry(memo_key(data, cell)).or_insert_with(|| {
                    reps.push(cell);
                    reps.len() - 1
                })
            })
            .collect();
        // Probe the shared cache per representative (skipped entirely for
        // a disabled cache so the plain path never allocates keys).
        let mut rep_probs: Vec<Option<f32>> = vec![None; reps.len()];
        let mut rep_keys: Vec<Option<crate::cache::PredictKey>> = vec![None; reps.len()];
        if cache.enabled() {
            for (slot, &cell) in reps.iter().enumerate() {
                let key = owned_memo_key(data, cell);
                rep_probs[slot] = cache.get(&key);
                rep_keys[slot] = Some(key);
            }
        }
        let miss_slots: Vec<usize> = (0..reps.len())
            .filter(|&s| rep_probs[s].is_none())
            .collect();
        let miss_cells: Vec<usize> = miss_slots.iter().map(|&s| reps[s]).collect();
        etsb_obs::obs_event!(
            "predict",
            "cells" => cells.len(),
            "unique" => reps.len(),
            "cache_hits" => reps.len() - miss_slots.len(),
        );
        let computed = self.predict_probs_direct_with(data, &miss_cells, policy);
        for (&slot, prob) in miss_slots.iter().zip(computed) {
            rep_probs[slot] = Some(prob);
            if let Some(key) = rep_keys[slot].take() {
                cache.insert(key, prob);
            }
        }
        assignment
            .into_iter()
            .map(|slot| rep_probs[slot].unwrap_or(f32::NAN))
            .collect()
    }

    /// The un-memoized prediction path under an explicit
    /// [`KernelPolicy`]: one forward pass per requested cell, duplicates
    /// and all. [`AnyModel::predict_probs_with`] reduces to this on the
    /// deduplicated representatives; tests compare the two for bitwise
    /// equality.
    ///
    /// Batch-major on the training forward (`SeqPath::encode`): each
    /// fold shard of the requested cells is scored in blocks of
    /// [`PREDICT_BLOCK`] cells, one packed batch per sequence path per
    /// block, and each block runs through the length dense, the
    /// evaluation head and the softmax before the next one reuses the
    /// shard's buffers. Only the probabilities outlive a block, so the
    /// scratch memory is O(workers × block), not O(cells). Every
    /// evaluation stage is row-independent (a cell's result does not
    /// depend on its batch-mates), so the block size moves no bit.
    /// `Exact` keeps the bitwise contract, `FastMath` runs the batched
    /// sequence encoders on the fused inference kernels.
    pub fn predict_probs_direct_with(
        &self,
        data: &EncodedDataset,
        cells: &[usize],
        policy: KernelPolicy,
    ) -> Vec<f32> {
        // Zero cells means zero shards: the batch-packing, length-dense
        // and head kernels are never reached empty.
        parallel::parallel_map_shards(cells.len(), |_, range| {
            self.score_shard(data, &cells[range], policy)
        })
        .concat()
    }

    /// Hard predictions at threshold 0.5.
    pub fn predict(&self, data: &EncodedDataset, cells: &[usize]) -> Vec<bool> {
        self.predict_with(data, cells, KernelPolicy::Exact)
    }

    /// Hard predictions at threshold 0.5 under an explicit kernel
    /// policy (`etsb detect --fast-math` routes through here).
    pub fn predict_with(
        &self,
        data: &EncodedDataset,
        cells: &[usize],
        policy: KernelPolicy,
    ) -> Vec<bool> {
        self.predict_probs_with(data, cells, policy)
            .into_iter()
            .map(|p| p >= 0.5)
            .collect()
    }

    /// All parameters in stable order: each sequence path's embedding and
    /// 12 RNN slots (layer1 fwd/bwd, layer2 fwd/bwd), then the length
    /// dense (ETSB only), then the head — 19 slots for TSB, 34 for ETSB.
    pub fn params(&self) -> Vec<&Param> {
        let mut p: Vec<&Param> = self.paths.iter().flat_map(SeqPath::params).collect();
        if let Some(dense) = &self.len_dense {
            p.extend(dense.params());
        }
        p.extend(self.head.params());
        p
    }

    /// Mutable parameters in the same order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let Self {
            paths,
            len_dense,
            head,
        } = self;
        let mut p: Vec<&mut Param> = paths.iter_mut().flat_map(SeqPath::params_mut).collect();
        if let Some(dense) = len_dense {
            p.extend(dense.params_mut());
        }
        p.extend(head.params_mut());
        p
    }

    /// Total trainable weights.
    pub fn n_weights(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Non-trainable buffers (BatchNorm running statistics).
    pub fn buffers(&self) -> Vec<&Matrix> {
        self.head.buffers()
    }

    /// Mutable buffers in the same order.
    pub fn buffers_mut(&mut self) -> Vec<&mut Matrix> {
        self.head.buffers_mut()
    }

    /// Serialize current weights *and* the evaluation-mode buffers
    /// (BatchNorm running statistics) — both are needed to reproduce the
    /// checkpointed epoch exactly.
    pub fn snapshot(&self) -> bytes::Bytes {
        let state: Vec<&Matrix> = self
            .params()
            .into_iter()
            .map(|p| &p.value)
            .chain(self.buffers())
            .collect();
        etsb_nn::snapshot(&state)
    }

    /// Restore a snapshot taken from an identically-shaped model. On
    /// error the model is left untouched.
    pub fn restore(&mut self, snap: &bytes::Bytes) -> Result<(), etsb_nn::CheckpointError> {
        let mut state = self.clone_state();
        etsb_nn::restore(snap, &mut state.iter_mut().collect::<Vec<_>>())?;
        self.load_state(&state);
        Ok(())
    }

    /// Clone the full evaluation-relevant state (parameter values followed
    /// by buffers) as plain matrices — an in-memory, infallible
    /// alternative to [`AnyModel::snapshot`] for the trainer's
    /// best-epoch checkpoint.
    pub fn clone_state(&self) -> Vec<Matrix> {
        self.params()
            .iter()
            .map(|p| p.value.clone())
            .chain(self.buffers().iter().map(|b| (*b).clone()))
            .collect()
    }

    /// Restore state captured by [`AnyModel::clone_state`] on the same
    /// model.
    ///
    /// # Panics
    /// If `state` does not match this model's parameter/buffer layout.
    pub fn load_state(&mut self, state: &[Matrix]) {
        let n_params = self.params().len();
        assert_eq!(
            state.len(),
            n_params + self.buffers().len(),
            "AnyModel::load_state: state matrix count"
        );
        for (p, m) in self.params_mut().into_iter().zip(&state[..n_params]) {
            assert_eq!(
                p.value.shape(),
                m.shape(),
                "AnyModel::load_state: parameter shape"
            );
            p.value = m.clone();
        }
        for (b, m) in self.buffers_mut().into_iter().zip(&state[n_params..]) {
            assert_eq!(b.shape(), m.shape(), "AnyModel::load_state: buffer shape");
            *b = m.clone();
        }
    }
}

/// The memoization key for one cell: every input either architecture
/// reads. Two cells with equal keys are indistinguishable to the models
/// — same attribute embedding id, same normalized-length scalar (compared
/// by bit pattern, so `-0.0 != 0.0` and NaNs never merge), same character
/// sequence — so they necessarily score the same probability.
pub fn memo_key(data: &EncodedDataset, cell: usize) -> (usize, u32, &[usize]) {
    (
        data.attr_ids[cell],
        data.length_norms[cell].to_bits(),
        data.sequences[cell].as_slice(),
    )
}

/// Owned form of [`memo_key`] for caches that outlive the dataset borrow
/// ([`crate::cache::PredictCache`]).
pub fn owned_memo_key(data: &EncodedDataset, cell: usize) -> crate::cache::PredictKey {
    (
        data.attr_ids[cell],
        data.length_norms[cell].to_bits(),
        data.sequences[cell].clone(),
    )
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use etsb_table::{CellFrame, Table};

    /// A small dataset where errors carry the marker character '!'.
    pub(crate) fn marked_dataset(n: usize) -> EncodedDataset {
        let mut dirty = Table::with_columns(&["v", "w"]);
        let mut clean = Table::with_columns(&["v", "w"]);
        for i in 0..n {
            let v = format!("val{}", i % 5);
            let w = format!("{}", 10 + (i % 4));
            if i % 3 == 0 {
                dirty.push_row(vec![format!("{v}!"), w.clone()]);
            } else {
                dirty.push_row(vec![v.clone(), w.clone()]);
            }
            clean.push_row(vec![v, w]);
        }
        let frame = CellFrame::merge(&dirty, &clean).unwrap();
        EncodedDataset::from_frame(&frame)
    }

    /// Train `model` for `epochs` full-batch epochs on all cells and
    /// return the final loss.
    pub(crate) fn overfit(model: &mut AnyModel, data: &EncodedDataset, epochs: usize) -> f32 {
        use etsb_nn::{Optimizer, Rmsprop};
        let all: Vec<usize> = (0..data.n_cells()).collect();
        let mut opt = Rmsprop::new(5e-3);
        let mut grads = model.grad_buffer();
        let mut last = f32::INFINITY;
        for _ in 0..epochs {
            grads.zero();
            last = model.train_batch(data, &all, &mut grads);
            opt.step(&mut model.params_mut(), &grads);
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;
    use etsb_tensor::init::seeded_rng;

    #[test]
    fn head_gradient_check() {
        let mut rng = seeded_rng(1);
        let head = Head::new(4, 3, &mut rng);
        let x = Matrix::from_fn(6, 4, |i, j| ((i * 4 + j) as f32 * 0.37).sin());
        let labels = [0usize, 1, 0, 1, 1, 0];

        let loss_of = |h: &Head, x: &Matrix| {
            let mut h = h.clone();
            let (logits, _) = h.forward_train(x.clone());
            etsb_nn::softmax_cross_entropy(&logits, &labels).loss
        };

        let mut work = head.clone();
        let (logits, cache) = work.forward_train(x.clone());
        let loss = etsb_nn::softmax_cross_entropy(&logits, &labels);
        let mut grads = etsb_nn::grad_buffer_for(&work.params());
        let grad_x = work.backward(&cache, &loss.grad_logits, grads.slots_mut());

        let h = 1e-2_f32;
        // One coordinate from each parameter bank.
        for pi in 0..work.params().len() {
            let analytic = grads.slot(pi)[(0, 0)];
            let mut plus = head.clone();
            plus.params_mut()[pi].value[(0, 0)] += h;
            let mut minus = head.clone();
            minus.params_mut()[pi].value[(0, 0)] -= h;
            let numeric = (loss_of(&plus, &x) - loss_of(&minus, &x)) / (2.0 * h);
            assert!(
                (numeric - analytic).abs() < 5e-2 * analytic.abs().max(0.2),
                "param {pi}: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Input gradient.
        let analytic = grad_x[(2, 1)];
        let mut xp = x.clone();
        xp[(2, 1)] += h;
        let mut xm = x.clone();
        xm[(2, 1)] -= h;
        let numeric = (loss_of(&head, &xp) - loss_of(&head, &xm)) / (2.0 * h);
        assert!(
            (numeric - analytic).abs() < 5e-2 * analytic.abs().max(0.2),
            "input grad: numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn both_models_construct_and_count_weights() {
        let data = marked_dataset(30);
        let cfg = TrainConfig {
            rnn_units: 8,
            attr_rnn_units: 4,
            head_dim: 8,
            ..Default::default()
        };
        let mut rng = seeded_rng(2);
        let tsb = AnyModel::new(ModelKind::Tsb, &data, &cfg, &mut rng);
        let etsb = AnyModel::new(ModelKind::Etsb, &data, &cfg, &mut rng);
        assert!(tsb.n_weights() > 0);
        // ETSB has strictly more parameters (extra input paths).
        assert!(etsb.n_weights() > tsb.n_weights());
    }

    #[test]
    fn snapshot_round_trips() {
        let data = marked_dataset(20);
        let cfg = TrainConfig {
            rnn_units: 4,
            head_dim: 4,
            ..Default::default()
        };
        let mut rng = seeded_rng(3);
        let mut model = AnyModel::new(ModelKind::Tsb, &data, &cfg, &mut rng);
        let snap = model.snapshot();
        let before = model.predict_probs_with(&data, &[0, 1, 2], KernelPolicy::Exact);
        // Perturb, then restore.
        for p in model.params_mut() {
            p.value.map_inplace(|x| x + 0.1);
        }
        let perturbed = model.predict_probs_with(&data, &[0, 1, 2], KernelPolicy::Exact);
        assert_ne!(before, perturbed);
        model.restore(&snap).unwrap();
        assert_eq!(
            before,
            model.predict_probs_with(&data, &[0, 1, 2], KernelPolicy::Exact)
        );
    }

    /// Every cell kind must train end-to-end (the ablation_cells bench
    /// depends on all three being functional).
    #[test]
    fn lstm_and_gru_cells_train() {
        use crate::config::CellKind;
        let data = marked_dataset(24);
        for cell in [CellKind::Lstm, CellKind::Gru] {
            let cfg = TrainConfig {
                rnn_units: 6,
                attr_rnn_units: 3,
                head_dim: 6,
                cell,
                ..Default::default()
            };
            let mut rng = seeded_rng(9);
            let mut model = AnyModel::new(ModelKind::Tsb, &data, &cfg, &mut rng);
            let loss = overfit(&mut model, &data, 120);
            assert!(loss < 0.3, "{cell:?} failed to fit: loss {loss}");
        }
    }

    /// The headline sanity check: both models must be able to overfit a
    /// small marked dataset (loss → ~0, perfect train predictions).
    #[test]
    fn models_overfit_marked_errors() {
        let data = marked_dataset(24);
        let cfg = TrainConfig {
            rnn_units: 8,
            attr_rnn_units: 4,
            head_dim: 8,
            ..Default::default()
        };
        for kind in [ModelKind::Tsb, ModelKind::Etsb] {
            let mut rng = seeded_rng(4);
            let mut model = AnyModel::new(kind, &data, &cfg, &mut rng);
            let loss = overfit(&mut model, &data, 150);
            assert!(loss < 0.1, "{kind:?} failed to overfit: loss {loss}");
            let preds = model.predict(&data, &(0..data.n_cells()).collect::<Vec<_>>());
            let correct = preds
                .iter()
                .zip(&data.labels)
                .filter(|(p, l)| *p == *l)
                .count();
            assert!(
                correct as f64 / data.n_cells() as f64 > 0.95,
                "{kind:?} train accuracy {correct}/{}",
                data.n_cells()
            );
        }
    }

    /// Regression: zero requested cells must return an empty result, not
    /// reach the batch-packing/head kernels (which assert non-empty).
    #[test]
    fn predict_probs_on_zero_cells_returns_empty() {
        let data = marked_dataset(12);
        let cfg = TrainConfig {
            rnn_units: 4,
            attr_rnn_units: 2,
            head_dim: 4,
            ..Default::default()
        };
        for kind in [ModelKind::Tsb, ModelKind::Etsb] {
            let model = AnyModel::new(kind, &data, &cfg, &mut seeded_rng(7));
            assert!(model
                .predict_probs_with(&data, &[], KernelPolicy::Exact)
                .is_empty());
            assert!(model
                .predict_probs_direct_with(&data, &[], KernelPolicy::Exact)
                .is_empty());
            assert!(model.predict(&data, &[]).is_empty());
        }
    }

    /// Regression: a hand-built dataset carrying a zero-length sequence
    /// (the normal encoder always emits at least one pad step) must
    /// predict — as if the value had been encoded as the empty string —
    /// instead of tripping the `SeqBatch` positive-length assert.
    #[test]
    fn predict_probs_tolerates_zero_length_sequences() {
        let mut data = marked_dataset(12);
        // Same cell twice: once with the encoder's pad-step encoding of
        // "" and once force-emptied; the two must score identically.
        data.sequences[0] = vec![0];
        data.sequences[1] = Vec::new();
        data.attr_ids[1] = data.attr_ids[0];
        data.length_norms[1] = data.length_norms[0];
        let cfg = TrainConfig {
            rnn_units: 4,
            attr_rnn_units: 2,
            head_dim: 4,
            ..Default::default()
        };
        for kind in [ModelKind::Tsb, ModelKind::Etsb] {
            let model = AnyModel::new(kind, &data, &cfg, &mut seeded_rng(8));
            let cells: Vec<usize> = (0..data.n_cells()).collect();
            let probs = model.predict_probs_direct_with(&data, &cells, KernelPolicy::Exact);
            assert_eq!(probs.len(), data.n_cells());
            assert_eq!(
                probs[0].to_bits(),
                probs[1].to_bits(),
                "{kind:?}: empty sequence must score exactly like a pad step"
            );
        }
    }

    /// The shared LRU changes how much work is done, never the bits:
    /// warm-cache results equal cold-cache results equal the uncached
    /// path, and hits are actually recorded.
    #[test]
    fn cached_predictions_are_bitwise_identical() {
        use crate::cache::PredictCache;
        let data = marked_dataset(30);
        let cfg = TrainConfig {
            rnn_units: 4,
            attr_rnn_units: 2,
            head_dim: 4,
            ..Default::default()
        };
        let cells: Vec<usize> = (0..data.n_cells()).collect();
        for kind in [ModelKind::Tsb, ModelKind::Etsb] {
            let model = AnyModel::new(kind, &data, &cfg, &mut seeded_rng(11));
            let plain = model.predict_probs_with(&data, &cells, KernelPolicy::Exact);
            let mut cache = PredictCache::new(1024);
            let cold =
                model.predict_probs_cached_with(&data, &cells, &mut cache, KernelPolicy::Exact);
            let warm =
                model.predict_probs_cached_with(&data, &cells, &mut cache, KernelPolicy::Exact);
            assert_eq!(plain, cold, "{kind:?}: cold cache changed bits");
            assert_eq!(plain, warm, "{kind:?}: warm cache changed bits");
            let stats = cache.stats();
            assert!(stats.hits > 0, "{kind:?}: second pass should hit");
            assert!(stats.len <= 1024);
        }
    }

    /// One config for both kinds; TSB ignores the attribute and length
    /// widths.
    fn small_cfg() -> TrainConfig {
        TrainConfig {
            rnn_units: 6,
            attr_rnn_units: 3,
            head_dim: 6,
            length_dense_dim: 4,
            ..Default::default()
        }
    }

    /// The pre-batching training step, reproduced exactly: allocating
    /// per-sample forward/backward calls on every sequence path (in path
    /// order), sharded with [`parallel::fold_shards`] boundaries and
    /// merged in shard order. The batched `train_batch` must match this
    /// bit for bit.
    // The index drives `caches`, `grad_features` rows and the shard
    // arithmetic together; an iterator chain would obscure the replayed order.
    #[allow(clippy::needless_range_loop, reason = "the index drives three arrays")]
    fn reference_train_batch(
        model: &mut AnyModel,
        data: &EncodedDataset,
        batch: &[usize],
        grads: &mut GradBuffer,
    ) -> f32 {
        let n = batch.len();
        let len = model
            .len_dense
            .as_ref()
            .map(|dense| dense.forward(AnyModel::len_inputs(data, batch)));
        let mut features = Matrix::zeros(n, model.feature_dim());
        let mut caches = Vec::with_capacity(n);
        for (row, &cell) in batch.iter().enumerate() {
            let out = features.row_mut(row);
            let mut col = 0usize;
            let mut cell_caches = Vec::with_capacity(model.paths.len());
            for path in &model.paths {
                let (embedded, emb_cache) = path.embedding.forward(path.seqs(data, &[cell])[0]);
                let (feat, rnn_cache) = path.rnn.forward(embedded);
                out[col..col + feat.len()].copy_from_slice(&feat);
                col += feat.len();
                cell_caches.push((emb_cache, rnn_cache));
            }
            if let Some((len_feats, _)) = &len {
                out[col..].copy_from_slice(len_feats.row(row));
            }
            caches.push(cell_caches);
        }
        let labels: Vec<usize> = batch.iter().map(|&c| usize::from(data.labels[c])).collect();
        let (logits, head_cache) = model.head.forward_train(features);
        let loss = softmax_cross_entropy(&logits, &labels);
        let head_start = grads.len() - model.head.params().len();
        let grad_features = model.head.backward(
            &head_cache,
            &loss.grad_logits,
            &mut grads.slots_mut()[head_start..],
        );
        let seq_shapes: Vec<(usize, usize)> = model
            .paths
            .iter()
            .flat_map(SeqPath::params)
            .map(|p| p.value.shape())
            .collect();
        let seq_slots = seq_shapes.len();
        let shards = parallel::fold_shards(n);
        let chunk = n.div_ceil(shards);
        let mut bufs = Vec::new();
        for s in 0..shards {
            let mut acc = GradBuffer::from_shapes(seq_shapes.iter().copied());
            for i in (s * chunk).min(n)..((s + 1) * chunk).min(n) {
                let g = grad_features.row(i);
                let (mut col, mut slot) = (0usize, 0usize);
                for (path, (emb_cache, rnn_cache)) in model.paths.iter().zip(&caches[i]) {
                    let dim = path.rnn.output_dim();
                    let n_slots = path.params().len();
                    let slots = &mut acc.slots_mut()[slot..slot + n_slots];
                    let (emb_slot, rnn_slots) = slots.split_at_mut(1);
                    let grad_embedded = path.rnn.backward(rnn_cache, &g[col..col + dim], rnn_slots);
                    path.embedding
                        .backward(emb_cache, &grad_embedded, &mut emb_slot[0]);
                    col += dim;
                    slot += n_slots;
                }
            }
            bufs.push(acc);
        }
        let mut iter = bufs.into_iter();
        // At least one shard exists for a non-empty batch.
        if let Some(mut total) = iter.next() {
            for b in iter {
                total.merge(&b);
            }
            for (slot, merged) in grads.slots_mut()[..seq_slots].iter_mut().zip(total.slots()) {
                slot.add_assign(merged);
            }
        }
        if let (Some(dense), Some((_, len_cache))) = (&model.len_dense, &len) {
            let seq_dim = model.seq_dim();
            let mut grad_len = Matrix::zeros(n, dense.output_dim());
            for row in 0..n {
                grad_len
                    .row_mut(row)
                    .copy_from_slice(&grad_features.row(row)[seq_dim..]);
            }
            let _ = dense.backward(
                len_cache,
                &grad_len,
                &mut grads.slots_mut()[seq_slots..head_start],
            );
        }
        loss.loss
    }

    /// The batched shard path must produce the exact same loss, gradients
    /// (every slot) and subsequent predictions as the allocating per-sample
    /// oracle, on a batch with thoroughly mixed lengths.
    fn assert_batched_train_matches_reference(kind: ModelKind, seed: u64) {
        let data = marked_dataset(30);
        let batch: Vec<usize> = (0..data.n_cells()).collect();
        let mut batched = AnyModel::new(kind, &data, &small_cfg(), &mut seeded_rng(seed));
        let mut reference = AnyModel::new(kind, &data, &small_cfg(), &mut seeded_rng(seed));

        let mut grads_b = batched.grad_buffer();
        let mut grads_r = reference.grad_buffer();
        let loss_b = batched.train_batch(&data, &batch, &mut grads_b);
        let loss_r = reference_train_batch(&mut reference, &data, &batch, &mut grads_r);
        assert_eq!(
            loss_b.to_bits(),
            loss_r.to_bits(),
            "{kind:?}: loss diverged"
        );
        for i in 0..grads_b.len() {
            assert_eq!(
                grads_b.slot(i).as_slice(),
                grads_r.slot(i).as_slice(),
                "{kind:?}: gradient slot {i} diverged"
            );
        }
        // Predictions after one optimizer-free step must agree too (the
        // BatchNorm running statistics advanced identically).
        let probs_b = batched.predict_probs_direct_with(&data, &batch, KernelPolicy::Exact);
        let probs_r = reference.predict_probs_direct_with(&data, &batch, KernelPolicy::Exact);
        assert_eq!(probs_b, probs_r, "{kind:?}: predictions diverged");
    }

    #[test]
    fn tsb_batched_train_matches_per_sample_reference_bitwise() {
        assert_batched_train_matches_reference(ModelKind::Tsb, 5);
    }

    #[test]
    fn etsb_batched_train_matches_per_sample_reference_bitwise() {
        assert_batched_train_matches_reference(ModelKind::Etsb, 7);
    }

    #[test]
    fn predict_probs_are_probabilities() {
        let data = marked_dataset(20);
        let cells: Vec<usize> = (0..data.n_cells()).collect();
        for kind in [ModelKind::Tsb, ModelKind::Etsb] {
            let model = AnyModel::new(kind, &data, &small_cfg(), &mut seeded_rng(1));
            let probs = model.predict_probs_direct_with(&data, &cells, KernelPolicy::Exact);
            assert_eq!(probs.len(), data.n_cells());
            assert!(
                probs.iter().all(|&p| (0.0..=1.0).contains(&p)),
                "{kind:?}: {probs:?}"
            );
        }
    }

    fn assert_train_batch_reduces_loss(kind: ModelKind, seed: u64) {
        use etsb_nn::{Optimizer, Rmsprop};
        let data = marked_dataset(30);
        let batch: Vec<usize> = (0..data.n_cells()).collect();
        let mut model = AnyModel::new(kind, &data, &small_cfg(), &mut seeded_rng(seed));
        let mut opt = Rmsprop::new(3e-3);
        let mut grads = model.grad_buffer();
        let first = model.train_batch(&data, &batch, &mut grads);
        let mut last = first;
        for _ in 0..60 {
            grads.zero();
            last = model.train_batch(&data, &batch, &mut grads);
            opt.step(&mut model.params_mut(), &grads);
        }
        assert!(last < first * 0.5, "{kind:?}: loss {first} -> {last}");
    }

    #[test]
    fn tsb_train_batch_reduces_loss() {
        assert_train_batch_reduces_loss(ModelKind::Tsb, 2);
    }

    #[test]
    fn etsb_train_batch_reduces_loss() {
        assert_train_batch_reduces_loss(ModelKind::Etsb, 3);
    }

    #[test]
    fn gradient_accumulates_across_calls() {
        let data = marked_dataset(12);
        let mut model = AnyModel::new(ModelKind::Tsb, &data, &small_cfg(), &mut seeded_rng(3));
        let mut grads = model.grad_buffer();
        let _ = model.train_batch(&data, &[0, 1], &mut grads);
        let g1 = grads.slot(0).frobenius_norm();
        let _ = model.train_batch(&data, &[0, 1], &mut grads);
        let g2 = grads.slot(0).frobenius_norm();
        assert!(g2 > g1, "gradients should accumulate: {g1} -> {g2}");
    }

    /// `params` and `params_mut` list the same slots in the same order, and
    /// the slot count is the one snapshots and detector files are laid out by.
    fn assert_param_order(kind: ModelKind, slots: usize) {
        let data = marked_dataset(12);
        let mut model = AnyModel::new(kind, &data, &small_cfg(), &mut seeded_rng(4));
        let shapes_a: Vec<_> = model.params().iter().map(|p| p.value.shape()).collect();
        let shapes_b: Vec<_> = model.params_mut().iter().map(|p| p.value.shape()).collect();
        assert_eq!(shapes_a, shapes_b, "{kind:?}");
        assert_eq!(shapes_a.len(), slots, "{kind:?}");
    }

    #[test]
    fn tsb_param_order_is_stable() {
        // 1 embedding + 12 RNN + 6 head (dense w/b, bn γ/β, out w/b).
        assert_param_order(ModelKind::Tsb, 19);
    }

    #[test]
    fn etsb_param_order_is_stable() {
        // 1 + 12 (char) + 1 + 12 (attr) + 2 (len dense) + 6 (head).
        assert_param_order(ModelKind::Etsb, 34);
    }

    #[test]
    fn feature_dim_composition() {
        let data = marked_dataset(20);
        let model = AnyModel::new(ModelKind::Etsb, &data, &small_cfg(), &mut seeded_rng(1));
        // 2*6 (char) + 2*3 (attr) + 4 (len) = 22.
        assert_eq!(model.feature_dim(), 22);
    }

    #[test]
    fn attribute_information_changes_predictions() {
        // Same character sequence under different attributes must produce
        // different probabilities — the whole point of the enrichment.
        let data = marked_dataset(20);
        let model = AnyModel::new(ModelKind::Etsb, &data, &small_cfg(), &mut seeded_rng(2));
        // Cells 0 and 1 belong to attributes 0 and 1. Fake a dataset view
        // where both carry the same sequence.
        let mut twin = data.clone();
        twin.sequences[1] = twin.sequences[0].clone();
        twin.length_norms[1] = twin.length_norms[0];
        let probs = model.predict_probs_direct_with(&twin, &[0, 1], KernelPolicy::Exact);
        assert!(
            (probs[0] - probs[1]).abs() > 1e-6,
            "attribute path had no effect: {probs:?}"
        );
    }
}
