//! ETSB-RNN (§4.3.2): the enriched architecture. Three input paths are
//! concatenated before the shared head:
//!
//! 1. characters → embedding → two-stacked BiRNN (64 units/direction),
//! 2. attribute id → embedding → two-stacked BiRNN (8 units/direction),
//! 3. `length_norm` scalar → Dense(64, ReLU).
//!
//! Both recurrent paths run batch-major (see [`SeqBatch`] and the module
//! docs on [`super::tsb`]): each deterministic fold shard packs its cells
//! into one length-bucketed batch per path — the attribute path is a
//! rectangular batch of length-1 sequences — so the whole shard moves
//! through the batched kernels at once, bitwise identical to the
//! allocating per-sample oracle.

use super::{AnyStacked, AnyStackedCache, Head};
use crate::config::TrainConfig;
use crate::encode::EncodedDataset;
use etsb_nn::{parallel, softmax_cross_entropy, Activation, Dense, Embedding, Param, SeqBatch};
use etsb_tensor::{GradBuffer, KernelPolicy, Matrix, Workspace};
use rand::rngs::StdRng;

/// One shard of a batch, encoded batch-major on both recurrent paths.
struct ShardEnc {
    /// Character-path packed layout; `None` for an empty trailing shard.
    sb: Option<SeqBatch>,
    /// Attribute-path packed layout (rectangular: every cell contributes
    /// one length-1 sequence of its attribute id).
    attr_sb: Option<SeqBatch>,
    cache: AnyStackedCache,
    attr_cache: AnyStackedCache,
    /// `n_shard x char_dim`, shard-local original order.
    feats: Matrix,
    /// `n_shard x attr_dim`, shard-local original order.
    attr_feats: Matrix,
}

/// The Enriched Two-Stacked Bidirectional RNN model.
#[derive(Debug)]
pub struct EtsbRnn {
    embedding: Embedding,
    rnn: AnyStacked,
    attr_embedding: Embedding,
    attr_rnn: AnyStacked,
    len_dense: Dense,
    head: Head,
    char_dim: usize,
    attr_dim: usize,
    len_dim: usize,
}

impl EtsbRnn {
    /// Build for a dataset's value and attribute dictionaries.
    pub fn new(data: &EncodedDataset, cfg: &TrainConfig, rng: &mut StdRng) -> Self {
        let vocab = data.char_index.vocab_size();
        let embed_dim = cfg.embed_dim.unwrap_or(vocab);
        let n_attrs = data.attr_index.len().max(1);
        // The attribute dictionary plays the role of the value dictionary
        // for the metadata path: its embedding width defaults to its size.
        let attr_embed_dim = n_attrs;
        let rnn = AnyStacked::new(cfg.cell, embed_dim, cfg.rnn_units, rng);
        let attr_rnn = AnyStacked::new(cfg.cell, attr_embed_dim, cfg.attr_rnn_units, rng);
        let (char_dim, attr_dim, len_dim) = (
            rnn.output_dim(),
            attr_rnn.output_dim(),
            cfg.length_dense_dim,
        );
        Self {
            embedding: Embedding::new(vocab, embed_dim, rng),
            rnn,
            attr_embedding: Embedding::new(n_attrs, attr_embed_dim, rng),
            attr_rnn,
            len_dense: Dense::new(1, len_dim, Activation::Relu, rng),
            head: Head::new(char_dim + attr_dim + len_dim, cfg.head_dim, rng),
            char_dim,
            attr_dim,
            len_dim,
        }
    }

    /// Concatenated feature width.
    fn feature_dim(&self) -> usize {
        self.char_dim + self.attr_dim + self.len_dim
    }

    /// Encode one shard of cells batch-major on both recurrent paths.
    /// The returned caches retain the packed activations for the backward
    /// pass; feature row `r` belongs to `cells[r]`.
    fn encode_shard(
        &self,
        data: &EncodedDataset,
        cells: &[usize],
        policy: KernelPolicy,
    ) -> ShardEnc {
        let mut cache = self.rnn.empty_cache();
        let mut attr_cache = self.attr_rnn.empty_cache();
        let mut feats = Matrix::default();
        let mut attr_feats = Matrix::default();
        let (sb, attr_sb) = if cells.is_empty() {
            (None, None)
        } else {
            let mut ws = Workspace::new();
            let mut packed = Matrix::default();
            let lengths: Vec<usize> = cells.iter().map(|&c| data.sequences[c].len()).collect();
            // Clamped: a hand-built dataset may carry zero-length
            // sequences (the normal encoder emits at least one pad step);
            // they occupy one pad timestep, exactly as if encoded as "".
            let sb = SeqBatch::from_lengths_clamped(&lengths);
            let seqs: Vec<&[usize]> = cells
                .iter()
                .map(|&c| data.sequences[c].as_slice())
                .collect();
            self.embedding.lookup_batch_into(&sb, &seqs, &mut packed);
            self.rnn
                .forward_batch_into(&packed, &sb, &mut feats, &mut cache, &mut ws, policy);
            let attr_sb = SeqBatch::from_lengths(&vec![1; cells.len()]);
            let attr_store: Vec<[usize; 1]> = cells.iter().map(|&c| [data.attr_ids[c]]).collect();
            let attr_seqs: Vec<&[usize]> = attr_store.iter().map(|a| a.as_slice()).collect();
            self.attr_embedding
                .lookup_batch_into(&attr_sb, &attr_seqs, &mut packed);
            self.attr_rnn.forward_batch_into(
                &packed,
                &attr_sb,
                &mut attr_feats,
                &mut attr_cache,
                &mut ws,
                policy,
            );
            (Some(sb), Some(attr_sb))
        };
        ShardEnc {
            sb,
            attr_sb,
            cache,
            attr_cache,
            feats,
            attr_feats,
        }
    }

    /// One gradient-accumulating training step; returns the batch loss.
    ///
    /// `grads` has 34 slots in [`EtsbRnn::params`] order: char path
    /// (1 + 12), attribute path (1 + 12), length dense (2), head (6).
    /// Both recurrent paths run batch-major, one packed batch per
    /// deterministic fold shard; the batch-coupled length dense and head
    /// stay on merged batch matrices. Per-shard gradient buffers merge in
    /// fixed shard order, so the result is bitwise identical to the
    /// allocating per-sample oracle for any worker count.
    pub fn train_batch(
        &mut self,
        data: &EncodedDataset,
        batch: &[usize],
        grads: &mut GradBuffer,
    ) -> f32 {
        assert!(!batch.is_empty(), "EtsbRnn::train_batch: empty batch");
        assert_eq!(grads.len(), 34, "EtsbRnn::train_batch: gradient slot count");
        let n = batch.len();
        let forward_span = etsb_obs::obs_span!("forward", "samples" => n);
        let mut features = Matrix::zeros(n, self.feature_dim());

        // Length path (batched dense).
        let len_inputs = Matrix::from_fn(n, 1, |r, _| data.length_norms[batch[r]]);
        let (len_feats, len_cache) = self.len_dense.forward(len_inputs);

        // Both sequence paths, batch-major per shard.
        let encs = parallel::parallel_map_shards(n, |_, range| {
            self.encode_shard(data, &batch[range], KernelPolicy::Exact)
        });
        let mut row = 0usize;
        for enc in &encs {
            for r in 0..enc.feats.rows() {
                let out = features.row_mut(row);
                out[..self.char_dim].copy_from_slice(enc.feats.row(r));
                out[self.char_dim..self.char_dim + self.attr_dim]
                    .copy_from_slice(enc.attr_feats.row(r));
                out[self.char_dim + self.attr_dim..].copy_from_slice(len_feats.row(row));
                row += 1;
            }
        }
        if etsb_obs::enabled() {
            let (rows, steps) = encs
                .iter()
                .filter_map(|e| e.sb.as_ref())
                .fold((0usize, 0usize), |(rows, steps), sb| {
                    (rows + sb.total_rows(), steps + sb.t_max())
                });
            if steps > 0 {
                etsb_obs::gauge("batch_occupancy", rows as f64 / steps as f64);
            }
        }

        let labels: Vec<usize> = batch.iter().map(|&c| usize::from(data.labels[c])).collect();
        let (logits, head_cache) = self.head.forward_train(features);
        let loss = softmax_cross_entropy(&logits, &labels);
        drop(forward_span);

        let _backward_span = etsb_obs::span("backward");
        let grad_features = self.head.backward(
            &head_cache,
            &loss.grad_logits,
            &mut grads.slots_mut()[28..34],
        );

        // Batched sequence-path backward, one shard per packed batch;
        // shard buffers over slots 0..26 (char path then attribute path)
        // merge in fixed shard order, empty trailing shards contributing
        // zeroed buffers exactly like the per-sample fold.
        let seq_shapes: Vec<(usize, usize)> = self.params()[..26]
            .iter()
            .map(|p| p.value.shape())
            .collect();
        let (char_dim, attr_dim) = (self.char_dim, self.attr_dim);
        let shard_grads = parallel::parallel_map_shards(n, |s, range| {
            let mut acc = GradBuffer::from_shapes(seq_shapes.iter().copied());
            let mut ws_bytes = 0usize;
            if let (Some(sb), Some(attr_sb)) = (&encs[s].sb, &encs[s].attr_sb) {
                let mut ws = Workspace::new();
                let m = range.len();
                let mut gf = Matrix::zeros(m, char_dim);
                let mut attr_gf = Matrix::zeros(m, attr_dim);
                for (r, orig) in range.clone().enumerate() {
                    let g = grad_features.row(orig);
                    gf.row_mut(r).copy_from_slice(&g[..char_dim]);
                    attr_gf
                        .row_mut(r)
                        .copy_from_slice(&g[char_dim..char_dim + attr_dim]);
                }
                let (char_part, attr_part) = acc.slots_mut().split_at_mut(13);
                let (emb_slot, rnn_slots) = char_part.split_at_mut(1);
                let (attr_emb_slot, attr_rnn_slots) = attr_part.split_at_mut(1);
                let mut grad_packed = Matrix::default();
                self.rnn.backward_batch_into(
                    sb,
                    &encs[s].cache,
                    &gf,
                    rnn_slots,
                    &mut grad_packed,
                    &mut ws,
                );
                let seqs: Vec<&[usize]> = batch[range.clone()]
                    .iter()
                    .map(|&c| data.sequences[c].as_slice())
                    .collect();
                self.embedding
                    .backward_batch(sb, &seqs, &grad_packed, &mut emb_slot[0]);
                self.attr_rnn.backward_batch_into(
                    attr_sb,
                    &encs[s].attr_cache,
                    &attr_gf,
                    attr_rnn_slots,
                    &mut grad_packed,
                    &mut ws,
                );
                let attr_store: Vec<[usize; 1]> =
                    batch[range].iter().map(|&c| [data.attr_ids[c]]).collect();
                let attr_seqs: Vec<&[usize]> = attr_store.iter().map(|a| a.as_slice()).collect();
                self.attr_embedding.backward_batch(
                    attr_sb,
                    &attr_seqs,
                    &grad_packed,
                    &mut attr_emb_slot[0],
                );
                ws_bytes = ws.pooled_bytes();
            }
            (acc, ws_bytes)
        });
        if etsb_obs::enabled() {
            let bytes: usize = shard_grads.iter().map(|(_, b)| b).sum();
            etsb_obs::gauge("workspace_bytes", bytes as f64);
        }
        let mut iter = shard_grads.into_iter().map(|(acc, _)| acc);
        if let Some(mut total) = iter.next() {
            for b in iter {
                total.merge(&b);
            }
            for (slot, merged) in grads.slots_mut()[..26].iter_mut().zip(total.slots()) {
                slot.add_assign(merged);
            }
        }

        // Length path gradient on the merged batch matrix (slots 26..28).
        let mut grad_len = Matrix::zeros(n, self.len_dim);
        for row in 0..n {
            grad_len
                .row_mut(row)
                .copy_from_slice(&grad_features.row(row)[self.char_dim + self.attr_dim..]);
        }
        let _ = self
            .len_dense
            .backward(&len_cache, &grad_len, &mut grads.slots_mut()[26..28]);
        loss.loss
    }

    /// Error probabilities (evaluation mode), batch-major: each fold shard
    /// of the requested cells packs into one batch per recurrent path, so
    /// inference shares the training hot path. `Exact` keeps the bitwise
    /// contract, `FastMath` runs both batched sequence encoders on the
    /// fused inference kernels.
    pub fn predict_probs_with(
        &self,
        data: &EncodedDataset,
        cells: &[usize],
        policy: KernelPolicy,
    ) -> Vec<f32> {
        if cells.is_empty() {
            // Zero cells means zero forward passes: never reach the
            // batch-packing, length-dense or head kernels empty.
            return Vec::new();
        }
        let n = cells.len();
        let encs = parallel::parallel_map_shards(n, |_, range| {
            self.encode_shard(data, &cells[range], policy)
        });
        let len_inputs = Matrix::from_fn(n, 1, |r, _| data.length_norms[cells[r]]);
        let (len_feats, _) = self.len_dense.forward(len_inputs);
        let mut features = Matrix::zeros(n, self.feature_dim());
        let mut row = 0usize;
        for enc in &encs {
            for r in 0..enc.feats.rows() {
                let out = features.row_mut(row);
                out[..self.char_dim].copy_from_slice(enc.feats.row(r));
                out[self.char_dim..self.char_dim + self.attr_dim]
                    .copy_from_slice(enc.attr_feats.row(r));
                out[self.char_dim + self.attr_dim..].copy_from_slice(len_feats.row(row));
                row += 1;
            }
        }
        let logits = self.head.forward_eval(&features);
        (0..n)
            .map(|r| {
                let mut row = logits.row(r).to_vec();
                etsb_tensor::softmax_inplace(&mut row);
                row[1]
            })
            .collect()
    }

    /// Parameters: char path, attribute path, length path, head.
    pub fn params(&self) -> Vec<&Param> {
        let mut p = vec![self.embedding.param()];
        p.extend(self.rnn.params());
        p.push(self.attr_embedding.param());
        p.extend(self.attr_rnn.params());
        p.extend(self.len_dense.params());
        p.extend(self.head.params());
        p
    }

    /// Mutable parameters in the same order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let Self {
            embedding,
            rnn,
            attr_embedding,
            attr_rnn,
            len_dense,
            head,
            ..
        } = self;
        let mut p = vec![embedding.param_mut()];
        p.extend(rnn.params_mut());
        p.push(attr_embedding.param_mut());
        p.extend(attr_rnn.params_mut());
        p.extend(len_dense.params_mut());
        p.extend(head.params_mut());
        p
    }

    /// Non-trainable buffers (BatchNorm running statistics).
    pub fn buffers(&self) -> Vec<&Matrix> {
        self.head.buffers()
    }

    /// Mutable buffers in the same order.
    pub fn buffers_mut(&mut self) -> Vec<&mut Matrix> {
        self.head.buffers_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::test_support::marked_dataset;
    use etsb_tensor::init::seeded_rng;

    fn small_cfg() -> TrainConfig {
        TrainConfig {
            rnn_units: 6,
            attr_rnn_units: 3,
            head_dim: 6,
            length_dense_dim: 4,
            ..Default::default()
        }
    }

    /// The pre-batching ETSB training step, reproduced exactly: allocating
    /// per-sample forward/backward on both recurrent paths, sharded with
    /// [`parallel::fold_shards`] boundaries and merged in shard order.
    fn reference_train_batch(
        model: &mut EtsbRnn,
        data: &EncodedDataset,
        batch: &[usize],
        grads: &mut GradBuffer,
    ) -> f32 {
        let n = batch.len();
        let mut features = Matrix::zeros(n, model.feature_dim());
        let len_inputs = Matrix::from_fn(n, 1, |r, _| data.length_norms[batch[r]]);
        let (len_feats, len_cache) = model.len_dense.forward(len_inputs);
        let mut char_caches = Vec::with_capacity(n);
        let mut attr_caches = Vec::with_capacity(n);
        for (row, &cell) in batch.iter().enumerate() {
            let (embedded, emb_cache) = model.embedding.forward(&data.sequences[cell]);
            let (char_feat, rnn_cache) = model.rnn.forward(embedded);
            let (attr_embedded, attr_emb_cache) =
                model.attr_embedding.forward(&[data.attr_ids[cell]]);
            let (attr_feat, attr_rnn_cache) = model.attr_rnn.forward(attr_embedded);
            let out = features.row_mut(row);
            out[..model.char_dim].copy_from_slice(&char_feat);
            out[model.char_dim..model.char_dim + model.attr_dim].copy_from_slice(&attr_feat);
            out[model.char_dim + model.attr_dim..].copy_from_slice(len_feats.row(row));
            char_caches.push((emb_cache, rnn_cache));
            attr_caches.push((attr_emb_cache, attr_rnn_cache));
        }
        let labels: Vec<usize> = batch.iter().map(|&c| usize::from(data.labels[c])).collect();
        let (logits, head_cache) = model.head.forward_train(features);
        let loss = softmax_cross_entropy(&logits, &labels);
        let grad_features = model.head.backward(
            &head_cache,
            &loss.grad_logits,
            &mut grads.slots_mut()[28..34],
        );
        let shards = parallel::fold_shards(n);
        let chunk = n.div_ceil(shards);
        let seq_shapes: Vec<(usize, usize)> = model.params()[..26]
            .iter()
            .map(|p| p.value.shape())
            .collect();
        let (char_dim, attr_dim) = (model.char_dim, model.attr_dim);
        let mut bufs = Vec::new();
        for s in 0..shards {
            let mut acc = GradBuffer::from_shapes(seq_shapes.iter().copied());
            for i in (s * chunk).min(n)..((s + 1) * chunk).min(n) {
                let (char_part, attr_part) = acc.slots_mut().split_at_mut(13);
                let (emb_slot, rnn_slots) = char_part.split_at_mut(1);
                let (attr_emb_slot, attr_rnn_slots) = attr_part.split_at_mut(1);
                let (emb_cache, rnn_cache) = &char_caches[i];
                let (attr_emb_cache, attr_rnn_cache) = &attr_caches[i];
                let g = grad_features.row(i);
                let grad_embedded = model.rnn.backward(rnn_cache, &g[..char_dim], rnn_slots);
                model
                    .embedding
                    .backward(emb_cache, &grad_embedded, &mut emb_slot[0]);
                let grad_attr_embedded = model.attr_rnn.backward(
                    attr_rnn_cache,
                    &g[char_dim..char_dim + attr_dim],
                    attr_rnn_slots,
                );
                model.attr_embedding.backward(
                    attr_emb_cache,
                    &grad_attr_embedded,
                    &mut attr_emb_slot[0],
                );
            }
            bufs.push(acc);
        }
        let mut iter = bufs.into_iter();
        if let Some(mut total) = iter.next() {
            for b in iter {
                total.merge(&b);
            }
            for (slot, merged) in grads.slots_mut()[..26].iter_mut().zip(total.slots()) {
                slot.add_assign(merged);
            }
        }
        let mut grad_len = Matrix::zeros(n, model.len_dim);
        for row in 0..n {
            grad_len
                .row_mut(row)
                .copy_from_slice(&grad_features.row(row)[model.char_dim + model.attr_dim..]);
        }
        let _ = model
            .len_dense
            .backward(&len_cache, &grad_len, &mut grads.slots_mut()[26..28]);
        loss.loss
    }

    /// The tentpole guarantee for the enriched model: batched shard
    /// execution on both recurrent paths matches the allocating per-sample
    /// oracle bit for bit — loss, all 34 gradient slots, and predictions.
    #[test]
    fn batched_train_matches_per_sample_reference_bitwise() {
        let data = marked_dataset(30);
        let batch: Vec<usize> = (0..data.n_cells()).collect();
        let mut batched = EtsbRnn::new(&data, &small_cfg(), &mut seeded_rng(7));
        let mut reference = EtsbRnn::new(&data, &small_cfg(), &mut seeded_rng(7));

        let mut grads_b = etsb_nn::grad_buffer_for(&batched.params());
        let mut grads_r = etsb_nn::grad_buffer_for(&reference.params());
        let loss_b = batched.train_batch(&data, &batch, &mut grads_b);
        let loss_r = reference_train_batch(&mut reference, &data, &batch, &mut grads_r);
        assert_eq!(loss_b.to_bits(), loss_r.to_bits(), "loss diverged");
        for i in 0..grads_b.len() {
            assert_eq!(
                grads_b.slot(i).as_slice(),
                grads_r.slot(i).as_slice(),
                "gradient slot {i} diverged"
            );
        }
        let probs_b = batched.predict_probs_with(&data, &batch, KernelPolicy::Exact);
        let probs_r = reference.predict_probs_with(&data, &batch, KernelPolicy::Exact);
        assert_eq!(probs_b, probs_r);
    }

    #[test]
    fn feature_dim_composition() {
        let data = marked_dataset(20);
        let model = EtsbRnn::new(&data, &small_cfg(), &mut seeded_rng(1));
        // 2*6 (char) + 2*3 (attr) + 4 (len) = 22.
        assert_eq!(model.feature_dim(), 22);
    }

    #[test]
    fn attribute_information_changes_predictions() {
        // Same character sequence under different attributes must produce
        // different probabilities — the whole point of the enrichment.
        let data = marked_dataset(20);
        let model = EtsbRnn::new(&data, &small_cfg(), &mut seeded_rng(2));
        // Cells 0 and 1 belong to attributes 0 and 1. Fake a dataset view
        // where both carry the same sequence.
        let mut twin = data.clone();
        twin.sequences[1] = twin.sequences[0].clone();
        twin.length_norms[1] = twin.length_norms[0];
        let probs = model.predict_probs_with(&twin, &[0, 1], KernelPolicy::Exact);
        assert!(
            (probs[0] - probs[1]).abs() > 1e-6,
            "attribute path had no effect: {probs:?}"
        );
    }

    #[test]
    fn train_batch_reduces_loss() {
        use etsb_nn::{grad_buffer_for, Optimizer, Rmsprop};
        let data = marked_dataset(30);
        let mut model = EtsbRnn::new(&data, &small_cfg(), &mut seeded_rng(3));
        let batch: Vec<usize> = (0..data.n_cells()).collect();
        let mut opt = Rmsprop::new(3e-3);
        let mut grads = grad_buffer_for(&model.params());
        let first = model.train_batch(&data, &batch, &mut grads);
        let mut last = first;
        for _ in 0..60 {
            grads.zero();
            last = model.train_batch(&data, &batch, &mut grads);
            opt.step(&mut model.params_mut(), &grads);
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    #[test]
    fn param_count() {
        let data = marked_dataset(12);
        let model = EtsbRnn::new(&data, &small_cfg(), &mut seeded_rng(4));
        // 1 + 12 (char) + 1 + 12 (attr) + 2 (len dense) + 6 (head) = 34.
        assert_eq!(model.params().len(), 34);
    }
}
