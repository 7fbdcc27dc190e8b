//! TSB-RNN (§4.3.1): character embedding → two-stacked bidirectional RNN
//! (64 units/direction) → Dense(32, ReLU) → BatchNorm → Dense(2, softmax).
//!
//! Sequence execution is batch-major: each deterministic fold shard of a
//! training batch (or prediction set) is packed into one length-bucketed
//! [`SeqBatch`] and the whole shard runs through the batched RNN kernels
//! at once. Shard boundaries are a pure function of the item count, so
//! batch composition — and therefore every float operation — is identical
//! for any worker count, and the batched kernels themselves are bitwise
//! identical to the allocating per-sample oracle (pinned by the tests
//! below).

use super::{AnyStacked, AnyStackedCache, Head};
use crate::config::TrainConfig;
use crate::encode::EncodedDataset;
use etsb_nn::{parallel, softmax_cross_entropy, Embedding, Param, SeqBatch};
use etsb_tensor::{GradBuffer, KernelPolicy, Matrix, Workspace};
use rand::rngs::StdRng;

/// One shard of a batch, encoded batch-major: the packed layout, the
/// layer cache (packed-row semantics, holding everything backward needs),
/// and the per-sample feature rows in shard-local original order.
struct ShardEnc {
    /// `None` for an empty trailing shard (the layout requires >= 1 sample).
    sb: Option<SeqBatch>,
    cache: AnyStackedCache,
    feats: Matrix,
}

/// The Two-Stacked Bidirectional RNN model.
#[derive(Debug)]
pub struct TsbRnn {
    embedding: Embedding,
    rnn: AnyStacked,
    head: Head,
}

impl TsbRnn {
    /// Build for a dataset's value dictionary.
    pub fn new(data: &EncodedDataset, cfg: &TrainConfig, rng: &mut StdRng) -> Self {
        let vocab = data.char_index.vocab_size();
        // §3.1: the embedding width defaults to the dictionary size.
        let embed_dim = cfg.embed_dim.unwrap_or(vocab);
        let rnn = AnyStacked::new(cfg.cell, embed_dim, cfg.rnn_units, rng);
        let feature_dim = rnn.output_dim();
        Self {
            embedding: Embedding::new(vocab, embed_dim, rng),
            rnn,
            head: Head::new(feature_dim, cfg.head_dim, rng),
        }
    }

    /// Encode one shard of cells batch-major: pack the character
    /// embeddings timestep-major and run the stacked RNN batched. The
    /// returned cache retains the packed activations for the backward
    /// pass; `feats` row `r` is the feature vector of `cells[r]`.
    fn encode_shard(
        &self,
        data: &EncodedDataset,
        cells: &[usize],
        policy: KernelPolicy,
    ) -> ShardEnc {
        let mut cache = self.rnn.empty_cache();
        let mut feats = Matrix::default();
        let sb = if cells.is_empty() {
            None
        } else {
            let lengths: Vec<usize> = cells.iter().map(|&c| data.sequences[c].len()).collect();
            // Clamped: a hand-built dataset may carry zero-length
            // sequences (the normal encoder emits at least one pad step);
            // they occupy one pad timestep, exactly as if encoded as "".
            let sb = SeqBatch::from_lengths_clamped(&lengths);
            let seqs: Vec<&[usize]> = cells
                .iter()
                .map(|&c| data.sequences[c].as_slice())
                .collect();
            let mut ws = Workspace::new();
            let mut packed = Matrix::default();
            self.embedding.lookup_batch_into(&sb, &seqs, &mut packed);
            self.rnn
                .forward_batch_into(&packed, &sb, &mut feats, &mut cache, &mut ws, policy);
            Some(sb)
        };
        ShardEnc { sb, cache, feats }
    }

    /// One gradient-accumulating training step; returns the batch loss.
    ///
    /// `grads` has 19 slots in [`TsbRnn::params`] order: embedding (1),
    /// RNN (12), head (6). The sequence path runs batch-major: one packed
    /// [`SeqBatch`] per deterministic fold shard, forward and backward,
    /// with per-shard gradient buffers merged in fixed shard order. The
    /// batch-coupled head (BatchNorm statistics) stays on the merged
    /// feature matrix. Results are bitwise identical to the allocating
    /// per-sample oracle for any worker count.
    pub fn train_batch(
        &mut self,
        data: &EncodedDataset,
        batch: &[usize],
        grads: &mut GradBuffer,
    ) -> f32 {
        assert!(!batch.is_empty(), "TsbRnn::train_batch: empty batch");
        assert_eq!(grads.len(), 19, "TsbRnn::train_batch: gradient slot count");
        let feat_dim = self.rnn.output_dim();

        let forward_span = etsb_obs::obs_span!("forward", "samples" => batch.len());
        let encs = parallel::parallel_map_shards(batch.len(), |_, range| {
            self.encode_shard(data, &batch[range], KernelPolicy::Exact)
        });
        let mut features = Matrix::zeros(batch.len(), feat_dim);
        let mut row = 0usize;
        for enc in &encs {
            for r in 0..enc.feats.rows() {
                features.row_mut(row).copy_from_slice(enc.feats.row(r));
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
            &mut grads.slots_mut()[13..19],
        );

        // Batched backward, one shard per packed batch, each shard
        // accumulating into its own buffer over the sequence-path slots
        // (embedding + RNN). The batched kernels replay weight gradients
        // per sample in shard order, and shard buffers merge in fixed
        // shard order (empty trailing shards contribute zeroed buffers,
        // exactly like the per-sample fold), so the result is bitwise
        // identical to per-sample backward for any worker count.
        let seq_shapes: Vec<(usize, usize)> = self.params()[..13]
            .iter()
            .map(|p| p.value.shape())
            .collect();
        let shard_grads = parallel::parallel_map_shards(batch.len(), |s, range| {
            let mut acc = GradBuffer::from_shapes(seq_shapes.iter().copied());
            let mut ws_bytes = 0usize;
            if let Some(sb) = &encs[s].sb {
                let mut ws = Workspace::new();
                let mut gf = Matrix::zeros(range.len(), feat_dim);
                for (r, orig) in range.clone().enumerate() {
                    gf.row_mut(r).copy_from_slice(grad_features.row(orig));
                }
                let mut grad_packed = Matrix::default();
                let (emb_slot, rnn_slots) = acc.slots_mut().split_at_mut(1);
                self.rnn.backward_batch_into(
                    sb,
                    &encs[s].cache,
                    &gf,
                    rnn_slots,
                    &mut grad_packed,
                    &mut ws,
                );
                let seqs: Vec<&[usize]> = batch[range]
                    .iter()
                    .map(|&c| data.sequences[c].as_slice())
                    .collect();
                self.embedding
                    .backward_batch(sb, &seqs, &grad_packed, &mut emb_slot[0]);
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
            for (slot, merged) in grads.slots_mut()[..13].iter_mut().zip(total.slots()) {
                slot.add_assign(merged);
            }
        }
        loss.loss
    }

    /// Error probabilities (evaluation mode), batch-major: each fold shard
    /// of the requested cells packs into one [`SeqBatch`] and runs the
    /// batched forward, so inference shares the training hot path.
    /// `Exact` keeps the bitwise contract, `FastMath` runs the batched
    /// sequence encoder on the fused inference kernels.
    pub fn predict_probs_with(
        &self,
        data: &EncodedDataset,
        cells: &[usize],
        policy: KernelPolicy,
    ) -> Vec<f32> {
        if cells.is_empty() {
            // Zero cells means zero forward passes: never reach the
            // batch-packing or head kernels with an empty matrix.
            return Vec::new();
        }
        let feat_dim = self.rnn.output_dim();
        let encs = parallel::parallel_map_shards(cells.len(), |_, range| {
            self.encode_shard(data, &cells[range], policy)
        });
        let mut features = Matrix::zeros(cells.len(), feat_dim);
        let mut row = 0usize;
        for enc in &encs {
            for r in 0..enc.feats.rows() {
                features.row_mut(row).copy_from_slice(enc.feats.row(r));
                row += 1;
            }
        }
        let logits = self.head.forward_eval(&features);
        (0..cells.len())
            .map(|r| {
                let mut row = logits.row(r).to_vec();
                etsb_tensor::softmax_inplace(&mut row);
                row[1]
            })
            .collect()
    }

    /// Parameters: embedding, RNN (layer1 fwd/bwd, layer2 fwd/bwd), head.
    pub fn params(&self) -> Vec<&Param> {
        let mut p = vec![self.embedding.param()];
        p.extend(self.rnn.params());
        p.extend(self.head.params());
        p
    }

    /// Mutable parameters in the same order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let (e, r, h) = (&mut self.embedding, &mut self.rnn, &mut self.head);
        let mut p = vec![e.param_mut()];
        p.extend(r.params_mut());
        p.extend(h.params_mut());
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
            head_dim: 6,
            ..Default::default()
        }
    }

    /// The pre-batching training step, reproduced exactly: allocating
    /// per-sample forward/backward calls, sharded with
    /// [`parallel::fold_shards`] boundaries and merged in shard order. The
    /// batched `train_batch` must match this bit for bit.
    // The index drives `caches`, `grad_features` rows and the shard
    // arithmetic together; an iterator chain would obscure the replayed order.
    #[allow(clippy::needless_range_loop)]
    fn reference_train_batch(
        model: &mut TsbRnn,
        data: &EncodedDataset,
        batch: &[usize],
        grads: &mut GradBuffer,
    ) -> f32 {
        let feat_dim = model.rnn.output_dim();
        let mut features = Matrix::zeros(batch.len(), feat_dim);
        let mut caches = Vec::with_capacity(batch.len());
        for (row, &cell) in batch.iter().enumerate() {
            let (embedded, emb_cache) = model.embedding.forward(&data.sequences[cell]);
            let (feat, rnn_cache) = model.rnn.forward(embedded);
            features.row_mut(row).copy_from_slice(&feat);
            caches.push((emb_cache, rnn_cache));
        }
        let labels: Vec<usize> = batch.iter().map(|&c| usize::from(data.labels[c])).collect();
        let (logits, head_cache) = model.head.forward_train(features);
        let loss = softmax_cross_entropy(&logits, &labels);
        let grad_features = model.head.backward(
            &head_cache,
            &loss.grad_logits,
            &mut grads.slots_mut()[13..19],
        );
        let shards = parallel::fold_shards(batch.len());
        let chunk = batch.len().div_ceil(shards);
        let seq_shapes: Vec<(usize, usize)> = model.params()[..13]
            .iter()
            .map(|p| p.value.shape())
            .collect();
        let mut bufs = Vec::new();
        for s in 0..shards {
            let mut acc = GradBuffer::from_shapes(seq_shapes.iter().copied());
            for i in (s * chunk).min(batch.len())..((s + 1) * chunk).min(batch.len()) {
                let (emb_slot, rnn_slots) = acc.slots_mut().split_at_mut(1);
                let (emb_cache, rnn_cache) = &caches[i];
                let grad_embedded = model
                    .rnn
                    .backward(rnn_cache, grad_features.row(i), rnn_slots);
                model
                    .embedding
                    .backward(emb_cache, &grad_embedded, &mut emb_slot[0]);
            }
            bufs.push(acc);
        }
        let mut iter = bufs.into_iter();
        // At least one shard exists for a non-empty batch.
        if let Some(mut total) = iter.next() {
            for b in iter {
                total.merge(&b);
            }
            for (slot, merged) in grads.slots_mut()[..13].iter_mut().zip(total.slots()) {
                slot.add_assign(merged);
            }
        }
        loss.loss
    }

    /// The tentpole guarantee: the batched shard path produces the exact
    /// same loss, gradients, and subsequent predictions as the allocating
    /// per-sample oracle, on a batch with thoroughly mixed lengths.
    #[test]
    fn batched_train_matches_per_sample_reference_bitwise() {
        let data = marked_dataset(30);
        let batch: Vec<usize> = (0..data.n_cells()).collect();
        let mut batched = TsbRnn::new(&data, &small_cfg(), &mut seeded_rng(5));
        let mut reference = TsbRnn::new(&data, &small_cfg(), &mut seeded_rng(5));

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
        // Predictions after one optimizer-free step must agree too (the
        // BatchNorm running statistics advanced identically).
        let probs_b = batched.predict_probs_with(&data, &batch, KernelPolicy::Exact);
        let probs_r = reference.predict_probs_with(&data, &batch, KernelPolicy::Exact);
        assert_eq!(probs_b, probs_r);
    }

    #[test]
    fn predict_probs_are_probabilities() {
        let data = marked_dataset(20);
        let model = TsbRnn::new(&data, &small_cfg(), &mut seeded_rng(1));
        let cells: Vec<usize> = (0..data.n_cells()).collect();
        let probs = model.predict_probs_with(&data, &cells, KernelPolicy::Exact);
        assert_eq!(probs.len(), data.n_cells());
        assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn train_batch_reduces_loss() {
        use etsb_nn::{grad_buffer_for, Optimizer, Rmsprop};
        let data = marked_dataset(30);
        let mut model = TsbRnn::new(&data, &small_cfg(), &mut seeded_rng(2));
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
    fn gradient_accumulates_across_calls() {
        let data = marked_dataset(12);
        let mut model = TsbRnn::new(&data, &small_cfg(), &mut seeded_rng(3));
        let mut grads = etsb_nn::grad_buffer_for(&model.params());
        let _ = model.train_batch(&data, &[0, 1], &mut grads);
        let g1 = grads.slot(0).frobenius_norm();
        let _ = model.train_batch(&data, &[0, 1], &mut grads);
        let g2 = grads.slot(0).frobenius_norm();
        assert!(g2 > g1, "gradients should accumulate: {g1} -> {g2}");
    }

    #[test]
    fn param_order_is_stable() {
        let data = marked_dataset(12);
        let mut model = TsbRnn::new(&data, &small_cfg(), &mut seeded_rng(4));
        let shapes_a: Vec<_> = model.params().iter().map(|p| p.value.shape()).collect();
        let shapes_b: Vec<_> = model.params_mut().iter().map(|p| p.value.shape()).collect();
        assert_eq!(shapes_a, shapes_b);
        // 1 embedding + 12 RNN + 6 head (dense w/b, bn γ/β, out w/b).
        assert_eq!(shapes_a.len(), 19);
    }
}
