//! Trainable lookup-table embedding (§3.1 of the paper).
//!
//! Index `0` is reserved as the padding symbol by the data-preparation
//! pipeline; it embeds like any other row, matching Keras'
//! `Embedding(mask_zero=False)` default that the reference implementation
//! uses (the RNN in this workspace never reaches padding positions because
//! sequences run to their true length, but attribute ids may legitimately
//! be 0).

use crate::batch::SeqBatch;
use crate::Param;
use etsb_tensor::{init, Matrix};
use rand::rngs::StdRng;

/// A `vocab_size x dim` trainable embedding table.
#[derive(Clone, Debug)]
pub struct Embedding {
    weights: Param,
}

/// Cache produced by [`Embedding::forward`]: the looked-up indices.
#[derive(Clone, Debug, Default)]
pub struct EmbeddingCache {
    ids: Vec<usize>,
}

impl Embedding {
    /// New embedding with Glorot-uniform rows.
    ///
    /// # Panics
    /// If `vocab_size` or `dim` is zero.
    pub fn new(vocab_size: usize, dim: usize, rng: &mut StdRng) -> Self {
        assert!(vocab_size > 0, "Embedding: vocab_size must be positive");
        assert!(dim > 0, "Embedding: dim must be positive");
        Self {
            weights: Param::new(init::glorot_uniform(vocab_size, dim, rng)),
        }
    }

    /// Vocabulary size (number of rows).
    pub fn vocab_size(&self) -> usize {
        self.weights.value.rows()
    }

    /// Embedding dimension (number of columns).
    pub fn dim(&self) -> usize {
        self.weights.value.cols()
    }

    /// Look up `ids`, producing a `len(ids) x dim` matrix.
    ///
    /// # Panics
    /// If any id is out of vocabulary.
    pub fn forward(&self, ids: &[usize]) -> (Matrix, EmbeddingCache) {
        let dim = self.dim();
        let vocab = self.vocab_size();
        let mut out = Matrix::zeros(ids.len(), dim);
        for (row, &id) in ids.iter().enumerate() {
            assert!(
                id < vocab,
                "Embedding: id {id} out of vocabulary (size {vocab})"
            );
            out.row_mut(row).copy_from_slice(self.weights.value.row(id));
        }
        (out, EmbeddingCache { ids: ids.to_vec() })
    }

    /// Accumulate gradients for the rows selected in the cached forward
    /// pass into `grad` (a `vocab_size x dim` slot). `grad_out` must be
    /// `len(ids) x dim`.
    pub fn backward(&self, cache: &EmbeddingCache, grad_out: &Matrix, grad: &mut Matrix) {
        assert_eq!(
            grad_out.shape(),
            (cache.ids.len(), self.dim()),
            "Embedding::backward: gradient shape mismatch"
        );
        assert_eq!(
            grad.shape(),
            self.weights.value.shape(),
            "Embedding::backward: gradient slot shape mismatch"
        );
        for (row, &id) in cache.ids.iter().enumerate() {
            etsb_tensor::add_assign(grad.row_mut(id), grad_out.row(row));
        }
    }

    /// Look up a whole batch of id sequences into the packed timestep-major
    /// layout described by `batch`: row `batch.row(slot, t)` of `out` holds
    /// the embedding of step `t` of the sample in that slot. `seqs` is in
    /// **original** sample order (`seqs[orig]`), exactly as passed to
    /// [`SeqBatch::from_lengths`]. Pure row copies, so the packed rows are
    /// bitwise identical to per-sample [`Embedding::forward`] output.
    ///
    /// A zero-length sequence is accepted when its slot holds one
    /// timestep (the [`SeqBatch::from_lengths_clamped`] layout): the
    /// missing step reads the pad row (index 0), exactly what the
    /// sequence would contain had the empty value been encoded normally.
    ///
    /// # Panics
    /// If a non-empty sequence's length disagrees with `batch` or any id
    /// is out of vocabulary.
    pub fn lookup_batch_into(&self, batch: &SeqBatch, seqs: &[&[usize]], out: &mut Matrix) {
        let dim = self.dim();
        let vocab = self.vocab_size();
        assert_eq!(
            seqs.len(),
            batch.n_samples(),
            "Embedding::lookup_batch_into: sample count mismatch"
        );
        out.resize_zeroed(batch.total_rows(), dim);
        for (orig, seq) in seqs.iter().enumerate() {
            let slot = batch.slot_of(orig);
            let len = batch.len_at(slot);
            assert!(
                seq.len() == len || (seq.is_empty() && len == 1),
                "Embedding::lookup_batch_into: sequence length mismatch"
            );
            for t in 0..len {
                let id = seq.get(t).copied().unwrap_or(0);
                assert!(
                    id < vocab,
                    "Embedding: id {id} out of vocabulary (size {vocab})"
                );
                out.row_mut(batch.row(slot, t))
                    .copy_from_slice(self.weights.value.row(id));
            }
        }
    }

    /// Accumulate table gradients for a packed batch lookup. Rows are
    /// replayed per sample in **original** order, each sample's steps
    /// ascending — the identical `add_assign` sequence the per-sample
    /// [`Embedding::backward`] calls would produce, so repeated-id rows
    /// accumulate bitwise identically.
    pub fn backward_batch(
        &self,
        batch: &SeqBatch,
        seqs: &[&[usize]],
        grad_packed: &Matrix,
        grad: &mut Matrix,
    ) {
        assert_eq!(
            grad_packed.shape(),
            (batch.total_rows(), self.dim()),
            "Embedding::backward_batch: gradient shape mismatch"
        );
        assert_eq!(
            grad.shape(),
            self.weights.value.shape(),
            "Embedding::backward_batch: gradient slot shape mismatch"
        );
        assert_eq!(
            seqs.len(),
            batch.n_samples(),
            "Embedding::backward_batch: sample count mismatch"
        );
        for (orig, seq) in seqs.iter().enumerate() {
            let slot = batch.slot_of(orig);
            // Mirror the forward's pad substitution: a clamped empty
            // sequence replays its single pad step into row 0.
            for t in 0..batch.len_at(slot) {
                let id = seq.get(t).copied().unwrap_or(0);
                etsb_tensor::add_assign(grad.row_mut(id), grad_packed.row(batch.row(slot, t)));
            }
        }
    }

    /// The underlying parameter (for optimizers / checkpoints).
    pub fn param(&self) -> &Param {
        &self.weights
    }

    /// Mutable access to the underlying parameter.
    pub fn param_mut(&mut self) -> &mut Param {
        &mut self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsb_tensor::init::seeded_rng;

    #[test]
    fn forward_selects_rows() {
        let mut rng = seeded_rng(1);
        let emb = Embedding::new(5, 3, &mut rng);
        let (out, _) = emb.forward(&[2, 2, 4]);
        assert_eq!(out.shape(), (3, 3));
        assert_eq!(out.row(0), emb.param().value.row(2));
        assert_eq!(out.row(1), emb.param().value.row(2));
        assert_eq!(out.row(2), emb.param().value.row(4));
    }

    #[test]
    fn backward_accumulates_repeated_ids() {
        let mut rng = seeded_rng(2);
        let emb = Embedding::new(4, 2, &mut rng);
        let (_, cache) = emb.forward(&[1, 1]);
        let grad_out = Matrix::from_rows(&[&[1.0, 0.5], &[2.0, 0.5]]);
        let mut grad = Matrix::zeros(4, 2);
        emb.backward(&cache, &grad_out, &mut grad);
        assert_eq!(grad.row(1), &[3.0, 1.0]);
        assert_eq!(grad.row(0), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn out_of_vocab_panics() {
        let mut rng = seeded_rng(3);
        let emb = Embedding::new(3, 2, &mut rng);
        let _ = emb.forward(&[3]);
    }

    #[test]
    fn empty_sequence_is_fine() {
        let mut rng = seeded_rng(4);
        let emb = Embedding::new(3, 2, &mut rng);
        let (out, _) = emb.forward(&[]);
        assert_eq!(out.shape(), (0, 2));
    }

    #[test]
    fn clamped_empty_sequence_reads_pad_row() {
        let mut rng = seeded_rng(5);
        let emb = Embedding::new(4, 3, &mut rng);
        let sb = SeqBatch::from_lengths_clamped(&[2, 0]);
        let seqs: Vec<&[usize]> = vec![&[1, 2], &[]];
        let mut packed = Matrix::default();
        emb.lookup_batch_into(&sb, &seqs, &mut packed);
        // Identical to encoding the empty value as one explicit pad token.
        let sb_pad = SeqBatch::from_lengths(&[2, 1]);
        let pad_seqs: Vec<&[usize]> = vec![&[1, 2], &[0]];
        let mut expect = Matrix::default();
        emb.lookup_batch_into(&sb_pad, &pad_seqs, &mut expect);
        assert_eq!(packed.shape(), expect.shape());
        for r in 0..packed.rows() {
            assert_eq!(packed.row(r), expect.row(r), "row {r}");
        }
    }

    #[test]
    fn clamped_empty_sequence_backward_matches_explicit_pad() {
        let mut rng = seeded_rng(6);
        let emb = Embedding::new(4, 2, &mut rng);
        let sb = SeqBatch::from_lengths_clamped(&[1, 0]);
        let grad_packed = Matrix::from_rows(&[&[1.0, 2.0], &[0.5, 0.25]]);
        let seqs: Vec<&[usize]> = vec![&[3], &[]];
        let mut grad = Matrix::zeros(4, 2);
        emb.backward_batch(&sb, &seqs, &grad_packed, &mut grad);
        let pad_seqs: Vec<&[usize]> = vec![&[3], &[0]];
        let mut expect = Matrix::zeros(4, 2);
        emb.backward_batch(&sb, &pad_seqs, &grad_packed, &mut expect);
        for r in 0..4 {
            assert_eq!(grad.row(r), expect.row(r), "row {r}");
        }
    }
}
