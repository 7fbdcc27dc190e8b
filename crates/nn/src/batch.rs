//! Packed timestep-major batch layout for batched sequence execution.
//!
//! The allocating per-sample oracle (`Recurrence::forward_seq`) walks
//! one sequence at a time, so every timestep is a vecmat against the
//! recurrent weights. Batch-major execution packs `B` samples into a
//! single matrix, one *timestep block* after another, and runs each
//! timestep of the whole batch as a matmul instead:
//!
//! ```text
//! row(s, t) = offsets[t] + s      for slot s < active[t]
//! ```
//!
//! Samples are stable-sorted by length, longest first, so the samples
//! still alive at timestep `t` are always a *prefix* of the slots alive
//! at `t - 1`: the active batch simply shrinks as shorter sequences
//! retire, and the recurrent product at `t` reads the first `active[t]`
//! rows of timestep block `t - 1`. The sort keeps an index map
//! ([`SeqBatch::slot_of`] / [`SeqBatch::sample_at`]) so callers can
//! restore original batch order when scattering features or replaying
//! gradients.
//!
//! Bitwise determinism: every row of a batched matmul reduces in exactly
//! the same order as the per-step vecmat (`Matrix::accumulate_rows` is
//! the single reduction kernel behind both), and weight gradients are
//! replayed per sample in original batch order, so the batched path is
//! bitwise identical to running the allocating oracle sample by sample.

use crate::rnn::split_cell_grads;
use etsb_tensor::{Matrix, Workspace};

/// Length-bucketed, timestep-major layout for a batch of sequences.
///
/// Construction stable-sorts the batch by descending length; all
/// accessors that take a `slot` refer to this sorted order, and
/// [`SeqBatch::slot_of`] maps an original batch index to its slot.
#[derive(Clone, Debug)]
pub struct SeqBatch {
    /// `order[slot]` = original batch index occupying `slot`.
    order: Vec<usize>,
    /// `pos[original]` = slot of that sample (inverse of `order`).
    pos: Vec<usize>,
    /// Per-slot sequence length, non-increasing.
    lengths: Vec<usize>,
    /// `active[t]` = number of samples with length > `t`, non-increasing.
    active: Vec<usize>,
    /// `offsets[t]` = packed row where timestep block `t` starts;
    /// `offsets[t_max]` = total packed rows.
    offsets: Vec<usize>,
}

impl SeqBatch {
    /// Build the packed layout for a batch given per-sample lengths in
    /// original batch order. Every length must be positive and the batch
    /// non-empty (the data-preparation pipeline guarantees both).
    pub fn from_lengths(lengths: &[usize]) -> Self {
        assert!(!lengths.is_empty(), "SeqBatch: empty batch");
        assert!(
            lengths.iter().all(|&l| l > 0),
            "SeqBatch: zero-length sequence"
        );
        let n = lengths.len();
        let mut order: Vec<usize> = (0..n).collect();
        // Stable sort: equal lengths keep original relative order, which
        // makes the layout a pure function of the length multiset + order.
        order.sort_by_key(|&i| std::cmp::Reverse(lengths[i]));
        let mut pos = vec![0usize; n];
        for (slot, &orig) in order.iter().enumerate() {
            pos[orig] = slot;
        }
        let sorted: Vec<usize> = order.iter().map(|&i| lengths[i]).collect();
        let t_max = sorted[0];
        let mut active = vec![0usize; t_max];
        for &len in &sorted {
            for a in active.iter_mut().take(len) {
                *a += 1;
            }
        }
        let mut offsets = Vec::with_capacity(t_max + 1);
        let mut acc = 0usize;
        offsets.push(acc);
        for &a in &active {
            acc += a;
            offsets.push(acc);
        }
        Self {
            order,
            pos,
            lengths: sorted,
            active,
            offsets,
        }
    }

    /// [`SeqBatch::from_lengths`] with zero lengths clamped to one: a
    /// zero-length sequence occupies a single pad timestep, exactly the
    /// layout its value would get had it been encoded as the empty string
    /// (the dictionary encodes `""` as one pad token). The embedding
    /// batch kernels substitute the pad row for the missing step, so
    /// downstream results are bitwise identical either way. Use this on
    /// externally supplied batches (e.g. serving requests) that may carry
    /// raggedly empty sequences; the batch itself must still be
    /// non-empty.
    pub fn from_lengths_clamped(lengths: &[usize]) -> Self {
        if lengths.contains(&0) {
            let clamped: Vec<usize> = lengths.iter().map(|&l| l.max(1)).collect();
            Self::from_lengths(&clamped)
        } else {
            Self::from_lengths(lengths)
        }
    }

    /// Number of samples in the batch.
    pub fn n_samples(&self) -> usize {
        self.order.len()
    }

    /// Longest sequence length (= number of timestep blocks).
    pub fn t_max(&self) -> usize {
        self.lengths[0]
    }

    /// Total packed rows (sum of all lengths).
    pub fn total_rows(&self) -> usize {
        self.offsets[self.offsets.len() - 1]
    }

    /// Samples still active at timestep `t` (slots `0..active(t)`).
    pub fn active(&self, t: usize) -> usize {
        self.active[t]
    }

    /// Packed row where timestep block `t` starts.
    pub fn offset(&self, t: usize) -> usize {
        self.offsets[t]
    }

    /// Packed row holding slot `s`'s step `t`.
    pub fn row(&self, slot: usize, t: usize) -> usize {
        self.offsets[t] + slot
    }

    /// Sequence length of the sample in `slot`.
    pub fn len_at(&self, slot: usize) -> usize {
        self.lengths[slot]
    }

    /// Slot occupied by original batch index `orig`.
    pub fn slot_of(&self, orig: usize) -> usize {
        self.pos[orig]
    }

    /// Original batch index occupying `slot`.
    pub fn sample_at(&self, slot: usize) -> usize {
        self.order[slot]
    }

    /// Mean active rows per timestep — the batch efficiency the trainer
    /// traces as the `batch_occupancy` event (1.0 = no batching benefit,
    /// `n_samples` = perfectly rectangular batch).
    pub fn occupancy(&self) -> f64 {
        self.total_rows() as f64 / self.t_max() as f64
    }

    /// Time-reverse every sample inside the packed layout:
    /// `out[row(s, t)] = packed[row(s, len_s - 1 - t)]`. Used by the
    /// bidirectional layers, whose backward cell consumes each sequence
    /// right-to-left; the layout (lengths, offsets) is unchanged.
    pub fn reverse_packed_into(&self, packed: &Matrix, out: &mut Matrix) {
        assert_eq!(
            packed.rows(),
            self.total_rows(),
            "SeqBatch::reverse_packed_into: packed rows {} != {}",
            packed.rows(),
            self.total_rows()
        );
        out.resize_zeroed(packed.rows(), packed.cols());
        for slot in 0..self.n_samples() {
            let len = self.len_at(slot);
            for t in 0..len {
                out.row_mut(self.row(slot, t))
                    .copy_from_slice(packed.row(self.row(slot, len - 1 - t)));
            }
        }
    }
}

/// Gather one sample's time-major window out of a packed matrix.
// etsb: allow(shape-assert) -- `out` is a reshaped sink; `batch.row` bounds-checks `packed`.
fn gather_sample(batch: &SeqBatch, slot: usize, packed: &Matrix, out: &mut Matrix) {
    let len = batch.len_at(slot);
    out.resize_zeroed(len, packed.cols());
    for t in 0..len {
        out.row_mut(t)
            .copy_from_slice(packed.row(batch.row(slot, t)));
    }
}

/// Replay the weight/bias gradient accumulation of a batched backward
/// pass **per sample in original batch order**, reproducing the exact
/// floating-point op order of the allocating per-sample backward.
///
/// `grads` holds the cell's three slots `(wx, wh, b)`. `dzx_packed`
/// feeds the input-weight and bias gradients, `dzh_packed` the
/// recurrent-weight gradient; cells whose two pre-activation gradients
/// coincide (vanilla, LSTM) pass the same matrix twice and the duplicate
/// gather is skipped.
pub(crate) fn accumulate_seq_grads(
    batch: &SeqBatch,
    inputs_packed: &Matrix,
    hidden_packed: &Matrix,
    dzx_packed: &Matrix,
    dzh_packed: &Matrix,
    grads: &mut [Matrix],
    ws: &mut Workspace,
) {
    let total = batch.total_rows();
    assert_eq!(
        inputs_packed.rows(),
        total,
        "accumulate_seq_grads: inputs rows {} != {}",
        inputs_packed.rows(),
        total
    );
    assert_eq!(
        hidden_packed.rows(),
        total,
        "accumulate_seq_grads: hidden rows {} != {}",
        hidden_packed.rows(),
        total
    );
    let (gwx, gwh, gb) = split_cell_grads(grads, "accumulate_seq_grads");
    let same_dz = std::ptr::eq(dzx_packed, dzh_packed);
    let mut inp_s = ws.take_mat("batch.inp_s", 0, 0);
    let mut hid_s = ws.take_mat("batch.hid_s", 0, 0);
    let mut dzx_s = ws.take_mat("batch.dzx_s", 0, 0);
    let mut dzh_s = ws.take_mat("batch.dzh_s", 0, 0);
    let mut col4 = ws.take_mat("batch.col4", 0, 0);
    for orig in 0..batch.n_samples() {
        let slot = batch.slot_of(orig);
        let len = batch.len_at(slot);
        gather_sample(batch, slot, inputs_packed, &mut inp_s);
        gather_sample(batch, slot, dzx_packed, &mut dzx_s);
        // Per-sample order: bias rows accumulate step-descending (the
        // BPTT loop direction), then the two windowed outer products.
        for t in (0..len).rev() {
            etsb_tensor::add_assign(gb.row_mut(0), dzx_s.row(t));
        }
        gwx.add_transposed_matmul_blocked(&inp_s, 0, &dzx_s, 0, len, &mut col4);
        if len > 1 {
            gather_sample(batch, slot, hidden_packed, &mut hid_s);
            let dzh = if same_dz {
                &dzx_s
            } else {
                gather_sample(batch, slot, dzh_packed, &mut dzh_s);
                &dzh_s
            };
            gwh.add_transposed_matmul_blocked(&hid_s, 0, dzh, 1, len - 1, &mut col4);
        }
    }
    ws.put_mat("batch.col4", col4);
    ws.put_mat("batch.dzh_s", dzh_s);
    ws.put_mat("batch.dzx_s", dzx_s);
    ws.put_mat("batch.hid_s", hid_s);
    ws.put_mat("batch.inp_s", inp_s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamped_constructor_pads_zero_lengths() {
        let b = SeqBatch::from_lengths_clamped(&[3, 0, 2]);
        assert_eq!(b.n_samples(), 3);
        assert_eq!(b.len_at(b.slot_of(1)), 1);
        // Identical layout to the same batch with an explicit pad step.
        let explicit = SeqBatch::from_lengths(&[3, 1, 2]);
        assert_eq!(b.total_rows(), explicit.total_rows());
        for orig in 0..3 {
            assert_eq!(b.slot_of(orig), explicit.slot_of(orig));
        }
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn clamped_constructor_still_rejects_empty_batch() {
        let _ = SeqBatch::from_lengths_clamped(&[]);
    }

    #[test]
    fn layout_of_mixed_lengths() {
        let b = SeqBatch::from_lengths(&[3, 1, 4, 1, 2]);
        assert_eq!(b.n_samples(), 5);
        assert_eq!(b.t_max(), 4);
        assert_eq!(b.total_rows(), 11);
        // Stable descending sort: 4 (orig 2), 3 (orig 0), 2 (orig 4),
        // then the two 1s in original order (orig 1, orig 3).
        assert_eq!(
            (0..5).map(|s| b.sample_at(s)).collect::<Vec<_>>(),
            vec![2, 0, 4, 1, 3]
        );
        for slot in 0..5 {
            assert_eq!(b.slot_of(b.sample_at(slot)), slot);
        }
        assert_eq!(
            (0..5).map(|s| b.len_at(s)).collect::<Vec<_>>(),
            vec![4, 3, 2, 1, 1]
        );
        assert_eq!(
            (0..4).map(|t| b.active(t)).collect::<Vec<_>>(),
            vec![5, 3, 2, 1]
        );
        assert_eq!(
            (0..4).map(|t| b.offset(t)).collect::<Vec<_>>(),
            vec![0, 5, 8, 10]
        );
        assert_eq!(b.row(1, 2), 9);
        assert!((b.occupancy() - 2.75).abs() < 1e-12);
    }

    #[test]
    fn uniform_lengths_are_rectangular() {
        let b = SeqBatch::from_lengths(&[3, 3, 3]);
        assert_eq!(b.total_rows(), 9);
        assert_eq!(
            (0..3).map(|s| b.sample_at(s)).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert!((b.occupancy() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reverse_packed_reverses_each_sample() {
        let b = SeqBatch::from_lengths(&[2, 3]);
        // Packed rows tagged (orig, t) so the reversal is checkable.
        let mut packed = Matrix::zeros(b.total_rows(), 2);
        for orig in 0..2 {
            let slot = b.slot_of(orig);
            for t in 0..b.len_at(slot) {
                let r = b.row(slot, t);
                packed.row_mut(r).copy_from_slice(&[orig as f32, t as f32]);
            }
        }
        let mut rev = Matrix::default();
        b.reverse_packed_into(&packed, &mut rev);
        for orig in 0..2 {
            let slot = b.slot_of(orig);
            let len = b.len_at(slot);
            for t in 0..len {
                assert_eq!(
                    rev.row(b.row(slot, t)),
                    &[orig as f32, (len - 1 - t) as f32],
                    "sample {orig} step {t}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let _ = SeqBatch::from_lengths(&[]);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_length_panics() {
        let _ = SeqBatch::from_lengths(&[2, 0]);
    }
}
