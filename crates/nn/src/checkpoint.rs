//! Weight checkpointing.
//!
//! The paper saves the model weights after every epoch whose training loss
//! improves on the best seen so far, and restores that snapshot before
//! evaluation (§5.2). [`snapshot`] serializes a list of matrices (parameter
//! values, then any buffers such as BatchNorm running statistics) to the
//! count-prefixed format detector files embed; [`restore`] writes a
//! snapshot back into a list of the same shapes.

use bytes::{Bytes, BytesMut};
use etsb_tensor::{decode_matrix, encode_matrix, DecodeError, Matrix};

/// Error restoring a checkpoint into a list of matrices.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying matrix decode failure.
    Decode(DecodeError),
    /// Snapshot holds a different number of matrices than the target.
    CountMismatch {
        /// Matrices in the snapshot.
        snapshot: usize,
        /// Matrices in the target list.
        target: usize,
    },
    /// A matrix in the snapshot has a different shape than its target.
    ShapeMismatch {
        /// Index of the offending matrix.
        index: usize,
        /// Shape found in the snapshot.
        snapshot: (usize, usize),
        /// Shape the model expects.
        target: (usize, usize),
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Decode(e) => write!(f, "checkpoint decode: {e}"),
            CheckpointError::CountMismatch { snapshot, target } => {
                write!(
                    f,
                    "checkpoint holds {snapshot} matrices, model has {target}"
                )
            }
            CheckpointError::ShapeMismatch {
                index,
                snapshot,
                target,
            } => write!(
                f,
                "checkpoint matrix {index} is {snapshot:?}, model expects {target:?}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<DecodeError> for CheckpointError {
    fn from(e: DecodeError) -> Self {
        CheckpointError::Decode(e)
    }
}

/// Serialize `matrices` as a count followed by each encoded matrix.
pub fn snapshot(matrices: &[&Matrix]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.reserve(8);
    bytes::BufMut::put_u64_le(&mut buf, matrices.len() as u64);
    for m in matrices {
        encode_matrix(m, &mut buf);
    }
    buf.freeze()
}

/// Restore a snapshot produced by [`snapshot`] into `targets`.
///
/// The count and every shape must match exactly. The whole snapshot is
/// decoded and checked before the first write, so on error every target
/// is left untouched.
pub fn restore(snapshot: &Bytes, targets: &mut [&mut Matrix]) -> Result<(), CheckpointError> {
    let mut buf = snapshot.clone();
    if bytes::Buf::remaining(&buf) < 8 {
        return Err(CheckpointError::Decode(DecodeError::Truncated {
            needed: 8,
            available: bytes::Buf::remaining(&buf),
        }));
    }
    let count = bytes::Buf::get_u64_le(&mut buf) as usize;
    if count != targets.len() {
        return Err(CheckpointError::CountMismatch {
            snapshot: count,
            target: targets.len(),
        });
    }
    let mut decoded = Vec::with_capacity(count);
    for (i, t) in targets.iter().enumerate() {
        let m = decode_matrix(&mut buf)?;
        if m.shape() != t.shape() {
            return Err(CheckpointError::ShapeMismatch {
                index: i,
                snapshot: m.shape(),
                target: t.shape(),
            });
        }
        decoded.push(m);
    }
    for (t, m) in targets.iter_mut().zip(decoded) {
        **t = m;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_restores_values() {
        let mut a = Matrix::from_fn(2, 3, |i, j| (i + j) as f32);
        let mut b = Matrix::identity(4);
        let snap = snapshot(&[&a, &b]);
        let (va, vb) = (a.clone(), b.clone());
        a.fill_zero();
        b.fill_zero();
        restore(&snap, &mut [&mut a, &mut b]).unwrap();
        assert_eq!(a, va);
        assert_eq!(b, vb);
    }

    #[test]
    fn count_mismatch_is_rejected() {
        let snap = snapshot(&[&Matrix::zeros(1, 1)]);
        let mut x = Matrix::zeros(1, 1);
        let mut y = Matrix::zeros(1, 1);
        assert!(matches!(
            restore(&snap, &mut [&mut x, &mut y]),
            Err(CheckpointError::CountMismatch { .. })
        ));
    }

    #[test]
    fn shape_mismatch_leaves_params_untouched() {
        // The first matrix matches, the second does not: neither target
        // may change.
        let snap = snapshot(&[&Matrix::full(1, 2, 5.0), &Matrix::full(2, 2, 7.0)]);
        let mut first = Matrix::zeros(1, 2);
        let mut second = Matrix::full(3, 3, 1.0);
        assert!(matches!(
            restore(&snap, &mut [&mut first, &mut second]),
            Err(CheckpointError::ShapeMismatch { index: 1, .. })
        ));
        assert_eq!(first, Matrix::zeros(1, 2));
        assert_eq!(second, Matrix::full(3, 3, 1.0));
    }

    #[test]
    fn snapshot_length_is_header_plus_matrices() {
        // A snapshot of one 1x1 matrix is the 8-byte count header plus
        // one encoded matrix.
        let a = Matrix::zeros(1, 1);
        let single = snapshot(&[&a]).len();
        let double = snapshot(&[&a, &a]).len();
        assert_eq!(double - single, single - 8);
    }
}
