//! Evaluation: precision / recall / F1 per run, and the mean ± standard
//! deviation aggregation used in the paper's Tables 3 and 4.

use serde::Serialize;

/// Binary-classification metrics over cell predictions (`true` = error).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Metrics {
    /// True positives, false positives, false negatives, true negatives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
    /// True negatives.
    pub tn: usize,
    /// `tp / (tp + fp)` (1 when no positives were predicted and none exist).
    pub precision: f64,
    /// `tp / (tp + fn)`.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
    /// Fraction of correct predictions.
    pub accuracy: f64,
}

impl Metrics {
    /// Compute metrics from aligned prediction / label slices.
    ///
    /// # Panics
    /// If the slices differ in length or are empty.
    pub fn from_predictions(preds: &[bool], labels: &[bool]) -> Self {
        assert_eq!(
            preds.len(),
            labels.len(),
            "Metrics: {} preds vs {} labels",
            preds.len(),
            labels.len()
        );
        assert!(!preds.is_empty(), "Metrics: empty evaluation");
        let (mut tp, mut fp, mut fn_, mut tn) = (0usize, 0usize, 0usize, 0usize);
        for (&p, &l) in preds.iter().zip(labels) {
            match (p, l) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fn_ += 1,
                (false, false) => tn += 1,
            }
        }
        Self::from_counts(tp, fp, fn_, tn)
    }

    /// Compute metrics from a raw confusion matrix.
    ///
    /// The ratios are derived from the integer counts alone, so chunked
    /// evaluation that accumulates `tp/fp/fn/tn` per chunk and finishes
    /// through this constructor is bitwise identical to a single
    /// [`Metrics::from_predictions`] call over the whole cell stream.
    ///
    /// # Panics
    /// If all four counts are zero (an empty evaluation).
    pub fn from_counts(tp: usize, fp: usize, fn_: usize, tn: usize) -> Self {
        let total = tp + fp + fn_ + tn;
        assert!(total > 0, "Metrics: empty evaluation");
        let precision = if tp + fp == 0 {
            if tp + fn_ == 0 {
                1.0
            } else {
                0.0
            }
        } else {
            tp as f64 / (tp + fp) as f64
        };
        let recall = if tp + fn_ == 0 {
            1.0
        } else {
            tp as f64 / (tp + fn_) as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        let accuracy = (tp + tn) as f64 / total as f64;
        Self {
            tp,
            fp,
            fn_,
            tn,
            precision,
            recall,
            f1,
            accuracy,
        }
    }
}

/// Error: a mean/std aggregation was asked for zero samples.
///
/// Returned instead of silently producing `NaN` summaries, which used to
/// flow into reports and CSVs unnoticed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EmptySample;

impl std::fmt::Display for EmptySample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("cannot summarize an empty sample (no runs to aggregate)")
    }
}

impl std::error::Error for EmptySample {}

/// Mean and (population) standard deviation of a sequence of values —
/// the paper reports both for its 10-repetition protocol.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Number of values aggregated (always at least 1).
    pub n: usize,
}

impl Summary {
    /// Summarize a slice of values; an empty slice is an [`EmptySample`]
    /// error, never a `NaN` summary.
    pub fn of(values: &[f64]) -> Result<Self, EmptySample> {
        let n = values.len();
        if n == 0 {
            return Err(EmptySample);
        }
        // Both reductions below are pinned by construction, not by a
        // kernel.
        // etsb: allow(float-reduce-order) -- sequential f64 sum over an already-ordered slice.
        let mean = values.iter().sum::<f64>() / n as f64;
        // etsb: allow(float-reduce-order) -- same pinned sequential order.
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        Ok(Self {
            mean,
            std: var.sqrt(),
            n,
        })
    }

    /// Half-width of the 95% normal confidence interval of the mean
    /// (`1.96 · std / sqrt(n)`) — used for the paper's Figure 6/7 bands.
    pub fn ci95(&self) -> f64 {
        1.96 * self.std / (self.n.max(1) as f64).sqrt()
    }
}

/// Aggregate per-run metrics into (precision, recall, F1) summaries;
/// an empty run set is an [`EmptySample`] error.
pub fn aggregate(runs: &[Metrics]) -> Result<(Summary, Summary, Summary), EmptySample> {
    let p: Vec<f64> = runs.iter().map(|m| m.precision).collect();
    let r: Vec<f64> = runs.iter().map(|m| m.recall).collect();
    let f: Vec<f64> = runs.iter().map(|m| m.f1).collect();
    Ok((Summary::of(&p)?, Summary::of(&r)?, Summary::of(&f)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let m = Metrics::from_predictions(&[true, false, true], &[true, false, true]);
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.f1, 1.0);
        assert_eq!(m.accuracy, 1.0);
    }

    #[test]
    fn known_confusion_matrix() {
        // tp=2, fp=1, fn=1, tn=1.
        let preds = [true, true, true, false, false];
        let labels = [true, true, false, true, false];
        let m = Metrics::from_predictions(&preds, &labels);
        assert_eq!((m.tp, m.fp, m.fn_, m.tn), (2, 1, 1, 1));
        assert!((m.precision - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.recall - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.f1 - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.accuracy - 0.6).abs() < 1e-12);
    }

    #[test]
    fn all_negative_predictions_with_errors_present() {
        let m = Metrics::from_predictions(&[false, false], &[true, false]);
        assert_eq!(m.precision, 0.0);
        assert_eq!(m.recall, 0.0);
        assert_eq!(m.f1, 0.0);
    }

    #[test]
    fn no_errors_and_no_positive_predictions_is_perfect() {
        let m = Metrics::from_predictions(&[false, false], &[false, false]);
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
    }

    #[test]
    fn from_counts_matches_from_predictions() {
        let preds = [true, true, true, false, false];
        let labels = [true, true, false, true, false];
        let whole = Metrics::from_predictions(&preds, &labels);
        let counted = Metrics::from_counts(whole.tp, whole.fp, whole.fn_, whole.tn);
        assert_eq!(whole.precision.to_bits(), counted.precision.to_bits());
        assert_eq!(whole.recall.to_bits(), counted.recall.to_bits());
        assert_eq!(whole.f1.to_bits(), counted.f1.to_bits());
        assert_eq!(whole.accuracy.to_bits(), counted.accuracy.to_bits());
    }

    #[test]
    #[should_panic(expected = "empty evaluation")]
    fn from_counts_rejects_empty() {
        let _ = Metrics::from_counts(0, 0, 0, 0);
    }

    #[test]
    fn summary_mean_std() {
        let s = Summary::of(&[0.8, 0.9, 1.0]).expect("non-empty");
        assert!((s.mean - 0.9).abs() < 1e-12);
        assert!((s.std - (2.0f64 / 300.0).sqrt()).abs() < 1e-9);
        assert_eq!(s.n, 3);
        assert!(s.ci95() > 0.0);
    }

    #[test]
    fn summary_empty_is_an_error_not_nan() {
        assert_eq!(Summary::of(&[]), Err(EmptySample));
        assert!(aggregate(&[]).is_err());
    }

    #[test]
    fn aggregate_three_ways() {
        let runs = vec![
            Metrics::from_predictions(&[true, false], &[true, false]),
            Metrics::from_predictions(&[false, false], &[true, false]),
        ];
        let (p, r, f) = aggregate(&runs).expect("non-empty");
        assert_eq!(p.n, 2);
        assert!((r.mean - 0.5).abs() < 1e-12);
        assert!(f.mean < 1.0);
    }
}
