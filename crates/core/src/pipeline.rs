//! End-to-end experiment runner: data preparation → trainset selection →
//! training → evaluation, with the paper's repeated-runs protocol.

use crate::config::ExperimentConfig;
use crate::encode::EncodedDataset;
use crate::eval::{aggregate, EmptySample, Metrics, Summary};
use crate::model::AnyModel;
use crate::sampling;
use crate::train::{train_model, History};
use etsb_table::{CellFrame, Table, TableError};
use etsb_tensor::init::seeded_rng;
use std::time::Duration;

/// Result of one experiment repetition.
#[derive(Debug)]
pub struct RunResult {
    /// Testset metrics at the checkpointed weights.
    pub metrics: Metrics,
    /// Per-epoch training history (Figures 6–7 material).
    pub history: History,
    /// Wall-clock time of the training work only (Table 5 material):
    /// shuffling, batch updates, optimizer steps and checkpointing.
    /// Mid-training curve evaluations (`eval_every` passes,
    /// `track_train_acc`) are excluded — see [`History::train_duration`].
    pub train_time: Duration,
    /// The labelled tuples the sampler selected.
    pub sample: Vec<usize>,
}

/// Result of `n` repetitions with different seeds.
#[derive(Debug)]
pub struct RepeatedResult {
    /// Per-repetition results.
    pub runs: Vec<RunResult>,
    /// Precision mean ± std across runs.
    pub precision: Summary,
    /// Recall mean ± std across runs.
    pub recall: Summary,
    /// F1 mean ± std across runs.
    pub f1: Summary,
    /// Training-time summary in seconds.
    pub train_secs: Summary,
}

/// Run one repetition on a dirty/clean table pair. `rep` offsets the
/// configured seed, implementing the paper's "validated the models 10
/// times" protocol (`seed + rep` per repetition).
pub fn run_once(
    dirty: &Table,
    clean: &Table,
    cfg: &ExperimentConfig,
    rep: u64,
) -> Result<RunResult, TableError> {
    let frame = CellFrame::merge(dirty, clean)?;
    Ok(run_once_on_frame(&frame, cfg, rep))
}

/// Like [`run_once`], for callers that already merged the frame.
pub fn run_once_on_frame(frame: &CellFrame, cfg: &ExperimentConfig, rep: u64) -> RunResult {
    let _rep_span = etsb_obs::obs_span!("repetition", "rep" => rep as i64);
    let seed = cfg.seed.wrapping_add(rep);
    let data = {
        let _span = etsb_obs::obs_span!(
            "data_prep",
            "tuples" => frame.n_tuples(),
            "attrs" => frame.n_attrs(),
        );
        EncodedDataset::from_frame(frame)
    };
    let sample = {
        let _span = etsb_obs::obs_span!(
            "sampling",
            "sampler" => cfg.sampler.name(),
            "budget" => cfg.n_label_tuples,
        );
        sampling::select(cfg.sampler, frame, cfg.n_label_tuples, seed)
    };
    run_with_sample(&data, &sample, cfg, seed)
}

/// Lowest-level entry: run with a caller-supplied labelled-tuple set (the
/// ablation benches use this to isolate the sampler's contribution).
pub fn run_with_sample(
    data: &EncodedDataset,
    sample: &[usize],
    cfg: &ExperimentConfig,
    seed: u64,
) -> RunResult {
    let (train_cells, test_cells) = data.split_by_tuples(sample);
    let mut rng = seeded_rng(seed);
    let mut model = AnyModel::new(cfg.model, data, &cfg.train, &mut rng);

    let history = train_model(
        &mut model,
        data,
        &train_cells,
        &test_cells,
        &cfg.train,
        seed,
    );
    // Training time is accounted inside the loop itself, so mid-training
    // curve evaluations never inflate the Table-5 numbers.
    let train_time = history.train_duration;

    let _eval_span = etsb_obs::obs_span!("final_eval", "test_cells" => test_cells.len());
    let preds = model.predict(data, &test_cells);
    let labels = data.labels_of(&test_cells);
    let metrics = Metrics::from_predictions(&preds, &labels);
    etsb_obs::obs_event!(
        "eval",
        "precision" => metrics.precision,
        "recall" => metrics.recall,
        "f1" => metrics.f1,
    );
    RunResult {
        metrics,
        history,
        train_time,
        sample: sample.to_vec(),
    }
}

/// Error from [`run_repeated`]: bad input tables, or zero repetitions.
#[derive(Debug)]
pub enum PipelineError {
    /// The dirty/clean tables could not be merged into a cell frame.
    Table(TableError),
    /// `n_runs == 0`: there are no results to aggregate.
    NoRuns(EmptySample),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Table(e) => write!(f, "pipeline: {e}"),
            PipelineError::NoRuns(e) => write!(f, "pipeline: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<TableError> for PipelineError {
    fn from(e: TableError) -> Self {
        PipelineError::Table(e)
    }
}

impl From<EmptySample> for PipelineError {
    fn from(e: EmptySample) -> Self {
        PipelineError::NoRuns(e)
    }
}

/// The paper's repeated protocol: `n_runs` repetitions with seeds
/// `cfg.seed .. cfg.seed + n_runs`, aggregated to mean ± std.
pub fn run_repeated(
    dirty: &Table,
    clean: &Table,
    cfg: &ExperimentConfig,
    n_runs: usize,
) -> Result<RepeatedResult, PipelineError> {
    let frame = CellFrame::merge(dirty, clean)?;
    let runs: Vec<RunResult> = (0..n_runs as u64)
        .map(|rep| run_once_on_frame(&frame, cfg, rep))
        .collect();
    let metrics: Vec<Metrics> = runs.iter().map(|r| r.metrics).collect();
    let (precision, recall, f1) = aggregate(&metrics)?;
    let secs: Vec<f64> = runs.iter().map(|r| r.train_time.as_secs_f64()).collect();
    Ok(RepeatedResult {
        runs,
        precision,
        recall,
        f1,
        train_secs: Summary::of(&secs)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelKind, SamplerKind, TrainConfig};

    /// A dataset whose errors carry an unmistakable marker, so even a
    /// short training run detects them.
    fn marked_pair(n: usize) -> (Table, Table) {
        let mut dirty = Table::with_columns(&["v", "w"]);
        let mut clean = Table::with_columns(&["v", "w"]);
        for i in 0..n {
            let v = format!("item{}", i % 6);
            let w = format!("{}", 100 + (i % 9));
            if i % 4 == 0 {
                dirty.push_row(vec![format!("{v}##"), w.clone()]);
            } else {
                dirty.push_row(vec![v.clone(), w.clone()]);
            }
            clean.push_row(vec![v, w]);
        }
        (dirty, clean)
    }

    fn quick_cfg() -> ExperimentConfig {
        ExperimentConfig {
            model: ModelKind::Tsb,
            sampler: SamplerKind::DiverSet,
            n_label_tuples: 12,
            train: TrainConfig {
                epochs: 30,
                rnn_units: 8,
                attr_rnn_units: 3,
                head_dim: 8,
                length_dense_dim: 4,
                learning_rate: 3e-3,
                eval_every: 10,
                curve_subsample: 50,
                ..Default::default()
            },
            seed: 5,
        }
    }

    #[test]
    fn end_to_end_detects_marked_errors() {
        let (dirty, clean) = marked_pair(80);
        let result = run_once(&dirty, &clean, &quick_cfg(), 0).unwrap();
        assert!(
            result.metrics.f1 > 0.8,
            "end-to-end F1 {:.2} too low (p={:.2}, r={:.2})",
            result.metrics.f1,
            result.metrics.precision,
            result.metrics.recall
        );
        assert_eq!(result.sample.len(), 12);
        assert!(result.train_time > Duration::ZERO);
    }

    #[test]
    fn repeated_runs_aggregate() {
        let (dirty, clean) = marked_pair(60);
        let mut cfg = quick_cfg();
        cfg.train.epochs = 12;
        let rep = run_repeated(&dirty, &clean, &cfg, 2).unwrap();
        assert_eq!(rep.runs.len(), 2);
        assert_eq!(rep.f1.n, 2);
        assert!(rep.f1.mean <= 1.0 && rep.f1.mean >= 0.0);
        assert!(rep.train_secs.mean > 0.0);
    }

    #[test]
    fn etsb_works_end_to_end_too() {
        let (dirty, clean) = marked_pair(60);
        let mut cfg = quick_cfg();
        cfg.model = ModelKind::Etsb;
        cfg.train.epochs = 20;
        let result = run_once(&dirty, &clean, &cfg, 0).unwrap();
        assert!(result.metrics.f1 > 0.6, "ETSB F1 {:.2}", result.metrics.f1);
    }

    #[test]
    fn shape_mismatch_propagates() {
        let (dirty, _) = marked_pair(10);
        let clean = Table::with_columns(&["v", "w"]);
        assert!(run_once(&dirty, &clean, &quick_cfg(), 0).is_err());
    }
}
