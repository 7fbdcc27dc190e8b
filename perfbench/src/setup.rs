//! Seeded shared setup: dataset pairs generated through `etsb-datasets`
//! and the paper-size ETSB-RNN detector trained on them the way
//! `etsb detect` trains it.

use etsb_core::config::{ExperimentConfig, TrainConfig};
use etsb_core::manifest::DatasetInfo;
use etsb_core::model::{owned_memo_key, AnyModel};
use etsb_core::train::{train_model, History};
use etsb_core::{sampling, EncodedDataset, KernelPolicy};
use etsb_datasets::{Dataset, DatasetPair, GenConfig};
use etsb_table::CellFrame;
use etsb_tensor::init::seeded_rng;
use std::collections::HashSet;
use std::time::Instant;

/// Seed of the `k`-th independent input of a run (splitmix64 of the run
/// seed), so one `--seed` fixes every generated table.
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The paper's ETSB-RNN (64 units, embedding width equal to the value
/// dictionary, exact training, DiverSet with 20 labelled tuples) at the
/// CLI's cadence (`eval_every` 20, train accuracy tracked).
pub fn experiment(seed: u64, epochs: usize) -> ExperimentConfig {
    ExperimentConfig {
        train: TrainConfig {
            epochs,
            eval_every: 20,
            ..TrainConfig::default()
        },
        seed,
        ..ExperimentConfig::default()
    }
}

/// Generate one dataset pair.
pub fn generate(dataset: Dataset, scale: f64, seed: u64) -> Result<DatasetPair, String> {
    dataset
        .generate(&GenConfig { scale, seed })
        .map_err(|e| format!("generating {dataset}: {e}"))
}

/// Manifest entry for a generated pair.
pub fn info(label: &str, pair: &DatasetPair) -> DatasetInfo {
    DatasetInfo::from_shape(label, pair.dirty.shape())
}

/// A detector trained on one pair, with its encoding and split.
#[derive(Debug)]
pub struct Detector {
    pub model: AnyModel,
    pub data: EncodedDataset,
    pub test_cells: Vec<usize>,
    pub history: History,
}

/// Merge, encode, pick the labelled tuples and train — the first half of
/// `etsb detect`.
pub fn train_detector(pair: &DatasetPair, cfg: &ExperimentConfig) -> Result<Detector, String> {
    let frame = CellFrame::merge(&pair.dirty, &pair.clean).map_err(|e| e.to_string())?;
    let data = EncodedDataset::from_frame(&frame);
    let sample = sampling::select(cfg.sampler, &frame, cfg.n_label_tuples, cfg.seed);
    let (train_cells, test_cells) = data.split_by_tuples(&sample);
    let mut model = AnyModel::new(cfg.model, &data, &cfg.train, &mut seeded_rng(cfg.seed));
    let history = train_model(
        &mut model,
        &data,
        &train_cells,
        &test_cells,
        &cfg.train,
        cfg.seed,
    );
    Ok(Detector {
        model,
        data,
        test_cells,
        history,
    })
}

/// Distinct cells timed by [`forward_us_per_cell`].
const FORWARD_SAMPLE: usize = 2000;

/// Forward cost per cell under `policy`: `predict_probs_direct_with`
/// (no memo, no cache) over the first 2,000 distinct cells of the
/// detector's own table; the median of five calls.
pub fn forward_us_per_cell(det: &Detector, policy: KernelPolicy) -> f64 {
    let mut seen = HashSet::new();
    let cells: Vec<usize> = (0..det.data.n_cells())
        .filter(|&c| seen.insert(owned_memo_key(&det.data, c)))
        .take(FORWARD_SAMPLE)
        .collect();
    let per_cell: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(
                det.model
                    .predict_probs_direct_with(&det.data, &cells, policy),
            );
            t.elapsed().as_secs_f64() * 1e6 / cells.len() as f64
        })
        .collect();
    crate::stats::median(&per_cell)
}

/// Run `setup` `times` times, timing each; each result is dropped
/// before the next run starts. Returns every duration in seconds and the
/// last result.
pub fn repeated<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    last.map(|v| (secs, v))
        .ok_or_else(|| "setup never ran".to_string())
}
