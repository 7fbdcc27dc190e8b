//! Compare the three trainset-selection algorithms of §4.2 on one
//! dataset: RandomSet (Alg. 1), RahaSet (Alg. 2) and DiverSet (Alg. 3).
//!
//! ```text
//! cargo run --release -p etsb-core --example sampling_comparison [dataset] [runs]
//! ```
//!
//! Prints, per sampler, how diverse the selected trainset is (distinct
//! attribute values covered, errors included) and the downstream F1 of a
//! short TSB-RNN training run — the experiment behind the paper's choice
//! of DiverSet.

use etsb_core::config::{ExperimentConfig, ModelKind, SamplerKind, TrainConfig};
use etsb_core::pipeline::run_with_sample;
use etsb_core::sampling;
use etsb_core::EncodedDataset;
use etsb_datasets::{Dataset, GenConfig};
use etsb_table::CellFrame;
use std::collections::HashSet;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let dataset = args
        .get(1)
        .map(|s| Dataset::parse(s).expect("dataset name"))
        .unwrap_or(Dataset::Beers);
    let runs: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(3);

    let pair = dataset
        .generate(&GenConfig {
            scale: 0.1,
            seed: 5,
        })
        .expect("dataset generation");
    let frame = CellFrame::merge(&pair.dirty, &pair.clean).expect("generated pair");
    let data = EncodedDataset::from_frame(&frame);
    println!(
        "{dataset}: {} tuples x {} attrs, error rate {:.3}\n",
        frame.n_tuples(),
        frame.n_attrs(),
        frame.error_rate()
    );
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8}",
        "sampler", "values", "errors", "F1", "±"
    );

    for kind in [
        SamplerKind::Random,
        SamplerKind::Raha,
        SamplerKind::DiverSet,
    ] {
        let mut f1s = Vec::new();
        let mut values = Vec::new();
        let mut errors = Vec::new();
        for rep in 0..runs {
            let sample = sampling::select(kind, &frame, 20, 100 + rep);

            // Trainset diversity: distinct (attribute, value) pairs.
            let distinct: HashSet<String> = sample
                .iter()
                .flat_map(|&t| frame.tuple(t).iter().map(|c| c.concat(frame.attrs())))
                .collect();
            values.push(distinct.len() as f64);
            let err_cells: usize = sample
                .iter()
                .map(|&t| frame.tuple(t).iter().filter(|c| c.label).count())
                .sum();
            errors.push(err_cells as f64);

            // Downstream model quality with this trainset.
            let cfg = ExperimentConfig {
                model: ModelKind::Tsb,
                sampler: kind,
                n_label_tuples: 20,
                train: TrainConfig {
                    epochs: 25,
                    rnn_units: 16,
                    head_dim: 16,
                    embed_dim: Some(24),
                    eval_every: 25,
                    curve_subsample: 100,
                    ..Default::default()
                },
                seed: 100 + rep,
            };
            let result = run_with_sample(&data, &sample, &cfg, 100 + rep);
            f1s.push(result.metrics.f1);
        }
        let f1 = etsb_core::eval::Summary::of(&f1s).expect("runs");
        let v = etsb_core::eval::Summary::of(&values).expect("runs");
        let e = etsb_core::eval::Summary::of(&errors).expect("runs");
        println!(
            "{:<10} {:>8.1} {:>8.1} {:>8.3} {:>8.3}",
            kind.name(),
            v.mean,
            e.mean,
            f1.mean,
            f1.std
        );
    }
    println!("\n(values = distinct attribute values covered by the 20 labelled tuples)");
}
