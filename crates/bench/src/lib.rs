//! # etsb-bench
//!
//! Harness regenerating every table and figure of the ETSB-RNN paper's
//! evaluation (§5). One binary per artifact:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table2` | dataset overview (size, error rate, alphabet, error types) |
//! | `table3` | P/R/F1 comparison: Raha, Rotom(+SSL), TSB-RNN, ETSB-RNN |
//! | `table4` | average F1 ± S.D. with/without Flights |
//! | `table5` | training time per dataset and model |
//! | `fig6`   | test-accuracy learning curves, TSB vs ETSB |
//! | `fig7`   | train vs test accuracy curves for ETSB |
//! | `ablation_sampling` | DiverSet vs RandomSet vs RahaSet (§5.2 claim) |
//! | `ablation_inputs`   | ETSB enrichment inputs ablated (§4.3 design) |
//!
//! Common flags: `--runs N` (repetitions; paper uses 10), `--scale F`
//! (dataset row-count multiplier), `--epochs N` (paper uses 120),
//! `--dataset NAME` (restrict to one dataset), `--out FILE` (also write
//! CSV), `--paper` (paper-faithful protocol: 10 runs, 120 epochs, full
//! scale except Tax).

#![warn(missing_docs)]

pub mod harness;

use etsb_core::config::{ExperimentConfig, ModelKind, SamplerKind, TrainConfig};
use etsb_datasets::{Dataset, GenConfig};

/// Parsed command-line options shared by all bench binaries.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Repetitions per (dataset, model) point.
    pub runs: usize,
    /// Dataset scale override (default: [`default_scale`]).
    pub scale: Option<f64>,
    /// Epoch override (default 120, the paper's protocol).
    pub epochs: Option<usize>,
    /// Restrict to these datasets (default: all six).
    pub datasets: Vec<Dataset>,
    /// Optional CSV output path.
    pub out: Option<String>,
    /// Base seed.
    pub seed: u64,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            runs: 3,
            scale: None,
            epochs: None,
            datasets: Dataset::ALL.to_vec(),
            out: None,
            seed: 42,
        }
    }
}

/// Parse `std::env::args()`. Unknown flags abort with usage help.
/// Also initializes the trace sink from `ETSB_TRACE`, so every bench
/// binary honors the tracing environment without extra wiring.
pub fn parse_args() -> BenchArgs {
    if let Err(e) = etsb_obs::init_from_env() {
        die(&e);
    }
    let mut args = BenchArgs::default();
    let mut iter = std::env::args().skip(1);
    let mut datasets: Vec<Dataset> = Vec::new();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .unwrap_or_else(|| die(&format!("{name} requires a value")))
        };
        match flag.as_str() {
            "--runs" => {
                args.runs = value("--runs")
                    .parse()
                    .unwrap_or_else(|_| die("bad --runs"))
            }
            "--scale" => {
                args.scale = Some(
                    value("--scale")
                        .parse()
                        .unwrap_or_else(|_| die("bad --scale")),
                )
            }
            "--epochs" => {
                args.epochs = Some(
                    value("--epochs")
                        .parse()
                        .unwrap_or_else(|_| die("bad --epochs")),
                )
            }
            "--seed" => {
                args.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| die("bad --seed"))
            }
            "--dataset" => {
                let name = value("--dataset");
                datasets.push(
                    Dataset::parse(&name)
                        .unwrap_or_else(|| die(&format!("unknown dataset {name}"))),
                );
            }
            "--out" => args.out = Some(value("--out")),
            "--paper" => {
                args.runs = 10;
                args.epochs = Some(120);
                args.scale = None;
            }
            "--help" | "-h" => {
                eprintln!(
                    "flags: --runs N --scale F --epochs N --dataset NAME (repeatable) \
                     --seed N --out FILE --paper"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    if !datasets.is_empty() {
        args.datasets = datasets;
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg} (try --help)");
    std::process::exit(2)
}

/// Default row-count scale per dataset: full size for the five small
/// datasets, 2.5% for Tax (5,000 rows) so the suite runs on a laptop.
/// `--scale 1.0` restores the paper's 200,000-row Tax.
pub fn default_scale(ds: Dataset) -> f64 {
    match ds {
        Dataset::Tax => 0.025,
        _ => 1.0,
    }
}

/// Generation config for a dataset under these args.
pub fn gen_config(args: &BenchArgs, ds: Dataset) -> GenConfig {
    GenConfig {
        scale: args.scale.unwrap_or_else(|| default_scale(ds)),
        seed: args.seed,
    }
}

/// Experiment config for a model under these args (paper defaults unless
/// overridden).
pub fn experiment_config(args: &BenchArgs, model: ModelKind) -> ExperimentConfig {
    let mut train = TrainConfig {
        eval_every: 5,
        // Per-epoch trainset accuracy is a pure evaluation cost; only the
        // fig7 overfitting curves need it and opt back in.
        track_train_acc: false,
        ..TrainConfig::default()
    };
    if let Some(e) = args.epochs {
        train.epochs = e;
    }
    ExperimentConfig {
        model,
        sampler: SamplerKind::DiverSet,
        n_label_tuples: 20,
        train,
        seed: args.seed,
    }
}

/// Write `contents` to `path` if `--out` was given, reporting the path.
pub fn maybe_write(out: &Option<String>, contents: &str) {
    if let Some(path) = out {
        std::fs::write(path, contents).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
        println!("\nwrote {path}");
    }
}

/// Write the results CSV (if `--out` was given) plus a run-manifest
/// sidecar (`<out stem>.manifest.json`) recording this invocation's
/// provenance: seed, config, resolved workers, version, features and the
/// datasets (with cell counts) it ran over.
pub fn write_outputs(
    args: &BenchArgs,
    cfg: &ExperimentConfig,
    datasets: Vec<etsb_core::DatasetInfo>,
    csv: &str,
) {
    maybe_write(&args.out, csv);
    if let Some(path) = &args.out {
        let manifest = etsb_core::RunManifest::new(cfg, args.runs, datasets);
        let mpath = etsb_core::RunManifest::sidecar_path(path);
        manifest
            .write(&mpath)
            .unwrap_or_else(|e| die(&format!("writing {mpath}: {e}")));
        println!("wrote {mpath}");
    }
}

/// The paper's published numbers, for side-by-side printing.
pub mod paper {
    use etsb_datasets::Dataset;

    /// Table 3: (precision, recall, F1) per dataset for Raha, and F1-only
    /// for Rotom / Rotom+SSL (the paper marks P/R as n/a).
    pub fn raha(ds: Dataset) -> Option<(f64, f64, f64)> {
        match ds {
            Dataset::Beers => Some((0.99, 0.99, 0.99)),
            Dataset::Flights => Some((0.82, 0.81, 0.81)),
            Dataset::Hospital => Some((0.94, 0.59, 0.72)),
            Dataset::Movies => Some((0.85, 0.88, 0.86)),
            Dataset::Rayyan => Some((0.81, 0.78, 0.79)),
            Dataset::Tax => Some((f64::NAN, f64::NAN, 0.91)),
        }
    }

    /// Table 3: Rotom F1 (paper reports no Flights number).
    pub fn rotom_f1(ds: Dataset) -> Option<f64> {
        match ds {
            Dataset::Beers => Some(0.99),
            Dataset::Flights => None,
            Dataset::Hospital => Some(1.00),
            Dataset::Movies => Some(0.68),
            Dataset::Rayyan => Some(0.86),
            Dataset::Tax => Some(0.97),
        }
    }

    /// Table 3: Rotom+SSL F1.
    pub fn rotom_ssl_f1(ds: Dataset) -> Option<f64> {
        match ds {
            Dataset::Beers => Some(0.99),
            Dataset::Flights => None,
            Dataset::Hospital => Some(1.00),
            Dataset::Movies => Some(0.54),
            Dataset::Rayyan => Some(0.76),
            Dataset::Tax => Some(1.00),
        }
    }

    /// Table 3: TSB-RNN (P, R, F1, F1 S.D.).
    pub fn tsb(ds: Dataset) -> (f64, f64, f64, f64) {
        match ds {
            Dataset::Beers => (0.99, 0.94, 0.96, 0.01),
            Dataset::Flights => (0.77, 0.63, 0.69, 0.02),
            Dataset::Hospital => (0.98, 0.95, 0.97, 0.01),
            Dataset::Movies => (0.96, 0.79, 0.87, 0.03),
            Dataset::Rayyan => (0.83, 0.73, 0.78, 0.05),
            Dataset::Tax => (0.83, 0.90, 0.85, 0.11),
        }
    }

    /// Table 3: ETSB-RNN (P, R, F1, F1 S.D.).
    pub fn etsb(ds: Dataset) -> (f64, f64, f64, f64) {
        match ds {
            Dataset::Beers => (1.00, 0.96, 0.98, 0.01),
            Dataset::Flights => (0.81, 0.68, 0.74, 0.02),
            Dataset::Hospital => (0.98, 0.95, 0.97, 0.02),
            Dataset::Movies => (0.96, 0.81, 0.88, 0.02),
            Dataset::Rayyan => (0.87, 0.83, 0.85, 0.03),
            Dataset::Tax => (0.82, 0.92, 0.86, 0.10),
        }
    }

    /// Table 5: training seconds (TSB avg, ETSB avg) on Colab.
    pub fn train_secs(ds: Dataset) -> (f64, f64) {
        match ds {
            Dataset::Beers => (92.0, 101.0),
            Dataset::Flights => (47.0, 54.0),
            Dataset::Hospital => (283.0, 287.0),
            Dataset::Movies => (302.0, 312.0),
            Dataset::Rayyan => (199.0, 209.0),
            Dataset::Tax => (176.0, 183.0),
        }
    }
}

/// Format a float or "n/a" for NaN.
pub fn fmt(v: f64) -> String {
    if v.is_nan() {
        "n/a".to_string()
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scales() {
        assert_eq!(default_scale(Dataset::Tax), 0.025);
        assert_eq!(default_scale(Dataset::Beers), 1.0);
    }

    #[test]
    fn paper_numbers_cover_all_datasets() {
        for ds in Dataset::ALL {
            let (_, _, f1, sd) = paper::etsb(ds);
            assert!(f1 > 0.0 && sd >= 0.0);
            assert!(paper::raha(ds).is_some());
            let (t, e) = paper::train_secs(ds);
            assert!(t > 0.0 && e >= t);
        }
    }

    #[test]
    fn fmt_handles_nan() {
        assert_eq!(fmt(f64::NAN), "n/a");
        assert_eq!(fmt(0.987), "0.99");
    }

    #[test]
    fn experiment_config_paper_defaults() {
        let args = BenchArgs::default();
        let cfg = experiment_config(&args, ModelKind::Etsb);
        assert_eq!(cfg.train.epochs, 120);
        assert_eq!(cfg.n_label_tuples, 20);
        assert!(!cfg.train.track_train_acc, "benches skip train-acc curves");
    }
}
