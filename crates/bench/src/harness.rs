//! Shared experiment driver and console plumbing for the bench binaries:
//! runs every system (Raha, Rotom, Rotom+SSL, TSB-RNN, ETSB-RNN) over the
//! requested datasets with the paper's repeated-runs protocol, and owns
//! the progress / table / output formatting every bin used to hand-roll.

use crate::{experiment_config, gen_config, BenchArgs};
use etsb_core::config::ModelKind;
use etsb_core::eval::{aggregate, Metrics, Summary};
use etsb_core::manifest::DatasetInfo;
use etsb_core::pipeline::run_once_on_frame;
use etsb_core::rotom::{RotomConfig, RotomDetector};
use etsb_core::EncodedDataset;
use etsb_datasets::Dataset;
use etsb_raha::RahaDetector;
use etsb_table::CellFrame;

/// Progress note on stderr — `[dataset] message` — mirrored into the
/// trace as an `event` when tracing is enabled.
pub fn progress(scope: impl std::fmt::Display, message: impl std::fmt::Display) {
    eprintln!("[{scope}] {message}");
    etsb_obs::obs_event!(
        "progress",
        "scope" => scope.to_string(),
        "message" => message.to_string(),
    );
}

/// Section header on stdout: a blank line and `=== title ===`.
pub fn section(title: impl std::fmt::Display) {
    println!("\n=== {title} ===");
}

/// Footnote on stdout: a blank line and the note in parentheses.
pub fn footnote(note: impl std::fmt::Display) {
    println!("\n({note})");
}

/// Fixed-width console table. Column widths are signed: negative widths
/// left-align (labels), positive widths right-align (numbers) — the
/// convention every bench table shares.
#[derive(Clone, Debug)]
pub struct ConsoleTable {
    cols: Vec<isize>,
}

impl ConsoleTable {
    /// Table with the given signed column widths.
    pub fn new(cols: &[isize]) -> ConsoleTable {
        ConsoleTable {
            cols: cols.to_vec(),
        }
    }

    /// Format one row. Cells beyond the column spec pass through
    /// unpadded (used for trailing annotations).
    pub fn line<S: AsRef<str>>(&self, cells: &[S]) -> String {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            match self.cols.get(i) {
                Some(&w) if w < 0 => {
                    out.push_str(&format!("{:<width$}", cell.as_ref(), width = (-w) as usize));
                }
                Some(&w) => {
                    out.push_str(&format!("{:>width$}", cell.as_ref(), width = w as usize));
                }
                None => out.push_str(cell.as_ref()),
            }
        }
        // Left-aligned final columns pad with trailing spaces; trim them.
        out.trim_end().to_string()
    }

    /// Print one row to stdout.
    pub fn row<S: AsRef<str>>(&self, cells: &[S]) {
        println!("{}", self.line(cells));
    }
}

/// Generate and merge one dataset under these args, with a progress
/// note; returns the frame plus its shape record for the run manifest.
pub fn prepare_dataset(args: &BenchArgs, ds: Dataset) -> (CellFrame, DatasetInfo) {
    let cfg = gen_config(args, ds);
    progress(ds, format!("generating (scale {})...", cfg.scale));
    let pair = ds.generate(&cfg).expect("dataset generation");
    let frame = CellFrame::merge(&pair.dirty, &pair.clean).expect("generated pair");
    let info = DatasetInfo::from_shape(ds.name(), pair.dirty.shape());
    (frame, info)
}

/// Systems compared in Table 3, in the paper's row order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// Raha baseline (reimplemented).
    Raha,
    /// Rotom-style augmentation baseline.
    Rotom,
    /// Rotom with the self-training pass.
    RotomSsl,
    /// The paper's TSB-RNN.
    Tsb,
    /// The paper's ETSB-RNN.
    Etsb,
}

impl System {
    /// All systems in table order.
    pub const ALL: [System; 5] = [
        System::Raha,
        System::Rotom,
        System::RotomSsl,
        System::Tsb,
        System::Etsb,
    ];

    /// Row label.
    pub fn name(self) -> &'static str {
        match self {
            System::Raha => "Raha*",
            System::Rotom => "Rotom*",
            System::RotomSsl => "Rotom+SSL*",
            System::Tsb => "TSB-RNN",
            System::Etsb => "ETSB-RNN",
        }
    }
}

/// One (system, dataset) measurement: P/R/F1 summaries over runs.
#[derive(Clone, Debug)]
pub struct Point {
    /// System measured.
    pub system: System,
    /// Dataset measured on.
    pub dataset: Dataset,
    /// Precision over runs.
    pub precision: Summary,
    /// Recall over runs.
    pub recall: Summary,
    /// F1 over runs.
    pub f1: Summary,
}

/// Run one system on one already-merged dataset for `runs` repetitions.
pub fn run_system(
    system: System,
    frame: &CellFrame,
    args: &BenchArgs,
    runs: usize,
) -> (Summary, Summary, Summary) {
    let metrics: Vec<Metrics> = (0..runs as u64)
        .map(|rep| match system {
            System::Raha => {
                let detector = RahaDetector::default();
                let model = detector.fit(frame);
                let sample = model.sample_tuples(20, args.seed + rep);
                let preds = model.detect(frame, &sample);
                let labels: Vec<bool> = frame.cells().iter().map(|c| c.label).collect();
                Metrics::from_predictions(&preds, &labels)
            }
            System::Rotom | System::RotomSsl => {
                let data = EncodedDataset::from_frame(frame);
                let det = RotomDetector::new(RotomConfig {
                    self_training: system == System::RotomSsl,
                    ..RotomConfig::default()
                });
                let sample = etsb_core::sampling::diver_set(frame, 20, args.seed + rep);
                let preds = det.detect(frame, &data, &sample, args.seed + rep);
                let labels: Vec<bool> = frame.cells().iter().map(|c| c.label).collect();
                Metrics::from_predictions(&preds, &labels)
            }
            System::Tsb | System::Etsb => {
                let kind = if system == System::Tsb {
                    ModelKind::Tsb
                } else {
                    ModelKind::Etsb
                };
                let cfg = experiment_config(args, kind);
                run_once_on_frame(frame, &cfg, rep).metrics
            }
        })
        .collect();
    aggregate(&metrics).expect("at least one run")
}

/// Run every requested system over every requested dataset; returns the
/// measurements plus the dataset shape records for the run manifest.
pub fn run_comparison(args: &BenchArgs, systems: &[System]) -> (Vec<Point>, Vec<DatasetInfo>) {
    let mut points = Vec::new();
    let mut infos = Vec::new();
    for &ds in &args.datasets {
        let (frame, info) = prepare_dataset(args, ds);
        infos.push(info);
        for &system in systems {
            progress(ds, format!("running {} x{}...", system.name(), args.runs));
            let (precision, recall, f1) = run_system(system, &frame, args, args.runs);
            points.push(Point {
                system,
                dataset: ds,
                precision,
                recall,
                f1,
            });
        }
    }
    (points, infos)
}

/// Serialize points as CSV (`system,dataset,metric,mean,std,n`).
pub fn points_to_csv(points: &[Point]) -> String {
    let mut out = String::from("system,dataset,metric,mean,std,n\n");
    for p in points {
        for (metric, s) in [
            ("precision", p.precision),
            ("recall", p.recall),
            ("f1", p.f1),
        ] {
            out.push_str(&format!(
                "{},{},{metric},{:.4},{:.4},{}\n",
                p.system.name(),
                p.dataset.name(),
                s.mean,
                s.std,
                s.n
            ));
        }
    }
    out
}
