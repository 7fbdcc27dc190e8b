//! **Ablation B**: which of ETSB-RNN's enrichment inputs (§4.3.2) earns
//! its keep? Four conditions on every dataset:
//!
//! * `TSB` — characters only (the baseline architecture),
//! * `ETSB-attr` — ETSB with the attribute ids collapsed to a constant,
//! * `ETSB-len` — ETSB with `length_norm` zeroed,
//! * `ETSB` — the full enriched model.
//!
//! Input ablation (feeding a constant) keeps parameter counts identical,
//! so differences measure the information, not the capacity.
//!
//! ```text
//! cargo run --release -p etsb-bench --bin ablation_inputs -- --runs 3
//! ```

use etsb_bench::harness::{footnote, prepare_dataset, progress, ConsoleTable};
use etsb_bench::{experiment_config, fmt, parse_args, write_outputs};
use etsb_core::config::ModelKind;
use etsb_core::eval::{aggregate, Metrics, Summary};
use etsb_core::pipeline::run_with_sample;
use etsb_core::{sampling, EncodedDataset};
use etsb_table::CellFrame;

#[derive(Clone, Copy, PartialEq)]
enum Condition {
    Tsb,
    EtsbNoAttr,
    EtsbNoLen,
    EtsbFull,
}

impl Condition {
    const ALL: [Condition; 4] = [
        Condition::Tsb,
        Condition::EtsbNoAttr,
        Condition::EtsbNoLen,
        Condition::EtsbFull,
    ];

    fn name(self) -> &'static str {
        match self {
            Condition::Tsb => "TSB",
            Condition::EtsbNoAttr => "ETSB-attr",
            Condition::EtsbNoLen => "ETSB-len",
            Condition::EtsbFull => "ETSB",
        }
    }
}

fn run_condition(
    cond: Condition,
    frame: &CellFrame,
    data: &EncodedDataset,
    args: &etsb_bench::BenchArgs,
) -> Summary {
    let kind = if cond == Condition::Tsb {
        ModelKind::Tsb
    } else {
        ModelKind::Etsb
    };
    let cfg = experiment_config(args, kind);
    // Ablate by constant-feeding the input in question.
    let mut ablated = data.clone();
    match cond {
        Condition::EtsbNoAttr => ablated.attr_ids.iter_mut().for_each(|a| *a = 0),
        Condition::EtsbNoLen => ablated.length_norms.iter_mut().for_each(|l| *l = 0.0),
        _ => {}
    }
    let metrics: Vec<Metrics> = (0..args.runs as u64)
        .map(|rep| {
            let seed = cfg.seed.wrapping_add(rep);
            let sample = sampling::diver_set(frame, cfg.n_label_tuples, seed);
            run_with_sample(&ablated, &sample, &cfg, seed).metrics
        })
        .collect();
    aggregate(&metrics).expect("at least one run").2
}

fn main() {
    let args = parse_args();
    let table = ConsoleTable::new(&[-10, 9, 11, 10, 9]);
    table.row(&["dataset", "TSB", "ETSB-attr", "ETSB-len", "ETSB"]);
    let mut csv = String::from("dataset,condition,f1_mean,f1_sd,n\n");
    let mut datasets = Vec::new();
    for &ds in &args.datasets {
        let (frame, info) = prepare_dataset(&args, ds);
        datasets.push(info);
        let data = EncodedDataset::from_frame(&frame);
        let mut row = Vec::new();
        for cond in Condition::ALL {
            progress(ds, format!("{} x{}...", cond.name(), args.runs));
            let f1 = run_condition(cond, &frame, &data, &args);
            csv.push_str(&format!(
                "{},{},{:.4},{:.4},{}\n",
                ds.name(),
                cond.name(),
                f1.mean,
                f1.std,
                f1.n
            ));
            row.push(f1);
        }
        table.row(&[
            ds.name().to_string(),
            fmt(row[0].mean),
            fmt(row[1].mean),
            fmt(row[2].mean),
            fmt(row[3].mean),
        ]);
    }
    footnote("F1 means; ETSB-attr/-len feed a constant through that input path");
    let cfg = experiment_config(&args, ModelKind::Etsb);
    write_outputs(&args, &cfg, datasets, &csv);
}
