//! `train_hospital`: the in-memory `etsb detect` journey on Hospital at
//! paper size (1,000 × 20) — `CellFrame::merge`, `from_frame`, DiverSet
//! picking 20 tuples (400 training cells, batch 100), `train_model` at
//! the CLI's cadence and `predict_with` over the 19,600 held-out cells.
//!
//! The journey repeats on one table generated from `--seed` for as long
//! as the run lasts, at least twice, and every repeat must agree bit for
//! bit (the exact-training contract). In-memory detect hands every
//! verdict over when the journey ends, so a held-out cell's latency is
//! its journey's wall time: `p50_ms`/`p99_ms` are quantiles of journey
//! times (`p50_ms` is `train_s` in milliseconds).

use crate::metrics::{Outcome, WorkloadInfo};
use crate::setup::{self, derive_seed, experiment};
use crate::spans::{breakdown, Trace};
use crate::stats::{median, peak_rss_mib, quantile};
use crate::Args;
use etsb_core::config::{ExperimentConfig, TrainConfig};
use etsb_core::model::AnyModel;
use etsb_core::train::accuracy;
use etsb_core::{sampling, EncodedDataset, KernelPolicy, StreamMetrics};
use etsb_datasets::{Dataset, DatasetPair};
use etsb_nn::{Optimizer, Rmsprop};
use etsb_table::CellFrame;
use etsb_tensor::init::seeded_rng;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// Training epochs per journey (the CLI default is the paper's 120; at
/// ~130 ms per epoch a run holds six shorter journeys instead of one).
const EPOCHS: usize = 15;
/// Epochs of the warm-up journey in setup.
const WARMUP_EPOCHS: usize = 2;
const SETUP_REPEATS: usize = 3;

/// One measured journey.
struct Journey {
    secs: f64,
    predict_secs: f64,
    loss_bits: Vec<u32>,
    preds: Vec<bool>,
    counts: StreamMetrics,
    rows: usize,
    held_out: usize,
}

fn journey(pair: &DatasetPair, cfg: &ExperimentConfig) -> Result<Journey, String> {
    let t0 = Instant::now();
    let det = setup::train_detector(pair, cfg)?;
    let t1 = Instant::now();
    let preds = det
        .model
        .predict_with(&det.data, &det.test_cells, KernelPolicy::Exact);
    let t2 = Instant::now();
    let mut counts = StreamMetrics::new();
    for (&p, &cell) in preds.iter().zip(&det.test_cells) {
        counts.observe(p, det.data.labels[cell]);
    }
    Ok(Journey {
        secs: t2.duration_since(t0).as_secs_f64(),
        predict_secs: t2.duration_since(t1).as_secs_f64(),
        loss_bits: det.history.train_loss.iter().map(|l| l.to_bits()).collect(),
        counts,
        preds,
        rows: pair.dirty.n_rows(),
        held_out: det.test_cells.len(),
    })
}

/// Generate the run's table and pay thread start-up, allocator growth
/// and page faults with a short journey before anything is timed.
fn prepare(seed: u64) -> Result<(ExperimentConfig, DatasetPair), String> {
    let s = derive_seed(seed, 0);
    let pair = setup::generate(Dataset::Hospital, 1.0, s)?;
    journey(&pair, &experiment(s, WARMUP_EPOCHS))?;
    Ok((experiment(s, EPOCHS), pair))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (setup_secs, (cfg, pair)) = setup::repeated(SETUP_REPEATS, || prepare(args.seed))?;
    let info = WorkloadInfo {
        config: cfg.clone(),
        datasets: vec![setup::info("hospital", &pair)],
    };
    let mut out = Outcome::new(info);
    out.set("setup_s", median(&setup_secs));
    if args.trace {
        traced(&cfg, &pair, &mut out)?;
    } else {
        untraced(args, &cfg, &pair, &mut out)?;
    }
    Ok(out)
}

fn untraced(
    args: &Args,
    cfg: &ExperimentConfig,
    pair: &DatasetPair,
    out: &mut Outcome,
) -> Result<(), String> {
    let start = Instant::now();
    let mut runs: Vec<Journey> = Vec::new();
    while runs.len() < 2 || start.elapsed().as_secs_f64() < args.seconds {
        runs.push(journey(pair, cfg)?);
    }
    let first = &runs[0];
    let same = runs
        .iter()
        .filter(|r| r.loss_bits == first.loss_bits && r.preds == first.preds)
        .count();
    out.check(
        "exact_training",
        same == runs.len(),
        format!(
            "{same}/{} journeys bitwise identical (loss sequence of {} epochs, {} predictions)",
            runs.len(),
            first.loss_bits.len(),
            first.preds.len()
        ),
    );
    out.attempted = runs.len() as u64;
    out.failed = (runs.len() - same) as u64;

    let each = |f: &dyn Fn(&Journey) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
    out.set("train_s", median(&each(&|j| j.secs)));
    out.set(
        "cells_per_s",
        median(&each(&|j| j.held_out as f64 / j.predict_secs)),
    );
    out.set("max_rps", median(&each(&|j| j.rows as f64 / j.secs)));
    let latency_ms = each(&|j| j.secs * 1e3);
    out.set("p50_ms", quantile(&latency_ms, 0.50));
    out.set("p99_ms", quantile(&latency_ms, 0.99));
    out.set("peak_rss_mib", peak_rss_mib());
    if let Some(m) = first.counts.finish() {
        out.report.push(format!(
            "{} journeys; detection on {} held-out cells: precision {:.4} recall {:.4} F1 {:.4}",
            runs.len(),
            first.held_out,
            m.precision,
            m.recall,
            m.f1
        ));
    }
    Ok(())
}

/// Multiply-adds of one training epoch over `cells`, from the layer
/// shapes and the cells' true lengths, as FLOPs (two per multiply-add).
/// Backward is counted as twice the forward pass; embedding lookups,
/// activations and the loss are left out.
fn epoch_flops(data: &EncodedDataset, cells: &[usize], cfg: &TrainConfig) -> f64 {
    let embed = cfg.embed_dim.unwrap_or(data.char_index.vocab_size()) as f64;
    let (h, ha) = (cfg.rnn_units as f64, cfg.attr_rnn_units as f64);
    let attrs = data.attr_index.len().max(1) as f64;
    // Two directions × (layer 1: input + recurrent, layer 2: 2h input + recurrent).
    let step = |input: f64, hidden: f64| 2.0 * ((input + hidden) * hidden + 3.0 * hidden * hidden);
    let len_dense = cfg.length_dense_dim as f64;
    let head = (2.0 * h + 2.0 * ha + len_dense) * cfg.head_dim as f64 + 2.0 * cfg.head_dim as f64;
    let fixed = step(attrs, ha) + len_dense + head;
    let forward: f64 = cells
        .iter()
        .map(|&c| data.sequences[c].len() as f64 * step(embed, h) + fixed)
        .sum();
    2.0 * 3.0 * forward
}

/// The steps of `train_model`, called one by one with a span around
/// each: `train_batch`, `Rmsprop::step`, `clone_state`/`load_state` and
/// `accuracy`. Returns the per-epoch losses.
fn traced_train(
    tr: &mut Trace,
    model: &mut AnyModel,
    data: &EncodedDataset,
    train_cells: &[usize],
    test_cells: &[usize],
    cfg: &TrainConfig,
    seed: u64,
) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut opt = Rmsprop::new(cfg.learning_rate);
    let batch_size = (train_cells.len() / cfg.batch_divisor.max(1)).max(1);
    let curve_cells: Vec<usize> =
        if cfg.curve_subsample > 0 && test_cells.len() > cfg.curve_subsample {
            let mut shuffled = test_cells.to_vec();
            shuffled.shuffle(&mut rng);
            shuffled.truncate(cfg.curve_subsample);
            shuffled
        } else {
            test_cells.to_vec()
        };
    let mut order = train_cells.to_vec();
    let mut losses = Vec::with_capacity(cfg.epochs);
    let mut best_loss = f32::INFINITY;
    let mut best_epoch = 0;
    let mut eval_epochs = Vec::new();
    let s = tr.enter("train.checkpoint");
    let mut best_state = model.clone_state();
    tr.exit(s);
    let mut grads = model.grad_buffer();
    for epoch in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let (mut epoch_loss, mut seen) = (0.0_f32, 0usize);
        for batch in order.chunks(batch_size) {
            let s = tr.enter("model.train_batch");
            grads.zero();
            epoch_loss += model.train_batch(data, batch, &mut grads) * batch.len() as f32;
            tr.exit(s);
            seen += batch.len();
            let s = tr.enter("nn.optimizer_step");
            opt.step(&mut model.params_mut(), &grads);
            tr.exit(s);
        }
        epoch_loss /= seen.max(1) as f32;
        losses.push(epoch_loss);
        if epoch_loss < best_loss {
            best_loss = epoch_loss;
            best_epoch = epoch;
            let s = tr.enter("train.checkpoint");
            best_state = model.clone_state();
            tr.exit(s);
        }
        if cfg.track_train_acc {
            let s = tr.enter("train.eval");
            accuracy(model, data, train_cells);
            tr.exit(s);
        }
        if epoch % cfg.eval_every.max(1) == 0 || epoch + 1 == cfg.epochs {
            let s = tr.enter("train.eval");
            if accuracy(model, data, &curve_cells).is_some() {
                eval_epochs.push(epoch);
            }
            tr.exit(s);
        }
    }
    let s = tr.enter("train.checkpoint");
    model.load_state(&best_state);
    tr.exit(s);
    if !eval_epochs.contains(&best_epoch) {
        let s = tr.enter("train.eval");
        accuracy(model, data, &curve_cells);
        tr.exit(s);
    }
    losses
}

/// One journey with a span around every public call; returns the root
/// span, the losses, the predictions and the training FLOPs.
fn traced_journey(
    tr: &mut Trace,
    pair: &DatasetPair,
    cfg: &ExperimentConfig,
) -> Result<(usize, Vec<u32>, Vec<bool>, f64), String> {
    let root = tr.enter("journey");
    let s = tr.enter("encode.from_frame");
    let frame = CellFrame::merge(&pair.dirty, &pair.clean).map_err(|e| e.to_string())?;
    let data = EncodedDataset::from_frame(&frame);
    tr.exit(s);
    let s = tr.enter("sampling.select");
    let sample = sampling::select(cfg.sampler, &frame, cfg.n_label_tuples, cfg.seed);
    tr.exit(s);
    let s = tr.enter("model.init");
    let (train_cells, test_cells) = data.split_by_tuples(&sample);
    let mut model = AnyModel::new(cfg.model, &data, &cfg.train, &mut seeded_rng(cfg.seed));
    tr.exit(s);
    let s = tr.enter("train");
    let losses = traced_train(
        tr,
        &mut model,
        &data,
        &train_cells,
        &test_cells,
        &cfg.train,
        cfg.seed,
    );
    tr.exit(s);
    let s = tr.enter("model.predict");
    let preds = model.predict_with(&data, &test_cells, KernelPolicy::Exact);
    tr.exit(s);
    tr.exit(root);
    let flops = epoch_flops(&data, &train_cells, &cfg.train) * cfg.train.epochs as f64;
    Ok((
        root,
        losses.iter().map(|l| l.to_bits()).collect(),
        preds,
        flops,
    ))
}

/// Spans that group layers rather than time one public call.
const GROUPS: [&str; 2] = ["journey", "train"];

fn traced(cfg: &ExperimentConfig, pair: &DatasetPair, out: &mut Outcome) -> Result<(), String> {
    let mut tr = Trace::new();
    let (mut plain, mut traced, mut roots) = (Vec::new(), Vec::new(), Vec::new());
    let mut flops = 0.0;
    // Untraced and traced journeys alternate on the same table.
    for _ in 0..2 {
        let j = journey(pair, cfg)?;
        plain.push(j.secs);
        let (root, loss_bits, preds, f) = traced_journey(&mut tr, pair, cfg)?;
        traced.push(tr.span_ms(root) / 1e3);
        let same = j.loss_bits == loss_bits && j.preds == preds;
        out.check(
            "traced_matches_train_model",
            same,
            format!(
                "step-by-step replica reproduces train_model's {} losses and {} predictions bit for bit",
                loss_bits.len(),
                preds.len()
            ),
        );
        out.attempted += 2;
        out.failed += u64::from(!same);
        if let Some(m) = j.counts.finish() {
            out.set("eval.f1", m.f1);
        }
        roots.push(root);
        flops = f;
    }

    let layers = tr.rollup(&roots);
    let total = |name: &str| layers.get(name).map_or(0.0, |r| r.total_ms);
    out.set("encode.from_frame_ms", total("encode.from_frame"));
    out.set("sampling.select_ms", total("sampling.select"));
    out.set("model.train_batch_ms", total("model.train_batch"));
    out.set(
        "model.train_batches",
        layers
            .get("model.train_batch")
            .map_or(0.0, |r| r.count as f64),
    );
    out.set("nn.optimizer_step_ms", total("nn.optimizer_step"));
    out.set("train.checkpoint_ms", total("train.checkpoint"));
    out.set("train.eval_ms", total("train.eval"));
    out.set("model.predict_ms", total("model.predict"));
    out.set(
        "tensor.train_gflops",
        flops / (total("model.train_batch") / 1e3) / 1e9,
    );
    out.set(
        "obs.trace_overhead_share",
        (median(&traced) - median(&plain)) / median(&plain),
    );
    let (lines, accounted) = breakdown(&layers, total("journey"), &GROUPS);
    out.report.extend(lines);
    out.set("accounted_share", accounted);
    out.trace = Some(tr);
    Ok(())
}
