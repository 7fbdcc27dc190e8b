//! Determinism guarantees: every stochastic stage of the system is
//! seeded, so identical configurations must produce bit-identical runs —
//! the property the paper's 10-repetition protocol relies on.

use etsb_core::config::{ExperimentConfig, ModelKind, SamplerKind, TrainConfig};
use etsb_core::pipeline::run_once;
use etsb_core::sampling;
use etsb_core::KernelPolicy;
use etsb_datasets::{Dataset, GenConfig};
use etsb_table::CellFrame;

fn tiny_cfg() -> ExperimentConfig {
    ExperimentConfig {
        model: ModelKind::Etsb,
        sampler: SamplerKind::DiverSet,
        n_label_tuples: 10,
        train: TrainConfig {
            epochs: 6,
            rnn_units: 6,
            attr_rnn_units: 3,
            head_dim: 6,
            length_dense_dim: 4,
            embed_dim: Some(8),
            eval_every: 3,
            curve_subsample: 50,
            ..Default::default()
        },
        seed: 99,
    }
}

#[test]
fn identical_seeds_reproduce_identical_runs() {
    let pair = Dataset::Rayyan
        .generate(&GenConfig {
            scale: 0.05,
            seed: 11,
        })
        .expect("dataset generation");
    let a = run_once(&pair.dirty, &pair.clean, &tiny_cfg(), 0).unwrap();
    let b = run_once(&pair.dirty, &pair.clean, &tiny_cfg(), 0).unwrap();
    assert_eq!(a.sample, b.sample);
    assert_eq!(a.history.train_loss, b.history.train_loss);
    assert_eq!(a.metrics.tp, b.metrics.tp);
    assert_eq!(a.metrics.fp, b.metrics.fp);
}

#[test]
fn different_reps_differ() {
    let pair = Dataset::Rayyan
        .generate(&GenConfig {
            scale: 0.05,
            seed: 11,
        })
        .expect("dataset generation");
    let a = run_once(&pair.dirty, &pair.clean, &tiny_cfg(), 0).unwrap();
    let b = run_once(&pair.dirty, &pair.clean, &tiny_cfg(), 1).unwrap();
    // Different repetition → different sample (with overwhelming
    // probability on a 50-tuple dataset) and different training path.
    assert_ne!(a.history.train_loss, b.history.train_loss);
}

#[test]
fn samplers_are_deterministic_across_processes_conceptually() {
    // The samplers take explicit seeds, so the same inputs must give the
    // same outputs — repeatedly, and for every algorithm.
    let pair = Dataset::Beers
        .generate(&GenConfig {
            scale: 0.03,
            seed: 12,
        })
        .expect("dataset generation");
    let frame = CellFrame::merge(&pair.dirty, &pair.clean).unwrap();
    for kind in [
        SamplerKind::Random,
        SamplerKind::Raha,
        SamplerKind::DiverSet,
    ] {
        let a = sampling::select(kind, &frame, 15, 77);
        let b = sampling::select(kind, &frame, 15, 77);
        assert_eq!(a, b, "{kind:?} not deterministic");
    }
}

/// The tentpole guarantee of the batched-execution refactor: each fold
/// shard packs into one timestep-major batch, but shard boundaries are a
/// pure function of the batch size and shard buffers merge in a fixed
/// order, so the worker count cannot change a single bit of the result.
/// Run the full training loop with one, two and four workers and demand
/// identical loss curves, final weights and predictions.
#[test]
fn training_is_bitwise_identical_across_worker_counts() {
    use etsb_core::encode::EncodedDataset;
    use etsb_core::model::AnyModel;
    use etsb_core::train::train_model;
    use etsb_nn::parallel::set_worker_override;
    use etsb_tensor::init::seeded_rng;

    let pair = Dataset::Beers
        .generate(&GenConfig {
            scale: 0.03,
            seed: 14,
        })
        .expect("dataset generation");
    let frame = CellFrame::merge(&pair.dirty, &pair.clean).unwrap();
    let data = EncodedDataset::from_frame(&frame);
    let sample = sampling::diver_set(&frame, 10, 3);
    let (train, test) = data.split_by_tuples(&sample);
    let cfg = tiny_cfg().train;
    let cells: Vec<usize> = (0..data.n_cells()).collect();

    let run = |workers: usize| {
        set_worker_override(workers);
        let mut model = AnyModel::new(ModelKind::Etsb, &data, &cfg, &mut seeded_rng(31));
        let history = train_model(&mut model, &data, &train, &test, &cfg, 17);
        let probs = model.predict_probs_with(&data, &cells, KernelPolicy::Exact);
        set_worker_override(0);
        let weights: Vec<Vec<f32>> = model
            .params()
            .iter()
            .map(|p| p.value.as_slice().to_vec())
            .collect();
        (history, weights, probs)
    };

    let (h1, w1, p1) = run(1);
    for workers in [2, 4] {
        let (h, w, p) = run(workers);
        assert_eq!(
            h1.train_loss, h.train_loss,
            "loss curve depends on worker count ({workers})"
        );
        assert_eq!(h1.test_acc, h.test_acc);
        assert_eq!(h1.best_epoch, h.best_epoch);
        for (i, (a, b)) in w1.iter().zip(&w).enumerate() {
            assert!(
                a == b,
                "weights of param {i} differ between 1 and {workers} workers"
            );
        }
        assert_eq!(p1, p, "predictions differ between 1 and {workers} workers");
    }
}

/// Batched execution must be worker-invariant for *every* cell type —
/// vanilla, LSTM and GRU each take a distinct batched kernel path, and
/// each must produce the same losses, weights and predictions whether the
/// shards run serially or on four threads. (The batched-vs-oracle leg of
/// the equivalence suite, which replays the allocating per-sample
/// forward/backward one sample at a time, lives next to the model:
/// `model::tests::batched_train_matches_per_sample_reference_bitwise`
/// and the nn-level `batched_paths_are_bitwise_identical_to_per_sample_paths`.)
#[test]
fn batched_training_is_worker_invariant_for_every_cell_type() {
    use etsb_core::config::CellKind;
    use etsb_core::encode::EncodedDataset;
    use etsb_core::model::AnyModel;
    use etsb_core::train::train_model;
    use etsb_nn::parallel::set_worker_override;
    use etsb_tensor::init::seeded_rng;

    let pair = Dataset::Flights
        .generate(&GenConfig {
            scale: 0.04,
            seed: 22,
        })
        .expect("dataset generation");
    let frame = CellFrame::merge(&pair.dirty, &pair.clean).unwrap();
    let data = EncodedDataset::from_frame(&frame);
    let sample = sampling::diver_set(&frame, 8, 5);
    let (train, test) = data.split_by_tuples(&sample);
    let mut cfg = tiny_cfg().train;
    cfg.epochs = 2;
    let cells: Vec<usize> = (0..data.n_cells().min(120)).collect();

    for cell in [CellKind::Vanilla, CellKind::Lstm, CellKind::Gru] {
        cfg.cell = cell;
        let run = |workers: usize| {
            set_worker_override(workers);
            let mut model = AnyModel::new(ModelKind::Tsb, &data, &cfg, &mut seeded_rng(53));
            let history = train_model(&mut model, &data, &train, &test, &cfg, 29);
            let probs = model.predict_probs_with(&data, &cells, KernelPolicy::Exact);
            set_worker_override(0);
            let weights: Vec<Vec<f32>> = model
                .params()
                .iter()
                .map(|p| p.value.as_slice().to_vec())
                .collect();
            (history.train_loss, weights, probs)
        };
        let (l1, w1, p1) = run(1);
        for workers in [2, 4] {
            let (l, w, p) = run(workers);
            assert_eq!(l1, l, "{cell:?}: loss depends on worker count {workers}");
            assert_eq!(w1, w, "{cell:?}: weights depend on worker count {workers}");
            assert_eq!(
                p1, p,
                "{cell:?}: predictions depend on worker count {workers}"
            );
        }
    }
}

/// Exercises the sharded backward path under forced multi-threading; with
/// `--features sanitize` the per-layer NaN/Inf hooks run inside the
/// worker threads, which is exactly what `run_checks.sh` relies on.
#[test]
fn parallel_backward_stays_finite() {
    use etsb_core::encode::EncodedDataset;
    use etsb_core::model::AnyModel;
    use etsb_nn::parallel::set_worker_override;
    use etsb_tensor::init::seeded_rng;

    let pair = Dataset::Flights
        .generate(&GenConfig {
            scale: 0.05,
            seed: 15,
        })
        .expect("dataset generation");
    let frame = CellFrame::merge(&pair.dirty, &pair.clean).unwrap();
    let data = EncodedDataset::from_frame(&frame);
    let cfg = tiny_cfg().train;
    let mut model = AnyModel::new(ModelKind::Tsb, &data, &cfg, &mut seeded_rng(5));
    let batch: Vec<usize> = (0..data.n_cells().min(96)).collect();
    let mut grads = model.grad_buffer();

    set_worker_override(3);
    let loss = model.train_batch(&data, &batch, &mut grads);
    set_worker_override(0);

    assert!(loss.is_finite(), "batch loss not finite: {loss}");
    for i in 0..grads.len() {
        assert!(
            grads.slot(i).as_slice().iter().all(|v| v.is_finite()),
            "gradient slot {i} contains non-finite values"
        );
    }
}

/// The observability layer's core promise: tracing must never perturb
/// results. Run the same training twice — once with tracing off, once
/// with a live JSONL sink and two forced workers — and demand bitwise
/// identity, then check the trace itself is well-formed JSONL.
#[test]
fn training_is_bitwise_identical_with_tracing_on() {
    use etsb_core::encode::EncodedDataset;
    use etsb_core::model::AnyModel;
    use etsb_core::train::train_model;
    use etsb_nn::parallel::set_worker_override;
    use etsb_tensor::init::seeded_rng;

    let pair = Dataset::Rayyan
        .generate(&GenConfig {
            scale: 0.05,
            seed: 16,
        })
        .expect("dataset generation");
    let frame = CellFrame::merge(&pair.dirty, &pair.clean).unwrap();
    let data = EncodedDataset::from_frame(&frame);
    let sample = sampling::diver_set(&frame, 10, 4);
    let (train, test) = data.split_by_tuples(&sample);
    let cfg = tiny_cfg().train;

    let run = || {
        let mut model = AnyModel::new(ModelKind::Etsb, &data, &cfg, &mut seeded_rng(41));
        let history = train_model(&mut model, &data, &train, &test, &cfg, 23);
        let weights: Vec<Vec<f32>> = model
            .params()
            .iter()
            .map(|p| p.value.as_slice().to_vec())
            .collect();
        (history, weights)
    };

    let (h_off, w_off) = run();

    let path = std::env::temp_dir().join("etsb_determinism_trace.jsonl");
    let path = path.to_str().expect("utf-8 temp path");
    let sink = etsb_obs::JsonlSink::create(path).expect("temp trace file");
    etsb_obs::set_sink(Some(Box::new(sink)));
    set_worker_override(2);
    let (h_on, w_on) = run();
    set_worker_override(0);
    etsb_obs::set_sink(None);

    assert_eq!(
        h_off.train_loss, h_on.train_loss,
        "tracing changed the loss curve"
    );
    assert_eq!(h_off.test_acc, h_on.test_acc);
    assert_eq!(h_off.best_epoch, h_on.best_epoch);
    for (i, (a, b)) in w_off.iter().zip(&w_on).enumerate() {
        assert!(a == b, "weights of param {i} differ with tracing on");
    }

    let text = std::fs::read_to_string(path).expect("trace file readable");
    std::fs::remove_file(path).ok();
    assert!(!text.is_empty(), "tracing produced no events");
    for line in text.lines() {
        let parsed = etsb_obs::json::parse(line).expect("valid JSONL trace line");
        for key in ["ts_rel_us", "span", "kind", "fields"] {
            assert!(parsed.get(key).is_some(), "missing {key} in {line}");
        }
    }
}

/// The memoized prediction path (one forward pass per *unique* cell,
/// broadcast to duplicates) must be invisible in the output: bitwise
/// identical to the naive path, at any worker count, under both kernel
/// policies. Hospital repeats values heavily, so this exercises real
/// duplicate groups, including corrupted cells. The table is large
/// enough that every fold shard spans several prediction blocks, and a
/// sample of cells scored alone must match the batched result too: a
/// cell's bits depend neither on its block nor on its batch-mates.
#[test]
fn memoized_predict_is_bitwise_identical_to_direct() {
    use etsb_core::encode::EncodedDataset;
    use etsb_core::model::{memo_key, AnyModel, PREDICT_BLOCK};
    use etsb_nn::parallel::set_worker_override;
    use etsb_tensor::init::seeded_rng;
    use std::collections::HashSet;

    let pair = Dataset::Hospital
        .generate(&GenConfig {
            scale: 0.15,
            seed: 18,
        })
        .expect("dataset generation");
    let frame = CellFrame::merge(&pair.dirty, &pair.clean).unwrap();
    let data = EncodedDataset::from_frame(&frame);
    let cfg = tiny_cfg().train;
    let cells: Vec<usize> = (0..data.n_cells()).collect();
    // 16 fold shards of more than two blocks each: block boundaries fall
    // inside every shard.
    assert!(
        cells.len() > 16 * 2 * PREDICT_BLOCK,
        "{} cells do not split every shard into blocks",
        cells.len()
    );

    // The sample must actually contain duplicates (and corrupted cells)
    // for this test to mean anything.
    let unique: HashSet<_> = cells.iter().map(|&c| memo_key(&data, c)).collect();
    assert!(
        unique.len() < cells.len(),
        "hospital sample has no duplicate cells ({} unique of {})",
        unique.len(),
        cells.len()
    );
    assert!(data.labels.iter().any(|&l| l), "no corrupted cells in play");

    for kind in [ModelKind::Tsb, ModelKind::Etsb] {
        let model = AnyModel::new(kind, &data, &cfg, &mut seeded_rng(31));
        if kind == ModelKind::Etsb {
            // The length input must reach the head, or the ETSB arm
            // could not see a block mix up length rows (a ReLU length
            // dense whose weights all start negative zeroes it).
            let mut shifted = data.clone();
            for norm in &mut shifted.length_norms {
                *norm = 0.5;
            }
            assert_ne!(
                model.predict_probs_direct_with(&data, &cells, KernelPolicy::Exact),
                model.predict_probs_direct_with(&shifted, &cells, KernelPolicy::Exact),
                "the length input does not reach the head"
            );
        }
        for policy in [KernelPolicy::Exact, KernelPolicy::FastMath] {
            set_worker_override(1);
            let direct_1 = model.predict_probs_direct_with(&data, &cells, policy);
            let memo_1 = model.predict_probs_with(&data, &cells, policy);
            set_worker_override(4);
            let direct_4 = model.predict_probs_direct_with(&data, &cells, policy);
            let memo_4 = model.predict_probs_with(&data, &cells, policy);
            set_worker_override(0);
            assert_eq!(
                memo_1, direct_1,
                "{kind:?}/{policy:?}: memoization changed bits"
            );
            assert_eq!(
                direct_1, direct_4,
                "{kind:?}/{policy:?}: workers changed direct bits"
            );
            assert_eq!(
                memo_1, memo_4,
                "{kind:?}/{policy:?}: workers changed memoized bits"
            );
            for &cell in cells.iter().step_by(29) {
                let alone = model.predict_probs_direct_with(&data, &[cell], policy);
                assert_eq!(
                    alone[0].to_bits(),
                    direct_1[cell].to_bits(),
                    "{kind:?}/{policy:?}: cell {cell} scored alone differs from its block"
                );
            }
        }
    }
}

/// The memo key must compare the `length_norm` feature by bit pattern:
/// cells whose floats merely compare equal (`-0.0 == 0.0`) are *not*
/// merged, because the dense layer could in principle see the sign.
#[test]
fn memo_key_compares_length_norm_bits() {
    use etsb_core::encode::EncodedDataset;
    use etsb_core::model::memo_key;

    let pair = Dataset::Hospital
        .generate(&GenConfig {
            scale: 0.03,
            seed: 19,
        })
        .expect("dataset generation");
    let frame = CellFrame::merge(&pair.dirty, &pair.clean).unwrap();
    let mut data = EncodedDataset::from_frame(&frame);
    // Make cells 0 and 1 identical in every model input.
    data.sequences[1] = data.sequences[0].clone();
    let attr = data.attr_ids[0];
    data.attr_ids[1] = attr;
    data.length_norms[0] = 0.0;
    data.length_norms[1] = 0.0;
    assert_eq!(memo_key(&data, 0), memo_key(&data, 1));
    // Same comparison value, different bits: keys must differ.
    data.length_norms[1] = -0.0;
    assert_eq!(data.length_norms[0], data.length_norms[1]);
    assert_ne!(memo_key(&data, 0), memo_key(&data, 1));
    // And a genuinely different attribute also splits the key.
    data.length_norms[1] = 0.0;
    data.attr_ids[1] = attr + 1;
    assert_ne!(memo_key(&data, 0), memo_key(&data, 1));
}

#[test]
fn generator_determinism_extends_to_csv_round_trip() {
    // Serialize → parse → regenerate: everything must line up.
    let pair = Dataset::Hospital
        .generate(&GenConfig {
            scale: 0.05,
            seed: 13,
        })
        .expect("dataset generation");
    let text = etsb_table::csv::to_string(&pair.dirty);
    let parsed = etsb_table::csv::parse(&text).unwrap();
    assert_eq!(parsed, pair.dirty);
}

/// Two registries fed the same event stream render byte-identical
/// Prometheus expositions: name-sorted snapshots, integer accumulators
/// and a fixed text format leave no room for drift.
#[test]
fn registry_snapshots_are_byte_identical_across_runs() {
    use etsb_obs::registry::Registry;

    let run = || -> String {
        let registry = Registry::new();
        let c = registry.counter("events_total");
        let g = registry.gauge("level");
        let h = registry.histogram("work_ns");
        for i in 0..200u64 {
            c.inc();
            g.set(i as f64 / 3.0);
            h.record(i * 991);
        }
        etsb_obs::expo::render(&registry.snapshot())
    };
    assert_eq!(run(), run());
}

/// Golden bits of the Exact tier, for both architectures and every cell
/// kind: a small fixed training run plus exact predictions, folded into
/// one hash of the loss and probability bit patterns, and an FNV-1a 64
/// hash of the saved detector file, which pins the parameter order and
/// the file format. The vanilla ETSB training pin was computed before the
/// exact kernels were AVX2-dispatched and the libm tanh was replaced by
/// the in-repo port; the other rows were computed before TSB and ETSB
/// became one model type. They hold only if no later change moved a bit —
/// on the detected backend and under `ETSB_KERNELS=portable` alike.
/// Hidden widths of 20 and 9 leave sub-register tails in every 8-lane
/// kernel.
#[test]
fn exact_training_reproduces_golden_bits() {
    use etsb_core::config::CellKind;
    use etsb_core::encode::EncodedDataset;
    use etsb_core::model::AnyModel;
    use etsb_core::persist::save_detector;
    use etsb_core::train::train_model;
    use etsb_tensor::init::seeded_rng;

    // (model, cell, training+prediction hash, detector-file hash, file bytes)
    const GOLDEN: [(ModelKind, CellKind, u64, u64, usize); 6] = [
        (
            ModelKind::Etsb,
            CellKind::Vanilla,
            0x5001_9a18_cde7_b9cc,
            0xbb66_5809_f9c6_a1ba,
            24_875,
        ),
        (
            ModelKind::Tsb,
            CellKind::Vanilla,
            0x96a9_a2fc_d820_0ce3,
            0xb7b9_6aba_2d42_a442,
            19_535,
        ),
        (
            ModelKind::Etsb,
            CellKind::Lstm,
            0x5866_f8b9_6e4b_ca0d,
            0x48de_6856_7b23_c58a,
            78_659,
        ),
        (
            ModelKind::Tsb,
            CellKind::Lstm,
            0x7ebe_cb90_6b46_373e,
            0xbfd7_1a73_c7fb_4c70,
            62_735,
        ),
        (
            ModelKind::Etsb,
            CellKind::Gru,
            0xbdb6_1076_c7b2_1fff,
            0x8fcb_ba28_85bf_fdff,
            60_731,
        ),
        (
            ModelKind::Tsb,
            CellKind::Gru,
            0x9c67_bbeb_c995_a4ee,
            0x387e_e745_f591_b5e0,
            48_335,
        ),
    ];
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    let pair = Dataset::Beers
        .generate(&GenConfig {
            scale: 0.03,
            seed: 14,
        })
        .expect("dataset generation");
    let frame = CellFrame::merge(&pair.dirty, &pair.clean).unwrap();
    let data = EncodedDataset::from_frame(&frame);
    let sample = sampling::diver_set(&frame, 10, 3);
    let (train, test) = data.split_by_tuples(&sample);
    let cells: Vec<usize> = (0..data.n_cells()).collect();
    for (kind, cell, golden_bits, golden_file, file_len) in GOLDEN {
        let cfg = TrainConfig {
            rnn_units: 20,
            attr_rnn_units: 9,
            head_dim: 12,
            cell,
            ..tiny_cfg().train
        };
        let mut model = AnyModel::new(kind, &data, &cfg, &mut seeded_rng(41));
        let history = train_model(&mut model, &data, &train, &test, &cfg, 23);
        let probs = model.predict_probs_with(&data, &cells, KernelPolicy::Exact);
        assert_eq!(
            (history.train_loss.len(), probs.len()),
            (6, 792),
            "{kind:?}/{cell:?}: workload shape changed; the golden hashes no longer apply"
        );
        let bits = history
            .train_loss
            .iter()
            .chain(&probs)
            .fold(FNV_OFFSET, |h, x| {
                (h ^ u64::from(x.to_bits())).wrapping_mul(FNV_PRIME)
            });
        assert_eq!(
            bits, golden_bits,
            "{kind:?}/{cell:?}: exact training/prediction bits drifted from the golden run"
        );
        let file = save_detector(&model, kind, &cfg, &data);
        let file_hash = file.iter().fold(FNV_OFFSET, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
        });
        assert_eq!(
            (file.len(), file_hash),
            (file_len, golden_file),
            "{kind:?}/{cell:?}: detector file bytes drifted from the golden run"
        );
    }
}
