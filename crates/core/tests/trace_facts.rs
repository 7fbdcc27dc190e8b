//! The trace carries each numeric fact as a named `event`, and the values
//! it carries are the ones the code computed: the per-epoch loss, one
//! gradient norm per batch, the prediction dedup counts and the final
//! evaluation metrics.
//!
//! Kept to a single test because the sink is process-global.

use etsb_core::config::{ExperimentConfig, ModelKind, SamplerKind, TrainConfig};
use etsb_core::encode::EncodedDataset;
use etsb_core::model::{memo_key, AnyModel};
use etsb_core::pipeline::run_with_sample;
use etsb_core::train::train_model;
use etsb_core::{sampling, KernelPolicy, PredictCache};
use etsb_datasets::{Dataset, GenConfig};
use etsb_obs::{CaptureSink, Event, FieldValue};
use etsb_table::CellFrame;
use etsb_tensor::init::seeded_rng;
use std::collections::HashSet;
use std::sync::Mutex;

fn cfg() -> ExperimentConfig {
    ExperimentConfig {
        model: ModelKind::Etsb,
        sampler: SamplerKind::DiverSet,
        n_label_tuples: 10,
        train: TrainConfig {
            epochs: 3,
            rnn_units: 6,
            attr_rnn_units: 3,
            head_dim: 6,
            length_dense_dim: 4,
            embed_dim: Some(8),
            eval_every: 2,
            curve_subsample: 50,
            ..Default::default()
        },
        seed: 5,
    }
}

/// Everything captured so far; the buffer is left empty.
fn drain(buffer: &Mutex<Vec<Event>>) -> Vec<Event> {
    std::mem::take(&mut *buffer.lock().unwrap())
}

/// The `event`s named `name`.
fn named<'e>(events: &'e [Event], name: &str) -> Vec<&'e Event> {
    let name = ("name", FieldValue::from(name));
    events
        .iter()
        .filter(|e| e.kind == "event" && e.fields.contains(&name))
        .collect()
}

/// The numeric field `key` of `event`.
fn num(event: &Event, key: &str) -> f64 {
    match event.fields.iter().find(|(k, _)| *k == key) {
        Some((_, FieldValue::F64(v))) => *v,
        Some((_, FieldValue::U64(v))) => *v as f64,
        other => panic!("{event:?}: field {key:?} is {other:?}"),
    }
}

#[test]
fn trace_events_carry_the_computed_facts() {
    let pair = Dataset::Hospital
        .generate(&GenConfig {
            scale: 0.05,
            seed: 3,
        })
        .expect("dataset generation");
    let frame = CellFrame::merge(&pair.dirty, &pair.clean).unwrap();
    let data = EncodedDataset::from_frame(&frame);
    let cfg = cfg();
    let sample = sampling::diver_set(&frame, cfg.n_label_tuples, 4);
    let (train, test) = data.split_by_tuples(&sample);

    let (sink, buffer) = CaptureSink::new();
    etsb_obs::set_sink(Some(Box::new(sink)));

    // Training: one loss per epoch, bit for bit, and one norm per batch.
    let mut model = AnyModel::new(cfg.model, &data, &cfg.train, &mut seeded_rng(7));
    let history = train_model(&mut model, &data, &train, &test, &cfg.train, 8);
    let events = drain(&buffer);
    let losses: Vec<u32> = named(&events, "train_loss")
        .iter()
        .map(|e| (num(e, "value") as f32).to_bits())
        .collect();
    let expected: Vec<u32> = history.train_loss.iter().map(|l| l.to_bits()).collect();
    assert_eq!(expected.len(), cfg.train.epochs);
    assert_eq!(losses, expected);
    let batch_size = (train.len() / cfg.train.batch_divisor.max(1)).max(1);
    assert_eq!(
        named(&events, "grad_global_norm").len(),
        cfg.train.epochs * train.len().div_ceil(batch_size)
    );

    // Prediction: one event whose counts match the call, against a cache
    // warmed by an earlier call, over cells that repeat.
    let mut cache = PredictCache::new(1 << 12);
    let warm: Vec<usize> = test.iter().copied().step_by(3).collect();
    model.predict_probs_cached_with(&data, &warm, &mut cache, KernelPolicy::Exact);
    let cells: Vec<usize> = test
        .iter()
        .chain(&test[..test.len() / 2])
        .copied()
        .collect();
    let unique = cells
        .iter()
        .map(|&c| memo_key(&data, c))
        .collect::<HashSet<_>>()
        .len();
    let hits_before = cache.stats().hits;
    drain(&buffer);
    model.predict_probs_cached_with(&data, &cells, &mut cache, KernelPolicy::Exact);
    let hits = cache.stats().hits - hits_before;
    let events = drain(&buffer);
    let predict = named(&events, "predict");
    assert_eq!(predict.len(), 1, "{predict:?}");
    assert!(
        unique < cells.len() && hits > 0,
        "the call must dedupe and hit"
    );
    assert_eq!(num(predict[0], "cells"), cells.len() as f64);
    assert_eq!(num(predict[0], "unique"), unique as f64);
    assert_eq!(num(predict[0], "cache_hits"), hits as f64);

    // Evaluation: one event with the run's metrics.
    let result = run_with_sample(&data, &sample, &cfg, 9);
    etsb_obs::set_sink(None);
    let events = drain(&buffer);
    let eval = named(&events, "eval");
    assert_eq!(eval.len(), 1, "{eval:?}");
    assert_eq!(num(eval[0], "precision"), result.metrics.precision);
    assert_eq!(num(eval[0], "recall"), result.metrics.recall);
    assert_eq!(num(eval[0], "f1"), result.metrics.f1);
}
