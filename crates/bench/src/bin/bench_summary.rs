//! Machine-readable hot-path benchmark summary.
//!
//! Times the batched sequence hot path (StackedBiRnn, 64
//! units/direction): a train_batch-shaped forward + backward
//! (`batch_forward_backward/batched/*`, one timestep-major pass over a
//! 256-sequence mixed-length mini-batch) and an inference-only pair
//! (`inference_exact/*` vs `inference_fast/*`) timing the batched
//! forward pass under both kernel policies. It then writes
//! `BENCH_hotpath.json`: a JSON array of
//! `{"bench": ..., "mean_ns": ..., "iqr_ns": ..., "samples": ...}`
//! entries that `run_checks.sh` schema-validates and CI can trend.
//! The two policy arms are interleaved round by round and `mean_ns` is
//! an interquartile mean, so background load perturbs the reported
//! speedup as little as possible.
//!
//! ```text
//! cargo run --release -p etsb-bench --bin bench_summary              # full run
//! cargo run --release -p etsb-bench --bin bench_summary -- --smoke  # 6 samples
//! cargo run --release -p etsb-bench --bin bench_summary -- --validate BENCH_hotpath.json
//! ```

use etsb_nn::{KernelPolicy, RnnCell, SeqBatch, StackedBiRnn, StackedBiRnnCache};
use etsb_obs::json::{self, Value};
use etsb_tensor::{init, Matrix, Workspace};
use std::time::Instant;

const LENGTHS: [usize; 3] = [8, 32, 128];
/// Sequences per inference batch: sized like a well-coalesced serve
/// tick so the `inference_*` arms measure the batched forward pass the
/// detection hot path actually runs.
const INFER_BATCH: usize = 32;
/// A train_batch-shaped workload: 256 sequences (batch = trainset / 4 in
/// §5.2) with the short mixed-length profile of real database cells —
/// airline/city codes, dates, times and numeric ids run 2..=12
/// characters — so the batched arm exercises length bucketing and batch
/// shrinkage on the shapes training actually sees, not a rectangular
/// best case.
const BATCH_LENGTHS: [usize; 256] = [
    4, 8, 7, 3, 5, 8, 6, 10, 8, 3, 8, 2, 12, 6, 4, 7, 4, 4, 10, 6, 7, 12, 7, 6, 5, 10, 12, 3, 4,
    10, 3, 12, 7, 5, 10, 2, 10, 10, 3, 3, 10, 8, 2, 4, 10, 2, 12, 12, 4, 6, 8, 10, 5, 10, 10, 5, 5,
    10, 10, 8, 6, 3, 5, 3, 2, 3, 6, 4, 4, 10, 5, 10, 10, 12, 4, 5, 7, 12, 5, 8, 5, 7, 8, 5, 8, 4,
    5, 10, 2, 12, 4, 8, 10, 10, 3, 10, 12, 5, 7, 8, 8, 3, 10, 10, 4, 10, 12, 8, 4, 4, 3, 3, 6, 12,
    10, 6, 3, 5, 10, 3, 5, 3, 2, 4, 5, 10, 5, 12, 3, 2, 8, 8, 10, 2, 5, 10, 8, 5, 7, 4, 7, 4, 2, 4,
    2, 3, 3, 8, 7, 2, 4, 5, 4, 8, 4, 3, 10, 2, 12, 5, 5, 5, 3, 12, 5, 5, 6, 12, 7, 5, 10, 12, 8,
    10, 7, 3, 8, 10, 7, 4, 5, 10, 10, 10, 4, 4, 5, 4, 7, 4, 7, 5, 2, 10, 5, 8, 5, 2, 5, 8, 8, 10,
    3, 2, 10, 10, 5, 6, 5, 10, 5, 8, 10, 4, 10, 6, 2, 8, 2, 10, 2, 5, 4, 10, 6, 4, 8, 8, 5, 3, 5,
    3, 5, 10, 5, 12, 8, 4, 4, 10, 5, 3, 10, 12, 2, 8, 10, 10, 3, 4, 7, 4, 10, 10, 4, 4,
];
const EMBED_DIM: usize = 86; // Beers alphabet
const HIDDEN: usize = 64;
const DEFAULT_SAMPLES: usize = 40;
const SMOKE_SAMPLES: usize = 6;
const OUT_FILE: &str = "BENCH_hotpath.json";

struct BenchResult {
    bench: String,
    mean_ns: f64,
    /// Interquartile spread (Q3 − Q1) of the per-round samples, in ns —
    /// a dispersion bar so CI trending can tell a real regression from
    /// a noisy run.
    iqr_ns: f64,
    samples: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--validate") => {
            let path = args.get(1).map(String::as_str).unwrap_or(OUT_FILE);
            match validate(path) {
                Ok(n) => println!("{path}: {n} benchmark entr(y/ies), schema ok"),
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        Some("--smoke") => run(SMOKE_SAMPLES),
        None => run(DEFAULT_SAMPLES),
        Some(other) => {
            eprintln!("error: unknown flag {other} (try --smoke or --validate PATH)");
            std::process::exit(2);
        }
    }
}

/// Run every benchmark, print a human summary and write [`OUT_FILE`].
fn run(samples: usize) {
    let mut rng = init::seeded_rng(1);
    let net: StackedBiRnn<RnnCell> = StackedBiRnn::new(EMBED_DIM, HIDDEN, &mut rng);

    let mut results: Vec<BenchResult> = Vec::new();
    bench_batch(&net, samples, &mut results, &mut rng);
    bench_inference(&net, samples, &mut results, &mut rng);

    let entries: Vec<Value> = results
        .iter()
        .map(|r| {
            Value::obj([
                ("bench".to_string(), Value::Str(r.bench.clone())),
                ("mean_ns".to_string(), Value::Num(r.mean_ns)),
                ("iqr_ns".to_string(), Value::Num(r.iqr_ns)),
                ("samples".to_string(), Value::Num(r.samples as f64)),
            ])
        })
        .collect();
    let text = Value::Arr(entries).to_json();
    if let Err(e) = std::fs::write(OUT_FILE, text) {
        eprintln!("error: writing {OUT_FILE}: {e}");
        std::process::exit(1);
    }
    println!("wrote {OUT_FILE}");
}

/// Benchmark a whole mini-batch through the stack: one timestep-major
/// batched forward + backward pass. The first round warms every buffer
/// pool and is discarded.
fn bench_batch(
    net: &StackedBiRnn<RnnCell>,
    samples: usize,
    results: &mut Vec<BenchResult>,
    rng: &mut rand::rngs::StdRng,
) {
    let batch = SeqBatch::from_lengths(&BATCH_LENGTHS);
    let n = batch.n_samples();
    let inputs: Vec<Matrix> = BATCH_LENGTHS
        .iter()
        .map(|&len| init::glorot_uniform(len, EMBED_DIM, rng))
        .collect();
    let mut packed = Matrix::zeros(batch.total_rows(), EMBED_DIM);
    for (orig, input) in inputs.iter().enumerate() {
        let slot = batch.slot_of(orig);
        for t in 0..input.rows() {
            packed
                .row_mut(batch.row(slot, t))
                .copy_from_slice(input.row(t));
        }
    }
    let grad_features = Matrix::from_fn(n, net.output_dim(), |_, _| 1.0);
    let mut grads = etsb_nn::grad_buffer_for(&net.params());

    let mut ws = Workspace::new();
    let mut cache = StackedBiRnnCache::<RnnCell>::default();
    let mut features = Matrix::default();
    let mut grad_packed = Matrix::default();

    let mut ns = Vec::with_capacity(samples);
    for round in 0..=samples {
        let t = Instant::now();
        net.forward_batch_into(
            &packed,
            &batch,
            &mut features,
            &mut cache,
            &mut ws,
            KernelPolicy::Exact,
        );
        std::hint::black_box(&features);
        net.backward_batch_into(
            &batch,
            &cache,
            &grad_features,
            grads.slots_mut(),
            &mut grad_packed,
            &mut ws,
        );
        std::hint::black_box(&grad_packed);
        let elapsed = t.elapsed().as_nanos() as f64;

        if round > 0 {
            ns.push(elapsed);
        }
    }
    let (batched, batched_iqr) = summarize(&mut ns);
    println!("batch_forward_backward/B{n}  batched {batched:>12.0} ns");
    results.push(BenchResult {
        bench: format!("batch_forward_backward/batched/B{n}"),
        mean_ns: batched,
        iqr_ns: batched_iqr,
        samples,
    });
}

/// Benchmark the inference hot path — the batched forward-only pass a
/// coalesced serve tick or `etsb detect` runs — under both kernel
/// policies. [`INFER_BATCH`] same-length sequences per pass, exact and
/// fast-math arms interleaved round by round; backward never runs, so
/// this isolates exactly the code the `--fast-math` flag switches.
fn bench_inference(
    net: &StackedBiRnn<RnnCell>,
    samples: usize,
    results: &mut Vec<BenchResult>,
    rng: &mut rand::rngs::StdRng,
) {
    for &len in &LENGTHS {
        let lengths = vec![len; INFER_BATCH];
        let batch = SeqBatch::from_lengths(&lengths);
        let packed = init::glorot_uniform(batch.total_rows(), EMBED_DIM, rng);

        let mut ws = Workspace::new();
        let mut cache = StackedBiRnnCache::<RnnCell>::default();
        let mut features = Matrix::default();
        // Warm both arms' buffer pools before measurement.
        for policy in [KernelPolicy::Exact, KernelPolicy::FastMath] {
            net.forward_batch_into(&packed, &batch, &mut features, &mut cache, &mut ws, policy);
        }

        let mut exact_ns = Vec::with_capacity(samples);
        let mut fast_ns = Vec::with_capacity(samples);
        for round in 0..=samples {
            let t = Instant::now();
            net.forward_batch_into(
                &packed,
                &batch,
                &mut features,
                &mut cache,
                &mut ws,
                KernelPolicy::Exact,
            );
            std::hint::black_box(&features);
            let exact = t.elapsed().as_nanos() as f64;

            let t = Instant::now();
            net.forward_batch_into(
                &packed,
                &batch,
                &mut features,
                &mut cache,
                &mut ws,
                KernelPolicy::FastMath,
            );
            std::hint::black_box(&features);
            let fast = t.elapsed().as_nanos() as f64;

            if round > 0 {
                exact_ns.push(exact);
                fast_ns.push(fast);
            }
        }
        let (exact, exact_iqr) = summarize(&mut exact_ns);
        let (fast, fast_iqr) = summarize(&mut fast_ns);
        println!(
            "inference/{len:<4}            exact {exact:>12.0} ns   fast-math {fast:>12.0} ns   speedup(vs exact) {:>5.2}x",
            exact / fast
        );
        results.push(BenchResult {
            bench: format!("inference_exact/{len}"),
            mean_ns: exact,
            iqr_ns: exact_iqr,
            samples,
        });
        results.push(BenchResult {
            bench: format!("inference_fast/{len}"),
            mean_ns: fast,
            iqr_ns: fast_iqr,
            samples,
        });
    }
}

/// Interquartile summary of the samples: `(mean, spread)`. The mean
/// drops the fastest and slowest quarter and averages the middle half —
/// robust to one-off scheduler or frequency-scaling spikes while still
/// being a mean, not a single order statistic. The spread is Q3 − Q1 of
/// the sorted samples, reported alongside so trending can weigh a mean
/// shift against the run's own noise floor.
fn summarize(samples: &mut [f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "summarize of empty sample set");
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let q = samples.len() / 4;
    let mid = &samples[q..samples.len() - q];
    let mean = mid.iter().sum::<f64>() / mid.len() as f64;
    let spread = samples[samples.len() - 1 - q] - samples[q];
    (mean, spread)
}

/// Schema-check a summary file: a non-empty JSON array whose entries
/// carry a string `bench`, a positive finite `mean_ns`, a finite
/// non-negative `iqr_ns` and a positive integer `samples`, covering the
/// batched (`batch_forward_backward/`) and kernel-policy
/// (`inference_exact/`, `inference_fast/`) arm families.
fn validate(path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let value = json::parse(&text).map_err(|e| format!("invalid JSON: {e:?}"))?;
    let Value::Arr(entries) = value else {
        return Err("top-level value is not an array".into());
    };
    if entries.is_empty() {
        return Err("no benchmark entries".into());
    }
    for (i, entry) in entries.iter().enumerate() {
        let bench = entry
            .get("bench")
            .and_then(Value::as_str)
            .ok_or(format!("entry {i}: missing string field 'bench'"))?;
        let mean_ns = entry.get("mean_ns").and_then(Value::as_f64).ok_or(format!(
            "entry {i} ({bench}): missing number field 'mean_ns'"
        ))?;
        if !mean_ns.is_finite() || mean_ns <= 0.0 {
            return Err(format!(
                "entry {i} ({bench}): mean_ns {mean_ns} not positive"
            ));
        }
        let iqr_ns = entry.get("iqr_ns").and_then(Value::as_f64).ok_or(format!(
            "entry {i} ({bench}): missing number field 'iqr_ns'"
        ))?;
        if !iqr_ns.is_finite() || iqr_ns < 0.0 {
            return Err(format!(
                "entry {i} ({bench}): iqr_ns {iqr_ns} not a finite non-negative number"
            ));
        }
        let samples = entry.get("samples").and_then(Value::as_f64).ok_or(format!(
            "entry {i} ({bench}): missing number field 'samples'"
        ))?;
        if samples < 1.0 || samples.fract() != 0.0 {
            return Err(format!(
                "entry {i} ({bench}): samples {samples} not a positive integer"
            ));
        }
    }
    for prefix in [
        "batch_forward_backward/",
        "inference_exact/",
        "inference_fast/",
    ] {
        let covered = entries.iter().any(|e| {
            e.get("bench")
                .and_then(Value::as_str)
                .is_some_and(|b| b.starts_with(prefix))
        });
        if !covered {
            return Err(format!("no benchmark entries under '{prefix}'"));
        }
    }
    Ok(entries.len())
}
