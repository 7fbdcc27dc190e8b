//! Saturating-load benchmark for the resident detection service.
//!
//! Drives `DetectService` with closed-loop clients at stepped offered
//! loads (1, 2, 4, … concurrent clients, each submitting requests
//! back-to-back), and reports per-step latency quantiles, batch
//! occupancy, queue depth and cache hit rate — all read from the
//! service's own metrics registry by diffing a
//! [`RegistrySnapshot`](etsb_obs::registry::RegistrySnapshot)
//! taken around each arm, so the numbers the bench reports are exactly
//! the numbers `GET /metrics` exposes. Writes `BENCH_serve.json` (a
//! JSON array that `--validate` schema-checks and `run_checks.sh`
//! gates on), a `BENCH_serve.manifest.json` provenance sidecar, and
//! `BENCH_serve.prom` (the final Prometheus exposition, lintable with
//! `trace_lint --expo`).
//!
//! ```text
//! cargo run --release -p etsb-bench --bin serve_bench             # full run
//! cargo run --release -p etsb-bench --bin serve_bench -- --smoke  # 3 steps
//! cargo run --release -p etsb-bench --bin serve_bench -- --validate BENCH_serve.json
//! ```

use etsb_core::config::{CellKind, ExperimentConfig, ModelKind, TrainConfig};
use etsb_core::manifest::{DatasetInfo, RunManifest};
use etsb_core::model::AnyModel;
use etsb_core::persist::LoadedDetector;
use etsb_core::EncodedDataset;
use etsb_obs::json::{self, Value};
use etsb_obs::registry::HistogramSnapshot;
use etsb_serve::engine::DetectService;
use etsb_serve::protocol::{Request, RequestCell, Status};
use etsb_serve::ServeConfig;
use etsb_table::{AttrIndex, CharIndex};
use etsb_tensor::init::seeded_rng;
use std::time::Instant;

const OUT_FILE: &str = "BENCH_serve.json";
const EXPO_FILE: &str = "BENCH_serve.prom";
const FULL_STEPS: [usize; 6] = [1, 2, 4, 8, 16, 32];
const SMOKE_STEPS: [usize; 3] = [1, 2, 4];
const FULL_REQUESTS_PER_CLIENT: usize = 40;
const SMOKE_REQUESTS_PER_CLIENT: usize = 8;
/// Cells per request; small enough that coalescing (not one giant
/// request) is what fills batches.
const CELLS_PER_REQUEST: usize = 4;
/// Distinct cell values cycled through by the workload: small enough
/// that the prediction cache gets real hits under load, large enough
/// that the first pass over the pool is all misses.
const VALUE_POOL: usize = 32;
const SEED: u64 = 7;

/// The same small untrained-but-deterministic detector the serve tests
/// use: load behaviour does not care whether the weights are good.
fn detector() -> LoadedDetector {
    let char_index = CharIndex::from_alphabet("abcdefghijklmnopqrstuvwxyz0123456789 .-".chars());
    let attr_index = AttrIndex::from_names(vec!["name".to_string(), "city".to_string()]);
    let train = TrainConfig {
        rnn_units: 8,
        attr_rnn_units: 4,
        head_dim: 8,
        length_dense_dim: 8,
        embed_dim: Some(6),
        cell: CellKind::Vanilla,
        ..TrainConfig::default()
    };
    let dims = EncodedDataset::empty_with_dicts(char_index.clone(), attr_index.clone());
    let model = AnyModel::new(ModelKind::Etsb, &dims, &train, &mut seeded_rng(SEED));
    LoadedDetector {
        model,
        kind: ModelKind::Etsb,
        train,
        char_index,
        attr_index,
    }
}

/// Deterministic request `k` of a client stream: cycles attribute and
/// value pools so concurrent clients overlap (cache hits) without any
/// randomness in the workload itself.
fn request(client: usize, k: usize) -> Request {
    let attrs = ["name", "city"];
    let cells = (0..CELLS_PER_REQUEST)
        .map(|c| {
            let v = (client * 13 + k * CELLS_PER_REQUEST + c) % VALUE_POOL;
            RequestCell {
                tuple_id: c as u64,
                attribute: attrs[(k + c) % attrs.len()].to_string(),
                value: format!("value-{v}"),
            }
        })
        .collect();
    Request {
        id: format!("c{client}-r{k}"),
        cells,
    }
}

/// Quantile/summary arm of one histogram delta as a JSON object.
fn histogram_json(h: &HistogramSnapshot) -> Value {
    Value::obj([
        ("count".to_string(), Value::Num(h.count as f64)),
        ("mean".to_string(), Value::Num(h.mean())),
        ("p50".to_string(), Value::Num(h.p50() as f64)),
        ("p90".to_string(), Value::Num(h.p90() as f64)),
        ("p99".to_string(), Value::Num(h.p99() as f64)),
        ("max".to_string(), Value::Num(h.max as f64)),
    ])
}

struct StepResult {
    /// Which kernel policy the serving instance ran: "exact" or
    /// "fast-math". One service per policy — the engine pins the policy
    /// for its lifetime so one prediction cache never mixes policies.
    kernel_policy: &'static str,
    clients: usize,
    requests: usize,
    errors: usize,
    elapsed_ns: u64,
    throughput_rps: f64,
    detect_latency: HistogramSnapshot,
    batch_occupancy: HistogramSnapshot,
    queue_depth: HistogramSnapshot,
    batches: u64,
    cache_hit_rate: f64,
}

impl StepResult {
    fn to_json_value(&self) -> Value {
        Value::obj([
            (
                "kernel_policy".to_string(),
                Value::Str(self.kernel_policy.to_string()),
            ),
            ("clients".to_string(), Value::Num(self.clients as f64)),
            ("requests".to_string(), Value::Num(self.requests as f64)),
            ("errors".to_string(), Value::Num(self.errors as f64)),
            ("elapsed_ns".to_string(), Value::Num(self.elapsed_ns as f64)),
            (
                "throughput_rps".to_string(),
                Value::Num(self.throughput_rps),
            ),
            (
                "detect_latency_ns".to_string(),
                histogram_json(&self.detect_latency),
            ),
            (
                "batch_occupancy_cells".to_string(),
                histogram_json(&self.batch_occupancy),
            ),
            (
                "queue_depth_cells".to_string(),
                histogram_json(&self.queue_depth),
            ),
            ("batches".to_string(), Value::Num(self.batches as f64)),
            (
                "cache_hit_rate".to_string(),
                Value::Num(self.cache_hit_rate),
            ),
        ])
    }
}

/// Run one closed-loop arm: `clients` threads each submit
/// `requests_per_client` requests back-to-back against the shared
/// service, then the arm's metrics are read as registry deltas.
fn run_step(
    service: &DetectService,
    kernel_policy: &'static str,
    clients: usize,
    requests_per_client: usize,
) -> StepResult {
    let before = service.registry().snapshot();
    let started = Instant::now();
    let errors: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut errs = 0usize;
                    for k in 0..requests_per_client {
                        let response = service.submit(request(client, k)).wait();
                        if response.status != Status::Ok {
                            errs += 1;
                        }
                    }
                    errs
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(0)).sum()
    });
    let elapsed = started.elapsed();
    let after = service.registry().snapshot();

    let counter_delta = |name: &str| -> u64 {
        after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
    };
    let histogram_delta = |name: &str| -> HistogramSnapshot {
        match (after.histogram(name), before.histogram(name)) {
            (Some(now), Some(then)) => now.delta(then),
            (Some(now), None) => now.clone(),
            _ => HistogramSnapshot {
                bounds: Vec::new(),
                buckets: vec![0],
                count: 0,
                sum: 0,
                max: 0,
            },
        }
    };

    let requests = clients * requests_per_client;
    let hits = counter_delta("etsb_serve_cache_hits_total");
    let misses = counter_delta("etsb_serve_cache_misses_total");
    let lookups = hits + misses;
    StepResult {
        kernel_policy,
        clients,
        requests,
        errors,
        elapsed_ns: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
        throughput_rps: requests as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE),
        detect_latency: histogram_delta("etsb_serve_detect_latency_ns"),
        batch_occupancy: histogram_delta("etsb_serve_batch_occupancy_cells"),
        queue_depth: histogram_delta("etsb_serve_queue_depth_cells"),
        batches: counter_delta("etsb_serve_batches_total"),
        cache_hit_rate: if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
    }
}

fn run(steps: &[usize], requests_per_client: usize) {
    // One service per kernel policy: the engine pins the policy (and the
    // prediction cache) for its lifetime, so the fast-math arm is a
    // separate instance, exactly like `etsb serve --fast-math` would be.
    let mut results = Vec::with_capacity(steps.len() * 2);
    let mut expo = String::new();
    for (kernel_policy, fast_math) in [("exact", false), ("fast-math", true)] {
        let cfg = ServeConfig {
            fast_math,
            ..ServeConfig::default()
        };
        let service = DetectService::start(detector(), cfg);
        println!(
            "serve_bench[{kernel_policy}]: model {} (hash {})",
            service.provenance().model,
            service.provenance().model_hash
        );

        for &clients in steps {
            let step = run_step(&service, kernel_policy, clients, requests_per_client);
            println!(
                "{kernel_policy:>9}  clients {clients:>3}  reqs {:>5}  {:>9.0} req/s  p50 {:>9} ns  p99 {:>10} ns  occupancy(mean) {:>5.1}  hit-rate {:>4.2}",
                step.requests,
                step.throughput_rps,
                step.detect_latency.p50(),
                step.detect_latency.p99(),
                step.batch_occupancy.mean(),
                step.cache_hit_rate,
            );
            results.push(step);
        }
        // Keep the exact instance's exposition for the lint gate — it is
        // the default-config service `GET /metrics` mirrors.
        if kernel_policy == "exact" {
            expo = service.prometheus_text();
        }
    }

    let entries: Vec<Value> = results.iter().map(StepResult::to_json_value).collect();
    if let Err(e) = std::fs::write(OUT_FILE, Value::Arr(entries).to_json()) {
        eprintln!("error: writing {OUT_FILE}: {e}");
        std::process::exit(1);
    }
    println!("wrote {OUT_FILE}");

    // Provenance sidecar: same shape as the experiment benches', so
    // `trace_lint --manifest` validates it unchanged.
    let config = ExperimentConfig {
        model: ModelKind::Etsb,
        seed: SEED,
        ..ExperimentConfig::default()
    };
    let datasets = ["exact", "fast-math"]
        .iter()
        .flat_map(|policy| {
            steps.iter().map(move |&clients| {
                DatasetInfo::from_shape(
                    &format!("serve_load_{policy}_c{clients}"),
                    (clients * requests_per_client, CELLS_PER_REQUEST),
                )
            })
        })
        .collect();
    let manifest = RunManifest::new(&config, steps.len() * 2, datasets);
    let stem = OUT_FILE.strip_suffix(".json").unwrap_or(OUT_FILE);
    let manifest_path = format!("{stem}.manifest.json");
    if let Err(e) = manifest.write(&manifest_path) {
        eprintln!("error: writing {manifest_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {manifest_path}");

    // The final exposition, exactly as `GET /metrics` would serve it.
    if let Err(e) = std::fs::write(EXPO_FILE, expo) {
        eprintln!("error: writing {EXPO_FILE}: {e}");
        std::process::exit(1);
    }
    println!("wrote {EXPO_FILE}");
}

/// Schema-check a results file: a JSON array with at least three load
/// steps whose quantiles are ordered (`p50 <= p90 <= p99 <= max`),
/// whose `cache_hit_rate` lies in `[0, 1]`, and whose throughput and
/// latency counts are positive with zero failed requests. Every entry
/// must be tagged `kernel_policy` ("exact" or "fast-math") and both
/// policies must appear, so the fast-math arm can never silently drop
/// out of the gate.
fn validate(path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let value = json::parse(&text).map_err(|e| format!("invalid JSON: {e:?}"))?;
    let Value::Arr(entries) = value else {
        return Err("top-level value is not an array".into());
    };
    if entries.len() < 3 {
        return Err(format!(
            "only {} load step(s); need at least 3",
            entries.len()
        ));
    }
    let num = |entry: &Value, key: &str| -> Result<f64, String> {
        entry
            .get(key)
            .and_then(Value::as_f64)
            .ok_or(format!("missing number field {key:?}"))
    };
    let mut policies_seen = std::collections::HashSet::new();
    for (i, entry) in entries.iter().enumerate() {
        let clients = num(entry, "clients")?;
        let context = format!("entry {i} (clients {clients})");
        if clients < 1.0 {
            return Err(format!("{context}: clients not positive"));
        }
        let policy = entry
            .get("kernel_policy")
            .and_then(Value::as_str)
            .ok_or(format!("{context}: missing string field 'kernel_policy'"))?;
        if policy != "exact" && policy != "fast-math" {
            return Err(format!(
                "{context}: kernel_policy {policy:?} not 'exact' or 'fast-math'"
            ));
        }
        policies_seen.insert(policy.to_string());
        if num(entry, "errors")? != 0.0 {
            return Err(format!("{context}: failed requests under load"));
        }
        if num(entry, "throughput_rps")? <= 0.0 {
            return Err(format!("{context}: throughput not positive"));
        }
        let rate = num(entry, "cache_hit_rate")?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("{context}: cache_hit_rate {rate} outside [0, 1]"));
        }
        for arm in [
            "detect_latency_ns",
            "batch_occupancy_cells",
            "queue_depth_cells",
        ] {
            let hist = entry
                .get(arm)
                .ok_or(format!("{context}: missing histogram arm {arm:?}"))?;
            let p50 = num(hist, "p50")?;
            let p90 = num(hist, "p90")?;
            let p99 = num(hist, "p99")?;
            let max = num(hist, "max")?;
            if !(p50 <= p90 && p90 <= p99 && p99 <= max) {
                return Err(format!(
                    "{context}: {arm} quantiles not ordered (p50 {p50}, p90 {p90}, p99 {p99}, max {max})"
                ));
            }
        }
        if num(
            entry.get("detect_latency_ns").unwrap_or(&Value::Null),
            "count",
        )
        .unwrap_or(0.0)
            <= 0.0
        {
            return Err(format!("{context}: no latency observations"));
        }
    }
    for policy in ["exact", "fast-math"] {
        if !policies_seen.contains(policy) {
            return Err(format!("no load steps with kernel_policy {policy:?}"));
        }
    }
    Ok(entries.len())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--validate") => {
            let path = args.get(1).map(String::as_str).unwrap_or(OUT_FILE);
            match validate(path) {
                Ok(n) => println!("{path}: {n} load step(s), schema ok"),
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        Some("--smoke") => run(&SMOKE_STEPS, SMOKE_REQUESTS_PER_CLIENT),
        None => run(&FULL_STEPS, FULL_REQUESTS_PER_CLIENT),
        Some(other) => {
            eprintln!("error: unknown flag {other} (try --smoke or --validate PATH)");
            std::process::exit(2);
        }
    }
}
