//! Subcommand implementations and flag parsing.

use etsb_core::config::{ExperimentConfig, ModelKind, SamplerKind, TrainConfig};
use etsb_core::model::AnyModel;
use etsb_core::persist::{load_detector, save_detector};
use etsb_core::train::train_model;
use etsb_core::{
    sampling, stream_predict, DatasetInfo, EncodedDataset, KernelPolicy, Metrics, PredictCache,
    RunManifest,
};
use etsb_datasets::{Dataset, GenConfig};
use etsb_obs::json::Value;
use etsb_repair::{evaluate, Repairer};
use etsb_serve::engine::DetectService;
use etsb_serve::ServeConfig;
use etsb_table::scan::{scan_stats, CsvSource, FrameScan};
use etsb_table::{csv, CellFrame, Table};
use etsb_tensor::init::seeded_rng;
use std::collections::{HashMap, HashSet};

/// Top-level usage text.
pub const USAGE: &str = "\
etsb — error detection in databases with bidirectional RNNs (EDBT 2022)

commands:
  generate  --dataset NAME [--scale F] [--seed N] --dirty FILE --clean FILE
            synthesize a benchmark dataset pair to CSV
  stats     --dirty FILE --clean FILE
            print Table-2 style statistics for a dataset pair
  detect    --dirty FILE --clean FILE [--model tsb|etsb] [--sampler random|raha|diverset]
            [--tuples N] [--epochs N] [--seed N] [--out FILE] [--save FILE]
            [--manifest FILE] [--fast-math] [--chunk-rows N]
            train the detector and report precision/recall/F1; --manifest
            writes a JSON provenance record of the invocation; --fast-math
            scores test cells with the SIMD inference kernels (training
            stays on the exact bitwise path); --chunk-rows N re-scans the
            pair from disk and streams --out emission in N-row chunks
            with O(chunk) memory, byte-identical to the in-memory writer
            (0 = in-memory); an --out path ending in .jsonl emits one
            JSON object per flagged cell instead of CSV
  apply     --model FILE --dirty FILE [--out FILE]
            apply a saved detector to new dirty data (no ground truth)
  repair    --dirty FILE --clean FILE [--epochs N] [--seed N] [--out FILE]
            detect, then repair flagged cells and report repair quality
  serve     --model FILE [--stdin] [--http ADDR] [--max-batch N]
            [--linger-ms N] [--queue-cells N] [--timeout-ms N] [--cache N]
            [--threshold F] [--fast-math]
            keep a saved detector resident and answer detection requests
            (newline-delimited JSON over stdin/stdout, or HTTP on ADDR);
            concurrent requests coalesce into shared batches with results
            bitwise identical to per-request inference; --fast-math scores
            with the SIMD kernels and stamps provenance.kernel_policy";

/// Parse `--key value` pairs; returns an error on dangling or unknown
/// flags (callers pass the set of known keys).
fn parse_flags(args: &[String], known: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got {flag:?}"))?;
        if !known.contains(&key) {
            return Err(format!(
                "unknown flag --{key} (known: {})",
                known.join(", ")
            ));
        }
        let value = iter
            .next()
            .ok_or_else(|| format!("--{key} requires a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    Ok(map)
}

fn required<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("--{key} is required"))
}

fn parse_or<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value for --{key}: {v:?}")),
    }
}

fn load_pair(flags: &HashMap<String, String>) -> Result<(Table, Table, CellFrame), String> {
    let dirty = csv::read_file(required(flags, "dirty")?).map_err(|e| e.to_string())?;
    let clean = csv::read_file(required(flags, "clean")?).map_err(|e| e.to_string())?;
    let frame = CellFrame::merge(&dirty, &clean).map_err(|e| e.to_string())?;
    Ok((dirty, clean, frame))
}

/// `etsb generate`.
pub fn generate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["dataset", "scale", "seed", "dirty", "clean"])?;
    let name = required(&flags, "dataset")?;
    let dataset = Dataset::parse(name).ok_or_else(|| {
        format!(
            "unknown dataset {name:?} (expected one of {})",
            Dataset::ALL.map(|d| d.name().to_lowercase()).join(", ")
        )
    })?;
    let cfg = GenConfig {
        scale: parse_or(&flags, "scale", 1.0)?,
        seed: parse_or(&flags, "seed", 42u64)?,
    };
    let pair = dataset
        .generate(&cfg)
        .map_err(|e| format!("generating {dataset}: {e}"))?;
    csv::write_file(&pair.dirty, required(&flags, "dirty")?).map_err(|e| e.to_string())?;
    csv::write_file(&pair.clean, required(&flags, "clean")?).map_err(|e| e.to_string())?;
    println!(
        "generated {dataset}: {} rows x {} cols (scale {}, seed {})",
        pair.dirty.n_rows(),
        pair.dirty.n_cols(),
        cfg.scale,
        cfg.seed
    );
    Ok(())
}

/// `etsb stats`.
pub fn stats(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["dirty", "clean"])?;
    let (_, _, frame) = load_pair(&flags)?;
    let s = etsb_table::stats::DatasetStats::of(&frame);
    println!("{s}");
    println!(
        "value dictionary: {} characters; attribute dictionary: {} attributes",
        frame.distinct_chars(),
        frame.n_attrs()
    );
    Ok(())
}

/// Everything `run_detection` produces: the encoding, the full-table
/// prediction mask (ground truth on labelled tuples, model output
/// elsewhere), its metrics, the trained model, the resolved config and
/// the labelled tuple ids.
type Detection = (
    EncodedDataset,
    Vec<bool>,
    Metrics,
    AnyModel,
    ExperimentConfig,
    Vec<usize>,
);

/// Shared detection path; returns the frame, encoding, the full-table
/// prediction mask (ground truth on labelled tuples, model output
/// elsewhere) and the labelled tuple ids.
fn run_detection(
    frame: &CellFrame,
    flags: &HashMap<String, String>,
    policy: KernelPolicy,
) -> Result<Detection, String> {
    let model_kind = match flags.get("model").map(String::as_str) {
        None | Some("etsb") => ModelKind::Etsb,
        Some("tsb") => ModelKind::Tsb,
        Some(other) => return Err(format!("unknown model {other:?} (tsb|etsb)")),
    };
    let sampler = match flags.get("sampler").map(String::as_str) {
        None | Some("diverset") => SamplerKind::DiverSet,
        Some("random") => SamplerKind::Random,
        Some("raha") => SamplerKind::Raha,
        Some(other) => return Err(format!("unknown sampler {other:?} (random|raha|diverset)")),
    };
    let cfg = ExperimentConfig {
        model: model_kind,
        sampler,
        n_label_tuples: parse_or(flags, "tuples", 20usize)?,
        train: TrainConfig {
            epochs: parse_or(flags, "epochs", 120usize)?,
            eval_every: 20,
            ..Default::default()
        },
        seed: parse_or(flags, "seed", 42u64)?,
    };
    if cfg.train.epochs == 0 {
        return Err("--epochs must be at least 1".to_string());
    }
    let data = EncodedDataset::from_frame(frame);
    let sample = sampling::select(cfg.sampler, frame, cfg.n_label_tuples, cfg.seed);
    eprintln!("labelling tuples {sample:?}");
    let (train_cells, test_cells) = data.split_by_tuples(&sample);
    if train_cells.is_empty() || test_cells.is_empty() {
        return Err(format!(
            "--tuples {} must label at least one and fewer than all {} tuples",
            cfg.n_label_tuples,
            frame.n_tuples()
        ));
    }
    let mut model = AnyModel::new(cfg.model, &data, &cfg.train, &mut seeded_rng(cfg.seed));
    eprintln!(
        "training {} for {} epochs ({} weights)...",
        cfg.model.name(),
        cfg.train.epochs,
        model.n_weights()
    );
    let history = train_model(
        &mut model,
        &data,
        &train_cells,
        &test_cells,
        &cfg.train,
        cfg.seed,
    );
    eprintln!("best epoch {}", history.best_epoch);

    let preds = model.predict_with(&data, &test_cells, policy);
    let labels = data.labels_of(&test_cells);
    let metrics = Metrics::from_predictions(&preds, &labels);

    let mut mask = vec![false; data.n_cells()];
    for (&cell, &p) in test_cells.iter().zip(&preds) {
        mask[cell] = p;
    }
    for &cell in &train_cells {
        mask[cell] = data.labels[cell];
    }
    Ok((data, mask, metrics, model, cfg, sample))
}

/// Output format of `--out`, chosen by extension (`.jsonl` → JSONL,
/// anything else → CSV). `etsb apply --out` writes the CSV layout too.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EmitFormat {
    /// `tuple_id,attribute,value,flagged` CSV rows, quoted so that
    /// `etsb_table::csv` reads every field back unchanged.
    Csv,
    /// One JSON object per flagged cell.
    Jsonl,
}

impl EmitFormat {
    fn of(path: &str) -> EmitFormat {
        if path.ends_with(".jsonl") {
            EmitFormat::Jsonl
        } else {
            EmitFormat::Csv
        }
    }

    fn header(self) -> &'static str {
        match self {
            EmitFormat::Csv => "tuple_id,attribute,value,flagged\n",
            EmitFormat::Jsonl => "",
        }
    }

    /// Append one flagged cell. The in-memory and streaming `detect`
    /// writers and `apply` all go through here, so their output is
    /// identical by construction.
    ///
    /// A CSV value is always quoted, each `"` doubled; the attribute is
    /// quoted only when it holds `,`, `"`, CR or LF, the rule
    /// `etsb_table::csv` applies when it writes a table.
    fn push_line(self, out: &mut String, tuple_id: usize, attr: &str, value: &str) {
        match self {
            EmitFormat::Csv => {
                let quote = |field: &str| format!("\"{}\"", field.replace('"', "\"\""));
                let attr = if attr.contains([',', '"', '\n', '\r']) {
                    quote(attr)
                } else {
                    attr.to_string()
                };
                out.push_str(&format!("{tuple_id},{attr},{},1\n", quote(value)));
            }
            EmitFormat::Jsonl => {
                let line = Value::obj([
                    ("tuple_id".to_string(), Value::from(tuple_id)),
                    ("attribute".to_string(), Value::from(attr)),
                    ("value".to_string(), Value::from(value)),
                    ("flagged".to_string(), Value::from(true)),
                ]);
                out.push_str(&line.to_json());
                out.push('\n');
            }
        }
    }
}

/// Streaming `--out` writer: re-scan the dataset pair from disk and emit
/// flagged cells chunk-at-a-time through the trained model, so the
/// emission stage holds O(`chunk_rows` × attrs) cells resident instead
/// of the whole table. The mask semantics match the in-memory writer
/// exactly — ground truth on labelled tuples, model output elsewhere —
/// and the bytes written are identical for every chunk size.
fn stream_flagged(
    out_path: &str,
    flags: &HashMap<String, String>,
    model: &AnyModel,
    data: &EncodedDataset,
    train_tuples: &[usize],
    chunk_rows: usize,
    policy: KernelPolicy,
) -> Result<(), String> {
    use std::io::Write;
    let mut source = CsvSource::open(
        required(flags, "dirty")?,
        Some(std::path::Path::new(required(flags, "clean")?)),
    )
    .map_err(|e| e.to_string())?;
    // Pass 1: per-attribute maxima (the global length_norm denominators).
    // The character dictionary is the trained model's, not this pass's.
    let (stats, _) = scan_stats(&mut source).map_err(|e| e.to_string())?;
    let mut scan = FrameScan::new(source, stats.max_len, chunk_rows);
    let columns: Vec<String> = scan.columns().to_vec();
    let train: HashSet<usize> = train_tuples.iter().copied().collect();
    let format = EmitFormat::of(out_path);
    let file = std::fs::File::create(out_path).map_err(|e| e.to_string())?;
    let mut writer = std::io::BufWriter::new(file);
    writer
        .write_all(format.header().as_bytes())
        .map_err(|e| e.to_string())?;
    // Dedups repeated values across chunk boundaries; bitwise neutral.
    let mut cache = PredictCache::new(1 << 14);
    let mut line = String::new();
    let outcome = stream_predict(
        model,
        &data.char_index,
        &data.attr_index,
        &mut scan,
        &mut cache,
        policy,
        |chunk| {
            line.clear();
            for (i, cell) in chunk.frame.cells().iter().enumerate() {
                let flag = if train.contains(&cell.tuple_id) {
                    cell.label
                } else {
                    chunk.preds[i]
                };
                if flag {
                    format.push_line(&mut line, cell.tuple_id, &columns[cell.attr], &cell.value_x);
                }
            }
            writer.write_all(line.as_bytes()).map_err(|e| e.to_string())
        },
    )
    .map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;
    eprintln!(
        "streamed {} rows ({} cells) in chunks of {chunk_rows}: peak {} B chunk + {} B encoded",
        outcome.n_rows, outcome.n_cells, outcome.peak_chunk_bytes, outcome.peak_encoded_bytes
    );
    Ok(())
}

/// `etsb detect`.
pub fn detect(args: &[String]) -> Result<(), String> {
    // `--fast-math` is a bare switch; strip it before key/value parsing.
    let mut fast_math = false;
    let args: Vec<String> = args
        .iter()
        .filter(|a| {
            if a.as_str() == "--fast-math" {
                fast_math = true;
                false
            } else {
                true
            }
        })
        .cloned()
        .collect();
    let flags = parse_flags(
        &args,
        &[
            "dirty",
            "clean",
            "model",
            "sampler",
            "tuples",
            "epochs",
            "seed",
            "out",
            "save",
            "manifest",
            "chunk-rows",
        ],
    )?;
    let policy = if fast_math {
        KernelPolicy::FastMath
    } else {
        KernelPolicy::Exact
    };
    let chunk_rows: usize = parse_or(&flags, "chunk-rows", 0)?;
    let (_, _, frame) = load_pair(&flags)?;
    let (data, mask, metrics, model, cfg, sample) = run_detection(&frame, &flags, policy)?;
    if let Some(path) = flags.get("manifest") {
        let info = DatasetInfo::from_shape(
            required(&flags, "dirty")?,
            (frame.n_tuples(), frame.n_attrs()),
        );
        let manifest = RunManifest::new(&cfg, 1, vec![info]).with_chunk_rows(chunk_rows);
        manifest.write(path).map_err(|e| e.to_string())?;
        println!("wrote run manifest to {path}");
    }
    if let Some(path) = flags.get("save") {
        let bytes = save_detector(&model, cfg.model, &cfg.train, &data);
        std::fs::write(path, bytes).map_err(|e| e.to_string())?;
        println!("saved trained detector to {path}");
    }
    println!(
        "precision {:.3}  recall {:.3}  F1 {:.3}  (tp {} fp {} fn {})",
        metrics.precision, metrics.recall, metrics.f1, metrics.tp, metrics.fp, metrics.fn_
    );
    if let Some(out) = flags.get("out") {
        if chunk_rows > 0 {
            stream_flagged(out, &flags, &model, &data, &sample, chunk_rows, policy)?;
        } else {
            let format = EmitFormat::of(out);
            let mut text = String::from(format.header());
            for (i, cell) in frame.cells().iter().enumerate() {
                if mask[i] {
                    format.push_line(
                        &mut text,
                        cell.tuple_id,
                        &frame.attrs()[cell.attr],
                        &cell.value_x,
                    );
                }
            }
            std::fs::write(out, text).map_err(|e| e.to_string())?;
        }
        println!("wrote flagged cells to {out}");
    }
    Ok(())
}

/// `etsb apply`.
pub fn apply(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["model", "dirty", "out"])?;
    #[allow(clippy::disallowed_methods, reason = "model checkpoints are bounded")]
    let bytes = std::fs::read(required(&flags, "model")?).map_err(|e| e.to_string())?;
    let detector = load_detector(&bytes).map_err(|e| e.to_string())?;
    let dirty = csv::read_file(required(&flags, "dirty")?).map_err(|e| e.to_string())?;
    let mask = detector.apply(&dirty).map_err(|e| e.to_string())?;
    let flagged = mask.iter().filter(|&&m| m).count();
    println!(
        "{} detector over {} attributes: flagged {flagged} of {} cells",
        detector.kind.name(),
        detector.attr_index.len(),
        mask.len()
    );
    if let Some(out) = flags.get("out") {
        let n_cols = dirty.n_cols();
        let mut csv_text = String::from(EmitFormat::Csv.header());
        for (i, &m) in mask.iter().enumerate() {
            if m {
                let (r, c) = (i / n_cols, i % n_cols);
                EmitFormat::Csv.push_line(&mut csv_text, r, &dirty.columns()[c], dirty.cell(r, c));
            }
        }
        std::fs::write(out, csv_text).map_err(|e| e.to_string())?;
        println!("wrote flagged cells to {out}");
    }
    Ok(())
}

/// `etsb serve`.
pub fn serve(args: &[String]) -> Result<(), String> {
    // `--stdin` and `--fast-math` are bare switches; strip them before
    // key/value parsing.
    let mut stdin_mode = false;
    let mut fast_math = false;
    let args: Vec<String> = args
        .iter()
        .filter(|a| match a.as_str() {
            "--stdin" => {
                stdin_mode = true;
                false
            }
            "--fast-math" => {
                fast_math = true;
                false
            }
            _ => true,
        })
        .cloned()
        .collect();
    let flags = parse_flags(
        &args,
        &[
            "model",
            "http",
            "max-batch",
            "linger-ms",
            "queue-cells",
            "timeout-ms",
            "cache",
            "threshold",
        ],
    )?;
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        max_batch_cells: parse_or(&flags, "max-batch", defaults.max_batch_cells)?,
        linger: std::time::Duration::from_millis(parse_or(
            &flags,
            "linger-ms",
            defaults.linger.as_millis() as u64,
        )?),
        queue_capacity_cells: parse_or(&flags, "queue-cells", defaults.queue_capacity_cells)?,
        request_timeout: std::time::Duration::from_millis(parse_or(
            &flags,
            "timeout-ms",
            defaults.request_timeout.as_millis() as u64,
        )?),
        cache_capacity: parse_or(&flags, "cache", defaults.cache_capacity)?,
        prob_threshold: parse_or(&flags, "threshold", defaults.prob_threshold)?,
        fast_math,
    };
    if !(0.0..=1.0).contains(&cfg.prob_threshold) {
        return Err(format!(
            "--threshold must be a probability in [0, 1], got {}",
            cfg.prob_threshold
        ));
    }
    // A zero deadline expires every request in the admission queue, and a
    // zero-cell queue turns every non-empty request away as overloaded.
    if cfg.request_timeout.is_zero() {
        return Err("--timeout-ms must be at least 1".to_string());
    }
    if cfg.queue_capacity_cells == 0 {
        return Err("--queue-cells must be at least 1".to_string());
    }
    #[allow(clippy::disallowed_methods, reason = "model checkpoints are bounded")]
    let bytes = std::fs::read(required(&flags, "model")?).map_err(|e| e.to_string())?;
    let detector = load_detector(&bytes).map_err(|e| e.to_string())?;
    eprintln!(
        "serving {} detector over {} attributes (batch {} cells, cache {}, kernels {})",
        detector.kind.name(),
        detector.attr_index.len(),
        cfg.max_batch_cells,
        cfg.cache_capacity,
        if cfg.fast_math { "fast-math" } else { "exact" }
    );

    let http_addr = flags.get("http").cloned();
    if http_addr.is_some() && stdin_mode {
        return Err("pick one front end: --stdin or --http ADDR".to_string());
    }
    let mut service = DetectService::start(detector, cfg);
    if let Some(addr) = http_addr {
        let listener = std::net::TcpListener::bind(&addr).map_err(|e| e.to_string())?;
        let bound = listener.local_addr().map_err(|e| e.to_string())?;
        eprintln!("listening on http://{bound} (POST /detect, GET /healthz, GET /metrics)");
        // Runs until the process is terminated.
        let stop = std::sync::atomic::AtomicBool::new(false);
        etsb_serve::http::run(&service, listener, &stop).map_err(|e| e.to_string())?;
    } else {
        let stdin = std::io::stdin();
        etsb_serve::stdio::run(&service, stdin.lock(), std::io::stdout())
            .map_err(|e| e.to_string())?;
    }
    service.shutdown();
    let m = service.metrics();
    eprintln!(
        "served {} request(s) in {} batch(es): {} cells admitted, cache {}/{} hit/miss, \
         {} timeout(s), {} overload(s)",
        m.requests,
        m.batches,
        m.admitted_cells,
        m.cache.hits,
        m.cache.misses,
        m.timeouts,
        m.overloaded
    );
    Ok(())
}

/// `etsb repair`.
pub fn repair(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["dirty", "clean", "epochs", "seed", "out"])?;
    let (dirty, _, frame) = load_pair(&flags)?;
    // Repair quality is compared against exact-path baselines; keep it
    // on the bitwise kernels.
    let (_, mask, metrics, _, _, _) = run_detection(&frame, &flags, KernelPolicy::Exact)?;
    println!("detection F1 {:.3}", metrics.f1);

    let repairer = Repairer::fit(&frame, &mask);
    let proposals = repairer.propose_all(&frame, &mask);
    let eval = evaluate(&frame, &mask, &proposals);
    println!(
        "repairs: {} proposed, {} correct (precision {:.3}); errors {} -> {}",
        eval.proposed, eval.correct, eval.repair_precision, eval.errors_before, eval.errors_after
    );
    if let Some(out) = flags.get("out") {
        let repaired = repairer.apply(&dirty, &proposals);
        csv::write_file(&repaired, out).map_err(|e| e.to_string())?;
        println!("wrote repaired table to {out}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> Vec<String> {
        pairs
            .iter()
            .flat_map(|(k, v)| [format!("--{k}"), v.to_string()])
            .collect()
    }

    #[test]
    fn parse_flags_happy_path() {
        let args = flags(&[("dataset", "beers"), ("scale", "0.1")]);
        let map = parse_flags(&args, &["dataset", "scale"]).unwrap();
        assert_eq!(map["dataset"], "beers");
        assert_eq!(map["scale"], "0.1");
    }

    #[test]
    fn parse_flags_rejects_unknown_and_dangling() {
        assert!(parse_flags(&flags(&[("bogus", "1")]), &["dataset"]).is_err());
        assert!(parse_flags(&["--dataset".to_string()], &["dataset"]).is_err());
        assert!(parse_flags(&["dataset".to_string()], &["dataset"]).is_err());
    }

    #[test]
    fn parse_or_defaults_and_errors() {
        let map = parse_flags(&flags(&[("scale", "abc")]), &["scale"]).unwrap();
        assert!(parse_or::<f64>(&map, "scale", 1.0).is_err());
        assert_eq!(parse_or::<f64>(&map, "missing", 2.5).unwrap(), 2.5);
    }

    #[test]
    fn generate_round_trips_through_files() {
        let dir = std::env::temp_dir();
        let d = dir.join("etsb_cli_test_dirty.csv");
        let c = dir.join("etsb_cli_test_clean.csv");
        let args = flags(&[
            ("dataset", "rayyan"),
            ("scale", "0.03"),
            ("seed", "5"),
            ("dirty", d.to_str().unwrap()),
            ("clean", c.to_str().unwrap()),
        ]);
        generate(&args).unwrap();
        let dirty = csv::read_file(&d).unwrap();
        let clean = csv::read_file(&c).unwrap();
        assert_eq!(dirty.shape(), clean.shape());
        assert_eq!(dirty.n_cols(), 10);
        std::fs::remove_file(d).ok();
        std::fs::remove_file(c).ok();
    }

    #[test]
    fn emit_format_is_chosen_by_extension_and_lines_are_stable() {
        assert_eq!(EmitFormat::of("out.csv"), EmitFormat::Csv);
        assert_eq!(EmitFormat::of("out"), EmitFormat::Csv);
        assert_eq!(EmitFormat::of("out.jsonl"), EmitFormat::Jsonl);

        let mut csv_text = String::from(EmitFormat::Csv.header());
        EmitFormat::Csv.push_line(&mut csv_text, 3, "zip", "a\"b");
        assert_eq!(
            csv_text,
            "tuple_id,attribute,value,flagged\n3,zip,\"a\"\"b\",1\n"
        );

        let mut jsonl = String::from(EmitFormat::Jsonl.header());
        EmitFormat::Jsonl.push_line(&mut jsonl, 3, "zip", "ok");
        assert_eq!(
            jsonl,
            "{\"attribute\":\"zip\",\"flagged\":true,\"tuple_id\":3,\"value\":\"ok\"}\n"
        );
    }

    /// A flagged-cell CSV reads back through `etsb_table::csv` to the
    /// original attribute and value, whatever characters they hold.
    #[test]
    fn csv_lines_round_trip_through_the_table_reader() {
        let (attr, value) = ("a,b", "5\" \"x\", C:\\tmp\tend\nnext");
        let mut text = String::from(EmitFormat::Csv.header());
        EmitFormat::Csv.push_line(&mut text, 7, attr, value);
        EmitFormat::Csv.push_line(&mut text, 8, "zip", "plain");
        let table = etsb_table::csv::parse(&text).unwrap();
        assert_eq!(
            table.columns(),
            ["tuple_id", "attribute", "value", "flagged"]
        );
        assert_eq!(table.n_rows(), 2);
        let row = |r: usize| (0..4).map(|c| table.cell(r, c)).collect::<Vec<_>>();
        assert_eq!(row(0), ["7", attr, value, "1"]);
        assert_eq!(row(1), ["8", "zip", "plain", "1"]);
    }

    /// A label budget that leaves no training cells or no test cells, or
    /// zero epochs (which would report and save the untrained weights),
    /// is an input error, not a panic or a useless run.
    #[test]
    fn detect_rejects_tuples_that_leave_either_split_empty() {
        let mut dirty = Table::with_columns(&["a", "b"]);
        let mut clean = Table::with_columns(&["a", "b"]);
        for i in 0..6 {
            let v = format!("v{i}");
            dirty.push_row_strs(&[&format!("{v}x"), "w"]);
            clean.push_row_strs(&[&v, "w"]);
        }
        let frame = CellFrame::merge(&dirty, &clean).unwrap();
        for tuples in ["0", "6", "7"] {
            let map = parse_flags(
                &flags(&[("tuples", tuples), ("epochs", "1")]),
                &["tuples", "epochs"],
            )
            .unwrap();
            let err = run_detection(&frame, &map, KernelPolicy::Exact)
                .err()
                .unwrap_or_else(|| panic!("--tuples {tuples} was accepted"));
            assert!(err.contains(&format!("--tuples {tuples} ")), "{err}");
        }
        let map = parse_flags(
            &flags(&[("tuples", "2"), ("epochs", "0")]),
            &["tuples", "epochs"],
        )
        .unwrap();
        let err =
            run_detection(&frame, &map, KernelPolicy::Exact).expect_err("--epochs 0 was accepted");
        assert_eq!(err, "--epochs must be at least 1");
    }

    /// `detect --chunk-rows N --out` re-scans the pair from disk and must
    /// write the bytes the in-memory writer writes, ground truth on the
    /// labelled tuples included. The one-letter city typos keep the
    /// model wrong on some labelled cells, so a writer that emitted its
    /// predictions there would differ.
    #[test]
    fn streamed_detect_output_matches_the_in_memory_writer() {
        let dir = std::env::temp_dir().join(format!("etsb_cli_stream_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let places = [
            ("boston", "ma"),
            ("chicago", "il"),
            ("denver", "co"),
            ("austin", "tx"),
            ("seattle", "wa"),
        ];
        let mut dirty = Table::with_columns(&["city", "state", "zip"]);
        let mut clean = Table::with_columns(&["city", "state", "zip"]);
        for i in 0..40 {
            let (city, state) = places[i % places.len()];
            let zip = (10_000 + 37 * i).to_string();
            clean.push_row_strs(&[city, state, &zip]);
            let dirty_city = match i % 7 {
                0 => format!("{}m", &city[..city.len() - 1]),
                3 => String::new(),
                _ => city.to_string(),
            };
            let dirty_zip = if i % 5 == 1 { format!("{zip}x") } else { zip };
            dirty.push_row_strs(&[&dirty_city, state, &dirty_zip]);
        }
        let (d, c) = (dir.join("dirty.csv"), dir.join("clean.csv"));
        csv::write_file(&dirty, &d).unwrap();
        csv::write_file(&clean, &c).unwrap();
        for (ext, fast_math) in [("csv", false), ("jsonl", false), ("csv", true)] {
            let run = |chunk_rows: &str| {
                let out = dir.join(format!("flagged_{chunk_rows}.{ext}"));
                let mut args = flags(&[
                    ("dirty", d.to_str().unwrap()),
                    ("clean", c.to_str().unwrap()),
                    ("tuples", "4"),
                    ("epochs", "1"),
                    ("chunk-rows", chunk_rows),
                    ("out", out.to_str().unwrap()),
                ]);
                if fast_math {
                    args.push("--fast-math".to_string());
                }
                detect(&args).unwrap();
                std::fs::read_to_string(out).unwrap()
            };
            let in_memory = run("0");
            let header = EmitFormat::of(&format!(".{ext}")).header();
            assert!(
                in_memory.len() > header.len(),
                "no flagged cells written (.{ext}, fast-math {fast_math})"
            );
            assert_eq!(
                in_memory,
                run("7"),
                "streamed output differs (.{ext}, fast-math {fast_math})"
            );
        }
        std::fs::remove_dir_all(dir).ok();
    }

    /// `serve --threshold` is a probability; anything else (NaN, a
    /// percentage) would flag nothing or everything without complaint.
    /// Checked before the model file is read.
    #[test]
    fn serve_rejects_a_threshold_outside_zero_one() {
        for threshold in ["nan", "-0.1", "1.5", "50"] {
            let err = serve(&flags(&[
                ("model", "/nonexistent"),
                ("threshold", threshold),
            ]))
            .expect_err("threshold accepted");
            assert!(
                err.starts_with("--threshold must be a probability in [0, 1], got "),
                "--threshold {threshold}: {err}"
            );
        }
    }

    #[test]
    fn serve_rejects_a_zero_timeout_or_queue() {
        for flag in ["timeout-ms", "queue-cells"] {
            let err = serve(&flags(&[("model", "/nonexistent"), (flag, "0")]))
                .expect_err("zero accepted");
            assert_eq!(err, format!("--{flag} must be at least 1"));
        }
    }

    #[test]
    fn generate_rejects_unknown_dataset() {
        let args = flags(&[
            ("dataset", "nope"),
            ("dirty", "/tmp/x"),
            ("clean", "/tmp/y"),
        ]);
        assert!(generate(&args).is_err());
    }
}
