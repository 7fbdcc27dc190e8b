//! The metric catalogue and the result each run prints.
//!
//! Every run reports every metric of its set (end-to-end untraced,
//! per-layer traced). A layer a workload never calls reads 0 in the
//! per-layer set; README.md lists which layers each workload exercises.

use crate::spans::Trace;
use crate::Args;
use etsb_core::config::ExperimentConfig;
use etsb_core::manifest::DatasetInfo;
use etsb_obs::json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics (name, unit), measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("train_s", "s"),
    ("cells_per_s", "cells/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("max_rps", "req/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (name, unit), from the traced run. Each layer is
/// named after the module whose public call it times.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("encode.from_frame_ms", "ms"),
    ("sampling.select_ms", "ms"),
    ("model.train_batch_ms", "ms"),
    ("model.train_batches", "count"),
    ("nn.optimizer_step_ms", "ms"),
    ("train.checkpoint_ms", "ms"),
    ("train.eval_ms", "ms"),
    ("model.predict_ms", "ms"),
    ("tensor.train_gflops", "GFLOP/s"),
    ("table.scan_stats_ms", "ms"),
    ("table.read_row_ms", "ms"),
    ("stream.chunk_ms", "ms"),
    ("model.reps_per_cell", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("model.forward_us_per_cell", "us"),
    ("stream.peak_resident_kib", "KiB"),
    ("protocol.parse_us", "us"),
    ("protocol.render_us", "us"),
    ("engine.submit_us", "us"),
    ("engine.wait_p50_ms", "ms"),
    ("engine.wait_p99_ms", "ms"),
    ("engine.batch_ms", "ms"),
    ("engine.batch_cells", "cells"),
    ("engine.queue_depth_cells", "cells"),
    ("engine.overloaded", "count"),
    ("engine.timeouts", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
    ("eval.f1", "ratio"),
    ("obs.trace_overhead_share", "ratio"),
    ("accounted_share", "ratio"),
];

/// What a workload ran on, for the run manifest.
#[derive(Debug)]
pub struct WorkloadInfo {
    /// The detector configuration (paper dimensions, seed).
    pub config: ExperimentConfig,
    /// Generated tables the workload read.
    pub datasets: Vec<DatasetInfo>,
}

/// One workload run: checks, counts, metrics and the traced spans.
#[derive(Debug)]
pub struct Outcome {
    /// `(check, passed, detail)` in the order they were made.
    pub checks: Vec<(String, bool, String)>,
    /// Operations attempted (journeys, stream passes, requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra report lines (the traced run's layer breakdown).
    pub report: Vec<String>,
    /// Provenance of the run.
    pub manifest: WorkloadInfo,
    /// Spans of the traced run, written out at the end.
    pub trace: Option<Trace>,
}

impl Outcome {
    pub fn new(manifest: WorkloadInfo) -> Outcome {
        Outcome {
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            report: Vec::new(),
            manifest,
            trace: None,
        }
    }

    /// Record an output check.
    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        self.checks.push((name.to_string(), passed, detail));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Print the report and the result line, write the manifest (and the
    /// spans of a traced run) under `perfbench/results/`, and fail when
    /// an output check failed.
    pub fn finish(mut self, args: &Args, manifest: &Value) -> Result<(), String> {
        let table = if args.trace { PER_LAYER } else { END_TO_END };
        for (name, passed, detail) in &self.checks {
            println!(
                "check {:<28} {}  {detail}",
                name,
                if *passed { "ok  " } else { "FAIL" }
            );
        }
        for line in &self.report {
            println!("{line}");
        }
        let mut values = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                // A layer this workload never calls.
                None if args.trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            let valid = value.is_finite() && (args.trace || value > 0.0);
            if !valid {
                self.checks
                    .push((format!("metric {name}"), false, format!("measured {value}")));
            }
            println!("metric {name:<26} {value:>14.4} {unit}");
            values.push((name, unit, if value.is_finite() { value } else { 0.0 }));
        }
        let correct = self.checks.iter().all(|(_, passed, _)| *passed);

        let dir = results_dir();
        let stem = format!(
            "{}-seed{}-trace{}",
            args.workload,
            args.seed,
            u8::from(args.trace)
        );
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("{stem}.manifest.json"));
        std::fs::write(&path, manifest.to_json() + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        if let Some(trace) = &self.trace {
            let path = dir.join(format!("{stem}.spans.jsonl"));
            trace
                .write_jsonl(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("wrote {} spans to {}", trace.len(), path.display());
        }

        let metrics = Value::obj(values.into_iter().map(|(name, unit, value)| {
            (
                name.to_string(),
                Value::obj([
                    ("value".to_string(), Value::Num(value)),
                    ("unit".to_string(), Value::from(unit)),
                ]),
            )
        }));
        let result = Value::obj([
            ("correct".to_string(), Value::Bool(correct)),
            ("attempted".to_string(), Value::Num(self.attempted as f64)),
            ("failed".to_string(), Value::Num(self.failed as f64)),
            ("metrics".to_string(), metrics),
        ]);
        println!("{}", result.to_json());
        if correct {
            Ok(())
        } else {
            Err("an output check failed".to_string())
        }
    }
}

/// Where run manifests and span dumps go: `perfbench/results/`.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}
