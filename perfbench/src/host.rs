//! The host manifest printed beside every result: the repository's
//! `RunManifest` (seed, detector configuration, resolved workers,
//! version, features, datasets) plus the host facts that decide speed.

use crate::metrics::WorkloadInfo;
use crate::Args;
use etsb_core::{ExperimentConfig, RunManifest};
use etsb_obs::json::Value;
use std::path::Path;
use std::process::Command;

/// The run manifest as JSON.
pub fn manifest(args: &Args, info: &WorkloadInfo) -> Value {
    // Record the run's `--seed`; every table and detector seed derives from it.
    let config = ExperimentConfig {
        seed: args.seed,
        ..info.config.clone()
    };
    let mut value = RunManifest::new(&config, 1, info.datasets.clone()).to_json_value();
    if let Value::Obj(map) = &mut value {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let extra = [
            ("workload", Value::from(args.workload.as_str())),
            ("trace", Value::Bool(args.trace)),
            ("seconds", Value::Num(args.seconds)),
            ("cpu_model", Value::from(cpu_model())),
            ("nproc", Value::from(nproc)),
            (
                "simd_backend",
                Value::from(etsb_tensor::simd::active_backend().name()),
            ),
            ("git_commit", Value::from(git_commit())),
            (
                "rustc",
                Value::from(command_line("rustc", &["--version"], None)),
            ),
        ];
        for (key, v) in extra {
            map.insert(key.to_string(), v);
        }
    }
    value
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the repository the benchmark was built from, when that
/// is a git checkout; `unknown` otherwise (an exported tree).
fn git_commit() -> String {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !repo.join(".git").exists() {
        return "unknown".to_string();
    }
    command_line("git", &["rev-parse", "HEAD"], Some(&repo))
}

/// First line of a command's standard output, or `unknown` when it
/// cannot run or fails.
fn command_line(program: &str, args: &[&str], dir: Option<&Path>) -> String {
    let mut command = Command::new(program);
    command.args(args);
    if let Some(dir) = dir {
        command.current_dir(dir);
    }
    match command.output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("unknown")
            .trim()
            .to_string(),
        _ => "unknown".to_string(),
    }
}
