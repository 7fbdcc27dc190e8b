//! Paper-size benchmark of the ETSB-RNN error detector.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train_hospital|stream_hospital|serve_tax \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload drives the program only through its public entry
//! points on inputs generated from `--seed`, checks the outputs, prints
//! a human-readable report with a host manifest, and ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set, measured untraced;
//! with `--trace 1` they are the per-layer set, taken from spans the
//! benchmark records around each public call. A failed output check
//! makes the process exit with status 1. README.md defines every metric
//! per workload and the layer → end-to-end map.

mod host;
mod metrics;
mod serve;
mod setup;
mod spans;
mod stats;
mod stream;
mod train;

use metrics::Outcome;

const USAGE: &str =
    "usage: perfbench --workload train_hospital|stream_hospital|serve_tax --seed N --seconds S --trace 0|1";

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("{flag} requires a value"))?;
            let bad = |what: &str| format!("invalid {what} {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("seconds"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("trace")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run: fn(&Args) -> Result<Outcome, String> = match args.workload.as_str() {
        "train_hospital" => train::run,
        "stream_hospital" => stream::run,
        "serve_tax" => serve::run,
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let manifest = host::manifest(&args, &outcome.manifest);
    println!("manifest {}", manifest.to_json());
    if let Err(e) = outcome.finish(&args, &manifest) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
