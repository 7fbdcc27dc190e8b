//! `etsb` — command-line interface to the ETSB-RNN error-detection and
//! repair stack.
//!
//! ```text
//! etsb generate --dataset beers --scale 0.1 --dirty d.csv --clean c.csv
//! etsb stats    --dirty d.csv --clean c.csv
//! etsb detect   --dirty d.csv --clean c.csv [--model etsb] [--epochs 120] [--out preds.csv]
//! etsb repair   --dirty d.csv --clean c.csv [--out repaired.csv]
//! ```
//!
//! `--clean` provides the ground truth used to (a) simulate the user's
//! labelling of the 20 sampled tuples and (b) score the result — the same
//! protocol as the paper's experiments.

#![cfg_attr(not(test), warn(clippy::disallowed_methods))]

mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    if let Err(e) = etsb_obs::init_from_env() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "generate" => commands::generate(rest),
        "stats" => commands::stats(rest),
        "detect" => commands::detect(rest),
        "apply" => commands::apply(rest),
        "repair" => commands::repair(rest),
        "serve" => commands::serve(rest),
        "--help" | "-h" | "help" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", commands::USAGE)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}
