//! Smoke checker for `etsb serve` output, used by `run_checks.sh`:
//!
//! * `serve_check --validate FILE` — every non-empty line of `FILE` must
//!   be a schema-valid response (see
//!   [`etsb_serve::protocol::validate_response_line`]).
//! * `serve_check --equal A B` — `A` and `B` must be byte-identical,
//!   asserting the coalescing-determinism contract end to end (a
//!   coalesced run and a batch-size-1 run must produce the same bytes).

use etsb_serve::protocol::validate_response_line;
use std::io::Write;
use std::process::ExitCode;

fn validate(path: &str, out: &mut impl Write) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut checked = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_response_line(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        checked += 1;
    }
    if checked == 0 {
        return Err(format!("{path}: no response lines to validate"));
    }
    writeln!(out, "serve_check: {checked} response line(s) schema-valid").map_err(|e| e.to_string())
}

fn equal(path_a: &str, path_b: &str, out: &mut impl Write) -> Result<(), String> {
    let a = std::fs::read(path_a).map_err(|e| format!("reading {path_a}: {e}"))?;
    let b = std::fs::read(path_b).map_err(|e| format!("reading {path_b}: {e}"))?;
    if a != b {
        let text_a = String::from_utf8_lossy(&a);
        let text_b = String::from_utf8_lossy(&b);
        let mut lines_b = text_b.lines();
        for (lineno, line_a) in text_a.lines().enumerate() {
            let line_b = lines_b.next().unwrap_or("<missing>");
            if line_a != line_b {
                return Err(format!(
                    "{path_a} and {path_b} differ at line {}:\n  {line_a}\n  {line_b}",
                    lineno + 1
                ));
            }
        }
        return Err(format!(
            "{path_a} and {path_b} differ (trailing content in {path_b})"
        ));
    }
    writeln!(
        out,
        "serve_check: {path_a} and {path_b} are byte-identical ({} bytes)",
        a.len()
    )
    .map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let result = match (args.first().map(String::as_str), args.len()) {
        (Some("--validate"), 2) => validate(&args[1], &mut out),
        (Some("--equal"), 3) => equal(&args[1], &args[2], &mut out),
        _ => Err("usage: serve_check --validate FILE | serve_check --equal FILE FILE".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            let stderr = std::io::stderr();
            let _ = writeln!(stderr.lock(), "serve_check: {e}");
            ExitCode::FAILURE
        }
    }
}
