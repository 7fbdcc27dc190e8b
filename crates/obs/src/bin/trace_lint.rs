//! `trace_lint`: validate an `ETSB_TRACE` JSONL trace, a run manifest,
//! and/or a Prometheus text exposition. Used by `run_checks.sh` to gate
//! the observability layer: every trace line must be a valid JSON object
//! carrying the stable schema keys and one of the three event kinds, the
//! manifest must carry every required field, and an exposition must
//! satisfy the histogram invariants (`etsb_obs::expo::validate`).
//!
//! Usage:
//!   trace_lint [--trace <trace.jsonl>] [--manifest <manifest.json>]
//!              [--expo <metrics.prom>]
//!
//! Exits nonzero on the first structural violation, printing the
//! offending line number and reason.

use etsb_obs::json;

const TRACE_REQUIRED_KEYS: &[&str] = &["ts_rel_us", "span", "kind", "fields"];
const TRACE_KINDS: &[&str] = &["span_start", "span_end", "event"];
const DATASET_REQUIRED_KEYS: &[&str] = &["name", "rows", "cols", "cells"];

fn usage() -> String {
    "usage: trace_lint [--trace <trace.jsonl>] [--manifest <manifest.json>] [--expo <metrics.prom>]"
        .to_string()
}

struct Args {
    trace: Option<String>,
    manifest: Option<String>,
    expo: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        trace: None,
        manifest: None,
        expo: None,
    };
    let mut iter = argv.iter();
    while let Some(flag) = iter.next() {
        let slot = match flag.as_str() {
            "--trace" => &mut args.trace,
            "--manifest" => &mut args.manifest,
            "--expo" => &mut args.expo,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        };
        match iter.next() {
            Some(value) => *slot = Some(value.clone()),
            None => return Err(format!("{flag} requires a path\n{}", usage())),
        }
    }
    if args.trace.is_none() && args.manifest.is_none() && args.expo.is_none() {
        return Err(format!("nothing to lint\n{}", usage()));
    }
    Ok(args)
}

/// Validate one trace line; returns a reason on violation.
fn lint_trace_line(line: &str) -> Result<(), String> {
    let value = json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    for key in TRACE_REQUIRED_KEYS {
        if value.get(key).is_none() {
            return Err(format!("missing required key {key:?}"));
        }
    }
    let ts = value
        .get("ts_rel_us")
        .and_then(json::Value::as_f64)
        .ok_or("ts_rel_us is not a number")?;
    if !(ts >= 0.0 && ts.fract() == 0.0) {
        return Err(format!(
            "ts_rel_us must be a non-negative integer, got {ts}"
        ));
    }
    if value.get("span").and_then(json::Value::as_str).is_none() {
        return Err("span is not a string".to_string());
    }
    let kind = value
        .get("kind")
        .and_then(json::Value::as_str)
        .ok_or("kind is not a string")?;
    if !TRACE_KINDS.contains(&kind) {
        return Err(format!(
            "unknown kind {kind:?} (expected one of {TRACE_KINDS:?})"
        ));
    }
    match value.get("fields") {
        Some(json::Value::Obj(fields)) => {
            for (name, field) in fields {
                match field {
                    json::Value::Arr(_) | json::Value::Obj(_) => {
                        return Err(format!("field {name:?} is not a scalar"));
                    }
                    _ => {}
                }
            }
        }
        _ => return Err("fields is not an object".to_string()),
    }
    if kind == "span_end" && value.get("fields").and_then(|f| f.get("dur_us")).is_none() {
        return Err("span_end event lacks dur_us field".to_string());
    }
    Ok(())
}

fn lint_trace_text(path: &str, text: &str) -> Result<usize, String> {
    let mut count = 0usize;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        lint_trace_line(line).map_err(|reason| format!("{path}:{}: {reason}", idx + 1))?;
        count += 1;
    }
    if count == 0 {
        return Err(format!("{path}: trace contains no events"));
    }
    Ok(count)
}

fn lint_trace(path: &str) -> Result<usize, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read trace: {e}"))?;
    lint_trace_text(path, &text)
}

fn lint_expo(path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{path}: cannot read exposition: {e}"))?;
    etsb_obs::expo::validate(&text).map_err(|reason| format!("{path}: {reason}"))
}

fn lint_manifest(path: &str) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read manifest: {e}"))?;
    let value = json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    for key in etsb_obs::MANIFEST_REQUIRED_KEYS {
        if value.get(key).is_none() {
            return Err(format!("{path}: manifest missing required key {key:?}"));
        }
    }
    let datasets = match value.get("datasets") {
        Some(json::Value::Arr(items)) if !items.is_empty() => items,
        Some(json::Value::Arr(_)) => {
            return Err(format!("{path}: manifest lists no datasets"));
        }
        _ => return Err(format!("{path}: manifest \"datasets\" is not an array")),
    };
    for (idx, dataset) in datasets.iter().enumerate() {
        for key in DATASET_REQUIRED_KEYS {
            if dataset.get(key).is_none() {
                return Err(format!(
                    "{path}: datasets[{idx}] missing required key {key:?}"
                ));
            }
        }
    }
    match value.get("config") {
        Some(json::Value::Obj(_)) => Ok(()),
        _ => Err(format!("{path}: manifest \"config\" is not an object")),
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv)?;
    if let Some(trace) = &args.trace {
        let events = lint_trace(trace)?;
        println!("trace_lint: {trace}: {events} events OK");
    }
    if let Some(manifest) = &args.manifest {
        lint_manifest(manifest)?;
        println!("trace_lint: {manifest}: manifest OK");
    }
    if let Some(expo) = &args.expo {
        let families = lint_expo(expo)?;
        println!("trace_lint: {expo}: {families} metric families OK");
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(message) = run(&argv) {
        eprintln!("trace_lint: {message}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_lines() {
        let line =
            r#"{"ts_rel_us":12,"span":"a.b","kind":"event","fields":{"name":"x","value":3}}"#;
        assert!(lint_trace_line(line).is_ok());
    }

    #[test]
    fn rejects_missing_keys_and_bad_kinds() {
        assert!(lint_trace_line(r#"{"span":"a","kind":"event","fields":{}}"#).is_err());
        for kind in ["bogus", "counter", "gauge"] {
            let line = format!(r#"{{"ts_rel_us":1,"span":"a","kind":"{kind}","fields":{{}}}}"#);
            assert!(lint_trace_line(&line).is_err(), "{kind}");
        }
        assert!(lint_trace_line("not json").is_err());
        // span_end must carry its duration.
        assert!(
            lint_trace_line(r#"{"ts_rel_us":1,"span":"a","kind":"span_end","fields":{}}"#).is_err()
        );
    }

    #[test]
    fn expo_fixtures_positive_and_negative() {
        // Positive fixture: a rendered registry round-trips through the
        // shared validator that --expo invokes.
        let registry = etsb_obs::registry::Registry::new();
        registry.counter("x_total").add(7);
        registry
            .histogram_with_bounds("lat_ns", &[10, 100])
            .record(42);
        let good = etsb_obs::expo::render(&registry.snapshot());
        assert_eq!(etsb_obs::expo::validate(&good), Ok(2));
        // Negative fixture: a decreasing cumulative bucket series
        // (le="10" claims more observations than le="100").
        let bad = good.replace("lat_ns_bucket{le=\"10\"} 0", "lat_ns_bucket{le=\"10\"} 2");
        assert!(etsb_obs::expo::validate(&bad).is_err());
    }
}
