//! `trace_profile`: render a sorted self-time table from an
//! `ETSB_TRACE=jsonl:<path>` trace file.
//!
//! Usage:
//!
//! ```text
//! trace_profile --trace <trace.jsonl> [--top <n>] [--parents <span>]
//! ```
//!
//! Folds every completed span (`span_end` events) into per-span-name
//! rollups via `etsb_obs::profile::SpanProfile` and prints them sorted
//! by descending self-time. `--parents <span>` additionally prints the
//! per-parent attribution for one span name. Exits nonzero on a
//! malformed trace or a trace with no completed spans.

use etsb_obs::profile::SpanProfile;

fn usage() -> String {
    "usage: trace_profile --trace <trace.jsonl> [--top <n>] [--parents <span>]".to_string()
}

struct Args {
    trace: String,
    top: usize,
    parents: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut trace = None;
    let mut top = 0usize;
    let mut parents = None;
    let mut iter = argv.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--trace" => match iter.next() {
                Some(value) => trace = Some(value.clone()),
                None => return Err(format!("--trace requires a path\n{}", usage())),
            },
            "--top" => match iter.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) => top = n,
                _ => return Err(format!("--top requires a count\n{}", usage())),
            },
            "--parents" => match iter.next() {
                Some(value) => parents = Some(value.clone()),
                None => return Err(format!("--parents requires a span name\n{}", usage())),
            },
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    match trace {
        Some(trace) => Ok(Args {
            trace,
            top,
            parents,
        }),
        None => Err(format!("--trace is required\n{}", usage())),
    }
}

fn run(argv: &[String]) -> Result<String, String> {
    let args = parse_args(argv)?;
    let text = std::fs::read_to_string(&args.trace)
        .map_err(|e| format!("{}: cannot read trace: {e}", args.trace))?;
    let mut profile = SpanProfile::new();
    profile
        .ingest_jsonl(&text)
        .map_err(|reason| format!("{}: {reason}", args.trace))?;
    let rows = profile.rows();
    if rows.is_empty() {
        return Err(format!(
            "{}: no completed spans in {} events",
            args.trace,
            profile.events_seen()
        ));
    }
    let mut out = format!(
        "trace_profile: {} — {} events, {} span names\n\n{}",
        args.trace,
        profile.events_seen(),
        rows.len(),
        profile.render_table(args.top),
    );
    if let Some(name) = &args.parents {
        let edges = profile.parents_of(name);
        if edges.is_empty() {
            return Err(format!("{}: no completed span named {name:?}", args.trace));
        }
        out.push_str(&format!("\nparents of {name:?}:\n"));
        for (parent, stats) in edges {
            out.push_str(&format!(
                "  {parent:<24} calls {:>8}  total_ms {:>12.3}\n",
                stats.calls,
                stats.total_us as f64 / 1000.0,
            ));
        }
    }
    Ok(out)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(report) => print!("{report}"),
        Err(message) => {
            eprintln!("trace_profile: {message}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_trace(lines: &[&str]) -> std::path::PathBuf {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "trace_profile_test_{}_{}.jsonl",
            std::process::id(),
            lines.len()
        ));
        std::fs::write(&path, lines.join("\n")).expect("write fixture");
        path
    }

    #[test]
    fn renders_table_from_jsonl_fixture() {
        let path = write_trace(&[
            r#"{"ts_rel_us":1,"span":"train","kind":"span_start","fields":{}}"#,
            r#"{"ts_rel_us":2,"span":"train.forward","kind":"span_end","fields":{"dur_us":700}}"#,
            r#"{"ts_rel_us":3,"span":"train","kind":"span_end","fields":{"dur_us":1000}}"#,
        ]);
        let argv = vec!["--trace".to_string(), path.display().to_string()];
        let report = run(&argv).expect("profile runs");
        let _ = std::fs::remove_file(&path);
        assert!(report.contains("forward"), "{report}");
        // forward has more self-time (700) than train (300): it sorts first.
        let fwd = report.find("forward").expect("forward row");
        let train_row = report.rfind("train ").unwrap_or(usize::MAX);
        assert!(fwd < train_row, "{report}");
    }

    #[test]
    fn rejects_span_free_traces() {
        let path = write_trace(&[r#"{"ts_rel_us":1,"span":"x","kind":"span_start","fields":{}}"#]);
        let argv = vec!["--trace".to_string(), path.display().to_string()];
        let err = run(&argv).expect_err("no completed spans");
        let _ = std::fs::remove_file(&path);
        assert!(err.contains("no completed spans"), "{err}");
    }

    #[test]
    fn parents_flag_reports_attribution() {
        let path = write_trace(&[
            r#"{"ts_rel_us":1,"span":"a.kernel","kind":"span_end","fields":{"dur_us":10}}"#,
            r#"{"ts_rel_us":2,"span":"b.kernel","kind":"span_end","fields":{"dur_us":30}}"#,
        ]);
        let argv = vec![
            "--trace".to_string(),
            path.display().to_string(),
            "--parents".to_string(),
            "kernel".to_string(),
        ];
        let report = run(&argv).expect("profile runs");
        let _ = std::fs::remove_file(&path);
        let b = report.find("\n  b").expect("b parent row");
        let a = report.find("\n  a").expect("a parent row");
        assert!(b < a, "parents sorted by total time:\n{report}");
    }
}
