//! Dependency-free Prometheus text-format exposition of a
//! [`RegistrySnapshot`], plus a
//! validator for the emitted format (used by `trace_lint --expo` and the
//! determinism suite).
//!
//! The rendering follows the Prometheus text exposition format
//! (`text/plain; version=0.0.4`): one `# TYPE` comment per metric
//! family, histogram buckets as *cumulative* `_bucket{le="…"}` series
//! ending with `le="+Inf"`, and `_sum` / `_count` companions. Bucket
//! `le` values are the registry's raw integer bounds; the unit lives in
//! the metric name (`…_ns`, `…_cells`), which keeps the rendering exact
//! and byte-deterministic.

use crate::registry::{InstrumentSnapshot, RegistrySnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Content-Type for the rendered exposition.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Render a snapshot as Prometheus text. Deterministic: equal snapshots
/// produce byte-identical output (name-sorted families, integer bucket
/// bounds, shortest-round-trip float formatting).
pub fn render(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.entries {
        let name = sanitize_name(name);
        match value {
            InstrumentSnapshot::Counter(v) => {
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name} {v}");
            }
            InstrumentSnapshot::Gauge(v) => {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {}", fmt_f64(*v));
            }
            InstrumentSnapshot::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {name} histogram");
                let mut cumulative = 0u64;
                for (le, n) in h.bounds.iter().zip(&h.buckets) {
                    cumulative += n;
                    let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
                let _ = writeln!(out, "{name}_sum {}", h.sum);
                let _ = writeln!(out, "{name}_count {}", h.count);
            }
        }
    }
    out
}

/// Map a registry instrument name onto the Prometheus metric-name
/// charset `[a-zA-Z_:][a-zA-Z0-9_:]*` (invalid characters become `_`).
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Format an f64 the way Prometheus expects (`+Inf`/`-Inf`/`NaN`
/// tokens; otherwise Rust's shortest round-trip `Display`).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// One parsed sample line.
struct Sample {
    name: String,
    le: Option<String>,
    value: f64,
    line_no: usize,
}

/// Validate a Prometheus text exposition as produced by [`render`]:
/// every sample belongs to a `# TYPE`-declared family, counter values
/// are finite and non-negative, histogram `_bucket` series have
/// ascending `le` bounds with non-decreasing cumulative counts ending in
/// `le="+Inf"`, and the `+Inf` bucket equals `_count`. Returns the
/// number of metric families, or a message naming the offending line.
pub fn validate(text: &str) -> Result<usize, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples: Vec<Sample> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let parts: Vec<&str> = comment.split_whitespace().collect();
            if parts.first() == Some(&"TYPE") {
                if parts.len() != 3 {
                    return Err(format!("line {line_no}: malformed # TYPE comment"));
                }
                if !matches!(parts[2], "counter" | "gauge" | "histogram") {
                    return Err(format!(
                        "line {line_no}: unsupported metric type {:?}",
                        parts[2]
                    ));
                }
                types.insert(parts[1].to_string(), parts[2].to_string());
            }
            continue;
        }
        samples.push(parse_sample(line, line_no)?);
    }

    let mut histograms: BTreeMap<String, Vec<&Sample>> = BTreeMap::new();
    for sample in &samples {
        let (family, suffix) = family_of(&sample.name, &types);
        let Some(kind) = types.get(&family) else {
            return Err(format!(
                "line {}: sample {:?} has no # TYPE declaration",
                sample.line_no, sample.name
            ));
        };
        match (kind.as_str(), suffix) {
            ("counter", "") => {
                if !sample.value.is_finite() || sample.value < 0.0 {
                    return Err(format!(
                        "line {}: counter {:?} must be finite and non-negative",
                        sample.line_no, sample.name
                    ));
                }
            }
            ("gauge", "") => {}
            ("histogram", "_bucket") => {
                if sample.le.is_none() {
                    return Err(format!(
                        "line {}: histogram bucket without le label",
                        sample.line_no
                    ));
                }
                histograms.entry(family).or_default().push(sample);
            }
            ("histogram", "_sum") | ("histogram", "_count") => {
                histograms.entry(family).or_default().push(sample);
            }
            _ => {
                return Err(format!(
                    "line {}: sample {:?} does not match its declared {kind} family",
                    sample.line_no, sample.name
                ));
            }
        }
    }

    for (family, series) in &histograms {
        validate_histogram(family, series)?;
    }
    Ok(types.len())
}

/// Split a sample name into its `# TYPE` family and the histogram
/// suffix (`_bucket`, `_sum`, `_count`, or `""`).
fn family_of(name: &str, types: &BTreeMap<String, String>) -> (String, &'static str) {
    if types.contains_key(name) {
        return (name.to_string(), "");
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return (base.to_string(), suffix);
            }
        }
    }
    (name.to_string(), "")
}

fn validate_histogram(family: &str, series: &[&Sample]) -> Result<(), String> {
    let buckets: Vec<&&Sample> = series.iter().filter(|s| s.le.is_some()).collect();
    if buckets.is_empty() {
        return Err(format!("histogram {family:?} has no buckets"));
    }
    let mut prev_le = None;
    let mut prev_cum = None;
    for (i, bucket) in buckets.iter().enumerate() {
        let le_raw = bucket.le.as_deref().unwrap_or_default();
        let last = i + 1 == buckets.len();
        if last {
            if le_raw != "+Inf" {
                return Err(format!(
                    "line {}: histogram {family:?} must end with le=\"+Inf\"",
                    bucket.line_no
                ));
            }
        } else {
            let le: f64 = le_raw
                .parse()
                .map_err(|_| format!("line {}: unparsable le={le_raw:?}", bucket.line_no))?;
            if let Some(prev) = prev_le {
                if le <= prev {
                    return Err(format!(
                        "line {}: histogram {family:?} le bounds not ascending",
                        bucket.line_no
                    ));
                }
            }
            prev_le = Some(le);
        }
        if !bucket.value.is_finite() || bucket.value < 0.0 {
            return Err(format!(
                "line {}: bucket count must be finite and non-negative",
                bucket.line_no
            ));
        }
        if let Some(prev) = prev_cum {
            if bucket.value < prev {
                return Err(format!(
                    "line {}: histogram {family:?} cumulative bucket counts decreased",
                    bucket.line_no
                ));
            }
        }
        prev_cum = Some(bucket.value);
    }
    let inf = buckets[buckets.len() - 1].value;
    let count = series
        .iter()
        .find(|s| s.le.is_none() && s.name.ends_with("_count"))
        .ok_or_else(|| format!("histogram {family:?} is missing _count"))?;
    if series
        .iter()
        .all(|s| s.le.is_some() || !s.name.ends_with("_sum"))
    {
        return Err(format!("histogram {family:?} is missing _sum"));
    }
    if count.value != inf {
        return Err(format!(
            "histogram {family:?}: _count {} != +Inf bucket {}",
            count.value, inf
        ));
    }
    Ok(())
}

fn parse_sample(line: &str, line_no: usize) -> Result<Sample, String> {
    if let Some(open) = line.find('{') {
        let close = line[open..]
            .find('}')
            .map(|i| open + i)
            .ok_or_else(|| format!("line {line_no}: unterminated label set"))?;
        let labels = &line[open + 1..close];
        let value = line[close + 1..].trim();
        finish_sample(&line[..open], Some(labels), value, line_no)
    } else {
        let mut parts = line.split_whitespace();
        let name = parts
            .next()
            .ok_or_else(|| format!("line {line_no}: empty sample"))?;
        let value = parts
            .next()
            .ok_or_else(|| format!("line {line_no}: sample {name:?} has no value"))?;
        if parts.next().is_some() {
            return Err(format!("line {line_no}: trailing tokens after value"));
        }
        finish_sample(name, None, value, line_no)
    }
}

fn finish_sample(
    name: &str,
    labels: Option<&str>,
    value: &str,
    line_no: usize,
) -> Result<Sample, String> {
    if name.is_empty()
        || !name.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
    {
        return Err(format!("line {line_no}: invalid metric name {name:?}"));
    }
    let mut le = None;
    if let Some(labels) = labels {
        for pair in labels.split(',').filter(|p| !p.is_empty()) {
            let (key, raw) = pair
                .split_once('=')
                .ok_or_else(|| format!("line {line_no}: malformed label {pair:?}"))?;
            let raw = raw.trim();
            if !(raw.starts_with('"') && raw.ends_with('"') && raw.len() >= 2) {
                return Err(format!("line {line_no}: label value must be quoted"));
            }
            if key.trim() == "le" {
                le = Some(raw[1..raw.len() - 1].to_string());
            }
        }
    }
    let parsed: f64 = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        other => other
            .parse()
            .map_err(|_| format!("line {line_no}: unparsable value {other:?}"))?,
    };
    Ok(Sample {
        name: name.to_string(),
        le,
        value: parsed,
        line_no,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Registry, COUNT_BOUNDS};

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("demo_requests_total").add(5);
        r.gauge("demo_queue_cells").set(3.0);
        let h = r.histogram_with_bounds("demo_latency_ns", &[1_000, 10_000]);
        h.record(500);
        h.record(500);
        h.record(5_000);
        h.record(50_000);
        r
    }

    #[test]
    fn renders_counters_gauges_and_cumulative_buckets() {
        let text = render(&sample_registry().snapshot());
        let expected = "\
# TYPE demo_latency_ns histogram
demo_latency_ns_bucket{le=\"1000\"} 2
demo_latency_ns_bucket{le=\"10000\"} 3
demo_latency_ns_bucket{le=\"+Inf\"} 4
demo_latency_ns_sum 56000
demo_latency_ns_count 4
# TYPE demo_queue_cells gauge
demo_queue_cells 3
# TYPE demo_requests_total counter
demo_requests_total 5
";
        assert_eq!(text, expected);
    }

    #[test]
    fn rendered_output_validates() {
        let r = sample_registry();
        r.histogram_with_bounds("empty_hist_ns", &COUNT_BOUNDS);
        let text = render(&r.snapshot());
        assert_eq!(validate(&text), Ok(4));
    }

    #[test]
    fn equal_snapshots_render_identical_bytes() {
        let a = render(&sample_registry().snapshot());
        let b = render(&sample_registry().snapshot());
        assert_eq!(a, b);
    }

    #[test]
    fn validate_rejects_broken_expositions() {
        let cases: &[(&str, &str)] = &[
            ("undeclared sample", "orphan_total 3\n"),
            ("negative counter", "# TYPE c_total counter\nc_total -1\n"),
            (
                "missing +Inf bucket",
                "# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_sum 5\nh_count 1\n",
            ),
            (
                "non-ascending le",
                "# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_bucket{le=\"5\"} 1\n\
                 h_bucket{le=\"+Inf\"} 1\nh_sum 5\nh_count 1\n",
            ),
            (
                "decreasing cumulative counts",
                "# TYPE h histogram\nh_bucket{le=\"10\"} 2\nh_bucket{le=\"20\"} 1\n\
                 h_bucket{le=\"+Inf\"} 2\nh_sum 5\nh_count 2\n",
            ),
            (
                "count mismatch",
                "# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_bucket{le=\"+Inf\"} 2\n\
                 h_sum 5\nh_count 3\n",
            ),
            (
                "missing _sum",
                "# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
            ),
            ("bad value", "# TYPE g gauge\ng pancake\n"),
        ];
        for (what, text) in cases {
            assert!(validate(text).is_err(), "accepted {what}: {text:?}");
        }
    }

    #[test]
    fn sanitize_maps_invalid_chars() {
        assert_eq!(
            sanitize_name("serve.detect-latency"),
            "serve_detect_latency"
        );
        assert_eq!(sanitize_name("9lives"), "_lives");
        assert_eq!(sanitize_name(""), "_");
    }
}
