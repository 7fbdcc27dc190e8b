//! Span profiler: folds `span_start`/`span_end` trace events into
//! per-span-name rollups — call count, total wall time, self-time
//! (total minus time spent in child spans), and per-parent attribution.
//!
//! Runs offline: the `trace_profile` bin replays an
//! `ETSB_TRACE=jsonl:<path>` file through [`SpanProfile::ingest_jsonl`],
//! and tests fold captured events with [`SpanProfile::from_events`].
//!
//! Attribution uses the event's `span` path (the dot-joined stack of
//! open spans): the last segment is the span's own name, the
//! second-to-last its parent. Durations come from the `dur_us` field on
//! `span_end`, so only completed spans are counted. Self-time is
//! `total − Σ child totals`; a span name that appears under several
//! parents aggregates into one rollup, with the per-parent split kept
//! in the edge table.

use crate::json;
use crate::Event;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Parent name used for spans opened at the root of a thread's stack.
pub const ROOT: &str = "(root)";

/// Aggregate statistics for one span name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Completed calls.
    pub calls: u64,
    /// Total wall time across calls, microseconds.
    pub total_us: u64,
    /// Largest single call, microseconds.
    pub max_us: u64,
}

/// One row of the profiler report (see [`SpanProfile::rows`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileRow {
    /// Span name (last path segment).
    pub name: String,
    /// Completed calls.
    pub calls: u64,
    /// Total wall time, microseconds.
    pub total_us: u64,
    /// Self time: total minus child span totals, microseconds
    /// (saturating, so re-entrant spans cannot go negative).
    pub self_us: u64,
    /// Largest single call, microseconds.
    pub max_us: u64,
}

/// Folded view of a span event stream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanProfile {
    /// Per-span-name aggregates.
    spans: BTreeMap<String, SpanStats>,
    /// Per-(parent, child) aggregates; parent is [`ROOT`] at the top of
    /// a thread's stack.
    edges: BTreeMap<(String, String), SpanStats>,
    /// Events observed (any kind), for sanity reporting.
    events_seen: u64,
}

impl SpanProfile {
    /// An empty profile.
    pub fn new() -> SpanProfile {
        SpanProfile::default()
    }

    /// Fold one trace event. Only `span_end` events with a `dur_us`
    /// field contribute; everything else just bumps the event count.
    pub fn observe(&mut self, event: &Event) {
        self.events_seen += 1;
        if event.kind != "span_end" {
            return;
        }
        let dur_us = event.fields.iter().find_map(|(k, v)| match (k, v) {
            (&"dur_us", crate::FieldValue::U64(n)) => Some(*n),
            _ => None,
        });
        let Some(dur_us) = dur_us else { return };
        self.fold(&event.span, dur_us);
    }

    /// Fold one completed span given its dot-joined path and duration.
    fn fold(&mut self, path: &str, dur_us: u64) {
        let mut segments = path.rsplit('.');
        let Some(name) = segments.next().filter(|s| !s.is_empty()) else {
            return;
        };
        let parent = segments.next().filter(|s| !s.is_empty()).unwrap_or(ROOT);
        let stats = self.spans.entry(name.to_string()).or_default();
        stats.calls += 1;
        stats.total_us += dur_us;
        stats.max_us = stats.max_us.max(dur_us);
        let edge = self
            .edges
            .entry((parent.to_string(), name.to_string()))
            .or_default();
        edge.calls += 1;
        edge.total_us += dur_us;
        edge.max_us = edge.max_us.max(dur_us);
    }

    /// Fold every line of a JSONL trace file. Lines are the schema
    /// emitted by [`crate::sink::JsonlSink`]; non-span lines are
    /// counted and skipped, malformed JSON is an error (with its line
    /// number) so a truncated file cannot silently under-report.
    pub fn ingest_jsonl(&mut self, text: &str) -> Result<(), String> {
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let value = json::parse(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
            self.events_seen += 1;
            let kind = value.get("kind").and_then(json::Value::as_str);
            if kind != Some("span_end") {
                continue;
            }
            let Some(span) = value.get("span").and_then(json::Value::as_str) else {
                continue;
            };
            let dur_us = value
                .get("fields")
                .and_then(|f| f.get("dur_us"))
                .and_then(json::Value::as_f64);
            let Some(dur_us) = dur_us else { continue };
            if dur_us < 0.0 {
                return Err(format!("line {}: negative dur_us", idx + 1));
            }
            self.fold(span, dur_us as u64);
        }
        Ok(())
    }

    /// Build a profile from captured events.
    pub fn from_events(events: &[Event]) -> SpanProfile {
        let mut profile = SpanProfile::new();
        for event in events {
            profile.observe(event);
        }
        profile
    }

    /// Total events observed (any kind).
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Aggregate stats for one span name, if it completed at least once.
    pub fn span(&self, name: &str) -> Option<&SpanStats> {
        self.spans.get(name)
    }

    /// Report rows, sorted by descending self-time (ties broken by
    /// name, so output is deterministic).
    pub fn rows(&self) -> Vec<ProfileRow> {
        let mut child_totals: BTreeMap<&str, u64> = BTreeMap::new();
        for ((parent, _), stats) in &self.edges {
            if parent != ROOT {
                *child_totals.entry(parent.as_str()).or_default() += stats.total_us;
            }
        }
        let mut rows: Vec<ProfileRow> = self
            .spans
            .iter()
            .map(|(name, stats)| {
                let children = child_totals.get(name.as_str()).copied().unwrap_or(0);
                ProfileRow {
                    name: name.clone(),
                    calls: stats.calls,
                    total_us: stats.total_us,
                    self_us: stats.total_us.saturating_sub(children),
                    max_us: stats.max_us,
                }
            })
            .collect();
        rows.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.name.cmp(&b.name)));
        rows
    }

    /// Per-parent attribution for one span name: `(parent, stats)` in
    /// descending total-time order (ties by parent name).
    pub fn parents_of(&self, name: &str) -> Vec<(String, SpanStats)> {
        let mut out: Vec<(String, SpanStats)> = self
            .edges
            .iter()
            .filter(|((_, child), _)| child == name)
            .map(|((parent, _), stats)| (parent.clone(), stats.clone()))
            .collect();
        out.sort_by(|a, b| b.1.total_us.cmp(&a.1.total_us).then(a.0.cmp(&b.0)));
        out
    }

    /// Render the sorted self-time table. `top` limits the row count
    /// (0 = all rows).
    pub fn render_table(&self, top: usize) -> String {
        let rows = self.rows();
        let shown = if top == 0 {
            rows.len()
        } else {
            top.min(rows.len())
        };
        let total_self: u64 = rows.iter().map(|r| r.self_us).sum();
        let name_width = rows
            .iter()
            .take(shown)
            .map(|r| r.name.len())
            .chain(["span".len()])
            .max()
            .unwrap_or(4);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<name_width$}  {:>9}  {:>12}  {:>12}  {:>6}  {:>10}",
            "span", "calls", "self_ms", "total_ms", "self%", "max_ms"
        );
        for row in rows.iter().take(shown) {
            let pct = if total_self == 0 {
                0.0
            } else {
                100.0 * row.self_us as f64 / total_self as f64
            };
            let _ = writeln!(
                out,
                "{:<name_width$}  {:>9}  {:>12.3}  {:>12.3}  {:>6.1}  {:>10.3}",
                row.name,
                row.calls,
                row.self_us as f64 / 1000.0,
                row.total_us as f64 / 1000.0,
                pct,
                row.max_us as f64 / 1000.0,
            );
        }
        if shown < rows.len() {
            let _ = writeln!(out, "... {} more spans", rows.len() - shown);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FieldValue;

    fn span_end(path: &str, dur_us: u64) -> Event {
        Event {
            ts_rel_us: 0,
            span: path.to_string(),
            kind: "span_end",
            fields: vec![("dur_us", FieldValue::U64(dur_us))],
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let events = vec![
            span_end("train.epoch.forward", 30),
            span_end("train.epoch.backward", 50),
            span_end("train.epoch", 100),
            span_end("train", 120),
        ];
        let profile = SpanProfile::from_events(&events);
        let rows = profile.rows();
        let by_name = |n: &str| rows.iter().find(|r| r.name == n).cloned();
        let epoch = by_name("epoch").expect("epoch row");
        assert_eq!(epoch.total_us, 100);
        assert_eq!(epoch.self_us, 20); // 100 - (30 + 50)
        let train = by_name("train").expect("train row");
        assert_eq!(train.self_us, 20); // 120 - 100
        let backward = by_name("backward").expect("backward row");
        assert_eq!(backward.self_us, 50);
        // Sorted by descending self-time, name-tiebreak: backward(50),
        // forward(30), then epoch/train tied at 20 in name order.
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["backward", "forward", "epoch", "train"]);
    }

    #[test]
    fn per_parent_attribution_splits_shared_names() {
        let events = vec![
            span_end("train.matmul", 10),
            span_end("eval.matmul", 5),
            span_end("eval.matmul", 5),
        ];
        let profile = SpanProfile::from_events(&events);
        let matmul = profile.span("matmul").expect("matmul stats");
        assert_eq!(matmul.calls, 3);
        assert_eq!(matmul.total_us, 20);
        let parents = profile.parents_of("matmul");
        assert_eq!(parents.len(), 2);
        assert_eq!(parents[0].0, "eval");
        assert_eq!(parents[0].1.total_us, 10);
        assert_eq!(parents[1].0, "train");
        assert_eq!(parents[1].1.calls, 1);
    }

    #[test]
    fn root_spans_attribute_to_root() {
        let profile = SpanProfile::from_events(&[span_end("solo", 42)]);
        let parents = profile.parents_of("solo");
        assert_eq!(parents.len(), 1);
        assert_eq!(parents[0].0, ROOT);
    }

    #[test]
    fn jsonl_ingestion_matches_event_folding() {
        let events = vec![
            span_end("a.b", 10),
            span_end("a", 25),
            Event {
                ts_rel_us: 1,
                span: "a".to_string(),
                kind: "event",
                fields: vec![("name", FieldValue::Str("x".into()))],
            },
        ];
        let text: String = events.iter().map(|e| e.to_json_line() + "\n").collect();
        let mut from_jsonl = SpanProfile::new();
        from_jsonl.ingest_jsonl(&text).expect("valid trace");
        let direct = SpanProfile::from_events(&events);
        assert_eq!(from_jsonl, direct);
        assert_eq!(from_jsonl.events_seen(), 3);
    }

    #[test]
    fn jsonl_ingestion_rejects_malformed_lines() {
        let mut profile = SpanProfile::new();
        let err = profile.ingest_jsonl("{\"kind\":\n").expect_err("bad json");
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn table_renders_sorted_rows() {
        let profile = SpanProfile::from_events(&[span_end("big", 9000), span_end("small", 1000)]);
        let table = profile.render_table(0);
        let big_line = table.lines().nth(1).expect("first data row");
        assert!(big_line.starts_with("big"), "{table}");
        assert!(big_line.contains("90.0"), "self%% column: {table}");
        let limited = profile.render_table(1);
        assert!(limited.contains("1 more spans"), "{limited}");
    }
}
