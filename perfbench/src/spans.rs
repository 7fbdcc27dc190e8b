//! Spans the benchmark records around its calls into each layer: a name,
//! start, end and parent, plus a request id shared by the spans of one
//! serve request. They are kept in memory, written out when the run
//! ends, and folded into per-layer totals and self times.

use etsb_obs::json::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    /// Index of the enclosing span; parents always precede children.
    parent: Option<usize>,
    /// Request id (serve); 0 elsewhere.
    id: u64,
}

/// Per-name rollup of a subtree.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rollup {
    pub count: u64,
    /// Summed span durations, in milliseconds.
    pub total_ms: f64,
    /// Summed durations minus the time covered by child spans.
    pub self_ms: f64,
}

/// Report lines of a rollup: every layer's calls, total and self time
/// with its share of `wall_ms`, then the dominant layer. Returns the
/// lines and the share of `wall_ms` that layer spans account for.
/// `groups` names spans that only group layers (the root among them);
/// their self time counts as unaccounted.
pub fn breakdown(
    rollup: &BTreeMap<&'static str, Rollup>,
    wall_ms: f64,
    groups: &[&str],
) -> (Vec<String>, f64) {
    let mut layers: Vec<(&str, Rollup)> = rollup
        .iter()
        .filter(|(name, _)| !groups.contains(name))
        .map(|(&name, &r)| (name, r))
        .collect();
    layers.sort_by(|a, b| b.1.self_ms.total_cmp(&a.1.self_ms));
    let accounted: f64 = layers.iter().map(|(_, r)| r.self_ms).sum::<f64>() / wall_ms;
    let mut lines = vec![format!(
        "layer {:<22} {:>8} {:>12} {:>12} {:>7}",
        "name", "calls", "total_ms", "self_ms", "share"
    )];
    for (name, r) in &layers {
        lines.push(format!(
            "layer {name:<22} {:>8} {:>12.3} {:>12.3} {:>6.1}%",
            r.count,
            r.total_ms,
            r.self_ms,
            100.0 * r.self_ms / wall_ms
        ));
    }
    if let Some((name, r)) = layers.first() {
        lines.push(format!(
            "dominant layer: {name} ({:.1}% of traced wall time; layer spans account for {:.1}%)",
            100.0 * r.self_ms / wall_ms,
            100.0 * accounted
        ));
    }
    (lines, accounted)
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = Instant::now();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            id: 0,
        });
        let index = self.spans.len() - 1;
        self.open.push(index);
        index
    }

    /// Close the innermost open span, which must be `span`.
    pub fn exit(&mut self, span: usize) {
        let top = self.open.pop();
        debug_assert_eq!(top, Some(span), "spans must close innermost first");
        self.spans[span].end = Instant::now();
    }

    /// Record a span whose bounds were measured elsewhere (another
    /// thread); `parent` must already be recorded.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            id,
        });
        self.spans.len() - 1
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Duration of one span in milliseconds.
    pub fn span_ms(&self, span: usize) -> f64 {
        let s = &self.spans[span];
        s.end.duration_since(s.start).as_secs_f64() * 1e3
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = (0..self.spans.len()).map(|i| self.span_ms(i)).collect();
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                own[p] -= self.span_ms(i);
            }
        }
        own
    }

    /// Per-name totals over `roots` and everything beneath them,
    /// averaged per root.
    pub fn rollup(&self, roots: &[usize]) -> BTreeMap<&'static str, Rollup> {
        let own = self.self_ms();
        let mut under = vec![false; self.spans.len()];
        for &root in roots {
            under[root] = true;
        }
        let mut out: BTreeMap<&'static str, Rollup> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            under[i] |= span.parent.is_some_and(|p| under[p]);
            if under[i] {
                let entry = out.entry(span.name).or_default();
                entry.count += 1;
                entry.total_ms += self.span_ms(i);
                entry.self_ms += own[i];
            }
        }
        let n = roots.len().max(1) as f64;
        for r in out.values_mut() {
            r.count = (r.count as f64 / n).round() as u64;
            r.total_ms /= n;
            r.self_ms /= n;
        }
        out
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_ms();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        for (i, span) in self.spans.iter().enumerate() {
            let line = Value::obj([
                ("span".to_string(), Value::from(i)),
                ("name".to_string(), Value::from(span.name)),
                ("start_us".to_string(), Value::Num(us(span.start))),
                ("end_us".to_string(), Value::Num(us(span.end))),
                ("self_us".to_string(), Value::Num(own[i] * 1e3)),
                (
                    "parent".to_string(),
                    span.parent.map_or(Value::Null, Value::from),
                ),
                ("request".to_string(), Value::from(span.id)),
            ]);
            writeln!(out, "{}", line.to_json())?;
        }
        out.flush()
    }
}
