//! Event sinks: where trace events go once the layer is enabled.
//!
//! Three implementations cover every consumer: [`JsonlSink`] writes one
//! JSON object per line for machine analysis, [`StderrSink`] renders a
//! human-readable live feed, and [`CaptureSink`] buffers events in memory
//! for tests. All sinks receive events behind the global mutex in
//! [`crate::set_sink`], so implementations need no internal locking.

use crate::{Event, FieldValue};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Receiver of trace events. `emit` runs under the global sink lock and
/// behind a panic barrier: a panicking sink disables tracing instead of
/// unwinding into training code.
pub trait Sink: Send {
    /// Record one event.
    fn emit(&mut self, event: &Event);
}

/// JSONL sink: one event per line, stable schema
/// `{"ts_rel_us":…,"span":…,"kind":…,"fields":{…}}`, flushed per event so
/// the file is complete even if the process aborts.
///
/// Write failures (closed pipe, full disk) never unwind into
/// instrumented code and never poison the sink: the event is counted as
/// dropped and tracing continues. If the writer later recovers, the sink
/// first emits a synthetic `event` line
/// (`fields: {"name":"trace_events_dropped","count":N}`) so the gap is
/// visible in the trace itself, then resumes normal emission.
pub struct JsonlSink {
    out: Box<dyn Write + Send>,
    dropped: u64,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("dropped", &self.dropped)
            .finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// Create (truncate) the trace file at `path`.
    pub fn create(path: &str) -> std::io::Result<JsonlSink> {
        Ok(Self::from_writer(Box::new(std::io::BufWriter::new(
            std::fs::File::create(path)?,
        ))))
    }

    /// Wrap an arbitrary writer — tests inject failing writers here, and
    /// embedders can target sockets or in-memory buffers.
    pub fn from_writer(out: Box<dyn Write + Send>) -> JsonlSink {
        JsonlSink { out, dropped: 0 }
    }

    /// Events dropped so far because the writer failed (reset when a
    /// recovery record is successfully written).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn write_line(&mut self, line: &str) -> std::io::Result<()> {
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.out.flush()
    }
}

impl Sink for JsonlSink {
    fn emit(&mut self, event: &Event) {
        if self.dropped > 0 {
            // The writer failed earlier; before the next real event, try
            // to record the gap. Schema-compatible with every other line.
            let note = Event {
                ts_rel_us: event.ts_rel_us,
                span: String::new(),
                kind: "event",
                fields: vec![
                    ("name", FieldValue::from("trace_events_dropped")),
                    ("count", FieldValue::from(self.dropped)),
                ],
            };
            if self.write_line(&note.to_json_line()).is_err() {
                // Still failing: this event joins the dropped count.
                self.dropped += 1;
                return;
            }
            self.dropped = 0;
        }
        if self.write_line(&event.to_json_line()).is_err() {
            self.dropped += 1;
        }
    }
}

/// Human-readable sink on standard error:
/// `[   1.234ms] kind span key=value …`.
#[derive(Debug, Default)]
pub struct StderrSink;

impl Sink for StderrSink {
    fn emit(&mut self, event: &Event) {
        let mut line = format!(
            "[{:>10.3}ms] {:<10} {}",
            event.ts_rel_us as f64 / 1000.0,
            event.kind,
            event.span
        );
        for (key, value) in &event.fields {
            line.push(' ');
            line.push_str(key);
            line.push('=');
            match value {
                FieldValue::U64(n) => line.push_str(&n.to_string()),
                FieldValue::I64(n) => line.push_str(&n.to_string()),
                FieldValue::F64(n) => {
                    let _ = std::fmt::Write::write_fmt(&mut line, format_args!("{n:.6}"));
                }
                FieldValue::Bool(b) => line.push_str(if *b { "true" } else { "false" }),
                FieldValue::Str(s) => line.push_str(s),
            }
        }
        // Locked, buffered single write so parallel threads do not
        // interleave mid-line; failures are dropped, not propagated.
        let stderr = std::io::stderr();
        let mut handle = stderr.lock();
        let _ = writeln!(handle, "{line}");
    }
}

/// In-memory sink for tests: clones every event into a shared buffer.
#[derive(Debug)]
pub struct CaptureSink {
    buffer: Arc<Mutex<Vec<Event>>>,
}

impl CaptureSink {
    /// New sink plus the shared handle tests read events from.
    pub fn new() -> (CaptureSink, Arc<Mutex<Vec<Event>>>) {
        let buffer = Arc::new(Mutex::new(Vec::new()));
        (
            CaptureSink {
                buffer: Arc::clone(&buffer),
            },
            buffer,
        )
    }
}

impl Sink for CaptureSink {
    fn emit(&mut self, event: &Event) {
        if let Ok(mut buf) = self.buffer.lock() {
            buf.push(event.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn event(n: u64) -> Event {
        Event {
            ts_rel_us: n,
            span: String::new(),
            kind: "event",
            fields: vec![
                ("name", FieldValue::from("x")),
                ("value", FieldValue::from(n)),
            ],
        }
    }

    /// A writer that fails its first `fail_for` write calls, then
    /// forwards to an in-memory buffer.
    struct FlakyWriter {
        fail_for: usize,
        calls: Arc<AtomicUsize>,
        buf: Arc<Mutex<Vec<u8>>>,
    }

    impl Write for FlakyWriter {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            if self.calls.fetch_add(1, Ordering::SeqCst) < self.fail_for {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "pipe closed",
                ));
            }
            self.buf.lock().unwrap().extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_failures_count_drops_instead_of_panicking() {
        let calls = Arc::new(AtomicUsize::new(0));
        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut sink = JsonlSink::from_writer(Box::new(FlakyWriter {
            fail_for: usize::MAX,
            calls,
            buf: Arc::clone(&buf),
        }));
        for n in 0..3 {
            sink.emit(&event(n));
        }
        assert_eq!(sink.dropped(), 3);
        assert!(buf.lock().unwrap().is_empty());
    }

    #[test]
    fn recovery_emits_a_dropped_events_record() {
        let calls = Arc::new(AtomicUsize::new(0));
        let buf = Arc::new(Mutex::new(Vec::new()));
        // Fail the first two write calls: event 0's line write fails (its
        // trailing-newline write is never attempted after ? aborts...)
        let mut sink = JsonlSink::from_writer(Box::new(FlakyWriter {
            fail_for: 2,
            calls,
            buf: Arc::clone(&buf),
        }));
        sink.emit(&event(0));
        sink.emit(&event(1));
        assert_eq!(sink.dropped(), 2, "both events hit the broken writer");
        sink.emit(&event(2));
        assert_eq!(sink.dropped(), 0, "recovery resets the counter");
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].contains("trace_events_dropped") && lines[0].contains("\"count\":2"),
            "first surviving line records the gap: {}",
            lines[0]
        );
        // Every line stays schema-valid JSONL.
        for line in lines {
            let v = crate::json::parse(line).unwrap();
            for key in ["ts_rel_us", "span", "kind", "fields"] {
                assert!(v.get(key).is_some(), "missing {key} in {line}");
            }
        }
    }
}
