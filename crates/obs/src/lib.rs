//! `etsb-obs`: dependency-free structured tracing and metrics for the
//! ETSB-RNN pipeline.
//!
//! The §5.2 protocol (120 epochs × 10 repetitions × 6 datasets) is a
//! long-running sweep; this crate makes it observable without touching
//! results. Each kind of fact has one channel:
//!
//! * **The trace** records what happened, in order: nestable spans with
//!   scoped wall-clock timers ([`span`], the [`obs_span!`] macro), each
//!   emitting a `span_start` and a `span_end` event that carries its
//!   duration in microseconds, and named events with scalar fields
//!   ([`obs_event!`]) for training signals: per-epoch loss, gradient
//!   global norms, prediction dedup counts, sanitizer hits, evaluation
//!   metrics.
//! * **Pluggable sinks** ([`Sink`]): a JSONL file sink with a stable
//!   one-object-per-line schema, a human-readable stderr sink, and an
//!   in-memory capture sink for tests. Selected via
//!   `ETSB_TRACE=off|stderr|jsonl:<path>` ([`init_from_env`]) or
//!   programmatically ([`set_sink`]).
//! * **Aggregates** ([`registry`]): a lock-cheap registry of named
//!   counters, gauges and fixed-boundary log-scale latency histograms
//!   with deterministic snapshots. Each `etsb serve` service owns one and
//!   exports it through `GET /metrics` as dependency-free **Prometheus
//!   text exposition** ([`expo`]). A **span profiler** ([`profile`])
//!   folds `span_start`/`span_end` events into per-span self-time
//!   rollups (offline, by replaying a JSONL trace with the
//!   `trace_profile` bin).
//!
//! # Overhead contract
//!
//! With tracing disabled (the default), every instrumentation point costs
//! a single relaxed atomic load and performs **no allocation** — hot
//! training loops stay at hardware speed. Instrumentation must never
//! perturb results: no RNG is touched, and a panicking sink is caught at
//! the emit boundary and disables tracing rather than unwinding into
//! training code.
//!
//! # Event schema
//!
//! Every JSONL line is one object with exactly four keys:
//!
//! ```json
//! {"fields":{"dur_us":87,"epoch":3},"kind":"span_end","span":"train.epoch","ts_rel_us":1234}
//! ```
//!
//! `ts_rel_us` is microseconds since the sink was installed; `span` is
//! the dot-joined path of open spans on the emitting thread; `kind` is
//! one of `span_start`, `span_end`, `event`; `fields` is a flat
//! string→scalar map. An `event` names itself in its `name` field and
//! carries a single value in a `value` field, several in named fields.

pub mod expo;
pub mod json;
pub mod profile;
pub mod registry;
mod sink;

pub use sink::{CaptureSink, JsonlSink, Sink, StderrSink};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Top-level keys a run manifest must carry (validated by `trace_lint`
/// and produced by `etsb_core::manifest`).
pub const MANIFEST_REQUIRED_KEYS: &[&str] = &[
    "seed", "runs", "config", "workers", "version", "features", "datasets",
];

/// Whether tracing is enabled. Checked with a single relaxed load; the
/// flag only flips in [`set_sink`].
static TRACE_ON: AtomicBool = AtomicBool::new(false);

/// The installed sink, if any.
static SINK: Mutex<Option<Box<dyn Sink>>> = Mutex::new(None);

/// Process-relative clock epoch: installed with the first sink so
/// `ts_rel_us` counts from trace start.
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Stack of open span names on this thread (worker threads start
    /// with an empty stack of their own).
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// One scalar field value attached to an event.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (counts, durations in µs).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (losses, norms, metrics).
    F64(f64),
    /// String (names, labels).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

macro_rules! impl_field_from {
    ($($ty:ty => $variant:ident as $conv:ty),* $(,)?) => {$(
        impl From<$ty> for FieldValue {
            fn from(v: $ty) -> FieldValue { FieldValue::$variant(v as $conv) }
        }
    )*};
}

impl_field_from!(
    u64 => U64 as u64,
    u32 => U64 as u64,
    usize => U64 as u64,
    i64 => I64 as i64,
    i32 => I64 as i64,
    f64 => F64 as f64,
    f32 => F64 as f64,
);

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

impl FieldValue {
    fn to_json_value(&self) -> json::Value {
        match self {
            FieldValue::U64(n) => json::Value::Num(*n as f64),
            FieldValue::I64(n) => json::Value::Num(*n as f64),
            FieldValue::F64(n) => json::Value::Num(*n),
            FieldValue::Str(s) => json::Value::Str(s.clone()),
            FieldValue::Bool(b) => json::Value::Bool(*b),
        }
    }
}

/// One trace event, as handed to sinks.
#[derive(Clone, Debug)]
pub struct Event {
    /// Microseconds since the sink was installed.
    pub ts_rel_us: u64,
    /// Dot-joined path of the open spans on the emitting thread
    /// (`""` at the root).
    pub span: String,
    /// Event kind: `span_start`, `span_end` or `event`.
    pub kind: &'static str,
    /// Flat key → scalar payload.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// The stable JSONL representation (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let fields = json::Value::obj(
            self.fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_json_value())),
        );
        json::Value::obj([
            (
                "ts_rel_us".to_string(),
                json::Value::Num(self.ts_rel_us as f64),
            ),
            ("span".to_string(), json::Value::Str(self.span.clone())),
            ("kind".to_string(), json::Value::Str(self.kind.to_string())),
            ("fields".to_string(), fields),
        ])
        .to_json()
    }
}

/// Whether tracing is currently enabled. One relaxed atomic load — the
/// entire cost of every instrumentation point when tracing is off. The
/// macros check it themselves; check it at a call site only to skip work
/// done outside them.
#[inline(always)]
pub fn enabled() -> bool {
    TRACE_ON.load(Ordering::Relaxed)
}

/// Install (or, with `None`, remove) the process-wide sink. The relative
/// clock starts at the first installation. Intended for programmatic use
/// in tests and tools; binaries normally call [`init_from_env`].
pub fn set_sink(sink: Option<Box<dyn Sink>>) {
    let _ = EPOCH.get_or_init(Instant::now);
    let on = sink.is_some();
    match SINK.lock() {
        Ok(mut slot) => *slot = sink,
        Err(poisoned) => *poisoned.into_inner() = sink,
    }
    TRACE_ON.store(on, Ordering::SeqCst);
}

/// Configure the sink from `ETSB_TRACE`:
///
/// * unset, empty or `off` — tracing disabled;
/// * `stderr` — human-readable feed on standard error;
/// * `jsonl:<path>` — JSONL file at `<path>` (truncated).
///
/// Returns a description of the active mode, or an error for an
/// unrecognized value / unwritable trace path.
pub fn init_from_env() -> Result<&'static str, String> {
    let raw = std::env::var("ETSB_TRACE").unwrap_or_default();
    let (sink, mode) = sink_for(&raw)?;
    set_sink(sink);
    Ok(mode)
}

/// The sink to install (`None` for off) and the mode name to report.
type TraceMode = (Option<Box<dyn Sink>>, &'static str);

/// Parse an `ETSB_TRACE` value as documented on [`init_from_env`].
fn sink_for(raw: &str) -> Result<TraceMode, String> {
    match raw.trim() {
        "" | "off" => Ok((None, "off")),
        "stderr" => Ok((Some(Box::new(StderrSink)), "stderr")),
        other => match other.strip_prefix("jsonl:") {
            Some(path) if !path.is_empty() => {
                let sink = JsonlSink::create(path)
                    .map_err(|e| format!("ETSB_TRACE: cannot create {path}: {e}"))?;
                Ok((Some(Box::new(sink)), "jsonl"))
            }
            _ => Err(format!(
                "ETSB_TRACE: unrecognized value {other:?} (expected off|stderr|jsonl:<path>)"
            )),
        },
    }
}

/// Microseconds since the trace epoch.
fn now_rel_us() -> u64 {
    EPOCH
        .get_or_init(Instant::now)
        .elapsed()
        .as_micros()
        .min(u64::MAX as u128) as u64
}

/// The dot-joined span path of the calling thread.
fn span_path() -> String {
    SPAN_STACK.with(|stack| stack.borrow().join("."))
}

/// Deliver an event to the sink behind the panic barrier: a sink that
/// panics is dropped and tracing is disabled, so instrumented code never
/// observes the unwind.
fn deliver(event: Event) {
    let mut guard = match SINK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    let Some(sink) = guard.as_mut() else { return };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sink.emit(&event)));
    if outcome.is_err() {
        *guard = None;
        TRACE_ON.store(false, Ordering::SeqCst);
    }
}

/// Emit an `event` with explicit fields; [`obs_event!`] is the way to
/// call it. No-op (single atomic load) when tracing is off.
#[doc(hidden)]
pub fn emit(fields: Vec<(&'static str, FieldValue)>) {
    if !enabled() {
        return;
    }
    deliver(Event {
        ts_rel_us: now_rel_us(),
        span: span_path(),
        kind: "event",
        fields,
    });
}

/// RAII guard for a span: entering pushes onto the thread's span stack
/// and emits `span_start`; dropping emits `span_end` with `dur_us` and
/// pops. When tracing is off the guard is inert and allocation-free.
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to; binding to _ drops it immediately"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    name: &'static str,
    start: Instant,
    fields: Vec<(&'static str, FieldValue)>,
}

impl SpanGuard {
    /// An inert guard (tracing off).
    #[inline]
    pub fn inert() -> SpanGuard {
        SpanGuard { active: None }
    }

    /// Open a span: push the name, emit `span_start` with `fields`.
    /// Callers normally go through [`span`] or [`obs_span!`], which
    /// check [`enabled`] first.
    pub fn enter(name: &'static str, fields: Vec<(&'static str, FieldValue)>) -> SpanGuard {
        SPAN_STACK.with(|stack| stack.borrow_mut().push(name));
        deliver(Event {
            ts_rel_us: now_rel_us(),
            span: span_path(),
            kind: "span_start",
            fields: fields.clone(),
        });
        SpanGuard {
            active: Some(ActiveSpan {
                name,
                start: Instant::now(),
                fields,
            }),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let dur_us = active.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let mut fields = active.fields;
        fields.push(("dur_us", FieldValue::U64(dur_us)));
        deliver(Event {
            ts_rel_us: now_rel_us(),
            span: span_path(),
            kind: "span_end",
            fields,
        });
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // RAII keeps this LIFO; the name check is defense against a
            // guard leaked across threads.
            if stack.last() == Some(&active.name) {
                stack.pop();
            }
        });
    }
}

/// Open a plain span (no fields). Inert and allocation-free when
/// tracing is off.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inert();
    }
    SpanGuard::enter(name, Vec::new())
}

/// Open a span with fields: `obs_span!("train.epoch", "epoch" => e)`.
/// Fields are only evaluated when tracing is enabled.
#[macro_export]
macro_rules! obs_span {
    ($name:expr $(, $key:literal => $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::SpanGuard::enter(
                $name,
                vec![$(($key, $crate::FieldValue::from($value))),*],
            )
        } else {
            $crate::SpanGuard::inert()
        }
    };
}

/// Emit a named `event` with fields — the one way to record a fact in the
/// trace: `obs_event!("checkpoint", "epoch" => e, "loss" => l)`. A single
/// value goes in a `value` field. Fields are only evaluated when tracing
/// is enabled.
#[macro_export]
macro_rules! obs_event {
    ($name:literal $(, $key:literal => $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::emit(vec![
                ("name", $crate::FieldValue::from($name)),
                $(($key, $crate::FieldValue::from($value))),*
            ]);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sink is process-global; unit tests here share one mutex so
    // they do not fight over it (the integration suite runs in its own
    // process).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_capture(f: impl FnOnce()) -> Vec<Event> {
        let _guard = match TEST_LOCK.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let (sink, buffer) = CaptureSink::new();
        set_sink(Some(Box::new(sink)));
        f();
        set_sink(None);
        let events = match buffer.lock() {
            Ok(b) => b.clone(),
            Err(p) => p.into_inner().clone(),
        };
        events
    }

    #[test]
    fn disabled_by_default_and_emits_nothing() {
        let _guard = match TEST_LOCK.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        set_sink(None);
        assert!(!enabled());
        // None of these may panic or emit with no sink installed.
        obs_event!("x", "value" => 1u64);
        let _span = span("dead");
        drop(_span);
    }

    #[test]
    fn spans_nest_and_time() {
        let events = with_capture(|| {
            let _outer = obs_span!("outer", "n" => 3usize);
            {
                let _inner = span("inner");
                obs_event!("ticks", "value" => 7u64);
            }
        });
        let kinds: Vec<_> = events.iter().map(|e| (e.kind, e.span.clone())).collect();
        assert_eq!(
            kinds,
            vec![
                ("span_start", "outer".to_string()),
                ("span_start", "outer.inner".to_string()),
                ("event", "outer.inner".to_string()),
                ("span_end", "outer.inner".to_string()),
                ("span_end", "outer".to_string()),
            ]
        );
        // span_end carries dur_us; the outer span also keeps its fields.
        let outer_end = &events[4];
        assert!(outer_end.fields.iter().any(|(k, _)| *k == "dur_us"));
        assert!(outer_end
            .fields
            .iter()
            .any(|(k, v)| *k == "n" && *v == FieldValue::U64(3)));
    }

    #[test]
    fn json_lines_parse_with_required_keys() {
        let events = with_capture(|| {
            let _span = obs_span!("demo", "label" => "a \"b\"");
            obs_event!("loss", "value" => 0.125);
        });
        assert!(!events.is_empty());
        for e in &events {
            let parsed = json::parse(&e.to_json_line()).expect("valid json");
            for key in ["ts_rel_us", "span", "kind", "fields"] {
                assert!(parsed.get(key).is_some(), "missing {key}: {parsed:?}");
            }
        }
    }

    #[test]
    fn panicking_sink_is_contained_and_disables_tracing() {
        struct Bomb;
        impl Sink for Bomb {
            fn emit(&mut self, _event: &Event) {
                panic!("sink exploded");
            }
        }
        let _guard = match TEST_LOCK.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        set_sink(Some(Box::new(Bomb)));
        assert!(enabled());
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        obs_event!("boom"); // must not unwind out of here
        std::panic::set_hook(prev_hook);
        assert!(!enabled(), "a panicking sink must disable tracing");
        set_sink(None);
    }

    /// Every arm of the `ETSB_TRACE` parser, without touching the process
    /// environment or the global sink.
    #[test]
    fn trace_values_select_their_sink_or_fail() {
        let dir = std::env::temp_dir().join(format!("etsb_obs_sink_for_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let mode = |raw: &str| sink_for(raw).map(|(sink, mode)| (sink.is_some(), mode));
        let error = |raw: &str| sink_for(raw).err().unwrap_or_default();

        assert_eq!(mode(""), Ok((false, "off")));
        assert_eq!(mode("off"), Ok((false, "off")));
        assert_eq!(mode(" stderr "), Ok((true, "stderr")));
        let trace = dir.join("t.jsonl");
        assert_eq!(
            mode(&format!("jsonl:{}", trace.display())),
            Ok((true, "jsonl"))
        );
        assert!(trace.exists(), "jsonl: creates its file");

        for raw in ["verbose", "jsonl:"] {
            let e = error(raw);
            assert!(e.contains("unrecognized value"), "{raw:?}: {e}");
        }
        let e = error(&format!(
            "jsonl:{}",
            dir.join("missing").join("t.jsonl").display()
        ));
        assert!(e.contains("cannot create"), "{e}");
        std::fs::remove_dir_all(&dir).expect("remove temp dir");
    }
}
