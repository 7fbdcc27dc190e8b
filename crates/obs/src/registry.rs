//! In-process metrics aggregation: a registry of named instruments —
//! monotonic counters, gauges, and fixed-boundary log-scale histograms —
//! with deterministic snapshots.
//!
//! The trace ([`crate::obs_event!`], [`crate::obs_span!`]) streams what
//! happened, in order, out of the process; a registry *aggregates*
//! in-process so the serving tier can answer "what is p99 detect latency
//! right now?" without replaying a JSONL file. Each `etsb serve` service
//! owns its registry and exports it through `GET /metrics`; there is no
//! process-wide registry, so one service's scrape never depends on work
//! done elsewhere in the process. Design constraints, in order:
//!
//! * **Lock-cheap recording.** Instruments are plain atomics; recording
//!   a value is a handful of relaxed `fetch_add`s with no lock. The
//!   registry's mutex is only taken on instrument lookup (done once,
//!   callers cache the returned [`Arc`]) and on [`Registry::snapshot`].
//! * **Deterministic snapshots.** Histogram bucket boundaries are fixed
//!   at construction and sums are exact integer nanoseconds (`u64`, so
//!   accumulation order cannot perturb a bit) — for a given event
//!   stream, two runs produce byte-identical snapshots and byte-identical
//!   Prometheus renderings (`crate::expo`).
//! * **Results stay untouched.** Like tracing, metrics never feed back
//!   into computation: no RNG, no floats flowing into model math.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default latency bucket upper bounds in nanoseconds: a 1-2-5
/// log-scale ladder from 1µs to 50s. Values above the last bound land
/// in the overflow bucket (`+Inf` in the Prometheus rendering).
pub const LATENCY_BOUNDS_NS: [u64; 24] = [
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
    5_000_000_000,
    10_000_000_000,
    20_000_000_000,
    50_000_000_000,
];

/// Bucket upper bounds for small cardinalities (batch occupancy, queue
/// depth): powers of two from 1 to 65536.
pub const COUNT_BOUNDS: [u64; 17] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
];

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Record an externally maintained cumulative total (e.g. cache hit
    /// counts owned by `PredictCache`). Implemented as `fetch_max`, so
    /// out-of-order observations of a monotonic source can never make
    /// the exposed value go backwards — scrapes stay `rate()`-able.
    #[inline]
    pub fn record_cumulative(&self, total: u64) {
        self.value.fetch_max(total, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time measurement (f64 bits in an atomic).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A gauge at 0.0.
    pub fn new() -> Gauge {
        Gauge {
            bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-boundary histogram. Bucket `i` counts observations `v <=
/// bounds[i]` (and greater than the previous bound); one overflow bucket
/// holds everything above the last bound. The sum is exact integer units
/// (nanoseconds for latency histograms), so accumulation order cannot
/// change a bit of any snapshot.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// A histogram over the given ascending bucket upper bounds.
    pub fn with_bounds(bounds: &[u64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let buckets = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds: bounds.to_vec(),
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// A latency histogram over [`LATENCY_BOUNDS_NS`].
    pub fn latency() -> Histogram {
        Histogram::with_bounds(&LATENCY_BOUNDS_NS)
    }

    /// The bucket upper bounds (excludes the implicit overflow bucket).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record a latency observation in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.record(ns);
    }

    /// A consistent read of the histogram state. Concurrent recorders
    /// may be mid-update; for deterministic byte-identical snapshots,
    /// snapshot quiescent histograms (as the bench harness and the
    /// determinism suite do).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a histogram's state with quantile queries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (ascending; excludes the overflow bucket).
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts; `buckets.len() == bounds.len() + 1`
    /// (the last entry is the overflow bucket).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Exact sum of all observations (integer units).
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
}

impl HistogramSnapshot {
    /// The quantile estimate for `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the rank-`ceil(q·count)` observation, clamped
    /// to the exact observed maximum (so `quantile(1.0) == max` and
    /// estimates never exceed any real observation's bucket). Zero when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let le = self.bounds.get(i).copied().unwrap_or(self.max);
                return le.min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Exact mean (`sum / count`); zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The observations recorded since `earlier` (per-bucket saturating
    /// difference). `max` is the lifetime maximum, not the interval
    /// maximum — a histogram cannot recover the latter.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        assert_eq!(
            self.bounds, earlier.bounds,
            "cannot diff snapshots with different bounds"
        );
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
        }
    }
}

/// One snapshotted instrument value.
#[derive(Clone, Debug, PartialEq)]
pub enum InstrumentSnapshot {
    /// Counter total.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// A deterministic (name-sorted) copy of every instrument in a registry.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct RegistrySnapshot {
    /// `(name, value)` pairs in ascending name order.
    pub entries: Vec<(String, InstrumentSnapshot)>,
}

impl RegistrySnapshot {
    /// Look up one instrument by name.
    pub fn get(&self, name: &str) -> Option<&InstrumentSnapshot> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// The counter with this name, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(InstrumentSnapshot::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The histogram with this name, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name) {
            Some(InstrumentSnapshot::Histogram(h)) => Some(h),
            _ => None,
        }
    }
}

#[derive(Debug)]
enum Entry {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of instruments. Lookup takes the registry mutex;
/// recording through the returned [`Arc`] handles is lock-free, so
/// callers resolve instruments once and cache the handle.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<BTreeMap<String, Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Entry>> {
        match self.entries.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Get or create the counter with this name. If the name is already
    /// taken by a different instrument kind, a detached counter is
    /// returned (recordings into it are not exposed) rather than
    /// panicking inside instrumented code.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut entries = self.lock();
        match entries
            .entry(name.to_string())
            .or_insert_with(|| Entry::Counter(Arc::new(Counter::new())))
        {
            Entry::Counter(c) => Arc::clone(c),
            _ => Arc::new(Counter::new()),
        }
    }

    /// Get or create the gauge with this name (kind-mismatch behaves as
    /// in [`Registry::counter`]).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut entries = self.lock();
        match entries
            .entry(name.to_string())
            .or_insert_with(|| Entry::Gauge(Arc::new(Gauge::new())))
        {
            Entry::Gauge(g) => Arc::clone(g),
            _ => Arc::new(Gauge::new()),
        }
    }

    /// Get or create a latency histogram ([`LATENCY_BOUNDS_NS`]) with
    /// this name (kind-mismatch behaves as in [`Registry::counter`]).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with_bounds(name, &LATENCY_BOUNDS_NS)
    }

    /// Get or create a histogram with explicit bucket bounds. An
    /// existing histogram keeps its original bounds.
    pub fn histogram_with_bounds(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        let mut entries = self.lock();
        match entries
            .entry(name.to_string())
            .or_insert_with(|| Entry::Histogram(Arc::new(Histogram::with_bounds(bounds))))
        {
            Entry::Histogram(h) => Arc::clone(h),
            _ => Arc::new(Histogram::with_bounds(bounds)),
        }
    }

    /// Snapshot every instrument in ascending name order. Two registries
    /// that saw the same event stream produce equal snapshots.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let entries = self.lock();
        RegistrySnapshot {
            entries: entries
                .iter()
                .map(|(name, entry)| {
                    let value = match entry {
                        Entry::Counter(c) => InstrumentSnapshot::Counter(c.value()),
                        Entry::Gauge(g) => InstrumentSnapshot::Gauge(g.value()),
                        Entry::Histogram(h) => InstrumentSnapshot::Histogram(h.snapshot()),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotonic_under_cumulative_records() {
        let c = Counter::new();
        c.record_cumulative(10);
        c.record_cumulative(7); // stale observation must not regress
        assert_eq!(c.value(), 10);
        c.record_cumulative(12);
        assert_eq!(c.value(), 12);
    }

    #[test]
    fn gauge_round_trips_f64() {
        let g = Gauge::new();
        assert_eq!(g.value(), 0.0);
        g.set(0.1 + 0.2);
        assert_eq!(g.value(), 0.1 + 0.2);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::with_bounds(&[10, 100, 1000]);
        for v in [1, 5, 10, 50, 200, 5000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![3, 1, 1, 1]);
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 5266);
        assert_eq!(snap.max, 5000);
        assert_eq!(snap.p50(), 10);
        assert_eq!(snap.quantile(1.0), 5000);
        assert!(snap.p50() <= snap.p90() && snap.p90() <= snap.p99() && snap.p99() <= snap.max);
        // Quantile estimates clamp to the observed max: with a single
        // observation of 7 in the ≤10 bucket, p99 is 7, not 10.
        let h1 = Histogram::with_bounds(&[10, 100]);
        h1.record(7);
        assert_eq!(h1.snapshot().p99(), 7);
    }

    #[test]
    fn snapshot_delta_isolates_an_interval() {
        let h = Histogram::with_bounds(&[10, 100]);
        h.record(5);
        let before = h.snapshot();
        h.record(50);
        h.record(7);
        let delta = h.snapshot().delta(&before);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum, 57);
        assert_eq!(delta.buckets, vec![1, 1, 0]);
    }

    #[test]
    fn registry_returns_shared_handles_and_sorted_snapshots() {
        let r = Registry::new();
        r.counter("b_total").add(2);
        r.counter("b_total").add(3); // same instrument
        r.gauge("a_gauge").set(1.5);
        r.histogram_with_bounds("c_hist", &COUNT_BOUNDS).record(4);
        let snap = r.snapshot();
        let names: Vec<_> = snap.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a_gauge", "b_total", "c_hist"]);
        assert_eq!(snap.counter("b_total"), Some(5));
    }

    #[test]
    fn kind_mismatch_returns_detached_instrument() {
        let r = Registry::new();
        r.counter("x").inc();
        let g = r.gauge("x"); // wrong kind: detached, no panic
        g.set(9.0);
        assert_eq!(r.snapshot().counter("x"), Some(1));
    }
}
