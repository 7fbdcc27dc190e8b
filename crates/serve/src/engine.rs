//! The resident detection engine: an admission queue that coalesces
//! concurrently arriving requests into one batched forward pass per
//! worker tick, backed by the shared bounded prediction LRU.
//!
//! # Lifecycle
//!
//! [`DetectService::start`] spawns a batcher thread that parks on the
//! queue condvar, lingers briefly once work arrives (so neighbouring
//! requests coalesce), then runs one [`tick`](DetectService::tick).
//! [`DetectService::start_manual`] spawns nothing — tests and embedders
//! drive ticks explicitly, which makes timeout and backpressure paths
//! deterministic without sleeps. [`DetectService::shutdown`] (also run
//! on drop) stops admissions, *drains* every queued request, and joins
//! the worker; queued work is completed, never discarded.
//!
//! # Determinism
//!
//! A tick concatenates per-request encodings in arrival order and runs
//! one eval-mode forward pass. Eval mode is row-independent and request
//! encoding is a pure function of each request alone, so batch
//! composition cannot change any cell's probability: coalesced serving
//! is bitwise identical to scoring each request in its own process, at
//! any worker count and any batch boundary. The cache preserves the same
//! identity because its key is the cell's complete model input.

use crate::protocol::{CellResult, Provenance, Request, Response, Status};
use crate::ServeConfig;
use etsb_core::manifest::compiled_features;
use etsb_core::persist::LoadedDetector;
use etsb_core::{CacheStats, EncodedDataset, KernelPolicy, PredictCache};
use etsb_obs::registry::{Counter, Gauge, Histogram, Registry, COUNT_BOUNDS};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Acquire a mutex, tolerating poisoning: a panic elsewhere must not
/// wedge the service, and every guarded structure is valid after any
/// completed mutation.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn cv_wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn cv_wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> (MutexGuard<'a, T>, bool) {
    match cv.wait_timeout(guard, dur) {
        Ok((g, timeout)) => (g, timeout.timed_out()),
        Err(poisoned) => {
            let (g, timeout) = poisoned.into_inner();
            (g, timeout.timed_out())
        }
    }
}

/// One-shot rendezvous between a submitter and the batcher.
#[derive(Debug)]
struct Slot {
    response: Mutex<Option<Response>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            response: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    /// Deliver the response (first delivery wins) and wake the waiter.
    fn fill(&self, response: Response) {
        let mut guard = lock(&self.response);
        if guard.is_none() {
            *guard = Some(response);
        }
        self.ready.notify_all();
    }
}

/// Handle returned by [`DetectService::submit`]; redeem it for the
/// response with [`wait`](ResponseHandle::wait).
#[derive(Debug)]
pub struct ResponseHandle {
    slot: Arc<Slot>,
}

impl ResponseHandle {
    /// Block until the request reaches a terminal status. Completion is
    /// guaranteed: every admitted request is answered by a tick (scored
    /// or timed out), rejected requests are answered at submission, and
    /// shutdown drains the queue before the batcher exits.
    pub fn wait(self) -> Response {
        let mut guard = lock(&self.slot.response);
        loop {
            if let Some(response) = guard.take() {
                return response;
            }
            guard = cv_wait(&self.slot.ready, guard);
        }
    }

    /// Non-blocking probe: the response, if already delivered.
    pub fn try_take(&self) -> Option<Response> {
        lock(&self.slot.response).take()
    }
}

/// A request admitted to the queue, encoded and validated up front so
/// the batcher tick does no per-request schema work.
struct Pending {
    id: String,
    /// `(tuple_id, attribute)` echo per cell, in submission order.
    echo: Vec<(u64, String)>,
    encoded: EncodedDataset,
    /// Queue-residency deadline; `None` never expires.
    deadline: Option<Instant>,
    /// Admission time, for the end-to-end detect latency histogram.
    submitted: Instant,
    slot: Arc<Slot>,
}

/// Cached handles into the service registry: resolved once at startup
/// so the hot paths record through lock-free atomics only. The names
/// are the Prometheus families exposed on `GET /metrics`.
#[derive(Debug)]
struct Instruments {
    requests: Arc<Counter>,
    admitted_cells: Arc<Counter>,
    batches: Arc<Counter>,
    bad_requests: Arc<Counter>,
    overloaded: Arc<Counter>,
    timeouts: Arc<Counter>,
    /// Monotonic mirrors of the prediction-LRU's cumulative stats
    /// (synced via `record_cumulative`, so scrapes are `rate()`-able).
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    queue_cells: Arc<Gauge>,
    cache_len: Arc<Gauge>,
    cache_capacity: Arc<Gauge>,
    /// Submit-to-delivery latency of scored requests.
    detect_latency_ns: Arc<Histogram>,
    /// Wall time of one coalesced forward pass.
    batch_latency_ns: Arc<Histogram>,
    /// Cells per coalesced batch.
    batch_occupancy: Arc<Histogram>,
    /// Cells waiting when a tick began (pre-pop).
    queue_depth: Arc<Histogram>,
}

impl Instruments {
    fn register(registry: &Registry) -> Instruments {
        Instruments {
            requests: registry.counter("etsb_serve_requests_total"),
            admitted_cells: registry.counter("etsb_serve_admitted_cells_total"),
            batches: registry.counter("etsb_serve_batches_total"),
            bad_requests: registry.counter("etsb_serve_bad_requests_total"),
            overloaded: registry.counter("etsb_serve_overloaded_total"),
            timeouts: registry.counter("etsb_serve_timeouts_total"),
            cache_hits: registry.counter("etsb_serve_cache_hits_total"),
            cache_misses: registry.counter("etsb_serve_cache_misses_total"),
            cache_evictions: registry.counter("etsb_serve_cache_evictions_total"),
            queue_cells: registry.gauge("etsb_serve_queue_cells"),
            cache_len: registry.gauge("etsb_serve_cache_len"),
            cache_capacity: registry.gauge("etsb_serve_cache_capacity"),
            detect_latency_ns: registry.histogram("etsb_serve_detect_latency_ns"),
            batch_latency_ns: registry.histogram("etsb_serve_batch_latency_ns"),
            batch_occupancy: registry
                .histogram_with_bounds("etsb_serve_batch_occupancy_cells", &COUNT_BOUNDS),
            queue_depth: registry
                .histogram_with_bounds("etsb_serve_queue_depth_cells", &COUNT_BOUNDS),
        }
    }

    /// Mirror the prediction-LRU's cumulative stats into the registry.
    /// `record_cumulative` is a `fetch_max`, so even racing syncs can
    /// never make an exposed counter go backwards.
    fn sync_cache(&self, stats: &CacheStats) {
        self.cache_hits.record_cumulative(stats.hits);
        self.cache_misses.record_cumulative(stats.misses);
        self.cache_evictions.record_cumulative(stats.evictions);
        self.cache_len.set(stats.len as f64);
        self.cache_capacity.set(stats.capacity as f64);
    }
}

/// Point-in-time service counters plus prediction-cache statistics, as
/// reported by [`DetectService::metrics`] (the CLI shutdown summary).
/// `GET /metrics` serves the full Prometheus exposition instead
/// ([`DetectService::prometheus_text`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceMetrics {
    /// Requests submitted (all outcomes).
    pub requests: u64,
    /// Cells admitted to the queue (excludes rejected requests).
    pub admitted_cells: u64,
    /// Coalesced forward passes run.
    pub batches: u64,
    /// Requests refused as malformed.
    pub bad_requests: u64,
    /// Requests refused by backpressure.
    pub overloaded: u64,
    /// Requests expired in the queue.
    pub timeouts: u64,
    /// Cells currently queued.
    pub queue_cells: u64,
    /// Shared prediction-LRU statistics.
    pub cache: CacheStats,
}

/// A duration in whole nanoseconds, saturating at `u64::MAX` (584
/// years — unreachable in practice, but histograms take `u64`).
fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// FNV-1a 64-bit hash, used to fingerprint weight snapshots for
/// per-response provenance.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Build the provenance stamped on every response this service fills.
/// Deliberately excludes worker counts and timestamps: two services
/// loaded from the same detector always stamp identical bytes.
fn provenance_of(detector: &LoadedDetector, policy: KernelPolicy) -> Provenance {
    Provenance {
        model_hash: format!("{:016x}", fnv1a64(&detector.model.snapshot())),
        model: format!("{}/{}", detector.kind.name(), detector.train.cell.name()),
        version: env!("CARGO_PKG_VERSION").to_string(),
        kernel_policy: policy.name().to_string(),
        features: compiled_features(),
    }
}

struct QueueState {
    queue: VecDeque<Pending>,
    queued_cells: usize,
    shutting_down: bool,
}

struct Shared {
    detector: LoadedDetector,
    cfg: ServeConfig,
    queue: Mutex<QueueState>,
    /// Signalled on every enqueue and on shutdown.
    arrived: Condvar,
    cache: Mutex<PredictCache>,
    /// Per-service metrics registry, exposed on `GET /metrics`.
    registry: Arc<Registry>,
    ins: Instruments,
    /// Stamped on every response this service fills.
    provenance: Provenance,
    /// Inference kernel policy, fixed for the service's lifetime (one
    /// cache, one policy: cache keys do not encode the policy).
    policy: KernelPolicy,
}

/// The resident detection service. See the module docs for lifecycle
/// and determinism guarantees.
pub struct DetectService {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for DetectService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DetectService")
            .field("resident_worker", &self.worker.is_some())
            .finish_non_exhaustive()
    }
}

impl DetectService {
    /// Start the service with a resident batcher thread.
    pub fn start(detector: LoadedDetector, cfg: ServeConfig) -> DetectService {
        let mut service = Self::start_manual(detector, cfg);
        let shared = Arc::clone(&service.shared);
        service.worker = Some(std::thread::spawn(move || worker_loop(&shared)));
        service
    }

    /// Start the service without a batcher thread: the embedder calls
    /// [`tick`](DetectService::tick) explicitly. Used by tests to drive
    /// batching, timeout and backpressure paths deterministically.
    pub fn start_manual(detector: LoadedDetector, cfg: ServeConfig) -> DetectService {
        let cache = PredictCache::new(cfg.cache_capacity);
        let registry = Arc::new(Registry::new());
        let ins = Instruments::register(&registry);
        ins.sync_cache(&cache.stats());
        let policy = if cfg.fast_math {
            KernelPolicy::FastMath
        } else {
            KernelPolicy::Exact
        };
        let provenance = provenance_of(&detector, policy);
        DetectService {
            shared: Arc::new(Shared {
                detector,
                cfg,
                queue: Mutex::new(QueueState {
                    queue: VecDeque::new(),
                    queued_cells: 0,
                    shutting_down: false,
                }),
                arrived: Condvar::new(),
                cache: Mutex::new(cache),
                registry,
                ins,
                provenance,
                policy,
            }),
            worker: None,
        }
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.cfg
    }

    /// Submit one request. Validation (attribute resolution, encoding)
    /// and admission control run on the caller's thread; rejections
    /// (`bad_request`, `overloaded`, `shutting_down`) and empty requests
    /// resolve immediately, everything else is answered by a batcher
    /// tick.
    pub fn submit(&self, request: Request) -> ResponseHandle {
        let shared = &self.shared;
        let slot = Arc::new(Slot::new());
        let handle = ResponseHandle {
            slot: Arc::clone(&slot),
        };
        shared.ins.requests.inc();
        let _span = etsb_obs::obs_span!(
            "serve.submit",
            "cells" => request.cells.len() as u64,
        );

        if request.cells.is_empty() {
            slot.fill(
                Response::ok(request.id, Vec::new()).with_provenance(shared.provenance.clone()),
            );
            return handle;
        }

        // Resolve attributes against the training schema and encode with
        // training-time dictionaries, all before touching the queue.
        let mut pairs = Vec::with_capacity(request.cells.len());
        let mut echo = Vec::with_capacity(request.cells.len());
        for cell in &request.cells {
            match shared.detector.attr_index.index_of(&cell.attribute) {
                Some(attr) => {
                    pairs.push((attr, cell.value.as_str()));
                    echo.push((cell.tuple_id, cell.attribute.clone()));
                }
                None => {
                    shared.ins.bad_requests.inc();
                    slot.fill(
                        Response::failed(
                            request.id,
                            Status::BadRequest,
                            format!("unknown attribute {:?}", cell.attribute),
                        )
                        .with_provenance(shared.provenance.clone()),
                    );
                    return handle;
                }
            }
        }
        let encoded = match EncodedDataset::from_request_cells(
            &pairs,
            &shared.detector.char_index,
            &shared.detector.attr_index,
        ) {
            Ok(encoded) => encoded,
            Err(e) => {
                shared.ins.bad_requests.inc();
                slot.fill(
                    Response::failed(
                        request.id,
                        Status::BadRequest,
                        format!("encoding failed: {e}"),
                    )
                    .with_provenance(shared.provenance.clone()),
                );
                return handle;
            }
        };

        let n_cells = encoded.sequences.len();
        let submitted = Instant::now();
        let deadline = submitted.checked_add(shared.cfg.request_timeout);
        {
            let mut q = lock(&shared.queue);
            if q.shutting_down {
                drop(q);
                slot.fill(
                    Response::failed(
                        request.id,
                        Status::ShuttingDown,
                        "service is draining and accepts no new requests".to_string(),
                    )
                    .with_provenance(shared.provenance.clone()),
                );
                return handle;
            }
            if q.queued_cells + n_cells > shared.cfg.queue_capacity_cells {
                let queued = q.queued_cells;
                drop(q);
                shared.ins.overloaded.inc();
                slot.fill(
                    Response::failed(
                        request.id,
                        Status::Overloaded,
                        format!(
                            "admission queue full ({queued} cells queued, capacity {}, request {n_cells})",
                            shared.cfg.queue_capacity_cells
                        ),
                    )
                    .with_provenance(shared.provenance.clone()),
                );
                return handle;
            }
            q.queued_cells += n_cells;
            q.queue.push_back(Pending {
                id: request.id,
                echo,
                encoded,
                deadline,
                submitted,
                slot,
            });
            shared.ins.admitted_cells.add(n_cells as u64);
            shared.ins.queue_cells.set(q.queued_cells as f64);
        }
        shared.arrived.notify_all();
        handle
    }

    /// Run one batching tick on the caller's thread: pop whole requests
    /// up to the cell budget, expire the ones past their deadline, score
    /// the rest in one coalesced forward pass, and deliver responses.
    /// Returns `false` if the queue was empty (no work performed).
    pub fn tick(&self) -> bool {
        self.shared.tick()
    }

    /// Snapshot the service counters and cache statistics.
    pub fn metrics(&self) -> ServiceMetrics {
        let ins = &self.shared.ins;
        ServiceMetrics {
            requests: ins.requests.value(),
            admitted_cells: ins.admitted_cells.value(),
            batches: ins.batches.value(),
            bad_requests: ins.bad_requests.value(),
            overloaded: ins.overloaded.value(),
            timeouts: ins.timeouts.value(),
            queue_cells: lock(&self.shared.queue).queued_cells as u64,
            cache: lock(&self.shared.cache).stats(),
        }
    }

    /// The per-service metrics registry. Shared with load harnesses so
    /// they can diff [`Registry::snapshot`]s around each arm.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.registry)
    }

    /// The provenance stamped on every response this service fills.
    pub fn provenance(&self) -> &Provenance {
        &self.shared.provenance
    }

    /// Render the registry in Prometheus text exposition format (the
    /// `GET /metrics` body). Syncs the cache mirrors and queue gauge
    /// first so a scrape is never staler than the moment it was served.
    pub fn prometheus_text(&self) -> String {
        let ins = &self.shared.ins;
        ins.sync_cache(&lock(&self.shared.cache).stats());
        ins.queue_cells
            .set(lock(&self.shared.queue).queued_cells as f64);
        etsb_obs::expo::render(&self.shared.registry.snapshot())
    }

    /// Stop admissions, drain every queued request, and join the worker.
    /// Queued work is completed, not discarded; only requests arriving
    /// after shutdown begins are refused with `shutting_down`.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        {
            let mut q = lock(&self.shared.queue);
            q.shutting_down = true;
        }
        self.shared.arrived.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        } else {
            // Manual mode drains on the caller's thread.
            while self.shared.tick() {}
        }
    }
}

impl Drop for DetectService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Shared {
    fn tick(&self) -> bool {
        let batch: Vec<Pending> = {
            let mut q = lock(&self.queue);
            if q.queue.is_empty() {
                return false;
            }
            self.ins.queue_depth.record(q.queued_cells as u64);
            let mut batch = Vec::new();
            let mut cells = 0usize;
            while let Some(front) = q.queue.front() {
                let n = front.encoded.sequences.len();
                if !batch.is_empty() && cells + n > self.cfg.max_batch_cells {
                    break;
                }
                cells += n;
                q.queued_cells = q.queued_cells.saturating_sub(n);
                if let Some(pending) = q.queue.pop_front() {
                    batch.push(pending);
                }
            }
            self.ins.queue_cells.set(q.queued_cells as f64);
            batch
        };

        let started = Instant::now();
        let mut live = Vec::with_capacity(batch.len());
        for pending in batch {
            match pending.deadline {
                Some(deadline) if started >= deadline => {
                    self.ins.timeouts.inc();
                    pending.slot.fill(
                        Response::failed(
                            pending.id,
                            Status::Timeout,
                            "request expired in the admission queue".to_string(),
                        )
                        .with_provenance(self.provenance.clone()),
                    );
                }
                _ => live.push(pending),
            }
        }
        if live.is_empty() {
            // Expiring requests still counts as work performed.
            return true;
        }

        // Coalesce: concatenate per-request encodings in arrival order.
        // Each encoding is a pure function of its own request, so
        // concatenation cannot change any cell's model inputs — the
        // bitwise-determinism invariant of the whole service.
        let total: usize = live.iter().map(|p| p.encoded.sequences.len()).sum();
        let mut merged = EncodedDataset::empty_with_dicts(
            self.detector.char_index.clone(),
            self.detector.attr_index.clone(),
        );
        merged.sequences.reserve(total);
        merged.attr_ids.reserve(total);
        merged.length_norms.reserve(total);
        merged.labels.reserve(total);
        for pending in &live {
            merged
                .sequences
                .extend(pending.encoded.sequences.iter().cloned());
            merged.attr_ids.extend_from_slice(&pending.encoded.attr_ids);
            merged
                .length_norms
                .extend_from_slice(&pending.encoded.length_norms);
            merged.labels.extend_from_slice(&pending.encoded.labels);
        }
        merged.n_tuples = total;

        let cells: Vec<usize> = (0..total).collect();
        let (probs, stats) = {
            let _span = etsb_obs::obs_span!(
                "serve.batch",
                "requests" => live.len() as u64,
                "cells" => total as u64,
            );
            let mut cache = lock(&self.cache);
            let probs = self.detector.model.predict_probs_cached_with(
                &merged,
                &cells,
                &mut cache,
                self.policy,
            );
            (probs, cache.stats())
        };
        if etsb_obs::enabled() {
            // Batch-level manifest event: the response-provenance fields
            // plus which coalesced requests shared this forward pass, so
            // a trace replays exactly who was scored under which kernels.
            let request_ids: Vec<&str> = live.iter().map(|p| p.id.as_str()).collect();
            etsb_obs::obs_event!(
                "serve.batch_manifest",
                "model_hash" => self.provenance.model_hash.clone(),
                "model" => self.provenance.model.clone(),
                "kernel_policy" => self.policy.name(),
                "requests" => request_ids.join(","),
                "cells" => total as u64,
            );
        }
        self.ins.batches.inc();
        self.ins.batch_occupancy.record(total as u64);
        self.ins
            .batch_latency_ns
            .record_ns(saturating_ns(started.elapsed()));
        self.ins.sync_cache(&stats);

        let threshold = self.cfg.prob_threshold;
        let delivered = Instant::now();
        let mut offset = 0usize;
        for pending in live {
            let Pending {
                id,
                echo,
                submitted,
                slot,
                ..
            } = pending;
            let n = echo.len();
            let slice = &probs[offset..offset + n];
            offset += n;
            let results: Vec<CellResult> = echo
                .into_iter()
                .zip(slice)
                .map(|((tuple_id, attribute), &prob)| CellResult {
                    tuple_id,
                    attribute,
                    prob,
                    flagged: prob >= threshold,
                })
                .collect();
            self.ins.detect_latency_ns.record_ns(saturating_ns(
                delivered.saturating_duration_since(submitted),
            ));
            slot.fill(Response::ok(id, results).with_provenance(self.provenance.clone()));
        }
        true
    }
}

/// Resident batcher: park until work arrives, linger briefly so
/// neighbouring requests coalesce, run one tick; exit once shutdown is
/// flagged *and* the queue is drained.
fn worker_loop(shared: &Shared) {
    loop {
        {
            let mut q = lock(&shared.queue);
            loop {
                if !q.queue.is_empty() {
                    break;
                }
                if q.shutting_down {
                    return;
                }
                q = cv_wait(&shared.arrived, q);
            }
            // Linger for more arrivals up to the batch budget. Purely a
            // throughput knob: batch composition never affects results.
            if let Some(deadline) = Instant::now().checked_add(shared.cfg.linger) {
                while q.queued_cells < shared.cfg.max_batch_cells && !q.shutting_down {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (guard, timed_out) = cv_wait_timeout(&shared.arrived, q, deadline - now);
                    q = guard;
                    if timed_out {
                        break;
                    }
                }
            }
        }
        shared.tick();
    }
}
