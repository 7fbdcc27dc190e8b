//! Resident detection service: keep a trained detector warm in memory
//! and score cells on demand, instead of paying model load + dictionary
//! rebuild on every `etsb detect` invocation.
//!
//! The service is deliberately dependency-light — `std` threads, a
//! `Mutex`/`Condvar` admission queue, and the vendored workspace crates;
//! no async runtime. Three layers:
//!
//! * [`protocol`] — the newline-delimited JSON wire format (requests,
//!   responses, schema validation), shared by both front ends.
//! * [`engine`] — [`engine::DetectService`]: the admission queue that
//!   *coalesces* concurrently arriving requests into one batched forward
//!   pass per worker tick, the shared bounded prediction LRU
//!   ([`etsb_core::PredictCache`]), backpressure, per-request timeouts
//!   and graceful drain.
//! * [`stdio`] / [`http`] — front ends: JSONL over stdin/stdout for
//!   pipelines, and a minimal HTTP/1.1 listener for remote callers.
//!
//! # Why coalescing is safe
//!
//! Inference runs in eval mode, where every layer (BatchNorm included,
//! via running statistics) is row-independent: a cell's probability does
//! not depend on which other cells share its forward pass. Request
//! encoding ([`etsb_core::EncodedDataset::from_request_cells`]) is a
//! pure function of the request alone. Concatenating many requests into
//! one batch therefore changes *throughput only* — the served
//! probabilities are bitwise identical to scoring each request alone,
//! at any worker count and any batch boundary. The same argument lets
//! results be served from a cache keyed by the cell's model inputs.
//! `tests/serve.rs` and the `serve_check` smoke binary assert this end
//! to end.

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::disallowed_methods
    )
)]

pub mod engine;
pub mod http;
pub mod protocol;
pub mod stdio;

use std::time::Duration;

/// Tunables for [`engine::DetectService`]. Defaults favour small-model
/// latency; every knob is surfaced as an `etsb serve` flag.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Cell budget per coalesced forward pass. A tick takes whole
    /// requests until adding the next would exceed this (a single
    /// request larger than the budget still runs, alone).
    pub max_batch_cells: usize,
    /// How long a worker tick lingers for more arrivals once at least
    /// one request is queued, trading latency for batch occupancy.
    pub linger: Duration,
    /// Admission-queue bound in cells; requests that would overflow it
    /// are refused with `overloaded` (backpressure, not buffering).
    pub queue_capacity_cells: usize,
    /// Queue residency deadline; requests still queued past it are
    /// answered `timeout` instead of being scored.
    pub request_timeout: Duration,
    /// Bound of the shared prediction LRU, in distinct cells. Zero
    /// disables caching.
    pub cache_capacity: usize,
    /// A cell is flagged when its probability reaches this threshold.
    pub prob_threshold: f32,
    /// Score with the FastMath inference kernels
    /// ([`etsb_core::KernelPolicy::FastMath`]) instead of the exact
    /// bitwise path. The active policy is recorded in every response's
    /// `provenance.kernel_policy`, so exact and fast results are never
    /// conflated by byte-equality checks downstream.
    pub fast_math: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch_cells: 256,
            linger: Duration::from_millis(2),
            queue_capacity_cells: 4096,
            request_timeout: Duration::from_secs(1),
            cache_capacity: 65536,
            prob_threshold: 0.5,
            fast_math: false,
        }
    }
}
