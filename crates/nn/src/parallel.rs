//! Data-parallel helpers.
//!
//! Model inference and gradient accumulation in this workspace are safe to
//! shard: layers carry no hidden mutable state (cache-out convention) and
//! backward passes write into explicit [`etsb_tensor::GradBuffer`]s, so
//! threads share the model immutably and combine results afterwards.
//!
//! # Determinism contract
//!
//! [`parallel_map_shards`] cuts the item range into a **fixed number of
//! shards** ([`fold_shards`]) that depends only on the item count — never
//! on the worker count — and returns per-shard results in shard-index
//! order. Callers combine those results in that order, so the exact same
//! float additions happen in the exact same order whether the shards run
//! on one thread or thirty-two, and training results are
//! bitwise-identical for a given seed regardless of `ETSB_WORKERS` / core
//! count.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Fixed shard count cap for [`fold_shards`]: enough slack for any
/// realistic core count while keeping per-shard merge cost trivial.
const MAX_FOLD_SHARDS: usize = 16;

/// Below this many items the helpers stay on the calling thread (the
/// fixed shard structure keeps results identical either way).
const SPAWN_THRESHOLD: usize = 64;

/// Process-wide worker-count override (0 = automatic). Takes precedence
/// over the `ETSB_WORKERS` environment variable.
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Force a specific worker count for every subsequent parallel helper
/// call; `0` restores automatic selection. Intended for benchmarks and
/// determinism tests; results do not depend on this by construction.
pub fn set_worker_override(workers: usize) {
    WORKER_OVERRIDE.store(workers, Ordering::SeqCst);
}

/// Configured parallelism: the override if set, else the `ETSB_WORKERS`
/// environment variable if set to a positive integer, else the machine's
/// available parallelism.
fn configured_workers() -> usize {
    let forced = WORKER_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(raw) = std::env::var("ETSB_WORKERS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Number of worker threads to use: the configured parallelism, capped so
/// tiny workloads do not pay spawn overhead.
pub fn worker_count(items: usize) -> usize {
    configured_workers().min(items.max(1)).min(32)
}

/// The resolved process-wide worker configuration (override, else
/// `ETSB_WORKERS`, else available parallelism) before per-call capping.
/// Recorded in run manifests so a sweep's parallelism is reproducible.
pub fn resolved_workers() -> usize {
    configured_workers()
}

/// Number of fold shards for `n` items: a pure function of `n` (never of
/// the worker count), so the shard boundaries — and therefore the float
/// summation order — are identical on every machine.
pub fn fold_shards(n: usize) -> usize {
    n.min(MAX_FOLD_SHARDS)
}

/// Apply `f` to each deterministic shard of `0..n` — [`fold_shards`]`(n)`
/// contiguous ranges of `n.div_ceil(shards)` items — returning per-shard
/// results in shard-index order. `f` receives the shard index and its item
/// range; trailing shards may receive an empty range (the boundaries are a
/// pure function of `n`), and their results still occupy their slot.
///
/// The model hot path builds one packed sequence batch per shard, and
/// because shard composition depends only on the item count, the
/// float-operation order inside each batch — and the shard-order
/// combination afterwards — is identical for every worker count.
pub fn parallel_map_shards<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, std::ops::Range<usize>) -> T + Sync,
{
    let shards = fold_shards(n);
    if shards == 0 {
        return Vec::new();
    }
    let chunk = n.div_ceil(shards);
    let workers = worker_count(shards);
    let run_shard = |s: usize| {
        let start = (s * chunk).min(n);
        let end = ((s + 1) * chunk).min(n);
        f(s, start..end)
    };
    if workers <= 1 || n < SPAWN_THRESHOLD {
        return (0..shards).map(run_shard).collect();
    }
    let per_worker = shards.div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let run_shard = &run_shard;
                scope.spawn(move || {
                    let start = w * per_worker;
                    let end = ((w + 1) * per_worker).min(shards);
                    (start..end).map(run_shard).collect::<Vec<T>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(shards);
        // Workers cover contiguous shard ranges in worker order, so
        // concatenation restores shard order exactly.
        for handle in handles {
            match handle.join() {
                Ok(part) => out.extend(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_shards_matches_fold_boundaries() {
        for n in [0usize, 5, 17, 64, 200] {
            let ranges = parallel_map_shards(n, |s, r| (s, r));
            assert_eq!(ranges.len(), fold_shards(n));
            let mut covered = Vec::new();
            for (i, (s, r)) in ranges.iter().enumerate() {
                assert_eq!(*s, i);
                if n > 0 {
                    let chunk = n.div_ceil(fold_shards(n));
                    assert_eq!(r.start, (i * chunk).min(n));
                    assert_eq!(r.end, ((i + 1) * chunk).min(n));
                }
                covered.extend(r.clone());
            }
            assert_eq!(covered, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_shards_is_worker_independent() {
        let run = || parallel_map_shards(200, |s, r| (s, r.start, r.end));
        set_worker_override(1);
        let serial = run();
        set_worker_override(4);
        let threaded = run();
        set_worker_override(0);
        assert_eq!(serial, threaded);
    }

    #[test]
    fn fold_shards_depend_only_on_item_count() {
        assert_eq!(fold_shards(0), 0);
        assert_eq!(fold_shards(5), 5);
        assert_eq!(fold_shards(64), MAX_FOLD_SHARDS);
        assert_eq!(fold_shards(1_000_000), MAX_FOLD_SHARDS);
    }

    #[test]
    fn worker_count_bounds() {
        assert_eq!(worker_count(0), 1);
        assert!(worker_count(1_000_000) <= 32);
    }

    #[test]
    fn worker_override_forces_count() {
        set_worker_override(2);
        assert_eq!(worker_count(1_000_000), 2);
        set_worker_override(0);
        assert!(worker_count(1_000_000) >= 1);
    }
}
