//! Allocation-regression guard for the batched sequence hot path.
//!
//! A *warmed* batched forward/backward pass performs zero heap
//! allocations: every buffer is either owned by the reusable cache or
//! borrowed from the per-worker [`Workspace`]. These tests pin that
//! property with a counting global allocator — for every cell kind
//! under both kernel policies — so if someone reintroduces a per-step
//! or per-sample allocation, the count goes nonzero and the test names
//! the cell and policy.
//
// A test-only global allocator shim is the one legitimate unsafe block in
// the workspace; the deny-by-default lint stays on everywhere else.
#![allow(unsafe_code, reason = "test-only counting global allocator shim")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use etsb_nn::{
    grad_buffer_for, GruCell, LstmCell, Recurrence, RnnCell, SeqBatch, StackedBiRnn,
    StackedBiRnnCache,
};
use etsb_tensor::{init::seeded_rng, KernelPolicy, Matrix, Workspace};

/// Counts every allocation (alloc, alloc_zeroed, realloc) while
/// delegating the actual work to the system allocator.
struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. A process-wide count
    /// would also see whatever sibling tests and the test harness
    /// allocate on their own threads (the harness spawns the next test
    /// and collects captured output whenever one finishes), so each test
    /// counts only the thread running the code it measures. That code is
    /// single-threaded: no measured window spawns workers.
    /// Const-initialised and drop-free, so reading it never allocates.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method delegates verbatim to the System allocator after
// bumping a thread-local counter; the GlobalAlloc contract (layout validity,
// pointer provenance) is upheld by System itself.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds the GlobalAlloc contract; System does the work.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds the GlobalAlloc contract; System does the work.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: caller upholds the GlobalAlloc contract; System does the work.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: `ptr`/`layout` came from this allocator (which is System).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: caller upholds the GlobalAlloc contract; System does the work.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` came from this allocator (which is System).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Heap allocations made by one warmed batched forward + backward pass
/// through a `StackedBiRnn<C>` with the forward under `policy`.
fn warmed_batched_allocations<C: Recurrence>(policy: KernelPolicy) -> usize {
    let mut rng = seeded_rng(11);
    let (input_dim, hidden) = (9, 12);
    let net: StackedBiRnn<C> = StackedBiRnn::new(input_dim, hidden, &mut rng);
    let batch = SeqBatch::from_lengths(&[17, 5, 29, 11]);
    let packed = Matrix::from_fn(batch.total_rows(), input_dim, |i, j| {
        ((i * input_dim + j) as f32 * 0.17).sin()
    });
    let grad_features = Matrix::from_fn(batch.n_samples(), 2 * hidden, |i, j| {
        ((i * 2 * hidden + j) as f32 * 0.23).cos()
    });

    let mut ws = Workspace::new();
    let mut cache = StackedBiRnnCache::default();
    let mut grads = grad_buffer_for(&net.params());
    let mut features = Matrix::default();
    let mut grad_inputs = Matrix::default();
    let mut pass = || {
        net.forward_batch_into(&packed, &batch, &mut features, &mut cache, &mut ws, policy);
        net.backward_batch_into(
            &batch,
            &cache,
            &grad_features,
            grads.slots_mut(),
            &mut grad_inputs,
            &mut ws,
        );
    };

    // Warm-up: every cache / workspace / output buffer reaches its final
    // capacity here (two rounds so pool put/take cycles settle too).
    pass();
    pass();
    let before = allocations();
    pass();
    allocations() - before
}

#[test]
fn warmed_batched_stack_is_allocation_free() {
    for policy in [KernelPolicy::Exact, KernelPolicy::FastMath] {
        for (cell, n) in [
            ("RnnCell", warmed_batched_allocations::<RnnCell>(policy)),
            ("GruCell", warmed_batched_allocations::<GruCell>(policy)),
            ("LstmCell", warmed_batched_allocations::<LstmCell>(policy)),
        ] {
            assert_eq!(
                n,
                0,
                "warmed batched {cell} stack forward+backward under {} heap-allocated {n} time(s)",
                policy.name()
            );
        }
    }
}

/// Epoch-over-epoch guard for the batched workspace keys: once the pools
/// are warm, repeating the same batch must not grow the retained heap
/// footprint — a growing `pooled_bytes()` means some batched key leaks a
/// fresh allocation per epoch.
#[test]
fn batched_workspace_footprint_stabilizes_across_epochs() {
    let mut rng = seeded_rng(12);
    let (input_dim, hidden) = (7, 10);
    let net: StackedBiRnn<RnnCell> = StackedBiRnn::new(input_dim, hidden, &mut rng);
    let batch = SeqBatch::from_lengths(&[13, 4, 21, 8, 1]);
    let packed = Matrix::from_fn(batch.total_rows(), input_dim, |i, j| {
        ((i * input_dim + j) as f32 * 0.19).sin()
    });
    let grad_features = Matrix::from_fn(batch.n_samples(), 2 * hidden, |i, j| {
        ((i * 2 * hidden + j) as f32 * 0.31).cos()
    });

    let mut ws = Workspace::new();
    let mut cache = StackedBiRnnCache::default();
    let mut grads = grad_buffer_for(&net.params());
    let mut features = Matrix::default();
    let mut grad_inputs = Matrix::default();

    let mut bytes = Vec::new();
    for _ in 0..6 {
        net.forward_batch_into(
            &packed,
            &batch,
            &mut features,
            &mut cache,
            &mut ws,
            KernelPolicy::Exact,
        );
        net.backward_batch_into(
            &batch,
            &cache,
            &grad_features,
            grads.slots_mut(),
            &mut grad_inputs,
            &mut ws,
        );
        bytes.push(ws.pooled_bytes());
    }
    assert!(bytes[2] > 0, "workspace unexpectedly empty after warmup");
    assert!(
        bytes[2..].iter().all(|&b| b == bytes[2]),
        "workspace retained bytes kept growing across warmed epochs: {bytes:?}"
    );
}
