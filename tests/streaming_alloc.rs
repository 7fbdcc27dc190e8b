//! Allocation bounds for the streaming scan path.
//!
//! The O(chunk) memory story has three layers. The table layer
//! ([`FrameScan`] + [`ChunkedFrame`] + the row sources) reuses every
//! buffer, so a warmed scan performs **zero** heap allocations — pinned
//! exactly here with a counting allocator, and over CSV files by a
//! rescan whose allocation count must not move with the row count. The prediction layer above it
//! allocates per chunk (probe keys, the per-chunk probability vector),
//! so its budget is *linear in chunks processed* and independent of the
//! table's total size — pinned by comparing a double-length stream
//! against a single-length one, which must also report the same peak
//! resident chunk and encoded bytes under both kernel policies. The
//! forward pass inside it scores each shard in fixed blocks, so its
//! peak live bytes grow with the cells scored only by the probabilities
//! it returns — pinned by tracking the live-byte peak of the measuring
//! thread.
//
// A test-only global allocator shim is a sanctioned unsafe site; the
// deny-by-default lint stays on everywhere else.
#![allow(unsafe_code, reason = "test-only counting global allocator shim")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use etsb_core::config::{ModelKind, TrainConfig};
use etsb_core::model::AnyModel;
use etsb_core::{stream_predict, EncodedDataset, KernelPolicy, PredictCache};
use etsb_table::scan::{scan_stats, ChunkedFrame, CsvSource, FrameScan, RowSource};
use etsb_table::{csv, AttrIndex, Table, TableError};
use etsb_tensor::init::seeded_rng;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Counts every allocation (alloc, alloc_zeroed, realloc) and tracks
/// live bytes and their peak while delegating the actual work to the
/// system allocator.
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
    /// Bytes allocated minus bytes freed by the current thread. Signed:
    /// a thread may free memory another thread allocated.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    /// Highest [`LIVE_BYTES`] since the last [`reset_peak`].
    static PEAK_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

/// Move the current thread's live bytes by `delta`, raising the peak.
fn track_live(delta: isize) {
    let live = LIVE_BYTES.with(|b| {
        b.set(b.get() + delta);
        b.get()
    });
    PEAK_BYTES.with(|p| p.set(p.get().max(live)));
}

/// A layout's size as a signed byte delta (allocation sizes never
/// exceed `isize::MAX`).
fn bytes(size: usize) -> isize {
    isize::try_from(size).unwrap_or(isize::MAX)
}

// SAFETY: every method delegates verbatim to the System allocator after
// bumping thread-local counters; the GlobalAlloc contract (layout validity,
// pointer provenance) is upheld by System itself.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds the GlobalAlloc contract; System does the work.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        track_live(bytes(layout.size()));
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds the GlobalAlloc contract; System does the work.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        track_live(bytes(layout.size()));
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: caller upholds the GlobalAlloc contract; System does the work.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        track_live(bytes(new_size) - bytes(layout.size()));
        // SAFETY: `ptr`/`layout` came from this allocator (which is System).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: caller upholds the GlobalAlloc contract; System does the work.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track_live(-bytes(layout.size()));
        // SAFETY: `ptr`/`layout` came from this allocator (which is System).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// The current thread's live bytes.
fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

/// Restart the current thread's peak at its live bytes.
fn reset_peak() {
    PEAK_BYTES.with(|p| p.set(live_bytes()));
}

/// The current thread's peak live bytes since [`reset_peak`].
fn peak_bytes() -> isize {
    PEAK_BYTES.with(Cell::get)
}

const N_COLS: usize = 3;

/// Deterministic fixed-width synthetic rows from a bounded pool, so every
/// reused buffer reaches the same capacity for any row count.
#[derive(Debug)]
struct SynthSource {
    columns: Vec<String>,
    n_rows: usize,
    next: usize,
}

impl SynthSource {
    fn new(n_rows: usize) -> SynthSource {
        SynthSource {
            columns: (0..N_COLS).map(|c| format!("col{c}")).collect(),
            n_rows,
            next: 0,
        }
    }
}

impl RowSource for SynthSource {
    fn columns(&self) -> &[String] {
        &self.columns
    }

    fn next_row(
        &mut self,
        dirty: &mut Vec<String>,
        clean: &mut Vec<String>,
    ) -> Result<bool, TableError> {
        if self.next == self.n_rows {
            return Ok(false);
        }
        let r = self.next;
        self.next += 1;
        dirty.resize_with(N_COLS, String::new);
        clean.resize_with(N_COLS, String::new);
        for c in 0..N_COLS {
            let pool = (r * 7 + c * 3) % 16;
            let truth = &mut clean[c];
            truth.clear();
            let _ = write!(truth, "v{pool:02}");
            let observed = &mut dirty[c];
            observed.clear();
            if (r + c).is_multiple_of(5) {
                let _ = write!(observed, "e{pool:02}");
            } else {
                observed.push_str(truth);
            }
        }
        Ok(true)
    }

    fn reset(&mut self) -> Result<(), TableError> {
        self.next = 0;
        Ok(())
    }
}

#[test]
fn warmed_chunk_scan_is_allocation_free() {
    let mut source = SynthSource::new(64);
    let (stats, _) = scan_stats(&mut source).expect("scan stats");
    let mut scan = FrameScan::new(source, stats.max_len, 8);
    let mut chunk = ChunkedFrame::new();

    // Warm-up: two full passes so every cell string and row buffer
    // reaches its final capacity.
    for _ in 0..2 {
        while scan.next_chunk(&mut chunk).expect("chunk") {}
        scan.reset().expect("reset");
    }

    let before = allocations();
    while scan.next_chunk(&mut chunk).expect("chunk") {}
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warmed chunk scan heap-allocated {} time(s)",
        after - before
    );
}

/// Write the synthetic source's first `rows` rows as a dirty/clean CSV
/// pair (fixed-width values, so every line has the same length).
fn write_csv_pair(dir: &Path, rows: usize) -> (PathBuf, PathBuf) {
    let mut source = SynthSource::new(rows);
    let mut dirty = Table::new(source.columns().to_vec());
    let mut clean = Table::new(source.columns().to_vec());
    let (mut d, mut c) = (Vec::new(), Vec::new());
    while source.next_row(&mut d, &mut c).expect("row") {
        dirty.push_row(d.clone());
        clean.push_row(c.clone());
    }
    // Equal-length names keep the path handling identical at both sizes.
    let paths = (
        dir.join(format!("dirty{rows:04}.csv")),
        dir.join(format!("clean{rows:04}.csv")),
    );
    csv::write_file(&dirty, &paths.0).expect("write dirty");
    csv::write_file(&clean, &paths.1).expect("write clean");
    paths
}

#[test]
fn warmed_csv_scan_allocates_the_same_at_any_row_count() {
    let dir = std::env::temp_dir().join(format!("etsb_alloc_csv_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    // Allocations of one reset plus one full chunked pass over a warmed
    // CSV source. Reopening the files costs a fixed number; every
    // per-row buffer is reused.
    let pass_allocations = |rows: usize| -> usize {
        let (dirty, clean) = write_csv_pair(&dir, rows);
        let mut source = CsvSource::open(&dirty, Some(clean.as_path())).expect("open");
        let (stats, _) = scan_stats(&mut source).expect("scan stats");
        let mut scan = FrameScan::new(source, stats.max_len, 8);
        let mut chunk = ChunkedFrame::new();
        for _ in 0..2 {
            while scan.next_chunk(&mut chunk).expect("chunk") {}
            scan.reset().expect("reset");
        }
        let before = allocations();
        scan.reset().expect("reset");
        while scan.next_chunk(&mut chunk).expect("chunk") {}
        allocations() - before
    };
    let (base, double) = (pass_allocations(64), pass_allocations(128));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        base, double,
        "a warmed CSV scan allocated {base} time(s) over 64 rows but {double} over 128"
    );
}

#[test]
fn stream_allocations_scale_with_chunks_not_table_size() {
    let small_cfg = TrainConfig {
        rnn_units: 4,
        attr_rnn_units: 2,
        head_dim: 4,
        length_dense_dim: 2,
        embed_dim: Some(3),
        ..TrainConfig::default()
    };
    let mut calibration = SynthSource::new(64);
    let (stats, char_index) = scan_stats(&mut calibration).expect("calibration");
    let attr_index = AttrIndex::from_names(calibration.columns().to_vec());
    let dims = EncodedDataset::empty_with_dicts(char_index.clone(), attr_index.clone());
    let model = AnyModel::new(ModelKind::Etsb, &dims, &small_cfg, &mut seeded_rng(3));

    let max_len = stats.max_len;
    for policy in [KernelPolicy::Exact, KernelPolicy::FastMath] {
        // Returns the allocation count and the peak resident chunk plus
        // encoded bytes of one stream over `rows` rows.
        let run = |rows: usize| -> (usize, usize) {
            let mut scan = FrameScan::new(SynthSource::new(rows), max_len.clone(), 8);
            // Caching off so the work per chunk is identical across runs.
            let mut cache = PredictCache::new(0);
            let before = allocations();
            let outcome = stream_predict(
                &model,
                &char_index,
                &attr_index,
                &mut scan,
                &mut cache,
                policy,
                |_| Ok(()),
            )
            .expect("stream");
            (
                allocations() - before,
                outcome.peak_chunk_bytes + outcome.peak_encoded_bytes,
            )
        };

        // Warm the buffer pools shared below (worker workspaces etc.).
        let _ = run(64);
        let (base, base_peak) = run(64);
        let (double, double_peak) = run(128);
        assert!(base > 0, "counting allocator wired up");
        // Doubling the table doubles the chunks; the allocation count may
        // scale with chunks but must not scale any faster (an O(table)
        // buffer per chunk would show up quadratically here).
        assert!(
            double <= 2 * base + 64,
            "{policy:?}: allocations grew faster than the chunk count: \
             {base} for 64 rows, {double} for 128"
        );
        // Fixed-width values keep every recycled buffer at the same
        // capacity, so the resident peak must not move with the row count:
        // the executable form of the O(chunk) memory claim.
        assert!(base_peak > 0, "{policy:?}: no resident bytes reported");
        assert_eq!(
            base_peak, double_peak,
            "{policy:?}: peak resident bytes vary with row count"
        );
    }
}

/// The forward pass keeps O(block) scratch: scoring four times the cells
/// may raise the peak live bytes by no more than the larger output. With
/// one worker every fold shard runs on the measuring thread, so the
/// thread's peak sees all of the forward's buffers. A forward that held
/// every shard's layer caches until the head ran would grow by its
/// caches — inputs and hidden states of every layer, for every
/// character — instead.
#[test]
fn forward_peak_memory_grows_only_with_the_output() {
    use etsb_core::model::PREDICT_BLOCK;
    use etsb_nn::parallel::set_worker_override;
    use etsb_table::CellFrame;

    // N cells fill each of the 16 fold shards with one whole block, so
    // both sizes run the same block shapes; fixed-width distinct values
    // keep every block's buffers at the same size.
    let n = 16 * PREDICT_BLOCK;
    let cols = 4;
    let mut table = Table::with_columns(&["a", "b", "c", "d"]);
    for r in 0..4 * n / cols {
        table.push_row((0..cols).map(|c| format!("v{:05}", r * cols + c)).collect());
    }
    let frame = CellFrame::merge(&table, &table).expect("merge");
    let data = EncodedDataset::from_frame(&frame);
    let cfg = TrainConfig {
        rnn_units: 4,
        attr_rnn_units: 2,
        head_dim: 4,
        length_dense_dim: 2,
        embed_dim: Some(3),
        ..TrainConfig::default()
    };
    let model = AnyModel::new(ModelKind::Etsb, &data, &cfg, &mut seeded_rng(5));
    // The per-shard probability vectors and the concatenated result:
    // two f32 per cell, live together while the shards are joined.
    let output_bytes_per_cell = 2 * std::mem::size_of::<f32>();

    set_worker_override(1);
    for policy in [KernelPolicy::Exact, KernelPolicy::FastMath] {
        let peak_growth = |count: usize| -> usize {
            let cells: Vec<usize> = (0..count).collect();
            let _ = model.predict_probs_direct_with(&data, &cells, policy);
            reset_peak();
            let base = live_bytes();
            let probs = model.predict_probs_direct_with(&data, &cells, policy);
            let growth = peak_bytes() - base;
            assert_eq!(probs.len(), count);
            usize::try_from(growth).unwrap_or(0)
        };
        let (small, large) = (peak_growth(n), peak_growth(4 * n));
        assert!(
            large <= small + 3 * n * output_bytes_per_cell,
            "{policy:?}: forward peak grew from {small} B over {n} cells to {large} B over {} \
             (bound {} B per extra cell)",
            4 * n,
            output_bytes_per_cell
        );
    }
    set_worker_override(0);
}
