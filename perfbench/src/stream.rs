//! `stream_hospital`: the `etsb detect --chunk-rows` scoring path with
//! `--fast-math` — `scan_stats` + `stream_predict` over a Hospital CSV
//! pair generated at 20× paper size, in the CLI's 4,096-row chunks with
//! a 16,384-entry `PredictCache` started cold on every pass, against a
//! detector trained in setup on the paper-size table.

use crate::metrics::{Outcome, WorkloadInfo};
use crate::setup::{self, derive_seed, experiment, Detector};
use crate::spans::{breakdown, Trace};
use crate::stats::{median, ms, peak_rss_mib, quantile};
use crate::Args;
use etsb_core::{stream_predict, CacheStats, KernelPolicy, PredictCache, StreamMetrics};
use etsb_datasets::Dataset;
use etsb_table::scan::{scan_stats, CsvSource, FrameScan, RowSource};
use etsb_table::{csv, TableError};
use std::cell::RefCell;
use std::path::PathBuf;
use std::time::Instant;

/// Rows of the streamed table as a multiple of the paper's 1,000.
const STREAM_SCALE: f64 = 20.0;
/// `etsb detect --chunk-rows` as the CLI is run on large inputs.
const CHUNK_ROWS: usize = 4096;
/// The CLI's streaming `PredictCache` bound.
const CACHE_ENTRIES: usize = 1 << 14;
const POLICY: KernelPolicy = KernelPolicy::FastMath;
/// Brief training: the scoring path's cost does not depend on how well
/// the detector was trained.
const DETECTOR_EPOCHS: usize = 8;
const SETUP_REPEATS: usize = 3;
const MIN_PASSES: usize = 3;

/// A directory under `perfbench/results/`, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(name: &str) -> Result<ScratchDir, String> {
        let path = crate::metrics::results_dir().join(name);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything setup leaves for the measured passes.
struct Prepared {
    det: Detector,
    train_secs: f64,
    rows: usize,
    attrs: usize,
    dirty: PathBuf,
    clean: PathBuf,
    _dir: ScratchDir,
    infos: Vec<etsb_core::DatasetInfo>,
}

fn prepare(seed: u64) -> Result<Prepared, String> {
    let (train_seed, stream_seed) = (derive_seed(seed, 0), derive_seed(seed, 1));
    let small = setup::generate(Dataset::Hospital, 1.0, train_seed)?;
    let t = Instant::now();
    let det = setup::train_detector(&small, &experiment(train_seed, DETECTOR_EPOCHS))?;
    let train_secs = t.elapsed().as_secs_f64();
    let big = setup::generate(Dataset::Hospital, STREAM_SCALE, stream_seed)?;
    let dir = ScratchDir::create(&format!("stream-{}", std::process::id()))?;
    let (dirty, clean) = (dir.0.join("dirty.csv"), dir.0.join("clean.csv"));
    csv::write_file(&big.dirty, &dirty).map_err(|e| e.to_string())?;
    csv::write_file(&big.clean, &clean).map_err(|e| e.to_string())?;
    let prepared = Prepared {
        det,
        train_secs,
        rows: big.dirty.n_rows(),
        attrs: big.dirty.n_cols(),
        dirty,
        clean,
        _dir: dir,
        infos: vec![
            setup::info("hospital(train)", &small),
            setup::info("hospital(stream)", &big),
        ],
    };
    // Warm-up pass: page cache, allocator and worker threads.
    pass(&prepared, None)?;
    Ok(prepared)
}

/// Row source that stamps each row as it is read and, in the traced
/// run, records a span around every `next_row` call.
struct Stamped<'a, S> {
    inner: S,
    stamps: &'a RefCell<Vec<Instant>>,
    trace: Option<&'a RefCell<Trace>>,
}

impl<S: RowSource> RowSource for Stamped<'_, S> {
    fn columns(&self) -> &[String] {
        self.inner.columns()
    }

    fn next_row(
        &mut self,
        dirty: &mut Vec<String>,
        clean: &mut Vec<String>,
    ) -> Result<bool, TableError> {
        let span = self.trace.map(|t| t.borrow_mut().enter("table.read_row"));
        let more = self.inner.next_row(dirty, clean);
        if let (Some(t), Some(s)) = (self.trace, span) {
            t.borrow_mut().exit(s);
        }
        if matches!(more, Ok(true)) {
            self.stamps.borrow_mut().push(Instant::now());
        }
        more
    }

    fn reset(&mut self) -> Result<(), TableError> {
        self.stamps.borrow_mut().clear();
        self.inner.reset()
    }
}

/// One cold-cache pass and what its outputs looked like.
struct Pass {
    secs: f64,
    rows: usize,
    cells: usize,
    flagged: usize,
    /// Probabilities outside [0, 1] or not finite.
    bad: usize,
    /// Order-dependent hash of every probability's bits.
    checksum: u64,
    /// Per row: from read to its chunk's verdicts reaching the sink.
    latency_ms: Vec<f64>,
    counts: StreamMetrics,
    cache: CacheStats,
    peak_resident: usize,
    root: Option<usize>,
}

fn pass(p: &Prepared, trace: Option<&RefCell<Trace>>) -> Result<Pass, String> {
    let enter = |name: &'static str| trace.map(|t| t.borrow_mut().enter(name));
    let exit = |span: Option<usize>| {
        if let (Some(t), Some(s)) = (trace, span) {
            t.borrow_mut().exit(s);
        }
    };
    let stamps = RefCell::new(Vec::with_capacity(p.rows));
    let (mut latency_ms, mut counts) = (Vec::with_capacity(p.rows), StreamMetrics::new());
    let (mut bad, mut checksum) = (0usize, 0xcbf2_9ce4_8422_2325u64);

    let t0 = Instant::now();
    let root = enter("pass");
    let s = enter("table.open");
    let mut source = CsvSource::open(&p.dirty, Some(&p.clean)).map_err(|e| e.to_string())?;
    exit(s);
    let s = enter("table.scan_stats");
    let (stats, _) = scan_stats(&mut source).map_err(|e| e.to_string())?;
    exit(s);
    let source = Stamped {
        inner: source,
        stamps: &stamps,
        trace,
    };
    let mut scan = FrameScan::new(source, stats.max_len, CHUNK_ROWS);
    let mut cache = PredictCache::new(CACHE_ENTRIES);
    let s = enter("stream.predict");
    let outcome = stream_predict(
        &p.det.model,
        &p.det.data.char_index,
        &p.det.data.attr_index,
        &mut scan,
        &mut cache,
        POLICY,
        |chunk| {
            let now = Instant::now();
            let s = enter("stream.sink");
            let first = chunk.frame.first_tuple();
            let stamps = stamps.borrow();
            for stamp in &stamps[first..first + chunk.frame.n_tuples()] {
                latency_ms.push(ms(*stamp, now));
            }
            for ((cell, &prob), &pred) in
                chunk.frame.cells().iter().zip(chunk.probs).zip(chunk.preds)
            {
                if !(prob.is_finite() && (0.0..=1.0).contains(&prob)) {
                    bad += 1;
                }
                checksum =
                    (checksum ^ u64::from(prob.to_bits())).wrapping_mul(0x0000_0100_0000_01b3);
                counts.observe(pred, cell.label);
            }
            exit(s);
            Ok(())
        },
    )
    .map_err(|e| e.to_string())?;
    exit(s);
    exit(root);
    Ok(Pass {
        secs: t0.elapsed().as_secs_f64(),
        rows: outcome.n_rows,
        cells: outcome.n_cells,
        flagged: outcome.flagged,
        bad,
        checksum,
        latency_ms,
        counts,
        cache: cache.stats(),
        peak_resident: outcome.peak_chunk_bytes + outcome.peak_encoded_bytes,
        root,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut train_secs = Vec::new();
    let (setup_secs, prepared) = setup::repeated(SETUP_REPEATS, || {
        let p = prepare(args.seed)?;
        train_secs.push(p.train_secs);
        Ok(p)
    })?;
    let info = WorkloadInfo {
        config: experiment(derive_seed(args.seed, 0), DETECTOR_EPOCHS),
        datasets: prepared.infos.clone(),
    };
    let mut out = Outcome::new(info);
    out.set("setup_s", median(&setup_secs));
    if args.trace {
        traced(&prepared, &mut out)?;
    } else {
        untraced(args, &prepared, &mut out)?;
        out.set("train_s", median(&train_secs));
    }
    Ok(out)
}

/// Output checks shared by both runs: every pass scored rows × attributes
/// cells, every probability is finite and in [0, 1], and the probability
/// bits hash the same on every pass.
fn check_passes(p: &Prepared, passes: &[Pass], out: &mut Outcome) {
    let expected = p.rows * p.attrs;
    let complete = passes
        .iter()
        .filter(|x| x.rows == p.rows && x.cells == expected)
        .count();
    out.check(
        "cells_scored",
        complete == passes.len(),
        format!(
            "{complete}/{} passes scored {} rows x {} attributes = {expected} cells",
            passes.len(),
            p.rows,
            p.attrs
        ),
    );
    let bad: usize = passes.iter().map(|x| x.bad).sum();
    out.check(
        "probabilities_in_range",
        bad == 0,
        format!("{bad} probabilities non-finite or outside [0, 1]"),
    );
    let same = passes
        .iter()
        .filter(|x| x.checksum == passes[0].checksum && x.flagged == passes[0].flagged)
        .count();
    out.check(
        "probability_checksum",
        same == passes.len(),
        format!(
            "{same}/{} passes hash to {:016x} ({} cells flagged)",
            passes.len(),
            passes[0].checksum,
            passes[0].flagged
        ),
    );
    out.attempted += passes.len() as u64;
    out.failed += passes
        .iter()
        .filter(|x| {
            x.rows != p.rows
                || x.cells != expected
                || x.bad > 0
                || x.checksum != passes[0].checksum
                || x.flagged != passes[0].flagged
        })
        .count() as u64;
}

fn untraced(args: &Args, p: &Prepared, out: &mut Outcome) -> Result<(), String> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        passes.push(pass(p, None)?);
    }
    check_passes(p, &passes, out);
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    out.set("cells_per_s", per_pass(&|x| x.cells as f64 / x.secs));
    out.set("max_rps", per_pass(&|x| x.rows as f64 / x.secs));
    out.set("p50_ms", per_pass(&|x| quantile(&x.latency_ms, 0.50)));
    out.set("p99_ms", per_pass(&|x| quantile(&x.latency_ms, 0.99)));
    out.set("peak_rss_mib", peak_rss_mib());
    if let Some(m) = passes[0].counts.finish() {
        out.report.push(format!(
            "detection over {} streamed cells: precision {:.4} recall {:.4} F1 {:.4}",
            passes[0].cells, m.precision, m.recall, m.f1
        ));
    }
    out.report.push(format!(
        "{} passes of {} rows; row latency from {} samples per pass",
        passes.len(),
        p.rows,
        passes[0].latency_ms.len()
    ));
    Ok(())
}

/// Spans that group layers rather than time one public call.
const GROUPS: [&str; 1] = ["pass"];

fn traced(p: &Prepared, out: &mut Outcome) -> Result<(), String> {
    let trace = RefCell::new(Trace::new());
    let (mut plain, mut traced, mut passes) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..2 {
        plain.push(pass(p, None)?.secs);
        let x = pass(p, Some(&trace))?;
        traced.push(x.secs);
        passes.push(x);
    }
    check_passes(p, &passes, out);
    let trace = trace.into_inner();
    let roots: Vec<usize> = passes.iter().filter_map(|x| x.root).collect();
    let layers = trace.rollup(&roots);
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    out.set("table.scan_stats_ms", get("table.scan_stats").total_ms);
    out.set("table.read_row_ms", get("table.read_row").total_ms);
    out.set("stream.chunk_ms", get("stream.predict").self_ms);
    let last = &passes[passes.len() - 1];
    let lookups = (last.cache.hits + last.cache.misses) as f64;
    out.set("model.reps_per_cell", lookups / last.cells as f64);
    out.set("cache.hit_ratio", last.cache.hits as f64 / lookups);
    out.set("cache.misses", last.cache.misses as f64);
    out.set("cache.evictions", last.cache.evictions as f64);
    out.set(
        "stream.peak_resident_kib",
        last.peak_resident as f64 / 1024.0,
    );
    out.set(
        "model.forward_us_per_cell",
        setup::forward_us_per_cell(&p.det, POLICY),
    );
    if let Some(m) = last.counts.finish() {
        out.set("eval.f1", m.f1);
    }
    out.set(
        "obs.trace_overhead_share",
        (median(&traced) - median(&plain)) / median(&plain),
    );
    let (lines, accounted) = breakdown(&layers, get("pass").total_ms, &GROUPS);
    out.report.extend(lines);
    out.set("accounted_share", accounted);
    out.trace = Some(trace);
    Ok(())
}
