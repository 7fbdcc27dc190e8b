//! `serve_tax`: open-loop serving through `etsb_serve::stdio::run` (the
//! `etsb serve --stdin` path) with the default `ServeConfig` and exact
//! kernels. Each request is one fresh Tax tuple of 15 cells; rows are
//! drawn in order and never repeat within a run. A generator thread
//! releases bursts of requests on a fixed schedule through a paced
//! reader, and the writer side stamps every response line as it is
//! written, so latency runs from the scheduled send to the response line.
//!
//! Every phase — each nominal-rate phase and each probed rung of the rate
//! ladder — starts from a service freshly warmed with the same fixed
//! prefix of rows, so its cache holds only what real traffic would have
//! left.

use crate::metrics::{Outcome, WorkloadInfo};
use crate::setup::{self, derive_seed, experiment, Detector};
use crate::spans::{breakdown, Trace};
use crate::stats::{median, ms, peak_rss_mib, quantile};
use crate::Args;
use etsb_core::persist::{load_detector, save_detector};
use etsb_core::{DatasetInfo, KernelPolicy};
use etsb_datasets::{Dataset, DatasetPair};
use etsb_obs::json::{self, Value};
use etsb_obs::registry::RegistrySnapshot;
use etsb_serve::engine::{DetectService, ResponseHandle};
use etsb_serve::protocol::parse_request;
use etsb_serve::{stdio, ServeConfig};
use etsb_table::normalize_value;
use std::io::{BufRead, Read, Write};
use std::ops::Range;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Tax rows the detector is trained on (1,000 of the paper's 200,000).
const TRAIN_SCALE: f64 = 0.005;
/// Brief training: serving cost does not depend on how well the
/// detector was trained.
const DETECTOR_EPOCHS: usize = 10;
/// Rows replayed into every fresh service before a phase is measured.
const WARM_PREFIX: usize = 300;
/// Requests released together at each scheduled instant. Bursts make
/// latency measure how fast the engine drains a coalesced backlog —
/// admission, 256-cell batches, cache, exact forward pass — instead of
/// the few-millisecond scheduling stalls of a shared two-vCPU host,
/// which swung the p99 of evenly spaced traffic between 5 and 20 ms
/// from run to run. 100 requests (1,500 cells) stay well inside the
/// default 4,096-cell admission queue.
const BURST: usize = 100;
/// The nominal mean rate (about a third of capacity on a 2-vCPU host), at
/// which latency is reported.
const NOMINAL_RPS: f64 = 1000.0;
/// p99 limit a ladder rung must hold: about four times the nominal
/// p99, so a rung breaks on a growing backlog, not on one host stall.
const P99_LIMIT_MS: f64 = 150.0;
/// Rungs on the fixed rate ladder: 1,000 req/s rising in 5% steps to
/// 4,322 req/s.
const LADDER_STEPS: usize = 31;
/// Share of `--seconds` spent at the nominal rate.
const NOMINAL_SHARE: f64 = 0.5;
/// Nominal-rate phases per run, one before each bisection step of the
/// ladder, so latency is read across the whole run rather than from one
/// stretch of host time; `p50_ms` and `p99_ms` are medians over them. At
/// `--seconds 12` each holds 1,200 requests, 12 beyond its p99.
const NOMINAL_PHASES: usize = 5;
/// Requests per ladder probe, whatever its rate.
const RUNG_REQUESTS: usize = 3000;
/// Ladder probes a bisection of the ladder needs at most, each rung
/// tried at most twice.
const MAX_PROBES: usize = 10;
/// Cells per request: one Tax tuple.
const CELLS_PER_REQUEST: usize = 15;
/// Served requests re-scored alone for the coalescing check.
const RESCORE_SAMPLE: usize = 100;
const SETUP_REPEATS: usize = 3;

/// Tax rows per generated block. Tax rows are drawn independently of
/// their position, so blocks from successive seeds concatenate into one
/// table with the generator's row distribution, and the generator's
/// cost stays linear in the rows a run consumes.
const BLOCK_ROWS: usize = 1000;

/// The run's request traffic: Tax rows generated block by block from
/// seeds derived from `--seed`, each formatted as one request line.
struct Traffic {
    blocks: Vec<DatasetPair>,
    /// One request line per row, newline-terminated.
    lines: Vec<String>,
}

impl Traffic {
    /// At least `rows` rows of traffic.
    fn generate(seed: u64, rows: usize) -> Result<Traffic, String> {
        let scale = BLOCK_ROWS as f64 / Dataset::Tax.paper_rows() as f64;
        let mut traffic = Traffic {
            blocks: Vec::new(),
            lines: Vec::with_capacity(rows + BLOCK_ROWS),
        };
        while traffic.lines.len() < rows {
            let k = traffic.blocks.len() as u64;
            let block = setup::generate(Dataset::Tax, scale, derive_seed(seed, 16 + k))?;
            for row in 0..block.dirty.n_rows() {
                let id = traffic.lines.len();
                traffic.lines.push(request_line(&block, row, id));
            }
            traffic.blocks.push(block);
        }
        Ok(traffic)
    }

    /// Dirty and clean value of global row `row`, column `col`.
    fn cell(&self, row: usize, col: usize) -> (&str, &str) {
        let block = &self.blocks[row / BLOCK_ROWS];
        let r = row % BLOCK_ROWS;
        (block.dirty.cell(r, col), block.clean.cell(r, col))
    }
}

/// What setup leaves for the measured phases.
struct Prepared {
    det: Detector,
    /// The trained detector as `etsb detect --save` writes it.
    saved: Vec<u8>,
    traffic: Traffic,
    service: DetectService,
    train_secs: f64,
    infos: Vec<DatasetInfo>,
}

fn request_line(pair: &DatasetPair, row: usize, id: usize) -> String {
    let columns = pair.dirty.columns();
    let cells = pair
        .dirty
        .row(row)
        .iter()
        .zip(columns)
        .map(|(value, attr)| {
            Value::obj([
                ("tuple_id".to_string(), Value::from(id)),
                ("attribute".to_string(), Value::from(attr.as_str())),
                ("value".to_string(), Value::from(value.as_str())),
            ])
        });
    let request = Value::obj([
        ("id".to_string(), Value::from(format!("r{id}"))),
        ("cells".to_string(), Value::Arr(cells.collect())),
    ]);
    request.to_json() + "\n"
}

fn start_service(saved: &[u8], lines: &[String]) -> Result<DetectService, String> {
    let detector = load_detector(saved).map_err(|e| e.to_string())?;
    let service = DetectService::start(detector, ServeConfig::default());
    // Warm with the fixed prefix, 16 requests at a time.
    for group in lines[..WARM_PREFIX].chunks(16) {
        let handles: Vec<ResponseHandle> = group
            .iter()
            .map(|line| parse_request(line.trim_end()).map(|r| service.submit(r)))
            .collect::<Result<_, _>>()?;
        for handle in handles {
            handle.wait();
        }
    }
    Ok(service)
}

fn prepare(seed: u64, seconds: f64) -> Result<Prepared, String> {
    let train_seed = derive_seed(seed, 0);
    let small = setup::generate(Dataset::Tax, TRAIN_SCALE, train_seed)?;
    let cfg = experiment(train_seed, DETECTOR_EPOCHS);
    let t = Instant::now();
    let det = setup::train_detector(&small, &cfg)?;
    let train_secs = t.elapsed().as_secs_f64();
    let saved = save_detector(&det.model, cfg.model, &cfg.train, &det.data).to_vec();
    // The warm prefix, two nominal-rate phases and the ladder probes.
    let rows = WARM_PREFIX + 2 * nominal_requests(seconds) + MAX_PROBES * RUNG_REQUESTS;
    let traffic = Traffic::generate(seed, rows)?;
    let service = start_service(&saved, &traffic.lines)?;
    let infos = vec![
        setup::info("tax(train)", &small),
        DatasetInfo::from_shape("tax(requests)", (traffic.lines.len(), CELLS_PER_REQUEST)),
    ];
    Ok(Prepared {
        det,
        saved,
        traffic,
        service,
        train_secs,
        infos,
    })
}

/// `BufRead` over request lines the generator thread hands over as they
/// fall due; end of input when the generator is done.
struct Paced<'a> {
    rx: mpsc::Receiver<&'a [u8]>,
    current: &'a [u8],
}

impl Read for Paced<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Paced<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.current.is_empty() {
            if let Ok(next) = self.rx.recv() {
                self.current = next;
            }
        }
        Ok(self.current)
    }

    fn consume(&mut self, n: usize) {
        self.current = &self.current[n..];
    }
}

/// Response sink that stamps each line as its newline is written.
struct Stamped {
    bytes: Vec<u8>,
    stamps: Vec<Instant>,
}

impl Write for Stamped {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let lines = buf.iter().filter(|&&b| b == b'\n').count();
        if lines > 0 {
            let now = Instant::now();
            self.stamps.extend(std::iter::repeat_n(now, lines));
        }
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One open-loop phase: what was sent when, and what came back.
struct Phase {
    rate: f64,
    late_ms: Vec<f64>,
    latency_ms: Vec<f64>,
    responses: Vec<String>,
    /// Responses with status `ok` and one result per request cell.
    complete: usize,
    /// Requests due but unanswered when the last request fell due, minus
    /// those unanswered halfway through the phase.
    backlog_growth: i64,
    /// From the first scheduled send to the last response line, in s.
    span_secs: f64,
}

impl Phase {
    /// Requests answered per second over the phase.
    fn achieved_rps(&self) -> f64 {
        self.responses.len() as f64 / self.span_secs
    }

    fn p99(&self) -> f64 {
        quantile(&self.latency_ms, 0.99)
    }

    /// A ladder rung holds when every request was answered in full, p99
    /// stays under the limit and the backlog did not grow by more than
    /// the limit's worth of requests.
    fn holds(&self) -> bool {
        self.complete == self.responses.len()
            && self.p99() <= P99_LIMIT_MS
            && (self.backlog_growth as f64) <= self.rate * P99_LIMIT_MS / 1e3
    }
}

/// Rate of ladder rung `step`, in requests per second.
fn ladder(step: usize) -> f64 {
    (1000.0 * 1.05_f64.powi(step as i32)).round()
}

/// Seconds after the phase start at which request `i` falls due: bursts
/// of `BURST` requests, spaced so the mean rate is `rate`.
fn scheduled(i: usize, rate: f64) -> f64 {
    ((i / BURST) * BURST) as f64 / rate
}

/// Schedule `lines` at `rate` through `stdio::run` on `service`.
fn open_loop(service: &DetectService, lines: &[String], rate: f64) -> Result<Phase, String> {
    let n = lines.len();
    let start = Instant::now() + Duration::from_millis(5);
    let due: Vec<Instant> = (0..n)
        .map(|i| start + Duration::from_secs_f64(scheduled(i, rate)))
        .collect();
    let mut sink = Stamped {
        bytes: Vec::with_capacity(n * 2048),
        stamps: Vec::with_capacity(n),
    };
    let (tx, rx) = mpsc::channel::<&[u8]>();
    let late_ms = std::thread::scope(|scope| -> Result<Vec<f64>, String> {
        let due = &due;
        let generator = scope.spawn(move || {
            let mut late = Vec::with_capacity(n);
            for (line, &at) in lines.iter().zip(due) {
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                late.push(ms(at, Instant::now()));
                if tx.send(line.as_bytes()).is_err() {
                    break;
                }
            }
            late
        });
        let input = Paced { rx, current: &[] };
        let served = stdio::run(service, input, &mut sink);
        let late = generator
            .join()
            .map_err(|_| "load generator panicked".to_string())?;
        served.map_err(|e| e.to_string())?;
        Ok(late)
    })?;
    let text = String::from_utf8(sink.bytes).map_err(|e| e.to_string())?;
    let responses: Vec<String> = text.lines().map(str::to_string).collect();
    if responses.len() != n || sink.stamps.len() != n {
        return Err(format!(
            "sent {n} requests, got {} responses",
            responses.len()
        ));
    }
    let latency_ms: Vec<f64> = due
        .iter()
        .zip(&sink.stamps)
        .map(|(&d, &s)| ms(d, s))
        .collect();
    let complete = responses
        .iter()
        .zip(lines)
        .filter(|(response, request)| response_complete(response, request))
        .count();
    let backlog = |t: Instant| {
        let sent = due.partition_point(|&d| d <= t);
        let answered = sink.stamps.partition_point(|&s| s <= t);
        sent as i64 - answered as i64
    };
    Ok(Phase {
        rate,
        late_ms,
        latency_ms,
        complete,
        backlog_growth: backlog(due[n - 1]) - backlog(due[n / 2]),
        span_secs: ms(due[0], sink.stamps[n - 1]) / 1e3,
        responses,
    })
}

/// A response is complete when it is `ok`, answers the request's id and
/// carries one result per submitted cell.
fn response_complete(response: &str, request: &str) -> bool {
    let (Ok(resp), Ok(req)) = (json::parse(response), parse_request(request.trim_end())) else {
        return false;
    };
    let results = match resp.get("results") {
        Some(Value::Arr(items)) => items.len(),
        _ => 0,
    };
    resp.get("status").and_then(Value::as_str) == Some("ok")
        && resp.get("id").and_then(Value::as_str) == Some(req.id.as_str())
        && results == req.cells.len()
}

/// Re-score a fixed sample of served requests alone — one request per
/// batch, no cache — and count the responses that differ from the
/// served line in any byte.
fn rescore(
    saved: &[u8],
    lines: &[String],
    responses: &[String],
    sample: usize,
) -> Result<(usize, usize), String> {
    let detector = load_detector(saved).map_err(|e| e.to_string())?;
    let service = DetectService::start(
        detector,
        ServeConfig {
            max_batch_cells: 1,
            cache_capacity: 0,
            ..ServeConfig::default()
        },
    );
    let step = (lines.len() / sample.max(1)).max(1);
    let mut checked = 0;
    let mut differ = 0;
    for i in (0..lines.len()).step_by(step) {
        let request = parse_request(lines[i].trim_end())?;
        let alone = service.submit(request).wait().to_json_line();
        checked += 1;
        differ += usize::from(alone != responses[i]);
    }
    Ok((checked, differ))
}

/// F1 of the served flags against the clean Tax table.
fn served_f1(traffic: &Traffic, first_row: usize, responses: &[String]) -> Option<f64> {
    let mut counts = etsb_core::StreamMetrics::new();
    for (k, response) in responses.iter().enumerate() {
        let row = first_row + k;
        let parsed = json::parse(response).ok()?;
        let Some(Value::Arr(results)) = parsed.get("results") else {
            return None;
        };
        for (col, result) in results.iter().enumerate() {
            let flagged = matches!(result.get("flagged"), Some(Value::Bool(true)));
            let (dirty, clean) = traffic.cell(row, col);
            let label = normalize_value(dirty) != normalize_value(clean);
            counts.observe(flagged, label);
        }
    }
    counts.finish().map(|m| m.f1)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut train_secs = Vec::new();
    let (setup_secs, prepared) = setup::repeated(SETUP_REPEATS, || {
        let p = prepare(args.seed, args.seconds)?;
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
        traced(args, &prepared, &mut out)?;
    } else {
        untraced(args, &prepared, &mut out)?;
        out.set("train_s", median(&train_secs));
    }
    Ok(out)
}

fn nominal_requests(seconds: f64) -> usize {
    (NOMINAL_RPS * seconds * NOMINAL_SHARE).ceil() as usize
}

/// Output checks on nominal-rate phases, each given with the rows it
/// sent: every response complete, and a fixed sample re-scored alone.
fn check_nominal(
    p: &Prepared,
    phases: &[(Range<usize>, Phase)],
    out: &mut Outcome,
) -> Result<(), String> {
    let n: usize = phases.iter().map(|(_, ph)| ph.responses.len()).sum();
    let complete: usize = phases.iter().map(|(_, ph)| ph.complete).sum();
    out.check(
        "responses_complete",
        complete == n,
        format!("{complete}/{n} responses ok with one result per request cell"),
    );
    let (mut checked, mut differ) = (0, 0);
    for (rows, phase) in phases {
        let lines = &p.traffic.lines[rows.clone()];
        let (c, d) = rescore(
            &p.saved,
            lines,
            &phase.responses,
            RESCORE_SAMPLE / phases.len(),
        )?;
        checked += c;
        differ += d;
    }
    out.check(
        "coalescing_bitwise",
        differ == 0,
        format!("{checked} served requests re-scored alone (max_batch_cells 1, cache 0): {differ} differ"),
    );
    out.attempted += n as u64;
    out.failed += (n - complete) as u64;
    Ok(())
}

fn untraced(args: &Args, p: &Prepared, out: &mut Outcome) -> Result<(), String> {
    let mut cursor = WARM_PREFIX;
    let per_phase = nominal_requests(args.seconds) / NOMINAL_PHASES;
    let mut nominal: Vec<(Range<usize>, Phase)> = Vec::new();
    // Bisect the ladder for the highest rung that holds, with one
    // nominal-rate phase before each step. A rung breaks only when a
    // second attempt on fresh rows breaks too, so one host stall cannot
    // send the search into the lower half.
    let (mut lo, mut hi) = (0, LADDER_STEPS);
    let mut best: Option<Phase> = None;
    while lo < hi || nominal.len() < NOMINAL_PHASES {
        if nominal.len() < NOMINAL_PHASES {
            // The first phase uses the service set up and warmed in setup.
            let fresh;
            let service = if nominal.is_empty() {
                &p.service
            } else {
                fresh = start_service(&p.saved, &p.traffic.lines)?;
                &fresh
            };
            let rows = cursor..cursor + per_phase;
            cursor += per_phase;
            let phase = open_loop(service, &p.traffic.lines[rows.clone()], NOMINAL_RPS)?;
            out.report.push(format!(
                "nominal {NOMINAL_RPS} req/s in bursts of {BURST}: {per_phase} requests, p50 {:.3} ms, p99 {:.3} ms, generator late p99 {:.3} ms",
                quantile(&phase.latency_ms, 0.50),
                phase.p99(),
                quantile(&phase.late_ms, 0.99)
            ));
            nominal.push((rows, phase));
        }
        if lo >= hi {
            continue;
        }
        let mid = (lo + hi) / 2;
        let rate = ladder(mid);
        let mut held = None;
        for _attempt in 0..2 {
            let service = start_service(&p.saved, &p.traffic.lines)?;
            let rows = &p.traffic.lines[cursor..cursor + RUNG_REQUESTS];
            let phase = open_loop(&service, rows, rate)?;
            cursor += RUNG_REQUESTS;
            out.report.push(format!(
                "rung {rate:>6} req/s: {} failed, p99 {:.3} ms, backlog growth {}, achieved {:.1} req/s -> {}",
                RUNG_REQUESTS - phase.complete,
                phase.p99(),
                phase.backlog_growth,
                phase.achieved_rps(),
                if phase.holds() { "holds" } else { "breaks" }
            ));
            if phase.holds() {
                held = Some(phase);
                break;
            }
        }
        match held {
            Some(phase) => {
                lo = mid + 1;
                best = Some(phase);
            }
            None => hi = mid,
        }
    }
    check_nominal(p, &nominal, out)?;
    let each =
        |f: &dyn Fn(&Phase) -> f64| nominal.iter().map(|(_, ph)| f(ph)).collect::<Vec<f64>>();
    out.set(
        "p50_ms",
        median(&each(&|ph| quantile(&ph.latency_ms, 0.50))),
    );
    out.set("p99_ms", median(&each(&Phase::p99)));
    let ok_cells = each(&|ph| ph.complete as f64).iter().sum::<f64>() * CELLS_PER_REQUEST as f64;
    out.set(
        "cells_per_s",
        ok_cells / each(&|ph| ph.span_secs).iter().sum::<f64>(),
    );
    // The rate the service actually sustained at the highest rung held.
    out.set("max_rps", best.as_ref().map_or(0.0, Phase::achieved_rps));
    out.set("peak_rss_mib", peak_rss_mib());
    Ok(())
}

/// One request's timestamps in the traced phase.
struct Stamps {
    due: Instant,
    sent: Instant,
    parsed: Instant,
    submitted: Instant,
    ready: Instant,
    rendered: Instant,
}

/// The traced phase: the generator calls `parse_request` and `submit`
/// itself, a collector calls `wait` and `to_json_line`, and every call
/// becomes a span of its request.
fn traced_phase(
    service: &DetectService,
    lines: &[String],
    rate: f64,
) -> Result<(Vec<Stamps>, Vec<String>), String> {
    let n = lines.len();
    let start = Instant::now() + Duration::from_millis(5);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let generator = scope.spawn(move || -> Result<(), String> {
            for (i, line) in lines.iter().enumerate() {
                let due = start + Duration::from_secs_f64(scheduled(i, rate));
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let request = parse_request(line.trim_end())?;
                let parsed = Instant::now();
                let handle = service.submit(request);
                let submitted = Instant::now();
                if tx.send((due, sent, parsed, submitted, handle)).is_err() {
                    break;
                }
            }
            Ok(())
        });
        let mut stamps = Vec::with_capacity(n);
        let mut responses = Vec::with_capacity(n);
        for (due, sent, parsed, submitted, handle) in rx {
            let response = handle.wait();
            let ready = Instant::now();
            let line = response.to_json_line();
            let rendered = Instant::now();
            responses.push(line);
            stamps.push(Stamps {
                due,
                sent,
                parsed,
                submitted,
                ready,
                rendered,
            });
        }
        generator
            .join()
            .map_err(|_| "load generator panicked".to_string())??;
        Ok((stamps, responses))
    })
}

fn registry_delta(before: &RegistrySnapshot, after: &RegistrySnapshot, out: &mut Outcome) {
    let counter = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    let mean = |name: &str| match (after.histogram(name), before.histogram(name)) {
        (Some(a), Some(b)) => a.delta(b).mean(),
        _ => 0.0,
    };
    out.set("engine.batch_ms", mean("etsb_serve_batch_latency_ns") / 1e6);
    out.set(
        "engine.batch_cells",
        mean("etsb_serve_batch_occupancy_cells"),
    );
    out.set(
        "engine.queue_depth_cells",
        mean("etsb_serve_queue_depth_cells"),
    );
    let hits = counter("etsb_serve_cache_hits_total") as f64;
    let misses = counter("etsb_serve_cache_misses_total") as f64;
    out.set("cache.hit_ratio", hits / (hits + misses));
    out.set("cache.misses", misses);
    out.set(
        "cache.evictions",
        counter("etsb_serve_cache_evictions_total") as f64,
    );
    out.set(
        "engine.overloaded",
        counter("etsb_serve_overloaded_total") as f64,
    );
    out.set(
        "engine.timeouts",
        counter("etsb_serve_timeouts_total") as f64,
    );
}

/// Spans that group layers rather than time one public call.
const GROUPS: [&str; 1] = ["request"];

fn traced(args: &Args, p: &Prepared, out: &mut Outcome) -> Result<(), String> {
    let n = nominal_requests(args.seconds);
    let mut cursor = WARM_PREFIX;
    // Untraced reference for the tracing overhead, on its own rows.
    let plain_rows = cursor..cursor + n;
    cursor += n;
    let plain = open_loop(
        &p.service,
        &p.traffic.lines[plain_rows.clone()],
        NOMINAL_RPS,
    )?;
    let plain_p50 = quantile(&plain.latency_ms, 0.5);
    check_nominal(p, &[(plain_rows, plain)], out)?;
    let service = start_service(&p.saved, &p.traffic.lines)?;
    let lines = &p.traffic.lines[cursor..cursor + n];
    let mut trace = Trace::new();
    let before = service.registry().snapshot();
    let (stamps, responses) = traced_phase(&service, lines, NOMINAL_RPS)?;
    let after = service.registry().snapshot();
    drop(service);

    let mut roots = Vec::with_capacity(n);
    let mut coverage = Vec::with_capacity(n);
    let mut latency = Vec::with_capacity(n);
    for (i, s) in stamps.iter().enumerate() {
        let id = (cursor + i) as u64;
        let root = trace.push("request", s.due, s.rendered, None, id);
        let parts = [
            ("loadgen.late", s.due, s.sent),
            ("protocol.parse", s.sent, s.parsed),
            ("engine.submit", s.parsed, s.submitted),
            ("engine.wait", s.submitted, s.ready),
            ("protocol.render", s.ready, s.rendered),
        ];
        let mut covered = 0.0;
        for (name, from, to) in parts {
            let span = trace.push(name, from, to, Some(root), id);
            covered += trace.span_ms(span);
        }
        let total = trace.span_ms(root);
        latency.push(total);
        coverage.push(if total > 0.0 { covered / total } else { 1.0 });
        roots.push(root);
    }
    let phase_complete = responses
        .iter()
        .zip(lines)
        .filter(|(r, q)| response_complete(r, q))
        .count();
    out.check(
        "traced_responses_complete",
        phase_complete == n,
        format!("{phase_complete}/{n} traced responses ok with one result per request cell"),
    );
    out.attempted += n as u64;
    out.failed += (n - phase_complete) as u64;

    let layers = trace.rollup(&roots);
    let per_call_us = |name: &str| layers.get(name).map_or(0.0, |r| 1e3 * r.total_ms);
    out.set("protocol.parse_us", per_call_us("protocol.parse"));
    out.set("protocol.render_us", per_call_us("protocol.render"));
    out.set("engine.submit_us", per_call_us("engine.submit"));
    let wait: Vec<f64> = stamps.iter().map(|s| ms(s.submitted, s.ready)).collect();
    out.set("engine.wait_p50_ms", quantile(&wait, 0.50));
    out.set("engine.wait_p99_ms", quantile(&wait, 0.99));
    let late: Vec<f64> = stamps.iter().map(|s| ms(s.due, s.sent)).collect();
    out.set("loadgen.late_p99_ms", quantile(&late, 0.99));
    out.set(
        "loadgen.late_max_ms",
        late.iter().copied().fold(0.0, f64::max),
    );
    registry_delta(&before, &after, out);
    out.set(
        "model.forward_us_per_cell",
        setup::forward_us_per_cell(&p.det, KernelPolicy::Exact),
    );
    if let Some(f1) = served_f1(&p.traffic, cursor, &responses) {
        out.set("eval.f1", f1);
    }
    let traced_p50 = quantile(&latency, 0.5);
    out.set(
        "obs.trace_overhead_share",
        (traced_p50 - plain_p50) / plain_p50,
    );
    let (lines_out, _) = breakdown(
        &layers,
        layers.get("request").map_or(0.0, |r| r.total_ms),
        &GROUPS,
    );
    out.report.extend(lines_out);
    out.report.push(format!(
        "median request latency {traced_p50:.3} ms traced vs {plain_p50:.3} ms untraced over {n} requests"
    ));
    // Share of the median request's latency its layer spans cover.
    out.set("accounted_share", median(&coverage));
    out.trace = Some(trace);
    Ok(())
}
