//! End-to-end tests of the resident detection service: the coalescing
//! determinism contract (the batched path must be bitwise identical to
//! per-request sequential inference at any worker count, under either
//! kernel policy), LRU bounds, backpressure, timeout expiry, drain
//! semantics, and both front ends.
//!
//! Integration tests sit outside the library crates' clippy panic floor
//! (`unwrap_used`, `panic`, ...); panics here are test failures, not
//! service behaviour.

use etsb_core::config::{CellKind, ModelKind, TrainConfig};
use etsb_core::model::AnyModel;
use etsb_core::persist::LoadedDetector;
use etsb_core::EncodedDataset;
use etsb_serve::engine::DetectService;
use etsb_serve::protocol::{parse_request, validate_response_line, Request, RequestCell, Status};
use etsb_serve::ServeConfig;
use etsb_table::{AttrIndex, CharIndex};
use etsb_tensor::init::seeded_rng;
use std::sync::atomic::AtomicBool;
use std::time::Duration;

/// A small untrained (but deterministically initialised) detector —
/// inference determinism does not care whether the weights are good.
fn detector(kind: CellKind) -> LoadedDetector {
    let char_index = CharIndex::from_alphabet("abcdefghijklmnopqrstuvwxyz0123456789 .-".chars());
    let attr_index = AttrIndex::from_names(vec!["name".to_string(), "city".to_string()]);
    let train = TrainConfig {
        rnn_units: 8,
        attr_rnn_units: 4,
        head_dim: 8,
        length_dense_dim: 8,
        embed_dim: Some(6),
        cell: kind,
        ..TrainConfig::default()
    };
    let dims = EncodedDataset::empty_with_dicts(char_index.clone(), attr_index.clone());
    let model = AnyModel::new(ModelKind::Etsb, &dims, &train, &mut seeded_rng(7));
    LoadedDetector {
        model,
        kind: ModelKind::Etsb,
        train,
        char_index,
        attr_index,
    }
}

fn req(id: &str, cells: &[(&str, &str)]) -> Request {
    Request {
        id: id.to_string(),
        cells: cells
            .iter()
            .enumerate()
            .map(|(i, (attribute, value))| RequestCell {
                tuple_id: i as u64,
                attribute: attribute.to_string(),
                value: value.to_string(),
            })
            .collect(),
    }
}

/// Requests with cross-request duplicates (cache hits), leading
/// whitespace (normalization), empty values and an empty request.
fn sample_requests() -> Vec<Request> {
    vec![
        req("r0", &[("name", "alice"), ("city", "berlin")]),
        req("r1", &[("name", "bob"), ("name", "alice")]),
        req("r2", &[("city", ""), ("city", "  berlin")]),
        req(
            "r3",
            &[("name", "alice"), ("city", "berlin"), ("name", "zz9")],
        ),
        req("r4", &[]),
        req("r5", &[("city", "berlin")]),
    ]
}

/// Reference path: every request is its own batch, no cache.
fn run_sequential(kind: CellKind, fast_math: bool, requests: &[Request]) -> Vec<String> {
    let service = DetectService::start_manual(
        detector(kind),
        ServeConfig {
            max_batch_cells: 1,
            cache_capacity: 0,
            fast_math,
            ..ServeConfig::default()
        },
    );
    requests
        .iter()
        .map(|request| {
            let handle = service.submit(request.clone());
            service.tick();
            handle.wait().to_json_line()
        })
        .collect()
}

/// Coalesced path: all requests queued, then scored in shared batches
/// with the prediction cache enabled. `max_batch_cells` sets the batch
/// boundary; any value must yield the same bytes.
fn run_coalesced(
    kind: CellKind,
    fast_math: bool,
    requests: &[Request],
    max_batch_cells: usize,
) -> (Vec<String>, DetectService) {
    let service = DetectService::start_manual(
        detector(kind),
        ServeConfig {
            max_batch_cells,
            fast_math,
            ..ServeConfig::default()
        },
    );
    let handles: Vec<_> = requests
        .iter()
        .map(|request| service.submit(request.clone()))
        .collect();
    while service.tick() {}
    let lines = handles
        .into_iter()
        .map(|handle| handle.wait().to_json_line())
        .collect();
    (lines, service)
}

#[test]
fn coalesced_matches_sequential_for_all_cell_kinds_and_worker_counts() {
    for kind in [CellKind::Vanilla, CellKind::Lstm, CellKind::Gru] {
        // Both kernel policies: each is bitwise deterministic across batch
        // shapes and worker counts on its own.
        for fast_math in [false, true] {
            let arm = format!("{kind:?}, fast_math {fast_math}");
            // Run the list twice so the second pass is served from the cache.
            let mut requests = sample_requests();
            requests.extend(sample_requests());
            let reference = run_sequential(kind, fast_math, &requests);
            for workers in [1usize, 2, 4] {
                etsb_nn::parallel::set_worker_override(workers);
                let sequential = run_sequential(kind, fast_math, &requests);
                // One giant batch, and small batches with odd boundaries:
                // batch composition must never show up in the bytes.
                let (one_batch, _) = run_coalesced(kind, fast_math, &requests, 256);
                let (small_batches, service) = run_coalesced(kind, fast_math, &requests, 5);
                etsb_nn::parallel::set_worker_override(0);
                assert_eq!(
                    one_batch, sequential,
                    "coalesced != sequential ({arm}, {workers} workers)"
                );
                assert_eq!(
                    small_batches, sequential,
                    "batch boundary changed results ({arm}, {workers} workers)"
                );
                assert_eq!(
                    one_batch, reference,
                    "results changed with worker count ({arm}, {workers} workers)"
                );
                assert_eq!(
                    service.provenance().kernel_policy,
                    if fast_math { "fast-math" } else { "exact" },
                    "{arm}"
                );
                let metrics = service.metrics();
                assert!(
                    metrics.cache.hits > 0,
                    "cross-batch duplicates should be served from the cache ({arm})"
                );
                for line in &one_batch {
                    validate_response_line(line).unwrap();
                }
            }
        }
    }
}

#[test]
fn empty_and_invalid_requests_resolve_at_admission() {
    let service = DetectService::start_manual(detector(CellKind::Vanilla), ServeConfig::default());

    let empty = service.submit(req("empty", &[])).wait();
    assert_eq!(empty.status, Status::Ok);
    assert!(empty.results.is_empty());

    let bad = service.submit(req("bad", &[("no_such_attr", "x")])).wait();
    assert_eq!(bad.status, Status::BadRequest);
    assert!(bad.error.unwrap().contains("no_such_attr"));

    let metrics = service.metrics();
    assert_eq!(metrics.requests, 2);
    assert_eq!(metrics.bad_requests, 1);
    assert_eq!(
        metrics.admitted_cells, 0,
        "neither request reached the queue"
    );
}

#[test]
fn lru_bound_holds_and_evictions_are_counted() {
    let service = DetectService::start_manual(
        detector(CellKind::Vanilla),
        ServeConfig {
            cache_capacity: 4,
            ..ServeConfig::default()
        },
    );
    for i in 0..20 {
        let value = format!("value{i}");
        service.submit(req(&format!("r{i}"), &[("name", &value)]));
    }
    while service.tick() {}
    let metrics = service.metrics();
    assert!(
        metrics.cache.len <= 4,
        "cache grew past its bound: {metrics:?}"
    );
    assert_eq!(metrics.cache.capacity, 4);
    assert!(metrics.cache.evictions > 0, "churn must evict: {metrics:?}");
}

#[test]
fn overload_applies_backpressure_until_the_queue_drains() {
    let service = DetectService::start_manual(
        detector(CellKind::Vanilla),
        ServeConfig {
            queue_capacity_cells: 2,
            ..ServeConfig::default()
        },
    );
    let admitted = service.submit(req("a", &[("name", "x"), ("city", "y")]));
    let refused = service.submit(req("b", &[("name", "z")])).wait();
    assert_eq!(refused.status, Status::Overloaded);
    assert!(refused.error.unwrap().contains("queue full"));
    assert_eq!(service.metrics().overloaded, 1);

    service.tick();
    assert_eq!(admitted.wait().status, Status::Ok);
    // Capacity freed: the same request is now admitted and scored.
    let retried = service.submit(req("b", &[("name", "z")]));
    service.tick();
    assert_eq!(retried.wait().status, Status::Ok);
}

#[test]
fn queued_requests_expire_at_their_deadline() {
    let service = DetectService::start_manual(
        detector(CellKind::Vanilla),
        ServeConfig {
            request_timeout: Duration::ZERO,
            ..ServeConfig::default()
        },
    );
    let handle = service.submit(req("t", &[("name", "x")]));
    assert!(service.tick(), "expiring a request still counts as work");
    let response = handle.wait();
    assert_eq!(response.status, Status::Timeout);
    assert_eq!(service.metrics().timeouts, 1);
    assert_eq!(
        service.metrics().batches,
        0,
        "expired requests skip inference"
    );
}

#[test]
fn shutdown_drains_queued_work_and_refuses_new_requests() {
    let mut service =
        DetectService::start_manual(detector(CellKind::Vanilla), ServeConfig::default());
    let h1 = service.submit(req("a", &[("name", "x")]));
    let h2 = service.submit(req("b", &[("city", "y")]));
    service.shutdown();
    assert_eq!(
        h1.wait().status,
        Status::Ok,
        "queued work is completed, not dropped"
    );
    assert_eq!(h2.wait().status, Status::Ok);
    let late = service.submit(req("c", &[("name", "z")])).wait();
    assert_eq!(late.status, Status::ShuttingDown);
}

#[test]
fn resident_worker_serves_concurrent_submitters_identically() {
    let requests = sample_requests();
    let reference = run_sequential(CellKind::Vanilla, false, &requests);
    let service = DetectService::start(detector(CellKind::Vanilla), ServeConfig::default());
    let mut lines = vec![String::new(); requests.len()];
    std::thread::scope(|scope| {
        for (slot, request) in lines.iter_mut().zip(&requests) {
            let service = &service;
            scope.spawn(move || {
                *slot = service.submit(request.clone()).wait().to_json_line();
            });
        }
    });
    assert_eq!(
        lines, reference,
        "concurrent coalesced results must match sequential"
    );
    assert!(service.metrics().batches >= 1);
}

#[test]
fn stdio_front_end_preserves_input_order_and_is_deterministic() {
    let input = "\
{\"id\":\"r0\",\"cells\":[{\"attribute\":\"name\",\"value\":\"alice\"},{\"attribute\":\"city\",\"value\":\"berlin\"}]}\n\
\n\
this is not json\n\
{\"id\":\"r1\",\"cells\":[{\"attribute\":\"nope\",\"value\":\"x\"}]}\n\
{\"id\":\"r2\",\"cells\":[]}\n\
{\"id\":\"r3\",\"cells\":[{\"attribute\":\"name\",\"value\":\"alice\"}]}\n";

    let run = |max_batch_cells: usize| -> String {
        let mut service = DetectService::start(
            detector(CellKind::Vanilla),
            ServeConfig {
                max_batch_cells,
                ..ServeConfig::default()
            },
        );
        let mut out: Vec<u8> = Vec::new();
        etsb_serve::stdio::run(&service, input.as_bytes(), &mut out).unwrap();
        service.shutdown();
        String::from_utf8(out).unwrap()
    };

    let coalesced = run(256);
    let unbatched = run(1);
    assert_eq!(
        coalesced, unbatched,
        "batching must not change the output bytes"
    );

    let lines: Vec<&str> = coalesced.lines().collect();
    assert_eq!(lines.len(), 5, "one response per non-blank input line");
    for line in &lines {
        validate_response_line(line).unwrap();
    }
    let status_of = |line: &str| {
        etsb_obs::json::parse(line)
            .unwrap()
            .get("status")
            .and_then(|v| v.as_str().map(str::to_string))
            .unwrap()
    };
    assert_eq!(status_of(lines[0]), "ok");
    assert_eq!(status_of(lines[1]), "bad_request", "unparsable line");
    assert_eq!(status_of(lines[2]), "bad_request", "unknown attribute");
    assert_eq!(status_of(lines[3]), "ok", "empty request");
    assert_eq!(status_of(lines[4]), "ok");
}

/// The stdio front end's responses to `input`, one string per line.
fn stdio_responses(input: impl std::io::BufRead) -> Vec<String> {
    let mut service = DetectService::start(detector(CellKind::Vanilla), ServeConfig::default());
    let mut out: Vec<u8> = Vec::new();
    etsb_serve::stdio::run(&service, input, &mut out).expect("stdio session");
    service.shutdown();
    let text = String::from_utf8(out).unwrap();
    for line in text.lines() {
        validate_response_line(line).unwrap();
    }
    text.lines().map(str::to_string).collect()
}

/// A string field of a response line.
fn response_field(line: &str, key: &str) -> String {
    etsb_obs::json::parse(line)
        .unwrap()
        .get(key)
        .and_then(|v| v.as_str().map(str::to_string))
        .unwrap_or_else(|| panic!("no string {key} in {line}"))
}

/// A line that is not UTF-8 is answered `bad_request` with an empty id,
/// and the session goes on to answer the requests after it.
#[test]
fn stdio_answers_a_non_utf8_line_and_carries_on() {
    let input: &[u8] = b"\
{\"id\":\"r0\",\"cells\":[{\"attribute\":\"name\",\"value\":\"alice\"}]}\n\
{\"id\":\"r1\",\"cells\":[{\"attribute\":\"name\",\"value\":\"\xff\xfe\"}]}\n\
{\"id\":\"r2\",\"cells\":[{\"attribute\":\"city\",\"value\":\"berlin\"}]}\n";
    let lines = stdio_responses(input);
    assert_eq!(lines.len(), 3, "one response per request line: {lines:?}");
    assert_eq!(response_field(&lines[0], "status"), "ok");
    assert_eq!(response_field(&lines[1], "status"), "bad_request");
    assert_eq!(response_field(&lines[1], "id"), "");
    assert!(
        response_field(&lines[1], "error").contains("UTF-8"),
        "{}",
        lines[1]
    );
    assert_eq!(response_field(&lines[2], "status"), "ok");
    assert_eq!(response_field(&lines[2], "id"), "r2");
}

/// A line longer than the request limit is refused without being
/// buffered, even when it would parse: here a valid request padded with
/// JSON whitespace past the limit. The session then answers the next
/// request. The padding is generated as it is read, so the test holds
/// no copy of it either.
#[test]
fn stdio_refuses_an_over_long_line_and_carries_on() {
    use etsb_serve::protocol::MAX_REQUEST_BYTES;
    use std::io::Read;
    let head: &[u8] = b"\
{\"id\":\"r0\",\"cells\":[{\"attribute\":\"name\",\"value\":\"alice\"}]}\n\
{\"id\":\"big\",\"cells\":[]}";
    let padding = std::io::repeat(b' ').take(MAX_REQUEST_BYTES as u64);
    let tail: &[u8] =
        b"\n{\"id\":\"r2\",\"cells\":[{\"attribute\":\"city\",\"value\":\"berlin\"}]}\n";
    let lines = stdio_responses(std::io::BufReader::new(head.chain(padding).chain(tail)));
    assert_eq!(lines.len(), 3, "one response per request line: {lines:?}");
    assert_eq!(response_field(&lines[0], "status"), "ok");
    assert_eq!(response_field(&lines[1], "status"), "bad_request");
    assert_eq!(
        response_field(&lines[1], "id"),
        "",
        "the request was not parsed"
    );
    assert!(
        response_field(&lines[1], "error").contains(&MAX_REQUEST_BYTES.to_string()),
        "{}",
        lines[1]
    );
    assert_eq!(response_field(&lines[2], "status"), "ok");
    assert_eq!(response_field(&lines[2], "id"), "r2");
}

#[test]
fn http_front_end_round_trips() {
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::Ordering;

    let service = DetectService::start(detector(CellKind::Vanilla), ServeConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = AtomicBool::new(false);

    // Stops the accept loop when dropped, so a failed assertion unwinds
    // through the scope and is reported instead of waiting on the server.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    let fetch = |request: String| -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    };

    std::thread::scope(|scope| {
        let server = scope.spawn(|| etsb_serve::http::run(&service, listener, &stop));
        let stop_server = StopOnDrop(&stop);

        let health = fetch("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".to_string());
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        assert!(health.contains("{\"status\":\"ok\"}"), "{health}");

        let body = "{\"id\":\"h1\",\"cells\":[{\"attribute\":\"name\",\"value\":\"alice\"}]}";
        let detect = fetch(format!(
            "POST /detect HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ));
        assert!(detect.starts_with("HTTP/1.1 200"), "{detect}");
        let json_line = detect.split("\r\n\r\n").nth(1).unwrap();
        validate_response_line(json_line).unwrap();

        let bad = fetch(
            "POST /detect HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\nnot js!".to_string(),
        );
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");

        // Malformed or conflicting framing is refused before the body is
        // read, with an error that names the header.
        let malformed = fetch(format!(
            "POST /detect HTTP/1.1\r\nHost: x\r\nContent-Length: 1O\r\n\r\n{body}"
        ));
        assert!(malformed.starts_with("HTTP/1.1 400"), "{malformed}");
        assert!(
            malformed.contains("{\"error\":\"malformed Content-Length\"}"),
            "{malformed}"
        );
        let conflicting = fetch(format!(
            "POST /detect HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nContent-Length: 3\r\n\r\n{body}",
            body.len()
        ));
        assert!(conflicting.starts_with("HTTP/1.1 400"), "{conflicting}");
        assert!(
            conflicting.contains("{\"error\":\"conflicting Content-Length headers\"}"),
            "{conflicting}"
        );

        let metrics = fetch("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n".to_string());
        assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
        assert!(
            metrics.contains("Content-Type: text/plain; version=0.0.4"),
            "{metrics}"
        );
        let expo_body = metrics.split("\r\n\r\n").nth(1).unwrap();
        etsb_obs::expo::validate(expo_body).unwrap();
        assert!(
            expo_body.contains("etsb_serve_requests_total 1"),
            "the scored /detect submission should be counted: {expo_body}"
        );
        assert!(
            expo_body.contains("etsb_serve_detect_latency_ns_bucket{le=\"+Inf\"} 1"),
            "{expo_body}"
        );

        let missing = fetch("GET /nowhere HTTP/1.1\r\nHost: x\r\n\r\n".to_string());
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        // A head line over 8 KiB or more than 100 headers is read to its
        // end and answered 431; the server keeps serving afterwards.
        let long_line = fetch(format!(
            "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Long: {}\r\n\r\n",
            "a".repeat(64 << 10)
        ));
        assert!(long_line.starts_with("HTTP/1.1 431"), "{long_line}");
        assert!(
            long_line.contains("{\"error\":\"request head too large\"}"),
            "{long_line}"
        );
        let with_headers = |n: usize| {
            let headers: String = (0..n).map(|i| format!("X-H{i}: v\r\n")).collect();
            fetch(format!("GET /healthz HTTP/1.1\r\n{headers}\r\n"))
        };
        let at_limit = with_headers(100);
        assert!(at_limit.starts_with("HTTP/1.1 200"), "{at_limit}");
        let over_limit = with_headers(101);
        assert!(over_limit.starts_with("HTTP/1.1 431"), "{over_limit}");
        let after = fetch("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".to_string());
        assert!(after.starts_with("HTTP/1.1 200"), "{after}");

        drop(stop_server);
        server.join().unwrap().unwrap();
    });
}

#[test]
fn every_engine_response_carries_identical_provenance() {
    let service = DetectService::start_manual(detector(CellKind::Vanilla), ServeConfig::default());
    let expected = service.provenance().clone();
    assert_eq!(expected.model_hash.len(), 16, "fnv1a64 hex");
    assert!(
        expected
            .model_hash
            .chars()
            .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()),
        "{expected:?}"
    );
    assert_eq!(expected.model, "ETSB-RNN/RNN");
    assert_eq!(expected.version, env!("CARGO_PKG_VERSION"));

    let scored = service.submit(req("a", &[("name", "x")]));
    service.tick();
    let scored = scored.wait();
    let empty = service.submit(req("b", &[])).wait();
    let bad = service.submit(req("c", &[("nope", "x")])).wait();
    for response in [&scored, &empty, &bad] {
        assert_eq!(
            response.provenance.as_ref(),
            Some(&expected),
            "all engine-filled responses are stamped: {response:?}"
        );
    }
    validate_response_line(&scored.to_json_line()).unwrap();

    // Two services over the same detector stamp identical provenance
    // (it excludes anything run-dependent, e.g. worker count).
    let other = DetectService::start_manual(detector(CellKind::Vanilla), ServeConfig::default());
    assert_eq!(other.provenance(), &expected);
    // A different cell kind changes the weights and therefore the hash.
    let lstm = DetectService::start_manual(detector(CellKind::Lstm), ServeConfig::default());
    assert_ne!(lstm.provenance().model_hash, expected.model_hash);
    assert_eq!(lstm.provenance().model, "ETSB-RNN/LSTM");
}

#[test]
fn prometheus_text_is_valid_and_rateable() {
    let service = DetectService::start_manual(detector(CellKind::Vanilla), ServeConfig::default());
    // Score the same cell twice so the cache-hit mirror moves.
    for id in ["a", "b"] {
        let handle = service.submit(req(id, &[("name", "x")]));
        service.tick();
        handle.wait();
    }
    let text = service.prometheus_text();
    etsb_obs::expo::validate(&text).unwrap();
    for family in [
        "etsb_serve_requests_total",
        "etsb_serve_admitted_cells_total",
        "etsb_serve_batches_total",
        "etsb_serve_cache_hits_total",
        "etsb_serve_cache_misses_total",
        "etsb_serve_detect_latency_ns",
        "etsb_serve_batch_latency_ns",
        "etsb_serve_batch_occupancy_cells",
        "etsb_serve_queue_depth_cells",
        "etsb_serve_queue_cells",
        "etsb_serve_cache_len",
    ] {
        assert!(text.contains(family), "missing family {family}:\n{text}");
    }
    assert!(text.contains("etsb_serve_cache_hits_total 1"), "{text}");
    assert!(text.contains("etsb_serve_cache_misses_total 1"), "{text}");
    assert!(
        text.contains("etsb_serve_batch_occupancy_cells_bucket{le=\"1\"} 2"),
        "two single-cell batches: {text}"
    );

    // The exposition snapshot is itself deterministic: rendering twice
    // with no traffic in between yields identical bytes.
    assert_eq!(service.prometheus_text(), text);
}

#[test]
fn protocol_parse_and_serve_agree_on_request_shapes() {
    // A request that round-trips through the parser scores identically
    // to one constructed directly.
    let parsed = parse_request(
        "{\"id\":\"p\",\"cells\":[{\"tuple_id\":0,\"attribute\":\"name\",\"value\":\"alice\"}]}",
    )
    .unwrap();
    let built = req("p", &[("name", "alice")]);
    assert_eq!(parsed, built);
}
