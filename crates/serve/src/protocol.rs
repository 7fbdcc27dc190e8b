//! The request/response wire protocol: newline-delimited JSON, one
//! object per line, shared by the stdio and HTTP front ends.
//!
//! Request:
//!
//! ```json
//! {"id":"r1","cells":[{"tuple_id":0,"attribute":"city","value":"Zurich"}]}
//! ```
//!
//! Response (`results` present only for `"status":"ok"`, in the order
//! the cells were submitted; `error` present only on failure):
//!
//! ```json
//! {"id":"r1","status":"ok","results":[
//!   {"tuple_id":0,"attribute":"city","prob":0.0317,"flagged":false}]}
//! ```
//!
//! The shape follows the HoloClean `DetectEngine` contract: a detection
//! pass returns one record per cell id `(tuple_id, attribute)` with the
//! detector's verdict. Probabilities are `f32` widened exactly to JSON
//! numbers, so two byte-identical inference results always serialize to
//! byte-identical response lines — the property the determinism smoke
//! test (`serve_check`) asserts end to end.

use etsb_obs::json::{self, Value};
use std::io::{BufRead, ErrorKind};

/// Largest request either front end accepts, in bytes: an HTTP `POST
/// /detect` body or one stdio line (without its newline). Both front ends
/// refuse a longer request before buffering more than this, so no input
/// chooses how much they allocate.
pub const MAX_REQUEST_BYTES: usize = 16 << 20;

/// One input line, as read by [`next_line`].
pub(crate) enum Line {
    /// End of input before any byte of a new line.
    End,
    /// A whole line (without its `\n`) is in the buffer.
    Read,
    /// The line exceeded the limit; it was consumed through its newline
    /// but not kept.
    TooLong,
}

/// Read the next line of `input` into `line` (cleared first, newline
/// dropped), keeping at most `limit` bytes: a longer line is skipped
/// through its newline (or the end of input) without being buffered.
/// Both front ends read through it: stdio its request lines, HTTP the
/// lines of a request head.
pub(crate) fn next_line<R: BufRead>(
    input: &mut R,
    line: &mut Vec<u8>,
    limit: usize,
) -> std::io::Result<Line> {
    line.clear();
    let (mut started, mut too_long) = (false, false);
    loop {
        let buf = match input.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            return Ok(match (started, too_long) {
                (false, _) => Line::End,
                (true, false) => Line::Read,
                (true, true) => Line::TooLong,
            });
        }
        started = true;
        let newline = buf.iter().position(|&b| b == b'\n');
        let content = &buf[..newline.unwrap_or(buf.len())];
        if !too_long && line.len() + content.len() > limit {
            too_long = true;
            line.clear();
        }
        if !too_long {
            line.extend_from_slice(content);
        }
        let used = newline.map_or(buf.len(), |at| at + 1);
        input.consume(used);
        if newline.is_some() {
            return Ok(if too_long { Line::TooLong } else { Line::Read });
        }
    }
}

/// One cell submitted for detection.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestCell {
    /// Caller-side row id, echoed back untouched (defaults to 0).
    pub tuple_id: u64,
    /// Attribute name; must exist in the detector's training schema.
    pub attribute: String,
    /// The raw cell value.
    pub value: String,
}

/// One detection request: a batch of loose cells under a caller id.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Caller-chosen correlation id, echoed back untouched.
    pub id: String,
    /// Cells to score. May be empty (the response is `ok` with no
    /// results).
    pub cells: Vec<RequestCell>,
}

/// Terminal status of a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Scored; `results` carries one record per submitted cell.
    Ok,
    /// The request was malformed (unknown attribute, bad JSON shape).
    BadRequest,
    /// The admission queue was full — backpressure; retry later.
    Overloaded,
    /// The request waited in the queue past its deadline.
    Timeout,
    /// The service is draining and accepts no new work.
    ShuttingDown,
}

impl Status {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::BadRequest => "bad_request",
            Status::Overloaded => "overloaded",
            Status::Timeout => "timeout",
            Status::ShuttingDown => "shutting_down",
        }
    }
}

/// Verdict for one submitted cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// Echo of the submitted `tuple_id`.
    pub tuple_id: u64,
    /// Echo of the submitted attribute name.
    pub attribute: String,
    /// Error probability from the detector.
    pub prob: f32,
    /// `prob >= threshold` (0.5 by default).
    pub flagged: bool,
}

/// Compact per-response provenance: which model produced this answer.
///
/// Stamped by the engine on every response it fills (the response-level
/// sibling of the `RunManifest` sidecar). Deliberately excludes anything
/// that varies between bitwise-identical runs — worker counts, wall
/// clocks — so two identical detectors always stamp identical bytes and
/// the `serve_check --equal` determinism smoke keeps holding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Provenance {
    /// FNV-1a 64-bit hash of the weight snapshot, as 16 hex digits.
    pub model_hash: String,
    /// Architecture: `<model kind>/<cell kind>` (e.g. `etsb/gru`).
    pub model: String,
    /// Workspace crate version.
    pub version: String,
    /// Active inference kernel policy (`exact` or `fast-math`) — fast
    /// and exact results must never be conflated by byte-equality
    /// comparisons, so the policy travels with every response.
    pub kernel_policy: String,
    /// Compiled feature flags that affect numerics or diagnostics.
    pub features: Vec<String>,
}

impl Provenance {
    /// The JSON object embedded in response lines.
    pub fn to_json_value(&self) -> Value {
        Value::obj([
            (
                "model_hash".to_string(),
                Value::Str(self.model_hash.clone()),
            ),
            ("model".to_string(), Value::Str(self.model.clone())),
            ("version".to_string(), Value::Str(self.version.clone())),
            (
                "kernel_policy".to_string(),
                Value::Str(self.kernel_policy.clone()),
            ),
            (
                "features".to_string(),
                Value::Arr(
                    self.features
                        .iter()
                        .map(|f| Value::Str(f.clone()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// One response line.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Echo of the request id.
    pub id: String,
    /// Terminal status.
    pub status: Status,
    /// Human-readable failure description (non-`ok` statuses only).
    pub error: Option<String>,
    /// Per-cell verdicts in submission order (`ok` only).
    pub results: Vec<CellResult>,
    /// Model provenance; stamped by the engine, absent on responses
    /// produced before a service was consulted (e.g. parse failures).
    pub provenance: Option<Provenance>,
}

impl Response {
    /// A successful response.
    pub fn ok(id: String, results: Vec<CellResult>) -> Response {
        Response {
            id,
            status: Status::Ok,
            error: None,
            results,
            provenance: None,
        }
    }

    /// A failed response carrying a reason.
    pub fn failed(id: String, status: Status, error: String) -> Response {
        Response {
            id,
            status,
            error: Some(error),
            results: Vec::new(),
            provenance: None,
        }
    }

    /// Stamp model provenance onto this response.
    pub fn with_provenance(mut self, provenance: Provenance) -> Response {
        self.provenance = Some(provenance);
        self
    }

    /// Serialize to one JSON line (no trailing newline). Key order is
    /// fixed by the JSON object representation (sorted keys), so equal
    /// responses always produce equal bytes.
    pub fn to_json_line(&self) -> String {
        let mut pairs = vec![
            ("id".to_string(), Value::Str(self.id.clone())),
            (
                "status".to_string(),
                Value::Str(self.status.as_str().to_string()),
            ),
        ];
        if let Some(error) = &self.error {
            pairs.push(("error".to_string(), Value::Str(error.clone())));
        }
        if let Some(provenance) = &self.provenance {
            pairs.push(("provenance".to_string(), provenance.to_json_value()));
        }
        if self.status == Status::Ok {
            let results: Vec<Value> = self
                .results
                .iter()
                .map(|r| {
                    Value::obj([
                        ("tuple_id".to_string(), Value::Num(r.tuple_id as f64)),
                        ("attribute".to_string(), Value::Str(r.attribute.clone())),
                        ("prob".to_string(), Value::Num(f64::from(r.prob))),
                        ("flagged".to_string(), Value::Bool(r.flagged)),
                    ])
                })
                .collect();
            pairs.push(("results".to_string(), Value::Arr(results)));
        }
        Value::obj(pairs).to_json()
    }
}

fn str_field(obj: &Value, key: &str) -> Result<Option<String>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(format!("\"{key}\" must be a string")),
    }
}

fn u64_field(obj: &Value, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(Value::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(Some(*n as u64)),
        Some(_) => Err(format!("\"{key}\" must be a non-negative integer")),
    }
}

/// Parse one request line. Errors describe the first structural problem;
/// the service converts them into `bad_request` responses rather than
/// dropping the line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    if !matches!(value, Value::Obj(_)) {
        return Err("request must be a JSON object".to_string());
    }
    let id = str_field(&value, "id")?.unwrap_or_default();
    let cells = match value.get("cells") {
        None => Vec::new(),
        Some(Value::Arr(items)) => {
            let mut cells = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                if !matches!(item, Value::Obj(_)) {
                    return Err(format!("cells[{i}] must be an object"));
                }
                let attribute = str_field(item, "attribute")?
                    .ok_or_else(|| format!("cells[{i}] is missing \"attribute\""))?;
                let cell_value = str_field(item, "value")?
                    .ok_or_else(|| format!("cells[{i}] is missing \"value\""))?;
                let tuple_id = u64_field(item, "tuple_id")?.unwrap_or(0);
                cells.push(RequestCell {
                    tuple_id,
                    attribute,
                    value: cell_value,
                });
            }
            cells
        }
        Some(_) => return Err("\"cells\" must be an array".to_string()),
    };
    Ok(Request { id, cells })
}

/// Known wire statuses, for validation.
const STATUSES: [&str; 5] = [
    "ok",
    "bad_request",
    "overloaded",
    "timeout",
    "shutting_down",
];

/// Validate one response line against the wire schema (used by the
/// `serve_check` smoke binary and by tests). Checks structure, status
/// vocabulary, result fields and probability range.
pub fn validate_response_line(line: &str) -> Result<(), String> {
    let value = json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    if !matches!(value, Value::Obj(_)) {
        return Err("response must be a JSON object".to_string());
    }
    if str_field(&value, "id")?.is_none() {
        return Err("missing \"id\"".to_string());
    }
    let status = str_field(&value, "status")?.ok_or_else(|| "missing \"status\"".to_string())?;
    if !STATUSES.contains(&status.as_str()) {
        return Err(format!("unknown status {status:?}"));
    }
    if status == "ok" {
        let results = match value.get("results") {
            Some(Value::Arr(items)) => items,
            _ => return Err("ok response must carry a \"results\" array".to_string()),
        };
        for (i, r) in results.iter().enumerate() {
            if u64_field(r, "tuple_id")?.is_none() {
                return Err(format!("results[{i}] is missing \"tuple_id\""));
            }
            if str_field(r, "attribute")?.is_none() {
                return Err(format!("results[{i}] is missing \"attribute\""));
            }
            let prob = match r.get("prob") {
                Some(Value::Num(p)) => *p,
                _ => return Err(format!("results[{i}] is missing \"prob\"")),
            };
            if !(0.0..=1.0).contains(&prob) {
                return Err(format!("results[{i}].prob {prob} outside [0, 1]"));
            }
            if !matches!(r.get("flagged"), Some(Value::Bool(_))) {
                return Err(format!("results[{i}] is missing \"flagged\""));
            }
        }
    } else if !matches!(value.get("error"), Some(Value::Str(_))) {
        return Err(format!("{status} response must carry an \"error\" string"));
    }
    if let Some(provenance) = value.get("provenance") {
        if !matches!(provenance, Value::Obj(_)) {
            return Err("\"provenance\" must be an object".to_string());
        }
        for key in ["model_hash", "model", "version", "kernel_policy"] {
            if str_field(provenance, key)?.is_none() {
                return Err(format!("provenance is missing \"{key}\""));
            }
        }
        if let Some(kp) = str_field(provenance, "kernel_policy")? {
            if kp != "exact" && kp != "fast-math" {
                return Err(format!(
                    "provenance.kernel_policy {kp:?} is not \"exact\" or \"fast-math\""
                ));
            }
        }
        match provenance.get("features") {
            Some(Value::Arr(items)) => {
                if items.iter().any(|f| !matches!(f, Value::Str(_))) {
                    return Err("provenance.features must be strings".to_string());
                }
            }
            _ => return Err("provenance is missing \"features\"".to_string()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parse_full_request() {
        let req = parse_request(
            r#"{"id":"r1","cells":[{"tuple_id":3,"attribute":"v","value":"x"},{"attribute":"w","value":""}]}"#,
        )
        .unwrap();
        assert_eq!(req.id, "r1");
        assert_eq!(req.cells.len(), 2);
        assert_eq!(req.cells[0].tuple_id, 3);
        assert_eq!(req.cells[1].tuple_id, 0, "tuple_id defaults to 0");
        assert_eq!(req.cells[1].value, "");
    }

    #[test]
    fn parse_rejects_malformed_requests() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("[1,2]").is_err());
        assert!(parse_request(r#"{"cells":[{"value":"x"}]}"#).is_err());
        assert!(parse_request(r#"{"cells":[{"attribute":"v"}]}"#).is_err());
        assert!(parse_request(r#"{"cells":{"attribute":"v"}}"#).is_err());
        assert!(parse_request(r#"{"id":7}"#).is_err());
        assert!(
            parse_request(r#"{"cells":[{"attribute":"v","value":"x","tuple_id":-1}]}"#).is_err()
        );
    }

    #[test]
    fn response_round_trips_through_validation() {
        let ok = Response::ok(
            "a".into(),
            vec![CellResult {
                tuple_id: 1,
                attribute: "v".into(),
                prob: 0.25,
                flagged: false,
            }],
        );
        validate_response_line(&ok.to_json_line()).unwrap();
        let err = Response::failed("b".into(), Status::Overloaded, "queue full".into());
        validate_response_line(&err.to_json_line()).unwrap();
    }

    #[test]
    fn validation_rejects_bad_lines() {
        assert!(validate_response_line("{}").is_err());
        assert!(validate_response_line(r#"{"id":"a","status":"nope"}"#).is_err());
        assert!(validate_response_line(r#"{"id":"a","status":"ok"}"#).is_err());
        assert!(validate_response_line(r#"{"id":"a","status":"timeout"}"#).is_err());
        assert!(validate_response_line(
            r#"{"id":"a","status":"ok","results":[{"tuple_id":0,"attribute":"v","prob":1.5,"flagged":true}]}"#
        )
        .is_err());
    }

    #[test]
    fn provenance_round_trips_and_validates() {
        let provenance = Provenance {
            model_hash: "00deadbeef00cafe".into(),
            model: "etsb/vanilla".into(),
            version: "0.1.0".into(),
            kernel_policy: "exact".into(),
            features: vec!["sanitize".into()],
        };
        let line = Response::ok("a".into(), Vec::new())
            .with_provenance(provenance.clone())
            .to_json_line();
        validate_response_line(&line).unwrap();
        assert!(line.contains("\"provenance\""), "{line}");
        assert!(
            line.contains("\"model_hash\":\"00deadbeef00cafe\""),
            "{line}"
        );
        assert!(line.contains("\"kernel_policy\":\"exact\""), "{line}");
        // Unknown kernel policies are rejected: fast/exact conflation is
        // exactly what the field exists to prevent.
        assert!(validate_response_line(
            r#"{"id":"a","status":"ok","results":[],"provenance":{"model_hash":"h","model":"m","version":"v","kernel_policy":"warp","features":[]}}"#
        )
        .is_err());
        let failed = Response::failed("b".into(), Status::Timeout, "expired".into())
            .with_provenance(provenance)
            .to_json_line();
        validate_response_line(&failed).unwrap();
        // Malformed provenance objects are rejected.
        assert!(validate_response_line(
            r#"{"id":"a","status":"ok","results":[],"provenance":{"model":"etsb"}}"#
        )
        .is_err());
        assert!(validate_response_line(
            r#"{"id":"a","status":"ok","results":[],"provenance":"etsb"}"#
        )
        .is_err());
    }

    #[test]
    fn equal_results_serialize_to_equal_bytes() {
        let r = |p: f32| {
            Response::ok(
                "x".into(),
                vec![CellResult {
                    tuple_id: 0,
                    attribute: "v".into(),
                    prob: p,
                    flagged: p >= 0.5,
                }],
            )
            .to_json_line()
        };
        assert_eq!(r(0.123_456_79_f32), r(0.123_456_79_f32));
        assert_ne!(r(0.1), r(0.100_000_01));
    }

    /// Each line's outcome and kept bytes, read through `next_line`
    /// with a 4-byte limit from a reader that hands out `capacity`
    /// bytes at a time, so lines straddle its buffer refills.
    fn read_all(input: &[u8], capacity: usize) -> Vec<(&'static str, Vec<u8>)> {
        let mut reader = BufReader::with_capacity(capacity, input);
        let mut line = Vec::new();
        let mut out = Vec::new();
        loop {
            let kind = match next_line(&mut reader, &mut line, 4).unwrap() {
                Line::End => return out,
                Line::Read => "read",
                Line::TooLong => "too long",
            };
            out.push((kind, line.clone()));
        }
    }

    #[test]
    fn lines_up_to_the_limit_are_kept_and_longer_ones_skipped() {
        let input = b"abcd\nabcde\n\r\n\nxyz12345\nend";
        for capacity in 1..=7 {
            assert_eq!(
                read_all(input, capacity),
                [
                    ("read", b"abcd".to_vec()),
                    ("too long", Vec::new()),
                    ("read", b"\r".to_vec()),
                    ("read", Vec::new()),
                    ("too long", Vec::new()),
                    ("read", b"end".to_vec()),
                ],
                "reader capacity {capacity}"
            );
        }
        assert!(read_all(b"", 3).is_empty());
        assert_eq!(read_all(b"abcdef", 3), [("too long", Vec::new())]);
    }
}
