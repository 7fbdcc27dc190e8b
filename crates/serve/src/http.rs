//! Minimal HTTP/1.1 front end — enough protocol for `curl` and load
//! generators, nothing more. One short-lived connection per request
//! (`Connection: close`), handled on a scoped thread so many callers can
//! block in the engine simultaneously and coalesce into shared batches.
//!
//! Routes:
//!
//! * `GET /healthz` — liveness probe, always `200 {"status":"ok"}`.
//! * `GET /metrics` — the service metrics registry in Prometheus text
//!   exposition format (version 0.0.4): request/cache counters as
//!   cumulative `_total` series, queue/cache gauges, and latency and
//!   occupancy histograms with cumulative `le` buckets.
//! * `POST /detect` — one request object (the [`crate::protocol`] wire
//!   format) in the body; the response body is the matching response
//!   object. Statuses map to `200` (ok), `400` (bad_request), `503`
//!   (overloaded, shutting_down) and `504` (timeout).
//!
//! A request head whose request line or any header line passes 8 KiB,
//! or that carries more than 100 headers, is read to its end without
//! being kept and answered `431`.

use crate::engine::DetectService;
use crate::protocol::{next_line, parse_request, Line, Response, Status, MAX_REQUEST_BYTES};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Accept loop: serve connections until `stop` becomes true, polling the
/// (non-blocking) listener every few milliseconds so shutdown does not
/// wait for a final connection. Each connection is handled on a scoped
/// thread; the function returns only once all of them finished.
pub fn run(
    service: &DetectService,
    listener: TcpListener,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    std::thread::scope(|scope| {
        loop {
            if stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    scope.spawn(move || {
                        // Connection-level I/O errors only affect that
                        // peer; the accept loop keeps serving.
                        let _ = handle_connection(service, stream);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
    })
}

fn status_line(status: Status) -> (u16, &'static str) {
    match status {
        Status::Ok => (200, "OK"),
        Status::BadRequest => (400, "Bad Request"),
        Status::Overloaded => (503, "Service Unavailable"),
        Status::Timeout => (504, "Gateway Timeout"),
        Status::ShuttingDown => (503, "Service Unavailable"),
    }
}

const JSON_CONTENT_TYPE: &str = "application/json";

fn write_response(
    stream: &mut TcpStream,
    code: u16,
    phrase: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {code} {phrase}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// The body length a request head declares: its `Content-Length`, or 0
/// without one. A value that is not a plain decimal number, or repeated
/// `Content-Length` headers that disagree, leave the body's framing
/// ambiguous; the request is then refused before any body byte is read.
fn declared_content_length<'a>(
    headers: impl IntoIterator<Item = &'a str>,
) -> Result<usize, &'static str> {
    let mut declared = None;
    for header in headers {
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        if !name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        let value = value.trim();
        let length = value
            .bytes()
            .all(|b| b.is_ascii_digit())
            .then(|| value.parse::<usize>().ok())
            .flatten()
            .ok_or("malformed Content-Length")?;
        if declared.is_some_and(|d| d != length) {
            return Err("conflicting Content-Length headers");
        }
        declared = Some(length);
    }
    Ok(declared.unwrap_or(0))
}

/// Longest request line or header line kept, in bytes.
const MAX_HEAD_LINE_BYTES: usize = 8 << 10;

/// Most header lines one request may carry.
const MAX_HEADERS: usize = 100;

/// A request head, as read by [`read_head`].
enum Head {
    /// The peer closed the connection without sending a byte.
    Empty,
    /// The request line and the header lines, without line ends.
    Read {
        request_line: String,
        headers: Vec<String>,
    },
    /// A line passed [`MAX_HEAD_LINE_BYTES`] or the headers passed
    /// [`MAX_HEADERS`]; the rest of the head was read and dropped.
    TooLarge,
}

/// Read a request head through its blank line (or the end of input),
/// each line through the bounded [`next_line`].
fn read_head<R: BufRead>(reader: &mut R) -> std::io::Result<Head> {
    let text = |line: &[u8]| String::from_utf8_lossy(line.trim_ascii_end()).into_owned();
    let mut line = Vec::new();
    let request_line = match next_line(reader, &mut line, MAX_HEAD_LINE_BYTES)? {
        Line::End => return Ok(Head::Empty),
        Line::Read => text(&line),
        Line::TooLong => return skip_head(reader, &mut line),
    };
    let mut headers = Vec::new();
    loop {
        match next_line(reader, &mut line, MAX_HEAD_LINE_BYTES)? {
            Line::End => break,
            Line::Read if line.trim_ascii_end().is_empty() => break,
            Line::Read if headers.len() < MAX_HEADERS => headers.push(text(&line)),
            Line::Read | Line::TooLong => return skip_head(reader, &mut line),
        }
    }
    Ok(Head::Read {
        request_line,
        headers,
    })
}

/// Read the rest of an over-large head without keeping it, so a client
/// still sending is not reset before it reads the `431`.
fn skip_head<R: BufRead>(reader: &mut R, line: &mut Vec<u8>) -> std::io::Result<Head> {
    loop {
        match next_line(reader, line, MAX_HEAD_LINE_BYTES)? {
            Line::End => break,
            Line::Read if line.trim_ascii_end().is_empty() => break,
            Line::Read | Line::TooLong => {}
        }
    }
    Ok(Head::TooLarge)
}

fn handle_connection(service: &DetectService, stream: TcpStream) -> std::io::Result<()> {
    // The accepted socket may inherit the listener's non-blocking mode.
    stream.set_nonblocking(false)?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut stream = stream;

    let (request_line, headers) = match read_head(&mut reader)? {
        Head::Empty => return Ok(()), // Peer connected and said nothing.
        Head::Read {
            request_line,
            headers,
        } => (request_line, headers),
        Head::TooLarge => {
            return write_response(
                &mut stream,
                431,
                "Request Header Fields Too Large",
                JSON_CONTENT_TYPE,
                "{\"error\":\"request head too large\"}",
            );
        }
    };
    let mut parts = request_line.splitn(3, ' ');
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let content_length = match declared_content_length(headers.iter().map(String::as_str)) {
        Ok(length) => length,
        Err(e) => {
            let body = format!("{{\"error\":\"{e}\"}}");
            return write_response(&mut stream, 400, "Bad Request", JSON_CONTENT_TYPE, &body);
        }
    };

    match (method, path) {
        ("GET", "/healthz") => write_response(
            &mut stream,
            200,
            "OK",
            JSON_CONTENT_TYPE,
            "{\"status\":\"ok\"}",
        ),
        ("GET", "/metrics") => write_response(
            &mut stream,
            200,
            "OK",
            etsb_obs::expo::CONTENT_TYPE,
            &service.prometheus_text(),
        ),
        ("POST", "/detect") => {
            if content_length > MAX_REQUEST_BYTES {
                return write_response(
                    &mut stream,
                    413,
                    "Payload Too Large",
                    JSON_CONTENT_TYPE,
                    "{\"error\":\"body too large\"}",
                );
            }
            let mut body = vec![0u8; content_length];
            reader.read_exact(&mut body)?;
            let text = String::from_utf8_lossy(&body);
            let response = match parse_request(text.trim()) {
                Ok(request) => service.submit(request).wait(),
                Err(e) => Response::failed(String::new(), Status::BadRequest, e),
            };
            let (code, phrase) = status_line(response.status);
            write_response(
                &mut stream,
                code,
                phrase,
                JSON_CONTENT_TYPE,
                &response.to_json_line(),
            )
        }
        _ => write_response(
            &mut stream,
            404,
            "Not Found",
            JSON_CONTENT_TYPE,
            "{\"error\":\"not found\"}",
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::declared_content_length;

    #[test]
    fn content_length_defaults_to_zero_and_parses_digits() {
        assert_eq!(declared_content_length([]), Ok(0));
        assert_eq!(declared_content_length(["Host: x"]), Ok(0));
        assert_eq!(declared_content_length(["Content-Length: 42"]), Ok(42));
        assert_eq!(declared_content_length(["content-LENGTH:7 "]), Ok(7));
        assert_eq!(
            declared_content_length(["Content-Length: 5", "content-length: 5"]),
            Ok(5),
            "repeated headers that agree are fine"
        );
    }

    #[test]
    fn malformed_content_length_is_an_error() {
        for bad in ["", "abc", "-1", "+5", "1.5", "4 2", "0x10", "5, 5"] {
            assert_eq!(
                declared_content_length([format!("Content-Length: {bad}").as_str()]),
                Err("malformed Content-Length"),
                "{bad:?}"
            );
        }
        let too_big = format!("Content-Length: {}0", usize::MAX);
        assert_eq!(
            declared_content_length([too_big.as_str()]),
            Err("malformed Content-Length")
        );
    }

    #[test]
    fn conflicting_content_lengths_are_an_error() {
        assert_eq!(
            declared_content_length(["Content-Length: 5", "Host: x", "Content-Length: 6"]),
            Err("conflicting Content-Length headers")
        );
    }
}
