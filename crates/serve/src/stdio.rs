//! JSONL-over-stdio front end: one request per input line, one response
//! per output line, *in input order*.
//!
//! The reader thread parses and submits lines as fast as they arrive —
//! this is what feeds the engine enough concurrent requests to coalesce
//! — while a writer thread redeems response handles strictly in
//! submission order. Output order is therefore deterministic regardless
//! of how requests were batched, which lets the `run_checks.sh` smoke
//! test compare coalesced and non-coalesced runs byte for byte.

use crate::engine::{DetectService, ResponseHandle};
use crate::protocol::{next_line, parse_request, Line, Response, Status, MAX_REQUEST_BYTES};
use std::io::{BufRead, Write};
use std::sync::mpsc;

enum Item {
    /// Resolved without touching the engine (an unparsable, non-UTF-8
    /// or over-long line).
    Immediate(Response),
    /// In flight; the writer blocks on it in submission order.
    Handle(ResponseHandle),
}

/// Pump requests from `input` through `service` and write one response
/// line per request to `output`, in input order. Returns when `input`
/// reaches end-of-file and every submitted request has been answered.
/// Lines are read into one reused buffer of at most
/// [`MAX_REQUEST_BYTES`]. Blank lines are skipped; unparsable, non-UTF-8
/// and over-long lines produce `bad_request` responses (with an empty
/// `id`) rather than aborting the stream.
pub fn run<R: BufRead, W: Write + Send>(
    service: &DetectService,
    mut input: R,
    output: W,
) -> std::io::Result<()> {
    let (tx, rx) = mpsc::channel::<Item>();
    let mut output = output;
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || -> std::io::Result<()> {
            for item in rx {
                let response = match item {
                    Item::Immediate(response) => response,
                    Item::Handle(handle) => handle.wait(),
                };
                writeln!(output, "{}", response.to_json_line())?;
            }
            output.flush()
        });
        let mut read_error = None;
        let mut line = Vec::new();
        loop {
            let parsed = match next_line(&mut input, &mut line, MAX_REQUEST_BYTES) {
                Ok(Line::End) => break,
                Ok(Line::TooLong) => Err(format!(
                    "request line longer than {MAX_REQUEST_BYTES} bytes"
                )),
                Ok(Line::Read) => match std::str::from_utf8(&line) {
                    Ok(text) if text.trim().is_empty() => continue,
                    Ok(text) => parse_request(text.trim()),
                    Err(_) => Err("request line is not valid UTF-8".to_string()),
                },
                Err(e) => {
                    read_error = Some(e);
                    break;
                }
            };
            let item = match parsed {
                Ok(request) => Item::Handle(service.submit(request)),
                Err(e) => Item::Immediate(
                    Response::failed(String::new(), Status::BadRequest, e)
                        .with_provenance(service.provenance().clone()),
                ),
            };
            if tx.send(item).is_err() {
                break; // Writer gone (I/O error); its result says why.
            }
        }
        drop(tx); // End-of-stream for the writer.
        let wrote = match writer.join() {
            Ok(result) => result,
            Err(_) => Err(std::io::Error::other("response writer thread panicked")),
        };
        match read_error {
            Some(e) => Err(e),
            None => wrote,
        }
    })
}
