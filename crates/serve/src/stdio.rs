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
use crate::protocol::{parse_request, Response, Status, MAX_REQUEST_BYTES};
use std::io::{BufRead, ErrorKind, Write};
use std::sync::mpsc;

enum Item {
    /// Resolved without touching the engine (an unparsable, non-UTF-8
    /// or over-long line).
    Immediate(Response),
    /// In flight; the writer blocks on it in submission order.
    Handle(ResponseHandle),
}

/// One input line, as read by [`next_line`].
enum Line {
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
fn next_line<R: BufRead>(input: &mut R, line: &mut Vec<u8>, limit: usize) -> std::io::Result<Line> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

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
