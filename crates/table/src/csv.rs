//! Minimal RFC-4180-style CSV reading and writing.
//!
//! Supports quoted fields, embedded commas, escaped quotes (`""`) and
//! embedded newlines inside quoted fields — everything the benchmark
//! datasets (Movies titles with commas, Rayyan abstracts with quotes)
//! require. The first record is always treated as the header.
//!
//! Reading is incremental: [`CsvReader`] pulls one record at a time from
//! any [`BufRead`] and parses it into a reusable [`RecordBuf`], so a
//! million-row file is never resident as a single `String` and
//! steady-state parsing performs no heap allocations. [`parse`] and
//! [`read_file`] are thin wrappers over the same state machine.

use crate::{Table, TableError};
use std::io::BufRead;
use std::path::Path;

/// Parse CSV text into a [`Table`]. The first record is the header.
pub fn parse(text: &str) -> Result<Table, TableError> {
    read_table(text.as_bytes())
}

/// Read and parse a CSV file incrementally (the file is never resident
/// as one string).
pub fn read_file(path: impl AsRef<Path>) -> Result<Table, TableError> {
    let file = std::fs::File::open(path)?;
    read_table(std::io::BufReader::new(file))
}

/// Parse a whole table from any buffered reader. The first record is the
/// header.
pub fn read_table(input: impl BufRead) -> Result<Table, TableError> {
    let mut reader = CsvReader::new(input);
    let mut record = RecordBuf::new();
    if reader.read_record(&mut record)?.is_none() {
        return Err(TableError::Csv {
            line: 1,
            message: "empty input".into(),
        });
    }
    let mut table = Table::new(record.to_vec());
    let width = table.n_cols();
    while let Some(line) = reader.read_record(&mut record)? {
        if record.len() != width {
            return Err(TableError::RaggedRow {
                line,
                expected: width,
                found: record.len(),
            });
        }
        table.push_row(record.to_vec());
    }
    Ok(table)
}

/// Serialize a [`Table`] to CSV text (header first, `\n` line endings).
pub fn to_string(table: &Table) -> String {
    let mut out = String::new();
    write_record(&mut out, table.columns().iter().map(String::as_str));
    for row in table.iter_rows() {
        write_record(&mut out, row.iter().map(String::as_str));
    }
    out
}

/// Write a [`Table`] to a CSV file.
pub fn write_file(table: &Table, path: impl AsRef<Path>) -> Result<(), TableError> {
    std::fs::write(path, to_string(table))?;
    Ok(())
}

fn write_record<'a>(out: &mut String, fields: impl Iterator<Item = &'a str>) {
    let fields: Vec<&str> = fields.collect();
    // A record that is a single empty field would serialize to a blank
    // line, which parsers (including this one) skip; quote it instead.
    if fields == [""] {
        out.push_str("\"\"\n");
        return;
    }
    let mut first = true;
    for field in fields {
        if !first {
            out.push(',');
        }
        first = false;
        if field.contains([',', '"', '\n', '\r']) {
            out.push('"');
            for ch in field.chars() {
                if ch == '"' {
                    out.push('"');
                }
                out.push(ch);
            }
            out.push('"');
        } else {
            out.push_str(field);
        }
    }
    out.push('\n');
}

/// A reusable buffer holding the fields of one CSV record.
///
/// Field strings are retained (cleared, not dropped) between records, so
/// once the buffer has grown to the widest/longest record seen, parsing
/// further records performs no heap allocations.
#[derive(Debug, Default)]
pub struct RecordBuf {
    fields: Vec<String>,
    len: usize,
}

impl RecordBuf {
    /// An empty record buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The fields of the most recently parsed record.
    pub fn fields(&self) -> &[String] {
        &self.fields[..self.len]
    }

    /// Number of fields in the current record.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer holds no record.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copy the current record out as owned strings.
    pub fn to_vec(&self) -> Vec<String> {
        self.fields().to_vec()
    }

    /// Reset to a single empty field (every record has at least one).
    fn start(&mut self) {
        self.len = 0;
        self.open_field();
    }

    /// Terminate the current field and open the next one.
    fn open_field(&mut self) -> &mut String {
        if self.len == self.fields.len() {
            self.fields.push(String::new());
        }
        self.fields[self.len].clear();
        self.len += 1;
        &mut self.fields[self.len - 1]
    }

    /// The field currently being filled.
    fn current(&mut self) -> &mut String {
        let i = self.len - 1;
        &mut self.fields[i]
    }
}

/// Incremental CSV record reader over any [`BufRead`].
///
/// Reads one physical line at a time (continuing across lines while a
/// quoted field is open) and parses it into a caller-supplied
/// [`RecordBuf`], so peak memory is one record — never the whole file.
#[derive(Debug)]
pub struct CsvReader<R> {
    input: R,
    /// Reusable buffer holding the raw bytes of one physical line.
    line_buf: String,
    /// 1-based number of the next physical line to be read.
    next_line: usize,
}

impl<R: BufRead> CsvReader<R> {
    /// Wrap a buffered reader positioned at the start of the input.
    pub fn new(input: R) -> Self {
        Self {
            input,
            line_buf: String::new(),
            next_line: 1,
        }
    }

    /// Read the next record into `record`, returning the 1-based line it
    /// started on, or `None` at end of input. Blank lines are skipped.
    ///
    /// Grammar notes (RFC 4180 with the liberties the benchmark datasets
    /// need): a quote may only open at the start of a field; `""` inside
    /// a quoted field is a literal quote; after a closing quote only a
    /// comma, a line ending or end of input may follow; a bare `\r` that
    /// is not part of a `\r\n` line ending is field data, not a
    /// terminator.
    pub fn read_record(&mut self, record: &mut RecordBuf) -> Result<Option<usize>, TableError> {
        'next_record: loop {
            let start_line = self.next_line;
            record.start();
            let mut in_quotes = false;
            let mut after_close = false;
            let mut any_content = false;
            let mut started = false;
            loop {
                self.line_buf.clear();
                let n = self
                    .input
                    .read_line(&mut self.line_buf)
                    .map_err(TableError::from)?;
                if n == 0 {
                    if in_quotes {
                        return Err(TableError::Csv {
                            line: self.next_line,
                            message: "unterminated quoted field".into(),
                        });
                    }
                    if started
                        && (any_content || record.len() > 1 || !record.fields()[0].is_empty())
                    {
                        return Ok(Some(start_line));
                    }
                    return Ok(None);
                }
                started = true;
                let line = self.next_line;
                let terminated = self.line_buf.ends_with('\n');
                if terminated {
                    self.next_line += 1;
                }
                // Runs of ordinary bytes are copied with one `push_str`
                // each. Every byte the grammar looks at is ASCII, so every
                // run boundary falls on a char boundary.
                let text = self.line_buf.as_str();
                let bytes = text.as_bytes();
                let mut at = 0;
                while at < bytes.len() {
                    if in_quotes {
                        let end = text[at..].find('"').map_or(bytes.len(), |n| at + n);
                        record.current().push_str(&text[at..end]);
                        if end == bytes.len() {
                            break;
                        }
                        if bytes.get(end + 1) == Some(&b'"') {
                            record.current().push('"');
                            at = end + 2;
                        } else {
                            in_quotes = false;
                            after_close = true;
                            at = end + 1;
                        }
                        continue;
                    }
                    let end = bytes[at..]
                        .iter()
                        .position(|b| matches!(b, b'"' | b',' | b'\r' | b'\n'))
                        .map_or(bytes.len(), |n| at + n);
                    if end > at {
                        if after_close {
                            return Err(TableError::Csv {
                                line,
                                message: "unexpected text after closing quote".into(),
                            });
                        }
                        record.current().push_str(&text[at..end]);
                        any_content = true;
                    }
                    let Some(&byte) = bytes.get(end) else {
                        break;
                    };
                    at = end + 1;
                    match byte {
                        b'"' => {
                            if after_close || !record.current().is_empty() {
                                return Err(TableError::Csv {
                                    line,
                                    message: "quote inside unquoted field".into(),
                                });
                            }
                            in_quotes = true;
                            any_content = true;
                        }
                        b',' => {
                            record.open_field();
                            after_close = false;
                            any_content = true;
                        }
                        b'\r' if bytes.get(at) == Some(&b'\n') => {
                            // CRLF: swallow the CR; the LF terminates the
                            // record on the next iteration.
                        }
                        b'\r' => {
                            // A bare CR is field data.
                            if after_close {
                                return Err(TableError::Csv {
                                    line,
                                    message: "unexpected text after closing quote".into(),
                                });
                            }
                            record.current().push('\r');
                            any_content = true;
                        }
                        _ => {
                            // '\n': end of record (the line's final byte).
                        }
                    }
                }
                if !in_quotes && terminated {
                    if !any_content && record.len() == 1 && record.fields()[0].is_empty() {
                        // Blank line: skip it and look for the next record.
                        continue 'next_record;
                    }
                    return Ok(Some(start_line));
                }
                // Still inside a quoted field (the record spans lines), or
                // the input ended without a trailing newline — keep going.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_round_trip() {
        let mut t = Table::with_columns(&["a", "b"]);
        t.push_row_strs(&["1", "hello"]);
        t.push_row_strs(&["2", "world"]);
        let text = to_string(&t);
        assert_eq!(parse(&text).unwrap(), t);
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let mut t = Table::with_columns(&["title", "n"]);
        t.push_row_strs(&["Frankie, and \"Johnny\"", "1"]);
        t.push_row_strs(&["line\nbreak", "2"]);
        let text = to_string(&t);
        assert_eq!(parse(&text).unwrap(), t);
    }

    #[test]
    fn parse_hand_written_csv() {
        let t = parse("a,b\n\"x,y\",2\n\"he said \"\"hi\"\"\",3\n").unwrap();
        assert_eq!(t.cell(0, 0), "x,y");
        assert_eq!(t.cell(1, 0), "he said \"hi\"");
    }

    #[test]
    fn empty_fields_survive() {
        let t = parse("a,b,c\n,,\n1,,3\n").unwrap();
        assert_eq!(t.row(0), &["", "", ""]);
        assert_eq!(t.row(1), &["1", "", "3"]);
    }

    #[test]
    fn crlf_line_endings() {
        let t = parse("a,b\r\n1,2\r\n").unwrap();
        assert_eq!(t.shape(), (1, 2));
        assert_eq!(t.cell(0, 1), "2");
    }

    #[test]
    fn missing_trailing_newline() {
        let t = parse("a,b\n1,2").unwrap();
        assert_eq!(t.shape(), (1, 2));
    }

    #[test]
    fn ragged_row_is_an_error() {
        let err = parse("a,b\n1\n").unwrap_err();
        assert!(matches!(
            err,
            TableError::RaggedRow {
                line: 2,
                expected: 2,
                found: 1
            }
        ));
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        assert!(matches!(parse("a\n\"oops\n"), Err(TableError::Csv { .. })));
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(parse("").is_err());
    }

    #[test]
    fn unicode_cells_round_trip() {
        let mut t = Table::with_columns(&["city"]);
        t.push_row_strs(&["Zürich"]);
        t.push_row_strs(&["東京"]);
        assert_eq!(parse(&to_string(&t)).unwrap(), t);
    }

    #[test]
    fn bare_cr_outside_quotes_is_field_data() {
        // A \r not followed by \n is not a line ending; it used to be
        // silently dropped.
        let t = parse("a\nx\rb\n").unwrap();
        assert_eq!(t.cell(0, 0), "x\rb");
        // And it round-trips because the writer quotes it.
        assert_eq!(parse(&to_string(&t)).unwrap(), t);
    }

    #[test]
    fn text_after_closing_quote_is_an_error() {
        // Used to be silently appended to the field.
        let err = parse("a\n\"x\"y\n").unwrap_err();
        assert!(matches!(err, TableError::Csv { line: 2, .. }));
    }

    #[test]
    fn quote_reopened_after_close_is_an_error() {
        let err = parse("a\n\"x\"\"y\"z\n").unwrap_err();
        assert!(matches!(err, TableError::Csv { line: 2, .. }));
    }

    #[test]
    fn blank_lines_are_skipped_and_line_numbers_stay_accurate() {
        let t = parse("a\n\n1\n\n2\n").unwrap();
        assert_eq!(t.shape(), (2, 1));
        let err = parse("a,b\n\n1\n").unwrap_err();
        assert!(matches!(err, TableError::RaggedRow { line: 3, .. }));
    }

    #[test]
    fn incremental_reader_yields_records_with_start_lines() {
        let text = "a,b\n\"multi\nline\",2\n3,4\n";
        let mut reader = CsvReader::new(std::io::BufReader::with_capacity(4, text.as_bytes()));
        let mut record = RecordBuf::new();
        assert_eq!(reader.read_record(&mut record).unwrap(), Some(1));
        assert_eq!(record.fields(), ["a", "b"]);
        assert_eq!(reader.read_record(&mut record).unwrap(), Some(2));
        assert_eq!(record.fields(), ["multi\nline", "2"]);
        assert_eq!(reader.read_record(&mut record).unwrap(), Some(4));
        assert_eq!(record.fields(), ["3", "4"]);
        assert_eq!(reader.read_record(&mut record).unwrap(), None);
    }

    #[test]
    fn record_buffer_is_reused_across_records() {
        let text = "a,b\n1,2\n3,4\n";
        let mut reader = CsvReader::new(text.as_bytes());
        let mut record = RecordBuf::new();
        let mut last = Vec::new();
        while reader.read_record(&mut record).unwrap().is_some() {
            last = record.to_vec();
        }
        // The same buffer served every record; the last one is intact.
        assert_eq!(last, ["3", "4"]);
    }
}
