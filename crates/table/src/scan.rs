//! Chunked, shard-at-a-time scanning of a dirty/clean row stream.
//!
//! The in-memory path materializes the whole table ([`Table`] →
//! [`CellFrame`](crate::CellFrame)) before anything is encoded; peak memory is O(table).
//! This module is the streaming alternative: a [`RowSource`] yields raw
//! rows one at a time (from memory, from CSV files, or from a synthetic
//! generator), [`scan_stats`] makes one cheap pass to collect the two
//! pieces of *global* state the per-cell features need (per-attribute
//! maximum normalized value lengths and, optionally, the character
//! dictionary), and [`FrameScan`] then re-reads the source in bounded
//! [`ChunkedFrame`]s whose cells are bit-identical to the corresponding
//! slice of `CellFrame::merge` — same normalization, same labels, same
//! `length_norm` — with stable global `tuple_id`s.
//!
//! All buffers are reused across chunks, so steady-state scanning
//! performs no heap allocations and peak memory is
//! O(`chunk_rows` × attrs), independent of the number of rows.

use crate::cellframe::{normalize_value_into, Cell};
use crate::csv::{CsvReader, RecordBuf};
use crate::dict::CharIndexBuilder;
use crate::{CharIndex, Table, TableError};
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};

/// A resettable stream of raw dirty/clean row pairs.
///
/// Implementations fill the caller's row buffers (reusing their string
/// capacity) instead of returning owned rows, so a full scan does no
/// steady-state allocation. For sources without ground truth (the apply
/// path, synthetic load generators) the clean row simply repeats the
/// dirty row, which reproduces the self-merge the in-memory path uses.
pub trait RowSource {
    /// Column names, in order. Fixed for the lifetime of the source.
    fn columns(&self) -> &[String];

    /// Fill `dirty` and `clean` with the next row's raw values.
    /// Returns `false` at end of input.
    fn next_row(
        &mut self,
        dirty: &mut Vec<String>,
        clean: &mut Vec<String>,
    ) -> Result<bool, TableError>;

    /// Rewind to the first data row for another pass.
    fn reset(&mut self) -> Result<(), TableError>;
}

/// Copy `fields` into `row`, reusing the row's string capacity.
pub fn fill_row(row: &mut Vec<String>, fields: &[String]) {
    row.resize_with(fields.len(), String::new);
    for (dst, src) in row.iter_mut().zip(fields) {
        dst.clear();
        dst.push_str(src);
    }
}

/// [`RowSource`] over in-memory [`Table`]s (the bridge between the legacy
/// path and the streaming one, and the reference in equivalence tests).
#[derive(Debug)]
pub struct TableSource<'a> {
    dirty: &'a Table,
    clean: &'a Table,
    next: usize,
}

impl<'a> TableSource<'a> {
    /// Stream a dirty/clean pair. Errors when the shapes differ, exactly
    /// like [`CellFrame::merge`](crate::CellFrame::merge).
    pub fn pair(dirty: &'a Table, clean: &'a Table) -> Result<Self, TableError> {
        if dirty.shape() != clean.shape() {
            return Err(TableError::ShapeMismatch {
                dirty: dirty.shape(),
                clean: clean.shape(),
            });
        }
        Ok(Self {
            dirty,
            clean,
            next: 0,
        })
    }

    /// Stream a dirty table with itself as ground truth (no labels).
    pub fn dirty_only(dirty: &'a Table) -> Self {
        Self {
            dirty,
            clean: dirty,
            next: 0,
        }
    }
}

impl RowSource for TableSource<'_> {
    fn columns(&self) -> &[String] {
        self.clean.columns()
    }

    fn next_row(
        &mut self,
        dirty: &mut Vec<String>,
        clean: &mut Vec<String>,
    ) -> Result<bool, TableError> {
        if self.next >= self.dirty.n_rows() {
            return Ok(false);
        }
        fill_row(dirty, self.dirty.row(self.next));
        fill_row(clean, self.clean.row(self.next));
        self.next += 1;
        Ok(true)
    }

    fn reset(&mut self) -> Result<(), TableError> {
        self.next = 0;
        Ok(())
    }
}

/// [`RowSource`] over on-disk CSV files, read incrementally via
/// [`CsvReader`] — the file is never resident as a whole.
#[derive(Debug)]
pub struct CsvSource {
    dirty_path: PathBuf,
    clean_path: Option<PathBuf>,
    columns: Vec<String>,
    dirty: CsvReader<BufReader<File>>,
    clean: Option<CsvReader<BufReader<File>>>,
    dirty_rec: RecordBuf,
    clean_rec: RecordBuf,
}

impl CsvSource {
    /// Open a dirty CSV and optionally its clean counterpart. Headers are
    /// read eagerly; the clean header names win (mirroring
    /// `CellFrame::merge`, where the paper renames the dirty header to
    /// the clean one) and both files must have the same width.
    pub fn open(
        dirty_path: impl AsRef<Path>,
        clean_path: Option<&Path>,
    ) -> Result<Self, TableError> {
        let mut source = Self {
            dirty_path: dirty_path.as_ref().to_path_buf(),
            clean_path: clean_path.map(Path::to_path_buf),
            columns: Vec::new(),
            dirty: Self::reader(dirty_path.as_ref())?,
            clean: None,
            dirty_rec: RecordBuf::new(),
            clean_rec: RecordBuf::new(),
        };
        source.reset()?;
        Ok(source)
    }

    fn reader(path: &Path) -> Result<CsvReader<BufReader<File>>, TableError> {
        Ok(CsvReader::new(BufReader::new(File::open(path)?)))
    }

    fn header(
        reader: &mut CsvReader<BufReader<File>>,
        record: &mut RecordBuf,
    ) -> Result<Vec<String>, TableError> {
        if reader.read_record(record)?.is_none() {
            return Err(TableError::Csv {
                line: 1,
                message: "empty input".into(),
            });
        }
        Ok(record.to_vec())
    }
}

impl RowSource for CsvSource {
    fn columns(&self) -> &[String] {
        &self.columns
    }

    fn next_row(
        &mut self,
        dirty: &mut Vec<String>,
        clean: &mut Vec<String>,
    ) -> Result<bool, TableError> {
        let width = self.columns.len();
        let Some(line) = self.dirty.read_record(&mut self.dirty_rec)? else {
            if let Some(reader) = self.clean.as_mut() {
                if let Some(line) = reader.read_record(&mut self.clean_rec)? {
                    return Err(TableError::Csv {
                        line,
                        message: "clean file has more rows than dirty".into(),
                    });
                }
            }
            return Ok(false);
        };
        if self.dirty_rec.len() != width {
            return Err(TableError::RaggedRow {
                line,
                expected: width,
                found: self.dirty_rec.len(),
            });
        }
        fill_row(dirty, self.dirty_rec.fields());
        if let Some(reader) = self.clean.as_mut() {
            let Some(clean_line) = reader.read_record(&mut self.clean_rec)? else {
                return Err(TableError::Csv {
                    line,
                    message: "dirty file has more rows than clean".into(),
                });
            };
            if self.clean_rec.len() != width {
                return Err(TableError::RaggedRow {
                    line: clean_line,
                    expected: width,
                    found: self.clean_rec.len(),
                });
            }
            fill_row(clean, self.clean_rec.fields());
        } else {
            fill_row(clean, self.dirty_rec.fields());
        }
        Ok(true)
    }

    fn reset(&mut self) -> Result<(), TableError> {
        self.dirty = Self::reader(&self.dirty_path)?;
        let dirty_header = Self::header(&mut self.dirty, &mut self.dirty_rec)?;
        self.clean = match &self.clean_path {
            Some(path) => {
                let mut reader = Self::reader(path)?;
                let clean_header = Self::header(&mut reader, &mut self.clean_rec)?;
                if clean_header.len() != dirty_header.len() {
                    return Err(TableError::Csv {
                        line: 1,
                        message: format!(
                            "dirty/clean header width mismatch: {} vs {}",
                            dirty_header.len(),
                            clean_header.len()
                        ),
                    });
                }
                self.columns = clean_header;
                Some(reader)
            }
            None => {
                self.columns = dirty_header;
                None
            }
        };
        Ok(())
    }
}

/// Global per-attribute statistics from one streaming pass: everything
/// the chunked encoder needs beyond the dictionaries themselves.
#[derive(Clone, Debug)]
pub struct ScanStats {
    /// Number of data rows in the source.
    pub n_rows: usize,
    /// Per-attribute maximum normalized dirty-value length in characters
    /// — the `length_norm` denominators of `CellFrame::merge`.
    pub max_len: Vec<usize>,
}

/// One cheap pass over the source: row count, per-attribute maxima and
/// the incrementally built character dictionary. The source is reset
/// afterwards, ready for the chunked encode pass.
///
/// The returned [`CharIndex`] is identical to
/// [`CharIndex::build`](crate::CharIndex::build) on the fully
/// materialized frame: both observe the normalized dirty values in
/// row-major order (see [`CharIndexBuilder`]).
pub fn scan_stats<S: RowSource + ?Sized>(
    source: &mut S,
) -> Result<(ScanStats, CharIndex), TableError> {
    let n_cols = source.columns().len();
    let mut max_len = vec![0usize; n_cols];
    let mut builder = CharIndexBuilder::new();
    let mut dirty: Vec<String> = Vec::new();
    let mut clean: Vec<String> = Vec::new();
    let mut scratch = String::new();
    let mut n_rows = 0usize;
    while source.next_row(&mut dirty, &mut clean)? {
        for (raw, slot) in dirty.iter().zip(max_len.iter_mut()) {
            normalize_value_into(raw, &mut scratch);
            *slot = (*slot).max(scratch.chars().count());
            builder.observe(&scratch);
        }
        n_rows += 1;
    }
    source.reset()?;
    Ok((ScanStats { n_rows, max_len }, builder.finish()))
}

/// A bounded, reusable window of merged cells: the streaming counterpart
/// of [`CellFrame`](crate::CellFrame). Cell structs and their strings are
/// recycled between chunks, so refilling a chunk does no steady-state
/// allocation.
#[derive(Debug, Default)]
pub struct ChunkedFrame {
    first_tuple: usize,
    n_rows: usize,
    n_attrs: usize,
    len: usize,
    cells: Vec<Cell>,
}

impl ChunkedFrame {
    /// An empty chunk buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Global tuple id of the first row in this chunk.
    pub fn first_tuple(&self) -> usize {
        self.first_tuple
    }

    /// Number of rows currently in the chunk.
    pub fn n_tuples(&self) -> usize {
        self.n_rows
    }

    /// Number of attributes per row.
    pub fn n_attrs(&self) -> usize {
        self.n_attrs
    }

    /// The chunk's cells, row-major, with **global** `tuple_id`s — the
    /// exact slice `CellFrame::merge(..).cells()` would hold at
    /// `[first_tuple * n_attrs ..][.. n_tuples * n_attrs]`.
    pub fn cells(&self) -> &[Cell] {
        &self.cells[..self.len]
    }

    /// Resident heap footprint of the chunk buffer in bytes (cell structs
    /// plus their string capacities) — the peak-memory proxy that
    /// `stream_predict` reports as `StreamOutcome::peak_chunk_bytes`.
    pub fn resident_bytes(&self) -> usize {
        let strings: usize = self
            .cells
            .iter()
            .map(|c| c.value_x.capacity() + c.value_y.capacity())
            .sum();
        self.cells.capacity() * std::mem::size_of::<Cell>() + strings
    }

    fn begin(&mut self, first_tuple: usize, n_attrs: usize) {
        self.first_tuple = first_tuple;
        self.n_attrs = n_attrs;
        self.n_rows = 0;
        self.len = 0;
    }

    fn push_row(&mut self, tuple_id: usize, dirty: &[String], clean: &[String], max_len: &[usize]) {
        for attr in 0..self.n_attrs {
            if self.len == self.cells.len() {
                self.cells.push(Cell {
                    tuple_id: 0,
                    attr: 0,
                    value_x: String::new(),
                    value_y: String::new(),
                    label: false,
                    empty: true,
                    length_norm: 0.0,
                });
            }
            let cell = &mut self.cells[self.len];
            self.len += 1;
            normalize_value_into(&dirty[attr], &mut cell.value_x);
            normalize_value_into(&clean[attr], &mut cell.value_y);
            cell.tuple_id = tuple_id;
            cell.attr = attr;
            cell.label = cell.value_x != cell.value_y;
            cell.empty = cell.value_x.is_empty();
            let len = cell.value_x.chars().count();
            let col_max = max_len[attr];
            cell.length_norm = if col_max == 0 {
                0.0
            } else {
                len as f32 / col_max as f32
            };
        }
        self.n_rows += 1;
    }
}

/// Chunk-at-a-time iterator over a [`RowSource`]: yields successive
/// [`ChunkedFrame`]s of at most `chunk_rows` rows with stable global
/// tuple ids.
#[derive(Debug)]
pub struct FrameScan<S> {
    source: S,
    chunk_rows: usize,
    max_len: Vec<usize>,
    next_tuple: usize,
    dirty_row: Vec<String>,
    clean_row: Vec<String>,
}

impl<S: RowSource> FrameScan<S> {
    /// Start a chunked pass. `max_len` are the global per-attribute
    /// maxima from [`scan_stats`] (or from a persisted/in-memory frame).
    ///
    /// # Panics
    /// If `chunk_rows` is 0.
    pub fn new(source: S, max_len: Vec<usize>, chunk_rows: usize) -> Self {
        assert!(chunk_rows > 0, "FrameScan: chunk_rows must be positive");
        assert_eq!(
            max_len.len(),
            source.columns().len(),
            "FrameScan: max_len width must match the source columns"
        );
        Self {
            source,
            chunk_rows,
            max_len,
            next_tuple: 0,
            dirty_row: Vec::new(),
            clean_row: Vec::new(),
        }
    }

    /// Column names of the underlying source.
    pub fn columns(&self) -> &[String] {
        self.source.columns()
    }

    /// Fill `chunk` with the next window of rows. Returns `false` when
    /// the source is exhausted (the chunk is then empty).
    pub fn next_chunk(&mut self, chunk: &mut ChunkedFrame) -> Result<bool, TableError> {
        chunk.begin(self.next_tuple, self.source.columns().len());
        for _ in 0..self.chunk_rows {
            if !self
                .source
                .next_row(&mut self.dirty_row, &mut self.clean_row)?
            {
                break;
            }
            chunk.push_row(
                self.next_tuple,
                &self.dirty_row,
                &self.clean_row,
                &self.max_len,
            );
            self.next_tuple += 1;
        }
        Ok(chunk.n_tuples() > 0)
    }

    /// Rewind to the first row to scan again with the same statistics.
    pub fn reset(&mut self) -> Result<(), TableError> {
        self.next_tuple = 0;
        self.source.reset()
    }

    /// Give the source back (e.g. to rescan with different settings).
    pub fn into_source(self) -> S {
        self.source
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{csv, CellFrame, CharIndex};

    fn pair() -> (Table, Table) {
        let mut dirty = Table::with_columns(&["age", "city"]);
        dirty.push_row_strs(&["21", " Romr"]);
        dirty.push_row_strs(&["", "Paris"]);
        dirty.push_row_strs(&["7", "Lima"]);
        dirty.push_row_strs(&["303", "Oslo"]);
        dirty.push_row_strs(&["44", ""]);
        let mut clean = Table::with_columns(&["age", "city"]);
        clean.push_row_strs(&["21", "Rome"]);
        clean.push_row_strs(&["30", "Paris"]);
        clean.push_row_strs(&["7", "Lima"]);
        clean.push_row_strs(&["33", "Oslo"]);
        clean.push_row_strs(&["44", "Kyiv"]);
        (dirty, clean)
    }

    #[test]
    fn scan_stats_match_the_merge_pass() {
        let (d, c) = pair();
        let frame = CellFrame::merge(&d, &c).unwrap();
        let mut source = TableSource::pair(&d, &c).unwrap();
        let (stats, dict) = scan_stats(&mut source).unwrap();
        assert_eq!(stats.n_rows, 5);
        // Denominators implied by the frame's length_norm: recompute from
        // the frame's own pass-1 logic.
        assert_eq!(stats.max_len, vec![3, 5]);
        assert_eq!(dict.entries(), CharIndex::build(&frame).entries());
    }

    #[test]
    fn chunked_cells_equal_the_merged_frame_for_every_chunk_size() {
        let (d, c) = pair();
        let frame = CellFrame::merge(&d, &c).unwrap();
        for chunk_rows in [1usize, 2, 3, 5, 100] {
            let mut source = TableSource::pair(&d, &c).unwrap();
            let (stats, _) = scan_stats(&mut source).unwrap();
            let mut scan = FrameScan::new(source, stats.max_len.clone(), chunk_rows);
            let mut chunk = ChunkedFrame::new();
            let mut streamed: Vec<Cell> = Vec::new();
            while scan.next_chunk(&mut chunk).unwrap() {
                assert!(chunk.n_tuples() <= chunk_rows);
                assert_eq!(chunk.first_tuple() * chunk.n_attrs(), streamed.len());
                streamed.extend_from_slice(chunk.cells());
            }
            assert_eq!(streamed, frame.cells(), "chunk_rows={chunk_rows}");
        }
    }

    #[test]
    fn dirty_only_source_reproduces_the_self_merge() {
        let (d, _) = pair();
        let frame = CellFrame::merge(&d, &d).unwrap();
        let mut source = TableSource::dirty_only(&d);
        let (stats, _) = scan_stats(&mut source).unwrap();
        let mut scan = FrameScan::new(source, stats.max_len, 2);
        let mut chunk = ChunkedFrame::new();
        let mut streamed: Vec<Cell> = Vec::new();
        while scan.next_chunk(&mut chunk).unwrap() {
            streamed.extend_from_slice(chunk.cells());
        }
        assert_eq!(streamed, frame.cells());
        assert!(streamed.iter().all(|cell| !cell.label));
    }

    #[test]
    fn csv_source_streams_like_the_in_memory_table() {
        let (d, c) = pair();
        let dir = std::env::temp_dir().join(format!("etsb_scan_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dirty_path = dir.join("dirty.csv");
        let clean_path = dir.join("clean.csv");
        csv::write_file(&d, &dirty_path).unwrap();
        csv::write_file(&c, &clean_path).unwrap();

        let mut source = CsvSource::open(&dirty_path, Some(clean_path.as_path())).unwrap();
        assert_eq!(source.columns(), c.columns());
        let (stats, dict) = scan_stats(&mut source).unwrap();
        let frame = CellFrame::merge(&d, &c).unwrap();
        assert_eq!(dict.entries(), CharIndex::build(&frame).entries());

        let mut scan = FrameScan::new(source, stats.max_len, 2);
        let mut chunk = ChunkedFrame::new();
        let mut streamed: Vec<Cell> = Vec::new();
        while scan.next_chunk(&mut chunk).unwrap() {
            streamed.extend_from_slice(chunk.cells());
        }
        assert_eq!(streamed, frame.cells());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunk_buffer_is_reused_and_reports_resident_bytes() {
        let (d, c) = pair();
        let mut source = TableSource::pair(&d, &c).unwrap();
        let (stats, _) = scan_stats(&mut source).unwrap();
        let mut scan = FrameScan::new(source, stats.max_len, 2);
        let mut chunk = ChunkedFrame::new();
        let mut peak = 0usize;
        while scan.next_chunk(&mut chunk).unwrap() {
            peak = peak.max(chunk.resident_bytes());
        }
        assert!(peak > 0);
        // The buffer never holds more than chunk_rows × attrs cells.
        assert!(chunk.resident_bytes() <= peak);
        assert!(chunk.cells.len() <= 2 * 2);
    }

    #[test]
    fn row_count_mismatch_is_an_error() {
        let (_, c) = pair();
        let dir = std::env::temp_dir().join(format!("etsb_scan_mismatch_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (long_path, short_path) = (dir.join("long.csv"), dir.join("short.csv"));
        let mut short = Table::new(c.columns().to_vec());
        short.push_row(c.row(0).to_vec());
        short.push_row(c.row(1).to_vec());
        let mut long = short.clone();
        long.push_row(c.row(2).to_vec());
        csv::write_file(&long, &long_path).unwrap();
        csv::write_file(&short, &short_path).unwrap();

        // Line 4 holds the third data row, which the other file lacks.
        for (dirty, clean, message) in [
            (
                &long_path,
                &short_path,
                "dirty file has more rows than clean",
            ),
            (
                &short_path,
                &long_path,
                "clean file has more rows than dirty",
            ),
        ] {
            let mut source = CsvSource::open(dirty, Some(clean.as_path())).unwrap();
            let err = scan_stats(&mut source).unwrap_err();
            let message = message.to_string();
            assert_eq!(err, TableError::Csv { line: 4, message });
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
