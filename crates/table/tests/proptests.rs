//! Property-based tests for CSV round-tripping, the merge pipeline and
//! the dictionaries.

use etsb_table::csv::{CsvReader, RecordBuf};
use etsb_table::{csv, CellFrame, CharIndex, Table, PAD_INDEX};
use proptest::prelude::*;
use std::io::BufReader;

/// Any printable-ish cell content, including the characters CSV must
/// quote and multi-byte unicode.
fn cell() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~äöüé日,\"\n]{0,12}").expect("valid regex")
}

/// Cells dense in the bytes the CSV grammar reacts to (`,`, `"`, CR, LF),
/// with leading spaces, multi-byte characters and empty fields.
fn hostile_cell() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ ,\"\r\nabé東]{0,10}").expect("valid regex")
}

fn table(max_rows: usize) -> impl Strategy<Value = Table> {
    table_of(max_rows, cell)
}

fn table_of<S: Strategy<Value = String>>(
    max_rows: usize,
    cell: fn() -> S,
) -> impl Strategy<Value = Table> {
    (1usize..5, 1usize..=max_rows).prop_flat_map(move |(cols, rows)| {
        proptest::collection::vec(proptest::collection::vec(cell(), cols), rows).prop_map(
            move |data| {
                let names: Vec<String> = (0..cols).map(|c| format!("c{c}")).collect();
                let mut t = Table::new(names);
                for row in data {
                    t.push_row(row);
                }
                t
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csv_round_trips_arbitrary_cells(t in table(8), hostile in table_of(6, hostile_cell)) {
        for t in [t, hostile] {
            let text = csv::to_string(&t);
            prop_assert_eq!(&csv::parse(&text).unwrap(), &t);
            // Tiny buffers split lines, CRLF pairs and multi-byte
            // characters across refills of the underlying reader.
            for capacity in [1usize, 2, 3, 5, 8] {
                let input = BufReader::with_capacity(capacity, text.as_bytes());
                let mut reader = CsvReader::new(input);
                let mut record = RecordBuf::new();
                let mut records = Vec::new();
                while reader.read_record(&mut record).unwrap().is_some() {
                    records.push(record.to_vec());
                }
                prop_assert_eq!(&records[0], t.columns());
                let rows: Vec<&[String]> = t.iter_rows().collect();
                prop_assert_eq!(records[1..].iter().map(Vec::as_slice).collect::<Vec<_>>(), rows);
            }
        }
    }

    #[test]
    fn merge_label_iff_values_differ(t in table(6)) {
        // Self-merge: every label must be false.
        let frame = CellFrame::merge(&t, &t).unwrap();
        prop_assert!(frame.cells().iter().all(|c| !c.label));
        prop_assert_eq!(frame.error_rate(), 0.0);
    }

    #[test]
    fn merge_shape_is_rows_times_cols(t in table(6)) {
        let frame = CellFrame::merge(&t, &t).unwrap();
        prop_assert_eq!(frame.cells().len(), t.n_rows() * t.n_cols());
        prop_assert_eq!(frame.n_tuples(), t.n_rows());
    }

    #[test]
    fn length_norm_bounds(t in table(6)) {
        let frame = CellFrame::merge(&t, &t).unwrap();
        prop_assert!(frame
            .cells()
            .iter()
            .all(|c| (0.0..=1.0).contains(&c.length_norm)));
        // Some cell in each non-degenerate attribute reaches norm 1.
        for attr in 0..frame.n_attrs() {
            let max = frame
                .cells()
                .iter()
                .filter(|c| c.attr == attr)
                .map(|c| c.length_norm)
                .fold(0.0f32, f32::max);
            let any_nonempty = frame
                .cells()
                .iter()
                .any(|c| c.attr == attr && !c.value_x.is_empty());
            if any_nonempty {
                prop_assert!((max - 1.0).abs() < 1e-6, "attr {attr}: max norm {max}");
            }
        }
    }

    #[test]
    fn dictionary_encodes_every_seen_value(t in table(6)) {
        let frame = CellFrame::merge(&t, &t).unwrap();
        let dict = CharIndex::build(&frame);
        for cell in frame.cells() {
            let enc = dict.encode(&cell.value_x);
            prop_assert!(!enc.is_empty(), "sequences are never empty");
            if cell.value_x.is_empty() {
                prop_assert_eq!(&enc, &vec![PAD_INDEX]);
            } else {
                // Every character of a seen value has a nonzero index.
                prop_assert!(enc.iter().all(|&i| i != PAD_INDEX && i < dict.vocab_size()));
            }
        }
    }

    #[test]
    fn padded_encoding_has_exact_width(v in cell(), len in 1usize..20) {
        let mut t = Table::with_columns(&["a"]);
        t.push_row(vec![v]);
        let frame = CellFrame::merge(&t, &t).unwrap();
        let dict = CharIndex::build(&frame);
        let enc = dict.encode_padded(&frame.cells()[0].value_x, len);
        prop_assert_eq!(enc.len(), len);
    }

    #[test]
    fn distinct_chars_counts_exactly(t in table(6)) {
        let frame = CellFrame::merge(&t, &t).unwrap();
        let dict = CharIndex::build(&frame);
        prop_assert_eq!(frame.distinct_chars(), dict.n_chars());
    }
}
