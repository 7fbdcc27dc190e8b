//! The paper's §5.7 future-work directions, implemented:
//!
//! * [`fd_augmented`](crate::extensions::fd_augmented) — "our approach does not consider functional
//!   dependencies between different attributes": combine the model's
//!   predictions with approximate-FD violation signals (a 12-year-old
//!   with a 99,000 salary becomes detectable).
//! * [`duplicate_aware`](crate::extensions::duplicate_aware) — "we should integrate a way to identify primary
//!   keys": detect a key-like column whose values group duplicate
//!   records from different sources (Flights), and flag cells that
//!   disagree with their group's majority — exactly the cross-record
//!   signal the character-level model cannot see.

use etsb_table::CellFrame;
use std::collections::{BTreeMap, HashSet};

/// OR-combine model predictions with approximate-FD violations
/// (discovered at `support`, e.g. 0.95). Raises recall on violated
/// attribute dependencies at a small precision cost.
pub fn fd_augmented(frame: &CellFrame, predictions: &[bool], support: f64) -> Vec<bool> {
    assert_eq!(
        predictions.len(),
        frame.cells().len(),
        "fd_augmented: prediction length"
    );
    use etsb_raha::strategies::Strategy as _;
    let violations = etsb_raha::strategies::FdViolation {
        min_support: support,
    }
    .run(frame);
    predictions
        .iter()
        .zip(&violations)
        .map(|(&p, &v)| p || v)
        .collect()
}

/// Identify the most key-like column: the column whose values form the
/// most groups of size ≥ 2 while staying far from constant — for Flights
/// this is the flight identifier shared by records from different
/// sources. Returns `None` when no column has meaningful grouping.
pub fn identify_record_key(frame: &CellFrame) -> Option<usize> {
    let n_tuples = frame.n_tuples();
    if n_tuples < 4 {
        return None;
    }
    // Candidate filter: high-cardinality columns whose duplicates cover
    // most of the table. Constant-ish or boolean-ish columns fail the
    // group-count test; true unique ids fail the coverage test.
    let mut candidates: Vec<usize> = Vec::new();
    for attr in 0..frame.n_attrs() {
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for t in 0..n_tuples {
            let v = frame.tuple(t)[attr].value_x.as_str();
            if !v.is_empty() {
                *counts.entry(v).or_insert(0) += 1;
            }
        }
        let n_groups = counts.len();
        if n_groups < n_tuples / 20 || n_groups < 2 {
            continue;
        }
        let grouped: usize = counts.values().filter(|&&c| c >= 2).sum();
        if grouped < n_tuples / 2 {
            continue;
        }
        candidates.push(attr);
    }
    // Discriminate by *determination weighted by coverage*: grouping by
    // the real record key puts every record — including the corrupted
    // ones — into a group whose other columns are near-constant. An
    // incidental repeated column (the data source) covers everything but
    // mixes unrelated records (low agreement); a value column groups
    // consistently but its corrupted cells fall out of the groups (low
    // coverage). The product separates the true key from both.
    let mut best: Option<(usize, f64)> = None;
    for &attr in &candidates {
        let mut groups: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for t in 0..n_tuples {
            let v = frame.tuple(t)[attr].value_x.as_str();
            if !v.is_empty() {
                groups.entry(v).or_default().push(t);
            }
        }
        let covered: usize = groups
            .values()
            .filter(|ts| ts.len() >= 2)
            .map(Vec::len)
            .sum();
        let coverage = covered as f64 / n_tuples as f64;
        let mut agreement_sum = 0.0f64;
        let mut agreement_n = 0usize;
        for tuples in groups.values().filter(|ts| ts.len() >= 2) {
            for other in 0..frame.n_attrs() {
                if other == attr {
                    continue;
                }
                let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
                for &t in tuples {
                    *counts
                        .entry(frame.tuple(t)[other].value_x.as_str())
                        .or_insert(0) += 1;
                }
                let top = counts.values().copied().max().unwrap_or(0);
                agreement_sum += top as f64 / tuples.len() as f64;
                agreement_n += 1;
            }
        }
        if agreement_n == 0 {
            continue;
        }
        let score = coverage * agreement_sum / agreement_n as f64;
        if best.is_none_or(|(_, bs)| score > bs) {
            best = Some((attr, score));
        }
    }
    best.map(|(attr, _)| attr)
}

/// OR-combine model predictions with duplicate-record disagreement: group
/// tuples by the key column, and within each group flag cells that
/// disagree with the group's majority value for their attribute
/// (requires a group of ≥ `min_group` records and a strict majority).
pub fn duplicate_aware(
    frame: &CellFrame,
    predictions: &[bool],
    key_attr: usize,
    min_group: usize,
) -> Vec<bool> {
    assert_eq!(
        predictions.len(),
        frame.cells().len(),
        "duplicate_aware: prediction length"
    );
    let mut groups: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for t in 0..frame.n_tuples() {
        let key = frame.tuple(t)[key_attr].value_x.as_str();
        if !key.is_empty() {
            groups.entry(key).or_default().push(t);
        }
    }
    let mut out = predictions.to_vec();
    for tuples in groups.values().filter(|ts| ts.len() >= min_group) {
        for attr in 0..frame.n_attrs() {
            if attr == key_attr {
                continue;
            }
            let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
            for &t in tuples {
                *counts
                    .entry(frame.tuple(t)[attr].value_x.as_str())
                    .or_insert(0) += 1;
            }
            // Plurality arbitration: clean copies of a value agree
            // exactly while corruptions scatter, so the top value wins as
            // long as it is unambiguous and not a singleton.
            let mut ranked: Vec<(&str, usize)> = counts.iter().map(|(v, c)| (*v, *c)).collect();
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
            let (majority, m_count) = ranked[0];
            if m_count < 2 || (ranked.len() > 1 && ranked[1].1 == m_count) {
                continue; // singleton or tied plurality: cannot arbitrate
            }
            for &t in tuples {
                if frame.tuple(t)[attr].value_x != majority {
                    out[frame.cell_index(t, attr)] = true;
                }
            }
        }
    }
    out
}

/// Convenience: auto-detect the key and apply [`duplicate_aware`]; falls
/// back to the raw predictions when no key-like column exists.
pub fn duplicate_aware_auto(frame: &CellFrame, predictions: &[bool]) -> Vec<bool> {
    match identify_record_key(frame) {
        Some(key) => duplicate_aware(frame, predictions, key, 3),
        None => predictions.to_vec(),
    }
}

/// Distinct values of a column (used by tests and diagnostics).
pub fn column_cardinality(frame: &CellFrame, attr: usize) -> usize {
    let set: HashSet<&str> = (0..frame.n_tuples())
        .map(|t| frame.tuple(t)[attr].value_x.as_str())
        .collect();
    set.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsb_datasets::{Dataset, GenConfig};
    use etsb_table::Table;

    #[test]
    fn fd_augmentation_adds_dependency_violations() {
        let mut dirty = Table::with_columns(&["city", "state"]);
        let mut clean = Table::with_columns(&["city", "state"]);
        for i in 0..40 {
            let (c, s) = if i % 2 == 0 {
                ("rome", "IT")
            } else {
                ("paris", "FR")
            };
            clean.push_row_strs(&[c, s]);
            if i == 6 {
                dirty.push_row_strs(&[c, "FR"]);
            } else {
                dirty.push_row_strs(&[c, s]);
            }
        }
        let frame = CellFrame::merge(&dirty, &clean).unwrap();
        let none = vec![false; frame.cells().len()];
        let augmented = fd_augmented(&frame, &none, 0.95);
        assert!(
            augmented[frame.cell_index(6, 1)],
            "the violated state cell is flagged"
        );
        assert!(!augmented[frame.cell_index(0, 1)]);
    }

    #[test]
    fn identifies_the_flight_key_column() {
        let pair = Dataset::Flights
            .generate(&GenConfig {
                scale: 0.1,
                seed: 1,
            })
            .expect("dataset generation");
        let frame = CellFrame::merge(&pair.dirty, &pair.clean).unwrap();
        let key = identify_record_key(&frame).expect("flights has a key");
        // Column 2 is the flight identifier.
        assert_eq!(frame.attrs()[key], "flight");
    }

    #[test]
    fn duplicate_arbitration_flags_minority_times() {
        // Three reports of the same flight; one departure time disagrees.
        let mut dirty = Table::with_columns(&["flight", "dep"]);
        for src in 0..3 {
            for f in 0..10 {
                let dep = if src == 2 && f == 0 {
                    "2:26 p.m."
                } else {
                    "2:46 p.m."
                };
                dirty.push_row(vec![format!("UA-{f}"), dep.to_string()]);
            }
        }
        let frame = CellFrame::merge(&dirty, &dirty).unwrap();
        let none = vec![false; frame.cells().len()];
        let out = duplicate_aware(&frame, &none, 0, 3);
        let flagged: Vec<usize> = (0..frame.cells().len()).filter(|&i| out[i]).collect();
        assert_eq!(flagged, vec![frame.cell_index(20, 1)]);
    }

    #[test]
    fn duplicate_aware_improves_flights_recall() {
        // The headline §5.7 claim: duplicate handling recovers the
        // invisible time-variation errors on Flights.
        let pair = Dataset::Flights
            .generate(&GenConfig {
                scale: 0.1,
                seed: 2,
            })
            .expect("dataset generation");
        let frame = CellFrame::merge(&pair.dirty, &pair.clean).unwrap();
        let labels: Vec<bool> = frame.cells().iter().map(|c| c.label).collect();
        let none = vec![false; frame.cells().len()];
        let out = duplicate_aware_auto(&frame, &none);
        let m = crate::eval::Metrics::from_predictions(&out, &labels);
        assert!(
            m.recall > 0.25,
            "duplicate arbitration alone should catch a chunk of errors: recall {:.2}",
            m.recall
        );
        assert!(
            m.precision > 0.5,
            "majority arbitration should rarely flag clean cells: precision {:.2}",
            m.precision
        );
    }

    #[test]
    fn no_key_means_no_change() {
        let mut t = Table::with_columns(&["v"]);
        for i in 0..50 {
            t.push_row(vec![format!("unique-{i}")]);
        }
        let frame = CellFrame::merge(&t, &t).unwrap();
        let preds = vec![false; frame.cells().len()];
        assert_eq!(duplicate_aware_auto(&frame, &preds), preds);
    }

    #[test]
    fn cardinality_helper() {
        let mut t = Table::with_columns(&["v"]);
        for i in 0..10 {
            t.push_row(vec![format!("{}", i % 3)]);
        }
        let frame = CellFrame::merge(&t, &t).unwrap();
        assert_eq!(column_cardinality(&frame, 0), 3);
    }
}
