//! The six benchmark datasets and their generation entry point.

use crate::corrupt::ErrorKind;
use etsb_table::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// Generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// Row-count multiplier against the paper's dataset sizes
    /// (`1.0` reproduces Table 2 exactly). Paper-size Tax, 3 million
    /// cells, generates in seconds; the Tax benches still default to
    /// `0.025` because training on and scoring that many cells is
    /// costly, not generating them. Clamped to at least 30 rows so the
    /// 20-tuple trainset always leaves a testset.
    pub scale: f64,
    /// Seed for the deterministic generator.
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        Self {
            scale: 1.0,
            seed: 42,
        }
    }
}

impl GenConfig {
    /// Effective row count for a paper-size dataset of `paper_rows`.
    pub fn rows(&self, paper_rows: usize) -> usize {
        ((paper_rows as f64 * self.scale).round() as usize).max(30)
    }

    /// Derive the generator RNG, mixing the dataset name so different
    /// datasets with the same seed are decorrelated.
    pub fn rng(&self, dataset: Dataset) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ (dataset as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// A generated dirty/clean pair.
#[derive(Clone, Debug)]
pub struct DatasetPair {
    /// Which benchmark this is.
    pub dataset: Dataset,
    /// The table containing injected errors.
    pub dirty: Table,
    /// The ground truth.
    pub clean: Table,
}

/// The six benchmark datasets of the paper's Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum Dataset {
    /// 2,410 x 11, error rate 0.16, MV/FI/VAD.
    Beers,
    /// 2,376 x 7, error rate 0.30, MV/FI/VAD.
    Flights,
    /// 1,000 x 20, error rate 0.03, T/VAD.
    Hospital,
    /// 7,390 x 17, error rate 0.06, MV/FI.
    Movies,
    /// 1,000 x 10, error rate 0.09, MV/T/FI/VAD.
    Rayyan,
    /// 200,000 x 15, error rate 0.04, T/FI/VAD.
    Tax,
}

impl Dataset {
    /// All six datasets in the paper's order.
    pub const ALL: [Dataset; 6] = [
        Dataset::Beers,
        Dataset::Flights,
        Dataset::Hospital,
        Dataset::Movies,
        Dataset::Rayyan,
        Dataset::Tax,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Beers => "Beers",
            Dataset::Flights => "Flights",
            Dataset::Hospital => "Hospital",
            Dataset::Movies => "Movies",
            Dataset::Rayyan => "Rayyan",
            Dataset::Tax => "Tax",
        }
    }

    /// Parse a (case-insensitive) dataset name.
    pub fn parse(name: &str) -> Option<Dataset> {
        Dataset::ALL
            .into_iter()
            .find(|d| d.name().eq_ignore_ascii_case(name))
    }

    /// Paper row count (Table 2).
    pub fn paper_rows(self) -> usize {
        match self {
            Dataset::Beers => 2410,
            Dataset::Flights => 2376,
            Dataset::Hospital => 1000,
            Dataset::Movies => 7390,
            Dataset::Rayyan => 1000,
            Dataset::Tax => 200_000,
        }
    }

    /// Paper column count (Table 2).
    pub fn paper_cols(self) -> usize {
        match self {
            Dataset::Beers => 11,
            Dataset::Flights => 7,
            Dataset::Hospital => 20,
            Dataset::Movies => 17,
            Dataset::Rayyan => 10,
            Dataset::Tax => 15,
        }
    }

    /// Paper cell error rate (Table 2).
    pub fn paper_error_rate(self) -> f64 {
        match self {
            Dataset::Beers => 0.16,
            Dataset::Flights => 0.30,
            Dataset::Hospital => 0.03,
            Dataset::Movies => 0.06,
            Dataset::Rayyan => 0.09,
            Dataset::Tax => 0.04,
        }
    }

    /// Paper distinct-character count (Table 2) — a target, not a
    /// guarantee, for the synthetic generators.
    pub fn paper_distinct_chars(self) -> usize {
        match self {
            Dataset::Beers => 86,
            Dataset::Flights => 70,
            Dataset::Hospital => 46,
            Dataset::Movies => 135,
            Dataset::Rayyan => 101,
            Dataset::Tax => 69,
        }
    }

    /// Error types present (Table 2).
    pub fn error_kinds(self) -> &'static [ErrorKind] {
        use ErrorKind::*;
        match self {
            Dataset::Beers => &[MissingValue, FormattingIssue, ViolatedDependency],
            Dataset::Flights => &[MissingValue, FormattingIssue, ViolatedDependency],
            Dataset::Hospital => &[Typo, ViolatedDependency],
            Dataset::Movies => &[MissingValue, FormattingIssue],
            Dataset::Rayyan => &[MissingValue, Typo, FormattingIssue, ViolatedDependency],
            Dataset::Tax => &[Typo, FormattingIssue, ViolatedDependency],
        }
    }

    /// Generate the dirty/clean pair.
    ///
    /// Fails with [`etsb_table::TableError`] when a generator's column
    /// plan is inconsistent with its declared schema (a bug surfaced as
    /// an error rather than a panic, per the library-crate policy).
    pub fn generate(self, cfg: &GenConfig) -> Result<DatasetPair, etsb_table::TableError> {
        let _span = etsb_obs::obs_span!(
            "dataset.generate",
            "dataset" => self.name(),
            "scale" => cfg.scale,
            "seed" => cfg.seed,
        );
        let (dirty, clean) = match self {
            Dataset::Beers => crate::beers::generate(cfg)?,
            Dataset::Flights => crate::flights::generate(cfg),
            Dataset::Hospital => crate::hospital::generate(cfg),
            Dataset::Movies => crate::movies::generate(cfg)?,
            Dataset::Rayyan => crate::rayyan::generate(cfg)?,
            Dataset::Tax => crate::tax::generate(cfg),
        };
        if etsb_obs::enabled() {
            let (rows, cols) = dirty.shape();
            etsb_obs::obs_event!(
                "dataset.shape",
                "dataset" => self.name(),
                "rows" => rows,
                "cols" => cols,
                "cells" => rows * cols,
            );
        }
        Ok(DatasetPair {
            dataset: self,
            dirty,
            clean,
        })
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsb_table::{stats::DatasetStats, CellFrame};

    /// FNV-1a 64 over every cell of the dirty table, then of the clean
    /// table, row-major, each cell followed by a `0xff` byte (which no
    /// UTF-8 text contains, so cell boundaries cannot shift unseen).
    fn fnv1a_tables(pair: &DatasetPair) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for table in [&pair.dirty, &pair.clean] {
            let (rows, cols) = table.shape();
            for r in 0..rows {
                for c in 0..cols {
                    for &b in table.cell(r, c).as_bytes().iter().chain(&[0xff]) {
                        h ^= u64::from(b);
                        h = h.wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
            }
        }
        h
    }

    /// Every generator's output, byte for byte: the six datasets at their
    /// bench scales, and Hospital at 5x for a longer list of shuffled
    /// cells. A change to a generator or to the injector's draw order
    /// moves these hashes; a change that only speeds generation up must
    /// not.
    #[test]
    fn generated_tables_are_pinned() {
        let cases = [
            (Dataset::Beers, 1.0, 0x420b_80bf_67ed_8e91_u64),
            (Dataset::Flights, 1.0, 0x865a_9a0f_c986_ed5b),
            (Dataset::Hospital, 1.0, 0x493c_810a_8f32_bf4d),
            (Dataset::Movies, 1.0, 0x1e31_b995_03c3_e143),
            (Dataset::Rayyan, 1.0, 0xe699_2e26_831f_a4ef),
            (Dataset::Tax, 0.025, 0x3e2e_5a73_806b_b24b),
            (Dataset::Hospital, 5.0, 0x8b35_be91_89e0_a65c),
        ];
        for (ds, scale, want) in cases {
            let pair = ds
                .generate(&GenConfig { scale, seed: 42 })
                .expect("dataset generation");
            let got = fnv1a_tables(&pair);
            assert_eq!(
                got, want,
                "{ds} at scale {scale}: generated bytes changed (hash {got:#018x})"
            );
        }
    }

    #[test]
    fn parse_names() {
        assert_eq!(Dataset::parse("beers"), Some(Dataset::Beers));
        assert_eq!(Dataset::parse("TAX"), Some(Dataset::Tax));
        assert_eq!(Dataset::parse("nope"), None);
    }

    /// Every generator must hit its Table-2 statistics at small scale:
    /// exact shape, error rate within ±15% relative, distinct chars within
    /// a factor of two of the paper's alphabet.
    #[test]
    fn generators_match_paper_statistics() {
        let cfg = GenConfig {
            scale: 0.05,
            seed: 7,
        };
        for ds in Dataset::ALL {
            let pair = ds.generate(&cfg).expect("dataset generation");
            let expect_rows = cfg.rows(ds.paper_rows());
            assert_eq!(
                pair.dirty.shape(),
                (expect_rows, ds.paper_cols()),
                "{ds}: dirty shape"
            );
            assert_eq!(
                pair.dirty.shape(),
                pair.clean.shape(),
                "{ds}: shape mismatch"
            );
            let frame = CellFrame::merge(&pair.dirty, &pair.clean).unwrap();
            let stats = DatasetStats::of(&frame);
            let target = ds.paper_error_rate();
            assert!(
                (stats.error_rate - target).abs() / target < 0.15,
                "{ds}: error rate {} vs target {target}",
                stats.error_rate
            );
            let chars = ds.paper_distinct_chars() as f64;
            assert!(
                stats.distinct_chars as f64 > chars * 0.4
                    && (stats.distinct_chars as f64) < chars * 2.0,
                "{ds}: distinct chars {} vs paper {chars}",
                stats.distinct_chars
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig {
            scale: 0.03,
            seed: 99,
        };
        for ds in [Dataset::Beers, Dataset::Hospital] {
            let a = ds.generate(&cfg).expect("dataset generation");
            let b = ds.generate(&cfg).expect("dataset generation");
            assert_eq!(a.dirty, b.dirty, "{ds}: dirty differs across runs");
            assert_eq!(a.clean, b.clean, "{ds}: clean differs across runs");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Dataset::Beers
            .generate(&GenConfig {
                scale: 0.03,
                seed: 1,
            })
            .expect("dataset generation");
        let b = Dataset::Beers
            .generate(&GenConfig {
                scale: 0.03,
                seed: 2,
            })
            .expect("dataset generation");
        assert_ne!(a.clean, b.clean);
    }

    #[test]
    fn scale_clamps_to_minimum() {
        let cfg = GenConfig {
            scale: 0.00001,
            seed: 1,
        };
        let pair = Dataset::Rayyan.generate(&cfg).expect("dataset generation");
        assert_eq!(pair.dirty.n_rows(), 30);
    }
}
