//! Error-injection machinery shared by all generators.
//!
//! A generator first produces a *clean* table, then drives an [`Injector`]
//! that corrupts a target fraction of cells. Each corruption is performed
//! by a dataset-specific closure which returns the dirty replacement (or
//! `None` when the chosen cell cannot host the chosen error kind); the
//! injector guarantees that counted corruptions actually changed the
//! value, so the realized error rate matches the paper's Table 2.

use etsb_table::Table;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::Serialize;

/// The paper's error taxonomy (taken from Raha, see Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum ErrorKind {
    /// `MV` — value replaced by the empty string or a `NaN` marker.
    MissingValue,
    /// `T` — character-level typo.
    Typo,
    /// `FI` — same semantic value, wrong surface form.
    FormattingIssue,
    /// `VAD` — value conflicts with another attribute of the same tuple.
    ViolatedDependency,
}

impl ErrorKind {
    /// Short code used in Table 2 ("MV", "T", "FI", "VAD").
    pub fn code(self) -> &'static str {
        match self {
            ErrorKind::MissingValue => "MV",
            ErrorKind::Typo => "T",
            ErrorKind::FormattingIssue => "FI",
            ErrorKind::ViolatedDependency => "VAD",
        }
    }
}

/// Drives corruption of a clean table into a dirty copy.
#[derive(Debug)]
pub struct Injector<'a> {
    rng: &'a mut StdRng,
    /// (cell count to corrupt per kind) — derived from rate and mix.
    plan: Vec<(ErrorKind, usize)>,
}

impl<'a> Injector<'a> {
    /// Plan corruption of `rate * n_cells` cells, split across `mix`
    /// according to its weights (which need not sum to 1; they are
    /// normalized).
    ///
    /// # Panics
    /// If `rate` is outside `[0, 1]` or `mix` is empty / all-zero.
    pub fn new(n_cells: usize, rate: f64, mix: &[(ErrorKind, f64)], rng: &'a mut StdRng) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "Injector: rate {rate} outside [0,1]"
        );
        assert!(!mix.is_empty(), "Injector: empty error mix");
        let total_w: f64 = mix.iter().map(|(_, w)| w).sum();
        assert!(total_w > 0.0, "Injector: zero-weight error mix");
        let total_errors = (n_cells as f64 * rate).round() as usize;
        let mut plan = Vec::with_capacity(mix.len());
        let mut assigned = 0usize;
        for (i, (kind, w)) in mix.iter().enumerate() {
            let count = if i + 1 == mix.len() {
                total_errors - assigned
            } else {
                ((total_errors as f64) * (w / total_w)).round() as usize
            };
            let count = count.min(total_errors - assigned);
            assigned += count;
            plan.push((*kind, count));
        }
        Self { rng, plan }
    }

    /// Corrupt `dirty` in place. For each planned error the injector picks
    /// uniformly random cells and asks `corrupt(kind, row, col, value,
    /// rng)` for a replacement until one cell accepts (returns
    /// `Some(new_value)` with `new_value != value`). Cells already
    /// corrupted are never corrupted twice.
    ///
    /// Returns the per-kind counts actually applied (a kind can fall
    /// short only if the table runs out of eligible cells — generators
    /// size their domains so this does not happen, and tests assert it).
    pub fn run(
        mut self,
        dirty: &mut Table,
        mut corrupt: impl FnMut(ErrorKind, usize, usize, &str, &mut StdRng) -> Option<String>,
    ) -> Vec<(ErrorKind, usize)> {
        let _span = etsb_obs::span("corrupt");
        let (n_rows, n_cols) = dirty.shape();
        let mut untouched: Vec<(usize, usize)> = (0..n_rows)
            .flat_map(|r| (0..n_cols).map(move |c| (r, c)))
            .collect();
        untouched.shuffle(self.rng);

        let mut applied = Vec::with_capacity(self.plan.len());
        for (kind, want) in std::mem::take(&mut self.plan) {
            let mut done = 0usize;
            let mut skipped: Vec<(usize, usize)> = Vec::new();
            while done < want {
                let Some((r, c)) = untouched.pop() else { break };
                let old = dirty.cell(r, c).to_string();
                match corrupt(kind, r, c, &old, self.rng) {
                    Some(new) if new != old => {
                        dirty.set_cell(r, c, new);
                        done += 1;
                    }
                    _ => skipped.push((r, c)),
                }
            }
            // Cells this kind could not corrupt stay available for the
            // next kinds; reinsert at random positions.
            for cell in skipped {
                let at = self.rng.gen_range(0..=untouched.len());
                untouched.insert(at, cell);
            }
            applied.push((kind, done));
        }
        if etsb_obs::enabled() {
            for (kind, done) in &applied {
                etsb_obs::obs_event!(
                    "corrupt_applied",
                    "kind" => kind.code(),
                    "value" => *done,
                );
            }
        }
        applied
    }
}

// ---------------------------------------------------------------------
// Shared corruption operators.
// ---------------------------------------------------------------------

/// Replace a value with a missing-value marker (`""` or `"NaN"`).
pub fn missing_value(rng: &mut StdRng) -> String {
    if rng.gen_bool(0.5) {
        String::new()
    } else {
        "NaN".to_string()
    }
}

/// Classic typo: substitute, duplicate, delete or transpose one character.
/// Returns `None` for empty input.
pub fn typo(value: &str, rng: &mut StdRng) -> Option<String> {
    let chars: Vec<char> = value.chars().collect();
    if chars.is_empty() {
        return None;
    }
    let pos = rng.gen_range(0..chars.len());
    let mut out = chars.clone();
    match rng.gen_range(0..4u8) {
        0 => {
            // Substitute with a nearby lowercase letter.
            let repl = (b'a' + rng.gen_range(0..26u8)) as char;
            if out[pos] == repl {
                return None;
            }
            out[pos] = repl;
        }
        1 => out.insert(pos, out[pos]),
        2 => {
            if out.len() == 1 {
                return None;
            }
            out.remove(pos);
        }
        _ => {
            if pos + 1 >= out.len() || out[pos] == out[pos + 1] {
                return None;
            }
            out.swap(pos, pos + 1);
        }
    }
    Some(out.into_iter().collect())
}

/// Hospital-style typo: replace one or two alphabetic characters with
/// `x` — the paper's example "hexrt fxilure" corrupts two ("Birmingxam"
/// corrupts one).
pub fn x_typo(value: &str, rng: &mut StdRng) -> Option<String> {
    let chars: Vec<char> = value.chars().collect();
    let mut candidates: Vec<usize> = chars
        .iter()
        .enumerate()
        .filter(|(_, c)| c.is_ascii_alphabetic() && **c != 'x' && **c != 'X')
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    candidates.shuffle(rng);
    let n = if candidates.len() >= 2 && rng.gen_bool(0.6) {
        2
    } else {
        1
    };
    let mut out = chars;
    for &pos in candidates.iter().take(n) {
        out[pos] = 'x';
    }
    Some(out.into_iter().collect())
}

/// Insert thousands separators into an integer string
/// (`"379998"` → `"379,998"`). Returns `None` for short or non-numeric
/// input.
pub fn add_thousands_separators(value: &str) -> Option<String> {
    if value.len() < 4 || !value.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let bytes = value.as_bytes();
    let mut out = String::with_capacity(value.len() + value.len() / 3);
    let lead = bytes.len() % 3;
    for (i, b) in bytes.iter().enumerate() {
        if i != 0 && (i + 3 - lead).is_multiple_of(3) {
            out.push(',');
        }
        out.push(*b as char);
    }
    Some(out)
}

/// Strip a leading zero (`"01907"` → `"1907"`).
pub fn strip_leading_zero(value: &str) -> Option<String> {
    let rest = value.strip_prefix('0')?;
    if rest.is_empty() {
        return None;
    }
    Some(rest.to_string())
}

/// Append a decimal suffix (`"7"` → `"7.0"`, `"8"` → `"8.0"`).
pub fn add_decimal_suffix(value: &str) -> Option<String> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some(format!("{value}.0"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsb_tensor_free::seeded;

    /// Tiny local helper so these tests do not depend on etsb-tensor.
    mod etsb_tensor_free {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        pub fn seeded(seed: u64) -> StdRng {
            StdRng::seed_from_u64(seed)
        }
    }

    fn table(n_rows: usize, n_cols: usize) -> Table {
        let cols: Vec<String> = (0..n_cols).map(|c| format!("c{c}")).collect();
        let mut t = Table::new(cols);
        for r in 0..n_rows {
            t.push_row((0..n_cols).map(|c| format!("v{r}_{c}")).collect());
        }
        t
    }

    #[test]
    fn injector_hits_requested_rate() {
        let clean = table(100, 5);
        let mut dirty = clean.clone();
        let mut rng = seeded(1);
        let plan = Injector::new(
            500,
            0.10,
            &[(ErrorKind::Typo, 0.5), (ErrorKind::MissingValue, 0.5)],
            &mut rng,
        );
        let applied = plan.run(&mut dirty, |kind, _, _, old, rng| match kind {
            ErrorKind::Typo => typo(old, rng),
            ErrorKind::MissingValue => Some(missing_value(rng)),
            _ => None,
        });
        let total: usize = applied.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 50);
        let mut diff = 0;
        for r in 0..100 {
            for c in 0..5 {
                if dirty.cell(r, c) != clean.cell(r, c) {
                    diff += 1;
                }
            }
        }
        assert_eq!(diff, 50);
    }

    #[test]
    fn injector_zero_rate_is_noop() {
        let clean = table(10, 3);
        let mut dirty = clean.clone();
        let mut rng = seeded(2);
        let applied = Injector::new(30, 0.0, &[(ErrorKind::Typo, 1.0)], &mut rng)
            .run(&mut dirty, |_, _, _, old, rng| typo(old, rng));
        assert_eq!(applied[0].1, 0);
        assert_eq!(dirty, clean);
    }

    #[test]
    fn injector_never_double_corrupts() {
        // Corrupt 100% of cells: every cell must differ, and each exactly once.
        let clean = table(20, 2);
        let mut dirty = clean.clone();
        let mut rng = seeded(3);
        Injector::new(40, 1.0, &[(ErrorKind::MissingValue, 1.0)], &mut rng)
            .run(&mut dirty, |_, _, _, _, rng| Some(missing_value(rng)));
        for r in 0..20 {
            for c in 0..2 {
                assert_ne!(dirty.cell(r, c), clean.cell(r, c));
            }
        }
    }

    #[test]
    fn typo_changes_value() {
        let mut rng = seeded(4);
        for _ in 0..200 {
            if let Some(t) = typo("hello world", &mut rng) {
                assert_ne!(t, "hello world");
            }
        }
        assert_eq!(typo("", &mut rng), None);
    }

    #[test]
    fn x_typo_injects_x() {
        let mut rng = seeded(5);
        let out = x_typo("heart failure", &mut rng).unwrap();
        assert_ne!(out, "heart failure");
        assert_eq!(out.len(), "heart failure".len());
        assert!(out.contains('x'));
        assert_eq!(x_typo("12345", &mut rng), None);
    }

    #[test]
    fn thousands_separators() {
        assert_eq!(add_thousands_separators("379998").unwrap(), "379,998");
        assert_eq!(add_thousands_separators("1234567").unwrap(), "1,234,567");
        assert_eq!(add_thousands_separators("999"), None);
        assert_eq!(add_thousands_separators("12a4"), None);
    }

    #[test]
    fn leading_zero_and_decimal() {
        assert_eq!(strip_leading_zero("01907").unwrap(), "1907");
        assert_eq!(strip_leading_zero("1907"), None);
        assert_eq!(strip_leading_zero("0"), None);
        assert_eq!(add_decimal_suffix("7").unwrap(), "7.0");
        assert_eq!(add_decimal_suffix("7.5"), None);
    }

    #[test]
    fn error_kind_codes() {
        assert_eq!(ErrorKind::MissingValue.code(), "MV");
        assert_eq!(ErrorKind::ViolatedDependency.code(), "VAD");
    }
}
