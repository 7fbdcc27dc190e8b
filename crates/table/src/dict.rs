//! Dictionary generation (§4.1, step 4): the *value dictionary* mapping
//! characters to indexes and the *attribute dictionary* mapping attribute
//! names to indexes.

use crate::CellFrame;
use std::collections::HashMap;

/// Index 0 is reserved: it pads short sequences ("we pad short sequences
/// of characters with the end-indicator") and doubles as the
/// out-of-vocabulary bucket for characters never seen at dictionary-build
/// time (relevant only when a trained model is applied to new data).
pub const PAD_INDEX: usize = 0;

/// The paper's `char_index`: every distinct character of the dirty values
/// gets an index starting at 1.
#[derive(Clone, Debug)]
pub struct CharIndex {
    map: HashMap<char, usize>,
}

impl CharIndex {
    /// Build from every `value_x` in the frame. Characters are numbered in
    /// first-occurrence order, which makes the dictionary deterministic
    /// for a given frame.
    pub fn build(frame: &CellFrame) -> Self {
        let mut builder = CharIndexBuilder::new();
        for cell in frame.cells() {
            builder.observe(&cell.value_x);
        }
        builder.finish()
    }

    /// Export the dictionary as `(char, index)` pairs sorted by index —
    /// the serialization form used by model persistence.
    pub fn entries(&self) -> Vec<(char, usize)> {
        // Lookups stay O(1) on the hot path, and the hash order never
        // survives to the output.
        // etsb: allow(hash-iter-order) -- iterate-then-sort by the unique index.
        let mut v: Vec<(char, usize)> = self.map.iter().map(|(&c, &i)| (c, i)).collect();
        v.sort_by_key(|&(_, i)| i);
        v
    }

    /// Rebuild a dictionary from [`CharIndex::entries`] output.
    ///
    /// # Panics
    /// If indexes are not exactly `1..=n` (a corrupt serialization).
    pub fn from_entries(entries: Vec<(char, usize)>) -> Self {
        let mut map = HashMap::with_capacity(entries.len());
        for (expected, (ch, idx)) in entries.into_iter().enumerate() {
            assert_eq!(
                idx,
                expected + 1,
                "CharIndex::from_entries: non-contiguous index {idx}"
            );
            map.insert(ch, idx);
        }
        Self { map }
    }

    /// Build from an explicit alphabet (for tests and synthetic data).
    pub fn from_alphabet(alphabet: impl IntoIterator<Item = char>) -> Self {
        let mut map = HashMap::new();
        for ch in alphabet {
            let next = map.len() + 1;
            map.entry(ch).or_insert(next);
        }
        Self { map }
    }

    /// Number of distinct characters (excluding the pad slot).
    pub fn n_chars(&self) -> usize {
        self.map.len()
    }

    /// Vocabulary size including the pad/unknown slot at index 0 — the
    /// row count for the embedding table.
    pub fn vocab_size(&self) -> usize {
        self.map.len() + 1
    }

    /// Index of one character (`PAD_INDEX` when unseen).
    pub fn index_of(&self, ch: char) -> usize {
        self.map.get(&ch).copied().unwrap_or(PAD_INDEX)
    }

    /// Encode a value to its index sequence at true length. The empty
    /// string encodes as a single pad token so every sequence has at
    /// least one step (the RNN requires non-empty input, and "emptiness"
    /// itself is a signal the model should see).
    pub fn encode(&self, value: &str) -> Vec<usize> {
        let mut out = Vec::new();
        self.encode_into(value, &mut out);
        out
    }

    /// Allocation-reusing variant of [`Self::encode`]: clears `out` and
    /// fills it with the index sequence (at least one step).
    pub fn encode_into(&self, value: &str, out: &mut Vec<usize>) {
        out.clear();
        if value.is_empty() {
            out.push(PAD_INDEX);
            return;
        }
        out.extend(value.chars().map(|ch| self.index_of(ch)));
    }

    /// Encode and right-pad with `PAD_INDEX` to exactly `len` (values
    /// longer than `len` are truncated). Mirrors the paper's fixed-width
    /// trainset matrices; the models in this workspace use [`Self::encode`]
    /// instead and run sequences at true length.
    pub fn encode_padded(&self, value: &str, len: usize) -> Vec<usize> {
        let mut out: Vec<usize> = value
            .chars()
            .take(len)
            .map(|ch| self.index_of(ch))
            .collect();
        out.resize(len, PAD_INDEX);
        out
    }
}

/// Incremental [`CharIndex`] construction for the streaming data path.
///
/// Feeding every *normalized* dirty value to [`CharIndexBuilder::observe`]
/// in row-major order (all attributes of tuple 0, then tuple 1, …)
/// produces a dictionary identical to [`CharIndex::build`] on the fully
/// materialized frame: both number characters in first-occurrence order
/// over the same character stream. `CharIndex::build` is itself
/// implemented on this builder, so the equivalence is structural, not
/// coincidental.
#[derive(Clone, Debug, Default)]
pub struct CharIndexBuilder {
    map: HashMap<char, usize>,
}

impl CharIndexBuilder {
    /// An empty builder (vocabulary of just the pad slot).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record every character of one normalized dirty value.
    pub fn observe(&mut self, value: &str) {
        for ch in value.chars() {
            let next = self.map.len() + 1;
            self.map.entry(ch).or_insert(next);
        }
    }

    /// Number of distinct characters observed so far.
    pub fn n_chars(&self) -> usize {
        self.map.len()
    }

    /// Freeze the builder into an immutable dictionary.
    pub fn finish(self) -> CharIndex {
        CharIndex { map: self.map }
    }
}

/// The paper's `attribute_index`: attribute name → index. Attribute ids
/// feed the ETSB-RNN metadata path.
#[derive(Clone, Debug)]
pub struct AttrIndex {
    names: Vec<String>,
}

impl AttrIndex {
    /// Build from a frame's attribute list.
    pub fn build(frame: &CellFrame) -> Self {
        Self {
            names: frame.attrs().to_vec(),
        }
    }

    /// Build from an explicit name list (model persistence).
    pub fn from_names(names: Vec<String>) -> Self {
        Self { names }
    }

    /// All attribute names in index order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of attributes — the embedding row count for the metadata
    /// path.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when there are no attributes.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Index of an attribute by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Name of the attribute at `idx`.
    pub fn name_of(&self, idx: usize) -> &str {
        &self.names[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Table;

    fn frame() -> CellFrame {
        let mut d = Table::with_columns(&["a", "b"]);
        d.push_row_strs(&["ab", "ba"]);
        d.push_row_strs(&["", "abc"]);
        let mut c = Table::with_columns(&["a", "b"]);
        c.push_row_strs(&["ab", "ba"]);
        c.push_row_strs(&["x", "abc"]);
        CellFrame::merge(&d, &c).unwrap()
    }

    #[test]
    fn build_numbers_chars_from_one() {
        let idx = CharIndex::build(&frame());
        // First-occurrence order: a=1, b=2, c=3.
        assert_eq!(idx.index_of('a'), 1);
        assert_eq!(idx.index_of('b'), 2);
        assert_eq!(idx.index_of('c'), 3);
        assert_eq!(idx.n_chars(), 3);
        assert_eq!(idx.vocab_size(), 4);
    }

    #[test]
    fn unseen_char_maps_to_pad() {
        let idx = CharIndex::build(&frame());
        assert_eq!(idx.index_of('z'), PAD_INDEX);
    }

    #[test]
    fn encode_true_length_and_empty() {
        let idx = CharIndex::build(&frame());
        assert_eq!(idx.encode("ab"), vec![1, 2]);
        assert_eq!(idx.encode(""), vec![PAD_INDEX]);
    }

    #[test]
    fn encode_padded_pads_and_truncates() {
        let idx = CharIndex::build(&frame());
        assert_eq!(idx.encode_padded("ab", 4), vec![1, 2, 0, 0]);
        assert_eq!(idx.encode_padded("abc", 2), vec![1, 2]);
    }

    #[test]
    fn incremental_builder_matches_batch_build() {
        let f = frame();
        let batch = CharIndex::build(&f);
        let mut builder = CharIndexBuilder::new();
        for cell in f.cells() {
            builder.observe(&cell.value_x);
        }
        assert_eq!(builder.n_chars(), batch.n_chars());
        let inc = builder.finish();
        assert_eq!(batch.entries(), inc.entries());
    }

    #[test]
    fn attr_index_round_trip() {
        let a = AttrIndex::build(&frame());
        assert_eq!(a.len(), 2);
        assert_eq!(a.index_of("b"), Some(1));
        assert_eq!(a.name_of(0), "a");
        assert_eq!(a.index_of("zzz"), None);
    }

    #[test]
    fn from_alphabet_matches_paper_example() {
        // §3.1: 'a':1 … 'z':26, so "bazy" → [2, 1, 26, 25].
        let idx = CharIndex::from_alphabet('a'..='z');
        let encoded = idx.encode("bazy");
        assert_eq!(encoded, vec![2, 1, 26, 25]);
        assert_eq!(idx.vocab_size(), 27);
    }
}

#[cfg(test)]
mod persist_tests {
    use super::*;

    #[test]
    fn entries_round_trip() {
        let idx = CharIndex::from_alphabet("hello world".chars());
        let entries = idx.entries();
        let back = CharIndex::from_entries(entries);
        for ch in "hello world".chars() {
            assert_eq!(idx.index_of(ch), back.index_of(ch));
        }
        assert_eq!(idx.vocab_size(), back.vocab_size());
    }

    #[test]
    #[should_panic(expected = "non-contiguous")]
    fn corrupt_entries_rejected() {
        let _ = CharIndex::from_entries(vec![('a', 1), ('b', 3)]);
    }

    #[test]
    fn attr_from_names() {
        let a = AttrIndex::from_names(vec!["x".into(), "y".into()]);
        assert_eq!(a.names(), &["x".to_string(), "y".to_string()]);
        assert_eq!(a.index_of("y"), Some(1));
    }
}
