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

/// Code points below this bound index the flat table of [`CharIndex`].
const ASCII_LEN: usize = 128;

/// The paper's `char_index`: every distinct character of the dirty values
/// gets an index starting at 1.
///
/// ASCII characters are looked up in a flat 128-entry table whose unset
/// entries hold [`PAD_INDEX`], so the common lookup is one load with no
/// presence branch; only non-ASCII characters go through a map. Cloning
/// a dictionary whose alphabet is pure ASCII therefore never allocates.
#[derive(Clone, Debug)]
pub struct CharIndex {
    /// Index per ASCII code point; `PAD_INDEX` marks an unseen character.
    ascii: [usize; ASCII_LEN],
    /// Index per non-ASCII character.
    other: HashMap<char, usize>,
    /// Number of distinct characters (the highest index).
    n_chars: usize,
}

impl CharIndex {
    /// A dictionary of just the pad slot.
    fn empty() -> Self {
        Self {
            ascii: [PAD_INDEX; ASCII_LEN],
            other: HashMap::new(),
            n_chars: 0,
        }
    }

    /// The slot holding `ch`'s index (`PAD_INDEX` while unassigned).
    fn slot_mut(&mut self, ch: char) -> &mut usize {
        match self.ascii.get_mut(ch as usize) {
            Some(slot) => slot,
            None => self.other.entry(ch).or_insert(PAD_INDEX),
        }
    }

    /// Give `ch` the next index unless it already has one.
    fn observe_char(&mut self, ch: char) {
        let next = self.n_chars + 1;
        let slot = self.slot_mut(ch);
        if *slot == PAD_INDEX {
            *slot = next;
            self.n_chars = next;
        }
    }

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
        let mut v: Vec<(char, usize)> = (0..ASCII_LEN as u8)
            .map(char::from)
            .map(|ch| (ch, self.ascii[ch as usize]))
            .filter(|&(_, i)| i != PAD_INDEX)
            .collect();
        // Lookups stay O(1) on the hot path, and the hash order never
        // survives to the output.
        // etsb: allow(hash-iter-order) -- iterate-then-sort by the unique index.
        v.extend(self.other.iter().map(|(&c, &i)| (c, i)));
        v.sort_by_key(|&(_, i)| i);
        v
    }

    /// Rebuild a dictionary from [`CharIndex::entries`] output.
    ///
    /// # Panics
    /// If indexes are not exactly `1..=n` (a corrupt serialization).
    pub fn from_entries(entries: Vec<(char, usize)>) -> Self {
        let mut index = Self::empty();
        for (expected, (ch, idx)) in entries.into_iter().enumerate() {
            assert_eq!(
                idx,
                expected + 1,
                "CharIndex::from_entries: non-contiguous index {idx}"
            );
            let slot = index.slot_mut(ch);
            let fresh = *slot == PAD_INDEX;
            *slot = idx;
            index.n_chars += usize::from(fresh);
        }
        index
    }

    /// Build from an explicit alphabet (for tests and synthetic data).
    pub fn from_alphabet(alphabet: impl IntoIterator<Item = char>) -> Self {
        let mut index = Self::empty();
        for ch in alphabet {
            index.observe_char(ch);
        }
        index
    }

    /// Number of distinct characters (excluding the pad slot).
    pub fn n_chars(&self) -> usize {
        self.n_chars
    }

    /// Vocabulary size including the pad/unknown slot at index 0 — the
    /// row count for the embedding table.
    pub fn vocab_size(&self) -> usize {
        self.n_chars + 1
    }

    /// Index of one character (`PAD_INDEX` when unseen).
    pub fn index_of(&self, ch: char) -> usize {
        match self.ascii.get(ch as usize) {
            Some(&idx) => idx,
            None => self.other.get(&ch).copied().unwrap_or(PAD_INDEX),
        }
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
#[derive(Clone, Debug)]
pub struct CharIndexBuilder {
    index: CharIndex,
}

impl Default for CharIndexBuilder {
    fn default() -> Self {
        Self {
            index: CharIndex::empty(),
        }
    }
}

impl CharIndexBuilder {
    /// An empty builder (vocabulary of just the pad slot).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record every character of one normalized dirty value.
    pub fn observe(&mut self, value: &str) {
        for ch in value.chars() {
            self.index.observe_char(ch);
        }
    }

    /// Number of distinct characters observed so far.
    pub fn n_chars(&self) -> usize {
        self.index.n_chars
    }

    /// Freeze the builder into an immutable dictionary.
    pub fn finish(self) -> CharIndex {
        self.index
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
    fn mixed_alphabet_straddles_the_ascii_table() {
        // U+007F is the last table entry and U+0080 the first map entry.
        let idx = CharIndex::from_alphabet(['b', 'é', '\u{7f}', '東', '\u{80}', 'a', 'é']);
        let entries = vec![
            ('b', 1),
            ('é', 2),
            ('\u{7f}', 3),
            ('東', 4),
            ('\u{80}', 5),
            ('a', 6),
        ];
        assert_eq!(idx.entries(), entries);
        assert_eq!(idx.n_chars(), 6);
        assert_eq!(idx.vocab_size(), 7);
        assert_eq!(idx.index_of('\u{7f}'), 3);
        assert_eq!(idx.index_of('\u{80}'), 5);
        // Unseen characters on both sides of the boundary are pads.
        for unseen in ['\0', 'z', '\u{7e}', '\u{81}', 'ü', '\u{10ffff}'] {
            assert_eq!(idx.index_of(unseen), PAD_INDEX, "{unseen:?}");
        }
        assert_eq!(idx.encode("a\u{80}z東"), vec![6, 5, PAD_INDEX, 4]);

        let back = CharIndex::from_entries(idx.entries());
        assert_eq!(back.entries(), entries);
        assert_eq!(back.vocab_size(), idx.vocab_size());
        assert_eq!(back.encode("a\u{80}z東"), idx.encode("a\u{80}z東"));
        let mut builder = CharIndexBuilder::new();
        builder.observe("bé\u{7f}東");
        builder.observe("\u{80}aé");
        assert_eq!(builder.n_chars(), 6);
        assert_eq!(builder.finish().entries(), entries);
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
