//! Comment and string-literal stripping.
//!
//! The rule passes match on tokens like `.unwrap()` or `panic!(`; to
//! avoid false positives from prose and test fixtures embedded in
//! strings, they run over a "stripped" view of the source in which
//! comments and literal contents are blanked out (replaced by spaces so
//! line/column numbers survive).

/// Blank out comments, string literals and char literals, preserving the
/// line structure. Handles `//`, `/* ... */` (nested), `"..."` with
/// escapes, raw strings `r"..."` / `r#"..."#`, and char literals —
/// enough for rustfmt-formatted workspace code.
pub fn strip_comments_and_strings(source: &str) -> String {
    #[derive(PartialEq)]
    enum Mode {
        Code,
        LineComment,
        BlockComment(usize),
        Str,
        RawStr(usize),
        Char,
    }
    let mut out = String::with_capacity(source.len());
    let chars: Vec<char> = source.chars().collect();
    let mut mode = Mode::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match mode {
            Mode::Code => match (c, next) {
                ('/', Some('/')) => {
                    mode = Mode::LineComment;
                    out.push_str("  ");
                    i += 2;
                }
                ('/', Some('*')) => {
                    mode = Mode::BlockComment(1);
                    out.push_str("  ");
                    i += 2;
                }
                ('"', _) => {
                    mode = Mode::Str;
                    out.push('"');
                    i += 1;
                }
                ('r', Some('"' | '#')) if !prev_ident(&chars, i) => {
                    // Raw string: count the hashes after `r`.
                    let mut hashes = 0;
                    let mut j = i + 1;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        mode = Mode::RawStr(hashes);
                        for _ in i..=j {
                            out.push(' ');
                        }
                        out.pop();
                        out.push('"');
                        i = j + 1;
                    } else {
                        out.push(c);
                        i += 1;
                    }
                }
                // Char literal vs. lifetime: a lifetime is `'ident`
                // not followed by a closing quote.
                ('\'', _) if is_char_literal(&chars, i) => {
                    mode = Mode::Char;
                    out.push('\'');
                    i += 1;
                }
                _ => {
                    out.push(c);
                    i += 1;
                }
            },
            Mode::LineComment => {
                if c == '\n' {
                    mode = Mode::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                i += 1;
            }
            Mode::BlockComment(depth) => match (c, next) {
                ('*', Some('/')) => {
                    mode = if depth == 1 {
                        Mode::Code
                    } else {
                        Mode::BlockComment(depth - 1)
                    };
                    out.push_str("  ");
                    i += 2;
                }
                ('/', Some('*')) => {
                    mode = Mode::BlockComment(depth + 1);
                    out.push_str("  ");
                    i += 2;
                }
                ('\n', _) => {
                    out.push('\n');
                    i += 1;
                }
                _ => {
                    out.push(' ');
                    i += 1;
                }
            },
            Mode::Str => match (c, next) {
                // A `\` line continuation keeps its newline.
                ('\\', Some(escaped)) => {
                    out.push(' ');
                    out.push(if escaped == '\n' { '\n' } else { ' ' });
                    i += 2;
                }
                ('"', _) => {
                    mode = Mode::Code;
                    out.push('"');
                    i += 1;
                }
                ('\n', _) => {
                    out.push('\n');
                    i += 1;
                }
                _ => {
                    out.push(' ');
                    i += 1;
                }
            },
            Mode::RawStr(hashes) => {
                if c == '"' && (0..hashes).all(|k| chars.get(i + 1 + k) == Some(&'#')) {
                    mode = Mode::Code;
                    out.push('"');
                    for _ in 0..hashes {
                        out.push(' ');
                    }
                    i += 1 + hashes;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            Mode::Char => match (c, next) {
                ('\\', Some(_)) => {
                    out.push_str("  ");
                    i += 2;
                }
                ('\'', _) => {
                    mode = Mode::Code;
                    out.push('\'');
                    i += 1;
                }
                _ => {
                    out.push(' ');
                    i += 1;
                }
            },
        }
    }
    out
}

/// Whether the char before position `i` continues an identifier (so the
/// `r` at `i` is part of a name like `attr`, not a raw-string prefix).
fn prev_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// Heuristic: `'` at `i` starts a char literal (vs. a lifetime) if a
/// closing `'` appears within the next few characters.
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(_) => chars.get(i + 2) == Some(&'\''),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::strip_comments_and_strings;

    #[test]
    fn strips_line_and_block_comments() {
        let s = "let x = 1; // unwrap() here is prose\n/* panic!() */ let y = 2;";
        let out = strip_comments_and_strings(s);
        assert!(!out.contains("unwrap"));
        assert!(!out.contains("panic"));
        assert!(out.contains("let x = 1;"));
        assert!(out.contains("let y = 2;"));
    }

    #[test]
    fn strips_string_contents_but_keeps_quotes() {
        let s = r#"let m = "call .unwrap() now"; m.unwrap();"#;
        let out = strip_comments_and_strings(s);
        assert_eq!(out.matches(".unwrap()").count(), 1);
        assert!(out.contains('"'));
    }

    #[test]
    fn handles_escapes_and_chars_and_lifetimes() {
        let s = r#"let q = '"'; let e = "a\"b.unwrap()"; fn f<'a>(x: &'a str) {}"#;
        let out = strip_comments_and_strings(s);
        assert!(!out.contains(".unwrap()"));
        assert!(out.contains("fn f<'a>(x: &'a str) {}"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let s = r##"let r = r#"panic!("inside")"#; done();"##;
        let out = strip_comments_and_strings(s);
        assert!(!out.contains("panic"));
        assert!(out.contains("done();"));
    }

    #[test]
    fn preserves_line_count() {
        let s = "a\n/* multi\nline\ncomment */\nb\nlet s = \"one \\\n    two\";\nc\n";
        let out = strip_comments_and_strings(s);
        assert_eq!(s.lines().count(), out.lines().count());
    }
}
