//! Function-span extraction: the lightweight "body layer" the semantic
//! rules reason over.
//!
//! [`function_spans`] walks stripped source (see the `strip` module) and
//! returns one [`FnSpan`] per function with a body: its name, full
//! signature text, visibility, the enclosing `impl` self-type, and the
//! line span of its body. Rules use the spans to ask questions like
//! "does this `_into` kernel allocate?" or "which identifiers declared
//! in this body have hash-container types?" without a real parser —
//! precise enough for this rustfmt-formatted workspace, simple enough to
//! audit by reading one file.

/// One function with a body, located in stripped source.
#[derive(Clone, Debug)]
pub struct FnSpan {
    /// Function name.
    pub name: String,
    /// Signature text from the `fn` keyword up to the opening `{`
    /// (newlines collapsed to spaces).
    pub sig: String,
    /// Whether the declaration carries any `pub` qualifier
    /// (`pub`, `pub(crate)`, `pub(super)`).
    pub is_pub: bool,
    /// 0-based line of the `fn` keyword.
    pub sig_line: usize,
    /// 0-based line holding the body's opening `{`.
    pub body_start: usize,
    /// 0-based line holding the body's closing `}` (inclusive).
    pub body_end: usize,
    /// Self-type of the enclosing `impl` block, if any
    /// (`impl Matrix` and `impl Trait for Matrix` both yield `Matrix`).
    pub impl_self: Option<String>,
}

/// Parse function signatures and body spans from stripped source.
/// Trait-method declarations without bodies are skipped.
pub fn function_spans(stripped: &str) -> Vec<FnSpan> {
    let lines: Vec<&str> = stripped.lines().collect();
    let mut out = Vec::new();
    let mut impl_stack: Vec<(usize, Option<String>)> = Vec::new(); // (open depth, self-type)
    let mut depth = 0usize;
    let mut i = 0;
    while i < lines.len() {
        let t = lines[i].trim_start();
        if t.starts_with("impl ") || t.starts_with("impl<") {
            impl_stack.push((depth, impl_target(t)));
        }
        if let Some(fn_col) = fn_keyword_pos(t) {
            let name: String = t[fn_col + 3..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            // Collect the signature until its opening `{` (or `;` for a
            // bodiless trait-method declaration).
            let mut sig = String::new();
            let mut j = i;
            let mut body_start = None;
            while j < lines.len() {
                let line = lines[j];
                if let Some(brace) = sig_terminator(line, &sig) {
                    sig.push_str(&line[..brace]);
                    if line.as_bytes().get(brace) == Some(&b'{') {
                        body_start = Some(j);
                    }
                    break;
                }
                sig.push_str(line);
                sig.push(' ');
                j += 1;
            }
            if let Some(start) = body_start {
                let end = item_end(&lines, start);
                out.push(FnSpan {
                    name,
                    is_pub: t.starts_with("pub"),
                    sig,
                    sig_line: i,
                    body_start: start,
                    body_end: end,
                    impl_self: impl_stack.last().and_then(|(_, s)| s.clone()),
                });
                // Functions may contain nested closures but not nested
                // `fn` items in this workspace; advance past the
                // signature only, so inner `impl` blocks still register.
            }
        }
        depth += lines[i].matches('{').count();
        depth = depth.saturating_sub(lines[i].matches('}').count());
        while let Some(&(open_depth, _)) = impl_stack.last() {
            if depth <= open_depth && lines[i].contains('}') {
                impl_stack.pop();
            } else {
                break;
            }
        }
        i += 1;
    }
    out
}

/// Index of the last line of the item starting at (or just after) the
/// attribute on line `start`: scans to the `;` of a bodiless item or the
/// matching `}` of its block.
pub fn item_end(lines: &[&str], start: usize) -> usize {
    let mut depth = 0usize;
    let mut seen_open = false;
    for (j, line) in lines.iter().enumerate().skip(start) {
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    seen_open = true;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if seen_open && depth == 0 {
                        return j;
                    }
                }
                ';' if !seen_open && depth == 0 && j > start => return j,
                _ => {}
            }
        }
        // `#[cfg(test)] use foo;` on a single line.
        if j == start && !seen_open && line.contains(';') {
            return j;
        }
    }
    lines.len().saturating_sub(1)
}

/// Column of the `fn ` keyword on a trimmed line, if the line declares a
/// function (`fn`, `pub fn`, `pub(crate) fn`, `const fn`, `unsafe fn`).
pub fn fn_keyword_pos(t: &str) -> Option<usize> {
    if t.starts_with("fn ") {
        return Some(0);
    }
    for prefix in [
        "pub fn ",
        "pub(crate) fn ",
        "pub(super) fn ",
        "const fn ",
        "pub const fn ",
        "unsafe fn ",
        "pub unsafe fn ",
        "pub(crate) unsafe fn ",
        "pub const unsafe fn ",
    ] {
        if t.starts_with(prefix) {
            return Some(prefix.len() - 3);
        }
    }
    None
}

/// Position in `line` where the signature ends: the opening `{` or a
/// terminating `;`, at paren depth 0 relative to `so_far`.
fn sig_terminator(line: &str, so_far: &str) -> Option<usize> {
    let mut depth = so_far.matches('(').count() as isize - so_far.matches(')').count() as isize;
    for (k, c) in line.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth -= 1,
            '{' | ';' if depth <= 0 => return Some(k),
            _ => {}
        }
    }
    None
}

/// The self-type of an `impl` line: `impl Matrix {` → `Matrix`,
/// `impl Trait for Matrix {` → `Matrix`.
fn impl_target(t: &str) -> Option<String> {
    let mut rest = t.strip_prefix("impl")?;
    if rest.starts_with('<') {
        let mut depth = 0isize;
        let mut after = rest.len();
        for (k, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        after = k + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = &rest[after..];
    }
    let rest = rest.trim_start();
    let rest = match rest.find(" for ") {
        Some(pos) => &rest[pos + 5..],
        None => rest,
    };
    let name: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

#[cfg(test)]
mod tests {
    use super::function_spans;

    #[test]
    fn extracts_names_visibility_and_spans() {
        let src = "\
impl Matrix {
    pub fn add(&self, other: &Matrix) -> Matrix {
        body();
    }

    fn helper(x: usize) -> usize {
        x + 1
    }
}

pub fn free_standing() {
    work();
}
";
        let spans = function_spans(src);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "add");
        assert!(spans[0].is_pub);
        assert_eq!(spans[0].impl_self.as_deref(), Some("Matrix"));
        assert_eq!((spans[0].body_start, spans[0].body_end), (1, 3));
        assert_eq!(spans[1].name, "helper");
        assert!(!spans[1].is_pub);
        assert_eq!(spans[2].name, "free_standing");
        assert!(spans[2].is_pub);
        assert_eq!(spans[2].impl_self, None);
    }

    #[test]
    fn multi_line_signatures_and_trait_declarations() {
        let src = "\
trait T {
    fn declared_only(&self) -> usize;
}
pub fn long_sig(
    a: usize,
    b: usize,
) -> usize {
    a + b
}
";
        let spans = function_spans(src);
        assert_eq!(spans.len(), 1, "bodiless declaration must be skipped");
        assert_eq!(spans[0].name, "long_sig");
        assert!(spans[0].sig.contains("a: usize"));
        assert!(spans[0].sig.contains("b: usize"));
    }
}
