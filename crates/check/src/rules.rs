//! The rule passes. Each pass walks the stripped source (comments and
//! string contents blanked — see [`crate::strip`]) so token matches are
//! real code, while allow-annotations are read from the raw source.
//! Body-aware rules (`shape-assert`, `into-no-alloc`,
//! `into-shape-assert`, `hash-iter-order`) reason over the function
//! spans extracted by [`crate::fnmap`].

use crate::fnmap::{function_spans, item_end};
use crate::{Finding, Rule};
use std::collections::HashSet;

/// Per-line sets of rules disabled by
/// `// etsb: allow(<rule>, ...) -- <reason>`. An annotation without a
/// non-empty reason after `--` exempts nothing. An annotation applies to
/// its own line and to the line below it (so a comment-only line can
/// shield the statement that follows).
pub fn collect_allows(source: &str) -> Vec<HashSet<Rule>> {
    let mut allows: Vec<HashSet<Rule>> = vec![HashSet::new(); source.lines().count()];
    for (i, line) in source.lines().enumerate() {
        // The annotation must sit in a `//` comment.
        let Some(comment) = line.find("//").map(|pos| &line[pos..]) else {
            continue;
        };
        let Some(idx) = comment.find("etsb: allow(") else {
            continue;
        };
        let args = &comment[idx + "etsb: allow(".len()..];
        let Some(close) = args.find(')') else {
            continue;
        };
        let justified = args[close + 1..]
            .trim_start()
            .strip_prefix("--")
            .is_some_and(|reason| !reason.trim().is_empty());
        if !justified {
            continue;
        }
        for name in args[..close].split(',') {
            if let Some(rule) = Rule::from_name(name.trim()) {
                allows[i].insert(rule);
            }
        }
    }
    allows
}

/// Whether the finding at `line` (0-based) is shielded by an allow for
/// `rule` on the same or the preceding line.
fn allowed(allows: &[HashSet<Rule>], line: usize, rule: Rule) -> bool {
    allows.get(line).is_some_and(|s| s.contains(&rule))
        || (line > 0 && allows.get(line - 1).is_some_and(|s| s.contains(&rule)))
}

/// Mark lines that belong to `#[cfg(test)]`-gated items or `#[test]`
/// functions: the library-code rules skip them.
pub fn test_code_lines(stripped: &str) -> Vec<bool> {
    let lines: Vec<&str> = stripped.lines().collect();
    let mut in_test = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let t = lines[i].trim_start();
        if t.starts_with("#[cfg(test)]") || t.starts_with("#[test]") {
            let end = item_end(&lines, i);
            for flag in in_test.iter_mut().take(end + 1).skip(i) {
                *flag = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    in_test
}

/// Count non-overlapping occurrences of `token`, requiring that a token
/// that opens with an identifier is not the tail of a longer one (so
/// `my_format!(` does not match `format!(` — the tokens already encode
/// their closing delimiter, this guards the leading edge).
fn count_token(line: &str, token: &str) -> usize {
    let mut n = 0;
    let mut from = 0;
    while let Some(pos) = line[from..].find(token) {
        let abs = from + pos;
        let prev_ok = token.starts_with('.')
            || abs == 0
            || !line[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if prev_ok {
            n += 1;
        }
        from = abs + token.len();
    }
    n
}

/// Rule `shape-assert`: a function that consumes two or more tensor-like
/// operands (`Matrix`, `&[f32]`, `Vec<f32>`, or a `Matrix` receiver)
/// must carry a shape assertion whose message names the function
/// (`"<name>: ..."`), so a mismatch panics with actionable context.
pub fn check_shape_asserts(
    rel: &str,
    source: &str,
    stripped: &str,
    test_lines: &[bool],
    allows: &[HashSet<Rule>],
    findings: &mut Vec<Finding>,
) {
    let raw_lines: Vec<&str> = source.lines().collect();
    for f in function_spans(stripped) {
        let in_matrix_impl = f.impl_self.as_deref() == Some("Matrix");
        let operands = tensor_operands(&f.sig, in_matrix_impl);
        if operands < 2
            || test_lines.get(f.sig_line).copied().unwrap_or(false)
            || allowed(allows, f.sig_line, Rule::ShapeAssert)
        {
            continue;
        }
        let body = raw_lines[f.body_start..=f.body_end.min(raw_lines.len() - 1)].join("\n");
        let names_op = body.contains(&format!("{}:", f.name));
        let has_assert = body.contains("assert");
        // Delegation pattern: the op passes its own name as a string
        // literal to a shared checked kernel (e.g. `zip_with(other,
        // "add", ..)`), which formats it into the assertion message.
        let delegates = body.contains(&format!("\"{}\"", f.name));
        if !((has_assert && names_op) || delegates) {
            findings.push(Finding {
                rule: Rule::ShapeAssert,
                file: rel.to_string(),
                line: f.sig_line + 1,
                snippet: format!(
                    "fn {} takes {} tensor operands but has no shape assertion naming it",
                    f.name, operands
                ),
            });
        }
    }
}

/// Count tensor-like operands in a signature's parameter list.
fn tensor_operands(sig: &str, in_matrix_impl: bool) -> usize {
    let params = match (sig.find('('), sig.rfind(')')) {
        (Some(open), Some(close)) if close > open => &sig[open + 1..close],
        _ => return 0,
    };
    let mut n = 0;
    for param in split_params(params) {
        let p = param.trim();
        if p == "self" || p == "&self" || p == "&mut self" {
            if in_matrix_impl {
                n += 1;
            }
            continue;
        }
        let ty = p.split(':').nth(1).unwrap_or("").trim();
        let base = ty.trim_start_matches('&').trim_start_matches("mut ").trim();
        if base.starts_with("Matrix")
            || base.starts_with("[f32]")
            || base.starts_with("Vec<f32>")
            || base.starts_with("[f32;")
        {
            n += 1;
        }
    }
    n
}

/// Split a parameter list at top-level commas (angle brackets, brackets
/// and parens nest).
fn split_params(params: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0isize;
    let mut start = 0;
    for (k, c) in params.char_indices() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => {
                out.push(&params[start..k]);
                start = k + 1;
            }
            _ => {}
        }
    }
    out.push(&params[start..]);
    out
}

// ---------------------------------------------------------------------
// hash-iter-order
// ---------------------------------------------------------------------

/// Methods that yield a hash container's elements in unspecified order.
const HASH_ITER_METHODS: [&str; 7] = [
    ".iter()",
    ".iter_mut()",
    ".into_iter()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
];

/// Identifiers declared with hash-container types in one file.
#[derive(Debug, Default)]
struct HashIdents {
    /// Declared directly as `HashMap`/`HashSet` (possibly behind `&`):
    /// any element-yielding method call leaks iteration order.
    direct: HashSet<String>,
    /// Declared as a container *of* hash containers (`Vec<HashMap<..>>`):
    /// only indexed access followed by iteration leaks order.
    nested: HashSet<String>,
}

/// Collect identifiers whose declared type (or constructor) names a std
/// hash container: `let m: HashMap<..>`, `let m = HashMap::new()`,
/// struct fields and fn params `m: &mut HashSet<..>`, and nested forms
/// like `counts: Vec<HashMap<..>>`.
fn collect_hash_idents(stripped: &str) -> HashIdents {
    let mut out = HashIdents::default();
    for line in stripped.lines() {
        let t = line.trim_start();
        if t.starts_with("use ") {
            continue;
        }
        for token in ["HashMap", "HashSet"] {
            let mut from = 0;
            while let Some(pos) = line[from..].find(token) {
                let abs = from + pos;
                from = abs + token.len();
                // Token boundaries: not part of a longer identifier, and
                // actually used as a type/constructor (`<`, `::`, `>`,
                // `,`, `)` or end follow it).
                if line[..abs]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
                {
                    continue;
                }
                let after = line[abs + token.len()..].chars().next();
                if after.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                    continue;
                }
                let Some((ident, sep, sep_pos)) = declared_ident(&line[..abs]) else {
                    continue;
                };
                if ident.is_empty() {
                    continue;
                }
                let type_prefix = line[sep_pos + 1..abs].trim();
                let direct = sep == '='
                    || type_prefix
                        .trim_start_matches('&')
                        .trim_start_matches("'static")
                        .trim_start_matches("mut")
                        .trim()
                        .trim_start_matches("std::collections::")
                        .is_empty();
                if direct {
                    out.direct.insert(ident);
                } else {
                    out.nested.insert(ident);
                }
            }
        }
    }
    out
}

/// The identifier being declared left of a hash-type occurrence: walk
/// back from the end of `before` to the nearest `:` (type ascription;
/// `::` paths don't count) or `=` (constructor binding; `==`/`=>`/`<=`
/// etc. don't count), then take the identifier preceding it.
fn declared_ident(before: &str) -> Option<(String, char, usize)> {
    let bytes = before.as_bytes();
    let mut k = bytes.len();
    while k > 0 {
        k -= 1;
        match bytes[k] {
            b':' => {
                let part_of_path =
                    (k > 0 && bytes[k - 1] == b':') || bytes.get(k + 1).copied() == Some(b':');
                if part_of_path {
                    // Skip the whole `::`.
                    if k > 0 && bytes[k - 1] == b':' {
                        k -= 1;
                    }
                    continue;
                }
                let ident = trailing_ident(&before[..k]);
                return Some((ident, ':', k));
            }
            b'=' => {
                let prev = if k > 0 { bytes[k - 1] } else { b' ' };
                let next = bytes.get(k + 1).copied().unwrap_or(b' ');
                if matches!(
                    prev,
                    b'=' | b'!'
                        | b'<'
                        | b'>'
                        | b'+'
                        | b'-'
                        | b'*'
                        | b'/'
                        | b'%'
                        | b'&'
                        | b'|'
                        | b'^'
                ) || matches!(next, b'=' | b'>')
                {
                    continue;
                }
                let ident = trailing_ident(&before[..k]);
                return Some((ident, '=', k));
            }
            _ => {}
        }
    }
    None
}

/// The trailing identifier of `s`, after trimming whitespace and
/// `&`/`mut` qualifiers.
fn trailing_ident(s: &str) -> String {
    let s = s.trim_end();
    let ident: String = s
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    ident
}

/// Byte offset of each line start, for mapping match positions to lines.
fn line_offsets(text: &str) -> Vec<usize> {
    let mut offsets = vec![0usize];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            offsets.push(i + 1);
        }
    }
    offsets
}

/// 0-based line of byte position `pos`.
fn line_of(offsets: &[usize], pos: usize) -> usize {
    match offsets.binary_search(&pos) {
        Ok(i) => i,
        Err(i) => i - 1,
    }
}

/// Rule `hash-iter-order`: iteration over `std` `HashMap`/`HashSet` in
/// result-affecting library code. Hash iteration order is unspecified
/// and differs between runs, so any value it feeds — a majority vote, a
/// float accumulation, an output row order — silently breaks the
/// bitwise-reproducibility contract. Use `BTreeMap`/`BTreeSet`, sort
/// before consuming, or justify with an allow when the consumer is
/// provably order-insensitive (e.g. an integer sum).
pub fn check_hash_iter_order(
    rel: &str,
    source: &str,
    stripped: &str,
    test_lines: &[bool],
    allows: &[HashSet<Rule>],
    findings: &mut Vec<Finding>,
) {
    let idents = collect_hash_idents(stripped);
    if idents.direct.is_empty() && idents.nested.is_empty() {
        return;
    }
    let offsets = line_offsets(stripped);
    let mut hits: Vec<usize> = Vec::new(); // 0-based lines

    for (name, nested) in idents
        .direct
        .iter()
        .map(|n| (n, false))
        .chain(idents.nested.iter().map(|n| (n, true)))
    {
        let mut from = 0;
        while let Some(pos) = stripped[from..].find(name.as_str()) {
            let abs = from + pos;
            from = abs + name.len();
            // Word boundaries around the identifier.
            if stripped[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
            {
                continue;
            }
            let mut rest = &stripped[abs + name.len()..];
            if rest
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
            {
                continue;
            }
            if nested {
                // Require an index expression: `counts[attr].iter()`.
                let Some(r) = skip_index_expr(rest) else {
                    continue;
                };
                rest = r;
            }
            // Allow rustfmt-split method chains: the iterating method may
            // start on the next line.
            let trimmed = rest.trim_start();
            let method_pos = stripped.len() - trimmed.len();
            if HASH_ITER_METHODS.iter().any(|m| trimmed.starts_with(m)) {
                hits.push(line_of(&offsets, method_pos));
                continue;
            }
            // `for x in map {` / `for x in &map {` — iteration without a
            // method call.
            if !nested && is_for_in_target(&stripped[..abs], rest) {
                hits.push(line_of(&offsets, abs));
            }
        }
    }

    hits.sort_unstable();
    hits.dedup();
    for i in hits {
        if test_lines.get(i).copied().unwrap_or(false) || allowed(allows, i, Rule::HashIterOrder) {
            continue;
        }
        findings.push(Finding {
            rule: Rule::HashIterOrder,
            file: rel.to_string(),
            line: i + 1,
            snippet: raw_line(source, i),
        });
    }
}

/// If `rest` opens an index expression `[...]`, return the text after
/// the matching `]`.
fn skip_index_expr(rest: &str) -> Option<&str> {
    if !rest.starts_with('[') {
        return None;
    }
    let mut depth = 0isize;
    for (k, c) in rest.char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[k + 1..]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Whether an identifier occurrence is the target of a `for .. in`
/// loop: preceded by `in` (with optional `&`/`&mut`), followed by a
/// block opener or end of expression.
fn is_for_in_target(before: &str, rest: &str) -> bool {
    let next_ok = matches!(rest.trim_start().chars().next(), Some('{') | None);
    if !next_ok {
        return false;
    }
    let b = before.trim_end();
    let b = b
        .strip_suffix("&mut")
        .map(str::trim_end)
        .or_else(|| b.strip_suffix('&').map(str::trim_end))
        .unwrap_or(b);
    b.ends_with(" in") || b.ends_with("\nin")
}

// ---------------------------------------------------------------------
// float-reduce-order
// ---------------------------------------------------------------------

/// Explicitly floating-point reduction tokens.
const FLOAT_REDUCE_TOKENS: [&str; 5] = [
    ".sum::<f32>()",
    ".sum::<f64>()",
    ".product::<f32>()",
    ".product::<f64>()",
    ".mul_add(",
];

/// Order-insensitive float reductions carved out of the rule: min/max
/// form a lattice, so iteration order cannot change the result (modulo
/// NaN, which the `sanitize` feature traps separately).
const LATTICE_TOKENS: [&str; 4] = ["::max", "::min", ".max(", ".min("];

/// Rule `float-reduce-order`: order-sensitive float reductions outside
/// the blessed kernel modules. Float addition does not associate, so the
/// bitwise-determinism contract requires every result-affecting
/// reduction to run through the pinned ascending-k kernels in
/// `etsb-tensor` — an ad-hoc `.sum::<f32>()` or float `fold` elsewhere
/// is one refactor away from a silently different answer.
pub fn check_float_reduce_order(
    rel: &str,
    source: &str,
    stripped: &str,
    test_lines: &[bool],
    allows: &[HashSet<Rule>],
    findings: &mut Vec<Finding>,
) {
    let lines: Vec<&str> = stripped.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if test_lines.get(i).copied().unwrap_or(false) || allowed(allows, i, Rule::FloatReduceOrder)
        {
            continue;
        }
        let mut hit = false;
        for token in FLOAT_REDUCE_TOKENS {
            if count_token(line, token) > 0 {
                hit = true;
            }
        }
        // `.fold(` with a float-literal or float-constant init is a
        // float reduction; min/max folds are order-insensitive.
        if !hit {
            let mut from = 0;
            while let Some(pos) = line[from..].find(".fold(") {
                let abs = from + pos;
                from = abs + ".fold(".len();
                let arg = line[abs + ".fold(".len()..].trim_start();
                if float_init(arg) {
                    // Check this line and the next for a lattice op.
                    let window = format!("{}\n{}", line, lines.get(i + 1).unwrap_or(&""));
                    if !LATTICE_TOKENS.iter().any(|t| window.contains(t)) {
                        hit = true;
                    }
                }
            }
        }
        if hit {
            findings.push(Finding {
                rule: Rule::FloatReduceOrder,
                file: rel.to_string(),
                line: i + 1,
                snippet: raw_line(source, i),
            });
        }
    }
}

/// Whether a `fold` init expression looks like a float: `0.0`, `-1.5`,
/// `0.0_f32`, `f32::INFINITY`, `f64::MIN`, ...
fn float_init(arg: &str) -> bool {
    let arg = arg.strip_prefix('-').unwrap_or(arg);
    if arg.starts_with("f32::") || arg.starts_with("f64::") {
        return true;
    }
    let digits: usize = arg.chars().take_while(|c| c.is_ascii_digit()).count();
    digits > 0 && arg[digits..].starts_with('.')
}

// ---------------------------------------------------------------------
// fast-math-confinement
// ---------------------------------------------------------------------

/// Fast-math primitives that must stay inside the blessed SIMD kernel
/// directory: fused multiply-add (one rounding where the exact contract
/// requires two), direct architecture intrinsics, and per-function
/// codegen overrides.
const FAST_MATH_TOKENS: [&str; 4] = [".mul_add(", "std::arch", "core::arch", "target_feature("];

/// Rule `fast-math-confinement`: `mul_add`, `std::arch`/`core::arch`
/// intrinsics and `#[target_feature]` are only permitted inside
/// `crates/tensor/src/simd/` (the path gate lives in
/// [`crate::SIMD_BLESSED_PREFIX`]; this pass runs on every other file,
/// test code included — a fused reference value in a test can mask the
/// very divergence the exact path forbids).
pub fn check_fast_math_confinement(
    rel: &str,
    source: &str,
    stripped: &str,
    allows: &[HashSet<Rule>],
    findings: &mut Vec<Finding>,
) {
    for (i, line) in stripped.lines().enumerate() {
        if allowed(allows, i, Rule::FastMathConfinement) {
            continue;
        }
        for token in FAST_MATH_TOKENS {
            for _ in 0..count_token(line, token) {
                findings.push(Finding {
                    rule: Rule::FastMathConfinement,
                    file: rel.to_string(),
                    line: i + 1,
                    snippet: raw_line(source, i),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// into-no-alloc / into-shape-assert
// ---------------------------------------------------------------------

/// Tokens that allocate; forbidden in `_into` kernel bodies. The
/// workspace pattern is `out.resize_zeroed(..)` over pooled buffers —
/// amortized to zero once warm — so anything constructing fresh heap
/// storage inside a kernel defeats the design.
const ALLOC_TOKENS: [&str; 14] = [
    "Vec::new(",
    "Vec::with_capacity(",
    "vec![",
    ".to_vec()",
    ".collect()",
    ".collect::<",
    "Matrix::zeros(",
    "Matrix::new(",
    "Matrix::full(",
    "String::new(",
    "format!(",
    ".to_string()",
    "Box::new(",
    ".clone()",
];

/// Rule `into-no-alloc`: `_into` kernels must not allocate. This is the
/// static twin of the counting-allocator regression test — the runtime
/// test proves the steady state is allocation-free, this rule stops an
/// edit from re-introducing a per-call allocation that the test's warmup
/// might mask.
pub fn check_into_no_alloc(
    rel: &str,
    source: &str,
    stripped: &str,
    test_lines: &[bool],
    allows: &[HashSet<Rule>],
    findings: &mut Vec<Finding>,
) {
    let lines: Vec<&str> = stripped.lines().collect();
    for f in function_spans(stripped) {
        if !f.name.ends_with("_into") || test_lines.get(f.sig_line).copied().unwrap_or(false) {
            continue;
        }
        let end = f.body_end.min(lines.len().saturating_sub(1));
        for (i, line) in lines.iter().enumerate().take(end + 1).skip(f.body_start) {
            if allowed(allows, i, Rule::IntoNoAlloc) {
                continue;
            }
            for token in ALLOC_TOKENS {
                for _ in 0..count_token(line, token) {
                    findings.push(Finding {
                        rule: Rule::IntoNoAlloc,
                        file: rel.to_string(),
                        line: i + 1,
                        snippet: format!("fn {}: {}", f.name, raw_line(source, i)),
                    });
                }
            }
        }
    }
}

/// How many leading body lines `into-shape-assert` scans for an assert.
const INTO_ASSERT_WINDOW: usize = 10;

/// Rule `into-shape-assert`: every public `_into` kernel must open with
/// a shape assertion. `_into` kernels write through caller-provided
/// buffers; a silent shape mismatch corrupts memory layouts instead of
/// panicking with context, so the precondition must be checked before
/// any arithmetic runs.
pub fn check_into_shape_assert(
    rel: &str,
    stripped: &str,
    test_lines: &[bool],
    allows: &[HashSet<Rule>],
    findings: &mut Vec<Finding>,
) {
    let lines: Vec<&str> = stripped.lines().collect();
    for f in function_spans(stripped) {
        if !f.name.ends_with("_into")
            || !f.is_pub
            || test_lines.get(f.sig_line).copied().unwrap_or(false)
            || allowed(allows, f.sig_line, Rule::IntoShapeAssert)
        {
            continue;
        }
        let end = f
            .body_end
            .min(f.body_start + INTO_ASSERT_WINDOW)
            .min(lines.len().saturating_sub(1));
        let opens_with_assert = (f.body_start..=end).any(|i| lines[i].contains("assert"));
        if !opens_with_assert {
            findings.push(Finding {
                rule: Rule::IntoShapeAssert,
                file: rel.to_string(),
                line: f.sig_line + 1,
                snippet: format!(
                    "pub fn {} writes through caller buffers but opens without a shape assert",
                    f.name
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// unsafe-safety-comment
// ---------------------------------------------------------------------

/// Rule `unsafe-safety-comment`: every `unsafe` block, fn, or impl must
/// be justified by a `// SAFETY:` comment on the same line or directly
/// above it (attributes and blank lines are transparent).
pub fn check_unsafe_safety_comment(
    rel: &str,
    source: &str,
    stripped: &str,
    allows: &[HashSet<Rule>],
    findings: &mut Vec<Finding>,
) {
    let raw_lines: Vec<&str> = source.lines().collect();
    for (i, line) in stripped.lines().enumerate() {
        if allowed(allows, i, Rule::UnsafeSafetyComment) {
            continue;
        }
        let mut from = 0;
        let mut flagged = false;
        while let Some(pos) = line[from..].find("unsafe") {
            let abs = from + pos;
            from = abs + "unsafe".len();
            if flagged {
                break;
            }
            // Word boundaries: `unsafe_code` in a lint attribute is not
            // the keyword.
            if line[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
            {
                continue;
            }
            let after = line[abs + "unsafe".len()..].trim_start();
            if after
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
                && !after.starts_with("fn ")
                && !after.starts_with("impl ")
                && !after.starts_with("impl<")
                && !after.starts_with("trait ")
            {
                continue;
            }
            if !after.starts_with('{')
                && !after.starts_with("fn ")
                && !after.starts_with("impl ")
                && !after.starts_with("impl<")
                && !after.starts_with("trait ")
                && !after.is_empty()
            {
                continue;
            }
            if !has_safety_comment(&raw_lines, i) {
                flagged = true;
                findings.push(Finding {
                    rule: Rule::UnsafeSafetyComment,
                    file: rel.to_string(),
                    line: i + 1,
                    snippet: raw_line(source, i),
                });
            }
        }
    }
}

/// Whether the `unsafe` on raw line `i` is covered by a `SAFETY:`
/// comment: same line, or in the comment block directly above (blank
/// lines and attributes are transparent).
fn has_safety_comment(raw_lines: &[&str], i: usize) -> bool {
    if raw_lines.get(i).is_some_and(|l| l.contains("SAFETY:")) {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = raw_lines[j].trim_start();
        if t.is_empty() || t.starts_with("#[") || t.starts_with("#![") {
            continue;
        }
        if t.starts_with("//") {
            if t.contains("SAFETY:") {
                return true;
            }
            continue;
        }
        return false;
    }
    false
}

/// The raw source line at 0-based index `i`, trimmed for reporting.
fn raw_line(source: &str, i: usize) -> String {
    source.lines().nth(i).unwrap_or("").trim().to_string()
}
