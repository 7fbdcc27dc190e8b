//! `etsb-check`: a std-only, source-level static-analysis pass
//! over the workspace — an *invariant auditor* for the contracts that
//! keep the paper's 10-repetition evaluation protocol reproducible and
//! the bitwise-determinism guarantee intact, and that no compiler lint
//! can express.
//!
//! Contracts a lint can state are the compiler's: the library crates'
//! panic, stdio, whole-file-read and host-`tanh` floor is a clippy
//! `cfg_attr(not(test), warn(...))` in each crate root plus the root
//! `clippy.toml`, and documentation is `#![warn(missing_docs)]`
//! (DESIGN.md §8.1).
//!
//! Every finding fails the check. A justified
//! `// etsb: allow(<rule>) -- <reason>` on the offending line (or the
//! line above it) is the only exemption, and each rule has an
//! `--explain <rule>` doc entry.
//!
//! Enforced rules:
//!
//! * **`shape-assert`** — every two-operand tensor/NN op in
//!   `crates/tensor` and `crates/nn` must carry a shape assertion whose
//!   message names the op (`"op_name: ..."` convention), so mismatches
//!   panic with actionable context.
//! * **`hash-iter-order`** — no iteration over `std`
//!   `HashMap`/`HashSet` in result-affecting library code; hash order is
//!   unspecified per process, so it must never reach losses,
//!   predictions, manifests or CSV output.
//! * **`float-reduce-order`** — no order-sensitive float reductions
//!   (`.sum::<f32>()`, float `fold`s, `mul_add`) outside the blessed
//!   kernels in `etsb-tensor`; the bitwise contract pins reduction
//!   order in exactly one place.
//! * **`fast-math-confinement`** — `mul_add`, `std::arch`/`core::arch`
//!   intrinsics and `#[target_feature]` only inside the
//!   `crates/tensor/src/simd/` kernel set; fused-multiply-add rounding
//!   must never leak into the exact bitwise paths.
//! * **`into-no-alloc`** — `_into` kernel bodies must not allocate
//!   (static twin of the counting-allocator regression test).
//! * **`into-shape-assert`** — public `_into` kernels must open with a
//!   shape assertion before writing through caller-provided buffers.
//! * **`unsafe-safety-comment`** — every `unsafe` block, fn or impl
//!   needs a `// SAFETY:` justification (clippy's
//!   `undocumented_unsafe_blocks` skips `unsafe fn`).
//!
//! The analysis is line-oriented over comment- and string-stripped
//! source, with a lightweight function-span layer ([`fnmap`]) for the
//! body-aware rules. It is intentionally heuristic — precise enough for
//! this workspace's house style (enforced by `rustfmt`), simple enough
//! to audit by reading one file per concern.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod fnmap;
mod rules;
mod strip;

pub use strip::strip_comments_and_strings;

/// Crates whose two-operand numeric ops must carry shape assertions.
pub const SHAPE_CHECKED_CRATES: [&str; 2] = ["tensor", "nn"];

/// Crates in which hash-container iteration is forbidden
/// (`hash-iter-order`) — the library crates, everything whose output can
/// reach losses, predictions, manifests or CSV rows.
pub const HASH_CHECKED_CRATES: [&str; 8] = [
    "tensor", "nn", "table", "datasets", "raha", "core", "repair", "serve",
];

/// Crates whose float reductions must run through the blessed kernels
/// (`float-reduce-order`).
pub const FLOAT_CHECKED_CRATES: [&str; 3] = ["tensor", "nn", "core"];

/// The blessed kernel modules: the only files allowed to spell out raw
/// float reductions, because they are where the ascending-k order is
/// pinned and tested.
pub const FLOAT_BLESSED_FILES: [&str; 2] =
    ["crates/tensor/src/matrix.rs", "crates/tensor/src/ops.rs"];

/// The opt-in FastMath kernel set: the only directory allowed to use
/// `mul_add`, `std::arch`/`core::arch` intrinsics and
/// `#[target_feature]` (`fast-math-confinement`), and — like
/// [`FLOAT_BLESSED_FILES`] — exempt from `float-reduce-order`, because
/// its reduction orders are pinned and equivalence-tested there.
pub const SIMD_BLESSED_PREFIX: &str = "crates/tensor/src/simd/";

/// Crates whose `_into` kernels are audited (`into-no-alloc`,
/// `into-shape-assert`).
pub const INTO_CHECKED_CRATES: [&str; 2] = SHAPE_CHECKED_CRATES;

/// How serious a rule violation is. Severity does not change gating —
/// every violation fails the check — it is reporting metadata for the
/// error lines and the `--explain` docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Violates the reproduction's load-bearing contract, bitwise
    /// reproducibility: results can silently differ between runs.
    Critical,
    /// Violates a robustness or kernel contract: panics without context,
    /// hidden allocation, unjustified `unsafe`.
    High,
}

impl Severity {
    /// Lower-case name shown on error lines and by `--explain`.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Critical => "critical",
            Severity::High => "high",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One invariant enforced by the checker.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Two-operand tensor/NN op without an op-naming shape assertion.
    ShapeAssert,
    /// Iteration over a std hash container in result-affecting code.
    HashIterOrder,
    /// Order-sensitive float reduction outside the blessed kernels.
    FloatReduceOrder,
    /// Fast-math primitive (`mul_add`, arch intrinsics,
    /// `#[target_feature]`) outside `crates/tensor/src/simd/`.
    FastMathConfinement,
    /// Allocation inside an `_into` kernel body.
    IntoNoAlloc,
    /// Public `_into` kernel without an opening shape assertion.
    IntoShapeAssert,
    /// `unsafe` without a `// SAFETY:` justification.
    UnsafeSafetyComment,
}

impl Rule {
    /// The rule's name as written in `// etsb: allow(<name>)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::ShapeAssert => "shape-assert",
            Rule::HashIterOrder => "hash-iter-order",
            Rule::FloatReduceOrder => "float-reduce-order",
            Rule::FastMathConfinement => "fast-math-confinement",
            Rule::IntoNoAlloc => "into-no-alloc",
            Rule::IntoShapeAssert => "into-shape-assert",
            Rule::UnsafeSafetyComment => "unsafe-safety-comment",
        }
    }

    /// Parse a rule name; used by the allow-annotation parser.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::all().into_iter().find(|r| r.name() == name)
    }

    /// All rules, in the order `--help` lists them.
    pub fn all() -> [Rule; 7] {
        [
            Rule::ShapeAssert,
            Rule::HashIterOrder,
            Rule::FloatReduceOrder,
            Rule::FastMathConfinement,
            Rule::IntoNoAlloc,
            Rule::IntoShapeAssert,
            Rule::UnsafeSafetyComment,
        ]
    }

    /// The rule's severity class.
    pub fn severity(self) -> Severity {
        match self {
            Rule::HashIterOrder | Rule::FloatReduceOrder | Rule::FastMathConfinement => {
                Severity::Critical
            }
            Rule::ShapeAssert
            | Rule::IntoNoAlloc
            | Rule::IntoShapeAssert
            | Rule::UnsafeSafetyComment => Severity::High,
        }
    }

    /// Long-form documentation shown by `--explain <rule>`: the contract
    /// the rule guards, the runtime test it twins, how to fix a hit, and
    /// when an allow annotation is legitimate.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::ShapeAssert => {
                "shape-assert (high)\n\
                 Contract: a two-operand tensor/NN op must validate operand shapes\n\
                 and panic with a message naming the op, so a mismatch points at\n\
                 the call site instead of an index-out-of-bounds deep in a kernel.\n\
                 Twin runtime check: the shape-mismatch panic tests in etsb-tensor.\n\
                 Fix: open the op with assert_eq!(.., \"op_name: ..\") or delegate\n\
                 to a shared checked kernel passing the op name as a literal.\n\
                 Allow when: the op provably has no shape precondition (e.g. a\n\
                 reshape into a resizable sink)."
            }
            Rule::HashIterOrder => {
                "hash-iter-order (critical)\n\
                 Contract: batched/parallel/workspace execution stays bitwise\n\
                 identical to the per-sample reference (DESIGN.md section 4.1).\n\
                 std HashMap/HashSet iteration order is unspecified and differs\n\
                 between instances even in one process, so any iteration in\n\
                 result-affecting code can silently reorder a reduction, a\n\
                 majority vote, or an output row.\n\
                 Twin runtime check: the detector double-run determinism test in\n\
                 etsb-raha and the cross-worker determinism suite in etsb-core.\n\
                 Fix: use BTreeMap/BTreeSet, or collect and sort by a unique key\n\
                 before consuming.\n\
                 Allow when: the consumer is provably order-insensitive — an\n\
                 integer/saturating sum, a min/max lattice fold, or an\n\
                 iterate-then-sort-by-unique-key pattern — and the comment says so."
            }
            Rule::FloatReduceOrder => {
                "float-reduce-order (critical)\n\
                 Contract: float addition does not associate, so the bitwise\n\
                 determinism story requires every result-affecting reduction to\n\
                 run through the pinned ascending-k kernels in etsb-tensor\n\
                 (matrix.rs / ops.rs). An ad-hoc .sum::<f32>() or float fold\n\
                 elsewhere is one refactor (chunking, parallelism, SIMD) away\n\
                 from a silently different answer; mul_add contracts rounding\n\
                 differently than mul-then-add and is forbidden outside kernels.\n\
                 Twin runtime check: the batched-vs-per-sample bitwise equality\n\
                 tests and the ETSB_WORKERS determinism suite.\n\
                 Fix: route the reduction through an etsb-tensor kernel, or make\n\
                 the accumulation order explicit and pinned.\n\
                 Allow when: the reduction order is pinned by construction (e.g.\n\
                 a sequential f64 accumulation over an already-ordered Vec) and\n\
                 the comment says so."
            }
            Rule::FastMathConfinement => {
                "fast-math-confinement (critical)\n\
                 Contract: fused multiply-add rounds once where mul-then-add\n\
                 rounds twice, and a #[target_feature] or std::arch/core::arch\n\
                 intrinsic decides which instructions compute a result, so all\n\
                 of them live in crates/tensor/src/simd/ and nowhere else. That\n\
                 directory holds both tiers: the opt-in FastMath kernels\n\
                 (reachable only through KernelPolicy::FastMath, guarded by the\n\
                 epsilon-equivalence suite) and the Exact tier's AVX2 shims,\n\
                 which compile the one exact body with wider registers and\n\
                 must not change a bit. Anywhere else these primitives\n\
                 silently change bits on the exact path.\n\
                 Twin runtime check: for FastMath, the fast-math equivalence\n\
                 suite in etsb-core and the portable-vs-AVX2 identity tests in\n\
                 etsb-tensor; for the Exact tier, the portable-vs-AVX2 bitwise\n\
                 test of every dispatched exact kernel\n\
                 (etsb-tensor/tests/exact_dispatch.rs).\n\
                 Fix: move the kernel into crates/tensor/src/simd/ behind the\n\
                 backend dispatch, or use plain mul-then-add arithmetic.\n\
                 Allow when: the value never reaches a result (e.g. a test's\n\
                 reference tolerance computation) and the comment says so."
            }
            Rule::IntoNoAlloc => {
                "into-no-alloc (high)\n\
                 Contract: _into kernels write into caller-provided buffers and\n\
                 must be allocation-free in steady state — that is the point of\n\
                 the workspace buffer pool.\n\
                 Twin runtime check: the counting-allocator regression test in\n\
                 etsb-nn (alloc_regression.rs), which proves the warmed hot path\n\
                 performs zero allocations.\n\
                 Fix: take scratch space from the Workspace, or resize the\n\
                 caller's buffer with resize_zeroed (amortized to zero).\n\
                 Allow when: the allocation is genuinely one-time setup (e.g.\n\
                 building a static lookup table on first call) and the comment\n\
                 explains the amortization."
            }
            Rule::IntoShapeAssert => {
                "into-shape-assert (high)\n\
                 Contract: a public _into kernel writes through buffers it does\n\
                 not own; a shape mismatch must panic with context before any\n\
                 arithmetic runs, not corrupt a downstream layout.\n\
                 Twin runtime check: the kernel shape-mismatch panic tests in\n\
                 etsb-tensor.\n\
                 Fix: open the body with assert_eq! / assert! on every operand\n\
                 dimension, message naming the kernel.\n\
                 Allow when: the kernel resizes its sink to fit (reshape-style)\n\
                 and therefore has no shape precondition."
            }
            Rule::UnsafeSafetyComment => {
                "unsafe-safety-comment (high)\n\
                 Contract: the workspace denies unsafe_code by default; where a\n\
                 file opts in (allocator shims in tests, future SIMD kernels),\n\
                 every unsafe block/fn/impl carries a // SAFETY: comment stating\n\
                 the invariant that makes it sound.\n\
                 Twin runtime check: none — soundness arguments are exactly the\n\
                 part the compiler and tests cannot see, which is why the\n\
                 comment is mandatory.\n\
                 Fix: write // SAFETY: <why this cannot exhibit UB> directly\n\
                 above (or on) the unsafe line.\n\
                 Allow when: never — if it is sound, the argument can be written\n\
                 down."
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Violated rule.
    pub rule: Rule,
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Trimmed source line (or item name) for the error line.
    pub snippet: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.snippet
        )
    }
}

/// Scan one source file. `rel` is the workspace-relative path (used for
/// crate attribution and error lines).
pub fn scan_source(rel: &str, source: &str) -> Vec<Finding> {
    let ctx = FileContext::classify(rel);
    let stripped = strip_comments_and_strings(source);
    let allows = rules::collect_allows(source);
    let test_lines = rules::test_code_lines(&stripped);
    let mut findings = Vec::new();
    if ctx.check_shapes {
        rules::check_shape_asserts(rel, source, &stripped, &test_lines, &allows, &mut findings);
    }
    if ctx.check_hash {
        rules::check_hash_iter_order(rel, source, &stripped, &test_lines, &allows, &mut findings);
    }
    if ctx.check_float {
        rules::check_float_reduce_order(
            rel,
            source,
            &stripped,
            &test_lines,
            &allows,
            &mut findings,
        );
    }
    if ctx.check_fast_math {
        rules::check_fast_math_confinement(rel, source, &stripped, &allows, &mut findings);
    }
    if ctx.check_into {
        rules::check_into_no_alloc(rel, source, &stripped, &test_lines, &allows, &mut findings);
        rules::check_into_shape_assert(rel, &stripped, &test_lines, &allows, &mut findings);
    }
    if ctx.check_unsafe {
        rules::check_unsafe_safety_comment(rel, source, &stripped, &allows, &mut findings);
    }
    findings
}

/// Which rules apply to a file, derived from its workspace-relative path.
struct FileContext {
    check_shapes: bool,
    check_hash: bool,
    check_float: bool,
    check_fast_math: bool,
    check_into: bool,
    check_unsafe: bool,
}

impl FileContext {
    fn classify(rel: &str) -> FileContext {
        let rel = rel.replace('\\', "/");
        let in_crate_src =
            |krate: &str| rel.starts_with(&format!("crates/{krate}/src/")) && rel.ends_with(".rs");
        // Unsafe-justification and fast-math discipline cover everything
        // that can run in an experiment: library code, binaries,
        // integration tests and examples — an unjustified `unsafe` in a
        // test allocator is exactly where UB likes to hide, and a fused
        // reference value in a test can mask the very divergence the
        // exact path forbids.
        let broad_scope = (rel.starts_with("crates/")
            || rel.starts_with("tests/")
            || rel.starts_with("examples/"))
            && rel.ends_with(".rs");
        FileContext {
            check_shapes: SHAPE_CHECKED_CRATES.iter().any(|c| in_crate_src(c)),
            check_hash: HASH_CHECKED_CRATES.iter().any(|c| in_crate_src(c)),
            check_float: FLOAT_CHECKED_CRATES.iter().any(|c| in_crate_src(c))
                && !FLOAT_BLESSED_FILES.contains(&rel.as_str())
                && !rel.starts_with(SIMD_BLESSED_PREFIX),
            // Fast-math primitives are confined everywhere a float can
            // reach a result, except the blessed SIMD kernel directory.
            check_fast_math: broad_scope && !rel.starts_with(SIMD_BLESSED_PREFIX),
            check_into: INTO_CHECKED_CRATES.iter().any(|c| in_crate_src(c)),
            check_unsafe: broad_scope,
        }
    }
}

/// Recursively collect the workspace `.rs` files subject to checking:
/// everything under `crates/`, `tests/` and `examples/`, excluding
/// `vendor/` (offline dependency stubs), `target/` and the checker's own
/// fixture corpus.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    for top in ["crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" {
                continue;
            }
            collect_rs(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let source = std::fs::read_to_string(&path)?;
            out.push((rel, source));
        }
    }
    Ok(())
}

/// Scan a whole tree. Every finding is a violation.
pub fn check_tree(sources: &[(String, String)]) -> Vec<Finding> {
    sources
        .iter()
        .flat_map(|(rel, source)| scan_source(rel, source))
        .collect()
}

/// Locate the workspace root: walk up from `start` to the first
/// directory holding a `Cargo.toml` with a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
