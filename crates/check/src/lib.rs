//! `etsb-check`: a std-only, source-level static-analysis pass
//! over the workspace — an *invariant auditor* for the contracts that
//! keep the paper's 10-repetition evaluation protocol reproducible, the
//! bitwise-determinism guarantee intact, and the library crates
//! panic-free on malformed input.
//!
//! Every finding fails the check. A justified
//! `// etsb: allow(<rule>) -- <reason>` on the offending line (or the
//! line above it) is the only exemption, and each rule has an
//! `--explain <rule>` doc entry.
//!
//! Enforced rules:
//!
//! * **`no-unwrap`** — no `unwrap()` / `expect()` / `panic!` /
//!   `unreachable!` / `todo!` / `unimplemented!` in the non-test code of
//!   library crates.
//! * **`no-unseeded-rng`** — no `thread_rng()` / `from_entropy()`
//!   anywhere; every generator must derive from
//!   `SeedableRng::seed_from_u64`.
//! * **`shape-assert`** — every two-operand tensor/NN op in
//!   `crates/tensor` and `crates/nn` must carry a shape assertion whose
//!   message names the op (`"op_name: ..."` convention), so mismatches
//!   panic with actionable context.
//! * **`doc-pub`** — public items in `etsb-core` and `etsb-tensor` must
//!   have doc comments.
//! * **`no-print`** — no `println!` / `eprintln!` / `print!` /
//!   `eprint!` in the non-test code of library crates: libraries report
//!   through return values and the `etsb-obs` tracing layer, never by
//!   writing to the process's stdio directly.
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
//! * **`libm-tanh`** — no `.tanh(` in the non-test code of library
//!   crates outside `crates/tensor/src/simd/`: exact paths call the
//!   in-repo `tanh_exact`, so their bits never depend on the host libm.
//! * **`into-no-alloc`** — `_into` kernel bodies must not allocate
//!   (static twin of the counting-allocator regression test).
//! * **`into-shape-assert`** — public `_into` kernels must open with a
//!   shape assertion before writing through caller-provided buffers.
//! * **`unsafe-safety-comment`** — every `unsafe` block, fn or impl
//!   needs a `// SAFETY:` justification.
//! * **`no-whole-file-read`** — no `read_to_string` / `fs::read` in the
//!   non-test code of library crates or the CLI: the data path streams
//!   through `BufRead` so peak memory stays O(chunk), and a whole-file
//!   read is one large input away from undoing that. Blessed sites
//!   (bounded model checkpoints, validation tools) carry allow
//!   annotations.
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

/// Library crates in which panicking paths are forbidden (`no-unwrap`).
pub const LIBRARY_CRATES: [&str; 8] = [
    "tensor", "nn", "table", "datasets", "raha", "core", "repair", "serve",
];

/// Crates whose two-operand numeric ops must carry shape assertions.
pub const SHAPE_CHECKED_CRATES: [&str; 2] = ["tensor", "nn"];

/// Crates whose public items must be documented.
pub const DOC_CHECKED_CRATES: [&str; 2] = ["core", "tensor"];

/// Crates in which direct stdio output is forbidden (`no-print`) — the
/// library crates. Binaries (`cli`, `bench`, `check`) and the obs sinks
/// (whose job is writing to stderr) stay exempt.
pub const PRINT_CHECKED_CRATES: [&str; 8] = LIBRARY_CRATES;

/// Crates in which hash-container iteration is forbidden
/// (`hash-iter-order`) — everything whose output can reach losses,
/// predictions, manifests or CSV rows.
pub const HASH_CHECKED_CRATES: [&str; 8] = LIBRARY_CRATES;

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
    /// Violates a load-bearing contract of the reproduction — bitwise
    /// reproducibility (results can silently differ between runs) or
    /// O(chunk) streaming memory (one large input away from OOM).
    Critical,
    /// Violates a robustness or kernel contract: panics without context,
    /// hidden allocation, unjustified `unsafe`.
    High,
    /// Violates house style: documentation and stdio discipline.
    Style,
}

impl Severity {
    /// Lower-case name shown on error lines and by `--explain`.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Critical => "critical",
            Severity::High => "high",
            Severity::Style => "style",
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
    /// Panicking call in non-test library-crate code.
    NoUnwrap,
    /// Randomness not derived from an explicit seed.
    NoUnseededRng,
    /// Two-operand tensor/NN op without an op-naming shape assertion.
    ShapeAssert,
    /// Public item without a doc comment.
    DocPub,
    /// Direct stdio output in non-test library-crate code.
    NoPrint,
    /// Iteration over a std hash container in result-affecting code.
    HashIterOrder,
    /// Order-sensitive float reduction outside the blessed kernels.
    FloatReduceOrder,
    /// Fast-math primitive (`mul_add`, arch intrinsics,
    /// `#[target_feature]`) outside `crates/tensor/src/simd/`.
    FastMathConfinement,
    /// Host-libm `tanh` call in non-test library code.
    LibmTanh,
    /// Allocation inside an `_into` kernel body.
    IntoNoAlloc,
    /// Public `_into` kernel without an opening shape assertion.
    IntoShapeAssert,
    /// `unsafe` without a `// SAFETY:` justification.
    UnsafeSafetyComment,
    /// Whole-file read (`read_to_string` / `fs::read`) on the data path.
    NoWholeFileRead,
}

impl Rule {
    /// The rule's name as written in `// etsb: allow(<name>)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoUnwrap => "no-unwrap",
            Rule::NoUnseededRng => "no-unseeded-rng",
            Rule::ShapeAssert => "shape-assert",
            Rule::DocPub => "doc-pub",
            Rule::NoPrint => "no-print",
            Rule::HashIterOrder => "hash-iter-order",
            Rule::FloatReduceOrder => "float-reduce-order",
            Rule::FastMathConfinement => "fast-math-confinement",
            Rule::LibmTanh => "libm-tanh",
            Rule::IntoNoAlloc => "into-no-alloc",
            Rule::IntoShapeAssert => "into-shape-assert",
            Rule::UnsafeSafetyComment => "unsafe-safety-comment",
            Rule::NoWholeFileRead => "no-whole-file-read",
        }
    }

    /// Parse a rule name; used by the allow-annotation parser.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::all().into_iter().find(|r| r.name() == name)
    }

    /// All rules, in the order `--help` lists them.
    pub fn all() -> [Rule; 13] {
        [
            Rule::NoUnwrap,
            Rule::NoUnseededRng,
            Rule::ShapeAssert,
            Rule::DocPub,
            Rule::NoPrint,
            Rule::HashIterOrder,
            Rule::FloatReduceOrder,
            Rule::FastMathConfinement,
            Rule::LibmTanh,
            Rule::IntoNoAlloc,
            Rule::IntoShapeAssert,
            Rule::UnsafeSafetyComment,
            Rule::NoWholeFileRead,
        ]
    }

    /// The rule's severity class.
    pub fn severity(self) -> Severity {
        match self {
            Rule::NoUnseededRng
            | Rule::HashIterOrder
            | Rule::FloatReduceOrder
            | Rule::FastMathConfinement
            | Rule::LibmTanh
            | Rule::NoWholeFileRead => Severity::Critical,
            Rule::NoUnwrap
            | Rule::ShapeAssert
            | Rule::IntoNoAlloc
            | Rule::IntoShapeAssert
            | Rule::UnsafeSafetyComment => Severity::High,
            Rule::DocPub | Rule::NoPrint => Severity::Style,
        }
    }

    /// Long-form documentation shown by `--explain <rule>`: the contract
    /// the rule guards, the runtime test it twins, how to fix a hit, and
    /// when an allow annotation is legitimate.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::NoUnwrap => {
                "no-unwrap (high)\n\
                 Contract: library crates must not panic on malformed input; errors\n\
                 flow through Result so the CLI can report them with context.\n\
                 Twin runtime check: the CSV/Dataset error-path tests in etsb-table\n\
                 and etsb-datasets.\n\
                 Fix: return Result, restructure so the invariant is expressed in\n\
                 the types (let-else, unwrap_or, match), or prove the invariant\n\
                 locally and use an allow annotation with the proof in the comment.\n\
                 Allow when: the panic is unreachable by construction and the\n\
                 comment says why."
            }
            Rule::NoUnseededRng => {
                "no-unseeded-rng (critical)\n\
                 Contract: every random draw derives from an explicit seed, so the\n\
                 paper's 10-repetition protocol is exactly repeatable.\n\
                 Twin runtime check: the determinism suite (same seed => bitwise\n\
                 identical losses and predictions).\n\
                 Fix: plumb a seed and use SeedableRng::seed_from_u64.\n\
                 Allow when: never in this workspace; entropy-seeded RNGs have no\n\
                 legitimate use here."
            }
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
            Rule::DocPub => {
                "doc-pub (style)\n\
                 Contract: the public API of the core and tensor crates is the\n\
                 reproduction's reference surface; every public item carries docs.\n\
                 Twin runtime check: none (documentation is not executable).\n\
                 Fix: write a /// doc comment saying what the item guarantees.\n\
                 Allow when: the item is a trivial re-export shim pending removal."
            }
            Rule::NoPrint => {
                "no-print (style)\n\
                 Contract: library crates never write to the process stdio; all\n\
                 reporting flows through return values and the etsb-obs tracing\n\
                 layer, so the CLI owns the terminal.\n\
                 Twin runtime check: trace_lint validates the structured stream\n\
                 that replaces ad-hoc prints.\n\
                 Fix: return the value, or emit a trace event.\n\
                 Allow when: never in library code; put output in the binaries."
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
            Rule::LibmTanh => {
                "libm-tanh (critical)\n\
                 Contract: Exact outputs are a property of the repo, not of\n\
                 the host. f32::tanh calls the platform libm, whose tanhf\n\
                 differs between glibc, musl and macOS, so every exact path\n\
                 calls etsb_tensor::simd::tanh_exact, the in-repo port of\n\
                 fdlibm's tanhf (bitwise equal to glibc's on every input).\n\
                 Twin runtime check: the golden tanh hash and the AVX2-lanes-\n\
                 vs-scalar-port tests in etsb-tensor/tests/exact_dispatch.rs,\n\
                 and the golden exact-training hash in tests/determinism.rs.\n\
                 Fix: call tanh_exact on the slice (or Activation::apply_inplace).\n\
                 Allow when: the value never reaches a result and the comment\n\
                 says so. Test code may compare against f32::tanh freely, and\n\
                 crates/tensor/src/simd/ hosts the port itself."
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
            Rule::NoWholeFileRead => {
                "no-whole-file-read (critical)\n\
                 Contract: the data path scales to tables larger than memory by\n\
                 streaming through BufRead (DESIGN.md section 16); peak residency\n\
                 is O(chunk_rows x attrs), independent of row count. A\n\
                 read_to_string or fs::read of an input file re-introduces an\n\
                 O(file) allocation that silently undoes that bound the day a\n\
                 table outgrows RAM.\n\
                 Twin runtime check: the tests/streaming_alloc.rs peak\n\
                 assertion (peak resident bytes identical across row counts)\n\
                 and the streaming-vs-in-memory equality suite.\n\
                 Fix: open a BufReader and parse incrementally (CsvReader /\n\
                 read_table), or stream through a RowSource.\n\
                 Allow when: the file is bounded by construction — a model\n\
                 checkpoint, a config, a validation tool's report — and the\n\
                 comment says so."
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
    let test_lines = rules::test_code_lines(source, &stripped);
    let mut findings = Vec::new();
    if ctx.check_unwrap {
        rules::check_no_unwrap(rel, source, &stripped, &test_lines, &allows, &mut findings);
    }
    if ctx.check_rng {
        rules::check_no_unseeded_rng(rel, source, &stripped, &allows, &mut findings);
    }
    if ctx.check_shapes {
        rules::check_shape_asserts(rel, source, &stripped, &test_lines, &allows, &mut findings);
    }
    if ctx.check_docs {
        rules::check_doc_pub(rel, source, &stripped, &test_lines, &allows, &mut findings);
    }
    if ctx.check_print {
        rules::check_no_print(rel, source, &stripped, &test_lines, &allows, &mut findings);
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
    if ctx.check_libm_tanh {
        rules::check_libm_tanh(rel, source, &stripped, &test_lines, &allows, &mut findings);
    }
    if ctx.check_into {
        rules::check_into_no_alloc(rel, source, &stripped, &test_lines, &allows, &mut findings);
        rules::check_into_shape_assert(rel, source, &stripped, &test_lines, &allows, &mut findings);
    }
    if ctx.check_unsafe {
        rules::check_unsafe_safety_comment(rel, source, &stripped, &allows, &mut findings);
    }
    if ctx.check_whole_read {
        rules::check_no_whole_file_read(
            rel,
            source,
            &stripped,
            &test_lines,
            &allows,
            &mut findings,
        );
    }
    findings
}

/// Which rules apply to a file, derived from its workspace-relative path.
struct FileContext {
    check_unwrap: bool,
    check_rng: bool,
    check_shapes: bool,
    check_docs: bool,
    check_print: bool,
    check_hash: bool,
    check_float: bool,
    check_fast_math: bool,
    check_libm_tanh: bool,
    check_into: bool,
    check_unsafe: bool,
    check_whole_read: bool,
}

impl FileContext {
    fn classify(rel: &str) -> FileContext {
        let rel = rel.replace('\\', "/");
        let in_crate_src =
            |krate: &str| rel.starts_with(&format!("crates/{krate}/src/")) && rel.ends_with(".rs");
        let lib_src = LIBRARY_CRATES.iter().any(|c| in_crate_src(c));
        // Seeded-randomness and unsafe-justification discipline cover
        // everything that can run in an experiment: library code,
        // binaries, integration tests and examples — a stray
        // `thread_rng()` in a test breaks the 10-repetition protocol just
        // as surely as one in `train.rs`, and an unjustified `unsafe` in
        // a test allocator is exactly where UB likes to hide.
        let broad_scope =
            rel.starts_with("crates/") || rel.starts_with("tests/") || rel.starts_with("examples/");
        FileContext {
            check_unwrap: lib_src,
            check_rng: broad_scope && rel.ends_with(".rs"),
            check_shapes: SHAPE_CHECKED_CRATES.iter().any(|c| in_crate_src(c)),
            check_docs: DOC_CHECKED_CRATES.iter().any(|c| in_crate_src(c)),
            check_print: PRINT_CHECKED_CRATES.iter().any(|c| in_crate_src(c)),
            check_hash: HASH_CHECKED_CRATES.iter().any(|c| in_crate_src(c)),
            check_float: FLOAT_CHECKED_CRATES.iter().any(|c| in_crate_src(c))
                && !FLOAT_BLESSED_FILES.contains(&rel.as_str())
                && !rel.starts_with(SIMD_BLESSED_PREFIX),
            // Fast-math primitives are confined everywhere a float can
            // reach a result — library code, binaries, tests — except
            // the blessed SIMD kernel directory itself.
            check_fast_math: broad_scope
                && rel.ends_with(".rs")
                && !rel.starts_with(SIMD_BLESSED_PREFIX),
            // Library code only: tests compare against the libm, and the
            // SIMD directory hosts the in-repo port.
            check_libm_tanh: lib_src && !rel.starts_with(SIMD_BLESSED_PREFIX),
            check_into: INTO_CHECKED_CRATES.iter().any(|c| in_crate_src(c)),
            check_unsafe: broad_scope && rel.ends_with(".rs"),
            // Whole-file reads are confined wherever the data path runs:
            // library crates and the CLI. Dev tooling (check, bench,
            // obs lint bins) reads its own bounded reports and stays
            // out of scope.
            check_whole_read: lib_src || in_crate_src("cli"),
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
