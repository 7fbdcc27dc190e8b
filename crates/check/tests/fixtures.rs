//! Fixture corpus for the checker: every rule must fire on its seeded
//! violation file and stay silent on the clean file.
//!
//! The fixture sources live in `fixtures/` (excluded from workspace
//! scans) and are scanned under synthetic library-crate paths so the
//! path-based rule routing applies.

use etsb_check::{check_tree, scan_source, Finding, Rule};

fn scan(fixture: &str, rel: &str) -> Vec<Finding> {
    scan_source(rel, fixture)
}

fn rules_of(findings: &[Finding]) -> Vec<Rule> {
    let mut rules: Vec<Rule> = findings.iter().map(|f| f.rule).collect();
    rules.sort();
    rules.dedup();
    rules
}

#[test]
fn shape_fixture_reports_only_the_unasserted_op() {
    let findings = scan(
        include_str!("../fixtures/shape_violation.rs"),
        "crates/tensor/src/fixture.rs",
    );
    let shapes: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::ShapeAssert)
        .collect();
    assert_eq!(shapes.len(), 1, "findings: {findings:?}");
    assert!(
        shapes[0].snippet.contains("bad_add"),
        "wrong fn: {:?}",
        shapes[0]
    );
}

#[test]
fn clean_fixture_has_zero_false_positives() {
    // Scanned under a path where every rule applies (tensor: shapes +
    // hash + float + fast-math + into + unsafe).
    let findings = scan(
        include_str!("../fixtures/clean.rs"),
        "crates/tensor/src/fixture.rs",
    );
    assert!(findings.is_empty(), "false positives: {findings:?}");
}

#[test]
fn hash_iter_fixture_reports_each_order_leak() {
    let findings = scan(
        include_str!("../fixtures/hash_iter_violation.rs"),
        "crates/raha/src/fixture.rs",
    );
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::HashIterOrder)
        .collect();
    // Direct `.iter()`, a rustfmt-split `.values()` chain, and a
    // `for .. in` loop; the entry-only fn, the annotated sum, and the
    // #[cfg(test)] module stay silent.
    let lines: Vec<usize> = hits.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![8, 14, 24], "findings: {findings:?}");
    assert_eq!(
        findings.len(),
        hits.len(),
        "other rules fired: {findings:?}"
    );
    // Outside the result-affecting crates the rule is out of scope.
    let findings = scan(
        include_str!("../fixtures/hash_iter_violation.rs"),
        "crates/cli/src/fixture.rs",
    );
    assert!(
        findings.iter().all(|f| f.rule != Rule::HashIterOrder),
        "hash-iter-order fired outside the library crates: {findings:?}"
    );
}

#[test]
fn float_reduce_fixture_reports_ad_hoc_reductions() {
    let findings = scan(
        include_str!("../fixtures/float_reduce_violation.rs"),
        "crates/nn/src/fixture.rs",
    );
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::FloatReduceOrder)
        .collect();
    // sum::<f32>, float-init fold, mul_add; the lattice fold, integer
    // fold, and annotated accumulation stay silent.
    assert_eq!(hits.len(), 3, "findings: {findings:?}");
    assert!(hits.iter().any(|f| f.snippet.contains("sum::<f32>")));
    assert!(hits.iter().any(|f| f.snippet.contains("fold(0.0")));
    assert!(hits.iter().any(|f| f.snippet.contains("mul_add")));
    // The mul_add site additionally trips fast-math-confinement (the
    // two rules deliberately overlap on FMA); nothing else fires.
    assert!(
        findings
            .iter()
            .all(|f| f.rule == Rule::FloatReduceOrder || f.rule == Rule::FastMathConfinement),
        "other rules fired: {findings:?}"
    );
    // The same source inside a blessed kernel module is exempt.
    let findings = scan(
        include_str!("../fixtures/float_reduce_violation.rs"),
        "crates/tensor/src/ops.rs",
    );
    assert!(
        findings.iter().all(|f| f.rule != Rule::FloatReduceOrder),
        "float-reduce-order fired in a blessed kernel file: {findings:?}"
    );
}

#[test]
fn fast_math_fixture_reports_each_escaped_primitive() {
    // Scanned under a non-library crate to show the rule's scope is the
    // whole workspace, not just the float-checked crates.
    let findings = scan(
        include_str!("../fixtures/fast_math_violation.rs"),
        "crates/cli/src/fixture.rs",
    );
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::FastMathConfinement)
        .collect();
    // mul_add, std::arch, core::arch, #[target_feature(..)] — one each;
    // the allow-annotated mul_add stays silent.
    assert_eq!(hits.len(), 4, "findings: {findings:?}");
    assert!(hits.iter().any(|f| f.snippet.contains("mul_add")));
    assert!(hits.iter().any(|f| f.snippet.contains("std::arch")));
    assert!(hits.iter().any(|f| f.snippet.contains("core::arch")));
    assert!(hits.iter().any(|f| f.snippet.contains("target_feature")));
    assert_eq!(
        findings.len(),
        hits.len(),
        "other rules fired: {findings:?}"
    );
    // The same source inside the blessed SIMD directory is exempt.
    let findings = scan(
        include_str!("../fixtures/fast_math_violation.rs"),
        "crates/tensor/src/simd/fixture.rs",
    );
    assert!(
        findings.iter().all(|f| f.rule != Rule::FastMathConfinement),
        "fast-math-confinement fired inside the blessed directory: {findings:?}"
    );
}

#[test]
fn into_fixture_reports_alloc_and_missing_assert() {
    let findings = scan(
        include_str!("../fixtures/into_violation.rs"),
        "crates/tensor/src/fixture.rs",
    );
    let allocs: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::IntoNoAlloc)
        .collect();
    // The temp vec and the clone inside bad_axpy_into.
    assert_eq!(allocs.len(), 2, "findings: {findings:?}");
    assert!(allocs.iter().all(|f| f.snippet.contains("bad_axpy_into")));
    let asserts: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::IntoShapeAssert)
        .collect();
    assert_eq!(asserts.len(), 1, "findings: {findings:?}");
    assert!(asserts[0].snippet.contains("bad_scale_into"));
    // The compliant, annotated, private, and #[cfg(test)] kernels are
    // silent, and no other rule fires.
    assert_eq!(findings.len(), 3, "findings: {findings:?}");
}

#[test]
fn unsafe_fixture_reports_unjustified_unsafe() {
    let findings = scan(
        include_str!("../fixtures/unsafe_violation.rs"),
        "crates/tensor/src/fixture.rs",
    );
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::UnsafeSafetyComment)
        .collect();
    // Bare block, unsafe fn, and the uncommented unsafe impl; the
    // SAFETY-commented, same-line, and allow-annotated sites pass.
    let lines: Vec<usize> = hits.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![6, 10, 43], "findings: {findings:?}");
    assert_eq!(
        findings.len(),
        hits.len(),
        "other rules fired: {findings:?}"
    );
}

#[test]
fn every_rule_has_explain_docs_and_round_trips() {
    for rule in Rule::all() {
        let doc = rule.explain();
        assert!(
            doc.starts_with(&format!("{} ({})", rule.name(), rule.severity().name())),
            "explain for {} must open with its name and severity: {doc:?}",
            rule.name()
        );
        assert!(
            doc.contains("Contract:") && doc.contains("Fix:"),
            "explain for {} must state the contract and the fix",
            rule.name()
        );
        assert_eq!(
            Rule::from_name(rule.name()),
            Some(rule),
            "from_name round-trip"
        );
    }
}

#[test]
fn violation_fixtures_fail_check_tree() {
    for (fixture, rel) in [
        (
            include_str!("../fixtures/shape_violation.rs"),
            "crates/tensor/src/f.rs",
        ),
        (
            include_str!("../fixtures/hash_iter_violation.rs"),
            "crates/raha/src/f.rs",
        ),
        (
            include_str!("../fixtures/float_reduce_violation.rs"),
            "crates/nn/src/f.rs",
        ),
        (
            include_str!("../fixtures/fast_math_violation.rs"),
            "crates/cli/src/f.rs",
        ),
        (
            include_str!("../fixtures/into_violation.rs"),
            "crates/tensor/src/f.rs",
        ),
        (
            include_str!("../fixtures/unsafe_violation.rs"),
            "crates/tensor/src/f.rs",
        ),
    ] {
        let sources = vec![(rel.to_string(), fixture.to_string())];
        assert!(
            !check_tree(&sources).is_empty(),
            "fixture {rel} passed unexpectedly"
        );
    }
}

#[test]
fn allow_annotations_are_rule_specific() {
    let sum_under = |annotation: &str| {
        let source = format!(
            "pub fn f(x: &[f32]) -> f32 {{\n    {annotation}\n    x.iter().sum::<f32>()\n}}\n"
        );
        scan(&source, "crates/core/src/f.rs")
            .iter()
            .filter(|f| f.rule == Rule::FloatReduceOrder)
            .count()
    };
    assert_eq!(
        sum_under("// etsb: allow(float-reduce-order) -- pinned sequential order."),
        0
    );
    // The wrong rule, a bare allow and an empty reason all leave the
    // finding standing.
    for annotation in [
        "// etsb: allow(hash-iter-order) -- wrong rule, must not suppress float-reduce-order.",
        "// etsb: allow(float-reduce-order)",
        "// etsb: allow(float-reduce-order) --   ",
    ] {
        assert_eq!(sum_under(annotation), 1, "exempted by {annotation:?}");
    }
}

#[test]
fn rules_only_apply_to_their_crates() {
    let source = "pub fn total(x: &[f32]) -> f32 { x.iter().sum::<f32>() }\n";
    // cli is outside the float-checked crates: nothing fires.
    let findings = scan(source, "crates/cli/src/f.rs");
    assert!(findings.is_empty(), "findings: {findings:?}");
    // In core, float-reduce-order fires.
    let findings = scan(source, "crates/core/src/f.rs");
    assert_eq!(rules_of(&findings), vec![Rule::FloatReduceOrder]);
}
