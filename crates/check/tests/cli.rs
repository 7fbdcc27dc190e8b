//! The gate itself: `run_checks.sh` trusts the `etsb-check` binary's exit
//! code, so pin it on a throwaway tree — 1 on a finding, 0 once the
//! finding is justified, 2 when nothing was scanned or a rule is unknown.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh temp directory per test (tests run in parallel).
fn temp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("etsb-check-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A one-crate workspace whose `crates/core/src/lib.rs` is `lib`.
fn workspace_with(name: &str, lib: &str) -> PathBuf {
    let root = temp_root(name);
    std::fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").unwrap();
    let src = root.join("crates/core/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(src.join("lib.rs"), lib).unwrap();
    root
}

fn etsb_check(args: &[&std::ffi::OsStr]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_etsb-check"))
        .args(args)
        .output()
        .unwrap()
}

fn run_check(root: &Path) -> Output {
    etsb_check(&["--root".as_ref(), root.as_os_str()])
}

#[test]
fn a_finding_exits_1_and_is_named_on_stderr() {
    let root = workspace_with(
        "finding",
        "/// Sums the values.\n\
         pub fn total(x: &[f32]) -> f32 {\n    x.iter().sum::<f32>()\n}\n",
    );
    let out = run_check(&root);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("crates/core/src/lib.rs:3: [float-reduce-order]"),
        "stderr: {stderr}"
    );
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn a_justified_allow_exits_0() {
    let root = workspace_with(
        "allowed",
        "/// Sums the values.\n\
         pub fn total(x: &[f32]) -> f32 {\n    \
         // etsb: allow(float-reduce-order) -- one sequential pass, order pinned.\n    \
         x.iter().sum::<f32>()\n}\n",
    );
    let out = run_check(&root);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn an_empty_scan_exits_2() {
    let root = temp_root("empty");
    let out = run_check(&root);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("no crate sources found"),
        "stderr: {stderr}"
    );
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn explain_prints_a_kept_rule_and_rejects_a_retired_one() {
    let out = etsb_check(&["--explain".as_ref(), "hash-iter-order".as_ref()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(
        stdout.starts_with("hash-iter-order (critical)"),
        "stdout: {stdout}"
    );
    // Clippy's `unwrap_used`, not a checker rule, holds the no-unwrap
    // contract: asking for it is a usage error that names every rule.
    let out = etsb_check(&["--explain".as_ref(), "no-unwrap".as_ref()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    for rule in [
        "shape-assert",
        "hash-iter-order",
        "float-reduce-order",
        "fast-math-confinement",
        "into-no-alloc",
        "into-shape-assert",
        "unsafe-safety-comment",
    ] {
        assert!(stderr.contains(rule), "{rule} missing from: {stderr}");
    }
}
