//! The gate itself: `run_checks.sh` trusts the `etsb-check` binary's exit
//! code, so pin it on a throwaway tree — 1 on a finding, 0 once the
//! finding is justified, 2 when nothing was scanned.

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

fn run_check(root: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_etsb-check"))
        .arg("--root")
        .arg(root)
        .output()
        .unwrap()
}

#[test]
fn a_finding_exits_1_and_is_named_on_stderr() {
    let root = workspace_with(
        "finding",
        "/// Doubles a present value.\n\
         pub fn double(x: Option<u32>) -> u32 {\n    x.unwrap() * 2\n}\n",
    );
    let out = run_check(&root);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("crates/core/src/lib.rs:3: [no-unwrap]"),
        "stderr: {stderr}"
    );
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn a_justified_allow_exits_0() {
    let root = workspace_with(
        "allowed",
        "/// Doubles a present value.\n\
         pub fn double(x: Option<u32>) -> u32 {\n    \
         // etsb: allow(no-unwrap) -- every caller passes Some.\n    \
         x.unwrap() * 2\n}\n",
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
