//! CLI for the workspace invariant auditor.
//!
//! ```text
//! cargo run -p etsb-check                   # check the enclosing workspace
//! cargo run -p etsb-check -- --root DIR
//! cargo run -p etsb-check -- --explain hash-iter-order
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

use etsb_check::{check_tree, find_workspace_root, Rule};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: Option<PathBuf>,
    explain: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        explain: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = Some(PathBuf::from(
                    it.next().ok_or("--root requires a directory argument")?,
                ));
            }
            "--explain" => {
                args.explain = Some(it.next().ok_or("--explain requires a rule name")?);
            }
            "--help" | "-h" => {
                println!(
                    "etsb-check: workspace invariant auditor\n\n\
                     USAGE: etsb-check [--root DIR]\n       \
                     etsb-check --explain RULE     print a rule's contract, its \
                     twin runtime test, and the fix guidance\n\n\
                     Every finding fails the check; a justified \
                     `// etsb: allow(<rule>) -- <reason>` on the offending line \
                     is the only exemption.\n\n\
                     RULES: {}",
                    Rule::all()
                        .iter()
                        .map(|r| r.name())
                        .collect::<Vec<_>>()
                        .join(", "),
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("etsb-check: {e}");
            return ExitCode::from(2);
        }
    };

    // Doc lookup needs no workspace scan.
    if let Some(name) = &args.explain {
        match Rule::from_name(name) {
            Some(rule) => {
                println!("{}", rule.explain());
                return ExitCode::SUCCESS;
            }
            None => {
                eprintln!(
                    "etsb-check: unknown rule `{name}`; known rules: {}",
                    Rule::all()
                        .iter()
                        .map(|r| r.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                return ExitCode::from(2);
            }
        }
    }

    let root = match args.root.clone().or_else(|| {
        find_workspace_root(&std::env::current_dir().unwrap_or_else(|_| PathBuf::from(".")))
    }) {
        Some(r) => r,
        None => {
            eprintln!(
                "etsb-check: could not locate a workspace root (no Cargo.toml with [workspace])"
            );
            return ExitCode::from(2);
        }
    };

    let sources = match etsb_check::workspace_sources(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("etsb-check: scanning {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    // A wrong --root (typo, CI misconfiguration) must not masquerade as a
    // clean run: an empty scan means nothing was checked.
    if sources.is_empty() {
        eprintln!(
            "etsb-check: no crate sources found under {} — wrong --root?",
            root.display()
        );
        return ExitCode::from(2);
    }

    let violations = check_tree(&sources);
    if !violations.is_empty() {
        for f in &violations {
            eprintln!("error: [{}] {f}", f.rule.severity());
        }
        eprintln!(
            "\netsb-check: {} violation(s) across {} rule(s); see above, or \
             `etsb-check --explain <rule>` for the contract behind each. \
             Fix the site, or justify it with \
             `// etsb: allow(<rule>) -- <reason>` on the offending line.",
            violations.len(),
            {
                let mut rules: Vec<_> = violations.iter().map(|f| f.rule).collect();
                rules.sort();
                rules.dedup();
                rules.len()
            },
        );
        return ExitCode::FAILURE;
    }
    println!("etsb-check: clean ({} files scanned)", sources.len());
    ExitCode::SUCCESS
}
