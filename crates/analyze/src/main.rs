//! `dkindex-analyze` — run the workspace static-analysis pass.
//!
//! ```text
//! dkindex-analyze [--root DIR] [--quiet]
//! ```
//!
//! Prints findings as `file:line: rule-id: message`, then a per-rule
//! summary (`--quiet` drops the summary). Exits 1 when any unjustified
//! violation exists, 2 on usage or I/O errors.

#![forbid(unsafe_code)]

use dkindex_analyze::rules::count_by_rule;
use dkindex_analyze::RULES;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: dkindex-analyze [--root DIR] [--quiet]";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage("--root needs a value"),
            },
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let root = match root.or_else(discover_root) {
        Some(r) => r,
        None => return usage("no workspace root found; pass --root"),
    };

    let findings = match dkindex_analyze::analyze_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("dkindex-analyze: cannot read workspace at {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        println!("{f}");
    }
    if !quiet {
        let counts = count_by_rule(&findings);
        for rule in RULES {
            println!("  {rule:<24} {}", counts[rule]);
        }
        println!("  {:<24} {}", "total", findings.len());
    }
    if findings.is_empty() {
        if !quiet {
            println!("analysis clean: all contracts hold");
        }
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Walk up from the current directory to the first dir that looks like the
/// workspace root (has `Cargo.toml` and `crates/`).
fn discover_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("dkindex-analyze: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}
