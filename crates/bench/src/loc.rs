//! Workspace size: physical `.rs` lines, counted by walking the tree.
//!
//! ROADMAP judges deletions by line count, so `bench-smoke` records the
//! figure beside the exact rows a deletion must not move: one row per crate
//! `src/` directory, and one total over everything the root workspace
//! compiles (`crates/`, `src/`, `tests/`, `examples/`) so that moving code
//! out of `src/` into a test file does not read as a cut.

use std::io;
use std::path::Path;

/// Line counts for one workspace checkout.
#[derive(Clone, Debug)]
pub struct LocReport {
    /// `(crate directory name, lines under its src/)`, sorted by name; the
    /// root package's `src/` is listed as `dkindex`.
    pub crates: Vec<(String, u64)>,
    /// Every `.rs` line under `crates/`, `src/`, `tests/` and `examples/`.
    pub total: u64,
}

/// Count the workspace rooted at `root`.
pub fn count_loc(root: &Path) -> io::Result<LocReport> {
    let mut crates = vec![("dkindex".to_string(), rs_lines(&root.join("src"))?)];
    for entry in std::fs::read_dir(root.join("crates"))? {
        let dir = entry?.path();
        let src = dir.join("src");
        if src.is_dir() {
            let name = dir.file_name().unwrap_or_default().to_string_lossy();
            crates.push((name.into_owned(), rs_lines(&src)?));
        }
    }
    crates.sort();
    let mut total = 0;
    for top in ["crates", "src", "tests", "examples"] {
        total += rs_lines(&root.join(top))?;
    }
    Ok(LocReport { crates, total })
}

/// Physical lines of every `.rs` file under `dir` (0 if it does not exist).
fn rs_lines(dir: &Path) -> io::Result<u64> {
    let mut lines = 0;
    if dir.is_dir() {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                lines += rs_lines(&path)?;
            } else if path.extension().is_some_and(|e| e == "rs") {
                lines += std::fs::read_to_string(&path)?.lines().count() as u64;
            }
        }
    }
    Ok(lines)
}

/// Render the `loc` section of `BENCH_eval.json` (no indent before the key,
/// no trailing newline).
pub fn loc_to_json(loc: &LocReport) -> String {
    let rows: Vec<String> = loc
        .crates
        .iter()
        .map(|(name, lines)| format!("\"{name}\": {lines}"))
        .collect();
    format!(
        "\"loc\": {{\n    \"src\": {{ {} }},\n    \"workspace_total\": {}\n  }}",
        rows.join(", "),
        loc.total
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_workspace_by_walking_it() {
        let loc = count_loc(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")).unwrap();
        let src: u64 = loc.crates.iter().map(|(_, lines)| lines).sum();
        assert!(src > 0 && loc.total > src, "tests count too: {loc:?}");
        assert!(loc_to_json(&loc).contains(&format!("\"workspace_total\": {}", loc.total)));
    }
}
