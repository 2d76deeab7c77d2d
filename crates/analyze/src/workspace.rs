//! Workspace discovery: find every crate's `src/` tree, map files to
//! logical module paths (`dkindex_core::dk::construct`), and load them as
//! [`SourceFile`]s.
//!
//! Crate directories are the workspace root itself (the root `dkindex`
//! package) and every `crates/*` directory with a `Cargo.toml`. Crate
//! names come from `[package] name`; directory names (underscored) are the
//! fallback so fixture trees need no manifests.

use crate::model::SourceFile;
use std::io;
use std::path::{Path, PathBuf};

/// Load every workspace source file under `root`.
pub fn load_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for crate_dir in crate_dirs(root)? {
        let name = crate_name(&crate_dir);
        let src = crate_dir.join("src");
        if src.is_dir() {
            walk_src(&src, &src, &name, root, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

/// The root package dir (if it has `Cargo.toml` + `src/`) plus each
/// `crates/*` member, sorted for deterministic reports.
fn crate_dirs(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut dirs = Vec::new();
    if root.join("Cargo.toml").is_file() && root.join("src").is_dir() {
        dirs.push(root.to_path_buf());
    }
    let members = root.join("crates");
    if members.is_dir() {
        for entry in std::fs::read_dir(&members)? {
            let path = entry?.path();
            if path.is_dir() && path.join("src").is_dir() {
                dirs.push(path);
            }
        }
    }
    dirs.sort();
    Ok(dirs)
}

/// `[package] name` from the crate's `Cargo.toml`, underscored; directory
/// name when absent (fixture trees).
fn crate_name(crate_dir: &Path) -> String {
    let manifest = crate_dir.join("Cargo.toml");
    if let Ok(text) = std::fs::read_to_string(&manifest) {
        for l in text.lines() {
            let l = l.trim();
            if let Some(rest) = l.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    if let Some(name) = rest.trim().trim_matches('"').split('"').next() {
                        return name.replace('-', "_");
                    }
                }
            }
        }
    }
    crate_dir
        .file_name()
        .map(|n| n.to_string_lossy().replace('-', "_"))
        .unwrap_or_else(|| "unknown_crate".to_string())
}

fn walk_src(
    dir: &Path,
    src_root: &Path,
    crate_name: &str,
    ws_root: &Path,
    out: &mut Vec<SourceFile>,
) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk_src(&path, src_root, crate_name, ws_root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let module = module_path(&path, src_root, crate_name);
            let report_path = path.strip_prefix(ws_root).unwrap_or(&path).to_path_buf();
            let mut file = SourceFile::load(&path, module)?;
            file.path = report_path;
            out.push(file);
        }
    }
    Ok(())
}

/// Map `src/a/b.rs` to `crate::a::b`, `mod.rs` to its directory module,
/// roots to the bare crate name, and `bin/x.rs` to `crate::bin::x`.
fn module_path(path: &Path, src_root: &Path, crate_name: &str) -> String {
    let rel = path.strip_prefix(src_root).unwrap_or(path);
    let mut parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    if let Some(last) = parts.last_mut() {
        *last = last.trim_end_matches(".rs").to_string();
    }
    if parts.last().is_some_and(|l| l == "mod") {
        parts.pop();
    }
    if parts.last().is_some_and(|l| l == "lib" || l == "main") {
        parts.pop();
    }
    let mut module = crate_name.to_string();
    for p in parts {
        module.push_str("::");
        module.push_str(&p);
    }
    module
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_paths() {
        let src = Path::new("/w/crates/core/src");
        let m = |p: &str| module_path(&src.join(p), src, "dkindex_core");
        assert_eq!(m("lib.rs"), "dkindex_core");
        assert_eq!(m("serve.rs"), "dkindex_core::serve");
        assert_eq!(m("dk/mod.rs"), "dkindex_core::dk");
        assert_eq!(m("dk/construct.rs"), "dkindex_core::dk::construct");
        assert_eq!(m("bin/reproduce.rs"), "dkindex_core::bin::reproduce");
    }
}
