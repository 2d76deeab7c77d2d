//! Source-file model shared by all rules: tokens + comments + module path,
//! `#[cfg(test)]` region detection, and the allow-comment escape hatch.

use crate::lexer::{lex, Comment, Tok, TokKind};
use std::path::{Path, PathBuf};

/// A lexed workspace source file with its logical module path.
pub struct SourceFile {
    /// Path as reported in findings (workspace-relative when possible).
    pub path: PathBuf,
    /// Logical module path, e.g. `dkindex_core::dk::construct`. Crate
    /// names use underscores; `lib.rs`/`main.rs` map to the bare crate
    /// name and `src/bin/x.rs` to `crate::bin::x`.
    pub module: String,
    /// Token stream (comments stripped, see `comments`).
    pub toks: Vec<Tok>,
    /// Comments by source order.
    pub comments: Vec<Comment>,
    /// Token-index ranges lying inside `#[cfg(test)] mod ... { }` blocks.
    pub test_ranges: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lex `src` into a model.
    pub fn parse(path: PathBuf, module: String, src: &str) -> SourceFile {
        let (toks, comments) = lex(src);
        let test_ranges = find_test_ranges(&toks);
        SourceFile {
            path,
            module,
            toks,
            comments,
            test_ranges,
        }
    }

    /// Read and lex the file at `path`.
    pub fn load(path: &Path, module: String) -> std::io::Result<SourceFile> {
        let src = std::fs::read_to_string(path)?;
        Ok(SourceFile::parse(path.to_path_buf(), module, &src))
    }

    /// Is token `i` inside a `#[cfg(test)]` module body?
    pub fn in_test_code(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(lo, hi)| i >= lo && i < hi)
    }

    /// Does a `// analyze: allow(<rule>) — <justification>` comment cover
    /// `line`? The allow may sit on the line itself or anywhere in the
    /// contiguous comment block whose last line is directly above it, so
    /// multi-line justifications read naturally. Returns
    /// `Some(has_justification)` when an allow for the rule is present;
    /// the justification is the non-empty text after the `)`, wrapping
    /// onto the block's following comment lines if need be.
    pub fn allow_on(&self, rule: &str, line: u32) -> Option<bool> {
        let needle = format!("analyze: allow({rule})");
        for (i, c) in self.comments.iter().enumerate() {
            if c.line > line {
                break;
            }
            let Some(pos) = c.text.find(&needle) else { continue };
            // Extend through the contiguous comment block below the allow,
            // accumulating wrapped justification text as we go.
            let mut end = c.line;
            let mut justification = c.text[pos + needle.len()..].to_string();
            for next in &self.comments[i + 1..] {
                if next.line != end + 1 {
                    break;
                }
                end = next.line;
                justification.push(' ');
                justification.push_str(&next.text);
            }
            if end + 1 < line {
                continue;
            }
            let justification = justification.trim_start_matches([' ', '-', '—', ':', '–']).trim();
            return Some(!justification.is_empty());
        }
        None
    }
}

/// Locate `#[cfg(test)] mod name { ... }` bodies as token-index ranges.
fn find_test_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if is_cfg_test_attr(toks, i) {
            // Skip this and any following attributes, then expect `mod X {`.
            let mut j = skip_attr(toks, i);
            while j < toks.len() && toks[j].text == "#" {
                j = skip_attr(toks, j);
            }
            if toks.get(j).is_some_and(|t| t.text == "mod")
                && toks.get(j + 1).is_some_and(|t| t.kind == TokKind::Ident)
                && toks.get(j + 2).is_some_and(|t| t.text == "{")
            {
                let open = j + 2;
                let close = matching_brace(toks, open);
                ranges.push((open, close));
                i = close;
                continue;
            }
        }
        i += 1;
    }
    ranges
}

/// Does `#[cfg(test)]` start at token `i`?
fn is_cfg_test_attr(toks: &[Tok], i: usize) -> bool {
    let texts = ["#", "[", "cfg", "(", "test", ")", "]"];
    texts
        .iter()
        .enumerate()
        .all(|(k, want)| toks.get(i + k).is_some_and(|t| t.text == *want))
}

/// Given `#` at token `i`, return the index past the attribute's `]`.
pub(crate) fn skip_attr(toks: &[Tok], i: usize) -> usize {
    let mut j = i + 1;
    if toks.get(j).map(|t| t.text.as_str()) != Some("[") {
        return i + 1;
    }
    let mut depth = 0usize;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Index just past the brace matching the `{` at `open` (or `toks.len()`).
pub fn matching_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from("x.rs"), "m".into(), src)
    }

    #[test]
    fn cfg_test_mod_bodies_are_excluded() {
        let f = file(
            "fn live() { a.unwrap(); }\n\
             #[cfg(test)]\nmod tests {\n fn t() { b.unwrap(); }\n}\n\
             fn live2() {}\n",
        );
        let unwraps: Vec<usize> = f
            .toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.text == "unwrap")
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!f.in_test_code(unwraps[0]));
        assert!(f.in_test_code(unwraps[1]));
        // Code after the test mod is live again.
        let live2 = f.toks.iter().position(|t| t.text == "live2").unwrap();
        assert!(!f.in_test_code(live2));
    }

    #[test]
    fn allow_comments_require_justification() {
        let f = file(
            "// analyze: allow(guard-discipline) — the mutex is the work queue\n\
             let x = rx.recv();\n\
             // analyze: allow(guard-discipline)\n\
             let y = rx.recv();\n",
        );
        assert_eq!(f.allow_on("guard-discipline", 2), Some(true));
        assert_eq!(f.allow_on("guard-discipline", 4), Some(false));
        assert_eq!(f.allow_on("oracle-purity", 2), None);
    }
}
