//! Workspace symbol index — the second flow-analysis substrate (the first
//! is [`crate::flow`]).
//!
//! Where [`crate::flow`] models one function at a time, this module
//! aggregates the whole workspace so the cross-artifact rules can answer
//! workspace-shaped questions: which function does this call site resolve
//! to (one level deep, for guard-discipline across helpers), which enum
//! variants / const tables exist in a module (for wire-totality), and which
//! string literals appear where (for metric-coherence). Doc files are read on demand by the rules via
//! [`SymbolIndex::doc`], with one cached load per path.

use crate::flow::{self, FnModel};
use crate::model::SourceFile;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One function definition, addressable workspace-wide by name.
pub struct FnRef {
    /// Index into the file list the index was built from.
    pub file: usize,
    /// Index into that file's [`SymbolIndex::flows`] entry.
    pub idx: usize,
}

/// One `enum` item and its variant names.
pub struct EnumDef {
    /// Module the enum is defined in.
    pub module: String,
    /// Variant names with their 1-based lines, in declaration order.
    pub variants: Vec<(String, u32)>,
}

/// One string literal occurrence.
pub struct StrLit {
    /// Content between the quotes (prefixes/fences stripped).
    pub content: String,
    /// 1-based line.
    pub line: u32,
    /// Token index in the owning file.
    pub tok: usize,
    /// Inside `#[cfg(test)]` code?
    pub in_test: bool,
}

/// The workspace-wide symbol/callgraph index.
pub struct SymbolIndex {
    /// Per-file function models, parallel to the file list.
    pub flows: Vec<Vec<FnModel>>,
    /// fn name → every definition with that name.
    pub fns: BTreeMap<String, Vec<FnRef>>,
    /// enum name → definitions.
    pub enums: BTreeMap<String, Vec<EnumDef>>,
    /// Per-file string-literal tables, parallel to the file list.
    pub strings: Vec<Vec<StrLit>>,
    /// Workspace root (doc files resolve against it).
    root: Option<PathBuf>,
    /// Doc-file cache: root-relative path → content ("" when unreadable).
    docs: RefCell<BTreeMap<String, String>>,
}

impl SymbolIndex {
    /// Build the index over `files`. `root` enables [`Self::doc`] lookups.
    pub fn build(files: &[SourceFile], root: Option<&Path>) -> SymbolIndex {
        let mut flows = Vec::with_capacity(files.len());
        let mut fns: BTreeMap<String, Vec<FnRef>> = BTreeMap::new();
        let mut enums: BTreeMap<String, Vec<EnumDef>> = BTreeMap::new();
        let mut strings = Vec::with_capacity(files.len());
        for (file_idx, file) in files.iter().enumerate() {
            let models = flow::functions(file);
            for (idx, m) in models.iter().enumerate() {
                fns.entry(m.name.clone())
                    .or_default()
                    .push(FnRef { file: file_idx, idx });
            }
            flows.push(models);
            collect_enums(file, &mut enums);
            strings.push(collect_strings(file));
        }
        SymbolIndex {
            flows,
            fns,
            enums,
            strings,
            root: root.map(Path::to_path_buf),
            docs: RefCell::new(BTreeMap::new()),
        }
    }

    /// The function models of file `file_idx`.
    pub fn file_fns(&self, file_idx: usize) -> &[FnModel] {
        &self.flows[file_idx]
    }

    /// The model of the fn named `name` in file `file_idx`, if any.
    pub fn fn_in_file<'a>(&'a self, file_idx: usize, name: &str) -> Option<&'a FnModel> {
        self.flows[file_idx].iter().find(|m| m.name == name)
    }

    /// Content of the doc/test file at `rel` under the workspace root.
    /// `None` when the index has no root or the file does not exist —
    /// callers treat a missing doc as a finding, a missing root as
    /// "nothing to check".
    pub fn doc(&self, rel: &str) -> Option<String> {
        let root = self.root.as_ref()?;
        let mut cache = self.docs.borrow_mut();
        if let Some(content) = cache.get(rel) {
            return if content.is_empty() { None } else { Some(content.clone()) };
        }
        let content = std::fs::read_to_string(root.join(rel)).unwrap_or_default();
        cache.insert(rel.to_string(), content.clone());
        if content.is_empty() { None } else { Some(content) }
    }
}

/// Collect `enum Name { Variant, ... }` items of `file`.
fn collect_enums(file: &SourceFile, enums: &mut BTreeMap<String, Vec<EnumDef>>) {
    let toks = &file.toks;
    let mut i = 0usize;
    while i + 2 < toks.len() {
        if toks[i].text == "enum" && !file.in_test_code(i) {
            let name = &toks[i + 1];
            // Find the `{` (skipping generics), then walk depth-1 idents
            // that start a variant (follow `{`, `,`, or open the body).
            let mut j = i + 2;
            while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
                j += 1;
            }
            if toks.get(j).map(|t| t.text.as_str()) != Some("{") {
                i += 1;
                continue;
            }
            let close = crate::model::matching_brace(toks, j);
            let mut variants = Vec::new();
            let mut depth = 0isize;
            let mut expect_variant = true;
            let mut k = j;
            while k < close.min(toks.len()) {
                match toks[k].text.as_str() {
                    // Variant attributes (`#[...]`) sit between `,` and the
                    // next variant name; skip them whole.
                    "#" if depth == 1 => {
                        k = crate::model::skip_attr(toks, k);
                        continue;
                    }
                    "{" | "(" | "[" => {
                        depth += 1;
                        if depth > 1 {
                            expect_variant = false;
                        }
                    }
                    "}" | ")" | "]" => depth -= 1,
                    "," if depth == 1 => expect_variant = true,
                    text if depth == 1
                        && expect_variant
                        && toks[k].kind == crate::lexer::TokKind::Ident =>
                    {
                        variants.push((text.to_string(), toks[k].line));
                        expect_variant = false;
                    }
                    _ => {}
                }
                k += 1;
            }
            enums.entry(name.text.clone()).or_default().push(EnumDef {
                module: file.module.clone(),
                variants,
            });
            i = close;
            continue;
        }
        i += 1;
    }
}

/// Collect the string literals of `file`.
fn collect_strings(file: &SourceFile) -> Vec<StrLit> {
    file.toks
        .iter()
        .enumerate()
        .filter_map(|(tok, t)| {
            t.str_content().map(|content| StrLit {
                content: content.to_string(),
                line: t.line,
                tok,
                in_test: file.in_test_code(tok),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn index(src: &str) -> (SymbolIndex, Vec<SourceFile>) {
        let files = vec![SourceFile::parse(PathBuf::from("x.rs"), "m".into(), src)];
        (SymbolIndex::build(&files, None), files)
    }

    #[test]
    fn fns_enums_and_strings_are_indexed() {
        let (idx, _) = index(
            "pub enum Frame { Hello { v: u16 }, Ping, Error(u8) }\n\
             fn encode(f: &Frame) -> Vec<u8> { tag(\"serve.queries\") }\n\
             fn tag(n: &str) -> Vec<u8> { Vec::new() }\n",
        );
        let frame = &idx.enums["Frame"][0];
        let names: Vec<&str> = frame.variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["Hello", "Ping", "Error"]);
        assert_eq!(idx.fns["encode"].len(), 1);
        assert_eq!(idx.fns["tag"].len(), 1);
        assert!(idx.fn_in_file(0, "encode").is_some());
        assert_eq!(idx.strings[0].len(), 1);
        assert_eq!(idx.strings[0][0].content, "serve.queries");
        assert!(!idx.strings[0][0].in_test);
    }

    #[test]
    fn enum_payload_fields_are_not_variants() {
        let (idx, _) = index("enum E { A { long_field: u8, other: u16 }, B(Vec<u8>), C }");
        let names: Vec<&str> = idx.enums["E"][0].variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["A", "B", "C"]);
    }
}
