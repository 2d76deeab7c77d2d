//! The exit-code contract, both ways: every code `CliError::exit_code` can
//! produce (plus 0, success) has a row in the docs/OPERATIONS.md table, and
//! every row is a code the CLI still produces.

use std::collections::BTreeSet;

const COMMANDS: &str = include_str!("../src/commands/mod.rs");
const OPERATIONS: &str = include_str!("../../../docs/OPERATIONS.md");

/// The body of `fn exit_code(` in `src`, braces matched.
fn exit_code_body(src: &str) -> &str {
    let (_, rest) = src
        .split_once("fn exit_code(")
        .expect("CliError::exit_code exists");
    let open = rest.find('{').expect("exit_code has a body");
    let mut depth = 0;
    for (at, c) in rest[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' if depth == 1 => return &rest[open..open + at],
            '}' => depth -= 1,
            _ => {}
        }
    }
    panic!("exit_code's body is unterminated")
}

/// 0 plus every integer literal `exit_code` returns.
fn codes_in_source(src: &str) -> BTreeSet<u32> {
    let body = exit_code_body(src);
    let words = body.split(|c: char| !c.is_alphanumeric() && c != '_');
    std::iter::once(0)
        .chain(words.filter_map(|w| w.parse().ok()))
        .collect()
}

/// The numeric first cells of the document's table rows.
fn codes_in_doc(doc: &str) -> BTreeSet<u32> {
    doc.lines()
        .filter_map(|line| {
            line.trim()
                .strip_prefix('|')?
                .split('|')
                .next()?
                .trim()
                .parse()
                .ok()
        })
        .collect()
}

/// Codes the source produces that the table lacks, and rows the source no
/// longer produces.
fn drift(src: &str, doc: &str) -> (Vec<u32>, Vec<u32>) {
    let (code, doc) = (codes_in_source(src), codes_in_doc(doc));
    (
        code.difference(&doc).copied().collect(),
        doc.difference(&code).copied().collect(),
    )
}

#[test]
fn every_exit_code_is_documented_and_every_documented_code_exists() {
    assert!(
        codes_in_source(COMMANDS).len() > 1,
        "exit_code's literals were found"
    );
    let (undocumented, stale) = drift(COMMANDS, OPERATIONS);
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "codes with no OPERATIONS.md row: {undocumented:?}; rows the CLI no longer \
         produces: {stale:?}"
    );
}

#[test]
fn drift_either_way_is_seen() {
    let src = "impl E {\n    pub fn exit_code(&self) -> u8 {\n        match self {\n            \
               E::Usage(_) => 2,\n            E::Io { .. } => 3,\n        }\n    }\n}\n";
    assert_eq!(codes_in_source(src), BTreeSet::from([0, 2, 3]));
    // A code the table lacks (3), and a row the code no longer produces (9).
    let doc = "| code | meaning |\n|---|---|\n| 0 | success |\n| 2 | usage |\n| 9 | gone |\n";
    assert_eq!(drift(src, doc), (vec![3], vec![9]));
    let doc = "| 0 | success |\n| 2 | usage |\n| 3 | I/O |\n";
    assert_eq!(drift(src, doc), (vec![], vec![]));
}
