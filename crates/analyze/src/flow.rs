//! Per-function control-flow/scope model — the first of the two
//! flow-analysis substrates (the other is [`crate::symbols`]).
//!
//! guard-discipline asks "what is *live* when this call runs?". This
//! module recovers just enough structure from the token stream to answer
//! that: every `fn` item with its body range, every `let` binding with its
//! initializer range and the brace scope it lives to, and every call site
//! with its callee name. No types, no expressions — brace- and
//! paren-matching over [`crate::lexer::Tok`]s, which is exactly enough for
//! guard liveness and keeps the analyzer dependency-free.

use crate::lexer::{Tok, TokKind};
use crate::model::{matching_brace, SourceFile};

/// Rust keywords, used to tell expression identifiers from syntax.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut",
    "pub", "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while", "yield",
];

/// One `fn` item: signature facts plus the flow facts of its body.
pub struct FnModel {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range of the body: `(open_brace_idx, idx_past_matching_close)`.
    pub body: (usize, usize),
    /// `let` bindings in source order.
    pub lets: Vec<LetBinding>,
    /// Call sites in source order (macros excluded).
    pub calls: Vec<CallSite>,
}

/// One `let` statement inside a function body.
pub struct LetBinding {
    /// Lower-case / `_`-prefixed identifiers bound by the pattern (the
    /// names a later statement could use). Empty for `let _ = ...`.
    pub names: Vec<String>,
    /// Token range of the initializer: `(first_tok, idx_of_terminator)`.
    pub init: (usize, usize),
    /// Index just past the closing brace of the innermost block the
    /// binding lives in — its drop point, absent an explicit `drop`.
    pub scope_end: usize,
}

/// One call site: `callee(...)` or `recv.callee(...)`.
pub struct CallSite {
    /// Callee name (last path segment).
    pub callee: String,
    /// Preceded by `.` — a method call.
    pub is_method: bool,
    /// The argument list is empty (`callee()`): distinguishes
    /// `RwLock::write()` lock acquisition from `io::Write::write(buf)`.
    pub empty_args: bool,
    /// 1-based line of the callee identifier.
    pub line: u32,
    /// Token index of the callee identifier.
    pub tok: usize,
    /// Token index of the opening `(`.
    pub args_open: usize,
}

impl FnModel {
    /// Call sites whose callee token lies in `range` (init ranges, guard
    /// live ranges).
    pub fn calls_in(&self, range: (usize, usize)) -> impl Iterator<Item = &CallSite> {
        self.calls
            .iter()
            .filter(move |c| c.tok >= range.0 && c.tok < range.1)
    }
}

/// Extract every `fn` item of `file` (test code excluded).
pub fn functions(file: &SourceFile) -> Vec<FnModel> {
    let toks = &file.toks;
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text == "fn" && !file.in_test_code(i) {
            if let Some((model, next)) = parse_fn(toks, i) {
                i = next;
                fns.push(model);
                continue;
            }
        }
        i += 1;
    }
    fns
}

/// Parse the `fn` at token `i`; returns the model and the index past its
/// body. `None` for bodyless declarations (trait methods, extern fns).
fn parse_fn(toks: &[Tok], i: usize) -> Option<(FnModel, usize)> {
    let name_tok = toks.get(i + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    // Find the body `{` (or a `;` meaning no body), tracking nesting so a
    // default argument or where-bound cannot fool us.
    let mut j = i + 2;
    let mut depth = 0isize;
    let open = loop {
        let t = toks.get(j)?;
        match t.text.as_str() {
            "(" | "[" | "<" => depth += 1,
            ")" | "]" | ">" => depth -= 1,
            "{" if depth <= 0 => break j,
            ";" if depth <= 0 => return None,
            // `->` lexes as two tokens; consume both so the `>` does not
            // decrement depth (which would surface the `;` of an array
            // return type like `[&'static T; 2]` at depth 0).
            "-" if toks.get(j + 1).is_some_and(|n| n.text == ">") => j += 1,
            _ => {}
        }
        j += 1;
    };
    let close = matching_brace(toks, open);
    let (lets, calls) = body_facts(toks, open, close);
    Some((
        FnModel {
            name: name_tok.text.clone(),
            line: toks[i].line,
            body: (open, close),
            lets,
            calls,
        },
        close,
    ))
}

/// Collect the `let` bindings and call sites of a body range.
fn body_facts(toks: &[Tok], open: usize, close: usize) -> (Vec<LetBinding>, Vec<CallSite>) {
    let mut lets = Vec::new();
    let mut calls = Vec::new();
    // Stack of open-brace indices: the innermost enclosing block of any
    // point is the top of the stack.
    let mut braces: Vec<usize> = Vec::new();
    let mut i = open;
    while i < close {
        match toks[i].text.as_str() {
            "{" => braces.push(i),
            "}" => {
                braces.pop();
            }
            "let" => {
                // `if let` / `while let` bind a pattern, not a named value
                // the flow rules track: their "initializer" is a scrutinee
                // ending at the block `{`.
                let is_cond = i
                    .checked_sub(1)
                    .is_some_and(|p| matches!(toks[p].text.as_str(), "if" | "while"));
                if is_cond {
                    i += 1;
                    continue;
                }
                if let Some(binding) = parse_let(toks, i, close, braces.last().copied()) {
                    i = binding.init.0; // continue inside the initializer
                    lets.push(binding);
                    continue;
                }
            }
            _ => {
                if let Some(call) = parse_call(toks, i) {
                    calls.push(call);
                }
            }
        }
        i += 1;
    }
    (lets, calls)
}

/// Parse the `let` at `i`: pattern up to a top-level `=`, initializer up
/// to the terminating `;`.
fn parse_let(
    toks: &[Tok],
    i: usize,
    close: usize,
    enclosing: Option<usize>,
) -> Option<LetBinding> {
    let mut j = i + 1;
    let mut depth = 0isize;
    let mut names = Vec::new();
    // Pattern: to the `=` (skip `let ... else`-less simple patterns; a
    // `let x;` declaration has no initializer and is skipped).
    loop {
        let t = toks.get(j)?;
        if j >= close {
            return None;
        }
        match t.text.as_str() {
            "(" | "[" | "<" => depth += 1,
            ")" | "]" | ">" => depth -= 1,
            "=" if depth <= 0 && toks.get(j + 1).map(|n| n.text.as_str()) != Some("=") => break,
            ";" if depth <= 0 => return None,
            ":" if depth <= 0 => {
                // Type annotation: skip to the `=` without collecting
                // type identifiers as binding names.
                let mut k = j + 1;
                let mut d = 0isize;
                loop {
                    let t = toks.get(k)?;
                    match t.text.as_str() {
                        "(" | "[" | "<" => d += 1,
                        ")" | "]" | ">" => d -= 1,
                        "=" if d <= 0 => break,
                        ";" if d <= 0 => return None,
                        _ => {}
                    }
                    k += 1;
                }
                j = k;
                break;
            }
            "_" => {}
            text => {
                if t.kind == TokKind::Ident
                    && !KEYWORDS.contains(&text)
                    && text.chars().next().is_some_and(|c| c.is_lowercase() || c == '_')
                {
                    names.push(text.to_string());
                }
            }
        }
        j += 1;
    }
    let init_start = j + 1;
    // Initializer: to the `;` at brace/paren depth 0 relative to here.
    let mut k = init_start;
    let mut d = 0isize;
    while k < close {
        match toks[k].text.as_str() {
            "(" | "[" | "{" => d += 1,
            ")" | "]" | "}" => {
                d -= 1;
                if d < 0 {
                    break;
                }
            }
            ";" if d == 0 => break,
            _ => {}
        }
        k += 1;
    }
    let scope_end = enclosing.map(|b| matching_brace(toks, b)).unwrap_or(close);
    Some(LetBinding {
        names,
        init: (init_start, k),
        scope_end,
    })
}

/// Is the ident at `i` a call site (`name(` but not `name!(`, `fn name(`)?
fn parse_call(toks: &[Tok], i: usize) -> Option<CallSite> {
    let t = &toks[i];
    if t.kind != TokKind::Ident || KEYWORDS.contains(&t.text.as_str()) {
        return None;
    }
    let open = i + 1;
    if toks.get(open).map(|n| n.text.as_str()) != Some("(") {
        return None; // also rejects macros: `name !  (`
    }
    let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
    if prev == Some("fn") {
        return None;
    }
    Some(CallSite {
        callee: t.text.clone(),
        is_method: prev == Some("."),
        empty_args: toks.get(open + 1).is_some_and(|n| n.text == ")"),
        line: t.line,
        tok: i,
        args_open: open,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceFile;
    use std::path::PathBuf;

    fn flows(src: &str) -> Vec<FnModel> {
        functions(&SourceFile::parse(PathBuf::from("x.rs"), "m".into(), src))
    }

    #[test]
    fn fn_bodies_lets_and_calls_are_modeled() {
        let fns = flows(
            "fn pump(rx: &Receiver<u8>) -> Result<(), Error> {\n\
                 let guard = self.current.write();\n\
                 let _ = tx.send(1);\n\
                 helper(rx.recv()?);\n\
                 Ok(())\n\
             }\n\
             fn helper(x: u8) {}\n",
        );
        assert_eq!(fns.len(), 2);
        let pump = &fns[0];
        assert_eq!(pump.name, "pump");
        assert_eq!(pump.lets.len(), 2);
        assert_eq!(pump.lets[0].names, ["guard"]);
        assert!(pump.lets[1].names.is_empty());
        let callees: Vec<&str> = pump.calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(callees, ["write", "send", "helper", "recv", "Ok"]);
        assert!(pump.calls[0].empty_args && pump.calls[0].is_method);
        assert!(!pump.calls[2].is_method);
    }

    #[test]
    fn let_scope_ends_at_the_enclosing_block() {
        let fns = flows(
            "fn f() {\n\
                 if cond {\n\
                     let g = m.lock();\n\
                     use_it(&g);\n\
                 }\n\
                 after();\n\
             }\n",
        );
        let f = &fns[0];
        let g = &f.lets[0];
        // `after` is outside g's scope; `use_it` is inside.
        let use_it = f.calls.iter().find(|c| c.callee == "use_it").unwrap();
        let after = f.calls.iter().find(|c| c.callee == "after").unwrap();
        assert!(use_it.tok < g.scope_end);
        assert!(after.tok >= g.scope_end);
    }

    #[test]
    fn array_return_types_do_not_abort_the_parse() {
        // The `;` inside `[T; 2]` must not read as "declaration, no body".
        let fns = flows("fn counters() -> [&'static Counter; 2] { [&A, &B] }\n");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "counters");
    }

    #[test]
    fn annotations_are_not_binding_names() {
        let fns = flows("fn ann() { let v: Vec<Tok> = collect(); touch(&v); }\n");
        // The `Vec`/`Tok` in the annotation are not binding names.
        assert_eq!(fns[0].lets[0].names, ["v"]);
    }
}
