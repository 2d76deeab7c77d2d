//! must-consume: durability results must be bound and used.
//!
//! The bug class behind PR 9's S1/S2 fixes: a `DurableAck` (or a `Result`
//! from the WAL/serve layer) silently dropped on the floor turns a durable
//! acknowledgment into wishful thinking — the caller reports success the
//! disk never confirmed. Three shapes fire:
//!
//! 1. **statement-dropped** — `w.append_batch(&ops)?;` minus the `?`:
//!    a producing call whose whole statement is just the call expression.
//! 2. **explicitly discarded** — `let _ = tx.send(ack);`: binding a
//!    producer to `_` (or only `_`-prefixed names). Legitimate discards
//!    (shutdown paths) carry an `// analyze: allow(must-consume) — why`.
//! 3. **bound but never used** — `let ack = w.log_batch(&ops);` with `ack`
//!    never read afterwards in its scope.
//!
//! Producers are the configured method/fn names plus every workspace fn
//! whose return type mentions a configured marker (`Result`,
//! `DurableAck`), resolved through [`crate::symbols`].

use crate::flow::{CallSite, FnModel};
use crate::model::{in_scope, SourceFile};
use crate::rules::{push_unless_allowed, ConsumeConfig, Finding};
use crate::symbols::SymbolIndex;
use std::collections::BTreeSet;

/// Run the rule over every file in scope.
pub fn check(
    files: &[SourceFile],
    index: &SymbolIndex,
    cfg: &ConsumeConfig,
    findings: &mut Vec<Finding>,
) {
    // Workspace fns whose every definition returns a marked type.
    let mut producing_fns: BTreeSet<&str> = BTreeSet::new();
    for (name, defs) in &index.fns {
        let all_marked = defs.iter().all(|d| {
            let ret = &index.flows[d.file][d.idx].ret;
            cfg.ret_types.iter().any(|m| ret.contains(m.as_str()))
        });
        if all_marked && !defs.is_empty() {
            producing_fns.insert(name);
        }
    }

    for (file_idx, file) in files.iter().enumerate() {
        if !cfg.scope.iter().any(|pat| in_scope(&file.module, pat)) {
            continue;
        }
        for model in index.file_fns(file_idx) {
            check_fn(file, model, cfg, &producing_fns, findings);
        }
    }
}

fn is_producer(cfg: &ConsumeConfig, producing_fns: &BTreeSet<&str>, call: &CallSite) -> bool {
    cfg.producers.contains(&call.callee) || producing_fns.contains(call.callee.as_str())
}

fn check_fn(
    file: &SourceFile,
    model: &FnModel,
    cfg: &ConsumeConfig,
    producing_fns: &BTreeSet<&str>,
    findings: &mut Vec<Finding>,
) {
    let toks = &file.toks;

    // Shapes 2 and 3: producers bound by `let`.
    for binding in &model.lets {
        let producer = model
            .calls_in(binding.init)
            .into_iter()
            .find(|c| is_producer(cfg, producing_fns, c));
        let Some(call) = producer else { continue };
        // A `?`/`.` after the call's close paren means the produced value
        // is already consumed inside the init expression; the binding may
        // hold something else entirely (e.g. `let n = w.log_batch(&ops)?.len()`).
        if consumed_in_expr(file, call) {
            continue;
        }
        if binding.is_discard {
            push_unless_allowed(
                file,
                call.line,
                "must-consume",
                format!(
                    "`let _ = {}(..)` explicitly discards a durability result; handle it or \
                     justify the discard with an allow comment",
                    call.callee
                ),
                findings,
            );
            continue;
        }
        // Shape 3: bound, never read. A name "reads" if it reappears
        // between the end of the init and the end of its scope.
        let used = binding.names.iter().any(|n| {
            toks[binding.init.1..binding.scope_end.min(toks.len())]
                .iter()
                .any(|t| t.text == *n)
        });
        if !used && !binding.names.is_empty() {
            push_unless_allowed(
                file,
                call.line,
                "must-consume",
                format!(
                    "result of `{}(..)` is bound to `{}` but never used — the durability \
                     outcome is silently ignored",
                    call.callee,
                    binding.names.join("`, `")
                ),
                findings,
            );
        }
    }

    // Shape 1: statement-dropped producer calls.
    for call in &model.calls {
        if !is_producer(cfg, producing_fns, call) {
            continue;
        }
        let in_init = model
            .lets
            .iter()
            .any(|b| call.tok >= b.init.0 && call.tok < b.init.1);
        if in_init {
            continue;
        }
        if statement_is_bare_call(file, model, call) {
            push_unless_allowed(
                file,
                call.line,
                "must-consume",
                format!(
                    "result of `{}(..)` is dropped on the floor — propagate it with `?`, \
                     match on it, or bind and check it",
                    call.callee
                ),
                findings,
            );
        }
    }
}

/// Is the produced value consumed inside its own expression — `?`, a
/// chained method, or field access right after the call's `)`?
fn consumed_in_expr(file: &SourceFile, call: &CallSite) -> bool {
    let close = match matching_paren(file, call.args_open) {
        Some(c) => c,
        None => return true, // malformed; stay quiet
    };
    matches!(
        file.toks.get(close + 1).map(|t| t.text.as_str()),
        Some("?") | Some(".")
    )
}

/// Does the whole statement consist of just this call expression?
/// I.e. walking back over the receiver chain lands on `;`/`{`/`}` and the
/// token after the call's close paren is `;`.
fn statement_is_bare_call(file: &SourceFile, model: &FnModel, call: &CallSite) -> bool {
    if consumed_in_expr(file, call) {
        return false;
    }
    let close = match matching_paren(file, call.args_open) {
        Some(c) => c,
        None => return false,
    };
    if file.toks.get(close + 1).map(|t| t.text.as_str()) != Some(";") {
        return false;
    }
    // Walk backwards from the callee over the receiver chain: repeated
    // `segment . ` / `segment :: ` prefixes where a segment is an ident
    // (incl. `self`) or a parenthesized/bracketed sub-expression.
    let toks = &file.toks;
    let mut i = call.tok; // leftmost token of the expression so far
    while i > model.body.0 + 1 {
        match toks[i - 1].text.as_str() {
            "." | "::" => {
                if i < 2 {
                    return false;
                }
                match toks[i - 2].text.as_str() {
                    ")" | "]" => match matching_paren_back(file, i - 2) {
                        Some(open) => {
                            i = open;
                            // `foo(..).bar()`: pull in the inner callee or
                            // receiver ident just before the `(`.
                            if i > 0 && toks[i - 1].kind == crate::lexer::TokKind::Ident {
                                i -= 1;
                            }
                        }
                        None => return false,
                    },
                    _ if toks[i - 2].kind == crate::lexer::TokKind::Ident => i -= 2,
                    _ => return false,
                }
            }
            _ => break,
        }
    }
    i == model.body.0 + 1
        || matches!(
            toks.get(i - 1).map(|t| t.text.as_str()),
            Some(";") | Some("{") | Some("}")
        )
}

/// Index of the `)` matching the `(` at `open`.
fn matching_paren(file: &SourceFile, open: usize) -> Option<usize> {
    let toks = &file.toks;
    let mut depth = 0isize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Index of the `(`/`[` matching the `)`/`]` at `close`, walking back.
fn matching_paren_back(file: &SourceFile, close: usize) -> Option<usize> {
    let toks = &file.toks;
    let mut depth = 0isize;
    let mut i = close;
    loop {
        match toks[i].text.as_str() {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
        if i == 0 {
            return None;
        }
        i -= 1;
    }
}
