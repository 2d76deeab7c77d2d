//! guard-discipline: no blocking call while a guard is live.
//!
//! The serve stack's liveness contract (ARCHITECTURE.md §5/§7.4): the
//! epoch `RwLock` write guard is held only for the single pointer store,
//! and mutex guards never outlive a statement that also performs I/O. A
//! violation deadlocks readers behind the maintenance thread or holds the
//! op channel hostage to disk latency — invisible to tests until the worst
//! interleaving happens in production. (A WAL batch needs no liveness
//! shape: `WalWriter::append_batch` writes records and fence in one call.)
//!
//! Two guard-liveness shapes are tracked per function (via
//! [`crate::flow`]):
//!
//! 1. `let g = x.write()` — live from the end of the `let` statement to
//!    the end of the enclosing block, or an explicit `drop(g)`.
//! 2. a guard call inside a larger statement (`*x.write() = v`) — live to
//!    the end of that statement.
//!
//! Inside a live range, a blocking call from the table fires directly; a
//! call to a workspace function whose own body contains a blocking call
//! fires too (helper calls, one level deep, via [`crate::symbols`]).

use crate::flow::{CallSite, FnModel};
use crate::model::{in_scope, SourceFile};
use crate::rules::{push_unless_allowed, BlockingSpec, Finding, GuardConfig};
use crate::symbols::SymbolIndex;

/// Run the rule over every file in scope.
pub fn check(
    files: &[SourceFile],
    index: &SymbolIndex,
    cfg: &GuardConfig,
    findings: &mut Vec<Finding>,
) {
    for (file_idx, file) in files.iter().enumerate() {
        if !cfg.scope.iter().any(|pat| in_scope(&file.module, pat)) {
            continue;
        }
        for model in index.file_fns(file_idx) {
            check_fn(file, model, index, cfg, findings);
        }
    }
}

fn check_fn(
    file: &SourceFile,
    model: &FnModel,
    index: &SymbolIndex,
    cfg: &GuardConfig,
    findings: &mut Vec<Finding>,
) {
    // (live range, guard description, token index of the creating call)
    let mut live: Vec<((usize, usize), String, usize)> = Vec::new();

    // Shape 1: let-bound guards.
    for binding in &model.lets {
        for call in model.calls_in(binding.init) {
            if let Some(spec) = guard_spec(cfg, call) {
                let end = drop_point(file, model, binding, binding.scope_end);
                live.push(((binding.init.1, end), spec.what.clone(), call.tok));
            }
        }
    }
    // Shape 2: statement-temporary guards (guard call outside any init).
    for call in &model.calls {
        if guard_spec(cfg, call).is_none() {
            continue;
        }
        let in_init = model
            .lets
            .iter()
            .any(|b| call.tok >= b.init.0 && call.tok < b.init.1);
        if in_init {
            continue;
        }
        let spec = guard_spec(cfg, call).expect("checked above");
        let end = statement_end(file, call.args_open, model.body.1);
        live.push(((call.tok + 1, end), spec.what.clone(), call.tok));
    }

    let mut reported: Vec<(u32, String)> = Vec::new();
    for ((start, end), what, origin) in &live {
        for call in model.calls_in((*start, *end)) {
            if call.tok == *origin {
                continue;
            }
            let hit = if let Some(spec) = blocking_spec(cfg, call) {
                Some(format!(
                    "`{}` ({}) called while a {} is live",
                    call.callee, spec.why, what
                ))
            } else {
                helper_blocks(index, cfg, call).map(|(helper, inner)| {
                    format!(
                        "`{helper}` (which calls blocking `{inner}`) called while a {what} \
                         is live"
                    )
                })
            };
            if let Some(message) = hit {
                if reported.iter().any(|(l, m)| *l == call.line && *m == message) {
                    continue;
                }
                reported.push((call.line, message.clone()));
                push_unless_allowed(file, call.line, "guard-discipline", message, findings);
            }
        }
    }
}

/// The guard spec `call` matches, if any.
fn guard_spec<'a>(cfg: &'a GuardConfig, call: &CallSite) -> Option<&'a crate::rules::GuardSpec> {
    cfg.guards
        .iter()
        .find(|g| g.method == call.callee && call.is_method && (!g.empty_args || call.empty_args))
}

/// The blocking spec `call` matches, if any.
fn blocking_spec<'a>(cfg: &'a GuardConfig, call: &CallSite) -> Option<&'a BlockingSpec> {
    cfg.blocking
        .iter()
        .find(|b| b.method == call.callee && (!b.empty_args || call.empty_args))
}

/// Does `call` resolve to a workspace fn whose body directly contains a
/// blocking call? Conservative on name collisions: fires only when every
/// definition with that name blocks.
fn helper_blocks<'a>(
    index: &'a SymbolIndex,
    cfg: &'a GuardConfig,
    call: &'a CallSite,
) -> Option<(&'a str, &'a str)> {
    let defs = index.fns.get(&call.callee)?;
    let mut inner_name: Option<&str> = None;
    for def in defs {
        let model = &index.flows[def.file][def.idx];
        let inner = model
            .calls
            .iter()
            .find(|c| cfg.blocking.iter().any(|b| b.method == c.callee && (!b.empty_args || c.empty_args)));
        match inner {
            Some(c) => inner_name = Some(&c.callee),
            None => return None,
        }
    }
    inner_name.map(|inner| (call.callee.as_str(), inner))
}

/// If the binding is `drop`ped inside its scope, the live range ends
/// there.
fn drop_point(
    file: &SourceFile,
    model: &FnModel,
    binding: &crate::flow::LetBinding,
    scope_end: usize,
) -> usize {
    model
        .calls
        .iter()
        .find(|c| {
            c.callee == "drop"
                && c.tok > binding.init.1
                && c.tok < scope_end
                && binding.names.iter().any(|n| {
                    // `drop(name)`: the single argument is the binding.
                    file.toks
                        .get(c.args_open + 1)
                        .map(|t| t.text == *n)
                        .unwrap_or(false)
                })
        })
        .map(|c| c.tok)
        .unwrap_or(scope_end)
}

/// End of the statement containing the call whose `(` is at `args_open`:
/// the next `;` at the statement's brace depth.
fn statement_end(file: &SourceFile, args_open: usize, body_end: usize) -> usize {
    let toks = &file.toks;
    let mut depth = 0isize;
    let mut i = args_open;
    while i < body_end.min(toks.len()) {
        match toks[i].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            }
            ";" if depth == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    i
}
