//! Rule `oracle-purity`: a reference oracle must stay independent of the
//! fast paths it is the trusted baseline for — on the module import graph,
//! not just at call sites. An oracle that (transitively) leans on the
//! engine or telemetry it checks can no longer falsify them.
//!
//! The check walks the oracle module's tokens for forbidden references:
//! multi-segment paths (`crate::engine`) as contiguous `a :: b` token
//! runs, type names (`RefineEngine`) anywhere, and lowercase single
//! segments (`dkindex_telemetry`, `closure_steps_of`) in path, `use` or
//! call position only, so a local variable that happens to share the name
//! does not fire the rule.

use super::{Finding, ForbiddenRef, RuleConfig};
use crate::lexer::TokKind;
use crate::model::SourceFile;
use std::collections::BTreeSet;

/// Run the rule over one file.
pub fn check(file: &SourceFile, config: &RuleConfig, findings: &mut Vec<Finding>) {
    let Some(spec) = config.oracles.iter().find(|o| o.module == file.module) else {
        return;
    };
    let mut reported: BTreeSet<String> = BTreeSet::new();
    for fref in &spec.forbidden {
        if let Some(line) = first_reference(file, fref) {
            let path = fref.segs.join("::");
            if reported.insert(path.clone()) {
                findings.push(Finding {
                    path: file.path.clone(),
                    line,
                    rule: "oracle-purity",
                    message: format!(
                        "oracle module `{}` (the trusted baseline for {}) references `{path}`: \
                         {}; keep the oracle free of the paths it checks",
                        spec.module, spec.oracle_for, fref.why
                    ),
                });
            }
        }
    }
}

/// Line of the first reference to `fref` outside test code, if any.
fn first_reference(file: &SourceFile, fref: &ForbiddenRef) -> Option<u32> {
    let toks = &file.toks;
    for i in 0..toks.len() {
        if file.in_test_code(i) || toks[i].kind != TokKind::Ident {
            continue;
        }
        let hit = if fref.segs.len() > 1 {
            matches_path_run(toks, i, &fref.segs)
        } else {
            let seg = &fref.segs[0];
            toks[i].text == *seg
                && (seg.starts_with(char::is_uppercase) || in_path_or_call_position(toks, i))
        };
        if hit {
            return Some(toks[i].line);
        }
    }
    None
}

/// Do tokens at `i` spell `segs[0] :: segs[1] :: ...`?
fn matches_path_run(toks: &[crate::lexer::Tok], i: usize, segs: &[String]) -> bool {
    let mut j = i;
    for (k, seg) in segs.iter().enumerate() {
        if toks.get(j).map(|t| t.text.as_str()) != Some(seg.as_str()) {
            return false;
        }
        j += 1;
        if k + 1 < segs.len() {
            if toks.get(j).map(|t| t.text.as_str()) != Some("::") {
                return false;
            }
            j += 1;
        }
    }
    true
}

/// Is the identifier at `i` used as a path segment, import or callee —
/// adjacent to `::`, directly after `use`, or directly before `(`? The
/// call form is what catches a fast-path function brought in through a
/// `use a::{b, c}` group and a method such as `nfa.closure_steps_of(..)`.
fn in_path_or_call_position(toks: &[crate::lexer::Tok], i: usize) -> bool {
    let next_is_sep_or_call = toks.get(i + 1).is_some_and(|t| t.text == "::" || t.text == "(");
    let prev = i.checked_sub(1).and_then(|p| toks.get(p));
    let prev_is_sep = prev.map(|t| t.text.as_str()) == Some("::");
    let prev_is_use = prev.map(|t| t.text.as_str()) == Some("use");
    next_is_sep_or_call || prev_is_sep || prev_is_use
}
