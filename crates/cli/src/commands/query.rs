//! `query`: one path expression against a stored index.

use super::args::parse_args;
use super::files::load_index_graceful;
use super::CliError;
use dkindex_core::IndexEvaluator;
use dkindex_pathexpr::parse;
use std::fmt::Write as _;

pub(super) fn cmd_query(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args)?;
    let [path, expr_text] = parsed.positional[..] else {
        return Err(CliError::usage("query expects <index.dki> <path-expression>"));
    };
    let (dk, g, _) = load_index_graceful(path)?;
    let expr = parse(expr_text).map_err(|e| CliError::Query(e.to_string()))?;
    // Bounded execution: a typed abort, never a partial answer.
    let out = IndexEvaluator::new(dk.index(), &g)
        .evaluate_bounded(&expr, parsed.budget.unwrap_or(u64::MAX))
        .map_err(|e| CliError::Aborted(e.to_string()))?;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{} match(es), cost {} ({} index + {} data visits){}",
        out.matches.len(),
        out.cost.total(),
        out.cost.index_visits,
        out.cost.data_visits,
        if out.validated { ", validated" } else { "" }
    );
    for n in out.matches.iter().take(20) {
        let _ = writeln!(text, "  node {} ({})", n.index(), g.label_name(*n));
    }
    if out.matches.len() > 20 {
        let _ = writeln!(text, "  ... and {} more", out.matches.len() - 20);
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use crate::commands::fixture::*;

    #[test]
    fn query_budget_aborts_with_typed_error() {
        let dir = TempDir::new("budget");
        let doc = write_doc(&dir);
        let idx = dir.file("index.dki");
        run(&["build", doc.to_str().unwrap(), "--out", idx.to_str().unwrap()]).unwrap();
        // A generous budget answers normally…
        let ok = run(&[
            "query", idx.to_str().unwrap(), "director.movie.title",
            "--budget", "100000",
        ])
        .unwrap();
        assert!(ok.contains("match(es)"), "{ok}");
        // …a starved one aborts with the dedicated exit code, not a panic
        // and not a partial answer.
        let err = run(&[
            "query", idx.to_str().unwrap(), "director.movie.title",
            "--budget", "1",
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 6, "{err}");
        assert!(err.to_string().contains("budget"), "{err}");
    }
}
