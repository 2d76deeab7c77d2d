//! The verbs that decide an index's requirements: `build`, `tune`.

use super::args::parse_args;
use super::files::{load_index, load_xml, read_query_file, save_index};
use super::CliError;
use dkindex_core::tuner::lowers;
use dkindex_core::{
    apply_serial, mine_requirements, DkIndex, IndexEvaluator, Requirements, Tuner, TunerConfig,
};
use dkindex_graph::LabeledGraph;

pub(super) fn cmd_build(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args)?;
    let [path] = parsed.positional[..] else {
        return Err(CliError::usage("build expects exactly one XML file"));
    };
    let out_path = parsed
        .out
        .ok_or_else(|| CliError::usage("build needs --out <index.dki>"))?;
    let g = load_xml(path, &parsed.idrefs)?;

    let mut reqs = match parsed.uniform {
        Some(k) => Requirements::uniform(k),
        None => Requirements::new(),
    };
    for (label, k) in &parsed.reqs {
        reqs.raise(label, *k);
    }
    if let Some(qfile) = parsed.queries {
        let queries = read_query_file(qfile)?;
        let mined = mine_requirements(&queries);
        for (label, k) in mined.iter() {
            reqs.raise(label, k);
        }
        reqs.raise_floor(mined.floor());
    }

    let dk = DkIndex::build(&g, reqs);
    let bytes = save_index(&dk, &g, out_path)?;
    Ok(format!(
        "indexed {} data nodes into {} index nodes -> {out_path} ({bytes} bytes)\n",
        g.node_count(),
        dk.size(),
    ))
}

pub(super) fn cmd_tune(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args)?;
    let [index_path] = parsed.positional[..] else {
        return Err(CliError::usage("tune expects exactly one index file"));
    };
    let out_path = parsed
        .out
        .ok_or_else(|| CliError::usage("tune needs --out <index.dki>"))?;
    let qfile = parsed
        .queries
        .ok_or_else(|| CliError::usage("tune needs --queries <file>"))?;
    let (mut dk, mut g) = load_index(index_path)?;
    let queries = read_query_file(qfile)?;
    // The query file is one observation window at support 1: record every
    // query against the loaded index, then take the one step the serve
    // loop would take and apply its op the way the serve loop is replayed.
    let tuner = Tuner::new(g.labels_shared(), TunerConfig { window: 1, min_support: 1 });
    let outcomes = IndexEvaluator::new(dk.index(), &g).evaluate_all(&queries);
    for (q, out) in queries.iter().zip(&outcomes) {
        tuner.record(q, out.validated);
    }
    let (before, current) = (dk.size(), dk.requirements().clone());
    let report = match tuner.step(&current) {
        Some(op) => {
            apply_serial(&mut dk, &mut g, &[op]);
            let verb = if lowers(&current, dk.requirements()) { "demoted" } else { "promoted" };
            format!("{verb}: size {before} -> {}", dk.size())
        }
        None => format!("held: size {before}"),
    };
    save_index(&dk, &g, out_path)?;
    Ok(format!("{report} -> {out_path}\n"))
}

#[cfg(test)]
mod tests {
    use crate::commands::fixture::*;

    #[test]
    fn build_info_query_round_trip() {
        let dir = TempDir::new("biq");
        let doc = write_doc(&dir);
        let idx = dir.file("index.dki");
        let built = run(&[
            "build",
            doc.to_str().unwrap(),
            "--out",
            idx.to_str().unwrap(),
            "--req",
            "title=2",
        ])
        .unwrap();
        assert!(built.contains("index nodes"));

        let info = run(&["info", idx.to_str().unwrap()]).unwrap();
        assert!(info.contains("compression"));
        assert!(info.contains("title"));

        let q = run(&["query", idx.to_str().unwrap(), "director.movie.title"]).unwrap();
        assert!(q.contains("1 match(es)"), "{q}");
        assert!(!q.contains("validated"), "title=2 must be sound: {q}");
    }

    #[test]
    fn build_mines_queries_file() {
        let dir = TempDir::new("mine");
        let doc = write_doc(&dir);
        let queries = dir.file("load.txt");
        fs::write(&queries, "# comment\ndirector.movie.title\n\nactor.name\n").unwrap();
        let idx = dir.file("index.dki");
        run(&[
            "build",
            doc.to_str().unwrap(),
            "--out",
            idx.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
        ])
        .unwrap();
        let info = run(&["info", idx.to_str().unwrap()]).unwrap();
        assert!(info.contains("title"));
        let q = run(&["query", idx.to_str().unwrap(), "director.movie.title"]).unwrap();
        assert!(!q.contains("validated"));
    }

    /// Build a label-split index of `DOC`, promote it under a deep `title`
    /// load, then tune the result with `load`: that second report, and the
    /// deep query's answer line on the index it produced.
    fn tune_after_promotion(tag: &str, load: &str) -> (String, String) {
        let dir = TempDir::new(tag);
        let doc = write_doc(&dir);
        let path = |name: &str| dir.file(name).to_str().unwrap().to_string();
        let tune = |from: &str, to: &str, text: &str| {
            fs::write(path("load.txt"), text).unwrap();
            run(&["tune", &path(from), "--queries", &path("load.txt"), "--out", &path(to)]).unwrap()
        };
        run(&["build", doc.to_str().unwrap(), "--out", &path("built.dki")]).unwrap();
        let promoted = tune("built.dki", "promoted.dki", "director.movie.title\n");
        assert!(promoted.contains("promoted"), "{promoted}");
        let report = tune("promoted.dki", "tuned.dki", load);
        (report, run(&["query", &path("tuned.dki"), "director.movie.title"]).unwrap())
    }

    #[test]
    fn tune_promotes_then_holds_on_the_load_it_covers() {
        let (out, q) = tune_after_promotion("tune-promote", "director.movie.title\n");
        assert!(out.contains("held"), "not a zero-split promote: {out}");
        assert!(!q.contains("validated"), "{q}");
    }

    #[test]
    fn tune_demotes_when_the_same_label_is_queried_shallowly() {
        let (out, q) = tune_after_promotion("tune-demote", "title\n");
        assert!(out.contains("demoted"), "{out}");
        assert!(q.contains("validated"), "{q}");
    }

    /// A query file that never touches the promoted label is no evidence
    /// its load shrank: the index is held, not demoted to the mined load.
    #[test]
    fn tune_holds_under_an_unrelated_shallow_load() {
        let (out, q) = tune_after_promotion("tune-hold", "name\n");
        assert!(out.contains("held"), "{out}");
        assert!(!q.contains("validated"), "{q}");
    }
}
