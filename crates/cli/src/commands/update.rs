//! The paper's update verbs: `add-edge` (Alg 4/5), `add-file` (Alg 3).

use super::args::parse_args;
use super::files::{load_index, load_xml, open_or_create_wal, save_index};
use super::CliError;
use dkindex_core::ServeOp;
use dkindex_graph::{LabeledGraph, NodeId};

pub(super) fn cmd_add_edge(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args)?;
    let [path, from, to] = parsed.positional[..] else {
        return Err(CliError::usage("add-edge expects <index.dki> <from-id> <to-id>"));
    };
    let out_path = parsed
        .out
        .ok_or_else(|| CliError::usage("add-edge needs --out <index.dki>"))?;
    let (mut dk, mut g) = load_index(path)?;
    let from: usize = from
        .parse()
        .map_err(|_| CliError::usage("from-id must be a number"))?;
    let to: usize = to
        .parse()
        .map_err(|_| CliError::usage("to-id must be a number"))?;
    if from >= g.node_count() || to >= g.node_count() {
        return Err(CliError::usage(format!(
            "node ids must be < {} (data node count)",
            g.node_count()
        )));
    }
    let (from_node, to_node) = (NodeId::from_index(from), NodeId::from_index(to));
    // Durability ordering: log the update before applying it, so a crash
    // between the two leaves a WAL that replays to the intended state.
    let mut wal_note = String::new();
    if let Some(wal_path) = parsed.wal {
        let mut writer = open_or_create_wal(wal_path)?;
        writer
            .append_batch(&[ServeOp::AddEdge { from: from_node, to: to_node }])
            .map_err(|e| CliError::io(wal_path, e))?;
        wal_note = format!("; logged to {wal_path}");
    }
    let outcome = dk.add_edge(&mut g, from_node, to_node);
    save_index(&dk, &g, out_path)?;
    Ok(format!(
        "added edge {from} -> {to}; target similarity now {}, {} node(s) lowered -> {out_path}{wal_note}\n",
        outcome.new_similarity, outcome.lowered
    ))
}

pub(super) fn cmd_add_file(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args)?;
    let [index_path, doc_path] = parsed.positional[..] else {
        return Err(CliError::usage("add-file expects <index.dki> <doc.xml>"));
    };
    let out_path = parsed
        .out
        .ok_or_else(|| CliError::usage("add-file needs --out <index.dki>"))?;
    let (mut dk, mut g) = load_index(index_path)?;
    let sub = load_xml(doc_path, &parsed.idrefs)?;
    let before = g.node_count();
    dk.add_subgraph(&mut g, &sub);
    save_index(&dk, &g, out_path)?;
    Ok(format!(
        "inserted {} new data nodes (now {}); index has {} nodes -> {out_path}\n",
        g.node_count() - before,
        g.node_count(),
        dk.size()
    ))
}

#[cfg(test)]
mod tests {
    use crate::commands::fixture::*;
    use dkindex_core::snapshot::read_snapshot;

    #[test]
    fn add_edge_updates_and_persists() {
        let dir = TempDir::new("edge");
        let doc = write_doc(&dir);
        let idx = dir.file("index.dki");
        run(&[
            "build",
            doc.to_str().unwrap(),
            "--out",
            idx.to_str().unwrap(),
            "--uniform",
            "2",
        ])
        .unwrap();
        let idx2 = dir.file("index2.dki");
        let out = run(&[
            "add-edge",
            idx.to_str().unwrap(),
            "2",
            "4",
            "--out",
            idx2.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("added edge 2 -> 4"));
        // The updated index still loads and answers.
        let q = run(&["query", idx2.to_str().unwrap(), "movie"]).unwrap();
        assert!(q.contains("match(es)"));
    }

    #[test]
    fn add_file_grows_index() {
        let dir = TempDir::new("addfile");
        let doc = write_doc(&dir);
        let idx = dir.file("index.dki");
        run(&["build", doc.to_str().unwrap(), "--out", idx.to_str().unwrap(), "--uniform", "1"]).unwrap();
        let extra = dir.file("extra.xml");
        fs::write(&extra, "<archive><movie><title/></movie></archive>").unwrap();
        let idx2 = dir.file("index2.dki");
        let out = run(&[
            "add-file",
            idx.to_str().unwrap(),
            extra.to_str().unwrap(),
            "--out",
            idx2.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("inserted 3 new data nodes"), "{out}");
        let q = run(&["query", idx2.to_str().unwrap(), "archive.movie.title"]).unwrap();
        assert!(q.contains("1 match(es)"), "{q}");
    }

    #[test]
    fn add_edge_logs_to_wal_and_snapshot_replays_it() {
        let dir = TempDir::new("waledge");
        let doc = write_doc(&dir);
        let idx = dir.file("index.dki");
        run(&["build", doc.to_str().unwrap(), "--out", idx.to_str().unwrap(), "--uniform", "2"])
            .unwrap();
        let walp = dir.file("updates.wal");
        let idx2 = dir.file("index2.dki");
        let out = run(&[
            "add-edge", idx.to_str().unwrap(), "2", "4",
            "--out", idx2.to_str().unwrap(),
            "--wal", walp.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("logged to"), "{out}");
        // A second logged update appends to the same WAL.
        let idx3 = dir.file("index3.dki");
        run(&[
            "add-edge", idx2.to_str().unwrap(), "6", "3",
            "--out", idx3.to_str().unwrap(),
            "--wal", walp.to_str().unwrap(),
        ])
        .unwrap();
        // snapshot --wal replays the log over the *original* index and must
        // land on the same bytes as the incrementally updated index.
        let replayed = dir.file("replayed.dki");
        let out = run(&[
            "snapshot", idx.to_str().unwrap(),
            "--out", replayed.to_str().unwrap(),
            "--wal", walp.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("replayed 2 WAL record(s)"), "{out}");
        assert_eq!(fs::read(&replayed).unwrap(), fs::read(&idx3).unwrap());
    }

    /// Regression: `save_index` used to be a bare `fs::write`, so an
    /// in-place `add-edge IDX --out IDX` that died mid-write tore the only
    /// snapshot. Every verb now saves through temp file + fsync + rename.
    #[test]
    fn in_place_add_edge_saves_atomically() {
        let dir = TempDir::new("inplace");
        let doc = write_doc(&dir);
        let idx = dir.file("index.dki");
        run(&["build", doc.to_str().unwrap(), "--out", idx.to_str().unwrap(), "--uniform", "2"])
            .unwrap();
        let before = fs::read(&idx).unwrap();
        let walp = dir.file("updates.wal");
        run(&[
            "add-edge", idx.to_str().unwrap(), "6", "3",
            "--out", idx.to_str().unwrap(),
            "--wal", walp.to_str().unwrap(),
        ])
        .unwrap();
        let after = fs::read(&idx).unwrap();
        assert!(after != before, "the update must land in the file");
        read_snapshot(&after).expect("the in-place result loads strictly");
        assert!(!dir.file("index.dki.tmp").exists(), "no temp sibling left behind");
        // The built output reports the size actually on disk.
        let out = run(&["build", doc.to_str().unwrap(), "--out", idx.to_str().unwrap()]).unwrap();
        let on_disk = fs::metadata(&idx).unwrap().len();
        assert!(out.contains(&format!("({on_disk} bytes)")), "{out}");
    }
}
