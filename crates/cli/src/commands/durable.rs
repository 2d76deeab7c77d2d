//! The durability verbs: `snapshot`, `recover`.

use super::args::parse_args;
use super::files::{load_index, load_index_graceful, replay_wal_file, save_index};
use super::CliError;
use dkindex_graph::LabeledGraph;
use std::fmt::Write as _;

/// `snapshot` and `recover`: load an index, optionally replay a WAL on
/// top, and write the result as a fresh checksummed `DKSN` snapshot,
/// atomically. `snapshot` loads strictly; `recover` loads gracefully — a
/// (possibly damaged) snapshot whose index is rebuilt from the data graph
/// where necessary — and fails only on an unrecoverable file (damaged
/// graph section).
pub(super) fn cmd_resave(args: &[String], recover: bool) -> Result<String, CliError> {
    let (verb, input, out_hint) =
        if recover { ("recover", "snapshot", "fixed") } else { ("snapshot", "index", "snap") };
    let parsed = parse_args(args)?;
    let [path] = parsed.positional[..] else {
        return Err(CliError::usage(format!("{verb} expects exactly one {input} file")));
    };
    let out_path = parsed
        .out
        .ok_or_else(|| CliError::usage(format!("{verb} needs --out <{out_hint}.dki>")))?;
    let mut out = String::new();
    let (mut dk, mut g) = if recover {
        let (dk, g, recovery) = load_index_graceful(path)?;
        if recovery.is_intact() {
            let _ = writeln!(out, "snapshot intact");
        } else {
            for note in &recovery.notes {
                let _ = writeln!(out, "recovered: {note}");
            }
        }
        (dk, g)
    } else {
        load_index(path)?
    };
    if let Some(wal_path) = parsed.wal {
        let note = replay_wal_file(&mut dk, &mut g, wal_path)?;
        let _ = writeln!(out, "{note}");
    }
    save_index(&dk, &g, out_path)?;
    let _ = writeln!(
        out,
        "{}{} data / {} index nodes -> {out_path}",
        if recover { "" } else { "snapshot of " },
        g.node_count(),
        dk.size()
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::commands::fixture::*;

    #[test]
    fn snapshot_recover_doctor_round_trip() {
        let dir = TempDir::new("srd");
        let doc = write_doc(&dir);
        let idx = dir.file("index.dki");
        run(&["build", doc.to_str().unwrap(), "--out", idx.to_str().unwrap(), "--uniform", "1"])
            .unwrap();

        // Healthy: doctor exits zero (Ok) and says so.
        let out = run(&["doctor", idx.to_str().unwrap()]).unwrap();
        assert!(out.contains("healthy"), "{out}");

        // snapshot re-emits a loadable file.
        let snap = dir.file("snap.dki");
        run(&["snapshot", idx.to_str().unwrap(), "--out", snap.to_str().unwrap()]).unwrap();
        let q = run(&["query", snap.to_str().unwrap(), "movie.title"]).unwrap();
        assert!(q.contains("match(es)"), "{q}");

        // Corrupt the index section; recover rebuilds from the graph.
        let healthy = fs::read(&snap).unwrap();
        let mut bytes = healthy.clone();
        let pos = bytes.len() - 12; // inside the INDX payload
        bytes[pos] ^= 0x01;
        let bad = dir.file("bad.dki");
        fs::write(&bad, &bytes).unwrap();
        let err = run(&["doctor", bad.to_str().unwrap()]).unwrap_err();
        assert_eq!(err.exit_code(), 5, "{err}");

        let fixed = dir.file("fixed.dki");
        let out = run(&[
            "recover",
            bad.to_str().unwrap(),
            "--out",
            fixed.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("recovered"), "{out}");
        // The recovered snapshot is byte-identical to the healthy one
        // (deterministic rebuild from the intact graph + requirements).
        assert_eq!(fs::read(&fixed).unwrap(), healthy);
        let out = run(&["doctor", fixed.to_str().unwrap()]).unwrap();
        assert!(out.contains("healthy"), "{out}");
    }
}
