//! File loaders and savers shared by the verbs: query files, XML
//! documents, `DKSN` snapshots and `DKWL` logs.

use super::CliError;
use dkindex_core::snapshot::{load_with_recovery, read_snapshot, save_snapshot_file, Recovery};
use dkindex_core::wal::{self, WalTail, WalWriter};
use dkindex_core::DkIndex;
use dkindex_graph::DataGraph;
use dkindex_pathexpr::{parse, PathExpr};
use dkindex_xml::{stream_to_graph, GraphOptions};
use std::fs;

/// Read a query-load file: one path expression per line, `#` comments and
/// blank lines ignored.
pub(super) fn read_query_file(path: &str) -> Result<Vec<PathExpr>, CliError> {
    let text = fs::read_to_string(path).map_err(|e| CliError::io(path, e))?;
    let mut queries: Vec<PathExpr> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        queries.push(
            parse(line).map_err(|e| CliError::Query(format!("{path}:{}: {e}", lineno + 1)))?,
        );
    }
    Ok(queries)
}

pub(super) fn load_xml(path: &str, idrefs: &[String]) -> Result<DataGraph, CliError> {
    let text = fs::read_to_string(path).map_err(|e| CliError::io(path, e))?;
    let mut options = GraphOptions::default();
    if !idrefs.is_empty() {
        options.idref_attributes = idrefs.to_vec();
    }
    // One pass of parser events into the graph builder; the text and the
    // graph are both resident.
    stream_to_graph(&text, &options).map_err(|e| CliError::invalid(path, e))
}

/// Load a `DKSN` snapshot. Strict: corruption is a typed error, never a
/// panic (see [`load_index_graceful`] for the recovering path).
pub(super) fn load_index(path: &str) -> Result<(DkIndex, DataGraph), CliError> {
    let bytes = fs::read(path).map_err(|e| CliError::io(path, e))?;
    read_snapshot(&bytes).map_err(|e| CliError::invalid(path, e))
}

/// Load a snapshot for *serving* or repair: a damaged-but-recoverable
/// section (e.g. a corrupt INDX payload whose index is rebuilt
/// deterministically from the graph) still answers queries, and the
/// [`Recovery`] says what was degraded. Only genuinely unrecoverable damage
/// is a typed `Invalid` error. Using this in `query` keeps failure classes
/// honest: a `--budget` abort during evaluation over a recovered snapshot is
/// exit 6 (aborted), not exit 4 (corrupt).
pub(super) fn load_index_graceful(path: &str) -> Result<(DkIndex, DataGraph, Recovery), CliError> {
    let bytes = fs::read(path).map_err(|e| CliError::io(path, e))?;
    load_with_recovery(&bytes).map_err(|e| CliError::invalid(path, e))
}

/// Write `dk` + `g` to `path` as a checksummed snapshot — atomically, so a
/// crash mid-save (even with `path` equal to the input) leaves the old file
/// or the new one, never a torn one. Returns the byte count written.
pub(super) fn save_index(dk: &DkIndex, g: &DataGraph, path: &str) -> Result<u64, CliError> {
    save_snapshot_file(dk, g, std::path::Path::new(path)).map_err(|e| CliError::io(path, e))?;
    Ok(fs::metadata(path).map_err(|e| CliError::io(path, e))?.len())
}

/// Replay a WAL file (if given) into `dk`/`g`, returning a human-readable
/// one-liner about what was applied.
pub(super) fn replay_wal_file(
    dk: &mut DkIndex,
    g: &mut DataGraph,
    path: &str,
) -> Result<String, CliError> {
    let bytes = fs::read(path).map_err(|e| CliError::io(path, e))?;
    let report = wal::replay(dk, g, &bytes).map_err(|e| CliError::invalid(path, e))?;
    let torn = match report.tail {
        WalTail::Clean => "",
        WalTail::Torn { .. } => " (torn tail truncated)",
    };
    Ok(format!("replayed {} WAL record(s) from {path}{torn}", report.applied))
}

/// Open the WAL at `path` for appending when it exists (the writer
/// truncates a torn tail, so new commits extend the acknowledged prefix),
/// create it otherwise.
pub(super) fn open_or_create_wal(path: &str) -> Result<WalWriter, CliError> {
    let file = std::path::Path::new(path);
    if fs::metadata(file).is_ok() {
        WalWriter::open(file).map_err(|e| CliError::invalid(path, e))
    } else {
        WalWriter::create(file).map_err(|e| CliError::io(path, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::fixture::*;

    /// The rejection edge of the exit-code matrix: files in the formats
    /// that predate `DKSN` v2 and `DKWL` v4 are corrupt input (exit 4) with
    /// a message naming what is unsupported — never a panic, never a
    /// partial load or replay.
    #[test]
    fn pre_container_formats_are_exit_4_everywhere() {
        let dir = TempDir::new("legacy");
        let doc = write_doc(&dir);
        let idx = dir.file("index.dki");
        run(&["build", doc.to_str().unwrap(), "--out", idx.to_str().unwrap(), "--uniform", "1"])
            .unwrap();
        let idx = idx.to_str().unwrap();

        // A bare graph stream: the snapshot from its graph payload on, no
        // container in front.
        let snapshot = fs::read(idx).unwrap();
        let graph_at = snapshot.windows(4).position(|w| w == b"DKG2").unwrap();
        let legacy = dir.file("legacy.dki");
        fs::write(&legacy, &snapshot[graph_at..]).unwrap();
        let legacy = legacy.to_str().unwrap();
        for args in [&["query", legacy, "movie"][..], &["doctor", legacy][..]] {
            let err = run(args).unwrap_err();
            assert_eq!(err.exit_code(), 4, "{args:?}: {err}");
            assert!(err.to_string().contains("expected DKSN"), "{args:?}: {err}");
        }

        // A `DKSN` version 1 header: refused before any section is read.
        let mut v1 = snapshot.clone();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        let v1_index = dir.file("v1.dki");
        fs::write(&v1_index, &v1).unwrap();
        let v1_index = v1_index.to_str().unwrap();
        let verbs = [&["info", v1_index][..], &["doctor", v1_index], &["query", v1_index, "movie"]];
        for args in verbs {
            let err = run(args).unwrap_err();
            assert_eq!(err.exit_code(), 4, "{args:?}: {err}");
            assert!(err.to_string().contains("unsupported snapshot version 1"), "{args:?}: {err}");
        }

        // CRC-valid logs of older versions: `DKWL\x01…` with one unfenced
        // add-edge record, `DKWL\x03…` with one fenced promote (tag 2).
        let mut v1_log = b"DKWL\x01\0\0\0".to_vec();
        v1_log.extend([0x01, 0x03, 0, 0, 0, 0x01, 0, 0, 0, 0x6b, 0x60, 0x41, 0xc7]);
        let mut v3_log = b"DKWL\x03\0\0\0".to_vec();
        v3_log.extend([0x09, 0, 0, 0, 0x02, 0x01, 0, 0, 0, 0x02, 0, 0, 0, 0x3d, 0xf4, 0x5c, 0xae]);
        v3_log.extend([0x05, 0, 0, 0, 0x06, 0x01, 0, 0, 0, 0xd8, 0x65, 0xde, 0xf1]);
        for (version, log) in [(1, v1_log), (3, v3_log)] {
            let wal = dir.file(&format!("v{version}.wal")).to_str().unwrap().to_string();
            fs::write(&wal, &log).unwrap();
            let out = dir.file("out.dki");
            for args in [
                &["serve", idx, "--listen", "127.0.0.1:0", "--wal", &wal, "--duration-ms", "10"][..],
                &["snapshot", idx, "--wal", &wal, "--out", out.to_str().unwrap()][..],
                &["doctor", idx, "--wal", &wal][..],
            ] {
                let err = run(args).unwrap_err();
                assert_eq!(err.exit_code(), 4, "{args:?}: {err}");
                assert!(err.to_string().contains(&format!("WAL version {version}")), "{err}");
            }
            assert!(!out.exists(), "a rejected log must not produce a snapshot");
            assert_eq!(fs::read(&wal).unwrap(), log, "a rejected log is left untouched");
        }
    }
}
