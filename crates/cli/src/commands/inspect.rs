//! The read-only verbs: `stats`, `dot`, `info`, `doctor`.

use super::args::parse_args;
use super::files::{load_index, load_index_graceful, load_xml, read_query_file};
use super::CliError;
use dkindex_core::audit::{audit_dk, AuditConfig, Severity};
use dkindex_core::wal;
use dkindex_core::{mine_requirements, DkIndex, IndexEvaluator};
use dkindex_graph::stats::{label_histogram, GraphStats};
use dkindex_graph::LabeledGraph;
use dkindex_telemetry as telemetry;
use std::fmt::Write as _;
use std::fs;

pub(super) fn cmd_stats(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args)?;
    let [path] = parsed.positional[..] else {
        return Err(CliError::usage("stats expects exactly one XML file"));
    };
    let g = load_xml(path, &parsed.idrefs)?;
    let mut out = String::new();
    let _ = writeln!(out, "{}", GraphStats::of(&g));
    let _ = writeln!(out, "top labels:");
    for (name, count) in label_histogram(&g).into_iter().take(10) {
        let _ = writeln!(out, "  {name:<24} {count}");
    }

    // With a query file, exercise the build → query pipeline under the
    // telemetry recorder and append a hot-path report: D(k) construction
    // (requirements mined from the load), then evaluation of every query.
    if let Some(qfile) = parsed.queries {
        let queries = read_query_file(qfile)?;
        let was_enabled = telemetry::is_enabled();
        if !was_enabled {
            telemetry::reset();
            telemetry::enable();
        }
        let dk = {
            let _span = telemetry::Span::start(&telemetry::metrics::PHASE_BUILD_NS);
            DkIndex::build(&g, mine_requirements(&queries))
        };
        {
            let _span = telemetry::Span::start(&telemetry::metrics::PHASE_QUERY_NS);
            let mut evaluator = IndexEvaluator::new(dk.index(), &g);
            for q in &queries {
                evaluator.evaluate(q);
            }
        }
        if !was_enabled {
            telemetry::disable();
        }
        let _ = writeln!(
            out,
            "\ntelemetry (D(k) build + {} queries, {} index nodes):",
            queries.len(),
            dk.size()
        );
        out.push_str(&telemetry::snapshot().render_text());
    }
    Ok(out)
}

pub(super) fn cmd_dot(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args)?;
    let [path] = parsed.positional[..] else {
        return Err(CliError::usage("dot expects exactly one XML file"));
    };
    let g = load_xml(path, &parsed.idrefs)?;
    Ok(dkindex_graph::dot::to_dot(&g))
}

pub(super) fn cmd_info(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args)?;
    let [path] = parsed.positional[..] else {
        return Err(CliError::usage("info expects exactly one index file"));
    };
    let (dk, g) = load_index(path)?;
    let mut out = String::new();
    let _ = writeln!(out, "data graph: {}", GraphStats::of(&g));
    let _ = write!(out, "{}", dkindex_core::IndexStats::of(dk.index(), &g));
    Ok(out)
}

/// `doctor`: diagnose without repairing. Loads the file gracefully (so
/// section-level damage is reported rather than fatal), runs
/// the invariant auditor, and exits non-zero exactly when the stored index
/// could return wrong answers. With `--wal` the write-ahead log is
/// inspected too: a torn tail is the normal crash signature (recovery
/// truncates it — exit 0), a damaged *committed* record is corruption
/// (exit 5), and a file that is not a WAL this build reads — wrong magic
/// or an unsupported version — is corrupt input (exit 4).
pub(super) fn cmd_doctor(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args)?;
    let [path] = parsed.positional[..] else {
        return Err(CliError::usage("doctor expects exactly one index file"));
    };
    let (dk, g, recovery) = load_index_graceful(path)?;

    let report = audit_dk(&dk, &g, &AuditConfig::default());
    let mut out = String::new();
    let _ = writeln!(out, "{path}: {} data / {} index nodes", g.node_count(), dk.size());
    for note in &recovery.notes {
        let _ = writeln!(out, "  container: {note}");
    }

    let mut wal_corruptions = 0usize;
    if let Some(wal_path) = parsed.wal {
        let wal_bytes = fs::read(wal_path).map_err(|e| CliError::io(wal_path, e))?;
        let inspection =
            wal::inspect_wal(&wal_bytes).map_err(|e| CliError::invalid(wal_path, e))?;
        let _ = writeln!(
            out,
            "{wal_path}: WAL v{}, {} committed record(s), {} uncommitted",
            wal::VERSION, inspection.committed, inspection.uncommitted
        );
        match inspection.verdict {
            Ok(wal::WalTail::Clean) => {
                let _ = writeln!(out, "  tail: clean (file ends on the committed prefix)");
            }
            Ok(wal::WalTail::Torn { valid_len }) => {
                let _ = writeln!(
                    out,
                    "  tail: torn after byte {valid_len} (crash signature; recovery \
                     truncates the unacknowledged tail)"
                );
            }
            Err(wal::WalError::CorruptRecord { index, offset, reason }) => {
                let _ = writeln!(
                    out,
                    "  record {index} at byte {offset} is damaged: {reason} \
                     (bit rot or tampering, not a crash)"
                );
                wal_corruptions = 1;
            }
            Err(e) => return Err(CliError::invalid(wal_path, e)),
        }
    }
    out.push_str(&report.render_text());

    // A rebuilt/degraded section is storage corruption even though the
    // in-memory index (post-recovery) audits clean; so is a damaged
    // committed WAL record.
    let corruptions = report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Corruption)
        .count()
        + recovery.notes.len()
        + wal_corruptions;
    if corruptions > 0 {
        return Err(CliError::Unsound { corruptions, report: out });
    }
    if report.is_clean() {
        let _ = writeln!(out, "index is healthy");
    } else {
        let _ = writeln!(out, "index is degraded but exact (promotion will restore targets)");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::fixture::*;
    use dkindex_core::ServeOp;
    use dkindex_core::wal::WalWriter;
    use dkindex_graph::NodeId;

    #[test]
    fn stats_reports_shape() {
        let dir = TempDir::new("stats");
        let doc = write_doc(&dir);
        let out = run(&["stats", doc.to_str().unwrap()]).unwrap();
        assert!(out.contains("nodes"));
        assert!(out.contains("refs"));
        assert!(out.contains("name"));
    }

    #[test]
    fn dot_emits_digraph() {
        let dir = TempDir::new("dot");
        let doc = write_doc(&dir);
        let out = run(&["dot", doc.to_str().unwrap()]).unwrap();
        assert!(out.starts_with("digraph"));
        assert!(out.contains("style=dashed")); // the idref edge
    }

    #[test]
    fn stats_with_queries_appends_telemetry_report() {
        let _guard = telemetry_test_lock();
        let dir = TempDir::new("statstel");
        let doc = write_doc(&dir);
        let queries = dir.file("load.txt");
        fs::write(&queries, "director.movie.title\nmovie.title\n").unwrap();
        let out = run(&[
            "stats",
            doc.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("nodes"), "{out}"); // plain stats still present
        assert!(out.contains("telemetry"), "{out}");
        assert!(out.contains("eval.queries"), "{out}");
        assert!(out.contains("dk.constructions"), "{out}");
        assert!(out.contains("phase.build_ns"), "{out}");
        assert!(out.contains("phase.query_ns"), "{out}");
    }

    #[test]
    fn corrupt_index_is_a_typed_error_not_a_panic() {
        let dir = TempDir::new("corrupt");
        let doc = write_doc(&dir);
        let idx = dir.file("index.dki");
        run(&["build", doc.to_str().unwrap(), "--out", idx.to_str().unwrap()]).unwrap();
        let healthy = fs::read(&idx).unwrap();
        let mut bytes = healthy.clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let bad = dir.file("bad.dki");
        fs::write(&bad, &bytes).unwrap();
        // The strict consumer (info) refuses any damage with exit code 4;
        // doctor reports what is wrong with exit code 4 or 5 — nobody panics.
        let err = run(&["info", bad.to_str().unwrap()]).unwrap_err();
        assert_eq!(err.exit_code(), 4, "info: {err}");
        let err = run(&["doctor", bad.to_str().unwrap()]).unwrap_err();
        assert!(err.exit_code() == 4 || err.exit_code() == 5, "{err}");
        // query serves through recovery when it can, but unrecoverable
        // damage (a broken graph section) is still a typed exit-4 error.
        let grph_at = healthy
            .windows(4)
            .position(|w| w == b"GRPH")
            .expect("snapshot has a GRPH section");
        let mut bytes = healthy.clone();
        bytes[grph_at + 16] ^= 0xFF;
        let bad_graph = dir.file("bad-graph.dki");
        fs::write(&bad_graph, &bytes).unwrap();
        let err = run(&["query", bad_graph.to_str().unwrap(), "movie"]).unwrap_err();
        assert_eq!(err.exit_code(), 4, "query: {err}");
    }

    /// The `doctor --wal` exit-code matrix: 0 for a clean log *and* for the
    /// torn-tail crash signature (recovery handles it), 3 for a missing
    /// file, 4 for a file that is not a WAL, 5 when a *committed* record is
    /// damaged (bit rot — replay would lose an acknowledged update).
    #[test]
    fn doctor_wal_report_covers_the_exit_code_matrix() {
        let dir = TempDir::new("doctor-wal");
        let doc = write_doc(&dir);
        let idx = dir.file("index.dki");
        run(&["build", doc.to_str().unwrap(), "--out", idx.to_str().unwrap(), "--uniform", "1"])
            .unwrap();
        let idx = idx.to_str().unwrap();

        // 3: the WAL path does not exist.
        let missing = dir.file("missing.wal");
        let err = run(&["doctor", idx, "--wal", missing.to_str().unwrap()]).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");

        // 0 + clean: one committed record, file ends on its fence.
        let wal_path = dir.file("log.wal");
        let mut writer = WalWriter::create(&wal_path).unwrap();
        writer
            .append_batch(&[ServeOp::AddEdge {
                from: NodeId::from_index(1),
                to: NodeId::from_index(5),
            }])
            .unwrap();
        drop(writer);
        let out = run(&["doctor", idx, "--wal", wal_path.to_str().unwrap()]).unwrap();
        assert!(out.contains("WAL v4, 1 committed record(s), 0 uncommitted"), "{out}");
        assert!(out.contains("tail: clean"), "{out}");

        // 0 + torn: a partial record after the last fence is the crash
        // signature, not corruption.
        let healthy = fs::read(&wal_path).unwrap();
        let mut torn = healthy.clone();
        torn.extend_from_slice(&[9, 0, 0, 0, 1]); // length prefix + 1 of 13 framed bytes
        let torn_path = dir.file("torn.wal");
        fs::write(&torn_path, &torn).unwrap();
        let out = run(&["doctor", idx, "--wal", torn_path.to_str().unwrap()]).unwrap();
        assert!(out.contains("tail: torn"), "{out}");

        // 5: a bit flip inside a committed record body fails its CRC.
        let mut rotted = healthy.clone();
        rotted[12] ^= 0x01; // first body byte of the committed record
        let rotted_path = dir.file("rotted.wal");
        fs::write(&rotted_path, &rotted).unwrap();
        let err =
            run(&["doctor", idx, "--wal", rotted_path.to_str().unwrap()]).unwrap_err();
        assert_eq!(err.exit_code(), 5, "{err}");

        // 4: not a WAL at all.
        let junk_path = dir.file("junk.wal");
        fs::write(&junk_path, b"definitely not a WAL").unwrap();
        let err = run(&["doctor", idx, "--wal", junk_path.to_str().unwrap()]).unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
    }
}
