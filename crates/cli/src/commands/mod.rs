//! Command implementations for the `dkindex` binary, one file per verb
//! family. Each command returns its textual output so the test suite can
//! drive the full CLI in-process (`tests/binary.rs` drives the binary).
//!
//! Failures are typed ([`CliError`]) and each class maps to a distinct exit
//! code (see [`CliError::exit_code`]); no user input — malformed flags,
//! unreadable files, corrupt indexes, hostile XML — reaches a panic.

mod args;
mod build;
mod client;
mod durable;
mod files;
#[cfg(test)]
mod fixture;
mod inspect;
mod query;
mod serve;
mod update;

use dkindex_core::ServeError;
use dkindex_telemetry as telemetry;
use std::fs;

/// CLI usage text.
pub const USAGE: &str = "\
usage:
  dkindex stats <doc.xml> [--queries <file>] [--idref ATTR]...
  dkindex dot   <doc.xml> [--idref ATTR]...
  dkindex build <doc.xml> --out <index.dki> [--req LABEL=K]... [--uniform K]
                [--queries <file>] [--idref ATTR]...
  dkindex info  <index.dki>
  dkindex query <index.dki> <path-expression> [--budget N]
  dkindex add-edge <index.dki> <from-id> <to-id> --out <index2.dki>
                [--wal <file.wal>]
  dkindex add-file <index.dki> <doc.xml> --out <index2.dki> [--idref ATTR]...
  dkindex tune  <index.dki> --queries <file> --out <index2.dki>
                (one tuner window: promotes, demotes or holds as serve would)
  dkindex snapshot <index.dki> --out <snap.dki> [--wal <file.wal>]
  dkindex recover  <snap.dki> --out <fixed.dki> [--wal <file.wal>]
  dkindex doctor   <index.dki> [--wal <file.wal>]
  dkindex serve <index.dki> --listen <addr> [--workers N] [--accept-queue N]
                [--staleness N] [--budget N] [--batch N] [--duration-ms N]
                [--wal <file.wal>] [--tune-interval N] [--tune-window N]
  dkindex client <addr> [--ping] [--query <expr> [--budget N] [--rounds N]]
                [--update FROM:TO] [--stats]

global flags:
  --metrics <path>   record hot-path telemetry across the command and write
                     a JSON snapshot to <path> on success

path expressions: at most 512 nodes (one per label, _, ., |, ?, *) and 64
  nested parentheses; a longer or deeper one is a syntax error (exit 2)

exit codes:
  0 success   2 usage/query syntax   3 I/O   4 corrupt input
  5 doctor found corruption          6 query aborted (budget)
  7 serve maintenance thread died    8 request shed (retry later)";

/// Top-level error type: every failure class is distinguishable by the
/// caller, and each maps to its own process exit code.
#[derive(Debug)]
pub enum CliError {
    /// Malformed command line: unknown command or flag, missing argument,
    /// unparseable number or `LABEL=K` spec.
    Usage(String),
    /// A file could not be read or written.
    Io {
        /// The path the operation failed on.
        path: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// An input file was readable but its content is malformed — hostile
    /// XML, a corrupt snapshot or WAL, a file in an unsupported format.
    Invalid {
        /// The offending file.
        path: String,
        /// What was wrong with it.
        message: String,
    },
    /// A path expression failed to parse.
    Query(String),
    /// `doctor` found invariant violations that make answers untrustworthy.
    Unsound {
        /// Number of corruption-severity findings.
        corruptions: usize,
        /// The rendered report.
        report: String,
    },
    /// A bounded query exhausted its visit budget.
    Aborted(String),
    /// The serve maintenance thread died before the run completed.
    Serve(ServeError),
    /// The server shed the request under overload or drain
    /// (docs/PROTOCOL.md §5.2): nothing was executed, retry after backoff.
    Shed(String),
}

impl CliError {
    /// The process exit code for this failure class.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) | CliError::Query(_) => 2,
            CliError::Io { .. } => 3,
            CliError::Invalid { .. } => 4,
            CliError::Unsound { .. } => 5,
            CliError::Aborted(_) => 6,
            CliError::Serve(_) => 7,
            CliError::Shed(_) => 8,
        }
    }

    fn usage(message: impl Into<String>) -> CliError {
        CliError::Usage(message.into())
    }

    fn io(path: impl Into<String>, source: std::io::Error) -> CliError {
        CliError::Io { path: path.into(), source }
    }

    fn invalid(path: impl Into<String>, message: impl ToString) -> CliError {
        CliError::Invalid {
            path: path.into(),
            message: message.to_string(),
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Query(m) | CliError::Aborted(m) => write!(f, "{m}"),
            CliError::Io { path, source } => write!(f, "cannot access {path}: {source}"),
            CliError::Invalid { path, message } => write!(f, "{path}: {message}"),
            CliError::Unsound { corruptions, report } => {
                write!(f, "index is unsound ({corruptions} corruption finding(s))\n{report}")
            }
            CliError::Serve(e) => write!(f, "serve failed: {e}"),
            CliError::Shed(m) => write!(f, "request shed: {m}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Io { source, .. } => Some(source),
            CliError::Serve(source) => Some(source),
            _ => None,
        }
    }
}

/// Dispatch a full argument vector (without the program name).
///
/// The global `--metrics <path>` flag is handled here, before the command is
/// chosen: the telemetry recorder is reset and enabled for the duration of
/// the command, and the resulting snapshot is written to `<path>` as JSON
/// when the command succeeds. Telemetry never changes a command's output —
/// only observes it.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    let mut args = args.to_vec();
    let metrics_path = extract_metrics_flag(&mut args)?;
    if metrics_path.is_some() {
        telemetry::reset();
        telemetry::enable();
    }
    let result = dispatch_command(&args);
    if let Some(path) = metrics_path {
        telemetry::disable();
        if result.is_ok() {
            fs::write(&path, telemetry::snapshot().to_json())
                .map_err(|e| CliError::io(&path, e))?;
        }
    }
    result
}

/// Strip `--metrics <path>` (anywhere in the argument vector) and return the
/// path if the flag was present.
fn extract_metrics_flag(args: &mut Vec<String>) -> Result<Option<String>, CliError> {
    let Some(pos) = args.iter().position(|a| a == "--metrics") else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(CliError::usage("flag --metrics needs a value"));
    }
    let path = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(path))
}

fn dispatch_command(args: &[String]) -> Result<String, CliError> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("stats") => inspect::cmd_stats(&args[1..]),
        Some("dot") => inspect::cmd_dot(&args[1..]),
        Some("build") => build::cmd_build(&args[1..]),
        Some("info") => inspect::cmd_info(&args[1..]),
        Some("query") => query::cmd_query(&args[1..]),
        Some("add-edge") => update::cmd_add_edge(&args[1..]),
        Some("add-file") => update::cmd_add_file(&args[1..]),
        Some("tune") => build::cmd_tune(&args[1..]),
        Some("snapshot") => durable::cmd_resave(&args[1..], false),
        Some("recover") => durable::cmd_resave(&args[1..], true),
        Some("doctor") => inspect::cmd_doctor(&args[1..]),
        Some("serve") => serve::cmd_serve(&args[1..]),
        Some("client") => client::cmd_client(&args[1..]),
        Some("--help") | Some("-h") => Ok(format!("{USAGE}\n")),
        Some(other) => Err(CliError::usage(format!("unknown command {other:?}"))),
        None => Err(CliError::usage("missing command")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::fixture::*;

    #[test]
    fn metrics_flag_writes_snapshot_and_leaves_output_unchanged() {
        let _guard = telemetry_test_lock();
        let dir = TempDir::new("metrics");
        let doc = write_doc(&dir);
        let idx = dir.file("index.dki");
        let plain = run(&[
            "build",
            doc.to_str().unwrap(),
            "--out",
            idx.to_str().unwrap(),
            "--uniform",
            "1",
        ])
        .unwrap();

        let idx2 = dir.file("index2.dki");
        let metrics = dir.file("METRICS.json");
        let recorded = run(&[
            "build",
            doc.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
            "--out",
            idx2.to_str().unwrap(),
            "--uniform",
            "1",
        ])
        .unwrap();
        // Telemetry observes; it must not change what the command reports
        // (up to the differing output path) or builds.
        assert_eq!(
            plain.replace(idx.to_str().unwrap(), "X"),
            recorded.replace(idx2.to_str().unwrap(), "X")
        );
        assert_eq!(fs::read(&idx).unwrap(), fs::read(&idx2).unwrap());

        let json = fs::read_to_string(&metrics).unwrap();
        assert!(json.contains("\"counters\""), "{json}");
        assert!(json.contains("\"histograms\""), "{json}");
        assert!(json.contains("\"dk.constructions\""), "{json}");
        assert!(!telemetry::is_enabled());
    }

    #[test]
    fn metrics_flag_requires_a_value() {
        let err = run(&["build", "doc.xml", "--metrics"]).unwrap_err();
        assert!(err.to_string().contains("--metrics"), "{err}");
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn helpful_errors_with_typed_exit_codes() {
        assert_eq!(run(&[]).unwrap_err().exit_code(), 2);
        assert_eq!(run(&["frobnicate"]).unwrap_err().exit_code(), 2);
        let err = run(&["build", "nope.xml"]).unwrap_err();
        assert!(err.to_string().contains("--out"));
        assert_eq!(err.exit_code(), 2);
        let err = run(&["query", "missing.dki", "a.b"]).unwrap_err();
        assert!(err.to_string().contains("missing.dki"));
        assert_eq!(err.exit_code(), 3);
        let dir = TempDir::new("err");
        let doc = write_doc(&dir);
        let err = run(&["build", doc.to_str().unwrap(), "--out", "/x", "--req", "bad"])
            .unwrap_err();
        assert!(err.to_string().contains("LABEL=K"));
        assert_eq!(err.exit_code(), 2);
        // A bad query expression against a real index is a syntax error.
        let idx = dir.file("index.dki");
        run(&["build", doc.to_str().unwrap(), "--out", idx.to_str().unwrap()]).unwrap();
        let err = run(&["query", idx.to_str().unwrap(), "movie..title"]).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        // So is one over the nesting or size cap (the two shapes that used to
        // overflow the stack), also from a --queries file, named by line.
        let nested = format!("{}title{}", "(".repeat(10_000), ")".repeat(10_000));
        for text in [nested.clone(), vec!["a"; 500_000].join(".")] {
            let err = run(&["query", idx.to_str().unwrap(), &text]).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{err}");
        }
        let load = dir.file("load.txt");
        fs::write(&load, format!("movie.title\n{nested}\n")).unwrap();
        let err = run(&["stats", doc.to_str().unwrap(), "--queries", load.to_str().unwrap()])
            .unwrap_err();
        assert!(err.exit_code() == 2 && err.to_string().contains("load.txt:2:"), "{err}");
        // The twig verb left with the F&B island it fronted.
        let err = run(&["twig", doc.to_str().unwrap(), "director[movie]/name"]).unwrap_err();
        assert!(err.exit_code() == 2 && err.to_string().contains("unknown command"), "{err}");
        // So did the flags of the in-process serve harness.
        for flag in ["--threads", "--updates"] {
            let err = run(&["serve", idx.to_str().unwrap(), "--listen", "127.0.0.1:0", flag, "2"])
                .unwrap_err();
            assert!(err.exit_code() == 2 && err.to_string().contains("unknown flag"), "{err}");
        }
    }

    /// End-to-end assertion of the whole exit-code matrix: 0 success,
    /// 2 usage, 3 I/O, 4 corrupt, 5 unsound, 6 aborted — including the
    /// regression for budget aborts on a *recoverable* snapshot, which must
    /// be exit 6 (aborted), not exit 4 (corrupt).
    #[test]
    fn exit_code_matrix_is_asserted_end_to_end() {
        let dir = TempDir::new("exit-matrix");
        let doc = write_doc(&dir);
        let idx = dir.file("index.dki");

        // 0: a healthy build → query pipeline succeeds.
        run(&["build", doc.to_str().unwrap(), "--out", idx.to_str().unwrap(), "--uniform", "1"])
            .unwrap();
        run(&["query", idx.to_str().unwrap(), "movie.title"]).unwrap();

        // 2: usage errors and query syntax errors.
        assert_eq!(run(&["query", idx.to_str().unwrap()]).unwrap_err().exit_code(), 2);
        assert_eq!(
            run(&["query", idx.to_str().unwrap(), "movie..title"]).unwrap_err().exit_code(),
            2
        );

        // 3: unreadable input file.
        let missing = dir.file("missing.dki");
        assert_eq!(
            run(&["query", missing.to_str().unwrap(), "movie"]).unwrap_err().exit_code(),
            3
        );

        let healthy = fs::read(&idx).unwrap();

        // 4: unrecoverable corruption — damage the GRPH payload; without an
        // intact graph there is nothing to rebuild the index from.
        let grph_at = healthy
            .windows(4)
            .position(|w| w == b"GRPH")
            .expect("snapshot has a GRPH section");
        let mut bytes = healthy.clone();
        bytes[grph_at + 16] ^= 0xFF;
        let bad_graph = dir.file("bad-graph.dki");
        fs::write(&bad_graph, &bytes).unwrap();
        assert_eq!(
            run(&["query", bad_graph.to_str().unwrap(), "movie"]).unwrap_err().exit_code(),
            4
        );

        // 5: recoverable INDX damage — doctor flags the stored index as
        // untrustworthy.
        let mut bytes = healthy.clone();
        let pos = bytes.len() - 12; // inside the INDX payload
        bytes[pos] ^= 0x01;
        let bad_index = dir.file("bad-index.dki");
        fs::write(&bad_index, &bytes).unwrap();
        assert_eq!(
            run(&["doctor", bad_index.to_str().unwrap()]).unwrap_err().exit_code(),
            5
        );

        // 6: a budget abort is exit 6 on a healthy snapshot…
        let err =
            run(&["query", idx.to_str().unwrap(), "movie.title", "--budget", "0"]).unwrap_err();
        assert_eq!(err.exit_code(), 6, "{err}");
        // …and on a recoverable snapshot: query rebuilds the index from the
        // intact graph and the abort keeps its own failure class (the old
        // behavior surfaced this as exit 4).
        let err = run(&[
            "query",
            bad_index.to_str().unwrap(),
            "movie.title",
            "--budget",
            "0",
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 6, "{err}");
        // Sanity: without a budget the recovered snapshot answers normally.
        let out = run(&["query", bad_index.to_str().unwrap(), "movie.title"]).unwrap();
        assert!(out.contains("match(es)"), "{out}");
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&["--help"]).unwrap();
        assert!(out.contains("usage:"));
        assert!(out.contains("doctor"));
        assert!(out.contains("serve"));
        assert!(out.contains("exit codes"));
    }
}
