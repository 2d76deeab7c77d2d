//! Command implementations for the `dkindex` binary. Each command returns
//! its textual output so the test suite can drive the full CLI in-process.
//!
//! Failures are typed ([`CliError`]) and each class maps to a distinct exit
//! code (see [`CliError::exit_code`]); no user input — malformed flags,
//! unreadable files, corrupt indexes, hostile XML — reaches a panic.

use dkindex_core::audit::{audit_dk, AuditConfig, Severity};
use dkindex_core::snapshot::{load_with_recovery, read_snapshot, save_snapshot_file, Recovery};
use dkindex_core::wal::{self, WalTail, WalWriter};
use dkindex_core::{
    apply_serial, mine_requirements, DkIndex, DkServer, IndexEvaluator, Requirements,
    ServeConfig, ServeError, ServeOp, Tuner, TunerConfig,
};
use dkindex_graph::stats::{label_histogram, GraphStats};
use dkindex_graph::{DataGraph, LabeledGraph, NodeId};
use dkindex_pathexpr::{parse, PathExpr};
use dkindex_server::{ConnectError, ErrorCode, Frame, NetClient, NetConfig, NetServer};
use dkindex_telemetry as telemetry;
use dkindex_xml::{stream_to_graph, GraphOptions};
use std::fmt::Write as _;
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
        Some("stats") => cmd_stats(&args[1..]),
        Some("dot") => cmd_dot(&args[1..]),
        Some("build") => cmd_build(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("add-edge") => cmd_add_edge(&args[1..]),
        Some("add-file") => cmd_add_file(&args[1..]),
        Some("tune") => cmd_tune(&args[1..]),
        Some("snapshot") => cmd_resave(&args[1..], false),
        Some("recover") => cmd_resave(&args[1..], true),
        Some("doctor") => cmd_doctor(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("--help") | Some("-h") => Ok(format!("{USAGE}\n")),
        Some(other) => Err(CliError::usage(format!("unknown command {other:?}"))),
        None => Err(CliError::usage("missing command")),
    }
}

/// Positional/flag splitter shared by all commands.
#[derive(Default)]
struct Parsed<'a> {
    positional: Vec<&'a str>,
    idrefs: Vec<String>,
    reqs: Vec<(String, usize)>,
    uniform: Option<usize>,
    out: Option<&'a str>,
    queries: Option<&'a str>,
    wal: Option<&'a str>,
    budget: Option<u64>,
    batch: Option<usize>,
    rounds: Option<usize>,
    listen: Option<&'a str>,
    workers: Option<usize>,
    accept_queue: Option<usize>,
    staleness: Option<u64>,
    duration_ms: Option<u64>,
    tune_interval: Option<usize>,
    tune_window: Option<usize>,
    query: Option<&'a str>,
    update: Option<&'a str>,
    ping: bool,
    stats: bool,
}

fn parse_args<'a>(args: &'a [String]) -> Result<Parsed<'a>, CliError> {
    let mut parsed = Parsed::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--idref" => parsed
                .idrefs
                .push(next_value(&mut it, "--idref")?.to_string()),
            "--req" => {
                let spec = next_value(&mut it, "--req")?;
                let (label, k) = spec
                    .split_once('=')
                    .ok_or_else(|| CliError::usage(format!("--req expects LABEL=K, got {spec:?}")))?;
                let k: usize = k
                    .parse()
                    .map_err(|_| CliError::usage(format!("--req {label}: K must be a number")))?;
                parsed.reqs.push((label.to_string(), k));
            }
            "--uniform" => parsed.uniform = Some(next_number(&mut it, "--uniform")?),
            "--budget" => parsed.budget = Some(next_number(&mut it, "--budget")?),
            "--batch" => parsed.batch = Some(next_number(&mut it, "--batch")?),
            "--rounds" => parsed.rounds = Some(next_number(&mut it, "--rounds")?),
            "--workers" => parsed.workers = Some(next_number(&mut it, "--workers")?),
            "--accept-queue" => parsed.accept_queue = Some(next_number(&mut it, "--accept-queue")?),
            "--staleness" => parsed.staleness = Some(next_number(&mut it, "--staleness")?),
            "--duration-ms" => parsed.duration_ms = Some(next_number(&mut it, "--duration-ms")?),
            "--tune-interval" => parsed.tune_interval = Some(next_number(&mut it, "--tune-interval")?),
            "--tune-window" => parsed.tune_window = Some(next_number(&mut it, "--tune-window")?),
            "--out" => parsed.out = Some(next_value(&mut it, "--out")?),
            "--queries" => parsed.queries = Some(next_value(&mut it, "--queries")?),
            "--wal" => parsed.wal = Some(next_value(&mut it, "--wal")?),
            "--listen" => parsed.listen = Some(next_value(&mut it, "--listen")?),
            "--query" => parsed.query = Some(next_value(&mut it, "--query")?),
            "--update" => parsed.update = Some(next_value(&mut it, "--update")?),
            "--ping" => parsed.ping = true,
            "--stats" => parsed.stats = true,
            flag if flag.starts_with("--") => {
                return Err(CliError::usage(format!("unknown flag {flag:?}")))
            }
            positional => parsed.positional.push(positional),
        }
    }
    Ok(parsed)
}

fn next_value<'a>(
    it: &mut std::slice::Iter<'a, String>,
    flag: &str,
) -> Result<&'a str, CliError> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| CliError::usage(format!("flag {flag} needs a value")))
}

/// The value of a numeric flag, or the usage error naming the flag.
fn next_number<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, CliError> {
    next_value(it, flag)?
        .parse()
        .map_err(|_| CliError::usage(format!("{flag} expects a number")))
}

/// Read a query-load file: one path expression per line, `#` comments and
/// blank lines ignored.
fn read_query_file(path: &str) -> Result<Vec<PathExpr>, CliError> {
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

fn load_xml(path: &str, idrefs: &[String]) -> Result<DataGraph, CliError> {
    let text = fs::read_to_string(path).map_err(|e| CliError::io(path, e))?;
    let mut options = GraphOptions::default();
    if !idrefs.is_empty() {
        options.idref_attributes = idrefs.to_vec();
    }
    // Streaming build: O(depth) memory, same graph as the DOM path.
    stream_to_graph(&text, &options).map_err(|e| CliError::invalid(path, e))
}

/// Load a `DKSN` snapshot. Strict: corruption is a typed error, never a
/// panic (see [`load_index_graceful`] for the recovering path).
fn load_index(path: &str) -> Result<(DkIndex, DataGraph), CliError> {
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
fn load_index_graceful(path: &str) -> Result<(DkIndex, DataGraph, Recovery), CliError> {
    let bytes = fs::read(path).map_err(|e| CliError::io(path, e))?;
    load_with_recovery(&bytes).map_err(|e| CliError::invalid(path, e))
}

/// Write `dk` + `g` to `path` as a checksummed snapshot — atomically, so a
/// crash mid-save (even with `path` equal to the input) leaves the old file
/// or the new one, never a torn one. Returns the byte count written.
fn save_index(dk: &DkIndex, g: &DataGraph, path: &str) -> Result<u64, CliError> {
    save_snapshot_file(dk, g, std::path::Path::new(path)).map_err(|e| CliError::io(path, e))?;
    Ok(fs::metadata(path).map_err(|e| CliError::io(path, e))?.len())
}

/// Replay a WAL file (if given) into `dk`/`g`, returning a human-readable
/// one-liner about what was applied.
fn replay_wal_file(
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
fn open_or_create_wal(path: &str) -> Result<WalWriter, CliError> {
    let file = std::path::Path::new(path);
    if fs::metadata(file).is_ok() {
        WalWriter::open(file).map_err(|e| CliError::invalid(path, e))
    } else {
        WalWriter::create(file).map_err(|e| CliError::io(path, e))
    }
}

fn cmd_stats(args: &[String]) -> Result<String, CliError> {
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

fn cmd_dot(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args)?;
    let [path] = parsed.positional[..] else {
        return Err(CliError::usage("dot expects exactly one XML file"));
    };
    let g = load_xml(path, &parsed.idrefs)?;
    Ok(dkindex_graph::dot::to_dot(&g))
}

fn cmd_build(args: &[String]) -> Result<String, CliError> {
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

fn cmd_info(args: &[String]) -> Result<String, CliError> {
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

fn cmd_query(args: &[String]) -> Result<String, CliError> {
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

fn cmd_add_edge(args: &[String]) -> Result<String, CliError> {
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
            .append(&ServeOp::AddEdge { from: from_node, to: to_node })
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

fn cmd_add_file(args: &[String]) -> Result<String, CliError> {
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

fn cmd_tune(args: &[String]) -> Result<String, CliError> {
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
        tuner.record(q, out.validated, false);
    }
    let before = dk.size();
    let report = match tuner.step(dk.requirements()) {
        Some(op) => {
            let verb = if matches!(op, ServeOp::Demote(_)) { "demoted" } else { "promoted" };
            apply_serial(&mut dk, &mut g, &[op]);
            format!("{verb}: size {before} -> {}", dk.size())
        }
        None => format!("held: size {before}"),
    };
    save_index(&dk, &g, out_path)?;
    Ok(format!("{report} -> {out_path}\n"))
}

/// `snapshot` and `recover`: load an index, optionally replay a WAL on
/// top, and write the result as a fresh checksummed `DKSN` snapshot,
/// atomically. `snapshot` loads strictly; `recover` loads gracefully — a
/// (possibly damaged) snapshot whose index is rebuilt from the data graph
/// where necessary — and fails only on an unrecoverable file (damaged
/// graph section).
fn cmd_resave(args: &[String], recover: bool) -> Result<String, CliError> {
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

/// `doctor`: diagnose without repairing. Loads the file gracefully (so
/// section-level damage is reported rather than fatal), runs
/// the invariant auditor, and exits non-zero exactly when the stored index
/// could return wrong answers. With `--wal` the write-ahead log is
/// inspected too: a torn tail is the normal crash signature (recovery
/// truncates it — exit 0), a damaged *committed* record is corruption
/// (exit 5), and a file that is not a WAL this build reads — wrong magic
/// or an unsupported version — is corrupt input (exit 4).
fn cmd_doctor(args: &[String]) -> Result<String, CliError> {
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
            wal::WalVerdict::Clean => {
                let _ = writeln!(out, "  tail: clean (file ends on the committed prefix)");
            }
            wal::WalVerdict::TornTail { valid_len } => {
                let _ = writeln!(
                    out,
                    "  tail: torn after byte {valid_len} (crash signature; recovery \
                     truncates the unacknowledged tail)"
                );
            }
            wal::WalVerdict::Corrupt { index, offset, reason } => {
                let _ = writeln!(
                    out,
                    "  record {index} at byte {offset} is damaged: {reason} \
                     (bit rot or tampering, not a crash)"
                );
                wal_corruptions = 1;
            }
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

/// `serve`: expose the index over the DKNP wire protocol
/// (docs/PROTOCOL.md) on a TCP listener. Runs until `--duration-ms`
/// elapses (or stdin reaches EOF when the flag is absent), then drains
/// gracefully: new connects are refused, established connections get the
/// grace window, every admitted update is applied before exit
/// (PROTOCOL.md §7, docs/OPERATIONS.md).
///
/// With `--wal` the server recovers from the log on start (replaying the
/// committed prefix over the loaded index) and runs with durable
/// acknowledgments: every UPDATE_OK means the op's group commit has been
/// fsynced to the log (PROTOCOL.md §8, OPERATIONS.md recovery runbook).
fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args)?;
    let [index_path] = parsed.positional[..] else {
        return Err(CliError::usage("serve expects exactly one index file"));
    };
    let addr = parsed
        .listen
        .ok_or_else(|| CliError::usage("serve needs --listen <addr>"))?;
    let tuner = TunerConfig::default();
    let cfg = ServeConfig {
        max_batch: parsed.batch.unwrap_or(8).max(1),
        tune_interval: parsed.tune_interval.unwrap_or(0),
        tuner: TunerConfig { window: parsed.tune_window.unwrap_or(tuner.window), ..tuner },
        ..ServeConfig::default()
    };
    let (mut dk, mut g, _) = load_index_graceful(index_path)?;
    let mut wal_notes = Vec::new();
    let server = match parsed.wal {
        Some(wal_path) => {
            if fs::metadata(wal_path).is_ok() {
                // Recover first (replays the committed prefix, ignores the
                // unacknowledged tail), then reopen for appending — the
                // writer truncates the torn tail so new commits extend the
                // acknowledged prefix.
                let note = replay_wal_file(&mut dk, &mut g, wal_path)?;
                wal_notes.push(note);
            } else {
                wal_notes.push(format!("created WAL at {wal_path}"));
            }
            let writer = open_or_create_wal(wal_path)?;
            DkServer::start_logged(g, dk, cfg, Box::new(writer))
        }
        None => DkServer::start(g, dk, cfg),
    };
    let durable = server.is_logged();

    let net = NetConfig::default();
    let cfg = NetConfig {
        workers: parsed.workers.unwrap_or(net.workers),
        accept_queue: parsed.accept_queue.unwrap_or(net.accept_queue),
        staleness_threshold: parsed.staleness.unwrap_or(net.staleness_threshold),
        default_budget: parsed.budget.unwrap_or(net.default_budget),
        ..net
    };
    let net = NetServer::start(server, addr, cfg).map_err(|e| CliError::io(addr, e))?;
    let bound = net.local_addr();
    // Announced on stderr immediately so scripts binding port 0 can read
    // the real address before the run ends.
    eprintln!("dkindex serve: listening on {bound} (DKNP v1)");

    if let Some(ms) = parsed.duration_ms {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    } else {
        // Foreground mode: serve until the operator closes stdin (^D) or
        // the pipe feeding us ends. Whatever arrives is discarded as it is
        // read, so a long-running server holds none of it.
        let _ = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());
    }

    let shutdown = net.shutdown().map_err(CliError::Serve)?;
    let mut out = String::new();
    for note in wal_notes {
        let _ = writeln!(out, "{note}");
    }
    let _ = writeln!(out, "served on {bound}");
    if durable {
        let _ = writeln!(out, "durable acks: every UPDATE_OK was fsynced to the WAL");
    }
    let _ = writeln!(
        out,
        "drained in {} ms; every admitted update applied",
        shutdown.drain.as_millis()
    );
    let _ = writeln!(
        out,
        "final index has {} nodes over {} data nodes",
        shutdown.index.size(),
        shutdown.data.node_count()
    );
    Ok(out)
}

/// `client`: a DKNP client for smoke tests and operations. Actions run in
/// a fixed order on one connection: `--ping`, then `--query` (repeated
/// `--rounds` times), then `--update FROM:TO`, then `--stats`; with no
/// action flags it just performs the handshake and one ping. Server-side
/// refusals map onto the documented exit codes: a typed SHED is exit 8
/// (retry later, PROTOCOL.md §5.2), bad query text is 2, an exhausted
/// budget is 6, protocol-level rejections are 4.
fn cmd_client(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args)?;
    let [addr] = parsed.positional[..] else {
        return Err(CliError::usage("client expects exactly one server address"));
    };
    let update = parsed
        .update
        .map(|spec| -> Result<(u64, u64), CliError> {
            let (from, to) = spec
                .split_once(':')
                .ok_or_else(|| CliError::usage(format!("--update expects FROM:TO, got {spec:?}")))?;
            let from = from
                .parse()
                .map_err(|_| CliError::usage("--update FROM must be a number"))?;
            let to = to
                .parse()
                .map_err(|_| CliError::usage("--update TO must be a number"))?;
            Ok((from, to))
        })
        .transpose()?;

    let mut client = NetClient::connect(addr).map_err(|e| match e {
        ConnectError::Io(err) => CliError::io(addr, err),
        ConnectError::TimedOut => CliError::io(
            addr,
            std::io::Error::new(std::io::ErrorKind::TimedOut, "connect or handshake timed out"),
        ),
        ConnectError::Shed { retry_after_ms } => CliError::Shed(format!(
            "server shed the connection (queue full); retry after {retry_after_ms} ms"
        )),
        ConnectError::Refused { code, message } => {
            CliError::invalid(addr, format!("handshake refused ({code:?}): {message}"))
        }
        ConnectError::Protocol(message) => CliError::invalid(addr, message),
    })?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "connected to {addr}: DKNP v1, epoch {}",
        client.epoch_at_welcome()
    );

    let no_actions = !parsed.ping && parsed.query.is_none() && update.is_none() && !parsed.stats;
    if parsed.ping || no_actions {
        match reply(client.ping().map_err(|e| CliError::io(addr, e))?)? {
            Frame::Pong { epoch } => {
                let _ = writeln!(out, "pong: epoch {epoch}");
            }
            other => return Err(unexpected(addr, &other)),
        }
    }
    if let Some(text) = parsed.query {
        let budget = parsed.budget.unwrap_or(0).min(u64::from(u32::MAX)) as u32;
        for round in 0..parsed.rounds.unwrap_or(1).max(1) {
            match reply(client.query(text, budget).map_err(|e| CliError::io(addr, e))?)? {
                Frame::Answer {
                    epoch,
                    index_visits,
                    data_visits,
                    validated,
                    match_count,
                    ids,
                } => {
                    if round == 0 {
                        let _ = writeln!(
                            out,
                            "{match_count} match(es) at epoch {epoch} \
                             ({index_visits} index + {data_visits} data visits, validated: {validated})",
                        );
                        for id in ids {
                            let _ = writeln!(out, "  node {id}");
                        }
                        if u64::from(match_count) > 32 {
                            let _ = writeln!(out, "  ... ({match_count} total, first 32 shown)");
                        }
                    }
                }
                other => return Err(unexpected(addr, &other)),
            }
        }
    }
    if let Some((from, to)) = update {
        match reply(client.update(from, to).map_err(|e| CliError::io(addr, e))?)? {
            Frame::UpdateOk { pending } => {
                let _ = writeln!(out, "update {from}->{to} admitted; backlog {pending}");
            }
            other => return Err(unexpected(addr, &other)),
        }
    }
    if parsed.stats {
        match reply(client.stats().map_err(|e| CliError::io(addr, e))?)? {
            Frame::StatsOk { text } => out.push_str(&text),
            other => return Err(unexpected(addr, &other)),
        }
    }
    Ok(out)
}

/// Map server-side refusal frames onto the CLI error matrix
/// (PROTOCOL.md §5–§6): SHED → exit 8 (safe to retry), ERROR by code —
/// bad-query 2, budget-exhausted 6, unavailable 7, the connection-fatal
/// codes 4. Any other frame passes through for the caller to match.
fn reply(frame: Frame) -> Result<Frame, CliError> {
    match frame {
        Frame::Shed {
            reason,
            pending,
            retry_after_ms,
        } => Err(CliError::Shed(format!(
            "server shed the request ({reason:?}, backlog {pending}); retry after {retry_after_ms} ms"
        ))),
        Frame::Error { code, message } => Err(match code {
            ErrorCode::BadQuery => CliError::Query(message),
            ErrorCode::BudgetExhausted => CliError::Aborted(message),
            ErrorCode::Unavailable => CliError::Serve(ServeError::MaintenanceGone),
            ErrorCode::Malformed | ErrorCode::UnsupportedVersion => CliError::Invalid {
                path: "connection".to_string(),
                message,
            },
        }),
        other => Ok(other),
    }
}

fn unexpected(addr: &str, frame: &Frame) -> CliError {
    CliError::invalid(addr, format!("unexpected reply frame {frame:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const DOC: &str = r#"
        <movieDB>
          <director id="d1"><name/><movie id="m1"><title/></movie></director>
          <actor id="a1" idref="m1"><name/></actor>
        </movieDB>"#;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "dkindex-cli-test-{tag}-{}",
                std::process::id()
            ));
            fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn file(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn run(args: &[&str]) -> Result<String, CliError> {
        dispatch(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn write_doc(dir: &TempDir) -> PathBuf {
        let p = dir.file("doc.xml");
        fs::write(&p, DOC).unwrap();
        p
    }

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

    /// The telemetry recorder is process-global and tests run on parallel
    /// threads; tests that toggle it serialize here.
    fn telemetry_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
        LOCK.get_or_init(|| std::sync::Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
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

    /// The rejection edge of the exit-code matrix: files in the formats
    /// that predate `DKSN` and `DKWL` v2 are corrupt input (exit 4) with a
    /// message naming what is unsupported — never a panic, never a partial
    /// load or replay.
    #[test]
    fn pre_container_formats_are_exit_4_everywhere() {
        let dir = TempDir::new("legacy");
        let doc = write_doc(&dir);
        let idx = dir.file("index.dki");
        run(&["build", doc.to_str().unwrap(), "--out", idx.to_str().unwrap(), "--uniform", "1"])
            .unwrap();
        let idx = idx.to_str().unwrap();

        // A bare `DKG1…` stream: graph payload first, no container.
        let g = load_xml(doc.to_str().unwrap(), &[]).unwrap();
        let mut bare = Vec::new();
        dkindex_graph::io::write_graph(&g, &mut bare).unwrap();
        assert!(bare.starts_with(b"DKG1"));
        let legacy = dir.file("legacy.dki");
        fs::write(&legacy, &bare).unwrap();
        let legacy = legacy.to_str().unwrap();
        for args in [&["query", legacy, "movie"][..], &["doctor", legacy][..]] {
            let err = run(args).unwrap_err();
            assert_eq!(err.exit_code(), 4, "{args:?}: {err}");
            assert!(err.to_string().contains("expected DKSN"), "{args:?}: {err}");
        }

        // A complete, CRC-valid `DKWL\x01…` log with one add-edge record.
        let v1 = dir.file("v1.wal");
        fs::write(
            &v1,
            [
                0x44, 0x4b, 0x57, 0x4c, 0x01, 0x00, 0x00, 0x00, // header
                0x01, 0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x6b, 0x60, 0x41, 0xc7,
            ],
        )
        .unwrap();
        let v1_path = v1.to_str().unwrap();
        let out = dir.file("out.dki");
        for args in [
            &["serve", idx, "--listen", "127.0.0.1:0", "--wal", v1_path, "--duration-ms", "10"][..],
            &["snapshot", idx, "--wal", v1_path, "--out", out.to_str().unwrap()][..],
            &["doctor", idx, "--wal", v1_path][..],
        ] {
            let err = run(args).unwrap_err();
            assert_eq!(err.exit_code(), 4, "{args:?}: {err}");
            assert!(err.to_string().contains("unsupported WAL version 1"), "{args:?}: {err}");
        }
        assert!(!out.exists(), "a rejected log must not produce a snapshot");
        assert_eq!(fs::read(&v1).unwrap().len(), 21, "a rejected log is left untouched");
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

    #[test]
    fn help_prints_usage() {
        let out = run(&["--help"]).unwrap();
        assert!(out.contains("usage:"));
        assert!(out.contains("doctor"));
        assert!(out.contains("serve"));
        assert!(out.contains("exit codes"));
    }

    /// Start a [`NetServer`] over the test document's index so the
    /// `client` verb can be driven end-to-end in-process.
    fn start_test_net(dir: &TempDir, cfg: NetConfig) -> NetServer {
        let doc = write_doc(dir);
        let idx = dir.file("index.dki");
        run(&["build", doc.to_str().unwrap(), "--out", idx.to_str().unwrap(), "--uniform", "2",
              "--idref", "idref"])
            .unwrap();
        let (dk, g, _) = load_index_graceful(idx.to_str().unwrap()).unwrap();
        let server = DkServer::start(g, dk, ServeConfig { max_batch: 4, ..ServeConfig::default() });
        NetServer::start(server, "127.0.0.1:0", cfg).unwrap()
    }

    #[test]
    fn client_round_trips_against_a_net_server() {
        let dir = TempDir::new("client");
        let net = start_test_net(&dir, NetConfig::default());
        let addr = net.local_addr().to_string();

        // No action flags: handshake + one ping.
        let out = run(&["client", &addr]).unwrap();
        assert!(out.contains("DKNP v1, epoch 0"), "{out}");
        assert!(out.contains("pong: epoch 0"), "{out}");

        // Query, update, stats on one connection, in the documented order.
        let out = run(&[
            "client", &addr,
            "--query", "movieDB.actor.name",
            "--update", "1:5",
            "--stats",
        ])
        .unwrap();
        assert!(out.contains("1 match(es) at epoch 0"), "{out}");
        assert!(out.contains("update 1->5 admitted; backlog 1"), "{out}");
        assert!(out.contains("admitted=1"), "{out}");

        // Server-reported errors map onto the documented exit codes:
        // unparseable query text is 2, an exhausted budget is 6.
        assert_eq!(
            run(&["client", &addr, "--query", "movieDB.."]).unwrap_err().exit_code(),
            2
        );
        assert_eq!(
            run(&["client", &addr, "--query", "movieDB.actor.name", "--budget", "1"])
                .unwrap_err()
                .exit_code(),
            6
        );

        // Local usage errors stay usage errors.
        assert_eq!(run(&["client"]).unwrap_err().exit_code(), 2);
        assert_eq!(
            run(&["client", &addr, "--update", "nonsense"]).unwrap_err().exit_code(),
            2
        );

        net.shutdown().unwrap();
        // With the server gone, the transport failure is an I/O error.
        assert_eq!(run(&["client", &addr, "--ping"]).unwrap_err().exit_code(), 3);
    }

    #[test]
    fn client_update_shed_is_exit_code_8() {
        let dir = TempDir::new("client-shed");
        // Threshold 0: the first reserved update already exceeds the
        // allowed backlog, so every UPDATE gets the typed maintenance-lag
        // shed (PROTOCOL.md §5.1) — surfaced by the CLI as exit 8.
        let net = start_test_net(&dir, NetConfig {
            staleness_threshold: 0,
            ..NetConfig::default()
        });
        let addr = net.local_addr().to_string();
        let err = run(&["client", &addr, "--update", "1:5"]).unwrap_err();
        assert_eq!(err.exit_code(), 8, "{err}");
        assert!(err.to_string().contains("retry"), "{err}");
        // Queries still succeed while updates shed.
        run(&["client", &addr, "--query", "movieDB.actor.name"]).unwrap();
        net.shutdown().unwrap();
    }

    #[test]
    fn serve_listen_runs_and_drains() {
        let dir = TempDir::new("serve-net");
        let doc = write_doc(&dir);
        let idx = dir.file("index.dki");
        run(&["build", doc.to_str().unwrap(), "--out", idx.to_str().unwrap(), "--uniform", "2"])
            .unwrap();
        let out = run(&[
            "serve", idx.to_str().unwrap(),
            "--listen", "127.0.0.1:0",
            "--workers", "2",
            "--duration-ms", "100",
        ])
        .unwrap();
        assert!(out.contains("served on 127.0.0.1:"), "{out}");
        assert!(out.contains("drained in"), "{out}");
        assert!(out.contains("every admitted update applied"), "{out}");
        // The listen address is the one thing the verb cannot default.
        let err = run(&["serve", idx.to_str().unwrap()]).unwrap_err();
        assert!(err.exit_code() == 2 && err.to_string().contains("--listen"), "{err}");
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
            .append(&ServeOp::AddEdge {
                from: NodeId::from_index(1),
                to: NodeId::from_index(5),
            })
            .unwrap();
        drop(writer);
        let out = run(&["doctor", idx, "--wal", wal_path.to_str().unwrap()]).unwrap();
        assert!(out.contains("WAL v2, 1 committed record(s), 0 uncommitted"), "{out}");
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

    /// `serve --listen --wal` end to end: an UPDATE_OK from a durable
    /// server means the op is on disk — doctor sees it committed with a
    /// clean tail, and a restart with the same `--wal` replays it.
    #[test]
    fn durable_serve_logs_acked_updates_and_recovers_on_restart() {
        let dir = TempDir::new("serve-wal");
        let doc = write_doc(&dir);
        let idx = dir.file("index.dki");
        run(&["build", doc.to_str().unwrap(), "--out", idx.to_str().unwrap(), "--uniform", "2",
              "--idref", "idref"])
            .unwrap();
        let idx = idx.to_str().unwrap();
        let wal_path = dir.file("serve.wal");

        // In-process durable server — the same wiring `serve --listen
        // --wal` uses, but with an inspectable bound address.
        let (dk, g, _) = load_index_graceful(idx).unwrap();
        let writer = WalWriter::create(&wal_path).unwrap();
        let server = DkServer::start_logged(
            g,
            dk,
            ServeConfig { max_batch: 4, ..ServeConfig::default() },
            Box::new(writer),
        );
        assert!(server.is_logged());
        let net = NetServer::start(server, "127.0.0.1:0", NetConfig::default()).unwrap();
        let addr = net.local_addr().to_string();

        let out = run(&["client", &addr, "--update", "1:5"]).unwrap();
        assert!(out.contains("admitted"), "{out}");
        net.shutdown().unwrap();

        // The acknowledged update is on disk, fenced.
        let out = run(&["doctor", idx, "--wal", wal_path.to_str().unwrap()]).unwrap();
        assert!(out.contains("WAL v2, 1 committed record(s), 0 uncommitted"), "{out}");
        assert!(out.contains("tail: clean"), "{out}");

        // A restart with the same --wal recovers the committed prefix and
        // serves durably again.
        let out = run(&[
            "serve", idx,
            "--listen", "127.0.0.1:0",
            "--wal", wal_path.to_str().unwrap(),
            "--duration-ms", "50",
        ])
        .unwrap();
        assert!(out.contains("replayed 1 WAL record(s)"), "{out}");
        assert!(out.contains("durable acks"), "{out}");
    }
}
