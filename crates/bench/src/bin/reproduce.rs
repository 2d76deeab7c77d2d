//! Reproduce the tables and figures of the D(k)-index paper (SIGMOD 2003).
//!
//! ```text
//! reproduce <experiment> [--xmark-scale F] [--nasa-scale F] [--seed S]
//!
//! experiments:
//!   all        the whole §6 record of both datasets: every table below,
//!              printed and written to --out (default PAPER_eval.json);
//!              exits 1 on the first failing shape claim
//!   fig4       evaluation cost vs index size, XMark, before updating
//!   fig5       same on NASA data
//!   table1     update work, A(1)..A(4) vs D(k), both datasets
//!   fig6       evaluation cost vs index size, XMark, after 100 edge updates
//!   fig7       same on NASA data
//!   sizes      summary sizes: A(k), D(k), 1-index, data graph (ablation C)
//!   ablation-broadcast   D(k) without Algorithm 1 (ablation A)
//!   ablation-promote     promoting after updates (ablation B)
//!   ablation-demote      demoting (§5.4) beside the rebuild (ablation E)
//!   degradation          cost vs update count, with/without periodic promotion (D1)
//!   length-sweep         cost by query length per index (D2)
//!   bench-smoke          the exact gate set: oracle == arena evaluation,
//!                        reference == engine construction, and
//!                        the churn / net / tune gates below; writes the
//!                        counts to BENCH_eval.json and exits nonzero on the
//!                        first failing clause of any gate
//!   verify-faults        fault-injection sweep: bit-flip every snapshot and
//!                        WAL byte, truncate the snapshot everywhere, and
//!                        flip or cut every section payload under a resealed
//!                        CRC; exits nonzero on any panic, silently accepted
//!                        corruption, or strict/graceful reader disagreement
//!   verify-crash         crash-recovery torture gate for the WAL: cut the
//!                        log at every byte, fail every group commit's fsync,
//!                        tear every batch write at every offset, and kill a
//!                        live logged server at seeded random commits; exits
//!                        nonzero if any acknowledged update fails to replay
//!                        byte-identically after recovery, any crash view
//!                        recovers a partial batch, or anything panics
//! ```
//!
//! Every experiment from `all` to `length-sweep` computes the whole record
//! of the datasets it names ([`Record::run`]: each summary built once, the
//! update stream applied once per summary) and prints its tables from the
//! record's rows; nothing in the record is a timing, so `all` writes the
//! same `PAPER_eval.json` byte for byte on every run and machine. A scale
//! must be a finite number above 0 (exit 2 otherwise).
//!
//! `bench-smoke` extra flags: `--out PATH` (default `BENCH_eval.json`),
//! `--metrics PATH` (default `METRICS.json`). The churn, net and tuning
//! gates run a fixed [`gates::READERS`] reader threads on every host. Nothing
//! `bench-smoke` writes to `--out` is a timing: every row is a count or a
//! verdict that repeats run to run, and each gate's acceptance conditions
//! are its result type's `check`. The evaluation and D(k) construction
//! fast paths run a second time with the telemetry recorder on, then one
//! instrumented adapt pass; the gate fails if the recorder changes any
//! observable result, and the recorder snapshot (per-phase span timings,
//! refinement-round counts, query visit-count histograms) goes to the
//! `--metrics` file. It also counts the workspace's
//! `.rs` lines into the `loc` section of the `--out` file; when the binary
//! runs outside the source tree that section is left out.

#![forbid(unsafe_code)]

use dkindex_bench::crash;
use dkindex_bench::datasets::{Dataset, DEFAULT_NASA_SCALE, DEFAULT_XMARK_SCALE};
use dkindex_bench::experiments::{record_json, standard_workload, Record};
use dkindex_bench::gates;
use dkindex_bench::loc;
use dkindex_bench::net;
use dkindex_bench::report::rows_table;
use dkindex_bench::tuning;
use dkindex_graph::stats::GraphStats;

struct Options {
    xmark_scale: f64,
    nasa_scale: f64,
    seed: u64,
    out: Option<String>,
    metrics: String,
}

const BOTH: &[Dataset] = &[Dataset::Xmark, Dataset::Nasa];

/// The record experiments: the datasets each one runs and the table it
/// prints (`None`: every table).
const RECORD_MODES: [(&str, &[Dataset], Option<&str>); 12] = [
    ("all", BOTH, None),
    ("fig4", &[Dataset::Xmark], Some("figure_before")),
    ("fig5", &[Dataset::Nasa], Some("figure_before")),
    ("table1", BOTH, Some("table1")),
    ("fig6", &[Dataset::Xmark], Some("figure_after")),
    ("fig7", &[Dataset::Nasa], Some("figure_after")),
    ("sizes", BOTH, Some("sizes")),
    ("ablation-broadcast", BOTH, Some("ablation_broadcast")),
    ("ablation-promote", BOTH, Some("ablation_promote")),
    ("ablation-demote", BOTH, Some("ablation_demote")),
    ("degradation", BOTH, Some("degradation")),
    ("length-sweep", BOTH, Some("length_sweep")),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = None;
    let mut opts = Options {
        xmark_scale: DEFAULT_XMARK_SCALE,
        nasa_scale: DEFAULT_NASA_SCALE,
        seed: 2003,
        out: None,
        metrics: "METRICS.json".to_string(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--xmark-scale" => opts.xmark_scale = usage(parse_scale(it.next(), arg)),
            "--nasa-scale" => opts.nasa_scale = usage(parse_scale(it.next(), arg)),
            "--seed" => opts.seed = parse_next(&mut it, arg),
            "--out" => opts.out = Some(usage(it.next().cloned().ok_or("flag --out needs a path".into()))),
            "--metrics" => {
                opts.metrics = usage(it.next().cloned().ok_or("flag --metrics needs a path".into()));
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            name if experiment.is_none() && !name.starts_with('-') => {
                experiment = Some(name.to_string());
            }
            other => {
                eprintln!("unknown argument {other:?}");
                print_usage();
                std::process::exit(2);
            }
        }
    }
    let Some(experiment) = experiment else {
        print_usage();
        std::process::exit(2);
    };

    if let Some(&(_, datasets, table)) = RECORD_MODES.iter().find(|m| m.0 == experiment) {
        return run_record(&opts, datasets, table);
    }
    match experiment.as_str() {
        "bench-smoke" => run_bench_smoke(&opts),
        "verify-faults" => run_verify_faults(&opts),
        "verify-crash" => run_verify_crash(&opts),
        other => {
            eprintln!("unknown experiment {other:?}");
            print_usage();
            std::process::exit(2);
        }
    }
}

/// The value of a usage check, or its message and exit 2.
fn usage<T>(checked: Result<T, String>) -> T {
    checked.unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    })
}

fn parse_next<T: std::str::FromStr>(it: &mut std::slice::Iter<'_, String>, flag: &str) -> T {
    usage(it.next().and_then(|v| v.parse().ok()).ok_or(format!("flag {flag} needs a numeric value")))
}

/// A dataset scale: a finite number above 0. Anything else would generate
/// an unbounded graph (`inf`) or silently clamp to the minimal one.
fn parse_scale(value: Option<&String>, flag: &str) -> Result<f64, String> {
    match value.map(|v| v.parse::<f64>()) {
        Some(Ok(scale)) if scale.is_finite() && scale > 0.0 => Ok(scale),
        _ => Err(format!("flag {flag} needs a finite scale above 0")),
    }
}

fn print_usage() {
    println!(
        "usage: reproduce <all|fig4|fig5|fig6|fig7|table1|sizes|ablation-broadcast|ablation-promote|\n\
         \x20                ablation-demote|degradation|length-sweep|bench-smoke|verify-faults|\n\
         \x20                verify-crash>\n\
         \x20       [--xmark-scale F] [--nasa-scale F] [--seed S]\n\
         \x20       [--out PATH] [--metrics PATH]\n\
         \x20       (--out applies to all and bench-smoke; --metrics to bench-smoke)"
    );
}

/// Run the record of `datasets` and print its dataset tables plus `table`
/// (every table when `None`). `all` also writes the record to `--out` and
/// exits 1 on the first failing shape claim.
fn run_record(opts: &Options, datasets: &[Dataset], table: Option<&str>) {
    let scale = |d| if d == Dataset::Xmark { opts.xmark_scale } else { opts.nasa_scale };
    let records: Vec<Record> = datasets.iter().map(|&d| Record::run(d, scale(d), opts.seed)).collect();
    for t in records.iter().flat_map(Record::tables) {
        if table.is_none_or(|key| key == t.key || t.key == "dataset") {
            print!("\n=== {} ===\n{}", t.title, rows_table(&t.rows));
        }
    }
    if table.is_none() {
        let out = opts.out.as_deref().unwrap_or("PAPER_eval.json");
        write_or_exit(out, &record_json(&records, opts.seed));
        require(records.iter().try_for_each(Record::check));
    }
}

fn write_or_exit(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: writing {path}: {e}");
        std::process::exit(2);
    }
    println!("wrote {path}");
}

/// Print `FAIL: …` and exit 1 when a gate's `check` names a failing clause.
fn require(gate: Result<(), String>) {
    if let Err(clause) = gate {
        eprintln!("FAIL: {clause}");
        std::process::exit(1);
    }
}

fn run_bench_smoke(opts: &Options) {
    let data = Dataset::Xmark.generate(opts.xmark_scale);
    let workload = standard_workload(&data, opts.seed);
    println!("[Xmark] {} | workload: {} paths", GraphStats::of(&data), workload.len());

    println!("\n=== Bench smoke: exact identity and determinism gates ===");
    let set = gates::run_gates(
        &data,
        &workload,
        opts.seed,
        &net::NetBenchConfig::default(),
        &tuning::TuningBenchConfig::default(),
    );
    for line in set.lines() {
        println!("{line}");
    }

    // Workspace size rides along with the exact rows; it needs the
    // sources, so it is skipped outside them.
    let loc = workspace_root().map(|root| match loc::count_loc(&root) {
        Ok(loc) => loc,
        Err(e) => {
            eprintln!("error: counting lines under {}: {e}", root.display());
            std::process::exit(2);
        }
    });
    if let Some(loc) = &loc {
        println!("workspace: {} lines of Rust", loc.total);
    }

    write_or_exit(opts.out.as_deref().unwrap_or("BENCH_eval.json"), &set.to_json("xmark", loc.as_ref()));

    let tel = &set.telemetry;
    println!(
        "telemetry pass: identical with recorder off: {} | on: {} | \
         partition rounds {} | eval queries {}",
        tel.identical_off,
        tel.identical_on,
        tel.snapshot.counter("partition.rounds").unwrap_or(0),
        tel.snapshot.counter("eval.queries").unwrap_or(0),
    );
    write_or_exit(&opts.metrics, &gates::metrics_to_json("xmark", workload.len(), tel));

    require(set.check());
}

/// Walk up from the current directory to the first dir that looks like the
/// workspace root (has `Cargo.toml` and `crates/`).
fn workspace_root() -> Option<std::path::PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn run_verify_faults(opts: &Options) {
    use dkindex_bench::faults;
    println!("\n=== Fault injection: snapshot + WAL damage sweeps ===");
    let reports = faults::run_all(opts.seed);
    let mut failed = false;
    for r in &reports {
        println!("{}", r.summary());
        for v in &r.violations {
            eprintln!("  VIOLATION: {v}");
            failed = true;
        }
    }
    if failed {
        eprintln!("FAIL: durability contract violated");
        std::process::exit(1);
    }
    println!("all fault probes recovered or failed with typed errors; zero panics");
}

fn run_verify_crash(opts: &Options) {
    println!("\n=== Crash recovery: WAL fail-points, torn writes, kill loop ===");
    let reports = crash::run_all(opts.seed);
    let mut failed = false;
    for r in &reports {
        println!("{}", r.summary());
        for v in &r.violations {
            eprintln!("  VIOLATION: {v}");
            failed = true;
        }
    }
    if failed {
        eprintln!("FAIL: durable-ack contract violated");
        std::process::exit(1);
    }
    println!(
        "every acknowledged update survived every simulated crash byte-identically; \
         unacked tails recovered atomically; zero panics, typed errors only"
    );
}

#[cfg(test)]
mod tests {
    use super::parse_scale;

    #[test]
    fn a_scale_must_be_finite_and_above_zero() {
        let parse = |v: &str| parse_scale(Some(&v.to_string()), "--xmark-scale");
        for bad in ["inf", "-inf", "NaN", "0", "-0", "-1", "x"] {
            assert!(parse(bad).is_err(), "{bad} accepted");
        }
        assert_eq!(parse("0.02"), Ok(0.02));
        assert_eq!(parse("1e-9"), Ok(1e-9));
        assert!(parse_scale(None, "--nasa-scale").is_err());
    }
}
