//! Reproduce the tables and figures of the D(k)-index paper (SIGMOD 2003).
//!
//! ```text
//! reproduce <experiment> [--xmark-scale F] [--nasa-scale F] [--max-k K] [--seed S]
//!
//! experiments:
//!   fig4       evaluation cost vs index size, XMark, before updating
//!   fig5       same on NASA data
//!   table1     update efficiency, A(1)..A(4) vs D(k), both datasets
//!   fig6       evaluation cost vs index size, XMark, after 100 edge updates
//!   fig7       same on NASA data
//!   sizes      summary sizes: A(k), D(k), 1-index, DataGuide (ablation C)
//!   ablation-broadcast   D(k) without Algorithm 1 (ablation A)
//!   ablation-promote     promoting after updates (ablation B)
//!   degradation          cost vs update count, with/without periodic promotion (D1)
//!   length-sweep         cost by query length per index (D2)
//!   bench-smoke          the exact gate set: oracle == arena evaluation,
//!                        reference == engine construction, and
//!                        the churn / net / tune gates below; writes the
//!                        counts to BENCH_eval.json and exits nonzero on the
//!                        first failing clause of any gate
//!   verify-faults        fault-injection sweep: bit-flip every snapshot and
//!                        WAL byte, truncate the snapshot everywhere; exits
//!                        nonzero on any panic, silently accepted corruption,
//!                        or strict/graceful reader disagreement
//!   verify-crash         crash-recovery torture gate for the WAL: cut the
//!                        log at every byte, fail every group commit's fsync,
//!                        tear every batch write at every offset, and kill a
//!                        live logged server at seeded random commits; exits
//!                        nonzero if any acknowledged update fails to replay
//!                        byte-identically after recovery, any crash view
//!                        recovers a partial batch, or anything panics
//!   all        everything above in order
//! ```
//!
//! `bench-smoke` extra flags: `--threads N` (reader threads of the churn /
//! net / tuning gates, 0 = machine parallelism), `--out PATH` (default
//! `BENCH_eval.json`), `--metrics PATH` (default `METRICS.json`). Nothing
//! `bench-smoke` writes to `--out` is a timing: every row is a count or a
//! verdict that repeats run to run, and each gate's acceptance conditions
//! are its result type's `check`. Besides the gate set it runs one
//! telemetry-instrumented build → query → adapt pass and writes the
//! recorder snapshot (per-phase span timings,
//! refinement-round counts, query visit-count histograms) to the
//! `--metrics` file, after verifying the recorder changes no observable
//! result. It also counts the workspace's
//! `.rs` lines into the `loc` section of the `--out` file; when the binary
//! runs outside the source tree that section is left out.

#![forbid(unsafe_code)]

use dkindex_bench::crash;
use dkindex_bench::datasets::{self, DEFAULT_NASA_SCALE, DEFAULT_XMARK_SCALE};
use dkindex_bench::experiments::*;
use dkindex_bench::gates;
use dkindex_bench::loc;
use dkindex_bench::net;
use dkindex_bench::report::{fmt_f64, render_table};
use dkindex_bench::tuning;
use dkindex_graph::stats::GraphStats;
use dkindex_graph::DataGraph;
use dkindex_workload::Workload;

struct Options {
    xmark_scale: f64,
    nasa_scale: f64,
    max_k: usize,
    seed: u64,
    threads: usize,
    out: String,
    metrics: String,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = None;
    let mut opts = Options {
        xmark_scale: DEFAULT_XMARK_SCALE,
        nasa_scale: DEFAULT_NASA_SCALE,
        max_k: 4,
        seed: 2003,
        threads: 0,
        out: "BENCH_eval.json".to_string(),
        metrics: "METRICS.json".to_string(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--xmark-scale" => opts.xmark_scale = parse_next(&mut it, arg),
            "--nasa-scale" => opts.nasa_scale = parse_next(&mut it, arg),
            "--max-k" => opts.max_k = parse_next(&mut it, arg),
            "--seed" => opts.seed = parse_next(&mut it, arg),
            "--threads" => opts.threads = parse_next(&mut it, arg),
            "--out" => {
                opts.out = it.next().cloned().unwrap_or_else(|| {
                    eprintln!("flag --out needs a path");
                    std::process::exit(2);
                });
            }
            "--metrics" => {
                opts.metrics = it.next().cloned().unwrap_or_else(|| {
                    eprintln!("flag --metrics needs a path");
                    std::process::exit(2);
                });
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
    opts.threads = gates::resolved_threads(opts.threads);

    match experiment.as_str() {
        "fig4" => fig_before(&opts, Dataset::Xmark),
        "fig5" => fig_before(&opts, Dataset::Nasa),
        "table1" => run_table1(&opts),
        "fig6" => fig_after(&opts, Dataset::Xmark),
        "fig7" => fig_after(&opts, Dataset::Nasa),
        "sizes" => run_sizes(&opts),
        "ablation-broadcast" => run_ablation_broadcast(&opts),
        "ablation-promote" => run_ablation_promote(&opts),
        "degradation" => run_degradation(&opts),
        "length-sweep" => run_length_sweep(&opts),
        "bench-smoke" => run_bench_smoke(&opts),
        "verify-faults" => run_verify_faults(&opts),
        "verify-crash" => run_verify_crash(&opts),
        "all" => {
            fig_before(&opts, Dataset::Xmark);
            fig_before(&opts, Dataset::Nasa);
            run_table1(&opts);
            fig_after(&opts, Dataset::Xmark);
            fig_after(&opts, Dataset::Nasa);
            run_sizes(&opts);
            run_ablation_broadcast(&opts);
            run_ablation_promote(&opts);
            run_degradation(&opts);
            run_length_sweep(&opts);
        }
        other => {
            eprintln!("unknown experiment {other:?}");
            print_usage();
            std::process::exit(2);
        }
    }
}

fn parse_next<T: std::str::FromStr>(it: &mut std::slice::Iter<'_, String>, flag: &str) -> T {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            eprintln!("flag {flag} needs a numeric value");
            std::process::exit(2);
        })
}

fn print_usage() {
    println!(
        "usage: reproduce <fig4|fig5|fig6|fig7|table1|sizes|ablation-broadcast|ablation-promote|\n\
         \x20                degradation|length-sweep|bench-smoke|verify-faults|verify-crash|all>\n\
         \x20       [--xmark-scale F] [--nasa-scale F] [--max-k K] [--seed S]\n\
         \x20       [--threads N] [--out PATH] [--metrics PATH]\n\
         \x20       (the last three flags apply to bench-smoke only)"
    );
}

#[derive(Clone, Copy)]
enum Dataset {
    Xmark,
    Nasa,
}

impl Dataset {
    fn name(self) -> &'static str {
        match self {
            Dataset::Xmark => "Xmark",
            Dataset::Nasa => "Nasa",
        }
    }
}

fn load(opts: &Options, which: Dataset) -> (DataGraph, Workload) {
    let data = match which {
        Dataset::Xmark => datasets::xmark(opts.xmark_scale),
        Dataset::Nasa => datasets::nasa(opts.nasa_scale),
    };
    let workload = standard_workload(&data, opts.seed);
    println!(
        "[{}] {} | workload: {} paths, lengths {:?}",
        which.name(),
        GraphStats::of(&data),
        workload.len(),
        workload.length_histogram(),
    );
    (data, workload)
}

fn print_points(title: &str, points: &[EvalPoint]) {
    println!("\n=== {title} ===");
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.name.clone(),
                p.size.to_string(),
                fmt_f64(p.avg_cost),
                p.validated_queries.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &["index", "size (nodes)", "avg cost (nodes visited)", "queries validated"],
            &rows
        )
    );
}

fn fig_before(opts: &Options, which: Dataset) {
    let (data, workload) = load(opts, which);
    let points = figure_before_update(&data, &workload, opts.max_k);
    let fig = match which {
        Dataset::Xmark => "Figure 4",
        Dataset::Nasa => "Figure 5",
    };
    print_points(
        &format!("{fig}: evaluation performance on {} data before updating", which.name()),
        &points,
    );
}

fn fig_after(opts: &Options, which: Dataset) {
    let (data, workload) = load(opts, which);
    let edges = standard_updates(&data, opts.seed);
    let points = figure_after_update(&data, &workload, &edges, opts.max_k);
    let fig = match which {
        Dataset::Xmark => "Figure 6",
        Dataset::Nasa => "Figure 7",
    };
    print_points(
        &format!(
            "{fig}: evaluation performance on {} data after {} edge updates",
            which.name(),
            edges.len()
        ),
        &points,
    );
}

fn run_table1(opts: &Options) {
    println!("\n=== Table 1: update efficiency (100 random ID/IDREF edges) ===");
    let mut rows_out: Vec<Vec<String>> = Vec::new();
    for which in [Dataset::Xmark, Dataset::Nasa] {
        let (data, workload) = load(opts, which);
        let edges = standard_updates(&data, opts.seed);
        let rows = table1(&data, &edges, opts.max_k, &workload.mine_requirements());
        for (i, r) in rows.iter().enumerate() {
            if rows_out.len() <= i {
                rows_out.push(vec![r.name.clone()]);
            }
            rows_out[i].push(format!("{:.0}", r.millis));
            rows_out[i].push(r.work.to_string());
            rows_out[i].push(format!("{}->{}", r.size_before, r.size_after));
        }
    }
    print!(
        "{}",
        render_table(
            &[
                "index",
                "Xmark ms",
                "Xmark work",
                "Xmark size",
                "Nasa ms",
                "Nasa work",
                "Nasa size"
            ],
            &rows_out
        )
    );
}

fn run_sizes(opts: &Options) {
    for which in [Dataset::Xmark, Dataset::Nasa] {
        let (data, workload) = load(opts, which);
        let rows = size_comparison(&data, &workload, opts.max_k);
        println!("\n=== Summary sizes on {} data (ablation C) ===", which.name());
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    match &r.size {
                        Ok(n) => n.to_string(),
                        Err(e) => format!("n/a ({e})"),
                    },
                    r.bytes
                        .map(|b| format!("{:.1} KiB", b as f64 / 1024.0))
                        .unwrap_or_else(|| "-".to_string()),
                ]
            })
            .collect();
        print!(
            "{}",
            render_table(&["summary", "size (nodes)", "approx bytes"], &table)
        );
    }
}

fn run_ablation_broadcast(opts: &Options) {
    for which in [Dataset::Xmark, Dataset::Nasa] {
        let (data, workload) = load(opts, which);
        let ab = ablation_broadcast(&data, &workload);
        println!(
            "\n=== Ablation A on {}: D(k) without the broadcast algorithm ===",
            which.name()
        );
        println!(
            "constraint violations: {} | wrong answers: {}/{} | size with broadcast: {} | without: {}",
            ab.constraint_violations,
            ab.wrong_answers,
            workload.len(),
            ab.size_with,
            ab.size_without
        );
    }
}

fn run_degradation(opts: &Options) {
    for which in [Dataset::Xmark, Dataset::Nasa] {
        let (data, workload) = load(opts, which);
        let edges = standard_updates(&data, opts.seed);
        let points = degradation_curve(&data, &workload, &edges, 20, 25);
        println!(
            "\n=== Extension D1 on {}: degradation under updates (promote every 25) ===",
            which.name()
        );
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                vec![
                    p.updates_applied.to_string(),
                    fmt_f64(p.cost_untuned),
                    fmt_f64(p.cost_promoted),
                    p.size_promoted.to_string(),
                ]
            })
            .collect();
        print!(
            "{}",
            render_table(
                &["updates", "cost untuned", "cost promoted", "size promoted"],
                &rows
            )
        );
    }
}

fn run_length_sweep(opts: &Options) {
    for which in [Dataset::Xmark, Dataset::Nasa] {
        let (data, workload) = load(opts, which);
        let (names, rows) = length_sweep(&data, &workload);
        println!(
            "\n=== Extension D2 on {}: avg cost by query length ===",
            which.name()
        );
        let mut headers: Vec<&str> = vec!["labels", "queries"];
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        headers.extend(name_refs);
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                let mut row = vec![r.labels.to_string(), r.queries.to_string()];
                row.extend(r.avg_costs.iter().map(|&c| fmt_f64(c)));
                row
            })
            .collect();
        print!("{}", render_table(&headers, &table));
    }
}

/// Print `FAIL: …` and exit 1 when a gate's `check` names a failing clause.
fn require(gate: Result<(), String>) {
    if let Err(clause) = gate {
        eprintln!("FAIL: {clause}");
        std::process::exit(1);
    }
}

fn run_bench_smoke(opts: &Options) {
    let (data, workload) = load(opts, Dataset::Xmark);

    println!("\n=== Bench smoke: exact identity and determinism gates ===");
    let set = gates::run_gates(
        &data,
        &workload,
        opts.max_k,
        opts.threads,
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

    if let Err(e) = std::fs::write(&opts.out, set.to_json("xmark", loc.as_ref())) {
        eprintln!("error: writing {}: {e}", opts.out);
        std::process::exit(2);
    }
    println!("wrote {}", opts.out);

    let reqs = workload.mine_requirements();
    let tel = gates::bench_telemetry(&data, workload.queries(), &reqs, opts.max_k, opts.seed);
    println!(
        "telemetry pass: identical with recorder off: {} | on: {} | \
         partition rounds {} | eval queries {}",
        tel.identical_off,
        tel.identical_on,
        tel.snapshot.counter("partition.rounds").unwrap_or(0),
        tel.snapshot.counter("eval.queries").unwrap_or(0),
    );
    let metrics = gates::metrics_to_json("xmark", opts.threads, opts.max_k, workload.len(), &tel);
    if let Err(e) = std::fs::write(&opts.metrics, &metrics) {
        eprintln!("error: writing {}: {e}", opts.metrics);
        std::process::exit(2);
    }
    println!("wrote {}", opts.metrics);

    require(set.check());
    require(tel.check());
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

fn run_ablation_promote(opts: &Options) {
    for which in [Dataset::Xmark, Dataset::Nasa] {
        let (data, workload) = load(opts, which);
        let edges = standard_updates(&data, opts.seed);
        let (degraded, promoted, splits) = ablation_promote(&data, &workload, &edges);
        println!(
            "\n=== Ablation B on {}: promoting after {} updates ({} splits) ===",
            which.name(),
            edges.len(),
            splits
        );
        print_points("before/after promotion", &[degraded, promoted]);
    }
}
