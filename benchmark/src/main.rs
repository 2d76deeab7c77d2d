//! `dkbench`: the repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! dkbench run  --workload W [--seed N] [--seconds S] [--trace 0|1] [--ops-scale F] [--out DIR]
//! dkbench all  [--seed N] [--seconds S] [--ops-scale F] [--out DIR] [--spec FILE]
//! dkbench aa   [--runs N] [--seed N] [--seconds S] [--ops-scale F] [--out DIR] [--spec FILE]
//! dkbench diff OLD NEW [--spec FILE]
//! ```

use dkbench::json::{self, Json};
use dkbench::report::{self, RunRecord, Spec, Verdict};
use dkbench::run::{self, RunConfig, Workload};
use dkbench::{pin, BenchResult};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: dkbench run|all|aa|diff ... (see benchmark/README.md)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "run" => cmd_run(rest),
            "all" => cmd_all(rest),
            "aa" => cmd_aa(rest),
            "diff" => cmd_diff(rest),
            _ => Err(USAGE.into()),
        },
        None => Err(USAGE.into()),
    };
    match outcome {
        Ok(code) => code,
        Err(err) => {
            eprintln!("dkbench: {err}");
            ExitCode::from(2)
        }
    }
}

/// The flags the subcommands share, with the defaults a bare command gets.
struct Flags {
    workload: Option<Workload>,
    seed: u64,
    /// `None`: the specification's `run_seconds`.
    seconds: Option<f64>,
    ops_scale: f64,
    trace: bool,
    runs: usize,
    out: PathBuf,
    spec: PathBuf,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> BenchResult<Flags> {
        let mut flags = Flags {
            workload: None,
            seed: 2003,
            seconds: None,
            ops_scale: 1.0,
            trace: false,
            runs: 5,
            out: PathBuf::from("benchmark/out"),
            spec: PathBuf::from("BENCHMARK.json"),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                flags.positional.push(arg.clone());
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
            match arg.as_str() {
                "--workload" => {
                    flags.workload = Some(
                        Workload::from_name(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => flags.seed = value.parse()?,
                "--seconds" => flags.seconds = Some(value.parse()?),
                "--ops-scale" => flags.ops_scale = value.parse()?,
                "--trace" => {
                    flags.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}").into()),
                    }
                }
                "--runs" => flags.runs = value.parse()?,
                "--out" => flags.out = PathBuf::from(value),
                "--spec" => flags.spec = PathBuf::from(value),
                other => return Err(format!("unknown flag {other}").into()),
            }
        }
        if !(flags.ops_scale > 0.0 && flags.ops_scale <= 1.0) {
            return Err("--ops-scale must be in (0, 1]".into());
        }
        if flags.seconds.is_some_and(|s| !(s > 0.0 && s <= 60.0)) {
            return Err("--seconds must be in (0, 60]".into());
        }
        Ok(flags)
    }

    fn seconds(&self) -> BenchResult<f64> {
        match self.seconds {
            Some(seconds) => Ok(seconds),
            None => Ok(Spec::load(&self.spec)?.run_seconds),
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where a result was measured: the environment half of a result file.
fn environment() -> Vec<(&'static str, Json)> {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    vec![
        ("kernel", Json::str(kernel)),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "git_revision",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ]
}

fn result_path(out: &Path, workload: Workload, trace: bool) -> PathBuf {
    let mode = if trace { "traced" } else { "gated" };
    out.join(format!("result-{}-{mode}.json", workload.name()))
}

fn cmd_run(args: &[String]) -> BenchResult<ExitCode> {
    // Before anything spawns a thread: every thread inherits the mask.
    let pinned = pin::pin_to_last_allowed_cpu()?;
    let flags = Flags::parse(args)?;
    let cfg = RunConfig {
        workload: flags.workload.ok_or("run needs --workload")?,
        seed: flags.seed,
        seconds: flags.seconds()?,
        ops_scale: flags.ops_scale,
        trace: flags.trace,
        out: flags.out.clone(),
    };
    std::fs::create_dir_all(&cfg.out)?;
    let out = run::run(&cfg)?;

    let name = cfg.workload.name();
    for m in out.metrics.iter().chain(&out.extra) {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    let mut meta = vec![
        ("seconds", Json::Num(cfg.seconds)),
        ("ops_scale", Json::Num(cfg.ops_scale)),
        ("nproc", Json::Num(pinned.allowed_before.len() as f64)),
        ("pinned_cpu", Json::Num(pinned.cpu as f64)),
        ("workers", Json::Num(pin::WORKERS as f64)),
        ("clients", Json::Num(pin::CLIENTS as f64)),
    ];
    meta.extend(environment());
    let record = Json::obj([
        ("workload", Json::str(name)),
        ("seed", Json::Num(cfg.seed as f64)),
        ("trace", Json::Bool(cfg.trace)),
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Num(out.tally.attempted as f64)),
        ("failed", Json::Num(out.tally.failed as f64)),
        ("metrics", run::metrics_json(&out.metrics)),
        ("extra", run::metrics_json(&out.extra)),
        (
            "op_counts",
            Json::obj(out.counts.iter().map(|(k, n)| (*k, Json::Num(*n as f64)))),
        ),
        ("meta", Json::obj(meta)),
    ]);
    std::fs::write(
        result_path(&cfg.out, cfg.workload, cfg.trace),
        record.pretty(),
    )?;

    // The contract's result: the last line of standard output.
    println!("{}", out.result_json());
    Ok(if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Run one workload in a process of its own — peak RSS, the heap and the
/// CPU mask are per process — and read back the result file it wrote.
fn spawn_run(
    flags: &Flags,
    seconds: f64,
    workload: Workload,
    seed: u64,
    trace: bool,
) -> BenchResult<Json> {
    let status = Command::new(std::env::current_exe()?)
        .arg("run")
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--ops-scale", &flags.ops_scale.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&flags.out)
        .arg("--spec")
        .arg(&flags.spec)
        .status()?;
    if !status.success() {
        return Err(format!(
            "{} (seed {seed}, trace {trace}) exited with {status}",
            workload.name()
        )
        .into());
    }
    Ok(json::parse(&std::fs::read_to_string(result_path(
        &flags.out, workload, trace,
    ))?)?)
}

/// Every workload once gated and once traced; one result file for `diff`.
fn cmd_all(args: &[String]) -> BenchResult<ExitCode> {
    let flags = Flags::parse(args)?;
    let seconds = flags.seconds()?;
    let mut runs = Vec::new();
    for workload in Workload::ALL {
        for trace in [false, true] {
            runs.push(spawn_run(&flags, seconds, workload, flags.seed, trace)?);
        }
    }
    let file = Json::obj([
        ("environment", Json::obj(environment())),
        ("runs", Json::Arr(runs)),
    ]);
    let path = flags.out.join("results.json");
    std::fs::write(&path, file.pretty())?;
    eprintln!("wrote {}", path.display());
    Ok(ExitCode::SUCCESS)
}

/// The same code twice: two interleaved sets of gated runs, run `i` of each
/// set on seed `--seed + i`, compared against the specification's bounds.
fn cmd_aa(args: &[String]) -> BenchResult<ExitCode> {
    let flags = Flags::parse(args)?;
    let spec = Spec::load(&flags.spec)?;
    let seconds = flags.seconds.unwrap_or(spec.run_seconds);
    let (mut set_a, mut set_b) = (Vec::new(), Vec::new());
    for i in 0..flags.runs as u64 {
        for workload in Workload::ALL {
            set_a.push(spawn_run(&flags, seconds, workload, flags.seed + i, false)?);
            set_b.push(spawn_run(&flags, seconds, workload, flags.seed + i, false)?);
        }
    }
    let records = |set: &[Json]| {
        set.iter()
            .filter_map(RunRecord::from_json)
            .collect::<Vec<_>>()
    };
    let rows = report::compare(&spec, &records(&set_a), &records(&set_b), true);
    report::print_rows(&rows);
    let pass = rows.iter().all(|row| row.verdict == Verdict::Within);
    let file = Json::obj([
        ("environment", Json::obj(environment())),
        ("runs_per_set", Json::Num(flags.runs as f64)),
        ("pass", Json::Bool(pass)),
        (
            "comparison",
            Json::Arr(rows.iter().map(report::Row::to_json).collect()),
        ),
        ("set_a", Json::Arr(set_a)),
        ("set_b", Json::Arr(set_b)),
    ]);
    let path = flags.out.join("aa.json");
    std::fs::write(&path, file.pretty())?;
    eprintln!(
        "wrote {}: {}",
        path.display(),
        if pass { "pass" } else { "FAIL" }
    );
    Ok(if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Compare the gated runs of two result files; non-zero on a regression
/// beyond a metric's bound.
fn cmd_diff(args: &[String]) -> BenchResult<ExitCode> {
    let flags = Flags::parse(args)?;
    let [old, new] = flags.positional.as_slice() else {
        return Err("usage: dkbench diff OLD NEW [--spec FILE]".into());
    };
    let spec = Spec::load(&flags.spec)?;
    let load = |path: &String| -> BenchResult<Vec<RunRecord>> {
        report::gated_runs(&json::parse(&std::fs::read_to_string(path)?)?)
    };
    let rows = report::compare(&spec, &load(old)?, &load(new)?, false);
    if rows.is_empty() {
        return Err("the two files have no workload and metric in common".into());
    }
    report::print_rows(&rows);
    let regressed = rows.iter().any(|row| row.verdict == Verdict::Regressed);
    Ok(if regressed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
