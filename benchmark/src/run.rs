//! One benchmark run: a workload, a seed, a time budget, gated or traced.

use crate::inputs::{self, Dataset, Inputs, ReqSource};
use crate::json::Json;
use crate::phases::{self, MixedShape, MixedStats, QueryStats, RecoveryStats, Tally};
use crate::session::{set_up, Scratch, Session};
use crate::stats;
use crate::BenchResult;
use std::path::PathBuf;

/// Repetitions of the program's set-up in a gated run; `setup_s` is their
/// median.
const SETUP_REPS: usize = 7;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HotPoint,
    ColdWalk,
    ColdValidate,
    MixedAdapt,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HotPoint,
        Workload::ColdWalk,
        Workload::ColdValidate,
        Workload::MixedAdapt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotPoint => "hot-point",
            Workload::ColdWalk => "cold-walk",
            Workload::ColdValidate => "cold-validate",
            Workload::MixedAdapt => "mixed-adapt",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn dataset(self) -> Dataset {
        match self {
            Workload::ColdWalk => Dataset::Nasa,
            _ => Dataset::Xmark,
        }
    }

    pub fn requirements(self) -> ReqSource {
        match self {
            Workload::HotPoint | Workload::MixedAdapt => ReqSource::Mined,
            Workload::ColdWalk => ReqSource::Uniform(4),
            Workload::ColdValidate => ReqSource::Uniform(0),
        }
    }

    pub fn durable(self) -> bool {
        self == Workload::MixedAdapt
    }
}

#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Wall-clock budget of the timed phase.
    pub seconds: f64,
    /// Multiplies op counts and the time budget; below 1 also selects the
    /// small graphs (smoke runs).
    pub ops_scale: f64,
    pub trace: bool,
    /// Where scratch files, traces and result files go.
    pub out: PathBuf,
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run produced.
pub struct RunOutput {
    /// The contract's metrics for this mode: every end-to-end metric of a
    /// gated run, every per-layer metric of a traced one.
    pub metrics: Vec<Metric>,
    /// Numbers a gated run also measured but the contract cannot gate,
    /// because they exist on one workload only (`mixed-adapt`'s update
    /// latency, recovery time and WAL bytes per update).
    pub extra: Vec<Metric>,
    pub tally: Tally,
    /// Op counts of the timed phase, for the result file.
    pub counts: Vec<(&'static str, u64)>,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The contract's result object.
    pub fn result_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("metrics", metrics_json(&self.metrics)),
        ])
    }
}

pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let entry = Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]);
                (m.name.to_string(), entry)
            })
            .collect(),
    )
}

/// Peak resident set of this process so far, from `VmHWM`.
pub fn peak_rss_mb() -> BenchResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

pub fn run(cfg: &RunConfig) -> BenchResult<RunOutput> {
    let inputs = inputs::generate(cfg.workload.dataset(), cfg.seed, cfg.ops_scale);
    let scratch = Scratch::create(&cfg.out)?;
    if cfg.trace {
        crate::layers::run_traced(cfg, &inputs, &scratch)
    } else {
        run_gated(cfg, &inputs, &scratch)
    }
}

/// Set up [`SETUP_REPS`] times; keep the last session for the workload and
/// every repetition's wall time.
fn set_up_repeatedly(
    cfg: &RunConfig,
    inputs: &Inputs,
    scratch: &Scratch,
) -> BenchResult<(Session, Vec<f64>)> {
    let mut totals = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(session) = last.take() {
            Session::shutdown(session)?;
        }
        let (session, times) = set_up(
            inputs,
            cfg.workload.requirements(),
            scratch,
            cfg.workload.durable(),
        )?;
        totals.push(times.total_s);
        last = Some(session);
    }
    Ok((last.expect("SETUP_REPS is not zero"), totals))
}

/// What the workload's timed phase measured, in one shape for all four.
pub struct PhaseOutcome {
    pub queries: QueryStats,
    pub op_per_s: f64,
    pub tally: Tally,
    pub index_blocks: usize,
    pub counts: Vec<(&'static str, u64)>,
    pub mixed: Option<(MixedStats, RecoveryStats)>,
}

/// Run the workload's timed DKNP phase on a set-up session, shut the server
/// down, and (for the durable workload) recover and check.
pub fn run_phase(
    cfg: &RunConfig,
    inputs: &Inputs,
    scratch: &Scratch,
    mut session: Session,
    budget_s: f64,
    tracer: &mut Option<crate::trace::Tracer>,
) -> BenchResult<PhaseOutcome> {
    match cfg.workload {
        Workload::HotPoint | Workload::ColdWalk | Workload::ColdValidate => {
            let (stats, shut, segments, per_segment) = if cfg.workload == Workload::HotPoint {
                let stats =
                    phases::hot_phase(&mut session, inputs, budget_s, cfg.ops_scale, tracer)?;
                (
                    stats,
                    session.shutdown()?,
                    "segments",
                    "queries_per_segment",
                )
            } else {
                let shut = session.shutdown()?;
                let stats = phases::cold_phase(&shut.data, &shut.index, inputs, budget_s, tracer)?;
                (stats, shut, "passes", "queries_per_pass")
            };
            Ok(PhaseOutcome {
                op_per_s: stats.op_per_s(),
                tally: stats.tally,
                index_blocks: shut.index.size(),
                counts: vec![
                    (segments, stats.segment_s.len() as u64),
                    (per_segment, stats.ops_per_segment),
                ],
                queries: stats.queries,
                mixed: None,
            })
        }
        Workload::MixedAdapt => {
            let shape = MixedShape::for_budget(budget_s, cfg.ops_scale);
            let edges = inputs.update_edges(shape.edges(), cfg.seed);
            let mut stats = phases::mixed_phase(&mut session, inputs, &edges, shape, tracer)?;
            let shut = session.shutdown()?;
            let recovery = phases::recover_and_check(scratch, &shut.index, &shut.data, inputs)?;
            stats.tally.failed += recovery.failed_checks;
            Ok(PhaseOutcome {
                op_per_s: stats.op_per_s(),
                tally: stats.tally,
                index_blocks: shut.index.size(),
                counts: vec![
                    ("periods", stats.period_s.len() as u64),
                    ("cycles_per_period", shape.cycles_per_period as u64),
                    ("ops_per_period", stats.ops_per_period),
                ],
                queries: std::mem::take(&mut stats.queries),
                mixed: Some((stats, recovery)),
            })
        }
    }
}

/// Client-side QUERY round trip: nearest-rank percentiles over every timed
/// sample, and the share of answers that needed validation.
pub fn latency_metrics(queries: &mut QueryStats) -> [Metric; 3] {
    [
        metric("query_p50_us", queries.percentile_us(50.0), "us"),
        metric("query_p99_us", queries.percentile_us(99.0), "us"),
        metric(
            "core.eval.validated_share",
            queries.validated as f64 / queries.queries().max(1) as f64,
            "share",
        ),
    ]
}

/// The durable path's own numbers: update latency, recovery, WAL size.
pub fn mixed_metrics(stats: &mut MixedStats, recovery: &RecoveryStats) -> Vec<Metric> {
    let update_p50 =
        stats::percentile(&mut stats.update_ns, 50.0).map_or(0.0, |ns| f64::from(ns) / 1e3);
    vec![
        metric("update_p50_us", update_p50, "us"),
        metric("recovery_s", recovery.recovery_s, "s"),
        metric(
            "wal_bytes_per_update",
            recovery.wal_bytes as f64 / stats.update_ns.len().max(1) as f64,
            "bytes",
        ),
    ]
}

fn run_gated(cfg: &RunConfig, inputs: &Inputs, scratch: &Scratch) -> BenchResult<RunOutput> {
    let (session, totals) = set_up_repeatedly(cfg, inputs, scratch)?;
    let setup_s = stats::median(&totals).ok_or("no set-up was timed")?;

    let budget_s = cfg.seconds * cfg.ops_scale;
    let mut outcome = run_phase(cfg, inputs, scratch, session, budget_s, &mut None)?;

    let metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("op_per_s", outcome.op_per_s, "1/s"),
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
        metric(
            "visits_per_query",
            outcome.queries.visits_per_query(),
            "count",
        ),
        metric("index_blocks", outcome.index_blocks as f64, "count"),
    ];
    // Measured here too, gated nowhere: see the README on why these are
    // per-layer metrics in BENCHMARK.json.
    let mut extra = Vec::from(latency_metrics(&mut outcome.queries));
    if let Some((stats, recovery)) = &mut outcome.mixed {
        extra.extend(mixed_metrics(stats, recovery));
        let identical = f64::from(u8::from(recovery.byte_identical));
        extra.push(metric("core.wal.replay_byte_identical", identical, "count"));
    }
    let mut counts = outcome.counts;
    counts.push(("query_samples", outcome.queries.queries()));
    counts.push(("setup_repetitions", SETUP_REPS as u64));
    Ok(RunOutput {
        metrics,
        extra,
        tally: outcome.tally,
        counts,
    })
}
