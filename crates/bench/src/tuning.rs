//! Live-tuning convergence gate: a Zipf-skewed query mix served through a
//! [`DkServer`] with the in-loop adaptive tuner on, where the hot set flips
//! to a different query pool halfway through the run. The server starts at
//! `D(1)` — deliberately under-provisioned — so the tuner has to earn both
//! the initial convergence and the re-convergence after the shift.
//!
//! Three properties are gated ([`TuningBenchResult::check`], which
//! `reproduce bench-smoke` turns into an exit code):
//!
//! * **Re-convergence** — the per-round p99 query cost returns to its
//!   converged post-shift value within `converge_bound` rounds (one epoch
//!   pair per round) after the workload flips, and the converged p99 is no
//!   worse than the p99 at the shift itself.
//! * **Determinism** — the final live-tuned state is byte-identical to
//!   [`apply_serial`] over the ops the run's WAL committed, which include
//!   the tuner's own `SetRequirements` ops at their actual
//!   interleaved positions: the log is the run's op record.
//! * **Durability** — replaying the committed log over the initial state
//!   through WAL recovery reproduces the final state byte-identically,
//!   tuning ops included.
//!
//! The whole curve is deterministic — costs are graph-visit counts, the
//! query mix per round is a fixed weighted stream, and tuning rides the
//! round's flush — so the `p99_curve` in `BENCH_eval.json` is reproducible
//! across machines, not a timing artifact.

use crate::experiments::standard_workload;
use crate::gates::READERS;
use crate::report::Rows;
use dkindex_core::io_fail::{FailPlan, SharedDisk};
use dkindex_core::wal::{self, WalWriter};
use dkindex_core::{
    apply_serial, snapshot_bytes, DkIndex, DkServer, Requirements, ServeConfig, ServeOp,
    TunerConfig,
};
use dkindex_graph::DataGraph;
use dkindex_pathexpr::PathExpr;
use dkindex_workload::{generate_update_edges, weighted_stream};

/// Knobs for the shifting-workload tuning bench (see [`bench_tuning`]).
#[derive(Clone, Copy, Debug)]
pub struct TuningBenchConfig {
    /// Total serve rounds; the workload flips at `rounds / 2`.
    pub rounds: usize,
    /// Queries evaluated per round (the weighted stream's total).
    pub queries_per_round: u64,
    /// Zipf skew for the per-phase query stream.
    pub skew: f64,
    /// [`TunerConfig::window`]: recorded queries per mining pass. Keep it at
    /// or below `queries_per_round` so every round's flush mines.
    pub window: usize,
    /// Rounds the post-shift p99 is allowed before it must reach (within
    /// 5%) its converged value.
    pub converge_bound: usize,
}

impl Default for TuningBenchConfig {
    fn default() -> Self {
        TuningBenchConfig {
            rounds: 16,
            queries_per_round: 256,
            skew: 1.1,
            window: 64,
            converge_bound: 8,
        }
    }
}

/// What [`bench_tuning`] measured and verified.
#[derive(Clone, Debug)]
pub struct TuningBenchResult {
    /// Reader threads evaluating each round's mix concurrently.
    pub readers: usize,
    /// Serve rounds actually run.
    pub rounds: usize,
    /// First round (0-based) served from the flipped workload.
    pub shift_round: usize,
    /// Total queries evaluated across the run.
    pub queries: u64,
    /// Per-round p99 query cost in graph visits — the convergence curve.
    pub p99_curve: Vec<u64>,
    /// p99 of the last pre-shift round (converged on workload A).
    pub baseline_p99: u64,
    /// p99 of the first post-shift round (workload B on A-tuned state).
    pub shift_p99: u64,
    /// p99 of the final round (converged on workload B).
    pub converged_p99: u64,
    /// Rounds after the shift until p99 first came within 5% of
    /// `converged_p99` (1 = the very first post-shift round).
    pub converge_rounds: Option<usize>,
    /// The configured bound `converge_rounds` is gated against.
    pub converge_bound: usize,
    /// Windows the live tuner mined ([`dkindex_core::TuneStats::windows`]).
    pub windows: u64,
    /// Promotions the live tuner enqueued.
    pub promotions: u64,
    /// Demotions the live tuner enqueued.
    pub demotions: u64,
    /// `SetRequirements` ops in the committed log — the tuner's
    /// footprint in the oracle's input.
    pub tuning_ops: usize,
    /// Final state is byte-identical to [`apply_serial`] over the committed
    /// ops (client and tuner ops at their actual interleaving).
    pub deterministic: bool,
    /// Replaying the committed WAL over the initial state reproduces the
    /// final state byte-identically.
    pub wal_recovered: bool,
}

impl TuningBenchResult {
    /// The `tuning` section.
    pub fn rows(&self) -> Rows {
        let curve: Vec<String> = self.p99_curve.iter().map(u64::to_string).collect();
        let converge_rounds = self
            .converge_rounds
            .map_or_else(|| "null".to_string(), |r| r.to_string());
        vec![
            ("readers", self.readers.to_string()),
            ("rounds", self.rounds.to_string()),
            ("shift_round", self.shift_round.to_string()),
            ("queries", self.queries.to_string()),
            ("p99_curve", format!("[{}]", curve.join(", "))),
            ("baseline_p99", self.baseline_p99.to_string()),
            ("shift_p99", self.shift_p99.to_string()),
            ("converged_p99", self.converged_p99.to_string()),
            ("converge_rounds", converge_rounds),
            ("converge_bound", self.converge_bound.to_string()),
            ("windows", self.windows.to_string()),
            ("promotions", self.promotions.to_string()),
            ("demotions", self.demotions.to_string()),
            ("tuning_ops", self.tuning_ops.to_string()),
            ("deterministic", self.deterministic.to_string()),
            ("wal_recovered", self.wal_recovered.to_string()),
        ]
    }

    /// The live-tuning gate: the tuned run's log replays serially (tuner
    /// ops at their actual interleaved positions) and through recovery, the tuner
    /// acted, and the p99 query cost re-converged within the bounded number
    /// of rounds after the workload flipped.
    pub fn check(&self) -> Result<(), String> {
        if !self.deterministic {
            return Err(
                "live-tuned state diverged from serial replay of the logged ops".to_string()
            );
        }
        if !self.wal_recovered {
            return Err("WAL replay diverged from the live-tuned state".to_string());
        }
        if self.windows == 0 || self.promotions == 0 {
            return Err(format!(
                "tuner never acted ({} window(s), {} promotion(s))",
                self.windows, self.promotions
            ));
        }
        if self.converged_p99 > self.shift_p99 {
            return Err(format!(
                "converged p99 {} is worse than the shift-round p99 {}",
                self.converged_p99, self.shift_p99
            ));
        }
        match self.converge_rounds {
            Some(r) if r <= self.converge_bound => Ok(()),
            _ => Err(format!(
                "p99 did not re-converge within {} round(s) after the shift (curve: {:?})",
                self.converge_bound, self.p99_curve
            )),
        }
    }
}

/// Nearest-rank p99 over one round's (unsorted) cost samples.
fn p99(samples: &mut [u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    samples[((samples.len() - 1) * 99) / 100]
}

/// Expand a weighted stream into the flat evaluation list for one round:
/// each distinct query repeated `weight` times. The repeats are what make
/// the round's p99 (and the tuner's mined weights) load-weighted — a memo
/// hit re-records the same deterministic cost.
fn expand(stream: &[(PathExpr, u64)]) -> Vec<PathExpr> {
    stream
        .iter()
        .flat_map(|(q, w)| std::iter::repeat_n(q.clone(), *w as usize))
        .collect()
}

/// Run the shifting-workload tuning bench: serve `cfg.rounds` rounds of a
/// Zipf-weighted query mix from a `D(1)` start with live tuning on
/// (`tune_interval` 1), flipping to a second query pool at the halfway
/// round, and record the per-round p99 cost curve. Every round evaluates
/// its full mix across [`READERS`] threads, then submits one edge update
/// and flushes twice — the first flush publishes the round's batch (whose
/// `after_publish` pass mines the round's observations), the second drains
/// whatever op the tuner enqueued — so tuning lands on a deterministic
/// round boundary.
pub fn bench_tuning(
    data: &DataGraph,
    cfg: &TuningBenchConfig,
    seed: u64,
) -> TuningBenchResult {
    let shift_round = cfg.rounds / 2;
    // Two independent pools: B's queries are largely unseen during phase A,
    // so the shift genuinely invalidates the tuned requirements instead of
    // just reshuffling weights over already-promoted labels.
    let pool_a = standard_workload(data, seed);
    let pool_b = standard_workload(data, seed.wrapping_add(1));
    let mix_a = expand(&weighted_stream(&pool_a, cfg.queries_per_round, cfg.skew, seed));
    let mix_b = expand(&weighted_stream(
        &pool_b,
        cfg.queries_per_round,
        cfg.skew,
        seed.wrapping_add(1),
    ));
    let edges = generate_update_edges(data, cfg.rounds, seed);

    // Under-provisioned start: uniform k = 1, so phase A's convergence is
    // itself the tuner's work, not the build's.
    let initial_reqs = Requirements::uniform(1);
    let dk0 = DkIndex::build(data, initial_reqs);
    let shared = SharedDisk::new(FailPlan::none());
    let writer = WalWriter::with_store(shared.clone()).expect("WAL header on in-memory disk");
    let server = DkServer::start_logged(
        data.clone(),
        dk0.clone(),
        ServeConfig {
            max_batch: 8,
            tune_interval: 1,
            // Every query in the round's mix carries at least weight 1 by
            // construction; support 1 lets the tuner cover the whole mix,
            // which is what the p99 (a tail metric) converges on.
            tuner: TunerConfig { window: cfg.window, min_support: 1 },
        },
        Box::new(writer),
    );
    let handle = server.handle();

    let mut p99_curve = Vec::with_capacity(cfg.rounds);
    let mut queries = 0u64;
    for round in 0..cfg.rounds {
        let mix = if round < shift_round { &mix_a } else { &mix_b };
        queries += mix.len() as u64;
        let mut costs: Vec<u64> = std::thread::scope(|s| {
            let mut parts = Vec::new();
            for r in 0..READERS {
                let handle = handle.clone();
                parts.push(s.spawn(move || {
                    let mut costs = Vec::new();
                    for q in mix.iter().skip(r).step_by(READERS) {
                        costs.push(handle.evaluate(q).cost.total());
                    }
                    costs
                }));
            }
            parts
                .into_iter()
                .flat_map(|h| h.join().expect("reader thread panicked"))
                .collect()
        });
        p99_curve.push(p99(&mut costs));
        // One real op per round forces the publish the tuner rides; the
        // first flush returns only after that publish's tuning pass has
        // enqueued its op (if any), so the second flush applies it before
        // the next round evaluates.
        if let Some(&(from, to)) = edges.get(round) {
            server
                .submit(ServeOp::AddEdge { from, to })
                .expect("maintenance alive");
        }
        server.flush().expect("round flush");
        server.flush().expect("tuning-op flush");
    }

    let stats = handle.tuning_stats().expect("tuning enabled");
    let (final_dk, final_data) = server.shutdown().expect("clean shutdown");
    let final_bytes = snapshot_bytes(&final_dk, &final_data);

    let log = shared.view(|d| d.crash_view(0));
    let (logged, _tail) = wal::decode_wal(&log).expect("the committed log decodes");
    let tuning_ops = logged
        .iter()
        .filter(|op| matches!(op, ServeOp::SetRequirements(_)))
        .count();
    let mut serial_dk = dk0.clone();
    let mut serial_g = data.clone();
    apply_serial(&mut serial_dk, &mut serial_g, &logged);
    let deterministic = snapshot_bytes(&serial_dk, &serial_g) == final_bytes;

    let mut wal_dk = dk0;
    let mut wal_g = data.clone();
    let wal_recovered = wal::replay(&mut wal_dk, &mut wal_g, &log).is_ok()
        && snapshot_bytes(&wal_dk, &wal_g) == final_bytes;

    let baseline_p99 = p99_curve[shift_round.saturating_sub(1)];
    let shift_p99 = p99_curve[shift_round.min(p99_curve.len() - 1)];
    let converged_p99 = *p99_curve.last().expect("at least one round");
    // Within 5% of the converged value counts as re-converged: the one
    // edge update per round perturbs costs a little even at steady state.
    let tolerance = converged_p99 + converged_p99 / 20;
    let converge_rounds = p99_curve[shift_round..]
        .iter()
        .position(|&p| p <= tolerance)
        .map(|i| i + 1);

    TuningBenchResult {
        readers: READERS,
        rounds: cfg.rounds,
        shift_round,
        queries,
        p99_curve,
        baseline_p99,
        shift_p99,
        converged_p99,
        converge_rounds,
        converge_bound: cfg.converge_bound,
        windows: stats.windows,
        promotions: stats.promotions,
        demotions: stats.demotions,
        tuning_ops,
        deterministic,
        wal_recovered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::Dataset;

    #[test]
    fn shifting_workload_reconverges_and_replays_serially() {
        let data = Dataset::Xmark.generate(0.004);
        let cfg = TuningBenchConfig {
            rounds: 8,
            queries_per_round: 128,
            window: 32,
            ..TuningBenchConfig::default()
        };
        let t = bench_tuning(&data, &cfg, 7);
        assert!(t.deterministic, "live-tuned serve diverged from serial replay");
        assert!(t.wal_recovered, "WAL replay diverged from the live-tuned state");
        assert!(t.promotions >= 1, "tuner never promoted: {t:?}");
        assert!(t.tuning_ops >= 1, "no tuning op in the log: {t:?}");
        assert_eq!(t.p99_curve.len(), cfg.rounds);
        assert!(
            t.converge_rounds.is_some_and(|r| r <= cfg.converge_bound),
            "p99 did not re-converge: {t:?}"
        );
        assert_eq!(t.check(), Ok(()), "{t:?}");
        let stuck = TuningBenchResult { converge_rounds: None, ..t };
        let refusal = stuck.check().expect_err("a curve that never converges must fail");
        assert!(refusal.contains("did not re-converge within 8 round(s)"), "{refusal}");
        assert!(stuck.rows().contains(&("converge_rounds", "null".to_string())));
    }
}
