//! The exact gates behind `reproduce bench-smoke`.
//!
//! Every fast path runs beside its retained reference implementation (the
//! allocator-per-query [`eval_oracle`], vector-keyed signature refinement,
//! the serial [`apply_serial`] replay) and is compared for **byte-identical
//! results** — same matches, same [`dkindex_core::QueryCost`] visit counts,
//! same partitions, same snapshot bytes. Nothing here is timed: every row a
//! gate reports is a count or a verdict that repeats run to run, which is
//! what lets `BENCH_eval.json` be a checked-in exact record. Wall-clock
//! questions go to the judged benchmark (`benchmark/`, BENCHMARK.json).
//!
//! Each result type states its rows once (`rows`; [`rows_line`] and
//! [`rows_json`] render the console line and the JSON object from them) and
//! its acceptance conditions once (`check`: the first failing clause, as
//! the message `reproduce bench-smoke` prints).

use crate::loc::{loc_to_json, LocReport};
use crate::net::{bench_net, NetBenchConfig, NetBenchResult};
use crate::report::{rows_json, rows_line, Rows};
use crate::tuning::{bench_tuning, TuningBenchConfig, TuningBenchResult};
use dkindex_core::dk::{dk_partition, dk_partition_reference};
use dkindex_core::{
    apply_serial, eval_oracle, snapshot_bytes, AkIndex, DkIndex,
    DkServer, IndexEvalOutcome, IndexEvaluator, IndexGraph, Requirements, ServeConfig, ServeOp,
    Tuner, TunerConfig,
};
use dkindex_graph::DataGraph;
use dkindex_partition::{k_bisimulation, RefineEngine};
use dkindex_pathexpr::{LabelIndex, PathExpr};
use dkindex_telemetry as telemetry;
use dkindex_workload::{generate_update_edges, Workload};

/// `threads`, with `0` resolved to the machine's available parallelism.
pub fn resolved_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    }
}

/// The paper's figure-4 index set: A(0)..A(max_k) plus the workload-tuned
/// D(k). The coarse indexes validate heavily, the tuned ones barely — both
/// regimes count.
fn figure4_indexes(data: &DataGraph, reqs: &Requirements, max_k: usize) -> Vec<IndexGraph> {
    let mut indexes: Vec<IndexGraph> = (0..=max_k)
        .map(|k| AkIndex::build(data, k).index().clone())
        .collect();
    indexes.push(DkIndex::build(data, reqs.clone()).index().clone());
    indexes
}

/// Reference path: fresh allocations per query, no memo.
fn oracle_outcomes(
    indexes: &[IndexGraph],
    data: &DataGraph,
    queries: &[PathExpr],
) -> Vec<IndexEvalOutcome> {
    let mut all = Vec::new();
    for index in indexes {
        let labels = LabelIndex::build(index);
        all.extend(queries.iter().map(|q| eval_oracle::evaluate(index, data, &labels, q)));
    }
    all
}

/// Arena + memo evaluator.
fn arena_outcomes(
    indexes: &[IndexGraph],
    data: &DataGraph,
    queries: &[PathExpr],
) -> Vec<IndexEvalOutcome> {
    let mut all = Vec::new();
    for index in indexes {
        all.extend(IndexEvaluator::new(index, data).evaluate_all(queries));
    }
    all
}

/// Batch evaluation through every index: oracle vs arena.
#[derive(Clone, Debug)]
pub struct EvalBenchResult {
    /// Indexes the workload is evaluated through.
    pub indexes: usize,
    /// Queries in the workload.
    pub queries: usize,
    /// Both paths returned byte-identical outcomes (matches, visit counts,
    /// validated flags).
    pub identical_outcomes: bool,
    /// Total index visits across the workload (the paper's §6.1 cost).
    pub index_visits: u64,
    /// Total validation visits across the workload.
    pub data_visits: u64,
}

impl EvalBenchResult {
    /// The `eval` section.
    pub fn rows(&self) -> Rows {
        vec![
            ("indexes", self.indexes.to_string()),
            ("queries", self.queries.to_string()),
            ("identical_outcomes", self.identical_outcomes.to_string()),
            ("index_visits", self.index_visits.to_string()),
            ("data_visits", self.data_visits.to_string()),
        ]
    }

    /// Fails when the oracle and arena outcomes differ.
    pub fn check(&self) -> Result<(), String> {
        if self.identical_outcomes {
            Ok(())
        } else {
            Err("before/after evaluation paths disagree".to_string())
        }
    }
}

/// Evaluate `queries` through every index in `indexes` on the oracle and
/// the arena evaluator, and compare.
fn bench_eval(indexes: &[IndexGraph], data: &DataGraph, queries: &[PathExpr]) -> EvalBenchResult {
    let oracle = oracle_outcomes(indexes, data, queries);
    EvalBenchResult {
        indexes: indexes.len(),
        queries: queries.len(),
        identical_outcomes: oracle == arena_outcomes(indexes, data, queries),
        index_visits: oracle.iter().map(|o| o.cost.index_visits).sum(),
        data_visits: oracle.iter().map(|o| o.cost.data_visits).sum(),
    }
}

/// Construction of one summary: reference vs engine.
#[derive(Clone, Debug)]
pub struct BuildBenchResult {
    /// Summary name, e.g. `"A(4)"`.
    pub name: String,
    /// The engine partition equals the reference partition (same block ids,
    /// same member order).
    pub identical_partition: bool,
    /// Blocks in the final partition.
    pub blocks: usize,
}

impl BuildBenchResult {
    /// One element of the `construction` array.
    pub fn rows(&self) -> Rows {
        vec![
            ("name", format!("\"{}\"", self.name)),
            ("identical_partition", self.identical_partition.to_string()),
            ("blocks", self.blocks.to_string()),
        ]
    }

    /// Fails when the engine partition differs from the reference.
    pub fn check(&self) -> Result<(), String> {
        if self.identical_partition {
            Ok(())
        } else {
            Err(format!("before/after {} construction paths disagree", self.name))
        }
    }
}

/// A(k) construction: reference [`k_bisimulation`] vs
/// [`RefineEngine::k_bisimulation`].
fn bench_ak_build(data: &DataGraph, k: usize) -> BuildBenchResult {
    let reference = k_bisimulation(data, k);
    BuildBenchResult {
        name: format!("A({k})"),
        identical_partition: reference == RefineEngine::new().k_bisimulation(data, k),
        blocks: reference.block_count(),
    }
}

/// D(k) construction for `reqs`: the retained reference loop vs
/// [`dk_partition`].
fn bench_dk_build(data: &DataGraph, reqs: &Requirements) -> BuildBenchResult {
    let reference = dk_partition_reference(data, reqs, true);
    BuildBenchResult {
        name: "D(k)".to_string(),
        identical_partition: reference == dk_partition(data, reqs),
        blocks: reference.0.block_count(),
    }
}

/// Sustained churn: a long update stream applied in large batches while
/// reader threads query continuously, with the COW delta-epoch sharing
/// measured epoch to epoch.
#[derive(Clone, Debug)]
pub struct ChurnBenchResult {
    /// Reader threads querying concurrently with the update stream.
    pub readers: usize,
    /// Edge updates applied inside the measured window (one unmeasured
    /// warm-up batch precedes it; see [`bench_churn`]).
    pub updates: usize,
    /// [`ServeConfig::max_batch`], and the size of each measured delta.
    pub batch: usize,
    /// Blocks still pointer-shared with the epoch `batch` updates earlier,
    /// summed over the measured deltas.
    pub blocks_shared: u64,
    /// Blocks copied-on-write or freshly built by a `batch`-sized delta,
    /// summed over the measured deltas.
    pub blocks_rebuilt: u64,
    /// Blocks in the final published index.
    pub total_blocks: usize,
    /// `blocks_rebuilt / (blocks_shared + blocks_rebuilt)` — the average
    /// fraction of the store a `batch`-sized delta had to copy.
    pub rebuilt_ratio: f64,
    /// Final published state is byte-identical to a serial replay of the
    /// same op sequence.
    pub deterministic: bool,
}

impl ChurnBenchResult {
    /// The `churn` section.
    pub fn rows(&self) -> Rows {
        vec![
            ("readers", self.readers.to_string()),
            ("updates", self.updates.to_string()),
            ("batch", self.batch.to_string()),
            ("blocks_shared", self.blocks_shared.to_string()),
            ("blocks_rebuilt", self.blocks_rebuilt.to_string()),
            ("total_blocks", self.total_blocks.to_string()),
            ("rebuilt_ratio", format!("{:.4}", self.rebuilt_ratio)),
            ("deterministic", self.deterministic.to_string()),
        ]
    }

    /// The delta-epoch acceptance gate: the run replays serially, and
    /// publishes shared structurally, copying at most 10% of the store per
    /// `batch`-sized delta on average.
    pub fn check(&self) -> Result<(), String> {
        if !self.deterministic {
            return Err("sustained-churn run diverged from serial replay".to_string());
        }
        if self.blocks_shared == 0 || self.rebuilt_ratio > 0.10 {
            return Err(format!(
                "publishes copied {:.1}% of the block store on average (gate: <= 10%)",
                self.rebuilt_ratio * 100.0
            ));
        }
        Ok(())
    }
}

/// Sustained-churn gate: apply `batches * batch` generated edge updates
/// through a [`DkServer`] configured with `max_batch = batch` while
/// `readers` threads query continuously, then cross-check the final state
/// byte-for-byte against [`apply_serial`].
///
/// One additional warm-up batch is applied before the measurement window
/// opens: the very first update batch on a freshly tuned index triggers the
/// one-time broadcast-lowering cascade (a large fraction of blocks get
/// their similarity lowered), which is a property of cold start, not of
/// sustained publishing. The serial-replay determinism oracle still covers
/// the **full** stream, warm-up included.
///
/// Sharing is measured from the epochs themselves: the epoch held before a
/// chunk is submitted is compared block by block with the one published
/// after its flush. That is the union of blocks the chunk unshared — the
/// held epoch keeps every one of its blocks alive, so a touched block is
/// always a fresh allocation — and it is the same whether the maintenance
/// thread drained the chunk as one publish or several.
pub fn bench_churn(
    data: &DataGraph,
    queries: &[PathExpr],
    reqs: &Requirements,
    readers: usize,
    seed: u64,
) -> ChurnBenchResult {
    use std::sync::atomic::{AtomicBool, Ordering};

    let readers = readers.max(1);
    let batch = 32;
    let batches = 8;
    let dk = DkIndex::build(data, reqs.clone());
    // One extra batch up front is warm-up (applied outside the window).
    let ops: Vec<ServeOp> = generate_update_edges(data, batch * (batches + 1), seed)
        .into_iter()
        .map(|(from, to)| ServeOp::AddEdge { from, to })
        .collect();
    let (warmup, measured) = ops.split_at(batch);

    let mut serial_dk = dk.clone();
    let mut serial_g = data.clone();
    apply_serial(&mut serial_dk, &mut serial_g, &ops);
    let expected = snapshot_bytes(&serial_dk, &serial_g);

    let server = DkServer::start(
        data.clone(),
        dk,
        ServeConfig {
            max_batch: batch,
            ..ServeConfig::default()
        },
    );
    let submit_and_flush = |chunk: &[ServeOp]| {
        for op in chunk {
            server.submit(op.clone()).expect("maintenance thread alive during bench");
        }
        server.flush().expect("maintenance thread alive during bench");
    };
    // Warm-up: absorb the cold-start broadcast-lowering cascade unmeasured.
    submit_and_flush(warmup);

    let stop = AtomicBool::new(false);
    let (mut blocks_shared, mut blocks_rebuilt) = (0u64, 0u64);
    std::thread::scope(|s| {
        for r in 0..readers {
            let handle = server.handle();
            let stop = &stop;
            s.spawn(move || {
                let mut round = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let _ = handle.evaluate(&queries[(r + round) % queries.len()]);
                    round += 1;
                }
            });
        }
        let handle = server.handle();
        for chunk in measured.chunks(batch) {
            let before = handle.epoch();
            submit_and_flush(chunk);
            let after = handle.epoch();
            let (shared, rebuilt) =
                after.index().index().shared_blocks_with(before.index().index());
            blocks_shared += shared as u64;
            blocks_rebuilt += rebuilt as u64;
        }
        stop.store(true, Ordering::Relaxed);
    });
    let (final_dk, final_g) = server.shutdown().expect("maintenance thread alive during bench");

    ChurnBenchResult {
        readers,
        updates: measured.len(),
        batch,
        blocks_shared,
        blocks_rebuilt,
        total_blocks: final_dk.index().size(),
        rebuilt_ratio: blocks_rebuilt as f64 / ((blocks_shared + blocks_rebuilt) as f64).max(1.0),
        deterministic: snapshot_bytes(&final_dk, &final_g) == expected,
    }
}

/// Everything `bench-smoke` gates on and `BENCH_eval.json` records, in
/// document order.
#[derive(Clone, Debug)]
pub struct GateSet {
    /// Threads the reader pools ran with.
    pub threads: usize,
    /// Batch evaluation through the figure-4 index set.
    pub eval: EvalBenchResult,
    /// A(max_k) and D(k) construction.
    pub builds: Vec<BuildBenchResult>,
    /// Sustained churn ([`bench_churn`]).
    pub churn: ChurnBenchResult,
    /// Loopback DKNP serving ([`bench_net`]).
    pub net: NetBenchResult,
    /// Shifting-workload live tuning ([`bench_tuning`]).
    pub tuning: TuningBenchResult,
}

/// Run the whole gate set on `data` with `workload`'s queries and mined
/// requirements; `threads` is already resolved ([`resolved_threads`]).
pub fn run_gates(
    data: &DataGraph,
    workload: &Workload,
    max_k: usize,
    threads: usize,
    seed: u64,
    net_cfg: &NetBenchConfig,
    tune_cfg: &TuningBenchConfig,
) -> GateSet {
    let queries = workload.queries();
    let reqs = workload.mine_requirements();
    GateSet {
        threads,
        eval: bench_eval(&figure4_indexes(data, &reqs, max_k), data, queries),
        builds: vec![bench_ak_build(data, max_k), bench_dk_build(data, &reqs)],
        churn: bench_churn(data, queries, &reqs, threads, seed),
        net: bench_net(data, queries, &reqs, threads, net_cfg, seed),
        tuning: bench_tuning(data, threads, tune_cfg, seed),
    }
}

impl GateSet {
    /// One console line per result.
    pub fn lines(&self) -> Vec<String> {
        let mut lines = vec![rows_line("eval", &self.eval.rows())];
        lines.extend(self.builds.iter().map(|b| rows_line("construction", &b.rows())));
        lines.push(rows_line("churn", &self.churn.rows()));
        lines.push(rows_line("net", &self.net.rows()));
        lines.push(rows_line("tuning", &self.tuning.rows()));
        lines
    }

    /// The first failing clause of any gate.
    pub fn check(&self) -> Result<(), String> {
        self.eval.check()?;
        self.builds.iter().try_for_each(BuildBenchResult::check)?;
        self.churn.check()?;
        self.net.check()?;
        self.tuning.check()
    }

    /// The `BENCH_eval.json` document (hand-rolled: the workspace has no
    /// serialization dependency).
    pub fn to_json(&self, dataset: &str, loc: Option<&LocReport>) -> String {
        let builds: Vec<String> = self
            .builds
            .iter()
            .map(|b| format!("    {}", rows_json(&b.rows(), 0)))
            .collect();
        let mut sections = vec![
            format!("\"dataset\": \"{dataset}\""),
            format!("\"config\": {{ \"threads\": {} }}", self.threads),
            format!("\"eval\": {}", rows_json(&self.eval.rows(), 4)),
            format!("\"construction\": [\n{}\n  ]", builds.join(",\n")),
            format!("\"churn\": {}", rows_json(&self.churn.rows(), 4)),
            format!("\"net\": {}", rows_json(&self.net.rows(), 4)),
            format!("\"tuning\": {}", rows_json(&self.tuning.rows(), 4)),
        ];
        sections.extend(loc.map(loc_to_json));
        format!("{{\n  {}\n}}\n", sections.join(",\n  "))
    }
}

/// Result of the telemetry transparency check plus one fully instrumented
/// build → query → adapt pass.
#[derive(Clone, Debug)]
pub struct TelemetryBenchResult {
    /// Fast paths matched the reference oracles with the recorder **off**.
    pub identical_off: bool,
    /// Fast paths matched the reference oracles with the recorder **on**.
    pub identical_on: bool,
    /// Snapshot taken after the instrumented pass (recorder already off).
    pub snapshot: telemetry::Snapshot,
}

impl TelemetryBenchResult {
    /// Fails unless telemetry is observationally transparent both ways.
    pub fn check(&self) -> Result<(), String> {
        if self.identical_off && self.identical_on {
            Ok(())
        } else {
            Err("telemetry recorder changed observable results".to_string())
        }
    }
}

/// Verify that the telemetry recorder is observationally transparent and
/// collect one instrumented pass for `METRICS.json`.
///
/// The oracles are the retained PR 1 reference paths — [`dk_partition_reference`]
/// and [`eval_oracle::evaluate`], run with the recorder off. The
/// fast paths ([`dk_partition`], [`IndexEvaluator::evaluate_all`])
/// are then run twice, recorder off and recorder on, and compared for
/// byte-identical partitions, similarities, matches, and visit counts. The
/// recorder-on run is wrapped in the `phase.build_ns` / `phase.query_ns`
/// spans; a follow-up update + tuning round on cloned state fills
/// `phase.adapt_ns` (it mutates the index, so it is exercised for its
/// telemetry rather than compared).
///
/// This is the one gate that drives the process-global recorder
/// (reset/enable/disable), which it leaves disabled.
pub fn bench_telemetry(
    data: &DataGraph,
    queries: &[PathExpr],
    reqs: &Requirements,
    max_k: usize,
    seed: u64,
) -> TelemetryBenchResult {
    telemetry::disable();

    // Oracles: reference construction + baseline evaluation, recorder off.
    let oracle_partition = dk_partition_reference(data, reqs, true);
    let indexes = figure4_indexes(data, reqs, max_k);
    let oracle_out = oracle_outcomes(&indexes, data, queries);

    let fast_pass = || {
        let partition = {
            let _span = telemetry::Span::start(&telemetry::metrics::PHASE_BUILD_NS);
            dk_partition(data, reqs)
        };
        let out = {
            let _span = telemetry::Span::start(&telemetry::metrics::PHASE_QUERY_NS);
            arena_outcomes(&indexes, data, queries)
        };
        partition == oracle_partition && out == oracle_out
    };

    // Recorder off: the disabled spans above are inert.
    let identical_off = fast_pass();

    // Recorder on: same work, now recorded under the phase spans.
    telemetry::reset();
    telemetry::enable();
    let identical_on = fast_pass();
    {
        // Adapt phase: the paper's update + tune loop on cloned state.
        let _span = telemetry::Span::start(&telemetry::metrics::PHASE_ADAPT_NS);
        let mut adapted = data.clone();
        let mut dk = DkIndex::build(&adapted, reqs.clone());
        for (u, v) in generate_update_edges(&adapted, 10, seed) {
            dk.add_edge(&mut adapted, u, v);
        }
        dk.promote_to_requirements(&adapted);
        // The whole query set is one tuner window, applied the way the
        // serve loop's tuned runs are replayed.
        let tuner = Tuner::new(adapted.labels_shared(), TunerConfig { window: 1, min_support: 2 });
        let outcomes = IndexEvaluator::new(dk.index(), &adapted).evaluate_all(queries);
        for (q, out) in queries.iter().zip(&outcomes) {
            tuner.record(q, out.validated, false);
        }
        if let Some(op) = tuner.step(dk.requirements()) {
            apply_serial(&mut dk, &mut adapted, &[op]);
        }
    }
    telemetry::disable();

    TelemetryBenchResult {
        identical_off,
        identical_on,
        snapshot: telemetry::snapshot(),
    }
}

/// Render the telemetry pass as the `METRICS.json` document: dataset +
/// config header, the transparency verdicts, and the full recorder snapshot
/// (per-phase span timings, refinement-round counts, visit histograms).
pub fn metrics_to_json(
    dataset: &str,
    threads: usize,
    max_k: usize,
    queries: usize,
    tel: &TelemetryBenchResult,
) -> String {
    format!(
        "{{\n  \"dataset\": \"{dataset}\",\n  \
         \"config\": {{ \"threads\": {threads}, \"max_k\": {max_k}, \"queries\": {queries} }},\n  \
         \"identical_with_telemetry_off\": {},\n  \
         \"identical_with_telemetry_on\": {},\n  \
         \"telemetry\": {}\n}}\n",
        tel.identical_off,
        tel.identical_on,
        tel.snapshot.to_json().trim_end(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::experiments::standard_workload;

    /// The whole gate set at test scale: the `bench-smoke` pipeline on a
    /// small XMark tree with shortened net and tuning runs.
    fn small_gate_set() -> GateSet {
        let data = datasets::xmark(0.004);
        let workload = standard_workload(&data, 7);
        let net_cfg = NetBenchConfig {
            rounds: 10,
            updates: 6,
            staleness_threshold: 3,
            overload_extra: 2,
        };
        let tune_cfg = TuningBenchConfig {
            rounds: 6,
            queries_per_round: 96,
            window: 32,
            ..TuningBenchConfig::default()
        };
        run_gates(&data, &workload, 2, 2, 7, &net_cfg, &tune_cfg)
    }

    #[test]
    fn smoke_results_are_identical_across_paths() {
        let gates = small_gate_set();
        gates.check().expect("every gate passes at test scale");
        assert!(gates.eval.identical_outcomes, "evaluation paths disagree");
        for b in &gates.builds {
            assert!(b.identical_partition, "{} construction paths disagree", b.name);
        }
        let churn = &gates.churn;
        assert!(churn.deterministic, "churn diverged from serial replay");
        // Edge updates never change the block count, so eight epoch-to-epoch
        // deltas account for exactly eight stores' worth of blocks.
        assert_eq!(
            churn.blocks_shared + churn.blocks_rebuilt,
            (churn.updates / churn.batch * churn.total_blocks) as u64,
            "{churn:?}"
        );
        assert_eq!(gates.lines().len(), 6);

        let loc = LocReport {
            crates: vec![("core".to_string(), 7)],
            total: 9,
        };
        let json = gates.to_json("xmark-test", Some(&loc));
        for key in [
            "\"workspace_total\": 9",
            "\"config\": { \"threads\": 2 }",
            "\"identical_outcomes\": true",
            "\"identical_partition\": true",
            "\"churn\"",
            "\"rebuilt_ratio\"",
            "\"net\"",
            "\"typed_sheds_only\": true",
            "\"tuning\"",
            "\"p99_curve\"",
            "\"wal_recovered\": true",
            "\"deterministic\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // One stopwatch: nothing this document holds is a timing.
        for timing in ["_ms\"", "speedup", "per_sec", "_us\""] {
            assert!(!json.contains(timing), "timing row {timing} in {json}");
        }
    }

    #[test]
    fn gate_set_renders_byte_identically_twice() {
        let first = small_gate_set().to_json("xmark-test", None);
        let second = small_gate_set().to_json("xmark-test", None);
        assert_eq!(first, second, "BENCH_eval.json must repeat run to run");
    }

    #[test]
    fn telemetry_is_observationally_transparent() {
        let data = datasets::xmark(0.004);
        let workload = standard_workload(&data, 7);
        let reqs = workload.mine_requirements();
        let tel = bench_telemetry(&data, workload.queries(), &reqs, 2, 7);
        assert!(tel.identical_off, "fast paths diverge with recorder off");
        assert!(tel.identical_on, "fast paths diverge with recorder on");
        assert!(tel.snapshot.counter("partition.rounds").unwrap_or(0) > 0);
        assert!(tel.snapshot.counter("eval.queries").unwrap_or(0) > 0);
        let json = metrics_to_json("xmark-test", 2, 2, workload.len(), &tel);
        assert!(json.contains("\"identical_with_telemetry_off\": true"));
        assert!(json.contains("\"identical_with_telemetry_on\": true"));
        assert!(json.contains("phase.build_ns"));
        assert!(json.contains("phase.query_ns"));
        assert!(json.contains("phase.adapt_ns"));
    }
}
