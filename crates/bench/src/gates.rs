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

use crate::experiments::{Summaries, MAX_K};
use crate::loc::{loc_to_json, LocReport};
use crate::net::{bench_net, NetBenchConfig, NetBenchResult};
use crate::report::{quoted, rows_json, rows_json_array, rows_line, Rows};
use crate::tuning::{bench_tuning, TuningBenchConfig, TuningBenchResult};
use dkindex_core::dk::{dk_partition, dk_partition_reference};
use dkindex_core::{
    apply_serial, eval_oracle, snapshot_bytes, DkIndex,
    DkServer, IndexEvalOutcome, IndexEvaluator, IndexGraph, Requirements, ServeConfig, ServeOp,
    Tuner, TunerConfig,
};
use dkindex_graph::DataGraph;
use dkindex_partition::{k_bisimulation, RefineEngine};
use dkindex_pathexpr::{LabelIndex, PathExpr};
use dkindex_telemetry as telemetry;
use dkindex_workload::{generate_update_edges, Workload};

/// Reader threads of the churn, net and tuning gates. Fixed, not the host's
/// parallelism: `net.queries` is readers × rounds, so a host-sized pool
/// would make the checked-in record depend on the machine that wrote it.
pub const READERS: usize = 2;

/// Reference path: fresh allocations per query.
fn oracle_outcomes(
    indexes: &[&IndexGraph],
    data: &DataGraph,
    queries: &[PathExpr],
) -> Vec<IndexEvalOutcome> {
    let mut all = Vec::new();
    for &index in indexes {
        let labels = LabelIndex::build(index);
        all.extend(queries.iter().map(|q| eval_oracle::evaluate(index, data, &labels, q)));
    }
    all
}

/// One reused evaluator (arena and seed lists) per index.
fn arena_outcomes(
    indexes: &[&IndexGraph],
    data: &DataGraph,
    queries: &[PathExpr],
) -> Vec<IndexEvalOutcome> {
    let mut all = Vec::new();
    for &index in indexes {
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
            ("name", quoted(&self.name)),
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

/// Sustained churn: a long update stream published one update at a time
/// while reader threads query continuously, with the COW delta-epoch
/// sharing measured per column, epoch to epoch.
#[derive(Clone, Debug)]
pub struct ChurnBenchResult {
    /// Reader threads querying concurrently with the update stream.
    pub readers: usize,
    /// Edge updates applied inside the measured window, each its own
    /// publish (one unmeasured warm-up batch precedes it; see
    /// [`bench_churn`]).
    pub updates: usize,
    /// Rows of every column of both graphs (index labels, similarities,
    /// node map, extents, children and parents; data labels, children,
    /// parents and references) still in storage pointer-shared with the
    /// epoch one update earlier, summed over the measured publishes.
    pub rows_shared: u64,
    /// The rest of those rows: copied-on-write or freshly built by a
    /// publish, summed over the measured publishes.
    pub rows_copied: u64,
    /// Per column (`index.` then [`IndexGraph::CENSUS_COLUMNS`], `data.`
    /// then [`DataGraph::CENSUS_COLUMNS`]), the copied rows in storage
    /// none of whose rows the publish changed: copies no write asked for.
    pub copied_unchanged: Vec<(String, u64)>,
    /// Blocks in the final published index.
    pub total_blocks: usize,
    /// `rows_copied / (rows_shared + rows_copied)` — the average fraction
    /// of the store one publish had to copy.
    pub copied_ratio: f64,
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
            ("rows_shared", self.rows_shared.to_string()),
            ("rows_copied", self.rows_copied.to_string()),
            ("rows_copied_unchanged", self.rows_copied_unchanged().to_string()),
            ("total_blocks", self.total_blocks.to_string()),
            ("copied_ratio", format!("{:.4}", self.copied_ratio)),
            ("deterministic", self.deterministic.to_string()),
        ]
    }

    /// The copied rows no write asked for, over every column.
    pub fn rows_copied_unchanged(&self) -> u64 {
        self.copied_unchanged.iter().map(|(_, rows)| rows).sum()
    }

    /// The delta-epoch acceptance gate: the run replays serially, no
    /// publish copies storage of any column whose rows it left unchanged,
    /// and publishes copy at most 10% of the store on average.
    pub fn check(&self) -> Result<(), String> {
        if !self.deterministic {
            return Err("sustained-churn run diverged from serial replay".to_string());
        }
        let needless: Vec<String> = self
            .copied_unchanged
            .iter()
            .filter(|(_, rows)| *rows > 0)
            .map(|(column, rows)| format!("{column} {rows}"))
            .collect();
        if !needless.is_empty() {
            return Err(format!(
                "publishes copied rows they did not change: {} (gate: 0 in every column)",
                needless.join(", ")
            ));
        }
        if self.rows_shared == 0 || self.copied_ratio > 0.10 {
            return Err(format!(
                "publishes copied {:.1}% of the store's rows on average (gate: <= 10%)",
                self.copied_ratio * 100.0
            ));
        }
        Ok(())
    }
}

/// Sustained-churn gate: apply `batches * batch` generated edge updates
/// through a [`DkServer`], each flushed as its own publish, while
/// [`READERS`] threads query continuously, then cross-check the final state
/// byte-for-byte against [`apply_serial`].
///
/// One additional warm-up batch is applied before the measurement window
/// opens: the very first update batch on a freshly tuned index triggers the
/// one-time broadcast-lowering cascade (a large fraction of blocks get
/// their similarity lowered), which is a property of cold start, not of
/// sustained publishing. The serial-replay determinism oracle still covers
/// the **full** stream, warm-up included.
///
/// Sharing is measured from the epochs themselves: the epoch held before an
/// update is submitted is compared column by column with the one published
/// after its flush. The held epoch keeps all of its storage alive, so a
/// unit the publish wrote is always a fresh allocation, and one it copied
/// without changing a row of it is a copy no write asked for. One update
/// per publish makes that exact for the flat similarity column too, which
/// a larger delta nearly always writes.
pub fn bench_churn(
    data: &DataGraph,
    queries: &[PathExpr],
    reqs: &Requirements,
    seed: u64,
) -> ChurnBenchResult {
    use std::sync::atomic::{AtomicBool, Ordering};

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
    let (mut rows_shared, mut rows_copied) = (0u64, 0u64);
    let columns = IndexGraph::CENSUS_COLUMNS.map(|c| format!("index.{c}")).into_iter();
    let columns = columns.chain(DataGraph::CENSUS_COLUMNS.map(|c| format!("data.{c}")));
    let mut copied_unchanged: Vec<(String, u64)> = columns.map(|c| (c, 0)).collect();
    std::thread::scope(|s| {
        for r in 0..READERS {
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
        for op in measured {
            let before = handle.epoch();
            submit_and_flush(std::slice::from_ref(op));
            let after = handle.epoch();
            let index = after.index().index().census_with(before.index().index());
            let data = after.data().census_with(before.data());
            for (column, (_, unchanged)) in index.iter().chain(&data).zip(&mut copied_unchanged) {
                rows_shared += column.shared as u64;
                rows_copied += column.copied() as u64;
                *unchanged += column.copied_unchanged as u64;
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    let (final_dk, final_g) = server.shutdown().expect("maintenance thread alive during bench");

    ChurnBenchResult {
        readers: READERS,
        updates: measured.len(),
        rows_shared,
        rows_copied,
        copied_unchanged,
        total_blocks: final_dk.index().size(),
        copied_ratio: rows_copied as f64 / ((rows_shared + rows_copied) as f64).max(1.0),
        deterministic: snapshot_bytes(&final_dk, &final_g) == expected,
    }
}

/// Everything `bench-smoke` gates on and `BENCH_eval.json` records, in
/// document order.
#[derive(Clone, Debug)]
pub struct GateSet {
    /// Batch evaluation through the figure-4 index set.
    pub eval: EvalBenchResult,
    /// A([`MAX_K`]) and D(k) construction.
    pub builds: Vec<BuildBenchResult>,
    /// Sustained churn ([`bench_churn`]).
    pub churn: ChurnBenchResult,
    /// Loopback DKNP serving ([`bench_net`]).
    pub net: NetBenchResult,
    /// Shifting-workload live tuning ([`bench_tuning`]).
    pub tuning: TuningBenchResult,
    /// Telemetry transparency and the instrumented pass, from the same
    /// fast-path runs as `eval` and the D(k) `builds` row.
    pub telemetry: TelemetryBenchResult,
}

/// Run the whole gate set on `data` with `workload`'s queries and mined
/// requirements, with [`READERS`] reader threads.
/// Evaluation runs through the paper's figure-4 set ([`Summaries::figure4`]):
/// the coarse indexes validate heavily, the tuned ones barely — both
/// regimes count.
pub fn run_gates(
    data: &DataGraph,
    workload: &Workload,
    seed: u64,
    net_cfg: &NetBenchConfig,
    tune_cfg: &TuningBenchConfig,
) -> GateSet {
    let queries = workload.queries();
    let reqs = workload.mine_requirements();
    let summaries = Summaries::build(data, &reqs);
    let (eval, dk_build, telemetry) = bench_identity(data, &summaries.figure4(), queries, &reqs, seed);
    GateSet {
        eval,
        builds: vec![bench_ak_build(data, MAX_K), dk_build],
        churn: bench_churn(data, queries, &reqs, seed),
        net: bench_net(data, queries, &reqs, net_cfg, seed),
        tuning: bench_tuning(data, tune_cfg, seed),
        telemetry,
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
        self.tuning.check()?;
        self.telemetry.check()
    }

    /// The `BENCH_eval.json` document (hand-rolled: the workspace has no
    /// serialization dependency).
    pub fn to_json(&self, dataset: &str, loc: Option<&LocReport>) -> String {
        let builds: Vec<Rows> = self.builds.iter().map(BuildBenchResult::rows).collect();
        let mut sections = vec![
            format!("\"dataset\": \"{dataset}\""),
            format!("\"config\": {{ \"threads\": {READERS} }}"),
            format!("\"eval\": {}", rows_json(&self.eval.rows(), 4)),
            format!("\"construction\": {}", rows_json_array(&builds, 4)),
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

/// The evaluation and D(k) construction identity gates, the telemetry
/// transparency check and one instrumented pass for `METRICS.json`, from
/// one run of each side.
///
/// The references — [`dk_partition_reference`] and [`eval_oracle::evaluate`]
/// over `indexes` — run once, recorder off. The fast paths
/// ([`dk_partition`], [`IndexEvaluator::evaluate_all`]) run twice, recorder
/// off and recorder on, and are compared for byte-identical partitions,
/// similarities, matches and visit counts. The recorder-off comparison is
/// the `eval` section and the D(k) `construction` row; both comparisons are
/// the transparency verdicts. The recorder-on run is wrapped in the
/// `phase.build_ns` / `phase.query_ns` spans; a follow-up update + tuning
/// round on cloned state fills `phase.adapt_ns` (it mutates the index, so
/// it is exercised for its telemetry rather than compared).
///
/// This is the one gate that drives the process-global recorder
/// (reset/enable/disable), which it leaves disabled.
fn bench_identity(
    data: &DataGraph,
    indexes: &[&IndexGraph],
    queries: &[PathExpr],
    reqs: &Requirements,
    seed: u64,
) -> (EvalBenchResult, BuildBenchResult, TelemetryBenchResult) {
    telemetry::disable();
    let reference = dk_partition_reference(data, reqs, true);
    let oracle = oracle_outcomes(indexes, data, queries);

    // (partition identical, outcomes identical)
    let fast_pass = || {
        let partition = {
            let _span = telemetry::Span::start(&telemetry::metrics::PHASE_BUILD_NS);
            dk_partition(data, reqs)
        };
        let out = {
            let _span = telemetry::Span::start(&telemetry::metrics::PHASE_QUERY_NS);
            arena_outcomes(indexes, data, queries)
        };
        (partition == reference, out == oracle)
    };

    // Recorder off: the disabled spans above are inert.
    let off = fast_pass();

    // Recorder on: same work, now recorded under the phase spans.
    telemetry::reset();
    telemetry::enable();
    let on = fast_pass();
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
            tuner.record(q, out.validated);
        }
        if let Some(op) = tuner.step(dk.requirements()) {
            apply_serial(&mut dk, &mut adapted, &[op]);
        }
    }
    telemetry::disable();

    let eval = EvalBenchResult {
        indexes: indexes.len(),
        queries: queries.len(),
        identical_outcomes: off.1,
        index_visits: oracle.iter().map(|o| o.cost.index_visits).sum(),
        data_visits: oracle.iter().map(|o| o.cost.data_visits).sum(),
    };
    let dk_build = BuildBenchResult {
        name: "D(k)".to_string(),
        identical_partition: off.0,
        blocks: reference.0.block_count(),
    };
    let tel = TelemetryBenchResult {
        identical_off: off.0 && off.1,
        identical_on: on.0 && on.1,
        snapshot: telemetry::snapshot(),
    };
    (eval, dk_build, tel)
}

/// Render the telemetry pass as the `METRICS.json` document: dataset +
/// config header, the transparency verdicts, and the full recorder snapshot
/// (per-phase span timings, refinement-round counts, visit histograms).
pub fn metrics_to_json(dataset: &str, queries: usize, tel: &TelemetryBenchResult) -> String {
    format!(
        "{{\n  \"dataset\": \"{dataset}\",\n  \
         \"config\": {{ \"threads\": {READERS}, \"max_k\": {MAX_K}, \"queries\": {queries} }},\n  \
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
    use crate::datasets::Dataset;
    use crate::experiments::standard_workload;
    use dkindex_graph::LabeledGraph;
    use std::sync::{Mutex, PoisonError};

    /// Held while a gate set runs: the telemetry pass resets and toggles
    /// the process-global recorder, so two at once would blank each other's
    /// counters.
    static RECORDER: Mutex<()> = Mutex::new(());

    /// The test-scale XMark tree the gate set runs on.
    fn gates_data() -> DataGraph {
        Dataset::Xmark.generate(0.004)
    }

    /// The whole gate set at test scale: the `bench-smoke` pipeline on a
    /// small XMark tree with shortened net and tuning runs.
    fn small_gate_set() -> GateSet {
        let _recorder = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
        let data = gates_data();
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
        run_gates(&data, &workload, 7, &net_cfg, &tune_cfg)
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
        // Edge updates never change the block or node count, so each
        // epoch-to-epoch delta accounts for exactly one store's worth of
        // rows: five columns of blocks, and the node map and four data
        // columns of nodes.
        let store = 5 * (churn.total_blocks + gates_data().node_count());
        assert_eq!(
            churn.rows_shared + churn.rows_copied,
            (churn.updates * store) as u64,
            "{churn:?}"
        );
        assert!(churn.rows_copied > 0, "an edge update copies the rows it writes");
        assert_eq!(churn.copied_unchanged.len(), 10, "every column of both graphs");
        assert_eq!(churn.rows_copied_unchanged(), 0, "{churn:?}");
        assert_eq!(gates.lines().len(), 6);

        let tel = &gates.telemetry;
        assert!(tel.identical_off, "fast paths diverge with recorder off");
        assert!(tel.identical_on, "fast paths diverge with recorder on");
        assert!(tel.snapshot.counter("partition.rounds").unwrap_or(0) > 0);
        assert!(tel.snapshot.counter("eval.queries").unwrap_or(0) > 0);
        let metrics = metrics_to_json("xmark-test", gates.eval.queries, tel);
        for key in [
            "\"identical_with_telemetry_off\": true",
            "\"identical_with_telemetry_on\": true",
            "phase.build_ns",
            "phase.query_ns",
            "phase.adapt_ns",
        ] {
            assert!(metrics.contains(key), "missing {key} in {metrics}");
        }

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
            "\"copied_ratio\"",
            "\"rows_copied_unchanged\": 0",
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
}
