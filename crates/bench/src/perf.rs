//! Before/after performance benchmark for the scratch-arena query engine and
//! the interned-signature refinement engine.
//!
//! "Before" is the retained reference implementation (the allocator-per-query
//! [`eval_oracle`], vector-keyed signature refinement); "after" is the arena +
//! memo evaluator and the [`RefineEngine`]. Both sides are checked for
//! **byte-identical results** — same matches, same [`dkindex_core::QueryCost`] visit
//! counts, same partitions — before any timing is reported, so the speedup
//! numbers can never come from computing something different.
//!
//! The `reproduce bench-smoke` subcommand drives this module and writes the
//! measurements to `BENCH_eval.json`.

use dkindex_core::dk::{dk_partition_reference, dk_partition_with_engine};
use dkindex_core::{
    apply_serial, eval_oracle, evaluate_workload_parallel, snapshot_bytes, AkIndex,
    DkIndex, DkServer, IndexEvalOutcome, IndexEvaluator, IndexGraph, Requirements, ServeConfig,
    ServeOp, Tuner, TunerConfig,
};
use dkindex_graph::DataGraph;
use dkindex_partition::{k_bisimulation, RefineEngine};
use dkindex_pathexpr::{LabelIndex, PathExpr};
use dkindex_telemetry as telemetry;
use dkindex_workload::generate_update_edges;
use std::time::Instant;

/// Knobs for the smoke benchmark.
#[derive(Clone, Copy, Debug)]
pub struct PerfConfig {
    /// Threads for the parallel paths (`0` = available parallelism).
    pub threads: usize,
    /// Timing repeats per side; the minimum is reported.
    pub repeats: usize,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            threads: 0,
            repeats: 3,
        }
    }
}

impl PerfConfig {
    /// `threads`, with `0` resolved to the machine's available parallelism.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            self.threads
        }
    }
}

/// Batch-evaluation measurements: reference vs arena vs parallel.
#[derive(Clone, Debug)]
pub struct EvalBenchResult {
    /// Indexes the workload is evaluated through (the paper's figure-4 set:
    /// A(0)..A(max_k) plus the workload-tuned D(k)).
    pub indexes: usize,
    /// Queries in the workload.
    pub queries: usize,
    /// Reference path: fresh allocations per query, no memo.
    pub baseline_ms: f64,
    /// Arena + memo evaluator, single thread.
    pub arena_ms: f64,
    /// Arena + memo evaluators across worker threads.
    pub parallel_ms: f64,
    /// Threads used by the parallel path.
    pub threads: usize,
    /// `baseline_ms / arena_ms`.
    pub speedup_arena: f64,
    /// `baseline_ms / min(arena_ms, parallel_ms)` — the headline number.
    pub speedup_best: f64,
    /// All three paths returned byte-identical outcomes (matches, visit
    /// counts, validated flags).
    pub identical: bool,
    /// Total index visits across the workload (identical on every path).
    pub index_visits: u64,
    /// Total validation visits across the workload (identical on every path).
    pub data_visits: u64,
}

/// Construction measurements for one summary: reference vs engine.
#[derive(Clone, Debug)]
pub struct BuildBenchResult {
    /// Summary name, e.g. `"A(4)"`.
    pub name: String,
    /// Reference construction (vector-keyed signatures).
    pub baseline_ms: f64,
    /// [`RefineEngine`] construction, single thread.
    pub engine_ms: f64,
    /// [`RefineEngine`] construction with the configured thread count.
    pub engine_parallel_ms: f64,
    /// `baseline_ms / min(engine_ms, engine_parallel_ms)`.
    pub speedup: f64,
    /// Engine partitions equal the reference partitions (same block ids,
    /// same member order).
    pub identical: bool,
    /// Blocks in the final partition.
    pub blocks: usize,
}

/// Minimum over `repeats` timed runs, returning the last run's value.
fn time_best<T>(repeats: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        let value = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        out = Some(value);
    }
    (best, out.expect("repeats >= 1"))
}

/// Benchmark batch workload evaluation through every index in `indexes` over
/// `data` (the paper's figure-4 sweep shape: the coarse indexes validate
/// heavily, the tuned ones barely — both regimes count).
pub fn bench_eval(
    indexes: &[IndexGraph],
    data: &DataGraph,
    queries: &[PathExpr],
    cfg: &PerfConfig,
) -> EvalBenchResult {
    let threads = cfg.resolved_threads();
    let (baseline_ms, base_out) = time_best(cfg.repeats, || {
        let mut all: Vec<IndexEvalOutcome> = Vec::new();
        for index in indexes {
            let labels = LabelIndex::build(index);
            all.extend(queries.iter().map(|q| eval_oracle::evaluate(index, data, &labels, q)));
        }
        all
    });
    let (arena_ms, arena_out) = time_best(cfg.repeats, || {
        let mut all: Vec<IndexEvalOutcome> = Vec::new();
        for index in indexes {
            all.extend(IndexEvaluator::new(index, data).evaluate_all(queries));
        }
        all
    });
    let (parallel_ms, parallel_out) = time_best(cfg.repeats, || {
        let mut all: Vec<IndexEvalOutcome> = Vec::new();
        for index in indexes {
            all.extend(evaluate_workload_parallel(index, data, queries, threads));
        }
        all
    });

    let identical = base_out == arena_out && base_out == parallel_out;
    let index_visits = base_out.iter().map(|o| o.cost.index_visits).sum();
    let data_visits = base_out.iter().map(|o| o.cost.data_visits).sum();
    let best_after = arena_ms.min(parallel_ms);
    EvalBenchResult {
        indexes: indexes.len(),
        queries: queries.len(),
        baseline_ms,
        arena_ms,
        parallel_ms,
        threads,
        speedup_arena: baseline_ms / arena_ms.max(f64::MIN_POSITIVE),
        speedup_best: baseline_ms / best_after.max(f64::MIN_POSITIVE),
        identical,
        index_visits,
        data_visits,
    }
}

/// Benchmark A(k) construction: reference [`k_bisimulation`] vs
/// [`RefineEngine::k_bisimulation`].
pub fn bench_ak_build(data: &DataGraph, k: usize, cfg: &PerfConfig) -> BuildBenchResult {
    let threads = cfg.resolved_threads();
    let (baseline_ms, reference) = time_best(cfg.repeats, || k_bisimulation(data, k));
    let (engine_ms, sequential) = time_best(cfg.repeats, || {
        let mut engine = RefineEngine::new();
        engine.k_bisimulation(data, k)
    });
    let (engine_parallel_ms, parallel) = time_best(cfg.repeats, || {
        let mut engine = RefineEngine::with_threads(threads);
        engine.k_bisimulation(data, k)
    });
    let identical = reference == sequential && reference == parallel;
    let best = engine_ms.min(engine_parallel_ms);
    BuildBenchResult {
        name: format!("A({k})"),
        baseline_ms,
        engine_ms,
        engine_parallel_ms,
        speedup: baseline_ms / best.max(f64::MIN_POSITIVE),
        identical,
        blocks: reference.block_count(),
    }
}

/// Benchmark D(k) construction for `reqs`: the retained reference loop vs
/// [`dk_partition_with_engine`].
pub fn bench_dk_build(
    data: &DataGraph,
    reqs: &Requirements,
    cfg: &PerfConfig,
) -> BuildBenchResult {
    let threads = cfg.resolved_threads();
    let (baseline_ms, (ref_p, ref_sims)) =
        time_best(cfg.repeats, || dk_partition_reference(data, reqs, true));
    let (engine_ms, (seq_p, seq_sims)) = time_best(cfg.repeats, || {
        dk_partition_with_engine(data, reqs, true, &mut RefineEngine::new())
    });
    let (engine_parallel_ms, (par_p, par_sims)) = time_best(cfg.repeats, || {
        dk_partition_with_engine(data, reqs, true, &mut RefineEngine::with_threads(threads))
    });
    let identical =
        ref_p == seq_p && ref_p == par_p && ref_sims == seq_sims && ref_sims == par_sims;
    let best = engine_ms.min(engine_parallel_ms);
    BuildBenchResult {
        name: "D(k)".to_string(),
        baseline_ms,
        engine_ms,
        engine_parallel_ms,
        speedup: baseline_ms / best.max(f64::MIN_POSITIVE),
        identical,
        blocks: ref_p.block_count(),
    }
}

/// Concurrent serving measurements: reader throughput under a live update
/// stream, plus the determinism cross-check against a serial replay.
#[derive(Clone, Debug)]
pub struct ServeBenchResult {
    /// Reader threads evaluating queries against published epochs.
    pub readers: usize,
    /// Query evaluations issued per reader.
    pub rounds: usize,
    /// Total queries answered (`readers * rounds`).
    pub queries: u64,
    /// Edge updates applied by the maintenance thread.
    pub updates: usize,
    /// Epochs published (batching collapses updates, so `<= updates`).
    pub epochs: u64,
    /// Wall-clock for the whole mixed run.
    pub serve_ms: f64,
    /// Queries answered per second across all readers.
    pub queries_per_sec: f64,
    /// Final published state is byte-identical to a serial replay of the
    /// same op sequence.
    pub deterministic: bool,
}

/// Benchmark the epoch-published serving layer ([`DkServer`]): reader
/// threads evaluate `queries` round-robin while the maintenance thread
/// applies a generated edge-update stream in batches, then the final state
/// is compared byte-for-byte against [`apply_serial`].
pub fn bench_serve(
    data: &DataGraph,
    queries: &[PathExpr],
    reqs: &Requirements,
    cfg: &PerfConfig,
    seed: u64,
) -> ServeBenchResult {
    let readers = cfg.resolved_threads().max(1);
    let rounds = 200;
    let updates = 32;
    let dk = DkIndex::build(data, reqs.clone());
    let ops: Vec<ServeOp> = generate_update_edges(data, updates, seed)
        .into_iter()
        .map(|(from, to)| ServeOp::AddEdge { from, to })
        .collect();

    let mut serial_dk = dk.clone();
    let mut serial_g = data.clone();
    apply_serial(&mut serial_dk, &mut serial_g, &ops);
    let expected = snapshot_bytes(&serial_dk, &serial_g);

    let start = Instant::now();
    let server = DkServer::start(
        data.clone(),
        dk,
        ServeConfig {
            max_batch: 8,
            threads: readers,
            ..ServeConfig::default()
        },
    );
    std::thread::scope(|s| {
        let mut workers = Vec::new();
        for r in 0..readers {
            let handle = server.handle();
            workers.push(s.spawn(move || {
                for round in 0..rounds {
                    let q = &queries[(r + round) % queries.len()];
                    let _ = handle.evaluate(q);
                }
            }));
        }
        for op in &ops {
            server.submit(op.clone()).expect("maintenance thread alive during bench");
        }
        for w in workers {
            w.join().expect("reader thread panicked");
        }
    });
    let epochs = server.flush().expect("maintenance thread alive during bench");
    let serve_ms = start.elapsed().as_secs_f64() * 1e3;
    let (final_dk, final_g) = server.shutdown().expect("maintenance thread alive during bench");
    let deterministic = snapshot_bytes(&final_dk, &final_g) == expected;

    let answered = (readers * rounds) as u64;
    ServeBenchResult {
        readers,
        rounds,
        queries: answered,
        updates: ops.len(),
        epochs,
        serve_ms,
        queries_per_sec: answered as f64 / (serve_ms / 1e3).max(f64::MIN_POSITIVE),
        deterministic,
    }
}

/// Sustained-churn measurements: a long update stream applied in large
/// batches while reader threads query continuously, with the COW
/// delta-epoch sharing counters and publish-latency histogram captured
/// from the telemetry recorder.
#[derive(Clone, Debug)]
pub struct ChurnBenchResult {
    /// Reader threads querying concurrently with the update stream.
    pub readers: usize,
    /// Edge updates applied inside the measured window (one unmeasured
    /// warm-up batch precedes it; see [`bench_churn`]).
    pub updates: usize,
    /// [`ServeConfig::max_batch`]: updates coalesced per publish.
    pub batch: usize,
    /// Epochs published inside the measured window.
    pub epochs: u64,
    /// Queries answered by the readers while the stream was live.
    pub queries: u64,
    /// Wall-clock for the whole churn run.
    pub churn_ms: f64,
    /// Updates applied per second (the sustained-churn headline).
    pub updates_per_sec: f64,
    /// Blocks pointer-shared with the predecessor epoch, summed over
    /// publishes (`serve.publish.blocks_shared`).
    pub blocks_shared: u64,
    /// Blocks copied-on-write or freshly built, summed over publishes
    /// (`serve.publish.blocks_rebuilt`).
    pub blocks_rebuilt: u64,
    /// Blocks in the final published index.
    pub total_blocks: usize,
    /// `blocks_rebuilt / (blocks_shared + blocks_rebuilt)` — the average
    /// fraction of the store a publish had to copy. The delta-epoch
    /// acceptance gate is `<= 0.10` at the 32-update batch size.
    pub rebuilt_ratio: f64,
    /// Publishes recorded in the `serve.publish_ns` histogram.
    pub publish_count: u64,
    /// Median publish latency in nanoseconds (`serve.publish_ns` p50).
    pub publish_p50_ns: u64,
    /// Worst publish latency in nanoseconds (`serve.publish_ns` max).
    pub publish_max_ns: u64,
    /// Final published state is byte-identical to a serial replay of the
    /// same op sequence.
    pub deterministic: bool,
}

impl ChurnBenchResult {
    /// The delta-epoch acceptance gate: publishes shared structurally and
    /// copied at most 10% of the store on average.
    pub fn sharing_ok(&self) -> bool {
        self.blocks_shared > 0 && self.rebuilt_ratio <= 0.10
    }
}

/// Sustained-churn benchmark: apply `batches * batch` generated edge updates
/// through a [`DkServer`] configured with `max_batch = batch` while
/// `cfg.threads` reader threads query continuously, then cross-check the
/// final state byte-for-byte against [`apply_serial`].
///
/// One additional warm-up batch is applied before the measurement window
/// opens: the very first update batch on a freshly tuned index triggers the
/// one-time broadcast-lowering cascade (a large fraction of blocks get
/// their similarity lowered), which is a property of cold start, not of
/// sustained publishing. The serial-replay determinism oracle still covers
/// the **full** stream, warm-up included.
///
/// The telemetry recorder is reset and enabled for the measured window
/// so the COW sharing counters (`serve.publish.blocks_shared` /
/// `serve.publish.blocks_rebuilt`) and the `serve.publish_ns` latency
/// histogram cover exactly the steady-state stream. Callers that care about
/// recorder state should snapshot before calling; the recorder is left
/// disabled.
pub fn bench_churn(
    data: &DataGraph,
    queries: &[PathExpr],
    reqs: &Requirements,
    cfg: &PerfConfig,
    seed: u64,
) -> ChurnBenchResult {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let readers = cfg.resolved_threads().max(1);
    let batch = 32;
    let batches = 8;
    let dk = DkIndex::build(data, reqs.clone());
    // One extra batch up front is warm-up (applied outside the window).
    let ops: Vec<ServeOp> = generate_update_edges(data, batch * (batches + 1), seed)
        .into_iter()
        .map(|(from, to)| ServeOp::AddEdge { from, to })
        .collect();
    let (warmup, measured) = ops.split_at(batch);

    // Serial oracle, recorder off: determinism must not depend on telemetry.
    telemetry::disable();
    let mut serial_dk = dk.clone();
    let mut serial_g = data.clone();
    apply_serial(&mut serial_dk, &mut serial_g, &ops);
    let expected = snapshot_bytes(&serial_dk, &serial_g);

    let server = DkServer::start(
        data.clone(),
        dk,
        ServeConfig {
            max_batch: batch,
            threads: readers,
            ..ServeConfig::default()
        },
    );
    // Warm-up: absorb the cold-start broadcast-lowering cascade unrecorded.
    for op in warmup {
        server.submit(op.clone()).expect("maintenance thread alive during bench");
    }
    let warmup_epochs = server.flush().expect("maintenance thread alive during bench");

    telemetry::reset();
    telemetry::enable();
    let start = Instant::now();
    let stop = AtomicBool::new(false);
    let answered = AtomicU64::new(0);
    let mut epochs = warmup_epochs;
    std::thread::scope(|s| {
        for r in 0..readers {
            let handle = server.handle();
            let (stop, answered) = (&stop, &answered);
            s.spawn(move || {
                let mut round = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let q = &queries[(r + round) % queries.len()];
                    let _ = handle.evaluate(q);
                    round += 1;
                }
                answered.fetch_add(round as u64, Ordering::Relaxed);
            });
        }
        // Submit one full batch, then flush to force a publish boundary, so
        // the sharing counters measure genuine `batch`-sized deltas.
        for chunk in measured.chunks(batch) {
            for op in chunk {
                server.submit(op.clone()).expect("maintenance thread alive during bench");
            }
            epochs = server.flush().expect("maintenance thread alive during bench");
        }
        stop.store(true, Ordering::Relaxed);
    });
    let churn_ms = start.elapsed().as_secs_f64() * 1e3;
    let (final_dk, final_g) = server.shutdown().expect("maintenance thread alive during bench");
    telemetry::disable();
    let snapshot = telemetry::snapshot();
    let deterministic = snapshot_bytes(&final_dk, &final_g) == expected;

    let blocks_shared = snapshot.counter("serve.publish.blocks_shared").unwrap_or(0);
    let blocks_rebuilt = snapshot.counter("serve.publish.blocks_rebuilt").unwrap_or(0);
    let publish = snapshot.histogram("serve.publish_ns");
    let considered = blocks_shared + blocks_rebuilt;
    ChurnBenchResult {
        readers,
        updates: measured.len(),
        batch,
        epochs: epochs - warmup_epochs,
        queries: answered.load(Ordering::Relaxed),
        churn_ms,
        updates_per_sec: measured.len() as f64 / (churn_ms / 1e3).max(f64::MIN_POSITIVE),
        blocks_shared,
        blocks_rebuilt,
        total_blocks: final_dk.index().size(),
        rebuilt_ratio: blocks_rebuilt as f64 / (considered as f64).max(1.0),
        publish_count: publish.map_or(0, |h| h.count),
        publish_p50_ns: publish.and_then(|h| h.p50).unwrap_or(0),
        publish_max_ns: publish.and_then(|h| h.max).unwrap_or(0),
        deterministic,
    }
}

/// Full smoke benchmark on an XMark-like dataset: batch evaluation of the
/// workload through the figure-4 index set (A(0)..A(max_k) plus the
/// workload-tuned D(k)), plus A(k) and D(k) construction. Returns the eval
/// result and the construction results.
pub fn bench_smoke(
    data: &DataGraph,
    queries: &[PathExpr],
    reqs: &Requirements,
    max_k: usize,
    cfg: &PerfConfig,
) -> (EvalBenchResult, Vec<BuildBenchResult>) {
    let mut indexes: Vec<IndexGraph> = (0..=max_k)
        .map(|k| AkIndex::build(data, k).index().clone())
        .collect();
    indexes.push(DkIndex::build(data, reqs.clone()).index().clone());
    let eval = bench_eval(&indexes, data, queries, cfg);
    let builds = vec![
        bench_ak_build(data, max_k, cfg),
        bench_dk_build(data, reqs, cfg),
    ];
    (eval, builds)
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
    /// Both checks passed: telemetry is observationally transparent.
    pub fn identical(&self) -> bool {
        self.identical_off && self.identical_on
    }
}

/// Verify that the telemetry recorder is observationally transparent and
/// collect one instrumented pass for `METRICS.json`.
///
/// The oracles are the retained PR 1 reference paths — [`dk_partition_reference`]
/// and [`eval_oracle::evaluate`], run with the recorder off. The
/// fast paths ([`dk_partition_with_engine`], [`IndexEvaluator::evaluate_all`])
/// are then run twice, recorder off and recorder on, and compared for
/// byte-identical partitions, similarities, matches, and visit counts. The
/// recorder-on run is wrapped in the `phase.build_ns` / `phase.query_ns`
/// spans; a follow-up update + tuning round on cloned state fills
/// `phase.adapt_ns` (it mutates the index, so it is exercised for its
/// telemetry rather than compared).
pub fn bench_telemetry(
    data: &DataGraph,
    queries: &[PathExpr],
    reqs: &Requirements,
    max_k: usize,
    seed: u64,
) -> TelemetryBenchResult {
    telemetry::disable();

    // Oracles: reference construction + baseline evaluation, recorder off.
    let (oracle_p, oracle_sims) = dk_partition_reference(data, reqs, true);
    let mut indexes: Vec<IndexGraph> = (0..=max_k)
        .map(|k| AkIndex::build(data, k).index().clone())
        .collect();
    indexes.push(DkIndex::build(data, reqs.clone()).index().clone());
    let mut oracle_out: Vec<IndexEvalOutcome> = Vec::new();
    for index in &indexes {
        let labels = LabelIndex::build(index);
        oracle_out.extend(queries.iter().map(|q| eval_oracle::evaluate(index, data, &labels, q)));
    }

    let fast_pass = |indexes: &[IndexGraph]| {
        let (p, sims) = {
            let _span = telemetry::Span::start(&telemetry::metrics::PHASE_BUILD_NS);
            dk_partition_with_engine(data, reqs, true, &mut RefineEngine::new())
        };
        let out = {
            let _span = telemetry::Span::start(&telemetry::metrics::PHASE_QUERY_NS);
            let mut all: Vec<IndexEvalOutcome> = Vec::new();
            for index in indexes {
                all.extend(IndexEvaluator::new(index, data).evaluate_all(queries));
            }
            all
        };
        (p, sims, out)
    };

    // Recorder off: the disabled spans above are inert.
    let (p_off, sims_off, out_off) = fast_pass(&indexes);
    let identical_off =
        p_off == oracle_p && sims_off == oracle_sims && out_off == oracle_out;

    // Recorder on: same work, now recorded under the phase spans.
    telemetry::reset();
    telemetry::enable();
    let (p_on, sims_on, out_on) = fast_pass(&indexes);
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
    let snapshot = telemetry::snapshot();
    let identical_on = p_on == oracle_p && sims_on == oracle_sims && out_on == oracle_out;

    TelemetryBenchResult {
        identical_off,
        identical_on,
        snapshot,
    }
}

/// Render the telemetry bench as the `METRICS.json` document: dataset +
/// config header, the transparency verdicts, and the full recorder snapshot
/// (per-phase span timings, refinement-round counts, visit histograms).
pub fn metrics_to_json(
    dataset: &str,
    cfg: &PerfConfig,
    max_k: usize,
    queries: usize,
    tel: &TelemetryBenchResult,
) -> String {
    let snapshot_json = tel.snapshot.to_json();
    format!(
        "{{\n  \"dataset\": \"{dataset}\",\n  \
         \"config\": {{ \"threads\": {}, \"repeats\": {}, \"max_k\": {max_k}, \
         \"queries\": {queries} }},\n  \
         \"identical_with_telemetry_off\": {},\n  \
         \"identical_with_telemetry_on\": {},\n  \
         \"telemetry\": {}\n}}\n",
        cfg.resolved_threads(),
        cfg.repeats,
        tel.identical_off,
        tel.identical_on,
        snapshot_json.trim_end(),
    )
}

/// The serving-layer result sections [`to_json`] renders after the
/// eval/construction sections.
pub struct ServingSections<'a> {
    /// Concurrent serve bench (`bench_serve`).
    pub serve: &'a ServeBenchResult,
    /// Sustained-churn bench (`bench_churn`).
    pub churn: &'a ChurnBenchResult,
    /// Loopback network bench ([`crate::net::bench_net`]).
    pub net: &'a crate::net::NetBenchResult,
    /// Durable-ack cost bench ([`crate::crash::bench_durability`]).
    pub durability: &'a crate::crash::DurabilityBenchResult,
    /// Shifting-workload live-tuning bench ([`crate::tuning::bench_tuning`]).
    pub tuning: &'a crate::tuning::TuningBenchResult,
}

/// Render the results as a JSON document (hand-rolled: the workspace has no
/// serialization dependency).
pub fn to_json(
    dataset: &str,
    cfg: &PerfConfig,
    eval: &EvalBenchResult,
    builds: &[BuildBenchResult],
    sections: &ServingSections<'_>,
    loc: Option<&crate::loc::LocReport>,
) -> String {
    let ServingSections {
        serve,
        churn,
        net,
        durability,
        tuning,
    } = *sections;
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"dataset\": \"{dataset}\",\n"));
    s.push_str(&format!(
        "  \"config\": {{ \"threads\": {}, \"repeats\": {} }},\n",
        cfg.resolved_threads(),
        cfg.repeats
    ));
    s.push_str("  \"eval\": {\n");
    s.push_str(&format!("    \"indexes\": {},\n", eval.indexes));
    s.push_str(&format!("    \"queries\": {},\n", eval.queries));
    s.push_str(&format!("    \"baseline_ms\": {:.3},\n", eval.baseline_ms));
    s.push_str(&format!("    \"arena_ms\": {:.3},\n", eval.arena_ms));
    s.push_str(&format!("    \"parallel_ms\": {:.3},\n", eval.parallel_ms));
    s.push_str(&format!("    \"threads\": {},\n", eval.threads));
    s.push_str(&format!("    \"speedup_arena\": {:.2},\n", eval.speedup_arena));
    s.push_str(&format!("    \"speedup_best\": {:.2},\n", eval.speedup_best));
    s.push_str(&format!("    \"identical_outcomes\": {},\n", eval.identical));
    s.push_str(&format!("    \"index_visits\": {},\n", eval.index_visits));
    s.push_str(&format!("    \"data_visits\": {}\n", eval.data_visits));
    s.push_str("  },\n");
    s.push_str("  \"construction\": [\n");
    for (i, b) in builds.iter().enumerate() {
        s.push_str(&format!(
            "    {{ \"name\": \"{}\", \"baseline_ms\": {:.3}, \"engine_ms\": {:.3}, \
             \"engine_parallel_ms\": {:.3}, \"speedup\": {:.2}, \
             \"identical_partition\": {}, \"blocks\": {} }}{}\n",
            b.name,
            b.baseline_ms,
            b.engine_ms,
            b.engine_parallel_ms,
            b.speedup,
            b.identical,
            b.blocks,
            if i + 1 < builds.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"serve\": {\n");
    s.push_str(&format!("    \"readers\": {},\n", serve.readers));
    s.push_str(&format!("    \"rounds\": {},\n", serve.rounds));
    s.push_str(&format!("    \"queries\": {},\n", serve.queries));
    s.push_str(&format!("    \"updates\": {},\n", serve.updates));
    s.push_str(&format!("    \"epochs\": {},\n", serve.epochs));
    s.push_str(&format!("    \"serve_ms\": {:.3},\n", serve.serve_ms));
    s.push_str(&format!(
        "    \"queries_per_sec\": {:.1},\n",
        serve.queries_per_sec
    ));
    s.push_str(&format!(
        "    \"deterministic\": {}\n",
        serve.deterministic
    ));
    s.push_str("  },\n");
    s.push_str("  \"churn\": {\n");
    s.push_str(&format!("    \"readers\": {},\n", churn.readers));
    s.push_str(&format!("    \"updates\": {},\n", churn.updates));
    s.push_str(&format!("    \"batch\": {},\n", churn.batch));
    s.push_str(&format!("    \"epochs\": {},\n", churn.epochs));
    s.push_str(&format!("    \"queries\": {},\n", churn.queries));
    s.push_str(&format!("    \"churn_ms\": {:.3},\n", churn.churn_ms));
    s.push_str(&format!(
        "    \"updates_per_sec\": {:.1},\n",
        churn.updates_per_sec
    ));
    s.push_str(&format!("    \"blocks_shared\": {},\n", churn.blocks_shared));
    s.push_str(&format!(
        "    \"blocks_rebuilt\": {},\n",
        churn.blocks_rebuilt
    ));
    s.push_str(&format!("    \"total_blocks\": {},\n", churn.total_blocks));
    s.push_str(&format!(
        "    \"rebuilt_ratio\": {:.4},\n",
        churn.rebuilt_ratio
    ));
    s.push_str(&format!(
        "    \"publish_count\": {},\n",
        churn.publish_count
    ));
    s.push_str(&format!(
        "    \"publish_p50_ns\": {},\n",
        churn.publish_p50_ns
    ));
    s.push_str(&format!(
        "    \"publish_max_ns\": {},\n",
        churn.publish_max_ns
    ));
    s.push_str(&format!(
        "    \"deterministic\": {}\n",
        churn.deterministic
    ));
    s.push_str("  },\n");
    s.push_str(&crate::crash::durability_to_json(durability));
    s.push_str(",\n");
    s.push_str(&crate::net::net_to_json(net));
    s.push_str(",\n");
    s.push_str(&crate::tuning::tuning_to_json(tuning));
    if let Some(loc) = loc {
        s.push_str(",\n");
        s.push_str(&crate::loc::loc_to_json(loc));
    }
    s.push('\n');
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::experiments::standard_workload;
    use std::sync::Mutex;

    /// `bench_churn` and `bench_telemetry` both drive the process-global
    /// telemetry recorder (reset/enable/disable); tests that call either
    /// must serialize on this lock or the parallel test harness interleaves
    /// their counter windows.
    static RECORDER_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn smoke_results_are_identical_across_paths() {
        let data = datasets::xmark(0.004);
        let workload = standard_workload(&data, 7);
        let reqs = workload.mine_requirements();
        let cfg = PerfConfig {
            threads: 2,
            repeats: 1,
        };
        let (eval, builds) = bench_smoke(&data, workload.queries(), &reqs, 2, &cfg);
        assert!(eval.identical, "evaluation paths disagree");
        for b in &builds {
            assert!(b.identical, "{} construction paths disagree", b.name);
        }
        let serve = bench_serve(&data, workload.queries(), &reqs, &cfg, 7);
        assert!(serve.deterministic, "serve diverged from serial replay");
        assert_eq!(serve.queries, (serve.readers * serve.rounds) as u64);
        assert!(serve.epochs >= 1 && serve.epochs <= serve.updates as u64);
        let churn = {
            let _guard = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            bench_churn(&data, workload.queries(), &reqs, &cfg, 7)
        };
        assert!(churn.deterministic, "churn diverged from serial replay");
        assert!(churn.epochs >= 1, "churn published no epochs");
        assert!(
            churn.blocks_shared > 0,
            "no publish shared any blocks — COW regression to full clones"
        );
        assert!(
            churn.sharing_ok(),
            "publishes copied {:.1}% of the store on average (gate: <= 10%)",
            churn.rebuilt_ratio * 100.0
        );
        assert!(
            churn.publish_count >= churn.epochs,
            "publish latency histogram missed publishes"
        );
        let net_cfg = crate::net::NetBenchConfig {
            rounds: 10,
            updates: 6,
            staleness_threshold: 3,
            overload_extra: 2,
        };
        let net = crate::net::bench_net(&data, workload.queries(), &reqs, &cfg, &net_cfg, 7);
        assert!(net.gate_ok(&net_cfg), "net gate failed: {net:?}");
        let durability = {
            let dk = DkIndex::build(&data, reqs.clone());
            let updates = dkindex_workload::generate_update_edges(&data, 4, 7);
            let wal_path = std::env::temp_dir()
                .join(format!("dkindex-perf-test-{}.wal", std::process::id()));
            crate::crash::bench_durability(&data, &dk, &updates, &wal_path)
                .expect("durability bench must ack every update")
        };
        assert_eq!(durability.updates, 4);
        let tune_cfg = crate::tuning::TuningBenchConfig {
            rounds: 6,
            queries_per_round: 96,
            window: 32,
            ..crate::tuning::TuningBenchConfig::default()
        };
        let tuning = crate::tuning::bench_tuning(&data, &cfg, &tune_cfg, 7);
        assert!(tuning.gate_ok(), "tuning gate failed: {tuning:?}");
        let sections = ServingSections {
            serve: &serve,
            churn: &churn,
            net: &net,
            durability: &durability,
            tuning: &tuning,
        };
        let loc = crate::loc::LocReport {
            crates: vec![("core".to_string(), 7)],
            total: 9,
        };
        let json = to_json("xmark-test", &cfg, &eval, &builds, &sections, Some(&loc));
        assert!(json.contains("\"workspace_total\": 9"), "{json}");
        assert!(json.contains("\"identical_outcomes\": true"));
        assert!(json.contains("\"identical_partition\": true"));
        assert!(json.contains("\"serve\""), "{json}");
        assert!(json.contains("\"churn\""), "{json}");
        assert!(json.contains("\"net\""), "{json}");
        assert!(json.contains("\"durability\""), "{json}");
        assert!(json.contains("\"acked_per_sec_wal_on\""), "{json}");
        assert!(json.contains("\"rebuilt_ratio\""), "{json}");
        assert!(json.contains("\"publish_p50_ns\""), "{json}");
        assert!(json.contains("\"p999_us\""), "{json}");
        assert!(json.contains("\"tuning\""), "{json}");
        assert!(json.contains("\"p99_curve\""), "{json}");
        assert!(json.contains("\"wal_recovered\": true"), "{json}");
        assert!(json.contains("\"deterministic\": true"), "{json}");
    }

    #[test]
    fn telemetry_is_observationally_transparent() {
        let _guard = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let data = datasets::xmark(0.004);
        let workload = standard_workload(&data, 7);
        let reqs = workload.mine_requirements();
        let tel = bench_telemetry(&data, workload.queries(), &reqs, 2, 7);
        assert!(tel.identical_off, "fast paths diverge with recorder off");
        assert!(tel.identical_on, "fast paths diverge with recorder on");
        assert!(tel.snapshot.counter("partition.rounds").unwrap_or(0) > 0);
        assert!(tel.snapshot.counter("eval.queries").unwrap_or(0) > 0);
        let cfg = PerfConfig {
            threads: 2,
            repeats: 1,
        };
        let json = metrics_to_json("xmark-test", &cfg, 2, workload.len(), &tel);
        assert!(json.contains("\"identical_with_telemetry_off\": true"));
        assert!(json.contains("\"identical_with_telemetry_on\": true"));
        assert!(json.contains("phase.build_ns"));
        assert!(json.contains("phase.query_ns"));
        assert!(json.contains("phase.adapt_ns"));
    }
}
