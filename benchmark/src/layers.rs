//! The traced run: where a request's time goes, layer by layer.
//!
//! Three things happen:
//!
//! 1. the workload's DKNP phase runs three times on a third of the budget
//!    each — untraced, with a client-side span per request, and with the
//!    telemetry recorder on — which gives the tracing and telemetry overheads
//!    and the exact serve/eval counts of the real sequence;
//! 2. a short durable sequence (the workload's own on `mixed-adapt`; on the
//!    read-only workloads a probe on `mixed-adapt`'s configuration) gives
//!    update latency, WAL bytes and the recovery numbers everywhere;
//! 3. a staged replay calls each layer's public function in the order the
//!    server does, under a span carrying the request's id.
//!
//! Every per-layer metric is reported on every workload: from the workload's
//! own sequence where that exercises the layer, from the probe where it does
//! not, and — for an evaluation regime neither met — from an index of the
//! workload's graph that forces it. The README says so.

use crate::inputs::{self, Dataset, Inputs, ReqSource};
use crate::phases::{
    self, MixedShape, MixedStats, RecoveryStats, Tally, POOL_STRIDE, QUERIES_PER_CYCLE,
};
use crate::run::{
    latency_metrics, metric, mixed_metrics, run_phase, Metric, PhaseOutcome, RunConfig, RunOutput,
    Workload,
};
use crate::session::{serve_config, set_up, Scratch, Session};
use crate::stats;
use crate::trace::Tracer;
use crate::BenchResult;
use dkindex_core::{
    evaluate_on_data, DkIndex, DkServer, IndexEvalOutcome, IndexEvaluator, ServeOp, WalStore,
    WalWriter,
};
use dkindex_graph::{DataGraph, LabeledGraph, NodeId};
use dkindex_pathexpr::{Nfa, PathExpr};
use dkindex_server::protocol::{self, Frame, MAX_ANSWER_IDS};
use dkindex_server::NetShutdown;
use dkindex_telemetry as telemetry;
use std::collections::HashSet;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// PING rounds behind `server.net.ping_rtt_us`.
const PINGS: usize = 2_000;
/// Passes over the pool the staged replay serves from a warm memo.
const STAGED_HIT_PASSES: usize = 3;

/// A [`WalStore`] over a real file, syncing like `FileStore` does, that
/// remembers when its last write and last sync began and ended.
struct TimedStore {
    file: File,
    last_write: Option<(Instant, Instant)>,
    last_sync: Option<(Instant, Instant)>,
}

impl WalStore for TimedStore {
    fn write_all_bytes(&mut self, buf: &[u8]) -> std::io::Result<()> {
        let start = Instant::now();
        self.file.write_all(buf)?;
        self.last_write = Some((start, Instant::now()));
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let start = Instant::now();
        self.file.sync_data()?;
        self.last_sync = Some((start, Instant::now()));
        Ok(())
    }
}

/// The in-process replay: owns a mutable `(dk, data)` for the direct layer
/// calls and an unlogged `DkServer` over the same state for its epochs.
struct Staged<'a> {
    tracer: &'a mut Tracer,
    dk: DkIndex,
    data: DataGraph,
    server: DkServer,
    wal: WalWriter<TimedStore>,
    /// Query texts the current epoch has already answered.
    seen: HashSet<String>,
    /// Misses of the current epoch not yet taken apart, with their request.
    pending: Vec<(u64, PathExpr)>,
    request: u64,
    answer_bytes: Vec<f64>,
    /// `(ns, index visits, data visits, validated)` of each staged
    /// `IndexEvaluator::evaluate_bounded`.
    evaluations: Vec<(u64, u64, u64, bool)>,
    edge_outcomes: Vec<(u64, u64)>,
    rebuilt_shares: Vec<f64>,
}

impl<'a> Staged<'a> {
    fn new(
        tracer: &'a mut Tracer,
        data: DataGraph,
        dk: DkIndex,
        wal_path: &Path,
    ) -> BenchResult<Self> {
        let store = TimedStore {
            file: File::create(wal_path)?,
            last_write: None,
            last_sync: None,
        };
        Ok(Staged {
            server: DkServer::start(data.clone(), dk.clone(), serve_config()),
            wal: WalWriter::with_store(store)?,
            tracer,
            dk,
            data,
            seen: HashSet::new(),
            pending: Vec::new(),
            request: 0,
            answer_bytes: Vec::new(),
            evaluations: Vec::new(),
            edge_outcomes: Vec::new(),
            rebuilt_shares: Vec::new(),
        })
    }

    /// Serve `(data, dk)` from a fresh server: an empty memo.
    fn restart(&mut self, data: DataGraph, dk: DkIndex) {
        self.settle();
        self.server = DkServer::start(data.clone(), dk.clone(), serve_config());
        (self.data, self.dk) = (data, dk);
        self.seen.clear();
    }

    /// One QUERY the way `server::conn` answers it: decode, parse, epoch
    /// evaluation (memo hit or miss), encode. Misses are remembered and taken
    /// apart by [`Staged::settle`] before the epoch changes — not here, so
    /// that consecutive requests find the caches the way the server's do.
    fn query(&mut self, text: &str) {
        self.request += 1;
        let request = self.request;
        let wire = protocol::encode(&Frame::Query {
            budget: 0,
            text: text.to_string(),
        });
        let epoch = self.server.handle().epoch();
        let miss = self.seen.insert(text.to_string());
        let serve_span = if miss {
            "core.serve.miss"
        } else {
            "core.serve.memo_hit"
        };

        let (expr, reply_len) =
            self.tracer
                .span("server.conn.respond", None, request, |t, root| {
                    let frame = t.span("server.protocol.decode", Some(root), request, |_, _| {
                        protocol::decode_body(&wire[4..])
                    });
                    let Ok(Frame::Query { text, .. }) = frame else {
                        unreachable!("the benchmark encoded a QUERY frame");
                    };
                    let expr = t
                        .span("pathexpr.parse", Some(root), request, |_, _| {
                            dkindex_pathexpr::parse(&text)
                        })
                        .expect("pool queries parse");
                    let outcome = t
                        .span(serve_span, Some(root), request, |_, _| {
                            epoch.evaluate_bounded(&expr, u64::MAX)
                        })
                        .expect("an unlimited budget cannot run out");
                    let reply = answer_frame(epoch.id(), &outcome);
                    let bytes = t.span("server.protocol.encode", Some(root), request, |_, _| {
                        protocol::encode(&reply)
                    });
                    (expr, bytes.len())
                });
        self.answer_bytes.push(reply_len as f64);
        if miss {
            self.pending.push((request, expr));
        }
    }

    /// Take the current epoch's misses apart, one stage per loop: the memo
    /// hit each of them now is, the miss path (compile, `IndexEvaluator::new`,
    /// evaluate), and the no-index baseline.
    fn settle(&mut self) {
        let pending = std::mem::take(&mut self.pending);
        let epoch = self.server.handle().epoch();
        for (request, expr) in &pending {
            self.tracer
                .span("core.serve.memo_hit", None, *request, |_, _| {
                    std::hint::black_box(epoch.evaluate_bounded(expr, u64::MAX).is_ok());
                });
        }
        for (request, expr) in &pending {
            self.take_apart(*request, expr, epoch.index(), epoch.data());
        }
        for (request, expr) in &pending {
            self.tracer
                .span("pathexpr.eval.on_data", None, *request, |_, _| {
                    std::hint::black_box(evaluate_on_data(epoch.data(), expr));
                });
        }
    }

    /// The miss path stage by stage.
    fn take_apart(&mut self, request: u64, expr: &PathExpr, dk: &DkIndex, data: &DataGraph) {
        let evaluations = &mut self.evaluations;
        self.tracer
            .span("staged.miss_breakdown", None, request, |t, root| {
                t.span("pathexpr.compile", Some(root), request, |_, _| {
                    std::hint::black_box(Nfa::compile(expr, dk.index().labels()));
                });
                let mut evaluator = t.span("core.eval.new", Some(root), request, |_, _| {
                    IndexEvaluator::new(dk.index(), data)
                });
                let start = Instant::now();
                let outcome = evaluator
                    .evaluate_bounded(expr, u64::MAX)
                    .expect("an unlimited budget cannot run out");
                let end = Instant::now();
                let name = if outcome.validated {
                    "core.eval.validated"
                } else {
                    "core.eval.sound"
                };
                t.record(name, Some(root), request, start, end);
                evaluations.push((
                    u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX),
                    outcome.cost.index_visits,
                    outcome.cost.data_visits,
                    outcome.validated,
                ));
            });
    }

    /// One UPDATE the way the maintenance thread applies it: group commit
    /// (write + fsync), Alg 4/5, the copy-on-write clones of a publish — and
    /// the same op through the unlogged server, which publishes the epoch
    /// later queries are served from.
    fn update(&mut self, from: NodeId, to: NodeId) -> BenchResult<()> {
        self.settle();
        self.request += 1;
        let request = self.request;
        let op = ServeOp::AddEdge { from, to };

        let (wal, dk, data) = (&mut self.wal, &mut self.dk, &mut self.data);
        let outcome = self
            .tracer
            .span("staged.update", None, request, |t, root| {
                let append = t.span("core.wal.append", Some(root), request, |_, id| {
                    wal.append_batch(std::slice::from_ref(&op)).map(|()| id)
                })?;
                if let (Some((ws, we)), Some((ss, se))) =
                    (wal.store().last_write, wal.store().last_sync)
                {
                    t.record("core.wal.write", Some(append), request, ws, we);
                    t.record("core.wal.fsync", Some(append), request, ss, se);
                }
                let outcome = t.span("core.dk.add_edge", Some(root), request, |_, _| {
                    dk.add_edge(data, from, to)
                });
                t.span("graph.clone", Some(root), request, |_, _| {
                    std::hint::black_box((data.clone(), dk.clone()));
                });
                Ok::<_, std::io::Error>(outcome)
            })?;
        self.edge_outcomes
            .push((outcome.index_nodes_touched, outcome.lowered));

        let before = self.server.handle().epoch();
        let server = &self.server;
        self.tracer
            .span("core.serve.apply_publish", None, request, |_, _| {
                server.submit_logged(op)?.wait()
            })?;
        let after = self.server.handle().epoch();
        let (shared, rebuilt) = after
            .index()
            .index()
            .shared_blocks_with(before.index().index());
        self.rebuilt_shares
            .push(rebuilt as f64 / (shared + rebuilt).max(1) as f64);
        self.seen.clear();
        Ok(())
    }

    /// The promoting pass (Alg 6) on the owned state, mirrored to the server.
    /// Returns blocks added.
    fn promote(&mut self) -> BenchResult<usize> {
        self.settle();
        self.request += 1;
        let before = self.dk.size();
        let (dk, data) = (&mut self.dk, &self.data);
        self.tracer
            .span("core.dk.promote", None, self.request, |_, _| {
                dk.promote_to_requirements(data)
            });
        self.server
            .submit_logged(ServeOp::PromoteToRequirements)?
            .wait()?;
        self.seen.clear();
        Ok(self.dk.size() - before)
    }

    /// Spans, evaluations and answers recorded so far.
    fn marks(&self) -> (usize, usize, usize) {
        (
            self.tracer.spans().len(),
            self.evaluations.len(),
            self.answer_bytes.len(),
        )
    }

    /// Mean `index_visits + data_visits` over the pool on the owned state.
    fn pool_visits(&self, exprs: &[PathExpr]) -> f64 {
        let mut evaluator = IndexEvaluator::new(self.dk.index(), &self.data);
        let total: u64 = exprs
            .iter()
            .map(|expr| evaluator.evaluate(expr).cost.total())
            .sum();
        total as f64 / exprs.len().max(1) as f64
    }
}

/// The ANSWER frame `server::conn` builds from an outcome.
fn answer_frame(epoch: u64, outcome: &IndexEvalOutcome) -> Frame {
    Frame::Answer {
        epoch,
        index_visits: outcome.cost.index_visits,
        data_visits: outcome.cost.data_visits,
        validated: outcome.validated,
        match_count: outcome.matches.len().min(u32::MAX as usize) as u32,
        ids: outcome
            .matches
            .iter()
            .take(MAX_ANSWER_IDS)
            .map(|n| n.index() as u64)
            .collect(),
    }
}

/// What the staged update sequence measured beyond its spans.
struct PromoteProbe {
    blocks_added: usize,
    visits_before: f64,
    visits_after: f64,
}

/// Stage `cycles` of [UPDATE, eight QUERYs] with one promoting pass after
/// the last of them, bracketed by the pool's mean visit count.
fn stage_cycles(
    staged: &mut Staged<'_>,
    inputs: &Inputs,
    edges: &[(NodeId, NodeId)],
) -> BenchResult<PromoteProbe> {
    let mut cursor = 0usize;
    for &(from, to) in edges {
        staged.update(from, to)?;
        for _ in 0..QUERIES_PER_CYCLE {
            let text = &inputs.pool[cursor % inputs.pool.len()];
            cursor += POOL_STRIDE;
            staged.query(text);
        }
    }
    let visits_before = staged.pool_visits(&inputs.exprs);
    let blocks_added = staged.promote()?;
    let visits_after = staged.pool_visits(&inputs.exprs);
    Ok(PromoteProbe {
        blocks_added,
        visits_before,
        visits_after,
    })
}

/// What the staged replay measured beyond its spans.
struct StagedOutcome {
    /// How many spans, evaluations and answers the workload's own sequence
    /// produced; the rest are the probe's.
    own: (usize, usize, usize),
    answer_bytes: Vec<f64>,
    evaluations: Vec<(u64, u64, u64, bool)>,
    edge_outcomes: Vec<(u64, u64)>,
    rebuilt_shares: Vec<f64>,
    promote: PromoteProbe,
}

/// The workload's own request sequence on its own `(data, dk)`, then — on
/// the read-only workloads — the update path on the probe configuration.
fn staged_replay(
    workload: Workload,
    inputs: &Inputs,
    probe: &Inputs,
    edges: &[(NodeId, NodeId)],
    base: &NetShutdown,
    wal: &Path,
    tracer: &mut Tracer,
) -> BenchResult<StagedOutcome> {
    let mut staged = Staged::new(tracer, base.data.clone(), base.index.clone(), wal)?;
    match workload {
        Workload::HotPoint => {
            for _ in 0..=STAGED_HIT_PASSES {
                inputs.pool.iter().for_each(|text| staged.query(text));
            }
        }
        Workload::ColdWalk | Workload::ColdValidate => {
            inputs.pool.iter().for_each(|text| staged.query(text));
        }
        Workload::MixedAdapt => {}
    }
    staged.settle();
    let mut own = staged.marks();
    if workload != Workload::MixedAdapt {
        let mined = if workload.requirements() == ReqSource::Mined {
            base.index.clone()
        } else {
            DkIndex::build(&probe.data, ReqSource::Mined.requirements(&probe.exprs))
        };
        staged.restart(probe.data.clone(), mined);
    }
    let promote = stage_cycles(&mut staged, probe, edges)?;
    staged.settle();
    if workload == Workload::MixedAdapt {
        own = staged.marks();
    }

    // A regime no staged request met is measured on an index of the
    // workload's graph that forces it: label-split validates everything, the
    // mined D(k)-index answers the whole pool from extents.
    for (validated, source) in [(true, ReqSource::Uniform(0)), (false, ReqSource::Mined)] {
        if !staged.evaluations.iter().any(|e| e.3 == validated) {
            let forced = DkIndex::build(&inputs.data, source.requirements(&inputs.exprs));
            for expr in &inputs.exprs {
                staged.request += 1;
                staged.take_apart(staged.request, expr, &forced, &inputs.data);
            }
        }
    }
    let Staged {
        answer_bytes,
        evaluations,
        edge_outcomes,
        rebuilt_shares,
        ..
    } = staged;
    Ok(StagedOutcome {
        own,
        answer_bytes,
        evaluations,
        edge_outcomes,
        rebuilt_shares,
        promote,
    })
}

/// One slice of the workload's DKNP phase on a fresh set-up.
fn slice(
    cfg: &RunConfig,
    inputs: &Inputs,
    scratch: &Scratch,
    budget_s: f64,
    tracer: &mut Option<Tracer>,
    telemetry_on: bool,
) -> BenchResult<PhaseOutcome> {
    let (mut session, _) = set_up(
        inputs,
        cfg.workload.requirements(),
        scratch,
        cfg.workload.durable(),
    )?;
    // Fill the first epoch's memo before the recorder goes on, so the counts
    // below are those of the timed sequence alone.
    let mut warm = Tally::default();
    phases::warm_pass(&mut session, inputs, &mut warm)?;
    if telemetry_on {
        telemetry::reset();
        telemetry::enable();
    }
    let outcome = run_phase(cfg, inputs, scratch, session, budget_s, tracer);
    telemetry::disable();
    let mut outcome = outcome?;
    outcome.tally.absorb(warm);
    Ok(outcome)
}

fn ping_rtt_us(session: &mut Session) -> BenchResult<f64> {
    let mut rtts = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let start = Instant::now();
        let reply = session.client.ping()?;
        rtts.push(start.elapsed().as_nanos() as f64 / 1e3);
        if !matches!(reply, Frame::Pong { .. }) {
            return Err("PING was not answered with PONG".into());
        }
    }
    Ok(stats::median(&rtts).unwrap_or(0.0))
}

pub fn run_traced(cfg: &RunConfig, inputs: &Inputs, scratch: &Scratch) -> BenchResult<RunOutput> {
    let workload = cfg.workload;
    let mut tally = Tally::default();
    let mut m: Vec<Metric> = vec![
        metric("datagen.gen_s", inputs.gen_s, "s"),
        metric("datagen.nodes", inputs.nodes() as f64, "count"),
        metric("datagen.edges", inputs.edges as f64, "count"),
        metric("workload.pool_size", inputs.pool.len() as f64, "count"),
    ];

    // Set-up, step by step, and the floor under every request.
    let (mut session, times) =
        set_up(inputs, workload.requirements(), scratch, workload.durable())?;
    let mine = Instant::now();
    std::hint::black_box(dkindex_core::mine_requirements(&inputs.exprs));
    let mine_ms = mine.elapsed().as_secs_f64() * 1e3;
    m.extend([
        metric("core.dk.build_s", times.build_s, "s"),
        metric("core.mining.mine_ms", mine_ms, "ms"),
        metric("core.snapshot.write_ms", times.snapshot_write_s * 1e3, "ms"),
        metric("core.snapshot.read_ms", times.snapshot_read_s * 1e3, "ms"),
        metric(
            "core.snapshot.bytes_per_node",
            times.snapshot_bytes as f64 / inputs.nodes() as f64,
            "bytes",
        ),
        metric("server.net.ping_rtt_us", ping_rtt_us(&mut session)?, "us"),
    ]);
    session.shutdown()?;

    // 1. The DKNP phase: untraced, traced, telemetry on.
    let budget_s = cfg.seconds * cfg.ops_scale / 3.0;
    let mut untraced = slice(cfg, inputs, scratch, budget_s, &mut None, false)?;
    let mut tracer = Some(Tracer::new());
    let traced = slice(cfg, inputs, scratch, budget_s, &mut tracer, false)?;
    let counted = slice(cfg, inputs, scratch, budget_s, &mut None, true)?;
    let mut tracer = tracer.expect("the tracer was only lent out");
    for outcome in [&untraced, &traced, &counted] {
        tally.absorb(outcome.tally);
    }
    let served = telemetry::metrics::SERVE_QUERIES.get().max(1) as f64;
    let memo_hit_share = telemetry::metrics::SERVE_CACHE_HITS.get() as f64 / served;
    let index_visits_per_query = telemetry::metrics::EVAL_INDEX_VISITS.get() as f64 / served;
    let data_visits_per_query = telemetry::metrics::EVAL_DATA_VISITS.get() as f64 / served;
    let [query_p50, query_p99, validated_share] = latency_metrics(&mut untraced.queries);
    let query_p50_us = query_p50.value;

    // The update path of a read-only workload is probed on `mixed-adapt`'s
    // configuration — XMark, D(k) mined from the pool — with the same seed.
    // Not on the workload's own: one promoting pass after 64 updates takes
    // 47-50 s on the NASA graph, under uniform(4) and mined requirements alike.
    let probe_owned;
    let probe: &Inputs = if workload.dataset() == Dataset::Xmark {
        inputs
    } else {
        probe_owned = inputs::generate(Dataset::Xmark, cfg.seed, cfg.ops_scale);
        &probe_owned
    };
    // The shortest `mixed-adapt` phase there is; the staged replay runs its
    // first period.
    let shape = MixedShape::for_budget(0.0, cfg.ops_scale);
    let edges = probe.update_edges(shape.edges(), cfg.seed);

    // 2. The durable sequence: the workload's own, or the probe's.
    let (mut durable, recovery): (MixedStats, RecoveryStats) = match untraced.mixed.take() {
        Some(pair) => pair,
        None => {
            let (mut session, _) = set_up(probe, ReqSource::Mined, scratch, true)?;
            let stats = phases::mixed_phase(&mut session, probe, &edges, shape, &mut None)?;
            let shut = session.shutdown()?;
            let recovery = phases::recover_and_check(scratch, &shut.index, &shut.data, probe)?;
            tally.absorb(stats.tally);
            tally.failed += recovery.failed_checks;
            (stats, recovery)
        }
    };

    // 3. The staged replay, on a thread of its own as the server's worker is,
    // and on state a fresh set-up loaded, as every slice's was.
    let base = set_up(inputs, workload.requirements(), scratch, false)?
        .0
        .shutdown()?;
    let staged_wal = scratch.wal().with_extension("staged");
    let replayed = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let period = &edges[..shape.cycles_per_period];
                staged_replay(
                    workload,
                    inputs,
                    probe,
                    period,
                    &base,
                    &staged_wal,
                    &mut tracer,
                )
            })
            .join()
    });
    let StagedOutcome {
        own,
        answer_bytes,
        evaluations,
        edge_outcomes,
        rebuilt_shares,
        promote,
    } = replayed.map_err(|_| "the staged replay panicked")??;

    // A layer is reported from the workload's own sequence where that
    // exercised it, and from the probe where it did not.
    let (own_spans, own_evaluations, own_answers) = own;
    let span = |name: &str, per_unit_ns: f64| {
        let durations = |spans: &[crate::trace::Span]| -> Vec<f64> {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns() as f64)
                .collect()
        };
        let mut ns = durations(&tracer.spans()[..own_spans]);
        if ns.is_empty() {
            ns = durations(tracer.spans());
        }
        stats::median(&ns).map_or(0.0, |median| median / per_unit_ns)
    };
    let per_visit = |validated: bool| {
        let sum = |evaluations: &[(u64, u64, u64, bool)]| {
            evaluations
                .iter()
                .filter(|e| e.3 == validated)
                .fold((0u64, 0u64), |acc, e| {
                    (acc.0 + e.0, acc.1 + if validated { e.2 } else { e.1 })
                })
        };
        let (ns, visits) = match sum(&evaluations[..own_evaluations]) {
            (_, 0) => sum(&evaluations),
            own => own,
        };
        ns as f64 / visits.max(1) as f64
    };
    let mean = |values: &[f64]| values.iter().sum::<f64>() / values.len().max(1) as f64;
    let touched: Vec<f64> = edge_outcomes.iter().map(|o| o.0 as f64).collect();
    let lowered: Vec<f64> = edge_outcomes.iter().map(|o| o.1 as f64).collect();
    let share = |slower: f64| 1.0 - slower / untraced.op_per_s;

    m.extend([
        metric(
            "server.protocol.decode_ns",
            span("server.protocol.decode", 1.0),
            "ns",
        ),
        metric(
            "server.protocol.encode_ns",
            span("server.protocol.encode", 1.0),
            "ns",
        ),
        metric(
            "server.protocol.answer_bytes",
            mean(&answer_bytes[..own_answers]),
            "bytes",
        ),
        metric("pathexpr.parse_ns", span("pathexpr.parse", 1.0), "ns"),
        metric(
            "core.serve.memo_hit_ns",
            span("core.serve.memo_hit", 1.0),
            "ns",
        ),
        metric("core.serve.memo_hit_share", memo_hit_share, "share"),
        metric(
            "server.conn.residual_us",
            query_p50_us - span("server.conn.respond", 1e3),
            "us",
        ),
        metric("pathexpr.compile_ns", span("pathexpr.compile", 1.0), "ns"),
        metric("core.eval.new_us", span("core.eval.new", 1e3), "us"),
        metric("core.eval.sound_us", span("core.eval.sound", 1e3), "us"),
        metric(
            "core.eval.index_visits_per_query",
            index_visits_per_query,
            "count",
        ),
        metric("core.eval.ns_per_index_visit", per_visit(false), "ns"),
        metric("core.serve.miss_us", span("core.serve.miss", 1e3), "us"),
        metric(
            "core.eval.validated_us",
            span("core.eval.validated", 1e3),
            "us",
        ),
        validated_share,
        metric(
            "core.eval.data_visits_per_query",
            data_visits_per_query,
            "count",
        ),
        metric("core.eval.ns_per_data_visit", per_visit(true), "ns"),
        metric(
            "pathexpr.eval.on_data_us",
            span("pathexpr.eval.on_data", 1e3),
            "us",
        ),
        metric("core.dk.add_edge_us", span("core.dk.add_edge", 1e3), "us"),
        metric("core.dk.add_edge_touched", mean(&touched), "count"),
        metric("core.dk.add_edge_lowered", mean(&lowered), "count"),
        metric("graph.clone_us", span("graph.clone", 1e3), "us"),
        metric(
            "core.serve.apply_publish_us",
            span("core.serve.apply_publish", 1e3),
            "us",
        ),
        metric(
            "core.serve.blocks_rebuilt_share",
            mean(&rebuilt_shares),
            "share",
        ),
        metric("core.wal.append_us", span("core.wal.append", 1e3), "us"),
        metric("core.wal.write_us", span("core.wal.write", 1e3), "us"),
        metric("core.wal.fsync_us", span("core.wal.fsync", 1e3), "us"),
        metric(
            "core.wal.bytes_per_record",
            recovery.wal_bytes as f64 / recovery.wal_records.max(1) as f64,
            "bytes",
        ),
        metric("core.wal.replay_ms", recovery.replay_s * 1e3, "ms"),
        metric(
            "core.wal.replay_byte_identical",
            f64::from(u8::from(recovery.byte_identical)),
            "count",
        ),
        metric("core.dk.promote_ms", span("core.dk.promote", 1e6), "ms"),
        metric(
            "core.dk.promote_blocks_added",
            promote.blocks_added as f64,
            "count",
        ),
        metric(
            "core.eval.visits_before_promote",
            promote.visits_before,
            "count",
        ),
        metric(
            "core.eval.visits_after_promote",
            promote.visits_after,
            "count",
        ),
        metric(
            "telemetry.on_overhead_share",
            share(counted.op_per_s),
            "share",
        ),
        metric("trace.overhead_share", share(traced.op_per_s), "share"),
    ]);
    m.extend([query_p50, query_p99]);
    m.extend(mixed_metrics(&mut durable, &recovery));
    m.push(metric(
        "failed_share",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "share",
    ));

    let trace_file = cfg.out.join(format!("trace-{}.jsonl", workload.name()));
    tracer.write_jsonl(&trace_file)?;
    let counts = vec![
        ("spans", tracer.spans().len() as u64),
        (
            "staged_requests",
            tracer.durations_of("server.conn.respond").len() as u64,
        ),
        ("staged_updates", edge_outcomes.len() as u64),
        ("slice_query_samples", untraced.queries.queries()),
    ];
    Ok(RunOutput {
        metrics: m,
        extra: Vec::new(),
        tally,
        counts,
    })
}
