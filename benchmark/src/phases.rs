//! The timed DKNP phases: one client, closed loop, one request in flight.
//! Each phase can run untraced (the gated numbers) or with a client-side
//! root span per request (the traced run's overhead comparison).

use crate::inputs::{Expected, Inputs};
use crate::session::{Scratch, Session};
use crate::stats;
use crate::trace::Tracer;
use crate::BenchResult;
use dkindex_core::wal::replay;
use dkindex_core::{
    audit_dk, read_snapshot, snapshot_bytes, AuditConfig, DkIndex, IndexEvaluator, ServeOp,
};
use dkindex_graph::{DataGraph, EdgeKind, NodeId};
use dkindex_server::{Frame, NetClient};
use std::time::Instant;

/// `hot-point` segments are this many queries (rounded to whole passes over
/// the pool), ≈0.9 s each on the design machine.
const HOT_SEGMENT_OPS: f64 = 100_000.0;
/// The median needs a few segments to shrug off a burst.
const MIN_SEGMENTS: usize = 5;
/// Cycles between two promoting passes of `mixed-adapt`.
const MIXED_PERIOD_CYCLES: usize = 100;
/// Periods per second of time budget: a period (100 UPDATEs, 800 QUERYs, one
/// promoting pass) takes ≈0.9 s on the design machine.
const MIXED_PERIODS_PER_SECOND: f64 = 0.8;
/// The median of fewer periods than this is no median.
const MIN_MIXED_PERIODS: usize = 3;
/// A smoke period still degrades the index before it promotes.
const MIN_PERIOD_CYCLES: usize = 4;
/// The answers after every this-many-th update are kept and checked against
/// the no-index evaluator on a shadow graph at that state.
const CHECKPOINT_EVERY: usize = 50;
/// QUERYs after each UPDATE of a `mixed-adapt` cycle.
pub const QUERIES_PER_CYCLE: usize = 8;
/// Successive `mixed-adapt` queries are this far apart in the pool.
pub const POOL_STRIDE: usize = 7;

/// Requests attempted and failed: ERROR, SHED, a reply of the wrong kind, or
/// an answer that differs from the oracle's.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What the timed queries of a phase measured.
#[derive(Debug, Default)]
pub struct QueryStats {
    /// Client-side round trip of every timed QUERY, nanoseconds.
    pub latencies_ns: Vec<u32>,
    /// Sum of `index_visits + data_visits` over the timed ANSWER frames.
    pub visits: u64,
    /// ANSWER frames with `validated = true`.
    pub validated: u64,
}

impl QueryStats {
    pub fn queries(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    pub fn visits_per_query(&self) -> f64 {
        self.visits as f64 / self.queries().max(1) as f64
    }

    pub fn percentile_us(&mut self, p: f64) -> f64 {
        stats::percentile(&mut self.latencies_ns, p).map_or(0.0, |ns| f64::from(ns) / 1e3)
    }
}

/// A phase made of segments of identical work.
#[derive(Debug, Default)]
pub struct SegmentedStats {
    pub queries: QueryStats,
    pub ops_per_segment: u64,
    pub segment_s: Vec<f64>,
    pub tally: Tally,
}

impl SegmentedStats {
    pub fn op_per_s(&self) -> f64 {
        stats::median_segment_rate(self.ops_per_segment, &self.segment_s).unwrap_or(0.0)
    }
}

/// One timed QUERY round: send, wait, stamp, then account and check outside
/// the stamped interval. Returns the reply for callers that keep answers.
fn timed_query(
    client: &mut NetClient,
    text: &str,
    expected: Option<&Expected>,
    request: u64,
    tracer: &mut Option<Tracer>,
    stats: &mut QueryStats,
    tally: &mut Tally,
) -> BenchResult<Frame> {
    let start = Instant::now();
    let reply = match tracer {
        Some(tracer) => tracer.span("client.query", None, request, |_, _| client.query(text, 0)),
        None => client.query(text, 0),
    }?;
    let elapsed = start.elapsed();
    stats
        .latencies_ns
        .push(u32::try_from(elapsed.as_nanos()).unwrap_or(u32::MAX));
    tally.attempted += 1;
    match &reply {
        Frame::Answer {
            index_visits,
            data_visits,
            validated,
            match_count,
            ids,
            ..
        } => {
            stats.visits += index_visits + data_visits;
            stats.validated += u64::from(*validated);
            if expected.is_some_and(|e| e.match_count != *match_count || e.ids != *ids) {
                tally.failed += 1;
            }
        }
        _ => tally.failed += 1,
    }
    Ok(reply)
}

/// One untimed, checked pass over the pool: fills the current epoch's memo.
pub fn warm_pass(session: &mut Session, inputs: &Inputs, tally: &mut Tally) -> BenchResult<()> {
    let mut unused = QueryStats::default();
    for (text, expected) in inputs.pool.iter().zip(&inputs.expected) {
        timed_query(
            &mut session.client,
            text,
            Some(expected),
            0,
            &mut None,
            &mut unused,
            tally,
        )?;
    }
    Ok(())
}

/// `hot-point`: one untimed pass over the pool fills the epoch's memo, then
/// segments of whole passes until `budget_s` has gone by. Every timed
/// request is a memo hit.
pub fn hot_phase(
    session: &mut Session,
    inputs: &Inputs,
    budget_s: f64,
    ops_scale: f64,
    tracer: &mut Option<Tracer>,
) -> BenchResult<SegmentedStats> {
    let mut out = SegmentedStats::default();
    warm_pass(session, inputs, &mut out.tally)?;
    let passes = ((HOT_SEGMENT_OPS * ops_scale / inputs.pool.len() as f64).round() as usize).max(1);
    out.ops_per_segment = (passes * inputs.pool.len()) as u64;
    let phase = Instant::now();
    let mut request = 0u64;
    while out.segment_s.len() < MIN_SEGMENTS || phase.elapsed().as_secs_f64() < budget_s {
        let segment = Instant::now();
        for _ in 0..passes {
            for (text, expected) in inputs.pool.iter().zip(&inputs.expected) {
                request += 1;
                timed_query(
                    &mut session.client,
                    text,
                    Some(expected),
                    request,
                    tracer,
                    &mut out.queries,
                    &mut out.tally,
                )?;
            }
        }
        out.segment_s.push(segment.elapsed().as_secs_f64());
    }
    Ok(out)
}

/// `cold-*`: every pass serves the same `(data, dk)` from a fresh server —
/// an empty memo, so every request is a miss — and issues each pool query
/// once. Starting and stopping the server is outside the pass's time.
pub fn cold_phase(
    data: &DataGraph,
    dk: &DkIndex,
    inputs: &Inputs,
    budget_s: f64,
    tracer: &mut Option<Tracer>,
) -> BenchResult<SegmentedStats> {
    let mut out = SegmentedStats {
        ops_per_segment: inputs.pool.len() as u64,
        ..Default::default()
    };
    let phase = Instant::now();
    let mut request = 0u64;
    while out.segment_s.len() < MIN_SEGMENTS || phase.elapsed().as_secs_f64() < budget_s {
        let mut session = Session::start(data.clone(), dk.clone(), None)?;
        let pass = Instant::now();
        for (text, expected) in inputs.pool.iter().zip(&inputs.expected) {
            request += 1;
            timed_query(
                &mut session.client,
                text,
                Some(expected),
                request,
                tracer,
                &mut out.queries,
                &mut out.tally,
            )?;
        }
        out.segment_s.push(pass.elapsed().as_secs_f64());
        session.shutdown()?;
    }
    Ok(out)
}

/// The shape of a `mixed-adapt` phase: a fixed number of periods — its state
/// evolves, so only a fixed op sequence repeats its counts — sized from the
/// time budget by the rate the design machine sustains.
#[derive(Clone, Copy, Debug)]
pub struct MixedShape {
    pub periods: usize,
    pub cycles_per_period: usize,
}

impl MixedShape {
    pub fn for_budget(budget_s: f64, ops_scale: f64) -> MixedShape {
        MixedShape {
            periods: ((MIXED_PERIODS_PER_SECOND * budget_s).round() as usize)
                .max(MIN_MIXED_PERIODS),
            cycles_per_period: ((MIXED_PERIOD_CYCLES as f64 * ops_scale).round() as usize)
                .max(MIN_PERIOD_CYCLES),
        }
    }

    pub fn edges(&self) -> usize {
        self.periods * self.cycles_per_period
    }

    /// UPDATEs, QUERYs and the promoting pass of one period.
    pub fn ops_per_period(&self) -> u64 {
        (self.cycles_per_period * (1 + QUERIES_PER_CYCLE) + 1) as u64
    }
}

/// What a `mixed-adapt` phase measured.
#[derive(Default)]
pub struct MixedStats {
    pub queries: QueryStats,
    /// UPDATE sent → UPDATE_OK, nanoseconds.
    pub update_ns: Vec<u32>,
    /// `PromoteToRequirements` submitted → durable ack, seconds.
    pub promote_s: Vec<f64>,
    pub ops_per_period: u64,
    pub period_s: Vec<f64>,
    pub tally: Tally,
}

impl MixedStats {
    /// Periods do the same number of ops on an evolving index; the median
    /// period is still the one a neighbour's burst did not hit.
    pub fn op_per_s(&self) -> f64 {
        stats::median_segment_rate(self.ops_per_period, &self.period_s).unwrap_or(0.0)
    }
}

/// `mixed-adapt`: on one WAL-backed server, periods of `cycles_per_period`
/// cycles — one durable UPDATE then eight QUERYs — each closed by one
/// `PromoteToRequirements`: Alg 4/5 degrade the index and queries slide from
/// sound to validated, Alg 6 repairs it. With one client an UPDATE returns
/// only after fsync and publish, so the whole sequence is serial.
///
/// The answers after every [`CHECKPOINT_EVERY`]th update are kept and, after
/// the timed phase, checked against the no-index evaluator on a shadow graph
/// brought to the same state.
pub fn mixed_phase(
    session: &mut Session,
    inputs: &Inputs,
    edges: &[(NodeId, NodeId)],
    shape: MixedShape,
    tracer: &mut Option<Tracer>,
) -> BenchResult<MixedStats> {
    let mut out = MixedStats {
        ops_per_period: shape.ops_per_period(),
        ..Default::default()
    };
    let mut kept: Vec<(usize, usize, Frame)> = Vec::new();
    let mut cursor = 0usize;
    let mut request = 0u64;
    let mut updates = 0usize;
    for period in edges.chunks_exact(shape.cycles_per_period) {
        let start = Instant::now();
        for &(from, to) in period {
            request += 1;
            updates += 1;
            let sent = Instant::now();
            let (from, to) = (from.index() as u64, to.index() as u64);
            let reply = match tracer {
                Some(tracer) => tracer.span("client.update", None, request, |_, _| {
                    session.client.update(from, to)
                }),
                None => session.client.update(from, to),
            }?;
            out.update_ns
                .push(u32::try_from(sent.elapsed().as_nanos()).unwrap_or(u32::MAX));
            out.tally.attempted += 1;
            if !matches!(reply, Frame::UpdateOk { .. }) {
                out.tally.failed += 1;
            }
            let checkpoint = updates.is_multiple_of(CHECKPOINT_EVERY) || updates == edges.len();
            for _ in 0..QUERIES_PER_CYCLE {
                let slot = cursor % inputs.pool.len();
                cursor += POOL_STRIDE;
                request += 1;
                let reply = timed_query(
                    &mut session.client,
                    &inputs.pool[slot],
                    None,
                    request,
                    tracer,
                    &mut out.queries,
                    &mut out.tally,
                )?;
                if checkpoint {
                    kept.push((updates, slot, reply));
                }
            }
        }
        request += 1;
        let submitted = Instant::now();
        let ack = session
            .server
            .dk_server()
            .submit_logged(ServeOp::PromoteToRequirements)?;
        let acked = match tracer {
            Some(tracer) => tracer.span("client.promote", None, request, |_, _| ack.wait()),
            None => ack.wait(),
        };
        out.promote_s.push(submitted.elapsed().as_secs_f64());
        out.tally.attempted += 1;
        if acked.is_err() {
            out.tally.failed += 1;
        }
        out.period_s.push(start.elapsed().as_secs_f64());
    }

    let mut shadow = inputs.data.clone();
    let mut applied = 0usize;
    for (updates, slot, reply) in &kept {
        for &(from, to) in &edges[applied..*updates] {
            shadow.add_edge(from, to, EdgeKind::Reference);
        }
        applied = *updates;
        let expected = Expected::of(&shadow, &inputs.exprs[*slot]);
        let agrees = matches!(
            reply,
            Frame::Answer { match_count, ids, .. }
                if *match_count == expected.match_count && *ids == expected.ids
        );
        if !agrees {
            out.tally.failed += 1;
        }
    }
    Ok(out)
}

/// What recovering the durable state cost and whether it is the live state.
#[derive(Debug, Default)]
pub struct RecoveryStats {
    /// Read the snapshot file, read and replay the WAL.
    pub recovery_s: f64,
    pub snapshot_read_s: f64,
    pub replay_s: f64,
    pub wal_bytes: u64,
    /// Records the WAL's committed prefix held.
    pub wal_records: usize,
    /// Snapshot bytes of the recovered state equal those of the live state.
    /// Holds for edge-only logs; a log with `PromoteToRequirements` recovers
    /// to an equivalent index that is not byte-identical (README, findings).
    pub byte_identical: bool,
    /// Semantic checks that failed: an unsound audit, a different size, and
    /// each pool query whose matches differ between recovered and live state.
    pub failed_checks: u64,
}

/// Recover from the snapshot file and the WAL alone, then require semantic
/// equality with the live state the server handed back at shutdown.
pub fn recover_and_check(
    scratch: &Scratch,
    live_dk: &DkIndex,
    live_data: &DataGraph,
    inputs: &Inputs,
) -> BenchResult<RecoveryStats> {
    let mut out = RecoveryStats::default();
    let begin = Instant::now();
    let snapshot = std::fs::read(scratch.snapshot())?;
    let (mut dk, mut data) = read_snapshot(&snapshot)?;
    out.snapshot_read_s = begin.elapsed().as_secs_f64();
    let step = Instant::now();
    let wal = std::fs::read(scratch.wal())?;
    out.wal_records = replay(&mut dk, &mut data, &wal)?.applied;
    out.replay_s = step.elapsed().as_secs_f64();
    out.recovery_s = begin.elapsed().as_secs_f64();
    out.wal_bytes = wal.len() as u64;

    out.byte_identical = snapshot_bytes(&dk, &data) == snapshot_bytes(live_dk, live_data);
    // Sound, not clean: similarities lowered by updates since the last
    // promoting pass are a degradation the audit reports on the live index too.
    if !audit_dk(&dk, &data, &AuditConfig::default()).is_sound() {
        out.failed_checks += 1;
    }
    if dk.size() != live_dk.size() || data.edges().count() != live_data.edges().count() {
        out.failed_checks += 1;
    }
    let mut recovered = IndexEvaluator::new(dk.index(), &data);
    let mut live = IndexEvaluator::new(live_dk.index(), live_data);
    for expr in &inputs.exprs {
        if recovered.evaluate(expr).matches != live.evaluate(expr).matches {
            out.failed_checks += 1;
        }
    }
    Ok(out)
}
