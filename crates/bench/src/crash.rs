//! Crash-recovery torture harness for the group-commit WAL: inject
//! fsync failures and torn writes at every interesting point, simulate a
//! crash at every surviving-file length, and assert the durable-ack
//! contract of docs/PROTOCOL.md §8 — every acknowledged update replays
//! byte-identically after recovery, unacknowledged work is either absent
//! or recovered as whole batches, and nothing ever panics.
//!
//! Four sweeps, all deterministic (seeding picks the fail plans; the
//! storage model in [`dkindex_core::io_fail`] just executes them):
//!
//! * [`wal_tail_sweep`] — write a batched log on a healthy [`SimDisk`],
//!   then cut it at **every** byte length. Each cut must replay to the
//!   serial application of a whole-batch prefix (commit fences make
//!   partially-persisted batches invisible), and the clean-vs-torn tail
//!   verdict must flag exactly the fence boundaries.
//! * [`fsync_failpoint_sweep`] — fail the group commit of every batch in
//!   turn. Batches before the fail-point must ack, every batch at or
//!   after it must fail typed, and every crash view of the unsynced tail
//!   must recover at least the acked prefix and at most one extra batch.
//! * [`torn_write_sweep`] — tear every batch's single `write(2)` at every
//!   byte offset. The torn batch is never acknowledged, so recovery may
//!   see it fully (the tear hit after the fence) or not at all — never
//!   partially.
//! * [`kill_loop`] — the end-to-end run: a real [`DkServer`] with the WAL
//!   on a [`SharedDisk`], a seeded fail point "killing" the disk at a
//!   random group commit, acks collected per op. The ack stream must be
//!   an `Ok` prefix followed only by typed [`ServeError::WalFailed`], and
//!   every crash view must recover all acked ops in submission order,
//!   byte-identical to the serial oracle.

use crate::faults::{probe, record, FaultReport, Probe};
use dkindex_core::io_fail::{FailPlan, SharedDisk, SimDisk};
use dkindex_core::wal::{self, WalTail, WalWriter};
use dkindex_core::{
    apply_serial, snapshot_bytes, DkIndex, DkServer, ServeConfig, ServeError, ServeOp,
};
use dkindex_graph::{DataGraph, NodeId};
use std::io;

/// Fold the update stream into mixed maintenance batches: cycling batch
/// sizes, interleaved promotes, and a trailing promote-to-requirements
/// pass, so the sweeps cover every record tag that the serve layer actually
/// logs.
pub fn torture_batches(updates: &[(NodeId, NodeId)]) -> Vec<Vec<ServeOp>> {
    let mut batches: Vec<Vec<ServeOp>> = Vec::new();
    let mut batch: Vec<ServeOp> = Vec::new();
    let mut size = 1usize;
    for (i, &(from, to)) in updates.iter().enumerate() {
        batch.push(ServeOp::AddEdge { from, to });
        if i % 3 == 1 {
            batch.push(ServeOp::Promote { node: from, k: 3 });
        }
        if batch.len() >= size {
            batches.push(std::mem::take(&mut batch));
            size = size % 3 + 1;
        }
    }
    if !batch.is_empty() {
        batches.push(batch);
    }
    batches.push(vec![ServeOp::PromoteToRequirements]);
    batches
}

/// The serial oracle every crash view is compared against: snapshot
/// bytes and cumulative record counts after each whole-batch prefix.
struct BatchOracle {
    states: Vec<Vec<u8>>,
    counts: Vec<usize>,
}

fn batch_oracle(dk: &DkIndex, data: &DataGraph, batches: &[Vec<ServeOp>]) -> BatchOracle {
    let mut d = dk.clone();
    let mut g = data.clone();
    let mut states = vec![snapshot_bytes(&d, &g)];
    let mut counts = vec![0usize];
    for batch in batches {
        apply_serial(&mut d, &mut g, batch);
        states.push(snapshot_bytes(&d, &g));
        counts.push(counts.last().copied().unwrap_or(0) + batch.len());
    }
    BatchOracle { states, counts }
}

/// The log a healthy disk holds after group-committing `batches`, plus the
/// byte offsets where the committed prefix can end: after the header, then
/// after each batch's commit fence.
pub(crate) fn healthy_log(batches: &[Vec<ServeOp>]) -> io::Result<(Vec<u8>, Vec<usize>)> {
    let mut writer = WalWriter::with_store(SimDisk::new(FailPlan::none()))?;
    let mut fence_ends = vec![writer.store().cached().len()];
    for batch in batches {
        writer.append_batch(batch)?;
        fence_ends.push(writer.store().cached().len());
    }
    Ok((writer.store().cached().to_vec(), fence_ends))
}

/// Contract for one surviving file: it must replay to the serial state of
/// a whole-batch prefix `j` with `min_batches <= j <= max_batches` —
/// never a partial batch, never fewer batches than were acknowledged.
fn check_view(
    dk: &DkIndex,
    data: &DataGraph,
    bytes: &[u8],
    oracle: &BatchOracle,
    min_batches: usize,
    max_batches: usize,
    context: &str,
) -> Probe {
    let mut d = dk.clone();
    let mut g = data.clone();
    match wal::replay(&mut d, &mut g, bytes) {
        Ok(report) => {
            let Some(j) = oracle.counts.iter().position(|&c| c == report.applied) else {
                return Probe::Violation(format!(
                    "{context}: applied {} records — not a whole-batch prefix",
                    report.applied
                ));
            };
            if j < min_batches {
                return Probe::Violation(format!(
                    "{context}: only {j} batches recovered; {min_batches} were acknowledged"
                ));
            }
            if j > max_batches {
                return Probe::Violation(format!(
                    "{context}: {j} batches recovered but at most {max_batches} were ever synced"
                ));
            }
            match oracle.states.get(j) {
                Some(expected) if snapshot_bytes(&d, &g) == *expected => Probe::Recovered,
                _ => Probe::Violation(format!(
                    "{context}: replay of {j} batches diverged from serial application"
                )),
            }
        }
        Err(wal::WalError::Io(e)) => {
            Probe::Violation(format!("{context}: I/O error from in-memory bytes: {e}"))
        }
        Err(_) => Probe::TypedError,
    }
}

/// Write `batches` on a healthy simulated disk, then cut the log at every
/// byte length and replay each cut. The committed-prefix contract: every
/// cut yields a whole-batch prefix, and the tail reads clean exactly at
/// the commit-fence boundaries.
pub fn wal_tail_sweep(dk: &DkIndex, data: &DataGraph, batches: &[Vec<ServeOp>]) -> FaultReport {
    let mut report = FaultReport::new("WAL v2 tail sweep");
    let (log, clean_cuts) = match healthy_log(batches) {
        Ok(written) => written,
        Err(e) => {
            report.violations.push(format!("healthy disk refused the log: {e}"));
            return report;
        }
    };
    let oracle = batch_oracle(dk, data, batches);

    for cut in 0..=log.len() {
        let context = format!("v2 WAL cut at byte {cut}");
        let outcome = probe(&context, || {
            let mut d = dk.clone();
            let mut g = data.clone();
            let view = log.get(..cut).unwrap_or(&log);
            match wal::replay(&mut d, &mut g, view) {
                Ok(r) => {
                    let Some(j) = oracle.counts.iter().position(|&c| c == r.applied) else {
                        return Probe::Violation(format!(
                            "{context}: applied {} records — not a whole-batch prefix",
                            r.applied
                        ));
                    };
                    match oracle.states.get(j) {
                        Some(expected) if snapshot_bytes(&d, &g) == *expected => {}
                        _ => {
                            return Probe::Violation(format!(
                                "{context}: replay of {j} batches diverged from serial application"
                            ))
                        }
                    }
                    let clean = matches!(r.tail, WalTail::Clean);
                    if clean != clean_cuts.contains(&cut) {
                        return Probe::Violation(format!(
                            "{context}: tail misreported (torn vs clean)"
                        ));
                    }
                    Probe::Recovered
                }
                Err(wal::WalError::Io(e)) => {
                    Probe::Violation(format!("{context}: I/O error from in-memory bytes: {e}"))
                }
                Err(_) => Probe::TypedError,
            }
        });
        record(&mut report, outcome);
    }
    report
}

/// Fail the group commit of every batch in turn and sweep every crash
/// view of the unsynced tail. Stable storage must hold exactly the acked
/// batches; a crash view may additionally surface the failed batch (its
/// bytes were written, only the fsync failed) — whole or not at all.
pub fn fsync_failpoint_sweep(
    dk: &DkIndex,
    data: &DataGraph,
    batches: &[Vec<ServeOp>],
) -> FaultReport {
    let mut report = FaultReport::new("fsync fail-points");
    let oracle = batch_oracle(dk, data, batches);
    for s in 0..batches.len() {
        // Sync 0 is the header sync at creation; batch i commits at sync i+1.
        let plan = FailPlan {
            fail_sync_at: Some(s as u64 + 1),
            torn_write_at: None,
        };
        let mut writer = match WalWriter::with_store(SimDisk::new(plan)) {
            Ok(w) => w,
            Err(e) => {
                report
                    .violations
                    .push(format!("fail_sync_at {s}: header write failed early: {e}"));
                continue;
            }
        };
        let mut acked = 0usize;
        let shape_context = format!("fail_sync_at {s}: ack shape");
        let shape = probe(&shape_context, || {
            for (i, batch) in batches.iter().enumerate() {
                match writer.append_batch(batch) {
                    Ok(()) if i < s => acked += 1,
                    Ok(()) => {
                        return Probe::Violation(format!(
                            "{shape_context}: batch {i} acked past the failed fsync"
                        ))
                    }
                    Err(_) if i >= s => {}
                    Err(e) => {
                        return Probe::Violation(format!(
                            "{shape_context}: batch {i} failed before the fail-point: {e}"
                        ))
                    }
                }
            }
            Probe::Recovered
        });
        record(&mut report, shape);

        let durable = writer.store().durable().to_vec();
        let context = format!("fail_sync_at {s}: durable prefix");
        let outcome = probe(&context, || {
            check_view(dk, data, &durable, &oracle, acked, acked, &context)
        });
        record(&mut report, outcome);

        let unsynced = writer.store().unsynced_len();
        for extra in 0..=unsynced {
            let view = writer.store().crash_view(extra);
            let context = format!("fail_sync_at {s}: crash view +{extra}B");
            let outcome = probe(&context, || {
                check_view(dk, data, &view, &oracle, acked, acked + 1, &context)
            });
            record(&mut report, outcome);
        }
    }
    report
}

/// Tear every batch's single group-commit `write(2)` at every byte offset.
/// The torn batch never acks; recovery sees it fully (when the tear kept
/// the whole buffer) or not at all — the commit fence makes any shorter
/// tear invisible to replay.
pub fn torn_write_sweep(dk: &DkIndex, data: &DataGraph, batches: &[Vec<ServeOp>]) -> FaultReport {
    let mut report = FaultReport::new("torn batch writes");
    let oracle = batch_oracle(dk, data, batches);

    // Each batch's encoded write length on a healthy disk.
    let lens: Vec<usize> = match healthy_log(batches) {
        Ok((_, fence_ends)) => fence_ends.windows(2).map(|w| w[1] - w[0]).collect(),
        Err(e) => {
            report.violations.push(format!("healthy disk refused the log: {e}"));
            return report;
        }
    };

    for (w_idx, &len) in lens.iter().enumerate() {
        for keep in 0..=len {
            // Write 0 is the header; batch i is write i+1.
            let plan = FailPlan {
                fail_sync_at: None,
                torn_write_at: Some((w_idx as u64 + 1, keep)),
            };
            let mut writer = match WalWriter::with_store(SimDisk::new(plan)) {
                Ok(w) => w,
                Err(e) => {
                    report.violations.push(format!(
                        "torn_write at batch {w_idx}+{keep}B: header write failed early: {e}"
                    ));
                    continue;
                }
            };
            let context = format!("torn_write at batch {w_idx} keeping {keep}B");
            let shape = probe(&context, || {
                for (i, batch) in batches.iter().enumerate() {
                    match writer.append_batch(batch) {
                        Ok(()) if i < w_idx => {}
                        Ok(()) => {
                            return Probe::Violation(format!(
                                "{context}: batch {i} acked through the torn write"
                            ))
                        }
                        Err(_) if i >= w_idx => {}
                        Err(e) => {
                            return Probe::Violation(format!(
                                "{context}: batch {i} failed before the fail-point: {e}"
                            ))
                        }
                    }
                }
                Probe::Recovered
            });
            record(&mut report, shape);

            let unsynced = writer.store().unsynced_len();
            let mut extras = vec![0usize];
            if unsynced > 0 {
                extras.push(unsynced);
            }
            for extra in extras {
                let view = writer.store().crash_view(extra);
                let view_context = format!("{context}, crash view +{extra}B");
                let outcome = probe(&view_context, || {
                    check_view(dk, data, &view, &oracle, w_idx, w_idx + 1, &view_context)
                });
                record(&mut report, outcome);
            }
        }
    }
    report
}

/// `splitmix64` — a tiny seeded generator: deterministic fail-plan
/// selection for [`kill_loop`].
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// End-to-end kill loop: run a real [`DkServer`] with its WAL on a shared
/// simulated disk, fail the disk at a seeded random group commit, and
/// verify the acknowledged-prefix contract through actual recovery — the
/// ack stream is an `Ok` prefix followed only by typed
/// [`ServeError::WalFailed`], and every crash view replays all acked ops
/// in submission order, byte-identical to the serial oracle.
pub fn kill_loop(
    dk: &DkIndex,
    data: &DataGraph,
    updates: &[(NodeId, NodeId)],
    rounds: usize,
    seed: u64,
) -> FaultReport {
    let mut report = FaultReport::new("kill-at-random-batch loop");
    let mut rng = seed;
    let ops: Vec<ServeOp> = updates
        .iter()
        .map(|&(from, to)| ServeOp::AddEdge { from, to })
        .collect();
    for round in 0..rounds {
        // Worst case every op is its own batch: syncs 1..=ops.len() are
        // group commits (sync 0 is the header). Rolling past the last
        // commit is a round where the disk never fails — also a valid case.
        let kill_sync = 1 + splitmix64(&mut rng) % (ops.len() as u64 + 1);
        let shared = SharedDisk::new(FailPlan {
            fail_sync_at: Some(kill_sync),
            torn_write_at: None,
        });
        let writer = match WalWriter::with_store(shared.clone()) {
            Ok(w) => w,
            Err(e) => {
                report
                    .violations
                    .push(format!("round {round}: shared disk refused the header: {e}"));
                continue;
            }
        };
        let server = DkServer::start_logged(
            data.clone(),
            dk.clone(),
            ServeConfig {
                max_batch: 4,
                ..ServeConfig::default()
            },
            Box::new(writer),
        );
        let mut acks = Vec::with_capacity(ops.len());
        let mut submitted: Vec<ServeOp> = Vec::with_capacity(ops.len());
        for op in &ops {
            match server.submit_logged(op.clone()) {
                Ok(ack) => {
                    submitted.push(op.clone());
                    acks.push(Ok(ack));
                }
                // Once the failed commit has poisoned the server, a submit
                // fails fast with the error its ack would have carried.
                Err(ServeError::WalFailed) => acks.push(Err(ServeError::WalFailed)),
                Err(e) => {
                    report
                        .violations
                        .push(format!("round {round}: submit refused unexpectedly: {e}"));
                }
            }
        }
        let results: Vec<Result<u64, ServeError>> = acks
            .into_iter()
            .map(|a| a.and_then(|ack| ack.wait()))
            .collect();
        let _ = server.shutdown();

        let acked = results.iter().take_while(|r| r.is_ok()).count();
        for (i, result) in results.iter().enumerate().skip(acked) {
            match result {
                Ok(_) => report.violations.push(format!(
                    "round {round}: op {i} acked after a failed group commit"
                )),
                Err(ServeError::WalFailed) => {}
                Err(e) => report.violations.push(format!(
                    "round {round}: op {i} failed with {e:?} instead of WalFailed"
                )),
            }
        }

        let unsynced = shared.view(|d| d.unsynced_len());
        let mut extras = vec![0usize];
        if unsynced > 0 {
            extras.push(unsynced / 2);
            extras.push(unsynced);
        }
        extras.dedup();
        for extra in extras {
            let view = shared.view(|d| d.crash_view(extra));
            let context = format!("round {round}: crash view +{extra}B (of {unsynced}B unsynced)");
            let outcome = probe(&context, || {
                let (records, _tail) = match wal::decode_wal(&view) {
                    Ok(decoded) => decoded,
                    Err(wal::WalError::Io(e)) => {
                        return Probe::Violation(format!(
                            "{context}: I/O error from in-memory bytes: {e}"
                        ))
                    }
                    Err(_) => return Probe::TypedError,
                };
                if records.len() < acked {
                    return Probe::Violation(format!(
                        "{context}: {} records recovered but {acked} updates were acknowledged",
                        records.len()
                    ));
                }
                let Some(prefix) = submitted.get(..records.len()) else {
                    return Probe::Violation(format!(
                        "{context}: {} records recovered but only {} ops were submitted",
                        records.len(),
                        submitted.len()
                    ));
                };
                if let Some(i) = records.iter().zip(prefix).position(|(rec, op)| rec != op) {
                    return Probe::Violation(format!(
                        "{context}: record {i} does not match the op submitted at {i}"
                    ));
                }
                let mut d = dk.clone();
                let mut g = data.clone();
                if let Err(e) = wal::replay(&mut d, &mut g, &view) {
                    return Probe::Violation(format!(
                        "{context}: committed prefix failed to replay: {e}"
                    ));
                }
                let mut d2 = dk.clone();
                let mut g2 = data.clone();
                apply_serial(&mut d2, &mut g2, prefix);
                if snapshot_bytes(&d, &g) != snapshot_bytes(&d2, &g2) {
                    return Probe::Violation(format!(
                        "{context}: recovered state diverged from the serial oracle"
                    ));
                }
                Probe::Recovered
            });
            record(&mut report, outcome);
        }
    }
    report
}

/// Run all four sweeps on the standard fault fixture.
pub fn run_all(seed: u64) -> Vec<FaultReport> {
    let (data, dk, updates) = crate::faults::fixture(seed);
    let batches = torture_batches(&updates);
    vec![
        wal_tail_sweep(&dk, &data, &batches),
        fsync_failpoint_sweep(&dk, &data, &batches),
        torn_write_sweep(&dk, &data, &batches),
        kill_loop(&dk, &data, &updates, 8, seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkindex_core::Requirements;
    use dkindex_graph::{EdgeKind, LabeledGraph};

    fn tiny_fixture() -> (DataGraph, DkIndex, Vec<(NodeId, NodeId)>) {
        let mut g = DataGraph::new();
        let a = g.add_labeled_node("a");
        let b = g.add_labeled_node("b");
        let c = g.add_labeled_node("c");
        let r = LabeledGraph::root(&g);
        g.add_edge(r, a, EdgeKind::Tree);
        g.add_edge(a, b, EdgeKind::Tree);
        g.add_edge(r, c, EdgeKind::Tree);
        g.add_edge(c, b, EdgeKind::Reference);
        let dk = DkIndex::build(&g, Requirements::uniform(2));
        let updates = vec![(a, c), (b, c), (c, a), (a, b)];
        (g, dk, updates)
    }

    #[test]
    fn v2_sweeps_hold_on_a_small_graph() {
        let (g, dk, updates) = tiny_fixture();
        let batches = torture_batches(&updates);
        assert!(batches.len() >= 3, "fixture should produce several batches");
        for report in [
            wal_tail_sweep(&dk, &g, &batches),
            fsync_failpoint_sweep(&dk, &g, &batches),
            torn_write_sweep(&dk, &g, &batches),
        ] {
            assert!(report.cases > 0, "{} probed nothing", report.name);
            assert!(report.passed(), "{}: {:?}", report.name, report.violations);
        }
    }

    #[test]
    fn kill_loop_holds_on_a_small_graph() {
        let (g, dk, updates) = tiny_fixture();
        let report = kill_loop(&dk, &g, &updates, 4, 0xD15C_0C05);
        assert!(report.cases > 0);
        assert!(report.passed(), "{:?}", report.violations);
    }
}
