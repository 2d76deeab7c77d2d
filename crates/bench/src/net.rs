//! Loopback gate for the DKNP network front-end (`dkindex-server`):
//! a mixed query/update workload over real TCP sockets, an induced-overload
//! phase proving typed load-shedding, and a graceful drain — all
//! cross-checked byte-for-byte against a serial replay of the admitted
//! update sequence.
//!
//! Three properties are gated ([`NetBenchResult::check`], which `reproduce
//! bench-smoke` turns into an exit code):
//!
//! * **Determinism** — the state the drained server hands back is
//!   byte-identical to [`apply_serial`] over exactly the updates that were
//!   acknowledged with `UPDATE_OK`, in acknowledgement order.
//! * **Typed shedding** — with maintenance deterministically paused, the
//!   server admits exactly `staleness_threshold` updates and answers every
//!   further one with `SHED(maintenance-lag)` (PROTOCOL.md §5.1): refusals
//!   are frames, never unbounded queueing, never dropped connections.
//! * **Zero transport surprises** — every request in the run gets a decoded
//!   reply frame; a reset, timeout, or undecodable response fails the gate.
//!
//! The `net` section of `BENCH_eval.json` holds the counts those gates are
//! stated over; loopback latency and throughput are machine-dependent and
//! are read from the judged benchmark instead (`benchmark/`, `hot-point`).

use dkindex_core::{apply_serial, snapshot_bytes, DkIndex, DkServer, Requirements, ServeConfig, ServeOp};
use dkindex_graph::{DataGraph, NodeId};
use dkindex_pathexpr::PathExpr;
use dkindex_server::{Frame, NetClient, NetConfig, NetServer, ShedReason};
use dkindex_workload::generate_update_edges;
use std::time::Duration;

use crate::report::Rows;

/// Knobs for the loopback net gate (see [`bench_net`]).
#[derive(Clone, Copy, Debug)]
pub struct NetBenchConfig {
    /// QUERY rounds issued per reader connection in the mixed phase.
    pub rounds: usize,
    /// Updates pushed through the single writer connection in the mixed
    /// phase (retried on shed, so all of them are eventually admitted).
    pub updates: usize,
    /// `staleness_threshold` for the server under test: the exact number
    /// of updates the overload phase must see admitted.
    pub staleness_threshold: u64,
    /// Extra updates sent past the threshold while maintenance is paused;
    /// every one must come back as a typed SHED.
    pub overload_extra: u64,
}

impl Default for NetBenchConfig {
    fn default() -> Self {
        NetBenchConfig {
            rounds: 200,
            updates: 48,
            staleness_threshold: 16,
            overload_extra: 8,
        }
    }
}

/// What [`bench_net`] counted and verified.
#[derive(Clone, Debug)]
pub struct NetBenchResult {
    /// The configuration the run was held to.
    pub config: NetBenchConfig,
    /// Reader connections issuing queries concurrently.
    pub readers: usize,
    /// Total queries answered over the wire.
    pub queries: u64,
    /// Updates acknowledged with `UPDATE_OK` across both phases.
    pub updates_admitted: usize,
    /// Updates admitted during the induced-overload phase (must equal the
    /// configured `staleness_threshold`).
    pub overload_admitted: u64,
    /// Updates refused with `SHED(maintenance-lag)` during overload.
    pub overload_shed: u64,
    /// Every refusal in the run was a typed SHED frame with the expected
    /// reason, and every request got a decodable reply.
    pub typed_sheds_only: bool,
    /// Final drained state is byte-identical to a serial replay of the
    /// admitted update sequence.
    pub deterministic: bool,
}

impl NetBenchResult {
    /// The `net` section.
    pub fn rows(&self) -> Rows {
        vec![
            ("readers", self.readers.to_string()),
            ("rounds", self.config.rounds.to_string()),
            ("queries", self.queries.to_string()),
            ("updates_admitted", self.updates_admitted.to_string()),
            ("overload_admitted", self.overload_admitted.to_string()),
            ("overload_shed", self.overload_shed.to_string()),
            ("typed_sheds_only", self.typed_sheds_only.to_string()),
            ("deterministic", self.deterministic.to_string()),
        ]
    }

    /// The network serve gate: the drained state replays serially, every
    /// refusal was a typed SHED frame (PROTOCOL.md §5), and admission under
    /// induced overload stopped exactly at the staleness threshold.
    pub fn check(&self) -> Result<(), String> {
        if !self.deterministic {
            return Err(
                "drained state diverged from serial replay of the admitted updates".to_string()
            );
        }
        if !self.typed_sheds_only {
            return Err(
                "a refusal was not a typed SHED frame (or a request got no reply)".to_string()
            );
        }
        let (want_admitted, want_shed) =
            (self.config.staleness_threshold, self.config.overload_extra);
        if self.overload_admitted != want_admitted || self.overload_shed != want_shed {
            return Err(format!(
                "overload admitted {} (want {want_admitted}) and shed {} (want {want_shed}) — \
                 admission did not stop at the staleness threshold",
                self.overload_admitted, self.overload_shed,
            ));
        }
        Ok(())
    }
}

/// Run the loopback net gate: start a [`NetServer`] on an ephemeral port,
/// drive `readers` query connections plus one writer connection
/// through it, induce an overload window with the maintenance pause gate,
/// then drain and compare against the serial oracle.
///
/// The writer is a **single** connection and retries shed updates until
/// admitted, so the admitted sequence is a deterministic total order — the
/// serial oracle replays exactly that order.
pub fn bench_net(
    data: &DataGraph,
    queries: &[PathExpr],
    reqs: &Requirements,
    readers: usize,
    cfg: &NetBenchConfig,
    seed: u64,
) -> NetBenchResult {
    let readers = readers.max(1);
    let dk = DkIndex::build(data, reqs.clone());
    let edges = generate_update_edges(
        data,
        cfg.updates + (cfg.staleness_threshold + cfg.overload_extra) as usize,
        seed,
    );
    let (mixed_edges, overload_edges) = edges.split_at(cfg.updates.min(edges.len()));

    let server = DkServer::start(
        data.clone(),
        dk.clone(),
        ServeConfig {
            max_batch: 8,
            ..ServeConfig::default()
        },
    );
    let net = NetServer::start(
        server,
        "127.0.0.1:0",
        NetConfig {
            workers: readers + 1,
            staleness_threshold: cfg.staleness_threshold,
            ..NetConfig::default()
        },
    )
    .expect("bind loopback for net bench");
    let addr = net.local_addr();

    // Phase 1 — mixed workload: `readers` query connections, one sequential
    // writer that retries on shed (so every mixed-phase update is admitted).
    let mut admitted: Vec<(u64, u64)> = Vec::new();
    let mut clean = true;
    let answered: u64 = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for r in 0..readers {
            handles.push(s.spawn(move || {
                let Ok(mut client) = NetClient::connect(addr) else {
                    return 0;
                };
                let mut answered = 0u64;
                for round in 0..cfg.rounds {
                    let q = &queries[(r + round) % queries.len()];
                    if let Ok(Frame::Answer { .. }) = client.query(&q.to_string(), 0) {
                        answered += 1;
                    }
                }
                answered
            }));
        }

        let mut writer = NetClient::connect(addr).expect("writer connect");
        for &(from, to) in mixed_edges {
            let (from, to) = (from.index() as u64, to.index() as u64);
            // Retry until admitted: sheds are safe to retry by contract
            // (PROTOCOL.md §5.2), and the single connection keeps the
            // admitted order total.
            loop {
                match writer.update(from, to) {
                    Ok(Frame::UpdateOk { .. }) => {
                        admitted.push((from, to));
                        break;
                    }
                    Ok(Frame::Shed { reason, .. }) => {
                        if reason != ShedReason::MaintenanceLag {
                            clean = false;
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Ok(_) | Err(_) => {
                        clean = false;
                        break;
                    }
                }
            }
        }

        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .sum()
    });
    // Every query round must have come back as a decoded ANSWER frame.
    clean &= answered == (readers * cfg.rounds) as u64;

    // Phase 2 — induced overload: pause maintenance, push past the
    // staleness threshold, count typed sheds.
    net.dk_server().flush().expect("maintenance alive");
    let gate = net.dk_server().pause_maintenance().expect("pause maintenance");
    let mut writer = NetClient::connect(addr).expect("overload writer connect");
    let mut overload_admitted = 0u64;
    let mut overload_shed = 0u64;
    for &(from, to) in overload_edges {
        let (from, to) = (from.index() as u64, to.index() as u64);
        match writer.update(from, to) {
            Ok(Frame::UpdateOk { .. }) => {
                admitted.push((from, to));
                overload_admitted += 1;
            }
            Ok(Frame::Shed { reason, .. }) => {
                if reason != ShedReason::MaintenanceLag {
                    clean = false;
                }
                overload_shed += 1;
            }
            Ok(_) | Err(_) => clean = false,
        }
    }
    drop(gate);
    net.dk_server().flush().expect("maintenance alive after resume");
    drop(writer);

    // Phase 3 — graceful drain, then the determinism oracle.
    let shutdown = net.shutdown().expect("graceful shutdown");
    let ops: Vec<ServeOp> = admitted
        .iter()
        .map(|&(from, to)| ServeOp::AddEdge {
            from: NodeId::from_index(from as usize),
            to: NodeId::from_index(to as usize),
        })
        .collect();
    let mut serial_dk = dk;
    let mut serial_g = data.clone();
    apply_serial(&mut serial_dk, &mut serial_g, &ops);
    let deterministic =
        snapshot_bytes(&shutdown.index, &shutdown.data) == snapshot_bytes(&serial_dk, &serial_g);

    NetBenchResult {
        config: *cfg,
        readers,
        queries: answered,
        updates_admitted: ops.len(),
        overload_admitted,
        overload_shed,
        typed_sheds_only: clean,
        deterministic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::experiments::standard_workload;

    #[test]
    fn net_bench_is_deterministic_and_sheds_typed() {
        let data = datasets::xmark(0.004);
        let workload = standard_workload(&data, 7);
        let reqs = workload.mine_requirements();
        let cfg = NetBenchConfig {
            rounds: 20,
            updates: 12,
            staleness_threshold: 4,
            overload_extra: 3,
        };
        let net = bench_net(&data, workload.queries(), &reqs, 2, &cfg, 7);
        assert!(net.deterministic, "net serve diverged from serial replay");
        assert!(net.typed_sheds_only, "a refusal was not a typed SHED");
        assert_eq!(net.overload_admitted, cfg.staleness_threshold);
        assert_eq!(net.overload_shed, cfg.overload_extra);
        assert_eq!(net.check(), Ok(()));
        assert_eq!(net.queries, (net.readers * cfg.rounds) as u64);
        assert_eq!(
            net.updates_admitted,
            cfg.updates + cfg.staleness_threshold as usize
        );
        let overshot = NetBenchResult { overload_admitted: 5, ..net };
        let refusal = overshot.check().expect_err("admission past the threshold must fail");
        assert!(refusal.contains("admitted 5 (want 4)"), "{refusal}");
    }
}
