//! Property tests for the durability layer (ISSUE: robustness): random
//! update streams must make `snapshot + WAL replay` indistinguishable from
//! direct construction, WAL truncation must replay exactly the surviving
//! prefix, and recovery must always produce a well-formed index.

use dkindex_core::wal::{self, WalTail};
use dkindex_core::{
    apply_serial, audit_dk, load_with_recovery, read_snapshot, snapshot_bytes, AuditConfig,
    DkIndex, Requirements, ServeOp,
};
use dkindex_datagen::{random_graph, RandomGraphConfig};
use dkindex_graph::{DataGraph, NodeId};
use proptest::prelude::*;

/// A generated robustness scenario: a connected random graph, a requirement
/// level and a stream of edge updates (arbitrary node pairs).
#[derive(Clone, Debug)]
struct Scenario {
    graph_seed: u64,
    nodes: usize,
    labels: usize,
    reference_edges: usize,
    k: usize,
    updates: Vec<(usize, usize)>,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        any::<u64>(),
        10usize..60,
        2usize..5,
        0usize..8,
        0usize..=3,
        prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 0..12),
    )
        .prop_map(|(graph_seed, nodes, labels, reference_edges, k, raw)| {
            let updates = raw
                .into_iter()
                .map(|(f, t)| (f.index(nodes + 1), t.index(nodes + 1)))
                .filter(|(f, t)| f != t)
                .collect();
            Scenario {
                graph_seed,
                nodes,
                labels,
                reference_edges,
                k,
                updates,
            }
        })
}

fn build(s: &Scenario) -> (DataGraph, DkIndex) {
    let g = random_graph(&RandomGraphConfig {
        nodes: s.nodes,
        labels: s.labels,
        reference_edges: s.reference_edges,
        max_fanout: 6,
        seed: s.graph_seed,
    });
    let dk = DkIndex::build(&g, Requirements::uniform(s.k));
    (g, dk)
}

/// Length of the `DKWL` header (kept private in `core::wal`).
const HEADER_LEN: usize = 8;

/// The scenario's updates as add-edge ops.
fn add_edges(updates: &[(usize, usize)]) -> Vec<ServeOp> {
    updates
        .iter()
        .map(|&(f, t)| ServeOp::AddEdge { from: NodeId::from_index(f), to: NodeId::from_index(t) })
        .collect()
}

/// Derive a mixed op stream from the scenario's update pairs: edge
/// additions interleaved with retargets — requirements lowered, raised on
/// two labels, and promoted to — all in-range for the scenario graph.
fn mixed_ops(s: &Scenario) -> Vec<ServeOp> {
    let mut records = Vec::new();
    for (i, &(f, t)) in s.updates.iter().enumerate() {
        records.push(ServeOp::AddEdge {
            from: NodeId::from_index(f),
            to: NodeId::from_index(t),
        });
        match i % 4 {
            0 => {}
            1 => records.push(ServeOp::SetRequirements(Requirements::uniform(s.k.saturating_sub(1)))),
            2 => records.push(ServeOp::SetRequirements(Requirements::from_pairs([
                ("l0", (i + 1) % 4),
                ("l1", s.k),
            ]))),
            _ => records.push(ServeOp::PromoteToRequirements),
        }
    }
    records
}

/// A log with one commit fence per record (the append-per-record shape),
/// plus the byte offset where each record's fence ends.
fn wal_bytes(records: &[ServeOp]) -> (Vec<u8>, Vec<usize>) {
    let mut log = wal::encode_header().to_vec();
    let mut fence_ends = Vec::with_capacity(records.len());
    for r in records {
        log.extend_from_slice(&wal::encode_record(r));
        log.extend_from_slice(&wal::encode_commit(1));
        fence_ends.push(log.len());
    }
    (log, fence_ends)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Snapshot + WAL replay reconstructs exactly the state reached by
    /// applying the same update stream directly — byte-identical.
    #[test]
    fn snapshot_plus_replay_equals_direct_construction(s in scenario()) {
        let (mut g_direct, mut dk_direct) = build(&s);
        let snap = snapshot_bytes(&dk_direct, &g_direct);

        for &(f, t) in &s.updates {
            dk_direct.add_edge(&mut g_direct, NodeId::from_index(f), NodeId::from_index(t));
        }

        let (mut dk_replayed, mut g_replayed) =
            read_snapshot(&snap).expect("pristine snapshot must load");
        let (log, _) = wal_bytes(&add_edges(&s.updates));
        let report = wal::replay(&mut dk_replayed, &mut g_replayed, &log)
            .expect("in-range records must replay");
        prop_assert_eq!(report.applied, s.updates.len());
        prop_assert_eq!(report.tail, WalTail::Clean);
        prop_assert_eq!(
            snapshot_bytes(&dk_replayed, &g_replayed),
            snapshot_bytes(&dk_direct, &g_direct),
            "replayed state diverged from direct construction"
        );
    }

    /// A truncation landing exactly on a commit fence replays *all* the
    /// surviving records and reports a clean tail — the off-by-one regression
    /// guard for `decode_wal`.
    #[test]
    fn record_boundary_truncation_is_a_clean_tail(
        s in scenario(),
        n_idx in any::<prop::sample::Index>(),
    ) {
        let (g0, dk0) = build(&s);
        let (log, fence_ends) = wal_bytes(&add_edges(&s.updates));
        let n = n_idx.index(s.updates.len() + 1);
        let cut = if n == 0 { HEADER_LEN } else { fence_ends[n - 1] };

        let mut g = g0.clone();
        let mut dk = dk0.clone();
        let report = wal::replay(&mut dk, &mut g, &log[..cut])
            .expect("in-range records must replay");
        prop_assert_eq!(report.applied, n, "boundary cut after {} records", n);
        prop_assert_eq!(report.tail, WalTail::Clean);
    }

    /// Cutting a WAL at *any* byte replays exactly the fence-covered
    /// record prefix, the recovered index passes the full auditor, and the
    /// state is byte-identical to serially applying that prefix — the
    /// acknowledged-prefix contract at the decode level, over the whole
    /// ServeOp vocabulary.
    #[test]
    fn any_wal_prefix_replays_audit_sound(
        s in scenario(),
        cut_at in any::<prop::sample::Index>(),
    ) {
        let (g0, dk0) = build(&s);
        let records = mixed_ops(&s);
        let (log, fence_ends) = wal_bytes(&records);
        let cut = cut_at.index(log.len() + 1);

        let mut g_replayed = g0.clone();
        let mut dk_replayed = dk0.clone();
        match wal::replay(&mut dk_replayed, &mut g_replayed, &log[..cut]) {
            Ok(report) => {
                // Committed records are exactly those whose fence made it
                // under the cut; everything past the last fence is dropped.
                let expected = fence_ends.iter().filter(|&&e| e <= cut).count();
                prop_assert_eq!(report.applied, expected, "cut at {}", cut);
                let boundary = cut == HEADER_LEN || fence_ends.contains(&cut);
                prop_assert_eq!(
                    matches!(report.tail, WalTail::Clean), boundary,
                    "cut at {} boundary={}", cut, boundary
                );

                let mut g_direct = g0.clone();
                let mut dk_direct = dk0.clone();
                apply_serial(&mut dk_direct, &mut g_direct, &records[..expected]);
                prop_assert_eq!(
                    snapshot_bytes(&dk_replayed, &g_replayed),
                    snapshot_bytes(&dk_direct, &g_direct),
                    "replayed prefix of {} records diverged", expected
                );
                let audit = audit_dk(&dk_replayed, &g_replayed, &AuditConfig::default());
                prop_assert!(audit.is_sound(), "auditor found corruption:\n{}", audit);
            }
            // Cuts inside the 8-byte header are a typed error, never a panic.
            Err(e) => prop_assert!(cut < HEADER_LEN, "unexpected error at cut {}: {}", cut, e),
        }
    }

    /// A single flipped bit anywhere in a snapshot either yields a typed
    /// error or recovers to an index the full auditor finds sound.
    #[test]
    fn corrupted_snapshots_recover_or_fail_typed(
        s in scenario(),
        at in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let (g, dk) = build(&s);
        let mut bytes = snapshot_bytes(&dk, &g);
        let i = at.index(bytes.len());
        bytes[i] ^= 1 << bit;
        if let Ok((rec_dk, rec_g, _)) = load_with_recovery(&bytes) {
            let report = audit_dk(&rec_dk, &rec_g, &AuditConfig::default());
            prop_assert!(report.is_sound(), "auditor found corruption:\n{}", report);
        }
    }
}
