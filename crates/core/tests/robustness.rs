//! Property tests for the durability layer (ISSUE: robustness): random
//! update streams must make `snapshot + WAL replay` indistinguishable from
//! direct construction, WAL truncation must replay exactly the surviving
//! prefix, and recovery must always produce a well-formed index.

use dkindex_core::wal::{self, WalRecord, WalTail};
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

/// Wire-format sizes, mirrored from `core::wal` (kept private there): the
/// 8-byte `DKWL` header and the 13-byte v1 add-edge record.
const HEADER_LEN: usize = 8;
const RECORD_LEN: usize = 13;

/// A legacy v1 log: fixed 13-byte add-edge records, no commit fences.
fn wal_bytes(updates: &[(usize, usize)]) -> Vec<u8> {
    let mut log = wal::encode_header_v1().to_vec();
    for &(f, t) in updates {
        let rec = wal::encode_record_v1(&WalRecord::AddEdge {
            from: NodeId::from_index(f),
            to: NodeId::from_index(t),
        })
        .expect("add-edge encodes in v1");
        log.extend_from_slice(&rec);
    }
    log
}

/// Derive a mixed v2 op stream from the scenario's update pairs: edge
/// additions interleaved with promote / demote / set-requirements
/// maintenance ops, all in-range for the scenario graph.
fn mixed_ops(s: &Scenario) -> Vec<WalRecord> {
    let mut records = Vec::new();
    for (i, &(f, t)) in s.updates.iter().enumerate() {
        records.push(WalRecord::AddEdge {
            from: NodeId::from_index(f),
            to: NodeId::from_index(t),
        });
        match i % 4 {
            0 => records.push(WalRecord::Promote {
                node: NodeId::from_index(f),
                k: (s.k + i) % 4,
            }),
            1 => records.push(WalRecord::Demote(Requirements::uniform(s.k))),
            2 => records.push(WalRecord::SetRequirements(Requirements::from_pairs([
                ("l0", (i + 1) % 4),
                ("l1", s.k),
            ]))),
            _ => records.push(WalRecord::PromoteToRequirements),
        }
    }
    records
}

/// A v2 log with one commit fence per record (the append-per-record shape),
/// plus the byte offset where each record's fence ends.
fn v2_wal_bytes(records: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
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
        let report = wal::replay(&mut dk_replayed, &mut g_replayed, &wal_bytes(&s.updates))
            .expect("in-range records must replay");
        prop_assert_eq!(report.applied, s.updates.len());
        prop_assert_eq!(report.tail, WalTail::Clean);
        prop_assert_eq!(
            snapshot_bytes(&dk_replayed, &g_replayed),
            snapshot_bytes(&dk_direct, &g_direct),
            "replayed state diverged from direct construction"
        );
    }

    /// Truncating the WAL anywhere replays exactly the complete-record
    /// prefix; the reached state equals direct application of that prefix.
    #[test]
    fn wal_truncation_replays_the_surviving_prefix(
        s in scenario(),
        cut_at in any::<prop::sample::Index>(),
    ) {
        let (g0, dk0) = build(&s);
        let log = wal_bytes(&s.updates);
        let cut = cut_at.index(log.len() + 1);

        let mut g_replayed = g0.clone();
        let mut dk_replayed = dk0.clone();
        match wal::replay(&mut dk_replayed, &mut g_replayed, &log[..cut]) {
            Ok(report) => {
                prop_assert!(report.applied <= s.updates.len());
                // The surviving prefix is exactly the complete records before
                // the cut; a cut landing on a record boundary (including the
                // bare header and the intact file) is a *clean* tail, never a
                // torn record.
                let payload = cut - HEADER_LEN;
                prop_assert_eq!(report.applied, payload / RECORD_LEN);
                if payload.is_multiple_of(RECORD_LEN) {
                    prop_assert_eq!(
                        report.tail, WalTail::Clean,
                        "boundary cut at {} must be a clean tail", cut
                    );
                } else {
                    let valid_len = HEADER_LEN + (payload / RECORD_LEN) * RECORD_LEN;
                    prop_assert_eq!(report.tail, WalTail::Torn { valid_len });
                }
                let mut g_direct = g0.clone();
                let mut dk_direct = dk0.clone();
                for &(f, t) in &s.updates[..report.applied] {
                    dk_direct.add_edge(&mut g_direct, NodeId::from_index(f), NodeId::from_index(t));
                }
                prop_assert_eq!(
                    snapshot_bytes(&dk_replayed, &g_replayed),
                    snapshot_bytes(&dk_direct, &g_direct),
                    "prefix of {} records diverged", report.applied
                );
            }
            // Cuts inside the 8-byte header are a typed error, never a panic.
            Err(e) => prop_assert!(cut < 8, "unexpected error at cut {}: {}", cut, e),
        }
    }

    /// A truncation landing exactly on a record boundary replays *all* the
    /// surviving records and reports a clean tail — the off-by-one regression
    /// guard for `decode_wal`.
    #[test]
    fn record_boundary_truncation_is_a_clean_tail(
        s in scenario(),
        n_idx in any::<prop::sample::Index>(),
    ) {
        let (g0, dk0) = build(&s);
        let log = wal_bytes(&s.updates);
        let n = n_idx.index(s.updates.len() + 1);
        let cut = HEADER_LEN + n * RECORD_LEN;

        let mut g = g0.clone();
        let mut dk = dk0.clone();
        let report = wal::replay(&mut dk, &mut g, &log[..cut])
            .expect("in-range records must replay");
        prop_assert_eq!(report.applied, n, "boundary cut after {} records", n);
        prop_assert_eq!(report.tail, WalTail::Clean);
    }

    /// Cutting a v2 WAL at *any* byte replays exactly the fence-covered
    /// record prefix, the recovered index passes the full auditor, and the
    /// state is byte-identical to serially applying that prefix — the
    /// acknowledged-prefix contract at the decode level, over the whole
    /// ServeOp vocabulary.
    #[test]
    fn v2_any_prefix_replays_audit_sound(
        s in scenario(),
        cut_at in any::<prop::sample::Index>(),
    ) {
        let (g0, dk0) = build(&s);
        let records = mixed_ops(&s);
        let (log, fence_ends) = v2_wal_bytes(&records);
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

                let ops: Vec<ServeOp> = records[..expected].iter().map(|r| r.to_op()).collect();
                let mut g_direct = g0.clone();
                let mut dk_direct = dk0.clone();
                apply_serial(&mut dk_direct, &mut g_direct, &ops);
                prop_assert_eq!(
                    snapshot_bytes(&dk_replayed, &g_replayed),
                    snapshot_bytes(&dk_direct, &g_direct),
                    "replayed v2 prefix of {} records diverged", expected
                );
                dk_replayed.index().check_invariants(&g_replayed)
                    .expect("replayed index is well-formed");
                let audit = audit_dk(&dk_replayed, &g_replayed, &AuditConfig::default());
                prop_assert!(audit.is_sound(), "auditor found corruption:\n{}", audit);
            }
            // Cuts inside the 8-byte header are a typed error, never a panic.
            Err(e) => prop_assert!(cut < HEADER_LEN, "unexpected error at cut {}: {}", cut, e),
        }
    }

    /// A single flipped bit anywhere in a snapshot either yields a typed
    /// error or recovers to an index that passes both the structural
    /// invariant check and the full auditor.
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
            rec_dk.index().check_invariants(&rec_g).expect("recovered index is well-formed");
            let report = audit_dk(&rec_dk, &rec_g, &AuditConfig::default());
            prop_assert!(report.is_sound(), "auditor found corruption:\n{}", report);
        }
    }
}

/// v1→v2 compatibility, pinned at the byte level: a v1 stream written by the
/// previous format (literal golden bytes, CRCs included) must decode in this
/// build, replay identically to the equivalent v2 stream, and a `WalWriter`
/// reopening it must keep appending in v1 — so pre-upgrade logs stay usable
/// without a rewrite.
#[test]
fn v1_golden_bytes_decode_and_replay_identically_to_v2() {
    // b"DKWL" v1 header, then AddEdge{3→1} and AddEdge{0→2} as written by
    // the v1 encoder (13-byte records, trailing IEEE CRC-32 of the first 9).
    const GOLDEN_V1: [u8; 34] = [
        0x44, 0x4b, 0x57, 0x4c, 0x01, 0x00, 0x00, 0x00, // header
        0x01, 0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x6b, 0x60, 0x41, 0xc7,
        0x01, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x66, 0xc8, 0x7b, 0x5b,
    ];
    // The same stream as today's encoder emits it — byte-for-byte.
    let mut reencoded = wal::encode_header_v1().to_vec();
    let records = [
        WalRecord::AddEdge { from: NodeId::from_index(3), to: NodeId::from_index(1) },
        WalRecord::AddEdge { from: NodeId::from_index(0), to: NodeId::from_index(2) },
    ];
    for r in &records {
        reencoded.extend_from_slice(&wal::encode_record_v1(r).expect("v1 add-edge"));
    }
    assert_eq!(reencoded, GOLDEN_V1, "v1 wire format drifted");

    let (decoded, tail) = wal::decode_wal(&GOLDEN_V1).expect("golden v1 stream decodes");
    assert_eq!(decoded, records);
    assert_eq!(tail, WalTail::Clean);

    // Replaying the v1 golden stream and the equivalent v2 stream must land
    // on byte-identical states.
    let s = Scenario {
        graph_seed: 7,
        nodes: 12,
        labels: 3,
        reference_edges: 2,
        k: 2,
        updates: vec![],
    };
    let (g0, dk0) = build(&s);
    let (mut g_v1, mut dk_v1) = (g0.clone(), dk0.clone());
    wal::replay(&mut dk_v1, &mut g_v1, &GOLDEN_V1).expect("v1 replay");

    let (v2_log, _) = v2_wal_bytes(&records);
    let (mut g_v2, mut dk_v2) = (g0, dk0);
    wal::replay(&mut dk_v2, &mut g_v2, &v2_log).expect("v2 replay");
    assert_eq!(
        snapshot_bytes(&dk_v1, &g_v1),
        snapshot_bytes(&dk_v2, &g_v2),
        "v1 and v2 encodings of the same stream must replay identically"
    );
}
