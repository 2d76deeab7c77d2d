//! Integration tests for the concurrent serving layer (`core::serve`):
//!
//! * engine-backed construction is identical to the `dk_partition_reference`
//!   oracle, and the 1-index to the signature fixpoint, on the XMark-like
//!   and NASA-like generators;
//! * an N-thread serve run ends in exactly the state of a serial run over
//!   the same op sequence — final snapshot bytes and all;
//! * an interleaving stress run: readers race small-batch publishes and
//!   every answer must be exact against the epoch it was computed on;
//! * the served miss path (`Epoch::evaluate_bounded` on a per-thread arena)
//!   swept against the oracle at every budget, across two graph sizes.

use dkindex_core::dk::{dk_partition, dk_partition_reference};
use dkindex_core::serve::{apply_serial, DkServer, ServeConfig, ServeOp};
use dkindex_core::tuner::lowers;
use dkindex_core::wal::{self, WalWriter};
use dkindex_core::{
    check_structure, evaluate_on_data, snapshot_bytes, DkIndex, FailPlan, IndexEvaluator,
    OneIndex, Requirements, SharedDisk, Tuner, TunerConfig,
};
use dkindex_datagen::{
    nasa_graph, random_graph, xmark_graph, NasaConfig, RandomGraphConfig, XmarkConfig,
};
use dkindex_graph::{DataGraph, LabeledGraph};
use dkindex_partition::bisimulation_fixpoint;
use dkindex_pathexpr::parse;
use dkindex_workload::generate_update_edges;

/// Each production construction against its oracle at generator scale: the
/// engine-backed D(k) partition and similarities equal the reference loop's,
/// and the 1-index's worklist partition is the signature fixpoint's.
fn assert_constructions_match_their_oracles(g: &DataGraph, reqs: &Requirements, dataset: &str) {
    let (ref_partition, ref_sims) = dk_partition_reference(g, reqs, true);
    let (p, sims) = dk_partition(g, reqs);
    assert_eq!(p, ref_partition, "{dataset}: D(k) partition diverged");
    assert_eq!(sims, ref_sims, "{dataset}: D(k) similarities diverged");
    let one = OneIndex::build(g).index().to_partition();
    assert!(
        one.same_equivalence(&bisimulation_fixpoint(g)),
        "{dataset}: 1-index is not the bisimulation fixpoint"
    );
}

#[test]
fn construction_matches_reference_on_xmark() {
    let g = xmark_graph(&XmarkConfig::scale(0.02));
    let reqs = Requirements::from_pairs([("item", 2), ("person", 1), ("keyword", 3)]);
    assert_constructions_match_their_oracles(&g, &reqs, "xmark");
}

#[test]
fn construction_matches_reference_on_nasa() {
    let g = nasa_graph(&NasaConfig::scale(0.15));
    let reqs = Requirements::from_pairs([("dataset", 1), ("author", 2), ("title", 2)]);
    assert_constructions_match_their_oracles(&g, &reqs, "nasa");
}

/// A compact random graph plus a deterministic mixed op sequence: edge
/// updates from the workload generator interleaved with retargets — a
/// promote to the stored requirements, then a lowering and a raising
/// set-requirements.
fn serve_fixture() -> (DataGraph, DkIndex, Vec<ServeOp>) {
    let g = random_graph(&RandomGraphConfig {
        nodes: 220,
        labels: 5,
        reference_edges: 24,
        max_fanout: 6,
        seed: 0xD5EE,
    });
    let dk = DkIndex::build(&g, Requirements::uniform(2));
    let mut ops: Vec<ServeOp> = Vec::new();
    let edges = generate_update_edges(&g, 24, 7);
    for (i, (from, to)) in edges.into_iter().enumerate() {
        ops.push(ServeOp::AddEdge { from, to });
        match i {
            11 => ops.push(ServeOp::PromoteToRequirements),
            15 => ops.push(ServeOp::SetRequirements(Requirements::uniform(1))),
            19 => ops.push(ServeOp::SetRequirements(Requirements::uniform(2))),
            _ => {}
        }
    }
    (g, dk, ops)
}

/// Determinism: submitting the op sequence through the server — while
/// reader threads hammer queries — ends byte-identical to applying the same
/// sequence serially, for every batch size and reader count tried.
#[test]
fn threaded_serve_matches_serial_application() {
    let (g, dk, ops) = serve_fixture();

    let mut serial_dk = dk.clone();
    let mut serial_g = g.clone();
    apply_serial(&mut serial_dk, &mut serial_g, &ops);
    let expected = snapshot_bytes(&serial_dk, &serial_g);

    let queries = ["l0", "l1.l2", "_*.l3", "l0.l1"];
    for (readers, max_batch) in [(2usize, 1usize), (4, 4), (4, 64)] {
        let server = DkServer::start(
            g.clone(),
            dk.clone(),
            ServeConfig {
                max_batch,
                ..ServeConfig::default()
            },
        );
        std::thread::scope(|s| {
            for r in 0..readers {
                let handle = server.handle();
                let queries = &queries;
                s.spawn(move || {
                    for round in 0..30 {
                        let q = parse(queries[(r + round) % queries.len()]).unwrap();
                        let _ = handle.evaluate(&q);
                    }
                });
            }
            for op in &ops {
                server.submit(op.clone()).unwrap();
            }
            let drained_epoch = server.flush().unwrap();
            assert!(drained_epoch >= 1, "ops must have published at least one epoch");
        });
        let (final_dk, final_g) = server.shutdown().unwrap();
        assert_eq!(
            snapshot_bytes(&final_dk, &final_g),
            expected,
            "serve with {readers} readers / batch {max_batch} diverged from serial run"
        );
    }
}

/// Interleaving stress: publishes race reads (batch size 1 → one publish per
/// op) and every reader answer must be exact with respect to the epoch the
/// reader grabbed — staleness is allowed, wrongness is not. Epoch ids must
/// be monotone from each reader's point of view.
#[test]
fn racing_readers_always_see_a_consistent_epoch() {
    let (g, dk, ops) = serve_fixture();
    let server = DkServer::start(
        g,
        dk,
        ServeConfig {
            max_batch: 1,
            ..ServeConfig::default()
        },
    );
    let queries = ["l0", "l1.l2", "_*.l3", "l2"];

    std::thread::scope(|s| {
        let mut workers = Vec::new();
        for r in 0..4usize {
            let handle = server.handle();
            let queries = &queries;
            workers.push(s.spawn(move || {
                let mut last_epoch = 0u64;
                let mut checked = 0usize;
                for round in 0..60 {
                    let epoch = handle.epoch();
                    assert!(
                        epoch.id() >= last_epoch,
                        "epoch ids went backwards: {} after {}",
                        epoch.id(),
                        last_epoch
                    );
                    last_epoch = epoch.id();
                    let q = parse(queries[(r + round) % queries.len()]).unwrap();
                    let out = epoch.evaluate(&q);
                    // Exactness against the *same* epoch's data graph: the
                    // serving layer may hand out a superseded epoch, never
                    // an inconsistent one.
                    let truth = evaluate_on_data(epoch.data(), &q).0;
                    assert_eq!(out.matches, truth, "reader {r} round {round}");
                    checked += 1;
                }
                checked
            }));
        }
        // Feed updates while the readers run, one publish per op.
        for op in &ops {
            server.submit(op.clone()).unwrap();
        }
        let checks: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(checks, 4 * 60);
    });

    let final_epoch = server.flush().unwrap();
    assert_eq!(final_epoch as usize, ops.len(), "batch size 1 publishes once per op");
    let (final_dk, final_g) = server.shutdown().unwrap();
    check_structure(final_dk.index(), &final_g).unwrap();
}

/// The per-epoch memo returns the identical outcome for a repeated query and
/// is dropped wholesale on publish (fresh epoch → fresh memo), so an update
/// can never leak a stale cached answer. Both entry points share it: an
/// aborted bounded probe memoizes nothing, and a hit is free — it is served
/// as the same `Arc` even under a budget of zero.
#[test]
fn epoch_memo_is_dropped_on_publish() {
    let (g, dk, _) = serve_fixture();
    let server = DkServer::start(
        g,
        dk,
        ServeConfig {
            max_batch: 1,
            ..ServeConfig::default()
        },
    );
    let q = parse("l1.l2").unwrap();

    let e0 = server.handle().epoch();
    for _ in 0..2 {
        e0.evaluate_bounded(&q, 0).expect_err("no budget, no answer — and no memo entry");
    }
    let first = e0.evaluate(&q);
    let memoized = e0.evaluate_bounded(&q, 0).expect("a memo hit costs no visits");
    assert!(std::sync::Arc::ptr_eq(&first, &memoized), "same epoch must replay the memo");

    // A structural update that changes the answer of `q` on the new epoch.
    let l1 = evaluate_on_data(e0.data(), &parse("l1").unwrap()).0;
    let l2 = evaluate_on_data(e0.data(), &parse("ROOT.l2").unwrap()).0;
    let (from, to) = (l1[0], l2[0]);
    server.submit(ServeOp::AddEdge { from, to }).unwrap();
    server.flush().unwrap();

    let e1 = server.handle().epoch();
    assert!(e1.id() > e0.id());
    // The old epoch still answers from its own (consistent) world...
    assert_eq!(e0.evaluate(&q), first);
    // ...while the new epoch evaluates fresh against the updated graph.
    assert_eq!(e1.evaluate(&q).matches, evaluate_on_data(e1.data(), &q).0);
    let (final_dk, final_g) = server.shutdown().unwrap();
    check_structure(final_dk.index(), &final_g).unwrap();
}

/// The served miss path against the oracle at every budget. Misses on one
/// thread share its arena, so the sweep alternates between an epoch over a
/// small graph and one over a larger graph: a warm arena serves the smaller
/// graph and the reverse, and every abort leaves the arena dirty for the
/// next miss. Each `limit` below the oracle's total aborts having charged
/// exactly `limit` (an abort memoizes nothing, so every limit is a miss),
/// and `limit == total` returns the oracle's outcome.
#[test]
fn served_budget_sweep_matches_the_oracle_across_graphs() {
    use dkindex_core::eval_oracle;
    use dkindex_pathexpr::LabelIndex;

    let epochs: Vec<_> = [(60usize, 0x5A11u64), (150, 0xB166)]
        .into_iter()
        .map(|(nodes, seed)| {
            let g = random_graph(&RandomGraphConfig {
                nodes,
                labels: 4,
                reference_edges: nodes / 10,
                max_fanout: 5,
                seed,
            });
            let dk = DkIndex::build(&g, Requirements::uniform(1));
            let server = DkServer::start(g, dk, ServeConfig::default());
            let epoch = server.handle().epoch();
            server.shutdown().unwrap();
            epoch
        })
        .collect();
    // Sound at k = 1, validating at length 2 and 3, and unbounded.
    let queries = ["l0.l1", "l1.l2.l3", "l0.l2.l1.l3", "_*.l2", "l3"];
    let mut cases = Vec::new();
    for epoch in &epochs {
        let labels = LabelIndex::build(epoch.index().index());
        for query in queries {
            let q = parse(query).unwrap();
            let want = eval_oracle::evaluate(epoch.index().index(), epoch.data(), &labels, &q);
            cases.push((epoch, query, q, want));
        }
    }
    assert!(cases.iter().any(|(.., want)| want.validated));
    assert!(cases.iter().any(|(.., want)| !want.validated && want.cost.total() > 0));

    let longest = cases.iter().map(|(.., want)| want.cost.total()).max().unwrap();
    for limit in 0..=longest {
        for (epoch, query, q, want) in &cases {
            let total = want.cost.total();
            if limit < total {
                let aborted = epoch
                    .evaluate_bounded(q, limit)
                    .expect_err("a budget below the query's cost must abort");
                assert_eq!(aborted.budget, limit, "{query}");
                assert_eq!(aborted.cost.total(), limit, "{query} limit {limit}");
            } else if limit == total {
                let out = epoch.evaluate_bounded(q, limit).expect("the exact cost suffices");
                assert_eq!(*out, *want, "{query} on epoch over {} nodes", epoch.data().node_count());
            }
        }
    }
}

/// Regression for the typed serve-error surface (was: panics): after the
/// maintenance thread exits, `submit`/`flush` return
/// `ServeError::MaintenanceGone` and `shutdown` still hands back the final
/// state the thread produced before exiting — no unwraps anywhere.
#[test]
fn dead_maintenance_thread_surfaces_typed_errors() {
    use dkindex_core::ServeError;

    let mut g = DataGraph::new();
    let a = g.add_labeled_node("a");
    let r = g.root();
    g.add_edge(r, a, dkindex_graph::EdgeKind::Tree);
    let dk = DkIndex::build(&g, Requirements::uniform(1));
    let server = DkServer::start(g, dk, ServeConfig::default());

    server.stop_maintenance_for_tests();
    // The maintenance thread drains the stop message asynchronously; the
    // typed error must appear once it is gone, within a bounded wait.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        match server.submit(ServeOp::PromoteToRequirements) {
            Err(ServeError::MaintenanceGone) => break,
            Err(other) => panic!("unexpected serve error: {other:?}"),
            Ok(()) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "maintenance thread never exited"
                );
                std::thread::yield_now();
            }
        }
    }
    assert_eq!(server.flush(), Err(ServeError::MaintenanceGone));
    // Readers keep answering from the last published epoch.
    let epoch = server.handle().epoch();
    assert_eq!(epoch.id(), 0);
    // Shutdown still reclaims the state the thread returned on exit.
    let (final_dk, final_g) = server.shutdown().expect("thread exited cleanly, not by panic");
    check_structure(final_dk.index(), &final_g).unwrap();
}

// ---- WAL-poisoning contract (regressions) --------------------------------

/// Regression: `flush()` used to ack `Ok(epoch_id)` even after a failed
/// group commit had poisoned the server and dropped batches unapplied —
/// violating its "every previously submitted op has been applied" contract.
/// With the first group commit failing, a flush after the doomed submit must
/// surface `WalFailed`, not pretend the drain succeeded.
#[test]
fn poisoned_server_fails_flush_with_typed_error() {
    use dkindex_core::ServeError;

    let (g, dk, ops) = serve_fixture();
    // Sync 0 is the WAL header; sync 1 — the first group commit — fails.
    let disk = SharedDisk::new(FailPlan {
        fail_sync_at: Some(1),
        torn_write_at: None,
    });
    let writer = WalWriter::with_store(disk.clone()).expect("header sync is sync 0");
    let server = DkServer::start_logged(
        g,
        dk,
        ServeConfig {
            max_batch: 4,
            ..ServeConfig::default()
        },
        Box::new(writer),
    );

    // Accepted (the server is not yet poisoned), then dropped when the
    // batch's group commit fails.
    server.submit(ops[0].clone()).unwrap();
    assert_eq!(server.flush(), Err(ServeError::WalFailed));
    // Poisoning is sticky: the fsyncgate rule forbids retrying, so every
    // later flush keeps reporting the loss.
    assert_eq!(server.flush(), Err(ServeError::WalFailed));
    let (final_dk, final_g) = server.shutdown().unwrap();
    check_structure(final_dk.index(), &final_g).unwrap();
}

/// Regression: plain `submit()` ops accepted after WAL poisoning vanished
/// silently — they queued, were dropped with their batch, and nothing told
/// the un-acked submitter. Now the poisoned flag is shared: `submit`,
/// `submit_logged`, and every `Submitter` clone fast-fail with `WalFailed`,
/// and the recovered log holds exactly the committed prefix.
#[test]
fn poisoned_server_fast_fails_submits_and_recovers_committed_prefix() {
    use dkindex_core::ServeError;

    let (g, dk, ops) = serve_fixture();
    // Sync 0: header. Sync 1: first group commit succeeds. Sync 2: second
    // group commit fails, poisoning the server.
    let disk = SharedDisk::new(FailPlan {
        fail_sync_at: Some(2),
        torn_write_at: None,
    });
    let writer = WalWriter::with_store(disk.clone()).expect("header sync is sync 0");
    let server = DkServer::start_logged(
        g.clone(),
        dk.clone(),
        ServeConfig {
            max_batch: 1,
            ..ServeConfig::default()
        },
        Box::new(writer),
    );
    let submitter = server.submitter();

    // Batch 1 commits durably.
    let epoch = server
        .submit_logged(ops[0].clone())
        .unwrap()
        .wait()
        .expect("first group commit succeeds");
    assert_eq!(epoch, 1);
    // Batch 2 hits the failed fsync; waiting for its ack observes the
    // poisoning synchronously.
    assert_eq!(
        server.submit_logged(ops[1].clone()).unwrap().wait(),
        Err(ServeError::WalFailed)
    );

    // Every submission path now fast-fails instead of enqueueing doomed ops.
    assert_eq!(server.submit(ops[2].clone()), Err(ServeError::WalFailed));
    assert!(matches!(
        server.submit_logged(ops[2].clone()),
        Err(ServeError::WalFailed)
    ));
    assert_eq!(submitter.submit(ops[2].clone()), Err(ServeError::WalFailed));
    assert!(matches!(
        submitter.submit_logged(ops[2].clone()),
        Err(ServeError::WalFailed)
    ));
    assert_eq!(server.flush(), Err(ServeError::WalFailed));

    let (final_dk, final_g) = server.shutdown().unwrap();

    // The recovered log holds exactly the one committed op, and replaying
    // that prefix reproduces the final in-memory state byte for byte.
    let durable = disk.view(|d| d.crash_view(0));
    let (records, _tail) = wal::decode_wal(&durable).unwrap();
    assert_eq!(
        records.len(),
        1,
        "only the first batch's op reached stable storage"
    );
    let mut replay_dk = dk.clone();
    let mut replay_g = g.clone();
    wal::replay(&mut replay_dk, &mut replay_g, &durable).unwrap();
    assert_eq!(
        snapshot_bytes(&replay_dk, &replay_g),
        snapshot_bytes(&final_dk, &final_g),
        "in-memory state must equal the replay of the committed WAL prefix"
    );
}

// ---- live tuning in the serve loop ---------------------------------------

/// Build a fixture whose query load is deep enough to out-require the
/// built index (uniform 1), so a harvested window plans a promotion.
fn tuning_fixture() -> (DataGraph, DkIndex) {
    let g = random_graph(&RandomGraphConfig {
        nodes: 220,
        labels: 5,
        reference_edges: 24,
        max_fanout: 6,
        seed: 0xD5EE,
    });
    let dk = DkIndex::build(&g, Requirements::uniform(1));
    (g, dk)
}

/// Start a live-tuned server over an in-memory WAL. A logged server
/// group-commits every op it applies, tuner ops included, so its log is the
/// record of the run.
fn start_tuned(g: &DataGraph, dk: &DkIndex, config: ServeConfig) -> (DkServer, SharedDisk) {
    let disk = SharedDisk::new(FailPlan::none());
    let writer = WalWriter::with_store(disk.clone()).unwrap();
    let server = DkServer::start_logged(g.clone(), dk.clone(), config, Box::new(writer));
    (server, disk)
}

/// A logged run's final state equals both `apply_serial` over the ops its
/// WAL committed and `wal::replay` of the log itself, byte for byte.
/// Returns the committed ops.
fn assert_log_reproduces(
    (g, dk): (&DataGraph, &DkIndex),
    disk: &SharedDisk,
    (final_dk, final_g): (&DkIndex, &DataGraph),
) -> Vec<ServeOp> {
    let expected = snapshot_bytes(final_dk, final_g);
    let log = disk.view(|d| d.crash_view(0));
    let (ops, _tail) = wal::decode_wal(&log).unwrap();
    let (mut serial_dk, mut serial_g) = (dk.clone(), g.clone());
    apply_serial(&mut serial_dk, &mut serial_g, &ops);
    assert_eq!(
        snapshot_bytes(&serial_dk, &serial_g),
        expected,
        "live-tuned serve diverged from serial replay of its committed ops"
    );
    let (mut replay_dk, mut replay_g) = (dk.clone(), g.clone());
    wal::replay(&mut replay_dk, &mut replay_g, &log).unwrap();
    assert_eq!(
        snapshot_bytes(&replay_dk, &replay_g),
        expected,
        "WAL replay must reproduce the live-tuned final state"
    );
    ops
}

fn is_tuner_op(op: &ServeOp) -> bool {
    matches!(op, ServeOp::SetRequirements(_))
}

/// Live tuning, end to end: readers feed the tuner, the maintenance thread
/// steps it on cadence and self-enqueues a promotion, which group-commits
/// like a client op. The final state is what the log replays to, serially
/// and through recovery.
#[test]
fn live_tuning_promotes_under_deep_load_and_replays_from_its_log() {
    let (g, dk) = tuning_fixture();
    let (server, disk) = start_tuned(
        &g,
        &dk,
        ServeConfig {
            max_batch: 4,
            tune_interval: 1,
            tuner: TunerConfig { window: 4, min_support: 2 },
        },
    );
    let handle = server.handle();
    let deep = parse("l0.l1.l2.l3").unwrap();
    for _ in 0..8 {
        let _ = handle.evaluate(&deep);
    }

    // One durable update publishes a batch; the tuning pass rides the
    // publish and self-enqueues its op, which the flushes then drain.
    let (from, to) = generate_update_edges(&g, 1, 7)[0];
    server
        .submit_logged(ServeOp::AddEdge { from, to })
        .unwrap()
        .wait()
        .unwrap();
    server.flush().unwrap();
    server.flush().unwrap();

    let stats = handle.tuning_stats().expect("tuning is enabled");
    assert!(stats.windows >= 1, "the 8-query window must have harvested");
    assert!(stats.promotions >= 1, "deep load must plan a promotion");
    let (final_dk, final_g) = server.shutdown().unwrap();
    assert!(
        final_dk.requirements().get("l3") >= 3,
        "length-4 queries ending in l3 must have raised its requirement"
    );
    let logged = assert_log_reproduces((&g, &dk), &disk, (&final_dk, &final_g));
    assert!(
        matches!(logged[..], [ServeOp::AddEdge { .. }, ServeOp::SetRequirements(_)]),
        "the log must hold the edge update, then the tuner's promotion: {logged:?}"
    );
}

/// N reader threads race the tuning maintenance loop; whatever interleaving
/// the run took, its log replays to the same snapshot bytes — the
/// determinism oracle holds with live tuning in the loop.
#[test]
fn threaded_live_tuning_matches_serial_replay_of_logged_ops() {
    let (g, dk) = tuning_fixture();
    for readers in [2usize, 4] {
        let (server, disk) = start_tuned(
            &g,
            &dk,
            ServeConfig {
                max_batch: 2,
                tune_interval: 1,
                tuner: TunerConfig { window: 4, min_support: 2 },
            },
        );
        let edges = generate_update_edges(&g, 6, 11);
        std::thread::scope(|s| {
            for r in 0..readers {
                let handle = server.handle();
                s.spawn(move || {
                    let queries = ["l0.l1.l2.l3", "l1.l2.l3", "l0.l1"];
                    for round in 0..40 {
                        let q = parse(queries[(r + round) % queries.len()]).unwrap();
                        let _ = handle.evaluate(&q);
                    }
                });
            }
            for &(from, to) in &edges {
                server.submit(ServeOp::AddEdge { from, to }).unwrap();
                server.flush().unwrap();
            }
        });
        // Drain any tuning op the last publish enqueued.
        server.flush().unwrap();
        let (final_dk, final_g) = server.shutdown().unwrap();
        let logged = assert_log_reproduces((&g, &dk), &disk, (&final_dk, &final_g));
        assert!(logged.len() >= edges.len(), "{readers} readers: every edge is logged");
    }
}

/// One tuner, two drivers: identical windows fed to a hand-stepped
/// [`Tuner`] whose ops go through `apply_serial`, and to a tuned `DkServer`
/// that steps the same type from its maintenance loop, must plan the same
/// op sequence and end on the same bytes. Covers a promotion, a held
/// window, a demotion, and a window that only fills by merging two
/// harvests.
#[test]
fn hand_stepped_tuner_matches_the_serve_loop_op_for_op() {
    let (g, _) = tuning_fixture();
    let dk = DkIndex::build(&g, Requirements::new());
    let config = TunerConfig { window: 4, min_support: 2 };
    let rounds: [(&str, usize); 6] = [
        ("l0.l1.l2.l3", 8), // l3 rises to 3
        ("l1.l2", 8),       // l2 rises to 1, l3 unobserved and kept
        ("l1.l2", 8),       // covered: hold
        ("l3", 8),          // l3 observed shallow: demote
        ("l0.l1", 3),       // below the window: stays pending
        ("l0.l1", 3),       // merged harvests clear it: l1 rises to 1
    ];
    let edges = generate_update_edges(&g, rounds.len(), 13);

    // By hand: evaluate + record, apply the round's update, step, apply.
    let (mut hand_dk, mut hand_g) = (dk.clone(), g.clone());
    let tuner = Tuner::new(hand_g.labels_shared(), config);
    let mut hand_ops = Vec::new();
    let mut lowered = Vec::new();
    for (&(query, times), &(from, to)) in rounds.iter().zip(&edges) {
        let q = parse(query).unwrap();
        let validated = IndexEvaluator::new(hand_dk.index(), &hand_g).evaluate(&q).validated;
        for _ in 0..times {
            tuner.record(&q, validated);
        }
        apply_serial(&mut hand_dk, &mut hand_g, &[ServeOp::AddEdge { from, to }]);
        let current = hand_dk.requirements().clone();
        if let Some(op) = tuner.step(&current) {
            apply_serial(&mut hand_dk, &mut hand_g, std::slice::from_ref(&op));
            lowered.push(lowers(&current, hand_dk.requirements()));
            hand_ops.push(op);
        }
    }
    // Every tuner op is a retarget; its direction is in the requirements.
    assert!(hand_ops.iter().all(is_tuner_op), "{hand_ops:?}");
    assert_eq!(
        lowered,
        [false, false, true, false],
        "the rounds must exercise promote, hold, demote and a merged window: {hand_ops:?}"
    );
    assert_eq!((tuner.stats().promotions, tuner.stats().demotions), (3, 1));

    // Served: the same windows through epoch readers, the update forcing
    // the publish the tuning step rides, a second flush draining its op.
    let (server, disk) = start_tuned(
        &g,
        &dk,
        ServeConfig {
            tune_interval: 1,
            tuner: config,
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();
    for (&(query, times), &(from, to)) in rounds.iter().zip(&edges) {
        let q = parse(query).unwrap();
        for _ in 0..times {
            let _ = handle.evaluate(&q);
        }
        server.submit(ServeOp::AddEdge { from, to }).unwrap();
        server.flush().unwrap();
        server.flush().unwrap();
    }
    let stats = handle.tuning_stats().expect("tuning is enabled");
    let (final_dk, final_g) = server.shutdown().unwrap();
    let served_ops: Vec<ServeOp> = assert_log_reproduces((&g, &dk), &disk, (&final_dk, &final_g))
        .into_iter()
        .filter(is_tuner_op)
        .collect();

    assert_eq!(served_ops, hand_ops, "the serve loop planned a different tuner-op sequence");
    assert_eq!(stats, tuner.stats(), "both drivers count the same windows and plans");
    assert_eq!(
        snapshot_bytes(&final_dk, &final_g),
        snapshot_bytes(&hand_dk, &hand_g),
        "hand-stepped and served tuning ended on different bytes"
    );
}
