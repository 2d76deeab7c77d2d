//! Long mixed update streams: interleaved edge additions, subgraph
//! insertions, promotions and demotions must preserve every invariant and
//! keep query answers exact throughout — the paper's §5 lifecycle under
//! sustained load.

use dkindex::core::{
    check_structure, evaluate_on_data, AkIndex, DkIndex, IndexEvaluator, Requirements,
};
use dkindex::datagen::{random_graph, xmark_graph, RandomGraphConfig, XmarkConfig};
use dkindex::graph::{DataGraph, LabeledGraph};
use dkindex::workload::{generate_test_paths, generate_update_edges, WorkloadConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn assert_exact(dk: &DkIndex, data: &DataGraph, seed: u64) {
    let workload = generate_test_paths(
        data,
        &WorkloadConfig {
            count: 20,
            seed,
            ..WorkloadConfig::default()
        },
    );
    let mut evaluator = IndexEvaluator::new(dk.index(), data);
    for q in workload.queries() {
        let truth = evaluate_on_data(data, q).0;
        let out = evaluator.evaluate(q);
        assert_eq!(out.matches, truth, "wrong answer for {q}");
    }
}

#[test]
fn interleaved_lifecycle_stays_consistent() {
    let mut data = xmark_graph(&XmarkConfig::tiny());
    let workload = generate_test_paths(&data, &WorkloadConfig::default());
    let reqs = workload.mine_requirements();
    let mut dk = DkIndex::build(&data, reqs.clone());
    let mut rng = StdRng::seed_from_u64(99);

    for round in 0..6 {
        match round % 3 {
            0 => {
                // A burst of edge additions.
                for (u, v) in generate_update_edges(&data, 10, rng.gen()) {
                    dk.add_edge(&mut data, u, v);
                }
            }
            1 => {
                // A new document arrives.
                let sub = random_graph(&RandomGraphConfig {
                    nodes: 30,
                    labels: 4,
                    reference_edges: 5,
                    max_fanout: 5,
                    seed: rng.gen(),
                });
                dk.add_subgraph(&mut data, &sub);
            }
            _ => {
                // Periodic tuning.
                dk.promote_to_requirements(&data);
            }
        }
        check_structure(dk.index(), &data).unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_exact(&dk, &data, round as u64);
    }

    // Finally demote to a small index and verify once more.
    dk.demote(Requirements::uniform(1));
    check_structure(dk.index(), &data).unwrap();
    assert_exact(&dk, &data, 77);
}

#[test]
fn edge_update_stream_keeps_size_constant() {
    let mut data = xmark_graph(&XmarkConfig::tiny());
    let workload = generate_test_paths(&data, &WorkloadConfig::default());
    let mut dk = DkIndex::build(&data, workload.mine_requirements());
    let size = dk.size();
    for (u, v) in generate_update_edges(&data, 50, 123) {
        dk.add_edge(&mut data, u, v);
        assert_eq!(dk.size(), size, "edge updates must not change index size");
    }
    check_structure(dk.index(), &data).unwrap();
    assert_exact(&dk, &data, 5);
}

#[test]
fn promote_after_stream_removes_validation_for_mined_load() {
    let mut data = xmark_graph(&XmarkConfig::tiny());
    let workload = generate_test_paths(&data, &WorkloadConfig::default());
    let mut dk = DkIndex::build(&data, workload.mine_requirements());
    for (u, v) in generate_update_edges(&data, 40, 7) {
        dk.add_edge(&mut data, u, v);
    }
    dk.promote_to_requirements(&data);
    let mut evaluator = IndexEvaluator::new(dk.index(), &data);
    for q in workload.queries() {
        let out = evaluator.evaluate(q);
        assert!(!out.validated, "still validating {q} after promotion");
        assert_eq!(out.matches, evaluate_on_data(&data, q).0);
    }
}

#[test]
fn ak_and_dk_agree_after_the_same_update_stream() {
    let base = xmark_graph(&XmarkConfig::tiny());
    let edges = generate_update_edges(&base, 30, 55);

    let mut g_ak = base.clone();
    let mut ak = AkIndex::build(&g_ak, 2);
    for &(u, v) in &edges {
        ak.add_edge(&mut g_ak, u, v);
    }
    check_structure(ak.index(), &g_ak).unwrap();

    let mut g_dk = base.clone();
    let mut dk = DkIndex::build(&g_dk, Requirements::uniform(2));
    for &(u, v) in &edges {
        dk.add_edge(&mut g_dk, u, v);
    }
    check_structure(dk.index(), &g_dk).unwrap();

    let workload = generate_test_paths(&g_ak, &WorkloadConfig::default());
    for q in workload.queries() {
        let truth = evaluate_on_data(&g_ak, q).0;
        let ak_out = IndexEvaluator::new(ak.index(), &g_ak).evaluate(q);
        let dk_out = IndexEvaluator::new(dk.index(), &g_dk).evaluate(q);
        assert_eq!(ak_out.matches, truth, "A(2) wrong on {q}");
        assert_eq!(dk_out.matches, truth, "D(k) wrong on {q}");
    }
}

#[test]
fn subgraph_addition_stream_matches_rebuild() {
    let mut data = xmark_graph(&XmarkConfig::tiny());
    let reqs = Requirements::from_pairs([("title", 2), ("name", 1)]);
    let mut dk = DkIndex::build(&data, reqs.clone());
    let mut reference = data.clone();

    for seed in 0..4u64 {
        let sub = random_graph(&RandomGraphConfig {
            nodes: 20,
            labels: 3,
            reference_edges: 3,
            max_fanout: 4,
            seed,
        });
        dk.add_subgraph(&mut data, &sub);
        reference.graft_under_root(&sub);
    }
    let fresh = DkIndex::build(&reference, reqs);
    assert_eq!(data.node_count(), reference.node_count());
    assert_eq!(dk.size(), fresh.size(), "incremental and rebuilt sizes differ");
    assert!(dk
        .index()
        .to_partition()
        .same_equivalence(&fresh.index().to_partition()));
}
