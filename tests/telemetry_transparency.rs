//! Telemetry transparency: the recorder must add **no observable change** to
//! any result the library produces.
//!
//! Every instrumented fast path is run three ways — recorder off, recorder
//! on, and recorder off again — and compared against the retained PR 1
//! reference oracles ([`pathexpr::oracle`], [`partition::k_bisimulation`],
//! `core::dk::dk_partition_reference`, [`core::eval_oracle`]): same matches,
//! same visit counts, same partition identity, byte for byte.
//!
//! The recorder is process-global, so every test takes [`lock`] before
//! toggling it (the test harness runs tests on parallel threads).

use dkindex::core::dk::{dk_partition, dk_partition_reference};
use dkindex::core::{eval_oracle, DkIndex, IndexEvaluator, Requirements};
use dkindex::datagen::{xmark_graph, XmarkConfig};
use dkindex::graph::{DataGraph, LabeledGraph};
use dkindex::partition::{k_bisimulation, RefineEngine};
use dkindex::pathexpr::{
    evaluate, evaluate_bounded_with, matches_ending_at, matches_ending_at_bounded_with, oracle,
    EvalArena, LabelIndex, Nfa, VisitBudget,
};
use dkindex::telemetry;
use dkindex::workload::{generate_test_paths, WorkloadConfig};
use std::sync::{Mutex, MutexGuard, OnceLock};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn data() -> DataGraph {
    xmark_graph(&XmarkConfig::tiny())
}

/// Run `f` with the recorder off, then on, then off again, asserting all
/// three results are equal; returns the recorder-off result.
fn run_in_all_recorder_states<T: PartialEq + std::fmt::Debug>(mut f: impl FnMut() -> T) -> T {
    telemetry::disable();
    let off = f();
    telemetry::reset();
    telemetry::enable();
    let on = f();
    telemetry::disable();
    let off_again = f();
    assert_eq!(off, on, "recorder on changed the result");
    assert_eq!(off, off_again, "recorder left residual state");
    off
}

#[test]
fn pathexpr_evaluation_is_unchanged_by_recorder() {
    let _guard = lock();
    let g = data();
    let idx = LabelIndex::build(&g);
    let workload = generate_test_paths(
        &g,
        &WorkloadConfig {
            count: 25,
            seed: 11,
            ..WorkloadConfig::default()
        },
    );
    for q in workload.queries() {
        let nfa = Nfa::compile(q, g.labels());
        let fast = run_in_all_recorder_states(|| evaluate(&g, &nfa, &idx));
        assert_eq!(fast, oracle::evaluate(&g, &nfa, &idx), "{q}");

        // Validation walks: compare the instrumented reverse walk too.
        let reversed = nfa.reverse();
        for node in g.node_ids().take(40) {
            let fast = run_in_all_recorder_states(|| matches_ending_at(&g, &reversed, node));
            assert_eq!(fast, oracle::matches_ending_at(&g, &reversed, node), "{q}");
        }
    }
}

#[test]
fn partition_refinement_is_unchanged_by_recorder() {
    let _guard = lock();
    let g = data();
    for k in [0, 1, 3] {
        let fast = run_in_all_recorder_states(|| RefineEngine::new().k_bisimulation(&g, k));
        let oracle = k_bisimulation(&g, k);
        assert_eq!(fast, oracle, "A({k}) partition identity");
    }
}

#[test]
fn dk_construction_is_unchanged_by_recorder() {
    let _guard = lock();
    let g = data();
    let workload = generate_test_paths(
        &g,
        &WorkloadConfig {
            count: 30,
            seed: 5,
            ..WorkloadConfig::default()
        },
    );
    let reqs = workload.mine_requirements();
    let fast = run_in_all_recorder_states(|| dk_partition(&g, &reqs));
    let (oracle_p, oracle_sims) = dk_partition_reference(&g, &reqs, true);
    assert_eq!(fast.0, oracle_p, "D(k) partition identity");
    assert_eq!(fast.1, oracle_sims, "D(k) similarities");
}

#[test]
fn index_evaluation_is_unchanged_by_recorder() {
    let _guard = lock();
    let g = data();
    let workload = generate_test_paths(
        &g,
        &WorkloadConfig {
            count: 30,
            seed: 5,
            ..WorkloadConfig::default()
        },
    );
    let dk = DkIndex::build(&g, workload.mine_requirements());
    let fast = run_in_all_recorder_states(|| {
        IndexEvaluator::new(dk.index(), &g).evaluate_all(workload.queries())
    });
    let labels = LabelIndex::build(dk.index());
    for (q, out) in workload.queries().iter().zip(&fast) {
        assert_eq!(out, &eval_oracle::evaluate(dk.index(), &g, &labels, q), "{q}");
    }
}

#[test]
fn recorder_on_actually_records_the_oracle_checked_work() {
    // Guard against the transparency tests passing vacuously because the
    // hooks were compiled out: the same fast paths must move the counters.
    let _guard = lock();
    let g = data();
    let workload = generate_test_paths(
        &g,
        &WorkloadConfig {
            count: 10,
            seed: 2,
            ..WorkloadConfig::default()
        },
    );
    let reqs = workload.mine_requirements();
    telemetry::reset();
    telemetry::enable();
    let dk = DkIndex::build(&g, reqs);
    // The mined index answers its own workload soundly; the label-split one
    // (no requirements) has to validate it, and the uniform(1) one validates
    // long queries handing off to the index.
    let label_split = DkIndex::build(&g, Requirements::new());
    let uniform = DkIndex::build(&g, Requirements::uniform(1));
    for index in [dk.index(), label_split.index(), uniform.index()] {
        // Twice on one evaluator: the second pass answers queries it has seen.
        let mut evaluator = IndexEvaluator::new(index, &g);
        evaluator.evaluate_all(workload.queries());
        evaluator.evaluate_all(workload.queries());
    }
    telemetry::disable();
    let snap = telemetry::snapshot();
    assert!(snap.counter("dk.constructions").unwrap_or(0) > 0);
    assert!(snap.counter("partition.rounds").unwrap_or(0) > 0);
    assert_eq!(snap.counter("eval.queries"), Some(6 * workload.len() as u64));
    assert!(snap.histogram("eval.visits_per_query").is_some());
    // Every visit an answer is charged for is an activation walked: with
    // no aborts, the work counters and the §6.1 costs add up to one sum.
    let count = |name| snap.counter(name).unwrap_or(0);
    assert!(count("eval.data_visits") > 0, "the workload must validate");
    assert!(count("eval.handoffs") > 0, "and hand some validation off to the index");
    // Every index visit charged is a forward-phase activation or a
    // verdict's charge, one or two per verdict, at most one per hand-off.
    let verdict_visits = count("eval.index_visits") - count("pathexpr.activations");
    assert!((1..=2 * count("eval.handoffs")).contains(&verdict_visits), "{verdict_visits}");
    assert_eq!(
        count("pathexpr.activations") + count("pathexpr.validation_activations"),
        count("eval.index_visits") + count("eval.data_visits")
    );
}

/// Regression: the `pathexpr.*` counters count work done, so a walk that
/// aborts on its budget still records the activations it was charged for.
/// They used to vanish — the abort returned before the recording lines.
#[test]
fn aborted_walks_still_record_their_work() {
    let _guard = lock();
    let g = data();
    let idx = LabelIndex::build(&g);
    let nfa = Nfa::compile(&dkindex::pathexpr::parse("site._*.name").unwrap(), g.labels());
    let reversed = nfa.reverse();
    let full = oracle::evaluate(&g, &nfa, &idx);
    let node = *full.matches.last().expect("the generated document has name nodes");
    let (_, walk_cost) = oracle::matches_ending_at(&g, &reversed, node);
    assert!(full.visited > 1 && walk_cost > 1);

    let mut arena = EvalArena::new();
    let mut forward_budget = VisitBudget::new(full.visited - 1);
    let mut backward_budget = VisitBudget::new(walk_cost - 1);
    telemetry::reset();
    telemetry::enable();
    let forward = evaluate_bounded_with(&g, &nfa, &idx, &mut arena, &mut forward_budget);
    let backward =
        matches_ending_at_bounded_with(&g, &reversed, node, &mut arena, &mut backward_budget);
    telemetry::disable();
    assert!(forward.is_err() && backward.is_err(), "both budgets are one visit short");

    let snap = telemetry::snapshot();
    assert_eq!(snap.counter("pathexpr.evaluations"), Some(1));
    assert_eq!(snap.counter("pathexpr.activations"), Some(full.visited - 1));
    assert_eq!(snap.counter("pathexpr.validation_walks"), Some(1));
    assert_eq!(snap.counter("pathexpr.validation_activations"), Some(walk_cost - 1));
}
