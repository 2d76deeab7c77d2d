//! The independent oracle for [`crate::eval`]: the allocator-per-call
//! product-BFS walks the arena evaluator replaced, kept verbatim as the
//! reference every fast-path result is compared against (matches *and*
//! visit counts, byte for byte).
//!
//! Independence is the point. These walks share no scratch state, budget,
//! precomputed closure table or telemetry hook with the evaluator they
//! certify — they recompute ε-closures from [`Nfa::closures`] and dedup in
//! fresh `Vec<bool>` / `HashSet` storage — and the oracle table in
//! `tests/contracts.rs` keeps it that way (ARCHITECTURE.md §6).

use crate::eval::{EvalOutcome, LabelIndex};
use crate::nfa::{Nfa, StateId, Step};
use dkindex_graph::{LabeledGraph, NodeId};

/// Reference forward evaluation: partial-match product BFS with fresh
/// scratch per call. [`crate::eval::evaluate`] must return exactly this
/// outcome.
pub fn evaluate<G: LabeledGraph>(
    g: &G,
    nfa: &Nfa,
    label_index: &LabelIndex,
) -> EvalOutcome {
    let states = nfa.state_count();
    let nodes = g.node_count();
    let closures = nfa.closures();

    let mut active = vec![false; states * nodes];
    let mut matched = vec![false; nodes];
    let mut visited: u64 = 0;
    let mut queue: Vec<(StateId, NodeId)> = Vec::new();

    let accept = nfa.accept();
    let activate = |state: StateId,
                        node: NodeId,
                        active: &mut Vec<bool>,
                        matched: &mut Vec<bool>,
                        queue: &mut Vec<(StateId, NodeId)>,
                        visited: &mut u64| {
        let slot = state.index() * nodes + node.index();
        if active[slot] {
            return;
        }
        active[slot] = true;
        *visited += 1;
        if closures[state.index()].contains(&accept) {
            matched[node.index()] = true;
        }
        queue.push((state, node));
    };

    let mut start_set = vec![false; states];
    start_set[nfa.start().index()] = true;
    nfa.eps_close(&mut start_set);
    for (s, &on) in start_set.iter().enumerate() {
        if !on {
            continue;
        }
        for &(step, target) in nfa.steps_of(StateId::from_index(s)) {
            match step {
                Step::Label(l) => {
                    for &n in label_index.nodes_with(l) {
                        activate(target, n, &mut active, &mut matched, &mut queue, &mut visited);
                    }
                }
                Step::Any => {
                    for n in label_index.all_nodes() {
                        activate(target, n, &mut active, &mut matched, &mut queue, &mut visited);
                    }
                }
            }
        }
    }

    let mut head = 0;
    while head < queue.len() {
        let (state, node) = queue[head];
        head += 1;
        for &q in &closures[state.index()] {
            for &(step, target) in nfa.steps_of(q) {
                for &child in g.children_of(node) {
                    if step.matches(g.label_of(child)) {
                        activate(
                            target,
                            child,
                            &mut active,
                            &mut matched,
                            &mut queue,
                            &mut visited,
                        );
                    }
                }
            }
        }
    }

    let matches = matched
        .iter()
        .enumerate()
        .filter(|&(_, &m)| m)
        .map(|(i, _)| NodeId::from_index(i))
        .collect();
    EvalOutcome { matches, visited }
}

/// Reference backward validation walk (`HashSet` dedup, fresh allocations
/// per call). [`crate::eval::matches_ending_at`] must return exactly this
/// verdict and visit count.
pub fn matches_ending_at<G: LabeledGraph>(
    g: &G,
    reversed: &Nfa,
    node: NodeId,
) -> (bool, u64) {
    let states = reversed.state_count();
    let closures = reversed.closures();
    let accept = reversed.accept();

    let mut active: std::collections::HashSet<(StateId, NodeId)> = std::collections::HashSet::new();
    let mut queue: Vec<(StateId, NodeId)> = Vec::new();
    let mut visited: u64 = 0;

    let mut start_set = vec![false; states];
    start_set[reversed.start().index()] = true;
    reversed.eps_close(&mut start_set);
    let node_label = g.label_of(node);
    for (s, &on) in start_set.iter().enumerate() {
        if !on {
            continue;
        }
        for &(step, target) in reversed.steps_of(StateId::from_index(s)) {
            if step.matches(node_label) && active.insert((target, node)) {
                visited += 1;
                if closures[target.index()].contains(&accept) {
                    return (true, visited);
                }
                queue.push((target, node));
            }
        }
    }

    let mut head = 0;
    while head < queue.len() {
        let (state, n) = queue[head];
        head += 1;
        for &q in &closures[state.index()] {
            for &(step, target) in reversed.steps_of(q) {
                for &parent in g.parents_of(n) {
                    if step.matches(g.label_of(parent)) && active.insert((target, parent)) {
                        visited += 1;
                        if closures[target.index()].contains(&accept) {
                            return (true, visited);
                        }
                        queue.push((target, parent));
                    }
                }
            }
        }
    }
    (false, visited)
}
