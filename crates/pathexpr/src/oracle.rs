//! The independent oracle for [`crate::eval`]: the allocator-per-call
//! product-BFS walks the arena evaluator replaced, kept verbatim as the
//! reference every fast-path result is compared against (matches *and*
//! visit counts, byte for byte).
//!
//! Independence is the point. These walks share no scratch state, budget,
//! precomputed closure table or telemetry hook with the evaluator they
//! certify — they recompute ε-closures from `Nfa::closures` and dedup in
//! fresh `Vec<bool>` / `HashSet` storage — and the oracle table in
//! `tests/contracts.rs` keeps it that way (ARCHITECTURE.md §6). The index
//! hand-off is stated once more here too: which pairs hand off is decided
//! by subset simulation over boolean state sets, not by the automaton's
//! precomputed word lengths, and verdicts go to a per-query `HashMap`.

use crate::eval::{EvalOutcome, LabelIndex};
use crate::nfa::{Nfa, StateId, Step};
use dkindex_graph::{LabeledGraph, NodeId};
use std::collections::HashMap;

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
    walk_back(g, reversed, Start::Candidate(node), &mut |_, _| None)
}

/// The index side of the reference hand-off, for one query: the index
/// graph, its reversed automaton, each data node's block and each block's
/// similarity, and this query's verdicts.
pub struct IndexSide<'a, I> {
    index: &'a I,
    reversed: Nfa,
    block_of: &'a dyn Fn(NodeId) -> NodeId,
    similarity: &'a dyn Fn(NodeId) -> usize,
    verdicts: HashMap<(NodeId, StateId), bool>,
    within: HashMap<(StateId, usize), bool>,
    /// Index activations charged by this query's hand-offs.
    pub index_visits: u64,
}

impl<'a, I: LabeledGraph> IndexSide<'a, I> {
    /// One query's index side: `reversed` is the query compiled against
    /// `index`'s labels and reversed.
    pub fn new(
        index: &'a I,
        reversed: Nfa,
        block_of: &'a dyn Fn(NodeId) -> NodeId,
        similarity: &'a dyn Fn(NodeId) -> usize,
    ) -> Self {
        IndexSide {
            index,
            reversed,
            block_of,
            similarity,
            verdicts: HashMap::new(),
            within: HashMap::new(),
            index_visits: 0,
        }
    }
}

/// Reference validation with the index hand-off (paper Theorem 1): the
/// walk of [`matches_ending_at`], except that a pair `(t, p)` whose
/// remaining words from `t` all have at most `k(B(p))` labels — and at
/// least one exists — is answered by a walk on the index graph from
/// `(t, B(p))`, once per `(B(p), t)` per query. Returns the verdict and the
/// data activations; the index ones go to `side.index_visits`.
pub fn matches_ending_at_with_index<G: LabeledGraph, I: LabeledGraph>(
    g: &G,
    reversed: &Nfa,
    node: NodeId,
    side: &mut IndexSide<'_, I>,
) -> (bool, u64) {
    let mut ask = |state: StateId, n: NodeId| {
        let block = (side.block_of)(n);
        let k = (side.similarity)(block);
        let within = *side
            .within
            .entry((state, k))
            .or_insert_with(|| words_within(reversed, state, k));
        if !within {
            return None;
        }
        if let Some(&known) = side.verdicts.get(&(block, state)) {
            return Some(known);
        }
        let (hit, visited) = walk_back(side.index, &side.reversed, Start::At(state, block), &mut |_, _| None);
        side.index_visits += visited;
        side.verdicts.insert((block, state), hit);
        Some(hit)
    };
    walk_back(g, reversed, Start::Candidate(node), &mut ask)
}

/// Does `state` accept some word, and only words of at most `k` labels?
/// Subset simulation over boolean state sets, label-blind (every
/// transition consumes some label): with `n` states, a longest word is
/// under `n` labels unless there are infinitely many, and then some word
/// has between `n` and `2n - 1`; likewise a word over `k` labels implies
/// one of `k + 1` to `k + n`. So the sets for lengths up to
/// `min(k, n - 1) + n` decide it.
fn words_within(reversed: &Nfa, state: StateId, k: usize) -> bool {
    let n = reversed.state_count();
    let k = k.min(n - 1);
    let accept = reversed.accept().index();
    let mut cur = vec![false; n];
    cur[state.index()] = true;
    reversed.eps_close(&mut cur);
    let mut some = cur[accept];
    for len in 1..=k + n {
        let mut next = vec![false; n];
        for (s, &on) in cur.iter().enumerate() {
            if on {
                for &(_, t) in reversed.steps_of(StateId::from_index(s)) {
                    next[t.index()] = true;
                }
            }
        }
        reversed.eps_close(&mut next);
        if next[accept] {
            if len > k {
                return false;
            }
            some = true;
        }
        cur = next;
    }
    some
}

/// Where a reference backward walk starts.
enum Start {
    /// Consume the candidate's own label from the reversed start.
    Candidate(NodeId),
    /// At the pair, its label already consumed.
    At(StateId, NodeId),
}

/// The reference backward walk from `start`. `ask` is consulted at every
/// new pair that does not accept: `Some(verdict)` stops there (a "no" is
/// not expanded), `None` expands it.
fn walk_back<G: LabeledGraph>(
    g: &G,
    reversed: &Nfa,
    start: Start,
    ask: &mut dyn FnMut(StateId, NodeId) -> Option<bool>,
) -> (bool, u64) {
    let states = reversed.state_count();
    let closures = reversed.closures();
    let accept = reversed.accept();

    let mut active: std::collections::HashSet<(StateId, NodeId)> = std::collections::HashSet::new();
    let mut queue: Vec<(StateId, NodeId)> = Vec::new();
    let mut visited: u64 = 0;

    let mut first: Vec<(StateId, NodeId)> = Vec::new();
    match start {
        Start::Candidate(node) => {
            let mut start_set = vec![false; states];
            start_set[reversed.start().index()] = true;
            reversed.eps_close(&mut start_set);
            let node_label = g.label_of(node);
            for (s, &on) in start_set.iter().enumerate() {
                if !on {
                    continue;
                }
                for &(step, target) in reversed.steps_of(StateId::from_index(s)) {
                    if step.matches(node_label) {
                        first.push((target, node));
                    }
                }
            }
        }
        Start::At(state, node) => first.push((state, node)),
    }
    for (target, node) in first {
        if active.insert((target, node)) {
            visited += 1;
            if closures[target.index()].contains(&accept) {
                return (true, visited);
            }
            match ask(target, node) {
                Some(true) => return (true, visited),
                Some(false) => {}
                None => queue.push((target, node)),
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
                        match ask(target, parent) {
                            Some(true) => return (true, visited),
                            Some(false) => {}
                            None => queue.push((target, parent)),
                        }
                    }
                }
            }
        }
    }
    (false, visited)
}
