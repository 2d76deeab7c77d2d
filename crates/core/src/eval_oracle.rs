//! The independent oracle for [`crate::eval`]: the paper's index→validate
//! rule (§3/§4.1) and cost model (§6.1) written once more with nothing
//! shared — no evaluator state, no arena, no budget, no telemetry —
//! on top of the reference walks in [`dkindex_pathexpr::oracle`].
//!
//! It is a free function rather than a method so the oracle does not live
//! on the type it certifies; the oracle table in `tests/contracts.rs`
//! forbids this module from naming the evaluator or its fast-path building
//! blocks (ARCHITECTURE.md §6). Tests and `bench::gates` compare every evaluator
//! outcome — matches, both visit counts and the `validated` flag — against
//! it byte for byte.

use crate::eval::{IndexEvalOutcome, QueryCost};
use crate::index_graph::IndexGraph;
use dkindex_graph::{DataGraph, LabeledGraph, NodeId};
use dkindex_pathexpr::{oracle, LabelIndex, Nfa, PathExpr};

/// Evaluate `expr` through `index` (a summary of `data`), validating every
/// candidate of every unsound extent with a fresh backward walk that hands
/// off to the index where Theorem 1 answers for the rest of the path, with
/// one verdict per (block, state) per query.
/// `index_labels` must have been built from `index`.
pub fn evaluate(
    index: &IndexGraph,
    data: &DataGraph,
    index_labels: &LabelIndex,
    expr: &PathExpr,
) -> IndexEvalOutcome {
    let nfa = Nfa::compile(expr, index.labels());
    let on_index = oracle::evaluate(index, &nfa, index_labels);

    let required = expr.max_word_len().map(|labels| labels.saturating_sub(1));

    let mut matches: Vec<NodeId> = Vec::new();
    let mut cost = QueryCost {
        index_visits: on_index.visited,
        data_visits: 0,
    };
    let mut validated = false;
    let block_of = |d: NodeId| index.index_of(d);
    let similarity = |b: NodeId| index.similarity(b);
    let mut reversed: Option<(Nfa, oracle::IndexSide<'_, IndexGraph>)> = None;

    for inode in on_index.matches {
        let sound = match required {
            Some(m) => index.similarity(inode) >= m,
            None => false,
        };
        if sound {
            matches.extend_from_slice(index.extent(inode));
        } else {
            validated = true;
            let (rev, side) = reversed.get_or_insert_with(|| {
                let rev = Nfa::compile(expr, data.labels()).reverse();
                let on_index = Nfa::compile(expr, index.labels()).reverse();
                (rev, oracle::IndexSide::new(index, on_index, &block_of, &similarity))
            });
            for &candidate in index.extent(inode) {
                let (hit, visited) = oracle::matches_ending_at_with_index(data, rev, candidate, side);
                cost.data_visits += visited;
                if hit {
                    matches.push(candidate);
                }
            }
        }
    }
    if let Some((_, side)) = &reversed {
        cost.index_visits += side.index_visits;
    }
    matches.sort_unstable();
    matches.dedup();
    IndexEvalOutcome {
        matches,
        cost,
        validated,
    }
}
