//! Fixture: an NFA-walk "oracle" that quietly became the fast path. Mirrors
//! the real `dkindex_pathexpr::oracle` module path so the repository rule
//! tables scope onto it: the budgeted walks, their arena, marks, budget and
//! closure table, and the telemetry hook must each be flagged.

use crate::eval::{evaluate_bounded_with, matches_ending_at_bounded_with, EvalArena, VisitBudget};

/// "Reference" forward evaluation that is the evaluator under test.
pub fn evaluate(g: &Graph, nfa: &Nfa, idx: &LabelIndex) -> Option<EvalOutcome> {
    dkindex_telemetry::metrics::PATHEXPR_EVALUATIONS.incr();
    evaluate_bounded_with(g, nfa, idx, &mut EvalArena::new(), &mut VisitBudget::unlimited()).ok()
}

/// "Reference" backward walk: same story, plus the fast path's dedup marks
/// and precomputed closure table.
pub fn matches_ending_at(g: &Graph, rev: &Nfa, node: NodeId, seen: &mut Marks) -> Option<bool> {
    seen.reset(rev.closure_steps_of(rev.start()).len());
    matches_ending_at_bounded_with(g, rev, node, &mut EvalArena::new(), &mut VisitBudget::new(9))
        .map(|(hit, _)| hit)
        .ok()
}
