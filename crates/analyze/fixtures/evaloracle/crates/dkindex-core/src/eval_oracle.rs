//! Fixture: an index-evaluation "oracle" that asks the evaluator it
//! certifies for the answer. Mirrors the real `dkindex_core::eval_oracle`
//! module path; the `IndexEvaluator` reference must be flagged.

/// "Reference" index→validate evaluation that is the type under test.
pub fn evaluate(index: &IndexGraph, data: &DataGraph, expr: &PathExpr) -> IndexEvalOutcome {
    crate::eval::IndexEvaluator::new(index, data).evaluate(expr)
}
