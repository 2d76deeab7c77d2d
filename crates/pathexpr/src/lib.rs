//! # dkindex-pathexpr
//!
//! Regular path expressions over labeled graphs (paper §3), the query side of
//! the D(k)-index reproduction:
//!
//! * [`PathExpr`] — AST for `R = label | _ | R.R | R|R | (R) | R? | R*`,
//!   with word-length analysis used by the soundness test and query-load
//!   mining.
//! * [`parse()`](crate::parse::parse) — size-capped text syntax, `movieDB.(_)?.movie.actor.name`.
//! * [`Nfa`] — Thompson compilation against a label interner, reversible for
//!   backward validation walks. Its states and transitions are crate-private,
//!   so the walks below are the only NFA walks in the workspace: the
//!   compiler, not a convention, keeps other crates from hand-rolling one.
//! * [`evaluate_bounded_with`] / [`matches_ending_at_bounded_with`] — the one
//!   forward product BFS and the one backward validation walk over any
//!   [`dkindex_graph::LabeledGraph`], with the paper's node-visit cost model,
//!   caller-owned [`EvalArena`] scratch (no steady-state allocation across a
//!   batch) and a shared [`VisitBudget`] that aborts with a typed
//!   [`BudgetExhausted`]. A validation walk can hand off to an index
//!   summary ([`HandOff`]: paper Theorem 1 applied mid-walk), whose verdict
//!   is a lookup in the pairs the forward walk on the index activated.
//! * [`evaluate`] / [`matches_ending_at`] — the same walks with fresh scratch
//!   and an unlimited budget, for one-off callers.
//! * [`oracle`] — the independent allocator-per-call reference walks every
//!   result above is checked against. Only tests and benchmarks call it, and
//!   it shares no scratch, budget, closure table or telemetry with the walks
//!   it certifies.
//!
//! ## Example
//!
//! ```
//! use dkindex_graph::{DataGraph, EdgeKind, LabeledGraph};
//! use dkindex_pathexpr::{evaluate, parse, LabelIndex, Nfa};
//!
//! let mut g = DataGraph::new();
//! let movie = g.add_labeled_node("movie");
//! let title = g.add_labeled_node("title");
//! let root = g.root();
//! g.add_edge(root, movie, EdgeKind::Tree);
//! g.add_edge(movie, title, EdgeKind::Tree);
//!
//! let expr = parse("movie.title").unwrap();
//! let nfa = Nfa::compile(&expr, g.labels());
//! let idx = LabelIndex::build(&g);
//! let out = evaluate(&g, &nfa, &idx);
//! assert_eq!(out.matches, vec![title]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod eval;
pub mod nfa;
pub mod oracle;
pub mod parse;

pub use ast::{LastLabels, PathExpr};
pub use eval::{
    evaluate, evaluate_bounded_with, matches_ending_at, matches_ending_at_bounded_with,
    BudgetExhausted, EvalArena, EvalOutcome, HandOff, LabelIndex, VisitBudget,
};
pub use nfa::Nfa;
pub use parse::{parse, ParseError, MAX_QUERY_NESTING, MAX_QUERY_NODES};
