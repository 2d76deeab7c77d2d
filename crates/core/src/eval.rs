//! Query evaluation on index graphs, with the validation process and the
//! paper's cost model (§6.1).
//!
//! A path expression is first evaluated on the (small) index graph. A matched
//! index node is *sound* when its local similarity is at least the query's
//! path length (paper property 3 with the Definition-3 constraint): its whole
//! extent belongs to the answer for free. Otherwise the extent is only a
//! candidate set and each member must be **validated** by a backward walk in
//! the data graph; validation visits are charged to the query — this is why
//! the paper tunes requirements so the query load rarely validates.
//!
//! A validation walk hands off to the index mid-walk (Theorem 1 applied
//! once more): at a pair (reversed-automaton state `t`, data node `p`)
//! whose remaining words all fit within `k(B(p))`, the index graph answers
//! for the rest of the path ([`dkindex_pathexpr::HandOff`]). The answer is
//! a lookup in the pairs the query's forward walk on the index activated:
//! some parent of `B(p)` was reached in a state whose ε-closure holds `t`.
//! The rule applies only to states whose longest remaining word is at most
//! the index's largest similarity; a query with none (a label-split index,
//! every star query) runs the plain walk.
//!
//! Cost accounting: `index_visits` counts `(state, node)` activations of
//! the forward walk on the index graph and the hand-off verdicts' charges
//! (one or two visits per `(B(p), t)` per query); `data_visits` counts
//! activations during validation walks on the data graph. Extent members
//! of sound matches are not counted (per §6.1).
//!
//! `Walk::evaluate_bounded` is the one index→validate loop. It runs over
//! borrowed parts — the two graphs, the index graph's by-label seed lists
//! ([`LabelIndex`]) and an [`EvalArena`] — so its owners decide what
//! outlives a query: [`IndexEvaluator`] owns the seed lists and an arena for
//! a batch, and `core::serve` lends per-epoch seed lists and a per-thread
//! arena. Nothing is remembered between queries: every validation is walked
//! and charged, and the hand-off's reached rows live for one query. The
//! index phase walks the [`IndexGraph`] itself: a flat label column and
//! segment-CSR adjacency (see [`crate::index_graph`]). The unbudgeted
//! entry points are that loop with a budget nothing can exhaust. Every
//! *completed* query feeds the `eval.*` telemetry metrics (queries,
//! index/data visits, hand-offs, sound extents, validated queries,
//! per-query visit histogram); an aborted one bumps only
//! `eval.aborted_queries`. The `eval.query_ns` span times both. The
//! independent §6.1 oracle lives in [`crate::eval_oracle`] and is
//! deliberately uninstrumented.

use crate::index_graph::IndexGraph;
use dkindex_graph::{DataGraph, LabeledGraph, NodeId};
use dkindex_telemetry as telemetry;
use dkindex_pathexpr::{
    evaluate_bounded_with, matches_ending_at_bounded_with, EvalArena, HandOff, LabelIndex, Nfa,
    PathExpr, VisitBudget,
};

/// Cost of one query under the paper's in-memory model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryCost {
    /// Nodes visited in the index graph.
    pub index_visits: u64,
    /// Data nodes visited during validation.
    pub data_visits: u64,
}

impl QueryCost {
    /// Total nodes visited (the paper's Y axis).
    pub fn total(&self) -> u64 {
        self.index_visits + self.data_visits
    }
}

/// Typed abort from [`IndexEvaluator::evaluate_bounded`]: the visit budget
/// ran out before the query completed. Carries the work charged up to the
/// abort for telemetry/reporting; no partial matches are ever exposed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryAborted {
    /// The budget the query was given.
    pub budget: u64,
    /// Visits charged before the abort.
    pub cost: QueryCost,
}

impl std::fmt::Display for QueryAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "query aborted: visit budget of {} exhausted ({} index visits, {} data visits)",
            self.budget, self.cost.index_visits, self.cost.data_visits
        )
    }
}

impl std::error::Error for QueryAborted {}

/// Result of evaluating a query through an index graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexEvalOutcome {
    /// Matched data nodes, sorted ascending.
    pub matches: Vec<NodeId>,
    /// Visit counts.
    pub cost: QueryCost,
    /// True if any matched index node required validation.
    pub validated: bool,
}

/// The borrowed parts one index→validate walk runs over. `seeds` must have
/// been built from `index`; the arena may come dirty from any graph,
/// because every walk resets its epoch-stamped marks.
pub(crate) struct Walk<'a> {
    pub(crate) index: &'a IndexGraph,
    pub(crate) data: &'a DataGraph,
    pub(crate) seeds: &'a LabelIndex,
    pub(crate) arena: &'a mut EvalArena,
}

impl Walk<'_> {
    /// [`Walk::evaluate_bounded`] with a budget no query that fits in
    /// memory can exhaust.
    pub(crate) fn evaluate(self, expr: &PathExpr) -> IndexEvalOutcome {
        self.evaluate_bounded(expr, u64::MAX)
            .expect("a u64::MAX visit budget outlasts any query that fits in memory")
    }

    /// The index→validate loop, under one visit budget shared by the
    /// index-graph phase and every validation walk; its contract is
    /// [`IndexEvaluator::evaluate_bounded`]'s.
    pub(crate) fn evaluate_bounded(
        self,
        expr: &PathExpr,
        budget: u64,
    ) -> Result<IndexEvalOutcome, QueryAborted> {
        let Walk {
            index,
            data,
            seeds,
            arena,
        } = self;
        let span = telemetry::Span::start(&telemetry::metrics::EVAL_QUERY_NS);
        let abort = |spent: QueryCost| {
            telemetry::metrics::EVAL_ABORTED_QUERIES.incr();
            QueryAborted { budget, cost: spent }
        };
        let mut remaining = VisitBudget::new(budget);
        let nfa = Nfa::compile(expr, index.labels());
        let on_index = match evaluate_bounded_with(index, &nfa, seeds, arena, &mut remaining) {
            Ok(out) => out,
            Err(e) => {
                return Err(abort(QueryCost {
                    index_visits: e.visited,
                    data_visits: 0,
                }))
            }
        };

        // Path length in edges (paper's "length m" for l1...l_{m+1}); an
        // unbounded expression (contains *) can never be certified sound.
        let required = expr.max_word_len().map(|labels| labels.saturating_sub(1));

        let mut matches: Vec<NodeId> = Vec::new();
        let mut cost = QueryCost {
            index_visits: on_index.visited,
            data_visits: 0,
        };
        let mut validated = false;
        // Tallied locally and recorded with the rest of `eval.*` on
        // completion, so an aborted query leaves no partial counts behind.
        let mut sound_extents = 0u64;
        // Only if we validate: the reversed automaton over the data labels
        // and, when some state of it can hand off, the query's hand-off to
        // this index (which reads the forward walk's pairs in `arena`).
        let mut validation: Option<(Nfa, Option<HandOff<'_, IndexGraph>>)> = None;

        for inode in on_index.matches {
            let sound = match required {
                Some(m) => index.similarity(inode) >= m,
                None => false,
            };
            if sound {
                sound_extents += 1;
                matches.extend_from_slice(index.extent(inode));
                continue;
            }
            validated = true;
            let (walked, handoff) = validation.get_or_insert_with(|| {
                let walked = Nfa::compile(expr, data.labels()).reverse();
                let (block_of, similarity) = (index.node_map(), index.similarities());
                let handoff = HandOff::begin(&walked, &nfa, index, block_of, similarity, arena);
                (walked, handoff)
            });
            // Appended once per extent, so an answer with one validated
            // extent is allocated to size: the epoch memo keeps it.
            let mut hits: Vec<NodeId> = Vec::new();
            for &candidate in index.extent(inode) {
                let walk = match handoff {
                    Some(h) => h.matches_ending_at(data, walked, candidate, arena, &mut remaining),
                    None => matches_ending_at_bounded_with(data, walked, candidate, arena, &mut remaining),
                };
                match walk {
                    Ok((hit, visited)) => {
                        cost.data_visits += visited;
                        if hit {
                            hits.push(candidate);
                        }
                    }
                    Err(e) => {
                        cost.data_visits += e.visited;
                        cost.index_visits += handoff.as_ref().map_or(0, HandOff::index_visits);
                        return Err(abort(cost));
                    }
                }
            }
            matches.extend_from_slice(&hits);
        }
        let handoff = validation.as_ref().and_then(|(_, handoff)| handoff.as_ref());
        let handoffs = handoff.map_or(0, HandOff::handoffs);
        cost.index_visits += handoff.map_or(0, HandOff::index_visits);
        matches.sort_unstable();
        matches.dedup();

        telemetry::metrics::EVAL_QUERIES.incr();
        telemetry::metrics::EVAL_INDEX_VISITS.add(cost.index_visits);
        telemetry::metrics::EVAL_DATA_VISITS.add(cost.data_visits);
        telemetry::metrics::EVAL_HANDOFFS.add(handoffs);
        telemetry::metrics::EVAL_SOUND_EXTENTS.add(sound_extents);
        if validated {
            telemetry::metrics::EVAL_VALIDATED_QUERIES.incr();
        }
        telemetry::metrics::EVAL_VISITS_PER_QUERY.record(cost.total());
        drop(span);

        Ok(IndexEvalOutcome {
            matches,
            cost,
            validated,
        })
    }
}

/// Reusable evaluator for one `(index, data)` pair: the two graphs, the
/// index graph's seed lists and an [`EvalArena`]. A batch of queries
/// reuses the seed lists and the arena's marks and queue; each query still
/// compiles its own automaton and allocates its own match and hit lists.
/// It remembers no answers: every query runs the same walk an `Epoch` memo
/// miss runs, so a warm evaluator charges, and aborts, exactly like a
/// fresh one.
pub struct IndexEvaluator<'a> {
    index: &'a IndexGraph,
    data: &'a DataGraph,
    seeds: LabelIndex,
    arena: EvalArena,
}

impl<'a> IndexEvaluator<'a> {
    /// Build an evaluator over `index` (a summary of `data`).
    pub fn new(index: &'a IndexGraph, data: &'a DataGraph) -> Self {
        IndexEvaluator {
            index,
            data,
            seeds: LabelIndex::build(index),
            arena: EvalArena::new(),
        }
    }

    fn walk(&mut self) -> Walk<'_> {
        Walk {
            index: self.index,
            data: self.data,
            seeds: &self.seeds,
            arena: &mut self.arena,
        }
    }

    /// Evaluate `expr` through the index, validating approximate matches
    /// against the data graph: [`evaluate_bounded`](Self::evaluate_bounded)
    /// with a budget no query that fits in memory can exhaust.
    pub fn evaluate(&mut self, expr: &PathExpr) -> IndexEvalOutcome {
        self.walk().evaluate(expr)
    }

    /// The index→validate loop, under a visit budget shared across the
    /// index-graph phase and every validation walk.
    ///
    /// While the budget covers the query's cost, the outcome (matches, cost
    /// *and* validated flag) equals [`crate::eval_oracle::evaluate`]. Once
    /// the budget runs out the query aborts with a typed [`QueryAborted`] —
    /// partial results are discarded, never returned, because a truncated
    /// match set would be silently wrong.
    pub fn evaluate_bounded(
        &mut self,
        expr: &PathExpr,
        budget: u64,
    ) -> Result<IndexEvalOutcome, QueryAborted> {
        self.walk().evaluate_bounded(expr, budget)
    }

    /// Evaluate a whole workload, returning per-query outcomes.
    pub fn evaluate_all(&mut self, exprs: &[PathExpr]) -> Vec<IndexEvalOutcome> {
        exprs.iter().map(|e| self.evaluate(e)).collect()
    }
}

/// Ground truth: evaluate `expr` directly on the data graph (no index).
/// Returns matches and the number of data nodes visited.
pub fn evaluate_on_data(data: &DataGraph, expr: &PathExpr) -> (Vec<NodeId>, u64) {
    let nfa = Nfa::compile(expr, data.labels());
    let idx = LabelIndex::build(data);
    let out = dkindex_pathexpr::evaluate(data, &nfa, &idx);
    (out.matches, out.visited)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dk::construct::DkIndex;
    use crate::eval_oracle;
    use crate::requirements::Requirements;
    use dkindex_graph::EdgeKind;
    use dkindex_pathexpr::parse;

    /// Two movies: one under director, one under actor; titles below.
    fn movie_data() -> DataGraph {
        let mut g = DataGraph::new();
        let d = g.add_labeled_node("director");
        let a = g.add_labeled_node("actor");
        let m1 = g.add_labeled_node("movie");
        let m2 = g.add_labeled_node("movie");
        let t1 = g.add_labeled_node("title");
        let t2 = g.add_labeled_node("title");
        let r = g.root();
        g.add_edge(r, d, EdgeKind::Tree);
        g.add_edge(r, a, EdgeKind::Tree);
        g.add_edge(d, m1, EdgeKind::Tree);
        g.add_edge(a, m2, EdgeKind::Tree);
        g.add_edge(m1, t1, EdgeKind::Tree);
        g.add_edge(m2, t2, EdgeKind::Tree);
        g
    }

    fn assert_same_matches(data: &DataGraph, index: &IndexGraph, expr: &str) {
        let e = parse(expr).unwrap();
        let truth = evaluate_on_data(data, &e).0;
        let out = IndexEvaluator::new(index, data).evaluate(&e);
        assert_eq!(out.matches, truth, "expr {expr}");
    }

    #[test]
    fn sound_index_answers_without_validation() {
        let data = movie_data();
        // title requires 2: director.movie.title (length 2) is sound.
        let dk = DkIndex::build(&data, Requirements::from_pairs([("title", 2)]));
        let e = parse("director.movie.title").unwrap();
        let out = IndexEvaluator::new(dk.index(), &data).evaluate(&e);
        assert!(!out.validated);
        assert_eq!(out.cost.data_visits, 0);
        let truth = evaluate_on_data(&data, &e).0;
        assert_eq!(out.matches, truth);
    }

    #[test]
    fn label_split_index_validates_long_queries() {
        let data = movie_data();
        let dk = DkIndex::build(&data, Requirements::new()); // A(0)
        let e = parse("director.movie.title").unwrap();
        let out = IndexEvaluator::new(dk.index(), &data).evaluate(&e);
        assert!(out.validated);
        assert!(out.cost.data_visits > 0);
        // Validation still returns the exact answer.
        let truth = evaluate_on_data(&data, &e).0;
        assert_eq!(out.matches, truth);
    }

    #[test]
    fn validation_filters_false_positives() {
        let data = movie_data();
        let dk = DkIndex::build(&data, Requirements::new());
        // Both titles share one index node; only t1 matches through director.
        let e = parse("director.movie.title").unwrap();
        let out = IndexEvaluator::new(dk.index(), &data).evaluate(&e);
        assert_eq!(out.matches.len(), 1);
    }

    #[test]
    fn short_queries_are_sound_even_on_label_split() {
        let data = movie_data();
        let dk = DkIndex::build(&data, Requirements::new());
        // Length 0 (single label): always sound (k ≥ 0).
        let e = parse("title").unwrap();
        let out = IndexEvaluator::new(dk.index(), &data).evaluate(&e);
        assert!(!out.validated);
        assert_eq!(out.matches.len(), 2);
    }

    #[test]
    fn star_queries_always_validate_but_stay_exact() {
        let data = movie_data();
        let dk = DkIndex::build(&data, Requirements::uniform(3));
        for expr in ["_*.title", "ROOT._*.movie", "director._*"] {
            assert_same_matches(&data, dk.index(), expr);
            let out = IndexEvaluator::new(dk.index(), &data)
                .evaluate(&parse(expr).unwrap());
            assert!(out.validated, "{expr} must validate (unbounded)");
        }
    }

    #[test]
    fn exactness_across_requirement_levels() {
        let data = movie_data();
        for k in 0..4 {
            let dk = DkIndex::build(&data, Requirements::uniform(k));
            for expr in [
                "movie.title",
                "director.movie.title",
                "actor.movie",
                "ROOT.director",
                "ROOT._.movie.title",
                "movie.(title|name)",
            ] {
                assert_same_matches(&data, dk.index(), expr);
            }
        }
    }

    #[test]
    fn higher_similarity_reduces_total_cost_for_long_queries() {
        let data = movie_data();
        let e = parse("director.movie.title").unwrap();
        let a0 = DkIndex::build(&data, Requirements::new());
        let a2 = DkIndex::build(&data, Requirements::uniform(2));
        let cost0 = IndexEvaluator::new(a0.index(), &data).evaluate(&e).cost.total();
        let cost2 = IndexEvaluator::new(a2.index(), &data).evaluate(&e).cost.total();
        assert!(
            cost2 < cost0,
            "sound index ({cost2}) should beat validating index ({cost0})"
        );
    }

    /// The one index→validate loop against the oracle, at every budget:
    /// each `limit` below the oracle's total cost aborts having charged
    /// exactly `limit`, and `limit == cost` reproduces the oracle's outcome
    /// (matches, both visit counts, validated flag). A second, long-lived
    /// evaluator answers the query first and then takes every abort too:
    /// each must equal the fresh evaluator's, and it must still answer
    /// exactly afterwards. At k = 1 the long queries hand off to the index
    /// mid-walk, so some limits cut inside a verdict's charge.
    #[test]
    fn budget_sweep_matches_the_oracle() {
        let data = movie_data();
        let mut handed_off = 0;
        for k in [0, 1, 2] {
            let dk = DkIndex::build(&data, Requirements::uniform(k));
            let labels = LabelIndex::build(dk.index());
            for expr in [
                "movie.title",
                "director.movie.title",
                "_*.title",
                "title",
                "ghost.label",
                "ROOT._.movie.title",
                "(director|actor).movie.(title|ghost)",
            ] {
                let e = parse(expr).unwrap();
                let want = eval_oracle::evaluate(dk.index(), &data, &labels, &e);
                let total = want.cost.total();
                let forward = Nfa::compile(&e, dk.index().labels());
                let on_index = dkindex_pathexpr::oracle::evaluate(dk.index(), &forward, &labels);
                handed_off += usize::from(want.cost.index_visits > on_index.visited);
                let mut survivor = IndexEvaluator::new(dk.index(), &data);
                assert_eq!(survivor.evaluate(&e), want, "expr {expr} k {k}");
                for limit in 0..total {
                    let aborted = IndexEvaluator::new(dk.index(), &data)
                        .evaluate_bounded(&e, limit)
                        .expect_err("a budget below the query's cost must abort");
                    assert_eq!(aborted.budget, limit, "expr {expr} k {k}");
                    assert_eq!(aborted.cost.total(), limit, "expr {expr} k {k}");
                    assert_eq!(
                        survivor.evaluate_bounded(&e, limit),
                        Err(aborted),
                        "a warm evaluator aborts like a fresh one: expr {expr} k {k}"
                    );
                }
                let exact = IndexEvaluator::new(dk.index(), &data).evaluate_bounded(&e, total);
                assert_eq!(exact.as_ref(), Ok(&want), "expr {expr} k {k}");
                assert_eq!(survivor.evaluate_bounded(&e, total), exact, "expr {expr} k {k}");
                assert_eq!(survivor.evaluate(&e), want, "expr {expr} k {k}");
            }
        }
        assert!(handed_off >= 3, "only {handed_off} queries handed off");
    }
}
