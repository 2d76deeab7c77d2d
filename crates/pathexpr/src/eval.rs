//! Path-expression evaluation over any [`LabeledGraph`] with the paper's
//! in-memory cost model.
//!
//! The paper (§6.1, following the A(k)-index evaluation) defines the cost of
//! a query as *the number of nodes visited in the index or data graph during
//! path expression evaluation*; extent members of matched index nodes are
//! free, data nodes touched during validation are charged. We realize the
//! model by counting distinct `(automaton state, graph node)` activations —
//! for a linear path query each graph node is charged at most once per query
//! position, which reduces to the intuitive "nodes touched" count.
//!
//! Evaluation is *partial-match* (paper §3): a label path may start at any
//! node, so the automaton is seeded at every node whose label a first
//! transition can consume. Seeding uses a per-graph [`LabelIndex`] (label →
//! nodes) built once per graph, so a query for `director.movie.title` starts
//! only from `director` nodes, never scanning unrelated labels — matching how
//! the A(k) experiments obtain small costs for small indexes.

use crate::nfa::{Nfa, StateId, Step};
use dkindex_graph::{LabeledGraph, Marks, NodeId};
use dkindex_telemetry as telemetry;

/// Label → nodes inverted index for one graph. Build once per graph (its
/// construction is not charged to any query).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LabelIndex {
    by_label: Vec<Vec<NodeId>>,
}

impl LabelIndex {
    /// Build the inverted index for `g` in O(n).
    pub fn build<G: LabeledGraph>(g: &G) -> Self {
        let mut by_label = vec![Vec::new(); g.labels().len()];
        for node in g.node_ids() {
            by_label[g.label_of(node).index()].push(node);
        }
        LabelIndex { by_label }
    }

    /// Nodes carrying `label`.
    #[inline]
    pub fn nodes_with(&self, label: dkindex_graph::LabelId) -> &[NodeId] {
        &self.by_label[label.index()]
    }

    /// All nodes, flattened (used to seed wildcard-initial queries).
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.by_label.iter().flatten().copied()
    }
}

/// Outcome of a forward evaluation: the matched nodes and the visit count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalOutcome {
    /// Nodes matched by the expression, in ascending id order.
    pub matches: Vec<NodeId>,
    /// Number of `(state, node)` activations — the paper's "nodes visited".
    pub visited: u64,
}

/// A walk answers "already activated?" by scanning its own queue while the
/// queue holds fewer pairs than this; the next activation switches it to the
/// arena's dense `states × nodes` marks. Validation walks average a handful
/// of activations, so most never touch (or allocate) the dense store.
const SCAN_LIMIT: usize = 32;

/// Reusable scratch state for [`evaluate_bounded_with`] and
/// [`matches_ending_at_bounded_with`]: the forward walk's queue, which holds
/// its activated pairs until the next forward walk, a backward walk's queue,
/// epoch-stamped `(state, node)` activation marks for walks that outgrow a
/// queue scan, the matched set, and the reached rows of a query that hands
/// off to an index ([`HandOff`]). After warm-up, a batch of queries sharing
/// one arena performs zero steady-state allocation.
#[derive(Clone, Debug, Default)]
pub struct EvalArena {
    active: Marks,
    matched: Marks,
    matched_list: Vec<NodeId>,
    forward: Vec<(StateId, NodeId)>,
    queue: Vec<(StateId, NodeId)>,
    reached: Reached,
    /// Forward walks started on this arena.
    forward_walks: u64,
    /// `(states, nodes)` of the forward walk whose pairs `forward` holds,
    /// once it has completed; `None` while one runs or after one aborted.
    walked: Option<(usize, usize)>,
}

impl EvalArena {
    /// Fresh, empty arena. Buffers grow on first use and are reused after.
    pub fn new() -> Self {
        EvalArena::default()
    }

    /// Mark slots this arena retains: the `(state, node)` activation store,
    /// as large as the largest `states × nodes` product of a walk that
    /// outgrew its queue scan since the arena was created (zero if none
    /// did), the matched-node store, as large as the largest graph a
    /// forward walk ran over, and the reached rows, two per state that can
    /// hand off times the index nodes, for the largest such query that
    /// handed off (the queues are bounded by the activations). A long-lived
    /// owner reads it to bound what it keeps between walks.
    pub fn mark_capacity(&self) -> usize {
        self.active.capacity() + self.matched.capacity() + self.reached.slots.len()
    }
}

/// One query's reached rows, flat and stamped, two over the index nodes per
/// state that can hand off: node `P`'s slot in a state's *reached* row
/// holds the stamp iff the forward walk activated some `(u, P)` with the
/// state in `u`'s ε-closure, block `B`'s in its *asked* row iff the query
/// charged the verdict for `(state, B)`. A query that never hands off
/// allocates none.
#[derive(Clone, Debug, Default)]
struct Reached {
    slots: Vec<u32>,
    stamp: u32,
    row_of: Vec<Option<usize>>,
    rows: usize,
    nodes: usize,
    filled: bool,
}

impl Reached {
    /// Start a query over `nodes` index nodes: every state that `qualifies`
    /// gets an unfilled row pair, and the stamp moves on.
    fn begin(&mut self, states: usize, nodes: usize, qualifies: impl Fn(usize) -> bool) {
        let mut rows = 0;
        self.row_of.clear();
        self.row_of.extend((0..states).map(|s| {
            let row = qualifies(s).then_some(rows);
            rows += usize::from(row.is_some());
            row
        }));
        (self.rows, self.nodes, self.filled) = (rows, nodes, false);
        if self.stamp == u32::MAX {
            // Stamp wrapped: re-zero once every 2^32 - 1 queries.
            self.slots.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
    }

    /// Is some node of `parents` in `state`'s reached row, and is this the
    /// query's first verdict for `(state, block)`? The first call fills the
    /// reached rows in one pass over the forward walk's `pairs` over
    /// `forward`, reading each pair's ε-closure once.
    fn answer(
        &mut self,
        (state, block): (StateId, NodeId),
        parents: &[NodeId],
        forward: &Nfa,
        pairs: &[(StateId, NodeId)],
    ) -> (bool, bool) {
        let width = 2 * self.nodes;
        if !self.filled {
            self.filled = true;
            if self.slots.len() < self.rows * width {
                self.slots.resize(self.rows * width, 0);
            }
            for &(u, p) in pairs {
                for t in &forward.closures()[u.index()] {
                    if let Some(row) = self.row_of[t.index()] {
                        self.slots[row * width + p.index()] = self.stamp;
                    }
                }
            }
        }
        let row = self.row_of[state.index()].expect("only a state that can hand off asks");
        let (reached, asked) = self.slots[row * width..][..width].split_at_mut(self.nodes);
        let first = std::mem::replace(&mut asked[block.index()], self.stamp) != self.stamp;
        (parents.iter().any(|p| reached[p.index()] == self.stamp), first)
    }
}

/// One walk's "is this pair new?" test. Every pair a walk activates is on its
/// queue (a backward walk ends at the one pair it does not push: the one
/// that accepts, or hands off with "yes"), so while the queue is shorter
/// than [`SCAN_LIMIT`] the answer is a scan of it. The first test at that
/// length resets the dense marks once and stamps every queued pair; from
/// then on the marks answer, so a long walk still pays O(1) per test.
struct Activations<'a> {
    marks: &'a mut Marks,
    states: usize,
    nodes: usize,
    dense: bool,
}

impl<'a> Activations<'a> {
    fn new(marks: &'a mut Marks, states: usize, nodes: usize) -> Self {
        Activations {
            marks,
            states,
            nodes,
            dense: false,
        }
    }

    /// `true` iff `(state, node)` was not activated before in this walk;
    /// on the dense side it is marked activated by this test.
    #[inline]
    fn first(&mut self, queue: &[(StateId, NodeId)], state: StateId, node: NodeId) -> bool {
        if !self.dense {
            if queue.len() < SCAN_LIMIT {
                return !queue.contains(&(state, node));
            }
            self.marks.reset(self.states * self.nodes);
            for &(s, n) in queue {
                self.marks.mark(s.index() * self.nodes + n.index());
            }
            self.dense = true;
        }
        self.marks.mark(state.index() * self.nodes + node.index())
    }
}

/// A cap on `(state, node)` activations shared across the phases of one
/// query execution — the robustness layer's defence against runaway queries
/// (adversarial star expressions over dense cyclic graphs).
///
/// One budget is threaded through the index-graph evaluation *and* every
/// validation walk of a query, so the cap bounds the query's charged
/// activations, not each phase separately. Its uncharged work is bounded
/// by the charged: a [`HandOff`] reads each forward pair's ε-closure once
/// per query and its block's parents once per hand-off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VisitBudget {
    remaining: u64,
}

impl VisitBudget {
    /// A budget allowing `limit` activations.
    pub fn new(limit: u64) -> Self {
        VisitBudget { remaining: limit }
    }

    /// A budget no walk that fits in memory can exhaust — what the
    /// unbudgeted wrappers [`evaluate`] and [`matches_ending_at`] pass.
    pub fn unlimited() -> Self {
        VisitBudget { remaining: u64::MAX }
    }

    /// Activations still allowed.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Charge one activation; `false` means the budget is exhausted.
    #[inline]
    pub fn try_charge(&mut self) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        true
    }
}

/// Typed abort: the visit budget ran out mid-evaluation.
///
/// Partial results are discarded by design — a truncated match set would be
/// silently wrong, which is exactly what the robustness layer exists to
/// prevent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetExhausted {
    /// Activations performed before the abort (the full budget).
    pub visited: u64,
}

impl std::fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "visit budget exhausted after {} activations", self.visited)
    }
}

impl std::error::Error for BudgetExhausted {}

/// Evaluate `nfa` over `g` with partial-match semantics.
///
/// `label_index` must have been built from the same graph. Allocates scratch
/// per call and never aborts; batches and budgeted callers use
/// [`evaluate_bounded_with`] with a shared arena.
pub fn evaluate<G: LabeledGraph>(g: &G, nfa: &Nfa, label_index: &LabelIndex) -> EvalOutcome {
    evaluate_bounded_with(
        g,
        nfa,
        label_index,
        &mut EvalArena::new(),
        &mut VisitBudget::unlimited(),
    )
    .expect("an unlimited visit budget outlasts any walk that fits in memory")
}

/// Does some node path ending at `node` match a word of `nfa`'s language?
/// Used by the validation process: `reversed` must be `nfa.reverse()`.
///
/// Returns the verdict and the number of `(state, node)` activations
/// performed (charged as data-graph visits). Allocates scratch per call and
/// never aborts; see [`matches_ending_at_bounded_with`].
pub fn matches_ending_at<G: LabeledGraph>(g: &G, reversed: &Nfa, node: NodeId) -> (bool, u64) {
    matches_ending_at_bounded_with(
        g,
        reversed,
        node,
        &mut EvalArena::new(),
        &mut VisitBudget::unlimited(),
    )
    .expect("an unlimited visit budget outlasts any walk that fits in memory")
}

/// The forward product BFS: evaluate `nfa` over `g` with caller-owned
/// scratch under a [`VisitBudget`]. Returns the matches and visit count
/// while the budget holds and a typed [`BudgetExhausted`] once it doesn't.
/// The budget is `&mut` so validation walks can share it.
///
/// The walk's activated pairs stay in the arena until its next forward
/// walk: a [`HandOff`] begun after it reads them.
///
/// The `pathexpr.*` telemetry counts work done, so an aborted walk records
/// its charged activations exactly like a completed one.
pub fn evaluate_bounded_with<G: LabeledGraph>(
    g: &G,
    nfa: &Nfa,
    label_index: &LabelIndex,
    arena: &mut EvalArena,
    budget: &mut VisitBudget,
) -> Result<EvalOutcome, BudgetExhausted> {
    let states = nfa.state_count();
    let nodes = g.node_count();

    // Pair (s, n) already activated? `s` here is the post-consumption state
    // *before* ε-closure; dedup on that pair bounds the work per node by the
    // number of consuming transitions.
    let EvalArena {
        active,
        matched,
        matched_list,
        forward: queue,
        ..
    } = arena;
    let mut seen = Activations::new(active, states, nodes);
    matched.reset(nodes);
    matched_list.clear();
    queue.clear();
    arena.forward_walks += 1;
    arena.walked = None;
    let mut visited: u64 = 0;

    // Returns false exactly when the budget ran out.
    let mut activate = |state: StateId, node: NodeId, queue: &mut Vec<(StateId, NodeId)>| -> bool {
        if !seen.first(queue, state, node) {
            return true;
        }
        if !budget.try_charge() {
            return false;
        }
        visited += 1;
        if nfa.is_accepting(state) && matched.mark(node.index()) {
            matched_list.push(node);
        }
        queue.push((state, node));
        true
    };

    let completed = 'walk: {
        // Seed: consuming transitions reachable from the ε-closure of start.
        // `closure_steps_of(start)` is that closure's transitions precomputed
        // in ascending-state order — the same sequence the oracle's
        // boolean-set scan visits.
        for &(step, target) in nfa.closure_steps_of(nfa.start()) {
            match step {
                Step::Label(l) => {
                    for &n in label_index.nodes_with(l) {
                        if !activate(target, n, queue) {
                            break 'walk false;
                        }
                    }
                }
                Step::Any => {
                    for n in label_index.all_nodes() {
                        if !activate(target, n, queue) {
                            break 'walk false;
                        }
                    }
                }
            }
        }

        // Product BFS: from (q, n), extend the node path by one child. The
        // flattened closure-steps slice yields the same (step, target)
        // sequence as the oracle's nested closure × steps loop, so activation
        // order — and with it the visit count — is identical.
        let mut head = 0;
        while head < queue.len() {
            let (state, node) = queue[head];
            head += 1;
            let children = g.children_of(node);
            for &(step, target) in nfa.closure_steps_of(state) {
                for &child in children {
                    if step.matches(g.label_of(child)) && !activate(target, child, queue) {
                        break 'walk false;
                    }
                }
            }
        }
        true
    };

    telemetry::metrics::PATHEXPR_EVALUATIONS.incr();
    telemetry::metrics::PATHEXPR_ACTIVATIONS.add(visited);
    telemetry::metrics::PATHEXPR_VISITS_PER_EVAL.record(visited);

    if !completed {
        return Err(BudgetExhausted { visited });
    }
    arena.walked = Some((states, nodes));
    let mut matches = std::mem::take(matched_list);
    matches.sort_unstable();
    Ok(EvalOutcome { matches, visited })
}

/// The backward validation walk: [`matches_ending_at`] with caller-owned
/// scratch under a [`VisitBudget`]. Walks along parent edges, consuming
/// labels in reverse, and stops at the first witness; [`BudgetExhausted`]
/// once the budget cannot cover the next activation.
///
/// Until its queue holds 32 pairs (most validation walks end sooner), a
/// walk dedups by scanning the queue and never touches the arena's
/// `states × nodes` marks, so its memory traffic is proportional to its own
/// size; a longer walk switches to the marks once, with the same
/// activations in the same order.
///
/// Like the forward walk, an aborted walk records the activations it was
/// charged for. [`HandOff::matches_ending_at`] is this walk with the index
/// hand-off.
pub fn matches_ending_at_bounded_with<G: LabeledGraph>(
    g: &G,
    reversed: &Nfa,
    node: NodeId,
    arena: &mut EvalArena,
    budget: &mut VisitBudget,
) -> Result<(bool, u64), BudgetExhausted> {
    let EvalArena { active, queue, .. } = arena;
    let walk = backward::<G, G>(g, reversed, node, active, queue, None, budget);
    record_validation(walk)
}

/// The `pathexpr.*` validation telemetry of one backward walk from a
/// candidate, completed or aborted.
fn record_validation(walk: Result<(bool, u64), BudgetExhausted>) -> Result<(bool, u64), BudgetExhausted> {
    let visited = match walk {
        Ok((_, visited)) | Err(BudgetExhausted { visited }) => visited,
    };
    telemetry::metrics::PATHEXPR_VALIDATION_WALKS.incr();
    telemetry::metrics::PATHEXPR_VALIDATION_ACTIVATIONS.add(visited);
    walk
}

/// Validation handing off to an index (paper Theorem 1 applied mid-walk).
///
/// A block of local similarity `k` shares every incoming label path of at
/// most `k` edges with each member of its extent. So once a backward walk
/// from a candidate reaches a pair (state `t`, data node `p`) where every
/// word still accepted from `t` has at most `k(B(p))` labels, the index
/// graph answers for the rest of the walk: is there an index path ending at
/// `B(p)` that takes `t` to acceptance? The query's forward walk on the
/// index has walked that product already: such a path exists iff some
/// parent `P` of `B(p)` has an activated forward pair `(u, P)` with `t` in
/// `u`'s ε-closure. (The empty path would need the forward start to
/// ε-reach `t`, which is exactly when the walk accepts at `t`, and an
/// accepting pair never hands off.) So a verdict is a lookup in the
/// forward pairs (`Reached`). A walk that stops with a "no" does not
/// expand `p`'s parents.
///
/// A verdict is charged once per `(B(p), t)` per query, the least the
/// index walk it stands for can cost: a visit for `(t, B(p))` and, on a
/// "yes", one for that walk's step onto a parent (`(t, B(p))` never
/// accepts). Past that step the walk would run over pairs the forward walk
/// visited and charged. The charges come out of the query's budget.
///
/// The verdict equals the data walk's only on an index that keeps
/// Definition 3, `k(parent) ≥ k(child) − 1` on every index edge, over
/// extents that are as bisimilar as their similarities say: then the index
/// node `i` edges before `B(p)` has similarity at least `k(B(p)) − i`,
/// which is Theorem 1's chain condition for every index path the verdict
/// stands for. Knowing `k(B(p))` alone is not enough. On an index that
/// breaks Definition 3 (ablation A's index without the broadcast step), an
/// index path may carry a word no member of `B(p)` has, and a hand-off can
/// answer "yes" where the data walk says "no".
///
/// One `HandOff` lives for one query and reads the pairs its forward walk
/// ([`evaluate_bounded_with`] of `forward` over `index`) left in the
/// arena. [`HandOff::begin`] declines unless that walk is the last to have
/// run on the arena and completed; a validation walk on an arena where
/// another forward walk has started since runs the plain walk. The walk's
/// automaton is the reversal of a compilation of the same expression
/// against the data labels, so its states are `forward`'s.
#[derive(Debug)]
pub struct HandOff<'a, I> {
    index: &'a I,
    forward: &'a Nfa,
    block_of: &'a [NodeId],
    similarity: &'a [usize],
    largest: usize,
    forward_walk: u64,
    handoffs: u64,
    index_visits: u64,
}

impl<'a, I: LabeledGraph> HandOff<'a, I> {
    /// Start one query's hand-off, or `None` when no state of `walked` (the
    /// validation walk's reversed automaton) can hand off: only a state
    /// that does not accept and whose longest remaining word is at most the
    /// largest similarity may. Then the query runs the plain walk.
    ///
    /// `forward` is the query compiled against `index`'s labels (see the
    /// type's doc for its walk); `block_of` maps each data node to its
    /// block and `similarity` gives each block's local similarity.
    pub fn begin(
        walked: &Nfa,
        forward: &'a Nfa,
        index: &'a I,
        block_of: &'a [NodeId],
        similarity: &'a [usize],
        arena: &mut EvalArena,
    ) -> Option<Self> {
        debug_assert_eq!(walked.state_count(), forward.state_count());
        let largest = similarity.iter().copied().max()?;
        let qualifies = |s: usize| {
            let state = StateId::from_index(s);
            !walked.is_accepting(state) && walked.longest_word(state).is_some_and(|l| l <= largest)
        };
        let walk = Some((forward.state_count(), index.node_count()));
        if arena.walked != walk || !(0..walked.state_count()).any(qualifies) {
            return None;
        }
        arena.reached.begin(walked.state_count(), index.node_count(), qualifies);
        Some(HandOff {
            index,
            forward,
            block_of,
            similarity,
            largest,
            forward_walk: arena.forward_walks,
            handoffs: 0,
            index_visits: 0,
        })
    }

    /// Pairs that handed off in this query.
    pub fn handoffs(&self) -> u64 {
        self.handoffs
    }

    /// Index visits this query's verdicts charged, an aborted walk's
    /// included.
    pub fn index_visits(&self) -> u64 {
        self.index_visits
    }

    /// [`matches_ending_at_bounded_with`] handing off to the index. The
    /// returned count, and an abort's, are the walk's data activations;
    /// its verdicts' charges go to [`HandOff::index_visits`].
    pub fn matches_ending_at<G: LabeledGraph>(
        &mut self,
        g: &G,
        walked: &Nfa,
        node: NodeId,
        arena: &mut EvalArena,
        budget: &mut VisitBudget,
    ) -> Result<(bool, u64), BudgetExhausted> {
        if arena.forward_walks != self.forward_walk {
            return matches_ending_at_bounded_with(g, walked, node, arena, budget);
        }
        let EvalArena {
            active,
            forward,
            queue,
            reached,
            ..
        } = arena;
        let before = self.index_visits;
        let mut stop = ToIndex {
            handoff: self,
            walked,
            reached,
            pairs: forward,
        };
        let walk = backward(g, walked, node, active, queue, Some(&mut stop), budget);
        telemetry::metrics::PATHEXPR_VALIDATION_ACTIVATIONS.add(self.index_visits - before);
        record_validation(walk)
    }
}

/// A data walk's hand-off to the index: the query's [`HandOff`], the
/// arena's reached rows and the forward walk's pairs.
struct ToIndex<'h, 'a, I> {
    handoff: &'h mut HandOff<'a, I>,
    walked: &'h Nfa,
    reached: &'h mut Reached,
    pairs: &'h [(StateId, NodeId)],
}

impl<I: LabeledGraph> ToIndex<'_, '_, I> {
    /// `node`'s block when `(state, node)` hands off: every word still
    /// accepted from `state` has at most its block's similarity in labels.
    /// Its parents are then not expanded.
    #[inline]
    fn block(&self, state: StateId, node: NodeId) -> Option<NodeId> {
        let longest = self.walked.longest_word(state).filter(|&l| l <= self.handoff.largest)?;
        let block = *self.handoff.block_of.get(node.index())?;
        let k = *self.handoff.similarity.get(block.index())?;
        (longest <= k).then_some(block)
    }

    /// `Some(verdict)` when `(state, node)`, activated and not accepting,
    /// hands off; `None` to expand it. An abort leaves `visited` to the walk.
    fn verdict(
        &mut self,
        state: StateId,
        node: NodeId,
        budget: &mut VisitBudget,
    ) -> Result<Option<bool>, BudgetExhausted> {
        let Some(block) = self.block(state, node) else {
            return Ok(None);
        };
        let h = &mut *self.handoff;
        h.handoffs += 1;
        let forward = h.forward;
        let start = &forward.closures()[forward.start().index()];
        debug_assert!(!start.contains(&state), "an accepting pair never hands off");
        let (hit, first) = self.reached.answer((state, block), h.index.parents_of(block), forward, self.pairs);
        let charge = if first { 1 + u64::from(hit) } else { 0 };
        for _ in 0..charge {
            if !budget.try_charge() {
                return Err(BudgetExhausted { visited: 0 });
            }
            h.index_visits += 1;
        }
        Ok(Some(hit))
    }
}

/// The one backward walk, from candidate `node`, handing off to an index
/// where `stop` says so. Returns the verdict and the activations on `g`.
fn backward<G: LabeledGraph, I: LabeledGraph>(
    g: &G,
    reversed: &Nfa,
    node: NodeId,
    active: &mut Marks,
    queue: &mut Vec<(StateId, NodeId)>,
    mut stop: Option<&mut ToIndex<'_, '_, I>>,
    budget: &mut VisitBudget,
) -> Result<(bool, u64), BudgetExhausted> {
    let mut seen = Activations::new(active, reversed.state_count(), g.node_count());
    queue.clear();
    let mut visited: u64 = 0;

    // Activate `(state, node)` if it is new, leaving `$walk` with
    // `Some(true)` at a witness and `None` once the budget ran out. A pair
    // that hands off with "no" is queued like any other, so a queue scan
    // still sees it; the expansion below skips it. A macro, not a closure,
    // so the hot loop keeps the activation inline.
    macro_rules! activate {
        ($walk:lifetime, $state:expr, $node:expr) => {{
            let (state, node) = ($state, $node);
            if seen.first(queue, state, node) {
                if !budget.try_charge() {
                    break $walk None;
                }
                visited += 1;
                if reversed.is_accepting(state) {
                    break $walk Some(true);
                }
                match stop.as_mut().map(|stop| stop.verdict(state, node, budget)) {
                    Some(Ok(Some(true))) => break $walk Some(true),
                    Some(Err(_)) => break $walk None,
                    _ => queue.push((state, node)),
                }
            }
        }};
    }

    // `None` exactly when the budget ran out.
    let verdict: Option<bool> = 'walk: {
        // The candidate consumes its own label from the reversed start,
        // using the precomputed start-closure transitions (same sequence the
        // oracle's boolean-set scan visits).
        let node_label = g.label_of(node);
        for &(step, target) in reversed.closure_steps_of(reversed.start()) {
            if step.matches(node_label) {
                activate!('walk, target, node);
            }
        }

        let mut head = 0;
        while head < queue.len() {
            let (state, n) = queue[head];
            head += 1;
            if stop.as_ref().is_some_and(|stop| stop.block(state, n).is_some()) {
                continue;
            }
            let parents = g.parents_of(n);
            for &(step, target) in reversed.closure_steps_of(state) {
                for &parent in parents {
                    if step.matches(g.label_of(parent)) {
                        activate!('walk, target, parent);
                    }
                }
            }
        }
        Some(false)
    };

    match verdict {
        Some(hit) => Ok((hit, visited)),
        None => Err(BudgetExhausted { visited }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::parse::parse;
    use dkindex_graph::{DataGraph, EdgeKind};

    /// ROOT -> director -> movie -> title
    ///      -> actor    -> movie(2) -> title(2)
    ///      director -ref-> movie(2)
    fn movie_graph() -> (DataGraph, Vec<NodeId>) {
        let mut g = DataGraph::new();
        let director = g.add_labeled_node("director");
        let m1 = g.add_labeled_node("movie");
        let t1 = g.add_labeled_node("title");
        let actor = g.add_labeled_node("actor");
        let m2 = g.add_labeled_node("movie");
        let t2 = g.add_labeled_node("title");
        let r = g.root();
        g.add_edge(r, director, EdgeKind::Tree);
        g.add_edge(director, m1, EdgeKind::Tree);
        g.add_edge(m1, t1, EdgeKind::Tree);
        g.add_edge(r, actor, EdgeKind::Tree);
        g.add_edge(actor, m2, EdgeKind::Tree);
        g.add_edge(m2, t2, EdgeKind::Tree);
        g.add_edge(director, m2, EdgeKind::Reference);
        (g, vec![director, m1, t1, actor, m2, t2])
    }

    fn eval(g: &DataGraph, expr: &str) -> EvalOutcome {
        let e = parse(expr).unwrap();
        let nfa = Nfa::compile(&e, g.labels());
        let idx = LabelIndex::build(g);
        evaluate(g, &nfa, &idx)
    }

    #[test]
    fn linear_query_finds_both_titles() {
        let (g, n) = movie_graph();
        let out = eval(&g, "movie.title");
        assert_eq!(out.matches, vec![n[2], n[5]]);
    }

    #[test]
    fn longer_query_distinguishes_provenance() {
        let (g, n) = movie_graph();
        // Both titles are reachable via director (m2 through the reference).
        let out = eval(&g, "director.movie.title");
        assert_eq!(out.matches, vec![n[2], n[5]]);
        let out = eval(&g, "actor.movie.title");
        assert_eq!(out.matches, vec![n[5]]);
    }

    #[test]
    fn wildcard_and_optional() {
        let (g, n) = movie_graph();
        let out = eval(&g, "ROOT._.movie");
        assert_eq!(out.matches, vec![n[1], n[4]]);
        // Optional hop: ROOT.(_)?.director finds director whether or not an
        // intermediate exists.
        let out = eval(&g, "ROOT.(_)?.director");
        assert_eq!(out.matches, vec![n[0]]);
    }

    #[test]
    fn star_query_over_cycle_terminates() {
        let mut g = DataGraph::new();
        let a = g.add_labeled_node("a");
        let b = g.add_labeled_node("b");
        let r = g.root();
        g.add_edge(r, a, EdgeKind::Tree);
        g.add_edge(a, b, EdgeKind::Tree);
        g.add_edge(b, a, EdgeKind::Reference);
        let out = eval(&g, "a.(b.a)*");
        // All `a` reachable (only one a node, matched at both lengths).
        assert_eq!(out.matches, vec![a]);
        let out2 = eval(&g, "a.b");
        assert_eq!(out2.matches, vec![b]);
    }

    #[test]
    fn no_match_costs_little() {
        let (g, _) = movie_graph();
        let out = eval(&g, "ghost.label");
        assert!(out.matches.is_empty());
        assert_eq!(out.visited, 0);
    }

    #[test]
    fn cost_counts_seeded_and_expanded_nodes() {
        let (g, _) = movie_graph();
        let out = eval(&g, "movie.title");
        // Seeds: 2 movie nodes. Expansion: 2 titles. No revisits.
        assert_eq!(out.visited, 4);
    }

    #[test]
    fn partial_match_seeds_anywhere() {
        let (g, n) = movie_graph();
        let out = eval(&g, "title");
        assert_eq!(out.matches, vec![n[2], n[5]]);
        assert_eq!(out.visited, 2);
    }

    #[test]
    fn matches_ending_at_agrees_with_forward_eval() {
        let (g, _) = movie_graph();
        for expr in [
            "movie.title",
            "director.movie.title",
            "actor.movie.title",
            "ROOT._.movie",
            "a.(b|c)",
            "director.movie",
            "_._.title",
        ] {
            let e = parse(expr).unwrap();
            let nfa = Nfa::compile(&e, g.labels());
            let rev = nfa.reverse();
            let idx = LabelIndex::build(&g);
            let forward = evaluate(&g, &nfa, &idx);
            for node in g.node_ids() {
                let (hit, _) = matches_ending_at(&g, &rev, node);
                assert_eq!(
                    hit,
                    forward.matches.contains(&node),
                    "expr {expr} node {node:?}"
                );
            }
        }
    }

    #[test]
    fn matches_ending_at_on_cycles_terminates() {
        let mut g = DataGraph::new();
        let a = g.add_labeled_node("a");
        let r = g.root();
        g.add_edge(r, a, EdgeKind::Tree);
        g.add_edge(a, a, EdgeKind::Reference); // self loop
        let e = parse("a.a.a.a").unwrap();
        let nfa = Nfa::compile(&e, g.labels());
        let rev = nfa.reverse();
        let (hit, _) = matches_ending_at(&g, &rev, a);
        assert!(hit); // a -> a -> a -> a through the self loop
    }

    /// Run `walk` under every budget up to the oracle's `cost`: each limit
    /// below it aborts having charged exactly the limit, the exact cost
    /// returns the oracle's `want`, and nothing is ever left over.
    fn sweep<T: PartialEq + std::fmt::Debug + Clone>(
        what: &str,
        cost: u64,
        want: T,
        mut walk: impl FnMut(&mut VisitBudget) -> Result<T, BudgetExhausted>,
    ) {
        for limit in 0..=cost {
            let mut budget = VisitBudget::new(limit);
            let expect = if limit < cost {
                Err(BudgetExhausted { visited: limit })
            } else {
                Ok(want.clone())
            };
            assert_eq!(walk(&mut budget), expect, "{what} limit {limit}");
            assert_eq!(budget.remaining(), 0, "{what} limit {limit}");
        }
    }

    /// A ring of `a` nodes under the root, closed by an IDREF edge, and a
    /// `b` leaf beside it: every `a`-path of any length exists, and walks of
    /// `_*` over the ring run far past [`SCAN_LIMIT`] activations.
    fn ring_graph(len: usize) -> (DataGraph, Vec<NodeId>) {
        let mut g = DataGraph::new();
        let ring: Vec<_> = (0..len).map(|_| g.add_labeled_node("a")).collect();
        let r = g.root();
        g.add_edge(r, ring[0], EdgeKind::Tree);
        for pair in ring.windows(2) {
            g.add_edge(pair[0], pair[1], EdgeKind::Tree);
        }
        g.add_edge(ring[len - 1], ring[0], EdgeKind::Reference);
        let b = g.add_labeled_node("b");
        g.add_edge(r, b, EdgeKind::Tree);
        (g, ring)
    }

    /// The one forward walk and the one backward walk against the oracle, at
    /// every budget. One arena serves queries of very different state/node
    /// footprints, so reuse is covered too. On the ring, walks run short →
    /// long → short on that arena: they cross the switch from queue scan to
    /// dense marks at every budget, at and across the switch included.
    #[test]
    fn budget_sweep_matches_the_oracle_forward_and_backward() {
        let ring_a32 = vec!["a"; 32].join(".");
        let ring_a33 = vec!["a"; 33].join(".");
        let cases: [(DataGraph, Vec<&str>); 2] = [
            (
                movie_graph().0,
                vec![
                    "movie.title",
                    "director.movie.title",
                    "_._.title",
                    "ghost.label",
                    "ROOT.(_)?.director",
                    "a.(b|c)",
                    "_*.title",
                    "movie.title", // repeat after the arena has been stretched
                    "title",
                ],
            ),
            (
                ring_graph(40).0,
                vec![
                    "a.a.a.a.a.a",
                    "_*.a",
                    "b._*.a", // no witness: every backward walk exhausts the ring
                    "a.a",
                    "ROOT._*.a",
                    &ring_a32,
                    &ring_a33,
                    "a.a.a.a.a.a",
                ],
            ),
        ];
        let mut arena = EvalArena::new();
        for (g, exprs) in &cases {
            let idx = LabelIndex::build(g);
            for expr in exprs {
                let e = parse(expr).unwrap();
                let nfa = Nfa::compile(&e, g.labels());
                let want = oracle::evaluate(g, &nfa, &idx);
                assert_eq!(evaluate(g, &nfa, &idx), want, "expr {expr}");
                sweep(expr, want.visited, want, |budget| {
                    evaluate_bounded_with(g, &nfa, &idx, &mut arena, budget)
                });

                let rev = nfa.reverse();
                for node in g.node_ids() {
                    let want = oracle::matches_ending_at(g, &rev, node);
                    assert_eq!(matches_ending_at(g, &rev, node), want, "expr {expr} node {node:?}");
                    sweep(&format!("{expr} at {node:?}"), want.1, want, |budget| {
                        matches_ending_at_bounded_with(g, &rev, node, &mut arena, budget)
                    });
                }
            }
        }

        // The switch sits at the bound. A backward `a^k` walk from a ring
        // node charges k activations and queues all but the accepting last,
        // so its last test sees k − 1 queued pairs: 31 keeps a fresh arena
        // off the dense store, 32 allocates it.
        let (g, ring) = ring_graph(40);
        for (expr, dense) in [(&ring_a32, false), (&ring_a33, true)] {
            let rev = Nfa::compile(&parse(expr).unwrap(), g.labels()).reverse();
            let mut fresh = EvalArena::new();
            let mut budget = VisitBudget::unlimited();
            let hit = matches_ending_at_bounded_with(&g, &rev, ring[39], &mut fresh, &mut budget);
            assert_eq!(hit, Ok((true, expr.split('.').count() as u64)), "{expr}");
            assert_eq!(fresh.mark_capacity() > 0, dense, "{expr}");
        }
    }

    /// Validation handing off to an index, against the oracle's hand-off at
    /// every budget. The "index" is the graph itself (each node its own
    /// block), so Theorem 1 holds for any similarities and every verdict
    /// must also equal the plain walk's; per-node similarities make the
    /// hand-off depend on the block. The query's forward walk on the index
    /// runs first, because a hand-off reads its pairs; one hand-off then
    /// serves every candidate, hands off and charges as the oracle's does,
    /// and each limit below the data and verdict visits together aborts
    /// having charged exactly the limit, some inside a verdict's charge.
    #[test]
    fn handoff_budget_sweep_matches_the_oracle() {
        let cases: [(DataGraph, Vec<&str>); 2] = [
            (
                movie_graph().0,
                vec![
                    "director.movie.title",
                    "ROOT._.movie.title",
                    "_._.title",
                    "ROOT.(_)?.director",
                    "movie.(title|ghost)",
                    "actor.movie.title",
                    "_*.title",
                ],
            ),
            (ring_graph(12).0, vec!["a.a.a.a", "ROOT.a.a", "b.a", "a.(a|b).a"]),
        ];
        let mut arena = EvalArena::new();
        let mut handed_off = 0;
        for (g, exprs) in &cases {
            let labels = LabelIndex::build(g);
            let block_of: Vec<NodeId> = g.node_ids().collect();
            let similarity: Vec<usize> = (0..g.node_count()).map(|i| i % 3).collect();
            let (block, sim) = (|d: NodeId| d, |b: NodeId| similarity[b.index()]);
            for expr in exprs {
                let forward = Nfa::compile(&parse(expr).unwrap(), g.labels());
                let walked = forward.reverse();
                let mut side = oracle::IndexSide::new(g, forward.reverse(), &block, &sim);
                let want: Vec<(bool, u64)> = g
                    .node_ids()
                    .map(|n| oracle::matches_ending_at_with_index(g, &walked, n, &mut side))
                    .collect();
                for (n, &(hit, _)) in g.node_ids().zip(&want) {
                    assert_eq!(hit, matches_ending_at(g, &walked, n).0, "{expr} at {n:?}");
                }
                let cost = want.iter().map(|w| w.1).sum::<u64>() + side.index_visits;
                handed_off += usize::from(side.handoffs > 0);
                sweep(expr, cost, (want, side.handoffs, side.index_visits), |budget| {
                    evaluate_bounded_with(g, &forward, &labels, &mut arena, &mut VisitBudget::unlimited())
                        .expect("an unlimited budget");
                    // `_*.title` has no state that can hand off: it runs the plain walk.
                    let mut h = HandOff::begin(&walked, &forward, g, &block_of, &similarity, &mut arena);
                    let mut walks = Vec::new();
                    for n in g.node_ids() {
                        let walk = match h.as_mut() {
                            Some(h) => h.matches_ending_at(g, &walked, n, &mut arena, budget),
                            None => matches_ending_at_bounded_with(g, &walked, n, &mut arena, budget),
                        };
                        match walk {
                            Ok(walk) => walks.push(walk),
                            Err(cut) => {
                                let data: u64 = walks.iter().map(|w| w.1).sum();
                                let index = h.as_ref().map_or(0, HandOff::index_visits);
                                return Err(BudgetExhausted { visited: data + cut.visited + index });
                            }
                        }
                    }
                    let h = h.as_ref();
                    Ok((walks, h.map_or(0, HandOff::handoffs), h.map_or(0, HandOff::index_visits)))
                });
            }
        }
        assert!(handed_off >= 6, "only {handed_off} queries handed off");

        // No state can hand off under similarity 0: the plain walk runs.
        let (g, _) = movie_graph();
        let forward = Nfa::compile(&parse("director.movie.title").unwrap(), g.labels());
        let block_of: Vec<NodeId> = g.node_ids().collect();
        let zero = vec![0; g.node_count()];
        assert!(HandOff::begin(&forward.reverse(), &forward, &g, &block_of, &zero, &mut arena).is_none());
    }

    /// The reached rows are two rows of index nodes per state that can
    /// hand off, not per state of the automaton, allocated on the query's
    /// first hand-off: a walk from a title hands off once, at its movie,
    /// reading a "yes" from the director's slot, charged two index visits;
    /// a second candidate reuses the rows and is charged for its own movie.
    /// The rows are the forward walk's: `begin` declines before that walk,
    /// and a walk after another forward walk runs the plain walk.
    #[test]
    fn the_reached_rows_cover_the_states_that_can_hand_off() {
        let (g, n) = movie_graph();
        let forward = Nfa::compile(&parse("director.movie.title").unwrap(), g.labels());
        let (walked, other) = (forward.reverse(), Nfa::compile(&parse("title").unwrap(), g.labels()));
        let block_of: Vec<NodeId> = g.node_ids().collect();
        let similarity = vec![1; g.node_count()];
        let labels = LabelIndex::build(&g);
        let walk_forward = |nfa: &Nfa, arena: &mut EvalArena| {
            evaluate_bounded_with(&g, nfa, &labels, arena, &mut VisitBudget::unlimited()).unwrap()
        };
        let mut arena = EvalArena::new();
        assert!(HandOff::begin(&walked, &forward, &g, &block_of, &similarity, &mut arena).is_none());
        walk_forward(&forward, &mut arena);
        let before = arena.mark_capacity();
        let mut h = HandOff::begin(&walked, &forward, &g, &block_of, &similarity, &mut arena).unwrap();
        assert_eq!(arena.mark_capacity(), before, "no rows before a hand-off");
        let can = (0..walked.state_count()).map(StateId::from_index);
        let can = can.filter(|&s| !walked.is_accepting(s) && walked.longest_word(s).is_some_and(|l| l <= 1)).count();
        assert!(0 < can && can < walked.state_count());
        let mut budget = VisitBudget::unlimited();
        let walk = h.matches_ending_at(&g, &walked, n[2], &mut arena, &mut budget);
        assert_eq!(walk, Ok((true, 2)), "title, then its movie hands off");
        assert_eq!((h.handoffs(), h.index_visits()), (1, 2));
        assert_eq!(arena.mark_capacity() - before, 2 * can * g.node_count(), "two rows per state that can");
        let walk = h.matches_ending_at(&g, &walked, n[5], &mut arena, &mut budget);
        assert_eq!(walk, Ok((true, 2)), "movie(2) is the director's through the reference");
        assert_eq!((h.handoffs(), h.index_visits()), (2, 4));
        assert_eq!(arena.mark_capacity() - before, 2 * can * g.node_count(), "the same rows");
        walk_forward(&other, &mut arena);
        let walk = h.matches_ending_at(&g, &walked, n[2], &mut arena, &mut budget);
        assert_eq!((walk, h.handoffs()), (Ok(matches_ending_at(&g, &walked, n[2])), 2));
    }

    #[test]
    fn label_index_lists_nodes_per_label() {
        let (g, _) = movie_graph();
        let idx = LabelIndex::build(&g);
        let movie = g.labels().get("movie").unwrap();
        assert_eq!(idx.nodes_with(movie).len(), 2);
        assert_eq!(idx.all_nodes().count(), g.node_count());
    }
}
