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
/// [`matches_ending_at_bounded_with`]: the product-BFS queue, epoch-stamped
/// `(state, node)` activation marks for walks that outgrow a queue scan, and
/// the matched set; for walks that hand off to an index ([`HandOff`]), a
/// second queue and mark store for the index side and the query's verdicts.
/// After warm-up, a batch of queries sharing one arena performs zero
/// steady-state allocation.
#[derive(Clone, Debug, Default)]
pub struct EvalArena {
    active: Marks,
    matched: Marks,
    matched_list: Vec<NodeId>,
    queue: Vec<(StateId, NodeId)>,
    index_active: Marks,
    index_queue: Vec<(StateId, NodeId)>,
    verdicts: Verdicts,
}

impl EvalArena {
    /// Fresh, empty arena. Buffers grow on first use and are reused after.
    pub fn new() -> Self {
        EvalArena::default()
    }

    /// Mark slots this arena retains: the `(state, node)` activation stores
    /// of the walks and of their index side, each as large as the largest
    /// `states × nodes` product of a walk that outgrew its queue scan since
    /// the arena was created (zero if none did), the matched-node store, as
    /// large as the largest graph a forward walk ran over, and the verdict
    /// store, as large as the most states that handed off in one query times
    /// that query's blocks (the queues are bounded by the activations). A
    /// long-lived owner reads it to bound what it keeps between walks.
    pub fn mark_capacity(&self) -> usize {
        self.active.capacity()
            + self.matched.capacity()
            + self.index_active.capacity()
            + self.verdicts.slots.len()
    }
}

/// One query's index-side verdicts, flat and stamped: a row of `blocks`
/// slots per automaton state that handed off in this query, given on its
/// first hand-off, so a query holds rows only for the states that used
/// them. A slot is `stamp << 1 | verdict`, current while its stamp is the
/// query's; [`Verdicts::begin`] starts a query by bumping the stamp.
#[derive(Clone, Debug, Default)]
struct Verdicts {
    slots: Vec<u32>,
    stamp: u32,
    row_of: Vec<u32>,
    rows: usize,
    blocks: usize,
}

impl Verdicts {
    const NO_ROW: u32 = u32::MAX;

    /// Start a query over `states` automaton states and `blocks` blocks:
    /// every verdict becomes unknown and no state has a row.
    fn begin(&mut self, states: usize, blocks: usize) {
        self.row_of.clear();
        self.row_of.resize(states, Self::NO_ROW);
        self.rows = 0;
        self.blocks = blocks;
        if self.stamp == u32::MAX >> 1 {
            // Stamp wrapped: re-zero once every 2^31 - 1 queries.
            self.slots.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
    }

    /// The slot of `(state, block)`, giving `state` its row if it has none.
    fn slot(&mut self, state: StateId, block: NodeId) -> usize {
        let row = &mut self.row_of[state.index()];
        if *row == Self::NO_ROW {
            *row = self.rows as u32;
            self.rows += 1;
            let need = self.rows * self.blocks;
            if self.slots.len() < need {
                self.slots.resize(need, 0);
            }
        }
        *row as usize * self.blocks + block.index()
    }

    /// The verdict in `slot`, if this query stored one.
    fn get(&self, slot: usize) -> Option<bool> {
        let value = self.slots[slot];
        (value >> 1 == self.stamp).then_some(value & 1 == 1)
    }

    fn set(&mut self, slot: usize, verdict: bool) {
        self.slots[slot] = self.stamp << 1 | u32::from(verdict);
    }
}

/// One walk's "is this pair new?" test. Every pair a walk activates is on its
/// queue (a backward walk ends at the one pair it does not push: the one
/// that accepts, or hands off with "yes"), so while the queue is shorter
/// than [`SCAN_LIMIT`] the answer is a scan of it. The first test at that length resets the dense marks once and stamps
/// every queued pair; from then on the marks answer, so a long walk still
/// pays O(1) per test.
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
/// validation walk of a query, so the cap bounds the query's total work, not
/// each phase separately.
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
        queue,
        ..
    } = arena;
    let mut seen = Activations::new(active, states, nodes);
    matched.reset(nodes);
    matched_list.clear();
    queue.clear();
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
    let walk = backward(g, reversed, Seed::Consume(node), active, queue, &mut Expand, budget);
    record_validation(walk)
}

/// The `pathexpr.*` validation telemetry of one backward walk, from a
/// candidate or the index side of a hand-off, completed or aborted.
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
/// word still accepted from `t` has at most `k(B(p))` labels, the rest of
/// the walk can run on the index graph instead: is there an index path
/// ending at `B(p)` that takes `t` to acceptance? That verdict is the same
/// backward walk, started at `(t, B(p))` on the index graph; it is computed
/// once per `(B(p), t)` per query, charged as index visits against the same
/// budget, and shared with every later candidate that reaches the pair. A
/// walk that stops there with a "no" does not expand `p`'s parents.
///
/// The verdict equals the data walk's only on an index that keeps
/// Definition 3, `k(parent) ≥ k(child) − 1` on every index edge, over
/// extents that are as bisimilar as their similarities say: then the index
/// node `i` edges before `B(p)` has similarity at least `k(B(p)) − i`,
/// which is Theorem 1's chain condition for every index path the index
/// side walks. Knowing `k(B(p))` alone is not enough. On an index that
/// breaks Definition 3 (ablation A's index without the broadcast step), an
/// index path may carry a word no member of `B(p)` has, and a hand-off can
/// answer "yes" where the data walk says "no".
///
/// One `HandOff` lives for one query: [`HandOff::begin`] resets the arena's
/// verdicts, so every walk of the query must run on that arena. The walk's
/// automaton and the index side's are reversals of compilations of the
/// same expression (against the data and the index labels), so their
/// states correspond.
#[derive(Debug)]
pub struct HandOff<'a, I> {
    index: &'a I,
    reversed: Nfa,
    block_of: &'a [NodeId],
    similarity: &'a [usize],
    largest: usize,
    handoffs: u64,
    index_visits: u64,
}

impl<'a, I: LabeledGraph> HandOff<'a, I> {
    /// Start one query's hand-off, or `None` when no state of `walked` (the
    /// validation walk's reversed automaton) can hand off: only a state
    /// that does not accept and whose longest remaining word is at most the
    /// largest similarity may. Then the query runs the plain walk.
    ///
    /// `forward` is the query compiled against `index`'s labels (reversed
    /// here, so a query compiles no third automaton), `block_of` maps each
    /// data node to its block and `similarity` gives each block's local
    /// similarity. Resets `arena`'s verdicts.
    pub fn begin(
        walked: &Nfa,
        forward: &Nfa,
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
        if !(0..walked.state_count()).any(qualifies) {
            return None;
        }
        arena.verdicts.begin(walked.state_count(), index.node_count());
        Some(HandOff {
            index,
            reversed: forward.reverse(),
            block_of,
            similarity,
            largest,
            handoffs: 0,
            index_visits: 0,
        })
    }

    /// Pairs that handed off in this query, verdicts reused included.
    pub fn handoffs(&self) -> u64 {
        self.handoffs
    }

    /// Index activations the hand-offs of this query were charged, the
    /// ones of a walk the budget cut included.
    pub fn index_visits(&self) -> u64 {
        self.index_visits
    }

    /// [`matches_ending_at_bounded_with`] handing off to the index. The
    /// returned count, and an abort's, are the walk's data activations; the
    /// index side's are added to [`HandOff::index_visits`]. An abort inside
    /// a hand-off aborts the walk and stores no verdict.
    pub fn matches_ending_at<G: LabeledGraph>(
        &mut self,
        g: &G,
        walked: &Nfa,
        node: NodeId,
        arena: &mut EvalArena,
        budget: &mut VisitBudget,
    ) -> Result<(bool, u64), BudgetExhausted> {
        let EvalArena {
            active,
            queue,
            index_active,
            index_queue,
            verdicts,
            ..
        } = arena;
        let mut stop = ToIndex {
            handoff: self,
            walked,
            verdicts,
            active: index_active,
            queue: index_queue,
        };
        let walk = backward(g, walked, Seed::Consume(node), active, queue, &mut stop, budget);
        record_validation(walk)
    }
}

/// Where a backward walk starts.
#[derive(Clone, Copy)]
enum Seed {
    /// Consume the node's own label from the automaton's start: a
    /// validation walk from a candidate.
    Consume(NodeId),
    /// At the pair, its node's label already consumed: the index side of a
    /// hand-off.
    At(StateId, NodeId),
}

/// What a backward walk asks of each pair it activates that does not
/// accept: stop there with a verdict, or expand it.
trait Stop {
    /// `Some(verdict)` when `(state, node)` hands off, charging the verdict
    /// to `budget`; `None` to expand the pair.
    fn verdict(
        &mut self,
        state: StateId,
        node: NodeId,
        budget: &mut VisitBudget,
    ) -> Result<Option<bool>, BudgetExhausted>;

    /// Did `(state, node)` hand off? Its parents are then not expanded.
    fn handed_off(&self, state: StateId, node: NodeId) -> bool;
}

/// The plain walk: every pair is expanded. Its checks compile away.
struct Expand;

impl Stop for Expand {
    #[inline(always)]
    fn verdict(&mut self, _: StateId, _: NodeId, _: &mut VisitBudget) -> Result<Option<bool>, BudgetExhausted> {
        Ok(None)
    }

    #[inline(always)]
    fn handed_off(&self, _: StateId, _: NodeId) -> bool {
        false
    }
}

/// A data walk's hand-off to the index: the query's [`HandOff`], the
/// arena's verdicts and the index side's scratch.
struct ToIndex<'h, 'a, I> {
    handoff: &'h mut HandOff<'a, I>,
    walked: &'h Nfa,
    verdicts: &'h mut Verdicts,
    active: &'h mut Marks,
    queue: &'h mut Vec<(StateId, NodeId)>,
}

impl<I: LabeledGraph> ToIndex<'_, '_, I> {
    /// `node`'s block when `(state, node)` hands off: every word still
    /// accepted from `state` has at most its block's similarity in labels.
    #[inline]
    fn block(&self, state: StateId, node: NodeId) -> Option<NodeId> {
        let longest = self.walked.longest_word(state).filter(|&l| l <= self.handoff.largest)?;
        let block = *self.handoff.block_of.get(node.index())?;
        let k = *self.handoff.similarity.get(block.index())?;
        (longest <= k).then_some(block)
    }
}

impl<I: LabeledGraph> Stop for ToIndex<'_, '_, I> {
    fn verdict(
        &mut self,
        state: StateId,
        node: NodeId,
        budget: &mut VisitBudget,
    ) -> Result<Option<bool>, BudgetExhausted> {
        let Some(block) = self.block(state, node) else {
            return Ok(None);
        };
        self.handoff.handoffs += 1;
        let slot = self.verdicts.slot(state, block);
        if let Some(known) = self.verdicts.get(slot) {
            return Ok(Some(known));
        }
        let h = &mut *self.handoff;
        let seed = Seed::At(state, block);
        let walk = backward(h.index, &h.reversed, seed, self.active, self.queue, &mut Expand, budget);
        match record_validation(walk) {
            Ok((hit, visited)) => {
                h.index_visits += visited;
                self.verdicts.set(slot, hit);
                Ok(Some(hit))
            }
            Err(cut) => {
                h.index_visits += cut.visited;
                Err(cut)
            }
        }
    }

    #[inline]
    fn handed_off(&self, state: StateId, node: NodeId) -> bool {
        self.block(state, node).is_some()
    }
}

/// The one backward walk, over any graph, from `seed`, with `stop` asked
/// at every pair it activates. Returns the verdict and the activations on
/// `g`.
fn backward<G: LabeledGraph, S: Stop>(
    g: &G,
    reversed: &Nfa,
    seed: Seed,
    active: &mut Marks,
    queue: &mut Vec<(StateId, NodeId)>,
    stop: &mut S,
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
                match stop.verdict(state, node, budget) {
                    Ok(Some(true)) => break $walk Some(true),
                    Ok(_) => queue.push((state, node)),
                    Err(_) => break $walk None,
                }
            }
        }};
    }

    // `None` exactly when the budget ran out.
    let verdict: Option<bool> = 'walk: {
        match seed {
            // A candidate's walk consumes its own label from the reversed
            // start, using the precomputed start-closure transitions (same
            // sequence the oracle's boolean-set scan visits).
            Seed::Consume(node) => {
                let node_label = g.label_of(node);
                for &(step, target) in reversed.closure_steps_of(reversed.start()) {
                    if step.matches(node_label) {
                        activate!('walk, target, node);
                    }
                }
            }
            // An index side starts at its pair.
            Seed::At(state, node) => activate!('walk, state, node),
        }

        let mut head = 0;
        while head < queue.len() {
            let (state, n) = queue[head];
            head += 1;
            if stop.handed_off(state, n) {
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
    /// hand-off depend on the block. One hand-off serves every candidate of
    /// a query, so later candidates reuse verdicts; each limit below the
    /// query's cost aborts having charged exactly the limit, data and index
    /// visits together, and the hand-off it cut still answers every
    /// candidate exactly when resumed under a fresh budget.
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
                handed_off += usize::from(side.index_visits > 0);
                let hits: Vec<bool> = want.iter().map(|w| w.0).collect();
                sweep(expr, cost, (want, side.index_visits), |budget| {
                    // `_*.title` has no state that can hand off: it runs the plain walk.
                    let mut h = HandOff::begin(&walked, &forward, g, &block_of, &similarity, &mut arena);
                    let mut walks = Vec::new();
                    for n in g.node_ids() {
                        let walk = match h.as_mut() {
                            Some(h) => h.matches_ending_at(g, &walked, n, &mut arena, budget),
                            None => matches_ending_at_bounded_with(g, &walked, n, &mut arena, budget),
                        };
                        let index_visits = h.as_ref().map_or(0, HandOff::index_visits);
                        match walk {
                            Ok(walk) => walks.push(walk),
                            Err(cut) => {
                                let data: u64 = walks.iter().map(|w| w.1).sum();
                                let visited = data + cut.visited + index_visits;
                                // A cut hand-off stored no verdict: the same
                                // hand-off, resumed, still answers exactly.
                                if let Some(h) = h.as_mut() {
                                    for (m, &hit) in g.node_ids().zip(&hits) {
                                        let mut fresh = VisitBudget::unlimited();
                                        let again = h.matches_ending_at(g, &walked, m, &mut arena, &mut fresh);
                                        assert_eq!(again.map(|w| w.0), Ok(hit), "{expr} resumed at {m:?}");
                                    }
                                }
                                return Err(BudgetExhausted { visited });
                            }
                        }
                    }
                    Ok((walks, h.as_ref().map_or(0, HandOff::index_visits)))
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

    /// The verdict store holds a row of blocks per state that handed off in
    /// the query, not one per state of the automaton: a walk from a title
    /// hands off once, at its movie, and leaves one row behind.
    #[test]
    fn the_verdict_store_grows_by_the_states_that_hand_off() {
        let (g, n) = movie_graph();
        let forward = Nfa::compile(&parse("director.movie.title").unwrap(), g.labels());
        let walked = forward.reverse();
        let block_of: Vec<NodeId> = g.node_ids().collect();
        let similarity = vec![1; g.node_count()];
        let mut arena = EvalArena::new();
        let mut h = HandOff::begin(&walked, &forward, &g, &block_of, &similarity, &mut arena).unwrap();
        let walk = h.matches_ending_at(&g, &walked, n[2], &mut arena, &mut VisitBudget::unlimited());
        assert_eq!(walk, Ok((true, 2)), "title, then its movie hands off");
        assert_eq!((h.handoffs(), h.index_visits()), (1, 2), "the movie's block, then the director's");
        assert!(walked.state_count() > 1);
        assert_eq!(arena.mark_capacity(), g.node_count(), "one row of verdicts");
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
