//! Thompson NFA compilation of path expressions.
//!
//! The automaton alphabet is the [`LabelId`] space of one specific
//! [`dkindex_graph::LabelInterner`]: compilation resolves label names against
//! an interner, and names the interner has never seen produce transitions
//! that can match nothing (the query can still succeed through other
//! branches). A compiled NFA can be [reversed](Nfa::reverse) for the backward
//! walks used by the validation process.
//!
//! Outside this crate an [`Nfa`] is opaque: it is compiled, reversed, sized
//! and asked whether it [accepts](Nfa::accepts) a word, but its states and
//! transitions are `pub(crate)`. So the walks in [`crate::eval`] and their
//! reference in [`crate::oracle`] are the only product walks over it.

use crate::ast::PathExpr;
use dkindex_graph::{LabelId, LabelInterner};

/// State index within an [`Nfa`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub(crate) struct StateId(u32);

impl StateId {
    /// Numeric index of this state.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct a `StateId` from an index previously obtained through
    /// [`StateId::index`]. The caller must keep it in range for the NFA it
    /// is used with.
    #[inline]
    pub(crate) fn from_index(index: usize) -> Self {
        StateId(index as u32)
    }
}

/// A consuming transition: matches one node label.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Step {
    /// Match exactly this label.
    Label(LabelId),
    /// Match any label (the wildcard `_`).
    Any,
}

impl Step {
    /// Does this transition accept `label`?
    #[inline]
    pub(crate) fn matches(self, label: LabelId) -> bool {
        match self {
            Step::Label(l) => l == label,
            Step::Any => true,
        }
    }
}

/// A non-deterministic finite automaton over labels with ε-transitions,
/// a single start state and a single accept state.
#[derive(Clone, Debug)]
pub struct Nfa {
    eps: Vec<Vec<StateId>>,
    steps: Vec<Vec<(Step, StateId)>>,
    start: StateId,
    accept: StateId,
    // Precomputed at construction so the evaluation hot loops never allocate:
    // per-state ε-closures, whether each state's closure contains accept,
    // each closure's consuming transitions flattened in closure order, and
    // each state's longest remaining word (`UNBOUNDED` when none is finite).
    closures: Vec<Vec<StateId>>,
    accepting: Vec<bool>,
    closure_steps: Vec<Vec<(Step, StateId)>>,
    longest: Vec<u32>,
}

/// [`Nfa::longest_word`]'s "no finite bound": a cycle that consumes a label
/// can reach acceptance, or no word is accepted at all.
const UNBOUNDED: u32 = u32::MAX;

/// The longest word each state accepts, over the graph whose edges are the
/// closure steps (each consumes one label): Kahn's algorithm peels the live
/// states (those some word takes to acceptance) from the ones whose live
/// successors are all done, so a state is finished only after every live
/// successor; live states never peeled reach a live cycle and stay
/// [`UNBOUNDED`], as do dead ones.
fn longest_words(accepting: &[bool], closure_steps: &[Vec<(Step, StateId)>]) -> Vec<u32> {
    let n = accepting.len();
    // Predecessors as one CSR: `preds[ends[t - 1]..ends[t]]` step into `t`.
    let mut ends = vec![0usize; n + 1];
    for &(_, t) in closure_steps.iter().flatten() {
        ends[t.index() + 1] += 1;
    }
    for t in 0..n {
        ends[t + 1] += ends[t];
    }
    let mut preds = vec![0usize; ends[n]];
    let mut fill = ends.clone();
    for (s, steps) in closure_steps.iter().enumerate() {
        for &(_, t) in steps {
            preds[fill[t.index()]] = s;
            fill[t.index()] += 1;
        }
    }
    let preds_of = |t: usize| &preds[ends[t]..ends[t + 1]];

    let mut live = accepting.to_vec();
    let mut stack: Vec<usize> = (0..n).filter(|&s| live[s]).collect();
    while let Some(t) = stack.pop() {
        for &s in preds_of(t) {
            if !live[s] {
                live[s] = true;
                stack.push(s);
            }
        }
    }
    let mut pending: Vec<usize> = closure_steps
        .iter()
        .map(|steps| steps.iter().filter(|&&(_, t)| live[t.index()]).count())
        .collect();
    let mut longest = vec![UNBOUNDED; n];
    stack.extend((0..n).filter(|&s| live[s] && pending[s] == 0));
    while let Some(t) = stack.pop() {
        let through = closure_steps[t]
            .iter()
            .filter(|&&(_, u)| live[u.index()])
            .map(|&(_, u)| longest[u.index()].saturating_add(1));
        // A live state either accepts or has a live successor.
        longest[t] = through.chain(accepting[t].then_some(0)).max().unwrap_or(0);
        for &s in preds_of(t) {
            if live[s] {
                pending[s] -= 1;
                if pending[s] == 0 {
                    stack.push(s);
                }
            }
        }
    }
    longest
}

struct Fragment {
    start: StateId,
    accept: StateId,
}

struct Builder {
    eps: Vec<Vec<StateId>>,
    steps: Vec<Vec<(Step, StateId)>>,
}

impl Builder {
    fn state(&mut self) -> StateId {
        let id = StateId(self.eps.len() as u32);
        self.eps.push(Vec::new());
        self.steps.push(Vec::new());
        id
    }

    fn eps(&mut self, from: StateId, to: StateId) {
        self.eps[from.index()].push(to);
    }

    fn step(&mut self, from: StateId, step: Step, to: StateId) {
        self.steps[from.index()].push((step, to));
    }

    fn fragment(&mut self, expr: &PathExpr, labels: &LabelInterner) -> Fragment {
        match expr {
            PathExpr::Label(name) => {
                let start = self.state();
                let accept = self.state();
                // Unknown labels simply get no transition: the fragment's
                // language restricted to this alphabet is empty.
                if let Some(id) = labels.get(name) {
                    self.step(start, Step::Label(id), accept);
                }
                Fragment { start, accept }
            }
            PathExpr::Wildcard => {
                let start = self.state();
                let accept = self.state();
                self.step(start, Step::Any, accept);
                Fragment { start, accept }
            }
            PathExpr::Seq(a, b) => {
                let fa = self.fragment(a, labels);
                let fb = self.fragment(b, labels);
                self.eps(fa.accept, fb.start);
                Fragment {
                    start: fa.start,
                    accept: fb.accept,
                }
            }
            PathExpr::Alt(a, b) => {
                let fa = self.fragment(a, labels);
                let fb = self.fragment(b, labels);
                let start = self.state();
                let accept = self.state();
                self.eps(start, fa.start);
                self.eps(start, fb.start);
                self.eps(fa.accept, accept);
                self.eps(fb.accept, accept);
                Fragment { start, accept }
            }
            PathExpr::Opt(a) => {
                let fa = self.fragment(a, labels);
                let start = self.state();
                let accept = self.state();
                self.eps(start, fa.start);
                self.eps(start, accept);
                self.eps(fa.accept, accept);
                Fragment { start, accept }
            }
            PathExpr::Star(a) => {
                let fa = self.fragment(a, labels);
                let start = self.state();
                let accept = self.state();
                self.eps(start, fa.start);
                self.eps(start, accept);
                self.eps(fa.accept, fa.start);
                self.eps(fa.accept, accept);
                Fragment { start, accept }
            }
        }
    }
}

impl Nfa {
    /// Compile `expr` against the label alphabet of `labels`.
    pub fn compile(expr: &PathExpr, labels: &LabelInterner) -> Nfa {
        let mut b = Builder {
            eps: Vec::new(),
            steps: Vec::new(),
        };
        let frag = b.fragment(expr, labels);
        Nfa::from_parts(b.eps, b.steps, frag.start, frag.accept)
    }

    fn from_parts(
        eps: Vec<Vec<StateId>>,
        steps: Vec<Vec<(Step, StateId)>>,
        start: StateId,
        accept: StateId,
    ) -> Nfa {
        let n = eps.len();
        let closures: Vec<Vec<StateId>> = (0..n)
            .map(|s| {
                let mut set = vec![false; n];
                set[s] = true;
                let mut stack = vec![StateId(s as u32)];
                while let Some(q) = stack.pop() {
                    for &t in &eps[q.index()] {
                        if !set[t.index()] {
                            set[t.index()] = true;
                            stack.push(t);
                        }
                    }
                }
                set.iter()
                    .enumerate()
                    .filter(|&(_, &on)| on)
                    .map(|(i, _)| StateId(i as u32))
                    .collect()
            })
            .collect();
        let accepting: Vec<bool> = closures.iter().map(|c| c.contains(&accept)).collect();
        let closure_steps = closures
            .iter()
            .map(|closure| {
                closure
                    .iter()
                    .flat_map(|&q| steps[q.index()].iter().copied())
                    .collect()
            })
            .collect::<Vec<_>>();
        let longest = longest_words(&accepting, &closure_steps);
        Nfa {
            eps,
            steps,
            start,
            accept,
            closures,
            accepting,
            closure_steps,
            longest,
        }
    }

    /// Number of states.
    #[inline]
    pub fn state_count(&self) -> usize {
        self.eps.len()
    }

    /// The start state.
    #[inline]
    pub(crate) fn start(&self) -> StateId {
        self.start
    }

    /// The accept state.
    #[inline]
    pub(crate) fn accept(&self) -> StateId {
        self.accept
    }

    /// ε-successors of `state`.
    #[inline]
    pub(crate) fn eps_of(&self, state: StateId) -> &[StateId] {
        &self.eps[state.index()]
    }

    /// Consuming transitions out of `state`.
    #[inline]
    pub(crate) fn steps_of(&self, state: StateId) -> &[(Step, StateId)] {
        &self.steps[state.index()]
    }

    /// The automaton recognizing the reversed language: every transition is
    /// flipped, start and accept swap roles. Used by the validation process,
    /// which walks *backward* from a candidate data node along parent edges.
    pub fn reverse(&self) -> Nfa {
        let n = self.state_count();
        let mut eps = vec![Vec::new(); n];
        let mut steps = vec![Vec::new(); n];
        for s in 0..n {
            for &t in &self.eps[s] {
                eps[t.index()].push(StateId(s as u32));
            }
            for &(step, t) in &self.steps[s] {
                steps[t.index()].push((step, StateId(s as u32)));
            }
        }
        Nfa::from_parts(eps, steps, self.accept, self.start)
    }

    /// Expand `set` (a boolean per state) to its ε-closure in place.
    pub(crate) fn eps_close(&self, set: &mut [bool]) {
        debug_assert_eq!(set.len(), self.state_count());
        let mut stack: Vec<StateId> = set
            .iter()
            .enumerate()
            .filter(|&(_, &on)| on)
            .map(|(i, _)| StateId(i as u32))
            .collect();
        while let Some(s) = stack.pop() {
            for &t in self.eps_of(s) {
                if !set[t.index()] {
                    set[t.index()] = true;
                    stack.push(t);
                }
            }
        }
    }

    /// Per-state ε-closures (each row is the closure of the singleton
    /// `{state}`), precomputed at construction so evaluation never recomputes
    /// or allocates them.
    #[inline]
    pub(crate) fn closures(&self) -> &[Vec<StateId>] {
        &self.closures
    }

    /// Does `state`'s ε-closure contain the accept state? Precomputed so the
    /// evaluation hot loop checks acceptance in O(1).
    #[inline]
    pub(crate) fn is_accepting(&self, state: StateId) -> bool {
        self.accepting[state.index()]
    }

    /// Consuming transitions of every state in `state`'s ε-closure, flattened
    /// in closure order — exactly the pairs the nested
    /// `closures()[s] × steps_of(q)` loop yields, in the same order, so hot
    /// loops can use one contiguous slice without changing activation order
    /// (and therefore without changing visit counts).
    #[inline]
    pub(crate) fn closure_steps_of(&self, state: StateId) -> &[(Step, StateId)] {
        &self.closure_steps[state.index()]
    }

    /// The most labels a word accepted from `state` can have: `None` when
    /// there is no bound (a cycle that consumes a label can reach
    /// acceptance) and when no word is accepted from it. Precomputed at
    /// construction; validation hands a walk off to the index when it is at
    /// most a block's local similarity (Theorem 1).
    #[inline]
    pub(crate) fn longest_word(&self, state: StateId) -> Option<usize> {
        let longest = self.longest[state.index()];
        (longest != UNBOUNDED).then_some(longest as usize)
    }

    /// Does the automaton accept the given word (sequence of labels)?
    /// Linear-time subset simulation; used by tests and the workload miner.
    pub fn accepts(&self, word: &[LabelId]) -> bool {
        let mut cur = vec![false; self.state_count()];
        cur[self.start.index()] = true;
        self.eps_close(&mut cur);
        for &label in word {
            let mut next = vec![false; self.state_count()];
            for (s, &on) in cur.iter().enumerate() {
                if !on {
                    continue;
                }
                for &(step, t) in self.steps_of(StateId(s as u32)) {
                    if step.matches(label) {
                        next[t.index()] = true;
                    }
                }
            }
            self.eps_close(&mut next);
            cur = next;
            if !cur.iter().any(|&on| on) {
                return false;
            }
        }
        cur[self.accept.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn interner_with(labels: &[&str]) -> LabelInterner {
        let mut i = LabelInterner::new();
        for l in labels {
            i.intern(l);
        }
        i
    }

    fn ids(i: &LabelInterner, names: &[&str]) -> Vec<LabelId> {
        names.iter().map(|n| i.get(n).unwrap()).collect()
    }

    #[test]
    fn accepts_linear_path() {
        let i = interner_with(&["a", "b", "c"]);
        let nfa = Nfa::compile(&parse("a.b.c").unwrap(), &i);
        assert!(nfa.accepts(&ids(&i, &["a", "b", "c"])));
        assert!(!nfa.accepts(&ids(&i, &["a", "b"])));
        assert!(!nfa.accepts(&ids(&i, &["a", "c", "c"])));
        assert!(!nfa.accepts(&[]));
    }

    #[test]
    fn accepts_alternation() {
        let i = interner_with(&["a", "b", "c"]);
        let nfa = Nfa::compile(&parse("a.(b|c)").unwrap(), &i);
        assert!(nfa.accepts(&ids(&i, &["a", "b"])));
        assert!(nfa.accepts(&ids(&i, &["a", "c"])));
        assert!(!nfa.accepts(&ids(&i, &["b", "c"])));
    }

    #[test]
    fn accepts_optional_and_star() {
        let i = interner_with(&["a", "b"]);
        let opt = Nfa::compile(&parse("a.b?").unwrap(), &i);
        assert!(opt.accepts(&ids(&i, &["a"])));
        assert!(opt.accepts(&ids(&i, &["a", "b"])));
        assert!(!opt.accepts(&ids(&i, &["a", "b", "b"])));

        let star = Nfa::compile(&parse("a.b*").unwrap(), &i);
        assert!(star.accepts(&ids(&i, &["a"])));
        assert!(star.accepts(&ids(&i, &["a", "b", "b", "b"])));
        assert!(!star.accepts(&ids(&i, &["b"])));
    }

    #[test]
    fn wildcard_matches_anything() {
        let i = interner_with(&["a", "zzz"]);
        let nfa = Nfa::compile(&parse("a._").unwrap(), &i);
        assert!(nfa.accepts(&ids(&i, &["a", "zzz"])));
        assert!(nfa.accepts(&ids(&i, &["a", "a"])));
        assert!(!nfa.accepts(&ids(&i, &["a"])));
    }

    #[test]
    fn unknown_label_matches_nothing_but_alternatives_survive() {
        let i = interner_with(&["a"]);
        let dead = Nfa::compile(&parse("ghost").unwrap(), &i);
        assert!(!dead.accepts(&ids(&i, &["a"])));

        let alt = Nfa::compile(&parse("ghost|a").unwrap(), &i);
        assert!(alt.accepts(&ids(&i, &["a"])));
    }

    #[test]
    fn reverse_accepts_reversed_words() {
        let i = interner_with(&["a", "b", "c"]);
        let nfa = Nfa::compile(&parse("a.b.c").unwrap(), &i);
        let rev = nfa.reverse();
        assert!(rev.accepts(&ids(&i, &["c", "b", "a"])));
        assert!(!rev.accepts(&ids(&i, &["a", "b", "c"])));
    }

    #[test]
    fn reverse_of_reverse_is_equivalent() {
        let i = interner_with(&["a", "b"]);
        let nfa = Nfa::compile(&parse("a.b*|b").unwrap(), &i);
        let back = nfa.reverse().reverse();
        for word in [vec!["a"], vec!["a", "b"], vec!["b"], vec!["b", "b"], vec!["a", "a"]] {
            let w = ids(&i, &word);
            assert_eq!(nfa.accepts(&w), back.accepts(&w), "word {word:?}");
        }
    }

    #[test]
    fn closures_contain_self() {
        let i = interner_with(&["a"]);
        let nfa = Nfa::compile(&parse("a?*").unwrap(), &i);
        let closures = nfa.closures();
        for (s, closure) in closures.iter().enumerate() {
            assert!(closure.contains(&StateId(s as u32)));
        }
        // Start of `a?*` reaches accept by epsilons alone.
        assert!(closures[nfa.start().index()].contains(&nfa.accept()));
    }

    /// The longest remaining word per state, against every word up to a
    /// length past any finite bound: finite exactly when no longer word is
    /// accepted, `None` for `*` over a label and for dead states.
    #[test]
    fn longest_words_bound_what_each_state_accepts() {
        let i = interner_with(&["a", "b"]);
        let [a, b] = [ids(&i, &["a"])[0], ids(&i, &["b"])[0]];
        for (expr, start_bound) in [
            ("a.b", Some(2)),
            ("a.(b|a.a)", Some(3)),
            ("a?.b?", Some(2)),
            ("(a?)*", None),
            ("ghost*", Some(0)),
            ("a.b*", None),
            ("ghost.a", None),
            ("ghost|a.a", Some(2)),
        ] {
            let nfa = Nfa::compile(&parse(expr).unwrap(), &i);
            for rev in [false, true] {
                let nfa = if rev { nfa.reverse() } else { nfa.clone() };
                let n = nfa.state_count();
                for s in 0..n {
                    let state = StateId::from_index(s);
                    // Words accepted from `state`: a copy whose start is it.
                    let from = Nfa::from_parts(nfa.eps.clone(), nfa.steps.clone(), state, nfa.accept);
                    let mut words: Vec<Vec<LabelId>> = vec![vec![]];
                    let mut longest: Option<usize> = None;
                    for len in 0..=2 * n {
                        if words.iter().any(|w| from.accepts(w)) {
                            longest = Some(len);
                        }
                        words = words
                            .iter()
                            .flat_map(|w| [a, b].map(|l| [w.as_slice(), &[l]].concat()))
                            .collect();
                        words.truncate(1 << 10);
                    }
                    let want = longest.filter(|&l| l < n);
                    assert_eq!(nfa.longest_word(state), want, "{expr} rev {rev} state {s}");
                }
                if !rev {
                    assert_eq!(nfa.longest_word(nfa.start()), start_bound, "{expr}");
                }
            }
        }
    }

    #[test]
    fn paper_expression_automaton() {
        let i = interner_with(&["movieDB", "movie", "actor", "name", "director"]);
        let nfa = Nfa::compile(&parse("movieDB.(_)?.movie.actor.name").unwrap(), &i);
        assert!(nfa.accepts(&ids(&i, &["movieDB", "movie", "actor", "name"])));
        assert!(nfa.accepts(&ids(&i, &["movieDB", "director", "movie", "actor", "name"])));
        assert!(!nfa.accepts(&ids(&i, &["movieDB", "actor", "name"])));
    }
}
