//! Adaptive tuning: closing the loop between the query load and the index.
//!
//! The paper prescribes that the promoting and demoting processes "be
//! executed periodically to tune the D(k)-index and keep its high
//! performance" (§5.3–§5.4) and names query-pattern mining as the first
//! direction of future work (§7). [`Tuner`] is that loop, written once:
//!
//! 1. every evaluated query is [`Tuner::record`]ed into lock-free
//!    `(result label, length)` cells — safe to call from any number of
//!    reader threads;
//! 2. [`Tuner::step`] drains the cells into a pending window; once the
//!    window holds [`TunerConfig::window`] recorded queries, requirements
//!    are mined straight from its cells (frequency-filtered, so one stray
//!    deep query does not inflate the index — "the choice of k_A should
//!    guarantee that the majority of queries accessing A are ≤ k_A in
//!    length", §4.1);
//! 3. [`plan_tuning`] compares the mined requirements with the current
//!    ones: labels whose requirement *rose* are promoted; if the load a
//!    label actually received got shallower, the index is demoted — but
//!    only for labels the window *observed*: a label that merely went
//!    unqueried keeps its current requirement, so alternating workloads do
//!    not thrash the index promote/demote every window. Either way the
//!    plan is the target requirements, and the index is rebuilt for them.
//!
//! What a query records: its maximum word length against each result label
//! it can end at (the §6.1 attribution: a query of length `p` ending at
//! label `A` demands `k_A ≥ p − 1`), and against the wildcard cells when
//! it can end at a wildcard (blanket load, attributed to the requirement
//! *floor*). It counts once towards the window whatever number of cells it
//! lands in. Unbounded queries (`R*` tails) and result labels outside the
//! served graph demand nothing and land in no cell, mirroring what
//! [`crate::mining::mine_requirements`] does with them. Lengths beyond
//! [`Tuner::MAX_TRACKED_LEN`] clamp to the top bucket: a deeper query
//! still registers as deep, it just cannot demand more than the cap.
//!
//! Recording never serializes readers against each other or against
//! `step`: every cell is an `AtomicU64` bumped with `Relaxed` ordering in
//! one of a few shards picked by thread id, so readers on different shards
//! never share a cache line. The label universe is fixed while serving, so
//! each shard is a dense `label × length` matrix sized once.
//!
//! `step` never touches an index. It returns the decision as a
//! [`ServeOp::SetRequirements`] for the caller to apply:
//! the serve maintenance thread enqueues it on its own op channel
//! ([`crate::serve`]), offline callers — `dkindex tune`, the examples, the
//! property tests — hand it to [`crate::serve_ops::apply_serial`]. One
//! driver, one application path, so a tuned run can always be replayed.
//!
//! Everything here iterates ordered containers (`BTreeSet`, sorted
//! vectors, label-id order): the same window must always yield the same
//! plan, byte for byte, because tuning decisions are replayed through the
//! serial-application oracle (`clippy::iter_over_hash_type` is denied).
//!
//! ```
//! use dkindex_core::{apply_serial, DkIndex, IndexEvaluator, Requirements, Tuner, TunerConfig};
//! use dkindex_pathexpr::parse;
//! use dkindex_xml::parse_to_graph;
//!
//! let mut data = parse_to_graph("<db><movie><title/></movie></db>").unwrap();
//! let mut dk = DkIndex::build(&data, Requirements::new());
//! let tuner = Tuner::new(data.labels_shared(), TunerConfig { window: 2, min_support: 1 });
//! let q = parse("movie.title").unwrap();
//! for _ in 0..2 {
//!     let out = IndexEvaluator::new(dk.index(), &data).evaluate(&q);
//!     tuner.record(&q, out.validated);
//! }
//! let op = tuner.step(dk.requirements()).expect("a full window of deep queries promotes");
//! apply_serial(&mut dk, &mut data, &[op]);
//! assert!(!IndexEvaluator::new(dk.index(), &data).evaluate(&q).validated);
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::iter_over_hash_type
)]

use crate::requirements::Requirements;
use crate::serve_ops::ServeOp;
use dkindex_graph::LabelInterner;
use dkindex_pathexpr::PathExpr;
use dkindex_telemetry as telemetry;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of cell shards. A small power of two: enough to keep a handful of
/// reader threads off each other's cache lines without bloating the drain.
const SHARDS: usize = 8;

/// Demotion hysteresis: demote only when the retained maximum requirement
/// sits at least `DEMOTE_SLACK + 1` below the current one, so a load that
/// hovers around a boundary does not merge and re-split every window.
const DEMOTE_SLACK: usize = 1;

/// Does retargeting from `current` to `target` demote? A promotion never
/// lowers the maximum requirement, and a demotion lowers it by more than
/// `DEMOTE_SLACK`.
pub fn lowers(current: &Requirements, target: &Requirements) -> bool {
    target.max_requirement() < current.max_requirement()
}

/// Tuning policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct TunerConfig {
    /// Recorded queries a window must hold before [`Tuner::step`] mines
    /// it; smaller harvests accumulate, so a slow trickle of queries still
    /// tunes eventually.
    pub window: usize,
    /// Minimum occurrences within a window for a `(result label, length)`
    /// cell to influence the mined requirements (the "majority" filter of
    /// §4.1).
    pub min_support: u64,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            window: 64,
            min_support: 2,
        }
    }
}

/// A point-in-time view of a [`Tuner`]'s activity, readable from any
/// thread ([`crate::serve::ServeHandle::tuning_stats`]; the network
/// front-end's STATS frame renders these).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuneStats {
    /// Windows that were large enough to mine.
    pub windows: u64,
    /// Steps that planned a promotion: requirements that do not [`lowers`].
    pub promotions: u64,
    /// Steps that planned a demotion: requirements that [`lowers`].
    pub demotions: u64,
}

/// The pure tuning policy behind [`Tuner::step`]: given the current
/// requirements, the mined ones, and the result labels the window observed,
/// decide promote / demote / hold: the target requirements, or `None`.
///
/// * **Promote** when some mined label requirement (or the mined floor)
///   exceeds the current one. The promotion target is the current
///   requirements with the rises merged in — existing guarantees are never
///   given up by a promotion, so it never [`lowers`].
/// * **Demote** only on evidence of shrink: the
///   demotion target keeps every *unobserved* label at its current
///   requirement and lowers observed labels to their mined values (the
///   floor follows the mined floor, as blanket load is only attributable to
///   wildcard queries). The demotion fires only when the target's maximum
///   requirement sits at least `DEMOTE_SLACK + 1` below the current maximum
///   (hysteresis).
/// * **Hold** (`None`) otherwise.
///
/// Deterministic by construction: both inputs are reduced through
/// order-insensitive max-merges ([`Requirements::raise`]), so two calls
/// with equal inputs yield equal plans regardless of any iteration order
/// upstream.
pub fn plan_tuning(
    current: &Requirements,
    mined: &Requirements,
    observed: &BTreeSet<String>,
) -> Option<Requirements> {
    let rises: Vec<(String, usize)> = {
        let mut rises: Vec<(String, usize)> = mined
            .iter()
            .filter(|&(label, k)| k > current.get(label))
            .map(|(l, k)| (l.to_string(), k))
            .collect();
        rises.sort();
        rises
    };
    let mined_floor_rose = mined.floor() > current.floor();

    if !rises.is_empty() || mined_floor_rose {
        let mut merged = current.clone();
        for (label, k) in &rises {
            merged.raise(label, *k);
        }
        if mined_floor_rose {
            merged.raise_floor(mined.floor());
        }
        return Some(merged);
    }

    // Demotion target: observed labels decay to their mined requirement,
    // unobserved labels retain their current one — a label that simply
    // went unqueried this window is not evidence of a shallower load.
    let mut target = Requirements::new();
    target.raise_floor(mined.floor());
    let mut retained: Vec<(&str, usize)> = current.iter().collect();
    retained.sort();
    for (label, k) in retained {
        if !observed.contains(label) {
            target.raise(label, k);
        }
    }
    let mut shrunk: Vec<(&str, usize)> = mined.iter().collect();
    shrunk.sort();
    for (label, k) in shrunk {
        target.raise(label, k);
    }

    // Shrink only when the retained load clearly got shallower (hysteresis).
    (target.max_requirement() + DEMOTE_SLACK < current.max_requirement()).then_some(target)
}

/// One shard of recording cells. Which shard a thread lands on decides
/// contention only, never content: `step` drains every shard into one
/// window, so every decision mined from it is the same whatever the hash.
#[derive(Debug)]
struct Shard {
    /// `label.index() * MAX_TRACKED_LEN + (len - 1)` → queries of length
    /// `len` that can end at `label`.
    label_len: Vec<AtomicU64>,
    /// `len - 1` → queries of length `len` that can end at a wildcard.
    wildcard_len: Vec<AtomicU64>,
    /// Every query recorded, whether or not it landed in a cell.
    queries: AtomicU64,
    /// Queries that landed in at least one cell, each counted once.
    recorded: AtomicU64,
}

impl Shard {
    fn new(labels: usize) -> Shard {
        let cells = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect();
        Shard {
            label_len: cells(labels * Tuner::MAX_TRACKED_LEN),
            wildcard_len: cells(Tuner::MAX_TRACKED_LEN),
            queries: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
        }
    }
}

/// The drained cells of one observation window: plain sums, owned by the
/// thread calling `step`. Harvests too small to act on keep accumulating
/// here until they jointly clear [`TunerConfig::window`].
#[derive(Debug)]
struct Window {
    labels: Arc<LabelInterner>,
    label_len: Vec<u64>,
    wildcard_len: Vec<u64>,
    queries: u64,
    recorded: u64,
}

impl Window {
    fn new(labels: Arc<LabelInterner>) -> Window {
        let cells = labels.len() * Tuner::MAX_TRACKED_LEN;
        Window {
            labels,
            label_len: vec![0; cells],
            wildcard_len: vec![0; Tuner::MAX_TRACKED_LEN],
            queries: 0,
            recorded: 0,
        }
    }

    /// Move every count of `shard` into this window (swap to zero). A
    /// record racing the drain lands in this window or the next, never
    /// both, never neither.
    fn drain(&mut self, shard: &Shard) {
        for (sum, cell) in self.label_len.iter_mut().zip(&shard.label_len) {
            *sum += cell.swap(0, Ordering::Relaxed);
        }
        for (sum, cell) in self.wildcard_len.iter_mut().zip(&shard.wildcard_len) {
            *sum += cell.swap(0, Ordering::Relaxed);
        }
        self.queries += shard.queries.swap(0, Ordering::Relaxed);
        self.recorded += shard.recorded.swap(0, Ordering::Relaxed);
    }

    /// True when nothing at all was recorded, not even a query that landed
    /// in no cell.
    fn is_empty(&self) -> bool {
        self.queries == 0
    }

    /// The requirements this window's load demands: each cell whose count
    /// is non-zero and at least `min_support` raises its label — or, for a
    /// wildcard cell, the floor — to the cell's length − 1. Length-1 cells
    /// demand nothing. A max-merge, so only each row's longest supported
    /// cell matters.
    fn mine(&self, min_support: u64) -> Requirements {
        let longest = |row: &[u64]| {
            row.iter()
                .rposition(|&count| count > 0 && count >= min_support)
                .filter(|&k| k > 0)
        };
        let mut reqs = Requirements::new();
        let rows = self.label_len.chunks(Tuner::MAX_TRACKED_LEN);
        for ((_, name), row) in self.labels.iter().zip(rows) {
            if let Some(k) = longest(row) {
                reqs.raise(name, k);
            }
        }
        if let Some(k) = longest(&self.wildcard_len) {
            reqs.raise_floor(k);
        }
        reqs
    }

    /// The labels this window observed as result labels (any length, any
    /// support) — the decay gate of [`plan_tuning`]'s demotion path: only
    /// an observed label may shrink.
    fn observed(&self) -> BTreeSet<String> {
        let rows = self.label_len.chunks(Tuner::MAX_TRACKED_LEN);
        self.labels
            .iter()
            .zip(rows)
            .filter(|(_, row)| row.iter().any(|&c| c > 0))
            .map(|((_, name), _)| name.to_string())
            .collect()
    }
}

/// The one windowed tuning driver (paper §5.3/§5.4/§7): sharded lock-free
/// cells that any number of readers [`Tuner::record`] into, and a
/// [`Tuner::step`] that turns a full window into at most one [`ServeOp`].
/// Shared by reference (`Arc<Tuner>` in the serve loop); a single thread is
/// expected to call `step`.
#[derive(Debug)]
pub struct Tuner {
    labels: Arc<LabelInterner>,
    shards: Vec<Shard>,
    config: TunerConfig,
    /// The window being filled. Only `step` takes the lock, so it is
    /// uncontended; recording never touches it.
    pending: Mutex<Window>,
    windows: AtomicU64,
    promotions: AtomicU64,
    demotions: AtomicU64,
}

impl Tuner {
    /// Longest query length (in words) tracked exactly; deeper queries
    /// clamp into the top bucket. Mined requirements are therefore capped
    /// at `MAX_TRACKED_LEN - 1`, which is far beyond any index depth the
    /// demote hysteresis would sustain.
    pub const MAX_TRACKED_LEN: usize = 16;

    /// A tuner over `labels` — the label universe of the data graph being
    /// served; result labels outside it can never match and are ignored.
    pub fn new(labels: Arc<LabelInterner>, config: TunerConfig) -> Tuner {
        Tuner {
            shards: (0..SHARDS).map(|_| Shard::new(labels.len())).collect(),
            pending: Mutex::new(Window::new(Arc::clone(&labels))),
            labels,
            config,
            windows: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
        }
    }

    /// The shard the calling thread records into. Thread ids are stable
    /// for a thread's lifetime, so each reader keeps hitting one shard.
    fn shard(&self) -> Option<&Shard> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        // The modulo keeps the index in range; `.get` keeps the reader
        // path free of panic edges even so.
        self.shards.get((h.finish() as usize) % self.shards.len().max(1))
    }

    /// Record one evaluated query and whether it needed validation.
    /// Lock-free: relaxed fetch-adds on the caller's shard.
    pub fn record(&self, query: &PathExpr, validated: bool) {
        telemetry::metrics::TUNER_QUERIES.incr();
        if validated {
            telemetry::metrics::TUNER_VALIDATIONS.incr();
        }
        let Some(shard) = self.shard() else { return };
        shard.queries.fetch_add(1, Ordering::Relaxed);
        let Some(len) = query.max_word_len().filter(|&len| len > 0) else {
            return; // unbounded: no finite requirement to demand
        };
        let bucket = len.min(Tuner::MAX_TRACKED_LEN) - 1;
        let last = query.last_labels();
        let wildcard = shard.wildcard_len.get(bucket).filter(|_| last.wildcard);
        let labelled = last
            .labels
            .iter()
            .filter_map(|label| self.labels.get(label))
            .filter_map(|id| shard.label_len.get(id.index() * Tuner::MAX_TRACKED_LEN + bucket));
        let mut landed = false;
        for cell in wildcard.into_iter().chain(labelled) {
            cell.fetch_add(1, Ordering::Relaxed);
            landed = true;
        }
        if landed {
            shard.recorded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Activity counters since construction.
    pub fn stats(&self) -> TuneStats {
        TuneStats {
            windows: self.windows.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            demotions: self.demotions.load(Ordering::Relaxed),
        }
    }

    /// Drain every shard into the pending window and hand it out locked.
    fn harvest(&self) -> MutexGuard<'_, Window> {
        // A poisoned lock still guards a valid window: draining is plain
        // cell-wise addition and leaves no torn state behind.
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        for shard in &self.shards {
            pending.drain(shard);
        }
        pending
    }

    /// One tuning step against the index's `current` requirements: drain
    /// the cells into the pending window and, once it holds
    /// [`TunerConfig::window`] recorded queries, mine it and return the
    /// planned action — `SetRequirements` to the promoted or demoted
    /// target, `None` to hold (or when the window is not full yet). An empty
    /// window carries no evidence about the load and never plans anything,
    /// even under a degenerate `window` of zero.
    ///
    /// The decision is a pure function of `current` and the drained window,
    /// so a run is reproduced exactly by applying the returned ops in order
    /// ([`crate::serve_ops::apply_serial`]).
    pub fn step(&self, current: &Requirements) -> Option<ServeOp> {
        let _span = telemetry::Span::start(&telemetry::metrics::TUNER_PLAN_NS);
        let window = {
            let mut pending = self.harvest();
            if pending.is_empty() || pending.recorded < self.config.window as u64 {
                return None;
            }
            std::mem::replace(&mut *pending, Window::new(Arc::clone(&self.labels)))
        };
        self.windows.fetch_add(1, Ordering::Relaxed);
        telemetry::metrics::TUNER_WINDOWS.incr();
        let mined = window.mine(self.config.min_support);
        let target = plan_tuning(current, &mined, &window.observed())?;
        if lowers(current, &target) {
            self.demotions.fetch_add(1, Ordering::Relaxed);
            telemetry::metrics::TUNER_DEMOTIONS.incr();
        } else {
            self.promotions.fetch_add(1, Ordering::Relaxed);
            telemetry::metrics::TUNER_PROMOTIONS.incr();
        }
        telemetry::metrics::TUNER_OPS.incr();
        Some(ServeOp::SetRequirements(target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::check_structure;
    use crate::dk::construct::DkIndex;
    use crate::eval::{evaluate_on_data, IndexEvalOutcome, IndexEvaluator};
    use crate::mining::mine_requirements;
    use crate::serve_ops::apply_serial;
    use dkindex_graph::{DataGraph, EdgeKind, LabeledGraph};
    use dkindex_pathexpr::parse;
    use proptest::prelude::*;

    fn data() -> DataGraph {
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

    /// An index under tuning, driven the way every offline caller drives
    /// it: evaluate + record, then step and apply the op serially.
    struct Tuned {
        g: DataGraph,
        dk: DkIndex,
        tuner: Tuner,
    }

    impl Tuned {
        fn new(reqs: Requirements, window: usize, min_support: u64) -> Tuned {
            let g = data();
            let dk = DkIndex::build(&g, reqs);
            let tuner = Tuner::new(g.labels_shared(), TunerConfig { window, min_support });
            Tuned { g, dk, tuner }
        }

        fn serve(&self, query: &str, times: usize) -> IndexEvalOutcome {
            let q = parse(query).unwrap();
            let out = IndexEvaluator::new(self.dk.index(), &self.g).evaluate(&q);
            for _ in 0..times {
                self.tuner.record(&q, out.validated);
            }
            out
        }

        fn tune(&mut self) -> Option<ServeOp> {
            let op = self.tuner.step(self.dk.requirements())?;
            apply_serial(&mut self.dk, &mut self.g, std::slice::from_ref(&op));
            Some(op)
        }
    }

    #[test]
    fn window_must_fill_before_tuning() {
        let mut t = Tuned::new(Requirements::new(), 10, 2);
        t.serve("movie.title", 9);
        assert_eq!(t.tune(), None);
        // The ninth-query harvest stays pending; one more query fills it.
        t.serve("movie.title", 1);
        assert!(matches!(t.tune(), Some(ServeOp::SetRequirements(_))));
        assert_eq!(t.tuner.stats().windows, 1);
    }

    #[test]
    fn repeated_long_queries_promote_and_stop_validation() {
        let mut t = Tuned::new(Requirements::new(), 4, 2);
        let size_before = t.dk.size();
        assert!(t.serve("director.movie.title", 4).validated); // label-split validates
        assert!(matches!(t.tune(), Some(ServeOp::SetRequirements(_))));
        assert!(t.dk.size() > size_before, "promotion must split extents");
        assert!(!t.serve("director.movie.title", 1).validated);
        assert_eq!(t.tuner.stats().promotions, 1);
    }

    #[test]
    fn rare_deep_queries_are_ignored_by_min_support() {
        let mut t = Tuned::new(Requirements::new(), 4, 2);
        t.serve("ROOT.director.movie.title", 1); // once: below min_support 2
        t.serve("title", 3);
        assert_eq!(t.tune(), None);
        assert_eq!(t.tuner.stats().windows, 1, "the window was mined, and held");
        assert_eq!(t.dk.requirements().max_requirement(), 0);
    }

    #[test]
    fn shallower_load_eventually_demotes() {
        let mut t = Tuned::new(Requirements::uniform(3), 4, 1);
        let size_before = t.dk.size();
        t.serve("title", 4); // zero-requirement load
        assert!(matches!(t.tune(), Some(ServeOp::SetRequirements(r)) if r.max_requirement() == 0));
        assert!(t.dk.size() < size_before);
        assert_eq!(t.tuner.stats().demotions, 1);
    }

    #[test]
    fn empty_window_never_tunes_even_with_zero_window_config() {
        let mut t = Tuned::new(Requirements::uniform(3), 0, 1);
        let size_before = t.dk.size();
        // `0 recorded >= window 0`, but there is no evidence to act on:
        // the degenerate config must not demote the index to nothing.
        assert_eq!(t.tune(), None);
        assert_eq!(t.dk.size(), size_before);
        assert_eq!(t.tuner.stats().windows, 0);
    }

    #[test]
    fn tuned_index_remains_exact() {
        let mut t = Tuned::new(Requirements::new(), 3, 1);
        let queries = ["movie.title", "director.movie.title", "actor.movie"];
        for q in queries {
            let truth = evaluate_on_data(&t.g, &parse(q).unwrap()).0;
            assert_eq!(t.serve(q, 1).matches, truth);
        }
        assert!(t.tune().is_some(), "three deep queries at support 1 must promote");
        check_structure(t.dk.index(), &t.g).unwrap();
        for q in queries {
            let truth = evaluate_on_data(&t.g, &parse(q).unwrap()).0;
            assert_eq!(t.serve(q, 1).matches, truth);
        }
    }

    /// The oscillation regression (ISSUE 9): a label promoted in window N
    /// that simply goes *unqueried* in window N+1 must keep its
    /// requirement. Under a wholesale demote-to-mined policy, an
    /// alternating deep-A / shallow-B workload thrashes split/merge every
    /// window; here both of the later windows are strict holds.
    #[test]
    fn alternating_workloads_do_not_thrash() {
        let mut t = Tuned::new(Requirements::new(), 4, 2);
        let deep = "ROOT.director.movie.title"; // title: 3
        let shallow = "actor.movie"; // movie: 1

        // Window 1: deep load promotes `title` to 3.
        t.serve(deep, 4);
        assert!(matches!(t.tune(), Some(ServeOp::SetRequirements(_))));
        assert_eq!(t.dk.requirements().get("title"), 3);

        // Window 2: only the shallow load — `title` is unqueried, not
        // shrunk. The shallow label still gets its promotion, but a
        // demote-to-mined policy would also drop `title` back to zero here.
        t.serve(shallow, 4);
        t.tune();
        assert_eq!(t.dk.requirements().get("title"), 3);
        assert_eq!(t.dk.requirements().get("movie"), 1);

        // Windows 3 and 4: the workload keeps alternating; the index has
        // converged, so tuning must hold — no repeated split/merge churn.
        t.serve(shallow, 4);
        assert_eq!(t.tune(), None);
        t.serve(deep, 4);
        assert_eq!(t.tune(), None);
        assert_eq!(t.dk.requirements().get("title"), 3);
        assert_eq!(t.dk.requirements().get("movie"), 1);
        assert_eq!(t.tuner.stats().windows, 4);
    }

    /// Genuine shrink still demotes: the same label queried *shallowly*
    /// (not merely unqueried) is evidence the load got shallower.
    #[test]
    fn observed_shrink_still_demotes() {
        let mut t = Tuned::new(Requirements::new(), 4, 1);
        t.serve("ROOT.director.movie.title", 4);
        assert!(matches!(t.tune(), Some(ServeOp::SetRequirements(_))));
        // The *same* result label, now only ever reached by length-1
        // queries: observed shrinking, demote fires.
        t.serve("title", 4);
        assert!(matches!(t.tune(), Some(ServeOp::SetRequirements(_))));
        assert_eq!(t.tuner.stats().demotions, 1);
        assert_eq!(t.dk.requirements().get("title"), 0);
    }

    /// Determinism (ISSUE 9): the same query sequence must produce the same
    /// tuner ops and a byte-identical index across repeated runs — the
    /// property the serve path's serial-replay oracle depends on.
    #[test]
    fn tuner_is_deterministic_across_runs() {
        use crate::snapshot::snapshot_bytes;
        let queries = [
            "director.movie.title",
            "actor.movie",
            "movie.title",
            "title",
            "ROOT.director.movie.title",
            "actor.movie.title",
        ];
        let run = || {
            let mut t = Tuned::new(Requirements::new(), 3, 1);
            let mut ops = Vec::new();
            for (i, q) in queries.iter().cycle().take(24).enumerate() {
                t.serve(q, 1);
                if i % 3 == 2 {
                    ops.push(t.tune());
                }
            }
            (ops, snapshot_bytes(&t.dk, &t.g))
        };
        let (first_ops, first_bytes) = run();
        assert!(first_ops.iter().any(Option::is_some), "the run must tune at all");
        for _ in 0..4 {
            let (ops, bytes) = run();
            assert_eq!(ops, first_ops, "tuner ops diverged across runs");
            assert_eq!(bytes, first_bytes, "tuned index bytes diverged across runs");
        }
    }

    /// Regression: a query counts once towards the window, however many
    /// cells its result labels land in. An alternation used to count once
    /// per label, so two of them filled a window of four.
    #[test]
    fn an_alternation_counts_once_towards_the_window() {
        let mut t = Tuned::new(Requirements::new(), 4, 1);
        t.serve("movie.(title|actor)", 2);
        assert_eq!(t.tune(), None);
        assert_eq!(t.tuner.stats().windows, 0, "two queries must not fill a window of 4");
        t.serve("movie.(title|actor)", 2);
        assert!(matches!(t.tune(), Some(ServeOp::SetRequirements(_))));
        assert_eq!(t.tuner.stats().windows, 1);
    }

    /// The mining property's query pool: linear paths, an optional step, an
    /// alternation, wildcard endings, unbounded queries, and labels outside
    /// the graph, both as a result label and before one.
    const POOL: [&str; 12] = [
        "title",
        "movie.title",
        "director.movie.title",
        "ROOT.(_)?.movie.title",
        "movie.(title|actor)",
        "director._",
        "movie.(_)?",
        "_._.title",
        "ghost.movie.title",
        "movie.ghost",
        "movie.title*",
        "_*.movie",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// A window mined at support 0 demands exactly what
        /// `mine_requirements` demands of the queries it tracks: the bounded
        /// ones whose result labels lie in the graph, at most
        /// `MAX_TRACKED_LEN` labels long. It observes their result labels,
        /// counts each of them once towards the window, and counts every
        /// recorded query towards emptiness.
        #[test]
        fn a_window_mines_like_the_queries_it_tracks(
            weights in prop::collection::vec(0usize..5, POOL.len()),
        ) {
            let g = data();
            let tuner = Tuner::new(g.labels_shared(), TunerConfig { window: 0, min_support: 0 });
            let load: Vec<PathExpr> = POOL
                .iter()
                .zip(&weights)
                .flat_map(|(q, &w)| std::iter::repeat_n(parse(q).unwrap(), w))
                .collect();
            for q in &load {
                tuner.record(q, false);
            }
            let tracked: Vec<PathExpr> = load
                .iter()
                .filter(|q| {
                    q.max_word_len().is_some_and(|len| len <= Tuner::MAX_TRACKED_LEN)
                        && q.last_labels().labels.iter().all(|l| g.labels().get(l).is_some())
                })
                .cloned()
                .collect();
            let observed: BTreeSet<String> =
                tracked.iter().flat_map(|q| q.last_labels().labels).collect();
            let window = tuner.harvest();
            prop_assert_eq!(window.mine(0), mine_requirements(&tracked));
            prop_assert_eq!(window.observed(), observed);
            prop_assert_eq!(window.recorded, tracked.len() as u64);
            prop_assert_eq!(window.queries, load.len() as u64);
        }
    }

    /// A query deeper than the tracked lengths still registers as deep, but
    /// demands no more than the top bucket.
    #[test]
    fn a_deep_query_clamps_to_the_top_bucket() {
        let tuner = Tuner::new(data().labels_shared(), TunerConfig::default());
        let deep = parse(&("_.".repeat(30) + "title")).unwrap();
        tuner.record(&deep, true);
        let window = tuner.harvest();
        assert_eq!(window.recorded, 1);
        assert_eq!(window.mine(0).get("title"), Tuner::MAX_TRACKED_LEN - 1);
        assert_eq!(mine_requirements(&[deep]).get("title"), 30);
    }
}
