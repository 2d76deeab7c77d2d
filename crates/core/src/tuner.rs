//! Adaptive tuning: closing the loop between the query load and the index.
//!
//! The paper prescribes that the promoting and demoting processes "be
//! executed periodically to tune the D(k)-index and keep its high
//! performance" (§5.3–§5.4) and names query-pattern mining as the first
//! direction of future work (§7). [`Tuner`] is that loop, written once:
//!
//! 1. every evaluated query is [`Tuner::record`]ed into a lock-free
//!    [`LoadMonitor`] (per-result-label length histogram, validation and
//!    memo counters) — safe to call from any number of reader threads;
//! 2. [`Tuner::step`] harvests the monitor into a pending window; once the
//!    window holds [`TunerConfig::window`] recorded queries, requirements
//!    are mined from it (frequency-weighted, so one stray deep query does
//!    not inflate the index — "the choice of k_A should guarantee that the
//!    majority of queries accessing A are ≤ k_A in length", §4.1);
//! 3. [`plan_tuning`] compares the mined requirements with the current
//!    ones: labels whose requirement *rose* are promoted; if the load a
//!    label actually received got shallower, the index is demoted — but
//!    only for labels the window *observed*: a label that merely went
//!    unqueried keeps its current requirement, so alternating workloads do
//!    not thrash the index promote/demote every window.
//!
//! `step` never touches an index. It returns the decision as a
//! [`ServeOp`] (`SetRequirements` or `Demote`) for the caller to apply:
//! the serve maintenance thread enqueues it on its own op channel
//! ([`crate::serve`]), offline callers — `dkindex tune`, the examples, the
//! property tests — hand it to [`crate::serve_ops::apply_serial`]. One
//! driver, one application path, so a tuned run can always be replayed.
//!
//! Everything here iterates ordered containers (`BTreeSet`, sorted
//! vectors): the same window must always yield the same plan, byte for
//! byte, because tuning decisions are replayed through the
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
//!     tuner.record(&q, out.validated, false);
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

use crate::load_monitor::{LoadMonitor, LoadWindow};
use crate::mining::mine_requirements_weighted;
use crate::requirements::Requirements;
use crate::serve_ops::ServeOp;
use dkindex_graph::LabelInterner;
use dkindex_pathexpr::PathExpr;
use dkindex_telemetry as telemetry;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Demotion hysteresis: demote only when the retained maximum requirement
/// sits at least `DEMOTE_SLACK + 1` below the current one, so a load that
/// hovers around a boundary does not merge and re-split every window.
const DEMOTE_SLACK: usize = 1;

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
    /// Steps that planned a promotion (`SetRequirements`).
    pub promotions: u64,
    /// Steps that planned a demotion (`Demote`).
    pub demotions: u64,
}

/// The decision of one tuning step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TuningPlan {
    /// The mined load matches the current index: hold.
    Hold,
    /// Replace the requirements with the carried value and promote up to
    /// them (some label's requirement rose).
    Promote(Requirements),
    /// Demote the index down to the carried requirements (the observed
    /// load got shallower; unobserved labels are retained as-is).
    Demote(Requirements),
}

/// The pure tuning policy behind [`Tuner::step`]: given the current
/// requirements, the mined ones, and the result labels the window observed,
/// decide promote / demote / hold.
///
/// * **Promote** when some mined label requirement (or the mined floor)
///   exceeds the current one. The promotion target is the current
///   requirements with the rises merged in — existing guarantees are never
///   given up by a promotion.
/// * **Demote** only on evidence of shrink: the demotion target keeps every
///   *unobserved* label at its current requirement and lowers observed
///   labels to their mined values (the floor follows the mined floor, as
///   blanket load is only attributable to wildcard queries). The demotion
///   fires only when the target's maximum requirement sits at least
///   `DEMOTE_SLACK + 1` below the current maximum (hysteresis).
/// * **Hold** otherwise.
///
/// Deterministic by construction: both inputs are reduced through
/// order-insensitive max-merges ([`Requirements::raise`]), so two calls
/// with equal inputs yield equal plans regardless of any iteration order
/// upstream.
pub fn plan_tuning(
    current: &Requirements,
    mined: &Requirements,
    observed: &BTreeSet<String>,
) -> TuningPlan {
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
        return TuningPlan::Promote(merged);
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
    if target.max_requirement() + DEMOTE_SLACK < current.max_requirement() {
        return TuningPlan::Demote(target);
    }
    TuningPlan::Hold
}

/// The one windowed tuning driver (paper §5.3/§5.4/§7): a lock-free
/// [`LoadMonitor`] that any number of readers [`Tuner::record`] into, and
/// a [`Tuner::step`] that turns a full window into at most one [`ServeOp`].
/// Shared by reference (`Arc<Tuner>` in the serve loop); a single thread is
/// expected to call `step`.
#[derive(Debug)]
pub struct Tuner {
    monitor: LoadMonitor,
    config: TunerConfig,
    /// Harvests too small to act on accumulate here until they jointly
    /// clear [`TunerConfig::window`]. Only `step` takes the lock, so it is
    /// uncontended; recording never touches it.
    pending: Mutex<Option<LoadWindow>>,
    windows: AtomicU64,
    promotions: AtomicU64,
    demotions: AtomicU64,
}

impl Tuner {
    /// A tuner over `labels` — the label universe of the data graph being
    /// served; result labels outside it can never match and are ignored.
    pub fn new(labels: Arc<LabelInterner>, config: TunerConfig) -> Tuner {
        Tuner {
            monitor: LoadMonitor::new(labels),
            config,
            pending: Mutex::new(None),
            windows: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
        }
    }

    /// Record one evaluated query and its outcome. Lock-free (relaxed
    /// fetch-adds on the caller's monitor shard).
    pub fn record(&self, query: &PathExpr, validated: bool, memo_hit: bool) {
        self.monitor.record(query, validated, memo_hit);
        telemetry::metrics::TUNER_QUERIES.incr();
        if validated {
            telemetry::metrics::TUNER_VALIDATIONS.incr();
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

    /// One tuning step against the index's `current` requirements: harvest
    /// the monitor into the pending window and, once it holds
    /// [`TunerConfig::window`] recorded queries, mine it and return the
    /// planned action — `SetRequirements` to promote, `Demote` to shrink,
    /// `None` to hold (or when the window is not full yet). An empty
    /// window carries no evidence about the load and never plans anything,
    /// even under a degenerate `window` of zero.
    ///
    /// The decision is a pure function of `current` and the drained window,
    /// so a run is reproduced exactly by applying the returned ops in order
    /// ([`crate::serve_ops::apply_serial`]).
    pub fn step(&self, current: &Requirements) -> Option<ServeOp> {
        let _span = telemetry::Span::start(&telemetry::metrics::TUNER_PLAN_NS);
        let harvest = self.monitor.harvest();
        // A poisoned lock still guards a valid window: `merge` is plain
        // cell-wise addition and leaves no torn state behind.
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        if !harvest.is_empty() {
            match pending.as_mut() {
                Some(window) => window.merge(&harvest),
                None => *pending = Some(harvest),
            }
        }
        let window = pending.take_if(|w| w.recorded() >= self.config.window as u64)?;
        drop(pending);
        self.windows.fetch_add(1, Ordering::Relaxed);
        telemetry::metrics::TUNER_WINDOWS.incr();
        let mined = mine_requirements_weighted(&window.weighted_queries(), self.config.min_support);
        let op = match plan_tuning(current, &mined, &window.observed()) {
            TuningPlan::Promote(reqs) => {
                self.promotions.fetch_add(1, Ordering::Relaxed);
                telemetry::metrics::TUNER_PROMOTIONS.incr();
                ServeOp::SetRequirements(reqs)
            }
            TuningPlan::Demote(reqs) => {
                self.demotions.fetch_add(1, Ordering::Relaxed);
                telemetry::metrics::TUNER_DEMOTIONS.incr();
                ServeOp::Demote(reqs)
            }
            TuningPlan::Hold => return None,
        };
        telemetry::metrics::TUNER_OPS.incr();
        Some(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::check_structure;
    use crate::dk::construct::DkIndex;
    use crate::eval::{evaluate_on_data, IndexEvalOutcome, IndexEvaluator};
    use crate::serve_ops::apply_serial;
    use dkindex_graph::{DataGraph, EdgeKind, LabeledGraph};
    use dkindex_pathexpr::parse;

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
                self.tuner.record(&q, out.validated, false);
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
        assert!(matches!(t.tune(), Some(ServeOp::Demote(_))));
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
        assert!(matches!(t.tune(), Some(ServeOp::Demote(_))));
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
}
