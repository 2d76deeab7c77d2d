//! Lock-free query-load monitoring for the tuning loop.
//!
//! [`LoadMonitor`] is the observation half of the adaptive loop (paper
//! §5.3/§5.4/§7, ARCHITECTURE.md "Live tuning") and is owned by
//! [`crate::tuner::Tuner`]: whoever evaluates queries — epoch readers on
//! every [`crate::serve::Epoch::evaluate`], or an offline caller — feeds it
//! through [`crate::tuner::Tuner::record`], and [`crate::tuner::Tuner::step`]
//! [`LoadMonitor::harvest`]s the window, mines requirements from it, and
//! returns the promote/demote work as an ordinary serve op.
//!
//! Two constraints shape the design:
//!
//! * **No reader-side locking.** Recording a query must never serialize
//!   readers against each other or against the harvesting thread. Every
//!   cell is an `AtomicU64` bumped with `Relaxed` ordering, and the cells
//!   are *sharded*: each recording thread picks a shard by hashing its
//!   thread id, so two readers on different shards never contend on a
//!   cache line. The label universe is fixed while serving (node counts
//!   never change, see `core::serve`), so the per-label table is a dense
//!   `label × length` matrix sized once at construction — recording is two
//!   array index computations and a fetch-add.
//! * **Deterministic harvest.** [`LoadMonitor::harvest`] drains every cell
//!   with `swap(0)` and folds the shards into one [`LoadWindow`]. The
//!   window's [`LoadWindow::weighted_queries`] synthesizes one
//!   representative linear query per occupied `(label, length)` cell in
//!   `(label id, length)` order — a *sorted* mining input, so the same
//!   window always mines the same requirements (the serial-replay oracle
//!   depends on the decision being a pure function of the window).
//!
//! What is recorded per query: the query's maximum word length bucketed
//! against each result label it can end at (the §6.1 attribution: a query
//! of length `p` ending at label `A` demands `k_A ≥ p − 1`), wildcard
//! endings per length (blanket load, attributed to the requirement
//! *floor*), plus validation and memo hit/miss counters. Unbounded queries
//! (`R*` tails) have no finite length requirement and only feed the
//! hit/miss counters, mirroring what the requirement miner would do with
//! them. Lengths beyond [`LoadMonitor::MAX_TRACKED_LEN`] clamp to the top
//! bucket: a deeper-than-tracked query still registers as "deep", it just
//! cannot demand a requirement beyond the cap.

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

use dkindex_graph::LabelInterner;
use dkindex_pathexpr::PathExpr;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One shard of counters. Shards exist only to spread reader traffic
/// across cache lines; their contents are summed at harvest.
#[derive(Debug)]
struct Shard {
    /// `label.index() * MAX_TRACKED_LEN + (len - 1)` → occurrences.
    label_len: Vec<AtomicU64>,
    /// `(len - 1)` → occurrences of wildcard-ending queries of length `len`.
    wildcard_len: Vec<AtomicU64>,
    /// Queries whose outcome required validation.
    validated: AtomicU64,
    /// Queries answered soundly (no validation).
    sound: AtomicU64,
    /// Queries answered from the per-epoch memo.
    memo_hits: AtomicU64,
    /// Queries that ran the evaluator.
    memo_misses: AtomicU64,
}

impl Shard {
    fn new(labels: usize) -> Shard {
        Shard {
            label_len: (0..labels * LoadMonitor::MAX_TRACKED_LEN)
                .map(|_| AtomicU64::new(0))
                .collect(),
            wildcard_len: (0..LoadMonitor::MAX_TRACKED_LEN)
                .map(|_| AtomicU64::new(0))
                .collect(),
            validated: AtomicU64::new(0),
            sound: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            memo_misses: AtomicU64::new(0),
        }
    }
}

/// Sharded, lock-free query-load counters shared between the recording
/// threads (writers) and the thread calling `Tuner::step` (the sole
/// harvester).
#[derive(Debug)]
pub struct LoadMonitor {
    labels: Arc<LabelInterner>,
    shards: Vec<Shard>,
}

impl LoadMonitor {
    /// Longest query length (in words) tracked exactly; deeper queries
    /// clamp into the top bucket. Mined requirements are therefore capped
    /// at `MAX_TRACKED_LEN - 1`, which is far beyond any index depth the
    /// demote hysteresis would sustain.
    pub const MAX_TRACKED_LEN: usize = 16;

    /// Number of shards. A small power of two: enough to keep a handful of
    /// reader threads off each other's cache lines without bloating the
    /// harvest scan.
    const SHARDS: usize = 8;

    /// Build a monitor over `labels` — the label universe of the served
    /// data graph, fixed for the server's lifetime.
    pub fn new(labels: Arc<LabelInterner>) -> LoadMonitor {
        let n = labels.len();
        LoadMonitor {
            labels,
            shards: (0..LoadMonitor::SHARDS).map(|_| Shard::new(n)).collect(),
        }
    }

    /// The shard the calling thread records into. Thread ids are stable
    /// for a thread's lifetime, so each reader keeps hitting one shard.
    ///
    /// Which shard a thread lands on decides contention only, never
    /// content: `harvest` sums every shard, so the window — and every
    /// decision mined from it — is the same whatever the hash says.
    fn shard(&self) -> Option<&Shard> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        // The modulo keeps the index in range; `.get` keeps the reader
        // path free of panic edges even so.
        self.shards.get((h.finish() as usize) % self.shards.len().max(1))
    }

    /// Record one evaluated query: its length against every result label
    /// it can end at, plus the validation and memo outcome. Lock-free —
    /// relaxed fetch-adds on the caller's shard.
    pub fn record(&self, query: &PathExpr, validated: bool, memo_hit: bool) {
        let Some(shard) = self.shard() else { return };
        if validated {
            shard.validated.fetch_add(1, Ordering::Relaxed);
        } else {
            shard.sound.fetch_add(1, Ordering::Relaxed);
        }
        if memo_hit {
            shard.memo_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            shard.memo_misses.fetch_add(1, Ordering::Relaxed);
        }
        // Unbounded queries demand no finite requirement — the miner
        // skips them, so the histogram does too.
        let Some(len) = query.max_word_len() else { return };
        if len == 0 {
            return;
        }
        let bucket = len.min(LoadMonitor::MAX_TRACKED_LEN) - 1;
        let last = query.last_labels();
        if last.wildcard {
            if let Some(cell) = shard.wildcard_len.get(bucket) {
                cell.fetch_add(1, Ordering::Relaxed);
            }
        }
        for label in &last.labels {
            // A result label outside the served graph's universe can never
            // be matched, so there is nothing to tune for it.
            let Some(id) = self.labels.get(label) else { continue };
            let cell = id.index() * LoadMonitor::MAX_TRACKED_LEN + bucket;
            if let Some(cell) = shard.label_len.get(cell) {
                cell.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drain every counter (swap to zero) and fold the shards into one
    /// [`LoadWindow`]. Called from `Tuner::step`; concurrent
    /// records land in either the returned window or the next one, never
    /// both, never neither.
    pub fn harvest(&self) -> LoadWindow {
        let n = self.labels.len();
        let mut window = LoadWindow {
            labels: Arc::clone(&self.labels),
            label_len: vec![0; n * LoadMonitor::MAX_TRACKED_LEN],
            wildcard_len: vec![0; LoadMonitor::MAX_TRACKED_LEN],
            validated: 0,
            sound: 0,
            memo_hits: 0,
            memo_misses: 0,
        };
        for shard in &self.shards {
            for (sum, cell) in window.label_len.iter_mut().zip(&shard.label_len) {
                *sum += cell.swap(0, Ordering::Relaxed);
            }
            for (sum, cell) in window.wildcard_len.iter_mut().zip(&shard.wildcard_len) {
                *sum += cell.swap(0, Ordering::Relaxed);
            }
            window.validated += shard.validated.swap(0, Ordering::Relaxed);
            window.sound += shard.sound.swap(0, Ordering::Relaxed);
            window.memo_hits += shard.memo_hits.swap(0, Ordering::Relaxed);
            window.memo_misses += shard.memo_misses.swap(0, Ordering::Relaxed);
        }
        window
    }
}

/// One harvested observation window: plain (non-atomic) sums, owned by the
/// thread that harvested it. Windows [`LoadWindow::merge`] so a harvest that is
/// still below the configured window size can accumulate into the next
/// one instead of being discarded.
#[derive(Clone, Debug)]
pub struct LoadWindow {
    labels: Arc<LabelInterner>,
    label_len: Vec<u64>,
    wildcard_len: Vec<u64>,
    /// Queries whose outcome required validation.
    pub validated: u64,
    /// Queries answered soundly.
    pub sound: u64,
    /// Queries answered from the per-epoch memo.
    pub memo_hits: u64,
    /// Queries that ran the evaluator.
    pub memo_misses: u64,
}

impl LoadWindow {
    /// Queries recorded into the length histogram (bounded queries only —
    /// the population the requirement miner will see).
    pub fn recorded(&self) -> u64 {
        // Wildcard endings and label endings of the same query both count
        // it; use the larger axis as the histogram population rather than
        // double-counting.
        let by_label: u64 = self.label_len.iter().sum();
        let by_wildcard: u64 = self.wildcard_len.iter().sum();
        by_label.max(by_wildcard)
    }

    /// True when nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.recorded() == 0 && self.validated == 0 && self.sound == 0
    }

    /// Fold `other` into this window (cell-wise sums). Both windows must
    /// come from the same monitor; mismatched tables merge the shared
    /// prefix, which cannot happen for a fixed label universe.
    pub fn merge(&mut self, other: &LoadWindow) {
        for (sum, v) in self.label_len.iter_mut().zip(&other.label_len) {
            *sum += v;
        }
        for (sum, v) in self.wildcard_len.iter_mut().zip(&other.wildcard_len) {
            *sum += v;
        }
        self.validated += other.validated;
        self.sound += other.sound;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
    }

    /// Synthesize the weighted query multiset this window represents, in
    /// `(label id, length)` order — a deterministic input for
    /// [`crate::mining::mine_requirements_weighted`]. Each occupied cell
    /// becomes one representative linear query: `len - 1` wildcards
    /// followed by the result label (or `len` wildcards for the
    /// wildcard-ending cells), which demands exactly the requirement the
    /// recorded queries did.
    pub fn weighted_queries(&self) -> Vec<(PathExpr, u64)> {
        let mut out = Vec::new();
        let rows = self.label_len.chunks(LoadMonitor::MAX_TRACKED_LEN);
        for ((_, name), row) in self.labels.iter().zip(rows) {
            for (bucket, &count) in row.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                let mut expr = PathExpr::label(name);
                for _ in 0..bucket {
                    expr = PathExpr::seq(PathExpr::Wildcard, expr);
                }
                out.push((expr, count));
            }
        }
        for (bucket, &count) in self.wildcard_len.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let mut expr = PathExpr::Wildcard;
            for _ in 0..bucket {
                expr = PathExpr::seq(PathExpr::Wildcard, expr);
            }
            out.push((expr, count));
        }
        out
    }

    /// The labels this window observed as result labels (any length, any
    /// support) — the decay gate for the tuning policy's demotion path
    /// ([`crate::tuner::plan_tuning`]): only an observed label may shrink.
    pub fn observed(&self) -> BTreeSet<String> {
        let rows = self.label_len.chunks(LoadMonitor::MAX_TRACKED_LEN);
        self.labels
            .iter()
            .zip(rows)
            .filter(|(_, row)| row.iter().any(|&c| c > 0))
            .map(|((_, name), _)| name.to_string())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mining::{mine_requirements, mine_requirements_weighted};
    use dkindex_graph::{DataGraph, LabeledGraph};
    use dkindex_pathexpr::parse;

    fn graph() -> DataGraph {
        let mut g = DataGraph::new();
        let m = g.add_labeled_node("movie");
        let t = g.add_labeled_node("title");
        let r = g.root();
        g.add_edge(r, m, dkindex_graph::EdgeKind::Tree);
        g.add_edge(m, t, dkindex_graph::EdgeKind::Tree);
        g
    }

    #[test]
    fn recorded_queries_mine_like_the_original_load() {
        let g = graph();
        let monitor = LoadMonitor::new(g.labels_shared());
        let queries = [
            parse("movie.title").unwrap(),
            parse("movie.title").unwrap(),
            parse("title").unwrap(),
            parse("movie").unwrap(),
        ];
        for q in &queries {
            monitor.record(q, false, false);
        }
        let window = monitor.harvest();
        assert_eq!(window.recorded(), 4);
        let mined = mine_requirements_weighted(&window.weighted_queries(), 0);
        let direct = mine_requirements(&queries);
        assert_eq!(mined.get("title"), direct.get("title"));
        assert_eq!(mined.get("movie"), direct.get("movie"));
        assert_eq!(mined.floor(), direct.floor());
    }

    #[test]
    fn harvest_drains_the_window() {
        let g = graph();
        let monitor = LoadMonitor::new(g.labels_shared());
        monitor.record(&parse("movie.title").unwrap(), true, false);
        let first = monitor.harvest();
        assert_eq!(first.recorded(), 1);
        assert_eq!(first.validated, 1);
        let second = monitor.harvest();
        assert!(second.is_empty());
        assert_eq!(second.recorded(), 0);
    }

    #[test]
    fn wildcard_endings_feed_the_floor() {
        let g = graph();
        let monitor = LoadMonitor::new(g.labels_shared());
        monitor.record(&parse("movie._").unwrap(), false, false);
        let window = monitor.harvest();
        assert!(window.observed().is_empty(), "a wildcard ending observes no label");
        let mined = mine_requirements_weighted(&window.weighted_queries(), 0);
        assert_eq!(mined.floor(), 1);
    }

    #[test]
    fn unbounded_queries_only_count_outcomes() {
        let g = graph();
        let monitor = LoadMonitor::new(g.labels_shared());
        monitor.record(&parse("movie*.title*").unwrap(), false, true);
        let window = monitor.harvest();
        assert_eq!(window.recorded(), 0);
        assert_eq!(window.memo_hits, 1);
    }

    #[test]
    fn unknown_labels_are_ignored() {
        let g = graph();
        let monitor = LoadMonitor::new(g.labels_shared());
        monitor.record(&parse("movie.nosuchlabel").unwrap(), false, false);
        let window = monitor.harvest();
        assert_eq!(window.recorded(), 0);
        assert!(window.observed().is_empty());
    }

    #[test]
    fn windows_merge_cell_wise() {
        let g = graph();
        let monitor = LoadMonitor::new(g.labels_shared());
        monitor.record(&parse("movie.title").unwrap(), false, false);
        let mut acc = monitor.harvest();
        monitor.record(&parse("movie.title").unwrap(), true, false);
        acc.merge(&monitor.harvest());
        assert_eq!(acc.recorded(), 2);
        assert_eq!(acc.validated, 1);
        let mined = mine_requirements_weighted(&acc.weighted_queries(), 2);
        assert_eq!(mined.get("title"), 1);
    }

    #[test]
    fn deep_queries_clamp_to_the_top_bucket() {
        let g = graph();
        let monitor = LoadMonitor::new(g.labels_shared());
        let deep = "_.".repeat(30) + "title";
        monitor.record(&parse(&deep).unwrap(), false, false);
        let window = monitor.harvest();
        assert_eq!(window.recorded(), 1);
        let mined = mine_requirements_weighted(&window.weighted_queries(), 0);
        assert_eq!(mined.get("title"), LoadMonitor::MAX_TRACKED_LEN - 1);
    }
}
