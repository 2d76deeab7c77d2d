//! Test-path generation, reproducing the paper's workload (§6.1):
//!
//! "We randomly generate 100 test paths with lengths between 2 and 5 ...
//! First, the program randomly chooses some long query paths; then, from
//! these long paths, many shorter branching paths are generated. These
//! basically simulate query patterns in real XML databases."
//!
//! Lengths are counted in *labels* (so the longest test paths, 5 labels,
//! are exactly the queries for which A(4) is the first sound A(k) — matching
//! the paper's remark that A(4) triggers no validation).

use dkindex_graph::{DataGraph, LabeledGraph, NodeId};
use dkindex_pathexpr::PathExpr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`generate_test_paths`].
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Number of test paths (the paper uses 100).
    pub count: usize,
    /// Minimum path length in labels (paper: 2).
    pub min_labels: usize,
    /// Maximum path length in labels (paper: 5).
    pub max_labels: usize,
    /// Number of seed "long query paths" from which the shorter branching
    /// paths are derived.
    pub long_paths: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            count: 100,
            min_labels: 2,
            max_labels: 5,
            long_paths: 20,
            seed: 2003,
        }
    }
}

/// A generated workload: linear path queries guaranteed to match at least
/// one node path in the data graph they were generated from.
#[derive(Clone, Debug)]
pub struct Workload {
    queries: Vec<PathExpr>,
}

impl Workload {
    /// The query list.
    pub fn queries(&self) -> &[PathExpr] {
        &self.queries
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Histogram of query lengths (in labels).
    pub fn length_histogram(&self) -> Vec<(usize, usize)> {
        let mut counts: std::collections::BTreeMap<usize, usize> = Default::default();
        for q in &self.queries {
            *counts.entry(q.max_word_len().unwrap_or(0)).or_default() += 1;
        }
        counts.into_iter().collect()
    }

    /// Mine per-label similarity requirements from this workload
    /// (delegates to [`dkindex_core::mine_requirements`]).
    pub fn mine_requirements(&self) -> dkindex_core::Requirements {
        dkindex_core::mine_requirements(&self.queries)
    }
}

/// One random downhill walk of exactly `len` labels starting at `start`.
/// Returns `None` if the walk dead-ends early.
fn random_walk(
    data: &DataGraph,
    rng: &mut StdRng,
    start: NodeId,
    len: usize,
) -> Option<Vec<String>> {
    let mut labels = Vec::with_capacity(len);
    let mut node = start;
    labels.push(data.label_name(node).to_string());
    for _ in 1..len {
        let children = data.children_of(node);
        if children.is_empty() {
            return None;
        }
        node = children[rng.gen_range(0..children.len())];
        labels.push(data.label_name(node).to_string());
    }
    Some(labels)
}

fn to_expr(labels: &[String]) -> PathExpr {
    let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    PathExpr::path(&refs)
}

/// Generate the paper's two-phase workload over `data`.
///
/// Phase 1 samples `config.long_paths` random walks of `max_labels` labels
/// (falling back to the longest achievable walk when the graph is shallow).
/// Phase 2 derives the remaining queries as shorter *branching* paths: a
/// random prefix of a long walk is kept and its tail re-walked from a node
/// matching the prefix — producing sibling queries that share prefixes, the
/// shape of real XML query loads.
pub fn generate_test_paths(data: &DataGraph, config: &WorkloadConfig) -> Workload {
    assert!(config.min_labels >= 1 && config.min_labels <= config.max_labels);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let nodes: Vec<NodeId> = data
        .node_ids()
        .filter(|&n| n != data.root())
        .collect();
    assert!(!nodes.is_empty(), "cannot generate a workload for an empty graph");

    // Phase 1: long paths, remembering the node walks for branching.
    let mut long_walks: Vec<(NodeId, Vec<String>)> = Vec::new();
    let mut attempts = 0;
    while long_walks.len() < config.long_paths && attempts < config.long_paths * 50 {
        attempts += 1;
        let start = nodes[rng.gen_range(0..nodes.len())];
        if let Some(labels) = random_walk(data, &mut rng, start, config.max_labels) {
            long_walks.push((start, labels));
        }
    }
    if long_walks.is_empty() {
        // Shallow graph: fall back to the longest walks available.
        for len in (config.min_labels..config.max_labels).rev() {
            for _ in 0..config.long_paths * 10 {
                let start = nodes[rng.gen_range(0..nodes.len())];
                if let Some(labels) = random_walk(data, &mut rng, start, len) {
                    long_walks.push((start, labels));
                }
                if long_walks.len() >= config.long_paths {
                    break;
                }
            }
            if !long_walks.is_empty() {
                break;
            }
        }
    }
    assert!(!long_walks.is_empty(), "graph has no paths of the requested length");

    let mut queries: Vec<PathExpr> = long_walks
        .iter()
        .take(config.count)
        .map(|(_, labels)| to_expr(labels))
        .collect();

    // Phase 2: shorter branching paths.
    let mut guard = 0;
    while queries.len() < config.count && guard < config.count * 100 {
        guard += 1;
        let (start, labels) = &long_walks[rng.gen_range(0..long_walks.len())];
        let target = rng.gen_range(config.min_labels..=config.max_labels.min(labels.len()));
        // Keep a prefix of the walk, then re-walk the tail from the prefix's
        // start to branch onto a sibling path.
        let keep = rng.gen_range(1..=target);
        if let Some(rewalked) = random_walk(data, &mut rng, *start, target) {
            let mut branched: Vec<String> = labels[..keep.min(labels.len())].to_vec();
            branched.extend_from_slice(&rewalked[keep.min(rewalked.len())..]);
            branched.truncate(target);
            if branched.len() >= config.min_labels {
                queries.push(to_expr(&branched));
            }
        }
    }
    queries.truncate(config.count);
    Workload { queries }
}

/// A weighted query stream: the workload's queries with Zipf-like skewed
/// frequencies — "the choice of k_A should guarantee that the majority of
/// queries accessing A are ≤ k_A in length" (paper §4.1) only bites when
/// loads are skewed, which real query logs are. Rank r gets weight
/// ∝ 1/r^s; the returned stream lists each distinct query with its count.
pub fn weighted_stream(
    workload: &Workload,
    total_queries: u64,
    skew: f64,
    seed: u64,
) -> Vec<(PathExpr, u64)> {
    assert!(!workload.is_empty(), "cannot weight an empty workload");
    assert!(skew >= 0.0 && total_queries > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    // Random rank assignment, then Zipf weights over ranks.
    let mut queries: Vec<PathExpr> = workload.queries().to_vec();
    // Fisher–Yates with the seeded RNG for a deterministic permutation.
    for i in (1..queries.len()).rev() {
        queries.swap(i, rng.gen_range(0..=i));
    }
    let harmonic: f64 = (1..=queries.len())
        .map(|r| 1.0 / (r as f64).powf(skew))
        .sum();
    let mut stream: Vec<(PathExpr, u64)> = queries
        .into_iter()
        .enumerate()
        .map(|(i, q)| {
            let share = (1.0 / ((i + 1) as f64).powf(skew)) / harmonic;
            (q, (share * total_queries as f64).round() as u64)
        })
        .filter(|&(_, w)| w > 0)
        .collect();
    // Rounding drift: give any remainder to the head of the distribution.
    let assigned: u64 = stream.iter().map(|&(_, w)| w).sum();
    if assigned < total_queries {
        stream[0].1 += total_queries - assigned;
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkindex_datagen::{xmark_graph, XmarkConfig};

    fn graph() -> DataGraph {
        xmark_graph(&XmarkConfig::tiny())
    }

    #[test]
    fn generates_requested_count() {
        let g = graph();
        let w = generate_test_paths(&g, &WorkloadConfig::default());
        assert_eq!(w.len(), 100);
    }

    #[test]
    fn lengths_stay_in_bounds() {
        let g = graph();
        let w = generate_test_paths(&g, &WorkloadConfig::default());
        for q in w.queries() {
            let p = q.max_word_len().unwrap();
            assert!((2..=5).contains(&p), "query {q} has {p} labels");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let g = graph();
        let c = WorkloadConfig::default();
        let w1 = generate_test_paths(&g, &c);
        let w2 = generate_test_paths(&g, &c);
        assert_eq!(w1.queries(), w2.queries());
    }

    #[test]
    fn different_seeds_differ() {
        let g = graph();
        let w1 = generate_test_paths(&g, &WorkloadConfig::default());
        let w2 = generate_test_paths(
            &g,
            &WorkloadConfig {
                seed: 999,
                ..WorkloadConfig::default()
            },
        );
        assert_ne!(w1.queries(), w2.queries());
    }

    #[test]
    fn every_query_matches_something() {
        let g = graph();
        let w = generate_test_paths(&g, &WorkloadConfig::default());
        let mut nonempty = 0;
        for q in w.queries() {
            let (matches, _) = dkindex_core::evaluate_on_data(&g, q);
            if !matches.is_empty() {
                nonempty += 1;
            }
        }
        // Walks guarantee existence for un-branched paths; branching can
        // occasionally produce non-matching label sequences, but the bulk
        // must be satisfiable.
        assert!(nonempty * 10 >= w.len() * 9, "only {nonempty}/100 match");
    }

    #[test]
    fn mining_produces_positive_requirements() {
        let g = graph();
        let w = generate_test_paths(&g, &WorkloadConfig::default());
        let reqs = w.mine_requirements();
        assert!(reqs.max_requirement() >= 2);
        assert!(reqs.max_requirement() <= 4);
    }

    #[test]
    fn histogram_covers_all_lengths() {
        let g = graph();
        let w = generate_test_paths(&g, &WorkloadConfig::default());
        let hist = w.length_histogram();
        let total: usize = hist.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 100);
        // Long seed paths are always present.
        assert!(hist.iter().any(|&(l, _)| l == 5));
    }

    #[test]
    fn weighted_stream_is_skewed_and_complete() {
        let g = graph();
        let w = generate_test_paths(&g, &WorkloadConfig::default());
        let stream = weighted_stream(&w, 10_000, 1.0, 3);
        let total: u64 = stream.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 10_000);
        // Head query dominates the tail by an order of magnitude.
        let head = stream.iter().map(|&(_, c)| c).max().unwrap();
        let tail = stream.iter().map(|&(_, c)| c).min().unwrap();
        assert!(head >= tail * 10, "head {head} vs tail {tail}");
        // Deterministic.
        assert_eq!(stream, weighted_stream(&w, 10_000, 1.0, 3));
        assert_ne!(stream, weighted_stream(&w, 10_000, 1.0, 4));
    }

    #[test]
    fn weighted_stream_feeds_weighted_mining() {
        let g = graph();
        let w = generate_test_paths(&g, &WorkloadConfig::default());
        let stream = weighted_stream(&w, 1_000, 1.2, 5);
        let mine_at = |support: u64| {
            let supported: Vec<PathExpr> = stream
                .iter()
                .filter(|&&(_, weight)| weight >= support)
                .map(|(q, _)| q.clone())
                .collect();
            dkindex_core::mine_requirements(&supported)
        };
        // With high support, only the hot head queries shape the index.
        assert!(mine_at(50).max_requirement() <= mine_at(1).max_requirement());
    }

    #[test]
    fn zero_skew_is_uniform() {
        let g = graph();
        let w = generate_test_paths(&g, &WorkloadConfig::default());
        let stream = weighted_stream(&w, 100_000, 0.0, 1);
        let head = stream.iter().map(|&(_, c)| c).max().unwrap();
        let tail = stream.iter().map(|&(_, c)| c).min().unwrap();
        assert!(head - tail <= head / 50, "uniform within rounding: {head} vs {tail}");
    }

    #[test]
    fn shallow_graph_falls_back_to_shorter_walks() {
        let mut g = DataGraph::new();
        let a = g.add_labeled_node("a");
        let b = g.add_labeled_node("b");
        let r = g.root();
        g.add_edge(r, a, dkindex_graph::EdgeKind::Tree);
        g.add_edge(a, b, dkindex_graph::EdgeKind::Tree);
        let w = generate_test_paths(
            &g,
            &WorkloadConfig {
                count: 10,
                min_labels: 2,
                max_labels: 5,
                long_paths: 3,
                seed: 1,
            },
        );
        assert!(!w.is_empty());
        for q in w.queries() {
            assert!(q.max_word_len().unwrap() >= 2);
        }
    }
}
