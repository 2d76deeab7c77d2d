//! Summary statistics for data graphs, used by the experiment harness to
//! report dataset shapes (node/edge counts, reference density, depth, label
//! histogram) alongside each reproduced figure.

use crate::graph::{DataGraph, EdgeKind, LabeledGraph};
use crate::traversal::depth_from_root;
use std::fmt;

/// Aggregate shape statistics for a [`DataGraph`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphStats {
    /// Total node count, including the root.
    pub nodes: usize,
    /// Total directed edge count.
    pub edges: usize,
    /// Number of reference (non-tree) edges.
    pub reference_edges: usize,
    /// Number of distinct labels (including `ROOT`/`VALUE`).
    pub labels: usize,
    /// Maximum shortest-path depth over reachable nodes.
    pub max_depth: usize,
    /// Nodes unreachable from the root (should be 0 for well-formed data).
    pub unreachable: usize,
}

impl GraphStats {
    /// Compute statistics for `g` in O(n + m).
    pub fn of(g: &DataGraph) -> Self {
        let depth = depth_from_root(g);
        let max_depth = depth.iter().flatten().copied().max().unwrap_or(0);
        let unreachable = depth.iter().filter(|d| d.is_none()).count();
        let reference_edges = g
            .edges()
            .filter(|&(_, _, k)| k == EdgeKind::Reference)
            .count();
        GraphStats {
            nodes: g.node_count(),
            edges: g.edge_count(),
            reference_edges,
            labels: g.labels().len(),
            max_depth,
            unreachable,
        }
    }
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes, {} edges ({} refs), {} labels, depth {}",
            self.nodes, self.edges, self.reference_edges, self.labels, self.max_depth
        )
    }
}

/// Per-label node counts, sorted by descending frequency.
pub fn label_histogram(g: &DataGraph) -> Vec<(String, usize)> {
    let mut counts = vec![0usize; g.labels().len()];
    for n in g.node_ids() {
        counts[g.label_of(n).index()] += 1;
    }
    let mut hist: Vec<(String, usize)> = g
        .labels()
        .iter()
        .map(|(id, name)| (name.to_string(), counts[id.index()]))
        .filter(|&(_, c)| c > 0)
        .collect();
    hist.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DataGraph, EdgeKind};

    fn sample() -> DataGraph {
        let mut g = DataGraph::new();
        let a = g.add_labeled_node("a");
        let b1 = g.add_labeled_node("b");
        let b2 = g.add_labeled_node("b");
        let r = g.root();
        g.add_edge(r, a, EdgeKind::Tree);
        g.add_edge(a, b1, EdgeKind::Tree);
        g.add_edge(a, b2, EdgeKind::Tree);
        g.add_edge(b1, b2, EdgeKind::Reference);
        g
    }

    #[test]
    fn stats_count_everything() {
        let s = GraphStats::of(&sample());
        assert_eq!(s.nodes, 4);
        assert_eq!(s.edges, 4);
        assert_eq!(s.reference_edges, 1);
        assert_eq!(s.labels, 4); // ROOT, VALUE, a, b
        assert_eq!(s.max_depth, 2);
        assert_eq!(s.unreachable, 0);
    }

    #[test]
    fn stats_detect_unreachable_nodes() {
        let mut g = sample();
        g.add_labeled_node("orphan");
        assert_eq!(GraphStats::of(&g).unreachable, 1);
    }

    #[test]
    fn histogram_sorted_by_frequency() {
        let hist = label_histogram(&sample());
        assert_eq!(hist[0], ("b".to_string(), 2));
        // VALUE never used, so it is filtered out.
        assert!(hist.iter().all(|(n, _)| n != "VALUE"));
    }

    #[test]
    fn display_is_human_readable() {
        let s = GraphStats::of(&sample());
        let text = s.to_string();
        assert!(text.contains("4 nodes"));
        assert!(text.contains("1 refs"));
    }
}
