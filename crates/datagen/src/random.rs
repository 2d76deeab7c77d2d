//! Seeded random graph generation for tests and property-based checks:
//! random labeled trees with optional random reference edges.

use dkindex_graph::{DataGraph, EdgeKind, LabeledGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`random_graph`].
#[derive(Clone, Debug)]
pub struct RandomGraphConfig {
    /// Number of nodes to generate beyond the root.
    pub nodes: usize,
    /// Number of distinct labels to draw from (`l0`, `l1`, ...).
    pub labels: usize,
    /// Number of extra reference edges to sprinkle (may create cycles).
    pub reference_edges: usize,
    /// Maximum tree fan-out per node; attachment points are resampled until
    /// one with spare capacity is found.
    pub max_fanout: usize,
    /// RNG seed — equal configs generate equal graphs.
    pub seed: u64,
}

impl Default for RandomGraphConfig {
    fn default() -> Self {
        RandomGraphConfig {
            nodes: 100,
            labels: 5,
            reference_edges: 10,
            max_fanout: 8,
            seed: 42,
        }
    }
}

/// Generate a connected random labeled graph: a random tree (every new node
/// attaches below an existing one) plus random reference edges.
pub fn random_graph(config: &RandomGraphConfig) -> DataGraph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut g = DataGraph::new();
    let label_ids: Vec<_> = (0..config.labels.max(1))
        .map(|i| g.intern(&format!("l{i}")))
        .collect();

    let mut nodes: Vec<NodeId> = vec![g.root()];
    let mut fanout: Vec<usize> = vec![0];
    for _ in 0..config.nodes {
        let label = label_ids[rng.gen_range(0..label_ids.len())];
        let node = g.add_node(label);
        // Pick a parent with spare capacity (the root is unrestricted so the
        // loop always terminates).
        let parent_idx = loop {
            let i = rng.gen_range(0..nodes.len());
            if i == 0 || fanout[i] < config.max_fanout {
                break i;
            }
        };
        g.add_edge(nodes[parent_idx], node, EdgeKind::Tree);
        fanout[parent_idx] += 1;
        nodes.push(node);
        fanout.push(0);
    }

    let mut added = 0;
    let mut attempts = 0;
    while added < config.reference_edges && attempts < config.reference_edges * 20 {
        attempts += 1;
        let u = nodes[rng.gen_range(0..nodes.len())];
        let v = nodes[rng.gen_range(0..nodes.len())];
        if u != v && g.add_edge(u, v, EdgeKind::Reference) {
            added += 1;
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkindex_graph::stats::GraphStats;
    use dkindex_graph::LabeledGraph;

    #[test]
    fn random_graph_is_connected_and_sized() {
        let g = random_graph(&RandomGraphConfig::default());
        let stats = GraphStats::of(&g);
        assert_eq!(stats.nodes, 101);
        assert_eq!(stats.unreachable, 0);
        assert_eq!(stats.reference_edges, 10);
    }

    #[test]
    fn equal_seeds_give_equal_graphs() {
        let c = RandomGraphConfig::default();
        let g1 = random_graph(&c);
        let g2 = random_graph(&c);
        assert!(g1.edges().eq(g2.edges()));
        let labels1: Vec<_> = g1.node_ids().map(|n| g1.label_of(n)).collect();
        let labels2: Vec<_> = g2.node_ids().map(|n| g2.label_of(n)).collect();
        assert_eq!(labels1, labels2);
    }

    #[test]
    fn different_seeds_differ() {
        let g1 = random_graph(&RandomGraphConfig::default());
        let g2 = random_graph(&RandomGraphConfig {
            seed: 7,
            ..RandomGraphConfig::default()
        });
        assert!(!g1.edges().eq(g2.edges()));
    }

    #[test]
    fn fanout_limit_is_respected_for_non_root() {
        let g = random_graph(&RandomGraphConfig {
            nodes: 200,
            max_fanout: 3,
            reference_edges: 0,
            ..RandomGraphConfig::default()
        });
        for n in g.node_ids() {
            if n != g.root() {
                assert!(g.children_of(n).len() <= 3, "node {n:?} exceeds fanout");
            }
        }
    }
}
