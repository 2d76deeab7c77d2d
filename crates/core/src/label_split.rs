//! The label-split index: one index node per label, "the simplest index
//! graph" (paper §4.1) — a D(k)-index with every local similarity 0, and
//! identical to the A(0)-index.

use crate::index_graph::IndexGraph;
use dkindex_graph::DataGraph;
use dkindex_partition::Partition;

/// Build the label-split index of `data`.
pub fn label_split_index(data: &DataGraph) -> IndexGraph {
    let p = Partition::by_label(data);
    let sims = vec![0; p.block_count()];
    IndexGraph::from_data_partition(data, &p, sims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::check_structure;
    use dkindex_graph::{EdgeKind, LabeledGraph};

    #[test]
    fn one_node_per_used_label() {
        let mut g = DataGraph::new();
        let a1 = g.add_labeled_node("a");
        let a2 = g.add_labeled_node("a");
        let b = g.add_labeled_node("b");
        let r = g.root();
        g.add_edge(r, a1, EdgeKind::Tree);
        g.add_edge(r, a2, EdgeKind::Tree);
        g.add_edge(a1, b, EdgeKind::Tree);
        let idx = label_split_index(&g);
        check_structure(&idx, &g).unwrap();
        assert_eq!(idx.size(), 3);
        assert!(idx.node_ids().all(|i| idx.similarity(i) == 0));
    }

    #[test]
    fn matches_a0_of_dk() {
        use crate::dk::construct::DkIndex;
        use crate::requirements::Requirements;
        let mut g = DataGraph::new();
        let a = g.add_labeled_node("a");
        let b = g.add_labeled_node("b");
        let r = g.root();
        g.add_edge(r, a, EdgeKind::Tree);
        g.add_edge(a, b, EdgeKind::Tree);
        let ls = label_split_index(&g);
        let dk = DkIndex::build(&g, Requirements::new());
        assert!(ls.to_partition().same_equivalence(&dk.index().to_partition()));
    }
}
