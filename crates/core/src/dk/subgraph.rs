//! Algorithm 3: the D(k)-index subgraph-addition update (paper §5.1).
//!
//! Inserting a new file into the database = grafting a new subgraph `H`
//! under the root of the data graph. The update (1) builds the D(k)-index
//! `I_H` of `H` with the same per-label requirements, (2) grafts `I_H` under
//! the root of `I_G`, and (3) treats the combined index graph as a data graph
//! and recomputes its D(k)-index, merging extents. Correctness rests on
//! Theorem 2: the D(k)-index built from any refinement of a D(k)-index is
//! the D(k)-index itself — and the stitched graph is such a refinement,
//! because grafting under the root changes no incoming path of an existing
//! node.

use crate::dk::construct::DkIndex;
use crate::index_graph::IndexGraph;
use dkindex_graph::{DataGraph, LabeledGraph, NodeId};

impl DkIndex {
    /// Subgraph-addition update: graft `sub` under `data`'s root and repair
    /// the index without re-reading the old data graph. Returns the mapping
    /// from `sub`'s node ids to the new ids in `data`.
    pub fn add_subgraph(&mut self, data: &mut DataGraph, sub: &DataGraph) -> Vec<NodeId> {
        // Step 1: index the new subgraph alone, same requirements.
        let sub_dk = DkIndex::build(sub, self.requirements().clone());

        // Step 2: graft the data and stitch the two index graphs.
        let map = data.graft_under_root(sub);
        let stitched = stitch(self.index(), sub_dk.index(), sub, &map, data);

        // Step 3: re-index the stitched graph as if it were a data graph
        // (capped re-indexing: see `reindex_dk` — a no-op for clean indexes,
        // truth-preserving when edge updates lowered similarities earlier).
        let reqs = self.requirements().clone();
        self.replace_index(crate::dk::construct::reindex_dk(&stitched, &reqs));
        map
    }
}

/// Graft `sub_index` (the D(k)-index of `sub`) under the root of `base`,
/// remapping extents through `map` (sub node id → data node id). The
/// sub-index's root node is merged into `base`'s root node.
pub(crate) fn stitch(
    base: &IndexGraph,
    sub_index: &IndexGraph,
    sub: &DataGraph,
    map: &[NodeId],
    data: &DataGraph,
) -> IndexGraph {
    let mut stitched = base.clone();
    stitched.grow_node_map(data.node_count());

    // Copy each non-root sub-index node, translating labels and extents.
    let mut inode_map: Vec<NodeId> = vec![stitched.root(); sub_index.node_count()];
    for inode in sub_index.node_ids() {
        if inode == sub_index.root() {
            continue; // merged with the base root
        }
        let name = sub_index.labels().name(sub_index.label_of(inode));
        let label = stitched.intern(name);
        let extent: Vec<NodeId> = sub_index
            .extent(inode)
            .iter()
            .map(|&n| map[n.index()])
            .collect();
        inode_map[inode.index()] =
            stitched.push_node(label, extent, sub_index.similarity(inode));
    }
    // `sub`'s root maps to the data root, which already belongs to the base
    // root's extent; nothing to assign for it.
    let _ = sub;

    // Copy the sub-index edges through the node map.
    for from in sub_index.node_ids() {
        for &to in sub_index.children_of(from) {
            stitched.add_index_edge(inode_map[from.index()], inode_map[to.index()]);
        }
    }
    stitched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::check_structure;
    use crate::requirements::Requirements;
    use dkindex_graph::EdgeKind;

    fn base_data() -> DataGraph {
        let mut g = DataGraph::new();
        let d = g.add_labeled_node("director");
        let m = g.add_labeled_node("movie");
        let t = g.add_labeled_node("title");
        let r = g.root();
        g.add_edge(r, d, EdgeKind::Tree);
        g.add_edge(d, m, EdgeKind::Tree);
        g.add_edge(m, t, EdgeKind::Tree);
        g
    }

    fn new_file() -> DataGraph {
        // A second "document": an actor with a movie (different structure).
        let mut h = DataGraph::new();
        let a = h.add_labeled_node("actor");
        let m = h.add_labeled_node("movie");
        let t = h.add_labeled_node("title");
        let n = h.add_labeled_node("name");
        let r = h.root();
        h.add_edge(r, a, EdgeKind::Tree);
        h.add_edge(a, m, EdgeKind::Tree);
        h.add_edge(m, t, EdgeKind::Tree);
        h.add_edge(a, n, EdgeKind::Tree);
        h
    }

    #[test]
    fn theorem2_update_equals_rebuild() {
        for reqs in [
            Requirements::new(),
            Requirements::uniform(1),
            Requirements::uniform(2),
            Requirements::from_pairs([("title", 2), ("movie", 1)]),
        ] {
            // Incremental path.
            let mut g1 = base_data();
            let mut dk = DkIndex::build(&g1, reqs.clone());
            dk.add_subgraph(&mut g1, &new_file());
            check_structure(dk.index(), &g1).unwrap();

            // From-scratch path on the combined graph.
            let mut g2 = base_data();
            g2.graft_under_root(&new_file());
            let fresh = DkIndex::build(&g2, reqs.clone());

            assert!(
                dk.index()
                    .to_partition()
                    .same_equivalence(&fresh.index().to_partition()),
                "incremental != rebuild for {reqs:?}"
            );
            assert_eq!(dk.size(), fresh.size());
        }
    }

    #[test]
    fn extents_cover_old_and_new_nodes() {
        let mut g = base_data();
        let before = g.node_count();
        let mut dk = DkIndex::build(&g, Requirements::uniform(1));
        let map = dk.add_subgraph(&mut g, &new_file());
        assert_eq!(g.node_count(), before + 4);
        assert_eq!(dk.index().total_extent_size(), g.node_count());
        // The mapping points at real nodes with the right labels.
        assert_eq!(g.label_name(map[1]), "actor");
    }

    #[test]
    fn same_structure_subgraph_merges_into_existing_extents() {
        // Inserting a copy of the existing document: D(k) size unchanged.
        let mut g = base_data();
        let copy = base_data();
        let mut dk = DkIndex::build(&g, Requirements::uniform(2));
        let before = dk.size();
        dk.add_subgraph(&mut g, &copy);
        assert_eq!(dk.size(), before);
        check_structure(dk.index(), &g).unwrap();
        dk.index().check_extent_bisimilarity(&g, 4).unwrap();
    }

    #[test]
    fn repeated_insertions_stay_consistent() {
        let mut g = base_data();
        let mut dk = DkIndex::build(&g, Requirements::from_pairs([("title", 2)]));
        for _ in 0..3 {
            dk.add_subgraph(&mut g, &new_file());
            check_structure(dk.index(), &g).unwrap();
        }
        let fresh = {
            let mut g2 = base_data();
            for _ in 0..3 {
                g2.graft_under_root(&new_file());
            }
            DkIndex::build(&g2, Requirements::from_pairs([("title", 2)]))
        };
        assert_eq!(dk.size(), fresh.size());
    }

    #[test]
    fn queries_exact_after_subgraph_addition() {
        use crate::eval::{evaluate_on_data, IndexEvaluator};
        use dkindex_pathexpr::parse;
        let mut g = base_data();
        let mut dk = DkIndex::build(&g, Requirements::from_pairs([("title", 2)]));
        dk.add_subgraph(&mut g, &new_file());
        for expr in ["movie.title", "actor.movie.title", "director.movie.title", "actor.name"] {
            let e = parse(expr).unwrap();
            let out = IndexEvaluator::new(dk.index(), &g).evaluate(&e);
            assert_eq!(out.matches, evaluate_on_data(&g, &e).0, "{expr}");
        }
    }
}
