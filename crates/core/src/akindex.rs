//! The A(k)-index (Kaushik et al., ICDE 2002): extents are the k-bisimulation
//! equivalence classes, every index node carries local similarity `k`.
//!
//! Also implements the edge-addition update used as the comparator in the
//! paper's Table 1 — "a variant of the 1-index update algorithm" (§6.2):
//! adding an edge creates a new index node for the target data node, then
//! recursively re-partitions the extents of child index nodes (referring to
//! the data graph) until k-local-similarity is restored, propagating up to
//! distance `k − 1`. The re-partitioning touches data nodes — that expense,
//! contrasted with the D(k) update which only walks the index graph, is the
//! paper's headline update result.

use crate::index_graph::IndexGraph;
use dkindex_graph::{DataGraph, EdgeKind, LabeledGraph, NodeId};
use dkindex_partition::RefineEngine;
use std::collections::HashMap;

/// The A(k)-index.
#[derive(Clone, Debug)]
pub struct AkIndex {
    index: IndexGraph,
    k: usize,
}

/// Work performed by an A(k) edge-addition update, in machine-independent
/// units (data nodes touched while re-partitioning extents). Reported next
/// to wall-clock time in the Table 1 reproduction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateWork {
    /// Data nodes whose parent lists were scanned to recompute signatures.
    pub data_nodes_touched: u64,
    /// Index nodes whose extents were split.
    pub blocks_split: u64,
}

impl std::ops::AddAssign for UpdateWork {
    fn add_assign(&mut self, rhs: UpdateWork) {
        self.data_nodes_touched += rhs.data_nodes_touched;
        self.blocks_split += rhs.blocks_split;
    }
}

impl AkIndex {
    /// Build the A(k)-index of `data` in O(k·m).
    pub fn build(data: &DataGraph, k: usize) -> Self {
        let p = RefineEngine::new().k_bisimulation(data, k);
        let sims = vec![k; p.block_count()];
        AkIndex {
            index: IndexGraph::from_data_partition(data, &p, sims),
            k,
        }
    }

    /// The underlying index graph.
    pub fn index(&self) -> &IndexGraph {
        &self.index
    }

    /// The local-similarity parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of index nodes.
    pub fn size(&self) -> usize {
        self.index.size()
    }

    /// Subgraph-addition (document insertion) update. The paper notes that
    /// "the 1-index update algorithm for document insertion can be easily
    /// generalized to apply in the A(k)-index context" (§2); since A(k) is
    /// the uniform-requirement special case of D(k), the generalization is
    /// exactly the D(k) machinery: index the new document alone, graft it
    /// under the root, and re-index the stitched summary (Theorem 2).
    pub fn add_subgraph(&mut self, data: &mut DataGraph, sub: &DataGraph) -> Vec<NodeId> {
        let sub_ak = AkIndex::build(sub, self.k);
        let map = data.graft_under_root(sub);
        let stitched =
            crate::dk::subgraph::stitch(&self.index, sub_ak.index(), sub, &map, data);
        let reqs = crate::requirements::Requirements::uniform(self.k);
        self.index = crate::dk::construct::reindex_dk(&stitched, &reqs);
        map
    }

    /// Edge-addition update (the Table 1 comparator). Adds the data edge
    /// `u → v` to `data` and repairs the index by local re-partitioning.
    ///
    /// The result is a *refinement* of the true A(k)-index — safe and sound
    /// for paths up to length `k`, but possibly over-split, which is exactly
    /// the paper's observation that "the size of the A(k)-index increases
    /// dramatically" under updates (§6.3).
    pub fn add_edge(&mut self, data: &mut DataGraph, u: NodeId, v: NodeId) -> UpdateWork {
        let mut work = UpdateWork::default();
        if !data.add_edge(u, v, EdgeKind::Reference) {
            return work; // duplicate edge: graph unchanged
        }
        if self.k == 0 {
            // A(0): label partition unaffected; just record the index edge.
            let (ui, vi) = (self.index.index_of(u), self.index.index_of(v));
            self.index.add_index_edge(ui, vi);
            return work;
        }

        // Step 1: the target data node becomes its own index node ("when a
        // new edge is added to the A(k)-index graph, it creates a new index
        // node") — unless it already is one.
        let v_inode = self.index.index_of(v);
        work.data_nodes_touched += self.index.extent(v_inode).len() as u64;
        let v_new = if self.index.extent(v_inode).len() > 1 {
            work.blocks_split += 1;
            self.index.split_extent(v_inode, &[v], self.k, data)
        } else {
            // Singleton: recompute its edges to pick up the new parent.
            let ui = self.index.index_of(u);
            self.index.add_index_edge(ui, v_inode);
            v_inode
        };

        // Step 2: propagate downstream, re-partitioning child extents by
        // parent-index signature, up to distance k-1 from the new node.
        let mut frontier: Vec<NodeId> = vec![v_new];
        for _round in 1..=self.k.saturating_sub(1) {
            let mut touched_inodes: Vec<NodeId> = Vec::new();
            for &f in &frontier {
                for &c in self.index.children_of(f) {
                    if !touched_inodes.contains(&c) {
                        touched_inodes.push(c);
                    }
                }
            }
            let mut next_frontier = Vec::new();
            for inode in touched_inodes {
                let splits = self.repartition_extent(inode, data, &mut work);
                if !splits.is_empty() {
                    next_frontier.extend(splits);
                }
            }
            if next_frontier.is_empty() {
                break; // every child already satisfies k-local-similarity
            }
            frontier = next_frontier;
        }
        work
    }

    /// Split `inode`'s extent by parent-index signature. Returns all
    /// resulting fragments if a split occurred (empty vec otherwise).
    fn repartition_extent(
        &mut self,
        inode: NodeId,
        data: &DataGraph,
        work: &mut UpdateWork,
    ) -> Vec<NodeId> {
        let extent = self.index.extent(inode).to_vec();
        work.data_nodes_touched += extent.len() as u64;
        if extent.len() <= 1 {
            return Vec::new();
        }
        let mut groups: HashMap<Vec<NodeId>, Vec<NodeId>> = HashMap::new();
        for &m in &extent {
            let mut sig: Vec<NodeId> = data
                .parents_of(m)
                .iter()
                .map(|&p| self.index.index_of(p))
                .collect();
            work.data_nodes_touched += data.parents_of(m).len() as u64;
            sig.sort_unstable();
            sig.dedup();
            groups.entry(sig).or_default().push(m);
        }
        if groups.len() <= 1 {
            return Vec::new();
        }
        // Keep the largest group in place; split the rest out. Each group
        // was filled in extent order, so it is the ascending subset
        // `split_extent` takes.
        let mut group_list: Vec<Vec<NodeId>> = groups.into_values().collect();
        group_list.sort_by_key(|g| std::cmp::Reverse(g.len()));
        let mut fragments = vec![inode];
        for group in group_list.into_iter().skip(1) {
            work.blocks_split += 1;
            let new_node = self.index.split_extent(inode, &group, self.k, data);
            fragments.push(new_node);
        }
        fragments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::check_structure;
    use crate::eval::{evaluate_on_data, IndexEvaluator};
    use dkindex_pathexpr::parse;

    fn build_data() -> DataGraph {
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

    #[test]
    fn ak_sizes_grow_with_k() {
        let g = build_data();
        let mut last = 0;
        for k in 0..4 {
            let ak = AkIndex::build(&g, k);
            check_structure(ak.index(), &g).unwrap();
            assert!(ak.size() >= last);
            last = ak.size();
        }
        // k=0: ROOT, director, actor, movie, title = 5.
        assert_eq!(AkIndex::build(&g, 0).size(), 5);
        // k=1: movies split (director vs actor parents), titles still merged.
        assert_eq!(AkIndex::build(&g, 1).size(), 6);
        // k=2: titles split too.
        assert_eq!(AkIndex::build(&g, 2).size(), 7);
    }

    #[test]
    fn ak_extents_are_k_bisimilar() {
        let g = build_data();
        for k in 0..3 {
            AkIndex::build(&g, k)
                .index()
                .check_extent_bisimilarity(&g, 4)
                .unwrap();
        }
    }

    #[test]
    fn update_preserves_safety_and_exactness() {
        let mut g = build_data();
        let mut ak = AkIndex::build(&g, 2);
        // New reference: actor -> movie-under-director.
        let actor = g.nodes_with_label(g.labels().get("actor").unwrap())[0];
        let m1 = g.nodes_with_label(g.labels().get("movie").unwrap())[0];
        let work = ak.add_edge(&mut g, actor, m1);
        assert!(work.data_nodes_touched > 0);
        check_structure(ak.index(), &g).unwrap();
        // Queries remain exact after the update.
        for expr in ["actor.movie", "actor.movie.title", "director.movie.title"] {
            let e = parse(expr).unwrap();
            let truth = evaluate_on_data(&g, &e).0;
            let out = IndexEvaluator::new(ak.index(), &g).evaluate(&e);
            assert_eq!(out.matches, truth, "{expr}");
        }
    }

    #[test]
    fn updated_index_refines_fresh_ak() {
        let mut g = build_data();
        let mut ak = AkIndex::build(&g, 2);
        let actor = g.nodes_with_label(g.labels().get("actor").unwrap())[0];
        let m1 = g.nodes_with_label(g.labels().get("movie").unwrap())[0];
        ak.add_edge(&mut g, actor, m1);
        let fresh = dkindex_partition::k_bisimulation(&g, 2);
        // The propagate update may over-split but never under-split.
        assert!(ak.index().to_partition().is_refinement_of(&fresh));
    }

    #[test]
    fn update_on_a0_is_trivial() {
        let mut g = build_data();
        let mut a0 = AkIndex::build(&g, 0);
        let before = a0.size();
        let actor = g.nodes_with_label(g.labels().get("actor").unwrap())[0];
        let t1 = g.nodes_with_label(g.labels().get("title").unwrap())[0];
        let work = a0.add_edge(&mut g, actor, t1);
        assert_eq!(work.data_nodes_touched, 0);
        assert_eq!(a0.size(), before);
        check_structure(a0.index(), &g).unwrap();
    }

    #[test]
    fn duplicate_edge_is_a_noop() {
        let mut g = build_data();
        let mut ak = AkIndex::build(&g, 2);
        let d = g.nodes_with_label(g.labels().get("director").unwrap())[0];
        let m1 = g.nodes_with_label(g.labels().get("movie").unwrap())[0];
        // d -> m1 already exists as a tree edge.
        let before = ak.size();
        let work = ak.add_edge(&mut g, d, m1);
        assert_eq!(work, UpdateWork::default());
        assert_eq!(ak.size(), before);
    }

    #[test]
    fn subgraph_addition_matches_rebuild() {
        for k in 0..3 {
            let mut g = build_data();
            let mut ak = AkIndex::build(&g, k);
            let sub = build_data(); // insert a copy of the same document
            ak.add_subgraph(&mut g, &sub);
            check_structure(ak.index(), &g).unwrap();

            let mut g2 = build_data();
            g2.graft_under_root(&build_data());
            let fresh = AkIndex::build(&g2, k);
            assert!(
                ak.index()
                    .to_partition()
                    .same_equivalence(&fresh.index().to_partition()),
                "A({k}) incremental != rebuild"
            );
        }
    }

    #[test]
    fn subgraph_addition_with_new_labels() {
        let mut g = build_data();
        let mut ak = AkIndex::build(&g, 2);
        let mut sub = DataGraph::new();
        let x = sub.add_labeled_node("brand-new-label");
        let sr = sub.root();
        sub.add_edge(sr, x, EdgeKind::Tree);
        let map = ak.add_subgraph(&mut g, &sub);
        check_structure(ak.index(), &g).unwrap();
        let new_node = map[x.index()];
        assert_eq!(g.label_name(new_node), "brand-new-label");
        assert_eq!(ak.index().extent(ak.index().index_of(new_node)), &[new_node]);
    }

    #[test]
    fn update_work_grows_with_k() {
        let mk = |k: usize| {
            let mut g = build_data();
            let mut ak = AkIndex::build(&g, k);
            let actor = g.nodes_with_label(g.labels().get("actor").unwrap())[0];
            let m1 = g.nodes_with_label(g.labels().get("movie").unwrap())[0];
            ak.add_edge(&mut g, actor, m1).data_nodes_touched
        };
        assert!(mk(3) >= mk(1));
    }
}
