//! Worklist computation of the coarsest stable refinement, in the style of
//! Paige & Tarjan's relational coarsest partition algorithm (the algorithm
//! the paper cites for 1-index construction, §4.1). This is the 1-index
//! engine: `OneIndex::build` calls it, and
//! [`crate::refine::bisimulation_fixpoint`] is its independent oracle.
//!
//! A partition is *stable* when for every pair of blocks `(S, B)`, `B` is
//! either contained in or disjoint from `Succ(S)` (the successors of `S`) —
//! exactly the stability notion used by the paper's Algorithm 2. The coarsest
//! stable refinement of the label partition is the (backward) bisimulation
//! partition, i.e. the extents of the 1-index.
//!
//! This implementation uses the classic worklist scheme with set-based
//! (non-counting) splitting: when a block splits, both fragments re-enter
//! the worklist, smaller first. That is O(m·n) in the worst case, not
//! Paige–Tarjan's O(m log n), and measured the fastest of the engines the
//! workspace has carried at 10⁵–3 × 10⁵ nodes (EXPERIMENTS.md).

use crate::partition::{BlockId, Partition};
use dkindex_graph::{LabeledGraph, NodeId};
use std::collections::VecDeque;

/// Mutable partition with support for splitting against a splitter set.
struct SplitState {
    block_of: Vec<u32>,
    members: Vec<Vec<NodeId>>,
}

impl SplitState {
    fn from_partition(p: &Partition) -> Self {
        SplitState {
            block_of: (0..p.node_count())
                .map(|i| p.block_of(NodeId::from_index(i)).index() as u32)
                .collect(),
            members: p.block_ids().map(|b| p.members(b).to_vec()).collect(),
        }
    }

    fn into_partition(self) -> Partition {
        // Compact away blocks emptied by splits (splitting moves members out
        // of a block; the original id keeps the "stay" fragment and may be
        // left empty only if everything moved, which we prevent below, but we
        // compact defensively anyway).
        let mut remap: Vec<Option<u32>> = vec![None; self.members.len()];
        let mut next = 0u32;
        for (i, m) in self.members.iter().enumerate() {
            if !m.is_empty() {
                remap[i] = Some(next);
                next += 1;
            }
        }
        let block_of = self
            .block_of
            .iter()
            .map(|&b| BlockId(remap[b as usize].expect("node in empty block")))
            .collect();
        Partition::from_block_of(block_of)
    }

    /// Split every block against `hits` (the set of nodes with a parent in
    /// the splitter block). Members of a block found in `hits` move to a
    /// fresh block unless the whole block is hit. Returns the ids of blocks
    /// that actually split, as `(kept, new)` pairs.
    fn split_against(&mut self, hits: &[NodeId]) -> Vec<(u32, u32)> {
        use std::collections::HashMap;
        // Group hits by their current block.
        let mut hit_by_block: HashMap<u32, Vec<NodeId>> = HashMap::new();
        for &n in hits {
            hit_by_block.entry(self.block_of[n.index()]).or_default().push(n);
        }
        let mut splits = Vec::new();
        let mut touched: Vec<u32> = hit_by_block.keys().copied().collect();
        touched.sort_unstable(); // determinism
        for b in touched {
            let hit = &hit_by_block[&b];
            if hit.len() == self.members[b as usize].len() {
                continue; // fully hit: stable w.r.t. this splitter
            }
            // Partial hit: move the hit members into a new block.
            let new_id = self.members.len() as u32;
            let hit_set: std::collections::HashSet<NodeId> = hit.iter().copied().collect();
            let old = std::mem::take(&mut self.members[b as usize]);
            let (moved, kept): (Vec<NodeId>, Vec<NodeId>) =
                old.into_iter().partition(|n| hit_set.contains(n));
            debug_assert!(!kept.is_empty() && !moved.is_empty());
            for &n in &moved {
                self.block_of[n.index()] = new_id;
            }
            self.members[b as usize] = kept;
            self.members.push(moved);
            splits.push((b, new_id));
        }
        splits
    }
}

/// The coarsest refinement of [`Partition::by_label`] that is stable with
/// respect to every block's successor set — the bisimulation partition / the
/// extents of the 1-index.
pub fn coarsest_stable_refinement<G: LabeledGraph>(g: &G) -> Partition {
    let initial = Partition::by_label(g);
    let mut state = SplitState::from_partition(&initial);
    let mut queue: VecDeque<u32> = (0..state.members.len() as u32).collect();
    let mut queued: Vec<bool> = vec![true; state.members.len()];

    while let Some(splitter) = queue.pop_front() {
        queued[splitter as usize] = false;
        // Succ(splitter): all children of the splitter's members.
        let mut hits: Vec<NodeId> = state.members[splitter as usize]
            .iter()
            .flat_map(|&n| g.children_of(n).iter().copied())
            .collect();
        hits.sort_unstable();
        hits.dedup();
        if hits.is_empty() {
            continue;
        }
        let splits = state.split_against(&hits);
        for (kept, new_id) in splits {
            queued.push(false);
            // Smaller-half: if the block was already queued, both fragments
            // must be reprocessed; otherwise the smaller one suffices.
            if queued[kept as usize] {
                queue.push_back(new_id);
                queued[new_id as usize] = true;
            } else {
                let pick = if state.members[kept as usize].len()
                    <= state.members[new_id as usize].len()
                {
                    kept
                } else {
                    new_id
                };
                // Re-queue both halves for soundness of the simple scheme:
                // with set-based (non-counting) splitting, processing only
                // the smaller half is insufficient when Succ sets overlap,
                // so we enqueue both; the smaller-half choice only orders
                // them. This keeps the code simple and correct; the
                // asymptotic cost is O(m·n) worst case, amply fast for the
                // paper's workloads and cross-checked against the signature
                // fixpoint in tests.
                let other = if pick == kept { new_id } else { kept };
                for b in [pick, other] {
                    if !queued[b as usize] {
                        queue.push_back(b);
                        queued[b as usize] = true;
                    }
                }
            }
        }
    }
    state.into_partition()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::bisimulation_fixpoint;
    use dkindex_graph::{DataGraph, EdgeKind};

    fn assert_matches_fixpoint(g: &DataGraph) {
        let worklist = coarsest_stable_refinement(g);
        let fixpoint = bisimulation_fixpoint(g);
        worklist.check_consistency().unwrap();
        assert!(
            worklist.same_equivalence(&fixpoint),
            "worklist ({} blocks) != signature fixpoint ({} blocks)",
            worklist.block_count(),
            fixpoint.block_count()
        );
    }

    #[test]
    fn chain_graph() {
        let mut g = DataGraph::new();
        let a1 = g.add_labeled_node("a");
        let a2 = g.add_labeled_node("a");
        let a3 = g.add_labeled_node("a");
        let r = g.root();
        g.add_edge(r, a1, EdgeKind::Tree);
        g.add_edge(a1, a2, EdgeKind::Tree);
        g.add_edge(a2, a3, EdgeKind::Tree);
        assert_matches_fixpoint(&g);
        assert_eq!(coarsest_stable_refinement(&g).block_count(), 4);
    }

    #[test]
    fn movie_style_graph() {
        let mut g = DataGraph::new();
        let actor = g.add_labeled_node("actor");
        let director = g.add_labeled_node("director");
        let m1 = g.add_labeled_node("movie");
        let m2 = g.add_labeled_node("movie");
        let t1 = g.add_labeled_node("title");
        let t2 = g.add_labeled_node("title");
        let r = g.root();
        g.add_edge(r, actor, EdgeKind::Tree);
        g.add_edge(r, director, EdgeKind::Tree);
        g.add_edge(actor, m1, EdgeKind::Tree);
        g.add_edge(director, m2, EdgeKind::Tree);
        g.add_edge(m1, t1, EdgeKind::Tree);
        g.add_edge(m2, t2, EdgeKind::Tree);
        g.add_edge(director, m1, EdgeKind::Reference);
        assert_matches_fixpoint(&g);
    }

    #[test]
    fn graph_with_cycle() {
        // a -> b -> a cycle through a reference edge.
        let mut g = DataGraph::new();
        let a = g.add_labeled_node("a");
        let b = g.add_labeled_node("b");
        let r = g.root();
        g.add_edge(r, a, EdgeKind::Tree);
        g.add_edge(a, b, EdgeKind::Tree);
        g.add_edge(b, a, EdgeKind::Reference);
        assert_matches_fixpoint(&g);
    }

    #[test]
    fn disconnected_nodes_are_handled() {
        // Parentless non-root nodes: never hit by any splitter.
        let mut g = DataGraph::new();
        g.add_labeled_node("orphan");
        g.add_labeled_node("orphan");
        let a = g.add_labeled_node("a");
        let r = g.root();
        g.add_edge(r, a, EdgeKind::Tree);
        assert_matches_fixpoint(&g);
    }

    #[test]
    fn wide_regular_tree_stays_coarse() {
        // 10 identical subtrees: bisimulation must NOT split them.
        let mut g = DataGraph::new();
        let r = g.root();
        for _ in 0..10 {
            let a = g.add_labeled_node("item");
            let b = g.add_labeled_node("name");
            g.add_edge(r, a, EdgeKind::Tree);
            g.add_edge(a, b, EdgeKind::Tree);
        }
        let p = coarsest_stable_refinement(&g);
        assert_eq!(p.block_count(), 3); // ROOT, item, name
        assert_matches_fixpoint(&g);
    }

    #[test]
    fn random_graphs_match_fixpoint() {
        // Deterministic pseudo-random graphs; cross-check on 20 instances.
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..20 {
            let mut g = DataGraph::new();
            let labels = ["a", "b", "c"];
            let n = 20 + (next() % 30) as usize;
            let mut nodes = vec![g.root()];
            for i in 0..n {
                let l = labels[(next() % 3) as usize];
                let node = g.add_labeled_node(l);
                // Tree edge from a random earlier node keeps it connected.
                let parent = nodes[(next() as usize) % (i + 1)];
                g.add_edge(parent, node, EdgeKind::Tree);
                nodes.push(node);
            }
            // A few random reference edges (possibly creating cycles).
            for _ in 0..n / 4 {
                let u = nodes[(next() as usize) % nodes.len()];
                let v = nodes[(next() as usize) % nodes.len()];
                if u != v {
                    g.add_edge(u, v, EdgeKind::Reference);
                }
            }
            assert_matches_fixpoint(&g);
        }
    }
}
