//! The [`Partition`] type: a partition of a graph's node set into blocks.
//!
//! Every structural summary in this reproduction — label-split, A(k), 1-index
//! and D(k) — is "a collection of equivalence classes" (paper §1), i.e. a
//! partition of the data nodes. This module provides the partition container:
//! a node → block column and a block → members column in compressed-sparse-row
//! form, which every constructor lays out from per-block counts in one pass
//! (`Partition::from_parts`), never through per-block vectors. The
//! refinement algorithms that produce bisimulation partitions live in
//! [`crate::refine`].

use dkindex_graph::{LabeledGraph, NodeId};
use std::fmt;

/// Dense identifier of a block (equivalence class) within a [`Partition`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub(crate) u32);

impl BlockId {
    /// Numeric index of this block.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct a `BlockId` from an index. The caller must ensure the
    /// index is in range for the partition it is used with.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        BlockId(index as u32)
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// A partition of the nodes `0..n` into non-empty blocks.
///
/// Maintains both directions of the mapping — node → block and block →
/// members — because refinement reads the former and summaries read the
/// latter. The members are one column in compressed-sparse-row form: block
/// `b`'s members are `members[starts[b]..starts[b + 1]]`, ascending, laid
/// out by one counting pass over the nodes (`Partition::from_parts`).
/// Blocks are dense: ids `0..block_count()`, every block non-empty.
#[derive(Clone, PartialEq, Eq)]
pub struct Partition {
    block_of: Vec<BlockId>,
    /// Block `b`'s members start at `starts[b]`; the last entry is the
    /// node count.
    starts: Vec<u32>,
    /// Every block's members, block by block, each block ascending.
    members: Vec<NodeId>,
}

impl Partition {
    /// The trivial partition placing every node of `g` in one block.
    pub fn unit<G: LabeledGraph>(g: &G) -> Self {
        let n = g.node_count();
        Partition::from_parts(vec![BlockId(0); n], vec![n as u32])
    }

    /// The 0-bisimulation partition of `g`: nodes grouped by label
    /// (the *label-split* graph of paper §4.1). Blocks are numbered in order
    /// of first appearance by node id, so the result is deterministic.
    pub fn by_label<G: LabeledGraph>(g: &G) -> Self {
        let mut block_of_label: Vec<Option<BlockId>> = vec![None; g.labels().len()];
        let mut block_of = Vec::with_capacity(g.node_count());
        let mut counts: Vec<u32> = Vec::new();
        for node in g.node_ids() {
            let slot = &mut block_of_label[g.label_of(node).index()];
            let block = *slot.get_or_insert_with(|| {
                counts.push(0);
                BlockId(counts.len() as u32 - 1)
            });
            counts[block.index()] += 1;
            block_of.push(block);
        }
        Partition::from_parts(block_of, counts)
    }

    /// Build a partition directly from a node → block-index map.
    ///
    /// Block indices must be dense (`0..max+1`) with no empty block.
    /// Intended for tests and for reconstructing partitions from stored
    /// index graphs.
    pub fn from_block_of(block_of: Vec<BlockId>) -> Self {
        let num_blocks = block_of
            .iter()
            .map(|b| b.index() + 1)
            .max()
            .unwrap_or(0);
        let mut counts = vec![0u32; num_blocks];
        for b in &block_of {
            counts[b.index()] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "blocks must be dense and non-empty");
        Partition::from_parts(block_of, counts)
    }

    /// Number of nodes covered by this partition.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.block_of.len()
    }

    /// Number of blocks.
    #[inline]
    pub fn block_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// Block containing `node`.
    #[inline]
    pub fn block_of(&self, node: NodeId) -> BlockId {
        self.block_of[node.index()]
    }

    /// Members of `block`, in ascending node order.
    #[inline]
    pub fn members(&self, block: BlockId) -> &[NodeId] {
        let b = block.index();
        &self.members[self.starts[b] as usize..self.starts[b + 1] as usize]
    }

    /// The member column: each block's end in the second slice (block `b`
    /// holds `members[ends[b - 1]..ends[b]]`, the first block starting at
    /// 0), and every block's members, block by block, each ascending.
    pub fn member_column(&self) -> (&[u32], &[NodeId]) {
        (&self.starts[1..], &self.members)
    }

    /// Iterate over block ids.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.block_count() as u32).map(BlockId)
    }

    /// True if two nodes share a block.
    #[inline]
    pub fn same_block(&self, a: NodeId, b: NodeId) -> bool {
        self.block_of(a) == self.block_of(b)
    }

    /// True if `self` refines `coarser`: every block of `self` is contained
    /// in a single block of `coarser`. (Equal partitions refine each other.)
    pub fn is_refinement_of(&self, coarser: &Partition) -> bool {
        if self.node_count() != coarser.node_count() {
            return false;
        }
        self.block_ids().all(|b| {
            let mut it = self.members(b).iter();
            let Some(&first) = it.next() else { return true };
            let target = coarser.block_of(first);
            it.all(|&n| coarser.block_of(n) == target)
        })
    }

    /// True if the two partitions induce the same equivalence relation
    /// (block ids may differ).
    pub fn same_equivalence(&self, other: &Partition) -> bool {
        self.is_refinement_of(other) && other.is_refinement_of(self)
    }

    /// Verify internal consistency (every node in exactly one block, blocks
    /// non-empty and ascending, maps agree). Debug/test helper.
    pub fn check_consistency(&self) -> Result<(), String> {
        let mut seen = vec![false; self.node_count()];
        for b in self.block_ids() {
            let (bi, block) = (b.index(), self.members(b));
            if block.is_empty() {
                return Err(format!("block {bi} is empty"));
            }
            if block.windows(2).any(|pair| pair[0] >= pair[1]) {
                return Err(format!("block {bi}'s members do not ascend"));
            }
            for &n in block {
                if seen[n.index()] {
                    return Err(format!("node {n:?} appears in two blocks"));
                }
                seen[n.index()] = true;
                if self.block_of(n).index() != bi {
                    return Err(format!("node {n:?}: block_of disagrees with members"));
                }
            }
        }
        if let Some(i) = seen.iter().position(|&s| !s) {
            return Err(format!("node n{i} is in no block"));
        }
        Ok(())
    }

    /// The partition whose node → block map is `block_of`, given each
    /// block's member count (`counts[b]` nodes map to block `b`, every
    /// count above 0). One counting pass lays the member column out: the
    /// counts become each block's end, and the nodes, placed from the last
    /// one down, move each block's cursor back to its start — so every
    /// block's members come out ascending.
    pub(crate) fn from_parts(block_of: Vec<BlockId>, counts: Vec<u32>) -> Self {
        let mut starts = counts;
        let mut end = 0;
        for slot in &mut starts {
            end += *slot;
            *slot = end;
        }
        starts.push(end);
        debug_assert_eq!(end as usize, block_of.len());
        let mut members = vec![NodeId::from_index(0); block_of.len()];
        for (i, b) in block_of.iter().enumerate().rev() {
            let cursor = &mut starts[b.index()];
            *cursor -= 1;
            members[*cursor as usize] = NodeId::from_index(i);
        }
        let p = Partition { block_of, starts, members };
        debug_assert_eq!(p.check_consistency(), Ok(()));
        p
    }

    /// Replace this partition with one obtained by regrouping nodes by `key`:
    /// nodes with equal `(old block, key)` pairs share a new block. New block
    /// ids are assigned in order of first appearance by node id, so the
    /// operation is deterministic. Returns the new partition and whether it
    /// is strictly finer than `self`.
    pub fn split_by_key<K: std::hash::Hash + Eq>(
        &self,
        key: impl Fn(NodeId) -> K,
    ) -> (Partition, bool) {
        use std::collections::HashMap;
        let mut ids: HashMap<(BlockId, K), BlockId> = HashMap::new();
        let mut block_of = Vec::with_capacity(self.node_count());
        let mut counts: Vec<u32> = Vec::new();
        for i in 0..self.node_count() {
            let node = NodeId::from_index(i);
            let sig = (self.block_of(node), key(node));
            let block = *ids.entry(sig).or_insert_with(|| {
                counts.push(0);
                BlockId(counts.len() as u32 - 1)
            });
            counts[block.index()] += 1;
            block_of.push(block);
        }
        let changed = counts.len() != self.block_count();
        (Partition::from_parts(block_of, counts), changed)
    }
}

impl fmt::Debug for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Partition({} nodes, {} blocks)", self.node_count(), self.block_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkindex_graph::{DataGraph, EdgeKind};

    fn two_pairs() -> DataGraph {
        let mut g = DataGraph::new();
        let a1 = g.add_labeled_node("a");
        let a2 = g.add_labeled_node("a");
        let b = g.add_labeled_node("b");
        let r = g.root();
        g.add_edge(r, a1, EdgeKind::Tree);
        g.add_edge(r, a2, EdgeKind::Tree);
        g.add_edge(a1, b, EdgeKind::Tree);
        g
    }

    #[test]
    fn unit_partition_has_one_block() {
        let g = two_pairs();
        let p = Partition::unit(&g);
        assert_eq!(p.block_count(), 1);
        assert_eq!(p.members(BlockId(0)).len(), g.node_count());
        p.check_consistency().unwrap();
    }

    #[test]
    fn by_label_groups_equal_labels() {
        let g = two_pairs();
        let p = Partition::by_label(&g);
        assert_eq!(p.block_count(), 3); // ROOT, a, b
        let a1 = NodeId::from_index(1);
        let a2 = NodeId::from_index(2);
        let b = NodeId::from_index(3);
        assert!(p.same_block(a1, a2));
        assert!(!p.same_block(a1, b));
        p.check_consistency().unwrap();
    }

    #[test]
    fn by_label_is_deterministic() {
        let g = two_pairs();
        let p1 = Partition::by_label(&g);
        let p2 = Partition::by_label(&g);
        assert_eq!(p1, p2);
    }

    #[test]
    fn from_block_of_round_trips() {
        let g = two_pairs();
        let p = Partition::by_label(&g);
        let q = Partition::from_block_of((0..g.node_count())
            .map(|i| p.block_of(NodeId::from_index(i)))
            .collect());
        assert_eq!(p, q);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn from_block_of_rejects_gaps() {
        // Block 1 missing.
        Partition::from_block_of(vec![BlockId(0), BlockId(2)]);
    }

    #[test]
    fn refinement_relation() {
        let g = two_pairs();
        let unit = Partition::unit(&g);
        let labels = Partition::by_label(&g);
        assert!(labels.is_refinement_of(&unit));
        assert!(!unit.is_refinement_of(&labels));
        assert!(labels.is_refinement_of(&labels));
        assert!(labels.same_equivalence(&labels));
    }

    #[test]
    fn split_by_key_refines_deterministically() {
        let g = two_pairs();
        let labels = Partition::by_label(&g);
        // Key = has a child: splits the `a` block into {a1}, {a2}.
        let (finer, changed) = labels.split_by_key(|n| !g.children_of(n).is_empty());
        assert!(changed);
        assert_eq!(finer.block_count(), 4);
        assert!(finer.is_refinement_of(&labels));
        finer.check_consistency().unwrap();
        let a1 = NodeId::from_index(1);
        let a2 = NodeId::from_index(2);
        assert!(!finer.same_block(a1, a2));
    }

    #[test]
    fn split_by_constant_key_is_identity() {
        let g = two_pairs();
        let labels = Partition::by_label(&g);
        let (same, changed) = labels.split_by_key(|_| 0u8);
        assert!(!changed);
        assert!(same.same_equivalence(&labels));
    }

    #[test]
    fn consistency_catches_corruption() {
        let p = Partition::from_block_of(vec![BlockId(0), BlockId(0), BlockId(1)]);
        assert!(p.check_consistency().is_ok());
    }
}
