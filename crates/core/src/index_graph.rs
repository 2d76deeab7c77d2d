//! The index graph: a structural summary with extents and per-node local
//! similarities (paper §3–§4).
//!
//! An [`IndexGraph`] has one node per equivalence class of the data graph;
//! each index node carries its *extent* (the set of data nodes it summarizes),
//! its label, and its *local similarity* `k` (its extent is guaranteed to be
//! k-bisimilar). An edge `A → B` exists iff some data edge runs from a member
//! of `extent(A)` to a member of `extent(B)`.
//!
//! `IndexGraph` implements [`LabeledGraph`], so path expressions evaluate on
//! it with the same engine used for data graphs, and — crucially for the
//! D(k) update machinery — an index graph can itself be *re-indexed* like a
//! data graph ([`IndexGraph::reindex`]), the operation behind the paper's
//! Theorem 2, the subgraph-addition update and the demoting process.
//!
//! ## Copy-on-write blocks
//!
//! Everything the summary knows about one index node — label, similarity,
//! extent and both adjacency lists — is one block behind an [`Arc`], so
//! cloning an index (and therefore a `DkIndex`) bumps one refcount per block
//! instead of deep-copying extents and adjacency. This is the index half of
//! the delta-epoch publish path (the data half is [`SegVec`]):
//!
//! 1. **Clone is shallow**: `clone()` copies block handles, never block
//!    contents.
//! 2. **Mutation is per-block**: every write goes through one private
//!    accessor that deep-copies the addressed block alone, and only while
//!    its `Arc` is shared with an older epoch. A write of the value already
//!    stored ([`IndexGraph::set_similarity`]) unshares nothing.
//! 3. **Sharing is observable**: [`IndexGraph::shared_blocks_with`] and
//!    [`IndexGraph::block_ptr_eq`] expose positional pointer identity, which
//!    `tests/cow.rs` and the `serve.publish.blocks_*` counters are built on.
//! 4. **Representation never leaks into answers**: a query, snapshot, or
//!    audit sees identical bytes whether its epoch shares every block or
//!    none.

use dkindex_graph::{DataGraph, LabelId, LabelInterner, LabeledGraph, NodeId, SegVec};
use dkindex_partition::Partition;
use std::sync::Arc;

/// Local similarity value representing "exactly bisimilar" (the 1-index):
/// sound for a path expression of any length. Large but safe under `+ 1`.
pub const SIM_EXACT: usize = usize::MAX / 4;

/// Per-index-node state: everything the summary knows about one
/// equivalence class.
#[derive(Clone, Debug)]
struct Block {
    /// Label shared by every member of the extent.
    label: LabelId,
    /// Local similarity `k` of the node (paper Definition 2).
    similarity: usize,
    /// Data nodes summarized by this index node, sorted ascending.
    extent: Vec<NodeId>,
    /// Out-neighbors in the index graph.
    children: Vec<NodeId>,
    /// In-neighbors in the index graph.
    parents: Vec<NodeId>,
}

impl Block {
    /// A shared block with the given label, extent and similarity and no
    /// edges.
    fn shared(label: LabelId, extent: Vec<NodeId>, similarity: usize) -> Arc<Block> {
        Arc::new(Block {
            label,
            similarity,
            extent,
            children: Vec::new(),
            parents: Vec::new(),
        })
    }
}

/// A structural summary of a data graph.
///
/// All per-index-node state lives in one `Arc`-shared block per node, and
/// the node→block map is a segment-shared [`SegVec`]. Cloning an
/// `IndexGraph` is therefore a copy-on-write snapshot (see the module docs):
/// the clone shares every block with the original until one of them mutates
/// it, which is what lets the serve layer publish a maintenance batch by
/// rebuilding only the blocks the batch touched.
#[derive(Clone, Debug)]
pub struct IndexGraph {
    /// One block per index node, in id order.
    blocks: Vec<Arc<Block>>,
    /// data node -> index node containing it.
    node_to_index: SegVec<NodeId>,
    interner: Arc<LabelInterner>,
    root: NodeId,
    edge_count: usize,
}

impl IndexGraph {
    /// Build an index graph from a partition of `g`'s nodes. `similarity[b]`
    /// is the local similarity of block `b` (same indexing as the partition's
    /// blocks). Every extent is the block's member list.
    pub fn from_data_partition(g: &DataGraph, partition: &Partition, similarity: Vec<usize>) -> Self {
        assert_eq!(partition.node_count(), g.node_count());
        assert_eq!(similarity.len(), partition.block_count());
        let nblocks = partition.block_count();

        let mut blocks = Vec::with_capacity(nblocks);
        for (b, k) in partition.block_ids().zip(similarity) {
            let members = partition.members(b);
            blocks.push(Block::shared(g.label_of(members[0]), members.to_vec(), k));
        }

        let node_to_index: SegVec<NodeId> = (0..g.node_count())
            .map(|i| NodeId::from_index(partition.block_of(NodeId::from_index(i)).index()))
            .collect();

        let mut index = IndexGraph {
            blocks,
            root: NodeId::from_index(partition.block_of(g.root()).index()),
            node_to_index,
            interner: g.labels_shared(),
            edge_count: 0,
        };
        for &(from, to, _) in g.edges() {
            let (fi, ti) = (index.index_of(from), index.index_of(to));
            index.add_index_edge(fi, ti);
        }
        index
    }

    /// Re-index: treat `base` itself as a data graph, partition *its* nodes,
    /// and merge extents. Used by the subgraph-addition update and the
    /// demoting process (paper Theorem 2: the D(k)-index of any refinement of
    /// a D(k)-index is the D(k)-index itself).
    pub fn reindex(base: &IndexGraph, partition: &Partition, similarity: Vec<usize>) -> Self {
        assert_eq!(partition.node_count(), base.node_count());
        assert_eq!(similarity.len(), partition.block_count());
        let nblocks = partition.block_count();

        let mut blocks = Vec::with_capacity(nblocks);
        // The node map starts as a shallow snapshot of base's; only segments
        // whose nodes move between blocks are copied below.
        let mut node_to_index = base.node_to_index.clone();
        for (b, k) in partition.block_ids().zip(similarity) {
            let members = partition.members(b);
            let label = base.label_of(members[0]);
            let mut extent = Vec::new();
            for &inode in members {
                extent.extend_from_slice(base.extent(inode));
            }
            extent.sort_unstable();
            extent.dedup();
            let bi = blocks.len();
            for &d in &extent {
                if let Some(slot) = node_to_index.get_mut(d.index()) {
                    *slot = NodeId::from_index(bi);
                }
            }
            blocks.push(Block::shared(label, extent, k));
        }

        let mut index = IndexGraph {
            blocks,
            root: NodeId::from_index(
                partition.block_of(base.root()).index(),
            ),
            node_to_index,
            interner: Arc::clone(&base.interner),
            edge_count: 0,
        };
        // Edges: project base's edges through the partition.
        for from in base.node_ids() {
            for &to in base.children_of(from) {
                let fi = NodeId::from_index(partition.block_of(from).index());
                let ti = NodeId::from_index(partition.block_of(to).index());
                index.add_index_edge(fi, ti);
            }
        }
        index
    }

    /// Reassemble an index graph from stored parts (the `store` module's
    /// loader). Extents must partition `0..data_nodes`; edges and the root
    /// are attached afterwards via [`IndexGraph::add_index_edge`] and
    /// [`IndexGraph::set_root`].
    pub(crate) fn from_stored_parts(
        interner: LabelInterner,
        labels: Vec<LabelId>,
        similarity: Vec<usize>,
        extents: Vec<Vec<NodeId>>,
        data_nodes: usize,
    ) -> IndexGraph {
        assert_eq!(labels.len(), similarity.len());
        assert_eq!(labels.len(), extents.len());
        let mut node_to_index: SegVec<NodeId> = std::iter::repeat_n(NodeId::from_index(0), data_nodes)
            .collect();
        let mut blocks = Vec::with_capacity(labels.len());
        for ((label, k), mut extent) in labels.into_iter().zip(similarity).zip(extents) {
            extent.sort_unstable();
            let i = blocks.len();
            for &d in &extent {
                if let Some(slot) = node_to_index.get_mut(d.index()) {
                    *slot = NodeId::from_index(i);
                }
            }
            blocks.push(Block::shared(label, extent, k));
        }
        IndexGraph {
            blocks,
            node_to_index,
            interner: Arc::new(interner),
            root: NodeId::from_index(0),
            edge_count: 0,
        }
    }

    /// Set the root index node (store loading only).
    pub(crate) fn set_root(&mut self, root: NodeId) {
        assert!(root.index() < self.size());
        self.root = root;
    }

    /// Shared view of `inode`'s block: the one read path.
    #[inline]
    fn block(&self, inode: NodeId) -> &Block {
        &self.blocks[inode.index()]
    }

    /// Copy-on-write view of `inode`'s block, the one write path: it
    /// deep-copies the one block iff it is still shared with an older
    /// snapshot (invariant 2).
    #[inline]
    fn block_mut(&mut self, inode: NodeId) -> &mut Block {
        Arc::make_mut(&mut self.blocks[inode.index()])
    }

    /// Number of index nodes — the paper's "index size" (X axis of figs 4–7).
    #[inline]
    pub fn size(&self) -> usize {
        self.blocks.len()
    }

    /// The extent of index node `inode` (sorted data node ids).
    #[inline]
    pub fn extent(&self, inode: NodeId) -> &[NodeId] {
        &self.block(inode).extent
    }

    /// The index node containing data node `data_node`.
    #[inline]
    pub fn index_of(&self, data_node: NodeId) -> NodeId {
        *self
            .node_to_index
            .get(data_node.index())
            .expect("data node out of range")
    }

    /// Length of the node→extent map (equals the data graph's node count on
    /// a healthy index; the auditor bounds-checks against this instead of
    /// assuming it).
    #[inline]
    pub fn node_map_len(&self) -> usize {
        self.node_to_index.len()
    }

    /// Local similarity of `inode`.
    #[inline]
    pub fn similarity(&self, inode: NodeId) -> usize {
        self.block(inode).similarity
    }

    /// Set the local similarity of `inode`. Writing the value already stored
    /// is a true no-op, so it does not unshare the block from older epochs.
    #[inline]
    pub fn set_similarity(&mut self, inode: NodeId, k: usize) {
        if self.block(inode).similarity != k {
            self.block_mut(inode).similarity = k;
        }
    }

    /// Structural-sharing census against an older snapshot of this index:
    /// `(shared, rebuilt)` where `shared` counts blocks still
    /// pointer-identical to `prev`'s and `rebuilt` is the remainder of this
    /// index's blocks (copied-on-write or freshly pushed). Feeds the
    /// `serve.publish.blocks_shared` / `blocks_rebuilt` counters.
    pub fn shared_blocks_with(&self, prev: &IndexGraph) -> (usize, usize) {
        let shared = self
            .blocks
            .iter()
            .zip(&prev.blocks)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        (shared, self.size() - shared)
    }

    /// True when `inode`'s block is the same allocation in both snapshots —
    /// the per-block probe behind the sharing regression tests. False when
    /// either snapshot has no such block.
    pub fn block_ptr_eq(&self, prev: &IndexGraph, inode: NodeId) -> bool {
        match (self.blocks.get(inode.index()), prev.blocks.get(inode.index())) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Approximate resident size in bytes (adjacency + extents + tables);
    /// reported alongside node counts by the size experiments.
    pub fn approx_bytes(&self) -> usize {
        let per_node = std::mem::size_of::<LabelId>() + std::mem::size_of::<usize>();
        let adj: usize = self
            .blocks
            .iter()
            .map(|b| (b.children.len() + b.parents.len()) * std::mem::size_of::<NodeId>())
            .sum();
        let extents: usize = self
            .blocks
            .iter()
            .map(|b| b.extent.len() * std::mem::size_of::<NodeId>())
            .sum();
        self.size() * per_node + adj + extents + self.node_to_index.len() * 4
    }

    /// Sum of extent sizes (must equal the data graph's node count).
    pub fn total_extent_size(&self) -> usize {
        self.blocks.iter().map(|b| b.extent.len()).sum()
    }

    /// Add an index edge, deduplicating. Returns true if newly added.
    pub fn add_index_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        if self.block(from).children.contains(&to) {
            return false;
        }
        self.block_mut(from).children.push(to);
        self.block_mut(to).parents.push(from);
        self.edge_count += 1;
        true
    }

    /// Grow the data-node→index-node map to cover `n` data nodes (new slots
    /// are filled by subsequent splits/assignments). Needed when the data
    /// graph grows (subgraph addition).
    pub fn grow_node_map(&mut self, n: usize) {
        if self.node_to_index.len() < n {
            self.node_to_index.resize(n, NodeId::from_index(0));
        }
    }

    /// Append a fresh index node with the given label, extent and similarity
    /// (edges must be added separately). Returns its id.
    pub fn push_node(&mut self, label: LabelId, mut extent: Vec<NodeId>, similarity: usize) -> NodeId {
        extent.sort_unstable();
        let id = NodeId::from_index(self.blocks.len());
        for &d in &extent {
            self.grow_node_map(d.index() + 1);
            if let Some(slot) = self.node_to_index.get_mut(d.index()) {
                *slot = id;
            }
        }
        self.blocks.push(Block::shared(label, extent, similarity));
        id
    }

    /// Intern a label in this index's interner (kept in sync with the data
    /// graph when new labels appear through updates). Copies the interner on
    /// write only when it is shared and the label is genuinely new.
    pub fn intern(&mut self, name: &str) -> LabelId {
        if let Some(id) = self.interner.get(name) {
            return id;
        }
        Arc::make_mut(&mut self.interner).intern(name)
    }

    /// A shared handle to this index's label interner, so a
    /// [`WalkView`](crate::WalkView) can name the same labels without
    /// copying the table.
    pub(crate) fn labels_shared(&self) -> Arc<LabelInterner> {
        Arc::clone(&self.interner)
    }

    /// Split `target`'s extent: the members in `moved` — a subset of the
    /// extent, in extent (ascending) order — go to a fresh index node (same
    /// label, similarity `new_similarity` for **both** fragments), and the
    /// edges of both fragments are recomputed from the data graph's
    /// adjacency of their members. Neighbors' edge lists are fixed up.
    ///
    /// Returns the new index node. Panics if `moved` is empty, covers the
    /// whole extent (no split), or is not an ascending subset of it.
    pub fn split_extent(
        &mut self,
        target: NodeId,
        moved: &[NodeId],
        new_similarity: usize,
        data: &DataGraph,
    ) -> NodeId {
        let old_extent = std::mem::take(&mut self.block_mut(target).extent);
        assert!(!moved.is_empty(), "split with empty moved set");
        assert!(
            moved.len() < old_extent.len(),
            "split must leave both fragments non-empty"
        );
        // One merge walk: both lists ascend, so each extent member either
        // is the next moved member or stays.
        let mut pending = moved.iter().peekable();
        let kept: Vec<NodeId> = old_extent
            .into_iter()
            .filter(|m| pending.next_if_eq(&m).is_none())
            .collect();
        assert!(pending.next().is_none(), "moved ⊄ extent, or not in extent order");
        {
            let target_block = self.block_mut(target);
            target_block.extent = kept;
            target_block.similarity = new_similarity;
        }

        let label = self.block(target).label;
        let new_node = self.push_node(label, moved.to_vec(), new_similarity);

        // Drop every edge incident to `target`; recompute for both fragments.
        self.drop_edges_of(target);
        self.recompute_edges_from_data(target, data);
        self.recompute_edges_from_data(new_node, data);
        new_node
    }

    /// Remove all edges incident to `inode` from the adjacency lists.
    fn drop_edges_of(&mut self, inode: NodeId) {
        let children = std::mem::take(&mut self.block_mut(inode).children);
        for c in children {
            let neighbor = self.block_mut(c);
            if let Some(pos) = neighbor.parents.iter().position(|&p| p == inode) {
                neighbor.parents.swap_remove(pos);
                self.edge_count -= 1;
            }
        }
        let parents = std::mem::take(&mut self.block_mut(inode).parents);
        for p in parents {
            let neighbor = self.block_mut(p);
            if let Some(pos) = neighbor.children.iter().position(|&c| c == inode) {
                neighbor.children.swap_remove(pos);
                self.edge_count -= 1;
            }
        }
    }

    /// Recompute `inode`'s incident edges by scanning its extent's data
    /// adjacency. Cost is proportional to the extent size and degree — the
    /// locality that makes splits cheap.
    fn recompute_edges_from_data(&mut self, inode: NodeId, data: &DataGraph) {
        let extent = std::mem::take(&mut self.block_mut(inode).extent);
        for &m in &extent {
            for &p in data.parents_of(m) {
                let pi = self.index_of(p);
                self.add_index_edge(pi, inode);
            }
            for &c in data.children_of(m) {
                let ci = self.index_of(c);
                self.add_index_edge(inode, ci);
            }
        }
        self.block_mut(inode).extent = extent;
    }

    /// Reconstruct the partition of data nodes induced by the extents
    /// (block ids == index node ids).
    pub fn to_partition(&self) -> Partition {
        Partition::from_block_of(
            self.node_to_index
                .iter()
                .map(|&i| dkindex_partition::BlockId::from_index(i.index()))
                .collect(),
        )
    }

    /// Check that every extent really is `similarity(inode)`-bisimilar in
    /// `data` (expensive; tests only). `cap` bounds the checked k to keep
    /// `SIM_EXACT` nodes affordable.
    pub fn check_extent_bisimilarity(&self, data: &DataGraph, cap: usize) -> Result<(), String> {
        use dkindex_partition::KBisimTable;
        let max_k = self
            .node_ids()
            .map(|i| self.similarity(i).min(cap))
            .max()
            .unwrap_or(0);
        // One table per distinct k in use.
        for k in 0..=max_k {
            let table = KBisimTable::compute(data, k);
            for inode in self.node_ids() {
                if self.similarity(inode).min(cap) != k {
                    continue;
                }
                let extent = self.extent(inode);
                for w in extent.windows(2) {
                    if !table.bisimilar(w[0], w[1]) {
                        return Err(format!(
                            "extent of {inode:?} not {k}-bisimilar: {:?} vs {:?}",
                            w[0], w[1]
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

impl LabeledGraph for IndexGraph {
    #[inline]
    fn node_count(&self) -> usize {
        self.blocks.len()
    }

    #[inline]
    fn edge_count(&self) -> usize {
        self.edge_count
    }

    #[inline]
    fn label_of(&self, node: NodeId) -> LabelId {
        self.block(node).label
    }

    #[inline]
    fn children_of(&self, node: NodeId) -> &[NodeId] {
        &self.block(node).children
    }

    #[inline]
    fn parents_of(&self, node: NodeId) -> &[NodeId] {
        &self.block(node).parents
    }

    #[inline]
    fn root(&self) -> NodeId {
        self.root
    }

    #[inline]
    fn labels(&self) -> &LabelInterner {
        &self.interner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::check_structure;
    use dkindex_graph::EdgeKind;
    use dkindex_partition::k_bisimulation;

    fn small() -> DataGraph {
        let mut g = DataGraph::new();
        let a1 = g.add_labeled_node("a");
        let a2 = g.add_labeled_node("a");
        let b1 = g.add_labeled_node("b");
        let b2 = g.add_labeled_node("b");
        let r = g.root();
        g.add_edge(r, a1, EdgeKind::Tree);
        g.add_edge(r, a2, EdgeKind::Tree);
        g.add_edge(a1, b1, EdgeKind::Tree);
        g.add_edge(a2, b2, EdgeKind::Tree);
        g.add_edge(b1, b2, EdgeKind::Reference);
        g
    }

    #[test]
    fn from_partition_builds_consistent_summary() {
        let g = small();
        let p = k_bisimulation(&g, 1);
        let sims = vec![1; p.block_count()];
        let idx = IndexGraph::from_data_partition(&g, &p, sims);
        check_structure(&idx, &g).unwrap();
        assert_eq!(idx.total_extent_size(), g.node_count());
        // b1 and b2 differ at k=1 (b2 has a b-labeled parent).
        assert!(idx.size() >= 4);
    }

    #[test]
    fn a_clone_shares_every_block_until_one_is_written() {
        let g = small();
        let p = Partition::by_label(&g);
        let idx = IndexGraph::from_data_partition(&g, &p, vec![0; p.block_count()]);
        let mut next = idx.clone();
        assert_eq!(next.shared_blocks_with(&idx), (3, 0));
        let b = NodeId::from_index(2);
        next.set_similarity(b, 0); // the stored value: unshares nothing
        assert!(next.block_ptr_eq(&idx, b));
        next.set_similarity(b, 1);
        assert_eq!(next.shared_blocks_with(&idx), (2, 1));
        assert!(!next.block_ptr_eq(&idx, b));
        // The older snapshot never observes the write.
        assert_eq!((idx.similarity(b), next.similarity(b)), (0, 1));
        assert!(!next.block_ptr_eq(&idx, NodeId::from_index(3)), "out of range");
    }

    #[test]
    fn label_split_index_has_one_node_per_label() {
        let g = small();
        let p = Partition::by_label(&g);
        let idx = IndexGraph::from_data_partition(&g, &p, vec![0; p.block_count()]);
        check_structure(&idx, &g).unwrap();
        assert_eq!(idx.size(), 3); // ROOT, a, b
        let a_label = g.labels().get("a").unwrap();
        let a_inode = idx
            .node_ids()
            .find(|&i| idx.label_of(i) == a_label)
            .unwrap();
        assert_eq!(idx.extent(a_inode).len(), 2);
    }

    #[test]
    fn index_edges_project_data_edges() {
        let g = small();
        let p = Partition::by_label(&g);
        let idx = IndexGraph::from_data_partition(&g, &p, vec![0; p.block_count()]);
        // Label graph: ROOT->a, a->b, b->b (via reference b1->b2).
        assert_eq!(idx.edge_count(), 3);
        let b_label = g.labels().get("b").unwrap();
        let b = idx.node_ids().find(|&i| idx.label_of(i) == b_label).unwrap();
        assert!(idx.children_of(b).contains(&b)); // self loop
    }

    #[test]
    fn split_extent_keeps_invariants() {
        let g = small();
        let p = Partition::by_label(&g);
        let mut idx = IndexGraph::from_data_partition(&g, &p, vec![0; p.block_count()]);
        let b_label = g.labels().get("b").unwrap();
        let b = idx.node_ids().find(|&i| idx.label_of(i) == b_label).unwrap();
        let b2 = idx.extent(b)[1];
        let new_node = idx.split_extent(b, &[b2], 1, &g);
        assert_eq!(idx.extent(new_node), &[b2]);
        assert_eq!(idx.extent(b).len(), 1);
        assert_eq!(idx.similarity(b), 1);
        assert_eq!(idx.similarity(new_node), 1);
        check_structure(&idx, &g).unwrap();
    }

    #[test]
    #[should_panic(expected = "both fragments")]
    fn split_everything_panics() {
        let g = small();
        let p = Partition::by_label(&g);
        let mut idx = IndexGraph::from_data_partition(&g, &p, vec![0; p.block_count()]);
        let b_label = g.labels().get("b").unwrap();
        let b = idx.node_ids().find(|&i| idx.label_of(i) == b_label).unwrap();
        let moved = idx.extent(b).to_vec();
        idx.split_extent(b, &moved, 1, &g);
    }

    #[test]
    fn reindex_merges_extents_back() {
        let g = small();
        // Fine partition: full bisimulation.
        let fine = dkindex_partition::bisimulation_fixpoint(&g);
        let fine_idx =
            IndexGraph::from_data_partition(&g, &fine, vec![SIM_EXACT; fine.block_count()]);
        // Re-index the fine index by label only: must equal the label-split
        // index of g (Theorem 2 in miniature).
        let relabel = Partition::by_label(&fine_idx);
        let coarse = IndexGraph::reindex(&fine_idx, &relabel, vec![0; relabel.block_count()]);
        check_structure(&coarse, &g).unwrap();
        assert_eq!(coarse.size(), 3);
    }

    #[test]
    fn to_partition_round_trips() {
        let g = small();
        let p = k_bisimulation(&g, 2);
        let idx = IndexGraph::from_data_partition(&g, &p, vec![2; p.block_count()]);
        assert!(idx.to_partition().same_equivalence(&p));
    }

    #[test]
    fn extent_bisimilarity_checker_accepts_correct_sims() {
        let g = small();
        let p = k_bisimulation(&g, 1);
        let idx = IndexGraph::from_data_partition(&g, &p, vec![1; p.block_count()]);
        idx.check_extent_bisimilarity(&g, 4).unwrap();
    }

    #[test]
    fn extent_bisimilarity_checker_rejects_inflated_sims() {
        let g = small();
        let p = Partition::by_label(&g);
        // Claim k=1 on the label-split index: false for the b block.
        let idx = IndexGraph::from_data_partition(&g, &p, vec![1; p.block_count()]);
        assert!(idx.check_extent_bisimilarity(&g, 4).is_err());
    }

    #[test]
    fn structural_constraint_detects_violation() {
        let g = small();
        let p = Partition::by_label(&g);
        let mut idx = IndexGraph::from_data_partition(&g, &p, vec![0; p.block_count()]);
        let b_label = g.labels().get("b").unwrap();
        let b = idx.node_ids().find(|&i| idx.label_of(i) == b_label).unwrap();
        idx.set_similarity(b, 5); // parent a still has k=0: violates 0 ≥ 5-1
        let finding = check_structure(&idx, &g).unwrap_err();
        assert_eq!(finding.invariant, crate::audit::Invariant::StructuralConstraint);
    }
}
