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
//! ## Layout
//!
//! The index graph is its columns, in memory as in the snapshot's `INDX`
//! section: labels, similarities and the data-node → index-node map are
//! flat columns; extents are one [`SegCsr`] of ascending data-node rows;
//! children and parents are an [`Adjacency`] — the data graph's adjacency
//! type, so a query walks the index graph itself under the same row rule
//! (child rows in insertion order, parent rows ascending; a snapshot stores
//! child rows only, and the loader's transpose rebuilds the same parent
//! rows). The loader lays extents and adjacency out once from the stored
//! rows ([`SegCsr::from_rows`], [`Adjacency::from_child_rows`]), and a
//! build lays them out once from the partition's member column and the
//! projected child rows; every later write is incremental.
//!
//! ## Copy-on-write
//!
//! Cloning an index (and therefore a `DkIndex`) bumps one refcount per flat
//! column and per segment of the extent, child and parent columns instead
//! of deep-copying extents, edges, similarities, labels or the node map.
//! This is the index half of the delta-epoch publish path (the data half is
//! the data graph's flat label column, its adjacency and its reference
//! column):
//!
//! 1. **Clone is shallow**: `clone()` copies column and segment handles,
//!    never their contents.
//! 2. **Mutation is per storage unit**: an extent or edge write deep-copies
//!    the one segment holding each row it changes, only while that segment
//!    is shared with an older epoch (the [`SegCsr`] rule). A flat column is
//!    copied whole, once per epoch that writes it: similarities by an
//!    [`IndexGraph::set_similarity`] that changes a value, labels only by
//!    [`IndexGraph::push_node`], the node map by `push_node` (so also
//!    [`IndexGraph::split_extent`]) and by growing it; `push_node` also
//!    appends a similarity. A write of what is already stored copies
//!    nothing, and an edge write copies no flat column and no extent
//!    segment. [`IndexGraph::reindex`] builds every column afresh.
//! 3. **Sharing is observable**: [`IndexGraph::census_with`] counts, per
//!    column, the rows still shared with an older snapshot and the rows of
//!    copied storage that changed nothing, and
//!    [`IndexGraph::shared_blocks_with`] reads its extents entry;
//!    `tests/cow.rs`, the `serve.publish.blocks_*` counters and
//!    bench-smoke's churn gate are built on them.
//! 4. **Representation never leaks into answers**: a query, snapshot, or
//!    audit sees identical bytes whether its epoch shares every column and
//!    segment or none.

use dkindex_graph::{
    Adjacency, ColumnCensus, DataGraph, LabelId, LabelInterner, LabeledGraph, NodeId, SegCsr,
};
use dkindex_partition::Partition;
use std::sync::Arc;

/// Local similarity value representing "exactly bisimilar" (the 1-index):
/// sound for a path expression of any length. Large but safe under `+ 1`.
pub const SIM_EXACT: usize = usize::MAX / 4;

/// A structural summary of a data graph.
///
/// Labels, similarities and the node→block map are flat columns, extents
/// one [`SegCsr`] and children and parents an [`Adjacency`]. Cloning an
/// `IndexGraph` is therefore a copy-on-write snapshot (see the module docs):
/// the clone shares every column and segment with the original until one of
/// them writes it, which is what lets the serve layer publish a maintenance
/// batch by rebuilding only what the batch touched.
#[derive(Clone, Debug)]
pub struct IndexGraph {
    /// Label of each index node, in id order.
    labels: Arc<Vec<LabelId>>,
    /// Local similarity `k` of each index node (paper Definition 2).
    similarities: Arc<Vec<usize>>,
    /// Each index node's extent: the data nodes it summarizes, ascending.
    extents: SegCsr,
    adjacency: Adjacency,
    /// data node -> index node containing it.
    node_to_index: Arc<Vec<NodeId>>,
    interner: Arc<LabelInterner>,
    root: NodeId,
}

/// The index node of `n`'s block in `partition`.
fn block_node(partition: &Partition, n: NodeId) -> NodeId {
    NodeId::from_index(partition.block_of(n).index())
}

impl IndexGraph {
    /// An index over the given columns, one row per block.
    fn from_columns(
        labels: Vec<LabelId>,
        similarities: Vec<usize>,
        extents: SegCsr,
        adjacency: Adjacency,
        node_to_index: Vec<NodeId>,
        interner: Arc<LabelInterner>,
        root: NodeId,
    ) -> Self {
        assert_eq!([similarities.len(), extents.rows(), adjacency.rows()], [labels.len(); 3]);
        IndexGraph {
            labels: Arc::new(labels),
            similarities: Arc::new(similarities),
            extents,
            adjacency,
            node_to_index: Arc::new(node_to_index),
            interner,
            root,
        }
    }

    /// Build an index graph from a partition of `g`'s nodes. `similarity[b]`
    /// is the local similarity of block `b` (same indexing as the partition's
    /// blocks). Every extent is the block's member list, taken straight from
    /// the partition's ascending member column.
    pub fn from_data_partition(g: &DataGraph, partition: &Partition, similarity: Vec<usize>) -> Self {
        let (ends, members) = partition.member_column();
        let extents = SegCsr::from_rows(ends.iter().copied(), members.iter().copied());
        let extents = extents.expect("a partition's member column is a layout");
        let node_map = g.node_ids().map(|n| block_node(partition, n)).collect();
        Self::merge(g, partition, similarity, extents, node_map, g.labels_shared())
    }

    /// Re-index: treat `base` itself as a data graph, partition *its* nodes,
    /// and merge extents. Used by the subgraph-addition update and the
    /// demoting process (paper Theorem 2: the D(k)-index of any refinement of
    /// a D(k)-index is the D(k)-index itself). A block's extent is the union
    /// of its members' extents (they are disjoint), sorted.
    pub fn reindex(base: &IndexGraph, partition: &Partition, similarity: Vec<usize>) -> Self {
        // The node map starts as one copy of base's, rewritten per extent.
        let mut node_map = base.node_to_index.to_vec();
        let mut ends = Vec::with_capacity(partition.block_count());
        let mut members = Vec::with_capacity(node_map.len());
        for b in partition.block_ids() {
            let start = members.len();
            for &n in partition.members(b) {
                members.extend_from_slice(base.extent(n));
            }
            let extent = &mut members[start..];
            extent.sort_unstable();
            for &d in &*extent {
                if let Some(slot) = node_map.get_mut(d.index()) {
                    *slot = NodeId::from_index(b.index());
                }
            }
            ends.push(members.len() as u32);
        }
        let extents = SegCsr::from_rows(ends.into_iter(), members.into_iter());
        let extents = extents.expect("extent ends ascend to the member count");
        Self::merge(base, partition, similarity, extents, node_map, Arc::clone(&base.interner))
    }

    /// The index over `partition`'s blocks of `g`'s nodes, given its extents
    /// and node map: a block's label is its first member's, and its edges are
    /// `g`'s edges projected to the blocks, laid out in one pass. Block by
    /// block, in member order and then child order, a child's block is
    /// appended to the row unless the row already holds it — a stamp per
    /// block records the last row that took it. Members ascend, so each row
    /// lists its targets in the order [`Adjacency::add`] over `g`'s child
    /// rows in node order would, and [`Adjacency::from_child_rows`]'s
    /// transpose leaves the parent rows ascending, as `add` does.
    fn merge<G: LabeledGraph>(
        g: &G,
        partition: &Partition,
        similarity: Vec<usize>,
        extents: SegCsr,
        node_map: Vec<NodeId>,
        interner: Arc<LabelInterner>,
    ) -> Self {
        assert_eq!(partition.node_count(), g.node_count());
        assert_eq!(similarity.len(), partition.block_count());
        let blocks = partition.block_count();
        let mut labels = Vec::with_capacity(blocks);
        let (mut ends, mut targets) = (Vec::with_capacity(blocks), Vec::new());
        let mut last_row = vec![u32::MAX; blocks];
        for b in partition.block_ids() {
            let row = b.index() as u32;
            let members = partition.members(b);
            labels.push(g.label_of(members[0]));
            for &n in members {
                for &to in g.children_of(n) {
                    let to = block_node(partition, to);
                    let stamp = &mut last_row[to.index()];
                    if *stamp != row {
                        *stamp = row;
                        targets.push(to);
                    }
                }
            }
            ends.push(targets.len() as u32);
        }
        let children = SegCsr::from_rows(ends.into_iter(), targets.into_iter());
        let children = children.expect("projected row ends ascend to the target count");
        let adjacency = Adjacency::from_child_rows(children);
        let adjacency = adjacency.expect("projected rows are an adjacency");
        let root = block_node(partition, g.root());
        Self::from_columns(labels, similarity, extents, adjacency, node_map, interner, root)
    }

    /// Reassemble an index graph from its stored columns (the `store`
    /// module's loader): per block a label and a similarity, the extents and
    /// the child rows each one [`SegCsr`], and the root. Checks what the
    /// columns must hold to be an index at all: one of each per block, the
    /// labels in the interner, the root a block, each extent ascending and
    /// the child rows an adjacency ([`Adjacency::from_child_rows`]). Fills
    /// the map of `data_nodes` data nodes from the extents, skipping a
    /// member out of range or already placed. Whether the extents partition
    /// the data nodes and agree with that map, and whether the index
    /// summarizes a given data graph, is [`crate::audit::check_structure`]'s
    /// verdict, which the snapshot loader runs before anything uses it.
    pub(crate) fn from_stored_columns(
        interner: LabelInterner,
        labels: Vec<LabelId>,
        similarity: Vec<usize>,
        extents: SegCsr,
        children: SegCsr,
        root: NodeId,
        data_nodes: usize,
    ) -> Result<IndexGraph, String> {
        let blocks = labels.len();
        if labels.iter().any(|label| label.index() >= interner.len()) {
            return Err("a block label is out of range".to_string());
        }
        if root.index() >= blocks {
            return Err("root index node out of range".to_string());
        }
        if [similarity.len(), extents.rows(), children.rows()] != [blocks; 3] {
            return Err("the similarities, extents or child rows are not one per block".to_string());
        }
        let unassigned = NodeId::from_index(u32::MAX as usize);
        let mut node_to_index = vec![unassigned; data_nodes];
        for b in 0..blocks {
            let run = extents.row(b).unwrap_or_default();
            if run.windows(2).any(|pair| pair[0] >= pair[1]) {
                return Err(format!("the extent of block {b} does not ascend"));
            }
            // The first extent holding a data node keeps it, so the audit
            // names a node held twice as the duplicate it is.
            for &d in run {
                match node_to_index.get_mut(d.index()) {
                    Some(slot) if *slot == unassigned => *slot = NodeId::from_index(b),
                    _ => {}
                }
            }
        }
        let (adjacency, interner) = (Adjacency::from_child_rows(children)?, Arc::new(interner));
        Ok(Self::from_columns(labels, similarity, extents, adjacency, node_to_index, interner, root))
    }

    /// Move the root to `root`: the audit tests' way to corrupt an index.
    #[cfg(test)]
    pub(crate) fn set_root(&mut self, root: NodeId) {
        assert!(root.index() < self.size());
        self.root = root;
    }

    /// Number of index nodes — the paper's "index size" (X axis of figs 4–7).
    #[inline]
    pub fn size(&self) -> usize {
        self.labels.len()
    }

    /// The extent of index node `inode` (sorted data node ids).
    #[inline]
    pub fn extent(&self, inode: NodeId) -> &[NodeId] {
        self.extents.row(inode.index()).expect("index node out of range")
    }

    /// The index node containing data node `data_node`.
    #[inline]
    pub fn index_of(&self, data_node: NodeId) -> NodeId {
        *self.node_to_index.get(data_node.index()).expect("data node out of range")
    }

    /// The data node → index node map, one entry per data node.
    #[inline]
    pub(crate) fn node_map(&self) -> &[NodeId] {
        &self.node_to_index
    }

    /// The similarity column: each index node's local similarity.
    #[inline]
    pub(crate) fn similarities(&self) -> &[usize] {
        &self.similarities
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
        self.similarities[inode.index()]
    }

    /// Set the local similarity of `inode`. Writing the value already stored
    /// is a true no-op, so it does not unshare the column from older epochs.
    #[inline]
    pub fn set_similarity(&mut self, inode: NodeId, k: usize) {
        if self.similarity(inode) != k {
            // Copies the column iff an older snapshot still shares it.
            Arc::make_mut(&mut self.similarities)[inode.index()] = k;
        }
    }

    /// The extents entry of [`IndexGraph::census_with`] as `(shared,
    /// rebuilt)`: the blocks whose extent row sits in a segment still
    /// pointer-identical to `prev`'s, and the rest of this index's blocks
    /// (in a copied-on-write or fresh segment, or pushed since). Feeds the
    /// `serve.publish.blocks_shared` / `blocks_rebuilt` counters.
    pub fn shared_blocks_with(&self, prev: &IndexGraph) -> (usize, usize) {
        let extents = self.extents.census_with(&prev.extents);
        (extents.shared, extents.copied())
    }

    /// The columns [`IndexGraph::census_with`] reports, in its order.
    pub const CENSUS_COLUMNS: [&'static str; 6] =
        ["labels", "similarities", "node map", "extents", "children", "parents"];

    /// Every column's [`ColumnCensus`] against an older snapshot of this
    /// index, in [`IndexGraph::CENSUS_COLUMNS`] order: labels,
    /// similarities, the node map, extents, children and parents.
    /// Diagnostics only: contents never depend on sharing.
    pub fn census_with(&self, older: &IndexGraph) -> [ColumnCensus; 6] {
        let [children, parents] = self.adjacency.census_with(&older.adjacency);
        [
            ColumnCensus::flat(&self.labels, &older.labels),
            ColumnCensus::flat(&self.similarities, &older.similarities),
            ColumnCensus::flat(&self.node_to_index, &older.node_to_index),
            self.extents.census_with(&older.extents),
            children,
            parents,
        ]
    }

    /// Approximate resident size in bytes (adjacency + extents + tables);
    /// reported alongside node counts by the size experiments.
    pub fn approx_bytes(&self) -> usize {
        let per_node = std::mem::size_of::<LabelId>() + std::mem::size_of::<usize>();
        let adj = 2 * self.edge_count() * std::mem::size_of::<NodeId>();
        let extents = self.total_extent_size() * std::mem::size_of::<NodeId>();
        self.size() * per_node + adj + extents + self.node_to_index.len() * 4
    }

    /// Sum of extent sizes (must equal the data graph's node count).
    pub fn total_extent_size(&self) -> usize {
        self.extents.target_count()
    }

    /// Every index edge `(from, to)`, child row by child row.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adjacency.edges()
    }

    /// Add an index edge, deduplicating ([`Adjacency::add`]). Returns true
    /// if newly added.
    pub fn add_index_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        self.adjacency.add(from, to)
    }

    /// Grow the data-node→index-node map to cover `n` data nodes (new slots
    /// are filled by subsequent splits/assignments). Needed when the data
    /// graph grows (subgraph addition).
    pub(crate) fn grow_node_map(&mut self, n: usize) {
        if self.node_to_index.len() < n {
            Arc::make_mut(&mut self.node_to_index).resize(n, NodeId::from_index(0));
        }
    }

    /// Append a fresh index node with the given label, extent and similarity
    /// (edges must be added separately). Returns its id. The one write to
    /// the label column, and the node map's one write besides growing it:
    /// each flat column is copied here when an older snapshot shares it,
    /// and the extent column's last segment when it is shared.
    pub fn push_node(&mut self, label: LabelId, mut extent: Vec<NodeId>, similarity: usize) -> NodeId {
        extent.sort_unstable();
        let id = NodeId::from_index(self.size());
        let map = Arc::make_mut(&mut self.node_to_index);
        self.extents.push_row();
        for &d in &extent {
            if map.len() <= d.index() {
                map.resize(d.index() + 1, NodeId::from_index(0));
            }
            map[d.index()] = id;
            self.extents.push_to_row(id.index(), d);
        }
        Arc::make_mut(&mut self.similarities).push(similarity);
        Arc::make_mut(&mut self.labels).push(label);
        self.adjacency.push_row();
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

    /// Split `target`'s extent: the members in `moved` — a subset of the
    /// extent, in extent (ascending) order — go to a fresh index node (same
    /// label, similarity `new_similarity` for **both** fragments), and the
    /// edges of both fragments follow the data graph's adjacency of their
    /// members: `target` keeps the edges its remaining members support, and
    /// the new node gets its edges from its members. `target`'s edges must
    /// already match its extent's data adjacency, as every maintenance
    /// algorithm keeps them. Neighbors' rows are fixed up.
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
        assert!(!moved.is_empty(), "split with empty moved set");
        assert!(
            moved.len() < self.extent(target).len(),
            "split must leave both fragments non-empty"
        );
        // One merge pass over the row: both lists ascend, so each extent
        // member either is the next moved member or stays.
        let mut pending = moved.iter().peekable();
        self.extents.retain_row(target.index(), |m| pending.next_if_eq(&&m).is_none());
        assert!(pending.next().is_none(), "moved ⊄ extent, or not in extent order");
        self.set_similarity(target, new_similarity);

        let new_node = self.push_node(self.label_of(target), moved.to_vec(), new_similarity);

        // `target` loses the edges only the moved members supported; an
        // edge it keeps keeps its place in both rows. The only edges it can
        // gain run to or from `new_node`, whose recompute adds them.
        self.drop_unsupported_edges(target, data);
        self.recompute_edges_from_data(new_node, data);
        new_node
    }

    /// Remove every edge incident to `inode` that no data edge of its
    /// extent's members supports any more. The rest of each row it edits
    /// keeps its order.
    fn drop_unsupported_edges(&mut self, inode: NodeId, data: &DataGraph) {
        let mut parents: Vec<NodeId> = Vec::new();
        let mut children: Vec<NodeId> = Vec::new();
        for &m in self.extent(inode) {
            parents.extend(data.parents_of(m).iter().map(|&p| self.index_of(p)));
            children.extend(data.children_of(m).iter().map(|&c| self.index_of(c)));
        }
        for set in [&mut parents, &mut children] {
            set.sort_unstable();
            set.dedup();
        }
        for p in self.parents_of(inode).to_vec() {
            if parents.binary_search(&p).is_err() {
                self.adjacency.remove(p, inode);
            }
        }
        for c in self.children_of(inode).to_vec() {
            if children.binary_search(&c).is_err() {
                self.adjacency.remove(inode, c);
            }
        }
    }

    /// Recompute `inode`'s incident edges by scanning its extent's data
    /// adjacency. Cost is proportional to the extent size and degree — the
    /// locality that makes splits cheap.
    fn recompute_edges_from_data(&mut self, inode: NodeId, data: &DataGraph) {
        // Edge writes touch the adjacency alone, so the extent and the node
        // map are read in place while it changes.
        let IndexGraph { extents, adjacency, node_to_index, .. } = self;
        let index_of = |d: NodeId| node_to_index[d.index()];
        for &m in extents.row(inode.index()).expect("index node out of range") {
            for &p in data.parents_of(m) {
                adjacency.add(index_of(p), inode);
            }
            for &c in data.children_of(m) {
                adjacency.add(inode, index_of(c));
            }
        }
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
    /// `data` (Definition 2; expensive). The test oracle for extent
    /// truthfulness, for unit and integration tests alike; nothing in the
    /// library calls it. `cap` bounds the checked k to keep `SIM_EXACT`
    /// nodes affordable.
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
        self.size()
    }

    #[inline]
    fn edge_count(&self) -> usize {
        self.adjacency.edge_count()
    }

    #[inline]
    fn label_of(&self, node: NodeId) -> LabelId {
        self.labels[node.index()]
    }

    #[inline]
    fn children_of(&self, node: NodeId) -> &[NodeId] {
        self.adjacency.children(node).expect("index node out of range")
    }

    #[inline]
    fn parents_of(&self, node: NodeId) -> &[NodeId] {
        self.adjacency.parents(node).expect("index node out of range")
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
    fn a_clone_shares_every_column_until_one_is_written() {
        let g = small();
        let p = Partition::by_label(&g);
        let idx = IndexGraph::from_data_partition(&g, &p, vec![0; p.block_count()]);
        let mut next = idx.clone();
        let shares_similarities = |next: &IndexGraph| {
            let [_, similarities, ..] = next.census_with(&idx);
            similarities.shared == similarities.rows
        };
        assert_eq!(next.shared_blocks_with(&idx), (3, 0));
        assert!(shares_similarities(&next));
        let (a, b) = (NodeId::from_index(1), NodeId::from_index(2));
        next.set_similarity(b, 0); // the stored value: copies nothing
        assert!(shares_similarities(&next));
        // The first changed value copies the column once, and no extent.
        next.set_similarity(b, 1);
        assert!(!shares_similarities(&next));
        let copy = Arc::as_ptr(&next.similarities);
        next.set_similarity(a, 1);
        assert_eq!(Arc::as_ptr(&next.similarities), copy);
        assert_eq!(next.shared_blocks_with(&idx), (3, 0));
        // The older snapshot never observes the write.
        assert_eq!((idx.similarity(b), next.similarity(b)), (0, 1));

        // A split rewrites its row and pushes one: the extent segment is
        // copied, and the original keeps its rows.
        let b2 = NodeId::from_index(4);
        let fresh = next.split_extent(b, &[b2], 1, &g);
        assert_eq!(next.shared_blocks_with(&idx), (0, 4));
        let census = next.census_with(&idx);
        // Every column holds one segment, and the split wrote each: the
        // extent segment and both adjacency segments, the grown flat
        // columns, and nothing that did not change.
        assert_eq!(census.map(|c| c.shared), [0; 6]);
        assert!(census.iter().all(|c| c.copied_unchanged == 0));
        assert_eq!((next.extent(b), next.extent(fresh)), (&[NodeId::from_index(3)][..], &[b2][..]));
        assert_eq!(idx.extent(b), [NodeId::from_index(3), b2]);
        assert_eq!(idx.total_extent_size(), next.total_extent_size());
    }

    #[test]
    fn the_node_map_is_shared_until_a_node_moves_then_copied_once() {
        let same_map =
            |a: &IndexGraph, b: &IndexGraph| Arc::ptr_eq(&a.node_to_index, &b.node_to_index);
        let g = small();
        let p = Partition::by_label(&g);
        let idx = IndexGraph::from_data_partition(&g, &p, vec![0; p.block_count()]);
        let blocks_of = |i: &IndexGraph| g.node_ids().map(|d| i.index_of(d)).collect::<Vec<_>>();
        let old = blocks_of(&idx);

        // A clone shares the map, and similarity and edge writes leave it so.
        let mut next = idx.clone();
        assert!(same_map(&next, &idx));
        let (a, b) = (NodeId::from_index(1), NodeId::from_index(2));
        next.set_similarity(b, 1);
        assert!(next.add_index_edge(b, a));
        assert!(same_map(&next, &idx));
        let mut data = g.clone();
        let mut dk = crate::DkIndex::build(&data, crate::Requirements::uniform(1));
        let before = dk.clone();
        let (b2, a1) = (NodeId::from_index(4), NodeId::from_index(1));
        dk.add_edge(&mut data, b2, a1);
        assert!(data.has_edge(b2, a1));
        assert!(same_map(dk.index(), before.index()));

        // A split copies it once; a second split in the same epoch writes
        // that copy in place.
        let mut split = idx.clone();
        let fresh = split.split_extent(b, &[b2], 1, &g);
        assert!(!same_map(&split, &idx));
        let copy = Arc::as_ptr(&split.node_to_index);
        let second = split.split_extent(a, &[NodeId::from_index(2)], 1, &g);
        assert_eq!(Arc::as_ptr(&split.node_to_index), copy);
        assert_eq!((split.index_of(b2), split.index_of(NodeId::from_index(2))), (fresh, second));

        // Re-indexing builds its own map and leaves its base's alone.
        let relabel = Partition::by_label(&split);
        let merged = IndexGraph::reindex(&split, &relabel, vec![0; relabel.block_count()]);
        assert!(!same_map(&merged, &split));
        assert_eq!(Arc::as_ptr(&split.node_to_index), copy);
        assert_eq!(blocks_of(&merged), old);

        // The older snapshot still maps every data node to its old block.
        assert_eq!(blocks_of(&idx), old);
        assert_eq!(Arc::strong_count(&idx.node_to_index), 2, "idx and next");
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

    /// The oracle for `merge`'s bulk projection: the adjacency
    /// [`Adjacency::add`] leaves over `g`'s child rows, in node order, each
    /// edge mapped to its blocks.
    fn projected_by_add<G: LabeledGraph>(g: &G, p: &Partition) -> Adjacency {
        let mut adjacency = Adjacency::with_rows(p.block_count());
        for from in g.node_ids() {
            for &to in g.children_of(from) {
                adjacency.add(block_node(p, from), block_node(p, to));
            }
        }
        adjacency
    }

    /// Child rows equal in order, parent rows equal and ascending.
    fn assert_rows_equal(index: &IndexGraph, oracle: &Adjacency) {
        assert_eq!(index.size(), oracle.rows());
        for b in index.node_ids() {
            assert_eq!(Some(index.children_of(b)), oracle.children(b), "child row of {b:?}");
            assert_eq!(Some(index.parents_of(b)), oracle.parents(b), "parent row of {b:?}");
            assert!(index.parents_of(b).windows(2).all(|pair| pair[0] < pair[1]));
        }
    }

    #[test]
    fn the_bulk_projection_equals_the_incremental_one() {
        use dkindex_datagen::{random_graph, RandomGraphConfig};
        for seed in 0..6 {
            let config =
                RandomGraphConfig { nodes: 300, labels: 4, reference_edges: 90, max_fanout: 6, seed };
            let mut g = random_graph(&config);
            for n in (0..g.node_count()).step_by(13).map(NodeId::from_index) {
                g.add_edge(n, n, EdgeKind::Reference);
            }
            for k in [0, 1, 3] {
                let p = k_bisimulation(&g, k);
                let idx = IndexGraph::from_data_partition(&g, &p, vec![k; p.block_count()]);
                assert_rows_equal(&idx, &projected_by_add(&g, &p));
                for merge in [Partition::by_label(&idx), k_bisimulation(&idx, 1)] {
                    let merged = IndexGraph::reindex(&idx, &merge, vec![0; merge.block_count()]);
                    assert_rows_equal(&merged, &projected_by_add(&idx, &merge));
                    check_structure(&merged, &g).unwrap();
                }
            }
        }
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
