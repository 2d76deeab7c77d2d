//! The walk view: a flat, read-only copy of an index graph's walk
//! structure, for the index phase of query evaluation.
//!
//! An [`IndexGraph`] keeps each node in its own `Arc`-shared block (see
//! its module docs) so that publishing an epoch copies only the
//! blocks a batch touched. The forward product walk pays for that layout: every
//! `(state, node)` it pops chases `Vec<Arc<Block>>` → `Block` → `children`,
//! then one more scattered block per child to read its label. A
//! [`WalkView`] holds the same graph as flat arrays over block ids:
//!
//! * one label column, `labels[block]`;
//! * child and parent adjacency in CSR form — `u32` row offsets plus one
//!   target array each — with every row in the order of the block's own
//!   `children`/`parents` list, so a walk over the view activates
//!   `(state, node)` pairs in exactly the order, and at exactly the count,
//!   of a walk over the graph;
//! * the by-label seed lists ([`LabelIndex`]) built from the view.
//!
//! The view carries no similarity and no extents: the index→validate loop
//! in [`crate::eval`] reads those from the [`IndexGraph`] for the matched
//! blocks only. A view is never patched; it describes the graph it was built
//! from and nothing later, which is why its owners (one per
//! [`crate::IndexEvaluator`], one per published [`crate::Epoch`], built by
//! the epoch's first memo miss) only ever borrow immutable graphs.

use crate::index_graph::IndexGraph;
use dkindex_graph::{LabelId, LabelInterner, LabeledGraph, NodeId};
use dkindex_pathexpr::LabelIndex;
use std::sync::Arc;

/// One direction of adjacency in compressed sparse row form: node `n`'s
/// neighbors are `targets[offsets[n]..offsets[n + 1]]`.
#[derive(Clone, Debug)]
struct Csr {
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
}

impl Csr {
    fn with_capacity(nodes: usize, edges: usize) -> Self {
        let mut offsets = Vec::with_capacity(nodes + 1);
        offsets.push(0);
        Csr {
            offsets,
            targets: Vec::with_capacity(edges),
        }
    }

    /// Append the next node's row.
    fn push_row(&mut self, row: &[NodeId]) {
        self.targets.extend_from_slice(row);
        let end = u32::try_from(self.targets.len())
            .expect("a walk view addresses at most u32::MAX edges per direction");
        self.offsets.push(end);
    }

    #[inline]
    fn row(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// A flat, read-only [`LabeledGraph`] over an index graph's block ids: a
/// label column, child and parent CSR, and the by-label seed lists. See the
/// module docs for the ordering guarantee the walk relies on.
#[derive(Clone, Debug)]
pub struct WalkView {
    labels: Vec<LabelId>,
    children: Csr,
    parents: Csr,
    root: NodeId,
    interner: Arc<LabelInterner>,
    seeds: LabelIndex,
}

impl WalkView {
    /// Copy `index`'s labels and adjacency into flat arrays, in block order,
    /// and build the seed lists from the copy. O(blocks + edges).
    pub fn build(index: &IndexGraph) -> Self {
        let nodes = index.node_count();
        let edges = index.edge_count();
        let mut labels = Vec::with_capacity(nodes);
        let mut children = Csr::with_capacity(nodes, edges);
        let mut parents = Csr::with_capacity(nodes, edges);
        for node in index.node_ids() {
            labels.push(index.label_of(node));
            children.push_row(index.children_of(node));
            parents.push_row(index.parents_of(node));
        }
        let mut view = WalkView {
            labels,
            children,
            parents,
            root: index.root(),
            interner: index.labels_shared(),
            seeds: LabelIndex::default(),
        };
        view.seeds = LabelIndex::build(&view);
        view
    }

    /// The by-label seed lists, built from this view: what the forward walk
    /// seeds its first step from.
    pub fn seeds(&self) -> &LabelIndex {
        &self.seeds
    }
}

impl LabeledGraph for WalkView {
    #[inline]
    fn node_count(&self) -> usize {
        self.labels.len()
    }

    #[inline]
    fn edge_count(&self) -> usize {
        self.children.targets.len()
    }

    #[inline]
    fn label_of(&self, node: NodeId) -> LabelId {
        self.labels[node.index()]
    }

    #[inline]
    fn children_of(&self, node: NodeId) -> &[NodeId] {
        self.children.row(node)
    }

    #[inline]
    fn parents_of(&self, node: NodeId) -> &[NodeId] {
        self.parents.row(node)
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
