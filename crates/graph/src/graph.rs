//! The data graph: a rooted, directed, node-labeled graph (paper §3).
//!
//! XML and other semi-structured data are modeled as a directed labeled graph
//! with a single distinguished `ROOT` node. Tree (containment) edges and
//! reference (`ID`/`IDREF`, XLink) edges are both stored; the paper's
//! algorithms treat them identically, but the distinction is kept so that the
//! update experiments can sample reference-label pairs (§6.2) and so DOT
//! export can render references dashed, as in the paper's Figure 1.
//!
//! A [`DataGraph`] holds one flat label column, its edges as an
//! [`Adjacency`] (child rows in insertion order, parent rows ascending) and
//! each edge's kind as a third column, a [`SegCsr`] of the reference
//! children alone. There is no edge list: the edges are the child rows,
//! read in row order. Builders that grow a graph (the XML loader, the
//! generators, the update algorithms) add nodes and edges one at a time; a
//! loader that holds the columns builds the graph at once with
//! [`DataGraph::from_rows`], which validates them, lays each column out
//! once and gives the same rows.

use crate::adjacency::Adjacency;
use crate::label::{LabelId, LabelInterner};
use crate::segcsr::{ColumnCensus, SegCsr};
use std::fmt;
use std::sync::Arc;

/// Dense identifier of a node in a [`DataGraph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Numeric index of this node, suitable for indexing per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct a `NodeId` from an index previously obtained through
    /// [`NodeId::index`]. The caller must ensure the index is in range.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Whether an edge is a containment (tree) edge or a reference edge.
///
/// The data model does not differentiate between the two when evaluating path
/// expressions or building summaries (paper §3: "we do not differentiate
/// between these two kinds of edges"), but generators and the update
/// experiments need to know which edges are references.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum EdgeKind {
    /// Element–subelement / element–attribute / element–value containment.
    Tree,
    /// `ID`/`IDREF` or XLink reference.
    Reference,
}

/// Read-only view shared by data graphs and index graphs.
///
/// The path-expression evaluator and the partition-refinement engine are
/// generic over this trait, so the same automaton code evaluates queries on
/// the data graph and on any summary graph, and the same refinement code
/// builds an index from a data graph *or from another index graph* (the trick
/// behind the D(k) subgraph-addition update and the demoting process).
pub trait LabeledGraph {
    /// Number of nodes; node ids are `0..node_count()`.
    fn node_count(&self) -> usize;
    /// Number of directed edges.
    fn edge_count(&self) -> usize;
    /// Label of `node`.
    fn label_of(&self, node: NodeId) -> LabelId;
    /// Out-neighbors (children) of `node`.
    fn children_of(&self, node: NodeId) -> &[NodeId];
    /// In-neighbors (parents) of `node`.
    fn parents_of(&self, node: NodeId) -> &[NodeId];
    /// The distinguished root node.
    fn root(&self) -> NodeId;
    /// The label interner naming this graph's labels.
    fn labels(&self) -> &LabelInterner;

    /// Iterate over all node ids.
    fn node_ids(&self) -> NodeIds {
        NodeIds {
            next: 0,
            end: self.node_count() as u32,
        }
    }
}

/// Iterator over the node ids `0..n` of a graph.
#[derive(Clone, Debug)]
pub struct NodeIds {
    next: u32,
    end: u32,
}

impl Iterator for NodeIds {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.next < self.end {
            let id = NodeId(self.next);
            self.next += 1;
            Some(id)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.end - self.next) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for NodeIds {}

/// A rooted, directed, node-labeled multigraph-free graph.
///
/// Stores forward and backward adjacency so that both query evaluation
/// (forward) and bisimulation refinement (backward, over incoming paths) are
/// cheap. Nodes are created once and never removed; edges can be appended
/// (the paper's two update primitives are subgraph addition and edge
/// addition — deletions are out of scope for the paper and for this crate).
///
/// Labels are one flat column behind an [`Arc`], children and parents an
/// [`Adjacency`] and the reference children a [`SegCsr`] (CSR inside each
/// 64-node segment), and the label interner behind an [`Arc`], so
/// `clone()` is a shallow copy-on-write snapshot: two clones share every
/// segment until one of them mutates a node in it, and the label column
/// until one of them adds a node. This is what lets the serve layer publish a fresh epoch
/// after a maintenance batch by copying only the segments the batch touched
/// (see `core::serve`); no maintenance batch adds nodes in place.
///
/// A loader builds the graph from its stored columns with
/// [`DataGraph::from_rows`], which lays each column out once.
#[derive(Clone)]
pub struct DataGraph {
    /// Label of each node, in id order; copied only by `add_node`.
    labels: Arc<Vec<LabelId>>,
    adjacency: Adjacency,
    /// Each node's reference children, in child-row order: the edges of
    /// kind [`EdgeKind::Reference`]. Every other edge is a tree edge.
    references: SegCsr,
    root: NodeId,
    interner: Arc<LabelInterner>,
}

impl DataGraph {
    /// Create a graph containing only the distinguished `ROOT` node.
    pub fn new() -> Self {
        let children = SegCsr::from_rows([0].into_iter(), std::iter::empty());
        let children = children.expect("one empty row is a layout");
        DataGraph::from_rows(LabelInterner::new(), vec![LabelInterner::ROOT], children, |_| false)
            .expect("the one-node graph is well-formed")
    }

    /// Build a graph from its columns, as a snapshot stores them: the label
    /// interner, one label per node (node 0 is the root and carries
    /// `ROOT`), the child rows laid out by [`SegCsr::from_rows`] and each
    /// edge's kind (`reference(i)` is true when the `i`-th edge, counted
    /// child row by child row, is a reference edge). The result equals the
    /// graph `add_node` and `add_edge` build by adding the rows' edges in
    /// order: the parent rows come from one counting transpose
    /// ([`Adjacency::from_child_rows`]) and the reference rows are the
    /// child slots `reference` picks, so the build is linear in nodes plus
    /// edges. Fails, with the reason, when a label is not in the interner,
    /// node 0 is not `ROOT`, there is not one row per node, or the rows are
    /// not an adjacency.
    pub fn from_rows(
        interner: LabelInterner,
        labels: Vec<LabelId>,
        children: SegCsr,
        reference: impl Fn(usize) -> bool,
    ) -> Result<DataGraph, &'static str> {
        if labels.first() != Some(&LabelInterner::ROOT) {
            return Err("node 0 must carry the ROOT label");
        }
        if labels.iter().any(|label| label.index() >= interner.len()) {
            return Err("a label id is out of range");
        }
        if children.rows() != labels.len() {
            return Err("the child rows are not one per node");
        }
        let adjacency = Adjacency::from_child_rows(children)?;
        // One loop over the child slots, row by row, picks the reference
        // targets and each reference row's end.
        let (mut ends, mut targets, mut slot) = (Vec::with_capacity(labels.len()), Vec::new(), 0);
        for n in 0..labels.len() {
            for &to in adjacency.children(NodeId(n as u32)).unwrap_or_default() {
                if reference(slot) {
                    targets.push(to);
                }
                slot += 1;
            }
            ends.push(targets.len() as u32);
        }
        let references = SegCsr::from_rows(ends.into_iter(), targets.into_iter());
        let references = references.expect("the rows' reference slots are a layout");
        Ok(DataGraph {
            labels: Arc::new(labels),
            adjacency,
            references,
            root: NodeId(0),
            interner: Arc::new(interner),
        })
    }

    /// Intern a label string in this graph's interner. When the interner is
    /// shared with another graph or an index snapshot, it is copied on
    /// write first.
    pub fn intern(&mut self, name: &str) -> LabelId {
        if let Some(id) = self.interner.get(name) {
            return id;
        }
        Arc::make_mut(&mut self.interner).intern(name)
    }

    /// A shared handle to this graph's label interner, so index snapshots
    /// can name the same labels without copying the table.
    pub fn labels_shared(&self) -> Arc<LabelInterner> {
        Arc::clone(&self.interner)
    }

    /// Add a node with the given (already interned) label. The node starts
    /// disconnected; use [`DataGraph::add_edge`] to attach it.
    pub fn add_node(&mut self, label: LabelId) -> NodeId {
        debug_assert!(label.index() < self.interner.len(), "foreign label id");
        let id = NodeId(u32::try_from(self.labels.len()).expect("too many nodes"));
        Arc::make_mut(&mut self.labels).push(label);
        self.adjacency.push_row();
        self.references.push_row();
        id
    }

    /// Convenience: intern `label` and add a node carrying it.
    pub fn add_labeled_node(&mut self, label: &str) -> NodeId {
        let l = self.intern(label);
        self.add_node(l)
    }

    /// Add a directed edge `from → to`. Parallel edges are silently ignored
    /// (the data model's adjacency is a set, and summary construction would
    /// otherwise double-count parents).
    ///
    /// Returns `true` if the edge was newly inserted.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, kind: EdgeKind) -> bool {
        assert!(from.index() < self.node_count(), "edge source out of range");
        assert!(to.index() < self.node_count(), "edge target out of range");
        if !self.adjacency.add(from, to) {
            return false;
        }
        if kind == EdgeKind::Reference {
            self.references.push_to_row(from.index(), to);
        }
        true
    }

    /// True if the edge `from → to` exists: a binary search of `to`'s
    /// (ascending) parent row.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.adjacency.has(from, to)
    }

    /// Every edge as a `(from, to, kind)` triple, child row by child row in
    /// node order. A node's reference children are a subsequence of its
    /// child row in the same order, so the kinds come from one merge walk.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeKind)> + '_ {
        self.node_ids().flat_map(move |from| {
            let references = self.references.row(from.index()).unwrap_or_default();
            let mut references = references.iter().peekable();
            self.children_of(from).iter().map(move |&to| {
                let kind = match references.next_if_eq(&&to) {
                    Some(_) => EdgeKind::Reference,
                    None => EdgeKind::Tree,
                };
                (from, to, kind)
            })
        })
    }

    /// All nodes carrying `label`.
    pub fn nodes_with_label(&self, label: LabelId) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.label_of(n) == label)
            .collect()
    }

    /// Label name of a node (convenience over `labels().name(label_of(n))`).
    pub fn label_name(&self, node: NodeId) -> &str {
        self.interner.name(self.label_of(node))
    }

    /// The columns [`DataGraph::census_with`] reports, in its order.
    pub const CENSUS_COLUMNS: [&'static str; 4] = ["labels", "children", "parents", "references"];

    /// Every column's [`ColumnCensus`] against an older snapshot of this
    /// graph, in [`DataGraph::CENSUS_COLUMNS`] order: labels, children,
    /// parents and references. Diagnostics only: contents never depend on
    /// sharing.
    pub fn census_with(&self, older: &DataGraph) -> [ColumnCensus; 4] {
        let [children, parents] = self.adjacency.census_with(&older.adjacency);
        [
            ColumnCensus::flat(&self.labels, &older.labels),
            children,
            parents,
            self.references.census_with(&older.references),
        ]
    }

    /// Graft a copy of `sub` into this graph **under this graph's root**
    /// (paper §5.1: "a new subgraph H is inserted under the root of the
    /// original data graph G"). `sub`'s own root node is *not* copied; its
    /// children become children of `self`'s root. Labels are re-interned.
    ///
    /// Returns the mapping from `sub`'s node ids to the new ids in `self`
    /// (`sub`'s root maps to `self`'s root).
    pub fn graft_under_root(&mut self, sub: &DataGraph) -> Vec<NodeId> {
        let mut map = vec![NodeId(u32::MAX); sub.node_count()];
        map[sub.root().index()] = self.root;
        // Re-intern labels and copy every non-root node.
        for node in sub.node_ids() {
            if node == sub.root() {
                continue;
            }
            let name = sub.label_name(node);
            let label = self.intern(name);
            map[node.index()] = self.add_node(label);
        }
        // Copy every edge, re-rooting edges out of sub's root.
        for (from, to, kind) in sub.edges() {
            let (f, t) = (map[from.index()], map[to.index()]);
            self.add_edge(f, t, kind);
        }
        map
    }

    /// Total memory-resident size estimate in bytes (labels + both
    /// adjacency directions; the reference column is left out). Used only
    /// for reporting; not part of the paper's cost model.
    pub fn approx_bytes(&self) -> usize {
        let node_bytes = self.labels.len() * std::mem::size_of::<LabelId>();
        node_bytes + 2 * self.edge_count() * std::mem::size_of::<NodeId>()
    }
}

impl Default for DataGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl LabeledGraph for DataGraph {
    #[inline]
    fn node_count(&self) -> usize {
        self.labels.len()
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
        self.adjacency.children(node).expect("node id out of range")
    }

    #[inline]
    fn parents_of(&self, node: NodeId) -> &[NodeId] {
        self.adjacency.parents(node).expect("node id out of range")
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

impl fmt::Debug for DataGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DataGraph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .field("labels", &self.interner.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DataGraph {
        // ROOT -> a -> b, ROOT -> a' -> b', a -ref-> b'
        let mut g = DataGraph::new();
        let a = g.add_labeled_node("a");
        let b = g.add_labeled_node("b");
        let a2 = g.add_labeled_node("a");
        let b2 = g.add_labeled_node("b");
        let root = g.root();
        g.add_edge(root, a, EdgeKind::Tree);
        g.add_edge(a, b, EdgeKind::Tree);
        g.add_edge(root, a2, EdgeKind::Tree);
        g.add_edge(a2, b2, EdgeKind::Tree);
        g.add_edge(a, b2, EdgeKind::Reference);
        g
    }

    #[test]
    fn new_graph_has_only_root() {
        let g = DataGraph::new();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.label_of(g.root()), LabelInterner::ROOT);
    }

    #[test]
    fn nodes_with_label_finds_all() {
        let mut g = tiny();
        let a = g.intern("a");
        assert_eq!(g.nodes_with_label(a).len(), 2);
        let zed = g.intern("zed");
        assert!(g.nodes_with_label(zed).is_empty());
    }

    #[test]
    fn reference_edges_count_like_tree_edges() {
        let g = tiny();
        assert_eq!(g.edge_count(), 5);
        let b2 = NodeId::from_index(4);
        // b2 has two parents: its tree parent a2 and the referencing a.
        assert_eq!(g.parents_of(b2).len(), 2);
    }

    #[test]
    fn graft_under_root_copies_structure() {
        let mut g = tiny();
        let mut h = DataGraph::new();
        let c = h.add_labeled_node("c");
        let d = h.add_labeled_node("d");
        let hroot = h.root();
        h.add_edge(hroot, c, EdgeKind::Tree);
        h.add_edge(c, d, EdgeKind::Tree);

        let before_nodes = g.node_count();
        let map = g.graft_under_root(&h);

        assert_eq!(g.node_count(), before_nodes + 2);
        assert_eq!(map[hroot.index()], g.root());
        let new_c = map[c.index()];
        let new_d = map[d.index()];
        assert!(g.has_edge(g.root(), new_c));
        assert!(g.has_edge(new_c, new_d));
        assert_eq!(g.label_name(new_c), "c");
        assert_eq!(g.label_name(new_d), "d");
    }

    #[test]
    fn graft_reinterns_shared_labels() {
        let mut g = tiny();
        let mut h = DataGraph::new();
        let a = h.add_labeled_node("a"); // same name as in g
        let hroot = h.root();
        h.add_edge(hroot, a, EdgeKind::Tree);
        let map = g.graft_under_root(&h);
        let new_a = map[a.index()];
        assert_eq!(g.label_of(new_a), g.labels().get("a").unwrap());
    }

    #[test]
    fn node_ids_iterates_everything() {
        let g = tiny();
        let ids: Vec<NodeId> = g.node_ids().collect();
        assert_eq!(ids.len(), g.node_count());
        assert_eq!(ids[0], g.root());
        assert_eq!(g.node_ids().len(), g.node_count());
    }

    #[test]
    fn clones_share_segments_until_mutated() {
        let g = tiny();
        let mut h = g.clone();
        let shares_all = |h: &DataGraph| h.census_with(&g).map(|c| c.shared == c.rows);
        assert_eq!(shares_all(&h), [true; 4], "a fresh clone shares every column");

        let x = h.add_labeled_node("x");
        let hroot = h.root();
        h.add_edge(hroot, x, EdgeKind::Tree);

        // add_node copies the label column and pushes a row to each other
        // column; the edge copies the one segment of its child and parent
        // rows. Nothing is copied that did not change.
        let census = h.census_with(&g);
        assert_eq!(census.map(|c| c.copied()), [6, 6, 6, 1]);
        assert!(census.iter().all(|c| c.copied_unchanged == 0));
        // The original snapshot is untouched by the clone's mutation.
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 5);
        assert!(g.labels().get("x").is_none());
    }

    #[test]
    fn wide_star_builds_in_linear_time() {
        // Every leaf checks its (empty) parent row, not ROOT's children.
        let mut g = DataGraph::new();
        let leaf = g.intern("leaf");
        let root = g.root();
        for _ in 0..1 << 17 {
            let n = g.add_node(leaf);
            assert!(g.add_edge(root, n, EdgeKind::Tree));
        }
        assert_eq!(g.children_of(root).len(), 1 << 17);
        assert_eq!(g.children_of(root)[5], NodeId::from_index(6));
    }

    #[test]
    fn from_rows_refuses_what_is_not_a_graph() {
        let root = || vec![LabelInterner::ROOT];
        let refuse = |labels, ends: &[u32], targets: &[NodeId]| {
            let rows = SegCsr::from_rows(ends.iter().copied(), targets.iter().copied()).unwrap();
            DataGraph::from_rows(LabelInterner::new(), labels, rows, |_| false).unwrap_err()
        };
        let value = vec![LabelInterner::VALUE];
        assert_eq!(refuse(value, &[0], &[]), "node 0 must carry the ROOT label");
        let unknown = vec![LabelInterner::ROOT, LabelId(2)];
        assert_eq!(refuse(unknown, &[0, 0], &[]), "a label id is out of range");
        assert_eq!(refuse(root(), &[0, 0], &[]), "the child rows are not one per node");
        assert_eq!(refuse(root(), &[1], &[NodeId(1)]), "a target is not a node");
        assert_eq!(refuse(root(), &[2], &[NodeId(0); 2]), "a row repeats a target");
    }

    #[test]
    fn label_name_round_trip() {
        let g = tiny();
        assert_eq!(g.label_name(g.root()), "ROOT");
        assert_eq!(g.label_name(NodeId::from_index(1)), "a");
    }
}
