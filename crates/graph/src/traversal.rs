//! Graph traversal utilities: depth maps and the *incoming label-path*
//! machinery that underpins bisimilarity checks (paper §3: "if two nodes are
//! bisimilar, the set of paths coming into them is the same"). Whether a
//! label path matches a node is `dkindex_pathexpr::matches_ending_at`, which
//! decides it for any path expression.

use crate::graph::{LabeledGraph, NodeId};
use crate::label::LabelId;
use std::collections::{HashSet, VecDeque};

/// Shortest distance (in edges) from the root to every node; `None` for
/// unreachable nodes.
pub fn depth_from_root<G: LabeledGraph>(g: &G) -> Vec<Option<usize>> {
    let mut depth = vec![None; g.node_count()];
    let mut queue = VecDeque::new();
    depth[g.root().index()] = Some(0);
    queue.push_back(g.root());
    while let Some(n) = queue.pop_front() {
        let d = depth[n.index()].expect("queued nodes have depth");
        for &c in g.children_of(n) {
            if depth[c.index()].is_none() {
                depth[c.index()] = Some(d + 1);
                queue.push_back(c);
            }
        }
    }
    depth
}

/// All distinct label paths of length exactly `len` that come into `node`.
///
/// Exponential in the worst case; intended for tests and validation on small
/// neighborhoods (the A(k)/D(k) soundness properties quantify over these
/// sets). Paths are returned sorted and deduplicated.
pub fn incoming_label_paths<G: LabeledGraph>(
    g: &G,
    node: NodeId,
    len: usize,
) -> Vec<Vec<LabelId>> {
    // Frontier of (node, reversed-suffix) pairs grown backward.
    let mut paths: HashSet<(NodeId, Vec<LabelId>)> = HashSet::new();
    paths.insert((node, vec![g.label_of(node)]));
    for _ in 1..len.max(1) {
        let mut next = HashSet::new();
        for (n, suffix) in &paths {
            for &p in g.parents_of(*n) {
                let mut ext = Vec::with_capacity(suffix.len() + 1);
                ext.push(g.label_of(p));
                ext.extend_from_slice(suffix);
                next.insert((p, ext));
            }
        }
        paths = next;
        if paths.is_empty() {
            break;
        }
    }
    let mut out: Vec<Vec<LabelId>> = if len == 0 {
        vec![Vec::new()]
    } else {
        paths.into_iter().map(|(_, p)| p).collect()
    };
    out.sort();
    out.dedup();
    out
}

/// All distinct label paths of length `<= max_len` into `node`, including the
/// empty path. Useful for checking the A(k) property "the set of label paths
/// of length ≤ k into k-bisimilar nodes is the same".
pub fn incoming_label_paths_up_to<G: LabeledGraph>(
    g: &G,
    node: NodeId,
    max_len: usize,
) -> Vec<Vec<LabelId>> {
    let mut all = Vec::new();
    for len in 0..=max_len {
        all.extend(incoming_label_paths(g, node, len));
    }
    all.sort();
    all.dedup();
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DataGraph, EdgeKind};

    /// ROOT -> x(a) -> y(b) -> z(c); ROOT -> w(b)
    fn chain() -> (DataGraph, NodeId, NodeId, NodeId, NodeId) {
        let mut g = DataGraph::new();
        let x = g.add_labeled_node("a");
        let y = g.add_labeled_node("b");
        let z = g.add_labeled_node("c");
        let w = g.add_labeled_node("b");
        let r = g.root();
        g.add_edge(r, x, EdgeKind::Tree);
        g.add_edge(x, y, EdgeKind::Tree);
        g.add_edge(y, z, EdgeKind::Tree);
        g.add_edge(r, w, EdgeKind::Tree);
        (g, x, y, z, w)
    }

    #[test]
    fn depth_from_root_measures_shortest_paths() {
        let (mut g, x, _, z, w) = chain();
        assert_eq!(depth_from_root(&g)[z.index()], Some(3));
        assert_eq!(depth_from_root(&g)[w.index()], Some(1));
        // A shortcut edge root -> z shortens z's depth to 1.
        let r = g.root();
        g.add_edge(r, z, EdgeKind::Reference);
        assert_eq!(depth_from_root(&g)[z.index()], Some(1));
        assert_eq!(depth_from_root(&g)[x.index()], Some(1));
    }

    #[test]
    fn unreachable_nodes_have_no_depth() {
        let mut g = DataGraph::new();
        let orphan = g.add_labeled_node("o");
        assert_eq!(depth_from_root(&g)[orphan.index()], None);
    }

    #[test]
    fn incoming_label_paths_enumerates_exact_lengths() {
        let (g, _, y, _, w) = chain();
        let l = |s: &str| g.labels().get(s).unwrap();
        let root = crate::label::LabelInterner::ROOT;
        assert_eq!(incoming_label_paths(&g, y, 1), vec![vec![l("b")]]);
        assert_eq!(incoming_label_paths(&g, y, 2), vec![vec![l("a"), l("b")]]);
        // w's length-2 incoming path goes through ROOT.
        assert_eq!(incoming_label_paths(&g, w, 2), vec![vec![root, l("b")]]);
        // Longer than any path into w: empty set.
        assert!(incoming_label_paths(&g, w, 3).is_empty());
    }

    #[test]
    fn incoming_label_paths_up_to_includes_all_lengths() {
        let (g, _, y, _, _) = chain();
        let paths = incoming_label_paths_up_to(&g, y, 2);
        // empty path, [b], [a,b]
        assert_eq!(paths.len(), 3);
        assert!(paths.contains(&Vec::new()));
    }

    #[test]
    fn incoming_paths_merge_across_multiple_parents() {
        // Two parents with different labels both reach the same child.
        let mut g = DataGraph::new();
        let p1 = g.add_labeled_node("p");
        let p2 = g.add_labeled_node("q");
        let c = g.add_labeled_node("c");
        let r = g.root();
        g.add_edge(r, p1, EdgeKind::Tree);
        g.add_edge(r, p2, EdgeKind::Tree);
        g.add_edge(p1, c, EdgeKind::Tree);
        g.add_edge(p2, c, EdgeKind::Reference);
        let paths = incoming_label_paths(&g, c, 2);
        assert_eq!(paths.len(), 2);
    }
}
