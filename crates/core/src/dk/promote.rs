//! Algorithm 6: the promoting process (paper §5.3).
//!
//! Edge updates gradually *lower* local similarities, so more queries trigger
//! validation. The promoting process — run periodically — upgrades an index
//! node's local similarity back up: first its parents are (recursively)
//! promoted to `k_n − 1`, then its extent is split until it is stable with
//! respect to every parent's successor set, exactly as in construction.
//! Batch promotion processes higher targets first so ancestor promotions are
//! shared ("some index node promotions may be saved").
//!
//! The split test counts from the fragment's side: `|extent(f) ∩ Succ(W)|`
//! is the number of members with a data parent in `extent(W)`, so one pass
//! over the fragment's members and their parents prices every parent `W` at
//! once, and no successor set is ever built. The splits, their order and
//! therefore the index are those of the `Succ(W)` formulation kept in
//! [`crate::dk::reference`].

use crate::dk::construct::DkIndex;
use crate::index_graph::IndexGraph;
use dkindex_graph::{DataGraph, LabeledGraph, NodeId};
use dkindex_telemetry as telemetry;

impl DkIndex {
    /// Promote the index node containing `data_node` to local similarity
    /// `k_n`. Returns the number of extent splits performed.
    pub fn promote(&mut self, data: &DataGraph, data_node: NodeId, k_n: usize) -> usize {
        self.promote_with(data, data_node, k_n, &mut Splitters::default())
    }

    /// [`DkIndex::promote`] over caller-owned step-3 counters, so a batch
    /// sizes them once.
    fn promote_with(
        &mut self,
        data: &DataGraph,
        data_node: NodeId,
        k_n: usize,
        splitters: &mut Splitters,
    ) -> usize {
        telemetry::metrics::DK_PROMOTE_CALLS.incr();
        let mut splits = 0;
        // A split performed during promotion can move `data_node` into the
        // fresh fragment; re-resolve and continue until its node is raised.
        loop {
            let inode = self.index().index_of(data_node);
            if self.index().similarity(inode) >= k_n {
                telemetry::metrics::DK_PROMOTE_SPLITS.add(splits as u64);
                return splits;
            }
            promote_inode(self.index_mut(), data, inode, k_n, &mut splits, 0, splitters);
        }
    }

    /// Promote a batch of `(data node, k)` targets, highest `k` first.
    ///
    /// Duplicate targets — the same data node twice, or two members of the
    /// same extent — describe one promotion, not two: the batch is deduped by
    /// the target's *current* index block (keeping the highest requested `k`
    /// per block) before any split work, so the returned split count matches
    /// a sequential [`DkIndex::promote`] loop over the same targets.
    pub fn promote_batch(&mut self, data: &DataGraph, targets: &[(NodeId, usize)]) -> usize {
        // (block, data node, k); deterministic dedupe: group by block, keep
        // the highest k (ties broken by lowest data-node index).
        let mut ordered: Vec<(NodeId, NodeId, usize)> = targets
            .iter()
            .map(|&(n, k)| (self.index().index_of(n), n, k))
            .collect();
        ordered.sort_by_key(|&(b, n, k)| (b.index(), std::cmp::Reverse(k), n.index()));
        ordered.dedup_by_key(|entry| entry.0);
        ordered.sort_by_key(|&(_, n, k)| (std::cmp::Reverse(k), n.index()));
        let mut splitters = Splitters::default();
        let mut splits = 0;
        for (_, n, k) in ordered {
            splits += self.promote_with(data, n, k, &mut splitters);
        }
        splits
    }

    /// Promote every index node whose label carries a requirement in
    /// `self.requirements()` back up to that requirement — the "periodic
    /// tuning" use of the promoting process after a stream of edge updates.
    ///
    /// Iterates until no index node sits below its label's requirement:
    /// promoting one node splits others (its recursive parents), and the
    /// split fragments may themselves still need a raise.
    pub fn promote_to_requirements(&mut self, data: &DataGraph) -> usize {
        let _span = telemetry::Span::start(&telemetry::metrics::DK_PROMOTE_NS);
        let reqs = self.requirements().clone();
        let mut splits = 0;
        loop {
            let table = reqs.resolve(self.index().labels());
            // One representative per lagging index node, highest first.
            let mut targets: Vec<(NodeId, usize)> = Vec::new();
            for inode in self.index().node_ids() {
                let label = self.index().label_of(inode);
                let want = table.get(label.index()).copied().unwrap_or(0);
                if self.index().similarity(inode) < want {
                    targets.push((self.index().extent(inode)[0], want));
                }
            }
            if targets.is_empty() {
                return splits;
            }
            splits += self.promote_batch(data, &targets);
        }
    }
}

/// Step 3's per-parent-block counters, reused by every fragment check of a
/// promotion so that none allocates. While fragment `f` is counted,
/// `hits[W]` is `|extent(f) ∩ Succ(W)|` and `last[W]` the member counted
/// last for `W`: a member with two data parents in one block counts once.
/// `touched` lists the blocks to clear before the next fragment.
#[derive(Default)]
struct Splitters {
    hits: Vec<usize>,
    last: Vec<Option<NodeId>>,
    touched: Vec<NodeId>,
}

impl Splitters {
    /// The members of `f` that the first parent (in `parents_of(f)` order)
    /// whose successor set cuts `extent(f)` takes out, in extent order; `None`
    /// when `f` is stable against every parent.
    ///
    /// `m ∈ Succ(W)` iff some data parent of `m` lies in `extent(W)`, i.e.
    /// has `index_of(p) == W`, so the count is exact while the node map
    /// agrees with the extents. A fragment check costs the in-degrees of its
    /// members, not the out-degrees of its parents' extents.
    fn first_cut(
        &mut self,
        index: &IndexGraph,
        data: &DataGraph,
        f: NodeId,
    ) -> Option<Vec<NodeId>> {
        if self.hits.len() < index.size() {
            self.hits.resize(index.size(), 0);
            self.last.resize(index.size(), None);
        }
        let extent = index.extent(f);
        for &m in extent {
            for &p in data.parents_of(m) {
                let w = index.index_of(p);
                let last = &mut self.last[w.index()];
                if *last != Some(m) {
                    if last.is_none() {
                        self.touched.push(w);
                    }
                    *last = Some(m);
                    self.hits[w.index()] += 1;
                }
            }
        }
        let cut = index
            .parents_of(f)
            .iter()
            .copied()
            .find(|w| (1..extent.len()).contains(&self.hits[w.index()]));
        for w in self.touched.drain(..) {
            self.hits[w.index()] = 0;
            self.last[w.index()] = None;
        }
        let w = cut?;
        let has_parent_in_w =
            |m: &NodeId| data.parents_of(*m).iter().any(|&p| index.index_of(p) == w);
        Some(extent.iter().copied().filter(has_parent_in_w).collect())
    }
}

/// Recursive promotion of one index node (Algorithm 6).
fn promote_inode(
    index: &mut IndexGraph,
    data: &DataGraph,
    inode: NodeId,
    k_n: usize,
    splits: &mut usize,
    depth: usize,
    splitters: &mut Splitters,
) {
    if index.similarity(inode) >= k_n {
        return;
    }
    // Defensive bound: k decreases by one per level, so recursion deeper
    // than the initial k_n plus the index diameter indicates a logic error.
    assert!(depth <= 2 * k_n + 64, "promotion recursion runaway");

    // Step 2: promote parents to k_n - 1 (re-reading the parent list each
    // time, since promoting one parent may split others). A node that is its
    // own parent (a self-loop in the index graph) is promoted to k_n - 1
    // like any other parent — the recursion is on a strictly smaller k, so
    // it terminates, and without it the step-3 split would run against a
    // parent of insufficient similarity and claim bisimilarity it lacks.
    if k_n > 0 {
        loop {
            let pending: Option<NodeId> = index
                .parents_of(inode)
                .iter()
                .copied()
                .find(|&w| index.similarity(w) < k_n - 1);
            match pending {
                Some(w) => promote_inode(index, data, w, k_n - 1, splits, depth + 1, splitters),
                None => break,
            }
        }
    }

    // Step 3: split extent(inode) against each parent's successor set,
    // iterated to a fixpoint. A single pass over a parent snapshot is not
    // enough: splitting can change a fragment's parent list (and, through
    // index self-loops, the splitter extents themselves), so each fragment
    // is re-checked against its *current* parents until all are stable.
    let mut fragments: Vec<NodeId> = vec![inode];
    'restabilize: loop {
        for i in 0..fragments.len() {
            let f = fragments[i];
            if let Some(inside) = splitters.first_cut(index, data, f) {
                let new_node = index.split_extent(f, &inside, k_n, data);
                *splits += 1;
                fragments.push(new_node);
                continue 'restabilize;
            }
        }
        break;
    }
    for f in fragments {
        index.set_similarity(f, k_n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::check_structure;
    use crate::eval::{evaluate_on_data, IndexEvaluator};
    use crate::requirements::Requirements;
    use dkindex_graph::EdgeKind;
    use dkindex_pathexpr::parse;

    /// director/actor movie graph where titles need k=2 to be exact.
    fn data() -> DataGraph {
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
    fn promote_from_label_split_reaches_requirement() {
        let g = data();
        let mut dk = DkIndex::build(&g, Requirements::new()); // all k = 0
        let t1 = g.nodes_with_label(g.labels().get("title").unwrap())[0];
        let splits = dk.promote(&g, t1, 2);
        assert!(splits > 0);
        let idx = dk.index();
        assert_eq!(idx.similarity(idx.index_of(t1)), 2);
        check_structure(idx, &g).unwrap();
        idx.check_extent_bisimilarity(&g, 4).unwrap();
    }

    #[test]
    fn promoted_index_equals_fresh_dk() {
        let g = data();
        let mut dk = DkIndex::build(&g, Requirements::new());
        let t1 = g.nodes_with_label(g.labels().get("title").unwrap())[0];
        let t2 = g.nodes_with_label(g.labels().get("title").unwrap())[1];
        dk.promote(&g, t1, 2);
        dk.promote(&g, t2, 2);
        let fresh = DkIndex::build(&g, Requirements::from_pairs([("title", 2)]));
        assert!(dk
            .index()
            .to_partition()
            .same_equivalence(&fresh.index().to_partition()));
    }

    #[test]
    fn promote_is_idempotent() {
        let g = data();
        let mut dk = DkIndex::build(&g, Requirements::new());
        let t1 = g.nodes_with_label(g.labels().get("title").unwrap())[0];
        dk.promote(&g, t1, 2);
        let size = dk.size();
        let splits = dk.promote(&g, t1, 2);
        assert_eq!(splits, 0);
        assert_eq!(dk.size(), size);
    }

    #[test]
    fn promote_restores_soundness_after_edge_updates() {
        let mut g = data();
        let reqs = Requirements::from_pairs([("title", 2)]);
        let mut dk = DkIndex::build(&g, reqs);
        let e = parse("director.movie.title").unwrap();

        // Degrade with an update: new movie under both director and actor.
        let a = g.nodes_with_label(g.labels().get("actor").unwrap())[0];
        let m1 = g.nodes_with_label(g.labels().get("movie").unwrap())[0];
        dk.add_edge(&mut g, a, m1);
        let degraded = IndexEvaluator::new(dk.index(), &g).evaluate(&e);
        assert!(degraded.validated, "update should force validation");

        // Periodic promotion restores requirement-level similarity.
        dk.promote_to_requirements(&g);
        check_structure(dk.index(), &g).unwrap();
        dk.index().check_extent_bisimilarity(&g, 4).unwrap();
        let restored = IndexEvaluator::new(dk.index(), &g).evaluate(&e);
        assert!(!restored.validated, "promotion should remove validation");
        assert_eq!(restored.matches, evaluate_on_data(&g, &e).0);
    }

    #[test]
    fn promote_batch_orders_high_k_first() {
        let g = data();
        let mut dk = DkIndex::build(&g, Requirements::new());
        let t1 = g.nodes_with_label(g.labels().get("title").unwrap())[0];
        let m1 = g.nodes_with_label(g.labels().get("movie").unwrap())[0];
        let splits = dk.promote_batch(&g, &[(m1, 1), (t1, 2)]);
        assert!(splits > 0);
        let idx = dk.index();
        assert!(idx.similarity(idx.index_of(t1)) >= 2);
        assert!(idx.similarity(idx.index_of(m1)) >= 1);
        check_structure(idx, &g).unwrap();
    }

    #[test]
    fn promote_batch_dedupes_duplicate_and_same_block_targets() {
        let g = data();
        let title = g.labels().get("title").unwrap();
        let movie = g.labels().get("movie").unwrap();
        let t1 = g.nodes_with_label(title)[0];
        let t2 = g.nodes_with_label(title)[1];
        let m1 = g.nodes_with_label(movie)[0];
        // t1 appears twice and t2 shares t1's initial block: three of the
        // five entries describe promotions already covered by another entry.
        let targets = [(t1, 2), (t1, 2), (t2, 2), (t2, 1), (m1, 1)];

        let mut batched = DkIndex::build(&g, Requirements::new());
        let batch_splits = batched.promote_batch(&g, &targets);

        let mut sequential = DkIndex::build(&g, Requirements::new());
        let mut seq_splits = 0;
        for &(n, k) in &targets {
            seq_splits += sequential.promote(&g, n, k);
        }

        assert_eq!(batch_splits, seq_splits, "batch must not double-count splits");
        assert!(batched
            .index()
            .to_partition()
            .same_equivalence(&sequential.index().to_partition()));
        check_structure(batched.index(), &g).unwrap();
    }

    /// A member with two data parents in one parent block counts once: `m1`
    /// (parents `p1`, `p2`, both in block `a`) is in `Succ(a)` and `m2` (no
    /// parent at all) is not, so the count is 1 of 2 and the fragment splits.
    /// Counting `m1` once per parent would read 2 of 2 and skip the split.
    #[test]
    fn a_member_with_two_parents_in_one_block_counts_once() {
        let mut g = DataGraph::new();
        let p1 = g.add_labeled_node("a");
        let p2 = g.add_labeled_node("a");
        let m1 = g.add_labeled_node("b");
        let m2 = g.add_labeled_node("b");
        let r = g.root();
        g.add_edge(r, p1, EdgeKind::Tree);
        g.add_edge(r, p2, EdgeKind::Tree);
        g.add_edge(p1, m1, EdgeKind::Tree);
        g.add_edge(p2, m1, EdgeKind::Reference);
        let mut dk = DkIndex::build(&g, Requirements::new());
        assert_eq!(dk.index().index_of(m1), dk.index().index_of(m2));

        assert_eq!(dk.promote(&g, m1, 1), 1);
        let idx = dk.index();
        assert_eq!(idx.extent(idx.index_of(m1)), &[m1]);
        assert_eq!(idx.extent(idx.index_of(m2)), &[m2]);
        assert_eq!(idx.similarity(idx.index_of(m2)), 1);
        idx.check_extent_bisimilarity(&g, 4).unwrap();
    }

    #[test]
    fn promote_on_cyclic_graph_terminates() {
        let mut g = DataGraph::new();
        let a = g.add_labeled_node("a");
        let b = g.add_labeled_node("b");
        let r = g.root();
        g.add_edge(r, a, EdgeKind::Tree);
        g.add_edge(a, b, EdgeKind::Tree);
        g.add_edge(b, a, EdgeKind::Reference);
        let mut dk = DkIndex::build(&g, Requirements::new());
        dk.promote(&g, b, 3);
        check_structure(dk.index(), &g).unwrap();
        dk.index().check_extent_bisimilarity(&g, 4).unwrap();
    }
}
