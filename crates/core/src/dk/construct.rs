//! Algorithm 2: D(k)-index construction.
//!
//! Start from the label-split partition, repair the requirements with the
//! broadcast algorithm (Algorithm 1), then refine round by round: in round
//! `k`, only blocks whose (inherited) requirement is at least `k` are split
//! against the previous round's partition. After `k_max` rounds every block's
//! extent is `requirement`-bisimilar and the structural constraint of
//! Definition 3 holds, because the broadcast guaranteed
//! `req(parent) ≥ req(child) − 1` and requirements are inherited on splits.

use crate::dk::broadcast::broadcast_requirements;
use crate::dk::edge_update::{lower_downstream, EdgeUpdateOutcome};
use crate::index_graph::IndexGraph;
use crate::requirements::Requirements;
use dkindex_graph::{DataGraph, LabeledGraph, NodeId};
use dkindex_partition::{Partition, RefineEngine};
use dkindex_telemetry as telemetry;

/// Compute the D(k) partition of `g` together with the per-block local
/// similarity (the broadcast-adjusted requirement). Generic over
/// [`LabeledGraph`] so the same routine re-indexes an index graph (the
/// subgraph-addition update and the demoting process, via Theorem 2).
pub fn dk_partition<G: LabeledGraph>(
    g: &G,
    reqs: &Requirements,
) -> (Partition, Vec<usize>) {
    dk_partition_with_options(g, reqs, true)
}

/// [`dk_partition`] with the broadcast step (Algorithm 1) made optional.
///
/// `use_broadcast = false` exists **only** for the ablation experiment that
/// demonstrates why Algorithm 1 is necessary: without it the result can
/// violate the Definition 3 constraint and claim soundness it does not have.
pub fn dk_partition_with_options<G: LabeledGraph>(
    g: &G,
    reqs: &Requirements,
    use_broadcast: bool,
) -> (Partition, Vec<usize>) {
    let mut engine = RefineEngine::new();
    let span = telemetry::Span::start(&telemetry::metrics::DK_CONSTRUCT_NS);
    let p0 = Partition::by_label(g);
    let table = reqs.resolve(g.labels());
    let mut block_req: Vec<usize> = p0
        .block_ids()
        .map(|b| table[g.label_of(p0.members(b)[0]).index()])
        .collect();
    if use_broadcast {
        broadcast_requirements(g, &p0, &mut block_req);
    }
    let k_max = block_req.iter().copied().max().unwrap_or(0);

    let mut p = p0;
    for k in 1..=k_max {
        let req_snapshot = block_req.clone();
        let (next, changed) =
            engine.refine_round_selective(g, &p, |b| req_snapshot[b.index()] >= k);
        if changed {
            // New blocks inherit the requirement of the block they split from.
            let mut next_req = vec![0usize; next.block_count()];
            for b in next.block_ids() {
                let member = next.members(b)[0];
                next_req[b.index()] = req_snapshot[p.block_of(member).index()];
            }
            block_req = next_req;
        }
        p = next;
    }
    drop(span);
    telemetry::metrics::DK_CONSTRUCTIONS.incr();
    telemetry::metrics::DK_CONSTRUCT_ROUNDS.add(k_max as u64);
    telemetry::metrics::DK_BLOCKS_PER_CONSTRUCTION.record(p.block_count() as u64);
    (p, block_req)
}

/// Re-index `base` (an index graph treated as a data graph, per Theorem 2)
/// for `reqs`, with two safety valves beyond the paper's sketch: each merged
/// block's similarity is capped by the *recorded* similarity of its
/// constituent index nodes (edge updates may have lowered them below the
/// requirement — the recorded value is the truthful bound), and the
/// Definition 3 constraint is re-enforced afterwards. Both are no-ops when
/// `base` is a clean D(k)-index, so the Theorem 2 equality is preserved.
pub(crate) fn reindex_dk(base: &IndexGraph, reqs: &Requirements) -> IndexGraph {
    let (p, mut sims) = dk_partition(base, reqs);
    for b in p.block_ids() {
        let min_member = p
            .members(b)
            .iter()
            .map(|&inode| base.similarity(inode))
            .min()
            .expect("blocks are non-empty");
        sims[b.index()] = sims[b.index()].min(min_member);
    }
    let mut merged = IndexGraph::reindex(base, &p, sims);
    let every_node: Vec<NodeId> = merged.node_ids().collect();
    lower_downstream(&mut merged, every_node, &mut EdgeUpdateOutcome::default());
    merged
}

/// The D(k)-index: an adaptive structural summary whose per-node local
/// similarities follow the query load (paper §4).
#[derive(Clone, Debug)]
pub struct DkIndex {
    index: IndexGraph,
    requirements: Requirements,
}

impl DkIndex {
    /// Build the D(k)-index of `data` for the given per-label requirements
    /// (Algorithm 2). Empty requirements give the label-split graph; uniform
    /// requirements `k` give exactly the A(k)-index.
    pub fn build(data: &DataGraph, requirements: Requirements) -> Self {
        let (p, sims) = dk_partition(data, &requirements);
        DkIndex {
            index: IndexGraph::from_data_partition(data, &p, sims),
            requirements,
        }
    }

    /// Reassemble a D(k)-index from stored parts (the `store` module's
    /// loader, which validates invariants against the loaded data graph).
    pub(crate) fn from_parts(index: IndexGraph, requirements: Requirements) -> Self {
        DkIndex {
            index,
            requirements,
        }
    }

    /// The underlying index graph.
    pub fn index(&self) -> &IndexGraph {
        &self.index
    }

    /// Mutable access for update algorithms within the crate.
    pub(crate) fn index_mut(&mut self) -> &mut IndexGraph {
        &mut self.index
    }

    /// Replace the index graph (used by re-indexing updates).
    pub(crate) fn replace_index(&mut self, index: IndexGraph) {
        self.index = index;
    }

    /// The requirements this index was built/tuned for.
    pub fn requirements(&self) -> &Requirements {
        &self.requirements
    }

    /// Update the stored requirements (demote/promote bookkeeping).
    pub(crate) fn set_requirements(&mut self, reqs: Requirements) {
        self.requirements = reqs;
    }

    /// Number of index nodes (the paper's index size).
    pub fn size(&self) -> usize {
        self.index.size()
    }

    /// The extent of the index node containing `data_node`.
    ///
    /// A data node appended to the graph after construction is not yet
    /// refined into any index block; until the next update or rebuild folds
    /// it in, its extent is the singleton `{data_node}` — returned here as
    /// an owned fallback rather than panicking on the unmapped id.
    pub fn extent_of(&self, data_node: NodeId) -> std::borrow::Cow<'_, [NodeId]> {
        if data_node.index() < self.index.node_map_len() {
            std::borrow::Cow::Borrowed(self.index.extent(self.index.index_of(data_node)))
        } else {
            std::borrow::Cow::Owned(vec![data_node])
        }
    }

    /// Register every data node appended after construction (ids at or past
    /// the index's node map) as a fresh singleton index node with local
    /// similarity 0. Called by the update algorithms before they resolve
    /// node → block mappings, so updates touching fresh nodes never panic.
    pub(crate) fn register_fresh_nodes(&mut self, data: &DataGraph) {
        while self.index.node_map_len() < data.node_count() {
            let n = NodeId::from_index(self.index.node_map_len());
            let label = self.index.intern(data.label_name(n));
            self.index.push_node(label, vec![n], 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::check_structure;
    use dkindex_graph::EdgeKind;
    use dkindex_partition::k_bisimulation;

    /// The construction example of the paper's Figure 2: label E requires
    /// local similarity 2, all other labels require 1.
    ///
    /// Graph: ROOT → A₁ → B₁ → E₁ ; ROOT → A₂ → C → E₂ ; B₂ under C.
    /// (A reconstruction exercising the same mechanism: E's requirement 2
    /// forces its parents to ≥ 1, and E nodes split apart at round 2 because
    /// their parents' 1-bisimulation classes differ.)
    fn figure2_like() -> (DataGraph, Vec<NodeId>) {
        let mut g = DataGraph::new();
        let a1 = g.add_labeled_node("A");
        let a2 = g.add_labeled_node("A");
        let b1 = g.add_labeled_node("B");
        let c = g.add_labeled_node("C");
        let b2 = g.add_labeled_node("B");
        let e1 = g.add_labeled_node("E");
        let e2 = g.add_labeled_node("E");
        let r = g.root();
        g.add_edge(r, a1, EdgeKind::Tree);
        g.add_edge(r, a2, EdgeKind::Tree);
        g.add_edge(a1, b1, EdgeKind::Tree);
        g.add_edge(a2, c, EdgeKind::Tree);
        g.add_edge(c, b2, EdgeKind::Tree);
        g.add_edge(b1, e1, EdgeKind::Tree);
        g.add_edge(b2, e2, EdgeKind::Tree);
        (g, vec![a1, a2, b1, c, b2, e1, e2])
    }

    #[test]
    fn empty_requirements_give_label_split() {
        let (g, _) = figure2_like();
        let dk = DkIndex::build(&g, Requirements::new());
        check_structure(dk.index(), &g).unwrap();
        assert_eq!(dk.size(), 5); // ROOT, A, B, C, E
        for i in dk.index().node_ids() {
            assert_eq!(dk.index().similarity(i), 0);
        }
    }

    #[test]
    fn uniform_requirements_equal_ak_index() {
        let (g, _) = figure2_like();
        for k in 0..4 {
            let dk = DkIndex::build(&g, Requirements::uniform(k));
            let ak = k_bisimulation(&g, k);
            assert!(
                dk.index().to_partition().same_equivalence(&ak),
                "D(uniform {k}) != A({k})"
            );
            check_structure(dk.index(), &g).unwrap();
        }
    }

    #[test]
    fn figure2_mixed_requirements() {
        let (g, n) = figure2_like();
        let reqs = Requirements::from_pairs([("A", 1), ("B", 1), ("C", 1), ("E", 2)]);
        let dk = DkIndex::build(&g, reqs);
        check_structure(dk.index(), &g).unwrap();
        let idx = dk.index();
        // E nodes: 1-bisimilar (both have B parents) but their B parents'
        // 1-classes differ (B₁ under A, B₂ under C) → split at round 2.
        let (e1, e2) = (n[5], n[6]);
        assert_ne!(idx.index_of(e1), idx.index_of(e2));
        // B nodes split at round 1 already (parents A vs C).
        let (b1, b2) = (n[2], n[4]);
        assert_ne!(idx.index_of(b1), idx.index_of(b2));
        // A nodes are 1-bisimilar (both under ROOT): stay together.
        let (a1, a2) = (n[0], n[1]);
        assert_eq!(idx.index_of(a1), idx.index_of(a2));
        // Similarities: E blocks get 2, B blocks get 1 (broadcast: ≥ 2-1).
        assert_eq!(idx.similarity(idx.index_of(e1)), 2);
        assert_eq!(idx.similarity(idx.index_of(b1)), 1);
        // Extents truly are as bisimilar as claimed.
        idx.check_extent_bisimilarity(&g, 4).unwrap();
    }

    #[test]
    fn broadcast_inside_construction_repairs_constraints() {
        let (g, _) = figure2_like();
        // Only E requires similarity (2); B/C/A default to 0 → broadcast must
        // raise B (E's parent label) to 1.
        let reqs = Requirements::from_pairs([("E", 2)]);
        let dk = DkIndex::build(&g, reqs);
        check_structure(dk.index(), &g).unwrap(); // includes Definition 3 check
        let idx = dk.index();
        let b_label = g.labels().get("B").unwrap();
        for i in idx.node_ids() {
            if idx.label_of(i) == b_label {
                assert_eq!(idx.similarity(i), 1);
            }
        }
    }

    #[test]
    fn requirement_capped_by_graph_depth_is_harmless() {
        let (g, _) = figure2_like();
        let dk = DkIndex::build(&g, Requirements::uniform(10));
        check_structure(dk.index(), &g).unwrap();
        // Equivalent to the full bisimulation.
        let fix = dkindex_partition::bisimulation_fixpoint(&g);
        assert!(dk.index().to_partition().same_equivalence(&fix));
    }

    #[test]
    fn dk_is_between_a0_and_full_bisimulation() {
        let (g, _) = figure2_like();
        let reqs = Requirements::from_pairs([("E", 2)]);
        let dk = DkIndex::build(&g, reqs);
        let a0 = Partition::by_label(&g);
        let fix = dkindex_partition::bisimulation_fixpoint(&g);
        let p = dk.index().to_partition();
        assert!(p.is_refinement_of(&a0));
        assert!(fix.is_refinement_of(&p));
    }

    #[test]
    fn extent_of_returns_block_members() {
        let (g, n) = figure2_like();
        let dk = DkIndex::build(&g, Requirements::new());
        let extent = dk.extent_of(n[5]); // an E node under label-split
        assert!(extent.contains(&n[5]) && extent.contains(&n[6]));
    }

    #[test]
    fn extent_of_falls_back_to_singleton_for_post_construction_nodes() {
        let (mut g, _) = figure2_like();
        let dk = DkIndex::build(&g, Requirements::new());
        // A node appended after construction has no index block yet: its
        // extent is the singleton fallback, not a panic.
        let fresh = g.add_labeled_node("Z");
        assert_eq!(dk.extent_of(fresh).as_ref(), &[fresh]);
    }
}
