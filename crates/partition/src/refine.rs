//! Backward-signature refinement: the engine behind A(k), 1-index and D(k)
//! construction.
//!
//! One *round* of refinement computes, for every node, the set of blocks its
//! parents currently occupy, and regroups nodes by `(current block, parent
//! block set)`. By induction this turns the label partition into exactly the
//! k-bisimulation partition after k rounds (paper Definition 2): two nodes
//! stay together through round k+1 iff they were together after round k and
//! their parents cover the same round-k classes — the inductive definition of
//! `≈^{k+1}`.
//!
//! Round cost is O(m log m) (sorting each node's parent-block list), so k
//! rounds match the paper's O(km) construction bound up to the log factor.

use crate::partition::{BlockId, Partition};
use dkindex_graph::{LabeledGraph, NodeId};

/// The deduplicated, sorted set of blocks occupied by `node`'s parents under
/// `prev` — the refinement *signature* of `node`.
pub fn parent_signature<G: LabeledGraph>(g: &G, prev: &Partition, node: NodeId) -> Vec<BlockId> {
    let mut sig: Vec<BlockId> = g
        .parents_of(node)
        .iter()
        .map(|&p| prev.block_of(p))
        .collect();
    sig.sort_unstable();
    sig.dedup();
    sig
}

/// One refinement round applied to every block. Returns the refined partition
/// and whether anything split.
pub fn refine_round<G: LabeledGraph>(g: &G, prev: &Partition) -> (Partition, bool) {
    prev.split_by_key(|n| parent_signature(g, prev, n))
}

/// One refinement round applied only to blocks for which `refine_block`
/// returns true; other blocks pass through unchanged.
///
/// This is the primitive behind D(k) construction (Algorithm 2): in round k
/// only index nodes whose local-similarity requirement is ≥ k are split.
/// Splitting is still keyed on the signature against the *entire* previous
/// partition, exactly as Algorithm 2 splits against the full copy `X` of the
/// current index graph.
pub fn refine_round_selective<G: LabeledGraph>(
    g: &G,
    prev: &Partition,
    refine_block: impl Fn(BlockId) -> bool,
) -> (Partition, bool) {
    prev.split_by_key(|n| {
        let b = prev.block_of(n);
        if refine_block(b) {
            Some(parent_signature(g, prev, n))
        } else {
            None // all members of a skipped block share the key
        }
    })
}

/// The k-bisimulation partition of `g` (paper Definition 2), i.e. the extents
/// of the A(k)-index. Stops early if a fixpoint is reached before k rounds.
pub fn k_bisimulation<G: LabeledGraph>(g: &G, k: usize) -> Partition {
    let mut p = Partition::by_label(g);
    for _ in 0..k {
        let (next, changed) = refine_round(g, &p);
        p = next;
        if !changed {
            break;
        }
    }
    p
}

/// The full (unbounded) bisimulation partition of `g` — the extents of the
/// 1-index — computed by iterating [`refine_round`] to fixpoint.
///
/// Takes at most `n` rounds; see [`crate::coarsest`] for the worklist
/// algorithm in the style of Paige–Tarjan that the paper cites for the
/// 1-index, against which this function is cross-checked in tests.
pub fn bisimulation_fixpoint<G: LabeledGraph>(g: &G) -> Partition {
    let mut p = Partition::by_label(g);
    loop {
        let (next, changed) = refine_round(g, &p);
        p = next;
        if !changed {
            return p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkindex_graph::{DataGraph, EdgeKind};

    /// The movie fragment of the paper's Figure 1 discussion: two `movie`
    /// nodes, one reachable through an `actor` parent and one not, so they
    /// are 0-bisimilar but not 1-bisimilar.
    fn movie_like() -> (DataGraph, NodeId, NodeId) {
        let mut g = DataGraph::new();
        let actor = g.add_labeled_node("actor");
        let director = g.add_labeled_node("director");
        let m_by_actor = g.add_labeled_node("movie");
        let m_by_director = g.add_labeled_node("movie");
        let r = g.root();
        g.add_edge(r, actor, EdgeKind::Tree);
        g.add_edge(r, director, EdgeKind::Tree);
        g.add_edge(actor, m_by_actor, EdgeKind::Tree);
        g.add_edge(director, m_by_director, EdgeKind::Tree);
        (g, m_by_actor, m_by_director)
    }

    #[test]
    fn zero_rounds_is_label_partition() {
        let (g, ..) = movie_like();
        assert!(k_bisimulation(&g, 0).same_equivalence(&Partition::by_label(&g)));
    }

    #[test]
    fn one_round_separates_by_parent_labels() {
        let (g, ma, md) = movie_like();
        let p0 = k_bisimulation(&g, 0);
        let p1 = k_bisimulation(&g, 1);
        assert!(p0.same_block(ma, md));
        assert!(!p1.same_block(ma, md));
        assert!(p1.is_refinement_of(&p0));
    }

    #[test]
    fn rounds_are_monotone_refinements() {
        let (g, ..) = movie_like();
        let mut prev = k_bisimulation(&g, 0);
        for k in 1..5 {
            let next = k_bisimulation(&g, k);
            assert!(next.is_refinement_of(&prev), "round {k} must refine round {}", k - 1);
            prev = next;
        }
    }

    #[test]
    fn fixpoint_is_stable_under_further_rounds() {
        let (g, ..) = movie_like();
        let fix = bisimulation_fixpoint(&g);
        let (again, changed) = refine_round(&g, &fix);
        assert!(!changed);
        assert!(again.same_equivalence(&fix));
    }

    #[test]
    fn k_bisimulation_saturates_at_depth() {
        let (g, ..) = movie_like();
        // Refinement reaches its fixpoint within `node_count` rounds.
        let d = g.node_count();
        let at_depth = k_bisimulation(&g, d);
        let beyond = k_bisimulation(&g, d + 3);
        assert!(at_depth.same_equivalence(&beyond));
        assert!(at_depth.same_equivalence(&bisimulation_fixpoint(&g)));
    }

    #[test]
    fn parent_signature_dedups_blocks() {
        // Node with two parents in the same block: signature has one entry.
        let mut g = DataGraph::new();
        let p1 = g.add_labeled_node("p");
        let p2 = g.add_labeled_node("p");
        let c = g.add_labeled_node("c");
        let r = g.root();
        g.add_edge(r, p1, EdgeKind::Tree);
        g.add_edge(r, p2, EdgeKind::Tree);
        g.add_edge(p1, c, EdgeKind::Tree);
        g.add_edge(p2, c, EdgeKind::Reference);
        let labels = Partition::by_label(&g);
        assert_eq!(parent_signature(&g, &labels, c).len(), 1);
    }

    #[test]
    fn selective_refinement_skips_unflagged_blocks() {
        let (g, ma, md) = movie_like();
        let p0 = Partition::by_label(&g);
        let movie_block = p0.block_of(ma);
        // Refine only the movie block: movies split, actors/directors do not.
        let (p1, changed) = refine_round_selective(&g, &p0, |b| b == movie_block);
        assert!(changed);
        assert!(!p1.same_block(ma, md));
        // All other blocks unchanged => block count grew by exactly 1.
        assert_eq!(p1.block_count(), p0.block_count() + 1);
    }

    #[test]
    fn selective_refinement_with_all_flags_equals_full_round() {
        let (g, ..) = movie_like();
        let p0 = Partition::by_label(&g);
        let (full, _) = refine_round(&g, &p0);
        let (sel, _) = refine_round_selective(&g, &p0, |_| true);
        assert!(full.same_equivalence(&sel));
    }

    #[test]
    fn diamond_with_reference_edge_refines_correctly() {
        // b1 and b2 share labels; b2 additionally has a `c`-labeled parent
        // via a reference edge, so they separate at k=1.
        let mut g = DataGraph::new();
        let a = g.add_labeled_node("a");
        let c = g.add_labeled_node("c");
        let b1 = g.add_labeled_node("b");
        let b2 = g.add_labeled_node("b");
        let r = g.root();
        g.add_edge(r, a, EdgeKind::Tree);
        g.add_edge(r, c, EdgeKind::Tree);
        g.add_edge(a, b1, EdgeKind::Tree);
        g.add_edge(a, b2, EdgeKind::Tree);
        g.add_edge(c, b2, EdgeKind::Reference);
        let p1 = k_bisimulation(&g, 1);
        assert!(!p1.same_block(b1, b2));
    }

    #[test]
    fn fixpoint_of_chain_separates_every_node() {
        // ROOT -> a -> a -> a : the three `a`s separate one per round.
        let mut g = DataGraph::new();
        let a1 = g.add_labeled_node("a");
        let a2 = g.add_labeled_node("a");
        let a3 = g.add_labeled_node("a");
        let r = g.root();
        g.add_edge(r, a1, EdgeKind::Tree);
        g.add_edge(a1, a2, EdgeKind::Tree);
        g.add_edge(a2, a3, EdgeKind::Tree);
        assert_eq!(k_bisimulation(&g, 1).block_count(), 3);
        assert_eq!(bisimulation_fixpoint(&g).block_count(), 4);
    }
}
