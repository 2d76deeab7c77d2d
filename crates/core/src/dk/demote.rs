//! The demoting process (paper §5.4).
//!
//! Refinement-style updates grow the index; when size becomes a liability the
//! D(k)-index is shrunk by *lowering* per-label requirements and merging
//! index nodes with the same label. Per Theorem 2 there is no need to
//! reconstruct from the data graph: the current index is a refinement of the
//! target D(k)-index, so the target is obtained by treating the current
//! index graph as a data graph and re-running construction on it —
//! [`crate::IndexGraph::reindex`].
//!
//! Two safety valves beyond the paper's sketch (documented in DESIGN.md):
//! merged blocks' similarities are capped by the *recorded* similarity of
//! their constituents (edge updates may have lowered them below the new
//! requirement), and the Definition 3 constraint is re-enforced afterwards
//! by Algorithm 5's walk seeded with every node
//! ([`crate::dk::lower_downstream`]).

use crate::dk::construct::DkIndex;
use crate::requirements::Requirements;
use dkindex_telemetry as telemetry;

impl DkIndex {
    /// Demote to (lower) `new_requirements`, merging index nodes without
    /// touching the data graph. Returns the number of index nodes saved.
    pub fn demote(&mut self, new_requirements: Requirements) -> usize {
        let _span = telemetry::Span::start(&telemetry::metrics::DK_DEMOTE_NS);
        let before = self.size();
        let merged = crate::dk::construct::reindex_dk(self.index(), &new_requirements);
        self.replace_index(merged);
        self.set_requirements(new_requirements);
        let saved = before.saturating_sub(self.size());
        telemetry::metrics::DK_DEMOTIONS.incr();
        telemetry::metrics::DK_DEMOTE_NODES_SAVED.add(saved as u64);
        saved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{assert_stable, check_structure};
    use crate::dk::edge_update::{lower_downstream, EdgeUpdateOutcome};
    use crate::eval::{evaluate_on_data, IndexEvaluator};
    use dkindex_graph::{DataGraph, EdgeKind, LabeledGraph, NodeId};
    use dkindex_pathexpr::parse;

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
    fn demote_matches_fresh_build_theorem2() {
        let g = data();
        let mut dk = DkIndex::build(&g, Requirements::uniform(2));
        let saved = dk.demote(Requirements::uniform(1));
        assert!(saved > 0);
        check_structure(dk.index(), &g).unwrap();
        let fresh = DkIndex::build(&g, Requirements::uniform(1));
        assert!(dk
            .index()
            .to_partition()
            .same_equivalence(&fresh.index().to_partition()));
    }

    #[test]
    fn demote_to_label_split() {
        let g = data();
        let mut dk = DkIndex::build(&g, Requirements::uniform(3));
        dk.demote(Requirements::new());
        assert_eq!(dk.size(), 5); // ROOT, director, actor, movie, title
        check_structure(dk.index(), &g).unwrap();
    }

    #[test]
    fn demote_after_edge_updates_stays_sound() {
        let mut g = data();
        let mut dk = DkIndex::build(&g, Requirements::uniform(2));
        // Lower similarities with updates first.
        let a = g.nodes_with_label(g.labels().get("actor").unwrap())[0];
        let t1 = g.nodes_with_label(g.labels().get("title").unwrap())[0];
        dk.add_edge(&mut g, a, t1);
        // Now demote: capped similarities must stay truthful.
        dk.demote(Requirements::uniform(1));
        check_structure(dk.index(), &g).unwrap();
        assert_stable(dk.index(), &g, 4);
        for expr in ["movie.title", "actor.title", "director.movie.title"] {
            let e = parse(expr).unwrap();
            let out = IndexEvaluator::new(dk.index(), &g).evaluate(&e);
            assert_eq!(out.matches, evaluate_on_data(&g, &e).0, "{expr}");
        }
    }

    #[test]
    fn demote_then_promote_round_trip() {
        let g = data();
        let reqs2 = Requirements::uniform(2);
        let mut dk = DkIndex::build(&g, reqs2.clone());
        let size2 = dk.size();
        dk.demote(Requirements::new());
        assert!(dk.size() < size2);
        // Promote back up.
        dk.set_requirements(reqs2);
        dk.promote_to_requirements(&g);
        assert_eq!(dk.size(), size2);
        check_structure(dk.index(), &g).unwrap();
    }

    #[test]
    fn lowering_from_every_node_repairs_a_violator() {
        let g = data();
        let mut dk = DkIndex::build(&g, Requirements::uniform(2));
        // Manufacture a violation.
        let t1 = g.nodes_with_label(g.labels().get("title").unwrap())[0];
        let t_inode = dk.index().index_of(t1);
        dk.index_mut().set_similarity(t_inode, 50);
        assert!(check_structure(dk.index(), &g).is_err());
        let mut fixed = dk.index().clone();
        let every_node: Vec<NodeId> = fixed.node_ids().collect();
        let mut outcome = EdgeUpdateOutcome::default();
        lower_downstream(&mut fixed, every_node, &mut outcome);
        check_structure(&fixed, &g).unwrap();
        assert_eq!(outcome.lowered, 1, "only the violator is lowered");
    }

    #[test]
    fn demote_is_idempotent() {
        let g = data();
        let mut dk = DkIndex::build(&g, Requirements::uniform(2));
        dk.demote(Requirements::uniform(1));
        let size = dk.size();
        let saved = dk.demote(Requirements::uniform(1));
        assert_eq!(saved, 0);
        assert_eq!(dk.size(), size);
    }
}
