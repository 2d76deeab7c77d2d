//! The 1-index (Milo & Suciu): extents are the full bisimulation equivalence
//! classes. Safe and sound for path expressions of any length — and usually
//! much larger than an A(k) or D(k) index, which is why the paper relaxes it.

use crate::index_graph::{IndexGraph, SIM_EXACT};
use dkindex_graph::DataGraph;
use dkindex_partition::coarsest_stable_refinement;

/// The 1-index.
#[derive(Clone, Debug)]
pub struct OneIndex {
    index: IndexGraph,
}

impl OneIndex {
    /// Build the 1-index via the worklist coarsest stable refinement (the
    /// Paige–Tarjan-style construction the paper cites in §4.1) — not via
    /// `RefineEngine`: a baseline stays off the engine it is compared against.
    pub fn build(data: &DataGraph) -> Self {
        let p = coarsest_stable_refinement(data);
        let sims = vec![SIM_EXACT; p.block_count()];
        OneIndex {
            index: IndexGraph::from_data_partition(data, &p, sims),
        }
    }

    /// The underlying index graph.
    pub fn index(&self) -> &IndexGraph {
        &self.index
    }

    /// Number of index nodes.
    pub fn size(&self) -> usize {
        self.index.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::akindex::AkIndex;
    use crate::audit::check_structure;
    use crate::eval::{evaluate_on_data, IndexEvaluator};
    use dkindex_graph::{EdgeKind, LabeledGraph};
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
        g.add_edge(m2, m1, EdgeKind::Reference);
        g
    }

    #[test]
    fn one_index_is_always_sound() {
        let g = data();
        let one = OneIndex::build(&g);
        check_structure(one.index(), &g).unwrap();
        for expr in [
            "director.movie.title",
            "actor.movie.movie.title",
            "ROOT._._.title",
        ] {
            let e = parse(expr).unwrap();
            let out = IndexEvaluator::new(one.index(), &g).evaluate(&e);
            assert!(!out.validated, "{expr} should not validate on the 1-index");
            assert_eq!(out.matches, evaluate_on_data(&g, &e).0, "{expr}");
        }
    }

    #[test]
    fn one_index_refines_every_ak() {
        let g = data();
        let one = OneIndex::build(&g);
        for k in 0..4 {
            let ak = AkIndex::build(&g, k);
            assert!(one
                .index()
                .to_partition()
                .is_refinement_of(&ak.index().to_partition()));
            assert!(one.size() >= ak.size());
        }
    }

    #[test]
    fn one_index_never_larger_than_data() {
        let g = data();
        assert!(OneIndex::build(&g).size() <= g.node_count());
    }
}
